//! gateway-live: the real `jmso-gateway serve --ingest` binary on a Unix
//! socket, driven by an open-loop generator over its line protocol.
//!
//! One process, two connections: a feed connection carrying the seeded
//! Poisson stream of `arrive`/`depart` events, and one telemetry
//! subscriber. The service acks a `feed` only when its slot loop drains
//! the command bus (once per slot), so the generator batches every event
//! that fell due while it waited into the next `feed` line, and times
//! each event from its due time, not its send time. The subscriber reads
//! only the `{"slot":N,` prefix of each telemetry line and skips the
//! per-user vectors unparsed.
//!
//! Every session of a run replays the same schedule, and each event
//! names its slot as a function of its due time alone, so a run whose
//! events are all acked has a deterministic final schedule. Its
//! simulation outcome, and the engine's share of the cost, come from
//! replaying that schedule in process through the `SlotDriver` calls
//! the service makes (`defer_all_arrivals`, `set_arrival`,
//! `set_departure`, `step`).

use crate::batch;
use crate::stats::{median, percentile, Metrics};
use crate::workloads::{mix, paper_cell};
use crate::Outcome;
use jmso_sim::{DynFaults, Scenario, SimResult, SlotDriver};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Configured users (ids the stream may assign).
const N_USERS: usize = 20_000;
/// Wall-clock slot budget, ms (`serve --slot-ms`).
const SLOT_MS: u64 = 10;
/// Slots per service session: short sessions, so one run averages
/// over many service processes (a process's slot cost on a small host
/// depends on where its threads land).
const HORIZON: u64 = 150;
/// Slots between an event's due time and the slot it names: an event
/// acked later than this is rejected by the service and counts failed.
const LEAD_SLOTS: u64 = 8;
/// Mean arrivals per second of wall time; with departures the stream
/// carries about twice as many events.
const ARRIVALS_PER_S: f64 = 250.0;
/// Mean session length, slots (exponential).
const MEAN_SESSION_SLOTS: f64 = 60.0;
/// Give up on a session whose service stops answering.
const SESSION_TIMEOUT: Duration = Duration::from_secs(40);

/// One scheduled protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Due time after `start` was sent, ns.
    pub due_ns: u64,
    pub user: usize,
    pub slot: u64,
    pub arrive: bool,
}

impl Event {
    fn json(&self) -> String {
        let kind = if self.arrive { "arrive" } else { "depart" };
        format!(
            r#"{{"kind":"{kind}","user":{},"slot":{}}}"#,
            self.user, self.slot
        )
    }
}

/// SplitMix64 stream for the event schedule.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (mix(self.0, 0) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.unit()).ln() * mean
    }
}

/// The seeded open-loop schedule over user ids `ids` (in arrival
/// order), sorted by due time. Arrivals are Poisson; each session departs after an
/// exponential number of slots unless that falls past the horizon.
/// Every event names a slot `LEAD_SLOTS` after its due slot, so all
/// targets lie inside the run.
pub fn schedule(seed: u64, ids: impl Iterator<Item = usize>) -> Vec<Event> {
    let slot_ns = SLOT_MS * 1_000_000;
    let last_due_slot = HORIZON - LEAD_SLOTS - 2;
    let mut rng = Rng(mix(seed, 31));
    let mut events = Vec::new();
    let mut t = 0.0f64;
    for user in ids {
        t += rng.exp(1e9 / ARRIVALS_PER_S);
        let due_slot = t as u64 / slot_ns;
        if due_slot > last_due_slot {
            break;
        }
        let slot = due_slot + LEAD_SLOTS;
        events.push(Event {
            due_ns: t as u64,
            user,
            slot,
            arrive: true,
        });
        let len = (rng.exp(MEAN_SESSION_SLOTS) as u64).max(1);
        if due_slot + len <= last_due_slot {
            events.push(Event {
                due_ns: t as u64 + len * slot_ns,
                user,
                slot: slot + len,
                arrive: false,
            });
        }
    }
    events.sort_by_key(|e| (e.due_ns, e.user, e.arrive));
    events
}

/// The served cell: the Default scheduler over `N_USERS` ids with 2–10 MB
/// videos, so sessions finish and depart within the horizon. The cell
/// runs near its capacity but not past it: deeper congestion, or EMA-fast
/// (where a few users carry most of a short session's energy), makes the
/// per-user outcome swing by tens of percent between seeds.
pub fn scenario(seed: u64) -> Scenario {
    let mut s = paper_cell(N_USERS, mix(seed, 21));
    s.slots = HORIZON;
    s.workload.size_range_kb = (2_000.0, 10_000.0);
    s
}

/// Apply the schedule the way the service does: defer every planned
/// arrival, then the fed events in order.
fn feed_driver(driver: &mut SlotDriver<DynFaults>, events: &[Event]) -> Result<(), String> {
    driver.defer_all_arrivals().map_err(|e| e.to_string())?;
    for e in events {
        let r = if e.arrive {
            driver.set_arrival(e.user, e.slot)
        } else {
            driver.set_departure(e.user, e.slot)
        };
        r.map_err(|err| err.to_string())?;
    }
    Ok(())
}

/// Kills and reaps the service if a session ends early.
struct Service(Child);

impl Drop for Service {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// Resident-set high-water mark of process `pid`, MiB.
fn vm_hwm_mib(pid: u32) -> f64 {
    crate::vm_hwm_mib(Path::new(&format!("/proc/{pid}/status")))
}

/// What the subscriber saw.
#[derive(Debug, Default)]
struct Stream {
    /// (slot, receive time after `start` was sent) per slot record, ns.
    records: Vec<(u64, u64)>,
    record_bytes: u64,
    overruns: u64,
    warnings: u64,
    dropped_events: u64,
    done_ns: Option<u64>,
    peak_rss_mib: f64,
}

/// Read telemetry lines until the service closes the stream, looking
/// only at each line's first bytes.
fn subscribe(conn: UnixStream, t0: Instant, pid: u32) -> Stream {
    let mut s = Stream::default();
    let mut r = BufReader::with_capacity(1 << 16, conn);
    let mut head: Vec<u8> = Vec::with_capacity(64);
    let mut line_bytes = 0u64;
    loop {
        let (consumed, eol) = match r.fill_buf() {
            Ok([]) | Err(_) => break,
            Ok(buf) => {
                let end = buf.iter().position(|&b| b == b'\n');
                let take = end.map_or(buf.len(), |i| i + 1);
                if head.len() < 48 {
                    let room = (48 - head.len()).min(take);
                    head.extend_from_slice(&buf[..room]);
                }
                (take, end.is_some())
            }
        };
        r.consume(consumed);
        line_bytes += consumed as u64;
        if !eol {
            continue;
        }
        let now = t0.elapsed().as_nanos() as u64;
        if let Some(rest) = head.strip_prefix(b"{\"slot\":") {
            let digits: Vec<u8> = rest
                .iter()
                .copied()
                .take_while(u8::is_ascii_digit)
                .collect();
            if let Some(slot) = std::str::from_utf8(&digits)
                .ok()
                .and_then(|d| d.parse().ok())
            {
                s.records.push((slot, now));
                s.record_bytes += line_bytes;
                // Sampled over the last slots: the stream's final lines
                // can be lost at service exit (see `session`).
                if slot + 16 >= HORIZON {
                    s.peak_rss_mib = s.peak_rss_mib.max(vm_hwm_mib(pid));
                }
            }
        } else if head.starts_with(b"{\"event\":\"deadline_overrun\"") {
            s.overruns += 1;
        } else if head.starts_with(b"{\"event\":\"warning\"") {
            s.warnings += 1;
        } else if head.starts_with(b"{\"event\":\"subscriber_dropped\"") {
            s.dropped_events += 1;
        } else if head.starts_with(b"{\"event\":\"done\"") {
            s.done_ns = Some(now);
        }
        head.clear();
        line_bytes = 0;
    }
    s
}

fn connect(sock: &Path, deadline: Instant) -> Result<UnixStream, String> {
    loop {
        match UnixStream::connect(sock) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("connecting {}: {e}", sock.display()))
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Send one command line and read its one-line reply.
fn roundtrip(
    w: &mut UnixStream,
    r: &mut BufReader<UnixStream>,
    line: &str,
) -> Result<String, String> {
    w.write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    match r.read_line(&mut reply) {
        Ok(0) => Err("connection closed".to_string()),
        Ok(_) => Ok(reply),
        Err(e) => Err(format!("reply: {e}")),
    }
}

/// One service session's measurements.
#[derive(Debug, Default)]
struct Session {
    setup_s: f64,
    wall_s: f64,
    slots_per_s: f64,
    records: u64,
    /// Due → ack per event, ms.
    apply_ms: Vec<f64>,
    /// Due → send per event, ms (generator lateness).
    lag_ms: Vec<f64>,
    /// Send → ack per feed line, ms.
    rtt_ms: Vec<f64>,
    /// Slot due time → record received, ns.
    record_lag_ns: Vec<f64>,
    record_bytes: u64,
    overruns: u64,
    peak_rss_mib: f64,
    events_failed: u64,
    bus_rejects: u64,
    dropped_slots: u64,
    dropped_subscribers: u64,
    /// The stream ended before the last record and `done` arrived.
    truncated: bool,
    /// Session-level checks attempted / missed: status clean, stream
    /// complete, no warnings.
    checks: u64,
    checks_failed: u64,
}

/// The open-loop generator: sleep until the next event falls due, then
/// send every event due by now as one `feed` line and wait for its ack.
fn generate(
    feed: &mut UnixStream,
    feed_r: &mut BufReader<UnixStream>,
    t0: Instant,
    events: &[Event],
    out: &mut Session,
) -> Result<(), String> {
    let mut i = 0;
    let mut line = String::new();
    while i < events.len() {
        let now = t0.elapsed().as_nanos() as u64;
        if events[i].due_ns > now {
            thread::sleep(Duration::from_nanos(events[i].due_ns - now));
            continue;
        }
        let j = i + events[i..].partition_point(|e| e.due_ns <= now);
        line.clear();
        line.push_str(r#"{"cmd":"feed","events":["#);
        for (n, e) in events[i..j].iter().enumerate() {
            if n > 0 {
                line.push(',');
            }
            line.push_str(&e.json());
        }
        line.push_str("]}");
        let sent = t0.elapsed().as_nanos() as u64;
        let reply = roundtrip(feed, feed_r, &line)?;
        let acked = t0.elapsed().as_nanos() as u64;
        out.rtt_ms.push((acked - sent) as f64 / 1e6);
        if reply.contains(r#""ok":true"#) {
            for e in &events[i..j] {
                out.apply_ms.push((acked - e.due_ns) as f64 / 1e6);
                out.lag_ms.push((sent - e.due_ns) as f64 / 1e6);
            }
        } else {
            out.events_failed += (j - i) as u64;
            eprintln!(
                "gateway-live: feed of {} events refused: {}",
                j - i,
                reply.trim()
            );
            if reply.contains("queue full") {
                out.bus_rejects += 1;
            }
        }
        i = j;
    }
    Ok(())
}

fn session(
    bin: &Path,
    dir: &Path,
    k: usize,
    scenario_path: &Path,
    events: &[Event],
) -> Result<Session, String> {
    let sock = dir.join(format!("gw{k}.sock"));
    let _ = std::fs::remove_file(&sock);
    let deadline = Instant::now() + SESSION_TIMEOUT;
    let t_spawn = Instant::now();
    let child = Command::new(bin)
        .arg("serve")
        .arg(scenario_path)
        .arg("--listen")
        .arg(format!("unix:{}", sock.display()))
        .args([
            "--ingest",
            "--policy",
            "stall",
            "--slot-ms",
            &SLOT_MS.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let svc = Service(child);
    let pid = svc.0.id();

    let mut feed = connect(&sock, deadline)?;
    feed.set_read_timeout(Some(SESSION_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut feed_r = BufReader::new(feed.try_clone().map_err(|e| e.to_string())?);
    let mut sub = connect(&sock, deadline)?;
    sub.set_read_timeout(Some(SESSION_TIMEOUT))
        .map_err(|e| e.to_string())?;
    sub.write_all(b"{\"cmd\":\"subscribe\"}\n")
        .map_err(|e| e.to_string())?;
    let mut ok = [0u8; 12];
    sub.read_exact(&mut ok)
        .map_err(|e| format!("subscribe: {e}"))?;
    if &ok != b"{\"ok\":true}\n" {
        return Err("subscribe refused".to_string());
    }

    // The service anchors its slot clock between receiving `start` and
    // our reading of the ack; the send time is the bound that never
    // makes a slot look faster than it was. Due times count from it.
    let t0 = Instant::now();
    let reply = roundtrip(&mut feed, &mut feed_r, r#"{"cmd":"start"}"#)?;
    if !reply.contains(r#""ok":true"#) {
        return Err(format!("start refused: {}", reply.trim()));
    }
    let mut out = Session {
        setup_s: t_spawn.elapsed().as_secs_f64(),
        ..Session::default()
    };
    let reader = thread::spawn(move || subscribe(sub, t0, pid));
    let fed = generate(&mut feed, &mut feed_r, t0, events, &mut out)
        .and_then(|()| roundtrip(&mut feed, &mut feed_r, r#"{"cmd":"status"}"#));
    drop(feed_r);
    drop(feed);
    let mut svc = svc;
    if fed.is_err() {
        // Stop the service so the subscriber sees end of stream.
        let _ = svc.0.kill();
    }
    let stream = reader
        .join()
        .map_err(|_| "subscriber thread panicked".to_string())?;
    let status = fed?;
    out.checks += 1;
    match serde_json::from_str::<serde::Value>(&status) {
        Ok(v) => {
            let st = v.get("status");
            let num = |k: &str| match st.and_then(|s| s.get(k)) {
                Some(serde::Value::U64(n)) => *n,
                _ => 0,
            };
            out.dropped_slots = num("dropped_slots");
            out.dropped_subscribers = num("dropped_subscribers");
            let clean = matches!(st.and_then(|s| s.get("warnings")), Some(serde::Value::Seq(w)) if w.is_empty());
            if !clean || out.dropped_slots > 0 || out.dropped_subscribers > 0 {
                out.checks_failed += 1;
                eprintln!("gateway-live: final status not clean: {}", status.trim());
            }
        }
        Err(_) => {
            out.checks_failed += 1;
            eprintln!("gateway-live: unreadable status reply: {}", status.trim());
        }
    }
    loop {
        match svc.0.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
            _ => return Err("service did not exit".to_string()),
        }
    }
    let _ = std::fs::remove_file(&sock);

    // The stream carries slots in order with none skipped, no warning
    // and no drop. Its end is checked apart: the service exits without
    // draining subscriber connections, so the last record and `done`
    // can be lost at exit. That is counted (`fanout.truncated_streams`),
    // not failed, until the service drains before exiting.
    out.checks += 1;
    let in_order = stream
        .records
        .iter()
        .enumerate()
        .all(|(i, r)| r.0 == i as u64);
    if !(in_order && stream.warnings == 0 && stream.dropped_events == 0) {
        out.checks_failed += 1;
        eprintln!(
            "gateway-live: stream out of order or unclean: {} records, {} warnings, {} drops",
            stream.records.len(),
            stream.warnings,
            stream.dropped_events
        );
    }
    out.truncated = stream.records.len() as u64 != HORIZON || stream.done_ns.is_none();
    let slot_ns = SLOT_MS as f64 * 1e6;
    out.records = stream.records.len() as u64;
    out.record_lag_ns = stream
        .records
        .iter()
        .map(|&(slot, at)| (at as f64 - slot as f64 * slot_ns).max(0.0))
        .collect();
    let end_ns = stream
        .done_ns
        .or(stream.records.last().map(|r| r.1))
        .unwrap_or(1);
    out.wall_s = out.setup_s + end_ns as f64 / 1e9;
    out.slots_per_s = out.records as f64 / (end_ns as f64 / 1e9);
    out.record_bytes = stream.record_bytes;
    out.overruns = stream.overruns;
    out.peak_rss_mib = stream.peak_rss_mib;
    Ok(out)
}

/// Untraced in-process replay passes per run (engine cost, sim metrics).
const REPLAY_PASSES: usize = 8;

/// Schedules per run: sessions cycle through them, so every run
/// averages over the same `SCHEDULES` independent event streams. Each
/// schedule draws its users from its own residue class of ids, so the
/// simulated outcome averages over that many user populations, each
/// spread over every signal phase (the paper's RSSI phase follows the
/// user id).
const SCHEDULES: usize = 12;

/// The run's inputs: one served cell and `SCHEDULES` event schedules.
struct Inputs {
    cell: Scenario,
    schedules: Vec<Vec<Event>>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        Self {
            cell: scenario(seed),
            schedules: (0..SCHEDULES)
                .map(|k| schedule(mix(seed, k as u64), (k..N_USERS).step_by(SCHEDULES)))
                .collect(),
        }
    }

    /// Schedule `k` applied the way the service applies it.
    fn prepare(&self, k: usize, d: &mut SlotDriver<DynFaults>) -> Result<(), String> {
        feed_driver(d, &self.schedules[k])
    }
}

/// Sessions until `seconds` elapse, at least one per schedule. Session
/// `i` replays schedule `i % SCHEDULES`.
fn sessions(bin: &Path, dir: &Path, inputs: &Inputs, seconds: u64) -> Result<Vec<Session>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let scenario_path = dir.join("scenario.live.json");
    let text = serde_json::to_string(&inputs.cell).map_err(|e| e.to_string())?;
    std::fs::write(&scenario_path, text).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut out = Vec::new();
    while out.len() < SCHEDULES || Instant::now() < deadline {
        let k = out.len();
        out.push(session(
            bin,
            dir,
            k,
            &scenario_path,
            &inputs.schedules[k % SCHEDULES],
        )?);
    }
    let _ = std::fs::remove_file(&scenario_path);
    Ok(out)
}

fn per_session(sessions: &[Session], f: impl Fn(&Session) -> f64) -> f64 {
    median(&sessions.iter().map(f).collect::<Vec<_>>())
}

/// p99 per session, median over sessions (as batch runs take tails per
/// pass): one disturbed service process moves one sample only.
fn session_p99(sessions: &[Session], f: fn(&Session) -> &Vec<f64>) -> f64 {
    per_session(sessions, |s| {
        let mut v = f(s).clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, 0.99)
    })
}

fn pooled(sessions: &[Session], f: fn(&Session) -> &Vec<f64>) -> Vec<f64> {
    let mut v: Vec<f64> = sessions.iter().flat_map(|s| f(s).iter().copied()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// (attempted, failed): every event sent plus each session's checks.
fn tally(sessions: &[Session], inputs: &Inputs) -> (u64, u64) {
    let events = |i: usize| inputs.schedules[i % SCHEDULES].len() as u64;
    let attempted = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| events(i) + s.checks)
        .sum();
    let failed = sessions
        .iter()
        .map(|s| s.events_failed + s.checks_failed)
        .sum();
    (attempted, failed)
}

/// Untraced gateway-live run: every end-to-end metric.
pub fn run_untraced(bin: &Path, dir: &Path, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let inputs = Inputs::new(seed);
    let ss = sessions(bin, dir, &inputs, seconds)?;
    let (mut attempted, mut failed) = tally(&ss, &inputs);
    // The simulation outcome and engine cost of the schedules, by
    // in-process replay through the calls the service makes.
    let cells = vec![inputs.cell.clone(); SCHEDULES];
    let prepare = |k: usize, d: &mut SlotDriver<DynFaults>| inputs.prepare(k, d);
    let mut engine_ns = Vec::new();
    let mut results: Option<Vec<SimResult>> = None;
    for _ in 0..REPLAY_PASSES {
        attempted += 1;
        match batch::untraced_pass(&cells, &[], &prepare) {
            Ok((pass, r)) => {
                engine_ns.push(pass.loop_ns as f64 / pass.live_user_slots.max(1) as f64);
                if results.as_ref().is_some_and(|first| *first != r) {
                    failed += 1;
                    eprintln!("gateway-live: replays of one schedule differ");
                }
                results.get_or_insert(r);
            }
            Err(e) => {
                failed += 1;
                eprintln!("gateway-live: replay failed: {e}");
            }
        }
    }
    let (energy, rebuffer) = batch::sim_per_user(results.as_deref().unwrap_or(&[]));
    let lag = pooled(&ss, |s| &s.record_lag_ns);
    let apply = pooled(&ss, |s| &s.apply_ms);
    let slots: u64 = ss.iter().map(|s| s.records).sum();
    let overruns: u64 = ss.iter().map(|s| s.overruns).sum();
    let per = |f: fn(&Session) -> f64| per_session(&ss, f);
    let mut m = Metrics::default();
    m.put("setup_s", per(|s| s.setup_s), "s");
    m.put("wall_s", per(|s| s.wall_s), "s");
    m.put("slots_per_s", per(|s| s.slots_per_s), "1/s");
    m.put("slot_p50_us", percentile(&lag, 0.5) / 1e3, "us");
    m.put(
        "slot_p99_us",
        session_p99(&ss, |s| &s.record_lag_ns) / 1e3,
        "us",
    );
    m.put("ns_per_live_user_slot", median(&engine_ns), "ns");
    m.put("peak_rss_mb", per(|s| s.peak_rss_mib), "MiB");
    m.put("sim_energy_j_per_user", energy, "J");
    m.put("sim_rebuffer_s_per_user", rebuffer, "s");
    m.put(
        "success_ratio",
        (attempted - failed) as f64 / attempted as f64,
        "ratio",
    );
    m.put("event_apply_p50_ms", percentile(&apply, 0.5), "ms");
    m.put(
        "event_apply_p99_ms",
        session_p99(&ss, |s| &s.apply_ms),
        "ms",
    );
    m.put(
        "on_time_ratio",
        (slots - overruns.min(slots)) as f64 / slots.max(1) as f64,
        "ratio",
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Traced gateway-live run: the service-side layers from the sessions,
/// the engine-side layers from traced replays of the same schedules.
pub fn run_traced(bin: &Path, dir: &Path, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let inputs = Inputs::new(seed);
    let replay_share = seconds / 4;
    let ss = sessions(bin, dir, &inputs, seconds - replay_share)?;
    let (mut attempted, mut failed) = tally(&ss, &inputs);
    let cells = vec![inputs.cell.clone(); SCHEDULES];
    let prepare = |k: usize, d: &mut SlotDriver<DynFaults>| inputs.prepare(k, d);
    let mut m = Metrics::default();
    let (a, f) = batch::trace_cells(&mut m, &cells, &prepare, replay_share)?;
    attempted += a;
    failed += f;

    let rtt = pooled(&ss, |s| &s.rtt_ms);
    let records: u64 = ss.iter().map(|s| s.records).sum();
    let bytes: u64 = ss.iter().map(|s| s.record_bytes).sum();
    let count = |f: fn(&Session) -> u64| ss.iter().map(f).sum::<u64>() as f64;
    m.put("svc.startup_s", per_session(&ss, |s| s.setup_s), "s");
    m.put("svc.feed_rtt_p50_ms", percentile(&rtt, 0.5), "ms");
    m.put("svc.feed_rtt_p99_ms", session_p99(&ss, |s| &s.rtt_ms), "ms");
    m.put("svc.bus_rejects", count(|s| s.bus_rejects), "count");
    m.put("svc.dropped_slots", count(|s| s.dropped_slots), "count");
    m.put(
        "fanout.bytes_per_slot",
        bytes as f64 / records.max(1) as f64,
        "B",
    );
    m.put(
        "fanout.record_lag_p99_ms",
        session_p99(&ss, |s| &s.record_lag_ns) / 1e6,
        "ms",
    );
    m.put(
        "fanout.dropped_subscribers",
        count(|s| s.dropped_subscribers),
        "count",
    );
    m.put(
        "fanout.truncated_streams",
        count(|s| u64::from(s.truncated)),
        "count",
    );
    m.put("loadgen.lag_p99_ms", session_p99(&ss, |s| &s.lag_ms), "ms");
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Service-layer metrics for workloads that never start the service:
/// they read 0, meaning the layer did no work.
pub fn absent_svc_metrics(m: &mut Metrics) {
    for (name, unit) in [
        ("svc.startup_s", "s"),
        ("svc.feed_rtt_p50_ms", "ms"),
        ("svc.feed_rtt_p99_ms", "ms"),
        ("svc.bus_rejects", "count"),
        ("svc.dropped_slots", "count"),
        ("fanout.bytes_per_slot", "B"),
        ("fanout.record_lag_p99_ms", "ms"),
        ("fanout.dropped_subscribers", "count"),
        ("fanout.truncated_streams", "count"),
        ("loadgen.lag_p99_ms", "ms"),
    ] {
        m.put(name, 0.0, unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_ordered_and_inside_the_horizon() {
        let a = schedule(7, 0..N_USERS);
        assert_eq!(a, schedule(7, 0..N_USERS));
        assert_ne!(a, schedule(8, 0..N_USERS));
        assert!(schedule(7, (1..N_USERS).step_by(3))
            .iter()
            .all(|e| e.user % 3 == 1));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let slot_ns = SLOT_MS * 1_000_000;
        for e in &a {
            assert!(e.slot < HORIZON);
            assert_eq!(e.slot, e.due_ns / slot_ns + LEAD_SLOTS);
        }
        let arrivals = a.iter().filter(|e| e.arrive).count();
        let per_s = arrivals as f64 / ((HORIZON - LEAD_SLOTS) as f64 * SLOT_MS as f64 / 1e3);
        assert!((150.0..350.0).contains(&per_s), "{per_s}");
    }

    #[test]
    fn replay_accepts_the_whole_schedule() {
        let mut cell = scenario(3);
        cell.n_users = 2_000;
        let events = schedule(3, 0..cell.n_users);
        let prepare = |_: usize, d: &mut SlotDriver<DynFaults>| feed_driver(d, &events);
        let (_, r) = batch::untraced_pass(&[cell], &[], &prepare).expect("replay");
        assert_eq!(r[0].slots_run, HORIZON);
        assert!(r[0].per_user.iter().filter(|u| u.active_slots > 0).count() > 100);
    }
}
