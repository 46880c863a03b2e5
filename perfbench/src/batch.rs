//! Batch workloads: drive the engine through `Scenario::driver` →
//! `SlotDriver::step` → `SlotDriver::finish`, the calls the batch loop
//! and the live service make, timing each call from outside.

use crate::probe::{Counts, Probe, Segments};
use crate::stats::{median, percentile, weighted_percentile, Metrics};
use crate::{peak_rss_mib, Outcome};
use jmso_sim::{DynFaults, NullRecorder, Scenario, SimResult, SlotDriver};
use std::time::{Duration, Instant};

/// Host-time budget a slot must meet to count as on time in a batch
/// run: the paper's slot length τ = 1 s, the real-time deadline a
/// gateway computing the schedule live would face.
const REALTIME_SLOT_NS: f64 = 1e9;

/// Work done on each freshly built driver before its first slot (part
/// of set-up): gateway-live feeds its event schedule here.
/// Called with the cell's index.
pub type Prepare<'a> = &'a dyn Fn(usize, &mut SlotDriver<DynFaults>) -> Result<(), String>;

/// Batch cells need no preparation.
pub fn no_prepare(_: usize, _: &mut SlotDriver<DynFaults>) -> Result<(), String> {
    Ok(())
}

/// One pass over every cell of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_ns: u64,
    pub loop_ns: u64,
    pub slots: u64,
    pub live_user_slots: u64,
    /// `SlotDriver::step` host time per call in pass order, ns.
    pub step_ns: Vec<f64>,
    /// Session arrivals the plan makes due at each of those steps.
    pub due: Vec<u64>,
}

/// Planned session arrivals per slot for each cell (the batch form of
/// an event stream: the step of slot `s` takes in the arrivals due at
/// `s`).
pub fn arrivals_per_slot(cells: &[Scenario]) -> Vec<Vec<u64>> {
    cells
        .iter()
        .map(|c| {
            let mut per_slot = vec![0u64; c.slots as usize];
            for a in c.arrivals.compile(c.n_users, c.seed).arrivals {
                if let Some(n) = per_slot.get_mut(a as usize) {
                    *n += 1;
                }
            }
            per_slot
        })
        .collect()
}

fn live_user_slots(r: &SimResult) -> u64 {
    r.per_user.iter().map(|u| u.active_slots).sum()
}

/// One untraced pass (`NullRecorder`: the zero-overhead instantiation).
pub fn untraced_pass(
    cells: &[Scenario],
    arrivals: &[Vec<u64>],
    prepare: Prepare,
) -> Result<(Pass, Vec<SimResult>), String> {
    let mut pass = Pass::default();
    let mut results = Vec::with_capacity(cells.len());
    let mut rec = NullRecorder;
    for (k, cell) in cells.iter().enumerate() {
        let due = arrivals.get(k).map_or(&[][..], Vec::as_slice);
        let t = Instant::now();
        let mut driver = cell.driver(&mut rec, None).map_err(|e| e.to_string())?;
        prepare(k, &mut driver)?;
        pass.setup_ns += t.elapsed().as_nanos() as u64;
        let t_loop = Instant::now();
        while !driver.is_finished() {
            let slot = driver.next_slot() as usize;
            let t = Instant::now();
            driver.step(&mut rec);
            pass.step_ns.push(t.elapsed().as_nanos() as f64);
            pass.due.push(due.get(slot).copied().unwrap_or(0));
        }
        let result = driver.finish(&mut rec);
        pass.loop_ns += t_loop.elapsed().as_nanos() as u64;
        pass.slots += result.slots_run;
        pass.live_user_slots += live_user_slots(&result);
        results.push(result);
    }
    Ok((pass, results))
}

/// Traced-pass accumulators.
#[derive(Debug, Default)]
pub struct Trace {
    pub segments: Segments,
    pub slots: u64,
    pub sched_ns: Vec<f64>,
    /// Steps whose segments did not sum to the caller-timed step.
    pub closure_misses: u64,
}

/// One traced pass: the same calls under the [`Probe`] recorder.
pub fn traced_pass(
    cells: &[Scenario],
    trace: &mut Trace,
    prepare: Prepare,
) -> Result<(Pass, Vec<SimResult>, Counts), String> {
    let mut pass = Pass::default();
    let mut results = Vec::with_capacity(cells.len());
    let mut counts = Counts::default();
    for (k, cell) in cells.iter().enumerate() {
        let mut probe = Probe::new();
        let t = Instant::now();
        let mut driver = cell.driver(&mut probe, None).map_err(|e| e.to_string())?;
        prepare(k, &mut driver)?;
        pass.setup_ns += t.elapsed().as_nanos() as u64;
        let t_loop = Instant::now();
        while !driver.is_finished() {
            let entry = probe.enter();
            driver.step(&mut probe);
            let ret = entry.elapsed().as_nanos() as u64;
            let seg = probe.marks().segments(ret);
            if seg.total() != ret {
                trace.closure_misses += 1;
            }
            trace.sched_ns.push(seg.sched as f64);
            trace.segments.add(&seg);
            trace.slots += 1;
        }
        let mut result = driver.finish(&mut probe);
        pass.loop_ns += t_loop.elapsed().as_nanos() as u64;
        // The probe produces no summary; clear it anyway so equality
        // with the untraced result ignores telemetry by construction.
        result.telemetry = None;
        pass.slots += result.slots_run;
        pass.live_user_slots += live_user_slots(&result);
        counts.add(&probe.counts);
        results.push(result);
    }
    Ok((pass, results, counts))
}

/// Energy (J) and rebuffering (s) per user that went live.
pub fn sim_per_user(results: &[SimResult]) -> (f64, f64) {
    let mut users = 0u64;
    let mut energy_j = 0.0;
    let mut rebuffer_s = 0.0;
    for r in results {
        users += r.per_user.iter().filter(|u| u.active_slots > 0).count() as u64;
        energy_j += r.total_energy_kj() * 1000.0;
        rebuffer_s += r.total_rebuffer_s();
    }
    let users = users.max(1) as f64;
    (energy_j / users, rebuffer_s / users)
}

/// Structural checks on one result: every user accounted, totals finite.
fn result_ok(cell: &Scenario, r: &SimResult) -> bool {
    r.per_user.len() == cell.n_users
        && r.slots_run >= 1
        && r.slots_run <= cell.slots
        && r.total_energy_kj().is_finite()
        && r.total_rebuffer_s().is_finite()
        && r.warnings.is_empty()
}

/// Checks shared by every batch run: `run` ≡ `run_reference` on small
/// paper cells. Returns (attempted, failed).
pub fn reference_check(seed: u64) -> (u64, u64) {
    let mut failed = 0;
    let cells = crate::workloads::reference_cells(seed);
    for cell in &cells {
        match (cell.run(), cell.run_reference()) {
            (Ok(a), Ok(b)) if a == b => {}
            _ => failed += 1,
        }
    }
    (cells.len() as u64, failed)
}

/// Passes whose step times feed the per-slot medians.
const TIMED_PASSES: usize = 15;

/// Untraced run: passes until `seconds` elapse; every end-to-end metric.
///
/// Every pass repeats the same simulation, so step `i` does the same
/// work in each. Slot and event latencies take, per step position, the
/// median over the first `TIMED_PASSES` passes, then percentiles over
/// positions: a burst of host interference lands in one pass and is
/// filtered out, while a slot that is systematically slow (open-1m's
/// first slot, a full collector pass) stays in the tail.
pub fn run_untraced(cells: &[Scenario], seed: u64, seconds: u64) -> Result<Outcome, String> {
    let arrivals = arrivals_per_slot(cells);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Option<Vec<SimResult>> = None;
    let mut peak_rss = 0.0;
    let (mut steps, mut late_steps) = (0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let (mut pass, results) = untraced_pass(cells, &arrivals, &no_prepare)?;
        if passes.is_empty() {
            // Read before the step times of later passes grow this
            // process; every pass repeats the first one's work.
            peak_rss = peak_rss_mib();
        }
        steps += pass.step_ns.len() as u64;
        late_steps += pass
            .step_ns
            .iter()
            .filter(|&&ns| ns > REALTIME_SLOT_NS)
            .count() as u64;
        for (i, (cell, r)) in cells.iter().zip(&results).enumerate() {
            attempted += 1;
            // Same seed, same inputs, same result on every pass.
            let same = first.as_ref().is_none_or(|f| f[i] == *r);
            if !(same && result_ok(cell, r)) {
                failed += 1;
            }
        }
        first.get_or_insert(results);
        if passes.len() >= TIMED_PASSES {
            pass.step_ns = Vec::new();
        }
        passes.push(pass);
        if Instant::now() >= deadline {
            break;
        }
    }
    let (a, f) = reference_check(seed);
    attempted += a;
    failed += f;

    let timed = &passes[..passes.len().min(TIMED_PASSES)];
    let per_slot: Vec<f64> = (0..timed[0].step_ns.len())
        .map(|i| {
            median(
                &timed
                    .iter()
                    .filter_map(|p| p.step_ns.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let mut events: Vec<(f64, u64)> = per_slot
        .iter()
        .zip(&timed[0].due)
        .filter(|(_, &n)| n > 0)
        .map(|(&ns, &n)| (ns / 1e6, n))
        .collect();
    let mut sorted = per_slot.clone();
    sorted.sort_by(f64::total_cmp);
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let (energy, rebuffer) = sim_per_user(first.as_deref().unwrap_or(&[]));
    let mut m = Metrics::default();
    m.put("setup_s", per_pass(&|p| p.setup_ns as f64 / 1e9), "s");
    m.put(
        "wall_s",
        per_pass(&|p| (p.setup_ns + p.loop_ns) as f64 / 1e9),
        "s",
    );
    m.put(
        "slots_per_s",
        per_pass(&|p| p.slots as f64 / (p.loop_ns as f64 / 1e9)),
        "1/s",
    );
    m.put("slot_p50_us", percentile(&sorted, 0.5) / 1e3, "us");
    m.put("slot_p99_us", percentile(&sorted, 0.99) / 1e3, "us");
    m.put(
        "ns_per_live_user_slot",
        per_pass(&|p| p.loop_ns as f64 / p.live_user_slots.max(1) as f64),
        "ns",
    );
    m.put("peak_rss_mb", peak_rss, "MiB");
    m.put("sim_energy_j_per_user", energy, "J");
    m.put("sim_rebuffer_s_per_user", rebuffer, "s");
    m.put(
        "success_ratio",
        (attempted - failed) as f64 / attempted as f64,
        "ratio",
    );
    m.put(
        "event_apply_p50_ms",
        weighted_percentile(&mut events, 0.5),
        "ms",
    );
    m.put(
        "event_apply_p99_ms",
        weighted_percentile(&mut events, 0.99),
        "ms",
    );
    m.put(
        "on_time_ratio",
        (steps - late_steps) as f64 / steps.max(1) as f64,
        "ratio",
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Traced run: every per-layer metric. The service layers read 0.
pub fn run_traced(cells: &[Scenario], seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = trace_cells(&mut m, cells, &no_prepare, seconds)?;
    let (a, f) = reference_check(seed);
    attempted += a;
    failed += f;
    crate::live::absent_svc_metrics(&mut m);
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Alternate untraced and traced passes over `cells` until `seconds`
/// elapse; put the engine-side per-layer metrics. Checks: the traced
/// result equals the untraced one, Σφ ≤ budget in every traced slot,
/// and the segments close on every step. Returns (attempted, failed).
pub fn trace_cells(
    m: &mut Metrics,
    cells: &[Scenario],
    prepare: Prepare,
    seconds: u64,
) -> Result<(u64, u64), String> {
    let deadline = Instant::now() + Duration::from_secs(seconds.max(1));
    let mut trace = Trace::default();
    let mut build_s = Vec::new();
    let mut overhead = Vec::new();
    let mut first: Option<(Counts, u64)> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let (plain, plain_results) = untraced_pass(cells, &[], prepare)?;
        let (traced, traced_results, counts) = traced_pass(cells, &mut trace, prepare)?;
        build_s.push(traced.setup_ns as f64 / 1e9);
        overhead.push(traced.loop_ns as f64 / plain.loop_ns.max(1) as f64);
        for (a, b) in plain_results.iter().zip(&traced_results) {
            attempted += 1;
            if a != b {
                failed += 1;
                eprintln!("traced result differs from the untraced one");
            }
        }
        attempted += 1;
        if counts.cap_violations > 0 {
            failed += 1;
            eprintln!(
                "{} traced slots granted more than the budget",
                counts.cap_violations
            );
        }
        first.get_or_insert((counts, traced.live_user_slots));
        if Instant::now() >= deadline {
            break;
        }
    }
    attempted += 1;
    if trace.closure_misses > 0 {
        failed += 1;
        eprintln!("{} traced steps did not close", trace.closure_misses);
    }
    let (counts, live) = first.unwrap_or_default();
    trace.sched_ns.sort_by(f64::total_cmp);
    layer_metrics(
        m,
        median(&build_s),
        &trace,
        live,
        &counts,
        median(&overhead),
    );
    Ok((attempted, failed))
}

/// The engine-side per-layer metrics from traced passes. `live` and
/// `counts` are one pass's exact totals; segment times average over
/// every traced slot.
fn layer_metrics(
    m: &mut Metrics,
    build_s: f64,
    trace: &Trace,
    live: u64,
    counts: &Counts,
    overhead: f64,
) {
    let slots = trace.slots.max(1) as f64;
    let seg = &trace.segments;
    let per_slot = |ns: u64| ns as f64 / slots;
    // Live user-slots over all traced passes: every pass repeats the
    // first one's simulation exactly.
    let passes = trace.slots as f64 / counts.slots.max(1) as f64;
    let live_all = (live as f64 * passes).max(1.0);
    m.put("scenario.build_s", build_s, "s");
    m.put("engine.gate_ns_per_slot", per_slot(seg.gate), "ns");
    m.put(
        "gateway.pre_sched_ns_per_slot",
        per_slot(seg.pre_sched),
        "ns",
    );
    m.put(
        "gateway.pre_sched_ns_per_live_user_slot",
        seg.pre_sched as f64 / live_all,
        "ns",
    );
    m.put("sched.allocate_ns_per_slot", per_slot(seg.sched), "ns");
    m.put(
        "sched.allocate_p99_ns",
        percentile(&trace.sched_ns, 0.99),
        "ns",
    );
    m.put("transmitter.ns_per_slot", per_slot(seg.transmit), "ns");
    m.put("engine.device_ns_per_slot", per_slot(seg.device), "ns");
    m.put("admission.tick_ns_per_slot", per_slot(seg.admission), "ns");
    m.put("engine.post_ns_per_slot", per_slot(seg.post), "ns");
    m.put(
        "trace.unaccounted_ns_per_slot",
        per_slot(seg.unaccounted),
        "ns",
    );
    m.put("trace.overhead_ratio", overhead, "ratio");
    m.put("engine.live_user_slots", live as f64, "count");
    m.put("sched.grant_units", counts.grant_units as f64, "count");
    m.put("sched.cap_units", counts.cap_units as f64, "count");
    m.put(
        "sched.cap_utilization",
        counts.grant_units as f64 / counts.cap_units.max(1) as f64,
        "ratio",
    );
    m.put("admission.admitted", counts.admitted as f64, "count");
    m.put("admission.deferred", counts.deferred as f64, "count");
    m.put("admission.rejected", counts.rejected as f64, "count");
    // Admitted sessions over ruled sessions (a deferral is re-ruled).
    let ruled = counts.admitted + counts.rejected;
    m.put(
        "admission.admit_ratio",
        counts.admitted as f64 / ruled.max(1) as f64,
        "ratio",
    );
    m.put("abr.switches", counts.abr_switches as f64, "count");
    m.put("rrc.transitions", counts.rrc_transitions as f64, "count");
}
