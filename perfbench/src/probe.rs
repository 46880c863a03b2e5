//! The outside-in slot probe: a [`SlotRecorder`] owned by the benchmark
//! that timestamps the engine's public hook order, so one traced
//! `SlotDriver::step` call splits into layer segments without any span
//! inside the program.
//!
//! Hook order inside one step (see `SlotDriver::step`):
//!
//! ```text
//! step entry ─gate─ begin_slot ─pre-sched + sched─ record_sched_latency_ns
//!   ─(hook gap)─ record_alloc ─transmit─ first record_user ─device─
//!   record_live ─admission─ end_slot ─post─ step return
//! ```
//!
//! The scheduler's own time comes from `record_sched_latency_ns` and is
//! subtracted from the pre-scheduler segment. Every segment is an
//! integer-nanosecond difference of offsets from the caller's entry
//! stamp, so the segments plus the unaccounted hook gap equal the
//! caller-timed step exactly.

use jmso_radio::rrc::RrcState;
use jmso_sim::{AdmissionDecision, SlotRecorder};
use std::time::Instant;

/// One traced slot split into segments, nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Segments {
    pub gate: u64,
    pub pre_sched: u64,
    pub sched: u64,
    pub transmit: u64,
    pub device: u64,
    pub admission: u64,
    pub post: u64,
    pub unaccounted: u64,
}

impl Segments {
    /// Sum of every segment, the unaccounted remainder included.
    pub fn total(&self) -> u64 {
        self.gate
            + self.pre_sched
            + self.sched
            + self.transmit
            + self.device
            + self.admission
            + self.post
            + self.unaccounted
    }

    pub fn add(&mut self, o: &Segments) {
        self.gate += o.gate;
        self.pre_sched += o.pre_sched;
        self.sched += o.sched;
        self.transmit += o.transmit;
        self.device += o.device;
        self.admission += o.admission;
        self.post += o.post;
        self.unaccounted += o.unaccounted;
    }
}

/// Hook timestamps of one slot as offsets (ns) from the caller's step
/// entry stamp.
#[derive(Debug, Clone, Copy, Default)]
pub struct Marks {
    pub begin: u64,
    pub sched_done: u64,
    pub sched_ns: u64,
    pub alloc: u64,
    pub first_user: Option<u64>,
    pub live: u64,
    pub end: u64,
}

impl Marks {
    /// Split a step that returned `ret` ns after entry. Marks are
    /// clamped monotone so a clock read out of order can never produce
    /// a negative segment; the clamping moves time between neighbouring
    /// segments only, so the closure `total() == ret` always holds.
    pub fn segments(&self, ret: u64) -> Segments {
        let begin = self.begin.min(ret);
        let sched_done = self.sched_done.clamp(begin, ret);
        let sched = self.sched_ns.min(sched_done - begin);
        let alloc = self.alloc.clamp(sched_done, ret);
        let live = self.live.clamp(alloc, ret);
        let first_user = self.first_user.unwrap_or(live).clamp(alloc, live);
        let end = self.end.clamp(live, ret);
        Segments {
            gate: begin,
            pre_sched: sched_done - begin - sched,
            sched,
            transmit: first_user - alloc,
            device: live - first_user,
            admission: end - live,
            post: ret - end,
            unaccounted: alloc - sched_done,
        }
    }
}

/// Exact per-run counts the probe sees through the hooks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub slots: u64,
    pub grant_units: u64,
    pub cap_units: u64,
    /// Slots whose grants exceeded the Eq. (2) budget (must stay 0).
    pub cap_violations: u64,
    pub admitted: u64,
    pub deferred: u64,
    pub rejected: u64,
    pub abr_switches: u64,
    pub rrc_transitions: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.slots += o.slots;
        self.grant_units += o.grant_units;
        self.cap_units += o.cap_units;
        self.cap_violations += o.cap_violations;
        self.admitted += o.admitted;
        self.deferred += o.deferred;
        self.rejected += o.rejected;
        self.abr_switches += o.abr_switches;
        self.rrc_transitions += o.rrc_transitions;
    }
}

/// The benchmark's recorder. `enabled()` is true, so the engine runs
/// its instrumented branch (scheduler timing, queue export, RRC
/// callbacks) — the cost `trace.overhead_ratio` reports.
pub struct Probe {
    entry: Instant,
    marks: Marks,
    slot_cap: u64,
    pub counts: Counts,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    pub fn new() -> Self {
        Self {
            entry: Instant::now(),
            marks: Marks::default(),
            slot_cap: 0,
            counts: Counts::default(),
        }
    }

    fn now(&self) -> u64 {
        self.entry.elapsed().as_nanos() as u64
    }

    /// Stamp the caller's step entry; returns the stamp so the caller
    /// can time the return against the same origin.
    pub fn enter(&mut self) -> Instant {
        self.marks = Marks::default();
        self.entry = Instant::now();
        self.entry
    }

    /// The marks of the slot just stepped.
    pub fn marks(&self) -> Marks {
        self.marks
    }
}

impl SlotRecorder for Probe {
    fn enabled(&self) -> bool {
        true
    }

    fn begin_slot(&mut self, _slot: u64, bs_cap_units: u64) {
        self.marks.begin = self.now();
        self.slot_cap = bs_cap_units;
        self.counts.slots += 1;
        self.counts.cap_units += bs_cap_units;
    }

    fn record_sched_latency_ns(&mut self, ns: u64) {
        self.marks.sched_done = self.now();
        self.marks.sched_ns = ns;
    }

    fn record_alloc(&mut self, alloc: &[u64]) {
        self.marks.alloc = self.now();
        let granted: u64 = alloc.iter().sum();
        self.counts.grant_units += granted;
        if granted > self.slot_cap {
            self.counts.cap_violations += 1;
        }
    }

    fn record_user(&mut self, _id: usize, _energy_mj: f64, _total_rebuffer_s: f64) {
        if self.marks.first_user.is_none() {
            self.marks.first_user = Some(self.now());
        }
    }

    fn record_rrc_transition(&mut self, _id: usize, _from: RrcState, _to: RrcState) {
        self.counts.rrc_transitions += 1;
    }

    fn record_live(&mut self, _in_system: u64) {
        self.marks.live = self.now();
    }

    fn record_abr_switch(&mut self, _id: usize, _from: usize, _to: usize) {
        self.counts.abr_switches += 1;
    }

    fn record_admission(&mut self, _id: usize, decision: AdmissionDecision) {
        match decision {
            AdmissionDecision::Admit => self.counts.admitted += 1,
            AdmissionDecision::Defer => self.counts.deferred += 1,
            AdmissionDecision::Reject => self.counts.rejected += 1,
        }
    }

    fn end_slot(&mut self) {
        self.marks.end = self.now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmso_sim::{Scenario, SchedulerSpec};

    #[test]
    fn segments_close_on_ordered_marks() {
        let m = Marks {
            begin: 10,
            sched_done: 100,
            sched_ns: 60,
            alloc: 105,
            first_user: Some(130),
            live: 180,
            end: 190,
        };
        let s = m.segments(200);
        assert_eq!(
            s,
            Segments {
                gate: 10,
                pre_sched: 30,
                sched: 60,
                transmit: 25,
                device: 50,
                admission: 10,
                post: 10,
                unaccounted: 5,
            }
        );
        assert_eq!(s.total(), 200);
    }

    #[test]
    fn segments_close_on_degenerate_marks() {
        // No live user this slot, a scheduler time larger than its
        // window, and marks past the caller's return stamp.
        let m = Marks {
            begin: 50,
            sched_done: 40,
            sched_ns: 500,
            alloc: 60,
            first_user: None,
            live: 300,
            end: 90,
        };
        for ret in [0, 45, 70, 250, 1000] {
            assert_eq!(m.segments(ret).total(), ret, "ret {ret}");
        }
    }

    #[test]
    fn probe_accounts_every_traced_step_of_a_real_cell() {
        let mut s = Scenario::paper_default(8).with_scheduler(SchedulerSpec::Default);
        s.slots = 200;
        s.workload.size_range_kb = (2_000.0, 20_000.0);
        let mut probe = Probe::new();
        let mut driver = s.driver(&mut probe, None).expect("driver");
        let mut steps = 0u64;
        let mut sum = Segments::default();
        while !driver.is_finished() {
            let entry = probe.enter();
            driver.step(&mut probe);
            let ret = entry.elapsed().as_nanos() as u64;
            let seg = probe.marks().segments(ret);
            assert_eq!(seg.total(), ret);
            assert!(probe.marks().first_user.is_some() || seg.device == 0);
            sum.add(&seg);
            steps += 1;
        }
        let result = driver.finish(&mut probe);
        assert_eq!(probe.counts.slots, steps);
        assert_eq!(steps, result.slots_run);
        assert_eq!(probe.counts.cap_violations, 0);
        assert!(probe.counts.grant_units > 0);
        assert!(sum.sched > 0 && sum.device > 0);
        // The probe observes; it must not perturb the simulation.
        let mut plain = s.run().expect("run");
        let mut traced = result;
        plain.telemetry = None;
        traced.telemetry = None;
        assert_eq!(plain, traced);
    }
}
