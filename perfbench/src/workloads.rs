//! The workloads' inputs, each a pure function of the workload seed.
//! README.md says why each workload is here and which layers it loads.

use jmso_sim::{
    AbrPolicy, AbrSpec, AdmissionSpec, ArrivalSpec, BitrateLadder, Diurnal, Scenario,
    SchedulerSpec, SessionLength, TailPricing, WorkloadSpec,
};

pub const NAMES: [&str; 4] = ["paper-grid", "open-1m", "churn-admission", "gateway-live"];

/// SplitMix64 finalizer: derives independent cell seeds from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's §VI cell: `n` users, 10 000 slots of τ = 1 s, S = 20 MB/s,
/// 375 MB mean videos.
pub fn paper_cell(n: usize, seed: u64) -> Scenario {
    let mut s = Scenario::paper_default(n).with_seed(seed);
    s.workload = WorkloadSpec::paper_default().with_mean_size_mb(375.0);
    s
}

/// The four schedulers of the paper-grid, in run order.
pub fn paper_schedulers() -> [SchedulerSpec; 4] {
    [
        SchedulerSpec::Rtma {
            phi_mj: 900.0,
            best_effort: false,
        },
        SchedulerSpec::Ema {
            v: 1.0,
            tail: TailPricing::default(),
            reference_dp: false,
            pc_clamp: None,
        },
        SchedulerSpec::EmaFast {
            v: 1.0,
            tail: TailPricing::default(),
            pc_clamp: None,
        },
        SchedulerSpec::Default,
    ]
}

/// Cell seeds per N in the paper-grid: three workload draws per N keep
/// the per-seed spread of the run's figures inside their bounds.
const GRID_DRAWS: u64 = 3;

/// Closed paper cells N ∈ {20, 30, 40} × the four schedulers, three
/// draws each; the cells of one draw share a seed, as the paper compares
/// policies on one workload.
pub fn paper_grid(seed: u64) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for n in [20usize, 30, 40] {
        for draw in 0..GRID_DRAWS {
            let base = paper_cell(n, mix(seed, n as u64 * GRID_DRAWS + draw));
            for sched in paper_schedulers() {
                cells.push(base.with_scheduler(sched));
            }
        }
    }
    cells
}

/// 1M configured users under diurnal Poisson churn, Default scheduler,
/// 160 slots (hotpath's "open-system 1M" row).
pub fn open_1m(seed: u64) -> Scenario {
    let mut s = paper_cell(1_000_000, mix(seed, 11));
    s.slots = 160;
    s.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 0.01,
        diurnal: Some(Diurnal {
            period_slots: 5_000,
            depth: 0.5,
        }),
        session_slots: Some(SessionLength::Exponential { mean_slots: 200.0 }),
    };
    s
}

/// Cells per churn-admission pass: averaging three arrival draws keeps
/// the per-seed spread of the run's figures inside their bounds.
const CHURN_CELLS: u64 = 3;

/// 20 000 configured users, diurnal Poisson arrivals every 0.5 slot,
/// EMA-fast(V=1) behind feasibility admission, 3-rung buffer-based ABR,
/// 10 000 slots.
pub fn churn_admission(seed: u64) -> Scenario {
    let mut s = paper_cell(20_000, seed);
    s.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 0.5,
        diurnal: Some(Diurnal {
            period_slots: 5_000,
            depth: 0.5,
        }),
        session_slots: Some(SessionLength::Exponential { mean_slots: 200.0 }),
    };
    s.scheduler = SchedulerSpec::EmaFast {
        v: 1.0,
        tail: TailPricing::default(),
        pc_clamp: None,
    };
    s.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots: 30,
    });
    s.abr = Some(AbrSpec {
        ladder: BitrateLadder {
            multipliers: vec![0.5, 0.75, 1.0],
        },
        chunk_slots: 4,
        policy: AbrPolicy::BufferBased {
            low_s: 4.0,
            high_s: 12.0,
        },
        initial_rung: None,
    });
    s
}

/// Small paper cells (N = 8, one per scheduler) for the run ≡
/// run_reference check; the reference loop is the executable spec.
pub fn reference_cells(seed: u64) -> Vec<Scenario> {
    let base = paper_cell(8, mix(seed, 99));
    paper_schedulers()
        .into_iter()
        .map(|s| base.with_scheduler(s))
        .collect()
}

/// The batch cells of workload `name` (gateway-live has none: its
/// inputs are a live event stream, see `live.rs`).
pub fn batch_cells(name: &str, seed: u64) -> Option<Vec<Scenario>> {
    match name {
        "paper-grid" => Some(paper_grid(seed)),
        "open-1m" => Some(vec![open_1m(seed)]),
        "churn-admission" => Some(
            (0..CHURN_CELLS)
                .map(|k| churn_admission(mix(seed, 12 + k)))
                .collect(),
        ),
        _ => None,
    }
}
