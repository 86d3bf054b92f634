//! Sec. IV — schedulability analysis: exact (Theorems 1/3) vs.
//! pseudo-polynomial (Theorems 2/4) test cost, sbf construction, and the
//! acceptance-ratio experiment.
//!
//! Before timing anything the bench asserts the incremental-admission
//! floor (DESIGN.md §15): at 10⁴ residents one [`DemandLedger`] decision
//! (admit or evict) is at least 10× cheaper than re-running the full
//! Theorem 1 frame sweep, on the median of [`FLOOR_RUNS`] alternating
//! runs.
//!
//! Run with: `cargo bench -p ioguard-bench --bench sched_analysis`

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ioguard_bench::{median_time_ratio, FLOOR_RUNS};
use ioguard_core::experiments::{acceptance_ratio_sweep, theorem_agreement, SchedExperimentConfig};
use ioguard_sched::gsched::{theorem1_exact, theorem2_pseudo_poly};
use ioguard_sched::ledger::{theorem1_frame, DemandLedger};
use ioguard_sched::lsched::{theorem3_exact, theorem4_pseudo_poly};
use ioguard_sched::table::TimeSlotTable;
use ioguard_sched::task::{PeriodicServer, SporadicTask, TaskSet};

fn system(h: u64) -> (TimeSlotTable, Vec<PeriodicServer>, TaskSet) {
    let occupied: Vec<u64> = (0..h / 4).map(|i| i * 4).collect();
    let sigma = TimeSlotTable::from_occupied(h, &occupied).expect("valid");
    let servers = vec![
        PeriodicServer::new(h / 4, (h / 32).max(1)).expect("valid"),
        PeriodicServer::new(h / 2, (h / 16).max(1)).expect("valid"),
    ];
    let tasks: TaskSet = vec![
        SporadicTask::new(4 * h, h / 8 + 1, 3 * h).expect("valid"),
        SporadicTask::new(8 * h, h / 8 + 1, 6 * h).expect("valid"),
    ]
    .into();
    (sigma, servers, tasks)
}

/// Asserts the incremental-admission floor (module docs). The resident
/// set is the many-small-reservations shape: harmonic periods 2¹⁴..2¹⁷
/// with Θ = 1 in a 2²⁰-slot frame.
fn assert_admission_floor() {
    const FRAME: u64 = 1 << 20;
    const RESIDENTS: u64 = 10_000;
    const PAIRS: u64 = 64;
    let sigma = TimeSlotTable::from_occupied(64, &[0]).expect("valid");
    let mut ledger = DemandLedger::new(sigma.clone(), FRAME).expect("harmonic frame");
    let menu = [1u64 << 14, 1 << 15, 1 << 16, 1 << 17];
    let servers: Vec<PeriodicServer> = (0..RESIDENTS)
        .map(|id| {
            let server = PeriodicServer::new(menu[id as usize % menu.len()], 1).expect("valid");
            assert!(ledger.admit(id, server).expect("harmonic").admitted());
            server
        })
        .collect();
    let candidate = PeriodicServer::new(1 << 14, 1).expect("valid");
    let ratio = median_time_ratio(
        || theorem1_frame(&sigma, &servers, FRAME),
        || {
            for id in RESIDENTS..RESIDENTS + PAIRS {
                assert!(ledger.admit(id, candidate).expect("harmonic").admitted());
                ledger.evict(id).expect("resident");
            }
        },
    );
    let speedup = ratio * (2 * PAIRS) as f64;
    println!("sched floor: ledger decision vs full sweep at {RESIDENTS} residents {speedup:.0}x (floor 10x)");
    assert!(
        speedup >= 10.0,
        "one ledger decision is only {speedup:.1}x cheaper than the full sweep at \
         {RESIDENTS} residents, below the 10x floor (median of {FLOOR_RUNS} runs)"
    );
}

fn bench_tests(c: &mut Criterion) {
    assert_admission_floor();

    println!("\n=== Sec. IV — analysis experiments ===");
    let config = SchedExperimentConfig::default();
    let utils: Vec<f64> = (1..=9).map(|i| 0.1 * i as f64).collect();
    println!("acceptance ratio vs. utilization (50 random systems/point):");
    for p in acceptance_ratio_sweep(&config, &utils) {
        println!("  u = {:.1}: {:>5.1}%", p.utilization, p.accepted * 100.0);
    }
    let agreement = theorem_agreement(&config, 300);
    println!(
        "theorem agreement (exact vs pseudo-polynomial): {}/{} agreed, {} n/a\n",
        agreement.agreed, agreement.compared, agreement.not_applicable
    );
    assert_eq!(agreement.agreed, agreement.compared);

    // Exact vs pseudo-polynomial runtime — the complexity claim of Sec. IV.
    let mut group = c.benchmark_group("sched/gsched_test");
    for h in [16u64, 64, 256] {
        let (sigma, servers, _) = system(h);
        group.bench_with_input(BenchmarkId::new("theorem1_exact", h), &h, |b, _| {
            b.iter(|| black_box(theorem1_exact(&sigma, &servers, 1 << 30).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("theorem2_pseudo", h), &h, |b, _| {
            b.iter(|| black_box(theorem2_pseudo_poly(&sigma, &servers, 0.01).unwrap()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("sched/lsched_test");
    for h in [16u64, 64, 256] {
        let (_, servers, tasks) = system(h);
        group.bench_with_input(BenchmarkId::new("theorem3_exact", h), &h, |b, _| {
            b.iter(|| black_box(theorem3_exact(&servers[0], &tasks, 1 << 34).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("theorem4_pseudo", h), &h, |b, _| {
            b.iter(|| black_box(theorem4_pseudo_poly(&servers[0], &tasks, 0.01).unwrap()))
        });
    }
    group.finish();

    // Eq. 1 table construction cost (the O(H²) enumeration).
    let mut group = c.benchmark_group("sched/sbf_enum_table");
    for h in [64u64, 256, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(h), &h, |b, &h| {
            let occupied: Vec<u64> = (0..h / 3).map(|i| i * 3).collect();
            b.iter(|| {
                let t = TimeSlotTable::from_occupied(h, &occupied).unwrap();
                black_box(t.sbf(h - 1))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tests);
criterion_main!(benches);
