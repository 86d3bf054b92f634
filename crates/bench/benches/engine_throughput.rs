//! Hot-path throughput of the experiment engine.
//!
//! Reports the two rates the perf work targets:
//!
//! * **slots/s** — how fast one trial advances the platform models, per
//!   system (the incremental shadow registers, the release schedule and
//!   the event-driven FIFO baselines live on this path);
//! * **trials/s** — how fast the engine drains a Fig. 7-shaped batch of
//!   trials, single-threaded vs. all cores (the work-stealing payoff).
//!
//! The multi-thread/single-thread pair double-checks the determinism
//! contract before timing anything: both runs must produce identical
//! outcomes.
//!
//! Run with: `cargo bench -p ioguard-bench --bench engine_throughput`

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ioguard_core::casestudy::{run_trial, SystemUnderTest, TrialOutcome};
use ioguard_core::engine;
use ioguard_workload::generator::{TrialConfig, TrialWorkload};

const HORIZON: u64 = 16_000;

fn bench_slot_rate(c: &mut Criterion) {
    let workload = TrialWorkload::generate(&TrialConfig::new(4, 0.70, 7));
    let mut group = c.benchmark_group("engine/slot_rate_16000");
    group.sample_size(10);
    for system in SystemUnderTest::figure7_lineup() {
        group.bench_with_input(
            BenchmarkId::from_parameter(system.label()),
            &system,
            |b, &system| b.iter(|| black_box(run_trial(system, &workload, 7, HORIZON))),
        );
    }
    group.finish();
}

fn fig7_batch() -> (Vec<(SystemUnderTest, u64)>, Vec<TrialWorkload>) {
    // One Fig. 7 cell column: every system × 8 trials at 70% utilization.
    let seeds: Vec<u64> = (1..=8).collect();
    let workloads: Vec<TrialWorkload> = seeds
        .iter()
        .map(|&s| TrialWorkload::generate(&TrialConfig::new(4, 0.70, s)))
        .collect();
    let units: Vec<(SystemUnderTest, u64)> = SystemUnderTest::figure7_lineup()
        .into_iter()
        .flat_map(|sys| seeds.iter().map(move |&s| (sys, s)))
        .collect();
    (units, workloads)
}

fn run_batch(
    threads: usize,
    units: &[(SystemUnderTest, u64)],
    workloads: &[TrialWorkload],
) -> Vec<TrialOutcome> {
    let (out, _) = engine::run_indexed(threads, units, |_, &(sys, seed)| {
        run_trial(sys, &workloads[(seed - 1) as usize], seed, HORIZON)
    });
    out
}

fn bench_trial_rate(c: &mut Criterion) {
    let (units, workloads) = fig7_batch();

    // Determinism gate: the timed configurations must agree exactly.
    let sequential = run_batch(1, &units, &workloads);
    let parallel = run_batch(0, &units, &workloads);
    assert_eq!(
        sequential, parallel,
        "engine output must be thread-count independent"
    );

    let mut group = c.benchmark_group(format!("engine/trial_rate_{}_trials", units.len()));
    group.sample_size(10);
    for threads in [1usize, 0] {
        let label = if threads == 0 {
            format!("{}_threads", engine::resolve_threads(0))
        } else {
            "1_thread".into()
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &threads, |b, &t| {
            b.iter(|| black_box(run_batch(t, &units, &workloads)))
        });
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_slot_rate(c);
    bench_trial_rate(c);
}

criterion_group!(engine_throughput, benches);
criterion_main!(engine_throughput);
