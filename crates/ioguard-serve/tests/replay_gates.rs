//! Serving gates on the deterministic replay (DESIGN.md §16).
//!
//! A 10⁵-request [`ReplayDriver`] run must send every request, miss no
//! deadline, never overflow its observer ring, leave no executor task
//! stalled, and keep each class's p99 end-to-end latency (virtual slots)
//! within that class's deadline bound. Latency is measured on the
//! virtual clock, so these gates hold on every host. The response stream
//! is pinned by its digest and must not depend on the decode worker count,
//! and the rest of the default-seed report (slot count, executor
//! accounting, preemptions, counters, deadline bounds and latency
//! histograms) is pinned field by field.

use ioguard_obs::{Histogram, VmCounters};
use ioguard_serve::replay::{ReplayConfig, ReplayDriver, ReplayReport};
use ioguard_serve::ExecutorStats;

const REQUESTS: u64 = 100_000;

fn replay(workers: usize) -> ReplayReport {
    let mut config = ReplayConfig::new(REQUESTS);
    config.workers = workers;
    ReplayDriver::new(config)
        .run()
        .expect("default replay config is valid")
}

#[test]
fn quick_replay_meets_every_serving_gate_at_any_worker_count() {
    let report = replay(1);
    let four = replay(4);
    assert_eq!(report.fold, four.fold, "fold depends on the worker count");

    assert_eq!(report.requests_sent, REQUESTS);
    assert_eq!(report.counter_totals.missed, 0);
    assert_eq!(report.obs_overflows, 0);
    assert_eq!(report.exec.stalled, 0);
    for (class, latency, bound) in [
        (
            "critical",
            &report.e2e_critical,
            report.deadline_bound_critical,
        ),
        (
            "best-effort",
            &report.e2e_best_effort,
            report.deadline_bound_best_effort,
        ),
    ] {
        let p99 = latency.percentile(0.99).expect("class saw completions");
        assert!(
            p99 <= bound,
            "{class} p99 {p99} slots exceeds the {bound}-slot deadline bound"
        );
    }
    assert_eq!(report.fold.digest(), 0xdd60_9996_b395_e974);
}

/// `(count, p50, p99)` of a latency histogram.
fn shape(hist: &Histogram) -> (u64, Option<u64>, Option<u64>) {
    (hist.count(), hist.percentile(0.50), hist.percentile(0.99))
}

#[test]
fn default_seed_replay_outcome_is_pinned() {
    let report = replay(1);
    assert_eq!(report.requests_sent, REQUESTS);
    assert_eq!(report.slots, 177_532);
    assert_eq!(
        report.exec,
        ExecutorStats {
            polls: 353_106,
            rounds: 177_622,
            clock_advances: 177_531,
            completed: 2,
            stalled: 0,
        }
    );
    assert_eq!(report.preemptions, 90);
    assert_eq!(
        report.counter_totals,
        VmCounters {
            completed: 100_000,
            ..VmCounters::default()
        }
    );
    assert_eq!(report.deadline_bound_critical, 901);
    assert_eq!(report.deadline_bound_best_effort, 1010);
    assert_eq!(shape(&report.e2e_critical), (28_042, Some(1), Some(17)));
    assert_eq!(shape(&report.e2e_best_effort), (71_958, Some(3), Some(15)));
    assert_eq!(
        report.fold.counts(),
        [230, 120, 164, 100_000, 100_000, 0, 86, 0, 0, 0]
    );
    assert_eq!(report.fold.total(), 200_600);
    assert_eq!(report.fold.digest(), 0xdd60_9996_b395_e974);
    assert_eq!(report.obs_overflows, 0);
    assert_eq!(report.snapshots, 0);
}
