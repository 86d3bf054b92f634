//! Serving gates on the deterministic replay (DESIGN.md §16).
//!
//! A 10⁵-request [`ReplayDriver`] run must send every request, miss no
//! deadline, never overflow its observer ring, leave no executor task
//! stalled, and keep each class's p99 end-to-end latency (virtual slots)
//! within that class's deadline bound. Latency is measured on the
//! virtual clock, so these gates hold on every host. The response stream
//! is pinned by its digest and must not depend on the decode worker count.

use ioguard_serve::replay::{ReplayConfig, ReplayDriver, ReplayReport};

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
