//! `fig7_sweep`: the paper's experiment.
//!
//! `Fig7Report::run_instrumented(&CaseStudyConfig::paper_shape(trials), 2)`:
//! 5 systems × 13 utilizations × {4, 8} VMs of 16 000-slot trials — the
//! hypervisor slot loop with P-channel σ* preload and reclaim, the three
//! baselines, trial generation and the work-stealing engine.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ioguard_core::casestudy::{
    run_trial, CaseStudyConfig, Fig7Cell, Fig7Report, PointSummary, SystemUnderTest,
};
use ioguard_sim::rng::SplitMix64;
use ioguard_sim::stats::OnlineStats;
use ioguard_workload::generator::{TrialConfig, TrialWorkload};

use crate::report::{fnv1a, median, Checks, Metric};
use crate::trace::Tracer;
use crate::{host, repeat_for, seconds_since, timed_setup, Measured, Sizes, Traced};

/// Engine workers of the sweep: two, or fewer on a smaller host.
fn workers() -> usize {
    host::nproc().clamp(1, 2)
}

/// The sweep of `fig7_sweep`.
pub fn config(seed: u64, sizes: &Sizes) -> CaseStudyConfig {
    let mut config = CaseStudyConfig::paper_shape(sizes.fig7_trials);
    config.seed = seed;
    config
}

/// Simulated slots one sweep runs: systems × trials × points × horizon.
fn sim_slots(config: &CaseStudyConfig) -> u64 {
    let points = (config.vm_groups.len() * config.utilizations.len()) as u64;
    config.systems.len() as u64 * config.trials * points * config.horizon_slots
}

/// FNV-1a of the rendered success/throughput tables (the report's
/// `Display`; the CLI's `engine:` line is not part of it).
pub fn table_digest(report: &Fig7Report) -> u64 {
    fnv1a(&report.to_string())
}

/// Checks that every cell is a ratio and a finite throughput, and that
/// `expected_digest` (when given) matches the report's tables.
pub fn check_report(
    report: &Fig7Report,
    config: &CaseStudyConfig,
    expected_digest: Option<u64>,
) -> Checks {
    let mut checks = Checks::default();
    let points = config.vm_groups.len() * config.utilizations.len() * config.systems.len();
    checks.equal(
        "fig7: one cell per (vms, system, utilization)",
        points,
        report.cells.len(),
    );
    let bad = report
        .cells
        .iter()
        .filter(|c| {
            let s = &c.summary;
            !(0.0..=1.0).contains(&s.success_ratio) || !s.throughput_mbps.is_finite()
        })
        .count();
    checks.equal("fig7: cells hold ratios and finite throughput", 0, bad);
    if let Some(expected) = expected_digest {
        checks.equal("fig7: table digest", expected, table_digest(report));
    }
    checks
}

fn mean_success(report: &Fig7Report) -> f64 {
    let sum: f64 = report.cells.iter().map(|c| c.summary.success_ratio).sum();
    sum / report.cells.len().max(1) as f64
}

/// The untraced end-to-end run.
pub fn measure(seed: u64, sizes: &Sizes, budget: Duration) -> Measured {
    let workers = workers();
    // Set-up: the sweep config plus a warm-up sweep of one trial at one
    // point, which starts the engine's workers the way the timed call does.
    let (setup_s, config) = timed_setup(sizes.setup_repeats, || {
        let config = config(seed, sizes);
        let warm = CaseStudyConfig {
            vm_groups: vec![4],
            utilizations: vec![0.4],
            trials: 1,
            ..config.clone()
        };
        std::hint::black_box(Fig7Report::run_instrumented(&warm, workers));
        config
    });
    let slots = sim_slots(&config);
    let trials_per_sweep = slots / config.horizon_slots;

    let mut first: Option<(u64, Fig7Report)> = None;
    let mut mismatched_reps = 0u64;
    let rates = repeat_for(budget, sizes.min_reps, |_| {
        let start = Instant::now();
        let (report, _) = Fig7Report::run_instrumented(&config, workers);
        let wall = seconds_since(start);
        let digest = table_digest(&report);
        match &first {
            None => first = Some((digest, report)),
            Some((reference, _)) => mismatched_reps += u64::from(*reference != digest),
        }
        (slots as f64, wall)
    });
    let reps = rates.values.len();
    let (digest, report) = first.expect("at least one sweep ran");
    let mut checks = check_report(&report, &config, None);
    checks.equal(
        "fig7: every repetition repeats the first",
        0,
        mismatched_reps,
    );

    let served_ratio = mean_success(&report);
    let named = vec![
        Metric::new("fig7_sim_slots_per_s", median(&rates.values), "slots/s"),
        Metric::new("fig7_mean_success_ratio", served_ratio, "ratio"),
    ];
    let log = vec![
        format!(
            "fig7 table_digest={digest:#018x} cells={} trials_per_point={} workers={workers}",
            report.cells.len(),
            config.trials
        ),
        format!("fig7 timed: {reps} sweeps of {slots} simulated slots"),
    ];
    Measured {
        setup_s,
        attempted: trials_per_sweep * reps as u64,
        failed: 0,
        rates,
        served_ratio,
        named,
        checks,
        log,
    }
}

/// Span name of one system's `run_trial`.
fn trial_span(system: SystemUnderTest) -> &'static str {
    match system {
        SystemUnderTest::Legacy => "baseline.run_trial.legacy",
        SystemUnderTest::RtXen => "baseline.run_trial.rtxen",
        SystemUnderTest::BlueVisor => "baseline.run_trial.bv",
        SystemUnderTest::IoGuard { preload_pct: 40 } => "hv.run_trial.ioguard40",
        SystemUnderTest::IoGuard { preload_pct: 70 } => "hv.run_trial.ioguard70",
        SystemUnderTest::IoGuard { .. } | SystemUnderTest::IoGuardServerIsolated { .. } => {
            "hv.run_trial.other"
        }
    }
}

/// The sweep of `Fig7Report::run_instrumented`, driven in report order on
/// this thread with a span around every trial generation and every
/// `run_trial`, aggregated exactly as the report aggregates.
fn redrive(config: &CaseStudyConfig, tracer: &mut Tracer) -> Fig7Report {
    let root = SplitMix64::new(config.seed);
    let trial_seeds: Vec<u64> = (0..config.trials).map(|t| root.derive(t + 1)).collect();
    let n_utils = config.utilizations.len();
    let mut cells = Vec::new();
    for (gi, &vms) in config.vm_groups.iter().enumerate() {
        let mut group: Vec<Vec<Fig7Cell>> = vec![Vec::new(); config.systems.len()];
        for (ui, &u) in config.utilizations.iter().enumerate() {
            let point = ((gi * n_utils + ui) as u64) << 40;
            let workloads: Vec<Arc<TrialWorkload>> = trial_seeds
                .iter()
                .enumerate()
                .map(|(ti, &seed)| {
                    tracer.span("workload.trial_generate", point | ti as u64, || {
                        Arc::new(TrialWorkload::generate(&TrialConfig::new(vms, u, seed)))
                    })
                })
                .collect();
            for (si, &system) in config.systems.iter().enumerate() {
                let mut successes = 0u64;
                let mut tp = OnlineStats::new();
                for (ti, workload) in workloads.iter().enumerate() {
                    let id = point | ((si as u64) << 32) | ti as u64;
                    let outcome = tracer.span(trial_span(system), id, || {
                        run_trial(system, workload, trial_seeds[ti], config.horizon_slots)
                    });
                    if outcome.success {
                        successes += 1;
                    }
                    tp.push(outcome.throughput_mbps);
                }
                group[si].push(Fig7Cell {
                    system,
                    vms,
                    target_utilization: u,
                    summary: PointSummary {
                        success_ratio: successes as f64 / config.trials.max(1) as f64,
                        throughput_mbps: tp.mean(),
                        throughput_std: tp.std_dev(),
                    },
                });
            }
        }
        // Cells are ordered (vm group, system, utilization).
        cells.extend(group.into_iter().flatten());
    }
    Fig7Report { cells }
}

/// The traced run: the sweep at the benchmark's workers (engine counters
/// and the reference tables), the untraced single-thread sweep (the
/// overhead baseline), then the traced re-drive.
pub fn trace(seed: u64, sizes: &Sizes) -> Traced {
    let config = config(seed, sizes);
    let workers = workers();
    let start = Instant::now();
    let (reference, engine) = Fig7Report::run_instrumented(&config, workers);
    let parallel_s = seconds_since(start);
    let start = Instant::now();
    let (serial, _) = Fig7Report::run_instrumented(&config, 1);
    let untraced_s = seconds_since(start);

    let mut tracer = Tracer::new();
    let start = Instant::now();
    let traced = redrive(&config, &mut tracer);
    let traced_s = seconds_since(start);

    let expected = table_digest(&reference);
    let mut checks = check_report(&traced, &config, Some(expected));
    checks.equal(
        "fig7: single-thread sweep reproduces the tables",
        expected,
        table_digest(&serial),
    );
    checks.expect(
        "fig7: traced re-drive reproduces every cell",
        traced == reference,
        format!("{} cells", traced.cells.len()),
    );

    let summary = tracer.summary();
    let points = (config.vm_groups.len() * config.utilizations.len()) as u64;
    let slots_per_system = (points * config.trials * config.horizon_slots) as f64;
    let rate = |name: &str| {
        let seconds = summary.layer(name).total_s();
        if seconds > 0.0 {
            slots_per_system / seconds
        } else {
            0.0
        }
    };
    let generate = summary.layer("workload.trial_generate");
    let busy_s = engine.busy_seconds();
    let metrics = vec![
        Metric::new(
            "hv.slots_per_s.ioguard40",
            rate("hv.run_trial.ioguard40"),
            "slots/s",
        ),
        Metric::new(
            "hv.slots_per_s.ioguard70",
            rate("hv.run_trial.ioguard70"),
            "slots/s",
        ),
        Metric::new(
            "baseline.slots_per_s.legacy",
            rate("baseline.run_trial.legacy"),
            "slots/s",
        ),
        Metric::new(
            "baseline.slots_per_s.rtxen",
            rate("baseline.run_trial.rtxen"),
            "slots/s",
        ),
        Metric::new(
            "baseline.slots_per_s.bv",
            rate("baseline.run_trial.bv"),
            "slots/s",
        ),
        Metric::new(
            "workload.trial_generate_calls",
            generate.calls as f64,
            "count",
        ),
        Metric::new("workload.trial_generate_s", generate.total_s(), "s"),
        Metric::new("engine.tasks", engine.tasks as f64, "count"),
        Metric::new("engine.steals", engine.steals as f64, "count"),
        Metric::new("engine.busy_s", busy_s, "s"),
        Metric::new(
            "engine.utilization",
            busy_s / (parallel_s * engine.workers.max(1) as f64),
            "ratio",
        ),
        Metric::new(
            "trace.coverage.fig7_sweep",
            summary.coverage(traced_s),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_pct.fig7_sweep",
            (traced_s / untraced_s - 1.0) * 100.0,
            "%",
        ),
    ];
    let mut log = vec![
        format!(
            "fig7 table_digest={expected:#018x} workers={} engine_tasks={} steals={}",
            engine.workers, engine.tasks, engine.steals
        ),
        format!(
            "  parallel_s={parallel_s:.6} untraced_serial_s={untraced_s:.6} traced_s={traced_s:.6}"
        ),
    ];
    log.extend(summary.table());
    Traced {
        metrics,
        checks,
        log,
        tracer,
    }
}
