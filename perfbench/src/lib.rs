//! The repository benchmark: four named workloads over the I/O-GUARD
//! reproduction, each checked for correct output, plus a traced run that
//! attributes time to layers by wrapping the benchmark's own calls into
//! each layer's public functions. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod fig7;
pub mod fleet;
pub mod host;
pub mod noc;
pub mod report;
pub mod serve;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::{median, Checks, Metric, Outcome};

/// The seed later performance claims must also pass on, besides the seeds
/// used while the change was written.
pub const HELD_OUT_SEED: u64 = 7919;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ReplayDriver::run`: the serving data plane.
    ServeSteady,
    /// A `FleetArrivals` stream applied to an 8-shard `Fleet`.
    FleetChurn,
    /// `Fig7Report::run_instrumented` over the paper's sweep shape.
    Fig7Sweep,
    /// A saturated 8×8 NoC, then drained.
    NocSaturated,
}

impl Workload {
    /// Every workload, in the order the traced run visits them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeSteady,
        Workload::FleetChurn,
        Workload::Fig7Sweep,
        Workload::NocSaturated,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSteady => "serve_steady",
            Workload::FleetChurn => "fleet_churn",
            Workload::Fig7Sweep => "fig7_sweep",
            Workload::NocSaturated => "noc_saturated",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::full`] is what the benchmark command runs;
/// [`Sizes::tiny`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Requests per `ReplayDriver::run` call.
    pub serve_requests: u64,
    /// Requests of the warm-up replay done during set-up.
    pub serve_warmup_requests: u64,
    /// Lifecycle events per fleet churn stream.
    pub fleet_events: usize,
    /// Steady resident population the churn stream aims for.
    pub fleet_target: usize,
    /// Trials per Fig. 7 point.
    pub fig7_trials: u64,
    /// Injection cycles of the NoC workload (the drain follows).
    pub noc_cycles: u64,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_repeats: usize,
    /// Minimum timed repetitions, even past the time budget.
    pub min_reps: usize,
}

impl Sizes {
    /// The sizes the benchmark command measures.
    pub fn full() -> Self {
        Self {
            serve_requests: 100_000,
            serve_warmup_requests: 2_000,
            fleet_events: 100_000,
            fleet_target: 300,
            fig7_trials: 8,
            noc_cycles: 40_000,
            setup_repeats: 9,
            min_reps: 3,
        }
    }

    /// Small sizes for tests.
    pub fn tiny() -> Self {
        Self {
            serve_requests: 3_000,
            serve_warmup_requests: 200,
            fleet_events: 2_000,
            fleet_target: 60,
            fig7_trials: 1,
            noc_cycles: 400,
            setup_repeats: 2,
            min_reps: 2,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to measure.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement budget of the untraced run.
    pub seconds: u64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds N --trace 0|1`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10;
        let mut trace = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                    );
                }
                "--seed" => seed = Some(parse_number(&value()?, "--seed")?),
                "--seconds" => seconds = parse_number(&value()?, "--seconds")?,
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.max(1),
            trace,
        })
    }
}

fn parse_number(text: &str, flag: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag}: not a whole number: {text}"))
}

/// What one workload's untraced run measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Samples,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that failed without failing a check (fleet drops).
    pub failed: u64,
    /// Headline work per host second of each timed repetition.
    pub rates: Samples,
    /// The workload's simulated completion ratio (see `README.md`).
    pub served_ratio: f64,
    /// The workload's own metrics under their descriptive names.
    pub named: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
    /// Digests and counts for the log.
    pub log: Vec<String>,
}

/// What one workload's traced run attributed.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Output checks (traced output equals untraced output).
    pub checks: Checks,
    /// The per-layer table and digests for the log.
    pub log: Vec<String>,
    /// The recorded spans.
    pub tracer: trace::Tracer,
}

/// Host-time samples of one run, each with the calibration time measured
/// around it (the mean of the samples taken just before and just after).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    /// Measured values: rates in work per second, or durations in seconds.
    pub values: Vec<f64>,
    /// Milliseconds of the calibration loop around each value.
    pub calibration_ms: Vec<f64>,
}

impl Samples {
    /// Rates scaled to the nominal host: a moment when the host runs the
    /// fixed calibration work x% slower does not read as a program x%
    /// slower.
    pub fn adjusted_rates(&self) -> Vec<f64> {
        self.scaled(|rate, ms| rate * ms / host::NOMINAL_CALIBRATION_MS)
    }

    /// Durations scaled to the nominal host, as [`Samples::adjusted_rates`].
    pub fn adjusted_durations(&self) -> Vec<f64> {
        self.scaled(|seconds, ms| seconds * host::NOMINAL_CALIBRATION_MS / ms)
    }

    fn scaled(&self, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        self.values
            .iter()
            .zip(&self.calibration_ms)
            .map(|(&value, &ms)| f(value, ms))
            .collect()
    }
}

/// Runs `rep` while `more(done)` holds, sampling the calibration loop
/// before the first repetition and after each one.
fn calibrated<T>(
    mut more: impl FnMut(usize) -> bool,
    mut rep: impl FnMut(usize) -> T,
) -> (Vec<T>, Vec<f64>) {
    let mut results = Vec::new();
    let mut calibration_ms = Vec::new();
    let mut before = host::calibration_ms();
    while more(results.len()) {
        results.push(rep(results.len()));
        let after = host::calibration_ms();
        calibration_ms.push((before + after) / 2.0);
        before = after;
    }
    (results, calibration_ms)
}

/// Keeps repeating `rep` until `budget` has passed and at least
/// `min_reps` repetitions ran. `rep` gets the repetition index and
/// returns the work it did and its wall seconds; the samples are rates.
pub fn repeat_for(
    budget: Duration,
    min_reps: usize,
    rep: impl FnMut(usize) -> (f64, f64),
) -> Samples {
    let start = Instant::now();
    let (done, calibration_ms) = calibrated(|n| n < min_reps || start.elapsed() < budget, rep);
    Samples {
        values: done.into_iter().map(|(work, wall)| work / wall).collect(),
        calibration_ms,
    }
}

/// Runs `setup` `repeats` times, returning each wall time and the last
/// result.
pub fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (Samples, T) {
    let mut last = None;
    let (values, calibration_ms) = calibrated(
        |n| n < repeats.max(1),
        |_| {
            let start = Instant::now();
            let value = setup();
            let seconds = seconds_since(start);
            last = Some(value);
            seconds
        },
    );
    let samples = Samples {
        values,
        calibration_ms,
    };
    (samples, last.expect("at least one set-up ran"))
}

/// Seconds between `start` and now.
pub fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The untraced end-to-end run of `workload`.
fn measure(workload: Workload, seed: u64, sizes: &Sizes, budget: Duration) -> Measured {
    match workload {
        Workload::ServeSteady => serve::measure(seed, sizes, budget),
        Workload::FleetChurn => fleet::measure(seed, sizes, budget),
        Workload::Fig7Sweep => fig7::measure(seed, sizes, budget),
        Workload::NocSaturated => noc::measure(seed, sizes, budget),
    }
}

/// The traced run of `workload`.
pub fn trace_workload(workload: Workload, seed: u64, sizes: &Sizes) -> Traced {
    match workload {
        Workload::ServeSteady => serve::trace(seed, sizes),
        Workload::FleetChurn => fleet::trace(seed, sizes),
        Workload::Fig7Sweep => fig7::trace(seed, sizes),
        Workload::NocSaturated => noc::trace(seed, sizes),
    }
}

/// Runs the benchmark as the command line asks.
///
/// With `trace == false` it measures the named workload and reports the
/// end-to-end metrics. With `trace == true` it traces every workload at
/// the seed — each layer is exercised by the workload that owns it, so
/// every per-layer metric has a measured value — and reports the
/// per-layer metrics.
pub fn run(args: &Args, sizes: &Sizes) -> Outcome {
    let before = host::HostInfo::sample();
    let mut outcome = Outcome::default();
    outcome.log.push(format!(
        "perfbench: workload={} seed={} seconds={} trace={} held_out_seed={HELD_OUT_SEED}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    outcome.log.push(before.line("start"));
    let mut named = Vec::new();
    if args.trace {
        let order = std::iter::once(args.workload)
            .chain(Workload::ALL.into_iter().filter(|w| *w != args.workload));
        for workload in order {
            let traced = trace_workload(workload, args.seed, sizes);
            outcome.log.push(format!("== traced {}", workload.name()));
            outcome.log.extend(traced.log);
            let dir = PathBuf::from(".bench_out");
            let path = dir.join(format!("spans-{}.tsv", workload.name()));
            match std::fs::create_dir_all(&dir).and_then(|()| traced.tracer.write_tsv(&path)) {
                Ok(()) => outcome.log.push(format!(
                    "  spans: {} written to {}",
                    traced.tracer.spans().len(),
                    path.display()
                )),
                Err(error) => outcome.log.push(format!(
                    "  spans not written to {}: {error}",
                    path.display()
                )),
            }
            outcome.checks.extend(traced.checks);
            outcome.metrics.extend(traced.metrics);
            outcome.attempted += 1;
        }
    } else {
        let measured = measure(
            args.workload,
            args.seed,
            sizes,
            Duration::from_secs(args.seconds),
        );
        outcome.attempted = measured.attempted;
        outcome.failed = measured.failed;
        outcome.checks = measured.checks;
        outcome.metrics = vec![
            Metric::new(
                "setup_s",
                median(&measured.setup_s.adjusted_durations()),
                "s",
            ),
            Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
            Metric::new("ok_ratio", 1.0 - outcome.error_ratio(), "ratio"),
            Metric::new(
                "work_per_s",
                median(&measured.rates.adjusted_rates()),
                "1/s",
            ),
            Metric::new("served_ratio", measured.served_ratio, "ratio"),
        ];
        outcome.log.extend(measured.log);
        let list = |values: &[f64], digits: usize| {
            let text: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
            text.join(" ")
        };
        for (what, samples, adjusted) in [
            (
                "work_per_s",
                &measured.rates,
                measured.rates.adjusted_rates(),
            ),
            (
                "setup_s",
                &measured.setup_s,
                measured.setup_s.adjusted_durations(),
            ),
        ] {
            let digits = if what == "setup_s" { 6 } else { 0 };
            outcome.log.push(format!(
                "{what} by repetition: raw {} | calibration_ms {} | host-adjusted {}",
                list(&samples.values, digits),
                list(&samples.calibration_ms, 3),
                list(&adjusted, digits)
            ));
        }
        named = measured.named;
    }
    outcome.apply_checks();
    if !args.trace {
        // The workload's metrics under the names the docs give them.
        outcome
            .log
            .push(format!("metrics of {}:", args.workload.name()));
        let error_ratio = Metric::new("error_ratio", outcome.error_ratio(), "ratio");
        let shared = ["setup_s", "peak_rss_mb"]
            .into_iter()
            .filter_map(|name| outcome.metric(name).cloned());
        let lines: Vec<String> = shared
            .chain(std::iter::once(error_ratio))
            .chain(named)
            .map(|m| format!("  {:<28} {:>22} {}", m.name, m.value, m.unit))
            .collect();
        outcome.log.extend(lines);
    }
    for check in outcome.checks.items() {
        outcome.log.push(format!(
            "check {}: {} ({})",
            if check.ok { "ok  " } else { "FAIL" },
            check.name,
            check.detail
        ));
    }
    outcome.log.push(host::HostInfo::sample().line("end"));
    outcome
}
