//! `ioguard-repro` — regenerate any of the paper's artifacts from the
//! command line.
//!
//! ```text
//! ioguard-repro fig3                      software i/o paths
//! ioguard-repro fig6                      software overhead table
//! ioguard-repro table1                    hardware overhead table
//! ioguard-repro fig7 [--trials N] [--threads N]   the automotive case study
//! ioguard-repro fig8 [--eta N]            scalability sweep
//! ioguard-repro sched                     analysis experiments
//! ioguard-repro predictability            latency profiles
//! ioguard-repro all [--trials N] [--threads N]    everything above
//! ```
//!
//! `--trials` sets the per-point trial count of the Fig. 7 sweep (default
//! 25; the paper uses 1000). `--threads` caps the experiment engine's
//! worker count (default 0 = all cores); results are bit-identical for any
//! value. An unknown command or flag, or a flag value that is not a
//! number, prints the usage and exits with status 2.

use std::process::ExitCode;

use ioguard_core::casestudy::{CaseStudyConfig, Fig7Report};
use ioguard_core::experiments::{
    acceptance_ratio_sweep, fig6_report, fig8_report, table1_report, theorem_agreement,
    SchedExperimentConfig,
};
use ioguard_core::predictability::{latency_profiles, PredictabilityConfig};

const USAGE: &str = "usage: ioguard-repro <fig3|fig6|table1|fig7|fig8|sched|predictability|all> \
[--trials N] [--threads N] [--eta N]";

/// A parsed command line: the command plus every flag's value.
#[derive(Debug, PartialEq, Eq)]
struct Cli {
    command: String,
    trials: u64,
    threads: usize,
    eta: u32,
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let text = value.ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse {text:?}"))
}

/// Parses `<command> [--trials N] [--threads N] [--eta N]`; the command
/// itself is checked by `main`.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: args.first().map_or("help", String::as_str).to_string(),
        trials: 25,
        threads: 0,
        eta: 5,
    };
    let mut flags = args.iter().skip(1);
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--trials" => cli.trials = parse_value(flag, flags.next())?,
            "--threads" => cli.threads = parse_value(flag, flags.next())?,
            "--eta" => cli.eta = parse_value(flag, flags.next())?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(cli)
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("ioguard-repro: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn run_fig3() {
    println!("== Fig. 3 — software i/o paths ==");
    println!("{}", ioguard_rtos::path::render_fig3(256));
}

fn run_fig6() {
    println!("== Fig. 6 — run-time software overhead (KB) ==");
    println!("{}", fig6_report());
}

fn run_table1() {
    println!("== Table I — hardware overhead ==");
    println!("{}", table1_report());
}

fn run_fig7(trials: u64, threads: usize) {
    println!("== Fig. 7 — automotive case study ({trials} trials/point) ==");
    let (report, stats) =
        Fig7Report::run_instrumented(&CaseStudyConfig::paper_shape(trials), threads);
    println!("{report}");
    let busy = stats.busy_seconds();
    if busy > 0.0 {
        println!(
            "engine: {} tasks on {} workers, {} steals, {:.1} tasks/s/core",
            stats.tasks,
            stats.workers,
            stats.steals,
            stats.tasks as f64 / busy,
        );
    }
}

fn run_fig8(eta: u32) {
    println!("== Fig. 8 — scalability ==");
    println!("{}", fig8_report(eta));
}

fn run_sched() {
    println!("== Sec. IV — schedulability analysis ==");
    let config = SchedExperimentConfig::default();
    let utils: Vec<f64> = (1..=9).map(|i| 0.1 * i as f64).collect();
    println!("acceptance ratio vs utilization:");
    for p in acceptance_ratio_sweep(&config, &utils) {
        println!("  u = {:.1}: {:>5.1}%", p.utilization, p.accepted * 100.0);
    }
    let agreement = theorem_agreement(&config, 200);
    println!(
        "theorem agreement: {}/{} (n/a {})",
        agreement.agreed, agreement.compared, agreement.not_applicable
    );
}

fn run_predictability() {
    println!("== predictability — probe latency profiles ==");
    for p in latency_profiles(&PredictabilityConfig::default()) {
        println!(
            "{:<14} p50 {:>6.1}  p99 {:>6.1}  max {:>6.1}  missed {}",
            p.system, p.p50, p.p99, p.max, p.missed
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        command,
        trials,
        threads,
        eta,
    } = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => return usage_error(&message),
    };
    match command.as_str() {
        "fig3" => run_fig3(),
        "fig6" => run_fig6(),
        "table1" => run_table1(),
        "fig7" => run_fig7(trials, threads),
        "fig8" => run_fig8(eta),
        "sched" => run_sched(),
        "predictability" => run_predictability(),
        "all" => {
            run_fig3();
            run_fig6();
            run_table1();
            run_fig8(eta);
            run_sched();
            run_predictability();
            run_fig7(trials, threads);
        }
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => return usage_error(&format!("unknown command {other:?}")),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn flags_override_the_defaults() {
        assert_eq!(
            parse(&["all", "--trials", "2", "--threads", "4", "--eta", "3"]),
            Ok(Cli {
                command: "all".into(),
                trials: 2,
                threads: 4,
                eta: 3,
            })
        );
        assert_eq!(
            parse(&[]),
            Ok(Cli {
                command: "help".into(),
                trials: 25,
                threads: 0,
                eta: 5,
            })
        );
    }

    #[test]
    fn bad_values_and_unknown_flags_are_errors() {
        assert!(parse(&["fig7", "--trials", "abc"]).is_err());
        assert!(parse(&["fig7", "--threads", "x"]).is_err());
        assert!(parse(&["fig8", "--eta", "-1"]).is_err());
        assert!(parse(&["fig7", "--trials"]).is_err());
        assert!(parse(&["fig7", "--trails", "3"]).is_err());
        assert!(parse(&["fig7", "3"]).is_err());
    }
}
