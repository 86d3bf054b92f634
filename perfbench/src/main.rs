//! `perfbench --workload NAME --seed N --seconds N --trace 0|1`
//!
//! Prints the run's log, then one JSON result line. Exits non-zero when
//! an output check fails or the arguments are invalid.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use ioguard_perfbench::{run, Args, Sizes};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload serve_steady|fleet_churn|fig7_sweep|noc_saturated \
                 --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args, &Sizes::full());
    for line in &outcome.log {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
