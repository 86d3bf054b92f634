//! `trace-export` — emit the canonical observability snapshot.
//!
//! Runs the two canonical observed scenarios (healthy end-to-end and a
//! device-stall chaos trial, see `ioguard_core::observe`), composes the
//! hand-formatted JSON summary, writes it to `OBS_snapshot.json` and echoes
//! it to stdout. Deterministic byte-for-byte in the seed: CI runs this
//! twice and diffs the outputs.
//!
//! Usage: `trace-export [seed] [output-path]`
//! (defaults: seed `3405691582`, path `OBS_snapshot.json`). A seed that is
//! not a decimal `u64`, or a third argument, prints the usage and exits
//! with status 2.

use std::process::ExitCode;

use ioguard_core::observe::snapshot_json;

const USAGE: &str = "usage: trace-export [SEED] [OUTPUT_PATH]";

/// Parses `[seed] [output-path]` into the seed and the output path.
fn parse_args(args: &[String]) -> Result<(u64, String), String> {
    if let Some(extra) = args.get(2) {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let seed = match args.first() {
        Some(text) => text
            .parse()
            .map_err(|_| format!("seed: cannot parse {text:?} as a u64"))?,
        None => 0xCAFE_BABE,
    };
    let path = args.get(1).map_or("OBS_snapshot.json", String::as_str);
    Ok((seed, path.to_string()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (seed, path) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("trace-export: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let json = snapshot_json(seed);
    if let Err(error) = std::fs::write(&path, &json) {
        eprintln!("trace-export: cannot write {path}: {error}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    eprintln!("wrote {path}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(u64, String), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn defaults_and_explicit_arguments() {
        assert_eq!(parse(&[]), Ok((0xCAFE_BABE, "OBS_snapshot.json".into())));
        assert_eq!(parse(&["7", "out.json"]), Ok((7, "out.json".into())));
    }

    #[test]
    fn bad_seed_and_extra_arguments_are_errors() {
        assert!(parse(&["seven"]).is_err());
        assert!(parse(&["0x7"]).is_err());
        assert!(parse(&["7", "out.json", "more"]).is_err());
    }
}
