//! The benchmark's own tests, at tiny sizes.

use ioguard_core::casestudy::Fig7Report;
use ioguard_perfbench::report::{Metric, Outcome};
use ioguard_perfbench::{fig7, fleet, noc, run, serve, trace_workload, Args, Sizes, Workload};
use ioguard_serve::replay::ReplayDriver;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let key = format!("\"{section}\"");
    let start = text.find(&key).expect("section present");
    let open = start + text[start..].find('[').expect("a list");
    let close = open + text[open..].find(']').expect("a closed list");
    text[open..close]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn field(entry: &str, key: &str) -> String {
    let at = entry.find(&format!("\"{key}\"")).expect("key present");
    let rest = &entry[at + key.len() + 2..];
    let rest = &rest[rest.find('"').expect("opening quote") + 1..];
    rest[..rest.find('"').expect("closing quote")].to_string()
}

fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn sorted(mut pairs: Vec<(String, String)>) -> Vec<(String, String)> {
    pairs.sort();
    pairs
}

fn args(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 3,
        seconds: 0,
        trace,
    }
}

fn assert_in_result_line(outcome: &Outcome) {
    let line = outcome.result_line();
    for m in &outcome.metrics {
        let entry = format!("\"{}\": {{\"value\": ", m.name);
        assert!(line.contains(&entry), "{} missing from {line}", m.name);
        assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    let expected = sorted(listed("end_to_end"));
    assert!(expected
        .iter()
        .any(|(name, unit)| name == "setup_s" && unit == "s"));
    for workload in Workload::ALL {
        let outcome = run(&args(workload, false), &Sizes::tiny());
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.checks
        );
        assert_eq!(sorted(printed(&outcome)), expected, "{}", workload.name());
        for m in &outcome.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{} = {}",
                m.name,
                m.value
            );
        }
        assert_in_result_line(&outcome);
        assert_eq!(outcome.failed, 0);
    }
}

#[test]
fn every_per_layer_metric_is_printed_with_its_unit() {
    let outcome = run(&args(Workload::NocSaturated, true), &Sizes::tiny());
    assert!(outcome.correct(), "{:?}", outcome.checks);
    assert_eq!(sorted(printed(&outcome)), sorted(listed("per_layer")));
    assert_in_result_line(&outcome);
}

#[test]
fn traced_redrives_reproduce_untraced_outputs() {
    for workload in Workload::ALL {
        let traced = trace_workload(workload, 11, &Sizes::tiny());
        let reproduce: Vec<_> = traced
            .checks
            .items()
            .iter()
            .filter(|c| c.name.contains("reproduce"))
            .collect();
        assert!(!reproduce.is_empty(), "{}", workload.name());
        assert!(
            traced.checks.all_ok(),
            "{}: {:?}",
            workload.name(),
            traced.checks
        );
        assert!(!traced.tracer.spans().is_empty());
    }
}

#[test]
fn corrupted_expected_digest_is_reported_as_failure() {
    let report = ReplayDriver::new(serve::replay_config(5, 2_000))
        .run()
        .expect("valid replay");
    let out = serve::ServeOutput::from(&report);
    assert!(serve::check_output(&out, Some(out.fold.digest())).all_ok());
    let corrupted = serve::check_output(&out, Some(out.fold.digest() ^ 1));
    assert!(!corrupted.all_ok());

    let mut outcome = Outcome {
        attempted: 2_000,
        metrics: vec![Metric::new("ok_ratio", 1.0, "ratio")],
        checks: corrupted,
        ..Outcome::default()
    };
    outcome.apply_checks();
    assert!(!outcome.correct());
    assert_eq!(outcome.failed, outcome.attempted);
    assert_eq!(outcome.error_ratio(), 1.0);
    assert_eq!(outcome.metric("ok_ratio").map(|m| m.value), Some(0.0));
    assert!(outcome.result_line().starts_with("{\"correct\": false"));

    let config = fig7::config(5, &Sizes::tiny());
    let (sweep, _) = Fig7Report::run_instrumented(&config, 1);
    let digest = fig7::table_digest(&sweep);
    assert!(fig7::check_report(&sweep, &config, Some(digest)).all_ok());
    assert!(!fig7::check_report(&sweep, &config, Some(digest ^ 1)).all_ok());
}

#[test]
fn the_seed_feeds_every_generator() {
    let tiny = Sizes::tiny();
    let replay = |seed| {
        ReplayDriver::new(serve::replay_config(seed, 1_000))
            .run()
            .expect("valid replay")
            .fold
            .digest()
    };
    assert_eq!(replay(1), replay(1));
    assert_ne!(replay(1), replay(2));
    assert_eq!(fleet::stream(1, &tiny), fleet::stream(1, &tiny));
    assert_ne!(fleet::stream(1, &tiny), fleet::stream(2, &tiny));
    assert_ne!(fig7::config(1, &tiny), fig7::config(2, &tiny));
    assert_eq!(
        noc::Schedule::generate(1, 50),
        noc::Schedule::generate(1, 50)
    );
    assert_ne!(
        noc::Schedule::generate(1, 50),
        noc::Schedule::generate(2, 50)
    );
}

#[test]
fn arguments_are_checked() {
    let parse = |text: &str| Args::parse(text.split_whitespace().map(String::from));
    let ok = parse("--workload fleet_churn --seed 4 --seconds 2 --trace 1").expect("valid");
    assert_eq!(ok.workload, Workload::FleetChurn);
    assert_eq!((ok.seed, ok.seconds, ok.trace), (4, 2, true));
    assert!(parse("--workload nope --seed 1").is_err());
    assert!(parse("--workload fleet_churn").is_err());
    assert!(parse("--workload fleet_churn --seed 1 --trace 2").is_err());
    assert!(parse("--workload fleet_churn --seed x").is_err());

    let status = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .output()
        .expect("the binary runs");
    assert_eq!(status.status.code(), Some(2));
    assert!(status.stdout.is_empty());
}
