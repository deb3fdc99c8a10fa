//! Benchmark self-test: a tiny-size version of every workload emits every
//! declared metric with its unit, `BENCHMARK.json` declares exactly those
//! metrics and workloads, and a perturbed reference makes `failed_frac`
//! rise. Run with `cargo test --release` from this directory (the traced
//! MDP round solves three times and is slow unoptimised).

use std::path::{Path, PathBuf};

use perfbench::{Options, Outcome, References, Size, Summary, END_TO_END, PER_LAYER, WORKLOADS};
use seleth_obs::json::{parse_json, JsonValue};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

fn tiny(refs: References) -> Options {
    Options {
        seed: 7,
        seconds: 0.01,
        size: Size::Tiny,
        refs,
    }
}

fn refs() -> References {
    References::from_repo(&repo_root()).expect("committed artifact loads")
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// The result line parses and carries the contract's four keys.
fn assert_result_line(outcome: &Outcome) {
    let line = parse_json(&outcome.to_json()).expect("result line is JSON");
    let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(
        line.get("attempted")
            .and_then(JsonValue::as_u64)
            .expect("attempted")
            >= 1
    );
    for (name, unit) in emitted(outcome) {
        let m = line
            .get("metrics")
            .and_then(|ms| ms.get(&name))
            .expect("metric present");
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str())
        );
        assert!(m
            .get("value")
            .and_then(JsonValue::as_f64)
            .is_some_and(f64::is_finite));
    }
}

#[test]
fn benchmark_json_declares_the_emitted_metrics_and_workloads() {
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_passes_its_checks() {
    for workload in WORKLOADS {
        let outcome = perfbench::run(workload, false, &tiny(refs())).expect(workload);
        assert_eq!(emitted(&outcome), owned(&END_TO_END), "{workload}");
        assert!(
            outcome.metrics.iter().all(|&(_, _, v)| v > 0.0),
            "{workload}: end-to-end metrics are never 0"
        );
        assert_eq!(
            outcome.failed_frac(),
            0.0,
            "{workload}: {:?}",
            outcome.lines
        );
        assert_result_line(&outcome);
    }
}

#[test]
fn every_traced_workload_emits_every_layer_metric() {
    for workload in WORKLOADS {
        let outcome = perfbench::run(workload, true, &tiny(refs())).expect(workload);
        assert_eq!(emitted(&outcome), owned(&PER_LAYER), "{workload}");
        assert_eq!(
            outcome.failed_frac(),
            0.0,
            "{workload}: {:?}",
            outcome.lines
        );
        let residual = outcome.metric("reconcile.residual_frac").expect("residual");
        assert!(residual.abs() <= 0.05, "{workload}: residual {residual}");
        assert_result_line(&outcome);
    }
}

#[test]
fn a_perturbed_reference_raises_failed_frac() {
    let honest = perfbench::run("paper_thresholds", false, &tiny(refs())).expect("run");
    let mut wrong = refs();
    wrong.alpha_star_s1 += 0.05;
    let perturbed = perfbench::run("paper_thresholds", false, &tiny(wrong)).expect("run");
    assert!(perturbed.failed_frac() > honest.failed_frac());
    assert!(perturbed.to_json().starts_with("{\"correct\": false"));

    let mut wrong = refs();
    wrong.mdp_rho += 1e-3;
    let perturbed = perfbench::run("mdp_optimal", false, &tiny(wrong)).expect("run");
    assert_eq!(perturbed.failed_frac(), 1.0);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let s = Summary::of(&[2.0, 1.0]);
    assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
}
