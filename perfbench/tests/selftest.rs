//! Benchmark self-test: every workload at a tiny size prints every metric
//! `BENCHMARK.json` names, with its unit, and passes its correctness checks.

use perfbench::json::{parse, Value};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::Workload;
use std::collections::BTreeMap;
use std::process::Command;

fn read_json(relative: &str) -> Value {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn benchmark() -> Value {
    read_json("../BENCHMARK.json")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(key: &str) -> BTreeMap<String, String> {
    benchmark()
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark binary and returns its parsed result line.
fn run(workload: Workload, seed: u64, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--size",
            "tiny",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} trace {trace} exited {:?}\n{stdout}\n{}",
        workload.name(),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(&format!("seed={seed}")),
        "the seed is echoed in the output"
    );
    let last = stdout.lines().last().expect("some output");
    parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

/// Checks one result line against the metrics `BENCHMARK.json` declares.
fn check_result(result: &Value, want: &BTreeMap<String, String>, what: &str) {
    let keys: Vec<&String> = match result {
        Value::Object(map) => map.keys().collect(),
        _ => panic!("{what}: result is not an object"),
    };
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{what}: checks failed"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0,
        "{what}"
    );
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics object");
    };
    let printed: Vec<&String> = metrics.keys().collect();
    let declared: Vec<&String> = want.keys().collect();
    assert_eq!(printed, declared, "{what}: printed metric names");
    for (name, unit) in want {
        let m = &metrics[name];
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
    }
}

#[test]
fn the_binary_and_benchmark_json_name_the_same_metrics() {
    let units = |table: &[(&str, &str)]| -> BTreeMap<String, String> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), units(&END_TO_END));
    assert_eq!(declared("per_layer"), units(&PER_LAYER));
    let workloads: Vec<String> = benchmark()
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn benchmark_json_keeps_to_its_schema() {
    let b = benchmark();
    let Value::Object(top) = &b else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&String> = top.keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    for m in b.get("end_to_end").and_then(Value::as_array).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = &declared("end_to_end")["setup_s"];
    assert_eq!(setup, "s");
    for w in b.get("workloads").and_then(Value::as_array).unwrap() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
}

#[test]
fn every_per_layer_metric_says_what_it_should_move() {
    let map = read_json("layers.json");
    let Some(Value::Object(layers)) = map.get("layers") else {
        panic!("layers.json lacks a layers object")
    };
    let named: Vec<&String> = layers.keys().collect();
    let per_layer = declared("per_layer");
    let want: Vec<&String> = per_layer.keys().collect();
    assert_eq!(named, want);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let e2e = declared("end_to_end");
    // a table row: <class>_p<NN>_ms
    let table_row = |m: &str| {
        m.strip_suffix("_ms")
            .and_then(|m| m.rsplit_once("_p"))
            .is_some_and(|(class, p)| !class.is_empty() && p.parse::<u32>().is_ok())
    };
    for (name, entry) in layers {
        for w in entry.get("on").and_then(Value::as_array).unwrap() {
            assert!(workloads.contains(&w.as_str().unwrap()), "{name}: {w:?}");
        }
        for m in entry.get("moves").and_then(Value::as_array).unwrap() {
            let m = m.as_str().unwrap();
            assert!(e2e.contains_key(m) || table_row(m), "{name} moves {m}");
        }
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for workload in Workload::ALL {
        let what = format!("{} trace 0", workload.name());
        check_result(&run(workload, 5, 0), &e2e, &what);
        let what = format!("{} trace 1", workload.name());
        check_result(&run(workload, 5, 1), &layers, &what);
    }
}

#[test]
fn a_second_seed_prints_the_same_metrics_and_passes() {
    let e2e = declared("end_to_end");
    for workload in Workload::ALL {
        let what = format!("{} seed 11", workload.name());
        check_result(&run(workload, 11, 0), &e2e, &what);
    }
}
