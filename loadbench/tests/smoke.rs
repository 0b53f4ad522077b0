//! Runs the real command on every workload, timed and traced, with
//! one-second runs, and holds its output to the contract in
//! `BENCHMARK.json`: every declared metric is emitted under its
//! declared unit, nothing undeclared is, and no request failed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every object in the JSON array that follows
/// `"<key>":` in `text`. `BENCHMARK.json` is flat enough that finding
/// the quoted strings after `"name"` and `"unit"` is a parse.
fn declared(text: &str, key: &str) -> Vec<(String, String)> {
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let array = &text[start..];
    let array = &array[..array.find(']').expect("array closes")];
    let quoted_after = |obj: &str, field: &str| -> String {
        let at = obj.find(&format!("\"{field}\"")).expect("field present");
        let rest = &obj[at + field.len() + 2..];
        let open = rest.find('"').expect("value opens");
        let rest = &rest[open + 1..];
        rest[..rest.find('"').expect("value closes")].to_string()
    };
    array
        .split('{')
        .skip(1)
        .map(|obj| (quoted_after(obj, "name"), quoted_after(obj, "unit")))
        .collect()
}

/// The `"metrics"` object of a result line as name → unit, plus the
/// three scalar fields.
fn parse_result(line: &str) -> (bool, u64, u64, BTreeMap<String, String>) {
    let field = |name: &str| -> &str {
        let at = line.find(&format!("\"{name}\": ")).expect("field present");
        let rest = &line[at + name.len() + 4..];
        &rest[..rest.find([',', '}']).expect("field ends")]
    };
    let metrics_at = line.find("\"metrics\": {").expect("metrics present");
    let mut metrics = BTreeMap::new();
    for entry in line[metrics_at + 12..].split("}, ") {
        let entry = entry.trim_start_matches('"');
        let Some(name_end) = entry.find('"') else {
            continue;
        };
        let unit_at = entry.find("\"unit\": \"").expect("unit present") + 9;
        let unit = &entry[unit_at..];
        let value_at = entry.find("\"value\": ").expect("value present") + 9;
        let value = &entry[value_at..entry.find(", \"unit\"").expect("value ends")];
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "metric value {value:?} is not a finite number"
        );
        metrics.insert(
            entry[..name_end].to_string(),
            unit[..unit.find('"').expect("unit closes")].to_string(),
        );
    }
    (
        field("correct") == "true",
        field("attempted")
            .parse()
            .expect("attempted is a whole number"),
        field("failed").parse().expect("failed is a whole number"),
        metrics,
    )
}

fn check(workload: &str) {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let contract = std::fs::read_to_string(manifest_dir.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_flash-loadbench"))
            .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
            .args(["--trace", trace])
            .output()
            .expect("run the benchmark binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{workload} trace {trace}: {stderr}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let last = stdout.lines().last().expect("a result line");
        let (correct, attempted, failed, metrics) = parse_result(last);
        assert!(correct && failed == 0, "{workload} trace {trace}: {last}");
        assert!(attempted >= 1);
        let want: BTreeMap<String, String> = declared(&contract, key).into_iter().collect();
        assert_eq!(
            metrics, want,
            "{workload} trace {trace}: emitted vs declared"
        );
        assert!(stderr.contains("machine: nproc="), "run header missing");
    }
}

#[test]
fn cached_small() {
    check("cached_small");
}

#[test]
fn cached_small_mt() {
    check("cached_small_mt");
}

#[test]
fn miss_helper() {
    check("miss_helper");
}

#[test]
fn large_sendfile() {
    check("large_sendfile");
}

#[test]
fn conn_churn() {
    check("conn_churn");
}

#[test]
fn dynamic_small() {
    check("dynamic_small");
}

#[test]
fn workloads_in_the_contract_are_the_gated_workloads_in_the_binary() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let contract = std::fs::read_to_string(manifest_dir.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = contract.find("\"workloads\"").expect("workloads present");
    let array = &contract[start..];
    let array = &array[..array.find(']').expect("array closes")];
    let mut declared_names: Vec<&str> = array
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("name closes")])
        .collect();
    // `large_sendfile` runs from the command line only.
    let gated = || {
        flash_loadbench::workloads::WORKLOADS
            .iter()
            .filter(|w| w.gated)
    };
    let mut built_in: Vec<&str> = gated().map(|w| w.name).collect();
    for w in gated() {
        assert!(
            array.contains(&format!("\"why\": \"{}\"", w.why)),
            "{}: the why in BENCHMARK.json differs from the one in workloads.rs",
            w.name
        );
    }
    declared_names.sort_unstable();
    built_in.sort_unstable();
    assert_eq!(declared_names, built_in);
}

#[test]
fn an_unknown_workload_is_refused_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_flash-loadbench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on a refused run");
}
