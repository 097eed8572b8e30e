//! `BENCHMARK.json` must describe exactly what the benchmark prints: the
//! workload names, and the end-to-end and per-layer metrics with their
//! units, in the order the result line lists them.

use perfbench::{Workload, END_TO_END, PER_LAYER};
use serde::Value;

fn benchmark_json() -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn workloads_match() {
    let json = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn end_to_end_metrics_match() {
    let json = benchmark_json();
    assert_eq!(names_and_units(json.get("end_to_end").expect("end_to_end")), owned(&END_TO_END));
}

#[test]
fn per_layer_metrics_match() {
    let json = benchmark_json();
    assert_eq!(names_and_units(json.get("per_layer").expect("per_layer")), owned(&PER_LAYER));
}

#[test]
fn setup_has_the_largest_bound() {
    let json = benchmark_json();
    let bounds: Vec<(String, f64)> = json
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("name").to_string();
            (name, m.get("bound").and_then(Value::as_f64).expect("bound"))
        })
        .collect();
    let setup = bounds.iter().find(|(n, _)| n == "setup_s").expect("setup_s").1;
    assert!(bounds.iter().all(|&(_, b)| b <= setup && b <= 0.25));
}
