//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics this benchmark emits.

use batchsched::telemetry::{parse, JsonValue};
use bds_perfbench::{per_layer, workloads, END_TO_END};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn end_to_end_metrics_match() {
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_units(&benchmark_json(), "end_to_end"), want);
}

#[test]
fn per_layer_metrics_match() {
    let want: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_units(&benchmark_json(), "per_layer"), want);
}

#[test]
fn workloads_match() {
    let doc = benchmark_json();
    let got: Vec<String> = names_units(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(got, workloads::NAMES);
}
