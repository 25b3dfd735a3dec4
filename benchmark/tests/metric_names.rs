//! `BENCHMARK.json` lists exactly the workloads and metrics the runner
//! prints (the workload tests check that every run prints its whole
//! metric set), with well-formed names.

use std::path::Path;

use airguard_benchmark::{Workload, END_TO_END, PER_LAYER};
use airguard_live::json::JsonValue;

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(json: &'a JsonValue, section: &str) -> &'a [JsonValue] {
    json.get(section)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"))
}

fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("entry without `{key}`"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metrics_match_the_runner_and_are_well_formed() {
    let json = benchmark_json();
    for (section, printed) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str)> = entries(&json, section)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(listed, printed, "{section}");
        for (name, _) in listed {
            assert!(well_formed(name), "{section}: `{name}`");
        }
    }
}

#[test]
fn workloads_match_the_runner() {
    let json = benchmark_json();
    let listed: Vec<&str> = entries(&json, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, known);
}
