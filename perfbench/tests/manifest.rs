//! BENCHMARK.json and the harness agree on workloads and metric lists.

use perfbench::harness::END_TO_END;
use perfbench::layers::PER_LAYER;
use perfbench::WORKLOADS;
use smo_api::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_the_manifest() {
    let m = manifest();
    assert_eq!(names_units(m.get("end_to_end").unwrap()), owned(END_TO_END));
    assert_eq!(names_units(m.get("per_layer").unwrap()), owned(PER_LAYER));
}

#[test]
fn workloads_match_the_manifest() {
    let m = manifest();
    let names: Vec<&str> = m
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
}
