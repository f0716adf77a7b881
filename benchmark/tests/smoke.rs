//! Runs every workload of `BENCHMARK.json` at the smoke scale, untraced and
//! traced, and checks the contract line: every metric the file names is
//! printed, finite, with its unit, and nothing else is.

use std::path::PathBuf;
use std::process::Command;

use serde::{DeError, Deserialize, Value};

struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

fn map(v: &Value) -> &[(String, Value)] {
    v.as_map().expect("a JSON object")
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    map(v)
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key `{key}`"))
}

fn text(v: &Value) -> &str {
    v.as_str().expect("a JSON string")
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let body = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str::<Json>(&body)
        .expect("BENCHMARK.json parses")
        .0
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(spec: &Value, section: &str) -> Vec<(String, String)> {
    get(spec, section)
        .as_seq()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                text(get(m, "name")).to_string(),
                text(get(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn names_are_well_formed_and_unique() {
    let spec = benchmark_json();
    let mut names: Vec<String> = get(&spec, "workloads")
        .as_seq()
        .unwrap()
        .iter()
        .map(|w| text(get(w, "name")).to_string())
        .collect();
    for section in ["end_to_end", "per_layer"] {
        names.extend(metrics(&spec, section).into_iter().map(|(n, _)| n));
    }
    for name in &names {
        assert!(valid_name(name), "`{name}` is not [A-Za-z0-9_.-]+");
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names are used once");
}

#[test]
fn smoke_runs_print_every_metric_with_its_unit() {
    let spec = benchmark_json();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).unwrap();
    for workload in get(&spec, "workloads").as_seq().unwrap() {
        let workload = text(get(workload, "name"));
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
                .args(["--smoke", "--workload", workload, "--trace", trace])
                .current_dir(&dir)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::from_str::<Json>(last).expect("JSON result").0;
            let keys: Vec<&str> = map(&result).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(get(&result, "correct").as_bool().unwrap());
            assert!(get(&result, "attempted").as_int().unwrap() >= 1);
            assert_eq!(get(&result, "failed").as_int().unwrap(), 0);

            let printed = map(get(&result, "metrics"));
            let expected = metrics(&spec, section);
            assert_eq!(printed.len(), expected.len(), "{workload} {section}");
            for (name, unit) in expected {
                let (_, m) = printed
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("{workload} does not print `{name}`"));
                assert!(get(m, "value").as_f64().unwrap().is_finite(), "{name}");
                assert_eq!(text(get(m, "unit")), unit, "{name}");
            }
            // The record line above carries each metric's direction and the
            // bounds `compare` applies; they must be the ones BENCHMARK.json
            // declares.
            let lines: Vec<&str> = stdout.lines().collect();
            let record = serde_json::from_str::<Json>(lines[lines.len() - 2])
                .expect("JSON record")
                .0;
            for m in get(&spec, section).as_seq().unwrap() {
                let detail = get(get(&record, "metrics"), text(get(m, "name")));
                assert_eq!(text(get(detail, "better")), text(get(m, "better")));
                if trace == "0" {
                    assert_eq!(
                        get(detail, "bound").as_f64().unwrap(),
                        get(m, "bound").as_f64().unwrap()
                    );
                }
            }
            if trace == "1" {
                let spans = dir.join(format!("target/benchmark/spans-{workload}.jsonl"));
                let body = std::fs::read_to_string(&spans).expect("spans file written");
                assert!(body.lines().count() > 0, "{workload} wrote no spans");
            }
        }
    }
}
