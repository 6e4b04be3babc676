//! `BENCHMARK.json` and `src/names.rs` must say the same thing, within the
//! limits the driver's contract sets.

use std::collections::BTreeSet;

use bond_benchmark::json::{parse, Value};
use bond_benchmark::names::{
    MetricDef, END_TO_END, EXACT_COUNTS, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use bond_benchmark::workloads::Kind;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable")).expect("valid JSON")
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("`{key}` missing in {entry:?}"))
}

fn well_formed_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn well_formed_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

fn check_metrics(listed: &Value, defs: &[MetricDef], bounded: bool) {
    let listed = listed.as_array().expect("metric list");
    assert_eq!(listed.len(), defs.len());
    for (entry, def) in listed.iter().zip(defs) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better.label(), "{}", def.name);
        assert_eq!(entry.get("bound").and_then(Value::as_f64), def.bound, "{}", def.name);
        assert_eq!(entry.as_object().expect("object").len(), if bounded { 4 } else { 3 });
        assert!(well_formed_name(def.name), "{}", def.name);
        assert!(well_formed_unit(def.unit), "{} unit {}", def.name, def.unit);
        assert_eq!(def.bound.is_some(), bounded, "{}", def.name);
        assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", def.name);
    }
}

#[test]
fn benchmark_json_lists_exactly_the_names_the_binary_emits() {
    let m = manifest();
    let keys: Vec<&str> = m.as_object().expect("object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);

    let workloads = m.get("workloads").and_then(Value::as_array).expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, def) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "why"), def.why);
        assert_eq!(entry.as_object().expect("object").len(), 2);
        assert!(well_formed_name(def.name));
        assert!(def.why.len() <= 200 && !def.why.contains('\n'), "{}: {}", def.name, def.why.len());
    }
    check_metrics(m.get("end_to_end").expect("end_to_end"), &END_TO_END, true);
    check_metrics(m.get("per_layer").expect("per_layer"), &PER_LAYER, false);

    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name))
        .collect();
    assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len(), "a name is used twice");
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    for name in EXACT_COUNTS {
        assert!(PER_LAYER.iter().any(|d| d.name == name), "{name} is not a per-layer metric");
    }
}

#[test]
fn benchmark_json_command_and_paths_meet_the_contract() {
    let m = manifest();
    let strings = |key: &str| -> Vec<String> {
        let list = m.get(key).and_then(Value::as_array).unwrap_or_else(|| panic!("{key}"));
        list.iter().map(|v| v.as_str().expect("string").to_string()).collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    let command = strings("command");
    assert!(command.len() <= 32 && command.iter().all(|a| a.len() <= 200));
    assert!(command.iter().all(|a| !a.starts_with('/') && !a.contains("..")));
    assert_eq!(command.last().map(String::as_str), Some("run"), "the driver appends the options");
    assert!(
        command.contains(&"--release".to_string())
            && command.contains(&"benchmark/Cargo.toml".to_string())
    );
    // the run length `selfcheck` uses is the one the driver passes
    let run_seconds = m.get("run_seconds").and_then(Value::as_f64).expect("run_seconds");
    assert_eq!(run_seconds, RUN_SECONDS as f64);
    assert!((1..=60).contains(&RUN_SECONDS));
    // 4 + 22 runs per workload — each `run_seconds` plus generation, set-ups,
    // warm-up and the oracle (5.3 s here; 7 s allowed) — and two builds
    // (17 s here; 60 s allowed each) must fit the driver's 3420 s
    let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
    assert!(runs * (run_seconds + 7.0) + 120.0 <= 3420.0);
}

#[test]
fn workload_kinds_and_names_are_in_the_same_order() {
    assert_eq!(Kind::ALL.len(), WORKLOADS.len());
    for (i, kind) in Kind::ALL.into_iter().enumerate() {
        assert_eq!(kind as usize, i);
        assert_eq!(Kind::from_name(WORKLOADS[i].name), Some(kind));
    }
}
