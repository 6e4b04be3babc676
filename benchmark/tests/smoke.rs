//! Tiny-size runs of every workload through the same code path the measured
//! runs take, the oracle's teeth, and the exactness of the count metrics.

use std::path::PathBuf;

use bond_benchmark::harness::{oracle_failures, run, Report, RunConfig, Samples};
use bond_benchmark::names::{END_TO_END, EXACT_COUNTS, PER_LAYER};
use bond_benchmark::refscan::Neighbour;
use bond_benchmark::trace::Tracer;
use bond_benchmark::workloads::{neighbours, set_up, write_store, Inputs, Kind, Shape, DATA_SEED};

fn out_dir(test: &str) -> PathBuf {
    // one directory per test: tests run in parallel inside one process, and
    // store files are named after the workload and the process id
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn tiny_run(kind: Kind, seed: u64, trace: bool, test: &str) -> Report {
    let cfg = RunConfig {
        kind,
        shape: Shape::tiny(kind),
        seed,
        seconds: 0.2,
        trace,
        out_dir: out_dir(test),
    };
    run(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()))
}

#[test]
fn every_workload_runs_untraced_and_reports_every_end_to_end_metric() {
    for kind in Kind::ALL {
        let report = tiny_run(kind, 3, false, "untraced");
        assert!(
            report.correct(),
            "{}: {} of {} failed",
            kind.name(),
            report.failed,
            report.attempted
        );
        assert!(report.attempted >= 3 * Shape::tiny(kind).ops_per_slice as u64);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.def.name).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        for m in &report.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                kind.name(),
                m.def.name,
                m.value
            );
        }
        let line = bond_benchmark::json::parse(&report.result_line()).expect("result line parses");
        let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let meta = &report.meta;
        assert_eq!(meta.get("engine_threads").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(meta.get("generator_threads").and_then(|v| v.as_f64()), Some(1.0));
        let backend = if kind == Kind::BurstMixedMmap { "Mapped" } else { "Heap" };
        assert_eq!(meta.get("backend").and_then(|v| v.as_str()), Some(backend));
    }
    let leftovers: Vec<_> = std::fs::read_dir(out_dir("untraced")).expect("out dir").collect();
    assert!(leftovers.is_empty(), "store files must be removed: {leftovers:?}");
}

#[test]
fn every_workload_runs_traced_with_exactly_repeating_counts() {
    for kind in Kind::ALL {
        let first = tiny_run(kind, 5, true, "traced");
        assert!(first.correct(), "{}: {} failed", kind.name(), first.failed);
        let names: Vec<&str> = first.metrics.iter().map(|m| m.def.name).collect();
        assert_eq!(names, PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
        for m in &first.metrics {
            assert!(m.value.is_finite(), "{} {} = {}", kind.name(), m.def.name, m.value);
        }
        assert_eq!(first.metric("obs.served_counter_matches"), Some(1.0), "{}", kind.name());
        assert_eq!(first.metric("client.failed_share"), Some(0.0));

        let trace_file = out_dir("traced").join(format!("trace-{}.json", kind.name()));
        let trace = std::fs::read_to_string(&trace_file).expect("trace file is written");
        let trace = bond_benchmark::json::parse(trace.trim()).expect("trace file is JSON");
        let totals = trace.get("span_totals").expect("span totals");
        let op = totals.get("client.op").expect("client.op spans");
        assert!(
            op.get("self_s").and_then(|v| v.as_f64()) <= op.get("total_s").and_then(|v| v.as_f64())
        );
        let child = if kind.served() {
            "service.wait"
        } else if kind == Kind::ScanLarge {
            "engine.search"
        } else {
            "engine.execute"
        };
        assert!(totals.get(child).is_some(), "{} spans missing for {}", child, kind.name());
        assert!(totals.get("kernels.sweep8_gcells_s").is_some(), "layer probes are spanned");

        let second = tiny_run(kind, 5, true, "traced");
        for name in EXACT_COUNTS {
            assert_eq!(first.metric(name), second.metric(name), "{} {name}", kind.name());
        }
    }
}

/// What the oracle says about `answers`, one entry per operation `0..`.
fn failures(inputs: &Inputs, answers: &[Vec<Vec<Neighbour>>]) -> u64 {
    let mut samples = Samples::with_room(answers.len(), inputs.kind.group(), 1 << 12);
    for (op, answer) in answers.iter().enumerate() {
        assert!(samples.push(op as u64, answer), "room for every sample");
    }
    oracle_failures(inputs, &samples)
}

#[test]
fn the_oracle_accepts_real_answers_and_catches_a_corrupted_one() {
    // a second collection too: the oracle must not owe its verdicts to the
    // one collection every measured run uses
    for (kind, data_seed) in Kind::ALL.into_iter().flat_map(|k| [(k, DATA_SEED), (k, 7)]) {
        let inputs = Inputs::generate(kind, Shape { data_seed, ..Shape::tiny(kind) }, 11);
        let store = out_dir("oracle").join(format!("{}-{data_seed}.bond", kind.name()));
        let store = (kind == Kind::BurstMixedMmap).then_some(store);
        if let Some(path) = &store {
            write_store(&inputs, path).expect("store is written");
        }
        let sut = set_up(&inputs, store.as_deref()).expect("set-up");
        let mut tracer = Tracer::with_capacity(0);
        let mut answers: Vec<Vec<Vec<Neighbour>>> = (0..4)
            .map(|op| {
                let outcomes =
                    sut.run_op(&inputs, &inputs.requests(op), &mut tracer, op).expect("op");
                outcomes.iter().map(neighbours).collect()
            })
            .collect();
        assert_eq!(failures(&inputs, &answers), 0, "{} on collection {data_seed}", kind.name());

        // one expected neighbour replaced by a row that is not one
        let answer = &mut answers[2][0];
        let last = answer.len() - 1;
        answer[last].row = (0..inputs.shape.rows as u32)
            .rev()
            .find(|r| answer.iter().all(|n| n.row != *r))
            .expect("a row outside the answer");
        assert_eq!(failures(&inputs, &answers), 1, "{}", kind.name());
        // rank order matters too
        answers[2][0].swap(0, last);
        answers[1][0].swap(0, 1);
        assert_eq!(failures(&inputs, &answers), 2, "{}", kind.name());
        if let Some(path) = &store {
            std::fs::remove_file(path).expect("store is removed");
        }
    }
}
