//! `selfcheck`: does the benchmark agree with itself? Runs every workload in
//! two (or more) sets of untraced runs of the same binary, the sets
//! alternating run by run so that machine drift hits them alike, and compares
//! the sets' medians per end-to-end metric against the metric's bound — the
//! check a later change's numbers are judged by, applied to no change at all.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::{parse, Value};
use crate::names::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{median, quartile_spread};

/// The end-to-end metrics of one child run, by name.
fn child_run(workload: &str, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "run exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    let result = parse(line)?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("run was not correct: {line}"));
    }
    let metrics = result.get("metrics").and_then(Value::as_object).ok_or("no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Runs `sets` sets of `runs` runs of every workload, each run
/// [`RUN_SECONDS`] long, and prints the table. `Ok(true)` when every set's
/// median is within the metric's bound of the first set's, for every
/// workload and end-to-end metric.
pub fn selfcheck(sets: usize, runs: usize) -> Result<bool, String> {
    let mut all_within = true;
    println!(
        "selfcheck: {sets} sets x {runs} runs x {RUN_SECONDS} s per workload, distinct seeds, sets alternating"
    );
    println!(
        "{:<18} {:<24} {:>12} {:>12} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "diff", "bound", "spread A", "spread B"
    );
    for workload in WORKLOADS.iter().map(|w| w.name) {
        // values[set][metric] = one value per run
        let mut values: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(); sets];
        for run in 0..runs {
            for (set, into) in values.iter_mut().enumerate() {
                let seed = 1 + (set * runs + run) as u64;
                for (name, value) in child_run(workload, seed)? {
                    into.entry(name).or_default().push(value);
                }
            }
        }
        for def in &END_TO_END {
            let of = |set: usize| values[set].get(def.name).cloned().unwrap_or_default();
            let base = of(0);
            let spread = |v: &[f64]| if v.len() >= 2 { quartile_spread(v) } else { f64::NAN };
            for set in 1..sets {
                let other = of(set);
                let diff = (median(&other) - median(&base)) / median(&base);
                let bound = def.bound.expect("end-to-end metrics are bounded");
                // a NaN difference (a metric that was not reported) fails too
                let within = diff.abs() <= bound;
                all_within &= within;
                println!(
                    "{:<18} {:<24} {:>12.5} {:>12.5} {:>+7.2}% {:>6.0}% {:>7.2}% {:>7.2}%  {}",
                    workload,
                    def.name,
                    median(&base),
                    median(&other),
                    diff * 100.0,
                    bound * 100.0,
                    spread(&base) * 100.0,
                    spread(&other) * 100.0,
                    if !within {
                        "FAIL"
                    } else if diff.abs() <= bound / 2.0 {
                        "ok"
                    } else {
                        "ok (over half the bound)"
                    }
                );
            }
        }
    }
    println!("selfcheck: {}", if all_within { "sets agree within every bound" } else { "FAILED" });
    Ok(all_within)
}
