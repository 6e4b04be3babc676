//! `bond-benchmark run | list | selfcheck` — see `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use bond_benchmark::harness::{run, RunConfig};
use bond_benchmark::names::{END_TO_END, PER_LAYER, WORKLOADS};
use bond_benchmark::selfcheck::selfcheck;
use bond_benchmark::workloads::{Kind, Shape};

const USAGE: &str = "usage:
  bond-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
  bond-benchmark list
  bond-benchmark selfcheck [--sets 2] [--runs 5]";

/// `--key value` pairs after the subcommand.
fn options(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    args.chunks(2)
        .map(|pair| {
            let key = pair[0]
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{}`", pair[0]))?;
            let value = pair.get(1).ok_or_else(|| format!("`--{key}` needs a value"))?;
            Ok((key, value.as_str()))
        })
        .collect()
}

fn number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("`--{key} {value}` is not a number"))
}

fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    Ok(())
}

fn out_dir() -> PathBuf {
    // cargo sets the variable for `cargo run`; the compile-time value serves
    // a binary started by hand
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// `run`: the four options are the ones the driver passes, and all are
/// required — the gate always passes `run_seconds` of `BENCHMARK.json` as
/// `--seconds`, and `meta` records what was passed.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    refuse_debug_build()?;
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for (key, value) in options(args)? {
        match key {
            "workload" => {
                kind = Some(Kind::from_name(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "seed" => seed = Some(number::<u64>(key, value)?),
            "seconds" => seconds = Some(number::<f64>(key, value)?),
            "trace" => match value {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("`--trace {value}` is neither 0 nor 1")),
            },
            _ => return Err(format!("unknown option `--{key}`")),
        }
    }
    let kind = kind.ok_or("`--workload` is required")?;
    let seed = seed.ok_or("`--seed` is required")?;
    let seconds = seconds.ok_or("`--seconds` is required")?;
    let trace = trace.ok_or("`--trace` is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("`--seconds` must be positive".into());
    }
    let cfg =
        RunConfig { kind, shape: Shape::full(kind), seed, seconds, trace, out_dir: out_dir() };
    let report = run(&cfg)?;
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {}", m.def.name, m.value, m.def.unit);
    }
    println!("meta {}", report.meta.render());
    println!("{}", report.result_line());
    Ok(true)
}

fn cmd_list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    for (title, defs) in [
        ("end-to-end metrics (--trace 0)", &END_TO_END[..]),
        ("per-layer metrics (--trace 1)", &PER_LAYER[..]),
    ] {
        println!("{title}:");
        for m in defs {
            let bound = m.bound.map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
            println!("  {:<36} {:<9} {} is better{bound}", m.name, m.unit, m.better.label());
        }
    }
}

fn cmd_selfcheck(args: &[String]) -> Result<bool, String> {
    refuse_debug_build()?;
    let (mut sets, mut runs) = (2, 5);
    for (key, value) in options(args)? {
        match key {
            "sets" => sets = number::<usize>(key, value)?.max(2),
            "runs" => runs = number::<usize>(key, value)?.max(1),
            _ => return Err(format!("unknown option `--{key}`")),
        }
    }
    selfcheck(sets, runs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("list") => {
            cmd_list();
            Ok(true)
        }
        Some("selfcheck") => cmd_selfcheck(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bond-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
