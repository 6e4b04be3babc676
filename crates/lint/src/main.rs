//! The bond-lint CLI.
//!
//! ```text
//! cargo run -p bond-lint -- check              # lint the workspace
//! cargo run -p bond-lint -- update-baseline    # regenerate lint-baseline.toml
//! ```
//!
//! `check` exits 0 when every finding is baselined, 1 on any error-level
//! finding, 2 on environmental failure (unreadable files, bad baseline).

use std::path::PathBuf;
use std::process::ExitCode;

use bond_lint::{compute_baseline, run_check, Baseline, Config, Level};

const BASELINE_FILE: &str = "lint-baseline.toml";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut root_arg = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "check" => command = Some("check"),
            "update-baseline" | "--update-baseline" => command = Some("update-baseline"),
            "--root" => match iter.next() {
                Some(path) => root_arg = Some(PathBuf::from(path)),
                None => return usage("--root requires a path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let command = command.unwrap_or("check");

    let root = match root_arg.map(Ok).unwrap_or_else(find_workspace_root) {
        Ok(root) => root,
        Err(message) => return fail(&message),
    };
    let config = Config::workspace();

    match command {
        "update-baseline" => {
            let baseline = match compute_baseline(&root, &config) {
                Ok(baseline) => baseline,
                Err(e) => return fail(&format!("walking workspace: {e}")),
            };
            let path = root.join(BASELINE_FILE);
            if let Err(e) = std::fs::write(&path, baseline.render()) {
                return fail(&format!("writing {}: {e}", path.display()));
            }
            let panics: usize = baseline.panic_paths.values().sum();
            let long_fns: usize = baseline.long_fns.values().sum();
            println!(
                "bond-lint: baseline updated — {panics} panic path(s) across {} file(s) and \
                 {long_fns} long function(s) across {} file(s) frozen in {BASELINE_FILE}",
                baseline.panic_paths.len(),
                baseline.long_fns.len()
            );
            ExitCode::SUCCESS
        }
        _ => {
            let baseline_path = root.join(BASELINE_FILE);
            let baseline = if baseline_path.is_file() {
                let text = match std::fs::read_to_string(&baseline_path) {
                    Ok(text) => text,
                    Err(e) => return fail(&format!("reading {BASELINE_FILE}: {e}")),
                };
                match Baseline::parse(&text) {
                    Ok(baseline) => baseline,
                    Err(message) => return fail(&message),
                }
            } else {
                Baseline::default()
            };
            let findings = match run_check(&root, &config, &baseline) {
                Ok(findings) => findings,
                Err(e) => return fail(&format!("walking workspace: {e}")),
            };
            let mut errors = 0usize;
            let mut notes = 0usize;
            for finding in &findings {
                match finding.level {
                    Level::Error => errors += 1,
                    Level::Note => notes += 1,
                }
                println!("{}", finding.render());
            }
            println!("bond-lint: {errors} error(s), {notes} note(s)");
            if errors > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}

/// Walks up from the current directory to the workspace root (the first
/// directory whose `Cargo.toml` declares `[workspace]`).
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).unwrap_or_default();
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory; \
                        pass --root <path>"
                .to_string());
        }
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("bond-lint: {message}");
    eprintln!("usage: bond-lint [check | update-baseline] [--root <path>]");
    ExitCode::from(2)
}

fn fail(message: &str) -> ExitCode {
    eprintln!("bond-lint: {message}");
    ExitCode::from(2)
}
