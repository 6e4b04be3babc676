//! bond-lint: a dependency-free, workspace-aware invariant checker.
//!
//! The engine's guarantees — bit-identical parallel answers under either
//! planner, never-wrong quantized filtering — rest on invariants the
//! compiler cannot see: hand-picked atomic orderings, `unsafe` mmap
//! contracts, conservative bounds. This crate enforces the documentation
//! and containment of those invariants mechanically:
//!
//! - [`rules::RULE_UNSAFE`] — `unsafe` needs a `// SAFETY:` comment;
//! - [`rules::RULE_ATOMICS`] — `Ordering::…` needs `// ordering:`
//!   justification, atomics only in allowlisted modules;
//! - [`rules::RULE_PANIC`] — panic paths in lib code ratchet down against
//!   `lint-baseline.toml`;
//! - [`rules::RULE_METRIC`] — metric names live in `bond_obs::names` and
//!   are documented in the README;
//! - [`rules::RULE_ERROR`] — public `Result` fns use `BondError`/`VdError`;
//! - [`rules::RULE_LONG_FN`] — functions over [`rules::MAX_FN_LINES`] lines
//!   in lib code ratchet down against `lint-baseline.toml`.
//!
//! Run it as `cargo run -p bond-lint -- check`. See the README's "Static
//! analysis & invariants" section for rule-by-rule guidance.

pub mod baseline;
pub mod config;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

pub use baseline::Baseline;
pub use config::Config;
pub use rules::{Finding, Level};

use lexer::{lex, Token, TokenKind};

/// Collects the workspace-relative paths of every `.rs` file in scope:
/// `src/` and each `crates/<name>/src/` (minus excluded crates). Shims,
/// tests, benches and examples live outside these roots and are therefore
/// excluded structurally, not by filename convention.
pub fn collect_files(root: &Path, config: &Config) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, Path::new("src"), &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&crates)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
        entries.sort();
        for entry in entries {
            let Some(name) = entry.file_name().and_then(|n| n.to_str()) else { continue };
            if config.exclude_crates.iter().any(|x| x == name) {
                continue;
            }
            let src = entry.join("src");
            if src.is_dir() {
                let rel = PathBuf::from("crates").join(name).join("src");
                walk_rs(&src, &rel, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, rel: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for entry in entries {
        let Some(name) = entry.file_name().and_then(|n| n.to_str()) else { continue };
        let rel_child = rel.join(name);
        if entry.is_dir() {
            walk_rs(&entry, &rel_child, out)?;
        } else if name.ends_with(".rs") {
            // normalize to `/` so paths match the baseline on any host
            let unix = rel_child
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(unix);
        }
    }
    Ok(())
}

/// Runs every rule over the workspace and returns all findings, sorted by
/// path, line and column.
pub fn run_check(root: &Path, config: &Config, baseline: &Baseline) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in collect_files(root, config)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        findings.extend(rules::lint_file(&rel, &src, config, baseline));
    }
    findings.extend(check_name_registry(root, config)?);
    findings.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    Ok(findings)
}

/// The `metric-name-registry` workspace-level half: every `pub const` name
/// in the registry module must be unique and documented in the README.
fn check_name_registry(root: &Path, config: &Config) -> io::Result<Vec<Finding>> {
    let (Some(names_rel), Some(readme_rel)) = (&config.names_module, &config.readme) else {
        return Ok(Vec::new());
    };
    let mut findings = Vec::new();
    let names_path = root.join(names_rel);
    if !names_path.is_file() {
        findings.push(Finding {
            rule: rules::RULE_METRIC,
            path: names_rel.clone(),
            line: 1,
            col: 1,
            message: "metric-name registry module is missing".to_string(),
            level: Level::Error,
        });
        return Ok(findings);
    }
    let src = std::fs::read_to_string(&names_path)?;
    let readme = std::fs::read_to_string(root.join(readme_rel)).unwrap_or_default();
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    for (const_name, value, line) in registry_constants(&src) {
        if let Some(previous) = seen.insert(value.clone(), const_name.clone()) {
            findings.push(Finding {
                rule: rules::RULE_METRIC,
                path: names_rel.clone(),
                line,
                col: 1,
                message: format!(
                    "duplicate registered name \"{value}\" (`{const_name}` repeats `{previous}`)"
                ),
                level: Level::Error,
            });
        }
        if !readme.contains(&value) {
            findings.push(Finding {
                rule: rules::RULE_METRIC,
                path: names_rel.clone(),
                line,
                col: 1,
                message: format!(
                    "registered name \"{value}\" (`{const_name}`) is not documented in \
                     {readme_rel}; add it to the metrics/spans tables"
                ),
                level: Level::Error,
            });
        }
    }
    Ok(findings)
}

/// Extracts `(const_name, string_value, line)` for every
/// `const NAME: … = "…";` in the registry module, via the same lexer the
/// rules use (bond-lint cannot link `bond_obs` — it is dependency-free).
pub fn registry_constants(src: &str) -> Vec<(String, String, usize)> {
    let lexed = lex(src);
    let code: Vec<&Token> =
        lexed.tokens.iter().filter(|t| !matches!(t.kind, TokenKind::Comment(_))).collect();
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        if code[k].is_ident("const") {
            if let Some(name) = code.get(k + 1).and_then(|t| t.ident()) {
                // scan the declaration for `= "…" ;`
                let mut m = k + 2;
                while m < code.len() && !code[m].is_punct(';') {
                    if code[m].is_punct('=') {
                        if let Some(TokenKind::Str(value)) = code.get(m + 1).map(|t| &t.kind) {
                            out.push((name.to_string(), value.clone(), code[k].line));
                        }
                        break;
                    }
                    m += 1;
                }
            }
        }
        k += 1;
    }
    out
}

/// Computes a fresh baseline from the tree's current panic-path and
/// long-function counts.
pub fn compute_baseline(root: &Path, config: &Config) -> io::Result<Baseline> {
    let mut baseline = Baseline::default();
    for rel in collect_files(root, config)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let (panics, long_fns) = rules::count_ratchet_sites(&rel, &src);
        if panics > 0 {
            baseline.panic_paths.insert(rel.clone(), panics);
        }
        if long_fns > 0 {
            baseline.long_fns.insert(rel, long_fns);
        }
    }
    Ok(baseline)
}
