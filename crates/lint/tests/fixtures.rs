//! Fixture tests: every rule is exercised against known-good and
//! known-bad snippets with exact rule IDs and line numbers, plus an
//! `update-baseline` round trip on a synthetic workspace.

use std::collections::BTreeMap;
use std::path::PathBuf;

use bond_lint::baseline::Baseline;
use bond_lint::config::Config;
use bond_lint::rules::{
    lint_file, MAX_FN_LINES, RULE_ATOMICS, RULE_ERROR, RULE_LONG_FN, RULE_METRIC, RULE_PANIC,
    RULE_UNSAFE,
};
use bond_lint::{compute_baseline, run_check, Finding, Level};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// A config whose allowlists admit the fixture directory itself, so the
/// per-rule bad fixtures only trip the rule under test.
fn fixture_config() -> Config {
    Config {
        exclude_crates: Vec::new(),
        atomics_allowed: vec![
            "fixtures/bad_atomics.rs".to_string(),
            "fixtures/good.rs".to_string(),
        ],
        error_hygiene_allow: Vec::new(),
        names_module: None,
        readme: None,
    }
}

fn errors(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| f.level == Level::Error).collect()
}

#[test]
fn good_fixture_is_clean() {
    let findings =
        lint_file("fixtures/good.rs", &fixture("good.rs"), &fixture_config(), &Baseline::default());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn undocumented_unsafe_is_reported_with_line() {
    let findings = lint_file(
        "fixtures/bad_unsafe.rs",
        &fixture("bad_unsafe.rs"),
        &fixture_config(),
        &Baseline::default(),
    );
    let errs = errors(&findings);
    assert_eq!(errs.len(), 1, "{findings:?}");
    assert_eq!(errs[0].rule, RULE_UNSAFE);
    assert_eq!(errs[0].line, 4, "the undocumented unsafe block, not the documented one");
}

#[test]
fn unjustified_ordering_is_reported_with_line() {
    let findings = lint_file(
        "fixtures/bad_atomics.rs",
        &fixture("bad_atomics.rs"),
        &fixture_config(),
        &Baseline::default(),
    );
    let errs = errors(&findings);
    assert_eq!(errs.len(), 1, "{findings:?}");
    assert_eq!(errs[0].rule, RULE_ATOMICS);
    assert_eq!(errs[0].line, 6, "only the unjustified site; fn- and stmt-level pass");
}

#[test]
fn atomics_outside_the_allowlist_are_reported_even_when_justified() {
    let findings = lint_file(
        "fixtures/atomics_outside_allowlist.rs",
        &fixture("atomics_outside_allowlist.rs"),
        &fixture_config(),
        &Baseline::default(),
    );
    let errs = errors(&findings);
    assert!(!errs.is_empty());
    assert!(errs.iter().all(|f| f.rule == RULE_ATOMICS), "{findings:?}");
    assert!(errs.iter().any(|f| f.line == 8), "the justified store still fires: {findings:?}");
}

#[test]
fn panic_paths_ratchet_against_the_baseline() {
    let config = fixture_config();
    let src = fixture("bad_panics.rs");

    // no baseline: both sites over, anchored at the first non-baselined one
    let findings = lint_file("fixtures/bad_panics.rs", &src, &config, &Baseline::default());
    let errs = errors(&findings);
    assert_eq!(errs.len(), 1, "{findings:?}");
    assert_eq!(errs[0].rule, RULE_PANIC);
    assert_eq!(errs[0].line, 4, "anchored at the first over-baseline site");

    // baseline 1: the second site is the first over-baseline one
    let mut baseline = Baseline::default();
    baseline.panic_paths.insert("fixtures/bad_panics.rs".to_string(), 1);
    let findings = lint_file("fixtures/bad_panics.rs", &src, &config, &baseline);
    assert_eq!(errors(&findings).len(), 1);
    assert_eq!(errors(&findings)[0].line, 8);

    // baseline 2: exactly at baseline — clean (test-module unwraps/panic
    // never counted)
    baseline.panic_paths.insert("fixtures/bad_panics.rs".to_string(), 2);
    let findings = lint_file("fixtures/bad_panics.rs", &src, &config, &baseline);
    assert!(errors(&findings).is_empty(), "{findings:?}");

    // baseline 3: improved — a note, never an error
    baseline.panic_paths.insert("fixtures/bad_panics.rs".to_string(), 3);
    let findings = lint_file("fixtures/bad_panics.rs", &src, &config, &baseline);
    assert!(errors(&findings).is_empty(), "{findings:?}");
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].level, Level::Note);
}

/// A function spanning exactly `lines` lines, `fn` line to closing brace.
fn function_of(signature: &str, lines: usize) -> String {
    let body: String = (0..lines - 2).map(|i| format!("    let _x{i} = {i};\n")).collect();
    format!("{signature} {{\n{body}}}\n")
}

#[test]
fn long_functions_ratchet_against_the_baseline() {
    let config = fixture_config();
    let path = "fixtures/long_fns.rs";
    // at the limit, one line over, one line over behind a `fn(…)` pointer
    // parameter (counted once), and an over-long test function (exempt)
    let src = [
        function_of("pub fn at_limit()", MAX_FN_LINES),
        function_of("pub fn over()", MAX_FN_LINES + 1),
        function_of("pub fn takes(f: fn(u8) -> u8)", MAX_FN_LINES + 1),
        format!("#[cfg(test)]\nmod tests {{\n{}}}\n", function_of("fn long_test()", 200)),
    ]
    .concat();
    let over_line = MAX_FN_LINES + 1;
    let long = |baseline: &Baseline| -> Vec<Finding> {
        lint_file(path, &src, &config, baseline)
            .into_iter()
            .filter(|f| f.rule == RULE_LONG_FN)
            .collect()
    };

    // no baseline: anchored at the first over-long function
    let findings = long(&Baseline::default());
    assert_eq!(errors(&findings).len(), 1, "{findings:?}");
    assert_eq!(findings[0].line, over_line);
    assert!(findings[0].message.starts_with("2 function(s)"), "{findings:?}");

    // baseline 1: the second over-long function is the first over it
    let mut baseline = Baseline::default();
    baseline.long_fns.insert(path.to_string(), 1);
    let findings = long(&baseline);
    assert_eq!(errors(&findings).len(), 1, "{findings:?}");
    assert_eq!(findings[0].line, over_line + MAX_FN_LINES + 1);

    // at baseline: clean; above it: a note, never an error
    baseline.long_fns.insert(path.to_string(), 2);
    assert!(long(&baseline).is_empty());
    baseline.long_fns.insert(path.to_string(), 3);
    let findings = long(&baseline);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].level, Level::Note);
}

#[test]
fn metric_literals_are_reported_once_per_site() {
    let findings = lint_file(
        "fixtures/bad_metric.rs",
        &fixture("bad_metric.rs"),
        &fixture_config(),
        &Baseline::default(),
    );
    let errs = errors(&findings);
    assert_eq!(errs.len(), 2, "{findings:?}");
    assert!(errs.iter().all(|f| f.rule == RULE_METRIC));
    assert_eq!(errs[0].line, 5, "registration-site literal");
    assert_eq!(errs[1].line, 9, "stray metric-shaped literal");
}

#[test]
fn adhoc_public_error_types_are_reported() {
    let findings = lint_file(
        "fixtures/bad_error.rs",
        &fixture("bad_error.rs"),
        &fixture_config(),
        &Baseline::default(),
    );
    let errs: Vec<&Finding> =
        errors(&findings).into_iter().filter(|f| f.rule == RULE_ERROR).collect();
    assert_eq!(errs.len(), 2, "{findings:?}");
    assert_eq!(errs[0].line, 3, "pub fn with Result<u32, String>");
    assert_eq!(errs[1].line, 20, "a tuple Ok type must not hide the ad-hoc error behind it");
}

#[test]
fn error_hygiene_allowlist_exempts_a_file() {
    let mut config = fixture_config();
    config.error_hygiene_allow.push("fixtures/bad_error.rs".to_string());
    let findings =
        lint_file("fixtures/bad_error.rs", &fixture("bad_error.rs"), &config, &Baseline::default());
    assert!(errors(&findings).iter().all(|f| f.rule != RULE_ERROR), "{findings:?}");
}

/// Builds a throwaway workspace under the target-level temp dir, returning
/// its root. Cleaned up by the caller.
fn scratch_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bond-lint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("src")).unwrap();
    root
}

#[test]
fn update_baseline_round_trips_to_a_clean_run() {
    let root = scratch_workspace("roundtrip");
    std::fs::write(
        root.join("src/lib.rs"),
        "pub fn f(v: &[u64]) -> u64 {\n    *v.first().unwrap()\n}\n\
         pub fn g(v: &[u64]) -> u64 {\n    *v.get(1).expect(\"two\")\n}\n",
    )
    .unwrap();
    let config = Config {
        exclude_crates: Vec::new(),
        atomics_allowed: Vec::new(),
        error_hygiene_allow: Vec::new(),
        names_module: None,
        readme: None,
    };

    // without a baseline the scratch tree fails
    let findings = run_check(&root, &config, &Baseline::default()).unwrap();
    assert_eq!(errors(&findings).len(), 1);
    assert_eq!(errors(&findings)[0].rule, RULE_PANIC);

    // compute → render → parse → re-check: clean
    let computed = compute_baseline(&root, &config).unwrap();
    assert_eq!(computed.panic_paths, BTreeMap::from([("src/lib.rs".to_string(), 2usize)]));
    assert!(computed.long_fns.is_empty());
    let reparsed = Baseline::parse(&computed.render()).unwrap();
    assert_eq!(reparsed, computed);
    let findings = run_check(&root, &config, &reparsed).unwrap();
    assert!(errors(&findings).is_empty(), "{findings:?}");

    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn workspace_tree_is_lint_clean() {
    // the shipped tree must pass its own linter with the shipped baseline
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline_text = std::fs::read_to_string(root.join("lint-baseline.toml")).unwrap();
    let baseline = Baseline::parse(&baseline_text).unwrap();
    let findings = run_check(&root, &Config::workspace(), &baseline).unwrap();
    let errs = errors(&findings);
    assert!(errs.is_empty(), "shipped tree has lint errors:\n{:#?}", errs);
}
