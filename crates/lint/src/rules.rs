//! The six invariant rules bond-lint enforces.
//!
//! Each rule matches token patterns from [`crate::lexer`] — never raw text
//! — so comments and string literals can neither trigger nor hide a
//! finding. Code inside `#[cfg(test)]` / `#[test]` items is exempt from
//! every rule (the guarantees the linter protects are about shipped
//! library code; tests unwrap freely and build naive `unsafe impl`s on
//! purpose).

use crate::baseline::Baseline;
use crate::config::Config;
use crate::lexer::{lex, LexedSource, Token, TokenKind};

/// Every `unsafe` block / fn / impl must sit directly under a `// SAFETY:`
/// comment stating the invariant that makes it sound.
pub const RULE_UNSAFE: &str = "unsafe-needs-safety-comment";
/// Every atomic `Ordering::…` use site must carry a `// ordering:`
/// justification (on the statement or its enclosing function), and atomics
/// may only appear in allowlisted concurrency modules.
pub const RULE_ATOMICS: &str = "atomics-need-ordering-justification";
/// `unwrap()` / `expect(` / `panic!` / `unimplemented!` in library code are
/// ratcheted: per-file counts may only go down relative to the baseline.
pub const RULE_PANIC: &str = "no-panic-paths-in-lib";
/// Dotted metric/stage name literals must live in the single
/// `bond_obs::names` registry module, and registered names must appear in
/// the README metric documentation.
pub const RULE_METRIC: &str = "metric-name-registry";
/// Public `Result`-returning functions in library crates must use the
/// workspace error types (`BondError` / `VdError`), not ad-hoc ones.
pub const RULE_ERROR: &str = "error-type-hygiene";
/// Library functions longer than [`MAX_FN_LINES`] lines are ratcheted like
/// panic paths: per-file counts may only go down relative to the baseline.
pub const RULE_LONG_FN: &str = "long-fn-in-lib";

/// The longest a non-test function may be, from its `fn` line to its
/// closing brace, before [`RULE_LONG_FN`] counts it.
pub const MAX_FN_LINES: usize = 80;

/// The memory-ordering variants of `std::sync::atomic::Ordering` (the
/// `cmp::Ordering` variants differ, so this set alone identifies atomics).
const ORDERING_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic type names whose mere presence marks a file as using atomics.
const ATOMIC_TYPES: [&str; 9] = [
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
];

/// Registry / span entry points whose first argument names a metric or
/// stage — a direct dotted literal there bypasses the names registry.
const REGISTRY_CALLS: [&str; 8] = [
    "counter",
    "gauge",
    "histogram",
    "counter_value",
    "gauge_value",
    "histogram_snapshot",
    "begin",
    "record",
];

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Fails the run (non-zero exit).
    Error,
    /// Informational (e.g. a stale baseline entry that can be ratcheted
    /// down); never fails the run.
    Note,
}

/// One diagnostic, rendered rustc-style as
/// `path:line:col: error[rule-id]: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Whether the finding fails the run.
    pub level: Level,
}

impl Finding {
    /// Renders the diagnostic in rustc's `file:line:col` style.
    pub fn render(&self) -> String {
        let level = match self.level {
            Level::Error => "error",
            Level::Note => "note",
        };
        format!(
            "{}:{}:{}: {level}[{}]: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Marks every token belonging to a `#[cfg(test)]` / `#[test]` item (the
/// attribute itself, any stacked attributes after it, and the item's body
/// through its matching close brace or terminating semicolon).
pub fn mark_test_regions(lexed: &mut LexedSource) {
    let code: Vec<usize> = (0..lexed.tokens.len())
        .filter(|&i| !matches!(lexed.tokens[i].kind, TokenKind::Comment(_)))
        .collect();
    let tok = |k: usize| -> Option<&Token> { code.get(k).map(|&i| &lexed.tokens[i]) };

    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        if !(tok(k).is_some_and(|t| t.is_punct('#')) && tok(k + 1).is_some_and(|t| t.is_punct('[')))
        {
            k += 1;
            continue;
        }
        // find the attribute's matching `]` and collect its identifiers
        let attr_start = k;
        let mut depth = 0usize;
        let mut m = k + 1;
        let mut names: Vec<&str> = Vec::new();
        while let Some(t) = tok(m) {
            match &t.kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident(name) => names.push(name),
                _ => {}
            }
            m += 1;
        }
        let attr_close = m;
        let is_test_attr = names.contains(&"test") && !names.contains(&"not");
        if !is_test_attr {
            k = attr_close + 1;
            continue;
        }
        // skip stacked attributes between this one and the item
        let mut item = attr_close + 1;
        while tok(item).is_some_and(|t| t.is_punct('#'))
            && tok(item + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut d = 0usize;
            while let Some(t) = tok(item) {
                match t.kind {
                    TokenKind::Punct('[') => d += 1,
                    TokenKind::Punct(']') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                item += 1;
            }
            item += 1;
        }
        // the item runs to its body's matching `}`, or to `;` if bodyless
        let mut end = item;
        let mut brace_depth = 0usize;
        let mut saw_brace = false;
        while let Some(t) = tok(end) {
            match t.kind {
                TokenKind::Punct(';') if !saw_brace => break,
                TokenKind::Punct('{') => {
                    saw_brace = true;
                    brace_depth += 1;
                }
                TokenKind::Punct('}') => {
                    brace_depth -= 1;
                    if brace_depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let raw_start = code[attr_start];
        let raw_end = code.get(end).copied().unwrap_or(lexed.tokens.len() - 1);
        ranges.push((raw_start, raw_end));
        k = end + 1;
    }
    for (start, end) in ranges {
        for t in &mut lexed.tokens[start..=end] {
            t.in_test = true;
        }
    }
}

/// A function item's position: used to let one `// ordering:` comment above
/// a function justify every atomic access in its body, and to measure it.
#[derive(Debug)]
struct FnSpan {
    /// Raw token range of the body (open brace ..= close brace).
    body: (usize, usize),
    /// Whether the comment block above the `fn` contains `ordering:`.
    ordering_justified: bool,
    /// Line and column of the `fn` keyword.
    at: (usize, usize),
    /// Lines from the `fn` keyword through the closing brace.
    lines: usize,
    /// Whether this is a named, non-test function item (not a `fn(…)`
    /// pointer type inside another signature).
    counted: bool,
}

/// One lexed file prepared for rule matching.
pub struct FileLint<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    lexed: &'a LexedSource,
    /// Indices of non-comment tokens, in order.
    code: Vec<usize>,
    fns: Vec<FnSpan>,
}

impl<'a> FileLint<'a> {
    /// Prepares `lexed` (already test-marked) for rule matching.
    pub fn new(rel_path: &'a str, lexed: &'a LexedSource) -> Self {
        let code: Vec<usize> = (0..lexed.tokens.len())
            .filter(|&i| !matches!(lexed.tokens[i].kind, TokenKind::Comment(_)))
            .collect();
        let mut fns = Vec::new();
        for (k, &i) in code.iter().enumerate() {
            if !lexed.tokens[i].is_ident("fn") {
                continue;
            }
            let fn_line = lexed.tokens[i].line;
            // find the body's opening brace (a `;` first means a bodyless
            // trait-method declaration)
            let mut m = k + 1;
            let mut open = None;
            while let Some(&j) = code.get(m) {
                match lexed.tokens[j].kind {
                    TokenKind::Punct('{') => {
                        open = Some(m);
                        break;
                    }
                    TokenKind::Punct(';') => break,
                    _ => {}
                }
                m += 1;
            }
            let Some(open) = open else { continue };
            let mut depth = 0usize;
            let mut close = open;
            while let Some(&j) = code.get(close) {
                match lexed.tokens[j].kind {
                    TokenKind::Punct('{') => depth += 1,
                    TokenKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                close += 1;
            }
            let justified = lexed.comment_block_above(fn_line).contains("ordering:");
            let body = (code[open], code.get(close).copied().unwrap_or(code[open]));
            let named = code.get(k + 1).is_some_and(|&j| lexed.tokens[j].ident().is_some());
            fns.push(FnSpan {
                body,
                ordering_justified: justified,
                at: (fn_line, lexed.tokens[i].col),
                lines: lexed.tokens[body.1].line - fn_line + 1,
                counted: named && !lexed.tokens[i].in_test,
            });
        }
        FileLint { rel_path, lexed, code, fns }
    }

    fn token(&self, k: usize) -> Option<&Token> {
        self.code.get(k).map(|&i| &self.lexed.tokens[i])
    }

    fn finding(&self, rule: &'static str, t: &Token, message: String) -> Finding {
        Finding {
            rule,
            path: self.rel_path.to_string(),
            line: t.line,
            col: t.col,
            message,
            level: Level::Error,
        }
    }

    /// Whether any enclosing function of raw token index `raw` carries an
    /// `ordering:` justification above its signature.
    fn in_justified_fn(&self, raw: usize) -> bool {
        self.fns.iter().any(|f| f.ordering_justified && f.body.0 < raw && raw < f.body.1)
    }

    /// Rule 1: `unsafe` needs a `// SAFETY:` comment directly above.
    pub fn check_unsafe(&self, out: &mut Vec<Finding>) {
        for k in 0..self.code.len() {
            let Some(t) = self.token(k) else { break };
            if t.in_test || !t.is_ident("unsafe") {
                continue;
            }
            if !self.lexed.comment_block_above(t.line).contains("SAFETY:") {
                out.push(self.finding(
                    RULE_UNSAFE,
                    t,
                    "`unsafe` without an immediately preceding `// SAFETY:` comment stating the \
                     invariant that makes it sound"
                        .to_string(),
                ));
            }
        }
    }

    /// Rule 2: atomic `Ordering::…` sites need `// ordering:` justification
    /// and may only live in allowlisted concurrency modules.
    pub fn check_atomics(&self, config: &Config, out: &mut Vec<Finding>) {
        let allowed = config.atomics_allowed.iter().any(|p| self.rel_path.starts_with(p.as_str()));
        for k in 0..self.code.len() {
            let Some(t) = self.token(k) else { break };
            if t.in_test {
                continue;
            }
            let is_site = t.is_ident("Ordering")
                && self.token(k + 1).is_some_and(|t| t.is_punct(':'))
                && self.token(k + 2).is_some_and(|t| t.is_punct(':'))
                && self
                    .token(k + 3)
                    .and_then(Token::ident)
                    .is_some_and(|v| ORDERING_VARIANTS.contains(&v));
            let is_atomic_type = t.ident().is_some_and(|n| ATOMIC_TYPES.contains(&n));
            if (is_site || is_atomic_type) && !allowed {
                out.push(self.finding(
                    RULE_ATOMICS,
                    t,
                    format!(
                        "atomics are only permitted in allowlisted concurrency modules \
                         ({}); move the shared state there or extend the allowlist with a \
                         justification",
                        config.atomics_allowed.join(", ")
                    ),
                ));
                continue;
            }
            if is_site {
                let variant = self.token(k + 3).and_then(Token::ident).unwrap_or_default();
                let statement_justified =
                    self.lexed.comment_block_above(t.line).contains("ordering:");
                if !statement_justified && !self.in_justified_fn(self.code[k]) {
                    out.push(self.finding(
                        RULE_ATOMICS,
                        t,
                        format!(
                            "`Ordering::{variant}` without an `// ordering:` justification on \
                             the statement or its enclosing function"
                        ),
                    ));
                }
            }
        }
    }

    /// Rule 3: the panic-path sites of this file (line/col per site).
    pub fn panic_sites(&self) -> Vec<(usize, usize)> {
        let mut sites = Vec::new();
        for k in 0..self.code.len() {
            let Some(t) = self.token(k) else { break };
            if t.in_test {
                continue;
            }
            let Some(name) = t.ident() else { continue };
            let hit = match name {
                "unwrap" | "expect" => {
                    k > 0
                        && self.token(k - 1).is_some_and(|p| p.is_punct('.'))
                        && self.token(k + 1).is_some_and(|n| n.is_punct('('))
                }
                "panic" | "unimplemented" => self.token(k + 1).is_some_and(|n| n.is_punct('!')),
                _ => false,
            };
            if hit {
                sites.push((t.line, t.col));
            }
        }
        sites
    }

    /// Rule 3: ratchets this file's panic-path count against the baseline.
    pub fn check_panic_paths(&self, baseline: &Baseline, out: &mut Vec<Finding>) {
        let allowed = baseline.panic_paths.get(self.rel_path).copied().unwrap_or(0);
        let what = "panic path(s) (unwrap/expect/panic!/unimplemented!)";
        self.ratchet(RULE_PANIC, &self.panic_sites(), allowed, what, "handle the error", out);
    }

    /// Rule 6: the non-test functions of this file longer than
    /// [`MAX_FN_LINES`] lines (line/col of each `fn`).
    pub fn long_fn_sites(&self) -> Vec<(usize, usize)> {
        self.fns.iter().filter(|f| f.counted && f.lines > MAX_FN_LINES).map(|f| f.at).collect()
    }

    /// Rule 6: ratchets this file's long-function count against the
    /// baseline.
    pub fn check_long_fns(&self, baseline: &Baseline, out: &mut Vec<Finding>) {
        let allowed = baseline.long_fns.get(self.rel_path).copied().unwrap_or(0);
        let what = format!("function(s) longer than {MAX_FN_LINES} lines");
        self.ratchet(RULE_LONG_FN, &self.long_fn_sites(), allowed, &what, "split it", out);
    }

    /// The frozen-count ratchet rules 3 and 6 share: more `sites` than the
    /// baseline `allowed` is an error anchored at the first site over it;
    /// fewer is a note asking to lock the gain in.
    fn ratchet(
        &self,
        rule: &'static str,
        sites: &[(usize, usize)],
        allowed: usize,
        what: &str,
        remedy: &str,
        out: &mut Vec<Finding>,
    ) {
        let path = self.rel_path.to_string();
        if sites.len() > allowed {
            let (line, col) = sites[allowed];
            out.push(Finding {
                rule,
                path,
                line,
                col,
                message: format!(
                    "{} {what} in library code, baseline allows {allowed}; {remedy} instead, \
                     or lower the count elsewhere in this file (the baseline only ratchets down)",
                    sites.len()
                ),
                level: Level::Error,
            });
        } else if sites.len() < allowed {
            out.push(Finding {
                rule,
                path,
                line: 1,
                col: 1,
                message: format!(
                    "{what} improved ({} now, baseline {allowed}); run \
                     `cargo run -p bond-lint -- update-baseline` to lock in the gain",
                    sites.len()
                ),
                level: Level::Note,
            });
        }
    }

    /// Rule 4 (per-file part): dotted metric/stage literals outside the
    /// names registry module.
    pub fn check_metric_literals(&self, config: &Config, out: &mut Vec<Finding>) {
        if Some(self.rel_path) == config.names_module.as_deref() {
            return; // the registry module is where the literals belong
        }
        let mut reported = vec![false; self.code.len()];
        for k in 0..self.code.len() {
            let Some(t) = self.token(k) else { break };
            if t.in_test {
                continue;
            }
            // a) direct literals handed to registry/span entry points
            let is_registry_call = t.ident().is_some_and(|n| REGISTRY_CALLS.contains(&n))
                && self.token(k + 1).is_some_and(|n| n.is_punct('('));
            if is_registry_call {
                if let Some(arg) = self.token(k + 2) {
                    if let TokenKind::Str(content) = &arg.kind {
                        if content.contains('.') {
                            out.push(self.finding(
                                RULE_METRIC,
                                arg,
                                format!(
                                    "metric/stage name literal \"{content}\" at a registration \
                                     site; use a constant from bond_obs::names instead"
                                ),
                            ));
                            reported[k + 2] = true;
                            continue;
                        }
                    }
                }
            }
            // b) any metric-shaped literal (≥ 2 dots, lowercase dotted path)
            if let TokenKind::Str(content) = &t.kind {
                if !reported[k] && is_metric_shaped(content) {
                    out.push(self.finding(
                        RULE_METRIC,
                        t,
                        format!(
                            "dotted name literal \"{content}\" outside the bond_obs::names \
                             registry module; define it there and reference the constant"
                        ),
                    ));
                }
            }
        }
    }

    /// Rule 5: public `Result`-returning functions must use the workspace
    /// error types.
    pub fn check_error_hygiene(&self, config: &Config, out: &mut Vec<Finding>) {
        if config.error_hygiene_allow.iter().any(|p| self.rel_path == p.as_str()) {
            return;
        }
        for k in 0..self.code.len() {
            let Some(t) = self.token(k) else { break };
            if t.in_test || !t.is_ident("pub") {
                continue;
            }
            // `pub(crate)` / `pub(super)` are not public API
            if self.token(k + 1).is_some_and(|n| n.is_punct('(')) {
                continue;
            }
            // allow modifiers between pub and fn: const/unsafe/async/extern "C"
            let mut m = k + 1;
            while self
                .token(m)
                .and_then(Token::ident)
                .is_some_and(|n| matches!(n, "const" | "unsafe" | "async" | "extern"))
                || self.token(m).is_some_and(|t| matches!(t.kind, TokenKind::Str(_)))
            {
                m += 1;
            }
            if !self.token(m).is_some_and(|t| t.is_ident("fn")) {
                continue;
            }
            if let Some(finding) = self.check_fn_signature(m) {
                out.push(finding);
            }
        }
    }

    /// Examines one function signature starting at the `fn` token (code
    /// index `fn_k`) for an explicit non-workspace error type.
    fn check_fn_signature(&self, fn_k: usize) -> Option<Finding> {
        let fn_name = self.token(fn_k + 1).and_then(Token::ident).unwrap_or("?").to_string();
        // collect the signature up to the body / terminator
        let mut sig_end = fn_k + 1;
        while let Some(t) = self.token(sig_end) {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            sig_end += 1;
        }
        // find `->` (two adjacent puncts)
        let mut arrow = None;
        for k in fn_k..sig_end {
            if self.token(k).is_some_and(|t| t.is_punct('-'))
                && self.token(k + 1).is_some_and(|t| t.is_punct('>'))
            {
                arrow = Some(k + 2);
                break;
            }
        }
        let ret_start = arrow?;
        // find `Result` in the return type (stop at `where` / body)
        let mut k = ret_start;
        while k < sig_end {
            let t = self.token(k)?;
            if t.is_ident("where") {
                return None;
            }
            if t.is_ident("Result") && self.token(k + 1).is_some_and(|n| n.is_punct('<')) {
                // scan the generic arguments for a top-level comma
                let mut angle = 1usize;
                let mut paren = 0usize;
                let mut bracket = 0usize;
                let mut m = k + 2;
                let mut err_idents: Vec<String> = Vec::new();
                let mut after_comma = false;
                while angle > 0 {
                    let t = self.token(m)?;
                    match &t.kind {
                        TokenKind::Punct('<') => angle += 1,
                        TokenKind::Punct('>') => angle -= 1,
                        TokenKind::Punct('(') => paren += 1,
                        TokenKind::Punct(')') => paren = paren.saturating_sub(1),
                        TokenKind::Punct('[') => bracket += 1,
                        TokenKind::Punct(']') => bracket = bracket.saturating_sub(1),
                        TokenKind::Punct(',') if angle == 1 && paren == 0 && bracket == 0 => {
                            after_comma = true;
                        }
                        TokenKind::Ident(name) if after_comma && angle >= 1 => {
                            err_idents.push(name.clone());
                        }
                        _ => {}
                    }
                    m += 1;
                }
                if !after_comma {
                    return None; // crate `Result<T>` alias — fine
                }
                let ok = err_idents.iter().any(|n| n == "BondError" || n == "VdError");
                if !ok {
                    let t = self.token(k)?;
                    return Some(self.finding(
                        RULE_ERROR,
                        t,
                        format!(
                            "public fn `{fn_name}` returns Result with ad-hoc error type \
                             `{}`; library crates must surface BondError/VdError (or the \
                             crate Result alias)",
                            err_idents.join("::")
                        ),
                    ));
                }
                return None;
            }
            k += 1;
        }
        None
    }
}

/// Whether a string literal looks like a dotted metric name: at least two
/// dots, non-empty lowercase segments of `[a-z0-9_{}]` (the `{}` admits
/// `format!` templates like `engine.rule.{name}.searches`), starting with a
/// letter. File names (`main.rs`), version strings (`0.1.0`) and prose
/// never match.
pub fn is_metric_shaped(s: &str) -> bool {
    if s.matches('.').count() < 2 || !s.starts_with(|c: char| c.is_ascii_lowercase()) {
        return false;
    }
    s.split('.').all(|seg| {
        !seg.is_empty()
            && seg.chars().all(|c| {
                c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '{' || c == '}'
            })
    })
}

/// Lints one file's source against every per-file rule.
pub fn lint_file(rel_path: &str, src: &str, config: &Config, baseline: &Baseline) -> Vec<Finding> {
    let mut lexed = lex(src);
    mark_test_regions(&mut lexed);
    let file = FileLint::new(rel_path, &lexed);
    let mut out = Vec::new();
    file.check_unsafe(&mut out);
    file.check_atomics(config, &mut out);
    file.check_panic_paths(baseline, &mut out);
    file.check_metric_literals(config, &mut out);
    file.check_error_hygiene(config, &mut out);
    file.check_long_fns(baseline, &mut out);
    out
}

/// Counts one file's ratcheted sites (for baseline generation): its panic
/// paths and its long functions.
pub fn count_ratchet_sites(rel_path: &str, src: &str) -> (usize, usize) {
    let mut lexed = lex(src);
    mark_test_regions(&mut lexed);
    let file = FileLint::new(rel_path, &lexed);
    (file.panic_sites().len(), file.long_fn_sites().len())
}
