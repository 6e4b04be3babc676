//! The ratchet baseline: frozen panic-path and long-function debt, per
//! file.
//!
//! `lint-baseline.toml` is written and read by a hand-rolled parser for
//! the tiny TOML subset it uses — one `[rule-id]` section per ratcheted
//! rule, each holding `"path" = count` lines — because the linter is
//! dependency-free by design. The ratchet direction is one-way: a file's
//! count may only go down; dropping below baseline produces a note
//! suggesting `update-baseline` to lock in the gain.

use std::collections::BTreeMap;

/// Per-rule frozen debt counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `no-panic-paths-in-lib`: path → allowed panic-path count.
    pub panic_paths: BTreeMap<String, usize>,
    /// `long-fn-in-lib`: path → allowed count of over-long functions.
    pub long_fns: BTreeMap<String, usize>,
}

impl Baseline {
    /// Parses the baseline file's TOML subset. Unknown sections are
    /// preserved-by-ignoring (forward compatibility); malformed lines are
    /// errors so a hand-edited baseline cannot silently drop entries.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut baseline = Baseline::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("baseline line {lineno}: expected `\"path\" = count`"));
            };
            let key = key.trim();
            let key = key
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("baseline line {lineno}: path must be quoted"))?;
            let count: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("baseline line {lineno}: count must be an integer"))?;
            match section.as_str() {
                "no-panic-paths-in-lib" => baseline.panic_paths.insert(key.to_string(), count),
                "long-fn-in-lib" => baseline.long_fns.insert(key.to_string(), count),
                _ => None,
            };
        }
        Ok(baseline)
    }

    /// Renders the baseline back to its TOML subset, sorted by path so
    /// regeneration produces minimal diffs.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Ratchet baseline for `cargo run -p bond-lint -- check`.\n\
             # Frozen per-file debt: counts may only decrease. Regenerate with\n\
             # `cargo run -p bond-lint -- update-baseline` after paying debt down.\n",
        );
        for (section, counts) in
            [("no-panic-paths-in-lib", &self.panic_paths), ("long-fn-in-lib", &self.long_fns)]
        {
            out.push_str(&format!("\n[{section}]\n"));
            for (path, count) in counts {
                out.push_str(&format!("\"{path}\" = {count}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut baseline = Baseline::default();
        baseline.panic_paths.insert("crates/core/src/searcher.rs".to_string(), 15);
        baseline.panic_paths.insert("src/lib.rs".to_string(), 2);
        baseline.long_fns.insert("crates/exec/src/engine.rs".to_string(), 1);
        let rendered = baseline.render();
        assert_eq!(Baseline::parse(&rendered).unwrap(), baseline);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Baseline::parse("[no-panic-paths-in-lib]\nnot a kv line").is_err());
        assert!(Baseline::parse("[no-panic-paths-in-lib]\nbare/path = 3").is_err());
        assert!(Baseline::parse("[no-panic-paths-in-lib]\n\"p\" = many").is_err());
    }

    #[test]
    fn ignores_unknown_sections_and_comments() {
        let parsed = Baseline::parse("# header\n[future-rule]\n\"x\" = 9\n").unwrap();
        assert!(parsed.panic_paths.is_empty());
    }
}
