//! `lint.toml` configuration: rule path scopes and the allowlist.
//!
//! The config file is parsed with a hand-rolled TOML subset (same policy
//! as `campaign::toml`): a `[paths]` table whose values are single-line
//! string arrays, and repeated `[[allow]]` tables with string values.
//! That is all `hdsmt-lint` needs, and it keeps the crate dependency-free.
//!
//! ```toml
//! [paths]
//! determinism = ["crates/core/src", "crates/pipeline/src"]
//!
//! [[allow]]
//! rule = "panic-safety"
//! path = "crates/campaign/src/serve/api.rs"
//! contains = "sha256_hex"
//! reason = "digest is always 64 hex chars"
//! ```

/// One allowlist entry from `lint.toml`.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowEntry {
    /// Rule id the entry suppresses (must name a registered rule).
    pub rule: String,
    /// Path prefix (root-relative, `/`-separated) the entry applies to.
    pub path: String,
    /// Optional substring the offending source line must contain.
    pub contains: Option<String>,
    /// Mandatory human justification.
    pub reason: String,
}

/// Resolved lint configuration: rule scopes plus the allowlist.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Directories whose files must be deterministic (simulator core).
    pub determinism_paths: Vec<String>,
    /// Files/directories on the durability path (panic-safety rule).
    pub panic_safety_paths: Vec<String>,
    /// Files participating in lock-order analysis.
    pub lock_order_paths: Vec<String>,
    /// Directories subject to the timeline-contract rule.
    pub timeline_paths: Vec<String>,
    /// Allowlist entries.
    pub allows: Vec<AllowEntry>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            determinism_paths: [
                "crates/core/src",
                "crates/pipeline/src",
                "crates/mem/src",
                "crates/bpred/src",
                "crates/trace/src",
                "crates/isa/src",
                "crates/riscv/src",
            ]
            .map(String::from)
            .to_vec(),
            panic_safety_paths: [
                "crates/campaign/src/pending.rs",
                "crates/campaign/src/cache.rs",
                "crates/campaign/src/fsck.rs",
                "crates/campaign/src/serve",
            ]
            .map(String::from)
            .to_vec(),
            lock_order_paths: vec!["crates/campaign/src/serve".to_string()],
            timeline_paths: ["crates/core/src"].map(String::from).to_vec(),
            allows: Vec::new(),
        }
    }
}

impl LintConfig {
    /// Parse a `lint.toml` document. Sections that are absent keep their
    /// defaults; a present `[paths]` key replaces the default scope.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let mut cfg = LintConfig::default();
        #[derive(PartialEq)]
        enum Section {
            None,
            Paths,
            Allow,
        }
        let mut section = Section::None;
        let mut current: Option<PartialAllow> = None;

        for (idx, raw_line) in text.lines().enumerate() {
            let line = strip_toml_comment(raw_line);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("lint.toml:{}: {}", idx + 1, msg);
            if line == "[paths]" {
                finish_allow(&mut current, &mut cfg, idx)?;
                section = Section::Paths;
                continue;
            }
            if line == "[[allow]]" {
                finish_allow(&mut current, &mut cfg, idx)?;
                section = Section::Allow;
                current = Some(PartialAllow::default());
                continue;
            }
            if line.starts_with('[') {
                return Err(err("unknown section"));
            }
            let (key, value) = line.split_once('=').ok_or_else(|| err("expected `key = value`"))?;
            let key = key.trim();
            let value = value.trim();
            match section {
                Section::Paths => {
                    let list = parse_string_array(value).ok_or_else(|| {
                        err("expected a single-line string array, e.g. [\"a\", \"b\"]")
                    })?;
                    match key {
                        "determinism" => cfg.determinism_paths = list,
                        "panic_safety" => cfg.panic_safety_paths = list,
                        "lock_order" => cfg.lock_order_paths = list,
                        "timeline" => cfg.timeline_paths = list,
                        _ => return Err(err("unknown [paths] key")),
                    }
                }
                Section::Allow => {
                    let entry = current.as_mut().ok_or_else(|| err("key outside table"))?;
                    let s = parse_string(value).ok_or_else(|| err("expected a string value"))?;
                    match key {
                        "rule" => entry.rule = Some(s),
                        "path" => entry.path = Some(s),
                        "contains" => entry.contains = Some(s),
                        "reason" => entry.reason = Some(s),
                        _ => return Err(err("unknown [[allow]] key")),
                    }
                }
                Section::None => return Err(err("key outside any section")),
            }
        }
        finish_allow(&mut current, &mut cfg, text.lines().count())?;
        Ok(cfg)
    }
}

#[derive(Default)]
struct PartialAllow {
    rule: Option<String>,
    path: Option<String>,
    contains: Option<String>,
    reason: Option<String>,
}

fn finish_allow(
    current: &mut Option<PartialAllow>,
    cfg: &mut LintConfig,
    line_idx: usize,
) -> Result<(), String> {
    let Some(partial) = current.take() else {
        return Ok(());
    };
    let err = |what: &str| format!("lint.toml:{}: [[allow]] {}", line_idx + 1, what);
    let rule = partial.rule.ok_or_else(|| err("is missing `rule`"))?;
    let path = partial.path.ok_or_else(|| err("is missing `path`"))?;
    let reason = partial.reason.ok_or_else(|| err("is missing `reason`"))?;
    if reason.trim().is_empty() {
        return Err(err("has an empty `reason` — justify the suppression"));
    }
    cfg.allows.push(AllowEntry { rule, path, contains: partial.contains, reason });
    Ok(())
}

/// Strip a `#` comment that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse a basic double-quoted TOML string (supports `\\` and `\"`).
fn parse_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                _ => return None,
            }
        } else if c == '"' {
            return None; // unescaped quote mid-string
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Parse a single-line array of basic strings: `["a", "b"]`.
fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    let mut out = Vec::new();
    for part in split_top_level_commas(inner) {
        out.push(parse_string(part.trim())?);
    }
    Some(out)
}

/// Split on commas outside quoted strings.
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paths_and_allows() {
        let cfg = LintConfig::parse(
            "# comment\n\
             [paths]\n\
             determinism = [\"a/src\", \"b/src\"]\n\
             \n\
             [[allow]]\n\
             rule = \"panic-safety\"\n\
             path = \"a/src/x.rs\"\n\
             contains = \"unwrap\"\n\
             reason = \"checked above\"\n",
        )
        .expect("parses");
        assert_eq!(cfg.determinism_paths, vec!["a/src", "b/src"]);
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].rule, "panic-safety");
        assert_eq!(cfg.allows[0].contains.as_deref(), Some("unwrap"));
        // Untouched sections keep defaults.
        assert!(!cfg.lock_order_paths.is_empty());
    }

    #[test]
    fn rejects_allow_without_reason() {
        let err = LintConfig::parse("[[allow]]\nrule = \"x\"\npath = \"y\"\n").unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(LintConfig::parse("[paths]\nbogus = []\n").is_err());
        assert!(LintConfig::parse("[nope]\n").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let cfg = LintConfig::parse(
            "[[allow]]\nrule = \"r\"\npath = \"p\"\nreason = \"say \\\"why\\\"\"\n",
        )
        .expect("parses");
        assert_eq!(cfg.allows[0].reason, "say \"why\"");
    }
}
