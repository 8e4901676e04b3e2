//! The rule registry: determinism, panic-safety, lock-order, timeline
//! contract, unsafe audit, and allow-justification hygiene.
//!
//! Every rule works on the lexed per-line view from [`crate::lexer`]:
//! the `code` channel for token matching (so strings and comments can
//! never trigger a rule) and the `comment` channel for `LINT-ALLOW` /
//! `SAFETY:` annotations. Lines inside `#[cfg(test)]` regions are exempt
//! from every rule — the invariants protect shipped simulator and
//! daemon code, not test scaffolding.

use std::collections::BTreeMap;

use crate::config::LintConfig;
use crate::lexer::FileScan;
use crate::report::Finding;

/// All registered rule ids, in documentation order.
pub const RULE_IDS: &[&str] = &[
    "determinism",
    "panic-safety",
    "lock-order",
    "timeline",
    "unsafe-audit",
    "allow-justification",
];

/// An inline `// LINT-ALLOW(rule): reason` annotation.
#[derive(Debug)]
pub struct InlineAllow {
    pub rule: String,
    pub reason: String,
    /// 1-based line the comment sits on.
    pub comment_line: usize,
    /// 1-based line the allow applies to (same line, or the next code
    /// line when the comment stands alone).
    pub target_line: usize,
    pub used: bool,
}

/// Does `haystack` contain `needle` as a whole word (identifier-boundary
/// on both sides)?
fn contains_word(haystack: &str, needle: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = haystack[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Is `path` (root-relative, `/`-separated) inside any of `scopes`?
/// A scope matches the exact file or any file below the directory.
pub fn in_scope(path: &str, scopes: &[String]) -> bool {
    scopes.iter().any(|s| {
        let s = s.trim_end_matches('/');
        path == s || path.starts_with(&format!("{s}/"))
    })
}

/// Parse inline `LINT-ALLOW` annotations; malformed ones become
/// `allow-justification` findings immediately.
pub fn collect_inline_allows(
    path: &str,
    scan: &FileScan,
    findings: &mut Vec<Finding>,
) -> Vec<InlineAllow> {
    let mut allows = Vec::new();
    for (idx, line) in scan.lines.iter().enumerate() {
        // The annotation must BE the comment (after doc markers), not a
        // mid-sentence mention — otherwise prose documenting the grammar
        // would itself be parsed as an annotation attempt.
        let trimmed = line.comment.trim_start_matches(['/', '!', ' ', '\t']);
        let Some(rest) = trimmed.strip_prefix("LINT-ALLOW") else {
            continue;
        };
        let lineno = idx + 1;
        let malformed = |findings: &mut Vec<Finding>, why: &str| {
            findings.push(Finding {
                rule: "allow-justification",
                path: path.to_string(),
                line: lineno,
                message: format!("malformed LINT-ALLOW: {why}"),
                allowed: None,
            });
        };
        let Some(rest) = rest.strip_prefix('(') else {
            malformed(findings, "expected `LINT-ALLOW(rule): reason`");
            continue;
        };
        let Some(close) = rest.find(')') else {
            malformed(findings, "missing `)` after rule id");
            continue;
        };
        let rule = rest[..close].trim();
        if !RULE_IDS.contains(&rule) {
            malformed(findings, &format!("unknown rule `{rule}`"));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            malformed(findings, "empty justification — explain why");
            continue;
        }
        // A standalone comment line annotates the next code line.
        let mut target = lineno;
        if line.code.trim().is_empty() {
            for (j, later) in scan.lines.iter().enumerate().skip(idx + 1) {
                if !later.code.trim().is_empty() {
                    target = j + 1;
                    break;
                }
            }
        }
        allows.push(InlineAllow {
            rule: rule.to_string(),
            reason: reason.to_string(),
            comment_line: lineno,
            target_line: target,
            used: false,
        });
    }
    allows
}

/// Rule 1 — determinism: simulator-core code must not read wall-clock
/// time, sleep, or touch `HashMap`/`HashSet` (whose iteration order can
/// leak into statistics and break bit-identical reproduction).
pub fn check_determinism(path: &str, scan: &FileScan, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !in_scope(path, &cfg.determinism_paths) {
        return;
    }
    const CLOCK_TOKENS: &[(&str, &str)] = &[
        ("Instant::now", "wall-clock read (`Instant::now`)"),
        ("SystemTime::now", "wall-clock read (`SystemTime::now`)"),
        ("thread::sleep", "wall-clock dependence (`thread::sleep`)"),
    ];
    for (idx, line) in scan.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (token, what) in CLOCK_TOKENS {
            if line.code.contains(token) {
                out.push(Finding {
                    rule: "determinism",
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!("{what} in simulator-core code"),
                    allowed: None,
                });
            }
        }
        for ty in ["HashMap", "HashSet"] {
            if contains_word(&line.code, ty) {
                out.push(Finding {
                    rule: "determinism",
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!(
                        "`{ty}` in simulator-core code — iteration order is \
                         nondeterministic; use `BTree{}` or annotate why order \
                         cannot leak into statistics",
                        &ty[4..]
                    ),
                    allowed: None,
                });
            }
        }
    }
}

/// Rule 2 — panic-safety: durability-path code (pending, cache, fsck,
/// serve) must not be able to panic: no `unwrap`/`expect`, no panic-family
/// macros, no range slice-indexing.
pub fn check_panic_safety(path: &str, scan: &FileScan, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !in_scope(path, &cfg.panic_safety_paths) {
        return;
    }
    const PANIC_TOKENS: &[(&str, &str)] = &[
        (".unwrap()", "`unwrap()`"),
        (".expect(", "`expect()`"),
        ("panic!", "`panic!`"),
        ("unreachable!", "`unreachable!`"),
        ("todo!", "`todo!`"),
        ("unimplemented!", "`unimplemented!`"),
    ];
    for (idx, line) in scan.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (token, what) in PANIC_TOKENS {
            if line.code.contains(token) {
                out.push(Finding {
                    rule: "panic-safety",
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!(
                        "{what} on a durability path — propagate the error \
                         (PR 8 contract: degrade, don't die)"
                    ),
                    allowed: None,
                });
            }
        }
        if has_range_index(&line.code) {
            out.push(Finding {
                rule: "panic-safety",
                path: path.to_string(),
                line: idx + 1,
                message: "range slice-index on a durability path — use `.get(..)` \
                          so malformed input degrades instead of panicking"
                    .to_string(),
                allowed: None,
            });
        }
    }
}

/// Detect `expr[a..b]`-style range indexing: a `[` immediately preceded
/// by an index-able expression (identifier, `)`, or `]`) whose bracket
/// body contains `..`. Slice *patterns* (`[a, .., b]`) and array types
/// (`[u8; 4]`) don't match because their `[` is not preceded by an
/// expression. `expr[..]` (full range) cannot panic and is exempt.
fn has_range_index(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'[' {
            let indexable = i > 0
                && (is_ident_byte(bytes[i - 1]) || bytes[i - 1] == b')' || bytes[i - 1] == b']');
            if indexable {
                // Scan the bracket body at depth 0 for `..`.
                let mut depth = 0usize;
                let mut j = i + 1;
                let mut body = String::new();
                while j < bytes.len() {
                    match bytes[j] {
                        b'[' | b'(' => depth += 1,
                        b']' if depth == 0 => break,
                        b']' | b')' => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                    if depth == 0 {
                        body.push(bytes[j] as char);
                    }
                    j += 1;
                }
                let trimmed = body.trim();
                if body.contains("..") && trimmed != ".." {
                    return true;
                }
            }
        }
        i += 1;
    }
    false
}

/// Rule 3 — lock-order: extract per-function `.lock()` acquisition
/// sequences, build the (file-scoped) lock graph, and flag cycles as
/// deadlock candidates.
///
/// Lock identity is the identifier immediately before `.lock()` (e.g.
/// `self.inner.lock()` → `inner`) — a lexical approximation that matches
/// how the serve modules name their mutexes. Within one function, the
/// first acquisition of `a` before the first acquisition of `b` adds the
/// edge `a -> b`; a cycle in the resulting graph means two call paths
/// can acquire the same pair of locks in opposite orders.
pub fn check_lock_order(path: &str, scan: &FileScan, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !in_scope(path, &cfg.lock_order_paths) {
        return;
    }
    // edges[a][b] = (function, line) where the a-then-b order was seen.
    let mut edges: BTreeMap<String, BTreeMap<String, (String, usize)>> = BTreeMap::new();

    let mut depth: i64 = 0;
    let mut pending_fn: Option<String> = None;
    // Stack of (fn name, depth at its opening brace, first-acquisition order).
    let mut fn_stack: Vec<(String, i64, Vec<String>)> = Vec::new();

    for (idx, line) in scan.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if let Some(name) = fn_decl_name(code) {
            pending_fn = Some(name);
        }
        // Walk the line positionally so braces and `.lock()` calls are
        // seen in source order (a lock on the declaration line must land
        // inside the function that just opened). Edges are added eagerly
        // at acquisition time (first-acquisition order per function).
        let bytes = code.as_bytes();
        let mut k = 0usize;
        while k < bytes.len() {
            if code[k..].starts_with(".lock()") {
                if let Some(lock) = ident_before(code, k) {
                    if let Some((fn_name, _, seq)) = fn_stack.last_mut() {
                        if !seq.contains(&lock) {
                            for held in seq.iter() {
                                edges
                                    .entry(held.clone())
                                    .or_default()
                                    .entry(lock.clone())
                                    .or_insert_with(|| (fn_name.clone(), idx + 1));
                            }
                            seq.push(lock);
                        }
                    }
                }
                k += ".lock()".len();
                continue;
            }
            match bytes[k] {
                b'{' => {
                    if let Some(name) = pending_fn.take() {
                        fn_stack.push((name, depth, Vec::new()));
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if fn_stack.last().is_some_and(|(_, d, _)| depth <= *d) {
                        fn_stack.pop();
                    }
                }
                b';' => {
                    // `fn f();` in a trait — no body to track.
                    pending_fn = None;
                }
                _ => {}
            }
            k += 1;
        }
    }

    // Cycle detection: iterative DFS with three colors over the edge map.
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white, 1 grey, 2 black
    let mut reported: Vec<String> = Vec::new();
    let nodes: Vec<&str> = edges.keys().map(String::as_str).collect();
    for &start in &nodes {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // Stack holds (node, iterator index into its successor list).
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path_stack: Vec<&str> = vec![start];
        color.insert(start, 1);
        while let Some((node, succ_idx)) = stack.last_mut() {
            let succs: Vec<&str> = edges
                .get(*node)
                .map(|m| m.keys().map(String::as_str).collect())
                .unwrap_or_default();
            if *succ_idx >= succs.len() {
                color.insert(*node, 2);
                path_stack.pop();
                stack.pop();
                continue;
            }
            let next = succs[*succ_idx];
            *succ_idx += 1;
            match color.get(next).copied().unwrap_or(0) {
                0 => {
                    color.insert(next, 1);
                    stack.push((next, 0));
                    path_stack.push(next);
                }
                1 => {
                    // Back edge: reconstruct the cycle from path_stack.
                    let cycle_start = path_stack.iter().position(|n| *n == next).unwrap_or(0);
                    let cycle: Vec<&str> = path_stack[cycle_start..].to_vec();
                    let key = canonical_cycle(&cycle);
                    if !reported.contains(&key) {
                        reported.push(key);
                        let closing = path_stack.last().copied().unwrap_or(next);
                        let (fn_name, lineno) = edges
                            .get(closing)
                            .and_then(|m| m.get(next))
                            .cloned()
                            .unwrap_or_else(|| (String::from("?"), 1));
                        let mut order: Vec<String> = cycle.iter().map(|s| s.to_string()).collect();
                        order.push(next.to_string());
                        out.push(Finding {
                            rule: "lock-order",
                            path: path.to_string(),
                            line: lineno,
                            message: format!(
                                "lock-order cycle {} (closing edge `{closing}` -> `{next}` \
                                 in fn `{fn_name}`): opposite acquisition orders can deadlock",
                                order.join(" -> ")
                            ),
                            allowed: None,
                        });
                    }
                }
                _ => {}
            }
        }
    }
}

/// Rotate a cycle to start at its lexicographically smallest node so the
/// same cycle discovered from different entry points dedupes.
fn canonical_cycle(cycle: &[&str]) -> String {
    if cycle.is_empty() {
        return String::new();
    }
    let min_idx = cycle.iter().enumerate().min_by_key(|(_, s)| **s).map(|(i, _)| i).unwrap_or(0);
    let mut rotated: Vec<&str> = Vec::with_capacity(cycle.len());
    for k in 0..cycle.len() {
        rotated.push(cycle[(min_idx + k) % cycle.len()]);
    }
    rotated.join("->")
}

/// Extract the declared function name from a code line, if any.
fn fn_decl_name(code: &str) -> Option<String> {
    let mut from = 0usize;
    while let Some(pos) = code[from..].find("fn ") {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(code.as_bytes()[at - 1]);
        if before_ok {
            let rest = &code[at + 3..];
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
        from = at + 3;
    }
    None
}

/// The identifier immediately before position `at` (which points at the
/// `.` of `.lock()`), skipping nothing else: `self.inner.lock()` → `inner`.
fn ident_before(code: &str, at: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let end = at;
    let mut start = end;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    if start == end {
        return None;
    }
    Some(code[start..end].to_string())
}

/// Rule 4 — timeline contract: a `crates/core` module that introduces
/// time-bearing fields (`*_cycle`, `*due*`, `*expiry*`) must reference
/// the `timeline` module / `act::` helpers, so scheduled state stays on
/// the checkpointable Timeline instead of ad-hoc counters.
pub fn check_timeline(path: &str, scan: &FileScan, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !in_scope(path, &cfg.timeline_paths) {
        return;
    }
    let references_timeline = scan.lines.iter().any(|l| {
        contains_word(&l.code, "timeline")
            || contains_word(&l.code, "Timeline")
            || l.code.contains("act::")
    });
    if references_timeline {
        return;
    }
    for (idx, line) in scan.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if let Some(field) = time_bearing_field(&line.code) {
            out.push(Finding {
                rule: "timeline",
                path: path.to_string(),
                line: idx + 1,
                message: format!(
                    "time-bearing field `{field}` in a module that never references \
                     `timeline`/`act::` — scheduled state must live on the Timeline \
                     (ROADMAP contract)"
                ),
                allowed: None,
            });
        }
    }
}

/// Detect `pub? ident: Type,` field declarations whose identifier looks
/// time-bearing: `*_cycle`, contains `due`, or contains `expiry`.
fn time_bearing_field(code: &str) -> Option<String> {
    let trimmed = code.trim();
    if !trimmed.ends_with(',') {
        return None;
    }
    let mut rest = trimmed;
    for prefix in ["pub(crate) ", "pub(super) ", "pub "] {
        if let Some(r) = rest.strip_prefix(prefix) {
            rest = r;
            break;
        }
    }
    let (ident, after) = rest.split_once(':')?;
    let ident = ident.trim();
    if ident.is_empty()
        || !ident.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return None;
    }
    // `match` guard arms like `x if c => ..` never end with `ident: ty,`;
    // struct-literal inits (`field: 0,`) do match — same module, same rule.
    let _ = after;
    if ident.ends_with("_cycle") || ident.contains("due") || ident.contains("expiry") {
        return Some(ident.to_string());
    }
    None
}

/// Rule 5a — unsafe audit: every `unsafe` in non-test code needs a
/// `// SAFETY:` comment on the same line or one of the three preceding
/// lines.
pub fn check_unsafe_audit(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    for (idx, line) in scan.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if !contains_word(&line.code, "unsafe") {
            continue;
        }
        let documented =
            (idx.saturating_sub(3)..=idx).any(|j| scan.lines[j].comment.contains("SAFETY:"));
        if !documented {
            out.push(Finding {
                rule: "unsafe-audit",
                path: path.to_string(),
                line: idx + 1,
                message: "`unsafe` without a `// SAFETY:` comment explaining the invariant"
                    .to_string(),
                allowed: None,
            });
        }
    }
}

/// Does this file contain any `unsafe` in non-test code? (Used by the
/// workspace-level `#![forbid(unsafe_code)]` check.)
pub fn file_has_unsafe(scan: &FileScan) -> bool {
    scan.lines.iter().any(|l| !l.in_test && contains_word(&l.code, "unsafe"))
}

/// Does this crate root opt into `#![forbid(unsafe_code)]`?
pub fn has_forbid_unsafe(scan: &FileScan) -> bool {
    scan.lines.iter().any(|l| l.code.contains("#![forbid(unsafe_code)]"))
}

/// Rule 6 — allow-justification: every `#[allow(...)]` attribute in
/// non-test code must carry a comment (same line or the line above)
/// saying why the lint is suppressed.
pub fn check_allow_justification(path: &str, scan: &FileScan, out: &mut Vec<Finding>) {
    for (idx, line) in scan.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if !line.code.contains("#[allow(") {
            continue;
        }
        let justified = !line.comment.trim().is_empty()
            || (idx > 0 && !scan.lines[idx - 1].comment.trim().is_empty());
        if !justified {
            out.push(Finding {
                rule: "allow-justification",
                path: path.to_string(),
                line: idx + 1,
                message: "`#[allow(..)]` without a justification comment".to_string(),
                allowed: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn cfg_all(path: &str) -> LintConfig {
        LintConfig {
            determinism_paths: vec![path.to_string()],
            panic_safety_paths: vec![path.to_string()],
            lock_order_paths: vec![path.to_string()],
            timeline_paths: vec![path.to_string()],
            allows: Vec::new(),
        }
    }

    #[test]
    fn determinism_flags_hashmap_not_hash_derive() {
        let s = scan("#[derive(Hash)]\nstruct S;\nuse std::collections::HashMap;\n");
        let mut out = Vec::new();
        check_determinism("x.rs", &s, &cfg_all("x.rs"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn panic_safety_ignores_unwrap_or_else() {
        let s = scan("a.lock().unwrap_or_else(|e| e.into_inner());\nb.unwrap();\n");
        let mut out = Vec::new();
        check_panic_safety("x.rs", &s, &cfg_all("x.rs"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn range_index_detection() {
        assert!(has_range_index("let a = &key[..2];"));
        assert!(has_range_index("let a = &b[i..j + 1];"));
        assert!(!has_range_index("let a = &b[..];"));
        assert!(!has_range_index("let a: [u8; 4] = x;"));
        assert!(!has_range_index("if let [first, .., last] = s {}"));
        assert!(!has_range_index("let v = vec![1, 2];"));
    }

    #[test]
    fn lock_order_detects_inversion() {
        let src = "fn ab(&self) { let _a = self.a.lock(); let _b = self.b.lock(); }\n\
                   fn ba(&self) { let _b = self.b.lock(); let _a = self.a.lock(); }\n";
        let s = scan(src);
        let mut out = Vec::new();
        check_lock_order("x.rs", &s, &cfg_all("x.rs"), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("cycle"));
    }

    #[test]
    fn lock_order_accepts_consistent_order() {
        let src = "fn ab(&self) { let _a = self.a.lock(); let _b = self.b.lock(); }\n\
                   fn also_ab(&self) { let _a = self.a.lock(); let _b = self.b.lock(); }\n";
        let s = scan(src);
        let mut out = Vec::new();
        check_lock_order("x.rs", &s, &cfg_all("x.rs"), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn timeline_requires_reference() {
        let bad = scan("struct S {\n    pub ready_cycle: u64,\n}\n");
        let mut out = Vec::new();
        check_timeline("x.rs", &bad, &cfg_all("x.rs"), &mut out);
        assert_eq!(out.len(), 1);
        let good =
            scan("use crate::timeline::Timeline;\nstruct S {\n    pub ready_cycle: u64,\n}\n");
        let mut out2 = Vec::new();
        check_timeline("x.rs", &good, &cfg_all("x.rs"), &mut out2);
        assert!(out2.is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = scan("unsafe { do_it() }\n");
        let mut out = Vec::new();
        check_unsafe_audit("x.rs", &bad, &mut out);
        assert_eq!(out.len(), 1);
        let good = scan("// SAFETY: handler only sets an AtomicBool\nunsafe { do_it() }\n");
        let mut out2 = Vec::new();
        check_unsafe_audit("x.rs", &good, &mut out2);
        assert!(out2.is_empty());
        // forbid(unsafe_code) must not count as an unsafe use.
        let forbid = scan("#![forbid(unsafe_code)]\n");
        assert!(!file_has_unsafe(&forbid));
    }

    #[test]
    fn inline_allow_parsing() {
        let s = scan(
            "x.unwrap(); // LINT-ALLOW(panic-safety): checked two lines up\n\
             // LINT-ALLOW(bogus-rule): nope\n\
             // LINT-ALLOW(determinism):\n",
        );
        let mut findings = Vec::new();
        let allows = collect_inline_allows("x.rs", &s, &mut findings);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "panic-safety");
        assert_eq!(allows[0].target_line, 1);
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let s = scan(
            "// LINT-ALLOW(panic-safety): digest is always 64 hex chars\n\
             let short = &digest[..8];\n",
        );
        let mut findings = Vec::new();
        let allows = collect_inline_allows("x.rs", &s, &mut findings);
        assert_eq!(allows[0].target_line, 2);
    }
}
