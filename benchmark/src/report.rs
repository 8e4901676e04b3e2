//! Metric names, units, and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` at the repository
//! root (a test keeps them in step). Every workload reports every
//! end-to-end metric on an untraced run and every per-layer metric on a
//! traced run; the per-workload meaning of each is documented in
//! `benchmark/README.md`.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_s", "s"), ("throughput", "ops/s"), ("peak_rss_mb", "MB")];

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.synth.ns_per_inst", "ns"),
    ("trace.rv.ns_per_inst", "ns"),
    ("core.for_benchmark_us", "us"),
    ("core.processor_new_us", "us"),
    ("core.run_ms", "ms"),
    ("core.ns_per_inst", "ns"),
    ("core.ns_per_stepped_cycle", "ns"),
    ("core.warp_ratio", "ratio"),
    ("core.warps", "count"),
    ("core.quiescent_steps", "count"),
    ("core.ipc", "inst/cycle"),
    ("core.fetch.useful_ratio", "ratio"),
    ("core.squashed_per_kinst", "count/kinst"),
    ("core.flushes_per_kinst", "count/kinst"),
    ("mem.dl1_load_miss_ratio", "ratio"),
    ("mem.l2_load_miss_ratio", "ratio"),
    ("mem.mshr_full_stalls", "count"),
    ("mem.mshr_coalesced", "count"),
    ("bpred.mispredict_ratio", "ratio"),
    ("campaign.expand_ms", "ms"),
    ("campaign.profile_ms", "ms"),
    ("campaign.search_s", "s"),
    ("campaign.measure_s", "s"),
    ("campaign.sched.workers", "count"),
    ("campaign.sched.cpu_util", "ratio"),
    ("campaign.jobs_in_run_hits", "count"),
    ("campaign.failed", "count"),
    ("campaign.retries", "count"),
    ("campaign.cache.key_us", "us"),
    ("campaign.cache.get_hit_us", "us"),
    ("campaign.cache.get_miss_us", "us"),
    ("campaign.cache.put_us", "us"),
    ("json.encode_us", "us"),
    ("json.decode_us", "us"),
    ("serve.healthz_p50_us", "us"),
    ("serve.cell_p50_us", "us"),
    ("serve.results_p50_ms", "ms"),
    ("serve.accept_p50_ms", "ms"),
    ("serve.resubmit_p50_ms", "ms"),
    ("serve.replicate_p50_us", "us"),
    ("serve.get_p50_ms", "ms"),
    ("serve.get_tail_ms", "ms"),
    ("serve.get_tail_pct", "percentile"),
    ("serve.get_samples", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.retries_503", "count"),
    ("serve.non_2xx", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Metric and span names: `[A-Za-z0-9_.-]+`, starting with a letter or
/// digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (failed jobs or cells, non-2xx
    /// requests, and output-check mismatches).
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable extras printed before the result line (sample
    /// counts, issue-named aliases of the generic metrics).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.failed += 1;
            eprintln!("output check failed: {}", what());
        }
    }
}

/// Render the result line for `expected` metrics, or explain which are
/// missing, non-finite, or badly named.
pub fn result_line(outcome: &Outcome, expected: &[(&str, &str)]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        if !valid_name(name) {
            return Err(format!("invalid metric name `{name}`"));
        }
        let value = *outcome.metrics.get(name).ok_or_else(|| format!("metric `{name}` missing"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite ({value})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        parts.join(", ")
    ))
}

/// Shortest round-trip decimal, always with a fractional part or
/// exponent so readers parse it as a float.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_pattern() {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
        assert!(valid_name("a.b-c_9"));
        for bad in ["", ".lead", "-lead", "sp ace", "slash/y", "quote\"", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    /// The tables must match the committed `BENCHMARK.json` exactly.
    #[test]
    fn tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = serde_json::from_str_value(text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut o = Outcome { attempted: 3, correct: true, ..Outcome::default() };
        assert!(result_line(&o, END_TO_END).unwrap_err().contains("setup_s"));
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, 1.5 + i as f64);
        }
        o.set("wall_s", 2.0);
        let line = result_line(&o, END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 2.0, \"unit\": \"s\"}"), "{line}");
        let parsed = serde_json::from_str_value(&line).expect("the result line is JSON");
        assert_eq!(parsed.get("metrics").and_then(|m| m.as_object()).unwrap().len(), 4);
        o.set("wall_s", f64::NAN);
        assert!(result_line(&o, END_TO_END).is_err());
    }
}
