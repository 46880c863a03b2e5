//! Order statistics and the result line.
//!
//! Percentiles are exact (nearest rank over the sorted samples), never
//! bucketed, so a reported time keeps every digit it was measured with.

use std::fmt::Write as _;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `[0, 1]`.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` and take its median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Percentile over weighted samples: each `(value, weight)` pair counts
/// `weight` times. Zero-weight samples are ignored.
pub fn weighted_percentile(samples: &mut [(f64, u64)], p: f64) -> f64 {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = samples.iter().map(|s| s.1).sum();
    if total == 0 {
        return 0.0;
    }
    let target = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for &(v, w) in samples.iter() {
        seen += w;
        if seen >= target {
            return v;
        }
    }
    samples.last().map_or(0.0, |s| s.0)
}

/// A metric name the result line may carry: starts with a letter or a
/// digit, at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        self.0.push((name, value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|m| m.0)
    }
}

/// Format a finite number for JSON with all its digits (non-finite
/// values cannot appear in JSON and are written as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Escape a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn weighted_percentile_counts_weights() {
        let mut s = vec![(5.0, 1), (1.0, 98), (9.0, 1)];
        assert_eq!(weighted_percentile(&mut s, 0.5), 1.0);
        assert_eq!(weighted_percentile(&mut s, 0.99), 5.0);
        assert_eq!(weighted_percentile(&mut s, 1.0), 9.0);
        assert_eq!(weighted_percentile(&mut [(4.0, 0)], 0.5), 0.0);
    }

    #[test]
    fn metric_names_and_units_are_checked() {
        for ok in [
            "setup_s",
            "engine.gate_ns_per_slot",
            "svc.feed_rtt_p99_ms",
            "9a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "ratio", "MB", "ns"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_json() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("setup_s", 0.5, "s");
        let line = result_line(true, 10, 0, &m);
        let v: serde::Value = serde_json::from_str(&line).expect("valid json");
        let at = |path: &[&str]| path.iter().try_fold(&v, |v, k| v.get(k)).cloned();
        assert_eq!(at(&["attempted"]), Some(serde::Value::U64(10)));
        assert_eq!(at(&["correct"]), Some(serde::Value::Bool(true)));
        assert_eq!(
            at(&["metrics", "latency_ms", "value"]),
            Some(serde::Value::F64(1.25))
        );
        assert_eq!(
            at(&["metrics", "setup_s", "unit"]),
            Some(serde::Value::Str("s".into()))
        );
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
