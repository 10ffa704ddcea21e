//! Metric names, units and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("sim_ios_per_s", "1/s"),
    ("slice_ms.p50", "ms"),
    ("slice_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("checkpoint_ms.p50", "ms"),
];

/// Per-layer metrics from the traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("device.advance.calls", "count"),
    ("device.advance.idle_frac", "ratio"),
    ("device.advance.s", "s"),
    ("device.advance.ns_per_call", "ns"),
    ("device.events_per_io", "calls/io"),
    ("device.submit.calls", "count"),
    ("device.submit.s", "s"),
    ("device.next_event.calls", "count"),
    ("device.next_event.s", "s"),
    ("device.power_w.calls", "count"),
    ("device.power_w.s", "s"),
    ("device.control.calls", "count"),
    ("io.runner.s", "s"),
    ("io.runner.self_s", "s"),
    ("cluster.run_to.s", "s"),
    ("cluster.self_s", "s"),
    ("cluster.self_ns_per_io", "ns"),
    ("control.rebalance_rounds", "count"),
    ("control.replans", "count"),
    ("place.migrations", "count"),
    ("place.migration_bytes", "bytes"),
    ("snap.snapshot.s", "s"),
    ("snap.resume.s", "s"),
    ("snap.bytes", "bytes"),
    ("obs.events", "count"),
    ("obs.overhead_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Whether `name` is a valid metric name: a letter or digit, then at most
/// 63 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Orders `values` as `table` lists them, pairing each with its unit.
///
/// # Panics
///
/// Panics if `values` misses a metric of `table`: every run reports every
/// metric.
pub fn in_order(
    table: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} not computed"))
                .1;
            (name, unit, v)
        })
        .collect()
}

/// The benchmark's last output line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        debug_assert!(valid_name(name), "bad metric name {name:?}");
        let sep = if i == 0 { "" } else { ", " };
        // Debug formatting keeps every digit and is valid JSON for finite values.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names listed in one section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let text = std::fs::read_to_string("../BENCHMARK.json").unwrap();
        let start = text.find(&format!("\"{section}\"")).unwrap();
        let body = &text[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn names_follow_the_grammar_and_are_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        for bad in ["", ".a", "_a", "a b", "a/b", "é", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("slice_ms.p90") && valid_name("9-a"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let names = |t: &[(&str, &str)]| t.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
        assert_eq!(listed("end_to_end"), names(&END_TO_END));
        assert_eq!(listed("per_layer"), names(&PER_LAYER));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            10,
            0,
            &[
                ("wall_s", "s", 1.25),
                ("setup_s", "s", 1e-5),
                ("x", "count", 3.0),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 1e-5, \"unit\": \"s\"}, \
             \"x\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
