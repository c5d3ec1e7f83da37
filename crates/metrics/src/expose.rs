//! Prometheus text exposition format 0.0.4.
//!
//! One `# HELP` / `# TYPE` pair per family, one line per series, histogram
//! families expanded into cumulative `_bucket{le="..."}` series plus `_sum`
//! and `_count`.  Families render in name order and series in label order
//! (both maps are ordered at the source), so output is deterministic and a
//! family can never emit duplicate series.

use crate::{FamilySnapshot, HistogramSnapshot, MetricsSnapshot, SeriesValue};
use std::fmt::Write as _;

/// Escapes a HELP text: backslash and newline, per the format spec.
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double quote, newline.
fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats an `f64` the way Prometheus expects (`+Inf`, `-Inf`, `NaN`,
/// shortest round-trip decimal otherwise).
fn format_value(value: f64) -> String {
    if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if value.is_nan() {
        "NaN".to_string()
    } else {
        format!("{value}")
    }
}

/// Renders `{a="x",b="y"}` (empty string when there are no labels), with an
/// optional extra label appended (used for histogram `le`).
fn label_block(names: &[String], values: &[String], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = names
        .iter()
        .zip(values)
        .map(|(name, value)| format!("{name}=\"{}\"", escape_label_value(value)))
        .collect();
    if let Some((name, value)) = extra {
        pairs.push(format!("{name}=\"{}\"", escape_label_value(value)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn render_histogram(
    out: &mut String,
    family: &FamilySnapshot,
    label_values: &[String],
    histogram: &HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    for (bound, bucket) in histogram.bounds.iter().zip(&histogram.buckets) {
        cumulative += bucket;
        let labels = label_block(
            &family.label_names,
            label_values,
            Some(("le", &format_value(*bound))),
        );
        let _ = writeln!(out, "{}_bucket{labels} {cumulative}", family.name);
    }
    let labels = label_block(&family.label_names, label_values, Some(("le", "+Inf")));
    let _ = writeln!(out, "{}_bucket{labels} {}", family.name, histogram.count);
    let labels = label_block(&family.label_names, label_values, None);
    let _ = writeln!(
        out,
        "{}_sum{labels} {}",
        family.name,
        format_value(histogram.sum)
    );
    let _ = writeln!(out, "{}_count{labels} {}", family.name, histogram.count);
}

pub(crate) fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for family in &snapshot.families {
        let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
        let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
        for series in &family.series {
            match &series.value {
                SeriesValue::Counter(value) => {
                    let labels = label_block(&family.label_names, &series.label_values, None);
                    let _ = writeln!(out, "{}{labels} {value}", family.name);
                }
                SeriesValue::Gauge(value) => {
                    let labels = label_block(&family.label_names, &series.label_values, None);
                    let _ = writeln!(out, "{}{labels} {value}", family.name);
                }
                SeriesValue::Histogram(histogram) => {
                    render_histogram(&mut out, family, &series.label_values, histogram);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::MetricsRegistry;

    #[test]
    fn renders_help_type_and_series() {
        let registry = MetricsRegistry::new();
        registry.counter("plain_total", "A plain counter.").add(3);
        registry
            .counter_with_labels("labeled_total", "By path.", &[("path", "a")])
            .add(1);
        registry
            .counter_with_labels("labeled_total", "By path.", &[("path", "b")])
            .add(2);
        registry.gauge("depth", "A gauge.").set(-4);
        let text = registry.render_prometheus();
        assert!(text.contains("# HELP plain_total A plain counter.\n"));
        assert!(text.contains("# TYPE plain_total counter\n"));
        assert!(text.contains("plain_total 3\n"));
        assert!(text.contains("labeled_total{path=\"a\"} 1\n"));
        assert!(text.contains("labeled_total{path=\"b\"} 2\n"));
        assert!(text.contains("# TYPE depth gauge\n"));
        assert!(text.contains("depth -4\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf_sum_count() {
        let registry = MetricsRegistry::new();
        let histogram = registry.histogram("lat_seconds", "Latency.", &[0.5, 1.0]);
        histogram.observe(0.25);
        histogram.observe(0.75);
        histogram.observe(2.0);
        let text = registry.render_prometheus();
        assert!(text.contains("lat_seconds_bucket{le=\"0.5\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_seconds_sum 3\n"));
        assert!(text.contains("lat_seconds_count 3\n"));
    }

    #[test]
    fn escapes_help_and_label_values() {
        let registry = MetricsRegistry::new();
        registry
            .counter_with_labels(
                "esc_total",
                "line one\nback\\slash",
                &[("file", "a\"b\\c\nd")],
            )
            .inc();
        let text = registry.render_prometheus();
        assert!(text.contains("# HELP esc_total line one\\nback\\\\slash\n"));
        assert!(text.contains("esc_total{file=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }
}
