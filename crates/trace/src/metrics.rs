//! Aggregated metrics derived from a recorded trace.
//!
//! [`MetricsReport::from_sink`] folds every recorded event into per-stage
//! wall-time histograms (p50/p95/p99), per-thread utilization, a speculation
//! waste summary, and a prefetch hit-rate summary.  The report renders three
//! ways: human-readable text (`--trace-report`), a JSON object
//! (`--trace-report=json`), and a flat `String -> f64` map that `rgz_bench`
//! embeds in its `--json` reports so `perf_compare` can gate on stage-level
//! numbers.

use crate::{escape_json, EventKind, Outcome, Stage, TraceSink};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Instant-event names with agreed-upon semantics. Emitted by `rgz_core`,
/// consumed here; kept public so instrumentation sites and tests share one
/// spelling.
pub mod instants {
    /// A speculative decode task was submitted to the pool.
    pub const SPEC_SUBMIT: &str = "spec_submit";
    /// A speculative chunk was committed to the output stream (`bytes` =
    /// uncompressed size).
    pub const SPEC_COMMIT: &str = "spec_commit";
    /// A speculative chunk was discarded (`bytes` = uncompressed bytes
    /// decoded in vain).
    pub const SPEC_WASTE: &str = "spec_waste";
    /// A chunk issued as a speculative decode found its exact start and
    /// window known when its task began, decoded one-stage, and was
    /// committed (`bytes` = uncompressed size).
    pub const WINDOW_KNOWN_COMMIT: &str = "window_known_commit";
    /// A speculative decode under way was handed its window, the pass having
    /// arrived at the block it started from (`bytes` = symbols it had decoded
    /// as 16-bit by then).
    pub const WINDOW_HANDED: &str = "window_handed";
    /// An index-aligned prefetch decode was issued.
    pub const PREFETCH_ISSUE: &str = "prefetch_issue";
    /// A random-access read was served from a prefetched chunk.
    pub const PREFETCH_HIT: &str = "prefetch_hit";
    /// A random-access read decoded on demand (no prefetched chunk).
    pub const PREFETCH_MISS: &str = "prefetch_miss";
    /// A random-access read decoded a slice of its chunk, between interior
    /// points (`bytes` = the slice's).
    pub const INDEX_SLICE: &str = "index_slice";
    /// A prefetched chunk was evicted before being read.
    pub const PREFETCH_EVICT: &str = "prefetch_evict";
}

/// Latency/volume summary for one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSummary {
    /// Closed spans recorded for this stage.
    pub count: u64,
    /// Sum of span durations (µs). Overlapping spans on different threads
    /// both count, so this can exceed wall time.
    pub total_us: u64,
    /// Median span duration (µs).
    pub p50_us: u64,
    /// 95th-percentile span duration (µs).
    pub p95_us: u64,
    /// 99th-percentile span duration (µs).
    pub p99_us: u64,
    /// Longest span duration (µs).
    pub max_us: u64,
    /// Sum of the `bytes` payloads attached to spans of this stage.
    pub bytes: u64,
    /// Spans that ended [`Outcome::Wasted`].
    pub wasted: u64,
    /// Spans that ended [`Outcome::Fallback`].
    pub fallback: u64,
    /// Spans that ended [`Outcome::Error`].
    pub errors: u64,
}

/// Busy-time summary for one recording thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSummary {
    /// Thread name (e.g. `rgz-worker-3`).
    pub name: String,
    /// Microseconds covered by at least one non-`task_wait` span on this
    /// thread (overlapping spans are unioned, so nesting cannot inflate it).
    pub busy_us: u64,
    /// `busy_us` as a percentage of the trace wall time.
    pub utilization_pct: f64,
}

/// Speculative-decode accounting, from `spec_commit` / `spec_waste` instants.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpeculationSummary {
    /// Speculative decode tasks submitted to the pool.
    pub submitted: u64,
    /// Speculative chunks whose output was committed.
    pub committed_chunks: u64,
    /// Uncompressed bytes committed from speculative decodes.
    pub committed_bytes: u64,
    /// Chunks submitted as speculative decodes that decoded one-stage
    /// instead, their start and window known by the time they began.
    pub window_known_chunks: u64,
    /// Speculative chunks decoded but discarded.
    pub wasted_chunks: u64,
    /// Uncompressed bytes decoded in vain.
    pub wasted_bytes: u64,
}

impl SpeculationSummary {
    /// Fraction of speculatively decoded bytes that were thrown away.
    pub fn waste_ratio(&self) -> f64 {
        let total = self.committed_bytes + self.wasted_bytes;
        if total == 0 {
            0.0
        } else {
            self.wasted_bytes as f64 / total as f64
        }
    }
}

/// Index-aligned prefetch accounting, from `prefetch_*` instants.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrefetchSummary {
    /// Prefetch decode tasks issued.
    pub issued: u64,
    /// Random-access reads served from a prefetched chunk.
    pub hits: u64,
    /// Random-access reads that had to decode on demand.
    pub misses: u64,
    /// Prefetched chunks evicted unread.
    pub evictions: u64,
}

impl PrefetchSummary {
    /// Fraction of random-access reads served from prefetched chunks.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Everything [`MetricsReport::from_sink`] aggregates out of a trace.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// First-event → last-event span of the trace (µs).
    pub wall_us: u64,
    /// One entry per recording thread, in track registration order.
    pub threads: Vec<ThreadSummary>,
    /// Per-stage summaries, only for stages that recorded at least one span.
    pub stages: BTreeMap<&'static str, StageSummary>,
    /// Speculation accounting.
    pub speculation: SpeculationSummary,
    /// Prefetch accounting.
    pub prefetch: PrefetchSummary,
}

impl MetricsReport {
    /// Aggregates everything recorded in `sink` so far.
    pub fn from_sink(sink: &TraceSink) -> MetricsReport {
        let tracks = sink.snapshot();
        let mut report = MetricsReport::default();
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut trace_start = u64::MAX;
        let mut trace_end = 0u64;
        let mut busy_intervals: Vec<Vec<(u64, u64)>> = Vec::with_capacity(tracks.len());

        for track in &tracks {
            let mut intervals = Vec::new();
            for event in &track.events {
                match event.kind {
                    EventKind::Span {
                        stage,
                        start_us,
                        duration_us,
                        outcome,
                    } => {
                        let end = start_us + duration_us;
                        trace_start = trace_start.min(start_us);
                        trace_end = trace_end.max(end);
                        let summary = report.stages.entry(stage.name()).or_default();
                        summary.count += 1;
                        summary.total_us += duration_us;
                        summary.max_us = summary.max_us.max(duration_us);
                        summary.bytes += event.meta.bytes.unwrap_or(0);
                        match outcome {
                            Outcome::Wasted => summary.wasted += 1,
                            Outcome::Fallback => summary.fallback += 1,
                            Outcome::Error => summary.errors += 1,
                            _ => {}
                        }
                        durations.entry(stage.name()).or_default().push(duration_us);
                        if stage != Stage::TaskWait {
                            intervals.push((start_us, end));
                        }
                    }
                    EventKind::Instant { name, at_us } => {
                        trace_start = trace_start.min(at_us);
                        trace_end = trace_end.max(at_us);
                        let bytes = event.meta.bytes.unwrap_or(0);
                        match name {
                            instants::SPEC_SUBMIT => report.speculation.submitted += 1,
                            instants::SPEC_COMMIT => {
                                report.speculation.committed_chunks += 1;
                                report.speculation.committed_bytes += bytes;
                            }
                            instants::SPEC_WASTE => {
                                report.speculation.wasted_chunks += 1;
                                report.speculation.wasted_bytes += bytes;
                            }
                            instants::WINDOW_KNOWN_COMMIT => {
                                report.speculation.window_known_chunks += 1;
                            }
                            instants::PREFETCH_ISSUE => report.prefetch.issued += 1,
                            instants::PREFETCH_HIT => report.prefetch.hits += 1,
                            instants::PREFETCH_MISS => report.prefetch.misses += 1,
                            instants::PREFETCH_EVICT => report.prefetch.evictions += 1,
                            _ => {}
                        }
                    }
                }
            }
            busy_intervals.push(intervals);
        }

        report.wall_us = trace_end.saturating_sub(if trace_start == u64::MAX {
            trace_end
        } else {
            trace_start
        });

        for (stage, mut samples) in durations {
            samples.sort_unstable();
            let summary = report.stages.get_mut(stage).expect("stage seen above");
            summary.p50_us = percentile(&samples, 50.0);
            summary.p95_us = percentile(&samples, 95.0);
            summary.p99_us = percentile(&samples, 99.0);
        }

        for (track, intervals) in tracks.iter().zip(busy_intervals) {
            let busy_us = union_length(intervals);
            let utilization_pct = if report.wall_us == 0 {
                0.0
            } else {
                100.0 * busy_us as f64 / report.wall_us as f64
            };
            report.threads.push(ThreadSummary {
                name: track.name.clone(),
                busy_us,
                utilization_pct,
            });
        }

        report
    }

    /// Human-readable rendering, one stage per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {:.3} s wall, {} thread(s)",
            self.wall_us as f64 / 1e6,
            self.threads.len()
        );
        let _ = writeln!(
            out,
            "  {:<18} {:>8} {:>10} {:>8} {:>8} {:>8} {:>12}",
            "stage", "count", "total_ms", "p50_us", "p95_us", "p99_us", "bytes"
        );
        for (name, stage) in &self.stages {
            let mut flags = String::new();
            if stage.wasted > 0 {
                let _ = write!(flags, " wasted={}", stage.wasted);
            }
            if stage.fallback > 0 {
                let _ = write!(flags, " fallback={}", stage.fallback);
            }
            if stage.errors > 0 {
                let _ = write!(flags, " errors={}", stage.errors);
            }
            let _ = writeln!(
                out,
                "  {:<18} {:>8} {:>10.2} {:>8} {:>8} {:>8} {:>12}{}",
                name,
                stage.count,
                stage.total_us as f64 / 1e3,
                stage.p50_us,
                stage.p95_us,
                stage.p99_us,
                stage.bytes,
                flags
            );
        }
        for thread in &self.threads {
            let _ = writeln!(
                out,
                "  thread {:<16} busy {:>8.2} ms  utilization {:>5.1}%",
                thread.name,
                thread.busy_us as f64 / 1e3,
                thread.utilization_pct
            );
        }
        let _ = writeln!(
            out,
            "  speculation: {} submitted, {} committed ({} B), {} decoded window-known, \
             {} wasted ({} B), waste ratio {:.1}%",
            self.speculation.submitted,
            self.speculation.committed_chunks,
            self.speculation.committed_bytes,
            self.speculation.window_known_chunks,
            self.speculation.wasted_chunks,
            self.speculation.wasted_bytes,
            100.0 * self.speculation.waste_ratio()
        );
        let _ = writeln!(
            out,
            "  prefetch: {} issued, {} hits, {} misses, {} evicted, hit rate {:.1}%",
            self.prefetch.issued,
            self.prefetch.hits,
            self.prefetch.misses,
            self.prefetch.evictions,
            100.0 * self.prefetch.hit_rate()
        );
        out
    }

    /// Renders the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"wall_us\":{}", self.wall_us);
        out.push_str(",\"threads\":[");
        for (index, thread) in self.threads.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"busy_us\":{},\"utilization_pct\":{}}}",
                escape_json(&thread.name),
                thread.busy_us,
                format_f64(thread.utilization_pct)
            );
        }
        out.push_str("],\"stages\":{");
        for (index, (name, stage)) in self.stages.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"total_us\":{},\"p50_us\":{},\"p95_us\":{},\
                 \"p99_us\":{},\"max_us\":{},\"bytes\":{},\"wasted\":{},\"fallback\":{},\
                 \"errors\":{}}}",
                stage.count,
                stage.total_us,
                stage.p50_us,
                stage.p95_us,
                stage.p99_us,
                stage.max_us,
                stage.bytes,
                stage.wasted,
                stage.fallback,
                stage.errors
            );
        }
        let _ = write!(
            out,
            "}},\"speculation\":{{\"submitted\":{},\"committed_chunks\":{},\
             \"committed_bytes\":{},\"window_known_chunks\":{},\"wasted_chunks\":{},\
             \"wasted_bytes\":{},\"waste_ratio\":{}}}",
            self.speculation.submitted,
            self.speculation.committed_chunks,
            self.speculation.committed_bytes,
            self.speculation.window_known_chunks,
            self.speculation.wasted_chunks,
            self.speculation.wasted_bytes,
            format_f64(self.speculation.waste_ratio())
        );
        let _ = write!(
            out,
            ",\"prefetch\":{{\"issued\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"hit_rate\":{}}}",
            self.prefetch.issued,
            self.prefetch.hits,
            self.prefetch.misses,
            self.prefetch.evictions,
            format_f64(self.prefetch.hit_rate())
        );
        out.push('}');
        out
    }

    /// Flattens the report into bench-style `name -> f64` metrics
    /// (`<stage>_count`, `<stage>_total_us`, `<stage>_p95_us`, plus
    /// `wall_us`, `utilization_pct`, `speculation_waste_ratio`,
    /// `prefetch_hit_rate`).
    pub fn flat_metrics(&self) -> BTreeMap<String, f64> {
        let mut metrics = BTreeMap::new();
        metrics.insert("wall_us".to_owned(), self.wall_us as f64);
        for (name, stage) in &self.stages {
            metrics.insert(format!("{name}_count"), stage.count as f64);
            metrics.insert(format!("{name}_total_us"), stage.total_us as f64);
            metrics.insert(format!("{name}_p95_us"), stage.p95_us as f64);
        }
        let mean_utilization = if self.threads.is_empty() {
            0.0
        } else {
            self.threads
                .iter()
                .map(|thread| thread.utilization_pct)
                .sum::<f64>()
                / self.threads.len() as f64
        };
        metrics.insert("utilization_pct".to_owned(), mean_utilization);
        metrics.insert(
            "speculation_waste_ratio".to_owned(),
            self.speculation.waste_ratio(),
        );
        metrics.insert("prefetch_hit_rate".to_owned(), self.prefetch.hit_rate());
        metrics
    }
}

/// Nearest-rank percentile over an ascending-sorted sample set.
fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Total length of the union of (possibly overlapping / nested) intervals.
fn union_length(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((cur_start, cur_end)) if start <= cur_end => {
                current = Some((cur_start, cur_end.max(end)));
            }
            Some((cur_start, cur_end)) => {
                total += cur_end - cur_start;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((start, end)) = current {
        total += end - start;
    }
    total
}

/// JSON-safe float rendering (no NaN/inf, stable shortest-ish form).
fn format_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventMeta;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 95.0), 95);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn union_length_merges_nested_and_overlapping() {
        assert_eq!(union_length(vec![(0, 10), (2, 5)]), 10);
        assert_eq!(union_length(vec![(0, 10), (5, 15)]), 15);
        assert_eq!(union_length(vec![(0, 10), (20, 30)]), 20);
        assert_eq!(union_length(vec![]), 0);
    }

    #[test]
    fn report_aggregates_spans_and_instants() {
        let sink = TraceSink::new_enabled();
        for chunk in 0..4u64 {
            let mut span = sink.span(Stage::DecodeOneStage).chunk(chunk);
            span.set_bytes(1000);
            if chunk == 3 {
                span.set_outcome(Outcome::Fallback);
            }
        }
        sink.instant(
            instants::SPEC_COMMIT,
            EventMeta {
                bytes: Some(900),
                ..EventMeta::default()
            },
        );
        sink.instant(
            instants::SPEC_WASTE,
            EventMeta {
                bytes: Some(100),
                ..EventMeta::default()
            },
        );
        sink.instant(instants::PREFETCH_HIT, EventMeta::default());
        sink.instant(instants::PREFETCH_MISS, EventMeta::default());

        let report = MetricsReport::from_sink(&sink);
        let stage = report.stages["decode_one_stage"];
        assert_eq!(stage.count, 4);
        assert_eq!(stage.bytes, 4000);
        assert_eq!(stage.fallback, 1);
        assert_eq!(report.speculation.committed_bytes, 900);
        assert_eq!(report.speculation.wasted_bytes, 100);
        assert!((report.speculation.waste_ratio() - 0.1).abs() < 1e-9);
        assert!((report.prefetch.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(report.threads.len(), 1);

        let json = report.to_json();
        assert!(json.contains("\"decode_one_stage\""));
        assert!(json.contains("\"waste_ratio\":0.100000"));
        let text = report.render_text();
        assert!(text.contains("decode_one_stage"));
        assert!(text.contains("hit rate 50.0%"));

        let flat = report.flat_metrics();
        assert_eq!(flat["decode_one_stage_count"], 4.0);
        assert!((flat["speculation_waste_ratio"] - 0.1).abs() < 1e-9);
    }
}
