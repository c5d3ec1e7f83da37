//! Chrome trace-event JSON exporter.
//!
//! Emits the "JSON array format" understood by Perfetto and
//! `chrome://tracing`: one `M` (metadata) event naming each thread track,
//! then `X` (complete) events for spans and `i` for instants.  Timestamps
//! and durations are microseconds since the trace epoch, which is what the
//! format expects.

use crate::{escape_json, EventKind, EventMeta, TraceSink};
use std::fmt::Write as _;

/// Process id used for every event; the trace covers a single process.
const PID: u64 = 1;

/// Renders everything recorded in `sink` so far as a Chrome trace JSON array.
pub fn chrome_trace_json(sink: &TraceSink) -> String {
    let tracks = sink.snapshot();
    let mut out = String::from("[");
    let mut first = true;
    let mut push = |event: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&event);
    };

    push(
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\
             \"args\":{{\"name\":\"rgzip\"}}}}"
        ),
        &mut out,
    );

    for track in &tracks {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                track.tid,
                escape_json(&track.name)
            ),
            &mut out,
        );
    }

    for track in &tracks {
        for event in &track.events {
            let rendered = match event.kind {
                EventKind::Span {
                    stage,
                    start_us,
                    duration_us,
                    outcome,
                } => {
                    let mut args = meta_args(&event.meta);
                    push_arg(&mut args, "outcome", &format!("\"{}\"", outcome.name()));
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{start_us},\"dur\":{duration_us},\
                         \"pid\":{PID},\"tid\":{},\"args\":{{{args}}}}}",
                        stage.name(),
                        track.tid,
                    )
                }
                EventKind::Instant { name, at_us } => {
                    let args = meta_args(&event.meta);
                    format!(
                        "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{at_us},\"pid\":{PID},\
                         \"tid\":{},\"s\":\"t\",\"args\":{{{args}}}}}",
                        track.tid,
                    )
                }
            };
            push(rendered, &mut out);
        }
    }

    out.push_str("\n]\n");
    out
}

fn push_arg(args: &mut String, key: &str, rendered_value: &str) {
    if !args.is_empty() {
        args.push(',');
    }
    let _ = write!(args, "\"{key}\":{rendered_value}");
}

fn meta_args(meta: &EventMeta) -> String {
    let mut args = String::new();
    if let Some(chunk) = meta.chunk {
        push_arg(&mut args, "chunk", &chunk.to_string());
    }
    if let Some(member) = meta.member {
        push_arg(&mut args, "member", &member.to_string());
    }
    if let Some((start, end)) = meta.compressed_range {
        push_arg(&mut args, "compressed_start", &start.to_string());
        push_arg(&mut args, "compressed_end", &end.to_string());
    }
    if let Some(bytes) = meta.bytes {
        push_arg(&mut args, "bytes", &bytes.to_string());
    }
    if let Some(marker_bytes) = meta.marker_bytes {
        push_arg(&mut args, "marker_bytes", &marker_bytes.to_string());
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Outcome, Stage};

    #[test]
    fn emits_metadata_and_span_events() {
        let sink = TraceSink::new_enabled();
        {
            let mut span = sink.span(Stage::MarkerReplace).chunk(8).member(0);
            span.set_bytes(1024);
            span.set_outcome(Outcome::Committed);
        }
        sink.instant(
            "spec_commit",
            EventMeta {
                chunk: Some(8),
                bytes: Some(1024),
                ..EventMeta::default()
            },
        );

        let json = chrome_trace_json(&sink);
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"marker_replace\",\"ph\":\"X\""));
        assert!(json.contains("\"outcome\":\"committed\""));
        assert!(json.contains("\"chunk\":8"));
        assert!(json.contains("\"name\":\"spec_commit\",\"ph\":\"i\""));
    }

    #[test]
    fn empty_sink_is_still_a_valid_array() {
        let sink = TraceSink::new();
        let json = chrome_trace_json(&sink);
        assert!(json.contains("process_name"));
        assert!(json.trim_end().ends_with(']'));
    }
}
