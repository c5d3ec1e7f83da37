//! One clock per pipeline stage, read by both telemetry sinks.

use std::ops::{Deref, DerefMut};
use std::time::Instant;

use rgz_metrics::Histogram;
use rgz_trace::SpanGuard;

/// A stage's trace span and the latency histogram its duration goes to when
/// it ends, in seconds, whether or not the sink records.  Dereferences to the
/// span, for what the stage learns as it goes (`set_bytes`, `set_outcome`).
#[must_use = "a stage timer measures the scope it lives in"]
pub struct StageTimer<'a> {
    span: SpanGuard<'a>,
    histogram: Option<&'a Histogram>,
    started: Instant,
}

impl<'a> StageTimer<'a> {
    /// Starts timing the stage `span` was just opened for.
    pub fn start(span: SpanGuard<'a>, histogram: &'a Histogram) -> Self {
        Self {
            span,
            histogram: Some(histogram),
            started: Instant::now(),
        }
    }

    /// Ends the stage with its duration kept out of the histogram — a failure
    /// that should not pollute a latency distribution; the span is recorded.
    pub fn discard(mut self) {
        self.histogram = None;
    }
}

impl<'a> Deref for StageTimer<'a> {
    type Target = SpanGuard<'a>;

    fn deref(&self) -> &Self::Target {
        &self.span
    }
}

impl DerefMut for StageTimer<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.span
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if let Some(histogram) = self.histogram {
            histogram.observe(self.started.elapsed().as_secs_f64());
        }
    }
}
