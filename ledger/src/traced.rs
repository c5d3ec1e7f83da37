//! `core.*` and `fetcher.*`: what one traced run of the workload's reader
//! operation says about where the reader's own time went.

use std::collections::BTreeMap;

use rgz_trace::{EventKind, MetricsReport, Stage, TraceSink};

use crate::op::ReaderRun;
use crate::stats;

/// Stages whose spans are one chunk decode each.
const CHUNK_DECODES: [Stage; 4] = [
    Stage::DecodeTwoStage,
    Stage::DecodeOneStage,
    Stage::PrefetchDecode,
    Stage::RandomAccess,
];

const BUSY_SHARES: [(&str, Stage); 9] = [
    ("core.block_find_busy_pct", Stage::BlockFind),
    ("core.decode_two_stage_busy_pct", Stage::DecodeTwoStage),
    ("core.decode_one_stage_busy_pct", Stage::DecodeOneStage),
    ("core.marker_replace_busy_pct", Stage::MarkerReplace),
    ("core.crc_fold_busy_pct", Stage::CrcFold),
    ("core.window_compress_busy_pct", Stage::WindowCompress),
    ("core.window_inflate_busy_pct", Stage::WindowInflate),
    ("core.prefetch_decode_busy_pct", Stage::PrefetchDecode),
    ("core.random_access_busy_pct", Stage::RandomAccess),
];

/// Chunk decodes of the traced run that sat on the client's critical path
/// (on-demand random-access decodes), for the seek workload's model.
pub fn on_demand_decodes(sink: &TraceSink) -> u64 {
    MetricsReport::from_sink(sink)
        .stages
        .get(Stage::RandomAccess.name())
        .map_or(0, |stage| stage.count)
}

/// Metrics of one traced reader run at `threads` worker threads.
///
/// Busy shares are percentages of `threads x trace wall`; nested spans (a window
/// inflate inside a prefetch decode) count in both of their stages, while
/// `core.unattributed_pct` uses each thread's span *union* and so counts
/// them once.
pub fn reader_metrics(
    sink: &TraceSink,
    run: &ReaderRun,
    threads: usize,
) -> BTreeMap<&'static str, f64> {
    let report = MetricsReport::from_sink(sink);
    // First to last trace event: workers may still be compressing windows
    // when the client's last read returns.
    let wall_us = (report.wall_us as f64).max(1.0);
    let capacity_us = threads as f64 * wall_us;
    let stage = |stage: Stage| report.stages.get(stage.name()).copied().unwrap_or_default();
    let mut metrics = BTreeMap::new();

    metrics.insert("core.traced_wall_ms", run.seconds * 1e3);
    for (name, busy) in BUSY_SHARES {
        metrics.insert(name, 100.0 * stage(busy).total_us as f64 / capacity_us);
    }
    let busy_us: u64 = report.threads.iter().map(|thread| thread.busy_us).sum();
    metrics.insert(
        "core.unattributed_pct",
        100.0 * (1.0 - busy_us as f64 / capacity_us),
    );
    let workers: Vec<f64> = report
        .threads
        .iter()
        .filter(|thread| thread.name.starts_with("rgz-worker"))
        .map(|thread| 100.0 * thread.busy_us as f64 / wall_us)
        .collect();
    metrics.insert(
        "core.worker_utilization_pct",
        workers.iter().sum::<f64>() / workers.len().max(1) as f64,
    );

    let decodes = CHUNK_DECODES.map(stage);
    metrics.insert(
        "core.chunk_decode_max_ms",
        decodes.iter().map(|s| s.max_us).max().unwrap_or(0) as f64 / 1e3,
    );
    metrics.insert(
        "core.chunk_decodes_per_op",
        decodes.iter().map(|s| s.count).sum::<u64>() as f64 / run.ops.max(1) as f64,
    );
    metrics.insert(
        "core.decoded_bytes_per_byte_read",
        decodes.iter().map(|s| s.bytes).sum::<u64>() as f64 / run.bytes.max(1) as f64,
    );
    metrics.insert(
        "core.chunks_speculative_used",
        run.statistics.speculative_chunks_used as f64,
    );
    metrics.insert(
        "core.chunks_on_demand",
        run.statistics.on_demand_chunks as f64,
    );
    metrics.insert(
        "core.chunks_wasted",
        run.statistics.speculative_chunks_wasted as f64,
    );
    metrics.insert(
        "core.speculation_waste_ratio",
        report.speculation.waste_ratio(),
    );
    metrics.insert("core.prefetch_hit_rate", report.prefetch.hit_rate());

    metrics.insert(
        "core.first_byte_ms",
        run.latencies.first().copied().unwrap_or(0.0) * 1e3,
    );
    let (percentile, tail) = stats::tail(&run.latencies);
    metrics.insert("core.read_tail_ms", tail * 1e3);
    metrics.insert("core.read_tail_percentile", percentile);

    // Time work waited for the pool: submit -> a worker picks it up.
    let waits: Vec<f64> = sink
        .snapshot()
        .iter()
        .flat_map(|track| &track.events)
        .filter_map(|event| match event.kind {
            EventKind::Span {
                stage: Stage::TaskWait,
                duration_us,
                ..
            } => Some(duration_us as f64),
            _ => None,
        })
        .collect();
    metrics.insert(
        "fetcher.tasks_submitted",
        run.statistics.pool_tasks_submitted as f64,
    );
    metrics.insert("fetcher.task_wait_ms", waits.iter().sum::<f64>() / 1e3);
    metrics.insert("fetcher.task_wait_tail_us", stats::tail(&waits).1);
    metrics
}
