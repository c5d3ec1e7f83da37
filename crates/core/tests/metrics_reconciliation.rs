//! Pins the three observability surfaces to each other: the reader's own
//! [`ReaderStatistics`], the live metrics registry, and the trace-derived
//! [`MetricsReport`] must all be views of the same underlying events.
//!
//! Every counter the reader tracks has a registry twin incremented at the
//! same program point, so after the pool quiesces the registry snapshot must
//! reproduce `statistics()` **exactly** — not approximately.

mod common;

use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{chunk_table, FirstChunkHeldBack};

use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions, ReaderStatistics};
use rgz_datagen::base64_random;
use rgz_gzip::GzipWriter;
use rgz_io::SharedFileReader;
use rgz_metrics::{names, MetricsRegistry, MetricsSnapshot, SeriesValue};
use rgz_trace::{MetricsReport, TraceSink};

fn compressed_corpus() -> (Vec<u8>, Vec<u8>) {
    let data = base64_random(512 * 1024, 7);
    let compressed = GzipWriter::default().compress(&data);
    (data, compressed)
}

fn options(registry: &Arc<MetricsRegistry>) -> ParallelGzipReaderOptions {
    let mut options = ParallelGzipReaderOptions::with_parallelization(4).with_chunk_size(32 * 1024);
    options = options.with_metrics(Arc::clone(registry));
    options
}

/// The decodes a reader of four workers issues ahead of its first chunk,
/// each of which reads its range at least once.
const LATER_READS: usize = 8;

/// Waits until no task is queued or running on the reader's pool, so gauge
/// comparisons cannot race in-flight window-compression tasks.
fn quiesce(reader: &ParallelGzipReader) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let statistics = reader.statistics();
        if statistics.pool_queue_depth == 0 && statistics.pool_tasks_inflight == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "worker pool did not quiesce");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn sequential_statistics_match_registry_snapshot() {
    let (data, compressed) = compressed_corpus();
    assert!(compressed.len() > (LATER_READS + 1) * 32 * 1024);
    let registry = Arc::new(MetricsRegistry::new());
    // Some chunks are to be decoded speculatively, for the counters of that.
    let held_back = FirstChunkHeldBack::shared(compressed, LATER_READS);
    let mut reader = ParallelGzipReader::new(held_back, options(&registry)).unwrap();

    let mut restored = Vec::new();
    reader.read_to_end(&mut restored).unwrap();
    assert_eq!(restored, data);
    quiesce(&reader);

    let snapshot = registry.snapshot();
    let statistics = reader.statistics();
    let reconstructed = ReaderStatistics::from_metrics_snapshot(&snapshot);
    assert_eq!(reconstructed, statistics);
    assert!(statistics.speculative_chunks_used > 0, "{statistics:?}");

    // Every seek point is a chunk some path decoded.
    assert_eq!(
        statistics.speculative_chunks_used
            + statistics.window_known_chunks
            + statistics.on_demand_chunks,
        reader.index().block_map.len() as u64
    );
    // Every byte of a committed speculative chunk was decoded either as a
    // 16-bit marker symbol or, after the switch, as a plain byte.
    assert!(statistics.speculative_bytes_u16 > 0);
    assert_eq!(
        snapshot.counter_total(names::SPECULATIVE_BYTES),
        statistics.speculative_bytes_u16 + statistics.speculative_bytes_u8
    );
    // Committed output bytes must account for every decompressed byte.
    assert_eq!(snapshot.counter_total(names::BYTES_OUT), data.len() as u64);
    // The stream verifier's member count is mirrored into the labeled
    // verification counter.
    assert_eq!(
        snapshot.counter(names::VERIFICATION, &[("outcome", "member_verified")]),
        Some(reader.verification_statistics().members_verified),
    );
    // The instrumented input reader saw at least the whole compressed file.
    assert!(snapshot.counter_total(names::READ_BYTES) >= reader.index().compressed_size);

    // The buffer pool writes to the registry and nowhere else (nothing of it
    // is in `ReaderStatistics`, which the equality above pins to the
    // snapshot): every decode — of each chunk committed, each wasted — took a
    // compressed-range buffer, every chunk's output a byte buffer.  (Not every
    // task issued decodes: one that starts after the chunk before has run
    // past its whole range has nothing to do.)
    let takes = |kind: &str| -> u64 {
        ["reused", "fresh"]
            .iter()
            .filter_map(|result| {
                let labels = [("kind", kind), ("result", *result)];
                snapshot.counter(names::BUFFER_POOL_TAKES, &labels)
            })
            .sum()
    };
    let decodes = statistics.speculative_chunks_used
        + statistics.window_known_chunks
        + statistics.on_demand_chunks
        + statistics.speculative_chunks_wasted;
    assert!(takes("range") >= decodes, "{statistics:?}");
    assert!(takes("u16") >= statistics.speculative_chunks_used);
    assert!(takes("u8") >= statistics.speculative_chunks_used + statistics.on_demand_chunks);
    assert_eq!(
        snapshot.counter_total(names::BUFFER_POOL_TAKES),
        takes("range") + takes("u16") + takes("u8")
    );
    assert!(snapshot.gauge(names::BUFFER_POOL_IDLE_BYTES, &[]).unwrap() > 0);
}

#[test]
fn random_access_statistics_match_registry_snapshot() {
    let (data, compressed) = compressed_corpus();
    // First pass without metrics builds the index.
    let plain = ParallelGzipReaderOptions::with_parallelization(4).with_chunk_size(32 * 1024);
    let mut first = ParallelGzipReader::from_bytes(compressed.clone(), plain).unwrap();
    std::io::copy(&mut first, &mut std::io::sink()).unwrap();
    let index = first.index();

    let registry = Arc::new(MetricsRegistry::new());
    let mut reader = ParallelGzipReader::with_index(
        SharedFileReader::from_bytes(compressed),
        options(&registry),
        index,
    )
    .unwrap();

    // A sequential sweep plus a few scattered seeks exercises the index fast
    // path, the index-aligned prefetcher, and the window store.
    let mut buffer = vec![0u8; 48 * 1024];
    for &offset in &[0u64, 300 * 1024, 64 * 1024, 450 * 1024, 128 * 1024] {
        reader.seek(SeekFrom::Start(offset)).unwrap();
        let count = reader.read(&mut buffer).unwrap();
        assert_eq!(
            &buffer[..count],
            &data[offset as usize..offset as usize + count]
        );
    }
    quiesce(&reader);

    let snapshot = registry.snapshot();
    let statistics = reader.statistics();
    assert!(statistics.index_chunks > 0, "index fast path not exercised");
    let reconstructed = ReaderStatistics::from_metrics_snapshot(&snapshot);
    assert_eq!(reconstructed, statistics);
}

#[test]
fn trace_report_counters_match_registry_snapshot() {
    let (_, compressed) = compressed_corpus();
    let registry = Arc::new(MetricsRegistry::new());
    let trace = Arc::new(TraceSink::new_enabled());
    let mut reader = ParallelGzipReader::from_bytes(
        compressed,
        options(&registry).with_trace(Arc::clone(&trace)),
    )
    .unwrap();

    std::io::copy(&mut reader, &mut std::io::sink()).unwrap();
    // Revisit the start through the index fast path for prefetch events.
    reader.seek(SeekFrom::Start(0)).unwrap();
    let mut buffer = vec![0u8; 64 * 1024];
    let _ = reader.read(&mut buffer).unwrap();
    quiesce(&reader);

    let report = MetricsReport::from_sink(&trace);
    let snapshot = registry.snapshot();
    let counter = |name: &str, labels: &[(&str, &str)]| snapshot.counter(name, labels).unwrap_or(0);

    // Trace instants and registry counters are recorded at the same program
    // points; the aggregations must therefore agree exactly.
    assert_eq!(
        report.speculation.submitted,
        counter(names::PREFETCH_ISSUED, &[("kind", "speculative")]),
    );
    assert_eq!(
        report.speculation.committed_chunks,
        counter(names::CHUNKS_DECODED, &[("path", "speculative")]),
    );
    assert_eq!(
        report.speculation.window_known_chunks,
        counter(names::CHUNKS_DECODED, &[("path", "window_known")]),
    );
    assert_eq!(
        report.speculation.wasted_chunks,
        counter(names::CHUNKS_WASTED, &[])
    );
    assert_eq!(
        report.speculation.wasted_bytes,
        counter(names::BYTES_WASTED, &[])
    );
    assert_eq!(
        report.prefetch.issued,
        counter(names::PREFETCH_ISSUED, &[("kind", "index")]),
    );
    assert_eq!(report.prefetch.hits, counter(names::PREFETCH_HITS, &[]));
}

/// Every series of `snapshot` with its counter's or gauge's value or its
/// histogram's count.
fn series(snapshot: &MetricsSnapshot) -> Vec<(&str, &[String], i128)> {
    let families = snapshot.families.iter();
    families
        .flat_map(|family| {
            family.series.iter().map(|series| {
                let value = match &series.value {
                    SeriesValue::Counter(value) => i128::from(*value),
                    SeriesValue::Gauge(value) => i128::from(*value),
                    SeriesValue::Histogram(histogram) => i128::from(histogram.count),
                };
                (family.name.as_str(), &series.label_values[..], value)
            })
        })
        .collect()
}

#[test]
fn a_reader_without_a_registry_counts_what_one_with_a_registry_counts() {
    // Enough chunks for the second read to find the first ones gone from the
    // access cache.
    let data = rgz_datagen::fastq_records(20_000, 3);
    let compressed = GzipWriter::default().compress(&data);
    let plain = ParallelGzipReaderOptions::with_parallelization(1).with_chunk_size(32 * 1024);
    let registry = Arc::new(MetricsRegistry::new());
    let attached = plain.clone().with_metrics(Arc::clone(&registry));
    let [own, shared] = [plain.clone(), attached.clone()].map(|options| {
        let mut reader = ParallelGzipReader::from_bytes(compressed.clone(), options).unwrap();
        let mut restored = Vec::new();
        reader.read_to_end(&mut restored).unwrap();
        assert_eq!(restored, data);
        // Back through the index the pass has built: prefetches, hits, and
        // chunks checked against the fragments it stored.
        reader.seek(SeekFrom::Start(0)).unwrap();
        reader.read_to_end(&mut restored).unwrap();
        quiesce(&reader);
        reader
    });
    let statistics = own.statistics();
    assert!(statistics.window_known_chunks > 0, "{statistics:?}");
    assert!(statistics.index_prefetch_hits > 0, "{statistics:?}");
    assert!(statistics.index_chunks_verified > 0, "{statistics:?}");
    // Which way a chunk was decoded depends on who got where first, the
    // caller's thread or the worker; how many were, and were checked, does not.
    let invariant = |statistics: ReaderStatistics| {
        [
            statistics.on_demand_chunks + statistics.window_known_chunks,
            statistics.speculative_chunks_used + statistics.speculative_chunks_wasted,
            statistics.index_chunks,
            statistics.index_chunks_verified,
            statistics.index_chunks_unverified,
        ]
    };
    let chunks = own.index().block_map.len() as u64;
    assert_eq!(invariant(statistics), [chunks, 0, chunks, chunks, 0]);
    assert_eq!(invariant(statistics), invariant(shared.statistics()));
    assert_eq!(
        format!("{:?}", own.verification_statistics()),
        format!("{:?}", shared.verification_statistics())
    );
    // The reader's own registry is a registry like the one attached: where
    // its statistics come from, no field set aside, and where the layers
    // below it count — under the same series.
    assert!(Arc::ptr_eq(shared.metrics(), &registry));
    assert!(!Arc::ptr_eq(own.metrics(), &registry));
    let [own_snapshot, shared_snapshot] = [&own, &shared].map(|reader| {
        let snapshot = reader.metrics().snapshot();
        assert_eq!(
            ReaderStatistics::from_metrics_snapshot(&snapshot),
            reader.statistics()
        );
        snapshot
    });
    let named = |snapshot| -> Vec<_> {
        let series = series(snapshot).into_iter();
        series.map(|(name, labels, _)| (name, labels)).collect()
    };
    assert_eq!(named(&own_snapshot), named(&shared_snapshot));
    for snapshot in [&own_snapshot, &shared_snapshot] {
        let total = |name| snapshot.counter_total(name);
        assert_eq!(total(names::BYTES_OUT), 2 * data.len() as u64);
        assert!(total(names::POOL_TASKS_TOTAL) >= chunks);
        assert!(total(names::READ_BYTES) >= 2 * compressed.len() as u64);
        assert_eq!(
            snapshot.gauge(names::WINDOW_STORE_WINDOWS, &[]),
            Some(chunks as i64)
        );
    }

    // Through an index there is no such race — which chunks one worker is
    // asked to prefetch, and which of them a read finds, is the strategy's
    // doing alone — and the two count the same to the last series: pool
    // tasks, reads of the input and window-store gauges included.
    let index = own.index().export();
    let attached = plain.clone().with_metrics(Arc::default());
    let [own, shared] = [plain, attached].map(|options| {
        let file = SharedFileReader::from_bytes(compressed.clone());
        let index = rgz_index::GzipIndex::import(&index).unwrap();
        let mut reader = ParallelGzipReader::with_index(file, options, index).unwrap();
        let mut buffer = vec![0u8; 40_000];
        for offset in [0u64, 40_000, 80_000, 900_000, 300_000, 340_000, 0] {
            reader.seek(SeekFrom::Start(offset)).unwrap();
            reader.read_exact(&mut buffer).unwrap();
            assert!(buffer[..] == data[offset as usize..][..buffer.len()]);
        }
        quiesce(&reader);
        reader
    });
    assert_eq!(own.statistics(), shared.statistics());
    assert!(own.statistics().pool_tasks_submitted > 0);
    // The buffer pool's aside, which tell a recycled buffer from a fresh one
    // by who gave which back first.
    let [own, shared] = [&own, &shared].map(|reader| reader.metrics().snapshot());
    let unscheduled = |snapshot| -> Vec<_> {
        let all = series(snapshot).into_iter();
        all.filter(|(name, _, _)| !name.starts_with("rgz_buffer_pool"))
            .collect()
    };
    assert_eq!(unscheduled(&own), unscheduled(&shared));
}

#[test]
fn a_jump_heavy_readers_slices_are_counted_once_on_every_surface() {
    use rgz_trace::{instants, EventKind, Stage};
    // Text that compresses some twentyfold, so that a chunk of 64 KiB of it
    // is over a MiB of output and holds an interior seek point.
    let block = base64_random(24_000, 11);
    let mut data = Vec::new();
    for round in 0..500 {
        data.extend_from_slice(&block);
        data.extend_from_slice(&base64_random(1000, 100 + round));
    }
    let compressed = GzipWriter::default().compress(&data);
    let plain = ParallelGzipReaderOptions::with_parallelization(2).with_chunk_size(64 * 1024);
    let index = ParallelGzipReader::from_bytes(compressed.clone(), plain.clone())
        .unwrap()
        .build_full_index()
        .unwrap();
    let index = chunk_table(&index, 64 * 1024);
    let starts: Vec<u64> = index
        .block_map
        .points()
        .iter()
        .map(|point| point.uncompressed_offset)
        .collect();
    // Few enough for the interior points of all to be held at once.
    assert!((6..=8).contains(&starts.len()), "{} chunks", starts.len());

    let registry = Arc::new(MetricsRegistry::new());
    let trace = Arc::new(TraceSink::new_enabled());
    let options = plain
        .with_metrics(Arc::clone(&registry))
        .with_trace(Arc::clone(&trace));
    let file = SharedFileReader::from_bytes(compressed);
    let mut reader = ParallelGzipReader::with_index(file, options, index).unwrap();
    // Every chunk's first touch takes it whole, last to first, which leaves
    // the first four in the access cache; the jumps after, to and fro between
    // two of the others, decode a slice each; and a read that goes on past
    // its slice, the chunk.
    let mut buffer = vec![0u8; 30_000];
    let last = starts.len() - 1;
    let jumps = (0..10).map(|jump| starts[last - 2 * (jump % 2)]);
    for (round, chunk) in starts.iter().rev().copied().chain(jumps).enumerate() {
        let offset = chunk + [100, 1_100_000][round / 2 % 2];
        reader.seek(SeekFrom::Start(offset)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
        assert!(buffer[..] == data[offset as usize..][..buffer.len()]);
    }
    reader.read_exact(&mut vec![0u8; 1_500_000]).unwrap();
    quiesce(&reader);

    let statistics = reader.statistics();
    let snapshot = registry.snapshot();
    assert_eq!(
        ReaderStatistics::from_metrics_snapshot(&snapshot),
        statistics
    );
    assert_eq!(statistics.index_slices, 10, "{statistics:?}");
    let counter = |name: &str, labels: &[(&str, &str)]| snapshot.counter(name, labels).unwrap_or(0);
    // A v3 index: every slice was hashed against CRCs taken from its chunk.
    assert_eq!(
        counter(names::INDEX_SLICES, &[("checked", "yes")]),
        statistics.index_slices
    );
    assert_eq!(counter(names::INDEX_SLICES, &[("checked", "no")]), 0);
    // The trace tells the same story, instant by instant...
    let slices: Vec<u64> = trace
        .snapshot()
        .iter()
        .flat_map(|track| &track.events)
        .filter(|event| matches!(event.kind, EventKind::Instant { name, .. } if name == instants::INDEX_SLICE))
        .map(|event| event.meta.bytes.unwrap())
        .collect();
    assert_eq!(slices.len() as u64, statistics.index_slices);
    assert_eq!(slices.iter().sum::<u64>(), statistics.index_slice_bytes);
    // ...and a slice is none of the things a whole chunk is: not an index
    // chunk — those were each a prefetch's or a decode for want of one — and
    // neither verified nor unverified again.
    let report = MetricsReport::from_sink(&trace);
    assert_eq!(
        statistics.index_chunks,
        report.prefetch.hits + report.prefetch.misses
    );
    assert_eq!(statistics.index_chunks_verified, statistics.index_chunks);
    assert_eq!(statistics.index_chunks_unverified, 0);
    // The reader's own thread decoded what no prefetch had: chunks and slices.
    let on_this_thread = report.stages[Stage::RandomAccess.name()];
    assert_eq!(
        on_this_thread.count,
        report.prefetch.misses + statistics.index_slices
    );
    let out = counter(names::BYTES_OUT, &[]);
    assert!(on_this_thread.bytes <= out + statistics.index_slice_bytes);
    assert!(statistics.index_slice_bytes < statistics.index_slices * 1_200_000);
}
