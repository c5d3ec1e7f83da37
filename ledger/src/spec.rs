//! What the ledger measures: the five workloads and the metric tables.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions (plus the regression bounds, which live only there);
//! `tests/ledger_smoke.rs` holds the two in agreement.

/// The operation a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sequential decompression without an index: block finder, two-stage
    /// decode and marker replacement all run.
    Sequential,
    /// Read index file + import + sequential decompression through it.
    Indexed,
    /// Seeded uniform-random `seek` + 64 KiB `read_exact` through an index.
    Seek,
    /// `ParallelCompressor` over the plain corpus.
    Compress,
}

/// Which `rgz_datagen` generator makes the workload's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    Silesia,
    Base64,
    Fastq,
}

impl Corpus {
    pub fn generate(self, bytes: usize, seed: u64) -> Vec<u8> {
        match self {
            Corpus::Silesia => rgz_datagen::silesia_like(bytes, seed),
            Corpus::Base64 => rgz_datagen::base64_random(bytes, seed),
            Corpus::Fastq => rgz_datagen::fastq_of_size(bytes, seed),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub corpus: Corpus,
    /// Uncompressed corpus size.  Every decompression corpus compresses to
    /// 12 default (4 MiB) chunks or more, `silesia_like` to just that; the
    /// set-up compressor (~20-30 MB/s) and the contract's time cap rule out
    /// the 128-192 MiB the issue first asked for.
    pub bytes: usize,
    /// Corpus size under `--smoke`.
    pub smoke_bytes: usize,
    /// Set-ups per run; `setup_s` is their median.  The four decompression
    /// set-ups take 4-6 s of single-threaded compression each, which is
    /// steady on its own and too long to repeat inside the time cap.
    pub setups: usize,
}

const MIB: usize = 1 << 20;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "silesia_seq",
        kind: Kind::Sequential,
        corpus: Corpus::Silesia,
        bytes: 152 * MIB,
        smoke_bytes: MIB,
        setups: 1,
    },
    Workload {
        name: "base64_seq",
        kind: Kind::Sequential,
        corpus: Corpus::Base64,
        bytes: 96 * MIB,
        smoke_bytes: MIB,
        setups: 1,
    },
    Workload {
        name: "fastq_indexed",
        kind: Kind::Indexed,
        corpus: Corpus::Fastq,
        bytes: 128 * MIB,
        smoke_bytes: MIB,
        setups: 1,
    },
    Workload {
        name: "silesia_seek",
        kind: Kind::Seek,
        corpus: Corpus::Silesia,
        bytes: 152 * MIB,
        smoke_bytes: MIB,
        setups: 1,
    },
    Workload {
        name: "fastq_compress",
        kind: Kind::Compress,
        corpus: Corpus::Fastq,
        bytes: 8 * MIB,
        smoke_bytes: MIB / 2,
        setups: 3,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Bytes of one seek workload read.
pub const SEEK_READ_BYTES: usize = 64 * 1024;

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Repeats exactly for one seed: a count or a ratio of counts.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        exact: true,
    }
}

/// What a user of the system sees.  Every workload reports every one.
pub const END_TO_END: [Metric; 6] = [
    timed("throughput_mb_s", "MB/s"),
    timed("throughput_p1_mb_s", "MB/s"),
    timed("op_latency_ms", "ms"),
    exact("compressed_size_ratio", "ratio"),
    timed("peak_heap_mb", "MB"),
    timed("setup_s", "s"),
];

/// Single layers, `<crate without rgz_>.<name>`.  Every workload reports
/// every one; a layer the workload's operation bypasses is still timed from
/// outside on the workload's bytes, and a counter of work that did not
/// happen reads 0.
pub const PER_LAYER: [Metric; 57] = [
    timed("blockfinder.scan_mb_s", "MB/s"),
    exact("blockfinder.bytes_to_first_block", "bytes"),
    exact("blockfinder.false_candidates_per_chunk", "count"),
    timed("deflate.inflate_two_stage_mb_s", "MB/s"),
    exact("deflate.marker_symbol_ratio", "ratio"),
    exact("deflate.last_marker_offset_kib", "KiB"),
    timed("deflate.replace_markers_mb_s", "MB/s"),
    timed("deflate.inflate_one_stage_mb_s", "MB/s"),
    exact("deflate.fast_fallback_block_ratio", "ratio"),
    timed("deflate.compress_chunk_mb_s", "MB/s"),
    timed("checksum.crc32_mb_s", "MB/s"),
    timed("gzip.serial_decompress_mb_s", "MB/s"),
    timed("io.read_range_mb_s", "MB/s"),
    timed("index.import_ms", "ms"),
    timed("index.export_ms", "ms"),
    exact("index.seek_points", "count"),
    exact("index.bytes_per_seek_point", "bytes"),
    timed("window.get_cold_us", "us"),
    timed("window.get_hot_us", "us"),
    timed("window.insert_sparse_us", "us"),
    exact("window.stored_bytes_per_window", "bytes"),
    timed("core.traced_wall_ms", "ms"),
    timed("core.block_find_busy_pct", "%"),
    timed("core.decode_two_stage_busy_pct", "%"),
    timed("core.decode_one_stage_busy_pct", "%"),
    timed("core.marker_replace_busy_pct", "%"),
    timed("core.crc_fold_busy_pct", "%"),
    timed("core.window_compress_busy_pct", "%"),
    timed("core.window_inflate_busy_pct", "%"),
    timed("core.prefetch_decode_busy_pct", "%"),
    timed("core.random_access_busy_pct", "%"),
    timed("core.unattributed_pct", "%"),
    timed("core.worker_utilization_pct", "%"),
    timed("core.chunk_decode_max_ms", "ms"),
    timed("core.chunks_speculative_used", "count"),
    timed("core.chunks_on_demand", "count"),
    timed("core.chunks_wasted", "count"),
    timed("core.speculation_waste_ratio", "ratio"),
    timed("core.prefetch_hit_rate", "ratio"),
    timed("core.chunk_decodes_per_op", "count"),
    timed("core.decoded_bytes_per_byte_read", "ratio"),
    timed("core.trace_overhead_ratio", "ratio"),
    timed("core.first_byte_ms", "ms"),
    timed("core.read_tail_ms", "ms"),
    exact("core.read_tail_percentile", "%"),
    timed("core.speedup_vs_serial", "ratio"),
    timed("core.parallel_efficiency", "ratio"),
    timed("core.model_residual_pct", "%"),
    timed("fetcher.tasks_submitted", "count"),
    timed("fetcher.task_wait_ms", "ms"),
    timed("fetcher.task_wait_tail_us", "us"),
    exact("compress.members", "count"),
    exact("compress.index_bytes", "bytes"),
    timed("cli.mb_s", "MB/s"),
    timed("cli.overhead_pct", "%"),
    timed("baselines.pugz_mb_s", "MB/s"),
    timed("baselines.system_gzip_mb_s", "MB/s"),
];
