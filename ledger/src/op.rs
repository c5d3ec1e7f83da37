//! The operations the ledger times — one reader run, one compressor run —
//! and the child process that repeats them for the end-to-end metrics.
//!
//! The timed phase of a workload runs in a child process (the binary
//! re-executes itself with `--child`), so its peak memory is that of the
//! workload's operations and nothing else.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rgz_checksum::Crc32;
use rgz_compress::{CompressedStream, ParallelCompressor, ParallelCompressorOptions};
use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions, ReaderStatistics};
use rgz_index::GzipIndex;
use rgz_io::SharedFileReader;

use crate::prepare::{Files, Manifest, RunOptions};
use crate::spec::{Kind, Workload, SEEK_READ_BYTES};
use crate::{heap, stats};

/// Where decompressed bytes go: counted, optionally hashed (the checked
/// warm-up runs), and time-stamped per `write` call so a run also yields
/// the latency of each of the reader's 1 MiB hand-overs.
pub struct Sink {
    bytes: u64,
    crc: Option<Crc32>,
    start: Instant,
    write_at: Vec<f64>,
}

impl Sink {
    pub fn counting() -> Self {
        Self {
            bytes: 0,
            crc: None,
            start: Instant::now(),
            write_at: Vec::new(),
        }
    }

    pub fn hashing() -> Self {
        Self {
            crc: Some(Crc32::new()),
            ..Self::counting()
        }
    }

    pub fn crc32(&self) -> Option<u32> {
        self.crc.as_ref().map(Crc32::finalize)
    }

    /// Time from the sink's creation to the first write, then between
    /// consecutive writes.
    fn latencies(&self) -> Vec<f64> {
        let mut previous = 0.0;
        self.write_at
            .iter()
            .map(|&at| {
                let gap = at - previous;
                previous = at;
                gap
            })
            .collect()
    }
}

impl Write for Sink {
    fn write(&mut self, buffer: &[u8]) -> std::io::Result<usize> {
        self.write_at.push(self.start.elapsed().as_secs_f64());
        if let Some(crc) = &mut self.crc {
            crc.update(buffer);
        }
        self.bytes += buffer.len() as u64;
        Ok(buffer.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One reader operation: whole-file decompression, or the seek sequence.
pub struct ReaderJob<'a> {
    pub gz: PathBuf,
    /// Read and import this index file inside the timed region.
    pub index: Option<PathBuf>,
    /// `(offset, expected CRC-32)` of each 64 KiB read; `None` decompresses
    /// the whole file instead.
    pub seeks: Option<&'a [(u64, u32)]>,
    pub options: ParallelGzipReaderOptions,
    pub length: u64,
    /// Hash the output and compare (the warm-up); timed runs check length
    /// and the reader's own verification counters only.
    pub crc32: Option<u32>,
    /// Gzip members the file holds, for the no-index verification check.
    pub members: u64,
}

pub struct ReaderRun {
    /// Before `open` to the return of the last read.
    pub seconds: f64,
    /// Bytes handed to the client.
    pub bytes: u64,
    /// Per client call: each seek + read, or each 1 MiB hand-over.
    pub latencies: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    pub statistics: ReaderStatistics,
}

/// Runs one reader operation.  `Err` is a failure to even start (missing
/// file, unreadable index); wrong output is counted in `failed`.
pub fn run_reader(job: &ReaderJob) -> Result<ReaderRun, String> {
    let mut sink = match job.crc32 {
        Some(_) => Sink::hashing(),
        None => Sink::counting(),
    };
    let start = Instant::now();
    let file = SharedFileReader::open(&job.gz).map_err(|e| e.to_string())?;
    let mut reader = match &job.index {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
            let index = GzipIndex::import(&bytes).map_err(|e| e.to_string())?;
            ParallelGzipReader::with_index(file, job.options.clone(), index)
        }
        None => ParallelGzipReader::new(file, job.options.clone()),
    }
    .map_err(|e| e.to_string())?;

    let mut run = ReaderRun {
        seconds: 0.0,
        bytes: 0,
        latencies: Vec::new(),
        ops: 0,
        failed: 0,
        statistics: ReaderStatistics::default(),
    };
    match job.seeks {
        Some(seeks) => {
            let open_seconds = start.elapsed().as_secs_f64();
            let mut buffer = vec![0u8; SEEK_READ_BYTES];
            for &(offset, expected) in seeks {
                let wanted = (job.length.saturating_sub(offset) as usize).min(SEEK_READ_BYTES);
                let op_start = Instant::now();
                let result = reader
                    .seek(SeekFrom::Start(offset))
                    .and_then(|_| reader.read_exact(&mut buffer[..wanted]));
                run.latencies.push(op_start.elapsed().as_secs_f64());
                run.ops += 1;
                match result {
                    Ok(()) if rgz_checksum::crc32(&buffer[..wanted]) == expected => {
                        run.bytes += wanted as u64;
                    }
                    Ok(()) => {
                        eprintln!("# wrong bytes read at offset {offset}");
                        run.failed += 1;
                    }
                    Err(error) => {
                        eprintln!("# seek+read at offset {offset} failed: {error}");
                        run.failed += 1;
                    }
                }
            }
            // The output checks above sit between the reads; leave them out.
            run.seconds = open_seconds + run.latencies.iter().sum::<f64>();
        }
        None => {
            let result = reader.decompress_to(&mut sink);
            run.seconds = start.elapsed().as_secs_f64();
            run.ops = 1;
            run.bytes = sink.bytes;
            run.latencies = sink.latencies();
            let verification = reader.verification_statistics();
            let verified = match &job.index {
                Some(_) => verification.index_chunks_unverified == 0,
                None => verification.members_verified == job.members,
            };
            let hash_ok = job.crc32.is_none() || sink.crc32() == job.crc32;
            match result {
                Ok(length) if length == job.length && verified && hash_ok => {}
                Ok(length) => {
                    eprintln!(
                        "# decompression check failed: {length} of {} bytes, verified={verified}, \
                         crc ok={hash_ok}",
                        job.length
                    );
                    run.failed = 1;
                }
                Err(error) => {
                    eprintln!("# decompression failed: {error}");
                    run.failed = 1;
                }
            }
        }
    }
    run.statistics = reader.statistics();
    Ok(run)
}

/// Operations attempted and failed so far.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, ops: u64, failed: u64) {
        self.ops += ops;
        self.failed += failed;
    }

    pub fn merge(&mut self, other: Tally) {
        self.add(other.ops, other.failed);
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.add(1, u64::from(!ok));
        if !ok {
            eprintln!("# check failed: {what}");
        }
    }

    /// Runs a reader job and counts its operations.
    pub fn reader(&mut self, job: &ReaderJob) -> Result<ReaderRun, String> {
        let run = run_reader(job)?;
        self.add(run.ops, run.failed);
        Ok(run)
    }
}

/// The job of a workload's own reader operation over its set-up files.
pub fn reader_job<'a>(
    kind: Kind,
    files: &Files,
    manifest: &'a Manifest,
    options: ParallelGzipReaderOptions,
    check_crc: bool,
) -> ReaderJob<'a> {
    ReaderJob {
        gz: files.gz(),
        index: (kind != Kind::Sequential).then(|| files.index()),
        seeks: (kind == Kind::Seek).then_some(&manifest.seeks[..]),
        options,
        length: manifest.length,
        crc32: check_crc.then_some(manifest.crc32),
        members: 1,
    }
}

/// One timed `ParallelCompressor` run (defaults, pigz layout) including the
/// construction of its worker pool.
pub fn run_compress(data: &Arc<[u8]>, threads: usize) -> (f64, CompressedStream) {
    let start = Instant::now();
    let compressor = ParallelCompressor::new(ParallelCompressorOptions {
        parallelization: threads,
        ..Default::default()
    });
    let stream = compressor.compress_shared(Arc::clone(data));
    (start.elapsed().as_secs_f64(), stream)
}

/// Round-trips compressor output: through `ParallelGzipReader` with the
/// emitted index, and through the system `gzip -t` when there is one.
pub fn check_compressed(
    stream: &CompressedStream,
    files: &Files,
    manifest: &Manifest,
    options: ParallelGzipReaderOptions,
    tally: &mut Tally,
) -> Result<(), String> {
    let (out, out_index) = (files.compressed_out(), files.compressed_out_index());
    std::fs::write(&out, &stream.bytes).map_err(|e| e.to_string())?;
    std::fs::write(&out_index, stream.index.export()).map_err(|e| e.to_string())?;
    tally.reader(&ReaderJob {
        gz: out.clone(),
        index: Some(out_index),
        seeks: None,
        options,
        length: manifest.length,
        crc32: Some(manifest.crc32),
        members: stream.members as u64,
    })?;
    match std::process::Command::new("gzip")
        .arg("-t")
        .arg(&out)
        .status()
    {
        Ok(status) => tally.check(status.success(), "gzip -t of the compressor's output"),
        Err(_) => eprintln!("# note: no system gzip, `gzip -t` round trip skipped"),
    }
    Ok(())
}

/// Peak resident set of this process so far in MB, for the child's note on
/// standard error; `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Timed operations behind each thread count's figure, at the least (2
/// under `--smoke`).
pub const MIN_REPS: usize = 5;

/// Timed operations at `P` threads for each one at one thread.  A parallel
/// run shares two cores between three busy threads and moves 10-25%
/// (quartile distance over median) from one operation to the next, a
/// one-thread run 4-8%, so the parallel figure gets twice the samples.
const AT_P_PER_ROUND: usize = 2;

fn megabytes_per_second(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-9)
}

/// The workload's operation in the child: knows how to run it once, checked
/// or timed, at a thread count.
struct Operation<'a> {
    workload: &'a Workload,
    files: &'a Files,
    manifest: &'a Manifest,
    options: &'a RunOptions,
    /// The compress workload's input.
    plain: Option<Arc<[u8]>>,
    /// `(bytes, members)` of the compressor's checked output.
    compressed: Option<(usize, usize)>,
    tally: Tally,
}

impl Operation<'_> {
    fn job(&self, threads: usize, check_crc: bool) -> ReaderJob<'_> {
        reader_job(
            self.workload.kind,
            self.files,
            self.manifest,
            self.options.reader(threads),
            check_crc,
        )
    }

    /// The untimed warm-up: output fully checked, live heap bytes counted.
    /// Returns the peak in MB.
    fn warm_up(&mut self, threads: usize) -> Result<f64, String> {
        let mut tally = Tally::default();
        let (result, peak_mb) = heap::measure(|| match &self.plain {
            Some(plain) => {
                let (_, stream) = run_compress(plain, threads);
                tally.add(1, 0);
                let reader = self.options.reader(threads);
                check_compressed(&stream, self.files, self.manifest, reader, &mut tally)?;
                Ok(Some((stream.bytes.len(), stream.members)))
            }
            None => {
                let mut job = self.job(threads, true);
                // A quarter of the seek pass is five tours of the chunks:
                // the cache is as full as it gets.
                job.seeks = job.seeks.map(|seeks| &seeks[..seeks.len() / 4]);
                tally.reader(&job).map(|_| None)
            }
        });
        self.tally.merge(tally);
        self.compressed = result?.or(self.compressed);
        Ok(peak_mb)
    }

    /// Seek workload at one thread: read `index` of the pass alone, on a
    /// reader of its own.
    fn cold_read(&self, index: usize) -> ReaderJob<'_> {
        let mut job = self.job(1, false);
        job.seeks = job.seeks.map(|seeks| &seeks[index..=index]);
        job
    }

    /// One timed whole-file operation; seconds.
    fn timed(&mut self, threads: usize) -> Result<f64, String> {
        match &self.plain {
            Some(plain) => {
                let (seconds, stream) = run_compress(plain, threads);
                // The compressor is deterministic, so the checked warm-up
                // vouches for any run of the same length and member count.
                self.tally.check(
                    Some((stream.bytes.len(), stream.members)) == self.compressed,
                    "compressor output changed between runs",
                );
                Ok(seconds)
            }
            None => {
                let run = run_reader(&self.job(threads, false))?;
                self.tally.add(run.ops, run.failed);
                Ok(run.seconds)
            }
        }
    }
}

/// The latency figure of a workload: the median operation.  About half of
/// the seek workload's reads find their chunk cached or prefetched, so its
/// median falls between a ~0.01 ms hit and a ~40 ms miss and flips with the
/// hit count; its third quartile is a read that decoded a chunk (p90 is
/// one that also fought the prefetch workers for a core, and moves more).
fn op_latency(kind: Kind, op_seconds: &[f64]) -> f64 {
    match kind {
        Kind::Seek => {
            stats::percentile(op_seconds, 75.0).unwrap_or_else(|| stats::median(op_seconds))
        }
        _ => stats::median(op_seconds),
    }
}

/// The child process: after one checked warm-up per thread count, times the
/// workload's operation at `P` threads and at one thread in alternating
/// rounds — so a drift of the machine reaches both figures alike — for at
/// least [`MIN_REPS`] rounds and `seconds` seconds, and returns one JSON line
/// for the parent.
pub fn child_e2e(
    workload: &Workload,
    files: &Files,
    options: &RunOptions,
    seconds: f64,
) -> Result<String, String> {
    let manifest = Manifest::load(files)?;
    let plain = match workload.kind {
        Kind::Compress => Some(Arc::from(
            std::fs::read(files.plain()).map_err(|e| e.to_string())?,
        )),
        _ => None,
    };
    let mut operation = Operation {
        workload,
        files,
        manifest: &manifest,
        options,
        plain,
        compressed: None,
        tally: Tally::default(),
    };
    let thread_counts = [options.threads, 1];
    let seek = workload.kind == Kind::Seek;
    let mut peak_heap_mb = 0.0f64;
    for threads in thread_counts {
        // Every timed read of the seek workload is itself checked, and at one
        // thread each has a reader of its own: nothing to warm up there.
        if !(seek && threads == 1) {
            peak_heap_mb = peak_heap_mb.max(operation.warm_up(threads)?);
        }
    }

    // Seconds of each operation and the MB/s they amount to, at `P` and at 1.
    let mut op_seconds = [Vec::new(), Vec::new()];
    let mut throughput_mb_s = [0.0; 2];
    if seek {
        // At `P` threads one pass on one reader; every read is a sample of
        // the latency, every tour of the file's chunks one of the rate.
        let pass = run_reader(&operation.job(options.threads, false))?;
        operation.tally.add(pass.ops, pass.failed);
        let tours: Vec<f64> = pass
            .latencies
            .chunks_exact(manifest.tour.max(1))
            .map(|tour| tour.iter().sum())
            .collect();
        let bytes_per_tour = pass.bytes / tours.len().max(1) as u64;
        throughput_mb_s[0] = megabytes_per_second(bytes_per_tour, stats::median(&tours));
        op_seconds[0] = pass.latencies;
        // At one thread a pass takes 6.8 to 11 s from one run to the next: a
        // read queues behind whatever the single worker is prefetching, and
        // every disturbance of the machine lengthens that queue.  So the
        // one-thread figure is the cold read — open, import, seek, read —
        // which decodes exactly one chunk every time.
        for index in 0..manifest.seeks.len() / 4 {
            let read = run_reader(&operation.cold_read(index))?;
            operation.tally.add(read.ops, read.failed);
            op_seconds[1].push(read.seconds);
        }
        throughput_mb_s[1] =
            megabytes_per_second(SEEK_READ_BYTES as u64, stats::median(&op_seconds[1]));
    } else {
        let min_rounds = if options.smoke { 2 } else { MIN_REPS };
        let start = Instant::now();
        while op_seconds[1].len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
            for _ in 0..AT_P_PER_ROUND {
                op_seconds[0].push(operation.timed(options.threads)?);
            }
            op_seconds[1].push(operation.timed(1)?);
        }
        for slot in 0..2 {
            throughput_mb_s[slot] =
                megabytes_per_second(manifest.length, stats::median(&op_seconds[slot]));
        }
    }
    for slot in 0..2 {
        if let Some(summary) = stats::summary(&op_seconds[slot]) {
            eprintln!(
                "# {} threads={}: n={} median {:.3} ms (q1 {:.3}, q3 {:.3}), {:.1} MB/s",
                workload.name,
                thread_counts[slot],
                summary.count,
                summary.median * 1e3,
                summary.q1 * 1e3,
                summary.q3 * 1e3,
                throughput_mb_s[slot]
            );
        }
    }
    // This process has done nothing but the operations.
    if let Some(resident) = peak_rss_mb() {
        eprintln!(
            "# {}: peak live heap of a warm-up {peak_heap_mb:.1} MB, VmHWM {resident:.1} MB",
            workload.name
        );
    }
    Ok(format!(
        "{{\"ops\":{},\"failed\":{},\"throughput_mb_s\":{},\"throughput_p1_mb_s\":{},\
         \"op_latency_ms\":{},\"compressed_bytes\":{},\"peak_heap_mb\":{}}}",
        operation.tally.ops,
        operation.tally.failed,
        throughput_mb_s[0],
        throughput_mb_s[1],
        op_latency(workload.kind, &op_seconds[0]) * 1e3,
        operation.compressed.map_or(0, |(bytes, _)| bytes),
        peak_heap_mb,
    ))
}
