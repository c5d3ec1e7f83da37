//! Chunk-parallel gzip compression with index-at-compress-time.
//!
//! The read path reconstructs member boundaries, seek points and CRC
//! fragments *after the fact* by decoding the stream; the write path knows
//! all of them up front.  This crate fans independent input chunks across
//! the [`rgz_fetcher::ThreadPool`], encodes each with the shared
//! [`rgz_deflate`] compressor (which keeps its match finder and token buffer
//! per worker thread), and stitches the results into one of two container
//! layouts:
//!
//! * **Pigz-style** ([`ContainerFormat::Pigz`]) — multi-member gzip.  Each
//!   member holds `member_size` input bytes compressed as several
//!   independent chunks separated by empty stored blocks (pigz's sync
//!   marker, which is also what makes the members friendly to the
//!   speculative block finder).  The member trailer CRC-32 is folded from
//!   the chunk CRCs with [`crc32_combine`], so no thread ever hashes bytes
//!   it did not compress.
//! * **BGZF-style** ([`ContainerFormat::Bgzf`]) — fixed 64 KiB-input blocks,
//!   each a complete gzip member carrying the `BC` extra subfield, closed by
//!   the canonical EOF block.
//!
//! Because members are compressed independently, every seek point starts
//! with an empty window; the emitted [`GzipIndex`] is therefore complete
//! (seek points, per-span CRC fragments, stream sizes) the moment
//! compression finishes and exports losslessly as index v3 — random access
//! through it is verified from the first read, no sequential pass needed.

use std::sync::Arc;

use rgz_bitio::BitWriter;
use rgz_checksum::{crc32, crc32_combine};
pub use rgz_deflate::CompressionLevel;
use rgz_deflate::{write_stored_block, CompressorOptions, DeflateCompressor};
use rgz_fetcher::ThreadPool;
use rgz_gzip::bgzf::{write_bgzf_member, BGZF_HEADER_SIZE, MAX_BGZF_INPUT_BLOCK};
use rgz_gzip::{GzipFooter, GzipHeader, BGZF_EOF_BLOCK, OS_UNIX};
use rgz_index::{GzipIndex, PointChecksums, SeekPoint};
use rgz_metrics::{exponential_buckets, names, Counter, Histogram, MetricsRegistry};

/// Serialized size of the minimal gzip header pigz-style members use.
const PIGZ_HEADER_SIZE: usize = 10;

/// Container layout of the compressed output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContainerFormat {
    /// Multi-member gzip with empty-stored-block sync points, like `pigz`
    /// with `--independent`.
    #[default]
    Pigz,
    /// Blocked GNU Zip Format: 64 KiB-input members with the `BC` extra
    /// subfield, like `bgzip`.
    Bgzf,
}

/// Options controlling a [`ParallelCompressor`].
#[derive(Debug, Clone)]
pub struct ParallelCompressorOptions {
    /// Match-finding effort (chain depth, lazy evaluation).
    pub level: CompressionLevel,
    /// Output container layout.
    pub container: ContainerFormat,
    /// Input bytes per parallel work unit.  In pigz mode this is also the
    /// spacing of the empty stored sync blocks inside a member; in BGZF mode
    /// it is rounded down to a whole number of 64 KiB blocks per seek point.
    pub chunk_size: usize,
    /// Input bytes per gzip member (pigz mode only).  Rounded up to a whole
    /// number of chunks per member; also the seek-point spacing.
    pub member_size: usize,
    /// Worker threads; 0 means one per available core.
    pub parallelization: usize,
    /// MTIME field of the emitted gzip headers (0 keeps output
    /// deterministic).
    pub modification_time: u32,
}

impl Default for ParallelCompressorOptions {
    fn default() -> Self {
        Self {
            level: CompressionLevel::Default,
            container: ContainerFormat::Pigz,
            chunk_size: 128 * 1024,
            member_size: 2 * 1024 * 1024,
            parallelization: 0,
            modification_time: 0,
        }
    }
}

/// The result of a parallel compression run.
#[derive(Debug)]
pub struct CompressedStream {
    /// The complete gzip/BGZF file contents.
    pub bytes: Vec<u8>,
    /// A complete native index (seek points, CRC fragments, stream sizes)
    /// captured during compression; exports losslessly as index v3.
    pub index: GzipIndex,
    /// Number of gzip members written (including the BGZF EOF block).
    pub members: usize,
    /// Number of independently compressed chunks.
    pub chunks: usize,
}

/// Registry handles for the write path: on the pool's registry, unless one
/// is attached with [`ParallelCompressor::with_metrics`].
struct CompressMetrics {
    chunks: Counter,
    members: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    encode_seconds: Histogram,
}

impl CompressMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        Self {
            chunks: registry.counter(
                names::COMPRESS_CHUNKS,
                "Independently compressed chunks written",
            ),
            members: registry.counter(
                names::COMPRESS_MEMBERS,
                "Gzip members written (including the BGZF EOF block)",
            ),
            bytes_in: registry.counter(
                names::COMPRESS_BYTES_IN,
                "Uncompressed input bytes consumed",
            ),
            bytes_out: registry.counter(
                names::COMPRESS_BYTES_OUT,
                "Compressed container bytes produced (headers and trailers included)",
            ),
            encode_seconds: registry.histogram(
                names::COMPRESS_ENCODE_SECONDS,
                "Worker-side chunk/span encode latency in seconds",
                &exponential_buckets(0.000_1, 4.0, 10),
            ),
        }
    }
}

/// A chunk-parallel gzip/BGZF compressor.
pub struct ParallelCompressor {
    options: ParallelCompressorOptions,
    pool: Arc<ThreadPool>,
    metrics: CompressMetrics,
}

/// One compressed chunk coming back from a worker.
struct EncodedChunk {
    bytes: Vec<u8>,
    crc32: u32,
    length: u64,
}

/// One compressed BGZF span (a run of complete BGZF members).
struct EncodedSpan {
    bytes: Vec<u8>,
    /// Per-member `(crc32, input length)` pairs, in stream order.
    blocks: Vec<(u32, u64)>,
}

impl ParallelCompressor {
    /// Creates a compressor with its own thread pool.
    pub fn new(options: ParallelCompressorOptions) -> Self {
        let threads = if options.parallelization == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            options.parallelization
        };
        Self::with_pool(options, Arc::new(ThreadPool::new(threads)))
    }

    /// Creates a compressor on a caller-provided pool (shared with other
    /// pipelines, e.g. a reader's).
    pub fn with_pool(options: ParallelCompressorOptions, pool: Arc<ThreadPool>) -> Self {
        assert!(options.chunk_size > 0, "chunk_size must be non-zero");
        assert!(options.member_size > 0, "member_size must be non-zero");
        Self {
            options,
            metrics: CompressMetrics::register(pool.metrics()),
            pool,
        }
    }

    /// Attaches a metrics registry: chunk/member counts, input/output byte
    /// totals and worker-side encode latency are recorded on it instead of
    /// the pool's.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = CompressMetrics::register(registry);
        self
    }

    /// The effective options.
    pub fn options(&self) -> &ParallelCompressorOptions {
        &self.options
    }

    /// Compresses `data`, returning the container bytes plus the index
    /// captured along the way.
    pub fn compress(&self, data: &[u8]) -> CompressedStream {
        self.compress_shared(Arc::from(data))
    }

    /// Like [`ParallelCompressor::compress`] but takes shared ownership, so
    /// large inputs are not copied into the worker closures.
    pub fn compress_shared(&self, data: Arc<[u8]>) -> CompressedStream {
        match self.options.container {
            ContainerFormat::Pigz => self.compress_pigz(data),
            ContainerFormat::Bgzf => self.compress_bgzf(data),
        }
    }

    /// Pigz-style layout: members of `member_size` input bytes, each a run
    /// of independently compressed chunks glued by empty stored blocks, with
    /// one seek point per member.
    fn compress_pigz(&self, data: Arc<[u8]>) -> CompressedStream {
        let chunk_size = self.options.chunk_size;
        let member_size = self.options.member_size.max(chunk_size);
        let total = data.len();
        let member_count = total.div_ceil(member_size).max(1);
        let compressor_options = self.deflate_options(chunk_size);

        // Submit every chunk before collecting anything: the stitch below
        // waits in stream order while workers keep draining the queue.
        let mut members = Vec::with_capacity(member_count);
        for member in 0..member_count {
            let member_start = member * member_size;
            let member_end = (member_start + member_size).min(total);
            let mut handles = Vec::new();
            let mut start = member_start;
            loop {
                let end = (start + chunk_size).min(member_end);
                let terminate = end == member_end;
                let data = Arc::clone(&data);
                let options = compressor_options.clone();
                let encode_seconds = self.metrics.encode_seconds.clone();
                handles.push(self.pool.submit(move || {
                    let _timer = encode_seconds.start_timer();
                    encode_chunk(&options, &data[start..end], terminate)
                }));
                if terminate {
                    break;
                }
                start = end;
            }
            members.push(handles);
        }

        let mut out = Vec::with_capacity(total / 3 + 256);
        let mut index = GzipIndex::new();
        let mut uncompressed_offset = 0u64;
        let mut chunks = 0usize;
        for (member, handles) in members.into_iter().enumerate() {
            let header = GzipHeader {
                modification_time: self.options.modification_time,
                extra_flags: level_xfl(self.options.level),
                operating_system: OS_UNIX,
                ..Default::default()
            };
            let header_bytes = header.to_bytes();
            debug_assert_eq!(header_bytes.len(), PIGZ_HEADER_SIZE);
            out.extend_from_slice(&header_bytes);
            // The seek point targets the first DEFLATE block, which is what
            // the reader's random-access decode expects (it only parses a
            // member header when crossing into the *next* member).
            let first_block_bit = out.len() as u64 * 8;

            let mut member_crc = 0u32;
            let mut member_length = 0u64;
            for handle in handles {
                let encoded = handle.wait();
                member_crc = if member_length == 0 {
                    encoded.crc32
                } else {
                    crc32_combine(member_crc, encoded.crc32, encoded.length)
                };
                member_length += encoded.length;
                out.extend_from_slice(&encoded.bytes);
                chunks += 1;
            }
            let footer = GzipFooter {
                crc32: member_crc,
                uncompressed_size: member_length as u32,
            };
            out.extend_from_slice(&footer.to_bytes());

            index.block_map.push(SeekPoint {
                compressed_bit_offset: first_block_bit,
                uncompressed_offset,
                uncompressed_size: member_length,
            });
            index.checksum_map.insert(
                first_block_bit,
                PointChecksums::from_fragments(member as u64, [(member_crc, member_length)]),
            );
            uncompressed_offset += member_length;
        }
        index.compressed_size = out.len() as u64;
        index.uncompressed_size = total as u64;

        self.metrics.chunks.add(chunks as u64);
        self.metrics.members.add(member_count as u64);
        self.metrics.bytes_in.add(total as u64);
        self.metrics.bytes_out.add(out.len() as u64);
        CompressedStream {
            bytes: out,
            index,
            members: member_count,
            chunks,
        }
    }

    /// BGZF layout: every 64 KiB-input block is a complete member; one seek
    /// point (and one parallel work unit) covers `chunk_size` worth of
    /// blocks, with per-member CRC fragments.
    fn compress_bgzf(&self, data: Arc<[u8]>) -> CompressedStream {
        let blocks_per_span = (self.options.chunk_size / MAX_BGZF_INPUT_BLOCK).max(1);
        let span_input = blocks_per_span * MAX_BGZF_INPUT_BLOCK;
        let total = data.len();
        let span_count = total.div_ceil(span_input).max(1);
        let compressor_options = self.deflate_options(MAX_BGZF_INPUT_BLOCK);
        let modification_time = self.options.modification_time;
        let extra_flags = level_xfl(self.options.level);

        let mut handles = Vec::with_capacity(span_count);
        for span in 0..span_count {
            let start = span * span_input;
            let end = (start + span_input).min(total);
            let data = Arc::clone(&data);
            let options = compressor_options.clone();
            let encode_seconds = self.metrics.encode_seconds.clone();
            handles.push(self.pool.submit(move || {
                let _timer = encode_seconds.start_timer();
                encode_bgzf_span(&options, &data[start..end], modification_time, extra_flags)
            }));
        }

        let mut out = Vec::with_capacity(total / 3 + 256);
        let mut index = GzipIndex::new();
        let mut uncompressed_offset = 0u64;
        let mut member = 0u64;
        let mut chunks = 0usize;
        for handle in handles {
            let span = handle.wait();
            let first_block_bit = (out.len() + BGZF_HEADER_SIZE) as u64 * 8;
            let span_size: u64 = span.blocks.iter().map(|&(_, length)| length).sum();
            index.block_map.push(SeekPoint {
                compressed_bit_offset: first_block_bit,
                uncompressed_offset,
                uncompressed_size: span_size,
            });
            index.checksum_map.insert(
                first_block_bit,
                PointChecksums::from_fragments(member, span.blocks.iter().copied()),
            );
            out.extend_from_slice(&span.bytes);
            member += span.blocks.len() as u64;
            chunks += span.blocks.len();
            uncompressed_offset += span_size;
        }
        out.extend_from_slice(&BGZF_EOF_BLOCK);
        index.compressed_size = out.len() as u64;
        index.uncompressed_size = total as u64;

        self.metrics.chunks.add(chunks as u64);
        self.metrics.members.add(member + 1);
        self.metrics.bytes_in.add(total as u64);
        self.metrics.bytes_out.add(out.len() as u64);
        CompressedStream {
            bytes: out,
            index,
            members: member as usize + 1, // + EOF block
            chunks,
        }
    }

    fn deflate_options(&self, block_size: usize) -> CompressorOptions {
        CompressorOptions {
            level: self.options.level,
            block_size,
            force_dynamic: false,
        }
    }
}

/// Maps the compression level onto the gzip XFL hint (2 = maximum
/// compression, 4 = fastest).
fn level_xfl(level: CompressionLevel) -> u8 {
    match level {
        CompressionLevel::Best => 2,
        CompressionLevel::Stored | CompressionLevel::Huffman | CompressionLevel::Fast => 4,
        CompressionLevel::Default => 0,
    }
}

/// Worker-side chunk encode for the pigz layout: a byte-aligned DEFLATE
/// fragment ending in an empty stored block (final when `terminate` closes
/// the member's stream), plus the chunk's CRC-32.
fn encode_chunk(options: &CompressorOptions, data: &[u8], terminate: bool) -> EncodedChunk {
    let compressor = DeflateCompressor::new(options.clone());
    let mut writer = BitWriter::with_capacity(data.len() / 3 + 64);
    compressor.compress_into(data, &mut writer, false);
    write_stored_block(&mut writer, &[], terminate);
    EncodedChunk {
        bytes: writer.finish(),
        crc32: crc32(data),
        length: data.len() as u64,
    }
}

/// Worker-side span encode for the BGZF layout: a run of complete BGZF
/// members (header with `BC` subfield, finalized DEFLATE stream, trailer).
fn encode_bgzf_span(
    options: &CompressorOptions,
    data: &[u8],
    modification_time: u32,
    extra_flags: u8,
) -> EncodedSpan {
    let compressor = DeflateCompressor::new(options.clone());
    let mut bytes = Vec::with_capacity(data.len() / 3 + 128);
    let mut blocks = Vec::new();
    let mut remaining = data;
    loop {
        let take = remaining.len().min(MAX_BGZF_INPUT_BLOCK);
        let (block, rest) = remaining.split_at(take);
        remaining = rest;

        let block_crc = write_bgzf_member(
            &compressor,
            block,
            modification_time,
            extra_flags,
            &mut bytes,
        );
        blocks.push((block_crc, block.len() as u64));

        if remaining.is_empty() {
            break;
        }
    }
    EncodedSpan { bytes, blocks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgz_gzip::{decompress, decompress_with_info, is_bgzf_header};

    fn options(container: ContainerFormat) -> ParallelCompressorOptions {
        ParallelCompressorOptions {
            container,
            chunk_size: 16 * 1024,
            member_size: 64 * 1024,
            parallelization: 3,
            ..Default::default()
        }
    }

    fn text_corpus(size: usize) -> Vec<u8> {
        (0..)
            .flat_map(|i: u32| format!("record {:06} | {}\n", i, i % 977).into_bytes())
            .take(size)
            .collect()
    }

    #[test]
    fn pigz_output_round_trips_through_the_serial_decoder() {
        let data = text_corpus(300_000);
        let stream = ParallelCompressor::new(options(ContainerFormat::Pigz)).compress(&data);
        let (restored, members) = decompress_with_info(&stream.bytes).unwrap();
        assert_eq!(restored, data);
        assert_eq!(members.len(), stream.members);
        assert_eq!(stream.members, 300_000usize.div_ceil(64 * 1024));
        assert_eq!(stream.chunks, 300_000usize.div_ceil(16 * 1024));
        assert!(stream.bytes.len() < data.len() / 2, "text should compress");
    }

    #[test]
    fn bgzf_output_is_real_bgzf() {
        let data = text_corpus(200_000);
        let stream = ParallelCompressor::new(options(ContainerFormat::Bgzf)).compress(&data);
        let (restored, members) = decompress_with_info(&stream.bytes).unwrap();
        assert_eq!(restored, data);
        assert_eq!(members.len(), stream.members);
        assert!(stream.bytes.ends_with(&rgz_gzip::BGZF_EOF_BLOCK));
        for member in &members {
            assert!(is_bgzf_header(&member.header).is_some());
        }
        let offsets = rgz_gzip::bgzf::block_offsets(&stream.bytes).unwrap();
        assert_eq!(offsets.len(), stream.members);
    }

    #[test]
    fn index_describes_the_stream_exactly() {
        for container in [ContainerFormat::Pigz, ContainerFormat::Bgzf] {
            let data = text_corpus(250_000);
            let stream = ParallelCompressor::new(options(container)).compress(&data);
            let index = &stream.index;
            assert_eq!(index.compressed_size, stream.bytes.len() as u64);
            assert_eq!(index.uncompressed_size, data.len() as u64);
            assert_eq!(index.block_map.uncompressed_size(), data.len() as u64);
            assert_eq!(index.checksum_map.len(), index.block_map.len());
            let mut expected_offset = 0u64;
            for point in index.block_map.points() {
                assert_eq!(point.uncompressed_offset, expected_offset);
                expected_offset += point.uncompressed_size;
                // Every point must land on a decodable DEFLATE block: check
                // byte alignment of the surrounding member layout.
                assert!(point.compressed_bit_offset % 8 == 0);
                let fragments = index
                    .checksum_map
                    .get(point.compressed_bit_offset)
                    .expect("every point carries fragments");
                let span: u64 = fragments.fragments.iter().map(|f| f.length).sum();
                assert_eq!(span, point.uncompressed_size, "{container:?}");
            }
        }
    }

    #[test]
    fn index_exports_as_v3_and_reimports() {
        let data = text_corpus(180_000);
        let stream = ParallelCompressor::new(options(ContainerFormat::Pigz)).compress(&data);
        let exported = stream.index.export();
        let imported = GzipIndex::import(&exported).unwrap();
        assert_eq!(imported.block_map.points(), stream.index.block_map.points());
        assert_eq!(imported.checksum_map.len(), stream.index.checksum_map.len());
    }

    #[test]
    fn empty_input_still_yields_a_valid_file() {
        for container in [ContainerFormat::Pigz, ContainerFormat::Bgzf] {
            let stream = ParallelCompressor::new(options(container)).compress(&[]);
            assert_eq!(decompress(&stream.bytes).unwrap(), Vec::<u8>::new());
            assert_eq!(stream.index.uncompressed_size, 0);
        }
    }

    #[test]
    fn all_levels_round_trip() {
        let data = text_corpus(120_000);
        for level in [
            CompressionLevel::Stored,
            CompressionLevel::Huffman,
            CompressionLevel::Fast,
            CompressionLevel::Default,
            CompressionLevel::Best,
        ] {
            let mut opts = options(ContainerFormat::Pigz);
            opts.level = level;
            let stream = ParallelCompressor::new(opts).compress(&data);
            assert_eq!(decompress(&stream.bytes).unwrap(), data, "{level:?}");
        }
    }

    #[test]
    fn metrics_mirror_the_compressed_stream_exactly() {
        let data = text_corpus(300_000);
        for container in [ContainerFormat::Pigz, ContainerFormat::Bgzf] {
            let registry = std::sync::Arc::new(rgz_metrics::MetricsRegistry::new());
            let stream = ParallelCompressor::new(options(container))
                .with_metrics(&registry)
                .compress(&data);
            let snapshot = registry.snapshot();
            let counter = |name: &str| snapshot.counter(name, &[]).unwrap_or(0);
            assert_eq!(counter(names::COMPRESS_CHUNKS), stream.chunks as u64);
            assert_eq!(counter(names::COMPRESS_MEMBERS), stream.members as u64);
            assert_eq!(counter(names::COMPRESS_BYTES_IN), data.len() as u64);
            assert_eq!(
                counter(names::COMPRESS_BYTES_OUT),
                stream.bytes.len() as u64
            );
            // One timed worker task per pigz chunk; one per BGZF span (a
            // span covers `chunk_size` rounded down to whole 64 KiB blocks,
            // which at this 16 KiB chunk size is exactly one block).
            assert_eq!(
                snapshot
                    .histogram(names::COMPRESS_ENCODE_SECONDS, &[])
                    .unwrap()
                    .count,
                stream.chunks as u64,
            );
        }
    }

    #[test]
    fn single_threaded_and_parallel_output_are_identical() {
        let data = text_corpus(400_000);
        let mut serial_options = options(ContainerFormat::Pigz);
        serial_options.parallelization = 1;
        let serial = ParallelCompressor::new(serial_options).compress(&data);
        let mut parallel_options = options(ContainerFormat::Pigz);
        parallel_options.parallelization = 4;
        let parallel = ParallelCompressor::new(parallel_options).compress(&data);
        assert_eq!(serial.bytes, parallel.bytes, "output must be deterministic");
    }
}
