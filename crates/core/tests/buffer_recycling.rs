//! The reader's chunk buffers are recycled, not reallocated: over a long
//! sequential pass only the first chunks take a buffer the allocator has to
//! provide, what lies idle stays within the bound the pool states, and a
//! reader that goes away takes all of it with it.

mod common;

use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::Arc;

use common::{chunk_table, held_windows, FirstChunkHeldBack};
use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_datagen::{base64_random, silesia_like};
use rgz_deflate::CompressorOptions;
use rgz_gzip::GzipWriter;
use rgz_metrics::{names, MetricsRegistry};

const CHUNK_SIZE: usize = 32 * 1024;
const CACHE_CHUNKS: usize = 4;

/// Small blocks: no chunk's last block runs past the compressed range its
/// decode reads first, so every range is as long as the first.
fn compress(data: &[u8]) -> Vec<u8> {
    GzipWriter::new(CompressorOptions {
        block_size: 16 * 1024,
        ..Default::default()
    })
    .compress(data)
}

fn reader(
    compressed: &[u8],
    parallelization: usize,
    registry: &Arc<MetricsRegistry>,
) -> ParallelGzipReader {
    let file = rgz_io::SharedFileReader::from_bytes(compressed.to_vec());
    reader_of(file, parallelization, registry)
}

fn reader_of(
    file: rgz_io::SharedFileReader,
    parallelization: usize,
    registry: &Arc<MetricsRegistry>,
) -> ParallelGzipReader {
    let options = ParallelGzipReaderOptions {
        parallelization,
        chunk_size: CHUNK_SIZE,
        resolved_cache_chunks: CACHE_CHUNKS,
        ..Default::default()
    }
    .with_metrics(Arc::clone(registry));
    ParallelGzipReader::new(file, options).unwrap()
}

fn takes(registry: &MetricsRegistry, kind: &str, result: &str) -> u64 {
    registry
        .snapshot()
        .counter(
            names::BUFFER_POOL_TAKES,
            &[("kind", kind), ("result", result)],
        )
        .unwrap_or(0)
}

fn idle_bytes(registry: &MetricsRegistry) -> u64 {
    let idle = registry
        .snapshot()
        .gauge(names::BUFFER_POOL_IDLE_BYTES, &[])
        .unwrap_or(0);
    u64::try_from(idle).expect("more bytes taken off the gauge than put on it")
}

/// Looks at the pool each time the reader hands over bytes.
struct Watch<'a> {
    registry: &'a MetricsRegistry,
    most_idle_bytes: u64,
}

impl Write for Watch<'_> {
    fn write(&mut self, buffer: &[u8]) -> std::io::Result<usize> {
        self.most_idle_bytes = self.most_idle_bytes.max(idle_bytes(self.registry));
        Ok(buffer.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_sequential_pass_takes_fresh_buffers_only_while_it_warms_up() {
    // Marker-heavy text keeps its chunks 16 bits wide to the end; base64's
    // switch to bytes within a few KiB: the first lives in `u16` and resolve
    // target `u8` buffers, the second in `u8` tails.
    let corpora = [
        silesia_like(6 * 1024 * 1024, 31),
        base64_random(3 * 1024 * 1024, 32),
    ];
    for data in &corpora {
        let compressed = compress(data);
        for parallelization in [1usize, 2, 3] {
            // Buffers in flight from one end of the pipeline to the other:
            // up to 2P chunks decoded ahead and one being resolved.  A
            // stream feeds no access cache.
            let in_flight = 2 * parallelization + 1;
            let chunks = compressed.len().div_ceil(CHUNK_SIZE);
            assert!(chunks >= 4 * in_flight, "{chunks} chunks");

            let registry = Arc::new(MetricsRegistry::new());
            let mut reader = reader(&compressed, parallelization, &registry);
            let mut watch = Watch {
                registry: &registry,
                most_idle_bytes: 0,
            };
            assert_eq!(reader.decompress_to(&mut watch).unwrap(), data.len() as u64);
            // The first chunk and, where the file's last bytes hold no block
            // to start from, the last are decoded on demand; every other
            // either speculatively or — the chunk before it committed by
            // the time a worker got to it, as with one worker it always is —
            // from its known start, with no symbols at all.
            let statistics = reader.statistics();
            let on_demand = statistics.on_demand_chunks as usize;
            let speculative = statistics.speculative_chunks_used;
            assert!(on_demand <= 2, "{statistics:?}");
            assert_eq!(
                (speculative + statistics.window_known_chunks) as usize + on_demand,
                chunks
            );
            if parallelization == 1 {
                assert_eq!(speculative, 0, "{statistics:?}");
            }

            // Every decode took a range buffer, every speculative one a
            // symbol buffer, every chunk's bytes ended up in a byte buffer…
            let total = |kind| takes(&registry, kind, "fresh") + takes(&registry, kind, "reused");
            assert!(total("range") >= chunks as u64);
            assert!(total("u16") >= speculative);
            assert!(total("u8") >= chunks as u64);
            // …and few of them one the allocator had to provide, which is
            // what `fresh` counts.  However the threads were scheduled, no
            // more buffers were *created* than can be in use at once: P
            // decodes and the sequential pass's own reading a range, 2P
            // chunks decoded ahead and one being resolved holding symbols,
            // all of those and the chunk being read holding bytes.  And one is
            // *replaced* only if a chunk larger than the sixteen before it
            // was decoded while it lay idle, as at most a shelf-full do at a
            // time: P + 1 range or symbol buffers, 2P + 1 byte buffers.
            // These corpora are of one kind from end to end and their chunks
            // a few 16 KiB blocks each, so that happens while the first
            // decodes find the largest size there is — once for a shelf-full
            // — and at most once more: two of the text corpus's largest
            // chunks lie fourteen apart, which an unlucky order of decodes
            // could stretch past the sixteen a shelf remembers.
            //
            // Symbol buffers have one more way to go and come back: over a
            // stretch of chunks decoded from their known start nobody needs
            // them, all 2P + 1 come home, P + 1 may stay, and the next
            // speculative stretch creates up to P anew.  A pass changes
            // between the two at most as often as it has chunks of the
            // rarer kind — never with one worker, and never where every
            // chunk is decoded ahead of the one before it.
            let changes = speculative.min(statistics.window_known_chunks) as usize;
            let (shelf, byte_shelf) = (parallelization + 1, 2 * parallelization + 1);
            let in_use = [
                ("range", parallelization + on_demand, shelf),
                (
                    "u16",
                    2 * parallelization + 1 + parallelization * changes,
                    shelf,
                ),
                ("u8", in_flight + 1, byte_shelf),
            ];
            for (kind, in_use, shelf) in in_use {
                let fresh = takes(&registry, kind, "fresh");
                let bound = in_use + 2 * shelf;
                assert!(
                    fresh <= bound as u64,
                    "P = {parallelization}: {fresh} fresh {kind} buffers, bound {bound}"
                );
            }

            // The stated bound on what lies idle: at most P + 1 range and
            // symbol buffers and 2P + 1 byte buffers, each at most 1/32 over
            // the largest recent of its kind — a compressed range of a chunk
            // and its slack, a chunk's symbols, a chunk's bytes.  Byte
            // buffers are kept two per worker and one over: a consumer that
            // was descheduled while the workers decoded the whole window
            // ahead gives all of theirs back at once, and a shelf of P + 1
            // would free P of them for the next decodes to create anew.
            let index = reader.index();
            let largest_chunk = index
                .block_map
                .points()
                .iter()
                .map(|point| point.uncompressed_size)
                .max()
                .unwrap();
            let largest_range = (CHUNK_SIZE + 64 * 1024) as u64;
            let per_shelf_slot = largest_range + 2 * largest_chunk;
            let idle = shelf as u64 * per_shelf_slot + byte_shelf as u64 * largest_chunk;
            let idle_bound = idle + idle / 32;
            assert!(
                watch.most_idle_bytes.max(idle_bytes(&registry)) <= idle_bound,
                "P = {parallelization}: {} bytes idle, bound {idle_bound}",
                watch.most_idle_bytes
            );
            assert!(
                idle_bytes(&registry) > 0,
                "nothing was kept for the next chunk"
            );
            drop(reader);
            assert_eq!(idle_bytes(&registry), 0);
        }

        // The same stream through an imported table of a point at every
        // block: the access cache's budget has room for ten or more of
        // them, a byte buffer each, but a stream keeps none.  Decoded ahead
        // and handed over whole, its chunks create no more byte buffers
        // than above.
        let index = fine_table(&compressed);
        for parallelization in [1usize, 2, 3] {
            let registry = Arc::new(MetricsRegistry::new());
            let file = rgz_io::SharedFileReader::from_bytes(compressed.clone());
            let options = ParallelGzipReaderOptions {
                parallelization,
                chunk_size: CHUNK_SIZE,
                resolved_cache_chunks: CACHE_CHUNKS,
                ..Default::default()
            }
            .with_metrics(Arc::clone(&registry));
            let mut reader = ParallelGzipReader::with_index(file, options, index.clone()).unwrap();
            let read = reader.decompress_to(&mut std::io::sink()).unwrap();
            assert_eq!(read, data.len() as u64);
            let statistics = reader.statistics();
            assert_eq!(
                statistics.index_chunks as usize,
                index.block_map.len(),
                "{statistics:?}"
            );
            let (fresh, bound) = (takes(&registry, "u8", "fresh"), byte_bound(parallelization));
            assert!(
                fresh <= bound as u64,
                "P = {parallelization}, fine table: {fresh} fresh u8 buffers, bound {bound}"
            );
        }
    }
}

/// The most byte buffers a sequential read at `parallelization` creates, the
/// `u8` bound of the pass above: as many as may hold bytes at once — 2P
/// chunks decoded ahead, one resolved, the one read — and two shelf-fulls
/// of replacements.
fn byte_bound(parallelization: usize) -> usize {
    2 * parallelization + 2 + 2 * (2 * parallelization + 1)
}

/// The imported table of a pass at an eighth of `CHUNK_SIZE` over
/// `compressed`: a point at every one of its 16 KiB blocks, several to a
/// chunk of `CHUNK_SIZE`.
fn fine_table(compressed: &[u8]) -> rgz_index::GzipIndex {
    let options = ParallelGzipReaderOptions {
        parallelization: 2,
        chunk_size: CHUNK_SIZE / 8,
        ..Default::default()
    };
    let mut pass = ParallelGzipReader::from_bytes(compressed.to_vec(), options).unwrap();
    let index = pass.build_full_index().unwrap();
    let index = rgz_index::GzipIndex::import(&index.export()).unwrap();
    let chunks = compressed.len().div_ceil(CHUNK_SIZE);
    assert!(
        index.block_map.len() >= 2 * chunks,
        "{} points",
        index.block_map.len()
    );
    index
}

#[test]
fn a_reader_dropped_mid_read_frees_every_buffer() {
    let data = silesia_like(4 * 1024 * 1024, 33);
    let compressed = compress(&data);
    for parallelization in [1usize, 3] {
        let registry = Arc::new(MetricsRegistry::new());
        // With three workers some chunks are to be decoded speculatively,
        // however fast a decode is beside a thread's wake-up: the first is
        // held back until two decodes ahead of it have begun.
        let mut reader = match parallelization {
            1 => reader(&compressed, parallelization, &registry),
            _ => reader_of(
                FirstChunkHeldBack::shared(compressed.clone(), 2),
                parallelization,
                &registry,
            ),
        };
        // Far enough for speculative decodes and marker replacements to be
        // queued and running, then gone: the drop joins the workers, whose
        // tasks and results hold buffers and handles of the pool — and
        // nothing of the reader, so nothing can wait for itself.
        let mut buffer = vec![0u8; 300 * 1024];
        reader.read_exact(&mut buffer).unwrap();
        assert_eq!(buffer, data[..buffer.len()]);
        assert!(takes(&registry, "u8", "fresh") > 0);
        // One worker decodes every chunk from its known start.
        assert_eq!(takes(&registry, "u16", "fresh") > 0, parallelization > 1);
        drop(reader);
        // Only a pool nobody holds a buffer or a handle of takes what it
        // kept idle off the gauge.
        assert_eq!(idle_bytes(&registry), 0);
    }
}

#[test]
fn chunks_a_reader_skips_do_not_stay() {
    // A reader that has the pass run to the end without reading — to learn
    // the size, to build the index — is not left holding the file: of the
    // chunks nobody came for, the pass keeps as many as it may decode ahead
    // of a reader that does read, degree + 1, and lets the farthest go.
    let data = silesia_like(8 * 1024 * 1024, 34);
    let compressed = compress(&data);
    let chunks = compressed.len().div_ceil(CHUNK_SIZE);
    assert!(chunks >= 64, "{chunks} chunks");
    for parallelization in [1usize, 2] {
        for build_index in [false, true] {
            let run = format!("P = {parallelization}, index build: {build_index}");
            let registry = Arc::new(MetricsRegistry::new());
            let mut reader = reader(&compressed, parallelization, &registry);
            if build_index {
                assert_eq!(
                    reader.build_full_index().unwrap().block_map.len(),
                    chunks,
                    "{run}"
                );
            } else {
                assert_eq!(reader.seek(SeekFrom::End(0)).unwrap(), data.len() as u64);
            }
            // Byte buffers ever created: what can hold bytes at once — the
            // chunks kept, the cache, one in each worker's hands.
            let degree = 2 * parallelization;
            let bound = degree + 1 + CACHE_CHUNKS + parallelization;
            let fresh = takes(&registry, "u8", "fresh");
            assert!(
                fresh <= bound as u64,
                "{run}: {fresh} fresh byte buffers for {chunks} chunks, bound {bound}"
            );

            // What was let go of is decoded again through the index the pass
            // has built, and checked against the fragments it stored.
            reader.seek(SeekFrom::Start(0)).unwrap();
            let mut restored = Vec::new();
            reader.read_to_end(&mut restored).unwrap();
            assert!(restored == data, "{run}: output differs");
            let statistics = reader.statistics();
            assert!(statistics.index_chunks > 0, "{run}: {statistics:?}");
            assert_eq!(statistics.index_chunks_unverified, 0, "{run}");
        }
    }
}

/// A file that compresses some twentyfold — a block of text over and over,
/// a little noise between — so that a chunk of 64 KiB of it is over a MiB of
/// output and holds an interior seek point, and the index of it.
fn long_chunks(chunks: usize) -> (Vec<u8>, Vec<u8>, rgz_index::GzipIndex) {
    const LONG_CHUNK_SIZE: usize = 64 * 1024;
    let block = base64_random(24_000, 35);
    let mut data = Vec::new();
    let mut compressed = Vec::new();
    while compressed.len() < chunks * LONG_CHUNK_SIZE {
        for round in 0..200 {
            data.extend_from_slice(&block);
            data.extend_from_slice(&base64_random(1000, data.len() as u64 + round));
        }
        compressed = compress(&data);
    }
    let options = ParallelGzipReaderOptions {
        parallelization: 2,
        chunk_size: LONG_CHUNK_SIZE,
        ..Default::default()
    };
    let index = ParallelGzipReader::from_bytes(compressed.clone(), options)
        .unwrap()
        .build_full_index()
        .unwrap();
    let index = chunk_table(&index, LONG_CHUNK_SIZE);
    let points = index.block_map.points();
    assert!(points.len() >= chunks, "{} chunks", points.len());
    // Blocks of 16 KiB: a boundary to cut at soon after the MiB.
    let long = |point: &rgz_index::SeekPoint| point.uncompressed_size > (1 << 20) + (64 << 10);
    assert!(points[..points.len() - 1].iter().all(long), "{points:?}");
    (data, compressed, index)
}

fn indexed_reader(
    compressed: &[u8],
    index: &rgz_index::GzipIndex,
    parallelization: usize,
    resolved_cache_chunks: usize,
    registry: &Arc<MetricsRegistry>,
) -> ParallelGzipReader {
    let options = ParallelGzipReaderOptions {
        parallelization,
        chunk_size: 64 * 1024,
        resolved_cache_chunks,
        ..Default::default()
    }
    .with_metrics(Arc::clone(registry));
    let file = rgz_io::SharedFileReader::from_bytes(compressed.to_vec());
    ParallelGzipReader::with_index(file, options, index.clone()).unwrap()
}

fn interior_window_bytes(registry: &MetricsRegistry) -> u64 {
    let held = registry.snapshot().gauge(names::INTERIOR_WINDOW_BYTES, &[]);
    u64::try_from(held.unwrap_or(0)).unwrap()
}

/// Looks at the interior points' windows each time the reader hands over.
struct WatchWindows<'a>(&'a MetricsRegistry, u64);

impl Write for WatchWindows<'_> {
    fn write(&mut self, buffer: &[u8]) -> std::io::Result<usize> {
        self.1 = self.1.max(interior_window_bytes(self.0));
        Ok(buffer.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn interior_points_stay_within_their_budget_and_the_oldest_chunks_go_first() {
    // The reader's interior seek points hold the bytes of window the MiB
    // after each references, at most `resolved_cache_chunks x chunk_size`
    // bytes of it in all: here a window in each chunk, under a read of many
    // times as many chunks from end to end as fit.  The cache is full when
    // no chunk's window would fit beside what it holds.
    let (data, compressed, index) = long_chunks(16);
    let points = index.block_map.points();
    let budget = 2 * 64 * 1024;
    let stops = points[1..].iter().map(|point| point.compressed_bit_offset);
    let weights = points
        .iter()
        .zip(stops.chain([u64::MAX]))
        .map(|(point, stop)| {
            let (windows, bytes) = held_windows(&compressed, &data, point, stop, 1 << 20);
            assert!(windows <= 1);
            bytes
        });
    let heaviest = weights.clone().max().unwrap();
    assert!(weights.sum::<u64>() > 2 * budget);
    let full = |held: u64| held <= budget && held + heaviest > budget;
    for parallelization in [1usize, 2] {
        let registry = Arc::new(MetricsRegistry::new());
        let mut reader = indexed_reader(&compressed, &index, parallelization, 2, &registry);
        let mut watch = WatchWindows(&registry, 0);
        // A reader that has sought keeps the chunks it reads whole.
        reader.seek(SeekFrom::Start(1)).unwrap();
        assert_eq!(reader.decompress_to(&mut watch).unwrap(), data.len() as u64);
        let held = interior_window_bytes(&registry);
        assert!(watch.1.max(held) <= budget, "{} bytes held", watch.1);
        assert!(full(held), "{held} bytes held, heaviest {heaviest}");

        // What is held is of the chunks decoded last.  The last two are in
        // the access cache; a jump into one before them is a slice...
        let mut buffer = vec![0u8; 1000];
        let mut jump = |reader: &mut ParallelGzipReader, chunk: usize, offset: u64| {
            let offset = points[chunk].uncompressed_offset + offset;
            reader.seek(SeekFrom::Start(offset)).unwrap();
            reader.read_exact(&mut buffer).unwrap();
            assert_eq!(buffer, data[offset as usize..][..1000]);
            let statistics = reader.statistics();
            (statistics.index_chunks, statistics.index_slices)
        };
        let (last, past_the_point) = (points.len() - 1, (1 << 20) + 70_000);
        let (chunks, slices) = jump(&mut reader, last - 1, past_the_point);
        assert_eq!(slices, 0, "P = {parallelization}");
        assert_eq!(jump(&mut reader, last - 2, past_the_point), (chunks, 1));
        // ...and one into a chunk read long ago the whole chunk again, whose
        // points then push out those of the chunk unused the longest.
        assert_eq!(jump(&mut reader, 1, past_the_point), (chunks + 1, 1));
        assert!(full(interior_window_bytes(&registry)));
        assert_eq!(jump(&mut reader, last - 2, 100), (chunks + 1, 2));
        // Decodes ahead finish in any order, so the four chunks held last
        // need not be the last four: one decode that stalls may finish after
        // those of the chunks up to a prefetch degree past it.  A chunk that
        // far before the last four has gone whatever the order.
        let long_ago = last - 5 - 2 * parallelization;
        assert_eq!(
            jump(&mut reader, long_ago, 100),
            (chunks + 2, 2),
            "P = {parallelization}"
        );
    }
}

#[test]
fn slices_teach_the_buffer_pool_nothing() {
    // A slice is decoded into a chunk's buffers and leaves no note of its
    // size: were it to, sixteen in a row — all a shelf remembers — would trim
    // every idle buffer to a slice's size, and the next whole chunk regrow
    // its own by doubling.
    let (data, compressed, index) = long_chunks(8);
    let points = index.block_map.points();
    let registry = Arc::new(MetricsRegistry::new());
    // Room for the points of all ten chunks — which of them a smaller budget
    // lets go of first depends on the order their decodes finish in — of
    // which the last five read are in the access cache.
    let mut reader = indexed_reader(&compressed, &index, 2, 5, &registry);
    assert_eq!(reader.decompress_all().unwrap(), data);
    let fresh = |kind| takes(&registry, kind, "fresh");
    let warm = (fresh("range"), fresh("u8"), idle_bytes(&registry));

    let mut buffer = vec![0u8; 70_000];
    let mut read = |reader: &mut ParallelGzipReader, offset: u64| {
        reader.seek(SeekFrom::Start(offset)).unwrap();
        reader.read_exact(&mut buffer).unwrap();
        assert!(buffer[..] == data[offset as usize..][..70_000]);
    };
    let near = points.len() - 6;
    for jump in 0..16 {
        read(
            &mut reader,
            points[near - 2 * (jump % 2)].uncompressed_offset + 500_000,
        );
    }
    assert_eq!(reader.statistics().index_slices, 16);
    // All that lay idle still does, at its size, but for the one buffer the
    // slice kept from the last read is in.
    let largest = points
        .iter()
        .map(|point| point.uncompressed_size)
        .max()
        .unwrap();
    let idle = idle_bytes(&registry);
    assert!(
        idle + largest + largest / 32 >= warm.2,
        "{} idle bytes became {idle}: trimmed",
        warm.2
    );
    // A read that goes on past the end of the last slice takes its chunk
    // whole: into a buffer that lay idle, as large as it needs.
    let chunks = reader.statistics().index_chunks;
    let offset = reader.stream_position().unwrap() as usize;
    let mut on = vec![0u8; 300_000];
    reader.read_exact(&mut on).unwrap();
    assert!(on[..] == data[offset..][..on.len()]);
    assert_eq!(reader.statistics().index_chunks, chunks + 1);
    assert_eq!(reader.statistics().index_slices, 16);
    assert_eq!((fresh("range"), fresh("u8")), (warm.0, warm.1));
}
