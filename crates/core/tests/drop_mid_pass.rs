//! A reader can go away at any point of the sequential pass: its workers
//! commit chunks, queue marker replacements and compress windows on their
//! own, holding the reader's shared state for as long as they need it — and
//! nothing that owns a thread, so that whichever of them lets go last joins
//! nobody, least of all itself.

use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;

use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_datagen::silesia_like;
use rgz_deflate::CompressorOptions;
use rgz_gzip::GzipWriter;
use rgz_metrics::{names, MetricsRegistry};

/// A different schedule each round: how far the reader gets, in reads of what
/// size, and what it does last.
struct Shuffle(u64);

impl Shuffle {
    fn next(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound as u64) as usize
    }
}

#[test]
fn a_reader_dropped_anywhere_in_the_pass_leaves_nothing_behind() {
    let data = silesia_like(200_000, 77);
    // Blocks of a KiB or two in chunks of 4: some fifteen chunks, most of them
    // markers to the end, each decoded in well under a millisecond.
    let compressed = GzipWriter::new(CompressorOptions {
        block_size: 2 * 1024,
        ..Default::default()
    })
    .compress(&data);
    let chunk_size = 4 * 1024;
    assert!(compressed.len() > 12 * chunk_size);

    let mut shuffle = Shuffle(0x9E37_79B9_7F4A_7C15);
    for parallelization in [1usize, 2, 8] {
        for round in 0..200 {
            let registry = Arc::new(MetricsRegistry::new());
            let options = ParallelGzipReaderOptions {
                parallelization,
                chunk_size,
                ..Default::default()
            }
            .with_metrics(Arc::clone(&registry));
            let mut reader = ParallelGzipReader::from_bytes(compressed.clone(), options).unwrap();

            let start = match shuffle.next(4) {
                // Now and then from somewhere the pass has to run up to.
                0 => shuffle.next(data.len()),
                _ => 0,
            };
            reader.seek(SeekFrom::Start(start as u64)).unwrap();
            // Rarely to the end, where there is nothing left in flight.
            let stop = start + shuffle.next((data.len() - start + 1).min(80_000));
            let mut position = start;
            let mut buffer = vec![0u8; 1 + shuffle.next(30_000)];
            while position < stop {
                let wanted = buffer.len().min(stop - position);
                let count = reader.read(&mut buffer[..wanted]).unwrap();
                assert!(count > 0, "P = {parallelization}, round {round}: early end");
                assert_eq!(buffer[..count], data[position..position + count]);
                position += count;
            }
            match shuffle.next(3) {
                // Waits for the marker replacements in flight, not for the
                // decodes.
                0 => assert!(reader.index().block_map.len() <= compressed.len() / chunk_size + 1),
                1 => std::thread::yield_now(),
                _ => {}
            }
            drop(reader);
            // The drop has joined the workers, and every task has given its
            // buffers back to a pool that nobody holds any more.
            let idle = registry
                .snapshot()
                .gauge(names::BUFFER_POOL_IDLE_BYTES, &[])
                .unwrap_or(0);
            assert_eq!(idle, 0, "P = {parallelization}, round {round}");
        }
    }
}

#[test]
fn an_indexed_reader_dropped_mid_tour_leaves_nothing_behind() {
    // Through an index the chunks decoded ahead are pool tasks like the
    // pass's own, holding the reader's shared state and entering their bytes
    // into its table: dropped with some queued, some running and some done
    // but not come for, the reader joins them all — no worker itself.
    let data = silesia_like(200_000, 78);
    let compressed = GzipWriter::new(CompressorOptions {
        block_size: 2 * 1024,
        ..Default::default()
    })
    .compress(&data);
    let options = ParallelGzipReaderOptions {
        chunk_size: 4 * 1024,
        ..Default::default()
    };
    let mut builder = ParallelGzipReader::from_bytes(compressed.clone(), options.clone()).unwrap();
    let index = builder.build_full_index().unwrap().export();
    drop(builder);

    let mut shuffle = Shuffle(0xD1B5_4A32_D192_ED03);
    for parallelization in [1usize, 2, 8] {
        let mut left_behind = 0;
        for round in 0..100 {
            let registry = Arc::new(MetricsRegistry::new());
            let options = ParallelGzipReaderOptions {
                parallelization,
                ..options.clone()
            }
            .with_metrics(Arc::clone(&registry));
            let mut reader = ParallelGzipReader::with_index(
                rgz_io::SharedFileReader::from_bytes(compressed.clone()),
                options,
                rgz_index::GzipIndex::import(&index).unwrap(),
            )
            .unwrap();
            // Runs of reads that make the prefetcher reach further each
            // time, and jumps that leave what it decoded lying.
            let mut buffer = vec![0u8; 1 + shuffle.next(12_000)];
            for _ in 0..1 + shuffle.next(6) {
                let mut position = shuffle.next(data.len());
                reader.seek(SeekFrom::Start(position as u64)).unwrap();
                for _ in 0..shuffle.next(4) {
                    let count = reader.read(&mut buffer).unwrap();
                    assert_eq!(buffer[..count], data[position..position + count]);
                    position += count;
                }
            }
            let statistics = reader.statistics();
            left_behind += statistics.index_prefetches_issued - statistics.index_prefetch_hits;
            drop(reader);
            let idle = registry
                .snapshot()
                .gauge(names::BUFFER_POOL_IDLE_BYTES, &[])
                .unwrap_or(0);
            assert_eq!(idle, 0, "P = {parallelization}, round {round}");
        }
        assert!(left_behind > 100, "P = {parallelization}: {left_behind}");
    }
}
