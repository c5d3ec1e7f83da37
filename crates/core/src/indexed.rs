//! Reading through a seek-point table, imported or built by the pass: every
//! chunk's first bit, window, length and (format v3) the CRC fragments of its
//! bytes are known before its decode starts, so there is one way to decode it
//! ([`Shared::decode_indexed`]) and two occasions — the reader asks for a
//! chunk nobody has, and decodes it on its own thread, or the prefetch
//! strategy predicts it, and a pool task puts it into the pass's table of
//! chunks (`Decoding` → `Prefetched` | `Failed`) for the reader to find.
//! Unlike a speculative decode these are *exact* chunks: each starts at a
//! real seek point and stops at the next one, so none is wasted on a
//! misguessed boundary.

use std::sync::Arc;

use rgz_index::{PointChecksums, SeekPoint};
use rgz_trace::{Outcome, Stage};
use rgz_window::{CompressedWindow, WindowError};

use crate::chunk::DirectChunk;
use crate::pass::{ChunkBytes, ChunkState, FailOnUnwind};
use crate::reader::{ReaderState, Shared};
use crate::verify::check_point_fragments;
use crate::CoreError;

/// What the index says of a chunk, besides its window.
pub(crate) struct IndexedChunk {
    pub point: SeekPoint,
    /// Where the next chunk starts.
    stop_bit: u64,
    /// The fragments its bytes must hash to, if the index stores them and
    /// the reader verifies.
    pub checksums: Option<Arc<PointChecksums>>,
}

impl Shared {
    /// The `index`th chunk of the seek-point table.
    pub(crate) fn indexed_chunk(&self, state: &ReaderState, index: usize) -> IndexedChunk {
        let points = state.index.block_map.points();
        let point = points[index].clone();
        let key = point.compressed_bit_offset;
        // Points are sorted by compressed offset (enforced on import).  The
        // last one's chunk ends with the file, or where a pass still under
        // way stands.
        let stop_bit = points[index + 1..]
            .iter()
            .map(|next| next.compressed_bit_offset)
            .find(|&next| next > key)
            .unwrap_or(if state.pass.finished {
                u64::MAX
            } else {
                state.pass.next_start_bit
            });
        let checksums = if self.verify() {
            state.index.checksum_map.get(key)
        } else {
            None
        };
        IndexedChunk {
            point,
            stop_bit,
            checksums,
        }
    }

    /// Decodes `chunk` from its seek point with the window `window` yields,
    /// and holds the bytes against everything the index says of them: `stage`
    /// is [`Stage::PrefetchDecode`] on the pool, ahead of the reader, and
    /// [`Stage::RandomAccess`] on the reader's own thread.
    ///
    /// Chunks decoded through the index are not folded into the stream
    /// verification; instead, when the index stores per-point CRC fragments
    /// (format v3), the bytes are hashed and compared against them.  Without
    /// (v1/v2 files, foreign imports) the decode completes unverified, and
    /// the reader counts it as such once it has the bytes.
    pub(crate) fn decode_indexed(
        &self,
        stage: Stage,
        chunk: &IndexedChunk,
        window: impl FnOnce() -> Result<Option<Arc<Vec<u8>>>, WindowError>,
    ) -> Result<ChunkBytes, CoreError> {
        let key = chunk.point.compressed_bit_offset;
        let mut span = self.trace().span(stage).chunk(key);
        if let Some(checksums) = &chunk.checksums {
            span.set_member(checksums.first_member);
        }
        let decoded = (|| {
            let window = window().map_err(CoreError::Window)?.unwrap_or_default();
            let result = self.decoder.decode_at(&DirectChunk {
                start_bit_offset: key,
                stop_bit_offset: chunk.stop_bit,
                window: &window,
                at_member_start: key == 0,
                stop_is_seek_point: true,
                verify: chunk.checksums.is_some(),
            })?;
            span.set_bytes(result.data.len() as u64);
            span.set_compressed_range(key / 8, result.end_bit_offset.div_ceil(8));
            if result.data.len() as u64 != chunk.point.uncompressed_size {
                return Err(CoreError::IndexMismatch {
                    compressed_bit_offset: key,
                });
            }
            if let Some(checksums) = &chunk.checksums {
                check_point_fragments(checksums, &result.fragments)?;
            }
            Ok(result.data)
        })();
        span.set_outcome(match decoded {
            Ok(_) => Outcome::Committed,
            Err(_) => Outcome::Error,
        });
        decoded.map(Arc::new)
    }

    /// Which chunks to decode ahead now that the reader asks for the
    /// `accessed`th of the table, each entered into the table as `Decoding`
    /// — for [`Self::spawn_prefetches`] to start once the state lock is let
    /// go of.
    ///
    /// Active only once a complete seek-point table exists.  Consecutive
    /// reads within one chunk cannot change the prediction and stop here
    /// (which also keeps many small reads from looking like a long
    /// sequential run to the strategy).
    pub(crate) fn plan_prefetches(
        &self,
        state: &mut ReaderState,
        accessed: usize,
    ) -> Vec<IndexedChunk> {
        let chunks = state.index.block_map.len();
        if !state.pass.finished || chunks < 2 || state.strategy.last() == Some(accessed) {
            return Vec::new();
        }
        state.strategy.on_access(accessed);
        let degree = self.options.prefetch_degree();
        let targets = state.strategy.prefetch(degree, chunks);

        // Cap the decoded-but-unconsumed backlog: let go of finished chunks
        // the strategy no longer predicts (random access moved elsewhere) —
        // and the reader is not about to take: the pass's last chunks wait
        // here for a first read that follows it closely, beside the tasks of
        // the ranges it ran past.
        if state.pass.chunks.len() >= degree.saturating_mul(2) {
            let points = state.index.block_map.points();
            let wanted = accessed..targets.end;
            let unpredicted: Vec<u64> = state
                .pass
                .chunks
                .iter()
                .filter(|(key, chunk)| {
                    let predicted = |index: usize| points[index].compressed_bit_offset == **key;
                    chunk.is_finished() && !wanted.clone().any(predicted)
                })
                .map(|(&key, _)| key)
                .collect();
            for key in unpredicted {
                self.evict(state, key);
            }
            if state.pass.chunks.len() >= degree.saturating_mul(2) {
                return Vec::new();
            }
        }

        let planned: Vec<IndexedChunk> = targets
            .map(|index| self.indexed_chunk(state, index))
            .filter(|chunk| {
                let key = chunk.point.compressed_bit_offset;
                !state.pass.chunks.contains_key(&key) && !state.resolved_cache.contains(&key)
            })
            .collect();
        for chunk in &planned {
            let key = chunk.point.compressed_bit_offset;
            state.pass.chunks.insert(key, ChunkState::Decoding);
            self.metrics
                .index_prefetch_issued(key, chunk.point.uncompressed_size);
        }
        planned
    }

    /// Puts the decodes of `planned` on the pool.  Looks their window
    /// *records* up here, on the reader's thread and outside the state lock
    /// — a record may still be compressing, on the pool a task would wait for
    /// it on — and leaves the 32 KiB inflation itself to the worker instead
    /// of delaying the read this prefetch is meant to hide.
    pub(crate) fn spawn_prefetches(
        self: &Arc<Self>,
        planned: Vec<IndexedChunk>,
        windows: &rgz_index::WindowMap,
    ) {
        for chunk in planned {
            let record = windows.get_compressed(chunk.point.compressed_bit_offset);
            let shared = Arc::clone(self);
            // The table, not the handle, is where the result goes.
            drop(
                self.spawner
                    .submit(move || shared.run_prefetch_task(&chunk, record)),
            );
        }
    }

    /// A pool task: decodes `chunk` ahead of the reader and enters the bytes,
    /// or why there are none, into the table.
    fn run_prefetch_task(&self, chunk: &IndexedChunk, record: Option<Arc<CompressedWindow>>) {
        let key = chunk.point.compressed_bit_offset;
        let _unwinding = FailOnUnwind { shared: self, key };
        let _stage_timer = self.metrics.stage_prefetch_decode.start_timer();
        let decoded = self.decode_indexed(Stage::PrefetchDecode, chunk, || {
            let Some(record) = record else {
                return Ok(None);
            };
            let _inflate = self.trace().span(Stage::WindowInflate).chunk(key);
            record.decompress().map(Arc::new).map(Some)
        });
        self.finish(
            key,
            match decoded {
                Ok(data) => ChunkState::Prefetched(data),
                Err(error) => ChunkState::Failed(error),
            },
        );
    }
}
