//! The table a pass decoded a file by, out of the index it exports: shared
//! by the integration tests of both packages and `table9_verified_random_access`
//! (each includes this file by path).

use rgz_index::{BlockMap, ChecksumMap, GzipIndex, PointChecksums, SeekPoint};

/// The seek-point table of the pass at `chunk_size` that exported `index`:
/// one point per chunk.  The export splits a chunk at a seek point every MiB
/// or so of output; this merges those back into the chunk, with their CRC
/// fragments folded to the chunk's (`PointChecksums::append`) — a chunk's
/// cuts lie in the compressed range its start does, and every chunk starts
/// in a range of its own.  For reads of chunks longer than a MiB, which a
/// pass's table, split at the cuts, no longer has.
pub fn chunk_table(index: &GzipIndex, chunk_size: usize) -> GzipIndex {
    let range = |point: &SeekPoint| point.compressed_bit_offset / (chunk_size as u64 * 8);
    let mut chunks: Vec<(SeekPoint, Option<PointChecksums>)> = Vec::new();
    for point in index.block_map.points() {
        let checksums = index.checksum_map.get(point.compressed_bit_offset);
        let checksums = checksums.map(|checksums| (*checksums).clone());
        let Some((chunk, merged)) = chunks
            .last_mut()
            .filter(|(chunk, _)| range(chunk) == range(point))
        else {
            chunks.push((point.clone(), checksums));
            continue;
        };
        chunk.uncompressed_size += point.uncompressed_size;
        *merged = merged.take().zip(checksums).map(|(mut merged, next)| {
            merged.append(&next);
            merged
        });
    }
    let mut table = GzipIndex {
        block_map: BlockMap::new(),
        checksum_map: ChecksumMap::new(),
        ..index.clone()
    };
    for (point, checksums) in chunks {
        if let Some(checksums) = checksums {
            table
                .checksum_map
                .insert(point.compressed_bit_offset, checksums);
        }
        table.block_map.push(point);
    }
    table
}
