//! The indexed_gzip on-disk index format (magic `GZIDX`, versions 0 and 1).
//!
//! indexed_gzip (<https://github.com/pauldmccarthy/indexed_gzip>) exports
//! its `zran` seek-point list as a flat little-endian file:
//!
//! ```text
//! offset  size  field
//! 0       5     magic "GZIDX"
//! 5       1     version (0 or 1)
//! 6       1     reserved flags (must be 0)
//! 7       8     compressed file size      u64 LE
//! 15      8     uncompressed file size    u64 LE
//! 23      4     point spacing             u32 LE
//! 27      4     window size               u32 LE (<= 32768)
//! 31      4     point count               u32 LE
//! 35      ...   point records, then window data blocks
//! ```
//!
//! A point record is `cmp_offset u64 LE, uncmp_offset u64 LE, bits u8`
//! (zran convention: a non-zero `bits` puts the block `bits` bits before
//! `cmp_offset * 8`), plus — in version 1 only — a one-byte flag telling
//! whether the point owns a window data block.  In version 0 every point
//! except those at uncompressed offset zero owns one.  The window data
//! blocks follow the point list in point order, each exactly `window size`
//! bytes, **uncompressed**.

use rgz_index::{DetectedFormat, GzipIndex, IndexError, WINDOW_SIZE};
use rgz_window::CompressedWindow;

use crate::convert::{assemble, bit_offset_from_parts, bit_offset_to_parts, RawSeekPoint};
use crate::ImportedIndex;

const MAGIC: &[u8; 5] = b"GZIDX";
const HEADER_LEN: usize = 5 + 1 + 1 + 8 + 8 + 4 + 4 + 4;

fn read_u64_le(data: &[u8], cursor: &mut usize) -> Result<u64, IndexError> {
    let bytes = data
        .get(*cursor..*cursor + 8)
        .ok_or(IndexError::Truncated)?;
    *cursor += 8;
    Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
}

fn read_u32_le(data: &[u8], cursor: &mut usize) -> Result<u32, IndexError> {
    let bytes = data
        .get(*cursor..*cursor + 4)
        .ok_or(IndexError::Truncated)?;
    *cursor += 4;
    Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
}

fn read_u8(data: &[u8], cursor: &mut usize) -> Result<u8, IndexError> {
    let byte = *data.get(*cursor).ok_or(IndexError::Truncated)?;
    *cursor += 1;
    Ok(byte)
}

/// Parses an indexed_gzip `GZIDX` file into a native index.
pub fn import(data: &[u8]) -> Result<ImportedIndex, IndexError> {
    if rgz_index::detect_format(data) != DetectedFormat::IndexedGzip {
        return Err(IndexError::BadMagic);
    }
    if data.len() < HEADER_LEN {
        return Err(IndexError::Truncated);
    }
    let version = data[5];
    if version > 1 {
        return Err(IndexError::UnsupportedVersion(u32::from(version)));
    }
    if data[6] != 0 {
        return Err(IndexError::InvalidPoint("reserved header flags set"));
    }
    let mut cursor = 7usize;
    let compressed_size = read_u64_le(data, &mut cursor)?;
    let uncompressed_size = read_u64_le(data, &mut cursor)?;
    let _spacing = read_u32_le(data, &mut cursor)?;
    let window_size = read_u32_le(data, &mut cursor)? as usize;
    if window_size > WINDOW_SIZE {
        return Err(IndexError::WindowTooLarge {
            length: window_size as u64,
        });
    }
    let point_count = read_u32_le(data, &mut cursor)? as u64;
    // Bound the declared count before allocating: a point record is at
    // least 17 bytes (18 in version 1).
    let record_len = if version == 0 { 17 } else { 18 };
    let remaining = data.len().saturating_sub(HEADER_LEN);
    if point_count > (remaining / record_len) as u64 {
        return Err(IndexError::PointCountTooLarge { count: point_count });
    }

    // First pass: the fixed-size point records.
    let mut parsed: Vec<(u64, u64, bool)> = Vec::with_capacity(point_count as usize);
    for _ in 0..point_count {
        let cmp_offset = read_u64_le(data, &mut cursor)?;
        let uncmp_offset = read_u64_le(data, &mut cursor)?;
        let bits = read_u8(data, &mut cursor)?;
        let has_window = if version == 0 {
            // Version 0 stores a window for every point that has history.
            uncmp_offset != 0
        } else {
            read_u8(data, &mut cursor)? != 0
        };
        let compressed_bit_offset = bit_offset_from_parts(cmp_offset, u32::from(bits))?;
        parsed.push((compressed_bit_offset, uncmp_offset, has_window));
    }

    // Second pass: the window data blocks, `window_size` bytes each, in
    // point order.
    let mut points = Vec::with_capacity(parsed.len());
    for (compressed_bit_offset, uncompressed_offset, has_window) in parsed {
        let window = if has_window && window_size > 0 {
            let stored = data
                .get(cursor..cursor + window_size)
                .ok_or(IndexError::Truncated)?;
            cursor += window_size;
            // Stored verbatim (the file keeps windows uncompressed); the
            // native exporter recompresses on the way out, exactly as after
            // a native v1 import.
            Some(CompressedWindow::from_window_verbatim(stored))
        } else {
            None
        };
        points.push(RawSeekPoint {
            compressed_bit_offset,
            uncompressed_offset,
            window,
        });
    }
    assemble(
        points,
        compressed_size,
        uncompressed_size,
        DetectedFormat::IndexedGzip,
    )
}

/// Serialises a native index as an indexed_gzip version-1 `GZIDX` file.
///
/// The format requires every window data block to be exactly the header's
/// `window size` (32 KiB here): shorter stored windows — early seek points
/// and span-reduced (sparse) ones — are zero-padded at the *front*, which
/// decodes identically because DEFLATE back-references never reach past the
/// real history.  Points with no window at all are flagged as data-less.
pub fn export(index: &GzipIndex) -> Vec<u8> {
    let points = index.block_map.points();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(1u8); // version
    out.push(0u8); // reserved flags
    out.extend_from_slice(&index.compressed_size.to_le_bytes());
    out.extend_from_slice(&index.effective_uncompressed_size().to_le_bytes());
    // Nominal spacing: the largest gap between successive points (the
    // format's tools only use it as a hint), floored at the window size.
    let spacing = points
        .windows(2)
        .map(|pair| pair[1].uncompressed_offset - pair[0].uncompressed_offset)
        .max()
        .unwrap_or(0)
        .max(WINDOW_SIZE as u64)
        .min(u64::from(u32::MAX)) as u32;
    out.extend_from_slice(&spacing.to_le_bytes());
    out.extend_from_slice(&(WINDOW_SIZE as u32).to_le_bytes());
    out.extend_from_slice(&(points.len() as u32).to_le_bytes());

    let mut windows: Vec<Option<Vec<u8>>> = Vec::with_capacity(points.len());
    for point in points {
        let window = index
            .window_map
            .get_compressed(point.compressed_bit_offset)
            .and_then(|record| record.decompress_padded().ok())
            .filter(|window| !window.is_empty())
            .map(|window| {
                let mut padded = vec![0u8; WINDOW_SIZE - window.len()];
                padded.extend_from_slice(&window);
                padded
            });
        let (cmp_offset, bits) = bit_offset_to_parts(point.compressed_bit_offset);
        out.extend_from_slice(&cmp_offset.to_le_bytes());
        out.extend_from_slice(&point.uncompressed_offset.to_le_bytes());
        out.push(bits as u8);
        out.push(u8::from(window.is_some()));
        windows.push(window);
    }
    for window in windows.into_iter().flatten() {
        out.extend_from_slice(&window);
    }
    out
}
