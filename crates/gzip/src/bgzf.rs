//! Blocked GNU Zip Format (BGZF) support.
//!
//! BGZF files (§3.4.4 of the paper, used by `bgzip`/htslib) are ordinary
//! multi-member gzip files whose members carry an FEXTRA subfield `BC`
//! storing the compressed size of the member. That metadata lets a reader
//! jump from member to member without decoding, which is the trivially
//! parallel fast path the paper describes.

use rgz_checksum::crc32;
use rgz_deflate::{CompressorOptions, DeflateCompressor};

use crate::header::{GzipFooter, GzipHeader, OS_UNIX};

/// Size of a BGZF member's header: the ten fixed bytes, XLEN and the one
/// `BC` subfield.
pub const BGZF_HEADER_SIZE: usize = 18;

/// Maximum number of *input* bytes per BGZF block (the value htslib uses so
/// that the compressed block always fits the 16-bit BSIZE field).
pub const MAX_BGZF_INPUT_BLOCK: usize = 0xFF00;

/// The canonical 28-byte BGZF end-of-file marker block.
pub const BGZF_EOF_BLOCK: [u8; 28] = [
    0x1F, 0x8B, 0x08, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFF, 0x06, 0x00, 0x42, 0x43, 0x02, 0x00,
    0x1B, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// Returns the BSIZE value (total member size − 1) if the parsed gzip header
/// is a BGZF block header.
pub fn is_bgzf_header(header: &GzipHeader) -> Option<u16> {
    let extra = header.extra_field.as_deref()?;
    let mut rest = extra;
    while rest.len() >= 4 {
        let si1 = rest[0];
        let si2 = rest[1];
        let sub_length = u16::from_le_bytes([rest[2], rest[3]]) as usize;
        let payload = rest.get(4..4 + sub_length)?;
        if si1 == b'B' && si2 == b'C' && sub_length == 2 {
            return Some(u16::from_le_bytes([payload[0], payload[1]]));
        }
        rest = &rest[4 + sub_length..];
    }
    None
}

/// Appends `block` to `out` as one BGZF member — a header whose `BC`
/// subfield holds the member's size, the deflate stream `compressor` makes of
/// the block, the trailer — and returns the block's CRC-32.
pub fn write_bgzf_member(
    compressor: &DeflateCompressor,
    block: &[u8],
    modification_time: u32,
    extra_flags: u8,
    out: &mut Vec<u8>,
) -> u32 {
    let deflate = compressor.compress(block);
    let header = GzipHeader {
        modification_time,
        extra_flags,
        operating_system: OS_UNIX,
        extra_field: Some(vec![b'B', b'C', 2, 0, 0, 0]),
        ..Default::default()
    };
    let mut header_bytes = header.to_bytes();
    debug_assert_eq!(header_bytes.len(), BGZF_HEADER_SIZE);
    let total_size = header_bytes.len() + deflate.len() + 8;
    assert!(total_size <= u16::MAX as usize + 1, "BGZF block too large");
    // BSIZE (total member size - 1) goes into the last two bytes of the
    // extra field.
    let bsize = (total_size - 1) as u16;
    header_bytes[BGZF_HEADER_SIZE - 2..].copy_from_slice(&bsize.to_le_bytes());

    let footer = GzipFooter {
        crc32: crc32(block),
        uncompressed_size: block.len() as u32,
    };
    out.extend_from_slice(&header_bytes);
    out.extend_from_slice(&deflate);
    out.extend_from_slice(&footer.to_bytes());
    footer.crc32
}

/// Writes BGZF files: independently compressed gzip members of
/// [`MAX_BGZF_INPUT_BLOCK`] input bytes with the `BC` extra field, terminated
/// by the canonical EOF block.
#[derive(Debug, Clone, Default)]
pub struct BgzfWriter {
    options: CompressorOptions,
}

impl BgzfWriter {
    /// Creates a writer with explicit compressor options.
    pub fn new(options: CompressorOptions) -> Self {
        Self { options }
    }

    /// Compresses `data` into a BGZF file.
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        let compressor = DeflateCompressor::new(self.options.clone());
        let mut out = Vec::new();
        for block in data.chunks(MAX_BGZF_INPUT_BLOCK) {
            write_bgzf_member(&compressor, block, 0, 0, &mut out);
        }
        if data.is_empty() {
            write_bgzf_member(&compressor, &[], 0, 0, &mut out);
        }
        out.extend_from_slice(&BGZF_EOF_BLOCK);
        out
    }
}

/// Scans a BGZF file and returns the byte offset of every block, using only
/// the `BC` metadata (no decompression).
pub fn block_offsets(data: &[u8]) -> Result<Vec<u64>, crate::GzipError> {
    let mut offsets = Vec::new();
    let mut offset = 0usize;
    while offset + 18 <= data.len() {
        let mut reader = rgz_bitio::BitReader::new(&data[offset..]);
        let header = crate::header::parse_header(&mut reader)?;
        let Some(bsize) = is_bgzf_header(&header) else {
            return Err(crate::GzipError::TrailingGarbage {
                offset: offset as u64,
            });
        };
        offsets.push(offset as u64);
        offset += bsize as usize + 1;
    }
    Ok(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{decompress, decompress_with_info};

    #[test]
    fn eof_block_is_a_valid_empty_member() {
        let mut reader = rgz_bitio::BitReader::new(&BGZF_EOF_BLOCK);
        let header = crate::header::parse_header(&mut reader).unwrap();
        assert_eq!(is_bgzf_header(&header), Some(27));
        assert_eq!(decompress(&BGZF_EOF_BLOCK).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn bgzf_files_round_trip_and_are_multi_member() {
        let data: Vec<u8> = (0..300_000u32)
            .flat_map(|i| format!("row {}\n", i % 5000).into_bytes())
            .collect();
        let compressed = BgzfWriter::default().compress(&data);
        let (restored, members) = decompress_with_info(&compressed).unwrap();
        assert_eq!(restored, data);
        let expected_blocks = data.len().div_ceil(MAX_BGZF_INPUT_BLOCK);
        assert_eq!(members.len(), expected_blocks + 1); // + EOF block
        for member in &members {
            assert!(is_bgzf_header(&member.header).is_some());
        }
    }

    #[test]
    fn block_offsets_match_member_starts() {
        let data = vec![42u8; 200_000];
        let compressed = BgzfWriter::default().compress(&data);
        let offsets = block_offsets(&compressed).unwrap();
        let (_, members) = decompress_with_info(&compressed).unwrap();
        let member_starts: Vec<u64> = members.iter().map(|m| m.compressed_start).collect();
        assert_eq!(offsets, member_starts);
    }

    #[test]
    fn non_bgzf_headers_are_detected() {
        let plain = crate::GzipWriter::default().compress(b"not bgzf");
        let mut reader = rgz_bitio::BitReader::new(&plain);
        let header = crate::header::parse_header(&mut reader).unwrap();
        assert_eq!(is_bgzf_header(&header), None);
        assert!(block_offsets(&plain).is_err());
    }
}
