//! Single-threaded gzip decoding.
//!
//! This is the "GNU gzip" stand-in baseline used throughout the benchmark
//! harness and also the reference decoder the parallel implementation is
//! validated against in tests.

use rgz_bitio::BitReader;
use rgz_deflate::inflate;

use crate::header::{next_member, parse_footer, parse_header, GzipHeader};
use crate::GzipError;

/// Information about one gzip member of a file.
#[derive(Debug, Clone)]
pub struct MemberInfo {
    /// Parsed member header.
    pub header: GzipHeader,
    /// Byte offset of the member's first header byte.
    pub compressed_start: u64,
    /// Byte offset one past the member's footer.
    pub compressed_end: u64,
    /// Offset of the member's data in the decompressed output.
    pub uncompressed_start: u64,
    /// Decompressed size of the member.
    pub uncompressed_size: u64,
    /// Number of DEFLATE blocks in the member.
    pub block_count: usize,
}

/// A single-threaded gzip decoder: one member after another, each checked
/// against its footer unless told otherwise, for as long as
/// [`next_member`] finds another.
#[derive(Debug, Clone)]
pub struct GzipDecoder {
    verify_checksums: bool,
}

impl Default for GzipDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl GzipDecoder {
    /// Creates a decoder that verifies CRC-32 and ISIZE footers.
    pub fn new() -> Self {
        Self {
            verify_checksums: true,
        }
    }

    /// Disables footer verification (useful for decoding intentionally
    /// corrupted test data).
    pub fn without_checksum_verification(mut self) -> Self {
        self.verify_checksums = false;
        self
    }

    /// Decompresses a complete (possibly multi-member) gzip file.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, GzipError> {
        Ok(self.decompress_with_info(data)?.0)
    }

    /// Decompresses a complete gzip file and reports per-member metadata.
    pub fn decompress_with_info(
        &self,
        data: &[u8],
    ) -> Result<(Vec<u8>, Vec<MemberInfo>), GzipError> {
        let mut reader = BitReader::new(data);
        let mut out: Vec<u8> = Vec::new();
        let mut members = Vec::new();
        let mut compressed_start = 0;
        let mut next = Some(parse_header(&mut reader)?);
        while let Some(header) = next {
            let member_start = out.len();
            // One inflate call covers exactly one member.
            let outcome = inflate(&mut reader, &[], &mut out, u64::MAX)?;
            if !outcome.stream_ended() {
                return Err(GzipError::Truncated);
            }
            let footer = parse_footer(&mut reader)?;
            let member_data = &out[member_start..];
            if self.verify_checksums {
                let computed = rgz_checksum::crc32(member_data);
                if computed != footer.crc32 {
                    return Err(GzipError::ChecksumMismatch {
                        stored: footer.crc32,
                        computed,
                    });
                }
                let computed_size = member_data.len() as u32;
                if computed_size != footer.uncompressed_size {
                    return Err(GzipError::SizeMismatch {
                        stored: footer.uncompressed_size,
                        computed: computed_size,
                    });
                }
            }
            let compressed_end = reader.position() / 8;
            members.push(MemberInfo {
                header,
                compressed_start,
                compressed_end,
                uncompressed_start: member_start as u64,
                uncompressed_size: member_data.len() as u64,
                block_count: outcome.blocks.len(),
            });
            compressed_start = compressed_end;
            next = next_member(&mut reader, true)?;
        }
        Ok((out, members))
    }
}

/// Decompresses a complete gzip file with checksum verification.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, GzipError> {
    GzipDecoder::new().decompress(data)
}

/// Decompresses a complete gzip file and returns per-member metadata.
pub fn decompress_with_info(data: &[u8]) -> Result<(Vec<u8>, Vec<MemberInfo>), GzipError> {
    GzipDecoder::new().decompress_with_info(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::GzipWriter;
    use rgz_deflate::{CompressionLevel, CompressorOptions};

    #[test]
    fn decodes_single_member() {
        let data = b"a small payload".repeat(100);
        let compressed = GzipWriter::default().compress(&data);
        let (restored, members) = decompress_with_info(&compressed).unwrap();
        assert_eq!(restored, data);
        assert_eq!(members.len(), 1);
        assert_eq!(members[0].uncompressed_size, data.len() as u64);
        assert_eq!(members[0].compressed_start, 0);
        assert_eq!(members[0].compressed_end, compressed.len() as u64);
    }

    #[test]
    fn decodes_multi_member_files() {
        let part_a = b"first member".repeat(50);
        let part_b = b"second member".repeat(50);
        let part_c: Vec<u8> = vec![];
        let writer = GzipWriter::default();
        let mut compressed = writer.compress(&part_a);
        compressed.extend(writer.compress(&part_b));
        compressed.extend(writer.compress(&part_c));
        let (restored, members) = decompress_with_info(&compressed).unwrap();
        let mut expected = part_a.clone();
        expected.extend_from_slice(&part_b);
        assert_eq!(restored, expected);
        assert_eq!(members.len(), 3);
        assert_eq!(members[2].uncompressed_size, 0);
    }

    #[test]
    fn rejects_corrupted_checksum() {
        let data = b"check me".repeat(100);
        let mut compressed = GzipWriter::default().compress(&data);
        let length = compressed.len();
        compressed[length - 5] ^= 0xFF; // flip a CRC byte
        assert!(matches!(
            decompress(&compressed),
            Err(GzipError::ChecksumMismatch { .. })
        ));
        // Without verification the data still comes back.
        assert_eq!(
            GzipDecoder::new()
                .without_checksum_verification()
                .decompress(&compressed)
                .unwrap(),
            data
        );
    }

    #[test]
    fn rejects_wrong_isize() {
        let data = b"size matters".repeat(10);
        let mut compressed = GzipWriter::default().compress(&data);
        let length = compressed.len();
        compressed[length - 1] ^= 0x01;
        assert!(matches!(
            decompress(&compressed),
            Err(GzipError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let data = b"truncate me".repeat(200);
        let compressed = GzipWriter::default().compress(&data);
        for cut in [3usize, 11, compressed.len() / 2, compressed.len() - 3] {
            assert!(decompress(&compressed[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn rejects_trailing_garbage_but_accepts_zero_padding() {
        let data = b"payload".repeat(30);
        let compressed = GzipWriter::default().compress(&data);

        let mut padded = compressed.clone();
        padded.extend_from_slice(&[0u8; 512]);
        assert_eq!(decompress(&padded).unwrap(), data);

        let mut garbage = compressed.clone();
        garbage.extend_from_slice(b"THIS IS NOT GZIP DATA AT ALL, NOT EVEN CLOSE");
        assert!(matches!(
            decompress(&garbage),
            Err(GzipError::TrailingGarbage { .. })
        ));
    }

    #[test]
    fn decodes_stored_only_members() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 256) as u8).collect();
        let writer = GzipWriter::new(CompressorOptions {
            level: CompressionLevel::Stored,
            ..Default::default()
        });
        let compressed = writer.compress(&data);
        assert!(compressed.len() > data.len());
        assert_eq!(decompress(&compressed).unwrap(), data);
    }
}
