//! Writing gzip members.

use rgz_bitio::BitWriter;
use rgz_checksum::Crc32;
use rgz_deflate::{CompressorOptions, DeflateCompressor};

use crate::header::{GzipFooter, GzipHeader, OS_UNIX};

/// Writes single- or multi-member gzip files using the pure-Rust DEFLATE
/// compressor from `rgz-deflate`.
#[derive(Debug, Clone)]
pub struct GzipWriter {
    options: CompressorOptions,
}

impl Default for GzipWriter {
    fn default() -> Self {
        Self::new(CompressorOptions::default())
    }
}

impl GzipWriter {
    /// Creates a writer with explicit compressor options.
    pub fn new(options: CompressorOptions) -> Self {
        Self { options }
    }

    /// The compressor options this writer uses.
    pub fn options(&self) -> &CompressorOptions {
        &self.options
    }

    /// Compresses `data` into a single gzip member.
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        let header = GzipHeader {
            operating_system: OS_UNIX,
            ..Default::default()
        };
        let mut out = header.to_bytes();
        let deflate = DeflateCompressor::new(self.options.clone()).compress(data);
        out.extend_from_slice(&deflate);
        let mut crc = Crc32::new();
        crc.update(data);
        let footer = GzipFooter {
            crc32: crc.finalize(),
            uncompressed_size: data.len() as u32,
        };
        out.extend_from_slice(&footer.to_bytes());
        out
    }

    /// Compresses each input slice into its own gzip member and concatenates
    /// the members (a multi-member gzip file, like `cat a.gz b.gz`).
    pub fn compress_members(&self, members: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for member in members {
            out.extend(self.compress(member));
        }
        out
    }

    /// Compresses `data` as a single gzip member whose DEFLATE stream is made
    /// of independently compressed chunks separated by empty stored blocks —
    /// the structure `pigz` produces (§5 "Parallel Gzip Compression").
    pub fn compress_pigz_like(&self, data: &[u8], chunk_size: usize) -> Vec<u8> {
        assert!(chunk_size > 0);
        let header = GzipHeader {
            operating_system: OS_UNIX,
            ..Default::default()
        };
        let mut out = header.to_bytes();

        let compressor = DeflateCompressor::new(self.options.clone());
        let mut writer = BitWriter::with_capacity(data.len() / 2 + 64);
        let mut chunks = data.chunks(chunk_size).peekable();
        if data.is_empty() {
            compressor.compress_into(&[], &mut writer, true);
        }
        while let Some(chunk) = chunks.next() {
            let is_last = chunks.peek().is_none();
            // Each chunk is compressed independently (pigz resets the work
            // unit per thread) and never carries the final flag.
            compressor.compress_into(chunk, &mut writer, false);
            // pigz inserts an empty stored block after each chunk to
            // byte-align the independently produced streams; the very last
            // one is the final block of the member.
            rgz_deflate::write_stored_block(&mut writer, &[], is_last);
        }
        out.extend_from_slice(&writer.finish());

        let mut crc = Crc32::new();
        crc.update(data);
        let footer = GzipFooter {
            crc32: crc.finalize(),
            uncompressed_size: data.len() as u32,
        };
        out.extend_from_slice(&footer.to_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{decompress, decompress_with_info};
    use rgz_deflate::{BlockType, CompressionLevel};

    #[test]
    fn compressed_output_carries_header_fields() {
        let written = GzipWriter::default().compress(b"payload");
        let plain = GzipHeader {
            operating_system: OS_UNIX,
            ..Default::default()
        };
        assert_eq!(written[..10], plain.to_bytes());
        // A named header in front of the same member body.
        let named = GzipHeader {
            file_name: Some(b"data.bin".to_vec()),
            ..plain
        };
        let mut compressed = named.to_bytes();
        compressed.extend_from_slice(&written[10..]);
        let (_, members) = decompress_with_info(&compressed).unwrap();
        assert_eq!(
            members[0].header.file_name.as_deref(),
            Some(b"data.bin".as_slice())
        );
        assert_eq!(members[0].header.modification_time, 0);
    }

    #[test]
    fn pigz_like_streams_decode_and_contain_sync_blocks() {
        let data: Vec<u8> = (0..500_000u32)
            .flat_map(|i| format!("{} ", i % 1000).into_bytes())
            .collect();
        let compressed = GzipWriter::default().compress_pigz_like(&data, 64 * 1024);
        assert_eq!(decompress(&compressed).unwrap(), data);

        // The deflate stream must contain empty stored blocks between chunks.
        let mut reader = rgz_bitio::BitReader::new(&compressed);
        let header = crate::header::parse_header(&mut reader).unwrap();
        assert!(header.header_size > 0);
        let mut out = Vec::new();
        let outcome = rgz_deflate::inflate(&mut reader, &[], &mut out, u64::MAX).unwrap();
        let stored_blocks = outcome
            .blocks
            .iter()
            .filter(|b| b.block_type == BlockType::Stored)
            .count();
        assert!(
            stored_blocks >= data.len() / (64 * 1024),
            "missing sync blocks"
        );
    }

    #[test]
    fn pigz_like_empty_input_is_valid() {
        let compressed = GzipWriter::default().compress_pigz_like(&[], 4096);
        assert_eq!(decompress(&compressed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multi_member_files_concatenate() {
        let writer = GzipWriter::new(CompressorOptions {
            level: CompressionLevel::Fast,
            ..Default::default()
        });
        let compressed = writer.compress_members(&[b"one ", b"two ", b"three"]);
        assert_eq!(decompress(&compressed).unwrap(), b"one two three");
    }
}
