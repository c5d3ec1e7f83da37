//! The gzip container format (RFC 1952) plus the Blocked GNU Zip Format
//! (BGZF) specialisation, a single-threaded decoder that serves as the
//! "GNU gzip" baseline, and compressor front-ends that emulate the tools the
//! paper's evaluation feeds to rapidgzip (`gzip`, `pigz`, `bgzip`, `igzip`).

pub mod bgzf;
pub mod decoder;
pub mod frontend;
pub mod header;
pub mod writer;

pub use bgzf::{is_bgzf_header, BgzfWriter, BGZF_EOF_BLOCK};
pub use decoder::{decompress, decompress_with_info, GzipDecoder, MemberInfo};
pub use frontend::{CompressorFrontend, FrontendKind};
pub use header::{next_member, parse_footer, parse_header, GzipFooter, GzipHeader, OS_UNIX};
pub use writer::GzipWriter;

use rgz_deflate::DeflateError;

/// Errors produced while reading gzip containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GzipError {
    /// The stream does not start with the gzip magic bytes 0x1F 0x8B.
    BadMagic { found: [u8; 2] },
    /// The compression-method byte was not 8 (DEFLATE).
    UnsupportedCompressionMethod(u8),
    /// Reserved FLG bits were set.
    ReservedFlagsSet(u8),
    /// The optional header CRC16 did not match.
    HeaderCrcMismatch { stored: u16, computed: u16 },
    /// The stream ended inside the header, body, or footer.
    Truncated,
    /// The footer CRC32 does not match the decompressed data.
    ChecksumMismatch { stored: u32, computed: u32 },
    /// The footer ISIZE does not match the decompressed size modulo 2^32.
    SizeMismatch { stored: u32, computed: u32 },
    /// The embedded DEFLATE stream was invalid.
    Deflate(DeflateError),
    /// Trailing garbage that is not another gzip member.
    TrailingGarbage { offset: u64 },
}

impl std::fmt::Display for GzipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GzipError::BadMagic { found } => {
                write!(f, "not a gzip stream (magic bytes {found:02X?})")
            }
            GzipError::UnsupportedCompressionMethod(m) => {
                write!(f, "unsupported compression method {m}")
            }
            GzipError::ReservedFlagsSet(flags) => {
                write!(f, "reserved gzip FLG bits set: {flags:#04x}")
            }
            GzipError::HeaderCrcMismatch { stored, computed } => {
                write!(
                    f,
                    "header CRC mismatch: stored {stored:#06x}, computed {computed:#06x}"
                )
            }
            GzipError::Truncated => write!(f, "truncated gzip stream"),
            GzipError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "CRC-32 mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            GzipError::SizeMismatch { stored, computed } => {
                write!(f, "ISIZE mismatch: stored {stored}, computed {computed}")
            }
            GzipError::Deflate(e) => write!(f, "invalid DEFLATE data: {e}"),
            GzipError::TrailingGarbage { offset } => {
                write!(f, "trailing non-gzip data at byte offset {offset}")
            }
        }
    }
}

impl std::error::Error for GzipError {}

impl From<DeflateError> for GzipError {
    fn from(error: DeflateError) -> Self {
        GzipError::Deflate(error)
    }
}

impl From<rgz_bitio::BitIoError> for GzipError {
    fn from(_: rgz_bitio::BitIoError) -> Self {
        GzipError::Truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(GzipError::BadMagic { found: [0, 1] }
            .to_string()
            .contains("magic"));
        assert!(GzipError::Truncated.to_string().contains("truncated"));
        assert!(GzipError::ChecksumMismatch {
            stored: 1,
            computed: 2
        }
        .to_string()
        .contains("CRC-32"));
    }

    #[test]
    fn full_round_trip_through_public_api() {
        let data = b"hello gzip world".repeat(1000);
        let compressed = GzipWriter::default().compress(&data);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }
}
