//! Error type of the parallel reader.

use rgz_deflate::DeflateError;
use rgz_gzip::GzipError;
use rgz_index::IndexError;
use rgz_window::WindowError;

/// Errors produced by the parallel gzip reader.
#[derive(Debug)]
pub enum CoreError {
    /// Reading the compressed input failed.
    Io(std::io::Error),
    /// The gzip container was malformed.
    Gzip(GzipError),
    /// A DEFLATE stream was malformed.
    Deflate(DeflateError),
    /// Importing an index failed.
    Index(IndexError),
    /// A stored seek-point window failed validation when it was needed.
    Window(WindowError),
    /// An imported index does not match the file (e.g. decoding from a seek
    /// point failed).
    IndexMismatch {
        /// The seek point's compressed bit offset.
        compressed_bit_offset: u64,
    },
    /// A gzip member's decompressed data does not hash to the CRC-32 its
    /// trailer stores (detected by the pipelined verification fold).
    ChecksumMismatch {
        /// Zero-based index of the offending member in the file.
        member: u64,
        /// CRC-32 stored in the member's trailer.
        expected: u32,
        /// CRC-32 folded from the decompressed chunk fragments.
        actual: u32,
    },
    /// A gzip member's decompressed length does not match the ISIZE
    /// (size modulo 2^32) its trailer stores.
    MemberSizeMismatch {
        /// Zero-based index of the offending member in the file.
        member: u64,
        /// ISIZE stored in the member's trailer.
        expected: u32,
        /// Actual decompressed length of the member.
        actual: u64,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Io(e) => write!(f, "I/O error: {e}"),
            CoreError::Gzip(e) => write!(f, "gzip error: {e}"),
            CoreError::Deflate(e) => write!(f, "DEFLATE error: {e}"),
            CoreError::Index(e) => write!(f, "index error: {e}"),
            CoreError::Window(e) => write!(f, "seek-point window error: {e}"),
            CoreError::IndexMismatch {
                compressed_bit_offset,
            } => write!(
                f,
                "index does not match the file at compressed bit offset {compressed_bit_offset}"
            ),
            CoreError::ChecksumMismatch {
                member,
                expected,
                actual,
            } => write!(
                f,
                "CRC-32 mismatch in gzip member {member}: trailer stores {expected:#010x}, \
                 decompressed data hashes to {actual:#010x}"
            ),
            CoreError::MemberSizeMismatch {
                member,
                expected,
                actual,
            } => write!(
                f,
                "ISIZE mismatch in gzip member {member}: trailer stores {expected}, \
                 decompressed length is {actual}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<std::io::Error> for CoreError {
    fn from(error: std::io::Error) -> Self {
        CoreError::Io(error)
    }
}

impl From<GzipError> for CoreError {
    fn from(error: GzipError) -> Self {
        CoreError::Gzip(error)
    }
}

impl From<DeflateError> for CoreError {
    fn from(error: DeflateError) -> Self {
        CoreError::Deflate(error)
    }
}

impl From<IndexError> for CoreError {
    fn from(error: IndexError) -> Self {
        CoreError::Index(error)
    }
}

impl From<WindowError> for CoreError {
    fn from(error: WindowError) -> Self {
        CoreError::Window(error)
    }
}

impl From<CoreError> for std::io::Error {
    fn from(error: CoreError) -> Self {
        match error {
            CoreError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let io_error: CoreError = std::io::Error::other("disk on fire").into();
        assert!(io_error.to_string().contains("disk on fire"));
        let gzip_error: CoreError = GzipError::Truncated.into();
        assert!(gzip_error.to_string().contains("gzip"));
        let deflate_error: CoreError = DeflateError::ReservedBlockType.into();
        assert!(deflate_error.to_string().contains("DEFLATE"));
        let index_error: CoreError = IndexError::BadMagic.into();
        assert!(index_error.to_string().contains("index"));
        let window_error: CoreError = WindowError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        }
        .into();
        assert!(window_error.to_string().contains("window"));
        let back_to_io: std::io::Error = CoreError::IndexMismatch {
            compressed_bit_offset: 5,
        }
        .into();
        assert_eq!(back_to_io.kind(), std::io::ErrorKind::InvalidData);
        let checksum = CoreError::ChecksumMismatch {
            member: 3,
            expected: 0xDEADBEEF,
            actual: 0,
        }
        .to_string();
        assert!(checksum.contains("member 3") && checksum.contains("0xdeadbeef"));
        let size = CoreError::MemberSizeMismatch {
            member: 1,
            expected: 10,
            actual: 11,
        }
        .to_string();
        assert!(size.contains("ISIZE") && size.contains("member 1"));
    }
}
