//! The on-disk / in-memory record of one seek-point window.

use rgz_bitio::BitReader;
use rgz_checksum::crc32;
use rgz_deflate::{
    inflate_limited, CompressionLevel, CompressorOptions, DeflateCompressor, DeflateError,
};

use crate::WINDOW_SIZE;

/// Bit flags of a [`CompressedWindow`] record (the index format's flags byte).
pub mod flags {
    /// The payload is a raw DEFLATE stream; unset means the window bytes are
    /// stored verbatim (chosen when compression would not shrink them).
    pub const COMPRESSED: u8 = 0b0000_0001;
    /// The window was sparsified: unreferenced leading bytes were dropped and
    /// unreferenced interior bytes zeroed.
    pub const SPARSE: u8 = 0b0000_0010;
    /// All flag bits with a defined meaning.
    pub const KNOWN: u8 = COMPRESSED | SPARSE;
}

/// Upper bound on a stored window payload accepted at import time.  The
/// writer never stores a payload larger than the window itself (it falls back
/// to verbatim bytes), so anything bigger indicates corruption.
pub const MAX_WINDOW_PAYLOAD: usize = WINDOW_SIZE;

/// Errors from decompressing or validating a stored window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowError {
    /// The decompressed window does not match its stored CRC-32.
    ChecksumMismatch {
        /// Checksum stored alongside the window.
        expected: u32,
        /// Checksum of the bytes actually produced.
        actual: u32,
    },
    /// The decompressed window has the wrong length.
    LengthMismatch {
        /// Length stored alongside the window.
        expected: u32,
        /// Length of the bytes actually produced.
        actual: u32,
    },
    /// The stored DEFLATE payload is malformed.
    Deflate(DeflateError),
    /// A declared length exceeds the 32 KiB window bound.
    TooLarge {
        /// The offending length.
        length: usize,
    },
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::ChecksumMismatch { expected, actual } => write!(
                f,
                "window checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
            ),
            WindowError::LengthMismatch { expected, actual } => write!(
                f,
                "window length mismatch: stored {expected}, decompressed {actual}"
            ),
            WindowError::Deflate(e) => write!(f, "stored window is not valid DEFLATE: {e}"),
            WindowError::TooLarge { length } => write!(
                f,
                "window length {length} exceeds the {WINDOW_SIZE} byte bound"
            ),
        }
    }
}

impl std::error::Error for WindowError {}

impl From<DeflateError> for WindowError {
    fn from(error: DeflateError) -> Self {
        WindowError::Deflate(error)
    }
}

/// One stored window: a (possibly sparsified, possibly deflate-compressed)
/// copy of the up-to-32 KiB of decompressed data preceding a seek point.
///
/// The window always stays aligned to the *end* of the 32 KiB marker space:
/// sparsification only ever drops leading bytes and zeroes interior ones, so
/// the decoders' "window occupies the last `len` offsets" convention holds
/// for masked windows exactly as it does for full ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedWindow {
    /// Flag bits (see [`flags`]).
    pub flags: u8,
    /// Length of the full window before sparsification.
    pub original_length: u32,
    /// Length of the (masked) window the payload decodes to.
    pub window_length: u32,
    /// CRC-32 of the (masked) window bytes.
    pub checksum: u32,
    /// DEFLATE stream ([`flags::COMPRESSED`]) or verbatim window bytes.
    pub payload: Vec<u8>,
}

fn window_tail(window: &[u8]) -> &[u8] {
    &window[window.len().saturating_sub(WINDOW_SIZE)..]
}

fn compressor() -> DeflateCompressor {
    DeflateCompressor::new(CompressorOptions {
        level: CompressionLevel::Default,
        // One DEFLATE block per window: windows are at most 32 KiB.
        block_size: WINDOW_SIZE,
        force_dynamic: false,
    })
}

/// A window held as the bytes of it that a decode from its seek point
/// references: runs in marker space, each with its bytes, of a window of
/// known length.  The in-memory form of a sparse record — what a random-access
/// reader keeps of an interior point's window — rebuilt into a window without
/// an inflate, and turned into a record ([`Self::record`]) without a deflate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseWindow {
    /// Length of the window it was cut from.
    length: usize,
    /// Sorted marker-space `(offset, length)` runs, inside the window: both
    /// at most 32 Ki, so two bytes each.
    runs: Vec<(u16, u16)>,
    /// The runs' bytes, one after another.
    bytes: Vec<u8>,
}

impl SparseWindow {
    /// Keeps the bytes of the last 32 KiB of `window` named by `usage`
    /// (sorted marker-space `(offset, length)` runs, as produced by
    /// [`rgz_deflate::WindowUsage::intervals`]); runs before the window's
    /// first byte are clipped off.
    pub fn new(window: &[u8], usage: &[(u32, u32)]) -> Self {
        let window = window_tail(window);
        let base = WINDOW_SIZE - window.len();
        let mut runs = Vec::with_capacity(usage.len());
        let mut bytes = Vec::new();
        for &(offset, length) in usage {
            let start = (offset as usize).max(base);
            let end = (offset as usize + length as usize).min(WINDOW_SIZE);
            if start < end {
                runs.push((start as u16, (end - start) as u16));
                bytes.extend_from_slice(&window[start - base..end - base]);
            }
        }
        Self {
            length: window.len(),
            runs,
            bytes,
        }
    }

    /// Bytes held: the runs' bytes and their bounds.
    pub fn held_bytes(&self) -> usize {
        self.bytes.len() + self.runs.len() * std::mem::size_of::<(u16, u16)>()
    }

    /// The window's bytes from the first run on, every byte outside a run
    /// zero: what a sparse record stores.
    fn masked(&self) -> Vec<u8> {
        let Some(&(first, _)) = self.runs.first() else {
            return Vec::new();
        };
        let mut masked = vec![0u8; WINDOW_SIZE - first as usize];
        let mut bytes = self.bytes.as_slice();
        for &(offset, length) in &self.runs {
            let (run, rest) = bytes.split_at(length as usize);
            let start = usize::from(offset - first);
            masked[start..start + run.len()].copy_from_slice(run);
            bytes = rest;
        }
        masked
    }

    /// The window it was cut from, every byte outside a run zero: all a
    /// decode from its seek point needs.
    pub fn window(&self) -> Vec<u8> {
        let masked = self.masked();
        let mut window = vec![0u8; self.length - masked.len()];
        window.extend_from_slice(&masked);
        window
    }

    /// The sparse record of the window, its payload not deflated yet:
    /// [`CompressedWindow::recompressed`] deflates it.
    pub fn record(&self) -> CompressedWindow {
        CompressedWindow::verbatim(self.masked(), flags::SPARSE, self.length)
    }
}

impl CompressedWindow {
    /// Stores the last 32 KiB of `window` without sparsification.
    pub fn from_window(window: &[u8]) -> Self {
        let window = window_tail(window);
        Self::verbatim(window.to_vec(), 0, window.len()).deflated()
    }

    /// Stores the last 32 KiB of `window` verbatim, skipping compression.
    ///
    /// This keeps bulk ingestion (the v1 index import path) a cheap memcpy
    /// per window; consumers that want the record small (the index exporter)
    /// recompress such records later via [`CompressedWindow::recompressed`],
    /// off the critical path.
    pub fn from_window_verbatim(window: &[u8]) -> Self {
        let window = window_tail(window);
        Self::verbatim(window.to_vec(), 0, window.len())
    }

    /// Stores the last 32 KiB of `window`, keeping only the bytes named by
    /// `usage` (sorted `(offset, length)` runs in marker space, as produced
    /// by [`rgz_deflate::WindowUsage::intervals`]): leading unreferenced
    /// bytes are dropped, all other unreferenced bytes zeroed.
    pub fn from_window_sparse(window: &[u8], usage: &[(u32, u32)]) -> Self {
        SparseWindow::new(window, usage).record().deflated()
    }

    /// A record whose payload is `window` as it is.
    fn verbatim(window: Vec<u8>, record_flags: u8, original_length: usize) -> Self {
        debug_assert!(window.len() <= original_length && original_length <= WINDOW_SIZE);
        Self {
            flags: record_flags,
            original_length: original_length as u32,
            window_length: window.len() as u32,
            checksum: crc32(&window),
            payload: window,
        }
    }

    /// The record deflated, or as it is if that does not shrink it.
    fn deflated(self) -> Self {
        self.recompressed().unwrap_or(self)
    }

    /// Deflates a record stored verbatim — whole or sparse: the lengths and
    /// checksum are of the window bytes, which stay what they are — and
    /// returns `None` when the record is already compressed, empty, or
    /// incompressible.
    pub fn recompressed(&self) -> Option<Self> {
        if self.is_compressed() || self.payload.is_empty() {
            return None;
        }
        let compressed = compressor().compress(&self.payload);
        if compressed.len() >= self.payload.len() {
            return None;
        }
        Some(Self {
            flags: self.flags | flags::COMPRESSED,
            original_length: self.original_length,
            window_length: self.window_length,
            checksum: self.checksum,
            payload: compressed,
        })
    }

    /// Whether the payload is deflate-compressed.
    pub fn is_compressed(&self) -> bool {
        self.flags & flags::COMPRESSED != 0
    }

    /// Whether the window was sparsified.
    pub fn is_sparse(&self) -> bool {
        self.flags & flags::SPARSE != 0
    }

    /// Number of bytes this record actually holds in memory / on disk.
    pub fn stored_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Structural validation applied before trusting a record read from an
    /// untrusted index file.  Rejects declared lengths beyond the 32 KiB
    /// window bound and payloads that cannot belong to a valid record.
    pub fn validate(&self) -> Result<(), WindowError> {
        let window_length = self.window_length as usize;
        let original_length = self.original_length as usize;
        if window_length > WINDOW_SIZE || original_length > WINDOW_SIZE {
            return Err(WindowError::TooLarge {
                length: window_length.max(original_length),
            });
        }
        if self.payload.len() > MAX_WINDOW_PAYLOAD {
            return Err(WindowError::TooLarge {
                length: self.payload.len(),
            });
        }
        if window_length > original_length {
            return Err(WindowError::LengthMismatch {
                expected: self.original_length,
                actual: self.window_length,
            });
        }
        if !self.is_compressed() && self.payload.len() != window_length {
            return Err(WindowError::LengthMismatch {
                expected: self.window_length,
                actual: self.payload.len() as u32,
            });
        }
        Ok(())
    }

    /// Recovers the (masked) window bytes, verifying length and checksum.
    pub fn decompress(&self) -> Result<Vec<u8>, WindowError> {
        self.validate()?;
        let window = if self.is_compressed() {
            let mut reader = BitReader::new(&self.payload);
            let mut window = Vec::with_capacity(self.window_length as usize);
            // The payload may come from a hostile index file: bound the
            // decode at the declared length so a crafted stream cannot
            // balloon into tens of megabytes before the checks below run.
            inflate_limited(
                &mut reader,
                &[],
                &mut window,
                u64::MAX,
                self.window_length as usize,
            )?;
            window
        } else {
            self.payload.clone()
        };
        if window.len() != self.window_length as usize {
            return Err(WindowError::LengthMismatch {
                expected: self.window_length,
                actual: window.len() as u32,
            });
        }
        let actual = crc32(&window);
        if actual != self.checksum {
            return Err(WindowError::ChecksumMismatch {
                expected: self.checksum,
                actual,
            });
        }
        Ok(window)
    }

    /// Like [`CompressedWindow::decompress`], but zero-pads the front back to
    /// `original_length` — the exact shape a v1 raw-window index stores.
    pub fn decompress_padded(&self) -> Result<Vec<u8>, WindowError> {
        let window = self.decompress()?;
        let original_length = self.original_length as usize;
        if window.len() >= original_length {
            return Ok(window);
        }
        let mut padded = vec![0u8; original_length - window.len()];
        padded.extend_from_slice(&window);
        Ok(padded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn full_window_round_trips_and_compresses_text() {
        let window: Vec<u8> = (0..WINDOW_SIZE)
            .map(|i| b"the quick brown fox "[i % 20])
            .collect();
        let record = CompressedWindow::from_window(&window);
        assert!(record.is_compressed());
        assert!(!record.is_sparse());
        assert!(record.stored_bytes() < window.len() / 4);
        assert_eq!(record.original_length as usize, WINDOW_SIZE);
        assert_eq!(record.decompress().unwrap(), window);
        assert_eq!(record.decompress_padded().unwrap(), window);
    }

    #[test]
    fn incompressible_window_falls_back_to_verbatim_bytes() {
        let mut rng = StdRng::seed_from_u64(7);
        let window: Vec<u8> = (0..4096).map(|_| rng.gen::<u8>()).collect();
        let record = CompressedWindow::from_window(&window);
        assert!(!record.is_compressed());
        assert_eq!(record.payload, window);
        assert_eq!(record.decompress().unwrap(), window);
    }

    #[test]
    fn oversized_windows_are_capped_to_the_last_32_kib() {
        let big: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
        let record = CompressedWindow::from_window(&big);
        assert_eq!(record.window_length as usize, WINDOW_SIZE);
        assert_eq!(
            record.decompress().unwrap(),
            &big[big.len() - WINDOW_SIZE..]
        );
    }

    #[test]
    fn empty_window_is_stored_as_nothing() {
        let record = CompressedWindow::from_window(&[]);
        assert_eq!(record.stored_bytes(), 0);
        assert_eq!(record.window_length, 0);
        assert!(record.decompress().unwrap().is_empty());
    }

    #[test]
    fn sparse_window_drops_leading_bytes_and_zeroes_gaps() {
        let mut rng = StdRng::seed_from_u64(8);
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|_| rng.gen::<u8>()).collect();
        // Reference two runs: one mid-window, one at the very end.
        let usage = vec![(20_000u32, 16u32), ((WINDOW_SIZE - 4) as u32, 4u32)];
        let record = CompressedWindow::from_window_sparse(&window, &usage);
        assert!(record.is_sparse());
        assert_eq!(record.original_length as usize, WINDOW_SIZE);
        assert_eq!(record.window_length as usize, WINDOW_SIZE - 20_000);
        // Mostly zeros -> tiny payload despite random content.
        assert!(record.stored_bytes() < 600, "{}", record.stored_bytes());

        let masked = record.decompress().unwrap();
        assert_eq!(&masked[..16], &window[20_000..20_016]);
        assert_eq!(&masked[masked.len() - 4..], &window[WINDOW_SIZE - 4..]);
        assert!(masked[16..masked.len() - 4].iter().all(|&b| b == 0));

        let padded = record.decompress_padded().unwrap();
        assert_eq!(padded.len(), WINDOW_SIZE);
        assert!(padded[..20_000].iter().all(|&b| b == 0));
        assert_eq!(&padded[20_000..20_016], &window[20_000..20_016]);
    }

    #[test]
    fn sparse_window_with_no_usage_stores_nothing() {
        let window = vec![0xABu8; WINDOW_SIZE];
        let record = CompressedWindow::from_window_sparse(&window, &[]);
        assert_eq!(record.window_length, 0);
        assert_eq!(record.stored_bytes(), 0);
        assert_eq!(record.original_length as usize, WINDOW_SIZE);
        assert!(record.decompress().unwrap().is_empty());
        assert_eq!(record.decompress_padded().unwrap(), vec![0u8; WINDOW_SIZE]);
    }

    #[test]
    fn sparse_usage_is_clipped_to_short_windows() {
        // A 100-byte window occupies the last 100 marker offsets; usage
        // pointing before it must be ignored.
        let window: Vec<u8> = (0..100u8).collect();
        let usage = vec![(0u32, 50u32), ((WINDOW_SIZE - 10) as u32, 10u32)];
        let record = CompressedWindow::from_window_sparse(&window, &usage);
        assert_eq!(record.window_length, 10);
        assert_eq!(record.original_length, 100);
        assert_eq!(record.decompress().unwrap(), &window[90..]);
        let padded = record.decompress_padded().unwrap();
        assert_eq!(padded.len(), 100);
        assert!(padded[..90].iter().all(|&b| b == 0));
    }

    #[test]
    fn corruption_is_detected_on_decompress() {
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 256) as u8).collect();
        let mut record = CompressedWindow::from_window(&window);

        let mut wrong_checksum = record.clone();
        wrong_checksum.checksum ^= 0xDEAD_BEEF;
        assert!(matches!(
            wrong_checksum.decompress(),
            Err(WindowError::ChecksumMismatch { .. })
        ));

        // A shrunk declared length trips the output bound mid-decode...
        let mut shrunk_length = record.clone();
        shrunk_length.window_length -= 1;
        assert!(matches!(
            shrunk_length.decompress(),
            Err(WindowError::Deflate(
                DeflateError::OutputLimitExceeded { .. }
            ))
        ));
        // ...while a grown one surfaces as a length mismatch after decoding.
        let mut grown_length = CompressedWindow::from_window(&window[..1000]);
        grown_length.window_length += 1;
        assert!(matches!(
            grown_length.decompress(),
            Err(WindowError::LengthMismatch { .. })
        ));

        record.payload[0] ^= 0xFF;
        assert!(record.decompress().is_err());
    }

    #[test]
    fn hostile_expanding_payload_is_bounded_by_the_declared_length() {
        // A tiny deflate payload that expands to 1 MiB: decompress() must
        // stop at the declared window_length instead of materialising it.
        let bomb = compressor().compress(&vec![0u8; 1 << 20]);
        assert!(bomb.len() < WINDOW_SIZE, "payload must fit the size checks");
        let record = CompressedWindow {
            flags: flags::COMPRESSED,
            original_length: 100,
            window_length: 100,
            checksum: 0,
            payload: bomb,
        };
        assert!(matches!(
            record.decompress(),
            Err(WindowError::Deflate(
                DeflateError::OutputLimitExceeded { .. }
            ))
        ));
    }

    #[test]
    fn verbatim_records_skip_compression_until_recompressed() {
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 32) as u8).collect();
        let verbatim = CompressedWindow::from_window_verbatim(&window);
        assert!(!verbatim.is_compressed());
        assert_eq!(verbatim.payload, window);
        assert_eq!(verbatim.decompress().unwrap(), window);

        let recompressed = verbatim.recompressed().expect("repetitive data shrinks");
        assert!(recompressed.is_compressed());
        assert!(recompressed.stored_bytes() < window.len() / 4);
        assert_eq!(recompressed.decompress().unwrap(), window);
        // Already-compressed and empty records are left alone.
        assert!(recompressed.recompressed().is_none());
        let sparse = CompressedWindow::from_window_sparse(&window, &[]);
        assert!(sparse.recompressed().is_none());
    }

    #[test]
    fn a_sparse_window_is_the_sparse_record_in_memory() {
        let mut rng = StdRng::seed_from_u64(5);
        let text: Vec<u8> = (0..WINDOW_SIZE).map(|i| b"sparse runs "[i % 12]).collect();
        for length in [WINDOW_SIZE, 20_000, 1] {
            let window = &text[WINDOW_SIZE - length..];
            let mut usage = Vec::new();
            let mut offset = rng.gen_range(0..WINDOW_SIZE as u32);
            while offset < WINDOW_SIZE as u32 {
                let run = rng.gen_range(1..300).min(WINDOW_SIZE as u32 - offset);
                usage.push((offset, run));
                offset += run + rng.gen_range(1..2_000);
            }
            let sparse = SparseWindow::new(window, &usage);
            let record = sparse.record();
            assert!(record.is_sparse() && !record.is_compressed());
            // Deflated on the way out, it is the record stored at once.
            let deflated = record.recompressed().unwrap_or(record);
            assert_eq!(
                deflated,
                CompressedWindow::from_window_sparse(window, &usage)
            );
            assert_eq!(deflated.decompress_padded().unwrap(), sparse.window());
            assert_eq!(sparse.window().len(), length);
            // Outside the runs, zeros; inside, the window's bytes.
            let mut expected = vec![0u8; length];
            let base = WINDOW_SIZE - length;
            for &(offset, run) in &usage {
                let (start, end) = ((offset as usize).max(base), (offset + run) as usize);
                if start < end {
                    expected[start - base..end - base]
                        .copy_from_slice(&window[start - base..end - base]);
                }
            }
            assert_eq!(sparse.window(), expected);
            assert!(sparse.held_bytes() < length.max(64));
        }
    }

    #[test]
    fn validate_rejects_hostile_lengths() {
        let record = CompressedWindow {
            flags: flags::COMPRESSED,
            original_length: (WINDOW_SIZE + 1) as u32,
            window_length: 10,
            checksum: 0,
            payload: vec![0u8; 4],
        };
        assert!(matches!(
            record.validate(),
            Err(WindowError::TooLarge { .. })
        ));

        let record = CompressedWindow {
            flags: 0,
            original_length: 100,
            window_length: 10,
            checksum: 0,
            payload: vec![0u8; 4], // raw payload must equal window_length
        };
        assert!(matches!(
            record.validate(),
            Err(WindowError::LengthMismatch { .. })
        ));
    }
}
