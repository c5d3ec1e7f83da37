//! rapidgzip-rs core: parallel decompression of and random access into
//! arbitrary gzip files using a cache-and-prefetch architecture.
//!
//! This crate is the Rust reproduction of the system described in
//! *"Rapidgzip: Parallel Decompression and Seeking in Gzip Files Using Cache
//! Prefetching"* (Knespel & Brunst, HPDC '23).  The central type is
//! [`ParallelGzipReader`], which implements [`std::io::Read`] and
//! [`std::io::Seek`] over the decompressed contents of a gzip file while
//! decompressing chunks speculatively on a thread pool:
//!
//! * the compressed file is divided into fixed-size chunks (4 MiB by
//!   default);
//! * worker threads locate a DEFLATE block inside "their" chunk with the
//!   block finder and decode it without knowing the preceding 32 KiB window,
//!   emitting 16-bit marker symbols for unresolved back-references
//!   (two-stage decoding, §2.2);
//! * whichever worker finishes the chunk the stream has got to *commits* it
//!   and every decoded chunk that follows on it: resolves the trailing
//!   window, records a seek point, and replaces the markers — of the first
//!   itself, of the others through the pool's urgent lane.  A worker that
//!   starts on a chunk whose predecessor is already committed knows the
//!   window, and decodes straight to bytes instead.  The reading thread
//!   decides how far ahead chunks are decoded, and waits for bytes;
//! * false positives from the block finder are harmless: their results are
//!   keyed by an offset nobody asks for and simply fall out of the caches
//!   (§3);
//! * once an index exists (built on the fly or imported), decompression and
//!   seeking skip the speculative machinery entirely and decode directly
//!   with the stored windows.
//!
//! ```
//! use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
//! use rgz_gzip::GzipWriter;
//! use std::io::Read;
//!
//! let data = b"an example payload".repeat(1000);
//! let compressed = GzipWriter::default().compress(&data);
//! let mut reader = ParallelGzipReader::from_bytes(
//!     compressed,
//!     ParallelGzipReaderOptions::default(),
//! ).unwrap();
//! let mut restored = Vec::new();
//! reader.read_to_end(&mut restored).unwrap();
//! assert_eq!(restored, data);
//! ```

mod cache;
mod chunk;
mod error;
mod indexed;
mod metrics;
mod pass;
mod reader;
mod verify;

pub use error::CoreError;
pub use reader::{ParallelGzipReader, ParallelGzipReaderOptions, ReaderStatistics};
pub use verify::{VerificationMode, VerificationStatistics};

/// Default compressed chunk size (4 MiB, the paper's default).
pub const DEFAULT_CHUNK_SIZE: usize = 4 * 1024 * 1024;
