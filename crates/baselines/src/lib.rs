//! Baseline (de)compressors the paper compares rapidgzip against.
//!
//! * [`dynamic`] — the slower Dynamic Block finders of the paper's Table 2,
//!   among them the one [`pugz`] starts its chunks with.
//! * [`pugz`] — a faithful re-implementation of the *algorithmic* behaviour
//!   of pugz (Kerbiriou & Chikhi): static uniform chunk partitioning,
//!   two-stage decompression, and the requirement that the decompressed data
//!   only contains byte values 9–126.
//! * [`framezip`] — a minimal frame-based container standing in for
//!   Zstandard/pzstd in Table 4: a single-frame file cannot be decompressed
//!   in parallel, a multi-frame file can (see DESIGN.md, substitutions).
//! * [`bgzf_parallel`] — a parallel BGZF decompressor using the `BC` extra
//!   field to jump between members, emulating `bgzip -@`.
//!
//! The single-threaded "GNU gzip" baseline is `rgz_gzip::GzipDecoder`.

pub mod bgzf_parallel;
pub mod dynamic;
pub mod framezip;
pub mod pugz;

pub use bgzf_parallel::decompress_bgzf_parallel;
pub use dynamic::{CustomParseFinder, PugzLikeFinder, SkipLutFinder, TrialInflateFinder};
pub use framezip::{FramezipDecompressor, FramezipError, FramezipWriter};
pub use pugz::{PugzDecompressor, PugzError};
