//! Compressed + sparse storage for seek-point windows.
//!
//! The paper's seek-point index (§1.3, §3.3) keeps a raw 32 KiB window per
//! chunk, which makes index memory grow at roughly 8 MiB per GiB of
//! compressed input at the default 4 MiB chunk size.  This crate removes that
//! scaling bottleneck with two orthogonal techniques:
//!
//! * **Window compression** — each window is deflate-compressed (reusing
//!   [`rgz_deflate`]'s compressor) when it enters the store, optionally on a
//!   shared [`rgz_fetcher::ThreadPool`] so the sequential first pass never
//!   waits for it, and re-inflated whenever a decode asks for it.  No
//!   decompressed copy is kept: the one reader that asks twice is a later
//!   slice of a chunk that starts at the chunk's own seek point (the
//!   chunk's interior points hold their windows raw).
//! * **Sparsity** — chunk decoding records which window bytes its
//!   back-references actually touch ([`rgz_deflate::WindowUsage`]).  Leading
//!   unreferenced bytes are dropped outright and interior/trailing
//!   unreferenced bytes are zeroed before compression, which deflate then
//!   collapses to almost nothing.  Re-decoding the same chunk from the same
//!   compressed data deterministically reads only the referenced bytes, so
//!   the masked window is byte-for-byte sufficient.
//!
//! [`CompressedWindow`] is the storage record (flags byte, lengths, CRC-32,
//! payload); [`WindowStore`] owns the window lifecycle for a whole index.

mod compressed;
mod store;

pub use compressed::{flags, CompressedWindow, WindowError, MAX_WINDOW_PAYLOAD};
pub use store::{WindowStore, WindowStoreStatistics};

/// Maximum window size preceding a DEFLATE chunk (32 KiB, RFC 1951).
pub const WINDOW_SIZE: usize = rgz_deflate::constants::WINDOW_SIZE;
