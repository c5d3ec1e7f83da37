//! Compressed + sparse records for seek-point windows.
//!
//! The paper's seek-point index (§1.3, §3.3) keeps a raw 32 KiB window per
//! chunk, which makes index memory grow at roughly 8 MiB per GiB of
//! compressed input at the default 4 MiB chunk size.  This crate removes that
//! scaling bottleneck with two orthogonal techniques:
//!
//! * **Window compression** — each window is deflate-compressed (reusing
//!   [`rgz_deflate`]'s compressor) by the thread that stores it, and
//!   re-inflated whenever a decode asks for it.
//! * **Sparsity** — chunk decoding records which window bytes its
//!   back-references actually touch ([`rgz_deflate::WindowUsage`]).  Leading
//!   unreferenced bytes are dropped outright and interior/trailing
//!   unreferenced bytes are zeroed before compression, which deflate then
//!   collapses to almost nothing.  Re-decoding the same chunk from the same
//!   compressed data deterministically reads only the referenced bytes, so
//!   the masked window is byte-for-byte sufficient.
//!
//! [`CompressedWindow`] is the storage record (flags byte, lengths, CRC-32,
//! payload); `rgz_index::WindowMap` keeps one per seek point.

mod compressed;

pub use compressed::{flags, CompressedWindow, SparseWindow, WindowError, MAX_WINDOW_PAYLOAD};

/// Maximum window size preceding a DEFLATE chunk (32 KiB, RFC 1951).
pub const WINDOW_SIZE: usize = rgz_deflate::constants::WINDOW_SIZE;
