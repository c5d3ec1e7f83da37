//! The seek-point index (§1.3, §3.3).
//!
//! During the first decompression pass rapidgzip records, for every chunk (and
//! for every DEFLATE block boundary it decides to keep), the compressed bit
//! offset, the uncompressed byte offset, and the 32 KiB window needed to
//! resume decoding there.  With such an index, later reads seek in constant
//! time and decompression can skip the two-stage machinery entirely.
//!
//! Three pieces mirror the paper's class diagram: [`BlockMap`] (offset
//! translation), [`WindowMap`] (windows keyed by compressed offset) and
//! [`GzipIndex`] which bundles them and supports export/import.
//!
//! Windows are not held as raw 32 KiB buffers: [`WindowMap`] keeps one
//! [`rgz_window::CompressedWindow`] record per seek point — sparsified when
//! its chunk is known to reference only part of the window, and
//! deflate-compressed by the thread that inserts it — and re-inflates a
//! window whenever it is asked for.
//!
//! # Serialized formats
//!
//! [`GzipIndex::export`] writes v3; [`GzipIndex::import`] reads v1, v2 and
//! v3.  All three share the same header and trailing whole-file CRC-32:
//!
//! ```text
//! magic              8 bytes  "RGZIDX01"
//! version            u32      1, 2 or 3
//! compressed_size    u64
//! uncompressed_size  u64
//! point_count        u64
//! ...point records...
//! crc32              u32      over every preceding byte
//! ```
//!
//! A **v1** point record stores the raw window:
//!
//! ```text
//! compressed_bit_offset u64, uncompressed_offset u64, uncompressed_size u64,
//! window_length u32 (<= 32768), window bytes
//! ```
//!
//! A **v2** point record stores a compressed-window record
//! ([`rgz_window::CompressedWindow`]):
//!
//! ```text
//! compressed_bit_offset u64, uncompressed_offset u64, uncompressed_size u64,
//! flags u8 (bit 0 = deflate-compressed payload, bit 1 = sparse),
//! original_length u32, window_length u32, payload_length u32,
//! window_crc32 u32 (CRC-32 of the decompressed window), payload bytes
//! ```
//!
//! A **v3** point record is the v2 record followed by optional per-span CRC
//! fragments, so random-access reads through the index can be verified
//! ([`PointChecksums`]).  A v3 file whose points carry no fragments says
//! everything a v1 or v2 file can:
//!
//! ```text
//! ...v2 record...,
//! checksums_present u8 (0 or 1), and when present:
//! first_member u64, fragment_count u32,
//! fragment_count x { crc32 u32, length u64 }
//! ```
//!
//! The fragments split the seek point's uncompressed span at gzip member
//! boundaries: fragment `i` covers the part of the span that falls into
//! member `first_member + i`, and the fragment lengths must sum to the
//! point's `uncompressed_size`.

use std::collections::HashMap;
use std::sync::Arc;

use rgz_checksum::{crc32, crc32_combine};
use rgz_window::{flags, CompressedWindow, WindowError};

mod store;

pub use store::{WindowMap, WindowStoreStatistics};

/// Maximum window size stored per seek point.
pub const WINDOW_SIZE: usize = rgz_window::WINDOW_SIZE;

/// One entry of the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeekPoint {
    /// Bit offset of the first DEFLATE block of this chunk in the compressed
    /// stream.
    pub compressed_bit_offset: u64,
    /// Offset of the first decompressed byte of this chunk.
    pub uncompressed_offset: u64,
    /// Number of decompressed bytes in this chunk.
    pub uncompressed_size: u64,
}

/// Maps uncompressed offsets to seek points (the paper's `BlockMap`).
#[derive(Debug, Default, Clone)]
pub struct BlockMap {
    points: Vec<SeekPoint>,
}

impl BlockMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of seek points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All seek points in order of uncompressed offset.
    pub fn points(&self) -> &[SeekPoint] {
        &self.points
    }

    /// Appends a seek point; offsets must be non-decreasing.
    pub fn push(&mut self, point: SeekPoint) {
        if let Some(last) = self.points.last() {
            assert!(
                point.uncompressed_offset >= last.uncompressed_offset
                    && point.compressed_bit_offset >= last.compressed_bit_offset,
                "seek points must be appended in order"
            );
        }
        self.points.push(point);
    }

    /// Appends a seek point read from an *untrusted* file, turning the
    /// ordering violation [`BlockMap::push`] would panic on into a typed
    /// [`IndexError::NonMonotonic`].
    pub fn checked_push(&mut self, point: SeekPoint) -> Result<(), IndexError> {
        if let Some(last) = self.points.last() {
            if point.uncompressed_offset < last.uncompressed_offset
                || point.compressed_bit_offset < last.compressed_bit_offset
            {
                return Err(IndexError::NonMonotonic {
                    point: self.points.len() as u64,
                });
            }
        }
        self.points.push(point);
        Ok(())
    }

    /// Puts `points` in the place of the point at their first bit, which they
    /// must partition: the first where it is, each next where the last ends,
    /// in compressed order, the bytes of all of them its bytes.
    pub fn split(&mut self, points: Vec<SeekPoint>) {
        let bit = points[0].compressed_bit_offset;
        let at = self
            .points
            .iter()
            .rposition(|p| p.compressed_bit_offset == bit);
        let at = at.expect("the point split is in the map");
        let whole = &self.points[at];
        let mut end = whole.uncompressed_offset;
        for point in &points {
            assert_eq!(point.uncompressed_offset, end, "not a partition");
            end += point.uncompressed_size;
        }
        assert_eq!(end, whole.uncompressed_offset + whole.uncompressed_size);
        assert!(points.is_sorted_by_key(|point| point.compressed_bit_offset));
        self.points.splice(at..=at, points);
    }

    /// The index of the seek point whose bytes hold `offset`: the last one
    /// at or before it, if it reaches that far.
    pub fn find(&self, offset: u64) -> Option<usize> {
        let points = &self.points;
        points
            .partition_point(|p| p.uncompressed_offset <= offset)
            .checked_sub(1)
            .filter(|&index| {
                offset < points[index].uncompressed_offset + points[index].uncompressed_size
            })
    }

    /// Total decompressed size covered by the seek points.
    pub fn uncompressed_size(&self) -> u64 {
        self.points
            .last()
            .map(|p| p.uncompressed_offset + p.uncompressed_size)
            .unwrap_or(0)
    }
}

/// One CRC fragment of a seek point's uncompressed span: the part of the
/// span that falls into a single gzip member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcFragment {
    /// CRC-32 of the fragment's bytes.
    pub crc32: u32,
    /// Number of uncompressed bytes the fragment covers.
    pub length: u64,
}

/// Per-seek-point verification data (serialized by format v3): the point's
/// span split at gzip member boundaries, one CRC-32 per piece.  A later
/// random-access decode of the chunk re-hashes its output the same way and
/// compares, attributing any disagreement to member `first_member + i`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PointChecksums {
    /// Zero-based index of the gzip member the span starts in; fragment `i`
    /// belongs to member `first_member + i`.
    pub first_member: u64,
    /// The span's pieces, in stream order; lengths sum to the seek point's
    /// `uncompressed_size`.
    pub fragments: Vec<CrcFragment>,
}

impl PointChecksums {
    /// Builds the record from a first-member index and `(crc32, length)`
    /// pieces, dropping trailing zero-length fragments: the sequential
    /// capture and the random-access re-decode differ in whether they emit
    /// an empty piece when a chunk ends exactly on a member boundary, so
    /// both sides normalise before storing or comparing.
    pub fn from_fragments(
        first_member: u64,
        fragments: impl IntoIterator<Item = (u32, u64)>,
    ) -> Self {
        let mut fragments: Vec<CrcFragment> = fragments
            .into_iter()
            .map(|(crc32, length)| CrcFragment { crc32, length })
            .collect();
        while fragments.last().is_some_and(|f| f.length == 0) {
            fragments.pop();
        }
        Self {
            first_member,
            fragments,
        }
    }

    /// Extends the record over `next`, the span that follows this one: a
    /// member the cut between the two split is one fragment again, its
    /// CRC-32s joined by `crc32_combine`.
    pub fn append(&mut self, next: &PointChecksums) {
        let mut pieces = next.fragments.iter();
        if self.first_member + self.fragments.len() as u64 > next.first_member {
            if let (Some(last), Some(first)) = (self.fragments.last_mut(), pieces.next()) {
                last.crc32 = crc32_combine(last.crc32, first.crc32, first.length);
                last.length += first.length;
            }
        }
        self.fragments.extend(pieces);
    }
}

/// Per-seek-point CRC fragments keyed by compressed bit offset.
#[derive(Debug, Default, Clone)]
pub struct ChecksumMap {
    store: HashMap<u64, Arc<PointChecksums>>,
}

impl ChecksumMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of seek points with stored fragments.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether any point has stored fragments.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Whether fragments exist for the given seek point.
    pub fn contains(&self, compressed_bit_offset: u64) -> bool {
        self.store.contains_key(&compressed_bit_offset)
    }

    /// Stores the fragments for a seek point.
    pub fn insert(&mut self, compressed_bit_offset: u64, checksums: PointChecksums) {
        self.store
            .insert(compressed_bit_offset, Arc::new(checksums));
    }

    /// Looks up the fragments for a seek point.
    pub fn get(&self, compressed_bit_offset: u64) -> Option<Arc<PointChecksums>> {
        self.store.get(&compressed_bit_offset).cloned()
    }
}

/// A complete seek index: block map + window map + stream totals.
///
/// A clone copies everything but the [`WindowMap`], which clones share: the
/// reader's workers insert windows into it outside the lock that guards the
/// rest of the reader's index.
#[derive(Debug, Default, Clone)]
pub struct GzipIndex {
    /// Offset translation.
    pub block_map: BlockMap,
    /// Windows for each seek point.
    pub window_map: WindowMap,
    /// Per-point CRC fragments for verified random access (empty for v1/v2
    /// and foreign imports).
    pub checksum_map: ChecksumMap,
    /// Size of the compressed file in bytes (0 if unknown).
    pub compressed_size: u64,
    /// Total decompressed size (0 if unknown / not yet complete).
    pub uncompressed_size: u64,
}

/// Errors from index import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The serialized data does not start with the expected magic bytes.
    BadMagic,
    /// Unsupported format version.
    UnsupportedVersion(u32),
    /// The data is shorter than its header claims.
    Truncated,
    /// The trailing checksum does not match.
    ChecksumMismatch,
    /// A per-window length field exceeds the 32 KiB window bound — the file
    /// is corrupt or hostile, and honouring the length would mean a huge
    /// allocation.
    WindowTooLarge {
        /// The declared length.
        length: u64,
    },
    /// A compressed window record (v2 or v3) is structurally invalid
    /// (unknown flags, inconsistent lengths).
    InvalidWindow,
    /// The header declares more seek points than the file could possibly
    /// hold — honouring the count would mean a huge allocation.
    PointCountTooLarge {
        /// The declared point count.
        count: u64,
    },
    /// A seek point's offsets go backwards relative to its predecessor.
    NonMonotonic {
        /// Zero-based position of the offending point.
        point: u64,
    },
    /// A seek-point field is structurally invalid (e.g. a sub-byte bit count
    /// outside `0..=7`, or a bit offset before the start of the file), or
    /// bytes are left over after the last one.
    InvalidPoint(&'static str),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::BadMagic => write!(f, "not a recognised index file"),
            IndexError::UnsupportedVersion(v) => write!(f, "unsupported index version {v}"),
            IndexError::Truncated => write!(f, "truncated index data"),
            IndexError::ChecksumMismatch => write!(f, "index checksum mismatch"),
            IndexError::WindowTooLarge { length } => write!(
                f,
                "window length {length} exceeds the {WINDOW_SIZE} byte bound"
            ),
            IndexError::InvalidWindow => write!(f, "structurally invalid window record"),
            IndexError::PointCountTooLarge { count } => write!(
                f,
                "declared seek-point count {count} exceeds what the file can hold"
            ),
            IndexError::NonMonotonic { point } => {
                write!(f, "seek point {point} goes backwards")
            }
            IndexError::InvalidPoint(reason) => write!(f, "invalid seek point: {reason}"),
        }
    }
}

impl std::error::Error for IndexError {}

/// The index format a byte buffer appears to hold, sniffed from its magic
/// bytes only (no parsing, no allocation).
///
/// The foreign formats are parsed and written by the `rgz_interop` crate;
/// this enum lives here so anything holding a `GzipIndex` can dispatch on a
/// file's format without depending on the converters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectedFormat {
    /// The native `RGZIDX01` container (v1, v2 or v3).
    Rgz,
    /// A gztool `.gzi` index (eight zero bytes, then `gzipindx`).
    Gztool,
    /// A gztool v1 `.gzi` index with line-counting data (`gzipindX`).
    GztoolWithLines,
    /// An indexed_gzip index file (`GZIDX`).
    IndexedGzip,
    /// None of the known magics matched.
    Unknown,
}

impl std::fmt::Display for DetectedFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectedFormat::Rgz => write!(f, "rgz (RGZIDX01)"),
            DetectedFormat::Gztool => write!(f, "gztool (.gzi)"),
            DetectedFormat::GztoolWithLines => write!(f, "gztool v1 (.gzi with line info)"),
            DetectedFormat::IndexedGzip => write!(f, "indexed_gzip (GZIDX)"),
            DetectedFormat::Unknown => write!(f, "unknown"),
        }
    }
}

/// Sniffs the on-disk index format from the magic bytes at the start of
/// `data`.
pub fn detect_format(data: &[u8]) -> DetectedFormat {
    if data.starts_with(MAGIC) {
        return DetectedFormat::Rgz;
    }
    if data.starts_with(b"GZIDX") {
        return DetectedFormat::IndexedGzip;
    }
    // gztool prefixes its magic with eight zero bytes so that `.gzi` files
    // made by bgzip (which start with a block count) are never confused with
    // its own.
    if data.len() >= 16 && data[..8].iter().all(|&b| b == 0) {
        match &data[8..16] {
            b"gzipindx" => return DetectedFormat::Gztool,
            b"gzipindX" => return DetectedFormat::GztoolWithLines,
            _ => {}
        }
    }
    DetectedFormat::Unknown
}

const MAGIC: &[u8; 8] = b"RGZIDX01";

impl GzipIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The total decompressed size: the recorded stream total when known,
    /// otherwise the extent covered by the seek points.  Every serialiser
    /// writes this into its header/trailer size field.
    pub fn effective_uncompressed_size(&self) -> u64 {
        if self.uncompressed_size != 0 {
            self.uncompressed_size
        } else {
            self.block_map.uncompressed_size()
        }
    }

    /// Adds a seek point together with its full window.
    pub fn add_seek_point(&mut self, point: SeekPoint, window: &[u8]) {
        self.window_map.insert(point.compressed_bit_offset, window);
        self.block_map.push(point);
    }

    /// Adds a seek point whose chunk is known to reference only the window
    /// bytes named by `usage`; the stored window is sparsified accordingly.
    pub fn add_seek_point_sparse(&mut self, point: SeekPoint, window: &[u8], usage: &[(u32, u32)]) {
        self.window_map
            .insert_sparse(point.compressed_bit_offset, window, usage);
        self.block_map.push(point);
    }

    /// Adds a seek point read from an *untrusted* index file: ordering is
    /// checked (never panics) and the window record, if any, is stored as-is.
    /// A `None` record leaves the point window-less — valid only for points
    /// at the start of a stream, where decoding needs no history.
    pub fn add_imported_point(
        &mut self,
        point: SeekPoint,
        record: Option<CompressedWindow>,
    ) -> Result<(), IndexError> {
        if let Some(record) = record {
            self.window_map
                .insert_compressed(point.compressed_bit_offset, record);
        }
        self.block_map.checked_push(point)
    }

    /// Serialises the index as v3: each point's compressed window record and,
    /// when the checksum map holds them, its CRC fragments.
    pub fn export(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&3u32.to_le_bytes());
        out.extend_from_slice(&self.compressed_size.to_le_bytes());
        out.extend_from_slice(&self.uncompressed_size.to_le_bytes());
        out.extend_from_slice(&(self.block_map.len() as u64).to_le_bytes());
        for point in self.block_map.points() {
            out.extend_from_slice(&point.compressed_bit_offset.to_le_bytes());
            out.extend_from_slice(&point.uncompressed_offset.to_le_bytes());
            out.extend_from_slice(&point.uncompressed_size.to_le_bytes());
            match self.window_map.get_compressed(point.compressed_bit_offset) {
                Some(record) => {
                    // v1-imported windows sit in the store verbatim (the
                    // import path skips compression to stay cheap); compress
                    // them here so a v1 -> v3 conversion still shrinks the file.
                    let record = record.recompressed().map_or(record, Arc::new);
                    out.push(record.flags);
                    out.extend_from_slice(&record.original_length.to_le_bytes());
                    out.extend_from_slice(&record.window_length.to_le_bytes());
                    out.extend_from_slice(&(record.payload.len() as u32).to_le_bytes());
                    out.extend_from_slice(&record.checksum.to_le_bytes());
                    out.extend_from_slice(&record.payload);
                }
                // No flags, and zero lengths and checksum: an empty window.
                None => out.extend_from_slice(&[0u8; 17]),
            }
            match self.checksum_map.get(point.compressed_bit_offset) {
                Some(checksums) => {
                    out.push(1u8);
                    out.extend_from_slice(&checksums.first_member.to_le_bytes());
                    out.extend_from_slice(&(checksums.fragments.len() as u32).to_le_bytes());
                    for fragment in &checksums.fragments {
                        out.extend_from_slice(&fragment.crc32.to_le_bytes());
                        out.extend_from_slice(&fragment.length.to_le_bytes());
                    }
                }
                None => out.push(0u8),
            }
        }
        let checksum = crc32(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Reconstructs an index from a native file: v3 as [`GzipIndex::export`]
    /// writes it, or v1 (raw windows) and v2 (compressed-window records, no
    /// fragments) as earlier versions of it did.
    pub fn import(data: &[u8]) -> Result<Self, IndexError> {
        if data.len() < MAGIC.len() + 4 + 8 + 8 + 8 + 4 {
            return Err(IndexError::Truncated);
        }
        if &data[..8] != MAGIC {
            return Err(IndexError::BadMagic);
        }
        let stored_checksum = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
        // Every record lies between the header and the trailer.
        let data = &data[..data.len() - 4];
        if stored_checksum != crc32(data) {
            return Err(IndexError::ChecksumMismatch);
        }
        let mut cursor = 8usize;
        let read_u8 = |cursor: &mut usize| -> Result<u8, IndexError> {
            let byte = *data.get(*cursor).ok_or(IndexError::Truncated)?;
            *cursor += 1;
            Ok(byte)
        };
        let read_u32 = |cursor: &mut usize| -> Result<u32, IndexError> {
            let bytes = data
                .get(*cursor..*cursor + 4)
                .ok_or(IndexError::Truncated)?;
            *cursor += 4;
            Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
        };
        let read_u64 = |cursor: &mut usize| -> Result<u64, IndexError> {
            let bytes = data
                .get(*cursor..*cursor + 8)
                .ok_or(IndexError::Truncated)?;
            *cursor += 8;
            Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
        };

        let version = read_u32(&mut cursor)?;
        if !(1..=3).contains(&version) {
            return Err(IndexError::UnsupportedVersion(version));
        }
        let compressed_size = read_u64(&mut cursor)?;
        let uncompressed_size = read_u64(&mut cursor)?;
        let point_count = read_u64(&mut cursor)? as usize;
        // A point record is at least 28 (v1) / 41 (v2) / 42 (v3) bytes; a
        // count beyond what the remaining bytes can hold is corrupt or
        // hostile.
        let minimum_record = match version {
            1 => 28,
            2 => 41,
            _ => 42,
        };
        let remaining = data.len().saturating_sub(cursor);
        if point_count > remaining / minimum_record {
            return Err(IndexError::PointCountTooLarge {
                count: point_count as u64,
            });
        }

        let mut index = GzipIndex {
            compressed_size,
            uncompressed_size,
            ..Default::default()
        };
        for _ in 0..point_count {
            let point = SeekPoint {
                compressed_bit_offset: read_u64(&mut cursor)?,
                uncompressed_offset: read_u64(&mut cursor)?,
                uncompressed_size: read_u64(&mut cursor)?,
            };
            if version == 1 {
                let window_length = read_u32(&mut cursor)? as usize;
                // Validate the untrusted length *before* using it: a corrupt
                // or hostile file must not trigger a 4 GiB window allocation.
                if window_length > WINDOW_SIZE {
                    return Err(IndexError::WindowTooLarge {
                        length: window_length as u64,
                    });
                }
                let window = data
                    .get(cursor..cursor + window_length)
                    .ok_or(IndexError::Truncated)?;
                cursor += window_length;
                // Store verbatim: compressing tens of thousands of windows
                // inline (and single-threaded — no pool is attached yet)
                // would turn import into a multi-second stall.  The exporter
                // recompresses verbatim records on the way out.
                index.window_map.insert_compressed(
                    point.compressed_bit_offset,
                    CompressedWindow::from_window_verbatim(window),
                );
                index.block_map.checked_push(point)?;
            } else {
                let record_flags = read_u8(&mut cursor)?;
                let original_length = read_u32(&mut cursor)?;
                let window_length = read_u32(&mut cursor)?;
                let payload_length = read_u32(&mut cursor)? as usize;
                let checksum = read_u32(&mut cursor)?;
                if window_length as usize > WINDOW_SIZE
                    || original_length as usize > WINDOW_SIZE
                    || payload_length > rgz_window::MAX_WINDOW_PAYLOAD
                {
                    return Err(IndexError::WindowTooLarge {
                        length: (window_length as u64)
                            .max(original_length as u64)
                            .max(payload_length as u64),
                    });
                }
                if record_flags & !flags::KNOWN != 0 {
                    return Err(IndexError::InvalidWindow);
                }
                let payload = data
                    .get(cursor..cursor + payload_length)
                    .ok_or(IndexError::Truncated)?
                    .to_vec();
                cursor += payload_length;
                let record = CompressedWindow {
                    flags: record_flags,
                    original_length,
                    window_length,
                    checksum,
                    payload,
                };
                record.validate().map_err(|error| match error {
                    WindowError::TooLarge { length } => IndexError::WindowTooLarge {
                        length: length as u64,
                    },
                    _ => IndexError::InvalidWindow,
                })?;
                index
                    .window_map
                    .insert_compressed(point.compressed_bit_offset, record);
                if version >= 3 {
                    match read_u8(&mut cursor)? {
                        0 => {}
                        1 => {
                            let first_member = read_u64(&mut cursor)?;
                            let fragment_count = read_u32(&mut cursor)? as usize;
                            // Each fragment is 12 bytes; a count beyond what
                            // the remaining bytes can hold is corrupt or
                            // hostile, and honouring it would mean a huge
                            // allocation.
                            let remaining = data.len().saturating_sub(cursor);
                            if fragment_count > remaining / 12 {
                                return Err(IndexError::PointCountTooLarge {
                                    count: fragment_count as u64,
                                });
                            }
                            let mut fragments = Vec::with_capacity(fragment_count);
                            let mut covered = 0u64;
                            for _ in 0..fragment_count {
                                let crc32 = read_u32(&mut cursor)?;
                                let length = read_u64(&mut cursor)?;
                                covered = covered.checked_add(length).ok_or(
                                    IndexError::InvalidPoint("checksum fragment lengths overflow"),
                                )?;
                                fragments.push(CrcFragment { crc32, length });
                            }
                            // Fragments that do not cover the span exactly
                            // could never verify a decode of it.
                            if covered != point.uncompressed_size {
                                return Err(IndexError::InvalidPoint(
                                    "checksum fragments do not cover the seek point's span",
                                ));
                            }
                            index.checksum_map.insert(
                                point.compressed_bit_offset,
                                PointChecksums {
                                    first_member,
                                    fragments,
                                },
                            );
                        }
                        _ => {
                            return Err(IndexError::InvalidPoint("unknown checksum-presence flag"))
                        }
                    }
                }
                index.block_map.checked_push(point)?;
            }
        }
        if cursor != data.len() {
            return Err(IndexError::InvalidPoint("bytes after the last seek point"));
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn appended_spans_fold_to_the_record_of_both() {
        // Three members, and the record of `pieces`, the first in member `first`.
        let members: [&[u8]; 3] = [b"first member ", b"the second one, ", b"and the third"];
        let record = |first: u64, pieces: &[&[u8]]| {
            PointChecksums::from_fragments(
                first,
                pieces
                    .iter()
                    .map(|piece| (crc32(piece), piece.len() as u64)),
            )
        };
        let whole = record(0, &members);
        // A cut inside the second member: its two halves are one fragment.
        let (head, tail) = members[1].split_at(5);
        let mut run = record(0, &[members[0], head]);
        run.append(&record(1, &[tail, members[2]]));
        assert_eq!(run, whole);
        // A cut where the second member ends: nothing to join.
        let mut run = record(0, &members[..2]);
        run.append(&record(2, &members[2..]));
        assert_eq!(run, whole);
        // Nor where it starts, with the spans of one member each.
        let mut run = record(0, &members[..1]);
        run.append(&record(1, &members[1..2]));
        run.append(&record(2, &members[2..]));
        assert_eq!(run, whole);
    }

    fn sample_index() -> GzipIndex {
        let mut index = GzipIndex::new();
        index.compressed_size = 1_000_000;
        index.uncompressed_size = 3_200_000;
        let mut uncompressed = 0u64;
        let mut compressed = 100u64;
        for i in 0..50u64 {
            let window: Vec<u8> = (0..((i as usize * 131) % WINDOW_SIZE))
                .map(|j| (j % 256) as u8)
                .collect();
            index.add_seek_point(
                SeekPoint {
                    compressed_bit_offset: compressed,
                    uncompressed_offset: uncompressed,
                    uncompressed_size: 64_000,
                },
                &window,
            );
            uncompressed += 64_000;
            compressed += 20_000 + i;
        }
        index
    }

    #[test]
    fn block_map_find_returns_covering_point() {
        let index = sample_index();
        let map = &index.block_map;
        assert_eq!(map.find(0), Some(0));
        assert_eq!(map.find(63_999), Some(0));
        assert_eq!(map.find(64_000), Some(1));
        assert_eq!(map.find(1_000_000), Some(15));
        assert_eq!(map.find(50 * 64_000 - 1), Some(49));
        // Past the end of the last point's bytes no point covers an offset.
        assert_eq!(map.find(50 * 64_000), None);
        assert_eq!(map.find(u64::MAX), None);
        assert_eq!(BlockMap::new().find(0), None);
        assert_eq!(map.uncompressed_size(), 50 * 64_000);
    }

    #[test]
    #[should_panic(expected = "seek points must be appended in order")]
    fn out_of_order_seek_points_panic() {
        let mut map = BlockMap::new();
        map.push(SeekPoint {
            compressed_bit_offset: 100,
            uncompressed_offset: 100,
            uncompressed_size: 10,
        });
        map.push(SeekPoint {
            compressed_bit_offset: 50,
            uncompressed_offset: 50,
            uncompressed_size: 10,
        });
    }

    #[test]
    fn window_map_keeps_only_the_last_32_kib() {
        let map = WindowMap::new();
        let big: Vec<u8> = (0..100_000).map(|i| (i % 256) as u8).collect();
        map.insert(42, &big);
        let stored = map.get(42).unwrap();
        assert_eq!(stored.len(), WINDOW_SIZE);
        assert_eq!(&stored[..], &big[big.len() - WINDOW_SIZE..]);
        assert!(map.contains(42));
        assert!(!map.contains(43));
    }

    #[test]
    fn window_map_stores_windows_compressed() {
        let map = WindowMap::new();
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 16) as u8).collect();
        map.insert(7, &window);
        let statistics = map.statistics();
        assert_eq!(statistics.windows, 1);
        assert_eq!(statistics.original_bytes, WINDOW_SIZE);
        assert!(
            statistics.stored_bytes < WINDOW_SIZE / 4,
            "window not compressed: {statistics:?}"
        );
        assert_eq!(map.get(7).unwrap().as_slice(), &window[..]);
    }

    /// The frozen files of the versions no longer written (see
    /// `tests/legacy_formats.rs`): what the hostile-input tests patch.
    const V1: &[u8] = include_bytes!("../tests/legacy/small_v1.rgzidx");
    const V2: &[u8] = include_bytes!("../tests/legacy/interop_corpus_v2.rgzidx");

    /// `index` as a v1 file: every window raw, padded back to the length it
    /// had before sparsification.
    fn v1_file(index: &GzipIndex) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&index.compressed_size.to_le_bytes());
        out.extend_from_slice(&index.uncompressed_size.to_le_bytes());
        out.extend_from_slice(&(index.block_map.len() as u64).to_le_bytes());
        for point in index.block_map.points() {
            let record = index.window_map.get_compressed(point.compressed_bit_offset);
            let window = record.map_or(Vec::new(), |r| r.decompress_padded().unwrap());
            for field in [
                point.compressed_bit_offset,
                point.uncompressed_offset,
                point.uncompressed_size,
            ] {
                out.extend_from_slice(&field.to_le_bytes());
            }
            out.extend_from_slice(&(window.len() as u32).to_le_bytes());
            out.extend_from_slice(&window);
        }
        let checksum = crc32(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn export_import_round_trips_in_all_formats() {
        let index = sample_index();
        let from_v1 = GzipIndex::import(&v1_file(&index)).unwrap();
        for restored in [GzipIndex::import(&index.export()).unwrap(), from_v1] {
            assert_eq!(restored.compressed_size, index.compressed_size);
            assert_eq!(restored.uncompressed_size, index.uncompressed_size);
            assert_eq!(restored.block_map.points(), index.block_map.points());
            for point in index.block_map.points() {
                assert_eq!(
                    restored
                        .window_map
                        .get(point.compressed_bit_offset)
                        .as_deref(),
                    index.window_map.get(point.compressed_bit_offset).as_deref(),
                );
            }
        }
    }

    #[test]
    fn v3_export_is_much_smaller_than_the_raw_windows() {
        let index = sample_index();
        let raw = index.window_map.statistics().original_bytes;
        let v3 = index.export();
        assert!(
            v3.len() * 4 <= raw,
            "v3 ({}) should be at least 4x smaller than the raw windows ({raw})",
            v3.len(),
        );
    }

    #[test]
    fn v1_import_is_verbatim_and_v2_reexport_still_compresses() {
        let from_v1 = GzipIndex::import(V1).unwrap();
        // Import stores windows verbatim (no per-window compression stall).
        let statistics = from_v1.window_map.statistics();
        assert_eq!(statistics.stored_bytes, statistics.original_bytes);
        // ...but the export compresses them into v2-style records.
        let v3 = from_v1.export();
        assert!(
            v3.len() * 4 <= V1.len(),
            "v1 -> v3 conversion did not shrink the index"
        );
        let from_v3 = GzipIndex::import(&v3).unwrap();
        for point in from_v1.block_map.points() {
            assert_eq!(
                from_v3
                    .window_map
                    .get(point.compressed_bit_offset)
                    .as_deref(),
                from_v1
                    .window_map
                    .get(point.compressed_bit_offset)
                    .as_deref()
            );
        }
    }

    #[test]
    fn import_rejects_corruption() {
        assert_eq!(GzipIndex::import(&[]).unwrap_err(), IndexError::Truncated);
        assert_eq!(
            GzipIndex::import(&V1[..20]).unwrap_err(),
            IndexError::Truncated
        );
        let mut bad_magic = V1.to_vec();
        bad_magic[0] = b'X';
        assert_eq!(
            GzipIndex::import(&bad_magic).unwrap_err(),
            IndexError::BadMagic
        );
        let mut flipped = V1.to_vec();
        let position = flipped.len() / 2;
        flipped[position] ^= 0xFF;
        assert_eq!(
            GzipIndex::import(&flipped).unwrap_err(),
            IndexError::ChecksumMismatch
        );
        // Fixing the checksum is required for the version error to surface.
        assert_eq!(
            import_with_patch(V1.to_vec(), 8, &[99]).unwrap_err(),
            IndexError::UnsupportedVersion(99)
        );
    }

    /// Patches the byte at `position`, fixes the trailing CRC, and returns
    /// the import result — for crafting hostile-but-checksummed files.
    fn import_with_patch(
        mut serialized: Vec<u8>,
        position: usize,
        patch: &[u8],
    ) -> Result<GzipIndex, IndexError> {
        serialized[position..position + patch.len()].copy_from_slice(patch);
        let body_length = serialized.len() - 4;
        let checksum = rgz_checksum::crc32(&serialized[..body_length]);
        serialized[body_length..].copy_from_slice(&checksum.to_le_bytes());
        GzipIndex::import(&serialized)
    }

    #[test]
    fn v1_import_rejects_oversized_window_length_before_allocating() {
        // The window length field of the first point lives right after the
        // header (36 bytes) and the three u64 offsets (24 bytes); the point
        // has no window.
        let length_position = 36 + 24;
        assert_eq!(V1[length_position..length_position + 4], 0u32.to_le_bytes());
        let result = import_with_patch(V1.to_vec(), length_position, &u32::MAX.to_le_bytes());
        assert_eq!(
            result.unwrap_err(),
            IndexError::WindowTooLarge {
                length: u32::MAX as u64
            }
        );
    }

    #[test]
    fn v2_import_rejects_hostile_lengths_and_unknown_flags() {
        let record_position = 36 + 24; // flags byte of the first record

        // Unknown flag bits are rejected.
        assert_eq!(
            import_with_patch(V2.to_vec(), record_position, &[0x80]).unwrap_err(),
            IndexError::InvalidWindow
        );
        // Oversized window_length is rejected before any allocation.
        assert!(matches!(
            import_with_patch(
                V2.to_vec(),
                record_position + 1 + 4,
                &u32::MAX.to_le_bytes()
            )
            .unwrap_err(),
            IndexError::WindowTooLarge { .. }
        ));
        // Oversized payload_length likewise.
        assert!(matches!(
            import_with_patch(
                V2.to_vec(),
                record_position + 1 + 4 + 4,
                &u32::MAX.to_le_bytes()
            )
            .unwrap_err(),
            IndexError::WindowTooLarge { .. }
        ));
    }

    #[test]
    fn bytes_between_the_last_point_and_the_trailer_are_rejected() {
        let mut serialized = sample_index().export();
        serialized.truncate(serialized.len() - 4);
        serialized.extend_from_slice(&[0u8; 8]);
        let checksum = crc32(&serialized);
        serialized.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            GzipIndex::import(&serialized).unwrap_err(),
            IndexError::InvalidPoint("bytes after the last seek point")
        );
    }

    #[test]
    fn sparse_seek_points_survive_both_formats() {
        let mut index = GzipIndex::new();
        let window: Vec<u8> = (0..WINDOW_SIZE).map(|i| (i % 255) as u8).collect();
        // The chunk references two scattered runs of its window.
        let usage = vec![(1000u32, 10u32), ((WINDOW_SIZE - 20) as u32, 20u32)];
        index.add_seek_point_sparse(
            SeekPoint {
                compressed_bit_offset: 64,
                uncompressed_offset: 0,
                uncompressed_size: 5000,
            },
            &window,
            &usage,
        );
        let stored = index.window_map.get(64).unwrap();
        assert_eq!(stored.len(), WINDOW_SIZE - 1000);
        assert_eq!(&stored[..10], &window[1000..1010]);
        assert_eq!(&stored[stored.len() - 20..], &window[WINDOW_SIZE - 20..]);

        // v1 pads back to the original length; v3 keeps the masked shape.
        for (file, expected_len) in [
            (v1_file(&index), WINDOW_SIZE),
            (index.export(), WINDOW_SIZE - 1000),
        ] {
            let restored = GzipIndex::import(&file).unwrap();
            let restored_window = restored.window_map.get(64).unwrap();
            assert_eq!(restored_window.len(), expected_len);
            let tail = &restored_window[restored_window.len() - 20..];
            assert_eq!(tail, &window[WINDOW_SIZE - 20..]);
        }
    }

    /// The sample index with CRC fragments attached to every other point, to
    /// exercise the both-present-and-absent paths of the v3 record.
    fn sample_index_with_checksums() -> GzipIndex {
        let mut index = sample_index();
        for (i, point) in index.block_map.points().iter().enumerate() {
            if i % 2 == 0 {
                index.checksum_map.insert(
                    point.compressed_bit_offset,
                    PointChecksums::from_fragments(
                        i as u64 * 3,
                        [
                            (0xDEAD_0000 + i as u32, 24_000),
                            (0xBEEF_0000 + i as u32, 40_000),
                        ],
                    ),
                );
            }
        }
        index
    }

    #[test]
    fn v3_round_trips_checksum_fragments_and_v2_drops_them() {
        let index = sample_index_with_checksums();
        let restored = GzipIndex::import(&index.export()).unwrap();
        assert_eq!(restored.checksum_map.len(), index.checksum_map.len());
        for point in index.block_map.points() {
            assert_eq!(
                restored.checksum_map.get(point.compressed_bit_offset),
                index.checksum_map.get(point.compressed_bit_offset),
                "fragments lost or changed for point at bit {}",
                point.compressed_bit_offset
            );
        }
        // v2 and v1 files have no fragments to carry.
        assert!(GzipIndex::import(V2).unwrap().checksum_map.is_empty());
        let as_v1 = GzipIndex::import(&v1_file(&index)).unwrap();
        assert!(as_v1.checksum_map.is_empty());
    }

    #[test]
    fn from_fragments_normalises_trailing_empty_pieces() {
        let checksums =
            PointChecksums::from_fragments(7, [(1, 10), (2, 0), (3, 5), (4, 0), (0, 0)]);
        assert_eq!(checksums.first_member, 7);
        assert_eq!(
            checksums.fragments,
            vec![
                CrcFragment {
                    crc32: 1,
                    length: 10
                },
                CrcFragment {
                    crc32: 2,
                    length: 0
                },
                CrcFragment {
                    crc32: 3,
                    length: 5
                },
            ]
        );
    }

    #[test]
    fn v3_import_rejects_hostile_checksum_records() {
        let mut index = GzipIndex::new();
        index.add_seek_point(
            SeekPoint {
                compressed_bit_offset: 8,
                uncompressed_offset: 0,
                uncompressed_size: 100,
            },
            &[1, 2, 3, 4],
        );
        index.checksum_map.insert(
            8,
            PointChecksums::from_fragments(0, [(0x1234, 60), (0x5678, 40)]),
        );
        let serialized = index.export();
        // Layout: header (36) + three u64 offsets (24) + v2 window record
        // (17 + payload) + presence byte + first_member u64 + count u32.
        let record_position = 36 + 24;
        let payload_length = u32::from_le_bytes(
            serialized[record_position + 1 + 4 + 4..record_position + 1 + 4 + 4 + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        let presence_position = record_position + 17 + payload_length;
        assert_eq!(serialized[presence_position], 1);
        let count_position = presence_position + 1 + 8;
        assert_eq!(
            u32::from_le_bytes(
                serialized[count_position..count_position + 4]
                    .try_into()
                    .unwrap()
            ),
            2
        );

        // An unknown presence flag is rejected.
        assert_eq!(
            import_with_patch(serialized.clone(), presence_position, &[9]).unwrap_err(),
            IndexError::InvalidPoint("unknown checksum-presence flag")
        );
        // An oversized fragment count is rejected before any allocation.
        assert_eq!(
            import_with_patch(serialized.clone(), count_position, &u32::MAX.to_le_bytes())
                .unwrap_err(),
            IndexError::PointCountTooLarge {
                count: u32::MAX as u64
            }
        );
        // Fragment lengths that do not sum to the point's span are rejected.
        let first_length_position = count_position + 4 + 4;
        assert_eq!(
            import_with_patch(
                serialized.clone(),
                first_length_position,
                &61u64.to_le_bytes()
            )
            .unwrap_err(),
            IndexError::InvalidPoint("checksum fragments do not cover the seek point's span")
        );
        // Sanity: the unpatched file imports and carries the fragments.
        let restored = GzipIndex::import(&serialized).unwrap();
        assert_eq!(
            restored.checksum_map.get(8).unwrap().fragments,
            vec![
                CrcFragment {
                    crc32: 0x1234,
                    length: 60
                },
                CrcFragment {
                    crc32: 0x5678,
                    length: 40
                },
            ]
        );
    }

    proptest! {
        // Every generated window is compressed on insertion, so keep the
        // case count moderate to stay fast in debug builds.
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn export_import_preserves_arbitrary_indexes(
            points in proptest::collection::vec((0u64..1 << 40, 1u64..1 << 20), 0..40),
            window_seed in any::<u8>(),
        ) {
            let mut index = GzipIndex::new();
            let mut compressed = 0u64;
            let mut uncompressed = 0u64;
            for (i, &(compressed_step, size)) in points.iter().enumerate() {
                compressed += compressed_step % 100_000 + 1;
                let window: Vec<u8> = (0..(i * 37) % 1000).map(|j| (j as u8) ^ window_seed).collect();
                index.add_seek_point(
                    SeekPoint {
                        compressed_bit_offset: compressed,
                        uncompressed_offset: uncompressed,
                        uncompressed_size: size,
                    },
                    &window,
                );
                uncompressed += size;
            }
            index.uncompressed_size = uncompressed;
            let restored = GzipIndex::import(&index.export()).unwrap();
            prop_assert_eq!(restored.block_map.points(), index.block_map.points());
            prop_assert_eq!(restored.uncompressed_size, index.uncompressed_size);
        }

        /// Random seek points with random window contents and lengths
        /// (including empty windows), written as v1, imported, exported
        /// (v3), imported again — windows must be byte-identical at every
        /// hop, and truncating the v3 file anywhere must error rather than
        /// panic.
        #[test]
        fn v1_to_v3_round_trip_preserves_windows(
            windows in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..2000),
                1..12,
            ),
            truncate_seed in 0usize..1_000_000,
        ) {
            let mut index = GzipIndex::new();
            let mut compressed = 8u64;
            let mut uncompressed = 0u64;
            for window in &windows {
                index.add_seek_point(
                    SeekPoint {
                        compressed_bit_offset: compressed,
                        uncompressed_offset: uncompressed,
                        uncompressed_size: 4096,
                    },
                    window,
                );
                compressed += 50_000;
                uncompressed += 4096;
            }
            index.uncompressed_size = uncompressed;

            let from_v1 = GzipIndex::import(&v1_file(&index)).unwrap();
            let v3 = from_v1.export();
            let from_v3 = GzipIndex::import(&v3).unwrap();

            prop_assert_eq!(from_v3.block_map.points(), index.block_map.points());
            for (point, window) in index.block_map.points().iter().zip(&windows) {
                let restored = from_v3
                    .window_map
                    .get(point.compressed_bit_offset)
                    .expect("window lost in translation");
                prop_assert_eq!(&restored[..], &window[..]);
            }

            // A truncated v3 file must fail cleanly (checksum or length).
            let cut = 1 + truncate_seed % (v3.len() - 1);
            prop_assert!(GzipIndex::import(&v3[..cut]).is_err());
        }
    }
}
