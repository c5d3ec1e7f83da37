//! gzip member header and footer parsing/serialisation (RFC 1952).

use rgz_bitio::BitReader;
use rgz_checksum::Crc32;

use crate::GzipError;

/// gzip magic bytes.
pub const MAGIC: [u8; 2] = [0x1F, 0x8B];
/// Compression method 8 = DEFLATE (the only one defined).
pub const CM_DEFLATE: u8 = 8;
/// OS byte for Unix.
pub const OS_UNIX: u8 = 3;

const FLAG_TEXT: u8 = 0x01;
const FLAG_HCRC: u8 = 0x02;
const FLAG_EXTRA: u8 = 0x04;
const FLAG_NAME: u8 = 0x08;
const FLAG_COMMENT: u8 = 0x10;
const FLAG_RESERVED: u8 = 0xE0;

/// A parsed gzip member header.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GzipHeader {
    /// Whether the FTEXT flag was set.
    pub is_text: bool,
    /// Modification time (Unix epoch seconds; 0 = unavailable).
    pub modification_time: u32,
    /// XFL byte (2 = maximum compression, 4 = fastest).
    pub extra_flags: u8,
    /// OS byte.
    pub operating_system: u8,
    /// Raw FEXTRA payload, if present.
    pub extra_field: Option<Vec<u8>>,
    /// Original file name, if present.
    pub file_name: Option<Vec<u8>>,
    /// Comment, if present.
    pub comment: Option<Vec<u8>>,
    /// Whether the header carried (and passed) a header CRC16.
    pub had_header_crc: bool,
    /// Size of the encoded header in bytes.
    pub header_size: usize,
}

/// A parsed gzip member footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GzipFooter {
    /// CRC-32 of the uncompressed data.
    pub crc32: u32,
    /// Uncompressed size modulo 2^32.
    pub uncompressed_size: u32,
}

fn read_byte(reader: &mut BitReader<'_>) -> Result<u8, GzipError> {
    Ok(reader.read(8).map_err(|_| GzipError::Truncated)? as u8)
}

fn read_zero_terminated(reader: &mut BitReader<'_>) -> Result<Vec<u8>, GzipError> {
    let mut bytes = Vec::new();
    loop {
        let byte = read_byte(reader)?;
        if byte == 0 {
            return Ok(bytes);
        }
        bytes.push(byte);
    }
}

/// Parses a gzip member header starting at the reader's current position,
/// which must be byte-aligned.
pub fn parse_header(reader: &mut BitReader<'_>) -> Result<GzipHeader, GzipError> {
    debug_assert_eq!(reader.position() % 8, 0);
    let start = reader.position();
    let magic = [read_byte(reader)?, read_byte(reader)?];
    if magic != MAGIC {
        return Err(GzipError::BadMagic { found: magic });
    }
    let method = read_byte(reader)?;
    if method != CM_DEFLATE {
        return Err(GzipError::UnsupportedCompressionMethod(method));
    }
    let flags = read_byte(reader)?;
    if flags & FLAG_RESERVED != 0 {
        return Err(GzipError::ReservedFlagsSet(flags));
    }
    let modification_time = reader.read_u32_le().map_err(|_| GzipError::Truncated)?;
    let extra_flags = read_byte(reader)?;
    let operating_system = read_byte(reader)?;

    let extra_field = if flags & FLAG_EXTRA != 0 {
        let length = reader.read_u16_le().map_err(|_| GzipError::Truncated)? as usize;
        let mut payload = vec![0u8; length];
        reader
            .read_bytes(&mut payload)
            .map_err(|_| GzipError::Truncated)?;
        Some(payload)
    } else {
        None
    };
    let file_name = if flags & FLAG_NAME != 0 {
        Some(read_zero_terminated(reader)?)
    } else {
        None
    };
    let comment = if flags & FLAG_COMMENT != 0 {
        Some(read_zero_terminated(reader)?)
    } else {
        None
    };
    let had_header_crc = flags & FLAG_HCRC != 0;
    if had_header_crc {
        let stored = reader.read_u16_le().map_err(|_| GzipError::Truncated)?;
        // Compute the CRC16 over the header bytes read so far.
        let header_bytes = reader
            .bytes_at(
                (start / 8) as usize,
                ((reader.position() - start) / 8) as usize - 2,
            )
            .ok_or(GzipError::Truncated)?;
        let mut crc = Crc32::new();
        crc.update(header_bytes);
        let computed = (crc.finalize() & 0xFFFF) as u16;
        if computed != stored {
            return Err(GzipError::HeaderCrcMismatch { stored, computed });
        }
    }

    Ok(GzipHeader {
        is_text: flags & FLAG_TEXT != 0,
        modification_time,
        extra_flags,
        operating_system,
        extra_field,
        file_name,
        comment,
        had_header_crc,
        header_size: ((reader.position() - start) / 8) as usize,
    })
}

/// Parses the 8-byte gzip member footer (CRC32 + ISIZE). The reader is
/// aligned to the next byte boundary first, as the DEFLATE stream may end
/// mid-byte.
pub fn parse_footer(reader: &mut BitReader<'_>) -> Result<GzipFooter, GzipError> {
    reader.align_to_byte();
    let crc32 = reader.read_u32_le().map_err(|_| GzipError::Truncated)?;
    let uncompressed_size = reader.read_u32_le().map_err(|_| GzipError::Truncated)?;
    Ok(GzipFooter {
        crc32,
        uncompressed_size,
    })
}

/// Reads what follows a member's footer, at the reader's byte-aligned
/// position, by the one rule both decoders keep: nothing, or only zero bytes,
/// to the end of the file is the end (`None`); a gzip magic starts another
/// member, whose header is parsed; anything else is
/// [`GzipError::TrailingGarbage`] at its first byte (an offset into the
/// reader's data).
///
/// `to_end` says whether the reader holds the rest of the file.  One that
/// does not gets [`GzipError::Truncated`] for what its bytes cannot decide:
/// zeros that may or may not run to the end, or a magic cut in half.
pub fn next_member(
    reader: &mut BitReader<'_>,
    to_end: bool,
) -> Result<Option<GzipHeader>, GzipError> {
    debug_assert_eq!(reader.position() % 8, 0);
    let offset = reader.position() / 8;
    let rest = reader.data().get(offset as usize..).unwrap_or_default();
    let zeros = rest.iter().all(|&byte| byte == 0);
    if rest.starts_with(&MAGIC) {
        parse_header(reader).map(Some)
    } else if !to_end && (zeros || rest == [MAGIC[0]]) {
        Err(GzipError::Truncated)
    } else if zeros {
        Ok(None)
    } else {
        Err(GzipError::TrailingGarbage { offset })
    }
}

impl GzipHeader {
    /// Serialises this header to bytes.  `header_size` and `had_header_crc`
    /// are recomputed, not honoured.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut flags = 0u8;
        if self.is_text {
            flags |= FLAG_TEXT;
        }
        if self.extra_field.is_some() {
            flags |= FLAG_EXTRA;
        }
        if self.file_name.is_some() {
            flags |= FLAG_NAME;
        }
        if self.comment.is_some() {
            flags |= FLAG_COMMENT;
        }
        let mut bytes = Vec::with_capacity(16);
        bytes.extend_from_slice(&MAGIC);
        bytes.push(CM_DEFLATE);
        bytes.push(flags);
        bytes.extend_from_slice(&self.modification_time.to_le_bytes());
        bytes.push(self.extra_flags);
        bytes.push(self.operating_system);
        if let Some(extra) = &self.extra_field {
            bytes.extend_from_slice(&(extra.len() as u16).to_le_bytes());
            bytes.extend_from_slice(extra);
        }
        if let Some(name) = &self.file_name {
            bytes.extend_from_slice(name);
            bytes.push(0);
        }
        if let Some(comment) = &self.comment {
            bytes.extend_from_slice(comment);
            bytes.push(0);
        }
        bytes
    }
}

impl GzipFooter {
    /// Serialises this footer to its 8-byte representation.
    pub fn to_bytes(&self) -> [u8; 8] {
        let mut bytes = [0u8; 8];
        bytes[..4].copy_from_slice(&self.crc32.to_le_bytes());
        bytes[4..].copy_from_slice(&self.uncompressed_size.to_le_bytes());
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<GzipHeader, GzipError> {
        let mut reader = BitReader::new(bytes);
        parse_header(&mut reader)
    }

    #[test]
    fn minimal_header_round_trips() {
        let header = GzipHeader {
            operating_system: OS_UNIX,
            ..Default::default()
        };
        let bytes = header.to_bytes();
        assert_eq!(bytes.len(), 10);
        let parsed = parse(&bytes).unwrap();
        assert_eq!(parsed.header_size, 10);
        assert_eq!(parsed.operating_system, OS_UNIX);
        assert!(parsed.file_name.is_none());
    }

    #[test]
    fn header_with_all_optional_fields_round_trips() {
        let header = GzipHeader {
            is_text: true,
            modification_time: 1_700_000_000,
            extra_flags: 2,
            operating_system: OS_UNIX,
            extra_field: Some(vec![b'B', b'C', 2, 0, 0x34, 0x12]),
            file_name: Some(b"archive.tar".to_vec()),
            comment: Some(b"created by rapidgzip-rs tests".to_vec()),
            had_header_crc: false,
            header_size: 0,
        };
        let bytes = header.to_bytes();
        let parsed = parse(&bytes).unwrap();
        assert!(parsed.is_text);
        assert_eq!(parsed.modification_time, 1_700_000_000);
        assert_eq!(
            parsed.extra_field.as_deref(),
            Some(&[b'B', b'C', 2, 0, 0x34, 0x12][..])
        );
        assert_eq!(parsed.file_name.as_deref(), Some(b"archive.tar".as_slice()));
        assert_eq!(parsed.header_size, bytes.len());
    }

    #[test]
    fn bad_magic_and_method_are_rejected() {
        assert!(matches!(
            parse(&[0x50, 0x4B, 8, 0, 0, 0, 0, 0, 0, 3]),
            Err(GzipError::BadMagic { .. })
        ));
        assert!(matches!(
            parse(&[0x1F, 0x8B, 7, 0, 0, 0, 0, 0, 0, 3]),
            Err(GzipError::UnsupportedCompressionMethod(7))
        ));
    }

    #[test]
    fn reserved_flags_are_rejected() {
        assert!(matches!(
            parse(&[0x1F, 0x8B, 8, 0x20, 0, 0, 0, 0, 0, 3]),
            Err(GzipError::ReservedFlagsSet(0x20))
        ));
    }

    #[test]
    fn truncated_headers_are_rejected() {
        let header = GzipHeader {
            file_name: Some(b"a-very-long-file-name.bin".to_vec()),
            ..Default::default()
        };
        let bytes = header.to_bytes();
        for cut in [1usize, 5, 9, 12] {
            assert!(parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn what_follows_a_member_is_the_end_a_member_or_garbage() {
        let next = |bytes: &[u8], to_end| next_member(&mut BitReader::new(bytes), to_end);
        let member = GzipHeader::default().to_bytes();
        for to_end in [true, false] {
            assert!(matches!(next(&member, to_end), Ok(Some(_))));
            assert_eq!(
                next(b"\0garbage", to_end),
                Err(GzipError::TrailingGarbage { offset: 0 })
            );
            assert_eq!(
                next(&[0x1F, 0x8C], to_end),
                Err(GzipError::TrailingGarbage { offset: 0 })
            );
            assert_eq!(next(&member[..5], to_end), Err(GzipError::Truncated));
        }
        // Only a reader that holds the rest of the file can tell the end, or
        // a lone first magic byte, for what it is.
        assert_eq!(next(&[], true), Ok(None));
        assert_eq!(next(&[0; 64], true), Ok(None));
        assert_eq!(
            next(&[0x1F], true),
            Err(GzipError::TrailingGarbage { offset: 0 })
        );
        for tail in [&[][..], &[0; 64], &[0x1F]] {
            assert_eq!(next(tail, false), Err(GzipError::Truncated));
        }
    }

    #[test]
    fn footer_round_trips_and_requires_alignment() {
        let footer = GzipFooter {
            crc32: 0xDEADBEEF,
            uncompressed_size: 123_456_789,
        };
        let mut bytes = vec![0xFFu8];
        bytes.extend_from_slice(&footer.to_bytes());
        let mut reader = BitReader::new(&bytes);
        reader.read(3).unwrap(); // leave the reader mid-byte
        reader.read(5).unwrap();
        let parsed = parse_footer(&mut reader).unwrap();
        assert_eq!(parsed, footer);
    }
}
