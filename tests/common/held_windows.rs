//! What a reader's interior seek points hold of a chunk's windows, worked out
//! apart from the reader: the oracle of the tests that weigh them, shared by
//! the integration tests of both packages (each includes this file by path).

use rgz_bitio::BitReader;
use rgz_deflate::{inflate_with_cuts, Cutter};
use rgz_index::{SeekPoint, WINDOW_SIZE};
use rgz_window::SparseWindow;

/// The windows a whole decode of the chunk at `point` up to `stop_bit`, in a
/// single-member file of `data` compressed to `compressed`, keeps at windowed
/// cuts `window_spacing` apart: how many, and the bytes they hold as sparse
/// windows — what the reader weighs its interior points by.
pub fn held_windows(
    compressed: &[u8],
    data: &[u8],
    point: &SeekPoint,
    stop_bit: u64,
    window_spacing: usize,
) -> (usize, u64) {
    let mut reader = BitReader::new(compressed);
    reader.seek_to_bit(point.compressed_bit_offset).unwrap();
    if point.compressed_bit_offset == 0 {
        rgz_gzip::parse_header(&mut reader).unwrap();
    }
    let start = point.uncompressed_offset as usize;
    let window = &data[start.saturating_sub(WINDOW_SIZE)..start];
    let mut cutter = Cutter::new(window_spacing, usize::MAX);
    let mut out = Vec::new();
    inflate_with_cuts(&mut reader, window, &mut out, stop_bit, &mut cutter).unwrap();
    let windowed = cutter.take_cuts().into_iter().filter(|cut| cut.windowed);
    windowed.fold((0, 0), |(count, bytes), cut| {
        let before = cut.offset.saturating_sub(WINDOW_SIZE)..cut.offset;
        let held = SparseWindow::new(&out[before], &cut.usage).held_bytes();
        (count + 1, bytes + held as u64)
    })
}
