//! Where a decode cuts its output into stretches that decode alone, and which
//! bytes before each cut the stretch after it references.
//!
//! A cut is a Dynamic or Non-Compressed block boundary: with the 32 KiB before
//! it for a window, a decode may start there (a *windowed* cut), or, where no
//! window is kept, stop there (a *stop point*).  The block loop asks the
//! [`Cutter`] at every block header, so both decoders cut a decode alike.
//!
//! Only the first [`WINDOW_SIZE`] bytes after a windowed cut can reach before
//! it, so that is all the cutter watches: its *floor* is the last windowed
//! cut, and a match whose source starts below it has its source bytes before
//! each open cut marked in that cut's [`WindowUsage`].  (In the fast loop the
//! test that sends a match reaching before the call's own start to the
//! careful step compares against the floor instead, and a match between the
//! two is noted where it is copied.)  The window a decode from the cut needs
//! is those bytes and no others: the sparse window of a seek point, as the
//! chunk's own is.

use crate::block::BlockType;
use crate::constants::WINDOW_SIZE;
use crate::markers::WindowUsage;

/// A block boundary a decode was cut at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// Bit offset of the block's header in the reader's data.
    pub bit_offset: u64,
    /// Where in the output buffer the block's first byte is.
    pub offset: usize,
    /// Whether a decode may start here, with the window before it; a stop
    /// point is only where one may end.
    pub windowed: bool,
    /// Which bytes of the up to 32 KiB before a windowed cut the output after
    /// it references, as sorted marker-space `(offset, length)` runs
    /// ([`WindowUsage::intervals`]).  Empty for a stop point.
    pub usage: Vec<(u32, u32)>,
}

/// The cut rule of one decode, however many inflate calls it takes: a
/// windowed cut at the first Dynamic or Non-Compressed block boundary at least
/// `window_spacing` bytes of output past the output's start or the last
/// windowed cut, and, between those, a stop point at the first one at least
/// `stop_spacing` past the last cut of either kind.  Offsets are indices into
/// the output buffer, which the calls of one decode share.
#[derive(Debug, Clone)]
pub struct Cutter {
    window_spacing: usize,
    stop_spacing: usize,
    next_window: usize,
    next_stop: usize,
    /// The last windowed cut's offset: a match whose source starts below it
    /// reaches before a cut.
    floor: usize,
    /// The windowed cuts less than a window behind the output's end, as
    /// indices into `cuts`, with what the output after each references.
    open: Vec<(usize, WindowUsage)>,
    cuts: Vec<Cut>,
}

impl Cutter {
    /// The rule with these spacings; `usize::MAX` never cuts.
    pub fn new(window_spacing: usize, stop_spacing: usize) -> Self {
        Self {
            window_spacing,
            stop_spacing,
            next_window: window_spacing,
            next_stop: stop_spacing,
            floor: 0,
            open: Vec::new(),
            cuts: Vec::new(),
        }
    }

    /// A cutter that makes no cut.
    pub fn never() -> Self {
        Self::new(usize::MAX, usize::MAX)
    }

    /// The last windowed cut's offset, 0 before the first.
    #[inline]
    pub(crate) fn floor(&self) -> usize {
        self.floor
    }

    /// Applies the rule to the block of `block_type` whose header starts at
    /// `bit_offset` and whose output starts at `offset`.
    pub(crate) fn at_block(&mut self, bit_offset: u64, offset: usize, block_type: BlockType) {
        let windowed = offset >= self.next_window;
        if block_type == BlockType::Fixed || (!windowed && offset < self.next_stop) {
            return;
        }
        if windowed {
            self.next_window = offset.saturating_add(self.window_spacing);
            self.close(offset.saturating_sub(WINDOW_SIZE));
            self.open.push((self.cuts.len(), WindowUsage::new()));
            self.floor = offset;
        }
        self.next_stop = offset.saturating_add(self.stop_spacing);
        self.cuts.push(Cut {
            bit_offset,
            offset,
            windowed,
            usage: Vec::new(),
        });
    }

    /// Notes a match of `length` bytes from `distance` back, copied to output
    /// index `position`, whose source starts below the floor: the bytes of it
    /// before each open cut go into that cut's usage.  Off the decoders' hot
    /// path: only matches in the first window after a windowed cut get here.
    #[cold]
    #[inline(never)]
    pub(crate) fn note(&mut self, position: usize, distance: usize, length: usize) {
        for (cut, usage) in self.open.iter_mut().rev() {
            let past = position - self.cuts[*cut].offset;
            // An older cut is further behind still, and a source at or past
            // this one is past the older ones too.
            if past >= WINDOW_SIZE || distance <= past {
                break;
            }
            let reach = distance - past;
            usage.mark(WINDOW_SIZE - reach, reach.min(length));
        }
    }

    /// Gives every open cut before `offset` its usage: nothing after it can
    /// reach that far back.
    fn close(&mut self, offset: usize) {
        let closing = self
            .open
            .partition_point(|(cut, _)| self.cuts[*cut].offset < offset);
        for (cut, usage) in self.open.drain(..closing) {
            self.cuts[cut].usage = usage.intervals();
        }
    }

    /// The cuts made so far, each with its usage: call it between inflate
    /// calls — a call ends with the gzip member, which the next does not
    /// reference — or once the decode is done.
    pub fn take_cuts(&mut self) -> Vec<Cut> {
        self.close(usize::MAX);
        std::mem::take(&mut self.cuts)
    }
}
