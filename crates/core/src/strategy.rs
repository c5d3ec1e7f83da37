//! The prefetch strategy of index-aligned reads (§3.2): which of the chunks
//! after the one just accessed are worth decoding ahead.

use std::ops::Range;

/// Exponentially growing prefetch degree for sequential access patterns.
///
/// The first access to a chunk already prefetches at full degree so that
/// "decompression starts fully parallel" (§3.2); afterwards the degree
/// doubles with every consecutive sequential access and collapses to one on
/// a random access.
#[derive(Debug, Default)]
pub(crate) struct FetchNextAdaptive {
    last: Option<usize>,
    consecutive: u32,
}

impl FetchNextAdaptive {
    /// The chunk index accessed last.
    pub fn last(&self) -> Option<usize> {
        self.last
    }

    /// Records an access to a chunk index.
    pub fn on_access(&mut self, index: usize) {
        self.consecutive = match self.last {
            // First access: assume a full sequential read is starting.
            None => u32::MAX,
            Some(last) if index == last + 1 || index == last => self.consecutive.saturating_add(1),
            Some(_) => 0,
        };
        self.last = Some(index);
    }

    /// The chunk indexes to prefetch: at most `degree` (usually twice the
    /// parallelization), and none beyond a table of `chunks` seek points, so
    /// that no decode is ever issued for a boundary that does not exist.
    pub fn prefetch(&self, degree: usize, chunks: usize) -> Range<usize> {
        let Some(last) = self.last else {
            return 0..0;
        };
        let count = if self.consecutive == u32::MAX {
            degree
        } else {
            (1usize << self.consecutive.min(16)).min(degree)
        };
        last + 1..(last + 1 + count).min(chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefetch(strategy: &FetchNextAdaptive, degree: usize) -> Vec<usize> {
        strategy.prefetch(degree, usize::MAX).collect()
    }

    #[test]
    fn adaptive_strategy_starts_at_full_degree() {
        let mut strategy = FetchNextAdaptive::default();
        assert!(prefetch(&strategy, 8).is_empty());
        strategy.on_access(0);
        assert_eq!(prefetch(&strategy, 8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // Clipped to the table: no chunks past the last one.
        assert_eq!(strategy.prefetch(8, 4).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(strategy.prefetch(8, 1).next().is_none());
        assert!(strategy.prefetch(8, 0).next().is_none());
    }

    #[test]
    fn adaptive_strategy_grows_and_collapses() {
        let mut strategy = FetchNextAdaptive::default();
        strategy.on_access(0);
        // A random (non-sequential) access collapses the window.
        strategy.on_access(100);
        assert_eq!(prefetch(&strategy, 16), vec![101]);
        strategy.on_access(101);
        assert_eq!(prefetch(&strategy, 16), vec![102, 103]);
        strategy.on_access(102);
        assert_eq!(prefetch(&strategy, 16), vec![103, 104, 105, 106]);
        strategy.on_access(103);
        assert_eq!(prefetch(&strategy, 16).len(), 8);
        strategy.on_access(104);
        assert_eq!(prefetch(&strategy, 16).len(), 16);
        // Degree is capped by the argument.
        strategy.on_access(105);
        assert_eq!(prefetch(&strategy, 16).len(), 16);
    }

    #[test]
    fn adaptive_strategy_tolerates_repeated_access_to_same_chunk() {
        let mut strategy = FetchNextAdaptive::default();
        strategy.on_access(5);
        strategy.on_access(5);
        let prefetch = prefetch(&strategy, 8);
        assert!(prefetch.starts_with(&[6]));
    }
}
