//! File-reading abstraction (§3, "FileReader" in the class diagram; §4.2,
//! Figure 8).
//!
//! The parallel decompressor needs many threads to read disjoint ranges of
//! the same compressed file concurrently.  [`FileReader`] abstracts
//! positional reads so the rest of the system works identically on regular
//! files ([`StandardFileReader`]) and in-memory buffers
//! ([`MemoryFileReader`]).
//!
//! [`SharedFileReader`] is the cheaply clonable handle handed to worker
//! threads; its strided-read throughput is what Figure 8 measures.

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;
use rgz_metrics::{exponential_buckets, names, Counter, Histogram, MetricsRegistry};

/// Positional, thread-safe read access to a compressed input.
pub trait FileReader: Send + Sync {
    /// Reads up to `buffer.len()` bytes starting at `offset`, returning the
    /// number of bytes read (0 at end of file).
    fn read_at(&self, offset: u64, buffer: &mut [u8]) -> io::Result<usize>;

    /// Total size of the input in bytes.
    fn size(&self) -> u64;
}

/// Reads exactly `length` bytes at `offset` (shorter only at end of file).
pub fn read_range(reader: &dyn FileReader, offset: u64, length: usize) -> io::Result<Vec<u8>> {
    let available = reader.size().saturating_sub(offset).min(length as u64) as usize;
    let mut buffer = vec![0u8; available];
    let filled = fill(reader, offset, &mut buffer)?;
    buffer.truncate(filled);
    Ok(buffer)
}

/// [`read_range`] into a caller's buffer, whose previous contents are
/// replaced.  A recycled buffer already as long as the range is overwritten
/// as it is: only what it has to grow by is zero-filled first.
pub fn read_range_into(
    reader: &dyn FileReader,
    offset: u64,
    length: usize,
    buffer: &mut Vec<u8>,
) -> io::Result<()> {
    let available = reader.size().saturating_sub(offset).min(length as u64) as usize;
    buffer.reserve_exact(available.saturating_sub(buffer.len()));
    buffer.resize(available, 0);
    let filled = fill(reader, offset, buffer)?;
    buffer.truncate(filled);
    Ok(())
}

/// Fills `buffer` from `offset` on; returns how much of it the input had.
fn fill(reader: &dyn FileReader, offset: u64, buffer: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0usize;
    while filled < buffer.len() {
        let read = reader.read_at(offset + filled as u64, &mut buffer[filled..])?;
        if read == 0 {
            break;
        }
        filled += read;
    }
    Ok(filled)
}

// --- in-memory ---------------------------------------------------------------

/// A [`FileReader`] over an in-memory buffer.
#[derive(Debug, Clone)]
pub struct MemoryFileReader {
    data: Bytes,
}

impl MemoryFileReader {
    /// Wraps a buffer.
    pub fn new(data: impl Into<Bytes>) -> Self {
        Self { data: data.into() }
    }

    /// Borrow the underlying bytes.
    pub fn bytes(&self) -> &Bytes {
        &self.data
    }
}

impl FileReader for MemoryFileReader {
    fn read_at(&self, offset: u64, buffer: &mut [u8]) -> io::Result<usize> {
        if offset >= self.data.len() as u64 {
            return Ok(0);
        }
        let start = offset as usize;
        let length = buffer.len().min(self.data.len() - start);
        buffer[..length].copy_from_slice(&self.data[start..start + length]);
        Ok(length)
    }

    fn size(&self) -> u64 {
        self.data.len() as u64
    }
}

// --- regular files -----------------------------------------------------------

/// A [`FileReader`] over a regular file using positional reads (`pread`), so
/// that all threads can share one file descriptor without seeking.
#[derive(Debug)]
pub struct StandardFileReader {
    file: File,
    size: u64,
}

impl StandardFileReader {
    /// Opens `path` for shared positional reading.  Only a regular file has a
    /// size to read ranges of: a pipe, a FIFO or a device is an
    /// [`io::ErrorKind::InvalidInput`] error, not a file of no bytes.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let metadata = file.metadata()?;
        if !metadata.is_file() {
            let message = format!("{} is not a regular file", path.display());
            return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
        }
        Ok(Self {
            file,
            size: metadata.len(),
        })
    }
}

impl FileReader for StandardFileReader {
    #[cfg(unix)]
    fn read_at(&self, offset: u64, buffer: &mut [u8]) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        self.file.read_at(buffer, offset)
    }

    #[cfg(not(unix))]
    fn read_at(&self, offset: u64, buffer: &mut [u8]) -> io::Result<usize> {
        use std::io::{Read, Seek, SeekFrom};
        let mut clone = self.file.try_clone()?;
        clone.seek(SeekFrom::Start(offset))?;
        clone.read(buffer)
    }

    fn size(&self) -> u64 {
        self.size
    }
}

// --- instrumentation ---------------------------------------------------------

/// Wraps any [`FileReader`] and counts every positional read (call count,
/// bytes returned, latency) into a live metrics registry.
///
/// The wrapper sits at the bottom of the pipeline, so `rgz_read_bytes_total`
/// is the ground truth for compressed bytes pulled in — including bytes read
/// twice by wasted speculation, which no higher layer can see.
pub struct InstrumentedFileReader {
    inner: Arc<dyn FileReader>,
    reads_total: Counter,
    read_bytes_total: Counter,
    read_seconds: Histogram,
}

impl InstrumentedFileReader {
    /// Wraps `inner`, registering the I/O metric families on `metrics`.
    pub fn new(inner: Arc<dyn FileReader>, metrics: &MetricsRegistry) -> Self {
        let reads_total = metrics.counter(
            names::READ_CALLS,
            "Positional read calls issued to the compressed input.",
        );
        let read_bytes_total = metrics.counter(
            names::READ_BYTES,
            "Compressed bytes returned by positional reads (includes speculative re-reads).",
        );
        let read_seconds = metrics.histogram(
            names::READ_SECONDS,
            "Latency of one positional read call.",
            &exponential_buckets(0.000_01, 4.0, 10),
        );
        Self {
            inner,
            reads_total,
            read_bytes_total,
            read_seconds,
        }
    }
}

impl FileReader for InstrumentedFileReader {
    fn read_at(&self, offset: u64, buffer: &mut [u8]) -> io::Result<usize> {
        let timer = self.read_seconds.start_timer();
        let result = self.inner.read_at(offset, buffer);
        match &result {
            Ok(read) => {
                self.reads_total.inc();
                self.read_bytes_total.add(*read as u64);
            }
            Err(_) => timer.discard(),
        }
        result
    }

    fn size(&self) -> u64 {
        self.inner.size()
    }
}

// --- shared handle -----------------------------------------------------------

/// A cheaply clonable, thread-safe handle to any [`FileReader`].
#[derive(Clone)]
pub struct SharedFileReader {
    inner: Arc<dyn FileReader>,
}

impl std::fmt::Debug for SharedFileReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFileReader")
            .field("size", &self.size())
            .finish()
    }
}

impl SharedFileReader {
    /// Wraps any reader implementation.
    pub fn new(reader: impl FileReader + 'static) -> Self {
        Self {
            inner: Arc::new(reader),
        }
    }

    /// Wraps an in-memory buffer.
    pub fn from_bytes(data: impl Into<Bytes>) -> Self {
        Self::new(MemoryFileReader::new(data))
    }

    /// Opens a file from a path.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(StandardFileReader::open(path)?))
    }

    /// Reads exactly the requested range (shorter only at end of file).
    pub fn read_range(&self, offset: u64, length: usize) -> io::Result<Vec<u8>> {
        read_range(self.inner.as_ref(), offset, length)
    }

    /// [`Self::read_range`] into a caller's buffer (see [`read_range_into`]).
    pub fn read_range_into(
        &self,
        offset: u64,
        length: usize,
        buffer: &mut Vec<u8>,
    ) -> io::Result<()> {
        read_range_into(self.inner.as_ref(), offset, length, buffer)
    }

    /// Returns a handle that reports every read to `metrics`
    /// (see [`InstrumentedFileReader`]).
    pub fn instrumented(&self, metrics: &MetricsRegistry) -> SharedFileReader {
        SharedFileReader {
            inner: Arc::new(InstrumentedFileReader::new(
                Arc::clone(&self.inner),
                metrics,
            )),
        }
    }
}

impl FileReader for SharedFileReader {
    fn read_at(&self, offset: u64, buffer: &mut [u8]) -> io::Result<usize> {
        self.inner.read_at(offset, buffer)
    }

    fn size(&self) -> u64 {
        self.inner.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(length: usize) -> Vec<u8> {
        (0..length).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn memory_reader_reads_ranges_and_clamps_at_eof() {
        let data = sample_data(1000);
        let reader = MemoryFileReader::new(data.clone());
        assert_eq!(reader.size(), 1000);
        let mut buffer = [0u8; 16];
        assert_eq!(reader.read_at(0, &mut buffer).unwrap(), 16);
        assert_eq!(&buffer[..], &data[..16]);
        assert_eq!(reader.read_at(995, &mut buffer).unwrap(), 5);
        assert_eq!(&buffer[..5], &data[995..]);
        assert_eq!(reader.read_at(1000, &mut buffer).unwrap(), 0);
        assert_eq!(reader.read_at(5000, &mut buffer).unwrap(), 0);
    }

    #[test]
    fn read_range_helper_is_exact() {
        let data = sample_data(10_000);
        let reader = SharedFileReader::from_bytes(data.clone());
        assert_eq!(reader.read_range(100, 256).unwrap(), &data[100..356]);
        assert_eq!(reader.read_range(9990, 100).unwrap(), &data[9990..]);
        assert_eq!(reader.read_range(20_000, 10).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn read_range_into_replaces_a_recycled_buffers_contents() {
        let data = sample_data(10_000);
        let reader = SharedFileReader::from_bytes(data.clone());
        // Longer than, shorter than and as long as what the buffer held.
        let mut buffer = vec![0xEE; 300];
        for (offset, length) in [(100u64, 256usize), (5_000, 1_000), (4_000, 1_000)] {
            reader.read_range_into(offset, length, &mut buffer).unwrap();
            assert_eq!(buffer, &data[offset as usize..offset as usize + length]);
        }
        reader.read_range_into(9_990, 100, &mut buffer).unwrap();
        assert_eq!(buffer, &data[9_990..]);
        reader.read_range_into(20_000, 10, &mut buffer).unwrap();
        assert!(buffer.is_empty());
    }

    #[test]
    fn standard_file_reader_reads_files() {
        let data = sample_data(64 * 1024);
        let path = std::env::temp_dir().join(format!("rgz_io_test_{}.bin", std::process::id()));
        std::fs::write(&path, &data).unwrap();
        let reader = SharedFileReader::open(&path).unwrap();
        assert_eq!(reader.size(), data.len() as u64);
        assert_eq!(
            reader.read_range(1234, 4096).unwrap(),
            &data[1234..1234 + 4096]
        );
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn what_is_not_a_regular_file_is_an_error_not_an_empty_file() {
        // A pipe's, a FIFO's or a device's metadata says 0 bytes: no size to
        // read ranges of, and no file of no bytes either.
        for path in ["/dev/null", "/dev/zero"] {
            let error = SharedFileReader::open(path).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::InvalidInput, "{path}");
        }
    }

    #[test]
    fn instrumented_reader_counts_calls_and_bytes() {
        let data = sample_data(4096);
        let registry = MetricsRegistry::new();
        let reader = SharedFileReader::from_bytes(data.clone()).instrumented(&registry);
        assert_eq!(reader.read_range(0, 1000).unwrap(), &data[..1000]);
        assert_eq!(reader.read_range(4000, 200).unwrap(), &data[4000..]);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("rgz_read_calls_total", &[]), Some(2));
        assert_eq!(snapshot.counter("rgz_read_bytes_total", &[]), Some(1096));
        assert_eq!(
            snapshot.histogram("rgz_read_seconds", &[]).unwrap().count,
            2
        );
    }

    #[test]
    fn shared_reader_supports_concurrent_strided_reads() {
        // A miniature version of the Figure 8 access pattern: N threads read
        // interleaved 4 KiB stripes of the same in-memory file.
        let data = sample_data(1 << 20);
        let reader = SharedFileReader::from_bytes(data.clone());
        let threads = 8usize;
        let stripe = 4096usize;
        let results: Vec<bool> = std::thread::scope(|scope| {
            (0..threads)
                .map(|thread_index| {
                    let reader = reader.clone();
                    let data = &data;
                    scope.spawn(move || {
                        let mut offset = thread_index * stripe;
                        while offset < data.len() {
                            let chunk = reader.read_range(offset as u64, stripe).unwrap();
                            if chunk != data[offset..(offset + stripe).min(data.len())] {
                                return false;
                            }
                            offset += stripe * threads;
                        }
                        true
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|handle| handle.join().unwrap())
                .collect()
        });
        assert!(results.into_iter().all(|ok| ok));
    }
}
