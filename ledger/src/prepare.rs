//! Set-up: generate a corpus from the seed, compress it into one gzip
//! member, build and export its index, and write everything the timed child
//! process needs into the run's work directory.
//!
//! The program under test only ever sees the generated files; the original
//! bytes stay in this process and reach the child as checksums in the
//! manifest, so the child's peak memory is the reader's alone.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rgz_bench::json::{self, JsonValue};
use rgz_core::{ParallelGzipReader, ParallelGzipReaderOptions};
use rgz_deflate::{CompressionLevel, CompressorOptions};
use rgz_gzip::GzipWriter;
use rgz_io::SharedFileReader;

use crate::op::{Sink, Tally};
use crate::spec::{Kind, Workload, SEEK_READ_BYTES};

/// Paths of one run's generated files.
#[derive(Debug, Clone)]
pub struct Files {
    pub dir: PathBuf,
}

impl Files {
    pub fn new(dir: &Path) -> Self {
        Self {
            dir: dir.to_path_buf(),
        }
    }
    /// The corpus as one gzip member.
    pub fn gz(&self) -> PathBuf {
        self.dir.join("data.gz")
    }
    /// Its exported (v3) index.
    pub fn index(&self) -> PathBuf {
        self.dir.join("data.idx")
    }
    /// The uncompressed corpus (compress workload only).
    pub fn plain(&self) -> PathBuf {
        self.dir.join("plain.bin")
    }
    /// `ParallelCompressor` output and its emitted index.
    pub fn compressed_out(&self) -> PathBuf {
        self.dir.join("out.gz")
    }
    pub fn compressed_out_index(&self) -> PathBuf {
        self.dir.join("out.idx")
    }
    fn manifest(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }
}

/// What the child checks outputs against.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Uncompressed length and CRC-32 of the corpus.
    pub length: u64,
    pub crc32: u32,
    /// Seek workload: `(uncompressed offset, CRC-32 of the 64 KiB there)`.
    pub seeks: Vec<(u64, u32)>,
    /// Seek workload: reads of one tour of the file's chunks; `seeks` is a
    /// whole number of tours.
    pub tour: usize,
}

impl Manifest {
    fn to_json(&self) -> String {
        let seeks: Vec<String> = self
            .seeks
            .iter()
            .map(|(offset, crc)| format!("[{offset},{crc}]"))
            .collect();
        format!(
            "{{\"length\":{},\"crc32\":{},\"tour\":{},\"seeks\":[{}]}}",
            self.length,
            self.crc32,
            self.tour,
            seeks.join(",")
        )
    }

    pub fn load(files: &Files) -> Result<Self, String> {
        let path = files.manifest();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }

    fn from_json(text: &str) -> Result<Self, String> {
        let value = json::parse(text)?;
        let number = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_number)
                .ok_or_else(|| format!("manifest lacks {key}"))
        };
        let seeks = match value.get("seeks") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|item| match item {
                    JsonValue::Array(pair) if pair.len() == 2 => pair[0]
                        .as_number()
                        .zip(pair[1].as_number())
                        .map(|(offset, crc)| (offset as u64, crc as u32)),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()
                .ok_or("malformed seek entry in manifest")?,
            _ => return Err("manifest lacks seeks".into()),
        };
        Ok(Self {
            length: number("length")? as u64,
            crc32: number("crc32")? as u32,
            seeks,
            tour: number("tour")? as usize,
        })
    }
}

/// Sizes and thread count of one ledger run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// `P = min(nproc, 4)` worker threads.
    pub threads: usize,
    /// Reader chunk size: the 4 MiB default, 64 KiB under `--smoke`.
    pub chunk_size: usize,
    pub smoke: bool,
    /// Tours of the file's chunks in one pass of the seek workload.
    pub seek_tours: usize,
}

impl RunOptions {
    pub fn new(smoke: bool) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            threads: cores.min(4),
            chunk_size: if smoke {
                64 * 1024
            } else {
                rgz_core::DEFAULT_CHUNK_SIZE
            },
            smoke,
            seek_tours: if smoke { 6 } else { 20 },
        }
    }

    pub fn reader(&self, threads: usize) -> ParallelGzipReaderOptions {
        ParallelGzipReaderOptions {
            parallelization: threads,
            chunk_size: self.chunk_size,
            ..Default::default()
        }
    }
}

/// A prepared workload: the generated bytes (kept for output checks and the
/// per-layer measurements) and where its files are.
pub struct Prepared {
    pub workload: &'static Workload,
    pub files: Files,
    pub data: Vec<u8>,
    pub gz: Vec<u8>,
    pub index_bytes: Vec<u8>,
    pub manifest: Manifest,
    /// Wall time of each set-up.
    pub setup_seconds: Vec<f64>,
    /// The set-ups' checked index-building passes.
    pub checks: Tally,
}

/// A xorshift64 stream.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Read offsets for the seek workload: `tours` shuffles of the file's
/// chunks, one after another, with a seeded offset inside each chunk.
///
/// The reader keeps up to 12 chunks (4 cached, 8 prefetched) of a file that
/// has about 13, so half the reads find their chunk resident and the other
/// half decode one for ~40 ms.  With independent uniform draws the luck of
/// how often a chunk repeats moved throughput by 10-15% between seeds, so
/// the order of chunks is a fixed tour (every chunk equally often) and only
/// the bytes and the offsets within chunks come from the seed.
fn seek_offsets(seed: u64, tours: usize, chunks: &[(u64, u64)], length: u64) -> Vec<u64> {
    let mut tour = xorshift(0x9E37_79B9_7F4A_7C15);
    let mut within = xorshift(seed ^ 0xD1B5_4A32_D192_ED03);
    let last_start = length.saturating_sub(SEEK_READ_BYTES as u64);
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    (0..tours * chunks.len())
        .map(|i| {
            let position = i % order.len();
            if position == 0 {
                for slot in (1..order.len()).rev() {
                    order.swap(slot, (tour() % (slot as u64 + 1)) as usize);
                }
            }
            let (start, size) = chunks[order[position]];
            (start + within() % size.max(1)).min(last_start)
        })
        .collect()
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One full set-up; returns the prepared workload with one timing sample.
fn prepare_once(
    workload: &'static Workload,
    seed: u64,
    files: &Files,
    options: &RunOptions,
) -> Result<Prepared, String> {
    let start = Instant::now();
    let bytes = if options.smoke {
        workload.smoke_bytes
    } else {
        workload.bytes
    };
    let data = workload.corpus.generate(bytes, seed);
    // One member whose back-reference chain never resets, like `gzip file`.
    let gz = GzipWriter::new(CompressorOptions {
        level: CompressionLevel::Fast,
        ..Default::default()
    })
    .compress(&data);
    write(&files.gz(), &gz)?;
    if workload.kind == Kind::Compress {
        write(&files.plain(), &data)?;
    }

    // One sequential pass builds the index; its output is checked, so a
    // broken reader fails here before anything is timed.
    let crc32 = rgz_checksum::crc32(&data);
    let reader = SharedFileReader::open(files.gz()).map_err(|e| e.to_string())?;
    let mut reader = ParallelGzipReader::new(reader, options.reader(options.threads))
        .map_err(|e| e.to_string())?;
    let mut sink = Sink::hashing();
    let length = reader
        .decompress_to(&mut sink)
        .map_err(|error| format!("set-up decompression failed: {error}"))?;
    let mut checks = Tally::default();
    checks.check(
        length == data.len() as u64 && sink.crc32() == Some(crc32),
        "set-up decompression output",
    );
    let index = reader.index();
    let index_bytes = index.export();
    write(&files.index(), &index_bytes)?;

    // The seek workload reads in every chunk the index knows.
    let chunks: Vec<(u64, u64)> = match workload.kind {
        Kind::Seek => index
            .block_map
            .points()
            .iter()
            .filter(|point| point.uncompressed_size > 0)
            .map(|point| (point.uncompressed_offset, point.uncompressed_size))
            .collect(),
        _ => Vec::new(),
    };
    let seeks = seek_offsets(seed, options.seek_tours, &chunks, data.len() as u64)
        .into_iter()
        .map(|offset| {
            let start = offset as usize;
            let end = (start + SEEK_READ_BYTES).min(data.len());
            (offset, rgz_checksum::crc32(&data[start..end]))
        })
        .collect();
    let manifest = Manifest {
        length: data.len() as u64,
        crc32,
        seeks,
        tour: chunks.len(),
    };
    write(&files.manifest(), manifest.to_json().as_bytes())?;

    Ok(Prepared {
        workload,
        files: files.clone(),
        data,
        gz,
        index_bytes,
        manifest,
        setup_seconds: vec![start.elapsed().as_secs_f64()],
        checks,
    })
}

/// Sets the workload up `workload.setups` times (the files of the last one
/// stay) and records each set-up's wall time.
pub fn prepare(
    workload: &'static Workload,
    seed: u64,
    files: &Files,
    options: &RunOptions,
) -> Result<Prepared, String> {
    let mut prepared = prepare_once(workload, seed, files, options)?;
    for _ in 1..workload.setups {
        let again = prepare_once(workload, seed, files, options)?;
        prepared.setup_seconds.extend(again.setup_seconds);
        prepared.checks.merge(again.checks);
    }
    Ok(prepared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_its_json() {
        let manifest = Manifest {
            length: 5_000_000_000,
            crc32: 0xFFFF_FFFE,
            seeks: vec![(0, 1), (4_999_000_000, 0xDEAD_BEEF)],
            tour: 2,
        };
        assert_eq!(Manifest::from_json(&manifest.to_json()).unwrap(), manifest);
    }

    #[test]
    fn seek_offsets_repeat_for_a_seed_and_visit_every_chunk_once_per_cycle() {
        let length = 1u64 << 20;
        let chunks: Vec<(u64, u64)> = (0..8).map(|i| (i * (length / 8), length / 8)).collect();
        let offsets = seek_offsets(11, 6, &chunks, length);
        assert_eq!(offsets.len(), 48);
        assert_eq!(offsets, seek_offsets(11, 6, &chunks, length));
        assert_ne!(offsets, seek_offsets(12, 6, &chunks, length));
        assert!(offsets
            .iter()
            .all(|&offset| offset + SEEK_READ_BYTES as u64 <= length));
        for cycle in offsets.chunks_exact(8) {
            let mut visited: Vec<u64> = cycle.iter().map(|offset| offset / (length / 8)).collect();
            visited.sort_unstable();
            assert_eq!(visited, (0..8).collect::<Vec<u64>>());
        }
    }
}
