//! One raw DEFLATE stream inflated in process by `rgz_deflate::inflate`, into
//! a buffer that a first, untimed inflate has grown and touched already:
//! best of five, in MB/s of output.
//!
//! ```text
//! inflate_in_process <raw DEFLATE file>
//! ```
//!
//! The leg of `bench/inflate_yardstick.py` that sets this decoder's kernel
//! beside `libdeflate_deflate_decompress` and zlib's `inflate` on the same
//! stream, all three into a buffer that exists already: no file reading, no
//! gzip container, no first touch of fresh pages.

use std::time::Instant;

use rgz_bitio::BitReader;
use rgz_deflate::inflate;

const REPEATS: usize = 5;

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: inflate_in_process <raw DEFLATE file>");
        std::process::exit(2);
    };
    let raw = std::fs::read(&path).unwrap_or_else(|error| {
        eprintln!("inflate_in_process: {path}: {error}");
        std::process::exit(1);
    });
    let mut out = Vec::new();
    let run = |out: &mut Vec<u8>| {
        out.clear();
        let start = Instant::now();
        let outcome = inflate(&mut BitReader::new(&raw), &[], out, u64::MAX);
        let elapsed = start.elapsed();
        if let Err(error) = outcome {
            eprintln!("inflate_in_process: {path}: {error}");
            std::process::exit(1);
        }
        elapsed
    };
    run(&mut out);
    let best = (0..REPEATS)
        .map(|_| run(&mut out))
        .min()
        .expect("five runs");
    println!(
        "{:.1}",
        out.len() as f64 / 1e6 / best.as_secs_f64().max(1e-9)
    );
}
