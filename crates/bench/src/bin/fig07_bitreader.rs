//! Figure 7: BitReader bandwidth as a function of bits per read call.
//!
//! Two curves: the checked `read()` path (one refill + bounds check per
//! call, as the paper measures) and the batched fast path
//! (`fill_buffer` once, then `peek_cached`/`consume_cached` until the buffer
//! runs low — several reads per refill and bounds check).

use rgz_bench::*;
use rgz_bitio::BitReader;

fn main() {
    let json = json_mode();
    let mut report = JsonReport::new("fig07_bitreader");
    if !json {
        print_header(
            "Figure 7 — BitReader bandwidth vs. bits per read",
            "single-threaded; higher bits-per-call amortise the refill cost",
        );
        println!(
            "{:>12} {:>16} {:>16}",
            "bits/read", "read MB/s", "batched MB/s"
        );
    }
    let size = scaled(8 * 1024 * 1024, 1024 * 1024);
    for bits in 1..=30u32 {
        // Scale the data with bits-per-read for roughly equal runtimes, as in
        // the paper.
        let data = rgz_datagen::base64_random(size * bits as usize / 8, bits as u64);
        let (_, duration) = best_of(|| {
            let mut reader = BitReader::new(&data);
            let mut checksum = 0u64;
            while reader.remaining_bits() >= bits as u64 {
                checksum = checksum.wrapping_add(reader.read(bits).unwrap());
            }
            checksum
        });
        let read_bandwidth = bandwidth_mb_per_s(data.len(), duration);

        let (_, duration) = best_of(|| {
            let mut reader = BitReader::new(&data);
            let mut checksum = 0u64;
            loop {
                reader.fill_buffer();
                if reader.cached_bits() < bits {
                    break;
                }
                while reader.cached_bits() >= bits {
                    checksum = checksum.wrapping_add(reader.peek_cached(bits));
                    reader.consume_cached(bits);
                }
            }
            checksum
        });
        let batched_bandwidth = bandwidth_mb_per_s(data.len(), duration);

        if !json {
            println!("{bits:>12} {read_bandwidth:>16.1} {batched_bandwidth:>16.1}");
        }
        // Only a few representative widths go into the regression file; the
        // full curve stays for the figure.
        if matches!(bits, 1 | 5 | 13 | 24 | 30) {
            report.record(&format!("read_{bits}bit_mb_s"), read_bandwidth);
            report.record(&format!("batched_{bits}bit_mb_s"), batched_bandwidth);
            report.record(
                &format!("batched_speedup_{bits}bit"),
                batched_bandwidth / read_bandwidth,
            );
        }
    }
    if json {
        report.emit();
    }
}
