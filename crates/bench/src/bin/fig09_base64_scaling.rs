//! Figure 9: decompression bandwidth vs. core count, base64 random data.

use rgz_bench::*;

fn main() {
    print_header(
        "Figure 9 — parallel decompression of base64-encoded random data",
        "weak scaling: corpus grows with the core count; pigz-style compression",
    );
    println!(
        "{:<28} cores:bandwidth-MB/s pairs (uncompressed bandwidth)",
        "series"
    );
    scaling_run("base64", rgz_datagen::base64_random, true);
}
