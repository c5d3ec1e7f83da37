//! Figure 11: decompression bandwidth vs. core count, FASTQ data.

use rgz_bench::*;

fn main() {
    print_header(
        "Figure 11 — parallel decompression of FASTQ data",
        "the file format pugz was designed for; both tools are compared",
    );
    scaling_run("fastq", rgz_datagen::fastq_of_size, true);
}
