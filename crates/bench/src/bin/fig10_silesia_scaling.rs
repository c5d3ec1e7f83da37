//! Figure 10: decompression bandwidth vs. core count, Silesia-like corpus.

use rgz_bench::*;

fn main() {
    print_header(
        "Figure 10 — parallel decompression of the Silesia-like corpus",
        "marker-heavy data; pugz is excluded because the content leaves the 9-126 byte range",
    );
    scaling_run("silesia", rgz_datagen::silesia_like, false);
}
