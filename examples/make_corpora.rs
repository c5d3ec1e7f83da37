//! Writes the deterministic CI round-trip corpora to a directory.
//!
//! ```text
//! cargo run --release --example make_corpora -- <output-dir>
//! ```
//!
//! Emits `silesia.bin` (structured text, compresses ~3.4x), `base64.bin`
//! (high-entropy printable data, compresses ~1.3x) and `fastq.bin`
//! (sequencing reads, compresses ~1.9x; the corpus the ledger's compression
//! workload runs on) from fixed seeds. The CI `round-trip` job compresses
//! these with `rgz compress` at several levels and in both container
//! layouts, then checks the output against the system `gzip`/`zcat`, the
//! parallel reader, and indexed random access.

fn main() {
    let directory = std::env::args()
        .nth(1)
        .expect("usage: make_corpora <output-dir>");
    let directory = std::path::PathBuf::from(directory);
    std::fs::create_dir_all(&directory).expect("cannot create the output directory");

    for (name, data) in [
        ("silesia.bin", rgz_datagen::silesia_like(4 << 20, 2601)),
        ("base64.bin", rgz_datagen::base64_random(3 << 20, 2602)),
        ("fastq.bin", rgz_datagen::fastq_of_size(3 << 20, 2603)),
    ] {
        std::fs::write(directory.join(name), &data).unwrap();
        println!("wrote {name}: {} bytes", data.len());
    }
}
