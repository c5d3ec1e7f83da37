//! Process-level interop tests: run the real `rgz` binary to export an
//! index in each format it writes (native v3, gztool `.gzi`, indexed_gzip),
//! re-import it with autodetection — a frozen native v2 file too — and
//! byte-compare the decompressed output and random-access reads.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn binary() -> &'static str {
    env!("CARGO_BIN_EXE_rgz")
}

fn run_rgz(arguments: &[&str]) -> Output {
    Command::new(binary())
        .args(arguments)
        .output()
        .expect("failed to spawn the rgz binary")
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("rgz_interop_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn path_str(path: &Path) -> &str {
    path.to_str().unwrap()
}

/// Export in every format written, reimport with autodetection, compare the
/// output; and read through a native v2 file, which is no longer written.
#[test]
fn all_four_formats_round_trip_through_the_binary() {
    let dir = TempDir::new("formats");
    let data = rgz_datagen::fastq_of_size(700_000, 83);
    let compressed = rgz_gzip::GzipWriter::default().compress(&data);
    let gz = dir.file("corpus.gz");
    std::fs::write(&gz, &compressed).unwrap();

    for format in ["v3", "gztool", "indexed-gzip"] {
        let index = dir.file(&format!("index.{format}"));
        let first_output = dir.file(&format!("first.{format}.out"));
        let export = run_rgz(&[
            "--chunk-size",
            "64",
            "-P",
            "2",
            "--index-format",
            format,
            "--export-index",
            path_str(&index),
            "-o",
            path_str(&first_output),
            path_str(&gz),
        ]);
        assert!(
            export.status.success(),
            "{format}: export run failed: {}",
            String::from_utf8_lossy(&export.stderr)
        );
        assert_eq!(std::fs::read(&first_output).unwrap(), data, "{format}");
        let stderr = String::from_utf8_lossy(&export.stderr);
        assert!(
            stderr.contains(&format!("exported {format} index")),
            "{format}: missing export report:\n{stderr}"
        );

        let second_output = dir.file(&format!("second.{format}.out"));
        let import = run_rgz(&[
            "--chunk-size",
            "64",
            "-P",
            "2",
            "--verbose",
            "--import-index",
            path_str(&index),
            "-o",
            path_str(&second_output),
            path_str(&gz),
        ]);
        assert!(
            import.status.success(),
            "{format}: import run failed: {}",
            String::from_utf8_lossy(&import.stderr)
        );
        assert_eq!(
            std::fs::read(&second_output).unwrap(),
            data,
            "{format}: byte mismatch through the imported index"
        );
        let stderr = String::from_utf8_lossy(&import.stderr);
        assert!(
            stderr.contains("imported") && stderr.contains("index"),
            "{format}: missing autodetection report:\n{stderr}"
        );
        assert!(
            stderr.contains("decoded from index") || stderr.contains("index-aligned"),
            "{format}: missing index statistics:\n{stderr}"
        );
    }

    let refused = run_rgz(&["--index-format", "v1", path_str(&gz)]);
    assert_eq!(refused.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("unknown index format 'v1' (expected v3, gztool or indexed-gzip)"),
        "{stderr}"
    );

    // The frozen v2 index of the golden fixture corpus.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let corpus = root.join("tests/fixtures/interop_corpus.gz");
    let v2 = root.join("crates/index/tests/legacy/interop_corpus_v2.rgzidx");
    let output = dir.file("v2.out");
    let import = run_rgz(&[
        "--import-index",
        path_str(&v2),
        "-o",
        path_str(&output),
        path_str(&corpus),
    ]);
    assert!(
        import.status.success(),
        "v2: import run failed: {}",
        String::from_utf8_lossy(&import.stderr)
    );
    let expected = rgz_gzip::decompress(&std::fs::read(&corpus).unwrap()).unwrap();
    assert_eq!(std::fs::read(&output).unwrap(), expected, "v2");
}

/// Cross-format conversion: gzip -> gztool index -> import -> re-export as
/// indexed_gzip -> import again; output must stay byte-identical.
#[test]
fn cross_format_conversion_chain_preserves_output() {
    let dir = TempDir::new("chain");
    let data = rgz_datagen::silesia_like(600_000, 84);
    let compressed = rgz_gzip::GzipWriter::default().compress(&data);
    let gz = dir.file("corpus.gz");
    std::fs::write(&gz, &compressed).unwrap();

    // Build a gztool index.
    let gzi = dir.file("corpus.gzi");
    let export = run_rgz(&[
        "--chunk-size",
        "64",
        "--index-format",
        "gztool",
        "--export-index",
        path_str(&gzi),
        "-o",
        path_str(&dir.file("out0")),
        path_str(&gz),
    ]);
    assert!(export.status.success());

    // Import it and re-export as indexed_gzip in the same run.
    let gzidx = dir.file("corpus.gzidx");
    let convert = run_rgz(&[
        "--chunk-size",
        "64",
        "--import-index",
        path_str(&gzi),
        "--index-format",
        "indexed-gzip",
        "--export-index",
        path_str(&gzidx),
        "-o",
        path_str(&dir.file("out1")),
        path_str(&gz),
    ]);
    assert!(
        convert.status.success(),
        "conversion run failed: {}",
        String::from_utf8_lossy(&convert.stderr)
    );
    assert_eq!(std::fs::read(dir.file("out1")).unwrap(), data);
    // gztool files carry no compressed size; the re-export must backfill it
    // from the actual .gz file rather than writing 0 into the GZIDX header.
    let gzidx_bytes = std::fs::read(&gzidx).unwrap();
    assert_eq!(
        u64::from_le_bytes(gzidx_bytes[7..15].try_into().unwrap()),
        compressed.len() as u64,
        "GZIDX header lost the compressed file size across the conversion"
    );

    // The converted index still drives byte-identical output.
    let import = run_rgz(&[
        "--chunk-size",
        "64",
        "--import-index",
        path_str(&gzidx),
        "-o",
        path_str(&dir.file("out2")),
        path_str(&gz),
    ]);
    assert!(
        import.status.success(),
        "import of converted index failed: {}",
        String::from_utf8_lossy(&import.stderr)
    );
    assert_eq!(std::fs::read(dir.file("out2")).unwrap(), data);
}

/// Corrupt foreign files are rejected with a clean error, not a panic.
#[test]
fn corrupt_foreign_indexes_are_rejected_cleanly() {
    let dir = TempDir::new("hostile");
    let data = rgz_datagen::base64_random(200_000, 85);
    std::fs::write(
        dir.file("corpus.gz"),
        rgz_gzip::GzipWriter::default().compress(&data),
    )
    .unwrap();

    // A gztool header declaring u64::MAX points.
    let mut hostile = vec![0u8; 8];
    hostile.extend_from_slice(b"gzipindx");
    hostile.extend_from_slice(&u64::MAX.to_be_bytes());
    hostile.extend_from_slice(&u64::MAX.to_be_bytes());
    hostile.extend_from_slice(&[0u8; 64]);
    let gzi = dir.file("hostile.gzi");
    std::fs::write(&gzi, &hostile).unwrap();

    let output = run_rgz(&[
        "--import-index",
        path_str(&gzi),
        "-o",
        path_str(&dir.file("out")),
        path_str(&dir.file("corpus.gz")),
    ]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("seek-point count"),
        "expected the typed point-count error, got:\n{stderr}"
    );

    // An unknown magic.
    let unknown = dir.file("unknown.idx");
    std::fs::write(&unknown, b"definitely not an index").unwrap();
    let output = run_rgz(&[
        "--import-index",
        path_str(&unknown),
        "-o",
        path_str(&dir.file("out2")),
        path_str(&dir.file("corpus.gz")),
    ]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("not a recognised index"),
        "expected the magic error, got:\n{stderr}"
    );
}
