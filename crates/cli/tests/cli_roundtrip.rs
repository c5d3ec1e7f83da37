//! Process-level integration tests: run the real `rgz` binary to export a
//! seek-point index, re-import it, and byte-compare the decompressed output.

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
        let path = std::env::temp_dir().join(format!("rgz_cli_{tag}_{}", std::process::id()));
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

#[test]
fn index_export_reimport_round_trips_in_both_formats() {
    let dir = TempDir::new("roundtrip");
    let data = rgz_datagen::fastq_of_size(600_000, 77);
    let compressed = rgz_gzip::GzipWriter::default().compress(&data);
    let gz = dir.file("corpus.gz");
    std::fs::write(&gz, &compressed).unwrap();

    let mut exported_sizes = Vec::new();
    for format in ["v1", "v2"] {
        let first_output = dir.file(&format!("first_{format}.out"));
        let index = dir.file(&format!("index_{format}.rgzidx"));
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
            "export run failed: {}",
            String::from_utf8_lossy(&export.stderr)
        );
        assert_eq!(std::fs::read(&first_output).unwrap(), data);
        exported_sizes.push(std::fs::metadata(&index).unwrap().len());

        let second_output = dir.file(&format!("second_{format}.out"));
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
            "import run failed: {}",
            String::from_utf8_lossy(&import.stderr)
        );
        // Byte-identical output through the imported index.
        assert_eq!(std::fs::read(&second_output).unwrap(), data);

        let stderr = String::from_utf8_lossy(&import.stderr);
        assert!(
            stderr.contains("decoded from index"),
            "missing reader statistics in --verbose output:\n{stderr}"
        );
        assert!(
            stderr.contains("window memory"),
            "missing window memory statistics in --verbose output:\n{stderr}"
        );
    }

    // The compressed-window format must be substantially smaller than raw.
    let (v1_size, v2_size) = (exported_sizes[0], exported_sizes[1]);
    assert!(
        v2_size * 2 < v1_size,
        "v2 index ({v2_size}) not smaller than v1 ({v1_size})"
    );
}

#[test]
fn corrupt_index_files_are_rejected_cleanly() {
    let dir = TempDir::new("corrupt");
    let data = rgz_datagen::base64_random(200_000, 78);
    let compressed = rgz_gzip::GzipWriter::default().compress(&data);
    let gz = dir.file("corpus.gz");
    std::fs::write(&gz, &compressed).unwrap();

    let index = dir.file("index.rgzidx");
    let export = run_rgz(&[
        "--chunk-size",
        "64",
        "--export-index",
        path_str(&index),
        "-o",
        path_str(&dir.file("out")),
        path_str(&gz),
    ]);
    assert!(export.status.success());

    let mut corrupted = std::fs::read(&index).unwrap();
    let middle = corrupted.len() / 2;
    corrupted[middle] ^= 0xFF;
    std::fs::write(&index, &corrupted).unwrap();

    let import = run_rgz(&[
        "--import-index",
        path_str(&index),
        "-o",
        path_str(&dir.file("out2")),
        path_str(&gz),
    ]);
    assert!(!import.status.success());
    let stderr = String::from_utf8_lossy(&import.stderr);
    assert!(
        stderr.contains("checksum"),
        "expected a checksum error, got:\n{stderr}"
    );
}

#[test]
fn corrupted_trailer_fails_unless_verification_is_disabled() {
    let dir = TempDir::new("verify");
    let data = rgz_datagen::base64_random(400_000, 80);
    let mut compressed = rgz_gzip::GzipWriter::default().compress(&data);
    // Flip one bit of the member's trailer CRC: the stream still decodes,
    // only checksum verification can catch it.
    let length = compressed.len();
    compressed[length - 6] ^= 0x04;
    let gz = dir.file("corrupt.gz");
    std::fs::write(&gz, &compressed).unwrap();

    let verified = run_rgz(&[
        "--chunk-size",
        "64",
        "-P",
        "2",
        "-o",
        path_str(&dir.file("out")),
        path_str(&gz),
    ]);
    assert!(
        !verified.status.success(),
        "verification on by default must reject a corrupt trailer"
    );
    let stderr = String::from_utf8_lossy(&verified.stderr);
    assert!(
        stderr.contains("CRC-32 mismatch") && stderr.contains("member 0"),
        "expected a member-naming CRC error, got:\n{stderr}"
    );

    let unverified = run_rgz(&[
        "--chunk-size",
        "64",
        "-P",
        "2",
        "--no-verify",
        "--verbose",
        "-o",
        path_str(&dir.file("out2")),
        path_str(&gz),
    ]);
    assert!(
        unverified.status.success(),
        "--no-verify run failed: {}",
        String::from_utf8_lossy(&unverified.stderr)
    );
    assert_eq!(std::fs::read(dir.file("out2")).unwrap(), data);
    let stderr = String::from_utf8_lossy(&unverified.stderr);
    assert!(
        stderr.contains("verification (Off)"),
        "missing verification statistics in --verbose output:\n{stderr}"
    );

    // The serial baseline honours the same flags.
    let serial = run_rgz(&["--serial", "-o", path_str(&dir.file("out3")), path_str(&gz)]);
    assert!(!serial.status.success());
    let serial_off = run_rgz(&[
        "--serial",
        "--no-verify",
        "-o",
        path_str(&dir.file("out4")),
        path_str(&gz),
    ]);
    assert!(serial_off.status.success());
    assert_eq!(std::fs::read(dir.file("out4")).unwrap(), data);
}

#[test]
fn verified_decompression_reports_statistics() {
    let dir = TempDir::new("verifystats");
    let data = rgz_datagen::fastq_of_size(500_000, 81);
    let compressed =
        rgz_gzip::CompressorFrontend::new(rgz_gzip::FrontendKind::Bgzf, 6).compress(&data);
    let gz = dir.file("corpus.gz");
    std::fs::write(&gz, &compressed).unwrap();
    let output = run_rgz(&[
        "--chunk-size",
        "64",
        "-P",
        "2",
        "--verify",
        "--verbose",
        "-o",
        path_str(&dir.file("out")),
        path_str(&gz),
    ]);
    assert!(
        output.status.success(),
        "verified run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(std::fs::read(dir.file("out")).unwrap(), data);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("verification (Full)") && !stderr.contains(" 0 members verified"),
        "expected non-zero verification statistics:\n{stderr}"
    );
}

#[test]
fn count_lines_prints_the_count_alone_in_every_mode() {
    let dir = TempDir::new("count_lines");
    // Text long enough that a 10 ms progress line comes up while it decodes.
    let data = rgz_datagen::fastq_of_size(4_000_000, 82);
    let lines = data.iter().filter(|&&b| b == b'\n').count();
    let gz = dir.file("lines.gz");
    std::fs::write(&gz, rgz_gzip::GzipWriter::default().compress(&data)).unwrap();
    let index = dir.file("lines.idx");
    let index = path_str(&index);
    let modes: [&[&str]; 5] = [
        &["--serial"],
        &["-P", "1"],
        // Exports the index the run after it reads through.
        &["-P", "2", "--chunk-size", "64", "--export-index", index],
        &["-P", "2", "--chunk-size", "64", "--import-index", index],
        &["-P", "2", "--chunk-size", "64", "--stats-interval", "0.01"],
    ];
    for mode in modes {
        let mut arguments = mode.to_vec();
        arguments.extend(["--count-lines", path_str(&gz)]);
        let output = run_rgz(&arguments);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{mode:?} failed: {stderr}");
        assert_eq!(
            String::from_utf8_lossy(&output.stdout),
            format!("{lines}\n"),
            "{mode:?}: {stderr}"
        );
        // The progress lines go to stderr, not among the count.
        let progress = stderr.contains("rgzip: progress:");
        assert_eq!(progress, mode.contains(&"--stats-interval"), "{stderr}");
    }
}

#[test]
fn verbose_serial_mode_still_works() {
    let dir = TempDir::new("serial");
    let data = rgz_datagen::base64_random(100_000, 79);
    std::fs::write(
        dir.file("corpus.gz"),
        rgz_gzip::GzipWriter::default().compress(&data),
    )
    .unwrap();
    let output = run_rgz(&[
        "--serial",
        "--verbose",
        "-o",
        path_str(&dir.file("out")),
        path_str(&dir.file("corpus.gz")),
    ]);
    assert!(output.status.success());
    assert_eq!(std::fs::read(dir.file("out")).unwrap(), data);
}
