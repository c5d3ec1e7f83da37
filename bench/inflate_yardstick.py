#!/usr/bin/env python3
"""One-thread inflate of this decoder beside the system's zlib and libdeflate.

    cargo run --release --example make_corpora -- <corpora dir>
    python3 bench/inflate_yardstick.py <corpora dir> target/release/rgz [<another rgz> ...]

A yardstick, not a gate: nothing reads its output.  Each `make_corpora` file
is repeated to 48 MiB and compressed to one raw DEFLATE stream by the
system's zlib at level 6 (what `gzip -6` writes: blocks of ~16-64 KiB).  The
same stream is then inflated, best of 5,

* by every `rgz` binary given (`-d --serial --no-verify -o /dev/null` on the
  stream wrapped as a gzip file in a temporary directory; the figure is the
  one `rgz` prints, which includes reading the file from the page cache),
* in process, by the `inflate_in_process` bench binary built beside each
  `rgz` (`rgz_deflate::inflate` of the raw stream into a buffer a first,
  untimed inflate has grown and touched; "absent" if it is not built),
* by `libz.so.1` (`inflateInit2_` / `inflate` with raw window bits) and
* by `libdeflate.so.0` (`libdeflate_deflate_decompress`), through `ctypes`,
  into a buffer that exists already.  A library that is not installed reads
  "absent".

The in-process column is the one to set beside the libraries': like theirs
it pays for no file, container or fresh page.

`table2_components` prints this decoder's in-process numbers (`Inflate fast
loop`, on its own corpora and the repository's compressor); this script is
the cross-check against foreign decoders on foreign streams.
"""
import ctypes
import ctypes.util
import os
import re
import struct
import subprocess
import sys
import tempfile
import time
import zlib

SIZE = 48 << 20
REPEATS = 5


def load(name):
    path = ctypes.util.find_library(name)
    try:
        return ctypes.CDLL(path) if path else None
    except OSError:
        return None


class ZStream(ctypes.Structure):
    _fields_ = [
        ("next_in", ctypes.c_char_p), ("avail_in", ctypes.c_uint), ("total_in", ctypes.c_ulong),
        ("next_out", ctypes.c_void_p), ("avail_out", ctypes.c_uint), ("total_out", ctypes.c_ulong),
        ("msg", ctypes.c_char_p), ("state", ctypes.c_void_p),
        ("zalloc", ctypes.c_void_p), ("zfree", ctypes.c_void_p), ("opaque", ctypes.c_void_p),
        ("data_type", ctypes.c_int), ("adler", ctypes.c_ulong), ("reserved", ctypes.c_ulong),
    ]


def best_of(run):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def zlib_seconds(libz, raw, size):
    out = ctypes.create_string_buffer(size)
    libz.zlibVersion.restype = ctypes.c_char_p
    version = libz.zlibVersion()

    def run():
        stream = ZStream()
        stream.next_in, stream.avail_in = raw, len(raw)
        stream.next_out, stream.avail_out = ctypes.addressof(out), size
        assert libz.inflateInit2_(ctypes.byref(stream), -15, version, ctypes.sizeof(stream)) == 0
        assert libz.inflate(ctypes.byref(stream), 4) == 1, "Z_STREAM_END expected"
        assert stream.total_out == size
        libz.inflateEnd(ctypes.byref(stream))

    return best_of(run)


def libdeflate_seconds(lib, raw, size):
    lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
    lib.libdeflate_deflate_decompress.argtypes = [
        ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t,
        ctypes.c_void_p, ctypes.c_size_t, ctypes.POINTER(ctypes.c_size_t)]
    lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
    decompressor = lib.libdeflate_alloc_decompressor()
    out = ctypes.create_string_buffer(size)
    actual = ctypes.c_size_t()

    def run():
        status = lib.libdeflate_deflate_decompress(
            decompressor, raw, len(raw), out, size, ctypes.byref(actual))
        assert status == 0 and actual.value == size

    seconds = best_of(run)
    lib.libdeflate_free_decompressor(decompressor)
    return seconds


def rgz_mb_s(rgz, gz_path):
    best = 0.0
    for _ in range(REPEATS):
        done = subprocess.run(
            [rgz, "-d", "--serial", "--no-verify", "-o", os.devnull, gz_path],
            capture_output=True, text=True, check=True)
        best = max(best, float(re.search(r"\(([\d.]+) MB/s", done.stderr).group(1)))
    return best


def in_process_mb_s(rgz, raw_path):
    kernel = os.path.join(os.path.dirname(rgz), "inflate_in_process")
    if not os.path.exists(kernel):
        return "absent"
    done = subprocess.run([kernel, raw_path], capture_output=True, text=True, check=True)
    return f"{float(done.stdout):.0f}"


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    directory, binaries = sys.argv[1], sys.argv[2:]
    libz, libdeflate = load("z"), load("deflate")
    columns = binaries + [b + " in process" for b in binaries] + ["zlib", "libdeflate"]
    width = max(len(column) for column in columns) + 2
    print(f"{'MB/s':<10}" + "".join(f"{column:>{width}}" for column in columns))
    with tempfile.TemporaryDirectory() as scratch:
        for name in ("silesia", "base64", "fastq"):
            with open(os.path.join(directory, name + ".bin"), "rb") as file:
                unit = file.read()
            data = unit * (SIZE // len(unit))
            deflater = zlib.compressobj(6, zlib.DEFLATED, -15)
            raw = deflater.compress(data) + deflater.flush()
            raw_path = os.path.join(scratch, name + ".deflate")
            with open(raw_path, "wb") as file:
                file.write(raw)
            gz_path = os.path.join(scratch, name + ".gz")
            with open(gz_path, "wb") as file:
                file.write(b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\x03" + raw)
                file.write(struct.pack("<II", zlib.crc32(data), len(data) & 0xFFFFFFFF))
            mb = len(data) / 1e6
            cells = [f"{rgz_mb_s(rgz, gz_path):.0f}" for rgz in binaries]
            cells += [in_process_mb_s(rgz, raw_path) for rgz in binaries]
            cells.append(f"{mb / zlib_seconds(libz, raw, len(data)):.0f}" if libz else "absent")
            cells.append(
                f"{mb / libdeflate_seconds(libdeflate, raw, len(data)):.0f}" if libdeflate else "absent")
            print(f"{name:<10}" + "".join(f"{cell:>{width}}" for cell in cells))


if __name__ == "__main__":
    main()
