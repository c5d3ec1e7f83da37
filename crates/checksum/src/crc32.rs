//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Two implementations share the incremental [`Crc32`] state:
//!
//! * **slicing-by-16** — the portable scalar reference (16 bytes per
//!   iteration through sixteen 256-entry tables);
//! * **carryless-multiply folding** (x86-64 with `pclmulqdq` + `sse4.1`) —
//!   folds 64 input bytes per iteration into four 128-bit accumulators and
//!   finishes with a Barrett reduction, the construction from Intel's "Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ" white paper
//!   that ISA-L and zlib-ng use on their verify paths.
//!
//! The folding path is selected once per process via
//! `is_x86_feature_detected!` and can be pinned off with `RGZ_FORCE_SCALAR`
//! (see [`rgz_bitio::dispatch`]); both paths are bit-for-bit identical, which
//! the differential proptests in this module assert on arbitrary inputs and
//! split points.

const POLYNOMIAL: u32 = 0xEDB88320;

/// Sixteen 256-entry tables for the slicing-by-16 algorithm, generated at
/// compile time.  Processing 16 bytes per iteration keeps the checksum pass
/// well below the decoder's throughput, which matters now that random-access
/// reads re-hash every on-demand chunk against stored index fragments.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLYNOMIAL
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut table = 1;
    while table < 16 {
        let mut i = 0;
        while i < 256 {
            let previous = tables[table - 1][i];
            tables[table][i] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            i += 1;
        }
        table += 1;
    }
    tables
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
    length: u64,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a hasher with the standard initial state.
    pub fn new() -> Self {
        Self {
            state: 0xFFFF_FFFF,
            length: 0,
        }
    }

    /// Resumes hashing from a previously finalized CRC value.
    pub fn from_state(crc: u32, length: u64) -> Self {
        Self {
            state: !crc,
            length,
        }
    }

    /// Number of bytes hashed so far.
    pub fn length(&self) -> u64 {
        self.length
    }

    /// Feeds `data` into the hash, through the hardware folding kernel when
    /// one is available (see [`active_isa`]).
    pub fn update(&mut self, data: &[u8]) {
        self.length += data.len() as u64;
        self.state = update_dispatch(self.state, data);
    }

    /// Feeds `data` into the hash through the scalar slicing-by-16 reference
    /// path, ignoring any available hardware kernel.
    ///
    /// This is the portable implementation the differential tests compare
    /// the folding kernel against, and the path every platform without
    /// `pclmulqdq` takes unconditionally.
    pub fn update_scalar(&mut self, data: &[u8]) {
        self.length += data.len() as u64;
        self.state = update_slicing16(self.state, data);
    }

    /// Returns the CRC-32 of everything fed so far.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// Name of the CRC-32 kernel `update` resolves to on this machine:
/// `"pclmulqdq"` for the carryless-multiply folding path or
/// `"slicing16"` for the scalar reference.
pub fn active_isa() -> &'static str {
    if pclmul_enabled() {
        "pclmulqdq"
    } else {
        "slicing16"
    }
}

/// Whether the folding kernel is compiled in, supported by this CPU, and not
/// pinned off by `RGZ_FORCE_SCALAR`.
#[inline]
fn pclmul_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ENABLED: OnceLock<bool> = OnceLock::new();
        *ENABLED.get_or_init(|| {
            !rgz_bitio::scalar_forced()
                && is_x86_feature_detected!("pclmulqdq")
                && is_x86_feature_detected!("sse4.1")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Raw-state update: routes the bulk of `data` through the folding kernel
/// when available and finishes the unaligned tail with slicing-by-16.
#[inline]
fn update_dispatch(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= pclmul::MIN_FOLD_LENGTH && pclmul_enabled() {
        // The kernel consumes whole 16-byte lanes; everything else is tail.
        let split = data.len() & !15;
        // SAFETY: `pclmul_enabled` verified pclmulqdq + sse4.1 at runtime,
        // and `split` is a non-zero multiple of 16 that is >= 64.
        #[allow(unsafe_code)]
        let state = unsafe { pclmul::fold(state, &data[..split]) };
        return update_slicing16(state, &data[split..]);
    }
    update_slicing16(state, data)
}

/// Scalar slicing-by-16 over the raw (non-inverted) CRC state.
fn update_slicing16(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let a = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let b = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        let c = u32::from_le_bytes([chunk[8], chunk[9], chunk[10], chunk[11]]);
        let d = u32::from_le_bytes([chunk[12], chunk[13], chunk[14], chunk[15]]);
        crc = TABLES[15][(a & 0xFF) as usize]
            ^ TABLES[14][((a >> 8) & 0xFF) as usize]
            ^ TABLES[13][((a >> 16) & 0xFF) as usize]
            ^ TABLES[12][((a >> 24) & 0xFF) as usize]
            ^ TABLES[11][(b & 0xFF) as usize]
            ^ TABLES[10][((b >> 8) & 0xFF) as usize]
            ^ TABLES[9][((b >> 16) & 0xFF) as usize]
            ^ TABLES[8][((b >> 24) & 0xFF) as usize]
            ^ TABLES[7][(c & 0xFF) as usize]
            ^ TABLES[6][((c >> 8) & 0xFF) as usize]
            ^ TABLES[5][((c >> 16) & 0xFF) as usize]
            ^ TABLES[4][((c >> 24) & 0xFF) as usize]
            ^ TABLES[3][(d & 0xFF) as usize]
            ^ TABLES[2][((d >> 8) & 0xFF) as usize]
            ^ TABLES[1][((d >> 16) & 0xFF) as usize]
            ^ TABLES[0][((d >> 24) & 0xFF) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Carryless-multiply CRC-32 folding (x86-64 `pclmulqdq` + `sse4.1`).
///
/// The folding constants are `x^N mod P` for the distances the loop shifts
/// by, precomputed for the reflected IEEE polynomial (the values published in
/// Intel's white paper and used by zlib-ng/ISA-L):
///
/// | constant | meaning            |
/// |----------|--------------------|
/// | `K1`     | `x^(4*128+32) mod P` — 64-byte-stride fold, low halves  |
/// | `K2`     | `x^(4*128-32) mod P` — 64-byte-stride fold, high halves |
/// | `K3`     | `x^(128+32) mod P` — 16-byte-stride fold, low halves    |
/// | `K4`     | `x^(128-32) mod P` — 16-byte-stride fold, high halves   |
/// | `K5`     | `x^64 mod P` — final 96→64 bit reduction                |
/// | `POLY_P` / `POLY_MU` | Barrett reduction constants                 |
// The workspace denies `unsafe_code`; the SIMD kernels are the vetted
// exception — `unsafe` here is confined to CPU intrinsics whose preconditions
// (feature detection, lane-aligned lengths) are checked by the dispatcher.
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::*;

    /// Smallest input the folding kernel accepts: four 16-byte lanes.
    pub(super) const MIN_FOLD_LENGTH: usize = 64;

    const K1: i64 = 0x0001_5444_2bd4;
    const K2: i64 = 0x0001_c6e4_1596;
    const K3: i64 = 0x0001_7519_97d0;
    const K4: i64 = 0x0000_ccaa_009e;
    const K5: i64 = 0x0001_63cd_6124;
    const POLY_P: i64 = 0x0001_db71_0641;
    const POLY_MU: i64 = 0x0001_f701_1641;

    /// Folds `data` into the raw CRC `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`, and `data.len()` must
    /// be a multiple of 16 that is at least [`MIN_FOLD_LENGTH`].
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) unsafe fn fold(state: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_FOLD_LENGTH && data.len() % 16 == 0);
        let mut ptr = data.as_ptr().cast::<__m128i>();
        let mut remaining = data.len();

        // Four independent 128-bit accumulators, the CRC state folded into
        // the first lane.
        let mut x1 = _mm_loadu_si128(ptr);
        let mut x2 = _mm_loadu_si128(ptr.add(1));
        let mut x3 = _mm_loadu_si128(ptr.add(2));
        let mut x4 = _mm_loadu_si128(ptr.add(3));
        x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(state as i32));
        ptr = ptr.add(4);
        remaining -= 64;

        // 64 bytes per iteration: each accumulator folds itself 64 bytes
        // forward and absorbs the next input lane.
        let k1k2 = _mm_set_epi64x(K2, K1);
        while remaining >= 64 {
            let f1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
            let f2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
            let f3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
            let f4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
            x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
            x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
            x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
            x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
            x1 = _mm_xor_si128(_mm_xor_si128(x1, f1), _mm_loadu_si128(ptr));
            x2 = _mm_xor_si128(_mm_xor_si128(x2, f2), _mm_loadu_si128(ptr.add(1)));
            x3 = _mm_xor_si128(_mm_xor_si128(x3, f3), _mm_loadu_si128(ptr.add(2)));
            x4 = _mm_xor_si128(_mm_xor_si128(x4, f4), _mm_loadu_si128(ptr.add(3)));
            ptr = ptr.add(4);
            remaining -= 64;
        }

        // Fold the four accumulators into one, 16 bytes apart.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = x1;
        for next in [x2, x3, x4] {
            let low = _mm_clmulepi64_si128(acc, k3k4, 0x00);
            acc = _mm_clmulepi64_si128(acc, k3k4, 0x11);
            acc = _mm_xor_si128(_mm_xor_si128(acc, low), next);
        }

        // Remaining whole 16-byte lanes.
        while remaining >= 16 {
            let low = _mm_clmulepi64_si128(acc, k3k4, 0x00);
            acc = _mm_clmulepi64_si128(acc, k3k4, 0x11);
            acc = _mm_xor_si128(_mm_xor_si128(acc, low), _mm_loadu_si128(ptr));
            ptr = ptr.add(1);
            remaining -= 16;
        }

        // Reduce 128 -> 64 bits.
        let mask32 = _mm_setr_epi32(-1, 0, -1, 0);
        let folded = _mm_clmulepi64_si128(acc, k3k4, 0x10);
        let acc = _mm_xor_si128(_mm_srli_si128(acc, 8), folded);
        // Reduce 96 -> 64 bits with K5.
        let k5 = _mm_set_epi64x(0, K5);
        let high = _mm_srli_si128(acc, 4);
        let acc = _mm_and_si128(acc, mask32);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k5, 0x00), high);

        // Barrett reduction 64 -> 32 bits.
        let poly = _mm_set_epi64x(POLY_MU, POLY_P);
        let t = _mm_and_si128(acc, mask32);
        let t = _mm_clmulepi64_si128(t, poly, 0x10);
        let t = _mm_and_si128(t, mask32);
        let t = _mm_clmulepi64_si128(t, poly, 0x00);
        let acc = _mm_xor_si128(acc, t);
        _mm_extract_epi32(acc, 1) as u32
    }
}

// --- crc32_combine -----------------------------------------------------------
//
// CRCs over GF(2) are linear: appending `len_b` zero bytes to the first buffer
// multiplies its CRC by x^(8*len_b) modulo the CRC polynomial.  That power is
// a product of the precomputed x^(2^k) mod p for the bits set in 8*len_b, each
// product one 32-step shift-and-add: zlib's `multmodp`/`x2nmodp` (since
// 1.2.12), in place of squaring a 32x32 bit matrix per bit of the length.
// Polynomials are reflected like the CRC: x^0 is the top bit.

/// `x^(2^k) mod p` for `k` in `0..32`.  The multiplicative order of x modulo
/// the CRC-32 polynomial divides 2^32 - 1, so x^(2^32) = x and the table
/// repeats with period 32.
const X2N_TABLE: [u32; 32] = build_x2n_table();

const fn build_x2n_table() -> [u32; 32] {
    let mut table = [0u32; 32];
    // x^1.
    let mut power = 1u32 << 30;
    table[0] = power;
    let mut k = 1;
    while k < 32 {
        power = multmodp(power, power);
        table[k] = power;
        k += 1;
    }
    table
}

/// `a * b mod p`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
            if a & (bit - 1) == 0 {
                break;
            }
        }
        bit >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ POLYNOMIAL
        } else {
            b >> 1
        };
    }
    product
}

/// `x^(n * 2^k) mod p`.
fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    // x^0.
    let mut power = 1u32 << 31;
    while n != 0 {
        if n & 1 != 0 {
            power = multmodp(X2N_TABLE[k & 31], power);
        }
        n >>= 1;
        k += 1;
    }
    power
}

pub(crate) fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // An empty second buffer leaves the first's CRC as it is, whatever
    // `crc_b` says (the CRC of no bytes is 0).
    if len_b == 0 {
        return crc_a;
    }
    // x^(8 * len_b): `len_b` bytes of zeros.
    multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The matrix method zlib used before 1.2.12: the operator for one zero
    /// bit as a 32x32 matrix over GF(2), squared for 2, 4, 8, ... bits and
    /// applied for the bits set in `8 * len_b`.
    fn combine_by_matrices(crc_a: u32, crc_b: u32, mut len_b: u64) -> u32 {
        type Matrix = [u32; 32];
        fn times(matrix: &Matrix, mut vector: u32) -> u32 {
            let mut result = 0u32;
            let mut index = 0;
            while vector != 0 {
                if vector & 1 != 0 {
                    result ^= matrix[index];
                }
                vector >>= 1;
                index += 1;
            }
            result
        }
        fn square(destination: &mut Matrix, source: &Matrix) {
            for (column, entry) in destination.iter_mut().enumerate() {
                *entry = times(source, source[column]);
            }
        }
        if len_b == 0 {
            return crc_a;
        }
        let mut odd: Matrix = [0; 32];
        odd[0] = POLYNOMIAL;
        for (row, entry) in odd.iter_mut().enumerate().skip(1) {
            *entry = 1 << (row - 1);
        }
        let mut even: Matrix = [0; 32];
        square(&mut even, &odd);
        square(&mut odd, &even);
        let mut crc = crc_a;
        loop {
            square(&mut even, &odd);
            if len_b & 1 != 0 {
                crc = times(&even, crc);
            }
            len_b >>= 1;
            if len_b == 0 {
                break;
            }
            square(&mut odd, &even);
            if len_b & 1 != 0 {
                crc = times(&odd, crc);
            }
            len_b >>= 1;
            if len_b == 0 {
                break;
            }
        }
        crc ^ crc_b
    }

    proptest::proptest! {
        /// Over random CRCs, at the lengths where the power table's index
        /// wraps (bit 29 of a byte count is bit 32 of the bit count) and
        /// wherever else a length may lie.
        #[test]
        fn combine_matches_the_matrix_method(
            crc_a in proptest::prelude::any::<u32>(),
            crc_b in proptest::prelude::any::<u32>(),
            short in 0u64..100_000,
            wrapping in (1u64 << 29)..(1u64 << 33),
            any_length in proptest::prelude::any::<u64>(),
        ) {
            for length in [0, 1, 3, 4095, 65_537, short, short | 1, wrapping, any_length, u64::MAX] {
                proptest::prop_assert_eq!(
                    combine(crc_a, crc_b, length),
                    combine_by_matrices(crc_a, crc_b, length),
                    "length {}", length
                );
            }
        }
    }

    #[test]
    fn the_power_table_repeats_every_32_entries() {
        assert_eq!(multmodp(X2N_TABLE[31], X2N_TABLE[31]), X2N_TABLE[0]);
        for k in [29u32, 30, 31, 32, 33] {
            let length = 1u64 << k;
            assert_eq!(
                combine(0x1234_5678, 0x9abc_def0, length),
                combine_by_matrices(0x1234_5678, 0x9abc_def0, length),
                "length 2^{k}"
            );
        }
    }

    #[test]
    fn table_zero_matches_bitwise_definition() {
        for byte in 0u32..256 {
            let mut crc = byte;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLYNOMIAL
                } else {
                    crc >> 1
                };
            }
            assert_eq!(TABLES[0][byte as usize], crc);
        }
    }

    #[test]
    fn slicing_matches_bytewise() {
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761)) as u8)
            .collect();
        // Byte-wise reference.
        let mut reference = 0xFFFF_FFFFu32;
        for &byte in &data {
            reference = (reference >> 8) ^ TABLES[0][((reference ^ byte as u32) & 0xFF) as usize];
        }
        let mut crc = Crc32::new();
        crc.update(&data);
        assert_eq!(crc.finalize(), !reference);
        assert_eq!(crc.length(), data.len() as u64);
    }

    #[test]
    fn folding_kernel_matches_scalar_on_fixed_sizes() {
        // Exercises every dispatch regime: below MIN_FOLD_LENGTH, exactly at
        // it, lane-aligned, and with 1..=15 tail bytes.
        let data: Vec<u8> = (0..8192u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8)
            .collect();
        for len in [
            0, 1, 15, 16, 63, 64, 65, 79, 80, 127, 128, 1000, 4096, 8191, 8192,
        ] {
            let mut simd = Crc32::new();
            simd.update(&data[..len]);
            let mut scalar = Crc32::new();
            scalar.update_scalar(&data[..len]);
            assert_eq!(simd.finalize(), scalar.finalize(), "length {len}");
        }
    }

    #[test]
    fn active_isa_names_a_known_kernel() {
        assert!(matches!(super::active_isa(), "pclmulqdq" | "slicing16"));
    }

    #[test]
    fn from_state_resumes() {
        let data = b"resume me please, I am a buffer";
        let (first, second) = data.split_at(11);
        let mut one = Crc32::new();
        one.update(first);
        let mut resumed = Crc32::from_state(one.finalize(), one.length());
        resumed.update(second);
        let mut whole = Crc32::new();
        whole.update(data);
        assert_eq!(resumed.finalize(), whole.finalize());
        assert_eq!(resumed.length(), data.len() as u64);
    }
}
