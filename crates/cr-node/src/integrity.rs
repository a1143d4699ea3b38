//! End-to-end checkpoint integrity: CRC-64 checksums computed at commit
//! time and verified at restore time, on both the local NVM path and
//! the remote I/O path.
//!
//! A checkpoint that restores *wrong* is strictly worse than one that
//! fails to restore (silent corruption propagates into the recomputed
//! science). The stores therefore carry a checksum per object and every
//! read path re-verifies before handing data to the application.
//!
//! **Granule CRCs.** An NVM slot carries one CRC-64 per [`GRANULE`]
//! bytes of its payload ([`granule_crcs`]), not one for the whole slot.
//! A reader that consumes the slot a block at a time (the NDP drain)
//! checks only the granules under the block it is about to read, so
//! draining a slot costs one CRC pass, not one per block.
//!
//! **Combine.** [`Crc64::combine`] derives `crc(a ++ b)` from `crc(a)`,
//! `crc(b)` and `b.len()` without touching the bytes (zlib's
//! `crc32_combine`, in GF(2) matrix form). [`fold_granules`] uses it to
//! turn a slot's granule CRCs into the whole image's CRC, so the host
//! commit reads the image once for both the granule CRCs and
//! `CheckpointMeta::content_crc`.
//!
//! **Kernel.** On x86-64 CPUs with `pclmulqdq` (detected at run time),
//! [`Crc64::update`] folds 64 bytes per step with carry-less multiplies
//! (four 128-bit lanes, constants `x^n mod P` derived from the
//! polynomial at compile time), folds the four lanes into one, and runs
//! those 16 bytes and the 0–63-byte tail through slicing-by-8. Inputs
//! shorter than 128 bytes, and every other target, take the
//! portable slicing-by-8 loop, which is also the reference the kernel
//! is tested against. Both paths give bit-identical CRCs.
//!
//! **Two polynomials.** [`Crc64Over`] is generic over the reflected
//! polynomial: its slicing-by-8 tables, zero-advance matrices and fold
//! constants are const-evaluated per polynomial, and the kernel and the
//! table loop are one body each. [`Crc64`] (ECMA-182) checksums every
//! stored object; [`Crc64Jones`] is the second half of the incremental
//! drain's 128-bit block fingerprint, whose first half is the slot's
//! stored granule CRC.

/// Bytes covered by one granule CRC of an NVM slot. Equal to the
/// incremental diff block, so a granule never straddles two diff
/// blocks.
pub const GRANULE: usize = crate::incremental::DEFAULT_BLOCK;

/// The ECMA-182 polynomial, reflected (CRC-64/XZ's).
pub const ECMA_182: u64 = 0xC96C_5795_D787_0F42;

/// The Jones polynomial `0xAD93D23594C935A9`, reflected (CRC-64/Jones,
/// as Redis uses it). Its GF(2) gcd with [`ECMA_182`] is 1, so a
/// difference both CRCs miss is a multiple of their degree-128 product.
pub const JONES: u64 = 0x95AC_9329_AC4B_C9B5;

/// A CRC-64 over the reflected polynomial `P`, with an all-ones initial
/// register and final XOR: a carry-less-multiply kernel where the CPU
/// has one, slicing-by-8 otherwise. Every polynomial runs the same two
/// loop bodies; only the const-evaluated tables and fold constants
/// differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc64Over<const P: u64>(u64);

/// CRC-64/XZ (ECMA-182): the checksum of every stored object.
pub type Crc64 = Crc64Over<ECMA_182>;

/// The Jones-polynomial CRC-64: the second half of an incremental block
/// fingerprint ([`crate::incremental::BlockHasher`]).
pub type Crc64Jones = Crc64Over<JONES>;

/// Slicing-by-8 tables. `[0]` is the classic bytewise table; `[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight bytes
/// fold in one step.
type SlicingTables = [[u64; 256]; 8];

const fn build_tables(poly: u64) -> SlicingTables {
    let mut t = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ poly
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// A GF(2) linear map on 64-bit CRC registers: column `i` is the image
/// of bit `i`.
type Gf2Matrix = [u64; 64];

fn gf2_times(mat: &Gf2Matrix, mut vec: u64) -> u64 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

const fn gf2_square(mat: &Gf2Matrix) -> Gf2Matrix {
    let mut sq = [0u64; 64];
    let mut n = 0;
    while n < 64 {
        // `gf2_times(mat, mat[n])`, spelled out for const evaluation.
        let (mut vec, mut sum, mut i) = (mat[n], 0u64, 0);
        while vec != 0 {
            if vec & 1 != 0 {
                sum ^= mat[i];
            }
            vec >>= 1;
            i += 1;
        }
        sq[n] = sum;
        n += 1;
    }
    sq
}

/// `build_zeros(poly)[k]` advances a CRC register over `2^k` zero
/// bytes.
const fn build_zeros(poly: u64) -> [Gf2Matrix; 64] {
    // One zero bit: shift right, folding the polynomial in on a carry.
    let mut op = [0u64; 64];
    op[0] = poly;
    let mut n = 1;
    while n < 64 {
        op[n] = 1 << (n - 1);
        n += 1;
    }
    // Two, four, then eight zero bits: one zero byte.
    op = gf2_square(&op);
    op = gf2_square(&op);
    op = gf2_square(&op);
    let mut zeros = [[0u64; 64]; 64];
    zeros[0] = op;
    let mut k = 1;
    while k < 64 {
        zeros[k] = gf2_square(&zeros[k - 1]);
        k += 1;
    }
    zeros
}

impl<const P: u64> Default for Crc64Over<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const P: u64> Crc64Over<P> {
    /// Slicing-by-8 tables, const-evaluated per polynomial.
    const TABLES: &'static SlicingTables = &build_tables(P);
    /// `ZEROS[k]` advances a CRC register over `2^k` zero bytes.
    const ZEROS: &'static [Gf2Matrix; 64] = &build_zeros(P);

    /// Starts a new checksum.
    pub fn new() -> Self {
        Crc64Over(u64::MAX)
    }

    /// Feeds bytes (streamable: blocks may arrive one at a time).
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= CLMUL_MIN && is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: `pclmulqdq` was detected on this CPU just above.
            self.0 = unsafe { clmul::update::<P>(self.0, data) };
            return;
        }
        self.0 = slicing_by_8::<P>(self.0, data);
    }

    /// Finalizes to the checksum value.
    pub fn finish(&self) -> u64 {
        self.0 ^ u64::MAX
    }

    /// One-shot checksum of a buffer.
    pub fn of(data: &[u8]) -> u64 {
        let mut c = Self::new();
        c.update(data);
        c.finish()
    }

    /// The checksum of `a ++ b` from `a`'s checksum, `b`'s checksum and
    /// `b`'s length. `a`'s register is advanced over `len_b` zero bytes
    /// (one matrix product per set bit of `len_b`), then `b` is folded
    /// in; the CRC's initial and final inversions cancel.
    pub fn combine(a: u64, b: u64, len_b: usize) -> u64 {
        let mut crc = a;
        let mut len = len_b as u64;
        let mut k = 0;
        while len != 0 {
            if len & 1 != 0 {
                crc = gf2_times(&Self::ZEROS[k], crc);
            }
            len >>= 1;
            k += 1;
        }
        crc ^ b
    }
}

/// The portable path: advances the CRC register `crc` of polynomial
/// `P` over `data` eight bytes per step, then bytewise over the tail.
fn slicing_by_8<const P: u64>(mut crc: u64, data: &[u8]) -> u64 {
    let t = Crc64Over::<P>::TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let v = crc ^ u64::from_le_bytes(w.try_into().expect("8 bytes"));
        crc = t[7][(v & 0xFF) as usize]
            ^ t[6][((v >> 8) & 0xFF) as usize]
            ^ t[5][((v >> 16) & 0xFF) as usize]
            ^ t[4][((v >> 24) & 0xFF) as usize]
            ^ t[3][((v >> 32) & 0xFF) as usize]
            ^ t[2][((v >> 40) & 0xFF) as usize]
            ^ t[1][((v >> 48) & 0xFF) as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u64) & 0xFF) as usize];
    }
    crc
}

/// Shortest input [`Crc64::update`] hands to the carry-less-multiply
/// kernel: below two 64-byte blocks, its set-up and final reduction
/// cost more than slicing-by-8 saves.
const CLMUL_MIN: usize = 128;

/// `x^n mod poly` in the reflected bit order of a CRC register (bit `i`
/// holds the coefficient of `x^(63 - i)`). Multiplying by `x` is one
/// step of the bitwise CRC loop.
const fn xpow_mod(poly: u64, n: u32) -> u64 {
    let mut r = 1u64 << 63; // x^0
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 { (r >> 1) ^ poly } else { r >> 1 };
        i += 1;
    }
    r
}

/// The carry-less-multiply CRC kernel (Intel's "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ", reflected form).
///
/// A 128-bit lane `A = H·x^64 + L` (`H` its first eight bytes, the low
/// half of the register) that `m` bits of message follow contributes
/// `A·x^m`. Folding it over the next `k` bits replaces it with
/// `H·(x^(64+k) mod P) + L·(x^k mod P)`, a 127-bit value added to the
/// lane `k` bits later. In reflected order a carry-less product of
/// two 64-bit values comes out multiplied by one extra `x`, so the
/// constants are `x^(64+k-1)` and `x^(k-1)` modulo `P`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi64_si128,
        _mm_loadu_si128, _mm_set_epi64x, _mm_unpackhi_epi64, _mm_xor_si128,
    };

    use super::{slicing_by_8, xpow_mod};

    /// The fold constant pairs of polynomial `P`.
    struct Fold<const P: u64>;

    impl<const P: u64> Fold<P> {
        /// Fold one lane over 512 bits: the next 64-byte block.
        const BLOCK: (u64, u64) = (xpow_mod(P, 575), xpow_mod(P, 511));
        /// Fold one lane over 128 bits: the next lane.
        const LANE: (u64, u64) = (xpow_mod(P, 191), xpow_mod(P, 127));
    }

    /// The four 16-byte lanes of a 64-byte block (SSE2 loads, part of
    /// the x86-64 baseline).
    #[inline(always)]
    fn load(block: &[u8; 64]) -> [__m128i; 4] {
        let (lanes, _) = block.as_chunks::<16>();
        // SAFETY: each `lanes[i]` is 16 readable bytes inside `block`,
        // and `loadu` has no alignment requirement.
        std::array::from_fn(|i| unsafe {
            _mm_loadu_si128(lanes[i].as_ptr().cast())
        })
    }

    /// `H·k_h + L·k_l` for `lane = H·x^64 + L` and `(k_h, k_l)`, one of
    /// the fold constant pairs above. `#[inline]` so that an `update`
    /// instantiated in another crate still inlines it.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, (k_h, k_l): (u64, u64)) -> __m128i {
        let k = _mm_set_epi64x(k_l as i64, k_h as i64);
        _mm_xor_si128(
            _mm_clmulepi64_si128(lane, k, 0x00),
            _mm_clmulepi64_si128(lane, k, 0x11),
        )
    }

    /// Advances the CRC register `crc` of polynomial `P` over `data`,
    /// like
    /// [`slicing_by_8`](super::slicing_by_8); inputs shorter than one
    /// 64-byte block go to it directly.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`
    /// (`is_x86_feature_detected!("pclmulqdq")`).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn update<const P: u64>(crc: u64, data: &[u8]) -> u64 {
        let (blocks, tail) = data.as_chunks::<64>();
        let Some((first, rest)) = blocks.split_first() else {
            return slicing_by_8::<P>(crc, data);
        };
        let mut lanes = load(first);
        // The register folds into the first eight bytes, as the table
        // loop does.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi64_si128(crc as i64));
        for block in rest {
            for (lane, next) in lanes.iter_mut().zip(load(block)) {
                *lane = _mm_xor_si128(fold(*lane, Fold::<P>::BLOCK), next);
            }
        }
        let mut acc = lanes[0];
        for &lane in &lanes[1..] {
            acc = _mm_xor_si128(fold(acc, Fold::<P>::LANE), lane);
        }
        // The remaining 16 bytes and the tail are a message whose CRC
        // register starts at 0: the table loop reduces them.
        let lo = _mm_cvtsi128_si64(acc) as u64;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)) as u64;
        let folded = ((hi as u128) << 64 | lo as u128).to_le_bytes();
        slicing_by_8::<P>(slicing_by_8::<P>(0, &folded), tail)
    }
}

/// The CRC-64 of every [`GRANULE`] of `data`, in order (the last one
/// may cover a short tail).
pub fn granule_crcs(data: &[u8]) -> Vec<u64> {
    data.chunks(GRANULE).map(Crc64::of).collect()
}

/// The CRC-64 of a whole `len`-byte buffer from its [`granule_crcs`].
pub fn fold_granules(crcs: &[u64], len: usize) -> u64 {
    // The empty prefix's CRC is 0.
    crcs.iter().enumerate().fold(0, |acc, (i, &crc)| {
        let granule = GRANULE.min(len - i * GRANULE);
        Crc64::combine(acc, crc, granule)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Advances a CRC register over `data` one bit at a time, straight
    /// from the polynomial: the reference the tables and both fast
    /// paths are checked against.
    fn bitwise<const P: u64>(mut crc: u64, data: &[u8]) -> u64 {
        for &b in data {
            crc ^= b as u64;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ P } else { crc >> 1 };
            }
        }
        crc
    }

    /// The carry-less-multiply kernel, where this CPU has it.
    fn kernel<const P: u64>() -> Option<fn(u64, &[u8]) -> u64> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: the closure exists only once `pclmulqdq` was
            // detected just above.
            return Some(|crc, data| unsafe { clmul::update::<P>(crc, data) });
        }
        None
    }

    /// SplitMix64 byte stream.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn known_vector() {
        // CRC-64/XZ of "123456789" is 0x995DC9BBDF1939FA.
        assert_eq!(Crc64::of(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input() {
        assert_eq!(Crc64::of(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..10_000).map(|i| (i * 31 % 251) as u8).collect();
        let one_shot = Crc64::of(&data);
        let mut streamed = Crc64::new();
        for chunk in data.chunks(97) {
            streamed.update(chunk);
        }
        assert_eq!(streamed.finish(), one_shot);
    }

    #[test]
    fn odd_sized_pieces_equal_one_call() {
        let data = seeded_bytes(3, 50_000);
        let one_shot = Crc64::of(&data);
        let sizes = [1usize, 3, 7, 9, 13, 0, 255, 1021, 5];
        let (mut c, mut pos, mut i) = (Crc64::new(), 0, 0);
        while pos < data.len() {
            let end = (pos + sizes[i % sizes.len()]).min(data.len());
            c.update(&data[pos..end]);
            pos = end;
            i += 1;
        }
        assert_eq!(c.finish(), one_shot);
    }

    #[test]
    fn slicing_by_8_matches_bytewise_at_every_length_and_offset() {
        slicing_by_8_matches_bitwise::<ECMA_182>();
        slicing_by_8_matches_bitwise::<JONES>();
    }

    fn slicing_by_8_matches_bitwise<const P: u64>() {
        let buf = seeded_bytes(1, 72 + 8);
        for start in 0..8 {
            for len in 0..=72 {
                let s = &buf[start..start + len];
                assert_eq!(
                    slicing_by_8::<P>(u64::MAX, s),
                    bitwise::<P>(u64::MAX, s),
                    "poly {P:#x} start {start} len {len}"
                );
            }
        }
        let big = seeded_bytes(2, 1 << 20);
        assert_eq!(slicing_by_8::<P>(0, &big), bitwise::<P>(0, &big));
    }

    #[test]
    fn kernel_matches_slicing_by_8_at_every_length_offset_and_register() {
        kernel_matches_slicing_by_8::<ECMA_182>();
        kernel_matches_slicing_by_8::<JONES>();
    }

    fn kernel_matches_slicing_by_8<const P: u64>() {
        let Some(kernel) = kernel::<P>() else { return };
        let buf = seeded_bytes(5, 600 + 16);
        for crc in [u64::MAX, 0, 0x0123_4567_89AB_CDEF] {
            for start in 0..16 {
                for len in 0..=600 {
                    let s = &buf[start..start + len];
                    assert_eq!(
                        kernel(crc, s),
                        slicing_by_8::<P>(crc, s),
                        "poly {P:#x} register {crc:#x} start {start} len {len}"
                    );
                }
            }
        }
        let big = seeded_bytes(6, 4 << 20);
        assert_eq!(kernel(u64::MAX, &big), slicing_by_8::<P>(u64::MAX, &big));
    }

    #[test]
    fn pieces_straddling_the_kernel_threshold_stream_exactly() {
        let data = seeded_bytes(7, 20_000);
        // 127/128/129 bytes straddle the kernel's threshold, 63/64/65
        // its one-block minimum.
        let sizes = [CLMUL_MIN - 1, CLMUL_MIN, CLMUL_MIN + 1, 63, 64, 65];
        let (mut c, mut pos, mut i) = (Crc64::new(), 0, 0);
        while pos < data.len() {
            let end = (pos + sizes[i % sizes.len()]).min(data.len());
            c.update(&data[pos..end]);
            pos = end;
            i += 1;
        }
        let whole = slicing_by_8::<ECMA_182>(u64::MAX, &data) ^ u64::MAX;
        assert_eq!(c.finish(), whole);
    }

    #[test]
    fn combine_equals_crc_of_concatenation() {
        let data = seeded_bytes(4, 300_000);
        let mut s = 0x1234_5678u64;
        let mut splits = vec![(0, 0), (0, 1000), (1000, 1000), (0, data.len())];
        for _ in 0..40 {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let end = (s >> 33) as usize % (data.len() + 1);
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let mid = (s >> 33) as usize % (end + 1);
            splits.push((mid, end));
        }
        for (mid, end) in splits {
            let (a, b) = (&data[..mid], &data[mid..end]);
            assert_eq!(
                Crc64::combine(Crc64::of(a), Crc64::of(b), b.len()),
                Crc64::of(&data[..end]),
                "split {mid}/{end}"
            );
        }
    }

    #[test]
    fn granules_fold_to_the_whole_crc() {
        for len in [0, 1, GRANULE - 1, GRANULE, GRANULE + 1, 3 * GRANULE + 17] {
            let data = seeded_bytes(len as u64, len);
            let crcs = granule_crcs(&data);
            assert_eq!(crcs.len(), len.div_ceil(GRANULE));
            assert_eq!(fold_granules(&crcs, len), Crc64::of(&data), "len {len}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0xA5u8; 4096];
        let base = Crc64::of(&data);
        for pos in [0usize, 1, 100, 4095] {
            for bit in 0..8 {
                let mut tampered = data.clone();
                tampered[pos] ^= 1 << bit;
                assert_ne!(
                    Crc64::of(&tampered),
                    base,
                    "flip at {pos}:{bit} undetected"
                );
            }
        }
    }

    #[test]
    fn runtime_and_const_tables_agree() {
        tables_agree_with_bitwise::<ECMA_182>();
        tables_agree_with_bitwise::<JONES>();
    }

    fn tables_agree_with_bitwise<const P: u64>() {
        let tables = Crc64Over::<P>::TABLES;
        for (b, &entry) in tables[0].iter().enumerate() {
            assert_eq!(entry, bitwise::<P>(b as u64, &[0]), "poly {P:#x}");
        }
        // Each slicing table is the previous one advanced by a zero byte.
        for pair in tables.windows(2) {
            for (&prev, &next) in pair[0].iter().zip(&pair[1]) {
                assert_eq!(next, bitwise::<P>(prev, &[0]), "poly {P:#x}");
            }
        }
    }

    #[test]
    fn jones_known_vector() {
        // CRC-64/REDIS (the Jones polynomial, register 0 in and out) of
        // "123456789" is 0xE9C6D914C4B8D9CA: ties `JONES` to the
        // published polynomial.
        let redis = slicing_by_8::<JONES>(0, b"123456789");
        assert_eq!(redis, 0xE9C6_D914_C4B8_D9CA);
        assert_eq!(Crc64Jones::of(b"123456789"), 0x3558_E8E9_79F6_0D7E);
    }

    /// The degree-64 polynomial of a reflected CRC-64 constant, with
    /// its `x^64` term, as bits of a `u128` (bit `i` is `x^i`).
    fn full_poly(reflected: u64) -> u128 {
        1 << 64 | reflected.reverse_bits() as u128
    }

    /// GCD of two GF(2) polynomials (Euclid with carry-less remainder).
    fn gf2_gcd(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            let mut r = a;
            while r != 0 && r.ilog2() >= b.ilog2() {
                r ^= b << (r.ilog2() - b.ilog2());
            }
            (a, b) = (b, r);
        }
        a
    }

    #[test]
    fn fingerprint_polynomials_are_coprime() {
        // The 128-bit fingerprint argument: a difference both CRCs miss
        // is a multiple of both polynomials, hence of their product.
        assert_eq!(gf2_gcd(full_poly(ECMA_182), full_poly(JONES)), 1);
        // The check can fail: CRC-64/MS's polynomial (0x259C84CBA6426349)
        // shares x^2 + 1 with ECMA-182.
        let ms = 1 << 64 | 0x259C_84CB_A642_6349u128;
        assert_eq!(gf2_gcd(full_poly(ECMA_182), ms), 0b101);
    }

    #[test]
    fn swapped_blocks_are_detected() {
        let mut a = vec![1u8; 1000];
        a.extend(vec![2u8; 1000]);
        let mut b = vec![2u8; 1000];
        b.extend(vec![1u8; 1000]);
        assert_ne!(Crc64::of(&a), Crc64::of(&b));
    }
}
