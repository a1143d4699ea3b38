//! Length-limited canonical Huffman coding shared by the `gz` and `bwz`
//! codecs.
//!
//! Code lengths are computed with the package-merge algorithm, which is
//! *optimal* under a maximum-length constraint (no post-hoc fixups).
//! Codes are assigned canonically (by length, then symbol) and emitted
//! bit-reversed so they can be written LSB-first through
//! [`crate::bitio::BitWriter`]. The decoder looks codes up in a
//! two-level table: a primary table indexed by the next
//! `min(max_len, 10)` bits resolves every code of up to 10 bits, and
//! each primary slot that prefixes longer codes links to a subtable
//! indexed by the following `max_len - 10` bits.

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;

/// Maximum supported code length.
pub const MAX_CODE_LEN: u32 = 15;

/// Bits that index the decoder's primary table.
const PRIMARY_BITS: u32 = 10;

/// Computes optimal length-limited code lengths for `freqs` via
/// package-merge. Symbols with zero frequency get length 0. `max_len`
/// must satisfy `2^max_len >= used symbols`.
pub fn build_lengths(freqs: &[u64], max_len: u32) -> Vec<u32> {
    assert!((1..=MAX_CODE_LEN).contains(&max_len));
    // Used symbols by ascending weight; the stable sort keeps ties in
    // symbol order.
    let mut leaves: Vec<(u64, u16)> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, &f)| (f, i as u16))
        .collect();
    let mut lengths = vec![0u32; freqs.len()];
    match leaves.len() {
        0 => return lengths,
        1 => {
            // A single symbol still needs one bit on the wire.
            lengths[leaves[0].1 as usize] = 1;
            return lengths;
        }
        m => assert!(
            (m as u64) <= 1u64 << max_len,
            "alphabet of {m} does not fit in {max_len}-bit codes"
        ),
    }
    leaves.sort_by_key(|&(w, _)| w);
    let m = leaves.len();

    // Package-merge on weights alone. Each level merges the leaves with
    // the packages of the level below, each package the sum of two
    // adjacent items there; a leaf goes first on equal weight.
    // `is_package` records every level's item kinds, `level_end[l]`
    // where level `l` ends in it.
    let mut below: Vec<u64> = Vec::with_capacity(2 * m);
    let mut level: Vec<u64> = Vec::with_capacity(2 * m);
    let mut is_package = Vec::with_capacity(max_len as usize * 2 * m);
    let mut level_end = Vec::with_capacity(max_len as usize);
    for _ in 0..max_len {
        level.clear();
        let packages = below.len() / 2;
        let (mut i, mut j) = (0, 0);
        while i < m || j < packages {
            let package = below.get(2 * j..2 * j + 2).map(|p| p[0] + p[1]);
            match package {
                Some(w) if i == m || w < leaves[i].0 => {
                    level.push(w);
                    is_package.push(true);
                    j += 1;
                }
                _ => {
                    level.push(leaves[i].0);
                    is_package.push(false);
                    i += 1;
                }
            }
        }
        level_end.push(is_package.len());
        std::mem::swap(&mut below, &mut level);
    }

    // Select the 2m-2 cheapest items of the last level, and count back
    // down: the selected leaves are a prefix of `leaves`, each adding
    // one to its symbol's length, and `p` selected packages select the
    // first `2p` items of the level below.
    let mut take = 2 * m - 2;
    for l in (0..max_len as usize).rev() {
        let start = if l == 0 { 0 } else { level_end[l - 1] };
        let level = &is_package[start..level_end[l]];
        let selected = &level[..take.min(level.len())];
        let packages = selected.iter().filter(|&&p| p).count();
        for &(_, s) in &leaves[..selected.len() - packages] {
            lengths[s as usize] += 1;
        }
        take = 2 * packages;
    }
    debug_assert!(kraft_ok(&lengths));
    lengths
}

/// Checks the Kraft inequality `sum 2^-len <= 1` (equality for a
/// complete code).
fn kraft_ok(lengths: &[u32]) -> bool {
    let sum: f64 = lengths
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| 0.5f64.powi(l as i32))
        .sum();
    sum <= 1.0 + 1e-9
}

/// Assigns canonical codes (by length, then symbol index), returned
/// bit-reversed for LSB-first emission. Zero-length symbols get code 0.
fn canonical_codes(lengths: &[u32]) -> Vec<u32> {
    let max = lengths.iter().copied().max().unwrap_or(0);
    let mut count = vec![0u32; max as usize + 1];
    for &l in lengths {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next = vec![0u32; max as usize + 2];
    let mut code = 0u32;
    for len in 1..=max {
        code = (code + count[len as usize - 1]) << 1;
        next[len as usize] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next[l as usize];
                next[l as usize] += 1;
                reverse_bits(c, l)
            }
        })
        .collect()
}

#[inline]
fn reverse_bits(code: u32, len: u32) -> u32 {
    code.reverse_bits() >> (32 - len)
}

/// Canonical Huffman encoder: per-symbol (reversed code, length).
#[derive(Debug, Clone)]
pub struct Encoder {
    codes: Vec<u32>,
    lengths: Vec<u32>,
}

impl Encoder {
    /// Builds an encoder from code lengths.
    pub fn from_lengths(lengths: &[u32]) -> Self {
        Encoder {
            codes: canonical_codes(lengths),
            lengths: lengths.to_vec(),
        }
    }

    /// Builds optimal lengths from frequencies and the encoder in one
    /// step; also returns the lengths (for the stream header).
    pub fn from_freqs(freqs: &[u64], max_len: u32) -> (Self, Vec<u32>) {
        let lengths = build_lengths(freqs, max_len);
        (Self::from_lengths(&lengths), lengths)
    }

    /// Emits the code for `sym`.
    #[inline]
    pub fn write(&self, w: &mut BitWriter, sym: usize) {
        let (code, len) = self.code(sym);
        w.write_bits(code, len);
    }

    /// The bit-reversed code of `sym` and its length, for a caller that
    /// packs several fields into one [`BitWriter::write_bits`].
    #[inline]
    pub(crate) fn code(&self, sym: usize) -> (u64, u32) {
        let len = self.lengths[sym];
        debug_assert!(len > 0, "encoding symbol {sym} with no code");
        (self.codes[sym] as u64, len)
    }

    /// Code length of `sym` (0 = unused).
    pub fn length(&self, sym: usize) -> u32 {
        self.lengths[sym]
    }
}

/// A decoder table entry: `symbol << 16 | code_len` for a code, `offset
/// << 16 | LINK` for a primary slot whose codes continue in the
/// subtable at `offset`, and 0 for a prefix no code starts with.
type Entry = u32;

const LINK: Entry = 1 << 8;

/// Canonical Huffman decoder backed by a two-level lookup table.
#[derive(Debug)]
pub struct Decoder {
    /// The `2^primary_bits` primary entries, then the subtables, each
    /// `2^(max_len - primary_bits)` entries.
    table: Vec<Entry>,
    primary_bits: u32,
    max_len: u32,
}

impl Decoder {
    /// Builds a decoder from code lengths; rejects oversubscribed
    /// (invalid) length sets so malformed streams cannot cause panics.
    pub fn from_lengths(lengths: &[u32]) -> Result<Self, CodecError> {
        let max = lengths.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return Ok(Decoder {
                table: vec![0],
                primary_bits: 0,
                max_len: 0,
            });
        }
        if max > MAX_CODE_LEN {
            return Err(CodecError::new("code length exceeds maximum"));
        }
        // Kraft check with integers.
        let mut kraft: u64 = 0;
        for &l in lengths {
            if l > 0 {
                kraft += 1u64 << (MAX_CODE_LEN - l.min(MAX_CODE_LEN));
            }
        }
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(CodecError::new("oversubscribed Huffman code"));
        }

        let codes = canonical_codes(lengths);
        let primary_bits = max.min(PRIMARY_BITS);
        let primary_len = 1usize << primary_bits;
        let sub_bits = max - primary_bits;
        let mut table = vec![0; primary_len];
        for (sym, (&len, &code)) in
            lengths.iter().zip(codes.iter()).enumerate()
        {
            if len == 0 {
                continue;
            }
            // The reversed code occupies the low `len` bits of the peek;
            // fill every slot whose low bits match.
            let entry = (sym as Entry) << 16 | len;
            let code = code as usize;
            let (start, end, code, len) = if len <= primary_bits {
                (0, primary_len, code, len)
            } else {
                let slot = code & (primary_len - 1);
                if table[slot] == 0 {
                    table[slot] = (table.len() as Entry) << 16 | LINK;
                    table.resize(table.len() + (1 << sub_bits), 0);
                }
                let start = (table[slot] >> 16) as usize;
                let code = code >> primary_bits;
                (start, start + (1 << sub_bits), code, len - primary_bits)
            };
            let mut idx = start + code;
            while idx < end {
                table[idx] = entry;
                idx += 1 << len;
            }
        }
        Ok(Decoder {
            table,
            primary_bits,
            max_len: max,
        })
    }

    /// Looks up the code at the low bits of `bits`, which must hold the
    /// stream's next `max_len` bits (zero past its end): `(symbol,
    /// code length)`.
    #[inline]
    pub(crate) fn lookup(&self, bits: u64) -> Result<(u16, u32), CodecError> {
        let primary = bits as usize & ((1 << self.primary_bits) - 1);
        let mut e = self.table[primary];
        if e & LINK != 0 {
            let sub = (bits >> self.primary_bits) as usize
                & ((1 << (self.max_len - self.primary_bits)) - 1);
            e = self.table[(e >> 16) as usize + sub];
        }
        if e == 0 {
            return Err(CodecError::new(if self.max_len == 0 {
                "decoding with empty code"
            } else {
                "invalid Huffman prefix"
            }));
        }
        Ok(((e >> 16) as u16, e & 0xFF))
    }

    /// Decodes one symbol.
    #[inline]
    pub fn read(&self, r: &mut BitReader<'_>) -> Result<u16, CodecError> {
        let (sym, len) = self.lookup(r.peek_bits(self.max_len))?;
        r.consume(len)?;
        Ok(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Package-merge over item lists, each item cloning the symbols it
    /// packs: the former `build_lengths`, kept as the reference for the
    /// weights-only version.
    fn build_lengths_reference(freqs: &[u64], max_len: u32) -> Vec<u32> {
        let used: Vec<u16> = freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(i, _)| i as u16)
            .collect();
        let mut lengths = vec![0u32; freqs.len()];
        match used.len() {
            0 => return lengths,
            1 => {
                lengths[used[0] as usize] = 1;
                return lengths;
            }
            _ => {}
        }
        type Item = (u64, Vec<u16>);
        let mut originals: Vec<Item> = used
            .iter()
            .map(|&s| (freqs[s as usize], vec![s]))
            .collect();
        originals.sort_by_key(|(w, _)| *w);
        let mut prev: Vec<Item> = Vec::new();
        for _level in 0..max_len {
            let mut packages: Vec<Item> = Vec::new();
            let mut it = prev.into_iter();
            while let (Some(a), Some(b)) = (it.next(), it.next()) {
                let mut syms = a.1;
                syms.extend_from_slice(&b.1);
                packages.push((a.0 + b.0, syms));
            }
            let mut merged = Vec::new();
            let (mut i, mut j) = (0, 0);
            while i < originals.len() && j < packages.len() {
                if originals[i].0 <= packages[j].0 {
                    merged.push(originals[i].clone());
                    i += 1;
                } else {
                    merged.push(std::mem::take(&mut packages[j]));
                    j += 1;
                }
            }
            merged.extend_from_slice(&originals[i..]);
            merged.extend(packages.drain(j..));
            prev = merged;
        }
        for (_, syms) in prev.into_iter().take(2 * used.len() - 2) {
            for s in syms {
                lengths[s as usize] += 1;
            }
        }
        lengths
    }

    fn fibonacci(n: usize) -> Vec<u64> {
        let (mut a, mut b) = (1u64, 1u64);
        (0..n)
            .map(|_| {
                let f = a;
                (a, b) = (b, a + b);
                f
            })
            .collect()
    }

    #[test]
    fn weights_only_package_merge_matches_the_item_lists() {
        let check = |freqs: &[u64], max_len: u32| {
            assert_eq!(
                build_lengths(freqs, max_len),
                build_lengths_reference(freqs, max_len),
                "max_len {max_len}, freqs {freqs:?}"
            );
        };
        check(&[], 15);
        check(&[0, 0, 0], 15);
        check(&[0, 7, 0], 15);
        check(&[0, 7, 0], 1);
        check(&fibonacci(20), 5);
        check(&fibonacci(32), 5);
        check(&fibonacci(40), 15);
        // Seeded alphabets of the gz and bwz sizes. Weights from a few
        // small values give many ties; wide weights and sparse
        // alphabets push lengths to the limit.
        let mut x = 0x9AC4u64;
        let mut next = move || {
            // SplitMix64.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..400 {
            let n = [2, 3, 30, 259, 286][case % 5];
            let spread = [1, 3, 8, 1 << 20][(case / 5) % 4];
            let freqs: Vec<u64> = (0..n)
                .map(|_| match next() % 4 {
                    0 if case % 3 == 0 => 0,
                    _ => next() % spread + 1,
                })
                .collect();
            let used = freqs.iter().filter(|&&f| f > 0).count() as u64;
            for max_len in [7, 9, 12, 15] {
                if used <= 1 << max_len {
                    check(&freqs, max_len);
                }
            }
        }
    }

    fn round_trip(freqs: &[u64], message: &[usize]) {
        let (enc, lengths) = Encoder::from_freqs(freqs, MAX_CODE_LEN);
        let dec = Decoder::from_lengths(&lengths).unwrap();
        let mut w = BitWriter::new();
        for &s in message {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in message {
            assert_eq!(dec.read(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn two_symbols() {
        round_trip(&[5, 3], &[0, 1, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn two_level_table_matches_a_flat_table() {
        // Every `max_len`-bit peek must resolve as a flat
        // `2^max_len`-entry table would: same symbol and length, or
        // invalid. Lengths up to 15 bits, complete and incomplete codes.
        let mut cases = vec![
            build_lengths(&fibonacci(40), 15),
            build_lengths(&fibonacci(24), 12),
            build_lengths(&fibonacci(20), 5),
            vec![2, 2, 2],
            vec![0, 11, 1, 0, 11, 3, 4],
        ];
        let mut incomplete = build_lengths(&fibonacci(30), 15);
        incomplete[29] = 0;
        cases.push(incomplete);
        for lengths in cases {
            let max = *lengths.iter().max().unwrap();
            let dec = Decoder::from_lengths(&lengths).unwrap();
            let mut flat = vec![None; 1 << max];
            for (sym, (&len, &code)) in
                lengths.iter().zip(&canonical_codes(&lengths)).enumerate()
            {
                let mut i = code as usize;
                while len > 0 && i < flat.len() {
                    flat[i] = Some((sym as u16, len));
                    i += 1 << len;
                }
            }
            for (peek, want) in flat.iter().enumerate() {
                let got = dec.lookup(peek as u64).ok();
                assert_eq!(got, *want, "peek {peek:#x}, lengths {lengths:?}");
                // Bits above `max_len` are ignored.
                let high = dec.lookup(peek as u64 | 0xFFFF << max).ok();
                assert_eq!(high, *want);
            }
        }
    }

    #[test]
    fn single_symbol_code() {
        let lengths = build_lengths(&[0, 7, 0], 15);
        assert_eq!(lengths, vec![0, 1, 0]);
        round_trip(&[0, 7, 0], &[1, 1, 1]);
    }

    #[test]
    fn empty_alphabet() {
        let lengths = build_lengths(&[0, 0, 0], 15);
        assert!(lengths.iter().all(|&l| l == 0));
        let dec = Decoder::from_lengths(&lengths).unwrap();
        let bytes = [0u8; 1];
        let mut r = BitReader::new(&bytes);
        assert!(dec.read(&mut r).is_err());
    }

    #[test]
    fn skewed_frequencies_give_short_codes_to_common_symbols() {
        let freqs = [1000, 10, 10, 10, 1];
        let lengths = build_lengths(&freqs, 15);
        assert!(lengths[0] < lengths[4]);
        assert!(lengths[0] == 1);
    }

    #[test]
    fn length_limit_is_respected() {
        // Fibonacci-ish frequencies force deep optimal trees; limiting
        // to 5 bits must still produce a valid code for 20 symbols.
        let freqs = fibonacci(20);
        let lengths = build_lengths(&freqs, 5);
        assert!(lengths.iter().all(|&l| l <= 5 && l > 0));
        assert!(kraft_ok(&lengths));
        let msg: Vec<usize> = (0..20).chain((0..20).rev()).collect();
        let (enc, lens) = Encoder::from_freqs(&freqs, 5);
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut w = BitWriter::new();
        for &s in &msg {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(dec.read(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn package_merge_is_optimal_without_limit() {
        // Against a known case: freqs 1,1,2,3,5. Huffman merges
        // (1+1)=2, (2+2)=4, (3+4)=7, (5+7)=12; total internal weight
        // (= weighted code length) is 2+4+7+12 = 25 bits.
        let freqs = [1u64, 1, 2, 3, 5];
        let lengths = build_lengths(&freqs, 15);
        let cost: u64 = freqs
            .iter()
            .zip(lengths.iter())
            .map(|(&f, &l)| f * l as u64)
            .sum();
        assert_eq!(cost, 25, "lengths = {lengths:?}");
    }

    #[test]
    fn full_byte_alphabet_round_trip() {
        let freqs: Vec<u64> = (0..256).map(|i| 1 + (i as u64 * 7) % 97).collect();
        let msg: Vec<usize> = (0..4096).map(|i| (i * 31) % 256).collect();
        round_trip(&freqs, &msg);
    }

    #[test]
    fn oversubscribed_code_rejected() {
        // Three symbols of length 1 violate Kraft.
        let lengths = [1u32, 1, 1];
        assert!(Decoder::from_lengths(&lengths).is_err());
    }

    #[test]
    fn overlong_code_rejected() {
        let lengths = [16u32, 1];
        assert!(Decoder::from_lengths(&lengths).is_err());
    }

    #[test]
    fn invalid_prefix_detected_on_incomplete_code() {
        // Lengths {2} only: peeking other patterns must error, not panic.
        let lengths = [2u32, 2, 2]; // kraft = 3/4 < 1, incomplete
        let dec = Decoder::from_lengths(&lengths).unwrap();
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        // Code 11 (reversed) is not assigned; must surface as error.
        let res = dec.read(&mut r);
        assert!(res.is_err() || res.unwrap() < 3);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs: Vec<u64> = (1..=30).map(|i| i * i).collect();
        let lengths = build_lengths(&freqs, 15);
        let codes = canonical_codes(&lengths);
        // Un-reverse and check pairwise prefix-freedom.
        let items: Vec<(u32, u32)> = codes
            .iter()
            .zip(lengths.iter())
            .filter(|(_, &l)| l > 0)
            .map(|(&c, &l)| (reverse_bits(c, l), l))
            .collect();
        for (i, &(ca, la)) in items.iter().enumerate() {
            for &(cb, lb) in items.iter().skip(i + 1) {
                let l = la.min(lb);
                assert_ne!(
                    ca >> (la - l),
                    cb >> (lb - l),
                    "codes share a prefix"
                );
            }
        }
    }
}
