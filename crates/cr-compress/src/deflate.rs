//! `gz` — a DEFLATE-family codec: LZSS over a 32 KiB window with
//! hash-chain match finding and lazy matching, followed by per-block
//! canonical Huffman coding of a literal/length alphabet and a distance
//! alphabet with DEFLATE's extra-bits bucketing. Levels 1–9 trade chain
//! depth and lazy evaluation for ratio, mirroring `gzip`'s levels.
//!
//! The container is this crate's own (byte header + one continuous bit
//! stream of blocks), not RFC 1951 — both directions are implemented
//! here, so wire compatibility is not needed.
//!
//! ## Hot-path design
//!
//! `gz(1)` is the NDP drain's codec and the remote restore's decoder, so
//! both directions avoid per-symbol overheads without changing a byte
//! of the container:
//!
//! * **Encode** — length and distance codes are O(1) table lookups
//!   (`LENGTH_CODE`, `DIST_CODE`), and a whole match is one
//!   [`BitWriter::write_bits`] of at most 48 bits, which writes straight
//!   into the output vector.
//! * **Decode** — `inflate_block` runs a fast loop while 8 input bytes
//!   remain and a longest match still fits the block: one word refill
//!   per token, two-level Huffman tables, and `extend_from_within` for
//!   matches. A checked loop, which tests the stream's end on every
//!   read, finishes the block; both make the same validity checks.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{Decoder, Encoder};
use crate::lz::{copy_match, tokenize, LzParams, Token};
use crate::{Codec, CodecError};

const MAGIC: u8 = 0x47; // 'G'
const BLOCK_SIZE: usize = 1 << 18;
const WINDOW: usize = 1 << 15;
const MAX_MATCH: usize = 258;
const EOB: usize = 256;
const NUM_LITLEN: usize = 286;
const NUM_DIST: usize = 30;
const CODE_LEN_BITS: u32 = 4;
const MAX_CODE_LEN: u32 = 15;
/// Bits of a block's code-length header.
const HEADER_BITS: usize = (NUM_LITLEN + NUM_DIST) * CODE_LEN_BITS as usize;

/// Length-code bucketing: `(base_length, extra_bits)` for codes
/// 257..=285 mapped to indices 0..=28.
const LENGTH_BASE: [(u32, u32); 29] = {
    let mut t = [(0u32, 0u32); 29];
    let (mut i, mut len) = (0, 3u32);
    while i < 29 {
        let extra = if i < 8 { 0 } else { (i as u32 - 4) / 4 };
        t[i] = (len, extra);
        len += 1 << extra;
        i += 1;
    }
    // Code 285 is the special "length 258, 0 extra bits" case.
    t[28] = (258, 0);
    t
};

/// Distance-code bucketing: `(base_distance, extra_bits)` for codes
/// 0..=29.
const DIST_BASE: [(u32, u32); 30] = {
    let mut t = [(0u32, 0u32); 30];
    let (mut i, mut dist) = (0, 1u32);
    while i < 30 {
        let extra = if i < 4 { 0 } else { (i as u32 - 2) / 2 };
        t[i] = (dist, extra);
        dist += 1 << extra;
        i += 1;
    }
    t
};

/// Length code index of every match length, at `len - 3`.
const LENGTH_CODE: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 28 {
        let (base, extra) = LENGTH_BASE[i];
        let mut len = base;
        while len < base + (1 << extra) && len < 258 {
            t[len as usize - 3] = i as u8;
            len += 1;
        }
        i += 1;
    }
    t[255] = 28;
    t
};

/// Distance code index of distance `d`: at `d - 1` for `d <= 256`, and
/// at `256 + (d - 1) / 128` above, where every code spans whole
/// multiples of 128.
const DIST_CODE: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut i = 0;
    while i < 30 {
        let (base, extra) = DIST_BASE[i];
        let mut d = base;
        while d < base + (1 << extra) {
            t[dist_slot(d)] = i as u8;
            d += if d <= 256 { 1 } else { 128 };
        }
        i += 1;
    }
    t
};

/// Index of distance `dist` in `DIST_CODE`.
#[inline]
const fn dist_slot(dist: u32) -> usize {
    let d = dist as usize - 1;
    if d < 256 {
        d
    } else {
        256 + (d >> 7)
    }
}

/// The code index of a match length and its extra-bits value.
#[inline]
fn length_code(len: u32) -> (usize, u32) {
    debug_assert!((3..=258).contains(&len));
    let idx = LENGTH_CODE[len as usize - 3] as usize;
    (idx, len - LENGTH_BASE[idx].0)
}

/// The code index of a match distance and its extra-bits value.
#[inline]
fn dist_code(dist: u32) -> (usize, u32) {
    debug_assert!((1..=WINDOW as u32).contains(&dist));
    let idx = DIST_CODE[dist_slot(dist)] as usize;
    (idx, dist - DIST_BASE[idx].0)
}

/// The `gz` codec at a given level (1..=9).
#[derive(Debug, Clone, Copy)]
pub struct Deflate {
    level: u32,
}

impl Deflate {
    /// Creates the codec; `level` must be in `1..=9`.
    pub fn new(level: u32) -> Self {
        assert!((1..=9).contains(&level), "gz level must be 1..=9");
        Deflate { level }
    }

    fn lz_params(&self) -> LzParams {
        let (max_chain, nice_len, lazy) = match self.level {
            1 => (8, 16, false),
            2 => (16, 32, false),
            3 => (32, 32, false),
            4 => (32, 64, true),
            5 => (64, 96, true),
            6 => (128, 128, true),
            7 => (256, 196, true),
            8 => (512, 258, true),
            _ => (1024, 258, true),
        };
        LzParams {
            window: WINDOW,
            max_match: MAX_MATCH,
            max_chain,
            nice_len,
            lazy,
        }
    }
}

fn write_lengths(w: &mut BitWriter, lengths: &[u32]) {
    for &l in lengths {
        debug_assert!(l <= MAX_CODE_LEN);
        w.write_bits(l as u64, CODE_LEN_BITS);
    }
}

fn read_lengths(
    r: &mut BitReader<'_>,
    n: usize,
) -> Result<Vec<u32>, CodecError> {
    (0..n)
        .map(|_| r.read_bits(CODE_LEN_BITS).map(|v| v as u32))
        .collect()
}

fn compress_impl(codec: &Deflate, input: &[u8], out: &mut Vec<u8>) {
    out.push(MAGIC);
    out.push(codec.level as u8);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    if input.is_empty() {
        return;
    }

    let params = codec.lz_params();
    let mut w = BitWriter::from_vec(std::mem::take(out));
    let mut tokens = Vec::new();

    for block in input.chunks(BLOCK_SIZE) {
        tokens.clear();
        tokenize(block, params, &mut tokens);
        write_block(&mut w, &tokens);
    }
    *out = w.finish();
}

/// Writes one block: its two code-length tables, then every token and
/// the end-of-block code.
fn write_block(w: &mut BitWriter, tokens: &[Token]) {
    // Frequency pass.
    let mut lit_freq = vec![0u64; NUM_LITLEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                lit_freq[257 + length_code(len).0] += 1;
                dist_freq[dist_code(dist).0] += 1;
            }
        }
    }
    lit_freq[EOB] += 1;

    let (lit_enc, lit_lens) = Encoder::from_freqs(&lit_freq, MAX_CODE_LEN);
    let (dist_enc, dist_lens) = Encoder::from_freqs(&dist_freq, MAX_CODE_LEN);
    write_lengths(w, &lit_lens);
    write_lengths(w, &dist_lens);

    for t in tokens {
        match *t {
            Token::Literal(b) => lit_enc.write(w, b as usize),
            Token::Match { len, dist } => {
                // A whole match in one write: length code, its extra
                // bits, distance code, its extra bits; at most
                // 15 + 5 + 15 + 13 = 48 bits.
                let (lc, lextra) = length_code(len);
                let (dc, dextra) = dist_code(dist);
                let (mut bits, mut n) = lit_enc.code(257 + lc);
                bits |= (lextra as u64) << n;
                n += LENGTH_BASE[lc].1;
                let (dcode, dlen) = dist_enc.code(dc);
                bits |= dcode << n;
                n += dlen;
                bits |= (dextra as u64) << n;
                n += DIST_BASE[dc].1;
                w.write_bits(bits, n);
            }
        }
    }
    lit_enc.write(w, EOB);
}

fn decompress_impl(input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    if input.len() < 10 || input[0] != MAGIC {
        return Err(CodecError::new("bad gz header"));
    }
    let total = u64::from_le_bytes(input[2..10].try_into().unwrap()) as usize;
    let body = &input[10..];
    // Every block starts with its full code-length header, so the body
    // bounds the block count; reserve no more than those blocks can
    // hold, whatever a corrupt length field claims.
    let max_blocks = body.len() * 8 / HEADER_BITS;
    out.reserve(total.min(max_blocks.saturating_mul(BLOCK_SIZE)));
    let start = out.len();
    let mut r = BitReader::new(body);

    while out.len() - start < total {
        let block_start = out.len();
        let block_limit = (total - (block_start - start)).min(BLOCK_SIZE);
        let lit_lens = read_lengths(&mut r, NUM_LITLEN)?;
        let dist_lens = read_lengths(&mut r, NUM_DIST)?;
        let lit_dec = Decoder::from_lengths(&lit_lens)?;
        let dist_dec = Decoder::from_lengths(&dist_lens)?;
        inflate_block(&mut r, &lit_dec, &dist_dec, out, block_start, block_limit)?;
        if out.len() - block_start != block_limit {
            return Err(CodecError::new("block size mismatch"));
        }
    }
    Ok(())
}

/// Decodes one block's tokens into `out` up to its end-of-block code;
/// the block starts at `out[block_start]` and holds at most
/// `block_limit` bytes.
fn inflate_block(
    r: &mut BitReader<'_>,
    lit: &Decoder,
    dist: &Decoder,
    out: &mut Vec<u8>,
    block_start: usize,
    block_limit: usize,
) -> Result<(), CodecError> {
    // Fast loop, while 8 unread input bytes remain and the longest match
    // still fits the block. One word refill leaves at least 56 bits,
    // enough for a whole token (at most 48), so no read checks the
    // stream's end, and no token can overrun the block.
    while r.has_word() && out.len() - block_start + MAX_MATCH <= block_limit {
        r.refill_word();
        let (sym, n) = lit.lookup(r.peek_fast())?;
        r.take_fast(n);
        let sym = sym as usize;
        if sym < 256 {
            out.push(sym as u8);
            continue;
        }
        if sym == EOB {
            return Ok(());
        }
        let (base, extra) = length_base(sym)?;
        let len = base + r.take_fast(extra) as usize;
        let (dc, n) = dist.lookup(r.peek_fast())?;
        r.take_fast(n);
        let (dbase, dextra) = dist_base(dc)?;
        let d = dbase + r.take_fast(dextra) as usize;
        copy_match(out, block_start, d, len)?;
    }
    // Checked loop: finishes the block near the end of the input or of
    // the block.
    loop {
        let sym = lit.read(r)? as usize;
        if sym == EOB {
            return Ok(());
        }
        if sym < 256 {
            out.push(sym as u8);
        } else {
            let (base, extra) = length_base(sym)?;
            let len = base + r.read_bits(extra)? as usize;
            let (dbase, dextra) = dist_base(dist.read(r)?)?;
            let d = dbase + r.read_bits(dextra)? as usize;
            copy_match(out, block_start, d, len)?;
        }
        if out.len() - block_start > block_limit {
            return Err(CodecError::new("block overruns declared size"));
        }
    }
}

/// Base length and extra bits of literal/length symbol `sym >= 257`.
#[inline]
fn length_base(sym: usize) -> Result<(usize, u32), CodecError> {
    match LENGTH_BASE.get(sym - 257) {
        Some(&(base, extra)) => Ok((base as usize, extra)),
        None => Err(CodecError::new("invalid length code")),
    }
}

/// Base distance and extra bits of distance symbol `sym`.
#[inline]
fn dist_base(sym: u16) -> Result<(usize, u32), CodecError> {
    match DIST_BASE.get(sym as usize) {
        Some(&(base, extra)) => Ok((base as usize, extra)),
        None => Err(CodecError::new("invalid distance code")),
    }
}

impl Codec for Deflate {
    fn name(&self) -> &'static str {
        "gz"
    }

    fn level(&self) -> u32 {
        self.level
    }

    fn compress_append(&self, input: &[u8], out: &mut Vec<u8>) {
        compress_impl(self, input, out);
    }

    fn decompress_append(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        decompress_impl(input, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_level(data: &[u8], level: u32) -> usize {
        let c = Deflate::new(level);
        let compressed = c.compress_to_vec(data);
        let restored = c.decompress_to_vec(&compressed).unwrap();
        assert_eq!(restored, data, "level {level}");
        compressed.len()
    }

    fn round_trip(data: &[u8]) -> usize {
        round_trip_level(data, 6)
    }

    #[test]
    fn bucket_tables_match_deflate_spec() {
        let lt = LENGTH_BASE;
        assert_eq!(lt[0], (3, 0));
        assert_eq!(lt[7], (10, 0));
        assert_eq!(lt[8], (11, 1));
        assert_eq!(lt[27], (227, 5));
        assert_eq!(lt[28], (258, 0));
        let dt = DIST_BASE;
        assert_eq!(dt[0], (1, 0));
        assert_eq!(dt[3], (4, 0));
        assert_eq!(dt[4], (5, 1));
        assert_eq!(dt[29], (24_577, 13));
    }

    #[test]
    fn code_lookup_inverts_tables() {
        // Base plus an in-range extra value names exactly one code, so
        // this pins the lookup tables for every length and distance.
        for len in 3..=258u32 {
            let (idx, extra) = length_code(len);
            let (base, bits) = LENGTH_BASE[idx];
            assert_eq!(base + extra, len, "len {len}");
            assert!(extra < 1 << bits || bits == 0 && extra == 0);
        }
        assert_eq!(length_code(258), (28, 0));
        for dist in 1..=WINDOW as u32 {
            let (idx, extra) = dist_code(dist);
            let (base, bits) = DIST_BASE[idx];
            assert_eq!(base + extra, dist, "dist {dist}");
            assert!(extra < 1 << bits, "dist {dist}");
        }
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"x");
        round_trip(b"ab");
    }

    #[test]
    fn text_compresses_well() {
        let data = b"It involves saving the state of the application \
                     required to resume the application to stable storage."
            .repeat(200);
        let n = round_trip(&data);
        assert!(n < data.len() / 10, "{n} of {}", data.len());
    }

    #[test]
    fn all_levels_round_trip() {
        let data: Vec<u8> = (0..50_000u32)
            .flat_map(|i| ((i as f64 / 100.0).sin() as f32).to_le_bytes())
            .collect();
        let mut sizes = Vec::new();
        for level in 1..=9 {
            sizes.push(round_trip_level(&data, level));
        }
        // Higher levels never much worse than level 1.
        assert!(*sizes.last().unwrap() <= sizes[0] + sizes[0] / 20);
    }

    #[test]
    fn multi_block_inputs() {
        // Exceeds BLOCK_SIZE to exercise block framing.
        let data = b"0123456789abcdef".repeat(40_000); // 640 KB
        assert!(data.len() > BLOCK_SIZE);
        let n = round_trip(&data);
        assert!(n < data.len() / 20);
    }

    #[test]
    fn incompressible_data_survives() {
        let mut x = 0xDEADBEEFu64;
        let data: Vec<u8> = (0..300_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        let n = round_trip(&data);
        // Huffman on random bytes: small overhead only.
        assert!(n < data.len() + data.len() / 10);
    }

    #[test]
    fn zeros_compress_to_almost_nothing() {
        let data = vec![0u8; 1 << 20];
        let n = round_trip(&data);
        assert!(n < 2048, "1 MiB of zeros -> {n} bytes");
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let c = Deflate::new(6);
        assert!(c.decompress_to_vec(b"nope").is_err());
        let data = b"some compressible payload ".repeat(100);
        let compressed = c.compress_to_vec(&data);
        for cut in [0, 1, 9, 10, compressed.len() / 2] {
            assert!(
                c.decompress_to_vec(&compressed[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn corrupt_bitstream_is_an_error_not_a_panic() {
        let c = Deflate::new(3);
        let data = b"abcdefgh".repeat(1000);
        let mut compressed = c.compress_to_vec(&data);
        let len = compressed.len();
        for i in (10..len).step_by(97) {
            compressed[i] ^= 0x55;
            let _ = c.decompress_to_vec(&compressed); // must not panic
            compressed[i] ^= 0x55;
        }
    }

    /// A one-block container of `tokens` that claims `total` raw bytes.
    fn container(tokens: &[Token], total: u64) -> Vec<u8> {
        let mut head = vec![MAGIC, 1];
        head.extend_from_slice(&total.to_le_bytes());
        let mut w = BitWriter::from_vec(head);
        write_block(&mut w, tokens);
        w.finish()
    }

    #[test]
    fn back_references_stay_inside_their_block() {
        // A match reaching one byte before its block fails, whether the
        // fast loop (input left over) or the checked loop (at the end)
        // decodes it, and whether or not `out` held bytes before.
        let lits = |n: usize| (0..n).map(|i| Token::Literal((i * 7) as u8));
        let c = Deflate::new(1);
        for after in [0, 400] {
            let ok: Vec<Token> = lits(100)
                .chain([Token::Match { len: 3, dist: 100 }])
                .chain(lits(after))
                .collect();
            let mut bad = ok.clone();
            bad[100] = Token::Match { len: 3, dist: 101 };
            let total = 103 + after as u64;
            let mut out = b"prefix".to_vec();
            c.decompress_append(&container(&ok, total), &mut out).unwrap();
            assert_eq!(out.len(), 6 + total as usize);
            for mut out in [Vec::new(), b"prefix".to_vec()] {
                let err = c
                    .decompress_append(&container(&bad, total), &mut out)
                    .unwrap_err();
                assert_eq!(err.reason, "distance out of block");
            }
        }
    }

    #[test]
    fn blocks_longer_than_declared_are_errors() {
        // 1000 literals in a block whose container claims 700: the fast
        // loop stops short of the limit and the checked loop catches the
        // overrun.
        let tokens: Vec<Token> =
            (0..1000).map(|i| Token::Literal(i as u8)).collect();
        let err = Deflate::new(1)
            .decompress_to_vec(&container(&tokens, 700))
            .unwrap_err();
        assert_eq!(err.reason, "block overruns declared size");
    }

    /// A stream of three blocks with literals, short and long matches
    /// and overlapping runs, small enough to decode once per byte.
    fn multi_block_stream(level: u32) -> (Vec<u8>, Vec<u8>) {
        let mut x = 0x5EEDu64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 59) as u8
                })
                .collect()
        };
        let pattern = noise(700);
        let mut data = Vec::new();
        while data.len() < 2 * BLOCK_SIZE + 20_000 {
            data.extend_from_slice(&pattern);
            data.extend(std::iter::repeat_n(data.len() as u8, 300));
            data.extend(noise(6));
        }
        let compressed = Deflate::new(level).compress_to_vec(&data);
        (data, compressed)
    }

    #[test]
    fn every_truncation_of_a_multi_block_stream_is_an_error() {
        for level in [1, 6] {
            let (data, compressed) = multi_block_stream(level);
            let c = Deflate::new(level);
            assert_eq!(c.decompress_to_vec(&compressed).unwrap(), data);
            let mut out = Vec::new();
            for cut in 0..compressed.len() {
                assert!(
                    c.decompress(&compressed[..cut], &mut out).is_err(),
                    "gz({level}) accepted a cut at {cut} of {}",
                    compressed.len()
                );
            }
        }
    }

    #[test]
    fn a_flip_at_every_byte_never_panics() {
        for level in [1, 6] {
            let (_, mut compressed) = multi_block_stream(level);
            let c = Deflate::new(level);
            let mut out = Vec::new();
            for i in 0..compressed.len() {
                let mask = 1 << (i % 8);
                compressed[i] ^= mask;
                let _ = c.decompress(&compressed, &mut out);
                compressed[i] ^= mask;
            }
        }
    }

    #[test]
    #[should_panic(expected = "gz level")]
    fn invalid_level_panics() {
        let _ = Deflate::new(0);
    }
}
