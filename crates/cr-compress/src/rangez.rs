//! `rz` — an xz-family codec: large-window LZ77 with deep hash chains,
//! entropy-coded by an adaptive binary range coder (LZMA-style) with
//! context modelling — order-1 literal contexts, bit-tree match lengths,
//! and distance slots with direct bits. Slow and strong, matching the
//! paper's `xz` profile.

use crate::lz::{copy_match, tokenize, LzParams, Token};
use crate::{Codec, CodecError};

const MAGIC: u8 = 0x52; // 'R'
const PROB_BITS: u32 = 11;
const PROB_INIT: u16 = (1 << PROB_BITS) / 2;
const MOVE_BITS: u32 = 5;
const TOP: u32 = 1 << 24;
const MIN_MATCH: u32 = 3;

// ---------------------------------------------------------------------
// Binary range coder
// ---------------------------------------------------------------------

struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl RangeEncoder {
    fn new() -> Self {
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            let mut cs = self.cache_size;
            let mut byte = self.cache;
            loop {
                self.out.push(byte.wrapping_add(carry));
                byte = 0xFF;
                cs -= 1;
                if cs == 0 {
                    break;
                }
            }
            self.cache = (self.low >> 24) as u8;
            self.cache_size = 0;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    #[inline]
    fn encode_bit(&mut self, prob: &mut u16, bit: u32) {
        let bound = (self.range >> PROB_BITS) * (*prob as u32);
        if bit == 0 {
            self.range = bound;
            *prob += ((1 << PROB_BITS) - *prob) >> MOVE_BITS;
        } else {
            self.low += bound as u64;
            self.range -= bound;
            *prob -= *prob >> MOVE_BITS;
        }
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    /// Encodes `count` bits of `value` (MSB first) at probability 1/2.
    #[inline]
    fn encode_direct(&mut self, value: u32, count: u32) {
        for i in (0..count).rev() {
            self.range >>= 1;
            let bit = (value >> i) & 1;
            if bit == 1 {
                self.low += self.range as u64;
            }
            while self.range < TOP {
                self.shift_low();
                self.range <<= 8;
            }
        }
    }

    fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    data: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    fn new(data: &'a [u8]) -> Result<Self, CodecError> {
        if data.len() < 5 {
            return Err(CodecError::new("range stream too short"));
        }
        let mut code = 0u32;
        // First byte is the encoder's initial zero cache byte.
        for &b in &data[1..5] {
            code = (code << 8) | b as u32;
        }
        Ok(RangeDecoder {
            code,
            range: u32::MAX,
            data,
            pos: 5,
        })
    }

    /// True once the decoder has read past the end of its input. The
    /// encoder's flush emits every byte the decoder's normalisation will
    /// ask for, so an intact stream never gets here.
    fn exhausted(&self) -> bool {
        self.pos > self.data.len()
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        // Reading past the end yields zeros; the caller turns that into
        // an error through `exhausted`.
        let b = self.data.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    #[inline]
    fn decode_bit(&mut self, prob: &mut u16) -> u32 {
        let bound = (self.range >> PROB_BITS) * (*prob as u32);
        let bit;
        if self.code < bound {
            self.range = bound;
            *prob += ((1 << PROB_BITS) - *prob) >> MOVE_BITS;
            bit = 0;
        } else {
            self.code -= bound;
            self.range -= bound;
            *prob -= *prob >> MOVE_BITS;
            bit = 1;
        }
        while self.range < TOP {
            self.code = (self.code << 8) | self.next_byte() as u32;
            self.range <<= 8;
        }
        bit
    }

    #[inline]
    fn decode_direct(&mut self, count: u32) -> u32 {
        let mut value = 0u32;
        for _ in 0..count {
            self.range >>= 1;
            let bit = if self.code >= self.range {
                self.code -= self.range;
                1
            } else {
                0
            };
            value = (value << 1) | bit;
            while self.range < TOP {
                self.code = (self.code << 8) | self.next_byte() as u32;
                self.range <<= 8;
            }
        }
        value
    }
}

// ---------------------------------------------------------------------
// Bit-tree models
// ---------------------------------------------------------------------

/// Adaptive bit-tree over `BITS` bits (MSB first).
struct BitTree {
    probs: Vec<u16>,
    bits: u32,
}

impl BitTree {
    fn new(bits: u32) -> Self {
        BitTree {
            probs: vec![PROB_INIT; 1 << bits],
            bits,
        }
    }

    fn encode(&mut self, enc: &mut RangeEncoder, value: u32) {
        debug_assert!(value < (1 << self.bits));
        let mut node = 1usize;
        for i in (0..self.bits).rev() {
            let bit = (value >> i) & 1;
            enc.encode_bit(&mut self.probs[node], bit);
            node = (node << 1) | bit as usize;
        }
    }

    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u32 {
        let mut node = 1usize;
        for _ in 0..self.bits {
            let bit = dec.decode_bit(&mut self.probs[node]);
            node = (node << 1) | bit as usize;
        }
        node as u32 - (1 << self.bits)
    }
}

/// Full adaptive model state shared by encode and decode.
struct Model {
    is_match: Vec<u16>,
    /// Order-1 literal model: one 8-bit tree per previous byte.
    literals: Vec<BitTree>,
    len_tree: BitTree,
    slot_tree: BitTree,
}

impl Model {
    fn new() -> Self {
        Model {
            is_match: vec![PROB_INIT; 2],
            literals: (0..256).map(|_| BitTree::new(8)).collect(),
            len_tree: BitTree::new(8),
            slot_tree: BitTree::new(6),
        }
    }
}

/// Distance -> (slot, extra_bits, extra_value); LZMA-style slots.
#[inline]
fn dist_slot(dist: u32) -> (u32, u32, u32) {
    debug_assert!(dist >= 1);
    let d = dist - 1;
    if d < 4 {
        return (d, 0, 0);
    }
    let bits = 31 - d.leading_zeros();
    let slot = 2 * bits + ((d >> (bits - 1)) & 1);
    let extra_bits = bits - 1;
    let extra = d & ((1 << extra_bits) - 1);
    (slot, extra_bits, extra)
}

/// Inverse of [`dist_slot`]: reconstructs the distance base and the
/// number of extra bits from the slot.
#[inline]
fn slot_base(slot: u32) -> (u32, u32) {
    if slot < 4 {
        return (slot + 1, 0);
    }
    let bits = slot / 2;
    let extra_bits = bits - 1;
    let base = ((2 + (slot & 1)) << extra_bits) + 1;
    (base, extra_bits)
}

/// The `rz` codec at a given level.
#[derive(Debug, Clone, Copy)]
pub struct Rangez {
    level: u32,
}

impl Rangez {
    /// Creates the codec; `level` must be in `1..=9`.
    pub fn new(level: u32) -> Self {
        assert!((1..=9).contains(&level), "rz level must be 1..=9");
        Rangez { level }
    }

    fn lz_params(&self) -> LzParams {
        let (window_bits, max_chain, nice_len, lazy) = match self.level {
            1 => (20, 24, 48, false),
            2 => (20, 48, 64, true),
            3 => (21, 64, 96, true),
            4 => (21, 96, 128, true),
            5 => (22, 128, 160, true),
            6 => (22, 192, 258, true),
            7 => (23, 320, 258, true),
            8 => (23, 512, 258, true),
            _ => (23, 1024, 258, true),
        };
        LzParams {
            window: 1 << window_bits,
            max_match: 258,
            max_chain,
            nice_len,
            lazy,
        }
    }
}

fn compress_impl(codec: &Rangez, input: &[u8], out: &mut Vec<u8>) {
    out.push(MAGIC);
    out.push(codec.level as u8);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    if input.is_empty() {
        return;
    }

    let mut tokens = Vec::new();
    tokenize(input, codec.lz_params(), &mut tokens);

    let mut enc = RangeEncoder::new();
    let mut model = Model::new();
    let mut prev_byte = 0u8;
    let mut pos = 0usize;

    for t in &tokens {
        match *t {
            Token::Literal(b) => {
                enc.encode_bit(&mut model.is_match[0], 0);
                model.literals[prev_byte as usize].encode(&mut enc, b as u32);
                prev_byte = b;
                pos += 1;
            }
            Token::Match { len, dist } => {
                enc.encode_bit(&mut model.is_match[0], 1);
                model.len_tree.encode(&mut enc, len - MIN_MATCH);
                let (slot, extra_bits, extra) = dist_slot(dist);
                model.slot_tree.encode(&mut enc, slot);
                if extra_bits > 0 {
                    enc.encode_direct(extra, extra_bits);
                }
                pos += len as usize;
                prev_byte = input[pos - 1];
            }
        }
    }
    out.extend_from_slice(&enc.finish());
}

fn decompress_impl(input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    if input.len() < 10 || input[0] != MAGIC {
        return Err(CodecError::new("bad rz header"));
    }
    let total = u64::from_le_bytes(input[2..10].try_into().unwrap()) as usize;
    // A range coder spends a fraction of a bit on a likely symbol, so
    // the input gives no useful bound on the output: reserve at most 64
    // bytes per input byte, whatever a corrupt length field claims, and
    // let `out` grow past that if a stream really expands further.
    out.reserve(total.min(input.len().saturating_mul(64)));
    let start = out.len();
    if total == 0 {
        return Ok(());
    }
    let mut dec = RangeDecoder::new(&input[10..])?;
    let mut model = Model::new();
    let mut prev_byte = 0u8;

    while out.len() - start < total {
        // A corrupted length header must not make the decoder run on
        // zeros towards an arbitrary size.
        if dec.exhausted() {
            return Err(CodecError::new("rz stream truncated"));
        }
        if dec.decode_bit(&mut model.is_match[0]) == 0 {
            let b = model.literals[prev_byte as usize].decode(&mut dec) as u8;
            out.push(b);
            prev_byte = b;
        } else {
            let len = model.len_tree.decode(&mut dec) + MIN_MATCH;
            let slot = model.slot_tree.decode(&mut dec);
            let (base, extra_bits) = slot_base(slot);
            let dist = (base + dec.decode_direct(extra_bits)) as usize;
            if dist > out.len() - start {
                return Err(CodecError::new("rz distance before start"));
            }
            if out.len() - start + len as usize > total {
                return Err(CodecError::new("rz output overrun"));
            }
            copy_match(out, start, dist, len as usize)?;
            prev_byte = *out.last().expect("non-empty after match");
        }
    }
    Ok(())
}

impl Codec for Rangez {
    fn name(&self) -> &'static str {
        "rz"
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

    #[test]
    fn dist_slot_round_trips_all_small_and_sampled_large() {
        for dist in 1..=4096u32 {
            let (slot, extra_bits, extra) = dist_slot(dist);
            let (base, eb) = slot_base(slot);
            assert_eq!(eb, extra_bits, "dist {dist}");
            assert_eq!(base + extra, dist, "dist {dist}");
        }
        for dist in (1..=(1u32 << 23)).step_by(40_507) {
            let (slot, extra_bits, extra) = dist_slot(dist);
            let (base, eb) = slot_base(slot);
            assert_eq!(eb, extra_bits);
            assert_eq!(base + extra, dist);
        }
    }

    #[test]
    fn range_coder_bit_round_trip() {
        // Encode a biased bit sequence through a single adaptive prob.
        let bits: Vec<u32> = (0..10_000)
            .map(|i| ((i * i + i / 3) % 7 == 0) as u32)
            .collect();
        let mut enc = RangeEncoder::new();
        let mut p = PROB_INIT;
        for &b in &bits {
            enc.encode_bit(&mut p, b);
        }
        let data = enc.finish();
        // Biased input must compress below 1 bit/symbol.
        assert!(data.len() < bits.len() / 8);
        let mut dec = RangeDecoder::new(&data).unwrap();
        let mut p = PROB_INIT;
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut p), b);
        }
    }

    #[test]
    fn range_coder_direct_bits_round_trip() {
        let values: Vec<(u32, u32)> = (0..2000)
            .map(|i| {
                let bits = 1 + (i % 24) as u32;
                (
                    (i as u32).wrapping_mul(2654435761) & ((1 << bits) - 1),
                    bits,
                )
            })
            .collect();
        let mut enc = RangeEncoder::new();
        for &(v, n) in &values {
            enc.encode_direct(v, n);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data).unwrap();
        for &(v, n) in &values {
            assert_eq!(dec.decode_direct(n), v, "width {n}");
        }
    }

    #[test]
    fn bit_tree_round_trip() {
        let mut enc = RangeEncoder::new();
        let mut tree = BitTree::new(8);
        let values: Vec<u32> = (0..5000).map(|i| (i * 37) % 256).collect();
        for &v in &values {
            tree.encode(&mut enc, v);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data).unwrap();
        let mut tree = BitTree::new(8);
        for &v in &values {
            assert_eq!(tree.decode(&mut dec), v);
        }
    }

    fn round_trip_level(data: &[u8], level: u32) -> usize {
        let c = Rangez::new(level);
        let compressed = c.compress_to_vec(data);
        let restored = c.decompress_to_vec(&compressed).unwrap();
        assert_eq!(restored, data, "level {level}");
        compressed.len()
    }

    #[test]
    fn empty_and_tiny() {
        round_trip_level(b"", 1);
        round_trip_level(b"q", 1);
        round_trip_level(b"qrs", 6);
    }

    #[test]
    fn text_compresses_strongly() {
        let data = b"near data processing offloads checkpoint writes \
                     from the host processor to the storage device. "
            .repeat(300);
        let n = round_trip_level(&data, 1);
        assert!(n < data.len() / 15, "{n} of {}", data.len());
    }

    #[test]
    fn beats_or_matches_own_level1_at_level6() {
        let data: Vec<u8> = (0..40_000u32)
            .flat_map(|i| ((i as f64 / 50.0).cos() as f32).to_le_bytes())
            .collect();
        let n1 = round_trip_level(&data, 1);
        let n6 = round_trip_level(&data, 6);
        assert!(n6 <= n1 + n1 / 50, "level6 {n6} vs level1 {n1}");
    }

    #[test]
    fn long_range_matches_are_found() {
        // Two identical 200 kB halves: distance ~200k needs the large
        // window.
        let half: Vec<u8> = (0..200_000u64)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let mut data = half.clone();
        data.extend_from_slice(&half);
        let n = round_trip_level(&data, 6);
        assert!(
            n < data.len() * 3 / 5,
            "long-range redundancy not exploited: {n} of {}",
            data.len()
        );
    }

    #[test]
    fn incompressible_data_survives() {
        let mut x = 17u64;
        let data: Vec<u8> = (0..120_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 52) as u8
            })
            .collect();
        let n = round_trip_level(&data, 1);
        assert!(n < data.len() + data.len() / 8);
    }

    #[test]
    fn rejects_garbage() {
        let c = Rangez::new(1);
        assert!(c.decompress_to_vec(b"??").is_err());
        assert!(c.decompress_to_vec(&[MAGIC, 1, 9, 0, 0, 0]).is_err());
    }

    #[test]
    fn corrupt_stream_never_panics() {
        let c = Rangez::new(1);
        let data = b"checkpoint restart ".repeat(200);
        let mut compressed = c.compress_to_vec(&data);
        let len = compressed.len();
        for i in (10..len).step_by(53) {
            compressed[i] ^= 0xA5;
            let _ = c.decompress_to_vec(&compressed);
            compressed[i] ^= 0xA5;
        }
    }

    #[test]
    fn inflated_length_header_is_an_error() {
        let c = Rangez::new(6);
        let data = b"checkpoint restart ".repeat(64);
        let mut compressed = c.compress_to_vec(&data);
        let huge = (data.len() as u64) << 22;
        compressed[2..10].copy_from_slice(&huge.to_le_bytes());
        assert!(c.decompress_to_vec(&compressed).is_err());
    }
}
