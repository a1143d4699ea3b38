//! `lzf` — a byte-oriented greedy LZ77 codec in the LZ4 family: single
//! hash-table match finder, 64 KiB window, token/extension encoding of
//! literal runs and matches, no entropy stage. Very fast, modest ratio —
//! the profile of the paper's `lz4(1)`.
//!
//! The hot loop borrows three tricks from the reference encoders:
//! a thread-local hash table revalidated by an epoch base (no 256 KiB
//! memset per call — it matters when NDP blocks are 4 KiB), `u64`
//! word-at-a-time match extension, and LZ4-style skip acceleration that
//! probes less often the longer an incompressible run gets.

use std::cell::RefCell;

use crate::lz::{common_prefix_from, copy_match};
use crate::{Codec, CodecError};

const MAGIC: u8 = 0x4C;
const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = 65_535;
const HASH_BITS: u32 = 16;
/// Probe count doubling interval for skip acceleration (LZ4 uses 6).
const SKIP_SHIFT: u32 = 6;
/// Upper bound on the probe stride in incompressible runs.
const MAX_STEP: usize = 32;

/// The `lzf` codec. Only level 1 exists, matching `lz4(1)` in the paper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lzf;

impl Lzf {
    /// Creates the codec.
    pub fn new() -> Self {
        Lzf
    }
}

#[inline]
fn hash(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read_u32(data: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap())
}

/// Emits a run-length in token-nibble + 255-extension form.
#[inline]
fn push_len(out: &mut Vec<u8>, mut len: usize) {
    // Caller already encoded min(len, 15) in the token nibble.
    len -= 15;
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

/// Thread-local hash table with epoch revalidation: entries store
/// `base + position`; anything below `base` is stale (from an earlier
/// input) and reads as empty, so reuse needs no clearing.
struct LzfState {
    table: Vec<u32>,
    base: u32,
}

impl LzfState {
    fn prepare(&mut self, len: usize) {
        if self.table.is_empty() {
            self.table = vec![0u32; 1 << HASH_BITS];
        }
        if (self.base as u64) + (len as u64) + 1 >= u32::MAX as u64 {
            self.table.iter_mut().for_each(|t| *t = 0);
            self.base = 1;
        }
    }
}

thread_local! {
    static TLS_STATE: RefCell<LzfState> = const {
        RefCell::new(LzfState {
            table: Vec::new(),
            base: 1,
        })
    };
}

fn compress_impl(input: &[u8], out: &mut Vec<u8>) {
    out.push(MAGIC);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    if input.is_empty() {
        return;
    }
    TLS_STATE.with(|s| compress_body(&mut s.borrow_mut(), input, out));
}

fn compress_body(state: &mut LzfState, input: &[u8], out: &mut Vec<u8>) {
    state.prepare(input.len());
    let base = state.base;
    let table = &mut state.table;
    let mut pos = 0usize;
    let mut literal_start = 0usize;
    let end = input.len();
    // Last few bytes are always emitted as literals (no 4-byte read).
    let match_limit = end.saturating_sub(MIN_MATCH);
    // Failed probes since the last match; drives the skip stride.
    let mut probes = 0u32;

    while pos <= match_limit && end - pos >= MIN_MATCH {
        let h = hash(read_u32(input, pos));
        let cand = table[h];
        table[h] = base + pos as u32;
        let found = cand >= base && {
            let c = (cand - base) as usize;
            c < pos
                && pos - c <= MAX_OFFSET
                && read_u32(input, c) == read_u32(input, pos)
        };
        if !found {
            // Skip acceleration: on a long literal run, step further
            // between probes. Worst case a later match starts a few
            // bytes late; incompressible data stops costing one probe
            // per byte.
            let step =
                (1 + (probes >> SKIP_SHIFT) as usize).min(MAX_STEP);
            probes += 1;
            pos += step;
            continue;
        }
        probes = 0;
        let cand = (cand - base) as usize;
        // Extend the match 8 bytes at a time.
        let len = MIN_MATCH
            + common_prefix_from(
                input,
                cand + MIN_MATCH,
                pos + MIN_MATCH,
                end - pos - MIN_MATCH,
            );

        // Emit sequence: literals since literal_start, then the match.
        let lit_len = pos - literal_start;
        let tok_lit = lit_len.min(15);
        let tok_match = (len - MIN_MATCH).min(15);
        out.push(((tok_lit as u8) << 4) | tok_match as u8);
        if lit_len >= 15 {
            push_len(out, lit_len);
        }
        out.extend_from_slice(&input[literal_start..pos]);
        out.extend_from_slice(&((pos - cand) as u16).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            push_len(out, len - MIN_MATCH);
        }

        // Insert a couple of positions inside the match to keep the
        // table warm without paying per-byte cost.
        let insert_to = (pos + len).min(match_limit);
        let mut p = pos + 1;
        while p < insert_to {
            table[hash(read_u32(input, p))] = base + p as u32;
            p += 3;
        }

        pos += len;
        literal_start = pos;
    }

    // Trailing literals: token with match nibble 0xF+sentinel? Use a
    // final sequence marked by literal-only token (match part unused:
    // offset 0 signals end).
    let lit_len = end - literal_start;
    let tok_lit = lit_len.min(15);
    out.push(((tok_lit as u8) << 4) | 0x0F);
    if lit_len >= 15 {
        push_len(out, lit_len);
    }
    out.extend_from_slice(&input[literal_start..end]);
    out.extend_from_slice(&0u16.to_le_bytes()); // offset 0 = terminator

    // Retire this input's position range; stale entries now read empty.
    state.base += input.len() as u32;
}

fn read_len(
    input: &[u8],
    pos: &mut usize,
    base: usize,
) -> Result<usize, CodecError> {
    let mut len = base;
    loop {
        let b = *input
            .get(*pos)
            .ok_or_else(|| CodecError::new("truncated length"))?;
        *pos += 1;
        len += b as usize;
        if b != 255 {
            return Ok(len);
        }
    }
}

fn decompress_impl(input: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    if input.first() != Some(&MAGIC) {
        return Err(CodecError::new("bad lzf magic"));
    }
    if input.len() < 9 {
        return Err(CodecError::new("truncated lzf header"));
    }
    let total = u64::from_le_bytes(input[1..9].try_into().unwrap()) as usize;
    // An input byte decodes to at most 255 output bytes (a match length
    // extension byte), so reserve no more than the input can produce,
    // whatever a corrupt length field claims.
    out.reserve(total.min((input.len() - 9).saturating_mul(255)));
    let start = out.len();
    let mut pos = 9usize;
    if total == 0 {
        return Ok(());
    }

    loop {
        let token = *input
            .get(pos)
            .ok_or_else(|| CodecError::new("truncated token"))?;
        pos += 1;
        // Literals.
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len = read_len(input, &mut pos, 15)?;
        }
        let lit_end = pos
            .checked_add(lit_len)
            .ok_or_else(|| CodecError::new("literal overflow"))?;
        if lit_end > input.len() {
            return Err(CodecError::new("literals past end of input"));
        }
        out.extend_from_slice(&input[pos..lit_end]);
        pos = lit_end;

        // Offset (0 terminates the stream).
        if pos + 2 > input.len() {
            return Err(CodecError::new("truncated offset"));
        }
        let offset =
            u16::from_le_bytes(input[pos..pos + 2].try_into().unwrap())
                as usize;
        pos += 2;
        if offset == 0 {
            break;
        }

        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len = read_len(input, &mut pos, 15)?;
        }
        match_len += MIN_MATCH;
        if offset > out.len() - start {
            return Err(CodecError::new("match offset before stream start"));
        }
        copy_match(out, start, offset, match_len)?;
    }

    if out.len() - start != total {
        return Err(CodecError::new(format!(
            "length mismatch: expected {total}, got {}",
            out.len() - start
        )));
    }
    Ok(())
}

impl Codec for Lzf {
    fn name(&self) -> &'static str {
        "lzf"
    }

    fn level(&self) -> u32 {
        1
    }

    fn compress_append(&self, input: &[u8], out: &mut Vec<u8>) {
        compress_impl(input, out);
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

    fn round_trip(data: &[u8]) -> usize {
        let c = Lzf::new();
        let compressed = c.compress_to_vec(data);
        let restored = c.decompress_to_vec(&compressed).unwrap();
        assert_eq!(restored, data);
        compressed.len()
    }

    #[test]
    fn empty_input() {
        assert_eq!(round_trip(b""), 9);
    }

    #[test]
    fn short_inputs() {
        for n in 1..20 {
            let data: Vec<u8> = (0..n).map(|i| i as u8).collect();
            round_trip(&data);
        }
    }

    #[test]
    fn compresses_runs() {
        let data = vec![7u8; 100_000];
        let n = round_trip(&data);
        assert!(n < 1000, "compressed {n}");
    }

    #[test]
    fn compresses_repeated_patterns() {
        let data = b"checkpoint_restart_".repeat(5000);
        let n = round_trip(&data);
        assert!(n < data.len() / 10, "compressed {n} of {}", data.len());
    }

    #[test]
    fn long_literal_runs_round_trip() {
        // Incompressible: forces the 15+255 extension path for literals.
        let mut x = 1u64;
        let data: Vec<u8> = (0..70_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        let n = round_trip(&data);
        // At most a tiny expansion on random data.
        assert!(n < data.len() + data.len() / 100 + 64);
    }

    #[test]
    fn long_match_extension_path() {
        // One very long run: exercises 15+255*k match length extension.
        let mut data = b"prefix".to_vec();
        data.extend(std::iter::repeat_n(b'x', 100_000));
        data.extend_from_slice(b"suffix");
        round_trip(&data);
    }

    #[test]
    fn offsets_beyond_window_are_not_used() {
        // A pattern that repeats at > 64 KiB distance only: must still
        // round-trip (as literals or closer matches).
        let mut data = vec![0u8; 200_000];
        for (i, b) in data.iter_mut().enumerate() {
            *b = ((i / 3) % 251) as u8;
        }
        round_trip(&data);
    }

    #[test]
    fn rejects_bad_magic() {
        let c = Lzf::new();
        assert!(c.decompress_to_vec(b"XYZ").is_err());
    }

    #[test]
    fn rejects_truncation() {
        let c = Lzf::new();
        let data = b"hello world hello world hello world".repeat(10);
        let compressed = c.compress_to_vec(&data);
        for cut in [5, 9, 10, compressed.len() / 2, compressed.len() - 1] {
            assert!(
                c.decompress_to_vec(&compressed[..cut]).is_err(),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn rejects_corrupt_offset() {
        let c = Lzf::new();
        // Handcrafted: magic + len 4 + token (0 literals, match) +
        // offset 9 pointing before stream start.
        let mut bad = vec![MAGIC];
        bad.extend_from_slice(&4u64.to_le_bytes());
        bad.push(0x00);
        bad.extend_from_slice(&9u16.to_le_bytes());
        assert!(c.decompress_to_vec(&bad).is_err());
    }

    #[test]
    fn warm_table_output_matches_cold() {
        // The epoch base must make a reused table behave exactly like a
        // fresh one, for any interleaving of inputs.
        let c = Lzf::new();
        let a = b"alpha beta gamma ".repeat(300);
        let b = vec![0x5Au8; 10_000];
        let cold_a = c.compress_to_vec(&a);
        let cold_b = c.compress_to_vec(&b);
        for _ in 0..4 {
            assert_eq!(c.compress_to_vec(&a), cold_a);
            assert_eq!(c.compress_to_vec(&b), cold_b);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        let c = Lzf::new();
        let mut x = 99u64;
        for len in [0usize, 1, 5, 9, 64, 300] {
            let junk: Vec<u8> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                    (x >> 33) as u8
                })
                .collect();
            let _ = c.decompress_to_vec(&junk); // may fail, must not panic
        }
    }
}
