//! Shared LZ77 tokenizer with hash-chain match finding and optional lazy
//! matching; configurable window, chain depth and match lengths so both
//! the `gz` (32 KiB window) and `rz` (multi-MiB window) codecs reuse it.
//!
//! ## Hot-path design
//!
//! The tokenizer is on the checkpoint drain's critical path (the NDP
//! sizing argument of §5 is throughput-per-core), so it avoids the three
//! classic costs of a naive LZ matcher:
//!
//! * **Table reuse, not reallocation** — [`LzState`] owns the hash-head
//!   and chain tables and is reused across calls. Entries are validated
//!   by an *epoch base* (positions below `base` are stale), so reuse
//!   requires no clearing: compressing a 4 KiB NDP block costs 4 KiB of
//!   work, not a 384 KiB table memset. [`tokenize`] keeps a thread-local
//!   state per thread, so existing callers get reuse for free.
//! * **Word-at-a-time match extension** — candidate matches are verified
//!   with one `u32` load and extended 8 bytes per step via `u64` loads +
//!   `trailing_zeros` (`common_prefix_from`).
//! * **Insert-skip acceleration** — on incompressible runs the matcher
//!   steps further between probes (LZ4-style), and long matches insert
//!   chain entries with a stride instead of per byte, so zero pages and
//!   turbulent state both stay cheap.
//! * **One hash per probed position** — a position's 4-byte hash serves
//!   both its chain probe and its insert (and the lazy look-ahead's
//!   hash serves the deferred match start's insert).

use std::cell::RefCell;

use crate::CodecError;

/// Minimum match length worth emitting.
pub const MIN_MATCH: usize = 3;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes behind the
    /// current output position. `dist >= 1`, `len >= MIN_MATCH`.
    Match {
        /// Match length in bytes.
        len: u32,
        /// Backwards distance in bytes.
        dist: u32,
    },
}

/// Tokenizer effort/shape parameters.
#[derive(Debug, Clone, Copy)]
pub struct LzParams {
    /// Window size in bytes (power of two).
    pub window: usize,
    /// Maximum match length to emit.
    pub max_match: usize,
    /// Hash-chain positions examined per match attempt.
    pub max_chain: usize,
    /// Stop searching once a match of at least this length is found.
    pub nice_len: usize,
    /// Defer a match by one byte when the next position matches longer.
    pub lazy: bool,
}

impl LzParams {
    /// Sanity-checks parameter consistency.
    pub fn validate(&self) {
        assert!(self.window.is_power_of_two());
        assert!(self.max_match >= MIN_MATCH);
        assert!(self.nice_len >= MIN_MATCH && self.nice_len <= self.max_match);
        assert!(self.max_chain >= 1);
    }
}

const HASH_BITS: u32 = 16;

/// After this many consecutive literals the probe stride starts growing.
const SKIP_TRIGGER: u32 = 32;
/// Miss count doubling interval for the probe stride (LZ4-style).
const SKIP_SHIFT: u32 = 5;
/// Probe stride upper bound on incompressible runs.
const MAX_SKIP: usize = 16;
/// Matches longer than this insert chain entries with a stride.
const DENSE_INSERT_LEN: usize = 32;

#[inline(always)]
fn hash4(data: &[u8], pos: usize) -> usize {
    // Requires pos + 4 <= data.len().
    let v = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Reusable hash-chain tables for the match finder.
///
/// Positions are stored as *global* `u32` offsets (`base + local`).
/// Every call advances `base` past the previous input, so entries from
/// earlier buffers compare as `< base` and are treated as empty — no
/// per-call clearing. When the 32-bit position space nears exhaustion
/// the tables are reset once (amortized to ~never).
#[derive(Debug)]
pub struct LzState {
    head: Vec<u32>,
    prev: Vec<u32>,
    base: u32,
}

impl Default for LzState {
    fn default() -> Self {
        Self::new()
    }
}

impl LzState {
    /// Creates an empty state; tables grow on first use.
    pub fn new() -> Self {
        LzState {
            head: Vec::new(),
            prev: Vec::new(),
            base: 1,
        }
    }

    /// Prepares the tables for an input of `len` bytes under `params`,
    /// returning the window mask to use.
    fn prepare(&mut self, len: usize, params: &LzParams) -> usize {
        if self.head.is_empty() {
            self.head = vec![0u32; 1 << HASH_BITS];
        }
        // The chain table is sized to the largest window seen; a larger
        // mask never changes which in-window candidates are reachable
        // (distance filtering bounds the walk), so mixed-window reuse is
        // exact.
        if self.prev.len() < params.window {
            self.prev = vec![0u32; params.window];
            self.head.iter_mut().for_each(|h| *h = 0);
            self.base = 1;
        }
        // Epoch rollover: reset once the u32 position space would wrap.
        if (self.base as u64) + (len as u64) + 1 >= u32::MAX as u64 {
            self.head.iter_mut().for_each(|h| *h = 0);
            self.base = 1;
        }
        self.prev.len() - 1
    }

    /// Retires the epoch after processing `len` input bytes.
    fn advance(&mut self, len: usize) {
        self.base += len as u32;
    }
}

/// Hash-chain match finder over a single buffer, borrowing the reusable
/// tables from an [`LzState`].
struct MatchFinder<'a, 's> {
    data: &'a [u8],
    head: &'s mut [u32],
    prev: &'s mut [u32],
    base: u32,
    window_mask: usize,
    params: LzParams,
}

impl<'a, 's> MatchFinder<'a, 's> {
    fn new(data: &'a [u8], params: LzParams, state: &'s mut LzState) -> Self {
        params.validate();
        let window_mask = state.prepare(data.len(), &params);
        MatchFinder {
            data,
            head: &mut state.head,
            prev: &mut state.prev,
            base: state.base,
            window_mask,
            params,
        }
    }

    /// The hash of the 4 bytes at `pos`; `None` within 3 bytes of the
    /// end, where no match starts and nothing is inserted.
    #[inline(always)]
    fn hash_at(&self, pos: usize) -> Option<usize> {
        (pos + 4 <= self.data.len()).then(|| hash4(self.data, pos))
    }

    /// Inserts position `pos`, whose 4-byte hash is `h`, into the chains.
    #[inline(always)]
    fn insert_hashed(&mut self, pos: usize, h: usize) {
        let gp = self.base + pos as u32;
        self.prev[gp as usize & self.window_mask] = self.head[h];
        self.head[h] = gp;
    }

    /// Inserts position `pos` into the chains.
    #[inline(always)]
    fn insert(&mut self, pos: usize) {
        if let Some(h) = self.hash_at(pos) {
            self.insert_hashed(pos, h);
        }
    }

    /// Finds the best match at `pos`, whose 4-byte hash is `h`,
    /// returning `(len, dist)` when at least `MIN_MATCH` long.
    fn best_match(&self, pos: usize, h: usize) -> Option<(u32, u32)> {
        let data = self.data;
        let max_len = self.params.max_match.min(data.len() - pos);
        let gp = self.base + pos as u32;
        let first4 = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let mut cand = self.head[h];
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0u32;
        let mut chain = self.params.max_chain;

        while cand >= self.base && cand < gp && chain > 0 {
            let dist = (gp - cand) as usize;
            if dist > self.params.window {
                break;
            }
            chain -= 1;
            let c = (cand - self.base) as usize;
            // Quick rejects: the byte past the current best must match
            // (cheap) and the first four bytes must match (kills hash
            // collisions before the extension loop).
            if pos + best_len < data.len()
                && data[c + best_len] == data[pos + best_len]
                && first4
                    == u32::from_le_bytes(
                        data[c..c + 4].try_into().unwrap(),
                    )
            {
                let len = 4 + common_prefix_from(data, c + 4, pos + 4, max_len - 4);
                if len > best_len {
                    best_len = len;
                    best_dist = dist as u32;
                    if len >= self.params.nice_len {
                        break;
                    }
                }
            }
            let next = self.prev[cand as usize & self.window_mask];
            // Chains are strictly decreasing within an epoch; anything
            // else is a stale slot from a previous input.
            if next >= cand {
                break;
            }
            cand = next;
        }
        if best_len >= MIN_MATCH {
            Some((best_len as u32, best_dist))
        } else {
            None
        }
    }

    /// Inserts the interior of an emitted match. Long matches insert
    /// with a stride: checkpoint images are full of page-sized runs, and
    /// per-byte insertion there is pure overhead.
    #[inline]
    fn insert_span(&mut self, start: usize, len: usize) {
        let end = (start + len).min(self.data.len());
        if len <= DENSE_INSERT_LEN {
            for p in start..end {
                self.insert(p);
            }
        } else {
            let mut p = start;
            while p < end {
                self.insert(p);
                p += 4;
            }
            // Keep the tail dense so matches chain across the boundary.
            for p in end.saturating_sub(3)..end {
                self.insert(p);
            }
        }
    }
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, up to
/// `max`, comparing 8 bytes at a time (`u64` load + `trailing_zeros`).
/// Shared with the `lzf` codec's match extension.
#[inline(always)]
pub(crate) fn common_prefix_from(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    debug_assert!(a < b);
    let mut n = 0;
    while n + 8 <= max && b + n + 8 <= data.len() {
        let x = u64::from_le_bytes(data[a + n..a + n + 8].try_into().unwrap());
        let y = u64::from_le_bytes(data[b + n..b + n + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return (n + (diff.trailing_zeros() / 8) as usize).min(max);
        }
        n += 8;
    }
    while n < max && b + n < data.len() && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

thread_local! {
    /// Per-thread tokenizer state: callers of [`tokenize`] reuse tables
    /// across calls without threading a state handle through every
    /// codec. Thread-local (not global) so nodes compressing on
    /// different threads (parallel chaos episodes) share no tables.
    static TLS_STATE: RefCell<LzState> = RefCell::new(LzState::new());
}

/// Tokenizes `input` into literals and matches, appending to `tokens`.
///
/// Uses a thread-local [`LzState`], so repeated calls on the same thread
/// pay no table-allocation or clearing cost. Use [`tokenize_with`] to
/// manage the state explicitly.
pub fn tokenize(input: &[u8], params: LzParams, tokens: &mut Vec<Token>) {
    TLS_STATE.with(|s| tokenize_with(&mut s.borrow_mut(), input, params, tokens));
}

/// Tokenizes `input` with an explicit reusable state.
pub fn tokenize_with(
    state: &mut LzState,
    input: &[u8],
    params: LzParams,
    tokens: &mut Vec<Token>,
) {
    let mut mf = MatchFinder::new(input, params, state);
    let mut pos = 0usize;
    // Consecutive literal count driving the probe stride.
    let mut miss: u32 = 0;
    while pos < input.len() {
        // The position's hash serves both its probe and its insert.
        let h = mf.hash_at(pos);
        match h.and_then(|h| Some((h, mf.best_match(pos, h)?))) {
            None => {
                // Incompressible run: probe less often the longer it
                // gets. The skipped bytes are emitted as literals
                // without a search (correctness is unaffected — worst
                // case a match is found a few bytes late).
                let step = if miss >= SKIP_TRIGGER {
                    (1 + ((miss - SKIP_TRIGGER) >> SKIP_SHIFT) as usize)
                        .min(MAX_SKIP)
                } else {
                    1
                };
                if let Some(h) = h {
                    mf.insert_hashed(pos, h);
                }
                let end = (pos + step).min(input.len());
                for &b in &input[pos..end] {
                    tokens.push(Token::Literal(b));
                }
                miss += (end - pos) as u32;
                pos = end;
            }
            Some((h, (mut len, mut dist))) => {
                miss = 0;
                if params.lazy && (len as usize) < params.nice_len {
                    // Peek one position ahead; if it matches longer, emit
                    // a literal and take the later match.
                    mf.insert_hashed(pos, h);
                    let next = mf.hash_at(pos + 1);
                    let later = next.and_then(|h2| mf.best_match(pos + 1, h2));
                    if let (Some(h2), Some((len2, dist2))) = (next, later) {
                        if len2 > len + 1 {
                            tokens.push(Token::Literal(input[pos]));
                            pos += 1;
                            // The deferred match start needs its own
                            // chain entry (the old start already has
                            // one).
                            mf.insert_hashed(pos, h2);
                            len = len2;
                            dist = dist2;
                        }
                    }
                    tokens.push(Token::Match { len, dist });
                    // First position already inserted when lazy-probing.
                    mf.insert_span(pos + 1, len as usize - 1);
                    pos += len as usize;
                } else {
                    tokens.push(Token::Match { len, dist });
                    mf.insert_span(pos, len as usize);
                    pos += len as usize;
                }
            }
        }
    }
    state.advance(input.len());
}

/// Appends the `len` bytes that start `dist` bytes back, which must lie
/// at or after `start` (the first output byte of the current block or
/// stream). A match clear of the bytes it writes is one
/// `extend_from_within`; an overlapping one repeats its `dist`-byte
/// period, copied in doubling chunks. Every LZ decoder copies its
/// matches here.
#[inline]
pub(crate) fn copy_match(
    out: &mut Vec<u8>,
    start: usize,
    dist: usize,
    len: usize,
) -> Result<(), CodecError> {
    if dist == 0 || dist > out.len() - start {
        return Err(CodecError::new("distance out of block"));
    }
    let from = out.len() - dist;
    if dist >= len {
        out.extend_from_within(from..from + len);
    } else {
        let end = out.len() + len;
        while out.len() < end {
            let n = (end - out.len()).min(out.len() - from);
            out.extend_from_within(from..from + n);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reconstructs bytes from tokens (the tests' reference; the real
    /// decoders copy matches with `copy_match` against their output
    /// buffers).
    fn detokenize(tokens: &[Token], out: &mut Vec<u8>) -> Result<(), String> {
        for t in tokens {
            match *t {
                Token::Literal(b) => out.push(b),
                Token::Match { len, dist } => {
                    let at = out.len();
                    copy_match(out, 0, dist as usize, len as usize)
                        .map_err(|_| {
                            format!("invalid distance {dist} at output {at}")
                        })?;
                }
            }
        }
        Ok(())
    }

    fn params() -> LzParams {
        LzParams {
            window: 1 << 15,
            max_match: 258,
            max_chain: 64,
            nice_len: 128,
            lazy: true,
        }
    }

    fn round_trip(data: &[u8], p: LzParams) {
        let mut tokens = Vec::new();
        tokenize(data, p, &mut tokens);
        let mut out = Vec::new();
        detokenize(&tokens, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"", params());
        round_trip(b"a", params());
        round_trip(b"ab", params());
        round_trip(b"abc", params());
    }

    #[test]
    fn repetitive_input_produces_matches() {
        let data = b"abcabcabcabcabcabcabcabc".to_vec();
        let mut tokens = Vec::new();
        tokenize(&data, params(), &mut tokens);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "no matches found: {tokens:?}"
        );
        let mut out = Vec::new();
        detokenize(&tokens, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn overlapping_match_rle_style() {
        // "aaaa..." compresses as literal 'a' + overlapping match
        // (dist 1).
        let data = vec![b'a'; 1000];
        let mut tokens = Vec::new();
        tokenize(&data, params(), &mut tokens);
        assert!(tokens.len() < 20, "tokens = {}", tokens.len());
        assert!(tokens
            .iter()
            .any(|t| matches!(t, Token::Match { dist: 1, .. })));
        let mut out = Vec::new();
        detokenize(&tokens, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn random_bytes_round_trip() {
        // Pseudo-random bytes: mostly literals, but must stay lossless.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        round_trip(&data, params());
    }

    #[test]
    fn structured_floats_round_trip() {
        let data: Vec<u8> = (0..4096u32)
            .flat_map(|i| ((i as f64).sin()).to_le_bytes())
            .collect();
        round_trip(&data, params());
    }

    #[test]
    fn greedy_vs_lazy_both_round_trip() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog!"
            .repeat(20);
        for lazy in [false, true] {
            let p = LzParams {
                lazy,
                ..params()
            };
            round_trip(&data, p);
        }
    }

    #[test]
    fn small_window_limits_distances() {
        let p = LzParams {
            window: 1 << 8,
            max_match: 64,
            max_chain: 16,
            nice_len: 64,
            lazy: false,
        };
        let mut data = vec![0u8; 4096];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 97) as u8;
        }
        let mut tokens = Vec::new();
        tokenize(&data, p, &mut tokens);
        for t in &tokens {
            if let Token::Match { dist, .. } = t {
                assert!(*dist as usize <= 1 << 8);
            }
        }
        let mut out = Vec::new();
        detokenize(&tokens, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn max_match_respected() {
        let p = LzParams {
            max_match: 16,
            nice_len: 16,
            ..params()
        };
        let data = vec![b'z'; 500];
        let mut tokens = Vec::new();
        tokenize(&data, p, &mut tokens);
        for t in &tokens {
            if let Token::Match { len, .. } = t {
                assert!(*len <= 16);
            }
        }
    }

    #[test]
    fn detokenize_rejects_bad_distance() {
        let tokens = [Token::Match { len: 4, dist: 5 }];
        let mut out = Vec::new();
        assert!(detokenize(&tokens, &mut out).is_err());
    }

    #[test]
    fn common_prefix_finds_exact_length() {
        let data = b"abcdefgh_abcdefgX";
        assert_eq!(common_prefix_from(data, 0, 9, 8), 7);
        let long = [5u8; 100];
        assert_eq!(common_prefix_from(&long, 0, 50, 50), 50);
    }

    #[test]
    fn state_reuse_is_equivalent_to_fresh_state() {
        // The epoch trick must make a warm state behave exactly like a
        // fresh one: stale entries are invisible.
        let p = params();
        let inputs: [&[u8]; 4] = [
            b"abcabcabcabcabcabc",
            &[0u8; 5000],
            b"the quick brown fox jumps over the lazy dog",
            &[0xAB; 77],
        ];
        let mut warm = LzState::new();
        for _round in 0..3 {
            for input in inputs {
                let mut fresh_tokens = Vec::new();
                tokenize_with(
                    &mut LzState::new(),
                    input,
                    p,
                    &mut fresh_tokens,
                );
                let mut warm_tokens = Vec::new();
                tokenize_with(&mut warm, input, p, &mut warm_tokens);
                assert_eq!(fresh_tokens, warm_tokens);
            }
        }
    }

    #[test]
    fn state_survives_window_growth_and_shrink() {
        let small = LzParams {
            window: 1 << 10,
            ..params()
        };
        let big = LzParams {
            window: 1 << 18,
            ..params()
        };
        let data = b"wrap around the windows ".repeat(200);
        let mut state = LzState::new();
        for p in [small, big, small, big] {
            let mut tokens = Vec::new();
            tokenize_with(&mut state, &data, p, &mut tokens);
            let mut out = Vec::new();
            detokenize(&tokens, &mut out).unwrap();
            assert_eq!(out, data);
            for t in &tokens {
                if let Token::Match { dist, .. } = t {
                    assert!(*dist as usize <= p.window);
                }
            }
        }
    }

    #[test]
    fn incompressible_skip_still_finds_later_matches() {
        // Random prefix long enough to trigger skip acceleration,
        // followed by compressible data: matches must still appear.
        let mut x = 7u64;
        let mut data: Vec<u8> = (0..4000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        data.extend(b"compress me compress me compress me ".repeat(100));
        let mut tokens = Vec::new();
        tokenize(&data, params(), &mut tokens);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "no matches after incompressible prefix"
        );
        let mut out = Vec::new();
        detokenize(&tokens, &mut out).unwrap();
        assert_eq!(out, data);
    }
}
