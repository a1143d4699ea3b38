//! Hash-based incremental checkpointing — the first of the paper's §7
//! future-work NDP optimizations ("NDP is well suited to compare data
//! for consecutive checkpoints"), in the style of libhashckpt \[22\].
//! Cross-rank deduplication, the second, is not implemented.
//!
//! * [`BlockHasher`] — 128-bit per-block fingerprints: the block's
//!   CRC-64 under the ECMA-182 polynomial and under the Jones
//!   polynomial ([`crate::integrity`]). A changed block keeps both
//!   halves only if its XOR difference is a multiple of both
//!   polynomials; they are coprime, so of their degree-128 product.
//! * [`IncrementalEncoder`] — diffs a checkpoint against the previous
//!   one block-by-block, emitting only changed blocks plus an
//!   unchanged-block map; [`apply_incremental`] reconstructs. At the
//!   default block size the ECMA-182 halves are the NVM slot's stored
//!   granule CRCs ([`IncrementalEncoder::encode_with_granule_crcs`]),
//!   so a diff makes one CRC pass over the image.

use crate::integrity::{Crc64, Crc64Jones, GRANULE};

/// Default diff granularity, bytes.
pub const DEFAULT_BLOCK: usize = 64 * 1024;

/// A 128-bit content fingerprint: the CRC-64 under ECMA-182, then under
/// the Jones polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64, pub u64);

/// Computes per-block fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct BlockHasher {
    /// Block size in bytes (last block may be short).
    pub block_size: usize,
}

impl BlockHasher {
    /// Creates a hasher with the given block size.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size >= 64, "block size too small to be useful");
        BlockHasher { block_size }
    }

    /// Fingerprints one block.
    pub fn fingerprint(data: &[u8]) -> Fingerprint {
        Fingerprint(Crc64::of(data), Crc64Jones::of(data))
    }

    /// Fingerprints every block of an image.
    pub fn fingerprint_image(&self, data: &[u8]) -> Vec<Fingerprint> {
        data.chunks(self.block_size)
            .map(Self::fingerprint)
            .collect()
    }

    /// [`BlockHasher::fingerprint_image`], taking the ECMA-182 halves
    /// from `crcs`, the image's [`crate::integrity::granule_crcs`], when
    /// the blocks are granules. Any other block size, or `crcs` of
    /// another length, computes both halves.
    fn fingerprint_granules(
        &self,
        data: &[u8],
        crcs: &[u64],
    ) -> Vec<Fingerprint> {
        let blocks = data.chunks(self.block_size);
        if self.block_size != GRANULE || crcs.len() != blocks.len() {
            return self.fingerprint_image(data);
        }
        blocks
            .zip(crcs)
            .map(|(block, &crc)| Fingerprint(crc, Crc64Jones::of(block)))
            .collect()
    }
}

/// One entry of an incremental image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockDelta {
    /// Block identical to the base checkpoint's block at the same
    /// index.
    Unchanged,
    /// Block payload replacing the base block.
    Data(Vec<u8>),
}

/// An incremental checkpoint: deltas against a base checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalImage {
    /// Total uncompressed size of the checkpoint this encodes.
    pub full_size: usize,
    /// Diff block size.
    pub block_size: usize,
    /// Per-block deltas, in order.
    pub blocks: Vec<BlockDelta>,
}

impl IncrementalImage {
    /// Bytes of actual payload carried (the changed blocks).
    pub fn payload_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| match b {
                BlockDelta::Unchanged => 0,
                BlockDelta::Data(d) => d.len(),
            })
            .sum()
    }

    /// Fraction of blocks that changed.
    pub fn changed_fraction(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        let changed = self
            .blocks
            .iter()
            .filter(|b| matches!(b, BlockDelta::Data(_)))
            .count();
        changed as f64 / self.blocks.len() as f64
    }

    /// Serializes to a compact byte stream
    /// (`[u64 full][u32 block][u32 n]` then per block a tag byte and,
    /// for data blocks, `[u32 len][bytes]`).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_bytes() + 64);
        out.extend_from_slice(b"INCR");
        out.extend_from_slice(&(self.full_size as u64).to_le_bytes());
        out.extend_from_slice(&(self.block_size as u32).to_le_bytes());
        out.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for b in &self.blocks {
            match b {
                BlockDelta::Unchanged => out.push(0),
                BlockDelta::Data(d) => {
                    out.push(1);
                    out.extend_from_slice(&(d.len() as u32).to_le_bytes());
                    out.extend_from_slice(d);
                }
            }
        }
        out
    }

    /// Parses a stream produced by [`IncrementalImage::encode`].
    ///
    /// Defensive against malformed and adversarial input: every header
    /// field is validated against the bytes actually present *before*
    /// any allocation is sized from it, all multi-byte reads are
    /// bounds-checked, and no path can panic or abort — truncated,
    /// fuzzed, or internally inconsistent streams return `Err`.
    pub fn decode(data: &[u8]) -> Result<Self, String> {
        /// Upper bound on the advertised diff-block size: a header
        /// claiming more than this is garbage, not a checkpoint.
        const MAX_BLOCK_SIZE: usize = 1 << 30;

        let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
            let end = pos
                .checked_add(n)
                .filter(|&e| e <= data.len())
                .ok_or_else(|| String::from("truncated incremental image"))?;
            let s = &data[*pos..end];
            *pos = end;
            Ok(s)
        };
        let read_u32 = |pos: &mut usize| -> Result<u32, String> {
            let b: [u8; 4] = take(pos, 4)?
                .try_into()
                .map_err(|_| String::from("short u32 field"))?;
            Ok(u32::from_le_bytes(b))
        };

        let mut pos = 0usize;
        if take(&mut pos, 4)? != b"INCR" {
            return Err("bad incremental magic".into());
        }
        let full_size_raw: [u8; 8] = take(&mut pos, 8)?
            .try_into()
            .map_err(|_| String::from("short u64 field"))?;
        let full_size = u64::from_le_bytes(full_size_raw);
        let block_size = read_u32(&mut pos)? as usize;
        let n = read_u32(&mut pos)? as usize;
        if block_size == 0 || block_size > MAX_BLOCK_SIZE {
            return Err("implausible incremental block size".into());
        }
        // Geometry must be self-consistent (u128 math: `full_size` is
        // attacker-controlled and may not fit usize arithmetic)...
        if n as u128 != (full_size as u128).div_ceil(block_size as u128) {
            return Err("inconsistent incremental geometry".into());
        }
        let full_size = usize::try_from(full_size)
            .map_err(|_| String::from("incremental image too large"))?;
        // ...and the block count must be coverable by the bytes that
        // are actually present (each block costs at least its 1-byte
        // tag), so `n` can never size an allocation beyond the input.
        if n > data.len() - pos {
            return Err("block count exceeds stream length".into());
        }
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            match take(&mut pos, 1)?[0] {
                0 => blocks.push(BlockDelta::Unchanged),
                1 => {
                    let len = read_u32(&mut pos)? as usize;
                    if len > block_size {
                        return Err("block overruns block size".into());
                    }
                    blocks.push(BlockDelta::Data(take(&mut pos, len)?.to_vec()));
                }
                t => return Err(format!("bad block tag {t}")),
            }
        }
        Ok(IncrementalImage {
            full_size,
            block_size,
            blocks,
        })
    }
}

/// Diffs successive checkpoints of one application rank. Keeps only
/// fingerprints of the previous checkpoint (libhashckpt's trick: no
/// copy of the old data is needed).
#[derive(Debug)]
pub struct IncrementalEncoder {
    hasher: BlockHasher,
    prev: Option<(usize, Vec<Fingerprint>)>,
}

impl IncrementalEncoder {
    /// Creates an encoder with the given block size.
    pub fn new(block_size: usize) -> Self {
        IncrementalEncoder {
            hasher: BlockHasher::new(block_size),
            prev: None,
        }
    }

    /// True if the next [`IncrementalEncoder::encode`] can produce a
    /// delta (a base exists and geometry matches).
    pub fn has_base(&self, data_len: usize) -> bool {
        matches!(&self.prev, Some((len, _)) if *len == data_len)
    }

    /// Encodes `data` against the previous checkpoint, updating the
    /// stored fingerprints. Returns `None` (caller must ship a full
    /// checkpoint) when no compatible base exists.
    pub fn encode(&mut self, data: &[u8]) -> Option<IncrementalImage> {
        let hashes = self.hasher.fingerprint_image(data);
        self.diff(data, hashes)
    }

    /// [`IncrementalEncoder::encode`] for an image whose
    /// [`crate::integrity::granule_crcs`] are already known: at a
    /// [`GRANULE`] block size they are the fingerprints' first halves,
    /// and only the second is computed. Other block sizes compute both.
    /// `crcs` must be the CRCs of `data` as it is now: a stale CRC
    /// would hide a change.
    pub fn encode_with_granule_crcs(
        &mut self,
        data: &[u8],
        crcs: &[u64],
    ) -> Option<IncrementalImage> {
        let hashes = self.hasher.fingerprint_granules(data, crcs);
        self.diff(data, hashes)
    }

    /// Diffs `data`, whose block fingerprints are `hashes`, against the
    /// base, then makes it the base.
    fn diff(
        &mut self,
        data: &[u8],
        hashes: Vec<Fingerprint>,
    ) -> Option<IncrementalImage> {
        let result = match &self.prev {
            Some((len, prev_hashes)) if *len == data.len() => {
                let blocks = data
                    .chunks(self.hasher.block_size)
                    .zip(hashes.iter())
                    .enumerate()
                    .map(|(i, (chunk, h))| {
                        if prev_hashes.get(i) == Some(h) {
                            BlockDelta::Unchanged
                        } else {
                            BlockDelta::Data(chunk.to_vec())
                        }
                    })
                    .collect();
                Some(IncrementalImage {
                    full_size: data.len(),
                    block_size: self.hasher.block_size,
                    blocks,
                })
            }
            _ => None,
        };
        self.prev = Some((data.len(), hashes));
        result
    }

    /// Forgets the base (node loss destroyed it, or a fresh full
    /// checkpoint is being forced).
    pub fn reset(&mut self) {
        self.prev = None;
    }
}

/// Reconstructs a checkpoint from a base image plus an incremental,
/// into a new buffer. A copy of `base` put through
/// [`apply_incremental_in_place`].
pub fn apply_incremental(
    base: &[u8],
    incr: &IncrementalImage,
) -> Result<Vec<u8>, String> {
    let mut out = base.to_vec();
    apply_incremental_in_place(&mut out, incr)?;
    Ok(out)
}

/// Turns `image`, the base checkpoint, into the checkpoint `incr`
/// encodes by overwriting its changed blocks. The delta is checked
/// against the base's geometry before any byte is written, so an error
/// leaves `image` untouched.
pub fn apply_incremental_in_place(
    image: &mut [u8],
    incr: &IncrementalImage,
) -> Result<(), String> {
    if image.len() != incr.full_size {
        return Err(format!(
            "base size {} does not match incremental {}",
            image.len(),
            incr.full_size
        ));
    }
    if incr.block_size == 0
        || incr.blocks.len() != incr.full_size.div_ceil(incr.block_size)
    {
        return Err("inconsistent incremental geometry".into());
    }
    let mut spans = image.chunks(incr.block_size).zip(&incr.blocks);
    if spans.any(|(span, delta)| {
        matches!(delta, BlockDelta::Data(d) if d.len() != span.len())
    }) {
        return Err("data block has wrong length".into());
    }
    for (span, delta) in image.chunks_mut(incr.block_size).zip(&incr.blocks) {
        if let BlockDelta::Data(d) = delta {
            span.copy_from_slice(d);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| tag ^ ((i / 7) % 251) as u8).collect()
    }

    #[test]
    fn fingerprints_differ_on_small_changes() {
        let a = image(0, 4096);
        let mut b = a.clone();
        b[2048] ^= 1;
        assert_ne!(BlockHasher::fingerprint(&a), BlockHasher::fingerprint(&b));
        assert_eq!(
            BlockHasher::fingerprint(&a),
            BlockHasher::fingerprint(&a.clone())
        );
    }

    #[test]
    fn incremental_detects_sparse_changes() {
        let mut enc = IncrementalEncoder::new(1024);
        let base = image(1, 64 * 1024);
        assert!(enc.encode(&base).is_none(), "first checkpoint is full");
        let mut next = base.clone();
        // Touch two blocks.
        next[100] ^= 0xFF;
        next[50_000] ^= 0xFF;
        let incr = enc.encode(&next).expect("delta expected");
        assert_eq!(incr.blocks.len(), 64);
        let changed = incr
            .blocks
            .iter()
            .filter(|b| matches!(b, BlockDelta::Data(_)))
            .count();
        assert_eq!(changed, 2);
        assert!(incr.payload_bytes() <= 2 * 1024);
        assert_eq!(apply_incremental(&base, &incr).unwrap(), next);
    }

    #[test]
    fn incremental_chain_reconstructs() {
        let mut enc = IncrementalEncoder::new(512);
        let v1 = image(3, 10_000);
        enc.encode(&v1);
        let mut v2 = v1.clone();
        v2[999] = 0xAA;
        let d2 = enc.encode(&v2).unwrap();
        let mut v3 = v2.clone();
        v3[5_000] = 0xBB;
        v3[5_600] = 0xCC;
        let d3 = enc.encode(&v3).unwrap();
        // Chain: v1 + d2 -> v2; v2 + d3 -> v3.
        let r2 = apply_incremental(&v1, &d2).unwrap();
        assert_eq!(r2, v2);
        let r3 = apply_incremental(&r2, &d3).unwrap();
        assert_eq!(r3, v3);
    }

    #[test]
    fn size_change_forces_full_checkpoint() {
        let mut enc = IncrementalEncoder::new(1024);
        enc.encode(&image(1, 8192));
        assert!(enc.encode(&image(1, 4096)).is_none());
        // But the new size becomes the base for the next one.
        assert!(enc.encode(&image(1, 4096)).is_some());
    }

    #[test]
    fn reset_forgets_base() {
        let mut enc = IncrementalEncoder::new(1024);
        let img = image(2, 8192);
        enc.encode(&img);
        assert!(enc.has_base(img.len()));
        enc.reset();
        assert!(!enc.has_base(img.len()));
        assert!(enc.encode(&img).is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut enc = IncrementalEncoder::new(777); // odd block size
        let base = image(9, 10_001); // non-multiple length
        enc.encode(&base);
        let mut next = base.clone();
        next[9_999] ^= 1;
        let incr = enc.encode(&next).unwrap();
        let bytes = incr.encode();
        let back = IncrementalImage::decode(&bytes).unwrap();
        assert_eq!(back, incr);
        assert_eq!(apply_incremental(&base, &back).unwrap(), next);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(IncrementalImage::decode(b"nope").is_err());
        let mut enc = IncrementalEncoder::new(1024);
        let base = image(4, 4096);
        enc.encode(&base);
        let incr = enc.encode(&base).unwrap();
        let bytes = incr.encode();
        for cut in [3, 10, bytes.len() - 1] {
            assert!(IncrementalImage::decode(&bytes[..cut]).is_err());
        }
        // Corrupt the block count.
        let mut bad = bytes.clone();
        bad[16] ^= 0xFF;
        assert!(IncrementalImage::decode(&bad).is_err());
    }

    #[test]
    fn decode_never_panics_on_any_truncation() {
        // Regression for a decode path that trusted header fields: every
        // prefix of a valid stream must come back as Err, never panic.
        let mut enc = IncrementalEncoder::new(512);
        let base = image(13, 5_000);
        enc.encode(&base);
        let mut next = base.clone();
        next[123] ^= 0x80;
        next[4_321] ^= 0x08;
        let bytes = enc.encode(&next).unwrap().encode();
        for cut in 0..bytes.len() {
            assert!(
                IncrementalImage::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must be a decode error"
            );
        }
        assert!(IncrementalImage::decode(&bytes).is_ok());
    }

    #[test]
    fn decode_rejects_huge_header_fields_without_allocating() {
        // A fuzzed header advertising a giant block count or image size
        // must fail fast — not attempt a multi-gigabyte allocation.
        let mut huge_n = Vec::new();
        huge_n.extend_from_slice(b"INCR");
        huge_n.extend_from_slice(&u64::MAX.to_le_bytes()); // full_size
        huge_n.extend_from_slice(&1024u32.to_le_bytes()); // block_size
        huge_n.extend_from_slice(&u32::MAX.to_le_bytes()); // n
        assert!(IncrementalImage::decode(&huge_n).is_err());

        // Geometry self-consistent (n = ceil(full/block)) but the block
        // count vastly exceeds the bytes present.
        let mut consistent = Vec::new();
        consistent.extend_from_slice(b"INCR");
        let block = 1024u32;
        let n = 1_000_000u32;
        let full = (n as u64) * (block as u64);
        consistent.extend_from_slice(&full.to_le_bytes());
        consistent.extend_from_slice(&block.to_le_bytes());
        consistent.extend_from_slice(&n.to_le_bytes());
        assert!(IncrementalImage::decode(&consistent).is_err());

        // Implausible block size.
        let mut big_block = Vec::new();
        big_block.extend_from_slice(b"INCR");
        big_block.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        big_block.extend_from_slice(&u32::MAX.to_le_bytes());
        big_block.extend_from_slice(&1u32.to_le_bytes());
        assert!(IncrementalImage::decode(&big_block).is_err());
    }

    #[test]
    fn decode_survives_seeded_fuzz() {
        use cr_rand::ChaCha8;
        let mut rng = ChaCha8::seed_from_u64(0xFACE_FEED);
        let mut enc = IncrementalEncoder::new(256);
        let base = image(14, 3_000);
        enc.encode(&base);
        let valid = enc.encode(&base).unwrap().encode();
        let mut ok = 0u32;
        for _ in 0..2_000 {
            // Mix of mutated-valid streams and pure noise, all of which
            // must decode to Ok or Err — never panic or abort.
            let mut buf = valid.clone();
            let flips = 1 + (rng.next_u32() % 8) as usize;
            for _ in 0..flips {
                let idx = (rng.next_u64() % buf.len() as u64) as usize;
                buf[idx] ^= rng.next_u32() as u8;
            }
            let cut = (rng.next_u64() % (buf.len() as u64 + 1)) as usize;
            if IncrementalImage::decode(&buf[..cut]).is_ok() {
                ok += 1;
            }
            let mut noise = vec![0u8; (rng.next_u32() % 64) as usize];
            rng.fill(&mut noise);
            let _ = IncrementalImage::decode(&noise);
        }
        // Sanity: the harness actually exercised the parser (some
        // mutants may still parse; most must not).
        assert!(ok < 2_000);
    }

    #[test]
    fn apply_rejects_wrong_base() {
        let mut enc = IncrementalEncoder::new(1024);
        let base = image(5, 8192);
        enc.encode(&base);
        let incr = enc.encode(&base).unwrap();
        assert!(apply_incremental(&base[..4096], &incr).is_err());
    }

    #[test]
    fn in_place_apply_matches_and_leaves_image_untouched_on_error() {
        let base = image(1, 200_000);
        let mut next = base.clone();
        next[70_000] ^= 0xFF;
        next[199_999] ^= 0xFF;
        let mut enc = IncrementalEncoder::new(DEFAULT_BLOCK);
        enc.encode(&base);
        let incr = enc.encode(&next).unwrap();
        let mut img = base.clone();
        apply_incremental_in_place(&mut img, &incr).unwrap();
        assert_eq!(img, next);
        // The tail block is short: a full-size payload there is refused
        // before the first (valid) block is written.
        let mut bad = incr.clone();
        let last = bad.blocks.len() - 1;
        bad.blocks[last] = BlockDelta::Data(vec![0; DEFAULT_BLOCK]);
        let mut img = base.clone();
        assert!(apply_incremental_in_place(&mut img, &bad).is_err());
        assert_eq!(img, base);
        let mut short = incr.clone();
        short.blocks.pop();
        assert!(apply_incremental_in_place(&mut img, &short).is_err());
    }

    #[test]
    fn stored_granule_crcs_give_the_same_images_as_encode() {
        use crate::integrity::granule_crcs;
        let len = 5 * GRANULE + 333;
        let v1 = image(7, len);
        let mut v2 = v1.clone();
        for at in [10, GRANULE + 5, 3 * GRANULE - 1, len - 1] {
            v2[at] ^= 0x5A;
        }
        // 60 KiB blocks number as many as the granules here, yet are
        // not granules: the stored CRCs must not stand in for them.
        for block in [GRANULE, 256, 1024, 16 * 1024, 60 * 1024] {
            let mut plain = IncrementalEncoder::new(block);
            let mut stored = IncrementalEncoder::new(block);
            for data in [&v1, &v2, &v2, &v1] {
                assert_eq!(
                    stored.encode_with_granule_crcs(data, &granule_crcs(data)),
                    plain.encode(data),
                    "block {block}"
                );
            }
        }
        // At granule blocks the stored CRCs are what the diff trusts:
        // the first halves come from `crcs`, not from the bytes.
        let hasher = BlockHasher::new(GRANULE);
        let fake = vec![7u64; len.div_ceil(GRANULE)];
        let prints = hasher.fingerprint_granules(&v1, &fake);
        assert!(prints.iter().all(|f| f.0 == 7), "first halves from crcs");
        assert_eq!(prints.len(), fake.len());
        // Other block sizes ignore them.
        let small = BlockHasher::new(1024);
        assert_eq!(
            small.fingerprint_granules(&v1, &fake),
            small.fingerprint_image(&v1)
        );
    }

    #[test]
    fn unchanged_checkpoint_is_nearly_free() {
        let mut enc = IncrementalEncoder::new(4096);
        let img = image(6, 1 << 20);
        enc.encode(&img);
        let incr = enc.encode(&img).unwrap();
        assert_eq!(incr.payload_bytes(), 0);
        assert_eq!(incr.changed_fraction(), 0.0);
        assert!(incr.encode().len() < 1024, "map overhead only");
    }
}
