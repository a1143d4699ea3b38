//! The block frame of drained objects: `[u32 raw_len][u32 comp_len]
//! [payload]`, little-endian. The NDP appends one frame per compressed
//! block. Each frame is a self-contained codec container, so the
//! restore path decodes the frames of an object on every host core at
//! once, each straight into its place in the image (pipelined restore,
//! §4.3).

use std::mem::MaybeUninit;
use std::sync::Mutex;

use cr_compress::{Codec, CodecError};
use cr_core::par::{default_threads, par_map_init_in};

/// Frame header length, bytes.
const HEADER: usize = 8;

/// Appends one frame holding `chunk` to `out`, encoded with `codec`
/// (stored as-is when `None`). The codec writes its container straight
/// after the header and the `comp_len` placeholder is patched, so no
/// per-block buffer is needed.
pub fn append(out: &mut Vec<u8>, chunk: &[u8], codec: Option<&dyn Codec>) {
    let start = out.len();
    out.extend_from_slice(&len32(chunk.len()).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    match codec {
        Some(c) => c.compress_append(chunk, out),
        None => out.extend_from_slice(chunk),
    }
    let comp_len = len32(out.len() - start - HEADER);
    out[start + 4..start + HEADER].copy_from_slice(&comp_len.to_le_bytes());
}

fn len32(len: usize) -> u32 {
    u32::try_from(len).expect("block frame lengths fit in u32")
}

fn read32(b: &[u8]) -> usize {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize
}

/// Decodes every frame of `blob` and appends the raw bytes to `out`.
///
/// The headers are scanned first; their raw lengths give each block's
/// place in `out`, which is sized once. The frames then decode across
/// [`cr_core::par`] workers, each into its own slice of `out` through a
/// scratch buffer of one block that the worker reuses. A truncated
/// header, a payload overrunning the blob, or a block that does not
/// decode to its recorded length is an error; the error reported is
/// that of the first failing frame in stream order, as if the frames
/// were decoded one after another. Headers whose raw lengths together
/// cannot even be reserved are an error before any frame decodes. On an
/// error `out` keeps its earlier bytes.
pub fn decode(
    blob: &[u8],
    codec: Option<&dyn Codec>,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let (frames, malformed) = scan(blob);
    // Reserved, not written: a header claiming more than its payload
    // decodes to costs address space only, never touched memory.
    let too_many = || CodecError::new("block frames claim too many bytes");
    let total = frames
        .iter()
        .try_fold(0usize, |sum, &(_, raw_len)| sum.checked_add(raw_len))
        .ok_or_else(too_many)?;
    out.try_reserve_exact(total).map_err(|_| too_many())?;
    let start = out.len();
    let mut spare = &mut out.spare_capacity_mut()[..total];
    let slots: Vec<_> = frames
        .iter()
        .map(|&(payload, raw_len)| {
            let (dst, rest) = std::mem::take(&mut spare).split_at_mut(raw_len);
            spare = rest;
            (payload, Mutex::new(dst))
        })
        .collect();
    let decoded =
        par_map_init_in(default_threads(), &slots, Vec::new, |scratch, slot| {
            let (payload, dst) = slot;
            let mut dst = dst.lock().expect("one worker locks each slot, once");
            decode_frame(payload, codec, scratch, &mut dst)
        });
    if let Some(err) = decoded.into_iter().find_map(Result::err) {
        return Err(err);
    }
    if let Some(reason) = malformed {
        return Err(CodecError::new(reason));
    }
    // SAFETY: the slots tile `out`'s spare capacity `start..start +
    // total` exactly, and every slot was decoded without error, which
    // means `decode_frame` wrote all of its bytes.
    unsafe { out.set_len(start + total) };
    Ok(())
}

/// The well-formed frames of `blob` in stream order, as (payload, raw
/// length), and the reason the header after the last of them is
/// malformed, if one is.
fn scan(blob: &[u8]) -> (Vec<(&[u8], usize)>, Option<&'static str>) {
    let mut frames = Vec::new();
    let mut rest = blob;
    while !rest.is_empty() {
        if rest.len() < HEADER {
            return (frames, Some("truncated block frame"));
        }
        let (raw_len, comp_len) = (read32(rest), read32(&rest[4..]));
        rest = &rest[HEADER..];
        if comp_len > rest.len() {
            return (frames, Some("block frame overruns blob"));
        }
        let (payload, tail) = rest.split_at(comp_len);
        frames.push((payload, raw_len));
        rest = tail;
    }
    (frames, None)
}

/// Decodes one frame's payload into `dst`, which must be exactly as long
/// as the raw block: a codec container goes through `scratch`, a stored
/// block is copied as it is.
fn decode_frame(
    payload: &[u8],
    codec: Option<&dyn Codec>,
    scratch: &mut Vec<u8>,
    dst: &mut [MaybeUninit<u8>],
) -> Result<(), CodecError> {
    let raw = match codec {
        Some(c) => {
            scratch.clear();
            c.decompress_append(payload, scratch)?;
            scratch.as_slice()
        }
        None => payload,
    };
    if raw.len() != dst.len() {
        return Err(CodecError::new("block length mismatch"));
    }
    dst.write_copy_of_slice(raw);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_compress::registry;

    fn raw(blob: &[u8], codec: Option<&dyn Codec>) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        decode(blob, codec, &mut out).map(|()| out)
    }

    fn framed(blocks: &[&[u8]], codec: Option<&dyn Codec>) -> Vec<u8> {
        let mut out = Vec::new();
        for b in blocks {
            append(&mut out, b, codec);
        }
        out
    }

    #[test]
    fn frames_round_trip_with_and_without_codec() {
        let gz = registry::by_name("gz", 1).unwrap();
        let a = b"frame one ".repeat(200);
        let b: Vec<u8> = (0..3000u32).map(|i| (i % 253) as u8).collect();
        for codec in [None, Some(gz.as_ref())] {
            let blob = framed(&[&a, &b, &[]], codec);
            assert_eq!(raw(&blob, codec).unwrap(), [&a[..], &b[..]].concat());
        }
        assert_eq!(raw(&[], None).unwrap(), Vec::<u8>::new());
        // Decoding appends: an earlier object's bytes stay in front.
        let mut out = b"head".to_vec();
        decode(&framed(&[b"tail"], None), None, &mut out).unwrap();
        assert_eq!(out, b"headtail");
    }

    #[test]
    fn header_records_raw_and_payload_lengths() {
        let blob = framed(&[b"abcde"], None);
        let five = 5u32.to_le_bytes();
        assert_eq!(blob, [&five[..], &five, b"abcde"].concat());
    }

    #[test]
    fn malformed_frames_are_errors() {
        let blob = framed(&[b"0123456789"], None);
        let truncated = raw(&blob[..5], None).unwrap_err();
        assert_eq!(truncated.reason, "truncated block frame");
        let overrun = raw(&blob[..blob.len() - 1], None).unwrap_err();
        assert_eq!(overrun.reason, "block frame overruns blob");
        let mut short = blob.clone();
        short[0] = 11; // claims one raw byte more than it holds
        let mismatch = raw(&short, None).unwrap_err();
        assert_eq!(mismatch.reason, "block length mismatch");
        let gz = registry::by_name("gz", 1).unwrap();
        let gz = Some(gz.as_ref());
        let mut bad = framed(&[b"compressible compressible"], gz);
        bad[0] ^= 1;
        assert!(raw(&bad, gz).is_err());
    }

    /// The rule `decode` keeps: decode the frames one after another
    /// straight into `out`, stopping at the first that fails.
    fn serial(blob: &[u8], codec: Option<&dyn Codec>) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        let mut rest = blob;
        while !rest.is_empty() {
            if rest.len() < HEADER {
                return Err(CodecError::new("truncated block frame"));
            }
            let (raw_len, comp_len) = (read32(rest), read32(&rest[4..]));
            rest = &rest[HEADER..];
            if comp_len > rest.len() {
                return Err(CodecError::new("block frame overruns blob"));
            }
            let (payload, tail) = rest.split_at(comp_len);
            rest = tail;
            let start = out.len();
            match codec {
                Some(c) => c.decompress_append(payload, &mut out)?,
                None => out.extend_from_slice(payload),
            }
            if out.len() - start != raw_len {
                return Err(CodecError::new("block length mismatch"));
            }
        }
        Ok(out)
    }

    #[test]
    fn every_cut_and_bit_flip_decodes_as_the_serial_rule() {
        let gz = registry::by_name("gz", 1).unwrap();
        let gz = Some(gz.as_ref());
        let blocks: Vec<Vec<u8>> = (0..5u32)
            .map(|k| {
                (0..300 + 40 * k)
                    .map(|i| ((i * (k + 3)) % 19) as u8 ^ (i / 64) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let blob = framed(&refs, gz);
        assert_eq!(raw(&blob, gz).unwrap(), blocks.concat());
        let same = |bytes: &[u8], case: &str| match (raw(bytes, gz), serial(bytes, gz)) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "{case}"),
            (Err(got), Err(want)) => assert_eq!(got.reason, want.reason, "{case}"),
            (got, want) => panic!("{case}: {got:?} against {want:?}"),
        };
        for cut in 0..blob.len() {
            same(&blob[..cut], &format!("cut at {cut}"));
        }
        let mut flipped = blob.clone();
        for bit in 0..blob.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            same(&flipped, &format!("bit {bit} flipped"));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn the_first_failing_frame_in_stream_order_is_reported() {
        let gz = registry::by_name("gz", 1).unwrap();
        let gz = Some(gz.as_ref());
        let block = b"frame payload ".repeat(50);
        let blob = framed(&[&block, &block, &block], gz);
        let frame_len = blob.len() / 3;
        // Frame 1 claims one byte too many; frame 2's payload is cut off.
        let mut bad = blob[..blob.len() - 1].to_vec();
        bad[frame_len] ^= 1;
        assert_eq!(raw(&bad, gz).unwrap_err().reason, "block length mismatch");
        assert_eq!(
            raw(&blob[..blob.len() - 1], gz).unwrap_err().reason,
            "block frame overruns blob"
        );
        // A failed decode leaves the bytes `out` held before.
        let mut out = b"head".to_vec();
        assert!(decode(&bad, gz, &mut out).is_err());
        assert_eq!(out, b"head");
    }
}
