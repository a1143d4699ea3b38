//! The block frame of drained objects: `[u32 raw_len][u32 comp_len]
//! [payload]`, little-endian. The NDP appends one frame per compressed
//! block; the restore path decodes them one by one, so a remote object
//! decompresses incrementally (pipelined restore, §4.3).

use cr_compress::{Codec, CodecError};

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

/// Decodes every frame of `blob` and appends the raw bytes to `out`,
/// each codec container straight into `out`. A truncated header, a
/// payload overrunning the blob, or a block that does not decode to its
/// recorded length is an error.
pub fn decode(
    blob: &[u8],
    codec: Option<&dyn Codec>,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
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
            Some(c) => c.decompress_append(payload, out)?,
            None => out.extend_from_slice(payload),
        }
        if out.len() - start != raw_len {
            return Err(CodecError::new("block length mismatch"));
        }
    }
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
}
