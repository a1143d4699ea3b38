//! LSB-first bit stream writer and reader shared by the Huffman-based
//! codecs.
//!
//! Both sides move whole 64-bit words: the writer stores its bit buffer
//! with one 8-byte append and keeps the complete bytes, and the reader
//! refills with one unaligned 8-byte load while 8 unread bytes remain
//! (bytewise only in the last 7). The `gz` decoder's fast loop drives
//! the reader through the crate-private `*_word`/`*_fast` methods,
//! which skip the bounds checks a caller has already made.

use crate::CodecError;

/// Writes bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    bit_buf: u64,
    bit_count: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that appends to the bytes already in `out`, so
    /// a codec can write its bit stream straight after its header.
    pub fn from_vec(out: Vec<u8>) -> Self {
        BitWriter {
            out,
            ..Self::default()
        }
    }

    /// Appends the low `count` bits of `bits` (count ≤ 57 per call).
    #[inline]
    pub fn write_bits(&mut self, bits: u64, count: u32) {
        debug_assert!(count <= 57);
        debug_assert!(bits < (1u64 << count));
        // At most 7 bits are pending between calls, so the sum fits.
        self.bit_buf |= bits << self.bit_count;
        self.bit_count += count;
        if self.bit_count >= 8 {
            // Append the whole word, then keep only its complete bytes:
            // one fixed-size store instead of a push per byte.
            let whole = self.bit_count / 8;
            let len = self.out.len();
            self.out.extend_from_slice(&self.bit_buf.to_le_bytes());
            self.out.truncate(len + whole as usize);
            self.bit_buf = self.bit_buf.checked_shr(whole * 8).unwrap_or(0);
            self.bit_count &= 7;
        }
    }

    /// Pads to a byte boundary and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xFF) as u8);
        }
        self.out
    }
}

/// Reads bits LSB-first from a byte slice.
///
/// Bits of `bit_buf` above `bit_count` are either zero or the next
/// unread bits of the stream (a word refill loads a few bits past the
/// bytes it counts), so a later refill ORs the same bits in again.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bit_buf: u64,
    bit_count: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            bit_buf: 0,
            bit_count: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        if self.has_word() {
            self.refill_word();
            return;
        }
        while self.bit_count <= 56 && self.pos < self.data.len() {
            self.bit_buf |= (self.data[self.pos] as u64) << self.bit_count;
            self.pos += 1;
            self.bit_count += 8;
        }
    }

    /// True while at least 8 bytes of the stream are not yet buffered,
    /// so [`Self::refill_word`] may run.
    #[inline]
    pub(crate) fn has_word(&self) -> bool {
        self.data.len() - self.pos >= 8
    }

    /// Tops the buffer up to at least 56 bits with one 8-byte load.
    /// Needs [`Self::has_word`].
    #[inline]
    pub(crate) fn refill_word(&mut self) {
        debug_assert!(self.bit_count < 64);
        let word = u64::from_le_bytes(
            self.data[self.pos..self.pos + 8]
                .try_into()
                .expect("an 8-byte slice"),
        );
        self.bit_buf |= word << self.bit_count;
        // Count only the whole bytes that fit; the bits of the next
        // byte that also landed are reloaded by the next refill.
        self.pos += (63 - self.bit_count as usize) / 8;
        self.bit_count |= 56;
    }

    /// The buffered bits, next bit lowest. Only the low `bit_count`
    /// bits are guaranteed; after [`Self::refill_word`] that is 56.
    #[inline]
    pub(crate) fn peek_fast(&self) -> u64 {
        self.bit_buf
    }

    /// Takes `count` buffered bits without a refill or a check against
    /// the stream's end; the caller has counted them in.
    #[inline]
    pub(crate) fn take_fast(&mut self, count: u32) -> u64 {
        debug_assert!(count <= self.bit_count && count < 64);
        let v = self.bit_buf & ((1u64 << count) - 1);
        self.bit_buf >>= count;
        self.bit_count -= count;
        v
    }

    /// Reads `count` bits (count ≤ 57). Fails if the stream is
    /// exhausted.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64, CodecError> {
        debug_assert!(count <= 57);
        if self.bit_count < count {
            self.refill();
            if self.bit_count < count {
                return Err(CodecError::new("bit stream exhausted"));
            }
        }
        Ok(self.take_fast(count))
    }

    /// Returns the next `count` bits without consuming them, zero-padded
    /// if the stream ends early (table-based Huffman decode needs a
    /// fixed-width peek near end of stream).
    #[inline]
    pub fn peek_bits(&mut self, count: u32) -> u64 {
        debug_assert!(count <= 57);
        if self.bit_count < count {
            self.refill();
        }
        let mask = (1u64 << count) - 1;
        self.bit_buf & mask
    }

    /// Consumes `count` bits previously peeked. Fails if fewer bits
    /// remain.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<(), CodecError> {
        self.read_bits(count).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        let values = [
            (0b1u64, 1u32),
            (0b1010, 4),
            (0x7F, 7),
            (0xDEAD, 16),
            (0x1F_FFFF, 21),
            (0, 3),
(0x1_FFFF_FFFF_FFFF, 49),
        ];
        for &(v, c) in &values {
            w.write_bits(v, c);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, c) in &values {
            assert_eq!(r.read_bits(c).unwrap(), v, "width {c}");
        }
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        // Padding bits of the final byte are readable ...
        assert!(r.read_bits(5).is_ok());
        // ... but past the final byte is an error.
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn empty_stream() {
        let bytes = BitWriter::new().finish();
        assert!(bytes.is_empty());
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn many_single_bits() {
        let mut w = BitWriter::new();
        let pattern: Vec<u64> = (0..1000).map(|i| (i * 7 % 3 == 0) as u64).collect();
        for &b in &pattern {
            w.write_bits(b, 1);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 125);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bits(1).unwrap(), b);
        }
    }

    #[test]
    fn finish_pads_the_pending_bits_to_a_byte() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 8);
        w.write_bits(0b1, 1);
        // One full byte flushed, one bit pending and padded with zeros.
        assert_eq!(w.finish(), [0xFF, 0x01]);
    }
}
