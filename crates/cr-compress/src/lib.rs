//! # cr-compress — from-scratch lossless codecs for checkpoint data
//!
//! The paper's compression study (§5) measures four utilities — lz4,
//! gzip, bzip2 and xz — on checkpoint images of seven Mantevo mini-apps.
//! This crate implements one codec from each *algorithm family*, entirely
//! from scratch, so the study can be reproduced without the original
//! binaries:
//!
//! | Paper utility | This crate | Family |
//! |---|---|---|
//! | lz4(1)   | [`lzf::Lzf`]        | greedy byte-oriented LZ77, 64 KiB window |
//! | gzip(1/6)| [`deflate::Deflate`]| LZSS + canonical Huffman, hash chains, lazy matching |
//! | bzip2(1/9)| [`bwz::Bwz`]       | BWT + MTF + zero-RLE + Huffman, 100–900 KB blocks |
//! | xz(1/6)  | [`rangez::Rangez`]  | large-window LZ + adaptive binary range coder |
//!
//! The container formats are this crate's own (each codec implements both
//! directions, so interoperability with the original tools is not a
//! goal); what is preserved is the *behavioural profile* — the
//! speed/ratio ordering that Tables 2 and 3 of the paper depend on:
//! lzf fastest/weakest … rangez slowest/strongest.
//!
//! All codecs implement the [`Codec`] trait and round-trip any byte
//! sequence (enforced by unit and property tests). [`registry`] lists
//! the paper's seven utility/level combinations; [`measure`] provides
//! the §5 measurement harness.
//!
//! ```
//! use cr_compress::{registry, Codec};
//!
//! let codec = registry::by_name("gz", 1).unwrap();
//! let data = b"abcabcabcabcabcabc".repeat(100);
//! let mut compressed = Vec::new();
//! codec.compress(&data, &mut compressed);
//! assert!(compressed.len() < data.len());
//! let mut out = Vec::new();
//! codec.decompress(&compressed, &mut out).unwrap();
//! assert_eq!(out, data);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bitio;
pub mod bwz;
pub mod deflate;
pub mod huffman;
pub mod lz;
pub mod lzf;
pub mod measure;
pub mod rangez;
pub mod registry;

use std::fmt;

/// Error produced when decompressing malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of the corruption.
    pub reason: String,
}

impl CodecError {
    /// Creates an error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        CodecError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.reason)
    }
}

impl std::error::Error for CodecError {}

/// A lossless block codec: compresses a byte slice into a self-contained
/// container and restores it exactly.
pub trait Codec: Send + Sync {
    /// Short family name (`"lzf"`, `"gz"`, `"bwz"`, `"rz"`).
    fn name(&self) -> &'static str;

    /// Effort level this instance is configured for.
    fn level(&self) -> u32;

    /// Compresses `input`, appending the container to `out` *without*
    /// clearing it, so a caller can put a header in front of the
    /// container in one buffer (the NDP engine frames each block as
    /// `[raw_len][comp_len][payload]` this way).
    fn compress_append(&self, input: &[u8], out: &mut Vec<u8>);

    /// Compresses `input` into `out`, which is cleared first.
    fn compress(&self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        self.compress_append(input, out);
    }

    /// Decompresses `input`, appending the raw bytes to `out` *without*
    /// clearing it, so a caller can decode several containers into one
    /// buffer (the restore path decodes each framed block straight into
    /// the image this way). Back-references never reach into the bytes
    /// `out` held before. Fails on malformed input, leaving `out` with
    /// its earlier bytes and possibly part of this container's, but
    /// must never panic on arbitrary bytes.
    fn decompress_append(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError>;

    /// Decompresses `input` into `out`, which is cleared first.
    fn decompress(
        &self,
        input: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        out.clear();
        self.decompress_append(input, out)
    }

    /// `name(level)` label matching the paper's notation.
    fn label(&self) -> String {
        format!("{}({})", self.name(), self.level())
    }

    /// Convenience: compress into a fresh vector.
    fn compress_to_vec(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress(input, &mut out);
        out
    }

    /// Convenience: decompress into a fresh vector.
    fn decompress_to_vec(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.decompress(input, &mut out)?;
        Ok(out)
    }
}

/// Compression factor as the paper defines it:
/// `1 − compressed/uncompressed`. Zero-length input yields factor 0.
pub fn compression_factor(uncompressed: usize, compressed: usize) -> f64 {
    if uncompressed == 0 {
        return 0.0;
    }
    1.0 - compressed as f64 / uncompressed as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_factor_definition() {
        assert_eq!(compression_factor(100, 30), 0.7);
        assert_eq!(compression_factor(100, 100), 0.0);
        assert_eq!(compression_factor(0, 0), 0.0);
        // Expansion gives a negative factor.
        assert!(compression_factor(100, 120) < 0.0);
    }

    #[test]
    fn codec_error_display() {
        let e = CodecError::new("truncated stream");
        assert_eq!(e.to_string(), "codec error: truncated stream");
    }
}
