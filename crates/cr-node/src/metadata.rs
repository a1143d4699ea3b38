//! BLCR-style checkpoint metadata (§4.2.1 of the paper).
//!
//! BLCR attaches to each checkpoint the parent process ID, the MPI
//! process (rank) ID and a unique checkpoint ID; the node uses this to
//! track the latest checkpoint and its location per application. This
//! module is that record; the stores keep it next to each checkpoint's
//! bytes.

use std::fmt;

/// Identifies one checkpoint of one application rank.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CheckpointMeta {
    /// Application identifier (BLCR: parent process id).
    pub app_id: String,
    /// MPI rank whose context this checkpoint holds.
    pub rank: u32,
    /// Monotonic checkpoint ID within the application.
    pub ckpt_id: u64,
    /// Uncompressed payload size, bytes.
    pub size: u64,
    /// Logical timestamp (host checkpoint counter) when taken.
    pub taken_at: u64,
    /// Codec label if the stored payload is compressed (`None` =
    /// uncompressed).
    pub codec: Option<String>,
    /// For incremental checkpoints: the `ckpt_id` of the base this
    /// delta applies to (§7 future-work drains). `None` = full image.
    pub base: Option<u64>,
    /// CRC-64 of the original uncompressed application image, carried
    /// end-to-end so a restore can verify the final reassembled bytes
    /// no matter which level or encoding served them. `0` = not
    /// recorded (internal metadata such as spill frames).
    pub content_crc: u64,
}

impl CheckpointMeta {
    /// Creates metadata for an uncompressed checkpoint.
    pub fn new(app_id: &str, rank: u32, ckpt_id: u64, size: u64, taken_at: u64) -> Self {
        CheckpointMeta {
            app_id: app_id.to_string(),
            rank,
            ckpt_id,
            size,
            taken_at,
            codec: None,
            base: None,
            content_crc: 0,
        }
    }

    /// Returns a copy marked as an incremental delta over `base`.
    pub fn incremental_over(&self, base: u64) -> Self {
        CheckpointMeta {
            base: Some(base),
            ..self.clone()
        }
    }

    /// Returns a copy describing the compressed form of this checkpoint.
    pub fn compressed_with(&self, codec: &str) -> Self {
        CheckpointMeta {
            codec: Some(codec.to_string()),
            ..self.clone()
        }
    }
}

impl fmt::Display for CheckpointMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[rank {}] ckpt #{} ({} bytes{})",
            self.app_id,
            self.rank,
            self.ckpt_id,
            self.size,
            match &self.codec {
                Some(c) => format!(", {c}"),
                None => String::new(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointMeta {
        CheckpointMeta::new("lulesh", 3, 42, 112_000_000_000, 99)
    }

    #[test]
    fn incremental_marker_round_trips() {
        let m = sample().incremental_over(41);
        assert_eq!(m.base, Some(41));
        assert_eq!(sample().base, None);
    }

    #[test]
    fn display_is_informative() {
        let c = sample().compressed_with("rz(6)");
        assert_eq!(c.codec.as_deref(), Some("rz(6)"));
        let s = format!("{c}");
        assert!(s.contains("lulesh") && s.contains("#42") && s.contains("rz(6)"));
    }
}
