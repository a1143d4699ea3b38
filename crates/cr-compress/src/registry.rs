//! Registry of codec instances, including the seven utility/level
//! combinations of the paper's compression study (§5.1.2).

use crate::bwz::Bwz;
use crate::deflate::Deflate;
use crate::lzf::Lzf;
use crate::rangez::Rangez;
use crate::Codec;

/// Returns a codec by family name (`"lzf"`, `"gz"`, `"bwz"`, `"rz"`)
/// and level. `None` for unknown names or unsupported levels.
pub fn by_name(name: &str, level: u32) -> Option<Box<dyn Codec>> {
    match (name, level) {
        ("lzf", 1) => Some(Box::new(Lzf::new())),
        ("gz", 1..=9) => Some(Box::new(Deflate::new(level))),
        ("bwz", 1..=9) => Some(Box::new(Bwz::new(level))),
        ("rz", 1..=9) => Some(Box::new(Rangez::new(level))),
        _ => None,
    }
}

/// The inverse of [`Codec::label`] for the codecs [`by_name`] builds:
/// `"gz(1)"` yields gz level 1. `None` for malformed labels and unknown
/// codecs.
pub fn by_label(label: &str) -> Option<Box<dyn Codec>> {
    let (name, rest) = label.split_once('(')?;
    let level = rest.strip_suffix(')')?.parse().ok()?;
    by_name(name, level).filter(|c| c.label() == label)
}

/// The study's seven codec/level combinations, in the column order of
/// Table 2, with each paper utility mapped to its in-crate family:
/// gzip→gz, bzip2→bwz, xz→rz, lz4→lzf.
pub fn study_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(Deflate::new(1)),
        Box::new(Deflate::new(6)),
        Box::new(Bwz::new(1)),
        Box::new(Bwz::new(9)),
        Box::new(Rangez::new(1)),
        Box::new(Rangez::new(6)),
        Box::new(Lzf::new()),
    ]
}

/// The paper utility name each study codec stands in for, aligned with
/// [`study_codecs`] and [`cr_core`-style labels]: `gzip(1)`, `gzip(6)`,
/// `bzip2(1)`, `bzip2(9)`, `xz(1)`, `xz(6)`, `lz4(1)`.
pub fn study_paper_labels() -> [&'static str; 7] {
    [
        "gzip(1)",
        "gzip(6)",
        "bzip2(1)",
        "bzip2(9)",
        "xz(1)",
        "xz(6)",
        "lz4(1)",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_known_codecs() {
        for (name, level) in
            [("lzf", 1), ("gz", 1), ("gz", 9), ("bwz", 5), ("rz", 6)]
        {
            let c = by_name(name, level).unwrap();
            assert_eq!(c.name(), name);
            assert_eq!(c.level(), level);
        }
    }

    #[test]
    fn lookup_unknown_is_none() {
        assert!(by_name("zip", 1).is_none());
        assert!(by_name("gz", 0).is_none());
        assert!(by_name("gz", 10).is_none());
        assert!(by_name("lzf", 2).is_none());
    }

    #[test]
    fn labels_round_trip_through_by_label() {
        for c in study_codecs() {
            let back = by_label(&c.label()).unwrap();
            assert_eq!(back.label(), c.label());
        }
        for bad in [
            "", "gz", "gz(", "gz()", "gz(1", "gz 1)", "(1)", "gz(x)",
            "gz(+1)", "gz(01)", "gz(1))", "zip(1)", "gz(0)", "par2x-gz(1)",
        ] {
            assert!(by_label(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn study_set_matches_paper_columns() {
        let codecs = study_codecs();
        let labels = study_paper_labels();
        assert_eq!(codecs.len(), 7);
        assert_eq!(labels.len(), 7);
        let own: Vec<String> = codecs.iter().map(|c| c.label()).collect();
        assert_eq!(
            own,
            ["gz(1)", "gz(6)", "bwz(1)", "bwz(9)", "rz(1)", "rz(6)", "lzf(1)"]
        );
    }

    #[test]
    fn every_study_codec_round_trips() {
        let data = b"every codec must round trip this. ".repeat(300);
        for c in study_codecs() {
            let comp = c.compress_to_vec(&data);
            let back = c.decompress_to_vec(&comp).unwrap();
            assert_eq!(back, data, "{}", c.label());
        }
    }
}
