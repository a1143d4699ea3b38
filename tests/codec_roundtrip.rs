//! Cross-crate codec integration: every codec must losslessly
//! round-trip every mini-app's synthetic checkpoint images, including
//! randomized (seeded, deterministic) sweeps over arbitrary inputs and
//! adversarial containers.

use cr_rand::ChaCha8;
use ndp_checkpoint::cr_compress::registry::{by_name, study_codecs};
use ndp_checkpoint::cr_workloads::{all_mini_apps, CheckpointGenerator};

fn random_bytes(rng: &mut ChaCha8, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill(&mut v);
    v
}

#[test]
fn every_codec_roundtrips_every_miniapp() {
    for app in all_mini_apps() {
        let image = app.generate(1 << 20, 99);
        for codec in study_codecs() {
            let compressed = codec.compress_to_vec(&image);
            let restored = codec
                .decompress_to_vec(&compressed)
                .unwrap_or_else(|e| {
                    panic!("{} on {}: {e}", codec.label(), app.name())
                });
            assert_eq!(
                restored,
                image,
                "{} corrupted {}",
                codec.label(),
                app.name()
            );
        }
    }
}

#[test]
fn compression_factors_follow_family_strength_on_compressible_data() {
    // On a compressible image, the stronger families should not lose
    // badly to the weaker ones: lzf <= gz(1) and gz(1) <= rz(6) + slack.
    let image = all_mini_apps()[1].generate(2 << 20, 5); // HPCCG
    let size = |name: &str, level: u32| {
        by_name(name, level)
            .unwrap()
            .compress_to_vec(&image)
            .len() as f64
    };
    let lzf = size("lzf", 1);
    let gz1 = size("gz", 1);
    let rz1 = size("rz", 1);
    let bwz1 = size("bwz", 1);
    assert!(gz1 < lzf, "gz(1) {gz1} must beat lzf {lzf}");
    assert!(rz1 < gz1 * 1.05, "rz(1) {rz1} should rival gz(1) {gz1}");
    assert!(bwz1 < lzf, "bwz(1) {bwz1} must beat lzf {lzf}");
}

#[test]
fn codecs_reject_each_others_containers() {
    let data = b"cross container test ".repeat(100);
    let codecs = study_codecs();
    for a in &codecs {
        let compressed = a.compress_to_vec(&data);
        for b in &codecs {
            if a.name() == b.name() {
                continue;
            }
            // Wrong-family decode must error (magic mismatch), never
            // panic or return wrong data silently.
            match b.decompress_to_vec(&compressed) {
                Err(_) => {}
                Ok(out) => panic!(
                    "{} accepted {}'s container and returned {} bytes",
                    b.label(),
                    a.label(),
                    out.len()
                ),
            }
        }
    }
}

#[test]
fn codecs_roundtrip_arbitrary_bytes() {
    // Seeded sweep standing in for the former proptest cases: a range
    // of lengths of incompressible data through every family.
    let mut rng = ChaCha8::seed_from_u64(0xC0DEC);
    for len in [0usize, 1, 2, 7, 100, 999, 4096, 8_000, 20_000] {
        let data = random_bytes(&mut rng, len);
        for codec in study_codecs() {
            let compressed = codec.compress_to_vec(&data);
            assert_eq!(
                codec.decompress_to_vec(&compressed).unwrap(),
                data,
                "{} failed at len {len}",
                codec.label()
            );
        }
    }
}

#[test]
fn codecs_roundtrip_structured_runs() {
    // Run-length-structured data (checkpoint-like): all codecs.
    let mut rng = ChaCha8::seed_from_u64(0x5EED);
    for _case in 0..8 {
        let mut data = Vec::new();
        let nruns = 1 + (rng.next_u32() % 50) as usize;
        for _ in 0..nruns {
            let byte = rng.next_u32() as u8;
            let len = 1 + (rng.next_u32() % 500) as usize;
            data.extend(std::iter::repeat_n(byte, len));
        }
        for codec in study_codecs() {
            let compressed = codec.compress_to_vec(&data);
            assert_eq!(
                codec.decompress_to_vec(&compressed).unwrap(),
                data,
                "{} failed",
                codec.label()
            );
        }
    }
}

#[test]
fn compress_append_matches_compress_for_all_codecs() {
    // The zero-copy append entry point must produce the same container
    // bytes as `compress`, after any prefix; `compress` into a buffer
    // that already holds bytes must clear it first.
    let image = all_mini_apps()[0].generate(1 << 18, 3);
    for codec in study_codecs() {
        let clean = codec.compress_to_vec(&image);
        let mut appended = b"prefix".to_vec();
        codec.compress_append(&image, &mut appended);
        assert_eq!(
            &appended[6..],
            &clean[..],
            "{} compress_append diverged",
            codec.label()
        );
        assert_eq!(&appended[..6], b"prefix");

        let mut reused = b"junk left from an earlier run".to_vec();
        codec.compress(&image, &mut reused);
        assert_eq!(
            reused,
            clean,
            "{} compress kept stale bytes",
            codec.label()
        );
    }
}

#[test]
fn truncated_streams_error_not_panic() {
    let mut rng = ChaCha8::seed_from_u64(0x72C4);
    let data = random_bytes(&mut rng, 1500);
    for codec in study_codecs() {
        let compressed = codec.compress_to_vec(&data);
        for i in 0..40 {
            let cut = compressed.len() * i / 40;
            // Either error or (rarely, for lucky prefixes) a wrong
            // result — but never a panic.
            let _ = codec.decompress_to_vec(&compressed[..cut]);
        }
    }
}

#[test]
fn corrupted_streams_never_panic() {
    let mut rng = ChaCha8::seed_from_u64(0xF11B);
    let seed_data = random_bytes(&mut rng, 1200);
    for codec in study_codecs() {
        let compressed = codec.compress_to_vec(&seed_data);
        if compressed.is_empty() {
            continue;
        }
        for _ in 0..64 {
            let idx = rng.next_u64() as usize % compressed.len();
            let mask = (rng.next_u32() % 255 + 1) as u8;
            let mut bad = compressed.clone();
            bad[idx] ^= mask;
            let _ = codec.decompress_to_vec(&bad);
        }
    }
}
