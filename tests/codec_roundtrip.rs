//! Cross-crate codec integration: every codec must losslessly
//! round-trip every mini-app's synthetic checkpoint images, including
//! randomized (seeded, deterministic) sweeps over arbitrary inputs and
//! adversarial containers.

use cr_rand::ChaCha8;
use ndp_checkpoint::cr_compress::registry::{by_name, study_codecs};
use ndp_checkpoint::cr_node::integrity::Crc64;
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

/// `(container length, CRC-64/ECMA-182 of the container)` of every
/// study codec, in `study_codecs` order, on each mini-app's 1 MiB
/// seed-99 image. Container bytes are a contract: drained objects hold
/// them, and a faster encoder must reproduce them exactly.
const GOLDEN: [(&str, [(usize, u64); 7]); 7] = [
    (
        "CoMD",
        [
            (176_524, 0xb010_c54a_def5_5aa1),
            (173_042, 0x09b5_a998_7279_c2e9),
            (148_560, 0xdf2c_1f54_1050_8822),
            (153_107, 0x2bd4_90c4_dd0d_874c),
            (169_944, 0x7341_052f_5947_d820),
            (164_777, 0xbc16_f579_5fe0_7e27),
            (283_621, 0x704b_1d89_5dca_e85b),
        ],
    ),
    (
        "HPCCG",
        [
            (132_427, 0x8b39_341d_337b_d4b7),
            (121_888, 0xef5d_86cc_9d32_2a1c),
            (101_560, 0x68d7_d1d1_c973_0a1e),
            (95_031, 0x8276_605b_a2e6_012f),
            (98_160, 0x8c20_1e51_7a50_b654),
            (92_670, 0x882f_414c_b72f_42c9),
            (277_571, 0xdd75_c610_2447_235e),
        ],
    ),
    (
        "miniFE",
        [
            (264_191, 0x905e_e49d_0a3a_0273),
            (260_651, 0x28a7_836c_e3b8_89fe),
            (260_067, 0xaffa_3ad8_43c5_c50b),
            (270_856, 0xb209_a769_b444_2507),
            (245_762, 0xe7ba_8537_ccc9_6642),
            (243_715, 0x6729_02d4_6d26_96f8),
            (393_651, 0xddca_a9a0_e234_9fb0),
        ],
    ),
    (
        "miniMD",
        [
            (407_849, 0x3f78_70dc_9bd7_640b),
            (404_470, 0x3044_8f8d_12df_6dc6),
            (389_198, 0xac08_bda3_be70_2fcf),
            (410_339, 0x43c2_99a2_9362_615c),
            (389_370, 0xcb62_b9e6_7061_c722),
            (386_022, 0x7eee_440a_7334_5e59),
            (505_396, 0x78c5_7363_6ec8_d801),
        ],
    ),
    (
        "miniSmac",
        [
            (686_781, 0x152e_6d1a_27fb_1fc9),
            (694_898, 0xbe28_4f0b_af01_767a),
            (672_433, 0xb51c_379e_bb05_0291),
            (707_065, 0xce36_3601_4360_6bbc),
            (646_675, 0xf7fc_1b61_42cf_3873),
            (654_756, 0xbfb3_9cfe_2424_7d6f),
            (753_318, 0xd595_61b1_85d4_c352),
        ],
    ),
    (
        "miniAero",
        [
            (173_578, 0x4903_941f_7fb0_d9c3),
            (168_198, 0xfde5_08d4_7e38_307d),
            (121_258, 0x724e_12bf_5bda_7943),
            (116_858, 0xfc6b_27c0_c0b2_238c),
            (152_531, 0x48fc_6383_69ca_ae3d),
            (144_967, 0x97f2_f569_d0dc_f1de),
            (298_221, 0x5886_a0c8_1cb3_8837),
        ],
    ),
    (
        "pHPCCG",
        [
            (97_550, 0x1c86_ec83_a179_64c1),
            (88_286, 0x719e_ccbe_fe50_046a),
            (73_042, 0x79a4_84e4_cefc_9d71),
            (64_069, 0x5b7c_0027_d14b_403c),
            (71_210, 0xce02_62a6_62c5_0808),
            (65_907, 0xb491_7baa_1fcc_0efe),
            (238_227, 0x2fef_881a_4b37_5383),
        ],
    ),
];

#[test]
fn study_codec_containers_match_golden_crcs() {
    for (app, (name, golden)) in all_mini_apps().iter().zip(GOLDEN) {
        assert_eq!(app.name(), name);
        let image = app.generate(1 << 20, 99);
        for (codec, (len, crc)) in study_codecs().iter().zip(golden) {
            let c = codec.compress_to_vec(&image);
            assert_eq!(
                (c.len(), Crc64::of(&c)),
                (len, crc),
                "{} on {name}",
                codec.label()
            );
        }
    }
}

#[test]
fn corrupt_length_headers_are_errors() {
    // The container's raw length is untrusted: a huge claim must not
    // reach the allocator or overflow, only fail the decode.
    let data = b"length header test ".repeat(500);
    for codec in study_codecs() {
        let good = codec.compress_to_vec(&data);
        let at = if codec.name() == "lzf" { 1 } else { 2 };
        assert_eq!(good[at..at + 8], (data.len() as u64).to_le_bytes());
        for claim in [u64::MAX, 1 << 40] {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&claim.to_le_bytes());
            assert!(
                codec.decompress_to_vec(&bad).is_err(),
                "{} accepted a length of {claim}",
                codec.label()
            );
        }
    }
}

#[test]
fn decompress_append_keeps_earlier_bytes() {
    // The append entry point decodes after any prefix without letting
    // a back-reference reach into it; `decompress` clears first.
    let image = all_mini_apps()[2].generate(1 << 18, 4);
    for codec in study_codecs() {
        let c = codec.compress_to_vec(&image);
        let mut out = b"prefix".to_vec();
        codec.decompress_append(&c, &mut out).unwrap();
        assert_eq!(&out[..6], b"prefix");
        assert!(out[6..] == image[..], "{} append diverged", codec.label());
        codec.decompress(&c, &mut out).unwrap();
        assert!(out == image, "{} decompress kept stale bytes", codec.label());
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
