//! `bench_hotpath` — reproducible throughput harness for the checkpoint
//! hot path.
//!
//! Measures, on the synthetic mini-app checkpoint images from
//! `cr-workloads`:
//!
//! 1. **Per-codec throughput** — compression factor and single-thread
//!    compress/decompress MB/s for every study codec (Table 2's speed
//!    columns), over one image per mini-app. Each direction is one
//!    pass over all the images; the MB/s come from the median pass.
//! 2. **CRC-64 throughput** — MB/s of `Crc64::of` over the 64 KiB NVM
//!    granules of a `BENCH_MB`-sized image and over the whole image, of
//!    `Crc64Jones::of` over the granules, and of the incremental
//!    drain's `BlockHasher::fingerprint_image` (both CRCs per granule),
//!    with the path `Crc64::update` takes on this CPU. Recorded, not
//!    gated.
//! 3. **Drain indicators** — the `indicators/v1` values folded from the
//!    event bus of one full drain of a `BENCH_MB`-sized image.
//!
//! Every timed row repeats its work for at least one second
//! ([`cr_bench::perf::time_window`]) and reports the median seconds next
//! to the quartiles and the number of runs.
//!
//! Results go to stdout and to a machine-readable JSON file (schema
//! `bench_codec/v1`). Knobs, all via environment:
//!
//! * `BENCH_MB`  — per-codec input budget and drain-image size in MiB
//!   (default 8)
//! * `BENCH_OUT` — output path (default `results/BENCH_codec.json`)

use std::path::PathBuf;

use cr_bench::perf::{mb_per_s, time_window, Timing};
use cr_bench::{env_or, write_report};
use cr_compress::compression_factor;
use cr_compress::registry::study_codecs;
use cr_node::incremental::BlockHasher;
use cr_node::integrity::{granule_crcs, Crc64, Crc64Jones, GRANULE};
use cr_node::ndp::StepOutcome;
use cr_node::node::{ComputeNode, NodeConfig};
use cr_obs::json::Value;
use cr_workloads::{all_mini_apps, CheckpointGenerator};

const SEED: u64 = 42;

struct Opts {
    image_mb: usize,
    out: PathBuf,
}

impl Opts {
    fn from_env() -> Self {
        Opts {
            image_mb: env_or("BENCH_MB", 8usize).max(1),
            out: std::env::var("BENCH_OUT")
                .unwrap_or_else(|_| "results/BENCH_codec.json".into())
                .into(),
        }
    }
}

/// `timing`'s row fields with `prefix_` in front of each key.
fn prefixed(prefix: &str, timing: &Timing) -> Vec<(String, Value)> {
    timing
        .fields()
        .into_iter()
        .map(|(key, value)| (format!("{prefix}_{key}"), value))
        .collect()
}

fn codec_section(images: &[(String, Vec<u8>)]) -> Value {
    println!("== per-codec throughput (one pass over all apps) ==");
    let mut rows = Vec::new();
    for codec in study_codecs() {
        // rz/bwz are an order of magnitude slower by design; shrink
        // their inputs to keep the harness runtime sane.
        let shrink = if matches!(codec.name(), "rz" | "bwz") { 4 } else { 1 };
        let inputs: Vec<&[u8]> = images
            .iter()
            .map(|(_, img)| &img[..img.len() / shrink])
            .collect();
        // Correctness guard: one byte-exact round trip per codec.
        let compressed: Vec<Vec<u8>> =
            inputs.iter().map(|i| codec.compress_to_vec(i)).collect();
        for (input, c) in inputs.iter().zip(&compressed) {
            assert_eq!(
                &codec.decompress_to_vec(c).unwrap(),
                input,
                "{} roundtrip",
                codec.label()
            );
        }
        let input_bytes: usize = inputs.iter().map(|i| i.len()).sum();
        let compressed_bytes: usize = compressed.iter().map(Vec::len).sum();
        let factor = compression_factor(input_bytes, compressed_bytes);

        let mut out = Vec::new();
        let comp = time_window(|| {
            for input in &inputs {
                codec.compress(std::hint::black_box(input), &mut out);
                std::hint::black_box(out.len());
            }
        });
        let decomp = time_window(|| {
            for c in &compressed {
                codec.decompress(std::hint::black_box(c), &mut out).unwrap();
                std::hint::black_box(out.len());
            }
        });
        let compress_mb_s = mb_per_s(input_bytes, comp.median);
        let decompress_mb_s = mb_per_s(input_bytes, decomp.median);
        println!(
            "{:16} factor {factor:.3}  compress {compress_mb_s:>9.1} MB/s  decompress {decompress_mb_s:>9.1} MB/s",
            codec.label(),
        );
        let mut row = vec![
            ("codec".into(), Value::str(codec.label())),
            ("name".into(), Value::str(codec.name())),
            ("input_bytes".into(), Value::Num(input_bytes as f64)),
            ("compressed_bytes".into(), Value::Num(compressed_bytes as f64)),
            ("factor".into(), Value::Num(factor)),
            ("compress_mb_s".into(), Value::Num(compress_mb_s)),
            ("decompress_mb_s".into(), Value::Num(decompress_mb_s)),
        ];
        row.extend(prefixed("compress", &comp));
        row.extend(prefixed("decompress", &decomp));
        rows.push(Value::Obj(row));
    }
    Value::Arr(rows)
}

/// The CRC-64 path `Crc64::update` takes for inputs of at least 128
/// bytes on this CPU.
fn crc64_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") {
        return "pclmulqdq";
    }
    "slicing_by_8"
}

fn crc64_section(image: &[u8]) -> Value {
    use std::hint::black_box;
    println!("== CRC-64 throughput ==");
    let path = crc64_path();
    let granules = time_window(|| {
        black_box(granule_crcs(black_box(image)));
    });
    let whole = time_window(|| {
        black_box(Crc64::of(black_box(image)));
    });
    let jones = time_window(|| {
        let crcs: Vec<u64> =
            black_box(image).chunks(GRANULE).map(Crc64Jones::of).collect();
        black_box(crcs);
    });
    let hasher = BlockHasher::new(GRANULE);
    let fingerprints = time_window(|| {
        black_box(hasher.fingerprint_image(black_box(image)));
    });
    let granule_mb_s = mb_per_s(image.len(), granules.median);
    let image_mb_s = mb_per_s(image.len(), whole.median);
    let jones_mb_s = mb_per_s(image.len(), jones.median);
    let fingerprint_mb_s = mb_per_s(image.len(), fingerprints.median);
    println!(
        "{path:16} granules {granule_mb_s:>9.1} MB/s  whole image {image_mb_s:>9.1} MB/s"
    );
    println!(
        "{:16} jones    {jones_mb_s:>9.1} MB/s  fingerprint {:>9.1} MB/s",
        "", fingerprint_mb_s
    );
    let mut row = vec![
        ("path".into(), Value::str(path)),
        ("input_bytes".into(), Value::Num(image.len() as f64)),
        ("granule_bytes".into(), Value::Num(GRANULE as f64)),
        ("granule_mb_s".into(), Value::Num(granule_mb_s)),
        ("image_mb_s".into(), Value::Num(image_mb_s)),
        ("jones_mb_s".into(), Value::Num(jones_mb_s)),
        ("fingerprint_mb_s".into(), Value::Num(fingerprint_mb_s)),
    ];
    row.extend(prefixed("granule", &granules));
    row.extend(prefixed("image", &whole));
    row.extend(prefixed("jones", &jones));
    row.extend(prefixed("fingerprint", &fingerprints));
    Value::Obj(row)
}

/// Drives the full drain pipeline (host checkpoint -> NVM -> NDP
/// compress -> NIC -> remote object) and returns the `indicators/v1`
/// values folded from the node's event stream (drain jobs, stalls,
/// spans).
fn drain_indicators(image: &[u8]) -> Value {
    let cfg = NodeConfig {
        drain_ratio: 1, // drain every checkpoint
        codec: Some(("gz", 1)),
        ..NodeConfig::small_test()
    };
    let mut node = ComputeNode::new(cfg);
    node.register_app("bench");
    let bus = cr_obs::Bus::with_sink(cr_obs::VecSink::new());
    node.set_observer(&bus);

    node.checkpoint("bench", image).expect("bench checkpoint");
    while node.ndp_step().expect("bench drain") != StepOutcome::Idle {}

    let report = cr_obs::analyze::analyze("bench_hotpath", &bus.drain());
    Value::Obj(
        report
            .values()
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v)))
            .collect(),
    )
}

fn main() {
    let opts = Opts::from_env();
    let effective_cores = cr_core::par::default_threads();

    let apps = all_mini_apps();
    // Per-codec inputs: one image per mini-app, splitting the requested
    // budget evenly (floor 1 MiB each so weak compressors still see
    // representative structure).
    let per_app = ((opts.image_mb << 20) / apps.len().max(1)).max(1 << 20);
    let images: Vec<(String, Vec<u8>)> = apps
        .iter()
        .map(|a| (a.name().to_string(), a.generate(per_app, SEED)))
        .collect();
    // Drain and CRC input: the full-size image of the first app
    // (CoMD-like, mixed compressibility).
    let drain_image = apps[0].generate(opts.image_mb << 20, SEED + 1);

    let codecs = codec_section(&images);
    let crc64 = crc64_section(&drain_image);
    let indicators = drain_indicators(&drain_image);

    let doc = Value::Obj(vec![
        ("schema".into(), Value::str("bench_codec/v1")),
        (
            "config".into(),
            Value::Obj(vec![
                ("image_mb".into(), Value::Num(opts.image_mb as f64)),
                ("per_app_bytes".into(), Value::Num(per_app as f64)),
                (
                    "effective_cores".into(),
                    Value::Num(effective_cores as f64),
                ),
                ("seed".into(), Value::Num(SEED as f64)),
                (
                    "apps".into(),
                    Value::Arr(
                        images
                            .iter()
                            .map(|(name, _)| Value::str(name.clone()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("codecs".into(), codecs),
        ("crc64".into(), crc64),
        ("indicators".into(), indicators),
    ]);

    write_report(&opts.out, &doc.render());
}
