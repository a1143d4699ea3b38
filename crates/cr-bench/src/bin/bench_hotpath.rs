//! `bench_hotpath` — reproducible throughput harness for the checkpoint
//! hot path.
//!
//! Measures, on the synthetic mini-app checkpoint images from
//! `cr-workloads`:
//!
//! 1. **Per-codec throughput** — compression factor and single-thread
//!    compress/decompress MB/s for every study codec (Table 2's speed
//!    columns), byte-weighted across all mini-apps.
//! 2. **Thread scaling** — `ParallelCodec` compress wall time from 1 to
//!    N threads, with speedup and scaling efficiency. Efficiency is
//!    defined as `speedup / min(threads, effective_cores)` so that
//!    oversubscribed runs (more threads than cores) are judged against
//!    the parallelism the machine can actually deliver. Each row repeats
//!    the compress for at least one second
//!    ([`cr_bench::perf::time_window`]) and reports the median seconds
//!    as `secs`, next to the quartiles `secs_q1`/`secs_q3` and `runs`.
//!
//! Results go to stdout and to a machine-readable JSON file (schema
//! `bench_codec/v1`). Knobs, all via environment:
//!
//! * `BENCH_MB`          — scaling-image size in MiB (default 8)
//! * `BENCH_REPS`        — best-of repetitions per codec row (default 3)
//! * `BENCH_MAX_THREADS` — cap on the thread sweep (default 8)
//! * `BENCH_OUT`         — output path (default `results/BENCH_codec.json`)

use std::path::PathBuf;

use cr_bench::perf::{mb_per_s, time_window};
use cr_compress::measure::{measure_many, Measurement};
use cr_compress::parallel::ParallelCodec;
use cr_compress::registry::{by_name, study_codecs};
use cr_compress::Codec;
use cr_node::ndp::StepOutcome;
use cr_node::node::{ComputeNode, NodeConfig};
use cr_obs::json::Value;
use cr_obs::stage;
use cr_workloads::{all_mini_apps, CheckpointGenerator};

const SEED: u64 = 42;
const CHUNK_BYTES: usize = 256 << 10;

struct Opts {
    image_mb: usize,
    reps: usize,
    max_threads: usize,
    out: PathBuf,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Opts {
    fn from_env() -> Self {
        Opts {
            image_mb: env_usize("BENCH_MB", 8).max(1),
            reps: env_usize("BENCH_REPS", 3).max(1),
            max_threads: env_usize("BENCH_MAX_THREADS", 8).max(1),
            out: std::env::var("BENCH_OUT")
                .unwrap_or_else(|_| "results/BENCH_codec.json".into())
                .into(),
        }
    }
}

/// Best-of-`reps` measurement: the repetition with the highest compress
/// rate wins (factor and sizes are identical across repetitions because
/// the codecs are deterministic).
fn measure_best(
    codec: &dyn Codec,
    inputs: &[&[u8]],
    reps: usize,
) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..reps {
        let m = measure_many(codec, inputs.iter().copied());
        best = Some(match best {
            Some(b) if b.compress_rate >= m.compress_rate => b,
            _ => m,
        });
    }
    best.expect("reps >= 1")
}

fn codec_section(opts: &Opts, images: &[(String, Vec<u8>)]) -> Value {
    println!("== per-codec throughput (byte-weighted over all apps) ==");
    let mut rows = Vec::new();
    for codec in study_codecs() {
        // rz/bwz are an order of magnitude slower by design; shrink
        // their inputs to keep the harness runtime sane.
        let shrink = if matches!(codec.name(), "rz" | "bwz") { 4 } else { 1 };
        let inputs: Vec<&[u8]> = images
            .iter()
            .map(|(_, img)| &img[..img.len() / shrink])
            .collect();
        let m = measure_best(codec.as_ref(), &inputs, opts.reps);
        println!(
            "{:16} factor {:.3}  compress {:>9.1} MB/s  decompress {:>9.1} MB/s",
            codec.label(),
            m.factor,
            m.compress_rate / 1e6,
            m.decompress_rate / 1e6,
        );
        rows.push(Value::Obj(vec![
            ("codec".into(), Value::str(codec.label())),
            ("name".into(), Value::str(codec.name())),
            ("input_bytes".into(), Value::Num(m.input_bytes as f64)),
            (
                "compressed_bytes".into(),
                Value::Num(m.compressed_bytes as f64),
            ),
            ("factor".into(), Value::Num(m.factor)),
            ("compress_mb_s".into(), Value::Num(m.compress_rate / 1e6)),
            (
                "decompress_mb_s".into(),
                Value::Num(m.decompress_rate / 1e6),
            ),
        ]));
    }
    Value::Arr(rows)
}

fn scaling_section(
    opts: &Opts,
    image: &[u8],
    effective_cores: usize,
) -> Value {
    println!(
        "== thread scaling (ParallelCodec, {} MiB image, {} KiB chunks) ==",
        opts.image_mb,
        CHUNK_BYTES >> 10,
    );
    let mut threads_list = vec![1usize];
    let mut t = 2;
    while t <= opts.max_threads {
        threads_list.push(t);
        t *= 2;
    }

    let mut rows = Vec::new();
    for inner_name in ["gz", "lzf"] {
        let mut base_secs = None;
        for &threads in &threads_list {
            let codec = ParallelCodec::new(
                by_name(inner_name, 1).unwrap(),
                threads,
                CHUNK_BYTES,
            );
            // Correctness guard: a mis-framed container would make the
            // timing below meaningless.
            let compressed = codec.compress_to_vec(image);
            assert_eq!(
                codec.decompress_to_vec(&compressed).unwrap(),
                image,
                "par({inner_name}) x{threads} roundtrip"
            );

            let mut out = Vec::new();
            let timing = time_window(|| {
                codec.compress(std::hint::black_box(image), &mut out);
                std::hint::black_box(out.len());
            });
            let secs = timing.median;
            let base = *base_secs.get_or_insert(secs);
            let speedup = base / secs;
            let efficiency =
                speedup / threads.min(effective_cores).max(1) as f64;
            println!(
                "par({inner_name:3}) x{threads:<2}  {:>9.1} MB/s  speedup {speedup:>5.2}  efficiency {efficiency:>5.2}",
                mb_per_s(image.len(), secs),
            );
            let mut row = vec![
                ("inner".into(), Value::str(inner_name)),
                ("threads".into(), Value::Num(threads as f64)),
            ];
            row.extend(timing.fields());
            row.extend([
                (
                    "compress_mb_s".into(),
                    Value::Num(mb_per_s(image.len(), secs)),
                ),
                ("speedup".into(), Value::Num(speedup)),
                ("efficiency".into(), Value::Num(efficiency)),
            ]);
            rows.push(Value::Obj(row));
        }
    }
    Value::Arr(rows)
}

/// Drives the full drain pipeline (host checkpoint -> NVM -> NDP
/// compress -> NIC -> remote object) with the stage profiler enabled
/// and reports the per-stage tokenize/entropy/frame/ship breakdown,
/// plus the derived `indicators/v1` values folded from the node's
/// event stream (drain jobs, stalls, spans).
fn stages_section(image: &[u8]) -> (Value, Value) {
    println!("== per-stage drain pipeline breakdown ==");
    let cfg = NodeConfig {
        drain_ratio: 1, // drain every checkpoint so all stages fire
        codec: Some(("gz", 1)),
        ..NodeConfig::small_test()
    };
    let mut node = ComputeNode::new(cfg);
    node.register_app("bench");
    let bus = cr_obs::Bus::with_sink(cr_obs::VecSink::new());
    node.set_observer(&bus);

    stage::reset();
    stage::set_enabled(true);
    node.checkpoint("bench", image).expect("bench checkpoint");
    loop {
        match node.ndp_step().expect("bench drain") {
            StepOutcome::Idle => break,
            _ => continue,
        }
    }
    stage::set_enabled(false);

    let report = cr_obs::analyze::analyze("bench_hotpath", &bus.drain());
    let indicators = Value::Obj(
        report
            .values()
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v)))
            .collect(),
    );

    let mut rows = Vec::new();
    for snap in stage::snapshot() {
        println!(
            "{:9} calls {:>7}  {:>9.3} ms  {:>9.1} MB/s",
            snap.stage.name(),
            snap.calls,
            snap.nanos as f64 / 1e6,
            snap.mb_per_s(),
        );
        rows.push(Value::Obj(vec![
            ("stage".into(), Value::str(snap.stage.name())),
            ("calls".into(), Value::Num(snap.calls as f64)),
            ("nanos".into(), Value::Num(snap.nanos as f64)),
            ("bytes".into(), Value::Num(snap.bytes as f64)),
            ("mb_s".into(), Value::Num(snap.mb_per_s())),
        ]));
    }
    stage::reset();
    (Value::Arr(rows), indicators)
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
    // Scaling input: the full-size image of the first app (CoMD-like,
    // mixed compressibility).
    let scaling_image = apps[0].generate(opts.image_mb << 20, SEED + 1);

    let codecs = codec_section(&opts, &images);
    let scaling = scaling_section(&opts, &scaling_image, effective_cores);
    let (stages, indicators) = stages_section(&scaling_image);

    let doc = Value::Obj(vec![
        ("schema".into(), Value::str("bench_codec/v1")),
        (
            "config".into(),
            Value::Obj(vec![
                ("image_mb".into(), Value::Num(opts.image_mb as f64)),
                ("per_app_bytes".into(), Value::Num(per_app as f64)),
                ("reps".into(), Value::Num(opts.reps as f64)),
                ("max_threads".into(), Value::Num(opts.max_threads as f64)),
                (
                    "effective_cores".into(),
                    Value::Num(effective_cores as f64),
                ),
                ("chunk_bytes".into(), Value::Num(CHUNK_BYTES as f64)),
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
                (
                    "efficiency_definition".into(),
                    Value::str(
                        "speedup / min(threads, effective_cores)",
                    ),
                ),
            ]),
        ),
        ("codecs".into(), codecs),
        ("scaling".into(), scaling),
        ("stages".into(), stages),
        ("indicators".into(), indicators),
    ]);

    if let Some(dir) = opts.out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(&opts.out, doc.render()).expect("write results");
    println!("wrote {}", opts.out.display());
}
