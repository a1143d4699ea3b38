//! `bench_node` — end-to-end scaling harness for the compute node.
//!
//! For every image size and codec it runs whole cycles on a fresh
//! [`ComputeNode`] (`drain_ratio = 1`): `checkpoint_rank` of one miniFE
//! image, `drain_all`, `NodeLoss`, and a remote `restore_rank` that must
//! return the image byte for byte. [`cr_bench::perf::time_window`] runs
//! the cycles for at least one second; each phase is timed inside every
//! cycle and reported as median and quartiles, next to its cost per MB
//! and the median count of minor page faults the process took in it
//! (`<phase>_minor_faults`, read from field 10 of `/proc/self/stat`;
//! `null` where that file does not exist). All cycles of a run share one
//! thread, so after the first cycle the NVM buffers come from its pool.
//!
//! **Scaling gate.** A node whose cost grows faster than its input shows
//! up as a per-MB cost that rises with size. For each codec the binary
//! divides the per-MB drain cost at the largest size by the one at the
//! smallest and exits nonzero if that ratio exceeds
//! [`SCALING_LIMIT`]. The ratio does not depend on the machine's speed.
//!
//! Results go to stdout and to a JSON file (schema `bench_node/v1`).
//! Knobs, all via environment:
//!
//! * `BENCH_NODE_MB` — comma-separated image sizes in MiB (default
//!   `4,8,16,32,64`)
//! * `BENCH_OUT`     — output path (default `results/BENCH_node.json`)

use std::path::PathBuf;
use std::time::Instant;

use cr_bench::perf::{time_window, Timing};
use cr_node::node::{ComputeNode, FailureKind, NodeConfig, RestoreSource};
use cr_obs::json::Value;
use cr_workloads::{by_name, CheckpointGenerator};

const SEED: u64 = 42;
const APP: &str = "bench";

/// Largest allowed ratio of per-MB drain cost, largest size over
/// smallest.
const SCALING_LIMIT: f64 = 1.5;

/// Codecs measured: `None` drains uncompressed.
const CODECS: [Option<(&str, u32)>; 3] = [None, Some(("lzf", 1)), Some(("gz", 1))];

const PHASES: [&str; 3] = ["checkpoint", "drain", "restore"];

struct Opts {
    sizes_mb: Vec<usize>,
    out: PathBuf,
}

impl Opts {
    fn from_env() -> Self {
        let mut sizes_mb: Vec<usize> = std::env::var("BENCH_NODE_MB")
            .ok()
            .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
            .unwrap_or_default();
        sizes_mb.retain(|&mb| mb > 0);
        sizes_mb.sort_unstable();
        sizes_mb.dedup();
        if sizes_mb.is_empty() {
            sizes_mb = vec![4, 8, 16, 32, 64];
        }
        Opts {
            sizes_mb,
            out: std::env::var("BENCH_OUT")
                .unwrap_or_else(|_| "results/BENCH_node.json".into())
                .into(),
        }
    }
}

fn codec_label(codec: Option<(&str, u32)>) -> String {
    codec.map_or("none".into(), |(name, level)| format!("{name}({level})"))
}

/// Minor page faults of this process so far: field 10 of
/// `/proc/self/stat`, or `None` where it cannot be read.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the command name (field 2, which may hold spaces)
    // start at field 3.
    let fields = stat.rsplit_once(')')?.1;
    fields.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// Wall seconds and minor page faults of one phase.
type Phase = (f64, Option<u64>);

/// Runs one phase of a cycle.
fn phase<T>(work: impl FnOnce() -> T) -> (T, Phase) {
    let f0 = minor_faults();
    let t0 = Instant::now();
    let out = work();
    let secs = t0.elapsed().as_secs_f64();
    let faults = minor_faults().zip(f0).map(|(f1, f0)| f1 - f0);
    (out, (secs, faults))
}

/// One cycle on a fresh node.
fn cycle(cfg: &NodeConfig, image: &[u8]) -> [Phase; 3] {
    let mut node = ComputeNode::new(cfg.clone());
    node.register_app(APP);
    let (_, ckpt) =
        phase(|| node.checkpoint_rank(APP, 0, image).expect("checkpoint"));
    let (_, drain) = phase(|| node.drain_all().expect("drain"));
    let (restored, restore) = phase(|| {
        node.inject_failure(FailureKind::NodeLoss);
        node.restore_rank(APP, 0).expect("remote restore")
    });
    assert_eq!(restored.source, RestoreSource::RemoteIo);
    assert!(restored.data == image, "remote restore is not byte-exact");
    [ckpt, drain, restore]
}

/// Per-phase timings and median minor faults of one (size, codec) row.
fn measure(
    cfg: &NodeConfig,
    image: &[u8],
) -> (Timing, [(Timing, Option<u64>); 3]) {
    let mut samples: [Vec<Phase>; 3] = Default::default();
    let whole = time_window(|| {
        for (s, p) in samples.iter_mut().zip(cycle(cfg, image)) {
            s.push(p);
        }
    });
    let phases = samples.map(|s| {
        let secs: Vec<f64> = s.iter().map(|p| p.0).collect();
        let faults: Option<Vec<u64>> = s.iter().map(|p| p.1).collect();
        let median = faults.map(|mut f| {
            f.sort_unstable();
            f[f.len() / 2]
        });
        (Timing::of(secs), median)
    });
    (whole, phases)
}

fn faults_label(faults: Option<u64>) -> String {
    faults.map_or("-".into(), |f| f.to_string())
}

fn main() {
    let opts = Opts::from_env();
    let effective_cores = cr_core::par::default_threads();
    let minife = by_name("miniFE").expect("miniFE mini-app");

    println!("== bench_node: sizes {:?} MiB ==", opts.sizes_mb);
    let mut rows = Vec::new();
    // Per codec: per-MB drain seconds at each size, in size order.
    let mut drain_per_mb: Vec<Vec<f64>> = vec![Vec::new(); CODECS.len()];
    for &mb in &opts.sizes_mb {
        let bytes = mb << 20;
        let image = minife.generate(bytes, SEED);
        for (c, codec) in CODECS.iter().enumerate() {
            let cfg = NodeConfig {
                drain_ratio: 1,
                codec: *codec,
                nvm_uncompressed: bytes.max(64 << 20),
                nvm_compressed: bytes.max(64 << 20),
                ..NodeConfig::small_test()
            };
            let (whole, phases) = measure(&cfg, &image);
            let mbs = bytes as f64 / 1e6;
            drain_per_mb[c].push(phases[1].0.median / mbs);
            println!(
                "{mb:>4} MiB {:8} checkpoint {:8.2} ms  drain {:9.2} ms ({:6.1} MB/s)  restore {:8.2} ms  minor faults {}/{}/{}",
                codec_label(*codec),
                phases[0].0.median * 1e3,
                phases[1].0.median * 1e3,
                mbs / phases[1].0.median,
                phases[2].0.median * 1e3,
                faults_label(phases[0].1),
                faults_label(phases[1].1),
                faults_label(phases[2].1),
            );
            let mut row = vec![
                ("image_mb".into(), Value::Num(mb as f64)),
                ("codec".into(), Value::str(codec_label(*codec))),
                ("cycle_secs".into(), Value::Num(whole.median)),
            ];
            for (name, (t, faults)) in PHASES.iter().zip(&phases) {
                row.extend(
                    t.fields()
                        .into_iter()
                        .map(|(key, value)| (format!("{name}_{key}"), value)),
                );
                row.push((
                    format!("{name}_ms_per_mb"),
                    Value::Num(t.median * 1e3 / mbs),
                ));
                row.push((
                    format!("{name}_minor_faults"),
                    faults.map_or(Value::Null, |f| Value::Num(f as f64)),
                ));
            }
            rows.push(Value::Obj(row));
        }
    }

    let mut failed = Vec::new();
    let scaling: Vec<Value> = CODECS
        .iter()
        .zip(&drain_per_mb)
        .map(|(codec, per_mb)| {
            let (first, last) = (per_mb[0], per_mb[per_mb.len() - 1]);
            let ratio = last / first;
            let pass = ratio <= SCALING_LIMIT;
            println!(
                "scaling {:8} drain ms/MB {:.3} -> {:.3}: ratio {ratio:.2} ({})",
                codec_label(*codec),
                first * 1e3,
                last * 1e3,
                if pass { "ok" } else { "FAIL" }
            );
            if !pass {
                failed.push(codec_label(*codec));
            }
            Value::Obj(vec![
                ("codec".into(), Value::str(codec_label(*codec))),
                ("drain_cost_ratio".into(), Value::Num(ratio)),
                ("pass".into(), Value::Bool(pass)),
            ])
        })
        .collect();

    let doc = Value::Obj(vec![
        ("schema".into(), Value::str("bench_node/v1")),
        (
            "config".into(),
            Value::Obj(vec![
                (
                    "sizes_mb".into(),
                    Value::Arr(
                        opts.sizes_mb
                            .iter()
                            .map(|&mb| Value::Num(mb as f64))
                            .collect(),
                    ),
                ),
                ("app".into(), Value::str("miniFE")),
                ("seed".into(), Value::Num(SEED as f64)),
                (
                    "block_size".into(),
                    Value::Num(NodeConfig::small_test().block_size as f64),
                ),
                ("effective_cores".into(), Value::Num(effective_cores as f64)),
                ("scaling_limit".into(), Value::Num(SCALING_LIMIT)),
            ]),
        ),
        ("rows".into(), Value::Arr(rows)),
        ("scaling".into(), Value::Arr(scaling)),
    ]);
    cr_bench::write_report(&opts.out, &doc.render());
    if !failed.is_empty() {
        eprintln!(
            "scaling gate: per-MB drain cost grew more than {SCALING_LIMIT}x for {}",
            failed.join(", ")
        );
        std::process::exit(1);
    }
}
