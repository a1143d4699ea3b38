//! The three node workloads. Each drives one `ComputeNode` from one
//! caller thread: `checkpoint_rank`, the NDP step by step (what
//! `drain_all` does), `inject_failure` and `restore_rank`. Every
//! restore is checked byte for byte against the benchmark's own copy of
//! the image and against the level it must come from.
//!
//! Traced rounds also replay the integrity, NVM-verify, codec and
//! incremental layers on the same bytes, outside the timed sections, so
//! each layer's speed is measured where the node does not expose it.

use cr_compress::{registry, Codec};
use cr_node::incremental::{apply_incremental, IncrementalEncoder};
use cr_node::integrity::Crc64;
use cr_node::ndp::{IncrementalPolicy, NdpStats, StepOutcome};
use cr_node::node::{ComputeNode, FailureKind, NodeConfig, RestoreSource};
use cr_node::nvm::Region;
use cr_node::vclock::VClock;
use cr_workloads::{all_mini_apps, by_name, CheckpointGenerator};

use crate::harness::{drive, median, ratio, Config, Ctx, Outcome, Store};
use crate::report::{outcome, timing, Readings};

const APP: &str = "app";
/// NDP drain block (`NodeConfig::small_test`), also the codec replay
/// block.
const BLOCK: usize = 256 << 10;
/// Incremental diff granularity (`IncrementalPolicy::default`).
const DIFF_BLOCK: usize = 64 << 10;
/// Checkpoints per `drain_incr` cycle: one keyframe plus
/// `IncrementalPolicy::default().max_chain` deltas.
const INCR_CHAIN: usize = 5;
/// Checkpoints per `ckpt_local` cycle (one per distinct image).
const LOCAL_IMAGES: usize = 4;
/// Full CRC-64 passes the host commit makes over an image: the content
/// checksum and the NVM slot checksum (one more for a partner copy).
const COMMIT_CRC_PASSES: usize = 2;

/// Seed of the `i`-th image of a workload.
fn image_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

/// SplitMix64: the benchmark's own seeded stream for image mutations.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Byte-for-byte comparison with the benchmark's expected image. With
/// `tamper` the expected copy has its first byte flipped, so a correct
/// restore must be flagged.
fn same_image(got: &[u8], expected: &[u8], tamper: bool) -> bool {
    if !tamper {
        return got == expected;
    }
    got.len() == expected.len()
        && !got.is_empty()
        && got[0] == expected[0] ^ 1
        && got[1..] == expected[1..]
}

fn new_node(cfg: &NodeConfig) -> ComputeNode {
    let mut node = ComputeNode::new(cfg.clone());
    node.register_app(APP);
    node
}

/// A `VClock` resource and the names its accounting is kept under.
struct Resource {
    /// Accumulator of the model time charged to it.
    model: &'static str,
    /// Accumulator of the wall time of the calls that charged it.
    wall: &'static str,
    /// The per-layer metric: wall over model.
    metric: &'static str,
    field: fn(&VClock) -> f64,
}

const VCLOCK: [Resource; 4] = [
    Resource {
        model: "vclock.host_nvm",
        wall: "vclock.host_nvm.wall",
        metric: "vclock.host_nvm.wall_over_model",
        field: |c| c.host_nvm,
    },
    Resource {
        model: "vclock.ndp_compute",
        wall: "vclock.ndp_compute.wall",
        metric: "vclock.ndp_compute.wall_over_model",
        field: |c| c.ndp_compute,
    },
    Resource {
        model: "vclock.io_link",
        wall: "vclock.io_link.wall",
        metric: "vclock.io_link.wall_over_model",
        field: |c| c.io_link,
    },
    Resource {
        model: "vclock.restore_io",
        wall: "vclock.restore_io.wall",
        metric: "vclock.restore_io.wall_over_model",
        field: |c| c.restore_io,
    },
];

/// Attributes a call's wall time to every `VClock` resource it charged.
fn charge(ctx: &mut Ctx, c0: &VClock, c1: &VClock, wall: f64) {
    for r in &VCLOCK {
        let d = (r.field)(c1) - (r.field)(c0);
        if d > 0.0 {
            ctx.add(r.model, d);
            ctx.add(r.wall, wall);
        }
    }
}

/// One `checkpoint_rank` call; returns its wall seconds.
fn checkpoint(ctx: &mut Ctx, node: &mut ComputeNode, img: &[u8]) -> Option<f64> {
    let c0 = *node.clock();
    let ev0 = node.nvm().evictions;
    let (r, wall) = ctx.call("node.checkpoint", || node.checkpoint_rank(APP, 0, img));
    ctx.count_bytes("node.checkpoint", img.len());
    let err = r.err().map(|e| e.to_string());
    ctx.check(err.is_none(), || format!("checkpoint failed: {err:?}"));
    if err.is_some() {
        return None;
    }
    charge(ctx, &c0, node.clock(), wall);
    ctx.add("ckpts", 1.0);
    ctx.add("evictions", (node.nvm().evictions - ev0) as f64);
    ctx.sample("ckpt_ms", wall * 1e3);
    Some(wall)
}

/// Names an NDP step by what it did, from the counters across it.
fn step_kind(b: &NdpStats, a: &NdpStats) -> &'static str {
    if a.drains_completed > b.drains_completed {
        "ndp.finalize_step"
    } else if a.incremental_drains > b.incremental_drains {
        "ndp.prepare_step"
    } else if a.blocks_shipped > b.blocks_shipped {
        "ndp.ship_step"
    } else if a.blocks_compressed > b.blocks_compressed {
        "ndp.compress_step"
    } else {
        "ndp.idle_step"
    }
}

/// Pumps `ndp_step` until the queue is idle (what `drain_all` does),
/// timing and classifying every step; returns the wall seconds.
fn drain(ctx: &mut Ctx, node: &mut ComputeNode) -> Option<f64> {
    let written0 = node.io().bytes_written;
    let (mut wall, mut steps) = (0.0, 0u64);
    let ok = loop {
        let before = node.ndp_stats();
        let c0 = *node.clock();
        let ((out, after), w) = ctx.call_named(
            || (node.ndp_step(), node.ndp_stats()),
            |(_, after)| step_kind(&before, after),
        );
        wall += w;
        charge(ctx, &c0, node.clock(), w);
        match out {
            Ok(StepOutcome::Idle) => break Ok(()),
            Ok(StepOutcome::Progress | StepOutcome::CompletedDrain(_)) => {
                steps += 1;
                let kind = step_kind(&before, &after);
                ctx.sample(kind, w * 1e3);
            }
            Ok(other) => break Err(format!("drain step returned {other:?}")),
            Err(e) => break Err(format!("drain step failed: {e}")),
        }
    };
    let err = ok.err();
    ctx.check(err.is_none(), || err.clone().unwrap_or_default());
    if err.is_some() {
        return None;
    }
    ctx.add("drains", 1.0);
    ctx.add("steps", steps as f64);
    ctx.add("io_bytes", (node.io().bytes_written - written0) as f64);
    Some(wall)
}

/// `inject_failure` then `restore_rank`, checked against `expected` and
/// the level `want`; returns `(restore seconds, inject + restore
/// seconds)`.
fn fail_and_restore(
    ctx: &mut Ctx,
    node: &mut ComputeNode,
    kind: FailureKind,
    expected: &[u8],
    tamper: bool,
    want: RestoreSource,
) -> Option<(f64, f64)> {
    let c0 = *node.clock();
    let ((), w_inject) = ctx.call("node.inject_failure", || node.inject_failure(kind));
    let (r, w_restore) = ctx.call("node.restore", || node.restore_rank(APP, 0));
    ctx.count_bytes("node.restore", expected.len());
    charge(ctx, &c0, node.clock(), w_inject + w_restore);
    let verdict = match &r {
        Ok(got) if got.source != want => {
            Err(format!("restore came from {:?}, want {want:?}", got.source))
        }
        Ok(got) if !same_image(&got.data, expected, tamper) => Err(format!(
            "restore from {:?} differs from the expected image",
            got.source
        )),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("restore failed: {e}")),
    };
    let err = verdict.err();
    ctx.check(err.is_none(), || err.clone().unwrap_or_default());
    err.is_none().then_some((w_restore, w_inject + w_restore))
}

/// Replays the CRC-64 over an image; returns seconds per byte.
fn replay_crc(ctx: &mut Ctx, img: &[u8]) -> f64 {
    let (crc, s) = ctx.call("integrity.crc", || Crc64::of(img));
    std::hint::black_box(crc);
    ctx.count_bytes("integrity.crc", img.len());
    ctx.add("crc_bytes", img.len() as f64);
    ctx.add("crc_s", s);
    s / img.len().max(1) as f64
}

/// Replays `Slot::verify` on the newest committed slot.
fn replay_verify(ctx: &mut Ctx, node: &ComputeNode) {
    let Some(slot) = node.nvm().latest(Region::Uncompressed, APP, 0) else {
        ctx.check(false, || "no committed slot to verify".into());
        return;
    };
    let (ok, s) = ctx.call("nvm.verify", || slot.verify());
    ctx.check(ok, || "committed slot failed verification".into());
    ctx.count_bytes("nvm.verify", slot.data.len());
    ctx.add("verify_bytes", slot.data.len() as f64);
    ctx.add("verify_s", s);
}

/// Replays the codec on the blocks the drain cuts from `payload`;
/// returns the decompression seconds (what a restore of it pays).
fn replay_codec(
    ctx: &mut Ctx,
    codec: &dyn Codec,
    payload: &[u8],
    buf: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> f64 {
    let mut decompress_s = 0.0;
    for block in payload.chunks(BLOCK) {
        buf.clear();
        let ((), cs) = ctx.call("codec.compress", || codec.compress_append(block, buf));
        let (r, ds) = ctx.call("codec.decompress", || codec.decompress(buf, out));
        ctx.check(r.is_ok() && out.as_slice() == block, || {
            "codec replay did not round-trip".into()
        });
        ctx.count_bytes("codec.compress", block.len());
        ctx.count_bytes("codec.decompress", block.len());
        ctx.add("codec_raw", block.len() as f64);
        ctx.add("codec_out", buf.len() as f64);
        ctx.add("codec_c_s", cs);
        ctx.add("codec_d_s", ds);
        decompress_s += ds;
    }
    decompress_s
}

/// Per-layer values every node workload reports, from the traced
/// rounds.
fn node_layers(
    s: &Store,
    layers: Option<&crate::harness::LayerReport>,
) -> Vec<(&'static str, f64)> {
    let mb_s = |bytes: &str, secs: &str| ratio(s.sum(bytes), s.sum(secs)) / 1e6;
    let steps = [
        "ndp.compress_step",
        "ndp.ship_step",
        "ndp.finalize_step",
        "ndp.prepare_step",
        "ndp.idle_step",
    ];
    let ndp_s: f64 = steps
        .iter()
        .map(|n| layers.map_or(0.0, |l| l.name_s(n)))
        .sum();
    let compress_s = layers.map_or(0.0, |l| l.name_s("ndp.compress_step"));
    let mut out = vec![
        ("ndp.compress_step_ms_p50", s.p50("ndp.compress_step")),
        ("ndp.ship_step_ms_p50", s.p50("ndp.ship_step")),
        ("ndp.finalize_step_ms_p50", s.p50("ndp.finalize_step")),
        ("ndp.prepare_step_ms_p50", s.p50("ndp.prepare_step")),
        (
            "ndp.steps_per_drain",
            ratio(s.sum("steps"), s.sum("drains")),
        ),
        ("ndp.compress_share", ratio(compress_s, ndp_s)),
        ("integrity.crc_mb_s", mb_s("crc_bytes", "crc_s")),
        ("nvm.verify_mb_s", mb_s("verify_bytes", "verify_s")),
        (
            "nvm.evictions_per_ckpt",
            ratio(s.sum("evictions"), s.sum("ckpts")),
        ),
        ("node.ckpt_self_ms_p50", s.p50("node.ckpt_self_ms")),
        (
            "node.restore_remote_self_ms_p50",
            s.p50("node.restore_remote_self_ms"),
        ),
        ("codec.compress_mb_s", mb_s("codec_raw", "codec_c_s")),
        ("codec.decompress_mb_s", mb_s("codec_raw", "codec_d_s")),
        ("codec.ratio", ratio(s.sum("codec_out"), s.sum("codec_raw"))),
        ("incr.encode_mb_s", mb_s("incr_enc_bytes", "incr_enc_s")),
        ("incr.apply_mb_s", mb_s("incr_apply_bytes", "incr_apply_s")),
        (
            "incr.changed_fraction",
            median(s.get("incr.changed_fraction")),
        ),
        (
            "remote.objects_per_restore",
            median(s.get("remote.objects")),
        ),
        (
            "remote.bytes_per_drain",
            ratio(s.sum("io_bytes"), s.sum("drains")),
        ),
    ];
    out.extend(
        VCLOCK
            .iter()
            .map(|r| (r.metric, ratio(s.sum(r.wall), s.sum(r.model)))),
    );
    out
}

/// Workload-level readings of a node workload, from the untraced
/// rounds.
fn node_readings(s: &Store, restore_key: &'static str) -> Readings {
    let mut r = Readings::new();
    timing(&mut r, "ckpt_ms_p50", Some("ckpt_ms_p90"), s.get("ckpt_ms"));
    if !s.get("durable_ms").is_empty() {
        timing(&mut r, "durable_ms_p50", None, s.get("durable_ms"));
        r.push((
            "io_bytes_per_byte",
            ratio(s.sum("io_bytes"), s.sum("drained_bytes")),
            s.get("durable_ms").len(),
        ));
    }
    let name = if restore_key == "restore_local_ms" {
        "restore_local_ms_p50"
    } else {
        "restore_remote_ms_p50"
    };
    timing(&mut r, name, None, s.get(restore_key));
    timing(&mut r, "cycle_ms_p50", None, s.get("cycle_ms"));
    r
}

fn node_meta(cfg: &NodeConfig, image_bytes: usize, images: &str) -> Vec<(&'static str, String)> {
    vec![
        ("image_bytes", image_bytes.to_string()),
        ("images", images.to_string()),
        (
            "codec",
            cfg.codec
                .map_or("none".into(), |(n, l)| format!("{n}({l})")),
        ),
        ("drain_ratio", cfg.drain_ratio.to_string()),
        ("partner_ratio", cfg.partner_ratio.to_string()),
        ("nvm_uncompressed_bytes", cfg.nvm_uncompressed.to_string()),
        ("threads", "1".to_string()),
    ]
}

// ---------------------------------------------------------------------
// drain_full
// ---------------------------------------------------------------------

struct DrainFull {
    node_cfg: NodeConfig,
    node: ComputeNode,
    images: Vec<Vec<u8>>,
    codec: Box<dyn Codec>,
}

/// Each round is one rotation over the seven mini-app images: per image
/// `checkpoint` → drain → `NodeLoss` → remote restore.
pub fn drain_full(cfg: &Config) -> Outcome {
    let node_cfg = NodeConfig {
        drain_ratio: 1,
        codec: Some(("gz", 1)),
        ..NodeConfig::small_test()
    };
    let bytes = cfg.image_bytes;
    let run = drive(
        cfg,
        || DrainFull {
            node: new_node(&node_cfg),
            images: all_mini_apps()
                .iter()
                .enumerate()
                .map(|(i, app)| app.generate(bytes, image_seed(cfg.seed, i)))
                .collect(),
            codec: registry::by_name("gz", 1).expect("gz codec registered"),
            node_cfg: node_cfg.clone(),
        },
        |w, ctx| {
            let (mut buf, mut out) = (Vec::new(), Vec::new());
            for img in &w.images {
                let read0 = w.node.io().bytes_read;
                let sec = ctx.begin("bench.durable");
                let c = checkpoint(ctx, &mut w.node, img);
                let d = c.and_then(|_| drain(ctx, &mut w.node));
                ctx.end(sec);
                let (Some(c), Some(d)) = (c, d) else { continue };
                ctx.sample("durable_ms", (c + d) * 1e3);
                ctx.add("drained_bytes", img.len() as f64);
                let (mut crc_rate, mut decompress_s) = (0.0, 0.0);
                if ctx.tracing() {
                    replay_verify(ctx, &w.node);
                    crc_rate = replay_crc(ctx, img);
                    decompress_s = replay_codec(ctx, w.codec.as_ref(), img, &mut buf, &mut out);
                    let self_s = c - COMMIT_CRC_PASSES as f64 * crc_rate * img.len() as f64;
                    ctx.sample("node.ckpt_self_ms", self_s * 1e3);
                }
                let sec = ctx.begin("bench.restore");
                let r = fail_and_restore(
                    ctx,
                    &mut w.node,
                    FailureKind::NodeLoss,
                    img,
                    cfg.tamper_expected,
                    RestoreSource::RemoteIo,
                );
                ctx.end(sec);
                let Some((restore_s, fail_s)) = r else {
                    continue;
                };
                ctx.sample("restore_remote_ms", restore_s * 1e3);
                ctx.sample("cycle_ms", (c + d + fail_s) * 1e3);
                ctx.sample("remote.objects", 1.0);
                if ctx.tracing() {
                    // The restore verifies the object (CRC over the bytes
                    // read), decompresses every block and verifies the
                    // image's content CRC.
                    let read = (w.node.io().bytes_read - read0) as f64;
                    let crc_s = crc_rate * (read + img.len() as f64);
                    ctx.sample(
                        "node.restore_remote_self_ms",
                        (restore_s - crc_s - decompress_s) * 1e3,
                    );
                }
                // A fresh node per cycle keeps the I/O node's object
                // store, and so memory, the same on every cycle.
                w.node = new_node(&w.node_cfg);
            }
        },
    );
    let readings = node_readings(&run.ctx.plain, "restore_remote_ms");
    let layers = node_layers(&run.ctx.traced, run.layers.as_ref());
    let meta = node_meta(&node_cfg, bytes, "7 cr-workloads mini-apps, one per cycle");
    outcome(cfg, "drain_full", run, "ckpt_ms", readings, layers, meta)
}

// ---------------------------------------------------------------------
// drain_incr
// ---------------------------------------------------------------------

struct DrainIncr {
    node_cfg: NodeConfig,
    node: ComputeNode,
    image: Vec<u8>,
    donor: Vec<u8>,
    rng: SplitMix,
    rewrites: u64,
    codec: Box<dyn Codec>,
}

impl DrainIncr {
    /// Rewrites about 5 % of the image's diff blocks with donor blocks,
    /// stamping each with a rewrite counter so it always changes.
    fn mutate(&mut self) {
        let blocks = self.image.len() / DIFF_BLOCK;
        for _ in 0..(blocks * 5 / 100).max(1) {
            let (i, j) = (self.rng.below(blocks), self.rng.below(blocks));
            let dst = &mut self.image[i * DIFF_BLOCK..(i + 1) * DIFF_BLOCK];
            dst.copy_from_slice(&self.donor[j * DIFF_BLOCK..(j + 1) * DIFF_BLOCK]);
            self.rewrites += 1;
            dst[..8].copy_from_slice(&self.rewrites.to_le_bytes());
        }
    }
}

/// Each round is one delta chain: five rounds of mutate → checkpoint →
/// drain (a keyframe, then four deltas), then `NodeLoss` and a remote
/// restore through the chain.
pub fn drain_incr(cfg: &Config) -> Outcome {
    let node_cfg = NodeConfig {
        drain_ratio: 1,
        codec: Some(("lzf", 1)),
        incremental: Some(IncrementalPolicy::default()),
        ..NodeConfig::small_test()
    };
    let bytes = cfg.image_bytes;
    let hpccg = by_name("HPCCG").expect("HPCCG mini-app");
    let run = drive(
        cfg,
        || DrainIncr {
            node: new_node(&node_cfg),
            image: hpccg.generate(bytes, image_seed(cfg.seed, 0)),
            donor: hpccg.generate(bytes, image_seed(cfg.seed, 1)),
            rng: SplitMix(image_seed(cfg.seed, 2)),
            rewrites: 0,
            codec: registry::by_name("lzf", 1).expect("lzf codec registered"),
            node_cfg: node_cfg.clone(),
        },
        |w, ctx| {
            let (mut buf, mut out) = (Vec::new(), Vec::new());
            let mut encoder = IncrementalEncoder::new(DIFF_BLOCK);
            let mut prev: Vec<u8> = Vec::new();
            let (mut cycle_s, mut chain) = (0.0, 0.0);
            let (mut crc_rate, mut decompress_s, mut apply_s) = (0.0, 0.0, 0.0);
            let read0 = w.node.io().bytes_read;
            for _ in 0..INCR_CHAIN {
                w.mutate();
                let deltas0 = w.node.ndp_stats().incremental_drains;
                let sec = ctx.begin("bench.durable");
                let c = checkpoint(ctx, &mut w.node, &w.image);
                let d = c.and_then(|_| drain(ctx, &mut w.node));
                ctx.end(sec);
                let (Some(c), Some(d)) = (c, d) else { return };
                cycle_s += c + d;
                ctx.sample("durable_ms", (c + d) * 1e3);
                ctx.add("drained_bytes", w.image.len() as f64);
                let is_delta = w.node.ndp_stats().incremental_drains > deltas0;
                chain = if is_delta { chain + 1.0 } else { 1.0 };
                if !ctx.tracing() {
                    continue;
                }
                replay_verify(ctx, &w.node);
                crc_rate = replay_crc(ctx, &w.image);
                let self_s = c - COMMIT_CRC_PASSES as f64 * crc_rate * w.image.len() as f64;
                ctx.sample("node.ckpt_self_ms", self_s * 1e3);
                let (delta, s) = ctx.call("incr.encode", || encoder.encode(&w.image));
                ctx.count_bytes("incr.encode", w.image.len());
                ctx.add("incr_enc_bytes", w.image.len() as f64);
                ctx.add("incr_enc_s", s);
                let payload = match delta {
                    Some(delta) => {
                        ctx.sample("incr.changed_fraction", delta.changed_fraction());
                        let (applied, s) =
                            ctx.call("incr.apply", || apply_incremental(&prev, &delta));
                        ctx.check(applied.as_deref() == Ok(&w.image[..]), || {
                            "incremental replay did not reproduce the image".into()
                        });
                        ctx.count_bytes("incr.apply", w.image.len());
                        ctx.add("incr_apply_bytes", w.image.len() as f64);
                        ctx.add("incr_apply_s", s);
                        apply_s += s;
                        delta.encode()
                    }
                    None => w.image.clone(),
                };
                decompress_s += replay_codec(ctx, w.codec.as_ref(), &payload, &mut buf, &mut out);
                prev.clone_from(&w.image);
            }
            let sec = ctx.begin("bench.restore");
            let r = fail_and_restore(
                ctx,
                &mut w.node,
                FailureKind::NodeLoss,
                &w.image,
                cfg.tamper_expected,
                RestoreSource::RemoteIo,
            );
            ctx.end(sec);
            if let Some((restore_s, fail_s)) = r {
                ctx.sample("restore_remote_ms", restore_s * 1e3);
                ctx.sample("cycle_ms", (cycle_s + fail_s) * 1e3);
                ctx.sample("remote.objects", chain);
                if ctx.tracing() {
                    // The restore verifies every object of the chain, then
                    // decompresses them, applies the deltas and verifies
                    // the image's content CRC.
                    let read = (w.node.io().bytes_read - read0) as f64;
                    let crc_s = crc_rate * (read + w.image.len() as f64);
                    let self_s = restore_s - crc_s - decompress_s - apply_s;
                    ctx.sample("node.restore_remote_self_ms", self_s * 1e3);
                }
            }
            w.node = new_node(&w.node_cfg);
        },
    );
    let readings = node_readings(&run.ctx.plain, "restore_remote_ms");
    let layers = node_layers(&run.ctx.traced, run.layers.as_ref());
    let meta = node_meta(
        &node_cfg,
        bytes,
        "HPCCG, ~5% of 64 KiB blocks rewritten per checkpoint",
    );
    outcome(cfg, "drain_incr", run, "ckpt_ms", readings, layers, meta)
}

// ---------------------------------------------------------------------
// ckpt_local
// ---------------------------------------------------------------------

struct CkptLocal {
    node: ComputeNode,
    images: Vec<Vec<u8>>,
    taken: u64,
}

/// Each round checkpoints the four images in turn (every 2nd is copied
/// to the partner), then takes a `LocalSurvivable` failure and restores
/// the newest image from local NVM. Nothing drains; sixteen images fill
/// the NVM region, so eviction runs in steady state.
pub fn ckpt_local(cfg: &Config) -> Outcome {
    let bytes = cfg.image_bytes;
    let node_cfg = NodeConfig {
        codec: None,
        drain_ratio: u32::MAX,
        partner_ratio: 2,
        nvm_uncompressed: 16 * bytes,
        ..NodeConfig::small_test()
    };
    let minife = by_name("miniFE").expect("miniFE mini-app");
    let run = drive(
        cfg,
        || CkptLocal {
            node: new_node(&node_cfg),
            images: (0..LOCAL_IMAGES)
                .map(|i| minife.generate(bytes, image_seed(cfg.seed, i)))
                .collect(),
            taken: 0,
        },
        |w, ctx| {
            let mut cycle_s = 0.0;
            for img in &w.images {
                let sec = ctx.begin("bench.checkpoint");
                let c = checkpoint(ctx, &mut w.node, img);
                ctx.end(sec);
                let Some(c) = c else { return };
                w.taken += 1;
                cycle_s += c;
                if ctx.tracing() {
                    replay_verify(ctx, &w.node);
                    let crc_rate = replay_crc(ctx, img);
                    let partner = (w.taken % node_cfg.partner_ratio as u64 == 0) as usize;
                    let passes = (COMMIT_CRC_PASSES + partner) as f64;
                    ctx.sample(
                        "node.ckpt_self_ms",
                        (c - passes * crc_rate * img.len() as f64) * 1e3,
                    );
                }
            }
            // Half the checkpoints carry a partner copy, so single
            // checkpoint times split into two clusters and their median
            // falls between them; the per-cycle mean is steady.
            ctx.sample("ckpt_mean_ms", cycle_s / LOCAL_IMAGES as f64 * 1e3);
            let newest = w.images.last().expect("images");
            let sec = ctx.begin("bench.restore");
            let r = fail_and_restore(
                ctx,
                &mut w.node,
                FailureKind::LocalSurvivable,
                newest,
                cfg.tamper_expected,
                RestoreSource::LocalNvm,
            );
            ctx.end(sec);
            if let Some((restore_s, fail_s)) = r {
                ctx.sample("restore_local_ms", restore_s * 1e3);
                ctx.sample("cycle_ms", (cycle_s + fail_s) * 1e3);
            }
        },
    );
    let readings = node_readings(&run.ctx.plain, "restore_local_ms");
    let layers = node_layers(&run.ctx.traced, run.layers.as_ref());
    let meta = node_meta(&node_cfg, bytes, "4 distinct miniFE images in rotation");
    outcome(
        cfg,
        "ckpt_local",
        run,
        "ckpt_mean_ms",
        readings,
        layers,
        meta,
    )
}
