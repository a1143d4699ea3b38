//! `bench_chaos` — deterministic chaos sweep over the functional
//! compute node.
//!
//! Runs N seeded episodes. Each episode builds a randomly-configured
//! [`ComputeNode`] (partner level, codec, backpressure policy, drain
//! ratio, incremental drains) with an armed fault plane, then interleaves
//! checkpoints, NDP pumping, mid-episode failures/tampering and restores,
//! keeping a shadow copy of every committed checkpoint image.
//!
//! The invariant checked after every episode (and at every mid-episode
//! restore): a restore either returns a **committed checkpoint
//! bit-exactly** from the best surviving level (local NVM → partner →
//! remote I/O, each level serving its newest intact copy), or a **typed
//! error** — never a panic, never stale or torn data. The final restore
//! of each episode is checked against an oracle that independently
//! predicts the serving level from the node's storage state (with the
//! fault plane quiesced so the prediction itself cannot be perturbed).
//!
//! Episodes are seeded independently (`splitmix(seed ^ splitmix(index))`)
//! and run in parallel on the workspace executor (`cr_core::par`); their
//! outputs are folded in episode order, so everything is derived from
//! `CHAOS_SEED` and two runs with the same seed produce byte-identical
//! reports at any worker count — including the CRC-64 digest of all
//! fault logs. Knobs, all via environment:
//!
//! * `CHAOS_EPISODES` — episode count (default 500)
//! * `CHAOS_SEED`     — base seed (default 7)
//! * `CHAOS_OUT`      — report path (default `results/CHAOS_report.json`)
//!
//! Exit status is nonzero on any invariant violation, or — for full-size
//! sweeps (≥ 500 episodes) — if any fault site never fired.

use std::collections::HashMap;
use std::path::PathBuf;

use cr_core::par::par_map;
use cr_node::faults::{FaultPlaneConfig, FAULT_SITES};
use cr_node::integrity::Crc64;
use cr_node::ndp::{BackpressurePolicy, IncrementalPolicy, StepOutcome};
use cr_node::node::{
    ComputeNode, FailureKind, NodeConfig, NodeError, RestoreSource,
};
use cr_node::nvm::Region;
use cr_node::remote::ObjectKey;
use cr_obs::json::Value;
use cr_obs::metrics::Metrics;
use cr_obs::{Bus, VecSink};
use cr_rand::ChaCha8;

const APP: &str = "chaos";

struct Opts {
    episodes: u64,
    seed: u64,
    out: PathBuf,
    /// `CHAOS_OBS`: when set, attach the observability bus to every
    /// episode's node and write a `metrics/v1` snapshot to this path.
    /// The CHAOS_report.json stays byte-identical either way — the bus
    /// observes, it never perturbs.
    obs: Option<PathBuf>,
}

impl Opts {
    fn from_env() -> Self {
        let env_u64 = |name: &str, default: u64| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Opts {
            episodes: env_u64("CHAOS_EPISODES", 500).max(1),
            seed: env_u64("CHAOS_SEED", 7),
            out: std::env::var("CHAOS_OUT")
                .unwrap_or_else(|_| "results/CHAOS_report.json".into())
                .into(),
            obs: std::env::var("CHAOS_OBS").ok().map(PathBuf::from),
        }
    }
}

/// `num / den` as a fraction, 0.0 when the denominator is zero.
fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checkpoint image: a compressible prefix and an incompressible tail,
/// so codecs see representative structure.
fn make_image(rng: &mut ChaCha8, len: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(len);
    let split = len / 2;
    let stamp = rng.next_u64();
    while data.len() < split {
        data.extend_from_slice(&stamp.to_le_bytes());
    }
    data.truncate(split);
    while data.len() < len {
        data.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    data.truncate(len);
    data
}

/// What the storage-state oracle expects the next restore to produce.
#[derive(Debug, PartialEq, Eq)]
enum Pred {
    Local(u64),
    Partner(u64),
    Remote(u64),
    Fail,
}

/// Predicts the restore outcome from the node's storage alone: the first
/// of local → partner → remote whose newest copy is intact. Mirrors the
/// per-level-newest fallback the node implements, including the
/// incremental-chain walk on the remote level.
fn predict(node: &ComputeNode) -> Pred {
    if let Some(slot) = node.nvm().latest(Region::Uncompressed, APP, 0) {
        if slot.verify() {
            return Pred::Local(slot.meta.ckpt_id);
        }
    }
    if let Some(partner) = node.partner() {
        if let Some(slot) = partner.latest(Region::Uncompressed, APP, 0) {
            if slot.verify() {
                return Pred::Partner(slot.meta.ckpt_id);
            }
        }
    }
    if let Some(key) = node.io().latest_complete(APP, 0) {
        let newest = key.ckpt_id;
        let mut cursor = key;
        loop {
            match node.io().peek_verified(&cursor) {
                None => return Pred::Fail,
                Some(meta) => match meta.base {
                    None => return Pred::Remote(newest),
                    Some(base) => {
                        cursor = ObjectKey {
                            app_id: APP.to_string(),
                            rank: 0,
                            ckpt_id: base,
                        }
                    }
                },
            }
        }
    }
    Pred::Fail
}

#[derive(Default)]
struct Totals {
    checkpoints: u64,
    checkpoints_skipped: u64,
    mid_restores: u64,
    recoveries_local: u64,
    recoveries_partner: u64,
    recoveries_remote: u64,
    unsurvivable: u64,
    corruptions_detected: u64,
    drains_completed: u64,
    drains_cancelled: u64,
    drains_degraded: u64,
    codec_fallbacks: u64,
    ndp_crashes: u64,
    io_retries: u64,
    blocks_retransmitted: u64,
    incremental_drains: u64,
}

impl Totals {
    /// Folds another episode's counters into this accumulator (all
    /// fields are sums, so fold order cannot affect the result).
    fn add(&mut self, o: &Totals) {
        self.checkpoints += o.checkpoints;
        self.checkpoints_skipped += o.checkpoints_skipped;
        self.mid_restores += o.mid_restores;
        self.recoveries_local += o.recoveries_local;
        self.recoveries_partner += o.recoveries_partner;
        self.recoveries_remote += o.recoveries_remote;
        self.unsurvivable += o.unsurvivable;
        self.corruptions_detected += o.corruptions_detected;
        self.drains_completed += o.drains_completed;
        self.drains_cancelled += o.drains_cancelled;
        self.drains_degraded += o.drains_degraded;
        self.codec_fallbacks += o.codec_fallbacks;
        self.ndp_crashes += o.ndp_crashes;
        self.io_retries += o.io_retries;
        self.blocks_retransmitted += o.blocks_retransmitted;
        self.incremental_drains += o.incremental_drains;
    }
}

/// Everything one episode produces, collected so episodes can run on
/// worker threads and be folded into the report in episode order (the
/// fault-log digest and the violations list are order-sensitive).
struct EpisodeOutput {
    totals: Totals,
    violations: Vec<String>,
    site_counts: Vec<u64>,
    /// Bytes this episode contributes to the global fault-log digest
    /// (episode tag line + rendered fault log).
    log: Vec<u8>,
    /// Under `CHAOS_OBS`: per-metric event-count increments.
    event_counts: Vec<(String, u64)>,
}

struct Episode<'a> {
    node: ComputeNode,
    rng: ChaCha8,
    shadow: &'a mut HashMap<u64, Vec<u8>>,
    next_id: u64,
    totals: &'a mut Totals,
    violations: &'a mut Vec<String>,
    tag: u64,
}

impl Episode<'_> {
    /// Bounded NDP pumping; step errors are invariant violations (the
    /// engine degrades through typed stats, it must not error out under
    /// injected faults).
    fn pump(&mut self, steps: u64) {
        for _ in 0..steps {
            match self.node.ndp_step() {
                Ok(StepOutcome::Idle) => return,
                Ok(_) => {}
                Err(e) => {
                    self.violations.push(format!(
                        "episode {}: ndp_step error under faults: {e}",
                        self.tag
                    ));
                    return;
                }
            }
        }
    }

    fn checkpoint(&mut self, data: Vec<u8>) {
        // The node consumes a ckpt id only when the local write lands.
        // It can land and a later stage (e.g. partner replication) still
        // error: that checkpoint IS committed.
        let mut ok = self.node.checkpoint(APP, &data).is_ok();
        if !ok && !self.landed() {
            // Full/locked NVM: let the NDP drain, then retry once.
            self.pump(50_000);
            ok = self.node.checkpoint(APP, &data).is_ok();
        }
        if ok || self.landed() {
            self.totals.checkpoints += 1;
            self.shadow.insert(self.next_id, data);
            self.next_id += 1;
        } else {
            self.totals.checkpoints_skipped += 1;
        }
    }

    /// True once the node's newest local checkpoint carries the id the
    /// next commit would take, i.e. that commit's local write landed.
    fn landed(&self) -> bool {
        self.node
            .nvm()
            .latest(Region::Uncompressed, APP, 0)
            .is_some_and(|s| s.meta.ckpt_id == self.next_id)
    }

    /// A restore's result must be a committed checkpoint, bit-exact —
    /// whatever level served it. Returns the source on success.
    fn check_restore(
        &mut self,
        context: &str,
    ) -> Option<(RestoreSource, u64)> {
        match self.node.restore(APP) {
            Ok(r) => {
                match self.shadow.get(&r.meta.ckpt_id) {
                    Some(expected) if *expected == r.data => {}
                    Some(_) => self.violations.push(format!(
                        "episode {} ({context}): restore of ckpt {} is \
                         not bit-exact",
                        self.tag, r.meta.ckpt_id
                    )),
                    None => self.violations.push(format!(
                        "episode {} ({context}): restore returned \
                         uncommitted ckpt {}",
                        self.tag, r.meta.ckpt_id
                    )),
                }
                Some((r.source, r.meta.ckpt_id))
            }
            Err(NodeError::UnknownApp(a)) => {
                self.violations.push(format!(
                    "episode {} ({context}): app {a} unregistered",
                    self.tag
                ));
                None
            }
            Err(_) => None, // typed failure: acceptable
        }
    }

    fn count_recovery(&mut self, source: RestoreSource) {
        match source {
            RestoreSource::LocalNvm => self.totals.recoveries_local += 1,
            RestoreSource::Partner => self.totals.recoveries_partner += 1,
            RestoreSource::RemoteIo => self.totals.recoveries_remote += 1,
        }
    }

    fn mid_episode_chaos(&mut self) {
        if self.rng.next_u64().is_multiple_of(5) {
            let _ = self.node.tamper_local(APP, 0);
        }
        if self.rng.next_u64().is_multiple_of(8) {
            let _ = self.node.tamper_remote(APP, 0);
        }
        let kind = match self.rng.next_u64() % 10 {
            0..=4 => return, // no failure this round
            5 | 6 => FailureKind::LocalSurvivable,
            7 | 8 => FailureKind::NodeLoss,
            _ => FailureKind::PairLoss,
        };
        self.node.inject_failure(kind);
        self.totals.mid_restores += 1;
        // Restore with the fault plane still armed: read-rot can strike
        // the restore itself and force deeper fallbacks.
        match self.check_restore("mid-episode") {
            Some((source, _)) => self.count_recovery(source),
            None => self.totals.unsurvivable += 1,
        }
    }

    fn finish(&mut self, site_counts: &mut [u64], log: &mut Vec<u8>) {
        // Settle all queued drains (retries/degradations included).
        if let Err(e) = self.node.drain_all() {
            self.violations.push(format!(
                "episode {}: drain_all failed: {e}",
                self.tag
            ));
        }
        // Oracle restore with the plane quiesced: prediction and
        // execution must agree on the serving level, and the data must
        // be the committed image for that level's newest copy.
        self.node.faults_mut().set_active(false);
        let expected = predict(&self.node);
        let actual = self.check_restore("oracle");
        match (&expected, &actual) {
            (Pred::Local(id), Some((RestoreSource::LocalNvm, got)))
            | (Pred::Partner(id), Some((RestoreSource::Partner, got)))
            | (Pred::Remote(id), Some((RestoreSource::RemoteIo, got)))
                if id == got => {}
            (Pred::Fail, None) => {}
            _ => self.violations.push(format!(
                "episode {}: oracle predicted {expected:?}, restore \
                 gave {actual:?}",
                self.tag
            )),
        }
        match actual {
            Some((source, _)) => self.count_recovery(source),
            None => self.totals.unsurvivable += 1,
        }
        // Episode-end hygiene: an idle node must hold no partial remote
        // objects and no spilled blocks.
        if self.node.io().incomplete_count() != 0 {
            self.violations.push(format!(
                "episode {}: partial remote object left behind",
                self.tag
            ));
        }
        if self.node.nvm().used(Region::Compressed) != 0 {
            self.violations.push(format!(
                "episode {}: spill region not reclaimed",
                self.tag
            ));
        }
        // Accounting.
        let stats = self.node.ndp_stats();
        self.totals.drains_completed += stats.drains_completed;
        self.totals.drains_cancelled += stats.drains_cancelled;
        self.totals.drains_degraded += stats.drains_degraded;
        self.totals.codec_fallbacks += stats.codec_fallbacks;
        self.totals.ndp_crashes += stats.ndp_crashes;
        self.totals.io_retries += stats.io_retries;
        self.totals.blocks_retransmitted += stats.blocks_retransmitted;
        self.totals.incremental_drains += stats.incremental_drains;
        self.totals.corruptions_detected += self.node.corruptions_detected();
        for (i, site) in FAULT_SITES.iter().enumerate() {
            site_counts[i] += self.node.faults().count(*site);
        }
        log.extend_from_slice(format!("episode {}\n", self.tag).as_bytes());
        log.extend_from_slice(self.node.faults().render_log().as_bytes());
    }
}

fn run_episode(index: u64, seed: u64, obs: bool) -> EpisodeOutput {
    let mut shadow = HashMap::new();
    let mut totals = Totals::default();
    let mut violations = Vec::new();
    let mut site_counts = vec![0u64; FAULT_SITES.len()];
    let mut log = Vec::new();
    // A private bus per episode, so episodes can run on any worker.
    let bus = if obs {
        Bus::with_sink(VecSink::new())
    } else {
        Bus::disabled()
    };
    let eseed = splitmix(seed ^ splitmix(index));
    let mut rng = ChaCha8::seed_from_u64(eseed ^ 0x5EED_CAFE);
    let partner_ratio = (rng.next_u64() % 3) as u32; // 0 disables
    let codec = match rng.next_u64() % 3 {
        0 => Some(("gz", 1)),
        1 => Some(("lzf", 1)),
        _ => None,
    };
    let policy = if rng.next_u64().is_multiple_of(2) {
        BackpressurePolicy::Pause
    } else {
        BackpressurePolicy::Spill
    };
    let drain_ratio = 1 + (rng.next_u64() % 3) as u32;
    let incremental = if rng.next_u64().is_multiple_of(4) {
        Some(IncrementalPolicy::default())
    } else {
        None
    };
    let p = 0.01 + 0.07 * rng.gen_f64();
    let cfg = NodeConfig {
        partner_ratio,
        codec,
        policy,
        drain_ratio,
        incremental,
        nic_blocks: 4,
        block_size: 64 << 10,
        faults: Some(FaultPlaneConfig::uniform(eseed, p)),
        ..NodeConfig::small_test()
    };
    let mut node = ComputeNode::new(cfg);
    node.register_app(APP);
    node.set_observer(&bus);

    let mut ep = Episode {
        node,
        rng,
        shadow: &mut shadow,
        next_id: 0,
        totals: &mut totals,
        violations: &mut violations,
        tag: index,
    };
    let n_ckpts = 3 + ep.rng.next_u64() % 6;
    for _ in 0..n_ckpts {
        let len = (32 << 10) + (ep.rng.next_u64() % (224 << 10)) as usize;
        let img = make_image(&mut ep.rng, len);
        ep.checkpoint(img);
        let pumps = ep.rng.next_u64() % 120;
        ep.pump(pumps);
        ep.mid_episode_chaos();
    }
    ep.finish(&mut site_counts, &mut log);

    let mut event_counts = Vec::new();
    if obs {
        let mut counts: HashMap<String, u64> = HashMap::new();
        for ev in bus.drain() {
            *counts.entry("events_total".into()).or_default() += 1;
            *counts
                .entry(format!("events_{}", ev.kind.name()))
                .or_default() += 1;
            *counts
                .entry(format!("events_from_{}", ev.source.name()))
                .or_default() += 1;
        }
        event_counts = counts.into_iter().collect();
    }
    EpisodeOutput {
        totals,
        violations,
        site_counts,
        log,
        event_counts,
    }
}

fn main() {
    let opts = Opts::from_env();
    let mut totals = Totals::default();
    let mut violations = Vec::new();
    let mut site_counts = vec![0u64; FAULT_SITES.len()];
    let mut digest = Crc64::new();

    println!(
        "== chaos sweep: {} episodes, seed {} ==",
        opts.episodes, opts.seed
    );
    // Episodes are seeded independently, so they fan out across workers;
    // outputs come back in episode order and are folded sequentially
    // (digest and violations are order-sensitive, counters are sums).
    // CHAOS_OBS gives each episode a private bus whose event counts are
    // folded into one metrics registry in episode order.
    let obs = opts.obs.is_some();
    let indices: Vec<u64> = (0..opts.episodes).collect();
    let outputs = par_map(&indices, |&e| run_episode(e, opts.seed, obs));
    let mut metrics = Metrics::new();
    for (e, out) in outputs.iter().enumerate() {
        totals.add(&out.totals);
        violations.extend(out.violations.iter().cloned());
        for (i, c) in out.site_counts.iter().enumerate() {
            site_counts[i] += c;
        }
        digest.update(&out.log);
        for (key, n) in &out.event_counts {
            metrics.inc(key, *n);
        }
        if (e as u64 + 1).is_multiple_of(100) {
            println!("  {}/{} episodes", e + 1, opts.episodes);
        }
    }
    if let Some(path) = &opts.obs {
        metrics.gauge("episodes", opts.episodes as f64);
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create metrics dir");
            }
        }
        std::fs::write(path, metrics.to_json("bench_chaos"))
            .expect("write metrics");
        println!("wrote {}", path.display());
    }

    let total_faults: u64 = site_counts.iter().sum();
    let all_sites_fired = site_counts.iter().all(|&c| c > 0);
    println!(
        "faults injected: {total_faults} across {} sites",
        FAULT_SITES.len()
    );
    for (i, site) in FAULT_SITES.iter().enumerate() {
        println!("  {:16} {}", site.name(), site_counts[i]);
    }
    println!(
        "recoveries: local {} partner {} remote {}  unsurvivable {}",
        totals.recoveries_local,
        totals.recoveries_partner,
        totals.recoveries_remote,
        totals.unsurvivable
    );
    println!(
        "degradations: cancelled {} degraded {} codec-fallback {}  \
         crashes survived {}",
        totals.drains_cancelled,
        totals.drains_degraded,
        totals.codec_fallbacks,
        totals.ndp_crashes
    );
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    println!("invariant violations: {}", violations.len());

    let doc = Value::Obj(vec![
        ("schema".into(), Value::str("chaos/v1")),
        (
            "config".into(),
            Value::Obj(vec![
                ("episodes".into(), Value::Num(opts.episodes as f64)),
                ("seed".into(), Value::Num(opts.seed as f64)),
            ]),
        ),
        (
            "faults".into(),
            Value::Obj(
                FAULT_SITES
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        (s.name().to_string(), Value::Num(site_counts[i] as f64))
                    })
                    .collect(),
            ),
        ),
        ("total_faults".into(), Value::Num(total_faults as f64)),
        ("all_sites_fired".into(), Value::Bool(all_sites_fired)),
        (
            "recoveries".into(),
            Value::Obj(vec![
                (
                    "local".into(),
                    Value::Num(totals.recoveries_local as f64),
                ),
                (
                    "partner".into(),
                    Value::Num(totals.recoveries_partner as f64),
                ),
                (
                    "remote".into(),
                    Value::Num(totals.recoveries_remote as f64),
                ),
                (
                    "unsurvivable".into(),
                    Value::Num(totals.unsurvivable as f64),
                ),
            ]),
        ),
        (
            "degradations".into(),
            Value::Obj(vec![
                (
                    "drains_cancelled".into(),
                    Value::Num(totals.drains_cancelled as f64),
                ),
                (
                    "drains_degraded".into(),
                    Value::Num(totals.drains_degraded as f64),
                ),
                (
                    "codec_fallbacks".into(),
                    Value::Num(totals.codec_fallbacks as f64),
                ),
                (
                    "ndp_crashes".into(),
                    Value::Num(totals.ndp_crashes as f64),
                ),
                ("io_retries".into(), Value::Num(totals.io_retries as f64)),
                (
                    "blocks_retransmitted".into(),
                    Value::Num(totals.blocks_retransmitted as f64),
                ),
            ]),
        ),
        (
            "activity".into(),
            Value::Obj(vec![
                (
                    "checkpoints".into(),
                    Value::Num(totals.checkpoints as f64),
                ),
                (
                    "checkpoints_skipped".into(),
                    Value::Num(totals.checkpoints_skipped as f64),
                ),
                (
                    "mid_episode_failures".into(),
                    Value::Num(totals.mid_restores as f64),
                ),
                (
                    "drains_completed".into(),
                    Value::Num(totals.drains_completed as f64),
                ),
                (
                    "incremental_drains".into(),
                    Value::Num(totals.incremental_drains as f64),
                ),
                (
                    "corruptions_detected".into(),
                    Value::Num(totals.corruptions_detected as f64),
                ),
            ]),
        ),
        // Derived health indicators, folded from the chaos totals (NOT
        // from the observability bus, so the report stays byte-identical
        // whether CHAOS_OBS is set or not — a property CI checks).
        (
            "indicators".into(),
            Value::Obj(vec![
                (
                    "drain_completion_fraction".into(),
                    Value::Num(frac(
                        totals.drains_completed,
                        totals.drains_completed + totals.drains_cancelled,
                    )),
                ),
                (
                    "drain_degrade_fraction".into(),
                    Value::Num(frac(
                        totals.drains_degraded,
                        totals.drains_completed + totals.drains_degraded,
                    )),
                ),
                (
                    "faults_per_episode".into(),
                    Value::Num(total_faults as f64 / opts.episodes as f64),
                ),
                (
                    "io_retries_per_fault".into(),
                    Value::Num(frac(totals.io_retries, total_faults)),
                ),
                (
                    "recovery_success_fraction".into(),
                    Value::Num(frac(
                        totals.recoveries_local
                            + totals.recoveries_partner
                            + totals.recoveries_remote,
                        totals.recoveries_local
                            + totals.recoveries_partner
                            + totals.recoveries_remote
                            + totals.unsurvivable,
                    )),
                ),
            ]),
        ),
        (
            "fault_log_digest".into(),
            Value::str(format!("{:016x}", digest.finish())),
        ),
        (
            "invariant_violations".into(),
            Value::Num(violations.len() as f64),
        ),
        (
            "violations".into(),
            Value::Arr(violations.iter().map(Value::str).collect()),
        ),
    ]);

    if let Some(dir) = opts.out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(&opts.out, doc.render()).expect("write report");
    println!("wrote {}", opts.out.display());

    if !violations.is_empty() {
        std::process::exit(1);
    }
    if opts.episodes >= 500 && !all_sites_fired {
        println!("FAIL: full-size sweep left fault sites unexercised");
        std::process::exit(1);
    }
}
