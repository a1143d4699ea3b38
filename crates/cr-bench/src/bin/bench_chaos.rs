//! `bench_chaos` — deterministic chaos sweep over the functional
//! compute node.
//!
//! Runs N seeded episodes. Each episode builds a randomly-configured
//! [`ComputeNode`] (partner level, codec, backpressure policy, drain
//! ratio, incremental drains) with an armed fault plane, then interleaves
//! checkpoints, NDP pumping, mid-episode failures/tampering and restores,
//! recording every committed checkpoint image in the restore oracle.
//!
//! Every check is made by the restore oracle, [`cr_bench::oracle`]: a
//! restore either returns a **committed checkpoint bit-exactly** from the
//! best surviving level (local NVM → partner → remote I/O, each level
//! serving its newest intact copy), or a **typed error** — never a panic,
//! never stale or torn data. The final restore of each episode must match
//! the oracle's prediction from the node's storage state (with the fault
//! plane quiesced so the prediction itself cannot be perturbed). No delta
//! may be sealed before its base (checked after every pump), and the idle
//! node at the end of an episode must hold no locked slot, no spilled
//! block, no partial remote object and nothing in the NIC.
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
//! sweeps (≥ 500 episodes) — if any fault site never fired or no
//! incremental drain shipped a delta.

use std::collections::HashMap;
use std::path::PathBuf;

use cr_bench::oracle::{Oracle, Prediction};
use cr_bench::{env_or, write_report};
use cr_core::par::par_map;
use cr_node::faults::{FaultPlaneConfig, FAULT_SITES};
use cr_node::integrity::Crc64;
use cr_node::ndp::{BackpressurePolicy, IncrementalPolicy, StepOutcome};
use cr_node::node::{ComputeNode, FailureKind, NodeConfig, RestoreSource};
use cr_node::nvm::Region;
use cr_obs::analyze::IndicatorReport;
use cr_obs::json::Value;
use cr_obs::{Bus, VecSink};
use cr_rand::ChaCha8;

const APP: &str = "chaos";

struct Opts {
    episodes: u64,
    seed: u64,
    out: PathBuf,
    /// `CHAOS_OBS`: where to write an `indicators/v1` snapshot of every
    /// episode's bus events. The bus observes, never perturbs: the
    /// report stays byte-identical either way.
    obs: Option<PathBuf>,
}

impl Opts {
    fn from_env() -> Self {
        Opts {
            episodes: env_or("CHAOS_EPISODES", 500u64).max(1),
            seed: env_or("CHAOS_SEED", 7),
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

/// An incremental episode's next image: the previous one, same length,
/// with a run of 1/32 of it rewritten, so a drain can ship a delta
/// (a delta needs a base of the same length).
fn rewrite(rng: &mut ChaCha8, img: &mut [u8]) {
    let run = img.len() / 32;
    let at = (rng.next_u64() % (img.len() - run) as u64) as usize;
    for chunk in img[at..at + run].chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
}

/// A JSON object of numbers, in the given order.
fn obj<const N: usize>(fields: [(&str, f64); N]) -> Value {
    Value::Obj(Vec::from(fields.map(|(k, n)| (k.to_string(), Value::Num(n)))))
}

/// Declares `Totals`: the sweep's `u64` counters, folded by summing.
macro_rules! totals {
    ($($field:ident),* $(,)?) => {
        #[derive(Default)]
        struct Totals {
            $($field: u64,)*
        }

        impl Totals {
            /// Folds another episode's counters into this accumulator
            /// (all fields are sums, so fold order cannot affect the
            /// result).
            fn add(&mut self, o: &Totals) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

totals!(
    checkpoints, checkpoints_skipped, mid_restores, recoveries_local,
    recoveries_partner, recoveries_remote, unsurvivable, corruptions_detected,
    drains_completed, drains_cancelled, drains_degraded, codec_fallbacks,
    ndp_crashes, io_retries, blocks_retransmitted, incremental_drains,
);

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

struct Episode {
    node: ComputeNode,
    rng: ChaCha8,
    oracle: Oracle,
    next_id: u64,
    totals: Totals,
    violations: Vec<String>,
    tag: u64,
}

impl Episode {
    /// Records what a check found, tagged with the episode and context.
    fn flag(&mut self, context: &str, found: impl IntoIterator<Item = String>) {
        let tag = self.tag;
        self.violations.extend(
            found
                .into_iter()
                .map(|v| format!("episode {tag} ({context}): {v}")),
        );
    }

    /// Bounded NDP pumping; step errors are invariant violations (the
    /// engine degrades through typed stats, it must not error out under
    /// injected faults). No delta may be sealed before its base.
    fn pump(&mut self, steps: u64) {
        for _ in 0..steps {
            match self.node.ndp_step() {
                Ok(StepOutcome::Idle) => break,
                Ok(_) => {}
                Err(e) => {
                    let v = format!("ndp_step error under faults: {e}");
                    self.flag("pump", [v]);
                    break;
                }
            }
        }
        let found = self.oracle.check_seal_order(self.node.io());
        self.flag("pump", found);
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
            self.oracle.commit(self.next_id, data);
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

    /// Restores, checks the result against the oracle (and against its
    /// prediction, when one is given) and counts the serving level, or
    /// an unsurvivable failure.
    fn restore(&mut self, context: &str, predicted: Option<Prediction>) {
        let got = self.node.restore(APP);
        let found = self.oracle.check_restore(&got, predicted);
        self.flag(context, found);
        match got.map(|r| r.source) {
            Ok(RestoreSource::LocalNvm) => self.totals.recoveries_local += 1,
            Ok(RestoreSource::Partner) => self.totals.recoveries_partner += 1,
            Ok(RestoreSource::RemoteIo) => self.totals.recoveries_remote += 1,
            Err(_) => self.totals.unsurvivable += 1,
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
        self.restore("mid-episode", None);
    }

    fn finish(mut self) -> EpisodeOutput {
        // Settle all queued drains (retries/degradations included); the
        // idle node must then hold nothing in flight.
        if let Err(e) = self.node.drain_all() {
            self.flag("finish", [format!("drain_all failed: {e}")]);
        }
        let mut found = self.oracle.check_idle(&self.node);
        found.extend(self.oracle.check_seal_order(self.node.io()));
        self.flag("finish", found);
        // Oracle restore with the plane quiesced: prediction and
        // execution must agree on the serving level and id.
        self.node.faults_mut().set_active(false);
        let predicted = self.oracle.predict(&self.node);
        self.restore("oracle", Some(predicted));
        // Accounting.
        let stats = self.node.ndp_stats();
        let t = &mut self.totals;
        t.drains_completed += stats.drains_completed;
        t.drains_cancelled += stats.drains_cancelled;
        t.drains_degraded += stats.drains_degraded;
        t.codec_fallbacks += stats.codec_fallbacks;
        t.ndp_crashes += stats.ndp_crashes;
        t.io_retries += stats.io_retries;
        t.blocks_retransmitted += stats.blocks_retransmitted;
        t.incremental_drains += stats.incremental_drains;
        t.corruptions_detected += self.node.corruptions_detected();
        let faults = self.node.faults();
        let mut log = format!("episode {}\n", self.tag).into_bytes();
        log.extend_from_slice(faults.render_log().as_bytes());
        EpisodeOutput {
            site_counts: FAULT_SITES.iter().map(|&s| faults.count(s)).collect(),
            log,
            totals: self.totals,
            violations: self.violations,
            event_counts: Vec::new(),
        }
    }
}

fn run_episode(index: u64, seed: u64, obs: bool) -> EpisodeOutput {
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
        oracle: Oracle::new(APP),
        next_id: 0,
        totals: Totals::default(),
        violations: Vec::new(),
        tag: index,
    };
    let n_ckpts = 3 + ep.rng.next_u64() % 6;
    let mut img = Vec::new();
    for _ in 0..n_ckpts {
        if incremental.is_some() && !img.is_empty() {
            rewrite(&mut ep.rng, &mut img);
        } else {
            let len = (32 << 10) + (ep.rng.next_u64() % (224 << 10)) as usize;
            img = make_image(&mut ep.rng, len);
        }
        ep.checkpoint(img.clone());
        let pumps = ep.rng.next_u64() % 120;
        ep.pump(pumps);
        ep.mid_episode_chaos();
    }
    let mut out = ep.finish();

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
        out.event_counts = counts.into_iter().collect();
    }
    out
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
    // folded into one report in episode order.
    let obs = opts.obs.is_some();
    let indices: Vec<u64> = (0..opts.episodes).collect();
    let outputs = par_map(&indices, |&e| run_episode(e, opts.seed, obs));
    let mut metrics = IndicatorReport::new("bench_chaos");
    for (e, out) in outputs.iter().enumerate() {
        totals.add(&out.totals);
        violations.extend(out.violations.iter().cloned());
        for (i, c) in out.site_counts.iter().enumerate() {
            site_counts[i] += c;
        }
        digest.update(&out.log);
        for (key, n) in &out.event_counts {
            metrics.add(key, *n as f64);
        }
        if (e as u64 + 1).is_multiple_of(100) {
            println!("  {}/{} episodes", e + 1, opts.episodes);
        }
    }
    if let Some(path) = &opts.obs {
        metrics.set("episodes", opts.episodes as f64);
        write_report(path, &metrics.to_json());
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
    let t = &totals;
    println!(
        "recoveries: local {} partner {} remote {}  unsurvivable {}",
        t.recoveries_local,
        t.recoveries_partner,
        t.recoveries_remote,
        t.unsurvivable
    );
    println!(
        "degradations: cancelled {} degraded {} codec-fallback {}  \
         crashes survived {}",
        t.drains_cancelled, t.drains_degraded, t.codec_fallbacks, t.ndp_crashes
    );
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    println!("invariant violations: {}", violations.len());

    let recovered =
        t.recoveries_local + t.recoveries_partner + t.recoveries_remote;
    let doc = Value::Obj(vec![
        ("schema".into(), Value::str("chaos/v1")),
        (
            "config".into(),
            obj([
                ("episodes", opts.episodes as f64),
                ("seed", opts.seed as f64),
            ]),
        ),
        (
            "faults".into(),
            Value::Obj(
                FAULT_SITES
                    .iter()
                    .zip(&site_counts)
                    .map(|(s, &n)| (s.name().to_string(), Value::Num(n as f64)))
                    .collect(),
            ),
        ),
        ("total_faults".into(), Value::Num(total_faults as f64)),
        ("all_sites_fired".into(), Value::Bool(all_sites_fired)),
        (
            "recoveries".into(),
            obj([
                ("local", t.recoveries_local as f64),
                ("partner", t.recoveries_partner as f64),
                ("remote", t.recoveries_remote as f64),
                ("unsurvivable", t.unsurvivable as f64),
            ]),
        ),
        (
            "degradations".into(),
            obj([
                ("drains_cancelled", t.drains_cancelled as f64),
                ("drains_degraded", t.drains_degraded as f64),
                ("codec_fallbacks", t.codec_fallbacks as f64),
                ("ndp_crashes", t.ndp_crashes as f64),
                ("io_retries", t.io_retries as f64),
                ("blocks_retransmitted", t.blocks_retransmitted as f64),
            ]),
        ),
        (
            "activity".into(),
            obj([
                ("checkpoints", t.checkpoints as f64),
                ("checkpoints_skipped", t.checkpoints_skipped as f64),
                ("mid_episode_failures", t.mid_restores as f64),
                ("drains_completed", t.drains_completed as f64),
                ("incremental_drains", t.incremental_drains as f64),
                ("corruptions_detected", t.corruptions_detected as f64),
            ]),
        ),
        // Derived health indicators, folded from the chaos totals (NOT
        // from the observability bus, so the report stays byte-identical
        // whether CHAOS_OBS is set or not — a property CI checks).
        (
            "indicators".into(),
            obj([
                (
                    "drain_completion_fraction",
                    frac(
                        t.drains_completed,
                        t.drains_completed + t.drains_cancelled,
                    ),
                ),
                (
                    "drain_degrade_fraction",
                    frac(
                        t.drains_degraded,
                        t.drains_completed + t.drains_degraded,
                    ),
                ),
                (
                    "faults_per_episode",
                    total_faults as f64 / opts.episodes as f64,
                ),
                ("io_retries_per_fault", frac(t.io_retries, total_faults)),
                (
                    "recovery_success_fraction",
                    frac(recovered, recovered + t.unsurvivable),
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

    write_report(&opts.out, &doc.render());

    if !violations.is_empty() {
        std::process::exit(1);
    }
    if opts.episodes >= 500 && !all_sites_fired {
        println!("FAIL: full-size sweep left fault sites unexercised");
        std::process::exit(1);
    }
    if opts.episodes >= 500 && t.incremental_drains == 0 {
        println!("FAIL: full-size sweep shipped no incremental delta");
        std::process::exit(1);
    }
}
