//! The closed-loop harness shared by every workload: repeated set-up,
//! the timed round loop, call timing with optional spans, sample
//! storage, the correctness tally, and the span analysis of a traced
//! run.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use cr_obs::{Bus, EventKind, Source, SpanGuard, VecSink};

/// Knobs of one benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: images, mutations and simulator replicas derive
    /// from it.
    pub seed: u64,
    /// Measured time: rounds start while less than this has elapsed.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Size of every node workload image, bytes.
    pub image_bytes: usize,
    /// Rounds run even when `seconds` has elapsed.
    pub min_rounds: usize,
    /// Rounds never exceeded (the self-test pins the work done).
    pub max_rounds: usize,
    /// Flip one byte of the benchmark's expected copy of every image
    /// (self-test of the oracle: every restore must then be flagged).
    pub tamper_expected: bool,
}

impl Config {
    /// The sizes the benchmark runs with.
    pub fn standard(seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            seed,
            seconds,
            trace,
            image_bytes: 4 << 20,
            // A traced run alternates untraced and traced rounds.
            min_rounds: if trace { 4 } else { 2 },
            max_rounds: usize::MAX,
            tamper_expected: false,
        }
    }

    /// Small images and a fixed round count, for the self-test.
    pub fn tiny(seed: u64, trace: bool) -> Self {
        Config {
            image_bytes: 512 << 10,
            // Six rounds: `ckpt_local` evicts from its 17th checkpoint.
            min_rounds: 6,
            max_rounds: 6,
            ..Config::standard(seed, 0.0, trace)
        }
    }
}

/// Result of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that erred or failed their check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Reported metrics: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Everything else worth reading next to the metrics (design-level
    /// metric names with sample counts, per-layer self time and bytes,
    /// run metadata), rendered as one JSON object.
    pub detail: String,
    /// The Chrome trace of a traced run.
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// No operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Looks a reported metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted values;
/// `0.0` when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted values; `0.0` when there are none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or `0.0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Samples and counters of one run, split by whether the round that
/// produced them was traced.
#[derive(Debug, Default)]
pub struct Store {
    /// Named samples (times in the unit their name says).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Named accumulators.
    pub sums: BTreeMap<&'static str, f64>,
}

impl Store {
    /// All samples under `key` (empty when none).
    pub fn get(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples under `key`.
    pub fn p50(&self, key: &str) -> f64 {
        median(self.get(key))
    }

    /// Accumulated value under `key` (`0.0` when never added).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }
}

/// An open timed section: a contiguous group of timed calls.
pub struct Section {
    span: SpanGuard,
    t0: f64,
}

/// Per-run state handed to a workload's rounds.
pub struct Ctx {
    bus: Bus,
    origin: Instant,
    tracing: bool,
    /// Rounds run with tracing off.
    pub plain: Store,
    /// Rounds run with tracing on.
    pub traced: Store,
    /// Bytes handled per span name (traced rounds).
    pub bytes: BTreeMap<&'static str, u64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that erred or failed their check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Ctx {
    fn new(trace: bool) -> Self {
        Ctx {
            bus: if trace {
                Bus::with_sink(VecSink::new())
            } else {
                Bus::disabled()
            },
            origin: Instant::now(),
            tracing: false,
            plain: Store::default(),
            traced: Store::default(),
            bytes: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Whether the current round is traced.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Seconds since the run's origin (the span clock).
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// The store of the current round.
    fn store(&mut self) -> &mut Store {
        if self.tracing {
            &mut self.traced
        } else {
            &mut self.plain
        }
    }

    /// Records one sample in the current round's store.
    pub fn sample(&mut self, key: &'static str, value: f64) {
        self.store().samples.entry(key).or_default().push(value);
    }

    /// Adds to an accumulator of the current round's store.
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.store().sums.entry(key).or_default() += value;
    }

    /// Times one public call. In a traced round the call becomes a leaf
    /// span named `name` (its layer is the part before the first dot),
    /// parented under the open section, if any.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.call_named(f, |_| name)
    }

    /// Like [`Ctx::call`], but the span name is chosen from the call's
    /// result (the NDP step kinds are only known afterwards); the span
    /// is emitted once the call has returned, with the call's times.
    pub fn call_named<R>(
        &mut self,
        f: impl FnOnce() -> R,
        name: impl FnOnce(&R) -> &'static str,
    ) -> (R, f64) {
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        if self.tracing {
            self.bus.span_leaf(Source::Bench, name(&r), t0).close(t1);
        }
        (r, t1 - t0)
    }

    /// Counts bytes handled under a span name (traced rounds only).
    pub fn count_bytes(&mut self, name: &'static str, n: usize) {
        if self.tracing {
            *self.bytes.entry(name).or_default() += n as u64;
        }
    }

    /// Opens a timed section; calls made before [`Ctx::end`] are its
    /// children in the trace.
    pub fn begin(&mut self, name: &'static str) -> Section {
        let t0 = self.now();
        let span = if self.tracing {
            self.bus.span(Source::Bench, name, t0)
        } else {
            Bus::disabled().span(Source::Bench, name, t0)
        };
        Section { span, t0 }
    }

    /// Closes a section; returns its wall seconds.
    pub fn end(&mut self, mut section: Section) -> f64 {
        let t1 = self.now();
        section.span.close(t1);
        t1 - section.t0
    }

    /// Tallies one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// What [`drive`] hands back to a workload for reporting.
pub struct Driven {
    /// Run state: samples, counters, tally.
    pub ctx: Ctx,
    /// Wall seconds of each set-up.
    pub setups: Vec<f64>,
    /// Rounds run.
    pub rounds: usize,
    /// Span analysis and Chrome trace (traced runs).
    pub layers: Option<LayerReport>,
}

/// Set-ups timed before the first round. The first one of a process
/// faults its memory in and is slower than the rest.
const MIN_SETUPS: usize = 5;
/// Set-ups timed between rounds, spread evenly over the measured time,
/// so `setup_s` sees the same machine conditions as the rounds do.
const SPREAD_SETUPS: f64 = 20.0;
/// A set-up faster than this is timed in batches of this length, so the
/// clock's resolution and overhead do not dominate it.
const SETUP_BATCH_S: f64 = 1e-3;

/// Sets the workload up `MIN_SETUPS` times (keeping the last), then
/// runs rounds until `cfg.seconds` have elapsed, timing one more set-up
/// (discarded) every `1 / SPREAD_SETUPS` of the run; `setup_s` is the
/// median. In a traced run every other round is traced, so one process
/// measures both sides of the tracing overhead.
pub fn drive<W>(
    cfg: &Config,
    mut setup: impl FnMut() -> W,
    mut round: impl FnMut(&mut W, &mut Ctx),
) -> Driven {
    let t0 = Instant::now();
    let mut state = setup();
    let first = t0.elapsed().as_secs_f64();
    let batch = if first < SETUP_BATCH_S {
        (SETUP_BATCH_S / first.max(1e-9)).ceil().min(1e5) as usize
    } else {
        1
    };
    // Seconds per set-up of one batch, and the last set-up made. Within
    // a batch each set-up replaces (drops) the one before, so a batch
    // holds one set-up's memory, not `batch` of them.
    let timed = |setup: &mut dyn FnMut() -> W| {
        let t0 = Instant::now();
        let mut made = std::hint::black_box(setup());
        for _ in 1..batch {
            made = std::hint::black_box(setup());
        }
        (t0.elapsed().as_secs_f64() / batch as f64, made)
    };
    let mut setups = if batch == 1 { vec![first] } else { Vec::new() };
    while setups.len() < MIN_SETUPS {
        drop(state); // free the previous copy first: memory stays flat
        let (dt, made) = timed(&mut setup);
        setups.push(dt);
        state = made;
    }
    let mut ctx = Ctx::new(cfg.trace);
    let start = Instant::now();
    let setup_every = cfg.seconds / SPREAD_SETUPS;
    let mut rounds = 0;
    while rounds < cfg.max_rounds
        && (rounds < cfg.min_rounds || start.elapsed().as_secs_f64() < cfg.seconds)
    {
        ctx.tracing = cfg.trace && rounds % 2 == 1;
        round(&mut state, &mut ctx);
        rounds += 1;
        let due = setup_every * (setups.len() + 1 - MIN_SETUPS) as f64;
        if setup_every > 0.0 && start.elapsed().as_secs_f64() >= due {
            setups.push(timed(&mut setup).0);
        }
    }
    ctx.tracing = false;
    let layers = cfg
        .trace
        .then(|| LayerReport::from_events(&ctx.bus.drain()));
    Driven {
        ctx,
        setups,
        rounds,
        layers,
    }
}

/// Self time of one layer, split by where its spans sat.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    /// Self seconds of spans inside timed sections.
    pub timed_s: f64,
    /// Self seconds of replay spans (outside the timed sections).
    pub replay_s: f64,
    /// Spans seen.
    pub spans: u64,
}

/// The span analysis of a traced run.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Per-layer self time, keyed by layer (span name up to the first
    /// dot; timed sections are layer `bench`).
    pub layers: BTreeMap<String, LayerTime>,
    /// Self seconds per span name.
    pub names: BTreeMap<&'static str, f64>,
    /// Total wall seconds of the timed sections.
    pub timed_s: f64,
    /// Timed-section seconds covered by no layer span.
    pub unattributed_s: f64,
    /// The Chrome trace of the events.
    pub chrome: String,
    /// `validate_chrome_trace` verdict.
    pub chrome_valid: Result<(), String>,
}

impl LayerReport {
    fn from_events(events: &[cr_obs::Event]) -> Self {
        struct Open {
            name: &'static str,
            parent: u64,
            t0: f64,
        }
        let mut open: HashMap<u64, Open> = HashMap::new();
        let mut closed: Vec<(u64, &'static str, u64, f64)> = Vec::new();
        for e in events {
            match e.kind {
                EventKind::SpanOpen { id, parent, name } => {
                    open.insert(
                        id,
                        Open {
                            name,
                            parent,
                            t0: e.t,
                        },
                    );
                }
                EventKind::SpanClose { id } => {
                    if let Some(o) = open.remove(&id) {
                        closed.push((id, o.name, o.parent, e.t - o.t0));
                    }
                }
                _ => {}
            }
        }
        let mut child_s: HashMap<u64, f64> = HashMap::new();
        for &(_, _, parent, dur) in &closed {
            if parent != 0 {
                *child_s.entry(parent).or_default() += dur;
            }
        }
        let mut layers: BTreeMap<String, LayerTime> = BTreeMap::new();
        let mut names: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut timed_s, mut unattributed_s) = (0.0, 0.0);
        for &(id, name, parent, dur) in &closed {
            let self_s = dur - child_s.get(&id).copied().unwrap_or(0.0);
            let layer = name.split('.').next().unwrap_or(name);
            let entry = layers.entry(layer.to_string()).or_default();
            entry.spans += 1;
            if layer == "bench" {
                timed_s += dur;
                unattributed_s += self_s;
                entry.timed_s += self_s;
            } else if parent != 0 {
                entry.timed_s += self_s;
            } else {
                entry.replay_s += self_s;
            }
            *names.entry(name).or_default() += self_s;
        }
        let chrome = cr_obs::export::chrome_trace(events);
        let chrome_valid = cr_obs::export::validate_chrome_trace(&chrome);
        LayerReport {
            layers,
            names,
            timed_s,
            unattributed_s,
            chrome,
            chrome_valid,
        }
    }

    /// Share of the timed wall time a layer's in-section spans cover.
    pub fn share(&self, layer: &str) -> f64 {
        let t = self.layers.get(layer).map_or(0.0, |l| l.timed_s);
        ratio(t, self.timed_s)
    }

    /// Self seconds of every span with this exact name.
    pub fn name_s(&self, name: &str) -> f64 {
        self.names.get(name).copied().unwrap_or(0.0)
    }
}
