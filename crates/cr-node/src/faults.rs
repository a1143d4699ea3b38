//! Deterministic fault-injection plane.
//!
//! The paper's argument (§6.1.1) is that multilevel C/R survives
//! failures cheaply; this module supplies the failures. A [`FaultPlane`]
//! is a seeded ChaCha8-driven injector that the node threads through
//! every I/O site it owns: NVM commits and reads, the NDP drain engine,
//! the NIC, and the remote I/O node. Each potential fault site consults
//! the plane with [`FaultPlane::fire`]; the plane draws from its stream,
//! records every fault it injects (site + logical step), and is fully
//! deterministic in its seed — a chaos episode replays bit-exactly.
//! How the drain engine survives the injected faults (bounded retries,
//! backoff, degradation) lives with the engine in [`crate::ndp`].

use std::fmt;

use cr_obs::{Bus, Event, EventKind, Source};
use cr_rand::ChaCha8;

/// Every site where the plane can inject a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Host NVM commit is torn: the stored payload is damaged after the
    /// commit-time checksum was taken (detected at restore time).
    NvmTornWrite,
    /// Silent NVM bit-rot discovered when a restore reads the slot.
    NvmReadRot,
    /// NIC transiently refuses traffic for one engine step.
    NicStall,
    /// An in-flight NIC transfer is dropped; the block must be
    /// retransmitted.
    NicDrop,
    /// Transient remote error on `IoNode::begin`.
    IoBegin,
    /// Transient remote error on `IoNode::append_block`.
    IoAppend,
    /// Transient remote error on `IoNode::finalize`.
    IoFinalize,
    /// The I/O node crashes before finalizing: the partial remote object
    /// is lost and the drain must be re-driven from scratch.
    IoCrash,
    /// The NDP engine crashes mid-drain: all in-flight drain work is
    /// lost (slots stay locked) and must be re-driven idempotently.
    NdpCrash,
    /// A partner-replication transfer is silently lost.
    PartnerLoss,
    /// The NDP codec fails on a block; the engine degrades to an
    /// uncompressed drain.
    CodecFault,
}

/// All fault sites, in a stable order (report/log schema order).
pub const FAULT_SITES: [FaultSite; 11] = [
    FaultSite::NvmTornWrite,
    FaultSite::NvmReadRot,
    FaultSite::NicStall,
    FaultSite::NicDrop,
    FaultSite::IoBegin,
    FaultSite::IoAppend,
    FaultSite::IoFinalize,
    FaultSite::IoCrash,
    FaultSite::NdpCrash,
    FaultSite::PartnerLoss,
    FaultSite::CodecFault,
];

impl FaultSite {
    /// Stable machine-readable name (report keys, fault-log lines).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::NvmTornWrite => "nvm_torn_write",
            FaultSite::NvmReadRot => "nvm_read_rot",
            FaultSite::NicStall => "nic_stall",
            FaultSite::NicDrop => "nic_drop",
            FaultSite::IoBegin => "io_begin",
            FaultSite::IoAppend => "io_append",
            FaultSite::IoFinalize => "io_finalize",
            FaultSite::IoCrash => "io_crash",
            FaultSite::NdpCrash => "ndp_crash",
            FaultSite::PartnerLoss => "partner_loss",
            FaultSite::CodecFault => "codec_fault",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        FAULT_SITES
            .iter()
            .position(|s| *s == self)
            .expect("site in table")
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-site fault probabilities plus the seed of the injection stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlaneConfig {
    /// Seed of the ChaCha8 stream driving all injection draws.
    pub seed: u64,
    probs: [f64; FAULT_SITES.len()],
}

impl FaultPlaneConfig {
    /// All-sites-disabled configuration.
    pub fn disabled(seed: u64) -> Self {
        FaultPlaneConfig {
            seed,
            probs: [0.0; FAULT_SITES.len()],
        }
    }

    /// Same probability at every site.
    pub fn uniform(seed: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        FaultPlaneConfig {
            seed,
            probs: [p; FAULT_SITES.len()],
        }
    }

    /// Builder: sets the probability of one site.
    pub fn with(mut self, site: FaultSite, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.probs[site.idx()] = p;
        self
    }

    /// Probability configured for a site.
    pub fn prob(&self, site: FaultSite) -> f64 {
        self.probs[site.idx()]
    }
}

/// One injected fault, as recorded in the fault log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Where the fault was injected.
    pub site: FaultSite,
    /// Logical step (plane tick counter) at which it fired.
    pub step: u64,
}

/// The seeded, deterministic fault injector.
///
/// Sites call [`FaultPlane::fire`]; the plane draws one uniform variate
/// per *armed* site consulted (sites with probability zero draw nothing,
/// so a disabled plane is free and perturbs no stream). Every injected
/// fault is appended to the log, making a run replayable bit-exactly
/// from `(config, seed)`.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    cfg: FaultPlaneConfig,
    rng: ChaCha8,
    step: u64,
    active: bool,
    log: Vec<FaultEvent>,
    counts: [u64; FAULT_SITES.len()],
    /// Observability bus: every fired fault is mirrored onto it, so one
    /// sink sees the unified stream the ad-hoc fault log used to hold
    /// alone. Disabled by default; see [`FaultPlane::set_bus`].
    bus: Bus,
}

impl FaultPlane {
    /// Builds a plane from a configuration.
    pub fn new(cfg: FaultPlaneConfig) -> Self {
        FaultPlane {
            rng: ChaCha8::seed_from_u64(cfg.seed),
            cfg,
            step: 0,
            active: true,
            log: Vec::new(),
            counts: [0; FAULT_SITES.len()],
            bus: Bus::disabled(),
        }
    }

    /// Attaches an observability bus. Every fault the plane injects is
    /// emitted as an [`EventKind::Fault`] (in addition to the internal
    /// log, whose replay format is unchanged).
    pub fn set_bus(&mut self, bus: Bus) {
        self.bus = bus;
    }

    /// A plane that never fires (the default for production configs).
    pub fn disabled() -> Self {
        Self::new(FaultPlaneConfig::disabled(0))
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultPlaneConfig {
        &self.cfg
    }

    /// Advances the logical step counter (one engine step = one tick).
    pub fn tick(&mut self) {
        self.step += 1;
    }

    /// Current logical step.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Arms or quiesces the plane. A quiesced plane neither draws nor
    /// fires — chaos harnesses quiesce it for their oracle restores.
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// Consults the plane at a site: returns true if a fault fires.
    /// Disabled sites (probability 0) and quiesced planes never draw, so
    /// they do not perturb the stream.
    pub fn fire(&mut self, site: FaultSite) -> bool {
        let p = self.cfg.probs[site.idx()];
        if !self.active || p <= 0.0 {
            return false;
        }
        if self.rng.gen_f64() < p {
            self.counts[site.idx()] += 1;
            self.log.push(FaultEvent {
                site,
                step: self.step,
            });
            self.bus.emit_with(|| Event {
                t: self.step as f64,
                source: Source::Faults,
                kind: EventKind::Fault {
                    site: site.name(),
                    step: self.step,
                },
            });
            true
        } else {
            false
        }
    }

    /// Deterministic index draw in `[0, len)` (byte positions for
    /// bit-rot / torn-write damage). Returns 0 for empty ranges.
    pub fn draw_index(&mut self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (self.rng.next_u64() % len as u64) as usize
    }

    /// Times a site has fired.
    pub fn count(&self, site: FaultSite) -> u64 {
        self.counts[site.idx()]
    }

    /// Total faults injected across all sites.
    pub fn total_fired(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The full fault log, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Renders the fault log as stable text (`seed`, then one
    /// `step site` line per fault) — byte-identical across replays of
    /// the same seed, for determinism checks.
    pub fn render_log(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "seed {}", self.cfg.seed);
        for ev in &self.log {
            let _ = writeln!(out, "{} {}", ev.step, ev.site.name());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fault_sequence() {
        let cfg = FaultPlaneConfig::uniform(99, 0.3);
        let mut a = FaultPlane::new(cfg);
        let mut b = FaultPlane::new(cfg);
        for i in 0..2000 {
            a.tick();
            b.tick();
            let site = FAULT_SITES[i % FAULT_SITES.len()];
            assert_eq!(a.fire(site), b.fire(site));
        }
        assert_eq!(a.events(), b.events());
        assert_eq!(a.render_log(), b.render_log());
        assert!(a.total_fired() > 0);
    }

    #[test]
    fn disabled_sites_never_draw_or_fire() {
        let cfg = FaultPlaneConfig::disabled(7).with(FaultSite::NicDrop, 1.0);
        let mut p = FaultPlane::new(cfg);
        p.tick();
        assert!(!p.fire(FaultSite::NvmTornWrite));
        assert!(p.fire(FaultSite::NicDrop));
        assert_eq!(p.count(FaultSite::NicDrop), 1);
        assert_eq!(p.count(FaultSite::NvmTornWrite), 0);
        assert_eq!(p.events().len(), 1);
        assert_eq!(p.events()[0].step, 1);
    }

    #[test]
    fn quiesced_plane_is_inert() {
        let mut p = FaultPlane::new(FaultPlaneConfig::uniform(1, 1.0));
        p.set_active(false);
        for _ in 0..100 {
            p.tick();
            assert!(!p.fire(FaultSite::IoAppend));
        }
        assert_eq!(p.total_fired(), 0);
        p.set_active(true);
        assert!(p.fire(FaultSite::IoAppend));
    }

    #[test]
    fn probability_one_always_fires() {
        let mut p = FaultPlane::new(FaultPlaneConfig::uniform(3, 1.0));
        for site in FAULT_SITES {
            assert!(p.fire(site));
        }
        assert_eq!(p.total_fired(), FAULT_SITES.len() as u64);
    }

    #[test]
    fn fire_rate_tracks_probability() {
        let mut p = FaultPlane::new(FaultPlaneConfig::disabled(11).with(
            FaultSite::IoAppend,
            0.25,
        ));
        let n = 100_000;
        let hits = (0..n).filter(|_| p.fire(FaultSite::IoAppend)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn draw_index_is_in_range_and_deterministic() {
        let mut a = FaultPlane::new(FaultPlaneConfig::disabled(5));
        let mut b = FaultPlane::new(FaultPlaneConfig::disabled(5));
        for len in [1usize, 2, 7, 1000] {
            let ia = a.draw_index(len);
            assert!(ia < len);
            assert_eq!(ia, b.draw_index(len));
        }
        assert_eq!(a.draw_index(0), 0);
    }

    #[test]
    fn fired_faults_are_mirrored_onto_the_bus() {
        let mut p = FaultPlane::new(FaultPlaneConfig::uniform(42, 0.5));
        let bus = Bus::with_sink(cr_obs::VecSink::new());
        p.set_bus(bus.clone());
        for i in 0..200 {
            p.tick();
            p.fire(FAULT_SITES[i % FAULT_SITES.len()]);
        }
        assert!(p.total_fired() > 0);
        let events = bus.drain();
        // The bus stream is the fault log, one-for-one and in order:
        // this is what lets the observability plane subsume the ad-hoc
        // log without changing its replay format.
        assert_eq!(events.len() as u64, p.total_fired());
        for (ev, fe) in events.iter().zip(p.events()) {
            assert_eq!(ev.source, Source::Faults);
            assert_eq!(
                ev.kind,
                EventKind::Fault {
                    site: fe.site.name(),
                    step: fe.step
                }
            );
        }
        // And attaching the bus did not perturb the draw sequence.
        let mut q = FaultPlane::new(FaultPlaneConfig::uniform(42, 0.5));
        for i in 0..200 {
            q.tick();
            q.fire(FAULT_SITES[i % FAULT_SITES.len()]);
        }
        assert_eq!(p.render_log(), q.render_log());
    }

    #[test]
    fn site_names_are_unique_and_stable() {
        let mut names: Vec<&str> =
            FAULT_SITES.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FAULT_SITES.len());
    }
}
