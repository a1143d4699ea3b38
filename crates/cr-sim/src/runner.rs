//! High-level simulation entry points: single runs and averaged
//! multi-replica runs.

use cr_core::analytic::CycleSolution;
use cr_core::breakdown::Breakdown;
use cr_core::par::{default_threads, par_map_in};
use cr_core::params::{Strategy, SystemParams};
use cr_obs::analyze::{analyze, merge_means, IndicatorReport};
use cr_obs::{Bus, Event, VecSink};

use crate::engine::{run_engine, SimOptions, SimResult};

/// Runs one unobserved simulation replica.
pub fn simulate(
    sys: &SystemParams,
    strat: &Strategy,
    opts: &SimOptions,
) -> SimResult {
    run_engine(sys, strat, opts, &Bus::disabled())
}

/// Aggregate of several independent replicas.
#[derive(Debug, Clone)]
pub struct AveragedResult {
    /// Sum of all replica breakdowns (ratios of this are the pooled
    /// estimates).
    pub pooled: Breakdown,
    /// Per-replica progress rates.
    pub progress_rates: Vec<f64>,
    /// Per-replica results.
    pub replicas: Vec<SimResult>,
}

impl AveragedResult {
    /// Pooled progress-rate estimate (total compute over total wall).
    pub fn progress_rate(&self) -> f64 {
        self.pooled.progress_rate()
    }

    /// Standard error of the per-replica progress-rate mean.
    pub fn sem_progress(&self) -> f64 {
        mean_sem(&self.progress_rates).1
    }

    /// Pooled breakdown normalized to fractions of total time.
    pub fn fractions(&self) -> Breakdown {
        self.pooled.as_fractions()
    }
}

/// Mean and standard error of the mean of per-replica samples `xs`
/// (sample variance over `n - 1`). The standard error is NaN below two
/// samples, which have no spread to measure.
pub fn mean_sem(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, f64::NAN);
    }
    let var = xs.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>()
        / (n as f64 - 1.0);
    (mean, (var / n as f64).sqrt())
}

/// Runs `replicas` independent simulations (seeds `base_seed..`) in
/// parallel and pools the results.
pub fn simulate_avg(
    sys: &SystemParams,
    strat: &Strategy,
    opts: &SimOptions,
    replicas: u64,
) -> AveragedResult {
    simulate_avg_in(default_threads(), sys, strat, opts, replicas)
}

/// [`simulate_avg`] with an explicit worker-thread count. Replica
/// results are keyed only by seed, so every thread count produces
/// bit-identical output (the sim bench asserts this).
pub fn simulate_avg_in(
    threads: usize,
    sys: &SystemParams,
    strat: &Strategy,
    opts: &SimOptions,
    replicas: u64,
) -> AveragedResult {
    assert!(replicas >= 1);
    let seeds: Vec<u64> =
        (0..replicas).map(|i| opts.seed.wrapping_add(i)).collect();
    let results = par_map_in(threads, &seeds, |&seed| {
        simulate(sys, strat, &SimOptions { seed, ..*opts })
    });
    let mut pooled = Breakdown::zero();
    let mut progress_rates = Vec::with_capacity(results.len());
    for r in &results {
        pooled += r.breakdown;
        progress_rates.push(r.breakdown.progress_rate());
    }
    AveragedResult {
        pooled,
        progress_rates,
        replicas: results,
    }
}

/// Runs `replicas` independent simulations (seeds `base_seed..`) in
/// parallel, each observed through its own private event bus, and
/// returns the per-replica results alongside their event streams in
/// seed order.
///
/// This is the multi-node trace-collection entry point: the fleet
/// feeds [`fleet_report`]'s model-plane snapshot, or is exported as
/// one Chrome trace with a `pid` per replica
/// ([`cr_obs::export::chrome_trace_merged`]). Observation is private
/// per replica, so the results are bit-identical to
/// [`simulate_avg`] with the same seeds.
pub fn run_fleet_observed(
    sys: &SystemParams,
    strat: &Strategy,
    opts: &SimOptions,
    replicas: u64,
) -> Vec<(SimResult, Vec<Event>)> {
    run_fleet_observed_in(default_threads(), sys, strat, opts, replicas)
}

/// [`run_fleet_observed`] with an explicit worker-thread count. Event
/// streams are private per replica and keyed only by seed, so every
/// thread count produces bit-identical results and streams.
pub fn run_fleet_observed_in(
    threads: usize,
    sys: &SystemParams,
    strat: &Strategy,
    opts: &SimOptions,
    replicas: u64,
) -> Vec<(SimResult, Vec<Event>)> {
    assert!(replicas >= 1);
    let seeds: Vec<u64> =
        (0..replicas).map(|i| opts.seed.wrapping_add(i)).collect();
    par_map_in(threads, &seeds, |&seed| {
        let opts = SimOptions { seed, ..*opts };
        let bus = Bus::with_sink(VecSink::new());
        let result = run_engine(sys, strat, &opts, &bus);
        (result, bus.drain())
    })
}

/// Builds the `indicators/v1` model-plane snapshot of an observed
/// fleet (from [`run_fleet_observed`]) against the analytic solution
/// `sol` of the same configuration. Every simulated value comes from
/// the replicas' [`SimResult`]s; the event streams give only the event
/// counts and the causal-span keys.
///
/// * Per replica, averaged over the fleet as `<key>_mean`
///   ([`merge_means`]): `wall_time_s` (`stats.wall_time`), `failures`,
///   `failures_l2` (`stats.failures_io`), `recoveries_l1`/`_l2`
///   (`stats.recoveries_local`/`_io`), `ndp_drain_s`
///   (`stats.drain_busy`), `ndp_utilization` (drain busy over wall
///   time), and the `spans_*`/`span_max_depth` keys of [`analyze`].
/// * Fleet sums: `work_done_s` (`stats.work_done`), `events_total`
///   and `events_<kind>`.
/// * Per [`Breakdown`] bucket `<b>`: `bucket_<b>_analytic` (the
///   fraction in `sol`), `bucket_<b>_sim_mean` and `_sim_sem` (over
///   the replicas' fractions), and, where the SEM is above zero,
///   `bucket_<b>_z`, the simulated mean's distance from the analytic
///   fraction in SEMs.
/// * `model_progress_predicted` (`sol`), `model_progress_observed`
///   (pooled compute over pooled wall time) and their relative
///   `model_divergence`.
pub fn fleet_report(
    label: &str,
    sol: &CycleSolution,
    fleet: &[(SimResult, Vec<Event>)],
) -> IndicatorReport {
    let per_node: Vec<_> = fleet
        .iter()
        .enumerate()
        .map(|(i, (r, events))| {
            let s = &r.stats;
            let mut node = analyze(&format!("node{i}"), events);
            node.set("wall_time_s", s.wall_time);
            node.set("failures", s.failures as f64);
            node.set("failures_l2", s.failures_io as f64);
            node.set("recoveries_l1", s.recoveries_local as f64);
            node.set("recoveries_l2", s.recoveries_io as f64);
            node.set("ndp_drain_s", s.drain_busy);
            node.set("ndp_utilization", s.drain_busy / s.wall_time);
            node
        })
        .collect();
    let mut report = merge_means(label, &per_node);

    for (r, events) in fleet {
        report.add("events_total", events.len() as f64);
        for e in events {
            report.add(&format!("events_{}", e.kind.name()), 1.0);
        }
        report.add("work_done_s", r.stats.work_done);
    }

    let sim: Vec<_> = fleet
        .iter()
        .map(|(r, _)| r.breakdown.as_fractions().buckets())
        .collect();
    for (i, (bucket, analytic)) in
        sol.breakdown.as_fractions().buckets().into_iter().enumerate()
    {
        let xs: Vec<f64> = sim.iter().map(|b| b[i].1).collect();
        let (mean, sem) = mean_sem(&xs);
        report.set(&format!("bucket_{bucket}_analytic"), analytic);
        report.set(&format!("bucket_{bucket}_sim_mean"), mean);
        report.set(&format!("bucket_{bucket}_sim_sem"), sem);
        if sem > 0.0 {
            report.set(&format!("bucket_{bucket}_z"), (mean - analytic) / sem);
        }
    }

    // Analytic-model-vs-sim divergence: predicted progress rate from
    // the Markov-renewal solution against the pooled simulated rate.
    let predicted = sol.progress_rate();
    let (mut compute, mut wall) = (0.0, 0.0);
    for (r, _) in fleet {
        compute += r.breakdown.compute;
        wall += r.breakdown.total();
    }
    let observed = if wall > 0.0 { compute / wall } else { 0.0 };
    report.set("model_progress_predicted", predicted);
    report.set("model_progress_observed", observed);
    // An admitted configuration's predicted progress is positive.
    report.set("model_divergence", (observed - predicted).abs() / predicted);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::params::CompressionSpec;

    fn sys() -> SystemParams {
        SystemParams::exascale_default()
    }

    #[test]
    fn averaging_tightens_estimates() {
        let strat = Strategy::local_io_ndp(0.85, None);
        let avg = simulate_avg(&sys(), &strat, &SimOptions::quick(100), 8);
        assert_eq!(avg.replicas.len(), 8);
        assert!(avg.sem_progress() < 0.01, "sem = {}", avg.sem_progress());
        // Pooled and mean estimates agree closely.
        assert!(
            (avg.progress_rate() - mean_sem(&avg.progress_rates).0).abs()
                < 0.01
        );
    }

    #[test]
    fn pooled_breakdown_is_sum() {
        let strat = Strategy::local_io_host(10, 0.5, None);
        let avg = simulate_avg(&sys(), &strat, &SimOptions::quick(3), 4);
        let manual: f64 =
            avg.replicas.iter().map(|r| r.breakdown.total()).sum();
        assert!((avg.pooled.total() - manual).abs() < 1e-6 * manual);
    }

    #[test]
    fn sim_matches_analytic_on_ndp_compressed() {
        // Cross-validation: DES vs Markov-renewal analytic model.
        let strat =
            Strategy::local_io_ndp(0.85, Some(CompressionSpec::gzip1_ndp()));
        let avg = simulate_avg(&sys(), &strat, &SimOptions::standard(42), 8);
        let analytic = cr_core::analytic::progress_rate(&sys(), &strat);
        let simulated = avg.progress_rate();
        assert!(
            (simulated - analytic).abs() < 0.02,
            "sim {simulated} vs analytic {analytic}"
        );
    }

    #[test]
    fn sem_requires_two_replicas() {
        let strat = Strategy::LocalOnly { interval: None };
        let avg = simulate_avg(&sys(), &strat, &SimOptions::quick(5), 1);
        assert!(avg.sem_progress().is_nan());
    }

    #[test]
    fn fleet_matches_unobserved_replicas_in_seed_order() {
        let strat = Strategy::local_io_ndp(0.85, None);
        let opts = SimOptions::quick(7);
        let fleet = run_fleet_observed(&sys(), &strat, &opts, 3);
        assert_eq!(fleet.len(), 3);
        let avg = simulate_avg(&sys(), &strat, &opts, 3);
        for (i, (result, events)) in fleet.iter().enumerate() {
            // Observation never perturbs the run.
            assert_eq!(
                result.stats.wall_time,
                avg.replicas[i].stats.wall_time
            );
            assert!(!events.is_empty(), "replica {i} produced no events");
        }
        // Replicas differ (different seeds) and streams are private.
        assert_ne!(
            fleet[0].0.stats.wall_time,
            fleet[1].0.stats.wall_time
        );
    }
}
