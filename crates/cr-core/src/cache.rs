//! Memoized cycle solving for the ratio search.
//!
//! [`crate::ratio_opt`]'s best-ratio search solves about 12 ratios per
//! call, each at most once, and the sweeps revisit identical
//! `(SystemParams, Strategy)` configurations across figures: the
//! repository benchmark's `model_sweep` workload measures a hit rate of
//! 0.39. Since the search replaced the 400-ratio scan, the solves left
//! are about 1 % of that workload, and `model_sweep` reads the same
//! with and without this cache within its run-to-run spread; it stays
//! only because the benchmark reports its hit rate.
//!
//! [`solve_cycle_cached`] memoizes [`solve_cycle`] in a thread-local
//! table keyed on the **exact bit patterns** of every `f64` in the
//! configuration — the only quantization that can guarantee a cache hit
//! returns a result bit-identical to an uncached solve (a property test
//! holds this over a seeded parameter grid).

use std::cell::RefCell;
use std::collections::HashMap;

use crate::analytic::{solve_cycle, CycleSolution, Refusal};
use crate::params::{
    CompressionSpec, DrainLagModel, Strategy, SystemParams,
};

/// Entry cap for the thread-local cache behind [`solve_cycle_cached`]:
/// past this the cache is cleared (a full sensitivity sweep touches
/// ~20 k distinct cycles, so eviction is rare in practice).
const GLOBAL_CACHE_CAP: usize = 1 << 16;

/// Hashable mirror of a `(SystemParams, Strategy)` pair with every
/// `f64` replaced by its IEEE-754 bit pattern. Two configurations map
/// to the same key **iff** `solve_cycle` would see bit-identical
/// inputs, so memoization can never change a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CycleKey {
    sys: [u64; 4],
    strat: StratKey,
}

type CompKey = [u64; 3];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StratKey {
    IoOnly {
        interval: Option<u64>,
        compression: Option<CompKey>,
    },
    LocalOnly {
        interval: Option<u64>,
    },
    LocalIoHost {
        interval: Option<u64>,
        ratio: u32,
        p_local: u64,
        compression: Option<CompKey>,
    },
    LocalIoNdp {
        interval: Option<u64>,
        ratio: Option<u32>,
        p_local: u64,
        compression: Option<CompKey>,
        pipelined: bool,
    },
}

// The key builders destructure every struct without `..` and match
// every enum variant, so adding a field or variant to the parameter
// types is a compile error here rather than a silent key collision.

fn comp_key(c: &Option<CompressionSpec>) -> Option<CompKey> {
    c.map(|c| {
        let CompressionSpec {
            factor,
            compress_rate,
            decompress_rate,
        } = c;
        [
            factor.to_bits(),
            compress_rate.to_bits(),
            decompress_rate.to_bits(),
        ]
    })
}

impl CycleKey {
    fn new(sys: &SystemParams, strat: &Strategy) -> Self {
        let SystemParams {
            mtti,
            checkpoint_bytes,
            local_bw,
            io_bw_per_node,
        } = *sys;
        let sys_key = [
            mtti.to_bits(),
            checkpoint_bytes.to_bits(),
            local_bw.to_bits(),
            io_bw_per_node.to_bits(),
        ];
        let strat_key = match *strat {
            Strategy::IoOnly {
                interval,
                compression,
            } => StratKey::IoOnly {
                interval: interval.map(f64::to_bits),
                compression: comp_key(&compression),
            },
            Strategy::LocalOnly { interval } => StratKey::LocalOnly {
                interval: interval.map(f64::to_bits),
            },
            Strategy::LocalIoHost {
                interval,
                ratio,
                p_local,
                compression,
            } => StratKey::LocalIoHost {
                interval: interval.map(f64::to_bits),
                ratio,
                p_local: p_local.to_bits(),
                compression: comp_key(&compression),
            },
            Strategy::LocalIoNdp {
                interval,
                ratio,
                p_local,
                compression,
                drain_lag,
            } => StratKey::LocalIoNdp {
                interval: interval.map(f64::to_bits),
                ratio,
                p_local: p_local.to_bits(),
                compression: comp_key(&compression),
                pipelined: match drain_lag {
                    DrainLagModel::Ignore => false,
                    DrainLagModel::Pipelined => true,
                },
            },
        };
        CycleKey {
            sys: sys_key,
            strat: strat_key,
        }
    }
}

/// A memo table over [`solve_cycle`] results, refusals included.
#[derive(Debug, Default)]
struct CycleCache {
    map: HashMap<CycleKey, Result<CycleSolution, Refusal>>,
    hits: u64,
    misses: u64,
}

impl CycleCache {
    /// Solves the cycle for `(sys, strat)`, returning the memoized
    /// solution when this exact configuration was solved before. The
    /// hit path is bit-identical to calling [`solve_cycle`] directly.
    fn solve(
        &mut self,
        sys: &SystemParams,
        strat: &Strategy,
    ) -> Result<CycleSolution, Refusal> {
        let key = CycleKey::new(sys, strat);
        if let Some(sol) = self.map.get(&key) {
            self.hits += 1;
            return *sol;
        }
        self.misses += 1;
        let sol = solve_cycle(sys, strat);
        self.map.insert(key, sol);
        sol
    }
}

thread_local! {
    static GLOBAL: RefCell<CycleCache> = RefCell::default();
}

/// [`solve_cycle`] through a thread-local memo table, so repeated
/// ratio scans and sweeps over the same configurations stop re-solving
/// identical cycles. Falls back to a direct solve if the thread-local
/// is unavailable (e.g. during thread teardown).
pub fn solve_cycle_cached(
    sys: &SystemParams,
    strat: &Strategy,
) -> Result<CycleSolution, Refusal> {
    GLOBAL
        .try_with(|cache| {
            let mut cache = cache.borrow_mut();
            if cache.map.len() >= GLOBAL_CACHE_CAP {
                cache.map.clear();
            }
            cache.solve(sys, strat)
        })
        .unwrap_or_else(|_| solve_cycle(sys, strat))
}

/// Hit/miss counters of this thread's [`solve_cycle_cached`] cache
/// (`(hits, misses)`) — surfaced so the repository benchmark can report
/// the measured hit rate of a sweep.
pub fn global_cache_stats() -> (u64, u64) {
    GLOBAL
        .try_with(|cache| {
            let cache = cache.borrow();
            (cache.hits, cache.misses)
        })
        .unwrap_or((0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemParams {
        SystemParams::exascale_default()
    }

    /// Seeded xorshift so the property grid is reproducible without
    /// pulling the simulator's RNG into cr-core.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn assert_identical(
        a: &Result<CycleSolution, Refusal>,
        b: &Result<CycleSolution, Refusal>,
    ) {
        let (Ok(a), Ok(b)) = (a, b) else {
            return assert_eq!(a, b);
        };
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.cycle_time.to_bits(), b.cycle_time.to_bits());
        assert_eq!(
            a.work_per_cycle.to_bits(),
            b.work_per_cycle.to_bits()
        );
        assert_eq!(a.ratio, b.ratio);
        assert_eq!(a.interval.to_bits(), b.interval.to_bits());
    }

    #[test]
    fn hit_path_is_bit_identical_over_seeded_grid() {
        // Property test: for a seeded grid of randomized systems and
        // strategies, the cached solve (both the miss that fills the
        // entry and the hit that returns it) equals the direct solve
        // bit for bit.
        let mut rng = XorShift(0x5EED_0001);
        let mut cache = CycleCache::default();
        for _ in 0..200 {
            let s = SystemParams {
                mtti: 600.0 + 5400.0 * rng.unit(),
                checkpoint_bytes: (14.0 + 200.0 * rng.unit()) * 1e9,
                local_bw: (2.0 + 28.0 * rng.unit()) * 1e9,
                io_bw_per_node: (50.0 + 450.0 * rng.unit()) * 1e6,
            };
            let comp = if rng.next().is_multiple_of(2) {
                Some(CompressionSpec::gzip1_ndp_with_factor(
                    0.3 + 0.6 * rng.unit(),
                ))
            } else {
                None
            };
            let p_local = 0.2 + 0.75 * rng.unit();
            let strat = match rng.next() % 4 {
                0 => Strategy::IoOnly {
                    interval: None,
                    compression: comp,
                },
                1 => Strategy::LocalOnly { interval: None },
                2 => Strategy::LocalIoHost {
                    interval: Some(100.0 + 200.0 * rng.unit()),
                    ratio: 1 + (rng.next() % 50) as u32,
                    p_local,
                    compression: comp,
                },
                _ => Strategy::LocalIoNdp {
                    interval: Some(100.0 + 200.0 * rng.unit()),
                    ratio: None,
                    p_local,
                    compression: comp,
                    drain_lag: DrainLagModel::default(),
                },
            };
            let direct = solve_cycle(&s, &strat);
            let miss = cache.solve(&s, &strat);
            let hit = cache.solve(&s, &strat);
            assert_identical(&direct, &miss);
            assert_identical(&direct, &hit);
        }
        assert_eq!(cache.hits, 200);
        assert_eq!(cache.misses, 200);
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let mut cache = CycleCache::default();
        let a = cache.solve(&sys(), &Strategy::local_io_host(10, 0.8, None));
        let b = cache.solve(&sys(), &Strategy::local_io_host(11, 0.8, None));
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_ne!(
            a.breakdown.progress_rate(),
            b.breakdown.progress_rate()
        );
        assert_eq!(cache.map.len(), 2);
        assert_eq!(cache.misses, 2);
        assert_eq!(cache.hits, 0);
    }

    #[test]
    fn nan_interval_never_matches_itself_harmlessly() {
        // to_bits keying treats NaN as an ordinary pattern: two NaN
        // intervals with the same payload are the "same" config, which
        // is exactly what bit-identical replay wants. Just ensure no
        // panic and stable behavior.
        let k1 = CycleKey::new(
            &sys(),
            &Strategy::LocalOnly {
                interval: Some(f64::NAN),
            },
        );
        let k2 = CycleKey::new(
            &sys(),
            &Strategy::LocalOnly {
                interval: Some(f64::NAN),
            },
        );
        assert_eq!(k1, k2);
    }

    #[test]
    fn cached_global_path_matches_direct() {
        let strat = Strategy::local_io_ndp(0.85, None);
        let direct = solve_cycle(&sys(), &strat);
        let c1 = solve_cycle_cached(&sys(), &strat);
        let c2 = solve_cycle_cached(&sys(), &strat);
        assert_identical(&direct, &c1);
        assert_identical(&direct, &c2);
    }
}
