//! Parallel map with deterministic output order.
//!
//! This is the one executor of the workspace: simulator replicas, chaos
//! episodes, analytic solver batches and the chunk-parallel codec all
//! fan out through [`par_map_in`]. Scoped workers claim one index at a
//! time from a shared counter, so a long item never strands the rest of
//! a skewed sweep behind it. Each worker returns its `(index, result)`
//! pairs through its join handle and the caller places them by index,
//! so the output order, and therefore every downstream fold, does not
//! depend on scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: one per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Applies `f` to every item in parallel, preserving input order in the
/// output. Spawns up to `min(items.len(), available_parallelism)`
/// workers.
///
/// A panic in `f` propagates to the caller once every worker has
/// stopped.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_in(default_threads(), items, f)
}

/// [`par_map`] with an explicit worker count (used by the bench harness
/// thread sweeps, the chunk-parallel codec and the
/// N-thread-vs-1-thread determinism tests). `threads <= 1` runs inline
/// on the caller's thread.
pub fn par_map_in<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    // `Relaxed` suffices: the counter only hands out indices, and the
    // results reach the caller through the join handles.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(&items[i])));
        }
    };
    let parts: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..threads).map(|_| scope.spawn(work)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for part in parts {
        match part {
            Ok(done) => {
                for (i, r) in done {
                    out[i] = Some(r);
                }
            }
            // Results already placed and the unvisited parts drop as
            // this unwinds, so nothing leaks.
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    out.into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = par_map(&[41], |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<f64> = (0..500).map(|i| i as f64 / 7.0).collect();
        let seq = par_map_in(1, &items, |x| x.sin());
        for threads in [2, 3, 4, 8] {
            let par = par_map_in(threads, &items, |x| x.sin());
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_work_is_still_complete() {
        // Heavily skewed cost: the last items are ~1000x the first.
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_in(4, &items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i as u64);
            }
            (x, acc)
        });
        assert_eq!(out.len(), 64);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map_in(16, &[1, 2, 3], |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn panic_propagates_without_leaks_or_double_drops() {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicUsize = AtomicUsize::new(0);

        struct Tracked(#[allow(dead_code)] usize);
        impl Tracked {
            fn new(v: usize) -> Self {
                CREATED.fetch_add(1, Ordering::SeqCst);
                Tracked(v)
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::SeqCst);
            }
        }

        let items: Vec<usize> = (0..256).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_in(4, &items, |&x| {
                if x == 137 {
                    panic!("worker panic on item {x}");
                }
                Tracked::new(x)
            })
        });
        assert!(result.is_err(), "worker panic must propagate");
        // Every constructed result was dropped exactly once, whether it
        // was still in a worker or already placed by the caller.
        assert_eq!(
            CREATED.load(Ordering::SeqCst),
            DROPPED.load(Ordering::SeqCst)
        );
        assert!(CREATED.load(Ordering::SeqCst) > 0);
    }

    #[test]
    fn every_index_mapped_exactly_once() {
        // With a pure `f`, a double claim would still give equal output,
        // so count the calls per index instead.
        for threads in [1, 2, 3, 8] {
            for n in [0usize, 1, 7, 64, 1000] {
                let calls: Vec<AtomicU32> =
                    (0..n).map(|_| AtomicU32::new(0)).collect();
                let items: Vec<usize> = (0..n).collect();
                let out = par_map_in(threads, &items, |&i| {
                    calls[i].fetch_add(1, Ordering::SeqCst);
                    i
                });
                assert_eq!(out, items, "threads {threads} n {n}");
                for (i, c) in calls.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::SeqCst),
                        1,
                        "threads {threads} n {n} index {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn results_match_sequential_under_stealing() {
        let items: Vec<u64> = (0..4096).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
        let par = par_map_in(8, &items, |&x| x.wrapping_mul(x));
        assert_eq!(seq, par);
    }
}
