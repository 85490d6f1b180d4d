//! Parallel batch execution for embarrassingly parallel experiment runs.
//!
//! Every experiment in this harness is a cross product of configuration
//! combos and seeds, and every `(combo, seed)` run builds its own
//! [`netstack::Simulator`] with its own seeded RNG — runs share nothing, so
//! executing them on worker threads cannot change any result. The engine
//! guarantees *byte-identical* output regardless of worker count by
//! collecting results **by submission index**: workers race over which runs
//! they execute, never over where results land.
//!
//! A batch of `jobs` workers is the calling thread plus `jobs − 1` threads
//! it starts, all running one claim loop over a shared counter, so a
//! one-job batch starts no thread and a serial run takes the same path as
//! a parallel one. Built on [`std::thread::scope`] only — no extra
//! dependencies — so closures may borrow from the caller's stack.

use crate::runner::ExperimentConfig;
use netstack::SimConfig;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Resolves a user-facing jobs setting: `0` means one worker per available
/// core (serial if parallelism cannot be probed), anything else is taken
/// literally. The core count is read from the host once per process and
/// kept: the probe may walk the cgroup files, which takes about as long as
/// starting a worker thread.
pub fn effective_jobs(jobs: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if jobs == 0 {
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    } else {
        jobs
    }
}

/// Runs `task` once per item of `items` and returns the outputs in item
/// order, fanning the runs across `jobs` workers in all (`0` = auto): the
/// calling thread and `jobs − 1` scoped threads, so one job starts no
/// thread. The output vector is independent of the worker count and of
/// scheduling: slot `i` always holds `task(&items[i], i)`.
///
/// # Panics
///
/// Propagates a panic from any `task` invocation, on whichever worker ran it.
#[expect(
    clippy::disallowed_methods,
    reason = "the one licensed thread pool: whole runs, merged into slots by item index"
)]
#[expect(
    clippy::expect_used,
    reason = "a worker's panic is re-raised here, and every index is claimed exactly once"
)]
pub fn run_batch<I, T, F>(items: &[I], jobs: usize, task: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I, usize) -> T + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut produced: Vec<(usize, T)> = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= items.len() {
                break;
            }
            produced.push((idx, task(&items[idx], idx)));
        }
        produced
    };
    let mut slots: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..jobs).map(|_| scope.spawn(claim)).collect();
        let own = claim();
        let joined = spawned.into_iter().map(|h| h.join().expect("batch worker panicked"));
        for (idx, value) in std::iter::once(own).chain(joined).flatten() {
            slots[idx] = Some(value);
        }
    });
    slots.into_iter().map(|s| s.expect("every index executed exactly once")).collect()
}

/// Runs the full `(item, seed)` matrix of an experiment — every item of
/// `items` under every per-seed [`SimConfig`] of `cfg` — across
/// `cfg.jobs` workers, then hands each item its seed-ordered run results
/// for aggregation. Output order matches `items`; aggregation happens on
/// the caller's thread, in order, so summary statistics and rendered
/// tables are byte-identical to a serial run.
pub fn run_matrix<I, R, T, Run, Agg>(
    items: &[I],
    cfg: &ExperimentConfig,
    run: Run,
    mut aggregate: Agg,
) -> Vec<T>
where
    I: Sync,
    R: Send,
    Run: Fn(&I, SimConfig) -> R + Sync,
    Agg: FnMut(&I, Vec<R>) -> T,
{
    let sims: Vec<SimConfig> = cfg.sim_configs().collect();
    let cells: Vec<(usize, SimConfig)> =
        items.iter().enumerate().flat_map(|(i, _)| sims.iter().map(move |&sim| (i, sim))).collect();
    let mut results = run_batch(&cells, cfg.jobs, |&(i, sim), _| run(&items[i], sim));
    // Regroup the flat results into per-item chunks (seed order preserved).
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let runs: Vec<R> = results.drain(..sims.len().min(results.len())).collect();
        debug_assert_eq!(runs.len(), sims.len(), "item {i} missing runs");
        out.push(aggregate(item, runs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn batch_preserves_item_order_at_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let serial = run_batch(&items, 1, |&x, i| (x * x, i));
        // 64 is more workers than items.
        for jobs in [2, 3, 8, 64] {
            let par = run_batch(&items, jobs, |&x, i| (x * x, i));
            assert_eq!(par, serial, "jobs = {jobs}");
        }
        assert_eq!(serial[5], (25, 5));
    }

    #[test]
    fn batch_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_batch(&empty, 4, |&x, _| x).is_empty());
        assert!(run_batch(&empty, 1, |&x, _| x).is_empty());
        assert_eq!(run_batch(&[7u32], 4, |&x, _| x + 1), vec![8]);
    }

    /// A batch of `jobs` cells in which every cell waits at a barrier for
    /// all the others: no worker can claim a second cell before each has
    /// claimed one, so each of the `jobs` workers runs exactly one.
    fn one_cell_per_worker<T: Send>(jobs: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let barrier = Barrier::new(jobs);
        let items: Vec<usize> = (0..jobs).collect();
        run_batch(&items, jobs, |&i, _| {
            barrier.wait();
            task(i)
        })
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        let caller = thread::current().id();
        let ids = one_cell_per_worker(2, |_| thread::current().id());
        assert!(ids.contains(&caller), "the caller ran none of the cells: {ids:?}");
        assert!(ids.iter().any(|&id| id != caller), "no spawned worker ran a cell: {ids:?}");
        let items: Vec<u32> = (0..9).collect();
        let ids = run_batch(&items, 1, |_, _| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller), "one job started a thread: {ids:?}");
    }

    #[test]
    fn a_panicking_cell_panics_the_batch_on_any_worker() {
        let caller = thread::current().id();
        for jobs in [1, 2, 3] {
            for on_caller in [true, false] {
                if jobs == 1 && !on_caller {
                    continue; // one job has no spawned worker to claim it
                }
                let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                    one_cell_per_worker(jobs, |i| {
                        assert!((thread::current().id() == caller) != on_caller, "cell {i} fails");
                    })
                }));
                assert!(ran.is_err(), "jobs {jobs}, on the caller {on_caller}: the batch returned");
            }
        }
    }

    #[test]
    fn auto_jobs_resolves_to_the_host_core_count_once() {
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(effective_jobs(0), cores);
        assert!((0..8).all(|_| effective_jobs(0) == cores), "the cached count moved");
        for jobs in [1, 2, 3, 64] {
            assert_eq!(effective_jobs(jobs), jobs, "an explicit count is taken literally");
        }
    }

    #[test]
    fn an_auto_batch_runs_on_at_most_the_core_count_with_the_caller() {
        let caller = thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        let mut workers = Vec::new();
        for id in run_batch(&items, 0, |_, _| thread::current().id()) {
            if !workers.contains(&id) {
                workers.push(id);
            }
        }
        assert!(workers.contains(&caller), "the caller ran none of the cells: {workers:?}");
        assert!(workers.len() <= effective_jobs(0), "more workers than cores: {workers:?}");
    }

    #[test]
    fn matrix_groups_seed_runs_per_item() {
        let cfg =
            ExperimentConfig { seeds: vec![11, 23, 37], ..ExperimentConfig::quick() }.with_jobs(4);
        let items = ["a", "b"];
        let out = run_matrix(
            &items,
            &cfg,
            |item, sim| format!("{item}:{}", sim.seed),
            |item, runs| (item.to_string(), runs),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, "a");
        assert_eq!(out[0].1, vec!["a:11", "a:23", "a:37"]);
        assert_eq!(out[1].1, vec!["b:11", "b:23", "b:37"]);
    }

    #[test]
    fn matrix_parallel_matches_serial() {
        let items: Vec<u64> = (0..5).collect();
        let mk = |jobs| {
            let cfg = ExperimentConfig::quick().with_jobs(jobs);
            run_matrix(
                &items,
                &cfg,
                |&item, sim| item * 1000 + sim.seed,
                |&item, runs| (item, runs),
            )
        };
        assert_eq!(mk(1), mk(6));
    }
}
