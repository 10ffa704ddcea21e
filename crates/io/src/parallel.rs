//! Parallel execution of independent sweep cells.
//!
//! Every figure in the paper is a sweep over independent configurations, so
//! the executor's contract is simple and strict: cells are identified by a
//! stable index, each cell's work is a pure function of `(index, cell)`,
//! and the output vector is ordered by index. Results are therefore
//! **bit-identical regardless of worker count or scheduling order** —
//! parallelism changes wall-clock time and nothing else. Per-cell
//! randomness must be derived from a root seed and the cell index (see
//! [`SimRng::stream_seed`](powadapt_sim::SimRng::stream_seed)), never from
//! shared generator state.
//!
//! Scheduling is one shared counter on [`std::thread::scope`] — no external
//! dependencies: each worker claims the next unclaimed index with a
//! `fetch_add` and runs that cell. Sweep cells are whole experiments
//! (milliseconds to seconds each), so claiming one at a time is free and
//! gives greedy load balance: a worker never idles while a cell is left.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How a sweep is spread across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads (1 = run inline on the calling thread).
    pub workers: usize,
}

impl ParallelConfig {
    /// Strictly sequential execution on the calling thread.
    pub fn sequential() -> Self {
        ParallelConfig { workers: 1 }
    }

    /// `workers` threads; `workers == 0` is normalized to 1.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig {
            workers: workers.max(1),
        }
    }

    /// Reads the worker count from `POWADAPT_WORKERS` (`0` or unset means
    /// "one per available CPU").
    pub fn from_env() -> Self {
        let workers = match std::env::var("POWADAPT_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n > 0 => n,
            _ => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        };
        ParallelConfig { workers }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::from_env()
    }
}

// Session-wide counters live in the process-wide metrics registry
// (`powadapt_obs::metrics()`) under the `executor.` prefix, so binaries can
// report cumulative executor work without threading stats through every
// figure function — and so the counters appear in trace snapshots for free.

/// Cumulative executor activity of this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Sweeps executed.
    pub sweeps: u64,
    /// Cells executed across all sweeps.
    pub cells: u64,
    /// Summed wall-clock time of all sweeps.
    pub elapsed: Duration,
}

impl SessionStats {
    /// Aggregate throughput in cells per second (0 if nothing ran).
    pub fn cells_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.cells as f64 / s
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for SessionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sweeps, {} cells in {:.2?} ({:.1} cells/s)",
            self.sweeps,
            self.cells,
            self.elapsed,
            self.cells_per_sec()
        )
    }
}

/// Snapshot of the process-wide executor counters.
///
/// The three counters are read from one registry snapshot, so they are
/// mutually consistent even while sweeps run on other threads — a sweep's
/// whole contribution is either fully visible or not visible at all.
pub fn session_stats() -> SessionStats {
    let snap = powadapt_obs::metrics().snapshot();
    SessionStats {
        sweeps: snap.counter("executor.sweeps"),
        cells: snap.counter("executor.cells"),
        elapsed: Duration::from_nanos(snap.counter("executor.busy_nanos")),
    }
}

/// Runs `f` over every cell and returns the results in cell order.
///
/// `f(index, &cells[index])` must be a pure function of its arguments (plus
/// any immutable captured state); under that contract the result vector is
/// bit-identical for every `cfg`. A panic in `f` propagates to the caller
/// with its original payload.
pub fn run_cells<C, T, F>(cells: &[C], cfg: &ParallelConfig, f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(usize, &C) -> T + Sync,
{
    let n = cells.len();
    let workers = cfg.workers.max(1).min(n.max(1));
    let start = Instant::now();

    let out: Vec<T> = if workers <= 1 {
        cells.iter().enumerate().map(|(i, c)| f(i, c)).collect()
    } else {
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, T)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(cell) = cells.get(i) else { break };
                            mine.push((i, f(i, cell)));
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(mine) => done.extend(mine),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        // The counter hands out each index below `n` exactly once, so
        // sorting by index restores cell order.
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, t)| t).collect()
    };

    // One registry call so a concurrent session_stats() snapshot sees this
    // sweep's counters all-or-nothing, never a torn mix.
    powadapt_obs::metrics().inc_many(&[
        ("executor.sweeps", 1),
        ("executor.cells", n as u64),
        ("executor.busy_nanos", start.elapsed().as_nanos() as u64),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use powadapt_sim::SimRng;
    use std::sync::atomic::AtomicU32;

    fn cell_work(index: usize, seed_root: u64) -> u64 {
        // A stand-in for an experiment: a deterministic draw stream seeded
        // by the stable cell index.
        let mut rng = SimRng::for_stream(seed_root, index as u64);
        (0..100).map(|_| rng.next_u64() >> 32).sum()
    }

    #[test]
    fn results_are_in_cell_order_and_complete() {
        let cells: Vec<usize> = (0..37).collect();
        let out = run_cells(&cells, &ParallelConfig::with_workers(4), |i, &c| {
            assert_eq!(i, c);
            i * 10
        });
        assert_eq!(out, (0..37).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let cells: Vec<u32> = (0..61).collect();
        let run = |workers| {
            run_cells(&cells, &ParallelConfig::with_workers(workers), |i, _| {
                cell_work(i, 99)
            })
        };
        let seq = run(1);
        for workers in [2, 3, 8, 16] {
            assert_eq!(seq, run(workers), "diverged at {workers} workers");
        }
    }

    #[test]
    fn empty_and_single_cell_sweeps_work() {
        let none: Vec<u8> = Vec::new();
        let out = run_cells(&none, &ParallelConfig::with_workers(8), |_, _| 1);
        assert!(out.is_empty());
        let one = [42u8];
        let out = run_cells(&one, &ParallelConfig::with_workers(8), |_, &c| c as u32);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        // Front-loaded cost so workers finish at very different times and
        // race on the shared counter for the cheap tail.
        let cells: Vec<u64> = (0..64).map(|i| if i < 8 { 400_000 } else { 100 }).collect();
        let runs: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let out = run_cells(&cells, &ParallelConfig::with_workers(8), |i, &spin| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
            }
            acc
        });
        assert_eq!(out.len(), 64);
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[should_panic(expected = "cell 13 exploded")]
    fn cell_panic_keeps_its_message() {
        let cells: Vec<usize> = (0..32).collect();
        let _ = run_cells(&cells, &ParallelConfig::with_workers(4), |i, _| {
            assert!(i != 13, "cell {i} exploded");
            i
        });
    }

    #[test]
    fn errors_are_returned_in_cell_order() {
        // Callers that sweep fallible work collect Results; the first error
        // by cell index is deterministic regardless of scheduling.
        let cells: Vec<usize> = (0..20).collect();
        let out = run_cells(&cells, &ParallelConfig::with_workers(4), |i, _| {
            if i % 7 == 3 {
                Err(i)
            } else {
                Ok(i)
            }
        });
        let first_err = out.iter().find_map(|r| r.as_ref().err());
        assert_eq!(first_err, Some(&3));
    }

    #[test]
    fn config_from_env_parses_workers() {
        // Only exercise the pure parts (env manipulation in tests races
        // with other threads): defaults and normalization.
        assert_eq!(ParallelConfig::with_workers(0).workers, 1);
        assert_eq!(ParallelConfig::sequential().workers, 1);
        assert!(ParallelConfig::from_env().workers >= 1);
    }

    #[test]
    fn session_counters_accumulate() {
        let before = session_stats();
        let cells: Vec<u8> = vec![0; 10];
        let _ = run_cells(&cells, &ParallelConfig::sequential(), |i, _| i);
        let after = session_stats();
        assert!(after.cells >= before.cells + 10);
        assert!(after.sweeps > before.sweeps);
    }
}
