//! Multi-run orchestration: the paper averages 10 independent runs of
//! 100,000 blocks each (Section V); this module runs seeds in parallel and
//! aggregates the reports.
//!
//! Every parallel sweep in the workspace goes through one scheduler,
//! [`work_queue`]: workers pull item indices from a shared atomic counter
//! (no up-front chunking, so any `items`/`threads` ratio and any mix of
//! item costs stays fully utilized), the calling thread acts as worker 0,
//! and results come back in index order. Each worker carries one
//! [`TelemetryShard`] and a private state built once per worker. As long
//! as an item's result is a pure function of its index, the output is
//! bit-identical for every thread count: the thread count only decides
//! which worker executes which item.
//!
//! Two thin callers cover the workspace's sweeps:
//!
//! - [`run_many`] (and its `_with_threads`/`_recorded` variants): run `k`
//!   is an independent simulation seeded `base_seed + k`, and each worker
//!   recycles one [`Simulation`] engine — block-tree arena included —
//!   across all the runs it executes;
//! - [`par_map`] / [`par_map_traced`]: one task per element of a slice of
//!   sweep points, as used by the study bins and the zoo tournament.

use std::sync::atomic::{AtomicUsize, Ordering};

use seleth_chain::Scenario;
use seleth_obs::{NoopRecorder, Recorder, Stopwatch, TelemetryShard};

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::stats::SimReport;

/// Evaluate `task` for every index `0..len` on a shared work queue and
/// return the results in index order, plus one [`TelemetryShard`] per
/// worker (in worker order).
///
/// `threads = 0` uses `available_parallelism`; the count is capped at
/// `len`, and the calling thread is worker 0, so one worker spawns no
/// thread at all. Each worker calls `init` exactly once, before its first
/// claim, and hands the state to every task it runs — the hook for
/// per-worker buffers such as a recycled [`Simulation`]. An empty queue
/// builds no state and returns no shards.
///
/// The scheduler records, per worker, the tasks claimed, busy time
/// (inside `task`) and queue wait (time between finishing one task and
/// claiming the next); `task` folds its own counters into the shard it
/// is given. Counter totals merged over all shards are therefore
/// invariant to the thread count whenever each task's deltas are;
/// wall-clock fields are measurements with no such guarantee. When
/// `recorder` is enabled, one `span` per task is emitted.
///
/// # Panics
///
/// Panics if a worker panics (i.e. `init` or `task` panicked).
pub fn work_queue<S, R, I, F>(
    len: usize,
    threads: usize,
    recorder: &dyn Recorder,
    span: &str,
    init: I,
    task: F,
) -> (Vec<R>, Vec<TelemetryShard>)
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut TelemetryShard) -> R + Sync,
{
    if len == 0 {
        return (Vec::new(), Vec::new());
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        threads
    }
    .min(len);

    let next = AtomicUsize::new(0);
    let work = |worker: usize| -> (Vec<(usize, R)>, TelemetryShard) {
        let mut state = init();
        let mut shard = TelemetryShard::new(worker);
        let mut produced = Vec::new();
        let mut idle = Stopwatch::start();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= len {
                break;
            }
            shard.queue_wait_ns += idle.elapsed_ns();
            let busy = Stopwatch::start();
            let span_start = if recorder.enabled() {
                recorder.now_ns()
            } else {
                0
            };
            produced.push((k, task(&mut state, k, &mut shard)));
            shard.tasks += 1;
            shard.busy_ns += busy.elapsed_ns();
            if recorder.enabled() {
                recorder.span(span, worker, span_start, recorder.now_ns());
            }
            idle = Stopwatch::start();
        }
        (produced, shard)
    };

    let mut results: Vec<Option<R>> = (0..len).map(|_| None).collect();
    let mut shards = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (1..threads)
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        let mut collect = |(produced, shard): (Vec<(usize, R)>, TelemetryShard)| {
            for (k, r) in produced {
                results[k] = Some(r);
            }
            shards.push(shard);
        };
        collect(work(0));
        for handle in handles {
            collect(handle.join().expect("work-queue worker panicked"));
        }
    });
    (
        results
            .into_iter()
            .map(|r| r.expect("every index claimed"))
            .collect(),
        shards,
    )
}

/// Evaluate `f` over `items` on the [`work_queue`], returning results in
/// input order — bit-identical for every thread count as long as `f` is a
/// pure function of its item. `threads = 0` uses `available_parallelism`.
///
/// # Panics
///
/// Panics if a worker panics (i.e. `f` itself panicked).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_traced(items, threads, &NoopRecorder, |item, _| f(item)).0
}

/// [`par_map`] with per-worker telemetry: `f` folds domain counters into
/// its worker's [`TelemetryShard`], and the queue records tasks claimed,
/// busy time and queue wait per worker. When `recorder` is enabled, one
/// `"task"` span per item is emitted so a `--trace` run can reconstruct
/// the schedule.
///
/// # Panics
///
/// Panics if a worker panics (i.e. `f` itself panicked).
pub fn par_map_traced<T, R, F>(
    items: &[T],
    threads: usize,
    recorder: &dyn Recorder,
    f: F,
) -> (Vec<R>, Vec<TelemetryShard>)
where
    T: Sync,
    R: Send,
    F: Fn(&T, &mut TelemetryShard) -> R + Sync,
{
    work_queue(
        items.len(),
        threads,
        recorder,
        "task",
        || (),
        |(), k, shard| f(&items[k], shard),
    )
}

/// Run `runs` independent simulations (seeds `base_seed..base_seed+runs`)
/// in parallel and collect the reports in seed order.
///
/// Uses up to `available_parallelism` threads; see
/// [`run_many_with_threads`] for an explicit thread count. Results are
/// identical for every thread count.
///
/// # Panics
///
/// Panics if a worker thread panics (a bug in the simulator, not a
/// recoverable condition).
pub fn run_many(config: &SimConfig, runs: u64) -> Vec<SimReport> {
    run_many_with_threads(config, runs, 0)
}

/// As [`run_many`], with an explicit worker count (`0` = use
/// `available_parallelism`). Reports depend only on `config` and `runs`,
/// never on `threads`.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_many_with_threads(config: &SimConfig, runs: u64, threads: usize) -> Vec<SimReport> {
    run_many_recorded(config, runs, threads, &NoopRecorder).0
}

/// As [`run_many_with_threads`], additionally returning one
/// [`TelemetryShard`] per worker thread.
///
/// Each shard carries the [`work_queue`]'s busy time, queue wait and
/// tasks claimed, plus the deterministic counters `sim.runs`,
/// `sim.blocks`, `sim.engine_builds` and `sim.engine_reuses`. Counter
/// *totals* over all shards are bit-identical for every thread count
/// (each run contributes fixed deltas; only their grouping varies);
/// per-worker timing is a wall-clock measurement with no such guarantee.
/// When `recorder` is enabled, one `"run"` span per simulation is emitted.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_many_recorded(
    config: &SimConfig,
    runs: u64,
    threads: usize,
    recorder: &dyn Recorder,
) -> (Vec<SimReport>, Vec<TelemetryShard>) {
    let base = config.seed();
    let runs = usize::try_from(runs).expect("run count fits usize");
    work_queue(
        runs,
        threads,
        recorder,
        "run",
        || None::<Simulation>,
        |engine, k, shard| {
            let run_config = config.with_seed(base + k as u64);
            let report = match engine {
                Some(sim) => {
                    shard.add("sim.engine_reuses", 1);
                    sim.reset(run_config);
                    sim.run_in_place()
                }
                None => {
                    shard.add("sim.engine_builds", 1);
                    engine.insert(Simulation::new(run_config)).run_in_place()
                }
            };
            shard.add("sim.runs", 1);
            shard.add("sim.blocks", config.blocks());
            report
        },
    )
}

/// Mean and sample standard deviation of a metric over several runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single run).
    pub std_dev: f64,
}

/// Summarize an arbitrary per-run metric.
pub fn summarize<F: FnMut(&SimReport) -> f64>(reports: &[SimReport], mut metric: F) -> Summary {
    let n = reports.len();
    if n == 0 {
        return Summary {
            mean: 0.0,
            std_dev: 0.0,
        };
    }
    let values: Vec<f64> = reports.iter().map(&mut metric).collect();
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    Summary {
        mean,
        std_dev: var.sqrt(),
    }
}

/// Mean pool absolute revenue `U_s` across runs.
pub fn mean_absolute_pool(reports: &[SimReport], scenario: Scenario) -> Summary {
    summarize(reports, |r| r.absolute_pool(scenario))
}

/// Mean honest absolute revenue `U_h` across runs.
pub fn mean_absolute_honest(reports: &[SimReport], scenario: Scenario) -> Summary {
    summarize(reports, |r| r.absolute_honest(scenario))
}

/// Element-wise mean of the honest uncle-distance distributions.
pub fn mean_honest_distance_distribution(reports: &[SimReport]) -> Vec<f64> {
    if reports.is_empty() {
        return Vec::new();
    }
    let len = reports
        .iter()
        .map(|r| r.honest_uncle_histogram.len())
        .max()
        .unwrap_or(0);
    let mut acc = vec![0.0; len];
    for r in reports {
        let pmf = r.honest_distance_distribution();
        for (a, p) in acc.iter_mut().zip(pmf.iter()) {
            *a += p;
        }
    }
    for a in &mut acc {
        *a /= reports.len() as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(blocks: u64) -> SimConfig {
        SimConfig::builder()
            .alpha(0.3)
            .gamma(0.5)
            .blocks(blocks)
            .n_honest(50)
            .seed(100)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_matches_sequential() {
        let c = config(3_000);
        let seq: Vec<SimReport> = (0..4)
            .map(|k| Simulation::new(c.with_seed(100 + k)).run())
            .collect();
        let par = run_many(&c, 4);
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.pool.total(), p.pool.total());
            assert_eq!(s.reward_report.regular_count, p.reward_report.regular_count);
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        // Regression test for the chunked scheduler this module used to
        // have: per-seed results must be a pure function of the config,
        // bit-for-bit, whatever the worker count — including worker counts
        // exceeding the run count (the old degenerate-partition case).
        let c = config(2_000);
        let runs = 5;
        let reference = run_many_with_threads(&c, runs, 1);
        for threads in [2, 3, 8, 64] {
            let parallel = run_many_with_threads(&c, runs, threads);
            assert_eq!(parallel.len(), reference.len());
            for (r, p) in reference.iter().zip(parallel.iter()) {
                assert_eq!(r.pool.total(), p.pool.total(), "threads={threads}");
                assert_eq!(r.honest.total(), p.honest.total(), "threads={threads}");
                assert_eq!(
                    r.reward_report.regular_count, p.reward_report.regular_count,
                    "threads={threads}"
                );
                assert_eq!(
                    r.reward_report.uncle_count, p.reward_report.uncle_count,
                    "threads={threads}"
                );
                assert_eq!(r.state_visits, p.state_visits, "threads={threads}");
            }
        }
    }

    #[test]
    fn fewer_runs_than_threads() {
        // runs < threads used to yield degenerate chunk partitions; the
        // work queue must handle it and still return every report in seed
        // order.
        let c = config(500);
        let reports = run_many_with_threads(&c, 2, 16);
        assert_eq!(reports.len(), 2);
        let solo: Vec<SimReport> = (0..2)
            .map(|k| Simulation::new(c.with_seed(100 + k)).run())
            .collect();
        for (a, b) in reports.iter().zip(solo.iter()) {
            assert_eq!(a.pool.total(), b.pool.total());
        }
    }

    #[test]
    fn engine_reuse_matches_fresh_engines() {
        // The sequential path recycles one engine across seeds; recycling
        // must be observationally identical to constructing fresh engines.
        let c = config(1_500);
        let recycled = run_many_with_threads(&c, 3, 1);
        let fresh: Vec<SimReport> = (0..3)
            .map(|k| Simulation::new(c.with_seed(100 + k)).run())
            .collect();
        for (a, b) in recycled.iter().zip(fresh.iter()) {
            assert_eq!(a.pool.total(), b.pool.total());
            assert_eq!(a.reward_report.regular_count, b.reward_report.regular_count);
            assert_eq!(a.state_visits, b.state_visits);
        }
    }

    #[test]
    fn recorded_counter_totals_are_thread_invariant() {
        let c = config(1_000);
        let total = |threads: usize| {
            let (reports, shards) = run_many_recorded(&c, 6, threads, &seleth_obs::NoopRecorder);
            assert_eq!(reports.len(), 6);
            let merged = seleth_obs::Telemetry::merge_shards(&shards);
            (
                merged.counter("sim.runs"),
                merged.counter("sim.blocks"),
                merged.counter("sim.engine_builds") + merged.counter("sim.engine_reuses"),
            )
        };
        let reference = total(1);
        assert_eq!(reference, (6, 6_000, 6));
        for threads in [2, 3, 8] {
            assert_eq!(total(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn recorded_spans_cover_every_run() {
        let c = config(500);
        let log = seleth_obs::TraceLog::new();
        let (_, shards) = run_many_recorded(&c, 3, 2, &log);
        assert_eq!(log.events().len(), 3);
        let tasks: u64 = shards.iter().map(|s| s.tasks).sum();
        assert_eq!(tasks, 3);
    }

    #[test]
    fn par_map_preserves_order_and_thread_invariance() {
        let items: Vec<u64> = (0..23).collect();
        let reference: Vec<u64> = items.iter().map(|v| v * v).collect();
        for threads in [0, 1, 2, 7, 64] {
            let out = par_map(&items, threads, |v| v * v);
            assert_eq!(out, reference, "threads={threads}");
        }
        assert_eq!(par_map::<u64, u64, _>(&[], 4, |v| *v), Vec::<u64>::new());
    }

    #[test]
    fn par_map_traced_is_thread_invariant_and_counts_work() {
        let items: Vec<u64> = (0..17).collect();
        let reference: Vec<u64> = items.iter().map(|v| v * 3).collect();
        for threads in [1, 2, 8] {
            let (out, shards) =
                par_map_traced(&items, threads, &seleth_obs::NoopRecorder, |v, shard| {
                    shard.add("item.sum", *v);
                    v * 3
                });
            assert_eq!(out, reference, "threads={threads}");
            assert_eq!(shards.iter().map(|s| s.tasks).sum::<u64>(), 17);
            // Counter totals are bit-identical in any worker grouping.
            assert_eq!(
                shards.iter().map(|s| s.counter("item.sum")).sum::<u64>(),
                items.iter().sum::<u64>(),
                "threads={threads}"
            );
        }
        let trace = seleth_obs::TraceLog::new();
        let (_, shards) = par_map_traced(&items, 2, &trace, |v, _| *v);
        assert_eq!(trace.len(), items.len(), "one span per task");
        assert!(trace.events().iter().all(|e| e.name == "task"));
        assert!(shards.iter().all(|s| s.tasks == 0 || s.busy_ns > 0));
    }

    #[test]
    fn worker_state_is_built_once_and_results_keep_input_order() {
        use std::sync::atomic::AtomicUsize;

        for threads in [0usize, 1, 2, 64] {
            for len in [0usize, 1, 5] {
                let builds = AtomicUsize::new(0);
                let (out, shards) = work_queue(
                    len,
                    threads,
                    &NoopRecorder,
                    "task",
                    || (builds.fetch_add(1, Ordering::Relaxed), 0usize),
                    |(id, runs), k, shard| {
                        *runs += 1;
                        shard.add("runs", 1);
                        (k, *id, *runs)
                    },
                );
                let label = format!("threads={threads} len={len}");
                let indices: Vec<usize> = out.iter().map(|&(k, _, _)| k).collect();
                assert_eq!(indices, (0..len).collect::<Vec<_>>(), "{label}");
                // One state per worker, never rebuilt between its tasks.
                let built = builds.load(Ordering::Relaxed);
                assert_eq!(built, shards.len(), "{label}");
                assert!(built <= len, "{label}");
                if threads > 0 {
                    assert!(built <= threads, "{label}");
                }
                for (id, shard) in shards.iter().enumerate() {
                    assert_eq!(shard.worker, id, "{label}");
                }
                // A state's run counter climbs 1, 2, ... across the tasks
                // it serves, so each state's tasks sum to its shard's.
                let mut per_state = vec![0u64; built];
                for &(_, id, runs) in &out {
                    per_state[id] = per_state[id].max(runs as u64);
                }
                assert_eq!(per_state.iter().sum::<u64>(), len as u64, "{label}");
                let tasks: u64 = shards.iter().map(|s| s.tasks).sum();
                assert_eq!(tasks, len as u64, "{label}");
            }
        }
    }

    #[test]
    fn summary_statistics() {
        let c = config(2_000);
        let reports = run_many(&c, 3);
        let s = mean_absolute_pool(&reports, Scenario::RegularRate);
        assert!(s.mean > 0.0);
        assert!(s.std_dev >= 0.0);
        // Distinct seeds → some variation.
        assert!(s.std_dev > 0.0);
    }

    #[test]
    fn empty_and_single_run_summaries() {
        assert_eq!(
            summarize(&[], |_| 1.0),
            Summary {
                mean: 0.0,
                std_dev: 0.0
            }
        );
        let c = config(1_000);
        let reports = run_many(&c, 1);
        let s = summarize(&reports, |r| r.alpha);
        assert_eq!(s.mean, 0.3);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn mean_distance_distribution_normalized() {
        let c = config(5_000);
        let reports = run_many(&c, 2);
        let pmf = mean_honest_distance_distribution(&reports);
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mean pmf sums to {total}");
    }
}
