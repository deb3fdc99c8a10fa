//! `alg1_engine`: the paper's Fig. 8 simulation. `multi::run_many` of
//! Algorithm 1 (`PoolStrategy::Selfish`) at α = 0.3, γ = 0.5 with the
//! Ethereum schedule and 999 honest miners, ten runs of 100,000 blocks
//! per job (the paper's Section V setup).
//!
//! Nearly all of its time is block minting and uncle selection
//! (`Simulation::step`) and post-hoc settlement (`Simulation::finalize`:
//! fork choice, uncle classification, accounting), spread over the
//! `multi` scheduler's workers. It never calls `seleth-net`, `seleth-mdp`
//! or `seleth-markov` (the theory reference is computed once, untimed).

use std::hint::black_box;
use std::time::Instant;

use seleth_chain::accounting;
use seleth_chain::classify;
use seleth_chain::forkchoice::{longest_chain, TieBreak};
use seleth_chain::{BlockTree, RewardSchedule, Scenario};
use seleth_core::{Analysis, ModelParams};
use seleth_obs::NoopRecorder;
use seleth_sim::{multi, PoolStrategy, SimConfig, SimReport, Simulation};

use crate::{nanos, secs, splitmix64, Options, Plain, SetupTimer, Size, Traced};

const ALPHA: f64 = 0.3;
const GAMMA: f64 = 0.5;
const N_HONEST: u32 = 999;
/// Steps timed per batch in the traced drive: long enough that the two
/// clock reads vanish, short enough to keep the drive's loop shape.
const STEP_BATCH: u64 = 4096;

/// `(runs per job, blocks per run)`.
fn shape(size: Size) -> (u64, u64) {
    match size {
        Size::Full => (10, 100_000),
        Size::Tiny => (8, 5_000),
    }
}

fn config(seed: u64, blocks: u64) -> Result<SimConfig, String> {
    SimConfig::builder()
        .alpha(ALPHA)
        .gamma(GAMMA)
        .n_honest(N_HONEST)
        .blocks(blocks)
        .seed(seed)
        .schedule(RewardSchedule::ethereum())
        .strategy(PoolStrategy::Selfish)
        .build()
        .map_err(|e| format!("alg1_engine config: {e}"))
}

/// The analytical pool revenue (scenario 1) at the workload's α and γ.
fn theory() -> Result<f64, String> {
    let params = ModelParams::new(ALPHA, GAMMA, RewardSchedule::ethereum())
        .map_err(|e| format!("alg1_engine reference: {e}"))?;
    let analysis = Analysis::new(&params).map_err(|e| format!("alg1_engine reference: {e}"))?;
    Ok(analysis.revenue().absolute_pool(Scenario::RegularRate))
}

/// The job's mean pool revenue lies within 3 standard errors + 1% of the
/// Markov analysis.
fn revenue_matches(reports: &[SimReport], theory: f64) -> bool {
    let us = multi::mean_absolute_pool(reports, Scenario::RegularRate);
    let std_err = us.std_dev / (reports.len() as f64).sqrt();
    (us.mean - theory).abs() <= 3.0 * std_err + 0.01 * theory
}

/// First run seed of job `k`: jobs never reuse a run seed.
fn job_seed(base: u64, k: u64, runs: u64) -> u64 {
    base.wrapping_add(k.wrapping_mul(runs))
}

/// Plain run: one client submits a job, waits for it, and submits the
/// next until the budget is spent.
///
/// # Errors
///
/// When the configuration or the theory reference cannot be built.
pub(crate) fn run(opts: &Options) -> Result<Plain, String> {
    let (runs, blocks) = shape(opts.size);
    let base = splitmix64(opts.seed);
    let (config, mut setup) = SetupTimer::start(|| config(base, blocks))?;
    let theory = theory()?;
    let mut budget = opts.budget();
    let mut plain = Plain {
        blocks_per_job: Some(runs * blocks),
        ..Plain::default()
    };
    let mut k = 0u64;
    loop {
        let job = config.with_seed(job_seed(base, k, runs));
        let t = Instant::now();
        let reports = multi::run_many(&job, runs);
        plain.job_walls.push(secs(t));
        plain.attempted += runs;
        if reports.len() as u64 != runs || !revenue_matches(&reports, theory) {
            plain.failed += runs;
        }
        k += 1;
        setup.sample()?;
        if !budget.another() {
            break;
        }
    }
    plain.setup = setup.samples;
    plain.notes.push(format!(
        "  jobs: {k} x run_many({runs} runs x {blocks} blocks); reference Us = {theory:.6}"
    ));
    Ok(plain)
}

/// Traced run: per round, the same job untimed-inside at 1 worker and at
/// `available_parallelism` workers, then every run again driven step by
/// step from outside with its settlement replayed layer by layer.
///
/// # Errors
///
/// When the configuration cannot be built or a rebuilt tree is rejected.
pub(crate) fn trace(opts: &Options) -> Result<Traced, String> {
    let (runs, blocks) = shape(opts.size);
    let base = splitmix64(opts.seed);
    let config = config(base, blocks)?;
    let theory = theory()?;
    let schedule = RewardSchedule::ethereum();
    let total_blocks = (runs * blocks) as f64;
    let mut budget = opts.budget();
    let mut traced = Traced::default();
    let mut k = 0u64;
    loop {
        let job = config.with_seed(job_seed(base, k, runs));

        let t = Instant::now();
        let single = multi::run_many_with_threads(&job, runs, 1);
        let wall_t1 = secs(t);
        let t = Instant::now();
        let (parallel, shards) = multi::run_many_recorded(&job, runs, 0, &NoopRecorder);
        let wall_tn = secs(t);
        traced.attempted += 2 * runs;
        if !revenue_matches(&single, theory) {
            traced.failed += runs;
        }
        if !revenue_matches(&parallel, theory) {
            traced.failed += runs;
        }
        let workers = shards.len().max(1) as f64;
        let busy: u64 = shards.iter().map(|s| s.busy_ns).sum();
        let waited: u64 = shards.iter().map(|s| s.queue_wait_ns).sum();
        traced.record(
            "sim.multi.busy_fraction",
            busy as f64 / (workers * wall_tn * 1e9),
        );
        traced.record("sim.multi.queue_wait_ms", waited as f64 / workers / 1e6);
        traced.record("sim.multi.speedup_t2", wall_t1 / wall_tn);

        let mut drive_ns = 0.0;
        let mut step_ns = 0.0;
        let mut finalize_ns = 0.0;
        let mut longest_ns = 0.0;
        let mut uncles_ns = 0.0;
        let mut account_ns = 0.0;
        let mut add_ns = 0.0;
        let (mut regular, mut uncle, mut mined) = (0u64, 0u64, 0u64);
        for (i, untraced) in single.iter().enumerate() {
            let drive = Instant::now();
            let mut sim = Simulation::new(job.with_seed(job.seed().wrapping_add(i as u64)));
            let mut left = blocks;
            while left > 0 {
                let n = left.min(STEP_BATCH);
                let t = Instant::now();
                for _ in 0..n {
                    sim.step();
                }
                step_ns += nanos(t);
                left -= n;
            }
            let before_clone = nanos(drive);
            // `finalize` consumes the engine; keep the finished tree for
            // the replays below (finalize only marks blocks published).
            let tree = sim.tree().clone();
            let t = Instant::now();
            let report = sim.finalize();
            finalize_ns += nanos(t);
            drive_ns += before_clone + nanos(t);

            let t = Instant::now();
            let chain = longest_chain(&tree, TieBreak::FirstSeen);
            longest_ns += nanos(t);
            let t = Instant::now();
            let events = classify::uncle_events_with_cap(
                &tree,
                &chain,
                schedule.max_uncle_distance(),
                schedule.max_uncles_per_block(),
            );
            uncles_ns += nanos(t);
            let t = Instant::now();
            let accounted = accounting::account_with_events(&tree, &chain, &schedule, &events);
            account_ns += nanos(t);

            let t = Instant::now();
            let mut rebuilt = BlockTree::new();
            for block in tree.iter().skip(1) {
                let parent = block.parent().ok_or("non-genesis block without a parent")?;
                rebuilt
                    .add_block(parent, block.miner(), block.uncle_refs())
                    .map_err(|e| format!("rebuilding the finished tree: {e}"))?;
            }
            add_ns += nanos(t);
            black_box(&rebuilt);

            traced.attempted += 1;
            let same = report.reward_report.regular_count == untraced.reward_report.regular_count
                && report.pool.total().to_bits() == untraced.pool.total().to_bits()
                && accounted.regular_count == report.reward_report.regular_count
                && accounted.uncle_count == report.reward_report.uncle_count
                && rebuilt.len() == tree.len();
            if !same {
                traced.failed += 1;
            }
            regular += report.reward_report.regular_count;
            uncle += report.reward_report.uncle_count;
            mined += report.reward_report.block_count();
        }
        traced.record("sim.engine.step_ns_per_block", step_ns / total_blocks);
        traced.record(
            "sim.engine.finalize_ns_per_block",
            finalize_ns / total_blocks,
        );
        traced.record(
            "chain.longest_chain_ns_per_block",
            longest_ns / total_blocks,
        );
        traced.record("chain.uncle_events_ns_per_block", uncles_ns / total_blocks);
        traced.record("chain.account_ns_per_block", account_ns / total_blocks);
        traced.record("chain.add_block_ns", add_ns / total_blocks);
        traced.record("chain.regular_ratio", regular as f64 / mined as f64);
        traced.record("chain.uncle_refs_per_block", uncle as f64 / regular as f64);
        traced.record(
            "reconcile.residual_frac",
            1.0 - (step_ns + finalize_ns) / drive_ns,
        );
        traced.record("trace.overhead_frac", drive_ns / (wall_t1 * 1e9) - 1.0);

        k += 1;
        if !budget.another() {
            break;
        }
    }
    traced.notes.push(format!(
        "  rounds: {k}; reconcile: step + finalize vs the traced sequential drive (tolerance |residual| <= 0.05); overhead: that drive vs run_many at 1 worker"
    ));
    Ok(traced)
}
