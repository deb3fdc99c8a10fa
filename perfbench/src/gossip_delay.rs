//! `gossip_delay`: `DelaySimulation::run` with the committed
//! `ethereum_a030_g050` strategist (share 0.3) against seven honest
//! miners at 0.1 each, delay 6 s, interval 13 s, Ethereum schedule, on a
//! fixed peer graph of 8 miners and 8 relays.
//!
//! Every link is lossy (2–5%) with `Latency::Uniform` jitter, so the graph
//! stays off `Topology::is_static`'s precompiled path and every release
//! runs the gossip engine (`Topology::propagate`). The graph's shape is a
//! constant of the benchmark; the workload seed picks the per-edge draw
//! seed and the simulation seeds.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use seleth_chain::RewardSchedule;
use seleth_mdp::PolicyTable;
use seleth_net::{Latency, Link, Topology};
use seleth_sim::delay::{DelayConfig, DelayReport, DelaySimulation, PropagationModel};

use crate::{nanos, secs, splitmix64, Options, Plain, SetupTimer, Size, Summary, Traced};

const SHARES: [f64; 8] = [0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1];
const DELAY: f64 = 6.0;
const INTERVAL: f64 = 13.0;
const RELAYS: usize = 8;
/// Seed of the graph's shape (which links exist, their latency ranges
/// and loss rates). Fixed, so every workload seed measures one graph.
const SHAPE_SEED: u64 = 0x6055_1bde_1a70_0008;

fn blocks(size: Size) -> u64 {
    match size {
        Size::Full => 100_000,
        Size::Tiny => 3_000,
    }
}

/// A counter-based stream of uniform draws for the graph shape.
struct Draws(u64);

impl Draws {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(1);
        (splitmix64(self.0) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// The workload's peer graph: a relay ring with four chords, and every
/// miner attached to two distinct relays; each link lossy and jittered,
/// rescaled so the mean miner-to-miner latency equals the 6 s delay.
fn topology(edge_seed: u64) -> Result<Topology, String> {
    let mut draws = Draws(SHAPE_SEED);
    let mut b = Topology::builder();
    let miners = b.miners(SHARES.len());
    let relays: Vec<usize> = (0..RELAYS).map(|_| b.relay()).collect();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..RELAYS {
        pairs.push((relays[i], relays[(i + 1) % RELAYS]));
    }
    for i in 0..RELAYS / 2 {
        pairs.push((relays[i], relays[i + RELAYS / 2]));
    }
    for m in 0..SHARES.len() {
        let first = draws.below(RELAYS);
        let second = (first + 1 + draws.below(RELAYS - 1)) % RELAYS;
        pairs.push((miners + m, relays[first]));
        pairs.push((miners + m, relays[second]));
    }
    for (a, c) in pairs {
        let lo = 0.5 + draws.unit();
        let hi = lo + 0.5 + draws.unit();
        let loss = 0.02 + 0.03 * draws.unit();
        for (from, to) in [(a, c), (c, a)] {
            b.edge_spec(Link {
                from,
                to,
                latency: Latency::Uniform { lo, hi },
                loss,
                shortcut: false,
            });
        }
    }
    b.seed(edge_seed)
        .build()
        .and_then(|t| t.scaled_to_mean(DELAY))
        .map_err(|e| format!("gossip_delay topology: {e}"))
}

fn load_policy(path: &Path) -> Result<PolicyTable, String> {
    PolicyTable::load(path).map_err(|e| format!("gossip_delay policy {}: {e}", path.display()))
}

fn config(
    table: PolicyTable,
    topology: Topology,
    seed: u64,
    blocks: u64,
) -> Result<DelayConfig, String> {
    DelayConfig::builder()
        .shares(SHARES.to_vec())
        .policy(0, table)
        .tie_gamma(0.5)
        .delay(DELAY)
        .interval(INTERVAL)
        .blocks(blocks)
        .seed(seed)
        .schedule(RewardSchedule::ethereum())
        .topology(topology)
        .build()
        .map_err(|e| format!("gossip_delay config: {e}"))
}

/// Full set-up from the workload seed: artifact load, graph build,
/// configuration.
fn setup(opts: &Options) -> Result<DelayConfig, String> {
    let base = splitmix64(opts.seed);
    let table = load_policy(&opts.refs.policy_artifact)?;
    let topology = topology(splitmix64(base))?;
    config(table, topology, base, blocks(opts.size))
}

/// Simulation seed of job `k`.
fn job_seed(base: u64, k: u64) -> u64 {
    base.wrapping_add(k)
}

/// The graph reached every miner, and the run conserved blocks and
/// rewards: every mined block is classified once, per-miner tallies sum
/// to the report's totals, and static rewards equal the regular blocks.
fn conserved(r: &DelayReport, blocks: u64) -> bool {
    let miners: Vec<_> = (0..SHARES.len()).map(|i| r.miner(i)).collect();
    let sum =
        |f: fn(&seleth_chain::accounting::MinerRewards) -> u64| miners.iter().map(f).sum::<u64>();
    let statics: f64 = miners.iter().map(|m| m.static_reward).sum();
    let rewards: f64 = miners.iter().map(|m| m.total()).sum();
    let total = r.report.total_reward();
    r.counters.gossip_unreachable == 0
        && r.report.block_count() == blocks
        && sum(|m| m.regular_blocks) == r.report.regular_count
        && sum(|m| m.uncle_blocks) == r.report.uncle_count
        && sum(|m| m.stale_blocks) == r.report.stale_count
        && (statics - r.report.regular_count as f64).abs() <= 1e-9 * statics.max(1.0)
        && (rewards - total).abs() <= 1e-9 * total.max(1.0)
}

/// Bitwise equality of two runs' totals and counters.
fn identical(a: &DelayReport, b: &DelayReport) -> bool {
    a.counters == b.counters
        && a.report.regular_count == b.report.regular_count
        && a.report.uncle_count == b.report.uncle_count
        && a.report.stale_count == b.report.stale_count
        && (0..SHARES.len()).all(|i| a.miner(i).total().to_bits() == b.miner(i).total().to_bits())
}

/// Plain run: jobs back to back until the budget is spent, then the first
/// job again with the same seed, which must reproduce it bit for bit.
///
/// # Errors
///
/// When the artifact, graph or configuration cannot be built.
pub(crate) fn run(opts: &Options) -> Result<Plain, String> {
    let blocks = blocks(opts.size);
    let base = splitmix64(opts.seed);
    let (config, mut setup) = SetupTimer::start(|| setup(opts))?;
    let mut budget = opts.budget();
    let mut plain = Plain {
        blocks_per_job: Some(blocks),
        ..Plain::default()
    };
    let mut first: Option<DelayReport> = None;
    let mut orphans = Vec::new();
    let mut k = 0u64;
    loop {
        let job = config.with_seed(job_seed(base, k));
        let t = Instant::now();
        let report = DelaySimulation::new(job).run();
        plain.job_walls.push(secs(t));
        plain.attempted += 1;
        if !conserved(&report, blocks) {
            plain.failed += 1;
        }
        orphans.push(report.orphan_rate());
        if first.is_none() {
            first = Some(report);
        }
        k += 1;
        setup.sample()?;
        if !budget.another() {
            break;
        }
    }
    let repeat = DelaySimulation::new(config.with_seed(job_seed(base, 0))).run();
    plain.attempted += 1;
    if !first.as_ref().is_some_and(|f| identical(f, &repeat)) {
        plain.failed += 1;
    }
    let orphan = Summary::of(&orphans).median;
    plain.setup = setup.samples;
    plain.notes.push(format!(
        "  jobs: {k} x DelaySimulation::run({blocks} blocks) + 1 same-seed repeat; median orphan rate {orphan:.4}"
    ));
    Ok(plain)
}

/// Traced run: per round, the job untraced, then again with the set-up
/// calls timed, and `Topology::propagate` replayed on the workload's graph
/// once per released block.
///
/// # Errors
///
/// When the artifact, graph or configuration cannot be built.
pub(crate) fn trace(opts: &Options) -> Result<Traced, String> {
    let blocks = blocks(opts.size);
    let base = splitmix64(opts.seed);
    let plain_config = setup(opts)?;
    let mut budget = opts.budget();
    let mut traced = Traced::default();
    let mut k = 0u64;
    loop {
        let seed = job_seed(base, k);
        let t = Instant::now();
        let untraced = DelaySimulation::new(plain_config.with_seed(seed)).run();
        let untraced_ns = nanos(t);

        let job = Instant::now();
        let t = Instant::now();
        let table = load_policy(&opts.refs.policy_artifact)?;
        let load_ns = nanos(t);
        let t = Instant::now();
        let topology = topology(splitmix64(base))?;
        let topology_ns = nanos(t);
        let job_config = config(table, topology, seed, blocks)?;
        let PropagationModel::Graph(replay_graph) = job_config.propagation().clone() else {
            return Err("gossip_delay config lost its graph".to_string());
        };
        let t = Instant::now();
        let report = DelaySimulation::new(job_config).run();
        let run_ns = nanos(t);
        let job_ns = nanos(job);

        let c = report.counters;
        let released = c.released_blocks.max(1);
        let miners = SHARES.len() as u64;
        let t = Instant::now();
        for b in 0..c.released_blocks {
            black_box(replay_graph.propagate((b % miners) as usize, b));
        }
        let propagate_ns = nanos(t);

        traced.attempted += 2;
        if !conserved(&untraced, blocks) || !identical(&untraced, &report) {
            traced.failed += 2;
        }
        let per_release = |n: u64| n as f64 / released as f64;
        traced.record("net.propagate_ns_per_call", propagate_ns / released as f64);
        traced.record("net.propagate_share", propagate_ns / run_ns);
        traced.record("net.sends_per_release", per_release(c.gossip_sends));
        traced.record(
            "net.useful_send_ratio",
            (c.gossip_sends - c.gossip_dedup_drops) as f64 / c.gossip_sends.max(1) as f64,
        );
        traced.record(
            "net.loss_retries_per_release",
            per_release(c.gossip_loss_retries),
        );
        traced.record(
            "sim.delay.self_ns_per_block",
            (run_ns - propagate_ns) / blocks as f64,
        );
        traced.record("sim.delay.orphan_rate", report.orphan_rate());
        traced.record(
            "sim.delay.deliveries_per_block",
            c.deliveries as f64 / blocks as f64,
        );
        traced.record(
            "chain.regular_ratio",
            report.report.regular_count as f64 / report.report.block_count() as f64,
        );
        traced.record(
            "chain.uncle_refs_per_block",
            report.report.uncle_count as f64 / report.report.regular_count as f64,
        );
        traced.record("mdp.policy_load_ms", load_ns / 1e6);
        traced.record(
            "reconcile.residual_frac",
            1.0 - (load_ns + topology_ns + run_ns) / job_ns,
        );
        traced.record("trace.overhead_frac", run_ns / untraced_ns - 1.0);

        k += 1;
        if !budget.another() {
            break;
        }
    }
    traced.notes.push(format!(
        "  rounds: {k}; propagate replayed once per released block (producer = block mod 8); delay self time = run wall - replayed propagate total, so the residual (tolerance |residual| <= 0.05) covers only configuration glue"
    ));
    Ok(traced)
}
