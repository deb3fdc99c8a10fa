//! Chaos study: does the withholding advantage survive a faulty network?
//!
//! PR 3's delay study showed propagation delay *bleeding* the optimal
//! artifact's edge — a graceful degradation, not a collapse. This
//! experiment asks the same question about the rest of the failure
//! spectrum, using the deterministic fault-injection layer
//! (`seleth_sim::faults`): per-link message **loss** (re-gossiped with
//! capped exponential backoff), miner **crash/recovery churn** (hash
//! power thins out; strategists resync via the forced-adopt path on
//! rejoin), and timed network **partitions** that heal.
//!
//! Sweep: the full loss-rate × churn × partition grid at a 6 s delay —
//! loss ∈ {0, 0.1, 0.25}, churn off/on, partitions off/on — plus the
//! zero-delay zero-fault anchor cell, over three strategists (the saved
//! `bitcoin_a040_g050` optimal artifact and the zoo's SM1 and
//! lead-stubborn families) × two share splits (duopoly and the 2018 pool
//! landscape). Every fault schedule is a pure function of the plan seed,
//! so the whole study is bit-reproducible at any thread count.
//!
//! The zero-delay zero-fault duopoly cell is **gated** for the solved
//! artifact: measured revenue must reproduce the artifact's recorded ρ*
//! within 3 standard errors or 1% absolute (exit code 1 otherwise) —
//! the same anchor the delay study gates, proving the fault layer's
//! zero-fault path changed nothing.
//!
//! Output: `results/chaos_study.json` — one series per (strategy, split)
//! with one entry per grid cell — plus a human-readable table on stdout.
//!
//! Environment knobs: `SELETH_RUNS` (4), `SELETH_BLOCKS` (30 000),
//! `SELETH_MDP_LEN` (30), `SELETH_FAULT_SEED` (90 210), `SELETH_RESULTS`,
//! `SELETH_POLICIES`. Pass `--smoke` for the CI gate: the artifact only,
//! duopoly split, a reduced grid, small budgets, loosened tolerance.

use std::fmt::Write as _;

use seleth_bench::json_f64;
use seleth_bench::report::{gate_tolerance, replay_revenue, trace_arg, write_trace};
use seleth_chain::RewardSchedule;
use seleth_mdp::{PolicyTable, RewardModel};
use seleth_obs::{NoopRecorder, Recorder, Stopwatch, Telemetry, TelemetryShard, TraceLog};
use seleth_sim::delay::DelayConfig;
use seleth_sim::{multi, pools, FaultPlan};
use seleth_zoo::Family;

/// Mean block interval for every run (Ethereum-like, seconds).
const INTERVAL: f64 = 13.0;
/// Propagation delay of every fault-grid cell (delay/interval ≈ 0.46,
/// the regime where PR 3 measured a sizeable but graceful degradation).
const DELAY: f64 = 6.0;
const SEED: u64 = 57_005;

/// Crash/recovery churn of the `churn` cells: miners are down ~13% of
/// the time in many short outages (mean 5 min down per ~38 min up).
const CHURN_UPTIME: f64 = 2_300.0;
const CHURN_DOWNTIME: f64 = 345.0;

/// Partition cadence of the `partition` cells: a 2-group split opens
/// every `PARTITION_EVERY` seconds and heals after `PARTITION_LEN`.
const PARTITION_EVERY: f64 = 40_000.0;
const PARTITION_LEN: f64 = 4_000.0;

struct Strategy {
    name: String,
    table: PolicyTable,
    alpha: f64,
    gamma: f64,
    /// Predicted revenue of the strategy at the anchor cell (ρ* for the
    /// solved artifact, the family's closed form otherwise).
    rho: f64,
    /// Whether the zero-delay zero-fault duopoly cell is gated against
    /// `rho`.
    gated: bool,
}

/// One grid cell: a delay plus a fault plan.
struct CellSpec {
    name: &'static str,
    delay: f64,
    loss: f64,
    churn: bool,
    partition: bool,
}

impl CellSpec {
    fn zero_fault(&self) -> bool {
        self.loss == 0.0 && !self.churn && !self.partition
    }

    /// Compile the cell into a fault plan for `miners` participants.
    /// Partition windows cover the whole mining horizon; the group split
    /// alternates miners (the strategist always lands in group 0).
    fn plan(&self, miners: usize, horizon: f64, fault_seed: u64) -> FaultPlan {
        let mut b = FaultPlan::builder();
        b.seed(fault_seed).loss(self.loss);
        if self.churn {
            b.churn(CHURN_UPTIME, CHURN_DOWNTIME);
        }
        if self.partition {
            let groups: Vec<usize> = (0..miners).map(|i| i % 2).collect();
            let mut start = PARTITION_EVERY;
            while start < horizon {
                b.partition(start, start + PARTITION_LEN, groups.clone());
                start += PARTITION_EVERY;
            }
        }
        b.build().expect("grid cells are valid plans")
    }
}

/// The full grid: the zero-delay anchor, then loss × churn × partition
/// at the study delay.
fn grid() -> Vec<CellSpec> {
    let mut cells = vec![CellSpec {
        name: "anchor_delay0",
        delay: 0.0,
        loss: 0.0,
        churn: false,
        partition: false,
    }];
    let names = [
        ["baseline", "partition", "churn", "churn_partition"],
        [
            "loss10",
            "loss10_partition",
            "loss10_churn",
            "loss10_churn_partition",
        ],
        [
            "loss25",
            "loss25_partition",
            "loss25_churn",
            "loss25_churn_partition",
        ],
    ];
    for (li, &loss) in [0.0, 0.10, 0.25].iter().enumerate() {
        for (ci, churn) in [false, true].into_iter().enumerate() {
            for (pi, partition) in [false, true].into_iter().enumerate() {
                cells.push(CellSpec {
                    name: names[li][ci * 2 + pi],
                    delay: DELAY,
                    loss,
                    churn,
                    partition,
                });
            }
        }
    }
    cells
}

struct CellResult {
    mean: f64,
    std_err: f64,
    orphan_rate: f64,
    /// Fraction of the block budget actually mined (< 1 under churn:
    /// crashed slots thin out of the Poisson race).
    mined_fraction: f64,
}

/// One evaluated cell: `runs` independent seeds, fault schedule re-seeded
/// alongside the simulation seed, through the shared replay loop. The
/// runs' deterministic engine counters fold into the worker's telemetry
/// shard.
fn eval_cell(
    strategy: &Strategy,
    shares: &[f64],
    cell: &CellSpec,
    runs: u64,
    blocks: u64,
    fault_seed: u64,
    shard: &mut TelemetryShard,
) -> CellResult {
    // Generous horizon for the partition schedule: mean mining time plus
    // slack (windows beyond the actual end are simply never reached).
    let horizon = 2.0 * blocks as f64 * INTERVAL;
    let plan = cell.plan(shares.len(), horizon, fault_seed);
    let outcome = replay_revenue(runs, 1, |k| {
        DelayConfig::builder()
            .shares(shares.to_vec())
            .policy(0, strategy.table.clone())
            .tie_gamma(strategy.gamma)
            .delay(cell.delay)
            .interval(INTERVAL)
            .schedule(RewardSchedule::bitcoin())
            .blocks(blocks)
            .seed(SEED + k)
            .faults(plan.with_seed(fault_seed + k))
            .build()
            .expect("valid chaos config")
    });
    outcome.counters.record_into(shard);
    shard.add("study.runs", runs);
    CellResult {
        mean: outcome.mean(),
        std_err: outcome.std_err(),
        orphan_rate: outcome.orphan_rate,
        mined_fraction: outcome.mined_fraction,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trace_path = trace_arg();
    let trace = TraceLog::new();
    let recorder: &dyn Recorder = if trace_path.is_some() {
        &trace
    } else {
        &NoopRecorder
    };
    let wall = Stopwatch::start();
    let mut telemetry = Telemetry::new();
    let runs = seleth_bench::env_u64("SELETH_RUNS", if smoke { 2 } else { 4 });
    let blocks = seleth_bench::env_u64("SELETH_BLOCKS", if smoke { 6_000 } else { 30_000 });
    let max_len = u32::try_from(seleth_bench::env_u64("SELETH_MDP_LEN", 30)).unwrap_or(30);
    let fault_seed = seleth_bench::env_u64("SELETH_FAULT_SEED", 90_210);

    let artifact = seleth_bench::load_or_solve_policy(
        "bitcoin_a040_g050",
        0.40,
        0.5,
        RewardModel::Bitcoin,
        max_len,
    );
    let rho_star = artifact.predicted_revenue();
    let mut strategies = vec![Strategy {
        name: "bitcoin_a040_g050".into(),
        table: artifact,
        alpha: 0.40,
        gamma: 0.5,
        rho: rho_star,
        gated: true,
    }];
    if !smoke {
        for family in [Family::Sm1, Family::LeadStubborn { k: 2 }] {
            strategies.push(Strategy {
                name: family.id(),
                table: family.table(0.35, 0.5, max_len),
                alpha: 0.35,
                gamma: 0.5,
                rho: family.predicted_revenue(0.35, 0.5),
                gated: false,
            });
        }
    }

    let cells = grid();
    let cells: Vec<CellSpec> = if smoke {
        cells
            .into_iter()
            .filter(|c| {
                matches!(
                    c.name,
                    "anchor_delay0" | "baseline" | "loss25" | "churn_partition"
                )
            })
            .collect()
    } else {
        cells
    };

    println!(
        "Chaos study: withholding under loss x churn x partitions \
         ({runs} runs x {blocks} blocks per cell, {INTERVAL}s interval, \
         {DELAY}s delay{})\n",
        if smoke { ", SMOKE" } else { "" }
    );
    println!(
        "{:>20} {:>9} {:>22} {:>9} {:>9} {:>+9} {:>8} {:>7}",
        "strategy", "split", "cell", "revenue", "std_err", "vs_rho", "orphans", "mined"
    );

    let mut failed = false;
    let mut series_json = Vec::new();
    for strategy in &strategies {
        let splits: &[(&str, Vec<f64>)] = &[
            ("duopoly", vec![strategy.alpha, 1.0 - strategy.alpha]),
            ("pools2018", pools::shares_with_strategist(strategy.alpha)),
        ];
        let splits = if smoke { &splits[..1] } else { splits };

        for (split_name, shares) in splits {
            // Grid cells in parallel through the shared work-queue
            // helper; results are bit-identical for every thread count.
            let sweep = Stopwatch::start();
            let (results, shards) = multi::par_map_traced(&cells, 0, recorder, |cell, shard| {
                eval_cell(strategy, shares, cell, runs, blocks, fault_seed, shard)
            });
            telemetry.add_phase("sweep", sweep.elapsed_ns());
            for shard in &shards {
                telemetry.fold_shard(shard);
            }
            for (cell, r) in cells.iter().zip(&results) {
                println!(
                    "{:>20} {:>9} {:>22} {:>9.5} {:>9.5} {:>+9.5} {:>8.4} {:>7.4}",
                    strategy.name,
                    split_name,
                    cell.name,
                    r.mean,
                    r.std_err,
                    r.mean - strategy.rho,
                    r.orphan_rate,
                    r.mined_fraction
                );
            }

            // The anchor cell must reproduce the artifact's ρ* — the
            // fault layer's zero-fault path is the PR 3 delay engine.
            if strategy.gated && *split_name == "duopoly" {
                let anchor = &results[0];
                assert!(cells[0].zero_fault() && cells[0].delay == 0.0);
                let diff = (anchor.mean - strategy.rho).abs();
                let tolerance = gate_tolerance(smoke, anchor.std_err);
                if diff > tolerance {
                    eprintln!(
                        "FAIL {}: anchor revenue {:.5} vs rho* {:.5} exceeds \
                         tolerance {tolerance:.5}",
                        strategy.name, anchor.mean, strategy.rho
                    );
                    failed = true;
                }
            }

            let mut s = String::new();
            let _ = write!(
                s,
                "    {{\n      \"strategy\": \"{}\",\n      \
                 \"split\": \"{split_name}\",\n      \"alpha\": {},\n      \
                 \"gamma\": {},\n      \"rho_star\": {},\n      \"gated\": {},\n      \
                 \"shares\": [{}],\n      \"cells\": [\n",
                strategy.name,
                json_f64(strategy.alpha),
                json_f64(strategy.gamma),
                json_f64(strategy.rho),
                strategy.gated && *split_name == "duopoly",
                shares
                    .iter()
                    .map(|v| json_f64(*v))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            let cell_lines: Vec<String> = cells
                .iter()
                .zip(&results)
                .map(|(cell, r)| {
                    format!(
                        "        {{\"cell\": \"{}\", \"delay\": {}, \"loss\": {}, \
                         \"churn\": {}, \"partition\": {}, \"revenue\": {}, \
                         \"std_err\": {}, \"vs_rho_star\": {}, \"orphan_rate\": {}, \
                         \"mined_fraction\": {}}}",
                        cell.name,
                        json_f64(cell.delay),
                        json_f64(cell.loss),
                        cell.churn,
                        cell.partition,
                        json_f64(r.mean),
                        json_f64(r.std_err),
                        json_f64(r.mean - strategy.rho),
                        json_f64(r.orphan_rate),
                        json_f64(r.mined_fraction)
                    )
                })
                .collect();
            s.push_str(&cell_lines.join(",\n"));
            s.push_str("\n      ]\n    }");
            series_json.push(s);
        }
    }

    let json = format!(
        "{{\n  \"kind\": \"seleth-chaos-study\",\n  \"format\": 1,\n  \
         \"interval\": {},\n  \"delay\": {},\n  \"runs\": {runs},\n  \
         \"blocks\": {blocks},\n  \"fault_seed\": {fault_seed},\n  \
         \"churn_mean_uptime\": {},\n  \"churn_mean_downtime\": {},\n  \
         \"partition_every\": {},\n  \"partition_len\": {},\n  \
         \"series\": [\n{}\n  ],\n  \"telemetry\": {}\n}}\n",
        json_f64(INTERVAL),
        json_f64(DELAY),
        json_f64(CHURN_UPTIME),
        json_f64(CHURN_DOWNTIME),
        json_f64(PARTITION_EVERY),
        json_f64(PARTITION_LEN),
        series_json.join(",\n"),
        {
            telemetry.wall_ns = wall.elapsed_ns();
            telemetry.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            telemetry.set_gauge("host.available_parallelism", telemetry.threads as f64);
            telemetry.to_json(2)
        }
    );
    let out_name = if smoke {
        "chaos_study_smoke.json"
    } else {
        "chaos_study.json"
    };
    let path = seleth_bench::write_text(out_name, &json);

    println!("\nReading: 'vs_rho' is measured strategist revenue minus the predicted");
    println!("zero-delay optimum. The 'baseline' cell repeats PR 3's graceful delay");
    println!("degradation; the loss cells test whether random message loss amplifies");
    println!("withholding the way systematic delay does, and the churn/partition");
    println!("cells whether the advantage collapses or degrades when the network");
    println!("itself fails. 'mined' < 1 under churn: crashed hash power thins out.");
    println!("wrote {}", path.display());
    write_trace(&trace, trace_path.as_ref());

    if failed {
        eprintln!("FAIL: a gated anchor cell disagrees with its recorded rho*");
        std::process::exit(1);
    }
    println!("all gated anchor cells reproduce their recorded rho*");
}
