//! `paper_thresholds`: the paper's headline result (Fig. 10).
//! `threshold::profitability_threshold` for both Ethereum scenarios at
//! γ ∈ {0.3, 0.5}, with Fig. 10's scan step (0.005) and the default
//! truncation (150) and α* tolerance (1e-4).
//!
//! All of its time is `seleth-core` chain construction and revenue plus
//! `seleth-markov` Gauss–Seidel. The inputs are fixed; the workload seed
//! is only recorded.

use std::time::Instant;

use seleth_chain::{RewardSchedule, Scenario};
use seleth_core::bitcoin::eyal_sirer_threshold;
use seleth_core::chain_model::build_dtmc;
use seleth_core::revenue::revenue_from_distribution;
use seleth_core::stationary::default_options;
use seleth_core::threshold::{profitability_threshold, ThresholdOptions};
use seleth_core::ModelParams;

use crate::{nanos, secs, Options, Plain, SetupTimer, Size, Traced};

/// The γ grid, for both scenarios. γ = 0.5 carries the α* ≈ 0.054
/// anchor; γ = 0.3 and 0.5 bracket scenario 2's crossover of Bitcoin.
const GAMMAS: [f64; 2] = [0.3, 0.5];
const SCENARIOS: [Scenario; 2] = [Scenario::RegularRate, Scenario::RegularPlusUncleRate];
/// Allowed distance from the paper's α* and crossover γ.
const ALPHA_STAR_TOLERANCE: f64 = 0.005;
const CROSSOVER_TOLERANCE: f64 = 0.05;

fn options(size: Size) -> ThresholdOptions {
    match size {
        Size::Full => ThresholdOptions {
            scan_step: 0.005,
            ..ThresholdOptions::default()
        },
        Size::Tiny => ThresholdOptions {
            scan_step: 0.02,
            truncation: 40,
            ..ThresholdOptions::default()
        },
    }
}

/// Grid points in job order: `(gamma, scenario)`.
fn grid() -> impl Iterator<Item = (f64, Scenario)> {
    GAMMAS
        .into_iter()
        .flat_map(|g| SCENARIOS.into_iter().map(move |s| (g, s)))
}

/// One job's thresholds, in [`grid`] order (`None`: error or no α*).
type Thresholds = Vec<Option<f64>>;

fn job(schedule: &RewardSchedule, opts: ThresholdOptions) -> Thresholds {
    grid()
        .map(|(gamma, scenario)| {
            profitability_threshold(gamma, schedule, scenario, opts)
                .ok()
                .flatten()
        })
        .collect()
}

/// Failed operations of a job: a missing threshold, α*(γ=0.5, scenario 1)
/// away from the paper's 0.054, or scenario 2 not crossing Bitcoin
/// between γ = 0.3 and 0.5 near the paper's γ ≈ 0.39 (both scenario-2
/// thresholds fail then).
fn failures(t: &Thresholds, opts: &Options) -> u64 {
    let at = |gamma: f64, scenario: Scenario| {
        grid()
            .position(|p| p == (gamma, scenario))
            .and_then(|i| t[i])
    };
    let mut failed = t.iter().filter(|a| a.is_none()).count() as u64;
    if at(0.5, Scenario::RegularRate)
        .is_some_and(|a| (a - opts.refs.alpha_star_s1).abs() > ALPHA_STAR_TOLERANCE)
    {
        failed += 1;
    }
    if let (Some(lo), Some(hi)) = (
        at(0.3, Scenario::RegularPlusUncleRate),
        at(0.5, Scenario::RegularPlusUncleRate),
    ) {
        let below = lo - eyal_sirer_threshold(0.3);
        let above = hi - eyal_sirer_threshold(0.5);
        let crossing = below < 0.0
            && above > 0.0
            && (0.3 + 0.2 * below.abs() / (below.abs() + above) - opts.refs.crossover_gamma).abs()
                <= CROSSOVER_TOLERANCE;
        if !crossing {
            failed += 2;
        }
    }
    failed
}

/// Plain run: the grid job back to back until the budget is spent.
///
/// # Errors
///
/// Never; solver errors count as failed operations.
pub(crate) fn run(opts: &Options) -> Result<Plain, String> {
    let threshold_opts = options(opts.size);
    let (schedule, mut setup) = SetupTimer::start(|| Ok(RewardSchedule::ethereum()))?;
    let mut budget = opts.budget();
    let mut plain = Plain { ..Plain::default() };
    let mut last: Thresholds;
    loop {
        let t = Instant::now();
        let thresholds = job(&schedule, threshold_opts);
        plain.job_walls.push(secs(t));
        plain.attempted += thresholds.len() as u64;
        plain.failed += failures(&thresholds, opts);
        last = thresholds;
        setup.sample()?;
        if !budget.another() {
            break;
        }
    }
    let shown: Vec<String> = grid()
        .zip(&last)
        .map(|((g, s), a)| {
            format!(
                "{s:?}@{g}: {}",
                a.map_or("none".into(), |a| format!("{a:.5}"))
            )
        })
        .collect();
    plain.setup = setup.samples;
    plain.notes.push(format!(
        "  jobs: {} x {} thresholds; alpha*: {}",
        plain.job_walls.len(),
        shown.len(),
        shown.join(", ")
    ));
    Ok(plain)
}

/// Layer time and solve count accumulated over traced searches.
#[derive(Default)]
struct Cost {
    build_ns: f64,
    stationary_ns: f64,
    revenue_ns: f64,
    solves: u64,
}

/// `profitability_threshold`, replayed step for step from outside with
/// the three layer calls behind each `U_s(α) − α` timed apart, so it
/// visits the same α points and returns the same α*.
fn traced_threshold(
    gamma: f64,
    schedule: &RewardSchedule,
    scenario: Scenario,
    opts: ThresholdOptions,
    cost: &mut Cost,
) -> Result<Option<f64>, String> {
    let mut excess = |alpha: f64| -> Result<f64, String> {
        let params = ModelParams::with_truncation(alpha, gamma, schedule.clone(), opts.truncation)
            .map_err(|e| format!("paper_thresholds params: {e}"))?;
        let t = Instant::now();
        let dtmc = build_dtmc(&params);
        cost.build_ns += nanos(t);
        let t = Instant::now();
        let dist = dtmc
            .stationary(default_options())
            .map_err(|e| format!("paper_thresholds stationary: {e}"))?;
        cost.stationary_ns += nanos(t);
        let t = Instant::now();
        let revenue = revenue_from_distribution(&params, &dist);
        cost.revenue_ns += nanos(t);
        cost.solves += 1;
        Ok(revenue.absolute_pool(scenario) - alpha)
    };
    let mut lo = opts.scan_step.min(1e-3);
    if excess(lo)? >= 0.0 {
        return Ok(Some(0.0));
    }
    let mut hi = None;
    let mut a = opts.scan_step;
    while a < opts.max_alpha {
        if excess(a)? >= 0.0 {
            hi = Some(a);
            break;
        }
        lo = a;
        a += opts.scan_step;
    }
    let Some(mut hi) = hi else {
        return Ok(None);
    };
    while hi - lo > opts.tolerance {
        let mid = 0.5 * (lo + hi);
        if excess(mid)? >= 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Some(0.5 * (lo + hi)))
}

/// Traced run: per round, the job untraced, then replayed with every
/// solve's chain build, stationary solve and revenue fold timed. The
/// replay must return the library's α* bit for bit.
///
/// # Errors
///
/// When a replayed solve fails.
pub(crate) fn trace(opts: &Options) -> Result<Traced, String> {
    let threshold_opts = options(opts.size);
    let schedule = RewardSchedule::ethereum();
    let mut budget = opts.budget();
    let mut traced = Traced::default();
    let mut rounds = 0u32;
    loop {
        let t = Instant::now();
        let untraced = job(&schedule, threshold_opts);
        let untraced_ns = nanos(t);
        traced.attempted += untraced.len() as u64;
        traced.failed += failures(&untraced, opts);

        let mut cost = Cost::default();
        let t = Instant::now();
        let mut replayed = Vec::new();
        for (gamma, scenario) in grid() {
            replayed.push(traced_threshold(
                gamma,
                &schedule,
                scenario,
                threshold_opts,
                &mut cost,
            )?);
        }
        let job_ns = nanos(t);
        traced.attempted += replayed.len() as u64;
        traced.failed += replayed
            .iter()
            .zip(&untraced)
            .filter(|(r, u)| r.map(f64::to_bits) != u.map(f64::to_bits))
            .count() as u64;

        let solves = cost.solves as f64;
        traced.record("core.build_dtmc_ms", cost.build_ns / solves / 1e6);
        traced.record("markov.stationary_ms", cost.stationary_ns / solves / 1e6);
        traced.record("core.revenue_ms", cost.revenue_ns / solves / 1e6);
        traced.record("core.solves_per_threshold", solves / replayed.len() as f64);
        traced.record("markov.stationary_share", cost.stationary_ns / job_ns);
        traced.record(
            "reconcile.residual_frac",
            1.0 - (cost.build_ns + cost.stationary_ns + cost.revenue_ns) / job_ns,
        );
        traced.record("trace.overhead_frac", job_ns / untraced_ns - 1.0);
        rounds += 1;
        if !budget.another() {
            break;
        }
    }
    traced.notes.push(format!(
        "  rounds: {rounds}; the replayed search reproduces every alpha* bit for bit; residual tolerance |residual| <= 0.05"
    ));
    Ok(traced)
}
