//! `mdp_optimal`: a cold `MdpConfig::solve` of the `EthereumApprox` model
//! at α = 0.3, γ = 0.5, truncation 60, followed by
//! `PolicyTable::from_solution` — all Dinkelbach bisection and Bellman
//! sweeps, with solver threads at the library default. No simulator code
//! runs. The inputs are fixed; the workload seed is only recorded.

use std::hint::black_box;
use std::time::Instant;

use seleth_mdp::{MdpConfig, PolicyTable, RewardModel, Solution};

use crate::{nanos, secs, Options, Plain, SetupTimer, Size, Traced};

fn max_len(size: Size) -> u32 {
    match size {
        Size::Full => 60,
        // The committed artifact's own truncation: the reference check
        // still applies at the small size.
        Size::Tiny => 30,
    }
}

fn config(size: Size) -> MdpConfig {
    MdpConfig::new(0.3, 0.5, RewardModel::EthereumApprox).with_max_len(max_len(size))
}

/// ρ* lies within the solver's own ρ tolerance of the committed artifact.
fn matches(solution: &Solution, config: &MdpConfig, reference: f64) -> bool {
    (solution.revenue - reference).abs() <= config.rho_tolerance
}

/// The job: a cold solve, then lowering the policy to a flat table.
fn job(config: &MdpConfig) -> Result<(Solution, PolicyTable), String> {
    let solution = config
        .solve()
        .map_err(|e| format!("mdp_optimal solve: {e}"))?;
    let table = PolicyTable::from_solution(config, &solution);
    Ok((solution, table))
}

/// Plain run: cold solves back to back until the budget is spent.
///
/// # Errors
///
/// Never for the built-in configuration; solver errors count as failed
/// operations instead.
pub(crate) fn run(opts: &Options) -> Result<Plain, String> {
    let (config, mut setup) = SetupTimer::start(|| Ok(config(opts.size)))?;
    let mut budget = opts.budget();
    let mut plain = Plain { ..Plain::default() };
    let mut rho = f64::NAN;
    loop {
        let t = Instant::now();
        let result = job(&config);
        plain.job_walls.push(secs(t));
        plain.attempted += 1;
        match result {
            Ok((solution, table)) => {
                rho = solution.revenue;
                if !matches(&solution, &config, opts.refs.mdp_rho) {
                    plain.failed += 1;
                }
                black_box(table);
            }
            Err(_) => plain.failed += 1,
        }
        setup.sample()?;
        if !budget.another() {
            break;
        }
    }
    plain.setup = setup.samples;
    plain.notes.push(format!(
        "  jobs: {} cold solves at truncation {}; rho* = {rho:.9} vs artifact {:.9} (tolerance {:e})",
        plain.job_walls.len(),
        config.max_len,
        opts.refs.mdp_rho,
        config.rho_tolerance
    ));
    Ok(plain)
}

/// Traced run: per round, one untraced job, the same job with the solve
/// and the lowering timed apart, and a single-threaded solve for the
/// parallel speed-up.
///
/// # Errors
///
/// When a solve fails.
pub(crate) fn trace(opts: &Options) -> Result<Traced, String> {
    let config = config(opts.size);
    let mut budget = opts.budget();
    let mut traced = Traced::default();
    let mut rounds = 0u32;
    loop {
        let t = Instant::now();
        black_box(job(&config)?);
        let untraced_ns = nanos(t);

        let traced_job = Instant::now();
        let t = Instant::now();
        let solution = config
            .solve()
            .map_err(|e| format!("mdp_optimal solve: {e}"))?;
        let solve_ns = nanos(t);
        let t = Instant::now();
        let table = PolicyTable::from_solution(&config, &solution);
        let lower_ns = nanos(t);
        let job_ns = nanos(traced_job);
        black_box(table);

        let t = Instant::now();
        let single = config
            .with_threads(1)
            .solve()
            .map_err(|e| format!("mdp_optimal solve: {e}"))?;
        let single_ns = nanos(t);

        traced.attempted += 2;
        if !matches(&solution, &config, opts.refs.mdp_rho) {
            traced.failed += 1;
        }
        if single.revenue.to_bits() != solution.revenue.to_bits() {
            traced.failed += 1;
        }
        let sweeps = solution.iterations as f64;
        let states = solution.policy.len() as f64;
        traced.record("mdp.solve_s", solve_ns / 1e9);
        traced.record("mdp.sweeps", sweeps);
        traced.record("mdp.bisection_steps", solution.stats.bisection_steps as f64);
        traced.record("mdp.ns_per_state_sweep", solve_ns / (sweeps * states));
        traced.record(
            "mdp.warm_start_hit_rate",
            solution.stats.warm_start_hit_rate(),
        );
        traced.record("mdp.speedup_t2", single_ns / solve_ns);
        traced.record("mdp.lower_ms", lower_ns / 1e6);
        traced.record(
            "reconcile.residual_frac",
            1.0 - (solve_ns + lower_ns) / job_ns,
        );
        traced.record("trace.overhead_frac", job_ns / untraced_ns - 1.0);
        rounds += 1;
        if !budget.another() {
            break;
        }
    }
    traced.notes.push(format!(
        "  rounds: {rounds}; ns_per_state_sweep = solve wall (expansion included) / (sweeps x states); speed-up = 1-thread solve / default-thread solve; residual tolerance |residual| <= 0.05"
    ));
    Ok(traced)
}
