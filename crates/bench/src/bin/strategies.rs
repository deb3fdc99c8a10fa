//! Extension experiment (paper Section VIII, future work): alternative
//! pool strategies under Ethereum rewards.
//!
//! Compares, by simulation, the absolute revenue of the paper's Algorithm 1
//! against an honest pool (baseline: `U_s = α` exactly) and Lead-Stubborn
//! mining (Nayak et al.) with uncle/nephew rewards in force. The question
//! the paper leaves open: once uncle rewards subsidize orphaned blocks,
//! does stubbornness pay off earlier than in Bitcoin?

use seleth_chain::Scenario;
use seleth_sim::{multi, PoolStrategy, SimConfig};

fn main() {
    let gamma = 0.5;
    let runs: u64 = seleth_bench::env_knob("SELETH_RUNS", 8);
    let blocks: u64 = seleth_bench::env_knob("SELETH_BLOCKS", 100_000);
    let scenario = Scenario::RegularRate;

    println!("Strategy comparison (γ = {gamma}, Ethereum Ku(·), {runs} runs × {blocks} blocks)\n");
    println!(
        "{:>6} {:>10} {:>8} {:>10} {:>8} {:>10} {:>8} {:>12}",
        "alpha", "honest", "±", "selfish", "±", "stubborn", "±", "best"
    );

    let mut rows = Vec::new();
    for alpha in seleth_bench::sweep(0.05, 0.45, 0.05) {
        let mut us = Vec::new();
        // The honest pool is *simulated* like the others (its analytic
        // value is exactly α, which makes the column self-validating).
        for strategy in [
            PoolStrategy::Honest,
            PoolStrategy::Selfish,
            PoolStrategy::LeadStubborn,
        ] {
            let config = SimConfig::builder()
                .alpha(alpha)
                .gamma(gamma)
                .strategy(strategy)
                .blocks(blocks)
                .n_honest(999)
                .seed(90_000)
                .build()
                .expect("valid config");
            let reports = multi::run_many(&config, runs);
            us.push(multi::mean_absolute_pool(&reports, scenario));
        }
        let (honest, selfish, stubborn) = (us[0], us[1], us[2]);
        let best = if honest.mean >= selfish.mean.max(stubborn.mean) {
            "honest"
        } else if selfish.mean >= stubborn.mean {
            "selfish"
        } else {
            "stubborn"
        };
        println!(
            "{alpha:>6.2} {:>10.4} {:>8.4} {:>10.4} {:>8.4} {:>10.4} {:>8.4} {best:>12}",
            honest.mean,
            honest.std_dev,
            selfish.mean,
            selfish.std_dev,
            stubborn.mean,
            stubborn.std_dev
        );
        rows.push(seleth_bench::cells(&[
            alpha,
            honest.mean,
            honest.std_dev,
            selfish.mean,
            selfish.std_dev,
            stubborn.mean,
            stubborn.std_dev,
        ]));
    }

    let path = seleth_bench::write_csv(
        "strategies_comparison.csv",
        &[
            "alpha",
            "honest_us",
            "honest_std",
            "selfish_us",
            "selfish_std",
            "stubborn_us",
            "stubborn_std",
        ],
        &rows,
    );
    println!("\nwrote {}", path.display());
}
