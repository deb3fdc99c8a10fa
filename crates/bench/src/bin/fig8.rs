//! Fig. 8: long-term absolute revenue of the selfish pool and honest
//! miners, theory vs simulation, for γ = 0.5 and fixed `Ku = 4/8`.
//!
//! Reproduces the paper's setup exactly: `n = 1000` miners, the pool
//! controlling up to 45% of them, 10 independent runs of 100,000 blocks per
//! point, scenario-1 normalization. The honest-mining baseline is the line
//! `U = α`; the paper's headline observation is the crossing at
//! `α* ≈ 0.163` and the mild losses below it (uncle rewards subsidize the
//! attack's failures).

use seleth_chain::{RewardSchedule, Scenario};
use seleth_core::{Analysis, ModelParams};
use seleth_sim::{multi, SimConfig};

fn main() {
    let gamma = 0.5;
    let schedule = RewardSchedule::fixed_uncle_unbounded(0.5); // Ku = 4/8 Ks, any distance
    let scenario = Scenario::RegularRate;
    let runs: u64 = seleth_bench::env_knob("SELETH_RUNS", 10);
    let blocks: u64 = seleth_bench::env_knob("SELETH_BLOCKS", 100_000);

    println!("Fig. 8: revenue vs α (γ = {gamma}, Ku = 4/8, {runs} runs × {blocks} blocks)\n");
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "alpha", "honest", "Us_theory", "Us_sim", "±", "Uh_theory", "Uh_sim", "±"
    );

    let mut rows = Vec::new();
    for alpha in seleth_bench::sweep(0.0, 0.45, 0.025) {
        let params = ModelParams::new(alpha, gamma, schedule.clone()).expect("alpha below 0.5");
        let analysis = Analysis::new(&params).expect("solve");
        let rev = analysis.revenue();
        let us_t = rev.absolute_pool(scenario);
        let uh_t = rev.absolute_honest(scenario);

        let (us_s, uh_s) = if alpha == 0.0 {
            // Degenerate: no pool; the theory values are exact.
            (
                multi::Summary {
                    mean: 0.0,
                    std_dev: 0.0,
                },
                multi::Summary {
                    mean: 1.0,
                    std_dev: 0.0,
                },
            )
        } else {
            let config = SimConfig::builder()
                .alpha(alpha)
                .gamma(gamma)
                .schedule(schedule.clone())
                .n_honest(999)
                .blocks(blocks)
                .seed(8_000)
                .build()
                .expect("valid config");
            let reports = multi::run_many(&config, runs);
            (
                multi::mean_absolute_pool(&reports, scenario),
                multi::mean_absolute_honest(&reports, scenario),
            )
        };

        println!(
            "{alpha:>6.3} {alpha:>8.3} {us_t:>10.4} {:>10.4} {:>8.4} {uh_t:>10.4} {:>10.4} {:>8.4}",
            us_s.mean, us_s.std_dev, uh_s.mean, uh_s.std_dev
        );
        rows.push(seleth_bench::cells(&[
            alpha,
            us_t,
            us_s.mean,
            us_s.std_dev,
            uh_t,
            uh_s.mean,
            uh_s.std_dev,
        ]));
    }

    let path = seleth_bench::write_csv(
        "fig8_revenue_vs_alpha.csv",
        &[
            "alpha",
            "us_theory",
            "us_sim",
            "us_std",
            "uh_theory",
            "uh_sim",
            "uh_std",
        ],
        &rows,
    );
    println!("\nPaper anchors: crossing Us = α at α ≈ 0.163; small losses below it.");
    println!("wrote {}", path.display());
}
