//! Table II: distribution of honest miners' uncle blocks over referencing
//! distances (γ = 0.5, α ∈ {0.3, 0.45}), analysis vs simulation.
//!
//! Paper values — α = 0.3: [.527 .295 .111 .043 .017 .007], mean 1.75;
//! α = 0.45: [.284 .249 .171 .125 .096 .075], mean 2.72.

use seleth_chain::RewardSchedule;
use seleth_core::{Analysis, ModelParams};
use seleth_sim::{multi, SimConfig};

fn main() {
    let gamma = 0.5;
    let runs: u64 = seleth_bench::env_knob("SELETH_RUNS", 10);
    let blocks: u64 = seleth_bench::env_knob("SELETH_BLOCKS", 100_000);

    println!("Table II: honest uncle reference distances (γ = {gamma})\n");
    let mut rows = Vec::new();
    for &alpha in &[0.3, 0.45] {
        let params = ModelParams::new(alpha, gamma, RewardSchedule::ethereum()).expect("valid");
        let analysis = Analysis::new(&params).expect("solve");
        let theory = analysis.honest_uncle_distances();

        let config = SimConfig::builder()
            .alpha(alpha)
            .gamma(gamma)
            .blocks(blocks)
            .n_honest(999)
            .seed(22_000)
            .build()
            .expect("valid config");
        let reports = multi::run_many(&config, runs);
        let sim = multi::mean_honest_distance_distribution(&reports);
        let sim_expect = multi::summarize(&reports, |r| r.honest_distance_expectation());

        println!("α = {alpha}");
        println!("{:>10} {:>10} {:>10}", "distance", "theory", "simulation");
        for d in 1..=6u64 {
            let s = sim.get(d as usize - 1).copied().unwrap_or(0.0);
            println!("{d:>10} {:>10.3} {s:>10.3}", theory.prob(d));
            rows.push(seleth_bench::cells(&[alpha, d as f64, theory.prob(d), s]));
        }
        println!(
            "{:>10} {:>10.3} {:>10.3} (±{:.3})\n",
            "mean",
            theory.expectation(),
            sim_expect.mean,
            sim_expect.std_dev
        );
    }
    let path = seleth_bench::write_csv(
        "table2_uncle_distances.csv",
        &["alpha", "distance", "theory", "simulation"],
        &rows,
    );
    println!("wrote {}", path.display());
}
