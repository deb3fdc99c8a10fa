//! Re-solve anchor for the committed policy artifacts.
//!
//! Each committed `results/policies/*.json` below was produced by solving
//! its config with the MDP solver and lowering the solution through
//! `PolicyTable::from_solution`. Re-solving the same config today must
//! reproduce the file byte for byte: ρ*'s bits, every action of the
//! table, the JSON layout. The `--audit` gate only re-saves loaded files,
//! so this is the test that pins the solver itself to the artifacts.
//!
//! The Ethereum case (17,746 states) runs the solver's parallel sweep;
//! both Bitcoin cases are small enough to run its sequential path.

use selfish_ethereum::prelude::*;

fn assert_resolves(file: &str, alpha: f64, gamma: f64, rewards: RewardModel) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results/policies")
        .join(file);
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let config = MdpConfig::new(alpha, gamma, rewards).with_max_len(30);
    let solution = config.solve().expect("mdp solve");
    let resolved = PolicyTable::from_solution(&config, &solution).to_json();
    assert!(
        resolved == committed,
        "{file}: re-solved artifact differs from the committed file \
         (re-solved revenue {:?})",
        solution.revenue
    );
}

#[test]
fn ethereum_a030_g050_resolves_byte_for_byte() {
    assert_resolves(
        "ethereum_a030_g050.json",
        0.3,
        0.5,
        RewardModel::EthereumApprox,
    );
}

#[test]
fn bitcoin_a040_g050_resolves_byte_for_byte() {
    assert_resolves("bitcoin_a040_g050.json", 0.4, 0.5, RewardModel::Bitcoin);
}

#[test]
fn bitcoin_a035_g000_resolves_byte_for_byte() {
    assert_resolves("bitcoin_a035_g000.json", 0.35, 0.0, RewardModel::Bitcoin);
}
