//! Post-run accounting: from a finished block tree to the paper's revenue
//! metrics.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use seleth_chain::accounting::{self, MinerRewards};
use seleth_chain::classify;
use seleth_chain::forkchoice::{longest_chain, TieBreak};
use seleth_chain::{BlockTree, Scenario};

use crate::config::SimConfig;
use crate::engine::POOL;

/// The outcome of one simulation run.
///
/// Block-type counts and reward tallies come from
/// [`seleth_chain::accounting`] over the final tree; the revenue accessors
/// mirror [`seleth-core`'s analytical breakdown] so theory and simulation
/// can be compared field by field.
///
/// [`seleth-core`'s analytical breakdown]: https://docs.rs/seleth-core
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Pool hash power the run was configured with.
    pub alpha: f64,
    /// Tie-breaking parameter the run was configured with.
    pub gamma: f64,
    /// Total blocks mined (all types, excluding genesis).
    pub blocks_mined: u64,
    /// Full per-miner accounting of the final tree.
    pub reward_report: accounting::RewardReport,
    /// Aggregated pool rewards.
    pub pool: MinerRewards,
    /// Aggregated honest rewards (all non-pool miners).
    pub honest: MinerRewards,
    /// Histogram of *honest* uncles by reference distance (`d − 1` indexed).
    pub honest_uncle_histogram: Vec<u64>,
    /// Histogram of *pool* uncles by reference distance (`d − 1` indexed).
    pub pool_uncle_histogram: Vec<u64>,
    /// Empirical visit counts of the `(Ls, Lh)` strategy state after each
    /// block event.
    pub state_visits: HashMap<(u32, u32), u64>,
}

impl SimReport {
    /// Account a finished simulation tree.
    pub(crate) fn from_simulation(
        config: &SimConfig,
        tree: &BlockTree,
        blocks_mined: u64,
        state_visits: HashMap<(u32, u32), u64>,
    ) -> Self {
        let schedule = config.schedule();
        let chain = longest_chain(tree, TieBreak::FirstSeen);
        let events = classify::uncle_events_with_cap(
            tree,
            &chain,
            schedule.max_uncle_distance(),
            schedule.max_uncles_per_block(),
        );
        let reward_report = accounting::account_with_events(tree, &chain, schedule, &events);

        let max_d = schedule.max_uncle_distance().max(1) as usize;
        let mut honest_hist = vec![0u64; max_d];
        let mut pool_hist = vec![0u64; max_d];
        for ev in &events {
            let hist = if tree.block(ev.uncle).miner() == POOL {
                &mut pool_hist
            } else {
                &mut honest_hist
            };
            hist[ev.distance as usize - 1] += 1;
        }

        let pool = reward_report.miner(POOL);
        let honest = reward_report.combined(
            reward_report
                .per_miner
                .keys()
                .filter(|&&id| id != POOL)
                .copied(),
        );

        SimReport {
            alpha: config.alpha(),
            gamma: config.gamma(),
            blocks_mined,
            reward_report,
            pool,
            honest,
            honest_uncle_histogram: honest_hist,
            pool_uncle_histogram: pool_hist,
            state_visits,
        }
    }

    /// Normalization divisor for absolute revenue under `scenario`
    /// (regular blocks, or regular + uncle blocks).
    pub fn normalization(&self, scenario: Scenario) -> f64 {
        let r = self.reward_report.regular_count as f64;
        match scenario {
            Scenario::RegularRate => r,
            Scenario::RegularPlusUncleRate => r + self.reward_report.uncle_count as f64,
        }
    }

    /// The pool's measured absolute revenue `U_s`: total pool reward per
    /// normalized block slot — the simulated analogue of the analytical
    /// `U_s = (r_b^s + r_u^s + r_n^s) / (r_b^s + r_b^h)` (Eq. (11)), since
    /// dividing reward *rates* equals dividing run totals.
    pub fn absolute_pool(&self, scenario: Scenario) -> f64 {
        self.pool.total() / self.normalization(scenario)
    }

    /// Honest miners' measured absolute revenue `U_h` (Eq. (12)).
    pub fn absolute_honest(&self, scenario: Scenario) -> f64 {
        self.honest.total() / self.normalization(scenario)
    }

    /// System-wide measured absolute revenue (the "Total" of Fig. 9).
    pub fn absolute_total(&self, scenario: Scenario) -> f64 {
        self.absolute_pool(scenario) + self.absolute_honest(scenario)
    }

    /// The pool's relative share `R_s` of all rewards paid.
    pub fn relative_pool_share(&self) -> f64 {
        let total = self.pool.total() + self.honest.total();
        if total > 0.0 {
            self.pool.total() / total
        } else {
            0.0
        }
    }

    /// Empirical honest uncle reference-distance distribution (Table II):
    /// normalized histogram.
    pub fn honest_distance_distribution(&self) -> Vec<f64> {
        let total: u64 = self.honest_uncle_histogram.iter().sum();
        if total == 0 {
            return vec![0.0; self.honest_uncle_histogram.len()];
        }
        self.honest_uncle_histogram
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Mean honest uncle reference distance (Table II "Expectation").
    pub fn honest_distance_expectation(&self) -> f64 {
        self.honest_distance_distribution()
            .iter()
            .enumerate()
            .map(|(i, p)| (i + 1) as f64 * p)
            .sum()
    }

    /// Empirical probability of an `(Ls, Lh)` state over the run.
    pub fn state_frequency(&self, ls: u32, lh: u32) -> f64 {
        let total: u64 = self.state_visits.values().sum();
        if total == 0 {
            return 0.0;
        }
        self.state_visits.get(&(ls, lh)).copied().unwrap_or(0) as f64 / total as f64
    }

    /// Fraction of produced blocks that ended up regular / uncle / stale.
    pub fn block_type_fractions(&self) -> (f64, f64, f64) {
        let n = self.reward_report.block_count().max(1) as f64;
        (
            self.reward_report.regular_count as f64 / n,
            self.reward_report.uncle_count as f64 / n,
            self.reward_report.stale_count as f64 / n,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulation};

    fn report(alpha: f64, gamma: f64) -> SimReport {
        let config = SimConfig::builder()
            .alpha(alpha)
            .gamma(gamma)
            .blocks(30_000)
            .n_honest(200)
            .seed(11)
            .build()
            .unwrap();
        Simulation::new(config).run()
    }

    #[test]
    fn counts_are_consistent() {
        let r = report(0.35, 0.5);
        assert_eq!(r.blocks_mined, 30_000);
        // Genesis excluded; a trailing private branch may add a few blocks
        // beyond the budget at finalization, never more than the last lead.
        assert!(r.reward_report.block_count() >= 30_000);
        assert!(r.reward_report.block_count() <= 30_000 + 50);
        let (reg, unc, stale) = r.block_type_fractions();
        assert!((reg + unc + stale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn honest_miner_count_matches() {
        let r = report(0.3, 0.5);
        assert!(r.pool.regular_blocks > 0);
        assert!(r.honest.regular_blocks > 0);
        assert_eq!(
            r.pool.regular_blocks + r.honest.regular_blocks,
            r.reward_report.regular_count
        );
    }

    #[test]
    fn state_frequencies_normalized() {
        let r = report(0.3, 0.5);
        let total: f64 = r
            .state_visits
            .keys()
            .map(|&(a, b)| r.state_frequency(a, b))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
        // (0,0) is the most visited state at moderate alpha.
        assert!(r.state_frequency(0, 0) > 0.3);
    }

    #[test]
    fn distance_distribution_sums_to_one_when_uncles_exist() {
        let r = report(0.4, 0.5);
        assert!(r.reward_report.uncle_count > 0);
        let pmf = r.honest_distance_distribution();
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(r.honest_distance_expectation() >= 1.0);
    }

    #[test]
    fn pool_uncles_all_at_distance_one() {
        // Remark 5 of the paper, observed empirically.
        let r = report(0.35, 0.5);
        let total: u64 = r.pool_uncle_histogram.iter().sum();
        assert!(total > 0, "pool should lose some blocks as uncles");
        assert_eq!(
            r.pool_uncle_histogram[0], total,
            "{:?}",
            r.pool_uncle_histogram
        );
    }

    #[test]
    fn scenario2_divisor_not_smaller() {
        let r = report(0.4, 0.5);
        assert!(
            r.normalization(Scenario::RegularPlusUncleRate)
                >= r.normalization(Scenario::RegularRate)
        );
        assert!(
            r.absolute_pool(Scenario::RegularPlusUncleRate)
                <= r.absolute_pool(Scenario::RegularRate)
        );
    }
}
