//! Per-miner reward accounting over a finished block tree.
//!
//! Applies a [`RewardSchedule`] to the classification of
//! [`crate::classify`] and tallies static, uncle, and nephew rewards per
//! miner — the quantities `r_b`, `r_u`, `r_n` of Section IV-E, measured
//! instead of derived. The report also carries the block-type counts and the
//! uncle reference-distance histogram needed for the paper's Scenario 1/2
//! revenue normalizations and for Table II.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::block::{BlockId, MinerId};
use crate::classify::{self, UncleEvent};
use crate::rewards::RewardSchedule;
use crate::tree::BlockTree;

/// Reward tally for a single miner.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MinerRewards {
    /// Static rewards from regular blocks.
    pub static_reward: f64,
    /// Uncle rewards from referenced stale blocks.
    pub uncle_reward: f64,
    /// Nephew rewards from referencing uncles.
    pub nephew_reward: f64,
    /// Regular blocks mined.
    pub regular_blocks: u64,
    /// Uncle blocks mined (stale blocks that got referenced).
    pub uncle_blocks: u64,
    /// Stale, unrewarded blocks mined.
    pub stale_blocks: u64,
}

impl MinerRewards {
    /// Total reward across all three types.
    pub fn total(&self) -> f64 {
        self.static_reward + self.uncle_reward + self.nephew_reward
    }
}

/// Complete accounting of a block tree under a reward schedule.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RewardReport {
    /// Tally per miner.
    pub per_miner: HashMap<MinerId, MinerRewards>,
    /// Number of regular blocks (excluding genesis).
    pub regular_count: u64,
    /// Number of uncle blocks.
    pub uncle_count: u64,
    /// Number of stale, never-rewarded blocks.
    pub stale_count: u64,
    /// Histogram of accepted reference distances: entry `d − 1` counts
    /// uncles referenced at distance `d`.
    pub distance_histogram: Vec<u64>,
}

impl RewardReport {
    /// Sum of all rewards paid out.
    pub fn total_reward(&self) -> f64 {
        self.per_miner.values().map(MinerRewards::total).sum()
    }

    /// Rewards of a single miner (zero tally if unknown).
    pub fn miner(&self, id: MinerId) -> MinerRewards {
        self.per_miner.get(&id).copied().unwrap_or_default()
    }

    /// Combined tally over any set of miners (e.g. "all honest miners").
    pub fn combined<I: IntoIterator<Item = MinerId>>(&self, ids: I) -> MinerRewards {
        let mut acc = MinerRewards::default();
        for id in ids {
            let m = self.miner(id);
            acc.static_reward += m.static_reward;
            acc.uncle_reward += m.uncle_reward;
            acc.nephew_reward += m.nephew_reward;
            acc.regular_blocks += m.regular_blocks;
            acc.uncle_blocks += m.uncle_blocks;
            acc.stale_blocks += m.stale_blocks;
        }
        acc
    }

    /// Total blocks that earned anything or not (excluding genesis).
    pub fn block_count(&self) -> u64 {
        self.regular_count + self.uncle_count + self.stale_count
    }
}

/// Account rewards for `tree` under `schedule`, given the main chain
/// (genesis → head).
///
/// Respects the schedule's maximum reference distance and per-block uncle
/// cap. Genesis earns nothing.
///
/// # Panics
///
/// Panics if `main_chain` contains ids not in the tree.
///
/// ```
/// use seleth_chain::{accounting, BlockTree, MinerId, RewardSchedule};
/// let m0 = MinerId(0);
/// let m1 = MinerId(1);
/// let mut t = BlockTree::new();
/// let a = t.add_block(t.genesis(), m0, &[]).unwrap();
/// let u = t.add_block(a, m1, &[]).unwrap();
/// let b = t.add_block(a, m0, &[]).unwrap();
/// let c = t.add_block(b, m0, &[u]).unwrap();
/// let chain = vec![t.genesis(), a, b, c];
/// let report = accounting::account(&t, &chain, &RewardSchedule::ethereum());
/// // m1's block is an uncle at distance 1 → Ku(1) = 7/8.
/// assert_eq!(report.miner(m1).uncle_reward, 7.0 / 8.0);
/// // m0 mined 3 regular blocks and the nephew reward.
/// assert_eq!(report.miner(m0).static_reward, 3.0);
/// assert_eq!(report.miner(m0).nephew_reward, 1.0 / 32.0);
/// ```
pub fn account(
    tree: &BlockTree,
    main_chain: &[BlockId],
    schedule: &RewardSchedule,
) -> RewardReport {
    let events = classify::uncle_events_with_cap(
        tree,
        main_chain,
        schedule.max_uncle_distance(),
        schedule.max_uncles_per_block(),
    );
    account_with_events(tree, main_chain, schedule, &events)
}

/// Like [`account`] but with pre-computed uncle events (avoids re-walking
/// the chain when the caller already has them).
pub fn account_with_events(
    tree: &BlockTree,
    main_chain: &[BlockId],
    schedule: &RewardSchedule,
    events: &[UncleEvent],
) -> RewardReport {
    let mut report = RewardReport::default();
    let on_chain = classify::membership(tree, main_chain.iter().copied());
    let uncles = classify::membership(tree, events.iter().map(|e| e.uncle));

    for block in tree.iter() {
        if block.is_genesis() {
            continue;
        }
        let entry = report.per_miner.entry(block.miner()).or_default();
        if on_chain[block.id().index()] {
            entry.static_reward += schedule.static_reward();
            entry.regular_blocks += 1;
            report.regular_count += 1;
        } else if uncles[block.id().index()] {
            entry.uncle_blocks += 1;
            report.uncle_count += 1;
        } else {
            entry.stale_blocks += 1;
            report.stale_count += 1;
        }
    }

    for ev in events {
        let uncle_miner = tree.block(ev.uncle).miner();
        let nephew_miner = tree.block(ev.nephew).miner();
        report
            .per_miner
            .entry(uncle_miner)
            .or_default()
            .uncle_reward += schedule.uncle_reward(ev.distance);
        report
            .per_miner
            .entry(nephew_miner)
            .or_default()
            .nephew_reward += schedule.nephew_reward(ev.distance);
        let d = ev.distance as usize;
        if report.distance_histogram.len() < d {
            report.distance_histogram.resize(d, 0);
        }
        report.distance_histogram[d - 1] += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewards::RewardSchedule;

    /// A fork where miner 1's block is orphaned and referenced.
    fn forked() -> (BlockTree, Vec<BlockId>) {
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), MinerId(0), &[]).unwrap();
        let u = t.add_block(a, MinerId(1), &[]).unwrap();
        let b = t.add_block(a, MinerId(0), &[]).unwrap();
        let c = t.add_block(b, MinerId(0), &[u]).unwrap();
        let chain = vec![t.genesis(), a, b, c];
        (t, chain)
    }

    #[test]
    fn counts_partition_blocks() {
        let (t, chain) = forked();
        let r = account(&t, &chain, &RewardSchedule::ethereum());
        assert_eq!(r.regular_count, 3);
        assert_eq!(r.uncle_count, 1);
        assert_eq!(r.stale_count, 0);
        assert_eq!(r.block_count(), 4);
        assert_eq!(r.distance_histogram, vec![1]);
    }

    #[test]
    fn bitcoin_schedule_pays_no_uncles() {
        let (t, chain) = forked();
        let r = account(&t, &chain, &RewardSchedule::bitcoin());
        assert_eq!(r.miner(MinerId(1)).total(), 0.0);
        assert_eq!(r.miner(MinerId(0)).total(), 3.0);
        // The orphan is plain stale under Bitcoin rules (distance cap 0).
        assert_eq!(r.uncle_count, 0);
        assert_eq!(r.stale_count, 1);
    }

    #[test]
    fn total_reward_is_sum_of_parts() {
        let (t, chain) = forked();
        let r = account(&t, &chain, &RewardSchedule::ethereum());
        let expected = 3.0 + 7.0 / 8.0 + 1.0 / 32.0;
        assert!((r.total_reward() - expected).abs() < 1e-12);
    }

    #[test]
    fn combined_aggregates_miners() {
        let (t, chain) = forked();
        let r = account(&t, &chain, &RewardSchedule::ethereum());
        let both = r.combined([MinerId(0), MinerId(1)]);
        assert!((both.total() - r.total_reward()).abs() < 1e-12);
        assert_eq!(both.regular_blocks, 3);
        assert_eq!(both.uncle_blocks, 1);
    }

    #[test]
    fn uncle_cap_limits_references() {
        // Three stale siblings, one nephew referencing all three.
        let mut t = BlockTree::new();
        let a = t.add_block(t.genesis(), MinerId(0), &[]).unwrap();
        let u1 = t.add_block(a, MinerId(1), &[]).unwrap();
        let u2 = t.add_block(a, MinerId(1), &[]).unwrap();
        let u3 = t.add_block(a, MinerId(1), &[]).unwrap();
        let b = t.add_block(a, MinerId(0), &[]).unwrap();
        let c = t.add_block(b, MinerId(0), &[u1, u2, u3]).unwrap();
        let chain = vec![t.genesis(), a, b, c];

        let unlimited = account(&t, &chain, &RewardSchedule::ethereum());
        assert_eq!(unlimited.uncle_count, 3);

        let capped = account(&t, &chain, &RewardSchedule::ethereum_capped());
        assert_eq!(capped.uncle_count, 2);
        assert_eq!(capped.stale_count, 1);
        assert!((capped.miner(MinerId(0)).nephew_reward - 2.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_miner_reports_zero() {
        let (t, chain) = forked();
        let r = account(&t, &chain, &RewardSchedule::ethereum());
        assert_eq!(r.miner(MinerId(99)), MinerRewards::default());
    }
}
