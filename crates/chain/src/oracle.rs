//! Hash-set reference implementations of the block-tree hot paths, kept as
//! test oracles: the uncle selector the simulators used to carry (one copy
//! per engine), and the `HashSet` versions of settlement. Property tests
//! demand the index-addressed code return identical results — same
//! references in the same order, same events, same f64 bits — on random
//! trees.

use std::collections::HashSet;

use proptest::prelude::*;

use crate::accounting::{self, MinerRewards, RewardReport};
use crate::classify::{self, UncleEvent};
use crate::uncles::select_uncles;
use crate::{BlockId, BlockTree, MinerId, NephewReward, RewardSchedule, UncleReward};

/// The pre-refactor selector: ancestors and window references gathered
/// into hash sets, then the grandparent-and-up children scanned.
fn reference_select(
    tree: &BlockTree,
    parent: BlockId,
    schedule: &RewardSchedule,
    visible: impl Fn(BlockId) -> bool,
) -> Vec<BlockId> {
    let max_d = schedule.max_uncle_distance();
    if max_d == 0 {
        return Vec::new();
    }
    let cap = schedule.max_uncles_per_block().unwrap_or(usize::MAX);
    if cap == 0 {
        return Vec::new();
    }
    let new_height = tree.height(parent) + 1;
    let mut ancestors = Vec::with_capacity(max_d as usize + 1);
    let mut cur = parent;
    for _ in 0..=max_d {
        ancestors.push(cur);
        match tree.block(cur).parent() {
            Some(p) => cur = p,
            None => break,
        }
    }
    let on_chain: HashSet<BlockId> = ancestors.iter().copied().collect();
    let referenced: HashSet<BlockId> = ancestors
        .iter()
        .flat_map(|&a| tree.block(a).uncle_refs().iter().copied())
        .collect();
    let mut refs = Vec::new();
    'outer: for &a in &ancestors[1..] {
        if new_height - tree.height(a) > max_d + 1 {
            break;
        }
        for &u in tree.children(a) {
            if on_chain.contains(&u) || referenced.contains(&u) || !visible(u) {
                continue;
            }
            refs.push(u);
            if refs.len() >= cap {
                break 'outer;
            }
        }
    }
    refs
}

/// The pre-refactor `classify::uncle_events_with_cap`.
fn reference_uncle_events(
    tree: &BlockTree,
    main_chain: &[BlockId],
    max_distance: u64,
    cap: Option<usize>,
) -> Vec<UncleEvent> {
    let on_chain: HashSet<BlockId> = main_chain.iter().copied().collect();
    let mut referenced: HashSet<BlockId> = HashSet::new();
    let mut events = Vec::new();
    for &nephew in main_chain {
        let nephew_height = tree.height(nephew);
        let mut accepted = 0usize;
        for &uncle in tree.block(nephew).uncle_refs() {
            if cap.is_some_and(|c| accepted >= c) {
                break;
            }
            if referenced.contains(&uncle) || on_chain.contains(&uncle) {
                continue;
            }
            let ub = tree.block(uncle);
            let Some(parent) = ub.parent() else { continue };
            if !on_chain.contains(&parent) {
                continue;
            }
            let uncle_height = ub.height();
            if uncle_height >= nephew_height || nephew_height - uncle_height > max_distance {
                continue;
            }
            referenced.insert(uncle);
            accepted += 1;
            events.push(UncleEvent {
                uncle,
                nephew,
                distance: nephew_height - uncle_height,
            });
        }
    }
    events
}

/// The pre-refactor `accounting::account_with_events`.
fn reference_account(
    tree: &BlockTree,
    main_chain: &[BlockId],
    schedule: &RewardSchedule,
    events: &[UncleEvent],
) -> RewardReport {
    let mut report = RewardReport::default();
    let on_chain: HashSet<BlockId> = main_chain.iter().copied().collect();
    let uncles: HashSet<BlockId> = events.iter().map(|e| e.uncle).collect();
    for block in tree.iter().filter(|b| !b.is_genesis()) {
        let entry = report.per_miner.entry(block.miner()).or_default();
        if on_chain.contains(&block.id()) {
            entry.static_reward += schedule.static_reward();
            entry.regular_blocks += 1;
            report.regular_count += 1;
        } else if uncles.contains(&block.id()) {
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

/// Deterministic 64-bit mixer driving the random trees.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random bushy tree of `n` blocks on top of genesis. Parents are drawn
/// from the newest few blocks (so forks and long branches both occur);
/// headers either follow the reference selector or carry arbitrary
/// references to recent blocks, valid or not.
fn random_tree(seed: u64, n: usize) -> BlockTree {
    let mut s = seed;
    let mut tree = BlockTree::new();
    let honest = RewardSchedule::fixed_uncle_unbounded(0.5);
    for _ in 0..n {
        let len = tree.len() as u64;
        let back = 1 + splitmix(&mut s) % len.min(6);
        let parent = BlockId((len - back) as u32);
        let refs = if splitmix(&mut s).is_multiple_of(2) {
            reference_select(&tree, parent, &honest, |u| u.0 % 3 != 0)
        } else {
            (0..splitmix(&mut s) % 4)
                .map(|_| BlockId((len - 1 - splitmix(&mut s) % len.min(16)) as u32))
                .filter(|&u| u != parent)
                .collect()
        };
        let miner = MinerId((splitmix(&mut s) % 4) as u32);
        tree.add_block(parent, miner, &refs).expect("valid block");
    }
    tree
}

/// The schedules the oracles sweep: reference distance × per-block cap.
fn schedules() -> Vec<RewardSchedule> {
    let mut out = Vec::new();
    for max_d in [0, 1, 6, 64] {
        for cap in [None, Some(0), Some(1), Some(2)] {
            out.push(RewardSchedule::custom(
                1.0,
                UncleReward::Ethereum,
                NephewReward::Ethereum,
                max_d,
                cap,
            ));
        }
    }
    out.push(RewardSchedule::ethereum());
    out.push(RewardSchedule::fixed_uncle_unbounded(0.5));
    out
}

fn reward_bits(r: &MinerRewards) -> [u64; 6] {
    [
        r.static_reward.to_bits(),
        r.uncle_reward.to_bits(),
        r.nephew_reward.to_bits(),
        r.regular_blocks,
        r.uncle_blocks,
        r.stale_blocks,
    ]
}

/// Every field of a report, f64s as bits, miners sorted.
fn report_bits(r: &RewardReport) -> String {
    let mut miners: Vec<_> = r
        .per_miner
        .iter()
        .map(|(&id, m)| (id, reward_bits(m)))
        .collect();
    miners.sort();
    format!(
        "{miners:?} {}/{}/{} {:?}",
        r.regular_count, r.uncle_count, r.stale_count, r.distance_histogram
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The shared selector returns exactly the reference selector's
    /// references — same blocks, same order — for every parent of a
    /// random tree, under random visibility, every distance and cap.
    #[test]
    fn selector_matches_hash_set_reference(seed in any::<u64>(), n in 1usize..160, density in 0u64..4) {
        let tree = random_tree(seed, n);
        let hidden = |u: BlockId| (u64::from(u.0) ^ seed).wrapping_mul(0x9e37_79b9) % 4 < density;
        let mut buf = Vec::new();
        for schedule in schedules() {
            for parent in tree.iter().map(|b| b.id()) {
                let expected = reference_select(&tree, parent, &schedule, |u| !hidden(u));
                select_uncles(&tree, parent, &schedule, |u| !hidden(u), &mut buf);
                prop_assert_eq!(&buf, &expected);
            }
        }
    }

    /// Dense-set settlement matches the hash-set reference: identical
    /// uncle events in identical order, and bit-identical reward reports.
    #[test]
    fn settlement_matches_hash_set_reference(seed in any::<u64>(), n in 1usize..160) {
        let tree = random_tree(seed, n);
        let mut s = seed ^ 0x5eed;
        for _ in 0..4 {
            let head = BlockId((splitmix(&mut s) % tree.len() as u64) as u32);
            let chain = tree.path_from_genesis(head);
            for schedule in schedules() {
                let (d, cap) = (schedule.max_uncle_distance(), schedule.max_uncles_per_block());
                let events = classify::uncle_events_with_cap(&tree, &chain, d, cap);
                prop_assert_eq!(&events, &reference_uncle_events(&tree, &chain, d, cap));
                let dense = accounting::account_with_events(&tree, &chain, &schedule, &events);
                let hashed = reference_account(&tree, &chain, &schedule, &events);
                prop_assert_eq!(report_bits(&dense), report_bits(&hashed));
            }
        }
    }
}

#[test]
fn random_trees_exercise_every_selector_branch() {
    // Guard the generator: the sweep above must meet forks, referenced
    // siblings and capped selections, or it proves nothing.
    let schedule = RewardSchedule::fixed_uncle_unbounded(0.5);
    let (mut picked, mut capped, mut referenced) = (0, 0, 0);
    for seed in 0..32 {
        let tree = random_tree(seed, 120);
        for parent in tree.iter().map(|b| b.id()) {
            let all = reference_select(&tree, parent, &schedule, |_| true);
            picked += all.len();
            capped += usize::from(all.len() > 2);
            referenced += tree.block(parent).uncle_refs().len();
        }
    }
    assert!(picked > 1000 && capped > 100 && referenced > 1000);
}
