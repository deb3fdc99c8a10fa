//! Uncle selection at mining time: the one place Ethereum's uncle rule
//! lives (the role CKB's `UncleProvider` plays for its uncle verifier).
//!
//! A block mined on `parent` at height `n` references, as the paper's
//! Algorithm 1 does ("all unreferenced uncle blocks"), every block `U`
//! such that `U`'s parent is an ancestor of the new block with
//! `1 ≤ n − height(U) ≤ max_d`, `U` is not itself an ancestor, no ancestor
//! in that window already references `U`, and `U` is visible to the miner
//! — up to the schedule's per-block cap, nearest ancestors first and each
//! ancestor's children in insertion order. Visibility is the only thing
//! the simulators disagree on, so it is a closure; [`crate::classify`]
//! re-checks the rule after the fact against the final main chain.
//!
//! Selection touches only the last `max_d` blocks of one branch, so it
//! needs no hash set: each ancestor's on-chain child is the block walked
//! just before it, and "already referenced" scans the window's references.

use crate::block::BlockId;
use crate::rewards::RewardSchedule;
use crate::tree::BlockTree;

/// Fill `out` with the uncle references a block mined on `parent` makes
/// under `schedule`, counting only blocks for which `visible` is `true`.
///
/// `out` is cleared first and doubles as scratch space, so a caller that
/// keeps one buffer allocates nothing in steady state. `visible` is asked
/// only about blocks that pass every other test, in selection order.
/// Panics if `parent` is not in the tree.
///
/// ```
/// use seleth_chain::{uncles::select_uncles, BlockTree, MinerId, RewardSchedule};
/// let m = MinerId(0);
/// let mut tree = BlockTree::new();
/// let a = tree.add_block(tree.genesis(), m, &[]).unwrap();
/// let stale = tree.add_block(a, m, &[]).unwrap();
/// let b = tree.add_block(a, m, &[]).unwrap();
/// let mut refs = Vec::new();
/// select_uncles(&tree, b, &RewardSchedule::ethereum(), |_| true, &mut refs);
/// assert_eq!(refs, [stale]);
/// // Invisible blocks are never referenced.
/// select_uncles(&tree, b, &RewardSchedule::ethereum(), |u| u != stale, &mut refs);
/// assert!(refs.is_empty());
/// ```
pub fn select_uncles(
    tree: &BlockTree,
    parent: BlockId,
    schedule: &RewardSchedule,
    mut visible: impl FnMut(BlockId) -> bool,
    out: &mut Vec<BlockId>,
) {
    out.clear();
    let cap = schedule.max_uncles_per_block().unwrap_or(usize::MAX);
    // `out[..picked]` is the selection; `out[picked..]` the references
    // carried by the blocks walked so far. Lower blocks need no gathering:
    // the tree is append-only, so they cannot reference a later candidate.
    let mut picked = 0;
    // The on-chain child of the ancestor being scanned.
    let mut child = parent;
    'walk: for _ in 0..schedule.max_uncle_distance() {
        let block = tree.block(child);
        out.extend_from_slice(block.uncle_refs());
        let Some(ancestor) = block.parent() else {
            break;
        };
        for &u in tree.children(ancestor) {
            if picked == cap {
                break 'walk;
            }
            if u == child || out[picked..].contains(&u) || !visible(u) {
                continue;
            }
            out.insert(picked, u);
            picked += 1;
        }
        child = ancestor;
    }
    out.truncate(picked);
}
