//! Blockchain substrate for the selfish-mining study: block trees,
//! fork-choice rules, Ethereum-style block classification and reward
//! schedules.
//!
//! *Selfish Mining in Ethereum* (Niu & Feng, ICDCS 2019) analyses mining
//! revenue under Ethereum's three block-reward types (Table I of the paper):
//! the **static** reward for regular (main-chain) blocks, the **uncle**
//! reward for stale blocks that are direct children of the main chain and
//! get referenced, and the **nephew** reward for the regular block that
//! references an uncle. This crate implements the machinery those concepts
//! live on:
//!
//! - [`BlockTree`]: an append-only arena of blocks with parent links, uncle
//!   reference links and ancestry queries (Section II-A of the paper).
//! - [`forkchoice`]: the longest-chain rule with pluggable tie-breaking and
//!   the GHOST heaviest-subtree rule (Section II-B).
//! - [`classify`]: partitioning a tree into regular / uncle / stale blocks
//!   given a main chain, with reference distances (Section III-B, Fig. 3).
//! - [`RewardSchedule`]: static/uncle/nephew reward functions, including the
//!   Ethereum Byzantium schedule `Ku(d) = (8-d)/8`, `Kn = 1/32` (Eq. (7)),
//!   fixed-value schedules used in Section VI, and Bitcoin (no uncle
//!   rewards).
//! - [`accounting`]: per-miner reward tallies over a finished tree.
//! - [`uncles`]: Ethereum's uncle-selection rule at mining time, shared by
//!   every simulator.
//!
//! # Example: a fork resolved by a referencing nephew
//!
//! ```
//! use seleth_chain::{BlockTree, MinerId, classify::{self, BlockClass}};
//!
//! let miner = MinerId(0);
//! let mut tree = BlockTree::new();
//! let a = tree.add_block(tree.genesis(), miner, &[]).unwrap();
//! let b1 = tree.add_block(a, miner, &[]).unwrap();
//! let b2 = tree.add_block(a, miner, &[]).unwrap();
//! let b3 = tree.add_block(a, miner, &[]).unwrap();
//! // C1 extends B2 and references the two stale siblings.
//! let c1 = tree.add_block(b2, miner, &[b1, b3]).unwrap();
//! let main_chain = [tree.genesis(), a, b2, c1];
//! let classes = classify::classify(&tree, &main_chain, 6);
//! assert_eq!(classes[&b2], BlockClass::Regular);
//! assert!(matches!(classes[&b1], BlockClass::Uncle { distance: 1, .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never a panic, on
// untrusted input; invariant violations use `expect` with a message.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod accounting;
mod block;
pub mod classify;
mod error;
pub mod forkchoice;
#[cfg(test)]
mod oracle;
mod rewards;
mod tree;
pub mod uncles;

pub use block::{Block, BlockId, MinerId};
pub use error::ChainError;
pub use rewards::{
    NephewReward, RewardSchedule, Scenario, UncleReward, ETHEREUM_MAX_UNCLE_DISTANCE,
    UNBOUNDED_UNCLE_DISTANCE,
};
pub use tree::BlockTree;
