use std::error::Error;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use seleth_chain::RewardSchedule;
use seleth_mdp::PolicyTable;

/// Error raised by [`SimConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// `alpha` must lie in `[0, 1)` (the pool must not own everything).
    InvalidAlpha {
        /// The rejected value.
        alpha: f64,
    },
    /// `gamma` must lie in `[0, 1]`.
    InvalidGamma {
        /// The rejected value.
        gamma: f64,
    },
    /// At least one honest miner is required.
    NoHonestMiners,
    /// A run must produce at least one block.
    NoBlocks,
    /// The block budget exceeds what a block tree can hold (`u32::MAX`
    /// blocks): such a run would exhaust the tree's id space part-way.
    TooManyBlocks {
        /// The rejected budget.
        blocks: u64,
    },
    /// [`PoolStrategy::Table`] requires a policy table (and vice versa).
    PolicyMismatch,
    /// A delay-study share vector must be a probability distribution:
    /// every share finite and non-negative, summing to 1 (the
    /// [`crate::pools`] helpers produce exactly that). Raised instead of
    /// silently renormalizing, so typos in hand-written splits fail loudly.
    InvalidShares {
        /// Sum of the rejected share vector (NaN if a share was NaN).
        total: f64,
    },
    /// The delay-study strategy vector must assign exactly one strategy
    /// per miner.
    StrategyCount {
        /// Number of miners (length of the share vector).
        miners: usize,
        /// Number of strategies supplied.
        strategies: usize,
    },
    /// A fault plan is malformed: a rate outside `[0, 1]`, a degenerate
    /// backoff or churn parameter, a malformed or overlapping window, or
    /// a miner index / partition group vector that disagrees with the
    /// share vector (see [`crate::faults::FaultPlan`]).
    InvalidFaultPlan {
        /// What was wrong with the plan.
        reason: String,
    },
    /// A propagation topology disagrees with the run's share vector (see
    /// `seleth_net::Topology`).
    InvalidTopology {
        /// What was wrong with the topology.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidAlpha { alpha } => {
                write!(f, "alpha must be in [0, 1), got {alpha}")
            }
            SimError::InvalidGamma { gamma } => {
                write!(f, "gamma must be in [0, 1], got {gamma}")
            }
            SimError::NoHonestMiners => write!(f, "at least one honest miner is required"),
            SimError::NoBlocks => write!(f, "block budget must be positive"),
            SimError::TooManyBlocks { blocks } => write!(
                f,
                "block budget {blocks} exceeds the block tree's capacity of {MAX_BLOCKS} blocks"
            ),
            SimError::PolicyMismatch => write!(
                f,
                "the Table strategy and a policy table must be set together \
                 (use SimConfigBuilder::policy)"
            ),
            SimError::InvalidShares { total } => write!(
                f,
                "shares must be finite, non-negative and sum to 1, got a sum of {total}"
            ),
            SimError::StrategyCount { miners, strategies } => write!(
                f,
                "expected one strategy per miner ({miners} miners, {strategies} strategies)"
            ),
            SimError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            SimError::InvalidTopology { reason } => {
                write!(f, "invalid propagation topology: {reason}")
            }
        }
    }
}

impl Error for SimError {}

/// The largest block budget a run accepts. Every simulated block is one
/// node of a [`seleth_chain::BlockTree`], whose `u32` ids (genesis is 0)
/// leave room for `u32::MAX` blocks above genesis.
pub(crate) const MAX_BLOCKS: u64 = u32::MAX as u64;

/// Check a block budget against `1..=MAX_BLOCKS`.
pub(crate) fn check_blocks(blocks: u64) -> Result<(), SimError> {
    match blocks {
        0 => Err(SimError::NoBlocks),
        b if b > MAX_BLOCKS => Err(SimError::TooManyBlocks { blocks }),
        _ => Ok(()),
    }
}

/// The strategy run by the pool's hash power.
///
/// [`PoolStrategy::Selfish`] is the paper's Algorithm 1. The other two are
/// extensions: an honest baseline (the pool follows the protocol — useful
/// for validating that the simulator awards exactly fair shares without an
/// attack), and Lead-Stubborn mining (Nayak et al., EuroS&P 2016) adapted
/// to Ethereum rewards — the kind of "new mining strategy" the paper's
/// conclusion proposes studying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PoolStrategy {
    /// Algorithm 1 of the paper (Eyal–Sirer-style withholding with
    /// Ethereum uncle referencing).
    #[default]
    Selfish,
    /// The pool follows the protocol like everyone else.
    Honest,
    /// Lead-Stubborn: never concede a race by publishing the whole branch;
    /// when honest miners catch up, reveal only the matching block and
    /// keep mining on the private branch. Gives up only when the public
    /// chain is strictly longer.
    LeadStubborn,
    /// Replay an exported MDP policy artifact
    /// ([`seleth_mdp::PolicyTable`]): the pool consults the table before
    /// every block event and executes the prescribed
    /// adopt/override/match/wait over the real block tree. Set via
    /// [`SimConfigBuilder::policy`], which installs the table alongside
    /// this marker.
    Table,
}

/// Configuration of one simulation run.
///
/// Defaults follow the paper's setup (Section V): `n = 1000` miners with
/// equal block-generation rates (999 honest plus the pool), 100,000 blocks
/// per run, γ = 0.5 and the Ethereum reward schedule.
///
/// ```
/// use seleth_sim::SimConfig;
/// let c = SimConfig::builder().alpha(0.45).build().unwrap();
/// assert_eq!(c.alpha(), 0.45);
/// assert_eq!(c.blocks(), 100_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    alpha: f64,
    gamma: f64,
    n_honest: u32,
    blocks: u64,
    seed: u64,
    schedule: RewardSchedule,
    strategy: PoolStrategy,
    /// Shared so that cloning per seed (`with_seed` in `multi::run_many`)
    /// never copies the action arrays.
    policy: Option<Arc<PolicyTable>>,
}

impl SimConfig {
    /// Start building a configuration.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Pool hash-power fraction `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Tie-breaking parameter `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Number of distinct honest miners (ids `1..=n_honest`).
    pub fn n_honest(&self) -> u32 {
        self.n_honest
    }

    /// Number of blocks mined per run.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The reward schedule in force.
    pub fn schedule(&self) -> &RewardSchedule {
        &self.schedule
    }

    /// The strategy run by the pool.
    pub fn strategy(&self) -> PoolStrategy {
        self.strategy
    }

    /// The policy table replayed by [`PoolStrategy::Table`] (`None` for
    /// the hand-coded strategies).
    pub fn policy(&self) -> Option<&PolicyTable> {
        self.policy.as_deref()
    }

    /// A copy with a different seed (used for multi-run averaging).
    pub fn with_seed(&self, seed: u64) -> Self {
        SimConfig {
            seed,
            ..self.clone()
        }
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    alpha: f64,
    gamma: f64,
    n_honest: u32,
    blocks: u64,
    seed: u64,
    schedule: RewardSchedule,
    strategy: PoolStrategy,
    policy: Option<Arc<PolicyTable>>,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            alpha: 0.3,
            gamma: 0.5,
            n_honest: 999,
            blocks: 100_000,
            seed: 0,
            schedule: RewardSchedule::ethereum(),
            strategy: PoolStrategy::Selfish,
            policy: None,
        }
    }
}

impl SimConfigBuilder {
    /// Set the pool's hash-power fraction `α`.
    pub fn alpha(&mut self, alpha: f64) -> &mut Self {
        self.alpha = alpha;
        self
    }

    /// Set the tie-breaking parameter `γ`.
    pub fn gamma(&mut self, gamma: f64) -> &mut Self {
        self.gamma = gamma;
        self
    }

    /// Set the number of honest miners.
    pub fn n_honest(&mut self, n: u32) -> &mut Self {
        self.n_honest = n;
        self
    }

    /// Set the number of blocks to mine.
    pub fn blocks(&mut self, blocks: u64) -> &mut Self {
        self.blocks = blocks;
        self
    }

    /// Set the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Set the reward schedule.
    pub fn schedule(&mut self, schedule: RewardSchedule) -> &mut Self {
        self.schedule = schedule;
        self
    }

    /// Set the pool's strategy.
    pub fn strategy(&mut self, strategy: PoolStrategy) -> &mut Self {
        self.strategy = strategy;
        self
    }

    /// Have the pool replay `table` ([`PoolStrategy::Table`]). Implies
    /// `strategy(PoolStrategy::Table)`.
    pub fn policy(&mut self, table: PolicyTable) -> &mut Self {
        self.policy = Some(Arc::new(table));
        self.strategy = PoolStrategy::Table;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if `alpha ∉ [0, 1)`, `gamma ∉ [0, 1]`, there
    /// are no honest miners, the block budget is zero or above `u32::MAX`,
    /// or exactly one of
    /// [`PoolStrategy::Table`] / a policy table is set.
    pub fn build(&self) -> Result<SimConfig, SimError> {
        if !self.alpha.is_finite() || !(0.0..1.0).contains(&self.alpha) {
            return Err(SimError::InvalidAlpha { alpha: self.alpha });
        }
        if !self.gamma.is_finite() || !(0.0..=1.0).contains(&self.gamma) {
            return Err(SimError::InvalidGamma { gamma: self.gamma });
        }
        if self.n_honest == 0 {
            return Err(SimError::NoHonestMiners);
        }
        check_blocks(self.blocks)?;
        if (self.strategy == PoolStrategy::Table) != self.policy.is_some() {
            return Err(SimError::PolicyMismatch);
        }
        Ok(SimConfig {
            alpha: self.alpha,
            gamma: self.gamma,
            n_honest: self.n_honest,
            blocks: self.blocks,
            seed: self.seed,
            schedule: self.schedule.clone(),
            strategy: self.strategy,
            policy: self.policy.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SimConfig::builder().build().unwrap();
        assert_eq!(c.n_honest(), 999);
        assert_eq!(c.blocks(), 100_000);
        assert_eq!(c.gamma(), 0.5);
        assert_eq!(c.schedule(), &RewardSchedule::ethereum());
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            SimConfig::builder().alpha(1.0).build(),
            Err(SimError::InvalidAlpha { .. })
        ));
        assert!(matches!(
            SimConfig::builder().alpha(-0.2).build(),
            Err(SimError::InvalidAlpha { .. })
        ));
        assert!(matches!(
            SimConfig::builder().gamma(2.0).build(),
            Err(SimError::InvalidGamma { .. })
        ));
        assert!(matches!(
            SimConfig::builder().n_honest(0).build(),
            Err(SimError::NoHonestMiners)
        ));
        assert!(matches!(
            SimConfig::builder().blocks(0).build(),
            Err(SimError::NoBlocks)
        ));
    }

    #[test]
    fn budgets_beyond_the_tree_id_space_are_rejected() {
        // A run past u32::MAX blocks used to build fine and then panic
        // inside the engine when the tree's id space ran out.
        let too_many = MAX_BLOCKS + 1;
        let err = SimConfig::builder().blocks(too_many).build().unwrap_err();
        assert_eq!(err, SimError::TooManyBlocks { blocks: too_many });
        assert!(err.to_string().contains(&too_many.to_string()));
        assert!(matches!(
            SimConfig::builder().blocks(u64::MAX).build(),
            Err(SimError::TooManyBlocks { .. })
        ));
        let at_capacity = SimConfig::builder().blocks(MAX_BLOCKS).build().unwrap();
        assert_eq!(at_capacity.blocks(), u64::from(u32::MAX));
    }

    #[test]
    fn strategy_defaults_to_selfish() {
        let c = SimConfig::builder().build().unwrap();
        assert_eq!(c.strategy(), PoolStrategy::Selfish);
        assert!(c.policy().is_none());
        let h = SimConfig::builder()
            .strategy(PoolStrategy::Honest)
            .build()
            .unwrap();
        assert_eq!(h.strategy(), PoolStrategy::Honest);
    }

    #[test]
    fn policy_builder_installs_table_strategy() {
        let table = PolicyTable::honest(0.3, 0.5, 8);
        let c = SimConfig::builder().policy(table.clone()).build().unwrap();
        assert_eq!(c.strategy(), PoolStrategy::Table);
        assert_eq!(c.policy(), Some(&table));
        // with_seed keeps the (shared) table.
        let d = c.with_seed(9);
        assert_eq!(d.policy(), Some(&table));
    }

    #[test]
    fn table_strategy_without_table_is_rejected() {
        assert!(matches!(
            SimConfig::builder().strategy(PoolStrategy::Table).build(),
            Err(SimError::PolicyMismatch)
        ));
        // ... and installing a table then switching strategy is too.
        assert!(matches!(
            SimConfig::builder()
                .policy(PolicyTable::honest(0.3, 0.5, 8))
                .strategy(PoolStrategy::Selfish)
                .build(),
            Err(SimError::PolicyMismatch)
        ));
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let c = SimConfig::builder().alpha(0.4).seed(1).build().unwrap();
        let d = c.with_seed(99);
        assert_eq!(d.seed(), 99);
        assert_eq!(d.alpha(), 0.4);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = SimConfig::builder().alpha(1.5).build().unwrap_err();
        assert!(e.to_string().contains("alpha"));
    }
}
