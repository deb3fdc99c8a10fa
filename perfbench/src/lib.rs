//! The repository benchmark: four closed-loop workloads over the paper's
//! pipeline, each checked against a reference already in the repository.
//!
//! A plain run (`--trace 0`) repeats one fixed job until the time budget
//! is spent and reports the end-to-end metrics ([`END_TO_END`]). A traced
//! run (`--trace 1`) wraps timers around the calls into each crate's
//! public functions, from outside the crates, and reports the per-layer
//! metrics ([`PER_LAYER`]). See `README.md` in this directory for why each
//! workload exists and which end-to-end metric each layer metric moves.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

mod alg1_engine;
mod gossip_delay;
mod mdp_optimal;
mod paper_thresholds;

/// The workloads, by the names `BENCHMARK.json` uses.
pub const WORKLOADS: [&str; 4] = [
    "alg1_engine",
    "gossip_delay",
    "mdp_optimal",
    "paper_thresholds",
];

/// End-to-end metrics of a plain run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of a traced run: `(name, unit)`. A workload that
/// never calls into a layer reports `0` for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sim.engine.step_ns_per_block", "ns"),
    ("sim.engine.finalize_ns_per_block", "ns"),
    ("chain.longest_chain_ns_per_block", "ns"),
    ("chain.uncle_events_ns_per_block", "ns"),
    ("chain.account_ns_per_block", "ns"),
    ("chain.add_block_ns", "ns"),
    ("chain.regular_ratio", "ratio"),
    ("chain.uncle_refs_per_block", "ratio"),
    ("sim.multi.busy_fraction", "ratio"),
    ("sim.multi.queue_wait_ms", "ms"),
    ("sim.multi.speedup_t2", "x"),
    ("net.propagate_ns_per_call", "ns"),
    ("net.propagate_share", "ratio"),
    ("net.sends_per_release", "count"),
    ("net.useful_send_ratio", "ratio"),
    ("net.loss_retries_per_release", "count"),
    ("sim.delay.self_ns_per_block", "ns"),
    ("sim.delay.orphan_rate", "ratio"),
    ("sim.delay.deliveries_per_block", "count"),
    ("mdp.solve_s", "s"),
    ("mdp.sweeps", "count"),
    ("mdp.bisection_steps", "count"),
    ("mdp.ns_per_state_sweep", "ns"),
    ("mdp.warm_start_hit_rate", "ratio"),
    ("mdp.speedup_t2", "x"),
    ("mdp.lower_ms", "ms"),
    ("mdp.policy_load_ms", "ms"),
    ("core.build_dtmc_ms", "ms"),
    ("markov.stationary_ms", "ms"),
    ("core.revenue_ms", "ms"),
    ("core.solves_per_threshold", "count"),
    ("markov.stationary_share", "ratio"),
    ("reconcile.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Job size: `Full` is what the benchmark measures; `Tiny` is for the
/// self-test and quick smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A seconds-scale version of every workload.
    Tiny,
}

/// Reference values the output checks compare against. All come from
/// the repository: the committed policy artifact and the paper anchors
/// pinned in `tests/paper_anchors.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct References {
    /// The `gossip_delay` strategist, and the source of `mdp_rho`.
    pub policy_artifact: PathBuf,
    /// Optimal revenue ρ* recorded in the committed artifact.
    pub mdp_rho: f64,
    /// Paper: α* at γ = 0.5 in scenario 1 with the Ethereum schedule.
    pub alpha_star_s1: f64,
    /// Paper: γ above which scenario 2's α* exceeds Bitcoin's.
    pub crossover_gamma: f64,
}

/// The committed `ethereum_a030_g050` artifact, relative to the root.
const POLICY_ARTIFACT: &str = "results/policies/ethereum_a030_g050.json";

impl References {
    /// Load the references from a repository checkout rooted at `root`.
    ///
    /// # Errors
    ///
    /// When the committed policy artifact is missing or malformed.
    pub fn from_repo(root: &Path) -> Result<Self, String> {
        let policy_artifact = root.join(POLICY_ARTIFACT);
        let table = seleth_mdp::PolicyTable::load(&policy_artifact)
            .map_err(|e| format!("reference artifact {}: {e}", policy_artifact.display()))?;
        Ok(References {
            policy_artifact,
            mdp_rho: table.predicted_revenue(),
            alpha_star_s1: 0.054,
            crossover_gamma: 0.39,
        })
    }
}

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Measuring budget: jobs (or traced rounds) repeat until it is spent.
    pub seconds: f64,
    /// Job size.
    pub size: Size,
    /// Output-check references.
    pub refs: References,
}

impl Options {
    fn budget(&self) -> Budget {
        let now = Instant::now();
        Budget {
            deadline: now + Duration::from_secs_f64(self.seconds.max(0.0)),
            last_start: now,
        }
    }
}

/// The measuring budget of one run. Jobs (or traced rounds) go on while
/// the next one, predicted to last as long as the previous one, still ends
/// inside it, so a run never overshoots `--seconds` by a whole job.
struct Budget {
    deadline: Instant,
    last_start: Instant,
}

impl Budget {
    /// Call after each job: whether another one fits.
    fn another(&mut self) -> bool {
        let now = Instant::now();
        let last = now - self.last_start;
        self.last_start = now;
        now + last <= self.deadline
    }
}

/// The result of one invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: simulation runs, solves or thresholds.
    pub attempted: u64,
    /// Operations that errored or failed their reference check.
    pub failed: u64,
    /// `(name, unit, value)` in emission order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable report lines, printed before the JSON result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The value of metric `name`, if emitted.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }

    /// The one-line JSON result the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal of a finite `f64`; non-finite becomes `0`
/// so the result line stays valid JSON (the human lines show the raw value).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Run `workload` plainly (`trace = false`) or traced.
///
/// # Errors
///
/// An unknown workload name, or a failure to set the workload up (bad
/// reference artifact, configuration rejected by the library).
pub fn run(workload: &str, trace: bool, opts: &Options) -> Result<Outcome, String> {
    let mut outcome = if trace {
        let traced = match workload {
            "alg1_engine" => alg1_engine::trace(opts)?,
            "gossip_delay" => gossip_delay::trace(opts)?,
            "mdp_optimal" => mdp_optimal::trace(opts)?,
            "paper_thresholds" => paper_thresholds::trace(opts)?,
            other => return Err(format!("unknown workload `{other}`")),
        };
        traced.into_outcome()?
    } else {
        let plain = match workload {
            "alg1_engine" => alg1_engine::run(opts)?,
            "gossip_delay" => gossip_delay::run(opts)?,
            "mdp_optimal" => mdp_optimal::run(opts)?,
            "paper_thresholds" => paper_thresholds::run(opts)?,
            other => return Err(format!("unknown workload `{other}`")),
        };
        plain.into_outcome()?
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    outcome.lines.insert(
        0,
        format!(
            "workload={workload} seed={} seconds={} trace={} size={:?} available_parallelism={threads}",
            opts.seed,
            opts.seconds,
            u8::from(trace),
            opts.size
        ),
    );
    Ok(outcome)
}

/// Measurements of a plain run, summarised by [`Plain::into_outcome`].
#[derive(Debug, Default)]
struct Plain {
    /// Wall time of each job, in seconds.
    job_walls: Vec<f64>,
    /// Set-up samples, in seconds each.
    setup: Vec<f64>,
    /// Simulated blocks per job (simulation workloads only).
    blocks_per_job: Option<u64>,
    /// Operations attempted.
    attempted: u64,
    /// Operations failed.
    failed: u64,
    /// Workload-specific report lines.
    notes: Vec<String>,
}

impl Plain {
    fn into_outcome(self) -> Result<Outcome, String> {
        if self.job_walls.is_empty() || self.setup.is_empty() {
            return Err("no job completed".to_string());
        }
        let wall = Summary::of(&self.job_walls);
        let setup = Summary::of(&self.setup);
        let rss = peak_rss_mb()?;
        let mut lines = vec![
            wall.line("wall_s", "s"),
            setup.line("setup_s", "s"),
            format!("  {:<14} {rss:.3} MB (process peak)", "peak_rss_mb"),
        ];
        if let Some(blocks) = self.blocks_per_job {
            let rates: Vec<f64> = self.job_walls.iter().map(|w| blocks as f64 / w).collect();
            lines.push(Summary::of(&rates).line("blocks_per_s", "1/s"));
        }
        let mut outcome = Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                ("wall_s", "s", wall.median),
                ("setup_s", "s", setup.median),
                ("peak_rss_mb", "MB", rss),
            ],
            lines,
        };
        outcome.lines.push(format!(
            "  {:<14} {} ({} of {} operations)",
            "failed_frac",
            outcome.failed_frac(),
            outcome.failed,
            outcome.attempted
        ));
        outcome.lines.extend(self.notes);
        Ok(outcome)
    }
}

/// Per-round layer measurements of a traced run. Each metric's value is
/// the median over rounds; metrics a workload never sets report `0`.
#[derive(Debug, Default)]
struct Traced {
    rounds: BTreeMap<&'static str, Vec<f64>>,
    /// Operations attempted during the traced rounds.
    attempted: u64,
    /// Operations failed (including replays that disagree with the
    /// library's own result).
    failed: u64,
    /// Workload-specific report lines.
    notes: Vec<String>,
}

impl Traced {
    /// Record one round's value of `name`.
    fn record(&mut self, name: &'static str, value: f64) {
        self.rounds.entry(name).or_default().push(value);
    }

    fn into_outcome(self) -> Result<Outcome, String> {
        for name in self.rounds.keys() {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                return Err(format!("layer metric `{name}` is not declared"));
            }
        }
        let mut outcome = Outcome {
            attempted: self.attempted,
            failed: self.failed,
            ..Outcome::default()
        };
        for (name, unit) in PER_LAYER {
            match self.rounds.get(name) {
                Some(values) => {
                    let s = Summary::of(values);
                    outcome.lines.push(s.line(name, unit));
                    outcome.metrics.push((name, unit, s.median));
                }
                None => outcome.metrics.push((name, unit, 0.0)),
            }
        }
        outcome.lines.push(format!(
            "  (layers this workload never calls report 0; failed_frac {} of {} operations)",
            outcome.failed, outcome.attempted
        ));
        outcome.lines.extend(self.notes);
        Ok(outcome)
    }
}

/// Median and quartiles of a sample, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        };
        if n < 2 {
            return Summary {
                q1: median,
                median,
                q3: median,
                n,
            };
        }
        let quartile = |i: usize| {
            // Python's exclusive method, integer arithmetic included:
            // position i·(n+1)/4, clamped to [1, n-1], interpolated
            // (extrapolated at the clamped ends).
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            q1: quartile(1),
            median,
            q3: quartile(3),
            n,
        }
    }

    fn line(&self, name: &str, unit: &str) -> String {
        format!(
            "  {name:<14} {:.6e} {unit} (median; q1 {:.6e}, q3 {:.6e}, n={})",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak RSS: no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Set-up timing. A sample times a batch of set-up calls lasting at
/// least a millisecond (cheap set-ups are batched) and records seconds
/// per call. Samples are taken up front and again after every job, so
/// their median spans the run the way the job walls do.
struct SetupTimer<F> {
    setup: F,
    batch: u32,
    samples: Vec<f64>,
}

impl<T, F: FnMut() -> Result<T, String>> SetupTimer<F> {
    /// Calibrate the batch and take the up-front samples; also returns
    /// the set-up's result.
    fn start(mut setup: F) -> Result<(T, Self), String> {
        const UP_FRONT: usize = 5;
        const MIN_SAMPLE: Duration = Duration::from_millis(1);
        let mut batch = 1u32;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(setup()?);
            }
            if t.elapsed() >= MIN_SAMPLE || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        let mut timer = SetupTimer {
            setup,
            batch,
            samples: Vec::new(),
        };
        for _ in 1..UP_FRONT {
            timer.sample()?;
        }
        Ok((timer.sample()?, timer))
    }

    /// Take one more sample.
    fn sample(&mut self) -> Result<T, String> {
        let t = Instant::now();
        let mut last = (self.setup)()?;
        for _ in 1..self.batch {
            last = std::hint::black_box((self.setup)()?);
        }
        self.samples
            .push(t.elapsed().as_secs_f64() / f64::from(self.batch));
        Ok(last)
    }
}

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nanoseconds since `t`, as `f64`.
fn nanos(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// SplitMix64: decorrelates derived seeds (and draws the fixed gossip
/// graph) so neighbouring workload seeds give unrelated inputs.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
