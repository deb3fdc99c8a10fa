//! Experiment harness for the reproduction of *Selfish Mining in Ethereum*
//! (Niu & Feng, ICDCS 2019).
//!
//! Each table and figure of the paper's evaluation has a dedicated binary
//! (run with `cargo run --release -p seleth-bench --bin <name>`):
//!
//! | Binary       | Reproduces |
//! |--------------|------------|
//! | `table1`     | Table I — reward types in Ethereum vs Bitcoin |
//! | `fig6`       | Fig. 6 — mining-pool hash-power shares (2018-09) |
//! | `stationary` | Fig. 7 / Eq. (2) — stationary-distribution self-check |
//! | `fig8`       | Fig. 8 — absolute revenue vs α, theory + simulation |
//! | `fig9`       | Fig. 9 — revenue under different uncle rewards |
//! | `fig10`      | Fig. 10 — profitability thresholds vs γ |
//! | `table2`     | Table II — honest uncle reference distances |
//! | `discussion` | Section VI — redesigned reward function thresholds |
//!
//! Extension experiments beyond the paper:
//!
//! | Binary        | What it studies |
//! |---------------|-----------------|
//! | `strategies`  | Honest vs Algorithm 1 vs Lead-Stubborn, all simulated |
//! | `optimal`     | MDP-optimal revenue vs Algorithm 1 (Bitcoin + Ethereum) |
//! | `optimal_sim` | Exported optimal policies replayed in the simulator, gated vs ρ* |
//! | `delay`       | Propagation-delay sensitivity of the simulator (all honest) |
//! | `optimal_delay` | Optimal artifacts replayed *under delay*: ρ* degradation study (`delay_study.json`) |
//! | `optimal_closed_loop` | Race-window (delay-aware) artifacts vs the zero-delay optimum under delay, gated (`optimal_closed_loop.json`) |
//! | `strategy_zoo` | Hand-written strategy families vs the optimum, incl. multi-strategist matchups (`zoo_study.json`; lives in `seleth-zoo`) |
//! | `chaos_study` | Strategic replay under injected faults: loss × churn × partition grid (`chaos_study.json`; lives in `seleth-zoo`) |
//! | `ablation_truncation` | Model-truncation bias ablation |
//!
//! Contract gates and tooling (the repository's benchmark is the separate
//! `perfbench` package; these bins gate fixed speed contracts and print
//! their measurements):
//!
//! | Binary         | What it measures or does |
//! |----------------|--------------------------|
//! | `bench_solver` | Numeric-kernel timings; gates the MDP expansion-reuse speed-up (`BENCH_solver.json`) |
//! | `bench_sim`    | Simulator throughput; gates playback and recorder overheads (`BENCH_sim.json`) |
//! | `bench_net`    | Gossip propagation and graph-mode throughput; gates graph vs uniform (`BENCH_net.json`) |
//! | `perf_report`  | Renders the `"telemetry"` profile of study and bench JSONs |
//!
//! Binaries print the same rows/series the paper reports and write CSV
//! files under `results/` (override with `SELETH_RESULTS`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never a panic, on
// untrusted input; invariant violations use `expect` with a message.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

use std::ffi::OsStr;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

pub mod report;

/// Directory where experiment CSVs are written: `$SELETH_RESULTS` if set,
/// else `./results` relative to the current directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("SELETH_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Every top-level `*.json` file in `dir`, sorted by file name: the
/// study and bench artifacts `perf_report` renders when named no files.
///
/// # Errors
///
/// Propagates the I/O error of reading `dir`.
pub fn study_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_file() && path.extension().is_some_and(|e| e == "json") {
            found.push(path);
        }
    }
    found.sort();
    Ok(found)
}

/// Directory holding exported policy artifacts: `$SELETH_POLICIES` if
/// set, else `policies/` inside [`results_dir`]. The override lets CI
/// redirect experiment *output* to a scratch directory while still
/// replaying the committed artifacts.
pub fn policies_dir() -> PathBuf {
    std::env::var_os("SELETH_POLICIES")
        .map_or_else(|| results_dir().join("policies"), PathBuf::from)
}

/// Load a policy artifact `<name>.json` from [`policies_dir`], or solve
/// it at `(alpha, gamma, rewards, max_len)` and save it when absent —
/// so experiment bins stay self-contained on fresh checkouts and scratch
/// `SELETH_POLICIES` directories. A cached file whose metadata disagrees
/// with the request (e.g. a committed default-truncation artifact under
/// a `SELETH_MDP_LEN` override — the truncation is not in the filename)
/// is re-solved rather than silently returned mislabeled; the existing
/// file is left untouched (only missing artifacts are written, so a
/// knob override can never clobber the committed set).
///
/// # Panics
///
/// Panics when the solve or the save fails: experiment binaries have no
/// recovery path.
pub fn load_or_solve_policy(
    name: &str,
    alpha: f64,
    gamma: f64,
    rewards: seleth_mdp::RewardModel,
    max_len: u32,
) -> seleth_mdp::PolicyTable {
    load_or_solve_policy_delay(name, alpha, gamma, rewards, max_len, 0.0)
}

/// [`load_or_solve_policy`] for delay-aware artifacts: the solve runs on
/// the race-window kernel at `delay_ratio` (propagation delay / mean
/// block interval; `0.0` is exactly the classic kernel) and a cached
/// file must additionally match the requested ratio to be returned.
///
/// # Panics
///
/// As [`load_or_solve_policy`].
pub fn load_or_solve_policy_delay(
    name: &str,
    alpha: f64,
    gamma: f64,
    rewards: seleth_mdp::RewardModel,
    max_len: u32,
    delay_ratio: f64,
) -> seleth_mdp::PolicyTable {
    let path = policies_dir().join(format!("{name}.json"));
    let mut save_solved = true;
    if let Ok(table) = seleth_mdp::PolicyTable::load(&path) {
        if table.alpha() == alpha
            && table.gamma() == gamma
            && table.rewards() == rewards
            && table.max_len() == max_len
            && table.delay() == delay_ratio
        {
            return table;
        }
        eprintln!("  (artifact {name} metadata disagrees with the request; re-solving)");
        save_solved = false;
    } else {
        eprintln!("  (artifact {name} missing; solving)");
    }
    let config = seleth_mdp::MdpConfig::new(alpha, gamma, rewards)
        .with_max_len(max_len)
        .with_delay_ratio(delay_ratio);
    let solution = config.solve().expect("mdp solve");
    let table = seleth_mdp::PolicyTable::from_solution(&config, &solution);
    if save_solved {
        table.save(&path).expect("save policy artifact");
    }
    table
}

/// Shortest-round-trip float formatting for hand-rolled JSON output (the
/// vendored serde is marker-only), matching the policy-artifact format.
pub fn json_f64(v: f64) -> String {
    format!("{v}")
}

/// The host fingerprint block shared by every perf artifact: the
/// `bench_*` bins embed it as their `"host"` field, so a reader can tell
/// which machine (`os`/`arch`/`available_parallelism` — the axes that
/// move the headline numbers) a committed measurement came from.
pub fn host_fingerprint_json() -> String {
    format!(
        "{{\"os\": \"{}\", \"arch\": \"{}\", \"available_parallelism\": {}}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )
}

/// Write a text file (e.g. hand-rolled JSON) into [`results_dir`],
/// creating the directory if needed.
///
/// # Panics
///
/// Panics on I/O failure: experiment binaries have no recovery path and a
/// loud failure beats silently missing output.
pub fn write_text(name: &str, contents: &str) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(name);
    fs::write(&path, contents).expect("write results file");
    path
}

/// Write a CSV file into [`results_dir`], creating the directory if needed.
///
/// # Panics
///
/// Panics on I/O failure: experiment binaries have no recovery path and a
/// loud failure beats silently missing output.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(name);
    let mut file = fs::File::create(&path).expect("create CSV file");
    writeln!(file, "{}", header.join(",")).expect("write CSV header");
    for row in rows {
        writeln!(file, "{}", row.join(",")).expect("write CSV row");
    }
    path
}

/// Run `f` `reps` times (at least once) and return the fastest wall time
/// in seconds together with the value *that* run produced, so timing
/// carried inside the value (per-worker spans, say) lines up with the
/// reported time. The one best-of-N estimator of every `bench_*` bin.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < best {
            best = elapsed;
            out = Some(value);
        }
    }
    (best, out.expect("at least one repetition"))
}

/// Read an integer experiment knob from the environment: `default` when
/// `key` is unset, else its value parsed as `T`. A set value that does not
/// parse, or does not fit `T` (`SELETH_BLOCKS=1e5`, or
/// `SELETH_MDP_LEN=5000000000` for a `u32` truncation), ends the bin with
/// exit code 2 and a message naming the key and the value, rather than
/// silently running the default budget. The one knob reader of every bin.
pub fn env_knob<T: FromStr>(key: &str, default: T) -> T
where
    T::Err: fmt::Display,
{
    match parse_knob(key, std::env::var_os(key).as_deref(), default) {
        Ok(value) => value,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }
}

/// The parse step of [`env_knob`]: `raw` is the variable's value, `None`
/// when unset. The error names the key and the offending value.
fn parse_knob<T: FromStr>(key: &str, raw: Option<&OsStr>, default: T) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    let Some(raw) = raw else {
        return Ok(default);
    };
    let Some(text) = raw.to_str() else {
        return Err(format!("{key}={raw:?}: not valid UTF-8"));
    };
    text.parse().map_err(|e| {
        format!(
            "{key}={text:?}: {e} (expected a {})",
            std::any::type_name::<T>()
        )
    })
}

/// Inclusive floating-point range with a fixed step, robust to rounding
/// (e.g. `sweep(0.0, 0.45, 0.025)` yields 19 points ending exactly at 0.45).
pub fn sweep(start: f64, end: f64, step: f64) -> Vec<f64> {
    assert!(step > 0.0, "step must be positive");
    let n = ((end - start) / step).round() as usize;
    (0..=n).map(|k| start + k as f64 * step).collect()
}

/// Render a row of f64 cells to CSV strings with 6 significant digits.
pub fn cells(values: &[f64]) -> Vec<String> {
    values.iter().map(|v| format!("{v:.6}")).collect()
}

/// Sample mean and standard error of the mean — the `(mean, std_err)`
/// pair every multi-run experiment gate is phrased in. Zero standard
/// error for fewer than two samples.
pub fn mean_stderr(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = if values.len() > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_endpoints_exact() {
        let s = sweep(0.0, 0.45, 0.025);
        assert_eq!(s.len(), 19);
        assert_eq!(s[0], 0.0);
        assert!((s[18] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn sweep_single_point() {
        assert_eq!(sweep(0.5, 0.5, 0.1), vec![0.5]);
    }

    #[test]
    fn mean_stderr_matches_hand_computation() {
        assert_eq!(mean_stderr(&[]), (0.0, 0.0));
        assert_eq!(mean_stderr(&[3.0]), (3.0, 0.0));
        let (mean, se) = mean_stderr(&[1.0, 2.0, 3.0, 4.0]);
        assert!((mean - 2.5).abs() < 1e-12);
        // Sample variance 5/3; standard error sqrt(5/12).
        assert!((se - (5.0f64 / 12.0).sqrt()).abs() < 1e-12);
    }

    /// Serializes the tests that mutate `SELETH_*` environment variables.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn text_files_land_in_results() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("seleth-bench-text-test");
        std::env::set_var("SELETH_RESULTS", &dir);
        let path = write_text("t.json", "{\"ok\": true}\n");
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "{\"ok\": true}\n");
        // Policies default to a subdirectory of the results dir...
        assert_eq!(policies_dir(), dir.join("policies"));
        // ...unless explicitly redirected.
        std::env::set_var("SELETH_POLICIES", "/tmp/elsewhere");
        assert_eq!(policies_dir(), PathBuf::from("/tmp/elsewhere"));
        std::env::remove_var("SELETH_POLICIES");
        std::env::remove_var("SELETH_RESULTS");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn knobs_parse_or_name_the_bad_value() {
        let knob = |raw: Option<&str>| parse_knob::<u32>("SELETH_MDP_LEN", raw.map(OsStr::new), 30);
        // Unset keeps the default; a valid value is taken as is.
        assert_eq!(knob(None), Ok(30));
        assert_eq!(knob(Some("16")), Ok(16));
        // Unparsable and out-of-range values are errors naming key and value.
        let err = knob(Some("1e5")).unwrap_err();
        assert!(err.contains("SELETH_MDP_LEN=\"1e5\""), "{err}");
        let err = knob(Some("5000000000")).unwrap_err();
        assert!(err.contains("SELETH_MDP_LEN=\"5000000000\""), "{err}");
        assert!(err.contains("too large"), "{err}");
        // The same value fits a u64 knob.
        assert_eq!(
            parse_knob::<u64>("SELETH_BLOCKS", Some(OsStr::new("5000000000")), 1),
            Ok(5_000_000_000)
        );
    }

    #[test]
    fn study_files_are_top_level_json_sorted_by_name() {
        let dir = std::env::temp_dir().join("seleth-bench-study-files-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("policies")).unwrap();
        for name in ["b.json", "a.json", "notes.txt", "policies/p.json"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let names: Vec<_> = study_files(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a.json", "b.json"]);
        assert!(study_files(&dir.join("missing")).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_roundtrip() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("seleth-bench-test");
        std::env::set_var("SELETH_RESULTS", &dir);
        let path = write_csv(
            "t.csv",
            &["a", "b"],
            &[cells(&[1.0, 2.0]), cells(&[3.5, 4.25])],
        );
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("3.500000,4.250000"));
        std::env::remove_var("SELETH_RESULTS");
    }
}
