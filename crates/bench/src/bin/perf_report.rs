//! Render a human-readable performance profile from study telemetry.
//!
//! Every study bin appends a `"telemetry"` block to its JSON output
//! (phases, per-worker utilization, deterministic counters, gauges,
//! histograms); `perf_report` turns those blocks back into a terminal
//! report via [`seleth_obs::render_profile`].
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p seleth-bench --bin perf_report [FILE ...]
//! ```
//!
//! Without arguments, every top-level `*.json` in the results directory
//! (`SELETH_RESULTS` or `results/`) is rendered, sorted by file name;
//! pre-telemetry artifacts degrade to a header plus a "(no telemetry
//! block recorded)" note. Exit code 1 if any rendered file is unreadable
//! or not valid JSON, or if no file is found.

use std::path::PathBuf;

fn main() {
    let named: Vec<PathBuf> = std::env::args_os().skip(1).map(PathBuf::from).collect();
    let paths = if named.is_empty() {
        let dir = seleth_bench::results_dir();
        let found = seleth_bench::study_files(&dir).unwrap_or_else(|e| {
            eprintln!("FAIL: read {}: {e}", dir.display());
            std::process::exit(1);
        });
        if found.is_empty() {
            eprintln!("no study JSONs under {} and none named", dir.display());
            std::process::exit(1);
        }
        found
    } else {
        named
    };

    let mut failed = false;
    for path in &paths {
        let name = path.file_name().map_or_else(
            || path.display().to_string(),
            |n| n.to_string_lossy().into(),
        );
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("FAIL: read {}: {e}", path.display());
                failed = true;
                continue;
            }
        };
        match seleth_obs::render_profile(&name, &text) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("FAIL: {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
