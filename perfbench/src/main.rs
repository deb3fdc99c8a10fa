//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints a human-readable report, then as
//! its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). Exits non-zero, printing no result, when the
//! arguments are bad or the repository's reference files are missing.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{Options, References, Size, WORKLOADS};

struct Args {
    workload: String,
    trace: bool,
    opts: Options,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let refs = References::from_repo(Path::new("."))?;
    Ok(Args {
        workload,
        trace,
        opts: Options {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            size: Size::Full,
            refs,
        },
    })
}

fn main() -> ExitCode {
    let result = parse(std::env::args().skip(1))
        .and_then(|args| perfbench::run(&args.workload, args.trace, &args.opts));
    match result {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
