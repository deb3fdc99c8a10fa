//! Bit-identity anchors for the zero-delay engine ([`Simulation`]).
//!
//! The delay engine is pinned by hex constants in `tests/chaos_study.rs`,
//! `tests/topology_study.rs` and `tests/flight_recorder.rs`; these pin the
//! engine every Fig. 8/9 and Table II number comes from. Each case runs
//! one seed of one strategy under one reward schedule and fingerprints
//! everything the run produces:
//!
//! - the f64 bits of the pool and honest [`MinerRewards`] tallies (and
//!   their block counts),
//! - both uncle reference-distance histograms,
//! - the `reward_report` regular / uncle / stale counts,
//! - the `(Ls, Lh)` state visits, sorted,
//! - every block's uncle references, in header order.
//!
//! The constants were captured before uncle selection and settlement
//! moved to index-addressed code; any change in which uncles are
//! referenced, in which order, or in how rewards are summed fails here.

use std::fmt::Write as _;
use std::path::Path;

use selfish_ethereum::chain::accounting::MinerRewards;
use selfish_ethereum::prelude::*;

const ALPHA: f64 = 0.30;
const GAMMA: f64 = 0.5;
const BLOCKS: u64 = 20_000;

/// FNV-1a over the dump, so a whole run fits in one pinned constant.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn dump_rewards(out: &mut String, label: &str, m: &MinerRewards) {
    writeln!(
        out,
        "{label}: static={:#018x} uncle={:#018x} nephew={:#018x} blocks={}/{}/{}",
        m.static_reward.to_bits(),
        m.uncle_reward.to_bits(),
        m.nephew_reward.to_bits(),
        m.regular_blocks,
        m.uncle_blocks,
        m.stale_blocks
    )
    .expect("write to String");
}

/// Run one case and render everything it produced as text.
fn run_case(strategy: &str, schedule: RewardSchedule, seed: u64) -> (SimReport, String) {
    let mut builder = SimConfig::builder();
    builder
        .alpha(ALPHA)
        .gamma(GAMMA)
        .n_honest(999)
        .blocks(BLOCKS)
        .seed(seed)
        .schedule(schedule);
    match strategy {
        "selfish" => builder.strategy(PoolStrategy::Selfish),
        "stubborn" => builder.strategy(PoolStrategy::LeadStubborn),
        "table" => builder.policy(
            PolicyTable::load(Path::new("results/policies/ethereum_a030_g050.json"))
                .expect("committed artifact loads"),
        ),
        other => unreachable!("unknown strategy {other}"),
    };
    let mut sim = Simulation::new(builder.build().expect("valid config"));
    let report = sim.run_in_place();

    let mut out = String::new();
    dump_rewards(&mut out, "pool", &report.pool);
    dump_rewards(&mut out, "honest", &report.honest);
    let r = &report.reward_report;
    writeln!(
        out,
        "counts: {}/{}/{}",
        r.regular_count, r.uncle_count, r.stale_count
    )
    .expect("write to String");
    writeln!(out, "pool_hist: {:?}", report.pool_uncle_histogram).expect("write to String");
    writeln!(out, "honest_hist: {:?}", report.honest_uncle_histogram).expect("write to String");
    let mut visits: Vec<_> = report.state_visits.iter().collect();
    visits.sort();
    writeln!(out, "visits: {visits:?}").expect("write to String");
    for block in sim.tree().iter().filter(|b| !b.uncle_refs().is_empty()) {
        let refs: Vec<usize> = block.uncle_refs().iter().map(|u| u.index()).collect();
        writeln!(out, "refs {}: {refs:?}", block.id().index()).expect("write to String");
    }
    (report, out)
}

/// `(strategy, schedule name, seed, pool total bits, honest total bits,
/// digest of the full dump)`.
#[rustfmt::skip]
const ANCHORS: [(&str, &str, u64, u64, u64, u64); 9] = [
    ("selfish", "ethereum", 11, 0x40b6f7b000000000, 0x40c9a3e400000000, 0x2d71c8d3c34a57ee),
    ("selfish", "ethereum_capped", 12, 0x40b7542800000000, 0x40c965d400000000, 0xbb69eb77398c1295),
    ("selfish", "fixed_unbounded", 13, 0x40b5f07800000000, 0x40c7d2c800000000, 0xbee8efdff6a7dd3b),
    ("stubborn", "ethereum", 21, 0x40b5331000000000, 0x40c7bd3400000000, 0x36707ac605e33f6e),
    ("stubborn", "ethereum_capped", 22, 0x40b4f8b000000000, 0x40c7c21000000000, 0xc722aa1bc91a8976),
    ("stubborn", "fixed_unbounded", 23, 0x40b3929800000000, 0x40c601a000000000, 0xcbdf5c6c4ad0b372),
    ("table", "ethereum", 31, 0x40b581f800000000, 0x40c7cf9000000000, 0x9857b48b488e4c0b),
    ("table", "ethereum_capped", 32, 0x40b5bb6800000000, 0x40c7aca800000000, 0xff5d76ec251849ca),
    ("table", "fixed_unbounded", 33, 0x40b403b800000000, 0x40c6158c00000000, 0xf2f388aceac68b00),
];

fn schedule(name: &str) -> RewardSchedule {
    match name {
        "ethereum" => RewardSchedule::ethereum(),
        "ethereum_capped" => RewardSchedule::ethereum_capped(),
        "fixed_unbounded" => RewardSchedule::fixed_uncle_unbounded(0.5),
        other => unreachable!("unknown schedule {other}"),
    }
}

#[test]
fn engine_runs_reproduce_their_captured_bits() {
    let mut failures = Vec::new();
    for (strategy, sched, seed, pool_bits, honest_bits, digest) in ANCHORS {
        let (report, dump) = run_case(strategy, schedule(sched), seed);
        // An anchor without reference traffic would pin nothing about the
        // uncle selector; under the cap no header may carry more than two.
        assert!(
            report.reward_report.uncle_count > 100,
            "{strategy}/{sched}: only {} uncles",
            report.reward_report.uncle_count
        );
        if sched == "ethereum_capped" {
            assert!(dump
                .lines()
                .filter(|l| l.starts_with("refs "))
                .all(|l| l.matches(',').count() <= 1));
        }
        let got = (
            report.pool.total().to_bits(),
            report.honest.total().to_bits(),
            fnv1a(dump.as_bytes()),
        );
        if got != (pool_bits, honest_bits, digest) {
            let head: String = dump.lines().take(3).collect::<Vec<_>>().join("\n");
            failures.push(format!(
                "{strategy}/{sched} seed {seed}: got ({:#018x}, {:#018x}, {:#018x})\n{head}",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "engine drifted:\n{}",
        failures.join("\n")
    );
}
