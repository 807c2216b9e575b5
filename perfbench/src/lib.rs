//! One benchmark for the whole IBBE-SGX stack at zero modeled RTT.
//!
//! `perfbench --workload <rw_steady|membership|rw_revoke> --seed N
//! --seconds S --trace 0|1` boots a deployment from the seed, runs the
//! named workload for about `S` seconds, checks its outputs and prints a
//! table of per-class latencies followed, on the last line, by one JSON
//! object. `--trace 0` reports the end-to-end metrics of
//! [`metrics::END_TO_END`]; `--trace 1` runs the workload twice, untraced
//! and traced, and reports the per-layer metrics of
//! [`metrics::PER_LAYER`]. `--size tiny` shrinks every workload for the
//! self-test.

#![forbid(unsafe_code)]

pub mod json;
pub mod layers;
pub mod membership;
pub mod metrics;
pub mod revoke;
pub mod run;
pub mod stack;
pub mod stats;
pub mod steady;

use layers::Tracer;
use run::Run;
use std::time::Instant;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined read/write steady state, no membership change.
    RwSteady,
    /// Single additions and revocations with member key pickup.
    Membership,
    /// Serial read/write with lazy revocations and a background sweeper.
    RwRevoke,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::RwSteady, Workload::Membership, Workload::RwRevoke];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RwSteady => "rw_steady",
            Workload::Membership => "membership",
            Workload::RwRevoke => "rw_revoke",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a tiny one for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few objects and members, no sample floors.
    Tiny,
}

/// One invocation's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Timed-phase length in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// Set-ups per untraced invocation; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Runs `build` `times` times (at least once), dropping each deployment
/// before building the next, and returns the last one with every set-up's
/// duration in seconds.
///
/// # Errors
/// The first set-up failure.
pub fn set_up<T>(
    times: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut durations = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build()?);
        durations.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), durations))
}

/// Runs `cfg.workload` once with `setups` set-ups and a timed phase of
/// about `seconds`; `tracer` selects the traced run.
///
/// # Errors
/// Set-up failures, as text.
pub fn execute(
    cfg: &Config,
    tracer: Option<&Tracer>,
    setups: usize,
    seconds: f64,
) -> Result<Run, String> {
    match cfg.workload {
        Workload::RwSteady => steady::run(cfg, tracer, setups, seconds),
        Workload::Membership => membership::run(cfg, tracer, setups, seconds),
        Workload::RwRevoke => revoke::run(cfg, tracer, setups, seconds),
    }
}
