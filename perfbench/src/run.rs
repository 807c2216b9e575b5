//! What one workload execution hands back to the reporter.

use crate::stats::Samples;
use cloud_store::MetricsSnapshot;
use dataplane::{DataMetricsSnapshot, SweepReport};
use std::time::Duration;

/// Correctness checks made during a run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks that held.
    pub passed: u64,
    /// One line per check that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
        ok
    }

    /// Folds another thread's checks into these.
    pub fn absorb(&mut self, other: Checks) {
        self.passed += other.passed;
        self.failures.extend(other.failures);
    }
}

/// Sweeper work summed over every pass a run made.
#[derive(Debug, Default, Clone, Copy)]
pub struct SweepTotals {
    /// Passes (scans) run.
    pub passes: u64,
    /// Objects scanned.
    pub scanned: u64,
    /// Objects re-encrypted to the current epoch.
    pub migrated: u64,
    /// Migrations lost to a concurrent writer.
    pub conflicts: u64,
    /// Watches or passes that failed and were retried on the next wake-up.
    pub errors: u64,
}

impl SweepTotals {
    /// Adds one pass's report.
    pub fn add(&mut self, report: &SweepReport) {
        self.passes += 1;
        self.scanned += report.scanned as u64;
        self.migrated += report.migrated as u64;
        self.conflicts += report.conflicts as u64;
    }
}

/// Counts read from the layers once the run ends.
#[derive(Debug, Default)]
pub struct Counters {
    /// Store traffic over the whole execution (fresh store per execution).
    pub store: MetricsSnapshot,
    /// Data-plane counters summed over every session, the sweeper's too.
    pub data: DataMetricsSnapshot,
    /// Sweeper passes.
    pub sweep: SweepTotals,
    /// Partition re-keys reported by the admin's outcomes.
    pub partitions_rekeyed: u64,
    /// Partitions created by additions.
    pub partitions_created: u64,
    /// Partitions of the group at run end.
    pub partitions: u64,
    /// `_log_*` items in the group folder at run end.
    pub oplog_items: u64,
    /// Bytes of those items.
    pub oplog_bytes: u64,
    /// Object payload size, for the symmetric-crypto byte counts.
    pub payload: u64,
}

/// One execution of a workload: set-up, timed phase and final check.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds each set-up took (the last one's deployment was timed).
    pub setups: Vec<f64>,
    /// Timed-phase wall time.
    pub wall: Duration,
    /// Completed foreground operations per second, as the workload
    /// estimates it robustly (see the workload's docs).
    pub ops_per_s: f64,
    /// Completed foreground operations per second of each segment of the
    /// timed phase (one-second windows on `rw_steady`, churn cycles on
    /// `rw_revoke`, none on `membership`).
    pub rates: Vec<f64>,
    /// Foreground operations attempted in the timed phase.
    pub attempted: u64,
    /// Foreground operations that failed (an error or a wrong result).
    pub failed: u64,
    /// Latency per operation class, with the percentiles the table shows.
    pub classes: Vec<Class>,
    /// The highest percentile every foreground class has ten samples
    /// beyond (99 for the rw workloads, 90 for `membership`).
    pub tail: f64,
    /// Correctness checks.
    pub checks: Checks,
    /// Stored size of the group's partition objects and `_epochs`.
    pub metadata_bytes: u64,
    /// Layer counts.
    pub counters: Counters,
}

/// Latency samples of one operation class.
#[derive(Debug)]
pub struct Class {
    /// Class name, e.g. `read`; rows print as `<name>_p<NN>_ms`.
    pub name: &'static str,
    /// Percentiles to report.
    pub percentiles: &'static [f64],
    /// Whether the class is a foreground operation of the workload (its
    /// percentiles feed `op_p75_ms` and `op_tail_ms`).
    pub foreground: bool,
    /// The samples.
    pub samples: Samples,
}

impl Run {
    /// Completed foreground operations over the whole timed phase's wall
    /// time (the plain rate, printed beside the robust one).
    pub fn plain_ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Mean over the operation classes flagged foreground of their
    /// `p`-th percentile: every class weighs the same, so the figure does
    /// not jump between the modes of a bimodal mix.
    pub fn class_percentile(&self, p: f64) -> f64 {
        let values: Vec<f64> = self
            .classes
            .iter()
            .filter(|c| c.foreground)
            .filter_map(|c| c.samples.percentile(p))
            .collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    }

    /// True when every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }
}
