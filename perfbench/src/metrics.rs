//! The metrics the benchmark reports: names and units as `BENCHMARK.json`
//! lists them, and how each is computed from a [`Run`].

use crate::layers::Tracer;
use crate::run::Run;
use crate::stats::median;

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// End-to-end metrics (`--trace 0`): `(name, unit)`. Every workload
/// reports every one. An "op" is a foreground operation: a read or write on
/// the rw workloads, an addition or revocation on `membership`. `op_p75_ms`
/// is the mean over those classes of each class's 75th percentile,
/// `op_tail_ms` the same for the run's tail percentile ([`Run::tail`]):
/// every class weighs the same, so neither jumps between the modes of a
/// bimodal mix. The 75th percentile stands in for the median because on a
/// shared machine whose speed switches between states for seconds at a
/// time, the median of a run flips with the share of time it spent in each
/// state, while the upper quartile stays put.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p75_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("metadata_bytes", "B"),
    ("completed_op_share", "ratio"),
];

/// Per-layer metrics (`--trace 1`): `(name, unit)`, counted over the
/// traced execution (one set-up, the timed phase and the final check).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("symcrypto.bytes_sealed", "B"),
    ("symcrypto.bytes_opened", "B"),
    ("dataplane.session.self_ms", "ms"),
    ("dataplane.session.old_epoch_reads", "count"),
    ("dataplane.session.key_refreshes", "count"),
    ("dataplane.pipeline.enqueue_ms", "ms"),
    ("dataplane.pipeline.drain_ms", "ms"),
    ("dataplane.pipeline.coalesced_writes", "count"),
    ("cloud_store.requests", "count"),
    ("cloud_store.gets", "count"),
    ("cloud_store.cas_puts", "count"),
    ("cloud_store.cas_conflicts", "count"),
    ("cloud_store.polls", "count"),
    ("cloud_store.put_many", "count"),
    ("cloud_store.bytes_up", "B"),
    ("cloud_store.bytes_down", "B"),
    ("cloud_store.busy_ms", "ms"),
    ("acs.admin.busy_ms", "ms"),
    ("acs.admin.store_ms", "ms"),
    ("acs.admin.cpu_ms", "ms"),
    ("acs.oplog_items", "count"),
    ("acs.oplog_bytes", "B"),
    ("core.partitions_rekeyed", "count"),
    ("core.partitions_created", "count"),
    ("core.partitions", "count"),
    ("acs.client.refresh_cpu_ms", "ms"),
    ("dataplane.sweeper.passes", "count"),
    ("dataplane.sweeper.scanned", "count"),
    ("dataplane.sweeper.migrated", "count"),
    ("dataplane.sweeper.migration_conflicts", "count"),
    ("dataplane.sweeper.busy_ms", "ms"),
    ("dataplane.sweeper.useful_ratio", "ratio"),
    ("dataplane.sweeper.errors", "count"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.traced_ops_per_s", "ops/s"),
    ("telemetry.untraced_ops_per_s", "ops/s"),
];

fn with_units(table: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per metric");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric { name, unit, value })
        .collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let completed = (run.attempted - run.failed) as f64 / run.attempted.max(1) as f64;
    with_units(
        &END_TO_END,
        &[
            median(&run.setups),
            run.ops_per_s,
            run.class_percentile(75.0),
            run.class_percentile(run.tail),
            run.metadata_bytes as f64,
            completed,
        ],
    )
}

/// The per-layer metrics of a traced run, with the tracing overhead
/// measured against an untraced run of the same length.
pub fn per_layer(untraced: &Run, traced: &Run, tracer: &Tracer) -> Vec<Metric> {
    let c = &traced.counters;
    let (data, store, sweep) = (&c.data, &c.store, &c.sweep);
    let useful = if sweep.migrated + sweep.conflicts == 0 {
        1.0 // nothing attempted, nothing wasted
    } else {
        sweep.migrated as f64 / (sweep.migrated + sweep.conflicts) as f64
    };
    let (plain, timed) = (untraced.ops_per_s, traced.ops_per_s);
    let n = |v: u64| v as f64;
    with_units(
        &PER_LAYER,
        &[
            n((data.writes + data.migrations) * c.payload),
            n((data.reads + data.migrations) * c.payload),
            tracer.session.self_ms(),
            n(data.old_epoch_reads),
            n(data.key_refreshes),
            tracer.enqueue.busy_ms(),
            tracer.drain.busy_ms(),
            n(data.coalesced_writes),
            n(store.requests()),
            n(store.gets),
            n(store.cas_puts),
            n(store.cas_conflicts),
            n(store.polls),
            n(store.puts_batched),
            n(store.bytes_up),
            n(store.bytes_down),
            tracer.store_busy_ms(),
            tracer.admin.busy_ms(),
            tracer.admin.store_ms(),
            tracer.admin.self_ms(),
            n(c.oplog_items),
            n(c.oplog_bytes),
            n(c.partitions_rekeyed),
            n(c.partitions_created),
            n(c.partitions),
            tracer.refresh.self_ms(),
            n(sweep.passes),
            n(sweep.scanned),
            n(sweep.migrated),
            n(sweep.conflicts),
            tracer.sweeper.busy_ms(),
            useful,
            n(sweep.errors),
            (plain / timed.max(1e-9) - 1.0) * 100.0,
            timed,
            plain,
        ],
    )
}
