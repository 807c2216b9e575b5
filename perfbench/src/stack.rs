//! The deployment every workload runs on, and the steps they share:
//! pre-filling a namespace and the final convergence check.

use crate::layers::{timed, Tracer};
use crate::run::{Checks, Counters, Run};
use acs::{AdminSigner, EPOCHS_ITEM};
use cloud_store::{LatencyModel, ShardedStore, StoreHandle};
use dataplane::{ClientSession, PipelinedSession, SealedObject, SweepConfig, Sweeper};
use ibbe_sgx_core::{GroupEngine, PartitionSize};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Duration;

/// The one group every workload uses.
pub const GROUP: &str = "g";
/// Store shards.
pub const SHARDS: usize = 4;
/// Data folders the namespace spreads over (rendezvous routing needs many
/// more folders than shards to reach every shard).
pub const DATA_FOLDERS: usize = 64;
/// Identity of the sweeper member every group holds.
pub const SWEEPER: &str = "sweeper";
/// In-flight window of pipelined sessions.
pub const WINDOW: usize = 16;

/// A booted admin on a fresh zero-RTT sharded store.
pub struct Stack {
    /// The admin, journaling every mutation in the signed op-log.
    pub admin: acs::Admin,
    /// The store the program talks to (timed in a traced run).
    pub store: StoreHandle,
    /// The same store without the timing decorator, for checks and counts
    /// that are not part of the workload.
    pub raw: StoreHandle,
    seed: u64,
}

/// Boots an engine seeded from `seed`, creates [`GROUP`] with `members`
/// plus [`SWEEPER`], and returns the deployment.
///
/// # Errors
/// Engine or publish failures, as text.
pub fn deploy(
    seed: u64,
    partition: usize,
    mut members: Vec<String>,
    tracer: Option<&Tracer>,
) -> Result<Stack, String> {
    let mut engine_seed = [0u8; 32];
    engine_seed[..8].copy_from_slice(&seed.to_le_bytes());
    let size = PartitionSize::new(partition).map_err(|e| e.to_string())?;
    let engine = GroupEngine::bootstrap_seeded(size, engine_seed).map_err(|e| e.to_string())?;
    let raw: StoreHandle = ShardedStore::with_latency(SHARDS, LatencyModel::none()).into();
    let store = match tracer {
        Some(t) => t.wrap(raw.clone()),
        None => raw.clone(),
    };
    let signer = AdminSigner::new("admin", &mut StdRng::seed_from_u64(seed ^ 0x5167));
    let admin = acs::Admin::new(engine, store.clone()).with_signer(signer);
    members.push(SWEEPER.to_string());
    timed(tracer, |t| &t.admin, || admin.create_group(GROUP, members))
        .map_err(|e| format!("create_group: {e}"))?;
    Ok(Stack {
        admin,
        store,
        raw,
        seed,
    })
}

impl Stack {
    /// A member session for `identity` over the group's data folders. Its
    /// first key derivation runs here, timed as a key pickup.
    ///
    /// # Errors
    /// Key extraction or derivation failures, as text.
    pub fn session(
        &self,
        identity: &str,
        tracer: Option<&Tracer>,
    ) -> Result<ClientSession, String> {
        let usk = self
            .admin
            .engine()
            .extract_user_key(identity)
            .map_err(|e| e.to_string())?;
        let mut session = ClientSession::with_seed(
            identity,
            usk,
            self.admin.engine().public_key().clone(),
            self.store.clone(),
            GROUP,
            self.seed ^ cloud_store::stable_hash64(identity),
        )
        .with_data_shards(DATA_FOLDERS);
        timed(tracer, |t| &t.refresh, || session.refresh())
            .map_err(|e| format!("{identity} key derivation: {e}"))?;
        Ok(session)
    }

    /// The group's current key epoch per the admin.
    pub fn epoch(&self) -> u64 {
        self.admin.metadata(GROUP).map(|m| m.epoch).unwrap_or(0)
    }

    /// Fills in the counts every workload reports from the deployment.
    pub fn count(&self, counters: &mut Counters) {
        counters.store = self.raw.metrics();
        if let Ok(meta) = self.admin.metadata(GROUP) {
            counters.partitions = meta.partition_count() as u64;
        }
        for item in self.raw.list(GROUP) {
            if item.starts_with("_log") {
                counters.oplog_items += 1;
                counters.oplog_bytes += self.item_len(&item);
            }
        }
    }

    /// Stored size of the partition objects (member mapping included) and
    /// the `_epochs` history: the footprint the paper compares.
    pub fn metadata_bytes(&self) -> u64 {
        self.raw
            .list(GROUP)
            .iter()
            .filter(|item| !item.starts_with('_') || item.as_str() == EPOCHS_ITEM)
            .map(|item| self.item_len(item))
            .sum()
    }

    fn item_len(&self, item: &str) -> u64 {
        self.raw
            .get(GROUP, item)
            .map_or(0, |(bytes, _)| bytes.len() as u64)
    }
}

/// A group of `total` members (at least the victims) in which the trace's
/// `victims` sit evenly spaced among stable `member-NNNNNN` identities.
/// Revocations then thin every partition alike instead of emptying the
/// first ones, so whether a revocation re-partitions the group does not
/// hinge on the order the seed drew.
pub fn spread_members(victims: &[String], total: usize) -> Vec<String> {
    let total = total.max(victims.len());
    let stride = total / victims.len().max(1);
    let mut victims = victims.iter();
    let mut pads = 0;
    (0..total)
        .map(|i| {
            let victim = if i % stride == 0 {
                victims.next()
            } else {
                None
            };
            victim.cloned().unwrap_or_else(|| {
                pads += 1;
                format!("member-{:06}", pads - 1)
            })
        })
        .collect()
}

/// Deterministic payload of write number `seq`: every byte depends on
/// `seq`, so a stale or torn object never compares equal.
pub fn payload(seq: u64, len: usize) -> Vec<u8> {
    seq.to_le_bytes()
        .iter()
        .copied()
        .cycle()
        .take(len)
        .collect()
}

/// Writes every object of `objects` through `pipe`, recording the expected
/// payload sequence numbers; the sequence numbers of a pre-fill have the
/// top bit set so they never collide with trace event indices.
///
/// # Errors
/// The first pipeline failure, as text.
pub fn prefill<'a>(
    pipe: &mut PipelinedSession,
    objects: impl Iterator<Item = &'a String>,
    payload_len: usize,
    expected: &mut HashMap<String, u64>,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    for (i, object) in objects.enumerate() {
        let seq = (1 << 63) | i as u64;
        timed(
            tracer,
            |t| &t.enqueue,
            || pipe.write(object, &payload(seq, payload_len)),
        )
        .map_err(|e| format!("pre-fill {object}: {e}"))?;
        expected.insert(object.clone(), seq);
    }
    timed(tracer, |t| &t.drain, || pipe.flush()).map_err(|e| format!("pre-fill flush: {e}"))
}

/// The sweeper used by every workload: generous deadline, large steps.
pub fn sweeper(session: ClientSession) -> Sweeper {
    Sweeper::new(
        session,
        SweepConfig {
            deadline: Duration::from_secs(10),
            max_per_tick: 64,
        },
    )
}

/// The final check every workload ends with: one more full sweep
/// converges the namespace, every object then sits at the admin's epoch,
/// and `reader` re-reads each one byte-identical to its last write.
pub fn converge_and_verify(
    stack: &Stack,
    sweeper: &mut Sweeper,
    reader: &mut ClientSession,
    expected: &HashMap<String, u64>,
    payload_len: usize,
    run: &mut Run,
    tracer: Option<&Tracer>,
) {
    let checks = &mut run.checks;
    match timed(tracer, |t| &t.sweeper, || sweeper.sweep_now()) {
        Ok(report) => {
            run.counters.sweep.add(&report);
            checks.check(report.converged, || {
                format!("final sweep did not converge: {report:?}")
            });
        }
        Err(e) => {
            checks.check(false, || format!("final sweep failed: {e}"));
        }
    }
    let epoch = stack.epoch();
    let mut objects: Vec<&String> = expected.keys().collect();
    objects.sort();
    for object in objects {
        let folder = reader.folder_of(object).to_string();
        let stored = stack
            .raw
            .get(&folder, object)
            .and_then(|(bytes, _)| SealedObject::peek_epoch(&bytes));
        checks.check(stored == Some(epoch), || {
            format!("{object} sits at epoch {stored:?} after convergence, not {epoch}")
        });
        let want = payload(expected[object], payload_len);
        let got = timed(tracer, |t| &t.session, || reader.read(object));
        check_read(checks, object, &want, got);
    }
    run.counters.data = run.counters.data.merge(&sweeper.metrics());
}

/// Checks that a read returned `want`; true when it did.
pub fn check_read(
    checks: &mut Checks,
    object: &str,
    want: &[u8],
    got: Result<Vec<u8>, dataplane::DataError>,
) -> bool {
    match got {
        Ok(bytes) => checks.check(bytes == want, || {
            format!("{object}: read returned a payload other than its last write")
        }),
        Err(e) => checks.check(false, || format!("{object}: read failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_are_spread_through_the_group() {
        let victims: Vec<String> = (0..5).map(|i| format!("seed-{i}")).collect();
        let group = spread_members(&victims, 20);
        assert_eq!(group.len(), 20);
        for (k, v) in victims.iter().enumerate() {
            assert_eq!(&group[4 * k], v);
        }
        let distinct: std::collections::HashSet<_> = group.iter().collect();
        assert_eq!(distinct.len(), 20);
        assert_eq!(spread_members(&victims, 3), victims);
    }
}
