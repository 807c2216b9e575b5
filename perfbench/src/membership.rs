//! `membership`: the paper's own workload (Alg. 2/3). One admin replays
//! single additions and single revocations, half of each, against a group
//! of about a thousand members at partition size 32. After every rotation a
//! member session picks the new key up through its wake-up path (a
//! blocking `watch` on the group's metadata folder).

use crate::layers::{timed, Tracer};
use crate::run::{Class, Run};
use crate::stack::{self, Stack, WINDOW};
use crate::stats::Samples;
use crate::{set_up, Config, Size};
use acs::{AcsError, Client};
use dataplane::PipelinedSession;
use ibbe_sgx_core::PartitionMetadata;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use workloads::rw::object_name;
use workloads::{generate_synthetic_trace, SyntheticTrace, SyntheticTraceConfig, TraceOp};

/// The member whose session follows every rotation; never revoked.
const OBSERVER: &str = "observer";
/// How long a member's pickup may block before it counts as lost.
const PICKUP_TIMEOUT: Duration = Duration::from_secs(10);

struct Params {
    partition: usize,
    /// Members before the first operation.
    members: usize,
    /// Operations replayed per second of `--seconds`: the run replays a
    /// fixed amount of work, so every run holds exactly as many additions
    /// as revocations and its throughput does not hinge on the mix it drew.
    ops_per_second: f64,
    objects: usize,
    payload: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            partition: 32,
            members: 1000,
            ops_per_second: 10.0,
            objects: 64,
            payload: 4096,
        },
        Size::Tiny => Params {
            partition: 8,
            members: 24,
            ops_per_second: 8.0,
            objects: 8,
            payload: 512,
        },
    }
}

struct Deployment {
    stack: Stack,
    observer: PipelinedSession,
    expected: HashMap<String, u64>,
}

fn deploy(
    cfg: &Config,
    p: &Params,
    trace: &SyntheticTrace,
    tracer: Option<&Tracer>,
) -> Result<Deployment, String> {
    let mut members = stack::spread_members(&trace.initial_members, p.members);
    members.push(OBSERVER.to_string());
    let stack = stack::deploy(cfg.seed, p.partition, members, tracer)?;
    let mut observer = PipelinedSession::new(stack.session(OBSERVER, tracer)?, WINDOW);
    let objects: Vec<String> = (0..p.objects).map(object_name).collect();
    let mut expected = HashMap::new();
    stack::prefill(
        &mut observer,
        objects.iter(),
        p.payload,
        &mut expected,
        tracer,
    )?;
    Ok(Deployment {
        stack,
        observer,
        expected,
    })
}

/// Runs `membership` once: `setups` set-ups, then `seconds` worth of
/// operations (half of them revocations).
///
/// # Errors
/// Set-up failures, as text.
pub fn run(
    cfg: &Config,
    tracer: Option<&Tracer>,
    setups: usize,
    seconds: f64,
) -> Result<Run, String> {
    let p = params(cfg.size);
    let ops = 2 * ((seconds * p.ops_per_second / 2.0).round() as usize).max(1);
    let trace = generate_synthetic_trace(&SyntheticTraceConfig {
        ops,
        revocation_ratio: 0.5,
        seed: cfg.seed,
    });
    let (mut d, setup_times) = set_up(setups, || deploy(cfg, &p, &trace, tracer))?;
    let mut run = Run {
        setups: setup_times,
        tail: 90.0,
        ..Run::default()
    };
    let stack = &d.stack;
    let admin = &stack.admin;
    let observer = d.observer.session_mut();
    let (mut adds, mut revokes, mut refreshes) =
        (Samples::default(), Samples::default(), Samples::default());

    // the correctness checks are real work but not the workload's: their
    // time is kept out of the timed phase
    let mut checking = Duration::ZERO;
    let start = Instant::now();
    for op in &trace.trace.ops {
        run.attempted += 1;
        let t0 = Instant::now();
        let ok = match op {
            TraceOp::Add { user } => {
                let outcome = timed(tracer, |t| &t.admin, || admin.add_user(stack::GROUP, user));
                let latency = t0.elapsed();
                match outcome {
                    Ok(o) => {
                        adds.push(latency);
                        run.counters.partitions_created += u64::from(o.created_new_partition);
                        let t_check = Instant::now();
                        let listed = listed_in(stack, o.partition, user);
                        checking += t_check.elapsed();
                        run.checks.check(listed, || {
                            format!("added {user} is not in partition {}", o.partition)
                        })
                    }
                    Err(e) => run.checks.check(false, || format!("add {user}: {e}")),
                }
            }
            TraceOp::Remove { user } => {
                let outcome = timed(
                    tracer,
                    |t| &t.admin,
                    || admin.remove_user(stack::GROUP, user),
                );
                let latency = t0.elapsed();
                match outcome {
                    Ok(o) => {
                        revokes.push(latency);
                        run.counters.partitions_rekeyed += o.rekeyed_partitions as u64;
                        let t1 = Instant::now();
                        let woke = timed(tracer, |t| &t.refresh, || observer.watch(PICKUP_TIMEOUT));
                        refreshes.push(t1.elapsed());
                        let picked = run.checks.check(matches!(woke, Ok(true)), || {
                            format!("observer missed the rotation revoking {user}: {woke:?}")
                        });
                        let t_check = Instant::now();
                        let refused = refused(stack, user, &mut run);
                        checking += t_check.elapsed();
                        picked && refused
                    }
                    Err(e) => run.checks.check(false, || format!("revoke {user}: {e}")),
                }
            }
        };
        let epoch = stack.epoch();
        let in_step = run
            .checks
            .check(observer.current_epoch() == Some(epoch), || {
                format!(
                    "observer holds epoch {:?}, admin {epoch}",
                    observer.current_epoch()
                )
            });
        if !(ok && in_step) {
            run.failed += 1;
        }
    }
    run.wall = start.elapsed() - checking;
    println!(
        "membership: {:.3} s of correctness checks kept out of the timed phase",
        checking.as_secs_f64()
    );
    run.ops_per_s = balanced_rate(&adds, &revokes, &refreshes);
    run.classes = vec![
        Class {
            name: "add",
            percentiles: &[50.0, 75.0, 90.0],
            foreground: true,
            samples: adds,
        },
        Class {
            name: "revoke",
            percentiles: &[50.0, 75.0, 90.0],
            foreground: true,
            samples: revokes,
        },
        Class {
            name: "refresh",
            percentiles: &[50.0, 75.0, 90.0],
            foreground: false,
            samples: refreshes,
        },
    ];
    let mut sweeper = stack::sweeper(stack.session(stack::SWEEPER, tracer)?);
    stack::converge_and_verify(
        stack,
        &mut sweeper,
        observer,
        &d.expected,
        p.payload,
        &mut run,
        tracer,
    );
    run.counters.data = run.counters.data.merge(&observer.metrics());
    run.counters.payload = p.payload as u64;
    run.metadata_bytes = stack.metadata_bytes();
    stack.count(&mut run.counters);
    Ok(run)
}

/// Membership changes per second, each at its class's 75th-percentile
/// cost: every addition costs that of additions, every revocation that of
/// revocations plus that of key pickups. A replay is a few hundred serial
/// operations of two very different costs; summing per-class quantiles
/// (the same quantile `op_p75_ms` reports) keeps the share of time a run
/// spent in a shared machine's fast or slow state out of the figure.
fn balanced_rate(adds: &Samples, revokes: &Samples, refreshes: &Samples) -> f64 {
    let cost = |s: &Samples| s.percentile(75.0).unwrap_or(0.0);
    let ms =
        adds.len() as f64 * cost(adds) + revokes.len() as f64 * (cost(revokes) + cost(refreshes));
    (adds.len() + revokes.len()) as f64 / (ms / 1e3).max(1e-9)
}

/// The published partition `index` lists `user`.
fn listed_in(stack: &Stack, index: usize, user: &str) -> bool {
    stack
        .raw
        .get(stack::GROUP, &acs::partition_item(index))
        .and_then(|(bytes, _)| PartitionMetadata::from_bytes(&bytes))
        .is_some_and(|p| p.members.iter().any(|m| m == user))
}

/// A revoked member's refresh must be refused: a fresh client holding the
/// member's own key finds itself in no partition.
fn refused(stack: &Stack, user: &str, run: &mut Run) -> bool {
    let usk = match stack.admin.engine().extract_user_key(user) {
        Ok(usk) => usk,
        Err(e) => return run.checks.check(false, || format!("key for {user}: {e}")),
    };
    let pk = stack.admin.engine().public_key().clone();
    let mut client = Client::new(user, usk, pk, stack.raw.clone(), stack::GROUP);
    let outcome = client.sync();
    run.checks
        .check(matches!(outcome, Err(AcsError::NotAMember(_))), || {
            format!(
                "revoked {user} could still refresh: {:?}",
                outcome.map(|_| ())
            )
        })
}
