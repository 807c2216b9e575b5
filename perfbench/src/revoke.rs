//! `rw_revoke`: reads and writes through one serial session while the
//! trace injects a single revocation at a fixed spacing. Each revocation is
//! applied in trace order through `RevocationCoordinator` under the lazy
//! policy, and a background `Sweeper` on a second thread converges
//! the stale namespace.

use crate::layers::{timed, Tracer};
use crate::run::{Checks, Class, Run, SweepTotals};
use crate::stack::{self, payload, Stack, WINDOW};
use crate::stats::{sustained, Samples};
use crate::{set_up, Config, Size};
use dataplane::{
    ClientSession, DataError, DataMetricsSnapshot, PipelinedSession, ReencryptionPolicy,
    RevocationCoordinator, SweepDriver, SweepReport, Sweeper,
};
use ibbe_sgx_core::MembershipBatch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workloads::rw::{generate_read_write, object_name, RwOp, RwTrace, RwTraceConfig};
use workloads::TraceOp;

const WRITER: &str = "writer";
/// Lost CAS races a write adopts and retries (a sweeper migration moves
/// the object's version under the writer) before it fails.
const CONFLICT_RETRIES: u32 = 4;
/// How long the sweeper thread sleeps after a quiet metadata probe before it
/// probes again and looks at the stop flag.
const PROBE_INTERVAL: Duration = Duration::from_millis(2);
/// How long the end of the run waits for the sweeper to converge.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(60);

struct Params {
    partition: usize,
    /// Members before the first revocation (the trace's victims plus
    /// members that stay).
    members: usize,
    objects: usize,
    payload: usize,
    /// Read/write events between two revocations.
    churn_every: usize,
    /// Read/write events replayed per second of `--seconds`: the run
    /// replays a fixed amount of work, so every run of a seed holds the
    /// same revocations and leaves the same metadata behind.
    events_per_second: f64,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            partition: 32,
            members: 256,
            objects: 256,
            payload: 4096,
            churn_every: 1500,
            events_per_second: 3500.0,
        },
        Size::Tiny => Params {
            partition: 8,
            members: 16,
            objects: 16,
            payload: 512,
            churn_every: 100,
            events_per_second: 1000.0,
        },
    }
}

struct Deployment {
    stack: Stack,
    writer: PipelinedSession,
    sweeper: Sweeper,
    expected: HashMap<String, u64>,
}

fn deploy(
    cfg: &Config,
    p: &Params,
    trace: &RwTrace,
    tracer: Option<&Tracer>,
) -> Result<Deployment, String> {
    let mut members = stack::spread_members(&trace.initial_members, p.members);
    members.push(WRITER.to_string());
    let stack = stack::deploy(cfg.seed, p.partition, members, tracer)?;
    let mut writer = PipelinedSession::new(stack.session(WRITER, tracer)?, WINDOW);
    let sweeper = stack::sweeper(stack.session(stack::SWEEPER, tracer)?);
    let objects: Vec<String> = (0..p.objects).map(object_name).collect();
    let mut expected = HashMap::new();
    stack::prefill(
        &mut writer,
        objects.iter(),
        p.payload,
        &mut expected,
        tracer,
    )?;
    Ok(Deployment {
        stack,
        writer,
        sweeper,
        expected,
    })
}

/// The coordinator's sweep handle under the lazy policy: the real sweeper
/// runs on its own thread and is never driven from inside a revocation.
struct BackgroundSweeper;

impl SweepDriver for BackgroundSweeper {
    fn sweep_now(&mut self) -> Result<SweepReport, DataError> {
        unreachable!("the lazy policy never sweeps inside a revocation")
    }

    fn run_until_converged(&mut self) -> Result<SweepReport, DataError> {
        unreachable!("the lazy policy never sweeps inside a revocation")
    }

    fn watch(&mut self, _timeout: Duration) -> Result<Option<SweepReport>, DataError> {
        Ok(None)
    }

    fn metrics(&self) -> DataMetricsSnapshot {
        DataMetricsSnapshot::default()
    }
}

/// What the sweeper thread saw.
#[derive(Default)]
struct SweepLog {
    /// `(epoch, when)` each time a pass left no object below `epoch`.
    converged: Vec<(u64, Instant)>,
    totals: SweepTotals,
    errors: Vec<String>,
}

/// The sweeper thread: wake on each metadata change, converge, log it. A
/// failed watch or pass is logged and retried on the next wake-up, as a
/// background sweeper would; the final convergence check decides whether
/// the sweeper did its job.
///
/// It probes the metadata with zero-timeout watches and sleeps between them
/// rather than blocking in the long poll: `CloudStore::long_poll` returns a
/// poll that timed out in its wait with the store's version as of waking,
/// so a rotation published in between is never reported and the sweeper
/// stays a rotation behind until the next one. A zero-timeout poll reads
/// the changes and the version under one lock.
fn sweep_loop(
    sweeper: &mut Sweeper,
    log: &Mutex<SweepLog>,
    stop: &AtomicBool,
    tracer: Option<&Tracer>,
) {
    let lock = || log.lock().expect("sweep log lock poisoned");
    let mut dirty = false;
    while !stop.load(Ordering::Acquire) {
        let pass = if dirty {
            timed(tracer, |t| &t.sweeper, || sweeper.run_until_converged()).map(Some)
        } else {
            timed(tracer, |t| &t.sweeper, || sweeper.watch(Duration::ZERO))
        };
        match pass {
            Ok(Some(report)) => {
                lock().totals.add(&report);
                dirty = !report.converged;
                if report.converged {
                    if let Some(epoch) = sweeper.session().current_epoch() {
                        lock().converged.push((epoch, Instant::now()));
                    }
                }
            }
            Ok(None) => std::thread::sleep(PROBE_INTERVAL),
            Err(e) => {
                lock().errors.push(e.to_string());
                dirty = true;
            }
        }
    }
}

/// A serial write that adopts and retries lost CAS races.
fn write(writer: &mut ClientSession, object: &str, data: &[u8]) -> Result<(), DataError> {
    let mut conflicts = 0;
    loop {
        match writer.write(object, data) {
            Ok(_) => return Ok(()),
            Err(DataError::Conflict(_)) if conflicts < CONFLICT_RETRIES => {
                conflicts += 1;
                writer.fetch(object)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The foreground's record of one revocation.
struct Revocation {
    epoch: u64,
    returned: Instant,
}

/// Runs `rw_revoke` once: `setups` set-ups, then `seconds` worth of
/// read/write events with a revocation every `churn_every` of them.
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
    let trace = generate_read_write(&RwTraceConfig {
        objects: p.objects,
        events: (seconds * p.events_per_second).round() as usize,
        write_ratio: 0.5,
        churn_every: p.churn_every,
        churn_ops: 1,
        churn_revocation_ratio: 1.0,
        seed: cfg.seed,
    });
    let (mut d, setup_times) = set_up(setups, || deploy(cfg, &p, &trace, tracer))?;
    let mut run = Run {
        setups: setup_times,
        tail: 99.0,
        ..Run::default()
    };
    let stack = &d.stack;
    let mut churn = Churn {
        coordinator: RevocationCoordinator::new(&stack.admin, ReencryptionPolicy::Lazy),
        revokes: Samples::default(),
        refreshes: Samples::default(),
        revocations: Vec::new(),
        rekeyed: 0,
        created: 0,
    };
    let writer = d.writer.session_mut();
    let expected = &mut d.expected;
    let (mut reads, mut writes) = (Samples::default(), Samples::default());
    let log = Mutex::new(SweepLog::default());
    let stop = AtomicBool::new(false);

    let start = Instant::now();
    // one rate segment per churn cycle: its reads and writes plus the
    // revocation and key pickup that close it
    let mut cycle = (start, 0u64);
    let sweeper = &mut d.sweeper;
    std::thread::scope(|scope| {
        let background = scope.spawn(|| sweep_loop(sweeper, &log, &stop, tracer));
        for (i, event) in trace.events.iter().enumerate() {
            match event {
                RwOp::Write { object } => {
                    let data = payload(i as u64, p.payload);
                    let t0 = Instant::now();
                    let outcome = timed(tracer, |t| &t.session, || write(writer, object, &data));
                    run.attempted += 1;
                    match outcome {
                        Ok(()) => {
                            writes.push(t0.elapsed());
                            cycle.1 += 1;
                        }
                        Err(e) => {
                            run.failed += 1;
                            run.checks.check(false, || format!("write {object}: {e}"));
                        }
                    }
                    expected.insert(object.clone(), i as u64);
                }
                RwOp::Read { object } => {
                    let t0 = Instant::now();
                    let got = timed(tracer, |t| &t.session, || writer.read(object));
                    let latency = t0.elapsed();
                    run.attempted += 1;
                    let want = payload(expected[object], p.payload);
                    if stack::check_read(&mut run.checks, object, &want, got) {
                        reads.push(latency);
                        cycle.1 += 1;
                    } else {
                        run.failed += 1;
                    }
                }
                RwOp::Churn { ops } => {
                    for op in ops {
                        run.attempted += 1;
                        if !churn.apply(writer, op, &mut run.checks, tracer) {
                            run.failed += 1;
                        }
                    }
                    let (began, ops) = cycle;
                    run.rates.push(ops as f64 / began.elapsed().as_secs_f64());
                    cycle = (Instant::now(), 0);
                }
            }
        }
        run.wall = start.elapsed();
        // the run ends once the sweeper has converged the final epoch
        let last = stack.epoch();
        let waited = Instant::now();
        while waited.elapsed() < CONVERGE_TIMEOUT {
            let done = {
                let log = log.lock().expect("sweep log lock poisoned");
                log.converged.last().is_some_and(|&(e, _)| e >= last)
            };
            if done || churn.revocations.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Release);
        background.join().expect("sweeper thread panicked");
    });

    let log = log.into_inner().expect("sweep log lock poisoned");
    run.ops_per_s = sustained(&run.rates).unwrap_or_else(|| run.plain_ops_per_s());
    run.counters.sweep = log.totals;
    run.counters.partitions_rekeyed = churn.rekeyed;
    run.counters.partitions_created = churn.created;
    run.counters.sweep.errors = log.errors.len() as u64;
    for e in log.errors.iter().take(3) {
        println!("sweeper retried after: {e}");
    }
    let mut windows = Samples::default();
    for r in &churn.revocations {
        match log.converged.iter().find(|&&(epoch, _)| epoch >= r.epoch) {
            Some(&(_, at)) => windows.push(at.saturating_duration_since(r.returned)),
            None => {
                run.checks
                    .check(false, || format!("epoch {} never converged", r.epoch));
            }
        }
    }
    run.classes = vec![
        Class {
            name: "read",
            percentiles: &[50.0, 75.0, 99.0],
            foreground: true,
            samples: reads,
        },
        Class {
            name: "write",
            percentiles: &[50.0, 75.0, 99.0],
            foreground: true,
            samples: writes,
        },
        Class {
            name: "revoke",
            percentiles: &[50.0],
            foreground: false,
            samples: churn.revokes,
        },
        Class {
            name: "refresh",
            percentiles: &[50.0],
            foreground: false,
            samples: churn.refreshes,
        },
        Class {
            name: "lazy_window",
            percentiles: &[50.0],
            foreground: false,
            samples: windows,
        },
    ];
    let writer = d.writer.session_mut();
    stack::converge_and_verify(
        stack,
        &mut d.sweeper,
        writer,
        &d.expected,
        p.payload,
        &mut run,
        tracer,
    );
    run.counters.data = run.counters.data.merge(&writer.metrics());
    run.counters.payload = p.payload as u64;
    run.metadata_bytes = stack.metadata_bytes();
    stack.count(&mut run.counters);
    Ok(run)
}

/// The foreground's membership side: applies churn and records what the
/// revocations cost.
struct Churn<'a> {
    coordinator: RevocationCoordinator<'a>,
    revokes: Samples,
    refreshes: Samples,
    revocations: Vec<Revocation>,
    rekeyed: u64,
    created: u64,
}

impl Churn<'_> {
    /// Applies one churn operation as its own batch through the
    /// coordinator, then lets the writer pick the new key up; true when
    /// every check held.
    fn apply(
        &mut self,
        writer: &mut ClientSession,
        op: &TraceOp,
        checks: &mut Checks,
        tracer: Option<&Tracer>,
    ) -> bool {
        let mut batch = MembershipBatch::new();
        match op {
            TraceOp::Remove { user } => batch.remove(user.clone()),
            TraceOp::Add { user } => batch.add(user.clone()),
        };
        let t0 = Instant::now();
        let outcome = timed(
            tracer,
            |t| &t.admin,
            || {
                self.coordinator
                    .revoke(stack::GROUP, &batch, &mut BackgroundSweeper)
            },
        );
        let returned = Instant::now();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => return checks.check(false, || format!("churn {op:?}: {e}")),
        };
        self.revokes.push(returned - t0);
        self.rekeyed += outcome.batch.partitions_rekeyed as u64;
        self.created += outcome.batch.partitions_created as u64;
        if !outcome.batch.gk_rotated {
            return checks.check(true, String::new);
        }
        let epoch = outcome.batch.epoch;
        self.revocations.push(Revocation { epoch, returned });
        let t1 = Instant::now();
        let woke = timed(tracer, |t| &t.refresh, || writer.watch(Duration::ZERO));
        self.refreshes.push(t1.elapsed());
        let held = writer.current_epoch();
        checks.check(matches!(woke, Ok(true)) && held == Some(epoch), || {
            format!("writer missed epoch {epoch}: {woke:?}, holds {held:?}")
        })
    }
}
