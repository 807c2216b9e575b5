//! `rw_steady`: the data plane's steady state. Two pipelined sessions
//! (window 16), one per benchmark thread, replay a 50/50 read/write,
//! square-law-skewed trace over a pre-filled namespace on a 4-shard store;
//! the membership never changes.

use crate::layers::{timed, Tracer};
use crate::run::{Checks, Class, Run};
use crate::stack::{self, payload, Stack, WINDOW};
use crate::stats::{sustained, Samples, Windows};
use crate::{set_up, Config, Size};
use cloud_store::stable_hash64;
use dataplane::{OpClass, PipelinedSession};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use workloads::rw::{generate_read_write, object_name, RwOp, RwTraceConfig};

/// Benchmark threads, each owning one session and the objects that hash to it.
const SESSIONS: usize = 2;

struct Params {
    objects: usize,
    payload: usize,
    /// Trace events generated per chunk; a run replays as many chunks as
    /// its time allows.
    chunk: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            objects: 1024,
            payload: 4096,
            chunk: 20_000,
        },
        Size::Tiny => Params {
            objects: 32,
            payload: 512,
            chunk: 200,
        },
    }
}

struct Deployment {
    stack: Stack,
    pipes: Vec<PipelinedSession>,
    expected: Vec<HashMap<String, u64>>,
}

fn owner(object: &str) -> usize {
    (stable_hash64(object) % SESSIONS as u64) as usize
}

fn deploy(cfg: &Config, p: &Params, tracer: Option<&Tracer>) -> Result<Deployment, String> {
    let members = (0..SESSIONS).map(|c| format!("client-{c}")).collect();
    let stack = stack::deploy(cfg.seed, 32, members, tracer)?;
    let objects: Vec<String> = (0..p.objects).map(object_name).collect();
    let mut pipes = Vec::new();
    for c in 0..SESSIONS {
        let session = stack.session(&format!("client-{c}"), tracer)?;
        pipes.push(PipelinedSession::new(session, WINDOW).with_op_log());
    }
    let mut expected = vec![HashMap::new(); SESSIONS];
    std::thread::scope(|scope| {
        let workers: Vec<_> = pipes
            .iter_mut()
            .zip(expected.iter_mut())
            .enumerate()
            .map(|(c, (pipe, expected))| {
                let mine = objects.iter().filter(move |o| owner(o) == c);
                scope.spawn(move || stack::prefill(pipe, mine, p.payload, expected, tracer))
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("pre-fill thread panicked"))
    })?;
    for pipe in &mut pipes {
        pipe.take_op_log(); // pre-fill latencies are set-up, not workload
    }
    Ok(Deployment {
        stack,
        pipes,
        expected,
    })
}

/// One session's share of the timed phase.
#[derive(Default)]
struct Worker {
    attempted: u64,
    failed: u64,
    reads: Samples,
    writes: Samples,
    done: Windows,
    checks: Checks,
    end: Option<Instant>,
}

/// A read in flight: its handle, object and the write it must return.
type PendingRead = (dataplane::ReadHandle, String, u64);

fn finish_read(
    pipe: &mut PipelinedSession,
    (handle, object, seq): PendingRead,
    p: &Params,
    start: Instant,
    w: &mut Worker,
    tracer: Option<&Tracer>,
) {
    let got = timed(tracer, |t| &t.drain, || pipe.read_wait(handle));
    if stack::check_read(&mut w.checks, &object, &payload(seq, p.payload), got) {
        w.done.count(start.elapsed());
    } else {
        w.failed += 1;
    }
}

fn replay(
    c: usize,
    pipe: &mut PipelinedSession,
    expected: &mut HashMap<String, u64>,
    cfg: &Config,
    p: &Params,
    (start, deadline): (Instant, Instant),
    tracer: Option<&Tracer>,
) -> Worker {
    let mut w = Worker::default();
    let mut pending: VecDeque<PendingRead> = VecDeque::new();
    'chunks: for chunk in 0u64.. {
        let trace = generate_read_write(&RwTraceConfig {
            objects: p.objects,
            events: p.chunk,
            write_ratio: 0.5,
            churn_every: 0,
            churn_ops: 0,
            churn_revocation_ratio: 0.0,
            seed: cfg.seed ^ chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
        for (i, event) in trace.events.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'chunks;
            }
            match event {
                RwOp::Write { object } if owner(object) == c => {
                    let seq = chunk * p.chunk as u64 + i as u64;
                    w.attempted += 1;
                    let data = payload(seq, p.payload);
                    match timed(tracer, |t| &t.enqueue, || pipe.write(object, &data)) {
                        Ok(()) => w.done.count(start.elapsed()),
                        Err(e) => {
                            w.failed += 1;
                            w.checks.check(false, || format!("write {object}: {e}"));
                        }
                    }
                    expected.insert(object.clone(), seq);
                }
                RwOp::Read { object } if owner(object) == c => {
                    w.attempted += 1;
                    match timed(tracer, |t| &t.enqueue, || pipe.read_begin(object)) {
                        Ok(handle) => pending.push_back((handle, object.clone(), expected[object])),
                        Err(e) => {
                            w.failed += 1;
                            w.checks.check(false, || format!("read {object}: {e}"));
                        }
                    }
                    if pending.len() >= WINDOW {
                        let read = pending.pop_front().expect("window is non-empty");
                        finish_read(pipe, read, p, start, &mut w, tracer);
                    }
                }
                _ => {}
            }
        }
    }
    while let Some(read) = pending.pop_front() {
        finish_read(pipe, read, p, start, &mut w, tracer);
    }
    if let Err(e) = timed(tracer, |t| &t.drain, || pipe.flush()) {
        w.failed += 1;
        w.checks.check(false, || format!("flush: {e}"));
    }
    w.end = Some(Instant::now());
    for sample in pipe.take_op_log() {
        match sample.class {
            OpClass::Read => w.reads.push(sample.latency),
            OpClass::Write => w.writes.push(sample.latency),
        }
    }
    w
}

/// Runs `rw_steady` once: `setups` set-ups, then `seconds` of replay.
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
    let (mut d, setup_times) = set_up(setups, || deploy(cfg, &p, tracer))?;
    let mut run = Run {
        setups: setup_times,
        tail: 99.0,
        ..Run::default()
    };

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let workers: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = d
            .pipes
            .iter_mut()
            .zip(d.expected.iter_mut())
            .enumerate()
            .map(|(c, (pipe, expected))| {
                let p = &p;
                scope.spawn(move || replay(c, pipe, expected, cfg, p, (start, deadline), tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let end = workers.iter().filter_map(|w| w.end).max().unwrap_or(start);
    run.wall = end - start;
    let mut reads = Samples::default();
    let mut writes = Samples::default();
    let mut done = Windows::default();
    for w in workers {
        run.attempted += w.attempted;
        run.failed += w.failed;
        reads.extend(&w.reads);
        writes.extend(&w.writes);
        done.merge(&w.done);
        run.checks.absorb(w.checks);
    }
    run.rates = done.rates(run.wall);
    run.ops_per_s = sustained(&run.rates).unwrap_or_else(|| run.plain_ops_per_s());
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
    ];

    let expected: HashMap<String, u64> = d.expected.drain(..).flatten().collect();
    let mut sweeper = stack::sweeper(d.stack.session(stack::SWEEPER, tracer)?);
    let reader = d.pipes[0].session_mut();
    stack::converge_and_verify(
        &d.stack,
        &mut sweeper,
        reader,
        &expected,
        p.payload,
        &mut run,
        tracer,
    );
    for pipe in &d.pipes {
        run.counters.data = run.counters.data.merge(&pipe.metrics());
    }
    run.counters.payload = p.payload as u64;
    run.metadata_bytes = d.stack.metadata_bytes();
    d.stack.count(&mut run.counters);
    Ok(run)
}
