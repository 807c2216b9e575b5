//! Command-line entry point; see the library docs for what it measures.
//!
//! ```text
//! perfbench --workload <rw_steady|membership|rw_revoke> --seed N \
//!           --seconds S --trace <0|1> [--size tiny]
//! ```
//!
//! Exit codes: 0 when every correctness check held, 1 when one failed (the
//! result line still prints, with `"correct": false`), 2 on a usage or
//! set-up error (no result line).

use perfbench::layers::Tracer;
use perfbench::metrics::{self, Metric};
use perfbench::run::Run;
use perfbench::stats::beyond;
use perfbench::{execute, json, Config, Size, Workload, SETUPS};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <rw_steady|membership|rw_revoke> \
                     --seed N --seconds S --trace <0|1> [--size tiny]";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            "--size" => {
                size = match value()?.as_str() {
                    "tiny" => Size::Tiny,
                    "full" => Size::Full,
                    other => return Err(format!("--size must be tiny or full, got {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Prints each latency class with its sample count and the samples beyond
/// each percentile (a percentile needs ten beyond it to be trusted).
fn print_classes(label: &str, run: &Run) {
    println!("{label}: {} set-ups {:?} s", run.setups.len(), run.setups);
    println!(
        "{label}: timed phase {:.3} s, {} attempted, {} failed, {} checks held, \
         {:.1} ops/s robust ({:.1} over the whole phase)",
        run.wall.as_secs_f64(),
        run.attempted,
        run.failed,
        run.checks.passed,
        run.ops_per_s,
        run.plain_ops_per_s()
    );
    if !run.rates.is_empty() {
        let rates: Vec<String> = run.rates.iter().map(|r| format!("{r:.0}")).collect();
        println!("{label}: ops/s per segment [{}]", rates.join(", "));
    }
    for class in &run.classes {
        let n = class.samples.len();
        for &p in class.percentiles {
            let value = class
                .samples
                .percentile(p)
                .map_or("-".into(), |v| format!("{v:.4}"));
            let tail = beyond(n, p);
            let flag = if tail < 10 {
                "  (fewer than 10 samples beyond)"
            } else {
                ""
            };
            println!(
                "{label}:   {}_p{p:.0}_ms = {value} ms  [{n} samples, {tail} beyond]{flag}",
                class.name
            );
        }
    }
    println!(
        "{label}:   failed_op_share = {} ratio  [{} attempted]",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.attempted
    );
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<40} {:>18.4} {}", m.name, m.value, m.unit);
    }
}

fn report_failures(run: &Run) {
    for failure in run.checks.failures.iter().take(20) {
        eprintln!("check failed: {failure}");
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} size={:?} threads={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.size,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let full = cfg.size == Size::Full;
    let outcome = if cfg.trace {
        // the same workload twice at half length: untraced, then traced
        let half = cfg.seconds / 2.0;
        execute(&cfg, None, 1, half).and_then(|plain| {
            let tracer = Tracer::default();
            let traced = execute(&cfg, Some(&tracer), 1, half)?;
            let metrics = metrics::per_layer(&plain, &traced, &tracer);
            Ok((vec![("untraced", plain), ("traced", traced)], metrics))
        })
    } else {
        let setups = if full { SETUPS } else { 1 };
        execute(&cfg, None, setups, cfg.seconds).map(|run| {
            let metrics = metrics::end_to_end(&run);
            (vec![("run", run)], metrics)
        })
    };
    let (runs, metrics) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    for (label, run) in &runs {
        print_classes(label, run);
        report_failures(run);
    }
    print_metrics(&metrics);
    let correct = runs.iter().all(|(_, run)| run.correct());
    let attempted = runs.iter().map(|(_, r)| r.attempted).sum();
    let failed = runs.iter().map(|(_, r)| r.failed).sum();
    println!(
        "{}",
        json::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
