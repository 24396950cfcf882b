//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <simulate-mno|serve-feed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Runs one workload in-process through the library crates' public
//! functions, on one thread, checks every output, prints every metric
//! as a line and, as the last line, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! traced run also writes its spans to `.bench_trace/`. The exit code is
//! non-zero when any output check failed. See `README.md` for the
//! workloads, the metrics and why they were chosen.

mod alloc;
mod analyze;
mod client;
mod fixture;
mod measure;
mod report;
mod self_test;
mod serve;
mod simulate;
mod trace;
mod workload;

use fixture::Size;
use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use trace::Tracer;
use workload::Ctx;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["simulate-mno", "serve-feed"];

/// Library knobs that select a non-default code path. The benchmark
/// measures the default path only.
const FORBIDDEN_ENV: [&str; 4] = [
    "WTR_HEAP_SCHED",
    "WTR_LEGACY_BEHAVIOR",
    "WTR_SERIAL_MERGE",
    "WTR_SCHED_DEBUG",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 99,
        seconds: 40.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Runs one workload; in traced mode also reads the per-layer metrics
/// off the trace. Returns the outcome and the tracer.
pub fn run_workload(workload: &str, mut ctx: Ctx) -> (Outcome, Tracer) {
    let mut outcome = match workload {
        "simulate-mno" => simulate::run(&mut ctx),
        "serve-feed" => serve::run(&mut ctx),
        other => unreachable!("unknown workload {other}"),
    };
    let mut tracer = ctx.tracer;
    if tracer.enabled() {
        let ops = tracer.per_op_dur_ms("op");
        let mean = ops.iter().sum::<f64>() / ops.len().max(1) as f64;
        tracer.count("trace.op_mean_ms", mean);
        outcome.check(tracer.check().is_ok(), || {
            format!("trace: {}", tracer.check().unwrap_err())
        });
        outcome.metrics.extend(report::per_layer(&tracer));
    }
    (outcome, tracer)
}

/// The exit code for an outcome: non-zero when any check failed.
pub fn exit_code(outcome: &Outcome) -> ExitCode {
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = FORBIDDEN_ENV.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("error: {knob} is set; the benchmark measures the default code path only");
        return ExitCode::from(2);
    }
    // All compute on one thread: one shard, serial folds.
    wtr_sim::par::set_threads(Some(1));
    if args.self_test {
        return self_test::run();
    }

    let size = Size::ANALYSIS;
    let ctx = Ctx {
        size,
        seed: args.seed,
        seconds: args.seconds,
        setups: 3,
        corrupt_reference: false,
        tracer: Tracer::new(args.trace),
    };
    println!(
        "workload {} seed {} fixture {}x{} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        size.devices,
        size.days,
        args.seconds,
        u8::from(args.trace),
        wtr_sim::par::threads()
    );
    let (outcome, tracer) = run_workload(&args.workload, ctx);
    if tracer.enabled() {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"devices\":{},\"days\":{}",
            args.workload, args.seed, size.devices, size.days
        );
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&header)))
        {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    let wanted: Vec<(&str, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit))
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    if let Err(e) = report::print(&args.workload, args.seed, &outcome, &wanted) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    exit_code(&outcome)
}
