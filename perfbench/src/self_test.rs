//! `--self-test`: every workload on a tiny fixture, in both modes, with
//! a clean and a corrupted reference.

use crate::fixture::Size;
use crate::report::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workload::Ctx;
use crate::{exit_code, run_workload, WORKLOADS};
use std::process::ExitCode;

const TINY: Size = Size {
    devices: 200,
    days: 3,
};

fn ctx(trace: bool, corrupt_reference: bool) -> Ctx {
    Ctx {
        size: TINY,
        seed: 7,
        seconds: 0.2,
        setups: 2,
        corrupt_reference,
        tracer: Tracer::new(trace),
    }
}

/// Runs the harness checks; returns what went wrong.
pub fn problems() -> Vec<String> {
    let mut problems = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (outcome, tracer) = run_workload(workload, ctx(trace, false));
            let tag = format!("{workload} trace={}", u8::from(trace));
            let wanted: Vec<(&str, &str)> = if trace {
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, _)| (name, unit))
                    .collect()
            } else {
                END_TO_END.to_vec()
            };
            for (name, unit) in wanted {
                match outcome.get(name) {
                    None => problems.push(format!("{tag}: {name} not printed")),
                    Some(m) if !m.value.is_finite() || m.unit != unit => {
                        problems.push(format!("{tag}: {name} = {} {}", m.value, m.unit))
                    }
                    Some(_) => {}
                }
            }
            for m in outcome.metrics.iter().filter(|m| m.unit.is_empty()) {
                problems.push(format!("{tag}: {} has no unit", m.name));
            }
            if outcome.failed > 0 || outcome.attempted == 0 {
                problems.push(format!("{tag}: clean run failed: {:?}", outcome.failures));
            }
            if let Err(e) = tracer.check() {
                problems.push(format!("{tag}: {e}"));
            }
            if trace && tracer.spans().is_empty() {
                problems.push(format!("{tag}: no spans recorded"));
            }
        }
        let (outcome, _) = run_workload(workload, ctx(false, true));
        if outcome.failed == 0 || exit_code(&outcome) == ExitCode::SUCCESS {
            problems.push(format!("{workload}: a corrupted reference went unnoticed"));
        }
    }
    problems
}

pub fn run() -> ExitCode {
    let problems = problems();
    for p in &problems {
        println!("self-test problem: {p}");
    }
    println!(
        "self-test: {} workloads x 2 modes + corrupted references: {}",
        WORKLOADS.len(),
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn harness_self_test() {
        wtr_sim::par::set_threads(Some(1));
        let problems = super::problems();
        assert!(problems.is_empty(), "{problems:#?}");
    }
}
