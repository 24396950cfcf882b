//! What every workload shares: the run context, repeated set-up, and
//! the measured phase's end-to-end metrics.

use crate::fixture::Size;
use crate::measure::{median, peak_rss_mib, process_cpu_ms, reset_peak_rss, tail};
use crate::report::{Metric, Outcome};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// One run's parameters and its tracer.
pub struct Ctx {
    pub size: Size,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// How many times set-up runs; `setup_s` is the median.
    pub setups: usize,
    /// Corrupt one byte of the reference outputs (the harness self-test).
    pub corrupt_reference: bool,
    pub tracer: Tracer,
}

impl Ctx {
    /// Runs `setup` `self.setups` times, dropping each result before
    /// the next, and keeps the last. Returns it with the median seconds.
    pub fn repeat_setup<T>(&mut self, mut setup: impl FnMut(&mut Ctx) -> T) -> (T, Metric) {
        let mut kept = None;
        let mut secs = Vec::new();
        for _ in 0..self.setups.max(1) {
            drop(kept.take());
            let started = Instant::now();
            kept = Some(setup(self));
            secs.push(started.elapsed().as_secs_f64());
        }
        let metric = Metric::new(
            "setup_s",
            median(&secs),
            "s",
            format!("median of {}", secs.len()),
        );
        (kept.expect("at least one set-up"), metric)
    }

    /// Whether the measured phase has run long enough.
    pub fn done(&self, phase: &Phase) -> bool {
        phase.started.elapsed() >= Duration::from_secs_f64(self.seconds)
    }

    /// Flips the low bit of a reference's first byte, when the self-test
    /// asks for it.
    pub fn maybe_corrupt(&self, bytes: &mut [u8]) {
        if self.corrupt_reference {
            if let Some(b) = bytes.first_mut() {
                *b ^= 0x01;
            }
        }
    }
}

/// The measured phase: starts after set-up data is dropped.
pub struct Phase {
    started: Instant,
    cpu_ms: f64,
}

impl Phase {
    /// Resets the memory peaks and starts the clocks.
    pub fn start() -> Phase {
        crate::alloc::reset_peak();
        reset_peak_rss();
        Phase {
            started: Instant::now(),
            cpu_ms: process_cpu_ms(),
        }
    }

    /// Pushes `op_mean_ms`, `cpu_ms_per_op` and `peak_heap_mb` for `ops`
    /// (op wall times in ms), plus the op median, the op tail and
    /// `peak_rss_mb` as diagnostics.
    ///
    /// The mean, not the median, is gated: the host switches between
    /// speed states about 1.6x apart for seconds to minutes at a time. A
    /// run's median jumps to whichever state held more than half of it,
    /// while the mean (total op time over ops) moves with the share of
    /// time in each. Resident pages include what the allocator kept from
    /// set-up, which varies with the seed's heap layout, so the gated
    /// memory figure is the exact peak of heap bytes in use.
    pub fn finish(self, out: &mut Outcome, ops: &[f64]) {
        let cpu = process_cpu_ms() - self.cpu_ms;
        let n = ops.len();
        let mean = ops.iter().sum::<f64>() / n.max(1) as f64;
        out.push(Metric::new("op_mean_ms", mean, "ms", format!("n={n}")));
        out.push(Metric::new(
            "op_p50_ms",
            median(ops),
            "ms",
            format!("n={n}, diagnostic"),
        ));
        if let Some((p, v)) = tail(ops) {
            out.push(Metric::new(
                &format!("op_p{p}_ms"),
                v,
                "ms",
                format!("n={n}, diagnostic"),
            ));
        }
        out.push(Metric::new(
            "cpu_ms_per_op",
            cpu / n.max(1) as f64,
            "ms",
            format!("{cpu} ms over {n} ops"),
        ));
        out.push(Metric::new(
            "peak_heap_mb",
            crate::alloc::peak_mib(),
            "MiB",
            "heap bytes in use, peak over the measured phase",
        ));
        out.push(Metric::new(
            "peak_rss_mb",
            peak_rss_mib(),
            "MiB",
            "VmHWM over the measured phase, diagnostic",
        ));
        out.push(Metric::new(
            "measured_s",
            self.started.elapsed().as_secs_f64(),
            "s",
            "diagnostic",
        ));
    }
}

/// Pushes a latency diagnostic: the median and the highest tail
/// percentile with ten samples beyond it, with the sample count.
pub fn latency(out: &mut Outcome, name: &str, samples: &[f64]) {
    let n = samples.len();
    out.push(Metric::new(
        &format!("{name}_p50_ms"),
        median(samples),
        "ms",
        format!("n={n}"),
    ));
    if let Some((p, v)) = tail(samples) {
        out.push(Metric::new(
            &format!("{name}_p{p}_ms"),
            v,
            "ms",
            format!("n={n}, diagnostic"),
        ));
    }
}
