//! The metric catalogue (mirrors `BENCHMARK.json`), the per-layer table
//! built from a trace, and the printed result.

use crate::trace::Tracer;
use std::fmt::Write as _;

/// One printed number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or provenance, printed after the value.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric, end-to-end and diagnostic.
    pub metrics: Vec<Metric>,
    /// Catalog and report digests, for byte-identity across commits.
    pub digests: Vec<(&'static str, u64)>,
    /// Why each failure counted.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one attempted check; records `why` when it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// End-to-end metrics and their units, reported by every workload's
/// untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_mean_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_heap_mb", "MiB"),
    ("setup_s", "s"),
];

/// How a per-layer value is read off the trace.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Median per-op self time of the span (set-up/check spans when the
    /// ops bypass it).
    Span(&'static str),
    /// Span `.0` minus span `.1`, timed as a separate pass over the same
    /// input: the part of an opaque call `.1` does not explain.
    Minus(&'static str, &'static str),
    /// Median self time of a single call.
    Call(&'static str),
    /// A count recorded under the metric's own name.
    Count,
}

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str, Source); 39] = [
    ("trace.op_mean_ms", "ms", Source::Count),
    ("trace.coverage", "ratio", Source::Count),
    ("sim.run_ms", "ms", Source::Span("sim.run")),
    ("sim.ns_per_wakeup", "ns", Source::Count),
    ("sim.agents", "count", Source::Count),
    ("sim.wakeups_dispatched", "count", Source::Count),
    ("sim.peak_queue_max", "count", Source::Count),
    ("probes.mno.records", "count", Source::Count),
    ("probes.catalog.rows", "count", Source::Count),
    ("probes.catalog.devices", "count", Source::Count),
    (
        "probes.io.write_jsonl_ms",
        "ms",
        Source::Span("probes.io.write_jsonl"),
    ),
    ("probes.io.jsonl_bytes", "bytes", Source::Count),
    (
        "probes.wire.encode_ms",
        "ms",
        Source::Span("probes.wire.encode"),
    ),
    (
        "probes.wire.decode_ms",
        "ms",
        Source::Span("probes.wire.decode"),
    ),
    (
        "probes.scan.jsonl_ms",
        "ms",
        Source::Span("probes.scan.jsonl"),
    ),
    (
        "core.stream.fold_ms",
        "ms",
        Source::Minus("core.stream", "probes.scan.jsonl"),
    ),
    (
        "model.tacdb.build_ms",
        "ms",
        Source::Span("model.tacdb.build"),
    ),
    ("core.classify_ms", "ms", Source::Span("core.classify")),
    (
        "core.analysis.tables_ms",
        "ms",
        Source::Minus("core.analysis", "core.classify"),
    ),
    (
        "core.report.render_ms",
        "ms",
        Source::Span("core.report.render"),
    ),
    (
        "probes.catalog.adopt_ms",
        "ms",
        Source::Span("probes.catalog.adopt"),
    ),
    (
        "probes.catalog.merge_ms",
        "ms",
        Source::Span("probes.catalog.merge"),
    ),
    (
        "probes.catalog.canonicalize_ms",
        "ms",
        Source::Span("probes.catalog.canonicalize"),
    ),
    (
        "probes.catalog.snapshot_clone_ms",
        "ms",
        Source::Span("probes.catalog.snapshot_clone"),
    ),
    (
        "serve.tenant.ingest_ms",
        "ms",
        Source::Call("serve.tenant.ingest"),
    ),
    (
        "serve.tenant.rebuild_ms",
        "ms",
        Source::Call("serve.tenant.rebuild"),
    ),
    (
        "serve.tenant.warm_ms",
        "ms",
        Source::Call("serve.tenant.warm"),
    ),
    (
        "serve.http.ingest_p50_ms",
        "ms",
        Source::Call("serve.http.ingest"),
    ),
    (
        "serve.http.cold_read_p50_ms",
        "ms",
        Source::Call("serve.http.cold_read"),
    ),
    (
        "serve.http.warm_read_p50_ms",
        "ms",
        Source::Call("serve.http.warm_read"),
    ),
    ("serve.http.ingest_overhead_ms", "ms", Source::Count),
    ("serve.http.read_overhead_ms", "ms", Source::Count),
    ("serve.cache.hit_ratio", "ratio", Source::Count),
    ("serve.generations", "count", Source::Count),
    ("serve.sealed_days", "count", Source::Count),
    ("serve.rows_ingested", "count", Source::Count),
    ("serve.failed.ingest", "count", Source::Count),
    ("serve.failed.cold_read", "count", Source::Count),
    ("serve.failed.warm_read", "count", Source::Count),
];

/// Reads every per-layer metric off `tracer`; bypassed layers read 0.
pub fn per_layer(tracer: &Tracer) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, source)| {
            let value = match source {
                Source::Span(span) => tracer.layer_ms(span),
                Source::Minus(whole, part) => tracer.layer_minus_ms(whole, part),
                Source::Call(span) => {
                    let calls = tracer.each_ms(span);
                    (!calls.is_empty()).then(|| crate::measure::median(&calls))
                }
                Source::Count => tracer.count_value(name),
            };
            let note = match (source, value) {
                (_, None) => "bypassed".to_owned(),
                (Source::Span(s) | Source::Minus(s, _), Some(_))
                    if tracer.per_op_ms(s).is_empty() =>
                {
                    "set-up/check".to_owned()
                }
                (Source::Call(s), Some(_)) => format!("per call, n={}", tracer.each_ms(s).len()),
                _ => String::new(),
            };
            Metric::new(name, value.unwrap_or(0.0), unit, note)
        })
        .collect()
}

/// The share of the ops' total wall time that the named layers' self
/// times account for: `plus` minus `minus`, so that a direct-call replay
/// can stand in for an opaque call.
pub fn coverage(tracer: &Tracer, plus: &[&str], minus: &[&str]) -> f64 {
    let total = |names: &[&str]| -> f64 { names.iter().flat_map(|n| tracer.per_op_ms(n)).sum() };
    let ops: f64 = tracer.per_op_dur_ms("op").iter().sum();
    (total(plus) - total(minus)) / ops
}

/// Prints every metric as a line, then the result object as the last
/// line: `wanted` names the metrics it carries, in order, with units.
pub fn print(
    workload: &str,
    seed: u64,
    outcome: &Outcome,
    wanted: &[(&str, &str)],
) -> Result<(), String> {
    for (what, digest) in &outcome.digests {
        println!("digest {what} {digest:#018x}");
    }
    for m in &outcome.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!(" ({})", m.note)
        };
        println!("metric {} = {} {}{note}", m.name, m.value, m.unit);
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "metric fail_ratio = {fail_ratio} ratio ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    for why in &outcome.failures {
        println!("failure: {why}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, &(name, unit)) in wanted.iter().enumerate() {
        let m = outcome
            .get(name)
            .ok_or_else(|| format!("{workload} (seed {seed}) did not measure {name}"))?;
        if !m.value.is_finite() || m.unit != unit {
            return Err(format!(
                "{name} = {} {}, expected a number in {unit}",
                m.value, m.unit
            ));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above and those in `BENCHMARK.json` agree, in
    /// order, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json beside perfbench/")
            .split_whitespace()
            .collect();
        let declared = END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)));
        let mut from = 0;
        for (name, unit) in declared {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            let at = json[from..]
                .find(&entry)
                .unwrap_or_else(|| panic!("{entry} missing or out of order"));
            from += at + entry.len();
        }
        let entries = json.matches("\"better\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics in BENCHMARK.json"
        );
    }
}
