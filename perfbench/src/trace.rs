//! In-memory span and count recorder for the traced run.
//!
//! A span is a named interval with a parent (the span open when it
//! began) and an op id (the measured op it belongs to, or none for
//! set-up and checks). A layer's self time is its span's duration minus
//! the durations of its children. Everything is kept in memory and
//! written as one JSON document when the run ends. A disabled tracer
//! records nothing and reads no clock.

use crate::measure::median;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in ns since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: Option<u32>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and count recorder; see the module docs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u32>,
    counts: Vec<(&'static str, Option<u32>, f64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
            counts: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tags every span and count recorded from now on with `op`.
    pub fn set_op(&mut self, op: Option<u32>) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned; spans close innermost first.
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a count at the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push((name, self.op, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in ns (duration minus its children's).
    /// Signed so that a broken nesting shows as a negative value.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_ns() as i64;
            }
        }
        out
    }

    /// Checks the recorded tree: every span closed, every child inside
    /// its parent, every self time non-negative.
    pub fn check(&self) -> Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} spans left open", self.open.len()));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} {} escapes parent {}",
                        s.name, parent.name
                    ));
                }
            }
        }
        match self.self_ns().iter().position(|&v| v < 0) {
            Some(i) => Err(format!(
                "span {i} {} has negative self time",
                self.spans[i].name
            )),
            None => Ok(()),
        }
    }

    /// The op ids that recorded at least one span, ascending.
    fn ops(&self) -> Vec<u32> {
        let ids: BTreeSet<u32> = self.spans.iter().filter_map(|s| s.op).collect();
        ids.into_iter().collect()
    }

    /// Per op, the summed self time (ms) of spans named `name`; 0 for an
    /// op without one. Empty when no op recorded the name.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        self.per_op(name, |_, self_ns| self_ns)
    }

    /// Per op, the summed full duration (ms) of spans named `name`.
    pub fn per_op_dur_ms(&self, name: &str) -> Vec<f64> {
        self.per_op(name, |s, _| s.dur_ns() as i64)
    }

    fn per_op(&self, name: &str, value: impl Fn(&Span, i64) -> i64) -> Vec<f64> {
        let ops = self.ops();
        if !self.spans.iter().any(|s| s.name == name && s.op.is_some()) {
            return Vec::new();
        }
        let self_ns = self.self_ns();
        let mut sums = vec![0i64; ops.len()];
        for (s, &own) in self.spans.iter().zip(&self_ns) {
            if s.name == name {
                if let Some(op) = s.op {
                    let slot = ops.binary_search(&op).expect("op listed");
                    sums[slot] += value(s, own);
                }
            }
        }
        sums.into_iter().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Self time (ms) of each span named `name` outside any op (set-up
    /// and checks).
    pub fn outside_ops_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name && s.op.is_none())
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Self time (ms) of each span named `name`, in or out of ops.
    pub fn each_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// A layer's value: the median per-op self time when the measured
    /// ops run it, else the median over set-up and check spans, else
    /// `None` (the workload bypasses the layer).
    pub fn layer_ms(&self, name: &str) -> Option<f64> {
        let per_op = self.per_op_ms(name);
        if !per_op.is_empty() {
            return Some(median(&per_op));
        }
        let outside = self.outside_ops_ms(name);
        (!outside.is_empty()).then(|| median(&outside))
    }

    /// `whole` minus `part`, per op where both ran in ops (else on their
    /// set-up/check medians): the share of an opaque call that `part`,
    /// timed as a separate pass over the same input, does not explain.
    pub fn layer_minus_ms(&self, whole: &str, part: &str) -> Option<f64> {
        let (w, p) = (self.per_op_ms(whole), self.per_op_ms(part));
        if !w.is_empty() && !p.is_empty() {
            let diff: Vec<f64> = w.iter().zip(&p).map(|(a, b)| a - b).collect();
            return Some(median(&diff));
        }
        let (w, p) = (self.outside_ops_ms(whole), self.outside_ops_ms(part));
        (!w.is_empty() && !p.is_empty()).then(|| median(&w) - median(&p))
    }

    /// Median of the values recorded for count `name`.
    pub fn count_value(&self, name: &str) -> Option<f64> {
        let values: Vec<f64> = self
            .counts
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, v)| *v)
            .collect();
        (!values.is_empty()).then(|| median(&values))
    }

    /// The whole record as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(96 * self.spans.len() + 256);
        let _ = write!(out, "{{{header},\"spans\":[");
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.op.map(u64::from)),
            );
        }
        out.push_str("\n],\"counts\":[");
        for (i, (name, op, value)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{name}\",\"op\":{},\"value\":{value}}}",
                opt(op.map(u64::from))
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_per_op() {
        let mut t = Tracer::new(true);
        t.set_op(Some(0));
        let root = t.begin("op");
        t.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        t.set_op(None);
        t.time("setup", || ());
        t.check().unwrap();
        let leaf = t.per_op_ms("leaf");
        assert_eq!(leaf.len(), 1);
        assert!(leaf[0] >= 4.0);
        let root_self = t.per_op_ms("op")[0];
        let root_dur = t.per_op_dur_ms("op")[0];
        assert!(root_self >= 0.0 && root_self < root_dur - 4.0 + 1e-9);
        assert_eq!(t.outside_ops_ms("setup").len(), 1);
        assert!(t.layer_ms("absent").is_none());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.time("x", || ());
        t.count("c", 1.0);
        assert!(t.spans().is_empty());
        assert!(t.count_value("c").is_none());
    }
}
