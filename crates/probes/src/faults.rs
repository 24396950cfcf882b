//! Probe-side fault injection: deterministic record loss.
//!
//! Real passive-monitoring deployments drop records — probe restarts,
//! buffer overruns, sampling. [`LossySink`] wraps any [`EventSink`] and
//! deterministically discards a configured fraction of events before they
//! reach it (the record-layer analogue of smoltcp's `--drop-chance` fault
//! injection). Robustness of the downstream pipeline to this loss is part
//! of the test suite: the paper's statistics are shares and distributions,
//! which degrade gracefully rather than break.

use crate::idmap::IdMap;
use wtr_model::hash::mix64;
use wtr_sim::events::SimEvent;
use wtr_sim::world::EventSink;

/// An [`EventSink`] adapter that drops a deterministic pseudo-random
/// fraction of events.
///
/// The drop coin for an event is a pure function of
/// `(salt, device, per-device event sequence)` — **not** of the global
/// arrival order. Events from one device always arrive in that device's
/// own order (the engine dispatches each agent's wake-ups in per-agent
/// sequence), so the per-device counter assigns the same coin to the
/// same event no matter how events from *different* devices interleave:
/// the dropped-record *set* is identical across shard and thread
/// counts. An earlier revision keyed the coin on a global `seen`
/// counter, which baked the cross-device interleaving into every coin
/// and could never be shard-stable.
///
/// At a drop fraction of 0 no coin can fall below it, so the sink counts
/// the event as seen and forwards it without keeping a per-device count.
#[derive(Debug, Clone)]
pub struct LossySink<S> {
    inner: S,
    drop_fraction: f64,
    salt: u64,
    /// Per-device event counters: `device -> events seen so far`.
    device_seq: IdMap<u64>,
    seen: u64,
    dropped: u64,
}

impl<S: EventSink> LossySink<S> {
    /// Wraps `inner`, dropping `drop_fraction` of events (`0.0..=1.0`).
    pub fn new(inner: S, drop_fraction: f64, salt: u64) -> Self {
        LossySink {
            inner,
            drop_fraction: drop_fraction.clamp(0.0, 1.0),
            salt,
            device_seq: IdMap::default(),
            seen: 0,
            dropped: 0,
        }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Reference to the wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Events observed (dropped + forwarded).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<S: EventSink> EventSink for LossySink<S> {
    fn on_event(&mut self, event: &SimEvent) {
        self.seen += 1;
        if self.drop_fraction == 0.0 {
            self.inner.on_event(event);
            return;
        }
        let seq = self.device_seq.entry(event.device()).or_insert(0);
        *seq += 1;
        // Deterministic per-event coin keyed on (salt, device, per-device
        // sequence): repeated timestamps from one device don't share fate,
        // and the coin never depends on how other devices interleave —
        // the loss set is shard-count-invariant.
        let h = mix64(mix64(self.salt ^ event.device()) ^ *seq);
        let coin = h as f64 / u64::MAX as f64;
        if coin < self.drop_fraction {
            self.dropped += 1;
            return;
        }
        self.inner.on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::ids::{Imei, Imsi, Plmn, Tac};
    use wtr_model::rat::Rat;
    use wtr_model::time::SimTime;
    use wtr_sim::events::{ProcedureResult, ProcedureType, SignalingEvent};
    use wtr_sim::world::VecSink;

    fn event(i: u64) -> SimEvent {
        SimEvent::Signaling(SignalingEvent {
            time: SimTime::from_secs(i),
            device: i % 17,
            imsi: Imsi::new(Plmn::of(214, 7), i).unwrap(),
            imei: Imei::new(Tac::new(35_000_000).unwrap(), 1).unwrap(),
            visited: Plmn::of(234, 30),
            sector: None,
            rat: Rat::G4,
            procedure: ProcedureType::Authentication,
            result: ProcedureResult::Ok,
        })
    }

    #[test]
    fn zero_loss_forwards_everything() {
        let mut sink = LossySink::new(VecSink::default(), 0.0, 1);
        for i in 0..500 {
            sink.on_event(&event(i));
        }
        assert_eq!(sink.seen(), 500);
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.inner().events.len(), 500);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut sink = LossySink::new(VecSink::default(), 1.0, 1);
        for i in 0..100 {
            sink.on_event(&event(i));
        }
        assert_eq!(sink.dropped(), 100);
        assert!(sink.into_inner().events.is_empty());
    }

    #[test]
    fn loss_rate_approximately_respected() {
        let mut sink = LossySink::new(VecSink::default(), 0.3, 7);
        for i in 0..20_000 {
            sink.on_event(&event(i));
        }
        let rate = sink.dropped() as f64 / sink.seen() as f64;
        assert!((0.27..0.33).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn deterministic_in_salt() {
        let run = |salt: u64| {
            let mut sink = LossySink::new(VecSink::default(), 0.5, salt);
            for i in 0..200 {
                sink.on_event(&event(i));
            }
            sink.into_inner().events.len()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn drop_set_is_interleaving_invariant() {
        // The same per-device event streams, fed in two very different
        // global interleavings, must drop exactly the same events. This
        // is the property that makes record loss shard-count-invariant:
        // sharding only changes the cross-device interleaving.
        let devices = 11u64;
        let per_device = 400u64;
        let survivors = |order: &[(u64, u64)]| {
            let mut sink = LossySink::new(VecSink::default(), 0.3, 99);
            for &(dev, k) in order {
                // Event content depends on (dev, k) only.
                let mut e = event(dev);
                if let SimEvent::Signaling(s) = &mut e {
                    s.time = SimTime::from_secs(k * 60);
                    s.device = dev;
                }
                sink.on_event(&e);
            }
            let set: std::collections::BTreeSet<(u64, u64)> = sink
                .inner()
                .events
                .iter()
                .map(|e| (e.device(), e.time().as_secs()))
                .collect();
            (set, sink.dropped())
        };
        // Interleaving A: device-major (a 1-shard run).
        let a: Vec<(u64, u64)> = (0..devices)
            .flat_map(|d| (0..per_device).map(move |k| (d, k)))
            .collect();
        // Interleaving B: time-major round-robin (a serial run).
        let b: Vec<(u64, u64)> = (0..per_device)
            .flat_map(|k| (0..devices).map(move |d| (d, k)))
            .collect();
        assert_eq!(survivors(&a), survivors(&b));
    }

    #[test]
    fn fraction_clamped() {
        let sink = LossySink::new(VecSink::default(), 7.5, 0);
        assert_eq!(sink.drop_fraction, 1.0);
        let sink = LossySink::new(VecSink::default(), -1.0, 0);
        assert_eq!(sink.drop_fraction, 0.0);
    }
}
