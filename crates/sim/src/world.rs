//! The shared simulation environment: network directory, roaming access
//! policy, and the event sink.
//!
//! The world is the `W` type parameter of the engine: every agent turn
//! reads the radio networks, asks the access policy whether a visited
//! network admits its SIM (`wtr-platform`'s roaming-agreement graph
//! answers yes or no), and streams the events it produces into the sink.
//!
//! Events are **streamed, not stored**: a scenario can produce tens of
//! millions of events, so sinks (the probes) aggregate incrementally and
//! the simulator never materializes the full log unless a test asks for it
//! via [`VecSink`].

use crate::events::SimEvent;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wtr_model::ids::Plmn;
use wtr_radio::network::RadioNetwork;

/// Roaming admission control, implemented by the platform crate's
/// agreement graph and by [`AllowAllPolicy`] for tests.
pub trait AccessPolicy {
    /// Does `visited` admit a SIM homed on `home`?
    fn admits(&self, home: Plmn, visited: Plmn) -> bool;
}

/// Admit everyone (single-operator tests and native-only scenarios).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllowAllPolicy;

impl AccessPolicy for AllowAllPolicy {
    fn admits(&self, _home: Plmn, _visited: Plmn) -> bool {
        true
    }
}

/// Incremental consumer of simulation events (the probe attachment point).
pub trait EventSink {
    /// Called once per event, in dispatch order.
    fn on_event(&mut self, event: &SimEvent);
}

/// Sink that materializes every event — for tests and small examples only.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// The collected events.
    pub events: Vec<SimEvent>,
}

impl EventSink for VecSink {
    fn on_event(&mut self, event: &SimEvent) {
        self.events.push(event.clone());
    }
}

/// Fan-out sink: forwards each event to both halves (e.g. an M2M-platform
/// probe and an MNO probe watching the same simulation, as in the paper's
/// two vantage points).
#[derive(Debug, Default, Clone)]
pub struct TeeSink<A, B> {
    /// First consumer.
    pub a: A,
    /// Second consumer.
    pub b: B,
}

impl<A: EventSink, B: EventSink> EventSink for TeeSink<A, B> {
    fn on_event(&mut self, event: &SimEvent) {
        self.a.on_event(event);
        self.b.on_event(event);
    }
}

/// All radio networks of the simulated universe, indexed by PLMN and by
/// country.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetworkDirectory {
    networks: HashMap<u32, RadioNetwork>,
    by_country: HashMap<String, Vec<Plmn>>,
}

impl NetworkDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a network under its country's ISO code.
    pub fn add(&mut self, country_iso: &str, network: RadioNetwork) {
        let plmn = network.plmn();
        self.networks.insert(plmn.packed(), network);
        self.by_country
            .entry(country_iso.to_owned())
            .or_default()
            .push(plmn);
    }

    /// Network by PLMN.
    pub fn get(&self, plmn: Plmn) -> Option<&RadioNetwork> {
        self.networks.get(&plmn.packed())
    }

    /// PLMNs deployed in a country (registration order).
    pub fn in_country(&self, iso: &str) -> &[Plmn] {
        self.by_country.get(iso).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of networks.
    pub fn len(&self) -> usize {
        self.networks.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.networks.is_empty()
    }

    /// Countries with at least one network.
    pub fn countries(&self) -> impl Iterator<Item = &str> {
        self.by_country.keys().map(String::as_str)
    }
}

/// The world handed to device agents: directory + policy + sink.
pub struct RoamingWorld<S> {
    /// All radio networks.
    pub directory: NetworkDirectory,
    /// Roaming admission policy.
    pub policy: Box<dyn AccessPolicy + Send>,
    /// Streaming event consumer (a probe).
    pub sink: S,
}

impl<S: EventSink> RoamingWorld<S> {
    /// Creates a world. Agents take their RNG seed at construction, not
    /// from the world.
    pub fn new(directory: NetworkDirectory, policy: Box<dyn AccessPolicy + Send>, sink: S) -> Self {
        RoamingWorld {
            directory,
            policy,
            sink,
        }
    }

    /// Streams an event into the sink.
    pub fn emit(&mut self, event: SimEvent) {
        self.sink.on_event(&event);
    }
}

impl<S> std::fmt::Debug for RoamingWorld<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoamingWorld")
            .field("networks", &self.directory.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{ProcedureResult, ProcedureType, SignalingEvent};
    use wtr_model::country::Country;
    use wtr_model::ids::{Imei, Imsi, Tac};
    use wtr_model::rat::{Rat, RatSet};
    use wtr_model::time::SimTime;
    use wtr_radio::geo::CountryGeometry;
    use wtr_radio::network::CoverageFaults;
    use wtr_radio::sector::GridSpacing;

    fn net(plmn: Plmn, iso: &str) -> RadioNetwork {
        RadioNetwork::new(
            plmn,
            RatSet::CONVENTIONAL,
            CountryGeometry::of(Country::by_iso(iso).unwrap()),
            GridSpacing::default(),
            CoverageFaults::NONE,
        )
    }

    fn sig(device: u64) -> SimEvent {
        SimEvent::Signaling(SignalingEvent {
            time: SimTime::ZERO,
            device,
            imsi: Imsi::new(Plmn::of(214, 7), device).unwrap(),
            imei: Imei::new(Tac::new(35_000_000).unwrap(), 1).unwrap(),
            visited: Plmn::of(234, 30),
            sector: None,
            rat: Rat::G4,
            procedure: ProcedureType::Authentication,
            result: ProcedureResult::Ok,
        })
    }

    #[test]
    fn directory_lookup_by_plmn_and_country() {
        let mut dir = NetworkDirectory::new();
        dir.add("GB", net(Plmn::of(234, 30), "GB"));
        dir.add("GB", net(Plmn::of(234, 10), "GB"));
        dir.add("ES", net(Plmn::of(214, 7), "ES"));
        assert_eq!(dir.len(), 3);
        assert!(dir.get(Plmn::of(234, 30)).is_some());
        assert!(dir.get(Plmn::of(262, 2)).is_none());
        assert_eq!(dir.in_country("GB").len(), 2);
        assert_eq!(dir.in_country("ES"), &[Plmn::of(214, 7)]);
        assert!(dir.in_country("FR").is_empty());
        let mut countries: Vec<&str> = dir.countries().collect();
        countries.sort_unstable();
        assert_eq!(countries, vec!["ES", "GB"]);
    }

    #[test]
    fn allow_all_policy() {
        assert!(AllowAllPolicy.admits(Plmn::of(214, 7), Plmn::of(234, 30)));
    }

    #[test]
    fn emit_streams_to_sink() {
        let mut world = RoamingWorld::new(
            NetworkDirectory::new(),
            Box::new(AllowAllPolicy),
            VecSink::default(),
        );
        world.emit(sig(1));
        world.emit(sig(2));
        assert_eq!(world.sink.events.len(), 2);
        assert_eq!(world.sink.events[1].device(), 2);
    }

    #[test]
    fn tee_sink_duplicates() {
        let mut tee = TeeSink {
            a: VecSink::default(),
            b: VecSink::default(),
        };
        tee.on_event(&sig(7));
        assert_eq!(tee.a.events.len(), 1);
        assert_eq!(tee.b.events.len(), 1);
    }
}
