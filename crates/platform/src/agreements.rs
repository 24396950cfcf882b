//! The roaming-agreement graph: who may roam where.
//!
//! Two mechanisms grant access (§2.1): **bilateral agreements** between two
//! operators, and **hub connectivity**. "Operators connect to a hubbing
//! solution provider to gain access to many roaming partners … Hubs are
//! then interconnected to further expand potential operator
//! relationships": two operators are hub-connected when they are members
//! of the same hub or of two *peered* hubs (one peering level, as in
//! practice — hub peering is not transitive here). The paper notes the
//! bilateral and hub models coexist and complement each other.
//!
//! The graph is the simulator's [`AccessPolicy`]: a visited network admits
//! a SIM on its home network, anywhere in its home country (national
//! roaming), or when the graph connects the two.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use wtr_model::country::Country;
use wtr_model::ids::Plmn;
use wtr_sim::world::AccessPolicy;

/// Identifier of a hub within an agreement graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct HubId(pub u32);

/// The full agreement graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AgreementGraph {
    bilateral: HashSet<(u32, u32)>,
    /// Per hub, indexed by [`HubId`], the hubs it peers with.
    peers: Vec<Vec<HubId>>,
    memberships: HashMap<u32, Vec<HubId>>,
}

impl AgreementGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a (symmetric) bilateral agreement.
    pub fn add_bilateral(&mut self, a: Plmn, b: Plmn) {
        let (ka, kb) = (a.packed(), b.packed());
        self.bilateral.insert((ka.min(kb), ka.max(kb)));
    }

    /// Whether a direct bilateral agreement exists.
    pub fn has_bilateral(&self, a: Plmn, b: Plmn) -> bool {
        let (ka, kb) = (a.packed(), b.packed());
        self.bilateral.contains(&(ka.min(kb), ka.max(kb)))
    }

    /// Creates a hub and returns its id.
    pub fn add_hub(&mut self) -> HubId {
        self.peers.push(Vec::new());
        HubId(self.peers.len() as u32 - 1)
    }

    /// Adds an operator to a hub.
    pub fn join_hub(&mut self, hub: HubId, plmn: Plmn) {
        assert!((hub.0 as usize) < self.peers.len(), "unknown hub {hub:?}");
        self.memberships.entry(plmn.packed()).or_default().push(hub);
    }

    /// Peers two hubs (symmetric; a hub never peers with itself).
    pub fn peer_hubs(&mut self, a: HubId, b: HubId) {
        if a == b || self.peers[a.0 as usize].contains(&b) {
            return;
        }
        self.peers[a.0 as usize].push(b);
        self.peers[b.0 as usize].push(a);
    }

    /// Hubs `plmn` belongs to.
    pub fn hubs_of(&self, plmn: Plmn) -> &[HubId] {
        self.memberships
            .get(&plmn.packed())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether `home` reaches `visited`: the same network, a bilateral
    /// agreement, a shared hub, or two hubs across one peering.
    pub fn connected(&self, home: Plmn, visited: Plmn) -> bool {
        if home == visited || self.has_bilateral(home, visited) {
            return true;
        }
        let visited_hubs = self.hubs_of(visited);
        self.hubs_of(home).iter().any(|h| {
            visited_hubs
                .iter()
                .any(|v| h == v || self.peers[h.0 as usize].contains(v))
        })
    }
}

fn same_country(a: Plmn, b: Plmn) -> bool {
    match (Country::by_mcc(a.mcc), Country::by_mcc(b.mcc)) {
        (Some(ca), Some(cb)) => std::ptr::eq(ca, cb),
        _ => a.mcc == b.mcc,
    }
}

impl AccessPolicy for AgreementGraph {
    fn admits(&self, home: Plmn, visited: Plmn) -> bool {
        same_country(home, visited) || self.connected(home, visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ES: Plmn = Plmn::of(214, 7);
    const UK: Plmn = Plmn::of(234, 30);
    const UK2: Plmn = Plmn::of(234, 10);
    const DE: Plmn = Plmn::of(262, 2);
    const AU: Plmn = Plmn::of(505, 1);

    #[test]
    fn bilateral_is_symmetric() {
        let mut g = AgreementGraph::new();
        g.add_bilateral(ES, UK);
        assert!(g.has_bilateral(ES, UK));
        assert!(g.has_bilateral(UK, ES));
        assert!(g.connected(UK, ES));
        assert!(!g.has_bilateral(ES, DE));
    }

    #[test]
    fn same_hub_connects() {
        let mut g = AgreementGraph::new();
        let hub = g.add_hub();
        g.join_hub(hub, ES);
        g.join_hub(hub, DE);
        assert!(g.connected(ES, DE));
        assert!(!g.connected(ES, AU));
    }

    #[test]
    fn peered_hubs_connect_one_level() {
        let mut g = AgreementGraph::new();
        let h1 = g.add_hub();
        let h2 = g.add_hub();
        let h3 = g.add_hub();
        g.join_hub(h1, ES);
        g.join_hub(h2, AU);
        g.join_hub(h3, DE);
        g.peer_hubs(h1, h2);
        assert!(g.connected(ES, AU));
        assert!(g.connected(AU, ES));
        // h3 peers with nobody: DE unreachable from either.
        assert!(!g.connected(ES, DE));
        assert!(!g.connected(AU, DE));
        // Peering is not transitive.
        g.peer_hubs(h2, h3);
        assert!(g.connected(AU, DE));
        assert!(!g.connected(ES, DE));
    }

    #[test]
    fn self_path_always_exists() {
        let g = AgreementGraph::new();
        assert!(g.connected(ES, ES));
    }

    #[test]
    fn hub_membership_listing() {
        let mut g = AgreementGraph::new();
        let h1 = g.add_hub();
        let h2 = g.add_hub();
        g.join_hub(h1, ES);
        g.join_hub(h2, ES);
        assert_eq!(g.hubs_of(ES), &[h1, h2]);
        assert!(g.hubs_of(AU).is_empty());
    }

    #[test]
    fn admits_home_country_and_connected_networks_only() {
        let mut g = AgreementGraph::new();
        g.add_bilateral(ES, UK);
        assert!(g.admits(ES, ES));
        assert!(g.admits(ES, UK));
        // National roaming needs no agreement.
        assert!(g.admits(UK, UK2));
        assert!(!g.admits(ES, UK2));
        assert!(!g.admits(ES, DE));
    }
}
