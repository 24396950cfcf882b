//! The platform-backed [`AccessPolicy`]: admission from the agreement
//! graph, steering from per-home preference ranks, plus explicit barring.
//!
//! This is where the business layer meets the radio layer: the simulator's
//! device agents call [`PlatformPolicy::decide`] on every attach attempt,
//! turning commercial relationships (§2) into the `RoamingNotAllowed` /
//! `UnknownSubscription` results the M2M dataset records (§3.1).
//!
//! [`AccessPolicy`]: wtr_sim::world::AccessPolicy

use crate::agreements::AgreementGraph;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use wtr_model::country::Country;
use wtr_model::ids::Plmn;
use wtr_sim::world::{AccessDecision, AccessPolicy};

/// Access policy driven by an [`AgreementGraph`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PlatformPolicy {
    agreements: AgreementGraph,
    /// (home, visited) pairs explicitly barred despite connectivity
    /// (regulatory barring, commercial disputes).
    barred: HashSet<(u32, u32)>,
    /// (home, visited) pairs whose subscriptions the visited HSS flow
    /// cannot resolve — yields `UnknownSubscription` (misconfigured IR.21
    /// data in the wild).
    unknown: HashSet<(u32, u32)>,
    /// Steering ranks: per home PLMN, a map visited-PLMN → rank
    /// (lower = preferred). Unranked candidates keep their input order
    /// after all ranked ones.
    steering: HashMap<u32, HashMap<u32, u32>>,
    /// Whether SIMs may attach to *any* network of their own country
    /// without an agreement (national roaming is normally disabled; the
    /// home network itself is always allowed).
    pub allow_national_roaming: bool,
}

impl PlatformPolicy {
    /// Creates a policy over an agreement graph.
    pub fn new(agreements: AgreementGraph) -> Self {
        PlatformPolicy {
            agreements,
            ..Default::default()
        }
    }

    /// Read access to the agreement graph.
    pub fn agreements(&self) -> &AgreementGraph {
        &self.agreements
    }

    /// Bars a (home, visited) pair.
    pub fn bar(&mut self, home: Plmn, visited: Plmn) {
        self.barred.insert((home.packed(), visited.packed()));
    }

    /// Marks a (home, visited) pair as unresolvable (UnknownSubscription).
    pub fn mark_unknown(&mut self, home: Plmn, visited: Plmn) {
        self.unknown.insert((home.packed(), visited.packed()));
    }

    /// Sets the steering rank of `visited` for SIMs of `home`.
    pub fn set_rank(&mut self, home: Plmn, visited: Plmn, rank: u32) {
        self.steering
            .entry(home.packed())
            .or_default()
            .insert(visited.packed(), rank);
    }

    fn same_country(a: Plmn, b: Plmn) -> bool {
        match (Country::by_mcc(a.mcc), Country::by_mcc(b.mcc)) {
            (Some(ca), Some(cb)) => std::ptr::eq(ca, cb),
            _ => a.mcc == b.mcc,
        }
    }
}

impl AccessPolicy for PlatformPolicy {
    fn decide(&self, home: Plmn, visited: Plmn) -> AccessDecision {
        if home == visited {
            return AccessDecision::Allowed;
        }
        let key = (home.packed(), visited.packed());
        if self.unknown.contains(&key) {
            return AccessDecision::UnknownSubscription;
        }
        if self.barred.contains(&key) {
            return AccessDecision::RoamingNotAllowed;
        }
        if Self::same_country(home, visited) {
            return if self.allow_national_roaming || self.agreements.connected(home, visited) {
                AccessDecision::Allowed
            } else {
                AccessDecision::RoamingNotAllowed
            };
        }
        if self.agreements.connected(home, visited) {
            AccessDecision::Allowed
        } else {
            AccessDecision::RoamingNotAllowed
        }
    }

    fn preference_order(&self, home: Plmn, candidates: &mut Vec<Plmn>) {
        let Some(ranks) = self.steering.get(&home.packed()) else {
            return;
        };
        // Stable sort: ranked candidates first (ascending rank), unranked
        // keep their relative order.
        candidates.sort_by_key(|p| ranks.get(&p.packed()).copied().unwrap_or(u32::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ES: Plmn = Plmn::of(214, 7);
    const UK1: Plmn = Plmn::of(234, 30);
    const UK2: Plmn = Plmn::of(234, 10);
    const UK3: Plmn = Plmn::of(234, 20);

    fn policy() -> PlatformPolicy {
        let mut g = AgreementGraph::new();
        g.add_bilateral(ES, UK1);
        g.add_bilateral(ES, UK2);
        PlatformPolicy::new(g)
    }

    #[test]
    fn home_network_always_allowed() {
        let p = policy();
        assert_eq!(p.decide(ES, ES), AccessDecision::Allowed);
    }

    #[test]
    fn agreement_grants_access_and_absence_denies() {
        let p = policy();
        assert_eq!(p.decide(ES, UK1), AccessDecision::Allowed);
        assert_eq!(p.decide(ES, UK3), AccessDecision::RoamingNotAllowed);
    }

    #[test]
    fn barring_overrides_agreement() {
        let mut p = policy();
        p.bar(ES, UK1);
        assert_eq!(p.decide(ES, UK1), AccessDecision::RoamingNotAllowed);
        // Only the barred direction/pair is affected.
        assert_eq!(p.decide(ES, UK2), AccessDecision::Allowed);
    }

    #[test]
    fn unknown_subscription_takes_precedence() {
        let mut p = policy();
        p.mark_unknown(ES, UK1);
        p.bar(ES, UK1);
        assert_eq!(p.decide(ES, UK1), AccessDecision::UnknownSubscription);
    }

    #[test]
    fn national_roaming_disabled_by_default() {
        let mut p = policy();
        assert_eq!(p.decide(UK1, UK2), AccessDecision::RoamingNotAllowed);
        p.allow_national_roaming = true;
        assert_eq!(p.decide(UK1, UK2), AccessDecision::Allowed);
    }

    #[test]
    fn steering_orders_candidates() {
        let mut p = policy();
        p.set_rank(ES, UK2, 0);
        p.set_rank(ES, UK1, 1);
        let mut cands = vec![UK1, UK3, UK2];
        p.preference_order(ES, &mut cands);
        assert_eq!(
            cands,
            vec![UK2, UK1, UK3],
            "ranked first, unranked keep order"
        );
    }

    #[test]
    fn no_steering_keeps_input_order() {
        let p = policy();
        let mut cands = vec![UK3, UK1, UK2];
        p.preference_order(ES, &mut cands);
        assert_eq!(cands, vec![UK3, UK1, UK2]);
    }
}
