//! The M2M platform: global IoT SIM provisioning and the roaming
//! architecture latency model.
//!
//! The platform "is built on top of an underlying international carrier and
//! offers the service of global IoT SIM … a SIM from a single (home) MNO
//! that operates inside IoT devices world-wide through roaming" (§3). This
//! module owns:
//!
//! * the set of **HMNOs** issuing IoT SIMs (the paper observes four: ES,
//!   DE, MX, AR);
//! * **IMSI allocation** from a dedicated M2M range per HMNO — the GSMA
//!   transparency mechanism (§1) that also enables SMIP identification in
//!   §4.4;
//! * the three **roaming architectures** of Fig. 1 — home-routed being
//!   "the default roaming configuration currently used in majority of
//!   MNOs in Europe" — with a latency model exposing the HR penalty for
//!   far destinations (§3.2's Spain→Australia example).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wtr_model::error::ParseError;
use wtr_model::ids::{Imsi, ImsiRange, Plmn};
use wtr_radio::geo::GeoPoint;

/// Network configuration used for a roaming device's user plane (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoamingArchitecture {
    /// Traffic hairpins through the home network's PGW.
    HomeRouted,
    /// Traffic exits through the visited network's PGW.
    LocalBreakout,
    /// Traffic exits at the IPX hub.
    IpxBreakout,
}

impl RoamingArchitecture {
    /// One-way user-plane detour in kilometres for a device whose home
    /// PGW is at `home`, visited network at `visited`, and serving hub at
    /// `hub` (for IHBO).
    pub fn detour_km(self, home: GeoPoint, visited: GeoPoint, hub: GeoPoint) -> f64 {
        match self {
            RoamingArchitecture::HomeRouted => visited.distance_km(home),
            RoamingArchitecture::LocalBreakout => 0.0,
            RoamingArchitecture::IpxBreakout => visited.distance_km(hub),
        }
    }

    /// Rough extra round-trip latency in milliseconds for the detour
    /// (fiber propagation ≈ 200 km/ms, times 2 for the round trip).
    pub fn latency_penalty_ms(self, home: GeoPoint, visited: GeoPoint, hub: GeoPoint) -> f64 {
        2.0 * self.detour_km(home, visited, hub) / 200.0
    }
}

/// A SIM the platform issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimProvisioning {
    /// Issuing home operator.
    pub hmno: Plmn,
    /// Allocated IMSI (from the HMNO's dedicated M2M range).
    pub imsi: Imsi,
}

/// Start of the dedicated M2M MSIN block inside each HMNO's numbering
/// space. Using a fixed, documented block is the GSMA IR recommendation
/// the paper cites; the classifier's IMSI-range heuristics rely on it.
pub const M2M_MSIN_BASE: u64 = 5_000_000_000;
/// Capacity of the dedicated block per HMNO.
pub const M2M_MSIN_CAPACITY: u64 = 1_000_000_000;

/// The M2M platform.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct M2mPlatform {
    hmnos: Vec<Plmn>,
    cursors: HashMap<u32, u64>,
}

impl M2mPlatform {
    /// Creates a platform with the given issuing HMNOs.
    pub fn new(hmnos: Vec<Plmn>) -> Self {
        M2mPlatform {
            hmnos,
            cursors: HashMap::new(),
        }
    }

    /// The issuing HMNOs.
    pub fn hmnos(&self) -> &[Plmn] {
        &self.hmnos
    }

    /// The dedicated M2M IMSI range of an HMNO.
    pub fn m2m_range(hmno: Plmn) -> ImsiRange {
        ImsiRange::new(hmno, M2M_MSIN_BASE, M2M_MSIN_BASE + M2M_MSIN_CAPACITY)
            .expect("constant range is valid")
    }

    /// Provisions the next IoT SIM from `hmno`'s dedicated range.
    pub fn provision(&mut self, hmno: Plmn) -> Result<SimProvisioning, ParseError> {
        if !self.hmnos.contains(&hmno) {
            return Err(ParseError::UnknownPlmn {
                mcc: hmno.mcc.value(),
                mnc: hmno.mnc.value(),
            });
        }
        let cursor = self.cursors.entry(hmno.packed()).or_insert(0);
        let msin = M2M_MSIN_BASE + *cursor;
        *cursor += 1;
        debug_assert!(*cursor <= M2M_MSIN_CAPACITY, "M2M range exhausted");
        Ok(SimProvisioning {
            hmno,
            imsi: Imsi::new(hmno, msin)?,
        })
    }
}

/// Latency-penalty comparison of the three Fig. 1 architectures for one
/// (home, visited) country pair — the §3.2 observation that "the M2M
/// platform uses different roaming configurations in order to optimize
/// the performance of IoT devices roaming in very far destinations".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchitectureComparison {
    /// Extra RTT of home-routed roaming, ms.
    pub home_routed_ms: f64,
    /// Extra RTT of local breakout, ms (always 0).
    pub local_breakout_ms: f64,
    /// Extra RTT of IPX-hub breakout, ms.
    pub ipx_breakout_ms: f64,
}

impl ArchitectureComparison {
    /// Compares the three architectures for a device visiting `visited`
    /// with its home PGW at `home` and the serving IPX hub at `hub`.
    pub fn evaluate(home: GeoPoint, visited: GeoPoint, hub: GeoPoint) -> Self {
        ArchitectureComparison {
            home_routed_ms: RoamingArchitecture::HomeRouted.latency_penalty_ms(home, visited, hub),
            local_breakout_ms: RoamingArchitecture::LocalBreakout
                .latency_penalty_ms(home, visited, hub),
            ipx_breakout_ms: RoamingArchitecture::IpxBreakout
                .latency_penalty_ms(home, visited, hub),
        }
    }

    /// The architecture with the lowest user-plane penalty. Local breakout
    /// always wins on latency; real deployments trade it against the
    /// centralized management HR provides (§1), so the decision threshold
    /// is exposed instead of hard-coded.
    pub fn best_if_hr_costs_more_than(&self, threshold_ms: f64) -> RoamingArchitecture {
        if self.home_routed_ms <= threshold_ms {
            RoamingArchitecture::HomeRouted
        } else if self.ipx_breakout_ms <= threshold_ms {
            RoamingArchitecture::IpxBreakout
        } else {
            RoamingArchitecture::LocalBreakout
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::operators::well_known;

    fn platform() -> M2mPlatform {
        M2mPlatform::new(vec![
            well_known::ES_HMNO,
            well_known::DE_HMNO,
            well_known::MX_HMNO,
            well_known::AR_HMNO,
        ])
    }

    #[test]
    fn provisioning_allocates_sequential_dedicated_imsis() {
        let mut p = platform();
        let a = p.provision(well_known::ES_HMNO).unwrap();
        let b = p.provision(well_known::ES_HMNO).unwrap();
        assert_eq!(a.imsi.msin(), M2M_MSIN_BASE);
        assert_eq!(b.imsi.msin(), M2M_MSIN_BASE + 1);
        assert!(M2mPlatform::m2m_range(well_known::ES_HMNO).contains(a.imsi));
    }

    #[test]
    fn provisioning_rejects_non_member_hmno() {
        let mut p = platform();
        assert!(p.provision(Plmn::of(234, 30)).is_err());
    }

    #[test]
    fn ordinary_imsi_outside_the_m2m_range() {
        let consumer = Imsi::new(well_known::ES_HMNO, 123).unwrap();
        assert!(!M2mPlatform::m2m_range(well_known::ES_HMNO).contains(consumer));
    }

    #[test]
    fn per_hmno_cursors_independent() {
        let mut p = platform();
        p.provision(well_known::ES_HMNO).unwrap();
        p.provision(well_known::MX_HMNO).unwrap();
        let es2 = p.provision(well_known::ES_HMNO).unwrap();
        let mx2 = p.provision(well_known::MX_HMNO).unwrap();
        assert_eq!(es2.imsi.msin(), M2M_MSIN_BASE + 1);
        assert_eq!(mx2.imsi.msin(), M2M_MSIN_BASE + 1);
    }

    #[test]
    fn architecture_comparison_picks_by_threshold() {
        let madrid = GeoPoint::new(40.4, -3.7);
        let sydney = GeoPoint::new(-33.9, 151.2);
        let london = GeoPoint::new(51.5, -0.1);
        let hub = GeoPoint::new(50.1, 8.7);
        let far = ArchitectureComparison::evaluate(madrid, sydney, hub);
        let near = ArchitectureComparison::evaluate(madrid, london, hub);
        // Near destinations stay home-routed (the European default, §2.1);
        // far ones escalate to hub or local breakout.
        assert_eq!(
            near.best_if_hr_costs_more_than(50.0),
            RoamingArchitecture::HomeRouted
        );
        assert_ne!(
            far.best_if_hr_costs_more_than(50.0),
            RoamingArchitecture::HomeRouted
        );
        assert_eq!(far.local_breakout_ms, 0.0);
        assert!(far.home_routed_ms > near.home_routed_ms);
    }

    #[test]
    fn hr_penalty_grows_with_distance_and_lbo_is_free() {
        // §3.2: Spain → Australia HR roaming carries a serious penalty;
        // the platform "uses different roaming configurations in order to
        // optimize the performance of IoT devices roaming in very far
        // destinations".
        let madrid = GeoPoint::new(40.4, -3.7);
        let sydney = GeoPoint::new(-33.9, 151.2);
        let london = GeoPoint::new(51.5, -0.1);
        let hub = GeoPoint::new(50.1, 8.7); // Frankfurt-ish
        let hr_far = RoamingArchitecture::HomeRouted.latency_penalty_ms(madrid, sydney, hub);
        let hr_near = RoamingArchitecture::HomeRouted.latency_penalty_ms(madrid, london, hub);
        let lbo = RoamingArchitecture::LocalBreakout.latency_penalty_ms(madrid, sydney, hub);
        let ihbo = RoamingArchitecture::IpxBreakout.latency_penalty_ms(madrid, sydney, hub);
        assert!(hr_far > 100.0, "ES→AU HR penalty only {hr_far} ms");
        assert!(hr_near < hr_far / 5.0);
        assert_eq!(lbo, 0.0);
        assert!(ihbo > 0.0 && ihbo < hr_far);
    }
}
