//! Position-over-time models.
//!
//! Mobility is a *pure function of time* (plus a per-device seed): querying
//! a device's position never mutates state, so probes, agents and tests all
//! see one consistent trajectory. Three shapes cover every vertical in the
//! paper:
//!
//! * [`MobilityModel::Stationary`] — smart meters, payment terminals:
//!   Fig. 8 shows M2M inbound roamers are "in majority stationary, with
//!   only 20% devices presenting a gyration larger than 1 km".
//! * [`MobilityModel::LocalArea`] — people (smartphones, feature phones,
//!   wearables): daily movement around a home point.
//! * [`MobilityModel::Waypoint`] — connected cars and asset trackers:
//!   continuous movement across the whole deployment geometry ("high
//!   mobility patterns", Fig. 12).

use serde::{Deserialize, Serialize};
use wtr_model::hash::mix64;
use wtr_model::time::SimTime;
use wtr_radio::geo::{CountryGeometry, GeoPoint};

/// How a device moves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MobilityModel {
    /// Never moves. Cell re-selection noise is modeled downstream (a
    /// stationary device can still bounce between overlapping sectors;
    /// the paper attributes small non-zero gyrations to exactly this).
    Stationary {
        /// Fixed installation position.
        position: GeoPoint,
    },
    /// Moves around a centre within a radius, changing spots every hour —
    /// a person's daily routine compressed to its observable effect
    /// (which sectors get used).
    LocalArea {
        /// Home location.
        center: GeoPoint,
        /// Roaming radius in degrees (~1° ≈ 111 km nominal).
        radius_deg: f64,
        /// Per-device seed decorrelating co-located people.
        seed: u64,
    },
    /// Piecewise-linear travel between waypoints drawn over a whole
    /// geometry; a new leg every `leg_hours`.
    Waypoint {
        /// Area the device drives across.
        geometry: CountryGeometry,
        /// Hours per leg (shorter = faster apparent speed).
        leg_hours: u32,
        /// Per-device seed.
        seed: u64,
    },
}

impl MobilityModel {
    /// Builds a stationary model at a hash-chosen point of `geometry`.
    pub fn stationary_in(geometry: &CountryGeometry, seed: u64) -> Self {
        MobilityModel::Stationary {
            position: geometry.point_from_hash(seed),
        }
    }

    /// Builds a local-area model homed at a hash-chosen point.
    pub fn local_area_in(geometry: &CountryGeometry, radius_deg: f64, seed: u64) -> Self {
        MobilityModel::LocalArea {
            center: geometry.point_from_hash(seed),
            radius_deg,
            seed,
        }
    }

    /// The device's position at time `t`.
    pub fn position(&self, t: SimTime) -> GeoPoint {
        match self {
            MobilityModel::Stationary { position } => *position,
            MobilityModel::LocalArea {
                center,
                radius_deg,
                seed,
            } => {
                let hour = t.as_secs() / 3_600;
                // Night hours (23:00–06:00): at home.
                let hod = t.hour_of_day();
                if !(7..23).contains(&hod) {
                    return *center;
                }
                let h = mix64(seed ^ mix64(hour));
                let fy = ((h & 0xffff_ffff) as f64 / u32::MAX as f64) * 2.0 - 1.0;
                let fx = ((h >> 32) as f64 / u32::MAX as f64) * 2.0 - 1.0;
                center.offset(fy * radius_deg, fx * radius_deg)
            }
            MobilityModel::Waypoint {
                geometry,
                leg_hours,
                seed,
            } => {
                let leg_secs = (*leg_hours as u64).max(1) * 3_600;
                let leg = t.as_secs() / leg_secs;
                let frac = (t.as_secs() % leg_secs) as f64 / leg_secs as f64;
                let from = geometry.point_from_hash(seed.wrapping_add(leg));
                let to = geometry.point_from_hash(seed.wrapping_add(leg + 1));
                GeoPoint::new(
                    from.lat + (to.lat - from.lat) * frac,
                    from.lon + (to.lon - from.lon) * frac,
                )
            }
        }
    }

    /// A small deterministic sampling of positions across `[start, end)`,
    /// used by tests and by coarse mobility summaries.
    pub fn sample_positions(&self, start: SimTime, end: SimTime, step_secs: u64) -> Vec<GeoPoint> {
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            out.push(self.position(t));
            t = SimTime::from_secs(t.as_secs() + step_secs);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::country::Country;
    use wtr_radio::geo::radius_of_gyration_km;

    fn geom(iso: &str) -> CountryGeometry {
        CountryGeometry::of(Country::by_iso(iso).unwrap())
    }

    #[test]
    fn stationary_never_moves() {
        let g = geom("GB");
        let m = MobilityModel::stationary_in(&g, 5);
        let p0 = m.position(SimTime::ZERO);
        for t in (0..86_400 * 7).step_by(3_600) {
            assert_eq!(m.position(SimTime::from_secs(t)), p0);
        }
    }

    #[test]
    fn local_area_stays_within_radius() {
        let g = geom("GB");
        let m = MobilityModel::local_area_in(&g, 0.05, 42);
        let center = match &m {
            MobilityModel::LocalArea { center, .. } => *center,
            _ => unreachable!(),
        };
        for t in (0..86_400 * 3).step_by(1_800) {
            let p = m.position(SimTime::from_secs(t));
            assert!(
                (p.lat - center.lat).abs() <= 0.051 && (p.lon - center.lon).abs() <= 0.051,
                "escaped radius at t={t}"
            );
        }
    }

    #[test]
    fn local_area_home_at_night() {
        let g = geom("GB");
        let m = MobilityModel::local_area_in(&g, 0.05, 42);
        let center = match &m {
            MobilityModel::LocalArea { center, .. } => *center,
            _ => unreachable!(),
        };
        // 03:00 any day: at home.
        let p = m.position(SimTime::from_day_and_secs(2, 3 * 3_600));
        assert_eq!(p, center);
    }

    #[test]
    fn waypoint_covers_ground() {
        let g = geom("ES");
        let m = MobilityModel::Waypoint {
            geometry: g,
            leg_hours: 2,
            seed: 77,
        };
        let pts = m.sample_positions(SimTime::ZERO, SimTime::from_secs(86_400), 900);
        let weighted: Vec<_> = pts.iter().map(|p| (*p, 1.0)).collect();
        let gyr = radius_of_gyration_km(&weighted).unwrap();
        assert!(gyr > 50.0, "car gyration only {gyr} km");
    }

    #[test]
    fn gyration_ordering_matches_fig8() {
        // stationary << local-area << waypoint, the Fig. 8 ordering
        // (meters < smartphones < cars).
        let g = geom("GB");
        let day = SimTime::from_secs(86_400);
        let gyr = |m: &MobilityModel| {
            let pts: Vec<_> = m
                .sample_positions(SimTime::ZERO, day, 900)
                .into_iter()
                .map(|p| (p, 1.0))
                .collect();
            radius_of_gyration_km(&pts).unwrap()
        };
        let meter = gyr(&MobilityModel::stationary_in(&g, 1));
        let person = gyr(&MobilityModel::local_area_in(&g, 0.05, 2));
        let car = gyr(&MobilityModel::Waypoint {
            geometry: g,
            leg_hours: 2,
            seed: 3,
        });
        assert!(meter < 0.001);
        assert!(
            person > meter && person < car,
            "meter={meter} person={person} car={car}"
        );
    }

    #[test]
    fn positions_are_deterministic() {
        let g = geom("DE");
        let m = MobilityModel::Waypoint {
            geometry: g,
            leg_hours: 3,
            seed: 9,
        };
        let t = SimTime::from_secs(12_345);
        assert_eq!(m.position(t), m.position(t));
    }

    #[test]
    fn waypoint_is_continuous() {
        // Adjacent samples must be close (no teleporting), including
        // across a leg boundary.
        let g = geom("ES");
        let m = MobilityModel::Waypoint {
            geometry: g,
            leg_hours: 2,
            seed: 123,
        };
        let mut prev = m.position(SimTime::ZERO);
        for t in (60..86_400).step_by(60) {
            let p = m.position(SimTime::from_secs(t));
            let d = prev.distance_km(p);
            assert!(d < 25.0, "jump of {d} km at t={t}");
            prev = p;
        }
    }
}
