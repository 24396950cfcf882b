//! Device network usage by RAT (§6.1; Fig. 9).
//!
//! For each device class, the share of devices per RAT-combination
//! category, over three planes: any connectivity (Fig. 9-left), data
//! (center) and voice (right). Headlines reproduced: 77.4% of M2M devices
//! are 2G-only, 56.7% use only 2G data, 24.5% use no data at all, 27.5% no
//! voice; 56.8% of feature phones use no data but only 7.3% lack voice.

use crate::classify::{Classification, DeviceClass};
use crate::summary::DeviceSummary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wtr_model::rat::RatSet;

/// Which service plane a Fig. 9 panel looks at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Plane {
    /// Any successful radio activity (Fig. 9-left).
    Any,
    /// Data-plane activity (Fig. 9-center).
    Data,
    /// Voice-plane activity (Fig. 9-right).
    Voice,
}

impl Plane {
    /// Extracts the plane's RAT set from merged radio-flags.
    pub fn of(self, s: &DeviceSummary) -> RatSet {
        match self {
            Plane::Any => s.radio_flags.any,
            Plane::Data => s.radio_flags.data,
            Plane::Voice => s.radio_flags.voice,
        }
    }

    /// Report label.
    pub const fn label(self) -> &'static str {
        match self {
            Plane::Any => "connectivity",
            Plane::Data => "data",
            Plane::Voice => "voice",
        }
    }
}

/// Category shares for one (class, plane): RAT-combination label →
/// fraction of the class's devices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RatUsage {
    /// The class.
    pub class: DeviceClass,
    /// The plane.
    pub plane: Plane,
    /// Devices in the class.
    pub devices: usize,
    /// Category label (e.g. "2G only", "none") → share.
    pub shares: BTreeMap<String, f64>,
}

impl RatUsage {
    /// Share of one category (0 when absent).
    pub fn share(&self, category: &str) -> f64 {
        self.shares.get(category).copied().unwrap_or(0.0)
    }
}

/// Computes the Fig. 9 category shares for every requested class, on one
/// plane, in one pass over the summaries.
pub fn rat_usage(
    summaries: &[DeviceSummary],
    classification: &Classification,
    classes: &[DeviceClass],
    plane: Plane,
) -> Vec<RatUsage> {
    // `shares` holds device counts until the normalization below.
    let mut usage: Vec<RatUsage> = classes
        .iter()
        .map(|&class| RatUsage {
            class,
            plane,
            devices: 0,
            shares: BTreeMap::new(),
        })
        .collect();
    for s in summaries {
        let Some(class) = classification.class_of(s.user) else {
            continue;
        };
        for u in usage.iter_mut().filter(|u| u.class == class) {
            u.devices += 1;
            *u.shares
                .entry(plane.of(s).category_label().to_owned())
                .or_insert(0.0) += 1.0;
        }
    }
    for u in &mut usage {
        let total = u.devices.max(1) as f64;
        for share in u.shares.values_mut() {
            *share /= total;
        }
    }
    usage
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wtr_model::ids::{Plmn, Tac};
    use wtr_model::rat::{RadioFlags, Rat};
    use wtr_model::roaming::RoamingLabel;
    use wtr_probes::catalog::MobilityAccum;

    fn summary(user: u64, any: RatSet, data: RatSet, voice: RatSet) -> DeviceSummary {
        DeviceSummary {
            user,
            sim_plmn: Plmn::of(204, 4),
            tac: Tac::new(35_000_000).unwrap(),
            active_days: 1,
            first_day: 0,
            dominant_label: RoamingLabel::IH,
            apns: BTreeSet::new(),
            radio_flags: RadioFlags { any, data, voice },
            events: 1,
            failed_events: 0,
            calls: 0,
            sms: 0,
            data_sessions: 0,
            bytes: 0,
            in_designated_range: false,
            in_published_m2m_range: false,
            hourly: [0; 24],
            mobility: MobilityAccum::default(),
        }
    }

    fn classify_all(sums: &[DeviceSummary], class: DeviceClass) -> Classification {
        let mut c = Classification::default();
        for s in sums {
            c.classes.insert(s.user, class);
        }
        c
    }

    #[test]
    fn category_shares_normalize() {
        let sums = vec![
            summary(1, RatSet::G2_ONLY, RatSet::G2_ONLY, RatSet::EMPTY),
            summary(2, RatSet::G2_ONLY, RatSet::EMPTY, RatSet::G2_ONLY),
            summary(
                3,
                RatSet::CONVENTIONAL,
                RatSet::only(Rat::G4),
                RatSet::EMPTY,
            ),
            summary(4, RatSet::G2_G3, RatSet::G2_G3, RatSet::only(Rat::G2)),
        ];
        let cls = classify_all(&sums, DeviceClass::M2m);
        let usage = rat_usage(&sums, &cls, &[DeviceClass::M2m], Plane::Any);
        assert_eq!(usage.len(), 1);
        let u = &usage[0];
        assert_eq!(u.devices, 4);
        let total: f64 = u.shares.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((u.share("2G only") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn data_plane_counts_no_data_devices() {
        let sums = vec![
            summary(1, RatSet::G2_ONLY, RatSet::EMPTY, RatSet::G2_ONLY),
            summary(2, RatSet::G2_ONLY, RatSet::G2_ONLY, RatSet::EMPTY),
        ];
        let cls = classify_all(&sums, DeviceClass::M2m);
        let usage = rat_usage(&sums, &cls, &[DeviceClass::M2m], Plane::Data);
        // One of two devices has no data activity → "none" = 0.5,
        // the Fig. 9-center "24.5% of M2M not active on data" bucket.
        assert!((usage[0].share("none") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn classes_are_independent() {
        let sums = vec![
            summary(1, RatSet::G2_ONLY, RatSet::EMPTY, RatSet::EMPTY),
            summary(
                2,
                RatSet::CONVENTIONAL,
                RatSet::CONVENTIONAL,
                RatSet::CONVENTIONAL,
            ),
        ];
        let mut cls = Classification::default();
        cls.classes.insert(1, DeviceClass::Feat);
        cls.classes.insert(2, DeviceClass::Smart);
        let usage = rat_usage(
            &sums,
            &cls,
            &[DeviceClass::Feat, DeviceClass::Smart],
            Plane::Any,
        );
        assert_eq!(usage[0].devices, 1);
        assert_eq!(usage[1].devices, 1);
        assert!((usage[0].share("2G only") - 1.0).abs() < 1e-12);
        assert!((usage[1].share("2G+3G+4G") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_class_yields_zero_devices() {
        let sums = vec![summary(1, RatSet::G2_ONLY, RatSet::EMPTY, RatSet::EMPTY)];
        let cls = classify_all(&sums, DeviceClass::M2m);
        let usage = rat_usage(&sums, &cls, &[DeviceClass::Smart], Plane::Any);
        assert_eq!(usage[0].devices, 0);
        assert!(usage[0].shares.is_empty());
    }
}
