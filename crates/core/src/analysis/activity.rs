//! Spatio-temporal dynamics (§5.3; Fig. 7, Fig. 8).
//!
//! Fig. 7 plots the number of active days per device, split by class and
//! by native/inbound roaming status; the paper's headline is that inbound
//! roaming M2M devices stay 4.5× longer than inbound roaming smartphones
//! (median 9 vs 2 days). Fig. 8 plots the radius of gyration per device;
//! M2M inbound roamers are stationary (~80% under 1 km).

use crate::classify::{Classification, DeviceClass};
use crate::metrics::Ecdf;
use crate::summary::DeviceSummary;
use serde::{Deserialize, Serialize};

/// Roaming-status grouping used by Fig. 7 / Fig. 10: native-attached
/// (H:H / V:H) vs international inbound (I:H).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StatusGroup {
    /// H:H or V:H devices.
    Native,
    /// I:H devices.
    InboundRoaming,
}

impl StatusGroup {
    /// Group of a summary by its dominant label; `None` for labels outside
    /// the comparison (outbound roamers, national inbound).
    pub fn of(summary: &DeviceSummary) -> Option<StatusGroup> {
        let l = summary.dominant_label;
        if l.is_international_inbound() {
            Some(StatusGroup::InboundRoaming)
        } else if l.is_native_attached() {
            Some(StatusGroup::Native)
        } else {
            None
        }
    }

    /// Report label.
    pub const fn label(self) -> &'static str {
        match self {
            StatusGroup::Native => "native",
            StatusGroup::InboundRoaming => "inbound-roaming",
        }
    }
}

/// Active-days distributions for one (class, status) population (E11).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActiveDays {
    /// The class.
    pub class: DeviceClass,
    /// The roaming-status group.
    pub status: StatusGroup,
    /// ECDF of active-day counts.
    pub days: Ecdf,
}

/// One ECDF per requested (class, status) pair, in request order, over
/// what `sample` draws from each member summary (`None` skips it).
/// Samples are collected in input order, then sorted by [`Ecdf::new`].
/// Fig. 7, Fig. 8 and Fig. 10 all run this loop.
pub(crate) fn pair_ecdfs(
    summaries: &[DeviceSummary],
    classification: &Classification,
    pairs: &[(DeviceClass, StatusGroup)],
    sample: impl Fn(&DeviceSummary) -> Option<f64>,
) -> Vec<(DeviceClass, StatusGroup, Ecdf)> {
    let mut samples = vec![Vec::new(); pairs.len()];
    for s in summaries {
        let key = (classification.class_of(s.user), StatusGroup::of(s));
        for (out, &(class, status)) in samples.iter_mut().zip(pairs) {
            if key == (Some(class), Some(status)) {
                if let Some(x) = sample(s) {
                    out.push(x);
                }
            }
        }
    }
    pairs
        .iter()
        .zip(samples)
        .map(|(&(class, status), samples)| (class, status, Ecdf::new(samples)))
        .collect()
}

/// Computes Fig. 7's active-days ECDFs for the requested (class, status)
/// pairs.
pub fn active_days(
    summaries: &[DeviceSummary],
    classification: &Classification,
    pairs: &[(DeviceClass, StatusGroup)],
) -> Vec<ActiveDays> {
    pair_ecdfs(summaries, classification, pairs, |s| {
        Some(s.active_days as f64)
    })
    .into_iter()
    .map(|(class, status, days)| ActiveDays {
        class,
        status,
        days,
    })
    .collect()
}

/// Gyration distribution for one (class, status) population (E12).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gyration {
    /// The class.
    pub class: DeviceClass,
    /// The roaming-status group.
    pub status: StatusGroup,
    /// ECDF of per-device gyration radii in km (devices with radio
    /// visibility only — outbound roamers have no sector data).
    pub gyration_km: Ecdf,
}

/// Computes Fig. 8's radius-of-gyration ECDFs.
pub fn gyration(
    summaries: &[DeviceSummary],
    classification: &Classification,
    pairs: &[(DeviceClass, StatusGroup)],
) -> Vec<Gyration> {
    pair_ecdfs(summaries, classification, pairs, DeviceSummary::gyration_km)
        .into_iter()
        .map(|(class, status, gyration_km)| Gyration {
            class,
            status,
            gyration_km,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use wtr_model::ids::{Plmn, Tac};
    use wtr_model::roaming::RoamingLabel;
    use wtr_model::time::Day;
    use wtr_probes::catalog::DevicesCatalog;
    use wtr_radio::geo::GeoPoint;

    fn tac() -> Tac {
        Tac::new(35_000_000).unwrap()
    }

    fn build() -> (Vec<DeviceSummary>, Classification) {
        let mut cat = DevicesCatalog::new(22);
        // Device 1: inbound m2m, 9 active days, stationary.
        for day in 0..9u32 {
            let r = cat.row_mut(1, Day(day), Plmn::of(204, 4), tac(), RoamingLabel::IH);
            r.mobility.add(GeoPoint::new(52.0, -1.0), 1.0);
        }
        // Device 2: inbound smartphone, 2 active days, mobile.
        for day in 0..2u32 {
            let r = cat.row_mut(2, Day(day), Plmn::of(208, 1), tac(), RoamingLabel::IH);
            r.mobility
                .add(GeoPoint::new(52.0 + day as f64 * 0.3, -1.0), 1.0);
            r.mobility
                .add(GeoPoint::new(52.2 + day as f64 * 0.3, -0.8), 1.0);
        }
        // Device 3: native smartphone, 20 days.
        for day in 0..20u32 {
            cat.row_mut(3, Day(day), Plmn::of(234, 30), tac(), RoamingLabel::HH);
        }
        let sums = summarize(&cat);
        let mut cls = Classification::default();
        cls.classes.insert(1, DeviceClass::M2m);
        cls.classes.insert(2, DeviceClass::Smart);
        cls.classes.insert(3, DeviceClass::Smart);
        (sums, cls)
    }

    #[test]
    fn status_grouping() {
        let (sums, _) = build();
        let s1 = sums.iter().find(|s| s.user == 1).unwrap();
        let s3 = sums.iter().find(|s| s.user == 3).unwrap();
        assert_eq!(StatusGroup::of(s1), Some(StatusGroup::InboundRoaming));
        assert_eq!(StatusGroup::of(s3), Some(StatusGroup::Native));
    }

    #[test]
    fn active_days_split_matches_fig7_shape() {
        let (sums, cls) = build();
        let result = active_days(
            &sums,
            &cls,
            &[
                (DeviceClass::M2m, StatusGroup::InboundRoaming),
                (DeviceClass::Smart, StatusGroup::InboundRoaming),
                (DeviceClass::Smart, StatusGroup::Native),
            ],
        );
        assert_eq!(result[0].days.median(), Some(9.0));
        assert_eq!(result[1].days.median(), Some(2.0));
        assert_eq!(result[2].days.median(), Some(20.0));
        // The paper's 4.5× inbound contrast.
        assert!(result[0].days.median().unwrap() > 4.0 * result[1].days.median().unwrap());
    }

    #[test]
    fn gyration_stationary_vs_mobile() {
        let (sums, cls) = build();
        let result = gyration(
            &sums,
            &cls,
            &[
                (DeviceClass::M2m, StatusGroup::InboundRoaming),
                (DeviceClass::Smart, StatusGroup::InboundRoaming),
            ],
        );
        let meter = result[0].gyration_km.median().unwrap();
        let phone = result[1].gyration_km.median().unwrap();
        assert!(meter < 0.001, "meter gyration {meter}");
        assert!(phone > 1.0, "phone gyration {phone}");
    }

    #[test]
    fn empty_pair_yields_empty_ecdf() {
        let (sums, cls) = build();
        let result = active_days(&sums, &cls, &[(DeviceClass::Feat, StatusGroup::Native)]);
        assert!(result[0].days.is_empty());
    }
}
