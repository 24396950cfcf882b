//! Wholesale roaming revenue vs. infrastructure load (extension E21).
//!
//! The paper's business argument, quantified: "though these devices occupy
//! radio resources in MNOs networks and exploit the MNOs interconnections
//! in the cellular ecosystem, they do not generate traffic that would
//! allow MNOs to accrue revenue" (§1, §9). Visited operators bill their
//! roaming partners per unit of *chargeable* traffic (data volume, call
//! minutes, SMS — §2.1's record exchange); signaling is free. This module
//! computes, per device class, the share of *radio load* (signaling
//! events) a class imposes against the share of *wholesale revenue* it
//! generates — making the paper's asymmetry a number.

use crate::analysis::activity::StatusGroup;
use crate::classify::{Classification, DeviceClass};
use crate::summary::DeviceSummary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Wholesale rate card for inbound roaming (inter-operator tariffs).
///
/// Defaults approximate EU-regulated wholesale caps of the paper's era
/// (2019): data ~ €4/GB, voice ~ €0.03/min, SMS ~ €0.01.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateCard {
    /// Currency units per megabyte of data.
    pub per_mb: f64,
    /// Currency units per minute of voice.
    pub per_voice_minute: f64,
    /// Currency units per SMS-like transaction.
    pub per_sms: f64,
}

impl Default for RateCard {
    fn default() -> Self {
        RateCard {
            per_mb: 0.004,
            per_voice_minute: 0.03,
            per_sms: 0.01,
        }
    }
}

impl RateCard {
    /// Wholesale revenue one device generated over the window.
    pub fn revenue_of(&self, s: &DeviceSummary) -> f64 {
        let mb = s.bytes as f64 / 1_000_000.0;
        mb * self.per_mb
            + (s.call_seconds_estimate() / 60.0) * self.per_voice_minute
            + s.sms as f64 * self.per_sms
    }
}

impl DeviceSummary {
    /// Call seconds are not carried on the summary (the catalog has them
    /// per day); estimate from call count with the population-typical
    /// 90-second mean, which is what clearing estimates look like when
    /// only call counts survive aggregation.
    pub fn call_seconds_estimate(&self) -> f64 {
        self.calls as f64 * 90.0
    }
}

/// Load-vs-revenue for one device class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassEconomics {
    /// The class.
    pub class: DeviceClass,
    /// Inbound-roaming devices of this class.
    pub devices: usize,
    /// Share of all inbound-roamer radio events this class causes.
    pub load_share: f64,
    /// Share of all inbound-roamer wholesale revenue this class brings.
    pub revenue_share: f64,
    /// Absolute revenue (rate-card units).
    pub revenue: f64,
    /// Mean revenue per device (skewed by heavy verticals like cars).
    pub revenue_per_device: f64,
    /// Median revenue per device — the paper's "typical" M2M device.
    pub revenue_median_per_device: f64,
}

impl ClassEconomics {
    /// Load-to-revenue ratio: > 1 means the class consumes more of the
    /// network than it pays for (the paper's M2M complaint).
    pub fn load_to_revenue(&self) -> f64 {
        if self.revenue_share <= 0.0 {
            f64::INFINITY
        } else {
            self.load_share / self.revenue_share
        }
    }
}

/// Computes load-vs-revenue over the *international inbound* population —
/// the devices whose traffic the studied MNO bills to roaming partners.
///
/// Per-class load is a sum of integer-valued event counts (exact while
/// totals stay below 2⁵³). Per-device revenues are collected, then each
/// class's revenue vector is sorted with a total order and summed in
/// sorted order, and the grand totals come from the per-class figures in
/// class order. Every reported number is therefore a pure function of
/// the input multiset, whatever order the summaries arrive in.
pub fn inbound_economics(
    summaries: &[DeviceSummary],
    classification: &Classification,
    rates: RateCard,
) -> Vec<ClassEconomics> {
    let mut per_class: BTreeMap<DeviceClass, (f64, Vec<f64>)> = BTreeMap::new();
    for s in summaries {
        if StatusGroup::of(s) != Some(StatusGroup::InboundRoaming) {
            continue;
        }
        let Some(class) = classification.class_of(s.user) else {
            continue;
        };
        let entry = per_class.entry(class).or_insert((0.0, Vec::new()));
        entry.0 += s.events as f64;
        entry.1.push(rates.revenue_of(s));
    }
    // Reduce each class first (sorted revenue sums), then derive the
    // totals from the per-class figures in class order.
    let reduced: Vec<(DeviceClass, f64, Vec<f64>, f64)> = per_class
        .into_iter()
        .map(|(class, (load, mut revenues))| {
            revenues.sort_by(f64::total_cmp);
            let revenue: f64 = revenues.iter().sum();
            (class, load, revenues, revenue)
        })
        .collect();
    let total_load: f64 = reduced.iter().map(|(_, load, _, _)| load).sum();
    let total_revenue: f64 = reduced.iter().map(|(_, _, _, revenue)| revenue).sum();
    reduced
        .into_iter()
        .map(|(class, load, revenues, revenue)| {
            let devices = revenues.len();
            let median = if devices == 0 {
                0.0
            } else {
                revenues[devices / 2]
            };
            ClassEconomics {
                class,
                devices,
                load_share: if total_load > 0.0 {
                    load / total_load
                } else {
                    0.0
                },
                revenue_share: if total_revenue > 0.0 {
                    revenue / total_revenue
                } else {
                    0.0
                },
                revenue,
                revenue_per_device: if devices > 0 {
                    revenue / devices as f64
                } else {
                    0.0
                },
                revenue_median_per_device: median,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wtr_model::ids::{Plmn, Tac};
    use wtr_model::rat::RadioFlags;
    use wtr_model::roaming::RoamingLabel;
    use wtr_probes::catalog::MobilityAccum;

    fn summary(
        user: u64,
        label: RoamingLabel,
        events: u64,
        bytes: u64,
        calls: u64,
        sms: u64,
    ) -> DeviceSummary {
        DeviceSummary {
            user,
            sim_plmn: Plmn::of(204, 4),
            tac: Tac::new(35_000_000).unwrap(),
            active_days: 10,
            first_day: 0,
            dominant_label: label,
            apns: BTreeSet::new(),
            radio_flags: RadioFlags::default(),
            events,
            failed_events: 0,
            calls,
            sms,
            data_sessions: u64::from(bytes > 0),
            bytes,
            in_designated_range: false,
            in_published_m2m_range: false,
            hourly: [0; 24],
            mobility: MobilityAccum::default(),
        }
    }

    fn classify(pairs: &[(u64, DeviceClass)]) -> Classification {
        let mut c = Classification::default();
        for (u, class) in pairs {
            c.classes.insert(*u, *class);
        }
        c
    }

    #[test]
    fn m2m_load_exceeds_revenue_share() {
        // Meter: lots of signaling, almost no billable traffic.
        // Tourist: less signaling, heavy data.
        let sums = vec![
            summary(1, RoamingLabel::IH, 900, 50_000, 0, 2),
            summary(2, RoamingLabel::IH, 300, 2_000_000_000, 20, 10),
        ];
        let cls = classify(&[(1, DeviceClass::M2m), (2, DeviceClass::Smart)]);
        let econ = inbound_economics(&sums, &cls, RateCard::default());
        let m2m = econ.iter().find(|e| e.class == DeviceClass::M2m).unwrap();
        let smart = econ.iter().find(|e| e.class == DeviceClass::Smart).unwrap();
        assert!(m2m.load_share > 0.7, "m2m load {}", m2m.load_share);
        assert!(
            m2m.revenue_share < 0.01,
            "m2m revenue {}",
            m2m.revenue_share
        );
        assert!(m2m.load_to_revenue() > 50.0);
        assert!(smart.load_to_revenue() < 1.0);
        // Shares normalize.
        let load: f64 = econ.iter().map(|e| e.load_share).sum();
        let rev: f64 = econ.iter().map(|e| e.revenue_share).sum();
        assert!((load - 1.0).abs() < 1e-9 && (rev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn native_devices_excluded() {
        let sums = vec![
            summary(1, RoamingLabel::HH, 500, 1_000_000, 5, 0),
            summary(2, RoamingLabel::IH, 100, 1_000_000, 0, 0),
        ];
        let cls = classify(&[(1, DeviceClass::Smart), (2, DeviceClass::M2m)]);
        let econ = inbound_economics(&sums, &cls, RateCard::default());
        assert_eq!(econ.len(), 1);
        assert_eq!(econ[0].class, DeviceClass::M2m);
        assert_eq!(econ[0].devices, 1);
    }

    #[test]
    fn rate_card_components() {
        let rates = RateCard {
            per_mb: 1.0,
            per_voice_minute: 10.0,
            per_sms: 100.0,
        };
        let s = summary(1, RoamingLabel::IH, 0, 5_000_000, 2, 3);
        // 5 MB + 2 calls × 90s = 3 min + 3 SMS.
        let expected = 5.0 * 1.0 + 3.0 * 10.0 + 3.0 * 100.0;
        assert!((rates.revenue_of(&s) - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_revenue_class_has_infinite_ratio() {
        let sums = vec![summary(1, RoamingLabel::IH, 100, 0, 0, 0)];
        let cls = classify(&[(1, DeviceClass::M2m)]);
        let econ = inbound_economics(&sums, &cls, RateCard::default());
        assert!(econ[0].load_to_revenue().is_infinite());
    }

    #[test]
    fn empty_population() {
        let econ = inbound_economics(&[], &Classification::default(), RateCard::default());
        assert!(econ.is_empty());
    }
}
