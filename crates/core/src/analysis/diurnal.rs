//! Diurnal traffic shapes per device class (extension E22).
//!
//! §1 motivates the whole classification problem with the observation that
//! "M2M traffic exhibits significantly different features than phone
//! traffic in a range of aspects from signaling, to uplink/downlink
//! traffic volume ratios to diurnal patterns \[18\]". This module extracts
//! the diurnal fingerprint from the catalog's per-hour event histograms:
//! machine traffic is flat around the clock; human traffic collapses at
//! night. The night-share statistic alone separates the classes — a
//! lightweight classification feature operators get for free.

use crate::classify::{Classification, DeviceClass};
use crate::summary::DeviceSummary;
use serde::{Deserialize, Serialize};

/// Hours treated as night (00:00–05:59).
pub const NIGHT_HOURS: std::ops::Range<usize> = 0..6;

/// The diurnal profile of one device class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiurnalProfile {
    /// The class.
    pub class: DeviceClass,
    /// Devices aggregated.
    pub devices: usize,
    /// Normalized share of events per hour of day (sums to 1 when any
    /// events exist).
    pub hourly_share: [f64; 24],
    /// Fraction of events during [`NIGHT_HOURS`]. A perfectly flat source
    /// sits at 0.25; human traffic sits far below.
    pub night_share: f64,
    /// Peak-to-trough ratio of the hourly shares (∞-safe: trough floored
    /// at one event). Flat machine traffic ≈ 1–2; human traffic ≫ 2.
    pub peak_to_trough: f64,
}

/// Computes diurnal profiles for the requested classes in one pass over
/// the summaries: the hourly event histograms of each class's devices
/// are summed, then normalized.
pub fn profiles(
    summaries: &[DeviceSummary],
    classification: &Classification,
    classes: &[DeviceClass],
) -> Vec<DiurnalProfile> {
    let mut hourly = vec![[0u64; 24]; classes.len()];
    let mut devices = vec![0usize; classes.len()];
    for s in summaries {
        let Some(class) = classification.class_of(s.user) else {
            continue;
        };
        for (i, _) in classes.iter().enumerate().filter(|(_, c)| **c == class) {
            devices[i] += 1;
            for (sum, n) in hourly[i].iter_mut().zip(s.hourly) {
                *sum += n;
            }
        }
    }
    classes
        .iter()
        .zip(hourly)
        .zip(devices)
        .map(|((class, hourly), devices)| {
            let total: u64 = hourly.iter().sum();
            let mut hourly_share = [0.0; 24];
            if total > 0 {
                for (h, n) in hourly.iter().enumerate() {
                    hourly_share[h] = *n as f64 / total as f64;
                }
            }
            let night: u64 = hourly[NIGHT_HOURS].iter().sum();
            let peak = hourly.iter().copied().max().unwrap_or(0) as f64;
            let trough = hourly.iter().copied().min().unwrap_or(0).max(1) as f64;
            DiurnalProfile {
                class: *class,
                devices,
                hourly_share,
                night_share: if total > 0 {
                    night as f64 / total as f64
                } else {
                    0.0
                },
                peak_to_trough: if total > 0 { peak / trough } else { 0.0 },
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

    fn summary(user: u64, hourly: [u64; 24]) -> DeviceSummary {
        DeviceSummary {
            user,
            sim_plmn: Plmn::of(204, 4),
            tac: Tac::new(35_000_000).unwrap(),
            active_days: 1,
            first_day: 0,
            dominant_label: RoamingLabel::IH,
            apns: BTreeSet::new(),
            radio_flags: RadioFlags::default(),
            events: hourly.iter().sum(),
            failed_events: 0,
            calls: 0,
            sms: 0,
            data_sessions: 0,
            bytes: 0,
            in_designated_range: false,
            in_published_m2m_range: false,
            hourly,
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
    fn flat_machine_vs_diurnal_human() {
        // Machine: 10 events every hour. Human: nothing at night, heavy
        // evenings.
        let machine = summary(1, [10; 24]);
        let mut human_hours = [0u64; 24];
        for (h, slot) in human_hours.iter_mut().enumerate().take(23).skip(8) {
            *slot = if (17..22).contains(&h) { 40 } else { 10 };
        }
        let human = summary(2, human_hours);
        let cls = classify(&[(1, DeviceClass::M2m), (2, DeviceClass::Smart)]);
        let p = profiles(
            &[machine, human],
            &cls,
            &[DeviceClass::M2m, DeviceClass::Smart],
        );
        let m2m = &p[0];
        let smart = &p[1];
        assert!(
            (m2m.night_share - 0.25).abs() < 1e-9,
            "flat night share {}",
            m2m.night_share
        );
        assert_eq!(smart.night_share, 0.0);
        assert!(m2m.peak_to_trough < 1.5);
        assert!(smart.peak_to_trough > 10.0);
        let total: f64 = m2m.hourly_share.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_class() {
        let p = profiles(&[], &Classification::default(), &[DeviceClass::Feat]);
        assert_eq!(p[0].devices, 0);
        assert_eq!(p[0].night_share, 0.0);
        assert_eq!(p[0].peak_to_trough, 0.0);
    }

    #[test]
    fn aggregates_across_devices() {
        let mut a_h = [0u64; 24];
        a_h[3] = 5;
        let mut b_h = [0u64; 24];
        b_h[15] = 15;
        let cls = classify(&[(1, DeviceClass::M2m), (2, DeviceClass::M2m)]);
        let p = profiles(
            &[summary(1, a_h), summary(2, b_h)],
            &cls,
            &[DeviceClass::M2m],
        );
        assert_eq!(p[0].devices, 2);
        assert!((p[0].night_share - 0.25).abs() < 1e-9); // 5 of 20 at 03:00
        assert!((p[0].hourly_share[15] - 0.75).abs() < 1e-9);
    }
}
