//! Traffic volume analysis (§6.2; Fig. 10).
//!
//! For each (device class, native/inbound) population: per-device
//! distributions of daily radio-resource signaling events, daily voice
//! calls, and daily data volume. The shapes to reproduce: M2M signals far
//! less than smartphones and calls almost never; inbound M2M moves almost
//! no data; inbound smartphones move visibly less data than native ones
//! ("bill shock").

use crate::analysis::activity::{pair_ecdfs, StatusGroup};
use crate::classify::{Classification, DeviceClass};
use crate::metrics::Ecdf;
use crate::summary::DeviceSummary;
use serde::{Deserialize, Serialize};

/// The three Fig. 10 panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficMetric {
    /// Radio-resource signaling events per active day (Fig. 10-left).
    SignalingPerDay,
    /// Voice calls per active day (Fig. 10-center).
    CallsPerDay,
    /// Data bytes per active day (Fig. 10-right).
    BytesPerDay,
}

impl TrafficMetric {
    /// Extracts the metric from a summary.
    pub fn of(self, s: &DeviceSummary) -> f64 {
        match self {
            TrafficMetric::SignalingPerDay => s.events_per_active_day(),
            TrafficMetric::CallsPerDay => s.calls_per_active_day(),
            TrafficMetric::BytesPerDay => s.bytes_per_active_day(),
        }
    }

    /// Report label.
    pub const fn label(self) -> &'static str {
        match self {
            TrafficMetric::SignalingPerDay => "signaling events/day",
            TrafficMetric::CallsPerDay => "calls/day",
            TrafficMetric::BytesPerDay => "bytes/day",
        }
    }
}

/// One (class, status, metric) distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficDist {
    /// The class.
    pub class: DeviceClass,
    /// Native vs inbound.
    pub status: StatusGroup,
    /// Which panel.
    pub metric: TrafficMetric,
    /// Per-device daily values.
    pub dist: Ecdf,
}

/// Computes one Fig. 10 panel for the requested (class, status) pairs
/// in one pass over the summaries.
pub fn traffic_dist(
    summaries: &[DeviceSummary],
    classification: &Classification,
    pairs: &[(DeviceClass, StatusGroup)],
    metric: TrafficMetric,
) -> Vec<TrafficDist> {
    pair_ecdfs(summaries, classification, pairs, |s| Some(metric.of(s)))
        .into_iter()
        .map(|(class, status, dist)| TrafficDist {
            class,
            status,
            metric,
            dist,
        })
        .collect()
}

/// Fraction of a population with a zero value for `metric` — e.g. "for the
/// vast majority of M2M devices we do not find any calls registered".
pub fn zero_fraction(dist: &TrafficDist) -> f64 {
    if dist.dist.is_empty() {
        0.0
    } else {
        dist.dist.fraction_at_or_below(0.0)
    }
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
        calls: u64,
        bytes: u64,
        days: u32,
    ) -> DeviceSummary {
        DeviceSummary {
            user,
            sim_plmn: Plmn::of(204, 4),
            tac: Tac::new(35_000_000).unwrap(),
            active_days: days,
            first_day: 0,
            dominant_label: label,
            apns: BTreeSet::new(),
            radio_flags: RadioFlags::default(),
            events,
            failed_events: 0,
            calls,
            sms: 0,
            data_sessions: u64::from(bytes > 0),
            bytes,
            in_designated_range: false,
            in_published_m2m_range: false,
            hourly: [0; 24],
            mobility: MobilityAccum::default(),
        }
    }

    fn classification(pairs: &[(u64, DeviceClass)]) -> Classification {
        let mut c = Classification::default();
        for (u, class) in pairs {
            c.classes.insert(*u, *class);
        }
        c
    }

    #[test]
    fn panel_split_by_class_and_status() {
        let sums = vec![
            summary(1, RoamingLabel::IH, 20, 0, 100, 10), // inbound m2m
            summary(2, RoamingLabel::HH, 400, 30, 5_000_000, 10), // native smart
            summary(3, RoamingLabel::IH, 300, 10, 500_000, 10), // inbound smart
        ];
        let cls = classification(&[
            (1, DeviceClass::M2m),
            (2, DeviceClass::Smart),
            (3, DeviceClass::Smart),
        ]);
        let pairs = [
            (DeviceClass::M2m, StatusGroup::InboundRoaming),
            (DeviceClass::Smart, StatusGroup::Native),
            (DeviceClass::Smart, StatusGroup::InboundRoaming),
        ];
        let sig = traffic_dist(&sums, &cls, &pairs, TrafficMetric::SignalingPerDay);
        assert_eq!(sig[0].dist.median(), Some(2.0));
        assert_eq!(sig[1].dist.median(), Some(40.0));
        // M2M ≪ smartphones (Fig. 10-left).
        assert!(sig[0].dist.median().unwrap() < sig[1].dist.median().unwrap() / 10.0);

        let bytes = traffic_dist(&sums, &cls, &pairs, TrafficMetric::BytesPerDay);
        // Native smart ≫ inbound smart (bill shock, Fig. 10-right).
        assert!(bytes[1].dist.median().unwrap() > bytes[2].dist.median().unwrap() * 5.0);
    }

    #[test]
    fn zero_call_fraction() {
        let sums = vec![
            summary(1, RoamingLabel::IH, 10, 0, 0, 5),
            summary(2, RoamingLabel::IH, 10, 0, 0, 5),
            summary(3, RoamingLabel::IH, 10, 2, 0, 5),
        ];
        let cls = classification(&[
            (1, DeviceClass::M2m),
            (2, DeviceClass::M2m),
            (3, DeviceClass::M2m),
        ]);
        let calls = traffic_dist(
            &sums,
            &cls,
            &[(DeviceClass::M2m, StatusGroup::InboundRoaming)],
            TrafficMetric::CallsPerDay,
        );
        let zf = zero_fraction(&calls[0]);
        assert!((zf - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_population() {
        let cls = classification(&[]);
        let d = traffic_dist(
            &[],
            &cls,
            &[(DeviceClass::Feat, StatusGroup::Native)],
            TrafficMetric::BytesPerDay,
        );
        assert!(d[0].dist.is_empty());
        assert_eq!(zero_fraction(&d[0]), 0.0);
    }
}
