//! Per-device summaries: the devices-catalog folded across days.
//!
//! Classification and most population analyses operate per *device*, not
//! per device-day; a [`DeviceSummary`] merges every catalog row of one
//! anonymized device across the observation window.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use wtr_model::ids::{Plmn, Tac};
use wtr_model::intern::ApnSym;
use wtr_model::rat::RadioFlags;
use wtr_model::roaming::RoamingLabel;
use wtr_probes::catalog::{CatalogEntry, DevicesCatalog, MobilityAccum};

/// One device, aggregated over the whole observation window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSummary {
    /// Anonymized device ID.
    pub user: u64,
    /// SIM home PLMN.
    pub sim_plmn: Plmn,
    /// Device TAC.
    pub tac: Tac,
    /// Days with at least one record.
    pub active_days: u32,
    /// First active day index.
    pub first_day: u32,
    /// Roaming label observed on most days (daily labels can vary for
    /// devices that roam in and out); a tie goes to the label that
    /// comes first in [`RoamingLabel::ALL`].
    pub dominant_label: RoamingLabel,
    /// All APNs observed, as symbols of the source catalog's
    /// [`wtr_model::intern::ApnTable`] (pass that table alongside the
    /// summaries to anything that needs the strings back).
    pub apns: BTreeSet<ApnSym>,
    /// Radio-flags merged across days.
    pub radio_flags: RadioFlags,
    /// Total radio events.
    pub events: u64,
    /// Total failed radio events.
    pub failed_events: u64,
    /// Total calls.
    pub calls: u64,
    /// Total SMS-like transactions.
    pub sms: u64,
    /// Total data sessions.
    pub data_sessions: u64,
    /// Total bytes (both directions).
    pub bytes: u64,
    /// Whether any row was tagged as belonging to an operator-designated
    /// IMSI range (the SMIP smart-meter block, §4.4).
    pub in_designated_range: bool,
    /// Whether any row was tagged as belonging to a GSMA-published foreign
    /// M2M IMSI range (§1 transparency recommendation).
    pub in_published_m2m_range: bool,
    /// Events per hour of day, summed across the window (diurnal shape).
    pub hourly: [u64; 24],
    /// Mobility accumulator merged across days.
    pub mobility: MobilityAccum,
}

impl DeviceSummary {
    /// Mean radio events per active day.
    pub fn events_per_active_day(&self) -> f64 {
        if self.active_days == 0 {
            0.0
        } else {
            self.events as f64 / self.active_days as f64
        }
    }

    /// Mean calls per active day.
    pub fn calls_per_active_day(&self) -> f64 {
        if self.active_days == 0 {
            0.0
        } else {
            self.calls as f64 / self.active_days as f64
        }
    }

    /// Mean bytes per active day.
    pub fn bytes_per_active_day(&self) -> f64 {
        if self.active_days == 0 {
            0.0
        } else {
            self.bytes as f64 / self.active_days as f64
        }
    }

    /// Whether the device ever used data services.
    pub fn used_data(&self) -> bool {
        self.data_sessions > 0
    }

    /// Whether the device ever used voice services.
    pub fn used_voice(&self) -> bool {
        self.calls + self.sms > 0
    }

    /// Whether any failed event was observed.
    pub fn had_failures(&self) -> bool {
        self.failed_events > 0
    }

    /// Radius of gyration over the whole window, in km.
    pub fn gyration_km(&self) -> Option<f64> {
        self.mobility.gyration_km()
    }
}

/// One device's summary under construction, plus its days per label,
/// indexed by [`RoamingLabel::index`] (for the dominant-label vote).
type Open = (DeviceSummary, [u32; 6]);

/// Opens a device's summary on its first row, which sets the identity
/// fields (`sim_plmn`/`tac`/`first_day`).
fn open(row: &CatalogEntry) -> Open {
    let mut device = (
        DeviceSummary {
            user: row.user,
            sim_plmn: row.sim_plmn,
            tac: row.tac,
            active_days: 0,
            first_day: row.day.0,
            dominant_label: row.label,
            apns: BTreeSet::new(),
            radio_flags: RadioFlags::default(),
            events: 0,
            failed_events: 0,
            calls: 0,
            sms: 0,
            data_sessions: 0,
            bytes: 0,
            in_designated_range: false,
            in_published_m2m_range: false,
            hourly: [0; 24],
            mobility: MobilityAccum::default(),
        },
        [0; 6],
    );
    fold_row(&mut device, row);
    device
}

/// Folds a device's next row (rows ascend by day) into its summary.
fn fold_row((s, counts): &mut Open, row: &CatalogEntry) {
    s.active_days += 1;
    s.apns.extend(row.apns.iter().copied());
    s.radio_flags.merge(row.radio_flags);
    s.events += row.events;
    s.failed_events += row.failed_events;
    s.calls += row.calls;
    s.sms += row.sms;
    s.data_sessions += row.data_sessions;
    s.bytes += row.bytes_total();
    s.in_designated_range |= row.in_designated_range;
    s.in_published_m2m_range |= row.in_published_m2m_range;
    for (h, n) in row.hourly.iter().enumerate() {
        s.hourly[h] += *n as u64;
    }
    s.mobility.merge(&row.mobility);
    counts[row.label.index()] += 1;
}

/// In-order accumulator for per-device summaries: the fold behind
/// [`summarize`] and the catalog pass of `wtr_core::stream`.
///
/// Rows must arrive in the catalog's canonical (user, day) order — both
/// the JSONL and WTRCAT writers emit that order, and `CatalogStream`
/// rejects a file that breaks it. Each summary is then the in-order
/// fold of its own device's rows: the f64 mobility sums never regroup,
/// and a summary depends on nothing but its device's rows, however the
/// rows were chunked on their way in. State is O(devices), never
/// O(rows): this is what lets a visited-MNO-scale catalog stream through
/// without materializing.
#[derive(Debug, Default, Clone)]
pub struct SummaryFold {
    /// Every device seen so far, in row order.
    devices: Vec<Open>,
}

impl SummaryFold {
    /// An empty accumulator.
    pub fn new() -> Self {
        SummaryFold::default()
    }

    /// Adds the next row: onto the last device, or as the next one.
    pub fn push(&mut self, row: &CatalogEntry) {
        match self.devices.last_mut() {
            Some(last) if last.0.user == row.user => fold_row(last, row),
            _ => self.devices.push(open(row)),
        }
    }

    /// Resolves dominant labels and returns the summaries in row order
    /// (device-ID order).
    pub fn finish(self) -> Vec<DeviceSummary> {
        self.devices
            .into_iter()
            .map(|(mut s, counts)| {
                // Most days wins; a tie goes to the first such slot, the
                // smaller label.
                let most = counts.iter().max().copied().unwrap_or(0);
                let best = counts.iter().position(|&n| n == most).unwrap_or(0);
                s.dominant_label = RoamingLabel::ALL[best];
                s
            })
            .collect()
    }
}

/// Folds a devices-catalog into per-device summaries, sorted by device ID.
///
/// One in-order pass of [`SummaryFold`] over the catalog's rows, so the
/// result is bit-identical to streaming the same rows from a catalog
/// file.
pub fn summarize(catalog: &DevicesCatalog) -> Vec<DeviceSummary> {
    let mut fold = SummaryFold::new();
    catalog.iter().for_each(|row| fold.push(row));
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::time::Day;

    fn plmn() -> Plmn {
        Plmn::of(204, 4)
    }

    fn tac() -> Tac {
        Tac::new(35_000_000).unwrap()
    }

    fn sample_catalog() -> DevicesCatalog {
        let mut cat = DevicesCatalog::new(22);
        let sym = cat.intern_apn("smhp.centricaplc.com.mnc004.mcc204.gprs");
        for day in [0u32, 1, 2, 5] {
            let r = cat.row_mut(1, Day(day), plmn(), tac(), RoamingLabel::IH);
            r.events += 10;
            r.failed_events += 1;
            r.data_sessions += 2;
            r.bytes_up += 100;
            r.bytes_down += 50;
            r.apns.insert(sym);
        }
        // Device 2: one home day, one abroad day (outbound).
        let r = cat.row_mut(2, Day(0), Plmn::of(234, 30), tac(), RoamingLabel::HH);
        r.events += 3;
        let r = cat.row_mut(2, Day(1), Plmn::of(234, 30), tac(), RoamingLabel::HA);
        r.calls += 1;
        cat
    }

    #[test]
    fn summary_aggregates_days() {
        let sums = summarize(&sample_catalog());
        assert_eq!(sums.len(), 2);
        let s1 = sums.iter().find(|s| s.user == 1).unwrap();
        assert_eq!(s1.active_days, 4);
        assert_eq!(s1.first_day, 0);
        assert_eq!(s1.events, 40);
        assert_eq!(s1.failed_events, 4);
        assert_eq!(s1.data_sessions, 8);
        assert_eq!(s1.bytes, 600);
        assert_eq!(s1.dominant_label, RoamingLabel::IH);
        assert_eq!(s1.events_per_active_day(), 10.0);
        assert!(s1.used_data() && !s1.used_voice());
        assert!(s1.had_failures());
    }

    #[test]
    fn mixed_labels_tracked() {
        let sums = summarize(&sample_catalog());
        let s2 = sums.iter().find(|s| s.user == 2).unwrap();
        // One H:H day and one H:A day: the tie goes to the smaller label.
        assert_eq!(s2.dominant_label, RoamingLabel::HH);
        assert!(s2.used_voice());
    }

    #[test]
    fn dominant_label_is_most_frequent() {
        let mut cat = DevicesCatalog::new(22);
        for day in 0..5u32 {
            cat.row_mut(3, Day(day), plmn(), tac(), RoamingLabel::IH);
        }
        cat.row_mut(3, Day(6), plmn(), tac(), RoamingLabel::HH);
        // A tie goes to the smaller label, whichever came first.
        cat.row_mut(4, Day(0), plmn(), tac(), RoamingLabel::IH);
        cat.row_mut(4, Day(1), plmn(), tac(), RoamingLabel::HH);
        let sums = summarize(&cat);
        assert_eq!(sums[0].dominant_label, RoamingLabel::IH);
        assert_eq!(sums[1].dominant_label, RoamingLabel::HH);
    }

    #[test]
    fn empty_catalog() {
        let cat = DevicesCatalog::new(22);
        assert!(summarize(&cat).is_empty());
    }

    #[test]
    fn output_sorted_by_user() {
        let sums = summarize(&sample_catalog());
        assert!(sums.windows(2).all(|w| w[0].user < w[1].user));
    }
}
