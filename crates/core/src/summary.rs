//! Per-device summaries: the devices-catalog folded across days.
//!
//! Classification and most population analyses operate per *device*, not
//! per device-day; a [`DeviceSummary`] merges every catalog row of one
//! anonymized device across the observation window.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use wtr_model::ids::{Plmn, Tac};
use wtr_model::intern::ApnSym;
use wtr_model::rat::RadioFlags;
use wtr_model::roaming::RoamingLabel;
use wtr_probes::catalog::{CatalogEntry, DevicesCatalog, MobilityAccum};
use wtr_sim::par;
use wtr_sim::stream::{drive_iter_with, ChunkFold};

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
    /// Last active day index.
    pub last_day: u32,
    /// Roaming label observed most often (daily labels can vary for
    /// devices that roam in and out).
    pub dominant_label: RoamingLabel,
    /// All labels observed.
    pub labels: BTreeSet<RoamingLabel>,
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
    /// Distinct visited PLMN keys.
    pub visited: BTreeSet<u32>,
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

    /// Whether the device was ever seen as an international inbound roamer.
    pub fn ever_international_inbound(&self) -> bool {
        self.labels.iter().any(|l| l.is_international_inbound())
    }
}

/// Chunk-local accumulator: per device, the summary under construction
/// plus how often each daily label was seen (for the dominant-label vote).
type Partial = BTreeMap<u64, (DeviceSummary, BTreeMap<RoamingLabel, u32>)>;

/// Folds one catalog row into a partial. First-touch identity: the first
/// row a device contributes (earliest (user, day) in the chunk) sets
/// `sim_plmn`/`tac`/`first_day`.
fn fold_row(acc: &mut Partial, row: &CatalogEntry) {
    let (s, counts) = acc.entry(row.user).or_insert_with(|| {
        (
            DeviceSummary {
                user: row.user,
                sim_plmn: row.sim_plmn,
                tac: row.tac,
                active_days: 0,
                first_day: row.day.0,
                last_day: row.day.0,
                dominant_label: row.label,
                labels: BTreeSet::new(),
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
                visited: BTreeSet::new(),
                hourly: [0; 24],
                mobility: MobilityAccum::default(),
            },
            BTreeMap::new(),
        )
    });
    s.active_days += 1;
    s.first_day = s.first_day.min(row.day.0);
    s.last_day = s.last_day.max(row.day.0);
    s.labels.insert(row.label);
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
    s.visited.extend(row.visited.iter().copied());
    for (h, n) in row.hourly.iter().enumerate() {
        s.hourly[h] += *n as u64;
    }
    s.mobility.merge(&row.mobility);
    *counts.entry(row.label).or_insert(0) += 1;
}

/// Merges the partial of a *later* chunk into an earlier one. Identity
/// fields keep the left (earlier) side, matching the serial fold.
fn merge_partials(left: &mut Partial, right: Partial) {
    for (user, (rs, rcounts)) in right {
        match left.entry(user) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert((rs, rcounts));
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                let (s, counts) = o.get_mut();
                s.active_days += rs.active_days;
                s.first_day = s.first_day.min(rs.first_day);
                s.last_day = s.last_day.max(rs.last_day);
                s.labels.extend(rs.labels);
                s.apns.extend(rs.apns);
                s.radio_flags.merge(rs.radio_flags);
                s.events += rs.events;
                s.failed_events += rs.failed_events;
                s.calls += rs.calls;
                s.sms += rs.sms;
                s.data_sessions += rs.data_sessions;
                s.bytes += rs.bytes;
                s.in_designated_range |= rs.in_designated_range;
                s.in_published_m2m_range |= rs.in_published_m2m_range;
                s.visited.extend(rs.visited);
                for (h, n) in rs.hourly.iter().enumerate() {
                    s.hourly[h] += n;
                }
                s.mobility.merge(&rs.mobility);
                for (label, n) in rcounts {
                    *counts.entry(label).or_insert(0) += n;
                }
            }
        }
    }
}

/// Streaming accumulator for per-device summaries: the [`ChunkFold`]
/// behind [`summarize`] and the single-pass catalog pipeline
/// (`wtr_core::stream`).
///
/// Folds catalog rows (owned or borrowed chunks) into a per-device
/// partial; [`SummaryFold::finish`] resolves the dominant-label vote and
/// yields summaries sorted by device ID. State is O(devices), never
/// O(rows): this is what lets a visited-MNO-scale catalog stream through
/// without materializing.
///
/// Rows must arrive in the catalog's canonical (user, day) order for the
/// first-touch identity fields (`sim_plmn`/`tac`) to match the
/// materialized path — both the JSONL and WTRCAT writers emit that
/// order, and `CatalogStream` rejects a file that breaks it. All merges are integer adds, set unions and "first wins"
/// choices except the f64 mobility accumulator, whose bit-exactness
/// across paths is guaranteed by pinning chunk boundaries
/// (`wtr_sim::par::chunk_size`) rather than by associativity.
/// `Clone` (like every other analysis fold) so an open accumulation —
/// e.g. a `wtr_serve` day that has not sealed yet — can be snapshotted
/// and finished without disturbing the live fold.
#[derive(Debug, Default, Clone)]
pub struct SummaryFold {
    partial: Partial,
}

impl SummaryFold {
    /// An empty accumulator.
    pub fn new() -> Self {
        SummaryFold::default()
    }

    /// Devices seen so far.
    pub fn device_count(&self) -> usize {
        self.partial.len()
    }

    /// Resolves dominant labels and returns summaries sorted by device
    /// ID (`BTreeMap` order).
    pub fn finish(self) -> Vec<DeviceSummary> {
        self.partial
            .into_values()
            .map(|(mut s, counts)| {
                if let Some((label, _)) = counts
                    .iter()
                    .max_by_key(|(l, c)| (**c, std::cmp::Reverse(**l)))
                {
                    s.dominant_label = *label;
                }
                s
            })
            .collect()
    }
}

impl ChunkFold<CatalogEntry> for SummaryFold {
    fn zero(&self) -> Self {
        SummaryFold::new()
    }

    fn fold_chunk(&mut self, chunk: &[CatalogEntry]) {
        for row in chunk {
            fold_row(&mut self.partial, row);
        }
    }

    fn absorb(&mut self, later: Self) {
        merge_partials(&mut self.partial, later.partial);
    }
}

impl ChunkFold<&CatalogEntry> for SummaryFold {
    fn zero(&self) -> Self {
        SummaryFold::new()
    }

    fn fold_chunk(&mut self, chunk: &[&CatalogEntry]) {
        for row in chunk {
            fold_row(&mut self.partial, row);
        }
    }

    fn absorb(&mut self, later: Self) {
        merge_partials(&mut self.partial, later.partial);
    }
}

/// Folds a devices-catalog into per-device summaries, sorted by device ID.
///
/// The fold is sharded over worker threads (`wtr_sim::par`) through
/// [`SummaryFold`] without collecting the rows first; because the
/// catalog iterates in (user, day) order, chunk boundaries are pinned by
/// [`par::chunk_size`] and chunk partials merge in order, the result is
/// identical — byte for byte once serialized — at any thread count, and
/// bit-identical to streaming the same rows from a catalog file.
pub fn summarize(catalog: &DevicesCatalog) -> Vec<DeviceSummary> {
    let mut fold = SummaryFold::new();
    drive_iter_with(&mut fold, par::chunk_size(catalog.len()), catalog.iter());
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
        assert_eq!(s1.last_day, 5);
        assert_eq!(s1.events, 40);
        assert_eq!(s1.failed_events, 4);
        assert_eq!(s1.data_sessions, 8);
        assert_eq!(s1.bytes, 600);
        assert_eq!(s1.dominant_label, RoamingLabel::IH);
        assert!(s1.ever_international_inbound());
        assert_eq!(s1.events_per_active_day(), 10.0);
        assert!(s1.used_data() && !s1.used_voice());
        assert!(s1.had_failures());
    }

    #[test]
    fn mixed_labels_tracked() {
        let sums = summarize(&sample_catalog());
        let s2 = sums.iter().find(|s| s.user == 2).unwrap();
        assert_eq!(s2.labels.len(), 2);
        assert!(s2.labels.contains(&RoamingLabel::HH));
        assert!(s2.labels.contains(&RoamingLabel::HA));
        assert!(!s2.ever_international_inbound());
        assert!(s2.used_voice());
    }

    #[test]
    fn dominant_label_is_most_frequent() {
        let mut cat = DevicesCatalog::new(22);
        for day in 0..5u32 {
            cat.row_mut(3, Day(day), plmn(), tac(), RoamingLabel::IH);
        }
        cat.row_mut(3, Day(6), plmn(), tac(), RoamingLabel::HH);
        let sums = summarize(&cat);
        assert_eq!(sums[0].dominant_label, RoamingLabel::IH);
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
