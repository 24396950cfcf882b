//! The daily devices-catalog (§4.1).
//!
//! "We combine the three data sources to create a daily list of active
//! devices and associated properties and traffic characteristics … Each
//! record in the generated catalog reports a device ID, total number of
//! events, calls, bytes seen, SIM MCC/MNC, list of visited MCC-MNC, list
//! of APN strings … We further summarize the radio activity into
//! radio-flags … Finally, we compute mobility metrics for each device."
//!
//! A [`CatalogEntry`] is one (device, day) row. Mobility is accumulated
//! incrementally (weighted sums of sector coordinates and their squares),
//! so the catalog never stores per-sector dwell lists: centroid and radius
//! of gyration come out of O(1) state per row, using the local-tangent-
//! plane approximation that is standard for intra-country gyration.
//! Weights are event counts — a documented approximation of the paper's
//! time-spent-per-sector weighting (DESIGN.md).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use wtr_model::ids::{Plmn, Tac};
use wtr_model::intern::{ApnSym, ApnTable};
use wtr_model::rat::RadioFlags;
use wtr_model::roaming::RoamingLabel;
use wtr_model::time::Day;
use wtr_radio::geo::GeoPoint;
use wtr_sim::par;

/// Kilometres per degree of latitude (and of longitude at the equator).
const KM_PER_DEG: f64 = 111.195;

/// Incremental mobility accumulator: weighted first and second moments of
/// the sector coordinates a device used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MobilityAccum {
    w: f64,
    lat_w: f64,
    lon_w: f64,
    lat2_w: f64,
    lon2_w: f64,
}

impl MobilityAccum {
    /// Adds one observation at `p` with weight `weight`.
    pub fn add(&mut self, p: GeoPoint, weight: f64) {
        self.w += weight;
        self.lat_w += p.lat * weight;
        self.lon_w += p.lon * weight;
        self.lat2_w += p.lat * p.lat * weight;
        self.lon2_w += p.lon * p.lon * weight;
    }

    /// Merges another accumulator (multi-day aggregation).
    pub fn merge(&mut self, other: &MobilityAccum) {
        self.w += other.w;
        self.lat_w += other.lat_w;
        self.lon_w += other.lon_w;
        self.lat2_w += other.lat2_w;
        self.lon2_w += other.lon2_w;
    }

    /// Total weight.
    pub fn weight(&self) -> f64 {
        self.w
    }

    /// Weighted centroid, if any weight has been accumulated.
    pub fn centroid(&self) -> Option<GeoPoint> {
        if self.w <= 0.0 {
            return None;
        }
        Some(GeoPoint::new(self.lat_w / self.w, self.lon_w / self.w))
    }

    /// Radius of gyration in kilometres (local-tangent-plane).
    pub fn gyration_km(&self) -> Option<f64> {
        let c = self.centroid()?;
        let var_lat = (self.lat2_w / self.w - c.lat * c.lat).max(0.0);
        let var_lon = (self.lon2_w / self.w - c.lon * c.lon).max(0.0);
        let klat = KM_PER_DEG;
        let klon = KM_PER_DEG * c.lat.to_radians().cos();
        Some((var_lat * klat * klat + var_lon * klon * klon).sqrt())
    }

    /// The raw accumulator state `[w, lat_w, lon_w, lat2_w, lon2_w]` —
    /// what the columnar `WTRCAT` codec stores.
    pub fn to_parts(&self) -> [f64; 5] {
        [self.w, self.lat_w, self.lon_w, self.lat2_w, self.lon2_w]
    }

    /// Rebuilds an accumulator from its raw state (inverse of
    /// [`MobilityAccum::to_parts`]).
    pub fn from_parts(parts: [f64; 5]) -> Self {
        MobilityAccum {
            w: parts[0],
            lat_w: parts[1],
            lon_w: parts[2],
            lat2_w: parts[3],
            lon2_w: parts[4],
        }
    }
}

/// One (device, day) row of the devices-catalog: the §4.1 fields
/// (device ID, event, call and byte counts, SIM and visited PLMNs, APNs,
/// radio-flags, mobility) plus an hour-of-day histogram and two IMSI-range
/// tags. Sector ids are not kept: the sectors a device used reach the row
/// only as event-weighted position moments in `mobility`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// Anonymized device ID.
    pub user: u64,
    /// Day of the row.
    pub day: Day,
    /// SIM home PLMN.
    pub sim_plmn: Plmn,
    /// Device TAC (joinable against the GSMA-like catalog).
    pub tac: Tac,
    /// Roaming label of the day (§4.2).
    pub label: RoamingLabel,
    /// Total radio events.
    pub events: u64,
    /// Radio events with a failure result.
    pub failed_events: u64,
    /// Voice calls.
    pub calls: u64,
    /// SMS-like transactions.
    pub sms: u64,
    /// Data sessions.
    pub data_sessions: u64,
    /// Uplink bytes.
    pub bytes_up: u64,
    /// Downlink bytes.
    pub bytes_down: u64,
    /// Visited PLMNs seen this day (packed keys, sorted).
    pub visited: BTreeSet<u32>,
    /// APNs seen this day (the classifier's raw material), as interned
    /// symbols resolved through the owning catalog's [`ApnTable`]. `Copy`
    /// keys: merging rows copies 4-byte symbols, never clones strings.
    pub apns: BTreeSet<ApnSym>,
    /// Radio-flags: RATs successfully used, per plane.
    pub radio_flags: RadioFlags,
    /// Events per hour of day (signaling + data + voice) — the diurnal
    /// fingerprint that separates machine traffic (flat/periodic) from
    /// human traffic (waking-hours curve), cf. the M2M-vs-phone diurnal
    /// contrast of Shafiq et al. \[18\] that §1 cites.
    pub hourly: [u32; 24],
    /// Whether the SIM falls in an operator-designated IMSI range (e.g.
    /// the studied MNO's dedicated SMIP smart-meter block, §4.4). Tagged
    /// by the probe *before* anonymization — operators can always label
    /// their own ranges.
    pub in_designated_range: bool,
    /// Whether the SIM falls in a *foreign* M2M IMSI range that the home
    /// operator published under the GSMA transparency recommendation (§1:
    /// "home networks and carriers \[should\] provide transparency of their
    /// outbound roaming M2M traffic by sharing … dedicated IMSI ranges").
    /// Tagged pre-anonymization, like `in_designated_range`.
    pub in_published_m2m_range: bool,
    /// Mobility accumulator (centroid + gyration).
    pub mobility: MobilityAccum,
}

impl CatalogEntry {
    fn new(user: u64, day: Day, sim_plmn: Plmn, tac: Tac, label: RoamingLabel) -> Self {
        CatalogEntry {
            user,
            day,
            sim_plmn,
            tac,
            label,
            events: 0,
            failed_events: 0,
            calls: 0,
            sms: 0,
            data_sessions: 0,
            bytes_up: 0,
            bytes_down: 0,
            visited: BTreeSet::new(),
            apns: BTreeSet::new(),
            radio_flags: RadioFlags::default(),
            hourly: [0; 24],
            in_designated_range: false,
            in_published_m2m_range: false,
            mobility: MobilityAccum::default(),
        }
    }

    /// Total bytes both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }

    /// Whether the device used any data service this day.
    pub fn used_data(&self) -> bool {
        self.data_sessions > 0
    }

    /// Whether the device used any voice service this day.
    pub fn used_voice(&self) -> bool {
        self.calls + self.sms > 0
    }

    /// Folds another row for the *same* (device, day) into this one.
    ///
    /// Counters add, sets union, hour-of-day and mobility accumulators
    /// merge; identity fields (`sim_plmn`, `tac`, `label`) keep `self`'s
    /// values — the same first-touch-wins rule [`DevicesCatalog::row_mut`]
    /// applies when a probe builds a row incrementally. This is the merge
    /// step of the parallel ingest path: when `self` holds the earlier
    /// chunk of the event stream, the combined row is identical to what a
    /// serial fold would have produced.
    pub fn absorb(&mut self, other: &CatalogEntry) {
        debug_assert_eq!((self.user, self.day), (other.user, other.day));
        self.events += other.events;
        self.failed_events += other.failed_events;
        self.calls += other.calls;
        self.sms += other.sms;
        self.data_sessions += other.data_sessions;
        self.bytes_up += other.bytes_up;
        self.bytes_down += other.bytes_down;
        self.visited.extend(other.visited.iter().copied());
        self.apns.extend(other.apns.iter().copied());
        self.radio_flags.merge(other.radio_flags);
        for (h, n) in other.hourly.iter().enumerate() {
            self.hourly[h] += n;
        }
        self.in_designated_range |= other.in_designated_range;
        self.in_published_m2m_range |= other.in_published_m2m_range;
        self.mobility.merge(&other.mobility);
    }
}

/// The devices-catalog: all (device, day) rows of the observation window.
///
/// Rows live in a `BTreeMap` keyed by (user, day), so iteration order —
/// and everything downstream of it: summaries, reports, serialized
/// exports — is deterministic by construction.
///
/// The catalog also owns the [`ApnTable`] its rows' [`ApnSym`] sets are
/// resolved through: every distinct APN string is stored exactly once
/// here, no matter how many (device, day) rows carry it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DevicesCatalog {
    rows: BTreeMap<(u64, u32), CatalogEntry>,
    window_days: u32,
    apns: ApnTable,
}

impl DevicesCatalog {
    /// Creates an empty catalog for a window of `window_days` days.
    pub fn new(window_days: u32) -> Self {
        DevicesCatalog {
            rows: BTreeMap::new(),
            window_days,
            apns: ApnTable::new(),
        }
    }

    /// Length of the observation window in days.
    pub fn window_days(&self) -> u32 {
        self.window_days
    }

    /// Interns an APN string into this catalog's table, returning the
    /// symbol to store in a row's `apns` set.
    pub fn intern_apn(&mut self, apn: &str) -> ApnSym {
        self.apns.intern(apn)
    }

    /// The catalog's APN intern table (what row symbols resolve through).
    pub fn apn_table(&self) -> &ApnTable {
        &self.apns
    }

    /// Resolves one of this catalog's APN symbols back to its string.
    ///
    /// # Panics
    /// If `sym` was not issued by this catalog's table.
    pub fn apn_str(&self, sym: ApnSym) -> &str {
        self.apns.resolve(sym)
    }

    /// Gets or creates the row for (user, day); identity fields are set on
    /// first touch. A device whose label changes *within* one day keeps
    /// the first label (the paper tags rows daily).
    pub fn row_mut(
        &mut self,
        user: u64,
        day: Day,
        sim_plmn: Plmn,
        tac: Tac,
        label: RoamingLabel,
    ) -> &mut CatalogEntry {
        self.rows
            .entry((user, day.0))
            .or_insert_with(|| CatalogEntry::new(user, day, sim_plmn, tac, label))
    }

    /// Inserts a fully-built row (how `read_catalog_auto` fills a
    /// catalog from decoded rows). A row for an existing (user, day) key
    /// is folded in with [`CatalogEntry::absorb`].
    pub fn insert_entry(&mut self, entry: CatalogEntry) {
        match self.rows.entry((entry.user, entry.day.0)) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(entry);
            }
            std::collections::btree_map::Entry::Occupied(mut o) => o.get_mut().absorb(&entry),
        }
    }

    /// Inserts a row whose APN symbols were issued by a *different*
    /// table: each symbol is resolved through `table` and re-interned
    /// here before the row lands via [`DevicesCatalog::insert_entry`].
    /// This is the cross-catalog routing step of incremental ingest
    /// (`wtr_serve` taps, `wtr catalog-split`): entries decoded from a
    /// stream carry that stream's symbols, not the destination's.
    pub fn adopt_entry(&mut self, mut entry: CatalogEntry, table: &ApnTable) {
        if !entry.apns.is_empty() {
            entry.apns = entry
                .apns
                .iter()
                .map(|&sym| self.apns.intern(table.resolve(sym)))
                .collect();
        }
        self.insert_entry(entry);
    }

    /// Row lookup.
    pub fn get(&self, user: u64, day: Day) -> Option<&CatalogEntry> {
        self.rows.get(&(user, day.0))
    }

    /// Number of rows (device-days).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over all rows in (user, day) order.
    pub fn iter(&self) -> impl Iterator<Item = &CatalogEntry> {
        self.rows.values()
    }

    /// Folds another catalog into this one: rows for the same
    /// (device, day) are combined with [`CatalogEntry::absorb`] (so
    /// `self`'s identity fields win), new rows are inserted. `other`'s APN
    /// symbols are remapped through [`ApnTable::absorb`] first, so the
    /// merged table keeps first-occurrence symbol assignment — partial
    /// catalogs built from consecutive chunks of an event stream, merged
    /// in chunk order, reproduce the serial fold (and its symbol ids)
    /// exactly. This is the reduce step of parallel ingestion.
    pub fn merge(&mut self, other: DevicesCatalog) {
        self.window_days = self.window_days.max(other.window_days);
        let remap = self.apns.absorb(&other.apns);
        for (key, mut entry) in other.rows {
            if !entry.apns.is_empty() {
                entry.apns = entry.apns.iter().map(|s| remap[s.index()]).collect();
            }
            match self.rows.entry(key) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(entry);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    o.get_mut().absorb(&entry);
                }
            }
        }
    }

    /// Rewrites the catalog into canonical APN-symbol form: the intern
    /// table is sorted (symbol = sorted rank, see
    /// [`ApnTable::canonicalized`]) and every row's symbol set is
    /// remapped accordingly. After this, two catalogs with equal *content*
    /// are equal as Rust values even if their tables were built in
    /// different first-occurrence orders — which is exactly what sharded
    /// simulation produces: each shard interns the APNs its own devices
    /// use, in its own order, and the shard-merge concatenation order
    /// differs from the serial interleaving. Serialized forms (JSONL,
    /// WTRCAT) already canonicalize on write; this makes the in-memory
    /// value canonical too.
    pub fn canonicalize(&mut self) {
        let (table, remap) = self.apns.canonicalized();
        self.apns = table;
        // The remap is pure per row, so the row rewrite fans out over
        // `par` workers. Rows are mutated in place behind their stable
        // (user, day) keys — the map order, and therefore every
        // downstream iteration, is untouched at any worker count.
        let mut entries: Vec<&mut CatalogEntry> = self
            .rows
            .values_mut()
            .filter(|e| !e.apns.is_empty())
            .collect();
        par::par_each_mut(&mut entries, |entry| {
            entry.apns = entry.apns.iter().map(|s| remap[s.index()]).collect();
        });
    }

    /// Number of distinct devices seen across the window.
    pub fn device_count(&self) -> usize {
        let mut users: Vec<u64> = self.rows.keys().map(|(u, _)| *u).collect();
        users.sort_unstable();
        users.dedup();
        users.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plmn() -> Plmn {
        Plmn::of(234, 30)
    }

    fn tac() -> Tac {
        Tac::new(35_000_000).unwrap()
    }

    #[test]
    fn row_identity_set_once() {
        let mut cat = DevicesCatalog::new(22);
        let r = cat.row_mut(1, Day(0), plmn(), tac(), RoamingLabel::HH);
        r.events += 1;
        // Second touch with a different label keeps the first.
        let r = cat.row_mut(1, Day(0), plmn(), tac(), RoamingLabel::IH);
        r.events += 1;
        assert_eq!(cat.len(), 1);
        let row = cat.get(1, Day(0)).unwrap();
        assert_eq!(row.events, 2);
        assert_eq!(row.label, RoamingLabel::HH);
    }

    #[test]
    fn device_count_counts_distinct_users() {
        let mut cat = DevicesCatalog::new(22);
        cat.row_mut(1, Day(0), plmn(), tac(), RoamingLabel::HH);
        cat.row_mut(1, Day(3), plmn(), tac(), RoamingLabel::HH);
        cat.row_mut(2, Day(0), plmn(), tac(), RoamingLabel::IH);
        assert_eq!(cat.device_count(), 2);
    }

    #[test]
    fn mobility_stationary_has_zero_gyration() {
        let mut acc = MobilityAccum::default();
        let p = GeoPoint::new(52.0, -1.0);
        for _ in 0..10 {
            acc.add(p, 1.0);
        }
        assert!(acc.gyration_km().unwrap() < 1e-6);
        let c = acc.centroid().unwrap();
        assert!((c.lat - 52.0).abs() < 1e-9);
    }

    #[test]
    fn mobility_gyration_matches_exact_for_two_points() {
        // Two points 0.2° of latitude apart with equal weight: the exact
        // gyration is half the distance ≈ 11.12 km.
        let mut acc = MobilityAccum::default();
        acc.add(GeoPoint::new(52.0, -1.0), 1.0);
        acc.add(GeoPoint::new(52.2, -1.0), 1.0);
        let g = acc.gyration_km().unwrap();
        assert!((g - 11.12).abs() < 0.15, "got {g}");
    }

    #[test]
    fn mobility_respects_weights() {
        let mut heavy_home = MobilityAccum::default();
        heavy_home.add(GeoPoint::new(52.0, -1.0), 100.0);
        heavy_home.add(GeoPoint::new(52.5, -1.0), 1.0);
        let mut balanced = MobilityAccum::default();
        balanced.add(GeoPoint::new(52.0, -1.0), 1.0);
        balanced.add(GeoPoint::new(52.5, -1.0), 1.0);
        assert!(heavy_home.gyration_km().unwrap() < balanced.gyration_km().unwrap());
    }

    #[test]
    fn mobility_merge_equals_combined() {
        let pts = [
            (GeoPoint::new(51.0, 0.0), 2.0),
            (GeoPoint::new(51.5, 0.4), 1.0),
            (GeoPoint::new(52.0, -0.3), 3.0),
        ];
        let mut all = MobilityAccum::default();
        for (p, w) in pts {
            all.add(p, w);
        }
        let mut a = MobilityAccum::default();
        a.add(pts[0].0, pts[0].1);
        let mut b = MobilityAccum::default();
        b.add(pts[1].0, pts[1].1);
        b.add(pts[2].0, pts[2].1);
        a.merge(&b);
        assert!((a.gyration_km().unwrap() - all.gyration_km().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn empty_mobility_yields_none() {
        let acc = MobilityAccum::default();
        assert!(acc.centroid().is_none());
        assert!(acc.gyration_km().is_none());
    }

    #[test]
    fn iteration_is_ordered_by_user_then_day() {
        let mut cat = DevicesCatalog::new(22);
        cat.row_mut(9, Day(1), plmn(), tac(), RoamingLabel::HH);
        cat.row_mut(1, Day(5), plmn(), tac(), RoamingLabel::HH);
        cat.row_mut(1, Day(0), plmn(), tac(), RoamingLabel::HH);
        let keys: Vec<(u64, u32)> = cat.iter().map(|r| (r.user, r.day.0)).collect();
        assert_eq!(keys, vec![(1, 0), (1, 5), (9, 1)]);
    }

    #[test]
    fn merge_reproduces_serial_fold() {
        // Serial: one catalog absorbs everything in order.
        let mut serial = DevicesCatalog::new(22);
        let r = serial.row_mut(1, Day(0), plmn(), tac(), RoamingLabel::HH);
        r.events = 2;
        r.mobility.add(GeoPoint::new(52.0, -1.0), 1.0);
        let r = serial.row_mut(1, Day(0), plmn(), tac(), RoamingLabel::IH);
        r.events += 3;
        r.mobility.add(GeoPoint::new(52.5, -1.2), 1.0);
        serial.row_mut(2, Day(1), plmn(), tac(), RoamingLabel::VH);

        // Parallel: two partial catalogs, merged in chunk order.
        let mut a = DevicesCatalog::new(22);
        let r = a.row_mut(1, Day(0), plmn(), tac(), RoamingLabel::HH);
        r.events = 2;
        r.mobility.add(GeoPoint::new(52.0, -1.0), 1.0);
        let mut b = DevicesCatalog::new(22);
        let r = b.row_mut(1, Day(0), plmn(), tac(), RoamingLabel::IH);
        r.events = 3;
        r.mobility.add(GeoPoint::new(52.5, -1.2), 1.0);
        b.row_mut(2, Day(1), plmn(), tac(), RoamingLabel::VH);
        a.merge(b);

        assert_eq!(a.len(), serial.len());
        for (left, right) in a.iter().zip(serial.iter()) {
            assert_eq!(left, right);
        }
        // First-touch label survives the merge.
        assert_eq!(a.get(1, Day(0)).unwrap().label, RoamingLabel::HH);
    }

    #[test]
    fn canonicalize_makes_intern_order_irrelevant() {
        // Same content, opposite intern orders.
        let build = |apns: &[&str]| {
            let mut cat = DevicesCatalog::new(5);
            let syms: Vec<ApnSym> = apns.iter().map(|a| cat.intern_apn(a)).collect();
            let r = cat.row_mut(1, Day(0), plmn(), tac(), RoamingLabel::HH);
            r.apns.extend(syms.iter().copied());
            cat
        };
        let mut a = build(&["zeta.gprs", "alpha.gprs"]);
        let mut b = build(&["alpha.gprs", "zeta.gprs"]);
        assert_ne!(a.apn_table(), b.apn_table());
        a.canonicalize();
        b.canonicalize();
        assert!(a.apn_table().is_canonical());
        assert_eq!(a.apn_table(), b.apn_table());
        let (ra, rb) = (a.get(1, Day(0)).unwrap(), b.get(1, Day(0)).unwrap());
        assert_eq!(ra, rb);
        // Row symbols were remapped along with the table.
        let strings: Vec<&str> = ra.apns.iter().map(|&sym| a.apn_str(sym)).collect();
        assert_eq!(strings, ["alpha.gprs", "zeta.gprs"]);
    }

    #[test]
    fn usage_predicates() {
        let mut cat = DevicesCatalog::new(22);
        let r = cat.row_mut(5, Day(1), plmn(), tac(), RoamingLabel::IH);
        assert!(!r.used_data() && !r.used_voice());
        r.data_sessions = 1;
        r.bytes_up = 10;
        r.bytes_down = 5;
        r.sms = 2;
        assert!(r.used_data() && r.used_voice());
        assert_eq!(r.bytes_total(), 15);
    }
}
