//! The visited-MNO probe (§4.1, Fig. 4).
//!
//! Sits on the studied MNO's MME/MSC/SGSN (radio events for everything
//! attached to the studied network) and on its billing feeds (CDR/xDR —
//! which, unlike radio logs, also cover the MNO's own outbound roamers via
//! roaming clearing). Visibility rules implemented exactly as the paper
//! describes:
//!
//! * device attached to the studied MNO → radio events + CDR/xDR;
//! * studied MNO's (or hosted-MVNO's) SIM attached abroad → CDR/xDR only
//!   ("radio signaling for outbound roamers is carried over the visited
//!   country network only");
//! * foreign SIM attached to a foreign network → invisible.
//!
//! Every visible event is folded into the daily devices-catalog on the
//! fly and then dropped; the probe keeps only per-record counters.
//!
//! The fold keeps one open row per SIM: the SIM's row for the day of its
//! latest event, held next to what the probe derives once per SIM (its
//! anonymized ID, range tags, last label and APN symbols). An event
//! touches the catalog only when it lands on another day than the open
//! row's: that row goes back into the catalog, and the new day's row
//! comes out of it or starts fresh. A row is always in exactly one place,
//! so the fold equals a catalog lookup per event for any arrival order.

use crate::catalog::{CatalogEntry, DevicesCatalog};
use crate::idmap::IdMap;
use serde::{Deserialize, Serialize};
use wtr_model::apn::Apn;
use wtr_model::hash::{anonymize_u64, AnonKey};
use wtr_model::ids::{ImsiRange, Plmn, Tac};
use wtr_model::intern::ApnSym;
use wtr_model::operators::OperatorRegistry;
use wtr_model::roaming::{Presence, RoamingLabel};
use wtr_model::time::Day;
use wtr_radio::network::RadioNetwork;
use wtr_sim::events::{SimEvent, VoiceKind};
use wtr_sim::world::EventSink;

/// Per-day load on the monitored core-network elements (Fig. 4): the
/// MME serves LTE-family signaling, the SGSN 2G/3G packet signaling, and
/// the MSC the circuit-switched (voice/SMS) domain. This is the "network
/// elements that we monitor" view, letting operators see which box the
/// §7.1 background traffic actually lands on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElementLoad {
    /// Signaling events handled by the MME (4G / NB-IoT).
    pub mme: u64,
    /// Signaling events handled by the SGSN (2G / 3G).
    pub sgsn: u64,
    /// Circuit-switched records handled by the MSC.
    pub msc: u64,
    /// Data sessions through SGW/PGW (4G / NB-IoT).
    pub sgw: u64,
    /// Data sessions through SGSN/GGSN (2G / 3G).
    pub ggsn: u64,
}

impl ElementLoad {
    /// Accumulates another day's (or probe's) load.
    pub fn merge(&mut self, other: ElementLoad) {
        self.mme += other.mme;
        self.sgsn += other.sgsn;
        self.msc += other.msc;
        self.sgw += other.sgw;
        self.ggsn += other.ggsn;
    }
}

/// What the probe keeps per SIM between the SIM's events.
#[derive(Debug, Clone)]
struct SimState {
    /// Anonymized device ID.
    user: u64,
    /// Whether the SIM lies in a designated IMSI range.
    designated: bool,
    /// Whether the SIM lies in a published foreign M2M range.
    published: bool,
    /// The PLMN the SIM's latest event visited.
    visited: Plmn,
    /// The SIM's label on `visited` (`None`: invisible there).
    label: Option<RoamingLabel>,
    /// The SIM's APNs with their symbols in the probe's catalog.
    apns: Vec<(Apn, ApnSym)>,
    /// The SIM's row for the day of its latest event; out of the catalog
    /// while it is open.
    open: Option<CatalogEntry>,
}

impl SimState {
    /// The catalog symbol of `apn`, interned on the SIM's first use.
    fn apn_sym(&mut self, catalog: &mut DevicesCatalog, apn: &Apn) -> ApnSym {
        if let Some(&(_, sym)) = self.apns.iter().find(|(known, _)| known == apn) {
            return sym;
        }
        let sym = catalog.intern_apn(&apn.full());
        self.apns.push((apn.clone(), sym));
        sym
    }

    /// The SIM's row for `day`. If the open row is for another day, it
    /// goes back into `catalog`, and the day's row comes out of it or
    /// starts fresh with this event's identity fields.
    fn open_row(
        &mut self,
        catalog: &mut DevicesCatalog,
        day: Day,
        sim_plmn: Plmn,
        tac: Tac,
        label: RoamingLabel,
    ) -> &mut CatalogEntry {
        if self.open.as_ref().is_none_or(|row| row.day != day) {
            if let Some(row) = self.open.take() {
                catalog.insert_entry(row);
            }
            let mut row = catalog
                .take(self.user, day)
                .unwrap_or_else(|| CatalogEntry::new(self.user, day, sim_plmn, tac, label));
            // The tags are the SIM's, so setting them once per opening
            // equals setting them on every event.
            row.in_designated_range |= self.designated;
            row.in_published_m2m_range |= self.published;
            self.open = Some(row);
        }
        self.open.as_mut().expect("a row is open")
    }
}

/// The studied MNO's passive measurement pipeline.
///
/// # Memory contract
///
/// The probe is a bounded-memory [`EventSink`] over the event stream:
/// its steady state is **O(devices × active days)** — the
/// devices-catalog rows plus one [`ElementLoad`] per window day, and per
/// SIM one open row and its cached identity (anonymized ID, range tags,
/// last label, APN symbols) — and never O(events). Events fold into
/// catalog rows on arrival and are dropped; what survives of each record
/// is its count ([`MnoProbe::radio_event_count`],
/// [`MnoProbe::cdr_count`], [`MnoProbe::xdr_count`]) and its element
/// load.
#[derive(Debug, Clone)]
pub struct MnoProbe {
    studied: Plmn,
    registry: OperatorRegistry,
    /// The studied network (to resolve sector positions for mobility).
    home_network: RadioNetwork,
    key: AnonKey,
    /// The parked rows of the daily devices-catalog built so far.
    catalog: DevicesCatalog,
    /// Per-SIM state, keyed by packed IMSI.
    sims: IdMap<SimState>,
    designated_ranges: Vec<ImsiRange>,
    published_m2m_ranges: Vec<ImsiRange>,
    element_load: Vec<ElementLoad>,
    radio_events: u64,
    cdr_count: u64,
    xdr_count: u64,
}

impl MnoProbe {
    /// Creates a probe for `studied` over a `window_days` observation
    /// window.
    pub fn new(
        studied: Plmn,
        registry: OperatorRegistry,
        home_network: RadioNetwork,
        key: AnonKey,
        window_days: u32,
    ) -> Self {
        MnoProbe {
            studied,
            registry,
            home_network,
            key,
            catalog: DevicesCatalog::new(window_days),
            sims: IdMap::default(),
            designated_ranges: Vec::new(),
            published_m2m_ranges: Vec::new(),
            element_load: vec![ElementLoad::default(); window_days as usize],
            radio_events: 0,
            cdr_count: 0,
            xdr_count: 0,
        }
    }

    /// Registers an operator-designated IMSI range (e.g. the SMIP smart-
    /// meter block): rows of SIMs in any registered range get
    /// `in_designated_range = true`.
    pub fn with_designated_range(mut self, range: ImsiRange) -> Self {
        self.designated_ranges.push(range);
        self
    }

    /// Registers a foreign M2M IMSI range published by a roaming partner
    /// under the GSMA transparency recommendation (§1): rows of SIMs in
    /// any registered range get `in_published_m2m_range = true`.
    pub fn with_published_m2m_range(mut self, range: ImsiRange) -> Self {
        self.published_m2m_ranges.push(range);
        self
    }

    /// The studied MNO.
    pub fn studied(&self) -> Plmn {
        self.studied
    }

    /// Count of radio-interface events processed.
    pub fn radio_event_count(&self) -> u64 {
        self.radio_events
    }

    /// Count of CDRs processed.
    pub fn cdr_count(&self) -> u64 {
        self.cdr_count
    }

    /// Count of xDRs processed.
    pub fn xdr_count(&self) -> u64 {
        self.xdr_count
    }

    /// Consumes the probe, returning the catalog.
    pub fn into_catalog(mut self) -> DevicesCatalog {
        self.park_open_rows();
        self.catalog
    }

    /// Per-day load on the monitored elements (index = day).
    pub fn element_load(&self) -> &[ElementLoad] {
        &self.element_load
    }

    /// Puts every open row back into the catalog and drops the per-SIM
    /// state, whose APN symbols a canonicalization or merge of the
    /// catalog would invalidate. A SIM's next event starts its state
    /// afresh, taking its row back out of the catalog.
    fn park_open_rows(&mut self) {
        // Two SIMs hold rows of one (user, day) only if their anonymized
        // IDs collide; parking in IMSI order, not the map's, keeps the
        // fold of such rows deterministic.
        let mut sims: Vec<(u64, SimState)> = std::mem::take(&mut self.sims).into_iter().collect();
        sims.sort_unstable_by_key(|&(imsi, _)| imsi);
        for (_, sim) in sims {
            if let Some(row) = sim.open {
                self.catalog.insert_entry(row);
            }
        }
    }

    /// A probe with the same configuration but no accumulated state —
    /// the shard-local probe of the sharded scenario runners (each shard
    /// taps its own event loop with a fork of the configured probe).
    pub fn fork_empty(&self) -> MnoProbe {
        let window_days = self.catalog.window_days();
        MnoProbe {
            studied: self.studied,
            registry: self.registry.clone(),
            home_network: self.home_network.clone(),
            key: self.key,
            catalog: DevicesCatalog::new(window_days),
            sims: IdMap::default(),
            designated_ranges: self.designated_ranges.clone(),
            published_m2m_ranges: self.published_m2m_ranges.clone(),
            element_load: vec![ElementLoad::default(); self.element_load.len()],
            radio_events: 0,
            cdr_count: 0,
            xdr_count: 0,
        }
    }

    /// Folds another probe into this one. Catalog rows merge with
    /// first-touch identity preserved (`self`'s row wins a collision),
    /// element loads and counters add.
    ///
    /// This is the shard-merge of the sharded scenario runners:
    /// shard probes tap disjoint device populations, whichever devices
    /// a shard holds, so every keyed merge (catalog rows) is
    /// conflict-free and every additive merge (element load,
    /// radio/CDR/xDR counters) is order-insensitive. The one
    /// ordering artifact — APN intern order, which depends on how shards
    /// are concatenated — is erased by [`MnoProbe::canonicalize`]
    /// afterwards. Property-tested in `tests/shard_determinism.rs`:
    /// absorbing arbitrarily partitioned shard probes reproduces the
    /// single-probe serial fold exactly. Both probes park their open rows
    /// in their catalogs first.
    pub fn absorb(&mut self, mut other: MnoProbe) {
        self.park_open_rows();
        other.park_open_rows();
        self.catalog.merge(other.catalog);
        for (mine, theirs) in self.element_load.iter_mut().zip(other.element_load) {
            mine.merge(theirs);
        }
        self.radio_events += other.radio_events;
        self.cdr_count += other.cdr_count;
        self.xdr_count += other.xdr_count;
    }

    /// Rewrites the catalog into canonical APN-symbol form (sorted
    /// table, see [`DevicesCatalog::canonicalize`]). Sharded and
    /// serial runs intern APNs in different first-occurrence orders
    /// (the interleaving of devices differs); canonical form is the
    /// common fixpoint both converge to, making probe state comparable
    /// — and byte-identical once serialized — across shard counts. Open
    /// rows are parked in the catalog first.
    pub fn canonicalize(&mut self) {
        self.park_open_rows();
        self.catalog.canonicalize();
    }
}

/// The element-load slot of `day` (the last slot for days past the
/// window).
fn element_day(load: &mut [ElementLoad], day: Day) -> &mut ElementLoad {
    let idx = (day.0 as usize).min(load.len().saturating_sub(1));
    &mut load[idx]
}

impl EventSink for MnoProbe {
    fn on_event(&mut self, event: &SimEvent) {
        let (imsi, imei, visited, time) = match event {
            // Radio events exist only on the studied network.
            SimEvent::Signaling(sig) if sig.visited != self.studied => return,
            SimEvent::Signaling(sig) => (sig.imsi, sig.imei, sig.visited, sig.time),
            SimEvent::Voice(v) => (v.imsi, v.imei, v.visited, v.time),
            SimEvent::Data(d) => (d.imsi, d.imei, d.visited, d.time),
        };
        let (studied, registry, key) = (self.studied, &self.registry, self.key);
        let derive = |visited| RoamingLabel::derive(studied, registry, imsi.plmn(), visited);
        let (designated, published) = (&self.designated_ranges, &self.published_m2m_ranges);
        let sim = self.sims.entry(imsi.packed()).or_insert_with(|| SimState {
            user: anonymize_u64(key, imsi.packed()),
            designated: designated.iter().any(|r| r.contains(imsi)),
            published: published.iter().any(|r| r.contains(imsi)),
            visited,
            label: derive(visited),
            apns: Vec::new(),
            open: None,
        });
        if sim.visited != visited {
            sim.visited = visited;
            sim.label = derive(visited);
        }
        let Some(label) = sim.label else {
            return;
        };
        let day = Day(time.day().0);
        let home = visited == studied;
        let apn = match event {
            SimEvent::Data(d) => Some(sim.apn_sym(&mut self.catalog, &d.apn)),
            _ => None,
        };
        let row = sim.open_row(&mut self.catalog, day, imsi.plmn(), imei.tac(), label);
        let load = element_day(&mut self.element_load, day);
        row.hourly[time.hour_of_day() as usize] += 1;
        row.visited.insert(visited.packed());
        let sector = match event {
            SimEvent::Signaling(sig) => {
                debug_assert_eq!(label.presence(), Presence::Home);
                self.radio_events += 1;
                if sig.rat.is_lte_family() {
                    load.mme += 1;
                } else {
                    load.sgsn += 1;
                }
                row.events += 1;
                if sig.result.is_ok() {
                    row.radio_flags.record(sig.rat, false, false);
                } else {
                    row.failed_events += 1;
                }
                sig.sector
            }
            SimEvent::Voice(v) => {
                self.cdr_count += 1;
                if home {
                    load.msc += 1;
                }
                match v.kind {
                    VoiceKind::Call => row.calls += 1,
                    VoiceKind::SmsLike => row.sms += 1,
                }
                row.radio_flags.record(v.rat, false, true);
                home.then_some(v.sector)
            }
            SimEvent::Data(d) => {
                self.xdr_count += 1;
                if home {
                    if d.rat.is_lte_family() {
                        load.sgw += 1;
                    } else {
                        load.ggsn += 1;
                    }
                }
                row.data_sessions += 1;
                row.bytes_up += d.bytes_up;
                row.bytes_down += d.bytes_down;
                row.apns.extend(apn);
                row.radio_flags.record(d.rat, true, false);
                home.then_some(d.sector)
            }
        };
        if let Some(sector) = sector {
            row.mobility
                .add(self.home_network.sector_position(sector), 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::apn::Apn;
    use wtr_model::country::Country;
    use wtr_model::ids::{Imei, Imsi, Tac};
    use wtr_model::operators::well_known;
    use wtr_model::rat::{Rat, RatSet};
    use wtr_model::time::SimTime;
    use wtr_radio::geo::{CountryGeometry, GeoPoint};
    use wtr_radio::network::CoverageFaults;
    use wtr_radio::sector::GridSpacing;
    use wtr_sim::events::{DataSession, ProcedureResult, ProcedureType, SignalingEvent, VoiceCall};

    const MNO: Plmn = well_known::UK_STUDIED_MNO;
    const NL: Plmn = well_known::NL_SMART_METER_HMNO;
    const ES: Plmn = well_known::ES_HMNO;

    fn home_network() -> RadioNetwork {
        RadioNetwork::new(
            MNO,
            RatSet::CONVENTIONAL,
            CountryGeometry::of(Country::by_iso("GB").unwrap()),
            GridSpacing::default(),
            CoverageFaults::NONE,
        )
    }

    fn probe() -> MnoProbe {
        MnoProbe::new(
            MNO,
            OperatorRegistry::standard(3),
            home_network(),
            AnonKey::FIXED,
            22,
        )
    }

    fn sector() -> wtr_radio::sector::SectorId {
        home_network()
            .grid()
            .sector_at(GeoPoint::new(52.5, -1.0), Rat::G2)
    }

    fn sig_event(imsi: Imsi, visited: Plmn, ok: bool) -> SimEvent {
        SimEvent::Signaling(SignalingEvent {
            time: SimTime::from_secs(100),
            device: 1,
            imsi,
            imei: Imei::new(Tac::new(35_000_000).unwrap(), 1).unwrap(),
            visited,
            sector: Some(sector()),
            rat: Rat::G2,
            procedure: ProcedureType::Authentication,
            result: if ok {
                ProcedureResult::Ok
            } else {
                ProcedureResult::RoamingNotAllowed
            },
        })
    }

    fn data_event(imsi: Imsi, visited: Plmn) -> SimEvent {
        SimEvent::Data(DataSession {
            time: SimTime::from_secs(200),
            device: 1,
            imsi,
            imei: Imei::new(Tac::new(35_000_000).unwrap(), 1).unwrap(),
            visited,
            sector: sector(),
            rat: Rat::G2,
            apn: "smhp.centricaplc.com.mnc004.mcc204.gprs"
                .parse::<Apn>()
                .unwrap(),
            duration_secs: 30,
            bytes_up: 1_000,
            bytes_down: 200,
        })
    }

    #[test]
    fn inbound_roamer_fully_visible() {
        let mut p = probe();
        let imsi = Imsi::new(NL, 5_000_000_000).unwrap();
        p.on_event(&sig_event(imsi, MNO, true));
        p.on_event(&data_event(imsi, MNO));
        assert_eq!(p.radio_event_count(), 1);
        assert_eq!(p.xdr_count(), 1);
        let catalog = p.into_catalog();
        assert_eq!(catalog.len(), 1);
        let row = catalog.iter().next().unwrap();
        assert_eq!(row.label, RoamingLabel::IH);
        assert_eq!(row.events, 1);
        assert_eq!(row.data_sessions, 1);
        assert!(row
            .apns
            .iter()
            .any(|&a| catalog.apn_str(a).contains("centricaplc")));
        assert!(row.radio_flags.data.contains(Rat::G2));
        assert_eq!(row.mobility.weight(), 2.0, "both events placed in a sector");
        assert!(row.mobility.gyration_km().unwrap() < 1e-6);
    }

    #[test]
    fn foreign_sim_abroad_invisible() {
        let mut p = probe();
        let imsi = Imsi::new(NL, 1).unwrap();
        p.on_event(&sig_event(imsi, ES, true));
        p.on_event(&data_event(imsi, ES));
        assert_eq!(p.radio_event_count(), 0);
        assert_eq!(p.xdr_count(), 0);
        assert!(p.into_catalog().is_empty());
    }

    #[test]
    fn outbound_roamer_cdr_xdr_only() {
        let mut p = probe();
        let imsi = Imsi::new(MNO, 7).unwrap();
        // Signaling abroad: invisible.
        p.on_event(&sig_event(imsi, ES, true));
        assert_eq!(p.radio_event_count(), 0);
        // Data abroad: visible via clearing.
        p.on_event(&data_event(imsi, ES));
        assert_eq!(p.xdr_count(), 1);
        let catalog = p.into_catalog();
        let row = catalog.iter().next().unwrap();
        assert_eq!(row.label, RoamingLabel::HA);
        assert_eq!(row.events, 0, "no radio events for outbound roamers");
        assert_eq!(row.mobility.weight(), 0.0, "no sector visibility abroad");
    }

    #[test]
    fn failures_counted_and_no_radio_flag() {
        let mut p = probe();
        let imsi = Imsi::new(NL, 9).unwrap();
        p.on_event(&sig_event(imsi, MNO, false));
        let catalog = p.into_catalog();
        let row = catalog.iter().next().unwrap();
        assert_eq!(row.failed_events, 1);
        assert!(row.radio_flags.any.is_empty(), "failed events set no flags");
    }

    #[test]
    fn voice_updates_cdr_fields() {
        let mut p = probe();
        let imsi = Imsi::new(NL, 11).unwrap();
        p.on_event(&SimEvent::Voice(VoiceCall {
            time: SimTime::from_secs(50),
            device: 2,
            imsi,
            imei: Imei::new(Tac::new(35_000_001).unwrap(), 2).unwrap(),
            visited: MNO,
            sector: sector(),
            rat: Rat::G2,
            kind: VoiceKind::Call,
            duration_secs: 90,
        }));
        assert_eq!(p.cdr_count(), 1);
        let catalog = p.into_catalog();
        let row = catalog.iter().next().unwrap();
        assert_eq!(row.calls, 1);
        assert!(row.radio_flags.voice.contains(Rat::G2));
        assert!(row.used_voice() && !row.used_data());
    }

    #[test]
    fn mvno_sim_gets_virtual_label() {
        let mut p = probe();
        let imsi = Imsi::new(Plmn::of(234, 31), 3).unwrap();
        p.on_event(&sig_event(imsi, MNO, true));
        let catalog = p.into_catalog();
        let row = catalog.iter().next().unwrap();
        assert_eq!(row.label, RoamingLabel::VH);
    }

    #[test]
    fn days_partition_rows() {
        let mut p = probe();
        let imsi = Imsi::new(NL, 13).unwrap();
        let mut e = sig_event(imsi, MNO, true);
        p.on_event(&e);
        if let SimEvent::Signaling(s) = &mut e {
            s.time = SimTime::from_day_and_secs(1, 10);
        }
        p.on_event(&e);
        let catalog = p.into_catalog();
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.device_count(), 1);
    }
}
