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

use crate::catalog::DevicesCatalog;
use serde::{Deserialize, Serialize};
use wtr_model::hash::{anonymize_u64, AnonKey};
use wtr_model::ids::{ImsiRange, Plmn};
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

/// The studied MNO's passive measurement pipeline.
///
/// # Memory contract
///
/// The probe is a bounded-memory [`EventSink`] over the event stream:
/// its steady state is **O(devices × active days)** — the
/// devices-catalog rows plus one [`ElementLoad`] per window day — and
/// never O(events). Events fold into catalog rows on arrival and are
/// dropped; what survives of each record is its count
/// ([`MnoProbe::radio_event_count`], [`MnoProbe::cdr_count`],
/// [`MnoProbe::xdr_count`]) and its element load.
#[derive(Debug, Clone)]
pub struct MnoProbe {
    studied: Plmn,
    registry: OperatorRegistry,
    /// The studied network (to resolve sector positions for mobility).
    home_network: RadioNetwork,
    key: AnonKey,
    /// The daily devices-catalog built so far.
    pub catalog: DevicesCatalog,
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
    pub fn into_catalog(self) -> DevicesCatalog {
        self.catalog
    }

    /// Per-day load on the monitored elements (index = day).
    pub fn element_load(&self) -> &[ElementLoad] {
        &self.element_load
    }

    fn element_day(&mut self, day: Day) -> &mut ElementLoad {
        let idx = (day.0 as usize).min(self.element_load.len().saturating_sub(1));
        &mut self.element_load[idx]
    }

    fn label_for(&self, sim: Plmn, visited: Plmn) -> Option<RoamingLabel> {
        RoamingLabel::derive(self.studied, &self.registry, sim, visited)
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
            designated_ranges: self.designated_ranges.clone(),
            published_m2m_ranges: self.published_m2m_ranges.clone(),
            element_load: vec![ElementLoad::default(); self.element_load.len()],
            radio_events: 0,
            cdr_count: 0,
            xdr_count: 0,
        }
    }

    /// Folds another probe (built from a *later* slice of the event
    /// stream) into this one. Catalog rows merge with first-touch identity
    /// preserved, element loads and counters add.
    ///
    /// This is the shard-merge of the sharded scenario runners:
    /// shard probes tap disjoint device populations, so every keyed merge
    /// (catalog rows) is conflict-free and every additive merge (element
    /// load, radio/CDR/xDR counters) is order-insensitive. The one
    /// ordering artifact — APN intern order, which depends on how shards
    /// are concatenated — is erased by [`MnoProbe::canonicalize`]
    /// afterwards. Property-tested in `tests/shard_determinism.rs`:
    /// absorbing arbitrarily partitioned shard probes reproduces the
    /// single-probe serial fold exactly.
    pub fn absorb(&mut self, other: MnoProbe) {
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
    /// — and byte-identical once serialized — across shard counts.
    pub fn canonicalize(&mut self) {
        self.catalog.canonicalize();
    }
}

impl EventSink for MnoProbe {
    fn on_event(&mut self, event: &SimEvent) {
        match event {
            SimEvent::Signaling(sig) => {
                // Radio events exist only on the studied network.
                if sig.visited != self.studied {
                    return;
                }
                let Some(label) = self.label_for(sig.imsi.plmn(), sig.visited) else {
                    return;
                };
                debug_assert_eq!(label.presence, Presence::Home);
                let user = anonymize_u64(self.key, sig.imsi.packed());
                let day = Day(sig.time.day().0);
                let tac = sig.imei.tac();
                self.radio_events += 1;
                if sig.rat.is_lte_family() {
                    self.element_day(day).mme += 1;
                } else {
                    self.element_day(day).sgsn += 1;
                }
                let designated = self.designated_ranges.iter().any(|r| r.contains(sig.imsi));
                let published = self
                    .published_m2m_ranges
                    .iter()
                    .any(|r| r.contains(sig.imsi));
                let row = self.catalog.row_mut(user, day, sig.imsi.plmn(), tac, label);
                row.in_designated_range |= designated;
                row.in_published_m2m_range |= published;
                row.hourly[sig.time.hour_of_day() as usize] += 1;
                row.events += 1;
                if !sig.result.is_ok() {
                    row.failed_events += 1;
                } else {
                    row.radio_flags.record(sig.rat, false, false);
                }
                row.visited.insert(sig.visited.packed());
                if let Some(sector) = sig.sector {
                    let pos = self.home_network.sector_position(sector);
                    row.mobility.add(pos, 1.0);
                }
            }
            SimEvent::Voice(v) => {
                let Some(label) = self.label_for(v.imsi.plmn(), v.visited) else {
                    return;
                };
                let user = anonymize_u64(self.key, v.imsi.packed());
                let day = Day(v.time.day().0);
                let tac = v.imei.tac();
                self.cdr_count += 1;
                if v.visited == self.studied {
                    self.element_day(day).msc += 1;
                }
                let designated = self.designated_ranges.iter().any(|r| r.contains(v.imsi));
                let published = self.published_m2m_ranges.iter().any(|r| r.contains(v.imsi));
                let row = self.catalog.row_mut(user, day, v.imsi.plmn(), tac, label);
                row.in_designated_range |= designated;
                row.in_published_m2m_range |= published;
                row.hourly[v.time.hour_of_day() as usize] += 1;
                match v.kind {
                    VoiceKind::Call => row.calls += 1,
                    VoiceKind::SmsLike => row.sms += 1,
                }
                row.radio_flags.record(v.rat, false, true);
                row.visited.insert(v.visited.packed());
                if v.visited == self.studied {
                    row.mobility
                        .add(self.home_network.sector_position(v.sector), 1.0);
                }
            }
            SimEvent::Data(d) => {
                let Some(label) = self.label_for(d.imsi.plmn(), d.visited) else {
                    return;
                };
                let user = anonymize_u64(self.key, d.imsi.packed());
                let day = Day(d.time.day().0);
                let tac = d.imei.tac();
                self.xdr_count += 1;
                if d.visited == self.studied {
                    if d.rat.is_lte_family() {
                        self.element_day(day).sgw += 1;
                    } else {
                        self.element_day(day).ggsn += 1;
                    }
                }
                let designated = self.designated_ranges.iter().any(|r| r.contains(d.imsi));
                let published = self.published_m2m_ranges.iter().any(|r| r.contains(d.imsi));
                let apn_sym = self.catalog.intern_apn(&d.apn.full());
                let row = self.catalog.row_mut(user, day, d.imsi.plmn(), tac, label);
                row.in_designated_range |= designated;
                row.in_published_m2m_range |= published;
                row.hourly[d.time.hour_of_day() as usize] += 1;
                row.data_sessions += 1;
                row.bytes_up += d.bytes_up;
                row.bytes_down += d.bytes_down;
                row.apns.insert(apn_sym);
                row.radio_flags.record(d.rat, true, false);
                row.visited.insert(d.visited.packed());
                if d.visited == self.studied {
                    row.mobility
                        .add(self.home_network.sector_position(d.sector), 1.0);
                }
            }
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
        assert_eq!(p.catalog.len(), 1);
        let row = p.catalog.iter().next().unwrap();
        assert_eq!(row.label, RoamingLabel::IH);
        assert_eq!(row.events, 1);
        assert_eq!(row.data_sessions, 1);
        assert!(row
            .apns
            .iter()
            .any(|&a| p.catalog.apn_str(a).contains("centricaplc")));
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
        assert!(p.catalog.is_empty());
        assert_eq!(p.radio_event_count(), 0);
        assert_eq!(p.xdr_count(), 0);
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
        let row = p.catalog.iter().next().unwrap();
        assert_eq!(row.label, RoamingLabel::HA);
        assert_eq!(row.events, 0, "no radio events for outbound roamers");
        assert_eq!(row.mobility.weight(), 0.0, "no sector visibility abroad");
    }

    #[test]
    fn failures_counted_and_no_radio_flag() {
        let mut p = probe();
        let imsi = Imsi::new(NL, 9).unwrap();
        p.on_event(&sig_event(imsi, MNO, false));
        let row = p.catalog.iter().next().unwrap();
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
        let row = p.catalog.iter().next().unwrap();
        assert_eq!(row.calls, 1);
        assert!(row.radio_flags.voice.contains(Rat::G2));
        assert!(row.used_voice() && !row.used_data());
        assert_eq!(p.cdr_count(), 1);
    }

    #[test]
    fn mvno_sim_gets_virtual_label() {
        let mut p = probe();
        let imsi = Imsi::new(Plmn::of(234, 31), 3).unwrap();
        p.on_event(&sig_event(imsi, MNO, true));
        let row = p.catalog.iter().next().unwrap();
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
        assert_eq!(p.catalog.len(), 2);
        assert_eq!(p.catalog.device_count(), 1);
    }
}
