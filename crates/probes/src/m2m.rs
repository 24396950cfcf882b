//! The M2M platform probe (§3.1).
//!
//! "The monitoring probes capture control plane information, focusing
//! specifically on the attach/detach procedures … Given that few HMNOs
//! issue the global IoT SIMs, the monitoring probes reside close to the
//! infrastructure of the HMNOs. The dataset does not provide visibility
//! into the data plane traffic."
//!
//! Implementation of that vantage point:
//!
//! * only **signaling** events are observed (no data, no voice);
//! * only devices whose IMSI falls in a watched HMNO's **dedicated M2M
//!   range** are observed (the probe serves the platform, not the MNOs);
//! * only **4G** procedures are captured ("we do not capture traffic for
//!   2G or 3G in the dataset");
//! * only procedures **visible at the home network** are captured (local
//!   RAUs are not — see [`M2mMessageType::from_procedure`]);
//! * subscriber IDs are hashed before storage.

use crate::records::{M2mMessageType, M2mTransaction};
use wtr_model::hash::{anonymize_u64, AnonKey};
use wtr_model::ids::ImsiRange;
use wtr_sim::events::SimEvent;
use wtr_sim::world::EventSink;

/// The HMNO-side signaling probe of the M2M platform.
#[derive(Debug, Clone)]
pub struct M2mProbe {
    watched: Vec<ImsiRange>,
    key: AnonKey,
    /// The captured transaction log, in time order.
    pub transactions: Vec<M2mTransaction>,
    dropped_unwatched: u64,
}

impl M2mProbe {
    /// Creates a probe watching the dedicated M2M IMSI ranges of `hmnos`.
    pub fn new(watched: Vec<ImsiRange>, key: AnonKey) -> Self {
        M2mProbe {
            watched,
            key,
            transactions: Vec::new(),
            dropped_unwatched: 0,
        }
    }

    /// Events skipped because the SIM is not a watched platform SIM.
    pub fn dropped_unwatched(&self) -> u64 {
        self.dropped_unwatched
    }
}

impl EventSink for M2mProbe {
    fn on_event(&mut self, event: &SimEvent) {
        // Control plane only: the probe has no data/voice visibility.
        let SimEvent::Signaling(sig) = event else {
            return;
        };
        if !self.watched.iter().any(|r| r.contains(sig.imsi)) {
            self.dropped_unwatched += 1;
            return;
        }
        if !sig.rat.is_lte_family() {
            // The platform probes watch the 4G/EPC core; NB-IoT signaling
            // traverses the same MME/HSS path (§8) and is captured too.
            return;
        }
        let Some(message) = M2mMessageType::from_procedure(sig.procedure) else {
            return;
        };
        self.transactions.push(M2mTransaction {
            device: anonymize_u64(self.key, sig.imsi.packed()),
            time: sig.time,
            sim_plmn: sig.imsi.plmn(),
            visited_plmn: sig.visited,
            message,
            result: sig.result,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::ids::{Imei, Imsi, Plmn, Tac};
    use wtr_model::rat::Rat;
    use wtr_model::time::SimTime;
    use wtr_sim::events::{ProcedureResult, ProcedureType, SignalingEvent};

    const ES: Plmn = Plmn::of(214, 7);
    const UK: Plmn = Plmn::of(234, 30);

    fn watched_range() -> ImsiRange {
        ImsiRange::new(ES, 5_000_000_000, 6_000_000_000).unwrap()
    }

    fn probe() -> M2mProbe {
        M2mProbe::new(vec![watched_range()], AnonKey::FIXED)
    }

    fn sig(imsi: Imsi, rat: Rat, proc_: ProcedureType) -> SimEvent {
        SimEvent::Signaling(SignalingEvent {
            time: SimTime::from_secs(10),
            device: 1,
            imsi,
            imei: Imei::new(Tac::new(35_000_000).unwrap(), 1).unwrap(),
            visited: UK,
            sector: None,
            rat,
            procedure: proc_,
            result: ProcedureResult::Ok,
        })
    }

    #[test]
    fn captures_watched_4g_auth() {
        let mut p = probe();
        let imsi = Imsi::new(ES, 5_000_000_123).unwrap();
        p.on_event(&sig(imsi, Rat::G4, ProcedureType::Authentication));
        assert_eq!(p.transactions.len(), 1);
        let t = p.transactions[0];
        assert_eq!(t.sim_plmn, ES);
        assert_eq!(t.visited_plmn, UK);
        assert_eq!(t.message, M2mMessageType::Authentication);
        // ID is anonymized, not the raw IMSI pack.
        assert_ne!(t.device, imsi.packed());
    }

    #[test]
    fn drops_non_4g() {
        let mut p = probe();
        let imsi = Imsi::new(ES, 5_000_000_001).unwrap();
        p.on_event(&sig(imsi, Rat::G2, ProcedureType::Authentication));
        p.on_event(&sig(imsi, Rat::G3, ProcedureType::UpdateLocation));
        assert!(p.transactions.is_empty());
    }

    #[test]
    fn drops_consumer_sims_of_same_hmno() {
        // A consumer IMSI of the same operator is outside the dedicated
        // M2M range — invisible to the platform probe.
        let mut p = probe();
        let consumer = Imsi::new(ES, 42).unwrap();
        p.on_event(&sig(consumer, Rat::G4, ProcedureType::Authentication));
        assert!(p.transactions.is_empty());
        assert_eq!(p.dropped_unwatched(), 1);
    }

    #[test]
    fn drops_local_procedures() {
        let mut p = probe();
        let imsi = Imsi::new(ES, 5_000_000_002).unwrap();
        p.on_event(&sig(imsi, Rat::G4, ProcedureType::RoutingAreaUpdate));
        p.on_event(&sig(imsi, Rat::G4, ProcedureType::Detach));
        assert!(p.transactions.is_empty());
    }

    #[test]
    fn ignores_data_and_voice_planes() {
        use wtr_model::apn::Apn;
        use wtr_sim::events::{DataSession, VoiceCall, VoiceKind};
        let mut p = probe();
        let imsi = Imsi::new(ES, 5_000_000_003).unwrap();
        let imei = Imei::new(Tac::new(35_000_000).unwrap(), 3).unwrap();
        let sector = {
            use wtr_model::country::Country;
            use wtr_radio::geo::{CountryGeometry, GeoPoint};
            use wtr_radio::sector::{GridSpacing, SectorGrid};
            SectorGrid::new(
                UK,
                CountryGeometry::of(Country::by_iso("GB").unwrap()),
                GridSpacing::default(),
            )
            .sector_at(GeoPoint::new(52.0, -1.0), Rat::G4)
        };
        p.on_event(&SimEvent::Data(DataSession {
            time: SimTime::ZERO,
            device: 1,
            imsi,
            imei,
            visited: UK,
            sector,
            rat: Rat::G4,
            apn: "intelligent.m2m".parse::<Apn>().unwrap(),
            duration_secs: 10,
            bytes_up: 1,
            bytes_down: 1,
        }));
        p.on_event(&SimEvent::Voice(VoiceCall {
            time: SimTime::ZERO,
            device: 1,
            imsi,
            imei,
            visited: UK,
            sector,
            rat: Rat::G4,
            kind: VoiceKind::SmsLike,
            duration_secs: 0,
        }));
        assert!(p.transactions.is_empty());
    }

    #[test]
    fn device_hash_is_stable() {
        let mut p = probe();
        let imsi = Imsi::new(ES, 5_000_000_004).unwrap();
        p.on_event(&sig(imsi, Rat::G4, ProcedureType::Authentication));
        p.on_event(&sig(imsi, Rat::G4, ProcedureType::UpdateLocation));
        assert_eq!(p.transactions[0].device, p.transactions[1].device);
    }
}
