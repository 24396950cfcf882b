//! The shared simulated universe: operators, geometries, radio networks
//! and roaming agreements.
//!
//! Both scenarios run against a [`Universe`]: every country in the model
//! registry gets its MNOs deployed as radio networks, and the platform's
//! carrier runs a global roaming hub (interconnecting the HMNOs with
//! MNOs world-wide, §2.1). That [`AgreementGraph`] is the access policy
//! each shard boxes: it admits or refuses every attach attempt.

use std::collections::BTreeMap;
use wtr_model::country::Country;
use wtr_model::ids::Plmn;
use wtr_model::operators::{well_known, OperatorKind, OperatorRegistry};
use wtr_model::rat::RatSet;
use wtr_model::vertical::Vertical;
use wtr_platform::agreements::AgreementGraph;
use wtr_platform::platform::M2mPlatform;
use wtr_radio::geo::CountryGeometry;
use wtr_radio::network::{CoverageFaults, RadioNetwork};
use wtr_radio::sector::GridSpacing;
use wtr_sim::behavior::{profile_matrix, BehaviorMatrix, BehaviorOptions};
use wtr_sim::traffic::TrafficProfile;
use wtr_sim::world::NetworkDirectory;

/// Everything the scenarios share: registry, networks, agreements,
/// platform.
pub struct Universe {
    /// All operators.
    pub registry: OperatorRegistry,
    /// All radio networks, by country.
    pub directory: NetworkDirectory,
    /// The roaming agreements; each shard boxes a clone as its access
    /// policy.
    pub agreements: AgreementGraph,
    /// The M2M platform (IoT SIM provisioning).
    pub platform: M2mPlatform,
}

impl Universe {
    /// Geometry of a country by ISO code.
    pub fn geometry(iso: &str) -> CountryGeometry {
        CountryGeometry::of(Country::by_iso(iso).expect("known country"))
    }

    /// The standard per-vertical behavior library: each [`Vertical`]'s
    /// calibrated traffic profile compiled into a [`BehaviorMatrix`],
    /// keyed by [`Vertical::label`]. This map (serialized) is exactly the
    /// `--behavior <file.json>` format, and `wtr behavior-template` dumps
    /// it as the starting point for custom device classes.
    ///
    /// Planes whose rate is zero in the profile are compiled disabled, so
    /// the library matrices describe what the class actually does. They
    /// are class-level *baselines*: always active, no switch propensity,
    /// no injected failures. The built-in populations instead compile one
    /// matrix per device (folding in per-device switch propensity, sticky
    /// failures and activity), so overriding a vertical with its template
    /// matrix intentionally replaces that per-device variation with the
    /// class baseline — mobility, presence and APN lists still come from
    /// the device spec.
    pub fn standard_behaviors() -> BTreeMap<String, BehaviorMatrix> {
        Vertical::ALL
            .iter()
            .map(|v| {
                let profile = TrafficProfile::for_vertical(*v);
                let opts = BehaviorOptions {
                    data_enabled: profile.data_sessions_per_day > 0.0,
                    voice_enabled: profile.voice_per_day > 0.0,
                    ..BehaviorOptions::default()
                };
                (v.label().to_owned(), profile_matrix(&profile, &opts))
            })
            .collect()
    }

    /// Builds the standard universe:
    ///
    /// * 3 MNOs per country, curated PLMNs for the paper's named networks;
    /// * every MNO deploys 2G+3G; the first two per country also deploy 4G
    ///   (4G coverage holes per `faults`);
    /// * one **global roaming hub** run by the platform's carrier, joined
    ///   by the platform's four HMNOs, the NL and SE HMNOs and the first
    ///   MNO of every country; a **partner hub**, peered with the global
    ///   one, joined by the second MNO of every country — giving the
    ///   paper's hub-of-hubs footprint;
    /// * bilateral agreements between the studied UK MNO and the paper's
    ///   key foreign HMNOs (NL, SE, ES, DE — the SIM homes of its inbound
    ///   roamers).
    ///
    /// National roaming needs no agreement: the graph admits a SIM on any
    /// network of its home country (the national inbound population, and
    /// roaming smart meters hopping UK networks).
    pub fn standard(faults: CoverageFaults) -> Universe {
        let registry = OperatorRegistry::standard(3);
        let mut directory = NetworkDirectory::new();
        for country in Country::all() {
            let geometry = CountryGeometry::of(country);
            for (idx, op) in registry
                .iter()
                .filter(|o| o.country_iso == country.iso && matches!(o.kind, OperatorKind::Mno))
                .enumerate()
            {
                // First two MNOs run 4G; in EU/RLAH countries (where the
                // paper notes NB-IoT roaming trials are under way, §8) the
                // leading MNO also lights up an NB-IoT carrier.
                let rats = match idx {
                    // The studied UK MNO runs its own NB-IoT trial too
                    // (SMIP's scale makes it an early LPWA adopter).
                    0 if country.eu_rlah || op.plmn == well_known::UK_STUDIED_MNO => {
                        RatSet::CONVENTIONAL.union(RatSet::NBIOT_ONLY)
                    }
                    0 | 1 => RatSet::CONVENTIONAL,
                    _ => RatSet::G2_G3,
                };
                directory.add(
                    country.iso,
                    RadioNetwork::new(op.plmn, rats, geometry, GridSpacing::default(), faults),
                );
            }
        }

        let mut agreements = AgreementGraph::new();
        let global_hub = agreements.add_hub();
        let partner_hub = agreements.add_hub();
        agreements.peer_hubs(global_hub, partner_hub);
        for hmno in [
            well_known::ES_HMNO,
            well_known::DE_HMNO,
            well_known::MX_HMNO,
            well_known::AR_HMNO,
            well_known::NL_SMART_METER_HMNO,
            well_known::SE_HMNO,
        ] {
            agreements.join_hub(global_hub, hmno);
        }
        for country in Country::all() {
            let mnos: Vec<Plmn> = directory.in_country(country.iso).to_vec();
            if let Some(first) = mnos.first() {
                agreements.join_hub(global_hub, *first);
            }
            if let Some(second) = mnos.get(1) {
                agreements.join_hub(partner_hub, *second);
            }
        }
        // The studied MNO's direct bilateral relationships.
        for partner in [
            well_known::NL_SMART_METER_HMNO,
            well_known::SE_HMNO,
            well_known::ES_HMNO,
            well_known::DE_HMNO,
        ] {
            agreements.add_bilateral(well_known::UK_STUDIED_MNO, partner);
        }

        let platform = M2mPlatform::new(vec![
            well_known::ES_HMNO,
            well_known::DE_HMNO,
            well_known::MX_HMNO,
            well_known::AR_HMNO,
        ]);

        Universe {
            registry,
            directory,
            agreements,
            platform,
        }
    }

    /// Retires one RAT from every network of a country — the §8 sunset
    /// what-if. Devices whose hardware only supports the retired RAT are
    /// stranded there.
    pub fn sunset_rat(&mut self, iso: &str, rat: wtr_model::rat::Rat) {
        let plmns: Vec<Plmn> = self.directory.in_country(iso).to_vec();
        let mut rebuilt = NetworkDirectory::new();
        for country in Country::all() {
            for plmn in self.directory.in_country(country.iso).to_vec() {
                let net = self.directory.get(plmn).expect("registered").clone();
                let net = if plmns.contains(&plmn) {
                    let mut rats = net.rats();
                    rats.remove(rat);
                    net.with_rats(rats)
                } else {
                    net
                };
                rebuilt.add(country.iso, net);
            }
        }
        self.directory = rebuilt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_sim::world::AccessPolicy;

    #[test]
    fn every_country_has_networks() {
        let u = Universe::standard(CoverageFaults::NONE);
        for country in Country::all() {
            let nets = u.directory.in_country(country.iso);
            assert!(nets.len() >= 3, "{}: {} networks", country.iso, nets.len());
        }
    }

    #[test]
    fn hub_gives_platform_sims_global_reach() {
        let u = Universe::standard(CoverageFaults::NONE);
        // ES HMNO SIM admitted by the first MNO of an arbitrary far
        // country via the global hub.
        let au = u.directory.in_country("AU")[0];
        assert!(u.agreements.admits(well_known::ES_HMNO, au));
        // …and by second MNOs via the hub peering.
        let au2 = u.directory.in_country("AU")[1];
        assert!(u.agreements.admits(well_known::ES_HMNO, au2));
        // Third MNOs are in no hub: denied without a bilateral.
        let au3 = u.directory.in_country("AU")[2];
        assert!(!u.agreements.admits(well_known::ES_HMNO, au3));
    }

    #[test]
    fn uk_studied_mno_reachable_by_meter_sims() {
        let u = Universe::standard(CoverageFaults::NONE);
        assert!(u
            .agreements
            .admits(well_known::NL_SMART_METER_HMNO, well_known::UK_STUDIED_MNO));
    }

    #[test]
    fn first_two_mnos_deploy_4g() {
        let u = Universe::standard(CoverageFaults::NONE);
        let gb = u.directory.in_country("GB");
        assert!(u
            .directory
            .get(gb[0])
            .unwrap()
            .rats()
            .contains(wtr_model::rat::Rat::G4));
        assert!(u
            .directory
            .get(gb[1])
            .unwrap()
            .rats()
            .contains(wtr_model::rat::Rat::G4));
        assert!(!u
            .directory
            .get(gb[2])
            .unwrap()
            .rats()
            .contains(wtr_model::rat::Rat::G4));
    }

    #[test]
    fn sunset_removes_rat_in_one_country_only() {
        let mut u = Universe::standard(CoverageFaults::NONE);
        u.sunset_rat("GB", wtr_model::rat::Rat::G2);
        for plmn in u.directory.in_country("GB") {
            assert!(!u
                .directory
                .get(*plmn)
                .unwrap()
                .rats()
                .contains(wtr_model::rat::Rat::G2));
        }
        let es = u.directory.in_country("ES")[0];
        assert!(u
            .directory
            .get(es)
            .unwrap()
            .rats()
            .contains(wtr_model::rat::Rat::G2));
    }

    /// Pins the admission answer of every (home, visited) pair the
    /// scenarios can ask about: homes are the registry, the directory and
    /// each country's `primary_mcc`-01; visited networks are the whole
    /// directory; both lists ascend by packed key.
    #[test]
    fn admission_matrix_matches_golden() {
        use wtr_model::hash::mix64;
        use wtr_model::ids::Mnc;

        let u = Universe::standard(CoverageFaults::NONE);
        fn keyed(plmns: impl IntoIterator<Item = Plmn>) -> BTreeMap<u32, Plmn> {
            plmns.into_iter().map(|p| (p.packed(), p)).collect()
        }
        let visited = keyed(
            Country::all()
                .iter()
                .flat_map(|c| u.directory.in_country(c.iso).iter().copied()),
        );
        let mut homes = keyed(u.registry.iter().map(|op| op.plmn));
        homes.extend(&visited);
        homes.extend(keyed(
            Country::all()
                .iter()
                .map(|c| Plmn::new(c.primary_mcc(), Mnc::new2(1).unwrap())),
        ));
        assert_eq!((homes.len(), visited.len()), (303, 301));
        let (mut pairs, mut admitted) = (0u64, 0u64);
        let mut acc = 0x9E37_79B9_7F4A_7C15u64;
        for (&hk, &home) in &homes {
            for (&vk, &v) in &visited {
                let ok = u.agreements.admits(home, v);
                pairs += 1;
                admitted += u64::from(ok);
                acc = mix64(acc ^ (u64::from(hk) << 32 | u64::from(vk)) ^ u64::from(ok));
            }
        }
        assert_eq!((pairs, admitted), (91_203, 38_217));
        assert_eq!(
            acc, 0xeb2e_dcc4_b17a_3cf0,
            "admission matrix drifted: {acc:#018x}"
        );
    }

    #[test]
    fn studied_mno_is_a_first_network() {
        // The studied MNO must deploy 4G (it hosts smartphones); curated
        // PLMNs are inserted first, so it is the first GB network.
        let u = Universe::standard(CoverageFaults::NONE);
        assert_eq!(u.directory.in_country("GB")[0], well_known::UK_STUDIED_MNO);
    }
}
