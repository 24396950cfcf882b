//! Dual-vantage integration: the paper's two datasets observe the *same*
//! ecosystem from different points. "We analyze two real-world datasets
//! from an operational world-wide M2M platform and from an European MNO
//! that hosts (i.e., as a VMNO) many devices whose connectivity is
//! provided by the global M2M platform" (§2.3).
//!
//! This test wires one simulation into *both* probes through a
//! [`TeeSink`]: a platform-issued connected car roaming in the UK must
//! surface in the HMNO-side transaction log *and* in the visited MNO's
//! devices-catalog — with consistent facts on each side.

use where_things_roam::model::country::Country;
use where_things_roam::model::hash::{anonymize_u64, AnonKey};
use where_things_roam::model::ids::{Imei, Tac};
use where_things_roam::model::operators::{well_known, OperatorRegistry};
use where_things_roam::model::rat::RatSet;
use where_things_roam::model::roaming::RoamingLabel;
use where_things_roam::model::time::SimTime;
use where_things_roam::model::vertical::Vertical;
use where_things_roam::platform::M2mPlatform;
use where_things_roam::probes::{M2mProbe, MnoProbe};
use where_things_roam::radio::geo::CountryGeometry;
use where_things_roam::radio::network::{CoverageFaults, RadioNetwork};
use where_things_roam::radio::sector::GridSpacing;
use where_things_roam::scenarios::Universe;
use where_things_roam::sim::device::{DeviceAgent, DeviceSpec, ItineraryLeg, PresenceModel};
use where_things_roam::sim::engine::Engine;
use where_things_roam::sim::mobility::MobilityModel;
use where_things_roam::sim::traffic::TrafficProfile;
use where_things_roam::sim::world::{RoamingWorld, TeeSink};

#[test]
fn platform_device_visible_from_both_vantage_points() {
    let universe = Universe::standard(CoverageFaults::NONE);
    let mut platform = universe.platform.clone();
    let provision = platform.provision(well_known::DE_HMNO).expect("member");

    // A German connected car spending the window in the UK on 4G.
    let gb = CountryGeometry::of(Country::by_iso("GB").unwrap());
    let spec = DeviceSpec {
        index: 0,
        imsi: provision.imsi,
        imei: Imei::new(Tac::new(35_000_002).unwrap(), 1).unwrap(),
        vertical: Vertical::ConnectedCar,
        radio_caps: RatSet::CONVENTIONAL,
        apns: vec!["fleet.connectedcar.de.mnc002.mcc262.gprs".parse().unwrap()],
        data_enabled: true,
        voice_enabled: false,
        traffic: TrafficProfile::for_vertical(Vertical::ConnectedCar),
        presence: PresenceModel::always(5),
        itinerary: vec![ItineraryLeg {
            from_day: 0,
            country_iso: "GB".into(),
            mobility: MobilityModel::Waypoint {
                geometry: gb,
                leg_hours: 3,
                seed: 1,
            },
        }],
        switch_propensity: 0.0,
        event_failure_prob: 0.0,
        sticky_failure: None,
    };

    // Both probes tap the same event stream.
    let m2m_probe = M2mProbe::new(
        vec![M2mPlatform::m2m_range(well_known::DE_HMNO)],
        AnonKey::FIXED,
    );
    let home_network = RadioNetwork::new(
        well_known::UK_STUDIED_MNO,
        RatSet::CONVENTIONAL,
        gb,
        GridSpacing::default(),
        CoverageFaults::NONE,
    );
    let mno_probe = MnoProbe::new(
        well_known::UK_STUDIED_MNO,
        OperatorRegistry::standard(3),
        home_network,
        AnonKey::FIXED,
        5,
    );
    let tee = TeeSink {
        a: m2m_probe,
        b: mno_probe,
    };
    let world = RoamingWorld::new(universe.directory, Box::new(universe.agreements), tee);
    let mut engine = Engine::new(world, SimTime::from_secs(5 * 86_400));
    let anon = anonymize_u64(AnonKey::FIXED, spec.imsi.packed());
    engine.add_agent(DeviceAgent::new(spec, 7));
    let world = engine.run();
    let m2m_probe = world.sink.a;
    let mno_probe = world.sink.b;

    // HMNO-side: the platform probe captured the car's 4G signaling, all
    // of it while visiting the studied UK network.
    assert!(
        !m2m_probe.transactions.is_empty(),
        "platform probe saw nothing"
    );
    for t in &m2m_probe.transactions {
        assert_eq!(t.device, anon, "one device only");
        assert_eq!(t.sim_plmn, well_known::DE_HMNO);
        assert_eq!(t.visited_plmn, well_known::UK_STUDIED_MNO);
    }

    // VMNO-side: the same (identically anonymized) device shows up in the
    // devices-catalog as an international inbound roamer with the
    // automotive APN.
    let catalog = mno_probe.into_catalog();
    assert!(catalog.device_count() == 1, "{}", catalog.device_count());
    let rows: Vec<_> = catalog.iter().collect();
    assert!(rows.iter().all(|r| r.user == anon));
    assert!(rows.iter().all(|r| r.label == RoamingLabel::IH));
    assert!(rows.iter().any(|r| r
        .apns
        .iter()
        .any(|&a| catalog.apn_str(a).contains("connectedcar"))));

    // Cross-vantage consistency: the MNO sees *more* events than the
    // platform (local RAUs and data never reach the HMNO probe).
    let mno_events: u64 = rows.iter().map(|r| r.events).sum();
    assert!(
        mno_events >= m2m_probe.transactions.len() as u64,
        "MNO {} < platform {}",
        mno_events,
        m2m_probe.transactions.len()
    );
}
