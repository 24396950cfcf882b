//! Declarative behaviors, pinned by golden digests.
//!
//! Every device steps a `wtr_sim::behavior` matrix; `spec_matrix`
//! compiles each device spec into one. This suite pins:
//!
//! 1. **Per vertical**: for every [`Vertical`], the event stream of the
//!    base class and of its sticky-failure, switch-happy and
//!    flaky-presence variants matches a golden digest.
//! 2. **Validation** (proptest): `BehaviorMatrix::new`/`validate` rejects
//!    every corruption of a well-formed matrix, and accepts + roundtrips
//!    (serde, byte-stable) every well-formed parameterization.
//!
//! Scenario-scale output is pinned by the golden digests in
//! `tests/shard_determinism.rs`.

use proptest::prelude::*;
use where_things_roam::model::country::Country;
use where_things_roam::model::hash::mix64;
use where_things_roam::model::ids::{Imei, Imsi, Plmn, Tac};
use where_things_roam::model::rat::RatSet;
use where_things_roam::model::time::SimTime;
use where_things_roam::model::vertical::Vertical;
use where_things_roam::radio::geo::CountryGeometry;
use where_things_roam::radio::network::{CoverageFaults, RadioNetwork};
use where_things_roam::radio::sector::GridSpacing;
use where_things_roam::sim::behavior::{
    profile_matrix, states, BehaviorMatrix, BehaviorOptions, BehaviorRow, EmissionSpec, PlanTarget,
    StateId, MAX_PLAN_TARGETS,
};
use where_things_roam::sim::device::{DeviceAgent, DeviceSpec, ItineraryLeg, PresenceModel};
use where_things_roam::sim::engine::Engine;
use where_things_roam::sim::events::ProcedureResult;
use where_things_roam::sim::traffic::TrafficProfile;
use where_things_roam::sim::world::{AllowAllPolicy, NetworkDirectory, RoamingWorld, VecSink};
use where_things_roam::sim::MobilityModel;

fn uk_geom() -> CountryGeometry {
    CountryGeometry::of(Country::by_iso("GB").expect("GB exists"))
}

fn directory() -> NetworkDirectory {
    let mut dir = NetworkDirectory::new();
    for plmn in [Plmn::of(234, 10), Plmn::of(234, 15), Plmn::of(234, 20)] {
        dir.add(
            "GB",
            RadioNetwork::new(
                plmn,
                RatSet::CONVENTIONAL,
                uk_geom(),
                GridSpacing::default(),
                CoverageFaults::NONE,
            ),
        );
    }
    dir
}

fn vertical_spec(vertical: Vertical, index: u64, days: u32) -> DeviceSpec {
    let traffic = TrafficProfile::for_vertical(vertical);
    DeviceSpec {
        index,
        imsi: Imsi::new(Plmn::of(234, 10), index).unwrap(),
        imei: Imei::new(Tac::new(35_000_000).unwrap(), index as u32 % 1_000_000).unwrap(),
        vertical,
        radio_caps: RatSet::CONVENTIONAL,
        apns: vec!["internet.mnc010.mcc234.gprs".parse().unwrap()],
        data_enabled: traffic.data_sessions_per_day > 0.0,
        voice_enabled: traffic.voice_per_day > 0.0,
        traffic,
        presence: PresenceModel::always(days),
        itinerary: vec![ItineraryLeg {
            from_day: 0,
            country_iso: "GB".into(),
            mobility: MobilityModel::stationary_in(&uk_geom(), index),
        }],
        switch_propensity: 0.0,
        event_failure_prob: 0.0,
        sticky_failure: None,
    }
}

/// The base spec of `vertical` plus the variants that exercise every wake
/// branch: misprovisioned (sticky attach failure), switch-happy with
/// transient failures, and a flaky presence window.
fn vertical_variants(vertical: Vertical, base: u64, days: u32) -> Vec<DeviceSpec> {
    let mut sticky = vertical_spec(vertical, base + 1, days);
    sticky.sticky_failure = Some(ProcedureResult::UnknownSubscription);
    let mut switcher = vertical_spec(vertical, base + 2, days);
    switcher.switch_propensity = 1.0;
    switcher.event_failure_prob = 0.1;
    let mut flaky = vertical_spec(vertical, base + 3, days);
    flaky.presence = PresenceModel {
        first_day: 1,
        last_day: days - 1,
        daily_active_prob: 0.5,
    };
    vec![vertical_spec(vertical, base, days), sticky, switcher, flaky]
}

/// Window of the per-vertical checks, in days.
const DAYS: u32 = 6;

/// Digest of the serialized event stream [`vertical_variants`] emits
/// over [`DAYS`] days, per vertical in `Vertical::ALL` order (spec
/// indices `10 * position ..`).
const VERTICAL_EVENT_DIGESTS: [(Vertical, u64); 9] = [
    (Vertical::Smartphone, 0x6591_395f_1316_1ad5),
    (Vertical::FeaturePhone, 0x72a5_665b_4d1c_5c26),
    (Vertical::SmartMeter, 0x639f_501e_00da_4930),
    (Vertical::ConnectedCar, 0x8662_0f5f_56e1_5da4),
    (Vertical::AssetTracker, 0xd8b6_9e55_8f1f_d5be),
    (Vertical::Wearable, 0x0f0a_8a29_8095_2314),
    (Vertical::PaymentTerminal, 0x78b2_56c0_fb66_f3c2),
    (Vertical::SecurityAlarm, 0x3c77_eb65_f765_9eb5),
    (Vertical::IndustrialSensor, 0xbe95_baae_07e4_a528),
];

/// Order-sensitive digest: bytes folded 8 at a time through `mix64`.
fn digest(bytes: &[u8]) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for chunk in bytes.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        acc = mix64(acc ^ u64::from_le_bytes(b));
    }
    mix64(acc ^ bytes.len() as u64)
}

#[test]
fn every_vertical_matches_event_digest_golden() {
    for (i, &(vertical, golden)) in VERTICAL_EVENT_DIGESTS.iter().enumerate() {
        assert_eq!(vertical, Vertical::ALL[i], "golden table out of order");
        let world = RoamingWorld::new(directory(), Box::new(AllowAllPolicy), VecSink::default());
        let mut engine = Engine::new(world, SimTime::from_secs(u64::from(DAYS) * 86_400));
        for spec in vertical_variants(vertical, i as u64 * 10, DAYS) {
            engine.add_agent(DeviceAgent::new(spec, 7));
        }
        let lines: Vec<String> = engine
            .run()
            .sink
            .events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect();
        assert_eq!(
            digest(lines.join("\n").as_bytes()),
            golden,
            "vertical {vertical:?} event stream diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Validation + serde (proptest).
// ---------------------------------------------------------------------

fn base_matrix(vertical_idx: usize) -> BehaviorMatrix {
    let vertical = Vertical::ALL[vertical_idx % Vertical::ALL.len()];
    profile_matrix(
        &TrafficProfile::for_vertical(vertical),
        &BehaviorOptions::default(),
    )
}

/// One deliberate corruption of a valid matrix. Each arm breaks exactly
/// one invariant `validate` checks.
fn corrupt(m: &mut BehaviorMatrix, kind: usize, row: usize, bad: f64) {
    let row = row % m.rows.len();
    match kind {
        0 => m.rows.clear(),
        1 => m.entry = StateId(m.rows.len() as u32),
        2 => m.rows[row].event_rate = bad,
        3 => m.rows[row].transitions.clear(),
        4 => m.rows[row].transitions = vec![(StateId(m.rows.len() as u32), 1.0)],
        5 => {
            m.rows[row].transitions = vec![(StateId(0), 0.0), (StateId(1), 0.0)];
        }
        6 => {
            m.rows[row].transitions = vec![(StateId(0), 1.0), (StateId(1), -1.0)];
        }
        7 => {
            if let EmissionSpec::Plan(plan) = &mut m.rows[0].emission {
                plan.daily_active_prob = 1.0 + bad.abs().max(0.001);
            } else {
                unreachable!("row 0 of a compiled matrix is the plan row");
            }
        }
        8 => {
            if let EmissionSpec::Plan(plan) = &mut m.rows[0].emission {
                plan.targets = vec![
                    PlanTarget {
                        state: states::SIGNALING,
                        scheduled: true,
                    };
                    MAX_PLAN_TARGETS + 1
                ];
            }
        }
        9 => m.params.per_device_sigma = -bad.abs() - 0.001,
        10 => m.params.sticky_breadth_weights = vec![-1.0, 2.0],
        _ => m.params.reselect_rotate_prob = 1.0 + bad.abs().max(0.001),
    }
}

proptest! {
    /// Every corruption of a valid matrix is rejected by `validate`, and
    /// `BehaviorMatrix::new` refuses to construct it.
    #[test]
    fn malformed_matrices_are_rejected(
        vertical_idx in 0usize..Vertical::ALL.len(),
        kind in 0usize..12,
        row in 0usize..4,
        bad in prop_oneof![Just(-1.0f64), Just(f64::NAN), Just(f64::INFINITY), -1e6f64..-0.001],
    ) {
        let mut m = base_matrix(vertical_idx);
        prop_assert!(m.validate().is_ok());
        corrupt(&mut m, kind, row, bad);
        prop_assert!(m.validate().is_err(), "corruption {kind} accepted");
        prop_assert!(
            BehaviorMatrix::new(m.params.clone(), m.rows.clone(), m.entry).is_err(),
            "constructor accepted corruption {kind}"
        );
    }

    /// Well-formed parameterizations are accepted and serde-roundtrip to
    /// the identical matrix *and* identical bytes (canonical form).
    #[test]
    fn valid_matrices_roundtrip_byte_stable(
        vertical_idx in 0usize..Vertical::ALL.len(),
        daily_active_prob in 0.0f64..1.0,
        switch_propensity in 0.0f64..1.0,
        event_failure_prob in 0.0f64..1.0,
        data_enabled in any::<bool>(),
        voice_enabled in any::<bool>(),
        apn_count in 1u32..4,
        sticky in any::<bool>(),
    ) {
        let vertical = Vertical::ALL[vertical_idx];
        let opts = BehaviorOptions {
            daily_active_prob,
            switch_propensity,
            event_failure_prob,
            sticky_failure: sticky.then_some(ProcedureResult::UnknownSubscription),
            data_enabled,
            voice_enabled,
            apn_count,
        };
        let m = profile_matrix(&TrafficProfile::for_vertical(vertical), &opts);
        prop_assert!(m.validate().is_ok());
        let json = serde_json::to_string(&m).unwrap();
        let back: BehaviorMatrix = serde_json::from_str(&json).unwrap();
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(&back, &m);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}

/// A silent row that branches is accepted — the interpreter supports
/// richer shapes than the compiler emits today.
#[test]
fn branching_silent_rows_validate() {
    let mut m = base_matrix(0);
    m.rows.push(BehaviorRow {
        transitions: vec![
            (states::SIGNALING, 0.7),
            (states::DATA, 0.2),
            (states::VOICE, 0.1),
        ],
        event_rate: 0.5,
        emission: EmissionSpec::Silent,
    });
    assert!(m.validate().is_ok());
}
