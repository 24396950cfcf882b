//! Sharded == serial, byte for byte (the PR-4 contract).
//!
//! The scenario runners deal the agent population round-robin into K
//! shards, run one independent event loop per shard, and merge the
//! shard-local probes. Shards hold disjoint devices, so the merge is
//! exact whichever devices share a shard. This suite pins the whole
//! contract:
//!
//! 1. **Shard matrix**: catalog bytes (JSONL *and* WTRCAT), ground
//!    truth, record counts and element load are identical at shards =
//!    1/2/3/8, with and without record loss and the GSMA transparency
//!    what-if; and at 3 and 8 shards no shard dispatches more than 1.3×
//!    the mean.
//! 2. **Golden anchors**: the dispatch-order re-anchor — from the old
//!    `(time, global insertion seq)` tie-break to the shard-stable
//!    `(time, agent, per-agent seq)` total order — changed *only* the
//!    cross-agent interleaving. Digests captured from the pre-change
//!    engine pin that: the event **multiset** of a small fixed world is
//!    unchanged, and the loss-free catalog (which depends only on
//!    per-device streams) is byte-identical. Further digests pin the
//!    small world's raw emission order, the lossy catalog, the whole
//!    lossy fingerprint and the transparency catalog.
//! 3. **Merge algebra** (proptest): `MnoProbe::absorb` over arbitrary
//!    device partitions reproduces the serial fold exactly, the probe's
//!    per-SIM open rows fold like a catalog lookup per event in any
//!    arrival order, and the `LossySink` drop set is invariant to how
//!    devices are partitioned into shards.

use proptest::prelude::*;
use where_things_roam::model::country::Country;
use where_things_roam::model::hash::{mix64, AnonKey};
use where_things_roam::model::ids::{Imei, Imsi, Plmn, Tac};
use where_things_roam::model::operators::{well_known, OperatorRegistry};
use where_things_roam::model::rat::{Rat, RatSet};
use where_things_roam::model::time::SimTime;
use where_things_roam::probes::faults::LossySink;
use where_things_roam::probes::io;
use where_things_roam::probes::mno::MnoProbe;
use where_things_roam::radio::geo::{CountryGeometry, GeoPoint};
use where_things_roam::radio::network::{CoverageFaults, RadioNetwork};
use where_things_roam::radio::sector::GridSpacing;
use where_things_roam::scenarios::{MnoScenario, MnoScenarioConfig, MnoScenarioOutput, Universe};
use where_things_roam::sim::events::{
    DataSession, ProcedureResult, ProcedureType, SignalingEvent, SimEvent, VoiceCall,
};
use where_things_roam::sim::world::{EventSink, VecSink};

/// Shard counts in the matrix (serial reference + uneven splits; 3
/// folds an odd number of shard probes).
const SHARDS: [usize; 4] = [1, 2, 3, 8];

// ---------------------------------------------------------------------
// Golden anchors, captured from the engine *before* the dispatch-order
// change (old tie-break: global insertion sequence).
// ---------------------------------------------------------------------

/// 400 devices x 5 days, seed 7, nbiot 0.05, loss 0: JSONL catalog
/// bytes. Re-recorded for catalog schema v2, whose rows dropped the call
/// seconds and the sector-id set: this is the pre-shard golden with
/// those two keys stripped.
const CATALOG_JSONL_DIGEST: u64 = 0x95d9b1435507d4d9;
/// Same run: (radio events, CDRs, xDRs).
const OLD_RECORD_COUNTS: (u64, u64, u64) = (70_376, 4_808, 35_936);
/// Same run: catalog rows.
const OLD_CATALOG_ROWS: usize = 1_470;
/// Small fixed world: digest of the *sorted* serialized event lines —
/// the event multiset, insensitive to cross-agent interleaving.
const OLD_EVENT_MULTISET_DIGEST: u64 = 0x7bce9976374b188a;
/// Small fixed world: digest of the events in raw emission order under
/// the `(time, agent, per-agent seq)` dispatch order.
const EVENT_RAW_ORDER_DIGEST: u64 = 0xdb4f2e20b9537b30;
/// 400 devices x 5 days, seed 7, nbiot 0.05, loss 0.07: the full
/// [`fingerprint`] (both catalog formats, ground truth, element load,
/// record counts). Re-recorded for catalog schema v2 (was
/// `0x3fc8306b81d4c42f`): it digests the WTRCAT bytes too.
const LOSSY_FINGERPRINT_DIGEST: u64 = 0x2fbb477ad739efc6;
/// Same run at loss 0.07: JSONL catalog bytes.
const LOSSY_CATALOG_JSONL_DIGEST: u64 = 0x20840effe16a7f8c;
/// 400 devices x 5 days, seed 7, nbiot 0.05, loss 0, with the GSMA
/// transparency what-if on: JSONL catalog bytes. The NL meter HMNO's
/// published block tags its SIMs' rows `in_published_m2m_range`.
const TRANSPARENCY_CATALOG_JSONL_DIGEST: u64 = 0x7ba3674a1f3584f6;
/// Same run: rows tagged `in_published_m2m_range`.
const TRANSPARENCY_PUBLISHED_ROWS: usize = 58;
/// 400 devices x 5 days, seed 7, nbiot 0.05, loss 0, with every vertical
/// overridden by its `Universe::standard_behaviors` entry (what
/// `wtr behavior-template` writes and `--behavior` loads): JSONL catalog
/// bytes.
const TEMPLATE_CATALOG_JSONL_DIGEST: u64 = 0xb1d7f1f1b372dbbb;
/// Same run: catalog rows.
const TEMPLATE_CATALOG_ROWS: usize = 1_829;

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

fn scenario_config(loss: f64) -> MnoScenarioConfig {
    MnoScenarioConfig {
        devices: 400,
        days: 5,
        seed: 7,
        nbiot_meter_fraction: 0.05,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: loss,
    }
}

/// [`scenario_config`] with the GSMA transparency what-if on.
fn transparency_config(loss: f64) -> MnoScenarioConfig {
    MnoScenarioConfig {
        gsma_transparency: true,
        ..scenario_config(loss)
    }
}

/// Everything the shard matrix compares, flattened to bytes.
fn fingerprint(out: &MnoScenarioOutput) -> Vec<u8> {
    let mut bytes = Vec::new();
    io::write_catalog(&mut bytes, &out.catalog).unwrap();
    io::write_catalog_bin(&mut bytes, &out.catalog).unwrap();
    bytes.extend(
        serde_json::to_string(&out.ground_truth)
            .unwrap()
            .into_bytes(),
    );
    bytes.extend(
        serde_json::to_string(&out.element_load)
            .unwrap()
            .into_bytes(),
    );
    bytes.extend(format!("{:?}", out.record_counts).into_bytes());
    bytes
}

#[test]
fn sharded_output_is_shard_count_invariant() {
    let configs = [
        scenario_config(0.0),
        scenario_config(0.07),
        transparency_config(0.07),
    ];
    for config in configs {
        let loss = config.record_loss_fraction;
        let transparency = config.gsma_transparency;
        let mut reference: Option<(Vec<u8>, u64)> = None;
        for &k in &SHARDS {
            let out = MnoScenario::new(config.clone()).run_sharded(k);
            // Per-shard stats cover the whole population, one entry per
            // event loop.
            assert_eq!(out.shard_stats.len(), k, "loss {loss} shards {k}");
            let total = out.engine_stats();
            assert_eq!(total.agents as usize, out.ground_truth.len());
            assert_eq!(total.scheduled, total.dispatched);
            let fp = (fingerprint(&out), total.dispatched);
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(
                    r, &fp,
                    "shards {k} loss {loss} transparency {transparency} diverged from serial"
                ),
            }
        }
    }
}

#[test]
fn shard_loads_stay_near_the_mean() {
    // The population is built class by class; dealing agents round-robin
    // spreads every class over the shards, so no event loop carries much
    // more than its share of the wake-ups.
    for k in [3, 8] {
        let out = MnoScenario::new(scenario_config(0.0)).run_sharded(k);
        let loads: Vec<u64> = out.shard_stats.iter().map(|s| s.dispatched).collect();
        let mean = loads.iter().sum::<u64>() as f64 / k as f64;
        let max = *loads.iter().max().unwrap() as f64;
        assert!(
            max <= 1.3 * mean,
            "shards {k}: dispatched {loads:?}, max/mean {:.2}",
            max / mean
        );
    }
}

#[test]
fn catalog_bytes_match_pre_shard_golden_anchor() {
    // The dispatch-order re-anchor changed only cross-agent
    // interleaving; each device's own event stream — and therefore the
    // loss-free catalog, whose rows are pure per-device folds — is
    // untouched. The digest below is the one captured from the
    // pre-change engine, with the keys catalog schema v2 retired
    // stripped from its rows.
    let out = MnoScenario::new(scenario_config(0.0)).run_sharded(1);
    let mut jsonl = Vec::new();
    io::write_catalog(&mut jsonl, &out.catalog).unwrap();
    assert_eq!(digest(&jsonl), CATALOG_JSONL_DIGEST);
    assert_eq!(out.record_counts, OLD_RECORD_COUNTS);
    assert_eq!(out.catalog.len(), OLD_CATALOG_ROWS);
}

#[test]
fn lossy_fingerprint_matches_golden() {
    // Record loss drops a partition-invariant set of probe records; the
    // digests pin which ones, on top of everything the loss-free golden
    // anchor covers.
    let out = MnoScenario::new(scenario_config(0.07)).run_sharded(1);
    let mut jsonl = Vec::new();
    io::write_catalog(&mut jsonl, &out.catalog).unwrap();
    assert_eq!(digest(&jsonl), LOSSY_CATALOG_JSONL_DIGEST);
    assert_eq!(digest(&fingerprint(&out)), LOSSY_FINGERPRINT_DIGEST);
}

#[test]
fn transparency_catalog_matches_golden() {
    // The published-range tag is the only row field the what-if
    // changes; nothing else pins it.
    let out = MnoScenario::new(transparency_config(0.0)).run_sharded(1);
    let mut jsonl = Vec::new();
    io::write_catalog(&mut jsonl, &out.catalog).unwrap();
    assert_eq!(out.catalog.len(), OLD_CATALOG_ROWS);
    let published = out
        .catalog
        .iter()
        .filter(|row| row.in_published_m2m_range)
        .count();
    assert_eq!(published, TRANSPARENCY_PUBLISHED_ROWS);
    assert_eq!(digest(&jsonl), TRANSPARENCY_CATALOG_JSONL_DIGEST);
}

#[test]
fn template_override_catalog_matches_golden() {
    // The `--behavior` path: every vertical steps its class baseline
    // instead of its per-device spec behavior, at one shard and three.
    let overrides = Universe::standard_behaviors();
    for k in [1, 3] {
        let out = MnoScenario::new(scenario_config(0.0))
            .with_behavior_overrides(overrides.clone())
            .run_sharded(k);
        let mut jsonl = Vec::new();
        io::write_catalog(&mut jsonl, &out.catalog).unwrap();
        assert_eq!(out.catalog.len(), TEMPLATE_CATALOG_ROWS, "shards {k}");
        assert_eq!(digest(&jsonl), TEMPLATE_CATALOG_JSONL_DIGEST, "shards {k}");
    }
}

#[test]
fn dispatch_reorder_preserved_event_multiset() {
    // One-time migration check for the (time, agent, per-agent seq)
    // tie-break: replay a small fixed world and compare the *sorted*
    // serialized events against the digest captured from the old
    // engine. Equality proves the re-anchor changed interleaving only —
    // no event was created, lost, or altered. The unsorted lines then pin
    // the raw emission order itself.
    let mut lines: Vec<String> = small_world::run()
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect();
    assert_eq!(lines.len(), 498);
    assert_eq!(
        digest(lines.join("\n").as_bytes()),
        EVENT_RAW_ORDER_DIGEST,
        "raw emission order changed"
    );
    lines.sort();
    assert_eq!(
        digest(lines.join("\n").as_bytes()),
        OLD_EVENT_MULTISET_DIGEST,
        "event multiset changed across the dispatch-order migration"
    );
}

/// The fixed 12-meter world both engine generations ran.
mod small_world {
    use where_things_roam::model::country::Country;
    use where_things_roam::model::ids::{Imei, Imsi, Plmn, Tac};
    use where_things_roam::model::rat::RatSet;
    use where_things_roam::model::time::SimTime;
    use where_things_roam::model::vertical::Vertical;
    use where_things_roam::radio::geo::CountryGeometry;
    use where_things_roam::radio::network::{CoverageFaults, RadioNetwork};
    use where_things_roam::radio::sector::GridSpacing;
    use where_things_roam::sim::device::{DeviceAgent, DeviceSpec, ItineraryLeg, PresenceModel};
    use where_things_roam::sim::engine::Engine;
    use where_things_roam::sim::events::SimEvent;
    use where_things_roam::sim::mobility::MobilityModel;
    use where_things_roam::sim::traffic::TrafficProfile;
    use where_things_roam::sim::world::{AllowAllPolicy, NetworkDirectory, RoamingWorld, VecSink};

    const MNO: Plmn = Plmn::of(234, 30);
    const OTHER: Plmn = Plmn::of(234, 10);

    fn uk_geom() -> CountryGeometry {
        CountryGeometry::of(Country::by_iso("GB").unwrap())
    }

    fn directory() -> NetworkDirectory {
        let mut dir = NetworkDirectory::new();
        for plmn in [MNO, OTHER] {
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

    fn meter_spec(index: u64) -> DeviceSpec {
        DeviceSpec {
            index,
            imsi: Imsi::new(Plmn::of(204, 4), index).unwrap(),
            imei: Imei::new(Tac::new(35_000_000).unwrap(), index as u32 % 1_000_000).unwrap(),
            vertical: Vertical::SmartMeter,
            radio_caps: RatSet::G2_ONLY,
            apns: vec!["smhp.centricaplc.com.mnc004.mcc204.gprs".parse().unwrap()],
            data_enabled: true,
            voice_enabled: false,
            traffic: TrafficProfile::for_vertical(Vertical::SmartMeter),
            presence: PresenceModel::always(7),
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

    pub fn run() -> Vec<SimEvent> {
        let world = RoamingWorld::new(directory(), Box::new(AllowAllPolicy), VecSink::default());
        let mut engine = Engine::new(world, SimTime::from_secs(5 * 86_400));
        for i in 0..12u64 {
            engine.add_agent(DeviceAgent::new(meter_spec(i + 1), 99));
        }
        engine.run().sink.events
    }
}

// ---------------------------------------------------------------------
// Merge algebra proptests.
// ---------------------------------------------------------------------

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

fn probe_proto() -> MnoProbe {
    MnoProbe::new(
        MNO,
        OperatorRegistry::standard(3),
        home_network(),
        AnonKey::FIXED,
        5,
    )
}

/// Builds one synthetic probe event from a proptest row. `seq` is the
/// device's own event counter, so times are strictly increasing within
/// each device regardless of the global interleaving. `twist` moves some
/// events abroad (bit 0 and 1 both clear) and changes the TAC of others
/// (bit 2); the merge-algebra test passes 1, neither.
fn build_event(
    net: &RadioNetwork,
    device: u8,
    day: u8,
    hour: u8,
    kind: u8,
    seq: u64,
    twist: u8,
) -> SimEvent {
    let device = u64::from(device);
    let time =
        SimTime::from_secs(u64::from(day) * 86_400 + u64::from(hour) * 3_600 + (seq * 7) % 3_600);
    // Alternate native and inbound SIMs so both HH and IH rows appear.
    let imsi = if device % 2 == 0 {
        Imsi::new(MNO, 1_000 + device).unwrap()
    } else {
        Imsi::new(NL, 5_000_000_000 + device).unwrap()
    };
    // Abroad, a native SIM shows up as H:A through clearing records and
    // an inbound one not at all.
    let visited = if twist % 4 == 0 { ES } else { MNO };
    let tac = 35_000_000 + u32::from(twist & 4);
    let imei = Imei::new(Tac::new(tac).unwrap(), device as u32).unwrap();
    let rat = if kind % 2 == 0 { Rat::G2 } else { Rat::G4 };
    let sector = net
        .grid()
        .sector_at(GeoPoint::new(51.0 + f64::from(kind % 5) * 0.4, -1.0), rat);
    match kind % 3 {
        0 => SimEvent::Signaling(SignalingEvent {
            time,
            device,
            imsi,
            imei,
            visited,
            sector: Some(sector),
            rat,
            procedure: if kind % 4 == 0 {
                ProcedureType::Attach
            } else {
                ProcedureType::Authentication
            },
            result: if kind % 5 == 0 {
                ProcedureResult::RoamingNotAllowed
            } else {
                ProcedureResult::Ok
            },
        }),
        1 => SimEvent::Data(DataSession {
            time,
            device,
            imsi,
            imei,
            visited,
            sector,
            rat,
            apn: if device % 2 == 0 {
                "internet.albion.gb".parse().unwrap()
            } else {
                "smhp.centricaplc.com.mnc004.mcc204.gprs".parse().unwrap()
            },
            duration_secs: 30,
            bytes_up: 500 + u64::from(kind) * 10,
            bytes_down: 100,
        }),
        _ => SimEvent::Voice(VoiceCall {
            time,
            device,
            imsi,
            imei,
            visited,
            sector,
            rat,
            kind: if kind % 2 == 0 {
                where_things_roam::sim::events::VoiceKind::SmsLike
            } else {
                where_things_roam::sim::events::VoiceKind::Call
            },
            duration_secs: u32::from(kind) * 3,
        }),
    }
}

/// Canonicalized probe state flattened to bytes for comparison.
fn probe_fingerprint(mut probe: MnoProbe) -> Vec<u8> {
    probe.canonicalize();
    let mut bytes = Vec::new();
    bytes.extend(
        format!(
            "{} {} {}\n",
            probe.radio_event_count(),
            probe.cdr_count(),
            probe.xdr_count()
        )
        .into_bytes(),
    );
    bytes.extend(
        serde_json::to_string(&probe.element_load().to_vec())
            .unwrap()
            .into_bytes(),
    );
    io::write_catalog(&mut bytes, &probe.into_catalog()).unwrap();
    bytes
}

proptest! {
    /// `absorb` over any device partition == the serial fold: the
    /// algebra the sharded scenario runners rest on.
    #[test]
    fn absorb_of_device_partition_equals_serial_fold(
        rows in prop::collection::vec((0u8..10, 0u8..5, 0u8..24, 0u8..30), 1..120),
        parts in 2usize..5,
    ) {
        let net = home_network();
        // Per-device sequence counters give each device a well-ordered
        // private stream, like the engine does.
        let mut seq = [0u64; 10];
        let events: Vec<SimEvent> = rows
            .iter()
            .map(|&(device, day, hour, kind)| {
                let s = seq[device as usize];
                seq[device as usize] += 1;
                build_event(&net, device, day, hour, kind, s, 1)
            })
            .collect();

        // Serial fold: one probe sees everything in order.
        let proto = probe_proto();
        let mut serial = proto.fork_empty();
        for e in &events {
            serial.on_event(e);
        }

        // Sharded fold: partition devices into `parts` groups (shard =
        // device % parts), feed each group's events in their original
        // relative order, then absorb the shard probes left-to-right.
        let mut shards: Vec<MnoProbe> = (0..parts).map(|_| proto.fork_empty()).collect();
        for e in &events {
            shards[(e.device() % parts as u64) as usize].on_event(e);
        }
        let mut merged = shards.remove(0);
        for shard in shards {
            merged.absorb(shard);
        }

        prop_assert_eq!(probe_fingerprint(serial), probe_fingerprint(merged));
    }

    /// The probe's per-SIM open row folds exactly as a catalog lookup
    /// per event would, whatever order events arrive in: devices' days
    /// go back and forth, some events visit abroad, some change the
    /// TAC. The reference probe canonicalizes after every event, which
    /// parks every open row, so each of its events finds its row in the
    /// catalog.
    #[test]
    fn open_rows_fold_like_catalog_lookups_in_any_order(
        rows in prop::collection::vec((0u8..6, 0u8..5, 0u8..24, 0u8..30, 0u8..8), 1..80),
    ) {
        let net = home_network();
        let proto = probe_proto();
        let mut straight = proto.fork_empty();
        let mut parked = proto.fork_empty();
        for (seq, &(device, day, hour, kind, twist)) in rows.iter().enumerate() {
            let event = build_event(&net, device, day, hour, kind, seq as u64, twist);
            straight.on_event(&event);
            parked.on_event(&event);
            parked.canonicalize();
        }
        let (straight, parked) = (probe_fingerprint(straight), probe_fingerprint(parked));
        prop_assert_eq!(String::from_utf8_lossy(&straight), String::from_utf8_lossy(&parked));
    }

    /// The LossySink drop coin is a pure function of (salt, device,
    /// per-device seq): the set of surviving records cannot depend on
    /// how devices are partitioned into shards.
    #[test]
    fn lossy_drop_set_is_shard_partition_invariant(
        lengths in prop::collection::vec(0usize..60, 1..9),
        fraction in 0.0f64..1.001,
        salt in any::<u64>(),
        parts in 1usize..9,
    ) {
        let event = |device: u64, k: u64| {
            SimEvent::Signaling(SignalingEvent {
                time: SimTime::from_secs(k * 60),
                device,
                imsi: Imsi::new(NL, 5_000_000_000 + device).unwrap(),
                imei: Imei::new(Tac::new(35_000_000).unwrap(), 1).unwrap(),
                visited: MNO,
                sector: None,
                rat: Rat::G4,
                procedure: ProcedureType::Authentication,
                result: ProcedureResult::Ok,
            })
        };
        let survivors = |sink: &LossySink<VecSink>| -> std::collections::BTreeSet<(u64, u64)> {
            sink.inner()
                .events
                .iter()
                .map(|e| (e.device(), e.time().as_secs()))
                .collect()
        };

        // One global sink over a round-robin interleave of all devices.
        let mut global = LossySink::new(VecSink::default(), fraction, salt);
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        for k in 0..max_len as u64 {
            for (device, &len) in lengths.iter().enumerate() {
                if (k as usize) < len {
                    global.on_event(&event(device as u64, k));
                }
            }
        }

        // Shard-local sinks over a device partition.
        let mut shard_sinks: Vec<LossySink<VecSink>> = (0..parts)
            .map(|_| LossySink::new(VecSink::default(), fraction, salt))
            .collect();
        for (device, &len) in lengths.iter().enumerate() {
            let sink = &mut shard_sinks[device % parts];
            for k in 0..len as u64 {
                sink.on_event(&event(device as u64, k));
            }
        }
        let mut sharded = std::collections::BTreeSet::new();
        let (mut seen, mut dropped) = (0u64, 0u64);
        for sink in &shard_sinks {
            sharded.extend(survivors(sink));
            seen += sink.seen();
            dropped += sink.dropped();
        }

        prop_assert_eq!(survivors(&global), sharded);
        prop_assert_eq!(global.seen(), seen);
        prop_assert_eq!(global.dropped(), dropped);
    }
}
