//! Determinism matrix for the parallel pipeline (`wtr_sim::par`).
//!
//! The contract: every parallelized stage — catalog aggregation, device
//! summaries, §4.3 classification, the analysis modules and the ECDF sort —
//! produces **byte-identical serialized output at any thread count**. This
//! test runs the full MNO and M2M pipelines at 1, 2 and 8 worker threads
//! (via `wtr_sim::par::set_threads`, which outranks the `WTR_THREADS`
//! environment knob) and compares the serialized artifacts byte-for-byte.

use where_things_roam::core::analysis::population;
use where_things_roam::core::analysis::rat_usage::{self, Plane};
use where_things_roam::core::analysis::traffic::{self, TrafficMetric};
use where_things_roam::core::analysis::{activity::StatusGroup, platform};
use where_things_roam::core::classify::{Classifier, DeviceClass};
use where_things_roam::core::summary::summarize;
use where_things_roam::probes::io;
use where_things_roam::scenarios::{
    M2mScenario, M2mScenarioConfig, MnoScenario, MnoScenarioConfig,
};
use where_things_roam::sim::par;

/// Thread counts in the matrix. 1 is the serial reference; 2 and 8
/// exercise uneven chunk-to-worker assignments.
const MATRIX: [usize; 3] = [1, 2, 8];

/// `par::set_threads` is process-global; serialize the tests that mutate
/// it so a failure is attributed to the right matrix cell.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `pipeline` once per thread count and asserts all serialized
/// outputs equal the single-threaded reference.
fn assert_matrix<F: Fn() -> Vec<u8>>(what: &str, pipeline: F) {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut reference: Option<Vec<u8>> = None;
    for &t in &MATRIX {
        par::set_threads(Some(t));
        let bytes = pipeline();
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(
                r, &bytes,
                "{what}: output at {t} threads differs from 1 thread"
            ),
        }
    }
    par::set_threads(None);
}

#[test]
fn mno_pipeline_is_thread_count_invariant() {
    let config = MnoScenarioConfig {
        devices: 400,
        days: 5,
        seed: 7,
        nbiot_meter_fraction: 0.0,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    };
    assert_matrix("mno pipeline", || {
        let output = MnoScenario::new(config.clone()).run();
        let summaries = summarize(&output.catalog);
        let classification =
            Classifier::new(&output.tacdb).classify(&summaries, output.catalog.apn_table());

        // Serialize every stage that touches the parallel layer.
        let mut bytes = Vec::new();
        io::write_catalog(&mut bytes, &output.catalog).unwrap();
        bytes.extend(serde_json::to_string(&summaries).unwrap().into_bytes());
        bytes.extend(serde_json::to_string(&classification).unwrap().into_bytes());

        let ls = population::label_shares(&output.catalog);
        bytes.extend(serde_json::to_string(&ls).unwrap().into_bytes());
        let hc = population::home_countries(&summaries, &classification);
        bytes.extend(serde_json::to_string(&hc).unwrap().into_bytes());
        let cl = population::class_label_breakdown(&summaries, &classification);
        bytes.extend(serde_json::to_string(&cl).unwrap().into_bytes());

        let classes = [
            DeviceClass::Smart,
            DeviceClass::Feat,
            DeviceClass::M2m,
            DeviceClass::M2mMaybe,
        ];
        for plane in [Plane::Any, Plane::Data, Plane::Voice] {
            let usage = rat_usage::rat_usage(&summaries, &classification, &classes, plane);
            bytes.extend(serde_json::to_string(&usage).unwrap().into_bytes());
        }
        let pairs = [
            (DeviceClass::M2m, StatusGroup::InboundRoaming),
            (DeviceClass::Smart, StatusGroup::Native),
            (DeviceClass::Smart, StatusGroup::InboundRoaming),
        ];
        for metric in [
            TrafficMetric::SignalingPerDay,
            TrafficMetric::CallsPerDay,
            TrafficMetric::BytesPerDay,
        ] {
            let dist = traffic::traffic_dist(&summaries, &classification, &pairs, metric);
            bytes.extend(serde_json::to_string(&dist).unwrap().into_bytes());
        }
        bytes
    });
}

#[test]
fn m2m_pipeline_is_thread_count_invariant() {
    let config = M2mScenarioConfig {
        devices: 400,
        days: 4,
        seed: 11,
        g4_hole_fraction: 0.1,
    };
    assert_matrix("m2m pipeline", || {
        let output = M2mScenario::new(config.clone()).run();
        let mut bytes = Vec::new();
        io::write_transactions(&mut bytes, &output.transactions).unwrap();
        let devices = platform::per_device(&output.transactions);
        bytes.extend(serde_json::to_string(&devices).unwrap().into_bytes());
        let overview = platform::overview(&output.transactions);
        bytes.extend(serde_json::to_string(&overview).unwrap().into_bytes());
        let dynamics = platform::dynamics(&output.transactions, None);
        bytes.extend(serde_json::to_string(&dynamics).unwrap().into_bytes());
        bytes
    });
}

#[test]
fn catalog_io_roundtrip_is_thread_count_invariant() {
    // The line-parallel reader must reconstruct the catalog identically at
    // any thread count, including parse-error line attribution order
    // (errors surface on the first failing line in input order).
    let output = MnoScenario::new(MnoScenarioConfig {
        devices: 200,
        days: 3,
        seed: 3,
        nbiot_meter_fraction: 0.0,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    })
    .run();
    let mut serialized = Vec::new();
    io::write_catalog(&mut serialized, &output.catalog).unwrap();

    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut reference: Option<Vec<u8>> = None;
    for &t in &MATRIX {
        par::set_threads(Some(t));
        let back = io::read_catalog_auto(&serialized[..]).unwrap();
        let mut bytes = Vec::new();
        io::write_catalog(&mut bytes, &back).unwrap();
        assert_eq!(bytes, serialized, "catalog roundtrip at {t} threads");
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(r, &bytes),
        }
    }
    par::set_threads(None);
}

#[test]
fn wtrcat_codec_is_thread_count_invariant() {
    // The chunked WTRCAT reader decodes row-group chunks on par workers;
    // encoded bytes, the decoded catalog (via its JSONL re-export) and a
    // re-encode must be identical at 1, 2 and 8 threads — and identical
    // to a JSONL roundtrip of the same catalog.
    let output = MnoScenario::new(MnoScenarioConfig {
        devices: 300,
        days: 4,
        seed: 13,
        nbiot_meter_fraction: 0.05,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    })
    .run();
    let mut jsonl = Vec::new();
    io::write_catalog(&mut jsonl, &output.catalog).unwrap();

    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut reference: Option<(Vec<u8>, Vec<u8>)> = None;
    for &t in &MATRIX {
        par::set_threads(Some(t));
        let mut bin = Vec::new();
        io::write_catalog_bin(&mut bin, &output.catalog).unwrap();
        let back = io::read_catalog_auto(&bin[..]).unwrap();
        // Decoded catalog re-exports to the exact pre-encode JSONL…
        let mut reexport = Vec::new();
        io::write_catalog(&mut reexport, &back).unwrap();
        assert_eq!(reexport, jsonl, "WTRCAT→JSONL at {t} threads");
        // …and re-encodes to the exact same binary (canonical form).
        let mut reencode = Vec::new();
        io::write_catalog_bin(&mut reencode, &back).unwrap();
        assert_eq!(reencode, bin, "WTRCAT re-encode at {t} threads");
        match &reference {
            None => reference = Some((bin, reencode)),
            Some((rb, rr)) => {
                assert_eq!(rb, &bin, "WTRCAT bytes at {t} threads");
                assert_eq!(rr, &reencode);
            }
        }
    }
    par::set_threads(None);
}
