//! Persistence integration: a catalog exported to JSONL and re-imported
//! must classify identically — the guarantee that lets operators run the
//! pipeline offline on stored datasets.

use where_things_roam::core::classify::Classifier;
use where_things_roam::core::summary::summarize;
use where_things_roam::probes::io;
use where_things_roam::scenarios::{MnoScenario, MnoScenarioConfig};

#[test]
fn export_import_classify_is_lossless() {
    let output = MnoScenario::new(MnoScenarioConfig {
        devices: 800,
        days: 6,
        seed: 21,
        nbiot_meter_fraction: 0.0,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    })
    .run();

    let mut buf = Vec::new();
    io::write_catalog(&mut buf, &output.catalog).unwrap();
    let imported = io::read_catalog_auto(&buf[..]).unwrap();
    assert_eq!(imported.len(), output.catalog.len());
    assert_eq!(imported.device_count(), output.catalog.device_count());

    let original = Classifier::new(&output.tacdb)
        .classify(&summarize(&output.catalog), output.catalog.apn_table());
    let roundtrip =
        Classifier::new(&output.tacdb).classify(&summarize(&imported), imported.apn_table());
    assert_eq!(
        original.classes, roundtrip.classes,
        "classification must survive persistence"
    );
    assert_eq!(original.validated_apns, roundtrip.validated_apns);
    assert_eq!(original.devices_without_apn, roundtrip.devices_without_apn);
}

#[test]
fn transaction_log_jsonl_and_wire_agree() {
    use where_things_roam::probes::wire;
    use where_things_roam::scenarios::{M2mScenario, M2mScenarioConfig};
    let output = M2mScenario::new(M2mScenarioConfig {
        devices: 400,
        days: 4,
        seed: 22,
        g4_hole_fraction: 0.05,
    })
    .run();
    // JSONL roundtrip.
    let mut buf = Vec::new();
    io::write_transactions(&mut buf, &output.transactions).unwrap();
    let jsonl = io::read_transactions(&buf[..]).unwrap();
    // Wire roundtrip.
    let binary = wire::decode_log(wire::encode_log(&output.transactions)).unwrap();
    // All three representations agree.
    assert_eq!(jsonl, output.transactions);
    assert_eq!(binary, output.transactions);
    // And the wire format is much denser than JSONL.
    assert!(buf.len() > 3 * wire::encode_log(&output.transactions).len());
}
