//! Streaming == materialized, byte for byte (the PR-3 contract).
//!
//! Four equivalences, each across the 1/2/3/8 thread matrix where
//! threads could matter:
//!
//! 1. **Simulation**: `MnoScenario::run()` produces the exact same
//!    catalog and ground truth at every thread count, including under
//!    record loss.
//! 2. **File ingest**: `stream_catalog` (chunk-at-a-time JSONL/WTRCAT
//!    reader feeding the summary and label-share folds, no
//!    `DevicesCatalog` ever built) produces the exact summaries + label
//!    shares `materialize_catalog` does over the resident catalog, on a
//!    simulated catalog and on one whose devices straddle the readers'
//!    chunk cuts.
//! 3. **Analysis**: the [`analyze`] suite is byte-identical at every
//!    thread count.
//! 4. **Resident snapshot**: `materialize_catalog` over an in-memory
//!    catalog equals a `stream_catalog` replay of its JSONL export, down
//!    to the mobility bits and every rendered table, and a `Tenant` fed
//!    the same rows serves exactly those tables.
//!
//! Plus a proptest that each device summary is the fold of its own
//! device's rows alone, whatever other devices share the catalog.

use proptest::prelude::*;
use std::collections::BTreeMap;
use where_things_roam::core::report::{render_analysis, render_classify, ANALYSES};
use where_things_roam::core::stream::{
    analyze, materialize_catalog, stream_catalog, AnalysisSuite, StreamedCatalog,
};
use where_things_roam::core::summary::summarize;
use where_things_roam::model::hash::mix64;
use where_things_roam::model::ids::{Plmn, Tac};
use where_things_roam::model::roaming::RoamingLabel;
use where_things_roam::model::tacdb::TacDatabase;
use where_things_roam::model::time::Day;
use where_things_roam::probes::catalog::DevicesCatalog;
use where_things_roam::probes::io;
use where_things_roam::probes::wire::CAT_CHUNK_ROWS;
use where_things_roam::radio::geo::GeoPoint;
use where_things_roam::scenarios::{MnoScenario, MnoScenarioConfig};
use where_things_roam::serve::{Tenant, TABLES};
use where_things_roam::sim::par;

/// Thread counts in the matrix (serial reference + uneven assignments;
/// 3 exercises unpaired tails in the tree-shaped reductions).
const MATRIX: [usize; 4] = [1, 2, 3, 8];

/// `par::set_threads` is process-global; serialize the tests that
/// mutate it.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn scenario_config() -> MnoScenarioConfig {
    MnoScenarioConfig {
        devices: 400,
        days: 5,
        seed: 7,
        nbiot_meter_fraction: 0.05,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    }
}

/// Serializes every table of a suite into one byte string.
fn suite_bytes(suite: &AnalysisSuite) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut push = |s: String| bytes.extend(s.into_bytes());
    push(serde_json::to_string(&suite.classification).unwrap());
    push(serde_json::to_string(&suite.home).unwrap());
    push(serde_json::to_string(&suite.class_label).unwrap());
    push(serde_json::to_string(&suite.rat).unwrap());
    push(serde_json::to_string(&suite.traffic).unwrap());
    push(serde_json::to_string(&suite.active).unwrap());
    push(serde_json::to_string(&suite.gyration).unwrap());
    push(serde_json::to_string(&suite.smip).unwrap());
    push(serde_json::to_string(&suite.smip_native).unwrap());
    push(serde_json::to_string(&suite.smip_roaming).unwrap());
    push(serde_json::to_string(&suite.verticals).unwrap());
    push(serde_json::to_string(&suite.diurnal).unwrap());
    push(serde_json::to_string(&suite.revenue).unwrap());
    bytes
}

/// Order-sensitive digest: bytes folded 8 at a time through `mix64`
/// (the fold `shard_determinism` pins its goldens with).
fn digest(bytes: &[u8]) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for chunk in bytes.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        acc = mix64(acc ^ u64::from_le_bytes(b));
    }
    mix64(acc ^ bytes.len() as u64)
}

/// Asserts `bytes` match a golden `(digest, byte count)` pin.
fn assert_pin(what: &str, bytes: &[u8], (golden, len): (u64, usize)) {
    assert_eq!(bytes.len(), len, "{what}: byte count");
    let got = digest(bytes);
    assert_eq!(
        got, golden,
        "{what}: digest {got:#018x}, golden {golden:#018x}"
    );
}

/// Serializes a [`StreamedCatalog`] into one byte string.
fn data_bytes(data: &StreamedCatalog) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend(serde_json::to_string(&data.summaries).unwrap().into_bytes());
    bytes.extend(
        serde_json::to_string(&data.label_shares)
            .unwrap()
            .into_bytes(),
    );
    bytes.extend(data.apns.strings().join("\n").into_bytes());
    bytes.extend(data.window_days.to_le_bytes());
    bytes.extend(data.rows.to_le_bytes());
    bytes
}

#[test]
fn streaming_simulation_matches_materialized() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for loss in [0.0, 0.07] {
        let mut config = scenario_config();
        config.record_loss_fraction = loss;
        let mut reference = None;
        for &t in &MATRIX {
            par::set_threads(Some(t));
            let out = MnoScenario::new(config.clone()).run();
            let mut bytes = Vec::new();
            io::write_catalog(&mut bytes, &out.catalog).unwrap();
            let fp = (bytes, out.ground_truth);
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(r, &fp, "{t} threads vs 1, loss {loss}"),
            }
        }
    }
    par::set_threads(None);
}

/// The raw mobility accumulator bits of every summary.
fn mobility_bits(data: &StreamedCatalog) -> Vec<[u64; 5]> {
    data.summaries
        .iter()
        .map(|s| s.mobility.to_parts().map(f64::to_bits))
        .collect()
}

/// More than two reader chunks of rows (JSONL line blocks and WTRCAT
/// row groups are both `CAT_CHUNK_ROWS` rows), with 3–7 days per device
/// so devices straddle the cuts, and fractional mobility so a regrouped
/// f64 sum would change bits.
fn straddling_catalog() -> DevicesCatalog {
    let rows = (0..1800u64).flat_map(|user| (0..3 + user % 5).map(move |day| (user, day)));
    let mut cat = DevicesCatalog::new(7);
    let meter = cat.intern_apn("smhp.centricaplc.com.mnc004.mcc204.gprs");
    let tac = Tac::new(35_000_000).unwrap();
    for (user, day) in rows {
        let (plmn, label) = if user % 3 == 0 {
            (Plmn::of(204, 4), RoamingLabel::IH)
        } else {
            (Plmn::of(234, 30), RoamingLabel::HH)
        };
        let r = cat.row_mut(user, Day(day as u32), plmn, tac, label);
        r.events += 1 + (user * 7 + day) % 23;
        r.mobility.add(
            GeoPoint::new(
                50.0 + user as f64 * 0.0131 + day as f64 * 1e-4,
                -1.5 + day as f64 * 0.0173,
            ),
            r.events as f64 * 0.37,
        );
        if user % 3 == 0 {
            r.apns.insert(meter);
        }
    }
    cat
}

#[test]
fn streamed_ingest_matches_materialized() {
    let scenario = MnoScenario::new(scenario_config()).run().catalog;
    let straddling = straddling_catalog();
    let users: Vec<u64> = straddling.iter().map(|r| r.user).collect();
    for cut in [CAT_CHUNK_ROWS, 2 * CAT_CHUNK_ROWS] {
        assert_eq!(users[cut - 1], users[cut], "a device straddles row {cut}");
    }

    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // Per catalog and format: the chunked stream, and the materialized
    // read-then-reduce path, must equal the resident catalog's fold byte
    // for byte at every thread count. Every route hands out canonical
    // APN symbols, so the formats agree as well.
    for (name, catalog) in [("scenario", &scenario), ("straddling", &straddling)] {
        let resident = materialize_catalog(catalog);
        let (want, want_bits) = (data_bytes(&resident), mobility_bits(&resident));
        let mut jsonl = Vec::new();
        io::write_catalog(&mut jsonl, catalog).unwrap();
        let mut wtrcat = Vec::new();
        io::write_catalog_bin(&mut wtrcat, catalog).unwrap();
        for (what, file) in [("JSONL", &jsonl), ("WTRCAT", &wtrcat)] {
            for &t in &MATRIX {
                par::set_threads(Some(t));
                let materialized =
                    materialize_catalog(&io::read_catalog_auto(file.as_slice()).unwrap());
                let streamed = stream_catalog(file.as_slice()).unwrap();
                for (route, data) in [("read", &materialized), ("stream", &streamed)] {
                    let at = format!("{name} {what} {route} at {t} threads");
                    assert_eq!(want, data_bytes(data), "{at}");
                    assert_eq!(want_bits, mobility_bits(data), "{at}");
                }
            }
        }
    }
    par::set_threads(None);
}

#[test]
fn fast_scanner_read_matches_serde_read() {
    // The zero-copy JSONL scanner is an ingest fast path with a serde
    // fallback; on a real simulated catalog (every row canonical) it
    // must produce the exact catalog the serde-only reader does, down
    // to APN symbol numbering and re-exported bytes.
    let output = MnoScenario::new(scenario_config()).run();
    let mut jsonl = Vec::new();
    io::write_catalog(&mut jsonl, &output.catalog).unwrap();

    let fast = io::read_catalog_auto(jsonl.as_slice()).unwrap();
    let serde_only = io::read_catalog_serde(jsonl.as_slice()).unwrap();
    let export = |cat: &DevicesCatalog| {
        let mut bytes = Vec::new();
        io::write_catalog(&mut bytes, cat).unwrap();
        io::write_catalog_bin(&mut bytes, cat).unwrap();
        bytes
    };
    assert_eq!(export(&fast), export(&serde_only));
    assert_eq!(export(&fast), {
        let mut bytes = jsonl.clone();
        io::write_catalog_bin(&mut bytes, &output.catalog).unwrap();
        bytes
    });
}

#[test]
fn analysis_suite_is_thread_count_invariant() {
    let output = MnoScenario::new(scenario_config()).run();
    let summaries = summarize(&output.catalog);
    let apns = output.catalog.apn_table();
    let days = output.catalog.window_days();

    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let mut reference: Option<Vec<u8>> = None;
    for &t in &MATRIX {
        par::set_threads(Some(t));
        let suite = suite_bytes(&analyze(&summaries, apns, days, &output.tacdb));
        match &reference {
            None => reference = Some(suite),
            Some(r) => assert_eq!(r, &suite, "{t} threads vs 1"),
        }
    }
    par::set_threads(None);
}

/// The 13 tables the server renders, keyed like [`TABLES`]: each
/// analysis as `wtr analyze <table>` prints it, then `classify` and the
/// tenant summary.
fn rendered_tables(
    data: &StreamedCatalog,
    suite: &AnalysisSuite,
) -> BTreeMap<&'static str, String> {
    let mut tables: BTreeMap<&'static str, String> = ANALYSES
        .iter()
        .map(|name| (*name, render_analysis(name, data, suite).unwrap() + "\n"))
        .collect();
    tables.insert(
        "classify",
        render_classify("full", data.summaries.len(), &suite.classification),
    );
    tables.insert(
        "summary",
        format!(
            "rows: {}\ndevices: {}\nwindow_days: {}\n",
            data.rows,
            data.summaries.len(),
            data.window_days
        ),
    );
    tables
}

/// Row-partitions `catalog` into `parts` tap upload bodies, alternating
/// JSONL and WTRCAT.
fn tap_bodies(catalog: &DevicesCatalog, parts: usize) -> Vec<Vec<u8>> {
    (0..parts)
        .map(|part| {
            let mut tap = DevicesCatalog::new(catalog.window_days());
            for row in catalog.iter().skip(part).step_by(parts) {
                tap.adopt_entry(row.clone(), catalog.apn_table());
            }
            let mut body = Vec::new();
            if part % 2 == 0 {
                io::write_catalog(&mut body, &tap).unwrap();
            } else {
                io::write_catalog_bin(&mut body, &tap).unwrap();
            }
            body
        })
        .collect()
}

#[test]
fn materialized_snapshot_matches_text_replay() {
    // The resident route (`materialize_catalog`) and the text route
    // (`write_catalog` then `stream_catalog`) must agree bit for bit:
    // floats that survived a trip through JSON text are the one thing
    // that could differ. A change to the analysis code moves both routes
    // alike, so golden pins of the resident route catch it: the whole
    // suite, and the 13 rendered tables concatenated in `TABLES` order,
    // each as (digest, byte count).
    let tacdb = TacDatabase::standard();
    for (loss, suite_pin, tables_pin) in [
        (
            0.0,
            (0x3cb7_fcc0_d058_f62f, 30_265),
            (0x27e3_a462_64af_b569, 3_578),
        ),
        (
            0.07,
            (0xe871_959f_94e3_84a0, 30_217),
            (0x5cde_3167_4592_5c4f, 3_566),
        ),
    ] {
        let mut config = scenario_config();
        config.record_loss_fraction = loss;
        let catalog = MnoScenario::new(config).run().catalog;
        let mut jsonl = Vec::new();
        io::write_catalog(&mut jsonl, &catalog).unwrap();
        let replayed = stream_catalog(jsonl.as_slice()).unwrap();
        let resident = materialize_catalog(&catalog);
        let suite =
            |data: &StreamedCatalog| analyze(&data.summaries, &data.apns, data.window_days, &tacdb);
        let (replayed_suite, resident_suite) = (suite(&replayed), suite(&resident));
        assert_eq!(
            suite_bytes(&resident_suite),
            suite_bytes(&replayed_suite),
            "suite, loss {loss}"
        );
        assert_eq!(
            serde_json::to_string(&resident.label_shares).unwrap(),
            serde_json::to_string(&replayed.label_shares).unwrap(),
            "label shares, loss {loss}"
        );
        assert_eq!(
            mobility_bits(&resident),
            mobility_bits(&replayed),
            "mobility bits, loss {loss}"
        );
        assert_pin(
            &format!("suite, loss {loss}"),
            &suite_bytes(&resident_suite),
            suite_pin,
        );
        let tables = rendered_tables(&resident, &resident_suite);
        assert_eq!(tables.len(), TABLES.len());
        let table_bytes: Vec<u8> = TABLES.iter().flat_map(|t| tables[t].bytes()).collect();
        assert_pin(&format!("tables, loss {loss}"), &table_bytes, tables_pin);
        assert_eq!(
            tables,
            rendered_tables(&replayed, &replayed_suite),
            "tables, loss {loss}"
        );

        let tenant = Tenant::new("pin", 1000);
        for body in tap_bodies(&catalog, 3) {
            tenant.ingest(&body).unwrap();
        }
        let served = tenant.reports().unwrap();
        for table in TABLES {
            assert_eq!(
                served.tables[table], tables[table],
                "served {table}, loss {loss}"
            );
        }
    }
}

#[test]
fn apn_intern_order_does_not_reach_reports() {
    // Four inbound devices: one uses only a car APN, three use it and a
    // meter APN. Row order numbers the car APN first, sorted order the
    // meter APN, and the Fig. 12 split takes a device's first matching
    // APN — so the reports must not depend on which numbering a route
    // started from.
    let mut catalog = DevicesCatalog::new(1);
    let car = catalog.intern_apn("zz.scania.com.mnc002.mcc262.gprs");
    let meter = catalog.intern_apn("aa.centricaplc.com.mnc004.mcc204.gprs");
    let tac = Tac::new(35_000_000).unwrap();
    for user in 0..4u64 {
        let row = catalog.row_mut(user, Day(0), Plmn::of(204, 4), tac, RoamingLabel::IH);
        row.events = 10;
        row.apns.insert(car);
        if user > 0 {
            row.apns.insert(meter);
        }
    }
    let mut jsonl = Vec::new();
    io::write_catalog(&mut jsonl, &catalog).unwrap();
    let mut wtrcat = Vec::new();
    io::write_catalog_bin(&mut wtrcat, &catalog).unwrap();

    let tacdb = TacDatabase::standard();
    let routes = [
        ("JSONL", stream_catalog(jsonl.as_slice()).unwrap()),
        ("WTRCAT", stream_catalog(wtrcat.as_slice()).unwrap()),
        ("resident", materialize_catalog(&catalog)),
    ]
    .map(|(route, data)| {
        let suite = analyze(&data.summaries, &data.apns, data.window_days, &tacdb);
        (route, suite_bytes(&suite), rendered_tables(&data, &suite))
    });
    let (_, suite, tables) = &routes[0];
    assert!(
        tables["verticals"].starts_with("verticals: 1 cars"),
        "{}",
        tables["verticals"]
    );
    for (route, other_suite, other_tables) in &routes[1..] {
        assert_eq!(suite, other_suite, "{route} suite vs JSONL");
        assert_eq!(tables, other_tables, "{route} tables vs JSONL");
    }
}

// ---------------------------------------------------------------------
// Per-device summaries
// ---------------------------------------------------------------------

/// A small deterministic catalog parameterized by proptest input rows.
fn build_catalog(rows: &[(u8, u8, u8, u16)]) -> DevicesCatalog {
    let mut cat = DevicesCatalog::new(5);
    let car = cat.intern_apn("fleet.scania.com.mnc002.mcc262.gprs");
    let meter = cat.intern_apn("smhp.centricaplc.com.mnc004.mcc204.gprs");
    let tac = Tac::new(35_000_000).unwrap();
    for &(user, day, kind, events) in rows {
        let (plmn, label) = match kind % 3 {
            0 => (Plmn::of(204, 4), RoamingLabel::IH),
            1 => (Plmn::of(234, 30), RoamingLabel::HH),
            _ => (Plmn::of(262, 2), RoamingLabel::IH),
        };
        let day = u32::from(day % 5);
        let r = cat.row_mut(u64::from(user), Day(day), plmn, tac, label);
        r.events += u64::from(events);
        r.bytes_up += u64::from(events) * 100;
        // Fractional mobility: regrouping these f64 sums changes bits.
        r.mobility.add(
            GeoPoint::new(
                50.0 + f64::from(user) * 0.0131 + f64::from(events) * 1e-4,
                -1.5 + f64::from(day) * 0.0173,
            ),
            f64::from(events) * 0.37,
        );
        if kind % 3 == 0 {
            r.apns.insert(meter);
        } else if kind % 3 == 2 {
            r.apns.insert(car);
        }
    }
    cat
}

proptest! {
    #[test]
    fn summary_depends_only_on_its_device_rows(
        rows in prop::collection::vec((0u8..40, 0u8..5, 0u8..6, 1u16..500), 1..80),
    ) {
        let cat = build_catalog(&rows);
        for summary in summarize(&cat) {
            let mut own = DevicesCatalog::new(cat.window_days());
            for row in cat.iter().filter(|r| r.user == summary.user) {
                own.insert_entry(row.clone());
            }
            prop_assert_eq!(summarize(&own), vec![summary]);
        }
    }
}
