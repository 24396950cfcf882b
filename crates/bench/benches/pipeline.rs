//! End-to-end pipeline cost: simulation, probes and wire format.
//!
//! Includes the DESIGN.md ablations that are infrastructure choices
//! rather than figures: anonymization hashing and the compact wire codec.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wtr_bench::{bench_m2m, bench_mno};
use wtr_core::classify::Classifier;
use wtr_core::summary::summarize;
use wtr_model::hash::{anonymize_u64, AnonKey};
use wtr_probes::io as probe_io;
use wtr_probes::wire;
use wtr_scenarios::{M2mScenario, M2mScenarioConfig, MnoScenario, MnoScenarioConfig};
use wtr_sim::par;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("m2m_scenario_400dev_5days", |b| {
        b.iter(|| {
            M2mScenario::new(M2mScenarioConfig {
                devices: 400,
                days: 5,
                seed: 5,
                g4_hole_fraction: 0.05,
            })
            .run()
        })
    });
    g.bench_function("mno_scenario_400dev_5days", |b| {
        b.iter(|| {
            MnoScenario::new(MnoScenarioConfig {
                devices: 400,
                days: 5,
                seed: 5,
                nbiot_meter_fraction: 0.0,
                sunset_2g_uk: false,
                gsma_transparency: false,
                record_loss_fraction: 0.0,
            })
            .run()
        })
    });
    g.finish();

    // Serial vs parallel comparison for the order-stable parallel map layer
    // (`wtr_sim::par`): same inputs, same byte-identical outputs, the only
    // variable is the thread count. `_t1` pins one worker; `_tN` uses the
    // default (`WTR_THREADS` / available parallelism).
    let art = bench_mno();
    let mut g = c.benchmark_group("par_vs_serial");
    g.sample_size(10);
    g.bench_function("classify_t1", |b| {
        par::set_threads(Some(1));
        b.iter(|| {
            Classifier::new(&art.output.tacdb)
                .classify(black_box(&art.summaries), art.output.catalog.apn_table())
        });
        par::set_threads(None);
    });
    g.bench_function("classify_tN", |b| {
        b.iter(|| {
            Classifier::new(&art.output.tacdb)
                .classify(black_box(&art.summaries), art.output.catalog.apn_table())
        });
    });
    g.finish();

    let txs = bench_m2m();
    let encoded = wire::encode_log(txs);
    let mut g = c.benchmark_group("wire");
    g.bench_function("encode", |b| b.iter(|| wire::encode_log(black_box(txs))));
    g.bench_function("decode", |b| {
        b.iter(|| wire::decode_log(black_box(encoded.clone())).unwrap())
    });
    g.finish();

    // Storage-format throughput: catalog JSONL vs columnar WTRCAT, plus
    // the WTRM2M transaction codec as the fixed-width reference. The
    // eprintln reports serialized sizes so a run records the compression
    // ratio next to the timings (BENCH_PR2.json).
    let catalog = &art.output.catalog;
    let mut jsonl = Vec::new();
    probe_io::write_catalog(&mut jsonl, catalog).unwrap();
    let wtrcat = wire::encode_catalog(catalog);
    eprintln!(
        "io_throughput sizes: catalog rows {} | JSONL {} B ({:.1} B/row) | WTRCAT {} B \
         ({:.1} B/row, {:.2}x smaller) | WTRM2M {} txs {} B",
        catalog.len(),
        jsonl.len(),
        jsonl.len() as f64 / catalog.len() as f64,
        wtrcat.len(),
        wtrcat.len() as f64 / catalog.len() as f64,
        jsonl.len() as f64 / wtrcat.len() as f64,
        txs.len(),
        encoded.len(),
    );
    let mut g = c.benchmark_group("io_throughput");
    g.sample_size(10);
    g.bench_function("catalog_jsonl_write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(jsonl.len());
            probe_io::write_catalog(&mut out, black_box(catalog)).unwrap();
            out
        })
    });
    g.bench_function("catalog_jsonl_read", |b| {
        b.iter(|| probe_io::read_catalog_auto(black_box(&jsonl[..])).unwrap())
    });
    // The same reader with serde parsing every line instead of the
    // zero-copy scanner. The delta is the serde tax the scanner removes.
    g.bench_function("catalog_jsonl_read_serde", |b| {
        b.iter(|| probe_io::read_catalog_serde(black_box(&jsonl[..])).unwrap())
    });
    g.bench_function("catalog_wtrcat_encode", |b| {
        b.iter(|| wire::encode_catalog(black_box(catalog)))
    });
    g.bench_function("catalog_wtrcat_decode", |b| {
        b.iter(|| probe_io::read_catalog_auto(black_box(&wtrcat[..])).unwrap())
    });
    g.bench_function("wtrm2m_encode", |b| {
        b.iter(|| wire::encode_log(black_box(txs)))
    });
    g.bench_function("wtrm2m_decode", |b| {
        b.iter(|| wire::decode_log(black_box(encoded.clone())).unwrap())
    });
    g.finish();

    // Ablation for the intern-table tentpole, on the acceptance-criteria
    // scenario (400 devices / 5 days, heavily repeated APNs): the current
    // per-symbol verdict pipeline vs the pre-PR String path — one
    // `to_ascii_lowercase` allocation plus a full keyword substring
    // rescan per (device, APN) pair, for both the M2M and the consumer
    // keyword lists. Same inputs, same propagation; only the APN
    // representation work differs.
    let abl = MnoScenario::new(MnoScenarioConfig {
        devices: 400,
        days: 5,
        seed: 5,
        nbiot_meter_fraction: 0.0,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    })
    .run();
    let mut g = c.benchmark_group("classify_ablation");
    g.sample_size(10);
    g.bench_function("interned_symbols", |b| {
        b.iter(|| {
            let summaries = summarize(black_box(&abl.catalog));
            Classifier::new(&abl.tacdb).classify(&summaries, abl.catalog.apn_table())
        })
    });
    g.bench_function("string_rescan_baseline", |b| {
        use std::collections::{BTreeMap, BTreeSet};
        use wtr_core::keywords::{CONSUMER_KEYWORDS, M2M_KEYWORDS};
        let apns = abl.catalog.apn_table();
        b.iter(|| {
            let summaries = summarize(black_box(&abl.catalog));
            // Reproduce the old representation's cost, removed by the
            // intern table: (a) summarize used to union per-device
            // `BTreeSet<String>` APN sets, cloning every string once per
            // (device, day) row it appeared on…
            let mut string_sets: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
            for row in abl.catalog.iter() {
                let set = string_sets.entry(row.user).or_default();
                for &sym in &row.apns {
                    set.insert(apns.resolve(sym).to_owned());
                }
            }
            // …and (b) the classifier recomputed lowercase + substring
            // keyword verdicts per (device, APN) pair (steps 1, 3, 4).
            let mut verdicts = Vec::with_capacity(64);
            for (user, set) in &string_sets {
                for apn in set {
                    let lower = apn.to_ascii_lowercase();
                    let m2m = M2M_KEYWORDS.iter().any(|(kw, _)| lower.contains(kw));
                    let consumer = CONSUMER_KEYWORDS.iter().any(|kw| lower.contains(kw));
                    verdicts.push((*user, m2m, consumer));
                }
            }
            let classification = Classifier::new(&abl.tacdb).classify(&summaries, apns);
            (verdicts, classification)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("codecs");
    g.bench_function("imsi_parse", |b| {
        b.iter(|| {
            black_box("204040123456789")
                .parse::<wtr_model::ids::Imsi>()
                .unwrap()
        })
    });
    g.bench_function("imei_parse_with_luhn", |b| {
        b.iter(|| {
            black_box("490154203237518")
                .parse::<wtr_model::ids::Imei>()
                .unwrap()
        })
    });
    g.bench_function("apn_parse", |b| {
        b.iter(|| {
            black_box("smhp.centricaplc.com.mnc004.mcc204.gprs")
                .parse::<wtr_model::apn::Apn>()
                .unwrap()
        })
    });
    g.bench_function("roaming_label_derive", |b| {
        use wtr_model::operators::{well_known, OperatorRegistry};
        use wtr_model::roaming::RoamingLabel;
        let registry = OperatorRegistry::standard(3);
        b.iter(|| {
            RoamingLabel::derive(
                well_known::UK_STUDIED_MNO,
                black_box(&registry),
                well_known::NL_SMART_METER_HMNO,
                well_known::UK_STUDIED_MNO,
            )
        })
    });
    g.finish();

    c.bench_function("anonymize_hash", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            anonymize_u64(AnonKey::FIXED, black_box(x))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
