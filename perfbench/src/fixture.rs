//! The shared fixture: the visited-MNO scenario at analysis scale, its
//! two encodings, the 13 report bodies, and the paper-band check.

use crate::trace::Tracer;
use wtr_core::report::{render_analysis, render_classify, ANALYSES};
use wtr_core::stream::{analyze, materialize_catalog, AnalysisSuite, StreamedCatalog};
use wtr_core::DeviceClass;
use wtr_model::roaming::RoamingLabel;
use wtr_model::tacdb::TacDatabase;
use wtr_probes::catalog::DevicesCatalog;
use wtr_probes::io::{read_catalog_auto, write_catalog, write_catalog_bin};
use wtr_scenarios::{MnoScenario, MnoScenarioConfig, MnoScenarioOutput};
use wtr_serve::TABLES;

/// Fixture size. The default is the analysis-scale fixture (about 39k
/// catalog rows, 2.6M wake-ups); smaller sizes serve the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub devices: usize,
    pub days: u32,
}

impl Size {
    pub const ANALYSIS: Size = Size {
        devices: 2500,
        days: 22,
    };

    /// The EXPERIMENTS.md E6/E7 bands were recorded at this size; smaller
    /// populations sit outside them by sampling noise alone.
    pub fn has_paper_bands(self) -> bool {
        self.devices >= Self::ANALYSIS.devices && self.days >= Self::ANALYSIS.days
    }
}

/// The scenario every workload simulates (what-ifs off, no record loss),
/// run by `MnoScenario::run` under a `sim.run` span, with the engine and
/// output counts recorded at the same boundary.
pub fn simulate(tracer: &mut Tracer, size: Size, seed: u64) -> MnoScenarioOutput {
    let scenario = MnoScenario::new(MnoScenarioConfig {
        devices: size.devices,
        days: size.days,
        seed,
        nbiot_meter_fraction: 0.05,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    });
    let span = tracer.begin("sim.run");
    let started = std::time::Instant::now();
    let output = scenario.run();
    let elapsed = started.elapsed();
    tracer.end(span);
    if tracer.enabled() {
        let stats = output.engine_stats();
        let (radio, cdr, xdr) = output.record_counts;
        tracer.count("sim.agents", stats.agents as f64);
        tracer.count("sim.wakeups_dispatched", stats.dispatched as f64);
        tracer.count("sim.peak_queue_max", stats.peak_queue_max as f64);
        tracer.count(
            "sim.ns_per_wakeup",
            elapsed.as_nanos() as f64 / stats.dispatched.max(1) as f64,
        );
        tracer.count("probes.mno.records", (radio + cdr + xdr) as f64);
        tracer.count("probes.catalog.rows", output.catalog.len() as f64);
        tracer.count(
            "probes.catalog.devices",
            output.catalog.device_count() as f64,
        );
    }
    output
}

/// The JSONL export (`wtr simulate-mno --out`).
pub fn jsonl(tracer: &mut Tracer, catalog: &DevicesCatalog) -> Vec<u8> {
    let mut bytes = Vec::new();
    tracer.time("probes.io.write_jsonl", || {
        write_catalog(&mut bytes, catalog).expect("JSONL into memory")
    });
    tracer.count("probes.io.jsonl_bytes", bytes.len() as f64);
    bytes
}

/// The WTRCAT export (`wtr simulate-mno --out-bin`).
pub fn wtrcat(tracer: &mut Tracer, catalog: &DevicesCatalog) -> Vec<u8> {
    let mut bytes = Vec::new();
    tracer.time("probes.wire.encode", || {
        write_catalog_bin(&mut bytes, catalog).expect("WTRCAT into memory")
    });
    bytes
}

/// The 13 bodies the server serves, in `TABLES` order: the 11 analysis
/// tables and the classification exactly as `wtr analyze` prints them,
/// plus the row/device summary.
pub fn render_tables(data: &StreamedCatalog, suite: &AnalysisSuite) -> Vec<String> {
    TABLES
        .iter()
        .map(|&name| match name {
            "classify" => render_classify("full", data.summaries.len(), &suite.classification),
            "summary" => format!(
                "rows: {}\ndevices: {}\nwindow_days: {}\n",
                data.rows,
                data.summaries.len(),
                data.window_days
            ),
            _ => {
                debug_assert!(ANALYSES.contains(&name));
                let mut body = render_analysis(name, data, suite).expect("known table");
                body.push('\n');
                body
            }
        })
        .collect()
}

/// Digest over the 13 bodies in order.
pub fn tables_digest(tables: &[String]) -> u64 {
    crate::measure::digest(tables.concat().as_bytes())
}

/// The batch reference: WTRCAT bytes through `read_catalog_auto` and
/// `materialize_catalog`, then `analyze` and render. This path shares no
/// reader with the JSONL scanner and no fold with `stream_catalog`.
pub fn reference(
    tracer: &mut Tracer,
    wtrcat: &[u8],
) -> (StreamedCatalog, AnalysisSuite, Vec<String>) {
    let catalog = tracer.time("probes.wire.decode", || {
        read_catalog_auto(wtrcat).expect("WTRCAT decodes")
    });
    let data = materialize_catalog(&catalog);
    drop(catalog);
    let suite = analyze(
        &data.summaries,
        &data.apns,
        data.window_days,
        &TacDatabase::standard(),
    );
    let tables = render_tables(&data, &suite);
    (data, suite, tables)
}

/// Checks the EXPERIMENTS.md E6 (label shares) and E7 (class shares)
/// bands. Returns one line per quantity, or the first violation.
pub fn check_bands(data: &StreamedCatalog, suite: &AnalysisSuite) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let mut within = |what: &str, value: f64, lo: f64, hi: f64| {
        let line = format!("{what} {:.1}% (band {lo}-{hi}%)", value * 100.0);
        if !(lo..=hi).contains(&(value * 100.0)) {
            return Err(format!("out of band: {line}"));
        }
        lines.push(line);
        Ok(())
    };
    let overall = &data.label_shares.overall;
    let label = |l: RoamingLabel| overall.get(&l).copied().unwrap_or(0.0);
    within("E6 H:H share", label(RoamingLabel::HH), 40.0, 60.0)?;
    within("E6 V:H share", label(RoamingLabel::VH), 25.0, 42.0)?;
    within("E6 I:H share", label(RoamingLabel::IH), 10.0, 25.0)?;
    let ih: Vec<f64> = data
        .label_shares
        .per_day
        .iter()
        .filter(|day| !day.is_empty())
        .map(|day| day.get(&RoamingLabel::IH).copied().unwrap_or(0.0))
        .collect();
    let spread =
        ih.iter().copied().fold(f64::MIN, f64::max) - ih.iter().copied().fold(f64::MAX, f64::min);
    within("E6 I:H daily spread", spread, 0.0, 6.0)?;
    let shares = suite.classification.shares();
    let class = |c: DeviceClass| shares.get(&c).copied().unwrap_or(0.0);
    within("E7 smart share", class(DeviceClass::Smart), 55.0, 70.0)?;
    within("E7 feat share", class(DeviceClass::Feat), 4.0, 12.0)?;
    within("E7 m2m share", class(DeviceClass::M2m), 20.0, 32.0)?;
    within("E7 m2m-maybe share", class(DeviceClass::M2mMaybe), 1.0, 8.0)?;
    let no_apn =
        suite.classification.devices_without_apn as f64 / data.summaries.len().max(1) as f64;
    within("E7 devices without APN", no_apn, 12.0, 30.0)?;
    Ok(lines)
}
