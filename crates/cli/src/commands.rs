//! The `wtr` subcommand implementations.

use crate::args::Args;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use wtr_core::analysis::platform;
use wtr_core::baseline;
use wtr_core::classify::{Classification, Classifier, DeviceClass};
use wtr_core::report;
use wtr_core::stream::{stream_catalog, StreamedCatalog};
use wtr_core::summary::DeviceSummary;
use wtr_model::intern::ApnTable;
use wtr_model::tacdb::TacDatabase;
use wtr_probes::catalog::DevicesCatalog;
use wtr_probes::io as probe_io;
use wtr_scenarios::{M2mScenario, M2mScenarioConfig, MnoScenario, MnoScenarioConfig, Universe};
use wtr_sim::behavior::Behavior;

/// Why a command stopped.
#[derive(Debug)]
pub enum Failure {
    /// A message for stderr.
    Message(String),
    /// Writing to stdout failed (a reader that closed the pipe among
    /// other causes).
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::Message(message.to_owned())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Stdout(e)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Message(message) => f.write_str(message),
            Failure::Stdout(e) => write!(f, "writing to stdout: {e}"),
        }
    }
}

fn open_out(path: &str) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("cannot create {path}: {e}"))
}

fn open_in(path: &str) -> Result<BufReader<File>, String> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("cannot open {path}: {e}"))
}

/// Loads and validates a `--behavior` file: a JSON object mapping vertical
/// labels to [`Behavior`]s, one `{"traffic": …, "options": …}` object
/// each. Every class is validated after deserialization so a hand-edited
/// file fails here, with the class and the field named, rather than deep
/// inside the simulation.
fn load_behaviors(path: &str) -> Result<BTreeMap<String, Behavior>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let behaviors: BTreeMap<String, Behavior> = serde_json::from_str(&text).map_err(|e| {
        format!(
            "{path}: {e} (expected one {{\"traffic\", \"options\"}} object per vertical, \
             as `wtr behavior-template` writes)"
        )
    })?;
    for (label, behavior) in &behaviors {
        behavior
            .validate()
            .map_err(|e| format!("{path}: behavior for {label:?}: {e}"))?;
    }
    Ok(behaviors)
}

/// `wtr behavior-template`: dump the standard per-vertical behavior
/// library as JSON — the exact format `simulate-mno --behavior` loads, so
/// defining a new device class starts from a working file.
pub fn behavior_template(argv: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let args = Args::parse(argv, &["out"], &[])?;
    if args.flag("help") {
        writeln!(stdout, "wtr behavior-template [--out behaviors.json]")?;
        return Ok(());
    }
    let library = Universe::standard_behaviors();
    let json = serde_json::to_string_pretty(&library).map_err(|e| e.to_string())?;
    match args.get("out") {
        Some(path) => {
            let mut out = open_out(path)?;
            writeln!(out, "{json}").map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            eprintln!("wrote {} behaviors to {path}", library.len());
        }
        None => writeln!(stdout, "{json}")?,
    }
    Ok(())
}

fn load_catalog(args: &Args) -> Result<DevicesCatalog, String> {
    let path = args.require("catalog")?;
    // Sniffs the WTRCAT magic, so both the JSONL and the columnar binary
    // exports load through every analysis command.
    probe_io::read_catalog_auto(open_in(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Loads everything the analysis commands need from `--catalog`: the
/// file (JSONL or WTRCAT) is folded chunk by chunk into summaries and
/// label shares without ever materializing a [`DevicesCatalog`], so peak
/// memory is O(devices + chunk window) instead of O(rows).
fn load_data(args: &Args) -> Result<StreamedCatalog, String> {
    let path = args.require("catalog")?;
    stream_catalog(open_in(path)?).map_err(|e| format!("{path}: {e}"))
}

/// `wtr simulate-mno`: run the §4–§7 scenario and export the catalog.
pub fn simulate_mno(argv: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let args = Args::parse(
        argv,
        &[
            "out",
            "out-bin",
            "truth",
            "devices",
            "days",
            "seed",
            "nbiot-meters",
            "record-loss",
            "shards",
            "behavior",
        ],
        &["sunset-2g", "transparency"],
    )?;
    if args.flag("help") {
        writeln!(
            stdout,
            "wtr simulate-mno --out catalog.jsonl [--out-bin catalog.wtrcat] [--truth truth.jsonl] \
             [--devices N] [--days D] [--seed S] [--nbiot-meters F] [--sunset-2g] [--transparency] \
             [--record-loss F] [--shards K] [--behavior behaviors.json]"
        )?;
        return Ok(());
    }
    let out_path = args.require("out")?;
    let config = MnoScenarioConfig {
        devices: args.get_parsed("devices", 5_000usize)?,
        days: args.get_parsed("days", 22u32)?,
        seed: args.get_parsed("seed", 42u64)?,
        nbiot_meter_fraction: args.get_parsed("nbiot-meters", 0.0f64)?,
        sunset_2g_uk: args.flag("sunset-2g"),
        gsma_transparency: args.flag("transparency"),
        record_loss_fraction: args.get_parsed("record-loss", 0.0f64)?,
    };
    if config.days == 0 {
        return Err("--days must be at least 1".into());
    }
    // A longer window would write catalogs whose header every reader
    // refuses.
    if config.days > probe_io::MAX_WINDOW_DAYS {
        return Err(format!(
            "--days {} exceeds the {}-day catalog window limit",
            config.days,
            probe_io::MAX_WINDOW_DAYS
        )
        .into());
    }
    // Out of range, a loss fraction of 2 would write an empty catalog and
    // NaN would run as no loss; refuse both before simulating.
    for (name, value) in [
        ("nbiot-meters", config.nbiot_meter_fraction),
        ("record-loss", config.record_loss_fraction),
    ] {
        if !(0.0..=1.0).contains(&value) {
            return Err(format!("--{name} {value}: must be a fraction in [0, 1]").into());
        }
    }
    eprintln!(
        "simulating {} devices over {} days (seed {})…",
        config.devices, config.days, config.seed
    );
    // `--shards K` forces the shard count; without it the count comes
    // from WTR_THREADS, or failing that available parallelism (the
    // explicit flag always wins over the environment). Output is
    // byte-identical at any K, so this is purely a performance/
    // verification knob. Zero is a misconfiguration, not a request for
    // serial — reject it loudly rather than quietly running one shard.
    let shards = match args.get("shards") {
        Some(s) => {
            let k = s
                .parse::<usize>()
                .map_err(|e| format!("--shards {s}: {e}"))?;
            if k == 0 {
                return Err("--shards must be at least 1 (omit the flag to use \
                            WTR_THREADS / available parallelism)"
                    .into());
            }
            Some(k)
        }
        None => None,
    };
    // `--behavior` swaps in externally defined behaviors for the
    // verticals named in the file (keys are `Vertical::label()` strings;
    // `wtr behavior-template` dumps the standard library as a starting
    // point). Unlisted verticals keep their spec's own behavior.
    let scenario = match args.get("behavior") {
        Some(path) => MnoScenario::new(config).with_behavior_overrides(load_behaviors(path)?),
        None => MnoScenario::new(config),
    };
    let output = match shards {
        Some(k) => scenario.run_sharded(k),
        None => scenario.run(),
    };
    let stats = output.engine_stats();
    eprintln!(
        "simulated on {} shard(s): {} agents, {} wake-ups dispatched, \
         peak queue depth {}",
        output.shard_stats.len(),
        stats.agents,
        stats.dispatched,
        stats.peak_queue_max
    );
    let mut out = open_out(out_path)?;
    probe_io::write_catalog(&mut out, &output.catalog).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} catalog rows ({} devices) to {out_path}",
        output.catalog.len(),
        output.catalog.device_count()
    );
    if let Some(bin_path) = args.get("out-bin") {
        let mut out = open_out(bin_path)?;
        probe_io::write_catalog_bin(&mut out, &output.catalog).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
        eprintln!("wrote columnar WTRCAT catalog to {bin_path}");
    }
    if let Some(truth_path) = args.get("truth") {
        let mut out = open_out(truth_path)?;
        probe_io::write_truth(&mut out, &output.ground_truth).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {} ground-truth lines to {truth_path} (validation only — never feed this to a classifier)",
            output.ground_truth.len()
        );
    }
    Ok(())
}

/// `wtr validate`: score any pipeline against exported ground truth —
/// the measurement the paper's authors could not make (§4.3 relied on
/// manual verification).
pub fn validate_cmd(argv: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let args = Args::parse(argv, &["catalog", "truth", "pipeline"], &[])?;
    if args.flag("help") {
        writeln!(
            stdout,
            "wtr validate --catalog catalog.jsonl --truth truth.jsonl [--pipeline full|apn|vendor|range]"
        )?;
        return Ok(());
    }
    let data = load_data(&args)?;
    let truth_path = args.require("truth")?;
    let truth =
        probe_io::read_truth(open_in(truth_path)?).map_err(|e| format!("{truth_path}: {e}"))?;
    let tacdb = TacDatabase::standard();
    let pipeline = args.get("pipeline").unwrap_or("full");
    let classification = classify_with(pipeline, &tacdb, &data.summaries, &data.apns)?;
    let v = wtr_core::validate::validate(&classification, &truth);
    writeln!(stdout, "pipeline: {pipeline}")?;
    writeln!(stdout, "devices scored: {}", v.matrix.total())?;
    if v.unmatched > 0 {
        writeln!(stdout, "devices without ground truth: {}", v.unmatched)?;
    }
    writeln!(
        stdout,
        "m2m precision: {}",
        v.m2m_precision
            .map(|p| format!("{:.1}%", p * 100.0))
            .unwrap_or_else(|| "n/a".into())
    )?;
    writeln!(
        stdout,
        "m2m recall:    {}",
        v.m2m_recall
            .map(|r| format!("{:.1}%", r * 100.0))
            .unwrap_or_else(|| "n/a".into())
    )?;
    writeln!(stdout, "accuracy:      {:.1}%", v.matrix.accuracy() * 100.0)?;
    writeln!(
        stdout,
        "\nconfusion matrix (rows = truth, cols = predicted):"
    )?;
    let classes = DeviceClass::ALL;
    write!(stdout, "  {:<12}", "")?;
    for c in classes {
        write!(stdout, "{:>11}", c.label())?;
    }
    writeln!(stdout)?;
    for expected in classes {
        write!(stdout, "  {:<12}", expected.label())?;
        for predicted in classes {
            write!(stdout, "{:>11}", v.matrix.get(expected, predicted))?;
        }
        writeln!(stdout)?;
    }
    Ok(())
}

/// `wtr simulate-platform`: run the §3 scenario and export transactions.
pub fn simulate_platform(argv: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let args = Args::parse(argv, &["out", "wire", "devices", "days", "seed"], &[])?;
    if args.flag("help") {
        writeln!(
            stdout,
            "wtr simulate-platform --out txs.jsonl [--wire txs.bin] [--devices N] [--days D] [--seed S]"
        )?;
        return Ok(());
    }
    let out_path = args.require("out")?;
    let config = M2mScenarioConfig {
        devices: args.get_parsed("devices", 6_000usize)?,
        days: args.get_parsed("days", 11u32)?,
        seed: args.get_parsed("seed", 42u64)?,
        g4_hole_fraction: 0.05,
    };
    if config.days == 0 {
        return Err("--days must be at least 1".into());
    }
    eprintln!(
        "simulating {} IoT SIMs over {} days (seed {})…",
        config.devices, config.days, config.seed
    );
    let output = M2mScenario::new(config).run();
    let stats = output.engine_stats();
    eprintln!(
        "simulated on {} shard(s): {} agents, {} wake-ups dispatched, \
         peak queue depth {}",
        output.shard_stats.len(),
        stats.agents,
        stats.dispatched,
        stats.peak_queue_max
    );
    let mut out = open_out(out_path)?;
    probe_io::write_transactions(&mut out, &output.transactions).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} transactions to {out_path}",
        output.transactions.len()
    );
    if let Some(wire_path) = args.get("wire") {
        let encoded = wtr_probes::wire::encode_log(&output.transactions);
        std::fs::write(wire_path, &encoded).map_err(|e| format!("{wire_path}: {e}"))?;
        eprintln!(
            "wrote {} bytes of wire format to {wire_path}",
            encoded.len()
        );
    }
    Ok(())
}

fn classify_with(
    pipeline: &str,
    tacdb: &TacDatabase,
    summaries: &[DeviceSummary],
    apns: &ApnTable,
) -> Result<Classification, String> {
    match pipeline {
        "full" => Ok(Classifier::new(tacdb).classify(summaries, apns)),
        "apn" => Ok(baseline::apn_only_baseline(tacdb, summaries, apns)),
        "vendor" => Ok(baseline::vendor_baseline(tacdb, summaries)),
        "range" => Ok(baseline::imsi_range_baseline(tacdb, summaries)),
        other => Err(format!(
            "unknown pipeline {other:?} (expected full|apn|vendor|range)"
        )),
    }
}

/// `wtr classify`: classification summary over a catalog.
pub fn classify(argv: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let args = Args::parse(argv, &["catalog", "pipeline"], &[])?;
    if args.flag("help") {
        writeln!(
            stdout,
            "wtr classify --catalog catalog.jsonl [--pipeline full|apn|vendor|range]"
        )?;
        return Ok(());
    }
    let data = load_data(&args)?;
    let tacdb = TacDatabase::standard();
    let pipeline = args.get("pipeline").unwrap_or("full");
    let classification = classify_with(pipeline, &tacdb, &data.summaries, &data.apns)?;
    // Shared renderer: `wtr_serve`'s `/report/{tenant}/classify` serves
    // the same bytes.
    write!(
        stdout,
        "{}",
        report::render_classify(pipeline, data.summaries.len(), &classification)
    )?;
    Ok(())
}

/// `wtr analyze`: named analyses over a catalog.
///
/// The catalog file is folded chunk by chunk into per-device summaries,
/// and every table is computed over those summaries
/// ([`wtr_core::stream::analyze`]), so the whole command runs in
/// O(devices) memory (file → summaries → tables).
pub fn analyze(argv: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let args = Args::parse(argv, &["catalog"], &[])?;
    if args.flag("help") {
        writeln!(
            stdout,
            "wtr analyze --catalog catalog.jsonl [labels home classes rat traffic smip verticals diurnal revenue]"
        )?;
        return Ok(());
    }
    let data = load_data(&args)?;
    let tacdb = TacDatabase::standard();
    let suite = wtr_core::stream::analyze(&data.summaries, &data.apns, data.window_days, &tacdb);
    let mut wanted: Vec<&str> = args.positionals().iter().map(String::as_str).collect();
    if wanted.is_empty() {
        wanted = report::ANALYSES.to_vec();
    }
    for analysis in wanted {
        // One shared renderer per table (`wtr_core::report`): the server's
        // `/report/{tenant}/{table}` endpoint serves the same bytes, which
        // is what lets CI diff HTTP reports against this command.
        let table = report::render_analysis(analysis, &data, &suite)?;
        writeln!(stdout, "{table}")?;
    }
    Ok(())
}

/// `wtr platform-stats`: §3 statistics over a transaction log.
pub fn platform_stats(argv: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let args = Args::parse(argv, &["transactions"], &[])?;
    if args.flag("help") {
        writeln!(stdout, "wtr platform-stats --transactions txs.jsonl")?;
        return Ok(());
    }
    let path = args.require("transactions")?;
    let transactions =
        probe_io::read_transactions(open_in(path)?).map_err(|e| format!("{path}: {e}"))?;
    let ov = platform::overview(&transactions);
    writeln!(
        stdout,
        "{} transactions, {} devices",
        ov.total_transactions, ov.total_devices
    )?;
    write!(
        stdout,
        "{}",
        report::shares_table("devices per HMNO country", &ov.hmno_device_shares, 8)
    )?;
    let dyn_all = platform::dynamics(&transactions, None);
    write!(
        stdout,
        "{}",
        report::cdf("signaling records per device", &dyn_all.records_all, 8)
    )?;
    writeln!(
        stdout,
        "only-failed devices: {:.1}%; max VMNOs attempted by one: {}",
        dyn_all.only_failed_fraction * 100.0,
        dyn_all.max_vmnos_failed_device
    )?;
    Ok(())
}

/// `wtr serve`: run the resident catalog/analysis server (`wtr_serve`).
pub fn serve(argv: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let args = Args::parse(
        argv,
        &["addr", "workers", "watermark-secs", "max-body-bytes"],
        &[],
    )?;
    if args.flag("help") {
        writeln!(
            stdout,
            "wtr serve [--addr 127.0.0.1:8080] [--workers 4] [--watermark-secs 86400] \
             [--max-body-bytes 67108864]\n\n\
             POST /ingest/{{tenant}} catalog bodies in; GET /report/{{tenant}}/{{table}} \
             reports out; POST /shutdown seals open days and stops cleanly."
        )?;
        return Ok(());
    }
    let defaults = wtr_serve::ServerConfig::default();
    let config = wtr_serve::ServerConfig {
        addr: args.get("addr").unwrap_or(&defaults.addr).to_owned(),
        workers: args.get_parsed("workers", defaults.workers)?,
        watermark_secs: args.get_parsed("watermark-secs", defaults.watermark_secs)?,
        max_body_bytes: args.get_parsed("max-body-bytes", defaults.max_body_bytes)?,
    };
    let server = wtr_serve::Server::bind(config)?;
    // Stderr, so stdout stays clean for scripting; CI polls /healthz.
    eprintln!("wtr-serve listening on {}", server.local_addr());
    server.run().map_err(|e| format!("server: {e}").into())
}

/// Tiny deterministic PRNG for `catalog-split`'s shuffle (splitmix64).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `wtr catalog-split`: deterministically shuffle a catalog's rows and
/// partition them into N valid catalog files — the tap-upload fixtures
/// for `wtr serve` (each (user, day) row lands in exactly one part, the
/// row-partitioned contract the server's determinism guarantee assumes).
pub fn catalog_split(argv: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let args = Args::parse(argv, &["catalog", "parts", "seed", "out-prefix"], &[])?;
    if args.flag("help") {
        writeln!(
            stdout,
            "wtr catalog-split --catalog catalog.jsonl --out-prefix part- [--parts 3] [--seed 1]"
        )?;
        return Ok(());
    }
    let catalog = load_catalog(&args)?;
    let prefix = args.require("out-prefix")?;
    let parts: usize = args.get_parsed("parts", 3)?;
    if parts == 0 {
        return Err("--parts must be at least 1".into());
    }
    let seed: u64 = args.get_parsed("seed", 1)?;
    let rows: Vec<&wtr_probes::catalog::CatalogEntry> = catalog.iter().collect();
    // Keyed Fisher–Yates: the same (catalog, seed) always yields the
    // same parts, so test fixtures and CI chunks are reproducible.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut state = seed ^ 0x57_54_52_43; // "WTRC"
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut out_paths = Vec::new();
    for part in 0..parts {
        let mut part_catalog = DevicesCatalog::new(catalog.window_days());
        for &idx in order.iter().skip(part).step_by(parts) {
            part_catalog.adopt_entry(rows[idx].clone(), catalog.apn_table());
        }
        let path = format!("{prefix}{part}.jsonl");
        let mut out = open_out(&path)?;
        probe_io::write_catalog(&mut out, &part_catalog).map_err(|e| format!("{path}: {e}"))?;
        out.flush().map_err(|e| format!("{path}: {e}"))?;
        out_paths.push((path, part_catalog.len()));
    }
    for (path, len) in out_paths {
        eprintln!("wrote {len} rows to {path}");
    }
    Ok(())
}
