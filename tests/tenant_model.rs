//! Model-based test of a `wtr_serve` tenant: random operation sequences
//! checked against batch analysis of the accepted uploads.
//!
//! Each case drives one [`Tenant`] directly with at most 12 operations
//! over a small simulated fixture: device × day slices uploaded as
//! JSONL or `WTRCAT`, stragglers behind the watermark, re-sent rows,
//! malformed and out-of-window bodies, `seal_all` and table reads.
//! Every upload declares the fixture's window. The model is the list
//! of accepted uploads plus the watermark's open-day set:
//!
//! * the uploads' rows, adopted one by one in arrival order into one
//!   `DevicesCatalog` and run through `materialize_catalog` → `analyze`
//!   → render, give every table byte for byte;
//! * the open-day set, updated row by row as the watermark moves, gives
//!   each receipt's `sealed_days`;
//! * the generation counts accepted uploads plus the `seal_all` calls
//!   that sealed something.
//!
//! The compat proptest runs 64 cases per property and does not shrink,
//! so there is one property per watermark of 0–3 days, and a failure
//! names the op that diverged next to the whole sequence.
//!
//! One more property sends the same sequences, minus `seal_all`, through
//! a `wtr_serve` [`Server`] with one worker and a one-day watermark, and
//! checks each HTTP status, receipt, `x-wtr-generation` header and
//! report body against the same model.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::thread;
use where_things_roam::core::report::{render_analysis, render_classify, ANALYSES};
use where_things_roam::core::stream::{analyze, materialize_catalog};
use where_things_roam::model::ids::{Plmn, Tac};
use where_things_roam::model::roaming::RoamingLabel;
use where_things_roam::model::tacdb::TacDatabase;
use where_things_roam::model::time::Day;
use where_things_roam::probes::catalog::{CatalogEntry, DevicesCatalog};
use where_things_roam::probes::io::{write_catalog, write_catalog_bin};
use where_things_roam::scenarios::{MnoScenario, MnoScenarioConfig};
use where_things_roam::serve::{Server, ServerConfig, Tenant, TABLES};

/// The upload encodings a tap may use.
#[derive(Debug, Clone, Copy)]
enum Format {
    Jsonl,
    Wtrcat,
}

/// Bodies the tenant must refuse without changing anything.
#[derive(Debug, Clone, Copy)]
enum Bad {
    /// A valid JSONL body with a broken trailing line.
    BrokenLine,
    /// A `WTRCAT` body cut short inside its rows.
    Truncated,
    /// A JSONL row whose day lies outside the declared window.
    OutOfWindow,
}

#[derive(Debug, Clone)]
enum Op {
    /// Uploads the fixture rows of `users` consecutive devices ×
    /// `days` consecutive days, starting at fixture row `row`.
    Slice {
        row: usize,
        users: usize,
        days: u32,
        format: Format,
    },
    /// Uploads one fixture row from a day behind the watermark (any row
    /// while nothing is behind it).
    Straggler { pick: usize, format: Format },
    /// Re-sends an exact copy of an accepted row (any fixture row while
    /// nothing was accepted).
    Resend { pick: usize, format: Format },
    /// Sends a body the scanner rejects.
    Bad(Bad),
    /// Seals every open day, as `POST /shutdown` does.
    SealAll,
    /// Reads one of [`TABLES`].
    Read { table: usize },
}

/// A small simulated catalog: every row, in `(user, day)` order, and
/// the distinct users, ascending.
struct Fixture {
    catalog: DevicesCatalog,
    rows: Vec<CatalogEntry>,
    users: Vec<u64>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let catalog = MnoScenario::new(MnoScenarioConfig {
            devices: 40,
            days: 6,
            seed: 7,
            nbiot_meter_fraction: 0.05,
            sunset_2g_uk: false,
            gsma_transparency: false,
            record_loss_fraction: 0.0,
        })
        .run()
        .catalog;
        let rows: Vec<CatalogEntry> = catalog.iter().cloned().collect();
        let mut users: Vec<u64> = rows.iter().map(|row| row.user).collect();
        users.dedup();
        Fixture {
            catalog,
            rows,
            users,
        }
    })
}

/// Encodes `rows` (fixture symbols, `(user, day)` order) as one upload
/// declaring `window_days`.
fn body(rows: &[CatalogEntry], window_days: u32, format: Format) -> Vec<u8> {
    let table = fixture().catalog.apn_table();
    let mut upload = DevicesCatalog::new(window_days);
    for row in rows {
        upload.adopt_entry(row.clone(), table);
    }
    let mut bytes = Vec::new();
    match format {
        Format::Jsonl => write_catalog(&mut bytes, &upload),
        Format::Wtrcat => write_catalog_bin(&mut bytes, &upload),
    }
    .expect("encode into memory");
    bytes
}

fn bad_body(kind: Bad) -> Vec<u8> {
    let fx = fixture();
    let window = fx.catalog.window_days();
    match kind {
        Bad::BrokenLine => {
            let mut bytes = body(&fx.rows[..3], window, Format::Jsonl);
            bytes.extend_from_slice(b"{broken\n");
            bytes
        }
        Bad::Truncated => {
            let bytes = body(&fx.rows[..3], window, Format::Wtrcat);
            bytes[..bytes.len() - 5].to_vec()
        }
        Bad::OutOfWindow => {
            let last = fx.rows.iter().max_by_key(|row| row.day).expect("rows");
            assert!(last.day.0 > 0, "fixture spans more than one day");
            body(std::slice::from_ref(last), last.day.0, Format::Jsonl)
        }
    }
}

/// Every table of a tenant's report set, rendered from `catalog` the
/// way `wtr analyze` and `wtr classify` print them.
fn render(catalog: &DevicesCatalog) -> BTreeMap<&'static str, String> {
    let data = materialize_catalog(catalog);
    let suite = analyze(
        &data.summaries,
        &data.apns,
        data.window_days,
        &TacDatabase::standard(),
    );
    let mut tables = BTreeMap::new();
    for name in ANALYSES {
        let mut table = render_analysis(name, &data, &suite).expect("render");
        table.push('\n');
        tables.insert(name, table);
    }
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

/// What the tenant must report, from first principles.
struct Model {
    watermark_days: u32,
    /// Accepted uploads in arrival order, rows in body order.
    uploads: Vec<Vec<CatalogEntry>>,
    /// Days within the watermark that have not been sealed.
    open: BTreeSet<u32>,
    max_day: Option<u32>,
    generation: u64,
}

impl Model {
    fn new(watermark_days: u32) -> Model {
        Model {
            watermark_days,
            uploads: Vec::new(),
            open: BTreeSet::new(),
            max_day: None,
            generation: 0,
        }
    }

    /// Lowest day still inside the watermark.
    fn low(&self) -> u32 {
        self.max_day
            .map_or(0, |max| max.saturating_sub(self.watermark_days))
    }

    /// The rows an upload op sends, in body order.
    fn rows_for(&self, op: &Op) -> Vec<CatalogEntry> {
        let fx = fixture();
        match *op {
            Op::Slice {
                row, users, days, ..
            } => {
                let first = &fx.rows[row % fx.rows.len()];
                let at = fx.users.binary_search(&first.user).expect("fixture user");
                let users = &fx.users[at..(at + users).min(fx.users.len())];
                let days = first.day.0..first.day.0 + days;
                fx.rows
                    .iter()
                    .filter(|r| users.contains(&r.user) && days.contains(&r.day.0))
                    .cloned()
                    .collect()
            }
            Op::Straggler { pick, .. } => {
                let low = self.low();
                let behind: Vec<&CatalogEntry> = fx.rows.iter().filter(|r| r.day.0 < low).collect();
                let from = if behind.is_empty() {
                    fx.rows.iter().collect()
                } else {
                    behind
                };
                vec![from[pick % from.len()].clone()]
            }
            Op::Resend { pick, .. } => {
                let accepted: Vec<&CatalogEntry> = self.uploads.iter().flatten().collect();
                let from = if accepted.is_empty() {
                    fx.rows.iter().collect()
                } else {
                    accepted
                };
                vec![from[pick % from.len()].clone()]
            }
            _ => unreachable!("not an upload op"),
        }
    }

    /// Accepts one upload; returns the receipt's `(rows, sealed_days)`.
    fn accept(&mut self, rows: Vec<CatalogEntry>) -> (u64, u64) {
        for row in &rows {
            let day = row.day.0;
            self.max_day = Some(self.max_day.map_or(day, |max| max.max(day)));
            if day >= self.low() {
                self.open.insert(day);
            }
        }
        let still_open = self.open.split_off(&self.low());
        let sealed = std::mem::replace(&mut self.open, still_open).len() as u64;
        self.generation += 1;
        let accepted = rows.len() as u64;
        self.uploads.push(rows);
        (accepted, sealed)
    }

    fn seal_all(&mut self) -> u64 {
        let sealed = std::mem::take(&mut self.open).len() as u64;
        if sealed > 0 {
            self.generation += 1;
        }
        sealed
    }

    /// The accepted rows adopted in arrival order, rendered.
    fn tables(&self) -> BTreeMap<&'static str, String> {
        let fx = fixture();
        let window = if self.uploads.is_empty() {
            0
        } else {
            fx.catalog.window_days()
        };
        let mut catalog = DevicesCatalog::new(window);
        for row in self.uploads.iter().flatten() {
            catalog.adopt_entry(row.clone(), fx.catalog.apn_table());
        }
        render(&catalog)
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    tenant: T,
    model: T,
) -> Result<(), String> {
    if tenant == model {
        Ok(())
    } else {
        Err(format!("{what}: tenant {tenant:?}, model {model:?}"))
    }
}

fn step(tenant: &Tenant, model: &mut Model, op: &Op) -> Result<(), String> {
    match op {
        Op::Slice { format, .. } | Op::Straggler { format, .. } | Op::Resend { format, .. } => {
            let rows = model.rows_for(op);
            let bytes = body(&rows, fixture().catalog.window_days(), *format);
            let receipt = tenant
                .ingest(&bytes)
                .map_err(|e| format!("upload rejected: {e}"))?;
            let (accepted, sealed) = model.accept(rows);
            expect_eq("receipt rows", receipt.rows, accepted)?;
            expect_eq("receipt sealed_days", receipt.sealed_days, sealed)?;
            expect_eq("receipt generation", receipt.generation, model.generation)?;
        }
        Op::Bad(kind) => {
            if tenant.ingest(&bad_body(*kind)).is_ok() {
                return Err("bad body accepted".into());
            }
        }
        Op::SealAll => expect_eq("seal_all", tenant.seal_all(), model.seal_all())?,
        Op::Read { table } => {
            let name = TABLES[*table];
            let set = tenant.reports()?;
            expect_eq("report generation", set.generation, model.generation)?;
            let want = &model.tables()[name];
            if &set.tables[name] != want {
                return Err(format!(
                    "table {name}:\n--- tenant\n{}--- model\n{want}",
                    set.tables[name]
                ));
            }
        }
    }
    expect_eq("generation", tenant.generation(), model.generation)
}

/// Runs `ops` against a fresh tenant and the model; the error names the
/// first op whose outcome diverged.
fn run(watermark_days: u32, ops: &[Op]) -> Result<(), String> {
    let tenant = Tenant::new("model", watermark_days);
    let mut model = Model::new(watermark_days);
    for (i, op) in ops.iter().enumerate() {
        step(&tenant, &mut model, op).map_err(|e| format!("op {i} {op:?}: {e}"))?;
    }
    Ok(())
}

/// One HTTP reply: status, `x-wtr-generation` (if sent) and body.
struct Reply {
    status: u16,
    generation: Option<u64>,
    body: Vec<u8>,
}

/// One request on a fresh connection; the server closes it after the
/// reply.
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut frame = format!(
        "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    frame.extend_from_slice(body);
    stream.write_all(&frame).map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("reply has no header end")?;
    let head = String::from_utf8_lossy(&raw[..split]);
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or("reply has no status")?;
    let generation = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("x-wtr-generation"))
        .and_then(|(_, value)| value.trim().parse().ok());
    Ok(Reply {
        status,
        generation,
        body: raw[split + 4..].to_vec(),
    })
}

/// [`step`] over HTTP against a server's tenant `model`; `posted` says
/// whether any upload reached the tenant yet.
fn step_http(
    addr: SocketAddr,
    model: &mut Model,
    posted: &mut bool,
    op: &Op,
) -> Result<(), String> {
    match op {
        Op::Slice { format, .. } | Op::Straggler { format, .. } | Op::Resend { format, .. } => {
            let rows = model.rows_for(op);
            let bytes = body(&rows, fixture().catalog.window_days(), *format);
            let reply = request(addr, "POST", "/ingest/model", &bytes)?;
            *posted = true;
            let (accepted, sealed) = model.accept(rows);
            expect_eq("upload status", reply.status, 200)?;
            let receipt = format!(
                "{{\"tenant\":\"model\",\"rows\":{accepted},\"generation\":{},\"sealed_days\":{sealed}}}\n",
                model.generation
            );
            expect_eq(
                "receipt",
                String::from_utf8_lossy(&reply.body),
                receipt.into(),
            )?;
            expect_eq("receipt header", reply.generation, Some(model.generation))?;
        }
        Op::Bad(kind) => {
            let reply = request(addr, "POST", "/ingest/model", &bad_body(*kind))?;
            *posted = true;
            expect_eq("bad body status", reply.status, 400)?;
            let read = request(addr, "GET", "/report/model/summary", &[])?;
            expect_eq(
                "generation after a bad body",
                read.generation,
                Some(model.generation),
            )?;
        }
        Op::SealAll => unreachable!("seal_all has no HTTP route of its own"),
        Op::Read { table } => {
            let name = TABLES[*table];
            let reply = request(addr, "GET", &format!("/report/model/{name}"), &[])?;
            if !*posted {
                return expect_eq("read status before the first POST", reply.status, 404);
            }
            expect_eq("read status", reply.status, 200)?;
            expect_eq(
                "report generation",
                reply.generation,
                Some(model.generation),
            )?;
            let want = &model.tables()[name];
            if reply.body != want.as_bytes() {
                return Err(format!(
                    "table {name}:\n--- server\n{}--- model\n{want}",
                    String::from_utf8_lossy(&reply.body)
                ));
            }
        }
    }
    Ok(())
}

/// Runs `ops` against a fresh one-worker server with a one-day
/// watermark, then stops it; the error names the first op whose outcome
/// diverged.
fn run_http(ops: &[Op]) -> Result<(), String> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        watermark_secs: 86_400,
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let runner = thread::spawn(move || server.run());
    let mut model = Model::new(1);
    let mut posted = false;
    let outcome = ops.iter().enumerate().try_for_each(|(i, op)| {
        step_http(addr, &mut model, &mut posted, op).map_err(|e| format!("op {i} {op:?}: {e}"))
    });
    handle.shutdown();
    runner
        .join()
        .map_err(|_| "server thread panicked")?
        .map_err(|e| format!("server: {e}"))?;
    outcome
}

fn format() -> impl Strategy<Value = Format> {
    prop::bool::ANY.prop_map(|wtrcat| {
        if wtrcat {
            Format::Wtrcat
        } else {
            Format::Jsonl
        }
    })
}

fn slice() -> impl Strategy<Value = Op> {
    (0usize..1000, 1usize..=4, 1u32..=3, format()).prop_map(|(row, users, days, format)| {
        Op::Slice {
            row,
            users,
            days,
            format,
        }
    })
}

fn read() -> impl Strategy<Value = Op> {
    (0..TABLES.len()).prop_map(|table| Op::Read { table })
}

/// Slices and reads carry double weight: they are what a feed does
/// most.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        slice(),
        slice(),
        (0usize..1000, format()).prop_map(|(pick, format)| Op::Straggler { pick, format }),
        (0usize..1000, format()).prop_map(|(pick, format)| Op::Resend { pick, format }),
        (0u8..3).prop_map(|kind| Op::Bad(match kind {
            0 => Bad::BrokenLine,
            1 => Bad::Truncated,
            _ => Bad::OutOfWindow,
        })),
        Just(Op::SealAll),
        read(),
        read(),
    ];
    prop::collection::vec(op, 1..=12)
}

proptest! {
    #[test]
    fn tenant_matches_model_at_watermark_0(ops in ops()) {
        let outcome = run(0, &ops);
        prop_assert!(outcome.is_ok(), "{}\nops: {:#?}", outcome.unwrap_err(), ops);
    }

    #[test]
    fn tenant_matches_model_at_watermark_1(ops in ops()) {
        let outcome = run(1, &ops);
        prop_assert!(outcome.is_ok(), "{}\nops: {:#?}", outcome.unwrap_err(), ops);
    }

    #[test]
    fn tenant_matches_model_at_watermark_2(ops in ops()) {
        let outcome = run(2, &ops);
        prop_assert!(outcome.is_ok(), "{}\nops: {:#?}", outcome.unwrap_err(), ops);
    }

    #[test]
    fn tenant_matches_model_at_watermark_3(ops in ops()) {
        let outcome = run(3, &ops);
        prop_assert!(outcome.is_ok(), "{}\nops: {:#?}", outcome.unwrap_err(), ops);
    }

    #[test]
    fn server_matches_model_over_http(
        ops in ops().prop_map(|ops| {
            ops.into_iter().filter(|op| !matches!(op, Op::SealAll)).collect::<Vec<_>>()
        })
    ) {
        let outcome = run_http(&ops);
        prop_assert!(outcome.is_ok(), "{}\nops: {:#?}", outcome.unwrap_err(), ops);
    }
}

/// Adds one device-day row with the given roaming label.
fn hand_row(catalog: &mut DevicesCatalog, user: u64, day: u32, label: RoamingLabel) {
    let tac = Tac::new(35_000_000).unwrap();
    catalog
        .row_mut(user, Day(day), Plmn::of(204, 4), tac, label)
        .events = 5;
}

/// A row split across uploads keeps its first arrival's identity, even
/// when the later upload seals the row's day. At watermark 1, upload A
/// is row (user 1, day 3, H:H) and upload B is rows (user 0, day 10,
/// H:H) and (user 1, day 3, I:H): B's day 10 seals day 3 while B's
/// copy of (1, 3) is behind the watermark. First arrival makes day 3
/// all H:H.
#[test]
fn split_row_keeps_its_first_arrival() {
    let mut a = DevicesCatalog::new(22);
    hand_row(&mut a, 1, 3, RoamingLabel::HH);
    let mut b = DevicesCatalog::new(22);
    hand_row(&mut b, 0, 10, RoamingLabel::HH);
    hand_row(&mut b, 1, 3, RoamingLabel::IH);

    let tenant = Tenant::new("split", 1);
    let mut model = DevicesCatalog::new(22);
    let mut sealed = Vec::new();
    for upload in [&a, &b] {
        let mut bytes = Vec::new();
        write_catalog(&mut bytes, upload).unwrap();
        sealed.push(tenant.ingest(&bytes).unwrap().sealed_days);
        for row in upload.iter() {
            model.adopt_entry(row.clone(), upload.apn_table());
        }
    }
    assert_eq!(sealed, [0, 1]);
    assert_eq!(model.get(1, Day(3)).unwrap().label, RoamingLabel::HH);
    let set = tenant.reports().unwrap();
    for (name, table) in render(&model) {
        assert_eq!(set.tables[name], table, "table {name}");
    }
}
