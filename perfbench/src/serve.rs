//! `serve-feed`: the fixture replayed into an in-process server as a
//! probe feed, one day at a time, by one closed-loop client.
//!
//! Each day's rows are split by device into `TAPS` WTRCAT bodies. Per
//! day the client POSTs the bodies to `/ingest/t`, GETs
//! `/report/t/labels` once (the first read of a new generation: a cold
//! rebuild), then makes `WARM_READS` cached GETs cycling the 13 tables.
//! The op is the day's freshness: from its first upload to the end of
//! the first read that reflects it. A pass replays all days into a
//! fresh server; the run measures whole passes. After each pass every
//! table must equal the batch reference over the whole fixture.
//!
//! The traced run also replays each day on a direct `Tenant` (the
//! server's state without HTTP) and on a replica of the tenant's books
//! built from public catalog calls, which times the pieces of ingest and
//! of the cold rebuild one by one on the same day's snapshot.

use crate::analyze::analyze_bytes;
use crate::client::{request, Reply, Running};
use crate::fixture::{self, tables_digest};
use crate::measure::{digest, median, ms};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::workload::{latency, Ctx, Phase};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use wtr_model::intern::ApnTable;
use wtr_probes::catalog::{CatalogEntry, DevicesCatalog};
use wtr_probes::io::{write_catalog_bin, CatalogStream};
use wtr_serve::{ReportSet, Tenant, TABLES};
use wtr_sim::stream::RecordStream;

/// Tap bodies per day.
const TAPS: u64 = 8;
/// Cached reads after each day's cold read.
const WARM_READS: usize = 100;
/// The server's watermark, in days.
const WATERMARK_DAYS: u32 = 1;

/// The replayed feed: `[day][tap]` WTRCAT bodies.
type Feed = Vec<Vec<Vec<u8>>>;

/// Splits the catalog into per-day, per-device-tap WTRCAT bodies.
fn split_feed(tracer: &mut Tracer, catalog: &DevicesCatalog) -> Feed {
    let window = catalog.window_days();
    let mut taps: Vec<Vec<DevicesCatalog>> = (0..window)
        .map(|_| (0..TAPS).map(|_| DevicesCatalog::new(window)).collect())
        .collect();
    for row in catalog.iter() {
        taps[row.day.0 as usize][(row.user % TAPS) as usize]
            .adopt_entry(row.clone(), catalog.apn_table());
    }
    tracer.time("probes.wire.encode", || {
        taps.iter()
            .map(|day| {
                day.iter()
                    .map(|tap| {
                        let mut body = Vec::new();
                        write_catalog_bin(&mut body, tap).expect("WTRCAT into memory");
                        body
                    })
                    .collect()
            })
            .collect()
    })
}

/// Decodes one upload fully, as `Tenant::ingest` does before it locks.
fn decode(body: &[u8]) -> (Vec<CatalogEntry>, ApnTable, u32) {
    let mut stream = CatalogStream::new(body).expect("catalog header");
    let window = stream.window_days();
    let mut entries = Vec::new();
    while let Some(chunk) = stream.next_chunk().expect("catalog rows") {
        entries.extend(chunk);
    }
    (entries, stream.finish().expect("catalog trailer"), window)
}

/// The tenant's books rebuilt from public catalog calls, following
/// `Tenant::ingest` and `Tenant::reports` step by step, so each step can
/// be timed on the same data the server sees.
struct Replica {
    window_days: u32,
    open: BTreeMap<u32, DevicesCatalog>,
    archive: DevicesCatalog,
    max_day: Option<u32>,
}

impl Replica {
    fn new() -> Replica {
        Replica {
            window_days: 0,
            open: BTreeMap::new(),
            archive: DevicesCatalog::new(0),
            max_day: None,
        }
    }

    fn low_watermark(&self) -> u64 {
        self.max_day
            .map_or(0, |m| u64::from(m.saturating_sub(WATERMARK_DAYS)))
    }

    fn ingest(&mut self, tracer: &mut Tracer, body: &[u8]) {
        let (entries, table, window) = tracer.time("probes.wire.decode", || decode(body));
        self.window_days = self.window_days.max(window);
        let adopt = tracer.begin("probes.catalog.adopt");
        let mut archive_touched = false;
        for entry in entries {
            let day = entry.day.0;
            self.max_day = Some(self.max_day.map_or(day, |m| m.max(day)));
            if u64::from(day) >= self.low_watermark() {
                let window_days = self.window_days;
                self.open
                    .entry(day)
                    .or_insert_with(|| DevicesCatalog::new(window_days))
                    .adopt_entry(entry, &table);
            } else {
                self.archive.adopt_entry(entry, &table);
                archive_touched = true;
            }
        }
        tracer.end(adopt);
        let low = self.low_watermark();
        let to_seal: Vec<u32> = self
            .open
            .keys()
            .copied()
            .take_while(|day| u64::from(*day) < low)
            .collect();
        let sealing = !to_seal.is_empty();
        if sealing {
            tracer.time("probes.catalog.merge", || {
                for day in to_seal {
                    let day_catalog = self.open.remove(&day).expect("listed above");
                    self.archive.merge(day_catalog);
                }
            });
        }
        if sealing || archive_touched {
            tracer.time("probes.catalog.canonicalize", || {
                self.archive.canonicalize()
            });
        }
    }

    /// The cold rebuild, piece by piece: snapshot, merge, canonicalize,
    /// serialize, free the snapshot, replay, analyze, render. The scanner
    /// alone and the classifier alone run as extra passes that split the
    /// replay and the analysis.
    fn rebuild(&self, tracer: &mut Tracer) -> Vec<String> {
        let (mut merged, open) = tracer.time("probes.catalog.snapshot_clone", || {
            (
                self.archive.clone(),
                self.open.values().cloned().collect::<Vec<_>>(),
            )
        });
        tracer.time("probes.catalog.merge", || {
            for day_catalog in open {
                merged.merge(day_catalog);
            }
        });
        tracer.time("probes.catalog.canonicalize", || merged.canonicalize());
        let bytes = fixture::jsonl(tracer, &merged);
        tracer.time("probes.catalog.snapshot_clone", || drop(merged));
        analyze_bytes(tracer, &bytes).tables
    }
}

/// The traced run's direct-call replay of one pass.
struct Shadow {
    tenant: Tenant,
    replica: Replica,
    last: Option<Arc<ReportSet>>,
    calls: u64,
    hits: u64,
    sealed_days: u64,
    rows: u64,
}

impl Shadow {
    fn new() -> Shadow {
        Shadow {
            tenant: Tenant::new("t", WATERMARK_DAYS),
            replica: Replica::new(),
            last: None,
            calls: 0,
            hits: 0,
            sealed_days: 0,
            rows: 0,
        }
    }

    /// `Tenant::reports` under `span`; a call that returns the previous
    /// call's `Arc` is a cache hit.
    fn reports(&mut self, tracer: &mut Tracer, span: &'static str) -> Arc<ReportSet> {
        let set = tracer.time(span, || self.tenant.reports().expect("tenant rebuild"));
        self.calls += 1;
        if self
            .last
            .as_ref()
            .is_some_and(|last| Arc::ptr_eq(last, &set))
        {
            self.hits += 1;
        }
        self.last = Some(Arc::clone(&set));
        set
    }

    /// Replays one day on the direct tenant and on the replica; checks
    /// that both, and the server's cold read, agree.
    fn day(
        &mut self,
        tracer: &mut Tracer,
        out: &mut Outcome,
        bodies: &[Vec<u8>],
        served_labels: &[u8],
    ) {
        for body in bodies {
            let receipt = tracer.time("serve.tenant.ingest", || {
                self.tenant.ingest(body).expect("tenant ingest")
            });
            self.sealed_days += receipt.sealed_days;
            self.rows += receipt.rows;
        }
        let set = self.reports(tracer, "serve.tenant.rebuild");
        for _ in 0..WARM_READS {
            self.reports(tracer, "serve.tenant.warm");
        }
        for body in bodies {
            self.replica.ingest(tracer, body);
        }
        let split = self.replica.rebuild(tracer);
        let same = TABLES
            .iter()
            .zip(&split)
            .all(|(table, body)| set.tables[table] == *body);
        out.check(
            same && set.tables["labels"].as_bytes() == served_labels,
            || {
                format!(
                    "generation {}: direct tenant, replica and server disagree",
                    set.generation
                )
            },
        );
    }
}

fn describe(reply: &std::io::Result<Reply>) -> String {
    match reply {
        Ok(r) => format!("status {} generation {:?}", r.status, r.generation),
        Err(e) => e.to_string(),
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ((catalog, feed, server), setup_s) = ctx.repeat_setup(|ctx| {
        let output = fixture::simulate(&mut ctx.tracer, ctx.size, ctx.seed);
        let feed = split_feed(&mut ctx.tracer, &output.catalog);
        (output.catalog, feed, Running::start())
    });
    out.push(setup_s);

    let mut wtrcat = Vec::new();
    write_catalog_bin(&mut wtrcat, &catalog).expect("WTRCAT into memory");
    drop(catalog);
    let (data, suite, mut reference) = fixture::reference(&mut ctx.tracer, &wtrcat);
    if ctx.size.has_paper_bands() {
        let bands = fixture::check_bands(&data, &suite);
        out.check(bands.is_ok(), || bands.clone().unwrap_err());
        bands
            .iter()
            .flatten()
            .for_each(|line| println!("band {line}"));
    }
    out.digests = vec![
        ("catalog.wtrcat", digest(&wtrcat)),
        ("feed.wtrcat", digest(&feed.concat().concat())),
        ("reports", tables_digest(&reference)),
    ];
    let mut first = std::mem::take(&mut reference[0]).into_bytes();
    ctx.maybe_corrupt(&mut first);
    reference[0] = String::from_utf8(first).expect("ASCII table");
    drop((wtrcat, data, suite));

    let phase = Phase::start();
    let days = feed.len();
    let (mut ops, mut ingest, mut cold, mut warm) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Failed requests per class: ingest, cold read, warm read.
    let mut failed = [0u64; 3];
    let mut server = Some(server);
    let mut passes = 0usize;
    loop {
        let running = server.take().unwrap_or_else(Running::start);
        let addr = running.addr;
        let mut shadow = ctx.tracer.enabled().then(Shadow::new);
        let mut generation = 0u64;
        for (day, bodies) in feed.iter().enumerate() {
            ctx.tracer.set_op(Some((passes * days + day) as u32));
            let root = ctx.tracer.begin("op");
            let started = Instant::now();
            for body in bodies {
                let t = Instant::now();
                let reply = ctx.tracer.time("serve.http.ingest", || {
                    request(addr, "POST", "/ingest/t", body)
                });
                ingest.push(ms(t.elapsed()));
                let ok = matches!(&reply, Ok(r) if r.ok() && r.generation == Some(generation + 1));
                generation += u64::from(ok);
                failed[0] += u64::from(!ok);
                out.check(ok, || {
                    format!("pass {passes} day {day}: ingest: {}", describe(&reply))
                });
            }
            let t = Instant::now();
            let reply = ctx.tracer.time("serve.http.cold_read", || {
                request(addr, "GET", "/report/t/labels", &[])
            });
            cold.push(ms(t.elapsed()));
            ops.push(ms(started.elapsed()));
            ctx.tracer.end(root);
            let ok = matches!(&reply, Ok(r) if r.ok() && r.generation == Some(generation));
            failed[1] += u64::from(!ok);
            out.check(ok, || {
                format!("pass {passes} day {day}: cold read: {}", describe(&reply))
            });
            let served_labels = reply.map(|r| r.body).unwrap_or_default();

            for i in 0..WARM_READS {
                let path = format!("/report/t/{}", TABLES[i % TABLES.len()]);
                let t = Instant::now();
                let reply = ctx
                    .tracer
                    .time("serve.http.warm_read", || request(addr, "GET", &path, &[]));
                warm.push(ms(t.elapsed()));
                let ok = matches!(&reply, Ok(r) if r.ok() && r.generation == Some(generation));
                failed[2] += u64::from(!ok);
                out.check(ok, || {
                    format!(
                        "pass {passes} day {day}: warm read {path}: {}",
                        describe(&reply)
                    )
                });
            }
            if let Some(shadow) = shadow.as_mut() {
                shadow.day(&mut ctx.tracer, &mut out, bodies, &served_labels);
            }
            ctx.tracer.set_op(None);
        }
        for (table, expected) in TABLES.iter().zip(&reference) {
            let reply = request(addr, "GET", &format!("/report/t/{table}"), &[]);
            let ok = matches!(&reply, Ok(r) if r.ok() && r.body == expected.as_bytes());
            out.check(ok, || {
                format!("pass {passes}: table {table} differs from the batch reference")
            });
        }
        if let Some(shadow) = shadow {
            ctx.tracer.count("serve.generations", generation as f64);
            ctx.tracer
                .count("serve.sealed_days", shadow.sealed_days as f64);
            ctx.tracer.count("serve.rows_ingested", shadow.rows as f64);
            ctx.tracer.count(
                "serve.cache.hit_ratio",
                shadow.hits as f64 / shadow.calls.max(1) as f64,
            );
        }
        let stopped = running.stop();
        out.check(stopped.is_ok(), || {
            format!("pass {passes}: {}", stopped.unwrap_err())
        });
        passes += 1;
        if ctx.done(&phase) {
            break;
        }
    }
    phase.finish(&mut out, &ops);
    latency(&mut out, "ingest", &ingest);
    latency(&mut out, "warm_read", &warm);
    latency(&mut out, "cold_read", &cold);
    out.push(crate::report::Metric::new(
        "passes",
        passes as f64,
        "count",
        format!("{days} days each"),
    ));

    let tracer = &mut ctx.tracer;
    if tracer.enabled() {
        for (class, n) in [
            "serve.failed.ingest",
            "serve.failed.cold_read",
            "serve.failed.warm_read",
        ]
        .into_iter()
        .zip(failed)
        {
            tracer.count(class, n as f64);
        }
        let call = |t: &Tracer, name| median(&t.each_ms(name));
        let ingest_overhead =
            call(tracer, "serve.http.ingest") - call(tracer, "serve.tenant.ingest");
        let read_overhead =
            call(tracer, "serve.http.warm_read") - call(tracer, "serve.tenant.warm");
        tracer.count("serve.http.ingest_overhead_ms", ingest_overhead);
        tracer.count("serve.http.read_overhead_ms", read_overhead);
        let cover = crate::report::coverage(
            tracer,
            &[
                "probes.wire.decode",
                "probes.catalog.adopt",
                "probes.catalog.merge",
                "probes.catalog.canonicalize",
                "probes.catalog.snapshot_clone",
                "probes.io.write_jsonl",
                "core.stream",
                "model.tacdb.build",
                "core.analysis",
                "core.report.render",
                "serve.http.ingest",
                "serve.http.cold_read",
            ],
            &["serve.tenant.ingest", "serve.tenant.rebuild"],
        );
        tracer.count("trace.coverage", cover);
    }
    out
}
