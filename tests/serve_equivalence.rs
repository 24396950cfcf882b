//! The `wtr_serve` determinism contract (PR-10): HTTP reports over
//! incrementally ingested, arbitrarily partitioned record streams are
//! byte-identical to batch `wtr analyze` over the same rows.
//!
//! * N concurrent taps, in-order or shuffled-within-watermark, any
//!   arrival interleaving → every report table matches the batch
//!   renderer byte for byte.
//! * The response cache is generation-keyed: an absorb bumps the
//!   generation and invalidates exactly the stale renders.
//! * Watermark-0 sealing: old days seal into the archive, stragglers
//!   absorb past the watermark, and reports still cover every row.
//! * Hostile bodies (the decode-hardening shapes, plus a repeated row)
//!   bounce with the scanner's line-numbered error and leave tenant
//!   state untouched.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use where_things_roam::core::report::{render_analysis, render_classify, ANALYSES};
use where_things_roam::core::stream::{analyze, stream_catalog};
use where_things_roam::model::tacdb::TacDatabase;
use where_things_roam::probes::catalog::DevicesCatalog;
use where_things_roam::probes::io::write_catalog;
use where_things_roam::scenarios::{MnoScenario, MnoScenarioConfig};
use where_things_roam::serve::{Server, ServerConfig, TABLES};

/// Deterministic fixture: a simulated multi-day catalog with APNs,
/// NB-IoT meters and enough devices to populate every report table.
fn fixture() -> DevicesCatalog {
    MnoScenario::new(MnoScenarioConfig {
        devices: 400,
        days: 8,
        seed: 7,
        nbiot_meter_fraction: 0.05,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    })
    .run()
    .catalog
}

fn catalog_bytes(catalog: &DevicesCatalog) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_catalog(&mut bytes, catalog).unwrap();
    bytes
}

/// The batch-side reference: what `wtr analyze <table>` (and
/// `wtr classify`) print over the fixture file, keyed like [`TABLES`].
fn batch_reference(catalog: &DevicesCatalog) -> BTreeMap<&'static str, String> {
    let data = stream_catalog(&catalog_bytes(catalog)[..]).unwrap();
    let tacdb = TacDatabase::standard();
    let suite = analyze(&data.summaries, &data.apns, data.window_days, &tacdb);
    let mut tables = BTreeMap::new();
    for name in ANALYSES {
        // The CLI prints each table plus one blank separator line.
        let mut body = render_analysis(name, &data, &suite).unwrap();
        body.push('\n');
        tables.insert(name, body);
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

/// splitmix64 — the keyed shuffle `wtr catalog-split` uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Row-partitions `catalog` into `parts` valid upload bodies. With
/// `shuffle`, rows are dealt in keyed-shuffled order (the
/// within-watermark arrival disorder the contract must absorb).
fn partition(catalog: &DevicesCatalog, parts: usize, shuffle: Option<u64>) -> Vec<Vec<u8>> {
    let rows: Vec<_> = catalog.iter().collect();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    if let Some(seed) = shuffle {
        let mut state = seed;
        for i in (1..order.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    (0..parts)
        .map(|part| {
            let mut part_catalog = DevicesCatalog::new(catalog.window_days());
            for &idx in order.iter().skip(part).step_by(parts) {
                part_catalog.adopt_entry(rows[idx].clone(), catalog.apn_table());
            }
            catalog_bytes(&part_catalog)
        })
        .collect()
}

/// Day-partitions `catalog` at the given day boundaries (ranges are
/// `[lo, hi)`), for the watermark/sealing scenarios.
fn partition_by_days(catalog: &DevicesCatalog, ranges: &[(u32, u32)]) -> Vec<Vec<u8>> {
    ranges
        .iter()
        .map(|&(lo, hi)| {
            let mut part = DevicesCatalog::new(catalog.window_days());
            for row in catalog.iter().filter(|r| r.day.0 >= lo && r.day.0 < hi) {
                part.adopt_entry(row.clone(), catalog.apn_table());
            }
            catalog_bytes(&part)
        })
        .collect()
}

/// A parsed HTTP response: status, lower-cased headers, body.
struct HttpReply {
    status: u16,
    headers: BTreeMap<String, String>,
    body: Vec<u8>,
}

impl HttpReply {
    fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap()
    }

    fn generation(&self) -> u64 {
        self.headers["x-wtr-generation"].parse().unwrap()
    }
}

/// One raw HTTP/1.1 exchange against the in-process server.
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> HttpReply {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream);
    let mut frame = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    frame.extend_from_slice(body);
    reader.get_mut().write_all(&frame).unwrap();
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let mut headers = BTreeMap::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').unwrap();
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
    }
    let length: usize = headers["content-length"].parse().unwrap();
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).unwrap();
    HttpReply {
        status,
        headers,
        body,
    }
}

/// Binds a throwaway server, runs `scenario` against it, then shuts it
/// down cleanly and propagates panics from the run thread.
fn with_server(watermark_secs: u64, scenario: impl FnOnce(SocketAddr)) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        watermark_secs,
        max_body_bytes: 16 * 1024 * 1024,
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let runner = thread::spawn(move || server.run().unwrap());
    scenario(addr);
    handle.shutdown();
    runner.join().unwrap();
}

/// Asserts every served table matches the batch reference byte for
/// byte, and returns the generation the reports were rendered at.
fn assert_reports_match(
    addr: SocketAddr,
    tenant: &str,
    reference: &BTreeMap<&'static str, String>,
) -> u64 {
    let mut generation = None;
    for table in TABLES {
        let reply = request(addr, "GET", &format!("/report/{tenant}/{table}"), &[]);
        assert_eq!(reply.status, 200, "{table}: {}", reply.body_str());
        assert_eq!(
            reply.body_str(),
            reference[table],
            "table {table} diverged from batch output"
        );
        generation = Some(reply.generation());
    }
    generation.unwrap()
}

#[test]
fn concurrent_taps_match_batch_reports_in_any_order() {
    let catalog = fixture();
    let reference = batch_reference(&catalog);
    // Watermark far wider than the window: nothing seals, every row is
    // within-watermark disorder the contract must erase.
    with_server(100 * 86_400, |addr| {
        for (tenant, shuffle) in [("inorder", None), ("shuffled", Some(0xC0FFEE))] {
            let parts = partition(&catalog, 4, shuffle);
            let taps: Vec<_> = parts
                .into_iter()
                .map(|body| {
                    let tenant = tenant.to_owned();
                    thread::spawn(move || {
                        let reply = request(addr, "POST", &format!("/ingest/{tenant}"), &body);
                        assert_eq!(reply.status, 200, "{}", reply.body_str());
                    })
                })
                .collect();
            for tap in taps {
                tap.join().unwrap();
            }
            assert_reports_match(addr, tenant, &reference);
        }
    });
}

#[test]
fn absorb_invalidates_generation_keyed_cache() {
    let catalog = fixture();
    let reference = batch_reference(&catalog);
    let parts = partition(&catalog, 2, Some(99));
    with_server(100 * 86_400, |addr| {
        let reply = request(addr, "POST", "/ingest/t", &parts[0]);
        assert_eq!(reply.status, 200);
        let first = request(addr, "GET", "/report/t/classes", &[]);
        assert_eq!(first.status, 200);
        assert_eq!(first.generation(), 1);
        // Warm cache: identical generation, identical bytes.
        let warm = request(addr, "GET", "/report/t/classes", &[]);
        assert_eq!(warm.generation(), 1);
        assert_eq!(warm.body, first.body);
        // Absorb the second half: generation moves, reports re-render.
        let reply = request(addr, "POST", "/ingest/t", &parts[1]);
        assert_eq!(reply.status, 200);
        let fresh = request(addr, "GET", "/report/t/classes", &[]);
        assert_eq!(fresh.generation(), 2);
        assert_eq!(fresh.body_str(), reference["classes"]);
        assert_reports_match(addr, "t", &reference);
    });
}

#[test]
fn watermark_zero_seals_days_and_absorbs_stragglers() {
    let catalog = fixture();
    let reference = batch_reference(&catalog);
    // Early days, then a jump to the newest days (sealing everything
    // older under watermark 0), then mid-window stragglers that arrive
    // past the watermark and absorb straight into the archive.
    let parts = partition_by_days(&catalog, &[(0, 3), (5, 9), (3, 5)]);
    with_server(0, |addr| {
        for body in &parts {
            let reply = request(addr, "POST", "/ingest/t", body);
            assert_eq!(reply.status, 200, "{}", reply.body_str());
        }
        assert_reports_match(addr, "t", &reference);
    });
}

#[test]
fn hostile_bodies_bounce_without_state_change() {
    let catalog = fixture();
    let part = catalog_bytes(&catalog);
    with_server(100 * 86_400, |addr| {
        let reply = request(addr, "POST", "/ingest/t", &part);
        assert_eq!(reply.status, 200);
        let generation_before = request(addr, "GET", "/report/t/summary", &[]).generation();

        // The decode-hardening shapes, aimed at the ingest endpoint.
        let garbage_row = b"{\"format\":\"wtr-catalog\",\"window_days\":5,\"rows\":1}\n{nope\n";
        let reply = request(addr, "POST", "/ingest/t", garbage_row);
        assert_eq!(reply.status, 400);
        assert!(
            reply.body_str().contains("line 2"),
            "error must carry the scanner's line number: {}",
            reply.body_str()
        );

        let bad_header = b"{\"format\":\"not-a-catalog\"}\n";
        assert_eq!(request(addr, "POST", "/ingest/t", bad_header).status, 400);

        // Declared row count vs actual rows mismatch.
        let mut truncated = catalog_bytes(&catalog);
        let cut = truncated.len() - 1;
        let cut = truncated[..cut].iter().rposition(|&b| b == b'\n').unwrap();
        truncated.truncate(cut + 1);
        assert_eq!(request(addr, "POST", "/ingest/t", &truncated).status, 400);

        // WTRCAT magic with hostile bytes behind it: a version-1 header,
        // refused by its version.
        let fake_wtrcat = b"WTRCAT\x01\xff\xff\xff\xff\xff\xff\xff\xff";
        let reply = request(addr, "POST", "/ingest/t", fake_wtrcat);
        assert_eq!(reply.status, 400);
        assert!(
            reply.body_str().contains("version 1"),
            "error must name the file's version: {}",
            reply.body_str()
        );

        // A one-row body declaring a 10,000,000-day window: refused at
        // the header, before the tenant can keep that window.
        let text = String::from_utf8(catalog_bytes(&catalog)).unwrap();
        let first_row = text.lines().nth(1).unwrap();
        let hostile_window = format!(
            "{{\"format\":\"wtr-catalog\",\"window_days\":10000000,\"rows\":1}}\n{first_row}\n"
        );
        let reply = request(addr, "POST", "/ingest/t", hostile_window.as_bytes());
        assert_eq!(reply.status, 400);
        assert!(
            reply.body_str().contains("10000000 days"),
            "error must name the declared window: {}",
            reply.body_str()
        );

        // A repeated row, counted by the header: rows must be strictly
        // ascending by (user, day).
        let text = String::from_utf8(catalog_bytes(&catalog)).unwrap();
        let (header, rows) = text.split_once('\n').unwrap();
        let first_row = rows.lines().next().unwrap();
        let header = header.replace(
            &format!("\"rows\":{}", catalog.len()),
            &format!("\"rows\":{}", catalog.len() + 1),
        );
        let repeated = format!("{header}\n{first_row}\n{rows}");
        let reply = request(addr, "POST", "/ingest/t", repeated.as_bytes());
        assert_eq!(reply.status, 400);
        assert!(
            reply.body_str().contains("line 3"),
            "error must name the repeated row's line: {}",
            reply.body_str()
        );

        // None of it moved the books.
        let after = request(addr, "GET", "/report/t/summary", &[]);
        assert_eq!(after.generation(), generation_before);

        // Routing errors.
        assert_eq!(
            request(addr, "GET", "/report/ghost/labels", &[]).status,
            404
        );
        assert_eq!(request(addr, "GET", "/report/t/nope", &[]).status, 404);
        assert_eq!(request(addr, "PUT", "/report/t/labels", &[]).status, 405);
        assert_eq!(request(addr, "GET", "/ingest/t", &[]).status, 405);
        assert_eq!(request(addr, "POST", "/ingest/bad%name", &part).status, 400);
    });
}

/// Writes `bytes` raw on a fresh connection, write side left open, and
/// returns the status line the server answers with (empty if it closes
/// without one).
fn raw_status_line(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    let mut status_line = String::new();
    BufReader::new(&stream).read_line(&mut status_line).unwrap();
    status_line
}

#[test]
fn oversized_bodies_are_refused_with_413() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        max_body_bytes: 512,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let runner = thread::spawn(move || server.run().unwrap());
    let big = vec![b'x'; 4096];
    let reply = request(addr, "POST", "/ingest/t", &big);
    assert_eq!(reply.status, 413);
    // A head over the 16 KiB cap with no newline, write side left open:
    // refused at the cap, not held until the socket timeout.
    let status_line = raw_status_line(addr, &vec![b'x'; 20 * 1024]);
    assert!(status_line.starts_with("HTTP/1.1 431 "), "{status_line:?}");
    // A head that is not UTF-8, in the request line or in a header
    // value, and a body length that is signed or given twice with
    // different values: answered with 400, not a silently closed
    // socket, a worker held for a body that never comes, or a guess.
    for head in [
        &b"GET /healthz\xff HTTP/1.1\r\n\r\n"[..],
        b"GET /healthz HTTP/1.1\r\nx-a: \xfe\xff\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\ncontent-length: 100\r\ncontent-length: 0\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 100\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\ncontent-length: +0\r\n\r\n",
    ] {
        let status_line = raw_status_line(addr, head);
        assert!(
            status_line.starts_with("HTTP/1.1 400 "),
            "{status_line:?} for {}",
            head.escape_ascii()
        );
    }
    // A repeated length that agrees is the same framing.
    let status_line = raw_status_line(
        addr,
        b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 0\r\n\r\n",
    );
    assert!(status_line.starts_with("HTTP/1.1 200 "), "{status_line:?}");
    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn config_validation_rejects_zero_workers() {
    let bad = ServerConfig {
        workers: 0,
        ..ServerConfig::default()
    };
    assert!(bad.validate().is_err());
    assert!(Server::bind(bad).is_err());
    let bad = ServerConfig {
        max_body_bytes: 0,
        ..ServerConfig::default()
    };
    assert!(bad.validate().is_err());
}

#[test]
fn shutdown_endpoint_seals_and_stops() {
    let catalog = fixture();
    let parts = partition_by_days(&catalog, &[(0, 9)]);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let runner = thread::spawn(move || server.run().unwrap());
    assert_eq!(request(addr, "POST", "/ingest/t", &parts[0]).status, 200);
    let reply = request(addr, "POST", "/shutdown", &[]);
    assert_eq!(reply.status, 200);
    // run() returns Ok: the accept loop exited cleanly and sealed.
    runner.join().unwrap();
}

/// Readers hammering one tenant while taps flood another: reports must
/// stay correct and the server must not deadlock — the cheap stand-in
/// for the latency bench's cross-tenant pressure scenario.
#[test]
fn readers_never_block_ingest_across_tenants() {
    let catalog = fixture();
    let reference = Arc::new(batch_reference(&catalog));
    let warm = catalog_bytes(&catalog);
    let flood = partition(&catalog, 8, Some(5));
    with_server(100 * 86_400, |addr| {
        assert_eq!(request(addr, "POST", "/ingest/warm", &warm).status, 200);
        // Prime the cache once, then race readers against ingest.
        assert_eq!(request(addr, "GET", "/report/warm/labels", &[]).status, 200);
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let reference = Arc::clone(&reference);
                thread::spawn(move || {
                    for _ in 0..20 {
                        let reply = request(addr, "GET", "/report/warm/labels", &[]);
                        assert_eq!(reply.status, 200);
                        assert_eq!(reply.body_str(), reference["labels"]);
                    }
                })
            })
            .collect();
        for body in &flood {
            assert_eq!(request(addr, "POST", "/ingest/flooded", body).status, 200);
        }
        for reader in readers {
            reader.join().unwrap();
        }
        assert_reports_match(addr, "flooded", &reference);
    });
}
