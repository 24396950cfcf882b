//! Decode hardening: corrupt catalog inputs must fail with an
//! [`IoError`], never panic and never allocate unboundedly, in both
//! storage formats (JSONL and `WTRCAT`), through the one catalog decoder
//! ([`io::CatalogStream`], drained by [`io::read_catalog_auto`]).
//!
//! Plus the scanner fallback contract: the schema-specialized JSONL
//! fast path ([`io::read_catalog_auto`] / [`io::read_transactions`])
//! must be observationally identical to the serde-only reference
//! readers ([`io::read_catalog_serde`] / [`io::read_transactions_serde`])
//! — on valid input the same value, on invalid input the same error
//! message and line number. The direct JSONL row writer
//! ([`io::write_catalog`]) must likewise write the bytes of the serde
//! one ([`io::write_catalog_serde`]).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use where_things_roam::core::stream::stream_catalog;
use where_things_roam::model::ids::{Mcc, Mnc, Plmn, Tac};
use where_things_roam::model::rat::{RadioFlags, RatSet};
use where_things_roam::model::roaming::RoamingLabel;
use where_things_roam::model::time::{Day, SimTime};
use where_things_roam::probes::catalog::{DevicesCatalog, MobilityAccum};
use where_things_roam::probes::io::{self, IoError};
use where_things_roam::probes::records::{M2mMessageType, M2mTransaction};
use where_things_roam::probes::wire;
use where_things_roam::sim::events::ProcedureResult;
use where_things_roam::sim::stream::RecordStream;

/// A deterministic catalog parameterized by proptest rows, populating
/// every field the row codec carries (floats, sets, flags, histogram)
/// so corruption and equivalence sweeps exercise every decode branch.
fn build_catalog(rows: &[(u8, u8, u8, u16)]) -> DevicesCatalog {
    let mut cat = DevicesCatalog::new(5);
    let meter = cat.intern_apn("smhp.centricaplc.com.mnc004.mcc204.gprs");
    let car = cat.intern_apn("fleet.scania.com.mnc002.mcc262.gprs");
    let tac = Tac::new(35_000_000).unwrap();
    for &(user, day, kind, events) in rows {
        let (plmn, label) = match kind % 3 {
            0 => (Plmn::of(204, 4), RoamingLabel::IH),
            1 => (
                Plmn::new(Mcc::new(310).unwrap(), Mnc::new3(410).unwrap()),
                RoamingLabel::HH,
            ),
            _ => (Plmn::of(262, 2), RoamingLabel::IH),
        };
        let r = cat.row_mut(u64::from(user), Day(u32::from(day % 5)), plmn, tac, label);
        r.events += u64::from(events);
        r.failed_events += u64::from(kind % 2);
        r.bytes_up += u64::from(events) * 100;
        r.bytes_down += u64::from(events) * 17;
        r.calls += u64::from(kind % 4);
        r.visited.insert(u32::from(user) + 200_000);
        r.radio_flags.merge(RadioFlags {
            any: RatSet::from_bits(1 + kind % 15),
            data: RatSet::from_bits(kind % 4),
            voice: RatSet::EMPTY,
        });
        r.hourly[usize::from(day % 24)] += u32::from(events);
        r.in_designated_range = kind % 5 == 0;
        r.in_published_m2m_range = kind % 7 == 0;
        r.mobility = MobilityAccum::from_parts([
            f64::from(events),
            51.5 * f64::from(events),
            -0.1 * f64::from(events),
            51.5 * 51.5 * f64::from(events),
            0.01 * f64::from(events),
        ]);
        if kind % 3 == 0 {
            r.apns.insert(meter);
        } else {
            r.apns.insert(car);
        }
    }
    cat
}

fn transactions(n: u8) -> Vec<M2mTransaction> {
    (0..u64::from(n))
        .map(|i| M2mTransaction {
            device: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            time: SimTime::from_secs(i * 301),
            sim_plmn: Plmn::of(214, 7),
            visited_plmn: Plmn::new(Mcc::new(310).unwrap(), Mnc::new3(410).unwrap()),
            message: match i % 3 {
                0 => M2mMessageType::Authentication,
                1 => M2mMessageType::UpdateLocation,
                _ => M2mMessageType::CancelLocation,
            },
            result: match i % 5 {
                0 => ProcedureResult::Ok,
                1 => ProcedureResult::RoamingNotAllowed,
                2 => ProcedureResult::UnknownSubscription,
                3 => ProcedureResult::FeatureUnsupported,
                _ => ProcedureResult::NetworkFailure,
            },
        })
        .collect()
}

fn jsonl_bytes(cat: &DevicesCatalog) -> Vec<u8> {
    let mut buf = Vec::new();
    io::write_catalog(&mut buf, cat).unwrap();
    buf
}

fn wtrcat_bytes(cat: &DevicesCatalog) -> Vec<u8> {
    let mut buf = Vec::new();
    io::write_catalog_bin(&mut buf, cat).unwrap();
    buf
}

/// Folds the catalog decoder's rows over `bytes` into summaries and
/// per-day label shares; it must return, not panic or allocate by what
/// a corrupt header declares.
fn decode(bytes: &[u8]) -> Result<(), String> {
    stream_catalog(bytes).map(|_| ()).map_err(|e| e.to_string())
}

/// The schema-v1 form of a catalog JSONL export: every row also carries
/// the `call_secs` counter and the `sector_set` list that v2 retired.
fn with_v1_keys(jsonl: &[u8]) -> String {
    let text = std::str::from_utf8(jsonl).unwrap();
    let mut lines = text.lines();
    let mut out = format!("{}\n", lines.next().unwrap());
    for (n, row) in lines.enumerate() {
        let row = row
            .replacen(
                ",\"data_sessions\":",
                &format!(",\"call_secs\":{},\"data_sessions\":", n * 7),
                1,
            )
            .replacen(
                ",\"hourly\":",
                &format!(",\"sector_set\":[{},{}],\"hourly\":", n, n * 31 + 1),
                1,
            );
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Compares the fast-path and serde-only catalog readers on one input:
/// same success (byte-identical re-export) or same error string.
fn assert_catalog_readers_agree(bytes: &[u8]) {
    let fast = io::read_catalog_auto(bytes);
    let slow = io::read_catalog_serde(bytes);
    match (fast, slow) {
        (Ok(a), Ok(b)) => assert_eq!(jsonl_bytes(&a), jsonl_bytes(&b)),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (fast, slow) => panic!(
            "readers disagree: fast={:?} serde={:?}",
            fast.map(|c| c.len()),
            slow.map(|c| c.len())
        ),
    }
}

/// Floats the row writer must spell as serde does: both zeros, either
/// side of the 1e16 switch from `{:.1}` to the shortest form, tiny and
/// subnormal values, and the non-finite ones written as `null`.
const TRICKY_FLOATS: [f64; 12] = [
    -0.0,
    0.0,
    1e16,
    -1e16,
    9_999_999_999_999_998.0,
    0.1,
    1e-300,
    5e-324,
    f64::MIN_POSITIVE / 4.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Characters the row writer must escape as serde does: quotes,
/// backslashes, control characters with and without a short escape,
/// and DEL and non-ASCII characters, which pass through.
const TRICKY_CHARS: [char; 14] = [
    '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{00}', '\u{1f}', '\u{7f}', 'é', '€', '😀',
    'a',
];

/// A catalog whose every field comes from the generated bits: all six
/// observable labels, 2- and 3-digit MNCs, full-range counters, a mobility
/// part from [`TRICKY_FLOATS`] or from raw bits, and APN strings made
/// of [`TRICKY_CHARS`], interned in generated (not sorted) order.
fn tricky_catalog(rows: &[(u64, u8, u64, u64)], apns: &[Vec<usize>]) -> DevicesCatalog {
    let mut cat = DevicesCatalog::new(5);
    let syms: Vec<_> = apns
        .iter()
        .map(|chars| cat.intern_apn(&chars.iter().map(|&i| TRICKY_CHARS[i]).collect::<String>()))
        .collect();
    for &(user, day, a, b) in rows {
        let label = RoamingLabel::ALL[(a % 6) as usize];
        let plmn = if a & 8 == 0 {
            Plmn::of(204, 4)
        } else {
            Plmn::new(
                Mcc::new(310).unwrap(),
                Mnc::new3((a % 1000) as u16).unwrap(),
            )
        };
        let tac = Tac::new(35_000_000 + (b % 1000) as u32).unwrap();
        let r = cat.row_mut(user, Day(u32::from(day)), plmn, tac, label);
        r.events = a;
        r.failed_events = b;
        r.calls = a >> 7;
        r.sms = b >> 9;
        r.data_sessions = a ^ b;
        r.bytes_up = a.wrapping_mul(b);
        r.bytes_down = u64::MAX - a;
        r.visited.extend([a as u32, b as u32, 234_030]);
        r.apns.extend(syms.iter().skip((a % 3) as usize).step_by(2));
        r.radio_flags = RadioFlags {
            any: RatSet::from_bits(a as u8),
            data: RatSet::from_bits(b as u8),
            voice: RatSet::from_bits((a >> 4) as u8),
        };
        r.hourly = std::array::from_fn(|h| (a.rotate_left(h as u32 * 3) as u32) >> (h % 8));
        r.in_designated_range = a & 16 == 0;
        r.in_published_m2m_range = b & 16 == 0;
        r.mobility = MobilityAccum::from_parts(std::array::from_fn(|i| {
            if (a >> (32 + i)) & 1 == 0 {
                TRICKY_FLOATS[((b >> (8 * i)) % 12) as usize]
            } else {
                f64::from_bits(b.rotate_left(13 * i as u32))
            }
        }));
    }
    cat
}

proptest! {
    /// The direct JSONL row writer writes exactly the serde writer's
    /// bytes.
    #[test]
    fn direct_writer_matches_serde_writer(
        rows in prop::collection::vec((any::<u64>(), 0u8..5, any::<u64>(), any::<u64>()), 0..30),
        apns in prop::collection::vec(prop::collection::vec(0usize..14, 0..8), 1..6),
    ) {
        let cat = tricky_catalog(&rows, &apns);
        let mut serde = Vec::new();
        io::write_catalog_serde(&mut serde, &cat).unwrap();
        let direct = jsonl_bytes(&cat);
        prop_assert_eq!(String::from_utf8_lossy(&direct), String::from_utf8_lossy(&serde));
    }

    /// Truncating a valid WTRCAT file anywhere must produce an error —
    /// promptly and panic-free.
    #[test]
    fn wtrcat_truncations_error_cleanly(
        rows in prop::collection::vec((0u8..40, 0u8..5, 0u8..6, 1u16..500), 1..40),
        cut in 0usize..10_000,
    ) {
        let bytes = wtrcat_bytes(&build_catalog(&rows));
        let cut = cut % bytes.len();
        prop_assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut} must not decode");
    }

    /// Flipping any byte of a valid WTRCAT file must never panic or
    /// hang; whatever still decodes decodes to *something* bounded.
    #[test]
    fn wtrcat_bit_flips_never_panic(
        rows in prop::collection::vec((0u8..40, 0u8..5, 0u8..6, 1u16..500), 1..40),
        at in 0usize..10_000,
        xor in 1u8..=255,
    ) {
        let mut bytes = wtrcat_bytes(&build_catalog(&rows));
        let at = at % bytes.len();
        bytes[at] ^= xor;
        // Outcome (Ok for benign flips, Err otherwise) is unconstrained;
        // returning at all is the property.
        let _ = decode(&bytes);
    }

    /// JSONL: truncations and byte flips must never panic either path,
    /// and the fast-path reader must agree with serde exactly.
    #[test]
    fn jsonl_corruption_never_panics_and_readers_agree(
        rows in prop::collection::vec((0u8..40, 0u8..5, 0u8..6, 1u16..500), 1..40),
        cut in 0usize..10_000,
        at in 0usize..10_000,
        xor in 1u8..=255,
    ) {
        let bytes = jsonl_bytes(&build_catalog(&rows));
        let cut = cut % bytes.len();
        assert_catalog_readers_agree(&bytes[..cut]);
        let mut flipped = bytes.clone();
        let at = at % flipped.len();
        flipped[at] ^= xor;
        assert_catalog_readers_agree(&flipped);
    }

    /// Valid catalogs parse identically through the scanner and serde,
    /// and so does their schema-v1 form, to the same catalog.
    #[test]
    fn scanner_matches_serde_on_valid_catalogs(
        rows in prop::collection::vec((0u8..40, 0u8..5, 0u8..6, 1u16..500), 0..60),
    ) {
        let cat = build_catalog(&rows);
        let bytes = jsonl_bytes(&cat);
        let v1 = with_v1_keys(&bytes);
        for input in [&bytes[..], v1.as_bytes()] {
            let fast = io::read_catalog_auto(input).unwrap();
            let slow = io::read_catalog_serde(input).unwrap();
            prop_assert_eq!(jsonl_bytes(&fast), jsonl_bytes(&slow));
            prop_assert_eq!(jsonl_bytes(&fast), &bytes[..]);
        }
    }

    /// Valid transaction logs parse identically; corrupted ones report
    /// the same line number and message through both readers.
    #[test]
    fn scanner_matches_serde_on_transactions(
        n in 1u8..60,
        at in 0usize..10_000,
        xor in 1u8..=255,
    ) {
        let txs = transactions(n);
        let mut buf = Vec::new();
        io::write_transactions(&mut buf, &txs).unwrap();
        let fast = io::read_transactions(&buf[..]).unwrap();
        let slow = io::read_transactions_serde(&buf[..]).unwrap();
        prop_assert_eq!(&fast, &txs);
        prop_assert_eq!(&slow, &txs);
        let at = at % buf.len();
        buf[at] ^= xor;
        match (io::read_transactions(&buf[..]), io::read_transactions_serde(&buf[..])) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "readers disagree: fast ok={} serde ok={}",
                    a.is_ok(), b.is_ok()
                )));
            }
        }
    }
}

// -----------------------------------------------------------------------
// Targeted regressions for the hardened header-validation order.
// -----------------------------------------------------------------------

/// Patch helper: a minimal WTRCAT fixed header region.
fn fixed_header(window_days: u32, rows: u64, chunks: u32, table_len: u32) -> Vec<u8> {
    let mut raw = Vec::new();
    raw.extend_from_slice(wire::CAT_MAGIC);
    raw.extend_from_slice(&window_days.to_le_bytes());
    raw.extend_from_slice(&rows.to_le_bytes());
    raw.extend_from_slice(&chunks.to_le_bytes());
    raw.extend_from_slice(&table_len.to_le_bytes());
    raw
}

/// A header declaring ~4.3B table strings with no bytes behind it must
/// be rejected immediately — not after billions of 2-byte reads or an
/// unbounded allocation.
#[test]
fn huge_table_len_is_rejected_promptly() {
    // The first table read hits the end of the header region.
    let bytes = fixed_header(5, 0, 0, u32::MAX);
    assert!(matches!(
        io::read_catalog_auto(&bytes[..]),
        Err(IoError::BadHeader(_))
    ));
}

/// A declared row count inconsistent with the chunk count must surface
/// as `BadHeader` before any chunk is read.
#[test]
fn inconsistent_rows_and_chunks_are_rejected() {
    for (rows, chunks) in [(u64::MAX, 1u32), (1, 0), (0, 1), (4097, 1), (1, 2)] {
        let bytes = fixed_header(5, rows, chunks, 0);
        assert!(
            matches!(
                io::read_catalog_auto(&bytes[..]),
                Err(IoError::BadHeader(_))
            ),
            "rows={rows} chunks={chunks}"
        );
    }
}

/// A chunk frame declaring a ~4GB body on a short file must error with
/// a truncation, not pre-allocate the declared length.
#[test]
fn huge_chunk_byte_len_does_not_preallocate() {
    let cat = build_catalog(&[(1, 0, 0, 10)]);
    let mut bytes = wtrcat_bytes(&cat);
    // The first chunk frame starts right after the fixed region plus
    // the two table strings; find it by re-walking the header.
    let mut slice = &bytes[..];
    wire::decode_catalog_header(&mut slice).unwrap();
    let frame_at = bytes.len() - slice.len();
    bytes[frame_at..frame_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut stream = io::CatalogStream::new(&bytes[..]).unwrap();
    let err = loop {
        match stream.next_chunk() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("corrupt frame must not stream to completion"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, IoError::Io(_)), "got {err}");
}

/// The magic is validated before anything else: a non-WTRCAT binary
/// blob with hostile bytes in the length positions never drives a loop.
/// Nor does a file of another WTRCAT version, which fails its header by
/// version instead of being read as JSONL.
#[test]
fn bad_magic_rejected_before_lengths_are_trusted() {
    let mut bytes = fixed_header(5, 0, 0, u32::MAX);
    bytes[0] ^= 0xFF;
    let mut slice = &bytes[..];
    assert!(wire::decode_catalog_fixed(&mut slice).is_err());

    let mut v1 = fixed_header(5, 0, 0, u32::MAX);
    v1[6] = 1;
    match io::read_catalog_auto(&v1[..]) {
        Err(IoError::BadHeader(message)) => assert!(
            message.contains("version 1") && message.contains("reads version 2"),
            "{message}"
        ),
        other => panic!("v1 WTRCAT accepted: {:?}", other.map(|c| c.len())),
    }
}

/// Rows must be strictly ascending by `(user, day)` and lie inside the
/// header's window. A repeated row (the header counting it), two swapped
/// rows and a row past a shortened window are all rejected with the
/// offending line's number, the scanner and serde readers agree, and the
/// folding route fails the same way instead of counting the row twice
/// or leaving it out of the per-day label shares.
#[test]
fn repeated_and_swapped_rows_are_rejected_with_line_number() {
    let cat = build_catalog(&[(1, 0, 0, 10), (1, 1, 1, 20), (2, 0, 2, 30)]);
    let text = String::from_utf8(jsonl_bytes(&cat)).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let header_with_extra_row = lines[0].replace("\"rows\":3", "\"rows\":4");
    let repeated = [
        header_with_extra_row.as_str(),
        lines[1],
        lines[2],
        lines[2],
        lines[3],
    ];
    let swapped = [lines[0], lines[2], lines[1], lines[3]];
    let one_day_window = lines[0].replace("\"window_days\":5", "\"window_days\":1");
    let outside = [one_day_window.as_str(), lines[1], lines[2], lines[3]];
    for (what, body, bad_line) in [
        ("repeated", &repeated[..], 4),
        ("swapped", &swapped[..], 3),
        ("outside the window", &outside[..], 3),
    ] {
        let body = body.join("\n") + "\n";
        let fast = io::read_catalog_auto(body.as_bytes());
        match &fast {
            Err(IoError::Parse { line, .. }) => assert_eq!(*line, bad_line, "{what}"),
            other => panic!(
                "{what} rows accepted: {:?}",
                other.as_ref().map(|c| c.len())
            ),
        }
        let serde = io::read_catalog_serde(body.as_bytes());
        assert_eq!(
            fast.unwrap_err().to_string(),
            serde.unwrap_err().to_string(),
            "{what}"
        );
        assert!(stream_catalog(body.as_bytes()).is_err(), "{what} folded");
    }
}

/// Only six of the eight `X:Y` labels are observable. A row labelled
/// `N:A` or `I:A` is refused with its line number by the scanner reader,
/// the serde reader and the folding route alike, with one message.
#[test]
fn unobservable_labels_are_rejected_with_line_number() {
    let cat = build_catalog(&[(1, 0, 0, 10), (1, 1, 1, 20), (2, 0, 2, 30)]);
    let text = String::from_utf8(jsonl_bytes(&cat)).unwrap();
    for sim in ["National", "International"] {
        for bad_line in 2..=4 {
            let body: String = text
                .lines()
                .enumerate()
                .map(|(i, line)| {
                    let line = if i + 1 == bad_line {
                        let start = line.find("\"label\":{").unwrap();
                        let end = start + line[start..].find('}').unwrap() + 1;
                        let label =
                            format!("\"label\":{{\"sim\":\"{sim}\",\"presence\":\"Abroad\"}}");
                        format!("{}{label}{}", &line[..start], &line[end..])
                    } else {
                        line.to_owned()
                    };
                    line + "\n"
                })
                .collect();
            let what = format!("{sim} abroad at line {bad_line}");
            let errors = [
                io::read_catalog_auto(body.as_bytes()).map(|_| ()),
                io::read_catalog_serde(body.as_bytes()).map(|_| ()),
                stream_catalog(body.as_bytes()).map(|_| ()),
            ]
            .map(|result| match result {
                Err(IoError::Parse { line, message }) => {
                    assert_eq!(line, bad_line, "{what}");
                    assert!(
                        message.contains("unobservable roaming label"),
                        "{what}: {message}"
                    );
                    message
                }
                other => panic!("{what} accepted: {:?}", other.map_err(|e| e.to_string())),
            });
            assert!(errors.iter().all(|e| *e == errors[0]), "{what}: {errors:?}");
        }
    }
}

/// A header may declare at most `MAX_WINDOW_DAYS` days, in both formats,
/// and a WTRCAT row must lie inside the declared window too.
#[test]
fn hostile_windows_are_rejected_at_the_header() {
    let cat = build_catalog(&[(1, 0, 0, 10), (1, 4, 1, 20), (2, 0, 2, 30)]);
    let text = String::from_utf8(jsonl_bytes(&cat)).unwrap();
    let window =
        |days: u32| text.replacen("\"window_days\":5", &format!("\"window_days\":{days}"), 1);
    let bin_window = |days: u32| {
        let mut bytes = wtrcat_bytes(&cat);
        let at = wire::CAT_MAGIC.len();
        bytes[at..at + 4].copy_from_slice(&days.to_le_bytes());
        bytes
    };
    let hostile = window(10_000_000);
    for bytes in [hostile.as_bytes(), &bin_window(10_000_000)[..]] {
        let err = io::read_catalog_auto(bytes).unwrap_err();
        assert!(matches!(err, IoError::BadHeader(_)), "{err}");
        assert!(stream_catalog(bytes).is_err());
    }
    let at_cap = window(io::MAX_WINDOW_DAYS);
    assert_eq!(
        io::read_catalog_auto(at_cap.as_bytes())
            .unwrap()
            .window_days(),
        io::MAX_WINDOW_DAYS
    );
    // A 4-day window leaves the day-4 row outside it.
    let err = io::read_catalog_auto(&bin_window(4)[..]).unwrap_err();
    assert!(
        matches!(&err, IoError::BadHeader(m) if m.contains("outside the 4-day window")),
        "{err}"
    );
}
