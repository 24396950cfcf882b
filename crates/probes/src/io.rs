//! JSONL persistence for datasets: export and re-import transaction logs
//! and devices-catalogs.
//!
//! This is the bridge to *real* operator data: anything that can be mapped
//! into these line formats runs through the whole `wtr-core` pipeline
//! unchanged. One JSON object per line, so streams of arbitrary size can
//! be processed without loading everything (readers work line-by-line over
//! any [`BufRead`]).
//!
//! Two formats:
//! * **transactions** — one [`M2mTransaction`] per line (the §3.1 schema);
//! * **catalog** — one [`CatalogEntry`] per line, preceded by a single
//!   header line carrying the window length.
//!
//! Catalogs also have a columnar binary form, `WTRCAT` ([`crate::wire`]).
//! Both catalog formats have exactly one decoder, [`CatalogStream`]:
//! [`read_catalog_auto`] drains it into a [`DevicesCatalog`], and every
//! other catalog reader in the workspace pulls chunks from it.

use crate::catalog::{CatalogEntry, DevicesCatalog, MobilityAccum};
use crate::records::M2mTransaction;
use crate::scan::{self, Scanner};
use crate::wire;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufRead, Read, Write};
use wtr_model::ids::{Plmn, Tac};
use wtr_model::intern::{ApnSym, ApnTable};
use wtr_model::rat::RadioFlags;
use wtr_model::roaming::{Presence, RoamingLabel, SimOrigin};
use wtr_model::time::Day;
use wtr_sim::par;
use wtr_sim::stream::RecordStream;

/// Header line of a catalog JSONL stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogHeader {
    /// Format marker, always `"wtr-catalog"`.
    pub format: String,
    /// Observation-window length in days.
    pub window_days: u32,
    /// Number of rows that follow.
    pub rows: usize,
}

/// Marker value for [`CatalogHeader::format`].
pub const CATALOG_FORMAT: &str = "wtr-catalog";

/// Errors raised by the JSONL readers/writers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A line failed to parse as the expected JSON object.
    Parse {
        /// 1-based line number.
        line: usize,
        /// serde error description.
        message: String,
    },
    /// The catalog header was missing or malformed.
    BadHeader(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::BadHeader(m) => write!(f, "bad catalog header: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes a transaction log as JSONL (one transaction per line).
pub fn write_transactions<W: Write>(
    mut out: W,
    transactions: &[M2mTransaction],
) -> Result<(), IoError> {
    for (idx, t) in transactions.iter().enumerate() {
        serde_json::to_writer(&mut out, t).map_err(|e| IoError::Parse {
            // 1-based line the failed record would have landed on.
            line: idx + 1,
            message: e.to_string(),
        })?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Slices `text` into non-blank lines with their 1-based line numbers.
/// `first_line` is the number of `text`'s first physical line (2 when a
/// header line was consumed separately).
///
/// Borrowing slices out of one backing `String` — instead of collecting
/// an owned `String` per row via `BufRead::lines` — is the JSONL ingest
/// hot path's big win: one allocation per file, not one per record.
fn numbered_line_slices(text: &str, first_line: usize) -> Vec<(usize, &str)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| (first_line + idx, line))
        .collect()
}

/// Parses numbered JSONL lines in parallel (`wtr_sim::par`) into one
/// result per line, in line order — so a caller that stops at the first
/// error reports the *earliest* bad line, exactly as a serial reader
/// would.
///
/// Each line first goes through the schema-specialized scanner
/// ([`crate::scan`]); lines that deviate from the canonical shape fall
/// back to the serde parser, which owns all error reporting — so the
/// result (value or error, message and line number) is identical to
/// [`parse_lines_serde`] on every input.
fn parse_lines<T: serde::Deserialize + scan::FastParse + Send>(
    lines: &[(usize, &str)],
) -> Vec<Result<T, IoError>> {
    par::par_map(lines, |(num, line)| {
        if let Some(v) = T::fast_parse(line) {
            return Ok(v);
        }
        serde_json::from_str::<T>(line).map_err(|e| IoError::Parse {
            line: *num,
            message: e.to_string(),
        })
    })
}

/// Serde-only twin of [`parse_lines`]: the reference implementation the
/// scanner's fallback contract is checked against (`tests/decode_hardening.rs`
/// and `tests/stream_equivalence.rs`).
fn parse_lines_serde<T: serde::Deserialize + Send>(
    lines: &[(usize, &str)],
) -> Vec<Result<T, IoError>> {
    par::par_map(lines, |(num, line)| {
        serde_json::from_str::<T>(line).map_err(|e| IoError::Parse {
            line: *num,
            message: e.to_string(),
        })
    })
}

/// Reads a transaction log written by [`write_transactions`] (or produced
/// by any tool emitting the same schema). Lines are parsed in parallel
/// as borrowed slices of one backing buffer; the output order (and any
/// reported parse error) matches a serial read.
pub fn read_transactions<R: BufRead>(mut input: R) -> Result<Vec<M2mTransaction>, IoError> {
    let mut text = String::new();
    input.read_to_string(&mut text)?;
    parse_lines(&numbered_line_slices(&text, 1))
        .into_iter()
        .collect()
}

/// [`read_transactions`] without the scanner fast path: the serde-only
/// reference reader `tests/decode_hardening.rs` checks the scanner against.
pub fn read_transactions_serde<R: BufRead>(mut input: R) -> Result<Vec<M2mTransaction>, IoError> {
    let mut text = String::new();
    input.read_to_string(&mut text)?;
    parse_lines_serde(&numbered_line_slices(&text, 1))
        .into_iter()
        .collect()
}

/// The JSONL wire form of one catalog row: identical field names and
/// order to [`CatalogEntry`], with `apns` spelled out as the sorted list
/// of strings (resolved through the catalog's intern table), while the
/// in-memory entry stores compact `ApnSym` keys. [`write_catalog_serde`]
/// serializes it; [`write_catalog`] spells the same bytes directly.
///
/// Rows of catalog schema v1 also carried the call seconds and the set
/// of sector ids. The scanner gives up on such a line and the serde
/// fallback ignores the two extra keys, so a v1 JSONL catalog reads as
/// its v2 content.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CatalogRowWire {
    user: u64,
    day: Day,
    sim_plmn: Plmn,
    tac: Tac,
    label: RoamingLabel,
    events: u64,
    failed_events: u64,
    calls: u64,
    sms: u64,
    data_sessions: u64,
    bytes_up: u64,
    bytes_down: u64,
    visited: BTreeSet<u32>,
    apns: BTreeSet<String>,
    radio_flags: RadioFlags,
    hourly: [u32; 24],
    in_designated_range: bool,
    in_published_m2m_range: bool,
    mobility: MobilityAccum,
}

impl scan::FastParse for CatalogRowWire {
    /// Matches the canonical [`write_catalog`] row shape: the struct's
    /// keys in declaration order, compact separators, validated-range
    /// scalars. Anything else bails to serde (see [`crate::scan`]).
    fn fast_parse(line: &str) -> Option<Self> {
        let mut sc = Scanner::new(line);
        sc.lit("{\"user\":")?;
        let user = sc.u64_val()?;
        sc.lit(",\"day\":")?;
        let day = Day(sc.u32_val()?);
        sc.lit(",\"sim_plmn\":")?;
        let sim_plmn = sc.plmn()?;
        sc.lit(",\"tac\":")?;
        let tac = sc.tac()?;
        sc.lit(",\"label\":")?;
        let label = sc.roaming_label()?;
        sc.lit(",\"events\":")?;
        let events = sc.u64_val()?;
        sc.lit(",\"failed_events\":")?;
        let failed_events = sc.u64_val()?;
        sc.lit(",\"calls\":")?;
        let calls = sc.u64_val()?;
        sc.lit(",\"sms\":")?;
        let sms = sc.u64_val()?;
        sc.lit(",\"data_sessions\":")?;
        let data_sessions = sc.u64_val()?;
        sc.lit(",\"bytes_up\":")?;
        let bytes_up = sc.u64_val()?;
        sc.lit(",\"bytes_down\":")?;
        let bytes_down = sc.u64_val()?;
        sc.lit(",\"visited\":")?;
        let visited = sc.set(Scanner::u32_val)?;
        sc.lit(",\"apns\":")?;
        let apns = sc.set(|sc| sc.string_val().map(str::to_owned))?;
        sc.lit(",\"radio_flags\":")?;
        let radio_flags = sc.radio_flags()?;
        sc.lit(",\"hourly\":")?;
        let hourly = sc.hourly()?;
        sc.lit(",\"in_designated_range\":")?;
        let in_designated_range = sc.bool_val()?;
        sc.lit(",\"in_published_m2m_range\":")?;
        let in_published_m2m_range = sc.bool_val()?;
        sc.lit(",\"mobility\":")?;
        let mobility = sc.mobility()?;
        sc.lit("}")?;
        sc.finish()?;
        Some(CatalogRowWire {
            user,
            day,
            sim_plmn,
            tac,
            label,
            events,
            failed_events,
            calls,
            sms,
            data_sessions,
            bytes_up,
            bytes_down,
            visited,
            apns,
            radio_flags,
            hourly,
            in_designated_range,
            in_published_m2m_range,
            mobility,
        })
    }
}

impl CatalogRowWire {
    /// Resolves a row's symbols against `catalog`'s table.
    fn from_entry(entry: &CatalogEntry, catalog: &DevicesCatalog) -> Self {
        CatalogRowWire {
            user: entry.user,
            day: entry.day,
            sim_plmn: entry.sim_plmn,
            tac: entry.tac,
            label: entry.label,
            events: entry.events,
            failed_events: entry.failed_events,
            calls: entry.calls,
            sms: entry.sms,
            data_sessions: entry.data_sessions,
            bytes_up: entry.bytes_up,
            bytes_down: entry.bytes_down,
            visited: entry.visited.clone(),
            apns: entry
                .apns
                .iter()
                .map(|&sym| catalog.apn_str(sym).to_owned())
                .collect(),
            radio_flags: entry.radio_flags,
            hourly: entry.hourly,
            in_designated_range: entry.in_designated_range,
            in_published_m2m_range: entry.in_published_m2m_range,
            mobility: entry.mobility,
        }
    }

    /// Builds the in-memory entry, interning this wire row's APN strings
    /// through `intern` (in sorted-string order — the order the wire
    /// `BTreeSet` iterates).
    fn into_entry(self, mut intern: impl FnMut(&str) -> ApnSym) -> CatalogEntry {
        let apns: BTreeSet<ApnSym> = self.apns.iter().map(|a| intern(a)).collect();
        CatalogEntry {
            user: self.user,
            day: self.day,
            sim_plmn: self.sim_plmn,
            tac: self.tac,
            label: self.label,
            events: self.events,
            failed_events: self.failed_events,
            calls: self.calls,
            sms: self.sms,
            data_sessions: self.data_sessions,
            bytes_up: self.bytes_up,
            bytes_down: self.bytes_down,
            visited: self.visited,
            apns,
            radio_flags: self.radio_flags,
            hourly: self.hourly,
            in_designated_range: self.in_designated_range,
            in_published_m2m_range: self.in_published_m2m_range,
            mobility: self.mobility,
        }
    }
}

/// Writes a devices-catalog as JSONL: a header line, then one row per line
/// in the (user, day) order [`DevicesCatalog::iter`] yields, so exports
/// are diffable.
///
/// Each row is formatted straight into one reused line buffer, byte for
/// byte as [`write_catalog_serde`] writes it: the wire row's keys in
/// order, integers in decimal, APN strings sorted and escaped, floats as
/// the compat `serde_json` writer spells them (`tests/decode_hardening.rs`
/// checks the two writers agree).
pub fn write_catalog<W: Write>(mut out: W, catalog: &DevicesCatalog) -> Result<(), IoError> {
    write_catalog_header(&mut out, catalog)?;
    let mut line = String::new();
    let mut apns: Vec<&str> = Vec::new();
    for row in catalog.iter() {
        apns.clear();
        apns.extend(row.apns.iter().map(|&sym| catalog.apn_str(sym)));
        apns.sort_unstable();
        line.clear();
        push_row(&mut line, row, &apns);
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// [`write_catalog`] through serde, one value tree per row: the
/// reference the direct writer is checked against
/// (`tests/decode_hardening.rs`), as [`read_catalog_serde`] is for the
/// reader.
pub fn write_catalog_serde<W: Write>(mut out: W, catalog: &DevicesCatalog) -> Result<(), IoError> {
    write_catalog_header(&mut out, catalog)?;
    for (idx, row) in catalog.iter().enumerate() {
        let wire = CatalogRowWire::from_entry(row, catalog);
        serde_json::to_writer(&mut out, &wire).map_err(|e| IoError::Parse {
            // 1-based: the header is line 1, row `idx` lands on idx + 2.
            line: idx + 2,
            message: e.to_string(),
        })?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// The header line both catalog JSONL writers start with.
fn write_catalog_header<W: Write>(mut out: W, catalog: &DevicesCatalog) -> Result<(), IoError> {
    let header = CatalogHeader {
        format: CATALOG_FORMAT.to_owned(),
        window_days: catalog.window_days(),
        rows: catalog.len(),
    };
    serde_json::to_writer(&mut out, &header).map_err(|e| IoError::Parse {
        line: 1,
        message: e.to_string(),
    })?;
    out.write_all(b"\n")?;
    Ok(())
}

/// Appends one catalog row as JSON, `apns` being its APN strings in
/// sorted order. Writing into a `String` cannot fail, so the `fmt`
/// results are dropped.
fn push_row(line: &mut String, row: &CatalogEntry, apns: &[&str]) {
    let plmn = row.sim_plmn;
    let (sim, presence) = label_names(row.label);
    let _ = write!(
        line,
        "{{\"user\":{},\"day\":{},\"sim_plmn\":{{\"mcc\":{},\"mnc\":{{\"value\":{},\"digits\":{}}}}},\
         \"tac\":{},\"label\":{{\"sim\":\"{sim}\",\"presence\":\"{presence}\"}},\"events\":{},\
         \"failed_events\":{},\"calls\":{},\"sms\":{},\"data_sessions\":{},\"bytes_up\":{},\
         \"bytes_down\":{},\"visited\":[",
        row.user,
        row.day.0,
        plmn.mcc.value(),
        plmn.mnc.value(),
        plmn.mnc.digits(),
        row.tac.value(),
        row.events,
        row.failed_events,
        row.calls,
        row.sms,
        row.data_sessions,
        row.bytes_up,
        row.bytes_down,
    );
    for (i, visited) in row.visited.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{visited}");
    }
    line.push_str("],\"apns\":[");
    for (i, apn) in apns.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_json_str(line, apn);
    }
    let flags = row.radio_flags;
    let _ = write!(
        line,
        "],\"radio_flags\":{{\"any\":{},\"data\":{},\"voice\":{}}},\"hourly\":[",
        flags.any.bits(),
        flags.data.bits(),
        flags.voice.bits(),
    );
    for (i, n) in row.hourly.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{n}");
    }
    let _ = write!(
        line,
        "],\"in_designated_range\":{},\"in_published_m2m_range\":{},\"mobility\":{{",
        row.in_designated_range, row.in_published_m2m_range,
    );
    let keys = ["w", "lat_w", "lon_w", "lat2_w", "lon2_w"];
    for (i, (key, value)) in keys.iter().zip(row.mobility.to_parts()).enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "\"{key}\":");
        push_f64(line, value);
    }
    line.push_str("}}");
}

/// The serde names of a label's two unit variants.
fn label_names(label: RoamingLabel) -> (&'static str, &'static str) {
    let sim = match label.sim() {
        SimOrigin::Home => "Home",
        SimOrigin::Virtual => "Virtual",
        SimOrigin::National => "National",
        SimOrigin::International => "International",
    };
    let presence = match label.presence() {
        Presence::Home => "Home",
        Presence::Abroad => "Abroad",
    };
    (sim, presence)
}

/// Appends `f` as the compat `serde_json` writer spells it: `null` when
/// not finite, one decimal when integral and below 1e16 in magnitude
/// (`1.0`, not `1`), the shortest round-trip form otherwise.
fn push_f64(line: &mut String, f: f64) {
    if !f.is_finite() {
        line.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e16 {
        let _ = write!(line, "{f:.1}");
    } else {
        let _ = write!(line, "{f}");
    }
}

/// Appends `s` as a JSON string, escaped as the compat `serde_json`
/// writer escapes it.
fn push_json_str(line: &mut String, s: &str) {
    line.push('"');
    for c in s.chars() {
        match c {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            '\n' => line.push_str("\\n"),
            '\r' => line.push_str("\\r"),
            '\t' => line.push_str("\\t"),
            '\u{08}' => line.push_str("\\b"),
            '\u{0c}' => line.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(line, "\\u{:04x}", c as u32);
            }
            c => line.push(c),
        }
    }
    line.push('"');
}

/// Writes a devices-catalog in the columnar binary `WTRCAT` format
/// ([`crate::wire::encode_catalog`]) — typically 5–10× smaller than the
/// JSONL export and decoded in parallel row-group chunks.
pub fn write_catalog_bin<W: Write>(mut out: W, catalog: &DevicesCatalog) -> Result<(), IoError> {
    let bytes = crate::wire::encode_catalog(catalog);
    out.write_all(&bytes)?;
    Ok(())
}

/// Reads a devices-catalog in either format (JSONL or `WTRCAT`,
/// sniffed like [`CatalogStream::new`]) by draining a [`CatalogStream`].
pub fn read_catalog_auto<R: BufRead>(input: R) -> Result<DevicesCatalog, IoError> {
    drain(CatalogStream::new(input)?)
}

/// [`read_catalog_auto`] with serde parsing every JSONL row: the
/// reference the zero-copy scanner is checked against
/// (`tests/decode_hardening.rs` and `tests/stream_equivalence.rs`).
/// `WTRCAT` input decodes exactly as in [`read_catalog_auto`].
pub fn read_catalog_serde<R: BufRead>(input: R) -> Result<DevicesCatalog, IoError> {
    drain(CatalogStream::with_parser(
        input,
        parse_lines_serde::<CatalogRowWire>,
    )?)
}

/// Collects a stream into a catalog. Rows keep the stream's symbols:
/// interning the stream's final table, in order, into the fresh catalog
/// issues exactly those symbols.
fn drain<R: BufRead>(mut stream: CatalogStream<R>) -> Result<DevicesCatalog, IoError> {
    let mut catalog = DevicesCatalog::new(stream.window_days());
    while let Some(chunk) = stream.next_chunk()? {
        for row in chunk {
            catalog.insert_entry(row);
        }
    }
    for apn in stream.finish()?.strings() {
        catalog.intern_apn(apn);
    }
    Ok(catalog)
}

/// Reads exactly `n` bytes from `r`.
///
/// `n` is untrusted (it comes from length prefixes in the file), so the
/// buffer is **not** pre-allocated to `n`: reading through a bounded
/// `take` grows it incrementally, capping the allocation at the bytes
/// the input actually contains plus a small seed capacity.
fn read_exact_vec<R: Read>(r: &mut R, n: usize, what: &str) -> Result<Vec<u8>, IoError> {
    let mut buf = Vec::with_capacity(n.min(64 * 1024));
    r.by_ref()
        .take(n as u64)
        .read_to_end(&mut buf)
        .map_err(IoError::Io)?;
    if buf.len() != n {
        return Err(IoError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated {what}: needed {n} bytes, found {}", buf.len()),
        )));
    }
    Ok(buf)
}

/// [`read_exact_vec`] inside the `WTRCAT` header region (fixed fields
/// and table strings): input that ends there is a malformed header,
/// not an IO failure.
fn read_header_vec<R: Read>(r: &mut R, n: usize, what: &str) -> Result<Vec<u8>, IoError> {
    read_exact_vec(r, n, what).map_err(|e| match e {
        IoError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            IoError::BadHeader(e.to_string())
        }
        e => e,
    })
}

/// Longest observation window a catalog header may declare: ten years
/// of days, room for multi-year operator studies. Per-day analysis state
/// is sized by the declared window, so this bounds what a header alone
/// can make a reader allocate.
pub const MAX_WINDOW_DAYS: u32 = 3660;

/// Rejects a header whose window exceeds [`MAX_WINDOW_DAYS`].
fn check_window(window_days: u32) -> Result<(), IoError> {
    if window_days > MAX_WINDOW_DAYS {
        return Err(IoError::BadHeader(format!(
            "window of {window_days} days exceeds the {MAX_WINDOW_DAYS}-day limit"
        )));
    }
    Ok(())
}

/// The row rules of both catalog formats: each row's day lies inside
/// the declared window, and its `(user, day)` is strictly greater than
/// the previous row's. The writers always emit such rows, and
/// [`DevicesCatalog`] keys and the downstream per-day and summary folds
/// rely on them, so a row that breaks either rule is an error rather
/// than something each reader resolves its own way.
fn check_row(
    last: &mut Option<(u64, u32)>,
    window_days: u32,
    row: &CatalogEntry,
) -> Result<(), String> {
    let key = (row.user, row.day.0);
    if key.1 >= window_days {
        return Err(format!(
            "row (user {}, day {}) lies outside the {window_days}-day window",
            key.0, key.1
        ));
    }
    if let Some((user, day)) = *last {
        if key <= (user, day) {
            return Err(format!(
                "row (user {}, day {}) does not follow row (user {user}, day {day}): \
                 catalog rows must be strictly ascending by (user, day)",
                key.0, key.1
            ));
        }
    }
    *last = Some(key);
    Ok(())
}

/// How a [`CatalogStream`] parses a block of numbered JSONL row lines:
/// [`parse_lines`], or [`parse_lines_serde`] behind
/// [`read_catalog_serde`].
type LineParser = fn(&[(usize, &str)]) -> Vec<Result<CatalogRowWire, IoError>>;

/// Which on-disk format a [`CatalogStream`] is decoding.
enum StreamBackend<R> {
    /// JSONL: rows parse in parallel per line block; APN strings intern
    /// into the stream's growing table in row order. Lines accumulate
    /// into one persistent block buffer (cleared but never shrunk
    /// between refills) and parse as borrowed slices — no per-row
    /// `String`.
    Jsonl {
        input: R,
        parse: LineParser,
        /// 1-based number of the last physical line consumed.
        line_no: usize,
        /// Reusable block buffer holding the current refill's raw lines.
        buf: String,
        /// `(line number, byte range into `buf`)` per non-blank line.
        spans: Vec<(usize, std::ops::Range<usize>)>,
    },
    /// `WTRCAT`: the canonical table came from the file header; row
    /// chunks decode lazily, one length-prefixed frame at a time.
    Wtrcat {
        input: R,
        remaining_chunks: u32,
        table_len: usize,
    },
}

/// A chunk-at-a-time devices-catalog reader: the [`RecordStream`]
/// behind the bounded-memory pipeline, and the only decoder of catalog
/// bytes — [`read_catalog_auto`] is a drain of it.
///
/// Sniffs the format (a leading `WTRCAT` means binary, anything else
/// JSONL; a `WTRCAT` version this build does not read fails with
/// [`IoError::BadHeader`]), reads the header eagerly — window length,
/// declared row count and, for `WTRCAT`, the canonical APN table — then
/// yields rows in file order **without ever materializing a
/// [`DevicesCatalog`]**. Each chunk is one read unit: a JSONL block of
/// at most [`wire::CAT_CHUNK_ROWS`] lines, or one `WTRCAT` row group.
/// Peak memory is O(chunk), not O(rows), whatever the file's size.
///
/// # Determinism and equivalence
///
/// * Chunk boundaries follow the file's bytes, never the thread count.
///   Rows come out in file order, so a fold that takes them one by one
///   equals the same fold over the materialized rows, floating-point
///   bits included, wherever the chunks were cut.
/// * APN symbols: JSONL interns in row order (first occurrence),
///   `WTRCAT` uses the file's canonical table. Resolve the emitted rows'
///   symbols through the table [`CatalogStream::finish`] returns.
/// * The header's window may not exceed [`MAX_WINDOW_DAYS`], and each
///   row's day must lie inside it.
/// * Rows must be strictly ascending by `(user, day)`, across chunk
///   boundaries too: a repeated or swapped row fails the stream (for
///   JSONL with [`IoError::Parse`] and the row's line number, as does a
///   row outside the window).
pub struct CatalogStream<R> {
    backend: StreamBackend<R>,
    table: ApnTable,
    window_days: u32,
    declared_rows: u64,
    rows_seen: u64,
    /// `(user, day)` of the last row decoded, for the row-order rule.
    last_key: Option<(u64, u32)>,
    /// Decoded chunks not yet emitted (a `WTRCAT` refill decodes a
    /// worker-window of row groups at once).
    pending: VecDeque<Vec<CatalogEntry>>,
    exhausted: bool,
}

impl<R: BufRead> CatalogStream<R> {
    /// Opens a catalog stream over `input`, sniffing the format from
    /// the leading bytes and reading the header eagerly.
    pub fn new(input: R) -> Result<Self, IoError> {
        Self::with_parser(input, parse_lines::<CatalogRowWire>)
    }

    /// [`CatalogStream::new`] with `parse` as the JSONL row parser.
    fn with_parser(mut input: R, parse: LineParser) -> Result<Self, IoError> {
        if input.fill_buf()?.starts_with(wire::CAT_NAME) {
            Self::new_wtrcat(input)
        } else {
            Self::new_jsonl(input, parse)
        }
    }

    fn new_jsonl(mut input: R, parse: LineParser) -> Result<Self, IoError> {
        let mut header_line = String::new();
        if input.read_line(&mut header_line)? == 0 {
            return Err(IoError::BadHeader("empty input".into()));
        }
        let header: CatalogHeader = serde_json::from_str(header_line.trim_end())
            .map_err(|e| IoError::BadHeader(e.to_string()))?;
        if header.format != CATALOG_FORMAT {
            return Err(IoError::BadHeader(format!(
                "unknown format {:?}",
                header.format
            )));
        }
        check_window(header.window_days)?;
        let declared_rows = header.rows as u64;
        Ok(CatalogStream {
            backend: StreamBackend::Jsonl {
                input,
                parse,
                line_no: 1,
                buf: String::new(),
                spans: Vec::new(),
            },
            table: ApnTable::new(),
            window_days: header.window_days,
            declared_rows,
            rows_seen: 0,
            last_key: None,
            pending: VecDeque::new(),
            exhausted: false,
        })
    }

    fn new_wtrcat(mut input: R) -> Result<Self, IoError> {
        // Validation order is load-bearing: the fixed region — magic
        // first, then the rows/chunks consistency check — is parsed and
        // rejected *before* any length field out of it drives a read
        // loop. A short fixed region is left to that parse too, so a
        // file of another version is named as such however short it is.
        // Only then are the table strings pulled in (each read bounded
        // by the input's actual remaining bytes, see `read_exact_vec`)
        // and the accumulated region re-parsed by the wire decoder — one
        // source of truth for table validation.
        let mut raw = Vec::with_capacity(wire::CAT_FIXED_LEN);
        input
            .by_ref()
            .take(wire::CAT_FIXED_LEN as u64)
            .read_to_end(&mut raw)?;
        let fixed = wire::decode_catalog_fixed(&mut &raw[..])
            .map_err(|e| IoError::BadHeader(e.to_string()))?;
        check_window(fixed.window_days)?;
        for _ in 0..fixed.table_len {
            let len_bytes = read_header_vec(&mut input, 2, "APN string length")?;
            let len = u16::from_le_bytes(len_bytes[..].try_into().expect("2 bytes")) as usize;
            raw.extend_from_slice(&len_bytes);
            raw.extend_from_slice(&read_header_vec(&mut input, len, "APN string bytes")?);
        }
        let mut slice = &raw[..];
        let header = wire::decode_catalog_header(&mut slice)
            .map_err(|e| IoError::BadHeader(e.to_string()))?;
        debug_assert!(slice.is_empty(), "header region fully consumed");
        let declared_rows = header.rows;
        Ok(CatalogStream {
            backend: StreamBackend::Wtrcat {
                input,
                remaining_chunks: header.chunks,
                table_len: header.table.len(),
            },
            table: header.table,
            window_days: header.window_days,
            declared_rows,
            rows_seen: 0,
            last_key: None,
            pending: VecDeque::new(),
            exhausted: false,
        })
    }

    /// Length of the observation window in days.
    pub fn window_days(&self) -> u32 {
        self.window_days
    }

    /// Validates the end-of-stream invariants (stream exhausted, row
    /// count matches the header) and returns the final APN table the
    /// emitted rows' symbols resolve through. For JSONL the table grows
    /// while streaming (first-occurrence interning in row order), so
    /// resolve symbols only through this final table.
    pub fn finish(self) -> Result<ApnTable, IoError> {
        if !self.exhausted || !self.pending.is_empty() {
            return Err(IoError::BadHeader(
                "catalog stream not fully consumed".into(),
            ));
        }
        if self.rows_seen != self.declared_rows {
            return Err(IoError::BadHeader(format!(
                "header promised {} rows, found {}",
                self.declared_rows, self.rows_seen
            )));
        }
        Ok(self.table)
    }

    /// Pulls one backend unit (a line block or a `WTRCAT` chunk window)
    /// into `pending`, one chunk per line block or row group. Sets
    /// `exhausted` at end of input.
    fn refill(&mut self) -> Result<(), IoError> {
        match &mut self.backend {
            StreamBackend::Jsonl {
                input,
                parse,
                line_no,
                buf,
                spans,
            } => {
                // Accumulate up to a chunk of raw lines into the
                // persistent block buffer: `clear` keeps capacity, so
                // after the first refill the hot loop allocates nothing.
                buf.clear();
                spans.clear();
                while spans.len() < wire::CAT_CHUNK_ROWS {
                    let start = buf.len();
                    if input.read_line(buf)? == 0 {
                        self.exhausted = true;
                        break;
                    }
                    *line_no += 1;
                    let line = buf[start..].trim_end_matches(['\n', '\r']);
                    if line.trim().is_empty() {
                        buf.truncate(start);
                        continue;
                    }
                    spans.push((*line_no, start..start + line.len()));
                }
                let numbered: Vec<(usize, &str)> = spans
                    .iter()
                    .map(|(num, range)| (*num, &buf[range.clone()]))
                    .collect();
                let mut chunk = Vec::with_capacity(numbered.len());
                for ((line, _), wire) in numbered.iter().zip(parse(&numbered)) {
                    let entry = wire?.into_entry(|a| self.table.intern(a));
                    check_row(&mut self.last_key, self.window_days, &entry).map_err(|message| {
                        IoError::Parse {
                            line: *line,
                            message,
                        }
                    })?;
                    chunk.push(entry);
                }
                self.push_chunk(chunk);
            }
            StreamBackend::Wtrcat {
                input,
                remaining_chunks,
                table_len,
            } => {
                // Read up to a worker-window of frames, then decode them
                // in parallel (decode is pure per chunk, so the window
                // size cannot affect the output).
                let window = par::threads().max(1).min(*remaining_chunks as usize);
                let mut frames: Vec<(Vec<u8>, usize)> = Vec::with_capacity(window);
                for _ in 0..window {
                    let frame = read_exact_vec(input, 8, "chunk frame")?;
                    let byte_len =
                        u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
                    let rows = u32::from_le_bytes(frame[4..].try_into().expect("4 bytes")) as usize;
                    frames.push((read_exact_vec(input, byte_len, "chunk body")?, rows));
                    *remaining_chunks -= 1;
                }
                if *remaining_chunks == 0 {
                    // Past the final chunk the file must end.
                    let mut probe = [0u8; 1];
                    if input.read(&mut probe)? != 0 {
                        return Err(IoError::BadHeader(
                            "bytes after the final WTRCAT chunk".into(),
                        ));
                    }
                    self.exhausted = true;
                }
                let table_len = *table_len;
                let decoded = par::par_each(&frames, |(body, rows)| {
                    wire::decode_chunk_rows(body, *rows, table_len)
                });
                for chunk in decoded {
                    let chunk = chunk.map_err(|e| IoError::BadHeader(e.to_string()))?;
                    for entry in &chunk {
                        check_row(&mut self.last_key, self.window_days, entry)
                            .map_err(IoError::BadHeader)?;
                    }
                    self.push_chunk(chunk);
                }
            }
        }
        Ok(())
    }

    /// Queues a decoded chunk for emission; an empty one is dropped.
    fn push_chunk(&mut self, chunk: Vec<CatalogEntry>) {
        if !chunk.is_empty() {
            self.rows_seen += chunk.len() as u64;
            self.pending.push_back(chunk);
        }
    }
}

impl<R: BufRead> RecordStream for CatalogStream<R> {
    type Item = CatalogEntry;
    type Error = IoError;

    fn next_chunk(&mut self) -> Result<Option<Vec<CatalogEntry>>, IoError> {
        while !self.exhausted && self.pending.is_empty() {
            self.refill()?;
        }
        Ok(self.pending.pop_front())
    }
}

/// One line of a ground-truth JSONL stream: the anonymized device ID and
/// its true vertical. Produced by scenario runs (`wtr simulate-mno
/// --truth`), consumed by `wtr validate` — never by the classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TruthLine {
    /// Anonymized device ID (same hashing as the catalog).
    pub user: u64,
    /// Ground-truth vertical.
    pub vertical: wtr_model::vertical::Vertical,
}

/// Writes a ground-truth map as JSONL in (user) order — `BTreeMap` keeps
/// the export byte-stable without an explicit sort.
pub fn write_truth<W: Write>(
    mut out: W,
    truth: &BTreeMap<u64, wtr_model::vertical::Vertical>,
) -> Result<(), IoError> {
    let lines = truth.iter().map(|(user, vertical)| TruthLine {
        user: *user,
        vertical: *vertical,
    });
    for (idx, line) in lines.enumerate() {
        serde_json::to_writer(&mut out, &line).map_err(|e| IoError::Parse {
            line: idx + 1,
            message: e.to_string(),
        })?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Reads a ground-truth map written by [`write_truth`].
pub fn read_truth<R: BufRead>(
    mut input: R,
) -> Result<BTreeMap<u64, wtr_model::vertical::Vertical>, IoError> {
    let mut text = String::new();
    input.read_to_string(&mut text)?;
    parse_lines(&numbered_line_slices(&text, 1))
        .into_iter()
        .map(|line: Result<TruthLine, IoError>| line.map(|t| (t.user, t.vertical)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::ids::{Plmn, Tac};
    use wtr_model::roaming::RoamingLabel;
    use wtr_model::time::{Day, SimTime};

    fn sample_catalog() -> DevicesCatalog {
        let mut cat = DevicesCatalog::new(22);
        let apn = cat.intern_apn("smhp.centricaplc.com");
        for (user, day) in [(1u64, 0u32), (1, 3), (2, 1)] {
            let row = cat.row_mut(
                user,
                Day(day),
                Plmn::of(204, 4),
                Tac::new(35_000_000).unwrap(),
                RoamingLabel::IH,
            );
            row.events = 10 + user;
            row.bytes_up = 100 * user;
            row.apns.insert(apn);
            row.hourly[13] = 4;
        }
        cat
    }

    fn sample_transactions() -> Vec<M2mTransaction> {
        use crate::records::M2mMessageType;
        use wtr_sim::events::ProcedureResult;
        (0..50u64)
            .map(|i| M2mTransaction {
                device: i,
                time: SimTime::from_secs(i * 11),
                sim_plmn: Plmn::of(214, 7),
                visited_plmn: Plmn::of(234, 30),
                message: M2mMessageType::UpdateLocation,
                result: if i % 4 == 0 {
                    ProcedureResult::RoamingNotAllowed
                } else {
                    ProcedureResult::Ok
                },
            })
            .collect()
    }

    #[test]
    fn transactions_roundtrip() {
        let txs = sample_transactions();
        let mut buf = Vec::new();
        write_transactions(&mut buf, &txs).unwrap();
        assert_eq!(buf.iter().filter(|b| **b == b'\n').count(), txs.len());
        let back = read_transactions(&buf[..]).unwrap();
        assert_eq!(back, txs);
    }

    #[test]
    fn transactions_skip_blank_lines() {
        let txs = sample_transactions();
        let mut buf = Vec::new();
        write_transactions(&mut buf, &txs[..2]).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_transactions(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn transactions_report_bad_line_number() {
        let txs = sample_transactions();
        let mut buf = Vec::new();
        write_transactions(&mut buf, &txs[..3]).unwrap();
        buf.extend_from_slice(b"{not json}\n");
        let err = read_transactions(&buf[..]).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn catalog_roundtrip_preserves_rows() {
        let cat = sample_catalog();
        let mut buf = Vec::new();
        write_catalog(&mut buf, &cat).unwrap();
        let back = read_catalog_auto(&buf[..]).unwrap();
        assert_eq!(back.len(), cat.len());
        assert_eq!(back.window_days(), 22);
        let row = back.get(1, Day(3)).unwrap();
        assert_eq!(row.events, 11);
        assert_eq!(row.hourly[13], 4);
        assert!(row
            .apns
            .iter()
            .any(|&sym| back.apn_str(sym) == "smhp.centricaplc.com"));
    }

    #[test]
    fn catalog_export_is_stable() {
        let cat = sample_catalog();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_catalog(&mut a, &cat).unwrap();
        write_catalog(&mut b, &cat).unwrap();
        assert_eq!(a, b, "exports must be byte-identical (diffable)");
    }

    #[test]
    fn truth_roundtrip() {
        use wtr_model::vertical::Vertical;
        let truth: BTreeMap<u64, Vertical> = [
            (7u64, Vertical::SmartMeter),
            (3, Vertical::Smartphone),
            (9, Vertical::ConnectedCar),
        ]
        .into_iter()
        .collect();
        let mut buf = Vec::new();
        write_truth(&mut buf, &truth).unwrap();
        let back = read_truth(&buf[..]).unwrap();
        assert_eq!(back, truth);
        // Stable export: byte-identical across runs.
        let mut buf2 = Vec::new();
        write_truth(&mut buf2, &truth).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn catalog_auto_sniffs_both_formats() {
        let cat = sample_catalog();
        let mut jsonl = Vec::new();
        write_catalog(&mut jsonl, &cat).unwrap();
        let mut bin = Vec::new();
        write_catalog_bin(&mut bin, &cat).unwrap();
        assert!(bin.len() < jsonl.len());
        for bytes in [&jsonl, &bin] {
            let back = read_catalog_auto(&bytes[..]).unwrap();
            assert_eq!(back.len(), cat.len());
            let row = back.get(1, Day(3)).unwrap();
            assert!(row
                .apns
                .iter()
                .any(|&sym| back.apn_str(sym) == "smhp.centricaplc.com"));
        }
    }

    #[test]
    fn jsonl_and_wtrcat_reimports_are_equivalent() {
        // Satellite: JSONL ↔ columnar roundtrip equivalence. Importing
        // either serialization and re-exporting as JSONL must be
        // byte-identical — same rows, same resolved APN strings.
        let cat = sample_catalog();
        let mut jsonl = Vec::new();
        write_catalog(&mut jsonl, &cat).unwrap();
        let mut bin = Vec::new();
        write_catalog_bin(&mut bin, &cat).unwrap();
        let from_jsonl = read_catalog_auto(&jsonl[..]).unwrap();
        let from_bin = read_catalog_auto(&bin[..]).unwrap();
        let mut a = Vec::new();
        write_catalog(&mut a, &from_jsonl).unwrap();
        let mut b = Vec::new();
        write_catalog(&mut b, &from_bin).unwrap();
        assert_eq!(a, jsonl, "JSONL reimport re-exports identically");
        assert_eq!(b, jsonl, "WTRCAT reimport re-exports identically");
    }

    #[test]
    fn catalog_rejects_bad_header_and_row_count() {
        let cat = sample_catalog();
        let mut buf = Vec::new();
        write_catalog(&mut buf, &cat).unwrap();
        // Truncate the last row: count mismatch.
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            read_catalog_auto(truncated.as_bytes()),
            Err(IoError::BadHeader(_))
        ));
        // Garbage header.
        assert!(matches!(
            read_catalog_auto(&b"{\"format\":\"nope\"}\n"[..]),
            Err(IoError::BadHeader(_))
        ));
        assert!(matches!(
            read_catalog_auto(&b""[..]),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn row_order_rule_spans_chunk_boundaries() {
        // One row past a full JSONL refill and a full WTRCAT chunk.
        let tac = Tac::new(35_000_000).unwrap();
        let mut cat = DevicesCatalog::new(1);
        for user in 0..=wire::CAT_CHUNK_ROWS as u64 {
            cat.row_mut(user, Day(0), Plmn::of(204, 4), tac, RoamingLabel::IH);
        }
        let rows = cat.len();

        // JSONL: the first refill's last row again, after the rest.
        let mut jsonl = Vec::new();
        write_catalog(&mut jsonl, &cat).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        let repeat = text.lines().nth(wire::CAT_CHUNK_ROWS).unwrap();
        let rows_field = |n: usize| format!("\"rows\":{n}");
        let body = text.replacen(&rows_field(rows), &rows_field(rows + 1), 1) + repeat + "\n";
        let err = read_catalog_auto(body.as_bytes()).unwrap_err();
        assert!(
            matches!(err, IoError::Parse { line, .. } if line == rows + 2),
            "{err}"
        );

        // WTRCAT: a second chunk holding user 0's row again.
        let bin = wire::encode_catalog(&cat);
        let mut first = DevicesCatalog::new(1);
        first.insert_entry(cat.iter().next().unwrap().clone());
        let one = wire::encode_catalog(&first);
        let header_len = |bytes: &[u8]| {
            let mut slice = bytes;
            wire::decode_catalog_header(&mut slice).unwrap();
            bytes.len() - slice.len()
        };
        let chunk = header_len(&bin);
        let body_len = u32::from_le_bytes(bin[chunk..chunk + 4].try_into().unwrap()) as usize;
        let mut spliced = bin[..chunk + 8 + body_len].to_vec();
        spliced.extend_from_slice(&one[header_len(&one)..]);
        let err = read_catalog_auto(&spliced[..]).unwrap_err();
        assert!(err.to_string().contains("strictly ascending"), "{err}");
    }
}
