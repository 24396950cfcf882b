//! Compact binary encoding for transaction logs.
//!
//! The M2M dataset at paper scale is 14M transactions; persisting or
//! shipping it as JSON would be ~50× larger than necessary. This module
//! defines a fixed-width little-endian record format (26 bytes per
//! transaction plus a 16-byte log header) built on the `bytes` crate.
//!
//! Layout per record: `device:u64 | time:u64 | sim_plmn:u32 |
//! visited_plmn:u32 | message:u8 | result:u8`.
//! PLMNs use [`Plmn::packed`]; the decoder reverses the packing.

use crate::catalog::{CatalogEntry, DevicesCatalog, MobilityAccum};
use crate::records::{M2mMessageType, M2mTransaction};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeSet;
use wtr_model::error::ParseError;
use wtr_model::ids::{Mcc, Mnc, Plmn, Tac};
use wtr_model::intern::{ApnSym, ApnTable};
use wtr_model::rat::{RadioFlags, RatSet};
use wtr_model::roaming::RoamingLabel;
use wtr_model::time::{Day, SimTime};
use wtr_sim::events::ProcedureResult;

/// Magic bytes opening a transaction log.
pub const MAGIC: &[u8; 8] = b"WTRM2M\x01\x00";

/// Magic bytes opening a columnar devices-catalog (`WTRCAT`) file: the
/// format name, the version byte and a zero byte. Version 2 dropped the
/// per-row call seconds and sector-id set of version 1.
pub const CAT_MAGIC: &[u8; 8] = b"WTRCAT\x02\x00";

/// The format name that opens a `WTRCAT` file of any version. The
/// catalog readers sniff this, not the whole magic, so that a file of
/// another version fails the version check instead of being read as
/// JSONL.
pub const CAT_NAME: &[u8; 6] = b"WTRCAT";

/// Rows per `WTRCAT` row-group chunk — the unit of parallel decoding.
pub const CAT_CHUNK_ROWS: usize = 4096;

fn encode_plmn(p: Plmn) -> u32 {
    p.packed()
}

fn decode_plmn(key: u32) -> Result<Plmn, ParseError> {
    let mcc = Mcc::new((key / 2000) as u16)?;
    let mnc_key = key % 2000;
    let mnc = if mnc_key < 100 {
        Mnc::new2(mnc_key as u16)?
    } else {
        Mnc::new3((mnc_key - 100) as u16)?
    };
    Ok(Plmn::new(mcc, mnc))
}

fn encode_message(m: M2mMessageType) -> u8 {
    match m {
        M2mMessageType::Authentication => 0,
        M2mMessageType::UpdateLocation => 1,
        M2mMessageType::CancelLocation => 2,
    }
}

fn decode_message(b: u8) -> Result<M2mMessageType, ParseError> {
    Ok(match b {
        0 => M2mMessageType::Authentication,
        1 => M2mMessageType::UpdateLocation,
        2 => M2mMessageType::CancelLocation,
        _ => {
            return Err(ParseError::OutOfRange {
                what: "message type byte",
                allowed: "0..=2",
            })
        }
    })
}

fn encode_result(r: ProcedureResult) -> u8 {
    match r {
        ProcedureResult::Ok => 0,
        ProcedureResult::RoamingNotAllowed => 1,
        ProcedureResult::UnknownSubscription => 2,
        ProcedureResult::FeatureUnsupported => 3,
        ProcedureResult::NetworkFailure => 4,
    }
}

fn decode_result(b: u8) -> Result<ProcedureResult, ParseError> {
    Ok(match b {
        0 => ProcedureResult::Ok,
        1 => ProcedureResult::RoamingNotAllowed,
        2 => ProcedureResult::UnknownSubscription,
        3 => ProcedureResult::FeatureUnsupported,
        4 => ProcedureResult::NetworkFailure,
        _ => {
            return Err(ParseError::OutOfRange {
                what: "result byte",
                allowed: "0..=4",
            })
        }
    })
}

/// Checks a stream's leading bytes against `magic`: a 6-byte format
/// name, a version byte and a zero byte. A stream that opens with the
/// format name but differs after it is reported with its version byte.
fn check_magic(found: &[u8], magic: &[u8; 8], format: &'static str) -> Result<(), ParseError> {
    if found == magic {
        return Ok(());
    }
    Err(ParseError::BadMagic {
        format,
        expected: magic[6],
        found: (found.len() == magic.len() && found[..6] == magic[..6]).then(|| found[6]),
    })
}

/// Serialized size of one record.
pub const RECORD_SIZE: usize = 8 + 8 + 4 + 4 + 1 + 1;

/// Encodes a transaction log into a contiguous byte buffer.
///
/// ```
/// use wtr_probes::wire::{decode_log, encode_log, RECORD_SIZE};
///
/// let encoded = encode_log(&[]);
/// assert_eq!(encoded.len(), 16); // header only
/// assert_eq!(RECORD_SIZE, 26);
/// assert!(decode_log(encoded).unwrap().is_empty());
/// ```
pub fn encode_log(transactions: &[M2mTransaction]) -> Bytes {
    let mut buf = BytesMut::with_capacity(MAGIC.len() + 8 + transactions.len() * RECORD_SIZE);
    buf.put_slice(MAGIC);
    buf.put_u64_le(transactions.len() as u64);
    for t in transactions {
        buf.put_u64_le(t.device);
        buf.put_u64_le(t.time.as_secs());
        buf.put_u32_le(encode_plmn(t.sim_plmn));
        buf.put_u32_le(encode_plmn(t.visited_plmn));
        buf.put_u8(encode_message(t.message));
        buf.put_u8(encode_result(t.result));
    }
    buf.freeze()
}

/// Decodes a transaction log produced by [`encode_log`].
pub fn decode_log(mut buf: impl Buf) -> Result<Vec<M2mTransaction>, ParseError> {
    if buf.remaining() < MAGIC.len() + 8 {
        return Err(ParseError::BadLength {
            what: "transaction log",
            expected: "at least 16 header bytes",
            found: buf.remaining(),
        });
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    check_magic(&magic, MAGIC, "WTRM2M")?;
    let count = buf.get_u64_le() as usize;
    if buf.remaining() != count * RECORD_SIZE {
        return Err(ParseError::BadLength {
            what: "transaction log body",
            expected: "count * 26 bytes",
            found: buf.remaining(),
        });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let device = buf.get_u64_le();
        let time = SimTime::from_secs(buf.get_u64_le());
        let sim_plmn = decode_plmn(buf.get_u32_le())?;
        let visited_plmn = decode_plmn(buf.get_u32_le())?;
        let message = decode_message(buf.get_u8())?;
        let result = decode_result(buf.get_u8())?;
        out.push(M2mTransaction {
            device,
            time,
            sim_plmn,
            visited_plmn,
            message,
            result,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// WTRCAT: columnar binary devices-catalog codec.
//
// Layout:
//
// ```text
// magic "WTRCAT\x02\x00"
// window_days: u32 LE
// rows:        u64 LE
// chunks:      u32 LE
// apn table:   u32 LE count, then per string u16 LE length + UTF-8 bytes,
//              strictly ascending (canonical order; symbols = sorted rank)
// per chunk:   byte_len u32 LE | row_count u32 LE | row bytes
// per row:     user, day, sim PLMN, TAC | label u8 | flags u8 |
//              7 counters | radio flags 2 bytes | visited set | APN set |
//              24 hourly counters | mobility 5 × f64 (if flagged)
// ```
//
// Rows use LEB128 varints for counters and id columns, one byte per
// enum/bitset, and raw little-endian f64 for the mobility accumulator
// (present only when non-default). Sorted sets (visited PLMN keys, APN
// symbols) are delta-encoded. Because the table is stored in canonical
// (sorted) order and rows are remapped to it at encode time, the file
// bytes depend only on catalog *content* — never on ingest order or
// thread count.

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> Result<u64, ParseError> {
    let mut out: u64 = 0;
    for shift in (0..64).step_by(7) {
        if buf.is_empty() {
            return Err(ParseError::BadLength {
                what: "varint",
                expected: "continuation byte",
                found: 0,
            });
        }
        let byte = buf[0];
        *buf = &buf[1..];
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
    }
    Err(ParseError::OutOfRange {
        what: "varint",
        allowed: "at most 10 bytes",
    })
}

fn encode_label(label: RoamingLabel) -> u8 {
    label.index() as u8
}

fn decode_label(b: u8) -> Result<RoamingLabel, ParseError> {
    RoamingLabel::ALL
        .get(b as usize)
        .copied()
        .ok_or(ParseError::OutOfRange {
            what: "roaming-label byte",
            allowed: "0..=5",
        })
}

/// Writes a sorted ascending `u64` sequence as count + delta varints.
fn put_sorted_set(buf: &mut BytesMut, values: impl ExactSizeIterator<Item = u64>) {
    put_varint(buf, values.len() as u64);
    let mut prev = 0u64;
    for v in values {
        debug_assert!(v >= prev);
        put_varint(buf, v - prev);
        prev = v;
    }
}

fn get_sorted_set(buf: &mut &[u8], what: &'static str) -> Result<Vec<u64>, ParseError> {
    let n = get_varint(buf)? as usize;
    if n > buf.len() {
        // Each element takes ≥ 1 byte; reject wild counts before allocating.
        return Err(ParseError::BadLength {
            what,
            expected: "count consistent with remaining bytes",
            found: buf.len(),
        });
    }
    let mut out = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        prev = prev
            .checked_add(get_varint(buf)?)
            .ok_or(ParseError::OutOfRange {
                what,
                allowed: "deltas summing below 2^64",
            })?;
        out.push(prev);
    }
    Ok(out)
}

/// Encodes one row; `remap[sym.index()]` translates the catalog's symbols
/// to canonical (sorted-table) symbols.
fn encode_row(buf: &mut BytesMut, row: &CatalogEntry, remap: &[ApnSym]) {
    put_varint(buf, row.user);
    put_varint(buf, u64::from(row.day.0));
    put_varint(buf, u64::from(row.sim_plmn.packed()));
    put_varint(buf, u64::from(row.tac.value()));
    buf.put_u8(encode_label(row.label));
    let mobility_present = row.mobility != MobilityAccum::default();
    let flags = u8::from(row.in_designated_range)
        | u8::from(row.in_published_m2m_range) << 1
        | u8::from(mobility_present) << 2;
    buf.put_u8(flags);
    for counter in [
        row.events,
        row.failed_events,
        row.calls,
        row.sms,
        row.data_sessions,
        row.bytes_up,
        row.bytes_down,
    ] {
        put_varint(buf, counter);
    }
    buf.put_u8(row.radio_flags.any.bits() << 4 | row.radio_flags.data.bits());
    buf.put_u8(row.radio_flags.voice.bits());
    put_sorted_set(buf, row.visited.iter().map(|&k| u64::from(k)));
    let mut apns: Vec<u64> = row
        .apns
        .iter()
        .map(|s| u64::from(remap[s.index()].raw()))
        .collect();
    apns.sort_unstable();
    put_sorted_set(buf, apns.into_iter());
    for h in row.hourly {
        put_varint(buf, u64::from(h));
    }
    if mobility_present {
        for part in row.mobility.to_parts() {
            buf.put_f64_le(part);
        }
    }
}

fn narrow_u32(v: u64, what: &'static str) -> Result<u32, ParseError> {
    u32::try_from(v).map_err(|_| ParseError::OutOfRange {
        what,
        allowed: "0..=u32::MAX",
    })
}

/// Decodes one row. `table_len` bounds the valid APN symbol range.
fn decode_row(buf: &mut &[u8], table_len: usize) -> Result<CatalogEntry, ParseError> {
    let user = get_varint(buf)?;
    let day = Day(narrow_u32(get_varint(buf)?, "day")?);
    let sim_plmn = decode_plmn(narrow_u32(get_varint(buf)?, "PLMN key")?)?;
    let tac = Tac::new(narrow_u32(get_varint(buf)?, "TAC")?)?;
    if buf.len() < 2 {
        return Err(ParseError::BadLength {
            what: "catalog row",
            expected: "label and flags bytes",
            found: buf.len(),
        });
    }
    let label = decode_label(buf[0])?;
    let flags = buf[1];
    *buf = &buf[2..];
    if flags & !0b111 != 0 {
        return Err(ParseError::OutOfRange {
            what: "row flags byte",
            allowed: "bits 0..=2",
        });
    }
    let mut counters = [0u64; 7];
    for c in &mut counters {
        *c = get_varint(buf)?;
    }
    if buf.len() < 2 {
        return Err(ParseError::BadLength {
            what: "catalog row",
            expected: "radio-flags bytes",
            found: buf.len(),
        });
    }
    let radio_flags = RadioFlags {
        any: RatSet::from_bits(buf[0] >> 4),
        data: RatSet::from_bits(buf[0] & 0b1111),
        voice: RatSet::from_bits(buf[1]),
    };
    *buf = &buf[2..];
    let visited: BTreeSet<u32> = get_sorted_set(buf, "visited-PLMN set")?
        .into_iter()
        .map(|v| narrow_u32(v, "visited-PLMN key"))
        .collect::<Result<_, _>>()?;
    let mut apns = BTreeSet::new();
    for raw in get_sorted_set(buf, "APN symbol set")? {
        let raw = narrow_u32(raw, "APN symbol")?;
        if raw as usize >= table_len {
            return Err(ParseError::OutOfRange {
                what: "APN symbol",
                allowed: "below the file's table length",
            });
        }
        apns.insert(ApnSym::from_raw(raw));
    }
    let mut hourly = [0u32; 24];
    for h in &mut hourly {
        *h = narrow_u32(get_varint(buf)?, "hourly counter")?;
    }
    let mobility = if flags & 0b100 != 0 {
        if buf.len() < 40 {
            return Err(ParseError::BadLength {
                what: "catalog row",
                expected: "40 mobility bytes",
                found: buf.len(),
            });
        }
        let mut parts = [0f64; 5];
        for p in &mut parts {
            *p = f64::from_le_bytes(buf[..8].try_into().expect("length checked"));
            *buf = &buf[8..];
        }
        MobilityAccum::from_parts(parts)
    } else {
        MobilityAccum::default()
    };
    Ok(CatalogEntry {
        user,
        day,
        sim_plmn,
        tac,
        label,
        events: counters[0],
        failed_events: counters[1],
        calls: counters[2],
        sms: counters[3],
        data_sessions: counters[4],
        bytes_up: counters[5],
        bytes_down: counters[6],
        visited,
        apns,
        radio_flags,
        hourly,
        in_designated_range: flags & 0b001 != 0,
        in_published_m2m_range: flags & 0b010 != 0,
        mobility,
    })
}

/// Encodes a devices-catalog into the columnar `WTRCAT` format.
///
/// The APN table is written in canonical (sorted) order and row symbols
/// are remapped to it, so two catalogs with equal content produce equal
/// bytes regardless of the order their APNs were first interned — the
/// serialized form is independent of ingest chunking and thread count.
pub fn encode_catalog(catalog: &DevicesCatalog) -> Bytes {
    let (table, remap) = catalog.apn_table().canonicalized();
    let rows: Vec<&CatalogEntry> = catalog.iter().collect();
    let chunk_count = rows.len().div_ceil(CAT_CHUNK_ROWS);
    let mut buf = BytesMut::with_capacity(64 + rows.len() * 64);
    buf.put_slice(CAT_MAGIC);
    buf.put_u32_le(catalog.window_days());
    buf.put_u64_le(rows.len() as u64);
    buf.put_u32_le(chunk_count as u32);
    buf.put_u32_le(table.len() as u32);
    for s in table.strings() {
        debug_assert!(s.len() <= usize::from(u16::MAX));
        buf.put_u16_le(s.len() as u16);
        buf.put_slice(s.as_bytes());
    }
    let mut chunk = BytesMut::new();
    for group in rows.chunks(CAT_CHUNK_ROWS.max(1)) {
        chunk.clear();
        for row in group {
            encode_row(&mut chunk, row, &remap);
        }
        buf.put_u32_le(chunk.len() as u32);
        buf.put_u32_le(group.len() as u32);
        buf.put_slice(&chunk);
    }
    buf.freeze()
}

fn take<'a>(buf: &mut &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8], ParseError> {
    if buf.len() < n {
        return Err(ParseError::BadLength {
            what,
            expected: "more bytes than remain",
            found: buf.len(),
        });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn get_u32_le(buf: &mut &[u8], what: &'static str) -> Result<u32, ParseError> {
    Ok(u32::from_le_bytes(
        take(buf, 4, what)?.try_into().expect("length checked"),
    ))
}

/// The fixed part of a `WTRCAT` file: everything before the row-group
/// chunks. Produced by [`decode_catalog_header`]; the chunk bodies that
/// follow decode independently via [`decode_chunk_rows`], which is what
/// lets the streaming reader hold one chunk at a time instead of the
/// whole catalog.
#[derive(Debug, Clone)]
pub struct CatalogHeaderBin {
    /// Length of the observation window in days.
    pub window_days: u32,
    /// Total row count declared by the header (validated against the
    /// sum of chunk row counts by whoever consumes the chunks).
    pub rows: u64,
    /// Number of row-group chunks that follow the header.
    pub chunks: u32,
    /// The canonical (strictly ascending) APN table; row symbols in the
    /// chunk bodies resolve against it.
    pub table: ApnTable,
}

/// Byte length of the fixed `WTRCAT` header region: magic, window
/// length, row count, chunk count, APN-table length. Everything after
/// it is length-prefixed (table strings, then chunk frames).
pub const CAT_FIXED_LEN: usize = CAT_MAGIC.len() + 4 + 8 + 4 + 4;

/// The fixed-size leading fields of a `WTRCAT` header, validated
/// **before** any of its length fields are trusted — see
/// [`decode_catalog_fixed`].
#[derive(Debug, Clone, Copy)]
pub struct CatalogFixed {
    /// Length of the observation window in days.
    pub window_days: u32,
    /// Total row count declared by the header.
    pub rows: u64,
    /// Number of row-group chunks that follow the header.
    pub chunks: u32,
    /// Number of APN-table strings between the fixed region and the
    /// first chunk frame.
    pub table_len: u32,
}

/// Parses and validates the fixed header region from the front of
/// `buf`, advancing past it. The magic is checked **first**, and the
/// declared row count must be consistent with the chunk count
/// (`rows.div_ceil(CAT_CHUNK_ROWS) == chunks`, the encoder's invariant)
/// — so a corrupt or mis-sniffed file is rejected here, before any
/// reader loops on a hostile length field.
pub fn decode_catalog_fixed(buf: &mut &[u8]) -> Result<CatalogFixed, ParseError> {
    check_magic(
        take(buf, CAT_MAGIC.len(), "catalog header")?,
        CAT_MAGIC,
        "WTRCAT",
    )?;
    let window_days = get_u32_le(buf, "window_days")?;
    let rows = u64::from_le_bytes(
        take(buf, 8, "row count")?
            .try_into()
            .expect("length checked"),
    );
    let chunks = get_u32_le(buf, "chunk count")?;
    let table_len = get_u32_le(buf, "APN table length")?;
    if rows.div_ceil(CAT_CHUNK_ROWS as u64) != u64::from(chunks) {
        return Err(ParseError::BadLength {
            what: "chunk count",
            expected: "row count / chunk size",
            found: chunks as usize,
        });
    }
    Ok(CatalogFixed {
        window_days,
        rows,
        chunks,
        table_len,
    })
}

/// Parses the `WTRCAT` magic, fixed header fields and canonical APN
/// table from the front of `buf`, advancing `buf` past them (to the
/// first chunk frame). Validation order is hardened: the fixed region
/// ([`decode_catalog_fixed`]) is checked before the table length is
/// used to drive any loop.
pub fn decode_catalog_header(buf: &mut &[u8]) -> Result<CatalogHeaderBin, ParseError> {
    let fixed = decode_catalog_fixed(buf)?;
    let CatalogFixed {
        window_days,
        rows,
        chunks,
        table_len,
    } = fixed;
    let table_len = table_len as usize;
    // Every table entry costs at least its 2-byte length prefix, so the
    // declared count is capped by the bytes that actually remain —
    // rejecting a hostile length before the loop, not during it.
    if table_len > buf.len() / 2 {
        return Err(ParseError::BadLength {
            what: "APN table length",
            expected: "at most remaining bytes / 2",
            found: table_len,
        });
    }
    let mut table = ApnTable::new();
    let mut prev: Option<&str> = None;
    for _ in 0..table_len {
        let len = u16::from_le_bytes(
            take(buf, 2, "APN string length")?
                .try_into()
                .expect("length checked"),
        ) as usize;
        let raw = take(buf, len, "APN string bytes")?;
        let s = std::str::from_utf8(raw).map_err(|_| ParseError::BadApn {
            reason: "APN table entry is not UTF-8",
        })?;
        if prev.is_some_and(|p| p >= s) {
            return Err(ParseError::BadApn {
                reason: "APN table not strictly ascending",
            });
        }
        table.intern(s);
        prev = Some(s);
    }
    Ok(CatalogHeaderBin {
        window_days,
        rows,
        chunks,
        table,
    })
}

/// Decodes one row-group chunk body into its rows (in file order).
/// `table_len` bounds the valid APN symbol range; symbols resolve
/// against the header's canonical table.
pub fn decode_chunk_rows(
    mut body: &[u8],
    rows: usize,
    table_len: usize,
) -> Result<Vec<CatalogEntry>, ParseError> {
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        out.push(decode_row(&mut body, table_len)?);
    }
    if !body.is_empty() {
        return Err(ParseError::BadLength {
            what: "chunk body",
            expected: "no bytes after the final row",
            found: body.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::read_catalog_auto;

    fn sample(n: u64) -> Vec<M2mTransaction> {
        (0..n)
            .map(|i| M2mTransaction {
                device: i * 31,
                time: SimTime::from_secs(i * 7),
                sim_plmn: if i % 2 == 0 {
                    Plmn::of(214, 7)
                } else {
                    Plmn::of(334, 20)
                },
                visited_plmn: Plmn::of(234, 30),
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

    #[test]
    fn roundtrip() {
        let txs = sample(1_000);
        let bytes = encode_log(&txs);
        assert_eq!(bytes.len(), 16 + 1_000 * RECORD_SIZE);
        let back = decode_log(bytes).unwrap();
        assert_eq!(back, txs);
    }

    #[test]
    fn empty_log_roundtrip() {
        let bytes = encode_log(&[]);
        assert_eq!(decode_log(bytes).unwrap(), Vec::new());
    }

    #[test]
    fn rejects_bad_magic() {
        let txs = sample(3);
        let bytes = encode_log(&txs);
        let mut raw = bytes.to_vec();
        raw[0] ^= 0xff;
        assert!(decode_log(&raw[..]).is_err());
    }

    #[test]
    fn rejects_truncated_body() {
        let txs = sample(3);
        let bytes = encode_log(&txs);
        let raw = bytes.to_vec();
        assert!(decode_log(&raw[..raw.len() - 1]).is_err());
        assert!(decode_log(&raw[..10]).is_err());
    }

    #[test]
    fn rejects_bad_enum_bytes() {
        let txs = sample(1);
        let mut raw = encode_log(&txs).to_vec();
        let msg_off = 16 + 8 + 8 + 4 + 4;
        raw[msg_off] = 9;
        assert!(decode_log(&raw[..]).is_err());
    }

    #[test]
    fn three_digit_mnc_survives_roundtrip() {
        let tx = M2mTransaction {
            device: 1,
            time: SimTime::ZERO,
            sim_plmn: Plmn::new(Mcc::new(310).unwrap(), Mnc::new3(5).unwrap()),
            visited_plmn: Plmn::new(Mcc::new(310).unwrap(), Mnc::new2(5).unwrap()),
            message: M2mMessageType::Authentication,
            result: ProcedureResult::Ok,
        };
        let back = decode_log(encode_log(&[tx])).unwrap();
        assert_eq!(back[0].sim_plmn.mnc.digits(), 3);
        assert_eq!(back[0].visited_plmn.mnc.digits(), 2);
        assert_ne!(back[0].sim_plmn, back[0].visited_plmn);
    }

    #[test]
    fn record_size_is_26() {
        assert_eq!(RECORD_SIZE, 26);
    }

    // --- WTRCAT ---

    fn sample_catalog(devices: u64, days: u32) -> DevicesCatalog {
        use wtr_radio::geo::GeoPoint;
        let mut cat = DevicesCatalog::new(days);
        let tac = Tac::new(35_000_000).unwrap();
        let apns = [
            "smhp.centricaplc.com.mnc004.mcc204.gprs",
            "fleet.scania.com.mnc002.mcc262.gprs",
            "internet.albion.gb",
        ];
        for user in 0..devices {
            let sym = cat.intern_apn(apns[(user % 3) as usize]);
            let label = RoamingLabel::ALL[(user % 6) as usize];
            let sim = Plmn::of(204, 4);
            for day in 0..days {
                if (user + u64::from(day)) % 3 == 0 {
                    continue; // inactive day
                }
                let row = cat.row_mut(user, Day(day), sim, tac, label);
                row.events = user * 10 + u64::from(day);
                row.failed_events = user % 3;
                row.calls = user % 2;
                row.sms = user % 5;
                row.data_sessions = 1 + user % 4;
                row.bytes_up = user * 1_000;
                row.bytes_down = user * 10_000;
                row.visited.insert(Plmn::of(234, 30).packed());
                row.visited.insert(Plmn::of(234, 10).packed());
                row.apns.insert(sym);
                row.radio_flags.any = RatSet::from_bits((1 + user % 15) as u8);
                row.radio_flags.data = RatSet::from_bits((user % 4) as u8);
                row.hourly[(user % 24) as usize] = day + 1;
                row.in_designated_range = user % 7 == 0;
                row.in_published_m2m_range = user % 11 == 0;
                if user % 2 == 0 {
                    row.mobility.add(
                        GeoPoint::new(51.0 + user as f64 * 0.01, -(day as f64) * 0.02),
                        2.0,
                    );
                }
            }
        }
        cat
    }

    /// Resolves a catalog's rows into (identity, strings) form for
    /// content comparison independent of symbol numbering.
    fn resolved(cat: &DevicesCatalog) -> Vec<(u64, u32, Vec<String>, u64)> {
        cat.iter()
            .map(|r| {
                (
                    r.user,
                    r.day.0,
                    r.apns.iter().map(|&s| cat.apn_str(s).to_owned()).collect(),
                    r.events,
                )
            })
            .collect()
    }

    #[test]
    fn catalog_roundtrip_preserves_content() {
        let cat = sample_catalog(40, 5);
        let bytes = encode_catalog(&cat);
        let back = read_catalog_auto(&bytes[..]).unwrap();
        assert_eq!(back.len(), cat.len());
        assert_eq!(back.window_days(), cat.window_days());
        assert_eq!(resolved(&back), resolved(&cat));
        // Everything but the APN symbol numbering is field-for-field equal.
        for (a, b) in cat.iter().zip(back.iter()) {
            assert_eq!(
                (a.user, a.day, a.sim_plmn, a.tac, a.label),
                (b.user, b.day, b.sim_plmn, b.tac, b.label)
            );
            assert_eq!(a.mobility, b.mobility);
            assert_eq!(a.radio_flags, b.radio_flags);
            assert_eq!(a.hourly, b.hourly);
            assert_eq!(a.visited, b.visited);
        }
    }

    #[test]
    fn catalog_encoding_is_canonical() {
        // Decoded catalogs have the canonical (sorted) table, so a second
        // encode is byte-identical — and so is encoding a catalog whose
        // APNs were interned in a different order.
        let cat = sample_catalog(25, 4);
        let bytes = encode_catalog(&cat);
        let back = read_catalog_auto(&bytes[..]).unwrap();
        assert!(back.apn_table().is_canonical());
        assert_eq!(encode_catalog(&back), bytes);
    }

    #[test]
    fn empty_catalog_roundtrip() {
        let cat = DevicesCatalog::new(22);
        let back = read_catalog_auto(&encode_catalog(&cat)[..]).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.window_days(), 22);
    }

    #[test]
    fn catalog_rejects_bad_magic_and_truncation() {
        let bytes = encode_catalog(&sample_catalog(5, 2)).to_vec();
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(read_catalog_auto(&bad[..]).is_err());
        assert!(read_catalog_auto(&bytes[..bytes.len() - 1]).is_err());
        assert!(read_catalog_auto(&bytes[..10]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(read_catalog_auto(&trailing[..]).is_err());
    }

    #[test]
    fn catalog_rejects_unsorted_table() {
        // Header for a 0-row catalog with an out-of-order 2-entry table.
        let mut raw = Vec::new();
        raw.extend_from_slice(CAT_MAGIC);
        raw.extend_from_slice(&1u32.to_le_bytes()); // window_days
        raw.extend_from_slice(&0u64.to_le_bytes()); // rows
        raw.extend_from_slice(&0u32.to_le_bytes()); // chunks
        raw.extend_from_slice(&2u32.to_le_bytes()); // table len
        for s in ["b.example", "a.example"] {
            raw.extend_from_slice(&(s.len() as u16).to_le_bytes());
            raw.extend_from_slice(s.as_bytes());
        }
        assert!(read_catalog_auto(&raw[..]).is_err());
    }

    #[test]
    fn catalog_spans_multiple_chunks() {
        // More rows than one chunk holds: every chunk boundary exercised.
        let mut cat = DevicesCatalog::new(3);
        let sym = cat.intern_apn("telemetry.rwe.de");
        let tac = Tac::new(35_000_000).unwrap();
        for user in 0..(CAT_CHUNK_ROWS as u64 + 100) {
            let row = cat.row_mut(
                user,
                Day((user % 3) as u32),
                Plmn::of(262, 1),
                tac,
                RoamingLabel::IH,
            );
            row.events = user;
            row.apns.insert(sym);
        }
        let bytes = encode_catalog(&cat);
        let back = read_catalog_auto(&bytes[..]).unwrap();
        assert_eq!(back.len(), cat.len());
        assert_eq!(resolved(&back), resolved(&cat));
    }

    #[test]
    fn varint_roundtrip_edges() {
        let mut buf = BytesMut::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in values {
            put_varint(&mut buf, v);
        }
        let mut slice: &[u8] = &buf;
        for v in values {
            assert_eq!(get_varint(&mut slice).unwrap(), v);
        }
        assert!(slice.is_empty());
        // Truncated and overlong inputs are rejected.
        assert!(get_varint(&mut &[0x80u8][..]).is_err());
        assert!(get_varint(&mut &[0xffu8; 11][..]).is_err());
    }
}
