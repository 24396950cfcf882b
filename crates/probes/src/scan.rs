//! Schema-specialized zero-copy JSONL scanner: the fast path behind
//! [`crate::io`]'s line parsers.
//!
//! The JSONL exports in this crate are written by one serializer with one
//! canonical shape per record type — fixed key order, no whitespace, no
//! string escapes in practice. A general JSON parser pays for generality
//! on every line (a `Value` tree, one heap `String` per key and scalar);
//! this module instead matches the canonical byte sequence directly over
//! the borrowed line slice and parses scalars inline.
//!
//! ## The fallback contract
//!
//! The scanner is **strictly stricter** than the serde path: every
//! `None` it returns means "not the canonical shape", never "invalid
//! record". Callers fall back to `serde_json::from_str` on `None`, so
//!
//! * every line the scanner accepts parses to the **exact value** serde
//!   would produce (validated-range scalars bail to serde rather than
//!   widen or saturate differently), and
//! * every line the scanner rejects gets its error — message and line
//!   number — from serde, unchanged from a pure-serde reader.
//!
//! Number tokens mirror the vendored `serde_json` lexer exactly: a
//! greedy run of `[0-9.eE+-]` after an optional sign, handed to
//! `str::parse` — so any token the scanner converts itself converts to
//! the same bits serde would have produced.

use crate::records::{M2mMessageType, M2mTransaction};
use std::collections::BTreeSet;
use wtr_model::ids::{Mcc, Mnc, Plmn, Tac};
use wtr_model::rat::{RadioFlags, RatSet};
use wtr_model::roaming::{Presence, RoamingLabel, SimOrigin};
use wtr_model::time::SimTime;
use wtr_model::vertical::Vertical;
use wtr_sim::events::ProcedureResult;

/// Record types with a canonical-shape fast parse.
///
/// `fast_parse` returns `None` whenever the line deviates from the
/// canonical serialized shape — the caller must then fall back to the
/// serde parser, which owns all error reporting.
pub(crate) trait FastParse: Sized {
    /// Parses one canonical JSONL line, or bails with `None`.
    fn fast_parse(line: &str) -> Option<Self>;
}

/// Cursor over one line's bytes. All methods advance on success and
/// return `None` to signal "bail to serde" (the cursor is then dead).
///
/// Scanning operates on bytes but slices the backing `&str` only at
/// ASCII delimiter positions (`"`, digits, punctuation), which are never
/// inside a multi-byte UTF-8 sequence — so every slice is char-aligned.
pub(crate) struct Scanner<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(line: &'a str) -> Self {
        Scanner { s: line, pos: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.s.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// Consumes the exact literal `lit` (keys, punctuation, separators).
    pub(crate) fn lit(&mut self, lit: &str) -> Option<()> {
        let end = self.pos.checked_add(lit.len())?;
        if self.bytes().get(self.pos..end)? == lit.as_bytes() {
            self.pos = end;
            Some(())
        } else {
            None
        }
    }

    /// Parses a plain decimal `u64`: at least one digit, no sign, no
    /// float continuation. A digit run followed by `.eE+-` is a float
    /// token to the JSON lexer, and an overflowing run is accepted by
    /// serde via its float path — both bail here so serde keeps the
    /// final word.
    pub(crate) fn u64_val(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        match self.peek() {
            Some(b'.' | b'e' | b'E' | b'+' | b'-') => None,
            _ => Some(value),
        }
    }

    pub(crate) fn u32_val(&mut self) -> Option<u32> {
        u32::try_from(self.u64_val()?).ok()
    }

    pub(crate) fn u16_val(&mut self) -> Option<u16> {
        u16::try_from(self.u64_val()?).ok()
    }

    pub(crate) fn u8_val(&mut self) -> Option<u8> {
        u8::try_from(self.u64_val()?).ok()
    }

    /// Parses an `f64` value token. `null` maps to NaN (the writer
    /// serializes non-finite floats as `null`, and the serde reader maps
    /// it back). Otherwise the token is the same greedy `[0-9.eE+-]`
    /// run the vendored JSON lexer takes, parsed by the same
    /// `str::parse::<f64>` — identical bits, identical rejects.
    pub(crate) fn f64_val(&mut self) -> Option<f64> {
        if self.lit("null").is_some() {
            return Some(f64::NAN);
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let token = &self.s[start..self.pos];
        if token.is_empty() || token == "-" {
            return None;
        }
        token.parse::<f64>().ok()
    }

    /// Parses an escape-free JSON string, returning the borrowed slice.
    /// Any backslash bails: escape decoding is serde's job.
    pub(crate) fn string_val(&mut self) -> Option<&'a str> {
        self.lit("\"")?;
        let start = self.pos;
        loop {
            match self.peek()? {
                b'"' => {
                    let s = &self.s[start..self.pos];
                    self.pos += 1;
                    return Some(s);
                }
                b'\\' => return None,
                _ => self.pos += 1,
            }
        }
    }

    pub(crate) fn bool_val(&mut self) -> Option<bool> {
        if self.lit("true").is_some() {
            Some(true)
        } else if self.lit("false").is_some() {
            Some(false)
        } else {
            None
        }
    }

    /// Consumes optional trailing JSON whitespace and requires end of
    /// line — the same trailing-characters rule the vendored parser
    /// applies after the top-level value.
    pub(crate) fn finish(&mut self) -> Option<()> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
        if self.pos == self.s.len() {
            Some(())
        } else {
            None
        }
    }

    // --- model compounds -------------------------------------------------

    /// An MCC in the validated E.212 range. Serde constructs out-of-range
    /// values unchecked; those bail to serde so the result is identical.
    pub(crate) fn mcc(&mut self) -> Option<Mcc> {
        Mcc::new(self.u16_val()?).ok()
    }

    /// An MNC object `{"value":N,"digits":D}` through the validating
    /// constructors (digit counts other than 2/3 bail).
    pub(crate) fn mnc(&mut self) -> Option<Mnc> {
        self.lit("{\"value\":")?;
        let value = self.u16_val()?;
        self.lit(",\"digits\":")?;
        let digits = self.u8_val()?;
        self.lit("}")?;
        match digits {
            2 => Mnc::new2(value).ok(),
            3 => Mnc::new3(value).ok(),
            _ => None,
        }
    }

    /// A PLMN object `{"mcc":N,"mnc":{...}}`.
    pub(crate) fn plmn(&mut self) -> Option<Plmn> {
        self.lit("{\"mcc\":")?;
        let mcc = self.mcc()?;
        self.lit(",\"mnc\":")?;
        let mnc = self.mnc()?;
        self.lit("}")?;
        Some(Plmn::new(mcc, mnc))
    }

    /// A TAC within the 8-digit allocation space.
    pub(crate) fn tac(&mut self) -> Option<Tac> {
        Tac::new(self.u32_val()?).ok()
    }

    pub(crate) fn sim_time(&mut self) -> Option<SimTime> {
        Some(SimTime::from_secs(self.u64_val()?))
    }

    /// A `RoamingLabel` object `{"sim":"…","presence":"…"}`. An
    /// unobservable label (`N:A`, `I:A`) bails to serde, which refuses it.
    pub(crate) fn roaming_label(&mut self) -> Option<RoamingLabel> {
        self.lit("{\"sim\":")?;
        let sim = match self.string_val()? {
            "Home" => SimOrigin::Home,
            "Virtual" => SimOrigin::Virtual,
            "National" => SimOrigin::National,
            "International" => SimOrigin::International,
            _ => return None,
        };
        self.lit(",\"presence\":")?;
        let presence = match self.string_val()? {
            "Home" => Presence::Home,
            "Abroad" => Presence::Abroad,
            _ => return None,
        };
        self.lit("}")?;
        RoamingLabel::from_parts(sim, presence)
    }

    /// One `RatSet` as its transparent bits. `RatSet::from_bits` masks
    /// to the low 4 bits while serde deserializes the raw byte, so any
    /// value the mask would alter bails to serde.
    fn rat_set(&mut self) -> Option<RatSet> {
        let bits = self.u8_val()?;
        if bits > 0b1111 {
            return None;
        }
        Some(RatSet::from_bits(bits))
    }

    /// A `RadioFlags` object `{"any":N,"data":N,"voice":N}`.
    pub(crate) fn radio_flags(&mut self) -> Option<RadioFlags> {
        self.lit("{\"any\":")?;
        let any = self.rat_set()?;
        self.lit(",\"data\":")?;
        let data = self.rat_set()?;
        self.lit(",\"voice\":")?;
        let voice = self.rat_set()?;
        self.lit("}")?;
        Some(RadioFlags { any, data, voice })
    }

    /// A `MobilityAccum` object `{"w":F,"lat_w":F,"lon_w":F,…}` rebuilt
    /// through `from_parts` (a plain field-for-field constructor).
    pub(crate) fn mobility(&mut self) -> Option<crate::catalog::MobilityAccum> {
        self.lit("{\"w\":")?;
        let w = self.f64_val()?;
        self.lit(",\"lat_w\":")?;
        let lat_w = self.f64_val()?;
        self.lit(",\"lon_w\":")?;
        let lon_w = self.f64_val()?;
        self.lit(",\"lat2_w\":")?;
        let lat2_w = self.f64_val()?;
        self.lit(",\"lon2_w\":")?;
        let lon2_w = self.f64_val()?;
        self.lit("}")?;
        Some(crate::catalog::MobilityAccum::from_parts([
            w, lat_w, lon_w, lat2_w, lon2_w,
        ]))
    }

    /// A `Vertical` unit variant.
    pub(crate) fn vertical(&mut self) -> Option<Vertical> {
        Some(match self.string_val()? {
            "Smartphone" => Vertical::Smartphone,
            "FeaturePhone" => Vertical::FeaturePhone,
            "SmartMeter" => Vertical::SmartMeter,
            "ConnectedCar" => Vertical::ConnectedCar,
            "AssetTracker" => Vertical::AssetTracker,
            "Wearable" => Vertical::Wearable,
            "PaymentTerminal" => Vertical::PaymentTerminal,
            "SecurityAlarm" => Vertical::SecurityAlarm,
            "IndustrialSensor" => Vertical::IndustrialSensor,
            _ => return None,
        })
    }

    /// A JSON array of values parsed by `elem`, collected into a
    /// `BTreeSet` exactly like the serde impl (any order, silent dedup).
    pub(crate) fn set<T: Ord>(
        &mut self,
        elem: impl Fn(&mut Self) -> Option<T>,
    ) -> Option<BTreeSet<T>> {
        self.lit("[")?;
        let mut out = BTreeSet::new();
        if self.lit("]").is_some() {
            return Some(out);
        }
        loop {
            out.insert(elem(self)?);
            if self.lit(",").is_some() {
                continue;
            }
            self.lit("]")?;
            return Some(out);
        }
    }

    /// The 24-slot hourly histogram: exactly 24 `u32` values.
    pub(crate) fn hourly(&mut self) -> Option<[u32; 24]> {
        self.lit("[")?;
        let mut out = [0u32; 24];
        for (i, slot) in out.iter_mut().enumerate() {
            if i > 0 {
                self.lit(",")?;
            }
            *slot = self.u32_val()?;
        }
        self.lit("]")?;
        Some(out)
    }
}

impl FastParse for M2mTransaction {
    fn fast_parse(line: &str) -> Option<Self> {
        let mut sc = Scanner::new(line);
        sc.lit("{\"device\":")?;
        let device = sc.u64_val()?;
        sc.lit(",\"time\":")?;
        let time = sc.sim_time()?;
        sc.lit(",\"sim_plmn\":")?;
        let sim_plmn = sc.plmn()?;
        sc.lit(",\"visited_plmn\":")?;
        let visited_plmn = sc.plmn()?;
        sc.lit(",\"message\":")?;
        let message = match sc.string_val()? {
            "Authentication" => M2mMessageType::Authentication,
            "UpdateLocation" => M2mMessageType::UpdateLocation,
            "CancelLocation" => M2mMessageType::CancelLocation,
            _ => return None,
        };
        sc.lit(",\"result\":")?;
        let result = match sc.string_val()? {
            "Ok" => ProcedureResult::Ok,
            "RoamingNotAllowed" => ProcedureResult::RoamingNotAllowed,
            "UnknownSubscription" => ProcedureResult::UnknownSubscription,
            "FeatureUnsupported" => ProcedureResult::FeatureUnsupported,
            "NetworkFailure" => ProcedureResult::NetworkFailure,
            _ => return None,
        };
        sc.lit("}")?;
        sc.finish()?;
        Some(M2mTransaction {
            device,
            time,
            sim_plmn,
            visited_plmn,
            message,
            result,
        })
    }
}

impl FastParse for crate::io::TruthLine {
    fn fast_parse(line: &str) -> Option<Self> {
        let mut sc = Scanner::new(line);
        sc.lit("{\"user\":")?;
        let user = sc.u64_val()?;
        sc.lit(",\"vertical\":")?;
        let vertical = sc.vertical()?;
        sc.lit("}")?;
        sc.finish()?;
        Some(crate::io::TruthLine { user, vertical })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parses_same<T>(json: &str)
    where
        T: FastParse + serde::Deserialize + PartialEq + std::fmt::Debug,
    {
        let fast = T::fast_parse(json).expect("fast path must take canonical shape");
        let slow: T = serde_json::from_str(json).expect("serde must accept canonical shape");
        assert_eq!(fast, slow);
    }

    #[test]
    fn transaction_fast_path_matches_serde() {
        let tx = M2mTransaction {
            device: 0xDEAD_BEEF,
            time: SimTime::from_secs(86_400 * 3 + 17),
            sim_plmn: Plmn::of(214, 7),
            visited_plmn: Plmn::new(Mcc::new(310).unwrap(), Mnc::new3(410).unwrap()),
            message: M2mMessageType::UpdateLocation,
            result: ProcedureResult::RoamingNotAllowed,
        };
        let json = serde_json::to_string(&tx).unwrap();
        parses_same::<M2mTransaction>(&json);
        assert_eq!(M2mTransaction::fast_parse(&json), Some(tx));
    }

    #[test]
    fn truth_line_fast_path_matches_serde() {
        for v in Vertical::ALL {
            let line = crate::io::TruthLine {
                user: 42,
                vertical: v,
            };
            let json = serde_json::to_string(&line).unwrap();
            parses_same::<crate::io::TruthLine>(&json);
        }
    }

    #[test]
    fn non_canonical_shapes_bail_not_error() {
        // Reordered keys, whitespace, escapes, unknown variants: all must
        // bail (serde decides), never panic.
        for line in [
            "",
            "{}",
            "{ \"device\":1}",
            "{\"time\":0,\"device\":1}",
            "{\"user\":1,\"vertical\":\"Sm\\u0061rtMeter\"}",
            "{\"user\":1,\"vertical\":\"Toaster\"}",
            "{\"user\":-1,\"vertical\":\"SmartMeter\"}",
            "{\"user\":1e3,\"vertical\":\"SmartMeter\"}",
            "{\"user\":99999999999999999999,\"vertical\":\"SmartMeter\"}",
        ] {
            assert_eq!(crate::io::TruthLine::fast_parse(line), None, "{line:?}");
        }
    }

    #[test]
    fn trailing_whitespace_is_tolerated_like_serde() {
        let json = "{\"user\":7,\"vertical\":\"Wearable\"} \t";
        parses_same::<crate::io::TruthLine>(json);
        assert!(
            crate::io::TruthLine::fast_parse("{\"user\":7,\"vertical\":\"Wearable\"}x").is_none()
        );
    }

    #[test]
    fn scalar_tokens_mirror_the_json_lexer() {
        let mut sc = Scanner::new("18446744073709551615");
        assert_eq!(sc.u64_val(), Some(u64::MAX));
        // Overflow and float continuations bail.
        assert!(Scanner::new("18446744073709551616").u64_val().is_none());
        assert!(Scanner::new("1.5").u64_val().is_none());
        assert!(Scanner::new("1e3").u64_val().is_none());
        assert!(Scanner::new("-1").u64_val().is_none());
        // f64: same parse as the vendored lexer, null → NaN.
        assert_eq!(Scanner::new("-2.5e3").f64_val(), Some(-2500.0));
        assert!(Scanner::new("null").f64_val().unwrap().is_nan());
        assert!(Scanner::new("-").f64_val().is_none());
        assert!(Scanner::new("abc").f64_val().is_none());
        // Strings: escape-free borrow; any escape bails.
        assert_eq!(
            Scanner::new("\"apn.example\"").string_val(),
            Some("apn.example")
        );
        assert!(Scanner::new("\"a\\nb\"").string_val().is_none());
        assert!(Scanner::new("\"unterminated").string_val().is_none());
        // RatSet bits beyond the 4-bit mask bail (serde keeps them raw).
        assert!(Scanner::new("16").rat_set().is_none());
        assert_eq!(Scanner::new("15").rat_set(), Some(RatSet::from_bits(15)));
    }

    #[test]
    fn sets_collect_like_serde() {
        let mut sc = Scanner::new("[3,1,2,1]");
        let set = sc.set(Scanner::u32_val).unwrap();
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(Scanner::new("[]").set(Scanner::u32_val).unwrap().is_empty());
        assert!(Scanner::new("[1,]").set(Scanner::u32_val).is_none());
        assert!(Scanner::new("[1 ,2]").set(Scanner::u32_val).is_none());
    }
}
