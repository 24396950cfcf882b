//! Deterministic APN string interning.
//!
//! At paper scale (~39.6M devices, §5) the devices-catalog carries an APN
//! *set* per row and the classifier matches keywords against the APN
//! *inventory*; storing the full strings per row makes both the catalog
//! and the classification hot path allocation-bound. This module gives
//! every distinct APN a compact [`ApnSym`] (a `u32` symbol) resolved
//! through an [`ApnTable`], so per-row sets become sets of `Copy` keys and
//! the classifier computes one keyword verdict per *distinct* APN instead
//! of one per (device, APN) pair.
//!
//! # Determinism rules
//!
//! * **In memory**, symbols are assigned by **first occurrence**: the
//!   first time a string is interned it receives the next id. Merging
//!   two catalogs (`DevicesCatalog::merge` in `wtr-probes`, the sharded
//!   simulation's probe merge) interns the right-hand table's strings
//!   in its own symbol order ([`ApnTable::absorb`]), so tables built
//!   from consecutive parts of one stream and merged left to right
//!   equal the table of a serial pass. A JSONL catalog reader interns
//!   in row order on its reading thread; a `WTRCAT` reader takes the
//!   file's canonical table.
//! * **On disk** (the `WTRCAT` codec), the table is first
//!   [canonicalized](ApnTable::canonicalized): strings are sorted and
//!   symbols re-assigned by sorted rank, so serialized tables — and
//!   everything keyed by them — are **independent of ingest order** and
//!   never depend on hash order (there is no hashing anywhere in this
//!   type).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A compact symbol for one distinct APN string, resolved through the
/// [`ApnTable`] that issued it.
///
/// Symbols are plain `u32` indexes: `Copy`, 4 bytes, order-stable within
/// one table. They are only meaningful relative to their table — two
/// tables may assign the same string different symbols (the canonical
/// on-disk form fixes this by sorting, see [`ApnTable::canonicalized`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ApnSym(u32);

impl ApnSym {
    /// The symbol as a dense index (`0..table.len()`), usable to address
    /// per-symbol side tables such as the classifier's verdict vector.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` representation (what the wire codec stores).
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a symbol from its raw representation. The caller asserts
    /// it is a valid index into the table it will be resolved against;
    /// [`ApnTable::resolve`] panics on out-of-range symbols.
    pub const fn from_raw(raw: u32) -> Self {
        ApnSym(raw)
    }
}

impl fmt::Display for ApnSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "apn#{}", self.0)
    }
}

/// A deterministic intern table: distinct APN strings, each owned once,
/// with a sorted index for O(log n) lookup.
///
/// Serialized (serde or `WTRCAT`) as the plain string list in symbol
/// order; the lookup index is rebuilt on deserialization.
#[derive(Debug, Clone, Default)]
pub struct ApnTable {
    /// Symbol → string (symbol id = position).
    strings: Vec<String>,
    /// String → symbol id.
    index: BTreeMap<String, u32>,
}

impl ApnTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ApnTable::default()
    }

    /// Builds the **canonical** table of an arbitrary collection of
    /// strings: distinct strings sorted ascending, symbols assigned by
    /// sorted rank. The result is independent of the input order (and of
    /// duplicates) — the property the on-disk format relies on.
    pub fn canonical_from<I, S>(strings: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut table = ApnTable::new();
        let sorted: std::collections::BTreeSet<String> =
            strings.into_iter().map(Into::into).collect();
        for s in sorted {
            table.intern(&s);
        }
        table
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Interns `s`, returning its symbol. First occurrence allocates and
    /// assigns the next id; later calls are a lookup, no allocation.
    pub fn intern(&mut self, s: &str) -> ApnSym {
        if let Some(&id) = self.index.get(s) {
            return ApnSym(id);
        }
        let id = u32::try_from(self.strings.len()).expect("more than u32::MAX distinct APNs");
        self.strings.push(s.to_owned());
        self.index.insert(s.to_owned(), id);
        ApnSym(id)
    }

    /// Looks up the symbol of `s` without interning.
    pub fn lookup(&self, s: &str) -> Option<ApnSym> {
        self.index.get(s).map(|&id| ApnSym(id))
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// If `sym` was not issued by this table (out of range).
    pub fn resolve(&self, sym: ApnSym) -> &str {
        &self.strings[sym.index()]
    }

    /// Iterates `(symbol, string)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (ApnSym, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (ApnSym(i as u32), s.as_str()))
    }

    /// The strings in symbol order.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// Whether symbols are already assigned in sorted-string order (true
    /// for tables built by [`ApnTable::canonical_from`] or decoded from
    /// the canonical on-disk form).
    pub fn is_canonical(&self) -> bool {
        self.strings.windows(2).all(|w| w[0] < w[1])
    }

    /// Returns the canonical (sorted) twin of this table plus the remap
    /// vector: `remap[old.index()]` is the symbol of the same string in
    /// the canonical table. Used by the `WTRCAT` encoder so files never
    /// depend on ingest order.
    pub fn canonicalized(&self) -> (ApnTable, Vec<ApnSym>) {
        let canonical = ApnTable::canonical_from(self.strings.iter().cloned());
        let remap = self
            .strings
            .iter()
            .map(|s| canonical.lookup(s).expect("canonical table covers source"))
            .collect();
        (canonical, remap)
    }

    /// Absorbs another table: every string of `other` is interned into
    /// `self` in `other`'s symbol order. Returns the remap vector
    /// (`remap[other_sym.index()]` = symbol in `self`). Its one caller
    /// is `DevicesCatalog::merge` in `wtr-probes`.
    ///
    /// Because `other`'s symbols are themselves first-occurrence ordered,
    /// absorbing the tables of consecutive parts of one stream left to
    /// right reproduces the serial first-occurrence assignment exactly.
    pub fn absorb(&mut self, other: &ApnTable) -> Vec<ApnSym> {
        other.strings.iter().map(|s| self.intern(s)).collect()
    }
}

impl PartialEq for ApnTable {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived state; the string list is the identity.
        self.strings == other.strings
    }
}

impl Eq for ApnTable {}

impl Serialize for ApnTable {
    fn serialize_value(&self) -> serde::Value {
        self.strings.serialize_value()
    }
}

impl Deserialize for ApnTable {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let strings = Vec::<String>::deserialize_value(v)?;
        let mut table = ApnTable::new();
        for s in &strings {
            table.intern(s);
        }
        if table.len() != strings.len() {
            return Err(serde::Error::custom("duplicate string in APN table"));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_occurrence_assignment() {
        let mut t = ApnTable::new();
        let a = t.intern("zeta.example");
        let b = t.intern("alpha.example");
        let a2 = t.intern("zeta.example");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(
            a.index(),
            0,
            "first seen gets id 0 regardless of sort order"
        );
        assert_eq!(b.index(), 1);
        assert_eq!(t.resolve(a), "zeta.example");
        assert_eq!(t.resolve(b), "alpha.example");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn canonical_is_order_insensitive() {
        let a = ApnTable::canonical_from(["b", "a", "c", "a"]);
        let b = ApnTable::canonical_from(["c", "b", "a"]);
        assert_eq!(a, b);
        assert!(a.is_canonical());
        assert_eq!(
            a.strings(),
            &["a".to_owned(), "b".to_owned(), "c".to_owned()]
        );
    }

    #[test]
    fn canonicalized_remap_points_at_same_strings() {
        let mut t = ApnTable::new();
        let z = t.intern("z");
        let a = t.intern("a");
        let (canon, remap) = t.canonicalized();
        assert!(canon.is_canonical());
        assert_eq!(canon.resolve(remap[z.index()]), "z");
        assert_eq!(canon.resolve(remap[a.index()]), "a");
        assert_eq!(remap[a.index()].index(), 0, "a sorts first");
    }

    #[test]
    fn absorb_reproduces_serial_first_occurrence() {
        // Serial: one table sees the whole stream.
        let stream = ["m", "a", "m", "z", "a", "q"];
        let mut serial = ApnTable::new();
        for s in stream {
            serial.intern(s);
        }
        // Two tables of consecutive parts, absorbed in order.
        let mut left = ApnTable::new();
        for s in &stream[..3] {
            left.intern(s);
        }
        let mut right = ApnTable::new();
        for s in &stream[3..] {
            right.intern(s);
        }
        let remap = left.absorb(&right);
        assert_eq!(left, serial);
        // The remap translates right's symbols into the merged table.
        assert_eq!(left.resolve(remap[right.lookup("z").unwrap().index()]), "z");
    }

    #[test]
    fn serde_roundtrip_rebuilds_index() {
        let mut t = ApnTable::new();
        t.intern("beta");
        t.intern("alpha");
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"["beta","alpha"]"#);
        let back: ApnTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.lookup("alpha"), Some(ApnSym::from_raw(1)));
    }
}
