//! Property-based tests (proptest) over the core data structures and
//! invariants: identifier codecs, the wire format, CDF/cross-tab algebra,
//! mobility accumulators and roaming-label derivation.

use proptest::prelude::*;
use where_things_roam::core::metrics::{shares, CrossTab, Ecdf};
use where_things_roam::model::apn::Apn;
use where_things_roam::model::hash::{anonymize_u64, mix64, AnonKey};
use where_things_roam::model::ids::{Imei, Imsi, Mcc, Mnc, Plmn, Tac};
use where_things_roam::model::intern::ApnTable;
use where_things_roam::model::operators::OperatorRegistry;
use where_things_roam::model::roaming::RoamingLabel;
use where_things_roam::model::time::SimTime;
use where_things_roam::probes::catalog::MobilityAccum;
use where_things_roam::probes::records::{M2mMessageType, M2mTransaction};
use where_things_roam::probes::wire;
use where_things_roam::radio::geo::{radius_of_gyration_km, GeoPoint};
use where_things_roam::sim::events::ProcedureResult;

fn arb_plmn() -> impl Strategy<Value = Plmn> {
    (200u16..=799, 0u16..=999, prop::bool::ANY).prop_map(|(mcc, mnc, wide)| {
        let mcc = Mcc::new(mcc).unwrap();
        let mnc = if wide {
            Mnc::new3(mnc).unwrap()
        } else {
            Mnc::new2(mnc % 100).unwrap()
        };
        Plmn::new(mcc, mnc)
    })
}

fn arb_transaction() -> impl Strategy<Value = M2mTransaction> {
    (
        prop::num::u64::ANY,
        0u64..2_000_000,
        arb_plmn(),
        arb_plmn(),
        0u8..3,
        0u8..5,
    )
        .prop_map(|(device, secs, sim, visited, msg, res)| M2mTransaction {
            device,
            time: SimTime::from_secs(secs),
            sim_plmn: sim,
            visited_plmn: visited,
            message: match msg {
                0 => M2mMessageType::Authentication,
                1 => M2mMessageType::UpdateLocation,
                _ => M2mMessageType::CancelLocation,
            },
            result: match res {
                0 => ProcedureResult::Ok,
                1 => ProcedureResult::RoamingNotAllowed,
                2 => ProcedureResult::UnknownSubscription,
                3 => ProcedureResult::FeatureUnsupported,
                _ => ProcedureResult::NetworkFailure,
            },
        })
}

proptest! {
    #[test]
    fn plmn_display_parse_roundtrip(plmn in arb_plmn()) {
        let s = plmn.to_string();
        let back: Plmn = s.parse().unwrap();
        prop_assert_eq!(back, plmn);
    }

    #[test]
    fn plmn_packed_is_injective(a in arb_plmn(), b in arb_plmn()) {
        if a != b {
            prop_assert_ne!(a.packed(), b.packed());
        }
    }

    #[test]
    fn imsi_roundtrip(mcc in 200u16..=799, mnc in 0u16..=99, msin in 0u64..10_000_000_000) {
        let plmn = Plmn::new(Mcc::new(mcc).unwrap(), Mnc::new2(mnc).unwrap());
        let imsi = Imsi::new(plmn, msin).unwrap();
        let back: Imsi = imsi.to_string().parse().unwrap();
        prop_assert_eq!(back, imsi);
    }

    #[test]
    fn imei_check_digit_roundtrip(tac in 0u32..=99_999_999, snr in 0u32..=999_999) {
        let imei = Imei::new(Tac::new(tac).unwrap(), snr).unwrap();
        let s = imei.to_string();
        prop_assert_eq!(s.len(), 15);
        let back: Imei = s.parse().unwrap();
        prop_assert_eq!(back, imei);
        // Corrupting the check digit must fail parsing.
        let mut bytes = s.into_bytes();
        let last = bytes[14] - b'0';
        bytes[14] = b'0' + ((last + 1) % 10);
        let corrupted = String::from_utf8(bytes).unwrap();
        prop_assert!(corrupted.parse::<Imei>().is_err());
    }

    #[test]
    fn apn_roundtrip(labels in prop::collection::vec("[a-z][a-z0-9-]{0,8}", 1..4), has_oi in prop::bool::ANY, plmn in arb_plmn()) {
        let ni = labels.join(".");
        prop_assume!(!ni.ends_with("gprs"));
        // `Apn::new` canonicalizes the operator MNC itself (the OI wire
        // form always writes 3 digits, so digit count carries no
        // information there), making construction/parse a true roundtrip
        // for ANY valid PLMN. The historical failure (3-digit MNC ≤ 99,
        // e.g. 200-000) stays pinned in the checked-in regression file.
        let apn = Apn::new(&ni, has_oi.then_some(plmn)).unwrap();
        let back: Apn = apn.to_string().parse().unwrap();
        prop_assert_eq!(back, apn);
    }

    #[test]
    fn wire_roundtrip(txs in prop::collection::vec(arb_transaction(), 0..200)) {
        let encoded = wire::encode_log(&txs);
        let decoded = wire::decode_log(encoded).unwrap();
        prop_assert_eq!(decoded, txs);
    }

    #[test]
    fn anonymization_is_stable_and_keyed(value in prop::num::u64::ANY, k1 in prop::num::u64::ANY, k2 in prop::num::u64::ANY) {
        prop_assert_eq!(anonymize_u64(AnonKey(k1), value), anonymize_u64(AnonKey(k1), value));
        if k1 != k2 {
            // Not a guarantee for a 64-bit digest, but a collision here is
            // astronomically unlikely; treat as a bug if it fires.
            prop_assert_ne!(anonymize_u64(AnonKey(k1), value), anonymize_u64(AnonKey(k2), value));
        }
    }

    #[test]
    fn mix64_is_injective_on_pairs(a in prop::num::u64::ANY, b in prop::num::u64::ANY) {
        if a != b {
            prop_assert_ne!(mix64(a), mix64(b));
        }
    }

    #[test]
    fn ecdf_quantiles_monotone(mut xs in prop::collection::vec(-1e12f64..1e12, 1..300)) {
        let e = Ecdf::new(xs.clone());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = e.quantile(i as f64 / 10.0).unwrap();
            prop_assert!(q >= prev);
            prev = q;
        }
        xs.sort_by(f64::total_cmp);
        prop_assert_eq!(e.min().unwrap(), xs[0]);
        prop_assert_eq!(e.max().unwrap(), *xs.last().unwrap());
    }

    #[test]
    fn ecdf_fraction_bounds(xs in prop::collection::vec(-1e6f64..1e6, 1..200), probe in -2e6f64..2e6) {
        let e = Ecdf::new(xs);
        let f = e.fraction_at_or_below(probe);
        prop_assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn crosstab_shares_normalize(cells in prop::collection::vec(("[a-c]", "[x-z]", 0.0f64..100.0), 1..30)) {
        let mut t = CrossTab::new();
        for (r, c, w) in &cells {
            t.add(r, c, *w);
        }
        for r in t.rows() {
            if t.row_total(&r) > 0.0 {
                let sum: f64 = t.cols().iter().map(|c| t.row_share(&r, c)).sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn shares_always_normalized(counts in prop::collection::vec(("[a-e]{1,3}", 0.0f64..1e6), 1..20)) {
        let rows = shares(counts);
        let total: f64 = rows.iter().map(|(_, _, f)| f).sum();
        // Total share is 1 unless all counts were zero.
        prop_assert!(total < 1.0 + 1e-9);
        // Sorted descending by count.
        for w in rows.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn mobility_accum_matches_exact_gyration(
        pts in prop::collection::vec((50.0f64..54.0, -3.0f64..1.0, 0.1f64..10.0), 1..40)
    ) {
        // The O(1) accumulator must agree with the exact two-pass
        // computation within the small-angle error budget.
        let mut acc = MobilityAccum::default();
        let weighted: Vec<(GeoPoint, f64)> = pts
            .iter()
            .map(|(lat, lon, w)| (GeoPoint::new(*lat, *lon), *w))
            .collect();
        for (p, w) in &weighted {
            acc.add(*p, *w);
        }
        let exact = radius_of_gyration_km(&weighted).unwrap();
        let approx = acc.gyration_km().unwrap();
        let tolerance = (exact * 0.05).max(0.5);
        prop_assert!((exact - approx).abs() < tolerance, "exact {} vs approx {}", exact, approx);
    }

    #[test]
    fn intern_table_is_deterministic_and_order_insensitive(
        strings in prop::collection::vec("[a-z]{1,10}(\\.[a-z0-9]{1,8}){0,2}", 0..40),
        rot in 0usize..40,
    ) {
        // Interning assigns symbols by first occurrence: re-interning
        // returns the same symbol, and resolution is the identity.
        let mut table = ApnTable::new();
        for s in &strings {
            let sym = table.intern(s);
            prop_assert_eq!(table.intern(s), sym);
            prop_assert_eq!(table.resolve(sym), s.as_str());
        }
        // A table built from any rotation of the input canonicalizes to
        // the same sorted table — symbols depend on *content*, never on
        // ingest order (and never on hash order; there is no hashing).
        let mut rotated = strings.clone();
        if !rotated.is_empty() {
            let k = rot % rotated.len();
            rotated.rotate_left(k);
        }
        let mut other = ApnTable::new();
        for s in &rotated {
            other.intern(s);
        }
        let (canon_a, remap_a) = table.canonicalized();
        let (canon_b, _) = other.canonicalized();
        prop_assert_eq!(&canon_a, &canon_b);
        prop_assert!(canon_a.is_canonical());
        // The remap preserves string identity.
        for (sym, s) in table.iter() {
            prop_assert_eq!(canon_a.resolve(remap_a[sym.index()]), s);
        }
        // Serialized canonical tables are byte-identical.
        prop_assert_eq!(
            serde_json::to_string(&canon_a).unwrap(),
            serde_json::to_string(&canon_b).unwrap()
        );
    }

    #[test]
    fn intern_absorb_reproduces_serial_fold(
        left in prop::collection::vec("[a-z]{1,8}", 0..20),
        right in prop::collection::vec("[a-z]{1,8}", 0..20),
    ) {
        // Tables of consecutive parts absorbed left to right reproduce
        // the serial first-occurrence assignment exactly (the rule
        // `DevicesCatalog::merge` relies on).
        let mut serial = ApnTable::new();
        for s in left.iter().chain(right.iter()) {
            serial.intern(s);
        }
        let mut a = ApnTable::new();
        for s in &left {
            a.intern(s);
        }
        let mut b = ApnTable::new();
        for s in &right {
            b.intern(s);
        }
        let remap = a.absorb(&b);
        prop_assert_eq!(&a, &serial);
        for (sym, s) in b.iter() {
            prop_assert_eq!(a.resolve(remap[sym.index()]), s);
        }
    }

    #[test]
    fn roaming_label_total_function(sim in arb_plmn(), visited in arb_plmn()) {
        // derive() never panics, and when it returns a label the
        // invariants hold.
        let registry = OperatorRegistry::standard(2);
        let studied = where_things_roam::model::operators::well_known::UK_STUDIED_MNO;
        if let Some(label) = RoamingLabel::derive(studied, &registry, sim, visited) {
            if visited == studied {
                prop_assert!(!label.is_outbound_roamer());
            } else {
                prop_assert!(label.is_outbound_roamer());
            }
        } else {
            // Unobservable: foreign SIM not attached to us.
            prop_assert_ne!(visited, studied);
        }
    }
}
