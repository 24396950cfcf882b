//! Integration tests for the M2M platform dataset (E1–E5) and the wire
//! format, at test scale.

use std::sync::OnceLock;
use where_things_roam::core::analysis::platform;
use where_things_roam::model::hash::mix64;
use where_things_roam::model::operators::well_known;
use where_things_roam::probes::wire;
use where_things_roam::scenarios::m2m::M2mScenarioOutput;
use where_things_roam::scenarios::{M2mScenario, M2mScenarioConfig};

fn output() -> &'static M2mScenarioOutput {
    static CELL: OnceLock<M2mScenarioOutput> = OnceLock::new();
    CELL.get_or_init(|| {
        M2mScenario::new(M2mScenarioConfig {
            devices: 3_000,
            days: 11,
            seed: 77,
            g4_hole_fraction: 0.05,
        })
        .run()
    })
}

#[test]
fn e1_hmno_shares_and_footprint() {
    let out = output();
    let ov = platform::overview(&out.transactions);
    let share = |iso: &str| {
        ov.hmno_device_shares
            .iter()
            .find(|(c, _, _)| c == iso)
            .map(|(_, _, s)| *s)
            .unwrap_or(0.0)
    };
    // Paper: ES 52.3%, MX 42.2%, AR 4.7%, DE ~0.8%.
    assert!((0.45..0.60).contains(&share("ES")), "ES {}", share("ES"));
    assert!((0.35..0.50).contains(&share("MX")), "MX {}", share("MX"));
    assert!((0.02..0.08).contains(&share("AR")), "AR {}", share("AR"));
    assert!(share("DE") < 0.03, "DE {}", share("DE"));
    // ES dominates signaling (paper 81.8%).
    let es_sig = ov
        .hmno_signaling_shares
        .iter()
        .find(|(c, _, _)| c == "ES")
        .map(|(_, _, s)| *s)
        .unwrap();
    assert!(es_sig > 0.70, "ES signaling {es_sig}");
    // ES roams widely (paper: 77 countries, 127 VMNOs); MX stays home.
    assert!(
        ov.countries_per_hmno["ES"] > 40,
        "{}",
        ov.countries_per_hmno["ES"]
    );
    assert!(ov.vmnos_per_hmno["ES"] > 60, "{}", ov.vmnos_per_hmno["ES"]);
    assert!(ov.home_fraction_per_hmno["MX"] > 0.80);
    assert!(ov.home_fraction_per_hmno["AR"] > 0.90);
}

#[test]
fn e2_visited_matrix_rows_normalize() {
    let out = output();
    let ov = platform::overview(&out.transactions);
    for hmno in ["ES", "MX", "AR", "DE"] {
        let sum: f64 = ov
            .visited_matrix
            .cols()
            .iter()
            .map(|c| ov.visited_matrix.row_share(hmno, c))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9, "{hmno} row sums to {sum}");
    }
    // MX devices concentrate at home (Fig. 2's MX row).
    assert!(ov.visited_matrix.row_share("MX", "MX") > 0.6);
}

#[test]
fn e3_signaling_long_tail() {
    let out = output();
    let d = platform::dynamics(&out.transactions, None);
    let mean = d.records_all.mean().unwrap();
    let median = d.records_all.median().unwrap();
    // Long tail: mean well above median; most devices modest; a tail far
    // beyond (paper: mean 267, 97% < 2000, max 130k at 10× our scale).
    assert!(
        mean > 2.0 * median,
        "no long tail: mean {mean} median {median}"
    );
    assert!(d.records_all.fraction_at_or_below(2_000.0) > 0.93);
    assert!(d.records_all.max().unwrap() > 10.0 * mean);
    // Roaming devices are ~10× chattier than native ones (ES view).
    let es = platform::dynamics(&out.transactions, Some(well_known::ES_HMNO));
    let ratio = es.records_roaming.median().unwrap() / es.records_native.median().unwrap();
    assert!((5.0..20.0).contains(&ratio), "roaming/native {ratio}");
}

#[test]
fn e4_vmnos_per_device() {
    let out = output();
    let es = platform::dynamics(&out.transactions, Some(well_known::ES_HMNO));
    let one = es.vmnos_roaming.fraction_at_or_below(1.0);
    let two = es.vmnos_roaming.fraction_at_or_below(2.0) - one;
    let more = 1.0 - one - two;
    // Paper: 65% / >25% / ~5%.
    assert!((0.55..0.80).contains(&one), "1 VMNO {one}");
    assert!((0.12..0.35).contains(&two), "2 VMNOs {two}");
    assert!(more < 0.15, "3+ VMNOs {more}");
    // The failed population exists and hunts widely (paper: 40%, max 19).
    assert!((0.30..0.50).contains(&es.only_failed_fraction));
    assert!(es.max_vmnos_failed_device >= 5);
}

#[test]
fn e5_switch_distribution() {
    let out = output();
    let es = platform::dynamics(&out.transactions, Some(well_known::ES_HMNO));
    let e = &es.switches_multi_vmno;
    assert!(!e.is_empty());
    // Paper: ~50% ≤2 switches; ~20% at least daily; ~3% extreme.
    assert!(
        (0.25..0.65).contains(&e.fraction_at_or_below(2.0)),
        "≤2 {}",
        e.fraction_at_or_below(2.0)
    );
    let daily = 1.0 - e.fraction_at_or_below(out.days as f64 - 1.0);
    assert!((0.08..0.40).contains(&daily), "daily {daily}");
    let extreme = 1.0 - e.fraction_at_or_below(100.0);
    assert!(extreme < 0.15, "extreme {extreme}");
    assert!(e.max().unwrap() > 100.0, "no extreme switchers at all");
}

#[test]
fn transactions_match_paper_schema_constraints() {
    let out = output();
    assert!(!out.transactions.is_empty());
    for t in out.transactions.iter().take(10_000) {
        // 4G-only HMNO-side dataset: the SIM home must be one of the four
        // platform HMNOs.
        let hmno_mccs = [214, 262, 334, 722];
        assert!(
            hmno_mccs.contains(&t.sim_plmn.mcc.value()),
            "{}",
            t.sim_plmn
        );
    }
    // Time-ordered.
    assert!(out.transactions.windows(2).all(|w| w[0].time <= w[1].time));
}

#[test]
fn wire_roundtrip_at_dataset_scale() {
    let out = output();
    let encoded = wire::encode_log(&out.transactions);
    assert_eq!(
        encoded.len(),
        16 + out.transactions.len() * wire::RECORD_SIZE
    );
    let decoded = wire::decode_log(encoded).unwrap();
    assert_eq!(decoded, out.transactions);
}

#[test]
fn sticky_failure_population_only_fails() {
    let out = output();
    let per_dev = platform::per_device(&out.transactions);
    for d in &per_dev {
        if let Some(truth) = out.ground_truth.get(&d.device) {
            if truth.sticky_failure {
                assert!(!d.any_ok, "sticky device {} succeeded", d.device);
            }
        }
    }
}

/// The same fold as `shard_determinism`'s catalog digest.
fn digest(bytes: &[u8]) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for chunk in bytes.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        acc = mix64(acc ^ u64::from_le_bytes(b));
    }
    mix64(acc ^ bytes.len() as u64)
}

/// Pins the whole transaction log, so a change to the attach walk that
/// both scenarios share cannot move a single M2M transaction unseen.
/// The log is the same at any thread count.
#[test]
fn transaction_log_matches_golden() {
    let out = output();
    let bytes = wire::encode_log(&out.transactions);
    assert_eq!(out.transactions.len(), 718_555);
    assert_eq!(bytes.len(), 18_682_446);
    let got = digest(&bytes);
    assert_eq!(
        got, 0x5185_6b4d_ac62_b707,
        "transaction log drifted: {got:#018x}"
    );
}
