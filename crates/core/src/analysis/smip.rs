//! Smart-meter (SMIP) identification and analysis (§4.4, §7.1; Fig. 11).
//!
//! Two populations:
//!
//! * **SMIP native** — smart meters on the studied MNO's own SIMs,
//!   identified through the operator's dedicated IMSI range (tagged by the
//!   probe as `in_designated_range`).
//! * **SMIP roaming** — inbound-roaming meters identified the paper's way:
//!   APN network-identifier patterns of UK energy companies. The analysis
//!   then *verifies* the paper's two observations rather than assuming
//!   them: all identified SIMs should come from a single foreign operator
//!   (one Dutch HMNO), and their TACs should map to M2M module vendors
//!   (Gemalto and Telit) in the GSMA catalog.

use crate::keywords::{match_m2m_keyword, VerticalHint};
use crate::metrics::Ecdf;
use crate::summary::DeviceSummary;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use wtr_model::intern::ApnTable;
use wtr_model::tacdb::TacDatabase;

/// The identified SMIP populations, with the §4.4 verification evidence.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SmipPopulation {
    /// Device IDs of SMIP-native meters.
    pub native: BTreeSet<u64>,
    /// Device IDs of SMIP-roaming meters.
    pub roaming: BTreeSet<u64>,
    /// Home PLMN keys of the roaming meters (paper: exactly one, a Dutch
    /// operator).
    pub roaming_home_plmns: BTreeSet<u32>,
    /// TAC vendors of the roaming meters (paper: Gemalto and Telit only).
    pub roaming_vendors: BTreeSet<String>,
    /// Energy APN patterns that matched, with device counts.
    pub matched_patterns: BTreeMap<String, usize>,
}

/// Identifies SMIP-native and SMIP-roaming meters from device summaries.
/// `apns` is the intern table the summaries' symbols resolve through; the
/// energy-keyword verdict is memoized per distinct symbol (one scan per
/// APN, not per device × APN).
pub fn identify(
    summaries: &[DeviceSummary],
    tacdb: &TacDatabase,
    apns: &ApnTable,
) -> SmipPopulation {
    let energy_kw: Vec<Option<&'static str>> = apns
        .strings()
        .iter()
        .map(|apn| {
            match_m2m_keyword(apn)
                .filter(|(_, hint)| *hint == VerticalHint::Energy)
                .map(|(kw, _)| kw)
        })
        .collect();
    let mut pop = SmipPopulation::default();
    for s in summaries {
        if s.in_designated_range && s.dominant_label.is_native_attached() {
            pop.native.insert(s.user);
            continue;
        }
        if !s.dominant_label.is_international_inbound() {
            continue;
        }
        if let Some(kw) = s.apns.iter().find_map(|sym| energy_kw[sym.index()]) {
            pop.roaming.insert(s.user);
            pop.roaming_home_plmns.insert(s.sim_plmn.packed());
            *pop.matched_patterns.entry(kw.to_owned()).or_insert(0) += 1;
            if let Some(info) = tacdb.get(s.tac) {
                pop.roaming_vendors.insert(info.vendor.clone());
            }
        }
    }
    pop
}

/// Fig. 11 + §7.1 statistics for one SMIP group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmipGroupStats {
    /// Devices in the group.
    pub devices: usize,
    /// Active days per device (Fig. 11-left).
    pub active_days: Ecdf,
    /// Active days restricted to the day-0 cohort (devices already active
    /// on the first day — the paper's "active from the first day" series).
    pub active_days_day1_cohort: Ecdf,
    /// Fraction active on every day of the window.
    pub full_period_fraction: f64,
    /// Signaling messages per device per day (Fig. 11-right).
    pub signaling_per_day: Ecdf,
    /// Fraction of devices with at least one failed signaling message.
    pub failed_device_fraction: f64,
    /// RAT-category shares (any plane) — §7.1: roaming meters 2G-only,
    /// native 2G+3G with 2/3 on 3G only.
    pub rat_categories: BTreeMap<String, f64>,
}

/// Computes Fig. 11 statistics for a set of device IDs.
pub fn group_stats(
    summaries: &[DeviceSummary],
    members: &BTreeSet<u64>,
    window_days: u32,
) -> SmipGroupStats {
    let group: Vec<&DeviceSummary> = summaries
        .iter()
        .filter(|s| members.contains(&s.user))
        .collect();
    let n = group.len().max(1) as f64;
    let mut rat_counts: BTreeMap<String, f64> = BTreeMap::new();
    for s in &group {
        *rat_counts
            .entry(s.radio_flags.any.category_label().to_owned())
            .or_insert(0.0) += 1.0;
    }
    SmipGroupStats {
        devices: group.len(),
        active_days: Ecdf::new(group.iter().map(|s| s.active_days as f64).collect()),
        active_days_day1_cohort: Ecdf::new(
            group
                .iter()
                .filter(|s| s.first_day == 0)
                .map(|s| s.active_days as f64)
                .collect(),
        ),
        full_period_fraction: group
            .iter()
            .filter(|s| s.active_days >= window_days)
            .count() as f64
            / n,
        signaling_per_day: Ecdf::new(group.iter().map(|s| s.events_per_active_day()).collect()),
        failed_device_fraction: group.iter().filter(|s| s.had_failures()).count() as f64 / n,
        rat_categories: rat_counts.into_iter().map(|(k, v)| (k, v / n)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use wtr_model::ids::Tac;
    use wtr_model::operators::well_known;
    use wtr_model::rat::Rat;
    use wtr_model::roaming::RoamingLabel;
    use wtr_model::time::Day;
    use wtr_probes::catalog::DevicesCatalog;

    fn meter_tac(db: &TacDatabase, vendor: &str) -> Tac {
        let mut tacs: Vec<Tac> = db.tacs_of_vendor(vendor).collect();
        tacs.sort();
        tacs[0]
    }

    fn build() -> (Vec<DeviceSummary>, TacDatabase, ApnTable) {
        let db = TacDatabase::standard();
        let mut cat = DevicesCatalog::new(10);
        let centrica = cat.intern_apn("smhp.centricaplc.com.mnc004.mcc204.gprs");
        let scania = cat.intern_apn("fleet.scania.com.mnc002.mcc262.gprs");
        // Native SMIP meter: designated range, active all 10 days, 3G.
        for day in 0..10u32 {
            let r = cat.row_mut(
                1,
                Day(day),
                well_known::UK_STUDIED_MNO,
                meter_tac(&db, "Gemalto"),
                RoamingLabel::HH,
            );
            r.in_designated_range = true;
            r.events += 3;
            r.radio_flags.record(Rat::G3, true, false);
        }
        // Roaming SMIP meter: NL SIM, Centrica APN, 2G, 4 days, failures,
        // 10x signaling.
        for day in 0..4u32 {
            let r = cat.row_mut(
                2,
                Day(day),
                well_known::NL_SMART_METER_HMNO,
                meter_tac(&db, "Telit"),
                RoamingLabel::IH,
            );
            r.events += 30;
            r.failed_events += 2;
            r.apns.insert(centrica);
            r.radio_flags.record(Rat::G2, true, false);
        }
        // An inbound car (automotive APN): must NOT be identified as SMIP.
        let r = cat.row_mut(
            3,
            Day(0),
            well_known::DE_HMNO,
            meter_tac(&db, "Sierra Wireless"),
            RoamingLabel::IH,
        );
        r.apns.insert(scania);
        let table = cat.apn_table().clone();
        (summarize(&cat), db, table)
    }

    #[test]
    fn identify_partitions_native_and_roaming() {
        let (sums, db, table) = build();
        let pop = identify(&sums, &db, &table);
        assert!(pop
            .native
            .contains(&sums.iter().find(|s| s.in_designated_range).unwrap().user));
        assert_eq!(pop.native.len(), 1);
        assert_eq!(pop.roaming.len(), 1);
        // §4.4 verification evidence: single NL home operator, module
        // vendor TACs.
        assert_eq!(pop.roaming_home_plmns.len(), 1);
        assert!(pop
            .roaming_home_plmns
            .contains(&well_known::NL_SMART_METER_HMNO.packed()));
        assert_eq!(pop.roaming_vendors, BTreeSet::from(["Telit".to_owned()]));
        assert!(pop.matched_patterns.contains_key("centricaplc"));
    }

    #[test]
    fn car_is_not_a_meter() {
        let (sums, db, table) = build();
        let pop = identify(&sums, &db, &table);
        let car = sums
            .iter()
            .find(|s| s.apns.iter().any(|&a| table.resolve(a).contains("scania")))
            .unwrap();
        assert!(!pop.roaming.contains(&car.user));
        assert!(!pop.native.contains(&car.user));
    }

    #[test]
    fn group_stats_match_fig11_shape() {
        let (sums, db, table) = build();
        let pop = identify(&sums, &db, &table);
        let native = group_stats(&sums, &pop.native, 10);
        let roaming = group_stats(&sums, &pop.roaming, 10);
        assert_eq!(native.devices, 1);
        assert_eq!(roaming.devices, 1);
        // Native: full period; roaming: 4 of 10 days.
        assert_eq!(native.full_period_fraction, 1.0);
        assert_eq!(roaming.full_period_fraction, 0.0);
        assert_eq!(roaming.active_days.median(), Some(4.0));
        // Roaming signaling 10× native.
        assert!(
            roaming.signaling_per_day.median().unwrap()
                >= 9.0 * native.signaling_per_day.median().unwrap()
        );
        // Failures only on the roaming side.
        assert_eq!(native.failed_device_fraction, 0.0);
        assert_eq!(roaming.failed_device_fraction, 1.0);
        // RAT split (§7.1).
        assert_eq!(roaming.rat_categories["2G only"], 1.0);
        assert_eq!(native.rat_categories["3G only"], 1.0);
    }

    #[test]
    fn day1_cohort_filters_late_arrivals() {
        let db = TacDatabase::standard();
        let mut cat = DevicesCatalog::new(10);
        let tac = meter_tac(&db, "Gemalto");
        // Device 1 active from day 0 for 10 days; device 2 appears day 5.
        for day in 0..10u32 {
            let r = cat.row_mut(
                1,
                Day(day),
                well_known::UK_STUDIED_MNO,
                tac,
                RoamingLabel::HH,
            );
            r.in_designated_range = true;
        }
        for day in 5..10u32 {
            let r = cat.row_mut(
                2,
                Day(day),
                well_known::UK_STUDIED_MNO,
                tac,
                RoamingLabel::HH,
            );
            r.in_designated_range = true;
        }
        let sums = summarize(&cat);
        let pop = identify(&sums, &db, cat.apn_table());
        let stats = group_stats(&sums, &pop.native, 10);
        assert_eq!(stats.devices, 2);
        assert_eq!(stats.active_days_day1_cohort.len(), 1);
        assert_eq!(stats.active_days_day1_cohort.median(), Some(10.0));
        // Whole-group full-period fraction is diluted by the late cohort —
        // the Fig. 11 deployment effect (73% → 83% for the day-1 cohort).
        assert_eq!(stats.full_period_fraction, 0.5);
    }

    #[test]
    fn empty_group() {
        let (sums, _, _) = build();
        let stats = group_stats(&sums, &BTreeSet::new(), 10);
        assert_eq!(stats.devices, 0);
        assert!(stats.active_days.is_empty());
        assert_eq!(stats.failed_device_fraction, 0.0);
    }
}
