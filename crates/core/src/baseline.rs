//! Baseline classifiers the paper compares against (§4.3).
//!
//! * [`vendor_baseline`] — the "big players" heuristic: a fixed list of
//!   known M2M module vendors ("Gemalto, Telit, and Sierra Wireless …
//!   combined 75% of all inroaming devices"). The paper calls this "a
//!   naïve approach" because it still needs per-vendor manual vetting and
//!   misses the long tail.
//! * [`apn_only_baseline`] — keywords without property propagation: "when
//!   used in isolation, APNs are not enough as we find about 21% of the
//!   devices in the dataset not having any APN".
//!
//! Both emit the same [`Classification`] shape as the full pipeline so the
//! validation module can compare them head-to-head (experiment E19).

use crate::classify::{Classification, DeviceClass};
use crate::keywords::{is_consumer_apn, match_m2m_keyword};
use crate::summary::DeviceSummary;
use wtr_model::intern::ApnTable;
use wtr_model::tacdb::{GsmaClass, TacDatabase};

/// Vendors treated as M2M by the "big players" baseline.
pub const BIG_PLAYERS: &[&str] = &["Gemalto", "Telit", "Sierra Wireless"];

/// The vendor-list baseline: TAC vendor ∈ big players → `m2m`; GSMA
/// smartphone class → `smart`; GSMA feature-phone class → `feat`;
/// everything else `m2m-maybe`.
pub fn vendor_baseline(tacdb: &TacDatabase, summaries: &[DeviceSummary]) -> Classification {
    let mut result = Classification::default();
    for s in summaries {
        if s.apns.is_empty() {
            result.devices_without_apn += 1;
        }
        let info = tacdb.get(s.tac);
        let class = match info {
            Some(i) if BIG_PLAYERS.contains(&i.vendor.as_str()) => DeviceClass::M2m,
            Some(i) if i.gsma_class == GsmaClass::Smartphone => DeviceClass::Smart,
            Some(i) if i.gsma_class == GsmaClass::FeaturePhone => DeviceClass::Feat,
            _ => DeviceClass::M2mMaybe,
        };
        result.classes.insert(s.user, class);
    }
    result
}

/// The APN-keywords-only baseline: validated APN → `m2m`; consumer APN →
/// `smart`/`feat` by OS; **no propagation**, so every APN-less device lands
/// in `m2m-maybe`. `apns` is the intern table the summaries' symbols
/// resolve through; keyword verdicts are memoized per distinct symbol.
pub fn apn_only_baseline(
    tacdb: &TacDatabase,
    summaries: &[DeviceSummary],
    apns: &ApnTable,
) -> Classification {
    let mut result = Classification::default();
    // One keyword scan per distinct symbol, reused for every device.
    let m2m_kw: Vec<Option<&'static str>> = apns
        .strings()
        .iter()
        .map(|a| match_m2m_keyword(a).map(|(kw, _)| kw))
        .collect();
    let consumer: Vec<bool> = apns.strings().iter().map(|a| is_consumer_apn(a)).collect();
    for s in summaries {
        if s.apns.is_empty() {
            result.devices_without_apn += 1;
        }
        let mut m2m_apn = false;
        for &sym in &s.apns {
            if let Some(kw) = m2m_kw[sym.index()] {
                result
                    .validated_apns
                    .insert(apns.resolve(sym).to_owned(), kw.to_owned());
                m2m_apn = true;
            }
        }
        result.total_apns = result.total_apns.max(result.validated_apns.len());
        let class = if m2m_apn {
            DeviceClass::M2m
        } else if s.apns.iter().any(|sym| consumer[sym.index()]) {
            let os_major = tacdb
                .get(s.tac)
                .is_some_and(|i| i.os.is_major_smartphone_os());
            if os_major {
                DeviceClass::Smart
            } else {
                DeviceClass::Feat
            }
        } else {
            DeviceClass::M2mMaybe
        };
        result.classes.insert(s.user, class);
    }
    result
}

/// The IMSI-range-only classifier: trusts nothing but the GSMA
/// transparency ranges (§1). Perfect precision on tagged devices, but
/// recall is bounded by how many partners actually publish ranges — in
/// 2019 almost none did, which is why the paper had to invent the APN
/// pipeline.
pub fn imsi_range_baseline(tacdb: &TacDatabase, summaries: &[DeviceSummary]) -> Classification {
    let mut result = Classification::default();
    for s in summaries {
        if s.apns.is_empty() {
            result.devices_without_apn += 1;
        }
        let class = if s.in_published_m2m_range || s.in_designated_range {
            result.range_detected += 1;
            DeviceClass::M2m
        } else {
            match tacdb.get(s.tac) {
                Some(i) if i.gsma_class == GsmaClass::Smartphone => DeviceClass::Smart,
                Some(i) if i.gsma_class == GsmaClass::FeaturePhone => DeviceClass::Feat,
                _ => DeviceClass::M2mMaybe,
            }
        };
        result.classes.insert(s.user, class);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::ids::{Plmn, Tac};
    use wtr_model::rat::RadioFlags;
    use wtr_model::roaming::RoamingLabel;
    use wtr_probes::catalog::MobilityAccum;

    fn summary(table: &mut ApnTable, user: u64, tac: Tac, apns: &[&str]) -> DeviceSummary {
        DeviceSummary {
            user,
            sim_plmn: Plmn::of(204, 4),
            tac,
            active_days: 1,
            first_day: 0,
            dominant_label: RoamingLabel::IH,
            apns: apns.iter().map(|s| table.intern(s)).collect(),
            radio_flags: RadioFlags::default(),
            events: 1,
            failed_events: 0,
            calls: 0,
            sms: 0,
            data_sessions: 0,
            bytes: 0,
            in_designated_range: false,
            in_published_m2m_range: false,
            hourly: [0; 24],
            mobility: MobilityAccum::default(),
        }
    }

    fn tac_of(db: &TacDatabase, vendor: &str) -> Tac {
        let mut tacs: Vec<Tac> = db.tacs_of_vendor(vendor).collect();
        tacs.sort();
        tacs[0]
    }

    #[test]
    fn vendor_baseline_flags_big_players() {
        let db = TacDatabase::standard();
        let mut t = ApnTable::new();
        let sums = vec![
            summary(&mut t, 1, tac_of(&db, "Gemalto"), &[]),
            summary(&mut t, 2, tac_of(&db, "Quectel"), &[]),
        ];
        let c = vendor_baseline(&db, &sums);
        assert_eq!(c.class_of(1), Some(DeviceClass::M2m));
        // Long-tail M2M vendor missed — the baseline's known weakness.
        assert_eq!(c.class_of(2), Some(DeviceClass::M2mMaybe));
    }

    #[test]
    fn apn_only_baseline_misses_apnless_devices() {
        let db = TacDatabase::standard();
        let mut t = ApnTable::new();
        let telit = tac_of(&db, "Telit");
        let sums = vec![
            summary(&mut t, 1, telit, &["telemetry.rwe.de"]),
            summary(&mut t, 2, telit, &[]), // same hardware, no APN
        ];
        let c = apn_only_baseline(&db, &sums, &t);
        assert_eq!(c.class_of(1), Some(DeviceClass::M2m));
        assert_eq!(
            c.class_of(2),
            Some(DeviceClass::M2mMaybe),
            "no propagation: the APN-less sibling is lost"
        );
        assert_eq!(c.devices_without_apn, 1);
    }

    #[test]
    fn imsi_range_baseline_uses_only_range_tags() {
        let db = TacDatabase::standard();
        let mut t = ApnTable::new();
        let telit = tac_of(&db, "Telit");
        let mut tagged = summary(&mut t, 1, telit, &["telemetry.rwe.de"]);
        tagged.in_published_m2m_range = true;
        let untagged = summary(&mut t, 2, telit, &["telemetry.rwe.de"]);
        let c = imsi_range_baseline(&db, &[tagged, untagged]);
        assert_eq!(c.class_of(1), Some(DeviceClass::M2m));
        // Same device, same APN — but no published range, so the
        // range-only classifier cannot identify it.
        assert_eq!(c.class_of(2), Some(DeviceClass::M2mMaybe));
        assert_eq!(c.range_detected, 1);
    }

    #[test]
    fn apn_only_classifies_phones_by_consumer_apn() {
        let db = TacDatabase::standard();
        let phone = {
            let mut tacs: Vec<Tac> = db
                .iter()
                .filter(|e| e.gsma_class == GsmaClass::Smartphone)
                .map(|e| e.tac)
                .collect();
            tacs.sort();
            tacs[0]
        };
        let mut t = ApnTable::new();
        let sums = vec![summary(&mut t, 1, phone, &["payandgo.example"])];
        let c = apn_only_baseline(&db, &sums, &t);
        assert_eq!(c.class_of(1), Some(DeviceClass::Smart));
    }
}
