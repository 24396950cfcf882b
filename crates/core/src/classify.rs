//! The multi-step M2M device classification pipeline (§4.3).
//!
//! The paper's method, verbatim in structure:
//!
//! 1. **Keyword validation** — rank the APN inventory, match the 26-keyword
//!    vocabulary; matching APNs become *validated M2M APNs*.
//! 2. **Seed** — every device using a validated APN is `m2m`.
//! 3. **Property propagation** — "we extend the m2m class to all devices
//!    having the same properties of the devices using the validated APNs":
//!    devices sharing a TAC with a seed device become `m2m` too (this is
//!    what catches the ~21% of devices that expose no APN at all).
//! 4. **Smart** — "declared to be using a major smartphone OS (android,
//!    iOS, blackberry, windows mobile) and use a consumer APN".
//! 5. **Feat** — "the GSMA database declares it to be a feature phone or
//!    \[it\] uses a consumer APN".
//! 6. **m2m-maybe** — device properties suggest neither a smartphone nor a
//!    feature phone, but there is no APN to confirm (voice-only devices).
//!
//! One guard the paper implies but does not spell out: propagation skips
//! TACs whose catalog entry is a major-smartphone-OS device, so a consumer
//! handset that once touched an M2M APN (tethering, SIM swap) cannot drag
//! every handset of that model into `m2m`.

use crate::keywords::{is_consumer_apn, match_m2m_keyword};
use crate::summary::DeviceSummary;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use wtr_model::intern::ApnTable;
use wtr_model::tacdb::{GsmaClass, TacDatabase};
use wtr_sim::par;

/// The classifier's output classes (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Smartphone.
    Smart,
    /// Feature phone.
    Feat,
    /// IoT / M2M device.
    M2m,
    /// Probably M2M, but no APN evidence to confirm ("we do not consider
    /// those devices for the remainder of the analysis").
    M2mMaybe,
}

impl DeviceClass {
    /// All classes in the paper's reporting order.
    pub const ALL: [DeviceClass; 4] = [
        DeviceClass::Smart,
        DeviceClass::Feat,
        DeviceClass::M2m,
        DeviceClass::M2mMaybe,
    ];

    /// Report label.
    pub const fn label(self) -> &'static str {
        match self {
            DeviceClass::Smart => "smart",
            DeviceClass::Feat => "feat",
            DeviceClass::M2m => "m2m",
            DeviceClass::M2mMaybe => "m2m-maybe",
        }
    }
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Full classification result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Classification {
    /// Class per anonymized device ID (ordered, so reports and
    /// serialized output iterate deterministically).
    pub classes: BTreeMap<u64, DeviceClass>,
    /// Distinct APN strings seen across the population.
    pub total_apns: usize,
    /// APNs validated as M2M by the keyword step, with the keyword that
    /// validated each.
    pub validated_apns: BTreeMap<String, String>,
    /// TACs the propagation step marked as M2M hardware.
    pub propagated_tacs: BTreeSet<u32>,
    /// Devices classified `m2m` purely from NB-IoT radio usage — the §8
    /// mechanism ("NB-IoT will enable visited MNOs to easily detect the
    /// inbound roaming IoT devices"). Zero on 2019-era populations.
    pub nbiot_detected: usize,
    /// Devices classified `m2m` from a GSMA-published M2M IMSI range —
    /// the §1 transparency mechanism. Zero unless roaming partners
    /// actually publish their ranges (the paper notes most do not, which
    /// is why the APN pipeline exists at all).
    pub range_detected: usize,
    /// Devices exposing no APN at all (≈21% in the paper).
    pub devices_without_apn: usize,
}

impl Classification {
    /// Class of a device, if classified.
    pub fn class_of(&self, user: u64) -> Option<DeviceClass> {
        self.classes.get(&user).copied()
    }

    /// Count per class.
    pub fn counts(&self) -> BTreeMap<DeviceClass, usize> {
        let mut out = BTreeMap::new();
        for class in self.classes.values() {
            *out.entry(*class).or_insert(0) += 1;
        }
        out
    }

    /// Share per class of the total population.
    pub fn shares(&self) -> BTreeMap<DeviceClass, f64> {
        let total = self.classes.len().max(1) as f64;
        self.counts()
            .into_iter()
            .map(|(c, n)| (c, n as f64 / total))
            .collect()
    }
}

/// Keyword verdict for one distinct APN symbol — computed once per
/// inventory entry (one allocation-free scan), then reused for every
/// device carrying the symbol.
#[derive(Debug, Clone, Copy, Default)]
struct Verdict {
    /// Matched an M2M keyword (step 1 validation).
    m2m: bool,
    /// Matched a consumer keyword (steps 4–5).
    consumer: bool,
}

/// The §4.3 classifier. Borrows the GSMA-like TAC catalog for device
/// properties.
#[derive(Debug, Clone, Copy)]
pub struct Classifier<'a> {
    tacdb: &'a TacDatabase,
}

impl<'a> Classifier<'a> {
    /// Creates a classifier over a TAC catalog.
    pub fn new(tacdb: &'a TacDatabase) -> Self {
        Classifier { tacdb }
    }

    /// Runs the full pipeline over per-device summaries. `apns` is the
    /// intern table the summaries' symbols resolve through — the one of
    /// the catalog they were summarized from.
    ///
    /// Keyword matching is O(distinct APNs), not O(device × APN): the
    /// classifier computes one keyword verdict per distinct observed symbol
    /// (a single allocation-free case-insensitive scan each) and then
    /// classifies every device against the verdict vector with pure
    /// index lookups.
    ///
    /// # Panics
    /// If a summary carries a symbol not issued by `apns`.
    pub fn classify(&self, summaries: &[DeviceSummary], apns: &ApnTable) -> Classification {
        let mut result = Classification::default();

        // Step 1: APN inventory + keyword validation, once per *distinct*
        // symbol. Only symbols actually observed in the summaries form
        // the inventory (the table may intern more than this population
        // used, e.g. after catalog merges).
        let mut observed = vec![false; apns.len()];
        for s in summaries {
            for sym in &s.apns {
                observed[sym.index()] = true;
            }
        }
        let mut verdicts = vec![Verdict::default(); apns.len()];
        for (sym, apn) in apns.iter() {
            if !observed[sym.index()] {
                continue;
            }
            result.total_apns += 1;
            let v = &mut verdicts[sym.index()];
            if let Some((kw, _)) = match_m2m_keyword(apn) {
                v.m2m = true;
                result.validated_apns.insert(apn.to_owned(), kw.to_owned());
            }
            v.consumer = is_consumer_apn(apn);
        }

        // Step 2: seed devices using validated APNs — plus the RAT rule
        // of §2.2/§8: anything attaching over the dedicated NB-IoT
        // carrier is an IoT device by construction, no APN needed.
        let mut seeds: BTreeSet<u64> = BTreeSet::new();
        for s in summaries {
            if s.in_published_m2m_range {
                // GSMA transparency (§1): the home operator told us this
                // IMSI range is M2M — no inference needed.
                seeds.insert(s.user);
                result.range_detected += 1;
                continue;
            }
            if s.radio_flags.any.contains(wtr_model::rat::Rat::NbIot) {
                seeds.insert(s.user);
                result.nbiot_detected += 1;
                continue;
            }
            if s.apns.iter().any(|sym| verdicts[sym.index()].m2m) {
                seeds.insert(s.user);
            }
        }

        // Step 3: propagate by TAC (guarded against smartphone hardware).
        for s in summaries {
            if seeds.contains(&s.user) {
                let is_phone_hw = self
                    .tacdb
                    .get(s.tac)
                    .is_some_and(|i| i.os.is_major_smartphone_os());
                if !is_phone_hw {
                    result.propagated_tacs.insert(s.tac.value());
                }
            }
        }

        // Steps 4–6: classify every device. Each device's class depends
        // only on its own summary plus the (already fixed) seed and
        // propagation sets, so this step shards cleanly over worker
        // threads; the per-device verdicts land in an ordered map, making
        // the output independent of thread count.
        let seeds = &seeds;
        let propagated = &result.propagated_tacs;
        let apn_verdicts = &verdicts;
        let device_verdicts = par::par_map(summaries, |s| {
            let info = self.tacdb.get(s.tac);
            let class = if seeds.contains(&s.user) || propagated.contains(&s.tac.value()) {
                DeviceClass::M2m
            } else {
                let os_major = info.is_some_and(|i| i.os.is_major_smartphone_os());
                let gsma_feat = info.is_some_and(|i| i.gsma_class == GsmaClass::FeaturePhone);
                // Memoized per distinct APN: an index lookup, no string
                // scan and no lowercase allocation per device.
                let uses_consumer = s.apns.iter().any(|sym| apn_verdicts[sym.index()].consumer);
                if os_major && (uses_consumer || s.apns.is_empty()) {
                    DeviceClass::Smart
                } else if gsma_feat || (uses_consumer && !os_major) {
                    DeviceClass::Feat
                } else {
                    DeviceClass::M2mMaybe
                }
            };
            (s.user, class, s.apns.is_empty())
        });
        for (user, class, no_apn) in device_verdicts {
            if no_apn {
                result.devices_without_apn += 1;
            }
            result.classes.insert(user, class);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::ids::{Plmn, Tac};
    use wtr_model::rat::RadioFlags;
    use wtr_model::roaming::RoamingLabel;
    use wtr_probes::catalog::MobilityAccum;

    fn tacdb() -> TacDatabase {
        TacDatabase::standard()
    }

    fn tac_of(db: &TacDatabase, vendor: &str) -> Tac {
        let mut tacs: Vec<Tac> = db.tacs_of_vendor(vendor).collect();
        tacs.sort();
        tacs[0]
    }

    fn phone_tac(db: &TacDatabase) -> Tac {
        let mut tacs: Vec<Tac> = db
            .iter()
            .filter(|e| e.gsma_class == GsmaClass::Smartphone)
            .map(|e| e.tac)
            .collect();
        tacs.sort();
        tacs[0]
    }

    fn feature_tac(db: &TacDatabase) -> Tac {
        let mut tacs: Vec<Tac> = db
            .iter()
            .filter(|e| e.gsma_class == GsmaClass::FeaturePhone)
            .map(|e| e.tac)
            .collect();
        tacs.sort();
        tacs[0]
    }

    fn summary(table: &mut ApnTable, user: u64, tac: Tac, apns: &[&str]) -> DeviceSummary {
        DeviceSummary {
            user,
            sim_plmn: Plmn::of(204, 4),
            tac,
            active_days: 5,
            first_day: 0,
            dominant_label: RoamingLabel::IH,
            apns: apns.iter().map(|s| table.intern(s)).collect(),
            radio_flags: RadioFlags::default(),
            events: 10,
            failed_events: 0,
            calls: 0,
            sms: 0,
            data_sessions: 3,
            bytes: 1_000,
            in_designated_range: false,
            in_published_m2m_range: false,
            hourly: [0; 24],
            mobility: MobilityAccum::default(),
        }
    }

    #[test]
    fn validated_apn_seeds_m2m() {
        let db = tacdb();
        let mut t = ApnTable::new();
        let gemalto = tac_of(&db, "Gemalto");
        let sums = vec![summary(
            &mut t,
            1,
            gemalto,
            &["smhp.centricaplc.com.mnc004.mcc204.gprs"],
        )];
        let c = Classifier::new(&db).classify(&sums, &t);
        assert_eq!(c.class_of(1), Some(DeviceClass::M2m));
        assert_eq!(c.validated_apns.len(), 1);
        assert!(c.propagated_tacs.contains(&gemalto.value()));
    }

    #[test]
    fn propagation_catches_apnless_siblings() {
        // Device 2 has no APN (voice only) but shares the Telit TAC with a
        // validated device — propagation classifies it m2m, which is the
        // paper's answer to the 21%-no-APN problem.
        let db = tacdb();
        let mut t = ApnTable::new();
        let telit = tac_of(&db, "Telit");
        let sums = vec![
            summary(&mut t, 1, telit, &["telemetry.rwe.de.mnc002.mcc262.gprs"]),
            summary(&mut t, 2, telit, &[]),
        ];
        let c = Classifier::new(&db).classify(&sums, &t);
        assert_eq!(c.class_of(2), Some(DeviceClass::M2m));
        assert_eq!(c.devices_without_apn, 1);
    }

    #[test]
    fn smartphone_by_os_and_consumer_apn() {
        let db = tacdb();
        let mut t = ApnTable::new();
        let phone = phone_tac(&db);
        let sums = vec![summary(&mut t, 1, phone, &["payandgo.example"])];
        let c = Classifier::new(&db).classify(&sums, &t);
        assert_eq!(c.class_of(1), Some(DeviceClass::Smart));
    }

    #[test]
    fn feature_phone_by_gsma_class() {
        let db = tacdb();
        let mut t = ApnTable::new();
        let feat = feature_tac(&db);
        let sums = vec![summary(&mut t, 1, feat, &[])];
        let c = Classifier::new(&db).classify(&sums, &t);
        assert_eq!(c.class_of(1), Some(DeviceClass::Feat));
    }

    #[test]
    fn module_without_apn_is_m2m_maybe() {
        let db = tacdb();
        let mut t = ApnTable::new();
        let gemalto = tac_of(&db, "Gemalto");
        // No validated-APN device shares this TAC in this population.
        let sums = vec![summary(&mut t, 1, gemalto, &[])];
        let c = Classifier::new(&db).classify(&sums, &t);
        assert_eq!(c.class_of(1), Some(DeviceClass::M2mMaybe));
    }

    #[test]
    fn smartphone_tac_not_propagated() {
        // A handset that touched an M2M APN is itself m2m (it used the
        // vertical's APN), but its TAC must not contaminate other handsets.
        let db = tacdb();
        let mut t = ApnTable::new();
        let phone = phone_tac(&db);
        let sums = vec![
            summary(&mut t, 1, phone, &["fleet.scania.com"]),
            summary(&mut t, 2, phone, &["payandgo.example"]),
        ];
        let c = Classifier::new(&db).classify(&sums, &t);
        assert_eq!(c.class_of(1), Some(DeviceClass::M2m));
        assert_eq!(c.class_of(2), Some(DeviceClass::Smart));
        assert!(!c.propagated_tacs.contains(&phone.value()));
    }

    #[test]
    fn counts_and_shares_sum_to_one() {
        let db = tacdb();
        let mut t = ApnTable::new();
        let sums = vec![
            summary(&mut t, 1, tac_of(&db, "Gemalto"), &["smhp.centricaplc.com"]),
            summary(&mut t, 2, phone_tac(&db), &["internet"]),
            summary(&mut t, 3, feature_tac(&db), &[]),
            summary(&mut t, 4, tac_of(&db, "Quectel"), &[]),
        ];
        let c = Classifier::new(&db).classify(&sums, &t);
        assert_eq!(c.classes.len(), 4);
        let total: f64 = c.shares().values().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(c.counts().values().sum::<usize>(), 4);
    }

    #[test]
    fn unknown_tac_with_consumer_apn_is_feat() {
        // §4.3: feat if GSMA says feature phone *or* it uses a consumer APN
        // without a major smartphone OS. An unknown TAC has no OS info.
        let db = tacdb();
        let mut t = ApnTable::new();
        let unknown = Tac::new(99_000_000).unwrap();
        let sums = vec![summary(&mut t, 1, unknown, &["internet"])];
        let c = Classifier::new(&db).classify(&sums, &t);
        assert_eq!(c.class_of(1), Some(DeviceClass::Feat));
    }

    #[test]
    fn empty_population() {
        let db = tacdb();
        let c = Classifier::new(&db).classify(&[], &ApnTable::new());
        assert!(c.classes.is_empty());
        assert_eq!(c.total_apns, 0);
    }

    #[test]
    fn unobserved_table_entries_do_not_count() {
        // The table may intern more strings than this population used
        // (e.g. after merges); only observed symbols form the inventory.
        let db = tacdb();
        let mut t = ApnTable::new();
        t.intern("fleet.scania.com");
        let sums = vec![summary(&mut t, 1, phone_tac(&db), &["payandgo.example"])];
        let c = Classifier::new(&db).classify(&sums, &t);
        assert_eq!(c.total_apns, 1, "only the observed APN counts");
        assert!(
            c.validated_apns.is_empty(),
            "unobserved scania not validated"
        );
        assert_eq!(c.class_of(1), Some(DeviceClass::Smart));
    }
}
