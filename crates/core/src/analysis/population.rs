//! Population structure analyses (§4.2, §5.1, §5.2; Fig. 5, Fig. 6).

use crate::classify::{Classification, DeviceClass};
use crate::metrics::{shares, CrossTab};
use crate::summary::DeviceSummary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wtr_model::country::Country;
use wtr_model::roaming::RoamingLabel;
use wtr_probes::catalog::{CatalogEntry, DevicesCatalog};

/// Per-day roaming-label shares (E6). The paper reports H:H ≈ 48%,
/// V:H ≈ 33%, I:H ≈ 18% per day, "stable across the 22 days".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LabelShares {
    /// For each day: label → fraction of that day's devices.
    pub per_day: Vec<BTreeMap<RoamingLabel, f64>>,
    /// Overall label → fraction over all device-days.
    pub overall: BTreeMap<RoamingLabel, f64>,
}

/// In-order accumulator for [`label_shares`]: counts per (day, label),
/// each label in its [`RoamingLabel::index`] slot. State is
/// O(days × labels); rides along in the catalog pass next to the
/// summary fold.
#[derive(Debug, Clone)]
pub struct LabelSharesFold {
    per_day: Vec<[u64; 6]>,
    overall: [u64; 6],
}

impl LabelSharesFold {
    /// An empty accumulator for a `window_days`-day catalog.
    pub fn new(window_days: u32) -> Self {
        LabelSharesFold {
            per_day: vec![[0; 6]; window_days as usize],
            overall: [0; 6],
        }
    }

    /// Counts one row.
    pub fn push(&mut self, row: &CatalogEntry) {
        if let Some(day) = self.per_day.get_mut(row.day.0 as usize) {
            day[row.label.index()] += 1;
        }
        self.overall[row.label.index()] += 1;
    }

    /// Normalizes counts into shares; a label with no rows gets no
    /// entry.
    pub fn finish(self) -> LabelShares {
        let normalize = |counts: [u64; 6]| -> BTreeMap<RoamingLabel, f64> {
            let total = counts.iter().sum::<u64>() as f64;
            RoamingLabel::ALL
                .into_iter()
                .zip(counts)
                .filter(|&(_, c)| c > 0)
                .map(|(l, c)| (l, c as f64 / total))
                .collect()
        };
        LabelShares {
            per_day: self.per_day.into_iter().map(normalize).collect(),
            overall: normalize(self.overall),
        }
    }
}

/// Computes daily roaming-label shares from the catalog: one in-order
/// pass of [`LabelSharesFold`] over its rows.
pub fn label_shares(catalog: &DevicesCatalog) -> LabelShares {
    let mut fold = LabelSharesFold::new(catalog.window_days());
    catalog.iter().for_each(|row| fold.push(row));
    fold.finish()
}

/// Home-country structure of inbound roamers (Fig. 5; E8/E9).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HomeCountries {
    /// `(ISO, device count, share)` over all international inbound
    /// roamers, descending (Fig. 5-top).
    pub overall: Vec<(String, f64, f64)>,
    /// Devices per (device class, home country) — Fig. 5-bottom; the
    /// paper row-normalizes per class.
    pub by_class: CrossTab,
}

/// Computes the Fig. 5 distributions over international inbound roamers.
pub fn home_countries(
    summaries: &[DeviceSummary],
    classification: &Classification,
) -> HomeCountries {
    let mut counts = BTreeMap::new();
    let mut by_class = CrossTab::new();
    for s in summaries {
        if !s.dominant_label.is_international_inbound() {
            continue;
        }
        let iso = Country::by_mcc(s.sim_plmn.mcc)
            .map(|c| c.iso.to_owned())
            .unwrap_or_else(|| format!("mcc{}", s.sim_plmn.mcc));
        if let Some(class) = classification.class_of(s.user) {
            by_class.add(class.label(), &iso, 1.0);
        }
        *counts.entry(iso).or_insert(0.0) += 1.0;
    }
    HomeCountries {
        overall: shares(counts),
        by_class,
    }
}

/// The Fig. 6 heatmaps (E10): device class × roaming label, both
/// normalizations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassLabelBreakdown {
    /// Device counts per (class, dominant label).
    pub table: CrossTab,
}

impl ClassLabelBreakdown {
    /// Fig. 6-left: fraction of each *class* carrying each label.
    pub fn share_of_class(&self, class: DeviceClass, label: RoamingLabel) -> f64 {
        self.table.row_share(class.label(), &label.to_string())
    }

    /// Fig. 6-right: composition of each *label* by class.
    pub fn share_of_label(&self, class: DeviceClass, label: RoamingLabel) -> f64 {
        self.table.col_share(class.label(), &label.to_string())
    }
}

/// Builds the class × label table from device summaries.
pub fn class_label_breakdown(
    summaries: &[DeviceSummary],
    classification: &Classification,
) -> ClassLabelBreakdown {
    let mut table = CrossTab::new();
    for s in summaries {
        if let Some(class) = classification.class_of(s.user) {
            table.add(class.label(), &s.dominant_label.to_string(), 1.0);
        }
    }
    ClassLabelBreakdown { table }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use wtr_model::ids::{Plmn, Tac};
    use wtr_model::time::Day;

    fn tac() -> Tac {
        Tac::new(35_000_000).unwrap()
    }

    fn catalog_with_labels() -> DevicesCatalog {
        let mut cat = DevicesCatalog::new(3);
        // Day 0: 2 native, 1 inbound. Day 1: 1 native, 1 inbound.
        cat.row_mut(1, Day(0), Plmn::of(234, 30), tac(), RoamingLabel::HH);
        cat.row_mut(2, Day(0), Plmn::of(234, 31), tac(), RoamingLabel::VH);
        cat.row_mut(3, Day(0), Plmn::of(204, 4), tac(), RoamingLabel::IH);
        cat.row_mut(1, Day(1), Plmn::of(234, 30), tac(), RoamingLabel::HH);
        cat.row_mut(3, Day(1), Plmn::of(204, 4), tac(), RoamingLabel::IH);
        cat
    }

    #[test]
    fn label_shares_per_day_normalize() {
        let ls = label_shares(&catalog_with_labels());
        assert_eq!(ls.per_day.len(), 3);
        let day0: f64 = ls.per_day[0].values().sum();
        assert!((day0 - 1.0).abs() < 1e-12);
        assert!((ls.per_day[0][&RoamingLabel::IH] - 1.0 / 3.0).abs() < 1e-12);
        assert!((ls.per_day[1][&RoamingLabel::HH] - 0.5).abs() < 1e-12);
        // Day 2 has no rows.
        assert!(ls.per_day[2].is_empty());
        let overall: f64 = ls.overall.values().sum();
        assert!((overall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn home_countries_filters_to_international_inbound() {
        let cat = catalog_with_labels();
        let sums = summarize(&cat);
        let mut cls = Classification::default();
        for s in &sums {
            cls.classes.insert(s.user, DeviceClass::M2m);
        }
        let hc = home_countries(&sums, &cls);
        // Only device 3 (NL SIM, I:H) counts.
        assert_eq!(hc.overall.len(), 1);
        assert_eq!(hc.overall[0].0, "NL");
        assert!((hc.overall[0].2 - 1.0).abs() < 1e-12);
        assert_eq!(hc.by_class.get("m2m", "NL"), 1.0);
    }

    #[test]
    fn class_label_breakdown_shares() {
        let cat = catalog_with_labels();
        let sums = summarize(&cat);
        let mut cls = Classification::default();
        let classes: BTreeMap<u64, DeviceClass> = sums
            .iter()
            .map(|s| {
                let c = if s.dominant_label == RoamingLabel::IH {
                    DeviceClass::M2m
                } else {
                    DeviceClass::Smart
                };
                (s.user, c)
            })
            .collect();
        cls.classes = classes;
        let b = class_label_breakdown(&sums, &cls);
        assert!((b.share_of_class(DeviceClass::M2m, RoamingLabel::IH) - 1.0).abs() < 1e-12);
        assert!((b.share_of_label(DeviceClass::M2m, RoamingLabel::IH) - 1.0).abs() < 1e-12);
        assert_eq!(b.share_of_class(DeviceClass::Smart, RoamingLabel::IH), 0.0);
        // Two smart devices: one H:H, one V:H.
        assert!((b.share_of_class(DeviceClass::Smart, RoamingLabel::HH) - 0.5).abs() < 1e-12);
    }
}
