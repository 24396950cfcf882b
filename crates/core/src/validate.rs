//! Classifier validation against generator ground truth.
//!
//! The paper's authors validated their pipeline "at the cost of some
//! manual verification" — they had no ground truth. The simulator does:
//! every device's true [`Vertical`] is known to the scenario (and *only*
//! to the scenario). This module scores any [`Classification`] against
//! that hidden truth, mapping verticals to expected classes
//! (phones → `smart`/`feat`, everything else → `m2m`).

use crate::classify::{Classification, DeviceClass};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wtr_model::vertical::Vertical;

/// The class a perfectly informed classifier would assign a vertical.
pub fn expected_class(v: Vertical) -> DeviceClass {
    match v {
        Vertical::Smartphone => DeviceClass::Smart,
        Vertical::FeaturePhone => DeviceClass::Feat,
        _ => DeviceClass::M2m,
    }
}

/// Confusion matrix over (expected, predicted) classes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    cells: BTreeMap<(DeviceClass, DeviceClass), usize>,
}

impl ConfusionMatrix {
    /// Records one (expected, predicted) observation.
    pub fn record(&mut self, expected: DeviceClass, predicted: DeviceClass) {
        *self.cells.entry((expected, predicted)).or_insert(0) += 1;
    }

    /// Cell count.
    pub fn get(&self, expected: DeviceClass, predicted: DeviceClass) -> usize {
        self.cells.get(&(expected, predicted)).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.cells.values().sum()
    }

    /// Precision of predicting `class`: TP / (TP + FP). `None` when the
    /// class was never predicted.
    pub fn precision(&self, class: DeviceClass) -> Option<f64> {
        let predicted: usize = DeviceClass::ALL.iter().map(|e| self.get(*e, class)).sum();
        if predicted == 0 {
            None
        } else {
            Some(self.get(class, class) as f64 / predicted as f64)
        }
    }

    /// Recall of `class`: TP / (TP + FN). `None` when the class never
    /// occurs in the ground truth.
    pub fn recall(&self, class: DeviceClass) -> Option<f64> {
        let actual: usize = DeviceClass::ALL.iter().map(|p| self.get(class, *p)).sum();
        if actual == 0 {
            None
        } else {
            Some(self.get(class, class) as f64 / actual as f64)
        }
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = DeviceClass::ALL.iter().map(|c| self.get(*c, *c)).sum();
        correct as f64 / total as f64
    }
}

/// A scored validation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Validation {
    /// The confusion matrix (with `m2m-maybe` counted as predicted class).
    pub matrix: ConfusionMatrix,
    /// Devices in the classification lacking ground truth (should be 0 in
    /// scenario runs).
    pub unmatched: usize,
    /// Binary M2M-vs-phone precision for the `m2m` prediction.
    pub m2m_precision: Option<f64>,
    /// Binary M2M-vs-phone recall (`m2m-maybe` counts as a miss, exactly
    /// as the paper drops those devices from the analysis).
    pub m2m_recall: Option<f64>,
}

/// Scores `classification` against the ground-truth vertical of each
/// device (keyed by anonymized device ID).
pub fn validate(classification: &Classification, truth: &BTreeMap<u64, Vertical>) -> Validation {
    let mut matrix = ConfusionMatrix::default();
    let mut unmatched = 0usize;
    let mut m2m_tp = 0usize;
    let mut m2m_fp = 0usize;
    let mut m2m_fn = 0usize;
    for (user, predicted) in &classification.classes {
        let Some(vertical) = truth.get(user) else {
            unmatched += 1;
            continue;
        };
        let expected = expected_class(*vertical);
        matrix.record(expected, *predicted);
        let truly_m2m = vertical.is_m2m();
        let predicted_m2m = *predicted == DeviceClass::M2m;
        match (truly_m2m, predicted_m2m) {
            (true, true) => m2m_tp += 1,
            (false, true) => m2m_fp += 1,
            (true, false) => m2m_fn += 1,
            (false, false) => {}
        }
    }
    let m2m_precision = if m2m_tp + m2m_fp == 0 {
        None
    } else {
        Some(m2m_tp as f64 / (m2m_tp + m2m_fp) as f64)
    };
    let m2m_recall = if m2m_tp + m2m_fn == 0 {
        None
    } else {
        Some(m2m_tp as f64 / (m2m_tp + m2m_fn) as f64)
    };
    Validation {
        matrix,
        unmatched,
        m2m_precision,
        m2m_recall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classification(pairs: &[(u64, DeviceClass)]) -> Classification {
        let mut c = Classification::default();
        for (u, class) in pairs {
            c.classes.insert(*u, *class);
        }
        c
    }

    #[test]
    fn expected_class_mapping() {
        assert_eq!(expected_class(Vertical::Smartphone), DeviceClass::Smart);
        assert_eq!(expected_class(Vertical::FeaturePhone), DeviceClass::Feat);
        assert_eq!(expected_class(Vertical::SmartMeter), DeviceClass::M2m);
        assert_eq!(expected_class(Vertical::ConnectedCar), DeviceClass::M2m);
    }

    #[test]
    fn perfect_classifier_scores_one() {
        let c = classification(&[
            (1, DeviceClass::M2m),
            (2, DeviceClass::Smart),
            (3, DeviceClass::Feat),
        ]);
        let truth = BTreeMap::from([
            (1, Vertical::SmartMeter),
            (2, Vertical::Smartphone),
            (3, Vertical::FeaturePhone),
        ]);
        let v = validate(&c, &truth);
        assert_eq!(v.matrix.accuracy(), 1.0);
        assert_eq!(v.m2m_precision, Some(1.0));
        assert_eq!(v.m2m_recall, Some(1.0));
        assert_eq!(v.unmatched, 0);
    }

    #[test]
    fn m2m_maybe_counts_as_recall_miss() {
        let c = classification(&[(1, DeviceClass::M2mMaybe), (2, DeviceClass::M2m)]);
        let truth = BTreeMap::from([(1, Vertical::SmartMeter), (2, Vertical::SmartMeter)]);
        let v = validate(&c, &truth);
        assert_eq!(v.m2m_recall, Some(0.5));
        assert_eq!(v.m2m_precision, Some(1.0));
    }

    #[test]
    fn misclassified_phone_hurts_precision() {
        let c = classification(&[(1, DeviceClass::M2m), (2, DeviceClass::M2m)]);
        let truth = BTreeMap::from([(1, Vertical::SmartMeter), (2, Vertical::Smartphone)]);
        let v = validate(&c, &truth);
        assert_eq!(v.m2m_precision, Some(0.5));
        assert_eq!(v.matrix.get(DeviceClass::Smart, DeviceClass::M2m), 1);
    }

    #[test]
    fn precision_recall_none_for_absent_classes() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.precision(DeviceClass::M2m), None);
        assert_eq!(m.recall(DeviceClass::M2m), None);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    fn unmatched_devices_counted() {
        let c = classification(&[(1, DeviceClass::M2m), (99, DeviceClass::Smart)]);
        let truth = BTreeMap::from([(1, Vertical::SmartMeter)]);
        let v = validate(&c, &truth);
        assert_eq!(v.unmatched, 1);
        assert_eq!(v.matrix.total(), 1);
    }

    #[test]
    fn precision_and_recall_count_their_cells() {
        let mut m = ConfusionMatrix::default();
        // 8 true m2m predicted m2m, 2 m2m predicted maybe, 2 smart
        // predicted m2m.
        for _ in 0..8 {
            m.record(DeviceClass::M2m, DeviceClass::M2m);
        }
        for _ in 0..2 {
            m.record(DeviceClass::M2m, DeviceClass::M2mMaybe);
        }
        for _ in 0..2 {
            m.record(DeviceClass::Smart, DeviceClass::M2m);
        }
        let p = m.precision(DeviceClass::M2m).unwrap();
        let r = m.recall(DeviceClass::M2m).unwrap();
        assert!((p - 0.8).abs() < 1e-12);
        assert!((r - 0.8).abs() < 1e-12);
    }
}
