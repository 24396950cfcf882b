//! Statistical primitives: empirical CDFs and cross-tabulations.
//!
//! Every figure in the paper is either a CDF ([`Ecdf`]) or a normalized
//! contingency table ([`CrossTab`]); these two types plus shares cover the
//! whole evaluation section.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An empirical cumulative distribution function over `f64` samples.
///
/// ```
/// use wtr_core::metrics::Ecdf;
///
/// let records_per_device = Ecdf::new(vec![12.0, 40.0, 267.0, 8.0, 1900.0]);
/// assert_eq!(records_per_device.median(), Some(40.0));
/// assert_eq!(records_per_device.fraction_at_or_below(300.0), 0.8);
/// assert_eq!(records_per_device.max(), Some(1900.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds from samples (NaNs are rejected with a debug assertion and
    /// dropped in release builds), sorted in place with `f64::total_cmp`.
    /// Under that total order equal keys are bit-identical, so the sorted
    /// vector is a pure function of the sample multiset.
    pub fn new(mut samples: Vec<f64>) -> Self {
        debug_assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        samples.retain(|x| !x.is_nan());
        samples.sort_by(f64::total_cmp);
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Quantile `q` in `[0, 1]` (nearest-rank).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// Median (quantile 0.5).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Evenly-spaced `(x, F(x))` points for plotting/rendering: at most
    /// `points` sampled steps, plus at most one extra closing point at the
    /// maximum — so never more than `points + 1` entries.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        // Ceiling division: with truncation (the old behaviour) `n = 100,
        // points = 32` yielded a step of 3 and 34 points, violating the
        // documented bound.
        let step = n.div_ceil(points).max(1);
        let mut out = Vec::new();
        let mut i = step - 1;
        while i < n {
            out.push((self.sorted[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|(x, _)| *x) != Some(self.sorted[n - 1]) {
            out.push((self.sorted[n - 1], 1.0));
        }
        out
    }
}

/// A labeled contingency table with row/column normalization — the shape
/// of Fig. 2, Fig. 5-bottom and Fig. 6.
///
/// ```
/// use wtr_core::metrics::CrossTab;
///
/// let mut fig6 = CrossTab::new();
/// fig6.add("m2m", "I:H", 747.0);
/// fig6.add("m2m", "H:H", 253.0);
/// assert!((fig6.row_share("m2m", "I:H") - 0.747).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CrossTab {
    cells: BTreeMap<(String, String), f64>,
}

impl CrossTab {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `weight` to cell (row, col).
    pub fn add(&mut self, row: &str, col: &str, weight: f64) {
        *self
            .cells
            .entry((row.to_owned(), col.to_owned()))
            .or_insert(0.0) += weight;
    }

    /// Raw cell value.
    pub fn get(&self, row: &str, col: &str) -> f64 {
        self.cells
            .get(&(row.to_owned(), col.to_owned()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Distinct row labels, sorted.
    pub fn rows(&self) -> Vec<String> {
        let mut out: Vec<String> = self.cells.keys().map(|(r, _)| r.clone()).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Distinct column labels, sorted.
    pub fn cols(&self) -> Vec<String> {
        let mut out: Vec<String> = self.cells.keys().map(|(_, c)| c.clone()).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Sum of one row.
    pub fn row_total(&self, row: &str) -> f64 {
        self.cells
            .iter()
            .filter(|((r, _), _)| r == row)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Sum of one column.
    pub fn col_total(&self, col: &str) -> f64 {
        self.cells
            .iter()
            .filter(|((_, c), _)| c == col)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Grand total.
    pub fn total(&self) -> f64 {
        self.cells.values().sum()
    }

    /// Cell value normalized by its row total (the paper normalizes Fig. 2
    /// and Fig. 5-bottom by row).
    pub fn row_share(&self, row: &str, col: &str) -> f64 {
        let t = self.row_total(row);
        if t <= 0.0 {
            0.0
        } else {
            self.get(row, col) / t
        }
    }

    /// Cell value normalized by its column total (Fig. 6-right).
    pub fn col_share(&self, row: &str, col: &str) -> f64 {
        let t = self.col_total(col);
        if t <= 0.0 {
            0.0
        } else {
            self.get(row, col) / t
        }
    }
}

/// Shares of a labeled counter: `(label, count, fraction)` rows sorted by
/// count descending. The building block of every "X% of devices are Y"
/// statement in the paper.
pub fn shares<I: IntoIterator<Item = (String, f64)>>(counts: I) -> Vec<(String, f64, f64)> {
    let items: Vec<(String, f64)> = counts.into_iter().collect();
    let total: f64 = items.iter().map(|(_, c)| c).sum();
    let mut out: Vec<(String, f64, f64)> = items
        .into_iter()
        .map(|(l, c)| {
            let share = if total > 0.0 { c / total } else { 0.0 };
            (l, c, share)
        })
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(e.len(), 5);
        assert_eq!(e.median(), Some(3.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(5.0));
        assert_eq!(e.quantile(0.2), Some(1.0));
        assert_eq!(e.quantile(0.21), Some(2.0));
        assert_eq!(e.min(), Some(1.0));
        assert_eq!(e.max(), Some(5.0));
        assert_eq!(e.mean(), Some(3.0));
    }

    #[test]
    fn ecdf_fraction_below() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 10.0]);
        assert_eq!(e.fraction_at_or_below(0.5), 0.0);
        assert_eq!(e.fraction_at_or_below(2.0), 0.75);
        assert_eq!(e.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn ecdf_empty() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.median(), None);
        assert_eq!(e.mean(), None);
        assert_eq!(e.fraction_at_or_below(1.0), 0.0);
        assert!(e.curve(10).is_empty());
    }

    #[test]
    fn ecdf_curve_monotone_and_ends_at_one() {
        let samples: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let e = Ecdf::new(samples);
        let points = 32;
        let curve = e.curve(points);
        assert!(
            curve.len() <= points + 1,
            "curve({points}) returned {} points",
            curve.len()
        );
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn ecdf_curve_honors_bound_for_awkward_ratios() {
        // The regression case: n = 100, points = 32. Truncating division
        // produced a step of 3 and a 34-point curve.
        let e = Ecdf::new((0..100).map(|i| i as f64).collect());
        for points in [1usize, 2, 3, 7, 31, 32, 33, 99, 100, 101] {
            let curve = e.curve(points);
            assert!(
                curve.len() <= points + 1,
                "n=100 curve({points}) returned {} points",
                curve.len()
            );
            assert_eq!(curve.last().unwrap().1, 1.0);
        }
    }

    #[test]
    fn ecdf_sort_matches_total_order() {
        let samples: Vec<f64> = (0..40_000u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                (x as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect();
        let mut expected = samples.clone();
        expected.sort_by(f64::total_cmp);
        let e = Ecdf::new(samples);
        assert_eq!(e.len(), expected.len());
        assert_eq!(e.min(), expected.first().copied());
        assert_eq!(e.median(), Some(expected[expected.len() / 2 - 1]));
        assert_eq!(e.max(), expected.last().copied());
    }

    #[test]
    fn crosstab_normalizations() {
        let mut t = CrossTab::new();
        t.add("m2m", "I:H", 75.0);
        t.add("m2m", "H:H", 25.0);
        t.add("smart", "I:H", 12.0);
        t.add("smart", "H:H", 88.0);
        assert_eq!(t.row_share("m2m", "I:H"), 0.75);
        assert_eq!(t.row_share("smart", "H:H"), 0.88);
        let ih_total = t.col_total("I:H");
        assert!((t.col_share("m2m", "I:H") - 75.0 / ih_total).abs() < 1e-12);
        assert_eq!(t.total(), 200.0);
        assert_eq!(t.rows(), vec!["m2m".to_string(), "smart".to_string()]);
        assert_eq!(t.cols(), vec!["H:H".to_string(), "I:H".to_string()]);
    }

    #[test]
    fn crosstab_missing_cells_are_zero() {
        let mut t = CrossTab::new();
        t.add("a", "x", 1.0);
        assert_eq!(t.get("a", "y"), 0.0);
        assert_eq!(t.row_share("zz", "x"), 0.0);
    }

    #[test]
    fn shares_sorted_and_normalized() {
        let s = shares(vec![
            ("NL".to_owned(), 30.0),
            ("SE".to_owned(), 20.0),
            ("ES".to_owned(), 10.0),
            ("FR".to_owned(), 40.0),
        ]);
        assert_eq!(s[0].0, "FR");
        assert!((s[0].2 - 0.4).abs() < 1e-12);
        let total: f64 = s.iter().map(|(_, _, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shares_empty_input() {
        let s = shares(Vec::<(String, f64)>::new());
        assert!(s.is_empty());
    }
}
