//! # wtr-bench — the reproduction harness behind the `repro` binary.
//!
//! `repro` regenerates every paper figure and table and prints each
//! number next to the paper's value with [`compare_line`].
//! [`MnoArtifacts`] runs an MNO scenario and the classification
//! pipeline once for the experiments on the MNO side. The cost of those
//! stages is measured by the repository benchmark, `perfbench/`.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use wtr_core::analysis::activity::StatusGroup;
use wtr_core::classify::{Classification, Classifier, DeviceClass};
use wtr_core::summary::{summarize, DeviceSummary};
use wtr_model::vertical::Vertical;
use wtr_scenarios::mno::MnoScenarioOutput;
use wtr_scenarios::{MnoScenario, MnoScenarioConfig};

/// Everything the MNO-side experiments need, computed once.
pub struct MnoArtifacts {
    /// The scenario output (catalog + ground truth + TAC catalog).
    pub output: MnoScenarioOutput,
    /// Per-device summaries.
    pub summaries: Vec<DeviceSummary>,
    /// The full classification pipeline's result.
    pub classification: Classification,
}

impl MnoArtifacts {
    /// Runs the MNO scenario and the classification pipeline.
    pub fn build(config: MnoScenarioConfig) -> MnoArtifacts {
        let output = MnoScenario::new(config).run();
        let summaries = summarize(&output.catalog);
        let classification =
            Classifier::new(&output.tacdb).classify(&summaries, output.catalog.apn_table());
        MnoArtifacts {
            output,
            summaries,
            classification,
        }
    }

    /// Ground truth restricted to devices that actually appear in the
    /// catalog (devices that never touched the studied MNO are invisible).
    pub fn observed_truth(&self) -> BTreeMap<u64, Vertical> {
        self.summaries
            .iter()
            .filter_map(|s| self.output.ground_truth.get(&s.user).map(|v| (s.user, *v)))
            .collect()
    }

    /// The standard (class, status) pairs used by Fig. 7/8/10 panels.
    pub fn standard_pairs() -> Vec<(DeviceClass, StatusGroup)> {
        vec![
            (DeviceClass::M2m, StatusGroup::InboundRoaming),
            (DeviceClass::M2m, StatusGroup::Native),
            (DeviceClass::Smart, StatusGroup::InboundRoaming),
            (DeviceClass::Smart, StatusGroup::Native),
            (DeviceClass::Feat, StatusGroup::InboundRoaming),
            (DeviceClass::Feat, StatusGroup::Native),
        ]
    }
}

/// Formats a paper-vs-measured comparison line.
pub fn compare_line(label: &str, paper: &str, measured: String) -> String {
    format!("  {label:<52} paper: {paper:<16} measured: {measured}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_build_end_to_end() {
        let art = MnoArtifacts::build(MnoScenarioConfig {
            devices: 600,
            days: 6,
            seed: 3,
            nbiot_meter_fraction: 0.0,
            sunset_2g_uk: false,
            gsma_transparency: false,
            record_loss_fraction: 0.0,
        });
        assert!(!art.summaries.is_empty());
        assert_eq!(art.classification.classes.len(), art.summaries.len());
        let truth = art.observed_truth();
        assert_eq!(truth.len(), art.summaries.len());
    }

    #[test]
    fn compare_line_contains_both_sides() {
        let line = compare_line("m2m share", "26%", "27.3%".to_owned());
        assert!(line.contains("26%") && line.contains("27.3%"));
    }
}
