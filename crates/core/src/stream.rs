//! Front end of the visited-MNO analysis pipeline: catalog in, every
//! table out.
//!
//! 1. **Catalog pass** ([`stream_catalog`]) — a chunked [`CatalogStream`]
//!    parses the file (in parallel inside the stream), and every row
//!    then feeds two in-order folds: device-summary accumulation
//!    ([`SummaryFold`]) and per-day label shares ([`LabelSharesFold`]).
//!    Peak memory is O(devices + chunk window) — catalog rows are
//!    dropped as soon as each chunk is folded, and no `DevicesCatalog`
//!    ever exists.
//!    [`materialize_catalog`] runs the same two folds over a resident
//!    catalog's rows.
//! 2. **Tables** ([`analyze`]) — classification, then each per-summary
//!    analysis table as a plain call over the O(devices) summaries.
//!
//! # Equivalence
//!
//! Both folds take the rows one by one in row order, so no number
//! depends on where a reader cut its chunks: every result is
//! byte-identical to the materialized pipeline at any thread count. The
//! `stream_equivalence` test suite serializes both sides and compares
//! bytes.

use crate::analysis::activity::{active_days, ActiveDays, StatusGroup};
use crate::analysis::diurnal::{profiles, DiurnalProfile};
use crate::analysis::population::{home_countries, HomeCountries, LabelShares, LabelSharesFold};
use crate::analysis::rat_usage::{rat_usage, Plane, RatUsage};
use crate::analysis::revenue::{inbound_economics, ClassEconomics, RateCard};
use crate::analysis::smip::{group_stats, identify, SmipGroupStats, SmipPopulation};
use crate::analysis::traffic::{traffic_dist, TrafficDist, TrafficMetric};
use crate::analysis::verticals::{compare, VerticalProfile};
use crate::classify::{Classification, Classifier, DeviceClass};
use crate::summary::{DeviceSummary, SummaryFold};
use std::io::BufRead;
use wtr_model::intern::ApnTable;
use wtr_model::tacdb::TacDatabase;
use wtr_probes::catalog::{CatalogEntry, DevicesCatalog};
use wtr_probes::io::{CatalogStream, IoError};
use wtr_sim::stream::RecordStream;

/// The canonical classes the reporting pipeline profiles (Fig. 9,
/// diurnal shapes): the populations the paper actually contrasts.
pub const CLASSES: [DeviceClass; 3] = [DeviceClass::M2m, DeviceClass::Smart, DeviceClass::Feat];

/// The Fig. 10 traffic populations.
pub const TRAFFIC_PAIRS: [(DeviceClass, StatusGroup); 3] = [
    (DeviceClass::M2m, StatusGroup::InboundRoaming),
    (DeviceClass::Smart, StatusGroup::Native),
    (DeviceClass::Smart, StatusGroup::InboundRoaming),
];

/// The Fig. 7/Fig. 8 inbound-contrast populations.
pub const ACTIVE_PAIRS: [(DeviceClass, StatusGroup); 2] = [
    (DeviceClass::M2m, StatusGroup::InboundRoaming),
    (DeviceClass::Smart, StatusGroup::InboundRoaming),
];

/// The three Fig. 9 planes, in reporting order.
pub const PLANES: [Plane; 3] = [Plane::Any, Plane::Data, Plane::Voice];

/// The three Fig. 10 metrics, in reporting order.
pub const METRICS: [TrafficMetric; 3] = [
    TrafficMetric::SignalingPerDay,
    TrafficMetric::CallsPerDay,
    TrafficMetric::BytesPerDay,
];

/// Everything the analysis pipeline needs from a catalog, whichever
/// route produced it ([`stream_catalog`] from a file,
/// [`materialize_catalog`] from memory).
///
/// APN symbols are always in canonical form (sorted table, symbol =
/// sorted rank), so nothing downstream can see how a reader happened to
/// number them: a fold that takes a device's first matching APN picks
/// the same one from a JSONL file, a `WTRCAT` file or a resident
/// catalog.
#[derive(Debug, Clone)]
pub struct StreamedCatalog {
    /// Per-device summaries (canonical user order).
    pub summaries: Vec<DeviceSummary>,
    /// The canonical APN table the summaries' symbols resolve through.
    pub apns: ApnTable,
    /// Window length in days.
    pub window_days: u32,
    /// Catalog rows consumed.
    pub rows: u64,
    /// Per-day roaming-label shares (folded during the same pass).
    pub label_shares: LabelShares,
}

/// The two row folds of the catalog pass, fed the same rows in row
/// order.
struct RowFolds {
    summaries: SummaryFold,
    labels: LabelSharesFold,
    window_days: u32,
    rows: u64,
}

impl RowFolds {
    fn new(window_days: u32) -> Self {
        RowFolds {
            summaries: SummaryFold::new(),
            labels: LabelSharesFold::new(window_days),
            window_days,
            rows: 0,
        }
    }

    fn push(&mut self, row: &CatalogEntry) {
        self.summaries.push(row);
        self.labels.push(row);
        self.rows += 1;
    }

    /// Finishes both folds; `apns` is the table the rows' symbols
    /// resolve through.
    fn finish(self, apns: &ApnTable) -> StreamedCatalog {
        let (summaries, apns) = canonical_symbols(self.summaries.finish(), apns);
        StreamedCatalog {
            summaries,
            apns,
            window_days: self.window_days,
            rows: self.rows,
            label_shares: self.labels.finish(),
        }
    }
}

/// Reads a catalog file (JSONL or `WTRCAT`, auto-sniffed) in bounded
/// memory: one chunked pass feeds summary accumulation and the label
/// shares simultaneously; rows are dropped chunk by chunk.
///
/// Byte-identical to [`materialize_catalog`] over the catalog
/// `read_catalog_auto` returns for the same file.
pub fn stream_catalog<R: BufRead>(input: R) -> Result<StreamedCatalog, IoError> {
    let mut stream = CatalogStream::new(input)?;
    let mut folds = RowFolds::new(stream.window_days());
    while let Some(chunk) = stream.next_chunk()? {
        chunk.iter().for_each(|row| folds.push(row));
    }
    Ok(folds.finish(&stream.finish()?))
}

/// [`StreamedCatalog`] built from an in-memory catalog — the resident
/// entry point to the same downstream [`analyze`] call (`wtr_serve`
/// reports, and the batch reference of the equivalence tests).
pub fn materialize_catalog(catalog: &DevicesCatalog) -> StreamedCatalog {
    let mut folds = RowFolds::new(catalog.window_days());
    catalog.iter().for_each(|row| folds.push(row));
    folds.finish(catalog.apn_table())
}

/// Renumbers the summaries' APN symbols into canonical form: returns
/// them with the sorted table their remapped symbols resolve through.
fn canonical_symbols(
    mut summaries: Vec<DeviceSummary>,
    apns: &ApnTable,
) -> (Vec<DeviceSummary>, ApnTable) {
    let (table, remap) = apns.canonicalized();
    for summary in &mut summaries {
        summary.apns = summary.apns.iter().map(|sym| remap[sym.index()]).collect();
    }
    (summaries, table)
}

/// Every per-summary analysis table the reports render, computed by
/// [`analyze`]. The Fig. 6 class × label table and the Fig. 8 gyration
/// ECDFs are not rendered; `repro` computes them with
/// [`class_label_breakdown`](crate::analysis::population::class_label_breakdown)
/// and [`gyration`](crate::analysis::activity::gyration).
#[derive(Debug, Clone)]
pub struct AnalysisSuite {
    /// The §4.3 classification.
    pub classification: Classification,
    /// Fig. 5 home-country structure of inbound roamers.
    pub home: HomeCountries,
    /// Fig. 9 RAT usage, one `Vec<RatUsage>` per plane in [`PLANES`]
    /// order (each over [`CLASSES`]).
    pub rat: Vec<Vec<RatUsage>>,
    /// Fig. 10 traffic distributions, one `Vec<TrafficDist>` per metric
    /// in [`METRICS`] order (each over [`TRAFFIC_PAIRS`]).
    pub traffic: Vec<Vec<TrafficDist>>,
    /// Fig. 7 active-days ECDFs over [`ACTIVE_PAIRS`].
    pub active: Vec<ActiveDays>,
    /// §4.4 SMIP populations.
    pub smip: SmipPopulation,
    /// Fig. 11 statistics for the native meters.
    pub smip_native: SmipGroupStats,
    /// Fig. 11 statistics for the roaming meters.
    pub smip_roaming: SmipGroupStats,
    /// Fig. 12 (connected-cars, smart-meters) profiles.
    pub verticals: (VerticalProfile, VerticalProfile),
    /// Diurnal profiles over [`CLASSES`].
    pub diurnal: Vec<DiurnalProfile>,
    /// Inbound load-vs-revenue economics.
    pub revenue: Vec<ClassEconomics>,
}

/// Runs classification, then every analysis table over the summaries,
/// one plain call per table. Thread-count invariant: only the
/// classifier's per-device step runs on worker threads, and its output
/// lands in an ordered map.
pub fn analyze(
    summaries: &[DeviceSummary],
    apns: &ApnTable,
    window_days: u32,
    tacdb: &TacDatabase,
) -> AnalysisSuite {
    let classification = Classifier::new(tacdb).classify(summaries, apns);
    let smip = identify(summaries, tacdb, apns);
    AnalysisSuite {
        home: home_countries(summaries, &classification),
        rat: PLANES
            .iter()
            .map(|p| rat_usage(summaries, &classification, &CLASSES, *p))
            .collect(),
        traffic: METRICS
            .iter()
            .map(|m| traffic_dist(summaries, &classification, &TRAFFIC_PAIRS, *m))
            .collect(),
        active: active_days(summaries, &classification, &ACTIVE_PAIRS),
        smip_native: group_stats(summaries, &smip.native, window_days),
        smip_roaming: group_stats(summaries, &smip.roaming, window_days),
        verticals: compare(summaries, apns),
        diurnal: profiles(summaries, &classification, &CLASSES),
        revenue: inbound_economics(summaries, &classification, RateCard::default()),
        smip,
        classification,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtr_model::ids::{Plmn, Tac};
    use wtr_model::roaming::RoamingLabel;
    use wtr_model::time::Day;
    use wtr_probes::io::{write_catalog, write_catalog_bin};

    fn catalog() -> DevicesCatalog {
        let mut cat = DevicesCatalog::new(5);
        let apn = cat.intern_apn("smhp.centricaplc.com.mnc004.mcc204.gprs");
        let tac = Tac::new(35_000_000).unwrap();
        for user in 0..40u64 {
            for day in 0..(1 + user % 5) as u32 {
                let (plmn, label) = if user % 3 == 0 {
                    (Plmn::of(204, 4), RoamingLabel::IH)
                } else {
                    (Plmn::of(234, 30), RoamingLabel::HH)
                };
                let r = cat.row_mut(user, Day(day), plmn, tac, label);
                r.events += 2 + user % 7;
                if user % 3 == 0 {
                    r.apns.insert(apn);
                }
            }
        }
        cat
    }

    #[test]
    fn stream_catalog_matches_materialized() {
        let cat = catalog();
        let materialized = materialize_catalog(&cat);
        let mut jsonl = Vec::new();
        write_catalog(&mut jsonl, &cat).unwrap();
        let mut wtrcat = Vec::new();
        write_catalog_bin(&mut wtrcat, &cat).unwrap();
        for file in [jsonl, wtrcat] {
            let streamed = stream_catalog(file.as_slice()).unwrap();
            assert_eq!(streamed.rows, materialized.rows);
            assert_eq!(streamed.window_days, materialized.window_days);
            assert_eq!(streamed.apns, materialized.apns);
            assert_eq!(
                serde_json::to_string(&streamed.summaries).unwrap(),
                serde_json::to_string(&materialized.summaries).unwrap()
            );
            assert_eq!(
                serde_json::to_string(&streamed.label_shares).unwrap(),
                serde_json::to_string(&materialized.label_shares).unwrap()
            );
        }
    }
}
