//! Terminal rendering: aligned tables, share bars and ASCII CDFs —
//! plus the named analysis-table renderers shared by `wtr analyze`
//! and the `wtr_serve` report endpoints.
//!
//! The reproduction harness prints every figure as text; these helpers
//! keep the output readable and consistent across experiments. The
//! [`render_analysis`]/[`render_classify`] entry points are the single
//! source of report bytes: the CLI prints their output verbatim and the
//! server caches it verbatim, so `GET /report/{tenant}/{table}` and
//! `wtr analyze {table}` are diffable byte for byte.

use crate::classify::Classification;
use crate::metrics::{CrossTab, Ecdf};
use crate::stream::{AnalysisSuite, StreamedCatalog, METRICS, PLANES};
use std::fmt::Write as _;

/// The 11 named analysis tables, in the order `wtr analyze` prints them
/// when no explicit selection is given.
pub const ANALYSES: [&str; 11] = [
    "labels",
    "classes",
    "home",
    "active",
    "elements",
    "rat",
    "traffic",
    "smip",
    "verticals",
    "diurnal",
    "revenue",
];

/// Renders one named analysis table over a streamed catalog and its
/// analysis suite. Returns the exact text `wtr analyze` prints for that
/// table (without the blank separator line the CLI appends between
/// tables). Unknown names are an error naming the offender.
pub fn render_analysis(
    name: &str,
    data: &StreamedCatalog,
    suite: &AnalysisSuite,
) -> Result<String, String> {
    let mut out = String::new();
    match name {
        "labels" => {
            let ls = &data.label_shares;
            let _ = writeln!(out, "roaming-label shares (overall):");
            for (label, share) in &ls.overall {
                let _ = writeln!(
                    out,
                    "  {label}  {:>5.1}%  {}",
                    share * 100.0,
                    bar(*share, 30)
                );
            }
        }
        "classes" => {
            let _ = writeln!(out, "device classes:");
            for (class, share) in suite.classification.shares() {
                let _ = writeln!(out, "  {:<10} {:>6.1}%", class.label(), share * 100.0);
            }
        }
        "home" => {
            let hc = &suite.home;
            out.push_str(&shares_table(
                "inbound roamers by home country (top 10)",
                &hc.overall,
                10,
            ));
        }
        "rat" => {
            for (plane, usage) in PLANES.iter().zip(&suite.rat) {
                let _ = writeln!(out, "RAT usage ({}):", plane.label());
                for u in usage {
                    let mut cats: Vec<(&String, &f64)> = u.shares.iter().collect();
                    cats.sort_by(|a, b| b.1.total_cmp(a.1));
                    let top: Vec<String> = cats
                        .iter()
                        .take(3)
                        .map(|(k, v)| format!("{k} {:.0}%", **v * 100.0))
                        .collect();
                    let _ = writeln!(out, "  {:<6} {}", u.class.label(), top.join(", "));
                }
            }
        }
        "traffic" => {
            for (metric, dists) in METRICS.iter().zip(&suite.traffic) {
                let _ = writeln!(out, "{} (medians):", metric.label());
                for d in dists {
                    let _ = writeln!(
                        out,
                        "  {:<6} {:<16} {:>14.1}",
                        d.class.label(),
                        d.status.label(),
                        d.dist.median().unwrap_or(0.0)
                    );
                }
            }
        }
        "smip" => {
            let native = &suite.smip_native;
            let roaming = &suite.smip_roaming;
            let _ = writeln!(
                out,
                "SMIP: {} native, {} roaming meters; signaling/day {:.1} vs {:.1}; failed {:.0}% vs {:.0}%",
                native.devices,
                roaming.devices,
                native.signaling_per_day.mean().unwrap_or(0.0),
                roaming.signaling_per_day.mean().unwrap_or(0.0),
                native.failed_device_fraction * 100.0,
                roaming.failed_device_fraction * 100.0
            );
        }
        "verticals" => {
            let (cars, meters) = &suite.verticals;
            let _ = writeln!(
                out,
                "verticals: {} cars (gyration {:.1} km) vs {} meters (gyration {:.3} km)",
                cars.devices,
                cars.gyration_km.median().unwrap_or(0.0),
                meters.devices,
                meters.gyration_km.median().unwrap_or(0.0)
            );
        }
        "diurnal" => {
            let _ = writeln!(out, "diurnal shapes:");
            for p in &suite.diurnal {
                let _ = writeln!(
                    out,
                    "  {:<6} night {:>5.1}%  peak/trough {:>5.1}x",
                    p.class.label(),
                    p.night_share * 100.0,
                    p.peak_to_trough
                );
            }
        }
        "revenue" => {
            let _ = writeln!(out, "inbound economics:");
            for e in &suite.revenue {
                let _ = writeln!(
                    out,
                    "  {:<10} load {:>5.1}%  revenue {:>5.1}%  median €{:.4}/device",
                    e.class.label(),
                    e.load_share * 100.0,
                    e.revenue_share * 100.0,
                    e.revenue_median_per_device
                );
            }
        }
        "active" => {
            let res = &suite.active;
            let _ = writeln!(
                out,
                "active days (inbound medians): m2m {:.0}, smart {:.0}",
                res[0].days.median().unwrap_or(0.0),
                res[1].days.median().unwrap_or(0.0)
            );
        }
        "elements" => {
            // Element load needs the raw probe, which a catalog file
            // does not carry; approximate from radio-flags instead:
            // LTE-family active devices load the MME, 2G/3G the SGSN.
            let mut mme = 0u64;
            let mut sgsn = 0u64;
            for s in &data.summaries {
                let set = s.radio_flags.any;
                if set.contains(wtr_model::rat::Rat::G4) || set.contains(wtr_model::rat::Rat::NbIot)
                {
                    mme += s.events;
                } else {
                    sgsn += s.events;
                }
            }
            let _ = writeln!(
                out,
                "element attribution (approx. from radio-flags): MME-side {mme} events, SGSN-side {sgsn} events"
            );
        }
        other => return Err(format!("unknown analysis {other:?}")),
    }
    Ok(out)
}

/// Renders the classification summary exactly as `wtr classify` prints
/// it (pipeline banner, device count, per-class shares, APN statistics).
pub fn render_classify(pipeline: &str, devices: usize, classification: &Classification) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "pipeline: {pipeline}");
    let _ = writeln!(out, "devices: {devices}");
    for (class, share) in classification.shares() {
        let _ = writeln!(out, "  {:<10} {:>6.1}%", class.label(), share * 100.0);
    }
    let _ = writeln!(
        out,
        "APNs: {} distinct, {} validated M2M; {} devices without APN; \
         {} NB-IoT-detected; {} range-detected",
        classification.total_apns,
        classification.validated_apns.len(),
        classification.devices_without_apn,
        classification.nbiot_detected,
        classification.range_detected
    );
    out
}

/// Renders an aligned table with a header row.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{:<width$}", cell, width = widths[i]);
        }
        out.push('\n');
    };
    render_row(
        &mut out,
        &headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        render_row(&mut out, row);
    }
    out
}

/// Renders a horizontal share bar (`####----`) of `width` characters.
pub fn bar(fraction: f64, width: usize) -> String {
    let f = fraction.clamp(0.0, 1.0);
    let filled = (f * width as f64).round() as usize;
    format!(
        "{}{}",
        "#".repeat(filled),
        "·".repeat(width.saturating_sub(filled))
    )
}

/// Renders labeled shares as bar rows: `label  count  share  bar`.
pub fn shares_table(title: &str, rows: &[(String, f64, f64)], top: usize) -> String {
    let mut out = format!("{title}\n");
    let body: Vec<Vec<String>> = rows
        .iter()
        .take(top)
        .map(|(label, count, share)| {
            vec![
                label.clone(),
                format!("{count:.0}"),
                format!("{:5.1}%", share * 100.0),
                bar(*share, 30),
            ]
        })
        .collect();
    out.push_str(&table(&["label", "count", "share", ""], &body));
    out
}

/// Renders an ECDF as rows of `x  F(x)` with a bar, plus summary stats.
pub fn cdf(title: &str, ecdf: &Ecdf, points: usize) -> String {
    let mut out = format!("{title}\n");
    if ecdf.is_empty() {
        out.push_str("  (no samples)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "  n={} mean={:.2} p50={:.2} p90={:.2} p99={:.2} max={:.2}",
        ecdf.len(),
        ecdf.mean().unwrap_or(0.0),
        ecdf.quantile(0.5).unwrap_or(0.0),
        ecdf.quantile(0.9).unwrap_or(0.0),
        ecdf.quantile(0.99).unwrap_or(0.0),
        ecdf.max().unwrap_or(0.0),
    );
    for (x, f) in ecdf.curve(points) {
        let _ = writeln!(out, "  {:>14.3}  {:>6.1}%  {}", x, f * 100.0, bar(f, 30));
    }
    out
}

/// Renders a row-normalized cross-tab heatmap as text (values in %).
pub fn heatmap_row_normalized(title: &str, tab: &CrossTab) -> String {
    let rows = tab.rows();
    let cols = tab.cols();
    let mut body = Vec::new();
    for r in &rows {
        let mut cells = vec![r.clone()];
        for c in &cols {
            cells.push(format!("{:5.1}", tab.row_share(r, c) * 100.0));
        }
        body.push(cells);
    }
    let mut headers: Vec<&str> = vec![""];
    headers.extend(cols.iter().map(String::as_str));
    format!("{title} (row %)\n{}", table(&headers, &body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let out = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer-name"));
        // Columns align: "value" and "22" start at the same offset.
        let header_off = lines[0].find("value").unwrap();
        let cell_off = lines[3].find("22").unwrap();
        assert_eq!(header_off, cell_off);
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(0.0, 10), "··········");
        assert_eq!(bar(1.0, 10), "##########");
        assert_eq!(bar(2.0, 10), "##########");
        assert_eq!(bar(-1.0, 10), "··········");
        assert_eq!(bar(0.5, 10), "#####·····");
    }

    #[test]
    fn cdf_renders_stats_and_handles_empty() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        let out = cdf("records", &e, 8);
        assert!(out.contains("n=100"));
        assert!(out.contains("p50=50"));
        let empty = cdf("nothing", &Ecdf::new(vec![]), 8);
        assert!(empty.contains("no samples"));
    }

    #[test]
    fn shares_table_truncates_to_top() {
        let rows = vec![
            ("NL".to_owned(), 60.0, 0.6),
            ("SE".to_owned(), 30.0, 0.3),
            ("ES".to_owned(), 10.0, 0.1),
        ];
        let out = shares_table("home countries", &rows, 2);
        assert!(out.contains("NL"));
        assert!(out.contains("SE"));
        assert!(!out.contains("ES"));
    }

    #[test]
    fn heatmap_contains_percentages() {
        let mut t = CrossTab::new();
        t.add("m2m", "I:H", 3.0);
        t.add("m2m", "H:H", 1.0);
        let out = heatmap_row_normalized("fig6", &t);
        assert!(out.contains("75.0"));
        assert!(out.contains("25.0"));
    }
}
