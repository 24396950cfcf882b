//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--devices N] [--days D] [--seed S] [--m2m-devices N] [exp ...]
//! ```
//!
//! With no experiment arguments, all of E1–E24 run. Experiment ids map to
//! paper artifacts per DESIGN.md §4 (e.g. `e2` = Fig. 2, `e11` = Fig. 11);
//! E20–E24 are the extension experiments motivated by the paper's §1/§8
//! discussion (NB-IoT detection, roaming economics, diurnal shapes, 2G
//! sunset, IMSI-range transparency). Output is paper-value vs
//! measured-value, plus the underlying tables/CDFs rendered as text.

use std::collections::BTreeSet;
use wtr_bench::{compare_line, MnoArtifacts};
use wtr_core::analysis::activity::StatusGroup;
use wtr_core::analysis::rat_usage::Plane;
use wtr_core::analysis::traffic::TrafficMetric;
use wtr_core::analysis::{
    activity, diurnal, platform, population, rat_usage, revenue, smip, traffic, verticals,
};
use wtr_core::baseline::{apn_only_baseline, vendor_baseline};
use wtr_core::classify::DeviceClass;
use wtr_core::metrics::Ecdf;
use wtr_core::report;
use wtr_core::validate::validate;
use wtr_model::operators::well_known;
use wtr_model::roaming::RoamingLabel;
use wtr_scenarios::{M2mScenario, M2mScenarioConfig, MnoScenarioConfig};

struct Args {
    devices: usize,
    m2m_devices: usize,
    days: u32,
    m2m_days: u32,
    seed: u64,
    json: bool,
    experiments: BTreeSet<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        devices: 20_000,
        m2m_devices: 12_000,
        days: 22,
        m2m_days: 11,
        seed: 42,
        json: false,
        experiments: BTreeSet::new(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--devices" => {
                args.devices = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--devices N")
            }
            "--m2m-devices" => {
                args.m2m_devices = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--m2m-devices N")
            }
            "--days" => args.days = iter.next().and_then(|v| v.parse().ok()).expect("--days D"),
            "--m2m-days" => {
                args.m2m_days = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--m2m-days D")
            }
            "--seed" => args.seed = iter.next().and_then(|v| v.parse().ok()).expect("--seed S"),
            "--json" => args.json = true,
            "--help" | "-h" => {
                eprintln!("usage: repro [--devices N] [--m2m-devices N] [--days D] [--m2m-days D] [--seed S] [e1..e24 ...]");
                std::process::exit(0);
            }
            exp => {
                args.experiments.insert(exp.to_ascii_lowercase());
            }
        }
    }
    args
}

fn wanted(args: &Args, id: &str) -> bool {
    args.experiments.is_empty() || args.experiments.contains(id)
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Machine-readable summary: the headline metric of every experiment in
/// one JSON object, for CI dashboards and regression tracking.
fn emit_json(args: &Args) {
    use serde_json::json;
    let m2m = M2mScenario::new(M2mScenarioConfig {
        devices: args.m2m_devices,
        days: args.m2m_days,
        seed: args.seed,
        g4_hole_fraction: 0.05,
    })
    .run();
    let ov = platform::overview(&m2m.transactions);
    let dyn_es = platform::dynamics(&m2m.transactions, Some(well_known::ES_HMNO));
    let share = |iso: &str| {
        ov.hmno_device_shares
            .iter()
            .find(|(c, _, _)| c == iso)
            .map(|(_, _, s)| *s)
            .unwrap_or(0.0)
    };

    let art = MnoArtifacts::build(MnoScenarioConfig {
        devices: args.devices,
        days: args.days,
        seed: args.seed,
        nbiot_meter_fraction: 0.0,
        sunset_2g_uk: false,
        gsma_transparency: false,
        record_loss_fraction: 0.0,
    });
    let shares = art.classification.shares();
    let labels = population::label_shares(&art.output.catalog);
    let breakdown = population::class_label_breakdown(&art.summaries, &art.classification);
    let hc = population::home_countries(&art.summaries, &art.classification);
    let days = activity::active_days(
        &art.summaries,
        &art.classification,
        &[
            (DeviceClass::M2m, StatusGroup::InboundRoaming),
            (DeviceClass::Smart, StatusGroup::InboundRoaming),
        ],
    );
    let gyr = activity::gyration(
        &art.summaries,
        &art.classification,
        &[(DeviceClass::M2m, StatusGroup::InboundRoaming)],
    );
    let any = rat_usage::rat_usage(
        &art.summaries,
        &art.classification,
        &[DeviceClass::M2m],
        Plane::Any,
    );
    let pop = smip::identify(
        &art.summaries,
        &art.output.tacdb,
        art.output.catalog.apn_table(),
    );
    let native = smip::group_stats(&art.summaries, &pop.native, art.output.days);
    let roaming = smip::group_stats(&art.summaries, &pop.roaming, art.output.days);
    let truth = art.observed_truth();
    let full = validate(&art.classification, &truth);
    let (cars, meters) = verticals::compare(&art.summaries, art.output.catalog.apn_table());

    let doc = json!({
        "scale": {
            "mno_devices": args.devices,
            "mno_days": args.days,
            "platform_devices": args.m2m_devices,
            "platform_days": args.m2m_days,
            "seed": args.seed,
        },
        "e1": {
            "es_device_share": share("ES"),
            "mx_device_share": share("MX"),
            "ar_device_share": share("AR"),
            "de_device_share": share("DE"),
            "es_visited_countries": ov.countries_per_hmno.get("ES").copied().unwrap_or(0),
            "es_visited_vmnos": ov.vmnos_per_hmno.get("ES").copied().unwrap_or(0),
            "mx_home_fraction": ov.home_fraction_per_hmno.get("MX").copied().unwrap_or(0.0),
        },
        "e3": {
            "mean_records": dyn_es.records_all.mean(),
            "under_2000": dyn_es.records_all.fraction_at_or_below(2000.0),
        },
        "e4": {
            "one_vmno": dyn_es.vmnos_roaming.fraction_at_or_below(1.0),
            "only_failed_fraction": dyn_es.only_failed_fraction,
        },
        "e6": labels.overall.iter().map(|(l, v)| (l.to_string(), *v)).collect::<std::collections::BTreeMap<_, _>>(),
        "e7": shares.iter().map(|(c, v)| (c.label().to_string(), *v)).collect::<std::collections::BTreeMap<_, _>>(),
        "e8": { "top3_share": hc.overall.iter().take(3).map(|(_, _, s)| s).sum::<f64>() },
        "e10": {
            "ih_m2m": breakdown.share_of_label(DeviceClass::M2m, RoamingLabel::IH),
            "m2m_ih": breakdown.share_of_class(DeviceClass::M2m, RoamingLabel::IH),
        },
        "e11": {
            "m2m_inbound_median_days": days[0].days.median(),
            "smart_inbound_median_days": days[1].days.median(),
        },
        "e12": { "m2m_under_1km": gyr[0].gyration_km.fraction_at_or_below(1.0) },
        "e13": { "m2m_2g_only": any[0].share("2G only") },
        "e15": {
            "native_full_period": native.full_period_fraction,
            "roaming_le_5_days": roaming.active_days.fraction_at_or_below(5.0),
        },
        "e16": {
            "signaling_ratio": roaming.signaling_per_day.mean().unwrap_or(0.0)
                / native.signaling_per_day.mean().unwrap_or(1.0).max(1e-9),
            "native_failed": native.failed_device_fraction,
            "roaming_failed": roaming.failed_device_fraction,
        },
        "e17": {
            "roaming_home_operators": pop.roaming_home_plmns.len(),
            "roaming_vendors": pop.roaming_vendors,
        },
        "e18": {
            "car_gyration_median_km": cars.gyration_km.median(),
            "meter_gyration_median_km": meters.gyration_km.median(),
        },
        "e19": {
            "m2m_precision": full.m2m_precision,
            "m2m_recall": full.m2m_recall,
        },
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("serializable")
    );
}

fn main() {
    let args = parse_args();
    if args.json {
        emit_json(&args);
        return;
    }
    let m2m_ids = ["e1", "e2", "e3", "e4", "e5"];
    let need_m2m = m2m_ids.iter().any(|id| wanted(&args, id));
    let need_mno = (6..=22).any(|i| wanted(&args, &format!("e{i}")) && i != 20);

    println!("=== Where Things Roam — reproduction harness ===");
    println!(
        "scale: MNO {} devices / {} days; platform {} devices / {} days; seed {}",
        args.devices, args.days, args.m2m_devices, args.m2m_days, args.seed
    );
    println!();

    if need_m2m {
        let out = M2mScenario::new(M2mScenarioConfig {
            devices: args.m2m_devices,
            days: args.m2m_days,
            seed: args.seed,
            g4_hole_fraction: 0.05,
        })
        .run();
        println!(
            "[M2M platform dataset] {} transactions from {} devices over {} days",
            out.transactions.len(),
            out.devices,
            out.days
        );
        let ov = platform::overview(&out.transactions);

        if wanted(&args, "e1") {
            println!("\n--- E1 (§3.2): HMNO shares & footprint ---");
            for (iso, paper_dev, paper_sig) in [
                ("ES", "52.3%", "81.8%"),
                ("MX", "42.2%", "-"),
                ("AR", "4.7%", "-"),
                ("DE", "~0.8%", "-"),
            ] {
                let dev = ov
                    .hmno_device_shares
                    .iter()
                    .find(|(c, _, _)| c == iso)
                    .map(|(_, _, s)| pct(*s))
                    .unwrap_or_else(|| "absent".into());
                let sig = ov
                    .hmno_signaling_shares
                    .iter()
                    .find(|(c, _, _)| c == iso)
                    .map(|(_, _, s)| pct(*s))
                    .unwrap_or_else(|| "absent".into());
                println!(
                    "{}",
                    compare_line(&format!("{iso} device share"), paper_dev, dev)
                );
                if paper_sig != "-" {
                    println!(
                        "{}",
                        compare_line(&format!("{iso} signaling share"), paper_sig, sig)
                    );
                }
            }
            println!(
                "{}",
                compare_line(
                    "ES visited countries",
                    "77",
                    ov.countries_per_hmno
                        .get("ES")
                        .copied()
                        .unwrap_or(0)
                        .to_string()
                )
            );
            println!(
                "{}",
                compare_line(
                    "ES visited VMNOs",
                    "127",
                    ov.vmnos_per_hmno
                        .get("ES")
                        .copied()
                        .unwrap_or(0)
                        .to_string()
                )
            );
            println!(
                "{}",
                compare_line(
                    "MX devices never roaming",
                    "~90%",
                    pct(ov.home_fraction_per_hmno.get("MX").copied().unwrap_or(0.0))
                )
            );
        }

        if wanted(&args, "e2") {
            println!("\n--- E2 (Fig. 2): devices per HMNO × visited country ---");
            // Print the top visited countries per HMNO row.
            for hmno in ["ES", "MX", "AR", "DE"] {
                let mut cols: Vec<(String, f64)> = ov
                    .visited_matrix
                    .cols()
                    .into_iter()
                    .map(|c| (c.clone(), ov.visited_matrix.row_share(hmno, &c)))
                    .filter(|(_, v)| *v > 0.0)
                    .collect();
                cols.sort_by(|a, b| b.1.total_cmp(&a.1));
                let top: Vec<String> = cols
                    .iter()
                    .take(6)
                    .map(|(c, v)| format!("{c} {:.0}%", v * 100.0))
                    .collect();
                println!("  {hmno:<3} → {}", top.join(", "));
            }
        }

        let dyn_all = platform::dynamics(&out.transactions, None);
        let dyn_es = platform::dynamics(&out.transactions, Some(well_known::ES_HMNO));

        if wanted(&args, "e3") {
            println!("\n--- E3 (Fig. 3-left): signaling records per device ---");
            println!(
                "{}",
                compare_line(
                    "mean records/device",
                    "267",
                    format!("{:.0}", dyn_all.records_all.mean().unwrap_or(0.0))
                )
            );
            println!(
                "{}",
                compare_line(
                    "fraction of devices under 2000 records",
                    "97%",
                    pct(dyn_all.records_all.fraction_at_or_below(2_000.0))
                )
            );
            let roam_med = dyn_es.records_roaming.median().unwrap_or(0.0);
            let native_med = dyn_es.records_native.median().unwrap_or(0.0).max(1.0);
            println!(
                "{}",
                compare_line(
                    "roaming/native median ratio (ES)",
                    "~10x",
                    format!("{:.1}x", roam_med / native_med)
                )
            );
            print!(
                "{}",
                report::cdf("records per device (all)", &dyn_all.records_all, 10)
            );
        }

        if wanted(&args, "e4") {
            println!("\n--- E4 (Fig. 3-center): VMNOs per roaming device ---");
            let e = &dyn_es.vmnos_roaming;
            println!(
                "{}",
                compare_line(
                    "devices with 1 VMNO",
                    "65%",
                    pct(e.fraction_at_or_below(1.0))
                )
            );
            println!(
                "{}",
                compare_line(
                    "devices with 2 VMNOs",
                    ">25%",
                    pct(e.fraction_at_or_below(2.0) - e.fraction_at_or_below(1.0))
                )
            );
            println!(
                "{}",
                compare_line(
                    "devices with 3+ VMNOs",
                    "~5%",
                    pct(1.0 - e.fraction_at_or_below(2.0))
                )
            );
            println!(
                "{}",
                compare_line(
                    "max VMNOs for an only-failed device",
                    "19",
                    dyn_all.max_vmnos_failed_device.to_string()
                )
            );
            println!(
                "{}",
                compare_line(
                    "ES devices with only failed 4G procedures",
                    "40%",
                    pct(dyn_es.only_failed_fraction)
                )
            );
        }

        if wanted(&args, "e5") {
            println!("\n--- E5 (Fig. 3-right): inter-VMNO switches (multi-VMNO devices) ---");
            let e = &dyn_es.switches_multi_vmno;
            println!(
                "{}",
                compare_line(
                    "devices with ≤2 switches",
                    "~50%",
                    pct(e.fraction_at_or_below(2.0))
                )
            );
            let daily = args.m2m_days as f64;
            println!(
                "{}",
                compare_line(
                    "devices switching at least daily",
                    "~20%",
                    pct(1.0 - e.fraction_at_or_below(daily - 1.0))
                )
            );
            println!(
                "{}",
                compare_line(
                    "extreme switchers (>100 over window)",
                    "~3%",
                    pct(1.0 - e.fraction_at_or_below(100.0))
                )
            );
            print!("{}", report::cdf("switches per multi-VMNO device", e, 10));
        }
        println!();
    }

    if need_mno {
        let art = MnoArtifacts::build(MnoScenarioConfig {
            devices: args.devices,
            days: args.days,
            seed: args.seed,
            nbiot_meter_fraction: 0.0,
            sunset_2g_uk: false,
            gsma_transparency: false,
            record_loss_fraction: 0.0,
        });
        println!(
            "[MNO dataset] {} devices, {} device-days; records: {} radio / {} CDR / {} xDR",
            art.output.catalog.device_count(),
            art.output.catalog.len(),
            art.output.record_counts.0,
            art.output.record_counts.1,
            art.output.record_counts.2
        );

        if wanted(&args, "e6") {
            println!("\n--- E6 (§4.2): daily roaming-label shares ---");
            let ls = population::label_shares(&art.output.catalog);
            for (label, paper) in [
                (RoamingLabel::HH, "~48%"),
                (RoamingLabel::VH, "~33%"),
                (RoamingLabel::IH, "~18%"),
            ] {
                let measured = ls.overall.get(&label).copied().unwrap_or(0.0);
                println!(
                    "{}",
                    compare_line(&format!("{label} share"), paper, pct(measured))
                );
            }
            // Stability: report min/max of I:H across days.
            let ih: Vec<f64> = ls
                .per_day
                .iter()
                .filter(|d| !d.is_empty())
                .map(|d| d.get(&RoamingLabel::IH).copied().unwrap_or(0.0))
                .collect();
            let e = Ecdf::new(ih);
            println!(
                "  I:H daily share range: {:.1}%..{:.1}% (paper: stable across 22 days)",
                e.min().unwrap_or(0.0) * 100.0,
                e.max().unwrap_or(0.0) * 100.0
            );
        }

        if wanted(&args, "e7") {
            println!("\n--- E7 (§4.3): classification output ---");
            let shares = art.classification.shares();
            for (class, paper) in [
                (DeviceClass::Smart, "62%"),
                (DeviceClass::Feat, "8%"),
                (DeviceClass::M2m, "26%"),
                (DeviceClass::M2mMaybe, "4%"),
            ] {
                let measured = shares.get(&class).copied().unwrap_or(0.0);
                println!(
                    "{}",
                    compare_line(&format!("{class} share"), paper, pct(measured))
                );
            }
            println!(
                "{}",
                compare_line(
                    "devices without any APN",
                    "~21%",
                    pct(art.classification.devices_without_apn as f64
                        / art.summaries.len().max(1) as f64)
                )
            );
            println!(
                "  APN inventory: {} distinct, {} validated as M2M",
                art.classification.total_apns,
                art.classification.validated_apns.len()
            );
        }

        if wanted(&args, "e8") || wanted(&args, "e9") {
            println!("\n--- E8/E9 (Fig. 5): home countries of inbound roamers ---");
            let hc = population::home_countries(&art.summaries, &art.classification);
            let top3: f64 = hc.overall.iter().take(3).map(|(_, _, s)| s).sum();
            let top20: f64 = hc.overall.iter().take(20).map(|(_, _, s)| s).sum();
            println!(
                "{}",
                compare_line("top-3 home countries share", "~60%", pct(top3))
            );
            println!(
                "{}",
                compare_line("top-20 home countries share", ">93%", pct(top20))
            );
            let m2m_top3: f64 = ["NL", "SE", "ES"]
                .iter()
                .map(|iso| hc.by_class.row_share("m2m", iso))
                .sum();
            println!(
                "{}",
                compare_line("m2m devices from NL/SE/ES", "83%", pct(m2m_top3))
            );
            let smart_top3: f64 = ["NL", "SE", "ES"]
                .iter()
                .map(|iso| hc.by_class.row_share("smart", iso))
                .sum();
            println!(
                "{}",
                compare_line("smart devices from NL/SE/ES", "17%", pct(smart_top3))
            );
            print!(
                "{}",
                report::shares_table("inbound roamers by home country (top 10)", &hc.overall, 10)
            );
        }

        if wanted(&args, "e10") {
            println!("\n--- E10 (Fig. 6): device class × roaming label ---");
            let b = population::class_label_breakdown(&art.summaries, &art.classification);
            println!(
                "{}",
                compare_line(
                    "I:H composition: m2m",
                    "71.1%",
                    pct(b.share_of_label(DeviceClass::M2m, RoamingLabel::IH))
                )
            );
            println!(
                "{}",
                compare_line(
                    "I:H composition: smart",
                    "27.1%",
                    pct(b.share_of_label(DeviceClass::Smart, RoamingLabel::IH))
                )
            );
            println!(
                "{}",
                compare_line(
                    "m2m devices that are I:H",
                    "74.7%",
                    pct(b.share_of_class(DeviceClass::M2m, RoamingLabel::IH))
                )
            );
            println!(
                "{}",
                compare_line(
                    "smart devices that are I:H",
                    "12.1%",
                    pct(b.share_of_class(DeviceClass::Smart, RoamingLabel::IH))
                )
            );
            println!(
                "{}",
                compare_line(
                    "feat devices that are I:H",
                    "6.4%",
                    pct(b.share_of_class(DeviceClass::Feat, RoamingLabel::IH))
                )
            );
            print!(
                "{}",
                report::heatmap_row_normalized("class × label", &b.table)
            );
        }

        if wanted(&args, "e11") {
            println!("\n--- E11 (Fig. 7): active days ---");
            let res = activity::active_days(
                &art.summaries,
                &art.classification,
                &MnoArtifacts::standard_pairs(),
            );
            let find = |c: DeviceClass, s: StatusGroup| {
                res.iter()
                    .find(|r| r.class == c && r.status == s)
                    .and_then(|r| r.days.median())
                    .unwrap_or(0.0)
            };
            let m2m_in = find(DeviceClass::M2m, StatusGroup::InboundRoaming);
            let smart_in = find(DeviceClass::Smart, StatusGroup::InboundRoaming);
            println!(
                "{}",
                compare_line(
                    "inbound m2m median active days",
                    "9",
                    format!("{m2m_in:.0}")
                )
            );
            println!(
                "{}",
                compare_line(
                    "inbound smart median active days",
                    "2",
                    format!("{smart_in:.0}")
                )
            );
            println!(
                "{}",
                compare_line(
                    "inbound m2m/smart ratio",
                    "4.5x",
                    format!("{:.1}x", m2m_in / smart_in.max(1.0))
                )
            );
        }

        if wanted(&args, "e12") {
            println!("\n--- E12 (Fig. 8): radius of gyration ---");
            let res = activity::gyration(
                &art.summaries,
                &art.classification,
                &[
                    (DeviceClass::M2m, StatusGroup::InboundRoaming),
                    (DeviceClass::Smart, StatusGroup::InboundRoaming),
                ],
            );
            let m2m_under_1km = res[0].gyration_km.fraction_at_or_below(1.0);
            println!(
                "{}",
                compare_line(
                    "inbound m2m with gyration < 1 km",
                    "~80%",
                    pct(m2m_under_1km)
                )
            );
            print!(
                "{}",
                report::cdf("inbound m2m gyration (km)", &res[0].gyration_km, 8)
            );
            print!(
                "{}",
                report::cdf("inbound smart gyration (km)", &res[1].gyration_km, 8)
            );
        }

        if wanted(&args, "e13") {
            println!("\n--- E13 (Fig. 9): RAT usage per class ---");
            let classes = [DeviceClass::M2m, DeviceClass::Smart, DeviceClass::Feat];
            let any =
                rat_usage::rat_usage(&art.summaries, &art.classification, &classes, Plane::Any);
            let data =
                rat_usage::rat_usage(&art.summaries, &art.classification, &classes, Plane::Data);
            let voice =
                rat_usage::rat_usage(&art.summaries, &art.classification, &classes, Plane::Voice);
            println!(
                "{}",
                compare_line(
                    "m2m 2G-only (connectivity)",
                    "77.4%",
                    pct(any[0].share("2G only"))
                )
            );
            println!(
                "{}",
                compare_line("m2m 2G-only (data)", "56.7%", pct(data[0].share("2G only")))
            );
            println!(
                "{}",
                compare_line(
                    "m2m with no data activity",
                    "24.5%",
                    pct(data[0].share("none"))
                )
            );
            println!(
                "{}",
                compare_line("m2m 2G voice", "60.6%", pct(voice[0].share("2G only")))
            );
            println!(
                "{}",
                compare_line(
                    "m2m with no voice activity",
                    "27.5%",
                    pct(voice[0].share("none"))
                )
            );
            println!(
                "{}",
                compare_line(
                    "feat 2G-only (connectivity)",
                    "50.9%",
                    pct(any[2].share("2G only"))
                )
            );
            println!(
                "{}",
                compare_line(
                    "feat with no data activity",
                    "56.8%",
                    pct(data[2].share("none"))
                )
            );
            println!(
                "{}",
                compare_line(
                    "feat with no voice activity",
                    "7.3%",
                    pct(voice[2].share("none"))
                )
            );
        }

        if wanted(&args, "e14") {
            println!("\n--- E14 (Fig. 10): traffic volumes ---");
            let pairs = MnoArtifacts::standard_pairs();
            let sig = traffic::traffic_dist(
                &art.summaries,
                &art.classification,
                &pairs,
                TrafficMetric::SignalingPerDay,
            );
            let calls = traffic::traffic_dist(
                &art.summaries,
                &art.classification,
                &pairs,
                TrafficMetric::CallsPerDay,
            );
            let bytes = traffic::traffic_dist(
                &art.summaries,
                &art.classification,
                &pairs,
                TrafficMetric::BytesPerDay,
            );
            let med = |v: &[traffic::TrafficDist], c: DeviceClass, s: StatusGroup| {
                v.iter()
                    .find(|d| d.class == c && d.status == s)
                    .and_then(|d| d.dist.median())
                    .unwrap_or(0.0)
            };
            println!(
                "{}",
                compare_line(
                    "signaling: m2m ≪ smart (median ratio)",
                    "≪1",
                    format!(
                        "{:.2}",
                        med(&sig, DeviceClass::M2m, StatusGroup::InboundRoaming)
                            / med(&sig, DeviceClass::Smart, StatusGroup::Native).max(1e-9)
                    )
                )
            );
            let m2m_zero_calls = calls
                .iter()
                .find(|d| d.class == DeviceClass::M2m && d.status == StatusGroup::InboundRoaming)
                .map(traffic::zero_fraction)
                .unwrap_or(0.0);
            println!(
                "{}",
                compare_line(
                    "inbound m2m devices with zero calls",
                    "vast majority",
                    pct(m2m_zero_calls)
                )
            );
            println!(
                "{}",
                compare_line(
                    "data: native smart / inbound smart (median ratio)",
                    ">1 (bill shock)",
                    format!(
                        "{:.1}x",
                        med(&bytes, DeviceClass::Smart, StatusGroup::Native)
                            / med(&bytes, DeviceClass::Smart, StatusGroup::InboundRoaming).max(1.0)
                    )
                )
            );
            println!(
                "{}",
                compare_line(
                    "data: inbound m2m median bytes/day",
                    "very small",
                    format!(
                        "{:.0} B",
                        med(&bytes, DeviceClass::M2m, StatusGroup::InboundRoaming)
                    )
                )
            );
        }

        if wanted(&args, "e15") || wanted(&args, "e16") || wanted(&args, "e17") {
            println!("\n--- E15–E17 (Fig. 11, §7.1): SMIP smart meters ---");
            let pop = smip::identify(
                &art.summaries,
                &art.output.tacdb,
                art.output.catalog.apn_table(),
            );
            let native = smip::group_stats(&art.summaries, &pop.native, art.output.days);
            let roaming = smip::group_stats(&art.summaries, &pop.roaming, art.output.days);
            println!(
                "  identified: {} native, {} roaming meters",
                native.devices, roaming.devices
            );
            if wanted(&args, "e15") {
                println!(
                    "{}",
                    compare_line(
                        "native meters active full period",
                        "73%",
                        pct(native.full_period_fraction)
                    )
                );
                let day1 = &native.active_days_day1_cohort;
                let full_day1 = if day1.is_empty() {
                    0.0
                } else {
                    1.0 - day1.fraction_at_or_below(art.output.days as f64 - 0.5)
                };
                println!(
                    "{}",
                    compare_line("day-1 cohort active full period", "83%", pct(full_day1))
                );
                println!(
                    "{}",
                    compare_line(
                        "roaming meters active ≤5 days",
                        "50%",
                        pct(roaming.active_days.fraction_at_or_below(5.0))
                    )
                );
            }
            if wanted(&args, "e16") {
                let ratio = roaming.signaling_per_day.mean().unwrap_or(0.0)
                    / native.signaling_per_day.mean().unwrap_or(1.0).max(1e-9);
                println!(
                    "{}",
                    compare_line(
                        "roaming/native signaling per day",
                        "~10x",
                        format!("{ratio:.1}x")
                    )
                );
                println!(
                    "{}",
                    compare_line(
                        "native meters with ≥1 failed msg",
                        "10%",
                        pct(native.failed_device_fraction)
                    )
                );
                println!(
                    "{}",
                    compare_line(
                        "roaming meters with ≥1 failed msg",
                        "35%",
                        pct(roaming.failed_device_fraction)
                    )
                );
            }
            if wanted(&args, "e17") {
                println!(
                    "{}",
                    compare_line(
                        "roaming meters 2G-only",
                        "100%",
                        pct(roaming
                            .rat_categories
                            .get("2G only")
                            .copied()
                            .unwrap_or(0.0))
                    )
                );
                let native_3g_only = native.rat_categories.get("3G only").copied().unwrap_or(0.0);
                println!(
                    "{}",
                    compare_line("native meters on 3G only", "~67%", pct(native_3g_only))
                );
                println!(
                    "{}",
                    compare_line(
                        "roaming-meter home operators",
                        "1 (NL)",
                        pop.roaming_home_plmns.len().to_string()
                    )
                );
                println!(
                    "{}",
                    compare_line(
                        "roaming-meter hardware vendors",
                        "Gemalto+Telit",
                        format!("{:?}", pop.roaming_vendors)
                    )
                );
            }
        }

        if wanted(&args, "e18") {
            println!("\n--- E18 (Fig. 12): connected cars vs smart meters ---");
            let (cars, meters) = verticals::compare(&art.summaries, art.output.catalog.apn_table());
            println!(
                "  identified: {} cars, {} meters (inbound)",
                cars.devices, meters.devices
            );
            println!(
                "{}",
                compare_line(
                    "car median gyration",
                    "high (≈ smartphones)",
                    format!("{:.1} km", cars.gyration_km.median().unwrap_or(0.0))
                )
            );
            println!(
                "{}",
                compare_line(
                    "meter median gyration",
                    "~0 km",
                    format!("{:.3} km", meters.gyration_km.median().unwrap_or(0.0))
                )
            );
            println!(
                "{}",
                compare_line(
                    "car/meter signaling ratio",
                    "≫1",
                    format!(
                        "{:.1}x",
                        cars.signaling_per_day.median().unwrap_or(0.0)
                            / meters.signaling_per_day.median().unwrap_or(1.0).max(1e-9)
                    )
                )
            );
            println!(
                "{}",
                compare_line(
                    "car/meter data ratio",
                    "≫1",
                    format!(
                        "{:.0}x",
                        cars.bytes_per_day.median().unwrap_or(0.0)
                            / meters.bytes_per_day.median().unwrap_or(1.0).max(1.0)
                    )
                )
            );
        }

        if wanted(&args, "e21") {
            println!("\n--- E21 (extension, §1/§9): inbound load vs wholesale revenue ---");
            let econ = revenue::inbound_economics(
                &art.summaries,
                &art.classification,
                revenue::RateCard::default(),
            );
            println!(
                "  {:<10} {:>8} {:>11} {:>14} {:>14} {:>13}",
                "class", "devices", "load share", "revenue share", "load/revenue", "€/device"
            );
            for e in &econ {
                println!(
                    "  {:<10} {:>8} {:>10.1}% {:>13.1}% {:>13.1}x {:>13.4}",
                    e.class.label(),
                    e.devices,
                    e.load_share * 100.0,
                    e.revenue_share * 100.0,
                    e.load_to_revenue(),
                    e.revenue_per_device
                );
            }
            println!("  (the paper's complaint quantified: m2m should sit far above 1x)");
        }

        if wanted(&args, "e22") {
            println!("\n--- E22 (extension, §1 [18]): diurnal traffic shapes ---");
            let profiles = diurnal::profiles(
                &art.summaries,
                &art.classification,
                &[DeviceClass::M2m, DeviceClass::Smart, DeviceClass::Feat],
            );
            for p in &profiles {
                println!(
                    "  {:<6} night share {:>5.1}% (flat = 25%)  peak/trough {:>6.1}x",
                    p.class.label(),
                    p.night_share * 100.0,
                    p.peak_to_trough
                );
            }
            println!("  (machine traffic is flat around the clock; human traffic dies at night)");
        }

        if wanted(&args, "e19") {
            println!("\n--- E19 (§4.3): classifier vs baselines (vs hidden ground truth) ---");
            let truth = art.observed_truth();
            let full = validate(&art.classification, &truth);
            let vendor = validate(&vendor_baseline(&art.output.tacdb, &art.summaries), &truth);
            let apn = validate(
                &apn_only_baseline(
                    &art.output.tacdb,
                    &art.summaries,
                    art.output.catalog.apn_table(),
                ),
                &truth,
            );
            let fmt = |v: &wtr_core::validate::Validation| {
                format!(
                    "precision {} recall {}",
                    v.m2m_precision.map(pct).unwrap_or_else(|| "-".into()),
                    v.m2m_recall.map(pct).unwrap_or_else(|| "-".into())
                )
            };
            println!("  full pipeline : {}", fmt(&full));
            println!("  vendor-only   : {}", fmt(&vendor));
            println!("  APN-only      : {}", fmt(&apn));
            println!(
                "  (paper could not compute these — ground truth is a simulator privilege; the ordering full ≥ baselines is the reproduction target)"
            );
        }
        println!();
    }

    if wanted(&args, "e20") {
        println!("--- E20 (extension, §8): NB-IoT what-if ---");
        let small = args.devices / 4;
        let base = MnoArtifacts::build(MnoScenarioConfig {
            devices: small,
            days: args.days,
            seed: args.seed,
            nbiot_meter_fraction: 0.0,
            sunset_2g_uk: false,
            gsma_transparency: false,
            record_loss_fraction: 0.0,
        });
        let nb = MnoArtifacts::build(MnoScenarioConfig {
            devices: small,
            days: args.days,
            seed: args.seed,
            nbiot_meter_fraction: 0.5,
            sunset_2g_uk: false,
            gsma_transparency: false,
            record_loss_fraction: 0.0,
        });
        println!(
            "  baseline (2019 population): {} devices classified via NB-IoT RAT",
            base.classification.nbiot_detected
        );
        println!(
            "  LPWA migration (50% of inbound meters on NB-IoT): {} devices detected by RAT alone",
            nb.classification.nbiot_detected
        );
        let recall = |art: &MnoArtifacts| {
            validate(&art.classification, &art.observed_truth())
                .m2m_recall
                .unwrap_or(0.0)
        };
        println!(
            "  m2m recall: baseline {} → NB-IoT world {}",
            pct(recall(&base)),
            pct(recall(&nb))
        );
        println!("  (§8: 'NB-IoT will enable visited MNOs to easily detect the inbound roaming IoT devices')");
        println!();
    }

    if wanted(&args, "e24") {
        println!("--- E24 (extension, §1): GSMA IMSI-range transparency what-if ---");
        let small = args.devices / 4;
        let run = |transparency: bool| {
            MnoArtifacts::build(MnoScenarioConfig {
                devices: small,
                days: args.days,
                seed: args.seed,
                nbiot_meter_fraction: 0.0,
                sunset_2g_uk: false,
                gsma_transparency: transparency,
                record_loss_fraction: 0.0,
            })
        };
        let opaque = run(false);
        let transparent = run(true);
        println!(
            "  devices tagged via published ranges: {} → {}",
            opaque.classification.range_detected, transparent.classification.range_detected
        );
        let score = |art: &MnoArtifacts, c: &wtr_core::classify::Classification| {
            let v = validate(c, &art.observed_truth());
            format!(
                "precision {} recall {}",
                v.m2m_precision.map(pct).unwrap_or_else(|| "-".into()),
                v.m2m_recall.map(pct).unwrap_or_else(|| "-".into())
            )
        };
        let range_only = wtr_core::baseline::imsi_range_baseline(
            &transparent.output.tacdb,
            &transparent.summaries,
        );
        println!(
            "  full pipeline, no transparency : {}",
            score(&opaque, &opaque.classification)
        );
        println!(
            "  full pipeline + NL range shared : {}",
            score(&transparent, &transparent.classification)
        );
        println!(
            "  range-tags only (no APN work)   : {}",
            score(&transparent, &range_only)
        );
        println!(
            "  (§1: the GSMA recommendation removes inference for partners that comply; the APN pipeline covers everyone else)"
        );
        println!();
    }

    if wanted(&args, "e23") {
        println!("--- E23 (extension, §6.1/§8): UK 2G sunset what-if ---");
        let small = args.devices / 4;
        let run = |sunset: bool| {
            MnoArtifacts::build(MnoScenarioConfig {
                devices: small,
                days: args.days,
                seed: args.seed,
                nbiot_meter_fraction: 0.0,
                sunset_2g_uk: sunset,
                gsma_transparency: false,
                record_loss_fraction: 0.0,
            })
        };
        let before = run(false);
        let after = run(true);
        let m2m_devices = |art: &MnoArtifacts| {
            art.summaries
                .iter()
                .filter(|s| {
                    art.output
                        .ground_truth
                        .get(&s.user)
                        .is_some_and(|v| v.is_m2m())
                })
                .count()
        };
        let (b, a) = (m2m_devices(&before), m2m_devices(&after));
        println!(
            "  visible devices: {} → {}",
            before.summaries.len(),
            after.summaries.len()
        );
        println!(
            "  visible ground-truth M2M devices: {b} → {a} ({} stranded)",
            pct(1.0 - a as f64 / b.max(1) as f64)
        );
        println!(
            "  (§6.1: 77.4% of M2M devices are 2G-only — retiring 2G silences most of the IoT fleet)"
        );
        println!();
    }
    println!("done.");
}
