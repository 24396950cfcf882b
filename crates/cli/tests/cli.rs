//! End-to-end CLI tests: drive the `wtr` binary exactly as a user would —
//! simulate to files, classify and analyze from those files.

use std::path::PathBuf;
use std::process::{Command, Output};

fn wtr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wtr"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wtr-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_and_unknown_command() {
    let out = wtr(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("simulate-mno"));

    let out = wtr(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = wtr(&[]);
    assert!(!out.status.success());
}

#[test]
fn mno_roundtrip_simulate_classify_analyze() {
    let catalog = tmp("catalog.jsonl");
    let out = wtr(&[
        "simulate-mno",
        "--out",
        catalog.to_str().unwrap(),
        "--devices",
        "600",
        "--days",
        "6",
        "--seed",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(catalog.exists());

    let out = wtr(&["classify", "--catalog", catalog.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("smart"), "{text}");
    assert!(text.contains("m2m"), "{text}");

    let out = wtr(&[
        "analyze",
        "--catalog",
        catalog.to_str().unwrap(),
        "labels",
        "revenue",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("roaming-label shares"), "{text}");
    assert!(text.contains("inbound economics"), "{text}");

    std::fs::remove_file(&catalog).ok();
}

#[test]
fn classify_baseline_pipelines() {
    let catalog = tmp("catalog-baselines.jsonl");
    let out = wtr(&[
        "simulate-mno",
        "--out",
        catalog.to_str().unwrap(),
        "--devices",
        "400",
        "--days",
        "5",
        "--seed",
        "6",
    ]);
    assert!(out.status.success());
    for pipeline in ["full", "apn", "vendor", "range"] {
        let out = wtr(&[
            "classify",
            "--catalog",
            catalog.to_str().unwrap(),
            "--pipeline",
            pipeline,
        ]);
        assert!(
            out.status.success(),
            "{pipeline}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = wtr(&[
        "classify",
        "--catalog",
        catalog.to_str().unwrap(),
        "--pipeline",
        "nonsense",
    ]);
    assert!(!out.status.success());
    std::fs::remove_file(&catalog).ok();
}

#[test]
fn platform_roundtrip() {
    let txs = tmp("txs.jsonl");
    let wire = tmp("txs.bin");
    let out = wtr(&[
        "simulate-platform",
        "--out",
        txs.to_str().unwrap(),
        "--wire",
        wire.to_str().unwrap(),
        "--devices",
        "400",
        "--days",
        "4",
        "--seed",
        "9",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(txs.exists() && wire.exists());

    let out = wtr(&["platform-stats", "--transactions", txs.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("devices per HMNO country"), "{text}");
    assert!(text.contains("only-failed devices"), "{text}");

    std::fs::remove_file(&txs).ok();
    std::fs::remove_file(&wire).ok();
}

#[test]
fn missing_required_options_fail_cleanly() {
    let catalog = tmp("catalog-rejected.jsonl");
    let out = catalog.to_str().unwrap();
    for (args, expected) in [
        (vec!["simulate-mno"], "required"),
        (vec!["classify"], "required"),
        (vec!["analyze"], "required"),
        (vec!["platform-stats"], "required"),
        (
            vec!["simulate-mno", "--out", out, "--days", "0"],
            "--days must be at least 1",
        ),
        (
            vec![
                "simulate-mno",
                "--out",
                out,
                "--devices",
                "1",
                "--days",
                "3661",
            ],
            "exceeds the 3660-day catalog window limit",
        ),
        (
            vec!["simulate-mno", "--out", out, "--days", "1", "--shards", "0"],
            "--shards must be at least 1",
        ),
        (
            vec!["simulate-platform", "--out", out, "--days", "0"],
            "--days must be at least 1",
        ),
    ] {
        let run = wtr(&args);
        assert_eq!(run.status.code(), Some(1), "{args:?} should fail");
        assert!(
            String::from_utf8_lossy(&run.stderr).contains(expected),
            "{args:?}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    assert!(!catalog.exists(), "a rejected run writes no catalog");
    // Nonexistent input file.
    let out = wtr(&["classify", "--catalog", "/nonexistent/x.jsonl"]);
    assert!(!out.status.success());
}

#[test]
fn truth_export_and_validate_loop() {
    let catalog = tmp("catalog-validate.jsonl");
    let truth = tmp("truth-validate.jsonl");
    let out = wtr(&[
        "simulate-mno",
        "--out",
        catalog.to_str().unwrap(),
        "--truth",
        truth.to_str().unwrap(),
        "--devices",
        "500",
        "--days",
        "6",
        "--seed",
        "13",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(truth.exists());

    // Full pipeline: high recall, perfect precision.
    let out = wtr(&[
        "validate",
        "--catalog",
        catalog.to_str().unwrap(),
        "--truth",
        truth.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("m2m precision: 100.0%"), "{text}");
    assert!(text.contains("confusion matrix"), "{text}");

    // The vendor baseline scores strictly worse on recall (E19 at the CLI).
    let out = wtr(&[
        "validate",
        "--catalog",
        catalog.to_str().unwrap(),
        "--truth",
        truth.to_str().unwrap(),
        "--pipeline",
        "vendor",
    ]);
    assert!(out.status.success());
    let vendor_text = String::from_utf8_lossy(&out.stdout).to_string();
    let recall = |t: &str| -> f64 {
        t.lines()
            .find(|l| l.contains("m2m recall"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().trim_end_matches('%').parse().ok())
            .unwrap_or(0.0)
    };
    assert!(
        recall(&text) > recall(&vendor_text),
        "full {} vs vendor {}",
        recall(&text),
        recall(&vendor_text)
    );

    std::fs::remove_file(&catalog).ok();
    std::fs::remove_file(&truth).ok();
}
