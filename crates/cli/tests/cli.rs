//! End-to-end CLI tests: drive the `wtr` binary exactly as a user would —
//! simulate to files, classify and analyze from those files.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::thread;
use std::time::{Duration, Instant};

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
        (
            vec![
                "simulate-mno",
                "--out",
                out,
                "--devices",
                "10",
                "--record-loss",
                "2",
            ],
            "--record-loss 2: must be a fraction in [0, 1]",
        ),
        (
            vec![
                "simulate-mno",
                "--out",
                out,
                "--devices",
                "10",
                "--record-loss",
                "NaN",
            ],
            "--record-loss NaN: must be a fraction in [0, 1]",
        ),
        (
            vec![
                "simulate-mno",
                "--out",
                out,
                "--devices",
                "10",
                "--nbiot-meters",
                "-1",
            ],
            "--nbiot-meters -1: must be a fraction in [0, 1]",
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
fn one_day_window_simulates_and_analyzes() {
    // A late-arriving meter draws its arrival day after day 0, which a
    // one-day window does not have.
    let catalog = tmp("catalog-one-day.jsonl");
    let path = catalog.to_str().unwrap();
    let out = wtr(&[
        "simulate-mno",
        "--out",
        path,
        "--devices",
        "100",
        "--days",
        "1",
        "--seed",
        "7",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = wtr(&["analyze", "--catalog", path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
    std::fs::remove_file(&catalog).ok();
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

/// One request on a fresh connection; the status code, or `None` when
/// the server cannot be reached or does not answer within a second.
fn http_status(addr: SocketAddr, method: &str, path: &str) -> Option<u16> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(1))).ok()?;
    let request = format!("{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n");
    stream.write_all(request.as_bytes()).ok()?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply).ok()?;
    reply.split_whitespace().nth(1)?.parse().ok()
}

/// A connection flood that reaches the server's descriptor limit stalls
/// accepts until the flood closes; it does not end the server.
#[test]
fn serve_survives_a_flood_at_the_descriptor_limit() {
    let mut child = Command::new("sh")
        .args([
            "-c",
            r#"ulimit -n 64 && exec "$0" serve --addr 127.0.0.1:0 --workers 1"#,
            env!("CARGO_BIN_EXE_wtr"),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("sh runs");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));
    let log = thread::spawn(move || {
        let mut rest = String::new();
        stderr.read_to_string(&mut rest).ok();
        rest
    });

    let mut flood = Vec::new();
    while flood.len() < 100 {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
            Ok(conn) => flood.push(conn),
            Err(_) => break,
        }
    }
    thread::sleep(Duration::from_millis(500));
    let opened = flood.len();
    drop(flood);

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut health = None;
    while health != Some(200) && Instant::now() < deadline {
        health = http_status(addr, "GET", "/healthz");
        if health != Some(200) {
            thread::sleep(Duration::from_millis(50));
        }
    }
    let shutdown = http_status(addr, "POST", "/shutdown");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            break None;
        }
        thread::sleep(Duration::from_millis(20));
    };
    let log = log.join().unwrap();
    assert_eq!(
        health,
        Some(200),
        "/healthz after a flood of {opened} connections; stderr: {log}"
    );
    assert_eq!(shutdown, Some(200), "POST /shutdown; stderr: {log}");
    assert!(
        status.is_some_and(|s| s.success()),
        "exit status {status:?}; stderr: {log}"
    );
}
