//! Sample statistics and the process counters read from `/proc`.

use std::fs;

/// Median of `samples` (mean of the two middle values for even counts);
/// 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest of p90 / p99 / p99.9 that still has at least ten samples
/// beyond it, as `(percentile, value)`, by nearest rank. `None` when
/// fewer than 100 samples leave ten beyond even p90.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Percentiles in tenths of a percent, so ranks are exact integers.
    [999, 990, 900].into_iter().find_map(|per_mille| {
        let rank = (per_mille * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (per_mille as f64 / 10.0, sorted[rank - 1]))
    })
}

/// Process user+sys CPU time in milliseconds, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields restart after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    // `rest` starts at field 3, so utime (14) and stime (15) are 11 and 12.
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the `VmHWM` peak to the current RSS, so the next reading
/// covers only what runs after this call.
pub fn reset_peak_rss() {
    if let Err(e) = fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset VmHWM ({e}); peak_rss_mb includes set-up");
    }
}

/// Order-sensitive 64-bit digest: bytes folded 8 at a time through
/// `mix64`, the convention of the repository's golden catalog digests.
pub fn digest(bytes: &[u8]) -> u64 {
    use wtr_model::hash::mix64;
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for chunk in bytes.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        acc = mix64(acc ^ u64::from_le_bytes(b));
    }
    mix64(acc ^ bytes.len() as u64)
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        assert_eq!(tail(&[1.0; 50]), None);
    }

    #[test]
    fn proc_counters_read() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
