//! Order statistics over samples, and wall-clock helpers.

use std::time::{Duration, Instant};

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Nearest-rank `p`-th percentile (`p` in `(0, 100]`); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Runs `f` and returns its result with its duration in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`) in MB (10^6 bytes).
///
/// # Errors
/// Returns an error when `/proc/self/status` is unreadable or has no
/// `VmHWM` line.
pub fn peak_rss_mb() -> crate::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse()?;
    Ok(kb * 1024.0 / 1e6)
}

/// Host-wide CPU time as `(total, steal)` jiffies from `/proc/stat`, where
/// steal is time the hypervisor ran something else on this VM's vCPUs.
/// `None` when unavailable.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 20.0), 1.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
    }
}
