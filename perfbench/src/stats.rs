//! Small statistics and host-stamp helpers shared by every workload.

use std::hint::black_box;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentile reported for `count` samples: the highest of
/// p99.9, p99, p95, p90 and p50 that leaves at least ten samples beyond
/// it, or `None` when even p50 does not.
pub fn tail_percentile(count: usize) -> Option<f64> {
    // In permille, so the nearest rank is exact integer arithmetic.
    [999, 990, 950, 900, 500]
        .into_iter()
        .find(|&p| count - (p * count).div_ceil(1000) >= 10)
        .map(|p| p as f64 / 10.0)
}

/// Tail of `xs` by [`tail_percentile`], with the label naming which
/// percentile it is. Below 20 samples no percentile has ten beyond it;
/// p75 is reported then, since the maximum of a handful of samples
/// mostly measures the host's worst moment.
pub fn tail(xs: &[f64]) -> (f64, String) {
    let p = tail_percentile(xs.len()).unwrap_or(75.0);
    (percentile(xs, p), format!("p{p}"))
}

/// Time a fixed single-threaded integer loop: a machine-speed stamp
/// printed next to every result so drift of the host can be told apart
/// from a regression. Reported, never used to normalise.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut acc = 0u64;
    for i in 0..40_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1));
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(450), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail(&[1.0, 5.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0]).0, 6.0);
    }
}
