//! Exact order statistics over the benchmark's own samples, and process
//! memory.

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Most slices [`sliced_quantile`] splits a run into.
const MAX_SLICES: usize = 8;

/// The run's `q`-quantile, robust to a burst of host interference: the
/// exact quantile of each of up to `MAX_SLICES` consecutive slices, each
/// large enough to hold at least 10 samples beyond its quantile (one
/// slice when the run is smaller), then the median of those. `in_order`
/// is in completion order. `None` when empty.
pub fn sliced_quantile(in_order: &[u64], q: f64) -> Option<f64> {
    let n = in_order.len();
    let min_slice = (10.0 / (1.0 - q)).round() as usize;
    let k = (n / min_slice.max(1)).clamp(1, MAX_SLICES);
    let per_slice: Option<Vec<f64>> = (0..k)
        .map(|i| {
            let mut slice = in_order[i * n / k..(i + 1) * n / k].to_vec();
            slice.sort_unstable();
            quantile(&slice, q).map(|v| v as f64)
        })
        .collect();
    per_slice.map(|v| median(&v))
}

/// Median of a set of floats (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(steal, total)` CPU ticks since boot, from the first line of
/// `/proc/stat`: time the hypervisor ran something else while a vCPU of
/// this machine wanted to run, and all accounted time.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn sliced_quantile_is_the_median_of_slice_quantiles() {
        // Four slices of 1000; the third is slow throughout.
        let mut v: Vec<u64> = Vec::new();
        for slice in 0..4u64 {
            let scale = if slice == 2 { 10 } else { 1 };
            v.extend((1..=1000).map(|x| x * scale));
        }
        // Slice p99s: 990, 990, 9900, 990 -> median 990.
        assert_eq!(sliced_quantile(&v, 0.99), Some(990.0));
        // 500 samples hold 5 slices of 100 for a p90: 90, 190, .. 490.
        assert_eq!(sliced_quantile(&v[..500], 0.9), Some(290.0));
        // Too few for one full p99 slice: the whole run is one slice.
        assert_eq!(sliced_quantile(&v[..500], 0.99), Some(495.0));
        assert_eq!(sliced_quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
