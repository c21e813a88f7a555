//! The benchmark's statistics: medians, the tail-percentile rule, and the
//! residual that closes a layer breakdown.

/// Percentiles the tail rule may report, in per-mille: p50, p90, p99, p99.9.
pub const LADDER_PER_MILLE: [u32; 4] = [500, 900, 990, 999];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of the `per_mille` percentile among `n`
/// samples: `ceil(per_mille · n / 1000)`, clamped to `1..=n`. Integer
/// arithmetic, so p99 of 1000 samples is rank 990 exactly.
pub fn nearest_rank(n: usize, per_mille: u32) -> usize {
    let rank = (per_mille as usize * n).div_ceil(1000);
    rank.clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond the `per_mille` percentile.
pub fn beyond(n: usize, per_mille: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, per_mille)
}

/// The highest ladder percentile, at most `cap_per_mille`, that has at
/// least [`MIN_BEYOND`] of `n` samples beyond it; `None` when not even the
/// median qualifies (fewer than 20 samples).
pub fn tail_per_mille(n: usize, cap_per_mille: u32) -> Option<u32> {
    LADDER_PER_MILLE
        .iter()
        .rev()
        .copied()
        .filter(|&p| p <= cap_per_mille)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The `per_mille` percentile of ascending `sorted` samples (nearest rank).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), per_mille) - 1]
}

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The mean of per-kind medians: the p50 of a workload that mixes request
/// kinds in equal shares. A bimodal mix has no stable pooled median (it
/// falls in the gap between the modes), so each kind is summarized alone.
/// Kinds without samples are skipped.
pub fn mean_of_medians(per_kind: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = per_kind
        .iter()
        .filter(|k| !k.is_empty())
        .map(|k| median(k))
        .collect();
    assert!(!medians.is_empty(), "no samples in any kind");
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// One timed operation of a closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it completed, in nanoseconds from the start of the loop.
    pub at_ns: u64,
    /// Which request kind it was.
    pub kind: usize,
    /// What was measured (a latency, or a count of rows).
    pub value: f64,
}

/// Groups samples by the `window_ns` window they completed in; samples
/// past `n_windows` windows are left out.
pub fn windows(samples: &[Sample], window_ns: u64, n_windows: usize) -> Vec<Vec<Sample>> {
    let mut out = vec![Vec::new(); n_windows];
    for s in samples {
        if let Some(w) = out.get_mut((s.at_ns / window_ns) as usize) {
            w.push(*s);
        }
    }
    out
}

/// The p50 of each window that has samples: the mean of its per-kind
/// medians over `n_kinds` kinds. The median of these resists the bursts
/// a shared machine injects into some windows of a run.
pub fn window_p50s(windows: &[Vec<Sample>], n_kinds: usize) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| {
            let mut per_kind = vec![Vec::new(); n_kinds];
            for s in w {
                per_kind[s.kind].push(s.value);
            }
            mean_of_medians(&per_kind)
        })
        .collect()
}

/// The `per_mille` percentile of each window's values, for the windows
/// with at least [`MIN_BEYOND`] samples beyond it (the others cannot
/// support it and are left out). The median of these resists a burst of
/// interference that a pooled tail would report whole.
pub fn window_tails(windows: &[Vec<Sample>], per_mille: u32) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| beyond(w.len(), per_mille) >= MIN_BEYOND)
        .map(|w| {
            let mut values: Vec<f64> = w.iter().map(|s| s.value).collect();
            values.sort_by(f64::total_cmp);
            percentile(&values, per_mille)
        })
        .collect()
}

/// What a layer breakdown leaves unexplained: `total` minus the sum of the
/// measured layers. Layer medians plus this residual sum to `total`
/// exactly, which is what makes the breakdown account for the end-to-end
/// number.
pub fn residual(total: f64, layers: &[f64]) -> f64 {
    total - layers.iter().sum::<f64>()
}
