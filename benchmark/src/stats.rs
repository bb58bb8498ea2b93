//! Order statistics used by the harness and by `compare`.

/// Median of `values` (mean of the two middle samples for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them, so a spread computed here equals the one the driver takes.
/// Fewer than two samples have no spread: both quartiles are the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "quartiles of no samples");
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // delta is negative or above 4 at the clamped ends: Python
        // extrapolates there, and so does this.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median (0 when the
/// median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The highest percentile of the usual ladder that still has at least ten
/// samples beyond it in a sample of `count`; `None` below twenty samples,
/// where not even the median qualifies.
pub fn highest_supported_percentile(count: u64) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    const LADDER: [(f64, u64); 6] = [
        (50.0, 2),
        (90.0, 10),
        (95.0, 20),
        (99.0, 100),
        (99.9, 1_000),
        (99.99, 10_000),
    ];
    LADDER
        .iter()
        .rfind(|(_, one_in)| count >= 10 * one_in)
        .map(|&(p, _)| p)
}

/// Nearest-rank percentile, the rule `simtrace::HistogramSummary` uses, so
/// latencies the harness samples itself read like the simulator's own.
pub fn nearest_rank(values: &[f64], pct: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}
