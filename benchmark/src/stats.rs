//! Order statistics for the harness: within-run percentiles of
//! per-operation samples, and the across-run quartiles `compare` judges
//! noise by.

use crate::json::Json;

/// The `p`-th percentile (0–100) of `samples` by linear interpolation
/// between closest ranks; 0.0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A 95th percentile that a short stall of the host cannot move: `samples`
/// (in the order they were taken) are cut into consecutive blocks of
/// `block`, and the result is the median over blocks of each block's 95th
/// percentile. A stall that lands in fewer than half of the blocks leaves
/// it alone; a program whose tail grew moves every block. A trailing
/// partial block is dropped; fewer samples than one block are one block.
pub fn blocked_p95(samples: &[f64], block: usize) -> f64 {
    if samples.len() < block {
        return percentile(samples, 95.0);
    }
    let tails: Vec<f64> = samples
        .chunks_exact(block)
        .map(|b| percentile(b, 95.0))
        .collect();
    median(&tails)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method) — the benchmark driver computes run-to-run spread with that
/// function, so `compare` must agree with it digit for digit. Fewer than
/// two values have no spread: all three are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (sorted[0], sorted[0], sorted[0]),
        _ => {
            let cut = |i: usize| {
                // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta =
                // i*(n+1) - j*4; (ld[j-1]*(4-delta) + ld[j]*delta)/4.
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Inter-quartile spread as a share of the median (0 when the median is
/// 0, which only an all-zero metric produces).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

/// Median, quartiles, tail, extremes and count of one timing series — how
/// every timing is written to the per-run result file.
pub fn summary(samples: &[f64]) -> Json {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Json::obj([
        ("n", Json::from(sorted.len())),
        ("p50", Json::Num(percentile_sorted(&sorted, 50.0))),
        ("p25", Json::Num(percentile_sorted(&sorted, 25.0))),
        ("p75", Json::Num(percentile_sorted(&sorted, 75.0))),
        ("p90", Json::Num(percentile_sorted(&sorted, 90.0))),
        ("p95", Json::Num(percentile_sorted(&sorted, 95.0))),
        ("min", Json::Num(sorted.first().copied().unwrap_or(0.0))),
        ("max", Json::Num(sorted.last().copied().unwrap_or(0.0))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 95.0) - 3.85).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn blocked_p95_ignores_a_stall_in_a_minority_of_blocks() {
        // Five blocks of four; each block's p95 is 3.85 until a stall
        // lands in it.
        let mut v: Vec<f64> = (0..20).map(|i| f64::from(i % 4 + 1)).collect();
        assert!((blocked_p95(&v, 4) - 3.85).abs() < 1e-12);
        v[5] = 100.0;
        v[6] = 100.0;
        v[13] = 100.0;
        assert!((blocked_p95(&v, 4) - 3.85).abs() < 1e-12);
        assert!(percentile(&v, 95.0) > 50.0);
        // A tail that grew everywhere moves it.
        let slow: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
        assert!((blocked_p95(&slow, 4) - 7.7).abs() < 1e-12);
        // The trailing partial block is dropped; a short series is one block.
        assert_eq!(blocked_p95(&[1.0, 1.0, 9.0], 2), 1.0);
        assert_eq!(blocked_p95(&[7.0], 8), 7.0);
        assert_eq!(blocked_p95(&[], 8), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]),
            (1.0, 3.0, 5.0)
        );
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn summary_counts_samples() {
        let s = summary(&[2.0, 1.0, 3.0]);
        assert_eq!(s.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(s.get("p50").and_then(Json::as_f64), Some(2.0));
        assert_eq!(s.get("max").and_then(Json::as_f64), Some(3.0));
    }
}
