//! Small statistics helpers: medians, the typical pass from per-kernel
//! medians, tail percentiles that carry their sample count, and ratios
//! whose zero base reads "undefined".

use std::collections::BTreeMap;
use std::fmt;

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when empty.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A timing distribution: its median plus the highest tail percentile
/// that still has at least ten samples beyond it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// `(percentile, value)` of the tail, when the sample is big enough.
    pub tail: Option<(u32, f64)>,
}

/// Tail percentiles tried, highest first.
const TAILS: [u32; 4] = [99, 95, 90, 75];

/// Summarises `xs`; `None` when empty. Percentiles use the nearest-rank
/// definition.
#[must_use]
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let median = median(xs)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let tail = TAILS.iter().find_map(|&p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    });
    Some(Summary { n, median, tail })
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p50 {:.6}", self.median)?;
        match self.tail {
            Some((p, v)) => write!(f, " p{p} {v:.6}")?,
            None => write!(f, " (no tail percentile: fewer than 11 samples)")?,
        }
        write!(f, " n={}", self.n)
    }
}

/// Host times of each part of a pass (one per kernel) and of the rest
/// of the pass, over many passes.
///
/// The typical pass is the sum of the medians. Each median uses every
/// pass's sample of its part, so a burst of other tenants' load that
/// hits a few kernels does not move the figure of a whole pass.
#[derive(Debug, Clone, Default)]
pub struct PartTimes {
    parts: BTreeMap<usize, Vec<f64>>,
    rest: Vec<f64>,
}

impl PartTimes {
    /// Adds one pass of `pass_s` seconds, of which `parts` are
    /// `(part id, seconds)`.
    pub fn add(&mut self, pass_s: f64, parts: &[(usize, f64)]) {
        for &(id, t) in parts {
            self.parts.entry(id).or_default().push(t);
        }
        let rest = pass_s - parts.iter().map(|p| p.1).sum::<f64>();
        self.rest.push(rest.max(0.0));
    }

    /// The sum of each part's median time and the rest's; `None` before
    /// any pass.
    #[must_use]
    pub fn typical_pass(&self) -> Option<f64> {
        let parts: f64 = self.parts.values().filter_map(|v| median(v)).sum();
        Some(median(&self.rest)? + parts)
    }
}

/// A ratio that knows when its base was zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio(pub Option<f64>);

/// `num / den`, undefined when `den` is zero (never a silent 0 or inf).
#[must_use]
pub fn ratio(num: f64, den: f64) -> Ratio {
    Ratio((den != 0.0).then(|| num / den))
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(v) => write!(f, "{v:.6}"),
            None => f.write_str("undefined"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn typical_pass_sums_the_median_of_each_part() {
        let mut p = PartTimes::default();
        assert_eq!(p.typical_pass(), None);
        // Part 0 takes 1, 2, 9 s; part 1 takes 2, 8, 3 s; the rest (pass
        // minus parts) is 0.5, 0.25, 1 s.
        p.add(3.5, &[(0, 1.0), (1, 2.0)]);
        p.add(10.25, &[(1, 8.0), (0, 2.0)]);
        p.add(13.0, &[(0, 9.0), (1, 3.0)]);
        assert_eq!(p.typical_pass(), Some(2.0 + 3.0 + 0.5));
        // A pass without parts is all rest.
        let mut whole = PartTimes::default();
        whole.add(2.0, &[]);
        assert_eq!(whole.typical_pass(), Some(2.0));
    }

    #[test]
    fn zero_base_ratio_is_undefined_not_zero() {
        assert_eq!(ratio(5.0, 0.0), Ratio(None));
        assert_eq!(ratio(0.0, 0.0).to_string(), "undefined");
        assert_eq!(ratio(1.0, 4.0), Ratio(Some(0.25)));
        assert_eq!(ratio(0.0, 4.0), Ratio(Some(0.0)));
    }

    #[test]
    fn percentiles_report_their_sample_count() {
        let small: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&small).expect("non-empty");
        assert_eq!((s.n, s.median, s.tail), (10, 5.5, None));
        assert!(s.to_string().contains("n=10"));

        // 40 samples: p75 (rank 30) leaves exactly 10 beyond it; p90
        // (rank 36) would leave only 4.
        let big: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&big).expect("non-empty");
        assert_eq!(s.tail, Some((75, 30.0)));
        assert!(s.to_string().ends_with("n=40"));

        let huge: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&huge).expect("non-empty").tail, Some((99, 990.0)));
        assert_eq!(summarize(&[]), None);
    }
}
