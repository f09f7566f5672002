//! Order statistics shared by every report: nearest-rank quantiles, the
//! supported-tail rule, span self time, and (for the self-tests)
//! Python-compatible quartiles.

/// Nearest-rank quantile of **sorted** samples: the smallest sample with
/// at least `⌈q·n⌉` samples at or below it. `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_of(sorted.len(), q) - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples, robust to
/// the rounding of `q·n` (0.99 × 1000 must be rank 990, not 991).
fn rank_of(n: usize, q: f64) -> usize {
    let exact = q * n as f64;
    let rank = (exact - 1e-9).ceil().max(1.0) as usize;
    rank.min(n)
}

/// Median by nearest rank.
pub fn median(sorted: &[f64]) -> Option<f64> {
    quantile(sorted, 0.5)
}

/// A tail percentile together with the quantile it actually reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile reported (≤ the one asked for).
    pub q: f64,
    /// Its value.
    pub value: f64,
}

/// The highest quantile `≤ wanted` that still leaves at least `beyond`
/// samples strictly above its rank — "report the highest percentile the
/// sample supports". With 1,000 samples and `beyond = 10` that is p99;
/// with 500 it is p98. `None` when no rank leaves `beyond` samples.
pub fn supported_tail(sorted: &[f64], wanted: f64, beyond: usize) -> Option<Tail> {
    let n = sorted.len();
    if n <= beyond {
        return None;
    }
    let rank = rank_of(n, wanted).min(n - beyond);
    Some(Tail {
        q: rank as f64 / n as f64,
        value: sorted[rank - 1],
    })
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive"
/// method) computes them — the rule a metric's run-to-run spread is
/// judged by. `None` for fewer than two values.
#[cfg(test)]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median of the same values —
/// the steadiness figure a metric's bound is compared against.
#[cfg(test)]
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Self time of a span `[start, end)` whose children cover `children`
/// (any order, possibly overlapping, possibly spilling outside the
/// parent): the parent's duration minus the **union** of the children
/// clipped to the parent, never below zero. Overlapping children are
/// counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    if end <= start {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// Sorts a sample vector in place (total order; NaN never occurs in
/// timings) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(quantile(&s, 0.5), Some(3.0));
        assert_eq!(quantile(&s, 0.99), Some(100.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        // 0.99 × 1000 is 990.0000000000001 in floating point: rank 990.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&thousand, 0.99), Some(990.0));
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = supported_tail(&thousand, 0.99, 10).unwrap();
        assert_eq!((t.q, t.value), (0.99, 990.0));
        assert_eq!(thousand.iter().filter(|&&x| x > t.value).count(), 10);

        // 500 samples cannot support p99: p98 is the highest with ten
        // samples beyond it.
        let five_hundred: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = supported_tail(&five_hundred, 0.99, 10).unwrap();
        assert_eq!((t.q, t.value), (0.98, 490.0));
        assert_eq!(five_hundred.iter().filter(|&&x| x > t.value).count(), 10);

        // Plenty of samples: the asked-for quantile wins.
        let big: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(supported_tail(&big, 0.99, 10).unwrap().q, 0.99);

        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(supported_tail(&ten, 0.99, 10), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(supported_tail(&eleven, 0.99, 10).unwrap().value, 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([5.0, 1.5, 9.25, 2.0, 7.0], n=4)
        //   == [1.75, 5.0, 8.125]
        assert_eq!(
            quartiles(&[5.0, 1.5, 9.25, 2.0, 7.0]),
            Some([1.75, 5.0, 8.125])
        );
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time(10, 110, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 80)]), 60);
        // Overlapping children are not double-counted.
        assert_eq!(self_time(0, 100, &[(10, 60), (40, 90)]), 20);
        // Nested and duplicated children count once.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30), (10, 90)]), 20);
        // Children spilling past the parent are clipped to it.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // Children covering more than the parent clamp at zero.
        assert_eq!(self_time(0, 100, &[(0, 100), (0, 100)]), 0);
        // A degenerate parent has no self time.
        assert_eq!(self_time(100, 100, &[(0, 10)]), 0);
        assert_eq!(self_time(100, 50, &[]), 0);
    }
}
