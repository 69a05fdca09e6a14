//! Order statistics over measured samples.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// Refuses (`None`) a percentile the sample cannot support: fewer than
/// ten samples would lie beyond it. p50 of 20 samples is fine; p99 needs
/// at least 1000.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Tail latency that one burst of host interference cannot dominate:
/// `in_order` (samples in the order they were taken) is cut into the
/// most equal consecutive windows of at least `window` samples, and the
/// result is the median of the windows' nearest-rank p99s. `None` when
/// not even one window's p99 is supported.
pub fn windowed_p99(in_order: &[f64], window: usize) -> Option<f64> {
    let windows = in_order.len() / window.max(1);
    if windows == 0 {
        return None;
    }
    let per = in_order.len() / windows;
    let p99s: Option<Vec<f64>> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * per
            };
            percentile(&sorted(in_order[w * per..end].to_vec()), 99.0)
        })
        .collect();
    median(&p99s?)
}

/// Median (mean of the middle two for an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `values` in ascending order, as [`percentile`] takes them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition_on_a_fixture() {
        // 1..=2000: the nearest-rank p-th percentile of 1..=n is
        // ceil(p/100 * n).
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(1000.0));
        assert_eq!(percentile(&xs, 99.0), Some(1980.0));
        assert_eq!(percentile(&xs, 90.0), Some(1800.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // An uneven fixture: rank = ceil(0.5 * 25) = 13.
        let ys: Vec<f64> = (0..25).map(|i| f64::from(i * i)).collect();
        assert_eq!(percentile(&ys, 50.0), Some(144.0));
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1009).map(f64::from).collect();
        // rank(p99) = ceil(998.91) = 999 leaves exactly 10 beyond it.
        assert_eq!(percentile(&xs, 99.0), Some(999.0));
        let short: Vec<f64> = (1..=1008).map(f64::from).collect();
        // rank = ceil(997.92) = 998 leaves 10 beyond: still supported.
        assert_eq!(percentile(&short, 99.0), Some(998.0));
        let shorter: Vec<f64> = (1..=999).map(f64::from).collect();
        // rank = ceil(989.01) = 990 leaves 9 beyond: refused.
        assert_eq!(percentile(&shorter, 99.0), None);
        assert_eq!(percentile(&[1.0; 15], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn windowed_p99_takes_the_median_window() {
        // Three windows of 1100; one carries a burst of 100 slow samples.
        let mut xs = vec![1.0; 3300];
        for x in &mut xs[1200..1300] {
            *x = 50.0;
        }
        xs[10] = 2.0;
        assert_eq!(windowed_p99(&xs, 1100), Some(1.0));
        assert_eq!(percentile(&sorted(xs.clone()), 99.0), Some(50.0));
        assert_eq!(windowed_p99(&xs[..1000], 1100), None);
        // Remainders join the last window instead of forming a short one.
        assert_eq!(windowed_p99(&xs[..2199], 1100), Some(50.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
