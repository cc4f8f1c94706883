//! Order statistics for the report: medians of repeated measurements
//! and distribution percentiles that refuse to speak past their data.

/// Fewest samples a percentile must leave above it before it is
/// reported: a "p99" read off 200 samples is the second-largest value,
/// not a tail estimate.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Median (mean of the middle pair for even counts). Panics on an empty
/// slice: every caller measures at least one repetition.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A repeated job's typical time, robust to interference that slows
/// one repetition's step but not the others': each step at its median
/// over the repetitions, summed. `reps[r][i]` is step `i` of repetition
/// `r`; every repetition has the same steps.
pub fn sum_of_step_medians(reps: &[Vec<f64>]) -> f64 {
    assert!(!reps.is_empty(), "no repetitions");
    let steps = reps[0].len();
    assert!(
        reps.iter().all(|r| r.len() == steps),
        "repetitions differ in steps"
    );
    (0..steps)
        .map(|i| median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .sum()
}

/// Nearest-rank percentile `q` in `(0, 1)`, or an error when fewer than
/// [`MIN_BEYOND`] samples lie above the rank.
pub fn percentile(xs: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    let n = xs.len();
    let rank = (q * n as f64).ceil() as usize; // 1-based
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs at least {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: v[rank - 1],
        samples: n,
        beyond,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn step_medians_discard_one_slow_step() {
        let reps = vec![vec![1.0, 10.0], vec![1.0, 30.0], vec![5.0, 10.0]];
        assert_eq!(sum_of_step_medians(&reps), 11.0);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 above it.
        let p = percentile(&xs, 0.90).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (89.0, 100, 10));
        // p91 leaves 9: refused.
        assert!(percentile(&xs, 0.91).is_err());
        // p99 needs 1000 samples.
        assert!(percentile(&xs, 0.99).is_err());
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99).unwrap().beyond, 10);
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&xs[..19], 0.5).is_err());
        assert!(percentile(&xs[..20], 0.5).is_ok());
    }
}
