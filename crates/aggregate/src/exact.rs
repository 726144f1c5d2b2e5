//! Centralised (exact) reference aggregates.

/// All standard aggregates of a value vector, computed exactly in one pass.
/// Used as ground truth when measuring the error of gossip estimates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExactAggregates {
    /// Number of values.
    pub count: usize,
    /// Maximum value (`-inf` for an empty input).
    pub max: f64,
    /// Minimum value (`+inf` for an empty input).
    pub min: f64,
    /// Sum of values.
    pub sum: f64,
    /// Arithmetic mean (0 for an empty input).
    pub average: f64,
}

impl ExactAggregates {
    /// Compute all aggregates of `values`.
    pub fn of(values: &[f64]) -> Self {
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        let mut sum = 0.0;
        for &v in values {
            max = max.max(v);
            min = min.min(v);
            sum += v;
        }
        let count = values.len();
        let average = if count == 0 { 0.0 } else { sum / count as f64 };
        ExactAggregates {
            count,
            max,
            min,
            sum,
            average,
        }
    }

    /// Rank of `target`: number of values strictly smaller than it.
    pub fn rank_of(values: &[f64], target: f64) -> usize {
        values.iter().filter(|&&v| v < target).count()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on a sorted copy.
    pub fn quantile(values: &[f64], q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if values.is_empty() {
            return f64::NAN;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN values"));
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn of_small_vector() {
        let e = ExactAggregates::of(&[2.0, -1.0, 4.0, 3.0]);
        assert_eq!(e.count, 4);
        assert_eq!(e.max, 4.0);
        assert_eq!(e.min, -1.0);
        assert_eq!(e.sum, 8.0);
        assert_eq!(e.average, 2.0);
    }

    #[test]
    fn of_empty_vector() {
        let e = ExactAggregates::of(&[]);
        assert_eq!(e.count, 0);
        assert_eq!(e.max, f64::NEG_INFINITY);
        assert_eq!(e.min, f64::INFINITY);
        assert_eq!(e.sum, 0.0);
        assert_eq!(e.average, 0.0);
    }

    #[test]
    fn rank_and_quantile() {
        let values = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(ExactAggregates::rank_of(&values, 3.0), 2);
        assert_eq!(ExactAggregates::quantile(&values, 0.0), 1.0);
        assert_eq!(ExactAggregates::quantile(&values, 0.5), 3.0);
        assert_eq!(ExactAggregates::quantile(&values, 1.0), 5.0);
    }

    #[test]
    fn quantile_of_empty_is_nan() {
        assert!(ExactAggregates::quantile(&[], 0.5).is_nan());
    }

    proptest! {
        #[test]
        fn min_le_average_le_max(values in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
            let e = ExactAggregates::of(&values);
            prop_assert!(e.min <= e.average + 1e-9);
            prop_assert!(e.average <= e.max + 1e-9);
        }

        #[test]
        fn rank_bounded_by_count(values in proptest::collection::vec(-1e3f64..1e3, 0..200),
                                 target in -1e3f64..1e3) {
            let r = ExactAggregates::rank_of(&values, target);
            prop_assert!(r <= values.len());
        }
    }
}
