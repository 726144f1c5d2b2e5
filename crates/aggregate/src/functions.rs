//! The [`Aggregate`] trait and standard aggregate functions.
//!
//! An aggregate is described by a mergeable *state*: every node starts with
//! the state of its own value (`lift`), states are merged pairwise with a
//! commutative and associative `combine` (this is what convergecast and
//! gossip both do), and the final answer is read out with `finalize`.
//! This is precisely the structure that Phase II (convergecast) and the
//! tree-root gossip of Phase III operate on.

/// A distributive/algebraic aggregate function computable by combining
/// partial states.
pub trait Aggregate: Clone {
    /// The mergeable partial state carried by messages.
    type State: Clone + PartialEq + std::fmt::Debug;

    /// Human-readable name ("max", "average", ...).
    fn name(&self) -> &'static str;

    /// The state representing a single node holding `value`.
    fn lift(&self, value: f64) -> Self::State;

    /// The state of an empty set of nodes (identity of `combine`).
    fn identity(&self) -> Self::State;

    /// Merge two partial states. Must be commutative and associative with
    /// `identity` as the neutral element.
    fn combine(&self, a: &Self::State, b: &Self::State) -> Self::State;

    /// Read the aggregate value out of a final state.
    fn finalize(&self, state: &Self::State) -> f64;

    /// Convenience: the exact aggregate of a slice of values, computed
    /// centrally. Used as ground truth in tests and experiments.
    fn exact(&self, values: &[f64]) -> f64 {
        let mut acc = self.identity();
        for &v in values {
            let lifted = self.lift(v);
            acc = self.combine(&acc, &lifted);
        }
        self.finalize(&acc)
    }
}

/// Maximum of the node values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Max;

impl Aggregate for Max {
    type State = f64;

    fn name(&self) -> &'static str {
        "max"
    }

    fn lift(&self, value: f64) -> f64 {
        value
    }

    fn identity(&self) -> f64 {
        f64::NEG_INFINITY
    }

    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a.max(*b)
    }

    fn finalize(&self, state: &f64) -> f64 {
        *state
    }
}

/// Minimum of the node values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Min;

impl Aggregate for Min {
    type State = f64;

    fn name(&self) -> &'static str {
        "min"
    }

    fn lift(&self, value: f64) -> f64 {
        value
    }

    fn identity(&self) -> f64 {
        f64::INFINITY
    }

    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a.min(*b)
    }

    fn finalize(&self, state: &f64) -> f64 {
        *state
    }
}

/// Sum of the node values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sum;

impl Aggregate for Sum {
    type State = f64;

    fn name(&self) -> &'static str {
        "sum"
    }

    fn lift(&self, value: f64) -> f64 {
        value
    }

    fn identity(&self) -> f64 {
        0.0
    }

    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }

    fn finalize(&self, state: &f64) -> f64 {
        *state
    }
}

/// Number of nodes (the "size count" `w_i` of Algorithm 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Count;

impl Aggregate for Count {
    type State = f64;

    fn name(&self) -> &'static str {
        "count"
    }

    fn lift(&self, _value: f64) -> f64 {
        1.0
    }

    fn identity(&self) -> f64 {
        0.0
    }

    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }

    fn finalize(&self, state: &f64) -> f64 {
        *state
    }
}

/// The `(sum, count)` pair state of [`Average`]. This is exactly the row
/// vector `(v_i, w_i)` that Convergecast-sum (Algorithm 3) and Gossip-ave
/// (Algorithm 6) carry in their messages.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AverageState {
    /// Sum of values seen so far.
    pub sum: f64,
    /// Number of values seen so far.
    pub count: f64,
}

/// Average (arithmetic mean) of the node values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Average;

impl Aggregate for Average {
    type State = AverageState;

    fn name(&self) -> &'static str {
        "average"
    }

    fn lift(&self, value: f64) -> AverageState {
        AverageState {
            sum: value,
            count: 1.0,
        }
    }

    fn identity(&self) -> AverageState {
        AverageState {
            sum: 0.0,
            count: 0.0,
        }
    }

    fn combine(&self, a: &AverageState, b: &AverageState) -> AverageState {
        AverageState {
            sum: a.sum + b.sum,
            count: a.count + b.count,
        }
    }

    fn finalize(&self, state: &AverageState) -> f64 {
        if state.count == 0.0 {
            0.0
        } else {
            state.sum / state.count
        }
    }
}

/// Rank of a target value: the number of node values strictly smaller than
/// the target. (The paper lists Rank among the aggregates computable by the
/// same machinery; it is a Sum of indicator values.)
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rank {
    /// The value whose rank is being computed.
    pub target: f64,
}

impl Rank {
    /// Rank of `target` among the node values.
    pub fn of(target: f64) -> Self {
        Rank { target }
    }
}

impl Aggregate for Rank {
    type State = f64;

    fn name(&self) -> &'static str {
        "rank"
    }

    fn lift(&self, value: f64) -> f64 {
        if value < self.target {
            1.0
        } else {
            0.0
        }
    }

    fn identity(&self) -> f64 {
        0.0
    }

    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }

    fn finalize(&self, state: &f64) -> f64 {
        *state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn max_and_min_basic() {
        let values = [3.0, -1.0, 7.5, 2.0];
        assert_eq!(Max.exact(&values), 7.5);
        assert_eq!(Min.exact(&values), -1.0);
    }

    #[test]
    fn sum_count_average_basic() {
        let values = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(Sum.exact(&values), 10.0);
        assert_eq!(Count.exact(&values), 4.0);
        assert_eq!(Average.exact(&values), 2.5);
    }

    #[test]
    fn rank_counts_strictly_smaller_values() {
        let values = [1.0, 2.0, 2.0, 3.0, 10.0];
        assert_eq!(Rank::of(2.0).exact(&values), 1.0);
        assert_eq!(Rank::of(5.0).exact(&values), 4.0);
        assert_eq!(Rank::of(0.0).exact(&values), 0.0);
    }

    #[test]
    fn empty_input_finalizes_to_identity_semantics() {
        assert_eq!(Max.exact(&[]), f64::NEG_INFINITY);
        assert_eq!(Min.exact(&[]), f64::INFINITY);
        assert_eq!(Sum.exact(&[]), 0.0);
        assert_eq!(Count.exact(&[]), 0.0);
        assert_eq!(Average.exact(&[]), 0.0);
    }

    #[test]
    fn average_of_single_value_is_that_value() {
        assert_eq!(Average.exact(&[42.0]), 42.0);
    }

    fn assert_combine_laws<A: Aggregate>(agg: &A, a: f64, b: f64, c: f64)
    where
        A::State: PartialEq,
    {
        let (sa, sb, sc) = (agg.lift(a), agg.lift(b), agg.lift(c));
        // commutativity
        assert_eq!(agg.combine(&sa, &sb), agg.combine(&sb, &sa));
        // associativity
        let left = agg.combine(&agg.combine(&sa, &sb), &sc);
        let right = agg.combine(&sa, &agg.combine(&sb, &sc));
        assert_eq!(agg.finalize(&left), agg.finalize(&right));
        // identity
        assert_eq!(agg.combine(&sa, &agg.identity()), sa);
        assert_eq!(agg.combine(&agg.identity(), &sa), sa);
    }

    proptest! {
        #[test]
        fn combine_laws_hold(a in -1e6f64..1e6, b in -1e6f64..1e6, c in -1e6f64..1e6) {
            assert_combine_laws(&Max, a, b, c);
            assert_combine_laws(&Min, a, b, c);
            assert_combine_laws(&Count, a, b, c);
            assert_combine_laws(&Rank::of(0.0), a, b, c);
        }

        #[test]
        fn sum_and_average_match_reference(values in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
            let reference_sum: f64 = values.iter().sum();
            let reference_avg = reference_sum / values.len() as f64;
            prop_assert!((Sum.exact(&values) - reference_sum).abs() < 1e-6);
            prop_assert!((Average.exact(&values) - reference_avg).abs() < 1e-6);
        }

        #[test]
        fn max_exact_matches_iterator_max(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let m = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(Max.exact(&values), m);
        }

        #[test]
        fn rank_is_monotone_in_target(values in proptest::collection::vec(-100f64..100.0, 1..100),
                                      t1 in -100f64..100.0, t2 in -100f64..100.0) {
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(Rank::of(lo).exact(&values) <= Rank::of(hi).exact(&values));
        }
    }
}
