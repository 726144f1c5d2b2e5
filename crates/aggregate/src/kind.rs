//! Dynamic aggregate selection for the experiment harness and CLI.

use crate::functions::{Aggregate, Average, Count, Max, Min, Rank, Sum};

/// A dynamically-chosen aggregate function.
///
/// The statically-typed [`Aggregate`] implementations are what the protocol
/// code is generic over; `AggregateKind` is the runtime selector used by the
/// experiments binary and the examples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggregateKind {
    /// Maximum value.
    Max,
    /// Minimum value.
    Min,
    /// Sum of values.
    Sum,
    /// Number of nodes.
    Count,
    /// Arithmetic mean.
    Average,
    /// Rank of a target value (number of strictly smaller values).
    Rank(f64),
}

impl AggregateKind {
    /// All parameter-free kinds.
    pub const BASIC: [AggregateKind; 5] = [
        AggregateKind::Max,
        AggregateKind::Min,
        AggregateKind::Sum,
        AggregateKind::Count,
        AggregateKind::Average,
    ];

    /// Name used in tables and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateKind::Max => "max",
            AggregateKind::Min => "min",
            AggregateKind::Sum => "sum",
            AggregateKind::Count => "count",
            AggregateKind::Average => "average",
            AggregateKind::Rank(_) => "rank",
        }
    }

    /// Parse a CLI-style name. `rank:<target>` selects [`AggregateKind::Rank`].
    pub fn parse(s: &str) -> Option<Self> {
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "max" => Some(AggregateKind::Max),
            "min" => Some(AggregateKind::Min),
            "sum" => Some(AggregateKind::Sum),
            "count" => Some(AggregateKind::Count),
            "average" | "avg" | "ave" | "mean" => Some(AggregateKind::Average),
            other => other
                .strip_prefix("rank:")
                .and_then(|t| t.parse::<f64>().ok())
                .map(AggregateKind::Rank),
        }
    }

    /// Exact (centralised) value of this aggregate over `values`.
    pub fn exact(&self, values: &[f64]) -> f64 {
        match self {
            AggregateKind::Max => Max.exact(values),
            AggregateKind::Min => Min.exact(values),
            AggregateKind::Sum => Sum.exact(values),
            AggregateKind::Count => Count.exact(values),
            AggregateKind::Average => Average.exact(values),
            AggregateKind::Rank(t) => Rank::of(*t).exact(values),
        }
    }

    /// Whether this aggregate is computed by DRR-gossip-max machinery
    /// (idempotent, order/extremum style) rather than DRR-gossip-ave
    /// machinery (sum/average style).
    pub fn is_extremum(&self) -> bool {
        matches!(self, AggregateKind::Max | AggregateKind::Min)
    }
}

impl std::fmt::Display for AggregateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateKind::Rank(t) => write!(f, "rank:{t}"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_names() {
        for kind in AggregateKind::BASIC {
            assert_eq!(AggregateKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(AggregateKind::parse("AVG"), Some(AggregateKind::Average));
        assert_eq!(AggregateKind::parse("mean"), Some(AggregateKind::Average));
        assert_eq!(
            AggregateKind::parse("rank:3.5"),
            Some(AggregateKind::Rank(3.5))
        );
        assert_eq!(AggregateKind::parse("bogus"), None);
        assert_eq!(AggregateKind::parse("rank:abc"), None);
    }

    #[test]
    fn exact_delegates_to_static_impls() {
        let values = [1.0, 5.0, 2.0, 2.0];
        assert_eq!(AggregateKind::Max.exact(&values), 5.0);
        assert_eq!(AggregateKind::Min.exact(&values), 1.0);
        assert_eq!(AggregateKind::Sum.exact(&values), 10.0);
        assert_eq!(AggregateKind::Count.exact(&values), 4.0);
        assert_eq!(AggregateKind::Average.exact(&values), 2.5);
        assert_eq!(AggregateKind::Rank(2.0).exact(&values), 1.0);
    }

    #[test]
    fn extremum_classification() {
        assert!(AggregateKind::Max.is_extremum());
        assert!(AggregateKind::Min.is_extremum());
        assert!(!AggregateKind::Average.is_extremum());
        assert!(!AggregateKind::Sum.is_extremum());
    }

    #[test]
    fn display_matches_parse() {
        let kinds = [
            AggregateKind::Max,
            AggregateKind::Average,
            AggregateKind::Rank(1.25),
        ];
        for k in kinds {
            assert_eq!(AggregateKind::parse(&k.to_string()), Some(k));
        }
    }
}
