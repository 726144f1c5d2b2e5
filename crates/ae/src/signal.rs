//! The changing input signal that continuous aggregation tracks.
//!
//! One-shot protocols aggregate a frozen value vector; the anti-entropy
//! layer instead tracks a **moving** per-node signal. [`SignalModel`] is a
//! closed-form signal — a deterministic per-node base level plus a global
//! linear drift — so any observer (a node, the experiment harness, a test)
//! can evaluate the true value of any node at any virtual instant without
//! sharing state, and the exact network-wide mean is available at every
//! sampling point for staleness measurement.

use gossip_net::NodeId;

/// A deterministic per-node signal: `value(i, t) = base(i) + drift · t`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SignalModel {
    /// Lower bound of the per-node base level.
    pub lo: f64,
    /// Upper bound (exclusive) of the per-node base level.
    pub hi: f64,
    /// Global drift in value units per virtual second; every node's signal
    /// moves at this rate, so the true mean moves at it too and stale
    /// entries are wrong by `drift · age`.
    pub drift_per_s: f64,
}

impl SignalModel {
    /// Bases uniform in `[lo, hi)`, no drift.
    pub fn uniform(lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "signal range must be non-empty ({lo}..{hi})");
        SignalModel {
            lo,
            hi,
            drift_per_s: 0.0,
        }
    }

    /// Add a global drift (value units per virtual second).
    pub fn with_drift_per_s(mut self, drift: f64) -> Self {
        assert!(drift.is_finite(), "drift must be finite");
        self.drift_per_s = drift;
        self
    }

    /// The node's base level: a [`mix64`](gossip_net::mix64) hash of the id
    /// mapped into `[lo, hi)` — stable for the whole run, independent of
    /// any RNG stream.
    pub fn base(&self, node: NodeId) -> f64 {
        let z = gossip_net::mix64((node.index() as u64).wrapping_add(0x9E37_79B9_7F4A_7C15));
        let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.lo + (self.hi - self.lo) * unit
    }

    /// The node's true signal value at virtual instant `t_us`.
    pub fn value(&self, node: NodeId, t_us: u64) -> f64 {
        self.base(node) + self.drift_per_s * (t_us as f64 / 1e6)
    }

    /// Exact mean of the signal over `nodes` at instant `t_us` (`None` for
    /// an empty set).
    pub fn true_mean(&self, nodes: impl IntoIterator<Item = NodeId>, t_us: u64) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for v in nodes {
            sum += self.value(v, t_us);
            count += 1;
        }
        (count > 0).then(|| sum / count as f64)
    }
}

impl Default for SignalModel {
    fn default() -> Self {
        SignalModel::uniform(0.0, 10_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bases_are_stable_spread_and_in_range() {
        let s = SignalModel::uniform(100.0, 200.0);
        let mut distinct = std::collections::HashSet::new();
        for i in 0..500 {
            let b = s.base(NodeId::new(i));
            assert!((100.0..200.0).contains(&b), "base {b} out of range");
            assert_eq!(b, s.base(NodeId::new(i)), "stable per node");
            distinct.insert(b.to_bits());
        }
        assert!(distinct.len() > 490, "hash spreads the bases");
    }

    #[test]
    fn drift_moves_value_and_mean_linearly() {
        let s = SignalModel::uniform(0.0, 10.0).with_drift_per_s(6.0);
        let v = NodeId::new(3);
        assert_eq!(s.value(v, 0), s.base(v));
        let dv = s.value(v, 500_000) - s.value(v, 0);
        assert!((dv - 3.0).abs() < 1e-9, "0.5 s × 6/s = 3, got {dv}");
        let nodes = || (0..8).map(NodeId::new);
        let m0 = s.true_mean(nodes(), 0).unwrap();
        let m1 = s.true_mean(nodes(), 1_000_000).unwrap();
        assert!((m1 - m0 - 6.0).abs() < 1e-9);
        assert_eq!(s.true_mean(std::iter::empty(), 0), None);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_rejected() {
        let _ = SignalModel::uniform(5.0, 5.0);
    }
}
