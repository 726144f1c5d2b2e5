//! Empirical companion to the address-oblivious lower bound (Theorem 15).
//!
//! Theorem 15 proves that *any* address-oblivious algorithm needs
//! `Ω(n log n)` messages to compute Max, regardless of round count or message
//! size. This module instruments the two canonical address-oblivious
//! protocols (uniform push and uniform push-pull gossip) and records how many
//! messages they actually need before half / 90% / all of the nodes know the
//! maximum — empirically confirming the `Θ(n log n)` scaling and quantifying
//! the gap to the (non-address-oblivious) DRR-gossip.

use crate::push_max::{push_max, PushMaxConfig, PushMaxOutcome};
use gossip_net::Network;

/// Which address-oblivious protocol to measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObliviousProtocol {
    /// Uniform push gossip.
    Push,
    /// Uniform push-pull gossip.
    PushPull,
}

impl ObliviousProtocol {
    /// Name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            ObliviousProtocol::Push => "uniform-push",
            ObliviousProtocol::PushPull => "uniform-push-pull",
        }
    }
}

/// Message counts at the coverage thresholds used by the lower-bound
/// experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObliviousLowerBoundResult {
    /// Network size.
    pub n: usize,
    /// Protocol measured.
    pub protocol: ObliviousProtocol,
    /// Messages sent when ≥ 50% of the alive nodes knew the maximum
    /// (the adversary argument of Theorem 15 targets exactly this point).
    pub messages_half: u64,
    /// Messages sent when ≥ 90% knew the maximum.
    pub messages_ninety: u64,
    /// Messages sent when every alive node knew the maximum.
    pub messages_all: u64,
    /// Rounds until full coverage.
    pub rounds_all: u64,
}

impl ObliviousLowerBoundResult {
    /// `messages_all / (n · log₂ n)` — should be Θ(1) per Theorem 15.
    pub fn normalized_by_n_log_n(&self) -> f64 {
        let n = self.n as f64;
        self.messages_all as f64 / (n * n.log2())
    }
}

/// Run the selected address-oblivious protocol to completion and extract the
/// coverage milestones.
pub fn oblivious_max_lower_bound(
    net: &mut Network,
    values: &[f64],
    protocol: ObliviousProtocol,
) -> ObliviousLowerBoundResult {
    let cfg = PushMaxConfig {
        rounds_factor: 16.0,
        pull: matches!(protocol, ObliviousProtocol::PushPull),
        stop_at_full_coverage: true,
    };
    let out: PushMaxOutcome = push_max(net, values, &cfg);
    let all = out.messages_until_coverage(1.0).unwrap_or(out.messages);
    ObliviousLowerBoundResult {
        n: net.n(),
        protocol,
        messages_half: out.messages_until_coverage(0.5).unwrap_or(all),
        messages_ninety: out.messages_until_coverage(0.9).unwrap_or(all),
        messages_all: all,
        rounds_all: out.rounds_until_coverage(1.0).unwrap_or(out.rounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::SimConfig;

    fn values(n: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        v[n / 3] = 1.0; // single witness: the adversarially hard case
        v
    }

    #[test]
    fn thresholds_are_ordered() {
        let n = 2048;
        let mut net = Network::new(SimConfig::new(n).with_seed(3));
        let r = oblivious_max_lower_bound(&mut net, &values(n), ObliviousProtocol::Push);
        assert!(r.messages_half <= r.messages_ninety);
        assert!(r.messages_ninety <= r.messages_all);
        assert!(r.rounds_all >= 1);
    }

    #[test]
    fn push_messages_scale_as_n_log_n() {
        let n = 1 << 12;
        let mut net = Network::new(SimConfig::new(n).with_seed(5));
        let r = oblivious_max_lower_bound(&mut net, &values(n), ObliviousProtocol::Push);
        let ratio = r.normalized_by_n_log_n();
        assert!(ratio > 0.4 && ratio < 4.0, "ratio = {ratio}");
    }

    #[test]
    fn push_pull_is_also_n_log_n_but_cheaper_in_rounds() {
        let n = 1 << 12;
        let vals = values(n);
        let push = {
            let mut net = Network::new(SimConfig::new(n).with_seed(7));
            oblivious_max_lower_bound(&mut net, &vals, ObliviousProtocol::Push)
        };
        let push_pull = {
            let mut net = Network::new(SimConfig::new(n).with_seed(7));
            oblivious_max_lower_bound(&mut net, &vals, ObliviousProtocol::PushPull)
        };
        assert!(push_pull.rounds_all <= push.rounds_all);
        assert!(push_pull.normalized_by_n_log_n() > 0.4);
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(
            ObliviousProtocol::Push.name(),
            ObliviousProtocol::PushPull.name()
        );
    }

    #[test]
    fn ratio_is_roughly_constant_across_doubling_n(/* Θ(n log n) shape */) {
        let ratio_at = |n: usize| {
            let mut net = Network::new(SimConfig::new(n).with_seed(11));
            oblivious_max_lower_bound(&mut net, &values(n), ObliviousProtocol::Push)
                .normalized_by_n_log_n()
        };
        let small = ratio_at(1 << 10);
        let large = ratio_at(1 << 13);
        assert!(
            (small / large) < 2.5 && (large / small) < 2.5,
            "ratios {small} vs {large} are not within a constant factor"
        );
    }
}
