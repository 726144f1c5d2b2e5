//! Uniform gossip for Max: address-oblivious push (and push-pull) gossip.
//!
//! Every node holds a current estimate of the maximum (initially its own
//! value). In each round every node sends its estimate to a uniformly random
//! node (push), and in the push-pull variant the called node answers with its
//! own estimate. Both are **address-oblivious**: the decision to send never
//! depends on the partner's address. All nodes learn the maximum after
//! `Θ(log n)` rounds, for a total of `Θ(n log n)` messages — the bound that
//! Theorem 15 proves is unavoidable for any address-oblivious algorithm.
//!
//! The per-round coverage/message traces recorded here drive the
//! lower-bound experiment (E10).

use gossip_net::{Network, NodeId, Phase};

/// Configuration of uniform max gossip.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PushMaxConfig {
    /// Rounds = `⌈rounds_factor · log₂ n⌉`.
    pub rounds_factor: f64,
    /// Whether the called node replies with its own estimate (push-pull).
    pub pull: bool,
    /// Stop as soon as every alive node knows the true maximum (the oracle
    /// check is for measurement only and costs no messages).
    pub stop_at_full_coverage: bool,
}

impl Default for PushMaxConfig {
    fn default() -> Self {
        PushMaxConfig {
            rounds_factor: 4.0,
            pull: false,
            stop_at_full_coverage: false,
        }
    }
}

impl PushMaxConfig {
    /// Maximum number of rounds for an `n`-node network.
    pub fn max_rounds(&self, n: usize) -> u64 {
        ((f64::from(gossip_net::id_bits(n.max(2))) * self.rounds_factor).ceil() as u64).max(1)
    }
}

/// Outcome of uniform max gossip.
#[derive(Clone, Debug)]
pub struct PushMaxOutcome {
    /// Per-node estimate of the maximum (NaN at crashed nodes).
    pub estimates: Vec<f64>,
    /// The exact maximum over alive nodes.
    pub true_max: f64,
    /// Rounds executed.
    pub rounds: u64,
    /// Messages sent.
    pub messages: u64,
    /// Fraction of alive nodes knowing the true maximum after each round.
    pub coverage_trace: Vec<f64>,
    /// Cumulative messages after each round.
    pub message_trace: Vec<u64>,
}

impl PushMaxOutcome {
    /// Fraction of alive nodes that ended up with the true maximum.
    pub fn final_coverage(&self) -> f64 {
        self.coverage_trace.last().copied().unwrap_or(0.0)
    }

    /// Messages that had been sent when coverage first reached `threshold`,
    /// if it ever did. This is the quantity Theorem 15 lower-bounds by
    /// `Ω(n log n)` for address-oblivious protocols.
    pub fn messages_until_coverage(&self, threshold: f64) -> Option<u64> {
        self.coverage_trace
            .iter()
            .position(|&c| c >= threshold)
            .map(|i| self.message_trace[i])
    }

    /// Rounds until coverage first reached `threshold`.
    pub fn rounds_until_coverage(&self, threshold: f64) -> Option<u64> {
        self.coverage_trace
            .iter()
            .position(|&c| c >= threshold)
            .map(|i| i as u64 + 1)
    }
}

/// Run uniform (address-oblivious) max gossip.
pub fn push_max(net: &mut Network, values: &[f64], config: &PushMaxConfig) -> PushMaxOutcome {
    let n = net.n();
    assert_eq!(values.len(), n);
    let messages_before = net.metrics().total_messages();
    let payload_bits = net.config().value_bits();

    let mut estimate: Vec<f64> = (0..n)
        .map(|i| {
            if net.is_alive(NodeId::new(i)) {
                values[i]
            } else {
                f64::NAN
            }
        })
        .collect();
    let true_max = net
        .alive_nodes()
        .map(|v| values[v.index()])
        .fold(f64::NEG_INFINITY, f64::max);
    let alive: Vec<NodeId> = net.alive_nodes().collect();
    let alive_count = alive.len().max(1) as f64;

    let max_rounds = config.max_rounds(n);
    let mut coverage_trace = Vec::with_capacity(max_rounds as usize);
    let mut message_trace = Vec::with_capacity(max_rounds as usize);
    let mut rounds = 0;
    for _ in 0..max_rounds {
        let snapshot = estimate.clone();
        let mut incoming: Vec<(usize, f64)> = Vec::new();
        for &v in &alive {
            let target = net.sample_uniform();
            if net.send(v, target, Phase::UniformGossip, payload_bits) {
                incoming.push((target.index(), snapshot[v.index()]));
            }
            if config.pull {
                // The called node replies with its own estimate.
                if net.is_alive(target) && net.send(target, v, Phase::UniformGossip, payload_bits) {
                    incoming.push((v.index(), snapshot[target.index()]));
                }
            }
        }
        for (idx, value) in incoming {
            if !estimate[idx].is_nan() {
                estimate[idx] = estimate[idx].max(value);
            }
        }
        net.advance_round();
        rounds += 1;
        let coverage = alive
            .iter()
            .filter(|v| estimate[v.index()] == true_max)
            .count() as f64
            / alive_count;
        coverage_trace.push(coverage);
        message_trace.push(net.metrics().total_messages() - messages_before);
        if config.stop_at_full_coverage && coverage >= 1.0 {
            break;
        }
    }

    PushMaxOutcome {
        estimates: estimate,
        true_max,
        rounds,
        messages: net.metrics().total_messages() - messages_before,
        coverage_trace,
        message_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::SimConfig;

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 71) % 4099) as f64).collect()
    }

    #[test]
    fn everyone_learns_the_max() {
        let n = 2000;
        let mut net = Network::new(SimConfig::new(n).with_seed(3));
        let out = push_max(&mut net, &values(n), &PushMaxConfig::default());
        assert_eq!(out.final_coverage(), 1.0);
        for v in net.alive_nodes() {
            assert_eq!(out.estimates[v.index()], out.true_max);
        }
    }

    #[test]
    fn messages_are_n_per_round_for_push_only() {
        let n = 1024;
        let mut net = Network::new(SimConfig::new(n).with_seed(5));
        let out = push_max(&mut net, &values(n), &PushMaxConfig::default());
        assert_eq!(out.messages, out.rounds * n as u64);
    }

    #[test]
    fn push_pull_doubles_messages_but_speeds_convergence() {
        let n = 4096;
        let vals = values(n);
        let push_only = {
            let mut net = Network::new(SimConfig::new(n).with_seed(7));
            push_max(
                &mut net,
                &vals,
                &PushMaxConfig {
                    stop_at_full_coverage: true,
                    ..PushMaxConfig::default()
                },
            )
        };
        let push_pull = {
            let mut net = Network::new(SimConfig::new(n).with_seed(7));
            push_max(
                &mut net,
                &vals,
                &PushMaxConfig {
                    pull: true,
                    stop_at_full_coverage: true,
                    ..PushMaxConfig::default()
                },
            )
        };
        assert!(push_pull.rounds <= push_only.rounds);
        assert!(push_pull.messages <= 2 * push_pull.rounds * n as u64 + 1);
    }

    #[test]
    fn messages_until_full_coverage_scale_like_n_log_n(/* Theorem 15 empirical */) {
        let n = 1 << 12;
        let mut net = Network::new(SimConfig::new(n).with_seed(9));
        let cfg = PushMaxConfig {
            stop_at_full_coverage: true,
            rounds_factor: 8.0,
            ..PushMaxConfig::default()
        };
        let out = push_max(&mut net, &values(n), &cfg);
        let msgs = out.messages_until_coverage(1.0).unwrap() as f64;
        let n_f = n as f64;
        assert!(msgs > 0.5 * n_f * n_f.log2(), "messages = {msgs}");
        assert!(msgs < 4.0 * n_f * n_f.log2(), "messages = {msgs}");
    }

    #[test]
    fn coverage_trace_is_monotone() {
        let n = 1000;
        let mut net = Network::new(SimConfig::new(n).with_seed(11));
        let out = push_max(&mut net, &values(n), &PushMaxConfig::default());
        for w in out.coverage_trace.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(out.rounds_until_coverage(0.5).unwrap() <= out.rounds_until_coverage(1.0).unwrap());
    }

    #[test]
    fn handles_loss_and_crashes() {
        let n = 2000;
        let mut net = Network::new(
            SimConfig::new(n)
                .with_seed(13)
                .with_loss_prob(0.1)
                .with_initial_crash_prob(0.2),
        );
        let out = push_max(&mut net, &values(n), &PushMaxConfig::default());
        assert!(
            out.final_coverage() > 0.999,
            "coverage = {}",
            out.final_coverage()
        );
    }

    #[test]
    fn single_witness_value_still_spreads() {
        let n = 2000;
        let mut vals = vec![0.0; n];
        vals[137] = 99.0;
        let mut net = Network::new(SimConfig::new(n).with_seed(15));
        let out = push_max(&mut net, &vals, &PushMaxConfig::default());
        assert_eq!(out.true_max, 99.0);
        assert_eq!(out.final_coverage(), 1.0);
    }
}
