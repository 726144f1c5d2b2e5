//! Uniform gossip for Average/Sum: the Push-Sum protocol of Kempe, Dobra &
//! Gehrke (FOCS 2003) — the paper's primary comparison point.
//!
//! Every node maintains a pair `(s, w)` initialised to `(value, 1)`. In each
//! round every node keeps half of its pair and sends the other half to a
//! uniformly random node; its estimate of the average is `s/w`. The protocol
//! is **address-oblivious**, takes `O(log n + log 1/ε)` rounds and
//! `O(n (log n + log 1/ε))` messages — a `log n / log log n` factor more
//! messages than DRR-gossip (Table 1).
//!
//! [`routed_push_sum_average`] is the sparse-network variant where each push
//! must be routed to its random destination through the overlay
//! ([`RandomNodeSampler`]), costing `M` messages and `T` rounds per push —
//! `O(n log² n)` messages and `O(log² n)` time on Chord (Section 4).

use gossip_aggregate::relative_error;
use gossip_net::{NodeId, Phase, Transport};
use gossip_topology::RandomNodeSampler;

/// Configuration of push-sum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PushSumConfig {
    /// Round multiplier: rounds = `⌈rounds_factor · (log₂ n + log₂(1/ε))⌉`.
    pub rounds_factor: f64,
    /// Target relative error ε.
    pub epsilon: f64,
}

impl Default for PushSumConfig {
    fn default() -> Self {
        PushSumConfig {
            rounds_factor: 1.0,
            epsilon: 1e-4,
        }
    }
}

impl PushSumConfig {
    /// Number of rounds for an `n`-node network.
    pub fn rounds(&self, n: usize) -> u64 {
        let log_n = f64::from(gossip_net::id_bits(n.max(2)));
        let log_eps = (1.0 / self.epsilon).log2().max(0.0);
        ((self.rounds_factor * (log_n + log_eps)).ceil() as u64).max(1)
    }
}

/// Outcome of a push-sum run.
#[derive(Clone, Debug)]
pub struct PushSumOutcome {
    /// Per-node estimate of the average (NaN at crashed nodes).
    pub estimates: Vec<f64>,
    /// The exact average over alive nodes.
    pub true_average: f64,
    /// Rounds used.
    pub rounds: u64,
    /// Messages sent.
    pub messages: u64,
    /// Maximum (over alive nodes) relative error after each round.
    pub max_error_trace: Vec<f64>,
}

impl PushSumOutcome {
    /// Largest relative error over alive nodes at the end of the run.
    pub fn max_relative_error(&self) -> f64 {
        self.max_error_trace
            .last()
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// First round (1-based) at which the maximum relative error dropped
    /// below `epsilon`, if it ever did.
    pub fn rounds_to_error(&self, epsilon: f64) -> Option<u64> {
        self.max_error_trace
            .iter()
            .position(|&e| e <= epsilon)
            .map(|i| i as u64 + 1)
    }
}

fn finish<T: Transport>(
    net: &T,
    sum: Vec<f64>,
    weight: Vec<f64>,
    true_average: f64,
    max_error_trace: Vec<f64>,
    rounds: u64,
    messages_before: u64,
) -> PushSumOutcome {
    let estimates: Vec<f64> = net
        .nodes()
        .map(|v| {
            let i = v.index();
            if net.is_alive(v) && weight[i] > 0.0 {
                sum[i] / weight[i]
            } else if net.is_alive(v) {
                0.0
            } else {
                f64::NAN
            }
        })
        .collect();
    PushSumOutcome {
        estimates,
        true_average,
        rounds,
        messages: net.metrics().total_messages() - messages_before,
        max_error_trace,
    }
}

fn max_error<T: Transport>(net: &T, sum: &[f64], weight: &[f64], truth: f64) -> f64 {
    net.alive_nodes()
        .map(|v| {
            let i = v.index();
            let est = if weight[i] > 0.0 {
                sum[i] / weight[i]
            } else {
                0.0
            };
            relative_error(est, truth)
        })
        .fold(0.0, f64::max)
}

/// Uniform-gossip push-sum on the complete-graph phone-call model.
pub fn push_sum_average<T: Transport>(
    net: &mut T,
    values: &[f64],
    config: &PushSumConfig,
) -> PushSumOutcome {
    let n = net.n();
    assert_eq!(values.len(), n);
    let messages_before = net.metrics().total_messages();
    let payload_bits = 2 * net.config().value_bits();

    let mut sum = vec![0.0; n];
    let mut weight = vec![0.0; n];
    let mut total = 0.0;
    let mut count = 0.0;
    for v in net.alive_nodes() {
        sum[v.index()] = values[v.index()];
        weight[v.index()] = 1.0;
        total += values[v.index()];
        count += 1.0;
    }
    let true_average = if count > 0.0 { total / count } else { 0.0 };

    let rounds = config.rounds(n);
    let mut trace = Vec::with_capacity(rounds as usize);
    let alive: Vec<NodeId> = net.alive_nodes().collect();
    for _ in 0..rounds {
        let mut incoming_sum = vec![0.0; n];
        let mut incoming_weight = vec![0.0; n];
        for &v in &alive {
            let i = v.index();
            let half_sum = sum[i] / 2.0;
            let half_weight = weight[i] / 2.0;
            sum[i] = half_sum;
            weight[i] = half_weight;
            let target = net.sample_uniform();
            if net.send(v, target, Phase::UniformGossip, payload_bits) {
                incoming_sum[target.index()] += half_sum;
                incoming_weight[target.index()] += half_weight;
            }
        }
        for i in 0..n {
            sum[i] += incoming_sum[i];
            weight[i] += incoming_weight[i];
        }
        net.advance_round();
        trace.push(max_error(net, &sum, &weight, true_average));
    }

    finish(
        net,
        sum,
        weight,
        true_average,
        trace,
        rounds,
        messages_before,
    )
}

/// Push-sum on a sparse network: each push is routed to a random node via the
/// sampler, charging one message per overlay hop and `T` rounds per gossip
/// round (uniform gossip has no trees to exploit, so *every* node routes a
/// message every round — this is the `O(n log² n)`-message Chord baseline of
/// Section 4).
pub fn routed_push_sum_average<T: Transport>(
    net: &mut T,
    sampler: &dyn RandomNodeSampler,
    values: &[f64],
    config: &PushSumConfig,
) -> PushSumOutcome {
    let n = net.n();
    assert_eq!(values.len(), n);
    let messages_before = net.metrics().total_messages();
    let payload_bits = 2 * net.config().value_bits();

    let mut sum = vec![0.0; n];
    let mut weight = vec![0.0; n];
    let mut total = 0.0;
    let mut count = 0.0;
    for v in net.alive_nodes() {
        sum[v.index()] = values[v.index()];
        weight[v.index()] = 1.0;
        total += values[v.index()];
        count += 1.0;
    }
    let true_average = if count > 0.0 { total / count } else { 0.0 };

    let rounds = config.rounds(n);
    let mut trace = Vec::with_capacity(rounds as usize);
    let alive: Vec<NodeId> = net.alive_nodes().collect();
    for _ in 0..rounds {
        let mut incoming_sum = vec![0.0; n];
        let mut incoming_weight = vec![0.0; n];
        for &v in &alive {
            let i = v.index();
            let half_sum = sum[i] / 2.0;
            let half_weight = weight[i] / 2.0;
            sum[i] = half_sum;
            weight[i] = half_weight;
            let mut rng = net.derive_rng(i as u64 ^ (net.round() << 24));
            let route = sampler.sample(v, &mut rng);
            // Route hop by hop; the push is lost if any hop drops it.
            let mut current = v;
            let mut delivered = true;
            for &hop in &route.path {
                if !net.send(current, hop, Phase::Routing, payload_bits) {
                    delivered = false;
                    break;
                }
                current = hop;
            }
            if delivered {
                incoming_sum[route.target.index()] += half_sum;
                incoming_weight[route.target.index()] += half_weight;
            }
        }
        for i in 0..n {
            sum[i] += incoming_sum[i];
            weight[i] += incoming_weight[i];
        }
        // Each gossip round costs T underlying rounds of routing.
        for _ in 0..sampler.rounds_per_sample().max(1) {
            net.advance_round();
        }
        trace.push(max_error(net, &sum, &weight, true_average));
    }

    finish(
        net,
        sum,
        weight,
        true_average,
        trace,
        rounds,
        messages_before,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::{Network, SimConfig};
    use gossip_topology::{ChordOverlay, ChordSampler};

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 97) % 1013) as f64).collect()
    }

    #[test]
    fn converges_to_true_average() {
        let n = 2000;
        let mut net = Network::new(SimConfig::new(n).with_seed(3));
        let vals = values(n);
        let out = push_sum_average(&mut net, &vals, &PushSumConfig::default());
        let exact = vals.iter().sum::<f64>() / n as f64;
        assert!((out.true_average - exact).abs() < 1e-9);
        assert!(
            out.max_relative_error() < 5e-3,
            "error = {}",
            out.max_relative_error()
        );
    }

    #[test]
    fn message_complexity_is_n_log_n_scale() {
        let n = 1 << 13;
        let mut net = Network::new(SimConfig::new(n).with_seed(5));
        let vals = values(n);
        let out = push_sum_average(&mut net, &vals, &PushSumConfig::default());
        // exactly one message per alive node per round
        assert_eq!(out.messages, out.rounds * n as u64);
        let n_f = n as f64;
        assert!(out.messages as f64 >= 0.5 * n_f * n_f.log2());
    }

    #[test]
    fn error_trace_is_decreasing_overall() {
        let n = 1000;
        let mut net = Network::new(SimConfig::new(n).with_seed(7));
        let vals = values(n);
        let out = push_sum_average(&mut net, &vals, &PushSumConfig::default());
        let early = out.max_error_trace[2];
        let late = *out.max_error_trace.last().unwrap();
        assert!(late < early);
        assert!(out.rounds_to_error(0.01).is_some());
        assert!(out.rounds_to_error(0.0).is_none() || out.max_relative_error() == 0.0);
    }

    #[test]
    fn tolerates_loss_and_crashes() {
        let n = 2000;
        let mut net = Network::new(
            SimConfig::new(n)
                .with_seed(9)
                .with_loss_prob(0.05)
                .with_initial_crash_prob(0.1),
        );
        let vals = values(n);
        let out = push_sum_average(&mut net, &vals, &PushSumConfig::default());
        assert!(
            out.max_relative_error() < 0.05,
            "error = {}",
            out.max_relative_error()
        );
        for v in net.nodes() {
            if !net.is_alive(v) {
                assert!(out.estimates[v.index()].is_nan());
            }
        }
    }

    #[test]
    fn constant_input_is_exact() {
        let n = 500;
        let mut net = Network::new(SimConfig::new(n).with_seed(11));
        let out = push_sum_average(&mut net, &vec![3.0; n], &PushSumConfig::default());
        for v in net.alive_nodes() {
            assert!((out.estimates[v.index()] - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn routed_variant_on_chord_costs_log_n_messages_per_push() {
        let n = 1 << 10;
        let overlay = ChordOverlay::new(n);
        let sampler = ChordSampler::new(&overlay);
        let mut net = Network::new(SimConfig::new(n).with_seed(13));
        let vals = values(n);
        let out = routed_push_sum_average(&mut net, &sampler, &vals, &PushSumConfig::default());
        assert!(
            out.max_relative_error() < 1e-2,
            "error = {}",
            out.max_relative_error()
        );
        // Each push costs up to log n hops, so messages ≈ rounds · n · Θ(log n):
        // strictly more than the flat-model n per round.
        assert!(out.messages > out.rounds * n as u64 * 2);
        assert!(out.messages < out.rounds * n as u64 * (gossip_net::id_bits(n) as u64 + 1));
    }

    #[test]
    fn deterministic_in_seed() {
        let n = 600;
        let vals = values(n);
        let run = || {
            let mut net = Network::new(SimConfig::new(n).with_seed(42).with_loss_prob(0.02));
            push_sum_average(&mut net, &vals, &PushSumConfig::default()).estimates
        };
        assert_eq!(run(), run());
    }
}
