//! Randomized rumor spreading (Karp, Schindelhauer, Shenker & Vöcking,
//! FOCS 2000).
//!
//! The reference point for the paper's separation result: spreading a single
//! rumor takes `O(log n)` rounds and only `O(n log log n)` rumor
//! transmissions with the push&pull + median-counter protocol, while
//! Theorem 15 shows that *aggregation* needs `Ω(n log n)` messages for any
//! address-oblivious protocol — aggregation is strictly harder than rumor
//! spreading in that model.
//!
//! The implementation follows the median-counter algorithm in spirit:
//!
//! * every node calls a uniformly random partner each round (push&pull);
//! * an informed node in state **Active** pushes the rumor; once its counter
//!   exceeds `ctr_max = O(log log n)` it turns **Passive** and stops pushing
//!   (but still answers pulls);
//! * an Active node increments its counter whenever it communicates with a
//!   partner that already knows the rumor with an equal-or-higher counter;
//! * uninformed nodes pull: if the called partner knows the rumor it answers
//!   with it.
//!
//! Only transmissions of the rumor itself are counted as messages, matching
//! Karp et al.'s communication-complexity accounting.

use gossip_net::{Network, NodeId, Phase};

/// Configuration of rumor spreading.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RumorConfig {
    /// Counter threshold after which an informed node stops pushing;
    /// `None` selects the paper's `⌈log₂ log₂ n⌉ + 2`.
    pub ctr_max: Option<u32>,
    /// Hard cap on rounds = `⌈rounds_factor · log₂ n⌉`.
    pub rounds_factor: f64,
    /// Disable the pull half (plain push protocol; needs `Θ(n log n)`
    /// transmissions — the contrast Karp et al. draw).
    pub push_only: bool,
}

impl Default for RumorConfig {
    fn default() -> Self {
        RumorConfig {
            ctr_max: None,
            rounds_factor: 8.0,
            push_only: false,
        }
    }
}

impl RumorConfig {
    fn counter_threshold(&self, n: usize) -> u32 {
        self.ctr_max.unwrap_or_else(|| {
            let log_n = f64::from(gossip_net::id_bits(n.max(4)));
            (log_n.log2().ceil() as u32) + 2
        })
    }

    fn max_rounds(&self, n: usize) -> u64 {
        ((f64::from(gossip_net::id_bits(n.max(2))) * self.rounds_factor).ceil() as u64).max(1)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum NodeState {
    Uninformed,
    Active(u32),
    Passive,
}

/// Outcome of a rumor-spreading run.
#[derive(Clone, Debug)]
pub struct RumorOutcome {
    /// Which nodes know the rumor at the end.
    pub informed: Vec<bool>,
    /// Fraction of alive nodes informed.
    pub informed_fraction: f64,
    /// Rounds executed.
    pub rounds: u64,
    /// Rumor transmissions (the communication complexity of Karp et al.).
    pub rumor_messages: u64,
    /// Fraction informed after each round.
    pub coverage_trace: Vec<f64>,
}

/// Spread a rumor from `source` to all nodes.
pub fn spread_rumor(net: &mut Network, source: NodeId, config: &RumorConfig) -> RumorOutcome {
    let n = net.n();
    let messages_before = net.metrics().total_messages();
    let rumor_bits = net.config().value_bits();
    let ctr_max = config.counter_threshold(n);
    let max_rounds = config.max_rounds(n);

    let mut state = vec![NodeState::Uninformed; n];
    if net.is_alive(source) {
        state[source.index()] = NodeState::Active(0);
    }
    let alive: Vec<NodeId> = net.alive_nodes().collect();
    let alive_count = alive.len().max(1) as f64;

    let mut coverage_trace = Vec::new();
    let mut rounds = 0;
    for _ in 0..max_rounds {
        let snapshot = state.clone();
        let mut newly_informed: Vec<usize> = Vec::new();
        let mut counter_bumps: Vec<usize> = Vec::new();
        for &caller in &alive {
            let callee = net.sample_other_than(caller);
            let caller_state = snapshot[caller.index()];
            let callee_state = snapshot[callee.index()];
            // Push: an Active caller transmits the rumor to the callee.
            if let NodeState::Active(c) = caller_state {
                if net.send(caller, callee, Phase::Rumor, rumor_bits) {
                    match callee_state {
                        NodeState::Uninformed => newly_informed.push(callee.index()),
                        NodeState::Active(c2) if c2 >= c => counter_bumps.push(caller.index()),
                        NodeState::Passive => counter_bumps.push(caller.index()),
                        NodeState::Active(_) => {}
                    }
                }
            }
            // Pull: an uninformed caller asks; an informed callee answers
            // with the rumor.
            if !config.push_only
                && matches!(caller_state, NodeState::Uninformed)
                && !matches!(callee_state, NodeState::Uninformed)
                && net.is_alive(callee)
                && net.send(callee, caller, Phase::Rumor, rumor_bits)
            {
                newly_informed.push(caller.index());
            }
        }
        for idx in newly_informed {
            if matches!(state[idx], NodeState::Uninformed) {
                state[idx] = NodeState::Active(0);
            }
        }
        for idx in counter_bumps {
            if let NodeState::Active(c) = state[idx] {
                state[idx] = if c + 1 > ctr_max {
                    NodeState::Passive
                } else {
                    NodeState::Active(c + 1)
                };
            }
        }
        net.advance_round();
        rounds += 1;
        let informed = alive
            .iter()
            .filter(|v| !matches!(state[v.index()], NodeState::Uninformed))
            .count() as f64
            / alive_count;
        coverage_trace.push(informed);
        let all_passive = alive
            .iter()
            .all(|v| !matches!(state[v.index()], NodeState::Active(_)));
        if informed >= 1.0 && all_passive {
            break;
        }
        if informed >= 1.0 && config.push_only {
            break;
        }
    }

    let informed: Vec<bool> = state
        .iter()
        .map(|s| !matches!(s, NodeState::Uninformed))
        .collect();
    let informed_fraction =
        alive.iter().filter(|v| informed[v.index()]).count() as f64 / alive_count;

    RumorOutcome {
        informed,
        informed_fraction,
        rounds,
        rumor_messages: net.metrics().total_messages() - messages_before,
        coverage_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::SimConfig;

    #[test]
    fn rumor_reaches_everyone() {
        let n = 4000;
        let mut net = Network::new(SimConfig::new(n).with_seed(3));
        let out = spread_rumor(&mut net, NodeId::new(0), &RumorConfig::default());
        assert_eq!(out.informed_fraction, 1.0);
    }

    #[test]
    fn rounds_are_logarithmic() {
        let n = 1 << 13;
        let mut net = Network::new(SimConfig::new(n).with_seed(5));
        let out = spread_rumor(&mut net, NodeId::new(7), &RumorConfig::default());
        let log_n = (n as f64).log2();
        assert!(out.rounds as f64 <= 8.0 * log_n);
        assert!(out.rounds as f64 >= log_n / 2.0);
    }

    #[test]
    fn push_pull_uses_far_fewer_messages_than_n_log_n() {
        let n = 1 << 13;
        let mut net = Network::new(SimConfig::new(n).with_seed(7));
        let out = spread_rumor(&mut net, NodeId::new(0), &RumorConfig::default());
        assert_eq!(out.informed_fraction, 1.0);
        let n_f = n as f64;
        // Θ(n log log n) transmissions: clearly below the Θ(n log n) of
        // uniform gossip and within a small constant of n·log log n.
        assert!(
            (out.rumor_messages as f64) < 0.8 * n_f * n_f.log2(),
            "rumor messages = {}",
            out.rumor_messages
        );
        assert!(
            (out.rumor_messages as f64) < 8.0 * n_f * n_f.log2().log2(),
            "rumor messages = {}",
            out.rumor_messages
        );
        assert!(out.rumor_messages as f64 >= n_f);
    }

    #[test]
    fn push_only_needs_more_messages_than_push_pull() {
        let n = 1 << 12;
        let push_pull = {
            let mut net = Network::new(SimConfig::new(n).with_seed(9));
            spread_rumor(&mut net, NodeId::new(0), &RumorConfig::default())
        };
        let push_only = {
            let mut net = Network::new(SimConfig::new(n).with_seed(9));
            spread_rumor(
                &mut net,
                NodeId::new(0),
                &RumorConfig {
                    push_only: true,
                    ..RumorConfig::default()
                },
            )
        };
        assert!(push_only.informed_fraction >= 0.999);
        assert!(push_only.rumor_messages > push_pull.rumor_messages);
    }

    #[test]
    fn coverage_is_monotone_and_reaches_one() {
        let n = 2000;
        let mut net = Network::new(SimConfig::new(n).with_seed(11));
        let out = spread_rumor(&mut net, NodeId::new(3), &RumorConfig::default());
        for w in out.coverage_trace.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(*out.coverage_trace.last().unwrap(), 1.0);
    }

    #[test]
    fn survives_loss() {
        let n = 2000;
        let mut net = Network::new(SimConfig::new(n).with_seed(13).with_loss_prob(0.1));
        let out = spread_rumor(&mut net, NodeId::new(0), &RumorConfig::default());
        assert!(out.informed_fraction > 0.999);
    }

    #[test]
    fn crashed_source_spreads_nothing() {
        let mut net = Network::new(
            SimConfig::new(500)
                .with_seed(15)
                .with_initial_crash_prob(0.5),
        );
        let dead = net.nodes().find(|&v| !net.is_alive(v)).unwrap();
        let out = spread_rumor(&mut net, dead, &RumorConfig::default());
        assert_eq!(out.informed_fraction, 0.0);
    }
}
