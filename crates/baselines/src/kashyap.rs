//! Efficient gossip (Kashyap, Deb, Naidu, Rastogi & Srinivasan, PODS 2006):
//! the message-efficient but not time-optimal baseline of Table 1.
//!
//! The original paper — and the summary in Chen & Pandurangan's introduction —
//! describes the scheme as: randomly cluster the nodes into groups of size
//! `O(log n)`, pick a representative (leader) per group, let the leaders
//! gossip among themselves, and finally disseminate the result inside each
//! group. The clustering is what saves messages (`O(n log log n)` in total),
//! at the price of extra time (`O(log n log log n)`).
//!
//! **Substitution note (see DESIGN.md):** the PODS'06 paper only sketches the
//! group-formation procedure; we reconstruct it as *randomized group
//! doubling*: starting from singleton groups, the protocol runs
//! `⌈log₂ log₂ n⌉ + O(1)` synchronized merge phases. In each phase every
//! leader of a still-small group probes uniformly random nodes (one per
//! round) until it reaches some other group, then merges into it and informs
//! its members of the new leader. Phases are synchronized — a phase only ends
//! when *every* small group has merged — which is what produces the extra
//! time factor, while each node is informed of a new leader only
//! `O(log log n)` times, which keeps the message count at `O(n log log n)`.
//! The leaders then run uniform push-sum (forwarded through group members,
//! exactly like Phase III of DRR-gossip) and push the result back to their
//! members.

use gossip_aggregate::relative_error;
use gossip_net::{Network, NodeId, Phase};

/// Configuration of efficient gossip.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EfficientGossipConfig {
    /// Target group size; `None` selects `⌈log₂ n⌉`.
    pub target_group_size: Option<usize>,
    /// Leader push-sum rounds = `⌈factor · (log₂ m + log₂(1/ε))⌉`.
    pub leader_rounds_factor: f64,
    /// Target relative error of the leader gossip.
    pub epsilon: f64,
    /// Cap on probe rounds within one merge phase (safety net only).
    pub probe_round_cap_factor: f64,
}

impl Default for EfficientGossipConfig {
    fn default() -> Self {
        EfficientGossipConfig {
            target_group_size: None,
            leader_rounds_factor: 1.5,
            epsilon: 1e-4,
            probe_round_cap_factor: 6.0,
        }
    }
}

impl EfficientGossipConfig {
    fn target(&self, n: usize) -> usize {
        self.target_group_size
            .unwrap_or(gossip_net::id_bits(n.max(2)) as usize)
            .max(2)
    }
}

/// Cost of one phase of the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EfficientPhaseCost {
    /// Phase name.
    pub name: &'static str,
    /// Rounds used.
    pub rounds: u64,
    /// Messages sent.
    pub messages: u64,
}

/// Outcome of efficient gossip.
#[derive(Clone, Debug)]
pub struct EfficientGossipOutcome {
    /// Per-node estimate of the average (NaN at crashed nodes).
    pub estimates: Vec<f64>,
    /// The exact average over alive nodes.
    pub true_average: f64,
    /// Total rounds.
    pub rounds: u64,
    /// Total messages.
    pub messages: u64,
    /// Number of groups when the grouping phase ended.
    pub num_groups: usize,
    /// Number of synchronized merge phases executed.
    pub merge_phases: u64,
    /// Per-phase cost breakdown.
    pub phases: Vec<EfficientPhaseCost>,
}

impl EfficientGossipOutcome {
    /// Largest relative error over alive nodes.
    pub fn max_relative_error(&self) -> f64 {
        self.estimates
            .iter()
            .filter(|e| !e.is_nan())
            .map(|&e| relative_error(e, self.true_average))
            .fold(0.0, f64::max)
    }
}

/// Run efficient gossip to compute the average.
pub fn efficient_gossip_average(
    net: &mut Network,
    values: &[f64],
    config: &EfficientGossipConfig,
) -> EfficientGossipOutcome {
    let n = net.n();
    assert_eq!(values.len(), n);
    let start_rounds = net.round();
    let start_messages = net.metrics().total_messages();
    let id_bits = net.config().id_bits();
    let value_bits = net.config().value_bits();
    let target = config.target(n);
    let mut phases: Vec<EfficientPhaseCost> = Vec::new();
    let mut mark = (net.round(), net.metrics().total_messages());
    let record = |net: &Network,
                  name: &'static str,
                  mark: &mut (u64, u64),
                  phases: &mut Vec<EfficientPhaseCost>| {
        phases.push(EfficientPhaseCost {
            name,
            rounds: net.round() - mark.0,
            messages: net.metrics().total_messages() - mark.1,
        });
        *mark = (net.round(), net.metrics().total_messages());
    };

    // ---- Grouping: randomized group doubling ----
    let mut leader: Vec<usize> = (0..n).collect();
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let alive: Vec<NodeId> = net.alive_nodes().collect();
    let alive_set: Vec<bool> = net.nodes().map(|v| net.is_alive(v)).collect();
    // Crashed nodes stay in their own "group" and are otherwise ignored.
    let is_group_leader = |leader: &[usize], i: usize| leader[i] == i;

    let max_phases = ((target as f64).log2().ceil() as u64 + 5).max(1);
    let probe_round_cap =
        ((f64::from(gossip_net::id_bits(n)) * config.probe_round_cap_factor).ceil() as u64).max(4);
    let mut merge_phases = 0;
    for _ in 0..max_phases {
        // Every group participates in at most one merge per phase (this is
        // the "group doubling" discipline: sizes at most roughly double each
        // phase). A group whose size is still below the target initiates a
        // merge; a group that has already merged or been merged into this
        // phase is off-limits until the next phase.
        let mut merged_this_phase = vec![false; n];
        let mut needy: Vec<usize> = alive
            .iter()
            .map(|v| v.index())
            .filter(|&i| is_group_leader(&leader, i) && members[i].len() < target)
            .collect();
        if needy.is_empty() || alive.len() <= target {
            break;
        }
        merge_phases += 1;
        let mut probe_rounds = 0;
        while !needy.is_empty() && probe_rounds < probe_round_cap {
            let mut still_needy = Vec::with_capacity(needy.len());
            for &l in &needy {
                // A leader may have been absorbed or paired earlier in this
                // phase; it then stops probing until the next phase.
                if leader[l] != l || merged_this_phase[l] {
                    continue;
                }
                let me = NodeId::new(l);
                let probe_target = net.sample_other_than(me);
                let delivered = net.send(me, probe_target, Phase::Grouping, id_bits);
                if !delivered || !alive_set[probe_target.index()] {
                    still_needy.push(l);
                    continue;
                }
                // The probed node replies with its leader's address.
                if !net.send(probe_target, me, Phase::Grouping, id_bits) {
                    still_needy.push(l);
                    continue;
                }
                let other_leader = leader[probe_target.index()];
                if other_leader == l || merged_this_phase[other_leader] {
                    // Hit its own group or a group already paired this phase:
                    // keep probing next round. This retry-until-success under
                    // a synchronized phase is exactly what yields the extra
                    // time factor of the efficient-gossip baseline.
                    still_needy.push(l);
                    continue;
                }
                // Merge group(l) into group(other_leader): every member of l
                // is told its new leader (one message each).
                merged_this_phase[other_leader] = true;
                merged_this_phase[l] = true;
                let moving = std::mem::take(&mut members[l]);
                for &m in &moving {
                    if m != l {
                        net.send(me, NodeId::new(m), Phase::Dissemination, id_bits);
                    }
                    leader[m] = other_leader;
                }
                members[other_leader].extend(moving);
            }
            net.advance_round();
            probe_rounds += 1;
            needy = still_needy;
            // If (almost) every group has already paired up this phase, the
            // remaining stragglers cannot find a partner anymore: end the
            // phase instead of burning the round cap.
            let unpaired_groups = alive
                .iter()
                .map(|v| v.index())
                .filter(|&i| is_group_leader(&leader, i) && !merged_this_phase[i])
                .count();
            if unpaired_groups <= 1 {
                break;
            }
        }
    }
    record(net, "grouping", &mut mark, &mut phases);

    let group_leaders: Vec<usize> = alive
        .iter()
        .map(|v| v.index())
        .filter(|&i| is_group_leader(&leader, i))
        .collect();
    let num_groups = group_leaders.len();
    let max_group_size = group_leaders
        .iter()
        .map(|&l| members[l].len())
        .max()
        .unwrap_or(1);

    // ---- In-group aggregation: members report to their leader, one per round ----
    let mut group_sum: Vec<f64> = vec![0.0; n];
    let mut group_count: Vec<f64> = vec![0.0; n];
    for &l in &group_leaders {
        group_sum[l] = values[l];
        group_count[l] = 1.0;
    }
    for round in 0..max_group_size.saturating_sub(1) {
        for &l in &group_leaders {
            // The (round+1)-th member reports in this round.
            if let Some(&m) = members[l].iter().filter(|&&m| m != l).nth(round) {
                let (_, ok) = net.send_with_retries(
                    NodeId::new(m),
                    NodeId::new(l),
                    Phase::Convergecast,
                    value_bits + id_bits,
                    8,
                );
                if ok {
                    group_sum[l] += values[m];
                    group_count[l] += 1.0;
                }
            }
        }
        net.advance_round();
    }
    record(net, "in-group aggregation", &mut mark, &mut phases);

    // ---- Leader gossip: uniform push-sum among leaders (forwarded through members) ----
    let total_sum: f64 = group_leaders.iter().map(|&l| group_sum[l]).sum();
    let total_count: f64 = group_leaders.iter().map(|&l| group_count[l]).sum();
    let true_average = if total_count > 0.0 {
        total_sum / total_count
    } else {
        0.0
    };
    let mut s: Vec<f64> = group_sum.clone();
    let mut w: Vec<f64> = group_count.clone();
    let log_m = f64::from(gossip_net::id_bits(num_groups.max(2)));
    let log_eps = (1.0 / config.epsilon).log2().max(0.0);
    let leader_rounds = ((config.leader_rounds_factor * (log_m + log_eps)).ceil() as u64).max(1);
    let payload_bits = 2 * value_bits + id_bits;
    for _ in 0..leader_rounds {
        let mut incoming_s = vec![0.0; n];
        let mut incoming_w = vec![0.0; n];
        for &l in &group_leaders {
            let half_s = s[l] / 2.0;
            let half_w = w[l] / 2.0;
            s[l] = half_s;
            w[l] = half_w;
            let me = NodeId::new(l);
            let target = net.sample_uniform();
            if !net.send(me, target, Phase::LeaderGossip, payload_bits) {
                continue;
            }
            if !alive_set[target.index()] {
                continue;
            }
            let dest_leader = leader[target.index()];
            if dest_leader != target.index()
                && !net.send(
                    target,
                    NodeId::new(dest_leader),
                    Phase::LeaderGossip,
                    payload_bits,
                )
            {
                continue;
            }
            incoming_s[dest_leader] += half_s;
            incoming_w[dest_leader] += half_w;
        }
        for i in 0..n {
            s[i] += incoming_s[i];
            w[i] += incoming_w[i];
        }
        net.advance_round();
    }
    record(net, "leader gossip", &mut mark, &mut phases);

    // ---- Dissemination: each leader sends the estimate to its members, one per round ----
    let mut estimate: Vec<f64> = vec![f64::NAN; n];
    for &l in &group_leaders {
        estimate[l] = if w[l] > 0.0 { s[l] / w[l] } else { 0.0 };
    }
    for round in 0..max_group_size.saturating_sub(1) {
        for &l in &group_leaders {
            if let Some(&m) = members[l].iter().filter(|&&m| m != l).nth(round) {
                let (_, ok) = net.send_with_retries(
                    NodeId::new(l),
                    NodeId::new(m),
                    Phase::Dissemination,
                    value_bits + id_bits,
                    8,
                );
                if ok {
                    estimate[m] = estimate[l];
                }
            }
        }
        net.advance_round();
    }
    record(net, "disseminate", &mut mark, &mut phases);

    EfficientGossipOutcome {
        estimates: estimate,
        true_average,
        rounds: net.round() - start_rounds,
        messages: net.metrics().total_messages() - start_messages,
        num_groups,
        merge_phases,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_net::SimConfig;

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 41) % 503) as f64).collect()
    }

    #[test]
    fn estimates_converge_to_average() {
        let n = 2000;
        let mut net = Network::new(SimConfig::new(n).with_seed(3));
        let vals = values(n);
        let out = efficient_gossip_average(&mut net, &vals, &EfficientGossipConfig::default());
        let exact = vals.iter().sum::<f64>() / n as f64;
        assert!((out.true_average - exact).abs() < 1e-9);
        assert!(
            out.max_relative_error() < 0.02,
            "max relative error = {}",
            out.max_relative_error()
        );
    }

    #[test]
    fn groups_reach_logarithmic_size() {
        let n = 1 << 12;
        let mut net = Network::new(SimConfig::new(n).with_seed(5));
        let vals = values(n);
        let out = efficient_gossip_average(&mut net, &vals, &EfficientGossipConfig::default());
        // Θ(n / log n) groups once groups reach size ~log n.
        let log_n = (n as f64).log2();
        assert!(
            (out.num_groups as f64) < 3.0 * n as f64 / log_n,
            "groups = {}",
            out.num_groups
        );
        assert!(out.num_groups > 1);
        assert!(out.merge_phases as f64 <= log_n.log2().ceil() + 3.0);
    }

    #[test]
    fn message_complexity_is_below_uniform_gossip() {
        let n = 1 << 13;
        let vals = values(n);
        let efficient = {
            let mut net = Network::new(SimConfig::new(n).with_seed(7));
            efficient_gossip_average(&mut net, &vals, &EfficientGossipConfig::default()).messages
        };
        let uniform = {
            let mut net = Network::new(SimConfig::new(n).with_seed(7));
            crate::push_sum::push_sum_average(
                &mut net,
                &vals,
                &crate::push_sum::PushSumConfig::default(),
            )
            .messages
        };
        assert!(
            efficient < uniform,
            "efficient gossip used {efficient} messages vs uniform gossip's {uniform}"
        );
        // and stays within the O(n log log n) envelope (generous constant)
        let n_f = n as f64;
        assert!((efficient as f64) < 10.0 * n_f * n_f.log2().log2());
    }

    #[test]
    fn time_is_superlogarithmic_but_polylog() {
        let n = 1 << 12;
        let mut net = Network::new(SimConfig::new(n).with_seed(9));
        let vals = values(n);
        let out = efficient_gossip_average(&mut net, &vals, &EfficientGossipConfig::default());
        let log_n = (n as f64).log2();
        assert!(out.rounds as f64 >= log_n, "rounds = {}", out.rounds);
        assert!(
            out.rounds as f64 <= 20.0 * log_n * log_n.log2(),
            "rounds = {}",
            out.rounds
        );
    }

    #[test]
    fn phase_costs_add_up() {
        let n = 1000;
        let mut net = Network::new(SimConfig::new(n).with_seed(11));
        let vals = values(n);
        let out = efficient_gossip_average(&mut net, &vals, &EfficientGossipConfig::default());
        let msg_sum: u64 = out.phases.iter().map(|p| p.messages).sum();
        let round_sum: u64 = out.phases.iter().map(|p| p.rounds).sum();
        assert_eq!(msg_sum, out.messages);
        assert_eq!(round_sum, out.rounds);
        assert_eq!(out.phases.len(), 4);
    }

    #[test]
    fn tolerates_loss_and_crashes() {
        let n = 2000;
        let mut net = Network::new(
            SimConfig::new(n)
                .with_seed(13)
                .with_loss_prob(0.05)
                .with_initial_crash_prob(0.1),
        );
        let vals = values(n);
        let out = efficient_gossip_average(&mut net, &vals, &EfficientGossipConfig::default());
        assert!(
            out.max_relative_error() < 0.1,
            "max relative error = {}",
            out.max_relative_error()
        );
    }

    #[test]
    fn crashed_nodes_have_nan_estimates() {
        let n = 600;
        let mut net = Network::new(SimConfig::new(n).with_seed(15).with_initial_crash_prob(0.3));
        let vals = values(n);
        let out = efficient_gossip_average(&mut net, &vals, &EfficientGossipConfig::default());
        for v in net.nodes() {
            if !net.is_alive(v) {
                assert!(out.estimates[v.index()].is_nan());
            }
        }
    }

    #[test]
    fn small_networks_degenerate_gracefully() {
        for n in [1usize, 2, 3, 8] {
            let mut net = Network::new(SimConfig::new(n).with_seed(17));
            let vals = values(n);
            let out = efficient_gossip_average(&mut net, &vals, &EfficientGossipConfig::default());
            let exact = vals.iter().sum::<f64>() / n as f64;
            assert!(
                (out.true_average - exact).abs() < 1e-9,
                "n = {n}: true average mismatch"
            );
        }
    }

    #[test]
    fn explicit_group_size_is_respected() {
        let n = 1024;
        let mut net = Network::new(SimConfig::new(n).with_seed(19));
        let vals = values(n);
        let cfg = EfficientGossipConfig {
            target_group_size: Some(4),
            ..EfficientGossipConfig::default()
        };
        let out = efficient_gossip_average(&mut net, &vals, &cfg);
        // With a target of 4 we expect far more groups than with log n.
        assert!(out.num_groups > n / 16, "groups = {}", out.num_groups);
    }
}
