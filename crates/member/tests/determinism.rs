//! The membership determinism suite: wrapping a protocol in [`Member`]
//! must not cost the runtime a single determinism guarantee.
//!
//! The wrapper routes every random draw through [`Mailbox::rng_mut`] and
//! every delayed action through mailbox timers, so the sharded engine's
//! contract extends structurally: the dispatch-order hash, the driver
//! counters and every node's final state — *including* the discovered
//! membership view and the detector counters — are a pure function of the
//! seed, invariant across shard counts (CI pins the ladder via
//! `GOSSIP_TEST_SHARDS`) and across re-runs, with churn turning into
//! observed Suspect/Dead/Join transitions along the way.

use gossip_drr::handler::{MaxGossipConfig, MaxGossipHandler};
use gossip_member::{Member, MemberConfig, MemberStats};
use gossip_net::{NodeId, SimConfig};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver};

/// Shard counts exercised by the sharded tests (the same ladder the
/// runtime suite reads; CI pins it via `GOSSIP_TEST_SHARDS`).
fn shard_counts() -> Vec<usize> {
    match std::env::var("GOSSIP_TEST_SHARDS") {
        Ok(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad GOSSIP_TEST_SHARDS entry {s:?}"))
            })
            .collect(),
        Err(_) => vec![1, 2, 8],
    }
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37) % 1009) as f64).collect()
}

fn max_config(n: usize) -> MaxGossipConfig {
    let sim = SimConfig::new(n);
    MaxGossipConfig {
        bits: sim.id_bits() + sim.value_bits(),
        push_interval_us: 1_000,
        fanout: 1,
    }
}

/// A fast detector for virtual time: 5 ms probe periods, one suspect
/// period, everything else default.
fn fast_member() -> MemberConfig {
    MemberConfig {
        suspect_periods: 1,
        ..MemberConfig::static_full().with_probe_interval_us(5_000)
    }
}

/// Everything a membership-wrapped run can disagree on: the dispatch-order
/// hash, the driver counters, the rejoin schedule, the transport totals,
/// and each node's full observable state — the aggregate it computed, its
/// incarnation, its live view, its state counts and every detector
/// counter.
type Fingerprint = (u64, u64, u64, Vec<(u64, NodeId)>, u64, Vec<NodeFingerprint>);
type NodeFingerprint = (
    u64,
    u64,
    Vec<NodeId>,
    (usize, usize, usize, usize),
    MemberStats,
);

fn node_fingerprint(h: &Member<MaxGossipHandler>) -> NodeFingerprint {
    (
        h.inner().current_max().to_bits(),
        h.incarnation(),
        h.live_view().to_vec(),
        h.view_counts(),
        h.stats().clone(),
    )
}

fn churny_member_driver(
    n: usize,
    seed: u64,
    shards: usize,
) -> ShardedDriver<Member<MaxGossipHandler>> {
    let sim = SimConfig::new(n).with_seed(seed).with_loss_prob(0.05);
    let handler_config = max_config(n);
    let vals = values(n);
    let member_config = fast_member();
    let config = AsyncConfig::new(sim)
        .with_latency(LatencyModel::LogNormal {
            median_us: 1_000.0,
            sigma: 0.7,
        })
        .with_link_spread(0.3)
        .with_churn(ChurnModel::per_round(0.01, 0.1).with_min_alive(n / 2));
    ShardedDriver::new(config, shards, move |me| {
        Member::new(
            member_config.clone(),
            MaxGossipHandler::new(me, vals[me.index()], handler_config),
        )
    })
}

fn sharded_fingerprint(driver: &ShardedDriver<Member<MaxGossipHandler>>) -> Fingerprint {
    let m = driver.metrics();
    (
        m.order_hash,
        m.timer_fires,
        m.stale_timer_skips,
        m.rejoin_log.clone(),
        driver.net_metrics().total_messages(),
        driver
            .iter_handlers()
            .map(|(_, h)| node_fingerprint(h))
            .collect(),
    )
}

#[test]
fn membership_keeps_the_order_hash_invariant_across_shard_counts() {
    // The tentpole's acceptance criterion: with the full SWIM layer
    // running — probes, suspicion, refutation, piggybacked rumors — under
    // churn, loss and skewed latency, the sharded dispatch schedule and
    // every node's observable state are bit-identical across shard counts
    // and re-runs.
    let n = 48;
    let run = |shards| {
        let mut driver = churny_member_driver(n, 0x5717, shards);
        driver.run_until(120_000);
        sharded_fingerprint(&driver)
    };
    let counts = shard_counts();
    let reference = run(counts[0]);
    for &shards in &counts {
        assert_eq!(reference, run(shards), "shard count {shards} diverged");
    }
    assert_eq!(reference, run(counts[0]), "re-run moved an event");

    // The run must actually exercise the detector: churn crashes nodes,
    // survivors must notice.
    let suspicions: u64 = reference
        .5
        .iter()
        .map(|f| f.4.suspicions_local + f.4.suspicions_learned)
        .sum();
    assert!(suspicions > 0, "churn produced no observed suspicion");

    // And the seed still steers everything.
    let mut other = churny_member_driver(n, 0x5718, counts[0]);
    other.run_until(120_000);
    assert_ne!(reference.0, sharded_fingerprint(&other).0);
}

#[test]
fn a_cluster_discovers_itself_from_one_seed_and_the_aggregate_converges() {
    // Join-via-seed bootstrap in the simulator: only node 0 is known at
    // boot, everything else is discovered through Join/JoinAck and
    // piggybacked rumors — and the wrapped gossip-max, sampling only the
    // discovered view, still lands every node on the exact maximum.
    let n = 16;
    let vals = values(n);
    let exact = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let handler_config = max_config(n);
    let member_config =
        MemberConfig::with_seeds(vec![NodeId::new(0)]).with_probe_interval_us(5_000);
    let vals_for_driver = vals.clone();
    let mut driver = ShardedDriver::new(
        AsyncConfig::new(SimConfig::new(n).with_seed(0x1019))
            .with_latency(LatencyModel::Constant(300)),
        1,
        move |me| {
            Member::new(
                member_config.clone(),
                MaxGossipHandler::new(me, vals_for_driver[me.index()], handler_config),
            )
        },
    );
    driver.run_until(200_000);
    for (node, h) in driver.iter_handlers() {
        assert!(h.is_joined(), "{node:?} never completed the join handshake");
        assert_eq!(
            h.live_view().len(),
            n - 1,
            "{node:?} discovered only {:?}",
            h.live_view()
        );
        assert_eq!(h.inner().current_max(), exact, "{node:?} not converged");
    }
}

#[test]
fn joiners_whose_join_is_lost_keep_asking_until_answered() {
    // Seed-join under heavy loss. A joiner can learn the view from
    // piggybacked acks while its Join, or every JoinAck, was dropped; it
    // must keep re-asking the seed until answered, or it stays unjoined
    // and, with the Join lost, unknown to everyone else.
    let n = 16;
    let vals = values(n);
    let handler_config = max_config(n);
    let member_config =
        MemberConfig::with_seeds(vec![NodeId::new(0)]).with_probe_interval_us(5_000);
    let mut driver = ShardedDriver::new(
        AsyncConfig::new(SimConfig::new(n).with_seed(0x1057).with_loss_prob(0.4))
            .with_latency(LatencyModel::Constant(300)),
        1,
        move |me| {
            Member::new(
                member_config.clone(),
                MaxGossipHandler::new(me, vals[me.index()], handler_config),
            )
        },
    );
    driver.run_until(1_000_000);
    for (node, h) in driver.iter_handlers() {
        assert!(h.is_joined(), "{node:?} never completed the join handshake");
        assert_eq!(h.view_counts().3, 0, "{node:?} never heard of someone");
    }
}

#[test]
fn a_loss_free_run_raises_zero_false_suspicions() {
    // E21's control row, pinned as a test: with no loss, no churn and an
    // RTT far inside the deadline, nothing is ever suspected — let alone
    // falsely.
    let n = 24;
    let vals = values(n);
    let handler_config = max_config(n);
    let member_config = fast_member();
    let mut driver = ShardedDriver::new(
        AsyncConfig::new(SimConfig::new(n).with_seed(0xC1EA))
            .with_latency(LatencyModel::Constant(300)),
        1,
        move |me| {
            Member::new(
                member_config.clone(),
                MaxGossipHandler::new(me, vals[me.index()], handler_config),
            )
        },
    );
    driver.run_until(150_000);
    for (node, h) in driver.iter_handlers() {
        let s = h.stats();
        assert_eq!(s.suspicions_local, 0, "{node:?} suspected someone");
        assert_eq!(s.false_suspicions, 0, "{node:?} saw a false suspicion");
        assert!(s.probes_sent > 0, "{node:?} never probed");
        assert!(s.acks_rx > 0, "{node:?} never completed a probe");
        assert_eq!(h.view_counts().1, 0, "{node:?} still holds a Suspect");
    }
}
