//! Determinism suite for the round-barrier facade: every one-shot,
//! `Transport`-generic protocol in the workspace must produce the **same
//! bits** on [`ShardedTransport`] at every shard count CI pins, on both
//! drain paths — bits pinned absolutely by golden values captured while
//! the facade was still cross-checked against the single-queue engine it
//! replaced — and, in the compatibility configuration, the same bits as
//! the synchronous [`Network`], compared live.

use gossip_baselines::{push_sum_average, PushSumConfig};
use gossip_drr::convergecast::ReceptionModel;
use gossip_drr::protocol::{drr_gossip_ave, drr_gossip_max, DrrGossipConfig, DrrGossipReport};
use gossip_drr::{broadcast_down, convergecast_max, convergecast_plain_sum, run_drr, DrrConfig};
use gossip_net::{Network, NodeId, Phase, SimConfig, Transport};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, RoundPolicy, ShardedTransport};

mod common;
use common::{digest, run_pin, shard_counts, RunPin};

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 53) % 2003) as f64).collect()
}

/// A configuration that exercises every verdict path the facade models:
/// loss, spread uniform latency, mid-run churn with a liveness floor.
fn churny_config(n: usize, seed: u64) -> AsyncConfig {
    AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(0.05))
        .with_latency(LatencyModel::Uniform {
            lo_us: 400,
            hi_us: 2_000,
        })
        .with_link_spread(0.2)
        .with_churn(ChurnModel::per_round(0.02, 0.1).with_min_alive(n / 2))
}

/// Bandwidth budget + fixed deadline: the drop paths and the RTT-aware
/// retry cutoff.
fn deadline_config(n: usize, seed: u64) -> AsyncConfig {
    AsyncConfig::new(SimConfig::new(n).with_seed(seed).with_loss_prob(0.02))
        .with_latency(LatencyModel::Uniform {
            lo_us: 500,
            hi_us: 1_500,
        })
        .with_churn(ChurnModel::per_round(0.01, 0.2).with_min_alive(n / 5))
        .with_bandwidth_bits_per_round(300)
        .with_round_policy(RoundPolicy::FixedDeadline(2_000))
}

fn fingerprint(report: &DrrGossipReport) -> (Vec<u64>, u64, u64, Vec<bool>) {
    let bits = report.estimates.iter().map(|e| e.to_bits()).collect();
    (
        bits,
        report.total_rounds,
        report.total_messages,
        report.alive.clone(),
    )
}

#[test]
fn drr_gossip_reproduces_its_golden_runs_at_every_shard_count() {
    // The headline contract: Algorithm 7 and Algorithm 8 on the sharded
    // calendar queues, unchanged — estimates, rounds, messages, liveness,
    // virtual time and the full engine metrics — equal to the goldens at
    // every shard count CI pins.
    let max_runs: [(usize, AsyncConfig, RunPin); 2] = [
        (
            600,
            churny_config(600, 0xFACA),
            (
                0xCB9B_870C_3BA0_8FEF,
                320,
                15_271,
                485_153,
                0x553F_8364_7969_9A82,
            ),
        ),
        (
            400,
            deadline_config(400, 0xFACB),
            (
                0x4579_74C6_C61B_1696,
                248,
                8_312,
                496_000,
                0x071E_37D5_EF26_6637,
            ),
        ),
    ];
    for (n, config, golden) in max_runs {
        let vals = values(n);
        for shards in shard_counts() {
            let mut facade = ShardedTransport::new(config.clone(), shards);
            let report = drr_gossip_max(&mut facade, &vals, &DrrGossipConfig::paper());
            assert_eq!(
                run_pin(&report, facade.now_us(), &facade.async_metrics()),
                golden,
                "gossip-max left its golden at {shards} shard(s) (seed {:#x})",
                config.sim.seed
            );
        }
    }

    // Algorithm 8 (average) over the churny configuration.
    let n = 500;
    let vals = values(n);
    let config = churny_config(n, 0xFACC);
    let golden: RunPin = (
        0x42F5_2738_4AC6_9261,
        380,
        21_906,
        609_932,
        0xDFEA_083F_42F1_985B,
    );
    for shards in shard_counts() {
        let mut facade = ShardedTransport::new(config.clone(), shards);
        let report = drr_gossip_ave(&mut facade, &vals, &DrrGossipConfig::paper());
        assert_eq!(
            run_pin(&report, facade.now_us(), &facade.async_metrics()),
            golden,
            "gossip-ave left its golden at {shards} shard(s)"
        );
    }
}

#[test]
fn push_sum_reproduces_its_golden_run_at_every_shard_count() {
    let n = 500;
    let vals = values(n);
    let config = churny_config(n, 0x955);
    let golden = (
        0x3281_99DD_051E_3D71u64,
        11_500u64,
        0x0080_1F9B_F785_A17Cu64,
    );
    for shards in shard_counts() {
        let mut facade = ShardedTransport::new(config.clone(), shards);
        let out = push_sum_average(&mut facade, &vals, &PushSumConfig::default());
        assert_eq!(
            (
                digest(out.estimates.iter().map(|x| x.to_bits())),
                out.messages,
                digest(out.max_error_trace.iter().map(|x| x.to_bits())),
            ),
            golden,
            "push-sum left its golden at {shards} shard(s)"
        );
    }
}

#[test]
fn tree_phases_reproduce_their_golden_runs_at_every_shard_count() {
    // The facade underneath the *individual* tree phases: the DRR forest,
    // both convergecast aggregates and the downward broadcast must all
    // reproduce their goldens bit for bit — forest topology included.
    let n = 500;
    let vals = values(n);
    let config = churny_config(n, 0x7EE5);
    let cc_digest = |state: &[Option<f64>]| {
        digest(
            state
                .iter()
                .flat_map(|s| s.map_or([0, 0], |x| [1, x.to_bits()])),
        )
    };
    // (forest + probes digest, DRR messages, (max digest, rounds, messages),
    //  (sum digest, rounds, messages), (broadcast reach digest, rounds,
    //  messages))
    let golden = (
        0x2069_0F02_950D_4810u64,
        3_206u64,
        (0x3744_0076_4576_9F47u64, 42u64, 475u64),
        (0xD5C9_12FD_8931_AC71u64, 51u64, 671u64),
        (0xFB6C_2BC4_9CC8_DC26u64, 137u64, 296u64),
    );
    for shards in shard_counts() {
        let mut facade = ShardedTransport::new(config.clone(), shards);
        let drr = run_drr(&mut facade, &DrrConfig::default());
        let max = convergecast_max(&mut facade, &drr.forest, &vals, ReceptionModel::default());
        let sum =
            convergecast_plain_sum(&mut facade, &drr.forest, &vals, ReceptionModel::default());
        let id_bits = facade.config().id_bits();
        let bc = broadcast_down(
            &mut facade,
            &drr.forest,
            ReceptionModel::default(),
            Phase::Broadcast,
            id_bits,
        );
        let forest = digest(
            (0..n)
                .map(|i| {
                    drr.forest
                        .parent(NodeId::new(i))
                        .map_or(u64::MAX, |p| p.index() as u64)
                })
                .chain(drr.probes_per_node.iter().map(|&p| u64::from(p))),
        );
        let observed = (
            forest,
            drr.messages,
            (cc_digest(&max.state), max.rounds, max.messages),
            (cc_digest(&sum.state), sum.rounds, sum.messages),
            (
                digest(bc.reached.iter().map(|&r| u64::from(r))),
                bc.rounds,
                bc.messages,
            ),
        );
        assert_eq!(
            observed, golden,
            "a tree phase left its golden at {shards} shard(s)"
        );
    }
}

#[test]
fn compat_configuration_reproduces_the_synchronous_backend_exactly() {
    // In the compatibility configuration (constant latency, no churn, no
    // bandwidth cap) the facade consumes the RNG exactly like the
    // synchronous Network, so the serial DRR chain on the sharded core
    // must reproduce the paper-model backend bit for bit — compared live.
    let n = 800;
    let vals = values(n);
    let sim = SimConfig::new(n)
        .with_seed(0x5E7)
        .with_loss_prob(0.08)
        .with_initial_crash_prob(0.05);

    let mut net = Network::new(sim.clone());
    let sync_report = drr_gossip_ave(&mut net, &vals, &DrrGossipConfig::paper());

    for shards in shard_counts() {
        let mut facade = ShardedTransport::new(AsyncConfig::new(sim.clone()), shards);
        let facade_report = drr_gossip_ave(&mut facade, &vals, &DrrGossipConfig::paper());
        assert_eq!(
            fingerprint(&sync_report),
            fingerprint(&facade_report),
            "facade at {shards} shard(s) diverged from the synchronous Network"
        );
        assert_eq!(sync_report.metrics, facade_report.metrics);
        assert_eq!(
            facade.async_metrics().latency.count(),
            sync_report.metrics.total_messages() - sync_report.metrics.total_dropped(),
            "every delivered message passes through the calendar queues"
        );
    }

    // Same property for the push-sum baseline. (Estimates are compared by
    // bit pattern: crashed nodes hold NaN, and NaN != NaN under `==`.)
    let mut net = Network::new(sim.clone());
    let sync_push = push_sum_average(&mut net, &vals, &PushSumConfig::default());
    let mut facade = ShardedTransport::new(AsyncConfig::new(sim), 1);
    let facade_push = push_sum_average(&mut facade, &vals, &PushSumConfig::default());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&sync_push.estimates), bits(&facade_push.estimates));
    assert_eq!(sync_push.messages, facade_push.messages);
    assert_eq!(sync_push.max_error_trace, facade_push.max_error_trace);
}

#[test]
fn drain_paths_and_reruns_do_not_move_an_event() {
    // The scoped-thread drain and the sequential drain must walk the same
    // schedule, and a rerun must reproduce it; a different seed is the
    // control that the fingerprint actually has teeth.
    let n = 400;
    let vals = values(n);
    let run = |seed: u64, parallel: bool| {
        let mut facade = ShardedTransport::new(churny_config(n, seed), 8).with_parallel(parallel);
        let report = drr_gossip_max(&mut facade, &vals, &DrrGossipConfig::paper());
        (
            fingerprint(&report),
            facade.now_us(),
            facade.async_metrics(),
        )
    };
    let reference = run(0xD4A1, false);
    assert_eq!(reference, run(0xD4A1, true), "drain path moved an event");
    assert_eq!(reference, run(0xD4A1, false), "rerun diverged");
    assert_ne!(
        reference.0,
        run(0xD4A2, false).0,
        "seed change must move the run"
    );
}
