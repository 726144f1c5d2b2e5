//! Property-style coverage for the sharded engine: for randomly drawn
//! configurations (latency model × churn × loss × bandwidth × link
//! spread), the dispatch-order hash and every node's final store agree
//! across shard counts (CI pins {1, 2, 8} via `GOSSIP_TEST_SHARDS`) and
//! across event-loop slicings.
//!
//! The configurations are generated from a seeded RNG rather than the
//! proptest shim because a failing case here is a *determinism* bug — the
//! config that exposed it must be reprinted verbatim, not shrunk.

use gossip_drr::handler::{MaxGossipConfig, MaxGossipHandler};
use gossip_net::{NodeId, SimConfig};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, RoundPolicy, ShardedDriver};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::shard_counts;

/// Golden configuration A: mid-size, lossy, churny, spread links.
fn golden_config_a() -> AsyncConfig {
    AsyncConfig::new(
        SimConfig::new(1_000)
            .with_seed(0x60_1D)
            .with_loss_prob(0.05),
    )
    .with_latency(LatencyModel::Uniform {
        lo_us: 400,
        hi_us: 2_000,
    })
    .with_link_spread(0.2)
    .with_churn(ChurnModel::per_round(0.02, 0.1).with_min_alive(500))
}

/// Golden configuration B: bandwidth-capped with a fixed round deadline,
/// so the budget-drop and deadline-loss paths fold into the hash too.
fn golden_config_b() -> AsyncConfig {
    AsyncConfig::new(SimConfig::new(500).with_seed(0xB0_1D).with_loss_prob(0.02))
        .with_latency(LatencyModel::Uniform {
            lo_us: 500,
            hi_us: 1_500,
        })
        .with_churn(ChurnModel::per_round(0.01, 0.2).with_min_alive(100))
        .with_bandwidth_bits_per_round(300)
        .with_round_policy(RoundPolicy::FixedDeadline(2_000))
}

fn golden_handler_config(config: &AsyncConfig) -> MaxGossipConfig {
    MaxGossipConfig {
        bits: config.sim.id_bits() + config.sim.value_bits(),
        ..MaxGossipConfig::default()
    }
}

fn golden_own_value(me: NodeId) -> f64 {
    ((me.index() as u64).wrapping_mul(0x9E37_79B9) % 1_000_003) as f64
}

#[test]
fn golden_order_hashes_survive_storage_refactors() {
    // Absolute pins, not just cross-shard agreement: these hashes were
    // captured on the HashMap-payload, array-of-structs engine *before*
    // the arena/SoA rewrite, and the rewrite reproduced them bit for bit.
    // Any future storage change that moves an event — or re-orders one —
    // fails here even if it stays self-consistent across shard counts.
    let golden = [
        (golden_config_a(), 0x302C_A34D_92AD_3E9Cu64, 52_135u64),
        (golden_config_b(), 0x9972_BB35_2ED1_100Fu64, 28_401u64),
    ];
    for (i, (config, hash, events)) in golden.into_iter().enumerate() {
        let hc = golden_handler_config(&config);
        for shards in shard_counts() {
            let mut driver = ShardedDriver::new(config.clone(), shards, move |me| {
                MaxGossipHandler::new(me, golden_own_value(me), hc)
            });
            driver.run_until(30_000);
            assert_eq!(
                (driver.order_hash(), driver.events_dispatched()),
                (hash, events),
                "golden config {} diverged at {shards} shard(s)",
                ["A", "B"][i]
            );
        }
    }
}

/// One random configuration, drawn from `rng`. Latency minima stay ≥ 100µs
/// so the bounded-lag epoch (and with it the test) stays fast.
fn random_config(rng: &mut SmallRng) -> AsyncConfig {
    let n = rng.gen_range(40..400);
    let seed = rng.gen_range(0..u64::MAX / 2);
    let loss = if rng.gen_bool(0.5) {
        rng.gen_range(0.0..0.2)
    } else {
        0.0
    };
    let mut sim = SimConfig::new(n).with_seed(seed).with_loss_prob(loss);
    if rng.gen_bool(0.3) {
        sim = sim.with_initial_crash_prob(rng.gen_range(0.0..0.2));
    }
    let latency = if rng.gen_bool(0.5) {
        LatencyModel::Constant(rng.gen_range(100..2_000))
    } else {
        let lo = rng.gen_range(100..1_000);
        LatencyModel::Uniform {
            lo_us: lo,
            hi_us: lo + rng.gen_range(1u64..3_000),
        }
    };
    let churn = if rng.gen_bool(0.6) {
        ChurnModel::per_round(rng.gen_range(0.0..0.03), rng.gen_range(0.0..0.3))
            .with_min_alive(n / 2)
    } else {
        ChurnModel::none()
    };
    let mut config = AsyncConfig::new(sim)
        .with_latency(latency)
        .with_link_spread(if rng.gen_bool(0.5) {
            rng.gen_range(0.0..0.4)
        } else {
            0.0
        })
        .with_churn(churn);
    if rng.gen_bool(0.3) {
        config = config.with_bandwidth_bits_per_round(rng.gen_range(30..400));
    }
    if rng.gen_bool(0.3) {
        config = config.with_round_policy(RoundPolicy::FixedDeadline(rng.gen_range(500..4_000)));
    }
    config
}

fn build(config: &AsyncConfig, shards: usize) -> ShardedDriver<MaxGossipHandler> {
    let handler_config = MaxGossipConfig {
        bits: config.sim.id_bits() + config.sim.value_bits(),
        ..MaxGossipConfig::default()
    };
    let salt = config.sim.seed;
    ShardedDriver::new(config.clone(), shards, move |me: NodeId| {
        let own = ((me.index() as u64).wrapping_mul(salt | 1) % 100_003) as f64;
        MaxGossipHandler::new(me, own, handler_config)
    })
}

/// The observables a run can diverge on: the order hash, the driver
/// counters, the merged metrics and every node's final store.
fn observe(driver: &ShardedDriver<MaxGossipHandler>) -> (u64, u64, u64, u64, Vec<u64>) {
    let m = driver.metrics();
    (
        m.order_hash,
        m.messages_dispatched,
        m.timer_fires,
        driver.net_metrics().total_messages(),
        driver
            .iter_handlers()
            .map(|(_, h)| h.current_max().to_bits())
            .collect(),
    )
}

#[test]
fn random_configs_agree_across_shard_counts_and_slicing() {
    let counts = shard_counts();
    let mut rng = SmallRng::seed_from_u64(0x5AAD_C0DE);
    for case in 0..12 {
        let config = random_config(&mut rng);
        let horizon: u64 = rng.gen_range(20_000..45_000);
        let slice: u64 = rng.gen_range(1_000..horizon / 2);
        let reference = {
            let mut driver = build(&config, counts[0]);
            driver.run_until(horizon);
            observe(&driver)
        };
        for &shards in &counts[1..] {
            let mut driver = build(&config, shards);
            driver.run_until(horizon);
            assert_eq!(
                reference,
                observe(&driver),
                "case {case}: shard count {shards} diverged on {config:?} (horizon {horizon})"
            );
        }
        // Slice the reference shard count's event loop unevenly.
        let mut driver = build(&config, *counts.last().unwrap());
        let mut t = 0u64;
        while t < horizon {
            t = (t + slice).min(horizon);
            driver.run_until(t);
        }
        assert_eq!(
            reference,
            observe(&driver),
            "case {case}: slicing by {slice} diverged on {config:?} (horizon {horizon})"
        );
    }
}
