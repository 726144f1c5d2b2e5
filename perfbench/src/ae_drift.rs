//! `ae_drift`: Merkle anti-entropy tracking a drifting signal at n = 512
//! on one shard, under crash/rejoin churn, loss and latency. Most of the
//! time goes to the `ae` layer: `Store` merges, `DigestTree` refreshes and
//! the reconcile legs, with `Vec` payloads.

use crate::report::{ratio, Counters, Metrics};
use crate::sharded::{self, ShardWorkload, Traced};
use crate::timed::{HandlerStats, Probe, TimedHandler};
use crate::Outcome;
use gossip_ae::{ae_sharded_driver, AeConfig, AeMsg, AeNode, DigestMode, SignalModel, TIMER_TICK};
use gossip_net::{Handler, NodeId, SimConfig, TimerId};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver};
use std::sync::{Arc, Mutex};

const N: usize = 512;
const SHARDS: usize = 1;
const TICKS: u64 = 60;
/// The correctness gate: at least `GATE_SHARE` of alive nodes hold an
/// estimate within `GATE_BAND` of the live mean. Entries of nodes that
/// crashed inside the expiry window still count, which biases every
/// estimate by up to about 1% on some seeds (the membership-detection
/// floor), so the 1% band of `error_frac` is a measurement, not a gate. A
/// node that merges nothing holds only its own value, up to ±100% off.
const GATE_BAND: f64 = 0.05;
const GATE_SHARE: f64 = 0.9;

impl Probe for AeNode {
    const MSG_KINDS: &'static [&'static str] = &[
        "SynReq",
        "SynAck",
        "Delta",
        "MerkleSyn",
        "MerkleProbe",
        "RangeSyn",
        "RangeAck",
    ];
    const TIMER_KINDS: &'static [&'static str] = &["tick", "update"];

    fn msg_kind(msg: &AeMsg) -> usize {
        match msg {
            AeMsg::SynReq { .. } => 0,
            AeMsg::SynAck { .. } => 1,
            AeMsg::Delta { .. } => 2,
            AeMsg::MerkleSyn { .. } => 3,
            AeMsg::MerkleProbe { .. } => 4,
            AeMsg::RangeSyn { .. } => 5,
            AeMsg::RangeAck { .. } => 6,
        }
    }

    fn timer_kind(timer: TimerId) -> usize {
        usize::from(timer != TIMER_TICK)
    }

    fn useful(&self) -> u64 {
        self.stats.entries_adopted
    }
}

fn ae_config() -> AeConfig {
    AeConfig::default()
        .with_signal(SignalModel::uniform(0.0, 100.0).with_drift_per_s(5.0))
        .with_update_us(16_000)
        .with_digest_mode(DigestMode::Merkle)
}

fn engine(seed: u64) -> AsyncConfig {
    AsyncConfig::new(
        SimConfig::new(N)
            .with_seed(seed)
            .with_loss_prob(0.01)
            .with_value_range(100.0),
    )
    .with_latency(LatencyModel::Uniform {
        lo_us: 200,
        hi_us: 1_200,
    })
    .with_churn(ChurnModel::per_round(0.005, 0.25).with_min_alive(N / 2))
}

/// Each alive node's relative error against the true live-signal mean
/// (NaN for a node without an estimate), as in E17.
fn relative_errors<X>(driver: &ShardedDriver<X>, inner: impl Fn(&X) -> &AeNode) -> Vec<f64>
where
    X: Handler + Send,
    X::Msg: Send,
{
    let now = driver.now_us();
    let alive: Vec<NodeId> = (0..N)
        .map(NodeId::new)
        .filter(|&v| driver.is_alive(v))
        .collect();
    let truth = ae_config()
        .signal
        .true_mean(alive.iter().copied(), now)
        .expect("min_alive keeps the network populated");
    alive
        .iter()
        .map(|&v| {
            inner(driver.handler(v))
                .estimate(now)
                .map_or(f64::NAN, |e| (e - truth) / truth)
        })
        .collect()
}

struct AeDrift {
    seed: u64,
}

impl ShardWorkload for AeDrift {
    type H = AeNode;

    fn build(&self) -> ShardedDriver<AeNode> {
        ae_sharded_driver(engine(self.seed), ae_config(), SHARDS)
    }

    /// `ae_sharded_driver`, rebuilt from its public parts around wrapped
    /// handlers; the counter guard proves the two drivers identical.
    fn build_traced(&self, sink: Arc<Mutex<HandlerStats>>) -> ShardedDriver<TimedHandler<AeNode>> {
        let config = engine(self.seed);
        let ae = ae_config();
        let (id_bits, value_bits) = (config.sim.id_bits(), config.sim.value_bits());
        ShardedDriver::new(config, SHARDS, move |me| {
            TimedHandler::new(
                AeNode::new(me, N, id_bits, value_bits, ae),
                Some(sink.clone()),
            )
        })
        .with_window_us(ae.tick_us)
    }

    fn horizon_us(&self) -> u64 {
        TICKS * ae_config().tick_us
    }

    fn window_us(&self) -> u64 {
        ae_config().tick_us
    }

    fn threads(&self) -> usize {
        SHARDS
    }

    fn counters<X>(&self, driver: &ShardedDriver<X>, inner: impl Fn(&X) -> &AeNode) -> Counters
    where
        X: Handler + Send,
        X::Msg: Send,
    {
        let errors = relative_errors(driver, &inner);
        let off = errors
            .iter()
            .filter(|e| e.is_nan() || e.abs() > 0.01)
            .count();
        let (adopted, mismatches) = driver.iter_handlers().fold((0, 0), |(a, d), (_, h)| {
            let stats = inner(h).stats;
            (a + stats.entries_adopted, d + stats.digest_mismatches)
        });
        let m = driver.net_metrics();
        Counters {
            rounds: m.rounds(),
            messages: m.total_messages(),
            events: driver.events_dispatched(),
            order_hash: driver.order_hash(),
            bytes_per_msg: ratio(m.total_bits() as f64 / 8.0, m.total_messages() as f64),
            error_frac: ratio(off as f64, errors.len() as f64),
            useful: adopted,
            rejects: mismatches,
        }
    }

    fn check<X>(
        &self,
        driver: &ShardedDriver<X>,
        inner: impl Fn(&X) -> &AeNode,
        counters: &Counters,
    ) -> Option<String>
    where
        X: Handler + Send,
        X::Msg: Send,
    {
        let errors = relative_errors(driver, inner);
        let within = errors.iter().filter(|e| e.abs() <= GATE_BAND).count();
        if counters.rejects > 0 {
            Some(format!(
                "{} digest mismatches between same-arity nodes",
                counters.rejects
            ))
        } else if (within as f64) < GATE_SHARE * errors.len() as f64 {
            Some(format!(
                "only {within} of {} alive nodes are within {GATE_BAND} of the live mean",
                errors.len()
            ))
        } else {
            None
        }
    }

    fn detail(&self, traced: &[Traced], m: &mut Metrics) {
        for (i, kind) in AeNode::MSG_KINDS.iter().enumerate() {
            m.push(
                format!("ae.msg.{kind}.calls"),
                sharded::per_run(traced, |t| t.stats.msg[i].calls as f64),
                "count",
            );
            m.push(
                format!("ae.msg.{kind}.ns"),
                sharded::per_run(traced, |t| t.stats.msg[i].ns as f64),
                "ns",
            );
        }
        for (i, kind) in AeNode::TIMER_KINDS.iter().enumerate() {
            m.push(
                format!("ae.timer.{kind}.calls"),
                sharded::per_run(traced, |t| t.stats.timer[i].calls as f64),
                "count",
            );
            m.push(
                format!("ae.timer.{kind}.ns"),
                sharded::per_run(traced, |t| t.stats.timer[i].ns as f64),
                "ns",
            );
        }
        let handled = |t: &Traced| t.stats.msg.iter().map(|s| s.calls).sum::<u64>() as f64;
        m.push(
            "ae.entries_adopted",
            sharded::per_run(traced, |t| t.rep.counters.useful as f64),
            "count",
        );
        m.push(
            "ae.digest_mismatches",
            sharded::per_run(traced, |t| t.rep.counters.rejects as f64),
            "count",
        );
        m.push(
            "ae.adopted_per_msg",
            sharded::per_run(traced, |t| ratio(t.stats.useful as f64, handled(t))),
            "frac",
        );
        m.push(
            "ae.bits_per_msg",
            sharded::per_run(traced, |t| t.rep.counters.bytes_per_msg * 8.0),
            "bit",
        );
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    Ok(sharded::run(&AeDrift { seed }, seconds, trace))
}
