//! `churn_push`: event-driven uniform gossip-max (one 8-byte push per node
//! per ms) on the sharded engine at n = 2·10⁵ over 2 shards, under the
//! E18 engine configuration. The handler is trivial, so the time goes to
//! the event core: calendar queues, payload arenas, the cross-shard
//! exchange and the churn barrier.

use crate::report::{ratio, Counters, Metrics};
use crate::sharded::{self, ShardWorkload, Traced};
use crate::timed::{HandlerStats, Probe, TimedHandler};
use crate::{e18_engine, input_values, Outcome};
use gossip_drr::handler::{MaxGossipConfig, MaxGossipHandler};
use gossip_net::{Handler, NodeId, SimConfig, TimerId};
use gossip_runtime::ShardedDriver;
use std::sync::{Arc, Mutex};

const N: usize = 200_000;
const SHARDS: usize = 2;
/// Virtual run length (µs): 12 push intervals.
const HORIZON_US: u64 = 12_000;
/// The least share of the pushes sent that a run must deliver.
const MIN_DELIVERED: f64 = 0.9;
/// The least share of alive nodes that must end above their own input.
const MIN_RAISED: f64 = 0.9;

impl Probe for MaxGossipHandler {
    const MSG_KINDS: &'static [&'static str] = &["push"];
    const TIMER_KINDS: &'static [&'static str] = &["push"];

    fn msg_kind(_msg: &f64) -> usize {
        0
    }

    fn timer_kind(_timer: TimerId) -> usize {
        0
    }
}

struct ChurnPush {
    seed: u64,
    values: Arc<Vec<f64>>,
    config: MaxGossipConfig,
}

impl ChurnPush {
    fn new(seed: u64) -> Self {
        let sim = SimConfig::new(N);
        ChurnPush {
            seed,
            values: Arc::new(input_values(seed, N)),
            config: MaxGossipConfig {
                push_interval_us: 1_000,
                fanout: 1,
                bits: sim.id_bits() + sim.value_bits(),
            },
        }
    }

    fn handler(&self) -> impl Fn(NodeId) -> MaxGossipHandler + Send + 'static {
        let (values, config) = (self.values.clone(), self.config);
        move |me| MaxGossipHandler::new(me, values[me.index()], config)
    }
}

impl ShardWorkload for ChurnPush {
    type H = MaxGossipHandler;

    fn build(&self) -> ShardedDriver<MaxGossipHandler> {
        ShardedDriver::new(e18_engine(N, self.seed), SHARDS, self.handler())
    }

    fn build_traced(
        &self,
        sink: Arc<Mutex<HandlerStats>>,
    ) -> ShardedDriver<TimedHandler<MaxGossipHandler>> {
        let handler = self.handler();
        ShardedDriver::new(e18_engine(N, self.seed), SHARDS, move |me| {
            TimedHandler::new(handler(me), Some(sink.clone()))
        })
    }

    fn horizon_us(&self) -> u64 {
        HORIZON_US
    }

    fn window_us(&self) -> u64 {
        // `ShardedDriver`'s default churn window: the latency median.
        e18_engine(N, self.seed).latency.median_us().max(1)
    }

    fn threads(&self) -> usize {
        SHARDS
    }

    fn counters<X>(
        &self,
        driver: &ShardedDriver<X>,
        inner: impl Fn(&X) -> &MaxGossipHandler,
    ) -> Counters
    where
        X: Handler + Send,
        X::Msg: Send,
    {
        let alive_max = (0..N)
            .filter(|&i| driver.is_alive(NodeId::new(i)))
            .map(|i| self.values[i])
            .fold(f64::NEG_INFINITY, f64::max);
        let (mut alive, mut off) = (0u64, 0u64);
        for (node, handler) in driver.iter_handlers() {
            if driver.is_alive(node) {
                alive += 1;
                let estimate = inner(handler).current_max();
                off += u64::from((estimate - alive_max).abs() > 0.01 * alive_max);
            }
        }
        let m = driver.net_metrics();
        Counters {
            rounds: m.rounds(),
            messages: m.total_messages(),
            events: driver.events_dispatched(),
            order_hash: driver.order_hash(),
            bytes_per_msg: ratio(m.total_bits() as f64 / 8.0, m.total_messages() as f64),
            error_frac: ratio(off as f64, alive as f64),
            useful: 0,
            rejects: 0,
        }
    }

    fn check<X>(
        &self,
        driver: &ShardedDriver<X>,
        inner: impl Fn(&X) -> &MaxGossipHandler,
        _counters: &Counters,
    ) -> Option<String>
    where
        X: Handler + Send,
        X::Msg: Send,
    {
        // Pushes must arrive: loss, crashed receivers and the pushes still
        // in flight at the horizon account for the rest.
        let sent = driver.net_metrics().total_messages();
        let delivered = driver.metrics().messages_dispatched;
        if (delivered as f64) < MIN_DELIVERED * sent as f64 {
            return Some(format!(
                "only {delivered} of {sent} pushes were delivered (floor {MIN_DELIVERED})"
            ));
        }
        // Every alive node holds one of the inputs, at least its own, and
        // most have heard of a larger one.
        let hi = self
            .values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let (mut alive, mut raised) = (0usize, 0usize);
        for (node, handler) in driver.iter_handlers() {
            if !driver.is_alive(node) {
                continue;
            }
            let own = self.values[node.index()];
            let estimate = inner(handler).current_max();
            if !(own..=hi).contains(&estimate) {
                return Some(format!(
                    "{node:?} holds {estimate}, outside [its own input {own}, the inputs' max {hi}]"
                ));
            }
            alive += 1;
            raised += usize::from(estimate > own);
        }
        ((raised as f64) < MIN_RAISED * alive as f64).then(|| {
            format!("only {raised} of {alive} alive nodes hold more than their own input (floor {MIN_RAISED})")
        })
    }

    fn detail(&self, traced: &[Traced], m: &mut Metrics) {
        m.push(
            "handler.msg.push.ns",
            sharded::per_run(traced, |t| t.stats.msg[0].ns as f64),
            "ns",
        );
        m.push(
            "handler.timer.push.ns",
            sharded::per_run(traced, |t| t.stats.timer[0].ns as f64),
            "ns",
        );
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    Ok(sharded::run(&ChurnPush::new(seed), seconds, trace))
}
