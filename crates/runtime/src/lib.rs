//! # gossip-runtime
//!
//! An asynchronous **discrete-event simulation core** for the gossip
//! protocols of this workspace, and the parallel sweep runner used by the
//! experiment harness.
//!
//! The synchronous [`gossip_net::Network`] implements the paper's clean
//! round-barrier phone-call model: every message arrives instantly (or is
//! lost), failures happen only before the protocol starts, and rounds are
//! free. Real gossip deployments are none of those things. This crate
//! models the world underneath over virtual microseconds, configured by one
//! [`AsyncConfig`]:
//!
//! * **Per-link latency** ([`LatencyModel`]): constant, uniform or
//!   log-normal per-message delay, with an optional deterministic per-link
//!   bias so some links are persistently slower than others.
//! * **Ongoing churn** ([`ChurnModel`]): nodes crash *mid-run* (at a random
//!   instant inside a round window, ordered against message deliveries)
//!   and dead nodes may rejoin at round boundaries — beyond the
//!   start-time-only `initial_crash_prob` of the synchronous model.
//! * **Bandwidth budgets**: an optional per-node, per-round bit budget;
//!   sends beyond the budget are dropped (and accounted).
//! * **Round policies** ([`RoundPolicy`]): either rounds *stretch* to the
//!   slowest delivered message (virtual time measures straggler cost), or
//!   rounds have a *fixed deadline* and late messages are lost — in which
//!   case [`Transport::send_with_retries`](gossip_net::Transport::send_with_retries)
//!   becomes RTT-aware and stops retrying once the deadline cannot be met.
//!
//! One sharded event core hosts both protocol styles of the workspace:
//!
//! * **Round-barrier protocols** ([`ShardedTransport`]): the plain
//!   [`Transport`](gossip_net::Transport) trait over per-shard calendar
//!   queues, so the one-shot coordinators (`drr_gossip_max`,
//!   `drr_gossip_ave`, `push_sum_average`, convergecast, broadcast) run
//!   unchanged. Every draw comes from one RNG in a fixed order, so a run
//!   is a pure function of the seed and invariant under the shard count
//!   (see the `facade` module docs).
//! * **Event-driven protocols** ([`ShardedDriver`]): per-node
//!   [`Handler`](gossip_net::Handler)s (`on_start` / `on_message` /
//!   `on_timer`) dispatched from the calendar queues, with first-class
//!   timers, crash/rejoin incarnations, payload arenas, struct-of-arrays
//!   node state, per-node RNG streams ([`gossip_net::node_rng`]) and
//!   deterministic bounded-lag cross-shard batching — runs are
//!   bit-identical across shard counts, worker threads and event-loop
//!   slicings, up to n ≥ 10⁷ (see the `shard` module docs).
//!
//! In the compatibility configuration — [`LatencyModel::Constant`], no
//! churn and no bandwidth cap — [`ShardedTransport`] consumes its RNG in
//! exactly the same order as the synchronous `Network`, so the two
//! backends produce **bit-identical** protocol runs; the determinism suite
//! pins it.
//!
//! ```
//! use gossip_net::{Handler, Mailbox, NodeId, Phase, SimConfig, TimerId, Transport};
//! use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, ShardedDriver, ShardedTransport};
//!
//! let config = AsyncConfig::new(SimConfig::new(512).with_seed(7))
//!     .with_latency(LatencyModel::LogNormal { median_us: 800.0, sigma: 0.8 })
//!     .with_churn(ChurnModel::per_round(0.01, 0.2));
//!
//! // Round-barrier style: any Transport-generic protocol runs on it; see
//! // gossip-drr.
//! let mut facade = ShardedTransport::new(config.clone(), 1);
//! let a = facade.sample_uniform();
//! let b = facade.sample_other_than(a);
//! facade.send(a, b, Phase::Other, 32);
//! facade.advance_round();
//! assert_eq!(facade.round(), 1);
//! assert!(facade.now_us() > 0);
//!
//! // Event-driven style: one handler per node, here a 1 ms ticker.
//! struct Ticker;
//! impl Handler for Ticker {
//!     type Msg = ();
//!     fn on_start(&mut self, mailbox: &mut dyn Mailbox<()>) {
//!         mailbox.set_timer(1_000, TimerId(0));
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: (), _mailbox: &mut dyn Mailbox<()>) {}
//!     fn on_timer(&mut self, timer: TimerId, mailbox: &mut dyn Mailbox<()>) {
//!         mailbox.set_timer(1_000, timer);
//!     }
//! }
//! let mut driver = ShardedDriver::new(config, 2, |_| Ticker);
//! driver.run_until(10_000);
//! assert!(driver.metrics().timer_fires > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod churn;
pub mod config;
pub mod facade;
pub mod latency;
pub mod metrics;
pub mod shard;
mod soa;
pub mod sweep;

pub use arena::{PayloadArena, NO_PAYLOAD};
pub use churn::ChurnModel;
pub use config::{AsyncConfig, RoundPolicy};
pub use facade::ShardedTransport;
pub use latency::LatencyModel;
pub use metrics::{AsyncMetrics, DriverMetrics, LatencyHistogram};
pub use shard::ShardedDriver;
pub use sweep::SweepRunner;
