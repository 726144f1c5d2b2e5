//! # gossip-node
//!
//! The **real-socket host**: the one execution backend of this workspace
//! that is not a simulator. Any [`Handler`](gossip_net::Handler) written
//! for `ShardedDriver` runs here **unchanged** over UDP datagrams — the
//! anti-entropy node of `gossip-ae`, the event-driven gossip-max of
//! `gossip-drr`, anything speaking the `Mailbox` contract.
//!
//! ```text
//! Handler  ──callbacks──  NodeHost          (crate::host)
//!                           │ frames         (gossip_net::wire)
//!                           ▼
//!                        UdpSocket  ⇄  the actual network
//! ```
//!
//! * [`NodeHost`] — one node: a bound UDP socket and its event loop
//!   (non-blocking [`poll`](NodeHost::poll) or blocking
//!   [`run_until_deadline`](NodeHost::run_until_deadline)), driving a
//!   [`NodeCore`] that keeps the simulators' `(timestamp, seq)` dispatch
//!   discipline wherever reality permits it.
//! * [`NodeCore`] — the node minus I/O: handler, peer address book,
//!   monotonic timer queue (with `cancel_timer` and host jitter), RNG,
//!   stats, trace ring and auth key. Frames leave through a
//!   [`FrameSink`] and arrive through [`NodeCore::on_datagram`], so tests
//!   can drive it with no socket at all.
//! * [`LoopbackCluster`] — N hosts on 127.0.0.1 ephemeral ports, pumped
//!   round-robin from the calling thread or, through
//!   `run_parallel_until`, from one worker thread per core: the
//!   integration harness that lets a test assert "this protocol converges
//!   over real sockets" in milliseconds, and that runs callbacks truly
//!   concurrently when asked to.
//!
//! Both expose a live observability endpoint (`serve_status`): `/metrics`
//! in Prometheus text exposition, `/status` as a human-readable summary,
//! and — on hosts with a trace ring (`with_trace`) — `/trace`. The HTTP
//! server is `gossip_obs`'s non-blocking listener, pumped from the host's
//! own event loop; see DESIGN.md §6a.
//!
//! What carries over from the simulators and what does not is written up
//! in `DESIGN.md` §6. The short version: the protocol semantics carry
//! (idempotent merges, stateless exchanges, re-arming timers — everything
//! the simulators' failure models forced the protocols to get right); the
//! *determinism* does not (real clocks, real schedulers, real loss).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod core;
pub mod host;

pub use crate::core::{FrameSink, NodeCore, NodeStats, Recv};
pub use cluster::LoopbackCluster;
pub use host::{NodeHost, MAX_BLOCK_WAIT};
