//! # gossip-net
//!
//! Round-synchronous network simulator for the **random phone-call model**
//! used by gossip-based aggregate-computation protocols (Chen & Pandurangan,
//! *Optimal Gossip-Based Aggregate Computation*, SPAA 2010, Section 2).
//!
//! The model implemented here:
//!
//! * The network consists of `n` nodes with unique addresses (`0..n`).
//! * Nodes communicate in discrete, synchronized **rounds**; in one round a
//!   node can *call* (initiate communication with) at most one other node,
//!   chosen either uniformly at random (address-oblivious steps) or by
//!   address (non-address-oblivious steps).
//! * Once a call is established, information may flow in both directions.
//! * Message length is limited to `O(log n + log s)` bits where `s` is the
//!   range of node values; [`SimConfig::message_bit_budget`] exposes the
//!   budget and [`Metrics`] records the largest message actually sent so
//!   that tests can assert the bound.
//! * Failures: a fraction of nodes may crash *before* the protocol starts
//!   ([`SimConfig::initial_crash_prob`]) and every message is lost
//!   independently with probability `δ` ([`SimConfig::loss_prob`]), with
//!   `1/log n < δ < 1/8` in the paper's analysis (any `δ ∈ [0,1)` is accepted
//!   by the simulator).
//!
//! Every protocol in the workspace funnels all of its communication through
//! [`Network::send`] so that message counts, per-phase breakdowns, dropped
//! messages, message sizes and round counts are accounted for uniformly and
//! can be compared across protocols.
//!
//! ```
//! use gossip_net::{Network, Phase, SimConfig};
//!
//! let mut net = Network::new(SimConfig::new(64).with_seed(7).with_loss_prob(0.05));
//! let a = net.sample_uniform();
//! let b = net.sample_uniform();
//! net.send(a, b, Phase::RootGossip, 48);
//! net.advance_round();
//! assert_eq!(net.metrics().total_messages(), 1);
//! assert_eq!(net.metrics().rounds(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod bits;
pub mod config;
pub mod mailbox;
pub mod metrics;
pub mod network;
pub mod node;
pub mod phase;
pub mod stream;
pub mod transport;
pub mod wire;

pub use auth::{hmac_sha256, sha256, AuthKey, AUTH_TAG_BYTES};
pub use bits::{ceil_log2, id_bits, mix64, value_bits_for_range, SETUP_STREAM_SALT};
pub use config::SimConfig;
pub use mailbox::{sample_from_view, stagger_us, Handler, Mailbox, PeerView, StaticView, TimerId};
pub use metrics::{Metrics, PhaseBreakdown};
pub use network::Network;
pub use node::NodeId;
pub use phase::Phase;
pub use stream::node_rng;
pub use transport::{NodeIdIter, Transport};
pub use wire::{
    decode_frame_sealed, seal_frame, WireError, WireMsg, WireReader, WireWriter, FLAG_AUTH,
    FLAG_TRACE, FRAME_HEADER_BYTES, MAX_PAYLOAD_BYTES, TRACE_CTX_BYTES, WIRE_MAGIC, WIRE_VERSION,
};
