//! # drr-gossip
//!
//! Facade crate for the *Optimal Gossip-Based Aggregate Computation*
//! (Chen & Pandurangan, SPAA 2010) reproduction. Re-exports the workspace
//! crates under stable module names. See `DESIGN.md` for the system map and
//! `README.md` for the quickstart; the tables and figures are regenerated
//! by `cargo run --release -p gossip-bench -- all`.

#![forbid(unsafe_code)]

pub use gossip_ae as ae;
pub use gossip_aggregate as aggregate;
pub use gossip_analysis as analysis;
pub use gossip_baselines as baselines;
pub use gossip_drr as drr;
pub use gossip_member as member;
pub use gossip_net as net;
pub use gossip_node as node;
pub use gossip_obs as obs;
pub use gossip_runtime as runtime;
pub use gossip_topology as topology;

/// Commonly used items.
pub mod prelude {
    pub use gossip_ae::{ae_sharded_driver, AeConfig, AeNode, SignalModel};
    pub use gossip_member::{Member, MemberConfig, MemberMsg};
    pub use gossip_net::{Handler, Mailbox, Network, NodeId, Phase, SimConfig, TimerId, Transport};
    pub use gossip_node::{LoopbackCluster, NodeHost};
    pub use gossip_runtime::{
        AsyncConfig, ChurnModel, LatencyModel, ShardedDriver, ShardedTransport, SweepRunner,
    };
}
