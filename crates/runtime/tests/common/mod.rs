//! Helpers shared by the runtime integration-test binaries.

#![allow(dead_code)] // each test binary uses its own subset

use gossip_drr::protocol::DrrGossipReport;
use gossip_net::{mix64, Metrics};
use gossip_runtime::AsyncMetrics;

/// Shard counts exercised by the sharded-engine tests. CI pins the ladder
/// explicitly via `GOSSIP_TEST_SHARDS` (a comma-separated list — the
/// experiment-smoke job adds an uneven count like 13 for ragged-chunking
/// coverage); the default is {1, 2, 8}, so a plain `cargo test` covers the
/// acceptance ladder too.
pub fn shard_counts() -> Vec<usize> {
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

/// Fold a sequence of words into one 64-bit digest — the compact form of
/// an absolute golden pin over a whole vector of observables.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0x601D_5EED, |h, w| mix64(h ^ w))
}

/// Digest of every engine-level observable: drop causes, churn counts and
/// the delivered-latency distribution.
pub fn async_digest(m: &AsyncMetrics) -> u64 {
    let l = &m.latency;
    digest([
        m.late_drops,
        m.bandwidth_drops,
        m.churn_crashes,
        m.churn_rejoins,
        l.count(),
        l.min_us(),
        l.max_us(),
        l.mean_us().to_bits(),
        l.quantile_us(0.5),
        l.quantile_us(0.9),
        l.quantile_us(0.99),
    ])
}

/// Digest of the protocol-level accounting.
pub fn metrics_digest(m: &Metrics) -> u64 {
    digest(
        [
            m.rounds(),
            m.total_messages(),
            m.total_dropped(),
            m.total_bits(),
            u64::from(m.max_message_bits()),
        ]
        .into_iter()
        .chain(m.per_round_messages().iter().copied()),
    )
}

/// A DRR-gossip run pinned absolutely: digest of every estimate's bits and
/// the final liveness, rounds, messages, virtual time and the engine
/// metrics digest.
pub type RunPin = (u64, u64, u64, u64, u64);

pub fn run_pin(report: &DrrGossipReport, now_us: u64, async_metrics: &AsyncMetrics) -> RunPin {
    (
        digest(
            report
                .estimates
                .iter()
                .map(|e| e.to_bits())
                .chain(report.alive.iter().map(|&a| u64::from(a))),
        ),
        report.total_rounds,
        report.total_messages,
        now_us,
        async_digest(async_metrics),
    )
}
