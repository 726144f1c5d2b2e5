//! The simulated world both event-core hosts run on: latency, churn,
//! bandwidth and round policy on top of the shared [`SimConfig`], plus the
//! initial-liveness draw every backend starts from.

use crate::churn::ChurnModel;
use crate::latency::LatencyModel;
use gossip_net::SimConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Draw the initial liveness pattern exactly like
/// [`Network::new`](gossip_net::Network::new): the same
/// `seed ^ SETUP_STREAM_SALT` stream, the same per-node draw order, the
/// same all-dead rescue. Shared by both sharded hosts, so every backend
/// starts from the identical alive set for the same `SimConfig`. Returns
/// the liveness vector, the alive count, and the stream positioned for the
/// backend's subsequent churn draws.
pub(crate) fn draw_initial_liveness(sim: &SimConfig) -> (Vec<bool>, usize, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(sim.seed ^ gossip_net::SETUP_STREAM_SALT);
    let mut alive = vec![true; sim.n];
    let mut alive_count = sim.n;
    if sim.initial_crash_prob > 0.0 {
        for slot in alive.iter_mut() {
            if rng.gen_bool(sim.initial_crash_prob) {
                *slot = false;
                alive_count -= 1;
            }
        }
        if alive_count == 0 {
            alive[0] = true;
            alive_count = 1;
        }
    }
    (alive, alive_count, rng)
}

/// How a round window closes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RoundPolicy {
    /// The window stretches until the slowest message of the round has
    /// arrived (but at least the latency median). Nothing is ever late;
    /// stragglers show up as *virtual-time* cost — the quantity the
    /// `latency_tail` experiment measures.
    #[default]
    Stretch,
    /// The window closes after a fixed duration (µs); messages still in
    /// flight at the deadline are dropped and counted in
    /// [`AsyncMetrics::late_drops`](crate::AsyncMetrics::late_drops).
    FixedDeadline(u64),
}

/// Full configuration of a simulated asynchronous network, taken by
/// [`ShardedTransport`](crate::ShardedTransport) and
/// [`ShardedDriver`](crate::ShardedDriver).
#[derive(Clone, Debug, PartialEq)]
pub struct AsyncConfig {
    /// The shared simulation parameters (size, seed, loss, value range —
    /// exactly what the synchronous backend takes).
    pub sim: SimConfig,
    /// Message latency model.
    pub latency: LatencyModel,
    /// Per-link deterministic latency spread in `[0, 1)`; `0` disables it.
    pub link_spread: f64,
    /// Ongoing churn model.
    pub churn: ChurnModel,
    /// Per-node, per-round sending budget in bits; `None` = unlimited.
    pub bandwidth_bits_per_round: Option<u64>,
    /// Round-closing policy.
    pub round_policy: RoundPolicy,
}

impl AsyncConfig {
    /// Configuration with defaults: constant 1 ms latency, no churn, no
    /// bandwidth cap, stretching rounds — the compatibility configuration
    /// that mirrors the synchronous `Network` bit for bit.
    pub fn new(sim: SimConfig) -> Self {
        sim.validate().expect("invalid simulation configuration");
        AsyncConfig {
            sim,
            latency: LatencyModel::default(),
            link_spread: 0.0,
            churn: ChurnModel::none(),
            bandwidth_bits_per_round: None,
            round_policy: RoundPolicy::default(),
        }
    }

    /// Set the latency model.
    ///
    /// # Panics
    /// Panics on a model no run could sample from: a uniform range with
    /// `lo_us > hi_us`, or a log-normal whose median is not finite and
    /// positive or whose σ is not finite and non-negative.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        match latency {
            LatencyModel::Constant(_) => {}
            LatencyModel::Uniform { lo_us, hi_us } => assert!(
                lo_us <= hi_us,
                "uniform latency needs lo_us <= hi_us, got [{lo_us}, {hi_us}]"
            ),
            LatencyModel::LogNormal { median_us, sigma } => {
                assert!(
                    median_us.is_finite() && median_us > 0.0,
                    "log-normal latency needs a finite positive median, got {median_us}"
                );
                assert!(
                    sigma.is_finite() && sigma >= 0.0,
                    "log-normal latency needs a finite sigma >= 0, got {sigma}"
                );
            }
        }
        self.latency = latency;
        self
    }

    /// Set the deterministic per-link latency spread (`[0, 1)`).
    pub fn with_link_spread(mut self, spread: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&spread),
            "link spread must lie in [0, 1), got {spread}"
        );
        self.link_spread = spread;
        self
    }

    /// Set the churn model.
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = churn;
        self
    }

    /// Cap each node's per-round sending budget (bits).
    pub fn with_bandwidth_bits_per_round(mut self, bits: u64) -> Self {
        assert!(bits > 0, "bandwidth budget must be positive");
        self.bandwidth_bits_per_round = Some(bits);
        self
    }

    /// Set the round-closing policy.
    pub fn with_round_policy(mut self, policy: RoundPolicy) -> Self {
        self.round_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AsyncConfig {
        AsyncConfig::new(SimConfig::new(8))
    }

    #[test]
    fn valid_latency_models_are_accepted() {
        for model in [
            LatencyModel::Constant(0),
            LatencyModel::Uniform {
                lo_us: 500,
                hi_us: 500,
            },
            LatencyModel::LogNormal {
                median_us: 800.0,
                sigma: 0.0,
            },
        ] {
            assert_eq!(config().with_latency(model).latency, model);
        }
    }

    #[test]
    #[should_panic(expected = "lo_us <= hi_us")]
    fn inverted_uniform_range_is_rejected() {
        let _ = config().with_latency(LatencyModel::Uniform {
            lo_us: 2_000,
            hi_us: 1_000,
        });
    }

    #[test]
    #[should_panic(expected = "finite positive median")]
    fn non_positive_log_normal_median_is_rejected() {
        let _ = config().with_latency(LatencyModel::LogNormal {
            median_us: 0.0,
            sigma: 0.5,
        });
    }

    #[test]
    #[should_panic(expected = "finite positive median")]
    fn infinite_log_normal_median_is_rejected() {
        let _ = config().with_latency(LatencyModel::LogNormal {
            median_us: f64::INFINITY,
            sigma: 0.5,
        });
    }

    #[test]
    #[should_panic(expected = "finite sigma >= 0")]
    fn negative_log_normal_sigma_is_rejected() {
        let _ = config().with_latency(LatencyModel::LogNormal {
            median_us: 1_000.0,
            sigma: -0.1,
        });
    }

    #[test]
    #[should_panic(expected = "finite sigma >= 0")]
    fn nan_log_normal_sigma_is_rejected() {
        let _ = config().with_latency(LatencyModel::LogNormal {
            median_us: 1_000.0,
            sigma: f64::NAN,
        });
    }
}
