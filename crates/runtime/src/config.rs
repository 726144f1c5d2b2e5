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
    /// Panics on a model no run could sample from (see
    /// [`validate`](AsyncConfig::validate)).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self.validated()
    }

    /// Set the deterministic per-link latency spread (`[0, 1)`).
    ///
    /// # Panics
    /// Panics on a spread outside `[0, 1)`.
    pub fn with_link_spread(mut self, spread: f64) -> Self {
        self.link_spread = spread;
        self.validated()
    }

    /// Set the churn model.
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = churn;
        self
    }

    /// Cap each node's per-round sending budget (bits).
    ///
    /// # Panics
    /// Panics on a zero budget.
    pub fn with_bandwidth_bits_per_round(mut self, bits: u64) -> Self {
        self.bandwidth_bits_per_round = Some(bits);
        self.validated()
    }

    /// Set the round-closing policy.
    pub fn with_round_policy(mut self, policy: RoundPolicy) -> Self {
        self.round_policy = policy;
        self
    }

    /// Check every field against its documented domain. The builders
    /// enforce this one field at a time; the fields are public, so a
    /// configuration assembled by assignment is re-checked here by both
    /// event-core constructors. Rejects an invalid [`SimConfig`], a
    /// uniform latency range with `lo_us > hi_us`, a log-normal whose
    /// median is not finite and positive or whose σ is not finite and
    /// non-negative, a link spread outside `[0, 1)`, and a zero bandwidth
    /// budget.
    pub fn validate(&self) -> Result<(), String> {
        self.sim.validate()?;
        match self.latency {
            LatencyModel::Constant(_) => {}
            LatencyModel::Uniform { lo_us, hi_us } => {
                if lo_us > hi_us {
                    return Err(format!(
                        "uniform latency needs lo_us <= hi_us, got [{lo_us}, {hi_us}]"
                    ));
                }
            }
            LatencyModel::LogNormal { median_us, sigma } => {
                if !(median_us.is_finite() && median_us > 0.0) {
                    return Err(format!(
                        "log-normal latency needs a finite positive median, got {median_us}"
                    ));
                }
                if !(sigma.is_finite() && sigma >= 0.0) {
                    return Err(format!(
                        "log-normal latency needs a finite sigma >= 0, got {sigma}"
                    ));
                }
            }
        }
        if !(0.0..1.0).contains(&self.link_spread) {
            return Err(format!(
                "link spread must lie in [0, 1), got {}",
                self.link_spread
            ));
        }
        if self.bandwidth_bits_per_round == Some(0) {
            return Err("bandwidth budget must be positive".to_string());
        }
        Ok(())
    }

    /// `self`, or a panic naming the first invalid field.
    pub(crate) fn validated(self) -> Self {
        if let Err(e) = self.validate() {
            panic!("invalid asynchronous configuration: {e}");
        }
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
    fn validate_accepts_builder_output() {
        let built = config()
            .with_latency(LatencyModel::Uniform {
                lo_us: 100,
                hi_us: 900,
            })
            .with_link_spread(0.5)
            .with_bandwidth_bits_per_round(64);
        assert_eq!(built.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_field_assigned_configs() {
        let mut bad = config();
        bad.sim.n = 0;
        assert!(bad.validate().unwrap_err().contains("at least one node"));
        let mut bad = config();
        bad.latency = LatencyModel::Uniform {
            lo_us: 2_000,
            hi_us: 1_000,
        };
        assert!(bad.validate().unwrap_err().contains("lo_us <= hi_us"));
        let mut bad = config();
        bad.link_spread = 1.0;
        assert!(bad.validate().unwrap_err().contains("link spread"));
        let mut bad = config();
        bad.bandwidth_bits_per_round = Some(0);
        assert!(bad.validate().unwrap_err().contains("bandwidth budget"));
    }

    /// A uniform range assigned directly, past the builder: the field
    /// assignment that used to reach `median_us` and underflow there.
    fn inverted_by_assignment() -> AsyncConfig {
        let mut cfg = config();
        cfg.latency = LatencyModel::Uniform {
            lo_us: 2_000,
            hi_us: 1_000,
        };
        cfg
    }

    #[test]
    #[should_panic(expected = "lo_us <= hi_us")]
    fn sharded_transport_rejects_a_field_assigned_inverted_range() {
        let _ = crate::ShardedTransport::new(inverted_by_assignment(), 1);
    }

    #[test]
    #[should_panic(expected = "lo_us <= hi_us")]
    fn sharded_driver_rejects_a_field_assigned_inverted_range() {
        let _ = crate::ShardedDriver::new(inverted_by_assignment(), 2, |_| Idle);
    }

    #[test]
    #[should_panic(expected = "link spread must lie in [0, 1)")]
    fn out_of_range_link_spread_is_rejected() {
        let _ = config().with_link_spread(1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth budget must be positive")]
    fn zero_bandwidth_budget_is_rejected() {
        let _ = config().with_bandwidth_bits_per_round(0);
    }

    /// A handler that does nothing: the driver constructor is under test.
    struct Idle;

    impl gossip_net::Handler for Idle {
        type Msg = u64;
        fn on_start(&mut self, _: &mut dyn gossip_net::Mailbox<u64>) {}
        fn on_message(
            &mut self,
            _: gossip_net::NodeId,
            _: u64,
            _: &mut dyn gossip_net::Mailbox<u64>,
        ) {
        }
        fn on_timer(&mut self, _: gossip_net::TimerId, _: &mut dyn gossip_net::Mailbox<u64>) {}
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
