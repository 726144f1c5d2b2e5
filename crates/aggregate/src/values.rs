//! Workload generators: per-node value distributions.
//!
//! The paper motivates aggregate computation with workloads such as the
//! average number of files stored at each peer, the maximum file size
//! exchanged, or the average/minimum remaining battery power of sensor
//! nodes. These generators produce the per-node values `v_i` for those
//! scenarios as well as adversarial shapes used in tests (constant values,
//! a single outlier, mixed-sign values whose average is near zero — the case
//! Theorem 7 treats separately).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp, Normal, Zipf};

/// A distribution of node values.
#[derive(Clone, Debug, PartialEq)]
pub enum ValueDistribution {
    /// Every node holds the same value.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Normal with the given mean and standard deviation.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation (must be positive).
        std_dev: f64,
    },
    /// Exponential with the given rate parameter.
    Exponential {
        /// Rate λ (must be positive).
        lambda: f64,
    },
    /// Zipf-distributed integers in `1..=max` with exponent `exponent`
    /// (heavy-tailed file-count / popularity style workloads).
    Zipf {
        /// Largest value.
        max: u64,
        /// Tail exponent (must be positive).
        exponent: f64,
    },
    /// All zeros except one node holding `value` (rumor-style workloads and
    /// the worst case for Max computation: exactly one witness).
    SingleOutlier {
        /// The outlier value.
        value: f64,
    },
    /// Values alternating around zero so that the true average is ~0 — the
    /// corner case the paper handles with the absolute-error criterion.
    MixedSign {
        /// Magnitude of the alternating values.
        magnitude: f64,
    },
    /// Sensor-style battery levels: uniform percentages in `[0, 100]` with a
    /// small cluster of nearly-drained nodes.
    BatteryLevels,
}

impl ValueDistribution {
    /// Generate `n` node values deterministically from `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xa5a5_5a5a_1234_5678);
        match self {
            ValueDistribution::Constant(v) => vec![*v; n],
            ValueDistribution::Uniform { lo, hi } => {
                assert!(hi > lo, "uniform distribution requires hi > lo");
                (0..n).map(|_| rng.gen_range(*lo..*hi)).collect()
            }
            ValueDistribution::Normal { mean, std_dev } => {
                let dist = Normal::new(*mean, *std_dev).expect("valid normal parameters");
                (0..n).map(|_| dist.sample(&mut rng)).collect()
            }
            ValueDistribution::Exponential { lambda } => {
                let dist = Exp::new(*lambda).expect("valid exponential rate");
                (0..n).map(|_| dist.sample(&mut rng)).collect()
            }
            ValueDistribution::Zipf { max, exponent } => {
                let dist =
                    Zipf::new(*max, *exponent).expect("valid Zipf parameters (max >= 1, s > 0)");
                (0..n).map(|_| dist.sample(&mut rng)).collect()
            }
            ValueDistribution::SingleOutlier { value } => {
                let mut values = vec![0.0; n];
                if n > 0 {
                    let idx = rng.gen_range(0..n);
                    values[idx] = *value;
                }
                values
            }
            ValueDistribution::MixedSign { magnitude } => (0..n)
                .map(|i| {
                    let jitter = rng.gen_range(-0.01..0.01) * magnitude;
                    if i % 2 == 0 {
                        *magnitude + jitter
                    } else {
                        -*magnitude + jitter
                    }
                })
                .collect(),
            ValueDistribution::BatteryLevels => (0..n)
                .map(|_| {
                    if rng.gen_bool(0.05) {
                        rng.gen_range(0.0..5.0)
                    } else {
                        rng.gen_range(20.0..100.0)
                    }
                })
                .collect(),
        }
    }

    /// An upper bound on the spread of generated values (the `s` of the
    /// model's `O(log n + log s)` message-size bound), used to configure
    /// `gossip_net::SimConfig::with_value_range` consistently (no intra-doc
    /// link: `gossip-net` is not a dependency of this crate).
    pub fn value_range(&self) -> f64 {
        match self {
            ValueDistribution::Constant(v) => v.abs().max(1.0),
            ValueDistribution::Uniform { lo, hi } => (hi - lo).abs().max(1.0),
            ValueDistribution::Normal { mean, std_dev } => (mean.abs() + 8.0 * std_dev).max(1.0),
            ValueDistribution::Exponential { lambda } => (32.0 / lambda).max(1.0),
            ValueDistribution::Zipf { max, .. } => *max as f64,
            ValueDistribution::SingleOutlier { value } => value.abs().max(1.0),
            ValueDistribution::MixedSign { magnitude } => (2.0 * magnitude).max(1.0),
            ValueDistribution::BatteryLevels => 100.0,
        }
    }

    /// Short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            ValueDistribution::Constant(_) => "constant",
            ValueDistribution::Uniform { .. } => "uniform",
            ValueDistribution::Normal { .. } => "normal",
            ValueDistribution::Exponential { .. } => "exponential",
            ValueDistribution::Zipf { .. } => "zipf",
            ValueDistribution::SingleOutlier { .. } => "single-outlier",
            ValueDistribution::MixedSign { .. } => "mixed-sign",
            ValueDistribution::BatteryLevels => "battery",
        }
    }
}

impl Default for ValueDistribution {
    fn default() -> Self {
        ValueDistribution::Uniform {
            lo: 0.0,
            hi: 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_length() {
        for dist in [
            ValueDistribution::Constant(3.0),
            ValueDistribution::Uniform { lo: 0.0, hi: 1.0 },
            ValueDistribution::Normal {
                mean: 0.0,
                std_dev: 1.0,
            },
            ValueDistribution::Exponential { lambda: 2.0 },
            ValueDistribution::Zipf {
                max: 100,
                exponent: 1.2,
            },
            ValueDistribution::SingleOutlier { value: 9.0 },
            ValueDistribution::MixedSign { magnitude: 5.0 },
            ValueDistribution::BatteryLevels,
        ] {
            assert_eq!(dist.generate(137, 1).len(), 137, "{}", dist.name());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let d = ValueDistribution::Uniform { lo: -5.0, hi: 5.0 };
        assert_eq!(d.generate(100, 7), d.generate(100, 7));
        assert_ne!(d.generate(100, 7), d.generate(100, 8));
    }

    #[test]
    fn constant_is_constant() {
        let values = ValueDistribution::Constant(2.5).generate(50, 0);
        assert!(values.iter().all(|&v| v == 2.5));
    }

    #[test]
    fn uniform_respects_bounds() {
        let values = ValueDistribution::Uniform { lo: 10.0, hi: 20.0 }.generate(10_000, 3);
        assert!(values.iter().all(|&v| (10.0..20.0).contains(&v)));
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((mean - 15.0).abs() < 0.3);
    }

    #[test]
    fn single_outlier_has_exactly_one_nonzero() {
        let values = ValueDistribution::SingleOutlier { value: 42.0 }.generate(1000, 11);
        assert_eq!(values.iter().filter(|&&v| v != 0.0).count(), 1);
        assert!(values.contains(&42.0));
    }

    #[test]
    fn mixed_sign_average_is_near_zero() {
        let values = ValueDistribution::MixedSign { magnitude: 10.0 }.generate(10_000, 5);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!(mean.abs() < 0.5, "mean = {mean}");
    }

    #[test]
    fn battery_levels_within_percentage_range() {
        let values = ValueDistribution::BatteryLevels.generate(5000, 17);
        assert!(values.iter().all(|&v| (0.0..=100.0).contains(&v)));
        assert!(values.iter().any(|&v| v < 5.0), "some nearly-drained node");
    }

    #[test]
    fn zipf_values_are_positive_and_bounded() {
        let values = ValueDistribution::Zipf {
            max: 50,
            exponent: 1.1,
        }
        .generate(2000, 23);
        assert!(values.iter().all(|&v| (1.0..=50.0).contains(&v)));
    }

    #[test]
    fn value_range_is_positive() {
        for dist in [
            ValueDistribution::Constant(0.0),
            ValueDistribution::Uniform { lo: 0.0, hi: 1.0 },
            ValueDistribution::MixedSign { magnitude: 0.0 },
        ] {
            assert!(dist.value_range() >= 1.0);
        }
    }
}
