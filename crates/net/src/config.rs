//! Simulation configuration (network size, seed, failure model, value range).

use crate::bits::{id_bits, value_bits_for_range};

/// Configuration of a simulated network, mirroring the model of Section 2 of
/// the paper.
///
/// `SimConfig` is a plain value type with a builder-style API:
///
/// ```
/// use gossip_net::SimConfig;
/// let cfg = SimConfig::new(1 << 12)
///     .with_seed(42)
///     .with_loss_prob(0.05)
///     .with_initial_crash_prob(0.01)
///     .with_value_range(1e6);
/// assert_eq!(cfg.n, 4096);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of nodes in the network (`n`).
    pub n: usize,
    /// Seed for all randomness in the simulation. Identical configurations
    /// with identical seeds produce identical runs.
    pub seed: u64,
    /// Probability `δ` that any individual message is lost in transit.
    /// The paper assumes `1/log n < δ < 1/8` for its analysis; the simulator
    /// accepts any value in `[0, 1)`.
    pub loss_prob: f64,
    /// Probability that a node crashes before the protocol starts. Crashed
    /// nodes never send and never receive (messages addressed to them are
    /// counted as sent but dropped).
    pub initial_crash_prob: f64,
    /// The size `s` of the range of node values; determines the `log s`
    /// component of the per-message bit budget.
    pub value_range: f64,
}

impl SimConfig {
    /// A configuration for `n` nodes with no failures and seed 0.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "network must contain at least one node");
        SimConfig {
            n,
            seed: 0,
            loss_prob: 0.0,
            initial_crash_prob: 0.0,
            value_range: (1u64 << 20) as f64,
        }
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the per-message loss probability `δ`.
    ///
    /// # Panics
    /// Panics if `delta` is not in `[0, 1)`.
    pub fn with_loss_prob(mut self, delta: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&delta),
            "loss probability must lie in [0, 1), got {delta}"
        );
        self.loss_prob = delta;
        self
    }

    /// Set the initial crash probability.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1)`.
    pub fn with_initial_crash_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "crash probability must lie in [0, 1), got {p}"
        );
        self.initial_crash_prob = p;
        self
    }

    /// Set the value range `s` (used only for message-size accounting).
    pub fn with_value_range(mut self, s: f64) -> Self {
        assert!(
            s.is_finite() && s > 0.0,
            "value range must be positive and finite"
        );
        self.value_range = s;
        self
    }

    /// Check every field against its documented domain. The builder methods
    /// enforce these invariants one by one; `validate` re-checks them all at
    /// once, which matters for configurations built by struct literal or
    /// deserialised from external input (sweep grids, CLI flags, ...).
    ///
    /// Note that `loss_prob` values *inside* `[0, 1)` but outside the
    /// paper's analysis window `1/log n < δ < 1/8` are **valid** — the
    /// simulator accepts them — they just void the paper's whp guarantees;
    /// see [`SimConfig::delta_in_analysis_window`].
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 1 {
            return Err("network must contain at least one node".to_string());
        }
        if !(0.0..1.0).contains(&self.loss_prob) {
            return Err(format!(
                "loss probability must lie in [0, 1), got {}",
                self.loss_prob
            ));
        }
        if !(0.0..1.0).contains(&self.initial_crash_prob) {
            return Err(format!(
                "crash probability must lie in [0, 1), got {}",
                self.initial_crash_prob
            ));
        }
        if !(self.value_range.is_finite() && self.value_range > 0.0) {
            return Err(format!(
                "value range must be positive and finite, got {}",
                self.value_range
            ));
        }
        Ok(())
    }

    /// Whether `δ` lies inside the paper's analysis window
    /// `1/log n < δ < 1/8` (Section 2). Outside the window the simulator
    /// still runs, but Theorems 5–7 no longer promise their whp bounds —
    /// experiment code uses this to annotate such configurations.
    pub fn delta_in_analysis_window(&self) -> bool {
        let log_n = f64::from(self.log_n()).max(1.0);
        self.loss_prob > 1.0 / log_n && self.loss_prob < 0.125
    }

    /// `⌈log₂ n⌉`, the natural probe budget unit of the paper (`log n − 1`
    /// probes in Algorithm 1, `O(log n)` gossip rounds in Phase III, ...).
    pub fn log_n(&self) -> u32 {
        id_bits(self.n)
    }

    /// The per-message bit budget `c·(log n + log s)` of the model. The
    /// constant `c = 4` leaves room for a message tag, one node address, one
    /// value and one counter, which is the widest message any protocol in
    /// this workspace sends.
    pub fn message_bit_budget(&self) -> u32 {
        4 * (id_bits(self.n) + value_bits_for_range(self.value_range))
    }

    /// Bits needed for one node address in this network.
    pub fn id_bits(&self) -> u32 {
        id_bits(self.n)
    }

    /// Bits needed for one value drawn from the configured range.
    pub fn value_bits(&self) -> u32 {
        value_bits_for_range(self.value_range)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let cfg = SimConfig::new(100)
            .with_seed(9)
            .with_loss_prob(0.1)
            .with_initial_crash_prob(0.2)
            .with_value_range(512.0);
        assert_eq!(cfg.n, 100);
        assert_eq!(cfg.seed, 9);
        assert!((cfg.loss_prob - 0.1).abs() < 1e-12);
        assert!((cfg.initial_crash_prob - 0.2).abs() < 1e-12);
        assert_eq!(cfg.value_bits(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = SimConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_prob_out_of_range_rejected() {
        let _ = SimConfig::new(10).with_loss_prob(1.0);
    }

    #[test]
    #[should_panic(expected = "crash probability")]
    fn crash_prob_out_of_range_rejected() {
        let _ = SimConfig::new(10).with_initial_crash_prob(-0.1);
    }

    #[test]
    fn message_budget_scales_with_log_n() {
        let small = SimConfig::new(1 << 8).with_value_range(2.0);
        let large = SimConfig::new(1 << 16).with_value_range(2.0);
        assert!(large.message_bit_budget() > small.message_bit_budget());
        assert_eq!(small.message_bit_budget(), 4 * (8 + 1));
        assert_eq!(large.message_bit_budget(), 4 * (16 + 1));
    }

    #[test]
    fn log_n_matches_id_bits() {
        assert_eq!(SimConfig::new(1024).log_n(), 10);
        assert_eq!(SimConfig::new(1000).log_n(), 10);
        assert_eq!(SimConfig::new(2).log_n(), 1);
    }

    #[test]
    fn validate_accepts_builder_output() {
        assert!(SimConfig::new(100).validate().is_ok());
        assert!(SimConfig::new(100)
            .with_loss_prob(0.07)
            .with_initial_crash_prob(0.3)
            .with_value_range(1e9)
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_out_of_domain_literals() {
        // Struct literals bypass the builder asserts; validate catches them.
        let base = SimConfig::new(64);
        let bad_loss = SimConfig {
            loss_prob: 1.0,
            ..base.clone()
        };
        assert!(bad_loss
            .validate()
            .unwrap_err()
            .contains("loss probability"));
        let bad_loss_neg = SimConfig {
            loss_prob: -0.1,
            ..base.clone()
        };
        assert!(bad_loss_neg.validate().is_err());
        let bad_crash = SimConfig {
            initial_crash_prob: 2.0,
            ..base.clone()
        };
        assert!(bad_crash
            .validate()
            .unwrap_err()
            .contains("crash probability"));
        let bad_range = SimConfig {
            value_range: f64::NAN,
            ..base.clone()
        };
        assert!(bad_range.validate().unwrap_err().contains("value range"));
        let bad_n = SimConfig { n: 0, ..base };
        assert!(bad_n.validate().unwrap_err().contains("at least one node"));
    }

    #[test]
    fn analysis_window_matches_paper_bounds() {
        // n = 1024: 1/log n ≈ 0.1 — the window is (0.1, 0.125).
        let cfg = |delta| SimConfig::new(1024).with_loss_prob(delta);
        assert!(!cfg(0.0).delta_in_analysis_window());
        assert!(!cfg(0.05).delta_in_analysis_window(), "below 1/log n");
        assert!(cfg(0.11).delta_in_analysis_window());
        assert!(!cfg(0.125).delta_in_analysis_window(), "1/8 is excluded");
        assert!(!cfg(0.3).delta_in_analysis_window());
        // Huge n: the window widens from below.
        assert!(SimConfig::new(1 << 30)
            .with_loss_prob(0.05)
            .delta_in_analysis_window());
    }

    #[test]
    fn default_is_reasonable() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.n, 1024);
        assert_eq!(cfg.loss_prob, 0.0);
        assert!(cfg.message_bit_budget() >= cfg.id_bits() + cfg.value_bits());
    }
}
