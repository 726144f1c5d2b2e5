//! Complexity-model fitting.
//!
//! The paper's evaluation is a set of asymptotic claims (Table 1,
//! Theorems 2–15). To check them empirically, the experiment harness sweeps
//! the network size `n` and fits the measured quantity (messages, rounds,
//! tree counts, ...) against candidate growth models
//! `y ≈ a · f(n)` by least squares, reporting the coefficient, the residual
//! `R²` and which candidate fits best. A claim such as "DRR-gossip uses
//! `O(n log log n)` messages" is confirmed when that model fits with high
//! `R²` and the measured/model ratio stays flat across the sweep.

/// Candidate asymptotic growth models (as functions of the network size `n`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ComplexityModel {
    Constant,
    LogLogN,
    LogN,
    Log2N,
    SqrtN,
    N,
    NLogLogN,
    NLogN,
    NLog2N,
    NOverLogN,
}

impl ComplexityModel {
    /// All candidate models.
    pub const ALL: [ComplexityModel; 10] = [
        ComplexityModel::Constant,
        ComplexityModel::LogLogN,
        ComplexityModel::LogN,
        ComplexityModel::Log2N,
        ComplexityModel::SqrtN,
        ComplexityModel::N,
        ComplexityModel::NLogLogN,
        ComplexityModel::NLogN,
        ComplexityModel::NLog2N,
        ComplexityModel::NOverLogN,
    ];

    /// The models typically compared for *message* complexity claims.
    pub const MESSAGE_MODELS: [ComplexityModel; 4] = [
        ComplexityModel::N,
        ComplexityModel::NLogLogN,
        ComplexityModel::NLogN,
        ComplexityModel::NLog2N,
    ];

    /// The models typically compared for *time* (round) complexity claims.
    pub const TIME_MODELS: [ComplexityModel; 4] = [
        ComplexityModel::Constant,
        ComplexityModel::LogLogN,
        ComplexityModel::LogN,
        ComplexityModel::Log2N,
    ];

    /// Evaluate `f(n)`.
    pub fn eval(&self, n: f64) -> f64 {
        let n = n.max(2.0);
        let log_n = n.log2();
        let log_log_n = log_n.max(2.0).log2();
        match self {
            ComplexityModel::Constant => 1.0,
            ComplexityModel::LogLogN => log_log_n,
            ComplexityModel::LogN => log_n,
            ComplexityModel::Log2N => log_n * log_n,
            ComplexityModel::SqrtN => n.sqrt(),
            ComplexityModel::N => n,
            ComplexityModel::NLogLogN => n * log_log_n,
            ComplexityModel::NLogN => n * log_n,
            ComplexityModel::NLog2N => n * log_n * log_n,
            ComplexityModel::NOverLogN => n / log_n,
        }
    }

    /// Display name ("n log log n", ...).
    pub fn name(&self) -> &'static str {
        match self {
            ComplexityModel::Constant => "1",
            ComplexityModel::LogLogN => "log log n",
            ComplexityModel::LogN => "log n",
            ComplexityModel::Log2N => "log^2 n",
            ComplexityModel::SqrtN => "sqrt(n)",
            ComplexityModel::N => "n",
            ComplexityModel::NLogLogN => "n log log n",
            ComplexityModel::NLogN => "n log n",
            ComplexityModel::NLog2N => "n log^2 n",
            ComplexityModel::NOverLogN => "n / log n",
        }
    }
}

impl std::fmt::Display for ComplexityModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of fitting one model to a data series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelFit {
    /// The model fitted.
    pub model: ComplexityModel,
    /// Least-squares coefficient `a` in `y ≈ a·f(n)`.
    pub coefficient: f64,
    /// Coefficient of determination against the (scaled) model.
    pub r_squared: f64,
}

/// Fit `y ≈ a·f(n)` by least squares **in log space** (i.e. fit
/// `log y ≈ log a + log f(n)`), so every point of the sweep carries equal
/// weight regardless of magnitude — the appropriate criterion for scaling
/// laws, where the small-`n` points are exactly the ones that distinguish
/// `n log n` from `n log log n`.
///
/// Points with non-positive `y` are ignored (they carry no scaling
/// information); if all points are non-positive the coefficient is 0.
pub fn fit_model(points: &[(f64, f64)], model: ComplexityModel) -> ModelFit {
    assert!(!points.is_empty(), "cannot fit an empty series");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, y)| y > 0.0)
        .map(|&(n, y)| (model.eval(n).ln(), y.ln()))
        .collect();
    if logs.is_empty() {
        return ModelFit {
            model,
            coefficient: 0.0,
            r_squared: 0.0,
        };
    }
    // log a = mean(log y − log f)
    let log_a = logs.iter().map(|&(lf, ly)| ly - lf).sum::<f64>() / logs.len() as f64;
    let coefficient = log_a.exp();
    // R² of the residuals in log space.
    let mean_ly = logs.iter().map(|&(_, ly)| ly).sum::<f64>() / logs.len() as f64;
    let ss_tot: f64 = logs.iter().map(|&(_, ly)| (ly - mean_ly).powi(2)).sum();
    let ss_res: f64 = logs
        .iter()
        .map(|&(lf, ly)| (ly - (log_a + lf)).powi(2))
        .sum();
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else if ss_res < 1e-12 {
        1.0
    } else {
        0.0
    };
    ModelFit {
        model,
        coefficient,
        r_squared,
    }
}

/// Fit every candidate and return them sorted by decreasing `R²`.
pub fn fit_all(points: &[(f64, f64)], candidates: &[ComplexityModel]) -> Vec<ModelFit> {
    let mut fits: Vec<ModelFit> = candidates.iter().map(|&m| fit_model(points, m)).collect();
    fits.sort_by(|a, b| b.r_squared.partial_cmp(&a.r_squared).expect("finite r²"));
    fits
}

/// The best-fitting model among the candidates.
pub fn best_fit(points: &[(f64, f64)], candidates: &[ComplexityModel]) -> ModelFit {
    fit_all(points, candidates)
        .into_iter()
        .next()
        .expect("at least one candidate model")
}

/// The measured/model ratios `y / f(n)` — flat ratios confirm the model.
pub fn normalized_ratios(points: &[(f64, f64)], model: ComplexityModel) -> Vec<f64> {
    points.iter().map(|&(n, y)| y / model.eval(n)).collect()
}

/// How flat a ratio series is: `max/min` (1.0 = perfectly flat). Useful as a
/// scale-free "does this growth model explain the data" indicator.
pub fn ratio_spread(ratios: &[f64]) -> f64 {
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if min <= 0.0 || !min.is_finite() || !max.is_finite() {
        f64::INFINITY
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(model: ComplexityModel, a: f64) -> Vec<(f64, f64)> {
        (8..=16)
            .map(|e| {
                let n = (1u64 << e) as f64;
                (n, a * model.eval(n))
            })
            .collect()
    }

    #[test]
    fn eval_monotone_in_n() {
        for model in ComplexityModel::ALL {
            if model == ComplexityModel::Constant {
                continue;
            }
            assert!(
                model.eval((1u64 << 20) as f64) > model.eval((1u64 << 10) as f64),
                "{model}"
            );
        }
    }

    #[test]
    fn exact_series_recovers_model_and_coefficient() {
        for model in [
            ComplexityModel::LogN,
            ComplexityModel::NLogLogN,
            ComplexityModel::NLogN,
            ComplexityModel::NOverLogN,
        ] {
            let points = series(model, 3.5);
            let fit = fit_model(&points, model);
            assert!((fit.coefficient - 3.5).abs() < 1e-9, "{model}");
            assert!(fit.r_squared > 0.999_999, "{model}");
        }
    }

    #[test]
    fn best_fit_distinguishes_n_log_n_from_n_log_log_n() {
        let points = series(ComplexityModel::NLogN, 2.0);
        let best = best_fit(&points, &ComplexityModel::MESSAGE_MODELS);
        assert_eq!(best.model, ComplexityModel::NLogN);

        let points = series(ComplexityModel::NLogLogN, 2.0);
        let best = best_fit(&points, &ComplexityModel::MESSAGE_MODELS);
        assert_eq!(best.model, ComplexityModel::NLogLogN);
    }

    #[test]
    fn best_fit_distinguishes_time_models() {
        let points = series(ComplexityModel::LogN, 5.0);
        let best = best_fit(&points, &ComplexityModel::TIME_MODELS);
        assert_eq!(best.model, ComplexityModel::LogN);

        let points = series(ComplexityModel::Log2N, 0.7);
        let best = best_fit(&points, &ComplexityModel::TIME_MODELS);
        assert_eq!(best.model, ComplexityModel::Log2N);
    }

    #[test]
    fn noisy_series_still_identified() {
        let mut points = series(ComplexityModel::NLogLogN, 4.0);
        for (i, p) in points.iter_mut().enumerate() {
            let noise = 1.0 + 0.05 * if i % 2 == 0 { 1.0 } else { -1.0 };
            p.1 *= noise;
        }
        let best = best_fit(&points, &ComplexityModel::MESSAGE_MODELS);
        assert_eq!(best.model, ComplexityModel::NLogLogN);
        assert!(best.r_squared > 0.98);
    }

    #[test]
    fn ratios_flat_for_matching_model() {
        let points = series(ComplexityModel::NLogN, 1.5);
        let ratios = normalized_ratios(&points, ComplexityModel::NLogN);
        assert!(ratio_spread(&ratios) < 1.0 + 1e-9);
        let wrong = normalized_ratios(&points, ComplexityModel::N);
        assert!(ratio_spread(&wrong) > 1.2);
    }

    #[test]
    fn fit_all_is_sorted_by_r_squared() {
        let points = series(ComplexityModel::NLogN, 1.0);
        let fits = fit_all(&points, &ComplexityModel::MESSAGE_MODELS);
        for w in fits.windows(2) {
            assert!(w[0].r_squared >= w[1].r_squared);
        }
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn empty_series_rejected() {
        let _ = fit_model(&[], ComplexityModel::N);
    }

    #[test]
    fn model_names_are_unique() {
        let names: std::collections::HashSet<&str> =
            ComplexityModel::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), ComplexityModel::ALL.len());
    }
}
