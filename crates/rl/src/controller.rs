//! The constraint-aware controller (paper §2.6): UCB agents that pick the
//! best ML model at run time under latency / memory / detection-rate
//! constraints.

use hmd_ml::Classifier;
use hmd_tabular::Dataset;
use hmd_util::rng::prelude::*;

use crate::ucb::Ucb;
use crate::RlError;

/// The specialization of a controller agent (paper §2.6.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ConstraintKind {
    /// Agent 1: fastest inference while keeping accuracy high.
    FastInference,
    /// Agent 2: smallest memory footprint while keeping accuracy high.
    SmallFootprint,
    /// Agent 3: best detection of adversarial and malware attacks.
    BestDetection,
}

impl ConstraintKind {
    /// All three specializations in paper order.
    pub const ALL: [ConstraintKind; 3] = [
        ConstraintKind::FastInference,
        ConstraintKind::SmallFootprint,
        ConstraintKind::BestDetection,
    ];

    /// The agent label used in Figure 4(a).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ConstraintKind::FastInference => "Agent 1 (fast inference)",
            ConstraintKind::SmallFootprint => "Agent 2 (small footprint)",
            ConstraintKind::BestDetection => "Agent 3 (best detection)",
        }
    }

    /// A machine-friendly identifier (telemetry metric names, file
    /// stems): no spaces, lowercase.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            ConstraintKind::FastInference => "fast_inference",
            ConstraintKind::SmallFootprint => "small_footprint",
            ConstraintKind::BestDetection => "best_detection",
        }
    }

    /// Shapes the reward for one decision (the "Metric Monitor" values
    /// feed this, paper §2.6.1): a correct prediction earns a base
    /// reward, discounted by the constrained resource.
    #[must_use]
    pub fn reward(self, correct: bool, norm_latency: f64, norm_size: f64) -> f64 {
        if !correct {
            return 0.0;
        }
        match self {
            ConstraintKind::FastInference => 0.2 + 0.8 * (1.0 - norm_latency),
            ConstraintKind::SmallFootprint => 0.2 + 0.8 * (1.0 - norm_size),
            ConstraintKind::BestDetection => 1.0,
        }
    }
}

/// Per-model measurements recorded by the Metric Monitor.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelProfile {
    /// Model name.
    pub name: String,
    /// Median single-sample inference latency in milliseconds.
    pub latency_ms: f64,
    /// Model size in bytes.
    pub size_bytes: usize,
}

/// Controller training configuration.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ControllerConfig {
    /// UCB exploration constant.
    pub exploration: f64,
    /// Passes over the training stream.
    pub epochs: usize,
    /// Stream shuffling seed.
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self { exploration: 0.8, epochs: 3, seed: 31 }
    }
}

/// A trained constraint-aware controller: one UCB agent whose arms are
/// the available ML models.
#[derive(Clone, Debug)]
pub struct ConstraintController {
    kind: ConstraintKind,
    ucb: Ucb,
    profiles: Vec<ModelProfile>,
    norm_latency: Vec<f64>,
    norm_size: Vec<f64>,
}

fn normalize(values: &[f64]) -> Vec<f64> {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (hi - lo).abs() < f64::EPSILON {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| (v - lo) / (hi - lo)).collect()
}

impl ConstraintController {
    /// Trains a controller of the given kind over fitted `models`.
    ///
    /// For every training sample the UCB agent picks a model, observes
    /// whether that model classifies the sample correctly, and receives
    /// the constraint-shaped reward.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptyDataset`] / [`RlError::Mismatch`] for bad
    /// inputs and propagates model prediction failures.
    pub fn train(
        kind: ConstraintKind,
        models: &[Box<dyn Classifier>],
        profiles: Vec<ModelProfile>,
        data: &Dataset,
        targets: &[f64],
        config: ControllerConfig,
    ) -> Result<Self, RlError> {
        if data.is_empty() {
            return Err(RlError::EmptyDataset);
        }
        if models.is_empty() || models.len() != profiles.len() {
            return Err(RlError::Mismatch("models and profiles must align, non-empty"));
        }
        if targets.len() != data.len() {
            return Err(RlError::Mismatch("targets must align with data rows"));
        }
        // Latencies span orders of magnitude (tens of ns for LR, µs for
        // RF), so they are compared as ratios, on a log scale. On a
        // linear one every sub-µs model sits near 0, and which of two
        // such models wins turns on wall-clock noise between runs.
        let norm_latency = normalize(
            &profiles.iter().map(|p| (1.0 + p.latency_ms * 1e6).ln()).collect::<Vec<_>>(),
        );
        let norm_size = normalize(
            &profiles.iter().map(|p| p.size_bytes as f64).collect::<Vec<_>>(),
        );
        let _span = hmd_telemetry::span(&format!("rl.controller.train.{}", kind.key()));
        // Arm-selection counters and the constraint-violation counter,
        // hoisted out of the decision loop (registry lookups are
        // name-hashed; one lookup per metric, not per decision).
        let trace = hmd_telemetry::enabled().then(|| {
            let pulls: Vec<&'static hmd_telemetry::metrics::Counter> = (0..models.len())
                .map(|arm| {
                    hmd_telemetry::metrics::counter(&format!(
                        "rl.ucb.{}.arm{arm}.pulls",
                        kind.key()
                    ))
                })
                .collect();
            let violations = hmd_telemetry::metrics::counter(&format!(
                "rl.ucb.{}.violations",
                kind.key()
            ));
            (pulls, violations)
        });
        let mut ucb = Ucb::new(models.len(), config.exploration);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..config.epochs.max(1) {
            order.shuffle(&mut rng);
            for &i in &order {
                let arm = ucb.select();
                let row = data.row(i).expect("in range");
                let predicted = models[arm]
                    .predict_row(row)
                    .map_err(|e| RlError::Model(e.to_string()))?;
                let correct = predicted == (targets[i] == 1.0);
                if let Some((pulls, violations)) = &trace {
                    pulls[arm].inc();
                    if !correct {
                        violations.inc();
                    }
                }
                ucb.update(arm, kind.reward(correct, norm_latency[arm], norm_size[arm]));
            }
        }
        Ok(Self { kind, ucb, profiles, norm_latency, norm_size })
    }

    /// The specialization of this controller.
    #[must_use]
    pub fn kind(&self) -> ConstraintKind {
        self.kind
    }

    /// Index of the model the controller has converged on.
    #[must_use]
    pub fn selected_model(&self) -> usize {
        self.ucb.best_arm()
    }

    /// The profile of the selected model.
    #[must_use]
    pub fn selected_profile(&self) -> &ModelProfile {
        &self.profiles[self.selected_model()]
    }

    /// The underlying bandit (for inspection / ablation).
    #[must_use]
    pub fn ucb(&self) -> &Ucb {
        &self.ucb
    }

    /// Classifies one sample through the selected model.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors from the selected model.
    pub fn predict_row(
        &self,
        models: &[Box<dyn Classifier>],
        row: &[f64],
    ) -> Result<bool, RlError> {
        models[self.selected_model()]
            .predict_row(row)
            .map_err(|e| RlError::Model(e.to_string()))
    }

    /// Classifies a flat row-major batch of `width`-wide samples through
    /// the selected model in one call — the batched serving path's entry
    /// into the model tier. Verdicts are identical to
    /// [`predict_row`](Self::predict_row) on each row in order.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors from the selected model.
    pub fn predict_batch(
        &self,
        models: &[Box<dyn Classifier>],
        rows: &[f64],
        width: usize,
    ) -> Result<Vec<bool>, RlError> {
        let probas = models[self.selected_model()]
            .predict_proba_batch(rows, width)
            .map_err(|e| RlError::Model(e.to_string()))?;
        Ok(probas.into_iter().map(|p| p >= 0.5).collect())
    }

    /// [`predict_row`](Self::predict_row) through caller-owned scratch
    /// for the selected model — identical verdict, zero heap allocations
    /// once `scratch` came from that model's
    /// [`make_scratch`](Classifier::make_scratch).
    ///
    /// # Errors
    ///
    /// Propagates prediction errors from the selected model.
    pub fn predict_row_with(
        &self,
        models: &[Box<dyn Classifier>],
        row: &[f64],
        scratch: &mut hmd_ml::PredictScratch,
    ) -> Result<bool, RlError> {
        let p = models[self.selected_model()]
            .predict_proba_row_with(row, scratch)
            .map_err(|e| RlError::Model(e.to_string()))?;
        Ok(p >= 0.5)
    }

    /// [`predict_batch`](Self::predict_batch) written into `out`
    /// (cleared first), with `probs` as the probability buffer —
    /// identical verdicts, zero heap allocations when both buffers have
    /// capacity for one entry per row.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors from the selected model.
    pub fn predict_batch_into(
        &self,
        models: &[Box<dyn Classifier>],
        rows: &[f64],
        width: usize,
        scratch: &mut hmd_ml::PredictScratch,
        probs: &mut Vec<f64>,
        out: &mut Vec<bool>,
    ) -> Result<(), RlError> {
        models[self.selected_model()]
            .predict_proba_into(rows, width, scratch, probs)
            .map_err(|e| RlError::Model(e.to_string()))?;
        out.clear();
        out.extend(probs.iter().map(|&p| p >= 0.5));
        Ok(())
    }

    /// Builds the paper's 14-tuple MDP state for one sample: the 4 HPC
    /// features, the five model votes, and the five per-model constraint
    /// scores (the run-time variables the reward policy conditions on).
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn state_tuple(
        &self,
        models: &[Box<dyn Classifier>],
        row: &[f64],
    ) -> Result<Vec<f64>, RlError> {
        let mut state = Vec::with_capacity(row.len() + 2 * models.len());
        state.extend_from_slice(row);
        for m in models {
            let vote = m
                .predict_row(row)
                .map_err(|e| RlError::Model(e.to_string()))?;
            state.push(f64::from(vote));
        }
        for arm in 0..models.len() {
            let constraint = match self.kind {
                ConstraintKind::FastInference => 1.0 - self.norm_latency[arm],
                ConstraintKind::SmallFootprint => 1.0 - self.norm_size[arm],
                ConstraintKind::BestDetection => 1.0,
            };
            state.push(constraint);
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_ml::{Classifier, DecisionTree, LogisticRegression};
    use hmd_tabular::Class;

    fn blobs(n: usize, seed: u64) -> (Dataset, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["a".into()]).unwrap();
        for _ in 0..n {
            d.push(&[rng.random_range(-1.0..0.2)], Class::Benign).unwrap();
            d.push(&[rng.random_range(-0.2..1.0)], Class::Malware).unwrap();
        }
        let t = d.binary_targets(Class::is_attack);
        (d, t)
    }

    fn fitted_models(data: &Dataset, targets: &[f64]) -> Vec<Box<dyn Classifier>> {
        let mut lr = LogisticRegression::new();
        lr.fit(data, targets).unwrap();
        let mut dt = DecisionTree::new();
        dt.fit(data, targets).unwrap();
        vec![Box::new(lr), Box::new(dt)]
    }

    fn profiles(latencies: &[f64], sizes: &[usize]) -> Vec<ModelProfile> {
        latencies
            .iter()
            .zip(sizes)
            .enumerate()
            .map(|(i, (&l, &s))| ModelProfile {
                name: format!("m{i}"),
                latency_ms: l,
                size_bytes: s,
            })
            .collect()
    }

    #[test]
    fn fast_agent_prefers_the_fast_model_when_accuracy_ties() {
        let (d, t) = blobs(150, 1);
        let models = fitted_models(&d, &t);
        // model 0 is 100× faster
        let p = profiles(&[0.001, 0.1], &[1000, 1000]);
        let c = ConstraintController::train(
            ConstraintKind::FastInference,
            &models,
            p,
            &d,
            &t,
            ControllerConfig::default(),
        )
        .unwrap();
        assert_eq!(c.selected_model(), 0);
    }

    #[test]
    fn footprint_agent_prefers_the_small_model() {
        let (d, t) = blobs(150, 2);
        let models = fitted_models(&d, &t);
        let p = profiles(&[0.01, 0.01], &[100_000, 50]);
        let c = ConstraintController::train(
            ConstraintKind::SmallFootprint,
            &models,
            p,
            &d,
            &t,
            ControllerConfig::default(),
        )
        .unwrap();
        assert_eq!(c.selected_model(), 1);
    }

    #[test]
    fn detection_agent_ignores_cost() {
        let (d, t) = blobs(150, 3);
        let models = fitted_models(&d, &t);
        // the heavy model is not penalized under BestDetection
        let p = profiles(&[10.0, 0.0001], &[10_000_000, 10]);
        let c = ConstraintController::train(
            ConstraintKind::BestDetection,
            &models,
            p,
            &d,
            &t,
            ControllerConfig::default(),
        )
        .unwrap();
        // whichever wins, the reward must not depend on cost: compare means
        let means = c.ucb().means();
        // both models are decent → both means near their accuracy, no cost discount
        assert!(means.iter().all(|&m| m > 0.5), "means {means:?}");
    }

    #[test]
    fn reward_shaping_matches_spec() {
        assert_eq!(ConstraintKind::BestDetection.reward(true, 0.9, 0.9), 1.0);
        assert_eq!(ConstraintKind::BestDetection.reward(false, 0.0, 0.0), 0.0);
        assert!(
            ConstraintKind::FastInference.reward(true, 0.0, 0.5)
                > ConstraintKind::FastInference.reward(true, 1.0, 0.5)
        );
        assert!(
            ConstraintKind::SmallFootprint.reward(true, 0.5, 0.0)
                > ConstraintKind::SmallFootprint.reward(true, 0.5, 1.0)
        );
    }

    #[test]
    fn state_tuple_has_paper_shape() {
        let (d, t) = blobs(60, 4);
        let models = fitted_models(&d, &t);
        let p = profiles(&[0.01, 0.02], &[100, 200]);
        let c = ConstraintController::train(
            ConstraintKind::FastInference,
            &models,
            p,
            &d,
            &t,
            ControllerConfig::default(),
        )
        .unwrap();
        // with 4 HPC features and 5 models the paper's tuple is 14-wide;
        // here: 1 feature + 2 votes + 2 constraints = 5
        let s = c.state_tuple(&models, d.row(0).unwrap()).unwrap();
        assert_eq!(s.len(), 1 + 2 + 2);
    }

    #[test]
    fn validates_inputs() {
        let (d, t) = blobs(30, 5);
        let models = fitted_models(&d, &t);
        let p = profiles(&[0.01], &[100]); // wrong length
        assert!(matches!(
            ConstraintController::train(
                ConstraintKind::FastInference,
                &models,
                p,
                &d,
                &t,
                ControllerConfig::default()
            ),
            Err(RlError::Mismatch(_))
        ));
        let empty = Dataset::new(vec!["a".into()]).unwrap();
        let p = profiles(&[0.01, 0.02], &[100, 200]);
        assert!(matches!(
            ConstraintController::train(
                ConstraintKind::FastInference,
                &models,
                p,
                &empty,
                &[],
                ControllerConfig::default()
            ),
            Err(RlError::EmptyDataset)
        ));
    }
}
