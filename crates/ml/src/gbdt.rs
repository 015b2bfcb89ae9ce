//! Histogram-based gradient-boosted decision trees with leaf-wise
//! (best-first) growth — the LightGBM analogue the paper's model zoo
//! includes.
//!
//! Training follows the LightGBM recipe: features are pre-binned into
//! quantile histograms, each boosting iteration fits a regression tree on
//! the logistic-loss gradients/hessians, and trees grow *leaf-wise*: the
//! leaf with the globally best split gain is split next, until the leaf
//! budget is exhausted.
//!
//! Scoring does not walk the trees. `fit` compiles them into per-feature
//! tables of leaf bitmasks (QuickScorer), so a row costs one binary
//! search per split feature, one AND per (split feature, tree) and one
//! leaf load per tree, without a branch per tree node, and yields the
//! same f64 as the walk.

use hmd_tabular::Dataset;

use hmd_nn::sigmoid;

use crate::model::{validate_batch_shape, validate_training_set, Classifier, PredictScratch};
use crate::MlError;

/// Hyper-parameters for [`Gbdt`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct GbdtConfig {
    /// Boosting iterations (trees).
    pub n_iters: usize,
    /// Shrinkage applied to each tree's output.
    pub learning_rate: f64,
    /// Maximum leaves per tree (leaf-wise growth budget), 2 to 64: a
    /// fitted tree is scored through a 64-bit leaf mask.
    pub num_leaves: usize,
    /// Histogram bins per feature.
    pub max_bins: usize,
    /// Minimum samples per leaf.
    pub min_data_in_leaf: usize,
    /// L2 regularization on leaf values.
    pub lambda: f64,
    /// Minimum split gain.
    pub min_gain: f64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            n_iters: 80,
            learning_rate: 0.1,
            num_leaves: 31,
            max_bins: 64,
            min_data_in_leaf: 5,
            lambda: 1.0,
            min_gain: 1e-6,
        }
    }
}

/// Width of a per-tree leaf mask, and so the most leaves a tree may
/// have.
const MAX_LEAVES: usize = u64::BITS as usize;

/// Trees scored per pass of the kernel; bounds its on-stack exit masks.
const TREE_CHUNK: usize = 128;

/// A regression tree as grown by `fit`. It lives only until the
/// ensemble is compiled into a [`BitvectorScorer`].
#[derive(Clone, Debug)]
enum GbNode {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

#[derive(Clone, Debug, Default)]
struct GbTree {
    nodes: Vec<GbNode>,
}

impl GbTree {
    fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, GbNode::Leaf { .. })).count()
    }

    /// The reference tree walk the bitvector scorer must reproduce.
    #[cfg(test)]
    fn predict(&self, row: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                GbNode::Leaf { value } => return *value,
                GbNode::Split { feature, threshold, left, right } => {
                    node = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Numbers the leaves under `node` left to right from `*next_leaf`,
    /// writing `learning_rate * value` into `leaf_values`, and pushes one
    /// [`SplitMask`] per split node.
    fn number_leaves(
        &self,
        node: usize,
        tree: usize,
        learning_rate: f64,
        next_leaf: &mut usize,
        leaf_values: &mut [f64],
        splits: &mut Vec<SplitMask>,
    ) {
        match self.nodes[node] {
            GbNode::Leaf { value } => {
                leaf_values[*next_leaf] = learning_rate * value;
                *next_leaf += 1;
            }
            GbNode::Split { feature, threshold, left, right } => {
                let first = *next_leaf;
                self.number_leaves(left, tree, learning_rate, next_leaf, leaf_values, splits);
                // the right subtree holds a leaf, so the left one has at
                // most MAX_LEAVES - 1 and the shift cannot overflow
                let left_leaves = ((1u64 << (*next_leaf - first)) - 1) << first;
                splits.push(SplitMask { feature, threshold, tree, mask: !left_leaves });
                self.number_leaves(right, tree, learning_rate, next_leaf, leaf_values, splits);
            }
        }
    }
}

/// One split of a grown tree: a row that fails `x <= threshold` goes
/// right, so `mask` clears the leaves of the split's left subtree.
struct SplitMask {
    feature: usize,
    threshold: f64,
    tree: usize,
    mask: u64,
}

/// One split feature's slice of the [`BitvectorScorer`] tables.
#[derive(Clone, Debug)]
struct FeatureBins {
    /// Column of the feature in a row.
    feature: usize,
    /// The distinct non-NaN thresholds the trees split this feature on,
    /// ascending. Bin `b` holds the `x` with
    /// `thresholds[b - 1] < x <= thresholds[b]`.
    thresholds: Vec<f64>,
    /// Index of this feature's bin-0 row in [`BitvectorScorer::masks`].
    first_row: usize,
}

impl FeatureBins {
    fn bin(&self, x: f64) -> usize {
        // `NaN <= t` is false for every t, so NaN fails every split on
        // the feature: it goes past the last threshold
        if x.is_nan() {
            self.thresholds.len()
        } else {
            self.thresholds.partition_point(|&t| t < x)
        }
    }
}

/// The fitted ensemble compiled for branch-free scoring (QuickScorer,
/// Lucchese et al., SIGIR 2015).
///
/// Leaves are numbered left to right within each tree. For each
/// (feature, bin) there is a row of per-tree masks that clear the
/// left-subtree leaves of every split on that feature the bin fails. A
/// row's exit leaf in tree `t` is the lowest set bit of the AND of its
/// features' mask rows at `t`: the leftmost leaf no failed split rules
/// out, which is exactly where the tree walk ends.
#[derive(Clone, Debug, Default)]
struct BitvectorScorer {
    /// The features some split tests, in column order.
    features: Vec<FeatureBins>,
    /// `[mask row][tree]`, `n_trees` masks per row.
    masks: Vec<u64>,
    /// `learning_rate * value`, `leaf_stride` slots per tree.
    leaf_values: Vec<f64>,
    leaf_stride: usize,
    n_trees: usize,
    /// Nodes of the grown trees, the basis of `size_bytes`.
    n_nodes: usize,
}

impl BitvectorScorer {
    fn compile(trees: &[GbTree], learning_rate: f64) -> Self {
        let n_trees = trees.len();
        let leaf_stride = trees.iter().map(GbTree::n_leaves).max().unwrap_or(1);
        let mut leaf_values = vec![0.0; n_trees * leaf_stride];
        let mut splits = Vec::new();
        for (t, tree) in trees.iter().enumerate() {
            let values = &mut leaf_values[t * leaf_stride..(t + 1) * leaf_stride];
            tree.number_leaves(0, t, learning_rate, &mut 0, values, &mut splits);
        }

        let n_columns = splits.iter().map(|s| s.feature + 1).max().unwrap_or(0);
        let mut features = Vec::new();
        let mut masks = Vec::new();
        for feature in 0..n_columns {
            let on_feature: Vec<&SplitMask> =
                splits.iter().filter(|s| s.feature == feature).collect();
            if on_feature.is_empty() {
                continue;
            }
            let mut thresholds: Vec<f64> =
                on_feature.iter().map(|s| s.threshold).filter(|t| !t.is_nan()).collect();
            thresholds.sort_by(f64::total_cmp);
            thresholds.dedup();
            let first_row = masks.len() / n_trees;
            masks.resize(masks.len() + (thresholds.len() + 1) * n_trees, u64::MAX);
            for split in on_feature {
                // the bins whose values fail `x <= threshold`
                let first_failing = if split.threshold.is_nan() {
                    0
                } else {
                    thresholds.partition_point(|&t| t < split.threshold) + 1
                };
                for bin in first_failing..=thresholds.len() {
                    masks[(first_row + bin) * n_trees + split.tree] &= split.mask;
                }
            }
            features.push(FeatureBins { feature, thresholds, first_row });
        }
        let n_nodes = trees.iter().map(|t| t.nodes.len()).sum();
        Self { features, masks, leaf_values, leaf_stride, n_trees, n_nodes }
    }

    /// The scoring kernel: `base_score` plus every tree's scaled exit
    /// leaf, added in tree order — the same f64 the tree walk sums.
    fn raw_score(&self, base_score: f64, row: &[f64]) -> f64 {
        let mut score = base_score;
        let mut exits = [0u64; TREE_CHUNK];
        for start in (0..self.n_trees).step_by(TREE_CHUNK) {
            let exits = &mut exits[..TREE_CHUNK.min(self.n_trees - start)];
            exits.fill(u64::MAX);
            for f in &self.features {
                let first = (f.first_row + f.bin(row[f.feature])) * self.n_trees + start;
                for (exit, &mask) in exits.iter_mut().zip(&self.masks[first..]) {
                    *exit &= mask;
                }
            }
            for (tree, &exit) in (start..).zip(exits.iter()) {
                score += self.leaf_values[tree * self.leaf_stride + exit.trailing_zeros() as usize];
            }
        }
        score
    }
}

/// A leaf under construction during leaf-wise growth.
struct GrowingLeaf {
    /// Row indices in this leaf.
    rows: Vec<usize>,
    /// Node index in the tree's arena.
    node: usize,
    /// Cached best split: (gain, feature, bin, threshold).
    best: Option<(f64, usize, usize, f64)>,
}

/// LightGBM-style gradient boosting for binary classification.
///
/// # Example
///
/// ```
/// use hmd_ml::{Classifier, Gbdt};
/// use hmd_tabular::{Class, Dataset};
///
/// # fn main() -> Result<(), hmd_ml::MlError> {
/// let mut d = Dataset::new(vec!["x".into()])?;
/// for i in 0..60 {
///     let label = if i < 30 { Class::Benign } else { Class::Malware };
///     d.push(&[i as f64], label)?;
/// }
/// let targets = d.binary_targets(Class::is_attack);
/// let mut gbm = Gbdt::new();
/// gbm.fit(&d, &targets)?;
/// assert!(gbm.predict_proba_row(&[55.0])? > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Gbdt {
    config: GbdtConfig,
    /// Per-feature ascending bin thresholds (upper edges).
    bin_edges: Vec<Vec<f64>>,
    base_score: f64,
    n_features: usize,
    /// The fitted trees; `fit` grows them and keeps only this form.
    scorer: BitvectorScorer,
    fitted: bool,
}

impl Default for Gbdt {
    fn default() -> Self {
        Self::new()
    }
}

impl Gbdt {
    /// A booster with default hyper-parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(GbdtConfig::default())
    }

    /// A booster with explicit hyper-parameters.
    #[must_use]
    pub fn with_config(config: GbdtConfig) -> Self {
        Self {
            config,
            bin_edges: Vec::new(),
            base_score: 0.0,
            n_features: 0,
            scorer: BitvectorScorer::default(),
            fitted: false,
        }
    }

    /// Number of fitted trees.
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.scorer.n_trees
    }

    fn compute_bin_edges(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.bin_edges.clear();
        for f in 0..data.n_features() {
            let mut col = data.column(f)?;
            col.sort_by(f64::total_cmp);
            col.dedup();
            let edges: Vec<f64> = if col.len() <= self.config.max_bins {
                // edge between each pair of adjacent distinct values
                col.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
            } else {
                (1..self.config.max_bins)
                    .map(|b| {
                        let pos = b * (col.len() - 1) / self.config.max_bins;
                        (col[pos] + col[pos + 1]) / 2.0
                    })
                    .collect()
            };
            let mut edges = edges;
            edges.dedup();
            self.bin_edges.push(edges);
        }
        Ok(())
    }

    fn bin_of(&self, feature: usize, x: f64) -> usize {
        self.bin_edges[feature].partition_point(|&e| e < x)
    }

    /// Rejects a row or batch width other than the fitted one, or any
    /// input before `fit`.
    fn check_width(&self, width: usize) -> Result<(), MlError> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        if width != self.n_features {
            return Err(MlError::DimensionMismatch { expected: self.n_features, actual: width });
        }
        Ok(())
    }

    /// Finds the best split for one leaf via feature histograms.
    fn best_split(
        &self,
        binned: &[Vec<u16>],
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
    ) -> Option<(f64, usize, usize, f64)> {
        let total_g: f64 = rows.iter().map(|&i| grad[i]).sum();
        let total_h: f64 = rows.iter().map(|&i| hess[i]).sum();
        let lambda = self.config.lambda;
        let parent = total_g * total_g / (total_h + lambda);
        let mut best: Option<(f64, usize, usize, f64)> = None;
        #[allow(clippy::needless_range_loop)] // f indexes three parallel tables
        for f in 0..self.n_features {
            let n_bins = self.bin_edges[f].len() + 1;
            if n_bins < 2 {
                continue;
            }
            let mut hist_g = vec![0.0; n_bins];
            let mut hist_h = vec![0.0; n_bins];
            let mut hist_n = vec![0usize; n_bins];
            for &i in rows {
                let b = binned[f][i] as usize;
                hist_g[b] += grad[i];
                hist_h[b] += hess[i];
                hist_n[b] += 1;
            }
            let mut left_g = 0.0;
            let mut left_h = 0.0;
            let mut left_n = 0usize;
            for b in 0..n_bins - 1 {
                left_g += hist_g[b];
                left_h += hist_h[b];
                left_n += hist_n[b];
                let right_n = rows.len() - left_n;
                if left_n < self.config.min_data_in_leaf
                    || right_n < self.config.min_data_in_leaf
                {
                    continue;
                }
                let right_g = total_g - left_g;
                let right_h = total_h - left_h;
                let gain = 0.5
                    * (left_g * left_g / (left_h + lambda)
                        + right_g * right_g / (right_h + lambda)
                        - parent);
                if gain > self.config.min_gain
                    && best.is_none_or(|(g, _, _, _)| gain > g)
                {
                    best = Some((gain, f, b, self.bin_edges[f][b]));
                }
            }
        }
        best
    }

    fn leaf_value(&self, grad: &[f64], hess: &[f64], rows: &[usize]) -> f64 {
        let g: f64 = rows.iter().map(|&i| grad[i]).sum();
        let h: f64 = rows.iter().map(|&i| hess[i]).sum();
        -g / (h + self.config.lambda)
    }

    /// Boosts the trees `fit` compiles, setting the bin edges and base
    /// score on the way.
    fn grow(&mut self, data: &Dataset, targets: &[f64]) -> Result<Vec<GbTree>, MlError> {
        validate_training_set(data, targets)?;
        if self.config.n_iters == 0 || self.config.num_leaves < 2 || self.config.max_bins < 2 {
            return Err(MlError::InvalidHyperparameter(
                "iterations, leaves and bins must allow at least one split",
            ));
        }
        if self.config.num_leaves > MAX_LEAVES {
            return Err(MlError::InvalidHyperparameter("num_leaves must fit the 64-bit leaf mask"));
        }
        let n = data.len();
        self.n_features = data.n_features();
        self.compute_bin_edges(data)?;

        // pre-bin the whole training matrix (column-major, u16 bins)
        let mut binned: Vec<Vec<u16>> = Vec::with_capacity(self.n_features);
        for f in 0..self.n_features {
            let col = data.column(f)?;
            binned.push(col.iter().map(|&x| self.bin_of(f, x) as u16).collect());
        }

        let pos = targets.iter().sum::<f64>() / n as f64;
        self.base_score = (pos / (1.0 - pos)).ln();
        let mut raw: Vec<f64> = vec![self.base_score; n];
        let mut trees = Vec::with_capacity(self.config.n_iters);

        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        for _ in 0..self.config.n_iters {
            for i in 0..n {
                let p = sigmoid(raw[i]);
                grad[i] = p - targets[i];
                hess[i] = (p * (1.0 - p)).max(1e-12);
            }

            let mut tree = GbTree::default();
            tree.nodes.push(GbNode::Leaf { value: 0.0 });
            let all_rows: Vec<usize> = (0..n).collect();
            let root_best = self.best_split(&binned, &grad, &hess, &all_rows);
            let mut leaves = vec![GrowingLeaf { rows: all_rows, node: 0, best: root_best }];

            let mut n_leaves = 1;
            while n_leaves < self.config.num_leaves {
                // leaf-wise: globally best-gain leaf splits next
                let Some(leaf_idx) = leaves
                    .iter()
                    .enumerate()
                    .filter_map(|(i, l)| l.best.map(|(g, ..)| (i, g)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(i, _)| i)
                else {
                    break;
                };
                let (_, feature, bin, threshold) =
                    leaves[leaf_idx].best.expect("selected leaf has a split");
                let rows = std::mem::take(&mut leaves[leaf_idx].rows);
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                    rows.into_iter().partition(|&i| (binned[feature][i] as usize) <= bin);

                let node = leaves[leaf_idx].node;
                let left_node = tree.nodes.len();
                tree.nodes.push(GbNode::Leaf { value: 0.0 });
                let right_node = tree.nodes.len();
                tree.nodes.push(GbNode::Leaf { value: 0.0 });
                tree.nodes[node] =
                    GbNode::Split { feature, threshold, left: left_node, right: right_node };

                let left_best = self.best_split(&binned, &grad, &hess, &left_rows);
                let right_best = self.best_split(&binned, &grad, &hess, &right_rows);
                leaves[leaf_idx] =
                    GrowingLeaf { rows: left_rows, node: left_node, best: left_best };
                leaves.push(GrowingLeaf { rows: right_rows, node: right_node, best: right_best });
                n_leaves += 1;
            }

            // finalize leaf values and update raw scores
            for leaf in &leaves {
                let value = self.leaf_value(&grad, &hess, &leaf.rows);
                tree.nodes[leaf.node] = GbNode::Leaf { value };
                for &i in &leaf.rows {
                    raw[i] += self.config.learning_rate * value;
                }
            }
            trees.push(tree);
        }
        Ok(trees)
    }
}

impl Classifier for Gbdt {
    fn name(&self) -> &'static str {
        "LightGBM"
    }

    fn fit(&mut self, data: &Dataset, targets: &[f64]) -> Result<(), MlError> {
        let trees = self.grow(data, targets)?;
        self.scorer = BitvectorScorer::compile(&trees, self.config.learning_rate);
        self.fitted = true;
        Ok(())
    }

    fn predict_proba_row(&self, row: &[f64]) -> Result<f64, MlError> {
        self.check_width(row.len())?;
        Ok(sigmoid(self.scorer.raw_score(self.base_score, row)))
    }

    fn predict_proba_into(
        &self,
        rows: &[f64],
        width: usize,
        _scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), MlError> {
        validate_batch_shape(rows, width)?;
        out.clear();
        // like the per-row default: an empty batch is fine even unfitted
        if rows.is_empty() {
            return Ok(());
        }
        self.check_width(width)?;
        out.extend(
            rows.chunks(width).map(|row| sigmoid(self.scorer.raw_score(self.base_score, row))),
        );
        Ok(())
    }

    fn size_bytes(&self) -> usize {
        // ~32 bytes per grown node plus bin-edge tables: the footprint
        // the constraint controller weighs, independent of how the
        // fitted trees are stored
        let edges: usize = self.bin_edges.iter().map(Vec::len).sum();
        self.scorer.n_nodes * 32 + edges * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::evaluate;
    use hmd_tabular::Class;
    use hmd_util::rng::prelude::*;

    fn blobs(n: usize, seed: u64) -> (Dataset, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["a".into(), "b".into()]).unwrap();
        for _ in 0..n {
            let benign = [rng.random_range(-1.0..0.5), rng.random_range(-1.0..0.5)];
            let attack = [rng.random_range(0.3..1.8), rng.random_range(0.3..1.8)];
            d.push(&benign, Class::Benign).unwrap();
            d.push(&attack, Class::Malware).unwrap();
        }
        let t = d.binary_targets(Class::is_attack);
        (d, t)
    }

    #[test]
    fn learns_overlapping_blobs() {
        let (train, tt) = blobs(200, 1);
        let (test, te) = blobs(200, 2);
        let mut gbm = Gbdt::new();
        gbm.fit(&train, &tt).unwrap();
        let m = evaluate(&gbm, &test, &te).unwrap();
        assert!(m.accuracy > 0.88, "accuracy {}", m.accuracy);
        assert!(m.auc > 0.93, "auc {}", m.auc);
    }

    #[test]
    fn more_iterations_reduce_training_loss() {
        let (d, t) = blobs(150, 3);
        let acc_at = |iters| {
            let mut g = Gbdt::with_config(GbdtConfig { n_iters: iters, ..GbdtConfig::default() });
            g.fit(&d, &t).unwrap();
            evaluate(&g, &d, &t).unwrap().accuracy
        };
        assert!(acc_at(60) >= acc_at(2) - 1e-9);
    }

    #[test]
    fn leaf_budget_bounds_tree_size() {
        let (d, t) = blobs(200, 4);
        let mut g = Gbdt::with_config(GbdtConfig { num_leaves: 4, ..GbdtConfig::default() });
        for tree in &g.grow(&d, &t).unwrap() {
            let leaves = tree.n_leaves();
            assert!(leaves <= 4, "tree has {leaves} leaves");
        }
    }

    #[test]
    fn binning_respects_max_bins() {
        let (d, t) = blobs(300, 5);
        let mut g = Gbdt::with_config(GbdtConfig { max_bins: 8, ..GbdtConfig::default() });
        g.fit(&d, &t).unwrap();
        for edges in &g.bin_edges {
            assert!(edges.len() < 8);
        }
    }

    #[test]
    fn errors_on_misuse() {
        let g = Gbdt::new();
        assert_eq!(g.predict_proba_row(&[0.0]).unwrap_err(), MlError::NotFitted);
        let (d, t) = blobs(30, 6);
        let mut bad =
            Gbdt::with_config(GbdtConfig { num_leaves: 1, ..GbdtConfig::default() });
        assert!(matches!(bad.fit(&d, &t), Err(MlError::InvalidHyperparameter(_))));
        let mut g = Gbdt::new();
        g.fit(&d, &t).unwrap();
        assert!(matches!(
            g.predict_proba_row(&[1.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn base_score_matches_class_prior() {
        let (d, t) = blobs(100, 7);
        let mut g = Gbdt::with_config(GbdtConfig { n_iters: 1, ..GbdtConfig::default() });
        g.fit(&d, &t).unwrap();
        // balanced classes → prior logit ≈ 0
        assert!(g.base_score.abs() < 1e-9);
    }

    #[test]
    fn rejects_more_leaves_than_the_mask_width() {
        let (d, t) = blobs(40, 8);
        let mut wide =
            Gbdt::with_config(GbdtConfig { num_leaves: MAX_LEAVES + 1, ..GbdtConfig::default() });
        assert!(matches!(wide.fit(&d, &t), Err(MlError::InvalidHyperparameter(_))));
        let mut widest =
            Gbdt::with_config(GbdtConfig { num_leaves: MAX_LEAVES, ..GbdtConfig::default() });
        widest.fit(&d, &t).unwrap();
    }

    #[test]
    fn size_bytes_counts_the_grown_nodes_and_edges() {
        // the constraint controller's footprint input: pinned to the
        // value the enum-tree representation reported for this fit
        let (d, t) = blobs(200, 9);
        let mut g = Gbdt::new();
        g.fit(&d, &t).unwrap();
        assert_eq!(g.size_bytes(), 31_920);
        let mut small = Gbdt::with_config(GbdtConfig {
            n_iters: 5,
            num_leaves: 4,
            max_bins: 8,
            ..GbdtConfig::default()
        });
        small.fit(&d, &t).unwrap();
        assert_eq!(small.size_bytes(), 1_232);
    }

    /// Three columns: a continuous one (quantile edges once it has more
    /// distinct values than bins), a six-valued one (one edge between
    /// each pair of values) and a signed one around ±0.0. With `wild`,
    /// training rows also carry ±inf and NaN of either sign, so edges
    /// can be infinite or NaN and a split can test a NaN threshold.
    fn mixed(n: usize, seed: u64, wild: bool) -> (Dataset, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["a".into(), "b".into(), "c".into()]).unwrap();
        for i in 0..n {
            let attack = rng.random_bool(0.5);
            let shift = if attack { 0.6 } else { 0.0 };
            let mut row = [
                rng.random_range(-1.0..1.0) + shift,
                f64::from(rng.random_range(0u8..6)),
                if rng.random_bool(0.5) { -0.0 } else { rng.random_range(-1.0..1.0) - shift },
            ];
            if wild && i % 17 == 0 {
                row = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            }
            if wild && i % 13 == 0 {
                row[0] = -f64::NAN;
            }
            d.push(&row, if attack { Class::Malware } else { Class::Benign }).unwrap();
        }
        let t = d.binary_targets(Class::is_attack);
        (d, t)
    }

    /// Scores probe rows with the fitted scorer, with the reference walk
    /// over a deterministic regrowth of the same trees, and as one batch,
    /// and requires all three to agree bit for bit.
    fn assert_scorer_matches_walk(config: GbdtConfig, seed: u64, wild: bool) {
        let (d, t) = mixed(150, seed, wild);
        let mut g = Gbdt::with_config(config);
        g.fit(&d, &t).unwrap();
        let trees = Gbdt::with_config(config).grow(&d, &t).unwrap();
        assert_eq!(g.tree_count(), trees.len());

        // per feature: every bin edge, its neighbours, the training
        // values, and values no training row had
        let pools: Vec<Vec<f64>> = (0..d.n_features())
            .map(|f| {
                let mut pool = d.column(f).unwrap();
                for &e in &g.bin_edges[f] {
                    pool.extend([e, e.next_down(), e.next_up()]);
                }
                pool.extend([
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    0.0,
                    -0.0,
                    1e300,
                    -1e300,
                    f64::MIN_POSITIVE,
                ]);
                pool
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut rows: Vec<f64> = Vec::new();
        for _ in 0..200 {
            rows.extend(pools.iter().map(|pool| pool[rng.random_range(0..pool.len())]));
        }
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0] {
            rows.extend([special; 3]);
        }

        let width = d.n_features();
        let mut batch = Vec::new();
        g.predict_proba_into(&rows, width, &mut PredictScratch::default(), &mut batch).unwrap();
        assert_eq!(batch.len(), rows.len() / width);
        for (row, &batched) in rows.chunks(width).zip(&batch) {
            let walked = sigmoid(
                trees
                    .iter()
                    .fold(g.base_score, |s, tree| s + config.learning_rate * tree.predict(row)),
            );
            let scored = g.predict_proba_row(row).unwrap();
            assert_eq!(scored.to_bits(), walked.to_bits(), "row {row:?}");
            assert_eq!(batched.to_bits(), scored.to_bits(), "batched row {row:?}");
        }
    }

    #[test]
    fn bitvector_scorer_matches_the_tree_walk_at_the_corners() {
        for num_leaves in [2, MAX_LEAVES] {
            // past TREE_CHUNK the kernel scores the trees in two passes
            for n_iters in [1, 6, TREE_CHUNK + 3] {
                for max_bins in [2, 8, 64, 256] {
                    let config = GbdtConfig {
                        n_iters,
                        num_leaves,
                        max_bins,
                        min_data_in_leaf: 1,
                        ..GbdtConfig::default()
                    };
                    assert_scorer_matches_walk(config, 11, false);
                    assert_scorer_matches_walk(config, 12, true);
                }
            }
        }
    }

    hmd_util::prop_tests! {
        cases = 16;

        /// The bitvector scorer equals the tree walk bit for bit on any
        /// configuration the mask width admits, and a batch equals its
        /// rows scored one at a time.
        fn bitvector_scorer_matches_the_tree_walk(
            num_leaves in 2usize..=MAX_LEAVES,
            n_iters in 1usize..10,
            bins in 0usize..4,
            min_data_in_leaf in 1usize..6,
            seed in 0u64..1_000_000,
            wild in 0u8..2,
        ) {
            let config = GbdtConfig {
                n_iters,
                num_leaves,
                max_bins: [2, 8, 64, 256][bins],
                min_data_in_leaf,
                ..GbdtConfig::default()
            };
            assert_scorer_matches_walk(config, seed, wild == 1);
        }
    }
}
