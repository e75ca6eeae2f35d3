//! Random Forest baseline, implemented from scratch.
//!
//! The paper's supervised-ML baseline: "random forest … trained as a binary
//! classifier for each attack type using the same feature set from the same
//! three timescales", with hyper-parameters chosen by exhaustive grid
//! search. This module implements CART decision trees (gini impurity,
//! best-split search over sampled feature subsets), bagging, out-of-bag
//! probability estimation, and a small grid-search helper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Forest hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RfConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Features sampled per split; `0` means `sqrt(n_features)`.
    pub max_features: usize,
    /// RNG seed for bootstrap and feature sampling.
    pub seed: u64,
}

impl Default for RfConfig {
    fn default() -> Self {
        RfConfig {
            n_trees: 50,
            max_depth: 12,
            min_samples_split: 4,
            max_features: 0,
            seed: 0,
        }
    }
}

/// A node of a CART tree, stored flat.
#[derive(Clone, Debug)]
enum Node {
    Leaf {
        /// Probability of the positive class at this leaf.
        p: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the left child; right child is `left + 1`… no — both
        /// stored explicitly for clarity.
        left: usize,
        right: usize,
    },
}

/// One decision tree.
#[derive(Clone, Debug)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { p } => return *p,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Gini impurity of a label subset given positive count and total.
fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

struct TreeBuilder<'a> {
    xs: &'a [Vec<f64>],
    ys: &'a [bool],
    cfg: RfConfig,
    n_features: usize,
    max_features: usize,
    nodes: Vec<Node>,
}

impl<'a> TreeBuilder<'a> {
    fn build(mut self, indices: Vec<usize>, rng: &mut StdRng) -> Tree {
        self.grow(indices, 0, rng);
        Tree { nodes: self.nodes }
    }

    /// Grows a subtree over `indices`; returns its root node index.
    fn grow(&mut self, indices: Vec<usize>, depth: usize, rng: &mut StdRng) -> usize {
        let total = indices.len() as f64;
        let pos = indices.iter().filter(|&&i| self.ys[i]).count() as f64;
        let node_gini = gini(pos, total);

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                p: if total > 0.0 { pos / total } else { 0.5 },
            });
            nodes.len() - 1
        };

        if depth >= self.cfg.max_depth
            || indices.len() < self.cfg.min_samples_split
            || node_gini == 0.0
        {
            return make_leaf(&mut self.nodes);
        }

        // Sample a feature subset and find the best split.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, impurity)
        for _ in 0..self.max_features {
            let f = rng.random_range(0..self.n_features);
            // Candidate thresholds: midpoints of sorted unique values.
            let mut vals: Vec<f64> = indices.iter().map(|&i| self.xs[i][f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN feature"));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            // Subsample thresholds for wide value ranges.
            let step = (vals.len() / 16).max(1);
            for w in vals.windows(2).step_by(step) {
                let thr = (w[0] + w[1]) / 2.0;
                let (mut lp, mut lt) = (0.0, 0.0);
                for &i in &indices {
                    if self.xs[i][f] <= thr {
                        lt += 1.0;
                        if self.ys[i] {
                            lp += 1.0;
                        }
                    }
                }
                let rt = total - lt;
                let rp = pos - lp;
                if lt == 0.0 || rt == 0.0 {
                    continue;
                }
                let impurity = (lt * gini(lp, lt) + rt * gini(rp, rt)) / total;
                if best.is_none_or(|(_, _, bi)| impurity < bi) {
                    best = Some((f, thr, impurity));
                }
            }
        }

        let Some((feature, threshold, impurity)) = best else {
            return make_leaf(&mut self.nodes);
        };
        if impurity >= node_gini - 1e-12 {
            return make_leaf(&mut self.nodes);
        }

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .into_iter()
            .partition(|&i| self.xs[i][feature] <= threshold);

        // Reserve our slot, then grow children.
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { p: 0.0 }); // placeholder
        let left = self.grow(left_idx, depth + 1, rng);
        let right = self.grow(right_idx, depth + 1, rng);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }
}

/// A trained random forest binary classifier.
#[derive(Clone, Debug)]
pub struct RandomForest {
    trees: Vec<Tree>,
    n_features: usize,
}

impl RandomForest {
    /// Trains a forest on `(xs, ys)`.
    ///
    /// # Panics
    /// Panics on empty or ragged input.
    pub fn train(xs: &[Vec<f64>], ys: &[bool], cfg: RfConfig) -> Self {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        let n_features = xs[0].len();
        assert!(xs.iter().all(|x| x.len() == n_features), "ragged features");
        let max_features = if cfg.max_features == 0 {
            (n_features as f64).sqrt().ceil() as usize
        } else {
            cfg.max_features.min(n_features)
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut trees = Vec::with_capacity(cfg.n_trees);
        for _ in 0..cfg.n_trees {
            // Bootstrap sample.
            let indices: Vec<usize> = (0..xs.len())
                .map(|_| rng.random_range(0..xs.len()))
                .collect();
            let builder = TreeBuilder {
                xs,
                ys,
                cfg,
                n_features,
                max_features,
                nodes: Vec::new(),
            };
            trees.push(builder.build(indices, &mut rng));
        }
        RandomForest { trees, n_features }
    }

    /// Probability of the positive class: mean of tree leaf probabilities.
    ///
    /// # Panics
    /// Panics if `x` has the wrong dimensionality.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature dim mismatch");
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Hard prediction at a 0.5 cut.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Exhaustive grid search over forest hyper-parameters, maximizing an
/// arbitrary validation score. Returns the best config and its score.
pub fn grid_search<F>(
    grid_trees: &[usize],
    grid_depth: &[usize],
    mut score: F,
    seed: u64,
) -> (RfConfig, f64)
where
    F: FnMut(RfConfig) -> f64,
{
    let mut best = (RfConfig::default(), f64::NEG_INFINITY);
    for &n_trees in grid_trees {
        for &max_depth in grid_depth {
            let cfg = RfConfig {
                n_trees,
                max_depth,
                seed,
                ..RfConfig::default()
            };
            let s = score(cfg);
            if s > best.1 {
                best = (cfg, s);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable blob dataset.
    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let pos = i % 2 == 0;
            let cx = if pos { 2.0 } else { -2.0 };
            xs.push(vec![
                cx + rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            ]);
            ys.push(pos);
        }
        (xs, ys)
    }

    #[test]
    fn learns_separable_data() {
        let (xs, ys) = blobs(200, 1);
        let rf = RandomForest::train(&xs, &ys, RfConfig::default());
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, y)| rf.predict(x) == **y)
            .count();
        assert!(correct >= 190, "train accuracy {correct}/200");
    }

    #[test]
    fn generalizes_to_held_out() {
        let (xs, ys) = blobs(300, 2);
        let rf = RandomForest::train(&xs[..200], &ys[..200], RfConfig::default());
        let correct = xs[200..]
            .iter()
            .zip(&ys[200..])
            .filter(|(x, y)| rf.predict(x) == **y)
            .count();
        assert!(correct >= 90, "holdout accuracy {correct}/100");
    }

    #[test]
    fn learns_xor_with_depth() {
        // A non-linear concept no single split solves.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..400 {
            let a = rng.random_range(-1.0..1.0f64);
            let b = rng.random_range(-1.0..1.0f64);
            xs.push(vec![a, b]);
            ys.push((a > 0.0) != (b > 0.0));
        }
        let rf = RandomForest::train(
            &xs,
            &ys,
            RfConfig {
                n_trees: 40,
                max_depth: 8,
                max_features: 2,
                ..RfConfig::default()
            },
        );
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, y)| rf.predict(x) == **y)
            .count();
        assert!(correct >= 360, "xor accuracy {correct}/400");
    }

    #[test]
    fn proba_is_in_unit_interval_and_ordered() {
        let (xs, ys) = blobs(100, 4);
        let rf = RandomForest::train(&xs, &ys, RfConfig::default());
        let p_pos = rf.predict_proba(&[2.5, 0.0]);
        let p_neg = rf.predict_proba(&[-2.5, 0.0]);
        assert!((0.0..=1.0).contains(&p_pos));
        assert!((0.0..=1.0).contains(&p_neg));
        assert!(p_pos > p_neg);
    }

    #[test]
    fn pure_node_yields_deterministic_leaf() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
        let ys = vec![true, true, true];
        let rf = RandomForest::train(&xs, &ys, RfConfig::default());
        assert_eq!(rf.predict_proba(&[0.5]), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = blobs(100, 5);
        let cfg = RfConfig {
            seed: 42,
            ..RfConfig::default()
        };
        let a = RandomForest::train(&xs, &ys, cfg);
        let b = RandomForest::train(&xs, &ys, cfg);
        for x in &xs {
            assert_eq!(a.predict_proba(x), b.predict_proba(x));
        }
    }

    #[test]
    fn grid_search_picks_best() {
        let (cfg, score) = grid_search(
            &[5, 10],
            &[2, 4],
            |cfg| (cfg.n_trees + cfg.max_depth) as f64,
            0,
        );
        assert_eq!(cfg.n_trees, 10);
        assert_eq!(cfg.max_depth, 4);
        assert_eq!(score, 14.0);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_input_panics() {
        RandomForest::train(&[], &[], RfConfig::default());
    }
}
