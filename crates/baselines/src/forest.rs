//! CART regression trees and bagged random forests — the classical
//! net-delay baseline of Barboza et al. (DAC'19) used in Table 4.

use tp_rng::{Rng, StdRng};

/// Tree/forest growth parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of bagged trees.
    pub num_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Features considered per split (0 = all, the classic `p/3`
    /// regression heuristic when set).
    pub max_features: usize,
    /// Bootstrap/feature-subsample seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            num_trees: 20,
            max_depth: 12,
            min_samples_leaf: 4,
            max_features: 0,
            seed: 0xF0EE57,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f32,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
}

/// A CART regression tree (variance-reduction splits).
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

impl DecisionTree {
    /// Fits a tree to rows `x` (flattened `[n, num_features]`) and targets
    /// `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != y.len() * num_features` or `y` is empty.
    pub fn fit(
        x: &[f32],
        y: &[f32],
        num_features: usize,
        config: &ForestConfig,
        rng: &mut StdRng,
    ) -> DecisionTree {
        assert!(!y.is_empty(), "cannot fit a tree to zero samples");
        assert_eq!(x.len(), y.len() * num_features, "feature matrix shape");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            num_features,
        };
        let indices: Vec<usize> = (0..y.len()).collect();
        tree.grow(x, y, indices, 0, config, rng);
        tree
    }

    fn grow(
        &mut self,
        x: &[f32],
        y: &[f32],
        indices: Vec<usize>,
        depth: usize,
        config: &ForestConfig,
        rng: &mut StdRng,
    ) -> usize {
        let mean = indices.iter().map(|&i| y[i] as f64).sum::<f64>() / indices.len() as f64;
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { value: mean as f32 });
            nodes.len() - 1
        };
        if depth >= config.max_depth || indices.len() < 2 * config.min_samples_leaf {
            return make_leaf(&mut self.nodes);
        }

        // Candidate features (optionally subsampled).
        let k = if config.max_features == 0 || config.max_features >= self.num_features {
            self.num_features
        } else {
            config.max_features
        };
        let mut feats: Vec<usize> = (0..self.num_features).collect();
        if k < self.num_features {
            for i in 0..k {
                let j = rng.gen_range(i..feats.len());
                feats.swap(i, j);
            }
            feats.truncate(k);
        }

        // Best split by variance reduction, evaluated over sorted values.
        let mut best: Option<(usize, f32, f64)> = None;
        let total_sum: f64 = indices.iter().map(|&i| y[i] as f64).sum();
        let total_sq: f64 = indices.iter().map(|&i| (y[i] as f64).powi(2)).sum();
        let n = indices.len() as f64;
        let base_sse = total_sq - total_sum * total_sum / n;
        for &f in &feats {
            let mut order: Vec<usize> = indices.clone();
            // total_cmp keeps the split search deterministic even when a
            // feature value is NaN (it sorts after every finite value);
            // the partial_cmp-or-Equal fallback made the order depend on
            // how the sort happened to compare elements.
            order.sort_by(|&a, &b| {
                x[a * self.num_features + f].total_cmp(&x[b * self.num_features + f])
            });
            let mut left_sum = 0.0f64;
            let mut left_sq = 0.0f64;
            for (pos, &i) in order.iter().enumerate().take(order.len() - 1) {
                let v = y[i] as f64;
                left_sum += v;
                left_sq += v * v;
                let nl = (pos + 1) as f64;
                let nr = n - nl;
                if (pos + 1) < config.min_samples_leaf
                    || (order.len() - pos - 1) < config.min_samples_leaf
                {
                    continue;
                }
                let xv = x[i * self.num_features + f];
                let xnext = x[order[pos + 1] * self.num_features + f];
                if xv == xnext {
                    continue; // cannot split between equal values
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse =
                    (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                let gain = base_sse - sse;
                if best.map_or(gain > 1e-12, |(_, _, g)| gain > g) {
                    best = Some((f, 0.5 * (xv + xnext), gain));
                }
            }
        }

        match best {
            None => make_leaf(&mut self.nodes),
            Some((feature, threshold, _)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .into_iter()
                    .partition(|&i| x[i * self.num_features + feature] <= threshold);
                let slot = self.nodes.len();
                self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
                let left = self.grow(x, y, left_idx, depth + 1, config, rng);
                let right = self.grow(x, y, right_idx, depth + 1, config, rng);
                self.nodes[slot] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                slot
            }
        }
    }

    /// Predicts one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != num_features`.
    pub fn predict(&self, row: &[f32]) -> f32 {
        assert_eq!(row.len(), self.num_features, "feature width mismatch");
        // The root is the node created first at each grow() call chain —
        // for the whole tree that is index 0 when no split was made, or the
        // placeholder slot of the first split. Both cases: the first node
        // pushed by the outermost grow().
        let mut cur = self.root();
        loop {
            match &self.nodes[cur] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    cur = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn root(&self) -> usize {
        0
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// A bagged ensemble of regression trees.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    num_features: usize,
}

impl RandomForest {
    /// Fits the forest with bootstrap sampling.
    ///
    /// # Panics
    ///
    /// Same conditions as [`DecisionTree::fit`].
    pub fn fit(x: &[f32], y: &[f32], num_features: usize, config: &ForestConfig) -> RandomForest {
        let n = y.len();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let trees = (0..config.num_trees)
            .map(|_| {
                // bootstrap sample
                let mut bx = Vec::with_capacity(n * num_features);
                let mut by = Vec::with_capacity(n);
                for _ in 0..n {
                    let i = rng.gen_range(0..n);
                    bx.extend_from_slice(&x[i * num_features..(i + 1) * num_features]);
                    by.push(y[i]);
                }
                DecisionTree::fit(&bx, &by, num_features, config, &mut rng)
            })
            .collect();
        RandomForest {
            trees,
            num_features,
        }
    }

    /// Mean prediction over all trees for one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the training feature width.
    pub fn predict(&self, row: &[f32]) -> f32 {
        let sum: f32 = self.trees.iter().map(|t| t.predict(row)).sum();
        sum / self.trees.len() as f32
    }

    /// Predicts many rows (flattened `[n, num_features]`).
    pub fn predict_batch(&self, x: &[f32]) -> Vec<f32> {
        x.chunks(self.num_features)
            .map(|r| self.predict(r))
            .collect()
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_config() -> ForestConfig {
        ForestConfig {
            num_trees: 8,
            max_depth: 6,
            min_samples_leaf: 2,
            max_features: 0,
            seed: 1,
        }
    }

    /// y = 2·x0 + noiseless step on x1
    fn toy_data(n: usize) -> (Vec<f32>, Vec<f32>) {
        let mut x = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i % 17) as f32 / 17.0;
            let b = (i % 5) as f32 / 5.0;
            x.push(a);
            x.push(b);
            y.push(2.0 * a + if b > 0.5 { 1.0 } else { 0.0 });
        }
        (x, y)
    }

    #[test]
    fn tree_fits_piecewise_function() {
        let (x, y) = toy_data(200);
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::fit(&x, &y, 2, &toy_config(), &mut rng);
        assert!(t.num_nodes() > 3);
        let mut sse = 0.0;
        for i in 0..200 {
            let p = t.predict(&x[i * 2..i * 2 + 2]);
            sse += (p - y[i]).powi(2);
        }
        assert!(sse / 200.0 < 0.02, "tree MSE too high: {}", sse / 200.0);
    }

    #[test]
    fn forest_beats_or_matches_constant() {
        let (x, y) = toy_data(300);
        let f = RandomForest::fit(&x, &y, 2, &toy_config());
        let preds = f.predict_batch(&x);
        let mean = y.iter().sum::<f32>() / y.len() as f32;
        let sse: f32 = preds.iter().zip(&y).map(|(p, t)| (p - t).powi(2)).sum();
        let sst: f32 = y.iter().map(|t| (t - mean).powi(2)).sum();
        assert!(sse < sst * 0.2, "forest R2 too low");
        assert_eq!(f.num_trees(), 8);
    }

    #[test]
    fn constant_target_yields_leaf() {
        let x = vec![0.0, 1.0, 2.0, 3.0];
        let y = vec![5.0, 5.0, 5.0, 5.0];
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::fit(&x, &y, 1, &toy_config(), &mut rng);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.predict(&[9.0]), 5.0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = toy_data(40);
        let cfg = ForestConfig {
            min_samples_leaf: 20,
            ..toy_config()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::fit(&x, &y, 2, &cfg, &mut rng);
        // 40 samples with 20-leaf minimum allows at most one split.
        assert!(t.num_nodes() <= 3);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_fit_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = DecisionTree::fit(&[], &[], 2, &toy_config(), &mut rng);
    }

    #[test]
    fn nan_feature_cannot_reorder_splits_between_runs() {
        // A NaN feature value must not make the split-search sort order
        // (and therefore the fitted trees) run-dependent: two fits over
        // the same data are byte-for-byte the same predictor.
        let (mut x, y) = toy_data(120);
        x[31 * 2] = f32::NAN; // poison one x0 value
        x[77 * 2 + 1] = f32::NAN; // and one x1 value
        let fit = || RandomForest::fit(&x, &y, 2, &toy_config());
        let (fa, fb) = (fit(), fit());
        let probe: Vec<[f32; 2]> = (0..25)
            .map(|i| [i as f32 / 25.0, (i * 7 % 25) as f32 / 25.0])
            .collect();
        for row in &probe {
            let (pa, pb) = (fa.predict(row), fb.predict(row));
            assert_eq!(pa.to_bits(), pb.to_bits(), "prediction differs at {row:?}");
        }
        // The forest still learned something despite the poisoned cells.
        let preds = fa.predict_batch(&x);
        let mean = y.iter().sum::<f32>() / y.len() as f32;
        let sse: f32 = preds.iter().zip(&y).map(|(p, t)| (p - t).powi(2)).sum();
        let sst: f32 = y.iter().map(|t| (t - mean).powi(2)).sum();
        assert!(sse < sst, "forest must beat the constant predictor");
    }
}
