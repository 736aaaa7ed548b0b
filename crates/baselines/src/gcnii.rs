//! GCNII (paper Sec. 2.2, Eqs. 1–3).

use tp_rng::StdRng;
use tp_data::{DesignGraph, PIN_FEATURES};
use tp_nn::{Activation, Linear, Mlp, Module};
use tp_tensor::ops::elementwise::mask_rows;
use tp_tensor::Tensor;

/// GCNII hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcniiConfig {
    /// Number of stacked graph-convolution layers (4 / 8 / 16 in Table 5).
    pub layers: usize,
    /// Hidden width.
    pub dim: usize,
    /// Residual-connection strength α (paper: 0.1).
    pub alpha: f32,
    /// Identity-mapping strength β (paper: 0.1).
    pub beta: f32,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for GcniiConfig {
    fn default() -> Self {
        GcniiConfig {
            layers: 16,
            dim: 24,
            alpha: 0.1,
            beta: 0.1,
            seed: 0x6C11,
        }
    }
}

/// Symmetric-normalized adjacency with self loops, stored as COO triples
/// for a gather/segment SpMM.
#[derive(Debug, Clone)]
pub struct NormalizedGraph {
    src: Vec<usize>,
    dst: Vec<usize>,
    weight: Vec<f32>,
    num_nodes: usize,
}

impl NormalizedGraph {
    /// Builds `P = (D+I)^{-1/2} (A+I) (D+I)^{-1/2}` over the undirected
    /// pin graph (net + cell edges, both directions, plus self loops).
    pub fn build(design: &DesignGraph) -> NormalizedGraph {
        let n = design.num_pins;
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for (&s, &d) in design.net_src.iter().zip(&design.net_dst) {
            src.push(s);
            dst.push(d);
            src.push(d);
            dst.push(s);
        }
        for (&s, &d) in design.cell_src.iter().zip(&design.cell_dst) {
            src.push(s);
            dst.push(d);
            src.push(d);
            dst.push(s);
        }
        for i in 0..n {
            src.push(i);
            dst.push(i);
        }
        let mut degree = vec![0.0f32; n];
        for &d in &dst {
            degree[d] += 1.0;
        }
        let inv_sqrt: Vec<f32> = degree.iter().map(|&d| 1.0 / d.max(1.0).sqrt()).collect();
        let weight: Vec<f32> = src
            .iter()
            .zip(&dst)
            .map(|(&s, &d)| inv_sqrt[s] * inv_sqrt[d])
            .collect();
        NormalizedGraph {
            src,
            dst,
            weight,
            num_nodes: n,
        }
    }

    /// `P · H` via gather → per-row scale → segment-sum.
    pub fn spmm(&self, h: &Tensor) -> Tensor {
        let gathered = h.gather_rows(&self.src);
        let scaled = mask_rows(&gathered, &self.weight);
        scaled.segment_sum(&self.dst, self.num_nodes)
    }
}

/// The deep GCNII baseline predicting arrival time and slew at every pin.
#[derive(Debug)]
pub struct Gcnii {
    input_proj: Linear,
    layer_weights: Vec<Linear>,
    head: Mlp,
    config: GcniiConfig,
}

impl Gcnii {
    /// Builds the model.
    pub fn new(config: &GcniiConfig) -> Gcnii {
        let mut rng = StdRng::seed_from_u64(config.seed);
        Gcnii {
            input_proj: Linear::new(PIN_FEATURES, config.dim, &mut rng),
            layer_weights: (0..config.layers)
                .map(|_| Linear::new(config.dim, config.dim, &mut rng))
                .collect(),
            head: Mlp::new(config.dim, &[config.dim], 8, Activation::Relu, &mut rng),
            config: *config,
        }
    }

    /// The configuration used to build this model.
    pub fn config(&self) -> &GcniiConfig {
        &self.config
    }

    /// Forward pass: `[N, 8]` arrival/slew prediction (Eq. 3 stacking).
    pub fn forward(&self, design: &DesignGraph, graph: &NormalizedGraph) -> Tensor {
        let h0 = self.input_proj.forward_relu(&design.pin_features);
        let mut h = h0.clone();
        let (a, b) = (self.config.alpha, self.config.beta);
        for w in &self.layer_weights {
            let ph = graph.spmm(&h);
            // Residual connection: (1-α)·PH + α·H⁰
            let mixed = ph.mul_scalar(1.0 - a).add(&h0.mul_scalar(a));
            // Identity mapping: (1-β)·mixed + β·mixed·W
            h = mixed
                .mul_scalar(1.0 - b)
                .add(&w.forward(&mixed).mul_scalar(b))
                .relu();
        }
        self.head.forward(&h)
    }
}

impl Module for Gcnii {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.input_proj.parameters();
        for w in &self.layer_weights {
            p.extend(w.parameters());
        }
        p.extend(self.head.parameters());
        p
    }
}

/// Training/evaluation wrapper mirroring `tp_gnn::Trainer`, so Table 5 can
/// drive both models identically.
pub struct GcniiTrainer {
    model: Gcnii,
    optimizer: tp_nn::optim::Adam,
    graphs: std::collections::HashMap<String, NormalizedGraph>,
}

impl GcniiTrainer {
    /// Wraps a model with an Adam optimizer.
    pub fn new(model: Gcnii, lr: f32) -> GcniiTrainer {
        let optimizer = tp_nn::optim::Adam::new(model.parameters(), lr);
        GcniiTrainer {
            model,
            optimizer,
            graphs: std::collections::HashMap::new(),
        }
    }

    fn graph_for(&mut self, design: &DesignGraph) -> NormalizedGraph {
        self.graphs
            .entry(design.name.clone())
            .or_insert_with(|| NormalizedGraph::build(design))
            .clone()
    }

    /// One optimization step on one design (arrival/slew MSE over all
    /// pins); returns the loss.
    pub fn step(&mut self, design: &DesignGraph) -> f32 {
        let graph = self.graph_for(design);
        let target = Tensor::concat_cols(&[&design.arrival, &design.slew]);
        let loss = self.model.forward(design, &graph).mse(&target);
        let value = loss.item();
        self.optimizer.zero_grad();
        loss.backward();
        tp_nn::optim::clip_grad_norm(&self.model.parameters(), 5.0);
        self.optimizer.step();
        value
    }

    /// Trains over a dataset's training split for `epochs` passes.
    pub fn fit(&mut self, dataset: &tp_data::Dataset, epochs: usize) {
        for _ in 0..epochs {
            let train: Vec<DesignGraph> = dataset.train().cloned().collect();
            for design in &train {
                self.step(design);
            }
        }
    }

    /// Endpoint arrival R² on one design (the Table-5 score).
    pub fn evaluate_arrival_r2(&mut self, design: &DesignGraph) -> f64 {
        let graph = self.graph_for(design);
        let pred = self.model.forward(design, &graph);
        let p = pred.data();
        let truth = design.endpoint_arrival_flat();
        let mut flat = Vec::with_capacity(truth.len());
        for &i in &design.endpoints {
            flat.extend_from_slice(&p[i * 8..i * 8 + 4]);
        }
        tp_data::r2_score(&truth, &flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_data::{Dataset, DatasetConfig};
    use tp_gen::GeneratorConfig;
    use tp_liberty::Library;

    fn tiny_design() -> DesignGraph {
        let lib = Library::synthetic_sky130(0);
        let ds = Dataset::build_suite(
            &lib,
            &DatasetConfig {
                generator: GeneratorConfig {
                    scale: 0.001,
                    seed: 6,
                    depth: Some(6),
                },
                ..Default::default()
            },
        );
        ds.designs()[18].clone() // spm, small
    }

    #[test]
    fn forward_shape() {
        let d = tiny_design();
        let g = NormalizedGraph::build(&d);
        let m = Gcnii::new(&GcniiConfig {
            layers: 4,
            dim: 8,
            ..Default::default()
        });
        assert_eq!(m.forward(&d, &g).shape(), &[d.num_pins, 8]);
    }

    #[test]
    fn deeper_stacks_have_more_parameters() {
        let shallow = Gcnii::new(&GcniiConfig {
            layers: 4,
            dim: 8,
            ..Default::default()
        });
        let deep = Gcnii::new(&GcniiConfig {
            layers: 16,
            dim: 8,
            ..Default::default()
        });
        assert!(deep.num_parameters() > shallow.num_parameters());
    }

    #[test]
    fn spmm_iterates_stably() {
        // Normalized adjacency has spectral radius ≤ 1: repeated
        // propagation of a constant vector stays finite and bounded by the
        // hub scale ~sqrt(max degree).
        let d = tiny_design();
        let g = NormalizedGraph::build(&d);
        let mut max_deg = vec![0usize; d.num_pins];
        for &s in d.net_src.iter().chain(&d.cell_src) {
            max_deg[s] += 1;
        }
        for &t in d.net_dst.iter().chain(&d.cell_dst) {
            max_deg[t] += 1;
        }
        let bound = (*max_deg.iter().max().unwrap() as f32 + 1.0).sqrt() * 2.0;
        let mut h = Tensor::ones(&[d.num_pins, 1]);
        for _ in 0..8 {
            h = g.spmm(&h);
        }
        assert!(h.to_vec().iter().all(|&v| v.is_finite() && v.abs() <= bound));
    }

    #[test]
    fn training_step_reduces_loss() {
        let d = tiny_design();
        let g = NormalizedGraph::build(&d);
        let m = Gcnii::new(&GcniiConfig {
            layers: 4,
            dim: 8,
            alpha: 0.1,
            beta: 0.1,
            seed: 3,
        });
        let target = Tensor::concat_cols(&[&d.arrival, &d.slew]);
        let mut opt = tp_nn::optim::Adam::new(m.parameters(), 3e-3);
        let before = m.forward(&d, &g).mse(&target).item();
        for _ in 0..20 {
            let loss = m.forward(&d, &g).mse(&target);
            opt.zero_grad();
            loss.backward();
            opt.step();
        }
        let after = m.forward(&d, &g).mse(&target).item();
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn oversmoothing_shrinks_embedding_variance() {
        // The motivating pathology: with plain GCN propagation (α=β=0),
        // deep stacks drive node features toward each other.
        let d = tiny_design();
        let g = NormalizedGraph::build(&d);
        let variance = |t: &Tensor| {
            let v = t.to_vec();
            let mean: f32 = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / v.len() as f32
        };
        let mut h = d.pin_features.clone();
        let var0 = variance(&h);
        for _ in 0..16 {
            h = g.spmm(&h);
        }
        assert!(variance(&h) < var0 * 0.5, "propagation should smooth");
    }
}
