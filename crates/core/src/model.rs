//! The end-to-end timing GNN.

use tp_data::DesignGraph;
use tp_liberty::Corner;
use tp_nn::Module;
use tp_tensor::Tensor;

use crate::{NetEmbed, PropPlan, Propagation};

/// Architecture hyper-parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Net-embedding width (includes the free, unsupervised dimensions the
    /// paper mentions for load/slew statistics).
    pub embed_dim: usize,
    /// Propagation state width.
    pub prop_dim: usize,
    /// Hidden widths of every internal MLP. The paper uses `[64, 64, 64]`;
    /// the default is sized for CPU training.
    pub hidden: Vec<usize>,
    /// Weight-initialization seed.
    pub seed: u64,
    /// Architecture ablation switches (all off = the paper's model).
    pub ablation: Ablation,
}

/// Design-choice ablations for the architecture study (DESIGN.md §3):
/// each switch removes one ingredient the paper's model relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ablation {
    /// Drop the max reduction channel (keep sum only) in cell propagation.
    pub no_max_channel: bool,
    /// Replace the learned LUT-interpolation module with a plain MLP over
    /// the valid flags (the model loses access to the NLDM tables).
    pub no_lut_module: bool,
    /// Feed zeros instead of the net embedding into the propagation stage
    /// (decouples the two stages).
    pub no_net_embedding: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            embed_dim: 12,
            prop_dim: 20,
            hidden: vec![32, 32],
            seed: 0xD1CE,
            ablation: Ablation::default(),
        }
    }
}

impl ModelConfig {
    /// The paper's full-size configuration (3 hidden layers × 64 neurons).
    pub fn paper() -> ModelConfig {
        ModelConfig {
            embed_dim: 32,
            prop_dim: 32,
            hidden: vec![64, 64, 64],
            seed: 0xD1CE,
            ablation: Ablation::default(),
        }
    }
}

/// Model outputs for one design.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted arrival times `[N, 4]`, ns.
    pub arrival: Tensor,
    /// Predicted slews `[N, 4]`, ns.
    pub slew: Tensor,
    /// Predicted net delay to root `[N, 4]`, ns (meaningful at net sinks).
    pub net_delay: Tensor,
    /// Predicted cell-arc delays `[E꜀, 4]` in
    /// [`PropPlan::cell_edge_order`] order.
    pub cell_delay: Tensor,
}

impl Prediction {
    /// Predicted arrival times flattened over a design's endpoints × 4
    /// corners — the quantity scored in Table 5.
    pub fn endpoint_arrival_flat(&self, design: &DesignGraph) -> Vec<f32> {
        let a = self.arrival.data();
        let mut out = Vec::with_capacity(design.endpoints.len() * 4);
        for &i in &design.endpoints {
            out.extend_from_slice(&a[i * 4..(i + 1) * 4]);
        }
        out
    }

    /// Predicted worst setup slack per endpoint: `RAT − AT` minimized over
    /// the two late corners. Requires no extra head — slack follows from
    /// arrival and the design's constraints, as in the paper.
    pub fn endpoint_setup_slack(&self, design: &DesignGraph) -> Vec<f32> {
        let a = self.arrival.data();
        let r = design.rat.data();
        design
            .endpoints
            .iter()
            .map(|&i| {
                let lr = Corner::LateRise.index();
                let lf = Corner::LateFall.index();
                (r[i * 4 + lr] - a[i * 4 + lr]).min(r[i * 4 + lf] - a[i * 4 + lf])
            })
            .collect()
    }

    /// Predicted worst hold slack per endpoint: `AT − RAT` minimized over
    /// the two early corners.
    pub fn endpoint_hold_slack(&self, design: &DesignGraph) -> Vec<f32> {
        let a = self.arrival.data();
        let r = design.rat.data();
        design
            .endpoints
            .iter()
            .map(|&i| {
                let er = Corner::EarlyRise.index();
                let ef = Corner::EarlyFall.index();
                (a[i * 4 + er] - r[i * 4 + er]).min(a[i * 4 + ef] - r[i * 4 + ef])
            })
            .collect()
    }
}

/// The complete timing-engine-inspired GNN: net embedding followed by
/// levelized delay propagation.
#[derive(Debug, Clone)]
pub struct TimingGnn {
    net_embed: NetEmbed,
    propagation: Propagation,
    config: ModelConfig,
}

impl TimingGnn {
    /// Builds the model from its configuration.
    pub fn new(config: &ModelConfig) -> TimingGnn {
        TimingGnn {
            net_embed: NetEmbed::new(config.embed_dim, &config.hidden, config.seed),
            propagation: Propagation::with_ablation(
                config.embed_dim,
                config.prop_dim,
                &config.hidden,
                config.seed.wrapping_add(1),
                config.ablation,
            ),
            config: config.clone(),
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The net-embedding stage (usable standalone for Table 4).
    pub fn net_embed(&self) -> &NetEmbed {
        &self.net_embed
    }

    /// The propagation stage (for the incremental engine).
    pub(crate) fn propagation(&self) -> &Propagation {
        &self.propagation
    }

    /// The propagation stage's embedding input `[N, embed_dim]`: the net
    /// embedding, or zeros under the `no_net_embedding` ablation (whose
    /// model runs no net-conv layer, so `on_layer` is never called).
    pub(crate) fn embedding(
        &self,
        design: &DesignGraph,
        on_layer: impl FnMut(&Tensor, &Tensor),
    ) -> Tensor {
        if self.config.ablation.no_net_embedding {
            Tensor::zeros(&[design.num_pins, self.config.embed_dim])
        } else {
            self.net_embed.embed_with(design, on_layer)
        }
    }

    /// Full forward pass.
    pub fn forward(&self, design: &DesignGraph, plan: &PropPlan) -> Prediction {
        let embedding = self.embedding(design, |_, _| {});
        let net_delay = self.net_embed.net_delay(&embedding);
        let out = self.propagation.forward(design, plan, &embedding);
        Prediction {
            arrival: out.atslew.narrow_cols(0, 4),
            slew: out.atslew.narrow_cols(4, 4),
            net_delay,
            cell_delay: out.cell_delay,
        }
    }
}

impl Module for TimingGnn {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.net_embed.parameters();
        p.extend(self.propagation.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_modest() {
        let cfg = ModelConfig::default();
        let model = TimingGnn::new(&cfg);
        let n = model.num_parameters();
        assert!(n > 1_000, "model must be nontrivial, has {n}");
        assert!(n < 200_000, "default model stays CPU-sized, has {n}");
    }

    #[test]
    fn paper_config_is_larger() {
        let small = TimingGnn::new(&ModelConfig::default()).num_parameters();
        let paper = TimingGnn::new(&ModelConfig::paper()).num_parameters();
        assert!(paper > small);
    }

    #[test]
    fn weights_roundtrip_through_tpw_format() {
        // Trained weights can be persisted and restored into a freshly
        // constructed model of the same architecture.
        let cfg = ModelConfig {
            embed_dim: 4,
            prop_dim: 6,
            hidden: vec![8],
            seed: 1,
            ablation: Ablation::default(),
        };
        let a = TimingGnn::new(&cfg);
        let b = TimingGnn::new(&ModelConfig { seed: 999, ..cfg.clone() });
        let mut buf = Vec::new();
        tp_nn::save_parameters(&a.parameters(), &mut buf).expect("serialize");
        tp_nn::load_parameters(&b.parameters(), buf.as_slice()).expect("deserialize");
        for (pa, pb) in a.parameters().iter().zip(b.parameters()) {
            assert_eq!(pa.to_vec(), pb.to_vec());
        }
    }

    #[test]
    fn ablated_models_build_and_run_smaller_or_equal() {
        for ablation in [
            Ablation { no_max_channel: true, ..Default::default() },
            Ablation { no_lut_module: true, ..Default::default() },
            Ablation { no_net_embedding: true, ..Default::default() },
        ] {
            let cfg = ModelConfig {
                ablation,
                ..ModelConfig::default()
            };
            let m = TimingGnn::new(&cfg);
            assert!(m.num_parameters() > 0);
        }
    }
}
