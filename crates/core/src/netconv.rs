//! The net embedding stage (paper Sec. 3.3.1, Fig. 2).

use tp_rng::StdRng;
use tp_data::{DesignGraph, NET_EDGE_FEATURES, PIN_FEATURES};
use tp_nn::{Mlp, Module};
use tp_tensor::ops::elementwise::mask_rows;
use tp_tensor::Tensor;

/// One net convolution layer: graph broadcast followed by graph reduction
/// with sum and max channels.
#[derive(Debug, Clone)]
pub struct NetConv {
    broadcast: Mlp,
    reduce_msg: Mlp,
    combine: Mlp,
    out_dim: usize,
}

impl NetConv {
    /// Creates a layer mapping `in_dim`-dimensional pin features to
    /// `out_dim`, with `hidden`-wide MLPs.
    pub fn new(in_dim: usize, out_dim: usize, hidden: &[usize], rng: &mut StdRng) -> NetConv {
        NetConv {
            broadcast: Mlp::new(2 * in_dim + NET_EDGE_FEATURES, hidden, out_dim, rng),
            reduce_msg: Mlp::new(in_dim + out_dim + NET_EDGE_FEATURES, hidden, out_dim, rng),
            combine: Mlp::new(in_dim + 2 * out_dim, hidden, out_dim, rng),
            out_dim,
        }
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer.
    ///
    /// `h` is `[N, in_dim]`; masks select sink rows (updated by broadcast)
    /// and driver rows (updated by reduction).
    pub fn forward(&self, design: &DesignGraph, h: &Tensor) -> Tensor {
        self.forward_traced(design, h).0
    }

    /// [`NetConv::forward`] that also returns the pre-mask `sink_update`
    /// matrix (the scattered broadcast messages). The incremental engine
    /// caches it because driver reductions read `sink_update` rows
    /// *before* the sink/driver merge.
    pub(crate) fn forward_traced(&self, design: &DesignGraph, h: &Tensor) -> (Tensor, Tensor) {
        let n = design.num_pins;
        let src_h = h.gather_rows(&design.net_src);
        let dst_h = h.gather_rows(&design.net_dst);
        let ef = &design.net_edge_features;

        // Every sink has exactly one incoming net edge, so the scatter is
        // an assignment.
        let sink_update = self.sink_update(&src_h, &dst_h, ef, &design.net_dst, n);
        let new_dst = sink_update.gather_rows(&design.net_dst);
        let driver_update = self.driver_update(h, &src_h, &new_dst, ef, &design.net_src);

        // Each pin is either a net sink or a net driver; merge the two
        // disjoint updates.
        let driver_mask: Vec<f32> = design.sink_mask.iter().map(|&m| 1.0 - m).collect();
        let out = mask_rows(&sink_update, &design.sink_mask)
            .add(&mask_rows(&driver_update, &driver_mask));
        (out, sink_update)
    }

    /// The sink-update kernel (graph broadcast, driver → sink): one message
    /// per net edge from its `[driver h ‖ sink h ‖ edge features]` rows,
    /// summed in edge order onto row `dest[i]` of a `rows`-row block.
    pub(crate) fn sink_update(
        &self,
        src_h: &Tensor,
        dst_h: &Tensor,
        ef: &Tensor,
        dest: &[usize],
        rows: usize,
    ) -> Tensor {
        self.broadcast
            .forward(&Tensor::concat_cols(&[src_h, dst_h, ef]))
            .scatter_rows(dest, rows)
    }

    /// The driver-update kernel (graph reduction, sinks → driver): one
    /// message per net edge from its `[driver h ‖ sink update ‖ edge
    /// features]` rows, reduced in edge order onto row `seg[i]` through the
    /// sum and max channels, then combined with the drivers' own rows
    /// `drv_h` (one per output row).
    pub(crate) fn driver_update(
        &self,
        drv_h: &Tensor,
        src_h: &Tensor,
        new_dst: &Tensor,
        ef: &Tensor,
        seg: &[usize],
    ) -> Tensor {
        let rows = drv_h.shape()[0];
        let rmsg = self
            .reduce_msg
            .forward(&Tensor::concat_cols(&[src_h, new_dst, ef]));
        let sum_ch = rmsg.segment_sum(seg, rows);
        let max_ch = rmsg.segment_max(seg, rows);
        self.combine
            .forward(&Tensor::concat_cols(&[drv_h, &sum_ch, &max_ch]))
    }
}

impl Module for NetConv {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.broadcast.parameters();
        p.extend(self.reduce_msg.parameters());
        p.extend(self.combine.parameters());
        p
    }
}

/// The stacked three-layer net embedding model with its net-delay head.
///
/// Used standalone it is the Table-4 net-delay predictor; inside
/// [`TimingGnn`](crate::TimingGnn) its embeddings seed the propagation
/// stage (with extra unsupervised dimensions representing load/slew
/// statistics, as the paper describes).
#[derive(Debug, Clone)]
pub struct NetEmbed {
    pub(crate) layers: Vec<NetConv>,
    net_delay_head: Mlp,
    embed_dim: usize,
}

impl NetEmbed {
    /// Builds the stage: three [`NetConv`] layers and a 4-corner net-delay
    /// head.
    pub fn new(embed_dim: usize, hidden: &[usize], seed: u64) -> NetEmbed {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = vec![
            NetConv::new(PIN_FEATURES, embed_dim, hidden, &mut rng),
            NetConv::new(embed_dim, embed_dim, hidden, &mut rng),
            NetConv::new(embed_dim, embed_dim, hidden, &mut rng),
        ];
        let net_delay_head = Mlp::new(embed_dim, hidden, 4, &mut rng);
        NetEmbed {
            layers,
            net_delay_head,
            embed_dim,
        }
    }

    /// Embedding width.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Computes pin embeddings `[N, embed_dim]`.
    pub fn embed(&self, design: &DesignGraph) -> Tensor {
        self.embed_with(design, |_, _| {})
    }

    /// [`NetEmbed::embed`] that shows `on_layer` every layer's output and
    /// pre-mask sink update, in layer order.
    pub(crate) fn embed_with(
        &self,
        design: &DesignGraph,
        mut on_layer: impl FnMut(&Tensor, &Tensor),
    ) -> Tensor {
        let _embed_span = tp_obs::span!("net_embed", layers = self.layers.len());
        let mut h = design.pin_features.clone();
        for (l, layer) in self.layers.iter().enumerate() {
            let _layer_span = tp_obs::span!("net_conv", layer = l);
            let (out, sink_update) = layer.forward_traced(design, &h);
            on_layer(&out, &sink_update);
            h = out;
        }
        h
    }

    /// Predicts per-pin net delay to root `[N, 4]` from embeddings
    /// (meaningful at net-sink rows).
    pub fn net_delay(&self, embedding: &Tensor) -> Tensor {
        self.net_delay_head.forward(embedding)
    }
}

impl Module for NetEmbed {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p: Vec<Tensor> = self.layers.iter().flat_map(Module::parameters).collect();
        p.extend(self.net_delay_head.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
    use tp_liberty::Library;
    use tp_place::{place_circuit, PlacementConfig};
    use tp_sta::flow::run_full_flow;
    use tp_sta::StaConfig;

    fn design() -> DesignGraph {
        let lib = Library::synthetic_sky130(0);
        let cfg = GeneratorConfig {
            scale: 0.01,
            seed: 11,
            depth: Some(6),
        };
        let circuit = generate(&BENCHMARKS[18], &lib, &cfg); // spm
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
        let sta = StaConfig::default();
        let flow = run_full_flow(&circuit, &placement, &lib, &sta);
        DesignGraph::from_flow("spm", false, &circuit, &placement, &lib, &flow, &sta)
    }

    #[test]
    fn embedding_shape() {
        let d = design();
        let m = NetEmbed::new(8, &[16], 1);
        let h = m.embed(&d);
        assert_eq!(h.shape(), &[d.num_pins, 8]);
        let nd = m.net_delay(&h);
        assert_eq!(nd.shape(), &[d.num_pins, 4]);
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let d = design();
        let m = NetEmbed::new(4, &[8], 2);
        let h = m.embed(&d);
        let loss = m.net_delay(&h).mse(&d.net_delay);
        loss.backward();
        let with_grad = m
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        // every parameter participates (broadcast+reduce+combine×3 + head)
        assert_eq!(with_grad, m.parameters().len());
    }

    #[test]
    fn deterministic_given_seed() {
        let d = design();
        let a = NetEmbed::new(4, &[8], 7).embed(&d).to_vec();
        let b = NetEmbed::new(4, &[8], 7).embed(&d).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn training_step_reduces_net_delay_loss() {
        let d = design();
        let m = NetEmbed::new(8, &[16], 3);
        let mut opt = tp_nn::optim::Adam::new(m.parameters(), 3e-3);
        let initial = {
            let h = m.embed(&d);
            m.net_delay(&h).mse(&d.net_delay).item()
        };
        for _ in 0..30 {
            let h = m.embed(&d);
            let loss = m.net_delay(&h).mse(&d.net_delay);
            opt.zero_grad();
            loss.backward();
            opt.step();
        }
        let after = {
            let h = m.embed(&d);
            m.net_delay(&h).mse(&d.net_delay).item()
        };
        assert!(after < initial, "loss should decrease: {initial} -> {after}");
    }
}
