//! The net embedding stage (paper Sec. 3.3.1, Fig. 2).

use tp_data::{DesignGraph, NET_EDGE_FEATURES, PIN_FEATURES};
use tp_nn::{Mlp, Module};
use tp_rng::StdRng;
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

    /// Applies the layer to `h` (`[N, in_dim]`): the sink update on every
    /// net edge, the driver update on the driver rows only, and a merge
    /// that selects each sink's `sink_update` row and each driver's
    /// driver-update row.
    ///
    /// Also returns `sink_update` (the scattered broadcast messages). The
    /// incremental engine caches it because driver reductions read
    /// `sink_update` rows, not the merged output.
    fn forward_traced(&self, design: &DesignGraph, rows: &NetRows, h: &Tensor) -> (Tensor, Tensor) {
        let src_h = h.gather_rows(&design.net_src);
        let dst_h = h.gather_rows(&design.net_dst);
        let ef = &design.net_edge_features;

        // Every sink has exactly one incoming net edge, so the scatter is
        // an assignment.
        let sink_update = self.sink_update(&src_h, &dst_h, ef, &design.net_dst, design.num_pins);
        let new_dst = sink_update.gather_rows(&design.net_dst);
        let driver_update = self.driver_update(
            &h.gather_rows(&rows.drivers),
            &src_h,
            &new_dst,
            ef,
            &rows.seg,
        );
        let out = Tensor::assemble_rows(&[&sink_update, &driver_update], &rows.pick);
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

/// Whether pin `p` is a driver row, one whose layer output is its driver
/// update: every pin that is not a net sink. The full pass and the
/// incremental engine run the driver update on exactly these rows.
pub(crate) fn is_driver_row(design: &DesignGraph, p: usize) -> bool {
    design.sink_mask[p] < 0.5
}

/// The row lists every [`NetConv`] layer of one design shares, built once
/// per embedding in O(N + E).
struct NetRows {
    /// The driver rows, ascending.
    drivers: Vec<usize>,
    /// Each net edge's segment id in the driver update: the position of
    /// its source pin in `drivers`.
    seg: Vec<usize>,
    /// The merge: output row `p` is row `pick[p]` of the virtual
    /// `[sink_update; driver_update]` stack.
    pick: Vec<usize>,
}

impl NetRows {
    fn new(design: &DesignGraph) -> NetRows {
        let n = design.num_pins;
        let mut drivers = Vec::new();
        let pick: Vec<usize> = (0..n)
            .map(|p| {
                if is_driver_row(design, p) {
                    drivers.push(p);
                    n + drivers.len() - 1
                } else {
                    p
                }
            })
            .collect();
        let seg = design
            .net_src
            .iter()
            .map(|&s| {
                pick[s]
                    .checked_sub(n)
                    .expect("every net edge starts at a driver row")
            })
            .collect();
        NetRows { drivers, seg, pick }
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
    /// sink update, in layer order.
    pub(crate) fn embed_with(
        &self,
        design: &DesignGraph,
        mut on_layer: impl FnMut(&Tensor, &Tensor),
    ) -> Tensor {
        let _embed_span = tp_obs::span!("net_embed", layers = self.layers.len());
        let rows = NetRows::new(design);
        let mut h = design.pin_features.clone();
        for (l, layer) in self.layers.iter().enumerate() {
            let _layer_span = tp_obs::span!("net_conv", layer = l);
            let (out, sink_update) = layer.forward_traced(design, &rows, &h);
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
        design_of(18, 11) // spm
    }

    fn design_of(benchmark: usize, seed: u64) -> DesignGraph {
        let lib = Library::synthetic_sky130(0);
        let cfg = GeneratorConfig {
            scale: 0.01,
            seed,
            depth: Some(6),
        };
        let spec = &BENCHMARKS[benchmark];
        let circuit = generate(spec, &lib, &cfg);
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
        let sta = StaConfig::default();
        let flow = run_full_flow(&circuit, &placement, &lib, &sta);
        DesignGraph::from_flow(spec.name, false, &circuit, &placement, &lib, &flow, &sta)
    }

    fn row(v: &[f32], i: usize, width: usize) -> &[f32] {
        &v[i * width..(i + 1) * width]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A per-pin loop reference for [`NetEmbed::embed`]. Every MLP call
    /// sees one hand-built row and every reduction is a scalar loop in
    /// edge order, so it shares no gather, scatter, segment op or merge
    /// with the batched layers.
    fn reference_embed(m: &NetEmbed, d: &DesignGraph) -> Vec<f32> {
        let call = |mlp: &Mlp, parts: &[&[f32]]| {
            let x = parts.concat();
            let width = x.len();
            mlp.forward(&Tensor::from_vec(x, &[1, width]).unwrap())
                .to_vec()
        };
        let n = d.num_pins;
        let ef = d.net_edge_features.to_vec();
        let mut out_edges = vec![Vec::new(); n];
        for (e, &s) in d.net_src.iter().enumerate() {
            out_edges[s].push(e);
        }
        let (mut h, mut w) = (d.pin_features.to_vec(), PIN_FEATURES);
        for layer in &m.layers {
            let o = layer.out_dim;
            // Graph broadcast: one message per net edge onto its sink.
            let mut su = vec![0.0f32; n * o];
            for (e, (&s, &t)) in d.net_src.iter().zip(&d.net_dst).enumerate() {
                let msg = call(
                    &layer.broadcast,
                    &[row(&h, s, w), row(&h, t, w), row(&ef, e, NET_EDGE_FEATURES)],
                );
                for (a, v) in su[t * o..(t + 1) * o].iter_mut().zip(msg) {
                    *a += v;
                }
            }
            // Graph reduction: each driver folds its out-edges in id order.
            let mut next = su.clone();
            for p in (0..n).filter(|&p| d.sink_mask[p] < 0.5) {
                let mut sum = vec![0.0f32; o];
                let mut max = vec![f32::NEG_INFINITY; o];
                for &e in &out_edges[p] {
                    let t = d.net_dst[e];
                    let msg = call(
                        &layer.reduce_msg,
                        &[
                            row(&h, p, w),
                            row(&su, t, o),
                            row(&ef, e, NET_EDGE_FEATURES),
                        ],
                    );
                    for ((s, x), v) in sum.iter_mut().zip(max.iter_mut()).zip(msg) {
                        *s += v;
                        if v > *x {
                            *x = v;
                        }
                    }
                }
                if out_edges[p].is_empty() {
                    max.fill(0.0);
                }
                let c = call(&layer.combine, &[row(&h, p, w), &sum, &max]);
                next[p * o..(p + 1) * o].copy_from_slice(&c);
            }
            (h, w) = (next, o);
        }
        h
    }

    #[test]
    fn embed_matches_the_per_pin_reference_bit_for_bit() {
        for d in [design(), design_of(17, 3)] {
            for m in [NetEmbed::new(4, &[8], 5), NetEmbed::new(6, &[16, 8], 6)] {
                let want = tp_tensor::no_grad(|| reference_embed(&m, &d));
                assert_eq!(
                    bits(&m.embed(&d).to_vec()),
                    bits(&want),
                    "{} at embed_dim {}",
                    d.name,
                    m.embed_dim()
                );
            }
        }
    }

    /// The merge selects rows, so an overflowing driver update cannot
    /// reach a sink row: each sink keeps its sink-update row exactly.
    #[test]
    fn non_finite_driver_update_leaves_sink_rows_exact() {
        let d = design();
        let m = NetEmbed::new(4, &[8], 4);
        let layer = &m.layers[0];
        let bias = layer.combine.parameters().pop().unwrap();
        bias.data_mut().fill(f32::INFINITY);
        let (out, su) =
            tp_tensor::no_grad(|| layer.forward_traced(&d, &NetRows::new(&d), &d.pin_features));
        let (out, su) = (out.to_vec(), su.to_vec());
        let o = layer.out_dim;
        let sinks: Vec<usize> = (0..d.num_pins).filter(|&p| d.sink_mask[p] >= 0.5).collect();
        let drivers = d.num_pins - sinks.len();
        assert!(!sinks.is_empty() && drivers > 0);
        assert!(
            out.iter().any(|v| !v.is_finite()),
            "the driver rows overflow"
        );
        for p in sinks {
            assert_eq!(bits(row(&out, p, o)), bits(row(&su, p, o)), "sink row {p}");
        }
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
        let with_grad = m.parameters().iter().filter(|p| p.grad().is_some()).count();
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
        assert!(
            after < initial,
            "loss should decrease: {initial} -> {after}"
        );
    }
}
