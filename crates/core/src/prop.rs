//! The levelized delay-propagation stage (paper Sec. 3.3.2, Fig. 3).
//!
//! Parallelism note: each level's node-group batch is evaluated as a
//! handful of dense MLP matmuls over every pin in the level at once, and
//! those matmuls split by output row across `tp-par` workers inside
//! tp-tensor. That is the right grain here — the per-level tensors are
//! wide, while the level loop itself carries a sequential dependency (a
//! level reads the states the previous level wrote), so the loop stays
//! serial and the kernels underneath fan out.

use tp_data::{DesignGraph, PIN_FEATURES};
use tp_nn::{Mlp, Module};
use tp_rng::StdRng;
use tp_tensor::Tensor;

use crate::{Ablation, LutModule, PropPlan};

/// Output of one propagation pass.
#[derive(Debug, Clone)]
pub struct PropOutput {
    /// Final pin states `[N, prop_dim]`, in pin order.
    pub states: Tensor,
    /// Arrival-time/slew prediction `[N, 8]`: columns 0–3 arrival, 4–7
    /// slew, corner order ER/EF/LR/LF.
    pub atslew: Tensor,
    /// Cell-delay prediction `[E꜀, 4]`, rows ordered like
    /// [`PropPlan::cell_edge_order`]. Empty tensor when the design has no
    /// cell arcs.
    pub cell_delay: Tensor,
}

/// The delay-propagation model: alternating net- and cell-propagation
/// along topological levels, one asynchronous update per pin.
#[derive(Debug, Clone)]
pub struct Propagation {
    init: Mlp,
    net_prop: Mlp,
    lut: LutModule,
    cell_msg: Mlp,
    cell_combine: Mlp,
    post: Mlp,
    pub(crate) atslew_head: Mlp,
    pub(crate) celld_head: Mlp,
    prop_dim: usize,
    ablation: Ablation,
}

/// Intermediates of one [`Propagation::forward`] pass, captured for the
/// incremental engine: the init projection and every level's state block.
#[derive(Debug, Clone)]
pub(crate) struct PropTrace {
    /// `init` MLP output `[N, prop_dim]` in pin order.
    pub x0: Tensor,
    /// Per-level state blocks, `[levelₗ.pins.len(), prop_dim]` each.
    pub blocks: Vec<Tensor>,
}

impl Propagation {
    /// Builds the stage for `embed_dim`-wide net embeddings and
    /// `prop_dim`-wide propagation states.
    pub fn new(embed_dim: usize, prop_dim: usize, hidden: &[usize], seed: u64) -> Propagation {
        Propagation::with_ablation(embed_dim, prop_dim, hidden, seed, Ablation::default())
    }

    /// Like [`Propagation::new`] with explicit architecture ablations.
    pub fn with_ablation(
        embed_dim: usize,
        prop_dim: usize,
        hidden: &[usize],
        seed: u64,
        ablation: Ablation,
    ) -> Propagation {
        let mut rng = StdRng::seed_from_u64(seed);
        Propagation {
            init: Mlp::new(PIN_FEATURES + embed_dim, hidden, prop_dim, &mut rng),
            net_prop: Mlp::new(
                prop_dim + tp_data::NET_EDGE_FEATURES,
                hidden,
                prop_dim,
                &mut rng,
            ),
            lut: LutModule::new(prop_dim, hidden, &mut rng),
            cell_msg: Mlp::new(prop_dim + LutModule::OUT_DIM, hidden, prop_dim, &mut rng),
            cell_combine: Mlp::new(2 * prop_dim, hidden, prop_dim, &mut rng),
            post: Mlp::new(2 * prop_dim, &[], prop_dim, &mut rng),
            atslew_head: Mlp::new(prop_dim, hidden, 8, &mut rng),
            celld_head: Mlp::new(prop_dim, hidden, 4, &mut rng),
            prop_dim,
            ablation,
        }
    }

    /// State width.
    pub fn prop_dim(&self) -> usize {
        self.prop_dim
    }

    /// Runs the levelized pass.
    ///
    /// `embedding` is the net-embedding output `[N, embed_dim]`; `plan`
    /// must have been built from `design`. Training, evaluation,
    /// inference and the incremental engine all run this one pass.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not match `design`.
    pub fn forward(&self, design: &DesignGraph, plan: &PropPlan, embedding: &Tensor) -> PropOutput {
        self.forward_traced(design, plan, embedding).0
    }

    /// The init projection `[pin features ‖ embedding] → state` of the
    /// given rows (all pins, or the incremental engine's dirty ones).
    pub(crate) fn init_states(&self, pin_features: &Tensor, embedding: &Tensor) -> Tensor {
        self.init
            .forward(&Tensor::concat_cols(&[pin_features, embedding]))
    }

    /// One level's state block, shared verbatim between the full pass and
    /// the incremental engine — incremental updates must never change
    /// arithmetic, only row coverage, so both run exactly this op sequence.
    /// Returns the block (one row per `lp.pins` entry) and, when the level
    /// has cell arcs, the concatenated cell messages in group order (input
    /// of the cell-delay head).
    ///
    /// `lp` may be a whole level of the plan or a [`LevelPlan::restrict`]
    /// sub-plan of it. `blocks` holds the state block of every level below
    /// `l`.
    ///
    /// [`LevelPlan::restrict`]: crate::LevelPlan::restrict
    pub(crate) fn compute_level(
        &self,
        design: &DesignGraph,
        lp: &crate::plan::LevelPlan,
        l: usize,
        x0: &Tensor,
        blocks: &[Tensor],
    ) -> (Tensor, Option<Tensor>) {
        let _level_span = tp_obs::span!("prop_level", level = l, pins = lp.pins.len());
        tp_obs::metrics::count("gnn.pins_propagated", lp.pins.len() as u64);
        if l == 0 {
            return (x0.gather_rows(&lp.pins), None);
        }
        let k = lp.pins.len();

        // --- net propagation: driver state + wire geometry -> sink ---
        let net_block = if lp.net_groups.is_empty() {
            Tensor::zeros(&[k, self.prop_dim])
        } else {
            let mut msgs: Vec<Tensor> = Vec::with_capacity(lp.net_groups.len());
            let mut dests: Vec<usize> = Vec::new();
            for g in &lp.net_groups {
                let src = blocks[g.src_level].gather_rows(&g.src_rows);
                let ef = design.net_edge_features.gather_rows(&g.edge_ids);
                msgs.push(self.net_prop.forward(&Tensor::concat_cols(&[&src, &ef])));
                dests.extend_from_slice(&g.dest_local);
            }
            let refs: Vec<&Tensor> = msgs.iter().collect();
            Tensor::concat_rows(&refs).segment_sum(&dests, k)
        };

        // --- cell propagation: LUT interpolation + sum/max channels ---
        let (cell_block, cell_msgs) = if lp.cell_groups.is_empty() {
            (Tensor::zeros(&[k, self.prop_dim]), None)
        } else {
            let mut msgs: Vec<Tensor> = Vec::with_capacity(lp.cell_groups.len());
            let mut dests: Vec<usize> = Vec::new();
            for g in &lp.cell_groups {
                let src = blocks[g.src_level].gather_rows(&g.src_rows);
                let ef = design.cell_edge_features.gather_rows(&g.edge_ids);
                let lut_out = if self.ablation.no_lut_module {
                    // ablation: the model sees only the valid flags,
                    // losing access to the NLDM tables
                    ef.narrow_cols(0, LutModule::OUT_DIM)
                } else {
                    self.lut.forward(&src, &ef)
                };
                msgs.push(
                    self.cell_msg
                        .forward(&Tensor::concat_cols(&[&src, &lut_out])),
                );
                dests.extend_from_slice(&g.dest_local);
            }
            let refs: Vec<&Tensor> = msgs.iter().collect();
            let m = Tensor::concat_rows(&refs);
            let sum_ch = m.segment_sum(&dests, k);
            let max_ch = if self.ablation.no_max_channel {
                sum_ch.clone()
            } else {
                m.segment_max(&dests, k)
            };
            // Combine only at rows that actually receive cell arcs, so
            // MLP biases do not leak onto net-fed pins.
            let cf = &lp.cell_fed_local;
            let comb = self.cell_combine.forward(&Tensor::concat_cols(&[
                &sum_ch.gather_rows(cf),
                &max_ch.gather_rows(cf),
            ]));
            (comb.scatter_rows(cf, k), Some(m))
        };

        let update = net_block.add(&cell_block);
        let init_rows = x0.gather_rows(&lp.pins);
        (
            self.post
                .forward(&Tensor::concat_cols(&[&init_rows, &update])),
            cell_msgs,
        )
    }

    /// [`Propagation::forward`] that also captures the per-level state
    /// blocks and init projection for the incremental engine.
    ///
    /// Every block stays resident (the autograd graph needs them anyway).
    /// The levels are walked in ascending order, grouped into `prop_chunk`
    /// trace spans by [`tp_partition::PartitionPlan::by_max_nodes`] under
    /// the [`tp_partition::partition_nodes`] budget; budget 0 is one chunk.
    /// The grouping changes no op, so every budget gives the same bits.
    /// The fused [`Tensor::assemble_rows`] builds the `[N, prop_dim]` state
    /// matrix without materializing the block concatenation —
    /// bit-identical to `concat_rows` + `gather_rows`, gradients included.
    pub(crate) fn forward_traced(
        &self,
        design: &DesignGraph,
        plan: &PropPlan,
        embedding: &Tensor,
    ) -> (PropOutput, PropTrace) {
        let _prop_span = tp_obs::span!("levelized_prop", levels = plan.num_levels());
        let x0 = self.init_states(&design.pin_features, embedding);

        let pplan = tp_partition::PartitionPlan::by_max_nodes(
            &plan.level_graph(),
            tp_partition::partition_nodes(),
        );
        pplan.publish("gnn.partition");
        let mut blocks: Vec<Tensor> = Vec::with_capacity(plan.num_levels());
        let mut edge_msgs: Vec<Tensor> = Vec::new();
        for (ci, chunk) in pplan.chunks().iter().enumerate() {
            let _chunk_span = tp_obs::span!(
                "prop_chunk",
                chunk = ci,
                levels = chunk.levels.len(),
                nodes = chunk.nodes,
            );
            for l in chunk.levels.clone() {
                let (b, m) = self.compute_level(design, &plan.levels[l], l, &x0, &blocks);
                edge_msgs.extend(m);
                blocks.push(b);
            }
        }

        let refs: Vec<&Tensor> = blocks.iter().collect();
        let states = Tensor::assemble_rows(&refs, &plan.assemble);
        let atslew = self.atslew_head.forward(&states);
        let cell_delay = if edge_msgs.is_empty() {
            Tensor::zeros(&[0, 4])
        } else {
            let refs: Vec<&Tensor> = edge_msgs.iter().collect();
            self.celld_head.forward(&Tensor::concat_rows(&refs))
        };

        (
            PropOutput {
                states,
                atslew,
                cell_delay,
            },
            PropTrace { x0, blocks },
        )
    }
}

impl Module for Propagation {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.init.parameters();
        p.extend(self.net_prop.parameters());
        p.extend(self.lut.parameters());
        p.extend(self.cell_msg.parameters());
        p.extend(self.cell_combine.parameters());
        p.extend(self.post.parameters());
        p.extend(self.atslew_head.parameters());
        p.extend(self.celld_head.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetEmbed;
    use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
    use tp_liberty::Library;
    use tp_place::{place_circuit, PlacementConfig};
    use tp_sta::flow::run_full_flow;
    use tp_sta::StaConfig;

    fn design() -> DesignGraph {
        let lib = Library::synthetic_sky130(0);
        let cfg = GeneratorConfig {
            scale: 0.01,
            seed: 4,
            depth: Some(8),
        };
        let circuit = generate(&BENCHMARKS[13], &lib, &cfg); // usb
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
        let sta = StaConfig::default();
        let flow = run_full_flow(&circuit, &placement, &lib, &sta);
        DesignGraph::from_flow("usb", true, &circuit, &placement, &lib, &flow, &sta)
    }

    #[test]
    fn forward_shapes() {
        let d = design();
        let plan = PropPlan::build(&d);
        let ne = NetEmbed::new(6, &[8], 0);
        let prop = Propagation::new(6, 10, &[8], 1);
        let out = prop.forward(&d, &plan, &ne.embed(&d));
        assert_eq!(out.states.shape(), &[d.num_pins, 10]);
        assert_eq!(out.atslew.shape(), &[d.num_pins, 8]);
        assert_eq!(out.cell_delay.shape(), &[d.num_cell_edges(), 4]);
    }

    #[test]
    fn gradients_reach_both_stages() {
        let d = design();
        let plan = PropPlan::build(&d);
        let ne = NetEmbed::new(4, &[8], 0);
        let prop = Propagation::new(4, 6, &[8], 1);
        let emb = ne.embed(&d);
        let out = prop.forward(&d, &plan, &emb);
        let target = Tensor::concat_cols(&[&d.arrival, &d.slew]);
        out.atslew.mse(&target).backward();
        // NetEmbed's net-delay head is unused by this loss; the conv layers
        // themselves must all receive gradients through the embedding.
        let ne_live = ne
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        assert!(
            ne_live >= ne.parameters().len() - 4,
            "net-embed grads: {ne_live}"
        );
        // celld head is unused by this loss; everything else must have grads
        let live = prop
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        assert!(live >= prop.parameters().len() - 4);
    }

    #[test]
    fn deterministic_forward() {
        let d = design();
        let plan = PropPlan::build(&d);
        let ne = NetEmbed::new(4, &[8], 5);
        let prop = Propagation::new(4, 6, &[8], 6);
        let a = prop.forward(&d, &plan, &ne.embed(&d)).atslew.to_vec();
        let b = prop.forward(&d, &plan, &ne.embed(&d)).atslew.to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn single_pass_covers_full_depth() {
        // Arrival predictions at the deepest level depend on level-0 inputs:
        // perturbing a startpoint feature must change deep outputs.
        let d = design();
        let plan = PropPlan::build(&d);
        let ne = NetEmbed::new(4, &[8], 2);
        let prop = Propagation::new(4, 6, &[8], 3);
        let base = prop.forward(&d, &plan, &ne.embed(&d)).atslew.to_vec();

        let d2 = d.clone(); // shares tensor storage; mutate all startpoints
        {
            let starts = d2.levels[0].clone();
            let mut pf = d2.pin_features.data_mut();
            for start in starts {
                pf[start * tp_data::PIN_FEATURES + 2] += 5.0;
            }
        }
        let out2 = prop.forward(&d2, &plan, &ne.embed(&d2)).atslew.to_vec();
        let deepest = plan.levels.last().unwrap().pins.clone();
        let changed = deepest
            .iter()
            .any(|&p| (0..8).any(|k| (base[p * 8 + k] - out2[p * 8 + k]).abs() > 1e-7));
        assert!(
            changed,
            "a startpoint perturbation must reach the deepest level in one pass"
        );
    }
}
