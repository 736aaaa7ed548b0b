//! Incremental GNN re-prediction for ECO-style edits.
//!
//! When a few pins move, the full model does not need to re-run — only the
//! *dirty cone* does. The engine caches the intermediates of one full
//! forward pass (net-embedding layers and their sink updates, the init
//! projection, per-level propagation blocks, head outputs) and, on an
//! edit, recomputes exactly the rows whose inputs changed, expanding the
//! dirty frontier level by level and stopping wherever recomputed bits
//! equal the cached bits.
//!
//! # One set of kernels
//!
//! The engine does no arithmetic of its own. Every row it writes comes
//! from a kernel the full forward pass runs, called on fewer rows:
//!
//! - net embedding: [`NetConv`](crate::NetConv)'s sink-update and
//!   driver-update kernels, on the in-edges of the candidate sinks and the
//!   out-edges of the candidate drivers;
//! - propagation: [`Propagation::compute_level`](crate::Propagation) on
//!   [`LevelPlan::restrict`](crate::LevelPlan::restrict), the
//!   level's plan cut down to its dirty rows;
//! - the init projection and the three heads, on gathered rows.
//!
//! # Bit-identity contract
//!
//! Incremental results are **bit-identical** to a full
//! [`TimingGnn::forward`] over the edited design, because those kernels
//! decompose by destination row:
//!
//! - `gemm` computes each output element with a fixed-order k-loop whose
//!   bits do not depend on which rows share its register block, so an MLP
//!   over a subset of rows reproduces exactly those rows;
//! - `scatter_rows`, `segment_sum` and `segment_max` fold each
//!   destination's rows in input order, so they reproduce a destination
//!   whenever it sees the same edges in the same order. The engine lists
//!   each candidate pin's net edges in ascending id (the full pass's
//!   order), and `restrict` keeps the plan's per-destination
//!   `(source level, edge id)` order.
//!
//! The sink/driver merge is row selection in both: a sink's output row is
//! its sink-update row and a driver's is its driver-update row, copied. The
//! full pass is this computation with every row a candidate. The unit
//! tests pin all of this down on real designs.
//!
//! Every cached tensor is built and updated inside [`tp_tensor::no_grad`],
//! so none of them pins an autograd tape.
//!
//! Dirty-set expansion is conservative (a recomputed-but-unchanged row
//! simply converges the frontier), and bitwise comparison — `f32::to_bits`,
//! not `==`, so `-0.0`/NaN cannot silently terminate or perpetuate the
//! frontier — decides whether a change propagates further.

use std::collections::BTreeSet;
use std::sync::Arc;

use tp_data::{DesignGraph, PinMove};
use tp_graph::GraphError;
use tp_place::Placement;
use tp_tensor::Tensor;

use crate::netconv::is_driver_row;
use crate::{Prediction, PropPlan, TimingGnn};

/// Work accounting for one [`IncrementalGnn::apply_moves`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Distinct pins moved by the edit.
    pub moved_pins: usize,
    /// Net edges whose geometry features were refreshed.
    pub dirty_net_edges: usize,
    /// Net-embedding rows re-evaluated (summed over the three layers).
    pub recomputed_embed_rows: usize,
    /// Embedding rows whose final bits changed.
    pub changed_embed_rows: usize,
    /// Propagation state rows re-evaluated.
    pub recomputed_state_rows: usize,
    /// Propagation state rows whose bits changed.
    pub changed_state_rows: usize,
    /// Cell-arc delay rows re-evaluated.
    pub recomputed_cell_arcs: usize,
}

impl UpdateStats {
    /// Total rows re-evaluated across all stages — the "work" an
    /// incremental update did, to compare against a full pass.
    pub fn recomputed_total(&self) -> usize {
        self.recomputed_embed_rows + self.recomputed_state_rows + self.recomputed_cell_arcs
    }
}

/// A per-design incremental re-prediction engine.
///
/// Owns the design, its placement and every forward-pass intermediate.
/// Construction runs one full forward; afterwards
/// [`apply_moves`](Self::apply_moves) answers ECO edits by recomputing
/// only the affected cone and [`prediction`](Self::prediction) returns
/// outputs bit-identical to a full re-run.
#[derive(Debug)]
pub struct IncrementalGnn {
    model: Arc<TimingGnn>,
    design: DesignGraph,
    placement: Placement,
    plan: PropPlan,
    /// pin -> (level, row within level block)
    coord: Vec<(usize, usize)>,
    /// Net edges entering each pin (it is the sink), ascending edge id.
    net_in: Vec<Vec<usize>>,
    /// Net edges leaving each pin (it is the driver), ascending edge id.
    net_out: Vec<Vec<usize>>,
    /// Cell arcs leaving each pin.
    cell_out: Vec<Vec<usize>>,
    /// eid -> row within `plan.cell_edge_order`.
    cell_order_pos: Vec<usize>,
    /// Net-embedding layer outputs `h₁..h₃`, each `[N × embed_dim]`
    /// (none under the `no_net_embedding` ablation).
    embed_h: Vec<Tensor>,
    /// Pre-mask sink updates per layer, `[N × embed_dim]`.
    embed_su: Vec<Tensor>,
    /// The propagation stage's embedding input: `h₃` itself (same
    /// storage), or zeros under the `no_net_embedding` ablation.
    embedding: Tensor,
    /// Init projection `[N × prop_dim]`.
    x0: Tensor,
    /// Per-level state blocks, all resident.
    blocks: Vec<Tensor>,
    /// Arrival‖slew head output `[N × 8]`.
    atslew: Tensor,
    /// Net-delay head output `[N × 4]`.
    net_delay: Tensor,
    /// Cell-delay head output `[E꜀ × 4]`, rows in `cell_edge_order`.
    cell_delay: Tensor,
}

/// `v[i]` for every `i` in `idx`.
fn pick(v: &[usize], idx: &[usize]) -> Vec<usize> {
    idx.iter().map(|&i| v[i]).collect()
}

/// The edges `adj` lists for `pins`, pin by pin, with the position of each
/// edge's pin in `pins` — the destination rows of a per-pin fold.
fn edges_of(pins: &[usize], adj: &[Vec<usize>]) -> (Vec<usize>, Vec<usize>) {
    let mut edges = Vec::new();
    let mut rows = Vec::new();
    for (i, &p) in pins.iter().enumerate() {
        edges.extend_from_slice(&adj[p]);
        rows.resize(edges.len(), i);
    }
    (edges, rows)
}

/// Overwrites row `rows[i]` of `cache` with row `i` of `fresh`; returns the
/// rows whose bits changed, in `rows` order.
fn write_rows(cache: &Tensor, rows: &[usize], fresh: &Tensor) -> Vec<usize> {
    let d = fresh.shape()[1];
    let src = fresh.data();
    let mut dst = cache.data_mut();
    let mut changed = Vec::new();
    for (i, &r) in rows.iter().enumerate() {
        let new = &src[i * d..(i + 1) * d];
        let old = &mut dst[r * d..(r + 1) * d];
        if old.iter().zip(new).any(|(a, b)| a.to_bits() != b.to_bits()) {
            old.copy_from_slice(new);
            changed.push(r);
        }
    }
    changed
}

impl IncrementalGnn {
    /// Runs one full forward pass and caches every intermediate.
    ///
    /// `design` and `placement` must describe the same circuit (the same
    /// pin arena); the engine takes ownership so the caches can never
    /// drift from the features they were computed from.
    pub fn new(model: Arc<TimingGnn>, design: DesignGraph, placement: Placement) -> IncrementalGnn {
        let plan = PropPlan::build(&design);
        IncrementalGnn::with_plan(model, design, placement, plan)
    }

    /// Like [`IncrementalGnn::new`] but reusing an already-levelized
    /// `plan` for the same design (the serving registry caches plans per
    /// content hash; a stale or mismatched plan is a logic error).
    pub fn with_plan(
        model: Arc<TimingGnn>,
        design: DesignGraph,
        placement: Placement,
        plan: PropPlan,
    ) -> IncrementalGnn {
        let n = design.num_pins;
        let mut coord = vec![(usize::MAX, usize::MAX); n];
        for (l, pins) in design.levels.iter().enumerate() {
            for (r, &p) in pins.iter().enumerate() {
                coord[p] = (l, r);
            }
        }
        let mut net_in: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut net_out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (eid, (&s, &d)) in design.net_src.iter().zip(&design.net_dst).enumerate() {
            net_out[s].push(eid);
            net_in[d].push(eid);
        }
        let mut cell_out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (eid, &s) in design.cell_src.iter().enumerate() {
            cell_out[s].push(eid);
        }
        let mut cell_order_pos = vec![usize::MAX; design.num_cell_edges()];
        for (pos, &eid) in plan.cell_edge_order.iter().enumerate() {
            cell_order_pos[eid] = pos;
        }

        let (mut embed_h, mut embed_su) = (Vec::new(), Vec::new());
        let (embedding, net_delay, out, trace) = tp_tensor::no_grad(|| {
            let embedding = model.embedding(&design, |h, su| {
                embed_h.push(h.clone());
                embed_su.push(su.clone());
            });
            let net_delay = model.net_embed().net_delay(&embedding);
            let (out, trace) = model
                .propagation()
                .forward_traced(&design, &plan, &embedding);
            (embedding, net_delay, out, trace)
        });

        IncrementalGnn {
            model,
            design,
            placement,
            plan,
            coord,
            net_in,
            net_out,
            cell_out,
            cell_order_pos,
            embed_h,
            embed_su,
            embedding,
            x0: trace.x0,
            blocks: trace.blocks,
            atslew: out.atslew,
            net_delay,
            cell_delay: out.cell_delay,
        }
    }

    /// The design the engine predicts for (features reflect all applied
    /// moves; labels keep describing the original flow).
    pub fn design(&self) -> &DesignGraph {
        &self.design
    }

    /// The current placement (reflects all applied moves).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The propagation schedule.
    pub fn plan(&self) -> &PropPlan {
        &self.plan
    }

    /// The model snapshot predictions are computed with.
    pub fn model(&self) -> &Arc<TimingGnn> {
        &self.model
    }

    /// Current model outputs, bit-identical to
    /// `model.forward(design, plan)` over the edited design. The returned
    /// tensors are copies: later edits do not change them.
    pub fn prediction(&self) -> Prediction {
        Prediction {
            arrival: self.atslew.narrow_cols(0, 4),
            slew: self.atslew.narrow_cols(4, 4),
            net_delay: self.net_delay.detach(),
            cell_delay: self.cell_delay.detach(),
        }
    }

    /// Applies ECO pin moves and incrementally re-predicts the affected
    /// cone. Returns work accounting; on error nothing is modified.
    ///
    /// # Errors
    ///
    /// The same validation errors as [`DesignGraph::apply_moves`].
    pub fn apply_moves(&mut self, moves: &[PinMove]) -> Result<UpdateStats, GraphError> {
        let dirty = self.design.apply_moves(&mut self.placement, moves)?;
        let _span = tp_obs::span!(
            "incremental_update",
            pins = dirty.pins.len(),
            edges = dirty.net_edges.len()
        );
        let mut stats = UpdateStats {
            moved_pins: dirty.pins.len(),
            dirty_net_edges: dirty.net_edges.len(),
            ..UpdateStats::default()
        };
        tp_tensor::no_grad(|| {
            let emb_changed = if self.model.config().ablation.no_net_embedding {
                Vec::new()
            } else {
                self.update_embedding(&dirty.pins, &dirty.net_edges, &mut stats)
            };
            if !emb_changed.is_empty() {
                // Net-delay head is row-wise over the embedding.
                let rows = self.embedding.gather_rows(&emb_changed);
                let fresh = self.model.net_embed().net_delay(&rows);
                write_rows(&self.net_delay, &emb_changed, &fresh);
            }
            self.update_propagation(&dirty.pins, &emb_changed, &dirty.net_edges, &mut stats);
        });
        tp_obs::metrics::count("gnn.incremental.updates", 1);
        tp_obs::metrics::count(
            "gnn.incremental.recomputed_rows",
            stats.recomputed_total() as u64,
        );
        Ok(stats)
    }

    /// Incrementally re-runs the `NetConv` layers; returns the pins whose
    /// final embedding changed.
    fn update_embedding(
        &self,
        moved: &[usize],
        dirty_ef: &[usize],
        stats: &mut UpdateStats,
    ) -> Vec<usize> {
        let design = &self.design;
        let nef = &design.net_edge_features;
        let mut dirty_h: Vec<usize> = moved.to_vec();

        for (l, layer) in self.model.net_embed().layers.iter().enumerate() {
            let h = if l == 0 {
                &design.pin_features
            } else {
                &self.embed_h[l - 1]
            };
            let (sink_update, out) = (&self.embed_su[l], &self.embed_h[l]);

            // -- candidate sinks: self, driver or edge feature dirty --
            let mut cand_sinks: BTreeSet<usize> = BTreeSet::new();
            for &p in &dirty_h {
                if !self.net_in[p].is_empty() {
                    cand_sinks.insert(p);
                }
                cand_sinks.extend(self.net_out[p].iter().map(|&e| design.net_dst[e]));
            }
            cand_sinks.extend(dirty_ef.iter().map(|&e| design.net_dst[e]));
            let cand_sinks: Vec<usize> = cand_sinks.into_iter().collect();

            let mut changed_su: Vec<usize> = Vec::new();
            if !cand_sinks.is_empty() {
                let (edges, dest) = edges_of(&cand_sinks, &self.net_in);
                let fresh = layer.sink_update(
                    &h.gather_rows(&pick(&design.net_src, &edges)),
                    &h.gather_rows(&pick(&design.net_dst, &edges)),
                    &nef.gather_rows(&edges),
                    &dest,
                    cand_sinks.len(),
                );
                changed_su = write_rows(sink_update, &cand_sinks, &fresh);
            }

            // -- candidate drivers: self, any changed sink update, or
            // edge feature dirty --
            let mut cand_drv: BTreeSet<usize> = dirty_h
                .iter()
                .copied()
                .filter(|&p| is_driver_row(design, p))
                .collect();
            for &s in &changed_su {
                cand_drv.extend(self.net_in[s].iter().map(|&e| design.net_src[e]));
            }
            cand_drv.extend(dirty_ef.iter().map(|&e| design.net_src[e]));
            let cand_drv: Vec<usize> = cand_drv.into_iter().collect();

            let mut changed_drv: Vec<usize> = Vec::new();
            if !cand_drv.is_empty() {
                let (edges, seg) = edges_of(&cand_drv, &self.net_out);
                let fresh = layer.driver_update(
                    &h.gather_rows(&cand_drv),
                    &h.gather_rows(&pick(&design.net_src, &edges)),
                    &sink_update.gather_rows(&pick(&design.net_dst, &edges)),
                    &nef.gather_rows(&edges),
                    &seg,
                );
                changed_drv = write_rows(out, &cand_drv, &fresh);
            }

            // The merge: a sink's output row is its sink-update row.
            write_rows(out, &changed_su, &sink_update.gather_rows(&changed_su));

            stats.recomputed_embed_rows += cand_sinks.len() + cand_drv.len();
            let mut next: Vec<usize> = changed_su;
            next.extend_from_slice(&changed_drv);
            next.sort_unstable();
            next.dedup();
            dirty_h = next;
        }
        stats.changed_embed_rows = dirty_h.len();
        dirty_h
    }

    /// Incrementally re-runs the levelized propagation and its heads.
    fn update_propagation(
        &self,
        moved: &[usize],
        emb_changed: &[usize],
        dirty_net_edges: &[usize],
        stats: &mut UpdateStats,
    ) {
        let prop = self.model.propagation();
        let design = &self.design;

        // -- init projection rows --
        let mut x0_rows: BTreeSet<usize> = moved.iter().copied().collect();
        x0_rows.extend(emb_changed.iter().copied());
        let x0_rows: Vec<usize> = x0_rows.into_iter().collect();
        let fresh = prop.init_states(
            &design.pin_features.gather_rows(&x0_rows),
            &self.embedding.gather_rows(&x0_rows),
        );
        let changed_x0 = write_rows(&self.x0, &x0_rows, &fresh);

        // -- dirty frontier per level --
        let num_levels = self.plan.num_levels();
        let mut dirty: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); num_levels];
        for &p in &changed_x0 {
            let (l, r) = self.coord[p];
            dirty[l].insert(r);
        }
        for &e in dirty_net_edges {
            let (dl, dr) = self.coord[design.net_dst[e]];
            dirty[dl].insert(dr);
        }

        // Changed rows per level, ascending; the heads re-run on them.
        let mut changed: Vec<Vec<usize>> = vec![Vec::new(); num_levels];
        let (mut state_rows, mut state_pins) = (Vec::new(), Vec::new());
        let (mut arc_msgs, mut arc_pos) = (Vec::new(), Vec::new());
        for l in 0..num_levels {
            if dirty[l].is_empty() {
                continue;
            }
            let rows: Vec<usize> = dirty[l].iter().copied().collect();
            stats.recomputed_state_rows += rows.len();
            let sub = self.plan.levels[l].restrict(&rows);
            let (fresh, msgs) = prop.compute_level(design, &sub, l, &self.x0, &self.blocks);
            let block = &self.blocks[l];
            changed[l] = write_rows(block, &rows, &fresh);
            stats.changed_state_rows += changed[l].len();

            // Arc messages depend on the source state only, so the
            // cell-delay head re-runs on arcs whose source row changed.
            if let Some(msgs) = msgs {
                let mut sel = Vec::new();
                let mut row = 0;
                for g in &sub.cell_groups {
                    for (sr, &eid) in g.src_rows.iter().zip(&g.edge_ids) {
                        if changed[g.src_level].binary_search(sr).is_ok() {
                            sel.push(row);
                            arc_pos.push(self.cell_order_pos[eid]);
                        }
                        row += 1;
                    }
                }
                arc_msgs.push(msgs.gather_rows(&sel));
            }

            state_rows.push(block.gather_rows(&changed[l]));
            for &r in &changed[l] {
                let p = self.plan.levels[l].pins[r];
                state_pins.push(p);
                for &e in &self.net_out[p] {
                    let (dl, dr) = self.coord[design.net_dst[e]];
                    dirty[dl].insert(dr);
                }
                for &e in &self.cell_out[p] {
                    let (dl, dr) = self.coord[design.cell_dst[e]];
                    dirty[dl].insert(dr);
                }
            }
        }

        // -- heads, row-wise over the changed states and arc messages --
        if !state_pins.is_empty() {
            let refs: Vec<&Tensor> = state_rows.iter().collect();
            let fresh = prop.atslew_head.forward(&Tensor::concat_rows(&refs));
            write_rows(&self.atslew, &state_pins, &fresh);
        }
        stats.recomputed_cell_arcs = arc_pos.len();
        if !arc_pos.is_empty() {
            let refs: Vec<&Tensor> = arc_msgs.iter().collect();
            let fresh = prop.celld_head.forward(&Tensor::concat_rows(&refs));
            write_rows(&self.cell_delay, &arc_pos, &fresh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ablation, ModelConfig, TimingGnn};
    use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
    use tp_liberty::Library;
    use tp_place::{place_circuit, PlacementConfig};
    use tp_sta::flow::run_full_flow;
    use tp_sta::StaConfig;

    /// Builds a (design, placement) pair. Called twice to get two fully
    /// independent copies — `DesignGraph::clone` shares tensor storage, so
    /// a reference design must be lowered from scratch.
    fn fixture() -> (DesignGraph, Placement) {
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
        let design = DesignGraph::from_flow("usb", true, &circuit, &placement, &lib, &flow, &sta);
        (design, placement)
    }

    fn small_model(ablation: Ablation) -> TimingGnn {
        TimingGnn::new(&ModelConfig {
            embed_dim: 4,
            prop_dim: 6,
            hidden: vec![8],
            seed: 1,
            ablation,
        })
    }

    /// Two rounds of ECO moves, exercising distinct pins and repeat moves.
    fn move_rounds(design: &DesignGraph, placement: &Placement) -> Vec<Vec<PinMove>> {
        let die = *placement.die();
        let n = design.num_pins;
        let (w, h) = (die.width, die.height);
        vec![
            vec![
                PinMove {
                    pin: n / 3,
                    x: 0.25 * w,
                    y: 0.75 * h,
                },
                PinMove {
                    pin: n / 2,
                    x: 0.60 * w,
                    y: 0.10 * h,
                },
                PinMove {
                    pin: 1,
                    x: 0.05 * w,
                    y: 0.95 * h,
                },
            ],
            vec![
                PinMove {
                    pin: n / 2,
                    x: 0.33 * w,
                    y: 0.44 * h,
                },
                PinMove {
                    pin: n - 2,
                    x: 0.80 * w,
                    y: 0.20 * h,
                },
            ],
        ]
    }

    fn bits(pred: &Prediction) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for t in [&pred.arrival, &pred.slew, &pred.net_delay, &pred.cell_delay] {
            out.extend(t.to_vec().iter().map(|v| v.to_bits()));
        }
        out
    }

    fn assert_matches_full(ablation: Ablation) {
        let model = Arc::new(small_model(ablation));
        let (d1, p1) = fixture();
        let (mut d2, mut p2) = fixture();
        let rounds = move_rounds(&d1, &p1);
        let mut inc = IncrementalGnn::new(Arc::clone(&model), d1, p1);
        let plan2 = PropPlan::build(&d2);
        // Before any edit the caches reproduce the initial forward.
        assert_eq!(
            bits(&inc.prediction()),
            bits(&model.forward(&d2, &plan2)),
            "initial caches must equal a fresh forward"
        );
        for moves in &rounds {
            let stats = inc.apply_moves(moves).expect("valid moves");
            assert_eq!(stats.moved_pins, moves.len());
            d2.apply_moves(&mut p2, moves).expect("valid moves");
            let full = model.forward(&d2, &plan2);
            assert_eq!(
                bits(&inc.prediction()),
                bits(&full),
                "incremental must be bit-identical to a full re-prediction"
            );
        }
    }

    #[test]
    fn incremental_matches_full_forward_bit_identically() {
        assert_matches_full(Ablation::default());
    }

    #[test]
    fn incremental_matches_full_forward_under_ablations() {
        assert_matches_full(Ablation {
            no_max_channel: true,
            ..Default::default()
        });
        assert_matches_full(Ablation {
            no_lut_module: true,
            ..Default::default()
        });
        assert_matches_full(Ablation {
            no_net_embedding: true,
            ..Default::default()
        });
    }

    #[test]
    fn update_is_local() {
        let model = Arc::new(small_model(Ablation::default()));
        let (d, p) = fixture();
        let n = d.num_pins;
        let die = *p.die();
        let mut inc = IncrementalGnn::new(model, d, p);
        let loc = inc.placement().location(tp_graph::PinId::new(7));
        let stats = inc
            .apply_moves(&[PinMove {
                pin: 7,
                x: (loc.x + 0.01 * die.width).min(die.width),
                y: loc.y,
            }])
            .expect("valid move");
        assert!(
            stats.recomputed_state_rows < n,
            "one moved pin must not re-run every state row"
        );
        assert!(
            stats.recomputed_embed_rows < 3 * n,
            "embedding work must stay local"
        );
        assert!(stats.recomputed_total() > 0, "a real move does real work");
    }

    #[test]
    fn noop_move_is_a_fixed_point() {
        let model = Arc::new(small_model(Ablation::default()));
        let (d, p) = fixture();
        let mut inc = IncrementalGnn::new(model, d, p);
        let before = bits(&inc.prediction());
        let loc = inc.placement().location(tp_graph::PinId::new(5));
        let stats = inc
            .apply_moves(&[PinMove {
                pin: 5,
                x: loc.x,
                y: loc.y,
            }])
            .expect("valid move");
        assert_eq!(stats.changed_embed_rows, 0);
        assert_eq!(stats.changed_state_rows, 0);
        assert_eq!(bits(&inc.prediction()), before);
    }

    #[test]
    fn seeded_move_rounds_match_a_fresh_full_forward() {
        use tp_rng::Rng;
        let ablations = [
            Ablation::default(),
            Ablation {
                no_max_channel: true,
                ..Default::default()
            },
            Ablation {
                no_lut_module: true,
                ..Default::default()
            },
            Ablation {
                no_net_embedding: true,
                ..Default::default()
            },
        ];
        tp_rng::prop::check("incremental_matches_full_forward", 16, |rng| {
            let lib = Library::synthetic_sky130(0);
            let spec = &BENCHMARKS[rng.gen_range(0..BENCHMARKS.len())];
            let cfg = GeneratorConfig {
                scale: rng.gen_range(0.01..0.02),
                seed: rng.next_u64(),
                depth: Some(rng.gen_range(4..10)),
            };
            let circuit = generate(spec, &lib, &cfg);
            let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
            let sta = StaConfig::default();
            let flow = run_full_flow(&circuit, &placement, &lib, &sta);
            let design =
                DesignGraph::from_flow(spec.name, true, &circuit, &placement, &lib, &flow, &sta);
            let model = Arc::new(TimingGnn::new(&ModelConfig {
                embed_dim: 4,
                prop_dim: 6,
                hidden: vec![8],
                seed: rng.next_u64(),
                ablation: ablations[rng.gen_range(0..ablations.len())],
            }));
            let n = design.num_pins;
            let die = *placement.die();
            let mut inc = IncrementalGnn::new(Arc::clone(&model), design, placement);
            for _ in 0..rng.gen_range(1..4) {
                let mut moves: Vec<PinMove> = Vec::new();
                for _ in 0..rng.gen_range(1..7) {
                    let pin = if !moves.is_empty() && rng.gen_bool(0.3) {
                        moves[rng.gen_range(0..moves.len())].pin // repeated pin
                    } else {
                        rng.gen_range(0..n)
                    };
                    let (x, y) = match rng.gen_range(0..4) {
                        0 => {
                            let loc = inc.placement().location(tp_graph::PinId::new(pin));
                            (loc.x, loc.y) // no-op
                        }
                        1 => (
                            if rng.gen_bool(0.5) { 0.0 } else { die.width },
                            if rng.gen_bool(0.5) { 0.0 } else { die.height },
                        ),
                        _ => (
                            rng.gen_range(0.0..die.width),
                            rng.gen_range(0.0..die.height),
                        ),
                    };
                    moves.push(PinMove { pin, x, y });
                }
                inc.apply_moves(&moves)
                    .expect("in-range finite moves are valid");
                let full = model.forward(inc.design(), inc.plan());
                assert_eq!(
                    bits(&inc.prediction()),
                    bits(&full),
                    "{}: incremental must be bit-identical to a full forward after {moves:?}",
                    spec.name
                );
            }
        });
    }

    #[test]
    fn cached_tensors_hold_no_autograd_tape() {
        let model = Arc::new(small_model(Ablation::default()));
        let (d, p) = fixture();
        let rounds = move_rounds(&d, &p);
        assert!(tp_tensor::grad_enabled(), "the check needs the tape on");
        let mut inc = IncrementalGnn::new(model, d, p);
        let assert_no_tape = |inc: &IncrementalGnn| {
            let mut cached: Vec<&Tensor> = inc.embed_h.iter().chain(&inc.embed_su).collect();
            cached.extend(&inc.blocks);
            cached.extend([
                &inc.embedding,
                &inc.x0,
                &inc.atslew,
                &inc.net_delay,
                &inc.cell_delay,
            ]);
            assert!(cached.len() > 5);
            for t in cached {
                assert!(!t.requires_grad(), "a cached tensor pins an autograd tape");
            }
        };
        assert_no_tape(&inc);
        for moves in &rounds {
            inc.apply_moves(moves).expect("valid moves");
            assert_no_tape(&inc);
        }
    }

    #[test]
    fn empty_edit_does_no_work() {
        let model = Arc::new(small_model(Ablation::default()));
        let (d, p) = fixture();
        let mut inc = IncrementalGnn::new(model, d, p);
        let before = bits(&inc.prediction());
        let stats = inc.apply_moves(&[]).expect("an empty edit is valid");
        assert_eq!(stats, UpdateStats::default());
        assert_eq!(bits(&inc.prediction()), before);
    }

    #[test]
    fn rejected_moves_leave_caches_intact() {
        let model = Arc::new(small_model(Ablation::default()));
        let (d, p) = fixture();
        let mut inc = IncrementalGnn::new(model, d, p);
        let before = bits(&inc.prediction());
        let err = inc.apply_moves(&[PinMove {
            pin: 3,
            x: f32::NAN,
            y: 0.0,
        }]);
        assert!(err.is_err());
        assert_eq!(bits(&inc.prediction()), before);
    }
}
