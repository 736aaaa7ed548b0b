//! Per-design sessions: an incremental engine pinned to one snapshot.
//!
//! A session answers predict/slack/move_pins for one registered design.
//! It pins the snapshot version its caches were computed with; when the
//! store has moved on (hot-swap) or the session was tainted (a handler
//! panicked while holding it), the next request transparently rebuilds
//! the engine against the current snapshot — the ECO edit history is
//! preserved because the design and placement carry the applied moves.

use std::sync::Arc;

use tp_data::{DesignGraph, PinMove};
use tp_gnn::{IncrementalGnn, Prediction, PropPlan, UpdateStats};
use tp_graph::GraphError;
use tp_place::Placement;

use crate::snapshot::ModelSnapshot;

/// One design's serving state.
#[derive(Debug)]
pub struct DesignSession {
    name: String,
    inc: IncrementalGnn,
    snapshot_version: u64,
    tainted: bool,
}

impl DesignSession {
    /// Builds the session (runs one full forward pass).
    pub fn new(
        name: &str,
        snapshot: &ModelSnapshot,
        design: DesignGraph,
        placement: Placement,
    ) -> DesignSession {
        DesignSession {
            name: name.to_string(),
            inc: IncrementalGnn::new(Arc::clone(&snapshot.model), design, placement),
            snapshot_version: snapshot.version,
            tainted: false,
        }
    }

    /// Builds the session from a pre-levelized plan (the registry caches
    /// `DesignGraph` + `PropPlan` per content hash, so wire registrations
    /// skip the plan rebuild). Still runs one full forward pass.
    pub fn with_plan(
        name: &str,
        snapshot: &ModelSnapshot,
        design: DesignGraph,
        placement: Placement,
        plan: PropPlan,
    ) -> DesignSession {
        DesignSession {
            name: name.to_string(),
            inc: IncrementalGnn::with_plan(Arc::clone(&snapshot.model), design, placement, plan),
            snapshot_version: snapshot.version,
            tainted: false,
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The snapshot version the caches were computed with.
    pub fn snapshot_version(&self) -> u64 {
        self.snapshot_version
    }

    /// Marks the session for rebuild (a handler panicked while using it,
    /// so its caches can no longer be trusted).
    pub fn taint(&mut self) {
        self.tainted = true;
    }

    /// Whether the next request will rebuild against `snapshot`.
    pub fn needs_rebuild(&self, snapshot: &ModelSnapshot) -> bool {
        self.tainted || self.snapshot_version != snapshot.version
    }

    /// Rebuilds against `snapshot` if hot-swapped past or tainted.
    /// Applied ECO moves survive: the design/placement the old engine
    /// carried seed the new one.
    pub fn ensure_current(&mut self, snapshot: &ModelSnapshot) {
        if !self.needs_rebuild(snapshot) {
            return;
        }
        // DesignGraph::clone shares tensor storage; that is sound here
        // because the old engine is dropped in the same assignment. The
        // plan depends only on design topology, which ECO moves never
        // change, so the rebuild reuses it instead of re-levelizing.
        let design = self.inc.design().clone();
        let placement = self.inc.placement().clone();
        let plan = self.inc.plan().clone();
        self.inc = IncrementalGnn::with_plan(Arc::clone(&snapshot.model), design, placement, plan);
        self.snapshot_version = snapshot.version;
        self.tainted = false;
        tp_obs::metrics::count("serve.session_rebuilds", 1);
    }

    /// The design being served.
    pub fn design(&self) -> &DesignGraph {
        self.inc.design()
    }

    /// Current prediction (bit-identical to a full forward).
    pub fn prediction(&self) -> Prediction {
        self.inc.prediction()
    }

    /// Applies ECO moves incrementally.
    ///
    /// # Errors
    ///
    /// Propagates `DesignGraph::apply_moves` validation errors; the
    /// session stays consistent (nothing was mutated).
    pub fn apply_moves(&mut self, moves: &[PinMove]) -> Result<UpdateStats, GraphError> {
        self.inc.apply_moves(moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotStore;
    use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
    use tp_gnn::{ModelConfig, TimingGnn};
    use tp_liberty::Library;
    use tp_place::{place_circuit, PlacementConfig};
    use tp_sta::flow::run_full_flow;
    use tp_sta::StaConfig;

    fn fixture() -> (DesignGraph, Placement) {
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
        let design = DesignGraph::from_flow("spm", false, &circuit, &placement, &lib, &flow, &sta);
        (design, placement)
    }

    fn small_config() -> ModelConfig {
        ModelConfig {
            embed_dim: 4,
            prop_dim: 6,
            hidden: vec![8],
            seed: 1,
            ablation: Default::default(),
        }
    }

    #[test]
    fn rebuild_preserves_eco_edits_and_tracks_snapshot() {
        let cfg = small_config();
        let store = SnapshotStore::new(cfg.clone(), TimingGnn::new(&cfg), "seed").expect("boot");
        let (design, placement) = fixture();
        let die = *placement.die();
        let mut session = DesignSession::new("spm", &store.current(), design, placement);
        session
            .apply_moves(&[PinMove {
                pin: 2,
                x: die.width * 0.4,
                y: die.height * 0.6,
            }])
            .expect("valid move");
        let before = session.prediction().arrival.to_vec();
        assert!(!session.needs_rebuild(&store.current()));

        // Same snapshot + taint → rebuild reproduces identical predictions
        // because the moved design/placement seed the new engine.
        session.taint();
        assert!(session.needs_rebuild(&store.current()));
        session.ensure_current(&store.current());
        assert_eq!(session.prediction().arrival.to_vec(), before);
        assert!(!session.needs_rebuild(&store.current()));

        // Hot swap to different weights → rebuild changes the prediction.
        let mut blob = Vec::new();
        let trained = TimingGnn::new(&ModelConfig { seed: 77, ..cfg });
        tp_nn::save_parameters(&tp_nn::Module::parameters(&trained), &mut blob).expect("ser");
        let ckpt = tp_gnn::Checkpoint {
            epoch: 1,
            step: 1,
            lr: 1e-3,
            rng_state: [0; 5],
            model: blob,
            optimizer: tp_nn::optim::AdamState {
                m: Vec::new(),
                v: Vec::new(),
                t: 0,
            },
        };
        let dir = std::env::temp_dir().join(format!("tp_serve_session_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = tp_gnn::checkpoint::checkpoint_path(&dir, 1);
        ckpt.write_atomic(&path).expect("write");
        store.load_checkpoint(&path).expect("valid");
        assert!(session.needs_rebuild(&store.current()));
        session.ensure_current(&store.current());
        assert_eq!(session.snapshot_version(), 2);
        assert_ne!(session.prediction().arrival.to_vec(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
