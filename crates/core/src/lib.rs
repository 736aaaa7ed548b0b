//! The paper's contribution: a timing-engine-inspired graph neural network
//! that predicts pre-routing arrival time and slack at timing endpoints.
//!
//! The model mirrors a static timing engine's two phases (paper Sec. 3.3):
//!
//! 1. **Net embedding** ([`NetEmbed`]) — three [`NetConv`] layers over the
//!    bidirectional net-edge graph. Each layer performs *graph broadcast*
//!    (driver ‖ sink ‖ edge features → MLP → new sink features) followed by
//!    *graph reduction* (messages from sinks reduced onto the driver through
//!    **sum and max channels**). The final embedding predicts routed net
//!    delays (the standalone Table-4 model) and feeds the propagation stage.
//!
//! 2. **Delay propagation** ([`Propagation`]) — a *levelized* walk of the
//!    timing DAG: pins are updated level by level, **once each**, exactly as
//!    an STA engine propagates arrival times. Net-propagation layers move
//!    state across wires; cell-propagation layers move it across timing
//!    arcs through a learned **LUT-interpolation module** ([`LutModule`]):
//!    two MLPs produce per-axis interpolation coefficient vectors that are
//!    combined by a Kronecker product and dotted against each of the arc's
//!    8 NLDM tables. Because updates follow topological levels, a single
//!    pass covers arbitrarily deep logic — the receptive-field problem that
//!    caps conventional GNNs at a few hops simply does not arise.
//!
//! Training ([`Trainer`]) optimizes the combined objective of Eq. (7):
//! arrival/slew regression (Eq. 4) plus the **auxiliary cell-delay (Eq. 5)
//! and net-delay (Eq. 6) tasks**, with [`AuxMode`] reproducing the paper's
//! Table-5 ablations (Full / w-Cell / w-Net).
//!
//! # Example
//!
//! ```no_run
//! use tp_gnn::{ModelConfig, TimingGnn, Trainer, TrainConfig};
//! use tp_data::{Dataset, DatasetConfig};
//! use tp_liberty::Library;
//!
//! let library = Library::synthetic_sky130(1);
//! let dataset = Dataset::build_suite(&library, &DatasetConfig::default());
//! let model = TimingGnn::new(&ModelConfig::default());
//! let mut trainer = Trainer::new(model, TrainConfig::default());
//! let history = trainer.fit(&dataset);
//! println!("final epoch loss: {}", history.last().unwrap().total);
//! ```

pub mod checkpoint;
pub mod faultinject;
mod incremental;
mod loss;
mod lutmod;
mod model;
mod netconv;
mod parbridge;
mod plan;
mod prop;
mod train;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use faultinject::{CellFault, FaultInjector, FaultPlan, RequestFault};
pub use incremental::{IncrementalGnn, UpdateStats};
pub use loss::{combined_loss, AuxMode, LossParts};
pub use lutmod::LutModule;
pub use model::{Ablation, ModelConfig, Prediction, TimingGnn};
pub use netconv::{NetConv, NetEmbed};
pub use parbridge::install_par_metrics;
pub use plan::{EdgeGroup, LevelPlan, PropPlan};
pub use prop::Propagation;
pub use train::{
    DivergenceCause, DivergenceEvent, EpochStats, EvalReport, FitOptions, TrainConfig, TrainReport,
    Trainer,
};
