//! Four-corner levelized static timing analysis.
//!
//! This crate is the reproduction's stand-in for the OpenROAD timer: it
//! produces the ground-truth labels (arrival time, slew, required time,
//! slack, per-edge delays) that the GNN is trained against, using exactly
//! the computation flow the paper describes in Sec. 3.1:
//!
//! 1. **Net annotation** — Elmore delays and total loads come from
//!    [`tp_route`];
//! 2. **Levelized propagation** — pins are processed level by level
//!    ([`tp_graph::Topology`]); arrival time and slew advance across net
//!    edges (wire delay + PERI slew degradation) and across cell edges
//!    (NLDM LUT interpolation of delay and output slew against input slew
//!    and output load), with late corners max-reduced and early corners
//!    min-reduced over fan-in, and rise/fall swapped through inverting
//!    arcs;
//! 3. **Required times** — propagated backwards from endpoint constraints
//!    (clock period minus setup for late, hold for early), giving slack at
//!    every pin and the WNS/TNS summary.
//!
//! [`flow::run_full_flow`] wraps routing + STA with wall-clock timing and
//! is the baseline against which the paper's Table 5 "speed-up" column is
//! measured.
//!
//! # Example
//!
//! ```
//! use tp_graph::CircuitBuilder;
//! use tp_liberty::Library;
//! use tp_place::{place_circuit, PlacementConfig};
//! use tp_sta::{StaConfig, StaEngine};
//!
//! # fn main() -> Result<(), tp_graph::GraphError> {
//! let lib = Library::synthetic_sky130(0);
//! let mut b = CircuitBuilder::new("t");
//! let a = b.add_primary_input("a");
//! let (_, ins, out) = b.add_cell("u0", lib.type_id("INV_X1").unwrap(), 1);
//! let z = b.add_primary_output("z");
//! b.connect(a, &[ins[0]])?;
//! b.connect(out, &[z])?;
//! let circuit = b.finish()?;
//! let placement = place_circuit(&circuit, &PlacementConfig::default(), 7);
//! let report = StaEngine::new(&lib, StaConfig::default()).run(&circuit, &placement);
//! assert!(report.wns_setup() <= StaConfig::default().clock_period);
//! # Ok(())
//! # }
//! ```

mod config;
mod engine;
pub mod flow;
mod report;

pub use config::StaConfig;
pub use engine::StaEngine;
pub use report::TimingReport;
