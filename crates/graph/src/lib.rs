//! Circuit timing graphs: pins, nets, cells, and the heterogeneous
//! net-edge / cell-edge DAG that both the STA engine and the GNN operate on.
//!
//! The representation follows Sec. 3.2 of the DAC'22 paper: **nodes are
//! pins**, and there are two edge types —
//!
//! - **net edges**, from a net's driver pin to each of its sink pins, and
//! - **cell edges** (timing arcs), from each input pin of a combinational
//!   cell to its output pin.
//!
//! Sequential elements (registers) cut the graph: a register's data pin is a
//! *timing endpoint* and its output pin is a *timing startpoint*, so the
//! combined graph is a DAG. [`Topology`] computes the CSR adjacency and the
//! topological levels used by levelized STA propagation and by the paper's
//! delay-propagation model.
//!
//! # Example
//!
//! ```
//! use tp_graph::CircuitBuilder;
//!
//! # fn main() -> Result<(), tp_graph::GraphError> {
//! let mut b = CircuitBuilder::new("half_adder");
//! let a = b.add_primary_input("a");
//! let c = b.add_primary_input("b");
//! let (_, xor_in, xor_out) = b.add_cell("x1", 0, 2);
//! let sum = b.add_primary_output("sum");
//! b.connect(a, &[xor_in[0]])?;
//! b.connect(c, &[xor_in[1]])?;
//! b.connect(xor_out, &[sum])?;
//! let circuit = b.finish()?;
//! assert_eq!(circuit.num_pins(), 6);
//! assert_eq!(circuit.stats().endpoints, 1);
//! # Ok(())
//! # }
//! ```

mod builder;
mod circuit;
mod error;
mod ids;
pub mod receptive;
mod stats;
mod topology;

pub use builder::CircuitBuilder;
pub use circuit::{CellData, CellEdge, Circuit, NetData, NetEdge, PinData, PinKind};
pub use error::GraphError;
pub use ids::{CellEdgeId, CellId, NetEdgeId, NetId, PinId};
pub use stats::CircuitStats;
pub use topology::{EdgeRef, Topology};
