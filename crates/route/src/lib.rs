//! Rectilinear Steiner routing and Elmore RC delay — the "router" whose
//! post-routing behaviour the net-embedding model learns.
//!
//! For every net the crate builds a routing tree over the placed pins
//! (Prim's MST under Manhattan distance followed by Steiner-point
//! refinement near pin clusters, as sketched in the paper's Sec. 3.1),
//! converts it to an RC tree with per-unit wire parasitics, and evaluates
//! the **Elmore delay** from the driver to every sink together with the
//! total capacitive load presented to the driving cell and a PERI-style
//! slew degradation estimate.
//!
//! These quantities are precisely the "net delay", "net load" and net slew
//! inputs a timing engine consumes before levelized propagation, and they
//! are the ground-truth labels for the paper's auxiliary net-delay task
//! (Eq. 6).
//!
//! # Example
//!
//! ```
//! use tp_graph::CircuitBuilder;
//! use tp_liberty::Library;
//! use tp_place::{place_circuit, PlacementConfig};
//! use tp_route::{route_circuit, RoutingConfig};
//!
//! # fn main() -> Result<(), tp_graph::GraphError> {
//! let lib = Library::synthetic_sky130(1);
//! let mut b = CircuitBuilder::new("t");
//! let a = b.add_primary_input("a");
//! let (_, ins, out) = b.add_cell("u0", lib.type_id("INV_X1").unwrap(), 1);
//! let z = b.add_primary_output("z");
//! b.connect(a, &[ins[0]])?;
//! b.connect(out, &[z])?;
//! let circuit = b.finish()?;
//! let placement = place_circuit(&circuit, &PlacementConfig::default(), 1);
//! let routing = route_circuit(&circuit, &placement, &lib, &RoutingConfig::default());
//! assert_eq!(routing.nets().len(), circuit.num_nets());
//! # Ok(())
//! # }
//! ```

mod elmore;
mod rc_tree;
mod steiner;

pub use elmore::{route_circuit, RoutedNet, Routing, RoutingConfig};
pub use rc_tree::RcTree;
pub use steiner::{steiner_tree, SteinerTree};
