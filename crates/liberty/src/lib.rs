//! Synthetic NLDM cell library with 7×7 delay/slew lookup tables.
//!
//! Real flows read a liberty (`.lib`) file such as the SkyWater 130 nm
//! library; that data is unavailable here, so this crate *generates* a
//! library with the same structure and smooth, monotone, cell-specific
//! non-linear delay surfaces:
//!
//! - every combinational timing arc carries **8 LUTs** — one delay table and
//!   one output-slew table for each of the four corner combinations
//!   (early/late × rise/fall), exactly the shape the paper's Table 3 feeds
//!   to the model (8 valid flags, 8 × 14 indices, 8 × 49 values);
//! - each LUT is indexed by **input slew × output load** on a 7-point
//!   logarithmic grid and evaluated by bilinear interpolation with clamped
//!   extrapolation, matching NLDM engine semantics.
//!
//! The ground-truth STA engine (`tp-sta`) interpolates these LUTs; the
//! GNN's learned LUT module (`tp-gnn`) must approximate that computation
//! from the raw tables — the same learning problem the paper poses.
//!
//! # Example
//!
//! ```
//! use tp_liberty::{Corner, Library};
//!
//! let lib = Library::synthetic_sky130(42);
//! let inv = lib.cell_by_name("INV_X1").expect("library has an inverter");
//! let arc = &inv.arcs[0];
//! let d = arc.delay(Corner::LateRise).lookup(0.05, 0.004);
//! assert!(d > 0.0);
//! ```

mod corner;
mod generate;
mod library;
mod lut;

pub use corner::Corner;
pub use generate::{LOAD_AXIS, SLEW_AXIS};
pub use library::{CellType, Library, TimingArc};
pub use lut::Lut;

/// Number of index points per LUT axis (NLDM template size).
pub const LUT_AXIS: usize = 7;
