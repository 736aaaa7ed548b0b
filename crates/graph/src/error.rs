use std::fmt;

use crate::PinId;

/// Errors raised while assembling a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A net's driver pin is not a driving pin (cell output or primary
    /// input).
    InvalidDriver(PinId),
    /// A net sink is not a sinking pin (cell input or primary output).
    InvalidSink(PinId),
    /// A pin was connected to more than one net.
    PinAlreadyConnected(PinId),
    /// A net was created with no sinks.
    EmptyNet(PinId),
    /// The finished graph contains a combinational cycle through this pin.
    CombinationalCycle(PinId),
    /// A pin was left unconnected at `finish()` time (dangling input).
    DanglingPin(PinId),
    /// A pin's placement coordinate is NaN or infinite; training on it
    /// would silently poison every loss the pin's cone touches.
    NonFiniteCoordinate(PinId),
    /// A cell arc's NLDM lookup table carries a NaN/infinite index or
    /// value at the given cell-edge index.
    NonFiniteLut {
        /// Arena index of the offending cell edge (timing arc).
        cell_edge: usize,
    },
    /// The design exposes no timing endpoints, so no slack label (or
    /// prediction target) exists.
    EmptyEndpoints,
    /// A pin id does not belong to this builder (out of range) — e.g. a
    /// `PinId` from a different builder passed to `connect`.
    UnknownPin(PinId),
    /// The levelized topology is deeper than the propagation engine
    /// supports.
    LevelOverflow {
        /// Number of topological levels found.
        levels: usize,
        /// The supported maximum.
        max: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidDriver(p) => write!(f, "pin {p} cannot drive a net"),
            GraphError::InvalidSink(p) => write!(f, "pin {p} cannot sink a net"),
            GraphError::PinAlreadyConnected(p) => {
                write!(f, "pin {p} is already connected to a net")
            }
            GraphError::EmptyNet(p) => write!(f, "net driven by {p} has no sinks"),
            GraphError::CombinationalCycle(p) => {
                write!(f, "combinational cycle detected through pin {p}")
            }
            GraphError::DanglingPin(p) => write!(f, "pin {p} was never connected"),
            GraphError::NonFiniteCoordinate(p) => {
                write!(f, "pin {p} has a non-finite placement coordinate")
            }
            GraphError::NonFiniteLut { cell_edge } => {
                write!(f, "cell edge {cell_edge} has a non-finite NLDM table entry")
            }
            GraphError::EmptyEndpoints => write!(f, "design has no timing endpoints"),
            GraphError::UnknownPin(p) => {
                write!(f, "pin {p} does not belong to this builder")
            }
            GraphError::LevelOverflow { levels, max } => {
                write!(
                    f,
                    "design has {levels} topological levels, maximum is {max}"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}
