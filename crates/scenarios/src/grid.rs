//! The sweep grid: suite × {clock period, utilization, scale, seed,
//! corner-set}, enumerated in a fixed mixed-radix order.
//!
//! Cell indices are the engine's stable coordinates: the journal records
//! them, `FaultPlan` cell faults key off them, and resume matches them —
//! so the enumeration order is part of the on-disk contract and must
//! never depend on anything but the grid itself.

use std::fmt;

use tp_gen::BenchmarkSpec;
use tp_gnn::checkpoint::fnv1a64;

/// Which STA corners a cell's reported WNS/TNS aggregate over.
///
/// Everything timing-valued in the workspace is a `[f32; 4]` in
/// `EarlyRise, EarlyFall, LateRise, LateFall` order (`tp_liberty::Corner`);
/// a corner set selects the indices whose worst slack the sweep reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CornerSet {
    /// Late (setup) corners only — the paper's headline metric.
    Late,
    /// Early (hold) corners only.
    Early,
    /// All four corners.
    All,
}

impl CornerSet {
    /// All corner sets in encoding order.
    pub const ALL: [CornerSet; 3] = [CornerSet::Late, CornerSet::Early, CornerSet::All];

    /// Stable encoding used by the grid fingerprint and the report.
    pub fn index(self) -> u8 {
        match self {
            CornerSet::Late => 0,
            CornerSet::Early => 1,
            CornerSet::All => 2,
        }
    }

    /// Human-readable label used in the sweep report.
    pub fn label(self) -> &'static str {
        match self {
            CornerSet::Late => "late",
            CornerSet::Early => "early",
            CornerSet::All => "all",
        }
    }

    /// Worst (minimum) slack over the selected corners of one endpoint's
    /// four-corner slack vector.
    pub fn worst_slack(self, slack: [f32; 4]) -> f32 {
        let range: &[usize] = match self {
            CornerSet::Late => &[2, 3],
            CornerSet::Early => &[0, 1],
            CornerSet::All => &[0, 1, 2, 3],
        };
        range
            .iter()
            .map(|&i| slack[i])
            .fold(f32::INFINITY, f32::min)
    }
}

impl fmt::Display for CornerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a grid is not sweepable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A design name is not in the benchmark table (`tp_gen::BENCHMARKS`).
    UnknownDesign(String),
    /// An axis is empty, so the grid has no cells.
    EmptyAxis(&'static str),
    /// An axis holds a non-finite or out-of-range value.
    BadValue {
        /// Axis name.
        axis: &'static str,
        /// Offending value, rendered.
        value: String,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::UnknownDesign(name) => {
                write!(
                    f,
                    "unknown design {name:?}: not in the Table-1 benchmark suite"
                )
            }
            GridError::EmptyAxis(axis) => write!(f, "grid axis {axis:?} is empty"),
            GridError::BadValue { axis, value } => {
                write!(f, "grid axis {axis:?} holds invalid value {value}")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// One grid cell's coordinates — everything an evaluator needs to build
/// and time the scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Stable index in the grid's enumeration order.
    pub cell: u64,
    /// Benchmark name (validated against `tp_gen::BENCHMARKS`).
    pub design: String,
    /// Clock period constraint, ns.
    pub clock_period_ns: f32,
    /// Placement target utilization.
    pub utilization: f32,
    /// Generator size multiplier against the Table-1 targets.
    pub scale: f64,
    /// Generation/placement seed for this cell.
    pub seed: u64,
    /// Corners the reported WNS/TNS aggregate over.
    pub corner_set: CornerSet,
}

/// The full sweep grid: the cartesian product of six axes.
///
/// Enumeration order is design-major with the corner set fastest:
/// `designs × clock_periods_ns × utilizations × scales × seeds ×
/// corner_sets`, nested left to right. [`SweepGrid::cell`] decodes an
/// index back into a [`CellSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Benchmark names to sweep (validated against `tp_gen::BENCHMARKS`).
    pub designs: Vec<String>,
    /// Clock period axis, ns.
    pub clock_periods_ns: Vec<f32>,
    /// Placement utilization axis.
    pub utilizations: Vec<f32>,
    /// Generator scale axis.
    pub scales: Vec<f64>,
    /// Seed axis (generation + placement).
    pub seeds: Vec<u64>,
    /// Corner-set axis.
    pub corner_sets: Vec<CornerSet>,
}

impl SweepGrid {
    /// A single-point grid for `design` with workspace-default knobs —
    /// the starting point examples extend one axis at a time.
    pub fn single(design: &str, scale: f64) -> SweepGrid {
        SweepGrid {
            designs: vec![design.to_string()],
            clock_periods_ns: vec![2.0],
            utilizations: vec![0.7],
            scales: vec![scale],
            seeds: vec![0],
            corner_sets: vec![CornerSet::Late],
        }
    }

    /// Checks every axis: designs must exist in the benchmark table,
    /// no axis may be empty, and numeric axes must be finite and positive
    /// (utilization additionally in `(0, 1]`).
    ///
    /// # Errors
    ///
    /// The first problem found, as a typed [`GridError`].
    pub fn validate(&self) -> Result<(), GridError> {
        for name in &self.designs {
            if BenchmarkSpec::by_name(name).is_none() {
                return Err(GridError::UnknownDesign(name.clone()));
            }
        }
        let axes: [(&'static str, usize); 6] = [
            ("designs", self.designs.len()),
            ("clock_periods_ns", self.clock_periods_ns.len()),
            ("utilizations", self.utilizations.len()),
            ("scales", self.scales.len()),
            ("seeds", self.seeds.len()),
            ("corner_sets", self.corner_sets.len()),
        ];
        for (axis, len) in axes {
            if len == 0 {
                return Err(GridError::EmptyAxis(axis));
            }
        }
        for &p in &self.clock_periods_ns {
            if !p.is_finite() || p <= 0.0 {
                return Err(GridError::BadValue {
                    axis: "clock_periods_ns",
                    value: p.to_string(),
                });
            }
        }
        for &u in &self.utilizations {
            if !u.is_finite() || u <= 0.0 || u > 1.0 {
                return Err(GridError::BadValue {
                    axis: "utilizations",
                    value: u.to_string(),
                });
            }
        }
        for &s in &self.scales {
            if !s.is_finite() || s <= 0.0 {
                return Err(GridError::BadValue {
                    axis: "scales",
                    value: s.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Number of cells (the product of all axis lengths).
    pub fn len(&self) -> u64 {
        self.designs.len() as u64
            * self.clock_periods_ns.len() as u64
            * self.utilizations.len() as u64
            * self.scales.len() as u64
            * self.seeds.len() as u64
            * self.corner_sets.len() as u64
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes cell `index` into its coordinates (mixed-radix, corner set
    /// fastest).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn cell(&self, index: u64) -> CellSpec {
        assert!(index < self.len(), "cell {index} out of range");
        let mut i = index;
        let take = |i: &mut u64, len: usize| -> usize {
            let k = (*i % len as u64) as usize;
            *i /= len as u64;
            k
        };
        let corner = take(&mut i, self.corner_sets.len());
        let seed = take(&mut i, self.seeds.len());
        let scale = take(&mut i, self.scales.len());
        let util = take(&mut i, self.utilizations.len());
        let period = take(&mut i, self.clock_periods_ns.len());
        let design = i as usize;
        CellSpec {
            cell: index,
            design: self.designs[design].clone(),
            clock_period_ns: self.clock_periods_ns[period],
            utilization: self.utilizations[util],
            scale: self.scales[scale],
            seed: self.seeds[seed],
            corner_set: self.corner_sets[corner],
        }
    }

    /// All cells in enumeration order.
    pub fn cells(&self) -> impl Iterator<Item = CellSpec> + '_ {
        (0..self.len()).map(|i| self.cell(i))
    }

    /// FNV-1a fingerprint of the grid plus the sweep's root seed — the
    /// identity the journal header carries so a journal can never be
    /// resumed against a different sweep.
    pub fn fingerprint(&self, root_seed: u64) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&root_seed.to_le_bytes());
        bytes.extend_from_slice(&(self.designs.len() as u64).to_le_bytes());
        for name in &self.designs {
            bytes.extend_from_slice(&(name.len() as u64).to_le_bytes());
            bytes.extend_from_slice(name.as_bytes());
        }
        for &p in &self.clock_periods_ns {
            bytes.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        for &u in &self.utilizations {
            bytes.extend_from_slice(&u.to_bits().to_le_bytes());
        }
        for &s in &self.scales {
            bytes.extend_from_slice(&s.to_bits().to_le_bytes());
        }
        for &s in &self.seeds {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
        for &c in &self.corner_sets {
            bytes.push(c.index());
        }
        fnv1a64(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SweepGrid {
        SweepGrid {
            designs: vec!["usb".into(), "spm".into()],
            clock_periods_ns: vec![1.5, 2.0],
            utilizations: vec![0.6, 0.8],
            scales: vec![0.002],
            seeds: vec![0, 1, 2],
            corner_sets: vec![CornerSet::Late, CornerSet::All],
        }
    }

    #[test]
    fn enumeration_covers_every_combination_once() {
        let g = grid();
        assert_eq!(g.len(), 2 * 2 * 2 * 3 * 2);
        let cells: Vec<CellSpec> = g.cells().collect();
        assert_eq!(cells.len() as u64, g.len());
        // Indices round-trip and the corner axis is fastest.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.cell, i as u64);
            assert_eq!(&g.cell(i as u64), c);
        }
        assert_eq!(cells[0].corner_set, CornerSet::Late);
        assert_eq!(cells[1].corner_set, CornerSet::All);
        assert_eq!(cells[1].design, cells[0].design);
        // Design is the slowest axis: the second half is the second design.
        assert_eq!(cells[0].design, "usb");
        assert_eq!(cells[cells.len() / 2].design, "spm");
        // No duplicates.
        for a in 0..cells.len() {
            for b in (a + 1)..cells.len() {
                assert_ne!(cells[a], cells[b]);
            }
        }
    }

    #[test]
    fn validate_catches_each_failure_mode() {
        assert_eq!(grid().validate(), Ok(()));
        let mut bad = grid();
        bad.designs.push("not_a_design".into());
        assert_eq!(
            bad.validate(),
            Err(GridError::UnknownDesign("not_a_design".into()))
        );
        let mut empty = grid();
        empty.seeds.clear();
        assert_eq!(empty.validate(), Err(GridError::EmptyAxis("seeds")));
        let mut nan = grid();
        nan.clock_periods_ns.push(f32::NAN);
        assert!(matches!(
            nan.validate(),
            Err(GridError::BadValue {
                axis: "clock_periods_ns",
                ..
            })
        ));
        let mut util = grid();
        util.utilizations.push(1.5);
        assert!(matches!(
            util.validate(),
            Err(GridError::BadValue {
                axis: "utilizations",
                ..
            })
        ));
        let mut scale = grid();
        scale.scales.push(0.0);
        assert!(matches!(
            scale.validate(),
            Err(GridError::BadValue { axis: "scales", .. })
        ));
    }

    #[test]
    fn fingerprint_tracks_grid_and_seed() {
        let g = grid();
        assert_eq!(g.fingerprint(42), g.fingerprint(42));
        assert_ne!(g.fingerprint(42), g.fingerprint(43));
        let mut other = grid();
        other.seeds.push(9);
        assert_ne!(g.fingerprint(42), other.fingerprint(42));
        let mut renamed = grid();
        renamed.designs[0] = "xtea".into();
        assert_ne!(g.fingerprint(42), renamed.fingerprint(42));
    }

    #[test]
    fn corner_sets_select_their_slacks() {
        let slack = [0.5, -0.25, 1.0, -0.75];
        assert_eq!(CornerSet::Late.worst_slack(slack), -0.75);
        assert_eq!(CornerSet::Early.worst_slack(slack), -0.25);
        assert_eq!(CornerSet::All.worst_slack(slack), -0.75);
        assert_eq!(CornerSet::Late.label(), "late");
        assert_eq!(CornerSet::All.index(), 2);
    }
}
