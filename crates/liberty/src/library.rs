use crate::{Corner, Lut};

/// One timing arc of a cell: input pin → output pin, carrying 8 LUTs
/// (delay and output slew for each of the four corners).
#[derive(Debug, Clone)]
pub struct TimingArc {
    delay: [Lut; 4],
    out_slew: [Lut; 4],
    /// Whether the arc logically inverts (an input rise drives an output
    /// fall). Inverting arcs swap rise/fall when propagating.
    pub inverting: bool,
}

impl TimingArc {
    /// Creates an arc from its per-corner delay and output-slew tables.
    pub fn new(delay: [Lut; 4], out_slew: [Lut; 4], inverting: bool) -> TimingArc {
        TimingArc {
            delay,
            out_slew,
            inverting,
        }
    }

    /// The delay LUT for `corner`.
    pub fn delay(&self, corner: Corner) -> &Lut {
        &self.delay[corner.index()]
    }

    /// The output-slew LUT for `corner`.
    pub fn out_slew(&self, corner: Corner) -> &Lut {
        &self.out_slew[corner.index()]
    }

    /// All 8 LUTs in the fixed feature order: delay[ER, EF, LR, LF] then
    /// slew[ER, EF, LR, LF]. This order defines the Table-3 cell-edge
    /// feature layout.
    pub fn luts(&self) -> [&Lut; 8] {
        [
            &self.delay[0],
            &self.delay[1],
            &self.delay[2],
            &self.delay[3],
            &self.out_slew[0],
            &self.out_slew[1],
            &self.out_slew[2],
            &self.out_slew[3],
        ]
    }
}

/// A library cell type.
#[derive(Debug, Clone)]
pub struct CellType {
    /// Liberty-style name, e.g. `NAND2_X1`.
    pub name: String,
    /// Number of input pins.
    pub num_inputs: usize,
    /// Per-input-pin capacitance for each corner (pF), indexed
    /// `input_caps[pin][corner]`.
    pub input_caps: Vec<[f32; 4]>,
    /// Intrinsic driver resistance (kΩ) used by the Elmore net model for
    /// the root node of the RC tree.
    pub drive_resistance: f32,
    /// One timing arc per input pin (empty for registers).
    pub arcs: Vec<TimingArc>,
    /// Whether this is a sequential element.
    pub is_register: bool,
}

impl CellType {
    /// Input capacitance of `pin` at `corner`.
    ///
    /// # Panics
    ///
    /// Panics if `pin >= num_inputs`.
    pub fn input_cap(&self, pin: usize, corner: Corner) -> f32 {
        self.input_caps[pin][corner.index()]
    }
}

/// A complete cell library.
///
/// Index into it with the `type_id` values stored on circuit cells. Create
/// the standard synthetic instance with [`Library::synthetic_sky130`].
#[derive(Debug, Clone)]
pub struct Library {
    pub(crate) cells: Vec<CellType>,
}

impl Library {
    /// The cell type for a circuit `type_id`.
    ///
    /// # Panics
    ///
    /// Panics if `type_id` is out of range.
    pub fn cell(&self, type_id: u32) -> &CellType {
        &self.cells[type_id as usize]
    }

    /// Looks a cell up by name.
    pub fn cell_by_name(&self, name: &str) -> Option<&CellType> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// The `type_id` for a cell name, if present.
    pub fn type_id(&self, name: &str) -> Option<u32> {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .map(|i| i as u32)
    }

    /// Number of cell types.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// All cell types in `type_id` order.
    pub fn cells(&self) -> &[CellType] {
        &self.cells
    }

    /// Ids of all combinational cell types with the given input count.
    pub fn combinational_with_inputs(&self, n: usize) -> Vec<u32> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_register && c.num_inputs == n)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// The id of the register cell type.
    ///
    /// # Panics
    ///
    /// Panics if the library has no register (the synthetic library always
    /// does).
    pub fn register_type(&self) -> u32 {
        self.cells
            .iter()
            .position(|c| c.is_register)
            .expect("library contains a register") as u32
    }
}
