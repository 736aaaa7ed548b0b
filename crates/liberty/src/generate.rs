//! Synthetic library generation.
//!
//! Each arc's LUT values are sampled from a smooth analytic delay surface
//!
//! `d(s, c) = t0 + a·s + r·c + k·sqrt(s·c) + q·s·c`
//!
//! with per-cell base parameters and small per-arc jitter, evaluated at the
//! 7×7 grid. Ground truth STA then *interpolates the tables* (not the
//! analytic form), so the learned LUT module faces exactly the NLDM lookup
//! problem. Early corners scale late delays by ~0.8; fall transitions are
//! slightly faster than rise, mirroring typical standard-cell asymmetry.

use tp_rng::{Rng, StdRng};

use crate::{CellType, Corner, Library, Lut, TimingArc, LUT_AXIS};

/// Slew axis in nanoseconds (geometric spacing).
pub const SLEW_AXIS: [f32; LUT_AXIS] = [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32];
/// Load axis in picofarads (geometric spacing).
pub const LOAD_AXIS: [f32; LUT_AXIS] = [0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032];

/// Base parameters of one synthetic cell family.
struct Proto {
    name: &'static str,
    inputs: usize,
    /// Intrinsic delay, ns.
    t0: f32,
    /// Effective drive resistance, kΩ (appears as ns/pF load slope and as
    /// the Elmore root resistance).
    r_drive: f32,
    /// Input pin capacitance, pF.
    cap: f32,
    inverting: bool,
    is_register: bool,
}

const PROTOS: &[Proto] = &[
    Proto {
        name: "INV_X1",
        inputs: 1,
        t0: 0.015,
        r_drive: 2.0,
        cap: 0.0012,
        inverting: true,
        is_register: false,
    },
    Proto {
        name: "INV_X2",
        inputs: 1,
        t0: 0.012,
        r_drive: 1.0,
        cap: 0.0022,
        inverting: true,
        is_register: false,
    },
    Proto {
        name: "BUF_X1",
        inputs: 1,
        t0: 0.030,
        r_drive: 1.8,
        cap: 0.0011,
        inverting: false,
        is_register: false,
    },
    Proto {
        name: "NAND2_X1",
        inputs: 2,
        t0: 0.020,
        r_drive: 2.2,
        cap: 0.0013,
        inverting: true,
        is_register: false,
    },
    Proto {
        name: "NOR2_X1",
        inputs: 2,
        t0: 0.024,
        r_drive: 2.6,
        cap: 0.0013,
        inverting: true,
        is_register: false,
    },
    Proto {
        name: "AND2_X1",
        inputs: 2,
        t0: 0.035,
        r_drive: 2.0,
        cap: 0.0012,
        inverting: false,
        is_register: false,
    },
    Proto {
        name: "OR2_X1",
        inputs: 2,
        t0: 0.038,
        r_drive: 2.1,
        cap: 0.0012,
        inverting: false,
        is_register: false,
    },
    Proto {
        name: "XOR2_X1",
        inputs: 2,
        t0: 0.045,
        r_drive: 2.4,
        cap: 0.0016,
        inverting: false,
        is_register: false,
    },
    Proto {
        name: "XNOR2_X1",
        inputs: 2,
        t0: 0.047,
        r_drive: 2.4,
        cap: 0.0016,
        inverting: true,
        is_register: false,
    },
    Proto {
        name: "NAND3_X1",
        inputs: 3,
        t0: 0.028,
        r_drive: 2.5,
        cap: 0.0013,
        inverting: true,
        is_register: false,
    },
    Proto {
        name: "NOR3_X1",
        inputs: 3,
        t0: 0.034,
        r_drive: 2.9,
        cap: 0.0013,
        inverting: true,
        is_register: false,
    },
    Proto {
        name: "AOI21_X1",
        inputs: 3,
        t0: 0.030,
        r_drive: 2.7,
        cap: 0.0014,
        inverting: true,
        is_register: false,
    },
    Proto {
        name: "OAI21_X1",
        inputs: 3,
        t0: 0.032,
        r_drive: 2.7,
        cap: 0.0014,
        inverting: true,
        is_register: false,
    },
    Proto {
        name: "MUX2_X1",
        inputs: 3,
        t0: 0.050,
        r_drive: 2.3,
        cap: 0.0014,
        inverting: false,
        is_register: false,
    },
    Proto {
        name: "DFF_X1",
        inputs: 1,
        t0: 0.0,
        r_drive: 1.5,
        cap: 0.0015,
        inverting: false,
        is_register: true,
    },
];

/// Per-corner multipliers applied to the late/rise surface.
fn corner_scale(corner: Corner) -> f32 {
    match corner {
        Corner::EarlyRise => 0.82,
        Corner::EarlyFall => 0.78,
        Corner::LateRise => 1.00,
        Corner::LateFall => 0.95,
    }
}

fn delay_surface(t0: f32, a: f32, r: f32, k: f32, q: f32, s: f32, c: f32) -> f32 {
    t0 + a * s + r * c + k * (s * c).sqrt() + q * s * c
}

fn slew_surface(s0: f32, e: f32, rs: f32, s: f32, c: f32) -> f32 {
    s0 + e * s + rs * c
}

fn build_lut(f: impl Fn(f32, f32) -> f32) -> Lut {
    let mut values = Vec::with_capacity(LUT_AXIS * LUT_AXIS);
    for &s in &SLEW_AXIS {
        for &c in &LOAD_AXIS {
            values.push(f(s, c));
        }
    }
    Lut::new(SLEW_AXIS, LOAD_AXIS, values)
}

fn build_arc(p: &Proto, rng: &mut StdRng) -> TimingArc {
    let jitter = |rng: &mut StdRng| rng.gen_range(0.9..1.1f32);
    let t0 = p.t0 * jitter(rng);
    let a = 0.20 * jitter(rng); // slew sensitivity (ns/ns)
    let r = p.r_drive * jitter(rng); // load slope (ns/pF ≙ kΩ)
    let k = 0.15 * jitter(rng); // sqrt coupling term
    let q = 2.0 * jitter(rng); // bilinear coupling (ns/(ns·pF))
    let s0 = 0.008 * jitter(rng);
    let e = 0.25 * jitter(rng);
    let rs = 1.4 * p.r_drive * jitter(rng);

    let delay = Corner::ALL.map(|corner| {
        let scale = corner_scale(corner);
        build_lut(|s, c| scale * delay_surface(t0, a, r, k, q, s, c))
    });
    let out_slew = Corner::ALL.map(|corner| {
        let scale = corner_scale(corner);
        build_lut(|s, c| scale * slew_surface(s0, e, rs, s, c))
    });
    TimingArc::new(delay, out_slew, p.inverting)
}

impl Library {
    /// Generates the deterministic synthetic "SkyWater-130-like" library.
    ///
    /// Two calls with the same `seed` produce identical libraries. The
    /// library contains 14 combinational cell families (1–3 inputs) plus a
    /// D flip-flop; every combinational arc carries 8 valid LUTs.
    pub fn synthetic_sky130(seed: u64) -> Library {
        let mut rng = StdRng::seed_from_u64(seed);
        let cells = PROTOS
            .iter()
            .map(|p| {
                let arcs = if p.is_register {
                    Vec::new()
                } else {
                    (0..p.inputs).map(|_| build_arc(p, &mut rng)).collect()
                };
                let input_caps = (0..p.inputs)
                    .map(|_| {
                        let base = p.cap * rng.gen_range(0.95..1.05f32);
                        // early corners see slightly lower cap, fall slightly higher
                        [base * 0.97, base * 0.99, base * 1.01, base * 1.03]
                    })
                    .collect();
                CellType {
                    name: p.name.to_string(),
                    num_inputs: p.inputs,
                    input_caps,
                    drive_resistance: p.r_drive,
                    arcs,
                    is_register: p.is_register,
                }
            })
            .collect();
        Library { cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = Library::synthetic_sky130(7);
        let b = Library::synthetic_sky130(7);
        for (ca, cb) in a.cells().iter().zip(b.cells()) {
            assert_eq!(ca.name, cb.name);
            for (aa, ab) in ca.arcs.iter().zip(&cb.arcs) {
                assert_eq!(
                    aa.delay(Corner::LateRise).values(),
                    ab.delay(Corner::LateRise).values()
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Library::synthetic_sky130(1);
        let b = Library::synthetic_sky130(2);
        let va = a.cell_by_name("NAND2_X1").unwrap().arcs[0]
            .delay(Corner::LateRise)
            .values()
            .to_vec();
        let vb = b.cell_by_name("NAND2_X1").unwrap().arcs[0]
            .delay(Corner::LateRise)
            .values()
            .to_vec();
        assert_ne!(va, vb);
    }

    #[test]
    fn delays_monotone_in_load_and_positive() {
        let lib = Library::synthetic_sky130(3);
        for cell in lib.cells() {
            for arc in &cell.arcs {
                for corner in Corner::ALL {
                    let lut = arc.delay(corner);
                    for row in lut.values().chunks(LUT_AXIS) {
                        assert!(row.windows(2).all(|w| w[0] < w[1]), "monotone in load");
                        assert!(row.iter().all(|&v| v > 0.0), "positive delays");
                    }
                }
            }
        }
    }

    #[test]
    fn early_faster_than_late() {
        let lib = Library::synthetic_sky130(4);
        let arc = &lib.cell_by_name("INV_X1").unwrap().arcs[0];
        let d_early = arc.delay(Corner::EarlyRise).lookup(0.05, 0.005);
        let d_late = arc.delay(Corner::LateRise).lookup(0.05, 0.005);
        assert!(d_early < d_late);
    }

    #[test]
    fn register_has_no_arcs_but_has_cap() {
        let lib = Library::synthetic_sky130(5);
        let dff = lib.cell(lib.register_type());
        assert!(dff.is_register);
        assert!(dff.arcs.is_empty());
        assert!(dff.input_cap(0, Corner::LateRise) > 0.0);
    }

    #[test]
    fn library_inventory() {
        let lib = Library::synthetic_sky130(0);
        assert_eq!(lib.num_cells(), 15);
        assert_eq!(lib.combinational_with_inputs(1).len(), 3);
        assert_eq!(lib.combinational_with_inputs(2).len(), 6);
        assert_eq!(lib.combinational_with_inputs(3).len(), 5);
    }
}
