//! Liberty-style cell-library writer and parser.
//!
//! A compact dialect of the `.lib` format carrying everything the timing
//! flow consumes: per-pin capacitances at the four corners, drive
//! resistance, and per-arc 7×7 delay/slew tables for each corner:
//!
//! ```text
//! library (synthetic_sky130) {
//!   cell (INV_X1) {
//!     drive_resistance : 2.0;
//!     register : false;
//!     pin (a0) { capacitance : 0.0012 0.0012 0.0012 0.0013; }
//!     arc (a0 -> y) {
//!       inverting : true;
//!       table (delay, early_rise) {
//!         index_1 : 0.005 0.01 ...;
//!         index_2 : 0.0005 0.001 ...;
//!         values : 0.012 0.013 ... ;   // 49 numbers, row-major
//!       }
//!       ...8 tables...
//!     }
//!   }
//! }
//! ```

use std::fmt::Write as _;

use tp_liberty::{CellType, Corner, Library, Lut, TimingArc, LUT_AXIS};

use crate::token::Cursor;
use crate::ParseError;

fn corner_name(c: Corner) -> &'static str {
    match c {
        Corner::EarlyRise => "early_rise",
        Corner::EarlyFall => "early_fall",
        Corner::LateRise => "late_rise",
        Corner::LateFall => "late_fall",
    }
}

fn corner_from(name: &str, line: usize) -> Result<Corner, ParseError> {
    Corner::ALL
        .into_iter()
        .find(|c| corner_name(*c) == name)
        .ok_or_else(|| ParseError::new(line, format!("unknown corner `{name}`")))
}

fn write_lut(out: &mut String, kind: &str, corner: Corner, lut: &Lut) {
    writeln!(out, "      table ({kind}, {}) {{", corner_name(corner)).expect("string write");
    let fmt_axis = |axis: &[f32]| {
        axis.iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    writeln!(out, "        index_1 : {};", fmt_axis(lut.slew_index())).expect("string write");
    writeln!(out, "        index_2 : {};", fmt_axis(lut.load_index())).expect("string write");
    writeln!(out, "        values : {};", fmt_axis(lut.values())).expect("string write");
    writeln!(out, "      }}").expect("string write");
}

/// Renders a [`Library`] in the liberty dialect.
pub fn write(library: &Library, name: &str) -> String {
    let mut out = String::new();
    writeln!(out, "library ({name}) {{").expect("string write");
    for cell in library.cells() {
        writeln!(out, "  cell ({}) {{", cell.name).expect("string write");
        writeln!(out, "    drive_resistance : {};", cell.drive_resistance).expect("string write");
        writeln!(out, "    register : {};", cell.is_register).expect("string write");
        for (i, caps) in cell.input_caps.iter().enumerate() {
            let pin = if cell.is_register {
                "d".to_string()
            } else {
                format!("a{i}")
            };
            writeln!(
                out,
                "    pin ({pin}) {{ capacitance : {} {} {} {}; }}",
                caps[0], caps[1], caps[2], caps[3]
            )
            .expect("string write");
        }
        for (i, arc) in cell.arcs.iter().enumerate() {
            writeln!(out, "    arc (a{i} -> y) {{").expect("string write");
            writeln!(out, "      inverting : {};", arc.inverting).expect("string write");
            for c in Corner::ALL {
                write_lut(&mut out, "delay", c, arc.delay(c));
            }
            for c in Corner::ALL {
                write_lut(&mut out, "slew", c, arc.out_slew(c));
            }
            writeln!(out, "    }}").expect("string write");
        }
        writeln!(out, "  }}").expect("string write");
    }
    writeln!(out, "}}").expect("string write");
    out
}

fn parse_axis(c: &mut Cursor) -> Result<[f32; LUT_AXIS], ParseError> {
    let mut axis = [0.0f32; LUT_AXIS];
    for slot in axis.iter_mut() {
        *slot = c.number()?;
    }
    Ok(axis)
}

fn parse_bool(c: &mut Cursor) -> Result<bool, ParseError> {
    let t = c.ident()?;
    match t.text.as_str() {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(ParseError::new(
            t.line,
            format!("expected bool, found `{other}`"),
        )),
    }
}

/// `Lut::new` asserts these invariants; a parser must reject bad input
/// with an error instead of reaching those asserts.
fn check_axis(axis: &[f32; LUT_AXIS], which: &str, line: usize) -> Result<(), ParseError> {
    if axis.iter().any(|v| !v.is_finite()) {
        return Err(ParseError::new(
            line,
            format!("{which} axis has a non-finite entry"),
        ));
    }
    if axis.windows(2).any(|w| w[0] >= w[1]) {
        return Err(ParseError::new(
            line,
            format!("{which} axis must be strictly increasing"),
        ));
    }
    Ok(())
}

fn parse_lut(c: &mut Cursor) -> Result<Lut, ParseError> {
    c.expect("{")?;
    c.expect("index_1")?;
    c.expect(":")?;
    let slew_line = c.line();
    let slew = parse_axis(c)?;
    check_axis(&slew, "index_1", slew_line)?;
    c.expect(";")?;
    c.expect("index_2")?;
    c.expect(":")?;
    let load_line = c.line();
    let load = parse_axis(c)?;
    check_axis(&load, "index_2", load_line)?;
    c.expect(";")?;
    c.expect("values")?;
    c.expect(":")?;
    let values_line = c.line();
    let mut values = Vec::with_capacity(LUT_AXIS * LUT_AXIS);
    for _ in 0..LUT_AXIS * LUT_AXIS {
        values.push(c.number()?);
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(ParseError::new(
            values_line,
            "table values must be finite".to_string(),
        ));
    }
    c.expect(";")?;
    c.expect("}")?;
    Ok(Lut::new(slew, load, values))
}

/// Parses the liberty dialect back into a [`Library`].
///
/// # Errors
///
/// Returns [`ParseError`] on malformed syntax, missing tables or corners.
pub fn parse(input: &str) -> Result<Library, ParseError> {
    let mut c = Cursor::new(input);
    c.expect("library")?;
    c.expect("(")?;
    let _name = c.ident()?;
    c.expect(")")?;
    c.expect("{")?;

    let mut cells = Vec::new();
    while !c.eat("}") {
        c.expect("cell")?;
        c.expect("(")?;
        let cell_name = c.ident()?.text;
        c.expect(")")?;
        c.expect("{")?;
        let mut drive_resistance = 1.0f32;
        let mut is_register = false;
        let mut input_caps: Vec<[f32; 4]> = Vec::new();
        let mut arcs: Vec<TimingArc> = Vec::new();
        while !c.eat("}") {
            let key = c.ident()?;
            match key.text.as_str() {
                "drive_resistance" => {
                    c.expect(":")?;
                    drive_resistance = c.number()?;
                    c.expect(";")?;
                }
                "register" => {
                    c.expect(":")?;
                    is_register = parse_bool(&mut c)?;
                    c.expect(";")?;
                }
                "pin" => {
                    c.expect("(")?;
                    let _pin = c.ident()?;
                    c.expect(")")?;
                    c.expect("{")?;
                    c.expect("capacitance")?;
                    c.expect(":")?;
                    let caps = [c.number()?, c.number()?, c.number()?, c.number()?];
                    c.expect(";")?;
                    c.expect("}")?;
                    input_caps.push(caps);
                }
                "arc" => {
                    c.expect("(")?;
                    let _from = c.ident()?;
                    c.expect("->")?;
                    let _to = c.ident()?;
                    c.expect(")")?;
                    c.expect("{")?;
                    c.expect("inverting")?;
                    c.expect(":")?;
                    let inverting = parse_bool(&mut c)?;
                    c.expect(";")?;
                    let mut delay: [Option<Lut>; 4] = [None, None, None, None];
                    let mut slew: [Option<Lut>; 4] = [None, None, None, None];
                    while !c.eat("}") {
                        c.expect("table")?;
                        c.expect("(")?;
                        let kind = c.ident()?;
                        c.expect(",")?;
                        let corner_tok = c.ident()?;
                        let corner = corner_from(&corner_tok.text, corner_tok.line)?;
                        c.expect(")")?;
                        let lut = parse_lut(&mut c)?;
                        match kind.text.as_str() {
                            "delay" => delay[corner.index()] = Some(lut),
                            "slew" => slew[corner.index()] = Some(lut),
                            other => {
                                return Err(ParseError::new(
                                    kind.line,
                                    format!("unknown table kind `{other}`"),
                                ))
                            }
                        }
                    }
                    let unwrap4 =
                        |arr: [Option<Lut>; 4], what: &str| -> Result<[Lut; 4], ParseError> {
                            let mut out = Vec::with_capacity(4);
                            for (i, slot) in arr.into_iter().enumerate() {
                                out.push(slot.ok_or_else(|| {
                                    ParseError::new(
                                        key.line,
                                        format!(
                                            "arc in `{cell_name}` missing {what} table for {}",
                                            corner_name(Corner::from_index(i))
                                        ),
                                    )
                                })?);
                            }
                            Ok(out.try_into().expect("exactly four"))
                        };
                    arcs.push(TimingArc::new(
                        unwrap4(delay, "delay")?,
                        unwrap4(slew, "slew")?,
                        inverting,
                    ));
                }
                other => {
                    return Err(ParseError::new(
                        key.line,
                        format!("unknown cell attribute `{other}`"),
                    ))
                }
            }
        }
        cells.push(CellType {
            name: cell_name,
            num_inputs: input_caps.len(),
            input_caps,
            drive_resistance,
            arcs,
            is_register,
        });
    }
    Ok(Library::from_cells(cells))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_lookups() {
        let lib = Library::synthetic_sky130(5);
        let text = write(&lib, "synthetic_sky130");
        let parsed = parse(&text).expect("own output parses");
        assert_eq!(parsed.num_cells(), lib.num_cells());
        for (a, b) in lib.cells().iter().zip(parsed.cells()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.num_inputs, b.num_inputs);
            assert_eq!(a.is_register, b.is_register);
            for (aa, ba) in a.arcs.iter().zip(&b.arcs) {
                assert_eq!(aa.inverting, ba.inverting);
                for c in Corner::ALL {
                    let q = (0.03, 0.003);
                    let da = aa.delay(c).lookup(q.0, q.1);
                    let db = ba.delay(c).lookup(q.0, q.1);
                    assert!((da - db).abs() < 1e-5, "{}: {da} vs {db}", a.name);
                }
            }
        }
    }

    #[test]
    fn missing_table_rejected() {
        let lib = Library::synthetic_sky130(5);
        let text = write(&lib, "x");
        // drop one table block
        let broken = text.replacen("table (delay, early_rise)", "table (delay, late_rise)", 1);
        assert!(parse(&broken).is_err());
    }

    #[test]
    fn unknown_attribute_rejected() {
        let err = parse("library (x) { cell (y) { bogus : 1; } }").unwrap_err();
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn empty_library_parses() {
        let parsed = parse("library (empty) { }").expect("trivial library");
        assert_eq!(parsed.num_cells(), 0);
    }
}
