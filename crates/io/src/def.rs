//! DEF-style placement writer and parser (simplified dialect).
//!
//! Carries the die area and a location for every pin of a design:
//!
//! ```text
//! DESIGN usb ;
//! DIEAREA ( 0 0 ) ( 22.5 22.5 ) ;
//! PINS 6 ;
//!   - pi0 PLACED ( 0.0 3.75 ) ;
//!   - u0.a0 PLACED ( 11.2 8.9 ) ;
//! END PINS
//! END DESIGN
//! ```
//!
//! Pins are identified by their circuit names, so a parsed placement can
//! be re-attached to the same (or a round-tripped) circuit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tp_graph::Circuit;
use tp_place::{Die, Placement, Point};

use crate::token::Cursor;
use crate::ParseError;

/// Renders a placement in the DEF dialect.
pub fn write(circuit: &Circuit, placement: &Placement) -> String {
    let mut out = String::new();
    let die = placement.die();
    writeln!(out, "DESIGN {} ;", circuit.name()).expect("string write");
    writeln!(out, "DIEAREA ( 0 0 ) ( {} {} ) ;", die.width, die.height).expect("string write");
    writeln!(out, "PINS {} ;", circuit.num_pins()).expect("string write");
    for p in circuit.pin_ids() {
        let loc = placement.location(p);
        writeln!(
            out,
            "  - {} PLACED ( {} {} ) ;",
            circuit.pin(p).name,
            loc.x,
            loc.y
        )
        .expect("string write");
    }
    writeln!(out, "END PINS").expect("string write");
    writeln!(out, "END DESIGN").expect("string write");
    out
}

/// Parses the DEF dialect and re-attaches locations to `circuit` by pin
/// name.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed syntax, unknown pin names, missing
/// pins, or locations outside the die.
pub fn parse(input: &str, circuit: &Circuit) -> Result<Placement, ParseError> {
    let mut c = Cursor::new(input);
    c.expect("DESIGN")?;
    let _name = c.ident()?;
    c.expect(";")?;
    c.expect("DIEAREA")?;
    c.expect("(")?;
    let _x0 = c.number()?;
    let _y0 = c.number()?;
    c.expect(")")?;
    c.expect("(")?;
    let w = c.number()?;
    let h = c.number()?;
    c.expect(")")?;
    c.expect(";")?;
    if !(w > 0.0 && h > 0.0 && w.is_finite() && h.is_finite()) {
        return Err(ParseError::new(
            c.line(),
            "die dimensions must be positive and finite",
        ));
    }
    let die = Die::new(w, h);

    c.expect("PINS")?;
    let count = c.number()? as usize;
    c.expect(";")?;

    let name_to_pin: BTreeMap<&str, tp_graph::PinId> = circuit
        .pin_ids()
        .map(|p| (circuit.pin(p).name.as_str(), p))
        .collect();
    let mut locations = vec![None; circuit.num_pins()];
    for _ in 0..count {
        c.expect("-")?;
        let name = c.ident()?;
        c.expect("PLACED")?;
        c.expect("(")?;
        let x = c.number()?;
        let y = c.number()?;
        c.expect(")")?;
        c.expect(";")?;
        let pin = *name_to_pin
            .get(name.text.as_str())
            .ok_or_else(|| ParseError::new(name.line, format!("unknown pin `{}`", name.text)))?;
        if !die.contains(Point::new(x, y)) {
            return Err(ParseError::new(
                name.line,
                format!("pin `{}` placed outside the die", name.text),
            ));
        }
        locations[pin.index()] = Some(Point::new(x, y));
    }
    c.expect("END")?;
    c.expect("PINS")?;
    c.expect("END")?;
    c.expect("DESIGN")?;

    let resolved: Result<Vec<Point>, ParseError> = locations
        .into_iter()
        .enumerate()
        .map(|(i, loc)| {
            loc.ok_or_else(|| {
                ParseError::new(
                    0,
                    format!(
                        "pin `{}` has no location",
                        circuit.pin(tp_graph::PinId::new(i)).name
                    ),
                )
            })
        })
        .collect();
    Ok(Placement::new(die, resolved?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_gen::{generate, GeneratorConfig, BENCHMARKS};
    use tp_liberty::Library;
    use tp_place::{place_circuit, PlacementConfig};

    fn fixture() -> (Circuit, Placement) {
        let lib = Library::synthetic_sky130(1);
        let circuit = generate(
            &BENCHMARKS[13],
            &lib,
            &GeneratorConfig {
                scale: 0.01,
                seed: 4,
                depth: Some(6),
            },
        );
        let placement = place_circuit(&circuit, &PlacementConfig::default(), 9);
        (circuit, placement)
    }

    #[test]
    fn roundtrip_is_exact() {
        let (circuit, placement) = fixture();
        let text = write(&circuit, &placement);
        let parsed = parse(&text, &circuit).expect("own output parses");
        assert_eq!(parsed.die(), placement.die());
        for p in circuit.pin_ids() {
            let a = placement.location(p);
            let b = parsed.location(p);
            assert!(a.manhattan(b) < 1e-4, "pin {p}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn missing_pin_rejected() {
        let (circuit, placement) = fixture();
        let text = write(&circuit, &placement);
        // remove one pin line and fix the count
        let mut lines: Vec<&str> = text.lines().collect();
        let removed = lines.remove(3);
        assert!(removed.trim_start().starts_with('-'));
        let fixed = lines.join("\n").replace(
            &format!("PINS {} ;", circuit.num_pins()),
            &format!("PINS {} ;", circuit.num_pins() - 1),
        );
        let err = parse(&fixed, &circuit).unwrap_err();
        assert!(err.message.contains("no location"));
    }

    #[test]
    fn unknown_pin_rejected() {
        let (circuit, placement) = fixture();
        let first = circuit.pin(tp_graph::PinId::new(0)).name.clone();
        let text = write(&circuit, &placement).replacen(&first, "ghost_pin", 1);
        let err = parse(&text, &circuit).unwrap_err();
        assert!(err.message.contains("ghost_pin"));
    }

    #[test]
    fn out_of_die_rejected() {
        let (circuit, _) = fixture();
        let text = format!(
            "DESIGN x ;\nDIEAREA ( 0 0 ) ( 1 1 ) ;\nPINS 1 ;\n  - {} PLACED ( 5 5 ) ;\nEND PINS\nEND DESIGN",
            circuit.pin(tp_graph::PinId::new(0)).name
        );
        let err = parse(&text, &circuit).unwrap_err();
        assert!(err.message.contains("outside"));
    }
}
