//! Structural gate-level Verilog writer and parser.
//!
//! The dialect is the subset real synthesis netlists use: one module,
//! `input`/`output`/`wire` declarations, named-port instances and
//! `assign` aliases for output ports:
//!
//! ```verilog
//! module usb (pi0, po0);
//!   input pi0;
//!   output po0;
//!   wire n3;
//!   INV_X1 u0 (.a0(pi0), .y(n3));
//!   assign po0 = n3;
//! endmodule
//! ```
//!
//! Cell and pin names follow the workspace conventions: combinational
//! inputs `a0..aK`, output `y`; register data `d`, output `q`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tp_graph::{Circuit, CircuitBuilder, PinId, PinKind};
use tp_liberty::Library;

use crate::token::Cursor;
use crate::ParseError;

/// Renders `circuit` as structural Verilog against `library` cell names.
///
/// # Panics
///
/// Panics if the circuit references cell types missing from `library`.
pub fn write(circuit: &Circuit, library: &Library) -> String {
    let mut out = String::new();
    // Wire name per net: the driving PI's name, or a synthetic n<net>.
    let net_name = |net: tp_graph::NetId| -> String {
        let driver = circuit.net(net).driver;
        match circuit.pin(driver).kind {
            PinKind::PrimaryInput => circuit.pin(driver).name.clone(),
            _ => format!("n{}", net.index()),
        }
    };

    let mut ports: Vec<String> = Vec::new();
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    for p in circuit.pin_ids() {
        let pd = circuit.pin(p);
        match pd.kind {
            PinKind::PrimaryInput => {
                ports.push(pd.name.clone());
                inputs.push(pd.name.clone());
            }
            PinKind::PrimaryOutput => {
                ports.push(pd.name.clone());
                outputs.push(pd.name.clone());
            }
            _ => {}
        }
    }

    writeln!(out, "module {} ({});", circuit.name(), ports.join(", ")).expect("string write");
    for i in &inputs {
        writeln!(out, "  input {i};").expect("string write");
    }
    for o in &outputs {
        writeln!(out, "  output {o};").expect("string write");
    }
    for net in circuit.net_ids() {
        let name = net_name(net);
        if !name.starts_with('n') || circuit.pin(circuit.net(net).driver).cell.is_none() {
            continue; // PI-driven nets reuse the port name
        }
        writeln!(out, "  wire {name};").expect("string write");
    }
    for cell_id in circuit.cell_ids() {
        let cd = circuit.cell(cell_id);
        let ct = library.cell(cd.type_id);
        let mut pins: Vec<String> = Vec::new();
        for (i, &ip) in cd.inputs.iter().enumerate() {
            let net = circuit.pin(ip).net.expect("validated circuit");
            let pin_name = if cd.is_register {
                "d".to_string()
            } else {
                format!("a{i}")
            };
            pins.push(format!(".{pin_name}({})", net_name(net)));
        }
        let out_net = circuit.pin(cd.output).net.expect("validated circuit");
        let out_pin = if cd.is_register { "q" } else { "y" };
        pins.push(format!(".{out_pin}({})", net_name(out_net)));
        writeln!(out, "  {} {} ({});", ct.name, cd.name, pins.join(", ")).expect("string write");
    }
    // Output ports alias the nets that drive them.
    for p in circuit.pin_ids() {
        let pd = circuit.pin(p);
        if pd.kind == PinKind::PrimaryOutput {
            let net = pd.net.expect("validated circuit");
            writeln!(out, "  assign {} = {};", pd.name, net_name(net)).expect("string write");
        }
    }
    writeln!(out, "endmodule").expect("string write");
    out
}

/// Parses structural Verilog back into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseError`] on malformed syntax, unknown cell types, wires
/// with zero or multiple drivers, or dangling pins.
pub fn parse(input: &str, library: &Library) -> Result<Circuit, ParseError> {
    let mut c = Cursor::new(input);
    c.expect("module")?;
    let name = c.ident()?.text;
    c.expect("(")?;
    // Port list (names only; direction comes from declarations).
    while !c.eat(")") {
        let _ = c.ident()?;
        c.eat(",");
    }
    c.expect(";")?;

    let mut b = CircuitBuilder::new(name);
    // wire name -> (driver pin, sinks)
    let mut driver_of: BTreeMap<String, PinId> = BTreeMap::new();
    let mut sinks_of: BTreeMap<String, Vec<PinId>> = BTreeMap::new();
    let mut po_assign: Vec<(PinId, String)> = Vec::new();
    let mut declared_outputs: BTreeMap<String, PinId> = BTreeMap::new();

    loop {
        let tok = match c.peek() {
            Some(t) => t.text.clone(),
            None => {
                return Err(ParseError::new(c.line(), "missing `endmodule`"));
            }
        };
        match tok.as_str() {
            "endmodule" => {
                c.next();
                break;
            }
            "input" => {
                c.next();
                loop {
                    let n = c.ident()?;
                    let pin = b.add_primary_input(&n.text);
                    driver_of.insert(n.text.clone(), pin);
                    if !c.eat(",") {
                        break;
                    }
                }
                c.expect(";")?;
            }
            "output" => {
                c.next();
                loop {
                    let n = c.ident()?;
                    let pin = b.add_primary_output(&n.text);
                    declared_outputs.insert(n.text.clone(), pin);
                    if !c.eat(",") {
                        break;
                    }
                }
                c.expect(";")?;
            }
            "wire" => {
                c.next();
                loop {
                    let _ = c.ident()?; // names materialize on use
                    if !c.eat(",") {
                        break;
                    }
                }
                c.expect(";")?;
            }
            "assign" => {
                c.next();
                let lhs = c.ident()?;
                c.expect("=")?;
                let rhs = c.ident()?;
                c.expect(";")?;
                let po = *declared_outputs.get(&lhs.text).ok_or_else(|| {
                    ParseError::new(
                        lhs.line,
                        format!("assign to undeclared output `{}`", lhs.text),
                    )
                })?;
                po_assign.push((po, rhs.text));
            }
            _ => {
                // instance: TYPE name ( .pin(net), ... );
                let ty = c.ident()?;
                let cell_type = library.type_id(&ty.text).ok_or_else(|| {
                    ParseError::new(ty.line, format!("unknown cell type `{}`", ty.text))
                })?;
                let ct = library.cell(cell_type);
                let inst = c.ident()?.text;
                c.expect("(")?;
                let mut conns: BTreeMap<String, String> = BTreeMap::new();
                while !c.eat(")") {
                    let pin = c.ident()?;
                    let pin_name = pin
                        .text
                        .strip_prefix('.')
                        .ok_or_else(|| {
                            ParseError::new(
                                pin.line,
                                format!("expected `.pin`, found `{}`", pin.text),
                            )
                        })?
                        .to_string();
                    c.expect("(")?;
                    let net = c.ident()?.text;
                    c.expect(")")?;
                    conns.insert(pin_name, net);
                    c.eat(",");
                }
                c.expect(";")?;

                if ct.is_register {
                    let (_, d, q) = b.add_register(&inst, cell_type);
                    let dn = conns.get("d").ok_or_else(|| {
                        ParseError::new(ty.line, format!("register `{inst}` missing .d"))
                    })?;
                    let qn = conns.get("q").ok_or_else(|| {
                        ParseError::new(ty.line, format!("register `{inst}` missing .q"))
                    })?;
                    sinks_of.entry(dn.clone()).or_default().push(d);
                    if driver_of.insert(qn.clone(), q).is_some() {
                        return Err(ParseError::new(
                            ty.line,
                            format!("wire `{qn}` has two drivers"),
                        ));
                    }
                } else {
                    let (_, ins, out_pin) = b.add_cell(&inst, cell_type, ct.num_inputs);
                    for (i, &ip) in ins.iter().enumerate() {
                        let key = format!("a{i}");
                        let nn = conns.get(&key).ok_or_else(|| {
                            ParseError::new(ty.line, format!("instance `{inst}` missing .{key}"))
                        })?;
                        sinks_of.entry(nn.clone()).or_default().push(ip);
                    }
                    let yn = conns.get("y").ok_or_else(|| {
                        ParseError::new(ty.line, format!("instance `{inst}` missing .y"))
                    })?;
                    if driver_of.insert(yn.clone(), out_pin).is_some() {
                        return Err(ParseError::new(
                            ty.line,
                            format!("wire `{yn}` has two drivers"),
                        ));
                    }
                }
            }
        }
    }

    for (po, wire) in po_assign {
        sinks_of.entry(wire).or_default().push(po);
    }
    for (wire, sinks) in sinks_of {
        let driver = *driver_of
            .get(&wire)
            .ok_or_else(|| ParseError::new(0, format!("wire `{wire}` has no driver")))?;
        b.connect(driver, &sinks)
            .map_err(|e| ParseError::new(0, format!("wire `{wire}`: {e}")))?;
    }
    b.finish()
        .map_err(|e| ParseError::new(0, format!("invalid netlist: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_gen::{generate, GeneratorConfig, BENCHMARKS};

    fn library() -> Library {
        Library::synthetic_sky130(1)
    }

    #[test]
    fn roundtrip_handwritten() {
        let lib = library();
        let src = r#"
module demo (a, b, z);
  input a, b;
  output z;
  wire n0;
  NAND2_X1 u0 (.a0(a), .a1(b), .y(n0));
  assign z = n0;
endmodule
"#;
        let circuit = parse(src, &lib).expect("valid netlist");
        assert_eq!(circuit.name(), "demo");
        assert_eq!(circuit.num_cells(), 1);
        assert_eq!(circuit.num_pins(), 6);
        let text = write(&circuit, &lib);
        let again = parse(&text, &lib).expect("round trip");
        assert_eq!(again.stats(), circuit.stats());
    }

    #[test]
    fn roundtrip_generated_designs() {
        let lib = library();
        let cfg = GeneratorConfig {
            scale: 0.005,
            seed: 2,
            depth: Some(8),
        };
        for spec in [&BENCHMARKS[13], &BENCHMARKS[18], &BENCHMARKS[6]] {
            let circuit = generate(spec, &lib, &cfg);
            let text = write(&circuit, &lib);
            let parsed = parse(&text, &lib).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(parsed.stats(), circuit.stats(), "{}", spec.name);
            assert_eq!(
                parsed.topology().depth(),
                circuit.topology().depth(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn registers_roundtrip() {
        let lib = library();
        let src = r#"
module regs (clk_in, q_out);
  input clk_in;
  output q_out;
  wire n1;
  DFF_X1 r0 (.d(clk_in), .q(n1));
  assign q_out = n1;
endmodule
"#;
        let circuit = parse(src, &lib).expect("valid netlist");
        assert_eq!(circuit.stats().endpoints, 2); // register D + output port
        let text = write(&circuit, &lib);
        assert!(text.contains("DFF_X1"));
        assert_eq!(
            parse(&text, &lib).expect("round trip").stats(),
            circuit.stats()
        );
    }

    #[test]
    fn unknown_cell_rejected() {
        let lib = library();
        let src = "module m (a, z);\n input a;\n output z;\n BOGUS u0 (.a0(a), .y(z));\nendmodule";
        let err = parse(src, &lib).unwrap_err();
        assert!(err.message.contains("BOGUS"));
        assert_eq!(err.line, 4);
    }

    #[test]
    fn double_driver_rejected() {
        let lib = library();
        let src = r#"
module m (a, z);
  input a;
  output z;
  wire w;
  INV_X1 u0 (.a0(a), .y(w));
  INV_X1 u1 (.a0(a), .y(w));
  assign z = w;
endmodule
"#;
        let err = parse(src, &lib).unwrap_err();
        assert!(err.message.contains("two drivers"));
    }

    #[test]
    fn undriven_wire_rejected() {
        let lib = library();
        let src = r#"
module m (z);
  output z;
  wire w;
  assign z = w;
endmodule
"#;
        let err = parse(src, &lib).unwrap_err();
        assert!(err.message.contains("no driver"));
    }
}
