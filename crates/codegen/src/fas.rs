//! ELDO-FAS backend.
//!
//! Renders the model exactly in the style of the paper's §4.2 listing:
//! a `model … analog … endanalog endmodel` file whose body lines are the
//! concatenated generic code segments.

use crate::ir::{CodeIr, IrRhs, IrStatement, PinQuantity};
use crate::CodegenError;
use gabm_core::symbol::format_number;
use std::fmt::Write;

/// Stiff conductance used to impose across quantities (voltage generators).
const GBIG: &str = "1.0e6";

impl PinQuantity {
    /// Through counterpart of an across quantity (for stiff imposition).
    fn through_counterpart(self) -> PinQuantity {
        match self {
            PinQuantity::Volt => PinQuantity::Curr,
            PinQuantity::Omega => PinQuantity::Torque,
            PinQuantity::Temp => PinQuantity::Heat,
            other => other,
        }
    }
}

fn render_rhs(out: &mut String, rhs: &IrRhs) {
    // Writing into a `String` cannot fail.
    let _ = match rhs {
        IrRhs::Gain { a, input } => write!(out, "{a} * {input}"),
        IrRhs::Sum { terms } => {
            for (k, (pos, term)) in terms.iter().enumerate() {
                let sign = match (k, pos) {
                    (0, true) => "",
                    (0, false) => "-",
                    (_, true) => " + ",
                    (_, false) => " - ",
                };
                out.push_str(sign);
                out.push_str(term);
            }
            Ok(())
        }
        IrRhs::Prod { factors } => {
            for (k, (mul, factor)) in factors.iter().enumerate() {
                let op = match (k, mul) {
                    (0, true) => "",
                    (0, false) => "1.0 / ",
                    (_, true) => " * ",
                    (_, false) => " / ",
                };
                out.push_str(op);
                out.push_str(factor);
            }
            Ok(())
        }
        IrRhs::Limit { input, lo, hi } => write!(out, "limit({input}, {lo}, {hi})"),
        IrRhs::PosPart { input } => write!(out, "max({input}, 0.0)"),
        IrRhs::NegPart { input } => write!(out, "min({input}, 0.0)"),
        IrRhs::Func { func, args } => {
            out.push_str(func.code_name());
            out.push('(');
            for (k, arg) in args.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(arg);
            }
            out.push(')');
            Ok(())
        }
        IrRhs::Copy { input } => {
            out.push_str(input);
            Ok(())
        }
    };
}

pub(crate) fn render(ir: &CodeIr) -> Result<String, CodegenError> {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write!(
        out,
        "* {} -- generated from a functional diagram by gabm-codegen\nmodel {} pin ({})",
        ir.model_name,
        ir.model_name,
        ir.pins.join(", ")
    );
    for (k, p) in ir.params.iter().enumerate() {
        let sep = if k == 0 { " param (" } else { ", " };
        let _ = write!(out, "{sep}{}={}", p.name, format_number(p.default));
    }
    if !ir.params.is_empty() {
        out.push(')');
    }
    out.push('\n');
    out.push_str("analog\n");
    for stmt in &ir.statements {
        let _ = match stmt {
            IrStatement::Probe {
                var, pin, quantity, ..
            } => writeln!(out, "make {var} = {}.value({pin})", quantity.fas_prefix()),
            IrStatement::Impose {
                pin,
                quantity,
                expr,
                ..
            } => writeln!(out, "make {}.on({pin}) = {expr}", quantity.fas_prefix()),
            IrStatement::ImposeAcross { pin, target, .. } => {
                // Across quantities are imposed through a stiff conductance
                // (the "simulation expertise" of §4's note: a hard voltage
                // constraint inside a behavioural model is a convergence
                // hazard, a stiff Norton source is not).
                let across = PinQuantity::Volt.fas_prefix();
                let through = PinQuantity::Volt.through_counterpart().fas_prefix();
                writeln!(
                    out,
                    "make {through}.on({pin}) = {GBIG} * ({across}.value({pin}) - ({target}))"
                )
            }
            IrStatement::Derivative { var, input, .. } => writeln!(
                out,
                "if (mode=dc) then\nmake {var} = 0\nelse\nmake {var} = state.dt({input})\nendif"
            ),
            IrStatement::Integral { var, input, .. } => {
                writeln!(out, "make {var} = state.idt({input})")
            }
            IrStatement::Assign { var, rhs, .. } => {
                let _ = write!(out, "make {var} = ");
                render_rhs(&mut out, rhs);
                writeln!(out)
            }
            IrStatement::UnitDelay { var, input, .. } => {
                writeln!(out, "make {var} = state.delay({input})")
            }
            IrStatement::FixedDelay { var, input, td, .. } => {
                writeln!(out, "make {var} = state.delayt({input}, {td})")
            }
            IrStatement::FirstOrderLag {
                var, input, k, tau, ..
            } => writeln!(
                out,
                "if (mode=dc) then\nmake {var} = {k} * {input}\nelse\n\
                 make {var} = (state.delay({var}) + (timestep / {tau}) * {k} * {input}) / (1.0 + timestep / {tau})\n\
                 endif"
            ),
        };
    }
    out.push_str("endanalog\n");
    out.push_str("endmodel\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::{generate, Backend};
    use gabm_core::constructs::{InputStageSpec, OutputStageSpec, SlewRateSpec};

    /// The paper's §4.2 listing, character for character (body only).
    const PAPER_LISTING: &str = "\
analog
make v2 = volt.value(in)
if (mode=dc) then
make yd4 = 0
else
make yd4 = state.dt(v2)
endif
make yout5 = cin * yd4
make yout6 = gin * v2
make yout7 = yout5 + yout6
make curr.on(in) = yout7
endanalog
";

    #[test]
    fn golden_paper_listing() {
        let d = InputStageSpec::new("in", 1e-6, 5e-12).diagram().unwrap();
        let code = generate(&d, Backend::Fas).unwrap();
        assert!(
            code.text.contains(PAPER_LISTING),
            "generated code does not embed the paper listing:\n{}",
            code.text
        );
    }

    #[test]
    fn header_declares_pins_and_params() {
        let d = InputStageSpec::new("in", 1e-6, 5e-12).diagram().unwrap();
        let code = generate(&d, Backend::Fas).unwrap();
        assert!(code.text.contains("model input_stage_in pin (in)"));
        assert!(code.text.contains("gin=1e-6"));
        assert!(code.text.contains("cin=5e-12"));
    }

    #[test]
    fn output_stage_has_limit() {
        let d = OutputStageSpec::new("out", 1e-3)
            .with_current_limit(10e-3)
            .diagram()
            .unwrap();
        let code = generate(&d, Backend::Fas).unwrap();
        assert!(code.text.contains("limit("));
        assert!(code.text.contains("(-ilim)"));
        assert!(code.text.contains("make curr.on(out)"));
    }

    #[test]
    fn slew_rate_uses_delay_and_timestep() {
        let d = SlewRateSpec::new(1e6, 1e6).diagram().unwrap();
        let code = generate(&d, Backend::Fas).unwrap();
        assert!(code.text.contains("state.delay("));
        assert!(code.text.contains("/ timestep"));
        // Division appears through the multiplier with a divide op.
        assert!(code.text.contains(" * timestep"));
    }

    #[test]
    fn separator_renders_min_max() {
        use gabm_core::diagram::FunctionalDiagram;
        use gabm_core::quantity::Dimension;
        use gabm_core::symbol::SymbolKind;
        let mut d = FunctionalDiagram::new("sep_demo");
        let p = d.add_symbol(SymbolKind::Parameter {
            param: "x".into(),
            dimension: Dimension::CURRENT,
        });
        d.add_parameter("x", 0.0, Dimension::CURRENT);
        let s = d.add_symbol(SymbolKind::Separator);
        let pin = d.add_symbol(SymbolKind::Pin { name: "p".into() });
        let gen = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::CURRENT,
        });
        d.connect(d.port(p, "out").unwrap(), d.port(s, "in").unwrap())
            .unwrap();
        d.connect(d.port(pin, "pin").unwrap(), d.port(gen, "pin").unwrap())
            .unwrap();
        d.connect(d.port(s, "pos").unwrap(), d.port(gen, "in").unwrap())
            .unwrap();
        let code = generate(&d, Backend::Fas).unwrap();
        assert!(code.text.contains("max(x, 0.0)"));
        assert!(code.text.contains("min(x, 0.0)"));
    }
}
