//! Pretty-printer: AST → canonical FAS source.
//!
//! `parse(print(m))` reproduces `m` exactly (round-trip property), which
//! makes the printer the canonical formatter for generated and hand-written
//! models alike.

use crate::ast::{BinOp, Cond, Expr, Model, RelOp, Stmt, UnaryOp};
use std::fmt::Write as _;

/// Operator precedence for minimal parenthesisation.
fn precedence(e: &Expr<'_>) -> u8 {
    match e {
        Expr::Binary(BinOp::Add | BinOp::Sub, _, _) => 1,
        Expr::Binary(BinOp::Mul | BinOp::Div, _, _) => 2,
        Expr::Unary(_, _) => 3,
        _ => 4,
    }
}

fn fmt_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:e}")
    }
}

fn print_expr(e: &Expr<'_>, out: &mut String) {
    match e {
        Expr::Num(v) => out.push_str(&fmt_number(*v)),
        Expr::Var(name) => out.push_str(name.text),
        Expr::PinValue { quantity, pin } => {
            let _ = write!(out, "{quantity}.value({pin})");
        }
        Expr::Unary(UnaryOp::Neg, inner) => {
            out.push('-');
            let need_parens = precedence(inner) < 3;
            if need_parens {
                out.push('(');
            }
            print_expr(inner, out);
            if need_parens {
                out.push(')');
            }
        }
        Expr::Binary(op, a, b) => {
            let my_prec = precedence(e);
            let op_txt = match op {
                BinOp::Add => " + ",
                BinOp::Sub => " - ",
                BinOp::Mul => " * ",
                BinOp::Div => " / ",
            };
            let left_parens = precedence(a) < my_prec;
            if left_parens {
                out.push('(');
            }
            print_expr(a, out);
            if left_parens {
                out.push(')');
            }
            out.push_str(op_txt);
            // Right side: equal precedence always needs parens — the
            // parser is left-associative, so `a + (b + c)` printed bare
            // would reparse as `(a + b) + c`, a different tree (and a
            // different float result; + and * are not associative in
            // f64).
            let right_parens = precedence(b) <= my_prec;
            if right_parens {
                out.push('(');
            }
            print_expr(b, out);
            if right_parens {
                out.push(')');
            }
        }
        Expr::Call { func, args } => {
            out.push_str(func);
            out.push('(');
            for (k, a) in args.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                print_expr(a, out);
            }
            out.push(')');
        }
        Expr::StateDt { arg, .. } => {
            out.push_str("state.dt(");
            print_expr(arg, out);
            out.push(')');
        }
        Expr::StateDelay { var } => {
            let _ = write!(out, "state.delay({var})");
        }
        Expr::StateDelayT { var, td, .. } => {
            let _ = write!(out, "state.delayt({var}, ");
            print_expr(td, out);
            out.push(')');
        }
        Expr::StateIdt { arg, .. } => {
            out.push_str("state.idt(");
            print_expr(arg, out);
            out.push(')');
        }
    }
}

fn print_cond(c: &Cond<'_>, out: &mut String) {
    match c {
        Cond::ModeIs { dc } => {
            out.push_str(if *dc { "mode=dc" } else { "mode=tran" });
        }
        Cond::Cmp(op, a, b) => {
            print_expr(a, out);
            let op_txt = match op {
                RelOp::Eq => " = ",
                RelOp::Ne => " != ",
                RelOp::Lt => " < ",
                RelOp::Le => " <= ",
                RelOp::Gt => " > ",
                RelOp::Ge => " >= ",
            };
            out.push_str(op_txt);
            print_expr(b, out);
        }
    }
}

fn print_stmts(stmts: &[Stmt<'_>], out: &mut String) {
    for stmt in stmts {
        match stmt {
            Stmt::Make { var, expr, .. } => {
                let _ = write!(out, "make {var} = ");
                print_expr(expr, out);
                out.push('\n');
            }
            Stmt::Impose {
                quantity,
                pin,
                expr,
                ..
            } => {
                let _ = write!(out, "make {quantity}.on({pin}) = ");
                print_expr(expr, out);
                out.push('\n');
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                out.push_str("if (");
                print_cond(cond, out);
                out.push_str(") then\n");
                print_stmts(then_branch, out);
                if !else_branch.is_empty() {
                    out.push_str("else\n");
                    print_stmts(else_branch, out);
                }
                out.push_str("endif\n");
            }
        }
    }
}

/// Renders the model as canonical FAS source.
pub fn print_model(m: &Model<'_>) -> String {
    let mut out = String::new();
    let pins: Vec<&str> = m.pins.iter().map(|p| p.text).collect();
    let _ = write!(out, "model {} pin ({})", m.name, pins.join(", "));
    if !m.params.is_empty() {
        let params: Vec<String> = m
            .params
            .iter()
            .map(|(n, v)| format!("{n}={}", fmt_number(*v)))
            .collect();
        let _ = write!(out, " param ({})", params.join(", "));
    }
    out.push('\n');
    out.push_str("analog\n");
    print_stmts(&m.body, &mut out);
    out.push_str("endanalog\n");
    out.push_str("endmodel\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Strips the state-instance counters before comparison: they depend on
    /// parse order, which the round-trip preserves anyway, so a plain
    /// equality on the whole model works.
    fn roundtrip(src: &str) {
        let m1 = parse(src).unwrap_or_else(|e| panic!("original does not parse: {e}\n{src}"));
        let printed = print_model(&m1);
        let m2 = parse(&printed)
            .unwrap_or_else(|e| panic!("printed form does not parse: {e}\n{printed}"));
        assert_eq!(m1, m2, "round-trip changed the AST:\n{printed}");
    }

    #[test]
    fn roundtrip_paper_listing() {
        roundtrip(
            "model input_stage pin (in) param (gin=1e-6, cin=5e-12)\nanalog\nmake v2 = volt.value(in)\nif (mode=dc) then\nmake yd4 = 0\nelse\nmake yd4 = state.dt(v2)\nendif\nmake yout5 = cin * yd4\nmake yout6 = gin * v2\nmake yout7 = yout5 + yout6\nmake curr.on(in) = yout7\nendanalog\nendmodel\n",
        );
    }

    #[test]
    fn roundtrip_precedence_cases() {
        for body in [
            "make x = 1 + 2 * 3",
            "make x = (1 + 2) * 3",
            "make x = 1 - (2 - 3)",
            "make x = 1 / (2 / 3)",
            "make x = -(1 + 2)",
            "make x = - -3",
            "make x = 2 * (3 + 4) / (5 - 6)",
            "make x = limit(max(1, 2), -1, min(3, 4))",
        ] {
            roundtrip(&format!(
                "model m pin (a)\nanalog\n{body}\nendanalog\nendmodel\n"
            ));
        }
    }

    #[test]
    fn roundtrip_state_and_conditions() {
        roundtrip(
            "model m pin (a, b) param (g=0.5)\nanalog\nmake u = volt.value(a)\nmake y = state.delay(z) + state.delayt(z, 1e-6) + state.idt(u)\nif (u > 0.5) then\nmake z = y * g\nelse\nmake z = -y\nendif\nif (mode=tran) then\nmake w = state.dt(u)\nelse\nmake w = 0\nendif\nmake curr.on(b) = w + z\nendanalog\nendmodel\n",
        );
    }

    #[test]
    fn roundtrip_generated_models() {
        // The printer must be total over everything the code generator can
        // emit: run it over the big comparator model.
        use gabm_codegen::{generate, Backend};
        let diagram = {
            // Re-build the input-stage diagram here to avoid a circular
            // dev-dependency on gabm-models: the constructs cover all
            // statement kinds except FirstOrderLag.
            gabm_core::constructs::InputStageSpec::new("in", 1e-6, 5e-12)
                .diagram()
                .unwrap()
        };
        let code = generate(&diagram, Backend::Fas).unwrap();
        roundtrip(&code.text);
    }

    #[test]
    fn printed_form_is_stable() {
        // print(parse(print(m))) == print(m): idempotence.
        let src = "model m pin (a)\nanalog\nmake x = 1 + 2 + 3\nendanalog\nendmodel\n";
        let p1 = print_model(&parse(src).unwrap());
        let p2 = print_model(&parse(&p1).unwrap());
        assert_eq!(p1, p2);
    }
}
