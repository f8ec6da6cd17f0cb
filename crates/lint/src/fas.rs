//! Source-level lints over parsed FAS models (§4.2).
//!
//! The FAS compiler already rejects hard errors (unknown identifiers,
//! assignments to parameters). These passes report what the compiler
//! accepts but the author probably did not mean: values computed and never
//! used, branches that can never run, and arithmetic that is guaranteed to
//! blow up at the first evaluated time point.

use gabm_core::diag::{Code, Diagnostic, Location};
use gabm_fas::ast::{BinOp, Cond, Expr, Model, Stmt, UnaryOp};
use gabm_fas::Pos;
use std::collections::HashSet;

/// One FAS-level analysis pass.
pub type FasPass = fn(&Model<'_>, &mut Vec<Diagnostic>);

/// All FAS-level passes in execution order, with stable names.
pub const FAS_PASSES: &[(&str, FasPass)] = &[
    ("fas-use-before-def", check_use_before_def),
    ("fas-unused-variables", check_unused_variables),
    ("fas-dead-branches", check_dead_branches),
    ("fas-const-arithmetic", check_const_arithmetic),
];

/// Runs every FAS pass on `model` and returns the findings.
pub fn lint_fas(model: &Model<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (_, pass) in FAS_PASSES {
        pass(model, &mut diags);
    }
    diags
}

fn source(pos: Pos) -> Location {
    Location::Source {
        line: pos.line,
        col: pos.col,
    }
}

/// Names the simulator defines without any `make`.
const BUILTINS: &[&str] = &["time", "temp", "timestep"];

/// Collects variable names read by `expr`. References inside
/// `state.delay`/`state.delayt` look at the previous time point, so they
/// are legal forward references and are skipped.
fn expr_reads<'a>(expr: &Expr<'a>, out: &mut Vec<&'a str>) {
    match expr {
        Expr::Num(_) | Expr::PinValue { .. } | Expr::StateDelay { .. } => {}
        Expr::Var(name) => out.push(name.text),
        Expr::Unary(_, e) | Expr::StateDt { arg: e, .. } | Expr::StateIdt { arg: e, .. } => {
            expr_reads(e, out)
        }
        Expr::Binary(_, a, b) => {
            expr_reads(a, out);
            expr_reads(b, out);
        }
        Expr::Call { args, .. } => {
            for a in args {
                expr_reads(a, out);
            }
        }
        Expr::StateDelayT { td, .. } => expr_reads(td, out),
    }
}

/// Like [`expr_reads`] but including the delayed variable itself — used by
/// the liveness pass, where a delayed read still keeps its variable alive.
fn expr_reads_with_delays<'a>(expr: &Expr<'a>, out: &mut Vec<&'a str>) {
    match expr {
        Expr::StateDelay { var } => out.push(var.text),
        Expr::StateDelayT { var, td, .. } => {
            out.push(var.text);
            expr_reads_with_delays(td, out);
        }
        Expr::Num(_) | Expr::PinValue { .. } => {}
        Expr::Var(name) => out.push(name.text),
        Expr::Unary(_, e) | Expr::StateDt { arg: e, .. } | Expr::StateIdt { arg: e, .. } => {
            expr_reads_with_delays(e, out)
        }
        Expr::Binary(_, a, b) => {
            expr_reads_with_delays(a, out);
            expr_reads_with_delays(b, out);
        }
        Expr::Call { args, .. } => {
            for a in args {
                expr_reads_with_delays(a, out);
            }
        }
    }
}

/// All `make var` targets in a statement list, recursively.
fn collect_targets<'a>(stmts: &[Stmt<'a>], out: &mut HashSet<&'a str>) {
    for stmt in stmts {
        match stmt {
            Stmt::Make { var, .. } => {
                out.insert(var.text);
            }
            Stmt::Impose { .. } => {}
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_targets(then_branch, out);
                collect_targets(else_branch, out);
            }
        }
    }
}

/// GABM030 — a variable is read before any `make` on the control path
/// assigns it. Mirrors the compiler's ordering rule: after an `if`, only
/// variables assigned on *both* branches count as defined (§4.1's
/// execution-order requirement applied to textual models).
fn check_use_before_def(model: &Model<'_>, diags: &mut Vec<Diagnostic>) {
    let params: HashSet<&str> = model.params.iter().map(|(p, _)| p.text).collect();
    let mut targets = HashSet::new();
    collect_targets(&model.body, &mut targets);
    let mut defined: HashSet<&str> = HashSet::new();

    fn walk<'a>(
        stmts: &[Stmt<'a>],
        params: &HashSet<&str>,
        targets: &HashSet<&str>,
        defined: &mut HashSet<&'a str>,
        diags: &mut Vec<Diagnostic>,
    ) {
        let check =
            |expr: &Expr<'_>, pos: Pos, defined: &HashSet<&str>, diags: &mut Vec<Diagnostic>| {
                let mut reads = Vec::new();
                expr_reads(expr, &mut reads);
                for name in reads {
                    if params.contains(name) || BUILTINS.contains(&name) || defined.contains(name) {
                        continue;
                    }
                    let why = if targets.contains(name) {
                        format!(
                            "variable '{name}' is read before it is assigned \
                         (forward references are only legal inside state.delay)"
                        )
                    } else {
                        format!("variable '{name}' is never assigned")
                    };
                    diags.push(Diagnostic::new(Code::FasUseBeforeDef, why, source(pos)));
                }
            };
        for stmt in stmts {
            match stmt {
                Stmt::Make { var, expr, pos } => {
                    check(expr, *pos, defined, diags);
                    defined.insert(var.text);
                }
                Stmt::Impose { expr, pos, .. } => check(expr, *pos, defined, diags),
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    pos,
                } => {
                    if let Cond::Cmp(_, a, b) = cond {
                        check(a, *pos, defined, diags);
                        check(b, *pos, defined, diags);
                    }
                    let mut then_defined = defined.clone();
                    walk(then_branch, params, targets, &mut then_defined, diags);
                    let mut else_defined = defined.clone();
                    walk(else_branch, params, targets, &mut else_defined, diags);
                    for v in then_defined.intersection(&else_defined) {
                        defined.insert(v);
                    }
                }
            }
        }
    }
    walk(&model.body, &params, &targets, &mut defined, diags);
}

/// GABM031 — a `make` target no expression ever reads (including through
/// `state.delay`). The assignment costs evaluation time every step and
/// suggests a misspelt reference elsewhere.
fn check_unused_variables(model: &Model<'_>, diags: &mut Vec<Diagnostic>) {
    let mut used: HashSet<&str> = HashSet::new();
    fn gather<'a>(stmts: &[Stmt<'a>], used: &mut HashSet<&'a str>) {
        for stmt in stmts {
            match stmt {
                Stmt::Make { expr, .. } | Stmt::Impose { expr, .. } => {
                    let mut reads = Vec::new();
                    expr_reads_with_delays(expr, &mut reads);
                    used.extend(reads);
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    if let Cond::Cmp(_, a, b) = cond {
                        let mut reads = Vec::new();
                        expr_reads_with_delays(a, &mut reads);
                        expr_reads_with_delays(b, &mut reads);
                        used.extend(reads);
                    }
                    gather(then_branch, used);
                    gather(else_branch, used);
                }
            }
        }
    }
    gather(&model.body, &mut used);

    fn report<'a>(
        stmts: &[Stmt<'a>],
        used: &HashSet<&str>,
        seen: &mut HashSet<&'a str>,
        diags: &mut Vec<Diagnostic>,
    ) {
        for stmt in stmts {
            match stmt {
                Stmt::Make { var, pos, .. } => {
                    if !used.contains(var.text) && seen.insert(var.text) {
                        diags.push(Diagnostic::new(
                            Code::FasUnusedVariable,
                            format!("variable '{var}' is assigned but never used"),
                            source(*pos),
                        ));
                    }
                }
                Stmt::Impose { .. } => {}
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    report(then_branch, used, seen, diags);
                    report(else_branch, used, seen, diags);
                }
            }
        }
    }
    let mut seen = HashSet::new();
    report(&model.body, &used, &mut seen, diags);
}

/// Constant value of an expression, when it folds without any variable,
/// pin, or state access.
fn const_value(expr: &Expr<'_>) -> Option<f64> {
    match expr {
        Expr::Num(v) => Some(*v),
        Expr::Unary(UnaryOp::Neg, e) => Some(-const_value(e)?),
        Expr::Binary(op, a, b) => {
            let (a, b) = (const_value(a)?, const_value(b)?);
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return None; // reported separately by GABM033
                    }
                    a / b
                }
            })
        }
        _ => None,
    }
}

/// GABM032 — an `if` whose comparison folds to a constant always takes the
/// same branch; the other branch is dead text.
fn check_dead_branches(model: &Model<'_>, diags: &mut Vec<Diagnostic>) {
    fn walk(stmts: &[Stmt<'_>], diags: &mut Vec<Diagnostic>) {
        for stmt in stmts {
            if let Stmt::If {
                cond,
                then_branch,
                else_branch,
                pos,
            } = stmt
            {
                if let Cond::Cmp(op, a, b) = cond {
                    if let (Some(a), Some(b)) = (const_value(a), const_value(b)) {
                        let taken = op.apply(a, b);
                        let dead = if taken { "else" } else { "then" };
                        diags.push(
                            Diagnostic::new(
                                Code::FasDeadBranch,
                                format!(
                                    "condition is always {taken}; the {dead} branch never runs"
                                ),
                                source(*pos),
                            )
                            .with_note(format!(
                                "both comparison operands fold to constants ({a} and {b})"
                            )),
                        );
                    }
                }
                walk(then_branch, diags);
                walk(else_branch, diags);
            }
        }
    }
    walk(&model.body, diags);
}

/// GABM033/034/035 — arithmetic that is guaranteed to fail: division by a
/// constant zero, intrinsic calls with constant out-of-domain arguments,
/// and `limit` bounds that form an empty interval.
fn check_const_arithmetic(model: &Model<'_>, diags: &mut Vec<Diagnostic>) {
    fn walk_expr(expr: &Expr<'_>, pos: Pos, diags: &mut Vec<Diagnostic>) {
        match expr {
            Expr::Binary(op, a, b) => {
                if *op == BinOp::Div && const_value(b) == Some(0.0) {
                    diags.push(Diagnostic::new(
                        Code::FasDivisionByZero,
                        "division by constant zero".to_string(),
                        source(pos),
                    ));
                }
                walk_expr(a, pos, diags);
                walk_expr(b, pos, diags);
            }
            Expr::Unary(_, e) | Expr::StateDt { arg: e, .. } | Expr::StateIdt { arg: e, .. } => {
                walk_expr(e, pos, diags)
            }
            Expr::StateDelayT { td, .. } => walk_expr(td, pos, diags),
            Expr::Call { func, args } => {
                match (*func, args.len()) {
                    ("sqrt", 1) if const_value(&args[0]).is_some_and(|v| v < 0.0) => {
                        diags.push(Diagnostic::new(
                            Code::FasDomainError,
                            "sqrt of a negative constant".to_string(),
                            source(pos),
                        ));
                    }
                    ("ln", 1) if const_value(&args[0]).is_some_and(|v| v <= 0.0) => {
                        diags.push(Diagnostic::new(
                            Code::FasDomainError,
                            "ln of a non-positive constant".to_string(),
                            source(pos),
                        ));
                    }
                    ("limit", 3) => {
                        if let (Some(lo), Some(hi)) = (const_value(&args[1]), const_value(&args[2]))
                        {
                            if lo > hi {
                                diags.push(Diagnostic::new(
                                    Code::FasDegenerateLimit,
                                    format!("limit interval is empty: min {lo} > max {hi}"),
                                    source(pos),
                                ));
                            }
                        }
                    }
                    _ => {}
                }
                for a in args {
                    walk_expr(a, pos, diags);
                }
            }
            Expr::Num(_) | Expr::Var(_) | Expr::PinValue { .. } | Expr::StateDelay { .. } => {}
        }
    }
    fn walk(stmts: &[Stmt<'_>], diags: &mut Vec<Diagnostic>) {
        for stmt in stmts {
            match stmt {
                Stmt::Make { expr, pos, .. } | Stmt::Impose { expr, pos, .. } => {
                    walk_expr(expr, *pos, diags)
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    pos,
                } => {
                    if let Cond::Cmp(_, a, b) = cond {
                        walk_expr(a, *pos, diags);
                        walk_expr(b, *pos, diags);
                    }
                    walk(then_branch, diags);
                    walk(else_branch, diags);
                }
            }
        }
    }
    walk(&model.body, diags);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_fas::parse;

    /// Findings of every pass on a model with the given body.
    fn lint(body: &str) -> Vec<Diagnostic> {
        let text = format!("model t pin(a, b) param(g=1.0) analog\n{body}\nendanalog endmodel\n");
        lint_fas(&parse(&text).unwrap())
    }

    #[test]
    fn clean_model_lints_clean() {
        let d = lint("make x = g * volt.value(a)\nmake curr.on(b) = x");
        assert!(d.is_empty());
    }

    #[test]
    fn use_before_def_detected_with_position() {
        let d = lint("make x = y\nmake y = g\nmake curr.on(b) = x + y");
        let ubd: Vec<_> = d
            .iter()
            .filter(|d| d.code == Code::FasUseBeforeDef)
            .collect();
        assert_eq!(ubd.len(), 1);
        assert!(ubd[0].message.contains("'y'"));
        assert!(matches!(ubd[0].location, Location::Source { line: 2, .. }));
    }

    #[test]
    fn state_delay_forward_reference_is_legal() {
        let d = lint("make x = state.delay(y)\nmake y = g\nmake curr.on(b) = x + y");
        assert!(!d.iter().any(|d| d.code == Code::FasUseBeforeDef), "{d:?}");
        assert!(
            !d.iter().any(|d| d.code == Code::FasUnusedVariable),
            "{d:?}"
        );
    }

    #[test]
    fn branch_only_definition_not_definite() {
        let d = lint("if (g > 0) then\nmake x = g\nendif\nmake curr.on(b) = x");
        assert!(d.iter().any(|d| d.code == Code::FasUseBeforeDef), "{d:?}");
    }

    #[test]
    fn both_branch_definition_is_definite() {
        let d = lint("if (g > 0) then\nmake x = g\nelse\nmake x = -g\nendif\nmake curr.on(b) = x");
        assert!(!d.iter().any(|d| d.code == Code::FasUseBeforeDef), "{d:?}");
    }

    #[test]
    fn unused_variable_detected() {
        let d = lint("make x = g\nmake unused = g + 1\nmake curr.on(b) = x");
        let unused: Vec<_> = d
            .iter()
            .filter(|d| d.code == Code::FasUnusedVariable)
            .collect();
        assert_eq!(unused.len(), 1);
        assert!(unused[0].message.contains("'unused'"));
    }

    #[test]
    fn dead_branch_detected() {
        let d = lint("make x = g\nif (1 > 2) then\nmake x = 0\nendif\nmake curr.on(b) = x");
        let dead: Vec<_> = d.iter().filter(|d| d.code == Code::FasDeadBranch).collect();
        assert_eq!(dead.len(), 1);
        assert!(dead[0].message.contains("always false"));
    }

    #[test]
    fn const_arithmetic_detected() {
        let d = lint(
            "make va = g / (2 - 2)\nmake vb = sqrt(-1)\nmake vc = limit(g, 5, 1)\nmake curr.on(b) = va + vb + vc",
        );
        assert!(d.iter().any(|d| d.code == Code::FasDivisionByZero), "{d:?}");
        assert!(d.iter().any(|d| d.code == Code::FasDomainError), "{d:?}");
        assert!(
            d.iter().any(|d| d.code == Code::FasDegenerateLimit),
            "{d:?}"
        );
    }
}
