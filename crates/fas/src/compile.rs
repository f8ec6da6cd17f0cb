//! Semantic analysis and lowering to an index-resolved executable form.

use crate::ast::{BinOp, Cond, Expr, Ident, Model, RelOp, Stmt, UnaryOp};
use crate::parser::parse;
use crate::FasError;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One-argument intrinsic functions; [`Lane::call1`](crate::dual::Lane::call1)
/// evaluates them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Func1 {
    Sin,
    Cos,
    Exp,
    Ln,
    Abs,
    Sqrt,
    Tanh,
    Atan,
}

/// Two-argument intrinsic functions; [`Lane::call2`](crate::dual::Lane::call2)
/// evaluates them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Func2 {
    Min,
    Max,
    Pow,
}

/// Index of an expression node in its body's [`CBody::exprs`].
pub type ExprId = usize;

/// Index-resolved expression node: the executable form the interpreter
/// walks and the bytecode compiler (`gabm-fasvm`) lowers further.
/// Operands are the ids of earlier nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub enum CExpr {
    Num(f64),
    Var(usize),
    Param(usize),
    PinValue(usize),
    Time,
    Temp,
    TimeStep,
    Neg(ExprId),
    Bin(BinOp, ExprId, ExprId),
    Call1(Func1, ExprId),
    Call2(Func2, ExprId, ExprId),
    Limit(ExprId, ExprId, ExprId),
    /// `state.dt(arg)` — time derivative instance `inst`.
    Dt {
        inst: usize,
        arg: ExprId,
    },
    /// `state.delay(var)` — the committed value of `var`.
    Delay {
        var: usize,
    },
    /// `state.delayt(var, td)` — `var` delayed by `td` seconds.
    DelayT {
        inst: usize,
        var: usize,
        td: ExprId,
    },
    /// `state.idt(arg)` — running integral instance `inst`.
    Idt {
        inst: usize,
        arg: ExprId,
    },
}

/// Index-resolved condition.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub enum CCond {
    ModeIs(bool),
    Cmp(RelOp, ExprId, ExprId),
}

/// Index-resolved statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum CStmt {
    Set(usize, ExprId),
    Impose(usize, ExprId),
    If(CCond, Vec<CStmt>, Vec<CStmt>),
}

/// Index-resolved analog body: the statements, and every expression
/// node they use in one array, each node after its operands.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CBody {
    /// Top-level statements.
    pub stmts: Vec<CStmt>,
    /// Expression nodes, indexed by [`ExprId`].
    pub exprs: Vec<CExpr>,
}

/// What the simulator sees of a compiled model besides its executable
/// body: shared by the interpreter's [`CompiledModel`] and the bytecode
/// VM's program, so one runtime shell serves both.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Model name.
    pub name: String,
    /// Pin names in device-pin order.
    pub pins: Vec<String>,
    /// Parameter names and defaults.
    pub params: Vec<(String, f64)>,
    /// Variable names in slot order.
    pub var_names: Vec<String>,
    /// Number of `state.dt` instances.
    pub n_dt: usize,
    /// Number of `state.idt` instances.
    pub n_idt: usize,
    /// The variable each `state.delayt` instance delays.
    pub delayt_vars: Vec<usize>,
}

impl Signature {
    /// Parameter values of an instance: the defaults, with `overrides`
    /// applied.
    ///
    /// # Errors
    ///
    /// [`FasError::Instantiate`] for overrides of undeclared parameters.
    pub fn param_values(&self, overrides: &BTreeMap<String, f64>) -> Result<Vec<f64>, FasError> {
        let mut values: Vec<f64> = self.params.iter().map(|(_, v)| *v).collect();
        for (name, value) in overrides {
            let idx = self
                .params
                .iter()
                .position(|(n, _)| n == name)
                .ok_or_else(|| {
                    FasError::Instantiate(format!("model {} has no parameter '{name}'", self.name))
                })?;
            values[idx] = *value;
        }
        Ok(values)
    }
}

/// A compiled FAS model, ready to instantiate as a simulator device.
///
/// Immutable and shared: clones, the bytecode compiled from it and every
/// instance hold the same signature and body.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    pub(crate) sig: Arc<Signature>,
    pub(crate) body: Arc<CBody>,
}

impl CompiledModel {
    /// Model name.
    pub fn name(&self) -> &str {
        &self.sig.name
    }

    /// Pin names in device-pin order.
    pub fn pins(&self) -> Vec<&str> {
        self.sig.pins.iter().map(String::as_str).collect()
    }

    /// Parameter names and defaults.
    pub fn params(&self) -> &[(String, f64)] {
        &self.sig.params
    }

    /// Variable names in slot order.
    pub fn var_names(&self) -> &[String] {
        &self.sig.var_names
    }

    /// Pins, parameters, variables and state instances.
    pub fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    /// Lowered analog body.
    pub fn body(&self) -> &CBody {
        &self.body
    }

    /// Instantiates the model with parameter overrides.
    ///
    /// # Errors
    ///
    /// [`FasError::Instantiate`] for overrides of undeclared parameters.
    pub fn instantiate(
        &self,
        overrides: &BTreeMap<String, f64>,
    ) -> Result<crate::machine::FasMachine, FasError> {
        crate::machine::FasRuntime::new(self.clone(), overrides)
    }
}

/// Parses and compiles a model file.
///
/// # Errors
///
/// Lexical, syntax or semantic errors.
pub fn compile(src: &str) -> Result<CompiledModel, FasError> {
    let model = parse(src)?;
    lower(&model)
}

/// Names no parameter may take and no `make` may assign, in the order
/// the shadowing check reports them.
const BUILTINS: [&str; 4] = ["time", "temp", "timestep", "mode"];
const ACROSS_PREFIXES: [&str; 3] = ["volt", "omega", "temp"];
const THROUGH_PREFIXES: [&str; 3] = ["curr", "torque", "heat"];

/// What a name reads as in expressions. Parameters and variables are
/// bound from the declarations and `make` targets; any other name is
/// resolved at its first read.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum Role {
    #[default]
    Unresolved,
    Param(usize),
    Var(usize),
    Time,
    Temp,
    TimeStep,
    Unknown,
}

/// Per-model name table, indexed by [`Ident::id`].
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    pin: Option<usize>,
    role: Role,
}

struct Lowerer {
    slots: Vec<Slot>,
    var_names: Vec<String>,
    delayt_vars: Vec<usize>,
    exprs: Vec<CExpr>,
}

fn lower(model: &Model<'_>) -> Result<CompiledModel, FasError> {
    let mut lw = Lowerer {
        slots: vec![Slot::default(); model.n_names],
        var_names: Vec::new(),
        delayt_vars: vec![0; model.n_delayt],
        exprs: Vec::new(),
    };
    for (i, p) in model.pins.iter().enumerate() {
        if lw.slots[p.id].pin.replace(i).is_some() {
            return Err(FasError::Semantic(format!("duplicate pin '{p}'")));
        }
    }
    for (i, (p, _)) in model.params.iter().enumerate() {
        let role = &mut lw.slots[p.id].role;
        if *role != Role::Unresolved {
            return Err(FasError::Semantic(format!("duplicate parameter '{p}'")));
        }
        *role = Role::Param(i);
    }
    if let Some(builtin) = BUILTINS
        .iter()
        .find(|b| model.params.iter().any(|(p, _)| p.text == **b))
    {
        return Err(FasError::Semantic(format!(
            "parameter '{builtin}' shadows a builtin"
        )));
    }
    collect_vars(&model.body, &mut lw)?;
    // Use-before-definition analysis (forward references allowed only in
    // state.delay / state.delayt).
    let mut order = Order {
        defined: vec![false; lw.var_names.len()],
    };
    order.stmts(&model.body, &mut lw)?;
    let stmts = lw.stmts(&model.body)?;
    Ok(CompiledModel {
        sig: Arc::new(Signature {
            name: model.name.to_string(),
            pins: model.pins.iter().map(|p| p.text.to_string()).collect(),
            params: model
                .params
                .iter()
                .map(|(p, v)| (p.text.to_string(), *v))
                .collect(),
            var_names: lw.var_names,
            n_dt: model.n_dt,
            n_idt: model.n_idt,
            delayt_vars: lw.delayt_vars,
        }),
        body: Arc::new(CBody {
            stmts,
            exprs: lw.exprs,
        }),
    })
}

/// Numbers the variables in order of their first `make`.
fn collect_vars(stmts: &[Stmt<'_>], lw: &mut Lowerer) -> Result<(), FasError> {
    for stmt in stmts {
        match stmt {
            Stmt::Make { var, .. } => {
                let role = &mut lw.slots[var.id].role;
                match *role {
                    Role::Param(_) => {
                        return Err(FasError::Semantic(format!(
                            "cannot assign to parameter '{var}'"
                        )))
                    }
                    Role::Var(_) => {}
                    _ if BUILTINS.contains(&var.text) => {
                        return Err(FasError::Semantic(format!(
                            "cannot assign to builtin '{var}'"
                        )))
                    }
                    _ => {
                        *role = Role::Var(lw.var_names.len());
                        lw.var_names.push(var.text.to_string());
                    }
                }
            }
            Stmt::Impose { .. } => {}
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_vars(then_branch, lw)?;
                collect_vars(else_branch, lw)?;
            }
        }
    }
    Ok(())
}

/// Definite-assignment state of the ordering check: `defined[v]` while
/// variable `v` is assigned on every path to the current statement.
struct Order {
    defined: Vec<bool>,
}

impl Order {
    fn stmts(&mut self, stmts: &[Stmt<'_>], lw: &mut Lowerer) -> Result<(), FasError> {
        for stmt in stmts {
            match stmt {
                Stmt::Make { var, expr, .. } => {
                    self.expr(expr, lw)?;
                    if let Role::Var(v) = lw.slots[var.id].role {
                        self.defined[v] = true;
                    }
                }
                Stmt::Impose { expr, .. } => self.expr(expr, lw)?,
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    if let Cond::Cmp(_, a, b) = cond {
                        self.expr(a, lw)?;
                        self.expr(b, lw)?;
                    }
                    // Each arm starts from the state before the `if`; only
                    // variables defined on both paths are definitely
                    // available afterwards.
                    let before = self.defined.clone();
                    self.stmts(then_branch, lw)?;
                    let after_then = std::mem::replace(&mut self.defined, before);
                    self.stmts(else_branch, lw)?;
                    for (d, t) in self.defined.iter_mut().zip(after_then) {
                        *d &= t;
                    }
                }
            }
        }
        Ok(())
    }

    fn expr(&mut self, expr: &Expr<'_>, lw: &mut Lowerer) -> Result<(), FasError> {
        match expr {
            Expr::Num(_) | Expr::PinValue { .. } => Ok(()),
            Expr::Var(name) => match lw.role(*name) {
                Role::Var(v) if !self.defined[v] => Err(FasError::Semantic(format!(
                    "variable '{name}' used before it is assigned (forward references are only legal inside state.delay)"
                ))),
                Role::Unknown => Err(unknown_identifier(name)),
                _ => Ok(()),
            },
            Expr::Unary(_, e) | Expr::StateDt { arg: e, .. } | Expr::StateIdt { arg: e, .. } => {
                self.expr(e, lw)
            }
            Expr::Binary(_, a, b) => {
                self.expr(a, lw)?;
                self.expr(b, lw)
            }
            Expr::Call { args, .. } => args.iter().try_for_each(|a| self.expr(a, lw)),
            // Forward references read committed state: legal as long as
            // the variable is assigned *somewhere* in the model.
            Expr::StateDelay { var } => lw.delayed(*var).map(drop),
            Expr::StateDelayT { var, td, .. } => {
                lw.delayed(*var)?;
                self.expr(td, lw)
            }
        }
    }
}

fn unknown_identifier(name: &Ident<'_>) -> FasError {
    FasError::Semantic(format!("unknown identifier '{name}'"))
}

impl Lowerer {
    /// What `name` reads as, resolving it on its first read.
    fn role(&mut self, name: Ident<'_>) -> Role {
        let role = &mut self.slots[name.id].role;
        if *role == Role::Unresolved {
            *role = match name.text {
                "time" => Role::Time,
                "temp" => Role::Temp,
                "timestep" => Role::TimeStep,
                _ => Role::Unknown,
            };
        }
        *role
    }

    /// The variable a `state.delay` / `state.delayt` reads.
    fn delayed(&self, var: Ident<'_>) -> Result<usize, FasError> {
        match self.slots[var.id].role {
            Role::Var(v) => Ok(v),
            _ => Err(FasError::Semantic(format!(
                "state.delay of unknown variable '{var}'"
            ))),
        }
    }

    /// The pin `pin` names.
    fn pin(&self, pin: Ident<'_>) -> Result<usize, FasError> {
        self.slots[pin.id]
            .pin
            .ok_or_else(|| FasError::Semantic(format!("undeclared pin '{pin}'")))
    }

    fn stmts(&mut self, stmts: &[Stmt<'_>]) -> Result<Vec<CStmt>, FasError> {
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.stmt(stmt)?);
        }
        Ok(out)
    }

    fn stmt(&mut self, stmt: &Stmt<'_>) -> Result<CStmt, FasError> {
        match stmt {
            Stmt::Make { var, expr, .. } => {
                let Role::Var(v) = self.slots[var.id].role else {
                    unreachable!("every make target is numbered by collect_vars")
                };
                Ok(CStmt::Set(v, self.expr(expr)?))
            }
            Stmt::Impose {
                quantity,
                pin,
                expr,
                ..
            } => {
                if !THROUGH_PREFIXES.contains(quantity) {
                    return Err(FasError::Semantic(format!(
                        "'{quantity}.on' is not a through-quantity imposition (expected one of {THROUGH_PREFIXES:?})"
                    )));
                }
                let pin = self.pin(*pin)?;
                Ok(CStmt::Impose(pin, self.expr(expr)?))
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let ccond = match cond {
                    Cond::ModeIs { dc } => CCond::ModeIs(*dc),
                    Cond::Cmp(op, a, b) => CCond::Cmp(*op, self.expr(a)?, self.expr(b)?),
                };
                Ok(CStmt::If(
                    ccond,
                    self.stmts(then_branch)?,
                    self.stmts(else_branch)?,
                ))
            }
        }
    }

    /// Appends an expression node.
    fn push(&mut self, e: CExpr) -> ExprId {
        self.exprs.push(e);
        self.exprs.len() - 1
    }

    /// Resolves a name read in an expression.
    fn name(&mut self, name: Ident<'_>) -> Result<CExpr, FasError> {
        Ok(match self.role(name) {
            Role::Param(p) => CExpr::Param(p),
            Role::Var(v) => CExpr::Var(v),
            Role::Time => CExpr::Time,
            Role::Temp => CExpr::Temp,
            Role::TimeStep => CExpr::TimeStep,
            Role::Unresolved | Role::Unknown => return Err(unknown_identifier(&name)),
        })
    }

    /// Resolves an across-quantity probe `quantity.value(pin)`.
    fn probe(&self, quantity: &str, pin: Ident<'_>) -> Result<CExpr, FasError> {
        if !ACROSS_PREFIXES.contains(&quantity) {
            return Err(FasError::Semantic(format!(
                "'{quantity}.value' is not an across-quantity probe (expected one of {ACROSS_PREFIXES:?})"
            )));
        }
        self.pin(pin).map(CExpr::PinValue)
    }

    /// Lowers `expr`, operands first, and returns its node. Recurses once
    /// per level of the expression tree, so it keeps its frame small:
    /// leaves resolve in helper methods, and a single `?` unwinds errors.
    fn expr(&mut self, expr: &Expr<'_>) -> Result<ExprId, FasError> {
        let node = match expr {
            Expr::Num(v) => CExpr::Num(*v),
            Expr::Var(name) => self.name(*name)?,
            Expr::PinValue { quantity, pin } => self.probe(quantity, *pin)?,
            Expr::Unary(UnaryOp::Neg, e) => CExpr::Neg(self.expr(e)?),
            Expr::Binary(op, a, b) => {
                let a = self.expr(a)?;
                CExpr::Bin(*op, a, self.expr(b)?)
            }
            Expr::Call { func, args } => self.call(func, args)?,
            Expr::StateDt { inst, arg } => CExpr::Dt {
                inst: *inst,
                arg: self.expr(arg)?,
            },
            Expr::StateDelay { var } => CExpr::Delay {
                var: self.delayed(*var)?,
            },
            Expr::StateDelayT { inst, var, td } => {
                let var = self.delayed(*var)?;
                self.delayt_vars[*inst] = var;
                CExpr::DelayT {
                    inst: *inst,
                    var,
                    td: self.expr(td)?,
                }
            }
            Expr::StateIdt { inst, arg } => CExpr::Idt {
                inst: *inst,
                arg: self.expr(arg)?,
            },
        };
        Ok(self.push(node))
    }

    fn call(&mut self, func: &str, args: &[Expr<'_>]) -> Result<CExpr, FasError> {
        let want = match func {
            "sin" | "cos" | "exp" | "ln" | "abs" | "sqrt" | "tanh" | "atan" => 1,
            "min" | "max" | "pow" => 2,
            "limit" => 3,
            other => return Err(FasError::Semantic(format!("unknown function '{other}'"))),
        };
        if args.len() != want {
            return Err(FasError::Semantic(format!(
                "function '{func}' takes {want} argument(s), got {}",
                args.len()
            )));
        }
        Ok(match func {
            "min" | "max" | "pow" => {
                let f = match func {
                    "min" => Func2::Min,
                    "max" => Func2::Max,
                    _ => Func2::Pow,
                };
                let a = self.expr(&args[0])?;
                CExpr::Call2(f, a, self.expr(&args[1])?)
            }
            "limit" => {
                let x = self.expr(&args[0])?;
                let lo = self.expr(&args[1])?;
                CExpr::Limit(x, lo, self.expr(&args[2])?)
            }
            _ => {
                let f = match func {
                    "sin" => Func1::Sin,
                    "cos" => Func1::Cos,
                    "exp" => Func1::Exp,
                    "ln" => Func1::Ln,
                    "abs" => Func1::Abs,
                    "sqrt" => Func1::Sqrt,
                    "tanh" => Func1::Tanh,
                    _ => Func1::Atan,
                };
                CExpr::Call1(f, self.expr(&args[0])?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(body: &str) -> String {
        format!("model m pin (a, b) param (g=1e-3)\nanalog\n{body}\nendanalog\nendmodel\n")
    }

    #[test]
    fn compiles_basic_model() {
        let m = compile(&wrap("make v = volt.value(a)\nmake curr.on(a) = g * v")).unwrap();
        assert_eq!(m.name(), "m");
        assert_eq!(m.pins(), ["a", "b"]);
        assert_eq!(m.params().len(), 1);
        assert_eq!(m.var_names(), ["v"]);
    }

    #[test]
    fn undeclared_pin_rejected() {
        assert!(compile(&wrap("make v = volt.value(zz)")).is_err());
        assert!(compile(&wrap("make curr.on(zz) = 1")).is_err());
    }

    #[test]
    fn use_before_def_rejected() {
        let err = compile(&wrap("make x = y\nmake y = 1")).unwrap_err();
        assert!(err.to_string().contains("before"), "{err}");
    }

    #[test]
    fn forward_reference_in_delay_allowed() {
        assert!(compile(&wrap("make x = state.delay(y)\nmake y = x + 1")).is_ok());
    }

    #[test]
    fn delay_of_unknown_var_rejected() {
        assert!(compile(&wrap("make x = state.delay(zz)")).is_err());
    }

    #[test]
    fn branch_definition_rules() {
        // Defined in both branches ⇒ usable after.
        assert!(compile(&wrap(
            "if (mode=dc) then\nmake x = 0\nelse\nmake x = 1\nendif\nmake y = x"
        ))
        .is_ok());
        // Defined only in one branch ⇒ not definitely assigned.
        assert!(compile(&wrap("if (mode=dc) then\nmake x = 0\nendif\nmake y = x")).is_err());
    }

    #[test]
    fn nested_branch_definitions_join() {
        // `x` and `u` are defined on every path, in different orders;
        // `w`, `y` and `v` on one arm only.
        let body = "if (mode=dc) then\n\
                    if (time > 1) then\nmake x = 1\nelse\nmake x = 2\nmake w = 0\nendif\n\
                    make y = 1\nmake u = 1\n\
                    else\nmake u = 2\nmake x = 3\nmake v = 4\nendif\n";
        for (tail, ok) in [
            ("make z = x + u", true),
            ("make z = y", false),
            ("make z = w", false),
            ("make z = v", false),
        ] {
            let result = compile(&wrap(&format!("{body}{tail}")));
            assert_eq!(result.is_ok(), ok, "{tail}: {result:?}");
        }
        // An `if` in the else arm joins its own arms only: the outer then
        // arm's definitions neither leak into it nor get dropped by it.
        for (body, ok) in [
            (
                "if (mode=dc) then\nmake x = 1\nelse\n\
                 if (time > 1) then\nmake x = 2\nelse\nmake x = 3\nendif\n\
                 endif\nmake z = x",
                true,
            ),
            (
                "if (mode=dc) then\nmake x = 1\nelse\n\
                 if (time > 1) then\nmake y = 0\nelse\nmake x = 2\nendif\n\
                 make z = x\nendif",
                false,
            ),
        ] {
            let result = compile(&wrap(body));
            assert_eq!(result.is_ok(), ok, "{body}: {result:?}");
        }
    }

    #[test]
    fn parameter_assignment_rejected() {
        assert!(compile(&wrap("make g = 1")).is_err());
        assert!(compile(&wrap("make time = 1")).is_err());
    }

    #[test]
    fn bad_prefixes_rejected() {
        assert!(compile(&wrap("make v = curr.value(a)")).is_err());
        assert!(compile(&wrap("make volt.on(a) = 1")).is_err());
    }

    #[test]
    fn arity_checked() {
        assert!(compile(&wrap("make x = sin(1, 2)")).is_err());
        assert!(compile(&wrap("make x = max(1)")).is_err());
        assert!(compile(&wrap("make x = limit(1, 2)")).is_err());
        assert!(compile(&wrap("make x = frobnicate(1)")).is_err());
    }

    #[test]
    fn instantiate_with_overrides() {
        let m = compile(&wrap("make v = volt.value(a)\nmake curr.on(a) = g * v")).unwrap();
        let mut o = BTreeMap::new();
        o.insert("g".to_string(), 2e-3);
        assert!(m.instantiate(&o).is_ok());
        let mut bad = BTreeMap::new();
        bad.insert("zz".to_string(), 1.0);
        assert!(m.instantiate(&bad).is_err());
    }

    #[test]
    fn func_eval_helpers() {
        use crate::dual::Lane;
        assert_eq!((-2.0).call1(Func1::Abs), 2.0);
        assert_eq!(1.0.call2(Func2::Max, 2.0), 2.0);
        assert_eq!(2.0.call2(Func2::Pow, 3.0), 8.0);
        assert!((100.0.call1(Func1::Tanh) - 1.0).abs() < 1e-12);
    }
}
