//! Abstract syntax tree of a FAS model.
//!
//! The tree borrows every name from the source text it was parsed from
//! (`'src`). The parser numbers the names of pins, parameters and
//! variables as it meets them ([`Ident::id`]), so later stages resolve a
//! name by indexing a per-model table instead of hashing its text.

use crate::Pos;
use std::fmt;

/// A pin, parameter, variable or builtin name, as written in the source.
///
/// Every occurrence of the same text in one model carries the same
/// [`id`](Ident::id). Equality compares the text only: ids number one
/// model's names and mean nothing across models.
#[derive(Debug, Clone, Copy)]
pub struct Ident<'src> {
    /// The name's source text.
    pub text: &'src str,
    /// Index of the name in its model's name table, in order of first
    /// appearance (below [`Model::n_names`]).
    pub id: usize,
}

impl PartialEq for Ident<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl fmt::Display for Ident<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Comparison operators in conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOp {
    /// `=`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

impl RelOp {
    /// Applies the comparison.
    pub fn apply(self, a: f64, b: f64) -> bool {
        match self {
            RelOp::Eq => a == b,
            RelOp::Ne => a != b,
            RelOp::Lt => a < b,
            RelOp::Le => a <= b,
            RelOp::Gt => a > b,
            RelOp::Ge => a >= b,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'src> {
    /// Numeric literal.
    Num(f64),
    /// Variable / parameter / builtin reference.
    Var(Ident<'src>),
    /// Pin access such as `volt.value(in)`.
    PinValue {
        /// Access prefix (`volt`, `omega`, `temp`).
        quantity: &'src str,
        /// Pin name.
        pin: Ident<'src>,
    },
    /// Unary operation.
    Unary(UnaryOp, Box<Expr<'src>>),
    /// Binary operation.
    Binary(BinOp, Box<Expr<'src>>, Box<Expr<'src>>),
    /// Intrinsic function call (`sin`, `limit`, `max`, …).
    Call {
        /// Function name.
        func: &'src str,
        /// Arguments.
        args: Vec<Expr<'src>>,
    },
    /// `state.dt(expr)` — time derivative.
    StateDt {
        /// Per-model instance index (assigned by the parser).
        inst: usize,
        /// Differentiated expression.
        arg: Box<Expr<'src>>,
    },
    /// `state.delay(var)` — value of `var` at the previous accepted point.
    StateDelay {
        /// Delayed variable name.
        var: Ident<'src>,
    },
    /// `state.delayt(var, td)` — value of `var` a fixed time ago.
    StateDelayT {
        /// Instance index.
        inst: usize,
        /// Delayed variable name.
        var: Ident<'src>,
        /// Delay time expression.
        td: Box<Expr<'src>>,
    },
    /// `state.idt(expr)` — running time integral.
    StateIdt {
        /// Instance index.
        inst: usize,
        /// Integrated expression.
        arg: Box<Expr<'src>>,
    },
}

/// A condition of an `if` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond<'src> {
    /// `mode = dc` (`true`) or `mode = tran` (`false`).
    ModeIs {
        /// Whether the tested mode is DC.
        dc: bool,
    },
    /// Numeric comparison.
    Cmp(RelOp, Expr<'src>, Expr<'src>),
}

/// A statement of the analog body.
///
/// Every variant carries the source position of its first token so that
/// diagnostics (`gabm-lint`) can point back into the listing. Positions are
/// deliberately excluded from equality: a printed-and-reparsed model
/// compares equal to the original even though the layout moved.
#[derive(Debug, Clone)]
pub enum Stmt<'src> {
    /// `make var = expr`.
    Make {
        /// Target variable.
        var: Ident<'src>,
        /// Value expression.
        expr: Expr<'src>,
        /// Source position of the statement.
        pos: Pos,
    },
    /// `make curr.on(pin) = expr` — impose a through quantity.
    Impose {
        /// Access prefix (`curr`, `torque`, `heat`).
        quantity: &'src str,
        /// Pin name.
        pin: Ident<'src>,
        /// Imposed expression.
        expr: Expr<'src>,
        /// Source position of the statement.
        pos: Pos,
    },
    /// `if (cond) then … [else …] endif`.
    If {
        /// Branch condition.
        cond: Cond<'src>,
        /// Taken when the condition holds.
        then_branch: Vec<Stmt<'src>>,
        /// Taken otherwise.
        else_branch: Vec<Stmt<'src>>,
        /// Source position of the statement.
        pos: Pos,
    },
}

impl Stmt<'_> {
    /// Source position of the statement's first token.
    pub fn pos(&self) -> Pos {
        match self {
            Stmt::Make { pos, .. } | Stmt::Impose { pos, .. } | Stmt::If { pos, .. } => *pos,
        }
    }
}

// Positions are presentation metadata, not meaning: two models with the
// same statements at different places in the file are the same model.
impl PartialEq for Stmt<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Stmt::Make { var, expr, pos: _ },
                Stmt::Make {
                    var: v2,
                    expr: e2,
                    pos: _,
                },
            ) => var == v2 && expr == e2,
            (
                Stmt::Impose {
                    quantity,
                    pin,
                    expr,
                    pos: _,
                },
                Stmt::Impose {
                    quantity: q2,
                    pin: p2,
                    expr: e2,
                    pos: _,
                },
            ) => quantity == q2 && pin == p2 && expr == e2,
            (
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    pos: _,
                },
                Stmt::If {
                    cond: c2,
                    then_branch: t2,
                    else_branch: e2,
                    pos: _,
                },
            ) => cond == c2 && then_branch == t2 && else_branch == e2,
            _ => false,
        }
    }
}

/// A parsed model file.
#[derive(Debug, Clone, PartialEq)]
pub struct Model<'src> {
    /// Model name.
    pub name: &'src str,
    /// Pin names in declaration order (= device pin order).
    pub pins: Vec<Ident<'src>>,
    /// Parameters with default values.
    pub params: Vec<(Ident<'src>, f64)>,
    /// Analog body statements.
    pub body: Vec<Stmt<'src>>,
    /// Number of `state.dt` instances.
    pub n_dt: usize,
    /// Number of `state.delayt` instances.
    pub n_delayt: usize,
    /// Number of `state.idt` instances.
    pub n_idt: usize,
    /// Number of distinct names ([`Ident::id`] is below it).
    pub n_names: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relop_apply() {
        assert!(RelOp::Eq.apply(1.0, 1.0));
        assert!(RelOp::Ne.apply(1.0, 2.0));
        assert!(RelOp::Lt.apply(1.0, 2.0));
        assert!(RelOp::Le.apply(2.0, 2.0));
        assert!(RelOp::Gt.apply(3.0, 2.0));
        assert!(RelOp::Ge.apply(2.0, 2.0));
        assert!(!RelOp::Lt.apply(2.0, 1.0));
    }
}
