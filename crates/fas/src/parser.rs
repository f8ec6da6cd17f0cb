//! Recursive-descent parser for FAS model files.

use crate::ast::{BinOp, Cond, Expr, Ident, Model, RelOp, Stmt, UnaryOp};
use crate::lexer::{tokenize, Spanned, Token};
use crate::{FasError, Pos};
use std::collections::HashMap;

/// Deepest nesting the parser accepts: `if` statements, parentheses,
/// unary signs and function or `state.*` arguments may enclose one
/// another at most this many levels deep. The parser recurses once per
/// level. The repository's models nest at most eight levels deep.
pub const MAX_NESTING: usize = 64;

/// Highest expression tree the parser accepts, in nodes from root to
/// leaf. A chain of binary operators parses without recursion but
/// builds a tree one node higher per operator, so a sum of
/// `MAX_TREE_HEIGHT` terms is the longest chain. Every later stage
/// (lowering, lint passes, evaluation, printing) recurses once per node
/// of height; together with [`MAX_NESTING`] the bound keeps any
/// accepted model within a thread's stack. The highest tree in the
/// repository is the 301-node sum of the VM's register-capacity test.
pub const MAX_TREE_HEIGHT: usize = 512;

/// Parses one FAS model file.
///
/// # Errors
///
/// [`FasError::Lex`] / [`FasError::Parse`] with positions, including
/// input nested past [`MAX_NESTING`] or [`MAX_TREE_HEIGHT`].
pub fn parse(src: &str) -> Result<Model<'_>, FasError> {
    let mut p = Parser {
        tokens: tokenize(src)?,
        idx: 0,
        depth: 0,
        n_dt: 0,
        n_delayt: 0,
        n_idt: 0,
        // Far more than a model's distinct names: one allocation.
        names: NameTable::with_capacity(src.len() / 16),
    };
    p.model()
}

/// Name text → [`Ident::id`], for one model. The names come from
/// outside the program, so the map keeps the default (keyed) hasher.
type NameTable<'src> = HashMap<&'src str, usize>;

struct Parser<'src> {
    /// The tokens, ending with [`Token::Eof`].
    tokens: Vec<Spanned<'src>>,
    /// Index of the current token.
    idx: usize,
    /// Enclosing `if`s and open sub-expressions at the current token.
    depth: usize,
    n_dt: usize,
    n_delayt: usize,
    n_idt: usize,
    names: NameTable<'src>,
}

/// A parsed expression and the height of its tree (a leaf is 1).
type Sub<'src> = (Expr<'src>, usize);

impl<'src> Parser<'src> {
    fn peek(&self) -> Token<'src> {
        self.tokens[self.idx].token
    }

    fn pos(&self) -> Pos {
        self.tokens[self.idx].pos
    }

    fn bump(&mut self) -> Token<'src> {
        let t = self.peek();
        if self.idx + 1 < self.tokens.len() {
            self.idx += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, FasError> {
        Err(FasError::Parse {
            pos: self.pos(),
            message: message.into(),
        })
    }

    /// Runs `parse` one nesting level deeper, rejecting the current
    /// token past [`MAX_NESTING`] before the recursion can exhaust the
    /// stack.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, FasError>,
    ) -> Result<T, FasError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nested deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// Height of a new expression node over children at most `h` high,
    /// rejected at `pos` past [`MAX_TREE_HEIGHT`].
    fn node(h: usize, pos: Pos) -> Result<usize, FasError> {
        if h >= MAX_TREE_HEIGHT {
            return Err(FasError::Parse {
                pos,
                message: format!("expression tree higher than {MAX_TREE_HEIGHT} nodes"),
            });
        }
        Ok(h + 1)
    }

    fn expect(&mut self, want: Token<'_>, what: &str) -> Result<(), FasError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {what}, found {}", self.peek()))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), FasError> {
        if self.peek().is_ident(kw) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected '{kw}', found {}", self.peek()))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'src str, FasError> {
        match self.peek() {
            Token::Ident(text) => {
                self.bump();
                Ok(text)
            }
            other => self.err(format!("expected {what}, found {other}")),
        }
    }

    /// An identifier naming a pin, parameter or variable, numbered in the
    /// model's name table.
    fn name(&mut self, what: &str) -> Result<Ident<'src>, FasError> {
        let text = self.ident(what)?;
        Ok(self.intern(text))
    }

    fn intern(&mut self, text: &'src str) -> Ident<'src> {
        let next = self.names.len();
        let id = *self.names.entry(text).or_insert(next);
        Ident { text, id }
    }

    fn number(&mut self) -> Result<f64, FasError> {
        let neg = if self.peek() == Token::Minus {
            self.bump();
            true
        } else {
            false
        };
        match self.peek() {
            Token::Number { value, .. } => {
                self.bump();
                Ok(if neg { -value } else { value })
            }
            _ => self.err("expected number"),
        }
    }

    fn model(&mut self) -> Result<Model<'src>, FasError> {
        self.expect_keyword("model")?;
        let name = self.ident("model name")?;
        self.expect_keyword("pin")?;
        self.expect(Token::LParen, "'('")?;
        let mut pins = vec![self.name("pin name")?];
        while self.peek() == Token::Comma {
            self.bump();
            pins.push(self.name("pin name")?);
        }
        self.expect(Token::RParen, "')'")?;
        let mut params = Vec::new();
        if self.peek().is_ident("param") {
            self.bump();
            self.expect(Token::LParen, "'('")?;
            loop {
                let pname = self.name("parameter name")?;
                self.expect(Token::Eq, "'='")?;
                let value = self.number()?;
                params.push((pname, value));
                if self.peek() == Token::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(Token::RParen, "')'")?;
        }
        self.expect_keyword("analog")?;
        let body = self.statements(&["endanalog"])?;
        self.expect_keyword("endanalog")?;
        self.expect_keyword("endmodel")?;
        if self.peek() != Token::Eof {
            return self.err("trailing input after endmodel");
        }
        Ok(Model {
            name,
            pins,
            params,
            body,
            n_dt: self.n_dt,
            n_delayt: self.n_delayt,
            n_idt: self.n_idt,
            n_names: self.names.len(),
        })
    }

    /// Parses statements until one of the stop keywords (not consumed).
    fn statements(&mut self, stops: &[&str]) -> Result<Vec<Stmt<'src>>, FasError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Token::Ident(kw) if stops.contains(&kw) => return Ok(out),
                Token::Ident("make") => {
                    let pos = self.pos();
                    self.bump();
                    out.push(self.make_stmt(pos)?);
                }
                Token::Ident("if") => {
                    let pos = self.pos();
                    out.push(self.nested(|p| {
                        p.bump();
                        p.if_stmt(pos)
                    })?);
                }
                Token::Eof => return self.err("unexpected end of file inside analog body"),
                other => return self.err(format!("expected statement, found {other}")),
            }
        }
    }

    fn make_stmt(&mut self, pos: Pos) -> Result<Stmt<'src>, FasError> {
        let first = self.ident("variable or access prefix")?;
        if self.peek() == Token::Dot {
            // make curr.on(pin) = expr
            self.bump();
            self.expect_keyword("on")?;
            self.expect(Token::LParen, "'('")?;
            let pin = self.name("pin name")?;
            self.expect(Token::RParen, "')'")?;
            self.expect(Token::Eq, "'='")?;
            let (expr, _) = self.expr()?;
            Ok(Stmt::Impose {
                quantity: first,
                pin,
                expr,
                pos,
            })
        } else {
            let var = self.intern(first);
            self.expect(Token::Eq, "'='")?;
            let (expr, _) = self.expr()?;
            Ok(Stmt::Make { var, expr, pos })
        }
    }

    fn if_stmt(&mut self, pos: Pos) -> Result<Stmt<'src>, FasError> {
        self.expect(Token::LParen, "'('")?;
        let cond = self.condition()?;
        self.expect(Token::RParen, "')'")?;
        self.expect_keyword("then")?;
        let then_branch = self.statements(&["else", "endif"])?;
        let else_branch = if self.peek().is_ident("else") {
            self.bump();
            self.statements(&["endif"])?
        } else {
            Vec::new()
        };
        self.expect_keyword("endif")?;
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            pos,
        })
    }

    fn condition(&mut self) -> Result<Cond<'src>, FasError> {
        if self.peek().is_ident("mode") {
            self.bump();
            self.expect(Token::Eq, "'='")?;
            let mode = self.ident("'dc' or 'tran'")?;
            return match mode {
                "dc" => Ok(Cond::ModeIs { dc: true }),
                "tran" => Ok(Cond::ModeIs { dc: false }),
                other => self.err(format!("unknown mode '{other}'")),
            };
        }
        let (lhs, _) = self.expr()?;
        let op = match self.bump() {
            Token::Eq => RelOp::Eq,
            Token::Ne => RelOp::Ne,
            Token::Lt => RelOp::Lt,
            Token::Le => RelOp::Le,
            Token::Gt => RelOp::Gt,
            Token::Ge => RelOp::Ge,
            other => return self.err(format!("expected comparison operator, found {other}")),
        };
        let (rhs, _) = self.expr()?;
        Ok(Cond::Cmp(op, lhs, rhs))
    }

    fn expr(&mut self) -> Result<Sub<'src>, FasError> {
        let (mut lhs, mut h) = self.term()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => return Ok((lhs, h)),
            };
            let pos = self.pos();
            self.bump();
            let (rhs, rh) = self.term()?;
            h = Self::node(h.max(rh), pos)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn term(&mut self) -> Result<Sub<'src>, FasError> {
        let (mut lhs, mut h) = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                _ => return Ok((lhs, h)),
            };
            let pos = self.pos();
            self.bump();
            let (rhs, rh) = self.unary()?;
            h = Self::node(h.max(rh), pos)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    /// Every recursion into a sub-expression passes through here, so
    /// this is where the nesting depth is counted.
    fn unary(&mut self) -> Result<Sub<'src>, FasError> {
        self.nested(|p| {
            let pos = p.pos();
            match p.peek() {
                Token::Minus => {
                    p.bump();
                    let (inner, h) = p.unary()?;
                    Ok((
                        Expr::Unary(UnaryOp::Neg, Box::new(inner)),
                        Self::node(h, pos)?,
                    ))
                }
                Token::Plus => {
                    p.bump();
                    p.unary()
                }
                _ => p.primary(),
            }
        })
    }

    fn primary(&mut self) -> Result<Sub<'src>, FasError> {
        let pos = self.pos();
        match self.peek() {
            Token::Number { value, .. } => {
                self.bump();
                Ok((Expr::Num(value), 1))
            }
            Token::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Token::RParen, "')'")?;
                Ok(e)
            }
            Token::Ident(name) => {
                self.bump();
                match self.peek() {
                    Token::Dot => {
                        self.bump();
                        let method = self.ident("access method")?;
                        if name == "state" {
                            self.state_access(method, pos)
                        } else if method == "value" {
                            self.expect(Token::LParen, "'('")?;
                            let pin = self.name("pin name")?;
                            self.expect(Token::RParen, "')'")?;
                            Ok((
                                Expr::PinValue {
                                    quantity: name,
                                    pin,
                                },
                                1,
                            ))
                        } else {
                            self.err(format!("unknown access '{name}.{method}'"))
                        }
                    }
                    Token::LParen => {
                        self.bump();
                        let (first, mut h) = self.expr()?;
                        let mut args = vec![first];
                        while self.peek() == Token::Comma {
                            self.bump();
                            let (arg, ah) = self.expr()?;
                            args.push(arg);
                            h = h.max(ah);
                        }
                        self.expect(Token::RParen, "')'")?;
                        Ok((Expr::Call { func: name, args }, Self::node(h, pos)?))
                    }
                    _ => Ok((Expr::Var(self.intern(name)), 1)),
                }
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }

    fn state_access(&mut self, method: &str, pos: Pos) -> Result<Sub<'src>, FasError> {
        self.expect(Token::LParen, "'('")?;
        let (expr, h) = match method {
            "dt" => {
                let (arg, h) = self.expr()?;
                let inst = self.n_dt;
                self.n_dt += 1;
                (
                    Expr::StateDt {
                        inst,
                        arg: Box::new(arg),
                    },
                    h,
                )
            }
            "delay" => {
                let var = self.name("delayed variable")?;
                (Expr::StateDelay { var }, 0)
            }
            "delayt" => {
                let var = self.name("delayed variable")?;
                self.expect(Token::Comma, "','")?;
                let (td, h) = self.expr()?;
                let inst = self.n_delayt;
                self.n_delayt += 1;
                (
                    Expr::StateDelayT {
                        inst,
                        var,
                        td: Box::new(td),
                    },
                    h,
                )
            }
            "idt" => {
                let (arg, h) = self.expr()?;
                let inst = self.n_idt;
                self.n_idt += 1;
                (
                    Expr::StateIdt {
                        inst,
                        arg: Box::new(arg),
                    },
                    h,
                )
            }
            other => return self.err(format!("unknown state access 'state.{other}'")),
        };
        self.expect(Token::RParen, "')'")?;
        Ok((expr, Self::node(h, pos)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INPUT_STAGE: &str = "\
model input_stage pin (in) param (gin=1e-6, cin=5e-12)
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
endmodel
";

    #[test]
    fn parses_paper_listing() {
        let m = parse(INPUT_STAGE).unwrap();
        assert_eq!(m.name, "input_stage");
        assert_eq!(m.pins.iter().map(|p| p.text).collect::<Vec<_>>(), ["in"]);
        let params: Vec<_> = m.params.iter().map(|(p, v)| (p.text, *v)).collect();
        assert_eq!(params, [("gin", 1e-6), ("cin", 5e-12)]);
        // One id per distinct name: in, gin, cin, v2, yd4, yout5..yout7.
        assert_eq!(m.n_names, 8);
        assert_eq!(m.body.len(), 6);
        assert_eq!(m.n_dt, 1);
        match &m.body[0] {
            Stmt::Make { var, expr, .. } => {
                assert_eq!(var.text, "v2");
                match expr {
                    Expr::PinValue { quantity, pin } => {
                        assert_eq!((*quantity, pin.text), ("volt", "in"));
                        // The pin reference shares the declaration's id.
                        assert_eq!(pin.id, m.pins[0].id);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        match &m.body[1] {
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                assert_eq!(*cond, Cond::ModeIs { dc: true });
                assert_eq!(then_branch.len(), 1);
                assert_eq!(else_branch.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match m.body.last().unwrap() {
            Stmt::Impose { quantity, pin, .. } => {
                assert_eq!(*quantity, "curr");
                assert_eq!(pin.text, "in");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let m =
            parse("model m pin (a)\nanalog\nmake x = 1 + 2 * 3\nendanalog\nendmodel\n").unwrap();
        match &m.body[0] {
            Stmt::Make { expr, .. } => match expr {
                Expr::Binary(BinOp::Add, l, r) => {
                    assert_eq!(**l, Expr::Num(1.0));
                    assert!(matches!(**r, Expr::Binary(BinOp::Mul, _, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unary_minus_and_parens() {
        let m = parse("model m pin (a)\nanalog\nmake x = -(1 + 2) / -3\nendanalog\nendmodel\n")
            .unwrap();
        assert_eq!(m.body.len(), 1);
    }

    #[test]
    fn function_calls() {
        let m = parse(
            "model m pin (a)\nanalog\nmake x = limit(sin(time), -1, max(0, 1))\nendanalog\nendmodel\n",
        )
        .unwrap();
        match &m.body[0] {
            Stmt::Make { expr, .. } => match expr {
                Expr::Call { func, args } => {
                    assert_eq!(*func, "limit");
                    assert_eq!(args.len(), 3);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn state_delay_forms() {
        let m = parse(
            "model m pin (a)\nanalog\nmake y = state.delay(y) + state.delayt(y, 1e-6) + state.idt(y)\nendanalog\nendmodel\n",
        )
        .unwrap();
        assert_eq!(m.n_delayt, 1);
        assert_eq!(m.n_idt, 1);
    }

    #[test]
    fn comparison_conditions() {
        let m = parse(
            "model m pin (a)\nanalog\nif (volt.value(a) > 2.5) then\nmake x = 1\nelse\nmake x = 0\nendif\nendanalog\nendmodel\n",
        )
        .unwrap();
        match &m.body[0] {
            Stmt::If { cond, .. } => assert!(matches!(cond, Cond::Cmp(RelOp::Gt, _, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_if() {
        let m = parse(
            "model m pin (a)\nanalog\nif (mode=tran) then\nif (time > 1) then\nmake x = 1\nendif\nendif\nendanalog\nendmodel\n",
        )
        .unwrap();
        assert_eq!(m.body.len(), 1);
    }

    #[test]
    fn parse_errors() {
        assert!(parse("model m\n").is_err());
        assert!(parse("model m pin (a)\nanalog\nmake = 1\nendanalog\nendmodel\n").is_err());
        assert!(
            parse("model m pin (a)\nanalog\nmake x = state.zz(y)\nendanalog\nendmodel\n").is_err()
        );
        assert!(parse("model m pin (a)\nanalog\nmake x = 1\nendanalog\nendmodel\nextra").is_err());
        assert!(parse(
            "model m pin (a)\nanalog\nif (mode=ac) then\nmake x=1\nendif\nendanalog\nendmodel\n"
        )
        .is_err());
        assert!(parse("model m pin (a)\nanalog\nmake x = 1\n").is_err());
    }

    #[test]
    fn parse_errors_name_the_token_by_its_source_text() {
        let model = |body: &str| format!("model m pin (a)\nanalog\n{body}\nendmodel\n");
        let cases = [
            (
                model("make x = (1\nendanalog"),
                (4, 1),
                "expected ')', found 'endanalog'",
            ),
            (
                model("make x = 1 +\n) endanalog"),
                (4, 1),
                "expected expression, found ')'",
            ),
            (
                "model m pin (a".to_string(),
                (2, 1),
                "expected ')', found end of input",
            ),
            (
                model("make 2.50 = x\nendanalog"),
                (3, 6),
                "expected variable or access prefix, found '2.50'",
            ),
        ];
        for (src, (line, col), want) in cases {
            match parse(&src) {
                Err(FasError::Parse { pos, message }) => {
                    assert_eq!((pos, message.as_str()), (Pos { line, col }, want));
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn nesting_past_the_bound_is_a_located_error() {
        let model =
            |body: String| format!("model m pin (a)\nanalog\n{body}\nendanalog\nendmodel\n");
        let (ifs, endifs) = ("if (mode=dc) then\n", "endif\n");
        let too_deep = "nested deeper than 64 levels";
        // `make x = ` puts the expression at column 10.
        let cases = [
            (
                model(format!(
                    "make x = {}1{}",
                    "(".repeat(10_000),
                    ")".repeat(10_000)
                )),
                (3, 10 + MAX_NESTING),
                too_deep,
            ),
            (
                model(format!("make x = {}1", "-".repeat(30_000))),
                (3, 10 + MAX_NESTING),
                too_deep,
            ),
            // The `+` that makes the tree one node too high.
            (
                model(format!("make x = {}", vec!["1"; 50_000].join(" + "))),
                (3, 8 + 4 * MAX_TREE_HEIGHT),
                "expression tree higher than 512 nodes",
            ),
            (
                model(format!(
                    "{}make x = 1\n{}",
                    ifs.repeat(50_000),
                    endifs.repeat(50_000)
                )),
                (3 + MAX_NESTING, 1),
                too_deep,
            ),
        ];
        for (src, (line, col), want) in cases {
            match parse(&src) {
                Err(FasError::Parse { pos, message }) => {
                    assert_eq!((pos, message.as_str()), (Pos { line, col }, want));
                }
                other => panic!("expected a nesting error, got {other:?}"),
            }
        }
        // At the bounds everything parses.
        let chain = model(format!(
            "make x = {}",
            vec!["1"; MAX_TREE_HEIGHT].join(" + ")
        ));
        assert!(parse(&chain).is_ok());
        let deep = MAX_NESTING - 1;
        let deep_ifs = model(format!(
            "{}make x = 1\n{}",
            ifs.repeat(deep),
            endifs.repeat(deep)
        ));
        assert!(parse(&deep_ifs).is_ok());
    }

    #[test]
    fn multiple_pins_and_no_params() {
        let m = parse("model m pin (a, b, c)\nanalog\nmake x = 1\nendanalog\nendmodel\n").unwrap();
        assert_eq!(m.pins.len(), 3);
        assert!(m.params.is_empty());
    }

    #[test]
    fn negative_param_default() {
        let m = parse("model m pin (a) param (v=-2.5)\nanalog\nmake x = v\nendanalog\nendmodel\n")
            .unwrap();
        assert_eq!(m.params[0].1, -2.5);
    }
}
