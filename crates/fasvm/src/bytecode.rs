//! Flat register bytecode: the executable form of a compiled FAS model.
//!
//! Registers are a fixed `f64` file indexed by `u8` (≤ 256 live values —
//! enforced by the allocator). Control flow is forward-only (`FAS` has no
//! loops), so `Jump*` targets are absolute instruction indices that always
//! point past the current instruction.

use gabm_fas::ast::RelOp;
use gabm_fas::compile::{Func1, Func2, Signature};
use gabm_fas::machine::FasRuntime;
use gabm_fas::FasError;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// One bytecode instruction.
///
/// `dst`/`a`/`b`/… are register indices; `k` indexes the constant pool;
/// `var`/`p`/`inst` index the model's variable/parameter/state tables.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub enum Op {
    /// `r[dst] = consts[k]`.
    Const {
        dst: u8,
        k: u16,
    },
    /// `r[dst] = pin_voltages[pin]` (a tangent seed in the dual lane).
    LoadPin {
        dst: u8,
        pin: u8,
    },
    /// `r[dst] = params[p]`.
    LoadParam {
        dst: u8,
        p: u16,
    },
    /// `r[dst] = scratch.vars[var]` (pass-local variable value).
    LoadScratch {
        dst: u8,
        var: u16,
    },
    /// `r[dst] = committed_vars[var]` (`state.delay`).
    LoadCommitted {
        dst: u8,
        var: u16,
    },
    LoadTime {
        dst: u8,
    },
    LoadTemp {
        dst: u8,
    },
    /// `r[dst] = dt_effective()` (`timestep`).
    LoadTimeStep {
        dst: u8,
    },
    Neg {
        dst: u8,
        a: u8,
    },
    Add {
        dst: u8,
        a: u8,
        b: u8,
    },
    Sub {
        dst: u8,
        a: u8,
        b: u8,
    },
    Mul {
        dst: u8,
        a: u8,
        b: u8,
    },
    Div {
        dst: u8,
        a: u8,
        b: u8,
    },
    Call1 {
        dst: u8,
        f: Func1,
        a: u8,
    },
    Call2 {
        dst: u8,
        f: Func2,
        a: u8,
        b: u8,
    },
    Limit {
        dst: u8,
        x: u8,
        lo: u8,
        hi: u8,
    },
    /// `state.dt` instance `inst`: records `r[a]`, yields the derivative.
    Dt {
        dst: u8,
        inst: u16,
        a: u8,
    },
    /// `state.delayt` instance `inst` of variable `var`, delay `r[td]`.
    DelayT {
        dst: u8,
        inst: u16,
        var: u16,
        td: u8,
    },
    /// `state.idt` instance `inst`: records `r[a]`, yields the integral.
    Idt {
        dst: u8,
        inst: u16,
        a: u8,
    },
    /// `scratch.vars[var] = r[src]`; marks the variable assigned.
    StoreVar {
        var: u16,
        src: u8,
    },
    /// `imposed[pin] += r[src]`.
    Impose {
        pin: u8,
        src: u8,
    },
    Jump {
        target: u16,
    },
    /// Falls through when `op(r[a], r[b])` holds, jumps otherwise.
    JumpIfNot {
        op: RelOp,
        a: u8,
        b: u8,
        target: u16,
    },
    /// Falls through when the evaluation mode matches `dc`.
    JumpIfModeNot {
        dc: bool,
        target: u16,
    },
}

/// A compiled FAS bytecode program: the VM equivalent of
/// [`gabm_fas::CompiledModel`]. Immutable; instantiate per device with
/// [`Program::instantiate`]. Clones and instances share the code and the
/// model's signature.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) sig: Arc<Signature>,
    pub(crate) consts: Arc<[f64]>,
    pub(crate) ops: Arc<[Op]>,
    pub(crate) n_regs: usize,
}

impl Program {
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

    /// Instruction count.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Physical registers used.
    pub fn reg_count(&self) -> usize {
        self.n_regs
    }

    /// Instantiates the program as an executable VM device.
    ///
    /// # Errors
    ///
    /// [`FasError::Instantiate`] for overrides of undeclared parameters
    /// (identical validation to the interpreter path).
    pub fn instantiate(&self, overrides: &BTreeMap<String, f64>) -> Result<crate::FasVm, FasError> {
        FasRuntime::new(self.clone(), overrides)
    }

    /// Renders a human-readable listing (the `gabm compile --disasm`
    /// output; kept stable because CI goldens it).
    pub fn disasm(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; model {}: {} pins, {} params, {} vars",
            self.sig.name,
            self.sig.pins.len(),
            self.sig.params.len(),
            self.sig.var_names.len()
        );
        let _ = writeln!(
            out,
            "; {} ops, {} regs, {} consts, state: {} dt / {} idt / {} delayt",
            self.ops.len(),
            self.n_regs,
            self.consts.len(),
            self.sig.n_dt,
            self.sig.n_idt,
            self.sig.delayt_vars.len()
        );
        for (pc, op) in self.ops.iter().enumerate() {
            let _ = writeln!(out, "{:4}: {}", pc, self.fmt_op(op));
        }
        out
    }

    fn fmt_op(&self, op: &Op) -> String {
        let var = |i: u16| self.sig.var_names[i as usize].clone();
        match *op {
            Op::Const { dst, k } => {
                format!("r{dst} <- const {:?}", self.consts[k as usize])
            }
            Op::LoadPin { dst, pin } => {
                format!("r{dst} <- pin {}", self.sig.pins[pin as usize])
            }
            Op::LoadParam { dst, p } => {
                format!("r{dst} <- param {}", self.sig.params[p as usize].0)
            }
            Op::LoadScratch { dst, var: v } => format!("r{dst} <- var {}", var(v)),
            Op::LoadCommitted { dst, var: v } => {
                format!("r{dst} <- delay {}", var(v))
            }
            Op::LoadTime { dst } => format!("r{dst} <- time"),
            Op::LoadTemp { dst } => format!("r{dst} <- temp"),
            Op::LoadTimeStep { dst } => format!("r{dst} <- timestep"),
            Op::Neg { dst, a } => format!("r{dst} <- neg r{a}"),
            Op::Add { dst, a, b } => format!("r{dst} <- add r{a}, r{b}"),
            Op::Sub { dst, a, b } => format!("r{dst} <- sub r{a}, r{b}"),
            Op::Mul { dst, a, b } => format!("r{dst} <- mul r{a}, r{b}"),
            Op::Div { dst, a, b } => format!("r{dst} <- div r{a}, r{b}"),
            Op::Call1 { dst, f, a } => {
                format!("r{dst} <- {} r{a}", format!("{f:?}").to_lowercase())
            }
            Op::Call2 { dst, f, a, b } => {
                format!("r{dst} <- {} r{a}, r{b}", format!("{f:?}").to_lowercase())
            }
            Op::Limit { dst, x, lo, hi } => {
                format!("r{dst} <- limit r{x}, r{lo}, r{hi}")
            }
            Op::Dt { dst, inst, a } => format!("r{dst} <- dt[{inst}] r{a}"),
            Op::DelayT {
                dst,
                inst,
                var: v,
                td,
            } => {
                format!("r{dst} <- delayt[{inst}] {}, td=r{td}", var(v))
            }
            Op::Idt { dst, inst, a } => format!("r{dst} <- idt[{inst}] r{a}"),
            Op::StoreVar { var: v, src } => format!("var {} <- r{src}", var(v)),
            Op::Impose { pin, src } => {
                format!("impose {} += r{src}", self.sig.pins[pin as usize])
            }
            Op::Jump { target } => format!("jump {target}"),
            Op::JumpIfNot { op, a, b, target } => {
                format!("jump {target} unless r{a} {} r{b}", rel_txt(op))
            }
            Op::JumpIfModeNot { dc, target } => format!(
                "jump {target} unless mode={}",
                if dc { "dc" } else { "tran" }
            ),
        }
    }
}

fn rel_txt(op: RelOp) -> &'static str {
    match op {
        RelOp::Eq => "=",
        RelOp::Ne => "!=",
        RelOp::Lt => "<",
        RelOp::Le => "<=",
        RelOp::Gt => ">",
        RelOp::Ge => ">=",
    }
}
