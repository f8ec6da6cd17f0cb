//! Flat register bytecode: the executable form of a compiled FAS model.
//!
//! Registers are a fixed `f64` file indexed by `u8` (≤ 256 live values —
//! enforced by the allocator). Control flow is forward-only (`FAS` has no
//! loops), so `Jump*` targets are absolute instruction indices that always
//! point past the current instruction.

use gabm_fas::ast::RelOp;
use gabm_fas::compile::{Func1, Func2};
use gabm_fas::FasError;
use std::collections::BTreeMap;
use std::fmt::Write as _;

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
    /// `r[dst] = if op(r[a], r[b]) { r[t] } else { r[f] }` — a
    /// branch-free `if (cmp) then make x=… else make x=… endif`.
    Select {
        dst: u8,
        op: RelOp,
        a: u8,
        b: u8,
        t: u8,
        f: u8,
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

/// Pipeline counters, carried in the [`Program`] for diagnostics and the
/// disassembly header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Linear-IR instructions produced by lowering (before DCE).
    pub vinsts: usize,
    /// Virtual registers created.
    pub vregs: usize,
    /// Expression nodes folded to constants.
    pub folded: usize,
    /// `if` statements whose condition folded, dropping the dead branch.
    pub static_branches: usize,
    /// `if` statements converted to branch-free selects.
    pub selects: usize,
    /// Instructions removed by dead-code elimination.
    pub dce_removed: usize,
}

/// A compiled FAS bytecode program: the VM equivalent of
/// [`gabm_fas::CompiledModel`]. Immutable; instantiate per device with
/// [`Program::instantiate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) name: String,
    pub(crate) pins: Vec<String>,
    pub(crate) params: Vec<(String, f64)>,
    pub(crate) var_names: Vec<String>,
    pub(crate) consts: Vec<f64>,
    pub(crate) ops: Vec<Op>,
    pub(crate) n_regs: usize,
    pub(crate) n_dt: usize,
    pub(crate) n_idt: usize,
    pub(crate) n_delayt: usize,
    /// `delayt` instance → delayed variable (mirrors the interpreter's
    /// body scan, precomputed so `accept` never walks a tree).
    pub(crate) delayt_vars: Vec<Option<usize>>,
    pub(crate) stats: CompileStats,
}

impl Program {
    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pin names in device-pin order.
    pub fn pins(&self) -> Vec<&str> {
        self.pins.iter().map(String::as_str).collect()
    }

    /// Parameter names and defaults.
    pub fn params(&self) -> &[(String, f64)] {
        &self.params
    }

    /// Instruction count.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Physical registers used.
    pub fn reg_count(&self) -> usize {
        self.n_regs
    }

    /// Pipeline counters.
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// Instantiates the program as an executable VM device.
    ///
    /// # Errors
    ///
    /// [`FasError::Instantiate`] for overrides of undeclared parameters
    /// (identical validation to the interpreter path).
    pub fn instantiate(&self, overrides: &BTreeMap<String, f64>) -> Result<crate::FasVm, FasError> {
        let mut values: Vec<f64> = self.params.iter().map(|(_, v)| *v).collect();
        for (name, value) in overrides {
            match self.params.iter().position(|(n, _)| n == name) {
                Some(idx) => values[idx] = *value,
                None => {
                    return Err(FasError::Instantiate(format!(
                        "model {} has no parameter '{name}'",
                        self.name
                    )))
                }
            }
        }
        Ok(crate::FasVm::new(self.clone(), values))
    }

    /// Renders a human-readable listing (the `gabm compile --disasm`
    /// output; kept stable because CI goldens it).
    pub fn disasm(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; model {}: {} pins, {} params, {} vars",
            self.name,
            self.pins.len(),
            self.params.len(),
            self.var_names.len()
        );
        let _ = writeln!(
            out,
            "; {} ops, {} regs, {} consts, state: {} dt / {} idt / {} delayt",
            self.ops.len(),
            self.n_regs,
            self.consts.len(),
            self.n_dt,
            self.n_idt,
            self.n_delayt
        );
        let s = self.stats;
        let _ = writeln!(
            out,
            "; lowered {} vinsts ({} vregs), folded {}, static branches {}, selects {}, dce {}",
            s.vinsts, s.vregs, s.folded, s.static_branches, s.selects, s.dce_removed
        );
        for (pc, op) in self.ops.iter().enumerate() {
            let _ = writeln!(out, "{:4}: {}", pc, self.fmt_op(op));
        }
        out
    }

    fn fmt_op(&self, op: &Op) -> String {
        let var = |i: u16| self.var_names[i as usize].clone();
        match *op {
            Op::Const { dst, k } => {
                format!("r{dst} <- const {:?}", self.consts[k as usize])
            }
            Op::LoadPin { dst, pin } => {
                format!("r{dst} <- pin {}", self.pins[pin as usize])
            }
            Op::LoadParam { dst, p } => {
                format!("r{dst} <- param {}", self.params[p as usize].0)
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
                format!("impose {} += r{src}", self.pins[pin as usize])
            }
            Op::Select {
                dst,
                op,
                a,
                b,
                t,
                f,
            } => format!("r{dst} <- select r{a} {} r{b} ? r{t} : r{f}", rel_txt(op)),
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
