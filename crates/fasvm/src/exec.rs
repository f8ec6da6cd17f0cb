//! Bytecode execution: scalar and dual-number dispatch loops.
//!
//! [`FasVm`] is the drop-in VM counterpart of
//! [`gabm_fas::FasMachine`]: same committed-state model, same
//! evaluation purity, same `accept` commit rules — only the body
//! evaluation differs (a flat `match` over [`Op`] instead of a tree
//! walk). Every numeric decision below is copied from the interpreter
//! verbatim; when in doubt, `machine.rs` is the specification.

use crate::bytecode::{Op, Program};
use gabm_fas::compile::{Func1, Func2};
use gabm_fas::dual::{Dual, MAX_TANGENTS};
use gabm_fas::machine::{sample_history, DC_PSEUDO_DT};
use gabm_sim::devices::{BehavioralModel, EvalCtx};
use std::collections::VecDeque;

/// An executable VM instance of a compiled [`Program`].
#[derive(Debug, Clone)]
pub struct FasVm {
    prog: Program,
    params: Vec<f64>,
    // Committed state (last accepted time point) — mirrors FasMachine.
    committed_vars: Vec<f64>,
    committed_dt_args: Vec<f64>,
    committed_idt_args: Vec<f64>,
    committed_idt_integral: Vec<f64>,
    history: Vec<VecDeque<(f64, f64)>>,
    max_td_seen: f64,
    scratch: Scratch,
}

/// Reusable evaluation buffers: the register files plus the same
/// per-pass result vectors the interpreter keeps.
#[derive(Debug, Clone, Default)]
struct Scratch {
    regs: Vec<f64>,
    regs_dual: Vec<Dual>,
    vars: Vec<f64>,
    vars_dual: Vec<Dual>,
    assigned: Vec<bool>,
    imposed: Vec<f64>,
    imposed_dual: Vec<Dual>,
    dt_args: Vec<f64>,
    dt_seen: Vec<bool>,
    idt_args: Vec<f64>,
    idt_seen: Vec<bool>,
}

impl Scratch {
    fn reset(&mut self, p: &Program) {
        self.regs.clear();
        self.regs.resize(p.n_regs, 0.0);
        self.regs_dual.clear();
        self.regs_dual.resize(p.n_regs, Dual::constant(0.0));
        self.vars.clear();
        self.vars.resize(p.var_names.len(), 0.0);
        self.vars_dual.clear();
        self.vars_dual
            .resize(p.var_names.len(), Dual::constant(0.0));
        self.assigned.clear();
        self.assigned.resize(p.var_names.len(), false);
        self.imposed.clear();
        self.imposed.resize(p.pins.len(), 0.0);
        self.imposed_dual.clear();
        self.imposed_dual.resize(p.pins.len(), Dual::constant(0.0));
        self.dt_args.clear();
        self.dt_args.resize(p.n_dt, 0.0);
        self.dt_seen.clear();
        self.dt_seen.resize(p.n_dt, false);
        self.idt_args.clear();
        self.idt_args.resize(p.n_idt, 0.0);
        self.idt_seen.clear();
        self.idt_seen.resize(p.n_idt, false);
    }
}

fn dt_effective(ctx: &EvalCtx) -> f64 {
    if ctx.mode_dc || ctx.dt <= 0.0 {
        DC_PSEUDO_DT
    } else {
        ctx.dt
    }
}

impl FasVm {
    pub(crate) fn new(prog: Program, params: Vec<f64>) -> Self {
        let n_vars = prog.var_names.len();
        let n_dt = prog.n_dt;
        let n_idt = prog.n_idt;
        let n_delayt = prog.n_delayt;
        FasVm {
            prog,
            params,
            committed_vars: vec![0.0; n_vars],
            committed_dt_args: vec![0.0; n_dt],
            committed_idt_args: vec![0.0; n_idt],
            committed_idt_integral: vec![0.0; n_idt],
            history: vec![VecDeque::new(); n_delayt],
            max_td_seen: 0.0,
            scratch: Scratch::default(),
        }
    }

    /// The compiled program this VM runs.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Current value of a named parameter.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.prog
            .params
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| self.params[i])
    }

    /// Committed value of a named variable (test/diagnostic hook).
    pub fn committed_var(&self, name: &str) -> Option<f64> {
        self.prog
            .var_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.committed_vars[i])
    }

    /// One scalar pass over the bytecode. Results land in the scratch
    /// buffers; returns the largest `delayt` horizon seen.
    #[allow(clippy::too_many_lines)]
    fn run_scalar(&mut self, ctx: &EvalCtx, pin_v: &[f64]) -> f64 {
        let mut s = std::mem::take(&mut self.scratch);
        s.reset(&self.prog);
        let ops = &self.prog.ops;
        let consts = &self.prog.consts;
        let dt_eff = dt_effective(ctx);
        let mut max_td = 0.0f64;
        let mut pc = 0usize;
        while pc < ops.len() {
            let op = ops[pc];
            pc += 1;
            match op {
                Op::Const { dst, k } => s.regs[dst as usize] = consts[k as usize],
                Op::LoadPin { dst, pin } => s.regs[dst as usize] = pin_v[pin as usize],
                Op::LoadParam { dst, p } => s.regs[dst as usize] = self.params[p as usize],
                Op::LoadScratch { dst, var } => s.regs[dst as usize] = s.vars[var as usize],
                Op::LoadCommitted { dst, var } => {
                    s.regs[dst as usize] = self.committed_vars[var as usize];
                }
                Op::LoadTime { dst } => s.regs[dst as usize] = ctx.time,
                Op::LoadTemp { dst } => s.regs[dst as usize] = ctx.temperature,
                Op::LoadTimeStep { dst } => s.regs[dst as usize] = dt_eff,
                Op::Neg { dst, a } => s.regs[dst as usize] = -s.regs[a as usize],
                Op::Add { dst, a, b } => {
                    s.regs[dst as usize] = s.regs[a as usize] + s.regs[b as usize];
                }
                Op::Sub { dst, a, b } => {
                    s.regs[dst as usize] = s.regs[a as usize] - s.regs[b as usize];
                }
                Op::Mul { dst, a, b } => {
                    s.regs[dst as usize] = s.regs[a as usize] * s.regs[b as usize];
                }
                Op::Div { dst, a, b } => {
                    s.regs[dst as usize] = s.regs[a as usize] / s.regs[b as usize];
                }
                Op::Call1 { dst, f, a } => s.regs[dst as usize] = f.apply(s.regs[a as usize]),
                Op::Call2 { dst, f, a, b } => {
                    s.regs[dst as usize] = f.apply(s.regs[a as usize], s.regs[b as usize]);
                }
                Op::Limit { dst, x, lo, hi } => {
                    // Interpreter scalar lane: clamp via max/min.
                    s.regs[dst as usize] = s.regs[x as usize]
                        .max(s.regs[lo as usize])
                        .min(s.regs[hi as usize]);
                }
                Op::Dt { dst, inst, a } => {
                    let v = s.regs[a as usize];
                    s.dt_args[inst as usize] = v;
                    s.dt_seen[inst as usize] = true;
                    s.regs[dst as usize] = if ctx.mode_dc {
                        0.0
                    } else {
                        (v - self.committed_dt_args[inst as usize]) / dt_eff
                    };
                }
                Op::DelayT { dst, inst, var, td } => {
                    let tdv = s.regs[td as usize].max(0.0);
                    max_td = max_td.max(tdv);
                    s.regs[dst as usize] = if ctx.mode_dc {
                        self.committed_vars[var as usize]
                    } else {
                        let target = ctx.time - tdv;
                        sample_history(&self.history[inst as usize], target)
                            .unwrap_or(self.committed_vars[var as usize])
                    };
                }
                Op::Idt { dst, inst, a } => {
                    let v = s.regs[a as usize];
                    s.idt_args[inst as usize] = v;
                    s.idt_seen[inst as usize] = true;
                    s.regs[dst as usize] = if ctx.mode_dc {
                        0.0
                    } else {
                        // Committed integral extended by the current half
                        // step (trapezoidal) — note ctx.dt, not dt_eff.
                        self.committed_idt_integral[inst as usize]
                            + 0.5 * ctx.dt * (v + self.committed_idt_args[inst as usize])
                    };
                }
                Op::StoreVar { var, src } => {
                    s.vars[var as usize] = s.regs[src as usize];
                    s.assigned[var as usize] = true;
                }
                Op::Impose { pin, src } => s.imposed[pin as usize] += s.regs[src as usize],
                Op::Select {
                    dst,
                    op,
                    a,
                    b,
                    t,
                    f,
                } => {
                    s.regs[dst as usize] = if op.apply(s.regs[a as usize], s.regs[b as usize]) {
                        s.regs[t as usize]
                    } else {
                        s.regs[f as usize]
                    };
                }
                Op::Jump { target } => pc = target as usize,
                Op::JumpIfNot { op, a, b, target } => {
                    if !op.apply(s.regs[a as usize], s.regs[b as usize]) {
                        pc = target as usize;
                    }
                }
                Op::JumpIfModeNot { dc, target } => {
                    if ctx.mode_dc != dc {
                        pc = target as usize;
                    }
                }
            }
        }
        self.scratch = s;
        max_td
    }

    /// One dual-number pass: pin voltages seed tangent lanes, imposes
    /// accumulate value + Jacobian row in a single walk. The numeric
    /// special cases (min/max chains, `limit` ordering, `pow`
    /// derivatives, tangent scaling of `dt`/`idt`) replicate the
    /// interpreter's dual evaluator exactly.
    #[allow(clippy::too_many_lines)]
    fn run_dual(&mut self, ctx: &EvalCtx, pin_v: &[f64]) {
        let mut s = std::mem::take(&mut self.scratch);
        s.reset(&self.prog);
        let ops = &self.prog.ops;
        let consts = &self.prog.consts;
        let dt_eff = dt_effective(ctx);
        let mut pc = 0usize;
        while pc < ops.len() {
            let op = ops[pc];
            pc += 1;
            match op {
                Op::Const { dst, k } => {
                    s.regs_dual[dst as usize] = Dual::constant(consts[k as usize]);
                }
                Op::LoadPin { dst, pin } => {
                    s.regs_dual[dst as usize] = Dual::variable(pin_v[pin as usize], pin as usize);
                }
                Op::LoadParam { dst, p } => {
                    s.regs_dual[dst as usize] = Dual::constant(self.params[p as usize]);
                }
                Op::LoadScratch { dst, var } => {
                    s.regs_dual[dst as usize] = s.vars_dual[var as usize];
                }
                Op::LoadCommitted { dst, var } => {
                    s.regs_dual[dst as usize] = Dual::constant(self.committed_vars[var as usize]);
                }
                Op::LoadTime { dst } => s.regs_dual[dst as usize] = Dual::constant(ctx.time),
                Op::LoadTemp { dst } => {
                    s.regs_dual[dst as usize] = Dual::constant(ctx.temperature);
                }
                Op::LoadTimeStep { dst } => s.regs_dual[dst as usize] = Dual::constant(dt_eff),
                Op::Neg { dst, a } => s.regs_dual[dst as usize] = -s.regs_dual[a as usize],
                Op::Add { dst, a, b } => {
                    s.regs_dual[dst as usize] = s.regs_dual[a as usize] + s.regs_dual[b as usize];
                }
                Op::Sub { dst, a, b } => {
                    s.regs_dual[dst as usize] = s.regs_dual[a as usize] - s.regs_dual[b as usize];
                }
                Op::Mul { dst, a, b } => {
                    s.regs_dual[dst as usize] = s.regs_dual[a as usize] * s.regs_dual[b as usize];
                }
                Op::Div { dst, a, b } => {
                    s.regs_dual[dst as usize] = s.regs_dual[a as usize] / s.regs_dual[b as usize];
                }
                Op::Call1 { dst, f, a } => {
                    let av = s.regs_dual[a as usize];
                    let x = av.v;
                    let (value, slope) = match f {
                        Func1::Sin => (x.sin(), x.cos()),
                        Func1::Cos => (x.cos(), -x.sin()),
                        Func1::Exp => {
                            let e = x.exp();
                            (e, e)
                        }
                        Func1::Ln => (x.ln(), 1.0 / x),
                        Func1::Abs => (x.abs(), if x >= 0.0 { 1.0 } else { -1.0 }),
                        Func1::Sqrt => {
                            let r = x.sqrt();
                            (r, if r > 0.0 { 0.5 / r } else { 0.0 })
                        }
                        Func1::Tanh => {
                            let t = x.tanh();
                            (t, 1.0 - t * t)
                        }
                        Func1::Atan => (x.atan(), 1.0 / (1.0 + x * x)),
                    };
                    s.regs_dual[dst as usize] = av.chain(value, slope);
                }
                Op::Call2 { dst, f, a, b } => {
                    let av = s.regs_dual[a as usize];
                    let bv = s.regs_dual[b as usize];
                    s.regs_dual[dst as usize] = match f {
                        Func2::Min => {
                            if av.v <= bv.v {
                                av
                            } else {
                                bv
                            }
                        }
                        Func2::Max => {
                            if av.v >= bv.v {
                                av
                            } else {
                                bv
                            }
                        }
                        Func2::Pow => {
                            let value = av.v.powf(bv.v);
                            // d(a^b) = a^b (b' ln a + b a'/a); the
                            // ln-term only exists for positive bases.
                            let da = if av.v != 0.0 {
                                value * bv.v / av.v
                            } else {
                                0.0
                            };
                            let db = if av.v > 0.0 { value * av.v.ln() } else { 0.0 };
                            let mut d = [0.0; MAX_TANGENTS];
                            #[allow(clippy::needless_range_loop)]
                            for i in 0..MAX_TANGENTS {
                                d[i] = da * av.d[i] + db * bv.d[i];
                            }
                            Dual { v: value, d }
                        }
                    };
                }
                Op::Limit { dst, x, lo, hi } => {
                    let xv = s.regs_dual[x as usize];
                    let lov = s.regs_dual[lo as usize];
                    let hiv = s.regs_dual[hi as usize];
                    // Interpreter dual lane: if-chain, not clamp.
                    s.regs_dual[dst as usize] = if xv.v < lov.v {
                        lov
                    } else if xv.v > hiv.v {
                        hiv
                    } else {
                        xv
                    };
                }
                Op::Dt { dst, inst, a } => {
                    let av = s.regs_dual[a as usize];
                    s.dt_args[inst as usize] = av.v;
                    s.dt_seen[inst as usize] = true;
                    s.regs_dual[dst as usize] = if ctx.mode_dc {
                        Dual::constant(0.0)
                    } else {
                        let value = (av.v - self.committed_dt_args[inst as usize]) / dt_eff;
                        let mut out = av.scale_tangent(1.0 / dt_eff);
                        out.v = value;
                        out
                    };
                }
                Op::DelayT { dst, inst, var, td } => {
                    let tdv = s.regs_dual[td as usize].v.max(0.0);
                    s.regs_dual[dst as usize] = if ctx.mode_dc {
                        Dual::constant(self.committed_vars[var as usize])
                    } else {
                        let target = ctx.time - tdv;
                        Dual::constant(
                            sample_history(&self.history[inst as usize], target)
                                .unwrap_or(self.committed_vars[var as usize]),
                        )
                    };
                }
                Op::Idt { dst, inst, a } => {
                    let av = s.regs_dual[a as usize];
                    s.idt_args[inst as usize] = av.v;
                    s.idt_seen[inst as usize] = true;
                    s.regs_dual[dst as usize] = if ctx.mode_dc {
                        Dual::constant(0.0)
                    } else {
                        let half_dt = 0.5 * ctx.dt;
                        let value = self.committed_idt_integral[inst as usize]
                            + half_dt * (av.v + self.committed_idt_args[inst as usize]);
                        let mut out = av.scale_tangent(half_dt);
                        out.v = value;
                        out
                    };
                }
                Op::StoreVar { var, src } => {
                    let v = s.regs_dual[src as usize];
                    s.vars_dual[var as usize] = v;
                    s.vars[var as usize] = v.v;
                    s.assigned[var as usize] = true;
                }
                Op::Impose { pin, src } => {
                    let v = s.regs_dual[src as usize];
                    let cur = s.imposed_dual[pin as usize];
                    s.imposed_dual[pin as usize] = cur + v;
                    s.imposed[pin as usize] += v.v;
                }
                Op::Select {
                    dst,
                    op,
                    a,
                    b,
                    t,
                    f,
                } => {
                    s.regs_dual[dst as usize] =
                        if op.apply(s.regs_dual[a as usize].v, s.regs_dual[b as usize].v) {
                            s.regs_dual[t as usize]
                        } else {
                            s.regs_dual[f as usize]
                        };
                }
                Op::Jump { target } => pc = target as usize,
                Op::JumpIfNot { op, a, b, target } => {
                    if !op.apply(s.regs_dual[a as usize].v, s.regs_dual[b as usize].v) {
                        pc = target as usize;
                    }
                }
                Op::JumpIfModeNot { dc, target } => {
                    if ctx.mode_dc != dc {
                        pc = target as usize;
                    }
                }
            }
        }
        self.scratch = s;
    }
}

impl BehavioralModel for FasVm {
    fn pin_count(&self) -> usize {
        self.prog.pins.len()
    }

    fn eval(&mut self, ctx: &EvalCtx, pin_voltages: &[f64], currents: &mut [f64]) {
        self.run_scalar(ctx, pin_voltages);
        currents.copy_from_slice(&self.scratch.imposed);
    }

    fn eval_with_jacobian(
        &mut self,
        ctx: &EvalCtx,
        pin_voltages: &[f64],
        currents: &mut [f64],
        jacobian: &mut [f64],
    ) -> bool {
        let n = self.prog.pins.len();
        if n > MAX_TANGENTS {
            return false;
        }
        self.run_dual(ctx, pin_voltages);
        for k in 0..n {
            let imposed = self.scratch.imposed_dual[k];
            currents[k] = imposed.v;
            jacobian[k * n..k * n + n].copy_from_slice(&imposed.d[..n]);
        }
        true
    }

    fn accept(&mut self, ctx: &EvalCtx, pin_voltages: &[f64]) {
        if ctx.mode_dc {
            // Pass 1 — DC semantics: commit the variable values.
            self.run_scalar(ctx, pin_voltages);
            for i in 0..self.committed_vars.len() {
                if self.scratch.assigned[i] {
                    self.committed_vars[i] = self.scratch.vars[i];
                }
            }
            // Pass 2 — shadow transient with the DC pseudo-step: walks
            // the `else` branches of the mode guards so every state
            // instance records its argument, seeding derivatives /
            // integrals / delays with operating-point values.
            let shadow_ctx = EvalCtx {
                mode_dc: false,
                time: 0.0,
                dt: DC_PSEUDO_DT,
                temperature: ctx.temperature,
            };
            self.run_scalar(&shadow_ctx, pin_voltages);
            for i in 0..self.committed_dt_args.len() {
                if self.scratch.dt_seen[i] {
                    self.committed_dt_args[i] = self.scratch.dt_args[i];
                }
            }
            for i in 0..self.committed_idt_args.len() {
                if self.scratch.idt_seen[i] {
                    self.committed_idt_args[i] = self.scratch.idt_args[i];
                    self.committed_idt_integral[i] = 0.0;
                }
            }
            // Seed delayed-variable histories at t = 0, keyed by the
            // precomputed instance → variable table.
            for (inst, hist) in self.history.iter_mut().enumerate() {
                hist.clear();
                if let Some(var) = self.prog.delayt_vars[inst] {
                    hist.push_back((0.0, self.committed_vars[var]));
                }
            }
        } else {
            let max_td = self.run_scalar(ctx, pin_voltages);
            for i in 0..self.committed_vars.len() {
                if self.scratch.assigned[i] {
                    self.committed_vars[i] = self.scratch.vars[i];
                }
            }
            for i in 0..self.committed_dt_args.len() {
                if self.scratch.dt_seen[i] {
                    self.committed_dt_args[i] = self.scratch.dt_args[i];
                }
            }
            for i in 0..self.committed_idt_args.len() {
                if self.scratch.idt_seen[i] {
                    let v = self.scratch.idt_args[i];
                    self.committed_idt_integral[i] +=
                        0.5 * ctx.dt * (v + self.committed_idt_args[i]);
                    self.committed_idt_args[i] = v;
                }
            }
            self.max_td_seen = self.max_td_seen.max(max_td);
            // Append to delayed histories and prune.
            let keep_after = ctx.time - 2.0 * self.max_td_seen - ctx.dt;
            for (inst, hist) in self.history.iter_mut().enumerate() {
                if let Some(var) = self.prog.delayt_vars[inst] {
                    hist.push_back((ctx.time, self.committed_vars[var]));
                    while hist.len() > 2 && hist.front().map(|h| h.0) < Some(keep_after) {
                        hist.pop_front();
                    }
                }
            }
        }
    }
}
