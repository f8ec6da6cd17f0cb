//! The FAS runtime: the shell both executors share, and the
//! interpreter's tree walk.
//!
//! A [`FasRuntime`] owns a model's committed state and implements
//! [`BehavioralModel`] once — `eval`, `eval_with_jacobian` and the
//! two-pass DC / transient `accept` — for any [`Body`] that can run one
//! evaluation [`Pass`] generic over the value [`Lane`]. The interpreter
//! ([`FasMachine`]) walks the [`CompiledModel`] tree; the bytecode VM in
//! `gabm-fasvm` runs its program, and is held to the tree walk by a
//! differential test suite.

use crate::compile::{CCond, CExpr, CStmt, CompiledModel, Signature};
use crate::dual::{Dual, Lane, MAX_TANGENTS};
use crate::FasError;
use gabm_sim::devices::{BehavioralModel, EvalCtx};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Pseudo time step reported by `timestep` during DC solves. Large enough
/// that slope-limiter patterns (slew rate) never clip at the operating
/// point, so `y = ylast + ((u − ylast)/dt)·dt = u` holds exactly.
pub const DC_PSEUDO_DT: f64 = 1.0e9;

/// An executable model body: the interpreter's tree or the VM's bytecode.
pub trait Body {
    /// The name the runtime's `Debug` output starts with.
    const NAME: &'static str;

    /// Pins, parameters, variables and state instances.
    fn signature(&self) -> &Signature;

    /// Registers a pass needs ([`Pass::reg`]).
    fn n_regs(&self) -> usize {
        0
    }

    /// Runs the body once in lane `L`.
    fn run<L: Lane>(&self, pass: &mut Pass<'_, L>);
}

/// The interpreter: a [`CompiledModel`] run by its tree walk.
pub type FasMachine = FasRuntime<CompiledModel>;

/// An executable instance of a model body.
///
/// Implements [`BehavioralModel`], so it can be attached to a circuit with
/// [`gabm_sim::Circuit::add_behavioral`]. Evaluation is pure with respect to
/// committed state; state commits happen in [`BehavioralModel::accept`].
#[derive(Clone)]
pub struct FasRuntime<B> {
    body: B,
    params: Vec<f64>,
    state: Committed,
    // Reusable pass buffers, one per lane: the bridge evaluates the model
    // every Newton iteration, so per-pass allocation would dominate.
    scalar: Frame<f64>,
    dual: Frame<Dual>,
}

/// State at the last accepted time point.
#[derive(Debug, Clone)]
struct Committed {
    vars: Vec<f64>,
    dt_args: Vec<f64>,
    idt_args: Vec<f64>,
    idt_integral: Vec<f64>,
    history: Vec<VecDeque<(f64, f64)>>,
    max_td_seen: f64,
}

/// What one pass computes: register file, variables, pin currents and the
/// arguments each state instance saw.
#[derive(Debug, Clone)]
struct Frame<L> {
    regs: Vec<L>,
    vars: Vec<L>,
    assigned: Vec<bool>,
    imposed: Vec<L>,
    dt_args: Vec<f64>,
    dt_seen: Vec<bool>,
    idt_args: Vec<f64>,
    idt_seen: Vec<bool>,
}

impl<L: Lane> Frame<L> {
    fn new(sig: &Signature, n_regs: usize) -> Self {
        Frame {
            regs: vec![L::constant(0.0); n_regs],
            vars: vec![L::constant(0.0); sig.var_names.len()],
            assigned: vec![false; sig.var_names.len()],
            imposed: vec![L::constant(0.0); sig.pins.len()],
            dt_args: vec![0.0; sig.n_dt],
            dt_seen: vec![false; sig.n_dt],
            idt_args: vec![0.0; sig.n_idt],
            idt_seen: vec![false; sig.n_idt],
        }
    }

    fn reset(&mut self) {
        self.regs.fill(L::constant(0.0));
        self.vars.fill(L::constant(0.0));
        self.assigned.fill(false);
        self.imposed.fill(L::constant(0.0));
        self.dt_seen.fill(false);
        self.idt_seen.fill(false);
    }
}

/// One evaluation pass: what a [`Body`] reads and writes, with the
/// semantics of every leaf and state access.
pub struct Pass<'a, L> {
    ctx: EvalCtx,
    dt_eff: f64,
    pin_v: &'a [f64],
    params: &'a [f64],
    state: &'a Committed,
    frame: &'a mut Frame<L>,
    max_td: f64,
}

impl<L: Lane> Pass<'_, L> {
    /// `true` in DC solves.
    #[inline]
    pub fn mode_dc(&self) -> bool {
        self.ctx.mode_dc
    }

    /// `time`.
    #[inline]
    pub fn time(&self) -> L {
        L::constant(self.ctx.time)
    }

    /// `temp`.
    #[inline]
    pub fn temp(&self) -> L {
        L::constant(self.ctx.temperature)
    }

    /// `timestep`: the step, or [`DC_PSEUDO_DT`] in DC.
    #[inline]
    pub fn timestep(&self) -> L {
        L::constant(self.dt_eff)
    }

    /// `volt.value(pin)`: a tangent seed in the dual lane.
    #[inline]
    pub fn pin(&self, pin: usize) -> L {
        L::pin(self.pin_v[pin], pin)
    }

    /// Parameter `p`.
    #[inline]
    pub fn param(&self, p: usize) -> L {
        L::constant(self.params[p])
    }

    /// Variable `var` as assigned earlier in this pass.
    #[inline]
    pub fn var(&self, var: usize) -> L {
        self.frame.vars[var]
    }

    /// `state.delay(var)`: the committed value of `var`.
    #[inline]
    pub fn delay(&self, var: usize) -> L {
        L::constant(self.state.vars[var])
    }

    /// Register `r` of the bytecode VM's register file.
    #[inline]
    pub fn reg(&self, r: u8) -> L {
        self.frame.regs[usize::from(r)]
    }

    /// Writes register `r`.
    #[inline]
    pub fn set_reg(&mut self, r: u8, v: L) {
        self.frame.regs[usize::from(r)] = v;
    }

    /// `make var = v`.
    #[inline]
    pub fn set(&mut self, var: usize, v: L) {
        self.frame.vars[var] = v;
        self.frame.assigned[var] = true;
    }

    /// `make curr.on(pin) = v`: impositions on one pin accumulate.
    #[inline]
    pub fn impose(&mut self, pin: usize, v: L) {
        self.frame.imposed[pin] = self.frame.imposed[pin] + v;
    }

    /// `state.dt` instance `inst` of `a`: `(a − a_committed)/timestep`,
    /// `0` in DC.
    #[inline]
    pub fn dt(&mut self, inst: usize, a: L) -> L {
        let v = a.value();
        self.frame.dt_args[inst] = v;
        self.frame.dt_seen[inst] = true;
        if self.ctx.mode_dc {
            L::constant(0.0)
        } else {
            a.chain(
                (v - self.state.dt_args[inst]) / self.dt_eff,
                1.0 / self.dt_eff,
            )
        }
    }

    /// `state.idt` instance `inst` of `a`: the committed integral extended
    /// by the current half step (trapezoidal), `0` in DC.
    #[inline]
    pub fn idt(&mut self, inst: usize, a: L) -> L {
        let v = a.value();
        self.frame.idt_args[inst] = v;
        self.frame.idt_seen[inst] = true;
        if self.ctx.mode_dc {
            L::constant(0.0)
        } else {
            let half_dt = 0.5 * self.ctx.dt;
            let s = self.state;
            a.chain(
                s.idt_integral[inst] + half_dt * (v + s.idt_args[inst]),
                half_dt,
            )
        }
    }

    /// `state.delayt(var, td)` instance `inst`: `var` interpolated from
    /// its history `td` seconds ago; the committed value in DC or
    /// before any history exists.
    #[inline]
    pub fn delayt(&mut self, inst: usize, var: usize, td: L) -> L {
        let td = td.value().max(0.0);
        self.max_td = self.max_td.max(td);
        let committed = self.state.vars[var];
        if self.ctx.mode_dc {
            return L::constant(committed);
        }
        L::constant(
            sample_history(&self.state.history[inst], self.ctx.time - td).unwrap_or(committed),
        )
    }
}

/// Linear interpolation into a delayed-variable history.
fn sample_history(hist: &VecDeque<(f64, f64)>, t: f64) -> Option<f64> {
    let (&first, &last) = (hist.front()?, hist.back()?);
    if t <= first.0 {
        return Some(first.1);
    }
    if t >= last.0 {
        return Some(last.1);
    }
    let mut prev = first;
    for &(ht, hv) in hist.iter().skip(1) {
        if ht >= t {
            let frac = (t - prev.0) / (ht - prev.0);
            return Some(prev.1 + frac * (hv - prev.1));
        }
        prev = (ht, hv);
    }
    Some(prev.1)
}

impl<B: Body> FasRuntime<B> {
    /// Instantiates `body` with parameter overrides.
    ///
    /// # Errors
    ///
    /// [`FasError::Instantiate`] for overrides of undeclared parameters.
    pub fn new(body: B, overrides: &BTreeMap<String, f64>) -> Result<Self, FasError> {
        let sig = body.signature();
        let mut params: Vec<f64> = sig.params.iter().map(|(_, v)| *v).collect();
        for (name, value) in overrides {
            let idx = sig
                .params
                .iter()
                .position(|(n, _)| n == name)
                .ok_or_else(|| {
                    FasError::Instantiate(format!("model {} has no parameter '{name}'", sig.name))
                })?;
            params[idx] = *value;
        }
        let state = Committed {
            vars: vec![0.0; sig.var_names.len()],
            dt_args: vec![0.0; sig.n_dt],
            idt_args: vec![0.0; sig.n_idt],
            idt_integral: vec![0.0; sig.n_idt],
            history: vec![VecDeque::new(); sig.delayt_vars.len()],
            max_td_seen: 0.0,
        };
        Ok(FasRuntime {
            scalar: Frame::new(sig, body.n_regs()),
            dual: Frame::new(sig, body.n_regs()),
            body,
            params,
            state,
        })
    }

    /// Current value of a named parameter.
    pub fn param(&self, name: &str) -> Option<f64> {
        let sig = self.body.signature();
        let i = sig.params.iter().position(|(n, _)| n == name)?;
        Some(self.params[i])
    }

    /// Committed value of a named variable (test/diagnostic hook).
    pub fn committed_var(&self, name: &str) -> Option<f64> {
        let i = self
            .body
            .signature()
            .var_names
            .iter()
            .position(|n| n == name)?;
        Some(self.state.vars[i])
    }

    /// Runs one `f64` pass into `self.scalar`; returns the largest
    /// `delayt` time seen.
    fn scalar_pass(&mut self, ctx: EvalCtx, pin_v: &[f64]) -> f64 {
        run(
            &self.body,
            &self.params,
            &self.state,
            &mut self.scalar,
            ctx,
            pin_v,
        )
    }
}

fn run<B: Body, L: Lane>(
    body: &B,
    params: &[f64],
    state: &Committed,
    frame: &mut Frame<L>,
    ctx: EvalCtx,
    pin_v: &[f64],
) -> f64 {
    frame.reset();
    let dt_eff = if ctx.mode_dc || ctx.dt <= 0.0 {
        DC_PSEUDO_DT
    } else {
        ctx.dt
    };
    let mut pass = Pass {
        ctx,
        dt_eff,
        pin_v,
        params,
        state,
        frame,
        max_td: 0.0,
    };
    body.run(&mut pass);
    pass.max_td
}

impl<B: Body + fmt::Debug> fmt::Debug for FasRuntime<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(B::NAME)
            .field("body", &self.body)
            .field("params", &self.params)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl<B: Body + fmt::Debug> BehavioralModel for FasRuntime<B> {
    fn pin_count(&self) -> usize {
        self.body.signature().pins.len()
    }

    fn eval(&mut self, ctx: &EvalCtx, pin_voltages: &[f64], currents: &mut [f64]) {
        self.scalar_pass(*ctx, pin_voltages);
        currents.copy_from_slice(&self.scalar.imposed);
    }

    fn eval_with_jacobian(
        &mut self,
        ctx: &EvalCtx,
        pin_voltages: &[f64],
        currents: &mut [f64],
        jacobian: &mut [f64],
    ) -> bool {
        let n = self.pin_count();
        if n > MAX_TANGENTS {
            return false;
        }
        run(
            &self.body,
            &self.params,
            &self.state,
            &mut self.dual,
            *ctx,
            pin_voltages,
        );
        for (k, imposed) in self.dual.imposed.iter().enumerate() {
            currents[k] = imposed.v;
            jacobian[k * n..k * n + n].copy_from_slice(&imposed.d[..n]);
        }
        true
    }

    fn accept(&mut self, ctx: &EvalCtx, pin_voltages: &[f64]) {
        // Pass 1: commit the variable values (DC semantics in DC).
        let max_td = self.scalar_pass(*ctx, pin_voltages);
        let (f, s) = (&self.scalar, &mut self.state);
        for (i, v) in s.vars.iter_mut().enumerate() {
            if f.assigned[i] {
                *v = f.vars[i];
            }
        }
        if ctx.mode_dc {
            // Pass 2 — shadow transient with the DC pseudo-step: walks the
            // `else` branches of the mode guards so every state instance
            // records its argument, seeding derivatives/integrals/delays
            // with operating-point values.
            let shadow_ctx = EvalCtx {
                mode_dc: false,
                time: 0.0,
                dt: DC_PSEUDO_DT,
                temperature: ctx.temperature,
            };
            self.scalar_pass(shadow_ctx, pin_voltages);
        }
        let delayt_vars = &self.body.signature().delayt_vars;
        let (f, s) = (&self.scalar, &mut self.state);
        for i in 0..s.dt_args.len() {
            if f.dt_seen[i] {
                s.dt_args[i] = f.dt_args[i];
            }
        }
        for i in 0..s.idt_args.len() {
            if f.idt_seen[i] {
                let v = f.idt_args[i];
                s.idt_integral[i] = if ctx.mode_dc {
                    0.0
                } else {
                    s.idt_integral[i] + 0.5 * ctx.dt * (v + s.idt_args[i])
                };
                s.idt_args[i] = v;
            }
        }
        if ctx.mode_dc {
            // Seed delayed-variable histories at t = 0.
            for (hist, &var) in s.history.iter_mut().zip(delayt_vars) {
                hist.clear();
                hist.push_back((0.0, s.vars[var]));
            }
        } else {
            // Append to delayed histories and prune.
            s.max_td_seen = s.max_td_seen.max(max_td);
            let keep_after = ctx.time - 2.0 * s.max_td_seen - ctx.dt;
            for (hist, &var) in s.history.iter_mut().zip(delayt_vars) {
                hist.push_back((ctx.time, s.vars[var]));
                while hist.len() > 2 && hist.front().map(|h| h.0) < Some(keep_after) {
                    hist.pop_front();
                }
            }
        }
    }
}

impl Body for CompiledModel {
    const NAME: &'static str = "FasMachine";

    fn signature(&self) -> &Signature {
        &self.sig
    }

    fn run<L: Lane>(&self, pass: &mut Pass<'_, L>) {
        exec(pass, &self.body);
    }
}

fn exec<L: Lane>(p: &mut Pass<'_, L>, stmts: &[CStmt]) {
    for stmt in stmts {
        match stmt {
            CStmt::Set(var, expr) => {
                let v = eval(p, expr);
                p.set(*var, v);
            }
            CStmt::Impose(pin, expr) => {
                let v = eval(p, expr);
                p.impose(*pin, v);
            }
            CStmt::If(cond, then_b, else_b) => {
                let taken = match cond {
                    CCond::ModeIs(dc) => *dc == p.mode_dc(),
                    CCond::Cmp(op, a, b) => {
                        let a = eval(p, a).value();
                        op.apply(a, eval(p, b).value())
                    }
                };
                exec(p, if taken { then_b } else { else_b });
            }
        }
    }
}

fn eval<L: Lane>(p: &mut Pass<'_, L>, expr: &CExpr) -> L {
    match expr {
        CExpr::Num(v) => L::constant(*v),
        CExpr::Var(i) => p.var(*i),
        CExpr::Param(i) => p.param(*i),
        CExpr::PinValue(i) => p.pin(*i),
        CExpr::Time => p.time(),
        CExpr::Temp => p.temp(),
        CExpr::TimeStep => p.timestep(),
        CExpr::Neg(a) => -eval(p, a),
        CExpr::Bin(op, a, b) => {
            let a = eval(p, a);
            a.bin(*op, eval(p, b))
        }
        CExpr::Call1(f, a) => eval(p, a).call1(*f),
        CExpr::Call2(f, a, b) => {
            let a = eval(p, a);
            a.call2(*f, eval(p, b))
        }
        CExpr::Limit(x, lo, hi) => {
            let x = eval(p, x);
            let lo = eval(p, lo);
            x.limit(lo, eval(p, hi))
        }
        CExpr::Dt { inst, arg } => {
            let a = eval(p, arg);
            p.dt(*inst, a)
        }
        CExpr::Delay { var } => p.delay(*var),
        CExpr::DelayT { inst, var, td } => {
            let td = eval(p, td);
            p.delayt(*inst, *var, td)
        }
        CExpr::Idt { inst, arg } => {
            let a = eval(p, arg);
            p.idt(*inst, a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use std::collections::BTreeMap;

    fn machine(src: &str) -> FasMachine {
        compile(src).unwrap().instantiate(&BTreeMap::new()).unwrap()
    }

    fn dc_ctx() -> EvalCtx {
        EvalCtx {
            mode_dc: true,
            time: 0.0,
            dt: 0.0,
            temperature: 300.15,
        }
    }

    fn tran_ctx(time: f64, dt: f64) -> EvalCtx {
        EvalCtx {
            mode_dc: false,
            time,
            dt,
            temperature: 300.15,
        }
    }

    #[test]
    fn resistor_model_current() {
        let mut m = machine(
            "model r pin (a) param (g=1e-3)\nanalog\nmake v = volt.value(a)\nmake curr.on(a) = g * v\nendanalog\nendmodel\n",
        );
        let mut i = [0.0];
        m.eval(&dc_ctx(), &[2.0], &mut i);
        assert!((i[0] - 2e-3).abs() < 1e-15);
        assert_eq!(m.param("g"), Some(1e-3));
        assert_eq!(m.param("zz"), None);
    }

    #[test]
    fn paper_input_stage_semantics() {
        let src = "\
model input_stage pin (in) param (gin=1e-6, cin=1e-9)
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
        let mut m = machine(src);
        // DC: only the conductive part.
        let mut i = [0.0];
        m.eval(&dc_ctx(), &[1.0], &mut i);
        assert!((i[0] - 1e-6).abs() < 1e-18);
        // Accept the OP at 1 V; the shadow pass seeds v_prev = 1.0.
        m.accept(&dc_ctx(), &[1.0]);
        assert_eq!(m.committed_var("v2"), Some(1.0));
        // Transient step to 2 V over 1 µs: derivative = 1e6 V/s,
        // capacitive current = 1e-9 · 1e6 = 1 mA plus 2 µA conductive.
        let ctx = tran_ctx(1e-6, 1e-6);
        m.eval(&ctx, &[2.0], &mut i);
        assert!((i[0] - (1e-3 + 2e-6)).abs() < 1e-9, "i = {}", i[0]);
    }

    #[test]
    fn derivative_is_zero_in_dc_even_after_steps() {
        let mut m = machine(
            "model d pin (a)\nanalog\nif (mode=dc) then\nmake y = 0\nelse\nmake y = state.dt(volt.value(a))\nendif\nmake curr.on(a) = y\nendanalog\nendmodel\n",
        );
        let mut i = [0.0];
        m.eval(&dc_ctx(), &[5.0], &mut i);
        assert_eq!(i[0], 0.0);
    }

    #[test]
    fn state_delay_reads_committed() {
        let mut m = machine(
            "model d pin (a)\nanalog\nmake y = volt.value(a)\nmake z = state.delay(y)\nmake curr.on(a) = z\nendanalog\nendmodel\n",
        );
        let mut i = [0.0];
        // Before any accept, delay reads 0.
        m.eval(&tran_ctx(1e-6, 1e-6), &[3.0], &mut i);
        assert_eq!(i[0], 0.0);
        m.accept(&tran_ctx(1e-6, 1e-6), &[3.0]);
        // Now the committed value of y is 3.
        m.eval(&tran_ctx(2e-6, 1e-6), &[7.0], &mut i);
        assert_eq!(i[0], 3.0);
    }

    #[test]
    fn slew_rate_pattern_dc_passthrough() {
        // The generated slew-rate code: at DC, y must equal u thanks to the
        // 1e9 pseudo-step.
        let src = "\
model slew pin (a) param (srise=1e6, sfall=1e6)
analog
make u = volt.value(a)
make ylast = state.delay(y)
make slope = (u - ylast) / timestep
make slim = limit(slope, (-sfall), srise)
make y = ylast + slim * timestep
make curr.on(a) = 0
endanalog
endmodel
";
        let mut m = machine(src);
        m.accept(&dc_ctx(), &[2.5]);
        assert!((m.committed_var("y").unwrap() - 2.5).abs() < 1e-12);
        // A big step is slope-limited: from 2.5 V target 10 V in 1 µs with
        // 1e6 V/s → only 1 V of movement.
        m.accept(&tran_ctx(1e-6, 1e-6), &[10.0]);
        assert!((m.committed_var("y").unwrap() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn integral_accumulates() {
        let mut m = machine(
            "model i pin (a)\nanalog\nmake y = state.idt(volt.value(a))\nmake curr.on(a) = y\nendanalog\nendmodel\n",
        );
        m.accept(&dc_ctx(), &[1.0]);
        // Integrate a constant 1 V for 3 steps of 1 ms: integral = 3e-3.
        m.accept(&tran_ctx(1e-3, 1e-3), &[1.0]);
        m.accept(&tran_ctx(2e-3, 1e-3), &[1.0]);
        m.accept(&tran_ctx(3e-3, 1e-3), &[1.0]);
        let mut i = [0.0];
        m.eval(&tran_ctx(4e-3, 1e-3), &[1.0], &mut i);
        // committed integral (3e-3) + half-step extension (1e-3).
        assert!((i[0] - 4e-3).abs() < 1e-12, "i = {}", i[0]);
    }

    #[test]
    fn delayt_interpolates_history() {
        let mut m = machine(
            "model d pin (a)\nanalog\nmake y = volt.value(a)\nmake z = state.delayt(y, 2e-3)\nmake curr.on(a) = z\nendanalog\nendmodel\n",
        );
        m.accept(&dc_ctx(), &[0.0]);
        // Ramp: v = t/1e-3 volts at 1 ms steps.
        for k in 1..=5 {
            let t = k as f64 * 1e-3;
            m.accept(&tran_ctx(t, 1e-3), &[k as f64]);
        }
        let mut i = [0.0];
        // At t = 6 ms (eval), delayed 2 ms → value at t = 4 ms = 4.0.
        m.eval(&tran_ctx(6e-3, 1e-3), &[6.0], &mut i);
        assert!((i[0] - 4.0).abs() < 1e-9, "i = {}", i[0]);
    }

    #[test]
    fn conditional_on_signal() {
        let mut m = machine(
            "model c pin (a)\nanalog\nmake v = volt.value(a)\nif (v > 1) then\nmake y = 10\nelse\nmake y = -10\nendif\nmake curr.on(a) = y\nendanalog\nendmodel\n",
        );
        let mut i = [0.0];
        m.eval(&dc_ctx(), &[2.0], &mut i);
        assert_eq!(i[0], 10.0);
        m.eval(&dc_ctx(), &[0.5], &mut i);
        assert_eq!(i[0], -10.0);
    }

    #[test]
    fn multi_pin_imposition() {
        let mut m = machine(
            "model two pin (a, b)\nanalog\nmake va = volt.value(a)\nmake curr.on(a) = va\nmake curr.on(b) = -va\nendanalog\nendmodel\n",
        );
        let mut i = [0.0, 0.0];
        m.eval(&dc_ctx(), &[1.5, 0.0], &mut i);
        assert_eq!(i[0], 1.5);
        assert_eq!(i[1], -1.5);
    }

    #[test]
    fn imposition_accumulates() {
        let mut m = machine(
            "model acc pin (a)\nanalog\nmake curr.on(a) = 1\nmake curr.on(a) = 2\nendanalog\nendmodel\n",
        );
        let mut i = [0.0];
        m.eval(&dc_ctx(), &[0.0], &mut i);
        assert_eq!(i[0], 3.0);
    }

    /// `eval` and `eval_with_jacobian` apply one `limit` and `min` rule:
    /// reversed bounds pick `lo`, and a NaN operand makes `min` NaN.
    #[test]
    fn lanes_agree_on_reversed_limit_and_nan_min() {
        let mut m = machine(
            "model p pin (a, b) param (lo=1.0, hi=-1.0)\nanalog\nmake i = limit(volt.value(a), lo, hi)\nmake j = min(i, 0.0/0.0)\nmake curr.on(a) = i + j\nmake curr.on(b) = i\nendanalog\nendmodel\n",
        );
        let ctx = tran_ctx(1e-6, 1e-6);
        let mut i = [0.0; 2];
        m.eval(&ctx, &[0.0, 0.0], &mut i);
        assert!(i[0].is_nan(), "eval: {i:?}");
        assert_eq!(i[1], 1.0);
        let mut jac = [0.0; 4];
        assert!(m.eval_with_jacobian(&ctx, &[0.0, 0.0], &mut i, &mut jac));
        assert!(i[0].is_nan(), "eval_with_jacobian: {i:?}");
        assert_eq!(i[1], 1.0);
    }

    #[test]
    fn eval_is_pure() {
        let mut m = machine(
            "model p pin (a)\nanalog\nmake y = state.dt(volt.value(a))\nmake curr.on(a) = y\nendanalog\nendmodel\n",
        );
        m.accept(&dc_ctx(), &[1.0]);
        let ctx = tran_ctx(1e-6, 1e-6);
        let mut i1 = [0.0];
        let mut i2 = [0.0];
        m.eval(&ctx, &[2.0], &mut i1);
        // Repeated evaluation at the same point gives the same answer (no
        // hidden state advancement).
        m.eval(&ctx, &[2.0], &mut i2);
        assert_eq!(i1, i2);
    }
}

#[cfg(test)]
mod jacobian_tests {
    use super::*;
    use crate::compile::compile;
    use std::collections::BTreeMap;

    fn tran_ctx(time: f64, dt: f64) -> EvalCtx {
        EvalCtx {
            mode_dc: false,
            time,
            dt,
            temperature: 300.15,
        }
    }

    /// A model exercising every differentiable construct.
    const KITCHEN_SINK: &str = "\
model sink pin (a, b, c) param (g=1e-3, k=0.5)
analog
make va = volt.value(a)
make vb = volt.value(b)
make vc = volt.value(c)
make p1 = g * (va - vb) + k * va * vb
make p2 = limit(p1, -1e-3, 1e-3)
make p3 = tanh(va) + sin(vb) * exp(-vc) + sqrt(abs(va) + 1.0)
make p4 = max(va, vb) + min(vb, vc) + pow(abs(vc) + 1.0, 2.0)
make p5 = state.dt(va) * 1e-9 + state.idt(vb) * 1e-3
make p6 = state.delay(p4)
make curr.on(a) = p2 + 1e-6 * p3
make curr.on(b) = 1e-6 * p4 - p2
make curr.on(c) = 1e-6 * (p5 + p6)
endanalog
endmodel
";

    /// AD and finite differences must agree everywhere (to FD accuracy).
    #[test]
    fn analytic_jacobian_matches_finite_differences() {
        let model = compile(KITCHEN_SINK).unwrap();
        let mut m = model.instantiate(&BTreeMap::new()).unwrap();
        // Give the state some history so dt/idt/delay are non-trivial.
        m.accept(&tran_ctx(1e-6, 1e-6), &[0.3, -0.2, 0.1]);
        let ctx = tran_ctx(2e-6, 1e-6);
        // Test points avoid the non-differentiable kinks (abs at 0,
        // min/max ties, limiter boundaries), where one-sided AD
        // subgradients and central finite differences legitimately differ.
        for v in [
            [0.5, -0.4, 0.2],
            [-1.0, 1.0, 0.3],
            [2.0, 1.5, 2.5],
            [0.1, 0.2, 0.35],
            [-0.1, 0.7, -3.0],
        ] {
            let mut i_ad = [0.0; 3];
            let mut jac = [0.0; 9];
            assert!(m.eval_with_jacobian(&ctx, &v, &mut i_ad, &mut jac));
            // Values match the scalar pass exactly.
            let mut i_scalar = [0.0; 3];
            m.eval(&ctx, &v, &mut i_scalar);
            for k in 0..3 {
                assert!(
                    (i_ad[k] - i_scalar[k]).abs() <= 1e-15 * i_scalar[k].abs().max(1.0),
                    "value mismatch at pin {k}: {} vs {}",
                    i_ad[k],
                    i_scalar[k]
                );
            }
            // Jacobian matches central finite differences.
            for j in 0..3 {
                let h = 1e-6;
                let mut vp = v;
                vp[j] += h;
                let mut ip = [0.0; 3];
                m.eval(&ctx, &vp, &mut ip);
                let mut vm = v;
                vm[j] -= h;
                let mut im = [0.0; 3];
                m.eval(&ctx, &vm, &mut im);
                for k in 0..3 {
                    let fd = (ip[k] - im[k]) / (2.0 * h);
                    let ad = jac[k * 3 + j];
                    let tol = 1e-5 * fd.abs().max(1e-9);
                    assert!(
                        (ad - fd).abs() <= tol,
                        "jacobian mismatch at v={v:?} [{k}][{j}]: ad={ad:.6e}, fd={fd:.6e}"
                    );
                }
            }
        }
    }

    /// The full comparator model supports the analytic path (7 pins ≤ 8).
    #[test]
    fn comparator_model_uses_analytic_jacobian() {
        // Generated FAS of the paper input stage (1 pin) as a cheap proxy,
        // plus a synthetic 9-pin model that must fall back.
        let model = compile(
            "model small pin (a)\nanalog\nmake v = volt.value(a)\nmake curr.on(a) = 1e-3 * v\nendanalog\nendmodel\n",
        )
        .unwrap();
        let mut m = model.instantiate(&BTreeMap::new()).unwrap();
        let mut i = [0.0];
        let mut jac = [0.0];
        let ctx = tran_ctx(0.0, 1e-6);
        assert!(m.eval_with_jacobian(&ctx, &[2.0], &mut i, &mut jac));
        assert!((i[0] - 2e-3).abs() < 1e-15);
        assert!((jac[0] - 1e-3).abs() < 1e-12);

        let many = compile(
            "model wide pin (p0,p1,p2,p3,p4,p5,p6,p7,p8)\nanalog\nmake v = volt.value(p0)\nmake curr.on(p0) = v\nendanalog\nendmodel\n",
        )
        .unwrap();
        let mut w = many.instantiate(&BTreeMap::new()).unwrap();
        let mut i9 = [0.0; 9];
        let mut jac9 = [0.0; 81];
        assert!(!w.eval_with_jacobian(&ctx, &[0.0; 9], &mut i9, &mut jac9));
    }
}
