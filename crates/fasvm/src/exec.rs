//! Bytecode execution: one dispatch loop, generic over the value lane.
//!
//! [`FasVm`] is the interpreter's runtime shell
//! ([`gabm_fas::machine::FasRuntime`]: committed state, `accept`, the
//! `f64` and dual-number passes) around a [`Program`] instead of a tree:
//! only the body evaluation differs, a flat `match` over [`Op`]. Every
//! numeric rule comes from [`Lane`] and [`Pass`], which the tree walk
//! uses too.

use crate::bytecode::{Op, Program};
use gabm_fas::compile::Signature;
use gabm_fas::dual::Lane;
use gabm_fas::machine::{Body, FasRuntime, Pass};

/// An executable VM instance of a compiled [`Program`].
pub type FasVm = FasRuntime<Program>;

impl Body for Program {
    const NAME: &'static str = "FasVm";

    fn signature(&self) -> &Signature {
        &self.sig
    }

    fn n_regs(&self) -> usize {
        self.n_regs
    }

    fn run<L: Lane>(&self, p: &mut Pass<'_, L>) {
        let ops = &self.ops;
        let mut pc = 0usize;
        while pc < ops.len() {
            let op = ops[pc];
            pc += 1;
            let (dst, v) = match op {
                Op::Const { dst, k } => (dst, L::constant(self.consts[k as usize])),
                Op::LoadPin { dst, pin } => (dst, p.pin(pin as usize)),
                Op::LoadParam { dst, p: i } => (dst, p.param(i as usize)),
                Op::LoadScratch { dst, var } => (dst, p.var(var as usize)),
                Op::LoadCommitted { dst, var } => (dst, p.delay(var as usize)),
                Op::LoadTime { dst } => (dst, p.time()),
                Op::LoadTemp { dst } => (dst, p.temp()),
                Op::LoadTimeStep { dst } => (dst, p.timestep()),
                Op::Neg { dst, a } => (dst, -p.reg(a)),
                Op::Add { dst, a, b } => (dst, p.reg(a) + p.reg(b)),
                Op::Sub { dst, a, b } => (dst, p.reg(a) - p.reg(b)),
                Op::Mul { dst, a, b } => (dst, p.reg(a) * p.reg(b)),
                Op::Div { dst, a, b } => (dst, p.reg(a) / p.reg(b)),
                Op::Call1 { dst, f, a } => (dst, p.reg(a).call1(f)),
                Op::Call2 { dst, f, a, b } => (dst, p.reg(a).call2(f, p.reg(b))),
                Op::Limit { dst, x, lo, hi } => (dst, p.reg(x).limit(p.reg(lo), p.reg(hi))),
                Op::Dt { dst, inst, a } => (dst, p.dt(inst as usize, p.reg(a))),
                Op::DelayT { dst, inst, var, td } => {
                    (dst, p.delayt(inst as usize, var as usize, p.reg(td)))
                }
                Op::Idt { dst, inst, a } => (dst, p.idt(inst as usize, p.reg(a))),
                Op::StoreVar { var, src } => {
                    p.set(var as usize, p.reg(src));
                    continue;
                }
                Op::Impose { pin, src } => {
                    p.impose(pin as usize, p.reg(src));
                    continue;
                }
                Op::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
                Op::JumpIfNot { op, a, b, target } => {
                    if !op.apply(p.reg(a).value(), p.reg(b).value()) {
                        pc = target as usize;
                    }
                    continue;
                }
                Op::JumpIfModeNot { dc, target } => {
                    if p.mode_dc() != dc {
                        pc = target as usize;
                    }
                    continue;
                }
            };
            p.set_reg(dst, v);
        }
    }
}
