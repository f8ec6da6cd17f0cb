//! # gabm-fasvm — register-bytecode compiler and VM for FAS models
//!
//! The tree-walking interpreter ([`gabm_fas::FasMachine`]) is the
//! hottest loop in behavioural simulation: it re-enters the model body
//! every Newton iteration. This crate compiles a
//! [`gabm_fas::CompiledModel`] down to a flat register bytecode and
//! executes it with a match-dispatch loop — the ELDO-style "compiled
//! model" pipeline the paper's §5 timings assume:
//!
//! ```text
//! CompiledModel ──lower──▶ linear IR ──dce──▶ IR ──regalloc──▶ Program
//!                 (const folding,                (linear scan,
//!                  select conversion,             ≤256 f64 regs)
//!                  dead branches)
//! ```
//!
//! The same bytecode runs in two lanes: a scalar `f64` loop for
//! residual evaluation and a dual-number loop that carries per-pin
//! tangents, so [`FasVm`] keeps the interpreter's analytic
//! `eval_with_jacobian`. Numeric semantics mirror the interpreter
//! operation-for-operation — the differential test suite in
//! `tests/differential.rs` holds both to ulp-scale agreement. The VM is
//! the executor of every FAS model ([`Executable`], [`FasBackend`]).
//!
//! ```
//! use gabm_fasvm::compile_program;
//! use gabm_sim::devices::BehavioralModel;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = gabm_fas::compile(
//!     "model amp pin (a) param (g=2.0)\nanalog\n\
//!      make v = g * volt.value(a)\nmake curr.on(a) = v\n\
//!      endanalog\nendmodel\n",
//! )?;
//! let prog = compile_program(&model)?;
//! let vm = prog.instantiate(&Default::default())?;
//! assert_eq!(vm.pin_count(), 1);
//! # Ok(())
//! # }
//! ```

mod backend;
pub mod bytecode;
mod exec;
mod ir;
mod regalloc;

pub use backend::{Executable, FasBackend};
pub use bytecode::{CompileStats, Op, Program};
pub use exec::FasVm;

use gabm_fas::compile::CompiledModel;
use gabm_fas::machine::delayt_var;
use std::collections::HashMap;
use std::fmt;

/// Bytecode-compilation failure. These are capacity errors, not model
/// errors — any model the front end accepts is semantically lowerable,
/// but the fixed-width encoding bounds register pressure and table
/// sizes. [`Executable`] and [`FasBackend`] fall back to the interpreter
/// on any of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The model needs more than 256 simultaneously live values.
    RegisterPressure {
        /// Live values at the point allocation failed.
        needed: usize,
    },
    /// A table or the instruction stream overflows its index width.
    TooLarge {
        /// Which table overflowed.
        what: &'static str,
        /// Its size.
        count: usize,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::RegisterPressure { needed } => write!(
                f,
                "register pressure too high: {needed} live values exceed the {} register file",
                regalloc::MAX_REGS
            ),
            VmError::TooLarge { what, count } => {
                write!(f, "{what} table too large for bytecode encoding: {count}")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Compiles a model to bytecode: lowering (with constant folding, dead
/// branches and select conversion), dead-code elimination, linear-scan
/// register allocation and emission.
///
/// # Errors
///
/// [`VmError`] on encoding-capacity overflow; see its docs.
pub fn compile_program(model: &CompiledModel) -> Result<Program, VmError> {
    let _span = gabm_trace::span_with("fasvm.compile", "model", || model.name().to_string());
    let lowered = {
        let _p = gabm_trace::span("fasvm.lower");
        ir::lower(model)
    };
    let ir::Lowered {
        insts,
        n_vregs,
        mut stats,
    } = lowered;
    let insts = {
        let _p = gabm_trace::span("fasvm.dce");
        ir::dce(insts, &mut stats)
    };
    let (assign, n_regs) = {
        let _p = gabm_trace::span("fasvm.regalloc");
        regalloc::allocate(&insts, n_vregs)?
    };
    let (ops, consts) = {
        let _p = gabm_trace::span("fasvm.emit");
        emit(&insts, &assign, model)?
    };
    let delayt_vars = (0..model.n_delayt())
        .map(|inst| delayt_var(model.body(), inst))
        .collect();
    Ok(Program {
        name: model.name().to_string(),
        pins: model.pins().iter().map(|p| p.to_string()).collect(),
        params: model.params().to_vec(),
        var_names: model.var_names().to_vec(),
        consts,
        ops,
        n_regs,
        n_dt: model.n_dt(),
        n_idt: model.n_idt(),
        n_delayt: model.n_delayt(),
        delayt_vars,
        stats,
    })
}

fn narrow<T: TryFrom<usize>>(v: usize, what: &'static str) -> Result<T, VmError> {
    T::try_from(v).map_err(|_| VmError::TooLarge { what, count: v })
}

/// IR → bytecode: drops labels, patches jump targets to instruction
/// indices, interns constants into a deduplicated pool and narrows
/// every index to its encoded width.
fn emit(
    insts: &[ir::VInst],
    assign: &[u8],
    model: &CompiledModel,
) -> Result<(Vec<Op>, Vec<f64>), VmError> {
    use ir::VInst as V;
    // Label positions: the index of the next real instruction.
    let mut label_pc: HashMap<ir::Label, usize> = HashMap::new();
    let mut pc = 0usize;
    for inst in insts {
        if let V::Label(l) = inst {
            label_pc.insert(*l, pc);
        } else {
            pc += 1;
        }
    }
    narrow::<u16>(pc, "instruction")?;
    narrow::<u8>(model.pins().len(), "pin")?;
    narrow::<u16>(model.var_names().len(), "variable")?;
    narrow::<u16>(model.params().len(), "parameter")?;

    let mut consts: Vec<f64> = Vec::new();
    let mut const_idx: HashMap<u64, u16> = HashMap::new();
    let mut intern = |v: f64| -> Result<u16, VmError> {
        if let Some(&k) = const_idx.get(&v.to_bits()) {
            return Ok(k);
        }
        let k = narrow::<u16>(consts.len(), "constant")?;
        consts.push(v);
        const_idx.insert(v.to_bits(), k);
        Ok(k)
    };
    let r = |v: ir::VReg| assign[v as usize];
    let target = |l: ir::Label| label_pc[&l] as u16;

    let mut ops = Vec::with_capacity(pc);
    for inst in insts {
        let op = match *inst {
            V::Label(_) => continue,
            V::Const { dst, v } => Op::Const {
                dst: r(dst),
                k: intern(v)?,
            },
            V::LoadPin { dst, pin } => Op::LoadPin {
                dst: r(dst),
                pin: pin as u8,
            },
            V::LoadParam { dst, p } => Op::LoadParam {
                dst: r(dst),
                p: p as u16,
            },
            V::LoadScratch { dst, var } => Op::LoadScratch {
                dst: r(dst),
                var: var as u16,
            },
            V::LoadCommitted { dst, var } => Op::LoadCommitted {
                dst: r(dst),
                var: var as u16,
            },
            V::LoadTime { dst } => Op::LoadTime { dst: r(dst) },
            V::LoadTemp { dst } => Op::LoadTemp { dst: r(dst) },
            V::LoadTimeStep { dst } => Op::LoadTimeStep { dst: r(dst) },
            V::Neg { dst, a } => Op::Neg {
                dst: r(dst),
                a: r(a),
            },
            V::Bin { dst, op, a, b } => {
                use gabm_fas::ast::BinOp;
                let (dst, a, b) = (r(dst), r(a), r(b));
                match op {
                    BinOp::Add => Op::Add { dst, a, b },
                    BinOp::Sub => Op::Sub { dst, a, b },
                    BinOp::Mul => Op::Mul { dst, a, b },
                    BinOp::Div => Op::Div { dst, a, b },
                }
            }
            V::Call1 { dst, f, a } => Op::Call1 {
                dst: r(dst),
                f,
                a: r(a),
            },
            V::Call2 { dst, f, a, b } => Op::Call2 {
                dst: r(dst),
                f,
                a: r(a),
                b: r(b),
            },
            V::Limit { dst, x, lo, hi } => Op::Limit {
                dst: r(dst),
                x: r(x),
                lo: r(lo),
                hi: r(hi),
            },
            V::Dt { dst, inst, a } => Op::Dt {
                dst: r(dst),
                inst: narrow::<u16>(inst, "state")?,
                a: r(a),
            },
            V::DelayT { dst, inst, var, td } => Op::DelayT {
                dst: r(dst),
                inst: narrow::<u16>(inst, "state")?,
                var: var as u16,
                td: r(td),
            },
            V::Idt { dst, inst, a } => Op::Idt {
                dst: r(dst),
                inst: narrow::<u16>(inst, "state")?,
                a: r(a),
            },
            V::StoreVar { var, src } => Op::StoreVar {
                var: var as u16,
                src: r(src),
            },
            V::Impose { pin, src } => Op::Impose {
                pin: pin as u8,
                src: r(src),
            },
            V::Select {
                dst,
                op,
                a,
                b,
                t,
                f,
            } => Op::Select {
                dst: r(dst),
                op,
                a: r(a),
                b: r(b),
                t: r(t),
                f: r(f),
            },
            V::Jump(l) => Op::Jump { target: target(l) },
            V::JumpIfNot {
                op,
                a,
                b,
                target: l,
            } => Op::JumpIfNot {
                op,
                a: r(a),
                b: r(b),
                target: target(l),
            },
            V::JumpIfModeNot { dc, target: l } => Op::JumpIfModeNot {
                dc,
                target: target(l),
            },
        };
        ops.push(op);
    }
    Ok((ops, consts))
}
