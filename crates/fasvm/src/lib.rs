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
//! CompiledModel ──lower──▶ linear IR ──regalloc──▶ u8 registers ──emit──▶ Program
//!                (var forwarding,      (linear scan,
//!                 leaf-load sharing)    ≤256 f64 regs)
//! ```
//!
//! Compilation evaluates nothing: every expression node becomes an
//! instruction that runs by the same [`gabm_fas::dual::Lane`] rule the
//! interpreter applies, so the two executors have one evaluation rule.
//!
//! [`FasVm`] is the interpreter's runtime shell
//! ([`gabm_fas::machine::FasRuntime`]) around a [`Program`]: committed
//! state, `accept`, and one dispatch loop generic over the value lane
//! ([`gabm_fas::dual::Lane`]) — `f64` for `eval`, dual numbers for the
//! analytic `eval_with_jacobian`. Interpreter and VM share every op's
//! numeric rule; the differential test suite in `tests/differential.rs`
//! holds them to ulp-scale agreement. The VM is the executor of every
//! FAS model ([`Executable`], [`FasBackend`]).
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
pub use bytecode::{Op, Program};
pub use exec::FasVm;

use gabm_fas::compile::CompiledModel;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

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

/// Compiles a model to bytecode: lowering (with variable forwarding and
/// leaf-load sharing), linear-scan register allocation and emission.
/// Every expression is evaluated at run time, by the interpreter's rule.
///
/// # Errors
///
/// [`VmError`] on encoding-capacity overflow; see its docs.
pub fn compile_program(model: &CompiledModel) -> Result<Program, VmError> {
    let _span = gabm_trace::span_with("fasvm.compile", "model", || model.name().to_string());
    let ir::Lowered {
        insts,
        n_vregs,
        n_labels,
    } = {
        let _p = gabm_trace::span("fasvm.lower");
        ir::lower(model)
    };
    let (assign, n_regs) = {
        let _p = gabm_trace::span("fasvm.regalloc");
        regalloc::allocate(&insts, n_vregs)?
    };
    let (ops, consts) = {
        let _p = gabm_trace::span("fasvm.emit");
        emit(&insts, n_labels, &assign, model)?
    };
    Ok(Program {
        sig: Arc::clone(model.signature()),
        consts: consts.into(),
        ops: ops.into(),
        n_regs,
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
    n_labels: usize,
    assign: &[u8],
    model: &CompiledModel,
) -> Result<(Vec<Op>, Vec<f64>), VmError> {
    use ir::VInst as V;
    // Label positions: the index of the next real instruction.
    let mut label_pc = vec![0usize; n_labels];
    let mut pc = 0usize;
    for inst in insts {
        if let V::Label(l) = inst {
            label_pc[*l as usize] = pc;
        } else {
            pc += 1;
        }
    }
    let sig = model.signature();
    narrow::<u16>(pc, "instruction")?;
    narrow::<u8>(sig.pins.len(), "pin")?;
    narrow::<u16>(sig.var_names.len(), "variable")?;
    narrow::<u16>(sig.params.len(), "parameter")?;

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
    let target = |l: ir::Label| label_pc[l as usize] as u16;

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
