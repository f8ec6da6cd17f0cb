//! Lowering: `CompiledModel` tree IR → linear virtual-register IR.
//!
//! The lowerer walks the statement tree once, producing straight-line
//! [`VInst`]s with unlimited virtual registers. Every expression node
//! becomes one instruction evaluated at run time by the same
//! [`gabm_fas::dual::Lane`] rule the interpreter applies; nothing is
//! evaluated at compile time.
//!
//! Two mechanisms keep the instruction stream short:
//!
//! - **Variable forwarding** — variable reads forward through a scoped
//!   map (var → operand of its last store) so chains of `make`
//!   statements never round-trip through the scratch array; the map
//!   joins by intersection at branch merges, which guarantees every
//!   forwarded register is defined on all paths.
//! - **Leaf-load sharing** — repeated reads of the same pin, parameter,
//!   literal or time quantity share one register within a scope.

use gabm_fas::ast::{BinOp, RelOp};
use gabm_fas::compile::{CCond, CExpr, CStmt, CompiledModel, Func1, Func2};
use std::collections::HashMap;

/// Virtual register: one per value definition (SSA-ish — nothing is
/// redefined).
pub(crate) type VReg = u32;
/// Branch-target label, resolved to an instruction index at emission.
pub(crate) type Label = u32;

/// Linear-IR instruction. Value shapes mirror [`crate::bytecode::Op`]
/// with unbounded registers, plus `Label` pseudo-instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VInst {
    Const {
        dst: VReg,
        v: f64,
    },
    LoadPin {
        dst: VReg,
        pin: usize,
    },
    LoadParam {
        dst: VReg,
        p: usize,
    },
    LoadScratch {
        dst: VReg,
        var: usize,
    },
    LoadCommitted {
        dst: VReg,
        var: usize,
    },
    LoadTime {
        dst: VReg,
    },
    LoadTemp {
        dst: VReg,
    },
    LoadTimeStep {
        dst: VReg,
    },
    Neg {
        dst: VReg,
        a: VReg,
    },
    Bin {
        dst: VReg,
        op: BinOp,
        a: VReg,
        b: VReg,
    },
    Call1 {
        dst: VReg,
        f: Func1,
        a: VReg,
    },
    Call2 {
        dst: VReg,
        f: Func2,
        a: VReg,
        b: VReg,
    },
    Limit {
        dst: VReg,
        x: VReg,
        lo: VReg,
        hi: VReg,
    },
    Dt {
        dst: VReg,
        inst: usize,
        a: VReg,
    },
    DelayT {
        dst: VReg,
        inst: usize,
        var: usize,
        td: VReg,
    },
    Idt {
        dst: VReg,
        inst: usize,
        a: VReg,
    },
    StoreVar {
        var: usize,
        src: VReg,
    },
    Impose {
        pin: usize,
        src: VReg,
    },
    Label(Label),
    Jump(Label),
    JumpIfNot {
        op: RelOp,
        a: VReg,
        b: VReg,
        target: Label,
    },
    JumpIfModeNot {
        dc: bool,
        target: Label,
    },
}

/// A lowering result: a literal not yet loaded (a number in the source,
/// or the zero an unassigned variable reads as) or a defined register.
/// Literals compare by bit pattern so NaN joins behave.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand {
    Const(f64),
    Reg(VReg),
}

impl PartialEq for Operand {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Operand::Const(a), Operand::Const(b)) => a.to_bits() == b.to_bits(),
            (Operand::Reg(a), Operand::Reg(b)) => a == b,
            _ => false,
        }
    }
}

/// Pass-invariant leaf loads, cached per scope so repeated reads of the
/// same pin/param/constant share one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LeafKey {
    Const(u64),
    Pin(usize),
    Param(usize),
    Committed(usize),
    Time,
    Temp,
    TimeStep,
}

pub(crate) struct Lowered {
    pub insts: Vec<VInst>,
    pub n_vregs: usize,
}

struct Lower {
    out: Vec<VInst>,
    next_vreg: VReg,
    next_label: Label,
    /// var index → operand of its most recent store on every path here.
    fwd: HashMap<usize, Operand>,
    /// Scoped cache of materialised leaf loads.
    leaf: HashMap<LeafKey, VReg>,
}

pub(crate) fn lower(model: &CompiledModel) -> Lowered {
    let mut lo = Lower {
        out: Vec::new(),
        next_vreg: 0,
        next_label: 0,
        fwd: HashMap::new(),
        leaf: HashMap::new(),
    };
    // Scratch variables start each pass at 0.0, so an un-assigned read
    // is the constant zero.
    for v in 0..model.var_names().len() {
        lo.fwd.insert(v, Operand::Const(0.0));
    }
    lo.block(model.body());
    Lowered {
        insts: lo.out,
        n_vregs: lo.next_vreg as usize,
    }
}

impl Lower {
    fn fresh(&mut self) -> VReg {
        let r = self.next_vreg;
        self.next_vreg += 1;
        r
    }

    fn label(&mut self) -> Label {
        let l = self.next_label;
        self.next_label += 1;
        l
    }

    /// Materialises an operand into a register.
    fn reg(&mut self, op: Operand) -> VReg {
        match op {
            Operand::Reg(r) => r,
            Operand::Const(v) => {
                self.leaf_load(LeafKey::Const(v.to_bits()), |dst| VInst::Const { dst, v })
            }
        }
    }

    fn leaf_load(&mut self, key: LeafKey, make: impl FnOnce(VReg) -> VInst) -> VReg {
        if let Some(&r) = self.leaf.get(&key) {
            return r;
        }
        let dst = self.def(make);
        self.leaf.insert(key, dst);
        dst
    }

    fn block(&mut self, stmts: &[CStmt]) {
        for stmt in stmts {
            match stmt {
                CStmt::Set(var, expr) => {
                    let op = self.expr(expr);
                    let src = self.reg(op);
                    self.out.push(VInst::StoreVar { var: *var, src });
                    self.fwd.insert(*var, op);
                }
                CStmt::Impose(pin, expr) => {
                    let op = self.expr(expr);
                    let src = self.reg(op);
                    self.out.push(VInst::Impose { pin: *pin, src });
                }
                CStmt::If(cond, then_b, else_b) => self.if_stmt(cond, then_b, else_b),
            }
        }
    }

    /// Two-way branch. Forwarding and leaf caches snapshot at entry;
    /// the join keeps only var bindings identical on both paths
    /// (identical ⇒ defined before the branch, or the same literal).
    fn if_stmt(&mut self, cond: &CCond, then_b: &[CStmt], else_b: &[CStmt]) {
        let els = self.label();
        let jump = match cond {
            CCond::ModeIs(dc) => VInst::JumpIfModeNot {
                dc: *dc,
                target: els,
            },
            CCond::Cmp(op, a, b) => {
                let ao = self.expr(a);
                let bo = self.expr(b);
                VInst::JumpIfNot {
                    op: *op,
                    a: self.reg(ao),
                    b: self.reg(bo),
                    target: els,
                }
            }
        };
        self.out.push(jump);
        let leaf_entry = self.leaf.clone();
        let fwd_entry = self.fwd.clone();
        self.block(then_b);
        let then_map = std::mem::replace(&mut self.fwd, fwd_entry);
        self.leaf = leaf_entry.clone();
        // Without an else arm, the untaken path jumps straight to `els`.
        let end = (!else_b.is_empty()).then(|| {
            let end = self.label();
            self.out.push(VInst::Jump(end));
            end
        });
        self.out.push(VInst::Label(els));
        self.block(else_b);
        self.out.extend(end.map(VInst::Label));
        self.leaf = leaf_entry;
        let else_map = std::mem::take(&mut self.fwd);
        join_fwd(&mut self.fwd, &then_map, &else_map);
    }

    fn expr(&mut self, e: &CExpr) -> Operand {
        let dst = match e {
            CExpr::Num(v) => return Operand::Const(*v),
            CExpr::Var(i) => match self.fwd.get(i) {
                Some(&op) => return op,
                // Scratch-variable reads are invalidated by stores, so
                // they never enter the leaf cache.
                None => {
                    let var = *i;
                    self.def(|dst| VInst::LoadScratch { dst, var })
                }
            },
            CExpr::Param(i) => {
                let p = *i;
                self.leaf_load(LeafKey::Param(p), |dst| VInst::LoadParam { dst, p })
            }
            CExpr::PinValue(i) => {
                let pin = *i;
                self.leaf_load(LeafKey::Pin(pin), |dst| VInst::LoadPin { dst, pin })
            }
            CExpr::Time => self.leaf_load(LeafKey::Time, |dst| VInst::LoadTime { dst }),
            CExpr::Temp => self.leaf_load(LeafKey::Temp, |dst| VInst::LoadTemp { dst }),
            CExpr::TimeStep => self.leaf_load(LeafKey::TimeStep, |dst| VInst::LoadTimeStep { dst }),
            CExpr::Delay { var } => {
                let var = *var;
                self.leaf_load(LeafKey::Committed(var), |dst| VInst::LoadCommitted {
                    dst,
                    var,
                })
            }
            CExpr::Neg(a) => {
                let [a] = self.operands([a]);
                self.def(|dst| VInst::Neg { dst, a })
            }
            CExpr::Bin(op, a, b) => {
                let [a, b] = self.operands([a, b]);
                let op = *op;
                self.def(|dst| VInst::Bin { dst, op, a, b })
            }
            CExpr::Call1(f, a) => {
                let [a] = self.operands([a]);
                let f = *f;
                self.def(|dst| VInst::Call1 { dst, f, a })
            }
            CExpr::Call2(f, a, b) => {
                let [a, b] = self.operands([a, b]);
                let f = *f;
                self.def(|dst| VInst::Call2 { dst, f, a, b })
            }
            CExpr::Limit(x, lo, hi) => {
                let [x, lo, hi] = self.operands([x, lo, hi]);
                self.def(|dst| VInst::Limit { dst, x, lo, hi })
            }
            CExpr::Dt { inst, arg } => {
                let [a] = self.operands([arg]);
                let inst = *inst;
                self.def(|dst| VInst::Dt { dst, inst, a })
            }
            CExpr::DelayT { inst, var, td } => {
                let [td] = self.operands([td]);
                let (inst, var) = (*inst, *var);
                self.def(|dst| VInst::DelayT { dst, inst, var, td })
            }
            CExpr::Idt { inst, arg } => {
                let [a] = self.operands([arg]);
                let inst = *inst;
                self.def(|dst| VInst::Idt { dst, inst, a })
            }
        };
        Operand::Reg(dst)
    }

    /// Lowers sub-expressions left to right, then loads the literals
    /// among them, so literal loads follow the operands' code.
    fn operands<const N: usize>(&mut self, es: [&CExpr; N]) -> [VReg; N] {
        let mut ops = [Operand::Const(0.0); N];
        for (op, e) in ops.iter_mut().zip(es) {
            *op = self.expr(e);
        }
        ops.map(|op| self.reg(op))
    }

    /// Appends an instruction defining a fresh register.
    fn def(&mut self, make: impl FnOnce(VReg) -> VInst) -> VReg {
        let dst = self.fresh();
        self.out.push(make(dst));
        dst
    }
}

/// Join rule at a branch merge: keep a binding only when both paths
/// carry the identical operand. Register identity across arms implies
/// the register was defined before the branch (arm-local definitions
/// are fresh and disjoint), so dominance holds by construction.
fn join_fwd(
    out: &mut HashMap<usize, Operand>,
    then_map: &HashMap<usize, Operand>,
    else_map: &HashMap<usize, Operand>,
) {
    out.clear();
    for (var, t) in then_map {
        if let Some(e) = else_map.get(var) {
            if t == e {
                out.insert(*var, *t);
            }
        }
    }
}
