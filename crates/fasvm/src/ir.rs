//! Lowering: `CompiledModel` tree IR → linear virtual-register IR.
//!
//! The lowerer walks the statement tree once, producing straight-line
//! [`VInst`]s with unlimited virtual registers. Three optimisations run
//! inline:
//!
//! - **Constant folding** — pure sub-expressions over literals collapse
//!   at compile time, by the `f64` [`Lane`] rule the runtime applies
//!   (NaN operands and reversed `limit` bounds included).
//! - **Dead-branch elimination** — an `if` whose relational condition
//!   folds keeps only the taken branch (constant condition operands are
//!   side-effect free by construction, so skipping them is sound).
//! - **Select conversion** — short `if (cmp)` bodies whose branches are
//!   pure `make` statements over the same variable set become
//!   branch-free [`VInst::Select`]s; both arms evaluate unconditionally,
//!   which is legal precisely because the convertibility check rejects
//!   `state.dt`/`state.idt`/`state.delayt` (scratch side effects) and
//!   imposes.
//!
//! Variable reads forward through a scoped map (var → operand of its
//! last store) so chains of `make` statements never round-trip through
//! the scratch array; the map joins by intersection at branch merges,
//! which guarantees every forwarded register is defined on all paths.
//! Dead-code elimination then strips unreferenced pure instructions
//! ([`dce`]).

use crate::bytecode::CompileStats;
use gabm_fas::ast::{BinOp, RelOp};
use gabm_fas::compile::{CCond, CExpr, CStmt, CompiledModel, Func1, Func2};
use gabm_fas::dual::Lane;
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
    Select {
        dst: VReg,
        op: RelOp,
        a: VReg,
        b: VReg,
        t: VReg,
        f: VReg,
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

/// A lowering result: either a compile-time constant or a defined
/// register. Constants compare by bit pattern so NaN joins behave.
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
    pub stats: CompileStats,
}

struct Lower {
    out: Vec<VInst>,
    next_vreg: VReg,
    next_label: Label,
    /// var index → operand of its most recent store on every path here.
    fwd: HashMap<usize, Operand>,
    /// Scoped cache of materialised leaf loads.
    leaf: HashMap<LeafKey, VReg>,
    stats: CompileStats,
}

/// Condition after lowering: statically resolved, a runtime comparison,
/// or a mode test.
enum CondK {
    Static(bool),
    Cmp(RelOp, VReg, VReg),
    Mode(bool),
}

pub(crate) fn lower(model: &CompiledModel) -> Lowered {
    let mut lo = Lower {
        out: Vec::new(),
        next_vreg: 0,
        next_label: 0,
        fwd: HashMap::new(),
        leaf: HashMap::new(),
        stats: CompileStats::default(),
    };
    // Scratch variables start each pass at 0.0, so an un-assigned read
    // is the constant zero.
    for v in 0..model.var_names().len() {
        lo.fwd.insert(v, Operand::Const(0.0));
    }
    lo.block(model.body());
    lo.stats.vinsts = lo.out.len();
    lo.stats.vregs = lo.next_vreg as usize;
    Lowered {
        insts: lo.out,
        n_vregs: lo.next_vreg as usize,
        stats: lo.stats,
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
        let dst = self.fresh();
        self.out.push(make(dst));
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

    fn if_stmt(&mut self, cond: &CCond, then_b: &[CStmt], else_b: &[CStmt]) {
        let ck = match cond {
            CCond::ModeIs(dc) => CondK::Mode(*dc),
            CCond::Cmp(op, a, b) => {
                let ao = self.expr(a);
                let bo = self.expr(b);
                if let (Operand::Const(av), Operand::Const(bv)) = (ao, bo) {
                    CondK::Static(op.apply(av, bv))
                } else {
                    let ar = self.reg(ao);
                    let br = self.reg(bo);
                    CondK::Cmp(*op, ar, br)
                }
            }
        };
        match ck {
            CondK::Static(taken) => {
                self.stats.static_branches += 1;
                self.block(if taken { then_b } else { else_b });
            }
            CondK::Cmp(op, a, b)
                if selectable(then_b) && selectable(else_b) && same_assigned(then_b, else_b) =>
            {
                self.select_stmt(op, a, b, then_b, else_b);
            }
            CondK::Cmp(op, a, b) => {
                self.branch_stmt(
                    |lbl| VInst::JumpIfNot {
                        op,
                        a,
                        b,
                        target: lbl,
                    },
                    then_b,
                    else_b,
                );
            }
            CondK::Mode(dc) => {
                self.branch_stmt(
                    |lbl| VInst::JumpIfModeNot { dc, target: lbl },
                    then_b,
                    else_b,
                );
            }
        }
    }

    /// Branch-free lowering: evaluate both arms unconditionally, then
    /// select per assigned variable. Arms use private forwarding
    /// overlays so intra-arm references resolve; the emitted code is
    /// straight-line, so the leaf cache stays valid throughout.
    fn select_stmt(&mut self, op: RelOp, a: VReg, b: VReg, then_b: &[CStmt], else_b: &[CStmt]) {
        self.stats.selects += 1;
        let entry = self.fwd.clone();
        let mut order: Vec<usize> = Vec::new();
        let arm = |lo: &mut Self, stmts: &[CStmt], order: &mut Vec<usize>| {
            lo.fwd = entry.clone();
            for stmt in stmts {
                let CStmt::Set(var, expr) = stmt else {
                    unreachable!("selectable() admits only Set statements");
                };
                let o = lo.expr(expr);
                lo.fwd.insert(*var, o);
                if !order.contains(var) {
                    order.push(*var);
                }
            }
            std::mem::replace(&mut lo.fwd, entry.clone())
        };
        let then_map = arm(self, then_b, &mut order);
        let else_map = arm(self, else_b, &mut order);
        self.fwd = entry;
        for var in order {
            let t = then_map[&var];
            let f = else_map[&var];
            let result = if t == f {
                // Both arms agree (e.g. both fold to the same constant):
                // no select needed, but the store still marks the
                // variable assigned.
                t
            } else {
                let tr = self.reg(t);
                let fr = self.reg(f);
                let dst = self.fresh();
                self.out.push(VInst::Select {
                    dst,
                    op,
                    a,
                    b,
                    t: tr,
                    f: fr,
                });
                Operand::Reg(dst)
            };
            let src = self.reg(result);
            self.out.push(VInst::StoreVar { var, src });
            self.fwd.insert(var, result);
        }
    }

    /// Generic two-way branch. Forwarding and leaf caches snapshot at
    /// entry; the join keeps only var bindings identical on both paths
    /// (identical ⇒ defined before the branch, or the same constant).
    fn branch_stmt(
        &mut self,
        jump: impl FnOnce(Label) -> VInst,
        then_b: &[CStmt],
        else_b: &[CStmt],
    ) {
        let fwd_entry = self.fwd.clone();
        let leaf_entry = self.leaf.clone();
        if else_b.is_empty() {
            let end = self.label();
            self.out.push(jump(end));
            self.block(then_b);
            self.out.push(VInst::Label(end));
            let then_map = std::mem::replace(&mut self.fwd, fwd_entry.clone());
            self.leaf = leaf_entry;
            join_fwd(&mut self.fwd, &then_map, &fwd_entry);
        } else {
            let els = self.label();
            let end = self.label();
            self.out.push(jump(els));
            self.block(then_b);
            let then_map = std::mem::replace(&mut self.fwd, fwd_entry.clone());
            self.leaf = leaf_entry.clone();
            self.out.push(VInst::Jump(end));
            self.out.push(VInst::Label(els));
            self.block(else_b);
            let else_map = std::mem::replace(&mut self.fwd, fwd_entry);
            self.leaf = leaf_entry;
            self.out.push(VInst::Label(end));
            join_fwd(&mut self.fwd, &then_map, &else_map);
        }
    }

    fn expr(&mut self, e: &CExpr) -> Operand {
        match e {
            CExpr::Num(v) => Operand::Const(*v),
            CExpr::Var(i) => match self.fwd.get(i) {
                Some(&op) => op,
                None => {
                    let var = *i;
                    Operand::Reg(self.leaf_load_uncached(|dst| VInst::LoadScratch { dst, var }))
                }
            },
            CExpr::Param(i) => {
                let p = *i;
                Operand::Reg(self.leaf_load(LeafKey::Param(p), |dst| VInst::LoadParam { dst, p }))
            }
            CExpr::PinValue(i) => {
                let pin = *i;
                Operand::Reg(self.leaf_load(LeafKey::Pin(pin), |dst| VInst::LoadPin { dst, pin }))
            }
            CExpr::Time => {
                Operand::Reg(self.leaf_load(LeafKey::Time, |dst| VInst::LoadTime { dst }))
            }
            CExpr::Temp => {
                Operand::Reg(self.leaf_load(LeafKey::Temp, |dst| VInst::LoadTemp { dst }))
            }
            CExpr::TimeStep => {
                Operand::Reg(self.leaf_load(LeafKey::TimeStep, |dst| VInst::LoadTimeStep { dst }))
            }
            CExpr::Neg(a) => {
                let ao = self.expr(a);
                if let Operand::Const(v) = ao {
                    self.stats.folded += 1;
                    return Operand::Const(-v);
                }
                let ar = self.reg(ao);
                let dst = self.fresh();
                self.out.push(VInst::Neg { dst, a: ar });
                Operand::Reg(dst)
            }
            CExpr::Bin(op, a, b) => {
                let ao = self.expr(a);
                let bo = self.expr(b);
                if let (Operand::Const(av), Operand::Const(bv)) = (ao, bo) {
                    self.stats.folded += 1;
                    return Operand::Const(av.bin(*op, bv));
                }
                let ar = self.reg(ao);
                let br = self.reg(bo);
                let dst = self.fresh();
                self.out.push(VInst::Bin {
                    dst,
                    op: *op,
                    a: ar,
                    b: br,
                });
                Operand::Reg(dst)
            }
            CExpr::Call1(f, a) => {
                let ao = self.expr(a);
                if let Operand::Const(v) = ao {
                    self.stats.folded += 1;
                    return Operand::Const(v.call1(*f));
                }
                let ar = self.reg(ao);
                let dst = self.fresh();
                self.out.push(VInst::Call1 { dst, f: *f, a: ar });
                Operand::Reg(dst)
            }
            CExpr::Call2(f, a, b) => {
                let ao = self.expr(a);
                let bo = self.expr(b);
                if let (Operand::Const(av), Operand::Const(bv)) = (ao, bo) {
                    self.stats.folded += 1;
                    return Operand::Const(av.call2(*f, bv));
                }
                let ar = self.reg(ao);
                let br = self.reg(bo);
                let dst = self.fresh();
                self.out.push(VInst::Call2 {
                    dst,
                    f: *f,
                    a: ar,
                    b: br,
                });
                Operand::Reg(dst)
            }
            CExpr::Limit(x, lo, hi) => {
                let xo = self.expr(x);
                let loo = self.expr(lo);
                let hio = self.expr(hi);
                if let (Operand::Const(xv), Operand::Const(lov), Operand::Const(hiv)) =
                    (xo, loo, hio)
                {
                    self.stats.folded += 1;
                    return Operand::Const(xv.limit(lov, hiv));
                }
                let xr = self.reg(xo);
                let lor = self.reg(loo);
                let hir = self.reg(hio);
                let dst = self.fresh();
                self.out.push(VInst::Limit {
                    dst,
                    x: xr,
                    lo: lor,
                    hi: hir,
                });
                Operand::Reg(dst)
            }
            CExpr::Dt { inst, arg } => {
                let ao = self.expr(arg);
                let ar = self.reg(ao);
                let dst = self.fresh();
                self.out.push(VInst::Dt {
                    dst,
                    inst: *inst,
                    a: ar,
                });
                Operand::Reg(dst)
            }
            CExpr::Delay { var } => {
                let v = *var;
                Operand::Reg(
                    self.leaf_load(LeafKey::Committed(v), |dst| VInst::LoadCommitted {
                        dst,
                        var: v,
                    }),
                )
            }
            CExpr::DelayT { inst, var, td } => {
                let tdo = self.expr(td);
                let tdr = self.reg(tdo);
                let dst = self.fresh();
                self.out.push(VInst::DelayT {
                    dst,
                    inst: *inst,
                    var: *var,
                    td: tdr,
                });
                Operand::Reg(dst)
            }
            CExpr::Idt { inst, arg } => {
                let ao = self.expr(arg);
                let ar = self.reg(ao);
                let dst = self.fresh();
                self.out.push(VInst::Idt {
                    dst,
                    inst: *inst,
                    a: ar,
                });
                Operand::Reg(dst)
            }
        }
    }

    /// An uncached fresh load (scratch-variable reads are invalidated by
    /// stores, so they never enter the leaf cache).
    fn leaf_load_uncached(&mut self, make: impl FnOnce(VReg) -> VInst) -> VReg {
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

/// `true` when both arms assign exactly the same variable set. Required
/// for select conversion: the emitted `StoreVar`s run unconditionally,
/// so a variable assigned in only one arm would be marked assigned (and
/// committed in `accept`) on a path where the interpreter leaves it
/// untouched.
fn same_assigned(then_b: &[CStmt], else_b: &[CStmt]) -> bool {
    let vars = |stmts: &[CStmt]| {
        let mut v: Vec<usize> = stmts
            .iter()
            .filter_map(|s| match s {
                CStmt::Set(var, _) => Some(*var),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    vars(then_b) == vars(else_b)
}

/// `true` when a branch arm qualifies for select conversion: at most
/// two statements, all plain `make`s whose expressions carry no scratch
/// side effects (`state.dt`, `state.idt`, `state.delayt` record
/// arguments / delay horizons even when their value is discarded, so
/// evaluating an untaken arm would diverge from the interpreter).
fn selectable(stmts: &[CStmt]) -> bool {
    stmts.len() <= 2
        && stmts.iter().all(|s| match s {
            CStmt::Set(_, e) => pure_expr(e),
            _ => false,
        })
}

fn pure_expr(e: &CExpr) -> bool {
    match e {
        CExpr::Num(_)
        | CExpr::Var(_)
        | CExpr::Param(_)
        | CExpr::PinValue(_)
        | CExpr::Time
        | CExpr::Temp
        | CExpr::TimeStep
        | CExpr::Delay { .. } => true,
        CExpr::Neg(a) | CExpr::Call1(_, a) => pure_expr(a),
        CExpr::Bin(_, a, b) | CExpr::Call2(_, a, b) => pure_expr(a) && pure_expr(b),
        CExpr::Limit(a, b, c) => pure_expr(a) && pure_expr(b) && pure_expr(c),
        CExpr::Dt { .. } | CExpr::DelayT { .. } | CExpr::Idt { .. } => false,
    }
}

/// Dead-code elimination: a single reverse walk. Stores, imposes,
/// control flow and state-recording instructions are roots; a pure
/// instruction survives only if its destination is live.
pub(crate) fn dce(insts: Vec<VInst>, stats: &mut CompileStats) -> Vec<VInst> {
    let mut live: Vec<bool> = Vec::new();
    let mark = |live: &mut Vec<bool>, r: VReg| {
        let i = r as usize;
        if i >= live.len() {
            live.resize(i + 1, false);
        }
        live[i] = true;
    };
    let is_live = |live: &[bool], r: VReg| live.get(r as usize).copied().unwrap_or(false);
    let mut keep = vec![false; insts.len()];
    for (idx, inst) in insts.iter().enumerate().rev() {
        let (root, dst) = match inst {
            VInst::StoreVar { src, .. } | VInst::Impose { src, .. } => {
                mark(&mut live, *src);
                (true, None)
            }
            VInst::Dt { dst, a, .. } | VInst::Idt { dst, a, .. } => {
                mark(&mut live, *a);
                (true, Some(*dst))
            }
            VInst::DelayT { dst, td, .. } => {
                mark(&mut live, *td);
                (true, Some(*dst))
            }
            VInst::Label(_) | VInst::Jump(_) => (true, None),
            VInst::JumpIfNot { a, b, .. } => {
                mark(&mut live, *a);
                mark(&mut live, *b);
                (true, None)
            }
            VInst::JumpIfModeNot { .. } => (true, None),
            VInst::Const { dst, .. }
            | VInst::LoadPin { dst, .. }
            | VInst::LoadParam { dst, .. }
            | VInst::LoadScratch { dst, .. }
            | VInst::LoadCommitted { dst, .. }
            | VInst::LoadTime { dst }
            | VInst::LoadTemp { dst }
            | VInst::LoadTimeStep { dst } => (false, Some(*dst)),
            VInst::Neg { dst, a } => {
                if is_live(&live, *dst) {
                    mark(&mut live, *a);
                }
                (false, Some(*dst))
            }
            VInst::Bin { dst, a, b, .. } | VInst::Call2 { dst, a, b, .. } => {
                if is_live(&live, *dst) {
                    mark(&mut live, *a);
                    mark(&mut live, *b);
                }
                (false, Some(*dst))
            }
            VInst::Call1 { dst, a, .. } => {
                if is_live(&live, *dst) {
                    mark(&mut live, *a);
                }
                (false, Some(*dst))
            }
            VInst::Limit { dst, x, lo, hi } => {
                if is_live(&live, *dst) {
                    mark(&mut live, *x);
                    mark(&mut live, *lo);
                    mark(&mut live, *hi);
                }
                (false, Some(*dst))
            }
            VInst::Select {
                dst, a, b, t, f, ..
            } => {
                if is_live(&live, *dst) {
                    mark(&mut live, *a);
                    mark(&mut live, *b);
                    mark(&mut live, *t);
                    mark(&mut live, *f);
                }
                (false, Some(*dst))
            }
        };
        keep[idx] = root || dst.map(|d| is_live(&live, d)).unwrap_or(false);
    }
    let before = insts.len();
    let out: Vec<VInst> = insts
        .into_iter()
        .zip(keep)
        .filter_map(|(inst, k)| k.then_some(inst))
        .collect();
    stats.dce_removed += before - out.len();
    out
}
