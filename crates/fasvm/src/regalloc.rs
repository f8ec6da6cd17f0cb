//! Linear-scan register allocation: virtual registers → a fixed `u8`
//! file.
//!
//! FAS has no loops, so every jump in the linear IR is forward-only and
//! a virtual register's live interval is exactly `[def, last_use]` — no
//! backward-edge extension, no spilling heuristics. One forward scan
//! computes intervals, a second assigns physical registers from a free
//! list, expiring intervals as they end. An instruction may reuse one of
//! its own source registers as destination: the dispatch loop reads all
//! sources before writing.

use crate::ir::{VInst, VReg};
use crate::VmError;

/// Hard cap of the VM register file (`u8` indices).
pub(crate) const MAX_REGS: usize = 256;

/// Maps every virtual register to a physical one. Returns the
/// assignment and the number of physical registers used.
pub(crate) fn allocate(insts: &[VInst], n_vregs: usize) -> Result<(Vec<u8>, usize), VmError> {
    // Pass 1: intervals. `def` doubles as "has interval" via end >= def.
    let mut def = vec![usize::MAX; n_vregs];
    let mut end = vec![0usize; n_vregs];
    for (pc, inst) in insts.iter().enumerate() {
        visit(inst, |r, is_def| {
            let i = r as usize;
            if is_def {
                def[i] = pc;
                end[i] = pc;
            } else {
                end[i] = pc;
            }
        });
    }
    // Pass 2: scan. Intervals sorted by def order == pc order, so a
    // plain walk over instructions suffices.
    let mut assign = vec![0u8; n_vregs];
    let mut free: Vec<u8> = (0..MAX_REGS as u16).rev().map(|r| r as u8).collect();
    // Active intervals as (end, vreg), kept as a simple vec — programs
    // are tiny and the active set is bounded by live values.
    let mut active: Vec<(usize, VReg)> = Vec::new();
    let mut used = 0usize;
    for (pc, inst) in insts.iter().enumerate() {
        // Expire everything that ends before or at this instruction —
        // a source read here may hand its register to this def.
        active.retain(|&(e, r)| {
            if e <= pc {
                free.push(assign[r as usize]);
                false
            } else {
                true
            }
        });
        let mut dst: Option<VReg> = None;
        visit(inst, |r, is_def| {
            if is_def {
                dst = Some(r);
            }
        });
        if let Some(r) = dst {
            let i = r as usize;
            let Some(phys) = free.pop() else {
                return Err(VmError::RegisterPressure {
                    needed: active.len() + 1,
                });
            };
            assign[i] = phys;
            used = used.max(MAX_REGS - free.len());
            if end[i] <= pc {
                // Dead destination (kept for its side effect): the
                // register frees immediately after this instruction.
                free.push(phys);
            } else {
                active.push((end[i], r));
            }
        }
    }
    Ok((assign, used))
}

/// Calls `f(reg, is_def)` for every register an instruction touches.
/// The destination (if any) is reported exactly once with `is_def`.
fn visit(inst: &VInst, mut f: impl FnMut(VReg, bool)) {
    match *inst {
        VInst::Const { dst, .. }
        | VInst::LoadPin { dst, .. }
        | VInst::LoadParam { dst, .. }
        | VInst::LoadScratch { dst, .. }
        | VInst::LoadCommitted { dst, .. }
        | VInst::LoadTime { dst }
        | VInst::LoadTemp { dst }
        | VInst::LoadTimeStep { dst } => f(dst, true),
        VInst::Neg { dst, a } | VInst::Call1 { dst, a, .. } => {
            f(a, false);
            f(dst, true);
        }
        VInst::Bin { dst, a, b, .. } | VInst::Call2 { dst, a, b, .. } => {
            f(a, false);
            f(b, false);
            f(dst, true);
        }
        VInst::Limit { dst, x, lo, hi } => {
            f(x, false);
            f(lo, false);
            f(hi, false);
            f(dst, true);
        }
        VInst::Dt { dst, a, .. } | VInst::Idt { dst, a, .. } => {
            f(a, false);
            f(dst, true);
        }
        VInst::DelayT { dst, td, .. } => {
            f(td, false);
            f(dst, true);
        }
        VInst::StoreVar { src, .. } | VInst::Impose { src, .. } => f(src, false),
        VInst::Label(_) | VInst::Jump(_) | VInst::JumpIfModeNot { .. } => {}
        VInst::JumpIfNot { a, b, .. } => {
            f(a, false);
            f(b, false);
        }
    }
}
