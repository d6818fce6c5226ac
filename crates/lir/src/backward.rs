//! The backward optimization filters (§5.1).
//!
//! "When trace recording is completed, nanojit runs the backward
//! optimization filters": dead activation-record store elimination (the
//! paper's *dead data-stack store elimination* and *dead call-stack store
//! elimination*, which our unified activation record covers in one pass)
//! and dead code elimination.

use crate::ir::{ArSlot, Lir, LirId, LirTrace};

/// For each side exit, which AR slots the exit reads when taken (the
/// interpreter state that must be restored: locals, globals, and operand
/// stack entries below the exit's stack depth).
#[derive(Debug, Clone, Default)]
pub struct ExitLiveness {
    /// Indexed by `ExitId`.
    pub live_slots: Vec<Vec<ArSlot>>,
}

impl ExitLiveness {
    fn slots(&self, exit: crate::ir::ExitId) -> &[ArSlot] {
        self.live_slots.get(exit.0 as usize).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Statistics from the backward filters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BackwardStats {
    /// `WriteAr` instructions removed as dead.
    pub dead_stores: u64,
    /// Value instructions removed as unused.
    pub dead_code: u64,
}

/// Runs the backward filter pipeline in place: dead AR-store elimination
/// followed by dead code elimination (with id compaction).
///
/// `loop_live` lists the AR slots that are read when the trace loops back
/// to its anchor (the imported, loop-carried slots).
pub fn run_backward_filters(
    trace: &mut LirTrace,
    exits: &ExitLiveness,
    loop_live: &[ArSlot],
) -> BackwardStats {
    let mut stats = BackwardStats::default();
    stats.dead_stores = eliminate_dead_stores(trace, exits, loop_live);
    stats.dead_code = eliminate_dead_code(trace);
    stats
}

/// Removes `WriteAr` instructions whose value can never be observed: the
/// slot is overwritten before the next potential exit that reads it.
///
/// Walking backward, a store is **live** if its slot is in the live set;
/// executing a guard adds the slots its exit reads; reaching the loop edge
/// re-seeds the set with the loop-carried slots.
pub fn eliminate_dead_stores(
    trace: &mut LirTrace,
    exits: &ExitLiveness,
    loop_live: &[ArSlot],
) -> u64 {
    let nslots = trace
        .code
        .iter()
        .filter_map(|i| match i {
            Lir::WriteAr { slot, .. } | Lir::Import { slot, .. } => Some(*slot as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut live = vec![false; nslots];

    // Seed: nothing is live past the end of the trace except what the
    // final instruction (LoopBack/End, handled below as the first backward
    // step) demands.
    let mut dead: Vec<usize> = Vec::new();
    for idx in (0..trace.code.len()).rev() {
        let inst = &trace.code[idx];
        match inst {
            Lir::WriteAr { slot, .. } => {
                let s = *slot as usize;
                if live[s] {
                    // This store is observed; earlier stores to the same
                    // slot are dead until something reads it again.
                    live[s] = false;
                } else {
                    dead.push(idx);
                }
            }
            Lir::LoopBack(e) => {
                for &s in loop_live {
                    if (s as usize) < live.len() {
                        live[s as usize] = true;
                    }
                }
                for &s in exits.slots(*e) {
                    if (s as usize) < live.len() {
                        live[s as usize] = true;
                    }
                }
            }
            other => {
                if let Some(e) = other.exit() {
                    for &s in exits.slots(e) {
                        if (s as usize) < live.len() {
                            live[s as usize] = true;
                        }
                    }
                }
            }
        }
    }

    let count = dead.len() as u64;
    // Replace dead stores with a konstant no-value marker by filtering in
    // the compaction pass: mark via a keep mask.
    if !dead.is_empty() {
        let mut keep = vec![true; trace.code.len()];
        for idx in dead {
            keep[idx] = false;
        }
        compact(trace, &keep);
    }
    count
}

/// Removes value-producing instructions whose results are never used.
/// Guards, checked ops, stores, calls, and trace ends are roots (their
/// side effects — including the type checks exits rely on — must happen).
pub fn eliminate_dead_code(trace: &mut LirTrace) -> u64 {
    let n = trace.code.len();
    let mut used = vec![false; n];
    let mut operands = Vec::with_capacity(4);
    // Roots: effectful instructions.
    for (i, inst) in trace.code.iter().enumerate() {
        let is_root = !inst.is_pure() && !inst.is_load() || matches!(inst, Lir::Import { .. });
        // Imports are kept as roots: they define the AR slot reads that the
        // entry type map documents (and keep slot numbering stable).
        if is_root {
            used[i] = true;
        }
    }
    // Backward propagation of operand liveness.
    for i in (0..n).rev() {
        if used[i] {
            operands.clear();
            trace.code[i].operands(&mut operands);
            for &op in &operands {
                used[op as usize] = true;
            }
        }
    }
    let removed = used.iter().filter(|&&u| !u).count() as u64;
    if removed > 0 {
        compact(trace, &used);
    }
    removed
}

/// Rebuilds the trace keeping only instructions with `keep[i]`, renumbering
/// all operand references.
fn compact(trace: &mut LirTrace, keep: &[bool]) {
    let mut remap: Vec<LirId> = vec![LirId::MAX; trace.code.len()];
    let mut new_code: Vec<Lir> = Vec::with_capacity(trace.code.len());
    for (i, inst) in trace.code.drain(..).enumerate() {
        if keep[i] {
            remap[i] = new_code.len() as LirId;
            new_code.push(inst);
        }
    }
    for inst in &mut new_code {
        inst.operands_mut(|id| {
            let new = remap[*id as usize];
            debug_assert_ne!(new, LirId::MAX, "operand {id} was removed while still in use");
            *id = new;
        });
    }
    trace.code = new_code;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{FilterOptions, LirBuffer};
    use crate::ir::{ExitId, LirType};
    use crate::opclass::{AluOp, ChkOp};

    #[test]
    fn overwritten_store_before_exit_is_dead() {
        // st slot0, v1 ; st slot0, v2 ; guard(reads slot0) — first store
        // is dead (the paper: "stores to the stack that are overwritten
        // before the next exit are dead").
        let mut b = LirBuffer::new(FilterOptions { cse: false, ..Default::default() });
        let v1 = b.emit(Lir::ConstI(1));
        let v2 = b.emit(Lir::ConstI(2));
        let c = b.emit(Lir::Import { slot: 1, ty: LirType::Bool });
        b.emit(Lir::WriteAr { slot: 0, v: v1 });
        b.emit(Lir::WriteAr { slot: 0, v: v2 });
        let e = b.alloc_exit();
        b.emit(Lir::GuardTrue(c, e));
        let le = b.alloc_exit();
        b.emit(Lir::LoopBack(le));
        let mut trace = b.into_trace();
        let exits = ExitLiveness { live_slots: vec![vec![0, 1], vec![0, 1]] };
        let stats = run_backward_filters(&mut trace, &exits, &[0, 1]);
        assert_eq!(stats.dead_stores, 1);
        let stores = trace.code.iter().filter(|i| matches!(i, Lir::WriteAr { .. })).count();
        assert_eq!(stores, 1);
    }

    #[test]
    fn store_above_exit_stack_top_is_dead() {
        // A store to a slot no exit reads (e.g. an operand stack slot above
        // every exit's stack top) is removed even without overwriting.
        let mut b = LirBuffer::new(FilterOptions::default());
        let v = b.emit(Lir::ConstI(7));
        b.emit(Lir::WriteAr { slot: 5, v });
        let le = b.alloc_exit();
        b.emit(Lir::LoopBack(le));
        let mut trace = b.into_trace();
        let exits = ExitLiveness { live_slots: vec![vec![0]] };
        let stats = run_backward_filters(&mut trace, &exits, &[0]);
        assert_eq!(stats.dead_stores, 1);
    }

    #[test]
    fn loop_carried_store_is_live() {
        let mut b = LirBuffer::new(FilterOptions::default());
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let one = b.emit(Lir::ConstI(1));
        let e = b.alloc_exit();
        let sum = b.emit(Lir::ChkAluI(ChkOp::Add, x, one, e));
        b.emit(Lir::WriteAr { slot: 0, v: sum });
        let le = b.alloc_exit();
        b.emit(Lir::LoopBack(le));
        let mut trace = b.into_trace();
        let exits = ExitLiveness { live_slots: vec![vec![0], vec![0]] };
        let stats = run_backward_filters(&mut trace, &exits, &[0]);
        assert_eq!(stats.dead_stores, 0, "loop-carried variable store must survive");
        assert!(trace.code.iter().any(|i| matches!(i, Lir::WriteAr { slot: 0, .. })));
    }

    #[test]
    fn dce_removes_unused_pure_ops_but_keeps_guards() {
        let mut b = LirBuffer::new(FilterOptions { fold: false, ..Default::default() });
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let y = b.emit(Lir::Import { slot: 1, ty: LirType::Int });
        let _unused = b.emit(Lir::AluI(AluOp::Mul, x, y));
        let e = b.alloc_exit();
        let _checked_unused = b.emit(Lir::ChkAluI(ChkOp::Add, x, y, e)); // guard: kept
        let le = b.alloc_exit();
        b.emit(Lir::LoopBack(le));
        let mut trace = b.into_trace();
        let exits = ExitLiveness { live_slots: vec![vec![], vec![]] };
        let stats = run_backward_filters(&mut trace, &exits, &[]);
        assert_eq!(stats.dead_code, 1, "only the pure multiply should die");
        assert!(trace.code.iter().any(|i| matches!(i, Lir::ChkAluI(..))));
        assert!(!trace.code.iter().any(|i| matches!(i, Lir::AluI(..))));
    }

    #[test]
    fn dce_renumbers_operands() {
        let mut b = LirBuffer::new(FilterOptions { fold: false, cse: false, ..Default::default() });
        let dead = b.emit(Lir::ConstI(99));
        let _ = dead;
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let one = b.emit(Lir::ConstI(1));
        let sum = b.emit(Lir::AluI(AluOp::Add, x, one));
        b.emit(Lir::WriteAr { slot: 0, v: sum });
        let le = b.alloc_exit();
        b.emit(Lir::LoopBack(le));
        let mut trace = b.into_trace();
        let exits = ExitLiveness { live_slots: vec![vec![0]] };
        run_backward_filters(&mut trace, &exits, &[0]);
        // After removing the leading dead constant every id shifts by one;
        // the add must reference the renumbered import/const.
        let add_idx = trace.code.iter().position(|i| matches!(i, Lir::AluI(..))).unwrap();
        let Lir::AluI(_, a, c) = trace.code[add_idx] else { unreachable!() };
        assert!(matches!(trace.code[a as usize], Lir::Import { .. }));
        assert!(matches!(trace.code[c as usize], Lir::ConstI(1)));
    }

    #[test]
    fn unused_load_is_removed() {
        let mut b = LirBuffer::new(FilterOptions::default());
        let o = b.emit(Lir::Import { slot: 0, ty: LirType::Object });
        let _len = b.emit(Lir::ArrayLen(o));
        let le = b.alloc_exit();
        b.emit(Lir::LoopBack(le));
        let mut trace = b.into_trace();
        let exits = ExitLiveness { live_slots: vec![vec![0]] };
        let stats = run_backward_filters(&mut trace, &exits, &[0]);
        assert_eq!(stats.dead_code, 1);
    }

    #[test]
    fn exit_liveness_uses_exit_ids() {
        let _ = ExitId(3);
        let el = ExitLiveness { live_slots: vec![vec![1, 2]] };
        assert_eq!(el.slots(ExitId(0)), &[1, 2]);
        assert_eq!(el.slots(ExitId(9)), &[] as &[ArSlot]);
    }
}
