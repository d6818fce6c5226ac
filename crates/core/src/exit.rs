//! Side-exit descriptors: everything needed to restore the interpreter
//! after a guard fails.
//!
//! "The exit branches to a side exit, a small off-trace piece of LIR that
//! returns a pointer to a structure that describes the reason for the exit
//! along with the interpreter PC at the exit point and any other data
//! needed to restore the interpreter's state structures" (§3.1). This
//! module is that structure.

use tm_bytecode::FuncId;
use tm_lir::ArSlot;

use crate::activation::{merge_by_ar, SlotBinding, SlotKey};

/// Why this exit exists — drives the monitor's policy on taking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// An ordinary guard: control flow or type deviated from the
    /// recording. Hot branch exits grow branch traces.
    Branch,
    /// The trace's loop edge (taken for preemption / pending GC only).
    LoopEdge,
    /// Type-unstable trace tail: always taken; the monitor looks for a
    /// sibling tree whose entry map matches (§3.2 / Figure 6).
    Unstable,
    /// The recorded path left the loop (break / loop condition false at a
    /// `while` bottom / return into the entry frame). Never extended.
    LeaveLoop,
    /// Exit after a native call that reentered the interpreter (§6.5) or
    /// a helper deep bail. Never extended.
    DeepBail,
    /// A nested tree call's exit (§4.1): taken when the inner tree left
    /// through an unexpected side exit. The inner tree's own exit handling
    /// already restored interpreter state, so the monitor performs **no
    /// write-back** for this exit; its `write_back` recipe is instead used
    /// by the nesting host to sync state *into* the interpreter before the
    /// inner call.
    NestedUnexpected,
}

/// One inline frame to synthesize when restoring interpreter state.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameDesc {
    /// The function running in this frame.
    pub func: FuncId,
    /// The pc at which this frame resumes: for the innermost frame, the
    /// exit pc; for outer frames, the instruction after their `Call`.
    pub resume_pc: u32,
    /// Operand-stack depth of this frame at the exit.
    pub stack_depth: u16,
    /// Whether the frame was entered via `new`.
    pub is_construct: bool,
    /// Raw boxed word of the callee function object (pushed beneath the
    /// frame during reconstruction; unused for the entry frame).
    pub callee_raw: u64,
}

/// Complete restoration recipe for one side exit.
#[derive(Debug, Clone, PartialEq)]
pub struct SideExitInfo {
    /// Exit policy class.
    pub kind: ExitKind,
    /// Frames at the exit point; `frames[0]` is the entry frame.
    pub frames: Vec<FrameDesc>,
    /// AR slots to box back into interpreter state (which slot, where it
    /// goes, how to box it). Covers every slot the trace wrote up to this
    /// exit, including all operand-stack entries.
    pub write_back: Vec<SlotBinding>,
    /// Hint for the oracle: slot keys whose integer speculation failed at
    /// this exit (set on overflow-guard exits).
    pub oracle_hint: Vec<SlotKey>,
    /// Exit-side type map used by branch-trace recording: observed types of
    /// every live slot at this exit (`write_back` plus untouched imports).
    pub typemap: Vec<SlotBinding>,
    /// Set when this exit guards an integer-speculated arithmetic result:
    /// the bytecode site to demote in the oracle when the exit goes hot.
    pub arith_site: Option<(FuncId, u32)>,
}

impl SideExitInfo {
    /// The AR slots this exit reads (feeds LIR dead-store elimination).
    pub fn live_slots(&self) -> Vec<ArSlot> {
        self.write_back.iter().map(|b| b.ar).collect()
    }

    /// Adds the loop-persistent `writes` this exit lacks to its write-back
    /// and type map; a slot it already binds keeps its more precise
    /// per-exit type.
    pub(crate) fn add_loop_writes(&mut self, writes: &[SlotBinding]) {
        for list in [&mut self.write_back, &mut self.typemap] {
            *list = merge_by_ar(list, writes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_lir::LirType;

    #[test]
    fn live_slots_come_from_write_back() {
        let e = SideExitInfo {
            kind: ExitKind::Branch,
            frames: vec![FrameDesc {
                func: FuncId(0),
                resume_pc: 7,
                stack_depth: 1,
                is_construct: false,
                callee_raw: 0,
            }],
            write_back: vec![
                SlotBinding { ar: 0, key: SlotKey::Global(1), ty: LirType::Int },
                SlotBinding {
                    ar: 3,
                    key: SlotKey::Stack { depth: 0, idx: 0 },
                    ty: LirType::Double,
                },
            ],
            oracle_hint: vec![],
            typemap: vec![],
            arith_site: None,
        };
        assert_eq!(e.live_slots(), vec![0, 3]);
    }
}
