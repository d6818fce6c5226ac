//! Structural verification of assembled fragments.
//!
//! [`crate::verify::verify_trace`] checks the LIR before the backend runs;
//! this module re-checks the *output* of the backend — the raw machine
//! code after register allocation, which is what `.tmc` files store and
//! both tiers run — so an allocator bug, or a damaged cache entry, is
//! caught as a structured error instead of executed as garbage (the
//! decoded executor checks its own superinstruction fusion,
//! `tm_nanojit::peephole`):
//!
//! * every register operand is in `0..NREGS` (the executor masks indexes,
//!   so an out-of-range register would silently alias another);
//! * every register is written before it is read: the register file's
//!   initial contents are unobservable, so the native tier may keep
//!   registers in machine registers that hold garbage on entry (a
//!   fragment is entered from its tree's loop edge and from every exit
//!   stitched to it, and no register is live across either);
//! * every spill-slot reference is below `num_spills`, and every reload
//!   reads a slot some earlier instruction stored;
//! * every exit id has an entry in the exit table;
//! * every activation-record slot the code addresses is inside the tree's
//!   activation record (both executors index it unchecked);
//! * every `CallHelper` passes exactly the argument words its helper reads
//!   (`call_helper` indexes them by position, inside an `extern "C"`
//!   shim on the native tier, where a panic aborts the process);
//! * the fragment ends with exactly one terminator (`LoopBack` or `End`),
//!   and none appears earlier.
//!
//! Registers, exits and AR slots are found through
//! [`MachInst::operands`], so the checks cover every variant the ISA has.

use tm_nanojit::machinst::{Fragment, MachInst, Operand, EXIT_UNSTITCHED, NREGS};

/// A structural violation in a compiled fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentError {
    /// A register operand is outside `0..NREGS`.
    RegOutOfRange {
        /// Instruction index.
        pc: usize,
        /// The offending register.
        reg: u8,
    },
    /// A register is read before any instruction of the fragment wrote
    /// it (an instruction's reads come before its own write).
    RegReadBeforeWrite {
        /// Instruction index.
        pc: usize,
        /// The offending register.
        reg: u8,
    },
    /// A spill-slot index is `>= num_spills`.
    SpillOutOfRange {
        /// Instruction index.
        pc: usize,
        /// The offending slot.
        slot: u16,
    },
    /// A `LoadSpill` reads a slot no earlier `StoreSpill` wrote.
    SpillReadBeforeWrite {
        /// Instruction index.
        pc: usize,
        /// The offending slot.
        slot: u16,
    },
    /// An exit id has no entry in the exit table.
    ExitOutOfRange {
        /// Instruction index.
        pc: usize,
        /// The offending exit id.
        exit: u16,
    },
    /// A terminator instruction appears before the last position.
    TerminatorNotLast {
        /// Instruction index.
        pc: usize,
    },
    /// The fragment does not end with a terminator (or is empty).
    MissingTerminator,
    /// An instruction addresses an AR slot outside the activation record.
    ArSlotOutOfRange {
        /// Instruction index.
        pc: usize,
        /// The offending slot.
        slot: u16,
    },
    /// A `CallHelper` passes another number of arguments than its helper
    /// reads (`Helper::arity`).
    HelperArity {
        /// Instruction index.
        pc: usize,
        /// How many arguments the call site passes.
        passed: usize,
        /// How many the helper reads.
        arity: usize,
    },
    /// A `CallTree` names a nested call site the tree does not have (only
    /// reachable through [`verify_loaded_fragments`]; the recorder numbers
    /// the sites it creates).
    NestedSiteOutOfRange {
        /// Instruction index.
        pc: usize,
        /// The offending site id.
        site: u32,
    },
    /// A stitched exit targets a fragment index outside the tree (only
    /// reachable through [`verify_loaded_fragments`]; in-process stitching
    /// always targets an installed fragment).
    StitchTargetOutOfRange {
        /// Fragment the exit belongs to.
        fragment: usize,
        /// The offending exit id.
        exit: u16,
        /// The out-of-range target fragment index.
        target: u32,
    },
}

impl std::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FragmentError::RegOutOfRange { pc, reg } => {
                write!(f, "pc {pc}: register r{reg} out of range (NREGS = {NREGS})")
            }
            FragmentError::RegReadBeforeWrite { pc, reg } => {
                write!(f, "pc {pc}: register r{reg} read before any write")
            }
            FragmentError::SpillOutOfRange { pc, slot } => {
                write!(f, "pc {pc}: spill slot {slot} >= num_spills")
            }
            FragmentError::SpillReadBeforeWrite { pc, slot } => {
                write!(f, "pc {pc}: reload of spill slot {slot} before any store")
            }
            FragmentError::ExitOutOfRange { pc, exit } => {
                write!(f, "pc {pc}: exit {exit} has no exit-table entry")
            }
            FragmentError::TerminatorNotLast { pc } => {
                write!(f, "pc {pc}: terminator before the end of the fragment")
            }
            FragmentError::MissingTerminator => {
                write!(f, "fragment does not end with a terminator")
            }
            FragmentError::ArSlotOutOfRange { pc, slot } => {
                write!(f, "pc {pc}: AR slot {slot} outside the activation record")
            }
            FragmentError::HelperArity { pc, passed, arity } => {
                write!(f, "pc {pc}: helper call passes {passed} arguments, the helper reads {arity}")
            }
            FragmentError::NestedSiteOutOfRange { pc, site } => {
                write!(f, "pc {pc}: nested call site {site} outside the tree's site table")
            }
            FragmentError::StitchTargetOutOfRange { fragment, exit, target } => {
                write!(
                    f,
                    "fragment {fragment} exit {exit}: stitch target {target} outside the tree"
                )
            }
        }
    }
}

/// Verifies the structural invariants of a compiled fragment that runs
/// against an activation record of `ar_slots` words.
///
/// # Errors
///
/// Returns the first [`FragmentError`] found, scanning in program order.
pub fn verify_fragment(frag: &Fragment, ar_slots: usize) -> Result<(), FragmentError> {
    let mut stored_spills = vec![false; frag.num_spills as usize];
    let mut written = [false; NREGS];
    let last = frag.code.len().checked_sub(1);
    for (pc, inst) in frag.code.iter().enumerate() {
        let mut bad = None;
        let mut unwritten = None;
        inst.operands(|o| {
            let err = match o {
                Operand::Def(reg) | Operand::Use(reg) if usize::from(reg) >= NREGS => {
                    FragmentError::RegOutOfRange { pc, reg }
                }
                // `operands` visits reads before the write.
                Operand::Def(reg) => {
                    written[usize::from(reg)] = true;
                    return;
                }
                Operand::Use(reg) => {
                    if !written[usize::from(reg)] {
                        unwritten.get_or_insert(FragmentError::RegReadBeforeWrite { pc, reg });
                    }
                    return;
                }
                Operand::Exit(exit) if usize::from(exit) >= frag.stitch.len() => {
                    FragmentError::ExitOutOfRange { pc, exit }
                }
                Operand::Ar(slot) if usize::from(slot) >= ar_slots => {
                    FragmentError::ArSlotOutOfRange { pc, slot }
                }
                _ => return,
            };
            bad.get_or_insert(err);
        });
        if let Some(err) = bad.or(unwritten) {
            return Err(err);
        }

        match *inst {
            MachInst::StoreSpill { slot, .. } => {
                if slot >= frag.num_spills {
                    return Err(FragmentError::SpillOutOfRange { pc, slot });
                }
                stored_spills[slot as usize] = true;
            }
            MachInst::LoadSpill { slot, .. } => {
                if slot >= frag.num_spills {
                    return Err(FragmentError::SpillOutOfRange { pc, slot });
                }
                if !stored_spills[slot as usize] {
                    return Err(FragmentError::SpillReadBeforeWrite { pc, slot });
                }
            }
            MachInst::CallHelper { helper, ref args, .. } => {
                if let Some(arity) = helper.arity().filter(|&n| n != args.len()) {
                    return Err(FragmentError::HelperArity { pc, passed: args.len(), arity });
                }
            }
            _ => {}
        }

        if inst.is_terminator() && Some(pc) != last {
            return Err(FragmentError::TerminatorNotLast { pc });
        }
    }
    match frag.code.last() {
        Some(inst) if inst.is_terminator() => Ok(()),
        _ => Err(FragmentError::MissingTerminator),
    }
}

/// Verifies a whole tree of fragments loaded from the persistent trace
/// cache, given the tree's activation-record length and nested-site
/// count: every fragment passes [`verify_fragment`], every stitched exit
/// targets a fragment inside the tree, and every `CallTree` names a site
/// the tree has. This is the **mandatory** gate between deserialization
/// and installation (`docs/PERSISTENCE.md` §5) — in-process compilation
/// establishes these invariants by construction, but bytes from disk
/// prove nothing until checked.
///
/// # Errors
///
/// Returns the offending fragment's index and the first [`FragmentError`]
/// found in it.
pub fn verify_loaded_fragments(
    fragments: &[Fragment],
    ar_slots: usize,
    nested_sites: usize,
) -> Result<(), (usize, FragmentError)> {
    for (i, frag) in fragments.iter().enumerate() {
        verify_fragment(frag, ar_slots).map_err(|e| (i, e))?;
        for (e, &target) in frag.stitch.iter().enumerate() {
            if target != EXIT_UNSTITCHED && target as usize >= fragments.len() {
                return Err((
                    i,
                    FragmentError::StitchTargetOutOfRange { fragment: i, exit: e as u16, target },
                ));
            }
        }
        for (pc, inst) in frag.code.iter().enumerate() {
            if let MachInst::CallTree { tree: site, .. } = *inst {
                if site as usize >= nested_sites {
                    return Err((i, FragmentError::NestedSiteOutOfRange { pc, site }));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_nanojit::machinst::MachInst::*;
    use tm_nanojit::serial::{decode_inst, encode_inst};
    use tm_support::binio::{ByteReader, ByteWriter};

    /// Activation-record length the hand-built fragments run against.
    const AR: usize = 8;

    fn ok_frag() -> Fragment {
        Fragment::new(
            vec![
                ReadAr { d: 0, slot: 0 },
                StoreSpill { slot: 0, s: 0 },
                LoadSpill { d: 1, slot: 0 },
                WriteAr { slot: 1, s: 1 },
                End { exit: 0 },
            ],
            1,
            1,
        )
    }

    #[test]
    fn accepts_well_formed_fragment() {
        assert_eq!(verify_fragment(&ok_frag(), AR), Ok(()));
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut frag = ok_frag();
        frag.code[0] = ReadAr { d: NREGS as u8, slot: 0 };
        assert!(matches!(
            verify_fragment(&frag, AR),
            Err(FragmentError::RegOutOfRange { pc: 0, .. })
        ));
    }

    #[test]
    fn rejects_a_register_read_before_any_write() {
        // The first read of r1 comes before its first write.
        let mut frag = ok_frag();
        frag.code.insert(1, WriteAr { slot: 2, s: 1 });
        assert_eq!(
            verify_fragment(&frag, AR),
            Err(FragmentError::RegReadBeforeWrite { pc: 1, reg: 1 })
        );
        // An instruction's reads come before its own write.
        let mut frag = ok_frag();
        frag.code[0] = AluI { op: tm_lir::AluOp::Add, d: 0, a: 0, b: 0 };
        assert_eq!(
            verify_fragment(&frag, AR),
            Err(FragmentError::RegReadBeforeWrite { pc: 0, reg: 0 })
        );
        // So does a write of another register by the same instruction.
        let mut frag = ok_frag();
        frag.code[0] = Mov { d: 0, s: 5 };
        assert_eq!(
            verify_fragment(&frag, AR),
            Err(FragmentError::RegReadBeforeWrite { pc: 0, reg: 5 })
        );
        // A guard's and a helper call's operands are reads too.
        let mut frag = ok_frag();
        frag.code.insert(0, GuardTrue { s: 3, exit: 0 });
        assert_eq!(
            verify_fragment(&frag, AR),
            Err(FragmentError::RegReadBeforeWrite { pc: 0, reg: 3 })
        );
        let mut frag = ok_frag();
        let args = vec![0, 2].into();
        frag.code.insert(1, CallHelper { d: 2, helper: tm_runtime::Helper::Atan2, args, exit: 0 });
        assert_eq!(
            verify_fragment(&frag, AR),
            Err(FragmentError::RegReadBeforeWrite { pc: 1, reg: 2 })
        );
        // A register out of range is reported as that, not as unwritten.
        let mut frag = ok_frag();
        frag.code[0] = Mov { d: NREGS as u8, s: 4 };
        assert_eq!(
            verify_fragment(&frag, AR),
            Err(FragmentError::RegOutOfRange { pc: 0, reg: NREGS as u8 })
        );
    }

    #[test]
    fn rejects_unstored_spill_reload() {
        let mut frag = ok_frag();
        frag.code.remove(1);
        assert!(matches!(
            verify_fragment(&frag, AR),
            Err(FragmentError::SpillReadBeforeWrite { slot: 0, .. })
        ));
    }

    #[test]
    fn rejects_exit_without_target_entry() {
        let mut frag = ok_frag();
        frag.code[4] = End { exit: 3 };
        assert!(matches!(
            verify_fragment(&frag, AR),
            Err(FragmentError::ExitOutOfRange { exit: 3, .. })
        ));
    }

    #[test]
    fn rejects_mid_fragment_terminator() {
        let mut frag = ok_frag();
        frag.code[1] = End { exit: 0 };
        assert!(matches!(
            verify_fragment(&frag, AR),
            Err(FragmentError::TerminatorNotLast { pc: 1 })
        ));
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut frag = ok_frag();
        frag.code.pop();
        assert_eq!(verify_fragment(&frag, AR), Err(FragmentError::MissingTerminator));
    }

    #[test]
    fn loaded_tree_rejects_out_of_range_stitch_target() {
        let mut a = ok_frag();
        let b = ok_frag();
        assert_eq!(verify_loaded_fragments(&[a.clone(), b.clone()], AR, 0), Ok(()));

        // Stitch into fragment 1: fine in a two-fragment tree...
        a.stitch_exit(0, 1);
        assert_eq!(verify_loaded_fragments(&[a.clone(), b], AR, 0), Ok(()));
        // ...fatal when the tree has only the one fragment.
        assert!(matches!(
            verify_loaded_fragments(&[a], AR, 0),
            Err((0, FragmentError::StitchTargetOutOfRange { exit: 0, target: 1, .. }))
        ));
    }

    #[test]
    fn loaded_tree_reports_offending_fragment_index() {
        let mut bad = ok_frag();
        bad.code.pop();
        assert_eq!(
            verify_loaded_fragments(&[ok_frag(), bad], AR, 0),
            Err((1, FragmentError::MissingTerminator))
        );
    }

    #[test]
    fn loaded_tree_rejects_ar_slot_and_nested_site_outside_the_tree() {
        let mut frag = ok_frag();
        frag.code[3] = WriteAr { slot: AR as u16, s: 1 };
        assert_eq!(
            verify_loaded_fragments(&[frag], AR, 0),
            Err((0, FragmentError::ArSlotOutOfRange { pc: 3, slot: AR as u16 }))
        );

        let mut frag = ok_frag();
        frag.code.insert(0, CallTree { tree: 2, exit: 0 });
        assert_eq!(verify_loaded_fragments(std::slice::from_ref(&frag), AR, 3), Ok(()));
        assert_eq!(
            verify_loaded_fragments(&[frag], AR, 2),
            Err((0, FragmentError::NestedSiteOutOfRange { pc: 0, site: 2 }))
        );
    }

    #[test]
    fn rejects_helper_call_with_the_wrong_argument_count() {
        use tm_runtime::{Helper, NativeId};
        let call = |helper, args: &[u8]| {
            let mut frag = ok_frag();
            frag.code.insert(1, CallHelper { d: 1, helper, args: args.into(), exit: 0 });
            verify_fragment(&frag, AR)
        };
        assert_eq!(call(Helper::Atan2, &[0, 0]), Ok(()));
        assert_eq!(
            call(Helper::Atan2, &[]),
            Err(FragmentError::HelperArity { pc: 1, passed: 0, arity: 2 })
        );
        assert_eq!(
            call(Helper::Random, &[0]),
            Err(FragmentError::HelperArity { pc: 1, passed: 1, arity: 0 })
        );
        // `CallNative` is variadic; its id is the loader's to check.
        assert_eq!(call(Helper::CallNative(NativeId(9)), &[0, 0, 0]), Ok(()));
    }

    fn operands_of(inst: &MachInst) -> Vec<Operand> {
        let mut ops = Vec::new();
        inst.operands(|o| ops.push(o));
        ops
    }

    /// Every opcode, every operand role, with no hand-kept variant list:
    /// the ISA is enumerated through the codec (opcode byte + zeros decodes
    /// to one instance of each variant), and each operand the role table
    /// reports is pushed out of range by rewriting its encoded bytes. The
    /// verifier must name exactly that operand at exactly that pc.
    #[test]
    fn every_operand_of_every_opcode_is_bounds_checked() {
        // One limit for registers, exits, AR slots and spills alike, so a
        // single probe value is out of range whatever role the byte has.
        const LIMIT: u8 = NREGS as u8;
        // Every register is written first, so that only the probe fails.
        let wrap = |inst: MachInst| {
            let mut code: Vec<MachInst> = (0..LIMIT).map(|d| ConstW { d, w: 0 }).collect();
            code.extend([StoreSpill { slot: 0, s: 0 }, inst]);
            if !code[code.len() - 1].is_terminator() {
                code.push(End { exit: 0 });
            }
            Fragment::new(code, u16::from(LIMIT), usize::from(LIMIT))
        };
        let mut variants = 0;
        for op in 0..=u8::MAX {
            let mut bytes = [0u8; 40];
            bytes[0] = op;
            let mut r = ByteReader::new(&bytes);
            let Ok(base) = decode_inst(&mut r) else { continue };
            let len = r.pos();
            assert_eq!(usize::from(op), variants, "opcodes are dense");
            variants += 1;

            let mut w = ByteWriter::new();
            encode_inst(&base, &mut w);
            assert_eq!(w.into_bytes(), bytes[..len], "{base:?} re-encodes to its bytes");
            assert_eq!(verify_fragment(&wrap(base.clone()), usize::from(LIMIT)), Ok(()));

            let base_ops = operands_of(&base);
            let mut probed = vec![false; base_ops.len()];
            for at in 1..len {
                let mut poked = bytes;
                poked[at] = LIMIT;
                // Enum discriminants and booleans reject the probe value.
                let Ok(inst) = decode_inst(&mut ByteReader::new(&poked)) else { continue };
                let ops = operands_of(&inst);
                if ops.len() != base_ops.len() {
                    continue; // the helper-argument count
                }
                let changed: Vec<usize> = (0..ops.len()).filter(|&k| ops[k] != base_ops[k]).collect();
                let &[k] = changed.as_slice() else {
                    assert!(changed.is_empty(), "{inst:?}: one byte moved two operands");
                    continue; // an immediate, a spill slot, a site id
                };
                probed[k] = true;
                let pc = usize::from(LIMIT) + 1;
                let want = match ops[k] {
                    Operand::Def(reg) | Operand::Use(reg) => FragmentError::RegOutOfRange { pc, reg },
                    Operand::Exit(exit) => FragmentError::ExitOutOfRange { pc, exit },
                    Operand::Ar(slot) => FragmentError::ArSlotOutOfRange { pc, slot },
                };
                assert_eq!(verify_fragment(&wrap(inst), usize::from(LIMIT)), Err(want));
            }
            assert!(probed.iter().all(|&p| p), "{base:?}: an operand with no encoded field");
        }
        assert_eq!(variants, 42);
    }
}
