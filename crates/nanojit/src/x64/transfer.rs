//! Direct calls. At a [`DirectSite`] — a site the monitor found deferred,
//! with a native callee and no move that needs the heap — the caller's
//! code does the call itself: it converts the argument words from its own
//! record into the callee's (zeroed first), fills a callee ctx carved out
//! of its own run (`NativeCtx::inner`, whose memory file and spill area
//! are not cleared — the callee writes every vreg before reading it, as
//! the fragment verifier proves — with what is left of the step budget),
//! `call`s the callee's code, and on the expected exit stages the refresh
//! words from both records before storing any into its own, counting the
//! call for the host to fold in ([`crate::executor::TreeHost::fold`]).
//! Interpreter variables are read and written by one thin shim
//! ([`crate::executor::TreeHost::variables`]); a call that does not come
//! back as expected — another exit, a refused refresh word, a spent
//! budget, a helper error in the callee — is finished by the host from
//! the callee's record ([`crate::executor::TreeHost::finish_call`]); a
//! refused argument has changed nothing and takes the host path whole.
//! This is the only place a word move is lowered. The sequence uses
//! r8–r10 as scratch and calls code that uses r8–r11 for its own vregs:
//! the caller's vregs in those registers wait in their homes meanwhile
//! (`MachInst::CallTree`'s lowering).

use std::mem::offset_of;

use tm_lir::LirType;
use tm_runtime::Value;

use super::enc::{Label, CC_AE, CC_E, CC_NE, R10, R14, R15, R8, R9, RAX, RCX, RDI, RDX, RSI, XMM0};
use super::lower::{ar_disp, Emitter};
use super::rt::{self, CTX_AR, CTX_BUDGET, CTX_COUNTS, CTX_ENTRY, CTX_EXIT_FRAG, CTX_EXIT_ID};
use super::rt::{CTX_FUEL, CTX_HELPERS, CTX_INNER, CTX_INSTS, CTX_ITER};
use super::rt::{CTX_LINK, CTX_LINK_BC, CTX_STAGE, RAISED};
use super::{DirectSite, WordFrom, WordMove};
use crate::executor::{DirectCounts, Variables};

impl Emitter {
    /// Zeroes the `n` words the pointer at `[base+disp]` names.
    /// Clobbers rax/rcx/rdi.
    fn zero_words(&mut self, base: u8, disp: i32, n: usize) {
        if n == 0 {
            return;
        }
        self.asm.mov_r64_mem(RDI, base, disp);
        self.asm.zero32(RAX);
        if n <= 8 {
            for k in 0..n {
                self.asm.mov_mem_r64(RDI, k as i32 * 8, RAX);
            }
        } else {
            self.asm.mov_r32_imm(RCX, n as u32);
            self.asm.rep_stosq();
        }
    }

    /// `rax` = the word at `[base + slot*8]`, of type `from`,
    /// converted to `to` as `tm-core`'s `activation::transfer` does;
    /// a refusal goes to `refuse`. Only pairs [`WordMove::lowers`]
    /// admits reach here. Clobbers rcx/xmm0/xmm1.
    fn transfer_word(&mut self, base: u8, slot: u16, from: LirType, to: LirType, refuse: Label) {
        let disp = ar_disp(slot);
        match (from, to) {
            (LirType::Int, LirType::Int) => {
                self.asm.movsxd_r64_mem(RAX, base, disp);
                self.range_check_i31(refuse);
            }
            (LirType::Int, LirType::Double) => {
                self.asm.cvtsi2sd_mem32(XMM0, base, disp);
                self.asm.movq_r64_xmm(RAX, XMM0);
            }
            (LirType::Double, LirType::Int) => {
                self.asm.movsd_load(XMM0, base, disp);
                self.double_to_int(refuse);
            }
            (LirType::Bool, _) => {
                self.asm.mov_r64_mem(RAX, base, disp);
                self.asm.test64(RAX, RAX);
                self.asm.setcc(CC_NE, RAX);
                self.asm.movzx_r32_r8(RAX, RAX);
            }
            (LirType::Object | LirType::String, _) => self.asm.mov_r32_mem(RAX, base, disp),
            (LirType::Undefined, _) => self.asm.movabs(RAX, Value::UNDEFINED.raw()),
            // Double to double.
            _ => self.asm.mov_r64_mem(RAX, base, disp),
        }
    }

    /// Calls [`rt::variables_shim`] for `part` of site `s`, going to
    /// `refused` on a refusal, and reloads r9 (the callee's ctx).
    fn variables_call(&mut self, s: u32, part: Variables, refused: Option<Label>) {
        self.shim_call(rt::variables_shim as *const (), s, part as u32);
        if let Some(refused) = refused {
            self.asm.test32(RAX, RAX);
            self.asm.jcc(CC_E, refused);
        }
        self.asm.mov_r64_mem(R9, R15, CTX_INNER);
    }

    /// Runs tree `link` of `d`'s chain in the callee ctx on what is left
    /// of the budget; goes to `back` unless it took one of its expected
    /// exits within it, whose bytecodes go to `ctx.link_bytecodes`.
    /// Leaves r9 = the callee's ctx, r8 = its record.
    fn run_callee(&mut self, d: &DirectSite, link: usize, back: Label) {
        let callee = d.callees().nth(link).expect("a tree of the chain");
        let exits = d.hops.get(link).map_or(std::slice::from_ref(&d.expected), |h| &h.exits);
        self.asm.mov_r64_mem(R9, R15, CTX_INNER);
        self.asm.movabs(RAX, callee.trunk() as u64);
        self.asm.mov_mem_r64(R9, CTX_ENTRY, RAX);
        self.asm.movabs(RAX, callee.helper_table() as u64);
        self.asm.mov_mem_r64(R9, CTX_HELPERS, RAX);
        self.asm.mov_r64_mem(RAX, R15, CTX_BUDGET);
        self.asm.mov_mem_r64(R9, CTX_FUEL, RAX);
        self.asm.zero32(RAX);
        self.asm.mov_mem_r64(R9, CTX_ITER, RAX);
        self.asm.mov_mem32_imm(R9, CTX_EXIT_FRAG, RAISED as i32);
        self.asm.mov_mem32_imm(R15, CTX_LINK, link as i32);
        self.asm.mov_rr64(RDI, R9);
        self.call_shim(callee.code_ptr().cast());
        // Back: an expected exit, with budget left?
        self.asm.mov_r64_mem(R9, R15, CTX_INNER);
        let took = self.local();
        for &((frag, exit), bytecodes) in exits {
            let other = self.local();
            self.asm.cmp_mem32_imm(R9, CTX_EXIT_FRAG, frag as i32);
            self.asm.jcc(CC_NE, other);
            self.asm.cmp_mem32_imm(R9, CTX_EXIT_ID, i32::from(exit));
            self.asm.mov_mem32_imm(R15, CTX_LINK_BC, bytecodes as i32);
            self.asm.jcc(CC_E, took);
            self.asm.bind(other);
        }
        self.asm.jmp(back);
        self.asm.bind(took);
        self.asm.mov_r64_mem(RAX, R9, CTX_INSTS);
        self.asm.cmp_r64_mem(RAX, R15, CTX_BUDGET);
        self.asm.jcc(CC_AE, back);
        self.asm.mov_r64_mem(R8, R9, CTX_AR);
    }

    /// Stages `moves`' converted words (r10) from either record; a
    /// refusal goes to `refuse`. Host words are the host's.
    fn stage_words(&mut self, moves: &[WordMove], refuse: Label) {
        self.asm.mov_r64_mem(R10, R15, CTX_STAGE);
        for (i, m) in moves.iter().enumerate() {
            let (base, slot, ty) = match m.from {
                WordFrom::Outer(slot, ty) => (R14, slot, ty),
                WordFrom::Inner(slot, ty) => (R8, slot, ty),
                WordFrom::Host => continue,
            };
            self.transfer_word(base, slot, ty, m.ty, refuse);
            self.asm.mov_mem_r64(R10, i as i32 * 8, RAX);
        }
    }

    /// Counts a completed run of tree `link` of site `s`'s chain (r9) for
    /// the host, and takes its steps off the budget. Clobbers rax/rcx.
    fn count_run(&mut self, s: u32, link: usize) {
        let at = s as i32 * std::mem::size_of::<DirectCounts>() as i32;
        let at_link = |field: usize| at + (field + link * 8) as i32;
        self.asm.mov_r64_mem(RAX, R9, CTX_INSTS);
        self.asm.sub_mem_r64(R15, CTX_BUDGET, RAX);
        self.asm.mov_r64_mem(RCX, R15, CTX_COUNTS);
        self.asm.inc_mem64(RCX, at_link(offset_of!(DirectCounts, runs)));
        self.asm.add_mem_r64(RCX, at + offset_of!(DirectCounts, insts) as i32, RAX);
        self.asm.mov_r64_mem(RAX, R9, CTX_ITER);
        self.asm.add_mem_r64(RCX, at_link(offset_of!(DirectCounts, iterations)), RAX);
        self.asm.mov_r64_mem(RAX, R15, CTX_LINK_BC);
        self.asm.add_mem_r64(RCX, at + offset_of!(DirectCounts, bytecodes) as i32, RAX);
    }

    /// Calls `shim(ctx, s, arg)`.
    fn shim_call(&mut self, shim: *const (), s: u32, arg: u32) {
        self.asm.mov_rr64(RDI, R15);
        self.asm.mov_r32_imm(RSI, s);
        self.asm.mov_r32_imm(RDX, arg);
        self.call_shim(shim);
    }

    /// `CallTree` at direct site `s`: its moves and its chain's calls,
    /// inline, in the callee ctx carved out of this run (`ctx.inner`).
    /// The host reads interpreter variables ([`rt::variables_shim`]),
    /// finishes a call not back as expected ([`rt::return_shim`]; from
    /// tree `ctx.link`), and makes a call whose arguments all refuse
    /// ([`rt::call_tree_shim`]). Clobbers every caller-saved register.
    pub(super) fn direct_call(&mut self, s: u32, d: &DirectSite, site_exit: Label) {
        let from_host = |moves: &[WordMove]| moves.iter().any(|m| m.from == WordFrom::Host);
        let (l_host, l_back, l_done) = (self.local(), self.local(), self.local());
        let code = d.callee.code_ptr();
        self.asm.note(|| format!("; direct call: site {s} -> tree code at {code:p}"));
        // The arguments, into the first tree of the chain that takes them
        // (r9 = the callee's ctx, r8 = its record, zeroed).
        let starts: Vec<Label> = d.callees().map(|_| self.local()).collect();
        for (i, (link, args)) in d.args.iter().enumerate() {
            let refused = if i + 1 == d.args.len() { l_host } else { self.local() };
            let callee_ar = if *link == 0 { d.callee_ar } else { d.hops[link - 1].callee_ar };
            self.asm.mov_r64_mem(R9, R15, CTX_INNER);
            self.zero_words(R9, CTX_AR, callee_ar);
            self.asm.mov_r64_mem(R8, R9, CTX_AR);
            for m in args {
                if let WordFrom::Outer(slot, ty) = m.from {
                    self.transfer_word(R14, slot, ty, m.ty, refused);
                    self.asm.mov_mem_r64(R8, ar_disp(m.to), RAX);
                }
            }
            if from_host(args) {
                self.asm.mov_mem32_imm(R15, CTX_LINK, *link as i32);
                self.variables_call(s, Variables::Args, Some(refused));
            }
            self.asm.jmp(starts[*link]);
            if refused != l_host {
                self.asm.bind(refused);
            }
        }
        for (link, &start) in starts.iter().enumerate() {
            self.asm.bind(start);
            self.run_callee(d, link, l_back);
            let Some(hop) = d.hops.get(link) else { break };
            // Figure 6: the next tree's record from this one's.
            self.stage_words(&hop.moves, l_back);
            self.count_run(s, link);
            self.zero_words(R9, CTX_AR, hop.callee_ar);
            for (i, m) in hop.moves.iter().enumerate() {
                self.asm.mov_r64_mem(RAX, R10, i as i32 * 8);
                self.asm.mov_mem_r64(R8, ar_disp(m.to), RAX);
            }
            if d.observed {
                self.shim_call(rt::observe_shim as *const (), s, link as u32);
            }
        }
        // The refresh: every word staged (r10) before any is stored.
        if from_host(&d.refresh) {
            self.variables_call(s, Variables::Refresh, Some(l_back));
            self.asm.mov_r64_mem(R8, R9, CTX_AR);
        }
        self.stage_words(&d.refresh, l_back);
        for (i, m) in d.refresh.iter().enumerate() {
            self.asm.mov_r64_mem(RAX, R10, i as i32 * 8);
            self.store_ar64(m.to, RAX);
        }
        if d.flush {
            self.variables_call(s, Variables::Flush, None);
        }
        self.count_run(s, d.hops.len());
        if d.observed {
            self.shim_call(rt::observe_shim as *const (), s, u32::MAX);
        }
        self.asm.jmp(l_done);
        self.asm.bind(l_back);
        self.asm.note(|| format!("; return shim: site {s}"));
        self.call_site_shim(rt::return_shim as *const (), s, site_exit);
        self.asm.jmp(l_done);
        self.asm.bind(l_host);
        self.host_call(s, site_exit);
        self.asm.bind(l_done);
    }
}
