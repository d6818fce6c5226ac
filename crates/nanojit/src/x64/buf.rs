//! The code's home: [`ExecBuf`], a W^X mapping with room to grow, and
//! [`NativeTree`], which lays each chunk of a tree's code in it, patches
//! stitches over exit trampolines, and runs the code.

use tm_runtime::trace_helpers::Helper;
use tm_runtime::{Realm, RuntimeError};

use super::enc::{patch_jmp, Label};
use super::lower::{Emitter, SiteTail};
use super::rt::NativeCtx;
use super::{native_supported, unsupported_op, DirectSite, HeapSites, Unsupported, WordMove};
use super::MAX_HELPER_ARGS;
use crate::executor::{DirectCounts, TraceExit, TreeHost};
use crate::machinst::{Fragment, MachInst, EXIT_UNSTITCHED, REG_FILE_WORDS};

pub(super) const SYS_MMAP: isize = 9;
pub(super) const SYS_MPROTECT: isize = 10;
const SYS_MUNMAP: isize = 11;
const PROT_RW: usize = 0x3;
const PROT_RX: usize = 0x5;
const MAP_PRIVATE_ANON: usize = 0x22;

/// Spare room reserved behind a tree's first emission so that branch
/// fragments append in place: the mapping is `CAPACITY_FACTOR` times
/// the first emission, and at least `CAPACITY_FLOOR`. Pages of an
/// anonymous mapping that are never written cost address space only,
/// so the floor is sized for the large trees: of the 117 trees the 26
/// suite programs build, the largest is 58 KB (`date-format-tofte`). A
/// tree that outgrows its mapping is rebuilt whole into one
/// `CAPACITY_FACTOR` times its new size.
const CAPACITY_FACTOR: usize = 4;
const CAPACITY_FLOOR: usize = 256 * 1024;

thread_local! {
    /// Test-only failure switch: the next `mmap` or `mprotect` (by
    /// syscall number) issued on this thread is refused.
    #[cfg(test)]
    pub(super) static REFUSE_NEXT: std::cell::Cell<Option<isize>> =
        const { std::cell::Cell::new(None) };
}

/// A Linux x86-64 system call. Other targets emit no code and so map
/// nothing: there every call fails with `ENOSYS`.
///
/// # Safety
///
/// `n` with `args` must be a system call that is sound to issue: here
/// an anonymous `mmap` at a kernel-chosen address, or
/// `mprotect`/`munmap` on a range this module mapped and nothing else
/// references.
unsafe fn syscall(n: isize, args: [usize; 6]) -> isize {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let ret: isize;
        // SAFETY: the Linux x86-64 syscall convention; rcx/r11 are
        // declared clobbered, and the caller vouches for the call itself.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") args[0],
                in("rsi") args[1],
                in("rdx") args[2],
                in("r10") args[3],
                in("r8") args[4],
                in("r9") args[5],
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    {
        let _ = (n, args);
        -38
    }
}

/// A page-rounded mapping holding one tree's code, or nothing yet
/// (`len == 0`). The pages are `rw-` while code is copied in or
/// patched and `r-x` otherwise — never writable and executable at
/// once.
struct ExecBuf {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: `ptr` is this value's own mapping. Code in it only touches
// memory through the ctx it is called with, so executing through
// `&ExecBuf` from any thread is sound; the mapping is written only by
// `NativeTree::append`, which owns the tree by value (no `&` to it can
// exist), and trees are realm-local in the monitor.
unsafe impl Send for ExecBuf {}
// SAFETY: as above.
unsafe impl Sync for ExecBuf {}

impl ExecBuf {
    const UNMAPPED: ExecBuf = ExecBuf { ptr: std::ptr::null_mut(), len: 0 };

    #[cfg(test)]
    fn refused(nr: isize) -> bool {
        REFUSE_NEXT.with(|r| r.get() == Some(nr) && r.replace(None).is_some())
    }

    /// Maps `len` (a page multiple) bytes `rw-`.
    fn map(len: usize) -> Option<ExecBuf> {
        #[cfg(test)]
        if ExecBuf::refused(SYS_MMAP) {
            return None;
        }
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let addr = unsafe {
            syscall(SYS_MMAP, [0, len, PROT_RW, MAP_PRIVATE_ANON, usize::MAX, 0])
        };
        if (-4095..0).contains(&addr) {
            return None;
        }
        Some(ExecBuf { ptr: addr as *mut u8, len })
    }

    /// Flips the whole mapping to `prot`; `false` when the OS refuses.
    fn protect(&self, prot: usize) -> bool {
        #[cfg(test)]
        if ExecBuf::refused(SYS_MPROTECT) {
            return false;
        }
        // SAFETY: `ptr..ptr+len` is this value's own live mapping.
        unsafe { syscall(SYS_MPROTECT, [self.ptr as usize, self.len, prot, 0, 0, 0]) == 0 }
    }
}

impl Drop for ExecBuf {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: `ptr..ptr+len` is this value's own mapping, and
            // no code in it is running: every run borrows the tree.
            unsafe { syscall(SYS_MUNMAP, [self.ptr as usize, self.len, 0, 0, 0, 0]) };
        }
    }
}

/// Translates a whole trace tree (trunk fragment 0 plus stitched
/// branch fragments) into one executable buffer: a tree with nothing
/// mapped yet, grown by every fragment ([`NativeTree::append`]).
///
/// # Errors
///
/// [`Unsupported`] when any fragment contains an op outside the
/// native subset, or when the OS refuses an executable mapping. The
/// caller falls back to the decoded executor for the whole tree.
pub fn emit_tree(fragments: &[Fragment]) -> Result<NativeTree, Unsupported> {
    NativeTree::emit(fragments, &[])
}

/// [`emit_tree`], additionally collecting the per-instruction and
/// exit-trampoline annotations [`NativeTree::hexdump`] interleaves
/// with the code bytes, with `CallTree`s at the sites `sites` names
/// made direct. Diagnostics only: formatting the annotations costs
/// more than the emission itself.
pub fn emit_tree_annotated(
    fragments: &[Fragment],
    sites: &[Option<DirectSite>],
) -> Result<NativeTree, Unsupported> {
    NativeTree::unmapped(Some(Vec::new())).append(fragments, sites)
}

/// Spill words [`NativeTree::execute`] keeps on its own frame, after the
/// memory file. The 117 trees the 26 suite programs build spill 9 words
/// or fewer (105 none).
const INLINE_SPILLS: usize = 16;

/// A trace tree compiled to native x86-64 code.
///
/// Executing it is semantically identical to running the decoded
/// executor over the same fragments: same AR effects, same realm
/// effects, same [`TraceExit`] including all counters.
pub struct NativeTree {
    buf: ExecBuf,
    /// Bytes of `buf` holding code; the rest is room to grow.
    code_len: usize,
    /// Offset of the common epilogue (laid right after the prologue,
    /// so every later chunk can jump back to it).
    epilogue: usize,
    /// Offset of each fragment body; [`NativeTree::execute`] turns
    /// the start fragment into the address the prologue jumps to.
    frag_offsets: Vec<u32>,
    /// The exit trampolines no branch is stitched to yet.
    tails: Vec<SiteTail>,
    max_spills: usize,
    /// Hexdump annotations, collected only for
    /// [`emit_tree_annotated`] trees.
    notes: Option<Vec<(usize, String)>>,
    /// `CallHelper` side table; emitted sites index into it (the
    /// `Helper` enum carries a payload variant, so it cannot be an
    /// immediate in the code stream).
    helpers: Vec<Helper>,
    /// The `CallTree` sites emitted direct, by site id; `None` for
    /// those that go through the host.
    direct: Vec<Option<DirectSite>>,
    /// The room a run carves out for the direct sites' callees: the
    /// largest callee record, spill area and refresh.
    callee_room: (usize, usize, usize),
    heap_sites: HeapSites,
}

/// A tree's code is equal to itself only: a caller's direct site holds
/// its callee's code by identity.
impl PartialEq for NativeTree {
    fn eq(&self, other: &NativeTree) -> bool {
        std::ptr::eq(self, other)
    }
}

impl std::fmt::Debug for NativeTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeTree")
            .field("code_len", &self.code_len)
            .field("num_frags", &self.frag_offsets.len())
            .field("direct_sites", &self.direct.iter().flatten().count())
            .finish_non_exhaustive()
    }
}

impl NativeTree {
    fn unmapped(notes: Option<Vec<(usize, String)>>) -> NativeTree {
        NativeTree {
            buf: ExecBuf::UNMAPPED,
            code_len: 0,
            epilogue: 0,
            frag_offsets: Vec::new(),
            tails: Vec::new(),
            max_spills: 0,
            notes,
            helpers: Vec::new(),
            direct: Vec::new(),
            callee_room: (0, 0, 0),
            heap_sites: HeapSites::new(),
        }
    }

    /// Translates a whole trace tree into one executable buffer, as
    /// [`emit_tree`] does, with the `CallTree` of every site `sites`
    /// names (by site id) made direct.
    ///
    /// # Errors
    ///
    /// As [`emit_tree`].
    pub fn emit(
        fragments: &[Fragment],
        sites: &[Option<DirectSite>],
    ) -> Result<NativeTree, Unsupported> {
        NativeTree::unmapped(None).append(fragments, sites)
    }

    /// The heap accesses this code holds, by family and lowering.
    pub fn heap_sites(&self) -> &HeapSites {
        &self.heap_sites
    }

    /// The sites whose `CallTree` this code runs directly, by site id.
    pub fn direct_sites(&self) -> &[Option<DirectSite>] {
        &self.direct
    }

    /// Takes `sites`' entries for the `CallTree`s of `new` fragments
    /// whose moves all lower, and grows the callee room to fit them.
    fn take_sites(&mut self, new: &[Fragment], sites: &[Option<DirectSite>]) {
        let calls = new.iter().flat_map(|f| &f.code).filter_map(|inst| match *inst {
            MachInst::CallTree { tree, .. } => Some(tree as usize),
            _ => None,
        });
        for s in calls {
            let Some(Some(d)) = sites.get(s) else { continue };
            if !d.moves().all(WordMove::lowers) {
                continue;
            }
            if self.direct.len() <= s {
                self.direct.resize(s + 1, None);
            }
            let (ar, spill, stage) = &mut self.callee_room;
            let hops = d.hops.iter().map(|h| (h.callee_ar, h.moves.len()));
            for (callee_ar, words) in hops.chain([(d.callee_ar, d.refresh.len())]) {
                (*ar, *stage) = ((*ar).max(callee_ar), (*stage).max(words));
            }
            *spill = d.callees().fold(*spill, |n, c| n.max(c.max_spills));
            self.direct[s] = Some(d.clone());
        }
    }

    /// Grows the tree to cover `fragments`: the bodies and exit
    /// trampolines of `fragments[self.num_fragments()..]` are laid at
    /// the tail of the mapping, and every stitch in `fragments` not
    /// patched in yet overwrites the tail of the parent's exit
    /// trampoline(s) with a `jmp` to the target body. Code laid
    /// earlier is not emitted again and does not move.
    /// `fragments[..self.num_fragments()]` must be the fragments the
    /// tree was grown from so far, with stitches added at most. The
    /// mapping is `rw-` while it is written and `r-x` again before
    /// this returns.
    ///
    /// # Errors
    ///
    /// The tree is consumed and its mapping released.
    /// [`Unsupported::FULL`] when the new code does not fit the
    /// reserved capacity — rebuild with [`emit_tree`]; otherwise an
    /// op the emitter refuses or a refused `mmap`/`mprotect`.
    pub fn append(
        mut self,
        fragments: &[Fragment],
        sites: &[Option<DirectSite>],
    ) -> Result<NativeTree, Unsupported> {
        if !native_supported() {
            return Err(Unsupported { what: "target (requires x86-64 linux)" });
        }
        let first = self.frag_offsets.len();
        let new = &fragments[first..];
        if let Some(what) = new.iter().flat_map(|f| &f.code).find_map(unsupported_op) {
            return Err(Unsupported { what });
        }
        self.take_sites(new, sites);
        let mut e = Emitter::new(
            self.code_len,
            self.notes.take(),
            std::mem::take(&mut self.helpers),
            std::mem::take(&mut self.direct),
            std::mem::take(&mut self.heap_sites),
        );
        if self.code_len == 0 {
            e.prologue();
            self.epilogue = e.asm.here();
            e.epilogue();
        } else {
            e.asm.bind_at(Label::Epilogue, self.epilogue);
            e.asm.bind_at(Label::Trunk, self.frag_offsets[0] as usize);
        }
        for (k, frag) in (first..).zip(new) {
            if k == 0 {
                e.asm.bind(Label::Trunk);
            }
            self.frag_offsets.push(e.asm.here() as u32);
            e.body(k as u32, frag);
            self.max_spills = self.max_spills.max(frag.num_spills as usize);
        }
        self.tails.extend(e.emit_sites());
        let (chunk, mut notes) = e.asm.finish();
        self.helpers = e.helpers;
        self.direct = e.direct;
        self.heap_sites = e.heap_sites;

        let new_len = self.code_len + chunk.len();
        if self.buf.len == 0 {
            let capacity =
                (new_len * CAPACITY_FACTOR).max(CAPACITY_FLOOR).div_ceil(4096) * 4096;
            self.buf = ExecBuf::map(capacity).ok_or(Unsupported { what: "mmap" })?;
        } else if new_len > self.buf.len {
            return Err(Unsupported::FULL);
        } else if !self.buf.protect(PROT_RW) {
            return Err(Unsupported { what: "mprotect" });
        }
        // SAFETY: the mapping is `rw-` (fresh, or just flipped), at
        // least `new_len` bytes long, and this tree — owned by value,
        // so nothing is running in it — is the only thing naming it.
        let code = unsafe { std::slice::from_raw_parts_mut(self.buf.ptr, new_len) };
        code[self.code_len..].copy_from_slice(&chunk);
        // Stitch: every trampoline whose exit now has a target jumps
        // there and leaves the table of unstitched ones.
        self.tails.retain(|site| {
            let target = fragments[site.frag as usize].stitch[usize::from(site.exit)];
            if target == EXIT_UNSTITCHED {
                return true;
            }
            let tail = site.tail as usize;
            patch_jmp(code, tail, self.frag_offsets[target as usize] as usize);
            if let Some(notes) = &mut notes {
                notes.push((tail, format!("; stitched: jmp fragment {target}")));
            }
            false
        });
        if !self.buf.protect(PROT_RX) {
            return Err(Unsupported { what: "mprotect" });
        }
        self.code_len = new_len;
        self.notes = notes;
        if let Some(notes) = &mut self.notes {
            // Stable: a stitch note stays behind its trampoline's.
            notes.sort_by_key(|&(off, _)| off);
        }
        Ok(self)
    }

    /// Runs the tree from its trunk until an unstitched exit.
    ///
    /// Mirrors `executor::execute` — same signature shape, same
    /// semantics (the decoded tier zeroes its register file, which no
    /// verified fragment can observe: it writes every vreg before
    /// reading it), loop edges poll `realm.interrupt` /
    /// `realm.heap.gc_pending` and the `fuel` budget, `CallTree` sites
    /// re-enter `host` — or, at
    /// a direct site, call the callee's code and leave the host what
    /// it would have counted ([`TreeHost::fold`], before this
    /// returns).
    ///
    /// # Errors
    ///
    /// A `RuntimeError` raised by a helper call or a nested tree
    /// (reported out-of-band through the ctx error slot) is returned
    /// exactly as the decoded executor would return it.
    pub fn execute(
        &self,
        ar: &mut [u64],
        realm: &mut Realm,
        host: &mut dyn TreeHost,
        fuel: u64,
    ) -> Result<TraceExit, RuntimeError> {
        // The memory file and, right after it, the spill area live on
        // this frame; only a tree that spills more than `INLINE_SPILLS`
        // words takes them from the heap.
        let mut inline_file = [0u64; REG_FILE_WORDS + INLINE_SPILLS];
        let mut heap_file = Vec::new();
        let file: &mut [u64] = if self.max_spills <= INLINE_SPILLS {
            &mut inline_file
        } else {
            heap_file.resize(REG_FILE_WORDS + self.max_spills, 0u64);
            &mut heap_file
        };
        let mut error: Option<RuntimeError> = None;
        let mut host: &mut dyn TreeHost = host;
        let realm_ptr: *mut Realm = realm;
        let mut ctx = NativeCtx {
            ar: ar.as_mut_ptr(),
            regs: file.as_mut_ptr(),
            realm: realm_ptr,
            // SAFETY: `realm_ptr` comes from the `&mut Realm` above;
            // taking a field address reads nothing.
            interrupt: unsafe { &raw const (*realm_ptr).interrupt },
            // SAFETY: as above.
            gc_pending: unsafe { &raw const (*realm_ptr).heap.gc_pending },
            fuel,
            entry: self.trunk(),
            iterations: 0,
            insts: 0,
            exit_fragment: 0,
            exit_id: 0,
            helpers: self.helper_table(),
            helper_args: [0u64; MAX_HELPER_ARGS],
            helper_result: 0,
            ar_len: ar.len() as u64,
            host: (&raw mut host).cast::<core::ffi::c_void>(),
            error: &raw mut error,
            inner: std::ptr::null_mut(),
            counts: std::ptr::null_mut(),
            sites: 0,
            stage: std::ptr::null_mut(),
            stage_len: 0,
            budget: fuel,
            link: 0,
            link_bytecodes: 0,
        };
        // Direct sites run their callee in room carved out of this
        // run; the callee ctx shares the realm, host and error slot.
        let (mut words, mut counts, mut callee) = (Vec::new(), Vec::new(), None);
        if self.direct.iter().any(Option::is_some) {
            let (callee_ar, spill, stage) = self.callee_room;
            words.resize(REG_FILE_WORDS + spill + callee_ar + stage, 0u64);
            counts.resize(self.direct.len(), DirectCounts::default());
            let base = words.as_mut_ptr();
            // SAFETY: the memory file, spill area, record and staged
            // refresh lie in `words`, in that order.
            let at = |n: usize| unsafe { base.add(n) };
            let (ar, ar_len) = (at(REG_FILE_WORDS + spill), callee_ar as u64);
            ctx.inner = callee.insert(NativeCtx { regs: base, ar, ar_len, ..ctx });
            (ctx.counts, ctx.sites) = (counts.as_mut_ptr(), counts.len() as u64);
            (ctx.stage, ctx.stage_len) = (at(REG_FILE_WORDS + spill + callee_ar), stage as u64);
        }
        // SAFETY: `buf` starts with the prologue this module emitted
        // for exactly this signature and is `r-x`: `append` is the
        // only writer and takes the tree by value, so it cannot run
        // while `&self` is live. Every pointer in `ctx` (and in the
        // callee ctx) outlives the call; a direct site's callee code
        // is held by `self.direct`.
        let run = unsafe {
            std::mem::transmute::<*mut u8, extern "C" fn(*mut NativeCtx)>(self.buf.ptr)
        };
        run(&mut ctx);
        if callee.is_some() {
            host.fold(&mut counts);
        }
        if let Some(e) = error {
            return Err(e);
        }
        Ok(ctx.exit())
    }

    /// Bytes of emitted code (not the reserved capacity).
    pub fn code_size(&self) -> usize {
        self.code_len
    }

    /// Base address of the executable mapping (diagnostics only).
    pub fn code_ptr(&self) -> *const u8 {
        self.buf.ptr
    }

    /// Address of the trunk's body, where every run starts.
    pub(super) fn trunk(&self) -> *const u8 {
        // SAFETY: a fragment offset lies inside the mapping.
        unsafe { self.buf.ptr.add(self.frag_offsets[0] as usize) }
    }

    /// The `CallHelper` side table a run's ctx points at.
    pub(super) fn helper_table(&self) -> *const Helper {
        self.helpers.as_ptr()
    }

    /// Number of fragment bodies in the buffer.
    pub fn num_fragments(&self) -> usize {
        self.frag_offsets.len()
    }

    /// Annotated hexdump of the emitted buffer: each virtual-ISA
    /// instruction / exit trampoline line followed by the machine
    /// bytes it compiled to. Empty unless the tree was built by
    /// [`emit_tree_annotated`].
    pub fn hexdump(&self) -> String {
        let notes = self.notes.as_deref().unwrap_or(&[]);
        // SAFETY: the first `code_len` bytes of the mapping are
        // initialized code, readable (`r-x`) while `&self` is live.
        let code = unsafe { std::slice::from_raw_parts(self.buf.ptr, self.code_len) };
        let mut out = String::new();
        for (n, (off, text)) in notes.iter().enumerate() {
            let end = notes.get(n + 1).map_or(self.code_len, |(o, _)| *o);
            out.push_str(&format!("{off:08x}  {text}\n"));
            for line in code[*off..end].chunks(16) {
                let hex: Vec<String> = line.iter().map(|b| format!("{b:02x}")).collect();
                out.push_str(&format!("          {}\n", hex.join(" ")));
            }
        }
        out
    }
}
