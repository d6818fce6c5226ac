//! The code's home: [`ExecBuf`], a range of the process's one code file
//! with room to grow, and [`NativeTree`], which lays each chunk of a
//! tree's code in it, patches stitches over exit trampolines, and runs
//! the code.
//!
//! # The code file
//!
//! At the first emission the process creates one anonymous file
//! (`memfd_create`), sizes it to [`RESERVATION`] bytes (sparse: pages
//! nothing wrote cost nothing) and maps it once, `r-x` and shared. A
//! tree's buffer is a range of that file, handed out by a small
//! allocator behind a lock that reuses a freed range of the same length
//! before it grows; dropping the tree returns the range. Code is written
//! into the file with `pwrite` at the range's offset, the new chunk and
//! each stitch's 5-byte `jmp` alike: the kernel stores into the page the
//! mapping shares, so no user-space mapping of code is ever writable
//! (W^X without a window), and a new tree changes no page protection
//! and maps nothing. When the OS refuses any of these calls, or the
//! reservation is spent, the one tree is refused ([`Unsupported`]) and
//! runs on the decoded executor.
//!
//! Executing code written this way is sound because:
//! - code is written only while its tree is owned by value
//!   ([`NativeTree::append`] takes `self`; every run borrows the tree),
//!   by the thread that then runs it, so no run is inside the bytes
//!   being written;
//! - x86 keeps instruction fetch coherent with stores by physical
//!   address, so the mapping fetches what the kernel stored through the
//!   file, with no cache flush;
//! - a reused range's previous tree has been dropped: no run, and no
//!   direct site of another tree (which holds its callee by `Arc`), can
//!   still reach the old bytes.

use std::sync::{Mutex, PoisonError};

use tm_runtime::trace_helpers::Helper;
use tm_runtime::{Realm, RuntimeError};

use super::enc::{jmp_rel32, Label};
use super::lower::{Emitter, SiteTail};
use super::rt::NativeCtx;
use super::{native_supported, unsupported_op, DirectSite, HeapSites, Unsupported, WordMove};
use super::MAX_HELPER_ARGS;
use crate::executor::{DirectCounts, TraceExit, TreeHost};
use crate::machinst::{Fragment, MachInst, EXIT_UNSTITCHED, REG_FILE_WORDS};

const SYS_CLOSE: isize = 3;
pub(super) const SYS_MMAP: isize = 9;
pub(super) const SYS_PWRITE64: isize = 18;
pub(super) const SYS_FTRUNCATE: isize = 77;
pub(super) const SYS_MEMFD_CREATE: isize = 319;
const PROT_RX: usize = 0x5;
const MAP_SHARED: usize = 0x1;
const MFD_CLOEXEC: usize = 0x1;

/// Bytes of the code file, reserved at the first emission. Only the
/// pages code was written to take memory; the rest is address space.
/// The unit tests reserve less, so that one of them can spend it.
pub(super) const RESERVATION: usize = if cfg!(test) { 64 << 20 } else { 1 << 30 };

/// Spare room reserved behind a tree's first emission so that branch
/// fragments append in place: the range is `CAPACITY_FACTOR` times
/// the first emission, and at least `CAPACITY_FLOOR`. Pages of the
/// code file that are never written cost address space only, so the
/// floor is sized for the large trees: of the 117 trees the 26 suite
/// programs build, the largest is 58 KB (`date-format-tofte`). A tree
/// that outgrows its range is rebuilt whole into one `CAPACITY_FACTOR`
/// times its new size.
const CAPACITY_FACTOR: usize = 4;
pub(super) const CAPACITY_FLOOR: usize = 256 * 1024;

thread_local! {
    /// Test-only failure switch: the next `memfd_create`, `ftruncate`,
    /// `mmap` or `pwrite64` (by syscall number) issued on this thread is
    /// refused.
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
/// the creation, sizing, mapping and closing of the code file, or a
/// `pwrite64` from a live buffer into a range of it no run can reach.
unsafe fn syscall(n: isize, args: [usize; 6]) -> isize {
    #[cfg(test)]
    if REFUSE_NEXT.with(|r| r.get() == Some(n) && r.replace(None).is_some()) {
        return -1;
    }
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

/// Whether a raw syscall return is an error (`-4095..0`).
fn failed(ret: isize) -> bool {
    (-4095..0).contains(&ret)
}

/// The process's code file: its descriptor, where it is mapped, and the
/// ranges handed out.
pub(super) struct CodeFile {
    fd: usize,
    base: usize,
    /// Bytes handed out from offset 0: the high-water mark.
    top: usize,
    /// Ranges `(offset, len)` given back, for the next request of the
    /// same length.
    free: Vec<(usize, usize)>,
}

/// Created at the first emission; a refused creation leaves it `None`
/// and the next emission tries again. Every update under the lock leaves
/// it valid, so a poisoned lock is taken as it is.
static CODE_FILE: Mutex<Option<CodeFile>> = Mutex::new(None);

impl CodeFile {
    fn open() -> Result<CodeFile, Unsupported> {
        // SAFETY: creating, sizing and mapping a fresh file touches no
        // memory the program holds; the name is NUL-terminated.
        unsafe {
            let name = c"tm-code".as_ptr() as usize;
            let fd = syscall(SYS_MEMFD_CREATE, [name, MFD_CLOEXEC, 0, 0, 0, 0]);
            if failed(fd) {
                return Err(Unsupported { what: "memfd_create" });
            }
            let fd = fd as usize;
            let refused = if failed(syscall(SYS_FTRUNCATE, [fd, RESERVATION, 0, 0, 0, 0])) {
                "ftruncate"
            } else {
                let base = syscall(SYS_MMAP, [0, RESERVATION, PROT_RX, MAP_SHARED, fd, 0]);
                if !failed(base) {
                    return Ok(CodeFile { fd, base: base as usize, top: 0, free: Vec::new() });
                }
                "mmap"
            };
            syscall(SYS_CLOSE, [fd, 0, 0, 0, 0, 0]);
            Err(Unsupported { what: refused })
        }
    }

    /// Bytes of the code file handed out so far.
    #[cfg(test)]
    pub(super) fn top() -> usize {
        CODE_FILE.lock().unwrap_or_else(PoisonError::into_inner).as_ref().map_or(0, |f| f.top)
    }
}

/// A range of the code file holding one tree's code, or nothing yet
/// (`len == 0`). It is mapped `r-x` only; [`ExecBuf::write`] stores
/// into it through the file.
struct ExecBuf {
    ptr: *const u8,
    fd: usize,
    off: usize,
    len: usize,
}

// SAFETY: `ptr` is this value's own range of the code file. Code in it
// only touches memory through the ctx it is called with, so executing
// through `&ExecBuf` from any thread is sound; the range is written only
// by `NativeTree::append`, which owns the tree by value (no `&` to it
// can exist), and trees are realm-local in the monitor.
unsafe impl Send for ExecBuf {}
// SAFETY: as above.
unsafe impl Sync for ExecBuf {}

impl ExecBuf {
    const UNMAPPED: ExecBuf = ExecBuf { ptr: std::ptr::null(), fd: 0, off: 0, len: 0 };

    /// Hands out `len` (a page multiple) bytes of the code file,
    /// creating it at the first call.
    fn alloc(len: usize) -> Result<ExecBuf, Unsupported> {
        let mut file = CODE_FILE.lock().unwrap_or_else(PoisonError::into_inner);
        let f = match &mut *file {
            Some(f) => f,
            none @ None => none.insert(CodeFile::open()?),
        };
        let off = match f.free.iter().rposition(|&(_, l)| l == len) {
            Some(i) => f.free.swap_remove(i).0,
            None if f.top + len <= RESERVATION => {
                f.top += len;
                f.top - len
            }
            None => return Err(Unsupported { what: "reservation" }),
        };
        Ok(ExecBuf { ptr: (f.base + off) as *const u8, fd: f.fd, off, len })
    }

    /// Stores `bytes` at offset `at` of the range; `false` when the OS
    /// refuses.
    fn write(&self, at: usize, bytes: &[u8]) -> bool {
        // Past the range lies another tree's code.
        assert!(at + bytes.len() <= self.len, "code written past its range");
        let mut done = 0;
        while done < bytes.len() {
            let rest = &bytes[done..];
            let pos = self.off + at + done;
            // SAFETY: reads `rest`, a live slice, and writes this
            // value's own range of the code file, which no run is
            // executing (see the module docs).
            let n = unsafe {
                syscall(SYS_PWRITE64, [self.fd, rest.as_ptr() as usize, rest.len(), pos, 0, 0])
            };
            if n <= 0 {
                return false;
            }
            done += n as usize;
        }
        true
    }
}

impl Drop for ExecBuf {
    fn drop(&mut self) {
        if self.len != 0 {
            let mut file = CODE_FILE.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(f) = file.as_mut() {
                f.free.push((self.off, self.len));
            }
        }
    }
}

/// Translates a whole trace tree (trunk fragment 0 plus stitched
/// branch fragments) into one executable buffer: a tree with no range
/// yet, grown by every fragment ([`NativeTree::append`]).
///
/// # Errors
///
/// [`Unsupported`] when any fragment contains an op outside the
/// native subset, or when the code file cannot take it (module docs).
/// The caller falls back to the decoded executor for the whole tree.
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
    /// the tail of its range, and every stitch in `fragments` not
    /// patched in yet overwrites the tail of the parent's exit
    /// trampoline(s) with a `jmp` to the target body. Code laid
    /// earlier is not emitted again and does not move.
    /// `fragments[..self.num_fragments()]` must be the fragments the
    /// tree was grown from so far, with stitches added at most. The
    /// bytes are written through the code file (module docs).
    ///
    /// # Errors
    ///
    /// The tree is consumed and its range released.
    /// [`Unsupported::FULL`] when the new code does not fit the
    /// reserved capacity — rebuild with [`emit_tree`]; otherwise an
    /// op the emitter refuses, a refused syscall, or a spent
    /// reservation.
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
        let (mut chunk, mut notes) = e.asm.finish();
        self.helpers = e.helpers;
        self.direct = e.direct;
        self.heap_sites = e.heap_sites;

        let new_len = self.code_len + chunk.len();
        if self.buf.len == 0 {
            let capacity =
                (new_len * CAPACITY_FACTOR).max(CAPACITY_FLOOR).div_ceil(4096) * 4096;
            self.buf = ExecBuf::alloc(capacity)?;
        } else if new_len > self.buf.len {
            return Err(Unsupported::FULL);
        }
        // Stitch: every trampoline whose exit now has a target jumps
        // there and leaves the table of unstitched ones. A trampoline in
        // the new chunk is patched before the chunk is written; one in
        // older code is written on its own.
        let mut patches = Vec::new();
        self.tails.retain(|site| {
            let target = fragments[site.frag as usize].stitch[usize::from(site.exit)];
            if target == EXIT_UNSTITCHED {
                return true;
            }
            let tail = site.tail as usize;
            let jmp = jmp_rel32(tail, self.frag_offsets[target as usize] as usize);
            match tail.checked_sub(self.code_len) {
                Some(at) => chunk[at..at + jmp.len()].copy_from_slice(&jmp),
                None => patches.push((tail, jmp)),
            }
            if let Some(notes) = &mut notes {
                notes.push((tail, format!("; stitched: jmp fragment {target}")));
            }
            false
        });
        let written = self.buf.write(self.code_len, &chunk)
            && patches.iter().all(|(at, jmp)| self.buf.write(*at, jmp));
        if !written {
            return Err(Unsupported { what: "pwrite" });
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
        // for exactly this signature and is mapped `r-x`: `append` is
        // the only writer and takes the tree by value, so it cannot run
        // while `&self` is live (module docs). Every pointer in `ctx`
        // (and in the callee ctx) outlives the call; a direct site's
        // callee code is held by `self.direct`.
        let run = unsafe {
            std::mem::transmute::<*const u8, extern "C" fn(*mut NativeCtx)>(self.buf.ptr)
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

    /// Base address of the tree's code (diagnostics only).
    pub fn code_ptr(&self) -> *const u8 {
        self.buf.ptr
    }

    /// Address of the trunk's body, where every run starts.
    pub(super) fn trunk(&self) -> *const u8 {
        // SAFETY: a fragment offset lies inside the range.
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
        // SAFETY: the first `code_len` bytes of the range hold the
        // tree's code, readable (`r-x`) while `&self` is live.
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
