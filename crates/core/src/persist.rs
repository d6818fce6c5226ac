//! The persistent trace cache: warm-starting the JIT across processes.
//!
//! A cold process pays the full Figure-2 warm-up cost — interpret, count
//! hotness, record, compile — before any loop runs natively. This module
//! serializes the monitor's durable state (compiled trace trees, the
//! integer-demotion oracle, the blacklist, silenced anchors) to a compact
//! little-endian binary file, and reloads it at the start of a later run
//! of the *same program*, skipping warm-up entirely.
//!
//! The on-disk format is specified normatively in `docs/PERSISTENCE.md`;
//! this module is its reference implementation. The safety story, in one
//! paragraph: a cache entry is keyed by a checksum of the compiled
//! bytecode program and guarded by a fingerprint of the realm as it stood
//! at install time (the point right after compilation, where a warm
//! process loads). A loaded entry is fully decoded and structurally
//! validated, its shape references are resolved by *property-name path*
//! (not by raw id) against the live shape tree, and every fragment must
//! pass `tm-verifier::verify_loaded_fragments` before anything is
//! installed. Any mismatch, truncation, bit flip, or version skew rejects
//! the entry — counted in [`crate::profiler::ProfileStats`] — and the run
//! degrades to an ordinary cold start. Loaded code is never executed
//! unverified, and a corrupt cache never aborts the VM.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tm_bytecode::{FuncId, LoopId, Program};
use tm_interp::Interp;
use tm_lir::{ArSlot, LirType};
use tm_nanojit::serial::{decode_fragment, encode_fragment};
use tm_nanojit::{Fragment, MachInst};
use tm_runtime::{Helper, Realm, ShapeId};
use tm_support::{fnv1a64, BinError, ByteReader, ByteWriter, Fnv1a64};

use crate::activation::{ArLayout, SlotBinding, SlotKey};
use crate::blacklist::PersistedEntry;
use crate::exit::{ExitKind, FrameDesc, SideExitInfo};
use crate::monitor::Monitor;
use crate::oracle::{Site, VarKey};
use crate::shared_cache::entry_digest;
use crate::tree::{Anchor, AnchorKind, NestedSite, TraceTree, TreeCode};

/// File magic: the first four bytes of every trace-cache file.
pub const MAGIC: [u8; 4] = *b"TMTC";

/// Current format version. Readers reject any other value (there is no
/// cross-version migration: a cache is a regenerable artifact, so version
/// skew simply degrades to a cold start).
pub const VERSION: u32 = 5;

/// Why a cache file or entry was rejected. Every variant degrades to a
/// cold start; none is fatal to the VM.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// The file could not be read or written.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`VERSION`].
    BadVersion {
        /// The version found in the file header.
        found: u32,
    },
    /// A structural decoding failure (truncation, bad tag, hostile
    /// length) anywhere in the file.
    Corrupt(BinError),
    /// An entry's trailing FNV-1a checksum did not match its body.
    ChecksumMismatch,
    /// The realm at load time differs from the realm the entry was
    /// installed against.
    FingerprintMismatch {
        /// Fingerprint stored in the entry.
        stored: u64,
        /// Fingerprint of the live realm.
        current: u64,
    },
    /// A guarded shape's stored property path conflicts with the live
    /// shape tree and cannot be remapped.
    ShapeConflict {
        /// The stored shape id.
        id: u32,
    },
    /// A decoded tree failed semantic validation against the running
    /// program.
    BadTree(String),
    /// A loaded fragment failed `tm-verifier` re-verification.
    VerifyFailed {
        /// Index of the offending tree within the entry.
        tree: u32,
        /// Index of the offending fragment within the tree.
        fragment: usize,
        /// The verifier's error, rendered.
        error: String,
    },
    /// The monitor already holds trees; loading is only defined into a
    /// cold (empty) trace cache.
    NotCold,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache i/o error: {e}"),
            CacheError::BadMagic => write!(f, "not a trace-cache file (bad magic)"),
            CacheError::BadVersion { found } => {
                write!(f, "unsupported cache version {found} (expected {VERSION})")
            }
            CacheError::Corrupt(e) => write!(f, "corrupt cache file: {e}"),
            CacheError::ChecksumMismatch => write!(f, "cache entry checksum mismatch"),
            CacheError::FingerprintMismatch { stored, current } => write!(
                f,
                "realm fingerprint mismatch (stored {stored:#018x}, current {current:#018x})"
            ),
            CacheError::ShapeConflict { id } => {
                write!(f, "shape id {id} conflicts with the live shape tree")
            }
            CacheError::BadTree(msg) => write!(f, "invalid cached tree: {msg}"),
            CacheError::VerifyFailed { tree, fragment, error } => {
                write!(f, "verifier rejected loaded tree {tree} fragment {fragment}: {error}")
            }
            CacheError::NotCold => write!(f, "trace cache is not empty; cannot load"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<BinError> for CacheError {
    fn from(e: BinError) -> Self {
        CacheError::Corrupt(e)
    }
}

/// FNV-1a over the compiled program's canonical `Debug` rendering — the
/// cache-entry key. Any change to any function's bytecode, the constant
/// pools, or the property-site allocation changes the key, so a stale
/// entry is simply never found (a miss, not a revalidation failure).
pub fn program_checksum(prog: &Program) -> u64 {
    fnv1a64(format!("{prog:?}").as_bytes())
}

/// Fingerprint of the realm at trace-install time. Captured right after
/// bytecode compilation — the exact point where a warm process loads the
/// cache — so equal fingerprints mean the loaded traces' embedded heap
/// references (callee function objects, string constants, interned
/// symbols, global slots) resolve identically in this process.
///
/// The heap enters as its allocation layout, not its live counts: a
/// long-lived realm that has collected and recycled cells can return to
/// the same counts with its constants at different handles. The
/// collection count separates a realm from its own earlier self (between
/// two evals it either allocated, which changes the layout, or
/// collected). Fresh realms that compiled the same program have equal
/// layouts and no collections, so they still share.
pub fn realm_fingerprint(realm: &Realm) -> u64 {
    let mut h = Fnv1a64::new();
    for (cells, free) in realm.heap.arena_layout() {
        h.update_u64(cells as u64);
        h.update_u64(free.len() as u64);
        for &cell in free {
            h.update_u32(cell);
        }
    }
    h.update_u64(realm.heap.gc_stats().collections);
    h.update_u64(realm.shapes.len() as u64);
    h.update_u64(realm.symbols.len() as u64);
    h.update_u64(realm.globals.len() as u64);
    h.update_u64(realm.natives.len() as u64);
    h.update_u64(realm.rng_state);
    h.finish()
}

/// A cache file bound to one compiled program: the path plus the two
/// values that key and guard its entry. Capture it right after
/// compilation, before the program runs.
#[derive(Debug, Clone)]
pub struct CacheHandle {
    /// The cache file.
    pub path: PathBuf,
    /// [`program_checksum`] of the compiled program.
    pub program_key: u64,
    /// [`realm_fingerprint`] at the capture point.
    pub fingerprint: u64,
}

impl CacheHandle {
    /// Captures the key and fingerprint for `prog` in `realm`.
    pub fn capture(path: PathBuf, prog: &Program, realm: &Realm) -> CacheHandle {
        CacheHandle {
            path,
            program_key: program_checksum(prog),
            fingerprint: realm_fingerprint(realm),
        }
    }
}

/// A guarded shape's creation-order-independent identity: the property
/// names on its transition path from the empty shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapePath {
    /// The shape id as embedded in the entry's fragments.
    pub id: u32,
    /// Property names from the empty shape, in definition order.
    pub path: Vec<String>,
}

/// One fully decoded (but not yet validated or installed) cache entry.
/// [`read_cache_file`] exposes these for offline inspection
/// (`examples/dump_fragments.rs`).
#[derive(Debug)]
pub struct CacheEntry {
    /// [`program_checksum`] key of the program this entry belongs to.
    pub program_key: u64,
    /// [`realm_fingerprint`] at the install point of the saving process.
    pub fingerprint: u64,
    /// Identities of every shape id guarded by the entry's fragments.
    pub shapes: Vec<ShapePath>,
    /// Oracle demoted variables (§3.2).
    pub oracle_vars: Vec<VarKey>,
    /// Oracle demoted arithmetic sites.
    pub oracle_sites: Vec<Site>,
    /// Durable blacklist entries (§3.3).
    pub blacklist: Vec<PersistedEntry>,
    /// Silenced anchors as `(function, dense loop index)`; the loop index
    /// equals the function's loop count for function-entry anchors.
    pub silenced: Vec<(FuncId, u16)>,
    /// The trace trees, in [`crate::tree::TreeId`] order.
    pub trees: Vec<TraceTree>,
}

// ---------------------------------------------------------------------------
// Field codecs (see docs/PERSISTENCE.md §4-§7).
// ---------------------------------------------------------------------------

fn w_slotkey(k: SlotKey, w: &mut ByteWriter) {
    match k {
        SlotKey::Global(g) => {
            w.u8(0);
            w.u32(g);
        }
        SlotKey::Local { depth, slot } => {
            w.u8(1);
            w.u8(depth);
            w.u16(slot);
        }
        SlotKey::Stack { depth, idx } => {
            w.u8(2);
            w.u8(depth);
            w.u16(idx);
        }
        SlotKey::Reimport { site, idx } => {
            w.u8(3);
            w.u32(site);
            w.u16(idx);
        }
    }
}

fn r_slotkey(r: &mut ByteReader) -> Result<SlotKey, BinError> {
    let at = r.pos();
    match r.u8()? {
        0 => Ok(SlotKey::Global(r.u32()?)),
        1 => Ok(SlotKey::Local { depth: r.u8()?, slot: r.u16()? }),
        2 => Ok(SlotKey::Stack { depth: r.u8()?, idx: r.u16()? }),
        3 => Ok(SlotKey::Reimport { site: r.u32()?, idx: r.u16()? }),
        tag => Err(BinError::BadTag { at, tag: u64::from(tag), what: "SlotKey" }),
    }
}

fn w_lirtype(t: LirType, w: &mut ByteWriter) {
    w.u8(match t {
        LirType::Int => 0,
        LirType::Double => 1,
        LirType::Object => 2,
        LirType::String => 3,
        LirType::Bool => 4,
        LirType::Null => 5,
        LirType::Undefined => 6,
        LirType::Boxed => 7,
    });
}

fn r_lirtype(r: &mut ByteReader) -> Result<LirType, BinError> {
    let at = r.pos();
    Ok(match r.u8()? {
        0 => LirType::Int,
        1 => LirType::Double,
        2 => LirType::Object,
        3 => LirType::String,
        4 => LirType::Bool,
        5 => LirType::Null,
        6 => LirType::Undefined,
        7 => LirType::Boxed,
        tag => return Err(BinError::BadTag { at, tag: u64::from(tag), what: "LirType" }),
    })
}

fn w_exitkind(k: ExitKind, w: &mut ByteWriter) {
    w.u8(match k {
        ExitKind::Branch => 0,
        ExitKind::LoopEdge => 1,
        ExitKind::Unstable => 2,
        ExitKind::LeaveLoop => 3,
        ExitKind::DeepBail => 4,
        ExitKind::NestedUnexpected => 5,
    });
}

fn r_exitkind(r: &mut ByteReader) -> Result<ExitKind, BinError> {
    let at = r.pos();
    Ok(match r.u8()? {
        0 => ExitKind::Branch,
        1 => ExitKind::LoopEdge,
        2 => ExitKind::Unstable,
        3 => ExitKind::LeaveLoop,
        4 => ExitKind::DeepBail,
        5 => ExitKind::NestedUnexpected,
        tag => return Err(BinError::BadTag { at, tag: u64::from(tag), what: "ExitKind" }),
    })
}

fn w_bindings(bs: &[SlotBinding], w: &mut ByteWriter) {
    w.u32(bs.len() as u32);
    for b in bs {
        w.u16(b.ar);
        w_slotkey(b.key, w);
        w_lirtype(b.ty, w);
    }
}

fn r_bindings(r: &mut ByteReader) -> Result<Vec<SlotBinding>, BinError> {
    let n = r.seq_len(5)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(SlotBinding { ar: r.u16()?, key: r_slotkey(r)?, ty: r_lirtype(r)? });
    }
    Ok(out)
}

fn w_exit(e: &SideExitInfo, w: &mut ByteWriter) {
    w_exitkind(e.kind, w);
    w.u32(e.frames.len() as u32);
    for f in &e.frames {
        w.u32(f.func.0);
        w.u32(f.resume_pc);
        w.u16(f.stack_depth);
        w.bool(f.is_construct);
        w.u64(f.callee_raw);
    }
    w_bindings(&e.write_back, w);
    w.u32(e.oracle_hint.len() as u32);
    for &k in &e.oracle_hint {
        w_slotkey(k, w);
    }
    w_bindings(&e.typemap, w);
    match e.arith_site {
        Some((f, pc)) => {
            w.bool(true);
            w.u32(f.0);
            w.u32(pc);
        }
        None => w.bool(false),
    }
}

fn r_exit(r: &mut ByteReader) -> Result<SideExitInfo, BinError> {
    let kind = r_exitkind(r)?;
    let nframes = r.seq_len(15)?;
    let mut frames = Vec::with_capacity(nframes);
    for _ in 0..nframes {
        frames.push(FrameDesc {
            func: FuncId(r.u32()?),
            resume_pc: r.u32()?,
            stack_depth: r.u16()?,
            is_construct: r.bool()?,
            callee_raw: r.u64()?,
        });
    }
    let write_back = r_bindings(r)?;
    let nhints = r.seq_len(5)?;
    let mut oracle_hint = Vec::with_capacity(nhints);
    for _ in 0..nhints {
        oracle_hint.push(r_slotkey(r)?);
    }
    let typemap = r_bindings(r)?;
    let arith_site =
        if r.bool()? { Some((FuncId(r.u32()?), r.u32()?)) } else { None };
    Ok(SideExitInfo { kind, frames, write_back, oracle_hint, typemap, arith_site })
}

fn w_anchor(a: Anchor, w: &mut ByteWriter) {
    w.u32(a.func.0);
    w.u32(a.pc);
    w.u16(a.loop_id.0);
    w.u8(match a.kind {
        AnchorKind::LoopHeader => 0,
        AnchorKind::FuncEntry => 1,
    });
}

fn r_anchor(r: &mut ByteReader) -> Result<Anchor, BinError> {
    let func = FuncId(r.u32()?);
    let pc = r.u32()?;
    let loop_id = LoopId(r.u16()?);
    let at = r.pos();
    let kind = match r.u8()? {
        0 => AnchorKind::LoopHeader,
        1 => AnchorKind::FuncEntry,
        tag => return Err(BinError::BadTag { at, tag: u64::from(tag), what: "AnchorKind" }),
    };
    Ok(Anchor { func, pc, loop_id, kind })
}

fn w_nested(n: &NestedSite, w: &mut ByteWriter) {
    w.u32(n.inner.0);
    w.u32(n.expected_exit.0);
    w.u16(n.expected_exit.1);
    w_bindings(&n.reimports, w);
    w_exit(&n.callsite, w);
    w.u16(n.callsite_exit);
}

fn r_nested(r: &mut ByteReader) -> Result<NestedSite, BinError> {
    Ok(NestedSite {
        inner: crate::tree::TreeId(r.u32()?),
        expected_exit: (r.u32()?, r.u16()?),
        reimports: r_bindings(r)?,
        callsite: r_exit(r)?,
        callsite_exit: r.u16()?,
    })
}

fn encode_tree(t: &TraceTree, w: &mut ByteWriter) {
    w_anchor(t.anchor, w);
    let nslots = t.layout.len();
    w.u32(nslots as u32);
    for s in 0..nslots {
        w_slotkey(t.layout.key(s as ArSlot), w);
    }
    w.u32(t.fragments.len() as u32);
    for f in t.fragments.iter() {
        encode_fragment(f, w);
    }
    for exits in &t.exits {
        w.u32(exits.len() as u32);
        for e in exits {
            w_exit(e, w);
        }
    }
    for &bc in &t.fragment_bytecodes {
        w.u32(bc);
    }
    for &branch in t.branches.iter().flatten() {
        w.u32(branch.unwrap_or(u32::MAX));
    }
    for reqs in &t.entry_reqs {
        w_bindings(reqs, w);
    }
    w.u32(t.nested_sites.len() as u32);
    for n in &t.nested_sites {
        w_nested(n, w);
    }
    w_bindings(&t.loop_writes, w);
    w.bool(t.unstable);
    // Realm-local state. The hotness counters are not stored: a warm
    // process counts its own exit passes exactly like the cold process
    // did, so it never crosses a threshold the cold process did not cross.
    for st in t.exit_states.iter().flatten() {
        w.u32(st.failures);
    }
    w.bool(t.disabled);
}

fn decode_tree(r: &mut ByteReader) -> Result<TraceTree, CacheError> {
    let anchor = r_anchor(r)?;
    let nkeys = r.seq_len(3)?;
    let mut layout = ArLayout::new();
    for _ in 0..nkeys {
        layout.slot(r_slotkey(r)?);
    }
    if layout.len() != nkeys {
        return Err(CacheError::BadTree("duplicate slot key in layout".into()));
    }
    let nfrags = r.seq_len(8)?;
    if nfrags == 0 {
        return Err(CacheError::BadTree("tree with no fragments".into()));
    }
    let mut fragments = Vec::with_capacity(nfrags);
    for _ in 0..nfrags {
        fragments.push(decode_fragment(r)?);
    }
    let mut exits = Vec::with_capacity(nfrags);
    for _ in 0..nfrags {
        let nexits = r.seq_len(10)?;
        let mut es = Vec::with_capacity(nexits);
        for _ in 0..nexits {
            es.push(r_exit(r)?);
        }
        exits.push(es);
    }
    let mut fragment_bytecodes = Vec::with_capacity(nfrags);
    for _ in 0..nfrags {
        fragment_bytecodes.push(r.u32()?);
    }
    let mut branches = Vec::with_capacity(nfrags);
    for es in &exits {
        let mut links = Vec::with_capacity(es.len());
        for _ in 0..es.len() {
            links.push(Some(r.u32()?).filter(|&b| b != u32::MAX));
        }
        branches.push(links);
    }
    let mut entry_reqs = Vec::with_capacity(nfrags);
    for _ in 0..nfrags {
        entry_reqs.push(r_bindings(r)?);
    }
    let nsites = r.seq_len(20)?;
    let mut nested_sites = Vec::with_capacity(nsites);
    for _ in 0..nsites {
        nested_sites.push(r_nested(r)?);
    }
    let loop_writes = r_bindings(r)?;
    let unstable = r.bool()?;
    let mut tree = TraceTree::new(Arc::new(TreeCode {
        anchor,
        digest: entry_digest(anchor, &entry_reqs[0]),
        layout,
        fragments: Arc::new(fragments),
        exits,
        fragment_bytecodes,
        branches,
        entry_reqs,
        nested_sites,
        loop_writes,
        unstable,
    }));
    for st in tree.exit_states.iter_mut().flatten() {
        st.failures = r.u32()?;
    }
    tree.disabled = r.bool()?;
    Ok(tree)
}

fn encode_entry_body(
    fingerprint: u64,
    shapes: &[ShapePath],
    oracle_vars: &[VarKey],
    oracle_sites: &[Site],
    blacklist: &[PersistedEntry],
    silenced: &[(FuncId, u16)],
    trees: &mut dyn Iterator<Item = &TraceTree>,
    ntrees: u32,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(fingerprint);
    w.u32(shapes.len() as u32);
    for s in shapes {
        w.u32(s.id);
        w.u32(s.path.len() as u32);
        for p in &s.path {
            w.str(p);
        }
    }
    w.u32(oracle_vars.len() as u32);
    for v in oracle_vars {
        match *v {
            VarKey::Global(g) => {
                w.u8(0);
                w.u32(g);
            }
            VarKey::Local(f, s) => {
                w.u8(1);
                w.u32(f.0);
                w.u16(s);
            }
        }
    }
    w.u32(oracle_sites.len() as u32);
    for &(f, pc) in oracle_sites {
        w.u32(f.0);
        w.u32(pc);
    }
    w.u32(blacklist.len() as u32);
    for b in blacklist {
        w.u32(b.start.0 .0);
        w.u32(b.start.1);
        w.u32(b.failures);
        w.bool(b.blacklisted);
    }
    w.u32(silenced.len() as u32);
    for &(f, l) in silenced {
        w.u32(f.0);
        w.u16(l);
    }
    w.u32(ntrees);
    for t in trees {
        encode_tree(t, &mut w);
    }
    w.into_bytes()
}

fn decode_entry_body(program_key: u64, body: &[u8]) -> Result<CacheEntry, CacheError> {
    let mut r = ByteReader::new(body);
    let fingerprint = r.u64()?;
    let nshapes = r.seq_len(8)?;
    let mut shapes = Vec::with_capacity(nshapes);
    for _ in 0..nshapes {
        let id = r.u32()?;
        let nprops = r.seq_len(4)?;
        let mut path = Vec::with_capacity(nprops);
        for _ in 0..nprops {
            path.push(r.str()?.to_string());
        }
        shapes.push(ShapePath { id, path });
    }
    let nvars = r.seq_len(5)?;
    let mut oracle_vars = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        let at = r.pos();
        oracle_vars.push(match r.u8()? {
            0 => VarKey::Global(r.u32()?),
            1 => VarKey::Local(FuncId(r.u32()?), r.u16()?),
            tag => {
                return Err(CacheError::Corrupt(BinError::BadTag {
                    at,
                    tag: u64::from(tag),
                    what: "VarKey",
                }))
            }
        });
    }
    let nsites = r.seq_len(8)?;
    let mut oracle_sites = Vec::with_capacity(nsites);
    for _ in 0..nsites {
        oracle_sites.push((FuncId(r.u32()?), r.u32()?));
    }
    let nbl = r.seq_len(13)?;
    let mut blacklist = Vec::with_capacity(nbl);
    for _ in 0..nbl {
        blacklist.push(PersistedEntry {
            start: (FuncId(r.u32()?), r.u32()?),
            failures: r.u32()?,
            blacklisted: r.bool()?,
        });
    }
    let nsil = r.seq_len(6)?;
    let mut silenced = Vec::with_capacity(nsil);
    for _ in 0..nsil {
        silenced.push((FuncId(r.u32()?), r.u16()?));
    }
    let ntrees = r.seq_len(32)?;
    let mut trees = Vec::with_capacity(ntrees);
    for _ in 0..ntrees {
        trees.push(decode_tree(&mut r)?);
    }
    if !r.is_at_end() {
        return Err(CacheError::BadTree("trailing bytes after last tree".into()));
    }
    Ok(CacheEntry {
        program_key,
        fingerprint,
        shapes,
        oracle_vars,
        oracle_sites,
        blacklist,
        silenced,
        trees,
    })
}

// ---------------------------------------------------------------------------
// File container (docs/PERSISTENCE.md §3): magic, version, raw entries.
// ---------------------------------------------------------------------------

/// Splits a cache file into `(program_key, body)` pairs, validating the
/// container structure and each entry's trailing checksum but not the
/// entry bodies themselves.
fn split_file(bytes: &[u8]) -> Result<Vec<(u64, Vec<u8>)>, CacheError> {
    let mut r = ByteReader::new(bytes);
    if r.raw(4).map_err(CacheError::Corrupt)? != MAGIC.as_slice() {
        return Err(CacheError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CacheError::BadVersion { found: version });
    }
    let nentries = r.seq_len(16)?;
    let mut entries = Vec::with_capacity(nentries);
    for _ in 0..nentries {
        let key = r.u64()?;
        let body = r.bytes_u32()?;
        let stored = r.u64()?;
        if fnv1a64(body) != stored {
            return Err(CacheError::ChecksumMismatch);
        }
        entries.push((key, body.to_vec()));
    }
    if !r.is_at_end() {
        return Err(CacheError::Corrupt(BinError::BadLength {
            at: r.pos(),
            len: r.remaining() as u64,
        }));
    }
    Ok(entries)
}

fn join_file(entries: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.raw(&MAGIC);
    w.u32(VERSION);
    w.u32(entries.len() as u32);
    for (key, body) in entries {
        w.u64(*key);
        w.bytes_u32(body);
        w.u64(fnv1a64(body));
    }
    w.into_bytes()
}

/// Reads and fully decodes every entry of a cache file — the offline
/// inspection path used by `examples/dump_fragments.rs`. Entries are
/// checksum-verified and structurally decoded, but *not* revalidated
/// against any program or realm (there is none to validate against).
pub fn read_cache_file(path: &Path) -> Result<Vec<CacheEntry>, CacheError> {
    let bytes = std::fs::read(path).map_err(|e| CacheError::Io(e.to_string()))?;
    let raw = split_file(&bytes)?;
    raw.into_iter().map(|(key, body)| decode_entry_body(key, &body)).collect()
}

// ---------------------------------------------------------------------------
// Revalidation (docs/PERSISTENCE.md §8) and installation.
// ---------------------------------------------------------------------------

/// Resolves the entry's stored shape identities against the live shape
/// tree, returning a remap table for ids whose path now resolves to a
/// different id. See the decision table in `docs/PERSISTENCE.md` §5.
fn resolve_shapes(realm: &Realm, shapes: &[ShapePath]) -> Result<HashMap<u32, u32>, CacheError> {
    let mut remap = HashMap::new();
    let live = realm.shapes.len() as u32;
    for s in shapes {
        let syms: Option<Vec<_>> =
            s.path.iter().map(|name| realm.symbols.lookup(name)).collect();
        let found = syms.and_then(|syms| realm.shapes.find_path(&syms));
        match found {
            Some(t) if t.0 == s.id => {} // identity: nothing to do
            Some(t) => {
                remap.insert(s.id, t.0);
            }
            // The path does not exist yet. If the id is beyond the live
            // table it will be created (deterministically) during the
            // run, exactly as in the recording process; if the id is
            // already taken by some *other* shape, the entry is stale.
            None if s.id >= live => {}
            None => return Err(CacheError::ShapeConflict { id: s.id }),
        }
    }
    Ok(remap)
}

fn apply_shape_remap(frag: &mut Fragment, remap: &HashMap<u32, u32>) {
    if remap.is_empty() {
        return;
    }
    for inst in &mut frag.code {
        if let MachInst::GuardShape { shape, .. } = inst {
            if let Some(&n) = remap.get(shape) {
                *shape = n;
            }
        }
    }
}

/// Validates one decoded tree against the running program and realm:
/// anchor consistency, parallel-array shapes, AR-slot, frame, global and
/// native-function bounds. Runs before the verifier pass (which checks the
/// fragment code against the tree alone).
fn validate_tree(prog: &Program, realm: &Realm, ntrees: u32, t: &TreeCode) -> Result<(), CacheError> {
    let bad = |msg: String| Err(CacheError::BadTree(msg));
    let globals_len = realm.globals.len() as u32;
    let nfuncs = prog.functions.len() as u32;
    if t.anchor.func.0 >= nfuncs {
        return bad(format!("anchor function {} out of range", t.anchor.func.0));
    }
    let func = &prog.functions[t.anchor.func.0 as usize];
    let nloops = func.loops.len() as u16;
    match t.anchor.kind {
        AnchorKind::LoopHeader => {
            if t.anchor.loop_id.0 >= nloops
                || func.loops[t.anchor.loop_id.0 as usize].header != t.anchor.pc
            {
                return bad(format!(
                    "loop anchor ({}, pc {}) does not name a loop header",
                    t.anchor.func.0, t.anchor.pc
                ));
            }
        }
        AnchorKind::FuncEntry => {
            if t.anchor.loop_id.0 != nloops || t.anchor.pc != 0 {
                return bad("malformed function-entry anchor".into());
            }
        }
    }
    let nfrags = t.fragments.len();
    if t.exits.len() != nfrags
        || t.branches.len() != nfrags
        || t.fragment_bytecodes.len() != nfrags
        || t.entry_reqs.len() != nfrags
    {
        return bad("per-fragment arrays are not parallel".into());
    }
    for (i, frag) in t.fragments.iter().enumerate() {
        if t.exits[i].len() != frag.stitch.len() || t.branches[i].len() != frag.stitch.len() {
            return bad(format!("fragment {i}: exit arrays are not parallel"));
        }
        // The monitor enters at a linked fragment when stitching is off.
        if let Some(b) = t.branches[i].iter().flatten().find(|&&b| b as usize >= nfrags) {
            return bad(format!("fragment {i}: branch link {b} out of range"));
        }
        // `call_helper` indexes the realm's native table with the id.
        for inst in &frag.code {
            if let MachInst::CallHelper { helper: Helper::CallNative(id), .. } = inst {
                if id.0 as usize >= realm.natives.len() {
                    return bad(format!("fragment {i}: native function {} out of range", id.0));
                }
            }
        }
    }
    let nslots = t.layout.len() as u32;
    // Depth 0 is the frame the tree is entered in: the anchor's function.
    let entry_nlocals = func.nlocals;
    let check_key = |key: SlotKey| -> Result<(), CacheError> {
        match key {
            SlotKey::Global(g) if g >= globals_len => {
                Err(CacheError::BadTree(format!("global slot {g} out of range")))
            }
            SlotKey::Local { depth: 0, slot } if slot >= entry_nlocals => {
                Err(CacheError::BadTree(format!("entry-frame local {slot} out of range")))
            }
            _ => Ok(()),
        }
    };
    let check_bindings = |what: &str, bs: &[SlotBinding]| -> Result<(), CacheError> {
        for b in bs {
            if u32::from(b.ar) >= nslots {
                return Err(CacheError::BadTree(format!("{what}: AR slot {} out of range", b.ar)));
            }
            check_key(b.key)?;
        }
        Ok(())
    };
    let check_exit = |what: &str, e: &SideExitInfo| -> Result<(), CacheError> {
        if e.frames.is_empty() {
            return Err(CacheError::BadTree(format!("{what}: exit with no frames")));
        }
        for f in &e.frames {
            if f.func.0 >= nfuncs {
                return Err(CacheError::BadTree(format!(
                    "{what}: frame function {} out of range",
                    f.func.0
                )));
            }
            let code_len = prog.functions[f.func.0 as usize].code.len() as u32;
            if f.resume_pc >= code_len {
                return Err(CacheError::BadTree(format!(
                    "{what}: resume pc {} out of range",
                    f.resume_pc
                )));
            }
        }
        check_bindings(what, &e.write_back)?;
        check_bindings(what, &e.typemap)?;
        for &k in &e.oracle_hint {
            check_key(k)?;
        }
        // Restoring the exit pushes every operand-stack entry each frame
        // holds; each must have a slot to come from.
        for (depth, f) in e.frames.iter().enumerate() {
            for idx in 0..f.stack_depth {
                let key = SlotKey::Stack { depth: depth as u8, idx };
                if !e.write_back.iter().any(|b| b.key == key) {
                    return Err(CacheError::BadTree(format!(
                        "{what}: frame {depth} stack entry {idx} is not written back"
                    )));
                }
            }
        }
        Ok(())
    };
    for (i, exits) in t.exits.iter().enumerate() {
        for (j, e) in exits.iter().enumerate() {
            check_exit(&format!("fragment {i} exit {j}"), e)?;
        }
    }
    for reqs in &t.entry_reqs {
        check_bindings("fragment entry requirements", reqs)?;
    }
    check_bindings("loop writes", &t.loop_writes)?;
    for (i, site) in t.nested_sites.iter().enumerate() {
        if site.inner.0 >= ntrees {
            return bad(format!("nested site {i}: inner tree {} out of range", site.inner.0));
        }
        check_bindings("nested reimports", &site.reimports)?;
        check_exit(&format!("nested site {i} callsite"), &site.callsite)?;
    }
    Ok(())
}

impl Monitor {
    /// Loads this program's entry from the cache at `handle`, installing
    /// its trees, oracle, blacklist, and silenced anchors into a cold
    /// monitor. Returns `Ok(true)` on a hit, `Ok(false)` on a clean miss
    /// (no file, or no entry for this program), and `Err` when an entry
    /// existed but failed revalidation — in every non-`Ok(true)` case the
    /// monitor is left untouched and the run proceeds cold.
    ///
    /// Counters: a hit bumps `cache_hits`, `cache_loaded_trees`, and
    /// `cache_loaded_fragments`; a miss bumps `cache_misses`; a rejection
    /// bumps `cache_revalidation_failures`.
    pub fn load_cache(
        &mut self,
        handle: &CacheHandle,
        interp: &mut Interp,
        realm: &Realm,
    ) -> Result<bool, CacheError> {
        let bytes = match std::fs::read(&handle.path) {
            Ok(b) => b,
            Err(_) => {
                self.profiler.stats.cache_misses += 1;
                return Ok(false);
            }
        };
        let raw = match split_file(&bytes) {
            Ok(raw) => raw,
            Err(e) => {
                self.profiler.stats.cache_revalidation_failures += 1;
                return Err(e);
            }
        };
        let Some((key, body)) = raw.into_iter().find(|&(k, _)| k == handle.program_key) else {
            self.profiler.stats.cache_misses += 1;
            return Ok(false);
        };
        match self.revalidate_and_install(key, &body, handle, interp, realm) {
            Ok(()) => {
                self.profiler.stats.cache_hits += 1;
                Ok(true)
            }
            Err(e) => {
                self.profiler.stats.cache_revalidation_failures += 1;
                Err(e)
            }
        }
    }

    /// The full revalidation pipeline for one located entry: decode,
    /// fingerprint check, shape resolution and remap, per-tree semantic
    /// validation, `tm-verifier` on every fragment — and only then
    /// installation. Nothing is installed unless everything passes.
    fn revalidate_and_install(
        &mut self,
        key: u64,
        body: &[u8],
        handle: &CacheHandle,
        interp: &mut Interp,
        realm: &Realm,
    ) -> Result<(), CacheError> {
        if !self.cache.is_empty() {
            return Err(CacheError::NotCold);
        }
        let mut entry = decode_entry_body(key, body)?;
        if entry.fingerprint != handle.fingerprint {
            return Err(CacheError::FingerprintMismatch {
                stored: entry.fingerprint,
                current: handle.fingerprint,
            });
        }
        let remap = resolve_shapes(realm, &entry.shapes)?;
        let prog = interp.prog();
        let ntrees = entry.trees.len() as u32;
        for (i, tree) in entry.trees.iter_mut().enumerate() {
            let code = Arc::get_mut(&mut tree.code).expect("a decoded tree is uniquely owned");
            let frags = Arc::get_mut(&mut code.fragments)
                .expect("decoded fragments are uniquely owned");
            for frag in frags.iter_mut() {
                apply_shape_remap(frag, &remap);
            }
            validate_tree(prog, realm, ntrees, code)?;
            tm_verifier::verify_loaded_fragments(
                &tree.fragments,
                tree.layout.len(),
                tree.nested_sites.len(),
            )
            .map_err(|(fragment, err)| CacheError::VerifyFailed {
                tree: i as u32,
                fragment,
                error: err.to_string(),
            })?;
        }
        let nloops = |f: FuncId| prog.functions[f.0 as usize].loops.len() as u16;
        for &(f, l) in &entry.silenced {
            if f.0 >= prog.functions.len() as u32 || l > nloops(f) {
                return Err(CacheError::BadTree(format!(
                    "silenced anchor ({}, {l}) out of range",
                    f.0
                )));
            }
        }
        // Everything validated — install. From here on nothing can fail.
        self.ensure_slots(interp);
        let mut loaded_fragments = 0u64;
        for mut tree in entry.trees {
            // A warm process must never *pay for* branch recording the
            // cold process already proved unprofitable: restored exit
            // failures are saturated so `maybe_extend` treats them as
            // exhausted (the same policy as `Blacklist::restore`).
            let links = tree.code.branches.iter().flatten();
            for (st, link) in tree.exit_states.iter_mut().flatten().zip(links) {
                if st.failures > 0 && link.is_none() {
                    st.failures = u32::MAX;
                }
            }
            loaded_fragments += tree.fragments.len() as u64;
            let anchor = tree.anchor;
            let tid = self.cache.insert(tree);
            self.slots[anchor.func.0 as usize][anchor.loop_id.0 as usize].trees.push(tid);
            self.profiler.stats.cache_loaded_trees += 1;
            // In a multi-tenant process, trees revalidated from disk are
            // as shareable as freshly compiled ones: publish them so the
            // other realms warm-start from one realm's `.tmc` load.
            self.publish_shared(tid);
        }
        self.profiler.stats.cache_loaded_fragments += loaded_fragments;
        self.oracle.restore(&entry.oracle_vars, &entry.oracle_sites);
        self.blacklist.restore(&entry.blacklist);
        for (f, l) in entry.silenced {
            let func = &interp.prog().functions[f.0 as usize];
            let anchor = if (l as usize) < func.loops.len() {
                Anchor::loop_header(f, func.loops[l as usize].header, LoopId(l))
            } else {
                Anchor::func_entry(f, func.loops.len())
            };
            self.silence_header(anchor, interp);
        }
        Ok(())
    }

    /// Writes this monitor's durable state to the cache at `handle`,
    /// preserving other programs' entries in the file. Returns `Ok(true)`
    /// when an entry was written, `Ok(false)` when there was nothing new
    /// to persist (an empty monitor, or a warm run that recorded
    /// nothing).
    pub fn save_cache(&self, handle: &CacheHandle, realm: &Realm) -> Result<bool, CacheError> {
        let stats = &self.profiler.stats;
        // A warm run that recorded nothing has nothing the file does not
        // already contain; leave it untouched.
        if stats.cache_hits > 0 && stats.traces_completed == 0 && stats.traces_aborted == 0 {
            return Ok(false);
        }
        let blacklist = self.blacklist.export();
        let (oracle_vars, oracle_sites) = self.oracle.export();
        let mut silenced = Vec::new();
        for (f, slots) in self.slots.iter().enumerate() {
            for (l, slot) in slots.iter().enumerate() {
                if slot.silenced {
                    silenced.push((FuncId(f as u32), l as u16));
                }
            }
        }
        if self.cache.is_empty()
            && blacklist.is_empty()
            && silenced.is_empty()
            && oracle_vars.is_empty()
            && oracle_sites.is_empty()
        {
            return Ok(false);
        }
        // Collect the identity (property path) of every guarded shape.
        let mut shapes: Vec<ShapePath> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for tree in self.cache.iter() {
            for frag in tree.fragments.iter() {
                for inst in &frag.code {
                    if let MachInst::GuardShape { shape, .. } = inst {
                        if seen.insert(*shape) {
                            if let Some(path) = realm.shapes.path(ShapeId(*shape)) {
                                shapes.push(ShapePath {
                                    id: *shape,
                                    path: path
                                        .iter()
                                        .map(|&s| realm.symbols.name(s).to_string())
                                        .collect(),
                                });
                            }
                        }
                    }
                }
            }
        }
        shapes.sort_by_key(|s| s.id);
        let body = encode_entry_body(
            handle.fingerprint,
            &shapes,
            &oracle_vars,
            &oracle_sites,
            &blacklist,
            &silenced,
            &mut self.cache.iter(),
            self.cache.len() as u32,
        );
        // Upsert into the existing file, preserving other programs'
        // entries; an unreadable or invalid file is simply replaced.
        let mut entries = std::fs::read(&handle.path)
            .ok()
            .and_then(|bytes| split_file(&bytes).ok())
            .unwrap_or_default();
        match entries.iter_mut().find(|(k, _)| *k == handle.program_key) {
            Some(slot) => slot.1 = body,
            None => entries.push((handle.program_key, body)),
        }
        let out = join_file(&entries);
        // The temp name must be unique per *writer*, not just per process:
        // two realm threads saving the same path concurrently would
        // otherwise interleave writes into one temp file and rename a torn
        // image into place. pid + a process-global counter keeps every
        // writer on its own file; the final rename stays atomic, so
        // concurrent saves degrade to last-writer-wins, never corruption.
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = handle
            .path
            .with_extension(format!("tmp.{}.{}", std::process::id(), seq));
        std::fs::write(&tmp, &out).map_err(|e| CacheError::Io(e.to_string()))?;
        std::fs::rename(&tmp, &handle.path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            CacheError::Io(e.to_string())
        })?;
        Ok(true)
    }
}

/// The cache path requested by the `TM_CACHE` environment variable, or
/// `None` when the cache is disabled (`TM_CACHE` unset, empty, `off`, or
/// `0`). See `docs/TESTING.md`.
pub fn cache_path_from_env() -> Option<PathBuf> {
    match std::env::var("TM_CACHE") {
        Ok(v) if !v.is_empty() && v != "off" && v != "0" => Some(PathBuf::from(v)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slotkey_codec_round_trips() {
        let keys = [
            SlotKey::Global(7),
            SlotKey::Local { depth: 2, slot: 300 },
            SlotKey::Stack { depth: 0, idx: 5 },
            SlotKey::Reimport { site: 9, idx: 1 },
        ];
        let mut w = ByteWriter::new();
        for &k in &keys {
            w_slotkey(k, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &k in &keys {
            assert_eq!(r_slotkey(&mut r).unwrap(), k);
        }
        assert!(r.is_at_end());
    }

    #[test]
    fn bad_slotkey_tag_is_rejected() {
        let buf = [9u8];
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r_slotkey(&mut r), Err(BinError::BadTag { what: "SlotKey", .. })));
    }

    #[test]
    fn lirtype_and_exitkind_cover_all_discriminants() {
        for tag in 0u8..8 {
            let buf = [tag];
            let mut r = ByteReader::new(&buf);
            r_lirtype(&mut r).unwrap();
        }
        let buf = [8u8];
        let mut r = ByteReader::new(&buf);
        assert!(r_lirtype(&mut r).is_err());
        for tag in 0u8..6 {
            let buf = [tag];
            let mut r = ByteReader::new(&buf);
            r_exitkind(&mut r).unwrap();
        }
        let buf = [6u8];
        let mut r = ByteReader::new(&buf);
        assert!(r_exitkind(&mut r).is_err());
    }

    #[test]
    fn exit_codec_round_trips() {
        let e = SideExitInfo {
            kind: ExitKind::Branch,
            frames: vec![FrameDesc {
                func: FuncId(3),
                resume_pc: 17,
                stack_depth: 2,
                is_construct: true,
                callee_raw: 0xdead_beef_cafe,
            }],
            write_back: vec![SlotBinding { ar: 0, key: SlotKey::Global(1), ty: LirType::Int }],
            oracle_hint: vec![SlotKey::Local { depth: 0, slot: 2 }],
            typemap: vec![SlotBinding {
                ar: 1,
                key: SlotKey::Stack { depth: 0, idx: 0 },
                ty: LirType::Double,
            }],
            arith_site: Some((FuncId(3), 16)),
        };
        let mut w = ByteWriter::new();
        w_exit(&e, &mut w);
        let bytes = w.into_bytes();
        let back = r_exit(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn container_round_trips_and_detects_bit_flips() {
        let entries = vec![(0x1111u64, vec![1, 2, 3]), (0x2222, vec![9, 8])];
        let bytes = join_file(&entries);
        assert_eq!(split_file(&bytes).unwrap(), entries);
        // Flip one bit inside the first entry's body.
        let mut bad = bytes.clone();
        let body_at = 4 + 4 + 4 + 8 + 4; // magic, version, count, key, len
        bad[body_at] ^= 0x40;
        assert_eq!(split_file(&bad), Err(CacheError::ChecksumMismatch));
        // Truncations anywhere never panic and never pass.
        for cut in 0..bytes.len() {
            assert!(split_file(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Version skew is detected before any entry is touched.
        let mut skewed = bytes;
        skewed[4] = 0xfe;
        assert!(matches!(split_file(&skewed), Err(CacheError::BadVersion { .. })));
    }

    #[test]
    fn env_knob_parses_off_values() {
        // Not set by the test harness: exercised via explicit match arms.
        assert!(matches!(
            (|v: &str| if !v.is_empty() && v != "off" && v != "0" {
                Some(PathBuf::from(v))
            } else {
                None
            })("off"),
            None
        ));
    }

    /// Runs `src` cold against a fresh cache file, rewrites the saved
    /// entry through `corrupt` (re-encoded and re-checksummed, so only
    /// revalidation can object), and runs it again: the entry must be
    /// rejected, nothing installed, and the output the interpreter's.
    /// Returns the rejection.
    fn run_with_corrupted_entry(
        name: &str,
        src: &str,
        opts: crate::JitOptions,
        corrupt: impl FnOnce(&mut TreeCode),
    ) -> CacheError {
        use crate::vm::{Engine, Vm};
        let path = std::env::temp_dir()
            .join(format!("tm_persist_unit_{}_{name}.tmc", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut expected = Vm::new(Engine::Interp);
        expected.eval(src).unwrap();

        let mut cold = Vm::with_options(Engine::Tracing, opts);
        cold.set_cache_path(Some(path.clone()));
        cold.eval(src).unwrap();
        let (key, body) = split_file(&std::fs::read(&path).unwrap()).unwrap().remove(0);
        let mut e = decode_entry_body(key, &body).unwrap();
        let tree = e.trees.iter_mut().find(|t| !t.nested_sites.is_empty()).expect("a nesting tree");
        corrupt(Arc::get_mut(&mut tree.code).unwrap());
        let body = encode_entry_body(
            e.fingerprint,
            &e.shapes,
            &e.oracle_vars,
            &e.oracle_sites,
            &e.blacklist,
            &e.silenced,
            &mut e.trees.iter(),
            e.trees.len() as u32,
        );
        std::fs::write(&path, join_file(&[(key, body)])).unwrap();

        let mut vm = Vm::with_options(Engine::Tracing, opts);
        vm.set_cache_path(Some(path.clone()));
        vm.eval(src).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(vm.output(), expected.output());
        let stats = vm.profile().unwrap();
        assert_eq!(stats.cache_revalidation_failures, 1);
        assert_eq!((stats.cache_hits, stats.cache_loaded_trees), (0, 0), "monitor stayed cold");
        vm.last_cache_error().expect("the entry was rejected").clone()
    }

    const NESTED_LOOPS: &str = "var n = 0;
        for (var i = 0; i < 60; i++) { for (var k = 0; k < 40; k++) n += k & i; }
        print(n);";

    /// A well-formed, well-checksummed entry whose *code* addresses one
    /// slot past the activation record, or one site past the nested-site
    /// table, is a revalidation failure and a cold run — not an
    /// out-of-bounds access in whichever tier would have executed it.
    #[test]
    fn code_addressing_outside_the_tree_is_rejected() {
        fn code(t: &mut TreeCode) -> &mut [MachInst] {
            &mut Arc::get_mut(&mut t.fragments).unwrap()[0].code
        }
        let opts = crate::JitOptions::default();
        let err = run_with_corrupted_entry("ar", NESTED_LOOPS, opts, |t| {
            let past = t.layout.len() as u16;
            let slot = code(t)
                .iter_mut()
                .find_map(|i| if let MachInst::WriteAr { slot, .. } = i { Some(slot) } else { None })
                .expect("a WriteAr in the trunk");
            *slot = past;
        });
        assert!(matches!(err, CacheError::VerifyFailed { .. }), "{err:?}");
        let err = run_with_corrupted_entry("site", NESTED_LOOPS, opts, |t| {
            let past = t.nested_sites.len() as u32;
            let site = code(t)
                .iter_mut()
                .find_map(|i| if let MachInst::CallTree { tree, .. } = i { Some(tree) } else { None })
                .expect("a CallTree in the trunk");
            *site = past;
        });
        assert!(matches!(err, CacheError::VerifyFailed { .. }), "{err:?}");
    }

    /// The same for the state-transfer recipes: each of these was an index
    /// or `expect` panic in the monitor, at tree entry or at a side exit.
    #[test]
    fn recipes_the_monitor_cannot_follow_are_rejected() {
        let opts = crate::JitOptions::default();
        // An entry-map slot shadowing a local the entry frame does not have.
        let err = run_with_corrupted_entry("local", NESTED_LOOPS, opts, |t| {
            t.entry_reqs[0][0].key = SlotKey::Local { depth: 0, slot: u16::MAX };
        });
        assert!(matches!(err, CacheError::BadTree(_)), "{err:?}");
        // Exits that push one more operand-stack entry than they write back.
        let err = run_with_corrupted_entry("stack", NESTED_LOOPS, opts, |t| {
            for e in t.exits.iter_mut().flatten() {
                e.frames[0].stack_depth += 1;
            }
        });
        assert!(matches!(err, CacheError::BadTree(_)), "{err:?}");
        // Branch links past the last fragment, which the monitor enters at
        // when stitching is off.
        let unstitched = crate::JitOptions { enable_stitching: false, ..opts };
        let err = run_with_corrupted_entry("link", NESTED_LOOPS, unstitched, |t| {
            let past = t.fragments.len() as u32;
            for link in t.branches.iter_mut().flatten() {
                *link = Some(past);
            }
        });
        assert!(matches!(err, CacheError::BadTree(_)), "{err:?}");
    }

    /// A helper call the runtime cannot serve — fewer argument words than
    /// the helper reads, or a native function the realm does not have —
    /// was an index panic inside `call_helper`, which on the native tier
    /// runs under an `extern "sysv64"` shim and aborts the process.
    #[test]
    fn helper_calls_the_runtime_cannot_serve_are_rejected() {
        const HELPER_LOOPS: &str = "var n = 0;
            for (var i = 0; i < 60; i++) {
                for (var k = 0; k < 40; k++) n += k & i;
                n += Math.atan2(i, 3) + Math.min(i, 3, 5);
            }
            print(n);";
        fn calls(t: &mut TreeCode) -> impl Iterator<Item = (&mut Helper, &mut Box<[u8]>)> {
            let frags = Arc::get_mut(&mut t.fragments).unwrap();
            frags.iter_mut().flat_map(|f| f.code.iter_mut()).filter_map(|i| match i {
                MachInst::CallHelper { helper, args, .. } => Some((helper, args)),
                _ => None,
            })
        }
        let opts = crate::JitOptions::default();
        let err = run_with_corrupted_entry("arity", HELPER_LOOPS, opts, |t| {
            let (_, args) =
                calls(t).find(|(h, _)| **h == Helper::Atan2).expect("the fast-native call");
            *args = Box::default();
        });
        assert!(matches!(err, CacheError::VerifyFailed { .. }), "{err:?}");
        let err = run_with_corrupted_entry("native", HELPER_LOOPS, opts, |t| {
            let (helper, _) = calls(t)
                .find(|(h, _)| matches!(h, Helper::CallNative(_)))
                .expect("the generic native call");
            *helper = Helper::CallNative(tm_runtime::NativeId(u32::MAX));
        });
        assert!(matches!(err, CacheError::BadTree(_)), "{err:?}");
    }
}
