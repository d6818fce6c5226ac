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
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
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
pub const VERSION: u32 = 6;

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

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e.to_string())
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

/// The one-byte codec of a fieldless enum (§4): the writer's match is
/// exhaustive, and the reader rejects any byte not in the table.
macro_rules! byte_codec {
    ($w:ident, $r:ident, $ty:ident, { $($idx:literal => $name:ident),* $(,)? }) => {
        fn $w(v: $ty, w: &mut ByteWriter) {
            w.u8(match v { $( $ty::$name => $idx, )* });
        }
        fn $r(r: &mut ByteReader) -> Result<$ty, BinError> {
            let at = r.pos();
            match r.u8()? {
                $( $idx => Ok($ty::$name), )*
                t => Err(BinError::BadTag { at, tag: u64::from(t), what: stringify!($ty) }),
            }
        }
    };
}

byte_codec!(w_lirtype, r_lirtype, LirType, {
    0 => Int, 1 => Double, 2 => Object, 3 => String, 4 => Bool, 5 => Null, 6 => Undefined,
    7 => Boxed,
});
byte_codec!(w_exitkind, r_exitkind, ExitKind, {
    0 => Branch, 1 => LoopEdge, 2 => Unstable, 3 => LeaveLoop, 4 => DeepBail,
    5 => NestedUnexpected,
});
byte_codec!(w_anchorkind, r_anchorkind, AnchorKind, { 0 => LoopHeader, 1 => FuncEntry });

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
    w_anchorkind(a.kind, w);
}

fn r_anchor(r: &mut ByteReader) -> Result<Anchor, BinError> {
    Ok(Anchor {
        func: FuncId(r.u32()?),
        pc: r.u32()?,
        loop_id: LoopId(r.u16()?),
        kind: r_anchorkind(r)?,
    })
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
            tag => return Err(BinError::BadTag { at, tag: u64::from(tag), what: "VarKey" }.into()),
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
// File container (docs/PERSISTENCE.md §3): a checksummed header index, then
// the entry bodies contiguously in index order.
// ---------------------------------------------------------------------------

/// One index record: program key, body offset, length and FNV-1a checksum.
/// The offset is derived from the lengths before it, not stored, so no
/// record can point past EOF or into another entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRecord {
    pub program_key: u64,
    pub offset: u64,
    pub len: u32,
    pub checksum: u64,
}

/// Reads and validates a file's header and index, leaving `f` at the first
/// body. The entry count is bounded by the file length before anything is
/// allocated; the index must match its checksum and hold each key once,
/// and the bodies must end exactly at EOF (truncation, trailing bytes).
pub fn read_index(f: &mut (impl Read + Seek)) -> Result<Vec<IndexRecord>, CacheError> {
    let file_len = f.seek(SeekFrom::End(0))?;
    f.rewind()?;
    let mut header = vec![0u8; 12];
    f.read_exact(&mut header)?;
    let mut r = ByteReader::new(&header);
    if r.raw(4)? != MAGIC.as_slice() {
        return Err(CacheError::BadMagic);
    }
    let (version, count) = (r.u32()?, r.u32()?);
    if version != VERSION {
        return Err(CacheError::BadVersion { found: version });
    }
    let header_len = 12 + 20 * u64::from(count) + 8;
    if header_len > file_len {
        return Err(BinError::BadLength { at: 8, len: count.into() }.into());
    }
    header.resize(header_len as usize, 0);
    f.read_exact(&mut header[12..])?;
    let (covered, stored) = header.split_at(header.len() - 8);
    if fnv1a64(covered).to_le_bytes() != stored {
        return Err(CacheError::ChecksumMismatch);
    }
    let mut r = ByteReader::new(&covered[12..]);
    let mut index: Vec<IndexRecord> = Vec::with_capacity(count as usize);
    let mut offset = header_len;
    for i in 0..count as usize {
        let e = IndexRecord { program_key: r.u64()?, offset, len: r.u32()?, checksum: r.u64()? };
        if index.iter().any(|o| o.program_key == e.program_key) {
            let what = "duplicate program key";
            return Err(BinError::BadTag { at: 12 + 20 * i, tag: e.program_key, what }.into());
        }
        offset += u64::from(e.len);
        index.push(e);
    }
    if offset != file_len {
        return Err(BinError::BadLength { at: header_len as usize, len: offset }.into());
    }
    Ok(index)
}

/// Reads one entry's body through `f` and checks it against its record.
fn read_body(f: &mut (impl Read + Seek), e: &IndexRecord) -> Result<Vec<u8>, CacheError> {
    let mut body = vec![0u8; e.len as usize];
    f.seek(SeekFrom::Start(e.offset))?;
    f.read_exact(&mut body)?;
    if fnv1a64(&body) != e.checksum {
        return Err(CacheError::ChecksumMismatch);
    }
    Ok(body)
}

/// Reads the index, then only `key`'s body, through the one handle `f` (so
/// a concurrent save's rename cannot mix two files). `None` is a miss.
fn read_entry(f: &mut (impl Read + Seek), key: u64) -> Result<Option<Vec<u8>>, CacheError> {
    let index = read_index(f)?;
    index.iter().find(|e| e.program_key == key).map(|e| read_body(f, e)).transpose()
}

/// Lays out a file from `(program_key, body, body checksum)` triples.
fn join_file(entries: &[(u64, Vec<u8>, u64)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.raw(&MAGIC);
    w.u32(VERSION);
    w.u32(entries.len() as u32);
    for (key, body, checksum) in entries {
        w.u64(*key);
        w.u32(body.len() as u32);
        w.u64(*checksum);
    }
    w.u64(fnv1a64(w.bytes()));
    for (_, body, _) in entries {
        w.raw(body);
    }
    w.into_bytes()
}

/// Reads and fully decodes every entry of a cache file — the offline
/// inspection path used by `examples/dump_fragments.rs`. Entries are
/// checksum-verified and structurally decoded, but *not* revalidated
/// against any program or realm (there is none to validate against).
pub fn read_cache_file(path: &Path) -> Result<Vec<CacheEntry>, CacheError> {
    let mut f = File::open(path)?;
    let index = read_index(&mut f)?;
    index.iter().map(|e| decode_entry_body(e.program_key, &read_body(&mut f, e)?)).collect()
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

fn bad<T>(msg: String) -> Result<T, CacheError> {
    Err(CacheError::BadTree(msg))
}

/// Validates one decoded tree against the running program and realm:
/// anchor consistency, parallel-array shapes, AR-slot, frame, global and
/// native-function bounds. Runs before the verifier pass (which checks the
/// fragment code against the tree alone).
fn validate_tree(prog: &Program, realm: &Realm, ntrees: u32, t: &TreeCode) -> Result<(), CacheError> {
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
            SlotKey::Global(g) if g >= globals_len => bad(format!("global slot {g} out of range")),
            SlotKey::Local { depth: 0, slot } if slot >= entry_nlocals => {
                bad(format!("entry-frame local {slot} out of range"))
            }
            _ => Ok(()),
        }
    };
    let check_bindings = |what: &str, bs: &[SlotBinding]| -> Result<(), CacheError> {
        for b in bs {
            if u32::from(b.ar) >= nslots {
                return bad(format!("{what}: AR slot {} out of range", b.ar));
            }
            check_key(b.key)?;
        }
        Ok(())
    };
    let check_exit = |what: &str, e: &SideExitInfo| -> Result<(), CacheError> {
        if e.frames.is_empty() {
            return bad(format!("{what}: exit with no frames"));
        }
        for f in &e.frames {
            if f.func.0 >= nfuncs {
                return bad(format!("{what}: frame function {} out of range", f.func.0));
            }
            let code_len = prog.functions[f.func.0 as usize].code.len() as u32;
            if f.resume_pc >= code_len {
                return bad(format!("{what}: resume pc {} out of range", f.resume_pc));
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
                    return bad(format!("{what}: frame {depth} stack entry {idx} not written back"));
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
    /// (no file, or no entry for this program), and `Err` when the file's
    /// index or this program's entry failed revalidation — in every
    /// non-`Ok(true)` case the monitor is untouched and the run proceeds
    /// cold. Other programs' entries are never read.
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
        let found = File::open(&handle.path)
            .map_or(Ok(None), |mut f| read_entry(&mut f, handle.program_key));
        let installed = match found {
            Ok(None) => {
                self.profiler.stats.cache_misses += 1;
                return Ok(false);
            }
            Ok(Some(body)) => self.revalidate_and_install(&body, handle, interp, realm),
            Err(e) => Err(e),
        };
        match installed {
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
        body: &[u8],
        handle: &CacheHandle,
        interp: &mut Interp,
        realm: &Realm,
    ) -> Result<(), CacheError> {
        if !self.cache.is_empty() {
            return Err(CacheError::NotCold);
        }
        let mut entry = decode_entry_body(handle.program_key, body)?;
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
                return bad(format!("silenced anchor ({}, {l}) out of range", f.0));
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
        let mut ids: Vec<u32> = Vec::new();
        for inst in self.cache.iter().flat_map(|t| t.fragments.iter()).flat_map(|f| &f.code) {
            if let MachInst::GuardShape { shape, .. } = inst {
                ids.push(*shape);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        let shapes: Vec<ShapePath> = ids
            .into_iter()
            .filter_map(|id| {
                let path = realm.shapes.path(ShapeId(id))?.into_iter();
                let path = path.map(|s| realm.symbols.name(s).to_string()).collect();
                Some(ShapePath { id, path })
            })
            .collect();
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
        // Upsert into the existing file, copying the other programs' bodies
        // and stored checksums verbatim (not re-hashed); a file without a
        // valid index is replaced by a one-entry file.
        let mut entries: Vec<_> = File::open(&handle.path)
            .ok()
            .and_then(|mut f| {
                let index = read_index(&mut f).ok()?;
                index.iter().map(|e| {
                    let mut body = vec![0u8; e.len as usize];
                    f.read_exact(&mut body).ok().map(|()| (e.program_key, body, e.checksum))
                }).collect()
            })
            .unwrap_or_default();
        let checksum = fnv1a64(&body);
        let own = (handle.program_key, body, checksum);
        match entries.iter_mut().find(|e| e.0 == handle.program_key) {
            Some(slot) => *slot = own,
            None => entries.push(own),
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
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, &handle.path).inspect_err(|_| drop(std::fs::remove_file(&tmp)))?;
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

    const KEYS: [u64; 3] = [0xa, 0xb, 0xc];
    /// Where the three-entry file's header checksum starts.
    const SEAL_AT: usize = 12 + 3 * 20;

    /// A three-entry file whose bodies differ in length, so an offset
    /// derived from the wrong record reads the wrong bytes.
    fn three_entries() -> (Vec<u8>, Vec<Vec<u8>>) {
        let bodies = vec![vec![1, 2, 3], vec![9; 40], vec![7, 7]];
        let entries: Vec<_> =
            KEYS.iter().zip(&bodies).map(|(&k, b)| (k, b.clone(), fnv1a64(b))).collect();
        (join_file(&entries), bodies)
    }

    /// The load path: the index, then `key`'s body alone.
    fn load(bytes: &[u8], key: u64) -> Result<Option<Vec<u8>>, CacheError> {
        read_entry(&mut std::io::Cursor::new(bytes), key)
    }

    /// Rewrites the header checksum after an edit to the index, so only
    /// the index's structure can object.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let sum = fnv1a64(&bytes[..SEAL_AT]);
        bytes[SEAL_AT..SEAL_AT + 8].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn container_round_trips_with_derived_offsets() {
        let (bytes, bodies) = three_entries();
        let index = read_index(&mut std::io::Cursor::new(&bytes)).unwrap();
        let offsets: Vec<u64> = index.iter().map(|e| e.offset).collect();
        let header_len = SEAL_AT as u64 + 8;
        assert_eq!(offsets, [header_len, header_len + 3, header_len + 43]);
        for (key, body) in KEYS.into_iter().zip(bodies) {
            assert_eq!(load(&bytes, key), Ok(Some(body)));
        }
        assert_eq!(load(&bytes, 0xd), Ok(None), "an absent key is a clean miss");
        // Version skew is detected before the index is read.
        let mut skewed = bytes;
        skewed[4] = 0xfe;
        assert_eq!(load(&skewed, KEYS[0]), Err(CacheError::BadVersion { found: 0xfe }));
    }

    #[test]
    fn every_truncation_and_a_trailing_byte_are_errors_for_every_key() {
        let (bytes, _) = three_entries();
        for cut in 0..bytes.len() {
            for key in KEYS.into_iter().chain([0xd]) {
                assert!(load(&bytes[..cut], key).is_err(), "cut at {cut}, key {key:#x}");
            }
        }
        let mut long = bytes;
        long.push(0);
        for key in KEYS {
            assert!(matches!(load(&long, key), Err(CacheError::Corrupt(BinError::BadLength { .. }))));
        }
    }

    #[test]
    fn damaged_indexes_are_rejected() {
        let (bytes, _) = three_entries();
        let at = |record: usize, field: usize| 12 + 20 * record + field;
        let mut flipped = bytes.clone();
        flipped[SEAL_AT + 3] ^= 0x01;
        assert_eq!(load(&flipped, KEYS[0]), Err(CacheError::ChecksumMismatch));
        // Entry B's body_len runs past EOF: the lengths no longer sum to
        // the file length, whichever key is asked for.
        let mut overrun = bytes.clone();
        overrun[at(1, 8)..at(1, 12)].copy_from_slice(&u32::MAX.to_le_bytes());
        let overrun = reseal(overrun);
        for key in KEYS {
            assert!(matches!(load(&overrun, key), Err(CacheError::Corrupt(BinError::BadLength { .. }))));
        }
        // A count claiming more records than the file holds fails before
        // the index buffer is allocated (4 G records would be 80 GB).
        for count in [4 + bytes.len() as u32 / 20, u32::MAX] {
            let mut many = bytes.clone();
            many[8..12].copy_from_slice(&count.to_le_bytes());
            let err = load(&many, KEYS[0]);
            assert_eq!(err, Err(CacheError::Corrupt(BinError::BadLength { at: 8, len: count.into() })));
        }
        let mut dup = bytes;
        dup[at(2, 0)..at(2, 8)].copy_from_slice(&KEYS[0].to_le_bytes());
        let dup = reseal(dup);
        for key in KEYS {
            let err = load(&dup, key);
            assert!(matches!(err, Err(CacheError::Corrupt(BinError::BadTag { tag: 0xa, .. }))), "{err:?}");
        }
    }

    #[test]
    fn a_damaged_body_costs_only_its_own_entry() {
        let (bytes, bodies) = three_entries();
        let index = read_index(&mut std::io::Cursor::new(&bytes)).unwrap();
        let mut bad = bytes;
        bad[index[1].offset as usize + 17] ^= 0x40;
        assert_eq!(load(&bad, KEYS[0]), Ok(Some(bodies[0].clone())));
        assert_eq!(load(&bad, KEYS[1]), Err(CacheError::ChecksumMismatch));
        assert_eq!(load(&bad, KEYS[2]), Ok(Some(bodies[2].clone())));
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
        let mut file = File::open(&path).unwrap();
        let key = read_index(&mut file).unwrap()[0].program_key;
        let body = read_entry(&mut file, key).unwrap().unwrap();
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
        let checksum = fnv1a64(&body);
        std::fs::write(&path, join_file(&[(key, body, checksum)])).unwrap();

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
