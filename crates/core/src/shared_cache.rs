//! The process-wide shared code cache: deduplicating compiled fragments
//! across realms.
//!
//! The abstract-interpretation account of tracing JITs (Dissegna,
//! Logozzo, Ranzato) shows a compiled trace is sound relative only to the
//! guards on its entry type map — nothing about the *realm* that recorded
//! it leaks into the fragment except the shape ids and slot indices its
//! guards test. Two realms whose realms were indistinguishable at the
//! program's install point (same [`realm_fingerprint`]) evolve their
//! shape tables identically while running the same bytecode, so a
//! fragment recorded by one is directly executable by the other: every
//! embedded shape id either already denotes the same property path or
//! will, deterministically, by the time an object can reach the guard.
//!
//! [`SharedCodeCache`] exploits that: realms publish compiled trace
//! trees keyed by `(bytecode-program checksum, realm fingerprint,
//! anchor, entry-type-map digest)` and probe the cache when a loop
//! becomes hot, installing a ready tree instead of paying to record and
//! compile. A realm whose shapes diverged (different fingerprint) misses
//! the key entirely — there is no false sharing, only cold recording.
//!
//! Entries are immutable snapshots behind `Arc`: eviction (LRU over a
//! machine-instruction budget) merely drops the cache's reference, so a
//! realm mid-execution of an evicted fragment keeps it alive until it
//! exits — an in-use fragment is never freed.
//!
//! Trees containing nested-call sites reference *other trees* by
//! realm-local id and are not shared (counted in
//! [`SharedCacheStats::skipped_nested`]); their inner trees, which carry
//! the hot loops, share fine.
//!
//! [`realm_fingerprint`]: crate::persist::realm_fingerprint

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tm_bytecode::Program;
use tm_nanojit::Fragment;
use tm_runtime::Realm;
use tm_support::{sched, Fnv1a64};

use crate::activation::{ArLayout, SlotKey};
use crate::exit::SideExitInfo;
use crate::persist::{program_checksum, realm_fingerprint};
use crate::tree::{Anchor, EntrySlot, ExitState, TraceTree, TreeId, TreeStats};

/// Identifies "the same program in an indistinguishable realm": the two
/// halves of every shared-cache key that are fixed per `(program, realm)`
/// pair. Captured at the install point (post-compile, pre-run), exactly
/// like the persistent cache's [`crate::persist::CacheHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedKey {
    /// FNV-1a checksum of the compiled bytecode program.
    pub program_key: u64,
    /// Fingerprint of the realm at the install point.
    pub fingerprint: u64,
}

impl SharedKey {
    /// Captures the key for `prog` about to run in `realm`.
    pub fn capture(prog: &Program, realm: &Realm) -> SharedKey {
        SharedKey {
            program_key: program_checksum(prog),
            fingerprint: realm_fingerprint(realm),
        }
    }
}

/// An immutable published snapshot of a compiled trace tree — everything
/// a realm needs to install and execute it, and nothing realm-local (no
/// ids, no counters, no nested sites).
#[derive(Debug)]
pub struct SharedTree {
    /// Anchor the tree compiles.
    pub anchor: Anchor,
    /// Identity digest of this sibling (anchor + entry map at first
    /// publish); stable across republishes so branch extensions replace
    /// rather than duplicate, and so installing realms can deduplicate.
    pub digest: u64,
    /// Activation-record layout.
    pub layout: ArLayout,
    /// Entry type map.
    pub entry: Vec<EntrySlot>,
    /// Compiled fragments, shared by reference with every installing
    /// realm and with the publisher.
    pub fragments: Arc<Vec<Fragment>>,
    /// Side-exit descriptors per fragment.
    pub exits: Vec<Vec<SideExitInfo>>,
    /// Bytecodes covered per fragment.
    pub fragment_bytecodes: Vec<u32>,
    /// Which exits already carry a stitched branch fragment, per
    /// fragment and exit (the publisher's `ExitState::branch`).
    pub branch_links: Vec<Vec<Option<u32>>>,
    /// Per-fragment monitor-entry requirements.
    pub frag_entry_reqs: Vec<Vec<(tm_lir::ArSlot, SlotKey, tm_lir::LirType)>>,
    /// Loop-persistent writes.
    pub loop_writes: Vec<(tm_lir::ArSlot, SlotKey, tm_lir::LirType)>,
    /// Whether the trunk is type-unstable.
    pub unstable: bool,
    /// Total machine instructions across fragments (the LRU cost unit).
    pub insts: usize,
}

impl SharedTree {
    /// Materializes a realm-local [`TraceTree`] from this snapshot, with
    /// fresh execution statistics and exit counters but the publisher's
    /// branch links preserved (a stitched exit must never be re-recorded).
    pub fn instantiate(&self) -> TraceTree {
        let exit_states = self
            .branch_links
            .iter()
            .map(|frag| {
                frag.iter()
                    .map(|&branch| ExitState { counter: 0, failures: 0, branch })
                    .collect()
            })
            .collect();
        TraceTree {
            id: TreeId(0), // assigned by the installing cache
            anchor: self.anchor,
            layout: self.layout.clone(),
            entry: self.entry.clone(),
            fragments: Arc::clone(&self.fragments),
            exits: self.exits.clone(),
            fragment_bytecodes: self.fragment_bytecodes.clone(),
            exit_states,
            frag_entry_reqs: self.frag_entry_reqs.clone(),
            nested_sites: Vec::new(),
            loop_writes: self.loop_writes.clone(),
            lir: Vec::new(),
            unstable: self.unstable,
            disabled: false,
            native: crate::tree::NativeCode::NotEmitted,
            stats: TreeStats::default(),
        }
    }
}

/// Digest of a tree's identity within a program: its anchor plus its
/// entry type map. Used as the sibling-level key component.
pub fn entry_digest(anchor: Anchor, entry: &[EntrySlot]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update_u64(u64::from(anchor.func.0));
    h.update_u64(u64::from(anchor.pc));
    h.update_u64(anchor.loop_id.0 as u64);
    h.update_u64(matches!(anchor.kind, crate::tree::AnchorKind::FuncEntry) as u64);
    for e in entry {
        h.update_u64(u64::from(e.ar));
        h.update_u64(slot_key_digest(e.key));
        h.update_u64(e.ty as u64);
    }
    h.finish()
}

fn slot_key_digest(key: SlotKey) -> u64 {
    match key {
        SlotKey::Global(g) => 0x1000_0000_0000 | u64::from(g),
        SlotKey::Local { depth, slot } => {
            0x2000_0000_0000 | (u64::from(depth) << 16) | u64::from(slot)
        }
        SlotKey::Stack { depth, idx } => {
            0x3000_0000_0000 | (u64::from(depth) << 16) | u64::from(idx)
        }
        SlotKey::Reimport { site, idx } => {
            0x4000_0000_0000 | (u64::from(site) << 16) | u64::from(idx)
        }
    }
}

/// Counters of the process-wide cache (see `docs/DIAGNOSTICS.md`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups that returned at least one tree.
    pub hits: u64,
    /// Lookups that returned nothing.
    pub misses: u64,
    /// Trees published (first-time inserts).
    pub publishes: u64,
    /// Republishes that replaced an existing entry (branch extensions).
    pub replaced: u64,
    /// Entries evicted by the LRU budget.
    pub evictions: u64,
    /// Publishes skipped because the tree has nested-call sites.
    pub skipped_nested: u64,
    /// Current number of entries.
    pub entries: u64,
    /// Current total machine instructions held.
    pub insts: u64,
}

#[derive(Debug)]
struct Slot {
    tree: Arc<SharedTree>,
    /// LRU stamp: bumped on every hit and publish.
    stamp: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Sibling lists per `(shared key, anchor)`, values are digests into
    /// `entries`.
    by_anchor: HashMap<(SharedKey, Anchor), Vec<u64>>,
    entries: HashMap<(SharedKey, u64), Slot>,
    clock: u64,
    stats: SharedCacheStats,
}

/// The process-wide shared code cache. Cheap to clone a handle to
/// (`Arc<SharedCodeCache>`); all methods take `&self`.
#[derive(Debug)]
pub struct SharedCodeCache {
    inner: Mutex<Inner>,
    /// LRU budget in machine instructions (sum of fragment lengths).
    budget_insts: usize,
}

/// Default LRU budget: roomy enough that the whole SunSpider-style suite
/// fits, small enough that a runaway multi-program service turns over.
pub const DEFAULT_BUDGET_INSTS: usize = 1 << 20;

impl Default for SharedCodeCache {
    fn default() -> Self {
        SharedCodeCache::new(DEFAULT_BUDGET_INSTS)
    }
}

impl SharedCodeCache {
    /// Creates a cache with an LRU budget of `budget_insts` machine
    /// instructions.
    pub fn new(budget_insts: usize) -> SharedCodeCache {
        SharedCodeCache { inner: Mutex::new(Inner::default()), budget_insts }
    }

    /// All published siblings for `anchor` under `key`, most recently
    /// published first. Bumps the LRU stamp of every returned entry.
    pub fn lookup(&self, key: SharedKey, anchor: Anchor) -> Vec<Arc<SharedTree>> {
        sched::yield_point("shared.lookup");
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let digests = inner.by_anchor.get(&(key, anchor)).cloned().unwrap_or_default();
        let mut found = Vec::new();
        for d in digests {
            if let Some(slot) = inner.entries.get_mut(&(key, d)) {
                inner.clock += 1;
                slot.stamp = inner.clock;
                found.push(Arc::clone(&slot.tree));
            }
        }
        if found.is_empty() {
            inner.stats.misses += 1;
        } else {
            inner.stats.hits += 1;
        }
        found
    }

    /// Publishes a snapshot of `tree` under `key` with sibling identity
    /// `digest`, replacing any previous snapshot with the same identity
    /// (a branch extension republishes). Returns `false` (and counts)
    /// when the tree is not shareable (nested-call sites) — or when it is
    /// larger than the whole budget, in which case caching it would only
    /// thrash. May evict least-recently-used entries.
    pub fn publish(&self, key: SharedKey, digest: u64, tree: &TraceTree) -> bool {
        sched::yield_point("shared.publish");
        if !tree.nested_sites.is_empty() {
            self.inner.lock().unwrap().stats.skipped_nested += 1;
            return false;
        }
        let snapshot = SharedTree {
            anchor: tree.anchor,
            digest,
            layout: tree.layout.clone(),
            entry: tree.entry.clone(),
            fragments: Arc::clone(&tree.fragments),
            exits: tree.exits.clone(),
            fragment_bytecodes: tree.fragment_bytecodes.clone(),
            branch_links: tree
                .exit_states
                .iter()
                .map(|frag| frag.iter().map(|st| st.branch).collect())
                .collect(),
            frag_entry_reqs: tree.frag_entry_reqs.clone(),
            loop_writes: tree.loop_writes.clone(),
            unstable: tree.unstable,
            insts: tree.fragments.iter().map(Fragment::len).sum(),
        };
        if snapshot.insts > self.budget_insts {
            return false;
        }
        let evicted;
        {
            let mut inner = self.inner.lock().unwrap();
            inner.clock += 1;
            let stamp = inner.clock;
            let anchor = snapshot.anchor;
            let insts = snapshot.insts;
            match inner.entries.insert(
                (key, digest),
                Slot { tree: Arc::new(snapshot), stamp },
            ) {
                Some(old) => {
                    inner.stats.replaced += 1;
                    inner.stats.insts -= old.tree.insts as u64;
                }
                None => {
                    inner.stats.publishes += 1;
                    inner.stats.entries += 1;
                    inner.by_anchor.entry((key, anchor)).or_default().push(digest);
                }
            }
            inner.stats.insts += insts as u64;
            evicted = inner.evict_over_budget(self.budget_insts);
        }
        if evicted > 0 {
            sched::yield_point("shared.evict");
        }
        true
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> SharedCacheStats {
        self.inner.lock().unwrap().stats
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Inner {
    /// Evicts least-recently-stamped entries until the instruction total
    /// fits the budget. Returns how many entries were evicted.
    fn evict_over_budget(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.stats.insts > budget as u64 && self.entries.len() > 1 {
            let Some((&victim_key, _)) =
                self.entries.iter().min_by_key(|(_, slot)| slot.stamp)
            else {
                break;
            };
            let slot = self.entries.remove(&victim_key).expect("victim exists");
            self.stats.insts -= slot.tree.insts as u64;
            self.stats.entries -= 1;
            self.stats.evictions += 1;
            evicted += 1;
            if let Some(list) = self.by_anchor.get_mut(&(victim_key.0, slot.tree.anchor)) {
                list.retain(|&d| d != victim_key.1);
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{Engine, Vm};
    use crate::JitOptions;

    /// Runs a hot loop and returns the VM (so its monitor's trees can be
    /// published by hand in these unit tests).
    fn traced(src: &str) -> Vm {
        let mut vm = Vm::new(Engine::Tracing);
        vm.eval(src).expect("runs");
        vm
    }

    fn first_tree(vm: &Vm) -> (SharedKey, u64, &TraceTree) {
        let m = vm.monitor().expect("traced");
        let t = m.cache.iter().next().expect("one tree");
        let key = SharedKey { program_key: 1, fingerprint: 2 };
        let digest = entry_digest(t.anchor, &t.entry);
        (key, digest, t)
    }

    #[test]
    fn publish_then_lookup_roundtrip() {
        let vm = traced("var s = 0; for (var i = 0; i < 100; i++) s += i; s");
        let (key, digest, tree) = first_tree(&vm);
        let cache = SharedCodeCache::default();
        assert!(cache.publish(key, digest, tree));
        let got = cache.lookup(key, tree.anchor);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].digest, digest);
        assert_eq!(got[0].fragments.len(), tree.fragments.len());
        // A different fingerprint misses.
        let other = SharedKey { program_key: 1, fingerprint: 3 };
        assert!(cache.lookup(other, tree.anchor).is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.publishes), (1, 1, 1));
    }

    #[test]
    fn republish_replaces_not_duplicates() {
        let vm = traced("var s = 0; for (var i = 0; i < 100; i++) s += i; s");
        let (key, digest, tree) = first_tree(&vm);
        let cache = SharedCodeCache::default();
        assert!(cache.publish(key, digest, tree));
        assert!(cache.publish(key, digest, tree));
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!((s.publishes, s.replaced), (1, 1));
    }

    #[test]
    fn lru_evicts_under_small_budget_but_in_use_trees_survive() {
        let vm = traced("var s = 0; for (var i = 0; i < 100; i++) s += i; s");
        let (key, digest, tree) = first_tree(&vm);
        let insts: usize = tree.fragments.iter().map(Fragment::len).sum();
        // Budget fits exactly two copies of this tree.
        let cache = SharedCodeCache::new(insts * 2);
        for i in 0..4u64 {
            assert!(cache.publish(key, digest.wrapping_add(i), tree));
        }
        let held = cache.lookup(key, tree.anchor);
        assert_eq!(cache.len(), 2, "LRU kept only the two newest");
        assert!(cache.stats().evictions >= 2);
        // The `Arc` returned by lookup keeps evicted-later entries alive:
        // publish more to evict everything we hold...
        for i in 10..20u64 {
            cache.publish(key, digest.wrapping_add(i), tree);
        }
        // ...and the fragments we obtained earlier are still executable
        // state (non-empty, readable) — eviction never frees in-use code.
        for t in &held {
            assert!(t.fragments.iter().map(Fragment::len).sum::<usize>() > 0);
        }
    }

    #[test]
    fn nested_trees_are_not_shared() {
        let mut opts = JitOptions::default();
        opts.log_events = true;
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        vm.eval(
            "var s = 0;
             for (var i = 0; i < 200; i++) {
                 for (var j = 0; j < 50; j++) s += 1;
             } s",
        )
        .unwrap();
        let m = vm.monitor().unwrap();
        let nested: Vec<_> =
            m.cache.iter().filter(|t| !t.nested_sites.is_empty()).collect();
        assert!(!nested.is_empty(), "outer tree has a nested site");
        let cache = SharedCodeCache::default();
        let key = SharedKey { program_key: 1, fingerprint: 2 };
        for t in nested {
            assert!(!cache.publish(key, entry_digest(t.anchor, &t.entry), t));
        }
        assert!(cache.stats().skipped_nested > 0);
    }

    #[test]
    fn oversized_tree_is_refused_without_thrashing() {
        let vm = traced("var s = 0; for (var i = 0; i < 100; i++) s += i; s");
        let (key, digest, tree) = first_tree(&vm);
        let cache = SharedCodeCache::new(1); // smaller than any real tree
        assert!(!cache.publish(key, digest, tree));
        assert_eq!(cache.len(), 0);
    }
}
