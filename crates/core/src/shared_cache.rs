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
//! An entry is the publisher's own `Arc<TreeCode>`: publishing and
//! installing clone the handle, never the tree. The record is immutable
//! while shared — a realm that extends its tree does so through
//! `Arc::make_mut`, which copies it once and leaves every other holder on
//! the version it installed — and eviction (LRU over a
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
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

use tm_bytecode::Program;
use tm_nanojit::Fragment;
use tm_runtime::Realm;
use tm_support::{sched, WordHasher};

use crate::activation::{SlotBinding, SlotKey};
use crate::persist::{program_checksum, realm_fingerprint};
use crate::tree::{Anchor, TreeCode};

/// Identifies "the same program in an indistinguishable realm": the two
/// halves of every shared-cache key that are fixed per `(program, realm)`
/// pair. Captured at the install point (post-compile, pre-run), exactly
/// like the persistent cache's [`crate::persist::CacheHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedKey {
    /// [`program_checksum`] of the compiled bytecode program.
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

/// Digest of a tree's identity within a program: its anchor plus its
/// entry type map. Used as the sibling-level key component.
pub fn entry_digest(anchor: Anchor, entry: &[SlotBinding]) -> u64 {
    let mut h = WordHasher::new();
    h.write_u32(anchor.func.0);
    h.write_u32(anchor.pc);
    h.write_u16(anchor.loop_id.0);
    for e in entry {
        h.write_u16(e.ar);
        h.write_u64(slot_key_digest(e.key));
        h.write_u8(e.ty as u8);
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
    code: Arc<TreeCode>,
    /// Total machine instructions across fragments (the LRU cost unit).
    insts: usize,
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
    pub fn lookup(&self, key: SharedKey, anchor: Anchor) -> Vec<Arc<TreeCode>> {
        sched::yield_point("shared.lookup");
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let digests = inner.by_anchor.get(&(key, anchor)).cloned().unwrap_or_default();
        let mut found = Vec::new();
        for d in digests {
            if let Some(slot) = inner.entries.get_mut(&(key, d)) {
                inner.clock += 1;
                slot.stamp = inner.clock;
                found.push(Arc::clone(&slot.code));
            }
        }
        if found.is_empty() {
            inner.stats.misses += 1;
        } else {
            inner.stats.hits += 1;
        }
        found
    }

    /// Publishes `code` under `key` and its own sibling identity
    /// (`code.digest`), replacing any previous version with the same
    /// identity (a branch extension republishes). Returns `false` (and
    /// counts) when the tree is not shareable (nested-call sites name
    /// other trees by realm-local id) — or when it is larger than the
    /// whole budget, in which case caching it would only thrash. May
    /// evict least-recently-used entries.
    pub fn publish(&self, key: SharedKey, code: &Arc<TreeCode>) -> bool {
        sched::yield_point("shared.publish");
        if !code.nested_sites.is_empty() {
            self.inner.lock().unwrap().stats.skipped_nested += 1;
            return false;
        }
        let insts: usize = code.fragments.iter().map(Fragment::len).sum();
        if insts > self.budget_insts {
            return false;
        }
        let evicted;
        {
            let mut inner = self.inner.lock().unwrap();
            inner.clock += 1;
            let slot = Slot { code: Arc::clone(code), insts, stamp: inner.clock };
            match inner.entries.insert((key, code.digest), slot) {
                Some(old) => {
                    inner.stats.replaced += 1;
                    inner.stats.insts -= old.insts as u64;
                }
                None => {
                    inner.stats.publishes += 1;
                    inner.stats.entries += 1;
                    inner.by_anchor.entry((key, code.anchor)).or_default().push(code.digest);
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
            self.stats.insts -= slot.insts as u64;
            self.stats.entries -= 1;
            self.stats.evictions += 1;
            evicted += 1;
            if let Some(list) = self.by_anchor.get_mut(&(victim_key.0, slot.code.anchor)) {
                list.retain(|&d| d != victim_key.1);
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TraceTree;
    use crate::vm::{Engine, Vm};
    use crate::{JitOptions, Monitor};
    use tm_interp::Interp;

    const HOT: &str = "var s = 0; for (var i = 0; i < 100; i++) s += i; s";

    /// Runs a hot loop and returns the VM (so its monitor's trees can be
    /// published by hand in these unit tests).
    fn traced(src: &str) -> Vm {
        let mut vm = Vm::new(Engine::Tracing);
        vm.eval(src).expect("runs");
        vm
    }

    const KEY: SharedKey = SharedKey { program_key: 1, fingerprint: 2 };

    fn first_tree(vm: &Vm) -> &TraceTree {
        vm.monitor().expect("traced").cache.iter().next().expect("one tree")
    }

    /// `code` under another sibling identity.
    fn with_digest(code: &TreeCode, digest: u64) -> Arc<TreeCode> {
        Arc::new(TreeCode { digest, ..code.clone() })
    }

    #[test]
    fn publish_then_lookup_roundtrip() {
        let vm = traced(HOT);
        let tree = first_tree(&vm);
        let cache = SharedCodeCache::default();
        assert!(cache.publish(KEY, &tree.code));
        let got = cache.lookup(KEY, tree.anchor);
        assert_eq!(got.len(), 1);
        assert!(Arc::ptr_eq(&got[0], &tree.code), "the cache holds the publisher's record");
        // A different fingerprint misses.
        let other = SharedKey { program_key: 1, fingerprint: 3 };
        assert!(cache.lookup(other, tree.anchor).is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.publishes), (1, 1, 1));
    }

    #[test]
    fn republish_replaces_not_duplicates() {
        let vm = traced(HOT);
        let tree = first_tree(&vm);
        let cache = SharedCodeCache::default();
        assert!(cache.publish(KEY, &tree.code));
        assert!(cache.publish(KEY, &tree.code));
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!((s.publishes, s.replaced), (1, 1));
    }

    /// One realm of a multi-tenant process, driven at the monitor level
    /// so one monitor can run its program more than once.
    struct Tenant {
        key: SharedKey,
        realm: Realm,
        interp: Interp,
        monitor: Monitor,
    }

    impl Tenant {
        fn new(cache: &Arc<SharedCodeCache>, src: &str) -> Tenant {
            let mut realm = Realm::new();
            let prog =
                tm_bytecode::compile(&tm_frontend::parse(src).unwrap(), &mut realm).unwrap();
            let key = SharedKey::capture(&prog, &realm);
            let interp = Interp::new(prog, &mut realm);
            let opts = JitOptions { background_compile: false, ..JitOptions::default() };
            let mut monitor = Monitor::new(opts);
            monitor.attach_shared(Arc::clone(cache), key);
            Tenant { key, realm, interp, monitor }
        }

        /// Runs the program with each global of `globals`, which it reads
        /// but never assigns, set first. A global's value is not part of
        /// the shared key: every tenant of one program shares its trees
        /// whatever values they run with.
        fn run(&mut self, globals: &[(&str, i32)]) -> String {
            for &(name, v) in globals {
                let slot = self.realm.lookup_global(name).expect("the program reads it");
                self.realm.set_global(slot, tm_runtime::Value::new_int(v));
            }
            self.interp.reset();
            let v = self.monitor.run_program(&mut self.interp, &mut self.realm).expect("runs");
            tm_runtime::ops::to_display(&mut self.realm, v)
        }

        fn tree(&self) -> &TraceTree {
            self.monitor.cache.iter().next().expect("one tree")
        }
    }

    /// A loop whose exits the host steers through two globals the program
    /// never assigns: the odd path is taken at `i == odd`, and the loop is
    /// left through its condition (`last` = -1) or through the `break` at
    /// `i == last`. An exit is hot at its second pass
    /// (`HOT_EXIT_THRESHOLD`), so a tenant that leaves by another exit
    /// in each of its two runs grows no branch at the loop's end.
    const STEERED: &str = "var a = 0;
        for (var i = 0; i < 200; i++) { if (i == odd) a += 2; else a++; if (i == last) break; }
        a";
    const _: () = assert!(crate::monitor::HOT_EXIT_THRESHOLD == 2);

    /// The sharing contract: a tenant install is the publisher's record by
    /// reference; a branch install in one realm leaves every other holder
    /// on the version it has, and republishes the extended version under
    /// the same identity.
    #[test]
    fn installs_share_the_record_and_extensions_copy_it_once() {
        // The publisher takes the odd path once a run: its exit turns hot
        // in the second run. The other tenants never take it.
        let (taken, not_taken) = ("201", "200");
        let cache = Arc::new(SharedCodeCache::default());
        let mut publisher = Tenant::new(&cache, STEERED);
        assert_eq!(publisher.run(&[("odd", 150), ("last", -1)]), taken);
        let v1 = Arc::clone(&publisher.tree().code);
        assert_eq!(v1.fragments.len(), 1);

        // (i) Installing is taking a reference.
        let mut installer = Tenant::new(&cache, STEERED);
        assert_eq!(installer.run(&[("odd", -1), ("last", -1)]), not_taken);
        assert_eq!(installer.monitor.profiler.stats.shared_cache_installed_trees, 1);
        assert!(Arc::ptr_eq(&installer.tree().code, &v1));

        // (ii) The publisher grows its tree; the installer's does not move.
        let before = cache.stats();
        assert_eq!(publisher.run(&[("last", 199)]), taken);
        let v2 = Arc::clone(&publisher.tree().code);
        assert_eq!(v2.fragments.len(), 2, "the hot exit was extended");
        assert_eq!(v2.exits.len(), 2);
        assert!(v2.fragments[0].stitch.contains(&1));
        assert_eq!(v2.entry[..v1.entry.len()], v1.entry[..], "the entry map only grows");
        assert_eq!(v2.digest, v1.digest);
        assert!(Arc::ptr_eq(&installer.tree().code, &v1));
        assert_eq!((v1.fragments.len(), v1.exits.len()), (1, 1));
        assert!(v1.fragments[0].stitch.iter().all(|&e| e == tm_nanojit::EXIT_UNSTITCHED));
        assert_eq!(installer.run(&[("last", 199)]), not_taken);
        let after = cache.stats();
        assert_eq!((after.replaced, after.entries), (before.replaced + 1, before.entries));

        // A realm started afterwards gets the extended version.
        let mut late = Tenant::new(&cache, STEERED);
        assert_eq!(late.run(&[("odd", -1), ("last", -1)]), not_taken);
        assert!(Arc::ptr_eq(&late.tree().code, &v2));
    }

    /// (iii) Eviction only drops the cache's reference.
    #[test]
    fn lru_evicts_under_small_budget_but_in_use_trees_survive() {
        let first = [("odd", -1), ("last", -1)];
        let mut publisher = Tenant::new(&Arc::new(SharedCodeCache::default()), STEERED);
        let expected = publisher.run(&first);
        let code = Arc::clone(&publisher.tree().code);
        let insts: usize = code.fragments.iter().map(Fragment::len).sum();
        // Budget fits exactly two copies of this tree.
        let cache = Arc::new(SharedCodeCache::new(insts * 2));
        let mut holder = Tenant::new(&cache, STEERED);
        let key = holder.key;
        assert!(cache.publish(key, &code));
        assert_eq!(holder.run(&first), expected);
        assert!(Arc::ptr_eq(&holder.tree().code, &code), "the realm runs the cached record");
        for i in 1..4u64 {
            assert!(cache.publish(key, &with_digest(&code, code.digest.wrapping_add(i))));
        }
        assert_eq!(cache.len(), 2, "LRU kept only the two newest");
        assert!(cache.stats().evictions >= 2);
        assert!(
            cache.lookup(key, code.anchor).iter().all(|c| !Arc::ptr_eq(c, &code)),
            "the held record was evicted"
        );
        // ...and the realm holding it keeps running it, leaving the loop
        // by the other exit.
        assert_eq!(holder.run(&[("last", 199)]), expected);
        assert!(Arc::ptr_eq(&holder.tree().code, &code));
        assert!(holder.tree().stats.enters >= 2);
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
        for t in nested {
            assert!(!cache.publish(KEY, &t.code));
        }
        assert!(cache.stats().skipped_nested > 0);
    }

    #[test]
    fn oversized_tree_is_refused_without_thrashing() {
        let vm = traced(HOT);
        let cache = SharedCodeCache::new(1); // smaller than any real tree
        assert!(!cache.publish(KEY, &first_tree(&vm).code));
        assert_eq!(cache.len(), 0);
    }
}
