//! Where a finished recording becomes runnable code: the second half of
//! the paper's Figure 2 state machine, after recording. A verified
//! recording is compiled here or handed to the attached compiler pool
//! ([`Monitor::compile`]), and either way reaches its tree through one
//! function, [`Monitor::land`]: a root becomes a new tree, a branch is
//! stitched to the side exit it extends. Whole trees — just compiled,
//! from the shared code cache or from a `.tmc` file — join the monitor
//! through [`Monitor::adopt`]. A tree's executable code (native or
//! decoded) is built at its first run and grown by every branch install.

use std::sync::Arc;

use tm_interp::Interp;
use tm_lir::{run_backward_filters, ArSlot, ExitLiveness, LirType};
use tm_nanojit::{
    assemble, Decoded, DecodedTree, DirectSite, Fragment, NativeTree, Unsupported,
    EXIT_UNSTITCHED,
};

use super::{Monitor, PendingCompile, Target};
use crate::activation::merge_by_ar;
use crate::config::JitOptions;
use crate::events::{AbortReason, TraceEvent};
use crate::exit::SideExitInfo;
use crate::nest::SitePlans;
use crate::pool::{CompileJob, CompileOutcome};
use crate::profiler::{Activity, ProfileStats};
use crate::recorder::{self, RecordedTrace};
use crate::shared_cache::entry_digest;
use crate::tree::{Anchor, ExecCode, ExitState, TraceTree, TreeCode, TreeId};

impl Monitor {
    /// Compiles a verified recording for `target` and lands it: on the
    /// attached pool when background compilation is on, landing at a
    /// later anchor hit ([`Monitor::poll_compiles`]), otherwise here and
    /// now. `verify_base` is the fragment's pre-existing entry state
    /// (empty for a root trace; the parent exit's type map plus the tree
    /// entry map for a branch), used only for the post-filter
    /// verification pass.
    pub(super) fn compile(
        &mut self,
        target: Target,
        mut recorded: RecordedTrace,
        verify_base: Vec<(ArSlot, LirType)>,
        interp: &mut Interp,
    ) {
        if let Some(pool) = self.pool.as_ref().filter(|_| self.opts.background_compile) {
            let ticket = pool.submit(CompileJob { recorded, verify_base, opts: self.opts });
            self.in_flight.push(PendingCompile { ticket, target });
            self.profiler.stats.compile_jobs_submitted += 1;
            return;
        }
        self.profiler.switch(Activity::Compile);
        // On the execution thread a verifier rejection is a bug in this
        // program, not a condition to recover from.
        let fragment = compile_trace(&mut recorded, &verify_base, &self.opts)
            .unwrap_or_else(|err| panic!("{err}"));
        self.profiler.switch(Activity::Monitor);
        let outcome =
            CompileOutcome::Done { recorded: Box::new(recorded), fragment: Box::new(fragment) };
        self.land(target, outcome, interp);
    }

    /// Lands every background compile that has finished: at each anchor
    /// hit without waiting, and with `wait` every compile in flight, at
    /// program end, so that the monitor's final state (trees, counters,
    /// the persisted cache image) does not depend on how fast the
    /// workers were. The last submitted lands first.
    pub(super) fn poll_compiles(&mut self, wait: bool, interp: &mut Interp) {
        for i in (0..self.in_flight.len()).rev() {
            let ticket = &self.in_flight[i].ticket;
            let Some(outcome) = (if wait { Some(ticket.wait()) } else { ticket.try_ready() })
            else {
                continue;
            };
            let target = self.in_flight.swap_remove(i).target;
            let failed = matches!(outcome, CompileOutcome::Failed(_));
            let installed = self.land(target, outcome, interp);
            let stats = &mut self.profiler.stats;
            stats.compile_jobs_installed += u64::from(installed);
            stats.compile_jobs_failed += u64::from(failed);
        }
    }

    /// Lands a compiled recording in its tree: a root becomes a new tree
    /// at its anchor, a branch is stitched to the side exit it extends. A
    /// failed compile — only the pool's fail; on the execution thread
    /// [`Monitor::compile`] panics first — is charged to `target` as a
    /// recording abort. Returns whether a fragment was installed.
    pub(super) fn land(
        &mut self,
        target: Target,
        outcome: CompileOutcome,
        interp: &mut Interp,
    ) -> bool {
        let CompileOutcome::Done { recorded, fragment } = outcome else {
            self.fail(target, AbortReason::CompileFailed, None, interp);
            return false;
        };
        if let Target::Branch(tid, frag, exit) = target {
            if self.cache.tree(tid).fragments[frag as usize].stitch[exit as usize]
                != EXIT_UNSTITCHED
            {
                // Already stitched: installing would orphan the fragment
                // there. Only one branch of a tree compiles at a time
                // (`maybe_extend`), so this guards a background compile
                // against an install path that does not exist yet.
                return false;
            }
        }
        let mut recorded = *recorded;
        let stats = &mut self.profiler.stats;
        // The typed fast-call sites, rolled into the per-builtin counters.
        for h in recorded.fast_helpers.drain(..) {
            *stats.builtin_fast_records.entry(format!("{h:?}")).or_insert(0) += 1;
        }
        stats.fragments += 1;
        for m in recorded.oracle_marks.drain(..) {
            self.oracle.mark_double(m);
        }
        match target {
            Target::Root(anchor) => self.install_root_tree(anchor, recorded, *fragment),
            Target::Branch(tid, frag, exit) => {
                self.install_branch(tid, frag, exit, recorded, *fragment);
            }
        }
        true
    }

    /// Installs a compiled root fragment as a new tree at `anchor`
    /// ([`Monitor::land`]'s root arm).
    fn install_root_tree(&mut self, anchor: Anchor, recorded: RecordedTrace, frag: Fragment) {
        let mut tree = TraceTree::new(Arc::new(TreeCode {
            anchor,
            digest: entry_digest(anchor, &recorded.new_entry),
            layout: recorded.layout,
            fragments: Arc::new(vec![frag]),
            exits: vec![recorded.exits],
            fragment_bytecodes: vec![recorded.bytecodes],
            entry: recorded.new_entry,
            nested_sites: recorded.nested_sites,
            loop_writes: recorded.loop_writes,
            unstable: recorded.finish == recorder::FinishKind::UnstableLoop,
        }));
        if self.opts.log_events {
            tree.lir.push(recorded.lir);
        }
        let tid = self.adopt(tree);
        self.profiler.stats.trees += 1;
        self.events.push(TraceEvent::RecordFinish {
            tree: tid.0,
            fragment: 0,
            lir_len: self.cache.tree(tid).fragments[0].len() as u32,
        });
        self.publish_shared(tid);
        // §4.2: outer loops that aborted waiting on this anchor may try
        // again.
        self.blacklist.forgive_waiting_on((anchor.func, anchor.pc));
    }

    /// Installs a compiled branch fragment, stitched to `(parent_frag,
    /// parent_exit)` of tree `tid` ([`Monitor::land`]'s branch arm).
    fn install_branch(
        &mut self,
        tid: TreeId,
        parent_frag: u32,
        parent_exit: u16,
        recorded: RecordedTrace,
        frag: Fragment,
    ) {
        let tree = self.cache.tree_to_grow(tid);
        // Grows the tree in place when this realm is its only holder; when
        // the shared cache or another realm still holds this version, they
        // keep it and this realm continues on one copy.
        let code = Arc::make_mut(&mut tree.code);
        let new_idx = code.fragments.len() as u32;
        {
            let frags = Arc::make_mut(&mut code.fragments);
            frags.push(frag);
            frags[parent_frag as usize].stitch_exit(parent_exit, new_idx);
        }
        code.layout = recorded.layout;
        for e in recorded.new_entry {
            // A branch runs on the activation record the monitor filled
            // at tree entry (a stitched exit carries it over), so the
            // entry map must cover every slot the branch reads before
            // writing it. Appended in arrival order: a `.tmc` load
            // recomputes the sibling digest from the map as saved.
            if !code.entry.iter().any(|x| x.ar == e.ar) {
                code.entry.push(e);
            }
        }
        // The branch's exits must also restore the *tree's* loop-persistent
        // writes (slots written by the trunk after the branch point carry
        // stale values from earlier iterations), and vice versa: existing
        // exits must restore the branch's new loop writes.
        let mut branch_exits = recorded.exits;
        for e in &mut branch_exits {
            e.add_loop_writes(&code.loop_writes);
        }
        let new_loop_writes = merge_by_ar(&code.loop_writes, &recorded.loop_writes);
        if new_loop_writes.len() != code.loop_writes.len() {
            for e in code.exits.iter_mut().flatten() {
                e.add_loop_writes(&new_loop_writes);
            }
            for site in &mut code.nested_sites {
                site.callsite.add_loop_writes(&new_loop_writes);
            }
        }
        code.loop_writes = new_loop_writes;
        tree.exit_states.push(vec![ExitState::default(); branch_exits.len()]);
        code.exits.push(branch_exits);
        if self.opts.log_events {
            tree.lir.push(recorded.lir);
        }
        code.fragment_bytecodes.push(recorded.bytecodes);
        code.nested_sites.extend(recorded.nested_sites);
        self.events.push(TraceEvent::Stitch {
            tree: tid.0,
            from_fragment: parent_frag,
            exit: parent_exit,
            to_fragment: new_idx,
        });
        self.events.push(TraceEvent::RecordFinish {
            tree: tid.0,
            fragment: new_idx,
            lir_len: self.cache.tree(tid).fragments[new_idx as usize].len() as u32,
        });
        self.grow_exec(tid);
        // Republish: the tree grew a fragment, so realms installing it
        // from the shared cache later get the extended version.
        self.publish_shared(tid);
        let anchor = self.cache.tree(tid).anchor;
        self.blacklist.forgive_waiting_on((anchor.func, anchor.pc));
    }

    /// Adds a whole tree — just compiled, from the shared code cache or
    /// from a `.tmc` file — to the cache and to its anchor's monitor
    /// slot, the structure the hot loop-edge path consults.
    pub(crate) fn adopt(&mut self, tree: TraceTree) -> TreeId {
        let anchor = tree.anchor;
        let tid = self.cache.insert(tree);
        self.slot_mut(anchor).trees.push(tid);
        tid
    }

    /// Probes the shared code cache for `anchor`, adopting every sibling
    /// not yet present locally. Returns whether anything new was adopted.
    pub(super) fn try_shared_install(&mut self, anchor: Anchor) -> bool {
        let Some((cache, key)) = self.shared.clone() else { return false };
        let found = cache.lookup(key, anchor);
        if found.is_empty() {
            self.profiler.stats.shared_cache_misses += 1;
            return false;
        }
        self.profiler.stats.shared_cache_hits += 1;
        let mut installed = false;
        for code in found {
            if !self.shared_seen.insert(code.digest) {
                continue;
            }
            self.adopt(TraceTree::new(code));
            self.profiler.stats.shared_cache_installed_trees += 1;
            installed = true;
        }
        installed
    }

    /// Publishes tree `tid` to the shared code cache (no-op without an
    /// attached cache, or for trees with nested-call sites).
    pub(crate) fn publish_shared(&mut self, tid: TreeId) {
        let Some((cache, key)) = &self.shared else { return };
        let code = &self.cache.tree(tid).code;
        if cache.publish(*key, code) {
            self.shared_seen.insert(code.digest);
            self.profiler.stats.shared_cache_publishes += 1;
        }
    }

    /// Grows tree `tid`'s code by the fragment just installed. Native
    /// code grows in place: the new body goes at the tail, with direct
    /// sites from fresh plans, and the parent's exit is patched to jump
    /// to it; the tree's older direct sites are checked at its next run
    /// (`run_entered`). The trees whose direct sites call this code give
    /// theirs up first, to be emitted again, whole, at their next run.
    /// Out of reserved capacity, the tree is built again, whole, as first
    /// execution does. A decoded tree decodes the new fragment and
    /// follows the new stitch.
    fn grow_exec(&mut self, tid: TreeId) {
        let code = Arc::clone(&self.cache.tree(tid).code);
        let exec = match std::mem::take(&mut self.cache.tree_mut(tid).exec) {
            ExecCode::Native(native) => {
                for caller in self.cache.iter_mut() {
                    let calls = |nt: &NativeTree| {
                        let mut sites = nt.direct_sites().iter().flatten();
                        sites.any(|d| d.callees().any(|c| Arc::ptr_eq(c, &native)))
                    };
                    if matches!(&caller.exec, ExecCode::Native(nt) if calls(nt)) {
                        caller.exec = ExecCode::NotBuilt;
                    }
                }
                let mut plans = SitePlans::default().current(self.cache.installs());
                let sites = self.direct_sites(&code, &mut plans);
                let stats = &mut self.profiler.stats;
                match Arc::try_unwrap(native).map(|nt| nt.append(&code.fragments, &sites)) {
                    Ok(Ok(nt)) => {
                        stats.native_fragments += 1;
                        stats.native_emissions_sync += 1;
                        ExecCode::Native(Arc::new(nt))
                    }
                    Ok(Err(refused)) if refused != Unsupported::FULL => {
                        build_decoded(&code.fragments, &self.opts, stats)
                    }
                    _ => self.emit(&code, &sites),
                }
            }
            ExecCode::Decoded(mut decoded) => {
                let new = Arc::make_mut(&mut decoded).append(
                    &code.fragments,
                    self.opts.enable_fusion,
                    self.opts.verify,
                );
                count_fusion(new, &mut self.profiler.stats);
                ExecCode::Decoded(decoded)
            }
            ExecCode::NotBuilt => ExecCode::NotBuilt,
        };
        self.cache.tree_mut(tid).exec = exec;
    }

    /// Builds tree `tid`'s code from all its fragments, and its plans: at
    /// its first execution, so that trees loaded from a cache that never
    /// run cost nothing.
    pub(super) fn build_exec(&mut self, tid: TreeId) {
        let code = Arc::clone(&self.cache.tree(tid).code);
        let installs = self.cache.installs();
        let mut plans = std::mem::take(&mut self.cache.tree_mut(tid).plans).current(installs);
        let exec = if self.opts.native_backend {
            let sites = self.direct_sites(&code, &mut plans);
            self.emit(&code, &sites)
        } else {
            build_decoded(&code.fragments, &self.opts, &mut self.profiler.stats)
        };
        let tree = self.cache.tree_mut(tid);
        (tree.exec, tree.plans) = (exec, plans);
    }

    /// The one staleness rule of direct sites: once any tree was
    /// installed or grown since tree `tid`'s plans were built, they are
    /// built again, and when a direct site of its native code no longer
    /// matches its plan or its callee's code, the tree is emitted again,
    /// whole, as at its first run. Nothing is patched.
    pub(super) fn refresh_exec(&mut self, tid: TreeId) {
        let installs = self.cache.installs();
        let tree = self.cache.tree_mut(tid);
        let mut plans = std::mem::take(&mut tree.plans).current(installs);
        let native = match &tree.exec {
            ExecCode::Native(nt) if nt.direct_sites().iter().any(Option::is_some) => {
                Some(Arc::clone(nt))
            }
            _ => None,
        };
        if let Some(native) = native {
            let code = Arc::clone(&self.cache.tree(tid).code);
            let sites = self.direct_sites(&code, &mut plans);
            let stale = native.direct_sites().iter().enumerate().any(|(id, d)| {
                d.is_some() && d.as_ref() != sites.get(id).and_then(Option::as_ref)
            });
            if stale {
                drop(native);
                self.cache.tree_mut(tid).exec = self.emit(&code, &sites);
            }
        }
        self.cache.tree_mut(tid).plans = plans;
    }

    /// By site id, the direct site (`TransferPlan::direct_site`) of each
    /// of `code`'s nested-call sites that has one, from `plans`. A
    /// deferred site's callee has its code built first, as its first run
    /// would.
    fn direct_sites(&mut self, code: &TreeCode, plans: &mut SitePlans) -> Vec<Option<DirectSite>> {
        let mut sites = Vec::with_capacity(code.nested_sites.len());
        for (id, site) in code.nested_sites.iter().enumerate() {
            let id = id as u32;
            let plan = plans.site(id, code, &self.cache).0;
            let callees: Vec<TreeId> = plan.trees(site).filter(|_| plan.deferred()).collect();
            for tid in callees {
                if matches!(self.cache.tree(tid).exec, ExecCode::NotBuilt) {
                    self.build_exec(tid);
                }
            }
            let (plan, _) = plans.site(id, code, &self.cache);
            let direct = plan.direct_site(site, &self.cache).ok();
            let observed = self.observer.is_some();
            sites.push(direct.map(|d| DirectSite { observed, ..d }));
        }
        sites
    }

    /// `code`'s fragments as native code with `sites` direct, or decoded
    /// when the emitter refuses them.
    fn emit(&mut self, code: &TreeCode, sites: &[Option<DirectSite>]) -> ExecCode {
        let stats = &mut self.profiler.stats;
        match NativeTree::emit(&code.fragments, sites) {
            Ok(nt) => {
                stats.native_fragments += code.fragments.len() as u64;
                stats.native_emissions_sync += 1;
                ExecCode::Native(Arc::new(nt))
            }
            Err(_) => build_decoded(&code.fragments, &self.opts, stats),
        }
    }
}

/// The compile pipeline, written once for both of [`Monitor::compile`]'s
/// paths (on the execution thread, and under the pool worker's panic
/// fence): backward filters, the post-filter trace verification,
/// assembly, and the backend fragment verification. `Err` is a verifier
/// rejection; what to do with it (panic on the execution thread, fail
/// the job on a worker) is the caller's policy.
pub(crate) fn compile_trace(
    recorded: &mut RecordedTrace,
    verify_base: &[(ArSlot, LirType)],
    opts: &JitOptions,
) -> Result<Fragment, String> {
    let liveness = ExitLiveness {
        live_slots: recorded.exits.iter().map(SideExitInfo::live_slots).collect(),
    };
    run_backward_filters(&mut recorded.lir, &liveness, &recorded.loop_live);
    if opts.verify {
        // The recorder's output was already verified; what is handed to
        // the backend is re-checked so a backward-filter defect (bad id
        // compaction, dropped store an exit needs) surfaces here instead
        // of as compiled garbage.
        recorded
            .verify(verify_base)
            .map_err(|err| format!("backward filters produced a malformed trace: {err}"))?;
    }
    let frag = assemble(&recorded.lir);
    if opts.verify {
        // Backend output check: register allocation must hand both tiers
        // structurally sound code, addressing only the activation record
        // the recording laid out.
        tm_verifier::verify_fragment(&frag, recorded.layout.len())
            .map_err(|err| format!("backend produced a malformed fragment: {err}"))?;
    }
    Ok(frag)
}

/// Decodes all of `frags` for the decoded executor.
fn build_decoded(frags: &[Fragment], opts: &JitOptions, stats: &mut ProfileStats) -> ExecCode {
    let mut decoded = DecodedTree::default();
    count_fusion(decoded.append(frags, opts.enable_fusion, opts.verify), stats);
    ExecCode::Decoded(Arc::new(decoded))
}

/// The static fusion counters of newly decoded fragments.
fn count_fusion(new: &[Decoded], stats: &mut ProfileStats) {
    for d in new {
        stats.fused_superinsts += d.superinsts() as u64;
        stats.fuse_insts_removed += (d.raw_len() - d.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use tm_runtime::Realm;

    use super::*;
    use crate::blacklist::PersistedEntry;
    use crate::pool::Ticket;

    /// Hands a compile for `target` to a pool that will never report it,
    /// as when the pool shut down under it.
    fn hand_off_orphaned(m: &mut Monitor, target: Target) {
        m.in_flight.push(PendingCompile { ticket: Ticket::orphaned(), target });
        m.profiler.stats.compile_jobs_submitted += 1;
    }

    fn compile_failures(m: &Monitor) -> usize {
        let failed = |e: &&TraceEvent| {
            matches!(e, TraceEvent::RecordAbort { reason: AbortReason::CompileFailed })
        };
        m.events.events().iter().filter(failed).count()
    }

    #[test]
    fn a_failed_background_compile_is_charged_to_its_target() {
        let mut realm = Realm::new();
        let src = "var s = 0; for (var i = 0; i < 300; i++) { if (i % 3) s += 2; else s++; } s";
        let prog = tm_bytecode::compile(&tm_frontend::parse(src).unwrap(), &mut realm).unwrap();
        let header = prog.function(prog.main).loops[0].header;
        let anchor = Anchor::loop_header(prog.main, header, tm_bytecode::LoopId(0));
        let mut interp = Interp::new(prog, &mut realm);
        // A charged loop header sits out `BACKOFF` passes, silently, and
        // then records again: the loop runs long enough for both.
        let opts = JitOptions { log_events: true, ..JitOptions::default() };
        let mut m = Monitor::new(opts);
        m.ensure_slots(&interp);

        // The loop's root compile fails before its first crossing lands it.
        hand_off_orphaned(&mut m, Target::Root(anchor));
        m.run_program(&mut interp, &mut realm).expect("runs");
        let events = m.events.events();
        assert_eq!(events[0], TraceEvent::RecordAbort { reason: AbortReason::CompileFailed });
        assert_eq!(events[1], TraceEvent::RecordStartRoot { func: anchor.func, pc: anchor.pc });
        let start = (anchor.func, anchor.pc);
        let charged = PersistedEntry { start, failures: 1, blacklisted: false };
        assert_eq!(m.blacklist.export(), [charged]);
        assert_eq!(compile_failures(&m), 1);
        let tid = m.slots[anchor.func.0 as usize][0].trees[0];

        // A branch compile at the trunk's first exit fails too.
        let before = m.cache.tree(tid).exit_states[0][0].failures;
        hand_off_orphaned(&mut m, Target::Branch(tid, 0, 0));
        m.poll_compiles(false, &mut interp);
        assert_eq!(m.cache.tree(tid).exit_states[0][0].failures, before + 1);
        assert_eq!(compile_failures(&m), 2);
        assert!(m.in_flight.is_empty());

        let s = &m.profiler.stats;
        let jobs = (s.compile_jobs_submitted, s.compile_jobs_installed, s.compile_jobs_failed);
        assert_eq!(jobs, (2, 0, 2));
        assert_eq!(jobs.0, jobs.1 + jobs.2);
    }
}
