//! Nested tree calls (§4.1): the outer trace "calls the inner loop's tree
//! like a subroutine".
//!
//! Three binding lists the recorder produced meet at a call site: what the
//! outer trace has written by then (`NestedSite::callsite`), what the
//! inner tree wants on entry, and what the inner tree's expected exit
//! writes back. All three are fixed when the trees are installed, so the
//! traffic between the two activation records is worked out once, as a
//! [`TransferPlan`], and a call executes the plan: arguments go from the
//! outer record to the inner one, results come back the same way, and
//! interpreter state is touched only where neither record holds the value.
//! The words themselves are moved by [`crate::activation`].
//!
//! On the native tier a deferred plan whose callee runs native and whose
//! record-to-record moves need no heap becomes a direct site
//! ([`TransferPlan::direct_site`]): the caller's machine code makes the
//! moves and calls the callee's code itself (`tm-nanojit::x64`). The
//! host keeps three small parts of such a call ([`NestHost`]'s
//! `TreeHost` methods): the plan's interpreter variables, the finish of
//! a call that did not come back as expected (the same tail the host
//! path runs), and folding the counts of completed calls into the
//! profile exactly as the host path counts each call. The monitor
//! decides which sites are direct when it emits a caller, and emits it
//! again when a direct site's plan or callee changes.

use std::sync::Arc;

use tm_interp::Interp;
use tm_lir::{ArSlot, LirType};
use tm_nanojit::{
    DirectCounts, DirectHop, DirectSite, Link, TraceExit, TreeHost, Variables, WordFrom,
    WordMove, MAX_LINKS,
};
use tm_runtime::{Realm, RuntimeError, Unpacked};

use crate::activation::{
    export, run_moves, unboxed, write_variables, Move, SlotBinding, SlotKey, Source,
};
use crate::exit::ExitKind;
use crate::monitor::{Entered, Monitor, Ran};
use crate::profiler::Activity;
use crate::tree::{ExecCode, NestedSite, TreeCache, TreeCode, TreeId};

/// What one nested-call site does around the inner tree's run.
///
/// A site whose inner trees call no tree themselves is **deferred**: the
/// call site is not exported. Nothing reads interpreter state during such
/// a run but the plan's own interpreter-sourced moves, and those name
/// locations neither trace has written. Inner slot keys are rebased by
/// the call site's inline depth; an inlined frame has no interpreter
/// frame until an export, so each of its locations the call reads or
/// writes is one of the two records'. Type-unstable sibling links
/// (Figure 6) are followed record to record (`hops`). The export is
/// made up for whenever the call does not come back as expected. Every
/// other site is eager ([`TransferPlan::direct_site`] says why): export,
/// enter a sibling, follow its links, export, refresh from the interpreter.
#[derive(Debug)]
pub struct TransferPlan {
    /// Why the call-site export is not deferred (`None`: it is).
    eager: Option<&'static str>,
    /// Deferred only: the trees of the chain a call may start in, tried in
    /// order (the inner tree first), with that tree's entry map, filled
    /// from the outer record (the other one) or the interpreter.
    args: Vec<(usize, Vec<Move>)>,
    /// Deferred only: the sibling links from `site.inner` to
    /// `site.returns`.
    hops: Vec<Hop>,
    /// Deferred only: the variables of the inner exit's write-back that no
    /// later exit of the outer trace restores (it never wrote them).
    flush: Vec<SlotBinding>,
    /// What the outer record takes back after the expected exit: its
    /// tree's entry variables, its loop writes, the call site's variables
    /// and the site's re-imports, in that order (the last move into a
    /// slot wins), from the inner record (the other one), the outer record
    /// itself or the interpreter.
    refresh: Vec<Move>,
}

/// A type-unstable sibling link a deferred call crosses (Figure 6).
#[derive(Debug, Clone)]
struct Hop {
    /// The tree before's type-unstable exits that fill `moves` alike.
    exits: Vec<(u32, u16)>,
    /// The sibling entered, and its entry map from the record of the
    /// tree before (the other one).
    tree: TreeId,
    moves: Vec<Move>,
}

fn is_variable(b: &&SlotBinding) -> bool {
    matches!(b.key, SlotKey::Global(_) | SlotKey::Local { .. })
}

/// The binding of `list` that holds `key`.
fn held(list: &[SlotBinding], key: SlotKey) -> Option<&SlotBinding> {
    list.iter().find(|b| b.key == key)
}

/// What a tree's record holds at `exit` of what the call has changed so
/// far: the exit's write-back, and the entry slots of `changed`'s keys
/// it did not write.
fn left(code: &TreeCode, (frag, exit): (u32, u16), changed: &[SlotBinding]) -> Vec<SlotBinding> {
    let written = &code.exits[frag as usize][exit as usize].write_back;
    let kept = code.entry.iter().filter(|b| {
        held(changed, b.key).is_some() && held(written, b.key).is_none()
    });
    written.iter().chain(kept).copied().collect()
}

/// Whether a word of type `from` may convert to `to` at run time.
fn converts(from: LirType, to: LirType) -> bool {
    let number = |t| matches!(t, LirType::Int | LirType::Double);
    from == to || to == LirType::Boxed || (number(from) && number(to))
}

/// The moves into `next`'s entry map from the record `code` left `out`
/// in, unless `next` drops a changed value or lacks a source or a type.
fn hop_moves(code: &TreeCode, out: &[SlotBinding], next: &TreeCode) -> Option<Vec<Move>> {
    if !out.iter().all(|b| is_variable(&b) && held(&next.entry, b.key).is_some()) {
        return None;
    }
    let moves = next.entry.iter().map(|&to| {
        let from = held(out, to.key).or_else(|| held(&code.entry, to.key))?;
        converts(from.ty, to.ty).then_some(Move { from: Source::Other(from.ar, from.ty), to })
    });
    moves.collect()
}

/// The fewest sibling links, at most [`MAX_LINKS`], that take a call of
/// `site` from `site.inner` to `site.returns`, and what the returning
/// tree's record holds at the expected exit of what the call changed.
fn links(site: &NestedSite, cache: &TreeCache) -> Option<(Vec<Hop>, Vec<SlotBinding>)> {
    let mut paths = vec![(site.inner, Vec::new(), Vec::new())];
    for _ in 0..=MAX_LINKS {
        let mut next = Vec::new();
        for (tid, changed, hops) in paths {
            let code = &cache.tree(tid).code;
            if tid == site.returns {
                return Some((hops, left(code, site.expected_exit, &changed)));
            }
            let exits = code.exits.iter().enumerate().flat_map(|(f, exits)| {
                let links = exits.iter().enumerate().map(move |(e, x)| ((f as u32, e as u16), x));
                links.filter(|(_, x)| x.kind == ExitKind::Unstable && x.frames.len() == 1)
            });
            let exits: Vec<_> = exits.map(|(link, _)| (link, left(code, link, &changed))).collect();
            let seen = |t: TreeId| t == site.inner || hops.iter().any(|h: &Hop| h.tree == t);
            for sib in cache.iter().filter(|t| t.anchor == code.anchor && !seen(t.id)) {
                let (mut hop, mut carried) = (None::<Hop>, Vec::new());
                for (link, out) in &exits {
                    let Some(moves) = hop_moves(code, out, &sib.code) else { continue };
                    match &mut hop {
                        None => hop = Some(Hop { exits: vec![*link], tree: sib.id, moves }),
                        Some(h) if h.moves == moves => h.exits.push(*link),
                        Some(_) => continue,
                    }
                    carried.extend_from_slice(out);
                }
                if let Some(hop) = hop {
                    let mut hops = hops.clone();
                    hops.push(hop);
                    next.push((sib.id, carried, hops));
                }
            }
        }
        paths = next;
    }
    None
}

impl TransferPlan {
    /// The plan of `site`, a nested-call site of `outer`, among the trees
    /// of `cache`.
    pub fn build(outer: &TreeCode, site: &NestedSite, cache: &TreeCache) -> TransferPlan {
        let (callsite, frames) = (&site.callsite.write_back, &site.callsite.frames);
        let depth = (frames.len() - 1) as u8;
        let rebase = |b: &SlotBinding| SlotBinding { key: b.key.rebased(depth), ..*b };
        let chain = links(site, cache);
        let (linked, (mut hops, returned)) = (chain.is_some(), chain.unwrap_or_default());
        let returned: Vec<SlotBinding> = returned.iter().map(rebase).collect();
        let entry = |t: TreeId| cache.tree(t).entry.iter().map(rebase).collect::<Vec<_>>();
        // With no export, the interpreter is only known to be current in
        // its globals and the entry frame's locals: whatever else the call
        // reads or writes, one of the records has to hold.
        let in_place =
            |b: &SlotBinding| matches!(b.key, SlotKey::Global(_) | SlotKey::Local { depth: 0, .. });
        let holds = |list, b: &SlotBinding| in_place(b) || held(list, b.key).is_some();
        let trees = || std::iter::once(site.inner).chain(hops.iter().map(|h| h.tree));
        let eager = if trees().chain([site.returns]).any(|t| !cache.tree(t).nested_sites.is_empty())
        {
            Some("non-leaf callee")
        } else if !linked {
            Some("no link chain")
        } else if !(entry(site.inner).iter().all(|b| holds(callsite, b))
            && site.reimports.iter().all(|b| holds(&returned, b) || holds(callsite, b))
            && returned.iter().filter(is_variable).all(|b| holds(callsite, b)))
        {
            Some("inlined-frame location")
        } else {
            None
        };
        let deferred = eager.is_none();
        // A record is a binding's source only while the interpreter has
        // not been brought up to date with it.
        let held_in = |list: &[SlotBinding], key, record: fn(ArSlot, LirType) -> Source| {
            held(list, key).filter(|_| deferred).map(|b| record(b.ar, b.ty))
        };
        let arg = |&to: &SlotBinding| Move {
            from: held_in(callsite, to.key, Source::Other).unwrap_or(Source::Interp),
            to,
        };
        let may_convert =
            |m: &Move| !matches!(m.from, Source::Other(_, ty) if !converts(ty, m.to.ty));
        let args = trees().enumerate().filter(|_| deferred).filter_map(|(link, t)| {
            let entry = entry(t);
            let args: Vec<Move> = entry.iter().map(arg).collect();
            let taken = link == 0 || args.iter().all(may_convert);
            (taken && entry.iter().all(|b| holds(callsite, b))).then_some((link, args))
        });
        let args = args.collect();
        if !deferred {
            hops.clear();
        }
        for m in hops.iter_mut().flat_map(|h| &mut h.moves) {
            m.to = rebase(&m.to);
        }
        let mut plan =
            TransferPlan { eager, args, hops, flush: Vec::new(), refresh: Vec::new() };
        let canonical = outer
            .entry
            .iter()
            .filter(is_variable)
            .chain(&outer.loop_writes)
            .chain(callsite.iter().filter(is_variable));
        // A retyped variable is refreshed at the type the inner exit
        // leaves it, whichever list names it.
        let retype = |to: &SlotBinding| held(&site.retyped, to.key).copied().unwrap_or(*to);
        let reimports = site.reimports.iter().map(|&b| (b, true));
        for (to, reimport) in canonical.map(|b| (retype(b), false)).chain(reimports) {
            let from = match held_in(&returned, to.key, Source::Other)
                .or_else(|| held_in(callsite, to.key, Source::Own))
            {
                Some(from) => from,
                // Deferred, a canonical slot whose location neither trace
                // has written still mirrors it; a re-import slot is the
                // site's own and has to be filled.
                None if deferred && !reimport => continue,
                None => Source::Interp,
            };
            // Listed once, at its last place.
            let m = Move { from, to };
            plan.refresh.retain(|&o| o != m);
            plan.refresh.push(m);
        }
        // A double or a boxed word converted to itself neither changes nor
        // refuses: where nothing else writes its slot, the move is idle.
        let moves = plan.refresh.clone();
        plan.refresh.retain(|m| {
            m.from != Source::Own(m.to.ar, m.to.ty)
                || !matches!(m.to.ty, LirType::Double | LirType::Boxed)
                || moves.iter().filter(|o| o.to.ar == m.to.ar).count() > 1
        });
        if deferred {
            let unwritten = |b: &&SlotBinding| held(callsite, b.key).is_none();
            plan.flush = returned.iter().filter(is_variable).filter(unwritten).copied().collect();
        }
        plan
    }

    /// Whether the call-site export is deferred.
    pub fn deferred(&self) -> bool {
        self.eager.is_none()
    }

    /// The trees a call of `site` runs under this plan, in order: the
    /// inner tree, then the sibling each link enters.
    pub fn trees<'a>(&'a self, site: &NestedSite) -> impl Iterator<Item = TreeId> + 'a {
        std::iter::once(site.inner).chain(self.hops.iter().map(|h| h.tree))
    }

    /// The direct site the native tier runs calls of `site` through, or
    /// why they go through the host: the plan's eager reason, `"callee
    /// decoded"`, `"callee not built"` or `"boxed move"` ([`WordMove::lowers`]).
    pub fn direct_site(
        &self,
        site: &NestedSite,
        cache: &TreeCache,
    ) -> Result<DirectSite, &'static str> {
        if let Some(why) = self.eager {
            return Err(why);
        }
        let native = |tid: TreeId| match &cache.tree(tid).exec {
            ExecCode::Native(code) => Ok((Arc::clone(code), cache.tree(tid).layout.len())),
            ExecCode::Decoded(_) => Err("callee decoded"),
            ExecCode::NotBuilt => Err("callee not built"),
        };
        // `Other` is the outer record for an argument, the inner one for
        // a hop or refresh word.
        let words = |moves: &[Move], other: fn(ArSlot, LirType) -> WordFrom| -> Vec<WordMove> {
            let from = |m: &Move| match m.from {
                Source::Interp => WordFrom::Host,
                Source::Own(slot, ty) => WordFrom::Outer(slot, ty),
                Source::Other(slot, ty) => other(slot, ty),
            };
            moves.iter().map(|m| WordMove { from: from(m), to: m.to.ar, ty: m.to.ty }).collect()
        };
        // An exit of tree `t` with the bytecodes the host counts for it.
        let counted = |t: TreeId, (f, e): (u32, u16)| {
            let bytecodes = cache.tree(t).fragment_bytecodes.get(f as usize);
            ((f, e), bytecodes.map_or(0, |&b| u64::from(b) / 2))
        };
        let (callee, callee_ar) = native(site.inner)?;
        let mut hops = Vec::with_capacity(self.hops.len());
        for (before, h) in self.trees(site).zip(&self.hops) {
            let (callee, callee_ar) = native(h.tree)?;
            let moves = words(&h.moves, WordFrom::Inner);
            let exits = h.exits.iter().map(|&exit| counted(before, exit)).collect();
            hops.push(DirectHop { exits, callee, callee_ar, moves });
        }
        let d = DirectSite {
            callee,
            callee_ar,
            args: self.args.iter().map(|(link, a)| (*link, words(a, WordFrom::Outer))).collect(),
            hops,
            expected: counted(site.returns, site.expected_exit),
            refresh: words(&self.refresh, WordFrom::Inner),
            flush: !self.flush.is_empty(),
            observed: false,
        };
        if !d.moves().all(WordMove::lowers) {
            return Err("boxed move");
        }
        Ok(d)
    }

    /// How many of the plan's moves read the outer activation record, an
    /// inner one, and interpreter state.
    pub fn sources(&self) -> (usize, usize, usize) {
        let hops = self.hops.iter().map(|h| h.moves.len()).sum::<usize>();
        let args = self.args.iter().flat_map(|(_, a)| a);
        let all = args.clone().count() + hops + self.refresh.len();
        let interp = args.chain(&self.refresh).filter(|m| m.from == Source::Interp).count();
        let inner = self.refresh.iter().filter(|m| matches!(m.from, Source::Other(..))).count();
        (all - hops - inner - interp, hops + inner, interp)
    }
}

/// Test support: a line for every nested call's return and link, from the
/// host path and machine code alike; unset, machine code pays nothing.
pub type NestObserver = std::sync::mpsc::Sender<String>;

/// The words `moves` wrote into `ar`.
fn written(moves: &[Move], ar: &[u64]) -> String {
    let word = |m: &Move| format!("{:#x}", ar.get(m.to.ar as usize).copied().unwrap_or_default());
    moves.iter().map(word).collect::<Vec<_>>().join(" ")
}

/// One tree's transfer plans, by nested-site id: built at a site's first
/// call and dropped when any tree of the realm is installed or grown —
/// the inner tree gaining a branch re-unions its exits' write-backs,
/// gaining a nested site makes it a caller itself.
#[derive(Debug, Default)]
pub struct SitePlans {
    installs: u64,
    sites: Vec<Option<TransferPlan>>,
    /// Scratch of [`run_moves`].
    words: Vec<u64>,
}

impl SitePlans {
    /// These plans if they were built at `installs`, else none.
    pub(crate) fn current(mut self, installs: u64) -> SitePlans {
        if self.installs != installs {
            self.installs = installs;
            self.sites.clear();
        }
        self
    }

    /// The `installs` these plans were built at.
    pub(crate) fn installs(&self) -> u64 {
        self.installs
    }

    /// The plan of site `id`, built on first use.
    pub(crate) fn site(
        &mut self,
        id: u32,
        outer: &TreeCode,
        cache: &TreeCache,
    ) -> (&TransferPlan, &mut Vec<u64>) {
        if self.sites.len() < outer.nested_sites.len() {
            self.sites.resize_with(outer.nested_sites.len(), || None);
        }
        let plan = self.sites[id as usize].get_or_insert_with(|| {
            TransferPlan::build(outer, &outer.nested_sites[id as usize], cache)
        });
        (plan, &mut self.words)
    }

    /// The plan of site `id`, if it was built.
    fn built(&self, id: u32) -> Option<&TransferPlan> {
        self.sites.get(id as usize)?.as_ref()
    }
}

/// The nesting host: executes inner trees on behalf of `CallTree`
/// instructions in outer traces, and the host's part of the direct calls
/// the native tier makes itself (`tm-nanojit::x64::DirectSite`).
pub(crate) struct NestHost<'a> {
    pub(crate) monitor: &'a mut Monitor,
    pub(crate) interp: &'a mut Interp,
    /// The running outer tree's code, as taken at its entry.
    pub(crate) outer: &'a TreeCode,
    pub(crate) plans: &'a mut SitePlans,
    /// The interpreter frame the outer tree was entered in.
    pub(crate) frame: usize,
    /// The exit `(tree, fragment, exit)` the last call's inner tree took
    /// where its site expected another: the branch §4.1 grows once the
    /// outer trace has left through its `NestedUnexpected` exit.
    pub(crate) unexpected: Option<(TreeId, u32, u16)>,
}

impl TreeHost for NestHost<'_> {
    fn call_tree(
        &mut self,
        site_id: u32,
        ar: &mut [u64],
        realm: &mut Realm,
    ) -> Result<bool, RuntimeError> {
        self.unexpected = None;
        // Figure 12: the plan's marshalling is the monitor's time; the
        // inner run and what the outer trace does next are native time.
        self.monitor.profiler.switch(Activity::Monitor);
        let returned = self.call_site(site_id, ar, realm);
        self.monitor.profiler.switch(Activity::Native);
        returned
    }

    /// Interpreter variables only: no monitor, no activation-record pool.
    fn variables(
        &mut self,
        site_id: u32,
        part: Variables,
        link: usize,
        inner: &mut [u64],
        staged: &mut [u64],
        realm: &mut Realm,
    ) -> bool {
        let Some(plan) = self.plans.built(site_id) else { return false };
        let (interp, frame) = (&mut *self.interp, self.frame);
        let read = |m: &Move, slot: Option<&mut u64>| {
            let w = unboxed(interp, realm, frame, &m.to);
            w.zip(slot).map(|(w, slot)| *slot = w).is_some()
        };
        let from_interp = |m: &&Move| m.from == Source::Interp;
        match part {
            Variables::Args => {
                let args = plan.args.iter().find(|&&(l, _)| l == link);
                let mut moves = args.into_iter().flat_map(|(_, a)| a).filter(from_interp);
                moves.all(|m| read(m, inner.get_mut(m.to.ar as usize)))
            }
            Variables::Refresh => {
                let mut moves = plan.refresh.iter().enumerate();
                moves.all(|(i, m)| m.from != Source::Interp || read(m, staged.get_mut(i)))
            }
            Variables::Flush => {
                write_variables(&plan.flush, inner, frame, interp, realm);
                true
            }
        }
    }

    fn finish_call(
        &mut self,
        site_id: u32,
        link: usize,
        ar: &mut [u64],
        inner: &[u64],
        exit: Option<TraceExit>,
        realm: &mut Realm,
    ) -> Result<bool, RuntimeError> {
        self.unexpected = None;
        self.monitor.profiler.switch(Activity::Monitor);
        let returned = self.finish_direct(site_id, link, ar, inner, exit, realm);
        self.monitor.profiler.switch(Activity::Native);
        returned
    }

    /// Each run of a direct call's tree that went on counts what
    /// `call_site` and the tree's `run_entered` would have.
    fn fold(&mut self, counts: &mut [DirectCounts]) -> u64 {
        let NestHost { monitor, interp, outer, plans, .. } = self;
        for (id, (site, c)) in outer.nested_sites.iter().zip(counts).enumerate() {
            let c = std::mem::take(c);
            let ran = c.runs.iter().any(|&n| n > 0);
            let Some(plan) = plans.built(id as u32).filter(|_| ran) else { continue };
            let calls = c.runs[plan.hops.len()];
            let runs = plan.trees(site).zip(c.runs.iter().zip(c.iterations));
            for (tid, (&runs, iterations)) in runs {
                let Some(callee) = monitor.cache.get_mut(tid) else { continue };
                callee.stats.iterations += iterations;
                let trunk = callee.fragment_bytecodes.first().map_or(0, |&b| u64::from(b));
                let s = &mut monitor.profiler.stats;
                s.bytecodes_native += iterations * trunk;
                for n in [&mut s.trace_enters, &mut s.native_exits, &mut s.side_exits] {
                    *n += runs;
                }
            }
            let s = &mut monitor.profiler.stats;
            s.bytecodes_native += c.bytecodes;
            s.native_insts += c.insts;
            for n in [&mut s.nested_calls, &mut s.nested_deferred, &mut s.nested_direct] {
                *n += calls;
            }
            interp.steps_remaining = interp.steps_remaining.saturating_sub(c.insts);
        }
        interp.steps_remaining
    }

    fn observe(
        &mut self,
        site_id: u32,
        link: Option<Link>,
        ar: &[u64],
        inner: &[u64],
        realm: &mut Realm,
    ) {
        let site = &self.outer.nested_sites[site_id as usize];
        let Some((link, exit)) = link else {
            let (tid, exit) = (site.returns, site.expected_exit);
            return self.observe_return(site_id, (tid, exit.0, exit.1), true, ar, realm);
        };
        let hop = self.plans.built(site_id).and_then(|p| p.hops.get(link));
        if let (Some(o), Some(hop)) = (&self.monitor.observer, hop) {
            let _ = o.send(hop_line(site_id, link, exit, hop, inner));
        }
    }
}

impl NestHost<'_> {
    fn call_site(
        &mut self,
        site_id: u32,
        outer_ar: &mut [u64],
        realm: &mut Realm,
    ) -> Result<bool, RuntimeError> {
        let (outer, frame) = (self.outer, self.frame);
        let site = &outer.nested_sites[site_id as usize];
        let inner_frame = frame + site.callsite.frames.len() - 1;
        let (plan, words) = self.plans.site(site_id, outer, &self.monitor.cache);
        let (monitor, interp) = (&mut *self.monitor, &mut *self.interp);
        let deferred = plan.deferred();
        monitor.profiler.stats.nested_calls += 1;
        monitor.profiler.stats.nested_deferred += u64::from(deferred);
        let mut start = 0;
        let entered = if deferred {
            plan.args.iter().find_map(|(link, args)| {
                let tid = plan.trees(site).nth(*link)?;
                let code = Arc::clone(&monitor.cache.tree(tid).code);
                let ar = monitor.ars.take(code.layout.len());
                let mut inner = Entered { tid, ar, code, frame: inner_frame };
                if run_moves(args, &mut inner.ar, outer_ar, interp, realm, frame, words) {
                    start = *link;
                    return Some(inner);
                }
                monitor.ars.give(inner.ar);
                None
            })
        } else {
            // From interpreter state, the call enters whichever sibling
            // accepts it, as a monitor run does.
            export(&site.callsite, outer_ar, frame, interp, realm);
            let anchor = monitor.cache.tree(site.inner).anchor;
            monitor.enter_sibling(anchor, None, true, interp, realm)
        };
        let Some(mut inner) = entered else {
            // The interpreter is left at the call site.
            if deferred {
                export(&site.callsite, outer_ar, frame, interp, realm);
            }
            return Ok(false);
        };
        let mut hops = plan.hops.iter().enumerate().skip(start);
        let ran = loop {
            let ran = match monitor.run_entered(&mut inner, interp, realm) {
                Ok(ran) => ran,
                Err(e) => {
                    // A helper of an inner tree raised.
                    if deferred {
                        export(&site.callsite, outer_ar, frame, interp, realm);
                    }
                    monitor.ars.give(inner.ar);
                    return Err(e);
                }
            };
            // Figure 6 inside the call: deferred, the planned link moves
            // the record on to the next tree; eager, a type-unstable exit
            // goes on in the sibling its state enters, as in a monitor run.
            let next = if deferred {
                let exit = (ran.frag, ran.exit);
                let hop = hops.next().filter(|(_, h)| !ran.out_of_fuel && h.exits.contains(&exit));
                hop.and_then(|(link, hop)| {
                    let code = Arc::clone(&monitor.cache.tree(hop.tree).code);
                    let ar = monitor.ars.take(code.layout.len());
                    let mut next = Entered { tid: hop.tree, ar, code, frame: inner_frame };
                    if run_moves(&hop.moves, &mut next.ar, &inner.ar, interp, realm, frame, words) {
                        if let Some(o) = &monitor.observer {
                            let _ = o.send(hop_line(site_id, link, exit, hop, &next.ar));
                        }
                        return Some(next);
                    }
                    monitor.ars.give(next.ar);
                    None
                })
            } else if monitor.settle(&inner.code, &inner.ar, inner.frame, &ran, interp, realm)?
                == ExitKind::Unstable
            {
                let (anchor, from) = (inner.code.anchor, Some(inner.tid));
                monitor.enter_sibling(anchor, from, true, interp, realm)
            } else {
                None
            };
            match next {
                Some(next) => monitor.ars.give(std::mem::replace(&mut inner, next).ar),
                None => break ran,
            }
        };
        let callee = (inner.tid, &*inner.code, &inner.ar[..], inner.frame);
        let returned = self.returned(site_id, callee, &ran, outer_ar, realm);
        self.monitor.ars.give(inner.ar);
        returned
    }

    /// A direct call of site `site_id` that did not come back as expected
    /// from tree `link` of its plan (`exit` is `None` when a helper raised):
    /// what `call_site` and `run_entered` count, then `call_site`'s tail.
    fn finish_direct(
        &mut self,
        site_id: u32,
        link: usize,
        outer_ar: &mut [u64],
        inner_ar: &[u64],
        exit: Option<TraceExit>,
        realm: &mut Realm,
    ) -> Result<bool, RuntimeError> {
        let (outer, frame) = (self.outer, self.frame);
        let site = outer.nested_sites.get(site_id as usize);
        let site = site.ok_or_else(|| RuntimeError::Other("direct call at no site".into()))?;
        let tid = self.plans.built(site_id).and_then(|p| p.trees(site).nth(link));
        let tid = tid.ok_or_else(|| RuntimeError::Other("direct call of no tree".into()))?;
        let monitor = &mut *self.monitor;
        let s = &mut monitor.profiler.stats;
        let counted = [&mut s.trace_enters, &mut s.nested_calls, &mut s.nested_deferred];
        for n in counted.into_iter().chain([&mut s.native_exits]) {
            *n += 1;
        }
        let Some(exit) = exit else {
            export(&site.callsite, outer_ar, frame, self.interp, realm);
            return Ok(false);
        };
        let code = Arc::clone(&monitor.cache.tree(tid).code);
        let ran = monitor.account(tid, &code, &exit, None, self.interp);
        let inner_frame = frame + site.callsite.frames.len() - 1;
        self.returned(site_id, (tid, &code, inner_ar, inner_frame), &ran, outer_ar, realm)
    }

    /// What a call does once its last inner tree `callee` (its id, code,
    /// record and frame) has run: §4.1's guard on its exit, the refresh
    /// and, deferred, the flush — or the exports the call put off.
    fn returned(
        &mut self,
        site_id: u32,
        callee: (TreeId, &TreeCode, &[u64], usize),
        ran: &Ran,
        outer_ar: &mut [u64],
        realm: &mut Realm,
    ) -> Result<bool, RuntimeError> {
        let NestHost { monitor, interp, outer, plans, frame, unexpected } = self;
        let (tid, code, inner_ar, inner_frame) = callee;
        let site = &outer.nested_sites[site_id as usize];
        let (plan, words) = plans.site(site_id, outer, &monitor.cache);
        // §4.1: "we must guard on it after the call, and side exit if the
        // property does not hold."
        let expected =
            !ran.out_of_fuel && tid == site.returns && (ran.frag, ran.exit) == site.expected_exit;
        if !expected {
            *unexpected = Some((tid, ran.frag, ran.exit));
        }
        let returned =
            expected && run_moves(&plan.refresh, outer_ar, inner_ar, interp, realm, *frame, words);
        if plan.deferred() {
            if returned {
                // No collection here: the outer trace's roots are in its
                // record. `gc_pending` stays set and its loop edge exits
                // to the monitor.
                write_variables(&plan.flush, inner_ar, *frame, interp, realm);
            } else {
                // The outer trace's `NestedUnexpected` exit restores
                // nothing: leave the interpreter where the eager sequence
                // would have, call site first, then the inner exit.
                export(&site.callsite, outer_ar, *frame, interp, realm);
                monitor.settle(code, inner_ar, inner_frame, ran, interp, realm)?;
            }
        }
        self.observe_return(site_id, (tid, ran.frag, ran.exit), returned, outer_ar, realm);
        Ok(returned)
    }

    /// Hands the observer, if any, the state a call of site `site_id`
    /// left after `(tree, fragment, exit)`: the words the refresh writes
    /// in the outer record, and the globals the plan moves.
    fn observe_return(
        &mut self,
        site_id: u32,
        (tid, frag, exit): (TreeId, u32, u16),
        returned: bool,
        outer_ar: &[u64],
        realm: &mut Realm,
    ) {
        let Some(o) = &self.monitor.observer else { return };
        let Some(plan) = self.plans.built(site_id) else { return };
        let args = plan.args.iter().flat_map(|(_, a)| a);
        let bindings = args.chain(&plan.refresh).map(|m| m.to).chain(plan.flush.clone());
        let realm = &*realm;
        let global = |b: SlotBinding| match b.key {
            SlotKey::Global(g) => Some(match realm.global(g).unpack() {
                Unpacked::Double(d) => format!("g{g}={:#x}", realm.heap.double(d).to_bits()),
                v => format!("g{g}={v:?}"),
            }),
            _ => None,
        };
        let globals = bindings.filter_map(global).collect::<Vec<_>>().join(" ");
        let words = written(&plan.refresh, outer_ar);
        let _ = o.send(format!(
            "site {site_id}: tree {} exit {frag}.{exit} returned {returned}: {words} | {globals}",
            tid.0
        ));
    }
}

/// The observer's line for link `link` of a call of site `site_id`.
fn hop_line(site_id: u32, link: usize, exit: (u32, u16), hop: &Hop, next_ar: &[u64]) -> String {
    let (words, (frag, exit)) = (written(&hop.moves, next_ar), exit);
    format!("site {site_id} link {link}: exit {frag}.{exit} -> tree {}: {words}", hop.tree.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{box_from_word, import, ArLayout};
    use crate::exit::{ExitKind, FrameDesc, SideExitInfo};
    use crate::shared_cache::entry_digest;
    use crate::tree::{Anchor, TraceTree};
    use tm_runtime::{Unpacked, Value};
    use tm_support::prop::{self, Config};
    use tm_support::{prop_assert, prop_assert_eq, TmRng};

    const TYPES: [LirType; 8] = [
        LirType::Int,
        LirType::Double,
        LirType::Object,
        LirType::String,
        LirType::Bool,
        LirType::Null,
        LirType::Undefined,
        LirType::Boxed,
    ];
    const NVARS: u16 = 6;

    /// Two trees that meet at a call site, the two activation records, and
    /// an interpreter stopped in a function of `NVARS` locals with `NVARS`
    /// globals: everything drawn from one seed, so that two builds are
    /// one state twice.
    struct Case {
        realm: Realm,
        interp: Interp,
        globals: Vec<u32>,
        outer: TreeCode,
        inner: TreeCode,
        outer_ar: Vec<u64>,
        /// What the inner tree's run leaves in its record.
        inner_exit_words: Vec<u64>,
        /// A later exit of the outer trace: what makes deferred state
        /// observable.
        later: SideExitInfo,
        /// The type each outer slot holds once the call has returned.
        outer_types: Vec<LirType>,
        /// The call site's inline depth: the inner tree's frame.
        depth: usize,
    }

    /// A word a slot of type `ty` can hold; the integers and doubles lean
    /// on the edges where the two numeric types refuse each other.
    fn word(g: &mut TmRng, realm: &mut Realm, handles: (u64, u64), ty: LirType) -> u64 {
        use tm_runtime::value::{INT_MAX, INT_MIN};
        let ints = [INT_MAX + 1, INT_MIN - 1, INT_MAX, INT_MIN, 0, 1, -1, 7];
        let doubles = [-0.0, (INT_MAX + 1) as f64, 1e300, f64::NAN, 0.5, 0.0, 3.0, -4.0];
        // The first few of each refuse the other numeric type.
        let edge = |g: &mut TmRng| match g.gen_bool(0.05) {
            true => g.gen_range(0usize..8),
            false => 5 + g.gen_range(0usize..3),
        };
        match ty {
            LirType::Int => ints[edge(g)] as u64,
            LirType::Double => doubles[edge(g)].to_bits(),
            LirType::Object => handles.0,
            LirType::String => handles.1,
            LirType::Bool => g.below(2),
            LirType::Null => Value::NULL.raw(),
            LirType::Undefined => Value::UNDEFINED.raw(),
            LirType::Boxed => {
                let of = TYPES[g.gen_range(0usize..7)];
                let w = word(g, realm, handles, of);
                box_from_word(realm, w, of).raw()
            }
        }
    }

    fn any_type(g: &mut TmRng) -> LirType {
        // Mostly numbers: that is where conversions happen.
        if g.gen_bool(0.7) {
            [LirType::Int, LirType::Double][g.gen_range(0usize..2)]
        } else {
            TYPES[g.gen_range(0usize..TYPES.len())]
        }
    }

    fn exit(kind: ExitKind, func: tm_bytecode::FuncId, stack_depth: u16) -> SideExitInfo {
        SideExitInfo {
            kind,
            frames: vec![FrameDesc {
                func,
                resume_pc: 1,
                stack_depth,
                is_construct: false,
                callee_raw: 0,
            }],
            write_back: vec![],
            oracle_hint: vec![],
            typemap: vec![],
            arith_site: None,
        }
    }

    fn tree(
        anchor: Anchor,
        layout: ArLayout,
        entry: Vec<SlotBinding>,
        exits: Vec<SideExitInfo>,
    ) -> TreeCode {
        TreeCode {
            anchor,
            digest: entry_digest(anchor, &entry),
            layout,
            fragments: Arc::new(vec![]),
            fragment_bytecodes: vec![],
            exits: vec![exits],
            entry,
            nested_sites: vec![],
            loop_writes: vec![],
            unstable: false,
        }
    }

    fn case(seed: u64) -> Case {
        let g = &mut TmRng::seed_from_u64(seed);
        // A call site in the entry frame, or in a frame inlined into it
        // (the same function): the inner tree's keys are then that
        // frame's, and only the call site's write-back holds its locals.
        let depth = g.below(2) as u8;
        let (to_inner, to_outer) = (|k: SlotKey| unrebased(k, depth), |k: SlotKey| k.rebased(depth));
        let mut realm = Realm::new();
        let names: Vec<String> = (0..NVARS).map(|i| format!("g{i}")).collect();
        let params: Vec<String> = (1..NVARS).map(|i| format!("p{i}")).collect();
        let src =
            format!("function f({}) {{ return 0; }} var {};", params.join(", "), names.join(", "));
        let prog = tm_bytecode::compile(&tm_frontend::parse(&src).unwrap(), &mut realm).unwrap();
        let func = prog.functions.iter().position(|f| f.nlocals == NVARS).expect("this + params");
        let func = tm_bytecode::FuncId(func as u32);
        let anchor = Anchor::loop_header(func, 0, tm_bytecode::LoopId(0));
        let mut interp = Interp::new(prog, &mut realm);
        interp.frames[0].func = func;
        interp.stack.resize(NVARS as usize, Value::UNDEFINED);
        let globals: Vec<u32> = names.iter().map(|n| realm.lookup_global(n).unwrap()).collect();
        let object = realm.heap.alloc_object(tm_runtime::Object::new_plain(None));
        let string = realm.heap.alloc_string("s").as_string().unwrap();
        let handles = (u64::from(object.0), u64::from(string.0));

        // The variables, holding values of any type.
        let variables: Vec<SlotKey> = (0..NVARS)
            .flat_map(|i| {
                [SlotKey::Global(globals[i as usize]), SlotKey::Local { depth: 0, slot: i }]
            })
            .collect();
        let mut observed = Vec::new();
        for (i, &key) in variables.iter().enumerate() {
            let ty = TYPES[g.gen_range(0usize..7)];
            let w = word(g, &mut realm, handles, ty);
            let v = box_from_word(&mut realm, w, ty);
            match key {
                SlotKey::Global(global) => realm.set_global(global, v),
                _ => interp.stack[i / 2] = v,
            }
            observed.push(crate::activation::observed_type(v));
        }
        let subset = |g: &mut TmRng, p: f64| -> Vec<usize> {
            (0..variables.len()).filter(|_| g.gen_bool(p)).collect()
        };
        // The variables the inner tree sees, as the outer trace names
        // them: the globals, and the locals of the call site's frame.
        let inner_vars: Vec<SlotKey> = variables
            .iter()
            .map(|&k| if matches!(k, SlotKey::Local { .. }) { to_outer(k) } else { k })
            .collect();

        // The outer tree: entry slots hold what the interpreter holds (an
        // integer sometimes widened), written slots whatever the trace put
        // there, at types that need not agree from list to list.
        let mut layout = ArLayout::new();
        let bind = |layout: &mut ArLayout, key, ty| SlotBinding { ar: layout.slot(key), key, ty };
        let entry: Vec<SlotBinding> = subset(g, 0.6)
            .into_iter()
            .map(|i| {
                let widen = observed[i] == LirType::Int && g.gen_bool(0.3);
                bind(&mut layout, variables[i], if widen { LirType::Double } else { observed[i] })
            })
            .collect();
        let loop_writes: Vec<SlotBinding> = subset(g, 0.3)
            .into_iter()
            .map(|i| {
                let ty = match held(&entry, variables[i]) {
                    Some(b) if g.gen_bool(0.95) => b.ty,
                    _ => any_type(g),
                };
                bind(&mut layout, variables[i], ty)
            })
            .collect();
        let mut written: Vec<SlotBinding> = loop_writes
            .iter()
            .map(|b| if g.gen_bool(0.97) { *b } else { SlotBinding { ty: any_type(g), ..*b } })
            .collect();
        for i in subset(g, 0.4) {
            if held(&written, variables[i]).is_none() {
                let ty = match held(&entry, variables[i]) {
                    Some(b) if g.gen_bool(0.95) => b.ty,
                    _ => any_type(g),
                };
                written.push(bind(&mut layout, variables[i], ty));
            }
        }
        let outer_depth = g.below(3) as u16;
        for idx in 0..outer_depth {
            written.push(bind(&mut layout, SlotKey::Stack { depth: 0, idx }, any_type(g)));
        }
        // An inlined frame's locals are all written at the inline call.
        for &key in inner_vars.iter().filter(|k| depth > 0 && matches!(k, SlotKey::Local { .. })) {
            written.push(bind(&mut layout, key, TYPES[g.gen_range(0usize..7)]));
        }
        let inner_depth = g.below(3) as u16;
        let mut callsite = exit(ExitKind::NestedUnexpected, func, outer_depth);
        if depth > 0 {
            callsite.frames.push(FrameDesc { callee_raw: Value::new_int(77).raw(), ..callsite.frames[0] });
            callsite.frames[1].stack_depth = 0;
        }
        callsite.write_back = written;

        // The inner tree: wants and returns what it likes.
        let mut inner_layout = ArLayout::new();
        let inner_entry: Vec<SlotBinding> = subset(g, 0.4)
            .into_iter()
            .map(|i| {
                // Usually the type the value has, so that calls go through.
                let ty = if g.gen_bool(0.95) {
                    held(&callsite.write_back, inner_vars[i]).map_or(observed[i], |b| b.ty)
                } else {
                    any_type(g)
                };
                bind(&mut inner_layout, to_inner(inner_vars[i]), ty)
            })
            .collect();
        let mut expected = exit(ExitKind::LeaveLoop, func, inner_depth);
        for i in subset(g, 0.4) {
            // Usually at the type the outer trace holds the variable at.
            let ty = if g.gen_bool(0.95) {
                held(&callsite.write_back, inner_vars[i])
                    .or_else(|| held(&entry, inner_vars[i]))
                    .map_or_else(|| any_type(g), |b| b.ty)
            } else {
                any_type(g)
            };
            expected.write_back.push(bind(&mut inner_layout, to_inner(inner_vars[i]), ty));
        }
        for idx in 0..inner_depth {
            let key = SlotKey::Stack { depth: 0, idx };
            expected.write_back.push(bind(&mut inner_layout, key, any_type(g)));
        }
        let mut inner_exit_words = vec![0u64; inner_layout.len()];
        for b in &expected.write_back {
            inner_exit_words[b.ar as usize] = word(g, &mut realm, handles, b.ty);
        }
        // What the outer trace reads again after the call, usually at
        // the type it will find.
        let mut reimports = Vec::new();
        let keys = subset(g, 0.3).into_iter().map(|i| inner_vars[i]);
        let keys = keys.chain((0..inner_depth).map(|idx| to_outer(SlotKey::Stack { depth: 0, idx })));
        for (n, key) in keys.enumerate() {
            let found = held(&expected.write_back, to_inner(key))
                .or_else(|| held(&callsite.write_back, key))
                .or_else(|| held(&entry, key));
            let ty = match found {
                Some(b) if g.gen_bool(0.95) => b.ty,
                _ => any_type(g),
            };
            let slot = SlotKey::Reimport { site: 0, idx: n as u16 };
            reimports.push(SlotBinding { ar: layout.slot(slot), key, ty });
        }
        let mut outer_ar = vec![0u64; layout.len()];
        assert!(import(&entry, &interp, &realm, 0, &mut outer_ar), "entry types were observed");
        let mut outer_types = vec![LirType::Int; layout.len()];
        for b in entry.iter().chain(&callsite.write_back) {
            outer_types[b.ar as usize] = b.ty;
        }
        for b in &callsite.write_back {
            outer_ar[b.ar as usize] = word(g, &mut realm, handles, b.ty);
        }
        let mut later = exit(ExitKind::Branch, func, outer_depth);
        later.frames = callsite.frames.clone();
        later.write_back = callsite.write_back.clone();
        let mut inner = tree(anchor, inner_layout, inner_entry, vec![expected]);
        let site = NestedSite {
            inner: TreeId(0),
            returns: TreeId(0),
            expected_exit: (0, 0),
            reimports,
            retyped: vec![],
            callsite,
            callsite_exit: 0,
        };
        if g.gen_bool(0.2) {
            // A caller itself: not a tree to defer the export for.
            inner.nested_sites.push(site.clone());
        }
        let mut outer = tree(anchor, layout, entry, vec![]);
        outer.loop_writes = loop_writes;
        for b in outer.loop_writes.iter().chain(&site.reimports) {
            outer_types[b.ar as usize] = b.ty;
        }
        for b in site.callsite.write_back.iter().filter(is_variable) {
            outer_types[b.ar as usize] = b.ty;
        }
        outer.nested_sites.push(site);
        Case {
            realm,
            interp,
            globals,
            outer,
            inner,
            outer_ar,
            inner_exit_words,
            later,
            outer_types,
            depth: usize::from(depth),
        }
    }

    /// `key` of the outer trace, as a tree entered `depth` frames below
    /// its entry frame names it.
    fn unrebased(key: SlotKey, depth: u8) -> SlotKey {
        match key {
            SlotKey::Local { depth: d, slot } => SlotKey::Local { depth: d - depth, slot },
            SlotKey::Stack { depth: d, idx } => SlotKey::Stack { depth: d - depth, idx },
            other => other,
        }
    }

    /// How far a call got.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        ArgumentRefused,
        RefreshRefused,
        Returned,
    }

    /// Interpreter state as a program could see it.
    fn visible(c: &mut Case) -> Vec<String> {
        let values = c.globals.iter().map(|&g| c.realm.global(g)).chain(c.interp.stack.clone());
        let mut shown: Vec<String> =
            values.collect::<Vec<_>>().into_iter().map(|v| shown_value(&mut c.realm, v)).collect();
        shown.push(format!("{:?}", c.interp.frames));
        shown
    }

    fn shown_value(realm: &mut Realm, v: Value) -> String {
        match v.unpack() {
            // `-0` and `NaN` payloads included.
            Unpacked::Double(d) => format!("double {:#x}", realm.heap.double(d).to_bits()),
            other => format!("{other:?}"),
        }
    }

    /// The sequence a plan replaces: everything through the interpreter.
    fn reference(c: &mut Case) -> Outcome {
        let Case { realm, interp, outer, inner, outer_ar, depth, .. } = c;
        let site = &outer.nested_sites[0];
        export(&site.callsite, outer_ar, 0, interp, realm);
        let mut inner_ar = vec![0u64; inner.layout.len()];
        if !import(&inner.entry, interp, realm, *depth, &mut inner_ar) {
            return Outcome::ArgumentRefused;
        }
        inner_ar.copy_from_slice(&c.inner_exit_words);
        export(&inner.exits[0][0], &inner_ar, *depth, interp, realm);
        let refresh = outer
            .entry
            .iter()
            .filter(is_variable)
            .chain(&outer.loop_writes)
            .chain(site.callsite.write_back.iter().filter(is_variable))
            .chain(&site.reimports);
        if import(refresh, interp, realm, 0, outer_ar) {
            Outcome::Returned
        } else {
            Outcome::RefreshRefused
        }
    }

    /// `NestHost::call_site` with the inner tree's run replaced by its
    /// effect on the inner record.
    fn planned(c: &mut Case, plan: &TransferPlan) -> Outcome {
        let Case { realm, interp, outer, inner, outer_ar, depth, .. } = c;
        let (site, depth) = (&outer.nested_sites[0], *depth);
        if !plan.deferred() {
            export(&site.callsite, outer_ar, 0, interp, realm);
        }
        let (mut inner_ar, words) = (vec![0u64; inner.layout.len()], &mut Vec::new());
        // An eager call enters the inner tree from interpreter state.
        let loaded = match plan.deferred() {
            true => run_moves(&plan.args[0].1, &mut inner_ar, outer_ar, interp, realm, 0, words),
            false => import(&inner.entry, interp, realm, depth, &mut inner_ar),
        };
        if !loaded {
            if plan.deferred() {
                export(&site.callsite, outer_ar, 0, interp, realm);
            }
            return Outcome::ArgumentRefused;
        }
        inner_ar.copy_from_slice(&c.inner_exit_words);
        if !plan.deferred() {
            export(&inner.exits[0][0], &inner_ar, depth, interp, realm);
        }
        let returned = run_moves(&plan.refresh, outer_ar, &inner_ar, interp, realm, 0, words);
        if plan.deferred() {
            if returned {
                write_variables(&plan.flush, &inner_ar, 0, interp, realm);
            } else {
                export(&site.callsite, outer_ar, 0, interp, realm);
                export(&inner.exits[0][0], &inner_ar, depth, interp, realm);
            }
        }
        if returned {
            Outcome::Returned
        } else {
            Outcome::RefreshRefused
        }
    }

    #[test]
    fn a_plan_leaves_what_the_round_trip_through_the_interpreter_leaves() {
        let (mut deferred, mut eager, mut refused, mut inlined) = (0, 0, 0, 0);
        prop::check("nest_plan_matches_reference", &Config::with_cases(2000), |g| {
            let seed = g.next_u64();
            let (mut a, mut b) = (case(seed), case(seed));
            let site = &b.outer.nested_sites[0];
            let mut cache = TreeCache::new();
            cache.insert(TraceTree::new(Arc::new(b.inner.clone())));
            let plan = TransferPlan::build(&b.outer, site, &cache);
            prop_assert_eq!(plan.deferred(), b.inner.nested_sites.is_empty());
            let (want, got) = (reference(&mut a), planned(&mut b, &plan));
            prop_assert_eq!(&want, &got);
            if want == Outcome::Returned {
                // The outer trace runs on from its record...
                for (slot, &ty) in a.outer_types.clone().iter().enumerate() {
                    let (wa, wb) = (a.outer_ar[slot], b.outer_ar[slot]);
                    let (sa, sb) = match ty {
                        LirType::Boxed => (
                            shown_value(&mut a.realm, Value::from_raw(wa)),
                            shown_value(&mut b.realm, Value::from_raw(wb)),
                        ),
                        _ => (format!("{wa:#x}"), format!("{wb:#x}")),
                    };
                    prop_assert!(sa == sb, "outer slot {slot} ({ty:?}): {sa} vs {sb}\n{plan:#?}");
                }
                // ... and at its next exit the interpreter sees the call.
                let (later_a, later_b) = (a.later.clone(), b.later.clone());
                export(&later_a, &a.outer_ar, 0, &mut a.interp, &mut a.realm);
                export(&later_b, &b.outer_ar, 0, &mut b.interp, &mut b.realm);
                *if plan.deferred() { &mut deferred } else { &mut eager } += 1;
                inlined += u32::from(plan.deferred() && a.depth > 0);
            } else {
                refused += 1;
            }
            let (va, vb) = (visible(&mut a), visible(&mut b));
            prop_assert!(va == vb, "{want:?}:\n{va:?}\n{vb:?}\n{plan:#?}");
            Ok(())
        });
        if std::env::var_os("TM_PROP_SEED").is_none() {
            let counts = format!("{deferred} {eager} {refused} {inlined}");
            assert!(deferred > 200 && eager > 50 && refused > 200 && inlined > 100, "{counts}");
        }
    }

    #[test]
    fn a_plan_names_each_moved_binding_once() {
        // `g` is written by both loops and read after the inner one; `n`
        // only read by the inner loop: one binding the interpreter keeps.
        let mut vm = crate::vm::Vm::new(crate::vm::Engine::Tracing);
        vm.eval(
            "var g = 0; var n = 3;
             for (var i = 0; i < 50; i++) { g += 1; for (var j = 0; j < n; j++) g += j; g += 2; }",
        )
        .unwrap();
        let m = vm.monitor().unwrap();
        let outer = m.cache.iter().find(|t| !t.nested_sites.is_empty()).expect("a nest");
        let site = &outer.nested_sites[0];
        let plan = TransferPlan::build(outer, site, &m.cache);
        assert!(plan.deferred());
        let n = SlotKey::Global(vm.realm.lookup_global("n").unwrap());
        assert_eq!(plan.args.len(), 1, "no links: {plan:#?}");
        assert!(plan.args[0].1.iter().any(|m| m.to.key == n && m.from == Source::Interp));
        for (i, m) in plan.refresh.iter().enumerate() {
            assert!(!plan.refresh[i + 1..].contains(m), "{plan:#?}");
        }
        assert!(plan.flush.is_empty(), "the outer trace wrote g, i and j itself: {plan:#?}");
        let (outer_ar, inner_ar, interp) = plan.sources();
        assert_eq!(outer_ar + inner_ar + interp, plan.args[0].1.len() + plan.refresh.len());
        assert_eq!(interp, 1, "only n: {plan:#?}");
        assert_eq!(m.profiler.stats.nested_calls, m.profiler.stats.nested_deferred);
        assert!(m.profiler.stats.nested_calls >= 40, "{:?}", m.profiler.stats);
    }
}
