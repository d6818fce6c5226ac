//! Blacklisting and backoff (§3.3, §4.2).
//!
//! Recording failures are counted per fragment start (loop header or side
//! exit). After a failure the fragment *backs off* — the monitor ignores it
//! for a number of passes — and after enough failures it is permanently
//! blacklisted: for loop headers the bytecode `LoopHeader` op is patched to
//! a `Nop` so the interpreter never calls the monitor again.
//!
//! Nested-loop forgiveness (§4.2): when an outer recording aborts because
//! an inner tree was not ready, the abort is provisional and remembers the
//! inner loop header it waited on — once a tree at that header is created
//! or grows, in whatever function, the outer fragment's failure count is
//! decremented and its backoff undone.

use std::collections::HashMap;

use tm_bytecode::FuncId;

/// A fragment start position: a loop header or a side-exit location.
pub type FragmentStart = (FuncId, u32);

/// Per-fragment failure bookkeeping.
#[derive(Debug, Default, Clone, Copy)]
struct Entry {
    failures: u32,
    /// Remaining passes to skip before trying again.
    backoff: u32,
    blacklisted: bool,
    /// Failures attributable to an inner tree not being ready, eligible
    /// for forgiveness.
    provisional: u32,
    /// The inner loop header the last provisional failure waited on.
    waiting_on: Option<FragmentStart>,
}

/// Recording failures before a fragment is permanently blacklisted
/// (§3.3: 2).
pub const MAX_FAILURES: u32 = 2;

/// Passes a fragment is skipped after a recording failure (§3.3: 32).
pub const BACKOFF: u32 = 32;

/// The durable part of one blacklist entry, as stored in the persistent
/// trace cache (`docs/PERSISTENCE.md` §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistedEntry {
    /// The fragment start the entry describes.
    pub start: FragmentStart,
    /// Accumulated recording failures.
    pub failures: u32,
    /// Whether the fragment is permanently blacklisted.
    pub blacklisted: bool,
}

/// What the monitor should do at a fragment start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Try recording.
    Record,
    /// Skip this pass (backing off).
    Skip,
    /// Permanently blacklisted; for loop headers, patch the bytecode.
    Blacklisted,
}

/// The blacklist table.
#[derive(Debug, Default)]
pub struct Blacklist {
    entries: HashMap<FragmentStart, Entry>,
}

impl Blacklist {
    /// Creates an empty blacklist.
    pub fn new() -> Blacklist {
        Blacklist::default()
    }

    /// Consults the table before attempting to record at `start`,
    /// consuming one backoff credit when backing off.
    pub fn check(&mut self, start: FragmentStart) -> Verdict {
        let e = self.entries.entry(start).or_default();
        if e.blacklisted {
            Verdict::Blacklisted
        } else if e.backoff > 0 {
            e.backoff -= 1;
            Verdict::Skip
        } else {
            Verdict::Record
        }
    }

    /// Records a recording failure at `start`. `waited_on`, the inner loop
    /// header whose tree was not ready, marks the failure provisional
    /// (§4.2). Returns `true` when the fragment just became blacklisted.
    pub fn record_failure(
        &mut self,
        start: FragmentStart,
        waited_on: Option<FragmentStart>,
    ) -> bool {
        let e = self.entries.entry(start).or_default();
        e.failures += 1;
        if waited_on.is_some() {
            e.provisional += 1;
            e.waiting_on = waited_on;
        }
        if e.failures >= MAX_FAILURES {
            e.blacklisted = true;
            return true;
        }
        e.backoff = BACKOFF;
        false
    }

    /// Forgives one provisional failure on every fragment that last waited
    /// on `inner` — called when a tree at that loop header is created or
    /// grows ("when the inner tree finishes a trace, we decrement the
    /// blacklist counter on the outer loop ... we also undo the backoff").
    pub fn forgive_waiting_on(&mut self, inner: FragmentStart) {
        for e in self.entries.values_mut() {
            if e.provisional > 0 && !e.blacklisted && e.waiting_on == Some(inner) {
                e.provisional -= 1;
                e.failures = e.failures.saturating_sub(1);
                e.backoff = 0;
            }
        }
    }

    /// Snapshots every entry in a deterministic (sorted) order for the
    /// persistent trace cache. Transient backoff is *not* exported — a
    /// fresh process restarts its pass counting — only the durable facts:
    /// accumulated failures and the blacklisted bit.
    pub fn export(&self) -> Vec<PersistedEntry> {
        let mut out: Vec<PersistedEntry> = self
            .entries
            .iter()
            .filter(|(_, e)| e.failures > 0 || e.blacklisted)
            .map(|(&start, e)| PersistedEntry { start, failures: e.failures, blacklisted: e.blacklisted })
            .collect();
        out.sort_by_key(|p| (p.start.0 .0, p.start.1));
        out
    }

    /// Merges a previously [`Blacklist::export`]ed snapshot back in,
    /// keeping the worse of the stored and current failure counts.
    ///
    /// A restored failure that did not reach the blacklist threshold is
    /// re-armed with an effectively infinite backoff: a previous process
    /// already proved recording there unprofitable, and a warm start must
    /// not repay the aborted-recording cost it was created to avoid (the
    /// cache's zero-recordings-when-warm guarantee). Deleting the cache
    /// file restores cold-start adaptivity.
    pub fn restore(&mut self, persisted: &[PersistedEntry]) {
        for p in persisted {
            let e = self.entries.entry(p.start).or_default();
            e.failures = e.failures.max(p.failures);
            e.blacklisted |= p.blacklisted;
            if !e.blacklisted && e.failures > 0 {
                e.backoff = u32::MAX;
            }
        }
    }

    /// Whether `start` is permanently blacklisted.
    pub fn is_blacklisted(&self, start: FragmentStart) -> bool {
        self.entries.get(&start).is_some_and(|e| e.blacklisted)
    }

    /// Number of blacklisted fragments (diagnostics).
    pub fn blacklisted_count(&self) -> usize {
        self.entries.values().filter(|e| e.blacklisted).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const START: FragmentStart = (FuncId(0), 5);
    const INNER: FragmentStart = (FuncId(1), 2);

    /// Skips `start` through the backoff a failure armed.
    fn sit_out_backoff(bl: &mut Blacklist, start: FragmentStart) {
        for _ in 0..BACKOFF {
            assert_eq!(bl.check(start), Verdict::Skip);
        }
        assert_eq!(bl.check(start), Verdict::Record);
    }

    #[test]
    fn failure_backoff_then_blacklist() {
        let mut bl = Blacklist::new();
        assert_eq!(bl.check(START), Verdict::Record);
        assert!(!bl.record_failure(START, None));
        // Backing off for exactly `BACKOFF` passes.
        sit_out_backoff(&mut bl, START);
        // Second failure: permanent.
        assert!(bl.record_failure(START, None));
        assert_eq!(bl.check(START), Verdict::Blacklisted);
        assert!(bl.is_blacklisted(START));
        assert_eq!(bl.blacklisted_count(), 1);
    }

    #[test]
    fn blacklists_exactly_at_max_failures() {
        let mut bl = Blacklist::new();
        for _ in 1..MAX_FAILURES {
            assert!(!bl.record_failure(START, None));
            sit_out_backoff(&mut bl, START);
        }
        // The `MAX_FAILURES`-th failure arms no backoff: it is final.
        assert!(bl.record_failure(START, None));
        assert_eq!(bl.check(START), Verdict::Blacklisted);
        assert_eq!(bl.blacklisted_count(), 1);
    }

    #[test]
    fn forgiveness_undoes_provisional_failures() {
        let mut bl = Blacklist::new();
        assert!(!bl.record_failure(START, Some(INNER)));
        assert_eq!(bl.check(START), Verdict::Skip);
        // Inner tree completed: outer is forgiven and retried immediately.
        bl.forgive_waiting_on(INNER);
        assert_eq!(bl.check(START), Verdict::Record);
        // The forgiven failure no longer counts towards blacklisting.
        assert!(!bl.record_failure(START, None));
        assert!(!bl.is_blacklisted(START));
    }

    #[test]
    fn forgiveness_is_keyed_on_the_inner_header_waited_on() {
        let mut bl = Blacklist::new();
        assert!(!bl.record_failure(START, Some(INNER)));
        // A tree at another header, even in the outer loop's own function,
        // forgives nothing.
        bl.forgive_waiting_on((FuncId(0), 9));
        assert_eq!(bl.check(START), Verdict::Skip);
        bl.forgive_waiting_on(INNER);
        assert_eq!(bl.check(START), Verdict::Record);
        // Forgiven once: the next tree at the inner header finds nothing
        // provisional left.
        assert!(!bl.record_failure(START, None));
        bl.forgive_waiting_on(INNER);
        assert_eq!(bl.check(START), Verdict::Skip);
    }

    #[test]
    fn forgiveness_does_not_resurrect_blacklisted_fragments() {
        let mut bl = Blacklist::new();
        for _ in 1..MAX_FAILURES {
            assert!(!bl.record_failure(START, None));
            sit_out_backoff(&mut bl, START);
        }
        assert!(bl.record_failure(START, Some(INNER)));
        // Even though the last failure was provisional, blacklisting is final.
        bl.forgive_waiting_on(INNER);
        assert_eq!(bl.check(START), Verdict::Blacklisted);
        assert!(bl.is_blacklisted(START));
    }

    #[test]
    fn forgiveness_only_covers_provisional_failures() {
        let mut bl = Blacklist::new();
        assert!(!bl.record_failure(START, None)); // a real abort, not inner-not-ready
        bl.forgive_waiting_on(INNER);
        // Nothing was provisional: the failure stands and the backoff holds.
        assert_eq!(bl.check(START), Verdict::Skip);
    }

    #[test]
    fn fragments_fail_independently() {
        let mut bl = Blacklist::new();
        let other: FragmentStart = (FuncId(1), 9);
        assert!(!bl.record_failure(START, None));
        assert_eq!(bl.check(START), Verdict::Skip);
        // The other fragment is unaffected by START's backoff...
        assert_eq!(bl.check(other), Verdict::Record);
        // ...and blacklists on its own count.
        for _ in 0..MAX_FAILURES {
            bl.record_failure(other, None);
        }
        assert!(bl.is_blacklisted(other));
        assert!(!bl.is_blacklisted(START));
        assert_eq!(bl.blacklisted_count(), 1);
    }
}
