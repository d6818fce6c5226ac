//! Trace-activity event log, used by tests to assert the paper's §2
//! narrative (which traces are recorded/called when) and by diagnostics.

use tm_bytecode::FuncId;

/// One observable tracer action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Started recording a root (trunk) trace at a loop header.
    RecordStartRoot {
        /// Function of the loop.
        func: FuncId,
        /// Header pc.
        pc: u32,
    },
    /// Started recording a branch trace at a hot side exit.
    RecordStartBranch {
        /// Function of the tree anchor.
        func: FuncId,
        /// Anchor pc.
        pc: u32,
    },
    /// A trace was completed and compiled into tree `tree` as `fragment`.
    RecordFinish {
        /// Tree id.
        tree: u32,
        /// Fragment index within the tree.
        fragment: u32,
        /// LIR instructions recorded (after optimization).
        lir_len: u32,
    },
    /// Recording aborted.
    RecordAbort {
        /// Human-readable reason.
        reason: AbortReason,
    },
    /// Entered a compiled tree from the monitor.
    EnterTree {
        /// Tree id.
        tree: u32,
    },
    /// A nested tree was called from an outer trace (§4).
    NestedCall {
        /// Inner tree id.
        tree: u32,
    },
    /// A trace exited to the monitor.
    SideExit {
        /// Tree id.
        tree: u32,
        /// Fragment that exited.
        fragment: u32,
        /// Exit id.
        exit: u16,
    },
    /// A side exit was stitched to a new branch fragment.
    Stitch {
        /// Tree id.
        tree: u32,
        /// Parent fragment.
        from_fragment: u32,
        /// Exit patched.
        exit: u16,
        /// New branch fragment.
        to_fragment: u32,
    },
    /// A fragment start was blacklisted.
    Blacklist {
        /// Function.
        func: FuncId,
        /// pc.
        pc: u32,
    },
    /// Transferred between sibling trees of a type-unstable loop (Fig. 6).
    StableTransfer {
        /// Source tree.
        from_tree: u32,
        /// Destination tree.
        to_tree: u32,
    },
}

/// Why a recording was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Reached an inner loop with no compiled tree yet (§4.1 step 2).
    InnerTreeNotReady,
    /// The inner tree call failed (entry map mismatch / unexpected exit).
    InnerTreeCallFailed,
    /// Returned out of the trace-entry frame.
    LeftEntryFrame,
    /// Trace exceeded the length budget.
    TraceTooLong,
    /// Inlining exceeded the depth budget.
    TooDeep,
    /// A scripted call re-entered a function already on the trace.
    Recursive,
    /// A construct the recorder does not support (e.g. reentrant native).
    Unsupported,
    /// The callee at a recorded call is not a callable object; the
    /// interpreter raises a TypeError when it re-executes the call.
    /// Distinct from [`AbortReason::GuestError`], which means a guest
    /// error actually occurred *while* recording.
    NotCallable,
    /// A guest error occurred while recording.
    GuestError,
    /// The program finished while recording.
    ProgramEnd,
    /// The recorded trace failed static verification (`tm-verifier`); the
    /// malformed trace is discarded instead of compiled.
    VerifyFailed(tm_verifier::VerifyError),
    /// A background compile job failed (pipeline panic or a verification
    /// stage rejected the trace on a worker thread). Counted against the
    /// site's failure budget like any other abort.
    CompileFailed,
}

/// Bounded event log.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<TraceEvent>,
    /// Maximum retained events (0 = unbounded).
    pub cap: usize,
    /// Whether logging is enabled.
    pub enabled: bool,
}

impl EventLog {
    /// Creates an enabled, unbounded log.
    pub fn new() -> EventLog {
        EventLog { events: Vec::new(), cap: 0, enabled: true }
    }

    /// Appends an event.
    pub fn push(&mut self, e: TraceEvent) {
        if self.enabled && (self.cap == 0 || self.events.len() < self.cap) {
            self.events.push(e);
        }
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_caps_and_disables() {
        let mut log = EventLog::new();
        log.cap = 1;
        log.push(TraceEvent::EnterTree { tree: 0 });
        log.push(TraceEvent::EnterTree { tree: 1 });
        assert_eq!(log.events().len(), 1);
        log.clear();
        log.enabled = false;
        log.push(TraceEvent::EnterTree { tree: 2 });
        assert!(log.events().is_empty());
    }
}
