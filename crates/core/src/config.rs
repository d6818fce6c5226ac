//! Tracing JIT configuration.

/// Switches of the tracing JIT, each set differently by some caller. The
/// paper's numbers are constants next to their one use, not options:
/// the hotness thresholds (`monitor::HOTNESS_THRESHOLD`,
/// `monitor::HOT_EXIT_THRESHOLD`), the blacklist budget
/// (`blacklist::MAX_FAILURES`, `blacklist::BACKOFF`) and the inline depth
/// (`recorder::MAX_INLINE_DEPTH`); every forward filter (§5.1) always
/// runs. Nested trees (§4), trace stitching (§6.2), the integer-demotion
/// oracle (§3.2), type-unstable sibling linking (Figure 6) and
/// blacklisting (§3.3) are the design, not options: nothing here turns
/// them off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitOptions {
    /// Collect per-activity wall-clock times (Figure 12).
    pub profile: bool,
    /// Record trace events (tests / diagnostics).
    pub log_events: bool,
    /// Statically verify every recorded trace before compiling it
    /// (`tm-verifier`): a malformed trace aborts recording with
    /// `AbortReason::VerifyFailed` instead of being compiled. On by
    /// default in debug/test builds, off in release (hot-path) builds.
    /// When on, every compiled fragment is also re-verified after
    /// register allocation (`tm-verifier::verify_fragment`), and the
    /// decoded executor checks that each superinstruction it fuses names
    /// only registers, exits and AR slots of the raw instructions it
    /// replaced (`tm-nanojit::peephole::decode`).
    pub verify: bool,
    /// Whether the decoded executor fuses a tree's raw fragments into
    /// superinstructions (`tm-nanojit::peephole`) when it first runs the
    /// tree. On by default; turning it off dispatches the raw assembled
    /// code (the `decoded-raw` rung of `tm_bench`'s ladder). The native
    /// tier, `.tmc` files and the verifier see raw code either way.
    pub enable_fusion: bool,
    /// Hand finished recordings to the attached background compiler pool
    /// (`Vm::attach_pool`) instead of compiling on the execution thread;
    /// the compiled tree is installed at the next anchor hit. Off by
    /// default (and a no-op without an attached pool): single-realm runs
    /// keep the paper's synchronous compile-on-record semantics.
    pub background_compile: bool,
    /// Execute trace trees through the native x86-64 backend
    /// (`tm-nanojit::x64`), which emits every `MachInst` family; the
    /// decoded executor stays the portable reference. A tree's code is
    /// built at its first execution and grown in place by every branch
    /// install, so a tree runs decoded only when the emitter refused it
    /// (a `CallHelper` wider than the inline argument buffer, or a
    /// code file that refused it). On by default where the
    /// backend exists (x86-64 Linux) and forced off elsewhere, where
    /// turning it on silently degrades to the decoded executor.
    pub native_backend: bool,
}

impl Default for JitOptions {
    fn default() -> Self {
        JitOptions {
            profile: false,
            log_events: false,
            verify: cfg!(debug_assertions),
            enable_fusion: true,
            background_compile: false,
            native_backend: cfg!(all(target_arch = "x86_64", target_os = "linux")),
        }
    }
}
