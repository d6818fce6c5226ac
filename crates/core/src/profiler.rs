//! Per-activity time and bytecode accounting — the instrumentation behind
//! the paper's Figure 11 (fraction of bytecodes interpreted vs. native)
//! and Figure 12 (time breakdown by VM activity; the state machine of
//! Figure 2).

use std::time::{Duration, Instant};

/// The VM activities of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Executing bytecodes in the interpreter.
    Interpret,
    /// Monitor bookkeeping: hotness counters, trace-cache lookup, entering
    /// and leaving traces (unboxing/boxing activation records).
    Monitor,
    /// Recording a trace (interpreting + emitting LIR).
    Record,
    /// Compiling a finished trace (backward filters + assembly).
    Compile,
    /// Executing compiled (native) traces.
    Native,
}

const N_ACTIVITIES: usize = 5;

fn idx(a: Activity) -> usize {
    match a {
        Activity::Interpret => 0,
        Activity::Monitor => 1,
        Activity::Record => 2,
        Activity::Compile => 3,
        Activity::Native => 4,
    }
}

/// Accumulated per-activity times and dynamic bytecode counts.
#[derive(Debug, Clone, Default)]
pub struct ProfileStats {
    /// Wall-clock per activity.
    pub time: [Duration; N_ACTIVITIES],
    /// Bytecodes executed by the pure interpreter.
    pub bytecodes_interp: u64,
    /// Bytecodes executed while recording.
    pub bytecodes_recorded: u64,
    /// Bytecode-equivalents executed natively (trace bytecode length ×
    /// iterations).
    pub bytecodes_native: u64,
    /// Raw machine instructions retired on trace, the same count on either
    /// tier (what the step budget is charged).
    pub native_insts: u64,
    /// Of `native_insts`, how many the decoded executor retired without a
    /// dispatch of their own: the second and later raw instructions of
    /// each superinstruction, and those fusion deleted as dead. Zero for
    /// native code; `native_insts - native_insts_fused` is what was
    /// dispatched.
    pub native_insts_fused: u64,
    /// Superinstructions in decoded trees' dispatch form (static, counted
    /// as fragments are decoded).
    pub fused_superinsts: u64,
    /// Raw instructions fusion removed from decoded trees' dispatch form
    /// (static: raw minus fused length, summed over decoded fragments).
    pub fuse_insts_removed: u64,
    /// Tree runs: monitor → native transitions plus nested calls, each
    /// type-unstable sibling link followed (Figure 6) a run of its own.
    pub trace_enters: u64,
    /// Calls an outer trace's `CallTree` made (§4), each counted once
    /// however many sibling links it followed; the other runs of
    /// `trace_enters` are the monitor's own and the links.
    pub nested_calls: u64,
    /// Of `nested_calls`, how many ran with the call-site export deferred
    /// (`nest::TransferPlan::deferred`).
    pub nested_deferred: u64,
    /// Of `nested_deferred`, how many the native tier completed through a
    /// direct site (`tm-nanojit::x64::DirectSite`) without entering the
    /// host; a call the host finished after the callee ran is not one.
    pub nested_direct: u64,
    /// Of `trace_enters`, the runs Rust started: monitor entries, host-path
    /// nested calls and the sibling links Rust follows.
    pub host_transitions: u64,
    /// Tree runs that ended, one per run of `trace_enters`: back to the
    /// monitor, or, for a nested call, back to the calling trace
    /// (docs/DIAGNOSTICS.md).
    pub side_exits: u64,
    /// Traces recorded successfully.
    pub traces_completed: u64,
    /// Recordings aborted.
    pub traces_aborted: u64,
    /// Trees created.
    pub trees: u64,
    /// Fragments compiled (trunk + branches).
    pub fragments: u64,
    /// Loop edges resolved entirely by the dense per-loop monitor slot
    /// (tree entered, or inline hotness tick below threshold) — no hash
    /// lookup of any kind.
    pub monitor_slot_fast: u64,
    /// Loop edges that fell through to the recording/blacklist machinery
    /// (sibling scans, backoff tables, trace recording). Bounded by
    /// warm-up: a compiled or silenced loop never adds to this again.
    pub monitor_slot_slow: u64,
    /// Property inline-cache hit/miss counters, rolled up from the
    /// interpreter at the end of each monitored run.
    pub ic: tm_runtime::IcStats,
    /// Per-builtin trace counters: typed fast-call sites compiled into
    /// traces, keyed by helper name (see DIAGNOSTICS.md). Counts static
    /// call sites per compiled fragment, not dynamic executions.
    pub builtin_fast_records: std::collections::HashMap<String, u64>,
    /// Trace trees installed from the persistent cache (warm start).
    pub cache_loaded_trees: u64,
    /// Compiled fragments installed from the persistent cache; every one
    /// passed `tm-verifier` before installation.
    pub cache_loaded_fragments: u64,
    /// Cache lookups that found a valid entry for the running program.
    pub cache_hits: u64,
    /// Cache lookups that found no entry for the running program (file
    /// absent, or present without this program's key).
    pub cache_misses: u64,
    /// Cache entries rejected during revalidation (stale bytecode, shape
    /// conflict, corruption, verifier failure, ...) — each rejection
    /// degraded to a cold start.
    pub cache_revalidation_failures: u64,
    /// Shared-code-cache probes that found at least one tree published by
    /// some realm for the anchor.
    pub shared_cache_hits: u64,
    /// Shared-code-cache probes that found nothing for the anchor.
    pub shared_cache_misses: u64,
    /// Trees this realm installed from the shared code cache (compiled by
    /// another realm, or by this one in an earlier eval).
    pub shared_cache_installed_trees: u64,
    /// Trees this realm published to the shared code cache.
    pub shared_cache_publishes: u64,
    /// Compile jobs handed to the background compiler pool.
    pub compile_jobs_submitted: u64,
    /// Background compile jobs whose fragment was installed.
    pub compile_jobs_installed: u64,
    /// Background compile jobs that failed in the pipeline (counted
    /// against the site like a recording abort).
    pub compile_jobs_failed: u64,
    /// Fragment bodies emitted as native x86-64 code. Every fragment is
    /// emitted once — at its tree's first execution or when it is
    /// installed — so this exceeds `fragments` only by the rebuilds of
    /// trees that outgrew their reserved range.
    pub native_fragments: u64,
    /// Tree executions that ran decoded with `native_backend` requested
    /// on: the emitter refused the tree (an oversized `CallHelper`, or a
    /// code file that refused it), or the target has no native backend.
    pub native_fallbacks: u64,
    /// Tree executions that ran through the native x86-64 backend (each
    /// contributes exactly one native exit).
    pub native_exits: u64,
    /// Always 0: emission is per fragment and runs on the installing
    /// thread. Kept because `tm_bench` reads the field.
    pub native_emissions_offthread: u64,
    /// Runs of the native emitter: one per tree at its first execution,
    /// one per fragment appended by a branch install, one per rebuild.
    pub native_emissions_sync: u64,
}

impl ProfileStats {
    /// Time spent in `a`.
    pub fn time_in(&self, a: Activity) -> Duration {
        self.time[idx(a)]
    }

    /// Total measured time.
    pub fn total_time(&self) -> Duration {
        self.time.iter().sum()
    }

    /// Fraction of dynamic bytecodes executed natively (Figure 11).
    pub fn native_bytecode_fraction(&self) -> f64 {
        let total = self.bytecodes_interp + self.bytecodes_recorded + self.bytecodes_native;
        if total == 0 {
            0.0
        } else {
            self.bytecodes_native as f64 / total as f64
        }
    }
}

/// Stopwatch-style profiler. Only one activity runs at a time; nested
/// scopes are the caller's responsibility (switch, don't stack).
#[derive(Debug)]
pub struct Profiler {
    /// Aggregated results.
    pub stats: ProfileStats,
    current: Option<(Activity, Instant)>,
    /// When disabled, `enter`/`switch` are no-ops (no timer syscalls).
    pub enabled: bool,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new(true)
    }
}

impl Profiler {
    /// Creates a profiler.
    pub fn new(enabled: bool) -> Profiler {
        Profiler { stats: ProfileStats::default(), current: None, enabled }
    }

    /// Switches the active activity, accumulating the previous one.
    pub fn switch(&mut self, a: Activity) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        if let Some((prev, started)) = self.current.take() {
            self.stats.time[idx(prev)] += now - started;
        }
        self.current = Some((a, now));
    }

    /// Stops timing (accumulating the active activity).
    pub fn stop(&mut self) {
        if let Some((prev, started)) = self.current.take() {
            self.stats.time[idx(prev)] += started.elapsed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_accumulates() {
        let mut p = Profiler::new(true);
        p.switch(Activity::Interpret);
        std::thread::sleep(Duration::from_millis(2));
        p.switch(Activity::Native);
        std::thread::sleep(Duration::from_millis(1));
        p.stop();
        assert!(p.stats.time_in(Activity::Interpret) >= Duration::from_millis(1));
        assert!(p.stats.time_in(Activity::Native) >= Duration::from_micros(500));
        assert!(p.stats.total_time() >= Duration::from_millis(2));
    }

    #[test]
    fn native_fraction() {
        let mut s = ProfileStats::default();
        assert_eq!(s.native_bytecode_fraction(), 0.0);
        s.bytecodes_interp = 25;
        s.bytecodes_native = 75;
        assert!((s.native_bytecode_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn disabled_profiler_is_noop() {
        let mut p = Profiler::new(false);
        p.switch(Activity::Interpret);
        p.stop();
        assert_eq!(p.stats.total_time(), Duration::ZERO);
    }
}
