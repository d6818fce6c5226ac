//! Monitor policy tests: the oracle's per-site integer demotion (§3.2) and
//! the blacklist's backoff/patching thresholds (§3.3) observed through real
//! program runs, not just unit-level table manipulation.

use tracemonkey::bytecode::FuncId;
use tracemonkey::jit::blacklist::{BACKOFF, MAX_FAILURES};
use tracemonkey::jit::events::TraceEvent;
use tracemonkey::{Engine, JitOptions, Vm};

fn traced_vm(src: &str) -> Vm {
    let opts = JitOptions { log_events: true, ..JitOptions::default() };
    let mut vm = Vm::with_options(Engine::Tracing, opts);
    vm.eval(src).expect("program runs");
    vm
}

fn interp_result(src: &str) -> String {
    let mut vm = Vm::new(Engine::Interp);
    let v = vm.eval(src).expect("interpreter runs");
    tracemonkey::runtime::ops::to_display(&mut vm.realm, v)
}

fn traced_result(vm: &mut Vm, src: &str) -> String {
    let v = vm.eval(src).expect("traced program runs");
    tracemonkey::runtime::ops::to_display(&mut vm.realm, v)
}

/// `i * i` stays inside the tagged-int range (2^30) when recording starts
/// at i=32700, then overflows from i=32768 on — every later iteration
/// takes the `MulIChk` guard even though every loop variable keeps its
/// integer representation (`p` is reset to 0 before the loop edge, so the
/// tree keeps matching and re-entering). Per-*variable* demotion cannot
/// help here; only the arithmetic-*site* oracle can.
const OVERFLOW_SITE_SRC: &str = "var s = 0;
     for (var i = 32700; i < 33500; i = i + 1) {
         var p = i * i;
         if (p < 0) { s = (s + 1) | 0; }
         p = 0;
         s = (s + 1) | 0;
     }
     s";

#[test]
fn hot_overflow_guard_demotes_the_arith_site() {
    let vm = traced_vm(OVERFLOW_SITE_SRC);
    let m = vm.monitor().unwrap();
    // The overflow exit went hot and the monitor told the oracle about the
    // arithmetic *site*.
    let demoted_sites: Vec<(FuncId, u32)> = (0..4)
        .flat_map(|f| (0..2000).map(move |pc| (FuncId(f), pc)))
        .filter(|&site| !m.oracle.may_speculate_int_site(site))
        .collect();
    assert!(
        !demoted_sites.is_empty(),
        "a repeatedly-overflowing MulIChk site must be demoted by the oracle"
    );
    // Demotion happens on the hot-exit extension path: the double-path
    // branch fragment must have been recorded off the overflow guard.
    let events = m.events.events();
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::RecordStartBranch { .. })),
        "the hot overflow exit triggers a branch recording"
    );
}

#[test]
fn site_demotion_does_not_change_results() {
    let mut vm = traced_vm(OVERFLOW_SITE_SRC);
    // Same program again in the same VM: this run records with the site
    // already demoted (double path + truncation), and must agree with the
    // pure interpreter.
    assert_eq!(traced_result(&mut vm, OVERFLOW_SITE_SRC), interp_result(OVERFLOW_SITE_SRC));
}

/// A loop of `iterations` the recorder always aborts on (ToString of an
/// object is outside the traceable subset), used to probe blacklist
/// thresholds.
fn untraceable(iterations: u32) -> String {
    format!(
        "var s = 0;
         var o = {{x: 1}};
         var t = '';
         for (var i = 0; i < {iterations}; i++) {{
             t = '' + o;
             s += 1;
         }}
         s"
    )
}

fn abort_and_blacklist_counts(vm: &Vm) -> (usize, usize) {
    let m = vm.monitor().unwrap();
    let events = m.events.events();
    let aborts = events.iter().filter(|e| matches!(e, TraceEvent::RecordAbort { .. })).count();
    let blacklists =
        events.iter().filter(|e| matches!(e, TraceEvent::Blacklist { .. })).count();
    (aborts, blacklists)
}

#[test]
fn blacklist_attempt_budget_follows_max_failures() {
    // Exactly `MAX_FAILURES` recording attempts, then the header is
    // patched: the loop's remaining iterations record nothing.
    let vm = traced_vm(&untraceable(3000));
    let (aborts, blacklists) = abort_and_blacklist_counts(&vm);
    assert_eq!(aborts, MAX_FAILURES as usize, "one attempt per allowed failure");
    assert_eq!(blacklists, 1, "the loop header gets patched once");
}

#[test]
fn backoff_spaces_attempts_but_does_not_change_the_budget() {
    // The first attempt fails within the loop's first few crossings; a
    // loop that ends before its `BACKOFF` skipped passes are over gets no
    // second attempt and keeps its header.
    let vm = traced_vm(&untraceable(BACKOFF));
    assert_eq!(abort_and_blacklist_counts(&vm), (1, 0));
    // A longer loop sits the backoff out and spends the whole budget.
    let vm = traced_vm(&untraceable(BACKOFF + 16));
    assert_eq!(abort_and_blacklist_counts(&vm), (MAX_FAILURES as usize, 1));
}

#[test]
fn too_deep_and_recursive_are_hard_aborts() {
    // §3.3/§4.2: only an inner tree that is not ready (or misbehaved) is
    // provisional — the outer site may become traceable once the inner
    // tree exists, so forgiveness can undo the failure count. Every other
    // reason, the depth budget and recursion included, is hard.
    use tracemonkey::jit::events::AbortReason;
    use tracemonkey::jit::monitor::abort_is_provisional;
    assert!(abort_is_provisional(&AbortReason::InnerTreeNotReady));
    assert!(abort_is_provisional(&AbortReason::InnerTreeCallFailed));
    assert!(!abort_is_provisional(&AbortReason::TooDeep));
    assert!(!abort_is_provisional(&AbortReason::Recursive));
    assert!(!abort_is_provisional(&AbortReason::Unsupported));
    assert!(!abort_is_provisional(&AbortReason::NotCallable));
    assert!(!abort_is_provisional(&AbortReason::GuestError));
}

#[test]
fn non_callable_callee_aborts_with_not_callable_not_guest_error() {
    // The callee array turns non-callable exactly when the loop goes hot:
    // recording stops with the dedicated NotCallable reason (the guest
    // error — the TypeError the interpreter then raises — is a separate
    // concept and must not be conflated).
    use tracemonkey::jit::events::AbortReason;
    let src = "function f(x) { return x + 1; }
         var fs = [f, 5, 5, 5, 5, 5, 5, 5];
         var s = 0;
         for (var i = 0; i < 8; i++) s += fs[i](i);
         s";
    let mut opts = JitOptions::default();
    opts.log_events = true;
    let mut vm = Vm::with_options(Engine::Tracing, opts);
    let err = vm.eval(src);
    assert!(err.is_err(), "calling a number raises a guest TypeError");
    let m = vm.monitor().unwrap();
    let events = m.events.events();
    let not_callable = events
        .iter()
        .filter(|e| {
            matches!(e, TraceEvent::RecordAbort { reason: AbortReason::NotCallable })
        })
        .count();
    let guest_error = events
        .iter()
        .filter(|e| {
            matches!(e, TraceEvent::RecordAbort { reason: AbortReason::GuestError })
        })
        .count();
    assert_eq!(not_callable, 1, "exactly one NotCallable recording abort");
    assert_eq!(guest_error, 0, "no recording abort is misfiled as GuestError");
}
