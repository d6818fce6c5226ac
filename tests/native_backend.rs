//! Integration coverage for the native x86-64 tier (`tm-nanojit::x64`)
//! behind `JitOptions::native_backend`: tier selection and fallback
//! accounting, differential identity with the decoded executor, graceful
//! degradation on targets without the backend, and in-place growth when a
//! tree gains a branch fragment. The instruction-level differential
//! tests live in `crates/nanojit/src/x64/tests.rs`; these drive the tier
//! through whole programs, the way the monitor uses it.

use tracemonkey::{Engine, JitOptions, Vm};

/// Runs `src` under the tracing JIT with `native_backend` as given and
/// returns the display string plus the profile counters.
fn run_with(
    src: &str,
    native: bool,
) -> (String, tracemonkey::jit::profiler::ProfileStats) {
    let mut opts = JitOptions::default();
    opts.native_backend = native;
    opts.profile = true;
    let mut vm = Vm::with_options(Engine::Tracing, opts);
    let v = vm.eval(src).expect("program runs");
    let shown = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
    (shown, vm.profile().expect("tracing engine profiles").clone())
}

const INT_LOOP: &str = "var s = 0; for (var i = 0; i < 4000; i++) s = (s + (i ^ 3)) | 0; s";

/// A function that calls itself once. Recursion is not traced: a recording
/// that reaches `once(1)` aborts (`Recursive`), so a loop calling it in its
/// body never gets a tree, and the loops it calls are the only trees.
const ONCE: &str = "function once(d) { if (d > 0) return once(d - 1); return 0; }\n";

/// A branchy loop in a function called `calls` times from an untraceable
/// loop: the tree grows branch fragments while entries keep coming.
fn branchy_calls(calls: u32) -> String {
    format!(
        "{ONCE}\
         function f(n) {{\n\
             var s = 0;\n\
             for (var i = 0; i < n; i++) {{\n\
                 if ((i & 3) == 0) {{ s = (s + i) | 0; }} else {{ s = (s - 1) | 0; }}\n\
             }}\n\
             return s;\n\
         }}\n\
         var t = 0;\n\
         for (var j = 0; j < {calls}; j++) {{ t = (t + once(1) + f(150)) | 0; }}\n\
         t"
    )
}

/// Trees anchored in the script body: the calling loop's.
fn outer_trees(vm: &Vm) -> usize {
    let main = vm.interp().expect("tracing engine keeps its interpreter").prog().main;
    vm.monitor().expect("tracing monitor").cache.iter().filter(|t| t.anchor.func == main).count()
}

const OBJ_LOOP: &str = "\
    var o = { a: 0, b: 1 };\n\
    for (var i = 0; i < 400; i++) { o.a = (o.a + o.b + i) | 0; }\n\
    o.a";

#[test]
fn supported_tree_runs_native_and_counters_balance() {
    if !tracemonkey::nanojit::native_supported() {
        return; // covered by native_backend_degrades_without_error
    }
    let (shown, stats) = run_with(INT_LOOP, true);
    let (decoded_shown, _) = run_with(INT_LOOP, false);
    assert_eq!(shown, decoded_shown);
    assert!(stats.native_fragments >= 1, "the int loop's tree must emit: {stats:?}");
    assert!(stats.native_exits >= 1, "the int loop must run natively: {stats:?}");
    assert_eq!(
        stats.native_exits + stats.native_fallbacks,
        stats.trace_enters,
        "every trace entry is exactly one native exit or one fallback: {stats:?}"
    );
}

#[test]
fn shape_guarded_trees_run_native() {
    if !tracemonkey::nanojit::native_supported() {
        return;
    }
    // Property access traces to GuardShape/LoadSlot/StoreSlot. Since the
    // full-coverage tier these emit natively: the tree runs through the
    // x86-64 buffer and agrees with the decoded executor.
    let (shown, stats) = run_with(OBJ_LOOP, true);
    let (decoded_shown, _) = run_with(OBJ_LOOP, false);
    assert_eq!(shown, decoded_shown);
    assert!(stats.trace_enters >= 1, "the loop must trace at all: {stats:?}");
    assert!(stats.native_fragments >= 1, "the shape-guarded tree must emit: {stats:?}");
    assert!(
        stats.native_exits > stats.native_fallbacks,
        "object traces run majority-native now: {stats:?}"
    );
    assert_eq!(stats.native_exits + stats.native_fallbacks, stats.trace_enters);
}

/// With `background_compile` on and a pool attached, fragments are
/// compiled on the pool's workers and their native code is emitted by
/// the monitor when it installs them: the first into a new mapping at the
/// tree's first execution, the rest appended by `install_branch`. Nothing
/// is emitted off-thread or twice, no entry runs on the tier below, and
/// the result agrees with the synchronous run and the decoded executor.
#[test]
fn background_compiled_fragments_append_at_install() {
    if !tracemonkey::nanojit::native_supported() {
        return;
    }
    // The hot loops sit in functions called many times from a loop that
    // cannot be traced (as in `branch_install_appends_in_place`) so the
    // monitor keeps entering the trees while background compiles land.
    let run = |src: &str, background: bool| {
        let opts = JitOptions {
            native_backend: true,
            background_compile: background,
            profile: true,
            ..JitOptions::default()
        };
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        if background {
            vm.attach_pool(std::sync::Arc::new(tracemonkey::CompilerPool::new(2)));
        }
        let v = vm.eval(src).expect("program runs");
        let shown = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
        assert_eq!(outer_trees(&vm), 0, "the calling loop is untraceable");
        (shown, vm.profile().expect("tracing engine profiles").clone())
    };
    // Long enough that the compiles land while the program still runs;
    // the assertions hold whenever they land.
    let obj_calls = format!(
        "{ONCE}\
         function g(n) {{\n\
             var o = {{ a: 0, b: 1 }};\n\
             for (var i = 0; i < n; i++) {{ o.a = (o.a + o.b + i) | 0; }}\n\
             return o.a;\n\
         }}\n\
         var t = 0;\n\
         for (var j = 0; j < 1500; j++) {{ t = (t + once(1) + g(200)) | 0; }}\n\
         t"
    );
    for src in [branchy_calls(1500), obj_calls] {
        let src = src.as_str();
        let (shown, stats) = run(src, true);
        let (sync_shown, _) = run(src, false);
        let (decoded_shown, _) = run_with(src, false);
        assert_eq!(shown, sync_shown);
        assert_eq!(shown, decoded_shown);
        assert!(stats.compile_jobs_installed >= 1, "the pool must compile: {stats:?}");
        assert_eq!(stats.native_emissions_offthread, 0, "{stats:?}");
        assert!(stats.native_fragments <= stats.fragments, "emitted twice: {stats:?}");
        assert_eq!(stats.native_fallbacks, 0, "an entry ran decoded: {stats:?}");
        assert_eq!(stats.native_exits, stats.trace_enters);
    }
}

#[test]
fn disabled_backend_never_emits_or_falls_back() {
    let (_, stats) = run_with(INT_LOOP, false);
    assert!(stats.trace_enters >= 1);
    assert_eq!(stats.native_fragments, 0);
    assert_eq!(stats.native_exits, 0);
    assert_eq!(stats.native_fallbacks, 0, "fallbacks only count when the tier is on");
}

/// `native_backend = true` on a target without the backend must degrade
/// to the decoded executor without error — every entry a fallback. On
/// x86-64 Linux the same program runs natively instead; either way the
/// program completes and the accounting balances, so this test is
/// target-generic (the acceptance criterion for non-x86-64 builds).
#[test]
fn native_backend_degrades_without_error() {
    let (shown, stats) = run_with(INT_LOOP, true);
    let (decoded_shown, decoded_stats) = run_with(INT_LOOP, false);
    assert_eq!(shown, decoded_shown);
    assert_eq!(stats.native_exits + stats.native_fallbacks, stats.trace_enters);
    if !tracemonkey::nanojit::native_supported() {
        assert_eq!(stats.native_fragments, 0);
        assert_eq!(stats.native_exits, 0);
        assert_eq!(stats.native_fallbacks, stats.trace_enters);
    }
    // The tier is invisible to the paper's Figure 11 accounting: both
    // executors report identical per-trace instruction counts, raw
    // instructions retired. Only the decoded executor fuses.
    assert_eq!(stats.trace_enters, decoded_stats.trace_enters);
    assert_eq!(stats.native_insts, decoded_stats.native_insts);
    assert!(decoded_stats.native_insts_fused > 0, "{decoded_stats:?}");
    if tracemonkey::nanojit::native_supported() {
        assert_eq!(stats.native_insts_fused, 0, "native code retires what it dispatches");
    }
    assert_eq!(stats.bytecodes_native, decoded_stats.bytecodes_native);
    assert_eq!(stats.side_exits, decoded_stats.side_exits);
}

/// A generic native call passes `this` and its arguments to the runtime:
/// `Math.max` with 8 and 9 arguments is a 9- and a 10-word helper call.
/// The recorder records calls that wide, so the native tier must run them
/// rather than refuse the tree and leave it to the decoded executor.
#[test]
fn widest_recorded_native_calls_run_native() {
    if !tracemonkey::nanojit::native_supported() {
        return;
    }
    for argc in [8, 9] {
        let args: Vec<String> = (1..argc).map(|k| k.to_string()).collect();
        let src = format!(
            "var s = 0; for (var i = 0; i < 2000; i++) s += Math.max(i, {}); s",
            args.join(", ")
        );
        let mut interp = Vm::new(Engine::Interp);
        let v = interp.eval(&src).expect("program runs");
        let expected = tracemonkey::runtime::ops::to_display(&mut interp.realm, v);
        let (shown, stats) = run_with(&src, true);
        assert_eq!(shown, expected, "{argc} arguments");
        assert!(stats.trace_enters >= 1, "{argc} arguments: the loop must trace: {stats:?}");
        assert_eq!(stats.native_fallbacks, 0, "{argc} arguments: a tree ran decoded: {stats:?}");
    }
}

/// A branchy loop grows its tree by stitched branch fragments after the
/// trunk was already emitted natively: each new fragment is appended to
/// the tree's code and its parent's exit patched, so every fragment is
/// emitted exactly once, no entry ever runs decoded, and the result
/// agrees with the decoded executor. The loop sits in a function called
/// many times so entries keep coming while and after the tree grows; the
/// calling loop cannot be traced, so the inner tree is the only tree.
#[test]
fn branch_install_appends_in_place() {
    if !tracemonkey::nanojit::native_supported() {
        return;
    }
    let run = |native: bool| {
        let opts = JitOptions { native_backend: native, profile: true, ..JitOptions::default() };
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        let v = vm.eval(&branchy_calls(60)).expect("program runs");
        let shown = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
        assert_eq!(outer_trees(&vm), 0, "the calling loop is untraceable");
        (shown, vm.profile().expect("tracing engine profiles").clone())
    };
    let (shown, stats) = run(true);
    let (decoded_shown, _) = run(false);
    assert_eq!(shown, decoded_shown);
    assert!(stats.fragments >= 2, "the tree must grow a branch: {stats:?}");
    assert_eq!(stats.native_fragments, stats.fragments, "{stats:?}");
    assert_eq!(stats.native_fallbacks, 0, "{stats:?}");
    assert_eq!(stats.native_exits, stats.trace_enters);
}

/// The full checksuite-style differential: a mixed program with doubles,
/// comparisons, and nested loops agrees between tiers and between the
/// tiers and the interpreter.
#[test]
fn mixed_program_agrees_across_tiers_and_interpreter() {
    let src = "\
        var acc = 0.0;\n\
        for (var i = 0; i < 50; i++) {\n\
            var t = 0;\n\
            for (var j = 0; j < 40; j++) {\n\
                t = (t + ((i * j) & 255)) | 0;\n\
                if (t > 4000) { t = t - 4000; }\n\
            }\n\
            acc = acc + t * 0.5;\n\
        }\n\
        acc";
    let (native_shown, _) = run_with(src, true);
    let (decoded_shown, _) = run_with(src, false);
    let mut interp = Vm::new(Engine::Interp);
    let v = interp.eval(src).expect("interpreter runs");
    let interp_shown = tracemonkey::runtime::ops::to_display(&mut interp.realm, v);
    assert_eq!(native_shown, interp_shown);
    assert_eq!(decoded_shown, interp_shown);
}

/// Boxing an out-of-range int on trace allocates a heap double (the
/// demotion filter turns `Box(Double, I2D(x))` into `Box(Int, x)` for a
/// full-range `x` such as `i << 16`), so it must flag the collection like
/// every other on-trace allocation: loop edges poll only that flag.
#[test]
fn boxing_an_out_of_range_int_on_trace_asks_for_gc() {
    const SRC: &str = "var a = [0]; for (var i = 0; i < 200000; i++) { a[0] = i << 16; } a[0]";
    let run = |engine: Engine, native: bool| {
        let mut opts = JitOptions::default();
        opts.native_backend = native;
        let mut vm = Vm::with_options(engine, opts);
        vm.realm.heap.set_gc_threshold(10_000);
        let v = vm.eval(SRC).expect("program runs");
        let shown = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
        let doubles_arena = vm.realm.heap.arena_layout()[2].0;
        (shown, vm.realm.heap.gc_stats().collections, doubles_arena)
    };
    let (expected, interp_collections, interp_arena) = run(Engine::Interp, false);
    assert!(interp_collections > 0, "the program allocates past the threshold");
    for native in [true, false] {
        let (shown, collections, arena) = run(Engine::Tracing, native);
        assert_eq!(shown, expected);
        assert!(collections > 0, "native={native}: no collection in {arena} double cells");
        assert!(
            arena <= 2 * interp_arena,
            "native={native}: doubles arena grew to {arena} cells, the interpreter's to {interp_arena}"
        );
    }
}

/// A collection at every safe point while the native tier calls inner
/// trees directly. The outer body allocates on trace, which only flags
/// the collection for the next exit, so every object and double the
/// trees read inline, at the arena base of the moment, is still live.
#[test]
fn gc_at_every_safe_point_with_direct_nested_calls() {
    const SRC: &str = "\
        var pts = [];\n\
        for (var k = 0; k < 16; k++) pts.push({ x: k * 0.5, y: k });\n\
        var total = 0;\n\
        for (var i = 0; i < 300; i++) {\n\
            var acc = 0;\n\
            for (var j = 0; j < 16; j++) { var p = pts[j]; acc = acc + p.x * p.y; p.y = (p.y + 1) | 0; }\n\
            pts[i & 15] = { x: acc * 0.001, y: i & 7 };\n\
            total = total + acc;\n\
        }\n\
        total";
    let run = |engine: Engine, native: bool| {
        let opts = JitOptions { native_backend: native, profile: true, ..JitOptions::default() };
        let mut vm = Vm::with_options(engine, opts);
        vm.realm.heap.set_gc_threshold(1);
        let v = vm.eval(SRC).expect("program runs");
        let shown = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
        (shown, vm.realm.heap.gc_stats().collections, vm.profile().cloned())
    };
    let (expected, _, _) = run(Engine::Interp, false);
    for native in [true, false] {
        let (shown, collections, stats) = run(Engine::Tracing, native);
        let stats = stats.expect("tracing engine profiles");
        assert_eq!(shown, expected, "native={native}");
        assert!(collections > 100, "native={native}: {collections} collections");
        assert!(stats.nested_calls >= 50, "native={native}: {stats:?}");
        if native && tracemonkey::nanojit::native_supported() {
            assert!(stats.nested_direct >= 50, "{stats:?}");
        }
    }
}

/// `charCodeAt` takes an int index. A double index gets the typed fast
/// call's conversion guard only when the recording saw it integral; half
/// of these indexes are not, and they take the generic call instead of a
/// guard that fails on every run. A guard emitted regardless grew one
/// tree to the 32-fragment cap, each branch recording the same failing
/// guard, and left it 64 times.
#[test]
fn a_fractional_index_to_a_typed_fast_call_is_not_guarded_as_an_int() {
    let src = "var s = \"abcdefgh\"; var n = 0;\n\
               for (var i = 0; i < 400; i++) { n += s.charCodeAt((i & 7) * 0.5); } n";
    let mut interp = Vm::new(Engine::Interp);
    let v = interp.eval(src).expect("interpreter runs");
    let interp_shown = tracemonkey::runtime::ops::to_display(&mut interp.realm, v);
    for native in [true, false] {
        let (shown, stats) = run_with(src, native);
        assert_eq!(shown, interp_shown, "native: {native}");
        let counts = (stats.trees, stats.fragments, stats.trace_enters);
        assert_eq!(counts, (2, 3, 3), "trees, fragments, runs (native: {native}): {stats:?}");
    }
}
