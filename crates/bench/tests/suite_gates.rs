//! The deterministic gates over the SunSpider suite. They check
//! *counters*, never wall-clock: times are measured by `tm_bench/` (see
//! its README).
//!
//! * fusion: the decoded executor's superinstructions remove at least a
//!   quarter of its dispatches on the fusion smoke set;
//! * coverage: the date programs reach compiled code;
//! * recursion: the two recursion-bound programs build no tree and record
//!   almost nothing, and every other program builds the trees it did;
//! * native tier: native and decoded runs are indistinguishable and do
//!   the same work (trees, recordings, enters, exits, nested calls,
//!   interpreted bytecodes; also with a collection at every safe point), every
//!   trace entry is one native exit or one fallback, no fragment is
//!   emitted twice, and no suite tree calls a shim for a heap family
//!   that lowers inline;
//! * nesting: nested tree calls run under the transfer plans they are
//!   pinned to — deferred where the inner trees are leaves, from an
//!   inlined frame and across sibling links too — and leave the same
//!   state at every return and link on both tiers;
//! * siblings: the trees at one loop header have distinct entry maps,
//!   and the same ones in every process;
//! * warm start: a `.tmc` written by one `Vm` lets a fresh `Vm` load
//!   every tree and record nothing, and every suite program's entry
//!   decodes to the trees it saved, field for field;
//! * multi-tenant: concurrent realms answer like one realm and share
//!   compiled trees.
//!
//! A few checks are relative to the last accepted state and read it from
//! `tests/golden/suite_gates.txt`, one `program counter value` per line:
//! `dispatched` and `warm_bytecodes` may not grow by more than 5 %,
//! `nested_calls`, `nested_deferred`, `nested_direct`,
//! `host_transitions`, `trees`, `fragments`, `traces_completed` and
//! `duplicate_siblings` are exact, and a flag
//! (`ran_native`, `fallback_free`, `warm_started`) that is 1 there must
//! still be 1. Regenerate with
//! `TM_UPDATE_GOLDEN=1 cargo test -p tm-bench --test suite_gates`.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::Mutex;

use tm_bench::{by_name, run_program, BenchProgram};
use tracemonkey::jit::profiler::ProfileStats;
use tracemonkey::jit::persist::read_cache_file;
use tracemonkey::jit::tree::{ExecCode, TraceTree, TreeCode};
use tracemonkey::{Engine, JitOptions, MultiTenantVm, RealmJob, Vm};

fn prog(name: &str) -> &'static BenchProgram {
    by_name(name).unwrap_or_else(|| panic!("{name} is not in SUITE"))
}

/// One fresh tracing run: the displayed result and the run's counters.
fn traced(name: &str, opts: JitOptions) -> (String, ProfileStats) {
    let run = run_program(prog(name), Engine::Tracing, opts, 1);
    let stats = run.vm.profile().expect("the tracing engine keeps a profile").clone();
    (run.value, stats)
}

// ---- golden pins ------------------------------------------------------

/// Growth a pinned count may show before the gate fails.
const PIN_TOLERANCE: f64 = 1.05;

/// Tests run on parallel threads; the golden file is read, and under
/// `TM_UPDATE_GOLDEN` rewritten, by one of them at a time.
static GOLDEN: Mutex<()> = Mutex::new(());

type Pins = BTreeMap<(String, String), u64>;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/suite_gates.txt")
}

fn read_pins() -> Pins {
    let text = std::fs::read_to_string(golden_path()).unwrap_or_default();
    text.lines()
        .map(|line| {
            let mut f = line.split_whitespace();
            match (f.next(), f.next(), f.next().and_then(|v| v.parse().ok()), f.next()) {
                (Some(p), Some(c), Some(v), None) => ((p.to_owned(), c.to_owned()), v),
                _ => panic!("suite_gates.txt: not `program counter value`: {line:?}"),
            }
        })
        .collect()
}

/// Holds `observed` against the golden file (or merges it in under
/// `TM_UPDATE_GOLDEN`).
fn check_pins(observed: &[(&str, &str, u64)]) {
    let _one_at_a_time = GOLDEN.lock().unwrap_or_else(|e| e.into_inner());
    let mut pins = read_pins();
    if std::env::var("TM_UPDATE_GOLDEN").is_ok() {
        for &(p, c, v) in observed {
            pins.insert((p.to_owned(), c.to_owned()), v);
        }
        let text: String = pins.iter().map(|((p, c), v)| format!("{p} {c} {v}\n")).collect();
        let path = golden_path();
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(path, text).expect("write golden");
        return;
    }
    for &(p, c, now) in observed {
        let &was = pins.get(&(p.to_owned(), c.to_owned())).unwrap_or_else(|| {
            panic!("{p} {c}: not in suite_gates.txt; regenerate with TM_UPDATE_GOLDEN=1")
        });
        match c {
            "dispatched" | "warm_bytecodes" => {
                let limit = (was as f64 * PIN_TOLERANCE).ceil() as u64;
                assert!(now <= limit, "{p}: {c} {now} exceeds the accepted {was} by more than 5 %");
            }
            "nested_calls" | "nested_deferred" | "nested_direct" | "host_transitions"
            | "trees" | "fragments" | "traces_completed" | "duplicate_siblings" => {
                assert_eq!(now, was, "{p}: {c} moved from the accepted count")
            }
            _ => assert!(was == 0 || now != 0, "{p}: {c} was set in the accepted state, not now"),
        }
    }
}

// ---- fusion ----------------------------------------------------------

/// Three fast programs from the groups the superinstruction pass was
/// built for, bitops and access. Their raw retired counts are pinned by
/// the native-tier gate, whose smoke set contains them.
const FUSION_SMOKE: &[&str] = &["bitops-bits-in-byte", "bitops-bitwise-and", "access-nsieve"];

#[test]
fn fusion_removes_a_quarter_of_dispatched_instructions() {
    let decoded = |fusion| JitOptions {
        native_backend: false,
        enable_fusion: fusion,
        ..JitOptions::default()
    };
    let dispatched = |s: &ProfileStats| s.native_insts - s.native_insts_fused;
    let (mut raw, mut fused) = (0u64, 0u64);
    for name in FUSION_SMOKE {
        raw += dispatched(&traced(name, decoded(false)).1);
        fused += dispatched(&traced(name, decoded(true)).1);
    }
    assert!(
        fused * 4 <= raw * 3,
        "raw {raw} -> fused {fused} dispatched instructions is less than a 25 % reduction"
    );
}

// ---- coverage --------------------------------------------------------

/// The programs that dispatched zero traced instructions before the
/// string/date builtins became traceable.
const COVERAGE_SMOKE: &[&str] = &["date-format-tofte", "date-format-xparb"];

#[test]
fn date_programs_reach_compiled_code() {
    for name in COVERAGE_SMOKE {
        let (_, stats) = traced(name, JitOptions::default());
        assert!(stats.native_insts > 0, "{name}: zero instructions retired on trace");
    }
}

// ---- recursion -------------------------------------------------------

/// The suite's recursion-bound programs: every hot loop in them calls into
/// a recursion, which ends the recording (`AbortReason::Recursive`).
const RECURSIVE: &[&str] = &["access-binary-trees", "controlflow-recursive"];

/// Bytecodes a recursion-bound program may record in a run: each hot loop
/// is recorded up to its first recursive call, a few times, until the
/// blacklist silences it.
const MAX_RECURSIVE_RECORDED: u64 = 100;

#[test]
fn recursion_is_not_traced_and_every_other_tree_stays() {
    let mut observed = Vec::new();
    for p in tm_bench::SUITE {
        let (_, stats) = traced(p.name, JitOptions::default());
        if RECURSIVE.contains(&p.name) {
            assert_eq!(stats.trees, 0, "{}: a recursion-bound program built a tree", p.name);
            assert!(
                stats.bytecodes_recorded <= MAX_RECURSIVE_RECORDED,
                "{}: recorded {} bytecodes",
                p.name,
                stats.bytecodes_recorded
            );
        } else {
            observed.push((p.name, "trees", stats.trees));
            observed.push((p.name, "fragments", stats.fragments));
            observed.push((p.name, "traces_completed", stats.traces_completed));
            if tracemonkey::nanojit::native_supported() {
                observed.push((p.name, "host_transitions", stats.host_transitions));
            }
        }
    }
    check_pins(&observed);
}

// ---- native tier -----------------------------------------------------

/// The bitops group plus the shape-guard/array and string
/// representatives of the full-coverage emitter.
const NATIVE_SMOKE: &[&str] = &[
    "bitops-3bit-bits-in-byte",
    "bitops-bits-in-byte",
    "bitops-bitwise-and",
    "bitops-nsieve-bits",
    "access-nsieve",
    "string-fasta",
];

#[test]
fn native_tier_is_invisible_and_its_accounting_balances() {
    if !tracemonkey::nanojit::native_supported() {
        return;
    }
    let decoded_opts = JitOptions { native_backend: false, ..JitOptions::default() };
    let mut observed = Vec::new();
    for name in NATIVE_SMOKE {
        let (decoded_shown, decoded) = traced(name, decoded_opts);
        let (shown, native) = traced(name, JitOptions::default());
        assert_eq!(shown, decoded_shown, "{name}: the tiers print different results");
        for (what, n, d) in [
            ("dispatched insts", native.native_insts, decoded.native_insts),
            ("trace enters", native.trace_enters, decoded.trace_enters),
            ("side exits", native.side_exits, decoded.side_exits),
            ("native bytecodes", native.bytecodes_native, decoded.bytecodes_native),
        ] {
            assert_eq!(n, d, "{name}: {what} differ between the native and decoded tiers");
        }
        assert_eq!(
            native.native_exits + native.native_fallbacks,
            native.trace_enters,
            "{name}: every trace entry is one native exit or one fallback"
        );
        assert!(
            native.native_exits > native.native_fallbacks,
            "{name}: not majority-native ({} exits, {} fallbacks)",
            native.native_exits,
            native.native_fallbacks
        );
        assert!(
            native.native_fragments <= native.fragments,
            "{name}: {} fragment bodies emitted for {} fragments",
            native.native_fragments,
            native.fragments
        );
        observed.push((*name, "dispatched", native.native_insts));
        observed.push((*name, "ran_native", u64::from(native.native_exits > 0)));
        observed.push((*name, "fallback_free", u64::from(native.native_fallbacks == 0)));
    }
    check_pins(&observed);
}

/// The counters that say what the monitor did, not how fast a tier did
/// it. Soundness is equivalence at exits (Dissegna et al.): a tier that
/// prints the same output but leaves a loop at another point records,
/// enters and interprets differently, and these show it.
fn structural(s: &ProfileStats) -> [(&'static str, u64); 8] {
    [
        ("trees", s.trees),
        ("fragments", s.fragments),
        ("completed recordings", s.traces_completed),
        ("aborted recordings", s.traces_aborted),
        ("tree enters", s.trace_enters),
        ("nested calls", s.nested_calls),
        ("side exits", s.side_exits),
        ("interpreted bytecodes", s.bytecodes_interp),
    ]
}

/// The program of `tests/native_backend.rs`'
/// `gc_at_every_safe_point_with_direct_nested_calls`: on-trace boxing and
/// allocation with a collection due at every safe point.
const GC_EVERY_SAFE_POINT: &str = "\
    var pts = [];\n\
    for (var k = 0; k < 16; k++) pts.push({ x: k * 0.5, y: k });\n\
    var total = 0;\n\
    for (var i = 0; i < 300; i++) {\n\
        var acc = 0;\n\
        for (var j = 0; j < 16; j++) {\n\
            var p = pts[j]; acc = acc + p.x * p.y; p.y = (p.y + 1) | 0;\n\
        }\n\
        pts[i & 15] = { x: acc * 0.001, y: i & 7 };\n\
        total = total + acc;\n\
    }\n\
    total";

#[test]
fn both_tiers_do_the_same_work() {
    if !tracemonkey::nanojit::native_supported() {
        return;
    }
    let run = |name: &str, src: &str, native_backend, gc_threshold: Option<usize>| {
        let opts = JitOptions { native_backend, ..JitOptions::default() };
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        if let Some(t) = gc_threshold {
            vm.realm.heap.set_gc_threshold(t);
        }
        vm.eval(src).unwrap_or_else(|e| panic!("{name} failed under tracing: {e}"));
        structural(vm.profile().expect("the tracing engine keeps a profile"))
    };
    let suite = tm_bench::SUITE.iter().map(|p| (p.name, p.source, None));
    for (name, src, gc) in suite.chain([("gc at every safe point", GC_EVERY_SAFE_POINT, Some(1))]) {
        let (decoded, native) = (run(name, src, false, gc), run(name, src, true, gc));
        assert_eq!(decoded, native, "{name}: the decoded (left) and native tiers differ");
    }
}

/// The heap families native code reads and writes inline, against the
/// layout `tm_runtime::object::layout` publishes.
const INLINE_HEAP: &[&str] = &[
    "GuardShape",
    "GuardClass",
    "GuardBound",
    "LoadSlot",
    "StoreSlot",
    "LoadElem",
    "StoreElem",
    "ArrayLen",
    "Unbox(Double)",
    "UnboxNumD",
];

#[test]
fn native_code_calls_no_shim_for_an_inline_heap_family() {
    if !tracemonkey::nanojit::native_supported() {
        return;
    }
    let mut inline = 0;
    for p in tm_bench::SUITE {
        let run = run_program(p, Engine::Tracing, JitOptions::default(), 1);
        for (t, tree) in run.vm.monitor().expect("tracing").cache.iter().enumerate() {
            let ExecCode::Native(nt) = &tree.exec else { continue };
            for (family, n) in nt.heap_sites() {
                let shim = if INLINE_HEAP.contains(family) { n.shim } else { 0 };
                assert_eq!(shim, 0, "{} tree {t}: {family} calls a shim", p.name);
                inline += n.inline;
            }
        }
    }
    assert!(inline > 0, "the suite's native code reads the heap inline");
}

// ---- nesting ---------------------------------------------------------

/// One call site in the outer tree's entry frame calling a leaf
/// (`string-fasta`, `3d-cube`), a mix of leaf and non-leaf callees
/// (`access-fannkuch`), a call site inside an inlined frame
/// (`bitops-bits-in-byte`: the plan rebases the leaf's slot keys by the
/// frame depth), and one whose calls cross a type-unstable sibling link
/// from an inlined frame (`math-cordic`).
const NESTED_SMOKE: &[&str] =
    &["string-fasta", "3d-cube", "access-fannkuch", "bitops-bits-in-byte", "math-cordic"];

#[test]
fn nested_calls_run_under_the_plans_they_are_pinned_to() {
    let decoded_opts = JitOptions { native_backend: false, ..JitOptions::default() };
    let mut observed = Vec::new();
    for name in NESTED_SMOKE {
        let (_, stats) = traced(name, JitOptions::default());
        let (_, decoded) = traced(name, decoded_opts);
        let calls = |s: &ProfileStats| (s.nested_calls, s.nested_deferred);
        assert_eq!(calls(&stats), calls(&decoded), "{name}: the tiers run different plans");
        assert!(stats.nested_calls > 0 && stats.nested_calls < stats.trace_enters, "{name}");
        let deferred_share = stats.nested_deferred as f64 / stats.nested_calls as f64;
        let direct_share = stats.nested_direct as f64 / stats.nested_calls as f64;
        assert_eq!(decoded.nested_direct, 0, "{name}: the decoded tier calls through the host");
        match *name {
            "string-fasta" | "3d-cube" | "math-cordic" => {
                assert!(deferred_share >= 0.99, "{name}: {deferred_share:.3} deferred");
                if tracemonkey::nanojit::native_supported() {
                    assert!(direct_share >= 0.99, "{name}: {direct_share:.3} direct");
                }
            }
            "bitops-bits-in-byte" => {
                // The leaf's calls, from the inlined `bitsinbyte` frame,
                // are direct; the middle loop's (a caller) are eager.
                if tracemonkey::nanojit::native_supported() {
                    assert!(stats.nested_direct >= 89_000, "{name}: {stats:?}");
                    assert!(stats.host_transitions < 1_000, "{name}: {stats:?}");
                }
            }
            _ => {}
        }
        observed.push((*name, "nested_calls", stats.nested_calls));
        observed.push((*name, "nested_deferred", stats.nested_deferred));
        if tracemonkey::nanojit::native_supported() {
            observed.push((*name, "nested_direct", stats.nested_direct));
        }
    }
    check_pins(&observed);
}

/// Programs whose nested calls run from an inlined frame
/// (`bitops-bits-in-byte`), cross sibling links (`crypto-md5`), or both
/// (`math-cordic`).
const EXIT_STATE_SMOKE: &[&str] = &["bitops-bits-in-byte", "math-cordic", "crypto-md5"];

#[test]
fn nested_calls_leave_the_same_state_on_both_tiers() {
    // Equivalence at exits: every call's return and every link it
    // follows leaves the same words and globals whichever tier ran it.
    let observed = |name: &str, native_backend| {
        let opts = JitOptions { native_backend, ..JitOptions::default() };
        let mut vm = Vm::with_options(Engine::Tracing, opts);
        let lines = vm.observe_nesting();
        let v = vm.eval(prog(name).source).expect("the program runs");
        let shown = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
        (shown, lines.try_iter().collect::<Vec<_>>())
    };
    for name in EXIT_STATE_SMOKE {
        let (decoded, native) = (observed(name, false), observed(name, true));
        assert!(decoded.1.len() > 1000, "{name}: {} lines", decoded.1.len());
        let first = decoded.1.iter().zip(&native.1).position(|(d, n)| d != n);
        assert!(decoded == native, "{name}: the tiers differ from line {first:?}");
    }
}

// ---- siblings --------------------------------------------------------

/// Trees whose anchor already has an earlier tree with the same entry map,
/// compared as a set of (key, type) pairs: a sibling repeating a type map
/// that one tree should cover (Figure 6).
fn duplicate_siblings(vm: &Vm) -> u64 {
    let trees: Vec<_> = vm.monitor().expect("tracing").cache.iter().collect();
    let map = |t: &TraceTree| t.entry.iter().map(|b| (b.key, b.ty)).collect::<HashSet<_>>();
    let repeats = |(i, t): (usize, &&TraceTree)| {
        trees[..i].iter().any(|u| u.anchor == t.anchor && map(u) == map(t))
    };
    trees.iter().enumerate().filter(|&it| repeats(it)).count() as u64
}

#[test]
fn siblings_at_one_anchor_have_distinct_entry_maps() {
    let mut observed = Vec::new();
    for p in tm_bench::SUITE {
        let run = run_program(p, Engine::Tracing, JitOptions::default(), 1);
        observed.push((p.name, "duplicate_siblings", duplicate_siblings(&run.vm)));
    }
    check_pins(&observed);
}

/// Programs whose entry maps used to come out in hash order.
const DIGEST_SMOKE: &[&str] = &["3d-raytrace", "crypto-aes"];

#[test]
fn every_process_builds_the_same_entry_maps() {
    let digests = |name| {
        let run = run_program(prog(name), Engine::Tracing, JitOptions::default(), 1);
        let m = run.vm.monitor().expect("tracing");
        m.cache.iter().map(|t| t.digest).collect::<Vec<_>>()
    };
    for name in DIGEST_SMOKE {
        // Two `Vm`s seed their hash maps differently, as two processes do.
        assert_eq!(digests(name), digests(name), "{name}: per-tree digests differ between runs");
    }
}

/// The recorder builds exit tables and loop writes by walking its slot
/// tables in AR order, with no sort: every suite tree's tables must come
/// out strictly ascending by AR slot. (An entry map lists its imports in
/// the order the trace made them, and the sibling digest hashes that
/// order; the loop-persistent writes a root recording appends to it come
/// from the same walk, which the recorder asserts in debug builds.)
#[test]
fn exit_tables_stay_in_ar_order() {
    let ascending = |list: &[tracemonkey::jit::activation::SlotBinding]| {
        list.windows(2).all(|w| w[0].ar < w[1].ar)
    };
    for p in tm_bench::SUITE {
        let run = run_program(p, Engine::Tracing, JitOptions::default(), 1);
        for t in run.vm.monitor().expect("tracing").cache.iter() {
            let what = format!("{}: tree {}", p.name, t.id.0);
            assert!(ascending(&t.loop_writes), "{what}: loop writes {:?}", t.loop_writes);
            for (f, exits) in t.exits.iter().enumerate() {
                for (e, exit) in exits.iter().enumerate() {
                    assert!(ascending(&exit.write_back), "{what} f{f} e{e}: write-back");
                    assert!(ascending(&exit.typemap), "{what} f{f} e{e}: type map");
                }
            }
        }
    }
}

// ---- warm start ------------------------------------------------------

/// Cheap programs covering loops, floating point, strings and recursion:
/// the trace shapes the cache must round-trip.
const WARM_SMOKE: &[&str] = &[
    "bitops-3bit-bits-in-byte",
    "math-partial-sums",
    "string-unpack-code",
    "date-format-xparb",
    "controlflow-recursive",
];

/// Fresh VMs (after the cold one) a cache may take to stop growing. A
/// warmed run has native coverage from iteration 0, so exits the cold
/// ramp never made hot can become hot and extend the trees.
const MAX_WARM_RUNS: u32 = 6;

/// One fresh tracing `Vm` against `cache`.
fn cached_run(name: &str, cache: &std::path::Path) -> ProfileStats {
    let mut vm = Vm::new(Engine::Tracing);
    vm.set_cache_path(Some(cache.to_path_buf()));
    vm.eval(prog(name).source).unwrap_or_else(|e| panic!("{name} failed under tracing: {e}"));
    assert!(vm.last_cache_error().is_none(), "{name}: {:?}", vm.last_cache_error());
    vm.profile().expect("the tracing engine keeps a profile").clone()
}

/// Bytecodes executed outside compiled traces: the time-to-peak proxy.
fn warmup_bytecodes(s: &ProfileStats) -> u64 {
    s.bytecodes_interp + s.bytecodes_recorded
}

#[test]
fn a_warm_vm_loads_every_tree_and_records_nothing() {
    let dir = std::env::temp_dir().join(format!("tm_suite_gates_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut observed = Vec::new();
    for name in WARM_SMOKE {
        let cache = dir.join(format!("{name}.tmc"));
        let cold = cached_run(name, &cache);
        assert_eq!(cold.cache_hits, 0, "{name}: the cold run starts without a cache entry");
        assert!(cache.is_file(), "{name}: the cold run wrote no cache file");
        let quiet = |s: &ProfileStats| s.traces_completed == 0 && s.traces_aborted == 0;
        let converged = (0..MAX_WARM_RUNS).any(|_| {
            let w = cached_run(name, &cache);
            assert_eq!(w.cache_hits, 1, "{name}: a warmed run missed the cache");
            quiet(&w)
        });
        assert!(converged, "{name}: the cache still grows after {MAX_WARM_RUNS} warmed runs");

        let warm = cached_run(name, &cache);
        assert_eq!(warm.cache_hits, 1, "{name}: the warm run missed the cache");
        assert!(quiet(&warm), "{name}: the warm run recorded against a converged cache");
        assert!(
            warm.cache_loaded_trees >= cold.trees && warm.cache_loaded_fragments >= cold.fragments,
            "{name}: loaded {} trees / {} fragments, the cold run recorded {} / {}",
            warm.cache_loaded_trees,
            warm.cache_loaded_fragments,
            cold.trees,
            cold.fragments
        );
        // A program may instead converge to no trace entries at all: the
        // §3.3 machinery found tracing it unprofitable and the cache keeps
        // that verdict, so the warm run skips the record/compile tax.
        let warm_started = warm.trace_enters > 0;
        if cold.trees > 0 && warm_started {
            assert!(
                warmup_bytecodes(&warm) < warmup_bytecodes(&cold),
                "{name}: warm ran {} bytecodes outside traces, cold {}",
                warmup_bytecodes(&warm),
                warmup_bytecodes(&cold)
            );
        }
        observed.push((*name, "warm_started", u64::from(warm_started)));
        if warm_started {
            observed.push((*name, "warm_bytecodes", warmup_bytecodes(&warm)));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    check_pins(&observed);
}

/// Every suite program's `.tmc` entry decodes to the trees its cold run
/// saved, field for field.
#[test]
fn every_suite_entry_round_trips_field_for_field() {
    let dir = std::env::temp_dir().join(format!("tm_suite_round_trip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for p in tm_bench::SUITE {
        let cache = dir.join(format!("{}.tmc", p.name));
        let mut vm = Vm::new(Engine::Tracing);
        vm.set_cache_path(Some(cache.clone()));
        vm.eval(p.source).unwrap_or_else(|e| panic!("{} failed under tracing: {e}", p.name));
        let live: Vec<&TraceTree> = vm.monitor().expect("a tracing run").cache.iter().collect();
        let entries = read_cache_file(&cache).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        assert_eq!(entries.len(), 1, "{}", p.name);
        assert_eq!(entries[0].trees.len(), live.len(), "{}", p.name);
        for (l, d) in live.iter().zip(&entries[0].trees) {
            let what = format!("{} tree {}", p.name, l.id.0);
            // Destructured, so that a field added to `TreeCode` is compared
            // or fails to compile. `digest` is derived from the entry map
            // on load, not stored.
            let TreeCode {
                anchor,
                digest: _,
                layout,
                fragments,
                exits,
                fragment_bytecodes,
                entry,
                nested_sites,
                loop_writes,
                unstable,
            } = &*l.code;
            assert_eq!(*anchor, d.anchor, "{what}");
            let keys = |t: &TraceTree| {
                (0..t.layout.len()).map(|s| t.layout.key(s as u16)).collect::<Vec<_>>()
            };
            assert_eq!(layout.len(), d.layout.len(), "{what}");
            assert_eq!(keys(l), keys(d), "{what}");
            assert_eq!(**fragments, *d.fragments, "{what}");
            assert_eq!(*exits, d.exits, "{what}");
            assert_eq!(*fragment_bytecodes, d.fragment_bytecodes, "{what}");
            assert_eq!(*entry, d.entry, "{what}");
            assert_eq!(*nested_sites, d.nested_sites, "{what}");
            assert_eq!(*loop_writes, d.loop_writes, "{what}");
            assert_eq!(*unstable, d.unstable, "{what}");
            let failures = |t: &TraceTree| {
                t.exit_states.iter().flatten().map(|s| s.failures).collect::<Vec<_>>()
            };
            assert_eq!(failures(l), failures(d), "{what}");
            assert_eq!(l.disabled, d.disabled, "{what}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- multi-tenant ----------------------------------------------------

/// Request-sized programs; every realm and every repetition must agree.
/// The last one compiles nothing, so it has no code to share.
const REQUESTS: &[(&str, bool)] = &[
    ("var s = 0; for (var i = 0; i < 2000; i++) s += i * 3 - (i >> 1); s", true),
    (
        "var s = 0; \
         for (var i = 0; i < 1500; i++) { if (i % 3 == 0) s += i * 2; else s -= i; } s",
        true,
    ),
    (
        "var p = { x: 0, y: 0 }; \
         for (var i = 0; i < 1200; i++) { p.x += i; p.y = p.x - i; } p.x + p.y",
        true,
    ),
    ("var s = ''; var n = 0; \
      for (var i = 0; i < 600; i++) { s = 'ab' + s.substring(0, 6); n += s.length; } n", true),
    ("var a = 1; var b = a + 41; var c = b * 2 - 42; c", false),
];

#[test]
fn tenant_realms_agree_with_one_realm_and_share_trees() {
    for &(source, traceable) in REQUESTS {
        let mut single = Vm::new(Engine::Tracing);
        single.set_cache_path(None);
        let v = single.eval(source).expect("request runs");
        let expected = Ok(tracemonkey::runtime::ops::to_display(&mut single.realm, v));

        let host = MultiTenantVm::new(2);
        // One realm ahead of the rest: what it compiled is published once
        // its requests are answered, so the others' hits do not depend on
        // which thread the OS runs first.
        let mut reports = host.run(vec![RealmJob::repeat(source, 5)]);
        reports.extend(host.run(vec![RealmJob::repeat(source, 5); 3]));
        for (realm, report) in reports.iter().enumerate() {
            for (request, result) in report.results.iter().enumerate() {
                assert_eq!(*result, expected, "realm {realm} request {request}: {source}");
            }
        }
        if traceable {
            let shared = host.shared_stats();
            let installed: u64 =
                reports.iter().flat_map(|r| &r.stats).map(|s| s.shared_cache_installed_trees).sum();
            assert!(shared.publishes > 0 && shared.hits > 0, "no sharing ({shared:?}): {source}");
            assert!(installed > 0, "no realm installed a shared tree: {source}");
            assert!(host.pool_stats().executed > 0, "nothing compiled in the background: {source}");
        }
    }
}
