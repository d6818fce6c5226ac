//! Multi-tenant concurrency tests: N realms on independent threads must
//! behave exactly like N sequential single-realm runs — byte-identical
//! results and `print` output, consistent traced coverage — whether the
//! shared code cache and background compiler pool are on or off.
//!
//! The deterministic interleaving tests drive two realm threads through
//! the `tm_support::sched` rig: a seeded cooperative scheduler permutes
//! the order the threads pass the instrumented yield points in the
//! compiler-pool handoff (`pool.submit`/`pool.wait`) and the shared-cache
//! insert/evict paths (`shared.lookup`/`shared.publish`/`shared.evict`),
//! so every tested interleaving is replayable from its seed.

use std::sync::Mutex;

use tracemonkey::jit::vm::{Engine as CoreEngine, Vm as CoreVm};
use tracemonkey::{JitOptions, MultiTenantVm, RealmJob};
use tm_support::sched::Schedule;

/// The sched rig is process-global; every test that arms it serializes here.
static RIG: Mutex<()> = Mutex::new(());

/// Hot loop with a type-stable body plus a branchy side (side exits →
/// branch fragments → more compiler-pool traffic).
const HOT_BRANCHY: &str = "\
    var s = 0;\n\
    for (var i = 0; i < 400; i++) {\n\
        if (i % 3 == 0) { s += i * 2; } else { s -= i; }\n\
    }\n\
    s";

/// A mixed bag of programs: objects, strings, nested loops, recursion.
const MIXED: [&str; 4] = [
    HOT_BRANCHY,
    "var o = { a: 0, b: 1 };\n\
     for (var i = 0; i < 300; i++) { o.a = (o.a + o.b) | 0; o.b = (o.b + i) | 0; }\n\
     o.a + o.b",
    "var s = \"x\";\n\
     var n = 0;\n\
     for (var i = 0; i < 200; i++) { if (s.length < 40) { s = s + \"y\"; } n += s.length; }\n\
     n",
    "function rec(n, a) { if (n < 1) { return a; } return rec(n - 1, (a + n) | 0); }\n\
     var acc = 0;\n\
     for (var i = 0; i < 120; i++) { acc = (acc + rec(i & 7, i)) | 0; }\n\
     acc",
];

/// Runs `sources` once each on a fresh, fully isolated tracing VM (no
/// shared cache, no pool) and returns the displayed results plus the
/// final profile counters per source.
fn isolated_run(sources: &[&str], opts: JitOptions) -> Vec<(Result<String, String>, u64, u64)> {
    sources
        .iter()
        .map(|src| {
            let mut vm = CoreVm::with_options(CoreEngine::Tracing, opts);
            vm.set_cache_path(None);
            let r = match vm.eval(src) {
                Ok(v) => Ok(tracemonkey::runtime::ops::to_display(&mut vm.realm, v)),
                Err(e) => Err(e.to_string()),
            };
            let stats = vm.profile().cloned().unwrap_or_default();
            (r, stats.trees, stats.traces_completed)
        })
        .collect()
}

/// Tentpole differential: the same program on 4 concurrent isolated
/// realms (no sharing at all) is byte-identical to the single-threaded
/// run, with identical traced coverage per realm — concurrency alone
/// must not perturb monitor decisions.
#[test]
fn concurrent_isolated_realms_match_single_threaded() {
    let opts = JitOptions::default();
    let baseline = isolated_run(&[HOT_BRANCHY], opts);
    let handles: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || isolated_run(&[HOT_BRANCHY], opts)))
        .collect();
    for h in handles {
        let got = h.join().expect("realm thread panicked");
        assert_eq!(got, baseline, "a concurrent realm diverged from single-threaded");
    }
    assert!(baseline[0].1 >= 1, "the hot loop must have compiled a tree");
}

/// Same differential with the shared cache and background pool on:
/// results and output stay byte-identical, every realm ends up with
/// traced coverage (own compile or shared install), and the shared-cache
/// hit counters prove cross-realm reuse actually happened.
#[test]
fn concurrent_shared_realms_match_and_reuse_code() {
    let expected = isolated_run(&[HOT_BRANCHY], JitOptions::default())
        .into_iter()
        .map(|(r, _, _)| r)
        .collect::<Vec<_>>();
    let mt = MultiTenantVm::new(2);
    // One realm runs ahead: its trees are published by the time its last
    // eval has drained the pool. Four lock-stepped realms can all probe
    // (and miss) before any of them publishes, which would make the
    // `hits` assertion below a test of timing, not of sharing.
    let mut reports = mt.run(vec![RealmJob::repeat(HOT_BRANCHY, 3)]);
    reports.extend(mt.run(vec![RealmJob::repeat(HOT_BRANCHY, 3); 3]));
    for (i, rep) in reports.iter().enumerate() {
        for r in &rep.results {
            assert_eq!(*r, expected[0], "realm {i} diverged");
        }
        assert!(rep.output.is_empty(), "program prints nothing");
        let covered = rep.stats.iter().any(|s| {
            s.trees > 0 || s.shared_cache_installed_trees > 0 || s.cache_loaded_trees > 0
        });
        assert!(covered, "realm {i} never got a compiled tree");
    }
    let s = mt.shared_stats();
    assert!(s.publishes >= 1, "someone published: {s:?}");
    assert!(s.hits >= 1, "4 realms x 3 evals of one program must share: {s:?}");
    let installed: u64 = reports
        .iter()
        .flat_map(|r| &r.stats)
        .map(|s| s.shared_cache_installed_trees)
        .sum();
    assert!(installed >= 1, "at least one realm installed a shared tree");
}

/// Stress: different programs per realm, interleaved request mixes, both
/// sharing layers on. Every realm must agree with its own isolated
/// baseline (no cross-tenant bleed of results or code).
#[test]
fn mixed_program_stress() {
    let baselines: Vec<Result<String, String>> = MIXED
        .iter()
        .map(|src| isolated_run(&[src], JitOptions::default()).remove(0).0)
        .collect();
    let mt = MultiTenantVm::new(2);
    // Realm k runs the mixed programs rotated by k, twice around.
    let jobs: Vec<RealmJob> = (0..MIXED.len())
        .map(|k| RealmJob {
            sources: (0..MIXED.len() * 2)
                .map(|j| MIXED[(k + j) % MIXED.len()].to_owned())
                .collect(),
            cache_path: None,
            step_budget: u64::MAX,
        })
        .collect();
    let reports = mt.run(jobs);
    for (k, rep) in reports.iter().enumerate() {
        for (j, r) in rep.results.iter().enumerate() {
            let want = &baselines[(k + j) % MIXED.len()];
            assert_eq!(r, want, "realm {k} request {j} diverged");
        }
    }
}

/// One seeded two-thread schedule: both realms run the same job under
/// the rig; returns their displayed results and the observed trace.
///
/// With `background` the compiler pool is live, so the worker thread runs
/// unscheduled: the rig still seeds the *realm threads'* interleaving
/// (results must never depend on the worker's timing), but the recorded
/// trace is only schedule-pure in the synchronous configuration.
fn scheduled_pair(
    seed: u64,
    background: bool,
) -> (Vec<Result<String, String>>, Vec<Result<String, String>>, Vec<(usize, &'static str)>) {
    let sched = Schedule::new(seed, 2);
    let mut opts = JitOptions::default();
    opts.background_compile = background;
    let mt = MultiTenantVm::with_options(opts, 1);
    let (r0, r1) = std::thread::scope(|s| {
        let mt_ref = &mt;
        let h0 = {
            let sch = sched.clone();
            s.spawn(move || {
                let _p = sch.attach(0);
                mt_ref.run_job(&RealmJob::repeat(HOT_BRANCHY, 2))
            })
        };
        let h1 = {
            let sch = sched.clone();
            s.spawn(move || {
                let _p = sch.attach(1);
                mt_ref.run_job(&RealmJob::repeat(HOT_BRANCHY, 2))
            })
        };
        sched.start();
        (h0.join().expect("realm 0 panicked"), h1.join().expect("realm 1 panicked"))
    });
    let trace = sched.finish();
    (r0.results, r1.results, trace)
}

/// The concurrency test rig end to end: >= 64 seed-permuted schedules of
/// the two-realm compiler-pool handoff + shared-cache insert path, zero
/// divergences allowed. A failing seed is a deterministic repro.
#[test]
fn interleavings_over_64_seeds_never_diverge() {
    let _g = RIG.lock().unwrap_or_else(|e| e.into_inner());
    let expected = isolated_run(&[HOT_BRANCHY], JitOptions::default()).remove(0).0;
    let mut distinct_traces = std::collections::HashSet::new();
    let mut saw_pool = false;
    let mut saw_shared = false;
    for seed in 0..64 {
        let (r0, r1, trace) = scheduled_pair(seed, true);
        for r in r0.iter().chain(&r1) {
            assert_eq!(*r, expected, "seed {seed} diverged");
        }
        saw_pool |= trace.iter().any(|e| e.1.starts_with("pool."));
        saw_shared |= trace.iter().any(|e| e.1.starts_with("shared."));
        distinct_traces.insert(trace);
    }
    assert!(saw_pool, "schedules must pass through the compiler-pool handoff");
    assert!(saw_shared, "schedules must pass through the shared-cache paths");
    assert!(
        distinct_traces.len() > 1,
        "64 seeds must actually permute the interleaving"
    );
}

/// Same seed, same schedule, same trace: the rig's reproducibility
/// contract over the real VM (not just toy yield loops). Uses the
/// synchronous-compile configuration so every yield point belongs to a
/// scheduled thread and the trace is a pure function of the seed.
#[test]
fn same_seed_reproduces_the_same_interleaving() {
    let _g = RIG.lock().unwrap_or_else(|e| e.into_inner());
    let (a0, a1, ta) = scheduled_pair(12345, false);
    let (b0, b1, tb) = scheduled_pair(12345, false);
    assert_eq!(a0, b0);
    assert_eq!(a1, b1);
    assert_eq!(ta, tb, "identical seeds must replay identical schedules");
}

/// No false sharing: a realm whose shape tables diverged (different
/// globals evaluated first) captures a different fingerprint, so it must
/// miss the other realm's published trees entirely.
#[test]
fn diverged_realm_misses_the_shared_key() {
    let mt = MultiTenantVm::with_options(
        {
            let mut o = JitOptions::default();
            o.background_compile = false; // deterministic counters
            o
        },
        1,
    );
    // Publisher: a pristine realm runs the hot program.
    let mut pub_vm = mt.realm_vm();
    pub_vm.eval(HOT_BRANCHY).expect("publisher run");
    assert!(mt.shared_stats().publishes >= 1, "publisher must publish");

    // Diverged consumer: same program text, but its realm evaluated other
    // globals first, so its fingerprint differs from the publisher's.
    let mut div_vm = mt.realm_vm();
    div_vm.eval("var zig = { q: 1, r: 2 }; zig.q").expect("divergence setup");
    div_vm.eval(HOT_BRANCHY).expect("diverged run");
    let div_stats = div_vm.profile().cloned().unwrap_or_default();
    assert_eq!(
        div_stats.shared_cache_hits, 0,
        "diverged realm must never hit the pristine realm's key"
    );
    assert_eq!(div_stats.shared_cache_installed_trees, 0);

    // Control: a pristine consumer with the identical eval history hits.
    let mut same_vm = mt.realm_vm();
    same_vm.eval(HOT_BRANCHY).expect("pristine consumer run");
    let same_stats = same_vm.profile().cloned().unwrap_or_default();
    assert!(
        same_stats.shared_cache_hits >= 1,
        "pristine realm must reuse the published tree: {same_stats:?}"
    );
    assert!(same_stats.shared_cache_installed_trees >= 1);
}

/// Date-formatting string churn, `date-format-tofte`-shaped: string
/// constants embedded in the trace, short-lived strings in the loop.
fn string_churn(sep: &str, iterations: u32) -> String {
    format!(
        "function pad(n) {{ return n < 10 ? '0' + n : '' + n; }}\n\
         var out = 0;\n\
         var names = ['Jan','Feb','Mar','Apr','May','Jun'];\n\
         for (var t = 0; t < {iterations}; t++) {{\n\
             var str = pad(t % 28) + '{sep}' + names[t % 6] + '{sep}' + (1970 + t % 60)\n\
                 + ' ' + pad(t % 24);\n\
             var dd = +(str.charAt(0) + str.charAt(1));\n\
             out = (out + dd + str.length) % 1000000;\n\
         }}\n\
         out"
    )
}

/// Regression: the realm fingerprint hashed live *counts*, so a
/// long-lived realm that had collected and recycled string cells could
/// return to the counts it (or another realm) published under and
/// install a tree whose embedded string handles were stale — `stale
/// string handle` panic in `Heap::string` (round 24 of this sequence
/// before the fix). One realm re-evaluates three churn programs in a
/// fixed pseudo-random order against a shared cache, collecting often.
#[test]
fn recycled_heap_cells_never_install_stale_shared_trees() {
    // Compiling on the request thread keeps the sequence exact.
    let opts = JitOptions { background_compile: false, ..JitOptions::default() };
    let mt = MultiTenantVm::with_options(opts, 1);
    let programs = [string_churn("-", 600), string_churn("/", 500), string_churn("::", 700)];
    let expected: Vec<_> = programs
        .iter()
        .map(|src| isolated_run(&[src.as_str()], JitOptions::default()).remove(0).0)
        .collect();
    let mut vm = mt.realm_vm();
    vm.realm.heap.set_gc_threshold(512);
    let mut x = 12345u32;
    for round in 0..40 {
        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        let p = (x >> 16) as usize % programs.len();
        let got = match vm.eval(&programs[p]) {
            Ok(v) => Ok(tracemonkey::runtime::ops::to_display(&mut vm.realm, v)),
            Err(e) => Err(e.to_string()),
        };
        assert_eq!(got, expected[p], "round {round}, program {p}");
    }
    assert!(vm.realm.heap.gc_stats().collections > 0, "the realm must have recycled cells");
    assert!(mt.shared_stats().publishes >= 1, "the realm must have published trees");
}

/// Regression (Send-audit hazard): concurrent saves of the persistent
/// cache to one path used a pid-only temp name, so two realm threads
/// interleaved writes into the same temp file and could rename a torn
/// image into place. With per-writer temp names every interleaving ends
/// with a valid cache file (last writer wins, never corruption).
#[test]
fn concurrent_cache_saves_never_tear_the_file() {
    let dir = std::env::temp_dir().join(format!("tm_mt_save_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("shared.tmc");
    let mt = MultiTenantVm::new(1);
    // One eval per realm: every realm saves from an identical fresh-realm
    // state, so whichever save wins the race, the stored fingerprint is
    // the one a fresh warm-starting realm presents.
    let jobs: Vec<RealmJob> = (0..4)
        .map(|_| {
            let mut j = RealmJob::repeat(HOT_BRANCHY, 1);
            j.cache_path = Some(path.clone());
            j
        })
        .collect();
    let reports = mt.run(jobs);
    let expected = isolated_run(&[HOT_BRANCHY], JitOptions::default()).remove(0).0;
    for rep in &reports {
        for r in &rep.results {
            assert_eq!(*r, expected);
        }
    }
    // The surviving file must be a loadable, revalidatable image: a
    // fresh realm warm-starts from it without a cache error.
    let mut warm = CoreVm::new(CoreEngine::Tracing);
    warm.set_cache_path(Some(path.clone()));
    warm.eval(HOT_BRANCHY).expect("warm run");
    assert!(
        warm.last_cache_error().is_none(),
        "torn cache image: {:?}",
        warm.last_cache_error()
    );
    let stats = warm.profile().cloned().unwrap_or_default();
    assert!(
        stats.cache_loaded_trees >= 1,
        "warm start must actually load trees: {stats:?}"
    );
    // No stray temp files left behind by the racing writers.
    let strays: Vec<_> = std::fs::read_dir(&dir)
        .expect("readdir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
        .collect();
    assert!(strays.is_empty(), "leftover temp files: {strays:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persisted `.tmc` composes with the shared cache: the first realm to
/// load it republishes the trees, so sibling realms in the same process
/// warm-start through memory without touching the file.
#[test]
fn one_tmc_warm_starts_all_realms() {
    let dir = std::env::temp_dir().join(format!("tm_mt_warm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("warm.tmc");
    // Cold process: one realm compiles and saves.
    {
        let mt = MultiTenantVm::new(1);
        let mut j = RealmJob::repeat(HOT_BRANCHY, 1);
        j.cache_path = Some(path.clone());
        mt.run(vec![j]);
    }
    // Warm process: realm 0 loads the file; realm 1 has no cache path at
    // all, yet must still find the trees through the shared cache.
    let mt = MultiTenantVm::with_options(
        {
            let mut o = JitOptions::default();
            o.background_compile = false;
            o
        },
        1,
    );
    let mut loader = mt.realm_vm();
    loader.set_cache_path(Some(path.clone()));
    loader.eval(HOT_BRANCHY).expect("loader run");
    let ls = loader.profile().cloned().unwrap_or_default();
    assert!(ls.cache_loaded_trees >= 1, "loader warm-starts from disk: {ls:?}");
    assert!(
        mt.shared_stats().publishes >= 1,
        "loaded trees must be republished to the shared cache"
    );
    let mut sibling = mt.realm_vm();
    sibling.eval(HOT_BRANCHY).expect("sibling run");
    let ss = sibling.profile().cloned().unwrap_or_default();
    assert!(
        ss.shared_cache_installed_trees >= 1,
        "sibling warm-starts from memory: {ss:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
