//! Persistent trace cache: warm-start fidelity and hostile-input tests
//! (docs/PERSISTENCE.md).
//!
//! Each test simulates separate processes with separate `Vm` instances
//! sharing one cache file: a *cold* VM records, compiles, and persists;
//! a *warm* VM must reload every tree (verifier-gated), record nothing
//! new, and compute the identical result. Corrupted, truncated, or
//! version-skewed files must degrade to an ordinary cold start — wrong
//! results or panics are the only failures.

use std::path::PathBuf;

use tracemonkey::{Engine, JitOptions, Vm};

/// Loop-heavy corpus exercising the trace features that persist:
/// shape guards, strings, recursion, type instability, nesting.
const CORPUS: &[(&str, &str)] = &[
    (
        "sieve",
        "var primes = [];
         for (var i = 0; i < 300; i++) primes[i] = true;
         var n = 0;
         for (var i = 2; i < 300; ++i) {
             if (!primes[i]) continue;
             n++;
             for (var k = i + i; k < 300; k += i) primes[k] = false;
         }
         n",
    ),
    (
        "objects",
        "var o = {x: 1, y: 2};
         var s = 0;
         for (var i = 0; i < 400; i++) { o.x = o.x + 1; s += o.x + o.y; }
         s",
    ),
    (
        "strings",
        "var s = '';
         for (var i = 0; i < 150; i++) s = s + 'ab';
         s.length",
    ),
    (
        "recursion",
        "function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
         var s = 0;
         for (var i = 0; i < 18; i++) s += fib(i);
         s",
    ),
    (
        "unstable",
        "var x = 0;
         for (var i = 0; i < 300; i++) { if (i > 150) x += 0.5; else x += 1; }
         x",
    ),
    (
        "overflow",
        "var x = 1073741820;
         var s = 0;
         for (var i = 0; i < 100; i++) { x = x + 1; s += x % 7; }
         s",
    ),
];

struct CacheFile(PathBuf);

impl CacheFile {
    fn new(name: &str) -> CacheFile {
        let p = std::env::temp_dir()
            .join(format!("tm_cache_test_{}_{name}.tmtc", std::process::id()));
        let _ = std::fs::remove_file(&p);
        CacheFile(p)
    }
}

impl Drop for CacheFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn vm_with_cache(path: &PathBuf) -> Vm {
    let mut vm = Vm::with_options(Engine::Tracing, JitOptions::default());
    vm.set_cache_path(Some(path.clone()));
    vm
}

fn eval_num(vm: &mut Vm, src: &str) -> f64 {
    let v = vm.eval(src).expect("program runs");
    vm.realm.heap.number_value(v).expect("numeric result")
}

#[test]
fn warm_run_installs_all_trees_and_records_nothing() {
    for &(name, src) in CORPUS {
        let cache = CacheFile::new(&format!("warm_{name}"));

        // Reference result from the plain interpreter.
        let mut interp_vm = Vm::new(Engine::Interp);
        let expected = eval_num(&mut interp_vm, src);

        // Cold process: record, compile, persist.
        let mut cold = vm_with_cache(&cache.0);
        let cold_result = eval_num(&mut cold, src);
        assert_eq!(cold_result, expected, "{name}: cold result");
        assert_eq!(cold.last_cache_error(), None, "{name}: cold cache error");
        let cold_stats = cold.profile().unwrap().clone();
        let cold_trees = cold.monitor().unwrap().cache.len();
        assert!(cold_trees > 0, "{name}: cold run compiled trees");
        assert!(cache.0.exists(), "{name}: cache file written");

        // Warm process: load, verify, run natively — record nothing.
        let mut warm = vm_with_cache(&cache.0);
        let warm_result = eval_num(&mut warm, src);
        assert_eq!(warm_result, expected, "{name}: warm result");
        assert_eq!(warm.last_cache_error(), None, "{name}: warm cache error");
        let warm_stats = warm.profile().unwrap();
        assert_eq!(warm_stats.cache_hits, 1, "{name}: warm run hit the cache");
        assert_eq!(
            warm_stats.cache_loaded_trees as usize, cold_trees,
            "{name}: every cold tree was installed"
        );
        assert_eq!(
            warm_stats.cache_loaded_fragments, cold_stats.fragments,
            "{name}: every cold fragment was installed"
        );
        assert_eq!(warm_stats.traces_completed, 0, "{name}: zero warm recordings");
        assert_eq!(warm_stats.traces_aborted, 0, "{name}: zero warm aborts");
        assert_eq!(warm_stats.cache_revalidation_failures, 0, "{name}");
        assert!(
            warm_stats.trace_enters > 0,
            "{name}: warm run actually entered loaded traces"
        );
    }
}

#[test]
fn cache_files_are_deterministic_and_warm_runs_do_not_rewrite() {
    for &(name, src) in CORPUS {
        let a = CacheFile::new(&format!("det_a_{name}"));
        let b = CacheFile::new(&format!("det_b_{name}"));
        eval_num(&mut vm_with_cache(&a.0), src);
        eval_num(&mut vm_with_cache(&b.0), src);
        let bytes_a = std::fs::read(&a.0).unwrap();
        let bytes_b = std::fs::read(&b.0).unwrap();
        assert_eq!(bytes_a, bytes_b, "{name}: two cold runs serialize bit-identically");

        // A warm run that records nothing must leave the file untouched.
        eval_num(&mut vm_with_cache(&a.0), src);
        assert_eq!(std::fs::read(&a.0).unwrap(), bytes_a, "{name}: warm run rewrote the file");
    }
}

#[test]
fn loaded_entries_decode_offline() {
    let cache = CacheFile::new("offline");
    let (_, src) = CORPUS[0];
    eval_num(&mut vm_with_cache(&cache.0), src);
    let entries = tracemonkey::jit::persist::read_cache_file(&cache.0).expect("decodes");
    assert_eq!(entries.len(), 1);
    assert!(!entries[0].trees.is_empty());
    for tree in &entries[0].trees {
        assert!(!tree.fragments.is_empty());
        assert!(tree.lir.is_empty(), "diagnostic LIR is never persisted");
    }
}

#[test]
fn truncated_files_fall_back_to_cold_start() {
    let cache = CacheFile::new("trunc");
    let (_, src) = CORPUS[1];
    let mut interp_vm = Vm::new(Engine::Interp);
    let expected = eval_num(&mut interp_vm, src);
    // Two programs' entries, so the index has more than one record.
    eval_num(&mut vm_with_cache(&cache.0), CORPUS[0].1);
    eval_num(&mut vm_with_cache(&cache.0), src);
    let bytes = std::fs::read(&cache.0).unwrap();
    let index = tracemonkey::jit::persist::read_index(&mut std::fs::File::open(&cache.0).unwrap())
        .expect("a valid two-entry file");
    assert_eq!(index.len(), 2);
    let header_len = index[0].offset as usize;

    // Every cut inside the header and index, and sampled prefixes of the
    // rest, must be rejected cleanly (no panic, no wrong result) and
    // counted as a revalidation failure. (Every single-byte truncation of
    // the *container* is covered cheaply by the unit tests in
    // `tm_core::persist`; here we pay for whole VM runs.)
    let cuts: Vec<usize> = (0..header_len)
        .chain((0..12).map(|i| i * bytes.len() / 12))
        .chain([bytes.len() - 1])
        .collect();
    for cut in cuts {
        std::fs::write(&cache.0, &bytes[..cut]).unwrap();
        let mut vm = vm_with_cache(&cache.0);
        assert_eq!(eval_num(&mut vm, src), expected, "cut at {cut}");
        let stats = vm.profile().unwrap();
        assert_eq!(stats.cache_hits, 0, "cut at {cut}: must not hit");
        assert_eq!(stats.cache_loaded_trees, 0, "cut at {cut}");
        assert_eq!(stats.cache_revalidation_failures, 1, "cut at {cut}");
        assert!(vm.last_cache_error().is_some(), "cut at {cut}: error reported");
    }
}

/// A damaged entry costs only its own program: loading reads the index and
/// one body, so program A warm-starts past program B's garbage, and B's
/// cold run rewrites B's entry while copying A's bytes verbatim.
#[test]
fn a_damaged_entry_does_not_cold_start_other_programs() {
    let cache = CacheFile::new("damaged_other");
    let (_, src_a) = CORPUS[0];
    let (_, src_b) = CORPUS[4];
    let mut cold_a = vm_with_cache(&cache.0);
    let expected_a = eval_num(&mut cold_a, src_a);
    let trees_a = cold_a.monitor().unwrap().cache.len() as u64;
    eval_num(&mut vm_with_cache(&cache.0), src_b);
    let read_index = || {
        let mut f = std::fs::File::open(&cache.0).unwrap();
        tracemonkey::jit::persist::read_index(&mut f).expect("the index is intact")
    };
    let index = read_index();
    let (a, b) = (index[0], index[1]);
    let mut bytes = std::fs::read(&cache.0).unwrap();
    let body_a = bytes[a.offset as usize..][..a.len as usize].to_vec();
    bytes[b.offset as usize..][..b.len as usize].fill(0xa5);
    std::fs::write(&cache.0, &bytes).unwrap();

    let mut warm_a = vm_with_cache(&cache.0);
    assert_eq!(eval_num(&mut warm_a, src_a), expected_a);
    let s = warm_a.profile().unwrap();
    assert_eq!((s.cache_hits, s.cache_loaded_trees), (1, trees_a), "A loads every tree");
    assert_eq!(s.cache_revalidation_failures, 0);

    let mut interp_b = Vm::new(Engine::Interp);
    let expected_b = eval_num(&mut interp_b, src_b);
    let mut vm_b = vm_with_cache(&cache.0);
    assert_eq!(eval_num(&mut vm_b, src_b), expected_b);
    assert_eq!(vm_b.output(), interp_b.output());
    let s = vm_b.profile().unwrap();
    assert_eq!((s.cache_hits, s.cache_revalidation_failures), (0, 1));
    assert_eq!(vm_b.last_cache_error(), Some(&tracemonkey::CacheError::ChecksumMismatch));

    // B's save repaired its own entry and left A's bytes as they were.
    let index = read_index();
    let bytes = std::fs::read(&cache.0).unwrap();
    assert_eq!(index[0], a);
    assert_eq!(bytes[a.offset as usize..][..a.len as usize], body_a[..]);
    let mut warm_b = vm_with_cache(&cache.0);
    assert_eq!(eval_num(&mut warm_b, src_b), expected_b);
    assert_eq!(warm_b.profile().unwrap().cache_hits, 1);
}

#[test]
fn bit_flips_fall_back_to_cold_start() {
    let cache = CacheFile::new("flip");
    let (_, src) = CORPUS[1];
    let mut interp_vm = Vm::new(Engine::Interp);
    let expected = eval_num(&mut interp_vm, src);
    eval_num(&mut vm_with_cache(&cache.0), src);
    let bytes = std::fs::read(&cache.0).unwrap();

    let flips: Vec<usize> = (0..12).map(|i| i * bytes.len() / 12).collect();
    for at in flips {
        let mut bad = bytes.clone();
        bad[at] ^= 0x10;
        std::fs::write(&cache.0, &bad).unwrap();
        let mut vm = vm_with_cache(&cache.0);
        assert_eq!(eval_num(&mut vm, src), expected, "flip at {at}");
        let stats = vm.profile().unwrap();
        // A flip is either caught (revalidation failure) or it changed the
        // program key (miss); it must never install a damaged entry while
        // claiming a clean hit.
        if stats.cache_hits > 0 {
            assert_eq!(stats.cache_revalidation_failures, 0);
        } else {
            assert_eq!(
                stats.cache_revalidation_failures + stats.cache_misses,
                1,
                "flip at {at}"
            );
        }
    }
}

#[test]
fn version_skew_and_bad_magic_are_rejected() {
    let cache = CacheFile::new("skew");
    let (_, src) = CORPUS[0];
    eval_num(&mut vm_with_cache(&cache.0), src);
    let bytes = std::fs::read(&cache.0).unwrap();

    // The previous format version (same container, the ISA numbered
    // differently) and a future one: neither is read, both run cold.
    for version in [tracemonkey::jit::persist::VERSION as u8 - 1, 0xff] {
        let mut skewed = bytes.clone();
        skewed[4] = version;
        std::fs::write(&cache.0, &skewed).unwrap();
        let mut vm = vm_with_cache(&cache.0);
        vm.eval(src).unwrap();
        assert!(matches!(
            vm.last_cache_error(),
            Some(tracemonkey::CacheError::BadVersion { found }) if *found == u32::from(version)
        ));
        assert_eq!(vm.profile().unwrap().cache_hits, 0);
    }

    // Not a cache file at all.
    std::fs::write(&cache.0, b"#!/bin/sh\necho hello\n").unwrap();
    let mut vm = vm_with_cache(&cache.0);
    vm.eval(src).unwrap();
    assert!(matches!(vm.last_cache_error(), Some(tracemonkey::CacheError::BadMagic)));
    assert_eq!(vm.profile().unwrap().cache_revalidation_failures, 1);

    // In both cases the cold run repaired the file for the next process.
    let mut healed = vm_with_cache(&cache.0);
    healed.eval(src).unwrap();
    assert_eq!(healed.profile().unwrap().cache_hits, 1);
}

/// Silenced anchors name loops: an entry that silences loop id `nloops`
/// (one past the function's last loop) is refused and the run is cold.
#[test]
fn a_silenced_anchor_past_the_last_loop_is_refused() {
    let cache = CacheFile::new("silenced_past");
    let src = "var s = 0; for (var i = 0; i < 300; i++) s = (s + i) | 0; s";
    let mut cold = vm_with_cache(&cache.0);
    let expected = eval_num(&mut cold, src);
    let prog = cold.interp().unwrap().prog();
    let (main, nloops) = (prog.main, prog.function(prog.main).loops.len() as u16);
    let bytes = std::fs::read(&cache.0).unwrap();
    let index = tracemonkey::jit::persist::read_index(&mut std::fs::File::open(&cache.0).unwrap())
        .expect("a valid one-entry file");
    let body = &bytes[index[0].offset as usize..];

    // The body opens with the fingerprint and five counts — shapes, oracle
    // variables and sites, blacklist, silenced anchors — all zero for this
    // loop. Silence loop `nloops` of the main function.
    assert_eq!(body[8..28], [0; 20]);
    let mut forged = body[..24].to_vec();
    forged.extend(1u32.to_le_bytes());
    forged.extend(main.0.to_le_bytes());
    forged.extend(nloops.to_le_bytes());
    forged.extend(&body[28..]);
    let mut w = tm_support::ByteWriter::new();
    w.raw(&tracemonkey::jit::persist::MAGIC);
    w.u32(tracemonkey::jit::persist::VERSION);
    w.u32(1);
    w.u64(index[0].program_key);
    w.u32(forged.len() as u32);
    w.u64(tm_support::hash64(&forged));
    w.u64(tm_support::hash64(w.bytes()));
    w.raw(&forged);
    std::fs::write(&cache.0, w.bytes()).unwrap();

    let mut vm = vm_with_cache(&cache.0);
    assert_eq!(eval_num(&mut vm, src), expected);
    assert!(matches!(vm.last_cache_error(), Some(tracemonkey::CacheError::BadTree(_))));
    let stats = vm.profile().unwrap();
    assert_eq!((stats.cache_hits, stats.cache_loaded_trees), (0, 0), "the run is cold");
    assert_eq!(stats.cache_revalidation_failures, 1);
    assert!(stats.traces_completed > 0, "and records the loop afresh");
}

#[test]
fn different_programs_share_one_cache_file() {
    let cache = CacheFile::new("multi");
    let (_, src_a) = CORPUS[0];
    let (_, src_b) = CORPUS[4];

    eval_num(&mut vm_with_cache(&cache.0), src_a);

    // Program B misses A's entry and appends its own.
    let mut vm_b = vm_with_cache(&cache.0);
    eval_num(&mut vm_b, src_b);
    assert_eq!(vm_b.profile().unwrap().cache_misses, 1);
    assert_eq!(vm_b.profile().unwrap().cache_hits, 0);

    // Both programs now warm-start from the shared file.
    let mut warm_a = vm_with_cache(&cache.0);
    eval_num(&mut warm_a, src_a);
    assert_eq!(warm_a.profile().unwrap().cache_hits, 1);
    let mut warm_b = vm_with_cache(&cache.0);
    eval_num(&mut warm_b, src_b);
    assert_eq!(warm_b.profile().unwrap().cache_hits, 1);
    assert_eq!(
        tracemonkey::jit::persist::read_cache_file(&cache.0).unwrap().len(),
        2
    );
}

#[test]
fn mutated_realm_fails_the_fingerprint_check() {
    let cache = CacheFile::new("fingerprint");
    let (_, src) = CORPUS[1];
    let mut vm = vm_with_cache(&cache.0);
    let first = eval_num(&mut vm, src);

    // Re-evaluating in the *same* VM reuses the realm the first run
    // mutated (heap growth, RNG draws), so the install-time fingerprint
    // no longer matches and the entry must be rejected — correctness
    // over warmth.
    let second = eval_num(&mut vm, src);
    assert_eq!(first, second);
    assert!(matches!(
        vm.last_cache_error(),
        Some(tracemonkey::CacheError::FingerprintMismatch { .. })
    ));
    assert_eq!(vm.profile().unwrap().cache_revalidation_failures, 1);
    assert_eq!(vm.profile().unwrap().cache_loaded_trees, 0);
}

#[test]
fn disabled_cache_writes_nothing() {
    let cache = CacheFile::new("disabled");
    let (_, src) = CORPUS[0];
    let mut vm = Vm::with_options(Engine::Tracing, JitOptions::default());
    vm.set_cache_path(None);
    vm.eval(src).unwrap();
    assert!(!cache.0.exists());
    assert_eq!(vm.profile().unwrap().cache_hits, 0);
    assert_eq!(vm.profile().unwrap().cache_misses, 0);
}

#[test]
fn warm_restarts_converge_without_retracing_nested_trees() {
    // Miniature access-nsieve: the middle loop nest-calls the inner sieve
    // tree (§4.1). Warm restarts keep learning (exits that never got hot
    // under the cold ramp can become hot with native coverage from
    // iteration 0), but the learning must *converge*: a run must
    // eventually record nothing, still enter traces, and execute no more
    // non-native bytecodes than the cold ramp did. The historic failure
    // mode this pins down: a warm run stitching the inner tree at the
    // exit its nested-call sites guard on, which makes every outer caller
    // side-exit, trips the §3.3 short-loop disable, and re-records one
    // sibling per restart forever.
    let src = "
        function nsieve(m, isPrime) {
            var count = 0;
            for (var i = 2; i <= m; i++) isPrime[i] = true;
            for (var i = 2; i <= m; i++) {
                if (isPrime[i]) {
                    for (var k = i + i; k <= m; k += i) isPrime[k] = false;
                    count++;
                }
            }
            return count;
        }
        var total = 0;
        for (var s = 1; s <= 3; s++) {
            var isPrime = [];
            total += nsieve(400 * s, isPrime);
        }
        total";
    let cache = CacheFile::new("converge_nsieve");

    let mut cold = vm_with_cache(&cache.0);
    let expected = eval_num(&mut cold, src);
    assert_eq!(cold.last_cache_error(), None, "cold cache error");
    let cold_stats = cold.profile().unwrap().clone();
    let cold_nonnative = cold_stats.bytecodes_interp + cold_stats.bytecodes_recorded;
    assert!(cold.monitor().unwrap().cache.len() > 0, "cold run compiled trees");

    let mut quiesced = false;
    for run in 0..8 {
        let mut warm = vm_with_cache(&cache.0);
        assert_eq!(eval_num(&mut warm, src), expected, "run {run}: result");
        assert_eq!(warm.last_cache_error(), None, "run {run}: cache error");
        let s = warm.profile().unwrap();
        assert_eq!(s.cache_hits, 1, "run {run}: loaded the cache");
        if s.traces_completed == 0 && s.traces_aborted == 0 {
            assert!(s.trace_enters > 0, "quiescent run still enters traces");
            let warm_nonnative = s.bytecodes_interp + s.bytecodes_recorded;
            assert!(
                warm_nonnative <= cold_nonnative,
                "converged warm start must not exceed the cold ramp: \
                 warm {warm_nonnative} vs cold {cold_nonnative}"
            );
            quiesced = true;
            break;
        }
    }
    assert!(quiesced, "cache converged within 8 warm restarts");
}
