//! Disassembles compiled fragments — either live, by running a program
//! under tracing, or offline, from a persistent trace-cache file.
//!
//! With JTS source as argv[1] (or no argument), runs it and prints each
//! compiled fragment's post-peephole virtual-ISA listing, including the
//! `; fuse:` header with its raw→fused instruction counts. Integer ALU,
//! checked-ALU and compare lines print their operation as a field —
//! `AluI { op: Add, .. }`, `ChkAluI { op: Mul, .. }`, `CmpD { op: Lt, .. }`
//! — the same `op` the fused forms (`AluImmI`, `CmpBranchI`, ...) print.
//! Each nested-call site (§4) follows its tree: the inner tree, the exit it
//! must return through, whether the call-site export is deferred, and how
//! many of the transfer plan's bindings are read from the outer activation
//! record, the inner one, or interpreter state:
//!
//! ```sh
//! cargo run --release --example dump_fragments -- 'var s=0; for (var i=0;i<500;i++) s+=i; s'
//! ```
//!
//! If argv[1] names an existing file, it is decoded as a trace-cache
//! file instead (no program or realm needed) and dumped section by
//! section against the layout of docs/PERSISTENCE.md — the header index
//! (each record's program key, derived offset, length and checksum),
//! then every entry — the mechanical check that the spec and the codecs
//! agree:
//!
//! ```sh
//! TM_CACHE=/tmp/sieve.tmc cargo run --release --example quickstart
//! cargo run --release --example dump_fragments -- /tmp/sieve.tmc
//! ```
//!
//! With `--native` (x86-64 Linux only), each tree is additionally run
//! through the native backend (`tm-nanojit::x64`) and its machine code
//! hexdumped, interleaved with the virtual instructions it implements
//! and the exit trampolines (`exit site: ... -> return` materializes the
//! exit index for the monitor; a following `stitched: jmp fragment N`
//! line is the direct jump patched over it when a branch was stitched
//! to the exit). `CallHelper` sites carry a
//! `; helper table[i] = <name>` line resolving the per-tree helper-table
//! index to the helper it dispatches (e.g. `ConcatStrings`, or
//! `CallNative(id)` for registered builtins). Works in the offline
//! `.tmc` mode too — the emitter only needs the fragments, not a VM.

use tracemonkey::jit::nest::TransferPlan;
use tracemonkey::jit::persist::{read_cache_file, read_index};
use tracemonkey::nanojit::{emit_tree_annotated, native_supported, Fragment};
use tracemonkey::{Engine, Vm};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let native = if let Some(i) = args.iter().position(|a| a == "--native") {
        args.remove(i);
        if !native_supported() {
            eprintln!("--native: no backend for this target (needs x86-64 linux)");
            std::process::exit(1);
        }
        true
    } else {
        false
    };
    let arg = args.into_iter().next();
    if let Some(path) = arg.as_deref().filter(|a| std::path::Path::new(a).is_file()) {
        dump_cache(std::path::Path::new(path), native);
        return;
    }
    let src =
        arg.unwrap_or_else(|| "var s = 0; for (var i = 0; i < 500; i++) s += i; s".to_owned());
    let mut vm = Vm::new(Engine::Tracing);
    vm.eval(&src).expect("program runs");
    let m = vm.monitor().expect("tracing engine has a monitor");
    let prog = vm.interp().expect("the program ran").prog();
    for (t, tree) in m.cache.iter().enumerate() {
        for (f, frag) in tree.fragments.iter().enumerate() {
            println!("=== tree {t} fragment {f} ===");
            println!("{}", frag.listing());
        }
        for (s, site) in tree.nested_sites.iter().enumerate() {
            let plan = TransferPlan::build(prog, tree, site, m.cache.tree(site.inner));
            let (outer_ar, inner_ar, interp) = plan.sources();
            println!(
                "=== tree {t} nested site {s}: calls tree {} expecting exit {:?}, call-site export {}; \
                 bindings from outer AR {}, inner AR {}, interpreter {} ===",
                site.inner.0,
                site.expected_exit,
                if plan.deferred { "deferred" } else { "eager" },
                outer_ar,
                inner_ar,
                interp,
            );
        }
        if native {
            dump_native(t, &tree.fragments);
        }
    }
    let stats = &m.profiler.stats;
    println!(
        "=== {} tree runs: {} nested calls ({} with the call-site export deferred), {} from the monitor ===",
        stats.trace_enters,
        stats.nested_calls,
        stats.nested_deferred,
        stats.trace_enters - stats.nested_calls,
    );
}

/// Emits tree `t`'s fragments through the native backend and prints the
/// annotated hexdump (one buffer per tree: trunk, branches, then the
/// shared exit trampolines).
fn dump_native(t: usize, fragments: &[Fragment]) {
    match emit_tree_annotated(fragments) {
        Ok(nt) => {
            println!(
                "=== tree {t} native code ({} bytes, {} fragments) ===",
                nt.code_size(),
                nt.num_fragments()
            );
            print!("{}", nt.hexdump());
        }
        Err(e) => println!("=== tree {t} native code: not emitted ({e}) ==="),
    }
}

/// Offline cache-file dump: the header index (docs/PERSISTENCE.md §3),
/// then each entry's sections in the order §4 specifies them. Decoding
/// validates magic, version, the index and every body checksum; nothing
/// here needs (or touches) a VM.
fn dump_cache(path: &std::path::Path, native: bool) {
    let read = || -> Result<_, tracemonkey::CacheError> {
        let index = read_index(&mut std::fs::File::open(path)?)?;
        Ok((index, read_cache_file(path)?))
    };
    let (index, entries) = match read() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{}: {e:?}", path.display());
            std::process::exit(1);
        }
    };
    println!("cache file {} — {} entr{}", path.display(), entries.len(),
        if entries.len() == 1 { "y" } else { "ies" });
    // Offsets are derived from the lengths, not stored: the first is the
    // header length (20 + 20 × entries), each next one adds a length.
    println!("index ({} records):", index.len());
    for r in &index {
        println!(
            "  program_key={:#018x} offset={:<8} len={:<8} checksum={:#018x}",
            r.program_key, r.offset, r.len, r.checksum
        );
    }
    for e in &entries {
        println!("\n== entry program_key={:#018x} fingerprint={:#018x} ==", e.program_key, e.fingerprint);
        println!("shapes ({}):", e.shapes.len());
        for s in &e.shapes {
            println!("  id {:<4} path {:?}", s.id, s.path);
        }
        println!(
            "oracle: {} vars {:?}, {} sites {:?}",
            e.oracle_vars.len(),
            e.oracle_vars,
            e.oracle_sites.len(),
            e.oracle_sites
        );
        println!("blacklist ({}): {:?}", e.blacklist.len(), e.blacklist);
        println!("silenced anchors ({}): {:?}", e.silenced.len(), e.silenced);
        // Decoded trees carry a placeholder id (TreeCache::insert assigns
        // the real one); file order IS TreeId order, so index by position.
        for (t, tree) in e.trees.iter().enumerate() {
            println!("\n-- tree {t} anchor {:?} --", tree.anchor);
            let layout: Vec<_> = (0..tree.layout.len()).map(|i| tree.layout.key(i as u16)).collect();
            println!("layout ({} AR slots): {layout:?}", layout.len());
            println!("entry map:");
            for s in tree.entry() {
                println!("  ar {:<3} {:?} : {:?}", s.ar, s.key, s.ty);
            }
            if !tree.loop_writes.is_empty() {
                println!("loop writes: {:?}", tree.loop_writes);
            }
            for site in &tree.nested_sites {
                println!(
                    "nested call: inner tree {:?} expected_exit {:?} callsite_exit {} reimports {:?}",
                    site.inner, site.expected_exit, site.callsite_exit, site.reimports
                );
            }
            if tree.unstable {
                println!("unstable: trunk ends in an always-taken exit (§3.2)");
            }
            if tree.disabled {
                println!("disabled: never entered (§3.3 short-loop mitigation)");
            }
            for (f, frag) in tree.fragments.iter().enumerate() {
                println!(
                    "\n--- fragment {f} ({} bytecodes/iteration) ---",
                    tree.fragment_bytecodes[f]
                );
                // Fragment 0's requirements are the entry map printed above.
                if f > 0 {
                    println!("entry reqs: {:?}", tree.entry_reqs[f]);
                }
                for (x, info) in tree.exits[f].iter().enumerate() {
                    println!(
                        "exit {x}: {:?}, {} frames, {} write-backs, failures {}, branch {:?}",
                        info.kind,
                        info.frames.len(),
                        info.write_back.len(),
                        tree.exit_states[f][x].failures,
                        tree.branches[f][x]
                    );
                }
                println!("{}", frag.listing());
            }
            if native {
                dump_native(t, &tree.fragments);
            }
        }
    }
}
