//! Golden-file tests for the human-readable renderings the engine
//! produces: the bytecode disassembly (`bytecode::disasm`), the LIR
//! trace printer (`lir::printer`), and the listings of the decoded
//! executor's fused dispatch form (`Decoded::listing`, including the
//! `; fuse:` raw→fused header), pinned on fixed programs. Any change to compilation,
//! recording, or superinstruction fusion shows up as a readable diff
//! here.
//!
//! Regenerate with `TM_UPDATE_GOLDEN=1 cargo test --test golden`.

use std::path::PathBuf;

use tracemonkey::{Engine, JitOptions, Vm};

/// The pinned program: a nested loop with an inner accumulation, enough
/// to exercise function compilation, loop metadata, and a recorded trace
/// with guards and a loop edge.
const NESTED_LOOP_SRC: &str = "\
function inner(acc, i, j) {
    return (acc + i * j) | 0;
}
var total = 0;
for (var i = 0; i < 20; i = i + 1) {
    for (var j = 0; j < 10; j = j + 1) {
        total = inner(total, i, j);
    }
}
total";

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("TM_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("golden file {} missing; regenerate with TM_UPDATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from its golden file; if the change is intended, \
         regenerate with TM_UPDATE_GOLDEN=1 and review the diff"
    );
}

/// The simplest hot loop: one induction variable, one accumulation —
/// the canonical demonstration of the fused loop tail.
const COUNTING_LOOP_SRC: &str = "var s = 0; for (var i = 0; i < 500; i = i + 1) s = s + i; s";

/// Runs `src` under tracing and renders every compiled fragment fused
/// into the decoded executor's dispatch form, in cache order.
fn fused_listings(src: &str) -> String {
    let mut vm = Vm::with_options(Engine::Tracing, JitOptions::default());
    vm.eval(src).expect("program runs");
    let m = vm.monitor().expect("tracing keeps its monitor");
    let mut out = String::new();
    for (t, tree) in m.cache.iter().enumerate() {
        for (f, frag) in tree.fragments.iter().enumerate() {
            out.push_str(&format!("=== tree {t} fragment {f} ===\n"));
            out.push_str(&tracemonkey::nanojit::fuse(frag.clone()).listing());
        }
    }
    out
}

#[test]
fn bytecode_disassembly_is_stable() {
    let mut realm = tracemonkey::Realm::new();
    let ast = tracemonkey::frontend::parse(NESTED_LOOP_SRC).expect("parses");
    let prog = tracemonkey::bytecode::compile(&ast, &mut realm).expect("compiles");
    let text = tracemonkey::bytecode::disasm::disassemble(&prog, &realm);
    // Sanity before pinning: both functions and their loops are present.
    assert!(text.contains("function inner"));
    assert!(text.contains("loops=2") || text.contains("loopheader"));
    check_golden("nested_loop.disasm.txt", &text);
}

#[test]
fn recorded_lir_is_stable() {
    let mut opts = JitOptions::default();
    opts.log_events = true;
    let mut vm = Vm::with_options(Engine::Tracing, opts);
    vm.eval(NESTED_LOOP_SRC).expect("program runs");
    let m = vm.monitor().expect("tracing keeps its monitor");
    let tree = m.cache.iter().next().expect("the hot inner loop recorded a tree");
    let trace = tree.lir.first().expect("log_events retains the trunk LIR");
    let text = tracemonkey::lir::printer::print_trace(trace);
    // Sanity before pinning: a real trace with a guard and a loop edge.
    assert!(text.contains("import"));
    assert!(text.contains("loop"));
    check_golden("nested_loop.trunk.lir.txt", &text);
}

#[test]
fn counting_loop_fused_listing_is_stable() {
    let text = fused_listings(COUNTING_LOOP_SRC);
    // Sanity before pinning: fusion actually fired (the superinstructions
    // themselves are the decoded executor's own; the golden file names
    // them).
    assert!(text.contains("; fuse:"), "listing carries the fuse header");
    assert!(!text.contains("(0 superinsts"), "fusion fired:\n{text}");
    check_golden("counting_loop.fused.txt", &text);
}

#[test]
fn nested_loop_fused_listing_is_stable() {
    let text = fused_listings(NESTED_LOOP_SRC);
    assert!(text.contains("; fuse:"), "listing carries the fuse header");
    assert!(text.contains("CallTree") || text.contains("superinsts"));
    check_golden("nested_loop.fused.txt", &text);
}
