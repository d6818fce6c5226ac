//! Reproduces the paper's Figure 3/4: records the sieve's inner-loop store
//! line and prints both the LIR the recorder emits and the virtual-ISA
//! code the backend assembles.
//!
//! ```sh
//! cargo run --release --example dump_lir
//! ```

use tracemonkey::lir::{CmpOp, FilterOptions, Lir, LirBuffer, LirType};
use tracemonkey::nanojit::assemble;
use tracemonkey::runtime::Helper;

fn main() {
    // Hand-build the LIR for the paper's Figure 3 — line 5 of the sample
    // program: `primes[k] = false;` with `primes` and `k` imported from
    // the trace activation record, the array-class guard, and the call to
    // the runtime's array-set helper.
    let mut buf = LirBuffer::new(FilterOptions::default());
    let primes = buf.emit(Lir::Import { slot: 0, ty: LirType::Object }); // ld state[748]
    let k = buf.emit(Lir::Import { slot: 1, ty: LirType::Int }); // ld state[764]
    buf.emit(Lir::WriteAr { slot: 2, v: primes }); // st sp[0], primes
    buf.emit(Lir::WriteAr { slot: 3, v: k }); // st sp[8], k
    let fals = buf.emit(Lir::ConstBoxed(tracemonkey::Value::FALSE.raw()));
    buf.emit(Lir::WriteAr { slot: 4, v: fals }); // st sp[16], false
    let e1 = buf.alloc_exit();
    // guard: primes is an array (Figure 3 masks the class word).
    buf.emit(Lir::GuardClass { obj: primes, class: 1, exit: e1 });
    let e2 = buf.alloc_exit();
    // call js_Array_set(primes, k, false)
    let set = buf.emit(Lir::Call {
        helper: Helper::ArraySetElem,
        args: vec![primes, k, fals].into_boxed_slice(),
        ret: LirType::Int,
        exit: e2,
    });
    let zero = buf.emit(Lir::ConstI(0));
    let ok = buf.emit(Lir::CmpI(CmpOp::Eq, set, zero));
    let e3 = buf.alloc_exit();
    buf.emit(Lir::GuardFalse(ok, e3)); // xt: side exit if js_Array_set failed
    let e4 = buf.alloc_exit();
    buf.emit(Lir::LoopBack(e4));

    let trace = buf.into_trace();
    println!("=== LIR (the paper's Figure 3 analogue) ===");
    println!("{}", tracemonkey::lir::print_trace(&trace));

    let fragment = assemble(&trace);
    println!("=== virtual-ISA code (the paper's Figure 4 analogue) ===");
    println!("{}", fragment.listing());
    println!(
        "{} machine instructions (the paper compares its 17 x86 instructions \
         with 100+ interpreted ones)",
        fragment.len()
    );
}
