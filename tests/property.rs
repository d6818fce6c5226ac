//! Property-based tests (on the in-tree `tm-support` harness) covering
//! the core invariant families:
//!
//! * value tagging round-trips (Figure 9);
//! * shared operator semantics algebraic properties;
//! * LIR forward/backward filters preserve trace semantics (random pure
//!   integer expression DAGs executed with filters on vs. off);
//! * the register allocator never mixes up live values (implied by the
//!   same execution equivalence under register pressure);
//! * whole-program engine agreement on a grammar template.
//!
//! Each property runs at least as many cases as the old proptest setup
//! (256 default; the LIR DAG properties 128; the template programs 24).
//! On failure the harness prints the case seed — replay with
//! `TM_PROP_SEED=<seed> cargo test <test-name>`.

use tm_support::prop::{self, Config};
use tm_support::{prop_assert, prop_assert_eq, TmRng};
use tracemonkey::lir::{AluOp, CmpOp, FilterOptions, Lir, LirBuffer, LirType};
use tracemonkey::nanojit::{assemble, execute, NoNesting};
use tracemonkey::runtime::{ops, Realm};
use tracemonkey::Value;

/// A finite, normal-or-zero double (the old `f64::NORMAL | f64::ZERO`
/// strategy): random sign, mantissa in `[1, 2)`, binary exponent in
/// `[-300, 300]`, with an occasional exact zero.
fn gen_normal_or_zero(g: &mut TmRng) -> f64 {
    if g.gen_bool(0.05) {
        return 0.0;
    }
    let mantissa = 1.0 + g.unit_f64();
    let exponent = g.gen_range(-300i32..301);
    let sign = if g.gen_bool(0.5) { 1.0 } else { -1.0 };
    sign * mantissa * 2f64.powi(exponent)
}

fn gen_i32(g: &mut TmRng) -> i32 {
    g.next_u32() as i32
}

#[test]
fn value_int_round_trip() {
    prop::check("value_int_round_trip", &Config::default(), |g| {
        let i = g.gen_range(-(1i64 << 30)..(1i64 << 30));
        let v = Value::new_int_checked(i).expect("in range");
        prop_assert_eq!(v.as_int(), Some(i as i32));
        prop_assert_eq!(Value::from_raw(v.raw()), v);
        prop_assert!(v.is_number());
        Ok(())
    });
}

#[test]
fn number_boxing_preserves_value() {
    prop::check("number_boxing_preserves_value", &Config::default(), |g| {
        let d = gen_normal_or_zero(g);
        let mut realm = Realm::new();
        let v = realm.heap.number(d);
        prop_assert_eq!(realm.heap.number_value(v), Some(d));
        Ok(())
    });
}

#[test]
fn to_int32_is_additive_mod_2_32() {
    prop::check("to_int32_is_additive_mod_2_32", &Config::default(), |g| {
        // ToInt32(a) + ToInt32(b) ≡ a + b (mod 2^32): the property the
        // trace's wrapping integer ops rely on.
        let (a, b) = (gen_i32(g), gen_i32(g));
        let wrap = ops::double_to_int32(f64::from(a) + f64::from(b));
        prop_assert_eq!(wrap, a.wrapping_add(b));
        Ok(())
    });
}

#[test]
fn strict_eq_is_reflexive_for_non_nan() {
    prop::check("strict_eq_is_reflexive_for_non_nan", &Config::default(), |g| {
        let i = gen_i32(g);
        let mut realm = Realm::new();
        let v = realm.heap.number_i32(i);
        prop_assert!(ops::strict_eq(&realm, v, v));
        Ok(())
    });
}

#[test]
fn add_values_matches_f64_semantics() {
    prop::check("add_values_matches_f64_semantics", &Config::default(), |g| {
        let (a, b) = (g.gen_range(-1e9..1e9), g.gen_range(-1e9..1e9));
        let mut realm = Realm::new();
        let va = realm.heap.number(a);
        let vb = realm.heap.number(b);
        let sum = ops::add_values(&mut realm, va, vb).expect("numbers add");
        prop_assert_eq!(realm.heap.number_value(sum), Some(a + b));
        Ok(())
    });
}

/// A random pure-integer expression DAG over two imports, expressed as LIR.
#[derive(Debug, Clone)]
enum Node {
    Import(u8),
    Const(i32),
    Alu(AluOp, Box<Node>, Box<Node>),
    /// A comparison, whose 0/1 result feeds integer arithmetic.
    Cmp(CmpOp, Box<Node>, Box<Node>),
    Un(u8, Box<Node>),
}

/// The old recursive strategy: leaves are imports/constants, inner nodes
/// binary (3:1 over unary) with the op drawn from the op enums' `ALL`,
/// recursion capped at `depth`.
fn gen_node(g: &mut TmRng, depth: u32) -> Node {
    if depth == 0 || g.gen_bool(0.3) {
        if g.gen_bool(0.4) {
            Node::Import(g.gen_range(0u32..2) as u8)
        } else {
            Node::Const(g.gen_range(-1000i32..1000))
        }
    } else if g.gen_bool(0.75) {
        let op = g.gen_range(0usize..AluOp::ALL.len() + CmpOp::ALL.len());
        let (a, b) = (Box::new(gen_node(g, depth - 1)), Box::new(gen_node(g, depth - 1)));
        match AluOp::ALL.get(op) {
            Some(&alu) => Node::Alu(alu, a, b),
            None => Node::Cmp(CmpOp::ALL[op - AluOp::ALL.len()], a, b),
        }
    } else {
        Node::Un(g.gen_range(0u32..2) as u8, Box::new(gen_node(g, depth - 1)))
    }
}

fn emit(node: &Node, buf: &mut LirBuffer, imports: &[u32; 2]) -> u32 {
    match node {
        Node::Import(i) => imports[*i as usize % 2],
        Node::Const(c) => buf.emit(Lir::ConstI(*c)),
        Node::Alu(op, a, b) => {
            let x = emit(a, buf, imports);
            let y = emit(b, buf, imports);
            buf.emit(Lir::AluI(*op, x, y))
        }
        Node::Cmp(op, a, b) => {
            let x = emit(a, buf, imports);
            let y = emit(b, buf, imports);
            buf.emit(Lir::CmpI(*op, x, y))
        }
        Node::Un(op, a) => {
            let x = emit(a, buf, imports);
            buf.emit(match op % 2 {
                0 => Lir::NotI(x),
                _ => Lir::NegI(x),
            })
        }
    }
}

/// Builds a one-shot trace computing `node` into AR slot 2 and executes it.
fn eval_node(node: &Node, a: i32, b: i32, opts: FilterOptions) -> i32 {
    let mut buf = LirBuffer::new(opts);
    let i0 = buf.emit(Lir::Import { slot: 0, ty: LirType::Int });
    let i1 = buf.emit(Lir::Import { slot: 1, ty: LirType::Int });
    let v = emit(node, &mut buf, &[i0, i1]);
    buf.emit(Lir::WriteAr { slot: 2, v });
    let e = buf.alloc_exit();
    buf.emit(Lir::End(e));
    let mut trace = buf.into_trace();
    let liveness = tracemonkey::lir::ExitLiveness { live_slots: vec![vec![2]; 8] };
    tracemonkey::lir::run_backward_filters(&mut trace, &liveness, &[]);
    let frag = assemble(&trace);
    let mut realm = Realm::new();
    let mut ar = vec![i64::from(a) as u64, i64::from(b) as u64, 0];
    execute(&[frag], &mut ar, &mut realm, &mut NoNesting, u64::MAX).expect("pure trace");
    ar[2] as i32
}

/// CSE + folding + demotion + DCE must not change what a trace
/// computes (§5.1's filters are semantics-preserving).
#[test]
fn filters_preserve_semantics() {
    prop::check("filters_preserve_semantics", &Config::with_cases(128), |g| {
        let node = gen_node(g, 5);
        let (a, b) = (gen_i32(g), gen_i32(g));
        let unopt = eval_node(&node, a, b, FilterOptions {
            fold: false, cse: false, demote: false,
        });
        let opt = eval_node(&node, a, b, FilterOptions::default());
        prop_assert_eq!(unopt, opt);
        Ok(())
    });
}

/// The greedy register allocator must produce correct code even under
/// heavy pressure (many simultaneously-live values): compare against
/// direct evaluation of the DAG.
#[test]
fn regalloc_is_correct_under_pressure() {
    fn direct(node: &Node, a: i32, b: i32) -> i32 {
        match node {
            Node::Import(0) => a,
            Node::Import(_) => b,
            Node::Const(c) => *c,
            Node::Alu(op, x, y) => op.eval(direct(x, a, b), direct(y, a, b)),
            Node::Cmp(op, x, y) => i32::from(op.eval(direct(x, a, b), direct(y, a, b))),
            Node::Un(op, x) => {
                let x = direct(x, a, b);
                if op % 2 == 0 { !x } else { x.wrapping_neg() }
            }
        }
    }

    prop::check("regalloc_is_correct_under_pressure", &Config::with_cases(128), |g| {
        let count = g.gen_range(1usize..12);
        let nodes: Vec<Node> = (0..count).map(|_| gen_node(g, 5)).collect();
        let (a, b) = (gen_i32(g), gen_i32(g));
        // All nodes' results stay live to the end: XOR them together at
        // the end to force long live ranges (spill pressure).
        let mut buf = LirBuffer::new(FilterOptions { cse: false, fold: false, ..Default::default() });
        let i0 = buf.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let i1 = buf.emit(Lir::Import { slot: 1, ty: LirType::Int });
        let vals: Vec<u32> = nodes.iter().map(|n| emit(n, &mut buf, &[i0, i1])).collect();
        let mut accum = vals[0];
        for &v in &vals[1..] {
            accum = buf.emit(Lir::AluI(AluOp::Xor, accum, v));
        }
        buf.emit(Lir::WriteAr { slot: 2, v: accum });
        let e = buf.alloc_exit();
        buf.emit(Lir::End(e));
        let trace = buf.into_trace();
        let frag = assemble(&trace);
        let mut realm = Realm::new();
        let mut ar = vec![i64::from(a) as u64, i64::from(b) as u64, 0];
        execute(&[frag], &mut ar, &mut realm, &mut NoNesting, u64::MAX).expect("pure trace");

        let mut expect = direct(&nodes[0], a, b);
        for n in &nodes[1..] {
            expect ^= direct(n, a, b);
        }
        prop_assert_eq!(ar[2] as i32, expect);
        Ok(())
    });
}

/// Mini guest programs over a grammar template: all engines agree.
#[test]
fn template_programs_agree() {
    prop::check("template_programs_agree", &Config::with_cases(24), |g| {
        let n = g.gen_range(10u32..200);
        let k = g.gen_range(1i32..50);
        let m = g.gen_range(2i32..9);
        let init = g.gen_range(-5i32..5);
        let src = format!(
            "var s = {init}; for (var i = 0; i < {n}; i++) {{ if (i % {m}) s += {k}; else s -= i; }} s"
        );
        let mut vi = tracemonkey::Vm::new(tracemonkey::Engine::Interp);
        let ri = vi.eval_number(&src).unwrap();
        let mut vt = tracemonkey::Vm::new(tracemonkey::Engine::Tracing);
        let rt = vt.eval_number(&src).unwrap();
        prop_assert_eq!(ri, rt);
        Ok(())
    });
}
