//! Direct nested calls on the native tier (`x64::DirectSite`): a caller
//! with one direct site, run against a scripted host, reaches the host
//! exactly where the site's contract says it does.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::sync::Arc;

use tm_lir::{AluOp, CmpOp, FOp, LirType};
use tm_nanojit::{
    emit_tree, execute, DirectCounts, DirectHop, DirectSite, Fragment, MachInst, NativeTree,
    NoNesting, TraceExit, TreeHost, Variables, WordFrom, WordMove,
};
use tm_runtime::trace_helpers::{word_from_f64, word_from_i32};
use tm_runtime::{Helper, NativeEffects, Realm, RuntimeError, Value};

fn w(i: i32) -> u64 {
    word_from_i32(i)
}

fn frag(ops: Vec<MachInst>, num_exits: usize) -> Vec<Fragment> {
    vec![Fragment::new(ops, 0, num_exits)]
}

fn failing_native(_realm: &mut Realm, _args: &[Value]) -> Result<Value, RuntimeError> {
    Err(RuntimeError::Other("native failure".into()))
}

/// The host of a caller with one direct site: what it was asked.
#[derive(Default)]
struct DirectHost {
    host_calls: u32,
    /// Whether a call through the host returns as expected.
    returns: bool,
    finished: Vec<Option<TraceExit>>,
    /// The chain position of each finished call's last tree.
    links: Vec<usize>,
    folded: DirectCounts,
    budget: u64,
}

impl TreeHost for DirectHost {
    fn call_tree(&mut self, _: u32, _: &mut [u64], _: &mut Realm) -> Result<bool, RuntimeError> {
        self.host_calls += 1;
        Ok(self.returns)
    }

    fn variables(
        &mut self,
        site: u32,
        part: Variables,
        _link: usize,
        _inner: &mut [u64],
        staged: &mut [u64],
        _realm: &mut Realm,
    ) -> bool {
        assert_eq!((site, part), (0, Variables::Refresh), "only the refresh reads the host");
        staged[1] = w(42);
        true
    }

    fn finish_call(
        &mut self,
        _: u32,
        link: usize,
        _: &mut [u64],
        _: &[u64],
        exit: Option<TraceExit>,
        _: &mut Realm,
    ) -> Result<bool, RuntimeError> {
        self.finished.push(exit);
        self.links.push(link);
        Ok(false)
    }

    fn fold(&mut self, counts: &mut [DirectCounts]) -> u64 {
        let c = std::mem::take(&mut counts[0]);
        let folded = &mut self.folded;
        let runs = folded.runs.iter_mut().zip(c.runs);
        let pairs = runs.chain(folded.iterations.iter_mut().zip(c.iterations));
        for (n, c) in pairs {
            *n += c;
        }
        folded.insts += c.insts;
        folded.bytecodes += c.bytecodes;
        self.budget -= c.insts;
        self.budget
    }
}

/// A caller calling `callee` at site 0 (exit 1), with the callee's
/// argument from its slot 0 and its slot 1 (an integer, from the
/// callee's double slot 1) and slot 2 (from the host) refreshed.
fn direct_pair(callee: &[Fragment]) -> (Vec<Fragment>, Vec<Option<DirectSite>>) {
    let caller = frag(vec![MachInst::CallTree { tree: 0, exit: 1 }, MachInst::End { exit: 0 }], 2);
    let word = |from, to, ty| WordMove { from, to, ty };
    let site = DirectSite {
        callee: Arc::new(emit_tree(callee).unwrap()),
        callee_ar: 2,
        args: vec![(0, vec![word(WordFrom::Outer(0, LirType::Int), 0, LirType::Int)])],
        hops: vec![],
        expected: ((0, 0), 0),
        refresh: vec![
            word(WordFrom::Inner(1, LirType::Double), 1, LirType::Int),
            word(WordFrom::Host, 2, LirType::Int),
        ],
        flush: false,
        observed: false,
    };
    (caller, vec![Some(site)])
}

/// `ar[1] = ar[0] * 0.5` through exit (0, 0) for `ar[0] < 100`, exit
/// (0, 1) otherwise.
fn half_callee() -> Vec<Fragment> {
    frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ConstW { d: 1, w: w(100) },
            MachInst::CmpI { op: CmpOp::Lt, d: 2, a: 0, b: 1 },
            MachInst::GuardTrue { s: 2, exit: 1 },
            MachInst::I2D { d: 3, a: 0 },
            MachInst::ConstW { d: 4, w: word_from_f64(0.5) },
            MachInst::AluD { op: FOp::Mul, d: 5, a: 3, b: 4 },
            MachInst::WriteAr { slot: 1, s: 5 },
            MachInst::End { exit: 0 },
        ],
        2,
    )
}

#[test]
fn a_direct_call_runs_the_callee_and_hands_every_other_way_out_to_the_host() {
    let (caller, sites) = direct_pair(&half_callee());
    let nt = NativeTree::emit(&caller, &sites).unwrap();
    assert!(nt.direct_sites()[0].is_some());
    // The caller's code holds the callee's: no other handle is left.
    drop(sites);
    let run = |n: u64, fuel: u64| {
        let mut host = DirectHost { budget: fuel, ..DirectHost::default() };
        let mut ar = vec![n, 7, 7];
        let exit = nt.execute(&mut ar, &mut Realm::new(), &mut host, fuel).unwrap();
        (exit.exit, ar, host)
    };
    // Returned: the refresh converts 2.0 to 2 and stages the host's word.
    let (exit, ar, host) = run(w(4), u64::MAX);
    assert_eq!((exit, ar), (0, vec![w(4), w(2), w(42)]));
    assert_eq!((host.host_calls, host.finished.len()), (0, 0));
    let once = DirectCounts { runs: [1, 0, 0, 0], iterations: [0; 4], insts: 9, bytecodes: 0 };
    assert_eq!(host.folded, once);
    // A refused refresh (2.5) and an unexpected exit go to the host with
    // the callee's exit; nothing was refreshed.
    for (n, want) in [(5, (0, 0)), (200, (0, 1))] {
        let (exit, ar, host) = run(w(n), u64::MAX);
        assert_eq!((exit, ar), (1, vec![w(n), 7, 7]));
        let took = host.finished[0].map(|e| (e.fragment, e.exit));
        assert_eq!((took, host.folded.runs[0]), (Some(want), 0));
    }
    // So does a callee run that spends the budget.
    let (_, _, host) = run(w(4), 9);
    assert_eq!((host.finished.len(), host.folded.runs[0]), (1, 0));
    // A refused argument (outside the 31-bit range) takes the host path
    // whole.
    let (exit, _, host) = run(w(1 << 30), u64::MAX);
    assert_eq!((exit, host.host_calls, host.finished.len()), (1, 1, 0));
}

#[test]
fn a_helper_error_in_a_direct_callee_leaves_through_the_host_and_the_epilogue() {
    let register = |realm: &mut Realm| {
        realm.register_native("test.fail", failing_native, NativeEffects::default(), None)
    };
    let id = register(&mut Realm::new());
    let callee = frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::CallHelper {
                d: 1,
                helper: Helper::CallNative(id),
                args: vec![0].into(),
                exit: 1,
            },
            MachInst::End { exit: 0 },
        ],
        2,
    );
    let (caller, sites) = direct_pair(&callee);
    let nt = NativeTree::emit(&caller, &sites).unwrap();
    let mut realm = Realm::new();
    register(&mut realm);
    let mut host = DirectHost { budget: u64::MAX, ..DirectHost::default() };
    let err = nt.execute(&mut [w(1), 0, 0], &mut realm, &mut host, u64::MAX);
    let mut realm = Realm::new();
    register(&mut realm);
    let want = execute(&callee, &mut [w(1), 0], &mut realm, &mut NoNesting, u64::MAX);
    assert_eq!(err.unwrap_err(), want.unwrap_err());
    assert_eq!(host.finished, vec![None], "the host finished the call, with no exit");
}

/// `ar[1] = ar[0] + 1` through exit (0, 0) for `ar[0] < 100`, exit
/// (0, 1) otherwise: the tree a linked call enters, (0, 0) its link.
fn plus_one_callee() -> Vec<Fragment> {
    frag(
        vec![
            MachInst::ReadAr { d: 0, slot: 0 },
            MachInst::ConstW { d: 1, w: w(100) },
            MachInst::CmpI { op: CmpOp::Lt, d: 2, a: 0, b: 1 },
            MachInst::GuardTrue { s: 2, exit: 1 },
            MachInst::ConstW { d: 3, w: w(1) },
            MachInst::AluI { op: AluOp::Add, d: 4, a: 0, b: 3 },
            MachInst::WriteAr { slot: 1, s: 4 },
            MachInst::End { exit: 0 },
        ],
        2,
    )
}

#[test]
fn a_direct_call_follows_a_sibling_link_and_hands_each_tree_back_by_position() {
    // Site 0 enters `plus_one` with the caller's slot 0; its link exit
    // moves slot 1 into `half`'s slot 0, and `half` returns as expected.
    let (caller, mut sites) = direct_pair(&plus_one_callee());
    let half = Arc::new(emit_tree(&half_callee()).unwrap());
    let word = |from, to, ty| WordMove { from, to, ty };
    let d = sites[0].as_mut().unwrap();
    d.hops.push(DirectHop {
        exits: vec![((0, 0), 5)],
        callee: half,
        callee_ar: 2,
        moves: vec![word(WordFrom::Inner(1, LirType::Int), 0, LirType::Int)],
    });
    let nt = NativeTree::emit(&caller, &sites).unwrap();
    let run = |n: i32| {
        let mut host = DirectHost { budget: u64::MAX, ..DirectHost::default() };
        let mut ar = vec![w(n), 7, 7];
        let exit = nt.execute(&mut ar, &mut Realm::new(), &mut host, u64::MAX).unwrap();
        (exit.exit, ar, host)
    };
    // 3 + 1 = 4 crosses the link; half of 4 is refreshed as 2.
    let (exit, ar, host) = run(3);
    assert_eq!((exit, ar), (0, vec![w(3), w(2), w(42)]));
    assert_eq!((host.folded.runs, host.folded.bytecodes), ([1, 1, 0, 0], 5));
    assert_eq!(host.folded.insts, 8 + 9, "both trees' instructions");
    // 4 + 1 = 5 crosses it too, but half of 5 refuses the refresh: the
    // host finishes from the second tree, the first one's run counted.
    let (exit, _, host) = run(4);
    assert_eq!((exit, host.links, host.folded.runs), (1, vec![1], [1, 0, 0, 0]));
    // 99 + 1 = 100 crosses it, and the second tree leaves through its
    // other exit.
    let (_, _, host) = run(99);
    let took = host.finished[0].map(|e| (e.fragment, e.exit));
    assert_eq!((took, host.links), (Some((0, 1)), vec![1]));
    // 200 leaves the first tree through an exit that is not its link.
    let (exit, _, host) = run(200);
    let took = host.finished[0].map(|e| (e.fragment, e.exit));
    assert_eq!((exit, took, host.links, host.folded.runs), (1, Some((0, 1)), vec![0], [0; 4]));
}

/// A caller that holds a word in every vreg across its `CallTree` and
/// stores each back after it: `ar[3..15]` in, `ar[15..27]` out.
fn twelve_vreg_caller() -> Vec<Fragment> {
    let mut code: Vec<MachInst> =
        (0..12).map(|v| MachInst::ReadAr { d: v, slot: 3 + u16::from(v) }).collect();
    code.push(MachInst::CallTree { tree: 0, exit: 1 });
    code.extend((0..12).map(|v| MachInst::WriteAr { slot: 15 + u16::from(v), s: v }));
    code.push(MachInst::End { exit: 0 });
    frag(code, 2)
}

#[test]
fn every_vreg_of_the_caller_survives_a_direct_and_a_host_call() {
    // The callee's own vregs live in the same machine registers.
    let (_, sites) = direct_pair(&half_callee());
    let caller = twelve_vreg_caller();
    let direct = NativeTree::emit(&caller, &sites).unwrap();
    let through_host = emit_tree(&caller).unwrap();
    assert!(direct.direct_sites()[0].is_some() && through_host.direct_sites().is_empty());
    for (nt, host_calls) in [(&direct, 0), (&through_host, 1)] {
        let mut ar: Vec<u64> = (0..27).map(|k| w(1000 + 7 * k)).collect();
        ar[0] = w(4);
        let mut host = DirectHost { budget: u64::MAX, returns: true, ..DirectHost::default() };
        let exit = nt.execute(&mut ar, &mut Realm::new(), &mut host, u64::MAX).unwrap();
        assert_eq!((exit.exit, host.host_calls), (0, host_calls));
        assert_eq!(ar[15..27], ar[3..15], "every vreg read back after the call");
        let want: Vec<u64> = (3..15).map(|k| w(1000 + 7 * k)).collect();
        assert_eq!(ar[3..15], want[..]);
    }
}
