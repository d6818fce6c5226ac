//! Executor for method-JIT code.
//!
//! Runs compiled [`crate::minst::MFunction`]s over a contiguous register arena (one
//! window per frame), with scripted calls as Rust-level recursion. There
//! is no bytecode decode and no operand stack, but every operation remains
//! a generic boxed-value operation — the method-compiler execution profile
//! of the paper's Figure 10 comparison.

use tm_bytecode::Program;
use tm_interp::{install, Installed};
use tm_runtime::ops as rt_ops;
use tm_runtime::{Callee, IcStats, NativeId, PropIc, Realm, RuntimeError, Value};

use crate::compile::compile_program;
use crate::minst::{MInst, MProgram};

/// Maximum scripted call depth. Scripted calls recurse on the Rust stack;
/// debug-build frames are an order of magnitude larger, so the bound is
/// build-dependent to stay within default thread stacks.
#[cfg(debug_assertions)]
const MAX_CALL_DEPTH: usize = 200;
/// Release-build call depth bound.
#[cfg(not(debug_assertions))]
const MAX_CALL_DEPTH: usize = 1000;

/// The method-JIT virtual machine.
#[derive(Debug)]
pub struct MethodVm {
    prog: Program,
    mprog: MProgram,
    installed: Installed,
    regs: Vec<Value>,
    depth: usize,
    /// Dynamic instruction count (diagnostics / benchmarks).
    pub insts_executed: u64,
    /// Per-site property inline caches (indexed by bytecode site id).
    pub ics: Vec<PropIc>,
    /// Inline-cache hit/miss counters.
    pub ic_stats: IcStats,
    /// Remaining instruction budget.
    pub steps_remaining: u64,
}

impl MethodVm {
    /// Compiles and installs `prog` into `realm`.
    pub fn new(prog: Program, realm: &mut Realm) -> MethodVm {
        let installed = install(&prog, realm);
        let mprog = compile_program(&prog, &installed);
        let ics = vec![PropIc::default(); prog.prop_sites as usize];
        MethodVm {
            prog,
            mprog,
            installed,
            regs: Vec::with_capacity(256),
            depth: 0,
            insts_executed: 0,
            ics,
            ic_stats: IcStats::default(),
            steps_remaining: u64::MAX,
        }
    }

    /// The compiled program.
    pub fn mprog(&self) -> &MProgram {
        &self.mprog
    }

    /// The bytecode program.
    pub fn prog(&self) -> &Program {
        &self.prog
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// Propagates guest [`RuntimeError`]s.
    pub fn run(&mut self, realm: &mut Realm) -> Result<Value, RuntimeError> {
        self.regs.clear();
        self.depth = 0;
        let main = self.mprog.main;
        self.call_scripted(main, &[Value::UNDEFINED], false, realm)
    }

    fn roots(&self) -> Vec<Value> {
        let mut roots = self.regs.clone();
        roots.extend(self.installed.roots());
        roots
    }

    fn maybe_gc(&mut self, realm: &mut Realm) {
        if realm.heap.should_collect() || realm.heap.gc_pending {
            let roots = self.roots();
            realm.collect_garbage(&roots);
        }
    }

    /// Calls scripted function `fidx` with `args[0]` as `this`.
    #[allow(clippy::too_many_lines)]
    fn call_scripted(
        &mut self,
        fidx: u32,
        args: &[Value],
        is_construct: bool,
        realm: &mut Realm,
    ) -> Result<Value, RuntimeError> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(RuntimeError::RangeError("maximum call depth exceeded".into()));
        }
        self.depth += 1;
        let result = self.frame_loop(fidx, args, is_construct, realm);
        self.depth -= 1;
        result
    }

    fn frame_loop(
        &mut self,
        fidx: u32,
        args: &[Value],
        is_construct: bool,
        realm: &mut Realm,
    ) -> Result<Value, RuntimeError> {
        let f = &self.mprog.functions[fidx as usize];
        let nregs = f.nregs as usize;
        let nparams = f.nparams as usize;
        let base = self.regs.len();
        // Locals: this, params (padded/truncated), vars.
        self.regs.push(args.first().copied().unwrap_or(Value::UNDEFINED));
        for i in 0..nparams {
            self.regs.push(args.get(i + 1).copied().unwrap_or(Value::UNDEFINED));
        }
        self.regs.resize(base + nregs, Value::UNDEFINED);

        let mut pc = 0usize;
        let ret = loop {
            let inst = self.mprog.functions[fidx as usize].code[pc].clone();
            pc += 1;
            self.insts_executed += 1;
            if self.steps_remaining == 0 {
                self.regs.truncate(base);
                return Err(RuntimeError::StepBudgetExhausted);
            }
            self.steps_remaining -= 1;
            let r = |i: u16| base + i as usize;
            match inst {
                MInst::Const { d, v } => self.regs[r(d)] = v,
                MInst::Mov { d, s } => self.regs[r(d)] = self.regs[r(s)],
                MInst::GetGlobal { d, slot } => self.regs[r(d)] = realm.global(slot),
                MInst::SetGlobal { slot, s } => realm.set_global(slot, self.regs[r(s)]),

                MInst::Add { d, a, b } => {
                    let (x, y) = (self.regs[r(a)], self.regs[r(b)]);
                    self.regs[r(d)] = rt_ops::add_values(realm, x, y)
                        .map_err(|e| self.unwind(base, e))?;
                }
                MInst::Sub { d, a, b } => {
                    let (x, y) = (self.regs[r(a)], self.regs[r(b)]);
                    self.regs[r(d)] =
                        rt_ops::sub_values(realm, x, y).map_err(|e| self.unwind(base, e))?;
                }
                MInst::Mul { d, a, b } => {
                    let (x, y) = (self.regs[r(a)], self.regs[r(b)]);
                    self.regs[r(d)] =
                        rt_ops::mul_values(realm, x, y).map_err(|e| self.unwind(base, e))?;
                }
                MInst::Div { d, a, b } => {
                    let (x, y) = (self.regs[r(a)], self.regs[r(b)]);
                    self.regs[r(d)] =
                        rt_ops::div_values(realm, x, y).map_err(|e| self.unwind(base, e))?;
                }
                MInst::Mod { d, a, b } => {
                    let (x, y) = (self.regs[r(a)], self.regs[r(b)]);
                    self.regs[r(d)] =
                        rt_ops::mod_values(realm, x, y).map_err(|e| self.unwind(base, e))?;
                }
                MInst::Neg { d, a } => {
                    let x = self.regs[r(a)];
                    self.regs[r(d)] =
                        rt_ops::neg_value(realm, x).map_err(|e| self.unwind(base, e))?;
                }
                MInst::Pos { d, a } => {
                    let x = self.regs[r(a)];
                    self.regs[r(d)] = if x.is_number() {
                        x
                    } else {
                        let n = rt_ops::to_number(realm, x);
                        realm.heap.number(n)
                    };
                }
                MInst::Bit { d, a, b, kind } => {
                    let (x, y) = (self.regs[r(a)], self.regs[r(b)]);
                    self.regs[r(d)] =
                        rt_ops::bit_op(realm, kind, x, y).map_err(|e| self.unwind(base, e))?;
                }
                MInst::BitNot { d, a } => {
                    let x = self.regs[r(a)];
                    self.regs[r(d)] =
                        rt_ops::bitnot_value(realm, x).map_err(|e| self.unwind(base, e))?;
                }
                MInst::Rel { d, a, b, kind } => {
                    let (x, y) = (self.regs[r(a)], self.regs[r(b)]);
                    self.regs[r(d)] =
                        rt_ops::rel_op(realm, kind, x, y).map_err(|e| self.unwind(base, e))?;
                }
                MInst::Eq { d, a, b, ne } => {
                    let eq = rt_ops::loose_eq(realm, self.regs[r(a)], self.regs[r(b)]);
                    self.regs[r(d)] = Value::new_bool(eq != ne);
                }
                MInst::StrictEq { d, a, b, ne } => {
                    let eq = rt_ops::strict_eq(realm, self.regs[r(a)], self.regs[r(b)]);
                    self.regs[r(d)] = Value::new_bool(eq != ne);
                }
                MInst::Not { d, a } => {
                    let t = rt_ops::truthy(realm, self.regs[r(a)]);
                    self.regs[r(d)] = Value::new_bool(!t);
                }
                MInst::Typeof { d, a } => {
                    let s = rt_ops::typeof_str(realm, self.regs[r(a)]);
                    self.regs[r(d)] = realm.typeof_atom(s);
                }

                MInst::NewArray { d, start, count } => {
                    let elems: Vec<Value> =
                        (0..count).map(|i| self.regs[r(start + i)]).collect();
                    let id = realm.new_array(0);
                    realm.heap.object_mut(id).elements = elems.into();
                    self.regs[r(d)] = Value::new_object(id);
                    self.maybe_gc(realm);
                }
                MInst::NewObject { d } => {
                    let id = realm.new_plain_object();
                    self.regs[r(d)] = Value::new_object(id);
                    self.maybe_gc(realm);
                }
                MInst::GetProp { d, o, sym, site } => {
                    let base_v = self.regs[r(o)];
                    let r_ = match self.ics.get_mut(site as usize) {
                        Some(ic) => realm.get_prop_with_ic(base_v, sym, ic, &mut self.ic_stats),
                        None => realm.get_prop(base_v, sym),
                    };
                    self.regs[r(d)] = r_.map_err(|e| self.unwind(base, e))?;
                }
                MInst::SetProp { o, sym, s, site } => {
                    let (base_v, v) = (self.regs[r(o)], self.regs[r(s)]);
                    match self.ics.get_mut(site as usize) {
                        Some(ic) => {
                            realm.set_prop_with_ic(base_v, sym, v, ic, &mut self.ic_stats)
                        }
                        None => realm.set_prop(base_v, sym, v),
                    }
                    .map_err(|e| self.unwind(base, e))?;
                }
                MInst::GetElem { d, o, i } => {
                    let (base_v, idx) = (self.regs[r(o)], self.regs[r(i)]);
                    self.regs[r(d)] =
                        realm.get_elem(base_v, idx).map_err(|e| self.unwind(base, e))?;
                }
                MInst::SetElem { o, i, s } => {
                    let (base_v, idx, v) =
                        (self.regs[r(o)], self.regs[r(i)], self.regs[r(s)]);
                    realm.set_elem(base_v, idx, v).map_err(|e| self.unwind(base, e))?;
                }

                MInst::Call { d, callee, argc } => {
                    // Layout: callee, this, args...
                    let cr = r(callee);
                    let args: Vec<Value> =
                        self.regs[cr + 1..cr + 2 + argc as usize].to_vec();
                    let res = self
                        .dispatch_call(self.regs[cr], &args, false, realm)
                        .map_err(|e| self.unwind(base, e))?;
                    self.regs[r(d)] = res;
                    self.maybe_gc(realm);
                }
                MInst::New { d, callee, argc } => {
                    let cr = r(callee);
                    let callee_v = self.regs[cr];
                    let proto_v = realm
                        .get_prop(callee_v, realm.sym_prototype)
                        .unwrap_or(Value::NULL);
                    let proto = proto_v.as_object().or(realm.object_proto);
                    let this_obj =
                        realm.heap.alloc_object(tm_runtime::Object::new_plain(proto));
                    let mut args = Vec::with_capacity(argc as usize + 1);
                    args.push(Value::new_object(this_obj));
                    args.extend_from_slice(&self.regs[cr + 1..cr + 1 + argc as usize]);
                    let res = self
                        .dispatch_call(callee_v, &args, true, realm)
                        .map_err(|e| self.unwind(base, e))?;
                    self.regs[r(d)] = res;
                    self.maybe_gc(realm);
                }
                MInst::Return { s } => break self.regs[r(s)],
                MInst::ReturnUndef => break Value::UNDEFINED,

                MInst::Jmp { target } => pc = target as usize,
                MInst::BrFalse { s, target } => {
                    if !rt_ops::truthy(realm, self.regs[r(s)]) {
                        pc = target as usize;
                    }
                }
                MInst::BrTrue { s, target } => {
                    if rt_ops::truthy(realm, self.regs[r(s)]) {
                        pc = target as usize;
                    }
                }
                MInst::LoopHead => {
                    if realm.interrupt {
                        self.regs.truncate(base);
                        return Err(RuntimeError::Interrupted);
                    }
                    self.maybe_gc(realm);
                }
            }
        };
        let ret = if is_construct && !ret.is_object() { self.regs[base] } else { ret };
        self.regs.truncate(base);
        Ok(ret)
    }

    fn unwind(&mut self, base: usize, e: RuntimeError) -> RuntimeError {
        self.regs.truncate(base);
        e
    }

    fn dispatch_call(
        &mut self,
        callee: Value,
        args: &[Value],
        is_construct: bool,
        realm: &mut Realm,
    ) -> Result<Value, RuntimeError> {
        let Some(obj) = callee.as_object() else {
            return Err(RuntimeError::NotCallable(format!("{callee:?}")));
        };
        let Some(kind) = realm.heap.object(obj).callee else {
            return Err(RuntimeError::NotCallable("object is not a function".into()));
        };
        match kind {
            Callee::Scripted(fidx) => self.call_scripted(fidx, args, is_construct, realm),
            Callee::Native(nid) => {
                let res = realm.call_native(NativeId(nid), args)?;
                Ok(if is_construct && !res.is_object() { args[0] } else { res })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_both(src: &str) -> (Option<f64>, Option<f64>) {
        let ast = tm_frontend::parse(src).unwrap();
        // Interpreter reference.
        let mut realm_i = Realm::new();
        let prog_i = tm_bytecode::compile(&ast, &mut realm_i).unwrap();
        let mut interp = tm_interp::Interp::new(prog_i, &mut realm_i);
        let tm_interp::RunExit::Finished(vi) = interp.run(&mut realm_i).unwrap() else {
            panic!()
        };
        // Method JIT.
        let mut realm_m = Realm::new();
        let prog_m = tm_bytecode::compile(&ast, &mut realm_m).unwrap();
        let mut mvm = MethodVm::new(prog_m, &mut realm_m);
        let vm = mvm.run(&mut realm_m).unwrap();
        (realm_i.heap.number_value(vi), realm_m.heap.number_value(vm))
    }

    #[test]
    fn property_sites_warm_their_inline_caches() {
        let src = "var o = {x: 0, y: 0};
             for (var i = 0; i < 500; i++) { o.x = o.x + 1; o.y = o.x; }
             o.y";
        let ast = tm_frontend::parse(src).unwrap();
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut mvm = MethodVm::new(prog, &mut realm);
        let v = mvm.run(&mut realm).unwrap();
        assert_eq!(realm.heap.number_value(v), Some(500.0));
        // Every site misses at most a couple of times (fill + possible
        // epoch churn during object setup); the steady state is all hits.
        assert!(mvm.ic_stats.get_hits >= 900, "get hits: {:?}", mvm.ic_stats);
        assert!(mvm.ic_stats.set_hits >= 900, "set hits: {:?}", mvm.ic_stats);
        assert!(mvm.ic_stats.misses() <= 16, "misses: {:?}", mvm.ic_stats);
    }

    #[test]
    fn differential_basics() {
        for src in [
            "1 + 2 * 3",
            "var s = 0; for (var i = 0; i < 100; i++) s += i; s",
            "var s = 0; for (var i = 0; i < 20; i++) for (var j = 0; j < 20; j++) s += i ^ j; s",
            "function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } fib(15)",
            "var o = {x: 3}; var s = 0; for (var i = 0; i < 50; i++) s += o.x; s",
            "var a = [1,2,3]; a[1] += 10; a[0] + a[1] + a[2]",
            "function P(x) { this.x = x; } var p = new P(42); p.x",
            "'abc'.charCodeAt(1)",
            "var s = ''; for (var i = 0; i < 10; i++) s += 'x'; s.length",
            "Math.floor(Math.sqrt(1000))",
            "var i = 0; while (true) { i++; if (i > 10) break; } i",
            "var v = true && 5 || 9; v",
            "typeof 1 === 'number' ? 1 : 0",
            "var s = 0; for (var i = 1; i < 50; i++) s += 1000 % i; s",
        ] {
            let (vi, vm) = run_both(src);
            assert_eq!(vi, vm, "mismatch on: {src}");
        }
    }

    #[test]
    fn interrupt_stops_loops() {
        let ast = tm_frontend::parse("while (true) {}").unwrap();
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut mvm = MethodVm::new(prog, &mut realm);
        realm.interrupt = true;
        assert_eq!(mvm.run(&mut realm), Err(RuntimeError::Interrupted));
    }

    #[test]
    fn deep_recursion_is_bounded() {
        let ast =
            tm_frontend::parse("function f(n) { return f(n + 1); } f(0)").unwrap();
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut mvm = MethodVm::new(prog, &mut realm);
        assert!(matches!(mvm.run(&mut realm), Err(RuntimeError::RangeError(_))));
    }
}
