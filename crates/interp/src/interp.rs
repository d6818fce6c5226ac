//! The bytecode interpreter — the mixed-mode VM's fallback engine.
//!
//! The interpreter owns the installed [`Program`] (so the trace monitor can
//! *patch* blacklisted loop headers into no-ops, §3.3) and exposes two
//! granularities of execution:
//!
//! * [`Interp::run`] — the production loop: executes until the program
//!   finishes or a [`Op::LoopHeader`] is crossed with monitoring enabled,
//!   at which point control returns to the trace monitor ("the interpreter
//!   calls into the trace monitor every time it executes a loop header
//!   no-op");
//! * [`Interp::step`] — single instruction, used while the trace recorder
//!   shadows execution (§6.3: the recorder observes each bytecode as the
//!   interpreter executes it).

use tm_bytecode::{FuncId, LoopId, Op, Program};
use tm_runtime::ops;
use tm_runtime::{Callee, IcStats, PropIc, Realm, RuntimeError, Value};

use crate::install::{install, Installed};

/// An activation record of the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// The running function.
    pub func: FuncId,
    /// Next instruction index.
    pub pc: u32,
    /// Index of local slot 0 (`this`) in the value stack.
    pub base: u32,
    /// Whether this frame was entered via `new`.
    pub is_construct: bool,
}

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Flow {
    /// Keep going.
    Normal,
    /// A loop header was crossed (monitoring enabled); `pc` has already
    /// advanced past the header op.
    LoopHeader(LoopId),
    /// The program finished with a completion value.
    Finished(Value),
}

/// Why [`Interp::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunExit {
    /// Program completed.
    Finished(Value),
    /// A monitored loop edge was crossed at `func`/`header_pc`.
    LoopEdge {
        /// Function containing the loop.
        func: FuncId,
        /// Instruction index of the `LoopHeader` op.
        header_pc: u32,
        /// The loop id.
        loop_id: LoopId,
    },
}

/// The bytecode interpreter.
#[derive(Debug)]
pub struct Interp {
    prog: Program,
    installed: Installed,
    /// The value stack: every frame's locals followed by its operands.
    pub stack: Vec<Value>,
    /// The frame stack; `frames.last()` is the running frame.
    pub frames: Vec<Frame>,
    /// When true, crossing a `LoopHeader` returns control to the caller
    /// (the trace monitor).
    pub monitor_enabled: bool,
    /// Dynamic count of bytecodes executed by this interpreter.
    pub ops_executed: u64,
    /// Remaining instruction budget (guards runaway fuzz programs).
    pub steps_remaining: u64,
    /// Per-site property inline caches, indexed by the site id carried in
    /// `GetProp`/`SetProp`/`InitProp` (see [`Program::prop_sites`]).
    ///
    /// [`Program::prop_sites`]: tm_bytecode::Program::prop_sites
    pub ics: Vec<PropIc>,
    /// Hit/miss counters for [`Interp::ics`].
    pub ic_stats: IcStats,
}

impl Interp {
    /// Installs `prog` into `realm` and prepares an interpreter positioned
    /// at the start of the script body.
    pub fn new(prog: Program, realm: &mut Realm) -> Interp {
        let installed = install(&prog, realm);
        let ics = vec![PropIc::default(); prog.prop_sites as usize];
        let mut interp = Interp {
            prog,
            installed,
            stack: Vec::with_capacity(256),
            frames: Vec::with_capacity(16),
            monitor_enabled: false,
            ops_executed: 0,
            steps_remaining: u64::MAX,
            ics,
            ic_stats: IcStats::default(),
        };
        interp.reset();
        interp
    }

    /// Rewinds to the start of the script body (does not reset globals).
    pub fn reset(&mut self) {
        self.stack.clear();
        self.frames.clear();
        let main = self.prog.main;
        let nlocals = self.prog.function(main).nlocals as usize;
        self.stack.resize(nlocals, Value::UNDEFINED);
        self.frames.push(Frame { func: main, pc: 0, base: 0, is_construct: false });
    }

    /// The installed program.
    pub fn prog(&self) -> &Program {
        &self.prog
    }

    /// Installation artifacts (literals and function objects).
    pub fn installed(&self) -> &Installed {
        &self.installed
    }

    /// Patches the `LoopHeader` at `func:pc` into a `Nop` — the paper's
    /// blacklisting mechanism ("we simply replace the loop header no-op
    /// with a regular no-op; the interpreter will never again even call
    /// into the trace monitor").
    ///
    /// # Panics
    ///
    /// Panics if the instruction at `func:pc` is not a `LoopHeader`.
    pub fn patch_loop_header(&mut self, func: FuncId, pc: u32) {
        let op = &mut self.prog.functions[func.0 as usize].code[pc as usize];
        assert!(matches!(op, Op::LoopHeader(_)), "patching non-header {op:?}");
        *op = Op::Nop;
    }

    /// The currently running frame.
    ///
    /// # Panics
    ///
    /// Panics if the program has finished (no frames).
    pub fn frame(&self) -> Frame {
        *self.frames.last().expect("no running frame")
    }

    /// The instruction about to execute.
    pub fn current_op(&self) -> Op {
        let f = self.frame();
        self.prog.functions[f.func.0 as usize].code[f.pc as usize]
    }

    /// Value of local `slot` in the running frame.
    pub fn local(&self, slot: u16) -> Value {
        let f = self.frame();
        self.stack[f.base as usize + slot as usize]
    }

    /// Value of local `slot` in frame `frame_idx` (absolute index into
    /// [`Interp::frames`]).
    pub fn local_at(&self, frame_idx: usize, slot: u16) -> Value {
        let f = self.frames[frame_idx];
        self.stack[f.base as usize + slot as usize]
    }

    /// The operand stack of the running frame (everything above its
    /// locals).
    pub fn operands(&self) -> &[Value] {
        let f = self.frame();
        let nlocals = self.prog.function(f.func).nlocals as usize;
        &self.stack[f.base as usize + nlocals..]
    }

    /// Depth of the operand stack of the running frame.
    pub fn sp(&self) -> usize {
        self.operands().len()
    }

    /// GC roots owned by the interpreter (stack plus installed literals).
    pub fn roots(&self) -> Vec<Value> {
        let mut roots: Vec<Value> = self.stack.clone();
        roots.extend(self.installed.roots());
        roots
    }

    fn maybe_gc(&mut self, realm: &mut Realm) {
        if realm.heap.should_collect() || realm.heap.gc_pending {
            let roots = self.roots();
            realm.collect_garbage(&roots);
        }
    }

    /// Runs until the program finishes or (with monitoring enabled) a loop
    /// header is crossed.
    ///
    /// # Errors
    ///
    /// Propagates guest [`RuntimeError`]s, including
    /// [`RuntimeError::Interrupted`] when the preemption flag is set and
    /// [`RuntimeError::StepBudgetExhausted`] when the step budget runs out.
    pub fn run(&mut self, realm: &mut Realm) -> Result<RunExit, RuntimeError> {
        loop {
            match self.step(realm)? {
                Flow::Normal => {}
                Flow::Finished(v) => return Ok(RunExit::Finished(v)),
                Flow::LoopHeader(loop_id) => {
                    let f = self.frame();
                    return Ok(RunExit::LoopEdge {
                        func: f.func,
                        header_pc: f.pc - 1,
                        loop_id,
                    });
                }
            }
        }
    }

    /// Executes exactly one instruction.
    ///
    /// # Errors
    ///
    /// See [`Interp::run`].
    #[allow(clippy::too_many_lines)]
    pub fn step(&mut self, realm: &mut Realm) -> Result<Flow, RuntimeError> {
        let frame_idx = self.frames.len() - 1;
        let (func_id, pc, base) = {
            let f = &self.frames[frame_idx];
            (f.func, f.pc, f.base as usize)
        };
        let op = self.prog.functions[func_id.0 as usize].code[pc as usize];
        self.frames[frame_idx].pc = pc + 1;
        self.ops_executed += 1;
        if self.steps_remaining == 0 {
            return Err(RuntimeError::StepBudgetExhausted);
        }
        self.steps_remaining -= 1;

        macro_rules! push {
            ($v:expr) => {
                self.stack.push($v)
            };
        }
        macro_rules! pop {
            () => {
                self.stack.pop().expect("operand stack underflow")
            };
        }
        macro_rules! binop {
            ($f:path) => {{
                let b = pop!();
                let a = pop!();
                push!($f(realm, a, b)?);
            }};
        }
        macro_rules! relop {
            ($rel:expr) => {{
                let b = pop!();
                let a = pop!();
                push!(ops::rel_op(realm, $rel, a, b)?);
            }};
        }

        match op {
            Op::Int(i) => push!(Value::new_int(i)),
            Op::Num(i) => push!(self.installed.literals.numbers[i as usize]),
            Op::Str(i) => push!(self.installed.literals.atoms[i as usize]),
            Op::True => push!(Value::TRUE),
            Op::False => push!(Value::FALSE),
            Op::Null => push!(Value::NULL),
            Op::Undefined => push!(Value::UNDEFINED),

            Op::GetLocal(slot) => push!(self.stack[base + slot as usize]),
            Op::SetLocal(slot) => {
                let v = pop!();
                self.stack[base + slot as usize] = v;
            }
            Op::GetGlobal(slot) => push!(realm.global(slot)),
            Op::SetGlobal(slot) => {
                let v = pop!();
                realm.set_global(slot, v);
            }

            Op::Pop => {
                pop!();
            }
            Op::Dup => {
                let v = *self.stack.last().expect("dup on empty stack");
                push!(v);
            }
            Op::Swap => {
                let len = self.stack.len();
                self.stack.swap(len - 1, len - 2);
            }

            Op::Add => binop!(ops::add_values),
            Op::Sub => binop!(ops::sub_values),
            Op::Mul => binop!(ops::mul_values),
            Op::Div => binop!(ops::div_values),
            Op::Mod => binop!(ops::mod_values),
            Op::Neg => {
                let a = pop!();
                push!(ops::neg_value(realm, a)?);
            }
            Op::Pos => {
                let a = pop!();
                if a.is_number() {
                    push!(a);
                } else {
                    let n = ops::to_number(realm, a);
                    push!(realm.heap.number(n));
                }
            }
            Op::BitAnd => {
                let b = pop!();
                let a = pop!();
                push!(ops::bit_op(realm, ops::BitOp::And, a, b)?);
            }
            Op::BitOr => {
                let b = pop!();
                let a = pop!();
                push!(ops::bit_op(realm, ops::BitOp::Or, a, b)?);
            }
            Op::BitXor => {
                let b = pop!();
                let a = pop!();
                push!(ops::bit_op(realm, ops::BitOp::Xor, a, b)?);
            }
            Op::Shl => {
                let b = pop!();
                let a = pop!();
                push!(ops::bit_op(realm, ops::BitOp::Shl, a, b)?);
            }
            Op::Shr => {
                let b = pop!();
                let a = pop!();
                push!(ops::bit_op(realm, ops::BitOp::Shr, a, b)?);
            }
            Op::UShr => {
                let b = pop!();
                let a = pop!();
                push!(ops::bit_op(realm, ops::BitOp::UShr, a, b)?);
            }
            Op::BitNot => {
                let a = pop!();
                push!(ops::bitnot_value(realm, a)?);
            }
            Op::Lt => relop!(ops::RelOp::Lt),
            Op::Le => relop!(ops::RelOp::Le),
            Op::Gt => relop!(ops::RelOp::Gt),
            Op::Ge => relop!(ops::RelOp::Ge),
            Op::Eq => {
                let b = pop!();
                let a = pop!();
                push!(Value::new_bool(ops::loose_eq(realm, a, b)));
            }
            Op::Ne => {
                let b = pop!();
                let a = pop!();
                push!(Value::new_bool(!ops::loose_eq(realm, a, b)));
            }
            Op::StrictEq => {
                let b = pop!();
                let a = pop!();
                push!(Value::new_bool(ops::strict_eq(realm, a, b)));
            }
            Op::StrictNe => {
                let b = pop!();
                let a = pop!();
                push!(Value::new_bool(!ops::strict_eq(realm, a, b)));
            }
            Op::Not => {
                let a = pop!();
                push!(Value::new_bool(!ops::truthy(realm, a)));
            }
            Op::Typeof => {
                let a = pop!();
                let s = ops::typeof_str(realm, a);
                push!(realm.typeof_atom(s));
            }

            Op::NewArray(n) => {
                let n = n as usize;
                let start = self.stack.len() - n;
                let elems: Vec<Value> = self.stack.drain(start..).collect();
                let id = realm.new_array(0);
                realm.heap.object_mut(id).elements = elems.into();
                push!(Value::new_object(id));
                self.maybe_gc(realm);
            }
            Op::NewObject => {
                let id = realm.new_plain_object();
                push!(Value::new_object(id));
                self.maybe_gc(realm);
            }
            Op::InitProp(sym, site) => {
                let v = pop!();
                let obj = *self.stack.last().expect("initprop needs object");
                match self.ics.get_mut(site as usize) {
                    Some(ic) => realm.set_prop_with_ic(obj, sym, v, ic, &mut self.ic_stats)?,
                    None => realm.set_prop(obj, sym, v)?,
                }
            }
            Op::GetProp(sym, site) => {
                let obj = pop!();
                let v = match self.ics.get_mut(site as usize) {
                    Some(ic) => realm.get_prop_with_ic(obj, sym, ic, &mut self.ic_stats)?,
                    None => realm.get_prop(obj, sym)?,
                };
                push!(v);
            }
            Op::SetProp(sym, site) => {
                let v = pop!();
                let obj = pop!();
                match self.ics.get_mut(site as usize) {
                    Some(ic) => realm.set_prop_with_ic(obj, sym, v, ic, &mut self.ic_stats)?,
                    None => realm.set_prop(obj, sym, v)?,
                }
                push!(v);
            }
            Op::GetElem => {
                let idx = pop!();
                let obj = pop!();
                push!(realm.get_elem(obj, idx)?);
            }
            Op::SetElem => {
                let v = pop!();
                let idx = pop!();
                let obj = pop!();
                realm.set_elem(obj, idx, v)?;
                push!(v);
            }

            Op::Call(argc) => self.do_call(realm, argc, false)?,
            Op::New(argc) => {
                let argc_us = argc as usize;
                let callee_idx = self.stack.len() - argc_us - 1;
                let callee = self.stack[callee_idx];
                let proto_v = realm.get_prop(callee, realm.sym_prototype).unwrap_or(Value::NULL);
                let proto = proto_v.as_object().or(realm.object_proto);
                let this_obj =
                    realm.heap.alloc_object(tm_runtime::Object::new_plain(proto));
                self.stack.insert(callee_idx + 1, Value::new_object(this_obj));
                self.maybe_gc(realm);
                self.do_call(realm, argc, true)?;
            }
            Op::Return => {
                let v = pop!();
                if let Some(flow) = self.do_return(v) {
                    return Ok(flow);
                }
            }
            Op::ReturnUndef => {
                if let Some(flow) = self.do_return(Value::UNDEFINED) {
                    return Ok(flow);
                }
            }

            Op::Jump(t) => self.frames[frame_idx].pc = t,
            Op::JumpIfFalse(t) => {
                let v = pop!();
                if !ops::truthy(realm, v) {
                    self.frames[frame_idx].pc = t;
                }
            }
            Op::JumpIfTrue(t) => {
                let v = pop!();
                if ops::truthy(realm, v) {
                    self.frames[frame_idx].pc = t;
                }
            }
            Op::AndJump(t) => {
                let v = *self.stack.last().expect("andjump on empty stack");
                if ops::truthy(realm, v) {
                    pop!();
                } else {
                    self.frames[frame_idx].pc = t;
                }
            }
            Op::OrJump(t) => {
                let v = *self.stack.last().expect("orjump on empty stack");
                if ops::truthy(realm, v) {
                    self.frames[frame_idx].pc = t;
                } else {
                    pop!();
                }
            }
            Op::LoopHeader(loop_id) => {
                if realm.interrupt {
                    return Err(RuntimeError::Interrupted);
                }
                self.maybe_gc(realm);
                if self.monitor_enabled {
                    return Ok(Flow::LoopHeader(loop_id));
                }
            }
            Op::Nop => {
                // Blacklisted loop header: preemption must still work.
                if realm.interrupt {
                    return Err(RuntimeError::Interrupted);
                }
            }
        }
        Ok(Flow::Normal)
    }

    /// Performs a call: pushes a scripted callee's frame, or runs a native
    /// one and pushes its result.
    fn do_call(
        &mut self,
        realm: &mut Realm,
        argc: u8,
        is_construct: bool,
    ) -> Result<(), RuntimeError> {
        let argc = argc as usize;
        // Stack: [callee, this, args...]
        let callee_idx = self.stack.len() - argc - 2;
        let callee = self.stack[callee_idx];
        let Some(obj_id) = callee.as_object() else {
            return Err(RuntimeError::NotCallable(format!("{callee:?}")));
        };
        let Some(callee_kind) = realm.heap.object(obj_id).callee else {
            return Err(RuntimeError::NotCallable("object is not a function".into()));
        };
        match callee_kind {
            Callee::Scripted(fidx) => {
                let func = &self.prog.functions[fidx as usize];
                let nparams = func.nparams as usize;
                let nlocals = func.nlocals as usize;
                let base = callee_idx + 1; // `this` becomes local slot 0
                // Adjust provided args to the declared parameter count.
                let have = argc;
                if have > nparams {
                    self.stack.truncate(base + 1 + nparams);
                }
                self.stack.resize(base + nlocals, Value::UNDEFINED);
                self.frames.push(Frame {
                    func: FuncId(fidx),
                    pc: 0,
                    base: base as u32,
                    is_construct,
                });
            }
            Callee::Native(nid) => {
                let args: Vec<Value> = self.stack[callee_idx + 1..].to_vec();
                self.stack.truncate(callee_idx);
                let result = realm.call_native(tm_runtime::NativeId(nid), &args)?;
                let result = if is_construct && !result.is_object() {
                    args[0]
                } else {
                    result
                };
                self.stack.push(result);
                self.maybe_gc(realm);
            }
        }
        Ok(())
    }

    fn do_return(&mut self, v: Value) -> Option<Flow> {
        let frame = self.frames.pop().expect("return without frame");
        let result = if frame.is_construct && !v.is_object() {
            // `new F()` evaluates to the constructed object unless the body
            // returned an object.
            self.stack[frame.base as usize]
        } else {
            v
        };
        if self.frames.is_empty() {
            self.stack.clear();
            return Some(Flow::Finished(result));
        }
        // Drop the frame's locals/operands and the callee slot beneath.
        self.stack.truncate(frame.base as usize - 1);
        self.stack.push(result);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str) -> (Value, Realm) {
        let ast = tm_frontend::parse(src).expect("parse");
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).expect("compile");
        let mut interp = Interp::new(prog, &mut realm);
        match interp.run(&mut realm).expect("run") {
            RunExit::Finished(v) => (v, realm),
            other => panic!("unexpected exit: {other:?}"),
        }
    }

    fn eval_num(src: &str) -> f64 {
        let (v, realm) = eval(src);
        realm.heap.number_value(v).unwrap_or_else(|| panic!("not a number: {v:?}"))
    }

    fn eval_str(src: &str) -> String {
        let (v, realm) = eval(src);
        realm.heap.string_text(v.as_string().expect("string"))
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_num("1 + 2 * 3"), 7.0);
        assert_eq!(eval_num("10 / 4"), 2.5);
        assert_eq!(eval_num("7 % 3"), 1.0);
        assert_eq!(eval_num("2 + 3 * 4 - 6 / 2"), 11.0);
        assert_eq!(eval_num("-(5)"), -5.0);
        assert_eq!(eval_num("1 << 10"), 1024.0);
        assert_eq!(eval_num("-1 >>> 28"), 15.0);
        assert_eq!(eval_num("~0"), -1.0);
    }

    #[test]
    fn variables_and_loops() {
        assert_eq!(eval_num("var s = 0; for (var i = 1; i <= 10; i++) s += i; s"), 55.0);
        assert_eq!(eval_num("var i = 0; while (i < 5) i += 2; i"), 6.0);
        assert_eq!(eval_num("var i = 0; do i++; while (i < 3); i"), 3.0);
        assert_eq!(
            eval_num("var n = 0; for (var i = 0; i < 10; i++) { if (i % 2) continue; n++; } n"),
            5.0
        );
        assert_eq!(
            eval_num("var i = 0; while (true) { i++; if (i >= 7) break; } i"),
            7.0
        );
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(
            eval_num("function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } fib(10)"),
            55.0
        );
        assert_eq!(
            eval_num("function add(a, b) { return a + b; } add(2, 3)"),
            5.0
        );
        // Missing arguments are undefined; extra arguments dropped.
        assert_eq!(eval_str("function t(a, b) { return typeof b; } t(1)"), "undefined");
        assert_eq!(eval_num("function one(a) { return a; } one(1, 2, 3)"), 1.0);
    }

    #[test]
    fn objects_and_arrays() {
        assert_eq!(eval_num("var o = {x: 1, y: 2}; o.x + o.y"), 3.0);
        assert_eq!(eval_num("var a = [1, 2, 3]; a[0] + a[2]"), 4.0);
        assert_eq!(eval_num("var a = []; a[5] = 7; a.length"), 6.0);
        assert_eq!(eval_num("var o = {}; o.n = 4; o.n *= 3; o.n"), 12.0);
        assert_eq!(eval_num("var a = [1]; a[0] += 9; a[0]"), 10.0);
        assert_eq!(eval_str("var o = {a: 'x'}; o.missing === undefined ? 'yes' : 'no'"), "yes");
    }

    #[test]
    fn constructors_and_this() {
        let src = "
            function Point(x, y) { this.x = x; this.y = y; }
            function dist2(p) { return p.x * p.x + p.y * p.y; }
            var p = new Point(3, 4);
            dist2(p)
        ";
        assert_eq!(eval_num(src), 25.0);
    }

    #[test]
    fn prototype_methods() {
        let src = "
            function Counter(start) { this.n = start; }
            function bump(c, d) { c.n += d; return c.n; }
            var c = new Counter(10);
            bump(c, 5)
        ";
        assert_eq!(eval_num(src), 15.0);
    }

    #[test]
    fn method_calls_on_builtins() {
        assert_eq!(eval_num("'hello'.charCodeAt(1)"), 101.0);
        assert_eq!(eval_str("'hello'.toUpperCase()"), "HELLO");
        assert_eq!(eval_num("Math.max(3, 9)"), 9.0);
        assert_eq!(eval_num("Math.floor(3.7)"), 3.0);
        assert_eq!(eval_num("var a = [3, 1, 2]; a.push(0); a.length"), 4.0);
        assert_eq!(eval_str("[1,2,3].join('+')"), "1+2+3");
        assert_eq!(eval_num("'abc'.length"), 3.0);
    }

    #[test]
    fn string_concat_and_compare() {
        assert_eq!(eval_str("'a' + 'b' + 1"), "ab1");
        assert_eq!(eval_str("1 + 2 + 'x'"), "3x");
        assert_eq!(eval_str("'x' + 1 + 2"), "x12");
        let (v, _) = eval("'abc' < 'abd'");
        assert_eq!(v, Value::TRUE);
    }

    #[test]
    fn logical_and_ternary() {
        assert_eq!(eval_num("true && 5 || 9"), 5.0);
        assert_eq!(eval_num("false && 5 || 9"), 9.0);
        assert_eq!(eval_num("0 || 42"), 42.0);
        assert_eq!(eval_num("null ? 1 : 2"), 2.0);
        // Short circuit must not evaluate the right side.
        assert_eq!(
            eval_num("var n = 0; function f() { n = 1; return 1; } false && f(); n"),
            0.0
        );
    }

    #[test]
    fn typeof_and_equality() {
        assert_eq!(eval_str("typeof 1"), "number");
        assert_eq!(eval_str("typeof 'x'"), "string");
        assert_eq!(eval_str("typeof undefined"), "undefined");
        assert_eq!(eval_str("typeof Math"), "object");
        assert_eq!(eval_str("typeof Math.sin"), "function");
        let (v, _) = eval("1 == '1'");
        assert_eq!(v, Value::TRUE);
        let (v, _) = eval("1 === '1'");
        assert_eq!(v, Value::FALSE);
        let (v, _) = eval("null == undefined");
        assert_eq!(v, Value::TRUE);
    }

    #[test]
    fn incdec_semantics() {
        assert_eq!(eval_num("var i = 5; i++"), 5.0);
        assert_eq!(eval_num("var i = 5; ++i"), 6.0);
        assert_eq!(eval_num("var i = 5; i++; i"), 6.0);
        assert_eq!(eval_num("var a = [7]; a[0]++"), 7.0);
        assert_eq!(eval_num("var a = [7]; a[0]++; a[0]"), 8.0);
        assert_eq!(eval_num("var o = {n: 3}; --o.n; o.n"), 2.0);
        assert_eq!(eval_num("var o = {n: 3}; o.n--"), 3.0);
    }

    #[test]
    fn sieve_program_runs() {
        // The paper's Figure 1 program (fixed to count primes).
        let src = "
            var primes = [];
            for (var i = 0; i < 100; i++) primes[i] = true;
            for (var i = 2; i < 100; ++i) {
                if (!primes[i]) continue;
                for (var k = i + i; k < 100; k += i)
                    primes[k] = false;
            }
            var count = 0;
            for (var i = 2; i < 100; i++) if (primes[i]) count++;
            count
        ";
        assert_eq!(eval_num(src), 25.0);
    }

    #[test]
    fn run_returns_loop_edges_when_monitored() {
        let ast = tm_frontend::parse("var s = 0; for (var i = 0; i < 3; i++) s += i; s").unwrap();
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut interp = Interp::new(prog, &mut realm);
        interp.monitor_enabled = true;
        let mut edges = 0;
        loop {
            match interp.run(&mut realm).unwrap() {
                RunExit::LoopEdge { loop_id, .. } => {
                    assert_eq!(loop_id, LoopId(0));
                    edges += 1;
                }
                RunExit::Finished(v) => {
                    assert_eq!(realm.heap.number_value(v), Some(3.0));
                    break;
                }
            }
        }
        // Header crossed on entry plus once per completed iteration check:
        // i=0,1,2 plus the final failing check => 4 crossings.
        assert_eq!(edges, 4);
    }

    #[test]
    fn blacklist_patching_silences_monitor() {
        let ast = tm_frontend::parse("var s = 0; for (var i = 0; i < 3; i++) s += i; s").unwrap();
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut interp = Interp::new(prog, &mut realm);
        interp.monitor_enabled = true;
        // Find the loop header and patch it immediately.
        let main = interp.prog().main;
        let header = interp.prog().function(main).loops[0].header;
        interp.patch_loop_header(main, header);
        match interp.run(&mut realm).unwrap() {
            RunExit::Finished(v) => assert_eq!(realm.heap.number_value(v), Some(3.0)),
            other => panic!("monitor was called for a patched loop: {other:?}"),
        }
    }

    #[test]
    fn monitored_recursion_reports_only_loop_edges() {
        // A recursive call is an ordinary call to the interpreter: the
        // monitor hears about loop headers and the finish, nothing else.
        let src = "function f(n) { if (n == 0) return 0; for (var i = 0; i < 2; i++) {} \
                   return f(n - 1); } f(5)";
        let ast = tm_frontend::parse(src).unwrap();
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut interp = Interp::new(prog, &mut realm);
        interp.monitor_enabled = true;
        let mut edges = 0;
        loop {
            match interp.run(&mut realm).unwrap() {
                RunExit::LoopEdge { .. } => edges += 1,
                RunExit::Finished(v) => {
                    assert_eq!(realm.heap.number_value(v), Some(0.0));
                    break;
                }
            }
        }
        // f(5)..f(1) each cross their loop header three times.
        assert_eq!(edges, 15);
    }

    #[test]
    fn preemption_interrupts_loops() {
        let ast = tm_frontend::parse("while (true) {}").unwrap();
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut interp = Interp::new(prog, &mut realm);
        realm.interrupt = true;
        assert_eq!(interp.run(&mut realm), Err(RuntimeError::Interrupted));
    }

    #[test]
    fn step_budget_stops_runaway_programs() {
        let ast = tm_frontend::parse("while (true) {}").unwrap();
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut interp = Interp::new(prog, &mut realm);
        interp.steps_remaining = 10_000;
        assert_eq!(interp.run(&mut realm), Err(RuntimeError::StepBudgetExhausted));
    }

    #[test]
    fn calling_non_function_is_error() {
        let ast = tm_frontend::parse("var x = 5; x();").unwrap();
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut interp = Interp::new(prog, &mut realm);
        assert!(matches!(interp.run(&mut realm), Err(RuntimeError::NotCallable(_))));
    }

    #[test]
    fn gc_during_execution_preserves_liveness() {
        let src = "
            var keep = [];
            for (var i = 0; i < 200; i++) {
                var s = 'x' + i;
                if (i % 50 === 0) keep.push(s);
            }
            keep.length
        ";
        let ast = tm_frontend::parse(src).unwrap();
        let mut realm = Realm::new();
        realm.heap.set_gc_threshold(64);
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut interp = Interp::new(prog, &mut realm);
        let RunExit::Finished(v) = interp.run(&mut realm).unwrap() else { panic!() };
        assert_eq!(realm.heap.number_value(v), Some(4.0));
        assert!(realm.heap.gc_stats().collections > 0, "GC should have run");
    }

    #[test]
    fn ops_executed_counts() {
        let (_, _) = eval("1 + 1");
        let ast = tm_frontend::parse("1 + 1").unwrap();
        let mut realm = Realm::new();
        let prog = tm_bytecode::compile(&ast, &mut realm).unwrap();
        let mut interp = Interp::new(prog, &mut realm);
        let _ = interp.run(&mut realm).unwrap();
        assert!(interp.ops_executed >= 4);
    }
}
