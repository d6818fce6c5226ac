//! A JSFUNFUZZ-style fuzzer (§6.6): generates random loop-heavy programs
//! and differentially tests every engine against the interpreter. "We
//! modified JSFUNFUZZ to generate loops, and also to test more heavily
//! certain constructs we suspected would reveal flaws" — here: nested
//! loops, type-unstable variables, integer overflow boundaries, arrays,
//! function calls (including bounded recursion), object property access,
//! string concatenation, and branchy control flow. A second family
//! ([`Gen::nested`], seeds written `n<number>`) leans on nested tree calls
//! (§4): functions that loop over their own locals and a global, called
//! from a hot loop that has inner loops of its own and may itself sit in
//! a function.
//!
//! On a divergence the harness runs the `tm-verifier` delta-debugging
//! reducer over the failing program and panics with the minimized source
//! plus a ready-to-paste regression test.

use tm_support::TmRng;
use tracemonkey::{Engine, Vm};

struct Gen {
    rng: TmRng,
    vars: Vec<String>,
    arrays: Vec<String>,
    /// Generated top-level functions: `(name, is_recursive)`.
    funcs: Vec<(String, bool)>,
    objs: Vec<String>,
    strs: Vec<String>,
    loop_depth: u32,
    next_id: u32,
    out: String,
    indent: usize,
    /// Generate the nested-call family.
    nested: bool,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            nested: false,
            rng: TmRng::seed_from_u64(seed),
            vars: Vec::new(),
            arrays: Vec::new(),
            funcs: Vec::new(),
            objs: Vec::new(),
            strs: Vec::new(),
            loop_depth: 0,
            next_id: 0,
            out: String::new(),
            indent: 0,
        }
    }

    /// The nested-call family; its programs are unrelated to
    /// [`Gen::new`]'s of the same seed.
    fn nested(seed: u64) -> Gen {
        Gen { nested: true, ..Gen::new(seed ^ 0x6e65_7374_6564) }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.next_id += 1;
        format!("{prefix}{}", self.next_id)
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// A random arithmetic expression over existing variables.
    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.gen_bool(0.35) {
            return match self.rng.gen_range(0..6) {
                0 => format!("{}", self.rng.gen_range(-100..100)),
                1 => format!("{}", self.rng.gen_range(-3.0..3.0)),
                // Values near the 31-bit boxing boundary stress the
                // overflow guards.
                2 => format!("{}", 1_073_741_823i64 - i64::from(self.rng.gen_range(0..3))),
                _ => {
                    if self.vars.is_empty() {
                        "1".to_owned()
                    } else {
                        let i = self.rng.gen_range(0..self.vars.len());
                        self.vars[i].clone()
                    }
                }
            };
        }
        let a = self.expr(depth - 1);
        let b = self.expr(depth - 1);
        let op = ["+", "-", "*", "&", "|", "^", "%", ">>", "<<", ">>>"]
            [self.rng.gen_range(0..10usize)];
        if op == "%" {
            // Avoid NaN spam (but keep some).
            format!("(({a}) % ((({b}) & 7) + 2))")
        } else {
            format!("(({a}) {op} ({b}))")
        }
    }

    fn condition(&mut self) -> String {
        let a = self.expr(1);
        let b = self.expr(1);
        let op = ["<", "<=", ">", ">=", "==", "!=", "===", "!=="][self.rng.gen_range(0..8usize)];
        format!("({a}) {op} ({b})")
    }

    /// Emits a top-level two-parameter arithmetic helper (the frontend
    /// only supports top-level function declarations).
    fn function_decl(&mut self) {
        let name = self.fresh("f");
        let p1 = self.fresh("p");
        let p2 = self.fresh("p");
        // Inside the body only the parameters are in scope.
        let saved = std::mem::replace(&mut self.vars, vec![p1.clone(), p2.clone()]);
        self.line(&format!("function {name}({p1}, {p2}) {{"));
        self.indent += 1;
        let t = self.fresh("t");
        let e = self.expr(2);
        self.line(&format!("var {t} = ({e}) | 0;"));
        self.vars.push(t.clone());
        let c = self.condition();
        let e2 = self.expr(1);
        self.line(&format!("if ({c}) {{ return ({e2}) | 0; }}"));
        let e3 = self.expr(1);
        self.line(&format!("return ({t} + ({e3})) | 0;"));
        self.indent -= 1;
        self.line("}");
        self.vars = saved;
        self.funcs.push((name, false));
    }

    /// Emits a self-recursive helper; callers bound the depth argument.
    fn recursive_decl(&mut self) {
        let name = self.fresh("rec");
        let op = ["+", "-", "^"][self.rng.gen_range(0..3usize)];
        self.line(&format!("function {name}(n, a) {{"));
        self.line(&format!("    if (n < 1) {{ return a | 0; }}"));
        self.line(&format!("    return {name}(n - 1, (a {op} n) | 0) | 0;"));
        self.line("}");
        self.funcs.push((name, true));
    }

    /// A call of one of the generated functions; recursive helpers get a
    /// masked (bounded) depth argument.
    fn call_expr(&mut self) -> Option<String> {
        if self.funcs.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.funcs.len());
        let (name, recursive) = self.funcs[i].clone();
        let a = self.expr(1);
        let b = self.expr(1);
        Some(if recursive {
            format!("{name}((({a}) & 15), ({b}) | 0)")
        } else {
            format!("{name}(({a}) | 0, ({b}) | 0)")
        })
    }

    fn statement(&mut self, budget: &mut u32) {
        if *budget == 0 {
            return;
        }
        *budget -= 1;
        match self.rng.gen_range(0..14) {
            0 | 1 => {
                // New variable.
                let v = self.fresh("v");
                let e = self.expr(2);
                self.line(&format!("var {v} = {e};"));
                self.vars.push(v);
            }
            2 | 3 => {
                // Assignment / compound assignment.
                // The nested family keeps its loop counters (`main`, `i7`)
                // read-only: every loop stays as short as it was written.
                let counter = |v: &str| v == "main" || v.starts_with('i');
                let writable = |g: &Gen, i: usize| !(g.nested && counter(&g.vars[i]));
                if let Some(i) = self.pick_var().filter(|&i| writable(self, i)) {
                    let v = self.vars[i].clone();
                    let e = self.expr(2);
                    let op = ["=", "+=", "-=", "*=", "&=", "^=", "|="]
                        [self.rng.gen_range(0..7usize)];
                    self.line(&format!("{v} {op} {e};"));
                }
            }
            4 => {
                // Array write (creates the array on first use).
                let a = if self.arrays.is_empty() || self.rng.gen_bool(0.3) {
                    let a = self.fresh("arr");
                    self.line(&format!("var {a} = [];"));
                    self.arrays.push(a.clone());
                    a
                } else {
                    let i = self.rng.gen_range(0..self.arrays.len());
                    self.arrays[i].clone()
                };
                let idx = self.rng.gen_range(0..16);
                let e = self.expr(2);
                self.line(&format!("{a}[{idx}] = {e};"));
            }
            5 => {
                // Array read into a var.
                if !self.arrays.is_empty() {
                    let ai = self.rng.gen_range(0..self.arrays.len());
                    let a = self.arrays[ai].clone();
                    let v = self.fresh("v");
                    let idx = self.rng.gen_range(0..20);
                    self.line(&format!("var {v} = {a}[{idx}] | 0;"));
                    self.vars.push(v);
                }
            }
            6 | 7 => {
                // If / else.
                let c = self.condition();
                self.line(&format!("if ({c}) {{"));
                self.indent += 1;
                self.statement(budget);
                self.indent -= 1;
                if self.rng.gen_bool(0.5) {
                    self.line("} else {");
                    self.indent += 1;
                    self.statement(budget);
                    self.indent -= 1;
                }
                self.line("}");
            }
            8 => {
                // Function call folded into a fresh variable.
                if let Some(call) = self.call_expr() {
                    let v = self.fresh("v");
                    self.line(&format!("var {v} = ({call}) | 0;"));
                    self.vars.push(v);
                }
            }
            9 => {
                // Object property write / read / bump (objects are
                // declared in the preamble, so they are always defined).
                if !self.objs.is_empty() {
                    let oi = self.rng.gen_range(0..self.objs.len());
                    let o = self.objs[oi].clone();
                    let field = ["a", "b"][self.rng.gen_range(0..2usize)];
                    match self.rng.gen_range(0..3) {
                        0 => {
                            let e = self.expr(2);
                            self.line(&format!("{o}.{field} = ({e}) | 0;"));
                        }
                        1 => {
                            let v = self.fresh("v");
                            self.line(&format!("var {v} = {o}.{field} | 0;"));
                            self.vars.push(v);
                        }
                        _ => {
                            self.line(&format!("{o}.{field} = ({o}.{field} + 1) | 0;"));
                        }
                    }
                }
            }
            10 => {
                // String concatenation (growth-bounded) or length read.
                if !self.strs.is_empty() {
                    let si = self.rng.gen_range(0..self.strs.len());
                    let s = self.strs[si].clone();
                    if self.rng.gen_bool(0.6) {
                        let piece = ["x", "yz", "q"][self.rng.gen_range(0..3usize)];
                        self.line(&format!(
                            "if ({s}.length < 80) {{ {s} = {s} + \"{piece}\"; }}"
                        ));
                    } else {
                        let v = self.fresh("v");
                        self.line(&format!("var {v} = ({s} + \"z\").length | 0;"));
                        self.vars.push(v);
                    }
                }
            }
            _ => {
                // Loop (bounded, nesting-limited).
                if self.loop_depth < 3 {
                    let i = self.fresh("i");
                    // The nested family's loops call functions that loop.
                    let n = self.rng.gen_range(3..if self.nested { 12 } else { 60 });
                    self.line(&format!("for (var {i} = 0; {i} < {n}; {i}++) {{"));
                    self.vars.push(i);
                    self.indent += 1;
                    self.loop_depth += 1;
                    let mut inner = self.rng.gen_range(1..4u32).min(*budget);
                    while inner > 0 {
                        self.statement(budget);
                        inner -= 1;
                    }
                    self.loop_depth -= 1;
                    self.indent -= 1;
                    self.line("}");
                    self.vars.pop();
                }
            }
        }
    }

    fn pick_var(&mut self) -> Option<usize> {
        if self.vars.is_empty() {
            None
        } else {
            Some(self.rng.gen_range(0..self.vars.len()))
        }
    }

    /// A bounded loop whose body bumps the global `glob` and then does
    /// what any loop body does.
    fn loop_over_glob(&mut self, budget: &mut u32) {
        let i = self.fresh("i");
        let n = self.rng.gen_range(2..12);
        self.line(&format!("for (var {i} = 0; {i} < {n}; {i}++) {{"));
        let scope = self.vars.len();
        self.vars.push(i);
        self.indent += 1;
        self.loop_depth += 1;
        let e = self.expr(2);
        let op = ["+", "^", "-"][self.rng.gen_range(0..3usize)];
        self.line(&format!("glob = (glob {op} ({e})) | 0;"));
        for _ in 0..self.rng.gen_range(0..3u32).min(*budget) {
            self.statement(budget);
        }
        self.loop_depth -= 1;
        self.indent -= 1;
        self.line("}");
        self.vars.truncate(scope);
    }

    /// Emits a top-level function that loops over its own locals and
    /// `glob`: called from the hot loop, its loop's tree is a nested call
    /// inside an inlined frame.
    fn looping_decl(&mut self) {
        let name = self.fresh("loopy");
        let p1 = self.fresh("p");
        let p2 = self.fresh("p");
        let t = self.fresh("t");
        let scope = vec![p1.clone(), p2.clone(), t.clone(), "glob".to_owned()];
        let saved = std::mem::replace(&mut self.vars, scope);
        // One loop level of its own, and no calls: what a call costs stays
        // bounded wherever the hot loop makes it.
        let saved_depth = std::mem::replace(&mut self.loop_depth, 2);
        let saved_funcs = std::mem::take(&mut self.funcs);
        self.line(&format!("function {name}({p1}, {p2}) {{"));
        self.indent += 1;
        let e = self.expr(1);
        self.line(&format!("var {t} = ({e}) | 0;"));
        let mut budget = self.rng.gen_range(1..4u32);
        self.loop_over_glob(&mut budget);
        if self.rng.gen_bool(0.3) {
            self.loop_over_glob(&mut budget);
        }
        let e = self.expr(1);
        self.line(&format!("return ({t} + ({e})) | 0;"));
        self.indent -= 1;
        self.line("}");
        self.vars = saved;
        self.loop_depth = saved_depth;
        self.funcs = saved_funcs;
        self.funcs.push((name, false));
    }

    /// The nested-call family's program.
    fn nested_program(mut self) -> String {
        self.line("var acc = 0;");
        self.line("var dbl = 0.5;");
        self.line("var glob = 1;");
        for _ in 0..self.rng.gen_range(1..4u32) {
            self.looping_decl();
        }
        let loopy = self.funcs.clone();
        if self.rng.gen_bool(0.3) {
            self.recursive_decl();
        }
        for _ in 0..self.rng.gen_range(0..2u32) {
            let o = self.fresh("obj");
            self.line(&format!("var {o} = {{ a: 1, b: 2 }};"));
            self.objs.push(o);
        }
        // Half the time the hot loop's variables are a function's locals.
        let in_function = self.rng.gen_bool(0.5);
        if in_function {
            self.line("function hot() {");
            self.indent += 1;
        }
        self.vars = vec!["acc".into(), "dbl".into(), "glob".into()];
        let outer = self.rng.gen_range(20..60);
        self.line(&format!("for (var main = 0; main < {outer}; main++) {{"));
        self.vars.push("main".into());
        self.indent += 1;
        self.loop_depth += 1;
        let mut budget = self.rng.gen_range(3..10u32);
        for (name, _) in loopy {
            if budget > 0 && self.rng.gen_bool(0.5) {
                self.statement(&mut budget);
            }
            let (a, b) = (self.expr(1), self.expr(1));
            let v = self.fresh("v");
            self.line(&format!("var {v} = {name}(({a}) | 0, ({b}) | 0) | 0;"));
            self.vars.push(v);
        }
        for _ in 0..self.rng.gen_range(1..3u32) {
            self.loop_over_glob(&mut budget);
            if budget > 0 {
                self.statement(&mut budget);
            }
        }
        let mut terms: Vec<String> = self.vars.iter().map(|v| format!("({v} | 0)")).collect();
        terms.extend(self.objs.iter().map(|o| format!("({o}.a | 0) + ({o}.b | 0)")));
        self.line(&format!("acc = (acc + {}) | 0;", terms.join(" + ")));
        self.loop_depth -= 1;
        self.indent -= 1;
        self.line("}");
        if in_function {
            self.indent -= 1;
            self.line("}");
            self.line("hot();");
        }
        self.line("(acc + glob) | 0");
        self.out
    }

    fn program(mut self) -> String {
        if self.nested {
            return self.nested_program();
        }
        // Top-level helper functions, including (sometimes) a bounded
        // recursive one.
        for _ in 0..self.rng.gen_range(0..3u32) {
            self.function_decl();
        }
        if self.rng.gen_bool(0.5) {
            self.recursive_decl();
        }
        // Seed variables of mixed types (type-instability fodder).
        self.line("var acc = 0;");
        self.vars.push("acc".into());
        self.line("var dbl = 0.5;");
        self.vars.push("dbl".into());
        // Objects and strings are declared up front so statements can
        // mutate them without ever touching an undefined binding.
        for _ in 0..self.rng.gen_range(0..3u32) {
            let o = self.fresh("obj");
            let a = self.rng.gen_range(-50..50);
            let b = self.rng.gen_range(-50..50);
            self.line(&format!("var {o} = {{ a: {a}, b: {b} }};"));
            self.objs.push(o);
        }
        for _ in 0..self.rng.gen_range(0..2u32) {
            let s = self.fresh("s");
            self.line(&format!("var {s} = \"ab\";"));
            self.strs.push(s);
        }
        // A hot outer loop so tracing definitely kicks in.
        let outer = self.rng.gen_range(20..120);
        self.line(&format!("for (var main = 0; main < {outer}; main++) {{"));
        self.vars.push("main".into());
        self.indent += 1;
        self.loop_depth += 1;
        let mut budget = self.rng.gen_range(4..14u32);
        while budget > 0 {
            self.statement(&mut budget);
        }
        // Fold locals into the accumulator so everything is observable:
        // plain variables by value, objects by field, strings by length.
        let mut terms: Vec<String> =
            self.vars.iter().map(|v| format!("({v} | 0)")).collect();
        terms.extend(self.objs.iter().map(|o| format!("({o}.a | 0) + ({o}.b | 0)")));
        terms.extend(self.strs.iter().map(|s| format!("({s}.length | 0)")));
        let fold = terms.join(" + ");
        self.line(&format!("acc = (acc + {fold}) | 0;"));
        self.loop_depth -= 1;
        self.indent -= 1;
        self.line("}");
        self.line("acc");
        self.out
    }
}

const JIT_ENGINES: [Engine; 2] = [Engine::Tracing, Engine::Method];

fn run(engine: Engine, src: &str) -> Result<String, String> {
    let mut vm = Vm::new(engine);
    vm.step_budget = 30_000_000;
    match vm.eval(src) {
        Ok(v) => Ok(tracemonkey::runtime::ops::to_display(&mut vm.realm, v)),
        Err(e) => Err(format!("{e}")),
    }
}

/// Asserts every engine computes the interpreter's answer for `src`.
/// Reduced regression tests emitted by the failure reducer call this.
fn assert_engines_agree(src: &str) {
    let baseline = run(Engine::Interp, src);
    for engine in JIT_ENGINES {
        assert_eq!(baseline, run(engine, src), "{engine:?} disagrees on:\n{src}");
    }
}

/// The reducer predicate: does any engine still disagree with the
/// interpreter on `src`? A panic (e.g. a verifier or recorder assertion)
/// counts as a reproduction.
fn engines_disagree(src: &str) -> bool {
    let src = src.to_owned();
    std::panic::catch_unwind(move || {
        let baseline = run(Engine::Interp, &src);
        JIT_ENGINES.iter().any(|&e| run(e, &src) != baseline)
    })
    .unwrap_or(true)
}

/// Shrinks a failing program with the `tm-verifier` delta-debugging
/// reducer and panics with the minimized source and a ready-to-paste
/// regression test.
fn reduce_and_report(seed: Seed, engine: Engine, src: &str) -> ! {
    // The reducer re-runs the engines hundreds of times and most probes
    // are expected to panic; silence the per-probe backtraces.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (small, stats) = tm_verifier::reduce_program(src, engines_disagree);
    std::panic::set_hook(prev_hook);
    let test = tm_verifier::as_regression_test(&format!("regress_fuzz_seed_{seed}"), &small);
    panic!(
        "seed {seed}: {engine:?} disagrees with the interpreter.\n\
         reduced {} lines to {} in {} probes; minimized program:\n{small}\n\
         suggested regression test:\n{test}",
        stats.lines_in, stats.lines_out, stats.probes
    );
}

/// A generated program's name: the family and the number it grew from.
/// Written `17`, or `n17` for the nested-call family.
#[derive(Debug, Clone, Copy)]
struct Seed {
    nested: bool,
    n: u64,
}

impl Seed {
    fn program(self) -> String {
        if self.nested { Gen::nested(self.n) } else { Gen::new(self.n) }.program()
    }

    /// `17` or `n17`.
    fn parse(part: &str, var: &str) -> Seed {
        let (nested, digits) = match part.strip_prefix('n') {
            Some(digits) => (true, digits),
            None => (false, part),
        };
        let n = digits.parse().unwrap_or_else(|_| panic!("{var}: seeds are `17` or `n17`"));
        Seed { nested, n }
    }

    /// `TM_FUZZ_SEEDS`: comma-separated seeds, or `None` when unset.
    fn list_from_env() -> Option<Vec<Seed>> {
        let list = std::env::var("TM_FUZZ_SEEDS").ok()?;
        let parse = |part| Seed::parse(part, "TM_FUZZ_SEEDS");
        Some(list.split(',').map(str::trim).filter(|p| !p.is_empty()).map(parse).collect())
    }
}

impl std::fmt::Display for Seed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", if self.nested { "n" } else { "" }, self.n)
    }
}

fn fuzz_one(seed: Seed) {
    let src = seed.program();
    let baseline = run(Engine::Interp, &src);
    for engine in JIT_ENGINES {
        let got = run(engine, &src);
        if got != baseline {
            reduce_and_report(seed, engine, &src);
        }
    }
}

fn fuzz_range(nested: bool, seeds: std::ops::Range<u64>) {
    for n in seeds {
        fuzz_one(Seed { nested, n });
    }
}

#[test]
fn fuzz_seeds_0_to_100() {
    fuzz_range(false, 0..100);
}

#[test]
fn fuzz_seeds_100_to_200() {
    fuzz_range(false, 100..200);
}

#[test]
fn fuzz_seeds_200_to_300() {
    fuzz_range(false, 200..300);
}

#[test]
fn fuzz_nested_0_to_100() {
    fuzz_range(true, 0..100);
}

/// Extended sweep, enabled with `TM_FUZZ_RANGE=start..end` (not run by
/// default; used for deeper soak testing). `n0..n2000` sweeps the
/// nested-call family.
#[test]
fn fuzz_extended_sweep() {
    for seed in seed_range_from_env().unwrap_or_default() {
        fuzz_one(seed);
    }
}

/// The seeds `TM_FUZZ_RANGE=start..end` names, if it is set.
fn seed_range_from_env() -> Option<Vec<Seed>> {
    let range = std::env::var("TM_FUZZ_RANGE").ok()?;
    let (a, b) = range.split_once("..").expect("TM_FUZZ_RANGE: start..end");
    let (a, b) = (Seed::parse(a, "TM_FUZZ_RANGE"), Seed::parse(b, "TM_FUZZ_RANGE"));
    assert_eq!(a.nested, b.nested, "TM_FUZZ_RANGE: both ends in one family");
    Some((a.n..b.n).map(|n| Seed { nested: a.nested, n }).collect())
}

/// Replays specific seeds: `TM_FUZZ_SEEDS=3,17,n250` (comma-separated;
/// `n` names the nested-call family). Used to re-check a seed a previous
/// run flagged without sweeping its whole range.
#[test]
fn fuzz_replay_seeds() {
    for seed in Seed::list_from_env().unwrap_or_default() {
        fuzz_one(seed);
    }
}

/// What a tracing run shows: the displayed result, the monitor's
/// counters, the state every nested call's return and link left
/// (`Vm::observe_nesting`), whether every direct site of its native
/// code is in an inlined frame, and the heap accesses lowered inline in
/// the native trees that ran.
type Traced =
    (Result<String, String>, tracemonkey::jit::profiler::ProfileStats, Vec<String>, bool, u32);

/// Runs `src` under the tracing JIT with the native x86-64 tier forced
/// on or off (off = the decoded dispatch-loop executor, the portable
/// reference).
/// `background` additionally attaches a two-worker compiler pool and
/// turns on `background_compile`, so traces compile off the request
/// thread and their native code is appended when the monitor installs
/// them (the `TM_FUZZ_BG=1` mode).
fn run_tracing_native(src: &str, native: bool, background: bool) -> Traced {
    let mut opts = tracemonkey::JitOptions::default();
    opts.native_backend = native;
    opts.background_compile = background;
    opts.profile = true;
    let mut vm = Vm::with_options(Engine::Tracing, opts);
    if background {
        vm.attach_pool(std::sync::Arc::new(tracemonkey::CompilerPool::new(2)));
    }
    vm.step_budget = 30_000_000;
    let log = vm.observe_nesting();
    let r = match vm.eval(src) {
        Ok(v) => Ok(tracemonkey::runtime::ops::to_display(&mut vm.realm, v)),
        Err(e) => Err(format!("{e}")),
    };
    let mut sites = vm.monitor().expect("tracing").cache.iter().flat_map(|t| {
        let direct = match &t.exec {
            tracemonkey::jit::tree::ExecCode::Native(nt) => nt.direct_sites().to_vec(),
            _ => Vec::new(),
        };
        let frames = t.nested_sites.iter().map(|s| s.callsite.frames.len()).collect::<Vec<_>>();
        direct.into_iter().zip(frames).filter_map(|(d, frames)| d.map(|_| frames))
    });
    let inlined = sites.next().is_some_and(|f| f > 1) && sites.all(|f| f > 1);
    let trees = vm.monitor().expect("tracing").cache.iter();
    let heap_inline = trees
        .filter(|t| t.stats.enters + t.stats.iterations > 0)
        .filter_map(|t| match &t.exec {
            tracemonkey::jit::tree::ExecCode::Native(nt) => {
                Some(nt.heap_sites().values().map(|n| n.inline).sum::<u32>())
            }
            _ => None,
        })
        .sum();
    let stats = vm.profile().expect("tracing engine profiles").clone();
    (r, stats, log.try_iter().collect(), inlined, heap_inline)
}

/// Native-tier differential mode: `TM_FUZZ_NATIVE=1` runs every seed's
/// program three ways — native x86-64 tier, decoded executor, and the
/// reference interpreter — and requires all three results to match
/// byte-for-byte. Also checks the accounting invariant that with the
/// native backend requested, every trace entry is counted as exactly one
/// native exit or one fallback, and, unless the native pass compiles in
/// the background (whose installs land at other loop edges), that both
/// tiers made the same nested calls, tree runs and side exits — direct
/// nested calls included — and left the same state at every call's
/// return and link. A seed set with nested-family seeds must make direct
/// calls from an inlined frame and across a sibling link. Trivially
/// passes (with a note) where the backend doesn't exist, so `ci.sh` can
/// invoke it unconditionally. Seeds come from `TM_FUZZ_SEEDS` when set,
/// else from `TM_FUZZ_RANGE`, else a built-in smoke set.
/// The object- and string-heavy seeds of `ci.sh`'s native stage: each
/// must run native code that reads the heap inline.
const HEAP_SEEDS: [u64; 5] = [9, 10, 33, 57, 71];

#[test]
fn fuzz_native_tier() {
    if std::env::var("TM_FUZZ_NATIVE").as_deref() != Ok("1") {
        return;
    }
    if !tracemonkey::nanojit::native_supported() {
        eprintln!("native backend unavailable on this target; nothing to compare");
        return;
    }
    let seeds = Seed::list_from_env()
        .or_else(seed_range_from_env)
        .unwrap_or_else(|| (0..40).map(|n| Seed { nested: false, n }).collect());
    let (mut total_native_exits, mut inlined, mut links) = (0, 0, 0);
    let nested = seeds.iter().any(|s| s.nested);
    for seed in seeds {
        let src = seed.program();
        let baseline = run(Engine::Interp, &src);
        let background = std::env::var("TM_FUZZ_BG").as_deref() == Ok("1");
        let (decoded, d, decoded_log, _, _) = run_tracing_native(&src, false, false);
        let (native, n, native_log, inlined_only, mut heap_inline) =
            run_tracing_native(&src, true, background);
        if !seed.nested && HEAP_SEEDS.contains(&seed.n) {
            // A background install may land after a short loop ended.
            if background {
                heap_inline = run_tracing_native(&src, true, false).4;
            }
            assert!(heap_inline > 0, "seed {seed}: no inline heap access ran natively:\n{src}");
        }
        let (exits, fallbacks, enters) = (n.native_exits, n.native_fallbacks, n.trace_enters);
        let first = decoded_log.iter().zip(&native_log).position(|(d, n)| d != n);
        let around = |i: usize| i.saturating_sub(2)..=i;
        let at = |log: &[String]| first.and_then(|i| Some(log.get(around(i))?.to_vec()));
        assert!(
            background || decoded_log == native_log,
            "seed {seed}: the tiers' nested calls leave different state from line {first:?}: \
             decoded {:?}, native {:?}:\n{src}",
            at(&decoded_log),
            at(&native_log)
        );
        let counts = |s: &tracemonkey::jit::profiler::ProfileStats| {
            let recordings = (s.trees, s.fragments, s.traces_completed, s.traces_aborted);
            let runs = (s.nested_calls, s.nested_deferred, s.trace_enters, s.side_exits);
            (recordings, runs, s.bytecodes_interp)
        };
        assert!(
            background || counts(&n) == counts(&d),
            "seed {seed}: ((trees, fragments, completed, aborted), (nested calls, deferred, \
             trace enters, side exits), interpreted bytecodes) native {:?}, decoded {:?}:\n{src}",
            counts(&n),
            counts(&d)
        );

        assert_eq!(
            decoded, baseline,
            "seed {seed}: decoded executor disagrees with the interpreter:\n{src}"
        );
        assert_eq!(
            native, baseline,
            "seed {seed}: native tier disagrees with the interpreter:\n{src}"
        );
        assert_eq!(
            exits + fallbacks,
            enters,
            "seed {seed}: every trace entry must be a native exit or a fallback"
        );
        total_native_exits += exits;
        // Every direct site is in an inlined frame, so each direct call
        // is one; the runs machine code made that no call ended are links.
        inlined += n.nested_direct * u64::from(inlined_only);
        links += n.trace_enters - n.host_transitions - n.nested_direct;
    }
    assert!(total_native_exits > 0, "the sweep must actually exercise the native tier");
    assert!(
        !nested || (inlined > 0 && links > 0),
        "the nested seeds must call directly from an inlined frame ({inlined} calls) and across \
         a sibling link ({links} links)"
    );
}

/// Multi-realm fuzzing: `TM_FUZZ_THREADS=K` runs each seeded program on
/// K concurrent realms sharing one code cache and background compiler
/// pool, and requires every realm, every repetition, to agree with the
/// single-threaded interpreter. Seeds come from `TM_FUZZ_SEEDS` when
/// set, else a built-in smoke set. See `docs/TESTING.md`.
#[test]
fn fuzz_multi_realm() {
    let Ok(k) = std::env::var("TM_FUZZ_THREADS") else { return };
    let k: usize = k.parse().expect("TM_FUZZ_THREADS: a thread count");
    let seeds = Seed::list_from_env()
        .unwrap_or_else(|| (0..8).map(|n| Seed { nested: false, n }).collect());
    for seed in seeds {
        let src = seed.program();
        let baseline = run(Engine::Interp, &src);
        let mt = tracemonkey::MultiTenantVm::new(2);
        // Match the baseline's step budget: a budget-exhausting program
        // must exhaust it in every realm too, not run unbounded.
        let mut job = tracemonkey::RealmJob::repeat(&src, 2);
        job.step_budget = 30_000_000;
        let reports = mt.run(vec![job; k]);
        for (realm, rep) in reports.iter().enumerate() {
            for (i, got) in rep.results.iter().enumerate() {
                if *got != baseline {
                    panic!(
                        "seed {seed}: realm {realm} rep {i} diverged under \
                         {k}-realm sharing.\ninterp: {baseline:?}\nrealm:  {got:?}\n{src}"
                    );
                }
            }
        }
    }
}

/// Committed output of the failure reducer: an injected divergence
/// signature (the 31-bit boxing-boundary constant) in the generator's
/// seed-0 program was shrunk by `tm_verifier::reduce_program` from 39
/// lines to the 8 below (see `reducer_shrinks_generated_program`). Kept
/// as a permanent engine-agreement check: a dead branch reading an
/// undeclared array around the boundary constant.
#[test]
fn regress_reduced_overflow_boundary() {
    let src = "\
        if (0) {\n\
            if ((1073741823)) {\n\
                var v0 = arr0[0] | 0;\n\
            } else {\n\
                var v0 = arr0[9] | 0;\n\
            }\n\
        } else {\n\
        }\n\
    ";
    assert_engines_agree(src);
}

/// Found by this fuzzer (seed 30) and reduced by the failure reducer:
/// branch traces recorded from a side exit inside inlined recursion
/// rebuilt their shadow frames with the caller-resume pcs rotated by one
/// (`FrameDesc::resume_pc` describes the frame itself; the shadow frame's
/// `caller_resume` belongs to the frame below). With recursion every
/// frame shares one function, so nothing caught the rotation until the
/// interpreter resumed at a pc whose stack shape differed — an operand
/// stack underflow several exits later.
#[test]
fn regress_recursive_branch_resume_pcs() {
    let src = "\
        function rec1(n, a) {\n\
            if (n < 1) { return a | 0; }\n\
            return rec1(n - 1, (a + n) | 0) | 0;\n\
        }\n\
        var acc = 0;\n\
        for (var i = 0; i < 24; i++) {\n\
            acc = (acc + rec1(i & 15, 0)) | 0;\n\
        }\n\
        acc";
    assert_engines_agree(src);
}

/// The reducer pipeline end to end on a real generated program: treat
/// "still contains the boxing-boundary constant and still runs" as the
/// failure signature, shrink the first generated program that carries it,
/// and require the result to be a tiny, still-failing repro.
#[test]
fn reducer_shrinks_generated_program() {
    let (seed, src) = (0..200u64)
        .map(|s| (s, Gen::new(s).program()))
        .find(|(_, p)| p.contains("1073741823"))
        .expect("some seed must hit the boundary constant");
    let fails = |s: &str| s.contains("1073741823") && run(Engine::Interp, s).is_ok();
    let (small, stats) = tm_verifier::reduce_program(&src, fails);
    assert!(fails(&small), "reduction must preserve the failure signature");
    assert!(
        stats.lines_out <= 15,
        "seed {seed}: reducer left {} lines (want <= 15):\n{small}",
        stats.lines_out
    );
    assert!(stats.lines_out < stats.lines_in, "must actually shrink");
    println!("seed {seed}: reduced {} -> {} lines:\n{small}", stats.lines_in, stats.lines_out);
}

/// The generated programs are what the pinned seed lists in `ci.sh` and
/// the regression tests above name: a change to a generator that moves
/// them silently retires those seeds. FNV-1a over the programs of seeds
/// 0..300 of each family.
#[test]
fn both_families_keep_their_programs() {
    let hash = |family: fn(u64) -> Gen| {
        let programs = (0..300).map(|n| family(n).program());
        programs.flat_map(String::into_bytes).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    };
    assert_eq!(hash(Gen::new), 0x919c_d484_304f_71b1);
    assert_eq!(hash(Gen::nested), 0x6b0c_1e3f_0260_ad90);
}
