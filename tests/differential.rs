//! Differential testing: every engine must produce identical results and
//! identical `print` output on the same programs (the recorder/interpreter
//! "semantic equivalence" requirement of the paper's §6.3).

use tracemonkey::{Engine, Vm};

fn run(engine: Engine, src: &str) -> (String, String) {
    let mut vm = Vm::new(engine);
    let v = vm.eval(src).unwrap_or_else(|e| panic!("{engine:?} failed on {src:?}: {e}"));
    let text = tracemonkey::runtime::ops::to_display(&mut vm.realm, v);
    (text, vm.output().to_owned())
}

fn check(src: &str) {
    let baseline = run(Engine::Interp, src);
    for engine in [Engine::Method, Engine::Tracing] {
        let got = run(engine, src);
        assert_eq!(baseline, got, "{engine:?} disagrees on: {src}");
    }
}

#[test]
fn arithmetic_kernels() {
    check("var s = 0; for (var i = 0; i < 2000; i++) s += i; s");
    check("var s = 0; for (var i = 0; i < 2000; i++) s -= i * 3; s");
    check("var s = 1; for (var i = 1; i < 30; i++) s *= 2; s");
    check("var s = 0; for (var i = 1; i < 500; i++) s += 1000 / i; Math.floor(s * 100)");
    check("var s = 0; for (var i = 1; i < 500; i++) s += 1000 % i; s");
    check("var s = 1e9; for (var i = 0; i < 500; i++) s += 1e7; s");
    check("var s = 0.25; for (var i = 0; i < 500; i++) s = s * 1.01 + 0.5; Math.floor(s)");
}

#[test]
fn bitops_kernels() {
    check("var v = 4294967296; for (var i = 0; i < 2000; i++) v = v & i; v");
    check("var v = 0; for (var i = 0; i < 2000; i++) v = (v | (1 << (i & 31))) >>> 1; v");
    check("var v = 0; for (var i = 0; i < 2000; i++) v ^= i << (i & 15); v");
    check("var v = 0; for (var i = 0; i < 2000; i++) v = ~v + (i >> 2); v");
    check("var s = 0; for (var i = -500; i < 500; i++) s += (i >>> 3) & 0xff; s");
}

#[test]
fn control_flow() {
    check("var a = 0, b = 0; for (var i = 0; i < 1000; i++) { if (i % 3 == 0) a++; else if (i % 3 == 1) b++; else { a += 2; b -= 1; } } a * 10000 + b");
    check("var s = 0; for (var i = 0; i < 500; i++) { s += i % 2 ? i : -i; } s");
    check("var n = 0; var i = 0; while (true) { i++; if (i % 7 == 0) continue; n++; if (i > 300) break; } n");
    check("var s = 0; var i = 0; do { s += i & 3 && i % 5; i++; } while (i < 400); s");
}

#[test]
fn nested_loops() {
    check("var s = 0; for (var i = 0; i < 40; i++) for (var j = 0; j < 40; j++) s += i * j; s");
    check("var s = 0; for (var i = 0; i < 30; i++) { for (var j = 0; j < i; j++) { for (var k = 0; k < j; k++) s++; } } s");
    check("var s = 0; for (var i = 0; i < 50; i++) { var j = 0; while (j < i % 7) { s += j; j++; } } s");
}

#[test]
fn functions_and_this() {
    check("function f(a, b) { return a * 10 + b; } var s = 0; for (var i = 0; i < 500; i++) s += f(i % 7, i % 3); s");
    check("function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } fib(17)");
    check("function P(x, y) { this.x = x; this.y = y; } function norm(p) { return p.x * p.x + p.y * p.y; } var s = 0; for (var i = 0; i < 300; i++) s += norm(new P(i % 9, i % 5)); s");
    check("function outer(n) { return inner(n) + 1; } function inner(n) { return n * 2; } var s = 0; for (var i = 0; i < 400; i++) s += outer(i); s");
}

#[test]
fn arrays_and_objects() {
    check("var a = []; for (var i = 0; i < 500; i++) a[i] = i * i; var s = 0; for (var i = 0; i < 500; i++) s += a[i]; s");
    check("var a = []; for (var i = 0; i < 300; i++) a.push(i % 10); var s = 0; for (var i = 0; i < a.length; i++) s += a[i]; s + a.length");
    check("var o = {count: 0, step: 2}; for (var i = 0; i < 500; i++) o.count += o.step; o.count");
    check("var grid = []; for (var i = 0; i < 20; i++) { grid[i] = []; for (var j = 0; j < 20; j++) grid[i][j] = i ^ j; } var s = 0; for (var i = 0; i < 20; i++) for (var j = 0; j < 20; j++) s += grid[i][j]; s");
}

#[test]
fn strings() {
    check("var s = ''; for (var i = 0; i < 60; i++) s += 'ab'; s.length");
    check("var src = 'the quick brown fox'; var h = 0; for (var r = 0; r < 50; r++) for (var i = 0; i < src.length; i++) h = (h * 31 + src.charCodeAt(i)) & 0xffffff; h");
    check("var s = ''; for (var i = 0; i < 40; i++) s += String.fromCharCode(65 + (i % 26)); s");
    check("var w = 'hello'; var c = 0; for (var i = 0; i < 200; i++) if (w.charAt(i % 5) === 'l') c++; c");
    check("var t = 'a,b,c,d'; var total = 0; for (var i = 0; i < 50; i++) { var parts = t.split(','); total += parts.length; } total");
}

#[test]
fn type_transitions() {
    check("var v = 0; for (var i = 0; i < 400; i++) { if (i === 200) v = 0.5; v = v + 1; } v");
    check("var t; for (var i = 0; i < 300; i++) t = i * 1.5; t");
    check("var x = 1073741000; for (var i = 0; i < 2000; i++) x += 1; x"); // i31 overflow mid-loop
    check("var s = 0; for (var i = 0; i < 300; i++) { var v = i % 2 == 0 ? 1 : 1.5; s += v; } s");
}

#[test]
fn math_builtins() {
    check("var s = 0; for (var i = 0; i < 500; i++) s += Math.sin(i * 0.01) + Math.cos(i * 0.02); Math.floor(s * 1e6)");
    check("var s = 0; for (var i = 1; i < 300; i++) s += Math.sqrt(i) + Math.log(i); Math.floor(s * 1000)");
    check("var m = 0; for (var i = 0; i < 300; i++) m = Math.max(m, (i * 37) % 101); m");
    check("var s = 0; for (var i = 0; i < 200; i++) s += Math.abs(100 - i) + Math.pow(2, i % 8); s");
    check("var s = 0; for (var i = 0; i < 300; i++) s += Math.floor(i / 7) + Math.ceil(i / 3); s");
}

#[test]
fn print_side_effects_in_loops() {
    check("for (var i = 0; i < 50; i++) if (i % 17 == 0) print('t', i); 0");
}

#[test]
fn equality_semantics() {
    check("var c = 0; for (var i = 0; i < 300; i++) { if (i % 2 == 0) c += i === i ? 1 : 0; if ('5' == 5) c++; if (null == undefined) c++; } c");
    check("var c = 0; var a = [1]; var b = [1]; for (var i = 0; i < 100; i++) { if (a === a) c++; if (a === b) c += 100; } c");
}

#[test]
fn gc_heavy_loops() {
    // Force collections during traced execution.
    check(
        "var keep = [];
         for (var i = 0; i < 3000; i++) {
             var s = 'x' + i + 'y';
             if (i % 500 === 0) keep.push(s);
         }
         keep.length",
    );
}

#[test]
fn deep_expressions() {
    check("var s = 0; for (var i = 1; i < 300; i++) s += ((i * 3 + 1) ^ (i >> 1)) % ((i & 7) + 2) + (i % 2 ? i / 2 : -i); Math.floor(s)");
}
