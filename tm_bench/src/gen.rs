//! Seeded generator of short guest programs (the `cold-start`,
//! `warm-start` and `shared-realms` inputs).
//!
//! A program is a handful of short loops ("phases") from one of eight
//! templates. Short loops are the point: each one has to be found hot,
//! recorded, compiled and emitted, and then runs only a few hundred
//! iterations, so the one-shot costs are comparable to the work they save
//! (the paper's start-up trade-off). The seed draws constants, field
//! counts, identifiers and a ±3 % trip-count jitter; the *shape* of the
//! set (which template, how many phases, the base trip count of each
//! slot) is fixed, so the total work of a round is nearly the same on
//! every seed and a timing can be compared across seeds.

use tm_support::TmRng;

/// The eight program templates, in slot order.
pub const TEMPLATES: [&str; 8] = [
    "intsum", "arrscan", "objfield", "strbuild", "recurse", "mathflt", "method", "branchy",
];

/// Programs generated per template.
pub const PER_TEMPLATE: usize = 12;

/// One generated program. `name` identifies the slot, not the text: slot
/// `gen-intsum-03` exists on every seed with different constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenProgram {
    pub name: String,
    pub source: String,
}

struct Ctx {
    rng: TmRng,
    next_id: u32,
    out: String,
    results: Vec<String>,
}

impl Ctx {
    /// A fresh identifier: seeded letters plus a program-unique counter,
    /// so it can never collide or spell a keyword.
    fn ident(&mut self) -> String {
        let len = self.rng.gen_range(2usize..6);
        let mut s = String::with_capacity(len + 4);
        for _ in 0..len {
            s.push((b'a' + self.rng.below(26) as u8) as char);
        }
        self.next_id += 1;
        s.push('_');
        s.push_str(&self.next_id.to_string());
        s
    }

    fn int(&mut self, lo: u32, hi: u32) -> u32 {
        self.rng.gen_range(lo..hi)
    }

    /// An odd constant (multipliers and moduli that do not collapse).
    fn odd(&mut self, lo: u32, hi: u32) -> u32 {
        self.int(lo, hi) | 1
    }

    fn emit(&mut self, code: String, result: String) {
        self.out.push_str(&code);
        self.results.push(result);
    }
}

fn intsum(c: &mut Ctx, n: u32) {
    let (s, i) = (c.ident(), c.ident());
    let (init, mul, sh) = (c.int(1, 99), c.odd(3, 40), c.int(1, 5));
    let code = format!(
        "var {s} = {init};\n\
         for (var {i} = 0; {i} < {n}; {i}++) {{ {s} = (({s} + {i} * {mul}) ^ ({i} >> {sh})) & 0xfffff; }}\n"
    );
    c.emit(code, s);
}

fn arrscan(c: &mut Ctx, n: u32) {
    let (a, i, j, best, s) = (c.ident(), c.ident(), c.ident(), c.ident(), c.ident());
    let (mul, add, modulo) = (c.odd(7, 60), c.int(1, 50), c.odd(500, 2000));
    let code = format!(
        "var {a} = [];\n\
         for (var {i} = 0; {i} < {n}; {i}++) {a}[{i}] = ({i} * {mul} + {add}) % {modulo};\n\
         var {best} = 0, {s} = 0;\n\
         for (var {j} = 0; {j} < {n}; {j}++) {{ if ({a}[{j}] > {best}) {best} = {a}[{j}]; {s} += {a}[{j}]; }}\n"
    );
    c.emit(code, format!("({s} % 100003 + {best})"));
}

fn objfield(c: &mut Ctx, n: u32) {
    let (o, i) = (c.ident(), c.ident());
    let nfields = c.int(3, 7) as usize;
    let fields: Vec<String> = (0..nfields).map(|_| c.ident()).collect();
    let init: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(k, f)| format!("{f}: {}", k + 1))
        .collect();
    let mut body = String::new();
    for k in 0..nfields {
        let (f, prev) = (&fields[k], &fields[(k + nfields - 1) % nfields]);
        let m = c.odd(5, 200);
        body.push_str(&format!(" {o}.{f} = ({o}.{f} + {o}.{prev} + {i}) % {m};"));
    }
    let sum: Vec<String> = fields.iter().map(|f| format!("{o}.{f}")).collect();
    // Trip count scaled so a phase costs the same whatever the field count.
    let trips = n * 4 / nfields as u32;
    let code = format!(
        "var {o} = {{{}}};\nfor (var {i} = 0; {i} < {trips}; {i}++) {{{body} }}\n",
        init.join(", ")
    );
    c.emit(code, format!("({})", sum.join(" + ")));
}

fn strbuild(c: &mut Ctx, n: u32) {
    let (alpha, s, i, k, h) = (c.ident(), c.ident(), c.ident(), c.ident(), c.ident());
    let (mul, add, hm) = (c.odd(3, 25), c.int(0, 26), c.odd(17, 40));
    let code = format!(
        "var {alpha} = 'abcdefghijklmnopqrstuvwxyz';\nvar {s} = '';\n\
         for (var {i} = 0; {i} < {n}; {i}++) {s} = {s} + {alpha}.charAt(({i} * {mul} + {add}) % 26);\n\
         var {h} = 0;\n\
         for (var {k} = 0; {k} < {s}.length; {k}++) {h} = ({h} * {hm} + {s}.charCodeAt({k})) & 0xffffff;\n\
         print({s}.substring(0, 6));\n"
    );
    c.emit(code, h);
}

fn recurse(c: &mut Ctx, n: u32) {
    let (f, t, i) = (c.ident(), c.ident(), c.ident());
    let (mul, modulo, depth) = (c.odd(3, 30), c.odd(900, 1100), c.int(10, 16));
    let code = format!(
        "function {f}(n, a) {{ if (n <= 0) return a; return {f}(n - 1, (a + n * {mul}) % {modulo}); }}\n\
         var {t} = 0;\n\
         for (var {i} = 0; {i} < {n}; {i}++) {t} = ({t} + {f}({depth} + {i} % 3, {i})) % 100003;\n"
    );
    c.emit(code, t);
}

fn mathflt(c: &mut Ctx, n: u32) {
    let (s, i) = (c.ident(), c.ident());
    let (a, b, m) = (c.int(11, 40), c.int(3, 12), c.int(3, 9));
    let code = format!(
        "var {s} = 0;\n\
         for (var {i} = 1; {i} < {n}; {i}++) {{ {s} += Math.sqrt({i} * {a} / 8) * Math.sin({i} / {b}) + Math.abs({m} - {i} % 5); }}\n"
    );
    c.emit(code, format!("Math.floor({s} * 1000)"));
}

fn method(c: &mut Ctx, n: u32) {
    let (ctor, step, p, r, i) = (c.ident(), c.ident(), c.ident(), c.ident(), c.ident());
    let (modulo, start) = (c.odd(50, 300), c.int(1, 40));
    // Constructors start upper-case; `step` is installed on the prototype
    // by name because the guest language has no function expressions.
    let ctor = format!("C{ctor}");
    let code = format!(
        "function {ctor}(x) {{ this.x = x; this.t = 0; }}\n\
         function {step}(d) {{ this.x = (this.x + d) % {modulo}; this.t = this.t + this.x; return this.t; }}\n\
         {ctor}.prototype.step = {step};\n\
         var {p} = new {ctor}({start});\nvar {r} = 0;\n\
         for (var {i} = 0; {i} < {n}; {i}++) {r} = {p}.step({i});\n"
    );
    c.emit(code, r);
}

fn branchy(c: &mut Ctx, n: u32) {
    let (s, i) = (c.ident(), c.ident());
    let (m1, m2, k) = (c.int(3, 6), c.int(5, 9), c.int(1, 9));
    let code = format!(
        "var {s} = 0;\n\
         for (var {i} = 0; {i} < {n}; {i}++) {{ if ({i} % {m1} == 0) {s} += {i}; else if ({i} % {m2} == 1) {s} -= {k}; else {s} = {s} ^ {i}; }}\n"
    );
    c.emit(code, s);
}

/// Writes one loop of a template with roughly the given trip count.
type Phase = fn(&mut Ctx, u32);

/// Per template: the phase writer and the base trip count of one phase,
/// chosen so a phase of any template costs the tracing JIT about the same
/// (probed: 50–80 µs, of which more than half is record/compile/emit).
const PHASES: [(Phase, u32); 8] = [
    (intsum, 600),
    (arrscan, 300),
    (objfield, 300),
    (strbuild, 160),
    (recurse, 12),
    (mathflt, 300),
    (method, 400),
    (branchy, 400),
];

/// Generates the program set for `seed`: `TEMPLATES.len() * PER_TEMPLATE`
/// programs, template-major. A pure function of the seed.
pub fn generate(seed: u64) -> Vec<GenProgram> {
    let mut programs = Vec::with_capacity(TEMPLATES.len() * PER_TEMPLATE);
    for (t, (name, (phase, base))) in TEMPLATES.iter().zip(PHASES).enumerate() {
        for slot in 0..PER_TEMPLATE {
            // One generator per program, so adding a draw to one template
            // leaves every other program of the seed unchanged.
            let stream = seed ^ ((t as u64 + 1) << 32) ^ ((slot as u64 + 1) << 40);
            let mut c = Ctx {
                rng: TmRng::seed_from_u64(stream),
                next_id: 0,
                out: format!("// {name} slot {slot}, seed {seed}\n"),
                results: Vec::new(),
            };
            let phases = 5 + slot % 4;
            for _ in 0..phases {
                // Slot scale 0.75–1.30, jitter ±3 %.
                let scale = (75 + 5 * slot as u32) * c.int(97, 104);
                phase(&mut c, (base * scale / 10_000).max(2));
            }
            let total = c.results.join(" + ");
            c.out.push_str(&format!("({total}) % 1000003\n"));
            programs.push(GenProgram {
                name: format!("gen-{name}-{slot:02}"),
                source: c.out,
            });
        }
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        assert_eq!(generate(7), generate(7));
        let (a, b) = (generate(7), generate(8));
        assert_eq!(a.len(), TEMPLATES.len() * PER_TEMPLATE);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name, "slots are seed-independent");
            assert_ne!(x.source, y.source, "{}: two seeds must differ", x.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = generate(1).into_iter().map(|p| p.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), TEMPLATES.len() * PER_TEMPLATE);
    }
}
