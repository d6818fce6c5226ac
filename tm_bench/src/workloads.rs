//! The seven named workloads and the programs each one runs.
//!
//! A workload's name, its program list and its sizes are part of the
//! benchmark's definition: later changes are measured against these
//! names. To add a program, add a new workload (or extend a list in a
//! change that touches nothing else and re-measures the baseline); never
//! rename a workload to make room.

use tracemonkey::Engine;

use crate::gen::{self, GenProgram};

/// How a workload evaluates its programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every eval in a fresh default `Vm` of this engine, no cache file.
    Fresh(Engine),
    /// Fresh tracing `Vm`s that all read one pre-filled `.tmc`.
    Warm,
    /// A fresh tenant realm of one long-lived `MultiTenantVm` per
    /// request, one closed-loop client thread per concurrent realm.
    Shared,
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One sentence: why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    /// Suite programs, by `SUITE` name.
    pub suite: &'static [&'static str],
    /// Whether the 96 generated programs are part of the list.
    pub generated: bool,
    /// Whether the traced run also measures the per-program tier ladder.
    pub ladder: bool,
    /// How closely this workload's times follow the calibration kernel's
    /// (`crate::calib`): a time `t` taken beside a reading `c` is reported
    /// as `t * (REF_MS / c)^sensitivity`.
    pub sensitivity: f64,
}

/// The guest's own code, interpreted or compiled, slows with the kernel
/// one to one: of the exponents 0, 0.2 ... 1.2, 0.9-1.0 left the least
/// spread between ten runs on each of the six workloads that carry it.
const CPU_BOUND: f64 = 1.0;

/// A `warm-start` eval is mostly the 1.5 MB cache file copied out of the
/// page cache and checksummed, which a busy sibling thread hardly slows
/// (a 1.5 MB read + hash alone moved 1.6 % while the kernel moved 8 %):
/// 0.4 left 4 % of spread between ten runs, 0 left 13 % and 1.0 left 30 %.
const FILE_BOUND: f64 = 0.4;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "int-loops",
        why: "Pure ALU/float loops: nearly all time is on-trace native code, so regalloc, peephole and encoder changes show here",
        kind: Kind::Fresh(Engine::Tracing),
        suite: &[
            "bitops-3bit-bits-in-byte",
            "bitops-bits-in-byte",
            "bitops-bitwise-and",
            "bitops-nsieve-bits",
            "crypto-aes",
            "crypto-md5",
            "crypto-sha1",
            "math-cordic",
            "math-partial-sums",
            "math-spectral-norm",
            "access-nsieve",
            "3d-morph",
        ],
        generated: false,
        ladder: true,
        sensitivity: CPU_BOUND,
    },
    Workload {
        name: "heap-strings",
        why: "Same native tier, but every hot op is a slot/element/string shim into the runtime: heap-layout work shows here, not on int-loops",
        kind: Kind::Fresh(Engine::Tracing),
        suite: &[
            "access-nbody",
            "access-fannkuch",
            "3d-cube",
            "string-fasta",
            "string-base64",
            "string-tagcloud",
            "string-unpack-code",
            "string-validate-input",
        ],
        generated: false,
        ladder: true,
        sensitivity: CPU_BOUND,
    },
    Workload {
        name: "trace-hostile",
        why: "Recursion and branchy control flow: recording, compiling and re-emission dominate and tracing loses to the interpreter",
        kind: Kind::Fresh(Engine::Tracing),
        suite: &[
            "access-binary-trees",
            "controlflow-recursive",
            "3d-raytrace",
            "date-format-tofte",
            "date-format-xparb",
        ],
        generated: false,
        ladder: true,
        sensitivity: CPU_BOUND,
    },
    Workload {
        name: "cold-start",
        why: "96 seeded short programs with no cache: parse, compile, record and emit cost about as much as the work they save",
        kind: Kind::Fresh(Engine::Tracing),
        suite: &[],
        generated: true,
        ladder: false,
        sensitivity: CPU_BOUND,
    },
    Workload {
        name: "warm-start",
        why: "The same 96 programs reading one pre-filled .tmc: persist load and revalidation replace recording and compiling",
        kind: Kind::Warm,
        suite: &[],
        generated: true,
        ladder: false,
        sensitivity: FILE_BOUND,
    },
    Workload {
        name: "shared-realms",
        why: "Tenant realms of one MultiTenantVm serve Zipf-repeated requests: the shared code cache does the work no other workload touches (the compiler pool is a rung of the traced run)",
        kind: Kind::Shared,
        // The 12 cheapest suite programs under the tracing engine (probed:
        // 0.4-18 ms each), cheapest first.
        suite: &[
            "regexp-dna",
            "string-unpack-code",
            "math-partial-sums",
            "bitops-3bit-bits-in-byte",
            "date-format-xparb",
            "bitops-bitwise-and",
            "string-base64",
            "3d-cube",
            "3d-morph",
            "date-format-tofte",
            "bitops-nsieve-bits",
            "string-tagcloud",
        ],
        generated: true,
        ladder: false,
        sensitivity: CPU_BOUND,
    },
    Workload {
        name: "interp-baseline",
        why: "The plain interpreter on one program per SunSpider group: Fig. 10's denominator, which JIT-only changes must leave flat",
        kind: Kind::Fresh(Engine::Interp),
        suite: &[
            "3d-cube",
            "access-nbody",
            "bitops-bits-in-byte",
            "controlflow-recursive",
            "crypto-md5",
            "date-format-tofte",
            "math-cordic",
            "regexp-dna",
            "string-validate-input",
        ],
        generated: false,
        ladder: false,
        sensitivity: CPU_BOUND,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Reference outputs of the 26 suite programs: rendered once from
/// `Engine::Interp` (`tm_bench expected <program>`), then frozen.
const EXPECTED: [(&str, &str); 26] = [
    ("3d-cube", include_str!("../expected/3d-cube.txt")),
    ("3d-morph", include_str!("../expected/3d-morph.txt")),
    ("3d-raytrace", include_str!("../expected/3d-raytrace.txt")),
    (
        "access-binary-trees",
        include_str!("../expected/access-binary-trees.txt"),
    ),
    (
        "access-fannkuch",
        include_str!("../expected/access-fannkuch.txt"),
    ),
    ("access-nbody", include_str!("../expected/access-nbody.txt")),
    (
        "access-nsieve",
        include_str!("../expected/access-nsieve.txt"),
    ),
    (
        "bitops-3bit-bits-in-byte",
        include_str!("../expected/bitops-3bit-bits-in-byte.txt"),
    ),
    (
        "bitops-bits-in-byte",
        include_str!("../expected/bitops-bits-in-byte.txt"),
    ),
    (
        "bitops-bitwise-and",
        include_str!("../expected/bitops-bitwise-and.txt"),
    ),
    (
        "bitops-nsieve-bits",
        include_str!("../expected/bitops-nsieve-bits.txt"),
    ),
    (
        "controlflow-recursive",
        include_str!("../expected/controlflow-recursive.txt"),
    ),
    ("crypto-aes", include_str!("../expected/crypto-aes.txt")),
    ("crypto-md5", include_str!("../expected/crypto-md5.txt")),
    ("crypto-sha1", include_str!("../expected/crypto-sha1.txt")),
    (
        "date-format-tofte",
        include_str!("../expected/date-format-tofte.txt"),
    ),
    (
        "date-format-xparb",
        include_str!("../expected/date-format-xparb.txt"),
    ),
    ("math-cordic", include_str!("../expected/math-cordic.txt")),
    (
        "math-partial-sums",
        include_str!("../expected/math-partial-sums.txt"),
    ),
    (
        "math-spectral-norm",
        include_str!("../expected/math-spectral-norm.txt"),
    ),
    ("regexp-dna", include_str!("../expected/regexp-dna.txt")),
    (
        "string-base64",
        include_str!("../expected/string-base64.txt"),
    ),
    ("string-fasta", include_str!("../expected/string-fasta.txt")),
    (
        "string-tagcloud",
        include_str!("../expected/string-tagcloud.txt"),
    ),
    (
        "string-unpack-code",
        include_str!("../expected/string-unpack-code.txt"),
    ),
    (
        "string-validate-input",
        include_str!("../expected/string-validate-input.txt"),
    ),
];

/// One program of a workload with its reference output.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub source: String,
    /// `print` output followed by `=> <completion value>` (see
    /// [`crate::run::render`]).
    pub expected: String,
}

/// The frozen reference output of a suite program.
pub fn expected(name: &str) -> Option<&'static str> {
    EXPECTED
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| *text)
}

/// A suite program with its checked-in reference.
///
/// # Panics
///
/// Panics on a name that is not in `SUITE` or has no expected file: the
/// lists above are constants, so that is a bug in this file.
pub fn suite_program(name: &str) -> Program {
    let prog = sunspider::by_name(name).unwrap_or_else(|| panic!("{name}: not in SUITE"));
    let expected = expected(name).unwrap_or_else(|| panic!("{name}: no expected file"));
    Program {
        name: name.to_owned(),
        source: prog.source.to_owned(),
        expected: expected.to_owned(),
    }
}

/// How many of the generated programs `shared-realms` serves: one per
/// template plus a second instance of the first four.
pub const SHARED_GENERATED: usize = 12;

/// The generated programs a workload uses, before their references are
/// computed (set-up runs the interpreter for those).
pub fn generated_for(w: &Workload, seed: u64) -> Vec<GenProgram> {
    if !w.generated {
        return Vec::new();
    }
    let all = gen::generate(seed);
    if w.kind != Kind::Shared {
        return all;
    }
    // Slot 0 of every template, then slot 1 of the first four.
    let pick = |slot: usize| (0..gen::TEMPLATES.len()).map(move |t| t * gen::PER_TEMPLATE + slot);
    pick(0)
        .chain(pick(1))
        .take(SHARED_GENERATED)
        .map(|i| all[i].clone())
        .collect()
}

/// Requests per realm per round in `shared-realms`.
pub const SHARED_REQUESTS: usize = 48;

/// How often each popularity rank is requested when `total` requests
/// follow Zipf(1) over `ranks` programs: the exact shares, rounded by
/// largest remainder. Fixed, not drawn, so every seed serves the same
/// amount of work and only the order and the generated text differ.
pub fn zipf_counts(ranks: usize, total: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=ranks).map(|r| 1.0 / r as f64).sum();
    let shares: Vec<f64> = (1..=ranks)
        .map(|r| total as f64 / (r as f64 * harmonic))
        .collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(missing) {
        counts[r] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_program_name_resolves_in_suite_and_has_a_reference() {
        for name in WORKLOADS.iter().flat_map(|w| w.suite) {
            assert!(sunspider::by_name(name).is_some(), "{name} is not in SUITE");
            assert!(expected(name).is_some(), "{name} has no expected file");
        }
        for p in sunspider::SUITE {
            assert!(
                expected(p.name).is_some(),
                "{} has no expected file",
                p.name
            );
        }
    }

    #[test]
    fn workload_names_are_unique_and_lists_have_no_repeats() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            let mut names = w.suite.to_vec();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), w.suite.len(), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn zipf_counts_sum_and_fall() {
        let c = zipf_counts(24, SHARED_REQUESTS);
        assert_eq!(c.iter().sum::<usize>(), SHARED_REQUESTS);
        assert_eq!(c[0], 13);
        assert!(c[0] > c[1] && c[1] > c[3] && c[3] >= c[11]);
    }

    #[test]
    fn shared_realms_takes_twelve_generated_programs() {
        let w = by_name("shared-realms").unwrap();
        let g = generated_for(w, 3);
        assert_eq!(g.len(), SHARED_GENERATED);
        assert_eq!(g[0].name, "gen-intsum-00");
        assert_eq!(g[8].name, "gen-intsum-01");
        assert_eq!(generated_for(by_name("cold-start").unwrap(), 3).len(), 96);
        assert!(generated_for(by_name("int-loops").unwrap(), 3).is_empty());
    }
}
