#!/usr/bin/env bash
# Hermetic CI for tracemonkey-rs: offline, locked, zero registry
# dependencies. Must pass on a machine with no network and no cargo
# registry cache.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> policy: no registry (non-path) dependencies in any Cargo.toml"
manifests=(Cargo.toml crates/*/Cargo.toml tm_bench/Cargo.toml)
# A registry dependency declares a version requirement: either an inline
# table with `version =` or a bare `name = "<semver>"`. Workspace/package
# metadata keys (version/edition/rust-version/resolver) are the only
# allowed version-like lines.
if grep -nE '=[[:space:]]*\{[^}]*version[[:space:]]*=|^[a-z0-9_-]+[[:space:]]*=[[:space:]]*"[0-9^~]' "${manifests[@]}" \
    | grep -vE 'Cargo\.toml:[0-9]+:(version|edition|rust-version|resolver)[[:space:]]*='; then
    echo "error: registry dependency declarations found above; all dependencies must be path deps" >&2
    exit 1
fi
echo "    OK: ${#manifests[@]} manifests are path-only"

echo "==> policy: every Helper is named by something that emits it"
# A `Helper` variant that only its own `call_helper` arm and codec row
# (trace_helpers.rs, serial.rs) mention is one no compiler here emits, yet
# a .tmc could still ask the runtime for it: the table must not regrow.
helpers=$(sed -n '/^pub enum Helper {/,/^}/s/^    \([A-Z][A-Za-z0-9]*\)[,(].*/\1/p' crates/runtime/src/trace_helpers.rs)
orphans=$(for h in $helpers; do
    git ls-files '*.rs' | grep -vE '/(trace_helpers|serial)\.rs$' | xargs grep -qE "Helper::$h\b" || echo "$h"
done)
if [ -n "$orphans" ]; then
    echo "error: Helper variants nothing emits:" $orphans >&2
    exit 1
fi
echo "    OK: $(echo "$helpers" | wc -w) helpers, each named outside its own table"

echo "==> report: Rust lines outside tests/ directories and outside each file's trailing #[cfg(test)] mod tests"
# The number every PR reports ("net line count", ROADMAP north star #2):
# run this stage on the parent and on the change and quote both. Tracked
# files only; read-only; gates nothing. Every column-0 `#[cfg(test)]` in
# this repository opens a file's trailing `mod tests`.
git ls-files '*.rs' | grep -vE '(^|/)tests/' | xargs awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests {
        split(FILENAME, p, "/")
        crate = p[1] == "crates" ? "crates/" p[2] : (p[1] == "tm_bench" ? "tm_bench" : "root package")
        lines[crate]++
        if (crate != "tm_bench") total++
    }
    END {
        for (c in lines) printf "    %-18s %6d\n", c, lines[c] | "sort"
        close("sort")
        printf "    %-18s %6d  (without tm_bench)\n", "total", total
    }'

echo "==> tier-1: hermetic release build"
cargo build --release --workspace --offline --locked

echo "==> tier-1: tests (root package: integration, fuzz, property suites)"
# Debug profile: JitOptions.verify defaults on, so every recorded trace in
# this pass goes through the tm-verifier static checks before compilation.
cargo test -q --offline --locked

echo "==> fuzz smoke: fixed seed replay, verifier enabled (debug profile)"
# Deterministic: a pinned seed list (including past regression seeds) run
# through the differential harness on every engine. Seed 30 is the
# recursive-branch resume-pc regression; keep it in the list.
TM_FUZZ_SEEDS="0,7,30,42,99,123,200,256" \
    cargo test -q --offline --locked --test fuzz_differential fuzz_replay_seeds

echo "==> multi-realm fuzz smoke: fixed seeds, 4 realms sharing one code cache"
# Differential: every realm's every repetition must print exactly what
# the single-threaded interpreter prints. Seed 6 is the step-budget
# regression (a budget-exhausting program must exhaust it in every
# realm, not run unbounded). RUST_TEST_THREADS stays unpinned — the
# suite must pass under any test-runner interleaving.
TM_FUZZ_THREADS=4 TM_FUZZ_SEEDS="0,6" \
    cargo test -q --offline --locked --test fuzz_differential fuzz_multi_realm

echo "==> native-tier fuzz smoke: native x86-64 vs decoded vs interpreter"
# Three-way differential over fixed seeds with the native backend forced
# on: every program must print identically under the native tier, the
# decoded executor, and the interpreter, and the tier accounting must
# balance (native_exits + native_fallbacks == trace_enters). Seeds 9/10/
# 33/57/71 are object/string-heavy generator outputs that exercise the
# full-coverage emitter families (shape guards, slot/element traffic,
# string helpers). TM_FUZZ_BG=1 attaches a compiler pool and runs the
# native pass with background_compile on, so the differential covers
# background compile followed by install-time append to the tree's
# native code. The test self-skips on targets without the backend; the
# guard here keeps the stage's OK/SKIP line honest.
if [ "$(uname -sm)" = "Linux x86_64" ]; then
    TM_FUZZ_NATIVE=1 TM_FUZZ_BG=1 \
        TM_FUZZ_SEEDS="0,7,9,10,30,33,42,57,71,99,123,200,256" \
        cargo test -q --offline --locked --test fuzz_differential fuzz_native_tier
    echo "    OK: native tier differentially identical on the seed list (background compile, install-time append)"
else
    echo "    SKIP: native backend needs Linux x86_64"
fi

echo "==> nested-call fuzz smoke: the nested family on every engine, then native vs decoded vs interpreter"
# The generator's second family (`n<seed>`, tests/fuzz_differential.rs):
# functions that loop over their locals and a global, called from a hot
# loop with inner loops of its own — nested tree calls (§4) under both
# kinds of transfer plan. n59/n145/n348 call mostly from inlined frames
# (the call site is exported first), n61/n89/n64 mostly from the outer
# tree's entry frame (export deferred), n211 half and half, and n95 is
# the dead-local regression (a returned inlined frame's locals read back
# past the interpreter's stack). First pass: all engines against the
# interpreter, verifier on; second: both tiers of the tracing JIT.
NESTED_SEEDS="n59,n61,n64,n89,n95,n145,n211,n348"
TM_FUZZ_SEEDS="$NESTED_SEEDS" \
    cargo test -q --offline --locked --test fuzz_differential fuzz_replay_seeds
if [ "$(uname -sm)" = "Linux x86_64" ]; then
    TM_FUZZ_NATIVE=1 TM_FUZZ_SEEDS="$NESTED_SEEDS" \
        cargo test -q --offline --locked --test fuzz_differential fuzz_native_tier
    echo "    OK: nested calls differentially identical on both tiers"
else
    echo "    SKIP: native backend needs Linux x86_64"
fi

echo "==> backend, release profile: every tm-lir and tm-nanojit unit test and the native tier's integration tests"
# The benchmark and users run --release, where debug assertions and
# overflow checks are off and the emitter is optimized; every other
# backend test above runs in the debug profile only. Both whole crates,
# not just the x64 differentials: the families' reference semantics
# (`opclass::eval`, which folding, the executor and the recorder share) is
# wrapping/widening arithmetic whose debug build checks overflow and whose
# release build does not.
if [ "$(uname -sm)" = "Linux x86_64" ]; then
    cargo test -q --release --offline --locked -p tm-lir -p tm-nanojit \
        && cargo test -q --release --offline --locked --test native_backend
    echo "    OK: the backend passes as it ships"
else
    echo "    SKIP: native backend needs Linux x86_64"
fi

echo "==> persist: the .tmc container in the release profile, and an offline dump of a two-program file"
# The benchmark's warm-start workload times the load path in --release, so
# the persistence suite runs there too. Then two programs write one file
# through TM_CACHE (the quickstart sieve, and a nested loop run by
# dump_fragments itself), and the offline dump — the header index, then
# every entry, every body checksum verified — must decode both.
cargo test -q --release --offline --locked --test persistence
tmc_dir=$(mktemp -d)
TM_CACHE="$tmc_dir/two.tmc" cargo run -q --release --offline --locked --example quickstart >/dev/null
TM_CACHE="$tmc_dir/two.tmc" cargo run -q --release --offline --locked --example dump_fragments -- \
    'var s = 0; for (var i = 0; i < 500; i++) { for (var j = 0; j < 20; j++) s += i ^ j; } s' >/dev/null
dump=$(cargo run -q --release --offline --locked --example dump_fragments -- "$tmc_dir/two.tmc")
rm -rf "$tmc_dir"
records=$(grep -c '^  program_key=' <<<"$dump" || true)
if [ "$records" != 2 ]; then
    echo "error: the dump's index lists $records records, expected 2" >&2
    exit 1
fi
echo "    OK: persistence suite passes in release; a two-program .tmc dumps index and entries"

echo "==> workspace member tests (per-crate units, tm-support, tm-bench suite gates)"
cargo test -q --workspace --exclude tracemonkey --offline --locked

echo "==> benchmark harness: build and smoke what BENCHMARK.json runs"
# tm_bench/ is a package of its own with a frozen Cargo.lock, outside the
# workspace: nothing above compiles it, so an API or dependency-edge
# change would otherwise break the benchmark silently. Timing is the
# benchmark pipeline's job (tm_bench/README.md); this stage only checks
# that the harness builds --locked and that its smoke test passes.
cargo build --release --offline --locked --manifest-path tm_bench/Cargo.toml
cargo test -q --release --offline --locked --manifest-path tm_bench/Cargo.toml

echo "==> ThreadSanitizer: concurrency suite (nightly + rust-src only)"
# TSan needs a sanitizer-instrumented std (-Zbuild-std, which needs the
# rust-src component): with the prebuilt std every futex-based Mutex
# handoff is invisible to TSan and reports as a false-positive race.
# Skipped, not failed, when the toolchain can't do it.
if [ "$(uname -sm)" = "Linux x86_64" ] \
    && rustup toolchain list 2>/dev/null | grep -q '^nightly' \
    && rustup component list --toolchain nightly --installed 2>/dev/null \
        | grep -q '^rust-src'; then
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q --offline --locked -Zbuild-std \
        --target x86_64-unknown-linux-gnu --test concurrency
    echo "    OK: concurrency suite is race-clean under ThreadSanitizer"
else
    echo "    SKIP: needs Linux x86_64 + nightly toolchain + rust-src"
fi

echo "==> ci.sh: all green"
