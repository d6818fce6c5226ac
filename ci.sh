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

echo "==> policy: recursion is not traced"
# A recursive call ends the recording (AbortReason::Recursive), as in
# TraceMonkey. Function-entry anchors, the interpreter's recursion reports
# and their silencing were deleted; none of their names may come back,
# behind a flag or otherwise.
recursion_names='FuncEntry|AnchorKind|RecursiveCall|silence_recursion|recursion_silenced|ENTRY_SITE_PC|func_entry'
if git ls-files '*.rs' | xargs grep -nE "$recursion_names"; then
    echo "error: the recursion-tracing machinery named above was deleted; do not regrow it" >&2
    exit 1
fi
echo "    OK: no tracked .rs file names the recursion-tracing machinery"

echo "==> policy: stitching, nesting, the oracle, sibling linking and blacklisting are always on"
# They are the design (§6.2, §4, §3.2, Figure 6, §3.3), not options. Their
# off switches were deleted, with what only those needed: the monitor's
# second link table, per-fragment entry maps, and the fast-path
# interpreter that no harness measured. None of the names may come back.
switch_names='enable_nesting|enable_stitching|enable_oracle|enable_stability_linking|Oracle::disabled|FastInterp|fast_paths|entry_reqs'
if git ls-files '*.rs' | xargs grep -nE "$switch_names"; then
    echo "error: the ablation switches named above were deleted; do not regrow them" >&2
    exit 1
fi
echo "    OK: no tracked .rs file names a deleted ablation switch"

echo "==> policy: superinstructions are the decoded executor's own"
# The shared ISA (`MachInst`) is the raw instructions the assembler emits:
# what .tmc files store, tm-verifier checks and the native tier lowers
# (with its own instruction selection). The 25 fused forms are the
# decoded executor's private dispatch form; no other file may name them.
fused_names='CmpBranchI|CmpBranchD|CmpBranchLoopI|CmpBranchLoopD|AluImmI|AluArI|AluWrI|AluImmWrI|ChkAluImmI|ChkAluWrI|ChkAluImmWrI|ChkAluImmWrLoopI|ConstWrAr|MovAr|WriteAr2|WriteAr3|AluArWrI|CmpImmI|CmpWrI|CmpWrD|CmpImmWrI|CmpBranchImmI|CmpWrBranchI|CmpWrBranchD|CmpImmWrBranchI'
if git ls-files '*.rs' | grep -vE '^crates/nanojit/src/(peephole|executor)\.rs$' \
    | xargs grep -nwE "$fused_names"; then
    echo "error: only the decoded executor (peephole.rs, executor.rs) may name a superinstruction" >&2
    exit 1
fi
echo "    OK: the fused forms are named only in crates/nanojit/src/{peephole,executor}.rs"

echo "==> policy: a word move is lowered in one place"
# A direct call's word moves (arguments, sibling links, refresh) are all
# lowered by `transfer_word` in crates/nanojit/src/x64/transfer.rs. No
# other file may call it: a new kind of move reuses that sequence instead
# of growing a second copy of the direct-call lowering.
if git ls-files '*.rs' | grep -vE '^crates/nanojit/src/x64/transfer\.rs$' \
    | xargs grep -nwE 'transfer_word'; then
    echo "error: only crates/nanojit/src/x64/transfer.rs may call transfer_word" >&2
    exit 1
fi
echo "    OK: transfer_word is named only in crates/nanojit/src/x64/transfer.rs"

echo "==> policy: the native tier's extern \"C\" shims do not grow a panic"
# A panic inside an `extern "C" fn` cannot unwind into the machine code that
# called it: it aborts the process, and in a MultiTenantVm every tenant with
# it. Every expect(, unwrap(, panic! and unreachable! in the body of one
# under crates/nanojit/src/x64/ is listed, and the count may only fall.
# Lower SHIM_PANICS with the change that removes one.
SHIM_PANICS=0
shim_panics=$(git ls-files 'crates/nanojit/src/x64/*.rs' | xargs awk '
    /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?(unsafe[[:space:]]+)?extern "C" fn [A-Za-z_0-9]+/ {
        inside = 1; depth = 0; opened = 0
    }
    inside {
        code = $0
        gsub(/"([^"\\]|\\.)*"/, "\"\"", code)
        sub(/\/\/.*/, "", code)
        hits = code
        n = gsub(/expect\(|unwrap\(|panic!|unreachable!/, "", hits)
        if (n) { print "    " FILENAME ":" FNR ": " $0 > "/dev/stderr"; count += n }
        o = gsub(/\{/, "{", code); c = gsub(/\}/, "}", code)
        depth += o - c
        if (o) opened = 1
        if (opened && depth <= 0) inside = 0
    }
    END { print count + 0 }')
if [ "$shim_panics" -gt "$SHIM_PANICS" ]; then
    echo "error: $shim_panics panicking calls in extern \"C\" shim bodies (listed above), $SHIM_PANICS allowed" >&2
    exit 1
fi
echo "    OK: $shim_panics panicking calls in extern \"C\" shim bodies (at most $SHIM_PANICS)"

echo "==> policy: a vreg is reached through the register map only"
# On the native tier vregs r0-r5 live in machine registers and the rest
# in the memory file at [r13 + 8*v] (crates/nanojit/src/x64/lower.rs,
# MAPPED). Only the operand helpers may name a vreg's memory-file address
# (`vdisp(`): an instruction lowered against the file directly would
# read a stale word, or write one nothing reads, whenever its vreg lives
# in a register. Every use outside the helpers is listed and fails the
# stage; the count may not exceed VDISP_SITES.
VREG_HELPERS='vdisp|load_vreg32|load_vreg64|store_vreg64|movsxd_vreg|vreg_in|load_vreg_xmm|store_vreg_xmm|arith_sd_vreg|ucomisd_vreg|cvtsi2sd_vreg|save_live|reload_live'
VDISP_SITES=13
read -r vdisp_total vdisp_outside < <(git ls-files 'crates/nanojit/src/x64/*.rs' \
    | xargs awk -v helpers="^($VREG_HELPERS)\$" '
    FNR == 1 { fn = "" }
    {
        code = $0
        sub(/\/\/.*/, "", code)
        if (match(code, /fn [A-Za-z_0-9]+/)) fn = substr(code, RSTART + 3, RLENGTH - 3)
        n = gsub(/vdisp\(/, "", code)
        if (n) {
            total += n
            if (fn !~ helpers) {
                print "    " FILENAME ":" FNR ": in fn " fn ": " $0 > "/dev/stderr"
                outside += n
            }
        }
    }
    END { print total + 0, outside + 0 }')
if [ "$vdisp_outside" -gt 0 ] || [ "$vdisp_total" -gt "$VDISP_SITES" ]; then
    echo "error: $vdisp_total vdisp( sites, $vdisp_outside outside the operand helpers (listed above); $VDISP_SITES allowed, all in the helpers" >&2
    exit 1
fi
echo "    OK: $vdisp_total vdisp( sites under crates/nanojit/src/x64/, all in the operand helpers (at most $VDISP_SITES)"

echo "==> policy: one hasher for keys and checksums"
# Program keys, realm fingerprints, entry digests and the .tmc checksums
# all go through tm_support's word-at-a-time WordHasher (hash64). The
# byte-serial FNV-1a hasher was deleted with the program key it computed
# over the program's Debug string: no Rust source, manifest or design
# document may name it, and no line under crates/core/src may feed a
# format! rendering to a hash (hash the value's fields, numbers by their
# bits).
fnv_names='fnv1a64|Fnv1a64'
if git ls-files '*.rs' '*.toml' 'docs/*.md' DESIGN.md README.md | xargs grep -nE "$fnv_names"; then
    echo "error: the FNV hasher named above was replaced by tm_support::WordHasher; do not regrow it" >&2
    exit 1
fi
if git ls-files 'crates/core/src/*.rs' | xargs grep -nE 'format!' \
    | grep -E 'hash64\(|\.hash\(|Hasher|\.write(_str)?\(|\.update\('; then
    echo "error: a format! rendering is hashed above; hash the value's fields instead" >&2
    exit 1
fi
# Nor may a Rust file fold FNV-1a inline: its offset basis and prime are
# found with or without `_` digit separators.
fnv_literals=$(git ls-files '*.rs' | xargs awk '{
    l = tolower($0); gsub(/_/, "", l)
    if (l ~ /cbf29ce484222325|0x0*100000001b3([^0-9a-f]|$)/) print "    " FILENAME ":" FNR ": " $0
}')
if [ -n "$fnv_literals" ]; then
    echo "$fnv_literals" >&2
    echo "error: an FNV-1a constant is folded above; hash with tm_support::hash64" >&2
    exit 1
fi
echo "    OK: no FNV hasher or constant, and no format! rendering hashed under crates/core/src"

echo "==> policy: code is written by the kernel only"
# The native tier's code lives in one shared code file mapped r-x once;
# every byte of code goes in with pwrite (crates/nanojit/src/x64/buf.rs).
# No page protection may flip and no writable view of code may exist:
# no mprotect, no rw- protection and no mutable slice under
# crates/nanojit/src/x64/, except the RT_MUT_VIEWS views rt.rs makes of
# a run's activation records and counters (never of code). The recorder
# and the backend key their tables by dense slot or WordMap, not std's
# SipHash HashMap.
RT_MUT_VIEWS=4
x64_files=$(git ls-files 'crates/nanojit/src/x64/*.rs')
if grep -nE 'SYS_MPROTECT|PROT_RW' $x64_files \
    || grep -n 'from_raw_parts_mut' $(grep -v '/rt\.rs$' <<<"$x64_files"); then
    echo "error: code memory is written through pwrite only: no mprotect, no rw- mapping, no mutable slice" >&2
    exit 1
fi
rt_views=$(grep -c 'from_raw_parts_mut' crates/nanojit/src/x64/rt.rs || true)
if [ "$rt_views" -gt "$RT_MUT_VIEWS" ]; then
    echo "error: rt.rs makes $rt_views mutable views, $RT_MUT_VIEWS allowed (of run state, never code)" >&2
    exit 1
fi
if git ls-files crates/core/src/recorder.rs crates/core/src/activation.rs 'crates/nanojit/src/x64/*.rs' \
    | xargs grep -nE 'HashMap(::<[^;]*>)?::(new|with_capacity)|std::collections::[^;]*HashMap'; then
    echo "error: the recorder's and the backend's tables are dense or WordMap, not SipHash HashMaps" >&2
    exit 1
fi
echo "    OK: no mprotect, rw- mapping or mutable code slice under crates/nanojit/src/x64/; no SipHash table in the recorder or backend"

echo "==> report: Rust lines outside tests/ directories, tests.rs files and each file's trailing #[cfg(test)] mod tests"
# The number every PR reports ("net line count", ROADMAP north star #2):
# run this stage on the parent and on the change and quote both. Tracked
# files only; read-only; gates nothing. Every column-0 `#[cfg(test)]` or
# `#[cfg(all(test, ...))]` in this repository opens a file's trailing
# `mod tests` (or declares one kept in its own `tests.rs`).
git ls-files '*.rs' | grep -vE '(^|/)tests(/|\.rs$)' | xargs awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\((all\()?test[,)]/ { in_tests = 1 }
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
# recursive-branch resume-pc regression; keep it in the list. Seed 135 is
# the retyped-refresh regression (n49's twin in the plain family).
TM_FUZZ_SEEDS="0,7,30,42,99,123,135,200,256" \
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
# string helpers); each must run native code that reads the heap inline
# (checked on a synchronous pass). TM_FUZZ_BG=1 attaches a compiler pool and runs the
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
# n968/n1948: a stale unexpected inner exit grown after a later refused call (hang).
# n49: a variable retyped by a nested call whose other refresh moves still
# named its old type (wrong value at a later exit).
NESTED_SEEDS="n49,n59,n61,n64,n89,n95,n145,n211,n348,n968,n1948"
TM_FUZZ_SEEDS="$NESTED_SEEDS" \
    cargo test -q --offline --locked --test fuzz_differential fuzz_replay_seeds
# Every root recording's entry map depends on the start-state typing of
# loop-written slots: sweep 2000 nested programs in release (~6-8 s).
TM_FUZZ_RANGE=n0..n2000 \
    cargo test -q --release --offline --locked --test fuzz_differential fuzz_extended_sweep
if [ "$(uname -sm)" = "Linux x86_64" ]; then
    TM_FUZZ_NATIVE=1 TM_FUZZ_SEEDS="$NESTED_SEEDS" \
        cargo test -q --offline --locked --test fuzz_differential fuzz_native_tier
    # The native tier calls deferred sites' inner trees directly: 500
    # nested programs three ways in release, the tiers' nested calls,
    # tree runs and side exits compared too (~2 s).
    TM_FUZZ_NATIVE=1 TM_FUZZ_RANGE=n0..n500 \
        cargo test -q --release --offline --locked --test fuzz_differential fuzz_native_tier
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
