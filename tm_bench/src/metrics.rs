//! The named metrics. `BENCHMARK.json` lists exactly these (a unit test
//! keeps the two in step); later changes claim against these names.

use crate::workloads::{Kind, Workload};
use tracemonkey::Engine;

/// The workloads a per-layer metric applies to. Where it does not apply
/// the result line still carries it (the benchmark's contract wants every
/// named metric in every line) with the value 0, and the run's detail
/// file lists it under `not_applicable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    All,
    /// Workloads that run the tracing engine: all but `interp-baseline`.
    Tracing,
    /// The three SunSpider workloads the tier ladder runs on.
    Ladder,
    /// `warm-start`.
    Warm,
    /// `shared-realms`.
    Shared,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    pub scope: Scope,
}

impl MetricDef {
    /// Whether the traced run of `w` must compute this metric.
    pub fn applies_to(&self, w: &Workload) -> bool {
        match self.scope {
            Scope::All => true,
            Scope::Tracing => w.kind != Kind::Fresh(Engine::Interp),
            Scope::Ladder => w.ladder,
            Scope::Warm => w.kind == Kind::Warm,
            Scope::Shared => w.kind == Kind::Shared,
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound,
        scope: Scope::All,
    }
}

const fn lower(name: &'static str, unit: &'static str, scope: Scope) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: 0.0,
        scope,
    }
}

const fn higher(name: &'static str, unit: &'static str, scope: Scope) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        bound: 0.0,
        scope,
    }
}

/// What a user of the system would see, reported by every untraced run.
///
/// All three are medians of times brought to the reference machine state
/// (see [`crate::calib`]).
///
/// * `round_ms_p50` — median over rounds of a round's time (the sum of
///   its evals; of its busiest client's in `shared-realms`); the long
///   programs dominate it.
/// * `eval_ms_geomean` — geometric mean over programs of each program's
///   median eval time; weights a 2 ms program like a 150 ms one, so a
///   regression confined to short programs still shows.
/// * `setup_s` — median of the set-up repeats (three to nine per run).
///
/// `failed_share` (failed evals / attempted evals, bound 0) is the fourth
/// end-to-end number: `set` stores it and `compare` judges it, but it is
/// not in this table, because a metric of `BENCHMARK.json` may never read
/// 0 and this one always should. Every result line carries its parts,
/// `failed` and `attempted`, and any failure makes `correct` false. Peak
/// memory is per-layer (`runtime.peak_rss_kb`): the high-water mark of a
/// 10 MB process moves 13 % with the shuffle order alone (probed).
pub const END_TO_END: [MetricDef; 3] = [
    e2e("round_ms_p50", "ms", 0.25),
    e2e("eval_ms_geomean", "ms", 0.25),
    e2e("setup_s", "s", 0.25),
];

/// Single-layer metrics of the traced run, per round unless a share,
/// each with the workloads it applies to.
pub const PER_LAYER: [MetricDef; 61] = [
    lower("frontend.parse_ms", "ms", Scope::All),
    lower("frontend.source_bytes", "bytes", Scope::All),
    lower("bytecode.compile_ms", "ms", Scope::All),
    lower("interp.time_ms", "ms", Scope::All),
    lower("interp.bytecodes", "count", Scope::All),
    lower("interp.round_ms", "ms", Scope::Ladder),
    higher("runtime.ic_hit_share", "share", Scope::All),
    lower("runtime.gc_collections", "count", Scope::All),
    lower("runtime.live_objects_end", "count", Scope::All),
    lower("runtime.peak_rss_kb", "kB", Scope::All),
    lower("core.monitor.time_ms", "ms", Scope::Tracing),
    lower("core.monitor.trace_enters", "count", Scope::Tracing),
    lower("core.monitor.side_exits", "count", Scope::Tracing),
    lower("core.monitor.slot_slow", "count", Scope::Tracing),
    higher(
        "core.monitor.native_bytecode_share",
        "share",
        Scope::Tracing,
    ),
    higher("core.monitor.bytecodes_per_enter", "count", Scope::Tracing),
    lower("core.recorder.time_ms", "ms", Scope::Tracing),
    lower("core.recorder.traces_completed", "count", Scope::Tracing),
    lower("core.recorder.abort_share", "share", Scope::Tracing),
    lower("core.recorder.bytecodes_recorded", "count", Scope::Tracing),
    lower("core.tree.trees", "count", Scope::Tracing),
    lower("core.tree.fragments", "count", Scope::Tracing),
    lower("lir.insts", "count", Scope::Tracing),
    lower("nanojit.compile_ms", "ms", Scope::Tracing),
    lower("nanojit.assembler.ms", "ms", Scope::Tracing),
    lower("nanojit.assembler.machinsts", "count", Scope::Tracing),
    lower("nanojit.assembler.spills", "count", Scope::Tracing),
    lower("nanojit.peephole.ms", "ms", Scope::Tracing),
    higher("nanojit.peephole.insts_removed", "count", Scope::Tracing),
    higher("nanojit.peephole.superinsts", "count", Scope::Tracing),
    lower("nanojit.executor.insts_dispatched", "count", Scope::Tracing),
    higher("nanojit.executor.fused_share", "share", Scope::Tracing),
    lower("nanojit.executor.raw_round_ms", "ms", Scope::Ladder),
    lower("nanojit.executor.fused_round_ms", "ms", Scope::Ladder),
    lower("nanojit.ontrace_ms", "ms", Scope::Tracing),
    lower("nanojit.x64.round_ms", "ms", Scope::Ladder),
    higher("nanojit.x64.native_share", "share", Scope::Tracing),
    lower("nanojit.x64.code_bytes", "bytes", Scope::Tracing),
    lower("nanojit.x64.emit_ms", "ms", Scope::Tracing),
    lower(
        "nanojit.x64.emissions_per_fragment",
        "count",
        Scope::Tracing,
    ),
    lower("methodjit.round_ms", "ms", Scope::Ladder),
    lower("core.persist.load_ms", "ms", Scope::Warm),
    lower("core.persist.save_ms", "ms", Scope::Warm),
    lower("core.persist.file_bytes", "bytes", Scope::Warm),
    higher("core.persist.loaded_fragments", "count", Scope::Warm),
    higher("core.persist.hit_share", "share", Scope::Warm),
    lower("core.persist.revalidation_failures", "count", Scope::Warm),
    lower("nanojit.serial.encode_ms", "ms", Scope::Tracing),
    lower("nanojit.serial.decode_ms", "ms", Scope::Tracing),
    lower("nanojit.serial.bytes", "bytes", Scope::Tracing),
    lower("core.pool.jobs_executed", "count", Scope::Shared),
    lower("core.pool.peak_depth", "count", Scope::Shared),
    higher("core.pool.offthread_emission_share", "share", Scope::Shared),
    lower("core.pool.background_round_ms", "ms", Scope::Shared),
    higher("core.shared_cache.hit_share", "share", Scope::Shared),
    lower("core.shared_cache.evictions", "count", Scope::Shared),
    lower("core.shared_cache.insts", "count", Scope::Shared),
    lower("core.mt.request_ms_p50", "ms", Scope::Shared),
    lower("core.mt.request_ms_p90", "ms", Scope::Shared),
    higher("core.mt.realms", "count", Scope::Shared),
    lower("bench.trace_overhead_share", "share", Scope::All),
];

/// Whether a per-layer metric is a count made by the program (which may
/// repeat exactly between two runs of one seed) rather than a time or a
/// memory reading (which never does).
pub fn is_count(def: &MetricDef) -> bool {
    !matches!(def.unit, "ms" | "kB") && def.name != "bench.trace_overhead_share"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    #[test]
    fn each_scope_covers_the_workloads_it_names() {
        let applying = |w: &str| {
            let w = by_name(w).expect("a workload");
            PER_LAYER.iter().filter(|d| d.applies_to(w)).count()
        };
        // 10 for all, 30 more under tracing, then 5 ladder rungs, 6 of
        // `core.persist`, 10 of the pool, shared cache and realms.
        assert_eq!(applying("interp-baseline"), 10);
        assert_eq!(applying("cold-start"), 40);
        assert_eq!(applying("int-loops"), 45);
        assert_eq!(applying("trace-hostile"), 45);
        assert_eq!(applying("warm-start"), 46);
        assert_eq!(applying("shared-realms"), 50);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }
}
