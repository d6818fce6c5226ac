//! The traced run: per-layer metrics.
//!
//! End-to-end numbers are always taken untraced. This pass replays
//! `Vm::eval`'s own sequence of public calls with a span around each call
//! into a layer, turns `JitOptions::profile` on for the Figure 12 time
//! split, reads the counters the program already exports, re-runs the
//! backend stages over the LIR and fragments harvested from the last
//! round, and (on the three SunSpider workloads) times the tier ladder by
//! options only. Nothing inside any other crate is instrumented.
//!
//! The traced rounds are a fixed count, not a time budget, so that the
//! counts can repeat exactly from run to run (`tm_bench check` lists the
//! ones that do).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tm_support::{ByteReader, ByteWriter, Json};
use tracemonkey::interp::{Interp, RunExit};
use tracemonkey::jit::profiler::Activity;
use tracemonkey::jit::shared_cache::SharedKey;
use tracemonkey::lir::LirTrace;
use tracemonkey::nanojit::{self, serial, Fragment};
use tracemonkey::{
    bytecode, frontend, runtime, CacheHandle, Engine, JitOptions, Monitor, MultiTenantVm, Realm,
};

use crate::calib::{self, Sample};
use crate::metrics::PER_LAYER;
use crate::run::{self, checked, render, Samples, Served, Session};
use crate::stats;
use crate::workloads::Program;

/// Rounds of the traced pass, and of the untraced pass it is compared to.
pub const TRACED_ROUNDS: usize = 3;
/// Evals per program per ladder rung (the median is reported).
const LADDER_REPS: usize = 3;

/// One span: a call into a layer. Spans of one eval share `eval`
/// (round x programs + program); `parent` indexes the span that caused it.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub eval: u64,
    pub parent: Option<usize>,
}

/// Spans are kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &'static str, eval: u64, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            eval,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx`; returns its duration in ms.
    pub fn close(&mut self, idx: usize) -> f64 {
        let end = self.now_us();
        self.spans[idx].end_us = end;
        (end - self.spans[idx].start_us) / 1e3
    }

    /// Runs `f` inside a span; returns its result and the duration in ms.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        eval: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let idx = self.open(name, eval, parent);
        let out = f();
        (out, self.close(idx))
    }

    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        ("start_us", Json::from(s.start_us)),
                        ("end_us", Json::from(s.end_us)),
                        ("eval", Json::from(s.eval)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ])
                })
                .collect(),
        )
    }
}

/// Sums over the traced rounds, keyed by metric name (or by a `_raw` name
/// for the numerators and denominators of the shares).
#[derive(Debug, Default)]
struct Acc(BTreeMap<&'static str, f64>);

impl Acc {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    fn share(&self, part: &str, rest: &str) -> f64 {
        let (a, b) = (self.get(part), self.get(rest));
        if a + b == 0.0 {
            0.0
        } else {
            a / (a + b)
        }
    }
}

/// A compiled tree kept for the backend replay.
struct Harvested {
    eval: u64,
    lir: Vec<LirTrace>,
    fragments: Arc<Vec<Fragment>>,
}

/// Everything a traced eval writes to: spans, sums, and (in the last
/// round) the trees kept for the backend replay. `shared-realms` gives
/// each client its own and merges them after the round, so clients never
/// contend on it.
struct Probe {
    tr: Tracer,
    acc: Acc,
    keep_trees: bool,
    kept: Vec<Harvested>,
}

impl Probe {
    fn new(tr: Tracer) -> Probe {
        Probe {
            tr,
            acc: Acc::default(),
            keep_trees: false,
            kept: Vec::new(),
        }
    }

    /// Appends a client's spans (re-basing their parent links; top-level
    /// ones hang off `parent`), sums and trees.
    fn absorb(&mut self, client: Probe, parent: usize) {
        let base = self.tr.spans.len();
        for mut span in client.tr.spans {
            span.parent = Some(span.parent.map_or(parent, |i| i + base));
            self.tr.spans.push(span);
        }
        for (key, v) in client.acc.0 {
            self.acc.add(key, v);
        }
        self.kept.extend(client.kept);
    }
}

/// Where and how a traced eval runs.
struct EvalEnv<'a> {
    engine: Engine,
    cache: Option<&'a Path>,
    /// `shared-realms`: the host whose shared cache and pool the monitor
    /// attaches to, exactly as a `MultiTenantVm::realm_vm` tenant does.
    host: Option<&'a MultiTenantVm>,
}

/// A fresh realm and `Vm::eval`, call by call, with a span around each
/// layer.
fn traced_eval(
    env: &EvalEnv,
    source: &str,
    eval: u64,
    parent: Option<usize>,
    probe: &mut Probe,
) -> Result<String, String> {
    let span = probe.tr.open("eval", eval, parent);
    let me = Some(span);
    let Probe {
        tr,
        acc,
        keep_trees,
        kept,
    } = probe;
    let result = (|| {
        let (mut realm, _) = tr.time("runtime.realm_new", eval, me, Realm::new);
        let realm = &mut realm;
        acc.add("frontend.source_bytes", source.len() as f64);
        let (ast, ms) = tr.time("frontend.parse", eval, me, || frontend::parse(source));
        acc.add("frontend.parse_ms", ms);
        let ast = ast.map_err(|e| e.to_string())?;
        let (prog, ms) = tr.time("bytecode.compile", eval, me, || {
            bytecode::compile(&ast, realm)
        });
        acc.add("bytecode.compile_ms", ms);
        let prog = prog.map_err(|e| e.to_string())?;
        let (mut interp, _) = tr.time("interp.install", eval, me, || Interp::new(prog, realm));
        let value = match env.engine {
            Engine::Interp => {
                let (r, ms) = tr.time("interp.run", eval, me, || interp.run(realm));
                acc.add("interp.time_ms", ms);
                acc.add("interp.bytecodes", interp.ops_executed as f64);
                acc.add(
                    "_ic_hits",
                    (interp.ic_stats.get_hits + interp.ic_stats.set_hits) as f64,
                );
                acc.add("_ic_misses", interp.ic_stats.misses() as f64);
                match r {
                    Ok(RunExit::Finished(v)) => v,
                    Ok(_) => unreachable!("monitor disabled"),
                    Err(e) => return Err(e.to_string()),
                }
            }
            Engine::Tracing => {
                let opts = JitOptions {
                    profile: true,
                    // Only so that trees keep their final LIR for the replay.
                    log_events: true,
                    ..JitOptions::default()
                };
                let mut monitor = Monitor::new(opts);
                // The event log itself is not read; keep it from growing.
                monitor.events.cap = 1;
                if let Some(host) = env.host {
                    let key = SharedKey::capture(interp.prog(), realm);
                    monitor.attach_shared(Arc::clone(host.shared_cache()), key);
                    monitor.attach_pool(Arc::clone(host.pool()));
                }
                let handle = env
                    .cache
                    .map(|p| CacheHandle::capture(p.to_path_buf(), interp.prog(), realm));
                if let Some(h) = &handle {
                    let (_, ms) = tr.time("core.persist.load", eval, me, || {
                        monitor.load_cache(h, &mut interp, realm)
                    });
                    acc.add("core.persist.load_ms", ms);
                }
                let (r, _) = tr.time("core.monitor.run_program", eval, me, || {
                    monitor.run_program(&mut interp, realm)
                });
                if let (Some(h), Ok(_)) = (&handle, &r) {
                    let (_, ms) = tr.time("core.persist.save", eval, me, || {
                        monitor.save_cache(h, realm)
                    });
                    acc.add("core.persist.save_ms", ms);
                }
                read_monitor(&monitor, eval, acc, keep_trees.then_some(kept));
                r.map_err(|e| e.to_string())?
            }
            other => unreachable!("no workload evaluates under {other:?}"),
        };
        acc.add(
            "runtime.gc_collections",
            realm.heap.gc_stats().collections as f64,
        );
        acc.add("runtime.live_objects_end", realm.heap.live_objects() as f64);
        let (shown, _) = tr.time("runtime.display", eval, me, || {
            runtime::ops::to_display(realm, value)
        });
        Ok(render(&realm.output, &shown))
    })();
    tr.close(span);
    result
}

/// Copies what the monitor of one eval exports into the sums.
fn read_monitor(monitor: &Monitor, eval: u64, acc: &mut Acc, harvest: Option<&mut Vec<Harvested>>) {
    let s = &monitor.profiler.stats;
    let ms = |a: Activity| s.time_in(a).as_secs_f64() * 1e3;
    acc.add("interp.time_ms", ms(Activity::Interpret));
    acc.add("core.monitor.time_ms", ms(Activity::Monitor));
    acc.add("core.recorder.time_ms", ms(Activity::Record));
    acc.add("nanojit.compile_ms", ms(Activity::Compile));
    acc.add("nanojit.ontrace_ms", ms(Activity::Native));
    acc.add("interp.bytecodes", s.bytecodes_interp as f64);
    acc.add("_ic_hits", (s.ic.get_hits + s.ic.set_hits) as f64);
    acc.add("_ic_misses", s.ic.misses() as f64);
    acc.add("core.monitor.trace_enters", s.trace_enters as f64);
    acc.add("core.monitor.side_exits", s.side_exits as f64);
    acc.add("core.monitor.slot_slow", s.monitor_slot_slow as f64);
    acc.add("_bytecodes_native", s.bytecodes_native as f64);
    acc.add(
        "_bytecodes_other",
        (s.bytecodes_interp + s.bytecodes_recorded) as f64,
    );
    acc.add("core.recorder.traces_completed", s.traces_completed as f64);
    acc.add("_traces_aborted", s.traces_aborted as f64);
    acc.add(
        "core.recorder.bytecodes_recorded",
        s.bytecodes_recorded as f64,
    );
    acc.add("core.tree.trees", s.trees as f64);
    acc.add("core.tree.fragments", s.fragments as f64);
    acc.add(
        "nanojit.peephole.insts_removed",
        s.fuse_insts_removed as f64,
    );
    acc.add("nanojit.peephole.superinsts", s.fused_superinsts as f64);
    acc.add("nanojit.executor.insts_dispatched", s.native_insts as f64);
    acc.add("_insts_fused", s.native_insts_fused as f64);
    acc.add("_native_exits", s.native_exits as f64);
    acc.add("_native_fragments", s.native_fragments as f64);
    acc.add(
        "core.persist.loaded_fragments",
        s.cache_loaded_fragments as f64,
    );
    acc.add("_cache_hits", s.cache_hits as f64);
    acc.add("_cache_misses", s.cache_misses as f64);
    acc.add(
        "core.persist.revalidation_failures",
        s.cache_revalidation_failures as f64,
    );
    let mut kept = harvest;
    for tree in monitor.cache.iter() {
        acc.add(
            "lir.insts",
            tree.lir.iter().map(|t| t.code.len()).sum::<usize>() as f64,
        );
        for frag in tree.fragments.iter() {
            acc.add("nanojit.assembler.machinsts", frag.len() as f64);
            acc.add("nanojit.assembler.spills", f64::from(frag.num_spills));
        }
        if let Some(kept) = kept.as_deref_mut() {
            kept.push(Harvested {
                eval,
                lir: tree.lir.clone(),
                fragments: Arc::clone(&tree.fragments),
            });
        }
    }
}

/// Re-runs the backend stages over one round's harvested trees: the
/// assembler and the peephole pass over the LIR, the x86-64 emitter and
/// the fragment codec over the installed fragments.
fn replay_backend(trees: &[Harvested], tr: &mut Tracer, out: &mut BTreeMap<&'static str, f64>) {
    let mut add = |key: &'static str, v: f64| *out.entry(key).or_insert(0.0) += v;
    // A round that compiled nothing replays nothing: that is a measured 0.
    for key in [
        "nanojit.assembler.ms",
        "nanojit.peephole.ms",
        "nanojit.x64.emit_ms",
        "nanojit.x64.code_bytes",
        "nanojit.serial.encode_ms",
        "nanojit.serial.bytes",
        "nanojit.serial.decode_ms",
    ] {
        add(key, 0.0);
    }
    for tree in trees {
        for lir in &tree.lir {
            let (raw, ms) = tr.time("nanojit.assemble", tree.eval, None, || {
                nanojit::assemble(lir)
            });
            add("nanojit.assembler.ms", ms);
            let (_, ms) = tr.time("nanojit.fuse", tree.eval, None, || nanojit::fuse(raw));
            add("nanojit.peephole.ms", ms);
        }
        let (native, ms) = tr.time("nanojit.x64.emit_tree", tree.eval, None, || {
            nanojit::emit_tree(&tree.fragments)
        });
        add("nanojit.x64.emit_ms", ms);
        if let Ok(native) = native {
            add("nanojit.x64.code_bytes", native.code_size() as f64);
        }
        for frag in tree.fragments.iter() {
            let mut w = ByteWriter::new();
            let ((), ms) = tr.time("nanojit.serial.encode", tree.eval, None, || {
                serial::encode_fragment(frag, &mut w)
            });
            add("nanojit.serial.encode_ms", ms);
            add("nanojit.serial.bytes", w.len() as f64);
            let bytes = w.into_bytes();
            let (decoded, ms) = tr.time("nanojit.serial.decode", tree.eval, None, || {
                serial::decode_fragment(&mut ByteReader::new(&bytes))
            });
            add("nanojit.serial.decode_ms", ms);
            debug_assert!(decoded.is_ok(), "a fragment this process encoded decodes");
        }
    }
}

/// The tier ladder: every program of the workload on each tier, chosen by
/// engine and options only, untraced. One row per program so that "a tier
/// loses to the tier below" arrives with a program name and two numbers.
fn ladder(programs: &[Program], samples: &mut Samples) -> (BTreeMap<&'static str, f64>, Json) {
    let decoded = |fusion| JitOptions {
        native_backend: false,
        enable_fusion: fusion,
        ..JitOptions::default()
    };
    let rungs: [(&'static str, Engine, JitOptions); 5] = [
        ("interp.round_ms", Engine::Interp, JitOptions::default()),
        ("methodjit.round_ms", Engine::Method, JitOptions::default()),
        (
            "nanojit.executor.raw_round_ms",
            Engine::Tracing,
            decoded(false),
        ),
        (
            "nanojit.executor.fused_round_ms",
            Engine::Tracing,
            decoded(true),
        ),
        (
            "nanojit.x64.round_ms",
            Engine::Tracing,
            JitOptions::default(),
        ),
    ];
    let mut totals = BTreeMap::new();
    let mut rows = Vec::new();
    for prog in programs {
        let mut row = vec![("program".to_owned(), Json::from(prog.name.as_str()))];
        for (name, engine, opts) in rungs {
            let mut times = Vec::with_capacity(LADDER_REPS);
            for _ in 0..LADDER_REPS {
                let r = checked(prog, || run::fresh_eval(engine, opts, None, &prog.source));
                // A failed eval (a fast error, say) is no timing.
                if r.failure.is_none() {
                    times.push(r.ms);
                }
                samples.count(r.failure.map(|why| format!("ladder {name}: {why}")));
            }
            let Some(ms) = (!times.is_empty()).then(|| stats::median(&times)) else {
                row.push((name.to_owned(), Json::Null));
                continue;
            };
            *totals.entry(name).or_insert(0.0) += ms;
            row.push((name.to_owned(), Json::from(ms)));
        }
        rows.push(Json::Object(row));
    }
    (totals, Json::Array(rows))
}

/// The background rung of `shared-realms`: the same request lists served,
/// untraced, by a host of its own whose tenants hand compilation and
/// native emission to one pool worker (`background_compile` on), after one
/// round that fills its shared cache. The timed rounds leave that option
/// off (see `Session::start_host`); here is what it costs and does.
fn background_rung(session: &Session, samples: &mut Samples) -> BTreeMap<&'static str, f64> {
    let shared = session.shared.as_ref().expect("shared-realms has a host");
    let host = MultiTenantVm::new(1);
    let mut rounds = Vec::new();
    let mut emitted = run::Emissions::default();
    let mut executed = 0;
    for round in 0..=TRACED_ROUNDS {
        let before = host.pool_stats().executed;
        let (clients, e) = run::serve_shared(&host, &shared.lists, &session.programs);
        let readings: Vec<f64> = clients.iter().flat_map(|c| c.readings.clone()).collect();
        let sample = Sample {
            time: clients.iter().map(Served::busy_ms).fold(0.0, f64::max),
            cal: stats::mean(&readings),
        };
        for (_, r) in clients.into_iter().flat_map(|c| c.evals) {
            samples.count(r.failure.map(|why| format!("background rung: {why}")));
        }
        if round > 0 {
            rounds.push(sample);
            emitted.offthread += e.offthread;
            emitted.sync += e.sync;
            executed += host.pool_stats().executed - before;
        }
    }
    let emissions = (emitted.offthread + emitted.sync).max(1);
    BTreeMap::from([
        (
            "core.pool.background_round_ms",
            calib::median_at_reference(&rounds, session.workload.sensitivity),
        ),
        (
            "core.pool.jobs_executed",
            executed as f64 / TRACED_ROUNDS as f64,
        ),
        ("core.pool.peak_depth", host.pool_stats().peak_depth as f64),
        (
            "core.pool.offthread_emission_share",
            emitted.offthread as f64 / emissions as f64,
        ),
    ])
}

/// What the traced run of one workload produced.
pub struct Traced {
    /// Every `PER_LAYER` metric, in table order; 0 for the ones in
    /// `not_applicable`.
    pub metrics: Vec<(&'static str, f64)>,
    /// The metrics that do not apply to this workload.
    pub not_applicable: Vec<&'static str>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per-program ladder rows (`null` where the ladder does not run).
    pub ladder: Json,
    pub tracer: Tracer,
}

/// Runs the traced pass on a session that set-up has already warmed.
/// An error when a metric that applies to the workload was not computed:
/// that is a bug in this file, and a 0 in its place would read as the
/// best possible measurement.
pub fn traced_run(session: &mut Session) -> Result<Traced, String> {
    let nprog = session.programs.len();
    let mut samples = Samples::new(nprog);

    // The untraced reference for the tracing overhead.
    let untraced_round_ms: Vec<f64> = (0..TRACED_ROUNDS)
        .map(|_| session.round(&mut samples))
        .collect();

    let mut probe = Probe::new(Tracer::new());
    let mut traced_round_ms = Vec::new();
    let mut request_ms = Vec::new();
    let host_before = session.shared.as_ref().map(|s| s.mt.shared_stats());

    for round in 0..TRACED_ROUNDS {
        probe.keep_trees = round + 1 == TRACED_ROUNDS;
        let round_span = probe.tr.open("round", round as u64, None);
        if let Some((engine, cache)) = session.fresh_engine() {
            let env = EvalEnv {
                engine,
                cache: cache.as_deref(),
                host: None,
            };
            let mut round_ms = 0.0;
            for p in session.next_order() {
                let prog = &session.programs[p];
                let eval = (round * nprog + p) as u64;
                let r = checked(prog, || {
                    traced_eval(&env, &prog.source, eval, Some(round_span), &mut probe)
                });
                round_ms += r.ms;
                samples.count(r.failure);
            }
            traced_round_ms.push(round_ms);
        } else {
            let programs = &session.programs;
            let shared = session.shared.as_ref().expect("shared-realms has a host");
            let host = &shared.mt;
            let (origin, keep_trees) = (probe.tr.origin, probe.keep_trees);
            let clients = shared.lists.len();
            let per_client: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = shared
                    .lists
                    .iter()
                    .enumerate()
                    .map(|(k, list)| {
                        s.spawn(move || {
                            let mut probe = Probe::new(Tracer {
                                origin,
                                spans: Vec::new(),
                            });
                            probe.keep_trees = keep_trees;
                            let mut served = Vec::new();
                            let env = EvalEnv {
                                engine: Engine::Tracing,
                                cache: None,
                                host: Some(host),
                            };
                            for (i, &p) in list.iter().enumerate() {
                                let prog = &programs[p];
                                let eval = ((round * clients + k) * list.len() + i) as u64;
                                let request = probe.tr.open("core.mt.request", eval, None);
                                let r = checked(prog, || {
                                    traced_eval(&env, &prog.source, eval, Some(request), &mut probe)
                                });
                                let ms = probe.tr.close(request);
                                served.push((r, ms));
                            }
                            (probe, served)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|c| c.join().expect("client thread"))
                    .collect()
            });
            // As in the untraced rounds: a round lasts as long as its
            // busiest client.
            let mut round_ms: f64 = 0.0;
            for (client, served) in per_client {
                probe.absorb(client, round_span);
                round_ms = round_ms.max(served.iter().map(|(r, _)| r.ms).sum());
                for (r, ms) in served {
                    samples.count(r.failure);
                    request_ms.push(ms);
                }
            }
            traced_round_ms.push(round_ms);
        }
        probe.tr.close(round_span);
    }
    let Probe {
        mut tr,
        acc,
        kept: harvested,
        ..
    } = probe;

    // Per-round means of everything summed above.
    let rounds = TRACED_ROUNDS as f64;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (key, v) in &acc.0 {
        if !key.starts_with('_') {
            values.insert(key, v / rounds);
        }
    }
    values.insert("runtime.ic_hit_share", acc.share("_ic_hits", "_ic_misses"));
    values.insert(
        "core.monitor.native_bytecode_share",
        acc.share("_bytecodes_native", "_bytecodes_other"),
    );
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    values.insert(
        "core.monitor.bytecodes_per_enter",
        ratio(
            acc.get("_bytecodes_native"),
            acc.get("core.monitor.trace_enters"),
        ),
    );
    values.insert(
        "core.recorder.abort_share",
        acc.share("_traces_aborted", "core.recorder.traces_completed"),
    );
    values.insert(
        "nanojit.executor.fused_share",
        ratio(
            acc.get("_insts_fused"),
            acc.get("nanojit.executor.insts_dispatched"),
        ),
    );
    values.insert(
        "nanojit.x64.native_share",
        ratio(
            acc.get("_native_exits"),
            acc.get("core.monitor.trace_enters"),
        ),
    );
    values.insert(
        "nanojit.x64.emissions_per_fragment",
        ratio(acc.get("_native_fragments"), acc.get("core.tree.fragments")),
    );
    values.insert(
        "core.persist.hit_share",
        acc.share("_cache_hits", "_cache_misses"),
    );
    if let Some(path) = &session.cache {
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        values.insert("core.persist.file_bytes", bytes as f64);
    }
    if let (Some(shared), Some(cache0)) = (&session.shared, host_before) {
        let cache = shared.mt.shared_stats();
        let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
        values.insert(
            "core.shared_cache.hit_share",
            ratio(hits as f64, (hits + misses) as f64),
        );
        values.insert(
            "core.shared_cache.evictions",
            (cache.evictions - cache0.evictions) as f64 / rounds,
        );
        values.insert("core.shared_cache.insts", cache.insts as f64);
        values.insert(
            "core.mt.request_ms_p50",
            stats::percentile(&request_ms, 0.5),
        );
        values.insert(
            "core.mt.request_ms_p90",
            stats::percentile(&request_ms, 0.9),
        );
        values.insert("core.mt.realms", shared.lists.len() as f64);
        values.extend(background_rung(session, &mut samples));
    }
    values.insert(
        "bench.trace_overhead_share",
        stats::median(&traced_round_ms) / stats::median(&untraced_round_ms) - 1.0,
    );

    replay_backend(&harvested, &mut tr, &mut values);
    drop(harvested);

    let mut ladder_rows = Json::Null;
    if session.workload.ladder {
        let (totals, rows) = ladder(&session.programs, &mut samples);
        values.extend(totals);
        ladder_rows = rows;
    }
    values.insert("runtime.peak_rss_kb", run::peak_rss_kb() as f64);

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    let mut not_applicable = Vec::new();
    for d in &PER_LAYER {
        if d.applies_to(session.workload) {
            let v = values
                .get(d.name)
                .ok_or_else(|| format!("{}: {} was not computed", session.workload.name, d.name))?;
            metrics.push((d.name, *v));
        } else {
            not_applicable.push(d.name);
            metrics.push((d.name, 0.0));
        }
    }
    Ok(Traced {
        metrics,
        not_applicable,
        attempted: samples.attempted,
        failed: samples.failed,
        failures: samples.failures,
        ladder: ladder_rows,
        tracer: tr,
    })
}
