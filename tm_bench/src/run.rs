//! Set-up and the untraced, timed rounds of a workload.
//!
//! The unit of work is an *eval*: one program evaluated from source
//! (parse + bytecode compile + run, JIT warm-up included) and its output
//! checked against the reference. A *round* is the workload's whole
//! program list evaluated once, in an order shuffled by the seed. Every
//! eval is checked and counted; a wrong answer, an error or a panic is a
//! failed eval, never the end of the run, and its time is no sample.
//!
//! An eval is timed in the CPU time of the thread that runs it, so what
//! the hypervisor steals is not in it; the wall clock of a
//! `shared-realms` request is the per-layer `core.mt.request_ms_p50`.
//! A machine-state reading ([`crate::calib`]) is taken before every eval
//! and after the last one of a round.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use tm_support::TmRng;
use tracemonkey::{runtime, Engine, JitOptions, MultiTenantVm, Vm};

use crate::calib::{self, Calibrator, Sample};
use crate::stats;
use crate::workloads::{self, Kind, Program, Workload};
use crate::Size;

/// The reference text of one eval: `print` output, then the displayed
/// completion value.
pub fn render(output: &str, shown: &str) -> String {
    format!("{output}=> {shown}\n")
}

/// Where the harness may write (the warm cache, span dumps, detail
/// files): inside the build directory, which the repository ignores.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("tm_bench_out")
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One eval in a fresh `Vm`. `Err` carries the error text of a guest or
/// front-end failure.
pub fn fresh_eval(
    engine: Engine,
    opts: JitOptions,
    cache: Option<&Path>,
    source: &str,
) -> Result<String, String> {
    let mut vm = Vm::with_options(engine, opts);
    // Explicit, so a stray TM_CACHE in the environment changes nothing.
    vm.set_cache_path(cache.map(Path::to_path_buf));
    let v = vm.eval(source).map_err(|e| e.to_string())?;
    let shown = runtime::ops::to_display(&mut vm.realm, v);
    Ok(render(vm.output(), &shown))
}

/// The reference output of a program: the plain interpreter's answer,
/// never a compiled tier's.
pub fn reference(source: &str) -> Result<String, String> {
    fresh_eval(Engine::Interp, JitOptions::default(), None, source)
}

/// Native-code emissions of the realms a client served, by where they ran.
#[derive(Debug, Default, Clone, Copy)]
pub struct Emissions {
    pub offthread: u64,
    pub sync: u64,
}

/// One request: a fresh tenant realm wired to the host's shared code
/// cache and compiler pool.
fn tenant_eval(
    host: &MultiTenantVm,
    source: &str,
    emitted: &mut Emissions,
) -> Result<String, String> {
    let mut vm = host.realm_vm();
    let result = vm.eval(source);
    if let Some(s) = vm.profile() {
        emitted.offthread += s.native_emissions_offthread;
        emitted.sync += s.native_emissions_sync;
    }
    let v = result.map_err(|e| e.to_string())?;
    let shown = runtime::ops::to_display(&mut vm.realm, v);
    Ok(render(vm.output(), &shown))
}

/// One round of `shared-realms` against `host`: every client serves its
/// list once, in a closed loop (the next request is sent when the
/// previous one has been answered).
pub fn serve_shared(
    host: &MultiTenantVm,
    lists: &[Vec<usize>],
    programs: &[Program],
) -> (Vec<Served>, Emissions) {
    let per_client: Vec<(Served, Emissions)> = std::thread::scope(|s| {
        let clients: Vec<_> = lists
            .iter()
            .map(|list| {
                s.spawn(move || {
                    let mut emitted = Emissions::default();
                    let served = Served::run(list, &mut Calibrator::new(), |p| {
                        let prog = &programs[p];
                        checked(prog, || tenant_eval(host, &prog.source, &mut emitted))
                    });
                    (served, emitted)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let mut total = Emissions::default();
    for (_, e) in &per_client {
        total.offthread += e.offthread;
        total.sync += e.sync;
    }
    (per_client.into_iter().map(|(s, _)| s).collect(), total)
}

/// What one timed eval produced.
#[derive(Debug)]
pub struct EvalResult {
    pub ms: f64,
    /// Why the eval failed, if it did.
    pub failure: Option<String>,
}

/// Times `eval`, catches a panic inside it, and checks the output.
pub fn checked(prog: &Program, eval: impl FnOnce() -> Result<String, String>) -> EvalResult {
    let start = calib::thread_cpu_ms();
    let got = catch_unwind(AssertUnwindSafe(eval));
    let ms = calib::thread_cpu_ms() - start;
    let failure = match got {
        Ok(Ok(text)) if text == prog.expected => None,
        Ok(Ok(text)) => Some(format!(
            "{}: got {text:?}, expected {:?}",
            prog.name, prog.expected
        )),
        Ok(Err(e)) => Some(format!("{}: error: {e}", prog.name)),
        Err(_) => Some(format!("{}: panicked", prog.name)),
    };
    EvalResult { ms, failure }
}

/// The evals one thread ran back to back: `(program, result)` each, and
/// the machine-state readings between them (one more than evals).
#[derive(Debug, Default)]
pub struct Served {
    pub evals: Vec<(usize, EvalResult)>,
    pub readings: Vec<f64>,
}

impl Served {
    /// Runs `eval` for each program of `order`, a reading before each and
    /// one at the end.
    pub fn run(
        order: &[usize],
        cal: &mut Calibrator,
        mut eval: impl FnMut(usize) -> EvalResult,
    ) -> Served {
        let mut served = Served::default();
        for &p in order {
            served.readings.push(cal.read());
            served.evals.push((p, eval(p)));
        }
        served.readings.push(cal.read());
        served
    }

    /// Total eval time, calibration left out.
    pub fn busy_ms(&self) -> f64 {
        self.evals.iter().map(|(_, r)| r.ms).sum()
    }
}

/// Everything the timed rounds recorded.
#[derive(Debug, Default)]
pub struct Samples {
    /// One sample per round in which no eval failed.
    pub rounds: Vec<Sample>,
    /// Samples of the evals that did not fail, per program, indexed like
    /// `Session::programs`.
    pub evals: Vec<Vec<Sample>>,
    pub rounds_run: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human reading stderr.
    pub failures: Vec<String>,
}

impl Samples {
    pub fn new(programs: usize) -> Samples {
        Samples {
            evals: vec![Vec::new(); programs],
            ..Samples::default()
        }
    }

    /// Records one round: what each client thread served (one client
    /// outside `shared-realms`). The round lasts as long as its busiest
    /// client; returns that time as measured, failed evals and all.
    pub fn record_round(&mut self, clients: Vec<Served>) -> f64 {
        let failed_before = self.failed;
        let mut readings = Vec::new();
        let mut round_ms: f64 = 0.0;
        for served in clients {
            round_ms = round_ms.max(served.busy_ms());
            for (i, (p, r)) in served.evals.into_iter().enumerate() {
                if r.failure.is_none() {
                    self.evals[p].push(Sample {
                        time: r.ms,
                        cal: (served.readings[i] + served.readings[i + 1]) / 2.0,
                    });
                }
                self.count(r.failure);
            }
            readings.extend(served.readings);
        }
        self.rounds_run += 1;
        if self.failed == failed_before {
            self.rounds.push(Sample {
                time: round_ms,
                cal: stats::mean(&readings),
            });
        }
        round_ms
    }

    /// Counts one eval whose time is not a sample.
    pub fn count(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Raw round times, as measured.
    pub fn round_ms(&self) -> Vec<f64> {
        self.rounds.iter().map(|s| s.time).collect()
    }

    /// Each program's median eval time at the reference machine state;
    /// `None` for a program no request reached (the Zipf tail) or whose
    /// every eval failed.
    pub fn eval_ms(&self, sensitivity: f64) -> Vec<Option<f64>> {
        self.evals
            .iter()
            .map(|v| (!v.is_empty()).then(|| calib::median_at_reference(v, sensitivity)))
            .collect()
    }
}

/// The long-lived part of `shared-realms`: the host, and one request
/// list per client (as indices into `Session::programs`).
pub struct SharedState {
    pub mt: MultiTenantVm,
    pub lists: Vec<Vec<usize>>,
}

/// A workload set up for one seed, ready to run rounds.
pub struct Session {
    pub workload: &'static Workload,
    pub programs: Vec<Program>,
    /// The pre-filled `.tmc` of `warm-start`.
    pub cache: Option<PathBuf>,
    pub shared: Option<SharedState>,
    /// Mean machine-state reading over this set-up.
    pub setup_cal: f64,
    rng: TmRng,
    cal: Calibrator,
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(path) = &self.cache {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Session {
    /// Builds the program list with its references, fills the caches the
    /// workload starts from, and runs one untimed round so lazy set-up is
    /// over before timing. All of it is what `setup_s` measures. A
    /// machine-state reading is taken before every eval of it, so that
    /// their mean weighs each part of the set-up by its length.
    pub fn setup(workload: &'static Workload, seed: u64, size: Size) -> Result<Session, String> {
        let mut cal = Calibrator::new();
        let mut readings = Vec::new();
        let keep = if size == Size::Smoke { 2 } else { usize::MAX };
        let suite: Vec<Program> = workload
            .suite
            .iter()
            .take(keep)
            .map(|name| workloads::suite_program(name))
            .collect();
        let mut generated = Vec::new();
        for g in workloads::generated_for(workload, seed)
            .into_iter()
            .take(keep)
        {
            readings.push(cal.read());
            let expected = reference(&g.source)
                .map_err(|e| format!("{}: reference run failed: {e}\n{}", g.name, g.source))?;
            generated.push(Program {
                name: g.name,
                source: g.source,
                expected,
            });
        }
        let mut session = Session {
            workload,
            programs: Vec::new(),
            cache: None,
            shared: None,
            setup_cal: 0.0,
            rng: TmRng::seed_from_u64(seed ^ 0x5eed_0bde),
            cal,
        };
        match workload.kind {
            Kind::Fresh(_) => session.programs = suite.into_iter().chain(generated).collect(),
            Kind::Warm => {
                session.programs = generated;
                session.fill_cache(&mut readings)?;
            }
            Kind::Shared => {
                // Popularity ranks alternate suite and generated programs.
                let mut ranked = Vec::new();
                for (s, g) in suite.into_iter().zip(generated) {
                    ranked.push(s);
                    ranked.push(g);
                }
                session.programs = ranked;
                session.start_host();
            }
        }
        // The warm-up round's evals are no samples: what fails here fails
        // in the timed rounds too, and is counted there.
        for served in session.serve() {
            readings.extend(served.readings);
        }
        session.setup_cal = stats::mean(&readings);
        Ok(session)
    }

    /// Evaluates every program against one `.tmc` until a run of it
    /// records nothing new, so timed evals only read the file.
    fn fill_cache(&mut self, readings: &mut Vec<f64>) -> Result<(), String> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("warm-{}.tmc", std::process::id()));
        let _ = std::fs::remove_file(&path);
        for prog in &self.programs {
            let mut quiet = false;
            for _ in 0..8 {
                readings.push(self.cal.read());
                let mut vm = Vm::new(Engine::Tracing);
                vm.set_cache_path(Some(path.clone()));
                vm.eval(&prog.source)
                    .map_err(|e| format!("{}: {e}", prog.name))?;
                if let Some(e) = vm.last_cache_error() {
                    return Err(format!("{}: cache rejected: {e}", prog.name));
                }
                let s = vm.profile().expect("tracing engine has a profile");
                // Nothing recorded, so nothing the file does not hold
                // already (or nothing in this program to trace at all).
                if s.traces_completed == 0 && s.traces_aborted == 0 {
                    quiet = true;
                    break;
                }
            }
            if !quiet {
                return Err(format!("{}: cache did not quiesce in 8 runs", prog.name));
            }
        }
        self.cache = Some(path);
        Ok(())
    }

    /// One `MultiTenantVm` whose tenants compile on the thread that serves
    /// the request, and the request lists of its K = max(1, cores - 1)
    /// clients. With `background_compile` on, how long a request runs
    /// decoded or interpreted code depends on when the pool worker's
    /// vCPU is scheduled: the client's CPU time per round was 40 % higher
    /// and, on the shared reference box, moved by 30 % between runs and
    /// the set-up by 50 %. That configuration is a rung of the traced run
    /// (`core.pool.*`), not what the timed rounds measure.
    fn start_host(&mut self) {
        let k = cores().saturating_sub(1).max(1);
        let counts = workloads::zipf_counts(self.programs.len(), workloads::SHARED_REQUESTS);
        let requests: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(p, &n)| std::iter::repeat_n(p, n))
            .collect();
        let lists = (0..k)
            .map(|_| {
                let mut list = requests.clone();
                shuffle(&mut list, &mut self.rng);
                list
            })
            .collect();
        self.shared = Some(SharedState {
            mt: MultiTenantVm::with_options(JitOptions::default(), 1),
            lists,
        });
    }

    /// Engine and cache file of a workload whose evals each get a fresh
    /// `Vm`; `None` for `shared-realms`.
    pub fn fresh_engine(&self) -> Option<(Engine, Option<PathBuf>)> {
        match self.workload.kind {
            Kind::Fresh(engine) => Some((engine, None)),
            Kind::Warm => Some((Engine::Tracing, self.cache.clone())),
            Kind::Shared => None,
        }
    }

    /// The program order of the next round.
    pub fn next_order(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.programs.len()).collect();
        shuffle(&mut order, &mut self.rng);
        order
    }

    /// Runs one round: what each client thread served (one client outside
    /// `shared-realms`).
    fn serve(&mut self) -> Vec<Served> {
        let Some((engine, cache)) = self.fresh_engine() else {
            let shared = self.shared.as_ref().expect("shared-realms has a host");
            return serve_shared(&shared.mt, &shared.lists, &self.programs).0;
        };
        let order = self.next_order();
        let programs = &self.programs;
        vec![Served::run(&order, &mut self.cal, |p| {
            let prog = &programs[p];
            checked(prog, || {
                fresh_eval(
                    engine,
                    JitOptions::default(),
                    cache.as_deref(),
                    &prog.source,
                )
            })
        })]
    }

    /// Runs one round and records it; returns its time as measured.
    pub fn round(&mut self, samples: &mut Samples) -> f64 {
        let served = self.serve();
        samples.record_round(served)
    }
}

/// Fisher-Yates with the harness's own generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut TmRng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Peak resident set size of this process in KiB (`VmHWM`), 0 where
/// `/proc` does not say.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_an_error_and_a_panic_are_counted_not_fatal() {
        let prog = Program {
            name: "p".into(),
            source: String::new(),
            expected: "=> 1\n".into(),
        };
        let mut samples = Samples::new(1);
        let mut answers = vec![
            Ok("=> 1\n".to_owned()),
            Ok("=> 2\n".to_owned()),
            Err("boom".to_owned()),
        ];
        let mut cal = Calibrator::new();
        let served = Served::run(&[0, 0, 0, 0], &mut cal, |_| match answers.pop() {
            Some(answer) => checked(&prog, || answer),
            None => checked(&prog, || panic!("inside the eval")),
        });
        assert_eq!(served.readings.len(), 5);
        samples.record_round(vec![served]);
        assert_eq!((samples.attempted, samples.failed), (4, 3));
        assert_eq!(samples.failures.len(), 3);
        // Only the right answer is a timing sample, and a round with a
        // failed eval is none.
        assert_eq!(samples.evals[0].len(), 1);
        assert_eq!((samples.rounds_run, samples.rounds.len()), (1, 0));

        let clean = Served::run(&[0], &mut cal, |_| checked(&prog, || Ok("=> 1\n".into())));
        samples.record_round(vec![clean]);
        assert_eq!((samples.rounds_run, samples.rounds.len()), (2, 1));
        assert!(samples.rounds[0].cal > 0.0);
    }

    #[test]
    fn shuffle_is_seeded() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..20).collect();
            shuffle(&mut v, &mut TmRng::seed_from_u64(seed));
            v
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
        let mut sorted = order(1);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn render_puts_output_before_the_value() {
        assert_eq!(render("a\nb\n", "3"), "a\nb\n=> 3\n");
    }
}
