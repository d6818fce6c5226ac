//! `tm_bench` — the one benchmark harness of this repository.
//!
//! ```text
//! tm_bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! tm_bench set --seed N --out FILE [--workload W] [--smoke]
//! tm_bench compare A.json B.json
//! tm_bench check --seed N [--workload W] [--smoke]
//! tm_bench expected PROGRAM
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one seed, one result line (the last line of standard output). The
//! others are the tools around it; see `README.md` beside this package.

mod calib;
mod compare;
mod gen;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::Sample;

use tm_support::Json;

use metrics::{END_TO_END, PER_LAYER};
use run::{Samples, Session};
use workloads::{Workload, WORKLOADS};

/// Set-up runs at least this many times per run (`setup_s` is the
/// median), and on while all of them together took less than
/// `SETUP_SECONDS` of the wall clock, up to `MAX_SETUP_REPS`: a 0.2 s
/// set-up needs more repeats than a 1.5 s one to give a steady median.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 15;
const SETUP_SECONDS: f64 = 2.0;
/// `BENCHMARK.json`'s `run_seconds`: the length of every run that is to
/// be compared with another, on every commit.
const RUN_SECONDS: f64 = 15.0;
/// Untraced runs per workload in a `set`: as many as the acceptance
/// check makes, so that a spread `compare` prints is the spread it sees.
const SET_RUNS: usize = 10;
/// A timed phase never has fewer rounds than this, however short.
const MIN_ROUNDS: usize = 3;

/// How much of a workload a run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    /// Two programs per list, one set-up, the minimum of rounds: checks
    /// the plumbing and the output schema, measures nothing.
    Smoke,
}

/// One run's result line plus the detail that is not a named metric.
struct RunOutput {
    line: Json,
    detail: Json,
}

/// The `metrics` object of a result line. `values` holds exactly the
/// metrics of `defs`, in their order.
fn metric_json(values: &[(&'static str, f64)], defs: &[metrics::MetricDef]) -> Json {
    assert_eq!(values.len(), defs.len());
    Json::obj(defs.iter().zip(values).map(|(d, (name, v))| {
        assert_eq!(d.name, *name);
        (
            d.name,
            Json::obj([("value", Json::from(*v)), ("unit", Json::from(d.unit))]),
        )
    }))
}

fn result_line(attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
}

/// Sets the workload up repeatedly; returns the last session and every
/// set-up's CPU time in seconds with its machine-state reading.
fn setup(w: &'static Workload, seed: u64, size: Size) -> Result<(Session, Vec<Sample>), String> {
    let mut times: Vec<Sample> = Vec::new();
    let begun = Instant::now();
    loop {
        let start = calib::process_cpu_ms();
        let session = Session::setup(w, seed, size)?;
        times.push(Sample {
            time: (calib::process_cpu_ms() - start) / 1e3,
            cal: session.setup_cal,
        });
        let enough =
            times.len() >= MIN_SETUP_REPS && begun.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if size == Size::Smoke || enough || times.len() == MAX_SETUP_REPS {
            return Ok((session, times));
        }
        // Its cache file and pool go before the next set-up starts.
        drop(session);
    }
}

fn quartile_json(values: &[f64]) -> Json {
    let (q1, q2, q3) = stats::quartiles(values);
    Json::obj([
        ("n", Json::from(values.len())),
        ("p25", Json::from(q1)),
        ("p50", Json::from(q2)),
        ("p75", Json::from(q3)),
    ])
}

/// The untraced run: set-up, then rounds for `seconds`.
fn run_untraced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    size: Size,
) -> Result<RunOutput, String> {
    let (mut session, setups) = setup(w, seed, size)?;
    let mut samples = Samples::new(session.programs.len());
    let budget = Duration::from_secs_f64(if size == Size::Smoke { 0.0 } else { seconds });
    let start = Instant::now();
    while start.elapsed() < budget || samples.rounds_run < MIN_ROUNDS {
        session.round(&mut samples);
    }
    for why in &samples.failures {
        eprintln!("tm_bench: failed eval: {why}");
    }
    if samples.rounds.is_empty() {
        return Err(format!(
            "{}: an eval failed in each of {} rounds: no round time to report",
            w.name, samples.rounds_run
        ));
    }
    let eval_ms = samples.eval_ms(w.sensitivity);
    let measured: Vec<f64> = eval_ms.iter().flatten().copied().collect();
    let values = [
        (
            "round_ms_p50",
            calib::median_at_reference(&samples.rounds, w.sensitivity),
        ),
        ("eval_ms_geomean", stats::geomean(&measured)),
        (
            "setup_s",
            calib::median_at_reference(&setups, w.sensitivity),
        ),
    ];
    let programs: Vec<Json> = session
        .programs
        .iter()
        .zip(&eval_ms)
        .zip(&samples.evals)
        .filter_map(|((p, ms), taken)| {
            let raw: Vec<f64> = taken.iter().map(|s| s.time).collect();
            Some(Json::obj([
                ("program", Json::from(p.name.as_str())),
                ("eval_ms", Json::from((*ms)?)),
                ("as_measured", quartile_json(&raw)),
                (
                    "evals",
                    Json::Array(
                        taken
                            .iter()
                            .map(|s| Json::Array(vec![Json::from(s.time), Json::from(s.cal)]))
                            .collect(),
                    ),
                ),
            ]))
        })
        .collect();
    let readings: Vec<f64> = samples.rounds.iter().map(|s| s.cal).collect();
    let detail = Json::obj([
        ("workload", Json::from(w.name)),
        ("why", Json::from(w.why)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("cores", Json::from(run::cores())),
        ("peak_rss_kb", Json::from(run::peak_rss_kb())),
        (
            "realms",
            session
                .shared
                .as_ref()
                .map_or(Json::Null, |s| Json::from(s.lists.len())),
        ),
        ("rounds_run", Json::from(samples.rounds_run)),
        (
            "failed_share",
            Json::from(samples.failed as f64 / samples.attempted as f64),
        ),
        // What the named metrics were computed from: the times as
        // measured, the machine-state readings beside them, and the
        // sensitivity that brought the one to the other.
        ("calibration_ref_ms", Json::from(calib::REF_MS)),
        ("calibration_ms", quartile_json(&readings)),
        ("sensitivity", Json::from(w.sensitivity)),
        ("round_ms_as_measured", quartile_json(&samples.round_ms())),
        (
            "rounds",
            Json::Array(
                samples
                    .rounds
                    .iter()
                    .map(|s| Json::Array(vec![Json::from(s.time), Json::from(s.cal)]))
                    .collect(),
            ),
        ),
        (
            "setups",
            Json::Array(
                setups
                    .iter()
                    .map(|s| Json::Array(vec![Json::from(s.time), Json::from(s.cal)]))
                    .collect(),
            ),
        ),
        ("programs", Json::Array(programs)),
    ]);
    Ok(RunOutput {
        line: result_line(
            samples.attempted,
            samples.failed,
            metric_json(&values, &END_TO_END),
        ),
        detail,
    })
}

/// The traced run: set-up once, then the fixed traced pass.
fn run_traced(w: &'static Workload, seed: u64, size: Size) -> Result<RunOutput, String> {
    let mut session = Session::setup(w, seed, size)?;
    let traced = trace::traced_run(&mut session)?;
    for why in &traced.failures {
        eprintln!("tm_bench: failed eval: {why}");
    }
    let dir = run::out_dir();
    let path = dir.join(format!("trace-{}.json", w.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, traced.tracer.to_json().to_string()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let detail = Json::obj([
        ("workload", Json::from(w.name)),
        ("seed", Json::from(seed)),
        ("cores", Json::from(run::cores())),
        ("traced_rounds", Json::from(trace::TRACED_ROUNDS)),
        ("spans", Json::from(traced.tracer.spans.len())),
        ("spans_file", Json::from(path.display().to_string())),
        (
            "not_applicable",
            Json::Array(
                traced
                    .not_applicable
                    .iter()
                    .map(|n| Json::from(*n))
                    .collect(),
            ),
        ),
        ("ladder", traced.ladder),
    ]);
    Ok(RunOutput {
        line: result_line(
            traced.attempted,
            traced.failed,
            metric_json(&traced.metrics, &PER_LAYER),
        ),
        detail,
    })
}

/// `--flag value` lookup over the raw arguments.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        let v = self
            .value(flag)
            .ok_or_else(|| format!("{flag} is required"))?;
        v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
    }

    fn size(&self) -> Size {
        if self.has("--smoke") {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    fn workloads(&self) -> Result<Vec<&'static Workload>, String> {
        match self.value("--workload") {
            Some(name) => Ok(vec![find_workload(name)?]),
            None => Ok(WORKLOADS.iter().collect()),
        }
    }
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })
}

/// The form `BENCHMARK.json`'s command runs.
fn driver(args: &Args) -> Result<(), String> {
    let w = find_workload(&args.required::<String>("--workload")?)?;
    let seed: u64 = args.required("--seed")?;
    let seconds: f64 = args.required("--seconds")?;
    let traced = match args.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
    };
    if !(seconds.is_finite() && (0.0..=600.0).contains(&seconds)) {
        return Err(format!("--seconds: {seconds} is out of range"));
    }
    let out = if traced {
        run_traced(w, seed, args.size())?
    } else {
        run_untraced(w, seed, seconds, args.size())?
    };
    let dir = run::out_dir();
    let path = dir.join(format!("run-{}-trace{}.json", w.name, u8::from(traced)));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, out.detail.to_string_pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "tm_bench: {} seed {seed}: detail in {}",
        w.name,
        path.display()
    );
    println!("{}", out.line);
    Ok(())
}

/// Runs one result line's worth of work in a fresh process (this same
/// executable), as the acceptance driver does, and returns the parsed
/// line and the detail file it wrote.
fn child_run(w: &Workload, seed: u64, traced: bool, size: Size) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &RUN_SECONDS.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]);
    if size == Size::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{}: run exited with {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: run printed nothing", w.name))?;
    let line = Json::parse(last).map_err(|e| format!("{}: result line: {e}", w.name))?;
    let path = run::out_dir().join(format!("run-{}-trace{}.json", w.name, u8::from(traced)));
    let detail = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", path.display())))?;
    Ok((line, detail))
}

fn command_text(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `{name: {value, unit}}` of a result line as `{name: value}`.
fn values_only(metrics: Option<&Json>) -> Json {
    let Some(Json::Object(fields)) = metrics else {
        return Json::Null;
    };
    Json::Object(
        fields
            .iter()
            .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Json::Null)))
            .collect(),
    )
}

/// A count field of a result line.
fn count(line: &Json, key: &str) -> u64 {
    line.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// `set`: every workload, `SET_RUNS` untraced runs and one traced run
/// each, every run a fresh process of `RUN_SECONDS`; one document for
/// `compare`. The workloads take turns, so the runs of each one are
/// spread over the whole set and a noisy quarter of an hour does not land
/// on one workload.
fn set(args: &Args) -> Result<(), String> {
    let seed: u64 = args.required("--seed")?;
    let out_path: String = args.required("--out")?;
    let size = args.size();
    let workloads = args.workloads()?;
    struct Row {
        series: Vec<(&'static str, Vec<Json>)>,
        attempted: u64,
        failed: u64,
    }
    let mut rows: Vec<Row> = workloads
        .iter()
        .map(|_| Row {
            series: END_TO_END.iter().map(|d| (d.name, Vec::new())).collect(),
            attempted: 0,
            failed: 0,
        })
        .collect();
    for r in 0..SET_RUNS {
        for (w, row) in workloads.iter().zip(&mut rows) {
            eprintln!("tm_bench set: {} run {}/{SET_RUNS}", w.name, r + 1);
            let (line, _) = child_run(w, seed, false, size)?;
            for (name, values) in &mut row.series {
                let v = line
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"));
                values.push(
                    v.cloned()
                        .ok_or_else(|| format!("{}: no {name} in the result", w.name))?,
                );
            }
            row.attempted += count(&line, "attempted");
            row.failed += count(&line, "failed");
        }
    }
    let mut out = Vec::new();
    for (w, mut row) in workloads.iter().zip(rows) {
        eprintln!("tm_bench set: {} traced run", w.name);
        let (traced_line, traced_detail) = child_run(w, seed, true, size)?;
        row.attempted += count(&traced_line, "attempted");
        row.failed += count(&traced_line, "failed");
        out.push(Json::obj([
            ("name", Json::from(w.name)),
            ("attempted", Json::from(row.attempted)),
            ("failed", Json::from(row.failed)),
            (
                "failed_share",
                Json::from(row.failed as f64 / row.attempted.max(1) as f64),
            ),
            (
                "end_to_end",
                Json::obj(row.series.into_iter().map(|(n, v)| (n, Json::Array(v)))),
            ),
            // Name to value; the units are in `BENCHMARK.json`.
            ("per_layer", values_only(traced_line.get("metrics"))),
            (
                "not_applicable",
                traced_detail
                    .get("not_applicable")
                    .cloned()
                    .unwrap_or(Json::Null),
            ),
            (
                "ladder",
                traced_detail.get("ladder").cloned().unwrap_or(Json::Null),
            ),
        ]));
    }
    let doc = Json::obj([
        ("schema", Json::from("tm_bench/set/v2")),
        // This harness measures; a change that claims a gain says so
        // elsewhere and may not touch this package.
        ("claim", Json::Null),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(RUN_SECONDS)),
        ("runs", Json::from(SET_RUNS)),
        ("traced_rounds", Json::from(trace::TRACED_ROUNDS)),
        ("smoke", Json::from(size == Size::Smoke)),
        (
            "environment",
            Json::obj([
                ("cores", Json::from(run::cores())),
                ("cpu", Json::from(cpu_model())),
                ("rustc", Json::from(command_text("rustc", &["-V"]))),
                (
                    "commit",
                    Json::from(command_text("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
    ]);
    // The head pretty-printed, then one line per workload: the file is
    // checked in, and a line per workload keeps it short and its diffs
    // readable.
    let head = doc.to_string_pretty();
    let head = head
        .trim_end()
        .strip_suffix('}')
        .expect("an object ends in a brace")
        .trim_end();
    let rows: Vec<String> = out.iter().map(|row| format!("    {row}")).collect();
    let text = format!(
        "{head},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out_path, text).map_err(|e| format!("{out_path}: {e}"))
}

/// `check`: the traced pass twice on one seed; which counts repeat exactly
/// (and so may carry a claim) and which do not.
fn check(args: &Args) -> Result<(), String> {
    let seed: u64 = args.required("--seed")?;
    let size = args.size();
    let mut rows = Vec::new();
    for w in args.workloads()? {
        let pass = || -> Result<Vec<(&'static str, f64)>, String> {
            let mut session = Session::setup(w, seed, size)?;
            Ok(trace::traced_run(&mut session)?.metrics)
        };
        let (a, b) = (pass()?, pass()?);
        let (mut exact, mut vary) = (Vec::new(), Vec::new());
        for (def, ((_, x), (_, y))) in PER_LAYER.iter().zip(a.iter().zip(&b)) {
            if !metrics::is_count(def) || !def.applies_to(w) {
                continue;
            }
            if x == y {
                exact.push(Json::from(def.name));
            } else {
                vary.push(Json::obj([
                    ("name", Json::from(def.name)),
                    ("first", Json::from(*x)),
                    ("second", Json::from(*y)),
                ]));
            }
        }
        eprintln!(
            "tm_bench check: {}: {} counts repeat exactly, {} do not",
            w.name,
            exact.len(),
            vary.len()
        );
        rows.push(Json::obj([
            ("workload", Json::from(w.name)),
            ("repeat_exactly", Json::Array(exact)),
            ("vary", Json::Array(vary)),
        ]));
    }
    println!(
        "{}",
        Json::obj([("seed", Json::from(seed)), ("workloads", Json::Array(rows))])
            .to_string_pretty()
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match raw.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (s.to_owned(), raw[1..].to_vec()),
        _ => (String::new(), raw),
    };
    let args = Args(rest);
    let outcome = match sub.as_str() {
        "" => driver(&args),
        "set" => set(&args),
        "check" => check(&args),
        "compare" => match (args.0.first(), args.0.get(1)) {
            (Some(a), Some(b)) => compare::compare_files(a, b),
            _ => Err("compare takes two set files".to_owned()),
        },
        "expected" => match args.0.first() {
            Some(name) => sunspider::by_name(name)
                .ok_or_else(|| format!("{name}: not in SUITE"))
                .and_then(|p| run::reference(p.source))
                .map(|text| print!("{text}")),
            None => Err("expected takes a program name".to_owned()),
        },
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("tm_bench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables in this package say the same thing.
    #[test]
    fn benchmark_json_names_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let rows = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("an array")
                .to_vec()
        };
        let text = |row: &Json, key: &str| {
            row.get(key)
                .and_then(Json::as_str)
                .expect("a string")
                .to_owned()
        };

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|r| (text(r, "name"), text(r, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(listed, ours);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = rows(key)
                .iter()
                .map(|r| (text(r, "name"), text(r, "unit"), text(r, "better")))
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        for (row, def) in rows("end_to_end").iter().zip(&END_TO_END) {
            assert_eq!(
                row.get("bound").and_then(Json::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
        }
        assert_eq!(rows("paths"), vec![Json::from("tm_bench")]);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
    }
}
