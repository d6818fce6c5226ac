//! Runs the built `tm_bench` the way `BENCHMARK.json`'s command does, at
//! smoke size, and checks the result line against `BENCHMARK.json`: every
//! named workload runs, and the metrics printed are exactly the named
//! ones, each a number with its unit.

use std::process::Command;

use tm_support::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("an array")
        .iter()
        .map(|row| {
            let field = |k: &str| {
                row.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_line(workload: &str, traced: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_tm_bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        // The harness writes its cache and span files under the build directory.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("tm_bench runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn smoke_run_prints_exactly_the_named_metrics_for_every_named_workload() {
    let doc = benchmark_json();
    for (workload, _) in names(&doc, "workloads") {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = run_line(&workload, traced);
            let Json::Object(fields) = &line else {
                panic!("{workload}: not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert!(
                line.get("attempted")
                    .and_then(Json::as_u64)
                    .expect("a count")
                    >= 1
            );
            // Only an optimized build is a benchmark: debug builds of the
            // method JIT cap the call depth at 200, so the ladder's method
            // rung fails `controlflow-recursive` there (and is counted).
            if !cfg!(debug_assertions) {
                assert_eq!(
                    line.get("correct").and_then(Json::as_bool),
                    Some(true),
                    "{workload}"
                );
                assert_eq!(
                    line.get("failed").and_then(Json::as_u64),
                    Some(0),
                    "{workload}"
                );
            }
            let Some(Json::Object(metrics)) = line.get("metrics") else {
                panic!("{workload}: no metrics")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{workload} {name}"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_owned(),
                    )
                })
                .collect();
            assert_eq!(
                printed,
                names(&doc, key),
                "{workload} --trace {}",
                u8::from(traced)
            );
            let value = |name: &str| {
                line.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .expect("a number")
            };
            if !traced {
                for (name, _) in metrics {
                    assert!(value(name) > 0.0, "{workload} {name}");
                }
                continue;
            }
            // The run itself fails when a metric that applies to the
            // workload was not computed; these are the other direction:
            // scoped metrics read 0 outside their scope and not inside.
            for (name, scope) in [
                (
                    "interp.round_ms",
                    &["int-loops", "heap-strings", "trace-hostile"][..],
                ),
                (
                    "nanojit.x64.round_ms",
                    &["int-loops", "heap-strings", "trace-hostile"][..],
                ),
                ("core.persist.load_ms", &["warm-start"][..]),
                ("core.persist.file_bytes", &["warm-start"][..]),
                ("core.mt.realms", &["shared-realms"][..]),
                ("core.mt.request_ms_p50", &["shared-realms"][..]),
            ] {
                let inside = scope.contains(&workload.as_str());
                assert_eq!(value(name) > 0.0, inside, "{workload} {name}");
            }
            let tracing = workload != "interp-baseline";
            assert_eq!(
                value("core.monitor.trace_enters") > 0.0,
                tracing,
                "{workload}"
            );
            assert!(value("frontend.parse_ms") > 0.0, "{workload}");
            assert!(value("interp.bytecodes") > 0.0, "{workload}");
        }
    }
}

#[test]
fn a_bad_command_line_prints_no_result_and_fails() {
    for args in [
        &[
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tm_bench"))
            .args(args)
            .output()
            .expect("tm_bench runs");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
