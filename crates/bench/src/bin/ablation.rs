//! Ablation studies for the tunable design choices: the forward filter
//! pipeline (§5.1), branch traces and hotness thresholds (§6.3). Trace
//! stitching, nested trees, the oracle, type-unstable sibling linking and
//! blacklisting are not options, so they have no row.
//!
//! For each configuration, runs the full suite under the tracing engine
//! and reports total time relative to the default configuration.

use std::time::Duration;

use tm_bench::{harness, SUITE};
use tracemonkey::{Engine, JitOptions};

fn total_time(opts: JitOptions, repeats: u32) -> Duration {
    SUITE
        .iter()
        .map(|p| harness::run_program(p, Engine::Tracing, opts, repeats).time)
        .sum()
}

fn main() {
    let repeats: u32 =
        std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let configs: Vec<(&str, Box<dyn Fn(&mut JitOptions)>)> = vec![
        ("default", Box::new(|_| {})),
        ("no CSE (§5.1)", Box::new(|o| o.filters.cse = false)),
        ("no const folding (§5.1)", Box::new(|o| o.filters.fold = false)),
        ("no INT/DOUBLE demotion (§5.1)", Box::new(|o| o.filters.demote = false)),
        ("soft-float backend (§5.1)", Box::new(|o| o.filters.softfloat = true)),
        ("no branch traces", Box::new(|o| o.hot_exit_threshold = u32::MAX)),
        ("hotness threshold 16 (§6.3)", Box::new(|o| o.hotness_threshold = 16)),
        ("hotness threshold 64 (§6.3)", Box::new(|o| o.hotness_threshold = 64)),
    ];

    let mut base = Duration::ZERO;
    println!("{:34} {:>10} {:>10}", "configuration", "total ms", "vs default");
    for (name, f) in configs {
        let mut opts = JitOptions::default();
        f(&mut opts);
        let t = total_time(opts, repeats);
        if name == "default" {
            base = t;
        }
        println!(
            "{:34} {:>10.1} {:>9.2}x",
            name,
            t.as_secs_f64() * 1e3,
            t.as_secs_f64() / base.as_secs_f64().max(1e-9)
        );
    }
}
