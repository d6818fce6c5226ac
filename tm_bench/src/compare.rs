//! `tm_bench compare A.json B.json`: one row per (end-to-end metric,
//! workload) of two `set` documents, `failed_share` included.

use tm_support::Json;

use crate::metrics::{MetricDef, END_TO_END};
use crate::stats;

/// How B stands against A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the two medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Both sides of one row.
#[derive(Debug)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// Interquartile range as a share of the median.
    pub spread_a: f64,
    pub spread_b: f64,
    /// By how much of A's median B is worse (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Judges B's values against A's for a metric with this direction and bound.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let (spread_a, spread_b) = (stats::spread(a), stats::spread(b));
    let change = if median_a == 0.0 {
        0.0
    } else {
        (median_b - median_a) / median_a.abs()
    };
    let worse_by = if def.better == "lower" {
        change
    } else {
        -change
    };
    let spread = spread_a.max(spread_b);
    let verdict = if spread > def.bound {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Worse
    } else if -worse_by > spread {
        // No bound applies to a gain: it counts once the medians differ
        // by more than either side's own spread.
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        median_a,
        median_b,
        spread_a,
        spread_b,
        worse_by,
        verdict,
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload_row<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
}

fn series(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values = workload_row(doc, workload)?
        .get("end_to_end")?
        .get(metric)?
        .as_array()?;
    let values: Vec<f64> = values.iter().filter_map(Json::as_f64).collect();
    (!values.is_empty()).then_some(values)
}

/// Failed evals / attempted evals over all runs of a workload.
fn failed_share(doc: &Json, workload: &str) -> Option<f64> {
    let row = workload_row(doc, workload)?;
    let count = |key| row.get(key).and_then(Json::as_u64);
    Some(count("failed")? as f64 / count("attempted")?.max(1) as f64)
}

/// `failed_share` has the absolute bound 0: any rise is `worse`, and it
/// has no spread to leave it unresolved.
pub fn judge_failed_share(a: f64, b: f64) -> Verdict {
    match b.total_cmp(&a) {
        std::cmp::Ordering::Greater => Verdict::Worse,
        std::cmp::Ordering::Less => Verdict::Better,
        std::cmp::Ordering::Equal => Verdict::Same,
    }
}

/// Prints the comparison; an error (exit code 2) when any row is `worse`
/// or `unresolved`.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:16} {:16} {:>11} {:>7} {:>11} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A p50", "A iqr", "B p50", "B iqr", "worse by", "bound"
    );
    let mut bad = 0;
    for w in &crate::workloads::WORKLOADS {
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (series(&a, w.name, def.name), series(&b, w.name, def.name))
            else {
                continue;
            };
            let row = judge(def, &va, &vb);
            if matches!(row.verdict, Verdict::Worse | Verdict::Unresolved) {
                bad += 1;
            }
            println!(
                "{:16} {:16} {:>11.4} {:>6.1}% {:>11.4} {:>6.1}% {:>+7.1}% {:>5.0}%  {}",
                w.name,
                def.name,
                row.median_a,
                row.spread_a * 100.0,
                row.median_b,
                row.spread_b * 100.0,
                row.worse_by * 100.0,
                def.bound * 100.0,
                row.verdict.word()
            );
        }
        if let (Some(fa), Some(fb)) = (failed_share(&a, w.name), failed_share(&b, w.name)) {
            let verdict = judge_failed_share(fa, fb);
            if verdict == Verdict::Worse {
                bad += 1;
            }
            println!(
                "{:16} {:16} {:>11.6} {:>7} {:>11.6} {:>7} {:>+8.6} {:>6}  {}",
                w.name,
                "failed_share",
                fa,
                "-",
                fb,
                "-",
                fb - fa,
                "0 abs",
                verdict.word()
            );
        }
    }
    if bad > 0 {
        return Err(format!("{bad} rows are worse or unresolved"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "t",
        unit: "ms",
        better: "lower",
        bound: 0.08,
        scope: crate::metrics::Scope::All,
    };

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shifted = |by: f64| a.map(|v| v * by);
        assert_eq!(judge(&LOWER, &a, &shifted(1.02)).verdict, Verdict::Same);
        assert_eq!(judge(&LOWER, &a, &shifted(1.10)).verdict, Verdict::Worse);
        assert_eq!(judge(&LOWER, &a, &shifted(0.90)).verdict, Verdict::Better);
        let noisy = [100.0, 120.0, 80.0, 110.0, 90.0];
        assert_eq!(judge(&LOWER, &a, &noisy).verdict, Verdict::Unresolved);
        let higher = MetricDef {
            better: "higher",
            ..LOWER
        };
        assert_eq!(judge(&higher, &a, &shifted(0.90)).verdict, Verdict::Worse);
        let row = judge(&LOWER, &a, &shifted(1.10));
        assert!((row.worse_by - 0.10).abs() < 1e-9);
        assert_eq!(judge_failed_share(0.0, 0.0), Verdict::Same);
        assert_eq!(judge_failed_share(0.0, 1e-6), Verdict::Worse);
        assert_eq!(judge_failed_share(0.01, 0.0), Verdict::Better);
    }
}
