//! `compare` and `selfcheck`: two sets of run reports side by side, per
//! (workload, end-to-end metric), with a verdict that is never
//! "unchanged" when the runs themselves spread wider than the bound.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::report::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};

/// `(workload, metric)` → the values of one set of runs.
type Series = BTreeMap<(String, String), Vec<f64>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound, and the
    /// runs spread no wider than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The medians agree within the bound but the runs of a set spread
    /// wider than it, so the comparison cannot tell.
    Unresolved,
    /// Every run of B reads better than every run of A.
    Better,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static MetricDef,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    /// Share of A's median by which B's median is worse (negative when
    /// it is better).
    pub worse_by: f64,
    /// Wider of the two sets' interquartile ranges, as a share of the
    /// set's median; 0 when a set has a single run.
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn judge(workload: &str, metric: &'static MetricDef, a: &[f64], b: &[f64]) -> Row {
    let (ma, mb) = (median(a), median(b));
    let toward_worse = match metric.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        toward_worse / ma.abs()
    };
    let spread = [a, b]
        .iter()
        .filter_map(|v| iqr_share(v))
        .fold(0.0, f64::max);
    let b_always_better = a.iter().all(|&x| {
        b.iter().all(|&y| match metric.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if worse_by > metric.bound {
        Verdict::Regression
    } else if b_always_better {
        Verdict::Better
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    Row {
        workload: workload.to_owned(),
        metric,
        a: a.to_vec(),
        b: b.to_vec(),
        worse_by,
        spread,
        verdict,
    }
}

/// Reads one report written by a run (the file under the output
/// directory, not the one-line result) into `series`.
fn load(path: &Path, series: &mut Series) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workload = doc
        .get("workload")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{}: no \"workload\"", path.display()))?;
    if doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{}: the run was not correct", path.display()));
    }
    let metrics = doc
        .get("metrics")
        .ok_or_else(|| format!("{}: no \"metrics\"", path.display()))?;
    for m in &END_TO_END {
        if let Some(v) = metrics
            .get(m.name)
            .and_then(|e| e.get("value"))
            .and_then(Value::as_f64)
        {
            series
                .entry((workload.to_owned(), m.name.to_owned()))
                .or_default()
                .push(v);
        }
    }
    Ok(())
}

fn load_all(paths: &[String]) -> Result<Series, String> {
    let mut series = Series::new();
    for p in paths {
        load(Path::new(p), &mut series)?;
    }
    Ok(series)
}

/// One row per workload and metric present in both sets.
pub fn compare_series(a: &Series, b: &Series) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for m in &END_TO_END {
            let key = (workload.to_owned(), m.name.to_owned());
            if let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) {
                rows.push(judge(workload, m, va, vb));
            }
        }
    }
    rows
}

/// Four significant digits or so, whatever the metric's magnitude.
fn short(x: f64) -> String {
    match x.abs() {
        a if a >= 1000.0 => format!("{x:.0}"),
        a if a >= 10.0 => format!("{x:.2}"),
        _ => format!("{x:.4}"),
    }
}

fn quartile_text(v: &[f64]) -> String {
    match quartiles(v) {
        Some([q1, q2, q3]) => format!("{} / {} / {}", short(q1), short(q2), short(q3)),
        None => format!("- / {} / -", short(median(v))),
    }
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<17} {:<23} {:>2}+{:<2} {:<28} {:<28} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "A",
        "B",
        "A q1 / median / q3",
        "B q1 / median / q3",
        "B worse",
        "spread",
        "bound"
    );
    for r in rows {
        println!(
            "{:<17} {:<23} {:>2}+{:<2} {:<28} {:<28} {:>+7.2}% {:>6.2}% {:>5.1}%  {}",
            r.workload,
            r.metric.name,
            r.a.len(),
            r.b.len(),
            quartile_text(&r.a),
            quartile_text(&r.b),
            100.0 * r.worse_by,
            100.0 * r.spread,
            100.0 * r.metric.bound,
            r.verdict.label(),
        );
    }
}

/// `compare A.json… -- B.json…`: true when no pair regressed.
pub fn compare_cli(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs two sets of reports separated by --")?;
    let (a, b) = (load_all(&args[..split])?, load_all(&args[split + 1..])?);
    let rows = compare_series(&a, &b);
    if rows.is_empty() {
        return Err("the two sets share no workload".to_owned());
    }
    print_rows(&rows);
    Ok(rows.iter().all(|r| r.verdict != Verdict::Regression))
}

/// `selfcheck`: two interleaved sets of untraced runs of this build, a
/// fresh process per run and a new seed per round, compared both ways
/// round. True when no pair's medians disagree beyond its bound.
pub fn selfcheck_cli(args: &[String]) -> Result<bool, String> {
    let runs: usize = crate::parse_flag(args, "--runs")?.unwrap_or(5);
    let seconds: f64 = crate::parse_flag(args, "--seconds")?.unwrap_or(10.0);
    let seed: u64 = crate::parse_flag(args, "--seed")?.unwrap_or(1);
    let out_dir = PathBuf::from(crate::flag(args, "--out-dir").unwrap_or(crate::DEFAULT_OUT_DIR));
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;

    let mut sets = [Series::new(), Series::new()];
    for round in 0..runs {
        // Alternate which set goes first, so drift favours neither.
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for workload in WORKLOADS {
                let dir = out_dir.join(format!("selfcheck/{}{round}", ["a", "b"][set]));
                let round_seed = seed + round as u64;
                eprintln!(
                    "selfcheck: round {round} set {} {workload}",
                    ["A", "B"][set]
                );
                let status = Command::new(&exe)
                    .args(["--workload", workload, "--trace", "0"])
                    .args(["--seed", &round_seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .arg("--out-dir")
                    .arg(&dir)
                    .stdout(Stdio::null())
                    .status()
                    .map_err(|e| format!("start run: {e}"))?;
                if !status.success() {
                    return Err(format!("{workload} run exited with {status}"));
                }
                load(
                    &dir.join(format!("{workload}-s{round_seed}-t0.json")),
                    &mut sets[set],
                )?;
            }
        }
    }
    let forward = compare_series(&sets[0], &sets[1]);
    let backward = compare_series(&sets[1], &sets[0]);
    print_rows(&forward);
    let agree = forward
        .iter()
        .chain(&backward)
        .all(|r| r.verdict != Verdict::Regression);
    println!(
        "selfcheck: {} pairs, {}",
        forward.len(),
        if agree {
            "all agree within their bounds"
        } else {
            "DISAGREEMENT beyond a bound"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 10 % bound whatever the table says, so the cases below keep
    /// meaning what they say.
    static P50: MetricDef = MetricDef {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };
    static THROUGHPUT: MetricDef = MetricDef {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let p50 = &P50;
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = judge("serve-batch", p50, &a, &[100.2, 100.9, 99.4, 100.1, 99.8]);
        assert_eq!(same.verdict, Verdict::WithinBound);
        assert!(same.worse_by.abs() < 0.01 && same.spread < 0.03);

        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let r = judge("serve-batch", p50, &a, &slower);
        assert_eq!(r.verdict, Verdict::Regression);
        assert!((r.worse_by - 0.2).abs() < 1e-9);

        // Same medians, but one set swings ±30 %: not "unchanged".
        let noisy = [70.0, 130.0, 100.0, 85.0, 120.0];
        assert_eq!(
            judge("live-rw", p50, &a, &noisy).verdict,
            Verdict::Unresolved
        );

        // Every run of B under every run of A: better, spread or not.
        let faster = [60.0, 90.0, 75.0];
        assert_eq!(
            judge("live-rw", p50, &noisy, &faster).verdict,
            Verdict::Unresolved
        );
        assert_eq!(judge("live-rw", p50, &a, &faster).verdict, Verdict::Better);

        // Higher-is-better metrics regress downwards.
        let thr = &THROUGHPUT;
        let r = judge("serve-batch", thr, &[1000.0, 1010.0], &[800.0, 805.0]);
        assert_eq!(r.verdict, Verdict::Regression);
        let r = judge("serve-batch", thr, &[1000.0, 1010.0], &[1200.0, 1205.0]);
        assert_eq!(r.verdict, Verdict::Better);
    }

    #[test]
    fn reports_load_and_compare_by_workload() {
        let dir = std::env::temp_dir().join(format!("qdts_bench_cmp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let write = |name: &str, workload: &str, p50: f64, correct: bool| {
            let doc = json::obj([
                ("workload", Value::from(workload)),
                ("correct", Value::from(correct)),
                (
                    "metrics",
                    json::obj([(
                        "latency_p50_us",
                        json::obj([("value", Value::from(p50)), ("unit", Value::from("us"))]),
                    )]),
                ),
            ]);
            let path = dir.join(name);
            std::fs::write(&path, doc.to_json()).expect("write report");
            path.display().to_string()
        };
        let a = [
            write("a1.json", "serve-batch", 4000.0, true),
            write("a2.json", "live-rw", 5000.0, true),
        ];
        let b = [
            write("b1.json", "serve-batch", 4100.0, true),
            write("b2.json", "live-rw", 9000.0, true),
        ];
        let rows = compare_series(&load_all(&a).expect("set A"), &load_all(&b).expect("set B"));
        let verdicts: Vec<_> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("serve-batch", Verdict::WithinBound),
                ("live-rw", Verdict::Regression)
            ]
        );
        let mut args = a.to_vec();
        args.push("--".to_owned());
        args.extend(b);
        assert_eq!(compare_cli(&args), Ok(false));
        assert!(compare_cli(&args[..2]).is_err(), "no -- separator");
        let bad = write("bad.json", "serve-batch", 1.0, false);
        assert!(load_all(&[bad]).is_err(), "an incorrect run is refused");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
