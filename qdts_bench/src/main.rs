//! `qdts_bench`: the repository's benchmark — four workloads, the same
//! seven end-to-end metrics on each, an oracle check on every answer,
//! and a traced run that attributes the time to layers. See README.md.
//!
//! ```text
//! qdts_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            [--out-dir <dir>]
//! qdts_bench compare A.json… -- B.json…
//! qdts_bench selfcheck [--runs <n>] [--seconds <s>] [--seed <n>]
//! ```

mod compare;
mod inputs;
mod json;
mod measure;
mod oracle;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{RunCfg, Sizes, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage:
  qdts_bench --workload <simplify-offline|serve-batch|cluster-batch|live-rw>
             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
  qdts_bench compare A.json... -- B.json...
  qdts_bench selfcheck [--runs <n>] [--seconds <s>] [--seed <n>] [--out-dir <dir>]";

/// Reports, span files and the run's scratch databases all live here,
/// inside the checkout.
const DEFAULT_OUT_DIR: &str = "qdts_bench/out";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match flag(args, name) {
        None => Ok(None),
        Some(text) => text
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot read {text:?}")),
    }
}

fn run_cfg(args: &[String]) -> Result<RunCfg, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed: u64 = parse_flag(args, "--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = parse_flag(args, "--seconds")?.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match flag(args, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let out_dir = PathBuf::from(flag(args, "--out-dir").unwrap_or(DEFAULT_OUT_DIR));
    Ok(RunCfg {
        workload: workload.to_owned(),
        seed,
        seconds,
        trace,
        sizes: Sizes::full(),
        scratch: out_dir.join(format!("tmp-{}", std::process::id())),
        out_dir,
    })
}

/// One measured run: prints every metric by name with its unit, keeps the
/// full report under the output directory, and ends standard output with
/// the one-line result object.
fn run(cfg: &RunCfg) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("create {}: {e}", cfg.scratch.display()))?;
    let outcome = workloads::run(cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let outcome = outcome?;

    let shown: &[report::MetricDef] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "# {} seed {} window {} s trace {}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for m in shown {
        let v = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        println!("{} = {} {}", m.name, v, m.unit);
    }
    if let Some(why) = &outcome.first_failure {
        println!("# first failure: {why}");
    }
    let full = report::full_report(cfg, &outcome, measure::machine(&cfg.scratch));
    let path = cfg.out_dir.join(format!(
        "{}-s{}-t{}.json",
        cfg.workload, cfg.seed, cfg.trace as u8
    ));
    std::fs::write(&path, full.to_json() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# report: {}", path.display());
    println!("{}", report::result_line(cfg.trace, &outcome).to_json());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::compare_cli(&args[1..]),
        Some("selfcheck") => compare::selfcheck_cli(&args[1..]),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
        Some(_) => run_cfg(&args).and_then(|cfg| run(&cfg)).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("qdts_bench: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
