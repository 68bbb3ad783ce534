//! The metric tables (the same names `BENCHMARK.json` lists), the run
//! configuration, and the output every run ends with.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::json::{obj, Value};
use crate::oracle::Tally;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median an end-to-end metric may worsen by;
    /// 0 for per-layer metrics, which are not gated.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

pub const WORKLOADS: [&str; 4] = [
    "simplify-offline",
    "serve-batch",
    "cluster-batch",
    "live-rw",
];

/// The seven end-to-end metrics, the same on every workload. The four
/// times get the quarter the acceptance driver allows at most: it refuses
/// a benchmark whose own runs spread past a bound or whose medians move by
/// more than it between two sets of runs, and asks for spreads under a
/// third of it. Over ten seeds the times spread up to 6–9 %, and between
/// two such sets 18 minutes apart the box itself moved `cluster-batch` by
/// 12–18 % (README.md has the series). Peak memory spreads under 1 % and
/// keeps a tenth. The two quality metrics are a function of the code alone
/// (see `inputs`), so they are held to 1 %.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_per_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("latency_p95_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("f1_range", "ratio", Better::Higher, 0.01),
    e2e("stored_bytes_per_point", "B", Better::Lower, 0.01),
];

use Better::{Higher, Lower};

/// Per-layer metrics of the `--trace 1` run. A layer is probed only on the
/// workloads whose path it is on; its metrics read 0 elsewhere.
pub const PER_LAYER: [MetricDef; 54] = [
    layer("trajectory.snapshot_write_ms", "ms", Lower),
    layer("trajectory.snapshot_open_ms", "ms", Lower),
    layer("trajectory.partition_ms", "ms", Lower),
    layer("trajectory.delta_ingest_points_per_s", "1/s", Higher),
    layer("trajectory.wal_bytes_per_user_byte", "ratio", Lower),
    layer("trajectory.simd_scan_points_per_s", "1/s", Higher),
    layer("traj-index.octree_build_ms", "ms", Lower),
    layer("traj-index.kd_build_ms", "ms", Lower),
    layer("traj-query.range_us", "us", Lower),
    layer("traj-query.range_kept_us", "us", Lower),
    layer("traj-query.knn_us", "us", Lower),
    layer("traj-query.similarity_us", "us", Lower),
    layer("traj-query.batch64_us", "us", Lower),
    layer("traj-query.sharded_batch64_us", "us", Lower),
    layer("traj-query.generational_batch64_us", "us", Lower),
    layer("traj-query.empty_delta_tax_ratio", "ratio", Lower),
    layer("traj-query.compaction_ms", "ms", Lower),
    layer("traj-query.compactions", "count", Higher),
    layer("traj-query.delta_points_max", "count", Lower),
    layer("traj-simp.topdown_points_per_s", "1/s", Higher),
    layer("traj-simp.bottomup_points_per_s", "1/s", Higher),
    layer("traj-simp.onepass_points_per_s", "1/s", Higher),
    layer("tiny-rl.forward_ns", "ns", Lower),
    layer("rl4qdts.train_s", "s", Lower),
    layer("rl4qdts.insertions_per_s", "1/s", Higher),
    layer("rl4qdts.index_build_share", "ratio", Lower),
    layer("rl4qdts.f1_knn", "ratio", Higher),
    layer("rl4qdts.f1_similarity", "ratio", Higher),
    layer("traj-serve.encode_batch64_us", "us", Lower),
    layer("traj-serve.decode_batch64_us", "us", Lower),
    layer("traj-serve.encode_results64_us", "us", Lower),
    layer("traj-serve.request_bytes", "B", Lower),
    layer("traj-serve.response_bytes", "B", Lower),
    layer("traj-serve.single_query_p50_us", "us", Lower),
    layer("traj-serve.request_overhead_us", "us", Lower),
    layer("traj-serve.mean_batch_size", "count", Higher),
    layer("traj-serve.coordinator_overhead_us", "us", Lower),
    layer("traj-serve.frames_sent", "count", Lower),
    layer("traj-serve.frames_pruned_share", "ratio", Higher),
    layer("traj-serve.rounds", "count", Higher),
    layer("traj-serve.ingest_ack_p50_us", "us", Lower),
    layer("traj-serve.ingest_ack_p95_us", "us", Lower),
    layer("traj-serve.writer_late_p95_us", "us", Lower),
    layer("bench.box_slowdown", "ratio", Lower),
    layer("bench.raw_setup_s", "s", Lower),
    layer("bench.raw_throughput_per_s", "1/s", Higher),
    layer("bench.raw_latency_p50_us", "us", Lower),
    layer("bench.raw_latency_p95_us", "us", Lower),
    layer("bench.datagen_s", "s", Lower),
    layer("bench.latency_p99_us", "us", Lower),
    layer("bench.latency_p999_us", "us", Lower),
    layer("bench.slices", "count", Higher),
    layer("proc.cpu_us_per_op", "us", Lower),
    layer("proc.tracing_overhead_pct", "%", Lower),
];

/// Dataset and repetition sizes. `full` is what the numbers in README.md
/// were measured at; `smoke` is the seconds-long pass the tests make.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Trajectories of the database `serve-batch` and `cluster-batch`
    /// both serve, so that what separates the two is the coordinator.
    pub static_trajs: usize,
    pub live_trajs: usize,
    pub offline_dbs: usize,
    pub offline_trajs: usize,
    pub pool_trajs: usize,
    /// Distinct 64-query batches a run cycles through.
    pub batches: usize,
    /// The same for `live-rw`, whose batches are half kNN and similarity
    /// queries and differ more in cost: its p95 is the cost of the dearest
    /// twentieth of the batches, which over 32 batches is one or two draws
    /// and moved 5 % from seed to seed (2.3 % on one seed); over 128 it
    /// moves 2.7 %.
    pub live_batches: usize,
    /// Cubes of the fixed F1 probe.
    pub probe_cubes: usize,
    /// Fewest repetitions of the set-up, and the seconds of set-up a run
    /// times before it stops repeating (see `workloads::repeat_setup`).
    pub setup_reps: usize,
    pub setup_budget_s: f64,
    pub warmup_s: f64,
    /// Delta points at which the live compactor folds: more than the
    /// 64-trajectory ingest of the set-up leaves (~7 600), so that the
    /// quality probe reads an uncompacted state.
    pub compact_threshold: usize,
}

impl Sizes {
    pub const fn full() -> Sizes {
        Sizes {
            static_trajs: 1000,
            live_trajs: 1000,
            offline_dbs: 8,
            offline_trajs: 25,
            pool_trajs: 60,
            batches: 32,
            live_batches: 128,
            probe_cubes: 200,
            setup_reps: 5,
            setup_budget_s: 3.0,
            warmup_s: 2.0,
            compact_threshold: 12_000,
        }
    }

    #[cfg(test)]
    pub const fn smoke() -> Sizes {
        Sizes {
            static_trajs: 60,
            live_trajs: 60,
            offline_dbs: 2,
            offline_trajs: 8,
            pool_trajs: 12,
            batches: 3,
            live_batches: 3,
            probe_cubes: 40,
            setup_reps: 2,
            setup_budget_s: 0.0,
            warmup_s: 0.05,
            compact_threshold: 9_000,
        }
    }
}

/// Everything one run is told.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where reports and span files go.
    pub out_dir: PathBuf,
    /// Where the run keeps its database files; removed when it ends.
    pub scratch: PathBuf,
}

/// What a workload hands back: failure accounting, every metric it
/// measured (end-to-end and per-layer alike), and free-form context.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub context: Vec<(String, Value)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.context.push((key.to_owned(), value.into()));
    }

    /// Takes over the run's failure accounting.
    pub fn finish(mut self, tally: Tally) -> Outcome {
        self.attempted = tally.attempted;
        self.failed = tally.failed;
        self.first_failure = tally.first_failure;
        self
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

fn metric_value(m: &MetricDef, v: f64) -> Value {
    obj([("value", Value::from(v)), ("unit", Value::from(m.unit))])
}

/// Every metric of `defs`; one the run did not measure reads 0.
fn metric_object(defs: &[MetricDef], outcome: &Outcome) -> Value {
    obj(defs.iter().map(|m| {
        let v = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        (m.name, metric_value(m, v))
    }))
}

/// The object the driver reads from the last line of standard output:
/// exactly `correct`, `attempted`, `failed`, `metrics` — the end-to-end
/// metrics of an untraced run, the per-layer metrics of a traced one.
pub fn result_line(trace: bool, outcome: &Outcome) -> Value {
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    obj([
        ("correct", Value::from(outcome.correct())),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", metric_object(defs, outcome)),
    ])
}

/// The full report kept under the output directory: the result line plus
/// the machine and run blocks and every other number the run took.
pub fn full_report(cfg: &RunCfg, outcome: &Outcome, machine: Value) -> Value {
    // Only what the run measured, so an untraced report shows no zeros
    // for layers it never looked at.
    let all: Vec<_> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .filter_map(|m| Some((m.name, metric_value(m, *outcome.metrics.get(m.name)?))))
        .collect();
    obj([
        ("workload", Value::from(cfg.workload.as_str())),
        ("trace", Value::from(cfg.trace)),
        ("correct", Value::from(outcome.correct())),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        (
            "first_failure",
            outcome
                .first_failure
                .as_deref()
                .map_or(Value::Null, Value::from),
        ),
        ("metrics", obj(all)),
        (
            "run",
            obj([
                ("seed", Value::from(cfg.seed)),
                ("window_s", Value::from(cfg.seconds)),
                ("warmup_s", Value::from(cfg.sizes.warmup_s)),
                ("setup_reps_min", Value::from(cfg.sizes.setup_reps)),
                ("setup_budget_s", Value::from(cfg.sizes.setup_budget_s)),
            ]),
        ),
        ("machine", machine),
        ("context", Value::Obj(outcome.context.clone())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root and the tables here name
    /// the same workloads, metrics, units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| match doc.get(key) {
            Some(Value::Arr(rows)) => rows.clone(),
            _ => panic!("{key} is a list"),
        };
        let names: Vec<String> = rows("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(names, WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (row, def) in listed.iter().zip(defs) {
                let field = |f: &str| row.get(f).and_then(Value::as_str).expect("string field");
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.label(), "{}", def.name);
                let bound = row.get("bound").and_then(Value::as_f64);
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(def.bound),
                    "{}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.set("setup_s", 0.5);
        for trace in [false, true] {
            let line = result_line(trace, &outcome);
            let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let n = line.get("metrics").expect("metrics").entries().len();
            assert_eq!(
                n,
                if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                }
            );
        }
        outcome.failed = 1;
        assert_eq!(
            result_line(false, &outcome).get("correct"),
            Some(&Value::Bool(false))
        );
    }
}
