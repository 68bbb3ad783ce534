//! The four workloads and what they share: the serving measurement loop,
//! the traced wire client, the F1 probe and the set-up repetition rule.

pub mod cluster_batch;
pub mod live_rw;
pub mod serve_batch;
pub mod simplify_offline;

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use traj_query::{Query, QueryBatch, QueryResult};
use traj_serve::{decode_message, encode_message, Message, MAX_PAYLOAD};
use trajectory::{Cube, TrajId};

use crate::inputs::BATCH;
use crate::json::Value;
use crate::measure::{closed_loop, peak_rss_mb, BoxProbe, Window, PROBE_NOMINAL_US};
use crate::oracle::{mean_f1_of, Oracle, Tally};
use crate::report::{Outcome, RunCfg, Sizes};
use crate::spans::{Recorder, NO_PARENT};
use crate::stats::{median, summarize, Sample, WindowSummary};

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "simplify-offline" => simplify_offline::run(cfg),
        "serve-batch" => serve_batch::run(cfg),
        "cluster-batch" => cluster_batch::run(cfg),
        "live-rw" => live_rw::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

pub(crate) fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Times the set-up — each time from the raw store to the first answer.
/// The first instance is the one the run measures; once it is torn down,
/// [`SetupClock::repeat`] sets up again and again, so that `setup_s` is a
/// median over seconds of set-up, not one reading. Every reading is
/// brought to nominal box speed by probe passes taken just before and
/// just after it.
pub(crate) struct SetupClock {
    raw_s: Vec<f64>,
    nominal_s: Vec<f64>,
}

/// Probe passes on each side of one set-up (about a millisecond).
const SETUP_PROBE_PASSES: usize = 9;
/// Most repetitions of the set-up in one run.
const MAX_SETUP_REPS: usize = 25;

impl SetupClock {
    pub fn new() -> SetupClock {
        SetupClock {
            raw_s: Vec::new(),
            nominal_s: Vec::new(),
        }
    }

    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let before = BoxProbe::slowdown(SETUP_PROBE_PASSES);
        let t = Instant::now();
        let instance = setup()?;
        let raw = t.elapsed().as_secs_f64();
        let after = BoxProbe::slowdown(SETUP_PROBE_PASSES);
        self.raw_s.push(raw);
        self.nominal_s.push(raw / ((before + after) / 2.0));
        Ok(instance)
    }

    /// Repeats the set-up, tearing each instance down, until it has been
    /// timed `sizes.setup_reps` times and for `sizes.setup_budget_s`
    /// seconds in all (at most [`MAX_SETUP_REPS`] times), then files
    /// `setup_s`, the median. One set-up is 0.1–0.3 s here and the box's
    /// speed moves from one second to the next: a median over a few
    /// seconds of repetitions is what repeats.
    pub fn repeat<T>(
        mut self,
        sizes: &Sizes,
        out: &mut Outcome,
        mut setup: impl FnMut() -> Result<T, String>,
        mut teardown: impl FnMut(T),
    ) -> Result<(), String> {
        while self.raw_s.len() < sizes.setup_reps.max(1)
            || (self.raw_s.iter().sum::<f64>() < sizes.setup_budget_s
                && self.raw_s.len() < MAX_SETUP_REPS)
        {
            teardown(self.time(&mut setup)?);
        }
        out.set("setup_s", median(&self.nominal_s));
        out.set("bench.raw_setup_s", median(&self.raw_s));
        out.note("setup_times_s", float_list(&self.raw_s));
        Ok(())
    }
}

pub(crate) fn float_list(v: &[f64]) -> Value {
    Value::Arr(v.iter().map(|&x| Value::from(x)).collect())
}

/// One closed-loop reader over `batches`, cycling: `issue` sends a batch
/// and returns its answers, `check` compares them with what is expected
/// (outside the timed section). A request that errors fails all its ops.
pub(crate) fn serve_window(
    warmup_s: f64,
    window_s: f64,
    batches: &[QueryBatch],
    mut issue: impl FnMut(usize, &QueryBatch) -> Result<Vec<QueryResult>, String>,
    mut check: impl FnMut(&mut Tally, usize, &[QueryResult]),
) -> (Window, Tally) {
    let mut tally = Tally::default();
    let window = closed_loop(
        warmup_s,
        window_s,
        |i| issue(i, &batches[i % batches.len()]),
        |i, reply| {
            match reply {
                Ok(results) => check(&mut tally, i % batches.len(), &results),
                Err(e) => tally.refused(BATCH as u64, || format!("request {i}: {e}")),
            }
            BATCH as f64
        },
    );
    (window, tally)
}

/// The untraced run's window: the whole of `--seconds` through `issue`,
/// reduced and filed.
pub(crate) fn plain_window(
    cfg: &RunCfg,
    batches: &[QueryBatch],
    out: &mut Outcome,
    tally: &mut Tally,
    issue: impl FnMut(usize, &QueryBatch) -> Result<Vec<QueryResult>, String>,
    check: impl FnMut(&mut Tally, usize, &[QueryResult]),
) {
    let (window, t) = serve_window(cfg.sizes.warmup_s, cfg.seconds, batches, issue, check);
    tally.absorb(t);
    file_window(out, &window);
}

/// Reduces a window and files the numbers every workload reports from it.
pub(crate) fn file_window(out: &mut Outcome, window: &Window) -> WindowSummary {
    let w = summarize(&window.samples, window.seconds, PROBE_NOMINAL_US);
    out.set("throughput_per_s", w.throughput_per_s);
    out.set("latency_p50_us", w.p50_us);
    out.set("latency_p95_us", w.p95_us);
    out.set("bench.raw_throughput_per_s", w.raw_throughput_per_s);
    out.set("bench.raw_latency_p50_us", w.raw_p50_us);
    out.set("bench.raw_latency_p95_us", w.raw_p95_us);
    out.set("bench.box_slowdown", w.box_slowdown);
    out.set("bench.latency_p99_us", w.p99_us);
    out.set("bench.latency_p999_us", w.p999_us);
    out.set("bench.slices", w.slices as f64);
    let ops: f64 = window.samples.iter().map(|s| s.ops).sum();
    out.set("proc.cpu_us_per_op", window.cpu_s * 1e6 / ops.max(1.0));
    out.set("peak_rss_mb", peak_rss_mb());
    out.note("requests_in_window", w.requests);
    out.note(
        "slice_throughput_per_s",
        float_list(&w.slice_throughput_per_s),
    );
    out.note("slice_p50_us", float_list(&w.slice_p50_us));
    out.note("slice_p95_us", float_list(&w.slice_p95_us));
    out.note("slice_slowdown", float_list(&w.slice_slowdown));
    w
}

/// `f1_range`: the probe cubes go through `ask` (the serving path users
/// get simplified answers from) and are scored against exact answers over
/// the raw data. A probe answer of the wrong shape fails its op.
pub(crate) fn f1_probe(
    cubes: &[Cube],
    oracle: &Oracle,
    tally: &mut Tally,
    mut ask: impl FnMut(&QueryBatch) -> Result<Vec<QueryResult>, String>,
) -> f64 {
    let mut got: Vec<Vec<TrajId>> = Vec::with_capacity(cubes.len());
    for chunk in cubes.chunks(BATCH) {
        let batch: QueryBatch = chunk.iter().map(|c| Query::RangeKept(*c)).collect();
        let answers = ask(&batch).unwrap_or_default();
        for i in 0..chunk.len() {
            let ids = match answers.get(i) {
                Some(QueryResult::RangeKept(Some(ids))) => Some(ids.clone()),
                _ => None,
            };
            tally.check(ids.is_some(), || "F1 probe: no RangeKept answer".to_owned());
            got.push(ids.unwrap_or_default());
        }
    }
    let truth: Vec<Vec<TrajId>> = cubes.iter().map(|c| oracle.range(c)).collect();
    mean_f1_of(&truth, &got)
}

/// The traced run's own wire client: one `TcpStream`, frames built with
/// the public `encode_message` / `decode_message`, a span around each of
/// encode, socket round trip and decode.
pub(crate) struct TracedWire {
    stream: TcpStream,
}

impl TracedWire {
    pub fn connect(addr: SocketAddr) -> Result<TracedWire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| err("traced client connect", e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| err("traced client nodelay", e))?;
        Ok(TracedWire { stream })
    }

    /// Sends `msg`, returns the reply; spans are children of `parent`.
    pub fn call(
        &mut self,
        rec: &mut Recorder,
        parent: u32,
        request: u64,
        msg: &Message,
    ) -> Result<Message, String> {
        let frame = rec.time("wire.encode", parent, request, || encode_message(msg));
        let trip = rec.start("wire.round_trip", parent, request);
        let reply = self.round_trip(&frame);
        rec.end(trip);
        let reply = reply?;
        rec.time("wire.decode", parent, request, || decode_message(&reply))
            .map_err(|e| err("decode reply", e))
    }

    fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        self.stream
            .write_all(frame)
            .map_err(|e| err("send frame", e))?;
        let mut reply = vec![0u8; traj_serve::wire::HEADER_LEN];
        self.stream
            .read_exact(&mut reply)
            .map_err(|e| err("read reply header", e))?;
        let len = u32::from_le_bytes([reply[8], reply[9], reply[10], reply[11]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(format!("reply announces {len} payload bytes"));
        }
        let header = reply.len();
        reply.resize(header + len + traj_serve::wire::CHECKSUM_LEN, 0);
        self.stream
            .read_exact(&mut reply[header..])
            .map_err(|e| err("read reply payload", e))?;
        Ok(reply)
    }

    /// One batch request under a root span called `name`.
    pub fn execute_batch(
        &mut self,
        rec: &mut Recorder,
        name: &'static str,
        request: u64,
        batch: &QueryBatch,
    ) -> Result<Vec<QueryResult>, String> {
        let root = rec.start(name, NO_PARENT, request);
        // The stock client clones the batch into its request message too.
        let reply = self.call(rec, root, request, &Message::Request(batch.clone()));
        rec.end(root);
        match reply? {
            Message::Response(results) => Ok(results),
            Message::Error { code, message } => Err(format!("server error {code}: {message}")),
            _ => Err("reply is not a response frame".to_owned()),
        }
    }
}

/// Traced-run window shared by the serving workloads: two thirds of the
/// run's seconds, cycles through the batches alternating between the stock
/// client (`plain`) and the span-recording one (`traced`) so that drift — a growing live
/// database, a noisy neighbour — falls on both alike. Files the window's
/// numbers and the tracing overhead (difference of the two median
/// latencies); returns the traced requests' median latency in µs.
pub(crate) fn tracing_overhead(
    cfg: &RunCfg,
    batches: &[QueryBatch],
    out: &mut Outcome,
    tally: &mut Tally,
    mut plain: impl FnMut(usize, &QueryBatch) -> Result<Vec<QueryResult>, String>,
    mut traced: impl FnMut(usize, &QueryBatch) -> Result<Vec<QueryResult>, String>,
    check: impl FnMut(&mut Tally, usize, &[QueryResult]),
) -> f64 {
    let mut with_spans = Vec::new();
    let (window, t) = serve_window(
        cfg.sizes.warmup_s,
        cfg.seconds * 2.0 / 3.0,
        batches,
        |i, b| {
            let spans = traced_turn(i, batches.len());
            with_spans.push(spans);
            if spans {
                traced(i, b)
            } else {
                plain(i, b)
            }
        },
        check,
    );
    tally.absorb(t);
    file_window(out, &window);
    file_overhead(out, &window.samples, &with_spans)
}

/// Whether request `i` of a traced window records spans: every other
/// whole cycle through the `cycle` distinct inputs, so that plain and
/// traced requests see the same inputs equally often.
pub(crate) fn traced_turn(i: usize, cycle: usize) -> bool {
    (i / cycle) % 2 == 1
}

/// Files `proc.tracing_overhead_pct` for a window whose requests
/// alternated between plain and traced: `with_spans[i]` says which request
/// `i` was, warm-up included (the samples are the tail of the sequence).
/// Returns the traced requests' median latency in µs.
pub(crate) fn file_overhead(out: &mut Outcome, samples: &[Sample], with_spans: &[bool]) -> f64 {
    let flags = &with_spans[with_spans.len() - samples.len()..];
    let p50 = |want: bool| {
        let lat: Vec<f64> = samples
            .iter()
            .zip(flags)
            .filter(|(_, &f)| f == want)
            .map(|(s, _)| s.latency_us)
            .collect();
        median(&lat)
    };
    let (untraced_us, traced_us) = (p50(false), p50(true));
    out.set(
        "proc.tracing_overhead_pct",
        100.0 * (traced_us - untraced_us) / untraced_us.max(1e-9),
    );
    out.note("untraced_p50_us", untraced_us);
    out.note("traced_p50_us", traced_us);
    traced_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Sizes, END_TO_END};

    /// A smoke-scale pass of one workload, untraced on one seed then traced
    /// on another, each in a scratch directory of its own. The traced pass
    /// must fill in `layer_metrics` and leave `off_path` — layers the
    /// workload does not run through — unmeasured; the two quality metrics
    /// must read the same on both seeds.
    fn smoke(workload: &str, layer_metrics: &[&str], off_path: &[&str]) {
        let root = std::env::temp_dir().join(format!(
            "qdts_bench_smoke_{}_{workload}",
            std::process::id()
        ));
        let mut quality = Vec::new();
        for trace in [false, true] {
            let cfg = RunCfg {
                workload: workload.to_owned(),
                seed: 7 + trace as u64,
                seconds: 0.4,
                trace,
                sizes: Sizes::smoke(),
                out_dir: root.clone(),
                scratch: root.join("tmp"),
            };
            std::fs::create_dir_all(&cfg.scratch).expect("scratch dir");
            let out = run(&cfg).unwrap_or_else(|e| panic!("{workload} trace {trace}: {e}"));
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(out.failed, 0, "{workload}: {:?}", out.first_failure);
            for m in &END_TO_END {
                let v = out.metrics.get(m.name).copied().unwrap_or(0.0);
                assert!(v > 0.0 && v.is_finite(), "{workload}: {} = {v}", m.name);
            }
            assert!(out.metrics["f1_range"] <= 1.0);
            quality.push((
                out.metrics["f1_range"],
                out.metrics["stored_bytes_per_point"],
            ));
            if trace {
                for name in layer_metrics.iter().chain(&["proc.tracing_overhead_pct"]) {
                    let v = out.metrics.get(name).copied();
                    assert!(
                        v.is_some_and(|v| v.is_finite() && v != 0.0),
                        "{workload}: {name} = {v:?}"
                    );
                }
                for name in off_path {
                    assert!(
                        !out.metrics.contains_key(name),
                        "{workload}: {name} is not on this workload's path"
                    );
                }
                let spans = root.join(format!("{workload}-s8-spans.jsonl"));
                let text = std::fs::read_to_string(&spans).expect("span file written");
                assert!(text.lines().count() > 10, "{workload}: span file too short");
            }
        }
        assert_eq!(
            quality[0], quality[1],
            "{workload}: quality moved with the seed"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn simplify_offline_smoke() {
        smoke(
            "simplify-offline",
            &[
                "rl4qdts.train_s",
                "rl4qdts.insertions_per_s",
                "rl4qdts.index_build_share",
                "tiny-rl.forward_ns",
                "traj-index.octree_build_ms",
            ],
            &[
                "traj-query.batch64_us",
                "traj-serve.encode_batch64_us",
                "trajectory.snapshot_write_ms",
                "traj-simp.topdown_points_per_s",
                "traj-index.kd_build_ms",
            ],
        );
    }

    #[test]
    fn serve_batch_smoke() {
        smoke(
            "serve-batch",
            &[
                "traj-query.batch64_us",
                "traj-query.range_kept_us",
                "traj-serve.single_query_p50_us",
                "traj-serve.request_overhead_us",
                "traj-serve.mean_batch_size",
                "trajectory.snapshot_write_ms",
                "traj-simp.topdown_points_per_s",
            ],
            &[
                "tiny-rl.forward_ns",
                "rl4qdts.train_s",
                "trajectory.partition_ms",
                "trajectory.delta_ingest_points_per_s",
                "traj-simp.onepass_points_per_s",
            ],
        );
    }

    #[test]
    fn cluster_batch_smoke() {
        smoke(
            "cluster-batch",
            &[
                "traj-query.sharded_batch64_us",
                "traj-serve.coordinator_overhead_us",
                "traj-serve.frames_sent",
                "traj-serve.rounds",
                "trajectory.partition_ms",
            ],
            &[
                "tiny-rl.forward_ns",
                "traj-serve.single_query_p50_us",
                "trajectory.delta_ingest_points_per_s",
                "traj-simp.onepass_points_per_s",
            ],
        );
    }

    #[test]
    fn live_rw_smoke() {
        smoke(
            "live-rw",
            &[
                "traj-query.generational_batch64_us",
                "traj-query.empty_delta_tax_ratio",
                "traj-serve.ingest_ack_p50_us",
                "traj-serve.ingest_ack_p95_us",
                "trajectory.delta_ingest_points_per_s",
                "trajectory.wal_bytes_per_user_byte",
                "traj-simp.onepass_points_per_s",
                "traj-query.compaction_ms",
            ],
            &[
                "tiny-rl.forward_ns",
                "trajectory.partition_ms",
                "traj-simp.topdown_points_per_s",
                "traj-query.sharded_batch64_us",
            ],
        );
    }

    #[test]
    fn unknown_workload_is_refused() {
        let cfg = RunCfg {
            workload: "nope".to_owned(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            sizes: Sizes::smoke(),
            out_dir: std::env::temp_dir(),
            scratch: std::env::temp_dir(),
        };
        assert!(run(&cfg).is_err());
    }
}
