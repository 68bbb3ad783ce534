//! In-memory spans recorded by the benchmark's own code around calls into
//! each layer's public functions (`--trace 1` only).
//!
//! A span is `{id, parent, request, name, start_ns, end_ns}`; spans of
//! one request share `request`. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::{obj, Value};
use crate::report::{Outcome, RunCfg};
use crate::stats::percentile;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder for one thread of the traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn start(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` under a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Files a span another thread timed with its own clock readings.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let id = self.spans.len() as u32;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: NO_PARENT,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(reach, s.end_ns);
                    let b = b.clamp(reach, s.end_ns);
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals: count, total and self time, median and p95 duration.
pub fn summary(spans: &[Span]) -> Value {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0.push((s.end_ns - s.start_ns) as f64 / 1e3);
        e.1 += *own as f64 / 1e3;
    }
    Value::Arr(
        by_name
            .into_iter()
            .map(|(name, (mut d, self_us))| {
                d.sort_by(f64::total_cmp);
                obj([
                    ("name", Value::from(name)),
                    ("count", Value::from(d.len())),
                    ("total_us", Value::from(d.iter().sum::<f64>())),
                    ("self_us", Value::from(self_us)),
                    ("p50_us", Value::from(percentile(&d, 0.5))),
                    ("p95_us", Value::from(percentile(&d, 0.95))),
                ])
            })
            .collect(),
    )
}

/// Writes the spans, one JSON object per line, preceded by the per-name
/// summary.
pub fn write_file(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{}", obj([("summary", summary(spans))]).to_json())?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            Value::Null
        } else {
            Value::from(u64::from(s.parent))
        };
        let line = obj([
            ("id", Value::from(u64::from(s.id))),
            ("parent", parent),
            ("request", Value::from(s.request)),
            ("name", Value::from(s.name)),
            ("start_ns", Value::from(s.start_ns)),
            ("end_ns", Value::from(s.end_ns)),
        ]);
        writeln!(w, "{}", line.to_json())?;
    }
    w.flush()
}

/// Writes the run's spans beside its report and notes where.
pub fn file(cfg: &RunCfg, rec: &Recorder, out: &mut Outcome) -> Result<(), String> {
    let path = cfg
        .out_dir
        .join(format!("{}-s{}-spans.jsonl", cfg.workload, cfg.seed));
    write_file(&path, rec.spans()).map_err(|e| format!("write {}: {e}", path.display()))?;
    out.note("span_file", path.display().to_string());
    out.note("spans", rec.spans().len());
    out.note("span_summary", summary(rec.spans()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(0, NO_PARENT, "request", 0, 1000),
            span(1, 0, "encode", 0, 100),
            // Two children overlapping on 300..400: covered 200..600 once.
            span(2, 0, "round_trip", 200, 400),
            span(3, 0, "round_trip", 300, 600),
            span(4, 0, "decode", 900, 1000),
            // A grandchild shortens its parent, not the root.
            span(5, 3, "server", 350, 550),
            // A child leaking past its parent is clipped to it.
            span(6, 4, "late", 950, 2000),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 1000 - (100 + 400 + 100));
        assert_eq!(own[1], 100);
        assert_eq!(own[2], 200);
        assert_eq!(own[3], 300 - 200);
        assert_eq!(own[4], 100 - 50);
        assert_eq!(own[5], 200);
        assert_eq!(own[6], 1050);
    }

    #[test]
    fn recorder_nests_and_summarizes() {
        let mut rec = Recorder::new();
        let root = rec.start("request", NO_PARENT, 7);
        let got = rec.time("encode", root, 7, || 41 + 1);
        rec.end(root);
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].request), (root, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.durations_us("encode").len(), 1);
        assert!(rec.durations_us("missing").is_empty());
        let Value::Arr(rows) = summary(spans) else {
            panic!("summary is an array");
        };
        let names: Vec<_> = rows
            .iter()
            .map(|r| r.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names, [Some("encode"), Some("request")]);
    }

    #[test]
    fn span_file_holds_summary_then_one_span_per_line() {
        let dir = std::env::temp_dir().join(format!("qdts_bench_spans_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("spans.jsonl");
        let spans = vec![
            span(0, NO_PARENT, "request", 5, 25),
            span(1, 0, "encode", 5, 10),
        ];
        write_file(&path, &spans).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(crate::json::parse(lines[0])
            .expect("summary")
            .get("summary")
            .is_some());
        let first = crate::json::parse(lines[1]).expect("span line");
        assert_eq!(first.get("parent"), Some(&Value::Null));
        assert_eq!(first.get("end_ns").and_then(Value::as_f64), Some(25.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
