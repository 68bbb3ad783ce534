//! Plain-text I/O for trajectory databases.
//!
//! Format: one point per line, `traj_id,x,y,t` (header optional). This keeps
//! the library dependency-free while staying trivially convertible from the
//! public datasets' CSV dumps.

use crate::db::{TrajId, TrajectoryDb};
use crate::point::Point;
use crate::store::{AsColumns, PointStore};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// The streaming-append protocol shared by every ingest destination:
/// the in-memory [`PointStore`], the WAL-guarded
/// [`DeltaStore`](crate::delta::DeltaStore), and whatever future tiers
/// accept live writes. File loads ([`read_csv_into`]) and network
/// ingest drive the same three calls, so a CSV is just a replay source
/// for the ingest path.
///
/// `push_point` returns `Ok(false)` when the sink rejects the point
/// (non-finite coordinates or a timestamp regressing within the open
/// trajectory); `end_traj` returns `None` when nothing was committed
/// (an empty or fully rejected trajectory). I/O failures are real
/// errors — only WAL-backed sinks produce them.
pub trait PointSink {
    /// Starts a new trajectory.
    fn begin_traj(&mut self) -> io::Result<()>;
    /// Streams one point into the open trajectory; `Ok(false)` = rejected.
    fn push_point(&mut self, p: Point) -> io::Result<bool>;
    /// Closes the open trajectory, returning its id if non-empty.
    fn end_traj(&mut self) -> io::Result<Option<TrajId>>;
}

impl PointSink for PointStore {
    fn begin_traj(&mut self) -> io::Result<()> {
        PointStore::begin_traj(self);
        Ok(())
    }
    fn push_point(&mut self, p: Point) -> io::Result<bool> {
        Ok(PointStore::push_point(self, p))
    }
    fn end_traj(&mut self) -> io::Result<Option<TrajId>> {
        Ok(PointStore::end_traj(self))
    }
}

/// Errors raised while reading a trajectory file.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of what failed to parse.
        message: String,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Writes `db` in `traj_id,x,y,t` CSV form.
pub fn write_csv<W: Write>(db: &TrajectoryDb, out: W) -> io::Result<()> {
    let mut w = BufWriter::new(out);
    writeln!(w, "traj_id,x,y,t")?;
    for (id, traj) in db.iter() {
        for p in traj.points() {
            writeln!(w, "{id},{},{},{}", p.x, p.y, p.t)?;
        }
    }
    w.flush()
}

/// Convenience wrapper writing to a file path.
pub fn write_csv_file<P: AsRef<Path>>(db: &TrajectoryDb, path: P) -> io::Result<()> {
    write_csv(db, std::fs::File::create(path)?)
}

/// One parsed CSV record: `(traj_id, point)`.
struct Record {
    id: String,
    p: Point,
}

/// Parses one non-empty, non-header line. Every failure mode yields a
/// typed [`ReadError::Parse`] carrying the 1-based line number — including
/// a missing or empty `traj_id` field, which older readers silently
/// collapsed into an anonymous `""` trajectory.
fn parse_line(trimmed: &str, line_1: usize) -> Result<Record, ReadError> {
    let mut parts = trimmed.split(',');
    let id = parts
        .next()
        .map(str::trim)
        .filter(|id| !id.is_empty())
        .ok_or(ReadError::Parse {
            line: line_1,
            message: "missing traj_id".into(),
        })?
        .to_string();
    let parse = |field: Option<&str>, name: &str| -> Result<f64, ReadError> {
        field
            .ok_or(ReadError::Parse {
                line: line_1,
                message: format!("missing {name}"),
            })?
            .trim()
            .parse::<f64>()
            .map_err(|e| ReadError::Parse {
                line: line_1,
                message: format!("{name}: {e}"),
            })
    };
    let x = parse(parts.next(), "x")?;
    let y = parse(parts.next(), "y")?;
    let t = parse(parts.next(), "t")?;
    Ok(Record {
        id,
        p: Point::new(x, y, t),
    })
}

/// How the CSV readers treat malformed lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MalformedLines {
    /// The first malformed line aborts the read with its parse error.
    Fail,
    /// Malformed lines are skipped and counted.
    Skip,
}

/// Shared reader core: streams records into any [`PointSink`], returning
/// the number of committed trajectories and the number of skipped lines
/// (always 0 in [`MalformedLines::Fail`] mode).
fn read_csv_sink<R: Read, S: PointSink + ?Sized>(
    input: R,
    sink: &mut S,
    mode: MalformedLines,
) -> Result<(usize, usize), ReadError> {
    let reader = BufReader::new(input);
    let mut current_id: Option<String> = None;
    let mut open = false;
    let mut committed = 0usize;
    let mut skipped = 0usize;

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line_1 = lineno + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if lineno == 0 && trimmed.starts_with("traj_id") {
            continue;
        }
        let record = match parse_line(trimmed, line_1) {
            Ok(r) => r,
            Err(e) => match mode {
                MalformedLines::Fail => return Err(e),
                MalformedLines::Skip => {
                    skipped += 1;
                    continue;
                }
            },
        };
        if current_id.as_deref() != Some(record.id.as_str()) {
            if open {
                committed += usize::from(sink.end_traj()?.is_some());
            }
            sink.begin_traj()?;
            open = true;
            current_id = Some(record.id);
        }
        if !sink.push_point(record.p)? {
            match mode {
                MalformedLines::Fail => {
                    return Err(ReadError::Parse {
                        line: line_1,
                        message: "trajectory points are not time-ordered or not finite".into(),
                    })
                }
                MalformedLines::Skip => skipped += 1,
            }
        }
    }
    if open {
        committed += usize::from(sink.end_traj()?.is_some());
    }
    Ok((committed, skipped))
}

/// Streams a `traj_id,x,y,t` CSV through any [`PointSink`] — the same
/// `begin_traj`/`push_point`/`end_traj` path live network writes take —
/// returning the number of committed trajectories. The first malformed
/// line aborts with a [`ReadError::Parse`] carrying its 1-based line
/// number; everything already committed to the sink stays committed.
pub fn read_csv_into<R: Read, S: PointSink + ?Sized>(
    input: R,
    sink: &mut S,
) -> Result<usize, ReadError> {
    read_csv_sink(input, sink, MalformedLines::Fail).map(|(committed, _)| committed)
}

/// Shared reader core over an owned [`PointStore`] (the [`PointSink`]
/// generic drives it; this wrapper keeps the historical signature).
fn read_csv_core<R: Read>(
    input: R,
    mode: MalformedLines,
) -> Result<(PointStore, usize), ReadError> {
    let mut store = PointStore::new();
    let (_, skipped) = read_csv_sink(input, &mut store, mode)?;
    Ok((store, skipped))
}

/// Reads a `traj_id,x,y,t` CSV. Points of one trajectory must be contiguous
/// and time-ordered; trajectory ids are re-assigned densely in order of
/// first appearance. A single header line is skipped when present. Any
/// malformed line — including a missing or empty `traj_id` — aborts with a
/// [`ReadError::Parse`] carrying its 1-based line number.
pub fn read_csv<R: Read>(input: R) -> Result<TrajectoryDb, ReadError> {
    Ok(read_csv_store(input)?.to_db())
}

/// [`read_csv`] straight into columnar storage: records stream through the
/// [`PointStore`] append API without building per-trajectory `Vec<Point>`
/// intermediaries.
pub fn read_csv_store<R: Read>(input: R) -> Result<PointStore, ReadError> {
    read_csv_core(input, MalformedLines::Fail).map(|(store, _)| store)
}

/// Lenient variant of [`read_csv`]: malformed lines (unparsable fields,
/// missing ids, time regressions, non-finite coordinates) are skipped
/// instead of aborting. Returns the database plus the number of skipped
/// lines, so callers can surface data-quality problems instead of silently
/// absorbing them. I/O errors still abort.
pub fn read_csv_skip_malformed<R: Read>(input: R) -> Result<(TrajectoryDb, usize), ReadError> {
    let (store, skipped) = read_csv_core(input, MalformedLines::Skip)?;
    Ok((store.to_db(), skipped))
}

/// Convenience wrapper reading from a file path.
pub fn read_csv_file<P: AsRef<Path>>(path: P) -> Result<TrajectoryDb, ReadError> {
    read_csv(std::fs::File::open(path)?)
}

/// Projects WGS-84 latitude/longitude (degrees) to local planar meters with
/// an equirectangular projection around `(lat0, lon0)`. Adequate at city
/// scale, which is all the paper's datasets need.
pub fn project_equirectangular(lat: f64, lon: f64, lat0: f64, lon0: f64) -> (f64, f64) {
    const EARTH_RADIUS: f64 = 6_371_000.0;
    let x = (lon - lon0).to_radians() * lat0.to_radians().cos() * EARTH_RADIUS;
    let y = (lat - lat0).to_radians() * EARTH_RADIUS;
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, DatasetSpec, Scale};

    #[test]
    fn csv_round_trips() {
        let db = generate(&DatasetSpec::geolife(Scale::Smoke), 3);
        let mut buf = Vec::new();
        write_csv(&db, &mut buf).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(back.len(), db.len());
        assert_eq!(back.total_points(), db.total_points());
        for (id, t) in db.iter() {
            for (a, b) in t.points().iter().zip(back.get(id).points()) {
                assert!((a.x - b.x).abs() < 1e-9);
                assert!((a.y - b.y).abs() < 1e-9);
                assert!((a.t - b.t).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn read_skips_header_and_blank_lines() {
        let text = "traj_id,x,y,t\n\na,1.0,2.0,3.0\na,2.0,3.0,4.0\nb,0.0,0.0,0.0\nb,5,5,9\n";
        let db = read_csv(text.as_bytes()).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(0).len(), 2);
        assert_eq!(db.get(1).last().t, 9.0);
    }

    #[test]
    fn read_rejects_garbage() {
        let text = "a,1.0,nope,3.0\n";
        match read_csv(text.as_bytes()) {
            Err(ReadError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn read_rejects_unordered_times() {
        let text = "a,1.0,1.0,5.0\na,2.0,2.0,4.0\n";
        assert!(matches!(
            read_csv(text.as_bytes()),
            Err(ReadError::Parse { .. })
        ));
    }

    #[test]
    fn read_rejects_missing_or_empty_id() {
        for text in [",1.0,2.0,3.0\n", "  ,1.0,2.0,3.0\n"] {
            match read_csv(text.as_bytes()) {
                Err(ReadError::Parse { line, message }) => {
                    assert_eq!(line, 1);
                    assert!(message.contains("traj_id"), "{message}");
                }
                other => panic!("expected id parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn read_reports_the_offending_line() {
        let text = "a,1.0,2.0,3.0\na,2.0,3.0,4.0\na,oops,3.0,5.0\n";
        match read_csv(text.as_bytes()) {
            Err(ReadError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn skip_malformed_counts_and_continues() {
        let text = "traj_id,x,y,t\n\
                    a,1.0,2.0,3.0\n\
                    a,bad,2.0,4.0\n\
                    a,2.0,3.0,5.0\n\
                    ,9.0,9.0,9.0\n\
                    b,0.0,0.0,0.0\n\
                    b,1.0,1.0,-5.0\n\
                    b,1.0,1.0,2.0\n";
        let (db, skipped) = read_csv_skip_malformed(text.as_bytes()).unwrap();
        assert_eq!(skipped, 3, "bad x, missing id, time regression");
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(0).len(), 2);
        assert_eq!(db.get(1).len(), 2);
    }

    #[test]
    fn csv_streams_into_columnar_storage() {
        let db = generate(&DatasetSpec::geolife(Scale::Smoke), 5);
        let mut buf = Vec::new();
        write_csv(&db, &mut buf).unwrap();
        let store = read_csv_store(&buf[..]).unwrap();
        assert_eq!(store.len(), db.len());
        assert_eq!(store.total_points(), db.total_points());
        for (id, t) in db.iter() {
            assert_eq!(store.view(id).len(), t.len());
        }
    }

    #[test]
    fn csv_replays_through_any_point_sink() {
        use crate::delta::{DeltaStore, KeepAll};

        let db = generate(&DatasetSpec::geolife(Scale::Smoke), 11);
        let mut buf = Vec::new();
        write_csv(&db, &mut buf).unwrap();

        // The same bytes through the plain columnar path and through the
        // WAL-guarded delta path yield byte-identical columns.
        let store = read_csv_store(&buf[..]).unwrap();
        let dir = std::env::temp_dir().join("qdts_io_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("csv-replay.log");
        std::fs::remove_file(&wal).ok();
        let mut delta = DeltaStore::create(&wal, Box::new(KeepAll)).unwrap();
        let committed = read_csv_into(&buf[..], &mut delta).unwrap();
        assert_eq!(committed, store.len());
        assert_eq!(delta.store().xs(), store.xs());
        assert_eq!(delta.store().ys(), store.ys());
        assert_eq!(delta.store().ts(), store.ts());
        assert_eq!(delta.store().offsets(), store.offsets());

        // And the delta's WAL replays back to the same columns — a CSV
        // load really is just a replay source for the ingest path.
        delta.sync().unwrap();
        drop(delta);
        let reopened = DeltaStore::open(&wal, Box::new(KeepAll)).unwrap();
        assert_eq!(reopened.store().xs(), store.xs());
        assert_eq!(reopened.store().offsets(), store.offsets());
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn sink_parse_errors_carry_line_numbers() {
        use crate::delta::{DeltaStore, KeepAll};

        let dir = std::env::temp_dir().join("qdts_io_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("csv-err.log");
        std::fs::remove_file(&wal).ok();
        let mut delta = DeltaStore::create(&wal, Box::new(KeepAll)).unwrap();
        let text = "a,1.0,2.0,3.0\na,2.0,3.0,4.0\na,oops,3.0,5.0\n";
        match read_csv_into(text.as_bytes(), &mut delta) {
            Err(ReadError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn projection_is_locally_metric() {
        // One degree of latitude is ~111 km everywhere.
        let (_, y) = project_equirectangular(40.0, 116.0, 39.0, 116.0);
        assert!((y - 111_194.9).abs() < 100.0, "y = {y}");
        // At the reference point the projection is the origin.
        let (x0, y0) = project_equirectangular(39.0, 116.0, 39.0, 116.0);
        assert_eq!((x0, y0), (0.0, 0.0));
    }

    #[test]
    fn file_round_trip() {
        let db = generate(&DatasetSpec::chengdu(Scale::Smoke), 8);
        let dir = std::env::temp_dir().join("qdts_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.csv");
        write_csv_file(&db, &path).unwrap();
        let back = read_csv_file(&path).unwrap();
        assert_eq!(back.total_points(), db.total_points());
        std::fs::remove_file(&path).ok();
    }
}
