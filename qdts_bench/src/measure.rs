//! The closed measurement loop, the box probe that runs beside it,
//! process counters read from `/proc`, and the machine block every report
//! carries.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::{obj, Value};
use crate::stats::{median, Sample};

/// The box probe: a fixed kernel of the benchmark's own — one pass sums a
/// 1 MB window of an 8 MB buffer that it walks round and round, so every
/// pass streams from the shared last-level cache — timed after every
/// request, outside the request's own timed section.
///
/// Why it exists: this box shares its last-level cache and memory
/// channels with other tenants, and identical runs of a workload differ by
/// 10–20 % from one minute to the next, as much as a gated metric may
/// move. A pure compute loop holds steady through those
/// minutes to 0.1 %; this streaming kernel slows with the workloads
/// (correlation 0.9 and more between a run's median pass time and its
/// median request latency, README.md has the series). Dividing a slice's
/// times by how much slower than [`PROBE_NOMINAL_US`] the probe ran in
/// that slice takes the neighbours out of the gated numbers and leaves
/// the code's own speed. Only slowdowns are scaled out: in the minutes
/// the probe ran *faster* than nominal the workloads ran at their usual
/// calm speed, so a reading under nominal counts as nominal. The kernel
/// never calls into the crates under test, so no change to them can move
/// it.
pub struct BoxProbe;

/// What one probe pass takes on this box when it is calm, in µs: the
/// pass time under which the workloads stop getting faster with it.
pub const PROBE_NOMINAL_US: f64 = 105.0;

const PROBE_BUF_WORDS: usize = 1 << 20;
const PROBE_PASS_WORDS: usize = 1 << 17;

/// The probe's buffer, one for the process (it is part of the peak RSS
/// every workload reports), and where the next pass starts.
static PROBE_BUF: OnceLock<Vec<u64>> = OnceLock::new();
static PROBE_AT: AtomicUsize = AtomicUsize::new(0);

impl BoxProbe {
    /// One pass; how long it took, in µs.
    pub fn pass_us() -> f64 {
        let buf = PROBE_BUF.get_or_init(|| (0..PROBE_BUF_WORDS as u64).collect());
        let at = PROBE_AT.fetch_add(PROBE_PASS_WORDS, Ordering::Relaxed) % PROBE_BUF_WORDS;
        let window = &buf[at..at + PROBE_PASS_WORDS];
        let t = Instant::now();
        std::hint::black_box(window.iter().fold(0u64, |a, &b| a.wrapping_add(b)));
        t.elapsed().as_secs_f64() * 1e6
    }

    /// How much slower than nominal the box is right now: the median of
    /// `passes` passes over [`PROBE_NOMINAL_US`], at least 1.
    pub fn slowdown(passes: usize) -> f64 {
        let times: Vec<f64> = (0..passes.max(1)).map(|_| BoxProbe::pass_us()).collect();
        slowdown_of(median(&times), PROBE_NOMINAL_US)
    }
}

/// The slowdown a median pass of `pass_us` stands for.
pub fn slowdown_of(pass_us: f64, nominal_us: f64) -> f64 {
    (pass_us / nominal_us).max(1.0)
}

/// What [`closed_loop`] measured: the timed requests, the nominal window
/// length, and the CPU time the whole process used meanwhile.
pub struct Window {
    pub samples: Vec<Sample>,
    pub seconds: f64,
    pub cpu_s: f64,
}

/// Runs `issue(i)` back to back — a closed loop, one request in flight —
/// first untimed for `warmup_s`, then for `window_s` with every request
/// timed. `settle(i, reply)` runs outside the timed section (that is
/// where answers are checked) and returns the ops the request carried;
/// one pass of the box probe follows it.
pub fn closed_loop<R>(
    warmup_s: f64,
    window_s: f64,
    mut issue: impl FnMut(usize) -> R,
    mut settle: impl FnMut(usize, R) -> f64,
) -> Window {
    let mut i = 0usize;
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < warmup_s {
        let reply = issue(i);
        settle(i, reply);
        BoxProbe::pass_us();
        i += 1;
    }
    let mut samples = Vec::new();
    let cpu_at_start = cpu_seconds();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let reply = issue(i);
        let t1 = Instant::now();
        let ops = settle(i, reply);
        let probe_us = BoxProbe::pass_us();
        i += 1;
        let done_s = (t1 - start).as_secs_f64();
        samples.push(Sample {
            done_s,
            latency_us: (t1 - t0).as_secs_f64() * 1e6,
            ops,
            probe_us,
        });
        if done_s >= window_s {
            return Window {
                samples,
                seconds: window_s,
                cpu_s: cpu_seconds() - cpu_at_start,
            };
        }
    }
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process (`VmHWM`) in MB; 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has used, from
/// `/proc/self/stat` (clock ticks of 1/100 s, the Linux `USER_HZ`).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; "unknown" outside a repository (the acceptance driver's
/// checkout is not one).
fn commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let head = d.join(".git/HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim();
            let Some(reference) = text.strip_prefix("ref: ") else {
                return text.to_owned();
            };
            if let Ok(hash) = std::fs::read_to_string(d.join(".git").join(reference)) {
                return hash.trim().to_owned();
            }
            if let Ok(packed) = std::fs::read_to_string(d.join(".git/packed-refs")) {
                if let Some(line) = packed.lines().find(|l| l.ends_with(reference)) {
                    return line.split(' ').next().unwrap_or("unknown").to_owned();
                }
            }
            return "unknown".to_owned();
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_owned()
}

const PROFILE_IS_ROOTS: bool = matches!(env!("QDTS_BENCH_PROFILE_IS_ROOTS").as_bytes(), b"true");

/// Machine block: what the numbers were measured on.
pub fn machine(db_dir: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("commit", Value::from(commit())),
        ("rustc", Value::from(env!("QDTS_BENCH_RUSTC"))),
        // False when this package's copy of `[profile.release]` no longer
        // equals the workspace root's (build.rs compares them).
        ("release_profile_is_roots", Value::from(PROFILE_IS_ROOTS)),
        ("nproc", Value::from(nproc)),
        (
            "simd_backend",
            Value::from(trajectory::simd::active_backend()),
        ),
        // Database files stay inside the checkout (the driver's rule), so
        // fsync reaches the checkout's disk, never /dev/shm.
        ("dev_shm_used", Value::from(false)),
        ("db_dir", Value::from(db_dir.display().to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_times_the_window_only_and_settles_every_request() {
        let mut issued = 0usize;
        let mut settled = 0usize;
        let Window { samples, .. } = closed_loop(
            0.01,
            0.05,
            |i| {
                issued += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
                i
            },
            |i, reply| {
                assert_eq!(i, reply);
                settled += 1;
                64.0
            },
        );
        assert_eq!(issued, settled);
        assert!(samples.len() < issued, "the warm-up is not sampled");
        assert!(samples
            .iter()
            .all(|s| s.latency_us >= 1000.0 && s.ops == 64.0 && s.probe_us > 0.0));
        let last = samples.last().expect("at least one sample");
        assert!(last.done_s >= 0.05);
        assert!(samples[..samples.len() - 1].iter().all(|s| s.done_s < 0.05));
    }

    #[test]
    fn box_probe_walks_its_whole_buffer_and_reads_near_nominal() {
        for _ in 0..PROBE_BUF_WORDS / PROBE_PASS_WORDS + 1 {
            assert!(BoxProbe::pass_us() > 0.0);
        }
        let s = BoxProbe::slowdown(9);
        assert!(s >= 1.0 && s.is_finite(), "slowdown {s}");
        assert_eq!(slowdown_of(90.0, 100.0), 1.0);
        assert_eq!(slowdown_of(125.0, 100.0), 1.25);
    }

    #[test]
    fn release_profile_is_the_workspace_roots() {
        assert!(
            PROFILE_IS_ROOTS,
            "[profile.release] here and in ../Cargo.toml differ: copy the root's"
        );
    }

    #[test]
    fn proc_counters_read_something_on_linux() {
        if !Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() >= before + 0.03, "cpu time advances");
    }
}
