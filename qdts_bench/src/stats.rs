//! Slice and percentile arithmetic behind every gated number.
//!
//! A measurement window is cut into equal time slices; throughput, p50
//! and p95 are each computed per slice, brought to nominal box speed by
//! the slice's own probe reading (see `measure::BoxProbe`), and the
//! *median over slices* is reported, so one noisy second moves one slice,
//! not the result.

use crate::measure::slowdown_of;

/// Fewest requests a slice may hold: a p95 over fewer has under ten
/// samples beyond it.
pub const MIN_PER_SLICE: usize = 200;
/// Most slices a window is cut into.
pub const MAX_SLICES: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
/// Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unordered sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the acceptance driver applies. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Position i·(n+1)/4 in 1-based ranks, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
}

/// As many equal slices (at most [`MAX_SLICES`]) as keep at least
/// [`MIN_PER_SLICE`] requests in each; one slice when the window holds
/// fewer than two slices' worth.
pub fn slice_count(requests: usize) -> usize {
    (requests / MIN_PER_SLICE).clamp(1, MAX_SLICES)
}

/// One completed request: when it completed, measured from the start of
/// the window, how long it took, how many ops it carried, and how long
/// the box-probe pass that followed it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub done_s: f64,
    pub latency_us: f64,
    pub ops: f64,
    pub probe_us: f64,
}

/// What a window reduces to. The three gated numbers are at nominal box
/// speed: each slice's value is scaled by the slice's slowdown before the
/// median over slices is taken. The `raw_` ones are the same medians
/// without the scaling, as the clock read them.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    pub requests: usize,
    pub slices: usize,
    /// Median over slices of ops completed per second.
    pub throughput_per_s: f64,
    /// Median over slices of the slice median latency.
    pub p50_us: f64,
    /// Median over slices of the slice p95 latency.
    pub p95_us: f64,
    pub raw_throughput_per_s: f64,
    pub raw_p50_us: f64,
    pub raw_p95_us: f64,
    /// Median over slices of the slice's slowdown: its median probe pass
    /// over the nominal pass, at least 1.
    pub box_slowdown: f64,
    /// Median over slices of the slice p99, as the clock read it;
    /// context, not gated.
    pub p99_us: f64,
    /// p99.9 over the whole window (a slice has too few samples), as the
    /// clock read it.
    pub p999_us: f64,
    /// Per slice, in window order, as the clock read them (the latency
    /// and slowdown lists skip empty slices). Context for the report.
    pub slice_throughput_per_s: Vec<f64>,
    pub slice_p50_us: Vec<f64>,
    pub slice_p95_us: Vec<f64>,
    pub slice_slowdown: Vec<f64>,
}

/// Cuts `window_s` seconds of samples into [`slice_count`] equal time
/// slices and reduces them; `probe_nominal_us` is the probe pass a
/// slowdown of 1 stands for. Samples completing after the window are
/// ignored. A slice's throughput is its ops over the time from the last
/// completion before it to its own last completion, less the probe passes
/// in between — the time those ops took, to the nanosecond, not the
/// nominal slice width. An empty slice (a stall longer than a slice)
/// reads zero throughput and is kept, so a stall cannot hide.
pub fn summarize(samples: &[Sample], window_s: f64, probe_nominal_us: f64) -> WindowSummary {
    let inside: Vec<Sample> = samples
        .iter()
        .copied()
        .filter(|s| s.done_s <= window_s)
        .collect();
    let slices = slice_count(inside.len());
    let width = window_s / slices as f64;
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let mut probe: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let mut ops = vec![0.0; slices];
    let mut last_done = vec![0.0f64; slices];
    for s in &inside {
        let i = ((s.done_s / width) as usize).min(slices - 1);
        lat[i].push(s.latency_us);
        probe[i].push(s.probe_us);
        ops[i] += s.ops;
        last_done[i] = last_done[i].max(s.done_s);
    }
    let mut all: Vec<f64> = inside.iter().map(|s| s.latency_us).collect();
    all.sort_by(f64::total_cmp);
    let (mut p50, mut p95, mut p99, mut slow) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut per_s, mut per_s_nominal) = (Vec::new(), Vec::new());
    let mut previous_done = 0.0;
    for (i, l) in lat.iter_mut().enumerate() {
        if l.is_empty() {
            per_s.push(0.0);
            per_s_nominal.push(0.0);
            continue;
        }
        let slowdown = slowdown_of(median(&probe[i]), probe_nominal_us);
        slow.push(slowdown);
        // As many passes fall between the two completions as the slice has
        // requests: its own but the last, and the previous slice's last.
        let probe_s = probe[i].iter().sum::<f64>() / 1e6;
        let rate = ops[i] / (last_done[i] - previous_done - probe_s).max(1e-9);
        previous_done = last_done[i];
        per_s.push(rate);
        per_s_nominal.push(rate * slowdown);
        l.sort_by(f64::total_cmp);
        p50.push(percentile(l, 0.50));
        p95.push(percentile(l, 0.95));
        p99.push(percentile(l, 0.99));
    }
    let at_nominal = |v: &[f64]| {
        let scaled: Vec<f64> = v.iter().zip(&slow).map(|(x, s)| x / s).collect();
        median(&scaled)
    };
    WindowSummary {
        requests: inside.len(),
        slices,
        throughput_per_s: median(&per_s_nominal),
        p50_us: at_nominal(&p50),
        p95_us: at_nominal(&p95),
        raw_throughput_per_s: median(&per_s),
        raw_p50_us: median(&p50),
        raw_p95_us: median(&p95),
        box_slowdown: median(&slow),
        p99_us: median(&p99),
        p999_us: percentile(&all, 0.999),
        slice_throughput_per_s: per_s,
        slice_p50_us: p50,
        slice_p95_us: p95,
        slice_slowdown: slow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&v).expect("ten values");
        assert!((share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slices_keep_two_hundred_requests_each() {
        assert_eq!(slice_count(0), 1);
        assert_eq!(slice_count(199), 1);
        assert_eq!(slice_count(399), 1);
        assert_eq!(slice_count(400), 2);
        assert_eq!(slice_count(1999), 9);
        assert_eq!(slice_count(2000), 10);
        assert_eq!(slice_count(1_000_000), 10);
        for n in [1usize, 250, 401, 1234, 5000] {
            let k = slice_count(n);
            assert!(
                k == 1 || n / k >= MIN_PER_SLICE,
                "{n} requests in {k} slices"
            );
        }
    }

    #[test]
    fn summarize_takes_the_median_over_slices() {
        // 10 s window, 100 requests per second, each carrying 2 ops; the
        // 4th second is slow (half the requests at triple the latency).
        let mut samples = Vec::new();
        for sec in 0..10 {
            let n = if sec == 3 { 50 } else { 100 };
            for i in 0..n {
                samples.push(Sample {
                    done_s: sec as f64 + (i as f64 + 0.5) / n as f64,
                    latency_us: if sec == 3 { 3000.0 } else { 1000.0 + i as f64 },
                    ops: 2.0,
                    probe_us: 1.0,
                });
            }
        }
        let s = summarize(&samples, 10.0, 1.0);
        assert_eq!(s.requests, 950);
        assert_eq!(s.slices, 4);
        // Slices of 2.5 s: 250, 200, 250, 250 requests of 2 ops, each
        // slice timed to its last completion → a median just off 200/s.
        assert!(
            (s.throughput_per_s - 200.0).abs() < 1.0,
            "{}",
            s.throughput_per_s
        );
        assert!(s.p50_us > 1000.0 && s.p50_us < 1100.0, "{}", s.p50_us);
        assert!(s.p95_us >= s.p50_us);
        assert_eq!(s.p999_us, 3000.0);
    }

    #[test]
    fn summarize_drops_samples_past_the_window_and_keeps_stalls() {
        let mut samples: Vec<Sample> = (0..400)
            .map(|i| Sample {
                done_s: i as f64 / 400.0,
                latency_us: 10.0,
                ops: 1.0,
                probe_us: 100.0,
            })
            .collect();
        samples.push(Sample {
            done_s: 2.5,
            latency_us: 1e9,
            ops: 1.0,
            probe_us: 100.0,
        });
        // All 400 land in the first of two 1 s slices; the second is a
        // stall and reads 0, so the median is half the first slice's rate.
        let s = summarize(&samples, 2.0, 100.0);
        assert_eq!((s.requests, s.slices), (400, 2));
        // 400 ops in 399/400 s less 400 passes of 100 µs.
        let first = 400.0 / (399.0 / 400.0 - 0.04);
        assert!(
            (s.throughput_per_s - first / 2.0).abs() < 0.1,
            "{}",
            s.throughput_per_s
        );
        assert_eq!(s.p999_us, 10.0);
    }

    #[test]
    fn a_slow_box_is_scaled_out_slice_by_slice() {
        // 4 s, 100 requests a second. In the second half the box runs 1.25
        // times slower: requests and probe passes alike take 1.25 times as
        // long. At nominal speed the two halves read the same.
        let mut samples = Vec::new();
        let mut now = 0.0;
        while now < 4.0 {
            let slow = if now < 2.0 { 1.0 } else { 1.25 };
            now += 0.01 * slow;
            samples.push(Sample {
                done_s: now,
                latency_us: 8_000.0 * slow,
                ops: 1.0,
                probe_us: 50.0 * slow,
            });
        }
        let per_slice = |lo: f64, hi: f64| -> Vec<Sample> {
            samples
                .iter()
                .filter(|s| s.done_s > lo && s.done_s <= hi)
                .map(|s| Sample {
                    done_s: s.done_s - lo,
                    ..*s
                })
                .collect()
        };
        let calm = summarize(&per_slice(0.0, 2.0), 2.0, 50.0);
        let busy = summarize(&per_slice(2.0, 4.0), 2.0, 50.0);
        assert!((busy.box_slowdown - 1.25).abs() < 1e-9);
        assert!((busy.raw_p50_us - 10_000.0).abs() < 1e-6);
        assert!((busy.p50_us - calm.p50_us).abs() < 1e-6);
        assert!((busy.p95_us - calm.p95_us).abs() < 1e-6);
        let rel = (busy.throughput_per_s - calm.throughput_per_s).abs() / calm.throughput_per_s;
        assert!(
            rel < 0.01,
            "{} vs {}",
            busy.throughput_per_s,
            calm.throughput_per_s
        );
        assert!(busy.raw_throughput_per_s < 0.82 * calm.raw_throughput_per_s);
    }
}
