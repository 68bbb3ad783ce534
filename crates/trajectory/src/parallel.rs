//! Minimal data-parallel map over slices, built on scoped threads.
//!
//! The workspace has no external thread-pool dependency, so every
//! embarrassingly-parallel loop — the query engine's batch paths, the
//! sharded engine's per-shard index builds, per-shard simplification —
//! uses this helper: a work-stealing index counter over `items` with one
//! worker per available core, the calling thread being one of them.
//! Results preserve input order, and a panic in any worker — the caller's
//! own share included — propagates to the caller, so `par_map` is a drop-in
//! replacement for a sequential `iter().map().collect()`. (It lives in
//! the data-substrate crate so both `traj-query` and `traj-simp` can
//! share it; `traj_query::parallel` re-exports it.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of worker threads used for a batch of `len` items.
fn worker_count(len: usize) -> usize {
    // std re-derives the count from the affinity mask and the cgroup
    // quota files on every call (microseconds each), and every batch
    // pass asks; the answer is read once per process.
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    cores.min(len).max(1)
}

/// Maps `f` over `items` in parallel, preserving order.
///
/// Workers pull indices from a shared atomic counter, so uneven per-item
/// cost (a selective query vs. a whole-database one) balances
/// automatically. Falls back to a plain sequential map for tiny batches
/// where thread startup would dominate.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    worker_loop(items, || (), |(), _, item| f(item))
}

/// [`par_map`] variant with **per-worker scratch state**: `init` runs
/// once per worker thread (not once per item), and the returned value is
/// threaded mutably through every item that worker processes. Batch
/// executors use this to reuse allocation-heavy buffers (hit-flag
/// vectors, candidate lists) across the queries of a batch instead of
/// reallocating them per query. Results preserve input order, like
/// [`par_map`]; the sequential fallback reuses one scratch for the whole
/// batch, which is the same sharing contract (scratch must be *reusable*,
/// not *fresh*, per item).
pub fn par_map_with<T, R, S, G, F>(items: &[T], init: G, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    worker_loop(items, init, |scratch, _, item| f(scratch, item))
}

/// [`par_map`] variant whose callback also receives the item index.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    worker_loop(items, || (), |(), i, item| f(i, item))
}

/// **The** worker loop behind every `par_map*`: `f` sees its worker's
/// scratch (built by `init`, once per worker), the item's index and the
/// item.
fn worker_loop<T, R, S, G, F>(items: &[T], init: G, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 || items.len() < 2 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut scratch, i, item))
            .collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let next = AtomicUsize::new(0);
    // Each worker collects (index, value) pairs; merging afterwards
    // restores input order without sharing mutable state across threads.
    let work = || {
        let mut scratch = init();
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            out.push((i, f(&mut scratch, i, &items[i])));
        }
        out
    };
    // The caller would only wait for the workers, so it is worker 0 and
    // `workers - 1` helpers are spawned beside it. A panic in the caller's
    // share unwinds through the scope, which joins the helpers first.
    let partials: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let work = &work;
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut partials = vec![work()];
        for h in helpers {
            partials.push(h.join().expect("parallel worker panicked"));
        }
        partials
    });
    for (i, r) in partials.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_variant_sees_correct_indices() {
        let items = vec!["a"; 257];
        let out = par_map_indexed(&items, |i, _| i);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_batches() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn scratch_variant_matches_plain_map_and_reuses_buffers() {
        let items: Vec<usize> = (0..500).collect();
        // Scratch is a reusable buffer; correctness must not depend on it
        // being fresh per item.
        let out = par_map_with(&items, Vec::<usize>::new, |buf, &x| {
            buf.clear();
            buf.extend(0..x % 7);
            x * 2 + buf.len()
        });
        let expected: Vec<usize> = items.iter().map(|&x| x * 2 + x % 7).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn scratch_variant_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_with(&empty, || 0u32, |_, &x| x).is_empty());
        assert_eq!(
            par_map_with(
                &[5u32],
                || 0u32,
                |s, &x| {
                    *s += 1;
                    x + *s
                }
            ),
            vec![6]
        );
    }

    #[test]
    fn uneven_workloads_balance() {
        // Items with wildly different costs still all complete.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            if x % 7 == 0 {
                (0..10_000u64).fold(x, |a, b| a.wrapping_add(b))
            } else {
                x
            }
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[1], 1);
    }

    /// The thread that calls is one of the workers: some item runs on it
    /// (with one core every item does), and order holds all the same.
    #[test]
    fn the_caller_is_a_worker_and_order_is_kept() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..4096).collect();
        let on_caller = AtomicUsize::new(0);
        let out = par_map_indexed(&items, |i, &x| {
            if std::thread::current().id() == caller {
                on_caller.fetch_add(1, Ordering::Relaxed);
            }
            (i, x * 3)
        });
        let expected: Vec<(usize, usize)> = items.iter().map(|&x| (x, x * 3)).collect();
        assert_eq!(out, expected);
        assert!(on_caller.load(Ordering::Relaxed) > 0, "the caller sat idle");
    }

    /// A panic propagates whether the item fell to the caller's share or
    /// to a helper's: every item panics, so both shares do.
    #[test]
    fn a_panic_in_any_share_reaches_the_caller() {
        for variant in 0..3 {
            let items: Vec<usize> = (0..64).collect();
            let unwound = std::panic::catch_unwind(|| match variant {
                0 => par_map(&items, |_| -> usize { panic!("every share") }),
                1 => par_map_with(&items, || 0usize, |_, _| -> usize { panic!("every share") }),
                _ => par_map_indexed(&items, |_, _| -> usize { panic!("every share") }),
            });
            assert!(unwound.is_err(), "variant {variant} swallowed the panic");
        }
        // One poisoned item, wherever it lands.
        let items: Vec<usize> = (0..512).collect();
        let unwound = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                assert!(x != 300, "item 300");
                x
            })
        });
        assert!(unwound.is_err());
    }
}
