//! The admission queue: coalesces queries submitted concurrently by
//! many riders into single combined passes.
//!
//! Riders ([`Admission::submit`]) enqueue their queries and block for
//! their reply; a small pool of drain threads ([`Admission::run`]) waits
//! for the first rider, lingers a bounded microsecond-scale window so
//! concurrent arrivals can join, takes whole submissions up to
//! `max_queries`, runs them as **one** heterogeneous [`QueryBatch`]
//! through the caller's `pass`, and routes each rider its reply. The
//! single-process [`Server`](crate::Server) runs an engine pass and
//! replies with result slices; the
//! [`SharedCoordinator`](crate::SharedCoordinator) runs a distributed
//! fan-out round and replies with per-rider responses — the queue is the
//! same.
//!
//! A pass that panics costs its own riders their reply
//! ([`Refused::PassFailed`]) and nothing else: the unwind stops at the
//! drain loop, which goes on to serve the next riders.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use traj_query::{Query, QueryBatch};

/// Admission tuning.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum queries coalesced into one pass. Whole submissions are
    /// never split, so one oversized submission still executes alone.
    pub max_queries: usize,
    /// How long a drain thread waits for more queries to arrive after
    /// the first one. Microsecond-scale: bounds added latency while
    /// letting genuinely concurrent arrivals coalesce.
    pub linger: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_queries: 256,
            linger: Duration::from_micros(100),
        }
    }
}

/// Why a submission came back without a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// The queue was closed before the submission could join it.
    Closed,
    /// The pass the submission rode in panicked. The queue is still
    /// serving; only that pass's riders are refused.
    PassFailed,
}

/// One rider waiting for a pass: its queries and the channel its reply
/// goes back on.
struct Job<R> {
    queries: Vec<Query>,
    reply: SyncSender<R>,
}

struct QueueState<R> {
    jobs: VecDeque<Job<R>>,
    queued_queries: usize,
    closed: bool,
}

/// An admission queue whose riders each receive an `R`.
pub(crate) struct Admission<R> {
    queue: Mutex<QueueState<R>>,
    available: Condvar,
}

impl<R> Admission<R> {
    pub(crate) fn new() -> Self {
        Admission {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                queued_queries: 0,
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues `queries` and blocks until their pass replies — or is
    /// [`Refused`].
    pub(crate) fn submit(&self, queries: Vec<Query>) -> Result<R, Refused> {
        let (tx, rx) = sync_channel(1);
        {
            let mut q = self.queue.lock().expect("queue lock");
            if q.closed {
                return Err(Refused::Closed);
            }
            q.queued_queries += queries.len();
            q.jobs.push_back(Job { queries, reply: tx });
        }
        self.available.notify_one();
        // Everything queued gets a pass; a sender dropped unanswered is a
        // pass that unwound.
        rx.recv().map_err(|_| Refused::PassFailed)
    }

    /// Closes the queue: later submissions are refused, and every
    /// [`Admission::run`] loop returns once the riders already queued
    /// are served.
    pub(crate) fn close(&self) {
        self.queue.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }

    /// The drain loop, until the queue is closed and empty: wait for a
    /// rider, linger so concurrent arrivals coalesce, take whole
    /// submissions up to the batch bound, and run them as one combined
    /// batch. `pass` receives the batch and each rider's query count
    /// (in batch order) and returns one reply per rider. A `pass` that
    /// panics refuses its riders and the loop goes on.
    pub(crate) fn run(&self, cfg: BatchConfig, pass: impl Fn(&QueryBatch, &[usize]) -> Vec<R>) {
        let max_queries = cfg.max_queries.max(1);
        loop {
            let jobs = {
                let mut q = self.queue.lock().expect("queue lock");
                while q.jobs.is_empty() {
                    if q.closed {
                        return;
                    }
                    q = self.available.wait(q).expect("queue lock");
                }
                if !cfg.linger.is_zero() {
                    let deadline = Instant::now() + cfg.linger;
                    while q.queued_queries < max_queries && !q.closed {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        let (guard, _timeout) = self
                            .available
                            .wait_timeout(q, deadline - now)
                            .expect("queue lock");
                        q = guard;
                    }
                }
                // Take whole submissions up to the batch bound (always
                // at least one, so an oversized one still rides — alone).
                let mut jobs: Vec<Job<R>> = Vec::new();
                let mut taken = 0usize;
                while let Some(job) = q.jobs.front() {
                    if !jobs.is_empty() && taken + job.queries.len() > max_queries {
                        break;
                    }
                    taken += job.queries.len();
                    jobs.push(q.jobs.pop_front().expect("front checked"));
                }
                q.queued_queries -= taken;
                jobs
            };
            if jobs.is_empty() {
                // Another drain thread took the rider we woke for.
                continue;
            }

            let lens: Vec<usize> = jobs.iter().map(|j| j.queries.len()).collect();
            let mut combined: Vec<Query> = Vec::with_capacity(lens.iter().sum());
            let mut riders = Vec::with_capacity(jobs.len());
            for job in jobs {
                combined.extend(job.queries);
                riders.push(job.reply);
            }
            let batch = QueryBatch::from_queries(combined);
            // The unwind stops here, or every later rider would park
            // behind a dead drain thread. `pass` only reads what it shares
            // with later passes, so they see nothing half-updated.
            let Ok(replies) = catch_unwind(AssertUnwindSafe(|| pass(&batch, &lens))) else {
                // Dropping `riders` unanswered is what refuses them.
                continue;
            };
            for (rider, reply) in riders.into_iter().zip(replies) {
                // A rider that gave up (its connection died) is fine.
                let _ = rider.send(reply);
            }
        }
    }
}

/// Cuts a combined pass's results back into per-rider slices of the
/// given lengths, in order.
pub(crate) fn split<T>(results: Vec<T>, lens: &[usize]) -> Vec<Vec<T>> {
    let mut results = results.into_iter();
    lens.iter()
        .map(|&len| results.by_ref().take(len).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use trajectory::Cube;

    /// A pass that panics on a marked batch refuses that batch's rider,
    /// the same drain thread answers the next one, and the loop still
    /// returns when the queue closes. Every wait has a deadline: a dead
    /// drain thread shows as a failure, not a hang.
    #[test]
    fn a_panicking_pass_refuses_its_riders_and_the_drain_thread_lives_on() {
        const DEADLINE: Duration = Duration::from_secs(10);
        let cube = Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0);
        let (marked, plain) = (Query::Range(cube), Query::RangeKept(cube));
        let admission = Arc::new(Admission::<usize>::new());

        let (drained_tx, drained) = channel();
        let drain = {
            let (admission, marked) = (Arc::clone(&admission), marked.clone());
            std::thread::spawn(move || {
                let cfg = BatchConfig {
                    max_queries: 1,
                    linger: Duration::ZERO,
                };
                admission.run(cfg, |batch, lens| {
                    assert!(batch.queries()[0] != marked, "a marked batch");
                    lens.to_vec()
                });
                let _ = drained_tx.send(());
            })
        };
        let ride = |queries: Vec<Query>| {
            let (tx, rx) = channel();
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || tx.send(admission.submit(queries)));
            rx.recv_timeout(DEADLINE).expect("answered or refused")
        };

        assert_eq!(ride(vec![marked.clone()]), Err(Refused::PassFailed));
        assert_eq!(ride(vec![plain.clone(), marked]), Ok(2));
        admission.close();
        assert_eq!(ride(vec![plain]), Err(Refused::Closed));
        drained
            .recv_timeout(DEADLINE)
            .expect("the drain loop returns");
        drain
            .join()
            .expect("the drain thread did not die of the panic");
    }
}
