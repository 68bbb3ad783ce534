//! The admission queue: coalesces queries submitted concurrently by
//! many riders into single combined passes, and owns no thread. Riders
//! ([`Admission::submit`]) queue their queries; one of them, the
//! **leader**, runs the pass on its own thread and hands every
//! **follower** its reply. The [`Server`](crate::Server) runs an engine
//! pass and replies with result slices, the
//! [`SharedCoordinator`](crate::SharedCoordinator) a fan-out round and
//! per-rider responses — the queue is the same. Its rules
//! (`docs/ARCHITECTURE.md`, "A request, hop by hop", argues them):
//!
//! 1. The oldest waiting rider is promoted to leader whenever fewer than
//!    `executors` leaders exist and none of them is still gathering. A
//!    lone rider leads at once: two uncontended locks, no wake-up.
//! 2. A leader lingers only while fewer than `max_queries` queries are
//!    queued, the queue is open, a peer is absent and the window — which
//!    opens when the previous pass ends and lasts `linger` — is open.
//! 3. It takes whole submissions, its own first, up to `max_queries`.
//! 4. Whoever is queued gets a reply: a leader leaving promotes the
//!    oldest rider waiting, closed queue or not, and a pass that panics
//!    costs its own riders their reply ([`Refused::PassFailed`]) only.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use traj_query::{Query, QueryBatch};

/// Admission tuning.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum queries coalesced into one pass. Whole submissions are
    /// never split, so one oversized submission still executes alone.
    pub max_queries: usize,
    /// How long after the previous pass a new one may wait for more
    /// queries to arrive. Microsecond-scale: bounds added latency while
    /// letting genuinely concurrent arrivals coalesce. A server waits
    /// only for connections that have queried before and are not queued
    /// already, so a lone client never pays it.
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

/// What a parked rider wakes up to.
enum Turn<R> {
    /// It is the oldest rider and a pass may start: lead it.
    Lead,
    /// Its pass ran (or unwound) on another rider's thread.
    Reply(Result<R, Refused>),
}

/// Where one rider parks until it is called.
struct Seat<R> {
    turn: Mutex<Option<Turn<R>>>,
    called: Condvar,
}

impl<R> Seat<R> {
    fn call(&self, turn: Turn<R>) {
        *self.turn.lock().expect("seat lock") = Some(turn);
        self.called.notify_one();
    }

    fn wait(&self) -> Turn<R> {
        let mut turn = self.turn.lock().expect("seat lock");
        loop {
            if let Some(turn) = turn.take() {
                return turn;
            }
            turn = self.called.wait(turn).expect("seat lock");
        }
    }
}

/// One queued submission: its queries and its rider's seat.
struct Rider<R> {
    queries: Vec<Query>,
    seat: Arc<Seat<R>>,
}

struct State<R> {
    waiting: VecDeque<Rider<R>>,
    queued_queries: usize,
    /// Riders promoted and not yet out of their pass.
    leaders: usize,
    /// One of them has not taken its batch yet: arrivals join it.
    gathering: bool,
    /// Riders inside running passes. They cannot arrive before their
    /// pass ends, so nobody lingers for them.
    riding: usize,
    /// Registered peers; `None` when callers are anonymous threads, of
    /// which one more may always arrive.
    peers: Option<usize>,
    /// When the last pass ended and set its riders free to come back
    /// (known peers only): the next linger window opens here.
    released: Option<Instant>,
    closed: bool,
}

/// An admission queue whose riders each receive an `R`.
pub(crate) struct Admission<R> {
    cfg: BatchConfig,
    executors: usize,
    state: Mutex<State<R>>,
    /// Tells the gathering leader to look again: a rider arrived, a peer
    /// left, the queue closed.
    arrived: Condvar,
}

/// A registered peer of an [`Admission`]; leaves when dropped.
pub(crate) struct Peer<'a, R>(&'a Admission<R>);

impl<R> Drop for Peer<'_, R> {
    fn drop(&mut self) {
        let Ok(mut s) = self.0.state.lock() else {
            return;
        };
        s.peers = s.peers.map(|p| p - 1);
        self.0.arrived.notify_all();
    }
}

impl<R> Admission<R> {
    /// A queue running up to `executors` passes at once (at least one).
    /// With `known_peers`, callers register ([`Admission::join`]) before
    /// they submit and a pass lingers for them alone; without, for anyone.
    pub(crate) fn new(cfg: BatchConfig, executors: usize, known_peers: bool) -> Self {
        Admission {
            cfg,
            executors: executors.max(1),
            state: Mutex::new(State {
                waiting: VecDeque::new(),
                queued_queries: 0,
                leaders: 0,
                gathering: false,
                riding: 0,
                peers: known_peers.then_some(0),
                released: None,
                closed: false,
            }),
            arrived: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<R>> {
        self.state.lock().expect("queue lock")
    }

    /// Registers the caller as a peer until the guard drops.
    pub(crate) fn join(&self) -> Peer<'_, R> {
        let mut s = self.lock();
        s.peers = s.peers.map(|p| p + 1);
        Peer(self)
    }

    /// Closes the queue: later submissions are refused, riders already
    /// queued still served.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.arrived.notify_all();
    }

    /// Queues `queries` and blocks until their pass replies — or is
    /// [`Refused`]. If the caller becomes the leader the pass is `pass`,
    /// on this thread: it receives the combined batch and each rider's
    /// query count (in batch order) and returns one reply per rider.
    pub(crate) fn submit(
        &self,
        queries: Vec<Query>,
        pass: impl FnOnce(&QueryBatch, &[usize]) -> Vec<R>,
    ) -> Result<R, Refused> {
        let seat = Arc::new(Seat {
            turn: Mutex::new(None),
            called: Condvar::new(),
        });
        {
            let mut s = self.lock();
            if s.closed {
                return Err(Refused::Closed);
            }
            if s.gathering {
                self.arrived.notify_all();
            }
            s.queued_queries += queries.len();
            s.waiting.push_back(Rider {
                queries,
                seat: Arc::clone(&seat),
            });
            self.promote(&mut s);
        }
        match seat.wait() {
            Turn::Reply(reply) => reply,
            Turn::Lead => self.lead(pass),
        }
    }

    /// Calls the oldest waiting rider to the lead if a pass may start and
    /// nobody is gathering.
    fn promote(&self, s: &mut State<R>) {
        if s.gathering || s.leaders >= self.executors {
            return;
        }
        if let Some(next) = s.waiting.front() {
            s.leaders += 1;
            s.gathering = true;
            next.seat.call(Turn::Lead);
        }
    }

    /// The leader's part: gather, run the pass here, answer the
    /// followers, hand the lead on. Returns the leader's own reply.
    fn lead(&self, pass: impl FnOnce(&QueryBatch, &[usize]) -> Vec<R>) -> Result<R, Refused> {
        let riders = self.gather();
        let lens: Vec<usize> = riders.iter().map(|r| r.queries.len()).collect();
        let mut combined = Vec::with_capacity(lens.iter().sum());
        let mut seats = Vec::with_capacity(lens.len());
        for rider in riders {
            combined.extend(rider.queries);
            seats.push(rider.seat);
        }
        let batch = QueryBatch::from_queries(combined);
        // The unwind stops here, or the riders behind this pass would park
        // for ever. `pass` only reads what it shares with later passes,
        // so they see nothing half-updated.
        let replies = catch_unwind(AssertUnwindSafe(|| pass(&batch, &lens)));
        {
            let mut s = self.lock();
            s.leaders -= 1;
            s.riding -= lens.len();
            s.released = s.peers.map(|_| Instant::now());
            self.promote(&mut s);
        }
        // A reply the pass did not produce — it unwound, or came back
        // short — is a refusal, never a rider left parked.
        let mut replies = replies.unwrap_or_default().into_iter();
        let mut reply = || replies.next().ok_or(Refused::PassFailed);
        // The leader is the oldest rider and alone takes from the queue:
        // the first reply is its own, and it takes it by hand.
        let own = reply();
        for seat in &seats[1..] {
            seat.call(Turn::Reply(reply()));
        }
        own
    }

    /// Lingers, takes whole submissions up to the batch bound (always the
    /// first, so an oversized one still rides — alone), and lets the next
    /// leader gather what is left.
    fn gather(&self) -> Vec<Rider<R>> {
        let max_queries = self.cfg.max_queries.max(1);
        let mut s = self.lock();
        let mut deadline = None;
        // A peer queued or riding is not absent.
        let absent = |s: &State<R>| s.peers.is_none_or(|p| s.waiting.len() + s.riding < p);
        while s.queued_queries < max_queries && !s.closed && absent(&s) {
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(s.released.unwrap_or(now) + self.cfg.linger);
            if now >= deadline {
                break;
            }
            (s, _) = self
                .arrived
                .wait_timeout(s, deadline - now)
                .expect("queue lock");
        }
        let mut riders: Vec<Rider<R>> = Vec::new();
        let mut taken = 0usize;
        while let Some(rider) = s.waiting.front() {
            if !riders.is_empty() && taken + rider.queries.len() > max_queries {
                break;
            }
            taken += rider.queries.len();
            riders.push(s.waiting.pop_front().expect("front checked"));
        }
        s.queued_queries -= taken;
        s.riding += riders.len();
        s.gathering = false;
        self.promote(&mut s);
        riders
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, Receiver};
    use trajectory::Cube;

    /// Every wait in this module ends here: a lost wake-up is a failure,
    /// not a hang. Lingers meant *not* to run out are set well above it.
    const DEADLINE: Duration = Duration::from_secs(10);
    const NEVER: Duration = Duration::from_secs(120);

    type Reply = Result<Vec<Query>, Refused>;

    /// Query `i` of rider `rider` — every rider's queries are its own.
    fn query(rider: usize, i: usize) -> Query {
        Query::Range(Cube::new(
            rider as f64,
            rider as f64 + 1.0,
            i as f64,
            i as f64 + 1.0,
            0.0,
            1.0,
        ))
    }

    fn queries(rider: usize, n: usize) -> Vec<Query> {
        (0..n).map(|i| query(rider, i)).collect()
    }

    /// The pass of these tests: every rider is replied its own queries
    /// back, cut from the combined batch the way a server cuts results.
    fn echo(batch: &QueryBatch, lens: &[usize]) -> Vec<Vec<Query>> {
        split(batch.queries().to_vec(), lens)
    }

    fn config(max_queries: usize, linger: Duration) -> BatchConfig {
        BatchConfig {
            max_queries,
            linger,
        }
    }

    /// Submits on a thread of its own; the reply comes back on a channel
    /// so the test can put a deadline on it.
    fn ride<P>(
        admission: &Arc<Admission<Vec<Query>>>,
        queries: Vec<Query>,
        pass: P,
    ) -> Receiver<Reply>
    where
        P: FnOnce(&QueryBatch, &[usize]) -> Vec<Vec<Query>> + Send + 'static,
    {
        let (tx, rx) = channel();
        let admission = Arc::clone(admission);
        std::thread::spawn(move || tx.send(admission.submit(queries, pass)));
        rx
    }

    fn answer(rx: &Receiver<Reply>) -> Reply {
        rx.recv_timeout(DEADLINE)
            .expect("answered or refused in time")
    }

    /// Spins (under the deadline) until the queue's state satisfies `f`:
    /// how a test forces "B arrives while A gathers" without sleeping.
    fn wait_until<R>(admission: &Admission<R>, what: &str, f: impl Fn(&State<R>) -> bool) {
        let start = Instant::now();
        while !f(&admission.lock()) {
            assert!(start.elapsed() < DEADLINE, "never happened: {what}");
            std::thread::yield_now();
        }
    }

    /// A pass that counts itself, then echoes.
    fn counted(passes: &Arc<AtomicUsize>) -> impl FnOnce(&QueryBatch, &[usize]) -> Vec<Vec<Query>> {
        let passes = Arc::clone(passes);
        move |batch, lens| {
            passes.fetch_add(1, Ordering::SeqCst);
            echo(batch, lens)
        }
    }

    /// Rule 2 for the lone client: no peer is absent, so a window of two
    /// minutes costs nothing. (The drain thread of the parent lingered
    /// it out in full.)
    #[test]
    fn a_lone_peer_is_answered_without_lingering() {
        let admission = Arc::new(Admission::new(config(256, NEVER), 1, true));
        let _me = admission.join();
        for round in 0..3 {
            let started = Instant::now();
            let reply = answer(&ride(&admission, queries(round, 4), echo));
            assert_eq!(reply, Ok(queries(round, 4)));
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "the lone peer lingered"
            );
        }
    }

    /// Rule 2 for two peers: the first to arrive leads, finds the other
    /// absent and waits — it is the arrival that ends the wait, not the
    /// window — and both ride one pass.
    #[test]
    fn a_leader_waits_for_its_absent_peer_and_both_ride_one_pass() {
        let admission = Arc::new(Admission::new(config(256, NEVER), 1, true));
        let (_a, _b) = (admission.join(), admission.join());
        let passes = Arc::new(AtomicUsize::new(0));
        let first = ride(&admission, queries(0, 2), counted(&passes));
        wait_until(&admission, "the first rider gathers", |s| s.gathering);
        assert!(
            first.try_recv().is_err(),
            "the leader did not wait for its peer"
        );
        let second = ride(&admission, queries(1, 3), counted(&passes));
        assert_eq!(answer(&first), Ok(queries(0, 2)));
        assert_eq!(answer(&second), Ok(queries(1, 3)));
        assert_eq!(passes.load(Ordering::SeqCst), 1, "they rode apart");
    }

    /// Rule 2 again: a leader that finds every peer queued starts at
    /// once. Two peers queue behind a running pass whose rider then
    /// leaves for good; the one promoted has nobody to wait for.
    #[test]
    fn a_leader_whose_peers_are_all_queued_does_not_wait() {
        let admission = Arc::new(Admission::new(config(256, NEVER), 1, true));
        let leaving = admission.join();
        let (release, released) = channel::<()>();
        let blocker = ride(&admission, queries(9, 1), move |batch, lens| {
            released.recv_timeout(DEADLINE).expect("released");
            echo(batch, lens)
        });
        wait_until(&admission, "the blocker's pass runs", |s| s.riding == 1);
        let (_a, _b) = (admission.join(), admission.join());
        let passes = Arc::new(AtomicUsize::new(0));
        let a = ride(&admission, queries(0, 1), counted(&passes));
        let b = ride(&admission, queries(1, 1), counted(&passes));
        wait_until(&admission, "both peers are queued", |s| {
            s.waiting.len() == 2
        });
        drop(leaving);
        let started = Instant::now();
        release.send(()).expect("blocker alive");
        assert_eq!(answer(&blocker), Ok(queries(9, 1)));
        assert_eq!(answer(&a), Ok(queries(0, 1)));
        assert_eq!(answer(&b), Ok(queries(1, 1)));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "someone lingered"
        );
        assert_eq!(
            passes.load(Ordering::SeqCst),
            1,
            "the queued peers rode apart"
        );
    }

    /// Rule 2's window: it opens when the previous pass ends. A peer back
    /// within it is waited for; one that stayed away longer is idle, and
    /// the lone request beside it is answered at once — in well under the
    /// window, that is.
    #[test]
    fn the_window_opens_when_the_previous_pass_ends() {
        let window = Duration::from_millis(400);
        let admission = Arc::new(Admission::new(config(256, window), 1, true));
        let (_a, _b) = (admission.join(), admission.join());
        let passes = Arc::new(AtomicUsize::new(0));
        for round in 0..2 {
            // Straight after a pass (or before any) the other peer is due.
            let a = ride(&admission, queries(0, 1), counted(&passes));
            wait_until(&admission, "the first back gathers", |s| s.gathering);
            let b = ride(&admission, queries(1, 1), counted(&passes));
            assert_eq!(answer(&a), Ok(queries(0, 1)));
            assert_eq!(answer(&b), Ok(queries(1, 1)));
            assert_eq!(passes.load(Ordering::SeqCst), round + 1, "they rode apart");
        }
        // This sleep forces no interleaving; it lets the window run out.
        std::thread::sleep(window + Duration::from_millis(50));
        let started = Instant::now();
        assert_eq!(
            answer(&ride(&admission, queries(0, 1), echo)),
            Ok(queries(0, 1))
        );
        assert!(
            started.elapsed() < window / 2,
            "an idle peer was waited for"
        );
    }

    /// A caller that never joins — for a server, an ingest-only writer or
    /// a coordinator's shard connection — is nobody's peer: passes do not
    /// wait for it however long it stays.
    #[test]
    fn a_caller_that_never_joins_is_never_waited_for() {
        let admission = Arc::new(Admission::new(config(256, NEVER), 1, true));
        let _reader = admission.join();
        // The "writer" holds the queue for the whole test and never joins.
        let _writer = Arc::clone(&admission);
        let started = Instant::now();
        assert_eq!(
            answer(&ride(&admission, queries(0, 2), echo)),
            Ok(queries(0, 2))
        );
        assert!(started.elapsed() < Duration::from_secs(1));
        // Anonymous callers are the other way round: one more is always
        // expected, so the window is spent (and bounds the wait).
        let anonymous = Arc::new(Admission::new(
            config(256, Duration::from_millis(30)),
            1,
            false,
        ));
        let started = Instant::now();
        assert_eq!(
            answer(&ride(&anonymous, queries(0, 2), echo)),
            Ok(queries(0, 2))
        );
        assert!(
            started.elapsed() >= Duration::from_millis(30),
            "the window was cut short"
        );
    }

    /// Rules 1, 3 and 4 under load: rider threads with pseudo-random
    /// submission sizes (empty and oversized ones included) against small
    /// batch bounds, one and two executors, known and anonymous callers.
    /// Every rider gets exactly its own queries back in order; no pass
    /// exceeds the bound unless it is one oversized submission alone; no
    /// more than `executors` passes run at once.
    #[test]
    fn riders_get_their_own_replies_within_the_batch_and_executor_bounds() {
        const RIDERS: usize = 6;
        const ROUNDS: usize = 40;
        for (max_queries, executors, known) in [
            (1, 1, true),
            (4, 1, true),
            (4, 2, true),
            (7, 2, false),
            (64, 2, true),
            (5, 1, false),
        ] {
            let linger = Duration::from_micros(200);
            let admission = Arc::new(Admission::new(
                config(max_queries, linger),
                executors,
                known,
            ));
            let running = Arc::new(AtomicUsize::new(0));
            let most = Arc::new(AtomicUsize::new(0));
            let (done, finished) = channel();
            for rider in 0..RIDERS {
                let (admission, running, most) = (
                    Arc::clone(&admission),
                    Arc::clone(&running),
                    Arc::clone(&most),
                );
                let done = done.clone();
                std::thread::spawn(move || {
                    let _peer = known.then(|| admission.join());
                    let mut state = rider as u64 * 0x9E37_79B9 + 1;
                    for round in 0..ROUNDS {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        let n = (state >> 33) as usize % (max_queries + 3);
                        let mine = queries(rider * ROUNDS + round, n);
                        let reply = admission.submit(mine.clone(), |batch, lens| {
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            most.fetch_max(now, Ordering::SeqCst);
                            assert_eq!(batch.len(), lens.iter().sum::<usize>());
                            assert!(
                                batch.len() <= max_queries || lens.len() == 1,
                                "a pass of {lens:?} under a bound of {max_queries}"
                            );
                            std::thread::yield_now();
                            running.fetch_sub(1, Ordering::SeqCst);
                            echo(batch, lens)
                        });
                        assert_eq!(reply, Ok(mine), "rider {rider} round {round}");
                    }
                    let _ = done.send(rider);
                });
            }
            drop(done);
            for _ in 0..RIDERS {
                finished
                    .recv_timeout(DEADLINE)
                    .expect("a rider parked for ever, or a pass broke a rule");
            }
            let most = most.load(Ordering::SeqCst);
            assert!(
                most <= executors,
                "{most} passes at once under {executors} executors"
            );
            let s = admission.lock();
            assert!(s.waiting.is_empty() && s.queued_queries == 0);
            assert_eq!((s.leaders, s.riding, s.gathering), (0, 0, false));
        }
    }

    /// A pass that panics refuses its leader and its followers alike, and
    /// the next rider is answered: the lead was handed on all the same.
    #[test]
    fn a_panicking_pass_refuses_its_riders_and_the_queue_lives_on() {
        let admission = Arc::new(Admission::new(config(256, NEVER), 1, true));
        let (_a, _b) = (admission.join(), admission.join());
        let boom = |_: &QueryBatch, _: &[usize]| -> Vec<Vec<Query>> { panic!("a marked batch") };
        let leader = ride(&admission, queries(0, 1), boom);
        wait_until(&admission, "the leader gathers", |s| s.gathering);
        let follower = ride(&admission, queries(1, 2), echo);
        assert_eq!(answer(&leader), Err(Refused::PassFailed));
        assert_eq!(answer(&follower), Err(Refused::PassFailed));

        let next = ride(&admission, queries(2, 2), echo);
        wait_until(&admission, "the next leader gathers", |s| s.gathering);
        let with_it = ride(&admission, queries(3, 1), echo);
        assert_eq!(answer(&next), Ok(queries(2, 2)));
        assert_eq!(answer(&with_it), Ok(queries(3, 1)));
        // A pass that comes back short refuses whoever it left out.
        let short = ride(&admission, queries(4, 1), |_, _| vec![]);
        wait_until(&admission, "the short pass's leader gathers", |s| {
            s.gathering
        });
        let left_out = ride(&admission, queries(5, 1), echo);
        assert_eq!(answer(&short), Err(Refused::PassFailed));
        assert_eq!(answer(&left_out), Err(Refused::PassFailed));
    }

    /// Rule 4: closing with riders queued behind a running pass refuses
    /// newcomers, answers everyone queued, and cuts a linger short.
    #[test]
    fn closing_answers_the_queued_and_refuses_the_rest() {
        let admission = Arc::new(Admission::new(config(2, Duration::ZERO), 1, false));
        let (release, released) = channel::<()>();
        let blocker = ride(&admission, queries(9, 1), move |batch, lens| {
            released.recv_timeout(DEADLINE).expect("released");
            echo(batch, lens)
        });
        wait_until(&admission, "the blocker's pass runs", |s| s.riding == 1);
        let queued: Vec<_> = (0..5)
            .map(|r| ride(&admission, queries(r, 1), echo))
            .collect();
        wait_until(&admission, "five riders are queued", |s| {
            s.waiting.len() == 5
        });
        admission.close();
        assert_eq!(
            answer(&ride(&admission, queries(7, 1), echo)),
            Err(Refused::Closed)
        );
        release.send(()).expect("blocker alive");
        assert_eq!(answer(&blocker), Ok(queries(9, 1)));
        for (r, rx) in queued.iter().enumerate() {
            assert_eq!(answer(rx), Ok(queries(r, 1)), "queued rider {r}");
        }

        // A leader lingering for an absent peer stops when the queue
        // closes, and is still answered.
        let admission = Arc::new(Admission::new(config(256, NEVER), 1, true));
        let (_a, _b) = (admission.join(), admission.join());
        let waiting = ride(&admission, queries(0, 1), echo);
        wait_until(&admission, "the leader gathers", |s| s.gathering);
        admission.close();
        assert_eq!(answer(&waiting), Ok(queries(0, 1)));
        // So does one whose peer leaves instead of arriving.
        let admission = Arc::new(Admission::new(config(256, NEVER), 1, true));
        let (_a, b) = (admission.join(), admission.join());
        let waiting = ride(&admission, queries(0, 1), echo);
        wait_until(&admission, "the leader gathers", |s| s.gathering);
        drop(b);
        assert_eq!(answer(&waiting), Ok(queries(0, 1)));
    }
}
