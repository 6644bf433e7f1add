//! **Continuous admission** onto persistent workers, in LPT order.
//!
//! Every job enters through `Queue::admit`, which prepares it once
//! (elaboration, export and the cache key of each requested flow, see
//! [`crate::job`]) and sends it down one of three paths:
//!
//! * **All flows hit** the cache: the job is answered on the spot,
//!   `cached: true`, without waiting for anything queued before it.
//! * **An identical key set is already queued or running**: the job becomes
//!   a *follower* in the [`JobRunner`]'s single-flight table, which spans
//!   every connection and batch sharing the runner. When the leader
//!   finishes, each follower is admitted again — and now answers from the
//!   cache exactly as a hit would (byte-identical reports), unless the
//!   leader stored nothing (a degraded budget report, an error, a failed
//!   store), in which case one follower leads the next run.
//! * **Otherwise** the job is queued in order of descending
//!   [`cost_estimate`] (ties in admission order), so among queued jobs the
//!   claim sequence is the classic Longest-Processing-Time-first greedy
//!   assignment: whenever a worker frees up, it takes the most expensive job
//!   still queued. LPT's makespan is within 4/3 of optimal, and for sweep
//!   workloads (a few deep-pipeline jobs among many shallow ones) it avoids
//!   the worst case of FIFO order: a depth-8 job claimed last, running alone
//!   while every other worker idles.
//!
//! Without a cache nothing is shared: every job is queued and runs cold.
//!
//! Persistent workers (`Queue::run`) claim the queued jobs, run each with
//! panic isolation and bounded retry, and hand each outcome to whoever
//! submitted the job as soon as it is ready — a response never waits for a
//! slower job.
//!
//! Each job's flows run with their *inner* pools pinned to one thread —
//! parallelism lives here, across jobs, so a sweep saturates the workers
//! without oversubscribing the machine.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pipeverify_core::{FlowErrorKind, FlowReport};
use pv_obs::{Counter, Histogram};

use crate::job::{cost_estimate, prepare, JobRunner, Prepared};
use crate::protocol::{JobError, JobRequest, JobResponse};

/// Per-job latency decomposition: time from admission to a worker claiming
/// the job (queue wait — grows when more work arrives than the pool can
/// take) and time actually running it. Together they explain a slow
/// response: high queue wait means not enough workers, high run wall means
/// an expensive job.
static M_JOB_QUEUE_WAIT: Histogram = Histogram::new("server.job.queue_wait_us");
static M_JOB_RUN: Histogram = Histogram::new("server.job.run_us");

/// Jobs re-run after a transient failure (`server.job.retry`). A stream that
/// finishes with retries but no errors means the retry policy absorbed a
/// fault; a high rate means something is structurally wrong.
static M_JOB_RETRY: Counter = Counter::new("server.job.retry");

/// The outcome of one job: a response, or a structured job-level error.
pub type JobOutcome = Result<JobResponse, JobError>;

/// Where a job's outcome goes: called exactly once, on whichever thread
/// answered the job (the admitting thread for cache hits and invalid jobs,
/// a worker otherwise).
pub(crate) type Reply = Box<dyn FnOnce(JobOutcome) + Send>;

/// Total attempts per job: the first run plus up to two retries of
/// *transient* failures (worker panics). Deterministic errors — invalid
/// requests, budget exhaustion, cancellation — never retry.
const MAX_ATTEMPTS: u32 = 3;

/// Base backoff between retry attempts, scaled linearly by attempt number.
/// Long enough to ride out a momentary glitch, short enough that the queue
/// barely notices.
const RETRY_BACKOFF: Duration = Duration::from_millis(25);

/// An admitted job: the request, its prepared design pair, the reports the
/// cache already held for it, and where its answer goes.
pub(crate) struct Ticket {
    job: JobRequest,
    prepared: Prepared,
    stored: Vec<Option<FlowReport>>,
    reply: Reply,
    admitted: Instant,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("id", &self.job.id).finish()
    }
}

/// The queued tickets, keyed so that the first entry is the most expensive
/// (ties: the earliest admitted), and whether the queue has closed.
#[derive(Default)]
struct Pending {
    queued: BTreeMap<(Reverse<u64>, u64), Ticket>,
    next_seq: u64,
    closed: bool,
}

/// The admission queue: the cost-ordered jobs that must run, drained by the
/// workers of [`Queue::run`].
#[derive(Default)]
pub(crate) struct Queue {
    pending: Mutex<Pending>,
    ready: Condvar,
}

impl Queue {
    /// Admits `job`: answers it on the spot (an invalid design, or every
    /// flow already cached), attaches it to an identical in-flight job, or
    /// queues it. `reply` receives the outcome exactly once.
    pub(crate) fn admit(&self, runner: &JobRunner, job: JobRequest, reply: Reply) {
        let admitted = Instant::now();
        let prepared = match std::panic::catch_unwind(AssertUnwindSafe(|| prepare(&job))) {
            Ok(Ok(prepared)) => prepared,
            Ok(Err(error)) => return reply(Err(error)),
            Err(payload) => {
                let (kind, message) = FlowErrorKind::classify_panic(&*payload);
                return reply(Err(JobError { kind, message }));
            }
        };
        let ticket = Ticket {
            job,
            prepared,
            stored: Vec::new(),
            reply,
            admitted,
        };
        if let Some(ticket) = claim(runner, ticket) {
            self.push(ticket);
        }
    }

    fn push(&self, ticket: Ticket) {
        let mut pending = self.pending.lock().expect("queue lock poisoned");
        let seq = pending.next_seq;
        pending.next_seq += 1;
        let cost = cost_estimate(&ticket.job);
        pending.queued.insert((Reverse(cost), seq), ticket);
        self.ready.notify_one();
    }

    /// The most expensive queued ticket; blocks while none is queued and
    /// the queue open, and returns `None` once it is closed and drained.
    fn pop(&self) -> Option<Ticket> {
        let mut pending = self.pending.lock().expect("queue lock poisoned");
        loop {
            if let Some((_, ticket)) = pending.queued.pop_first() {
                return Some(ticket);
            }
            if pending.closed {
                return None;
            }
            pending = self.ready.wait(pending).expect("queue lock poisoned");
        }
    }

    fn close(&self) {
        self.pending.lock().expect("queue lock poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Runs `threads` workers on this queue while `body` runs on the calling
    /// thread; when `body` returns (or unwinds) the queue closes, and the
    /// workers finish every job still queued before this returns.
    pub(crate) fn run<T>(&self, runner: &JobRunner, threads: usize, body: impl FnOnce() -> T) -> T {
        struct CloseOnDrop<'q>(&'q Queue);
        impl Drop for CloseOnDrop<'_> {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|| self.work(runner));
            }
            let _close = CloseOnDrop(self);
            body()
        })
    }

    /// One worker: claims jobs longest-first until the queue closes.
    fn work(&self, runner: &JobRunner) {
        while let Some(ticket) = self.pop() {
            M_JOB_QUEUE_WAIT.record(ticket.admitted.elapsed().as_micros() as u64);
            let outcome = {
                let _span = pv_obs::span("server.job");
                let claimed = Instant::now();
                let outcome = run_with_retry(runner, &ticket);
                M_JOB_RUN.record(claimed.elapsed().as_micros() as u64);
                outcome
            };
            (ticket.reply)(outcome);
            // The leader's reports are stored (or not) by now: every
            // follower answers from the cache or leads the next run.
            let followers = runner
                .in_flight
                .lock()
                .expect("single-flight lock poisoned")
                .remove(&ticket.prepared.keys)
                .unwrap_or_default();
            for follower in followers {
                if let Some(ticket) = claim(runner, follower) {
                    self.push(ticket);
                }
            }
        }
        // Deliver this worker's trace events before the scope joins it.
        pv_obs::flush_thread();
    }
}

/// The single-flight decision for one prepared ticket, made under the
/// runner's single-flight lock so that it cannot race a leader finishing:
/// attach to an in-flight identical key set, answer from the cache, or
/// register as the leader. Returns the ticket when it must be queued.
///
/// A leader stores its reports before it leaves the table, so a ticket that
/// finds no entry here also finds every report its leader stored.
fn claim(runner: &JobRunner, mut ticket: Ticket) -> Option<Ticket> {
    if !runner.caches() {
        ticket.stored = runner.lookup(&ticket.prepared); // all `None`
        return Some(ticket);
    }
    let mut in_flight = runner
        .in_flight
        .lock()
        .expect("single-flight lock poisoned");
    if let Some(followers) = in_flight.get_mut(&ticket.prepared.keys) {
        followers.push(ticket);
        return None;
    }
    ticket.stored = runner.lookup(&ticket.prepared);
    if ticket.stored.iter().all(Option::is_some) {
        drop(in_flight);
        (ticket.reply)(runner.execute(&ticket.job, &ticket.prepared, ticket.stored));
        return None;
    }
    in_flight.insert(ticket.prepared.keys.clone(), Vec::new());
    Some(ticket)
}

/// Runs one ticket with panic isolation and bounded retry: a panicking
/// worker is caught (the queue survives), classified, and — only when the
/// failure is transient — retried with linear backoff. The last error wins.
fn run_with_retry(runner: &JobRunner, ticket: &Ticket) -> JobOutcome {
    let mut last = None;
    for attempt in 1..=MAX_ATTEMPTS {
        let run = || runner.execute(&ticket.job, &ticket.prepared, ticket.stored.clone());
        let error = match std::panic::catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(response)) => return Ok(response),
            Ok(Err(error)) => error,
            Err(payload) => {
                let (kind, message) = FlowErrorKind::classify_panic(&*payload);
                JobError { kind, message }
            }
        };
        let transient = error.kind.is_transient();
        last = Some(error);
        if !transient || attempt == MAX_ATTEMPTS {
            break;
        }
        M_JOB_RETRY.incr();
        std::thread::sleep(RETRY_BACKOFF * attempt);
    }
    Err(last.expect("the attempt loop runs at least once"))
}

/// Runs `jobs` on `threads` workers and returns the outcomes in **input
/// order** (the `pv batch` contract). Every job is admitted before the
/// workers start, so the claim order among the queued jobs is strictly
/// LPT, and duplicates within `jobs` follow their first occurrence.
///
/// `on_done` fires on the calling thread as each job is answered, with the
/// job's input index — for progress logging.
pub fn run_jobs<F>(
    runner: &JobRunner,
    jobs: &[JobRequest],
    threads: usize,
    mut on_done: F,
) -> Vec<JobOutcome>
where
    F: FnMut(usize, &JobOutcome),
{
    let queue = Queue::default();
    let (tx, rx) = mpsc::channel();
    for (index, job) in jobs.iter().enumerate() {
        let tx = tx.clone();
        let reply: Reply = Box::new(move |outcome| {
            // The receiver outlives every ticket: `rx` drains to the end.
            let _ = tx.send((index, outcome));
        });
        queue.admit(runner, job.clone(), reply);
    }
    drop(tx);

    let mut by_input: Vec<Option<JobOutcome>> = (0..jobs.len()).map(|_| None).collect();
    queue.run(runner, threads.min(jobs.len().max(1)), || {
        for (index, outcome) in rx {
            on_done(index, &outcome);
            by_input[index] = Some(outcome);
        }
    });
    by_input
        .into_iter()
        .map(|o| o.expect("every admitted job is answered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use pv_proc::family::FamilyConfig;

    use super::*;
    use crate::protocol::{DesignSpec, FlowKind, PlanSet};

    fn job(id: u64, depth: usize) -> JobRequest {
        JobRequest {
            id,
            design: DesignSpec::Family(FamilyConfig::new(depth, 4, 2, 0).stallable()),
            flows: vec![FlowKind::Beta],
            plans: PlanSet::Explicit(vec!["r\n0".parse().unwrap()]),
            deadline_ms: None,
            node_budget: None,
        }
    }

    #[test]
    fn outcomes_come_back_in_input_order_and_claims_follow_lpt() {
        let runner = JobRunner::new(None);
        // Input order is cheap-first; LPT must claim the deep job first.
        let jobs = vec![job(10, 2), job(11, 3), job(12, 4)];
        let claims = Mutex::new(Vec::new());
        let outcomes = run_jobs(&runner, &jobs, 1, |input_index, _| {
            claims.lock().unwrap().push(input_index);
        });
        assert_eq!(claims.into_inner().unwrap(), vec![2, 1, 0], "LPT order");
        let ids: Vec<u64> = outcomes
            .into_iter()
            .map(|o| o.expect("tiny correct designs verify").id)
            .collect();
        assert_eq!(ids, vec![10, 11, 12], "input order");
    }

    #[test]
    fn job_errors_stay_positional() {
        let runner = JobRunner::new(None);
        let jobs = vec![job(0, 2), job(1, 9), job(2, 2)];
        let outcomes = run_jobs(&runner, &jobs, 2, |_, _| {});
        assert!(outcomes[0].is_ok());
        assert!(outcomes[1].is_err(), "depth 9 is out of range");
        assert_eq!(
            outcomes[1].as_ref().unwrap_err().kind,
            FlowErrorKind::Invalid
        );
        assert!(outcomes[2].is_ok());
    }

    #[test]
    fn a_starved_job_fails_typed_without_taking_down_its_wave() {
        let runner = JobRunner::new(None);
        let mut starved = job(1, 2);
        starved.node_budget = Some(1); // one BDD node: every plan trips it
        let jobs = vec![job(0, 2), starved, job(2, 2)];
        let outcomes = run_jobs(&runner, &jobs, 2, |_, _| {});
        assert!(outcomes[0].is_ok(), "siblings of a starved job complete");
        let err = outcomes[1].as_ref().expect_err("no plan fits in one node");
        assert_eq!(err.kind, FlowErrorKind::NodeBudgetExceeded);
        assert!(outcomes[2].is_ok());
    }
}
