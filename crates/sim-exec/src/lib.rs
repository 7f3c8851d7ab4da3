//! A dependency-free work-stealing job executor for simulation sweeps.
//!
//! Every figure of the SHM evaluation is a (benchmark × design) cross
//! product of completely independent single-threaded simulations, so the
//! sweep parallelizes perfectly.  This crate provides the one abstraction
//! the whole workspace shares for that: [`Executor::map`], which runs a
//! slice of jobs on a bounded pool of scoped threads and reassembles the
//! results **in submission order**, so parallel output is byte-identical
//! to serial output.
//!
//! Design constraints (and how they are met):
//!
//! * **No registry access** — `std` only: `std::thread::scope` workers,
//!   `Mutex<VecDeque>` per-worker job queues with stealing, and mutexed
//!   per-job result slots.
//! * **Deterministic results** — jobs carry their submission index; each
//!   worker writes its result into the job's dedicated slot, so the order
//!   in which jobs *finish* never affects the order results are returned.
//! * **Panic isolation** — each job body runs under
//!   [`std::panic::catch_unwind`]; a panicking job yields a [`JobPanic`]
//!   carrying its index and payload instead of poisoning the whole sweep.
//! * **Opt-out** — the pool width comes from (in priority order) an
//!   explicit `--jobs N` style request, the `SHM_JOBS` environment
//!   variable, then [`std::thread::available_parallelism`].  `SHM_JOBS=1`
//!   forces fully serial execution on the calling thread.
//!
//! The [`arena`] module complements the executor: keyed scratch pools let
//! repeated jobs reuse their per-job working state (bank matrices, event
//! buffers) instead of rebuilding it from the allocator every time.

#![warn(clippy::significant_drop_tightening)]

pub mod arena;

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable overriding the worker-pool width (`1` = serial).
pub const JOBS_ENV: &str = "SHM_JOBS";

/// Environment variable setting the per-job wall-clock budget in
/// milliseconds for [`Executor::run_robust`] (`0` disables the watchdog).
pub const JOB_TIMEOUT_ENV: &str = "SHM_JOB_TIMEOUT_MS";

/// Environment variable setting the sweep-wide retry budget for
/// [`Executor::run_robust`].
pub const JOB_RETRIES_ENV: &str = "SHM_JOB_RETRIES";

/// Process-global cancellation flag, set by the CLI's SIGINT/SIGTERM
/// handler.  An atomic store is all a signal handler may safely do, so the
/// flag lives here and every [`CancelToken`] observes it.
static GLOBAL_CANCEL: AtomicBool = AtomicBool::new(false);

/// Requests cooperative cancellation of every in-progress sweep in the
/// process.  Async-signal-safe: a single atomic store.
pub fn request_cancel() {
    GLOBAL_CANCEL.store(true, Ordering::SeqCst);
}

/// True once [`request_cancel`] has been called.
fn cancel_requested() -> bool {
    GLOBAL_CANCEL.load(Ordering::SeqCst)
}

/// Clears the process-global cancellation flag (start of a fresh sweep).
pub fn reset_cancel() {
    GLOBAL_CANCEL.store(false, Ordering::SeqCst);
}

/// Cooperative cancellation handle for [`Executor::map_cancellable`].
///
/// A token trips either locally (via [`CancelToken::cancel`] — e.g. a
/// deterministic `--crash-after-jobs` test knob) or process-wide (via
/// [`request_cancel`] from a signal handler).  Workers observing a tripped
/// token stop *pulling* new jobs; jobs already running drain to completion,
/// so every recorded result is complete and journals stay valid.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    local: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token (still observes the process-global flag).
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips this token only (other sweeps in the process are unaffected).
    pub fn cancel(&self) {
        self.local.store(true, Ordering::SeqCst);
    }

    /// True when this token or the process-global flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.local.load(Ordering::SeqCst) || cancel_requested()
    }
}

/// A job that panicked: submission index plus the panic payload rendered
/// as text, so the caller can report the failing (benchmark, design) pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// Submission index of the failed job.
    pub index: usize,
    /// Human-readable job description (e.g. `"kmeans under SHM"`), when
    /// the submitting layer supplied one.
    pub label: Option<String>,
    /// Panic payload (`&str`/`String` payloads verbatim, otherwise a
    /// placeholder).
    pub message: String,
}

impl core::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.label {
            Some(label) => write!(
                f,
                "job {} ({}) panicked: {}",
                self.index, label, self.message
            ),
            None => write!(f, "job {} panicked: {}", self.index, self.message),
        }
    }
}

impl std::error::Error for JobPanic {}

/// Per-job outcome: the job's return value, or its captured panic.
pub type JobResult<T> = Result<T, JobPanic>;

/// Renders a panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Interprets a jobs specification (`SHM_JOBS`, `--jobs N`): `Some(n)`
/// for a positive integer, `None` for anything else — zero and garbage
/// both mean "auto" (the caller decides whether that deserves a warning).
pub fn parse_jobs_spec(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Warns (once per process, to keep sweep loops quiet) that a jobs
/// specification was unusable and auto parallelism is in effect.
static BAD_JOBS_WARNING: std::sync::Once = std::sync::Once::new();

fn warn_bad_jobs(source: &str, raw: &str) {
    BAD_JOBS_WARNING.call_once(|| {
        eprintln!(
            "warning: ignoring {source}={raw:?} (expected a positive integer); \
             using auto parallelism"
        );
    });
}

/// Resolves the worker-pool width.
///
/// Priority: `requested` (a CLI `--jobs N`), then the [`JOBS_ENV`]
/// environment variable, then the machine's available parallelism.
/// Zero (from either source) means "auto"; an unparsable [`JOBS_ENV`]
/// also means "auto", with a stderr warning rather than a panic or a
/// silently serial run.
fn effective_jobs(requested: Option<usize>) -> usize {
    let from_env = || match std::env::var(JOBS_ENV) {
        Err(_) => None,
        Ok(raw) => {
            let parsed = parse_jobs_spec(&raw);
            if parsed.is_none() {
                warn_bad_jobs(JOBS_ENV, &raw);
            }
            parsed
        }
    };
    requested
        .filter(|&n| n > 0)
        .or_else(from_env)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A bounded work-stealing thread pool for independent jobs.
///
/// The executor is stateless between calls: every [`Executor::map`] spawns
/// a fresh scope of workers and joins them before returning, so there is
/// no background machinery to shut down and no `'static` bound on jobs.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    jobs: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::from_env()
    }
}

/// The next job for worker `w`: the front of its own queue, else the tail
/// of a neighbour's.  Jobs never enqueue new jobs, so `None` ("every queue
/// empty") is a stable exit condition.
///
/// The own-queue guard is dropped before any neighbour is locked: holding
/// it while stealing lets two idle workers each wait on the other's queue
/// (an ABBA deadlock).
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    let own = queues[w]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .pop_front();
    own.or_else(|| {
        (1..queues.len()).find_map(|d| {
            queues[(w + d) % queues.len()]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_back()
        })
    })
}

impl Executor {
    /// An executor with exactly `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Pool width from `SHM_JOBS` or the machine's available parallelism.
    pub fn from_env() -> Self {
        Self::new(effective_jobs(None))
    }

    /// Pool width from an explicit request, falling back to [`from_env`]
    /// resolution (`Executor::from_request(None) == Executor::from_env()`).
    ///
    /// [`from_env`]: Executor::from_env
    pub fn from_request(requested: Option<usize>) -> Self {
        Self::new(effective_jobs(requested))
    }

    /// Number of workers this executor uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `work(index, &items[index])` for every item and returns the
    /// per-job outcomes in submission order.
    ///
    /// Jobs are dealt round-robin into per-worker queues; an idle worker
    /// steals from the tail of its neighbours' queues.  With one worker
    /// (or one item) everything runs on the calling thread — the panic
    /// capture and result shape are identical, so `--jobs 1` output is the
    /// reference the parallel path must reproduce byte-for-byte.
    pub fn map<I, T, F>(&self, items: &[I], work: F) -> Vec<JobResult<T>>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let workers = self.jobs.min(items.len()).max(1);
        let slots: Vec<Mutex<Option<JobResult<T>>>> =
            (0..items.len()).map(|_| Mutex::new(None)).collect();

        let run_one = |i: usize| {
            let outcome =
                catch_unwind(AssertUnwindSafe(|| work(i, &items[i]))).map_err(|payload| JobPanic {
                    index: i,
                    label: None,
                    message: panic_message(payload),
                });
            // Each index is scheduled exactly once, so the slot is empty.
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        };

        if workers == 1 {
            for i in 0..items.len() {
                run_one(i);
            }
        } else {
            // Deal jobs round-robin so queues start balanced even when job
            // costs correlate with index (heavier benchmarks first).
            let queues: Vec<Mutex<VecDeque<usize>>> =
                (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
            for (i, q) in (0..items.len()).zip((0..workers).cycle()) {
                queues[q].lock().expect("fresh queue").push_back(i);
            }
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let queues = &queues;
                    let run_one = &run_one;
                    scope.spawn(move || {
                        while let Some(i) = next_job(queues, w) {
                            run_one(i);
                        }
                    });
                }
            });
        }

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every job scheduled once")
            })
            .collect()
    }

    /// Like [`map`](Executor::map), but drains instead of finishing when
    /// `token` trips: workers stop *pulling* new jobs once
    /// [`CancelToken::is_cancelled`] turns true, while jobs already running
    /// complete normally.  Jobs never started come back as `None`, in
    /// submission order — the caller can tell exactly which results exist.
    ///
    /// This is the graceful-shutdown primitive: Ctrl-C trips the global
    /// flag, in-flight simulations drain, their results land in the job
    /// journal, and the process exits with a valid journal for `--resume`.
    pub fn map_cancellable<I, T, F>(
        &self,
        items: &[I],
        token: &CancelToken,
        work: F,
    ) -> Vec<Option<JobResult<T>>>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let workers = self.jobs.min(items.len()).max(1);
        let slots: Vec<Mutex<Option<JobResult<T>>>> =
            (0..items.len()).map(|_| Mutex::new(None)).collect();

        let run_one = |i: usize| {
            let outcome =
                catch_unwind(AssertUnwindSafe(|| work(i, &items[i]))).map_err(|payload| JobPanic {
                    index: i,
                    label: None,
                    message: panic_message(payload),
                });
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        };

        if workers == 1 {
            for i in 0..items.len() {
                if token.is_cancelled() {
                    break;
                }
                run_one(i);
            }
        } else {
            let queues: Vec<Mutex<VecDeque<usize>>> =
                (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
            for (i, q) in (0..items.len()).zip((0..workers).cycle()) {
                queues[q].lock().expect("fresh queue").push_back(i);
            }
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let queues = &queues;
                    let run_one = &run_one;
                    scope.spawn(move || loop {
                        if token.is_cancelled() {
                            break;
                        }
                        match next_job(queues, w) {
                            Some(i) => run_one(i),
                            None => break,
                        }
                    });
                }
            });
        }

        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect()
    }

    /// Like [`map`](Executor::map), but turns any captured panic into an
    /// error labelled via `label` (e.g. the failing `(benchmark, design)`
    /// pair) while still returning every successful result.
    ///
    /// # Errors
    ///
    /// Returns a [`SweepError`] listing every panicked job when at least
    /// one job panicked.
    pub fn try_map<I, T, F, L>(&self, items: &[I], label: L, work: F) -> Result<Vec<T>, SweepError>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
        L: Fn(usize, &I) -> String,
    {
        let mut ok = Vec::with_capacity(items.len());
        let mut failed = Vec::new();
        for (i, outcome) in self.map(items, work).into_iter().enumerate() {
            match outcome {
                Ok(v) => ok.push(v),
                Err(mut p) => {
                    let l = label(i, &items[i]);
                    p.label = Some(l.clone());
                    failed.push(LabelledPanic { label: l, panic: p });
                }
            }
        }
        if failed.is_empty() {
            Ok(ok)
        } else {
            Err(SweepError { failed })
        }
    }

    /// Runs every job under a wall-clock watchdog and a bounded retry
    /// budget, always completing the sweep: a hung job is abandoned as a
    /// [`JobOutcome::TimedOut`] while the remaining jobs keep running, so
    /// the caller gets deterministic partial results instead of a wedged
    /// process.
    ///
    /// Mechanics:
    ///
    /// * Jobs run on detached worker threads (hence the `'static` bounds —
    ///   a wedged job cannot be killed, only abandoned, and a scoped thread
    ///   would block the join).  When the watchdog expires a job it sets
    ///   the job's [`JobCtx`] cancel flag — cooperative jobs poll
    ///   [`JobCtx::cancelled`] and bail out; uncooperative ones leak a
    ///   thread that dies with the process — and spawns a replacement
    ///   worker so pending jobs still drain.
    /// * A job whose attempt panics is re-queued exactly once while the
    ///   sweep-wide `retry_budget` lasts (transient-failure recovery);
    ///   its second panic is final.  Timed-out jobs are never retried — a
    ///   wedge is assumed to reproduce.
    /// * Outcomes come back in submission order; a late completion of an
    ///   abandoned attempt is discarded (first verdict wins), so the
    ///   report shape is deterministic given which jobs wedge.
    pub fn run_robust<I, T, F, L>(
        &self,
        items: Vec<I>,
        cfg: RobustConfig,
        label: L,
        work: F,
    ) -> RobustReport<T>
    where
        I: Send + Sync + 'static,
        T: Send + 'static,
        F: Fn(&JobCtx, &I) -> T + Send + Sync + 'static,
        L: Fn(usize, &I) -> String,
    {
        let n = items.len();
        if n == 0 {
            return RobustReport {
                outcomes: Vec::new(),
                retries_used: 0,
            };
        }
        let items = Arc::new(items);
        let work = Arc::new(work);
        let pending: Arc<Mutex<VecDeque<(usize, u32)>>> =
            Arc::new(Mutex::new((0..n).map(|i| (i, 0u32)).collect()));
        let cancels: Arc<Vec<AtomicBool>> =
            Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
        let (tx, rx) = mpsc::channel::<RobustMsg<T>>();

        let spawn_worker = |tx: mpsc::Sender<RobustMsg<T>>| {
            let items = Arc::clone(&items);
            let work = Arc::clone(&work);
            let pending = Arc::clone(&pending);
            let cancels = Arc::clone(&cancels);
            std::thread::spawn(move || loop {
                let job = pending
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_front();
                let Some((i, attempt)) = job else { break };
                let _ = tx.send(RobustMsg::Started { index: i });
                let ctx = JobCtx {
                    index: i,
                    cancels: Arc::clone(&cancels),
                };
                let result =
                    catch_unwind(AssertUnwindSafe(|| work(&ctx, &items[i]))).map_err(panic_message);
                if tx
                    .send(RobustMsg::Finished {
                        index: i,
                        attempt,
                        result,
                    })
                    .is_err()
                {
                    break; // sweep already reported; nobody is listening
                }
            });
        };
        for _ in 0..self.jobs.min(n) {
            spawn_worker(tx.clone());
        }

        let watchdog = (cfg.timeout_ms > 0).then(|| Duration::from_millis(cfg.timeout_ms));
        let mut outcomes: Vec<Option<JobOutcome<T>>> = (0..n).map(|_| None).collect();
        let mut running: HashMap<usize, Instant> = HashMap::new();
        let mut resolved = 0usize;
        let mut budget = cfg.retry_budget;
        let mut retries_used = 0u32;

        while resolved < n {
            // Wake at the earliest running deadline; with no watchdog (or
            // nothing running yet) poll at a coarse interval — `tx` is held
            // here, so the channel can never disconnect under us.
            let wait = match (watchdog, running.values().min()) {
                (Some(_), Some(&deadline)) => deadline.saturating_duration_since(Instant::now()),
                _ => Duration::from_millis(25),
            };
            match rx.recv_timeout(wait) {
                Ok(RobustMsg::Started { index }) => {
                    if outcomes[index].is_none() {
                        if let Some(t) = watchdog {
                            running.insert(index, Instant::now() + t);
                        }
                    }
                }
                Ok(RobustMsg::Finished {
                    index,
                    attempt,
                    result,
                }) => {
                    running.remove(&index);
                    if outcomes[index].is_some() {
                        continue; // abandoned attempt finished late
                    }
                    match result {
                        Ok(v) => {
                            outcomes[index] = Some(JobOutcome::Ok(v));
                            resolved += 1;
                        }
                        Err(_) if attempt == 0 && budget > 0 => {
                            budget -= 1;
                            retries_used += 1;
                            pending
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push_back((index, 1));
                            spawn_worker(tx.clone());
                        }
                        Err(message) => {
                            outcomes[index] = Some(JobOutcome::Panicked(JobPanic {
                                index,
                                label: Some(label(index, &items[index])),
                                message,
                            }));
                            resolved += 1;
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    let expired: Vec<usize> = running
                        .iter()
                        .filter(|&(_, &deadline)| deadline <= now)
                        .map(|(&i, _)| i)
                        .collect();
                    for i in expired {
                        running.remove(&i);
                        cancels[i].store(true, Ordering::Relaxed);
                        outcomes[i] = Some(JobOutcome::TimedOut(JobTimeout {
                            index: i,
                            label: label(i, &items[i]),
                            timeout_ms: cfg.timeout_ms,
                        }));
                        resolved += 1;
                        // The worker on job i may be wedged for good;
                        // replace it so the rest of the queue still drains.
                        spawn_worker(tx.clone());
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }

        RobustReport {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every job resolved"))
                .collect(),
            retries_used,
        }
    }
}

/// Completion-channel messages for [`Executor::run_robust`].
enum RobustMsg<T> {
    Started {
        index: usize,
    },
    Finished {
        index: usize,
        attempt: u32,
        result: Result<T, String>,
    },
}

/// Watchdog and retry policy for [`Executor::run_robust`].  The default is
/// "no watchdog, no retries".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RobustConfig {
    /// Wall-clock budget per job attempt in milliseconds; 0 disables the
    /// watchdog entirely.
    pub timeout_ms: u64,
    /// Total re-runs the whole sweep may spend on panicked jobs.  Each job
    /// is retried at most once, and only while budget remains.
    pub retry_budget: u32,
}

impl RobustConfig {
    /// Policy from [`JOB_TIMEOUT_ENV`] and [`JOB_RETRIES_ENV`], defaulting
    /// to "no watchdog, no retries" when unset or unparsable.
    pub fn from_env() -> Self {
        Self {
            timeout_ms: std::env::var(JOB_TIMEOUT_ENV)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0),
            retry_budget: std::env::var(JOB_RETRIES_ENV)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0),
        }
    }
}

/// Handle passed to [`Executor::run_robust`] jobs for cooperative
/// cancellation.
#[derive(Clone, Debug)]
pub struct JobCtx {
    index: usize,
    cancels: Arc<Vec<AtomicBool>>,
}

impl JobCtx {
    /// Submission index of the job this context belongs to.
    pub fn index(&self) -> usize {
        self.index
    }

    /// True once the watchdog has abandoned this attempt.  Long-running
    /// jobs should poll this and return early; the value they return is
    /// discarded.
    pub fn cancelled(&self) -> bool {
        self.cancels[self.index].load(Ordering::Relaxed)
    }
}

/// A job that exceeded its wall-clock budget and was abandoned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobTimeout {
    /// Submission index of the abandoned job.
    pub index: usize,
    /// Human-readable job description (e.g. `"kmeans under SHM"`).
    pub label: String,
    /// The budget that was exceeded, in milliseconds.
    pub timeout_ms: u64,
}

impl core::fmt::Display for JobTimeout {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "job {} ({}) timed out after {} ms",
            self.index, self.label, self.timeout_ms
        )
    }
}

impl std::error::Error for JobTimeout {}

/// Per-job verdict from [`Executor::run_robust`].
#[derive(Clone, Debug)]
pub enum JobOutcome<T> {
    /// The job completed, possibly after a retry.
    Ok(T),
    /// The job panicked on its final attempt.
    Panicked(JobPanic),
    /// The job exceeded its wall-clock budget and was abandoned.
    TimedOut(JobTimeout),
}

impl<T> JobOutcome<T> {
    /// The completed value, if any.
    pub fn ok(&self) -> Option<&T> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// A rendered failure line for panicked / timed-out jobs.
    pub fn failure(&self) -> Option<String> {
        match self {
            JobOutcome::Ok(_) => None,
            JobOutcome::Panicked(p) => Some(p.to_string()),
            JobOutcome::TimedOut(t) => Some(t.to_string()),
        }
    }
}

/// Everything [`Executor::run_robust`] learned about a sweep: one outcome
/// per job in submission order, plus the retries consumed.
#[derive(Clone, Debug)]
pub struct RobustReport<T> {
    /// One outcome per submitted job, in submission order.
    pub outcomes: Vec<JobOutcome<T>>,
    /// Retries consumed from the budget.
    pub retries_used: u32,
}

impl<T> RobustReport<T> {
    /// Number of jobs that completed.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.ok().is_some()).count()
    }

    /// Number of jobs that panicked or timed out.
    pub fn failed_count(&self) -> usize {
        self.outcomes.len() - self.ok_count()
    }

    /// True when every job completed.
    pub fn is_clean(&self) -> bool {
        self.failed_count() == 0
    }

    /// Rendered failure lines, in submission order.
    pub fn failure_lines(&self) -> Vec<String> {
        self.outcomes.iter().filter_map(|o| o.failure()).collect()
    }
}

/// A captured panic together with the caller's human-readable job label.
#[derive(Clone, Debug)]
pub struct LabelledPanic {
    /// Caller-supplied job description, e.g. `"fdtd2d under SHM"`.
    pub label: String,
    /// The captured panic.
    pub panic: JobPanic,
}

/// One or more jobs of a sweep panicked; the rest completed normally.
#[derive(Clone, Debug)]
pub struct SweepError {
    /// Every failed job, in submission order.
    pub failed: Vec<LabelledPanic>,
}

impl core::fmt::Display for SweepError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} job(s) panicked:", self.failed.len())?;
        for lp in &self.failed {
            write!(f, " [{}: {}]", lp.label, lp.panic.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for SweepError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 7] {
            let out = Executor::new(jobs).map(&items, |i, &x| {
                // Make later jobs finish earlier to stress reassembly.
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
                x * 2
            });
            let vals: Vec<u64> = out.into_iter().map(|r| r.expect("no panic")).collect();
            assert_eq!(vals, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn idle_workers_stealing_from_each_other_do_not_deadlock() {
        // Regression: a worker used to keep its own queue locked while it
        // locked its neighbours' to steal, so two idle workers could each
        // wait for the other's lock.  Many tiny jobs on an odd pool width
        // make workers go idle together; the old code did not finish 5000
        // rounds within a minute.  The watchdog turns a hang into a failure.
        let (done, finished) = mpsc::channel();
        let stress = std::thread::spawn(move || {
            let items: Vec<u32> = (0..333).collect();
            for _ in 0..5_000 {
                assert_eq!(Executor::new(5).map(&items, |_, &x| x).len(), 333);
                // Other tests trip the global cancel flag, so only the
                // shape of the result is checked here.
                let token = CancelToken::new();
                let out = Executor::new(5).map_cancellable(&items, &token, |_, &x| x);
                assert_eq!(out.len(), 333);
            }
            let _ = done.send(());
        });
        let outcome = finished.recv_timeout(Duration::from_secs(600));
        assert!(
            !matches!(outcome, Err(mpsc::RecvTimeoutError::Timeout)),
            "work-stealing executor deadlocked"
        );
        stress.join().expect("stress loop panicked");
    }

    #[test]
    fn parallel_equals_serial() {
        let items: Vec<u64> = (0..64).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let serial = Executor::new(1).map(&items, f);
        let parallel = Executor::new(8).map(&items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn panics_are_captured_per_job() {
        let items: Vec<u32> = (0..10).collect();
        let out = Executor::new(4).map(&items, |_, &x| {
            if x == 3 {
                panic!("boom at {x}");
            }
            x + 1
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let p = r.as_ref().expect_err("job 3 must fail");
                assert_eq!(p.index, 3);
                assert!(p.message.contains("boom at 3"), "got {:?}", p.message);
            } else {
                assert_eq!(*r.as_ref().expect("other jobs unaffected"), i as u32 + 1);
            }
        }
    }

    #[test]
    fn try_map_labels_failures() {
        let items = ["alpha", "beta", "gamma"];
        let err = Executor::new(2)
            .try_map(
                &items,
                |_, name| format!("job/{name}"),
                |_, &name| {
                    if name == "beta" {
                        panic!("bad {name}");
                    }
                    name.len()
                },
            )
            .expect_err("beta fails");
        assert_eq!(err.failed.len(), 1);
        assert_eq!(err.failed[0].label, "job/beta");
        assert!(err.to_string().contains("job/beta"));
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..333).collect();
        let out = Executor::new(5).map(&items, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 333);
        assert_eq!(counter.load(Ordering::Relaxed), 333);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<JobResult<u8>> = Executor::new(4).map(&[] as &[u8], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn job_panic_display_includes_label_when_known() {
        let bare = JobPanic {
            index: 4,
            label: None,
            message: "boom".into(),
        };
        assert_eq!(bare.to_string(), "job 4 panicked: boom");
        let labelled = JobPanic {
            index: 4,
            label: Some("kmeans under SHM".into()),
            message: "boom".into(),
        };
        assert_eq!(
            labelled.to_string(),
            "job 4 (kmeans under SHM) panicked: boom"
        );
    }

    #[test]
    fn try_map_attaches_label_to_the_panic_itself() {
        let items = ["alpha", "beta"];
        let err = Executor::new(2)
            .try_map(
                &items,
                |_, name| format!("job/{name}"),
                |_, &name| {
                    if name == "beta" {
                        panic!("bad");
                    }
                    1
                },
            )
            .expect_err("beta fails");
        assert!(
            err.failed[0].panic.to_string().contains("(job/beta)"),
            "{}",
            err.failed[0].panic
        );
    }

    #[test]
    fn run_robust_times_out_wedged_jobs_and_returns_partial_results() {
        let report = Executor::new(2).run_robust(
            vec![1u32, 2, 3, 4],
            RobustConfig {
                timeout_ms: 150,
                retry_budget: 0,
            },
            |i, _| format!("job-{i}"),
            |ctx, &x| {
                if x == 3 {
                    // Wedge cooperatively: hold until the watchdog abandons
                    // this attempt, so the test leaks no long-lived thread.
                    while !ctx.cancelled() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    return 0;
                }
                x * 10
            },
        );
        assert_eq!(report.outcomes.len(), 4);
        assert!(matches!(report.outcomes[0], JobOutcome::Ok(10)));
        assert!(matches!(report.outcomes[1], JobOutcome::Ok(20)));
        match &report.outcomes[2] {
            JobOutcome::TimedOut(t) => {
                assert_eq!(t.label, "job-2");
                assert_eq!(t.timeout_ms, 150);
                assert!(t.to_string().contains("job-2"), "{t}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(matches!(report.outcomes[3], JobOutcome::Ok(40)));
        assert_eq!(report.ok_count(), 3);
        assert_eq!(report.failed_count(), 1);
        assert!(!report.is_clean());
        assert_eq!(report.failure_lines().len(), 1);
    }

    #[test]
    fn run_robust_retries_transient_panics_within_budget() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t2 = Arc::clone(&tries);
        let report = Executor::new(2).run_robust(
            vec![0u32, 1],
            RobustConfig {
                timeout_ms: 0,
                retry_budget: 2,
            },
            |i, _| format!("job-{i}"),
            move |ctx, _| {
                if ctx.index() == 1 && t2.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient");
                }
                7u32
            },
        );
        assert!(report.is_clean(), "{:?}", report.failure_lines());
        assert_eq!(report.retries_used, 1);
        assert_eq!(tries.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn run_robust_reports_final_panics_with_labels() {
        let report = Executor::new(2).run_robust(
            vec![0u32, 1],
            RobustConfig::default(),
            |i, _| format!("job-{i}"),
            |ctx, _| {
                if ctx.index() == 1 {
                    panic!("always");
                }
                3u32
            },
        );
        assert_eq!(report.ok_count(), 1);
        match &report.outcomes[1] {
            JobOutcome::Panicked(p) => {
                assert_eq!(p.label.as_deref(), Some("job-1"));
                assert!(p.to_string().contains("(job-1)"), "{p}");
            }
            other => panic!("expected panic, got {other:?}"),
        }
    }

    /// Serializes tests that read or write the process-global cancel flag —
    /// `cargo test` runs tests on concurrent threads in one process.
    static CANCEL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn map_cancellable_without_cancel_matches_map() {
        let _guard = CANCEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let items: Vec<u64> = (0..40).collect();
        let token = CancelToken::new();
        let out = Executor::new(4).map_cancellable(&items, &token, |_, &x| x + 1);
        let vals: Vec<u64> = out
            .into_iter()
            .map(|o| o.expect("all ran").expect("no panic"))
            .collect();
        assert_eq!(vals, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn map_cancellable_serial_stops_pulling_after_cancel() {
        let _guard = CANCEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let items: Vec<u64> = (0..10).collect();
        let token = CancelToken::new();
        let out = Executor::new(1).map_cancellable(&items, &token, |i, &x| {
            if i == 3 {
                token.cancel();
            }
            x * 2
        });
        // The cancelling job itself drains; nothing after it starts.
        for (i, o) in out.iter().enumerate() {
            if i <= 3 {
                assert_eq!(
                    *o.as_ref().expect("ran").as_ref().expect("ok"),
                    items[i] * 2
                );
            } else {
                assert!(o.is_none(), "job {i} ran after cancel");
            }
        }
    }

    #[test]
    fn map_cancellable_parallel_drains_in_flight_jobs() {
        let _guard = CANCEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let items: Vec<u64> = (0..64).collect();
        let token = CancelToken::new();
        // The first job to start cancels, under the lock that counts starts:
        // every later start was already pulled by its worker when the token
        // tripped, so at most one job per worker runs, whatever the
        // scheduling.
        let started = Mutex::new(0usize);
        let out = Executor::new(4).map_cancellable(&items, &token, |_, &x| {
            {
                let mut n = started.lock().unwrap_or_else(|e| e.into_inner());
                if *n == 0 {
                    token.cancel();
                }
                *n += 1;
            }
            std::thread::yield_now();
            x
        });
        let ran = out.iter().filter(|o| o.is_some()).count();
        // Every slot that ran holds a complete result (drained, not torn),
        // and cancellation kept at least some of the 64 jobs from starting.
        assert_eq!(ran, *started.lock().unwrap_or_else(|e| e.into_inner()));
        assert!(ran >= 1);
        assert!(ran < items.len(), "cancel had no effect");
        for (o, &x) in out.iter().zip(&items) {
            if let Some(r) = o {
                assert_eq!(*r.as_ref().expect("ok"), x);
            }
        }
    }

    #[test]
    fn cancel_token_observes_global_flag() {
        let _guard = CANCEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        request_cancel();
        assert!(token.is_cancelled(), "global flag must trip local tokens");
        reset_cancel();
        assert!(!token.is_cancelled());
    }

    #[test]
    fn effective_jobs_priority() {
        // Explicit request wins over everything.
        assert_eq!(effective_jobs(Some(3)), 3);
        // Zero request falls through to env/auto, which is at least 1.
        assert!(effective_jobs(Some(0)) >= 1);
        assert!(effective_jobs(None) >= 1);
    }

    #[test]
    fn parse_jobs_spec_accepts_only_positive_integers() {
        assert_eq!(parse_jobs_spec("4"), Some(4));
        assert_eq!(parse_jobs_spec(" 8 "), Some(8));
        assert_eq!(parse_jobs_spec("0"), None);
        assert_eq!(parse_jobs_spec("garbage"), None);
        assert_eq!(parse_jobs_spec("-1"), None);
        assert_eq!(parse_jobs_spec("1.5"), None);
        assert_eq!(parse_jobs_spec(""), None);
    }

    /// Serializes tests that mutate the `SHM_JOBS` environment variable.
    static JOBS_ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn bad_jobs_env_values_fall_back_to_auto() {
        let _guard = JOBS_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
        for bad in ["0", "banana", "-3", "1.5", " "] {
            std::env::set_var(JOBS_ENV, bad);
            assert_eq!(
                effective_jobs(None),
                auto,
                "SHM_JOBS={bad:?} must mean auto, not panic or serial"
            );
        }
        std::env::set_var(JOBS_ENV, "3");
        assert_eq!(effective_jobs(None), 3);
        assert_eq!(effective_jobs(Some(2)), 2, "explicit request beats env");
        std::env::remove_var(JOBS_ENV);
    }
}
