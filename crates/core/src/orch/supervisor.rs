//! The fault-tolerant job supervisor: panic-isolated worker pool,
//! seeded retry backoff, cooperative deadlines, and a load-shedding
//! concurrency governor.
//!
//! # Supervision model
//!
//! A fixed pool of worker threads pulls queued jobs off a shared
//! scheduler and advances each claimed job one *turn* (a bounded run of
//! supervision slices, for fairness) at a time, checkpointing after
//! every slice. Each slice runs under `catch_unwind`, so a panic — a
//! bug, or an injected fault — is caught, converted to the typed
//! [`Error::WorkerPanicked`], and absorbed by the retry machinery
//! instead of taking down the worker, its sibling jobs, or the process.
//! Because the slice's in-memory runtime is discarded on any fault and
//! rebuilt from the last durable checkpoint, a retry rolls the job back
//! to a known-good state: the retried run replays the exact acquisition
//! stream the faulted one would have produced.
//!
//! Faults (panics, typed step errors, deadline overruns) consume a
//! per-job retry budget. While budget remains, the job is re-queued
//! after a deterministic seeded exponential backoff
//! ([`Backoff`]) — no `rand`, no wall-clock entropy, so a restarted
//! orchestrator replays the same schedule. A job that exhausts its
//! budget, its trace budget, or its whole-job deadline is parked as
//! [`JobState::Degraded`] with all partial per-coefficient progress
//! preserved in its checkpoint; an operator `resume` re-arms it.
//!
//! # Deadlines
//!
//! Deadlines are *cooperative*: safe Rust cannot kill a wedged thread,
//! so the per-slice deadline is enforced at slice boundaries (a slice
//! that ran over faults as a deadline overrun) while a monotonic-clock
//! watchdog thread observes in-flight slices, flags overdue ones and
//! emits `orch.deadline` events the moment the limit passes — the
//! overrun is visible in the event stream even while the slice is
//! still stuck. The wall-clock reads live here, in the supervision
//! layer, under explicit `ct: allow` annotations: they time *workers*,
//! never the modelled leakage, which stays bit-reproducible.
//!
//! # Load shedding
//!
//! [`Supervisor::set_max_running`] is the global concurrency governor.
//! Lowering it below the number of in-flight jobs sheds load by pausing
//! the **newest** jobs first (oldest jobs are closest to convergence
//! and have absorbed the most work), each parked at its next slice
//! boundary with its checkpoint intact.
//!
//! # Single-writer invariant
//!
//! While a job is claimed (present in the running set), only its worker
//! writes its status record. Control operations on running jobs go
//! through request flags the worker honours at the next slice boundary;
//! control operations on parked jobs write the status directly under
//! the scheduler lock. This keeps every status transition both atomic
//! on disk and race-free in memory.

use crate::error::{Error, Result};
use crate::obs;
use crate::orch::backoff::{seed_from_name, Backoff};
use crate::orch::job::{JobSpec, JobState, JobStatus};
use crate::orch::runner::{FaultInjector, JobRuntime};
use crate::orch::store::JobStore;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Supervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Initial concurrency limit (see [`Supervisor::set_max_running`]).
    pub max_running: usize,
    /// Watchdog tick, in milliseconds.
    pub watchdog_interval_ms: u64,
    /// Consecutive slices a worker runs on one job before re-queueing
    /// it (fairness between jobs when workers are scarce).
    pub slices_per_turn: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 2,
            max_running: 2,
            watchdog_interval_ms: 10,
            slices_per_turn: 4,
        }
    }
}

/// Bookkeeping for one in-flight job.
#[derive(Debug)]
struct RunInfo {
    /// When the current slice started (reset at every slice boundary).
    started: Instant,
    /// The job's per-slice deadline (0 = none), cached for the watchdog.
    step_deadline_ms: u64,
    /// Set by the watchdog when the in-flight slice runs over.
    overdue: bool,
}

/// The shared scheduler state, guarded by one mutex.
#[derive(Debug, Default)]
struct Sched {
    /// Jobs ready to claim, in FIFO order.
    runnable: VecDeque<String>,
    /// Jobs waiting out a retry backoff: `(ready_at, name)`.
    delayed: Vec<(Instant, String)>,
    /// Claimed jobs, keyed by name.
    running: BTreeMap<String, RunInfo>,
    /// Admission order (oldest first); the governor sheds from the back.
    order: Vec<String>,
    /// Pause requests for running jobs, honoured at slice boundaries.
    pause_req: BTreeSet<String>,
    /// Cancel requests for running jobs, honoured at slice boundaries.
    cancel_req: BTreeSet<String>,
    /// Concurrency limit.
    max_running: usize,
    /// Set once by [`Supervisor::drain`]; workers exit at boundaries.
    shutdown: bool,
}

struct Shared {
    store: JobStore,
    sched: Mutex<Sched>,
    cv: Condvar,
    /// Per-job fault-injection memory, held across turns so an injected
    /// fault fires exactly once per process.
    injectors: Mutex<BTreeMap<String, FaultInjector>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        // A worker can only poison this lock by panicking in scheduler
        // bookkeeping (slices themselves run unlocked under
        // catch_unwind); recover the guard rather than cascading.
        self.sched.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// What to do with a job's scheduler slot when its turn ends.
enum After {
    /// Leave it unscheduled (done, failed, parked, drained).
    Drop,
    /// Put it straight back on the runnable queue (fairness re-queue).
    Requeue,
    /// Re-queue it after a backoff delay, in milliseconds.
    Delay(u64),
}

/// A running supervisor: worker pool plus watchdog over one [`JobStore`].
///
/// All control methods take `&self`, so a supervisor can be shared
/// behind an `Arc` by a serving layer (each RPC connection handler gets
/// its own handle); [`Supervisor::drain`] is idempotent.
pub struct Supervisor {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl Supervisor {
    /// Recovers the store (adopting any crash orphans), re-queues every
    /// queued job, and starts the worker pool and watchdog.
    ///
    /// # Errors
    ///
    /// Propagates store recovery and scan errors.
    pub fn start(store: JobStore, cfg: SupervisorConfig) -> Result<Supervisor> {
        store.recover()?;
        let mut sched = Sched { max_running: cfg.max_running, ..Sched::default() };
        for name in store.jobs()? {
            let st = store.read_status(&name)?;
            if st.state.is_terminal() {
                continue;
            }
            sched.order.push(name.clone());
            if st.state == JobState::Queued {
                sched.runnable.push_back(name);
            }
        }
        let shared = Arc::new(Shared {
            store,
            sched: Mutex::new(sched),
            cv: Condvar::new(),
            injectors: Mutex::new(BTreeMap::new()),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("orch-worker-{i}"))
                    .spawn(move || worker_loop(&shared, cfg))
                    .expect("spawn orchestrator worker")
            })
            .collect();
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("orch-watchdog".into())
                .spawn(move || watchdog_loop(&shared, cfg))
                .expect("spawn orchestrator watchdog")
        };
        Ok(Supervisor {
            shared,
            workers: Mutex::new(workers),
            watchdog: Mutex::new(Some(watchdog)),
        })
    }

    /// The underlying job store.
    pub fn store(&self) -> &JobStore {
        &self.shared.store
    }

    /// Submits a new job and schedules it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] for an invalid spec or duplicate
    /// name, [`Error::Persist`] on a failed durable write.
    pub fn submit(&self, spec: &JobSpec) -> Result<()> {
        self.shared.store.submit(spec)?;
        let mut s = self.shared.lock();
        s.order.push(spec.name.clone());
        s.runnable.push_back(spec.name.clone());
        drop(s);
        self.shared.cv.notify_all();
        let (name, traces) = (spec.name.clone(), spec.max_traces as u64);
        let logn = u64::from(spec.logn);
        obs::emit(move || {
            obs::Event::new("orch.submit")
                .with_str("job", name.clone())
                .with_u64("logn", logn)
                .with_u64("max_traces", traces)
        });
        Ok(())
    }

    /// A job's current persisted status.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] for an unknown job.
    pub fn status(&self, name: &str) -> Result<JobStatus> {
        self.shared.store.read_status(name)
    }

    /// All known job names, sorted.
    ///
    /// # Errors
    ///
    /// Propagates store scan errors.
    pub fn jobs(&self) -> Result<Vec<String>> {
        self.shared.store.jobs()
    }

    /// A job's status, refusing `verb` on a terminal job.
    fn live_status(&self, name: &str, verb: &str) -> Result<JobStatus> {
        let st = self.shared.store.read_status(name)?;
        if st.state.is_terminal() {
            let state = st.state.as_str();
            return Err(Error::Orchestration(format!(
                "cannot {verb} job {name:?}: already {state}"
            )));
        }
        Ok(st)
    }

    /// Pauses a job: a queued job parks immediately, a running one at
    /// its next slice boundary. Its checkpoint is preserved.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] for unknown or terminal jobs.
    pub fn pause(&self, name: &str) -> Result<()> {
        let mut st = self.live_status(name, "pause")?;
        let mut s = self.shared.lock();
        if s.running.contains_key(name) {
            s.pause_req.insert(name.to_string());
        } else if st.state == JobState::Queued {
            s.runnable.retain(|n| n != name);
            s.delayed.retain(|(_, n)| n != name);
            st.state = JobState::Paused;
            self.shared.store.write_status(name, &st)?;
            let n = name.to_string();
            obs::emit(move || obs::Event::new("orch.paused").with_str("job", n.clone()));
        }
        Ok(())
    }

    /// Resumes a paused or degraded job: resets its retry budget and
    /// re-queues it from its checkpoint. On a queued/running job it just
    /// clears any pending pause request.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] for unknown or terminal jobs.
    pub fn resume(&self, name: &str) -> Result<()> {
        let mut st = self.live_status(name, "resume")?;
        let mut s = self.shared.lock();
        s.pause_req.remove(name);
        if matches!(st.state, JobState::Paused | JobState::Degraded) {
            st.state = JobState::Queued;
            st.retries = 0;
            self.shared.store.write_status(name, &st)?;
            if !s.order.iter().any(|n| n == name) {
                s.order.push(name.to_string());
            }
            s.runnable.push_back(name.to_string());
            drop(s);
            self.shared.cv.notify_all();
            let n = name.to_string();
            obs::emit(move || obs::Event::new("orch.resumed").with_str("job", n.clone()));
        }
        Ok(())
    }

    /// Cancels a job. Parked jobs cancel immediately, running ones at
    /// the next slice boundary; the checkpoint is retained either way.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] for unknown or terminal jobs.
    pub fn cancel(&self, name: &str) -> Result<()> {
        let mut st = self.live_status(name, "cancel")?;
        let mut s = self.shared.lock();
        if s.running.contains_key(name) {
            s.cancel_req.insert(name.to_string());
        } else {
            s.runnable.retain(|n| n != name);
            s.delayed.retain(|(_, n)| n != name);
            s.pause_req.remove(name);
            st.state = JobState::Cancelled;
            self.shared.store.write_status(name, &st)?;
            obs::metrics().counter("orch.cancelled").incr();
            let n = name.to_string();
            obs::emit(move || obs::Event::new("orch.cancelled").with_str("job", n.clone()));
        }
        Ok(())
    }

    /// The global concurrency governor. Raising the limit lets waiting
    /// jobs claim slots; lowering it below the in-flight count sheds
    /// load by pausing the newest running jobs first.
    pub fn set_max_running(&self, limit: usize) {
        let mut s = self.shared.lock();
        s.max_running = limit;
        if s.running.len() > limit {
            let excess = s.running.len() - limit;
            let victims: Vec<String> = s
                .order
                .iter()
                .rev()
                .filter(|n| s.running.contains_key(*n) && !s.pause_req.contains(*n))
                .take(excess)
                .cloned()
                .collect();
            for v in victims {
                obs::metrics().counter("orch.shed").incr();
                let n = v.clone();
                obs::emit(move || obs::Event::new("orch.shed").with_str("job", n.clone()));
                s.pause_req.insert(v);
            }
        }
        drop(s);
        self.shared.cv.notify_all();
    }

    /// Polls a job's persisted status until `pred` accepts it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] on timeout or an unknown job.
    pub fn wait_until(
        &self,
        name: &str,
        timeout_ms: u64,
        pred: impl Fn(&JobStatus) -> bool,
    ) -> Result<JobStatus> {
        // ct: allow(operator/test polling helper; times workers, not modelled leakage)
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        loop {
            let st = self.status(name)?;
            if pred(&st) {
                return Ok(st);
            }
            // ct: allow(operator/test polling helper; times workers, not modelled leakage)
            if Instant::now() >= deadline {
                return Err(Error::Orchestration(format!(
                    "timed out after {timeout_ms}ms waiting on job {name:?} (state {})",
                    st.state.as_str()
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Waits until a job settles: done, failed, cancelled, or degraded.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] on timeout or an unknown job.
    pub fn wait_settled(&self, name: &str, timeout_ms: u64) -> Result<JobStatus> {
        self.wait_until(name, timeout_ms, |st| {
            st.state.is_terminal() || st.state == JobState::Degraded
        })
    }

    /// Graceful shutdown: workers finish their current slice, checkpoint
    /// and park their jobs back to `queued` (a restarted supervisor
    /// re-adopts them), then the pool and watchdog join. Idempotent.
    pub fn drain(&self) {
        self.shared.lock().shutdown = true;
        self.shared.cv.notify_all();
        let workers: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self.workers.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        if workers.is_empty() {
            return;
        }
        for h in workers {
            let _ = h.join();
        }
        let dog = self.watchdog.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
        if let Some(h) = dog {
            let _ = h.join();
        }
        obs::emit(|| obs::Event::new("orch.drain"));
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Moves every due delayed job onto the runnable queue.
fn promote_due(s: &mut Sched) -> usize {
    // ct: allow(retry-backoff release check; times workers, not modelled leakage)
    let now = Instant::now();
    let mut moved = 0;
    let mut i = 0;
    while i < s.delayed.len() {
        if s.delayed[i].0 <= now {
            let (_, name) = s.delayed.swap_remove(i);
            s.runnable.push_back(name);
            moved += 1;
        } else {
            i += 1;
        }
    }
    moved
}

/// Claims the next runnable job if a slot is free.
fn try_claim(s: &mut Sched) -> Option<String> {
    if s.shutdown || s.running.len() >= s.max_running {
        return None;
    }
    let name = s.runnable.pop_front()?;
    // ct: allow(slice stopwatch start; times workers, not modelled leakage)
    let started = Instant::now();
    s.running.insert(name.clone(), RunInfo { started, step_deadline_ms: 0, overdue: false });
    Some(name)
}

fn worker_loop(shared: &Shared, cfg: SupervisorConfig) {
    let tick = Duration::from_millis(cfg.watchdog_interval_ms.max(1));
    loop {
        let claimed = {
            let mut s = shared.lock();
            loop {
                if s.shutdown {
                    return;
                }
                promote_due(&mut s);
                if let Some(name) = try_claim(&mut s) {
                    break name;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(s, tick)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                s = guard;
            }
        };
        run_turn(shared, cfg, &claimed);
    }
}

/// Runs one turn of a claimed job, then releases its scheduler slot
/// exactly once — whatever happened inside the turn.
fn run_turn(shared: &Shared, cfg: SupervisorConfig, name: &str) {
    let after = match run_turn_inner(shared, cfg, name) {
        Ok(after) => after,
        Err(e) => {
            // A turn-level error (unreadable record, failed durable
            // status write) is non-retryable: quarantine the job rather
            // than looping on it.
            let msg = e.to_string();
            if let Ok(mut st) = shared.store.read_status(name) {
                if !st.state.is_terminal() {
                    st.state = JobState::Failed;
                    st.last_error = msg.clone();
                    let _ = shared.store.write_status(name, &st);
                }
            }
            obs::metrics().counter("orch.failed").incr();
            let n = name.to_string();
            obs::emit(move || {
                obs::Event::new("orch.failed")
                    .with_str("job", n.clone())
                    .with_str("error", msg.clone())
            });
            After::Drop
        }
    };
    let mut s = shared.lock();
    s.running.remove(name);
    match after {
        After::Drop => {}
        After::Requeue => s.runnable.push_back(name.to_string()),
        After::Delay(ms) => {
            // ct: allow(retry-backoff release schedule; times workers, not modelled leakage)
            let ready = Instant::now() + Duration::from_millis(ms);
            s.delayed.push((ready, name.to_string()));
        }
    }
    drop(s);
    shared.cv.notify_all();
}

fn run_turn_inner(shared: &Shared, cfg: SupervisorConfig, name: &str) -> Result<After> {
    let spec = shared.store.read_spec(name)?;
    let mut status = shared.store.read_status(name)?;
    if status.state.is_terminal() {
        return Ok(After::Drop);
    }
    status.state = JobState::Running;
    shared.store.write_status(name, &status)?;

    let store = &shared.store;
    let mut rt = match catch_unwind(AssertUnwindSafe(|| JobRuntime::prepare(&spec, store))) {
        Ok(Ok(rt)) => rt,
        Ok(Err(e)) => return Err(Error::Orchestration(format!("prepare failed: {e}"))),
        Err(p) => {
            return Err(Error::Orchestration(format!("prepare panicked: {}", payload_str(&p))))
        }
    };
    let mut injector = shared
        .injectors
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .remove(name)
        .unwrap_or_default();
    let after = drive_slices(shared, cfg, &spec, &mut status, &mut rt, &mut injector);
    shared
        .injectors
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(name.to_string(), injector);
    after
}

fn drive_slices(
    shared: &Shared,
    cfg: SupervisorConfig,
    spec: &JobSpec,
    status: &mut JobStatus,
    rt: &mut JobRuntime,
    injector: &mut FaultInjector,
) -> Result<After> {
    let name = &spec.name;
    for _ in 0..cfg.slices_per_turn.max(1) {
        if let Some(park) = boundary_park(shared, spec) {
            let _ = rt.checkpoint(&shared.store);
            status.state = park;
            shared.store.write_status(name, status)?;
            if park == JobState::Cancelled {
                obs::metrics().counter("orch.cancelled").incr();
            }
            let (n, state) = (name.clone(), park.as_str());
            obs::emit(move || {
                obs::Event::new("orch.park")
                    .with_str("job", n.clone())
                    .with_str("state", state.to_string())
            });
            return Ok(After::Drop);
        }
        // ct: allow(slice stopwatch; times workers, not modelled leakage)
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| rt.slice(injector)));
        // ct: allow(slice stopwatch; times workers, not modelled leakage)
        let ms = t0.elapsed().as_millis() as u64;
        status.runtime_ms += ms;
        let out = match res {
            Err(p) => {
                return fault(
                    shared,
                    spec,
                    status,
                    &Error::WorkerPanicked {
                        chunk: status.slices as usize,
                        payload: payload_str(&p),
                    },
                )
            }
            Ok(Err(e)) => return fault(shared, spec, status, &e),
            Ok(Ok(out)) => out,
        };
        // A failed durable checkpoint is retryable: the job rolls back
        // to the previous checkpoint and backs off.
        if let Err(e) = rt.checkpoint(&shared.store) {
            return fault(shared, spec, status, &e);
        }
        status.slices += 1;
        status.traces_requested = out.traces_requested as u64;
        status.recovered = out.recovered as u64;
        let (n, traces, rec) = (name.clone(), status.traces_requested, status.recovered);
        obs::emit(move || {
            obs::Event::new("orch.slice")
                .with_str("job", n.clone())
                .with_u64("traces_requested", traces)
                .with_u64("recovered", rec)
                .with_u64("ms", ms)
        });
        let overdue = {
            let mut s = shared.lock();
            s.running.get_mut(name).map(|i| std::mem::take(&mut i.overdue)).unwrap_or(false)
        };
        if spec.step_deadline_ms > 0 && (overdue || ms > spec.step_deadline_ms) {
            return fault(
                shared,
                spec,
                status,
                &Error::Orchestration(format!(
                    "step deadline overrun: slice took {ms}ms (limit {}ms)",
                    spec.step_deadline_ms
                )),
            );
        }
        if out.done {
            if out.complete {
                status.state = JobState::Done;
                status.bits = rt.report().recovered_bits().unwrap_or_default();
                shared.store.write_status(name, status)?;
                obs::metrics().counter("orch.done").incr();
                let (n, traces) = (name.clone(), status.traces_requested);
                let (slices, retries) = (status.slices, u64::from(status.retries));
                obs::emit(move || {
                    obs::Event::new("orch.done")
                        .with_str("job", n.clone())
                        .with_u64("traces_requested", traces)
                        .with_u64("slices", slices)
                        .with_u64("retries", retries)
                });
                return Ok(After::Drop);
            }
            return degrade(shared, name, status, "trace budget exhausted before convergence");
        }
        if spec.job_deadline_ms > 0 && status.runtime_ms > spec.job_deadline_ms {
            return degrade(
                shared,
                name,
                status,
                &format!(
                    "job deadline exceeded: {}ms run (limit {}ms)",
                    status.runtime_ms, spec.job_deadline_ms
                ),
            );
        }
    }
    // Turn over with work remaining: persist and re-queue (fairness).
    status.state = JobState::Queued;
    shared.store.write_status(name, status)?;
    Ok(After::Requeue)
}

/// Checks the control flags at a slice boundary. Returns the state to
/// park in, or `None` to continue (also restarting the slice stopwatch
/// the watchdog reads).
fn boundary_park(shared: &Shared, spec: &JobSpec) -> Option<JobState> {
    let mut s = shared.lock();
    if s.shutdown {
        return Some(JobState::Queued);
    }
    if s.cancel_req.remove(&spec.name) {
        return Some(JobState::Cancelled);
    }
    if s.pause_req.remove(&spec.name) {
        return Some(JobState::Paused);
    }
    if let Some(info) = s.running.get_mut(&spec.name) {
        // ct: allow(slice stopwatch restart; times workers, not modelled leakage)
        info.started = Instant::now();
        info.step_deadline_ms = spec.step_deadline_ms;
        info.overdue = false;
    }
    None
}

/// The shared fault path: count the retry, then either back off and
/// re-queue, or degrade once the budget is spent.
fn fault(shared: &Shared, spec: &JobSpec, status: &mut JobStatus, err: &Error) -> Result<After> {
    status.retries += 1;
    status.last_error = err.to_string();
    obs::metrics().counter("orch.faults").incr();
    if status.retries > spec.max_retries {
        let why = format!(
            "retry budget exhausted after {} faults; last: {}",
            status.retries, status.last_error
        );
        return degrade(shared, &spec.name, status, &why);
    }
    status.state = JobState::Queued;
    shared.store.write_status(&spec.name, status)?;
    let backoff = Backoff {
        base_ms: spec.backoff_base_ms,
        cap_ms: spec.backoff_cap_ms,
        seed: seed_from_name(&spec.name),
    };
    let delay = backoff.delay_ms(status.retries - 1);
    obs::metrics().counter("orch.retries").incr();
    let (n, retries, msg) =
        (spec.name.clone(), u64::from(status.retries), status.last_error.clone());
    obs::emit(move || {
        obs::Event::new("orch.retry")
            .with_str("job", n.clone())
            .with_u64("retries", retries)
            .with_u64("delay_ms", delay)
            .with_str("error", msg.clone())
    });
    Ok(After::Delay(delay))
}

/// Parks a job as degraded: partial per-coefficient progress stays in
/// its checkpoint, and an operator `resume` re-arms it.
fn degrade(shared: &Shared, name: &str, status: &mut JobStatus, why: &str) -> Result<After> {
    status.state = JobState::Degraded;
    status.last_error = why.to_string();
    shared.store.write_status(name, status)?;
    obs::metrics().counter("orch.degraded").incr();
    let (n, why) = (name.to_string(), why.to_string());
    let (traces, rec) = (status.traces_requested, status.recovered);
    obs::emit(move || {
        obs::Event::new("orch.degraded")
            .with_str("job", n.clone())
            .with_str("reason", why.clone())
            .with_u64("traces_requested", traces)
            .with_u64("recovered", rec)
    });
    Ok(After::Drop)
}

fn watchdog_loop(shared: &Shared, cfg: SupervisorConfig) {
    let tick = Duration::from_millis(cfg.watchdog_interval_ms.max(1));
    loop {
        std::thread::sleep(tick);
        let mut s = shared.lock();
        if s.shutdown {
            return;
        }
        if promote_due(&mut s) > 0 {
            shared.cv.notify_all();
        }
        // ct: allow(watchdog deadline scan; times workers, not modelled leakage)
        let now = Instant::now();
        for (name, info) in s.running.iter_mut() {
            let over = info.step_deadline_ms > 0
                && !info.overdue
                && now.duration_since(info.started).as_millis() as u64 > info.step_deadline_ms;
            if over {
                info.overdue = true;
                obs::metrics().counter("orch.deadline_overruns").incr();
                let (n, limit) = (name.clone(), info.step_deadline_ms);
                obs::emit(move || {
                    obs::Event::new("orch.deadline")
                        .with_str("job", n.clone())
                        .with_u64("limit_ms", limit)
                });
            }
        }
    }
}

fn payload_str(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked with a non-string payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("falcon-orch-sup-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(name: &str) -> JobSpec {
        JobSpec { name: name.into(), seed: format!("{name} sup seed"), ..Default::default() }
    }

    /// The bits an *uninterrupted, fault-free* run of `spec` recovers —
    /// the reference for the bit-identity contract. (Ground truth is the
    /// wrong reference under noise: a campaign can legitimately converge
    /// to a false positive, and the durability contract is about
    /// replaying the identical acquisition stream, not about accuracy.)
    fn reference_bits(spec: &JobSpec) -> Vec<u64> {
        let clean = JobSpec {
            panic_steps: Vec::new(),
            stall_steps: Vec::new(),
            stall_ms: 0,
            step_deadline_ms: 0,
            job_deadline_ms: 0,
            ..spec.clone()
        };
        let dir = tmp_dir(&format!("ref-{}", spec.name));
        let store = JobStore::open(&dir).unwrap();
        let mut rt = JobRuntime::prepare(&clean, &store).unwrap();
        let mut inj = FaultInjector::default();
        loop {
            if rt.slice(&mut inj).unwrap().done {
                break;
            }
        }
        let bits = rt.report().recovered_bits().expect("reference run must converge");
        let _ = std::fs::remove_dir_all(&dir);
        bits
    }

    /// Installs (once) a panic hook that silences panics on supervisor
    /// worker threads — the injected faults below are deliberate — while
    /// leaving test-thread assertion failures fully reported.
    fn quiet_worker_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let on_worker =
                    std::thread::current().name().is_some_and(|n| n.starts_with("orch-worker"));
                if !on_worker {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn two_jobs_converge_concurrently_to_the_true_keys() {
        let dir = tmp_dir("pair");
        let sup =
            Supervisor::start(JobStore::open(&dir).unwrap(), SupervisorConfig::default()).unwrap();
        sup.submit(&spec("pair-a")).unwrap();
        sup.submit(&spec("pair-b")).unwrap();
        for name in ["pair-a", "pair-b"] {
            let st = sup.wait_settled(name, 60_000).unwrap();
            assert_eq!(st.state, JobState::Done, "{name}: {}", st.last_error);
            let truth = spec(name).build_victim().unwrap().truth;
            assert_eq!(st.bits, truth, "{name} must recover the true key");
        }
        sup.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_panics_are_retried_and_the_sibling_job_survives() {
        quiet_worker_panics();
        let dir = tmp_dir("panic");
        let sup =
            Supervisor::start(JobStore::open(&dir).unwrap(), SupervisorConfig::default()).unwrap();
        // Batches 0 and 1 always run (a coefficient needs at least two
        // stable batch evaluations to converge), so both faults fire.
        let faulty = JobSpec { panic_steps: vec![0, 1], ..spec("panic-faulty") };
        sup.submit(&faulty).unwrap();
        sup.submit(&spec("panic-clean")).unwrap();
        let st = sup.wait_settled("panic-faulty", 60_000).unwrap();
        assert_eq!(st.state, JobState::Done, "{}", st.last_error);
        assert_eq!(st.retries, 2, "both injected panics must be absorbed");
        assert_eq!(st.bits, reference_bits(&faulty), "retried run must be bit-identical");
        let st = sup.wait_settled("panic-clean", 60_000).unwrap();
        assert_eq!(st.state, JobState::Done, "sibling must be unaffected");
        sup.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_budget_exhaustion_degrades_and_resume_rearms() {
        quiet_worker_panics();
        let dir = tmp_dir("degrade");
        let sup =
            Supervisor::start(JobStore::open(&dir).unwrap(), SupervisorConfig::default()).unwrap();
        let s = JobSpec { panic_steps: vec![0, 1], max_retries: 1, ..spec("degrade-a") };
        sup.submit(&s).unwrap();
        let st = sup.wait_settled("degrade-a", 60_000).unwrap();
        assert_eq!(st.state, JobState::Degraded, "{}", st.last_error);
        assert!(st.last_error.contains("retry budget exhausted"), "{}", st.last_error);
        // Partial progress survived the degradation.
        assert!(sup.store().checkpoint_path("degrade-a").exists());
        // Resume re-arms the budget; both faults already fired, so the
        // job now runs clean to completion.
        sup.resume("degrade-a").unwrap();
        let st = sup.wait_settled("degrade-a", 60_000).unwrap();
        assert_eq!(st.state, JobState::Done, "{}", st.last_error);
        assert_eq!(st.bits, reference_bits(&s), "resumed run must be bit-identical");
        sup.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_slice_overruns_its_deadline_then_recovers() {
        let dir = tmp_dir("deadline");
        let sup =
            Supervisor::start(JobStore::open(&dir).unwrap(), SupervisorConfig::default()).unwrap();
        let s = JobSpec {
            stall_steps: vec![1],
            stall_ms: 120,
            step_deadline_ms: 40,
            ..spec("deadline-a")
        };
        sup.submit(&s).unwrap();
        let st = sup.wait_settled("deadline-a", 60_000).unwrap();
        assert_eq!(st.state, JobState::Done, "{}", st.last_error);
        assert!(st.retries >= 1, "the stalled slice must count as a fault");
        assert!(st.last_error.contains("deadline overrun"), "{}", st.last_error);
        assert_eq!(st.bits, reference_bits(&s), "overrun retry must be bit-identical");
        sup.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn governor_sheds_the_newest_job_first() {
        let dir = tmp_dir("governor");
        let sup =
            Supervisor::start(JobStore::open(&dir).unwrap(), SupervisorConfig::default()).unwrap();
        // Stall every batch so both jobs stay in flight long enough to
        // observe the shed deterministically.
        let slow =
            |name: &str| JobSpec { stall_steps: (0..32).collect(), stall_ms: 30, ..spec(name) };
        sup.submit(&slow("gov-old")).unwrap();
        sup.wait_until("gov-old", 30_000, |st| st.state == JobState::Running).unwrap();
        sup.submit(&slow("gov-new")).unwrap();
        sup.wait_until("gov-new", 30_000, |st| st.state == JobState::Running).unwrap();
        sup.set_max_running(1);
        let st = sup.wait_until("gov-new", 30_000, |st| st.state == JobState::Paused).unwrap();
        assert_eq!(st.state, JobState::Paused, "newest job parks first");
        let st = sup.wait_settled("gov-old", 60_000).unwrap();
        assert_eq!(st.state, JobState::Done, "oldest job keeps its slot: {}", st.last_error);
        // Re-admit the shed job and let it finish.
        sup.set_max_running(2);
        sup.resume("gov-new").unwrap();
        let st = sup.wait_settled("gov-new", 60_000).unwrap();
        assert_eq!(st.state, JobState::Done, "{}", st.last_error);
        sup.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_parks_terminally_and_refuses_to_resume() {
        let dir = tmp_dir("cancel");
        let sup = Supervisor::start(
            JobStore::open(&dir).unwrap(),
            SupervisorConfig { max_running: 0, ..SupervisorConfig::default() },
        )
        .unwrap();
        sup.submit(&spec("cancel-a")).unwrap();
        sup.cancel("cancel-a").unwrap();
        let st = sup.status("cancel-a").unwrap();
        assert_eq!(st.state, JobState::Cancelled);
        assert!(sup.resume("cancel-a").is_err());
        assert!(sup.cancel("cancel-a").is_err());
        sup.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_parks_running_jobs_and_a_fresh_supervisor_finishes_them() {
        let dir = tmp_dir("drain");
        let spec_a = JobSpec { stall_steps: (0..32).collect(), stall_ms: 20, ..spec("drain-a") };
        {
            let sup = Supervisor::start(JobStore::open(&dir).unwrap(), SupervisorConfig::default())
                .unwrap();
            sup.submit(&spec_a).unwrap();
            sup.wait_until("drain-a", 30_000, |st| st.state == JobState::Running).unwrap();
            sup.drain();
        }
        let store = JobStore::open(&dir).unwrap();
        let st = store.read_status("drain-a").unwrap();
        assert_eq!(st.state, JobState::Queued, "drained jobs park back to queued");
        // A fresh supervisor picks the job up from its checkpoint.
        let sup = Supervisor::start(store, SupervisorConfig::default()).unwrap();
        let st = sup.wait_settled("drain-a", 60_000).unwrap();
        assert_eq!(st.state, JobState::Done, "{}", st.last_error);
        assert_eq!(st.bits, reference_bits(&spec_a), "restarted run must be bit-identical");
        sup.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
