//! Fault-tolerant campaign orchestration: durable multi-job supervision
//! over [`Campaign`](crate::campaign::Campaign).
//!
//! This module family turns the single-campaign checkpoint/resume
//! machinery into a crash-proof multi-job service layer, std-only and
//! thread-based:
//!
//! * [`job`] — [`JobSpec`]/[`JobStatus`]: one supervised attack job
//!   and its evolving lifecycle state (queued → running →
//!   degraded/done/failed, plus paused and cancelled), each with one
//!   flat-JSON line codec shared by the store and the RPC.
//! * [`store`] — [`JobStore`]: atomic, fsync-after-rename persistence
//!   of those records plus idempotent crash recovery that re-adopts
//!   orphaned running jobs.
//! * [`backoff`] — [`Backoff`]: deterministic seeded exponential
//!   backoff with jitter (no `rand`, no wall-clock entropy).
//! * [`runner`] — [`JobRuntime`]: the synchronous slice engine that
//!   rebuilds a victim bench from a spec and advances its campaign
//!   checkpoint-to-checkpoint, with deterministic fault injection.
//! * [`supervisor`] — [`Supervisor`]: the panic-isolated worker pool
//!   with retry/backoff, cooperative deadlines, a load-shedding
//!   concurrency governor, and graceful drain.
//!
//! The durability contract, end to end: SIGKILL the orchestrating
//! process at **any** instant, restart it over the same store
//! directory, and every job converges to recovered key bits
//! bit-identical to an uninterrupted run — the torture tests in
//! `tests/orchestrator.rs` enforce exactly that.

pub mod backoff;
pub mod job;
pub mod runner;
pub mod store;
pub mod supervisor;

pub use backoff::{seed_from_name, Backoff};
pub use job::{valid_name, JobSpec, JobState, JobStatus, Victim, MAX_NAME_LEN};
pub use runner::{FaultInjector, JobRuntime, SliceOutcome};
pub use store::{JobStore, RecoveryReport};
pub use supervisor::{Supervisor, SupervisorConfig};
