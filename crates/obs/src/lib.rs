//! Observability substrate for the Falcon Down attack pipeline.
//!
//! The paper's evaluation is an exercise in *per-stage accounting*:
//! trace counts, screening drop rates, per-coefficient convergence and
//! extend-and-prune candidate-set sizes are its headline numbers. This
//! crate gives the acquire → screen → campaign → attack pipeline a
//! machine-readable substrate for exactly that accounting, with three
//! deliberately small pieces:
//!
//! * [`registry`] — a process-wide metrics registry of named
//!   [`Counter`]s, [`Gauge`]s and monotonic [`Histogram`]s, snapshotted
//!   into deterministic [`MetricsSnapshot`]s (sorted keys) so benchmark
//!   harnesses can diff before/after states per pipeline stage;
//! * [`mod@span`] — scoped wall-clock timing: a [`span`](span()) guard
//!   records its lifetime into a `span.<name>` duration histogram and,
//!   when a sink is installed, emits a structured event with its
//!   thread-local nesting depth;
//! * [`sink`] + [`event`] — a structured event stream: [`Event`]s are
//!   flat key/value records rendered as one JSON object per line
//!   ([`JsonlSink`]), with a **zero-cost no-op default**: when no sink
//!   is installed (the initial state), [`emit`] is a single relaxed
//!   atomic load and the event closure is never even invoked.
//!
//! Everything is `std`-only (no registry dependencies — the build
//! environment is offline) and thread-safe: counters and histogram
//! buckets are atomics, so the `thread::scope` fan-outs of the attack
//! can bump them without coordination.
//!
//! # Cost model
//!
//! Instrumentation is placed at *stage* granularity (per capture, per
//! batch, per beam level), never inside the Pearson accumulation loops.
//! Every primitive operation (counter add, histogram record, span drop,
//! event emit check) additionally bumps one global op counter,
//! [`ops`](ops()), so a harness can bound the instrumentation overhead
//! of a measured region as `ops_delta × ns_per_op / wall` — the
//! workspace's `tests/robustness.rs` asserts that bound stays below 1 %
//! of a seeded campaign's attack stage under the no-op sink.
//!
//! ```
//! use falcon_obs as obs;
//! use std::sync::Arc;
//!
//! // Metrics are always on (and cheap).
//! obs::counter("demo.widgets").add(3);
//!
//! // Events are off by default; install a sink to capture them.
//! let mem = Arc::new(obs::MemorySink::default());
//! obs::set_sink(mem.clone());
//! {
//!     let _s = obs::span("demo.stage");
//!     obs::emit(|| obs::Event::new("demo.progress").with_u64("done", 1));
//! }
//! obs::clear_sink();
//! assert_eq!(mem.len(), 2); // the event plus the span's own record
//! assert!(obs::metrics().snapshot().counters["demo.widgets"] >= 3);
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod registry;
pub mod sink;
pub mod span;

pub use event::{parse_jsonl, Event, Value};
pub use registry::{
    counter, duration_bounds, gauge, histogram, metrics, Counter, Gauge, Histogram,
    HistogramSnapshot, Metrics, MetricsSnapshot,
};
pub use sink::{
    clear_sink, emit, set_sink, sink_enabled, EventSink, JsonlSink, MemorySink, NoopSink,
};
pub use span::{span, span_depth, Span};

use std::sync::atomic::{AtomicU64, Ordering};

/// Global count of observability primitive operations (counter adds,
/// gauge sets, histogram records, span drops, event emit checks).
static OPS: AtomicU64 = AtomicU64::new(0);

/// Bumps the global op counter; called once per primitive operation.
#[inline]
pub(crate) fn note_op() {
    OPS.fetch_add(1, Ordering::Relaxed);
}

/// Total observability primitive operations performed by this process so
/// far. Diff two readings around a measured region and multiply by a
/// microbenchmarked per-op cost to bound the instrumentation overhead of
/// that region.
pub fn ops() -> u64 {
    OPS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests;
