//! Crash-proof campaign serving for the Falcon Down reproduction.
//!
//! This crate wraps the [`falcon_dema::orch`] supervision layer in a
//! line-delimited JSON-RPC control plane, served over TCP or a Unix
//! domain socket by the `falcon_orchestrator` daemon binary:
//!
//! * [`rpc`] — the flat-JSON wire format (requests, replies, per-job
//!   status lines), parseable with `falcon_obs::parse_jsonl`;
//! * [`server`] — [`server::bind`] / [`server::serve`]:
//!   thread-per-connection dispatch against a shared supervisor;
//! * [`client`] — a small blocking [`client::Client`] used by
//!   the torture tests and CI drivers.
//!
//! # Daemon usage
//!
//! ```text
//! falcon_orchestrator --store /tmp/jobs --listen 127.0.0.1:0 \
//!     --events /tmp/jobs/events.jsonl
//! ```
//!
//! The daemon recovers the store on boot (re-adopting any jobs a crash
//! left marked running), writes its bound address to `<store>/addr` for
//! discovery, appends `orch.*` events to the JSONL stream, and serves
//! until a `drain` request. SIGKILL at any instant is safe: every state
//! transition is fsync-rename durable, so a restarted daemon resumes
//! every job from its last checkpoint and converges to bit-identical
//! results — `tests/daemon_torture.rs` kills the real binary mid-run
//! and asserts exactly that.

#![forbid(unsafe_code)]

pub mod client;
pub mod rpc;
pub mod server;

pub use client::Client;
pub use rpc::Msg;
pub use server::{bind, serve, Listener};
