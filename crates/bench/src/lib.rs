//! Shared helpers for the Falcon Down benchmark and figure harness.
//!
//! The `bin/` targets of this crate regenerate every figure and headline
//! number of the paper's evaluation (see EXPERIMENTS.md for the index),
//! plus the kernel, streaming and orchestration microbenchmarks
//! (`tableK_kernel`, `tableS_stream`, `tableO_orch`). End-to-end timing
//! lives in the separate `attackbench/` package, which reuses this
//! crate's helpers.

#![forbid(unsafe_code)]

pub mod json;
pub mod report;
pub mod setup;
