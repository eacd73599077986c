//! Constant-time verification for the Falcon Down reproduction.
//!
//! *Falcon Down* (DAC 2021) recovers FALCON signing keys from EM
//! leakage of the `FFT(c) ⊙ FFT(f)` multiplication — leakage that
//! exists because the emulated floating-point pipeline processes
//! secret-derived values. Defensive hardening of that pipeline (and of
//! the sampler feeding it) only holds if the code stays constant time
//! as it evolves; this crate enforces that with four static passes and
//! one dynamic one:
//!
//! 1. **A region lint** ([`lint`], statement-level): regions annotated
//!    `// ct: secret(…)` are checked, with **flow-sensitive** taint
//!    states (gen on tainted right-hand sides, kill on public
//!    rebindings, union-join at brace scopes) propagated across
//!    stitched multi-line statements, for secret-dependent branches,
//!    memory indexing, `/`/`%`, short-circuit booleans, and calls to
//!    non-allowlisted functions. `// ct: public(path)` declares
//!    **field-level** exemptions (`sk.logn` is public even though `sk`
//!    is secret).
//! 2. **An interprocedural taint pass** ([`graph`] + [`summary`] +
//!    [`fields`]): a lexical call graph over every workspace crate,
//!    with per-function [`summary::TaintSummary`] entries seeded from
//!    key-material types (`SigningKey`, `LdlTree`, `Secret`) — minus
//!    their `ct: public` struct fields — and region annotations, then
//!    propagated across call edges to a fixpoint with the same
//!    flow-sensitive taint state, so the same rules fire in functions
//!    nobody annotated. Propagation, these rule checks and the site map
//!    (pass 3) walk a body through one shared replay, so they read the
//!    same directives and skip the same statements. The `ct_graph`
//!    binary dumps the graph (including resolved/dropped call-edge
//!    counts) and asserts a discovery floor in CI.
//! 3. **A ranked leakage-site map** ([`sites`], `ct_sites` binary):
//!    every secret-dependent operation in every tainted function is
//!    enumerated as a [`LeakSite`] — mantissa partial-product
//!    multiplies, generic secret multiplies, variable-latency loops,
//!    div/mod, indexing, branches — classified under the `falcon-emsim`
//!    leakage model (HW/HD amplitude vs timing) and scored by word
//!    width, model class and call-graph reach. The ranking is
//!    closed-loop validated: the #1 site must be the partial-product
//!    multiply the DAC'21 CPA actually exploits, and the map must cover
//!    all 14 `ct_dyn` primitives ([`dyncheck::PRIMITIVE_FNS`]).
//! 4. **Unsafe, determinism & atomics audits** ([`audit`]): `unsafe` is
//!    allowed only in the allowlisted SIMD modules and only under a
//!    `// SAFETY:` comment (enforced at zero findings today), library
//!    code is screened for nondeterminism — `HashMap`/`HashSet`
//!    iteration in result paths, wall-clock reads, thread-id/env
//!    dependence, float reduction folds outside the pinned kernels —
//!    and cross-thread atomics in the orchestrator/server must not use
//!    `Ordering::Relaxed`.
//! 5. **A dynamic trace checker** ([`dyncheck`], `ct_dyn` binary):
//!    every `falcon-fpr` primitive runs over fixed-vs-random secret
//!    operand classes (dudect style) with the `ct-check` trace hooks
//!    armed, and the recorded control-flow signatures must be
//!    identical. The deliberately leaky [`dyncheck::fpr_mul_leaky`]
//!    fixture must be *flagged*, proving the detector works.
//!
//! The static passes read one load of the tree: [`scan::load_tree`]
//! reads, scrubs and stitches each `.rs` file once per run, and one walk
//! gives every statement its brace depth, test-code flag and
//! `ct: allow` cover. [`lint_tree`] runs passes 1, 2 and 4 over that
//! load and merges their findings.
//!
//! All static findings share one content-addressed fingerprint scheme
//! and compare against checked-in [baselines](baseline)
//! (`ct-baseline.jsonl` for violations, `ct-sites-baseline.jsonl` for
//! sites) through one [gate]: `ct_lint` and `ct_sites` fail on a
//! finding the baseline lacks and on a stale entry no finding matches;
//! `--update-baseline` prints the exact added/removed diff for review.
//! The static passes catch what never executes in a test run; the
//! dynamic pass catches what the lexer cannot see (macro-expanded or
//! callee-internal branches). Run all:
//!
//! ```text
//! cargo run -p falcon-ct --bin ct_lint -- --baseline ct-baseline.jsonl
//! cargo run -p falcon-ct --bin ct_dyn
//! cargo run -p falcon-ct --bin ct_graph -- --assert-discoveries 10
//! cargo run -p falcon-ct --bin ct_sites -- --assert-top mantissa-mul --assert-coverage
//! ```

#![forbid(unsafe_code)]

pub mod audit;
pub mod baseline;
pub mod dyncheck;
pub mod fields;
pub mod gate;
pub mod graph;
pub mod lint;
pub mod report;
pub mod rules;
pub mod scan;
pub mod secret;
pub mod sites;
pub mod summary;

pub use baseline::Baseline;
pub use fields::FieldMap;
pub use graph::CallGraph;
pub use lint::{lint_source, lint_tree, FileOutcome, Rule, TreeOutcome, Violation};
pub use rules::CallAllowlist;
pub use scan::SourceFile;
pub use secret::Secret;
pub use sites::{LeakSite, SiteKind, SiteMap};
pub use summary::TaintMap;
