//! Electromagnetic side-channel measurement simulation for FALCON.
//!
//! The *Falcon Down* paper measures a physical ARM-Cortex-M4 running the
//! FALCON reference code with a near-field EM probe (RISC-EMP430LS), a
//! choke coil and a PicoScope 3206D. This crate replaces that bench with
//! a faithful statistical stand-in (see DESIGN.md §2):
//!
//! * [`leakage`] — the device's data-dependent emission: each
//!   micro-operation of the observed floating-point multiplication emits
//!   `α·HW(word) + β·HD(word, previous) + N(0, σ)`;
//! * [`probe`] — the acquisition chain: probe bandwidth (single-pole
//!   low-pass) and the oscilloscope's 8-bit quantisation;
//! * [`trace`] — captured traces and the deterministic sample layout of
//!   the attacked `FFT(c) ⊙ FFT(f)` region;
//! * [`device`] — the victim: holds a [`falcon_sig::SigningKey`] and
//!   produces signature traces, optionally with hiding/shuffling
//!   countermeasures;
//! * [`faults`] — deterministic acquisition faults (missed triggers,
//!   trigger jitter, glitch bursts, ADC saturation, gain drift) for
//!   exercising the attacker-side screening and campaign logic;
//! * [`ntt_leak`] — the same leakage model applied to an NTT-based
//!   implementation, for the paper's §V.C FFT-vs-NTT comparison.

#![forbid(unsafe_code)]

pub mod device;
pub mod faults;
pub mod leakage;
pub mod ntt_leak;
pub mod probe;
pub mod trace;

pub use device::{Armed, CountermeasureConfig, Device};
pub use faults::{FaultModel, FaultState};
pub use leakage::{GaussianNoise, LeakageModel};
pub use probe::{MeasurementChain, Scope};
pub use trace::{Capture, LeakClass, MulOpLayout, StepKind, Trace};
