//! The *Falcon Down* attack (Karabulut & Aysu, DAC 2021): differential
//! electromagnetic analysis of FALCON's floating-point FFT.
//!
//! The attack observes the signing computation `FFT(c) ⊙ FFT(f)` — a
//! known hashed message multiplied pointwise with the secret key's
//! transform — and recovers every 64-bit coefficient of `FFT(f)` by
//! divide-and-conquer over the emulated float's sign, exponent and
//! mantissa fields. Multiplication targets alone suffer shift-related
//! **false positives**; the novel **extend-and-prune** strategy resolves
//! them against the schoolbook multiplication's intermediate additions.
//! The inverse FFT then yields `f`, the public key yields `g = h·f`, the
//! NTRU equation yields `(F, G)`, and the adversary signs arbitrary
//! messages.
//!
//! # Quick start
//!
//! ```
//! use falcon_dema::acquire::Dataset;
//! use falcon_dema::attack::{recover_coefficient, AttackConfig};
//! use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
//! use falcon_sig::{rng::Prng, KeyPair, LogN};
//!
//! // Victim key and observed device (tiny degree for the doctest).
//! let mut rng = Prng::from_seed(b"doc seed");
//! let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
//! let chain = MeasurementChain {
//!     model: LeakageModel::hamming_weight(1.0, 0.5),
//!     lowpass: 0.0,
//!     scope: Scope { enabled: false, ..Default::default() },
//!     ..Default::default()
//! };
//! let truth = kp.signing_key().f_fft()[0].to_bits();
//! let mut device = Device::new(kp.into_parts().0, chain, b"bench");
//!
//! // Acquire traces and recover one coefficient of FFT(f).
//! let mut msgs = Prng::from_seed(b"messages");
//! let ds = Dataset::collect(&mut device, &[0], 200, &mut msgs);
//! let r = recover_coefficient(&ds, 0, &AttackConfig::default());
//! assert_eq!(r.bits, truth);
//! ```

// `deny` (not `forbid`) so the one audited exception can opt in:
// `cpa::simd` carries a module-scoped `#[allow(unsafe_code)]` for its
// std::arch intrinsics, and the falcon-ct unsafe audit holds every
// block there to a `// SAFETY:` comment. Everything else in the crate
// still refuses unsafe at compile time.
#![deny(unsafe_code)]

/// Observability substrate (re-export of the standalone `falcon-obs`
/// crate): metrics registry, timing spans and the structured event sink
/// the pipeline instrumentation below feeds. The default sink is a
/// no-op; see `falcon_dema::obs::set_sink` to stream JSONL events.
pub use falcon_obs as obs;

pub mod acquire;
pub mod attack;
pub mod campaign;
pub mod confidence;
pub mod countermeasure;
pub mod cpa;
pub mod error;
pub mod exec;
pub mod ingest;
pub mod io;
pub mod model;
pub mod ntt_attack;
pub mod orch;
pub mod recover;
pub mod screen;
pub mod source;
pub mod stream;
pub mod template;

pub use acquire::Dataset;
pub use attack::recover_sign_exponent;
pub use attack::{
    recover_coefficient, recover_mantissa_half_monolithic, AttackConfig, CoefficientResult,
    ComponentResult,
};
pub use campaign::{Campaign, CampaignConfig, CampaignReport, CoefficientStatus, OfflineCampaign};
pub use error::{Error, Result};
pub use orch::{JobSpec, JobState, JobStatus, JobStore, Supervisor, SupervisorConfig};
pub use recover::{invert_fft_f, key_from_fft_bits, recover_private_key, RecoveredKey};
pub use screen::{AcquisitionStats, ScreenConfig};
pub use source::{ColumnSource, TargetBlock};
pub use stream::StreamedDataset;
