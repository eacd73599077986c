//! Job specifications and per-job lifecycle state.
//!
//! A *job* is one checkpointable acquisition campaign against a seeded
//! simulated victim, plus the supervision policy that keeps it alive:
//! retry budget, per-step and per-job deadlines, backoff parameters,
//! and (for torture tests) deterministic fault injection.
//!
//! [`JobSpec`] and the evolving [`JobStatus`] have one codec each: a
//! flat JSON line, the subset [`Event::to_json`] renders and
//! [`parse_jsonl`] parses, with list fields as comma-separated strings.
//! The atomic [`JobStore`](crate::orch::JobStore) persists that line, so
//! a SIGKILL at any instant leaves a recoverable job directory, and the
//! control plane's RPC carries the same fields inside its envelope.
//! Every bound is checked on decode: the spec's by [`JobSpec::validate`],
//! which submission applies too, so a spec that is accepted reads back.

use crate::error::{Error, Result};
use crate::obs::{parse_jsonl, Event, Value};
use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN, VerifyingKey};

/// Longest accepted job name; names key the on-disk files.
pub const MAX_NAME_LEN: usize = 64;
/// Longest accepted victim seed, in bytes.
const MAX_SEED_LEN: usize = 1024;
/// Longest accepted dataset path, in bytes.
const MAX_DATASET_LEN: usize = 4096;
/// Longest `last_error` a status record holds, in bytes.
const MAX_ERROR_LEN: usize = 4096;
/// Most entries a list field holds.
const MAX_LIST_LEN: usize = 1 << 20;
/// Largest ring degree a status record describes.
const MAX_N: u64 = 1 << 10;
/// Most bytes read from one record file (two full lists fit).
pub(crate) const MAX_RECORD_BYTES: u64 = 1 << 26;

/// The full description of one orchestrated attack job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name; keys the store files and the RPC surface. Restricted
    /// to `[a-z0-9_-]` so it embeds safely in paths and JSON.
    pub name: String,
    /// Ring degree exponent of the victim (FALCON-`2^logn`).
    pub logn: u32,
    /// Measurement-chain noise sigma.
    pub noise_sigma: f64,
    /// Victim seed string: keygen, device stream and message stream
    /// seeds all derive from it, so the job is fully reproducible.
    pub seed: String,
    /// Campaign batch size (captures per step).
    pub batch_size: usize,
    /// Campaign trace budget.
    pub max_traces: usize,
    /// Campaign batches per supervision slice (checkpoint cadence).
    pub steps_per_slice: u32,
    /// Retry budget: faults beyond this park the job as degraded.
    pub max_retries: u32,
    /// Per-slice deadline in milliseconds; `0` disables it.
    pub step_deadline_ms: u64,
    /// Whole-job runtime deadline in milliseconds; `0` disables it.
    pub job_deadline_ms: u64,
    /// First-retry backoff delay.
    pub backoff_base_ms: u64,
    /// Backoff cap.
    pub backoff_cap_ms: u64,
    /// Fault injection: batch indices at which the worker panics (once
    /// per index per process) before running the batch.
    pub panic_steps: Vec<u64>,
    /// Fault injection: batch indices at which the worker stalls for
    /// [`JobSpec::stall_ms`] before the batch (deadline-overrun drills).
    pub stall_steps: Vec<u64>,
    /// Injected stall duration, in milliseconds.
    pub stall_ms: u64,
    /// Path to an archived `FDNDSET\x02` dataset. Empty (the default)
    /// runs the job against the seeded simulated victim; non-empty
    /// streams the archive through a
    /// [`StreamedDataset`](crate::stream::StreamedDataset) instead —
    /// no device, no ground truth, acquisition replaced by I/O.
    pub dataset: String,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: String::new(),
            logn: 3,
            noise_sigma: 1.0,
            seed: String::new(),
            batch_size: 60,
            max_traces: 600,
            steps_per_slice: 1,
            max_retries: 5,
            step_deadline_ms: 0,
            job_deadline_ms: 0,
            backoff_base_ms: 25,
            backoff_cap_ms: 2_000,
            panic_steps: Vec::new(),
            stall_steps: Vec::new(),
            stall_ms: 0,
            dataset: String::new(),
        }
    }
}

/// Whether `name` is a valid job name (`[a-z0-9_-]`, 1..=64 chars).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "-_".contains(c))
}

impl JobSpec {
    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] naming the violated constraint.
    pub fn validate(&self) -> Result<()> {
        if !valid_name(&self.name) {
            return Err(Error::Orchestration(format!(
                "invalid job name {:?} (want 1..={MAX_NAME_LEN} chars of [a-z0-9_-])",
                self.name
            )));
        }
        if LogN::new(self.logn).is_none() {
            return Err(Error::Orchestration(format!("unsupported logn {}", self.logn)));
        }
        if self.batch_size == 0 || self.max_traces == 0 {
            return Err(Error::Orchestration(
                "job needs a nonzero batch size and trace budget".into(),
            ));
        }
        if self.steps_per_slice == 0 {
            return Err(Error::Orchestration("steps_per_slice must be nonzero".into()));
        }
        if !self.noise_sigma.is_finite() || self.noise_sigma < 0.0 {
            return Err(Error::Orchestration("noise sigma must be finite and non-negative".into()));
        }
        for (what, len, max) in [
            ("victim seed", self.seed.len(), MAX_SEED_LEN),
            ("dataset path", self.dataset.len(), MAX_DATASET_LEN),
            ("panic-step list", self.panic_steps.len(), MAX_LIST_LEN),
            ("stall-step list", self.stall_steps.len(), MAX_LIST_LEN),
        ] {
            if len > max {
                return Err(Error::Orchestration(format!("{what} longer than {max}")));
            }
        }
        Ok(())
    }

    /// Appends the spec's fields to `e`, the job name under `"job"`.
    pub fn with_fields(&self, e: Event) -> Event {
        e.with_str("job", self.name.clone())
            .with_u64("logn", u64::from(self.logn))
            .with_f64("noise_sigma", self.noise_sigma)
            .with_str("seed", self.seed.clone())
            .with_u64("batch_size", self.batch_size as u64)
            .with_u64("max_traces", self.max_traces as u64)
            .with_u64("steps_per_slice", u64::from(self.steps_per_slice))
            .with_u64("max_retries", u64::from(self.max_retries))
            .with_u64("step_deadline_ms", self.step_deadline_ms)
            .with_u64("job_deadline_ms", self.job_deadline_ms)
            .with_u64("backoff_base_ms", self.backoff_base_ms)
            .with_u64("backoff_cap_ms", self.backoff_cap_ms)
            .with_str("panic_steps", csv(&self.panic_steps))
            .with_str("stall_steps", csv(&self.stall_steps))
            .with_u64("stall_ms", self.stall_ms)
            .with_str("dataset", self.dataset.clone())
    }

    /// Rebuilds a spec from a parsed line. `job` and `seed` are
    /// required, an absent field keeps its [`JobSpec::default`] value,
    /// and keys the spec does not own (an RPC envelope) are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] on a missing required field, a
    /// field of the wrong type or range, or an invalid resulting spec.
    pub fn from_fields(fields: &[(String, Value)]) -> Result<JobSpec> {
        let (f, d) = (Fields(fields), JobSpec::default());
        let spec = JobSpec {
            name: f.text("job", true)?,
            logn: f.num("logn", d.logn)?,
            noise_sigma: match f.get("noise_sigma") {
                None => d.noise_sigma,
                Some(Value::F64(v)) => *v,
                Some(Value::U64(v)) => *v as f64,
                Some(_) => return Err(bad_field("noise_sigma")),
            },
            seed: f.text("seed", true)?,
            batch_size: f.num("batch_size", d.batch_size)?,
            max_traces: f.num("max_traces", d.max_traces)?,
            steps_per_slice: f.num("steps_per_slice", d.steps_per_slice)?,
            max_retries: f.num("max_retries", d.max_retries)?,
            step_deadline_ms: f.num("step_deadline_ms", d.step_deadline_ms)?,
            job_deadline_ms: f.num("job_deadline_ms", d.job_deadline_ms)?,
            backoff_base_ms: f.num("backoff_base_ms", d.backoff_base_ms)?,
            backoff_cap_ms: f.num("backoff_cap_ms", d.backoff_cap_ms)?,
            panic_steps: parse_csv(&f.text("panic_steps", false)?)?,
            stall_steps: parse_csv(&f.text("stall_steps", false)?)?,
            stall_ms: f.num("stall_ms", d.stall_ms)?,
            dataset: f.text("dataset", false)?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The spec's record line.
    pub fn to_line(&self) -> String {
        self.with_fields(Event::new("spec")).to_json()
    }

    /// Decodes a line written by [`JobSpec::to_line`].
    ///
    /// # Errors
    ///
    /// As [`JobSpec::from_fields`], and on a malformed line.
    pub fn from_line(line: &str) -> Result<JobSpec> {
        JobSpec::from_fields(&parse_line(line)?)
    }

    /// Whether this job streams an archived dataset instead of driving
    /// the simulated victim.
    pub fn is_streamed(&self) -> bool {
        !self.dataset.is_empty()
    }

    /// The campaign configuration this spec drives.
    pub fn campaign_config(&self) -> crate::campaign::CampaignConfig {
        crate::campaign::CampaignConfig {
            batch_size: self.batch_size,
            max_traces: self.max_traces,
            ..Default::default()
        }
    }

    /// Ring degree.
    pub fn n(&self) -> usize {
        1usize << self.logn
    }

    /// Builds the seeded victim this job attacks: instrumented device,
    /// message stream, verifying key, and the ground-truth `FFT(f)` bits
    /// (derivable by anyone holding the spec — the victim is simulated).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] on an unsupported `logn`.
    pub fn build_victim(&self) -> Result<Victim> {
        let params = LogN::new(self.logn)
            .ok_or_else(|| Error::Orchestration(format!("unsupported logn {}", self.logn)))?;
        let mut rng = Prng::from_seed(self.seed.as_bytes());
        let kp = KeyPair::generate(params, &mut rng);
        let vk = kp.verifying_key().clone();
        let truth: Vec<u64> = kp.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, self.noise_sigma),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        let device =
            Device::new(kp.into_parts().0, chain, format!("{}/device", self.seed).as_bytes());
        let msgs = Prng::from_seed(format!("{}/msgs", self.seed).as_bytes());
        Ok(Victim { device, msgs, vk, truth })
    }
}

/// A reconstructed victim bench for one job.
pub struct Victim {
    /// The instrumented device under attack.
    pub device: Device,
    /// The deterministic message stream driving signing queries.
    pub msgs: Prng,
    /// The victim's public verifying key.
    pub vk: VerifyingKey,
    /// Ground-truth `FFT(f)` bits (the simulation makes them knowable).
    pub truth: Vec<u64>,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker (also the re-adopted state after a crash).
    #[default]
    Queued,
    /// A worker is advancing its campaign.
    Running,
    /// Paused by an operator or the load-shedding governor.
    Paused,
    /// Parked after exhausting its trace or retry budget; partial
    /// per-coefficient results remain in the checkpoint.
    Degraded,
    /// Campaign converged; recovered key bits persisted.
    Done,
    /// A non-retryable error (bad spec, unreadable checkpoint).
    Failed,
    /// Cancelled by an operator; the checkpoint is retained.
    Cancelled,
}

impl JobState {
    /// Every state, in declaration order.
    const ALL: [JobState; 7] = [
        JobState::Queued,
        JobState::Running,
        JobState::Paused,
        JobState::Degraded,
        JobState::Done,
        JobState::Failed,
        JobState::Cancelled,
    ];

    /// Lower-case wire name (`"queued"`, `"running"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Degraded => "degraded",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a wire name.
    pub fn from_str_name(s: &str) -> Option<JobState> {
        JobState::ALL.into_iter().find(|st| st.as_str() == s)
    }

    /// Whether the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// The evolving, persisted status of one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStatus {
    /// Lifecycle state.
    pub state: JobState,
    /// Faults absorbed so far (panics, typed step errors, deadline
    /// overruns).
    pub retries: u32,
    /// Supervision slices completed.
    pub slices: u64,
    /// Captures requested from the device so far.
    pub traces_requested: u64,
    /// Converged coefficients so far.
    pub recovered: u64,
    /// Ring degree (denominator for `recovered`).
    pub n: u64,
    /// Accumulated worker runtime, in milliseconds (feeds the job
    /// deadline across restarts).
    pub runtime_ms: u64,
    /// Human-readable reason for the last retry/degrade/fail, if any.
    pub last_error: String,
    /// Recovered `FFT(f)` bits; non-empty only once [`JobState::Done`].
    pub bits: Vec<u64>,
}

impl JobStatus {
    /// A fresh queued status for a job of ring degree `n`.
    pub fn queued(n: usize) -> JobStatus {
        JobStatus { n: n as u64, ..Default::default() }
    }

    /// Appends the status fields to `e`. A `last_error` longer than a
    /// record holds is cut to its first 4096 bytes.
    pub fn with_fields(&self, e: Event) -> Event {
        let last_error = &self.last_error[..self.last_error.floor_char_boundary(MAX_ERROR_LEN)];
        e.with_str("state", self.state.as_str())
            .with_u64("retries", u64::from(self.retries))
            .with_u64("slices", self.slices)
            .with_u64("traces_requested", self.traces_requested)
            .with_u64("recovered", self.recovered)
            .with_u64("n", self.n)
            .with_u64("runtime_ms", self.runtime_ms)
            .with_str("last_error", last_error)
            .with_str("bits", csv(&self.bits))
    }

    /// The status's record line.
    pub fn to_line(&self) -> String {
        self.with_fields(Event::new("status")).to_json()
    }

    /// Decodes a line written by [`JobStatus::to_line`]. `state` is
    /// required and an absent field is zero or empty.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Orchestration`] on a malformed line, a missing
    /// state, a field of the wrong type or range, or implausible
    /// dimensions.
    pub fn from_line(line: &str) -> Result<JobStatus> {
        let fields = parse_line(line)?;
        let f = Fields(&fields);
        let state = f.text("state", true)?;
        let st = JobStatus {
            state: JobState::from_str_name(&state).ok_or_else(|| bad_field("state"))?,
            retries: f.num("retries", 0)?,
            slices: f.num("slices", 0)?,
            traces_requested: f.num("traces_requested", 0)?,
            recovered: f.num("recovered", 0)?,
            n: f.num("n", 0)?,
            runtime_ms: f.num("runtime_ms", 0)?,
            last_error: f.text("last_error", false)?,
            bits: parse_csv(&f.text("bits", false)?)?,
        };
        let bits_ok = st.bits.is_empty() || st.bits.len() as u64 == st.n;
        if st.n > MAX_N || st.recovered > st.n || !bits_ok {
            return Err(Error::Orchestration("implausible n, recovered or bits count".into()));
        }
        if st.last_error.len() > MAX_ERROR_LEN {
            return Err(Error::Orchestration(format!("error message longer than {MAX_ERROR_LEN}")));
        }
        Ok(st)
    }
}

fn parse_line(line: &str) -> Result<Vec<(String, Value)>> {
    parse_jsonl(line).ok_or_else(|| Error::Orchestration("malformed record line".into()))
}

/// Renders a `u64` list as its comma-separated field value.
fn csv(vals: &[u64]) -> String {
    vals.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

/// Parses a comma-separated list field back into a `u64` list.
///
/// # Errors
///
/// Returns [`Error::Orchestration`] on a non-numeric entry or more than
/// 2^20 entries.
pub fn parse_csv(s: &str) -> Result<Vec<u64>> {
    let entries = s.split(',').filter(|_| !s.is_empty());
    if entries.clone().count() > MAX_LIST_LEN {
        return Err(Error::Orchestration(format!("list longer than {MAX_LIST_LEN}")));
    }
    let bad = |p: &str| Error::Orchestration(format!("bad list entry {p:?}"));
    entries.map(|p| p.trim().parse().map_err(|_| bad(p))).collect()
}

/// The fields of a parsed line; a lookup takes the first match.
struct Fields<'a>(&'a [(String, Value)]);

impl Fields<'_> {
    fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An unsigned field that fits `T`, or `default` when absent.
    fn num<T: TryFrom<u64>>(&self, key: &str, default: T) -> Result<T> {
        match self.get(key) {
            None => Ok(default),
            Some(Value::U64(v)) => T::try_from(*v).map_err(|_| bad_field(key)),
            Some(_) => Err(bad_field(key)),
        }
    }

    /// A string field; an absent one is empty unless `required`.
    fn text(&self, key: &str, required: bool) -> Result<String> {
        match self.get(key) {
            None if required => Err(Error::Orchestration(format!("missing field {key:?}"))),
            None => Ok(String::new()),
            Some(Value::Str(s)) => Ok(s.clone()),
            Some(_) => Err(bad_field(key)),
        }
    }
}

fn bad_field(key: &str) -> Error {
    Error::Orchestration(format!("field {key:?} has a bad type or value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            name: "torture-a".into(),
            seed: "torture seed a".into(),
            panic_steps: vec![2, 5],
            stall_steps: vec![3],
            stall_ms: 40,
            step_deadline_ms: 20,
            job_deadline_ms: 60_000,
            ..Default::default()
        }
    }

    #[test]
    fn spec_roundtrips_and_rejects_truncation() {
        let s = JobSpec { noise_sigma: 0.1 + 0.2, ..spec() };
        let line = s.to_line();
        assert_eq!(JobSpec::from_line(&line).unwrap(), s);
        for cut in 0..line.len() {
            assert!(JobSpec::from_line(&line[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn status_roundtrips_and_rejects_truncation() {
        let mut st = JobStatus::queued(8);
        st.state = JobState::Done;
        st.retries = 3;
        st.slices = 11;
        st.traces_requested = 660;
        st.recovered = 8;
        st.runtime_ms = 1234;
        st.last_error = "worker panicked on \"chunk\" 3".into();
        st.bits = vec![1, 2, 3, 4, 5, 6, 7, u64::MAX];
        let line = st.to_line();
        assert_eq!(JobStatus::from_line(&line).unwrap(), st);
        for cut in 0..line.len() {
            assert!(JobStatus::from_line(&line[..cut]).is_err(), "cut at {cut} must fail");
        }
        // An overlong error message is cut on a char boundary to fit.
        st.last_error = "\u{20ac}".repeat(2000);
        let back = JobStatus::from_line(&st.to_line()).unwrap();
        assert!(
            back.last_error.len() > MAX_ERROR_LEN - 3 && back.last_error.len() <= MAX_ERROR_LEN
        );
        assert!(st.last_error.starts_with(&back.last_error));
    }

    #[test]
    fn streamed_spec_roundtrips() {
        let s = JobSpec { dataset: "/data/capture.fdnd".into(), ..spec() };
        assert_eq!(JobSpec::from_line(&s.to_line()).unwrap(), s);
        assert!(s.is_streamed());
    }

    #[test]
    fn bad_names_and_degenerate_specs_are_rejected() {
        assert!(valid_name("job-a_1"));
        assert!(!valid_name(""));
        assert!(!valid_name("No Caps"));
        assert!(!valid_name("dots.not.ok"));
        assert!(!valid_name(&"x".repeat(65)));
        // One spec per bound, each refused by `validate` and, through
        // the line codec, by the decoder with a typed error.
        for (bound, bad) in [
            ("name", JobSpec { name: "UPPER".into(), ..spec() }),
            ("name length", JobSpec { name: "x".repeat(MAX_NAME_LEN + 1), ..spec() }),
            ("batch size", JobSpec { batch_size: 0, ..spec() }),
            ("logn", JobSpec { logn: 99, ..spec() }),
            ("noise", JobSpec { noise_sigma: f64::NAN, ..spec() }),
            ("seed", JobSpec { seed: "s".repeat(MAX_SEED_LEN + 1), ..spec() }),
            ("dataset", JobSpec { dataset: "d".repeat(MAX_DATASET_LEN + 1), ..spec() }),
            ("list", JobSpec { stall_steps: vec![0; MAX_LIST_LEN + 1], ..spec() }),
        ] {
            assert!(bad.validate().is_err(), "{bound}");
            let got = JobSpec::from_line(&bad.to_line());
            assert!(matches!(got, Err(Error::Orchestration(_))), "{bound}: {got:?}");
        }
        // Fields wider than their `u32` are refused by the decoder (the
        // first of two same-named fields wins).
        for key in ["logn", "steps_per_slice", "max_retries"] {
            let line = spec().with_fields(Event::new("spec").with_u64(key, 1 << 32)).to_json();
            let got = JobSpec::from_line(&line);
            assert!(matches!(got, Err(Error::Orchestration(_))), "{key}: {got:?}");
        }
    }

    #[test]
    fn out_of_bounds_status_records_are_rejected() {
        let long_error = "e".repeat(MAX_ERROR_LEN + 1);
        for (bound, e) in [
            ("retries", Event::new("status").with_u64("retries", 1 << 32)),
            ("n", Event::new("status").with_u64("n", MAX_N + 1)),
            ("recovered", Event::new("status").with_u64("recovered", 9)),
            ("bits", Event::new("status").with_str("bits", "1,2,3")),
            ("last_error", Event::new("status").with_str("last_error", long_error)),
        ] {
            let got = JobStatus::from_line(&JobStatus::queued(8).with_fields(e).to_json());
            assert!(matches!(got, Err(Error::Orchestration(_))), "{bound}: {got:?}");
        }
    }

    #[test]
    fn state_names_roundtrip() {
        for st in JobState::ALL {
            assert_eq!(JobState::from_str_name(st.as_str()), Some(st));
        }
        assert_eq!(JobState::from_str_name("finished"), None);
        assert!(JobState::Done.is_terminal() && !JobState::Degraded.is_terminal());
    }

    #[test]
    fn victim_construction_is_deterministic() {
        let s = spec();
        let a = s.build_victim().unwrap();
        let b = s.build_victim().unwrap();
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.truth.len(), s.n());
    }
}
