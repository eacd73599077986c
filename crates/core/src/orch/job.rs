//! Job specifications and per-job lifecycle state.
//!
//! A *job* is one checkpointable acquisition campaign against a seeded
//! simulated victim, plus the supervision policy that keeps it alive:
//! retry budget, per-step and per-job deadlines, backoff parameters,
//! and (for torture tests) deterministic fault injection. Both the
//! [`JobSpec`] and the evolving [`JobStatus`] serialise in the same
//! versioned little-endian binary style as datasets and campaign
//! checkpoints, and are persisted through the atomic
//! [`JobStore`](crate::orch::JobStore) so a SIGKILL at any instant
//! leaves a recoverable job directory.

use crate::error::{Error, Result};
use crate::io;
use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN, VerifyingKey};
use std::io::{Read, Write};

const SPEC_HEAD: &[u8; 8] = b"FDNJSPC\x03";
const STATE_HEAD: &[u8; 8] = b"FDNJSTA\x01";

/// Longest accepted job name; names key the on-disk files.
pub const MAX_NAME_LEN: usize = 64;

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
        Ok(())
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

    /// Serialises the spec.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write<W: Write>(&self, mut w: W) -> Result<()> {
        w.write_all(SPEC_HEAD)?;
        write_str(&mut w, &self.name)?;
        w.write_all(&u64::from(self.logn).to_le_bytes())?;
        w.write_all(&self.noise_sigma.to_le_bytes())?;
        write_str(&mut w, &self.seed)?;
        for v in [
            self.batch_size as u64,
            self.max_traces as u64,
            u64::from(self.steps_per_slice),
            u64::from(self.max_retries),
            self.step_deadline_ms,
            self.job_deadline_ms,
            self.backoff_base_ms,
            self.backoff_cap_ms,
        ] {
            w.write_all(&v.to_le_bytes())?;
        }
        write_u64_list(&mut w, &self.panic_steps)?;
        write_u64_list(&mut w, &self.stall_steps)?;
        w.write_all(&self.stall_ms.to_le_bytes())?;
        write_str(&mut w, &self.dataset)?;
        Ok(())
    }

    /// Deserialises a spec written by [`JobSpec::write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] / [`Error::UnsupportedVersion`] on
    /// malformed input, [`Error::Io`] on truncation.
    pub fn read<R: Read>(mut r: R) -> Result<JobSpec> {
        io::read_head(&mut r, SPEC_HEAD, "job spec")?;
        let name = read_str(&mut r, MAX_NAME_LEN, "job name")?;
        let logn = u32::try_from(io::read_u64(&mut r)?)
            .map_err(|_| io::bad("implausible ring-degree exponent"))?;
        let noise_sigma = f64::from_bits(io::read_u64(&mut r)?);
        let seed = read_str(&mut r, 1024, "victim seed")?;
        let batch_size = io::checked_count(io::read_u64(&mut r)?, "batch size")?;
        let max_traces = io::checked_count(io::read_u64(&mut r)?, "trace budget")?;
        let steps_per_slice = u32::try_from(io::read_u64(&mut r)?)
            .map_err(|_| io::bad("implausible slice length"))?;
        let max_retries = u32::try_from(io::read_u64(&mut r)?)
            .map_err(|_| io::bad("implausible retry budget"))?;
        let step_deadline_ms = io::read_u64(&mut r)?;
        let job_deadline_ms = io::read_u64(&mut r)?;
        let backoff_base_ms = io::read_u64(&mut r)?;
        let backoff_cap_ms = io::read_u64(&mut r)?;
        let panic_steps = read_u64_list(&mut r, "panic-step list")?;
        let stall_steps = read_u64_list(&mut r, "stall-step list")?;
        let stall_ms = io::read_u64(&mut r)?;
        let dataset = read_str(&mut r, 4096, "dataset path")?;
        let spec = JobSpec {
            name,
            logn,
            noise_sigma,
            seed,
            batch_size,
            max_traces,
            steps_per_slice,
            max_retries,
            step_deadline_ms,
            job_deadline_ms,
            backoff_base_ms,
            backoff_cap_ms,
            panic_steps,
            stall_steps,
            stall_ms,
            dataset,
        };
        spec.validate()?;
        Ok(spec)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker (also the re-adopted state after a crash).
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
    /// Stable on-disk / wire tag.
    pub fn tag(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Paused => 2,
            JobState::Degraded => 3,
            JobState::Done => 4,
            JobState::Failed => 5,
            JobState::Cancelled => 6,
        }
    }

    /// Parses a tag.
    pub fn from_tag(tag: u8) -> Option<JobState> {
        Some(match tag {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Paused,
            3 => JobState::Degraded,
            4 => JobState::Done,
            5 => JobState::Failed,
            6 => JobState::Cancelled,
            _ => return None,
        })
    }

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
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "paused" => JobState::Paused,
            "degraded" => JobState::Degraded,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// Whether the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// The evolving, persisted status of one job.
#[derive(Debug, Clone, PartialEq)]
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
        JobStatus {
            state: JobState::Queued,
            retries: 0,
            slices: 0,
            traces_requested: 0,
            recovered: 0,
            n: n as u64,
            runtime_ms: 0,
            last_error: String::new(),
            bits: Vec::new(),
        }
    }

    /// Serialises the status.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write<W: Write>(&self, mut w: W) -> Result<()> {
        w.write_all(STATE_HEAD)?;
        w.write_all(&[self.state.tag()])?;
        for v in [
            u64::from(self.retries),
            self.slices,
            self.traces_requested,
            self.recovered,
            self.n,
            self.runtime_ms,
        ] {
            w.write_all(&v.to_le_bytes())?;
        }
        write_str(&mut w, &self.last_error)?;
        write_u64_list(&mut w, &self.bits)?;
        Ok(())
    }

    /// Deserialises a status written by [`JobStatus::write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] / [`Error::UnsupportedVersion`] on
    /// malformed input, [`Error::Io`] on truncation.
    pub fn read<R: Read>(mut r: R) -> Result<JobStatus> {
        io::read_head(&mut r, STATE_HEAD, "job status")?;
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let state = JobState::from_tag(tag[0]).ok_or_else(|| io::bad("malformed job state"))?;
        let retries =
            u32::try_from(io::read_u64(&mut r)?).map_err(|_| io::bad("implausible retry count"))?;
        let slices = io::read_u64(&mut r)?;
        let traces_requested = io::read_u64(&mut r)?;
        let recovered = io::read_u64(&mut r)?;
        let n = io::read_u64(&mut r)?;
        if n > 1 << 10 || recovered > n {
            return Err(io::bad("implausible job dimensions"));
        }
        let runtime_ms = io::read_u64(&mut r)?;
        let last_error = read_str(&mut r, 4096, "error message")?;
        let bits = read_u64_list(&mut r, "recovered bits")?;
        if !bits.is_empty() && bits.len() as u64 != n {
            return Err(io::bad("recovered-bit count does not match the ring degree"));
        }
        Ok(JobStatus {
            state,
            retries,
            slices,
            traces_requested,
            recovered,
            n,
            runtime_ms,
            last_error,
            bits,
        })
    }
}

fn write_str<W: Write>(w: &mut W, s: &str) -> Result<()> {
    w.write_all(&(s.len() as u64).to_le_bytes())?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

fn read_str<R: Read>(r: &mut R, max: usize, what: &str) -> Result<String> {
    let len = io::checked_count(io::read_u64(r)?, what)?;
    if len > max {
        return Err(io::bad(&format!("{what} longer than {max} bytes")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| io::bad(&format!("{what} is not valid UTF-8")))
}

fn write_u64_list<W: Write>(w: &mut W, vals: &[u64]) -> Result<()> {
    w.write_all(&(vals.len() as u64).to_le_bytes())?;
    for &v in vals {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_u64_list<R: Read>(r: &mut R, what: &str) -> Result<Vec<u64>> {
    let count = io::checked_count(io::read_u64(r)?, what)?;
    if count > 1 << 20 {
        return Err(io::bad(&format!("{what} is implausibly long")));
    }
    let mut out = Vec::with_capacity(count.min(1 << 12));
    for _ in 0..count {
        out.push(io::read_u64(r)?);
    }
    Ok(out)
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
        let s = spec();
        let mut buf = Vec::new();
        s.write(&mut buf).unwrap();
        assert_eq!(JobSpec::read(&buf[..]).unwrap(), s);
        for cut in 0..buf.len() {
            assert!(JobSpec::read(&buf[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut future = buf.clone();
        future[7] = 9;
        assert!(matches!(
            JobSpec::read(&future[..]),
            Err(Error::UnsupportedVersion { found: 9, .. })
        ));
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
        st.last_error = "worker panicked on chunk 3".into();
        st.bits = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let mut buf = Vec::new();
        st.write(&mut buf).unwrap();
        assert_eq!(JobStatus::read(&buf[..]).unwrap(), st);
        for cut in 0..buf.len() {
            assert!(JobStatus::read(&buf[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn streamed_spec_roundtrips() {
        let s = JobSpec { dataset: "/data/capture.fdnd".into(), ..spec() };
        let mut buf = Vec::new();
        s.write(&mut buf).unwrap();
        assert_eq!(JobSpec::read(&buf[..]).unwrap(), s);
        assert!(s.is_streamed());
    }

    #[test]
    fn v1_specs_are_rejected_as_unsupported() {
        // A v1 spec lacks the streamed-dataset field and a v2 spec
        // carries two retired ring fields: the reader names the version
        // rather than guessing at either layout.
        for old in [1u8, 2] {
            let mut buf = Vec::new();
            spec().write(&mut buf).unwrap();
            buf[7] = old;
            assert!(matches!(
                JobSpec::read(&buf[..]),
                Err(Error::UnsupportedVersion { found, supported: 3 }) if found == u32::from(old)
            ));
        }
    }

    #[test]
    fn bad_names_and_degenerate_specs_are_rejected() {
        assert!(valid_name("job-a_1"));
        assert!(!valid_name(""));
        assert!(!valid_name("No Caps"));
        assert!(!valid_name("dots.not.ok"));
        assert!(!valid_name(&"x".repeat(65)));
        let mut s = spec();
        s.name = "UPPER".into();
        assert!(s.validate().is_err());
        let mut s = spec();
        s.batch_size = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.logn = 99;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.noise_sigma = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn state_tags_and_names_roundtrip() {
        for st in [
            JobState::Queued,
            JobState::Running,
            JobState::Paused,
            JobState::Degraded,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::from_tag(st.tag()), Some(st));
            assert_eq!(JobState::from_str_name(st.as_str()), Some(st));
        }
        assert_eq!(JobState::from_tag(99), None);
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
