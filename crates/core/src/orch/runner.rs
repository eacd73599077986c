//! The synchronous job-advancement engine the supervisor's workers
//! drive (and torture tests drive directly).
//!
//! A [`JobRuntime`] owns everything one job needs in memory — the
//! reconstructed victim bench and the resumable campaign — and advances
//! it one *slice* (a bounded number of campaign batches) at a time,
//! checkpointing through the [`JobStore`] after every slice. Because
//! the campaign checkpoint embeds the device and message-stream
//! positions, a runtime rebuilt from any checkpoint replays the exact
//! same acquisition stream: a job that crashed at *any* boundary
//! converges to recovered key bits identical to an uninterrupted run.
//!
//! Fault injection lives here too: a [`FaultInjector`] deterministically
//! fires the panics and stalls a [`JobSpec`] asks for, so the
//! supervisor's retry/backoff/deadline machinery is exercised by tests
//! without any OS-level trickery.

use crate::campaign::{Campaign, CampaignReport, CoefficientStatus, OfflineCampaign};
use crate::error::Result;
use crate::obs;
use crate::orch::job::{JobSpec, Victim};
use crate::orch::store::JobStore;
use crate::stream::StreamedDataset;
use std::collections::BTreeSet;

/// What one supervision slice accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceOutcome {
    /// Campaign batches actually run.
    pub steps: u32,
    /// The campaign finished (converged or budget-exhausted).
    pub done: bool,
    /// Every targeted coefficient converged.
    pub complete: bool,
    /// Cumulative captures requested.
    pub traces_requested: usize,
    /// Converged coefficients so far.
    pub recovered: usize,
}

/// Per-process memory of which injected faults already fired, so a
/// retried slice passes where the first attempt deliberately failed.
/// (Intentionally *not* persisted: a restarted daemon re-fires its
/// injected faults, which is exactly what the torture tests want.)
#[derive(Debug, Default)]
pub struct FaultInjector {
    fired_panics: BTreeSet<u64>,
    fired_stalls: BTreeSet<u64>,
}

impl FaultInjector {
    /// Fires any fault the spec schedules for batch index `batch`:
    /// a stall (sleep) first, then a panic. Each index fires once per
    /// injector.
    fn fire(&mut self, spec: &JobSpec, batch: u64) {
        if spec.stall_steps.contains(&batch) && self.fired_stalls.insert(batch) {
            obs::metrics().counter("orch.injected_stalls").incr();
            std::thread::sleep(std::time::Duration::from_millis(spec.stall_ms));
        }
        if spec.panic_steps.contains(&batch) && self.fired_panics.insert(batch) {
            obs::metrics().counter("orch.injected_panics").incr();
            panic!("injected fault: panic at batch {batch} of job {}", spec.name);
        }
    }
}

/// The two acquisition engines a job can run on: a seeded simulated
/// victim (live capture), or an archived dataset streamed from disk.
enum Engine {
    /// Simulated victim, boxed: the device dwarfs the streamed variant.
    Device { victim: Box<Victim>, campaign: Campaign },
    /// Streamed archive: acquisition is a file read.
    Stream { source: StreamedDataset, campaign: OfflineCampaign },
}

/// One job's in-memory execution state: acquisition engine plus
/// campaign.
pub struct JobRuntime {
    spec: JobSpec,
    engine: Engine,
    /// Global batch index (rebuilt from the campaign report).
    batches_done: u64,
}

impl JobRuntime {
    /// Reconstructs a job's runtime: the seeded victim, or for a
    /// streamed job (`spec.dataset` non-empty) the opened archive, then
    /// the campaign resumed from the persisted checkpoint or started
    /// fresh.
    ///
    /// # Errors
    ///
    /// Propagates spec validation, dataset open, checkpoint parse and
    /// campaign construction errors.
    pub fn prepare(spec: &JobSpec, store: &JobStore) -> Result<JobRuntime> {
        spec.validate()?;
        let (ckpt, cfg) = (store.checkpoint_path(&spec.name), spec.campaign_config());
        let engine = if spec.is_streamed() {
            let source = StreamedDataset::open_default(&spec.dataset)?;
            let campaign = if ckpt.exists() {
                OfflineCampaign::resume_from_path(&source, cfg, &ckpt)?
            } else {
                OfflineCampaign::new(&source, cfg)?
            };
            Engine::Stream { source, campaign }
        } else {
            let mut victim = spec.build_victim()?;
            let campaign = if ckpt.exists() {
                Campaign::resume_from_path(cfg, &mut victim.device, &mut victim.msgs, &ckpt)?
            } else {
                Campaign::new(spec.n(), cfg)?
            };
            Engine::Device { victim: Box::new(victim), campaign }
        };
        let mut rt = JobRuntime { spec: spec.clone(), engine, batches_done: 0 };
        let (report, batch) = (rt.report(), spec.batch_size);
        // The live engine captures one batch for every pending target at
        // once, so only its last batch is short. The offline engine runs
        // each target on its own, and every target that exhausts its
        // budget ends on a short batch.
        rt.batches_done = match rt.engine {
            Engine::Device { .. } => report.traces_requested.div_ceil(batch),
            Engine::Stream { .. } => report
                .statuses
                .iter()
                .map(|s| match *s {
                    CoefficientStatus::Recovered { traces, .. }
                    | CoefficientStatus::Unconverged { traces, .. } => traces.div_ceil(batch),
                })
                .sum(),
        } as u64;
        Ok(rt)
    }

    /// The campaign's current (possibly partial) report.
    pub fn report(&self) -> CampaignReport {
        match &self.engine {
            Engine::Device { campaign, .. } => campaign.report(),
            Engine::Stream { campaign, .. } => campaign.report(),
        }
    }

    /// Ground-truth `FFT(f)` bits of the simulated victim. Empty for a
    /// streamed job: an archive carries no key material, only leakage.
    pub fn truth(&self) -> &[u64] {
        match &self.engine {
            Engine::Device { victim, .. } => &victim.truth,
            Engine::Stream { .. } => &[],
        }
    }

    /// Runs one supervision slice: up to `spec.steps_per_slice` campaign
    /// batches, with injected faults fired at their scheduled batch
    /// indices (faults fire identically on both engines — a streamed
    /// worker can panic or stall mid-read too).
    ///
    /// # Errors
    ///
    /// Propagates campaign step errors; injected panics unwind (the
    /// supervisor catches them).
    pub fn slice(&mut self, injector: &mut FaultInjector) -> Result<SliceOutcome> {
        let mut steps = 0u32;
        let mut done = false;
        for _ in 0..self.spec.steps_per_slice {
            injector.fire(&self.spec, self.batches_done);
            let (advanced, finished) = match &mut self.engine {
                Engine::Device { victim, campaign } => {
                    (campaign.step(&mut victim.device, &mut victim.msgs)?, campaign.is_done())
                }
                Engine::Stream { source, campaign } => (campaign.step(source)?, campaign.is_done()),
            };
            if advanced {
                self.batches_done += 1;
                steps += 1;
            }
            if !advanced || finished {
                done = true;
                break;
            }
        }
        let report = self.report();
        Ok(SliceOutcome {
            steps,
            done,
            complete: report.is_complete(),
            traces_requested: report.traces_requested,
            recovered: report.recovered_count(),
        })
    }

    /// Durably checkpoints the campaign through the store. A simulated
    /// job's checkpoint embeds the device and message stream positions;
    /// a streamed job's checkpoint is logical progress only.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persist`](crate::error::Error::Persist) on a
    /// failed durable write.
    pub fn checkpoint(&self, store: &JobStore) -> Result<()> {
        let path = store.checkpoint_path(&self.spec.name);
        match &self.engine {
            Engine::Device { victim, campaign } => {
                campaign.checkpoint(&victim.device, &victim.msgs, &path)
            }
            Engine::Stream { campaign, .. } => campaign.checkpoint(&path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("falcon-orch-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(name: &str) -> JobSpec {
        JobSpec { name: name.into(), seed: format!("{name} runner seed"), ..Default::default() }
    }

    #[test]
    fn uninterrupted_run_recovers_the_key() {
        let dir = tmp_dir("clean");
        let store = JobStore::open(&dir).unwrap();
        let spec = spec("runner-clean");
        let mut rt = JobRuntime::prepare(&spec, &store).unwrap();
        let mut inj = FaultInjector::default();
        loop {
            let out = rt.slice(&mut inj).unwrap();
            rt.checkpoint(&store).unwrap();
            if out.done {
                assert!(out.complete, "campaign should converge: {out:?}");
                break;
            }
        }
        let bits = rt.report().recovered_bits().unwrap();
        assert_eq!(bits, rt.truth());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_from_checkpoint_is_bit_identical() {
        let dir_a = tmp_dir("ckpt-a");
        let dir_b = tmp_dir("ckpt-b");
        let store_a = JobStore::open(&dir_a).unwrap();
        let store_b = JobStore::open(&dir_b).unwrap();
        let spec = spec("runner-ckpt");
        let mut inj = FaultInjector::default();

        // Reference: run to completion in one runtime.
        let mut reference = JobRuntime::prepare(&spec, &store_a).unwrap();
        loop {
            if reference.slice(&mut inj).unwrap().done {
                break;
            }
        }
        let want = reference.report().recovered_bits().unwrap();

        // Torture: rebuild the runtime from its checkpoint after every
        // single slice (a crash at every boundary).
        let mut done = false;
        while !done {
            let mut rt = JobRuntime::prepare(&spec, &store_b).unwrap();
            let out = rt.slice(&mut inj).unwrap();
            rt.checkpoint(&store_b).unwrap();
            done = out.done;
        }
        let rt = JobRuntime::prepare(&spec, &store_b).unwrap();
        assert_eq!(rt.report().recovered_bits().unwrap(), want);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    /// Archives a seeded FALCON-8 capture of every coefficient to
    /// `dir/capture.fdnd`; returns its path and the victim's `FFT(f)`
    /// bits.
    fn write_archive(dir: &std::path::Path, traces: usize, noise: f64) -> (PathBuf, Vec<u64>) {
        use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
        use falcon_sig::rng::Prng;
        use falcon_sig::{KeyPair, LogN};

        std::fs::create_dir_all(dir).unwrap();
        let mut rng = Prng::from_seed(b"streamed runner key");
        let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
        let truth: Vec<u64> = kp.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, noise),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        let mut dev = Device::new(kp.into_parts().0, chain, b"streamed runner dev");
        let mut msgs = Prng::from_seed(b"streamed runner msgs");
        let targets: Vec<usize> = (0..8).collect();
        let ds = crate::acquire::Dataset::collect(&mut dev, &targets, traces, &mut msgs);
        let archive = dir.join("capture.fdnd");
        crate::io::atomic_write(&archive, |w| crate::io::write_dataset(&ds, w)).unwrap();
        (archive, truth)
    }

    #[test]
    fn streamed_job_converges_and_rebuilds_bit_identically() {
        let dir = tmp_dir("streamed");
        let (archive, truth) = write_archive(&dir, 400, 1.0);

        let spec =
            JobSpec { dataset: archive.to_string_lossy().into_owned(), ..spec("runner-streamed") };
        let store = JobStore::open(dir.join("store-a")).unwrap();
        let mut rt = JobRuntime::prepare(&spec, &store).unwrap();
        assert!(rt.truth().is_empty(), "archives carry no ground truth");
        let mut inj = FaultInjector::default();
        loop {
            let out = rt.slice(&mut inj).unwrap();
            rt.checkpoint(&store).unwrap();
            if out.done {
                assert!(out.complete, "streamed campaign should converge: {out:?}");
                break;
            }
        }
        let bits = rt.report().recovered_bits().unwrap();
        assert_eq!(bits, truth, "streamed recovery must match the archived victim's key");

        // Crash-at-every-boundary torture on the streamed engine.
        let store_b = JobStore::open(dir.join("store-b")).unwrap();
        let mut done = false;
        while !done {
            let mut rt = JobRuntime::prepare(&spec, &store_b).unwrap();
            let out = rt.slice(&mut inj).unwrap();
            rt.checkpoint(&store_b).unwrap();
            done = out.done;
        }
        let rt = JobRuntime::prepare(&spec, &store_b).unwrap();
        assert_eq!(rt.report().recovered_bits().unwrap(), bits);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuilt_runtimes_keep_the_batch_index() {
        // At this noise no coefficient converges, so every target of the
        // streamed job exhausts its 100 traces in a 60 and a 40 batch:
        // counting batches from the total traces would lose one per two
        // targets after a rebuild, and shift injected faults with it.
        let dir = tmp_dir("batch-index");
        let (archive, _) = write_archive(&dir, 100, 30.0);
        let streamed = JobSpec {
            dataset: archive.to_string_lossy().into_owned(),
            ..spec("runner-batch-stream")
        };
        let (reference, store) =
            (JobStore::open(dir.join("a")).unwrap(), JobStore::open(dir.join("b")).unwrap());
        for spec in [spec("runner-batch-live"), streamed] {
            let mut inj = FaultInjector::default();
            let mut live = JobRuntime::prepare(&spec, &reference).unwrap();
            let mut done = false;
            while !done {
                done = live.slice(&mut inj).unwrap().done;
                let mut rt = JobRuntime::prepare(&spec, &store).unwrap();
                rt.slice(&mut inj).unwrap();
                rt.checkpoint(&store).unwrap();
                let rebuilt = JobRuntime::prepare(&spec, &store).unwrap();
                assert_eq!(rebuilt.batches_done, live.batches_done, "{}", spec.name);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_panic_fires_once_and_the_retry_passes() {
        let dir = tmp_dir("inject");
        let store = JobStore::open(&dir).unwrap();
        let spec = JobSpec { panic_steps: vec![1], ..spec("runner-inject") };
        let mut rt = JobRuntime::prepare(&spec, &store).unwrap();
        let mut inj = FaultInjector::default();
        rt.slice(&mut inj).unwrap();
        rt.checkpoint(&store).unwrap();
        // Batch 1 panics on first encounter…
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = catch_unwind(AssertUnwindSafe(|| rt.slice(&mut inj)));
        std::panic::set_hook(prev);
        assert!(r.is_err(), "injected panic must unwind");
        // …and the rebuilt runtime passes the same batch on retry.
        let mut rt = JobRuntime::prepare(&spec, &store).unwrap();
        let out = rt.slice(&mut inj).unwrap();
        assert_eq!(out.steps, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
