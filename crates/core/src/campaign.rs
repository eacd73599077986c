//! Adaptive acquisition campaigns with convergence tracking and
//! checkpoint/resume.
//!
//! The fixed-trace-count experiments elsewhere in this crate answer "how
//! many traces does the attack need"; a real adversary runs the question
//! in reverse: acquire in batches, watch each coefficient's winning
//! guess, and stop spending traces on a coefficient the moment its
//! winner clears the 99.99 % confidence threshold (see
//! [`crate::confidence`]) and stays put.
//!
//! One private convergence core serves both engines: config and target
//! checks, a tracker per coefficient, the [`CampaignReport`], the
//! tracker fields of both checkpoint formats and the checkpoint/resume
//! plumbing. The engines keep their own trace data and step policy:
//!
//! * [`Campaign`] captures live through the screened
//!   [`Dataset::collect_screened`](crate::screen); each batch serves
//!   *every* pending coefficient, because one capture leaks them all.
//!   Its checkpoint (`FDNCKPT\x01`) embeds the data and the device and
//!   message-stream positions, so a killed campaign resumes bit-for-bit.
//! * [`OfflineCampaign`] replays an archive *one target at a time*,
//!   which keeps a streamed archive to one target block in memory. Its
//!   checkpoint (`FDNOCKP\x01`) records logical progress only.
//!
//! Both step policies stay for those reasons. Folding the engines'
//! duplicated code into the core cut 102 lines net from this module and
//! `orch::runner`; both checkpoint formats are unchanged byte for byte.

use crate::acquire::Dataset;
use crate::attack::{coefficient_confidence, recover_coefficient, AttackConfig};
use crate::confidence;
use crate::error::{Error, Result};
use crate::io;
use crate::obs;
use crate::screen::{AcquisitionStats, ScreenConfig};
use crate::source::ColumnSource;
use falcon_emsim::Device;
use falcon_sig::rng::Prng;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// Magic and version of the live checkpoint format.
const CKPT_HEAD: &[u8; 8] = b"FDNCKPT\x01";
/// Magic and version of the offline (logical) checkpoint format.
const OCKPT_HEAD: &[u8; 8] = b"FDNOCKP\x01";

/// Campaign policy: batching, budget, convergence rule, screening.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Targeted flat `FFT(f)` indices; empty means every index `0..n`.
    pub targets: Vec<usize>,
    /// Captures requested from the device per batch.
    pub batch_size: usize,
    /// Total capture budget (requested captures, not kept traces).
    pub max_traces: usize,
    /// A winner converges when its confidence exceeds `margin` times the
    /// 99.99 % threshold for the accumulated trace count.
    pub margin: f64,
    /// Consecutive batch evaluations the winner must clear the margin
    /// with unchanged bits before the coefficient is declared recovered.
    pub stable_batches: usize,
    /// Extend-and-prune parameters for the per-batch re-attack.
    pub attack: AttackConfig,
    /// Trace screening; `None` keeps every full-length capture
    /// unscreened (the robustness baseline).
    pub screen: Option<ScreenConfig>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            targets: Vec::new(),
            batch_size: 100,
            max_traces: 5000,
            margin: 1.2,
            stable_batches: 2,
            attack: AttackConfig::default(),
            screen: Some(ScreenConfig::default()),
        }
    }
}

/// Final state of one targeted coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoefficientStatus {
    /// The winner cleared the confidence margin with stable bits.
    Recovered {
        /// Targeted flat index.
        target: usize,
        /// Recovered 64-bit coefficient of `FFT(f)`.
        bits: u64,
        /// Exact-model confidence of the winner at convergence.
        confidence: f64,
        /// Kept traces accumulated when the coefficient converged.
        traces: usize,
    },
    /// The budget ran out first; the current best guess is reported.
    Unconverged {
        /// Targeted flat index.
        target: usize,
        /// Best guess so far (`0` when never evaluated).
        best_bits: u64,
        /// Its latest exact-model confidence.
        confidence: f64,
        /// Kept traces accumulated for this coefficient.
        traces: usize,
    },
}

impl CoefficientStatus {
    /// The targeted index.
    pub fn target(&self) -> usize {
        match *self {
            CoefficientStatus::Recovered { target, .. }
            | CoefficientStatus::Unconverged { target, .. } => target,
        }
    }

    /// The (best) recovered bits.
    pub fn bits(&self) -> u64 {
        match *self {
            CoefficientStatus::Recovered { bits, .. } => bits,
            CoefficientStatus::Unconverged { best_bits, .. } => best_bits,
        }
    }

    /// Whether the coefficient converged.
    pub fn is_recovered(&self) -> bool {
        matches!(self, CoefficientStatus::Recovered { .. })
    }
}

/// The (possibly partial) outcome of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Ring degree.
    pub n: usize,
    /// Per-coefficient outcomes, in target order.
    pub statuses: Vec<CoefficientStatus>,
    /// Captures requested from the device over the whole campaign.
    pub traces_requested: usize,
    /// Acquisition accounting across every batch.
    pub stats: AcquisitionStats,
}

impl CampaignReport {
    /// True when every targeted coefficient converged.
    pub fn is_complete(&self) -> bool {
        self.statuses.iter().all(CoefficientStatus::is_recovered)
    }

    /// Number of recovered coefficients.
    pub fn recovered_count(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_recovered()).count()
    }

    /// The full `FFT(f)` bit vector when the campaign targeted all of
    /// `0..n` and every coefficient converged — the input to
    /// [`crate::recover::key_from_fft_bits`]. `None` otherwise.
    pub fn recovered_bits(&self) -> Option<Vec<u64>> {
        if !self.is_complete() || self.statuses.len() != self.n {
            return None;
        }
        let mut bits = vec![0u64; self.n];
        for s in &self.statuses {
            if s.target() >= self.n {
                return None;
            }
            bits[s.target()] = s.bits();
        }
        Some(bits)
    }
}

/// Convergence tracking for one coefficient. It holds no trace data:
/// each engine keeps its own and lends [`TargetState::evaluate`] the
/// prefix to score.
#[derive(Debug, Clone, Default)]
struct TargetState {
    target: usize,
    /// Traces evaluated so far: kept captures on the live engine, the
    /// revealed archive prefix offline.
    traces: usize,
    /// Winner of the previous evaluation.
    last_bits: Option<u64>,
    /// Latest exact-model confidence of the winner.
    confidence: f64,
    /// Consecutive evaluations the winner cleared the margin unchanged.
    stable: usize,
    /// Set once the coefficient converges: (bits, confidence, traces).
    resolved: Option<(u64, f64, usize)>,
}

impl TargetState {
    /// Re-attacks the coefficient on `data`, every trace accumulated for
    /// it so far, and advances the tracker.
    fn evaluate(&mut self, data: &Dataset, cfg: &CampaignConfig) {
        let traces = data.traces();
        self.traces = traces;
        // tanh thresholds need d > 3; a handful of traces cannot clear a
        // 99.99 % bar anyway, so skip the (expensive) re-attack entirely.
        if traces < 8 {
            return;
        }
        let r = recover_coefficient(data, self.target, &cfg.attack);
        let conf = coefficient_confidence(data, self.target, r.bits);
        self.confidence = conf;
        let cleared = conf >= cfg.margin * confidence::threshold_9999(traces as u64);
        self.stable = match (cleared, self.last_bits == Some(r.bits)) {
            (false, _) => 0,
            (true, true) => self.stable + 1,
            (true, false) => 1,
        };
        self.last_bits = Some(r.bits);
        if self.stable >= cfg.stable_batches {
            self.resolved = Some((r.bits, conf, traces));
            obs::metrics().counter("campaign.converged").incr();
            let (target, bits) = (self.target, r.bits);
            obs::emit(|| {
                obs::Event::new("campaign.converged")
                    .with_u64("target", target as u64)
                    .with_u64("bits", bits)
                    .with_f64("confidence", conf)
                    .with_u64("traces", traces as u64)
            });
        }
    }

    /// Writes the tracker fields both checkpoint formats share, in
    /// their common order: resolution, winner, confidence, stability.
    fn write_tracker<W: Write + ?Sized>(&self, w: &mut W) -> Result<()> {
        match self.resolved {
            Some((bits, conf, traces)) => {
                w.write_all(&[1])?;
                w.write_all(&bits.to_le_bytes())?;
                w.write_all(&conf.to_le_bytes())?;
                put(w, &[traces])?;
            }
            None => w.write_all(&[0])?,
        }
        match self.last_bits {
            Some(b) => {
                w.write_all(&[1])?;
                w.write_all(&b.to_le_bytes())?;
            }
            None => w.write_all(&[0])?,
        }
        w.write_all(&self.confidence.to_le_bytes())?;
        put(w, &[self.stable])
    }

    /// Reads the fields [`TargetState::write_tracker`] wrote.
    fn read_tracker<R: Read>(&mut self, r: &mut R) -> Result<()> {
        self.resolved = match read_u8(r)? {
            0 => None,
            1 => {
                let bits = io::read_u64(r)?;
                let conf = f64::from_bits(io::read_u64(r)?);
                let [traces] = take(r, "trace count")?;
                Some((bits, conf, traces))
            }
            _ => return Err(io::bad("malformed resolution flag")),
        };
        self.last_bits = match read_u8(r)? {
            0 => None,
            1 => Some(io::read_u64(r)?),
            _ => return Err(io::bad("malformed winner flag")),
        };
        self.confidence = f64::from_bits(io::read_u64(r)?);
        [self.stable] = take(r, "stability counter")?;
        Ok(())
    }
}

/// The convergence core under both engines: the config, one tracker
/// per target and the progress counters, plus everything derived from
/// them alone (report, checkpoint plumbing, resume accounting).
#[derive(Debug, Clone)]
struct Core {
    cfg: CampaignConfig,
    n: usize,
    states: Vec<TargetState>,
    traces_requested: usize,
    /// Acquisition accounting; all zero on an archive, whose screening
    /// happened (if ever) before it was written.
    stats: AcquisitionStats,
}

impl Core {
    /// Checks the config and builds one tracker per target. Empty
    /// `cfg.targets` means every target of `directory`, the targets the
    /// engine can acquire; an explicit target must be one of them.
    fn new(n: usize, cfg: CampaignConfig, directory: &[usize]) -> Result<Core> {
        if cfg.batch_size == 0 || cfg.max_traces == 0 {
            return Err(Error::Acquisition(
                "campaign needs a nonzero batch size and trace budget".into(),
            ));
        }
        let targets = if cfg.targets.is_empty() { directory } else { &cfg.targets[..] };
        let states = targets
            .iter()
            .map(|&t| match directory.contains(&t) {
                true => Ok(TargetState { target: t, ..Default::default() }),
                false if t >= n => Err(Error::TargetOutOfRange { target: t, n }),
                false => Err(Error::TargetNotInDataset { target: t }),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Core { cfg, n, states, traces_requested: 0, stats: AcquisitionStats::default() })
    }

    /// Targets not yet converged.
    fn pending(&self) -> usize {
        self.states.iter().filter(|s| s.resolved.is_none()).count()
    }

    fn report(&self) -> CampaignReport {
        let statuses = self
            .states
            .iter()
            .map(|s| match s.resolved {
                Some((bits, confidence, traces)) => {
                    CoefficientStatus::Recovered { target: s.target, bits, confidence, traces }
                }
                None => CoefficientStatus::Unconverged {
                    target: s.target,
                    best_bits: s.last_bits.unwrap_or(0),
                    confidence: s.confidence,
                    traces: s.traces,
                },
            })
            .collect();
        let (n, traces_requested, stats) = (self.n, self.traces_requested, self.stats);
        CampaignReport { n, statuses, traces_requested, stats }
    }

    /// Rejects resumed trackers whose trace counts cannot come from a
    /// real run: more traces than `bound`, or a convergence recorded at
    /// more traces than the tracker has seen.
    fn check_traces(&self, bound: usize) -> Result<()> {
        let bad = |s: &TargetState| s.traces > bound || s.resolved.is_some_and(|r| r.2 > s.traces);
        match self.states.iter().any(bad) {
            true => Err(io::bad("checkpoint trace count out of range")),
            false => Ok(()),
        }
    }

    /// Writes a checkpoint through `fill` to `path` atomically and
    /// durably (see [`io::atomic_write`]).
    fn persist<F>(&self, path: &Path, fill: F) -> Result<()>
    where
        F: FnOnce(&mut dyn Write) -> Result<()>,
    {
        let ckpt_span = obs::span("campaign.checkpoint");
        io::atomic_write(path, fill)?;
        drop(ckpt_span);
        obs::emit(|| {
            self.event("campaign.checkpoint").with_str("path", path.display().to_string())
        });
        Ok(())
    }

    /// Counts and announces a successful resume.
    fn note_resume(&self) {
        obs::metrics().counter("campaign.resumes").incr();
        obs::emit(|| self.event("campaign.resume"));
    }

    /// An event carrying the progress counters.
    fn event(&self, name: &'static str) -> obs::Event {
        obs::Event::new(name)
            .with_u64("traces_requested", self.traces_requested as u64)
            .with_u64("pending_targets", self.pending() as u64)
    }
}

/// Writes counts as little-endian u64 words.
fn put<W: Write + ?Sized>(w: &mut W, counts: &[usize]) -> Result<()> {
    for &c in counts {
        w.write_all(&(c as u64).to_le_bytes())?;
    }
    Ok(())
}

/// Reads `N` counts written by [`put`].
fn take<R: Read, const N: usize>(r: &mut R, what: &str) -> Result<[usize; N]> {
    let mut counts = [0; N];
    for c in &mut counts {
        *c = io::checked_count(io::read_u64(r)?, what)?;
    }
    Ok(counts)
}

/// Writes a length-prefixed stream state (device or message generator).
fn put_state<W: Write + ?Sized>(w: &mut W, state: &[u8]) -> Result<()> {
    put(w, &[state.len()])?;
    Ok(w.write_all(state)?)
}

/// Reads a stream state written by [`put_state`]; its length must be `N`.
fn take_state<R: Read, const N: usize>(r: &mut R, what: &str) -> Result<[u8; N]> {
    if take(r, what)? != [N] {
        return Err(io::bad(&format!("{what} length mismatch")));
    }
    let mut state = [0u8; N];
    r.read_exact(&mut state)?;
    Ok(state)
}

/// An adaptive, checkpointable acquisition-and-attack campaign against
/// a live device.
#[derive(Debug, Clone)]
pub struct Campaign {
    core: Core,
    /// Accumulated single-target datasets, parallel to `core.states`.
    data: Vec<Dataset>,
}

impl Campaign {
    /// Prepares a campaign against a device of ring degree `n`.
    ///
    /// # Errors
    ///
    /// Returns a typed error when the config is degenerate (zero batch
    /// size, no budget) or a target is out of range.
    pub fn new(n: usize, cfg: CampaignConfig) -> Result<Campaign> {
        let core = Core::new(n, cfg, &(0..n).collect::<Vec<_>>())?;
        let data =
            core.states.iter().map(|s| Dataset::empty(n, &[s.target])).collect::<Result<_>>()?;
        Ok(Campaign { core, data })
    }

    /// Captures requested so far.
    pub fn traces_requested(&self) -> usize {
        self.core.traces_requested
    }

    /// True when every coefficient converged or the budget is spent.
    pub fn is_done(&self) -> bool {
        self.core.traces_requested >= self.core.cfg.max_traces || self.core.pending() == 0
    }

    /// Runs one batch: acquires traces for the still-unconverged
    /// coefficients only (top-up), re-attacks each and updates its
    /// convergence tracker. Returns `false` without touching the device
    /// when the campaign is already done.
    ///
    /// # Errors
    ///
    /// Propagates acquisition/bookkeeping errors; the campaign is left
    /// in its pre-batch state in that case only if the error occurred
    /// during acquisition (evaluation is infallible).
    pub fn step(&mut self, device: &mut Device, msg_rng: &mut Prng) -> Result<bool> {
        if self.is_done() {
            return Ok(false);
        }
        let _batch_span = obs::span("campaign.batch");
        let core = &mut self.core;
        let pending: Vec<usize> =
            core.states.iter().filter(|s| s.resolved.is_none()).map(|s| s.target).collect();
        let batch = core.cfg.batch_size.min(core.cfg.max_traces - core.traces_requested);
        let (ds, stats) = {
            let _acquire_span = obs::span("campaign.acquire");
            Dataset::collect_screened(device, &pending, batch, msg_rng, core.cfg.screen.as_ref())?
        };
        core.traces_requested += batch;
        core.stats.merge(&stats);
        {
            let _eval_span = obs::span("campaign.evaluate");
            for (state, data) in core.states.iter_mut().zip(&mut self.data) {
                if state.resolved.is_none() {
                    data.append(&ds.select_targets(&[state.target])?)?;
                    state.evaluate(data, &core.cfg);
                }
            }
        }
        obs::metrics().counter("campaign.batches").incr();
        Ok(true)
    }

    /// Drives [`Campaign::step`] until done and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates the first batch error.
    pub fn run(&mut self, device: &mut Device, msg_rng: &mut Prng) -> Result<CampaignReport> {
        while self.step(device, msg_rng)? {}
        Ok(self.report())
    }

    /// The campaign's current (possibly partial) outcome.
    pub fn report(&self) -> CampaignReport {
        self.core.report()
    }

    /// Serialises the campaign state — progress counters, per-target
    /// accumulated data and convergence trackers, plus the evolving
    /// device and message-generator streams — in the versioned
    /// checkpoint format. The static configuration (key, chain,
    /// [`CampaignConfig`]) is *not* stored: resuming reconstructs those
    /// and restores this state on top.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_checkpoint<W: Write>(
        &self,
        device: &Device,
        msg_rng: &Prng,
        mut w: W,
    ) -> Result<()> {
        let core = &self.core;
        w.write_all(CKPT_HEAD)?;
        put(&mut w, &[core.n, core.traces_requested])?;
        let mut stats = core.stats;
        put(&mut w, &stats_fields(&mut stats).map(|v| *v))?;
        put_state(&mut w, &device.export_state())?;
        put_state(&mut w, &msg_rng.export_state())?;
        put(&mut w, &[core.states.len()])?;
        for (s, data) in core.states.iter().zip(&self.data) {
            put(&mut w, &[s.target])?;
            s.write_tracker(&mut w)?;
            io::write_dataset(data, &mut w)?;
        }
        Ok(())
    }

    /// Checkpoints to `path` atomically and durably (see
    /// [`io::atomic_write`]): a kill at any instant leaves either the
    /// previous checkpoint or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persist`] naming the failed persistence step.
    pub fn checkpoint(&self, device: &Device, msg_rng: &Prng, path: &Path) -> Result<()> {
        self.core.persist(path, |w| self.write_checkpoint(device, msg_rng, w))
    }

    /// Rebuilds a campaign from a checkpoint and rewinds `device` and
    /// `msg_rng` to their checkpointed stream positions. The caller
    /// supplies the same [`CampaignConfig`] and a device constructed
    /// with the same key, chain and seed as the original run; the
    /// resumed campaign then reproduces the uninterrupted one
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedVersion`] for a future checkpoint
    /// version, [`Error::InvalidData`] for a malformed one, and
    /// [`Error::Io`] on truncation.
    pub fn resume<R: Read>(
        cfg: CampaignConfig,
        device: &mut Device,
        msg_rng: &mut Prng,
        mut r: R,
    ) -> Result<Campaign> {
        io::read_head(&mut r, CKPT_HEAD, "campaign checkpoint")?;
        let [n, traces_requested] = take(&mut r, "checkpoint counter")?;
        if !n.is_power_of_two() || !(2..=1 << 10).contains(&n) {
            return Err(io::bad("invalid ring degree"));
        }
        let (mut stats, counts) = (AcquisitionStats::default(), take::<_, 8>(&mut r, "stats")?);
        stats_fields(&mut stats).into_iter().zip(counts).for_each(|(field, v)| *field = v);
        let dev_state = take_state(&mut r, "device state")?;
        let rng_state = take_state(&mut r, "message-rng state")?;
        let [count] = take(&mut r, "target count")?;
        if count > n {
            return Err(io::bad("implausible target count"));
        }
        let (mut states, mut data) = (Vec::with_capacity(count), Vec::with_capacity(count));
        for _ in 0..count {
            // The embedded dataset's own checks bound `target` below `n`.
            let [target] = take(&mut r, "target index")?;
            let mut state = TargetState { target, ..Default::default() };
            state.read_tracker(&mut r)?;
            let ds = io::read_dataset(&mut r)?;
            if ds.n() != n || ds.targets() != [target] {
                return Err(io::bad("embedded dataset does not match its target"));
            }
            state.traces = ds.traces();
            states.push(state);
            data.push(ds);
        }
        let core = Core { cfg, n, states, traces_requested, stats };
        core.check_traces(traces_requested)?;

        // Only rewind the live streams once the whole checkpoint parsed.
        if !device.restore_state(&dev_state) {
            return Err(io::bad("malformed device state"));
        }
        *msg_rng =
            Prng::import_state(&rng_state).ok_or_else(|| io::bad("malformed message-rng state"))?;
        core.note_resume();
        Ok(Campaign { core, data })
    }

    /// [`Campaign::resume`] from a checkpoint file.
    ///
    /// # Errors
    ///
    /// See [`Campaign::resume`].
    pub fn resume_from_path(
        cfg: CampaignConfig,
        device: &mut Device,
        msg_rng: &mut Prng,
        path: &Path,
    ) -> Result<Campaign> {
        Campaign::resume(cfg, device, msg_rng, BufReader::new(File::open(path)?))
    }
}

/// An offline campaign: the convergence loop of [`Campaign`] replayed,
/// one target at a time, over an archive through any [`ColumnSource`]
/// (resident or streamed). Batches "acquire" by revealing the next
/// `batch_size` traces of the archive's stable trace order, so margin,
/// stability and early stop behave exactly as they would have live.
/// Per target, consumption stops at `min(source traces,
/// cfg.max_traces)`; `traces_requested` sums the traces revealed. The
/// logical checkpoints are byte-identical for resident and streamed
/// copies of one archive.
#[derive(Debug, Clone)]
pub struct OfflineCampaign {
    core: Core,
    /// Index into `core.states` of the target currently being
    /// evaluated; `core.states.len()` once every target finished.
    cursor: usize,
    /// The cursor target's full single-target dataset, fetched once per
    /// target and truncated per batch. Dropped when the target
    /// finishes.
    cache: Option<Dataset>,
}

impl OfflineCampaign {
    /// Prepares an offline campaign over `src`. With empty
    /// `cfg.targets` every target of the source is attacked, in the
    /// source's order; otherwise `cfg.targets` must be a subset of the
    /// source's directory.
    ///
    /// # Errors
    ///
    /// Returns a typed error for a degenerate config (zero batch size
    /// or budget), a target absent from the source, or an empty
    /// archive.
    pub fn new<S: ColumnSource + ?Sized>(src: &S, cfg: CampaignConfig) -> Result<OfflineCampaign> {
        let core = Core::new(src.n(), cfg, src.targets())?;
        if src.traces() == 0 {
            return Err(Error::Acquisition("archive holds no traces".into()));
        }
        Ok(OfflineCampaign { core, cursor: 0, cache: None })
    }

    /// Traces revealed from the archive so far, summed over targets.
    pub fn traces_requested(&self) -> usize {
        self.core.traces_requested
    }

    /// True when every target converged or exhausted its share of the
    /// archive.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.core.states.len()
    }

    /// Reveals one batch of the cursor target's traces and re-evaluates
    /// its convergence tracker; advances to the next target when this
    /// one resolves or runs out of traces/budget. Returns `false` when
    /// the campaign is already done.
    ///
    /// # Errors
    ///
    /// Propagates source failures (I/O on a streamed archive) and
    /// bookkeeping errors; the campaign state is unchanged in that
    /// case.
    pub fn step<S: ColumnSource + ?Sized>(&mut self, src: &S) -> Result<bool> {
        if self.is_done() {
            return Ok(false);
        }
        let _batch_span = obs::span("campaign.batch");
        let core = &mut self.core;
        let state = &mut core.states[self.cursor];
        let cache = match &mut self.cache {
            Some(cache) => cache,
            cache => {
                let _fetch_span = obs::span("campaign.fetch_block");
                cache.insert(src.target_block(state.target)?.to_dataset(core.n)?)
            }
        };
        let budget = src.traces().min(core.cfg.max_traces);
        let batch = core.cfg.batch_size.min(budget - state.traces);
        core.traces_requested += batch;
        {
            let _eval_span = obs::span("campaign.evaluate");
            // The prefix is rebuilt from the cached block, so an
            // evaluation sees byte-identical data no matter which
            // source produced the block.
            state.evaluate(&cache.truncated(state.traces + batch), &core.cfg);
        }
        if state.resolved.is_some() || state.traces >= budget {
            // Target finished: free the cache, move on.
            self.cache = None;
            self.cursor += 1;
        }
        obs::metrics().counter("campaign.batches").incr();
        Ok(true)
    }

    /// Drives [`OfflineCampaign::step`] until done and returns the
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates the first step error.
    pub fn run<S: ColumnSource + ?Sized>(&mut self, src: &S) -> Result<CampaignReport> {
        while self.step(src)? {}
        Ok(self.report())
    }

    /// The campaign's current (possibly partial) outcome, with all-zero
    /// acquisition stats.
    pub fn report(&self) -> CampaignReport {
        self.core.report()
    }

    /// Serialises the logical progress (`FDNOCKP\x01`): cursor,
    /// per-target consumption and convergence trackers. No trace data,
    /// no source identity — resuming requires the same archive and
    /// config, and the checkpoint bytes are identical whether the
    /// archive was resident or streamed.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_checkpoint<W: Write>(&self, mut w: W) -> Result<()> {
        let core = &self.core;
        w.write_all(OCKPT_HEAD)?;
        put(&mut w, &[core.n, self.cursor, core.traces_requested, core.states.len()])?;
        for s in &core.states {
            put(&mut w, &[s.target, s.traces])?;
            s.write_tracker(&mut w)?;
        }
        Ok(())
    }

    /// Checkpoints to `path` atomically and durably (see
    /// [`io::atomic_write`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persist`] naming the failed persistence step.
    pub fn checkpoint(&self, path: &Path) -> Result<()> {
        self.core.persist(path, |w| self.write_checkpoint(w))
    }

    /// Rebuilds an offline campaign from a checkpoint. The caller
    /// supplies the same source (or a byte-identical copy — resident
    /// vs streamed does not matter) and config as the original run;
    /// the resumed campaign reproduces the uninterrupted one bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedVersion`] for a future version,
    /// [`Error::InvalidData`] for a malformed checkpoint or one that
    /// disagrees with the source/config, and [`Error::Io`] on
    /// truncation.
    pub fn resume<S: ColumnSource + ?Sized, R: Read>(
        src: &S,
        cfg: CampaignConfig,
        mut r: R,
    ) -> Result<OfflineCampaign> {
        io::read_head(&mut r, OCKPT_HEAD, "offline-campaign checkpoint")?;
        let mut fresh = OfflineCampaign::new(src, cfg)?;
        let core = &mut fresh.core;
        let [n, cursor, traces_requested, count] = take(&mut r, "checkpoint counter")?;
        if n != core.n {
            return Err(io::bad("checkpoint ring degree disagrees with the source"));
        }
        if count != core.states.len() || cursor > count {
            return Err(io::bad("checkpoint target list disagrees with the config"));
        }
        for s in core.states.iter_mut() {
            let [target, traces] = take(&mut r, "target progress")?;
            if target != s.target {
                return Err(io::bad("checkpoint target order disagrees with the config"));
            }
            s.traces = traces;
            s.read_tracker(&mut r)?;
        }
        core.check_traces(src.traces().min(core.cfg.max_traces))?;
        if core.states.iter().map(|s| s.traces).sum::<usize>() != traces_requested {
            return Err(io::bad("checkpoint trace counter disagrees with its targets"));
        }
        core.traces_requested = traces_requested;
        fresh.cursor = cursor;
        fresh.core.note_resume();
        Ok(fresh)
    }

    /// [`OfflineCampaign::resume`] from a checkpoint file.
    ///
    /// # Errors
    ///
    /// See [`OfflineCampaign::resume`].
    pub fn resume_from_path<S: ColumnSource + ?Sized>(
        src: &S,
        cfg: CampaignConfig,
        path: &Path,
    ) -> Result<OfflineCampaign> {
        OfflineCampaign::resume(src, cfg, BufReader::new(File::open(path)?))
    }
}

fn read_u8<R: Read>(r: &mut R) -> Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// The acquisition counters in checkpoint order, writable in place.
fn stats_fields(s: &mut AcquisitionStats) -> [&mut usize; 8] {
    [
        &mut s.requested,
        &mut s.kept,
        &mut s.dropped_trigger,
        &mut s.discarded_saturated,
        &mut s.discarded_dead,
        &mut s.discarded_misaligned,
        &mut s.realigned,
        &mut s.winsorized,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_emsim::{FaultModel, LeakageModel, MeasurementChain, Scope};
    use falcon_sig::{KeyPair, LogN};

    fn bench(noise: f64, fm: FaultModel, seed: &[u8]) -> (Device, Vec<u64>) {
        let mut rng = Prng::from_seed(seed);
        let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
        let truth: Vec<u64> = kp.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, noise),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            faults: fm,
        };
        (Device::new(kp.into_parts().0, chain, b"campaign bench"), truth)
    }

    fn small_cfg() -> CampaignConfig {
        CampaignConfig { batch_size: 60, max_traces: 600, ..Default::default() }
    }

    #[test]
    fn clean_campaign_recovers_all_and_stops_early() {
        let (mut dev, truth) = bench(1.0, FaultModel::default(), b"clean campaign");
        let mut msgs = Prng::from_seed(b"clean campaign msgs");
        let mut c = Campaign::new(8, small_cfg()).unwrap();
        let report = c.run(&mut dev, &mut msgs).unwrap();
        assert!(report.is_complete(), "unconverged: {report:?}");
        assert_eq!(report.recovered_bits().unwrap(), truth);
        // Early stop: this regime converges in a few batches, well
        // before the budget.
        assert!(
            report.traces_requested < 600,
            "campaign should stop before the budget: {}",
            report.traces_requested
        );
        for s in &report.statuses {
            let CoefficientStatus::Recovered { traces, .. } = s else { unreachable!() };
            assert!(*traces <= report.stats.kept);
        }
    }

    #[test]
    fn budget_exhaustion_yields_partial_report() {
        // Heavy noise and a tiny budget: nothing can converge.
        let (mut dev, _) = bench(30.0, FaultModel::default(), b"partial campaign");
        let mut msgs = Prng::from_seed(b"partial msgs");
        let cfg = CampaignConfig {
            batch_size: 20,
            max_traces: 40,
            targets: vec![0, 5],
            ..Default::default()
        };
        let mut c = Campaign::new(8, cfg).unwrap();
        let report = c.run(&mut dev, &mut msgs).unwrap();
        assert!(!report.is_complete());
        assert_eq!(report.recovered_bits(), None);
        assert_eq!(report.traces_requested, 40);
        assert_eq!(report.statuses.len(), 2);
        for s in &report.statuses {
            assert!(!s.is_recovered());
        }
    }

    #[test]
    fn degenerate_config_is_rejected() {
        assert!(Campaign::new(8, CampaignConfig { batch_size: 0, ..Default::default() }).is_err());
        assert!(Campaign::new(8, CampaignConfig { max_traces: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn checkpoint_roundtrips_in_memory() {
        let (mut dev, _) = bench(2.0, FaultModel::noisy_bench(), b"ckpt campaign");
        let mut msgs = Prng::from_seed(b"ckpt msgs");
        let mut c = Campaign::new(8, small_cfg()).unwrap();
        c.step(&mut dev, &mut msgs).unwrap();
        c.step(&mut dev, &mut msgs).unwrap();
        let mut buf = Vec::new();
        c.write_checkpoint(&dev, &msgs, &mut buf).unwrap();

        let (mut dev2, _) = bench(2.0, FaultModel::noisy_bench(), b"ckpt campaign");
        let mut msgs2 = Prng::from_seed(b"unrelated, will be rewound");
        let mut resumed = Campaign::resume(small_cfg(), &mut dev2, &mut msgs2, &buf[..]).unwrap();
        assert_eq!(resumed.traces_requested(), c.traces_requested());

        // Both campaigns continue identically.
        let a = c.run(&mut dev, &mut msgs).unwrap();
        let b = resumed.run(&mut dev2, &mut msgs2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn offline_campaign_recovers_from_an_archive() {
        let (mut dev, truth) = bench(1.0, FaultModel::default(), b"offline campaign");
        let mut msgs = Prng::from_seed(b"offline msgs");
        let targets: Vec<usize> = (0..8).collect();
        let ds = Dataset::collect(&mut dev, &targets, 400, &mut msgs);
        let mut c = OfflineCampaign::new(&ds, small_cfg()).unwrap();
        let report = c.run(&ds).unwrap();
        assert!(report.is_complete(), "unconverged: {report:?}");
        assert_eq!(report.recovered_bits().unwrap(), truth);
        // Early stop per target: nowhere near 8 × 400 traces revealed.
        assert!(report.traces_requested < 8 * 400);
    }

    #[test]
    fn offline_checkpoint_resumes_bit_identically() {
        let (mut dev, _) = bench(1.0, FaultModel::default(), b"offline ckpt");
        let mut msgs = Prng::from_seed(b"offline ckpt msgs");
        let targets: Vec<usize> = (0..8).collect();
        let ds = Dataset::collect(&mut dev, &targets, 400, &mut msgs);
        let mut c = OfflineCampaign::new(&ds, small_cfg()).unwrap();
        for _ in 0..3 {
            assert!(c.step(&ds).unwrap());
        }
        let mut ckpt = Vec::new();
        c.write_checkpoint(&mut ckpt).unwrap();
        let mut resumed = OfflineCampaign::resume(&ds, small_cfg(), &ckpt[..]).unwrap();
        assert_eq!(resumed.traces_requested(), c.traces_requested());
        let a = c.run(&ds).unwrap();
        let b = resumed.run(&ds).unwrap();
        assert_eq!(a, b);
        // Final checkpoints are byte-equal too.
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        c.write_checkpoint(&mut fa).unwrap();
        resumed.write_checkpoint(&mut fb).unwrap();
        assert_eq!(fa, fb);
    }

    #[test]
    fn offline_campaign_rejects_bad_inputs() {
        let (mut dev, _) = bench(1.0, FaultModel::default(), b"offline bad");
        let mut msgs = Prng::from_seed(b"offline bad msgs");
        let ds = Dataset::collect(&mut dev, &[0, 3], 20, &mut msgs);
        // Target not in the archive.
        let cfg = CampaignConfig { targets: vec![5], ..small_cfg() };
        assert!(matches!(
            OfflineCampaign::new(&ds, cfg),
            Err(Error::TargetNotInDataset { target: 5 })
        ));
        // Degenerate budget.
        assert!(OfflineCampaign::new(&ds, CampaignConfig { max_traces: 0, ..small_cfg() }).is_err());
        // Truncated checkpoint.
        let mut c = OfflineCampaign::new(&ds, small_cfg()).unwrap();
        c.step(&ds).unwrap();
        let mut ckpt = Vec::new();
        c.write_checkpoint(&mut ckpt).unwrap();
        for cut in [0, 7, 8, 20, ckpt.len() / 2, ckpt.len() - 1] {
            assert!(
                OfflineCampaign::resume(&ds, small_cfg(), &ckpt[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Future version.
        let mut future = ckpt.clone();
        future[7] = 9;
        assert!(matches!(
            OfflineCampaign::resume(&ds, small_cfg(), &future[..]),
            Err(Error::UnsupportedVersion { found: 9, .. })
        ));
    }

    #[test]
    fn checkpoint_rejects_corruption_and_truncation() {
        let (mut dev, _) = bench(2.0, FaultModel::default(), b"ckpt corrupt");
        let mut msgs = Prng::from_seed(b"ckpt corrupt msgs");
        let mut c = Campaign::new(8, small_cfg()).unwrap();
        c.step(&mut dev, &mut msgs).unwrap();
        let mut buf = Vec::new();
        c.write_checkpoint(&dev, &msgs, &mut buf).unwrap();

        let resume = |bytes: &[u8]| {
            let (mut d, _) = bench(2.0, FaultModel::default(), b"ckpt corrupt");
            let mut m = Prng::from_seed(b"x");
            Campaign::resume(small_cfg(), &mut d, &mut m, bytes)
        };
        // Bad magic and future version.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(resume(&bad).is_err());
        let mut future = buf.clone();
        future[7] = 99;
        assert!(matches!(resume(&future), Err(Error::UnsupportedVersion { found: 99, .. })));
        // Truncation anywhere must error, never panic.
        for cut in [8, 9, 40, 100, buf.len() / 2, buf.len() - 1] {
            assert!(resume(&buf[..cut]).is_err(), "cut at {cut} must fail");
        }
    }
}
