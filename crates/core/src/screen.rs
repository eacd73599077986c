//! Attacker-side trace screening: quality checks, realignment and
//! outlier rejection.
//!
//! A real acquisition campaign loses traces to missed triggers, records
//! misaligned windows when the scope arms early or late, and picks up
//! glitch bursts and saturated captures that poison a Pearson
//! correlation far out of proportion to their number. This module sits
//! between the raw [`falcon_emsim::Device`] captures and the
//! [`Dataset`]: each candidate trace passes per-trace quality gates
//! (length, saturation fraction, dead-trace variance), is re-aligned by
//! cross-correlation against a running batch reference, and the
//! surviving columns are winsorised with a median-absolute-deviation
//! rule before the distinguisher ever sees them.
//!
//! Entry point: [`Dataset::collect_screened`], which returns the
//! screened dataset together with an [`AcquisitionStats`] account of
//! every capture's fate.

use crate::acquire::{capture_chunks, recompute_trace, Dataset};
use crate::error::{Error, Result};
use crate::exec;
use crate::obs;
use crate::source::{scatter_rows, TraceStore};
use falcon_emsim::{Capture, Device, Trace};
use falcon_sig::rng::Prng;

/// Discard a trace when more than this fraction of its samples sit on
/// the ADC rails.
const MAX_SATURATION_FRAC: f64 = 0.2;
/// Discard a trace whose sample variance falls below this floor (a dead
/// probe or an all-zero capture).
const MIN_VARIANCE: f64 = 1e-9;
/// Largest misalignment the re-aligner searches for, in samples.
const MAX_SHIFT: usize = 4;
/// Discard a trace whose best cross-correlation against the reference
/// stays below this value (unrecoverably misaligned or corrupted).
const MIN_XCORR: f64 = 0.2;

/// Screening policy. The per-trace quality gates (`MAX_SATURATION_FRAC`,
/// `MIN_VARIANCE`, `MIN_XCORR`) are deliberately permissive constants:
/// they reject only traces that are unusable for correlation, not merely
/// noisy ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenConfig {
    /// Re-align traces against the batch reference by cross-correlation
    /// over shifts in `[-MAX_SHIFT, +MAX_SHIFT]`.
    pub realign: bool,
    /// Winsorisation strength: per-column samples further than
    /// `mad_k · 1.4826 · MAD` from the column median are clamped to that
    /// bound. `0` disables outlier rejection.
    pub mad_k: f64,
}

impl Default for ScreenConfig {
    fn default() -> Self {
        ScreenConfig { realign: true, mad_k: 8.0 }
    }
}

/// Per-campaign accounting of every requested capture's fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AcquisitionStats {
    /// Captures requested from the device.
    pub requested: usize,
    /// Traces that survived screening and entered the dataset.
    pub kept: usize,
    /// Captures lost to a missed trigger (empty or truncated trace).
    pub dropped_trigger: usize,
    /// Traces discarded for exceeding the saturation budget.
    pub discarded_saturated: usize,
    /// Traces discarded for falling below the variance floor.
    pub discarded_dead: usize,
    /// Traces discarded because no shift correlated with the reference.
    pub discarded_misaligned: usize,
    /// Kept traces that needed a nonzero re-alignment shift.
    pub realigned: usize,
    /// Individual samples clamped by the MAD outlier rule.
    pub winsorized: usize,
}

impl AcquisitionStats {
    /// Every counter, in declaration order (the checkpoint order),
    /// writable in place.
    pub(crate) fn fields_mut(&mut self) -> [&mut usize; 8] {
        [
            &mut self.requested,
            &mut self.kept,
            &mut self.dropped_trigger,
            &mut self.discarded_saturated,
            &mut self.discarded_dead,
            &mut self.discarded_misaligned,
            &mut self.realigned,
            &mut self.winsorized,
        ]
    }

    /// Folds another batch's accounting into this one.
    pub fn merge(&mut self, other: &AcquisitionStats) {
        let mut other = *other;
        for (field, add) in self.fields_mut().into_iter().zip(other.fields_mut()) {
            *field += *add;
        }
    }

    /// Traces discarded by quality gates (excluding missed triggers).
    pub fn discarded(&self) -> usize {
        self.discarded_saturated + self.discarded_dead + self.discarded_misaligned
    }
}

impl std::fmt::Display for AcquisitionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} kept ({} dropped, {} saturated, {} dead, {} misaligned, \
             {} realigned, {} samples winsorized)",
            self.kept,
            self.requested,
            self.dropped_trigger,
            self.discarded_saturated,
            self.discarded_dead,
            self.discarded_misaligned,
            self.realigned,
            self.winsorized
        )
    }
}

/// The fate of one screened trace.
enum Verdict {
    Keep { shift: isize },
    Saturated,
    Dead,
    Misaligned,
}

impl Dataset {
    /// Fault-tolerant acquisition: requests `n_traces` captures and
    /// keeps those that pass screening, so the returned dataset may hold
    /// fewer traces than requested (the stats say exactly how many and
    /// why). With `cfg = None` only structurally unusable captures
    /// (missed triggers / truncated traces) are skipped — the
    /// "screening off" baseline of the robustness experiments, and
    /// [`Dataset::collect`].
    ///
    /// Captures arrive in chunks (see `acquire::capture_chunks`); each
    /// chunk is screened and its target windows cut as it arrives, then
    /// its raw traces are dropped, so memory holds one chunk, not the
    /// batch. Realignment waits only for the reference: the first
    /// `REF_CAP` full-length captures of the batch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TargetOutOfRange`] for a bad target list.
    pub fn collect_screened(
        device: &mut Device,
        targets: &[usize],
        n_traces: usize,
        msg_rng: &mut Prng,
        cfg: Option<&ScreenConfig>,
    ) -> Result<(Dataset, AcquisitionStats)> {
        let n = device.signing_key().logn().n();
        for &t in targets {
            if t >= n {
                return Err(Error::TargetOutOfRange { target: t, n });
            }
        }
        let layout = device.layout();
        let expected_len = layout.samples_per_trace();
        let rail = device.chain().scope.full_scale;
        let realign = cfg.is_some_and(|c| c.realign);

        let mut stats = AcquisitionStats { requested: n_traces, ..Default::default() };
        let mut reference: Option<Vec<f32>> = None;
        // Full-length captures not yet screened: held only while the
        // realignment reference waits for its population.
        let mut waiting: Vec<Capture> = Vec::new();
        let mut rows = Vec::new();
        let mut take = |chunk: Vec<Capture>, last: bool| {
            let _gates_span = obs::span("screen.gates");
            for cap in chunk {
                if cap.trace.len() < expected_len {
                    stats.dropped_trigger += 1;
                } else {
                    waiting.push(cap);
                }
            }
            // The realignment reference: the per-sample median over the
            // batch's first full-length captures. A minority of jittered
            // traces cannot move the median, so the reference stays
            // locked to the majority alignment.
            if realign && reference.is_none() {
                let full = waiting.iter().filter(|c| c.trace.len() == expected_len).count();
                if full < REF_CAP && !last {
                    return;
                }
                reference = Some(median_reference(waiting.iter().map(|c| &c.trace), expected_len));
            }
            // Per-trace quality gates. Pure given the shared reference,
            // so they fan out on the executor (bit-identical verdicts at
            // any thread count); the stats fold stays serial.
            let verdicts = match cfg {
                None => waiting.iter().map(|_| Verdict::Keep { shift: 0 }).collect(),
                Some(_) => exec::map(&waiting, |cap| {
                    screen_trace(&cap.trace.samples, reference.as_deref(), rail)
                }),
            };
            let mut kept = Vec::with_capacity(verdicts.len());
            for (i, v) in verdicts.into_iter().enumerate() {
                match v {
                    Verdict::Saturated => stats.discarded_saturated += 1,
                    Verdict::Dead => stats.discarded_dead += 1,
                    Verdict::Misaligned => stats.discarded_misaligned += 1,
                    Verdict::Keep { shift } => {
                        stats.realigned += usize::from(shift != 0);
                        kept.push((i, shift));
                    }
                }
            }
            // Recompute the attacker-side operands and cut the
            // (realigned) target windows of every kept trace, in
            // parallel; the raw traces go when `waiting` is cleared.
            rows.extend(exec::map(&kept, |&(i, shift)| {
                recompute_trace(&waiting[i], n, targets, &layout, shift)
            }));
            waiting.clear();
        };
        capture_chunks(device, n_traces, msg_rng, |chunk| take(chunk, false));
        // Screens captures still waiting for a reference the batch never
        // filled (fewer than `REF_CAP` full-length captures).
        take(Vec::new(), true);

        let gates_span = obs::span("screen.gates");
        stats.kept = rows.len();
        let mut ds = scatter_rows(n, targets, &rows)?;
        if let Some(c) = cfg {
            if c.mad_k > 0.0 {
                stats.winsorized = winsorize_dataset(&mut ds, c.mad_k);
            }
        }
        drop(gates_span);
        record_batch(&stats);
        Ok((ds, stats))
    }
}

/// Publishes one batch's accounting: bulk counter adds per gate outcome
/// plus a structured `screen.batch` event.
fn record_batch(stats: &AcquisitionStats) {
    let m = obs::metrics();
    m.counter("screen.requested").add(stats.requested as u64);
    m.counter("screen.kept").add(stats.kept as u64);
    m.counter("screen.dropped_trigger").add(stats.dropped_trigger as u64);
    m.counter("screen.discarded_saturated").add(stats.discarded_saturated as u64);
    m.counter("screen.discarded_dead").add(stats.discarded_dead as u64);
    m.counter("screen.discarded_misaligned").add(stats.discarded_misaligned as u64);
    m.counter("screen.realigned").add(stats.realigned as u64);
    m.counter("screen.winsorized_samples").add(stats.winsorized as u64);
    let s = *stats;
    obs::emit(|| {
        obs::Event::new("screen.batch")
            .with_u64("requested", s.requested as u64)
            .with_u64("kept", s.kept as u64)
            .with_u64("dropped_trigger", s.dropped_trigger as u64)
            .with_u64("saturated", s.discarded_saturated as u64)
            .with_u64("dead", s.discarded_dead as u64)
            .with_u64("misaligned", s.discarded_misaligned as u64)
            .with_u64("realigned", s.realigned as u64)
            .with_u64("winsorized", s.winsorized as u64)
    });
}

/// Full-length captures whose per-sample median is the realignment
/// reference: the median stabilises long before the batch does, and
/// sorting every column over a huge batch is the dominant cost
/// otherwise.
const REF_CAP: usize = 64;

/// Per-sample median over the first [`REF_CAP`] full-length traces (the
/// realignment anchor).
fn median_reference<'a>(traces: impl Iterator<Item = &'a Trace>, expected_len: usize) -> Vec<f32> {
    let pop: Vec<&Trace> = traces.filter(|t| t.len() == expected_len).take(REF_CAP).collect();
    let mut reference = vec![0f32; expected_len];
    if pop.is_empty() {
        return reference;
    }
    let mut col = Vec::with_capacity(pop.len());
    for (i, r) in reference.iter_mut().enumerate() {
        col.clear();
        col.extend(pop.iter().map(|t| t.samples[i]));
        *r = median_f32(&mut col);
    }
    reference
}

fn median_f32(v: &mut [f32]) -> f32 {
    let mid = v.len() / 2;
    let (_, m, _) = v.select_nth_unstable_by(mid, f32::total_cmp);
    *m
}

/// Applies the per-trace quality gates and finds the best alignment.
fn screen_trace(samples: &[f32], reference: Option<&[f32]>, rail: f64) -> Verdict {
    // Saturation: fraction of samples pinned to (or clipped at) a rail.
    let sat_level = (0.999 * rail) as f32;
    let saturated = samples.iter().filter(|v| v.abs() >= sat_level).count();
    if (saturated as f64) > MAX_SATURATION_FRAC * samples.len() as f64 {
        return Verdict::Saturated;
    }
    // Dead trace: no variance worth correlating against.
    // ct: allow(pinned fold kernel: sequential in-order slice sum)
    let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64;
    // ct: allow(pinned fold kernel: sequential in-order slice sum)
    let var =
        samples.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    if var < MIN_VARIANCE {
        return Verdict::Dead;
    }
    let Some(reference) = reference else {
        return Verdict::Keep { shift: 0 };
    };
    // Cross-correlation realignment: the Pearson coefficient over the
    // overlap, for every candidate shift (scale-invariant, so gain
    // drift does not bias the alignment).
    let mut best_shift = 0isize;
    let mut best_corr = f64::NEG_INFINITY;
    let max = MAX_SHIFT as isize;
    for shift in -max..=max {
        let corr = shifted_correlation(samples, reference, shift);
        if corr > best_corr {
            best_corr = corr;
            best_shift = shift;
        }
    }
    if best_corr < MIN_XCORR {
        return Verdict::Misaligned;
    }
    Verdict::Keep { shift: best_shift }
}

/// Pearson correlation between `samples` advanced by `shift` and the
/// reference, over their overlap.
fn shifted_correlation(samples: &[f32], reference: &[f32], shift: isize) -> f64 {
    let len = samples.len().min(reference.len()) as isize;
    let (start, end) = (0.max(-shift), len.min(len - shift));
    if end - start < 2 {
        return f64::NEG_INFINITY;
    }
    let m = (end - start) as f64;
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0f64, 0f64, 0f64, 0f64, 0f64);
    for i in start..end {
        let x = samples[(i + shift) as usize] as f64;
        let y = reference[i as usize] as f64;
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
    }
    let cov = sxy - sx * sy / m;
    let vx = sxx - sx * sx / m;
    let vy = syy - sy * sy / m;
    if vx <= 0.0 || vy <= 0.0 {
        return f64::NEG_INFINITY;
    }
    cov / (vx * vy).sqrt()
}

/// Clamps per-column outliers to `median ± k·1.4826·MAD` in place and
/// returns the number of samples clamped. Robust against glitch bursts
/// that survive the per-trace gates: a burst only touches a few traces
/// per column, so it cannot move the median or the MAD. Screening
/// applies it to every batch; it is public for imported foreign
/// archives ([`crate::ingest`]), whose oscilloscope glitches never
/// passed through [`Dataset::collect_screened`]. The pass sweeps every
/// `(target, occ, step)` sample column of every target's store.
/// Datasets with fewer than 8 traces are left untouched (no meaningful
/// MAD estimate).
pub fn winsorize_dataset(ds: &mut Dataset, k: f64) -> usize {
    let traces = ds.traces();
    if traces < 8 {
        // Too few traces for a meaningful MAD estimate.
        return 0;
    }
    let mut clamped = 0usize;
    let mut scratch = Vec::with_capacity(traces);
    for col in ds.stores_mut().iter_mut().flat_map(TraceStore::sample_columns_mut) {
        scratch.clear();
        scratch.extend_from_slice(col);
        let med = median_f32(&mut scratch);
        let mut dev: Vec<f32> = col.iter().map(|v| (v - med).abs()).collect();
        let mad = median_f32(&mut dev);
        // A zero MAD means over half the column is identical — treat the
        // spread as unknown rather than clamping everything else.
        if mad == 0.0 {
            continue;
        }
        let bound = (k * 1.4826 * mad as f64) as f32;
        let (lo, hi) = (med - bound, med + bound);
        for v in col.iter_mut() {
            if *v < lo {
                *v = lo;
                clamped += 1;
            } else if *v > hi {
                *v = hi;
                clamped += 1;
            }
        }
    }
    clamped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquire::POINTS_PER_TARGET;
    use crate::source::ColumnSource;
    use falcon_emsim::{FaultModel, LeakageModel, MeasurementChain, Scope, StepKind};
    use falcon_sig::{KeyPair, LogN};

    /// The v2 archive bytes of `ds`: equal bytes mean equal datasets.
    fn archive(ds: &Dataset) -> Vec<u8> {
        let mut bytes = Vec::new();
        crate::io::write_dataset(ds, &mut bytes).unwrap();
        bytes
    }

    /// The 28 samples of one trace for `target`, occurrence-major.
    fn window(ds: &Dataset, trace: usize, target: usize) -> Vec<f32> {
        let block = ds.target_block(target).unwrap();
        (0..2).flat_map(|occ| StepKind::ALL.map(|step| block.sample(trace, occ, step))).collect()
    }

    fn device(noise: f64, fm: FaultModel) -> Device {
        let mut rng = Prng::from_seed(b"screen test key");
        let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, noise),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            faults: fm,
        };
        Device::new(kp.into_parts().0, chain, b"screen bench")
    }

    #[test]
    fn clean_device_keeps_everything() {
        let mut d = device(1.0, FaultModel::default());
        let mut mrng = Prng::from_seed(b"clean msgs");
        let (ds, stats) = Dataset::collect_screened(
            &mut d,
            &[0, 3],
            40,
            &mut mrng,
            Some(&ScreenConfig::default()),
        )
        .unwrap();
        assert_eq!(stats.requested, 40);
        assert_eq!(stats.kept, 40);
        assert_eq!(stats.dropped_trigger + stats.discarded(), 0);
        assert_eq!(ds.traces(), 40);
    }

    #[test]
    fn screened_collection_matches_plain_collection_without_faults() {
        // Same seeds, no faults: screening must be a no-op (winsorisation
        // off to compare bit for bit).
        let cfg = ScreenConfig { mad_k: 0.0, ..Default::default() };
        let mut d1 = device(2.0, FaultModel::default());
        let mut d2 = device(2.0, FaultModel::default());
        let mut m1 = Prng::from_seed(b"match msgs");
        let mut m2 = Prng::from_seed(b"match msgs");
        let plain = Dataset::collect(&mut d1, &[1, 4], 25, &mut m1);
        let (screened, _) =
            Dataset::collect_screened(&mut d2, &[1, 4], 25, &mut m2, Some(&cfg)).unwrap();
        assert_eq!(screened.traces(), plain.traces());
        assert!(archive(&plain) == archive(&screened), "screening changed the dataset");
    }

    #[test]
    fn dropped_triggers_are_counted_not_fatal() {
        let fm = FaultModel { drop_prob: 0.3, ..Default::default() };
        let mut d = device(1.0, fm);
        let mut mrng = Prng::from_seed(b"drop msgs");
        let (ds, stats) =
            Dataset::collect_screened(&mut d, &[0], 60, &mut mrng, Some(&ScreenConfig::default()))
                .unwrap();
        assert!(stats.dropped_trigger > 0);
        assert_eq!(stats.kept, 60 - stats.dropped_trigger - stats.discarded());
        assert_eq!(ds.traces(), stats.kept);
        // The unscreened baseline also survives (length filter only).
        let mut d2 = device(1.0, fm);
        let mut m2 = Prng::from_seed(b"drop msgs");
        let (ds2, stats2) = Dataset::collect_screened(&mut d2, &[0], 60, &mut m2, None).unwrap();
        assert_eq!(ds2.traces(), stats2.kept);
        assert_eq!(stats2.discarded(), 0);
    }

    #[test]
    fn jittered_traces_are_realigned_to_the_clean_windows() {
        let fm = FaultModel { jitter_prob: 0.4, max_jitter: 2, ..Default::default() };
        let mut clean = device(1.5, FaultModel::default());
        let mut faulty = device(1.5, fm);
        let mut m1 = Prng::from_seed(b"jit msgs");
        let mut m2 = Prng::from_seed(b"jit msgs");
        let plain = Dataset::collect(&mut clean, &[2, 6], 30, &mut m1);
        let cfg = ScreenConfig { mad_k: 0.0, ..Default::default() };
        let (screened, stats) =
            Dataset::collect_screened(&mut faulty, &[2, 6], 30, &mut m2, Some(&cfg)).unwrap();
        assert!(stats.realigned > 0, "jitter should trigger realignment");
        assert_eq!(stats.kept, 30);
        // After realignment the interior windows match the clean capture
        // exactly (the fault rng is separate from the noise stream).
        let mut matching = 0usize;
        let mut total = 0usize;
        for t in 0..30 {
            for &target in &[2usize, 6] {
                for (a, b) in
                    window(&plain, t, target).into_iter().zip(window(&screened, t, target))
                {
                    total += 1;
                    if a == b {
                        matching += 1;
                    }
                }
            }
        }
        assert!(
            matching as f64 > 0.98 * total as f64,
            "only edge samples may differ: {matching}/{total}"
        );
    }

    #[test]
    fn saturated_and_dead_traces_are_discarded() {
        // Saturation at 100% probability pins every trace; all should be
        // discarded by the saturation gate (and the dataset stays empty).
        let fm = FaultModel { saturation_prob: 1.0, ..Default::default() };
        let mut d = device(1.0, fm);
        let mut mrng = Prng::from_seed(b"sat msgs");
        let (ds, stats) =
            Dataset::collect_screened(&mut d, &[0], 10, &mut mrng, Some(&ScreenConfig::default()))
                .unwrap();
        // A fully saturated trace also has ~zero variance; either gate
        // may claim it, but none may pass.
        assert_eq!(stats.kept, 0);
        assert_eq!(stats.discarded(), 10);
        assert_eq!(ds.traces(), 0);
    }

    #[test]
    fn winsorisation_clamps_glitch_outliers() {
        let fm = FaultModel {
            glitch_prob: 0.2,
            glitch_amplitude: 500.0,
            glitch_len: 30,
            ..Default::default()
        };
        let mut d = device(1.0, fm);
        let mut mrng = Prng::from_seed(b"glitch msgs");
        let cfg = ScreenConfig { mad_k: 6.0, realign: false };
        let (ds, stats) =
            Dataset::collect_screened(&mut d, &[0, 1, 2, 3], 50, &mut mrng, Some(&cfg)).unwrap();
        assert!(stats.winsorized > 0, "glitches should be clamped: {stats}");
        // No sample may remain near the glitch amplitude.
        for t in 0..ds.traces() {
            for &target in &[0usize, 1, 2, 3] {
                for v in window(&ds, t, target) {
                    assert!(v.abs() < 400.0, "unclamped outlier {v}");
                }
            }
        }
    }

    /// Median of `v` by a full sort: the element at index `len / 2`.
    fn sorted_median(v: &[f32]) -> f32 {
        let mut v = v.to_vec();
        v.sort_by(f32::total_cmp);
        v[v.len() / 2]
    }

    #[test]
    fn winsorisation_matches_a_sort_based_reference_per_column() {
        // Four targets, 96 traces, two planted outliers per column
        // (high and low), and one column that is constant apart from
        // its outliers (a zero MAD, left alone).
        const TRACES: usize = 96;
        let targets = [0usize, 3, 5, 6];
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let rows: Vec<(Vec<u64>, Vec<f32>)> = (0..TRACES)
            .map(|trace| {
                let knowns = (0..2 * targets.len()).map(|_| next()).collect();
                let points = (0..targets.len() * POINTS_PER_TARGET)
                    .map(|c| {
                        let noise = (next() >> 40) as f32 / (1 << 24) as f32 * 8.0 - 4.0;
                        match ((trace + 5 * c) % 37, c) {
                            (0, _) => 450.0 + c as f32,
                            (1, _) => -300.0 - trace as f32,
                            (_, POINTS_PER_TARGET) => 1.5,
                            _ => noise + c as f32,
                        }
                    })
                    .collect();
                (knowns, points)
            })
            .collect();
        let mut ds = scatter_rows(8, &targets, &rows).unwrap();
        let k = 3.0;
        let mut want = Vec::new();
        let mut want_clamped = 0;
        for &t in &targets {
            let block = ds.target_block(t).unwrap();
            for occ in 0..2 {
                for step in StepKind::ALL {
                    let mut col = block.sample_column(occ, step).to_vec();
                    let med = sorted_median(&col);
                    let dev: Vec<f32> = col.iter().map(|v| (v - med).abs()).collect();
                    let mad = sorted_median(&dev);
                    if mad != 0.0 {
                        let bound = (k * 1.4826 * mad as f64) as f32;
                        for v in &mut col {
                            let c = v.clamp(med - bound, med + bound);
                            want_clamped += usize::from(c != *v);
                            *v = c;
                        }
                    }
                    want.push(col);
                }
            }
        }
        assert!(want_clamped >= 2 * (want.len() - 1), "planted outliers: {want_clamped}");
        assert_eq!(winsorize_dataset(&mut ds, k), want_clamped);
        let mut want = want.into_iter();
        for &t in &targets {
            let block = ds.target_block(t).unwrap();
            for occ in 0..2 {
                for step in StepKind::ALL {
                    let got: Vec<u32> =
                        block.sample_column(occ, step).iter().map(|v| v.to_bits()).collect();
                    let col: Vec<u32> = want.next().unwrap().iter().map(|v| v.to_bits()).collect();
                    assert!(got == col, "target {t} occ {occ} {step:?}: samples differ");
                }
            }
        }
    }

    /// The whole-batch screener chunked screening replaced, built from
    /// the same helpers in the old order: capture the whole batch one
    /// `Device::capture` after another, take the reference from its
    /// first `REF_CAP` full-length captures, screen, cut windows,
    /// scatter and winsorise. Also returns how many full-length
    /// captures the first 512 requests yielded.
    fn screen_whole_batch(
        device: &mut Device,
        targets: &[usize],
        n_traces: usize,
        msg_rng: &mut Prng,
        cfg: Option<&ScreenConfig>,
    ) -> (Dataset, AcquisitionStats, usize) {
        let n = device.signing_key().logn().n();
        let layout = device.layout();
        let expected_len = layout.samples_per_trace();
        let rail = device.chain().scope.full_scale;
        let mut stats = AcquisitionStats { requested: n_traces, ..Default::default() };
        let mut batch = Vec::new();
        let mut first_chunk_full = 0;
        for i in 0..n_traces {
            let mut msg = [0u8; 24];
            msg_rng.fill(&mut msg);
            let cap = device.capture(&msg);
            if cap.trace.len() < expected_len {
                stats.dropped_trigger += 1;
            } else {
                first_chunk_full += usize::from(i < 512);
                batch.push(cap);
            }
        }
        let reference = cfg
            .filter(|c| c.realign)
            .map(|_| median_reference(batch.iter().map(|c| &c.trace), expected_len));
        let mut rows = Vec::new();
        for cap in &batch {
            let verdict = match cfg {
                None => Verdict::Keep { shift: 0 },
                Some(_) => screen_trace(&cap.trace.samples, reference.as_deref(), rail),
            };
            let shift = match verdict {
                Verdict::Keep { shift } => shift,
                Verdict::Saturated => {
                    stats.discarded_saturated += 1;
                    continue;
                }
                Verdict::Dead => {
                    stats.discarded_dead += 1;
                    continue;
                }
                Verdict::Misaligned => {
                    stats.discarded_misaligned += 1;
                    continue;
                }
            };
            stats.realigned += usize::from(shift != 0);
            rows.push(recompute_trace(cap, n, targets, &layout, shift));
        }
        stats.kept = rows.len();
        let mut ds = scatter_rows(n, targets, &rows).unwrap();
        if let Some(c) = cfg.filter(|c| c.mad_k > 0.0) {
            stats.winsorized = winsorize_dataset(&mut ds, c.mad_k);
        }
        (ds, stats, first_chunk_full)
    }

    #[test]
    fn chunked_screening_matches_whole_batch_screening() {
        let faults = FaultModel {
            drop_prob: 0.05,
            jitter_prob: 0.3,
            max_jitter: 3,
            glitch_prob: 0.1,
            glitch_amplitude: 300.0,
            glitch_len: 20,
            saturation_prob: 0.05,
            ..Default::default()
        };
        let heavy_drop = FaultModel { drop_prob: 0.9, jitter_prob: 0.3, max_jitter: 3, ..faults };
        let screened = ScreenConfig { realign: true, mad_k: 6.0 };
        let cases: [(&str, FaultModel, usize, Option<&ScreenConfig>); 4] = [
            ("faulty", faults, 2 * 512 + 37, Some(&screened)),
            ("heavy drop", heavy_drop, 2 * 512 + 37, Some(&screened)),
            ("short reference", heavy_drop, 300, Some(&screened)),
            ("unscreened", faults, 2 * 512 + 37, None),
        ];
        let targets = [0, 3, 5, 6];
        for (name, fm, n_traces, cfg) in cases {
            let mut whole_dev = device(2.0, fm);
            let (want, want_stats, first_chunk_full) = screen_whole_batch(
                &mut whole_dev,
                &targets,
                n_traces,
                &mut Prng::from_seed(b"differential msgs"),
                cfg,
            );
            match name {
                "faulty" => assert!(
                    want_stats.realigned > 0
                        && want_stats.discarded_saturated > 0
                        && want_stats.winsorized > 0,
                    "{name}: the faults must fire: {want_stats}"
                ),
                "heavy drop" => assert!(first_chunk_full < REF_CAP, "{name}: {first_chunk_full}"),
                "short reference" => {
                    assert!(want_stats.requested - want_stats.dropped_trigger < REF_CAP)
                }
                _ => assert!(want_stats.dropped_trigger > 0, "{name}: {want_stats}"),
            }
            for threads in [1, 2] {
                let mut dev = device(2.0, fm);
                let (got, stats) = exec::with_threads(threads, || {
                    Dataset::collect_screened(
                        &mut dev,
                        &targets,
                        n_traces,
                        &mut Prng::from_seed(b"differential msgs"),
                        cfg,
                    )
                })
                .unwrap();
                let leg = format!("{name} at {threads} threads");
                assert_eq!(stats, want_stats, "{leg}");
                assert_eq!(got.traces(), want.traces(), "{leg}");
                assert!(archive(&got) == archive(&want), "{leg}: datasets differ");
                assert_eq!(dev.export_state(), whole_dev.export_state(), "{leg}: device state");
            }
        }
    }

    #[test]
    fn stats_merge_adds_fields() {
        let a = AcquisitionStats {
            requested: 10,
            kept: 8,
            dropped_trigger: 1,
            discarded_saturated: 1,
            ..Default::default()
        };
        let mut b = AcquisitionStats { requested: 5, kept: 5, ..Default::default() };
        b.merge(&a);
        assert_eq!(b.requested, 15);
        assert_eq!(b.kept, 13);
        assert_eq!(b.dropped_trigger, 1);
        assert_eq!(b.discarded(), 1);
    }
}
