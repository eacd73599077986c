//! Trace acquisition campaigns and the attacker-side dataset.
//!
//! The adversary triggers signatures on random messages, records the EM
//! trace of each, and — because the salt and message are public —
//! recomputes `FFT(c)` with the public reference code, bit for bit equal
//! to the device's. A [`Dataset`] keeps, per trace and per targeted
//! secret index, the two known operands and the 2×14 samples of the two
//! multiplications involving that secret value.
//!
//! Every capture goes through one loop: [`Dataset::collect_screened`]
//! (see [`crate::screen`]) takes captures from `capture_chunks` one
//! chunk at a time, screens each chunk and drops its raw traces;
//! [`Dataset::collect`] is that loop with screening off. A chunk's
//! radiation runs on the [`crate::exec`] executor, bit-identical to one
//! capture after another.
//!
//! # Columnar layout (v2)
//!
//! The distinguisher consumes *columns*: one `(target, occurrence,
//! step)` series across all traces per Pearson accumulation. Storage is
//! therefore struct-of-arrays, keyed `[target][occ][step][trace]` for
//! samples and `[target][occ][trace]` for known operands, so
//! [`Dataset::sample_column`] and [`Dataset::known_column`] return
//! **borrowed slices** straight into the dataset buffer — zero
//! allocation, zero copy, dense sequential memory under the
//! [`PearsonSums::push_column`](crate::cpa::PearsonSums::push_column)
//! tile kernel. Captures and imported archives arrive row by row; one
//! function, `scatter_rows`, transposes them into columns, once, at
//! dataset construction.

use crate::error::{Error, Result};
use crate::exec;
use falcon_emsim::{Armed, Capture, Device, StepKind};
use falcon_fpr::Fpr;
use falcon_sig::fft::fft;
use falcon_sig::hash::hash_to_point;
use falcon_sig::rng::Prng;

/// Samples stored per (trace, target): two multiplications of
/// [`StepKind::COUNT`] micro-ops each.
pub const POINTS_PER_TARGET: usize = 2 * StepKind::COUNT;

/// Captures processed per acquisition chunk: each chunk is armed in
/// order on the device, radiated on the executor and finished in order,
/// then its attacker-side `FFT(c)` recomputation fans out too, while
/// memory stays bounded by the chunk, not the campaign.
const ACQUIRE_CHUNK: usize = 512;

/// Captures `n_traces` traces of random 24-byte messages drawn from
/// `msg_rng`, handing them to `each` in chunks of at most
/// [`ACQUIRE_CHUNK`], in capture order. Per chunk the device arms every
/// capture serially, radiates them on the [`crate::exec`] executor and
/// finishes them in arming order, so the captures and the device state
/// are bit-identical to `n_traces` calls of [`Device::capture`] at any
/// thread count. The `screen.capture` span times the capture work,
/// not `each`.
pub(crate) fn capture_chunks(
    device: &mut Device,
    n_traces: usize,
    msg_rng: &mut Prng,
    mut each: impl FnMut(Vec<Capture>),
) {
    let mut captured = 0;
    while captured < n_traces {
        let count = ACQUIRE_CHUNK.min(n_traces - captured);
        let span = crate::obs::span("screen.capture");
        let armed: Vec<Armed> = (0..count)
            .map(|_| {
                let mut msg = [0u8; 24];
                msg_rng.fill(&mut msg);
                device.arm(&msg)
            })
            .collect();
        let radiating = &*device;
        exec::map(&armed, |a| radiating.radiate(a));
        let chunk = armed.into_iter().map(|a| device.finish(a)).collect();
        drop(span);
        each(chunk);
        captured += count;
    }
}

/// An attacker-side dataset for a set of targeted secret indices.
#[derive(Debug, Clone)]
pub struct Dataset {
    n: usize,
    targets: Vec<usize>,
    traces: usize,
    /// Columnar known operands: `[target][occ][trace]`.
    knowns: Vec<u64>,
    /// Columnar samples: `[target][occ][step][trace]`.
    points: Vec<f32>,
}

/// Recomputes the attacker-side known operands and extracts the target
/// windows of one capture (row-major: `[target][occ]` operands,
/// `[target][occ·14+step]` samples). Pure — safe to fan out per trace.
pub(crate) fn recompute_trace(
    cap: &Capture,
    n: usize,
    targets: &[usize],
    layout: &falcon_emsim::MulOpLayout,
    shift: isize,
) -> (Vec<u64>, Vec<f32>) {
    let c = hash_to_point(&cap.salt, &cap.msg, n);
    let mut c_fft: Vec<Fpr> = c.iter().map(|&v| Fpr::from_i64(v as i64)).collect();
    fft(&mut c_fft);
    let samples = &cap.trace.samples;
    let len = samples.len() as isize;
    let mut knowns = Vec::with_capacity(targets.len() * 2);
    let mut points = Vec::with_capacity(targets.len() * POINTS_PER_TARGET);
    for &target in targets {
        for (mul_idx, known_idx) in layout.muls_for_secret(target) {
            knowns.push(c_fft[known_idx].to_bits());
            for step in StepKind::ALL {
                let src = layout.sample_index(mul_idx, step) as isize + shift;
                // A realignment shift may walk a window off the capture
                // edge; those samples are zero-filled like the full-trace
                // realigner did.
                points.push(if (0..len).contains(&src) { samples[src as usize] } else { 0.0 });
            }
        }
    }
    (knowns, points)
}

/// Row-major → columnar scatter of one acquisition batch: `rows` holds
/// per-trace `(knowns, points)` in trace order.
pub(crate) fn scatter_rows(
    n: usize,
    targets: &[usize],
    rows: &[(Vec<u64>, Vec<f32>)],
) -> Result<Dataset> {
    let traces = rows.len();
    let n_cols = targets.len() * 2;
    let mut knowns = vec![0u64; traces * n_cols];
    let mut points = vec![0f32; traces * n_cols * StepKind::COUNT];
    for (trace, (row_k, row_p)) in rows.iter().enumerate() {
        for (c, &k) in row_k.iter().enumerate() {
            knowns[c * traces + trace] = k;
        }
        for (c, &p) in row_p.iter().enumerate() {
            points[c * traces + trace] = p;
        }
    }
    Dataset::try_from_columnar_parts(n, targets.to_vec(), traces, knowns, points)
}

/// Rejects a target list that names a coefficient twice: each target
/// owns one column block, and a repeat would let a key look complete
/// with a coefficient never attacked.
///
/// # Errors
///
/// Returns [`Error::InvalidData`] naming the first repeated target.
pub(crate) fn check_distinct_targets(targets: &[usize]) -> Result<()> {
    let mut sorted = targets.to_vec();
    sorted.sort_unstable();
    match sorted.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(Error::invalid(format!("target {} is listed more than once", w[0]))),
        None => Ok(()),
    }
}

/// Rejects a sample column holding a NaN or an infinity. One such sample
/// makes its column's variance non-finite, every correlation over the
/// column then reads 0, and the beam would keep its first guesses by
/// index instead of failing.
///
/// # Errors
///
/// Returns [`Error::InvalidData`] naming the first non-finite sample.
pub(crate) fn check_finite_samples(points: &[f32]) -> Result<()> {
    // ct: allow(attacker-side input validation of captured samples)
    match points.iter().position(|p| !p.is_finite()) {
        Some(i) => {
            // ct: allow(attacker-side input validation of captured samples)
            Err(Error::invalid(format!("sample {i} is {}; samples must be finite", points[i])))
        }
        None => Ok(()),
    }
}

impl Dataset {
    /// Runs an unscreened acquisition campaign: `n_traces` signatures
    /// over random messages drawn from `msg_rng`, keeping the windows
    /// for `targets` (flat `FFT(f)` indices, `0..n`). This is
    /// [`Dataset::collect_screened`](crate::screen) with `cfg = None`,
    /// so every capture is kept.
    ///
    /// # Panics
    ///
    /// Panics if a target index is out of range for the device's degree
    /// or a capture lost its trigger (a truncated trace under an active
    /// [`falcon_emsim::FaultModel`]); use `collect_screened` to tolerate
    /// those.
    #[track_caller]
    pub fn collect(
        device: &mut Device,
        targets: &[usize],
        n_traces: usize,
        msg_rng: &mut Prng,
    ) -> Dataset {
        match Dataset::collect_screened(device, targets, n_traces, msg_rng, None) {
            Ok((ds, stats)) if stats.dropped_trigger == 0 => ds,
            Ok((_, stats)) => panic!(
                "Dataset::collect failed: {} of {n_traces} captures lost their trigger \
                 (faulty capture? use collect_screened)",
                stats.dropped_trigger
            ),
            Err(e) => panic!("Dataset::collect failed: {e}"),
        }
    }

    fn check_shapes(
        n: usize,
        targets: &[usize],
        traces: usize,
        n_knowns: usize,
        n_points: usize,
    ) -> Result<()> {
        if !n.is_power_of_two() || n < 2 {
            return Err(Error::BadDegree { n });
        }
        let want_knowns = traces
            .checked_mul(targets.len())
            .and_then(|v| v.checked_mul(2))
            .ok_or_else(|| Error::invalid("known-operand count overflows"))?;
        if n_knowns != want_knowns {
            return Err(Error::ShapeMismatch {
                what: "known operands",
                expected: want_knowns,
                got: n_knowns,
            });
        }
        let want_points = traces
            .checked_mul(targets.len())
            .and_then(|v| v.checked_mul(POINTS_PER_TARGET))
            .ok_or_else(|| Error::invalid("sample count overflows"))?;
        if n_points != want_points {
            return Err(Error::ShapeMismatch {
                what: "samples",
                expected: want_points,
                got: n_points,
            });
        }
        if let Some(&t) = targets.iter().find(|&&t| t >= n) {
            return Err(Error::TargetOutOfRange { target: t, n });
        }
        check_distinct_targets(targets)
    }

    /// Rebuilds a dataset from **columnar** raw storage — the internal
    /// `[target][occ][trace]` / `[target][occ][step][trace]` layout, as
    /// serialised by the v2 on-disk format. No transpose.
    ///
    /// # Errors
    ///
    /// Returns a typed error when the component lengths are inconsistent
    /// with the dimensions, a target is out of range or repeated, or a
    /// sample is not finite.
    pub fn try_from_columnar_parts(
        n: usize,
        targets: Vec<usize>,
        traces: usize,
        knowns: Vec<u64>,
        points: Vec<f32>,
    ) -> Result<Dataset> {
        Self::check_shapes(n, &targets, traces, knowns.len(), points.len())?;
        // ct: allow(attacker-side input validation of captured samples)
        check_finite_samples(&points)?;
        Ok(Dataset { n, targets, traces, knowns, points })
    }

    /// Ring degree.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The targeted secret indices.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// Number of traces.
    pub fn traces(&self) -> usize {
        self.traces
    }

    /// Position of `target` in the target list; panics when absent.
    #[track_caller]
    fn target_pos(&self, target: usize) -> usize {
        match self.targets.iter().position(|&t| t == target) {
            Some(p) => p,
            None => panic!("{}", Error::TargetNotInDataset { target }),
        }
    }

    /// Known operand bits for `(trace, target, occurrence)`.
    pub fn known(&self, trace: usize, target: usize, occ: usize) -> u64 {
        self.known_column(target, occ)[trace]
    }

    /// Measured sample for `(trace, target, occurrence, step)`.
    pub fn sample(&self, trace: usize, target: usize, occ: usize, step: StepKind) -> f32 {
        self.sample_column(target, occ, step)[trace]
    }

    /// Column of samples across all traces for `(target, occurrence,
    /// step)` — a borrowed slice straight into the columnar buffer.
    pub fn sample_column(&self, target: usize, occ: usize, step: StepKind) -> &[f32] {
        debug_assert!(occ < 2);
        let ti = self.target_pos(target);
        let base = ((ti * 2 + occ) * StepKind::COUNT + step as usize) * self.traces;
        &self.points[base..base + self.traces]
    }

    /// Known-operand column across traces for `(target, occurrence)` — a
    /// borrowed slice straight into the columnar buffer.
    pub fn known_column(&self, target: usize, occ: usize) -> &[u64] {
        debug_assert!(occ < 2);
        let ti = self.target_pos(target);
        let base = (ti * 2 + occ) * self.traces;
        &self.knowns[base..base + self.traces]
    }

    /// The 28-sample window (both occurrences, all steps) of one trace
    /// for a target — the per-coefficient "time axis" used by the
    /// correlation-versus-time figures. Gathered across columns (the
    /// columnar layout stores trace-major windows non-contiguously).
    pub fn window(&self, trace: usize, target: usize) -> Vec<f32> {
        let ti = self.target_pos(target);
        let base = ti * 2 * StepKind::COUNT;
        (0..POINTS_PER_TARGET).map(|c| self.points[(base + c) * self.traces + trace]).collect()
    }

    /// The columnar known-operand storage (`[target][occ][trace]`),
    /// lent per target by
    /// [`ColumnSource::target_block`](crate::source::ColumnSource::target_block).
    pub(crate) fn knowns_columnar(&self) -> &[u64] {
        &self.knowns
    }

    /// The columnar sample storage (`[target][occ][step][trace]`), lent
    /// per target like [`Dataset::knowns_columnar`].
    pub(crate) fn points_columnar(&self) -> &[f32] {
        &self.points
    }

    /// Mutable access to the flat columnar sample storage — every
    /// consecutive `traces()` values form one `(target, occ, step)`
    /// column (screening's outlier winsorisation rewrites columns in
    /// place).
    pub(crate) fn points_mut(&mut self) -> &mut [f32] {
        &mut self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_emsim::{LeakageModel, MeasurementChain, Scope};
    use falcon_sig::{KeyPair, LogN};

    fn device(noise: f64) -> Device {
        let mut rng = Prng::from_seed(b"acquire test key");
        let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, noise),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        Device::new(kp.into_parts().0, chain, b"acquire bench")
    }

    #[test]
    fn dataset_shapes() {
        let mut d = device(1.0);
        let mut mrng = Prng::from_seed(b"msgs");
        let ds = Dataset::collect(&mut d, &[0, 3, 7], 10, &mut mrng);
        assert_eq!(ds.traces(), 10);
        assert_eq!(ds.targets(), &[0, 3, 7]);
        assert_eq!(ds.window(0, 3).len(), POINTS_PER_TARGET);
        assert_eq!(ds.sample_column(7, 1, StepKind::SignXor).len(), 10);
    }

    #[test]
    fn columns_are_borrowed_slices_into_the_dataset_buffer() {
        // Pointer-provenance check of the zero-copy contract: the slices
        // returned by the column accessors must lie inside the dataset's
        // own columnar storage, not in a fresh allocation.
        let mut d = device(1.0);
        let mut mrng = Prng::from_seed(b"provenance msgs");
        let ds = Dataset::collect(&mut d, &[1, 4], 16, &mut mrng);
        let points = ds.points_columnar().as_ptr_range();
        let knowns = ds.knowns_columnar().as_ptr_range();
        for &target in &[1usize, 4] {
            for occ in 0..2 {
                let kc = ds.known_column(target, occ);
                assert!(knowns.contains(&kc.as_ptr()), "known column must borrow from the buffer");
                assert_eq!(kc.len(), ds.traces());
                for step in StepKind::ALL {
                    let sc = ds.sample_column(target, occ, step);
                    assert!(
                        points.contains(&sc.as_ptr()),
                        "sample column must borrow from the buffer"
                    );
                    assert_eq!(sc.len(), ds.traces());
                }
            }
        }
        // Adjacent steps of one occurrence are adjacent columns: the
        // tile kernel's cache-density assumption.
        let a = ds.sample_column(1, 0, StepKind::ALL[0]).as_ptr() as usize;
        let b = ds.sample_column(1, 0, StepKind::ALL[1]).as_ptr() as usize;
        assert_eq!(b - a, ds.traces() * core::mem::size_of::<f32>());
    }

    #[test]
    fn noiseless_samples_match_ground_truth_model() {
        use crate::model::{hyp_exact, KnownOperand};
        let mut d = device(0.0);
        let truth = d.signing_key().f_fft().to_vec();
        let mut mrng = Prng::from_seed(b"gt");
        let ds = Dataset::collect(&mut d, &[1, 5], 5, &mut mrng);
        for trace in 0..5 {
            for &target in &[1usize, 5] {
                for occ in 0..2 {
                    let known = KnownOperand::new(ds.known(trace, target, occ));
                    for step in StepKind::ALL {
                        let want = hyp_exact(truth[target].to_bits(), &known, step);
                        let got = ds.sample(trace, target, occ, step) as f64;
                        assert_eq!(got, want, "trace {trace} target {target} occ {occ} {step:?}");
                    }
                }
            }
        }
    }
}
