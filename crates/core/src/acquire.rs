//! Trace acquisition campaigns and the attacker-side dataset.
//!
//! The adversary triggers signatures on random messages, records the EM
//! trace of each, and — because the salt and message are public —
//! recomputes `FFT(c)` with the public reference code, bit for bit equal
//! to the device's. A [`Dataset`] keeps, per trace and per targeted
//! secret index, the two known operands and the 2×14 samples of the two
//! multiplications involving that secret value.
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
//! tile kernel. Acquisition produces traces row-by-row; the transpose
//! happens exactly once, at dataset construction.

use crate::error::{Error, Result};
use crate::exec;
use falcon_emsim::{Capture, Device, StepKind};
use falcon_fpr::Fpr;
use falcon_sig::fft::fft;
use falcon_sig::hash::hash_to_point;
use falcon_sig::rng::Prng;

/// Samples stored per (trace, target): two multiplications of
/// [`StepKind::COUNT`] micro-ops each.
pub const POINTS_PER_TARGET: usize = 2 * StepKind::COUNT;

/// Captures processed per acquisition chunk: the capture loop is serial
/// (the device is one mutable stream), but the attacker-side `FFT(c)`
/// recomputation of each chunk fans out on the executor while memory
/// stays bounded by the chunk, not the campaign.
const ACQUIRE_CHUNK: usize = 512;

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

impl Dataset {
    /// Runs an acquisition campaign: `n_traces` signatures over random
    /// messages drawn from `msg_rng`, keeping the windows for `targets`
    /// (flat `FFT(f)` indices, `0..n`).
    ///
    /// Capture is serial (the device is a single stream); the per-trace
    /// attacker-side recomputation (`hash_to_point` + `fft`) fans out on
    /// the [`crate::exec`] executor in bounded chunks, with bit-identical
    /// results at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TargetOutOfRange`] when a target index exceeds
    /// the device's degree. Captures whose trace does not cover the
    /// expected layout (e.g. a missed trigger under an active
    /// [`falcon_emsim::FaultModel`]) would corrupt the window extraction
    /// and are rejected as [`Error::Acquisition`]; use
    /// [`Dataset::collect_screened`](crate::screen) to tolerate them.
    pub fn try_collect(
        device: &mut Device,
        targets: &[usize],
        n_traces: usize,
        msg_rng: &mut Prng,
    ) -> Result<Dataset> {
        let _span = crate::obs::span("acquire.collect");
        let n = device.signing_key().logn().n();
        for &t in targets {
            if t >= n {
                return Err(Error::TargetOutOfRange { target: t, n });
            }
        }
        crate::obs::counter("acquire.traces_requested").add(n_traces as u64);
        let layout = device.layout();
        let expected_len = layout.samples_per_trace();
        let mut rows: Vec<(Vec<u64>, Vec<f32>)> = Vec::with_capacity(n_traces);
        let mut chunk: Vec<Capture> = Vec::with_capacity(ACQUIRE_CHUNK.min(n_traces));
        let mut captured = 0usize;
        while captured < n_traces {
            chunk.clear();
            while captured < n_traces && chunk.len() < ACQUIRE_CHUNK {
                let mut msg = [0u8; 24];
                msg_rng.fill(&mut msg);
                let cap = device.capture(&msg);
                if cap.trace.len() < expected_len {
                    return Err(Error::Acquisition(format!(
                        "trace {captured} has {} samples, layout needs {expected_len} \
                         (faulty capture? use collect_screened)",
                        cap.trace.len()
                    )));
                }
                chunk.push(cap);
                captured += 1;
            }
            rows.extend(exec::map(&chunk, |cap| recompute_trace(cap, n, targets, &layout, 0)));
        }
        scatter_rows(n, targets, &rows)
    }

    /// Panicking convenience wrapper around [`Dataset::try_collect`].
    ///
    /// # Panics
    ///
    /// Panics if a target index is out of range for the device's degree
    /// or a capture is unusable (see [`Dataset::try_collect`]).
    #[track_caller]
    pub fn collect(
        device: &mut Device,
        targets: &[usize],
        n_traces: usize,
        msg_rng: &mut Prng,
    ) -> Dataset {
        match Dataset::try_collect(device, targets, n_traces, msg_rng) {
            Ok(ds) => ds,
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
        Ok(())
    }

    /// Rebuilds a dataset from **columnar** raw storage — the internal
    /// `[target][occ][trace]` / `[target][occ][step][trace]` layout, as
    /// serialised by the v2 on-disk format. No transpose.
    ///
    /// # Errors
    ///
    /// Returns a typed error when the component lengths are inconsistent
    /// with the dimensions or a target is out of range.
    pub fn try_from_columnar_parts(
        n: usize,
        targets: Vec<usize>,
        traces: usize,
        knowns: Vec<u64>,
        points: Vec<f32>,
    ) -> Result<Dataset> {
        Self::check_shapes(n, &targets, traces, knowns.len(), points.len())?;
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

    /// Position of `target` in the target list, if present.
    fn try_target_pos(&self, target: usize) -> Option<usize> {
        self.targets.iter().position(|&t| t == target)
    }

    #[track_caller]
    fn target_pos(&self, target: usize) -> usize {
        match self.try_target_pos(target) {
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

    /// The columnar known-operand storage (`[target][occ][trace]`), for
    /// the v2 serialiser.
    pub(crate) fn knowns_columnar(&self) -> &[u64] {
        &self.knowns
    }

    /// The columnar sample storage (`[target][occ][step][trace]`), for
    /// the v2 serialiser.
    pub(crate) fn points_columnar(&self) -> &[f32] {
        &self.points
    }

    /// Appends the traces of `other` to this dataset. Both must share the
    /// ring degree and the exact target list (batch-wise accumulation in
    /// adaptive campaigns). Columnar merge: each column is the
    /// concatenation of the two source columns.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DatasetMismatch`] when the shapes differ.
    pub fn append(&mut self, other: &Dataset) -> Result<()> {
        if self.n != other.n {
            return Err(Error::DatasetMismatch(format!("ring degree {} vs {}", self.n, other.n)));
        }
        if self.targets != other.targets {
            return Err(Error::DatasetMismatch(format!(
                "target lists differ ({:?} vs {:?})",
                self.targets, other.targets
            )));
        }
        let traces = self.traces + other.traces;
        let mut knowns = Vec::with_capacity(self.knowns.len() + other.knowns.len());
        for (a, b) in self
            .knowns
            .chunks_exact(self.traces.max(1))
            .zip(other.knowns.chunks_exact(other.traces.max(1)))
        {
            knowns.extend_from_slice(a);
            knowns.extend_from_slice(b);
        }
        let mut points = Vec::with_capacity(self.points.len() + other.points.len());
        for (a, b) in self
            .points
            .chunks_exact(self.traces.max(1))
            .zip(other.points.chunks_exact(other.traces.max(1)))
        {
            points.extend_from_slice(a);
            points.extend_from_slice(b);
        }
        // Zero-trace sides contribute empty columns; rebuild explicitly
        // because chunks_exact(1) over an empty buffer yields nothing.
        if self.traces == 0 {
            self.knowns = other.knowns.clone();
            self.points = other.points.clone();
        } else if other.traces > 0 {
            self.knowns = knowns;
            self.points = points;
        }
        self.traces = traces;
        Ok(())
    }

    /// Extracts the sub-dataset covering only `subset` of the targets
    /// (same traces, fewer columns). In the columnar layout each target's
    /// block is contiguous, so this is a handful of bulk copies.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TargetNotInDataset`] when a requested target is
    /// not part of this dataset.
    pub fn select_targets(&self, subset: &[usize]) -> Result<Dataset> {
        let pos: Vec<usize> = subset
            .iter()
            .map(|&t| self.try_target_pos(t).ok_or(Error::TargetNotInDataset { target: t }))
            .collect::<Result<_>>()?;
        let kblock = 2 * self.traces;
        let pblock = POINTS_PER_TARGET * self.traces;
        let mut knowns = Vec::with_capacity(subset.len() * kblock);
        let mut points = Vec::with_capacity(subset.len() * pblock);
        for &ti in &pos {
            knowns.extend_from_slice(&self.knowns[ti * kblock..(ti + 1) * kblock]);
            points.extend_from_slice(&self.points[ti * pblock..(ti + 1) * pblock]);
        }
        Ok(Dataset { n: self.n, targets: subset.to_vec(), traces: self.traces, knowns, points })
    }

    /// An empty dataset (zero traces) for the given degree and targets —
    /// the identity for [`Dataset::append`].
    ///
    /// # Errors
    ///
    /// Returns a typed error on a bad degree or out-of-range target.
    pub fn empty(n: usize, targets: &[usize]) -> Result<Dataset> {
        Dataset::try_from_columnar_parts(n, targets.to_vec(), 0, Vec::new(), Vec::new())
    }

    /// Mutable access to the flat columnar sample storage — every
    /// consecutive `traces()` values form one `(target, occ, step)`
    /// column (screening's outlier winsorisation rewrites columns in
    /// place).
    pub(crate) fn points_mut(&mut self) -> &mut [f32] {
        &mut self.points
    }

    /// Restricts the dataset to its first `n_traces` traces (cheap way to
    /// study trace-count sweeps on one acquisition): every column is
    /// truncated to its prefix.
    pub fn truncated(&self, n_traces: usize) -> Dataset {
        let keep = n_traces.min(self.traces);
        let gather_prefix = |src: &[f32]| -> Vec<f32> {
            src.chunks_exact(self.traces.max(1)).flat_map(|col| &col[..keep]).copied().collect()
        };
        let knowns: Vec<u64> = self
            .knowns
            .chunks_exact(self.traces.max(1))
            .flat_map(|col| &col[..keep])
            .copied()
            .collect();
        Dataset {
            n: self.n,
            targets: self.targets.clone(),
            traces: keep,
            knowns,
            points: gather_prefix(&self.points),
        }
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
        let t = ds.truncated(4);
        assert_eq!(t.traces(), 4);
        assert_eq!(t.sample(3, 0, 0, StepKind::Pack), ds.sample(3, 0, 0, StepKind::Pack));
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
    fn append_and_select_preserve_columns() {
        let mut d = device(1.0);
        let mut mrng = Prng::from_seed(b"append msgs");
        let a = Dataset::collect(&mut d, &[0, 5], 6, &mut mrng);
        let b = Dataset::collect(&mut d, &[0, 5], 9, &mut mrng);
        let mut acc = Dataset::empty(8, &[0, 5]).unwrap();
        acc.append(&a).unwrap();
        acc.append(&b).unwrap();
        assert_eq!(acc.traces(), 15);
        for &t in &[0usize, 5] {
            for occ in 0..2 {
                for step in StepKind::ALL {
                    let col = acc.sample_column(t, occ, step);
                    assert_eq!(&col[..6], a.sample_column(t, occ, step));
                    assert_eq!(&col[6..], b.sample_column(t, occ, step));
                }
                let kcol = acc.known_column(t, occ);
                assert_eq!(&kcol[..6], a.known_column(t, occ));
                assert_eq!(&kcol[6..], b.known_column(t, occ));
            }
        }
        let sel = acc.select_targets(&[5]).unwrap();
        assert_eq!(sel.targets(), &[5]);
        for occ in 0..2 {
            assert_eq!(sel.known_column(5, occ), acc.known_column(5, occ));
            for step in StepKind::ALL {
                assert_eq!(sel.sample_column(5, occ, step), acc.sample_column(5, occ, step));
            }
        }
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
