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
//! # Columns
//!
//! The distinguisher consumes *columns*: one `(target, occurrence,
//! step)` series across all traces per Pearson accumulation. A
//! [`Dataset`] therefore keeps one column store per target and is read
//! only through [`ColumnSource::target_block`], which lends that
//! target's columns as a borrowed [`TargetBlock`] — zero allocation,
//! zero copy, dense sequential memory under the
//! [`PearsonSums::push_column`](crate::cpa::PearsonSums::push_column)
//! tile kernel. Captures and imported archives arrive row by row and
//! are transposed into the stores once, at dataset construction (see
//! [`crate::source`]).

use crate::error::{Error, Result};
use crate::exec;
use crate::source::{ColumnSource, TargetBlock, TraceStore};
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

/// An attacker-side dataset for a set of targeted secret indices, read
/// through [`ColumnSource::target_block`].
#[derive(Debug, Clone)]
pub struct Dataset {
    n: usize,
    targets: Vec<usize>,
    traces: usize,
    /// One column store per target, in `targets` order.
    stores: Vec<TraceStore>,
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

    /// Assembles a dataset from one store per target, in acquisition
    /// order, each holding `traces` traces.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadDegree`] for a degree that is not a power of
    /// two of at least 2, [`Error::TargetOutOfRange`] for a target
    /// outside `0..n`, and [`Error::InvalidData`] for a repeated target.
    pub(crate) fn from_stores(n: usize, traces: usize, stores: Vec<TraceStore>) -> Result<Dataset> {
        if !n.is_power_of_two() || n < 2 {
            return Err(Error::BadDegree { n });
        }
        let targets: Vec<usize> = stores.iter().map(|s| s.targets()[0]).collect();
        if let Some(&t) = targets.iter().find(|&&t| t >= n) {
            return Err(Error::TargetOutOfRange { target: t, n });
        }
        check_distinct_targets(&targets)?;
        debug_assert!(stores.iter().all(|s| s.n() == n && s.traces() == traces));
        Ok(Dataset { n, targets, traces, stores })
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

    /// The column stores, one per target (screening's winsorisation
    /// rewrites their sample columns in place).
    pub(crate) fn stores_mut(&mut self) -> &mut [TraceStore] {
        &mut self.stores
    }
}

impl ColumnSource for Dataset {
    fn n(&self) -> usize {
        self.n
    }

    fn targets(&self) -> &[usize] {
        &self.targets
    }

    fn traces(&self) -> usize {
        self.traces
    }

    /// Lends `target`'s store as a dense borrowed block.
    fn target_block(&self, target: usize) -> Result<TargetBlock<'_>> {
        let ti = self
            .targets
            .iter()
            .position(|&t| t == target)
            .ok_or(Error::TargetNotInDataset { target })?;
        self.stores[ti].target_block(target)
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
        let block = ds.target_block(7).unwrap();
        assert_eq!((block.target(), block.traces()), (7, 10));
        assert_eq!(block.sample_column(1, StepKind::SignXor).len(), 10);
        assert!(matches!(ds.target_block(1), Err(Error::TargetNotInDataset { target: 1 })));
    }

    #[test]
    fn columns_are_borrowed_slices_into_the_dataset_buffer() {
        // Zero-copy contract: two blocks of one target, alive at once,
        // lend the same columns; a block that copied would not.
        let mut d = device(1.0);
        let mut mrng = Prng::from_seed(b"provenance msgs");
        let ds = Dataset::collect(&mut d, &[1, 4], 16, &mut mrng);
        for &target in ds.targets() {
            let (a, b) = (ds.target_block(target).unwrap(), ds.target_block(target).unwrap());
            for occ in 0..2 {
                let kc = a.known_column(occ);
                assert_eq!(kc.as_ptr(), b.known_column(occ).as_ptr(), "known column copied");
                assert_eq!(kc.len(), ds.traces());
                for step in StepKind::ALL {
                    let sc = a.sample_column(occ, step);
                    assert_eq!(sc.as_ptr(), b.sample_column(occ, step).as_ptr(), "samples copied");
                    assert_eq!(sc.len(), ds.traces());
                }
            }
        }
        // Adjacent steps of one occurrence are adjacent columns: the
        // tile kernel's cache-density assumption.
        let block = ds.target_block(1).unwrap();
        let a = block.sample_column(0, StepKind::ALL[0]).as_ptr() as usize;
        let b = block.sample_column(0, StepKind::ALL[1]).as_ptr() as usize;
        assert_eq!(b - a, ds.traces() * core::mem::size_of::<f32>());
    }

    #[test]
    fn noiseless_samples_match_ground_truth_model() {
        use crate::model::{hyp_exact, KnownOperand};
        let mut d = device(0.0);
        let truth = d.signing_key().f_fft().to_vec();
        let mut mrng = Prng::from_seed(b"gt");
        let ds = Dataset::collect(&mut d, &[1, 5], 5, &mut mrng);
        for &target in &[1usize, 5] {
            let block = ds.target_block(target).unwrap();
            for trace in 0..5 {
                for occ in 0..2 {
                    let known = KnownOperand::new(block.known(trace, occ));
                    for step in StepKind::ALL {
                        let want = hyp_exact(truth[target].to_bits(), &known, step);
                        let got = block.sample(trace, occ, step) as f64;
                        assert_eq!(got, want, "trace {trace} target {target} occ {occ} {step:?}");
                    }
                }
            }
        }
    }
}
