//! Correlation power/EM analysis primitives.
//!
//! The paper's distinguisher is the Pearson correlation between
//! Hamming-weight hypotheses and trace samples (its Equation 1). This
//! module provides the plain estimator, a guesses×samples accumulation
//! matrix for correlation-versus-time plots, and prefix series for
//! correlation-versus-trace-count evolution plots.
//!
//! The inner tile of [`PearsonSums::push_column`] dispatches to the
//! [`simd`] submodule: runtime-detected AVX2/NEON kernels that
//! reproduce the scalar four-lane reference bit-for-bit, selected once
//! per process via `FALCON_DEMA_SIMD` / [`simd::set_kernel`].

// The simd module holds the workspace's only unsafe code (std::arch
// intrinsics), audited by falcon-ct: module allowlisted, every block
// under `// SAFETY:`.
#[allow(unsafe_code)]
pub mod simd;

use simd::TILE_LANES;

/// Streaming Pearson accumulator over `(hypothesis, sample)` pairs.
///
/// This is the attack's innermost data structure: every extend/prune
/// candidate folds its whole column set into one of these. Two feeding
/// modes are provided — scalar [`push`](PearsonSums::push) for
/// heterogeneous call sites, and the batched
/// [`push_column`](PearsonSums::push_column) tile kernel that consumes a
/// whole contiguous column per call (the columnar [`Dataset`] layout
/// hands those out as borrowed slices, so the hot loop runs
/// allocation-free over dense memory).
///
/// The accumulation is one-pass power sums: the attack's samples are
/// near-zero-mean Hamming-weight leakage, far from the DC-offset regime
/// where one-pass sums cancel (see [`pearson`] for the offset-robust
/// two-pass estimator used on raw scope data).
///
/// [`Dataset`]: crate::acquire::Dataset
#[derive(Debug, Default, Clone, Copy)]
pub struct PearsonSums {
    d: f64,
    sh: f64,
    sh2: f64,
    st: f64,
    st2: f64,
    sht: f64,
}

impl PearsonSums {
    /// Absorbs one `(hypothesis, sample)` pair.
    #[inline]
    pub fn push(&mut self, h: f64, t: f64) {
        self.d += 1.0;
        self.sh += h;
        self.sh2 += h * h;
        self.st += t;
        self.st2 += t * t;
        self.sht += h * t;
    }

    /// Tile kernel: absorbs a whole hypothesis column against a
    /// contiguous sample column in one call.
    ///
    /// Accumulation runs in [`TILE_LANES`] independent lanes (lane `j`
    /// sums every `TILE_LANES`-th element) folded in a fixed order, so
    /// the result is deterministic — independent of thread count and of
    /// how a caller splits its columns — while exposing
    /// reassociation-free data parallelism the scalar `push` chain
    /// cannot express. The lane accumulation dispatches to the active
    /// [`simd`] kernel; every kernel reproduces the scalar reference
    /// bit-for-bit, so the dispatch is invisible to results.
    ///
    /// # Panics
    ///
    /// Panics when the column lengths differ.
    pub fn push_column(&mut self, hyps: &[f64], samples: &[f32]) {
        assert_eq!(hyps.len(), samples.len(), "hypothesis and sample columns must align");
        let lanes = simd::tile_lanes(hyps, samples);
        // Fold the lanes in index order, then the tail pairs in sequence
        // — one fixed summation order per (lengths, contents) input.
        for j in 0..TILE_LANES {
            self.sh += lanes.sh[j];
            self.sh2 += lanes.sh2[j];
            self.st += lanes.st[j];
            self.st2 += lanes.st2[j];
            self.sht += lanes.sht[j];
        }
        let n = hyps.len() - hyps.len() % TILE_LANES;
        for (&h, &t) in hyps[n..].iter().zip(&samples[n..]) {
            let t = t as f64;
            self.sh += h;
            self.sh2 += h * h;
            self.st += t;
            self.st2 += t * t;
            self.sht += h * t;
        }
        self.d += hyps.len() as f64;
    }

    /// [`push_column`](PearsonSums::push_column) with the
    /// candidate-independent sample statistics taken from a precomputed
    /// [`SampleSums`] instead of re-accumulated per call.
    ///
    /// In the extend-and-prune beam every candidate at a level
    /// correlates against the *same* sample columns; only the
    /// hypothesis side changes. Reusing Σt/Σt² skips two of the five
    /// accumulation streams, and because each of this struct's fields
    /// has its own independent addition chain (lane fold in index
    /// order, then the tail in sequence — exactly the order
    /// [`SampleSums::new`] recorded), the result is **bit-identical**
    /// to calling `push_column` directly.
    ///
    /// # Panics
    ///
    /// Panics when the column lengths differ, or when `sums` was built
    /// from a column of a different length.
    pub fn push_column_reusing(&mut self, hyps: &[f64], samples: &[f32], sums: &SampleSums) {
        assert_eq!(hyps.len(), samples.len(), "hypothesis and sample columns must align");
        assert_eq!(samples.len(), sums.len, "SampleSums built from a different column length");
        let lanes = simd::tile_lanes_hyp(hyps, samples);
        for j in 0..TILE_LANES {
            self.sh += lanes.sh[j];
            self.sh2 += lanes.sh2[j];
            self.st += sums.st[j];
            self.st2 += sums.st2[j];
            self.sht += lanes.sht[j];
        }
        let n = hyps.len() - hyps.len() % TILE_LANES;
        for (&h, &t) in hyps[n..].iter().zip(&samples[n..]) {
            let t = t as f64;
            self.sh += h;
            self.sh2 += h * h;
            self.st += t;
            self.st2 += t * t;
            self.sht += h * t;
        }
        self.d += hyps.len() as f64;
    }

    /// The Pearson correlation of everything absorbed so far (0 when a
    /// side is constant — no information).
    pub fn corr(&self) -> f64 {
        let num = self.d * self.sht - self.sh * self.st;
        let den = ((self.d * self.sh2 - self.sh * self.sh)
            * (self.d * self.st2 - self.st * self.st))
            .sqrt();
        if den <= 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Sample variance of the hypothesis side (the extend phase's
    /// low-variance handicap detector).
    pub fn hyp_variance(&self) -> f64 {
        if self.d < 2.0 {
            return 0.0;
        }
        (self.sh2 - self.sh * self.sh / self.d) / (self.d - 1.0)
    }

    /// Number of pairs absorbed.
    pub fn len(&self) -> usize {
        self.d as usize
    }

    /// True when nothing has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.d == 0.0
    }

    /// The raw accumulator state `[d, Σh, Σh², Σt, Σt², Σht]`.
    ///
    /// Exposed so the kernel differential suite can assert
    /// **bit-identity** of the sums themselves across SIMD/scalar paths
    /// — a strictly stronger check than comparing the final `corr()`.
    pub fn components(&self) -> [f64; 6] {
        [self.d, self.sh, self.sh2, self.st, self.st2, self.sht]
    }
}

/// Precomputed candidate-independent sample statistics for
/// [`PearsonSums::push_column_reusing`]: the per-lane Σt/Σt² partials of
/// one sample column, in exactly the lane structure the tile kernel
/// produces (so replaying them preserves the bitwise summation order).
///
/// Build one per sample column per beam level; every candidate at that
/// level then skips the sample-side accumulation entirely.
#[derive(Debug, Clone)]
pub struct SampleSums {
    st: [f64; TILE_LANES],
    st2: [f64; TILE_LANES],
    len: usize,
}

impl SampleSums {
    /// Accumulates the sample-side lane partials of `samples`.
    pub fn new(samples: &[f32]) -> SampleSums {
        let mut st = [0f64; TILE_LANES];
        let mut st2 = [0f64; TILE_LANES];
        // The same lane schedule as the tile kernels: lane j sums every
        // TILE_LANES-th element. (Tail elements are replayed from the
        // column itself at use sites, so they are not recorded here.)
        for ss in samples.chunks_exact(TILE_LANES) {
            for j in 0..TILE_LANES {
                let t = ss[j] as f64;
                st[j] += t;
                st2[j] += t * t;
            }
        }
        SampleSums { st, st2, len: samples.len() }
    }

    /// Length of the column these sums were built from.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when built from an empty column.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Precomputed candidate-independent moments of one sample column for
/// [`pearson_with_moments`]: the mean and the centered second moment
/// `Σ(t − t̄)²`, accumulated in exactly the element order [`pearson`]
/// uses so reuse is bit-invisible.
///
/// The NTT attack correlates thousands of guesses against the *same*
/// sample column; precomputing the sample side once halves the two-pass
/// estimator's per-guess stream count.
#[derive(Debug, Clone, Copy)]
pub struct SampleMoments {
    mean_t: f64,
    vt: f64,
    len: usize,
}

impl SampleMoments {
    /// Two-pass sample-side moments of `samples`.
    pub fn new(samples: &[f32]) -> SampleMoments {
        if samples.is_empty() {
            return SampleMoments { mean_t: 0.0, vt: 0.0, len: 0 };
        }
        let d = samples.len() as f64;
        // ct: allow(pinned fold kernel: sequential in-order slice sum)
        let mean_t = samples.iter().map(|&t| t as f64).sum::<f64>() / d;
        let mut vt = 0f64;
        for &t in samples {
            let dt = t as f64 - mean_t;
            vt += dt * dt;
        }
        SampleMoments { mean_t, vt, len: samples.len() }
    }

    /// Length of the column these moments were built from.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when built from an empty column.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// [`pearson`] with the sample-side pass taken from a precomputed
/// [`SampleMoments`]. Bit-identical to calling [`pearson`] directly:
/// the mean, covariance and both variance accumulations are independent
/// addition chains, and the reused ones were recorded in the same
/// element order.
///
/// # Panics
///
/// Panics when the column lengths differ, or when `moments` was built
/// from a column of a different length.
pub fn pearson_with_moments(hyps: &[f64], samples: &[f32], moments: &SampleMoments) -> f64 {
    assert_eq!(hyps.len(), samples.len());
    assert_eq!(samples.len(), moments.len, "SampleMoments built from a different column length");
    if hyps.is_empty() {
        return 0.0;
    }
    let d = hyps.len() as f64;
    // ct: allow(pinned fold kernel: sequential in-order slice sum)
    let mean_h = hyps.iter().sum::<f64>() / d;
    let (mut c, mut vh) = (0f64, 0f64);
    for (&h, &t) in hyps.iter().zip(samples) {
        let dh = h - mean_h;
        let dt = t as f64 - moments.mean_t;
        c += dh * dt;
        vh += dh * dh;
    }
    let den = (vh * moments.vt).sqrt();
    if den <= 0.0 {
        0.0
    } else {
        c / den
    }
}

/// Pearson correlation coefficient between a hypothesis vector and the
/// samples at one time index (one entry per trace).
///
/// Computed from *centered* sums (two-pass): the one-pass expansion
/// `d·Σht − Σh·Σt` cancels catastrophically when the samples carry a
/// large common offset (a DC-coupled probe, an un-zeroed baseline),
/// where `d·Σt² and (Σt)²` agree in their leading ~16 digits and the
/// variance survives only in the bits rounding already destroyed.
///
/// Returns 0 when either side is constant (no information).
pub fn pearson(hyps: &[f64], samples: &[f32]) -> f64 {
    assert_eq!(hyps.len(), samples.len());
    let d = hyps.len() as f64;
    if hyps.is_empty() {
        return 0.0;
    }
    // ct: allow(pinned fold kernel: sequential in-order slice sum)
    let mean_h = hyps.iter().sum::<f64>() / d;
    // ct: allow(pinned fold kernel: sequential in-order slice sum)
    let mean_t = samples.iter().map(|&t| t as f64).sum::<f64>() / d;
    let (mut c, mut vh, mut vt) = (0f64, 0f64, 0f64);
    for (&h, &t) in hyps.iter().zip(samples) {
        let dh = h - mean_h;
        let dt = t as f64 - mean_t;
        c += dh * dt;
        vh += dh * dh;
        vt += dt * dt;
    }
    let den = (vh * vt).sqrt();
    if den <= 0.0 {
        0.0
    } else {
        c / den
    }
}

/// [`pearson`] against one sample column of a
/// [`ColumnSource`](crate::source::ColumnSource): the
/// column-level seam used by ingest verification and the streaming
/// bench, identical for resident and streamed sources.
///
/// # Errors
///
/// Propagates the source's
/// [`target_block`](crate::source::ColumnSource::target_block) failure,
/// and returns
/// [`Error::ShapeMismatch`](crate::error::Error::ShapeMismatch) when
/// `hyps` does not have one entry per trace.
pub fn pearson_source<S: crate::source::ColumnSource + ?Sized>(
    src: &S,
    target: usize,
    occ: usize,
    step: falcon_emsim::StepKind,
    hyps: &[f64],
) -> crate::error::Result<f64> {
    let block = src.target_block(target)?;
    if hyps.len() != block.traces() {
        return Err(crate::error::Error::ShapeMismatch {
            what: "hypothesis column",
            expected: block.traces(),
            got: hyps.len(),
        });
    }
    Ok(pearson(hyps, block.sample_column(occ, step)))
}

/// Correlation between a hypothesis vector and every prefix of the trace
/// set: entry `i` is the correlation over the first `i + 1` traces.
///
/// Streaming Welford/centered accumulation — offset-robust like
/// [`pearson`], one pass like the acquisition loop needs:
/// `C_n = C_{n−1} + (h_n − h̄_{n−1})(t_n − t̄_n)` (old hypothesis mean,
/// updated sample mean), and likewise for the two variances.
///
/// This is the estimator behind the paper's Figure 4 (e–h) evolution
/// plots.
pub fn pearson_evolution(hyps: &[f64], samples: &[f32]) -> Vec<f64> {
    assert_eq!(hyps.len(), samples.len());
    let mut out = Vec::with_capacity(hyps.len());
    let (mut mean_h, mut mean_t) = (0f64, 0f64);
    let (mut c, mut vh, mut vt) = (0f64, 0f64, 0f64);
    for (i, (&h, &t)) in hyps.iter().zip(samples).enumerate() {
        let t = t as f64;
        let d = (i + 1) as f64;
        let dh = h - mean_h;
        mean_h += dh / d;
        let dt = t - mean_t;
        mean_t += dt / d;
        let dt_new = t - mean_t;
        c += dh * dt_new;
        vh += dh * (h - mean_h);
        vt += dt * dt_new;
        let den = (vh * vt).sqrt();
        out.push(if den <= 0.0 { 0.0 } else { c / den });
    }
    out
}

/// Streaming guesses×samples correlation matrix (Welford centered
/// accumulation), for correlation-versus-time plots over a window of the
/// trace.
///
/// The accumulators hold running means and *centered* second moments —
/// not raw power sums — so a large common offset on the samples (DC
/// baseline, un-zeroed probe) costs no precision: the one-pass
/// `d·Σht − Σh·Σt` expansion loses the entire covariance to cancellation
/// in that regime.
#[derive(Debug, Clone)]
pub struct CorrMatrix {
    guesses: usize,
    samples: usize,
    d: u64,
    /// Running hypothesis mean, per guess.
    mean_h: Vec<f64>,
    /// Centered second moment `Σ(h − h̄)²`, per guess.
    m2_h: Vec<f64>,
    /// Running sample mean, per time point.
    mean_t: Vec<f64>,
    /// Centered second moment `Σ(t − t̄)²`, per time point.
    m2_t: Vec<f64>,
    /// Centered cross moment `Σ(h − h̄)(t − t̄)`, guess-major.
    cross: Vec<f64>,
    /// Per-update scratch: this trace's `t − t̄_new`, per time point
    /// (kept in the struct so `update` never allocates).
    dt_scratch: Vec<f64>,
}

impl CorrMatrix {
    /// Creates an empty accumulator for `guesses` hypotheses over
    /// `samples` time points.
    pub fn new(guesses: usize, samples: usize) -> CorrMatrix {
        CorrMatrix {
            guesses,
            samples,
            d: 0,
            mean_h: vec![0.0; guesses],
            m2_h: vec![0.0; guesses],
            mean_t: vec![0.0; samples],
            m2_t: vec![0.0; samples],
            cross: vec![0.0; guesses * samples],
            dt_scratch: vec![0.0; samples],
        }
    }

    /// Number of traces absorbed so far.
    pub fn traces(&self) -> u64 {
        self.d
    }

    /// Absorbs one trace: `hyps[g]` is each guess's predicted leakage,
    /// `window` the measured samples.
    pub fn update(&mut self, hyps: &[f64], window: &[f32]) {
        assert_eq!(hyps.len(), self.guesses);
        assert_eq!(window.len(), self.samples);
        self.d += 1;
        let d = self.d as f64;
        // Sample side first: the cross update needs every `t − t̄_new`.
        for (s, &t) in window.iter().enumerate() {
            let t = t as f64;
            let dt = t - self.mean_t[s];
            self.mean_t[s] += dt / d;
            let dt_new = t - self.mean_t[s];
            self.m2_t[s] += dt * dt_new;
            self.dt_scratch[s] = dt_new;
        }
        for (g, &h) in hyps.iter().enumerate() {
            let dh = h - self.mean_h[g];
            self.mean_h[g] += dh / d;
            self.m2_h[g] += dh * (h - self.mean_h[g]);
            let row = &mut self.cross[g * self.samples..(g + 1) * self.samples];
            for (r, &dt_new) in row.iter_mut().zip(&self.dt_scratch) {
                *r += dh * dt_new;
            }
        }
    }

    /// The correlation of guess `g` at sample `s`.
    pub fn corr(&self, g: usize, s: usize) -> f64 {
        if self.d < 2 {
            return 0.0;
        }
        let num = self.cross[g * self.samples + s];
        let den = (self.m2_h[g] * self.m2_t[s]).sqrt();
        if den <= 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// The full correlation trace (all samples) for guess `g`.
    pub fn corr_row(&self, g: usize) -> Vec<f64> {
        (0..self.samples).map(|s| self.corr(g, s)).collect()
    }

    /// `(sample, |corr|)` of the leakiest time point for guess `g`.
    pub fn peak(&self, g: usize) -> (usize, f64) {
        let mut best = (0usize, 0f64);
        for s in 0..self.samples {
            let c = self.corr(g, s).abs();
            if c > best.1 {
                best = (s, c);
            }
        }
        best
    }

    /// Guesses ranked by descending peak absolute correlation:
    /// `(guess index, best sample, correlation at that sample)`.
    pub fn ranking(&self) -> Vec<(usize, usize, f64)> {
        let mut v: Vec<(usize, usize, f64)> = (0..self.guesses)
            .map(|g| {
                let (s, _) = self.peak(g);
                (g, s, self.corr(g, s))
            })
            .collect();
        v.sort_by(|a, b| b.2.abs().partial_cmp(&a.2.abs()).unwrap_or(core::cmp::Ordering::Equal));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_correlation() {
        let h: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let t: Vec<f32> = (0..100).map(|i| 3.0 * i as f32 + 1.0).collect();
        assert!((pearson(&h, &t) - 1.0).abs() < 1e-12);
        let tn: Vec<f32> = t.iter().map(|v| -v).collect();
        assert!((pearson(&h, &tn) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_data_has_low_correlation() {
        // Deterministic pseudo-random pairing.
        let h: Vec<f64> = (0..5000).map(|i| ((i * 2654435761u64) % 97) as f64).collect();
        let t: Vec<f32> = (0..5000).map(|i| ((i * 40503u64 + 7) % 89) as f32).collect();
        assert!(pearson(&h, &t).abs() < 0.05);
    }

    #[test]
    fn constant_inputs_give_zero() {
        assert_eq!(pearson(&[1.0; 10], &[2.0; 10]), 0.0);
        let h: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(pearson(&h, &[5.0; 10]), 0.0);
    }

    #[test]
    fn evolution_converges_to_full_correlation() {
        let h: Vec<f64> = (0..400).map(|i| ((i * 31) % 17) as f64).collect();
        let t: Vec<f32> = h.iter().map(|&v| (2.0 * v) as f32).collect();
        let evo = pearson_evolution(&h, &t);
        assert_eq!(evo.len(), 400);
        assert!((evo.last().unwrap() - pearson(&h, &t)).abs() < 1e-12);
    }

    #[test]
    fn matrix_matches_direct_pearson() {
        let traces: Vec<Vec<f32>> =
            (0..50).map(|d| (0..4).map(|s| ((d * 7 + s * 13) % 23) as f32).collect()).collect();
        let hyps: Vec<Vec<f64>> =
            (0..50).map(|d| (0..3).map(|g| ((d * (g + 2) + 1) % 19) as f64).collect()).collect();
        let mut m = CorrMatrix::new(3, 4);
        for (h, t) in hyps.iter().zip(&traces) {
            m.update(h, t);
        }
        for g in 0..3 {
            for s in 0..4 {
                let hv: Vec<f64> = hyps.iter().map(|h| h[g]).collect();
                let tv: Vec<f32> = traces.iter().map(|t| t[s]).collect();
                assert!((m.corr(g, s) - pearson(&hv, &tv)).abs() < 1e-10, "g={g} s={s}");
            }
        }
        assert_eq!(m.traces(), 50);
    }

    /// The one-pass power-sum expansion this module used before the
    /// centered rewrite — kept as the regression baseline the fix is
    /// measured against.
    fn one_pass_pearson(hyps: &[f64], samples: &[f32]) -> f64 {
        let d = hyps.len() as f64;
        let (mut sh, mut sh2, mut st, mut st2, mut sht) = (0f64, 0f64, 0f64, 0f64, 0f64);
        for (&h, &t) in hyps.iter().zip(samples) {
            let t = t as f64;
            sh += h;
            sh2 += h * h;
            st += t;
            st2 += t * t;
            sht += h * t;
        }
        let num = d * sht - sh * st;
        let den = ((d * sh2 - sh * sh) * (d * st2 - st * st)).sqrt();
        if den <= 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Offset regression data: a DC-coupled baseline of 1e7 on every
    /// sample. The f32 ulp at 1e7 is 1.0, so a ×16 signal survives
    /// quantisation, and every sample value is an integer < 2^24 —
    /// exactly representable, which makes the offset-removed reference
    /// below exact rather than approximate.
    fn offset_data() -> (Vec<f64>, Vec<f32>, Vec<f32>) {
        let h: Vec<f64> = (0..2000).map(|i| ((i * 37) % 32) as f64).collect();
        let t: Vec<f32> = h
            .iter()
            .enumerate()
            .map(|(i, &v)| (1.0e7 + 16.0 * v + ((i * 13) % 7) as f64) as f32)
            .collect();
        // Subtracting the (exactly representable) offset is exact in
        // f32, and Pearson is shift-invariant: same true correlation.
        let t0: Vec<f32> = t.iter().map(|&v| v - 1.0e7).collect();
        (h, t, t0)
    }

    #[test]
    fn large_offset_samples_keep_full_precision() {
        let (h, t, t0) = offset_data();
        let reference = pearson(&h, &t0);
        assert!(reference > 0.99, "the planted signal must dominate: {reference}");
        // Centered estimators are unmoved by the offset...
        assert!((pearson(&h, &t) - reference).abs() < 1e-12);
        let evo = pearson_evolution(&h, &t);
        assert!((evo.last().unwrap() - reference).abs() < 1e-9);
        // ...while the previous one-pass expansion loses ~10 digits of
        // the sample variance to cancellation on identical input.
        let old_err = (one_pass_pearson(&h, &t) - reference).abs();
        assert!(old_err > 1e-8, "expected visible one-pass degradation, got {old_err:.3e}");
    }

    #[test]
    fn matrix_is_offset_robust() {
        let (h, t, t0) = offset_data();
        let reference = pearson(&h, &t0);
        let mut m = CorrMatrix::new(1, 1);
        for (&hv, &tv) in h.iter().zip(&t) {
            m.update(&[hv], &[tv]);
        }
        assert!((m.corr(0, 0) - reference).abs() < 1e-12, "got {}", m.corr(0, 0));
    }

    #[test]
    fn pearson_sums_matches_reference_estimator() {
        let h: Vec<f64> = (0..257).map(|i| ((i * 31) % 17) as f64).collect();
        let t: Vec<f32> = (0..257).map(|i| ((i * 13 + 5) % 23) as f32).collect();
        let mut scalar = PearsonSums::default();
        for (&hv, &tv) in h.iter().zip(&t) {
            scalar.push(hv, tv as f64);
        }
        let mut tiled = PearsonSums::default();
        tiled.push_column(&h, &t);
        assert_eq!(tiled.len(), h.len());
        // Tiled and scalar orders agree to rounding; both track the
        // two-pass reference closely on this well-conditioned data.
        assert!((tiled.corr() - scalar.corr()).abs() < 1e-12);
        assert!((tiled.corr() - pearson(&h, &t)).abs() < 1e-12);
        assert!((tiled.hyp_variance() - scalar.hyp_variance()).abs() < 1e-9);
    }

    #[test]
    fn pearson_sums_column_splits_are_bit_identical() {
        // The determinism contract: feeding one column or the same data
        // as scalar pushes after a tiled prefix must not depend on
        // thread count — and a *fixed* split always reproduces itself.
        let h: Vec<f64> = (0..101).map(|i| ((i * 7) % 29) as f64).collect();
        let t: Vec<f32> = (0..101).map(|i| ((i * 11) % 31) as f32).collect();
        let mut a = PearsonSums::default();
        a.push_column(&h, &t);
        let mut b = PearsonSums::default();
        b.push_column(&h, &t);
        assert_eq!(a.corr().to_bits(), b.corr().to_bits());
        assert_eq!(a.hyp_variance().to_bits(), b.hyp_variance().to_bits());
        assert!(!a.is_empty());
    }

    #[test]
    fn sample_sum_reuse_is_bit_identical() {
        // Reusing precomputed Σt/Σt² lanes must be invisible at the bit
        // level — the beam relies on this to keep kernel choice and sum
        // reuse out of the determinism surface.
        for len in [0usize, 1, 5, 64, 101, 257] {
            let h: Vec<f64> = (0..len).map(|i| ((i * 37) % 61) as f64 - 30.0).collect();
            let t: Vec<f32> = (0..len).map(|i| ((i * 13 + 5) % 53) as f32 / 3.0).collect();
            let mut direct = PearsonSums::default();
            direct.push_column(&h, &t);
            let sums = SampleSums::new(&t);
            assert_eq!(sums.len(), len);
            let mut reused = PearsonSums::default();
            reused.push_column_reusing(&h, &t, &sums);
            let db = direct.components().map(f64::to_bits);
            let rb = reused.components().map(f64::to_bits);
            assert_eq!(db, rb, "len={len}");
        }
    }

    #[test]
    fn sample_moment_reuse_is_bit_identical() {
        for len in [0usize, 1, 7, 200, 2000] {
            let h: Vec<f64> = (0..len).map(|i| ((i * 29) % 47) as f64).collect();
            let t: Vec<f32> =
                (0..len).map(|i| (1.0e7 + ((i * 17) % 41) as f64 * 16.0) as f32).collect();
            let moments = SampleMoments::new(&t);
            assert_eq!(moments.len(), len);
            let direct = pearson(&h, &t);
            let reused = pearson_with_moments(&h, &t, &moments);
            assert_eq!(direct.to_bits(), reused.to_bits(), "len={len}");
        }
    }

    #[test]
    fn ranking_orders_by_peak() {
        let mut m = CorrMatrix::new(2, 1);
        for d in 0..100 {
            let x = (d % 10) as f64;
            // guess 0 correlates strongly, guess 1 weakly.
            m.update(&[x, (d % 3) as f64], &[(x * 2.0) as f32]);
        }
        let r = m.ranking();
        assert_eq!(r[0].0, 0);
        assert!(r[0].2.abs() > r[1].2.abs());
    }
}
