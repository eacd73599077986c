//! Correlation power/EM analysis primitives.
//!
//! The paper's distinguisher is the Pearson correlation between
//! Hamming-weight hypotheses and trace samples (its Equation 1). This
//! module has three estimators, each with its own job:
//!
//! * [`PearsonSums`], the attack's one-pass tile accumulator: one column
//!   entry point, [`PearsonSums::push_column`], with the
//!   candidate-independent sample side taken from a [`SampleSums`], and
//!   [`push_product_column`] fusing the extend step's partial-product
//!   hypotheses into the same tile; the Figure 4 (a–d)
//!   correlation-versus-time panels are drawn with it too;
//! * [`pearson`], the offset-robust two-pass estimator for raw or
//!   imported captures;
//! * [`pearson_evolution`], prefix series for
//!   correlation-versus-trace-count plots.
//!
//! The inner tiles of [`PearsonSums::push_column`] and
//! [`push_product_column`] dispatch to the [`simd`] submodule, whose
//! runtime-detected kernels reproduce the scalar four-lane reference
//! bit-for-bit: AVX-512 for the fused extend tile and AVX2 for both
//! tiles; every other host runs the scalar reference. The kernel is
//! selected once per process via `FALCON_DEMA_SIMD` /
//! [`simd::set_kernel`].

// The simd module holds the workspace's only unsafe code (std::arch
// intrinsics), audited by falcon-ct: module allowlisted, every block
// under `// SAFETY:`.
#[allow(unsafe_code)]
pub mod simd;

use simd::{HypLanes, GUESS_BLOCK, TILE_LANES};

/// Streaming Pearson accumulator over `(hypothesis, sample)` pairs.
///
/// This is the attack's innermost data structure: every extend/prune
/// candidate folds its whole column set into one of these through the
/// batched [`push_column`](PearsonSums::push_column) tile kernel, which
/// consumes a whole contiguous column per call (the columnar
/// [`Dataset`] layout hands those out as borrowed slices, so the hot
/// loop runs allocation-free over dense memory).
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
    /// Absorbs one `(hypothesis, sample)` pair: the plain sequential sum,
    /// which the tests hold the tile's fixed lane order against to
    /// rounding.
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
    /// contiguous sample column in one call, with the sample column's
    /// Σt/Σt² taken from `sums` (built once per column by
    /// [`SampleSums::new`] and shared by every candidate scored against
    /// it).
    ///
    /// Accumulation runs in [`TILE_LANES`] independent lanes (lane `j`
    /// sums every `TILE_LANES`-th element) folded in a fixed order, so
    /// the result is deterministic — independent of thread count and of
    /// how a caller splits its columns — while exposing
    /// reassociation-free data parallelism the scalar `push` chain
    /// cannot express. The hypothesis-side lanes dispatch to the active
    /// [`simd`] kernel; every kernel reproduces the scalar reference
    /// bit-for-bit, so the dispatch is invisible to results.
    ///
    /// # Panics
    ///
    /// Panics when the column lengths differ, or when `sums` was built
    /// from a column of a different length.
    pub fn push_column(&mut self, hyps: &[f64], samples: &[f32], sums: &SampleSums) {
        self.push_tile(&ColumnTile::new(hyps, samples), samples, sums);
    }

    /// Folds a column whose hypothesis side was tiled once by
    /// [`ColumnTile::new`] against these `samples`: the same sums as
    /// [`push_column`](Self::push_column) on the tile's column, so a
    /// tile shared by many candidates is computed once.
    ///
    /// # Panics
    ///
    /// Panics when the tile or `sums` was built from a column of a
    /// different length.
    pub(crate) fn push_tile(&mut self, tile: &ColumnTile, samples: &[f32], sums: &SampleSums) {
        assert_eq!(samples.len(), tile.len, "ColumnTile built from a different column length");
        assert_eq!(samples.len(), sums.len, "SampleSums built from a different column length");
        let n = samples.len() - samples.len() % TILE_LANES;
        self.fold_column(
            &tile.lanes,
            sums,
            tile.tail.iter().copied().zip(samples[n..].iter().copied()),
        );
    }

    /// Folds one column into the sums: the lanes in index order (the
    /// sample side from `sums`, recorded in the same lane order), then
    /// the `tail` pairs past the last whole tile in sequence — one fixed
    /// summation order per (lengths, contents) input, shared by every
    /// column entry point.
    fn fold_column(
        &mut self,
        lanes: &HypLanes,
        sums: &SampleSums,
        tail: impl Iterator<Item = (f64, f32)>,
    ) {
        for j in 0..TILE_LANES {
            self.sh += lanes.sh[j];
            self.sh2 += lanes.sh2[j];
            self.st += sums.st[j];
            self.st2 += sums.st2[j];
            self.sht += lanes.sht[j];
        }
        for (h, t) in tail {
            let t = t as f64;
            self.sh += h;
            self.sh2 += h * h;
            self.st += t;
            self.st2 += t * t;
            self.sht += h * t;
        }
        self.d += sums.len as f64;
    }

    /// The Pearson correlation of everything absorbed so far (0 when a
    /// side is constant — no information).
    ///
    /// On a constant column `d·Σt² − (Σt)²` can round below zero, and its
    /// square root is NaN; only a positive denominator gives a
    /// correlation, so that case is 0 too.
    pub fn corr(&self) -> f64 {
        let num = self.d * self.sht - self.sh * self.st;
        let den = ((self.d * self.sh2 - self.sh * self.sh)
            * (self.d * self.st2 - self.st * self.st))
            .sqrt();
        if den > 0.0 {
            num / den
        } else {
            0.0
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

/// The hypothesis side of one column: its tile lanes over the aligned
/// prefix and the hypotheses past it. A column that many candidates
/// share (the sign/exponent attack's exponent and sign columns) is
/// tiled once and folded into each candidate by
/// [`PearsonSums::push_tile`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnTile {
    lanes: HypLanes,
    tail: [f64; TILE_LANES - 1],
    len: usize,
}

impl ColumnTile {
    /// Tiles `hyps` against `samples` on the active [`simd`] kernel.
    ///
    /// # Panics
    ///
    /// Panics when the column lengths differ.
    pub(crate) fn new(hyps: &[f64], samples: &[f32]) -> ColumnTile {
        let lanes = simd::tile_lanes_hyp(hyps, samples);
        let n = hyps.len() - hyps.len() % TILE_LANES;
        let mut tail = [0f64; TILE_LANES - 1];
        tail[..hyps.len() - n].copy_from_slice(&hyps[n..]);
        ColumnTile { lanes, tail, len: hyps.len() }
    }
}

/// The fused extend column: for each of the [`GUESS_BLOCK`] guesses,
/// absorbs into its accumulator the partial-product hypotheses
/// `popcount((guess · known) & mask)` of `knowns` against `samples`,
/// computed in registers by the active [`simd`] kernel rather than
/// written to a hypothesis column first.
///
/// Bit-identical to building each guess's column with
/// [`hyp_partial_product`](crate::model::hyp_partial_product) (`mask`
/// from [`product_mask`](crate::model::product_mask)) and feeding it to
/// [`PearsonSums::push_column`]: Σht runs the same four-lane
/// chain, lane fold and tail, and Σh, Σh² are sums of small integers,
/// exact in any order.
///
/// # Panics
///
/// Panics when the column lengths differ, when `sums` was built from a
/// column of a different length, or when a guess is not below 2^32.
pub fn push_product_column(
    accs: &mut [PearsonSums; GUESS_BLOCK],
    guesses: [u64; GUESS_BLOCK],
    mask: u64,
    knowns: &[u32],
    samples: &[f32],
    sums: &SampleSums,
) {
    assert_eq!(samples.len(), sums.len, "SampleSums built from a different column length");
    let lanes = simd::product_lanes(guesses, mask, knowns, samples);
    let n = knowns.len() - knowns.len() % TILE_LANES;
    for ((acc, l), &g) in accs.iter_mut().zip(&lanes).zip(&guesses) {
        let lanes =
            HypLanes { sh: l.sh.map(|v| v as f64), sh2: l.sh2.map(|v| v as f64), sht: l.sht };
        let tail = knowns[n..].iter().zip(&samples[n..]);
        acc.fold_column(
            &lanes,
            sums,
            tail.map(|(&k, &t)| (f64::from(simd::product_hw(g, k, mask)), t)),
        );
    }
}

/// Precomputed candidate-independent sample statistics for
/// [`PearsonSums::push_column`]: the per-lane Σt/Σt² partials of one
/// sample column, in exactly the lane structure of the tile kernel (so
/// replaying them fixes the bitwise summation order).
///
/// Build one per sample column per beam level; every candidate at that
/// level then skips the sample-side accumulation entirely. A caller
/// with a single hypothesis per column passes `&SampleSums::new(column)`.
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
    fn constant_sample_columns_give_zero_not_nan() {
        // d·Σt² − (Σt)² of a constant column rounds below zero for many
        // (length, value) pairs, e.g. 1000 × −2.9; the root is then NaN.
        for len in [3usize, 7, 100, 257, 1000, 4099] {
            for value in [-2.9f32, 0.1, 1.3, 7.7, -16.03] {
                let h: Vec<f64> = (0..len).map(|i| ((i * 31) % 17) as f64).collect();
                let t = vec![value; len];
                let mut s = PearsonSums::default();
                s.push_column(&h, &t, &SampleSums::new(&t));
                assert_eq!(s.corr().to_bits(), 0f64.to_bits(), "len={len} value={value}");
            }
        }
    }

    #[test]
    fn evolution_converges_to_full_correlation() {
        let h: Vec<f64> = (0..400).map(|i| ((i * 31) % 17) as f64).collect();
        let t: Vec<f32> = h.iter().map(|&v| (2.0 * v) as f32).collect();
        let evo = pearson_evolution(&h, &t);
        assert_eq!(evo.len(), 400);
        assert!((evo.last().unwrap() - pearson(&h, &t)).abs() < 1e-12);
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
    fn pearson_sums_matches_reference_estimator() {
        let h: Vec<f64> = (0..257).map(|i| ((i * 31) % 17) as f64).collect();
        let t: Vec<f32> = (0..257).map(|i| ((i * 13 + 5) % 23) as f32).collect();
        let mut scalar = PearsonSums::default();
        for (&hv, &tv) in h.iter().zip(&t) {
            scalar.push(hv, tv as f64);
        }
        let mut tiled = PearsonSums::default();
        tiled.push_column(&h, &t, &SampleSums::new(&t));
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
        a.push_column(&h, &t, &SampleSums::new(&t));
        let mut b = PearsonSums::default();
        b.push_column(&h, &t, &SampleSums::new(&t));
        assert_eq!(a.corr().to_bits(), b.corr().to_bits());
        assert_eq!(a.hyp_variance().to_bits(), b.hyp_variance().to_bits());
        assert!(!a.is_empty());
    }
}
