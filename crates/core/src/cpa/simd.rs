//! Runtime-dispatched SIMD tile kernels behind
//! [`PearsonSums::push_column`](super::PearsonSums::push_column) and the
//! fused extend column [`push_product_column`](super::push_product_column).
//!
//! # The numeric contract
//!
//! Every kernel computes the **same four-lane tile** as the scalar
//! reference: lane `j` accumulates every [`TILE_LANES`]-th element of
//! the column (multiply, then add — never a fused multiply-add), and
//! the caller folds the lanes in index order. A 256-bit AVX2 register
//! holds exactly four `f64` lanes, so one vector add performs the four
//! scalar lane adds with operand-for-operand identical IEEE-754
//! roundings. The column tile ([`tile_lanes_hyp`]) accumulates only the
//! hypothesis side (Σh, Σh², Σht); the sample side (Σt, Σt²) is shared
//! by every candidate and comes from a [`SampleSums`](super::SampleSums)
//! built once per column. The result is **bit-identical** across
//! kernels — verified exhaustively by
//! `crates/core/tests/kernel_differential.rs` — which is what lets the
//! determinism suite treat kernel choice like thread count: an
//! execution detail that cannot move a single output bit.
//!
//! The fused extend kernel (`product_lanes`) keeps the same tile but
//! computes its hypotheses itself: `h = popcount((guess · known) &
//! mask)`, an integer in `0..=64`, for [`GUESS_BLOCK`] guesses per pass
//! over a column. Its lanes are **exact integers** for Σh and Σh² — sums
//! of small integers, far below 2^53, so the `f64` values the caller
//! folds from them equal the `f64` sums the two-step path (hypothesis
//! column, then [`tile_lanes_hyp`]) accumulates, in any order. Σht stays
//! an `f64` multiply-then-add chain per guess and lane, in index order,
//! with `h` converted to `f64` exactly; the caller's fold (lanes in
//! index order, then the tail, column by column) is the two-step fold.
//! So the fused scores are bit-identical to the two-step ones as well as
//! across kernels. AVX-512 and AVX2 run vector kernels; every other
//! host (aarch64 included) runs the always-compiled scalar reference.
//!
//! The AVX-512 fused kernel holds the whole guess block in one 512-bit
//! register per statistic. Its eight 64-bit lanes map to guess `q` and
//! scalar lane `j` as
//!
//! ```text
//! zmm lane   0    1    2    3    4    5    6    7
//! guess q    0    0    0    0    1    1    1    1
//! lane j     0    1    2    3    0    1    2    3
//! ```
//!
//! so each step broadcasts the four-trace known and sample tiles into
//! both 256-bit halves. Every `(q, j)` keeps its own chain of the
//! scalar reference's operations in index order — integer adds for Σh
//! and Σh², a separate multiply then add for Σht — so this kernel is
//! bit-identical by construction too.
//!
//! # Selection
//!
//! The active kernel is resolved once (then cached) from, in order:
//!
//! 1. [`set_kernel`] — in-process override for tests and benches;
//! 2. the `FALCON_DEMA_SIMD` environment variable: `scalar` (or its
//!    spelling `off`) pins the portable tile, `auto` (or unset) enables
//!    detection;
//! 3. runtime CPU feature detection (`avx2` on x86_64, upgraded to the
//!    AVX-512 fused kernel when `avx512f` and `avx512vpopcntdq` are both
//!    present), falling back to the always-compiled scalar tile.
//!
//! The resolved choice is reported through the `cpa.kernel` obs gauge
//! (0 = scalar, 1 = AVX2, 3 = AVX-512) so every bench and campaign
//! records which path actually ran. Selection composes with the
//! executor's `FALCON_DEMA_THREADS`: kernel state is process-global
//! atomics, so every `dema::exec` worker dispatches identically.
//!
//! # Safety policy
//!
//! This module contains the workspace's only `unsafe` code. The
//! `falcon-ct` unsafe audit allowlists exactly this path
//! (`crates/core/src/cpa/simd`) and requires a `// SAFETY:` comment on
//! every block; CI fails on any `unsafe` anywhere else. All pointer
//! arithmetic is bounded by the `n = len - len % TILE_LANES` prefix the
//! dispatcher computes from the (asserted equal-length) input slices.

use crate::obs;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Lanes of the tile kernel. The lane count is part of the numeric
/// contract: it fixes the floating-point summation order, which keeps
/// results bit-identical across thread counts, call sites *and*
/// kernels.
pub const TILE_LANES: usize = 4;

/// The tile kernels this build can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable four-lane scalar tile (always compiled, the reference).
    Scalar,
    /// AVX2 `f64x4` lanes (x86_64, runtime-detected).
    Avx2,
    /// AVX-512 fused extend kernel with native `vpopcntq` (x86_64,
    /// runtime-detected `avx512f` + `avx512vpopcntdq`); the column tile
    /// runs the AVX2 kernel.
    Avx512,
}

impl Kernel {
    /// Stable display name (used in bench reports and CI logs).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
        }
    }

    /// The `cpa.kernel` gauge encoding.
    fn gauge_code(self) -> f64 {
        match self {
            Kernel::Scalar => 0.0,
            Kernel::Avx2 => 1.0,
            Kernel::Avx512 => 3.0,
        }
    }
}

/// Selection policy, before detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Always the scalar tile (`FALCON_DEMA_SIMD=scalar`, or `off`).
    Scalar,
    /// Detect and use the best available kernel (the default).
    Auto,
}

/// Cached resolved kernel: 0 = unresolved, else `Kernel` + 1.
static RESOLVED: AtomicU8 = AtomicU8::new(0);

/// In-process override: 0 = none, else `KernelChoice` + 1.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The `FALCON_DEMA_SIMD` value at first use (cached: the kernel
/// dispatcher sits on the hot path and `std::env::var` takes a lock),
/// parsed by [`parse_choice`].
pub(crate) fn env_choice() -> &'static Result<Option<KernelChoice>, String> {
    static ENV: OnceLock<Result<Option<KernelChoice>, String>> = OnceLock::new();
    // ct: allow(opt-in kernel knob, read once and cached)
    ENV.get_or_init(|| parse_choice(&std::env::var("FALCON_DEMA_SIMD").unwrap_or_default()))
}

/// A `FALCON_DEMA_SIMD` value: `None` when empty (unset), else the
/// policy it names; a value that names none comes back as the error.
fn parse_choice(value: &str) -> Result<Option<KernelChoice>, String> {
    match value {
        "" => Ok(None),
        "off" | "scalar" => Ok(Some(KernelChoice::Scalar)),
        "auto" => Ok(Some(KernelChoice::Auto)),
        other => Err(other.to_string()),
    }
}

/// What the CPU supports, independent of policy.
fn detect() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            {
                return Kernel::Avx512;
            }
            return Kernel::Avx2;
        }
    }
    Kernel::Scalar
}

fn resolve() -> Kernel {
    let choice = match OVERRIDE.load(Ordering::Relaxed) {
        1 => KernelChoice::Scalar,
        2 => KernelChoice::Auto,
        // A value that names no policy resolves as auto here;
        // `exec::check_env` is where the bins reject it.
        _ => env_choice().clone().ok().flatten().unwrap_or(KernelChoice::Auto),
    };
    let kernel = match choice {
        KernelChoice::Scalar => Kernel::Scalar,
        KernelChoice::Auto => detect(),
    };
    obs::gauge("cpa.kernel").set(kernel.gauge_code());
    RESOLVED.store(kernel as u8 + 1, Ordering::Relaxed);
    kernel
}

/// The kernel the next tile call will dispatch to (resolving and
/// publishing the `cpa.kernel` gauge on first use).
pub fn active_kernel() -> Kernel {
    match RESOLVED.load(Ordering::Relaxed) {
        1 => Kernel::Scalar,
        2 => Kernel::Avx2,
        3 => Kernel::Avx512,
        _ => resolve(),
    }
}

/// Overrides the kernel selection policy for this process (`None`
/// clears the override and returns to the environment/detection
/// default). Intended for the differential tests, the determinism
/// matrix and reproducible benches; takes precedence over
/// `FALCON_DEMA_SIMD`. Takes effect immediately: the cached resolution
/// is invalidated.
pub fn set_kernel(choice: Option<KernelChoice>) {
    let code = match choice {
        None => 0,
        Some(KernelChoice::Scalar) => 1,
        Some(KernelChoice::Auto) => 2,
    };
    OVERRIDE.store(code, Ordering::Relaxed);
    RESOLVED.store(0, Ordering::Relaxed);
}

/// Whether this host can run a non-scalar kernel at all (used by tests
/// and the bench to decide between a speedup assertion and a documented
/// scalar-parity run).
pub fn simd_available() -> bool {
    detect() != Kernel::Scalar
}

/// Per-lane accumulator state of one column tile: the
/// candidate-dependent statistics (Σh, Σh², Σht) × [`TILE_LANES`]
/// independent lanes. The sample side comes from a precomputed
/// [`super::SampleSums`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct HypLanes {
    /// Σh per lane.
    pub sh: [f64; TILE_LANES],
    /// Σh² per lane.
    pub sh2: [f64; TILE_LANES],
    /// Σht per lane.
    pub sht: [f64; TILE_LANES],
}

/// Lane-wise accumulation of Σh, Σh² and Σht over the aligned prefix
/// (`len - len % TILE_LANES` elements) of a column pair, dispatched to
/// the active kernel. The caller folds the lanes in index order and
/// handles the remainder.
///
/// # Panics
///
/// Panics when the slice lengths differ (the vector kernel reads both
/// up to the same index).
pub fn tile_lanes_hyp(hyps: &[f64], samples: &[f32]) -> HypLanes {
    assert_eq!(hyps.len(), samples.len(), "hypothesis and sample columns must align");
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch reaches Avx2 or Avx512 only when runtime
        // detection confirmed the host supports the avx2 target feature.
        Kernel::Avx2 | Kernel::Avx512 => unsafe { tile_lanes_hyp_avx2(hyps, samples) },
        _ => tile_lanes_hyp_scalar(hyps, samples),
    }
}

/// The reference tile: four independent scalar lanes, multiply then
/// add. Every SIMD kernel must reproduce this bit-for-bit.
pub(crate) fn tile_lanes_hyp_scalar(hyps: &[f64], samples: &[f32]) -> HypLanes {
    let mut l = HypLanes::default();
    for (hh, ss) in hyps.chunks_exact(TILE_LANES).zip(samples.chunks_exact(TILE_LANES)) {
        for j in 0..TILE_LANES {
            let h = hh[j];
            let t = ss[j] as f64;
            l.sh[j] += h;
            l.sh2[j] += h * h;
            l.sht[j] += h * t;
        }
    }
    l
}

/// AVX2 tile: one `f64x4` register per statistic; vector lane `j` is
/// scalar lane `j`. Multiplies and adds are separate instructions (no
/// FMA — an FMA's single rounding would diverge from the reference),
/// and `vcvtps2pd` widens the samples exactly, so every lane reproduces
/// the scalar tile bit-for-bit.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2 (runtime-detected in the
/// dispatcher) and that `hyps.len() == samples.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: unsafe solely via target_feature; dispatch checks AVX2 first.
unsafe fn tile_lanes_hyp_avx2(hyps: &[f64], samples: &[f32]) -> HypLanes {
    use std::arch::x86_64::*;
    let n = hyps.len() - hyps.len() % TILE_LANES;
    // SAFETY: (whole body) every pointer access below reads exactly
    // TILE_LANES elements starting at i, with i + TILE_LANES <= n <=
    // the length of both slices; loadu imposes no alignment.
    unsafe {
        let mut vsh = _mm256_setzero_pd();
        let mut vsh2 = _mm256_setzero_pd();
        let mut vsht = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + TILE_LANES <= n {
            let h = _mm256_loadu_pd(hyps.as_ptr().add(i));
            let t = _mm256_cvtps_pd(_mm_loadu_ps(samples.as_ptr().add(i)));
            vsh = _mm256_add_pd(vsh, h);
            vsh2 = _mm256_add_pd(vsh2, _mm256_mul_pd(h, h));
            vsht = _mm256_add_pd(vsht, _mm256_mul_pd(h, t));
            i += TILE_LANES;
        }
        let mut l = HypLanes::default();
        _mm256_storeu_pd(l.sh.as_mut_ptr(), vsh);
        _mm256_storeu_pd(l.sh2.as_mut_ptr(), vsh2);
        _mm256_storeu_pd(l.sht.as_mut_ptr(), vsht);
        l
    }
}

/// Guesses the fused extend kernel scores per pass over a column. Each
/// guess keeps its own Σht chain, so two guesses give the AVX2 loop two
/// independent add chains per loaded column tile.
pub const GUESS_BLOCK: usize = 2;

/// Per-guess lanes of one fused partial-product pass
/// ([`product_lanes`]): Σh and Σh² as exact integers, Σht in `f64`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(crate) struct ProductLanes {
    /// Σh per lane.
    pub sh: [u64; TILE_LANES],
    /// Σh² per lane.
    pub sh2: [u64; TILE_LANES],
    /// Σht per lane.
    pub sht: [f64; TILE_LANES],
}

/// The partial-product hypothesis of one trace: the Hamming weight of
/// `guess · known` under `mask` (see
/// [`hyp_partial_product`](crate::model::hyp_partial_product)).
#[inline]
pub(crate) fn product_hw(guess: u64, known: u32, mask: u64) -> u32 {
    (guess.wrapping_mul(u64::from(known)) & mask).count_ones()
}

/// Fused partial-product tile over the aligned prefix (`len - len %
/// TILE_LANES` traces) of a known column and its sample column: for each
/// guess `g`, the hypothesis `h = popcount((g · known) & mask)` of every
/// trace is computed in registers and accumulated lane-wise against the
/// sample, dispatched to the active kernel. The caller folds the lanes
/// and handles the remainder.
///
/// # Panics
///
/// Panics when the slice lengths differ (the vector kernels read both
/// up to the same index), or when a guess is not below 2^32: the AVX2
/// kernel multiplies 32 × 32 → 64 bits, which is the exact product only
/// there.
pub(crate) fn product_lanes(
    guesses: [u64; GUESS_BLOCK],
    mask: u64,
    knowns: &[u32],
    samples: &[f32],
) -> [ProductLanes; GUESS_BLOCK] {
    assert_eq!(knowns.len(), samples.len(), "known and sample columns must align");
    assert!(guesses.iter().all(|&g| g >> 32 == 0), "extend guesses must be below 2^32");
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch reaches Avx2 only when runtime detection
        // confirmed the host supports the avx2 target feature.
        Kernel::Avx2 => unsafe { product_lanes_avx2(guesses, mask, knowns, samples) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch reaches Avx512 only when runtime detection
        // confirmed the host supports avx512f and avx512vpopcntdq.
        Kernel::Avx512 => unsafe { product_lanes_avx512(guesses, mask, knowns, samples) },
        _ => product_lanes_scalar(guesses, mask, knowns, samples),
    }
}

/// The reference fused tile: per guess, four lanes of integer Σh, Σh²
/// and multiply-then-add `f64` Σht. The AVX2 kernel reproduces it
/// bit-for-bit.
pub(crate) fn product_lanes_scalar(
    guesses: [u64; GUESS_BLOCK],
    mask: u64,
    knowns: &[u32],
    samples: &[f32],
) -> [ProductLanes; GUESS_BLOCK] {
    let mut out = [ProductLanes::default(); GUESS_BLOCK];
    for (kk, ss) in knowns.chunks_exact(TILE_LANES).zip(samples.chunks_exact(TILE_LANES)) {
        for (l, &g) in out.iter_mut().zip(&guesses) {
            for j in 0..TILE_LANES {
                let h = u64::from(product_hw(g, kk[j], mask));
                l.sh[j] += h;
                l.sh2[j] += h * h;
                l.sht[j] += h as f64 * ss[j] as f64;
            }
        }
    }
    out
}

/// AVX2 fused tile: four traces per step, one 64-bit lane each (vector
/// lane `j` is scalar lane `j`). `vpmuludq` forms the exact 32 × 32 → 64
/// product, a nibble-table `vpshufb` plus `vpsadbw` counts each lane's
/// bits, and OR-ing the count into the mantissa of 2^52 then subtracting
/// 2^52 converts it to `f64` exactly. Σh and Σh² add as integers; Σht is
/// a separate multiply and add (no FMA), as in the scalar reference.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2 (runtime-detected in the
/// dispatcher) and that `knowns.len() == samples.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: unsafe solely via target_feature; dispatch checks AVX2 first.
unsafe fn product_lanes_avx2(
    guesses: [u64; GUESS_BLOCK],
    mask: u64,
    knowns: &[u32],
    samples: &[f32],
) -> [ProductLanes; GUESS_BLOCK] {
    use std::arch::x86_64::*;
    let n = knowns.len() - knowns.len() % TILE_LANES;
    // The unaligned loads read TILE_LANES elements at i, with
    // i + TILE_LANES <= n <= both slice lengths; the stores fill
    // TILE_LANES-element arrays.
    // SAFETY: (whole body) every access stays in bounds, as above.
    unsafe {
        let nibble_hw = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_nibbles = _mm256_set1_epi8(0x0F);
        let zero = _mm256_setzero_si256();
        let vmask = _mm256_set1_epi64x(mask as i64);
        let two52 = _mm256_set1_epi64x(0x4330_0000_0000_0000);
        let vg = guesses.map(|g| _mm256_set1_epi64x(g as i64));
        let mut vsh = [zero; GUESS_BLOCK];
        let mut vsh2 = [zero; GUESS_BLOCK];
        let mut vsht = [_mm256_setzero_pd(); GUESS_BLOCK];
        let mut i = 0usize;
        while i + TILE_LANES <= n {
            let k = _mm256_cvtepu32_epi64(_mm_loadu_si128(knowns.as_ptr().add(i).cast()));
            let t = _mm256_cvtps_pd(_mm_loadu_ps(samples.as_ptr().add(i)));
            for q in 0..GUESS_BLOCK {
                let w = _mm256_and_si256(_mm256_mul_epu32(vg[q], k), vmask);
                let lo = _mm256_and_si256(w, low_nibbles);
                let hi = _mm256_and_si256(_mm256_srli_epi16(w, 4), low_nibbles);
                let bytes = _mm256_add_epi8(
                    _mm256_shuffle_epi8(nibble_hw, lo),
                    _mm256_shuffle_epi8(nibble_hw, hi),
                );
                let h = _mm256_sad_epu8(bytes, zero);
                vsh[q] = _mm256_add_epi64(vsh[q], h);
                vsh2[q] = _mm256_add_epi64(vsh2[q], _mm256_mul_epu32(h, h));
                let hf = _mm256_sub_pd(
                    _mm256_castsi256_pd(_mm256_or_si256(h, two52)),
                    _mm256_castsi256_pd(two52),
                );
                vsht[q] = _mm256_add_pd(vsht[q], _mm256_mul_pd(hf, t));
            }
            i += TILE_LANES;
        }
        let mut out = [ProductLanes::default(); GUESS_BLOCK];
        for (l, q) in out.iter_mut().zip(0..GUESS_BLOCK) {
            _mm256_storeu_si256(l.sh.as_mut_ptr().cast(), vsh[q]);
            _mm256_storeu_si256(l.sh2.as_mut_ptr().cast(), vsh2[q]);
            _mm256_storeu_pd(l.sht.as_mut_ptr(), vsht[q]);
        }
        out
    }
}

/// AVX-512 fused tile: both guesses of the block in one 512-bit register
/// per statistic, guess `q` in 64-bit lanes `4q..4q + 3` (lane `4q + j`
/// is guess `q`'s scalar lane `j`). Each step broadcasts the four-trace
/// known and sample tiles into both 256-bit halves; `vpmuludq` forms the
/// exact 32 × 32 → 64 product (it reads only the low 32 bits of each
/// lane), `vpandq` applies the mask and native `vpopcntq` counts the
/// bits. The count converts to `f64` exactly (OR into the mantissa of
/// 2^52, then subtract 2^52); Σh and Σh² add as integers and Σht is a
/// separate multiply and add (no FMA), as in the scalar reference.
///
/// # Safety
///
/// Caller must ensure the host supports AVX-512F and AVX-512 VPOPCNTDQ
/// (runtime-detected in the dispatcher) and that `knowns.len() ==
/// samples.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
// SAFETY: unsafe solely via target_feature; dispatch checks AVX-512 first.
unsafe fn product_lanes_avx512(
    guesses: [u64; GUESS_BLOCK],
    mask: u64,
    knowns: &[u32],
    samples: &[f32],
) -> [ProductLanes; GUESS_BLOCK] {
    use std::arch::x86_64::*;
    const _: () = assert!(GUESS_BLOCK * TILE_LANES == 8, "one zmm holds the whole block");
    let n = knowns.len() - knowns.len() % TILE_LANES;
    // The unaligned loads read TILE_LANES elements at i, with
    // i + TILE_LANES <= n <= both slice lengths; the stores fill
    // 8-element arrays.
    // SAFETY: (whole body) every access stays in bounds, as above.
    unsafe {
        let vmask = _mm512_set1_epi64(mask as i64);
        let two52 = _mm512_set1_epi64(0x4330_0000_0000_0000);
        let vg = _mm512_set_epi64(
            guesses[1] as i64,
            guesses[1] as i64,
            guesses[1] as i64,
            guesses[1] as i64,
            guesses[0] as i64,
            guesses[0] as i64,
            guesses[0] as i64,
            guesses[0] as i64,
        );
        let mut vsh = _mm512_setzero_si512();
        let mut vsh2 = _mm512_setzero_si512();
        let mut vsht = _mm512_setzero_pd();
        let mut i = 0usize;
        while i + TILE_LANES <= n {
            let k4 = _mm_loadu_si128(knowns.as_ptr().add(i).cast());
            let k = _mm512_cvtepu32_epi64(_mm256_broadcastsi128_si256(k4));
            let t4 = _mm_loadu_ps(samples.as_ptr().add(i));
            let t = _mm512_cvtps_pd(_mm256_broadcast_ps(&t4));
            let h = _mm512_popcnt_epi64(_mm512_and_si512(_mm512_mul_epu32(vg, k), vmask));
            vsh = _mm512_add_epi64(vsh, h);
            vsh2 = _mm512_add_epi64(vsh2, _mm512_mul_epu32(h, h));
            let hf = _mm512_sub_pd(
                _mm512_castsi512_pd(_mm512_or_si512(h, two52)),
                _mm512_castsi512_pd(two52),
            );
            vsht = _mm512_add_pd(vsht, _mm512_mul_pd(hf, t));
            i += TILE_LANES;
        }
        let (mut sh, mut sh2, mut sht) = ([0u64; 8], [0u64; 8], [0f64; 8]);
        _mm512_storeu_si512(sh.as_mut_ptr().cast(), vsh);
        _mm512_storeu_si512(sh2.as_mut_ptr().cast(), vsh2);
        _mm512_storeu_pd(sht.as_mut_ptr(), vsht);
        std::array::from_fn(|q| {
            let lanes = q * TILE_LANES..(q + 1) * TILE_LANES;
            ProductLanes {
                sh: sh[lanes.clone()].try_into().expect("TILE_LANES lanes"),
                sh2: sh2[lanes.clone()].try_into().expect("TILE_LANES lanes"),
                sht: sht[lanes].try_into().expect("TILE_LANES lanes"),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kernel selection is process-global; tests that override it must
    /// not interleave. (Tests that merely *use* the kernels don't care:
    /// every kernel is bit-identical, which is the whole contract.)
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn simd_policies_are_accepted_and_other_values_rejected() {
        assert_eq!(parse_choice(""), Ok(None));
        assert_eq!(parse_choice("off"), Ok(Some(KernelChoice::Scalar)));
        assert_eq!(parse_choice("scalar"), Ok(Some(KernelChoice::Scalar)));
        assert_eq!(parse_choice("auto"), Ok(Some(KernelChoice::Auto)));
        for bad in ["scalr", "OFF", "avx2", " auto"] {
            assert_eq!(parse_choice(bad), Err(bad.to_string()));
        }
    }

    fn columns(len: usize, seed: u64) -> (Vec<f64>, Vec<f32>) {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let h: Vec<f64> = (0..len).map(|_| (next() % 97) as f64 - 48.0).collect();
        let t: Vec<f32> = (0..len).map(|_| (next() % 89) as f32 / 7.0 - 6.0).collect();
        (h, t)
    }

    #[test]
    fn detected_kernel_matches_scalar_reference_bitwise() {
        // The in-module smoke test of the bit-identity contract; the
        // exhaustive sweep lives in tests/kernel_differential.rs.
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for len in [0usize, 1, 3, 4, 7, 64, 257] {
            let (h, t) = columns(len, 0x5EED ^ len as u64);
            set_kernel(Some(KernelChoice::Scalar));
            let reference = tile_lanes_hyp(&h, &t);
            set_kernel(Some(KernelChoice::Auto));
            let auto = tile_lanes_hyp(&h, &t);
            set_kernel(None);
            let bits = |l: HypLanes| [l.sh, l.sh2, l.sht].map(|lane| lane.map(f64::to_bits));
            assert_eq!(bits(reference), bits(auto), "len={len}");
        }
    }

    #[test]
    fn override_pins_and_clears() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_kernel(Some(KernelChoice::Scalar));
        assert_eq!(active_kernel(), Kernel::Scalar);
        set_kernel(None);
        // With the override cleared the kernel reflects the host (or
        // the ambient FALCON_DEMA_SIMD policy, which CI sweeps).
        let k = active_kernel();
        assert!(matches!(k, Kernel::Scalar | Kernel::Avx2 | Kernel::Avx512));
    }

    #[test]
    fn kernel_gauge_reports_the_active_path() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_kernel(Some(KernelChoice::Scalar));
        let _ = active_kernel();
        let snap = obs::metrics().snapshot();
        assert_eq!(snap.gauges.get("cpa.kernel").copied(), Some(0.0));
        set_kernel(None);
        let k = active_kernel();
        let snap = obs::metrics().snapshot();
        assert_eq!(snap.gauges.get("cpa.kernel").copied(), Some(k.gauge_code()));
    }

    /// The lanes as bits, every NaN as one value: Rust leaves the sign
    /// and payload of a NaN that arithmetic produces unspecified (the
    /// compiler may swap the operands of an add, and `0 · inf` yields
    /// the negative default NaN), so only NaN-ness is comparable.
    fn product_bits(lanes: &[ProductLanes; GUESS_BLOCK]) -> Vec<u64> {
        let bits = |v: f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
        lanes.iter().flat_map(|l| l.sh.into_iter().chain(l.sh2).chain(l.sht.map(bits))).collect()
    }

    /// Checks one fused kernel, called directly, against
    /// [`product_lanes_scalar`] bit for bit: every tail of 0–9 traces
    /// and a longer column, guesses with bit 27 set and near 2^32,
    /// every mask width, and NaN, infinite, signed-zero and subnormal
    /// samples among values spread over many binades.
    fn product_kernel_matches_scalar(
        kernel: impl Fn([u64; GUESS_BLOCK], u64, &[u32], &[f32]) -> [ProductLanes; GUESS_BLOCK],
    ) {
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            -1.0e-45,
            f32::MAX,
        ];
        let guess_blocks: [[u64; GUESS_BLOCK]; 5] = [
            [0, 1],
            [1 << 27, (1 << 27) | 0x2A_5A5A],
            [u32::MAX as u64, (1 << 32) - 2],
            [(1 << 31) | 0x1234_5678, 0x1FF_FFFF],
            [0x0ABC_DEF1, 0x0FFF_FFFF],
        ];
        for len in (0..=9).chain([67]) {
            let mut state = 0xFA57 ^ len as u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let knowns: Vec<u32> = (0..len)
                .map(|i| match i % 4 {
                    0 => u32::MAX - (next() % 3) as u32,
                    _ => (next() >> (next() % 32)) as u32,
                })
                .collect();
            let samples: Vec<f32> = (0..len)
                .map(|i| match i % 3 {
                    0 => specials[(next() % specials.len() as u64) as usize],
                    _ => {
                        let exp = (next() % 40) as i32 - 20;
                        (next() % 1000) as f32 * 2f32.powi(exp) - 300.0
                    }
                })
                .collect();
            for guesses in guess_blocks {
                for width in 0..=64u32 {
                    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
                    let want = product_lanes_scalar(guesses, mask, &knowns, &samples);
                    let got = kernel(guesses, mask, &knowns, &samples);
                    assert_eq!(
                        product_bits(&got),
                        product_bits(&want),
                        "len={len} guesses={guesses:#x?} width={width}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_product_kernel_matches_scalar_reference_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            println!("skipped: host lacks avx2, product_lanes_avx2 not run");
            return;
        }
        // SAFETY: the closure runs only on this host, which supports
        // avx2 (checked above).
        product_kernel_matches_scalar(|g, m, k, t| unsafe { product_lanes_avx2(g, m, k, t) });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_product_kernel_matches_scalar_reference_bitwise() {
        if !(std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq"))
        {
            println!("skipped: host lacks avx512f/avx512vpopcntdq, product_lanes_avx512 not run");
            return;
        }
        // SAFETY: the closure runs only on this host, which supports
        // avx512f and avx512vpopcntdq (checked above).
        product_kernel_matches_scalar(|g, m, k, t| unsafe { product_lanes_avx512(g, m, k, t) });
    }
}
