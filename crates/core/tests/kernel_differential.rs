//! Differential suite for the SIMD Pearson tile kernels.
//!
//! The contract under test: every kernel (`scalar`, `avx2`, `avx512`)
//! produces **bit-identical** `PearsonSums` state — not merely close
//! correlations — for every input class the attack can feed it. The
//! suite drives the public `push_column` API (hypothesis tile plus
//! reused `SampleSums`) with the kernel pinned to `scalar` and then to
//! `auto`, and compares the raw accumulator components with
//! `f64::to_bits`. `push_column_equals_five_sum_fold` also holds it bit
//! for bit against a test-local copy of the original five-sum scalar
//! fold, which accumulated Σt/Σt² inside the tile instead of taking them
//! from `SampleSums`.
//!
//! The fused extend kernel (`push_product_column`, which computes the
//! partial-product hypotheses in registers) is held to the same bar,
//! and to the two-step path it replaced: `hyp_partial_product` into a
//! hypothesis column, then `push_column`.
//!
//! On a host without AVX2, `auto` resolves to the scalar tile and every
//! scalar-against-auto assertion degenerates to scalar-vs-scalar: the
//! suite still passes (and still guards the fold/tail plumbing around
//! the kernel). CI runs it under both `FALCON_DEMA_SIMD=off` and `auto`
//! regardless, and `ambient_simd_policy_selects_the_named_kernel`
//! proves which kernel each leg ran.

use falcon_dema::cpa::simd::{self, Kernel, KernelChoice, GUESS_BLOCK, TILE_LANES};
use falcon_dema::cpa::{push_product_column, PearsonSums, SampleSums};
use falcon_dema::model::{hyp_partial_product, product_mask};
use falcon_dema::obs;
use std::sync::Mutex;

/// Kernel selection is process-global; tests that override it must not
/// interleave.
static KERNEL_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A hypothesis value in the attack's typical Hamming-weight range.
    fn hyp(&mut self) -> f64 {
        (self.next() % 105) as f64
    }

    /// A plausible near-zero-mean sample.
    fn sample(&mut self) -> f32 {
        (self.next() % 2048) as f32 / 64.0 - 16.0
    }
}

fn random_columns(len: usize, seed: u64) -> (Vec<f64>, Vec<f32>) {
    let mut rng = Rng::new(seed);
    let h = (0..len).map(|_| rng.hyp()).collect();
    let t = (0..len).map(|_| rng.sample()).collect();
    (h, t)
}

/// Sums fed through `push_column` under the given kernel policy.
fn sums_under(choice: KernelChoice, h: &[f64], t: &[f32]) -> [u64; 6] {
    simd::set_kernel(Some(choice));
    let mut s = PearsonSums::default();
    s.push_column(h, t, &SampleSums::new(t));
    let out = s.components().map(f64::to_bits);
    simd::set_kernel(None);
    out
}

/// The original five-sum scalar fold, the reference `push_column` is
/// held to: Σh, Σh², Σt, Σt² and Σht accumulated together in
/// [`TILE_LANES`] lanes (multiply, then add), the lanes folded in index
/// order, then the tail in sequence. Returns the components
/// `[d, Σh, Σh², Σt, Σt², Σht]` as bits.
fn five_sum_fold(h: &[f64], t: &[f32]) -> [u64; 6] {
    let mut lanes = [[0f64; 5]; TILE_LANES];
    for (hh, tt) in h.chunks_exact(TILE_LANES).zip(t.chunks_exact(TILE_LANES)) {
        for (l, (&h, &t)) in lanes.iter_mut().zip(hh.iter().zip(tt)) {
            let t = t as f64;
            l[0] += h;
            l[1] += h * h;
            l[2] += t;
            l[3] += t * t;
            l[4] += h * t;
        }
    }
    let mut s = [0f64; 6];
    for l in lanes {
        for k in 0..5 {
            s[k + 1] += l[k];
        }
    }
    let n = h.len() - h.len() % TILE_LANES;
    for (&h, &t) in h[n..].iter().zip(&t[n..]) {
        let t = t as f64;
        s[1] += h;
        s[2] += h * h;
        s[3] += t;
        s[4] += t * t;
        s[5] += h * t;
    }
    s[0] = h.len() as f64;
    s.map(f64::to_bits)
}

/// Asserts scalar and auto kernels agree bitwise on one column pair.
fn assert_bit_identical(h: &[f64], t: &[f32], what: &str) {
    let scalar = sums_under(KernelChoice::Scalar, h, t);
    let auto = sums_under(KernelChoice::Auto, h, t);
    assert_eq!(scalar, auto, "push_column sums diverge: {what}");

    // And the derived statistics follow the sums.
    simd::set_kernel(Some(KernelChoice::Scalar));
    let mut a = PearsonSums::default();
    a.push_column(h, t, &SampleSums::new(t));
    simd::set_kernel(Some(KernelChoice::Auto));
    let mut b = PearsonSums::default();
    b.push_column(h, t, &SampleSums::new(t));
    simd::set_kernel(None);
    assert_eq!(a.corr().to_bits(), b.corr().to_bits(), "corr diverges: {what}");
    assert_eq!(
        a.hyp_variance().to_bits(),
        b.hyp_variance().to_bits(),
        "hyp_variance diverges: {what}"
    );
}

#[test]
fn lane_remainders_zero_through_seven() {
    let _g = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Column lengths covering every remainder mod TILE_LANES twice,
    // plus degenerate lengths shorter than one tile.
    for len in [0usize, 1, 2, 3, 4, 5, 6, 7, 96, 97, 98, 99, 100, 101, 102, 103, 1000, 4099] {
        let (h, t) = random_columns(len, 0xD1F7 ^ (len as u64) << 8);
        assert_bit_identical(&h, &t, &format!("random columns, len={len}"));
    }
}

#[test]
fn pathological_sample_values() {
    let _g = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // NaN, infinities, signed zeros, subnormals and f32 saturation must
    // propagate identically through every kernel (IEEE semantics of
    // mul/add/convert are exact and kernel-independent; the suite pins
    // that no kernel "cleans up" or flushes anything).
    let specials: [f32; 12] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE,        // smallest normal
        f32::MIN_POSITIVE / 2.0,  // subnormal
        -f32::MIN_POSITIVE / 4.0, // negative subnormal
        f32::MAX,                 // saturated capture
        f32::MIN,
        1.0e-45, // smallest positive subnormal
        3.4e38,
    ];
    for (i, &special) in specials.iter().enumerate() {
        for len in [5usize, 64, 131] {
            let (h, mut t) = random_columns(len, 0xBAD0 + i as u64);
            // Scatter the special value into several lanes and the tail.
            let mut rng = Rng::new(0xCAFE + i as u64);
            for _ in 0..=len / 7 {
                let at = (rng.next() as usize) % len;
                t[at] = special;
            }
            assert_bit_identical(&h, &t, &format!("special {special:?} len={len}"));
        }
    }
}

#[test]
fn constant_columns_zero_variance() {
    let _g = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for len in [1usize, 4, 7, 64, 129] {
        // Constant hypothesis side (the unfalsifiable all-zero-window
        // candidate), constant sample side, and both.
        let (h, t) = random_columns(len, 0xC0457 + len as u64);
        let hc = vec![3.0f64; len];
        let tc = vec![-1.5f32; len];
        assert_bit_identical(&hc, &t, &format!("constant hyps len={len}"));
        assert_bit_identical(&h, &tc, &format!("constant samples len={len}"));
        assert_bit_identical(&hc, &tc, &format!("both constant len={len}"));

        // Zero variance must also yield corr() == 0 exactly, not NaN.
        simd::set_kernel(Some(KernelChoice::Auto));
        let mut s = PearsonSums::default();
        s.push_column(&hc, &t, &SampleSums::new(&t));
        assert_eq!(s.corr(), 0.0, "constant hypothesis must give zero correlation");
        simd::set_kernel(None);
    }
}

#[test]
fn multi_column_accumulation_is_bit_identical() {
    let _g = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The attack folds several columns of different lengths into one
    // accumulator; the kernel boundary (lane fold + tail) re-runs per
    // column, so cross-column state must carry identically.
    let cols: Vec<(Vec<f64>, Vec<f32>)> =
        [33usize, 4, 7, 256, 1].iter().map(|&n| random_columns(n, 0x5E0 + n as u64)).collect();
    let run = |choice: KernelChoice| {
        simd::set_kernel(Some(choice));
        let mut s = PearsonSums::default();
        for (h, t) in &cols {
            s.push_column(h, t, &SampleSums::new(t));
        }
        let out = s.components().map(f64::to_bits);
        simd::set_kernel(None);
        out
    };
    assert_eq!(run(KernelChoice::Scalar), run(KernelChoice::Auto));
}

#[test]
fn active_kernel_reports_detection() {
    let _g = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::set_kernel(Some(KernelChoice::Scalar));
    assert_eq!(simd::active_kernel(), Kernel::Scalar);
    simd::set_kernel(Some(KernelChoice::Auto));
    let auto = simd::active_kernel();
    simd::set_kernel(None);
    if simd::simd_available() {
        assert_ne!(auto, Kernel::Scalar, "SIMD host must auto-select a vector kernel");
    } else {
        assert_eq!(auto, Kernel::Scalar, "non-SIMD host must fall back to the scalar tile");
    }
}

#[test]
fn push_column_equals_five_sum_fold() {
    // The sample side moved out of the tile into SampleSums; no bit may
    // move with it. Wide samples round at nearly every add, so any
    // change to the Σt/Σt² summation order shows.
    let _g = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let specials =
        [f32::NAN, f32::INFINITY, -0.0, 0.0, f32::MIN_POSITIVE / 2.0, 1.0e-45, f32::MAX, f32::MIN];
    for len in [0usize, 1, 2, 3, 4, 5, 6, 7, 64, 97, 131, 4099] {
        let (h, _) = random_columns(len, 0xF5 ^ (len as u64) << 8);
        let wide = wide_samples(len, 0x5F ^ (len as u64) << 8);
        let mut cases = vec![
            (h.clone(), wide.clone(), "wide samples".to_string()),
            (vec![3.0; len], wide.clone(), "constant hyps".to_string()),
            (h.clone(), vec![-1.5; len], "constant samples".to_string()),
        ];
        for special in specials {
            let mut t = wide.clone();
            for at in (len % 3..len).step_by(7) {
                t[at] = special;
            }
            cases.push((h.clone(), t, format!("special {special:?}")));
        }
        for (h, t, what) in cases {
            for choice in [KernelChoice::Scalar, KernelChoice::Auto] {
                assert_eq!(
                    sums_under(choice, &h, &t),
                    five_sum_fold(&h, &t),
                    "push_column != five-sum fold ({choice:?}): {what}, len={len}"
                );
            }
        }
    }
}

#[test]
fn ambient_simd_policy_selects_the_named_kernel() {
    // With no in-process override, FALCON_DEMA_SIMD alone picks the
    // kernel: a CI leg meant to test the scalar reference must not run
    // the vector kernels because its value was misspelt.
    let _g = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::set_kernel(None);
    let kernel = simd::active_kernel();
    let gauge = obs::metrics().snapshot().gauges.get("cpa.kernel").copied();
    match std::env::var("FALCON_DEMA_SIMD").unwrap_or_default().as_str() {
        "off" | "scalar" => {
            assert_eq!(kernel, Kernel::Scalar, "the scalar policy must run the scalar tile");
            assert_eq!(gauge, Some(0.0), "cpa.kernel must report the scalar tile");
        }
        "" | "auto" => {
            if simd::simd_available() {
                assert_ne!(kernel, Kernel::Scalar, "auto on a SIMD host must run a vector kernel");
            }
        }
        other => panic!("FALCON_DEMA_SIMD={other:?} names no kernel policy (off, scalar or auto)"),
    }
}

/// The two-step extend path for one guess over several `(knowns,
/// samples)` columns: each hypothesis column written with
/// `hyp_partial_product`, then folded by `push_column`.
fn two_step(guess: u64, m_bits: u32, full_width: u32, cols: &[(Vec<u32>, Vec<f32>)]) -> [u64; 6] {
    let mut s = PearsonSums::default();
    for (k, t) in cols {
        let h: Vec<f64> =
            k.iter().map(|&kv| hyp_partial_product(guess, m_bits, kv, full_width)).collect();
        s.push_column(&h, t, &SampleSums::new(t));
    }
    s.components().map(f64::to_bits)
}

/// The fused kernel under the given policy, one block of guesses over
/// the same columns.
fn fused(
    choice: KernelChoice,
    guesses: [u64; GUESS_BLOCK],
    m_bits: u32,
    full_width: u32,
    cols: &[(Vec<u32>, Vec<f32>)],
) -> [[u64; 6]; GUESS_BLOCK] {
    simd::set_kernel(Some(choice));
    let mut accs = [PearsonSums::default(); GUESS_BLOCK];
    let mask = product_mask(m_bits, full_width);
    for (k, t) in cols {
        push_product_column(&mut accs, guesses, mask, k, t, &SampleSums::new(t));
    }
    simd::set_kernel(None);
    accs.map(|a| a.components().map(f64::to_bits))
}

/// Samples spread over many binades, so that Σht rounds at nearly
/// every add and any change to its summation order shows in the bits
/// (the fixed-point samples of [`random_columns`] sum exactly).
fn wide_samples(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| {
            let r = rng.next();
            let mag =
                (1.0 + (r >> 40) as f32 / (1u64 << 24) as f32) * 2f32.powi((r % 29) as i32 - 24);
            if r & 1 << 5 == 0 {
                mag
            } else {
                -mag
            }
        })
        .collect()
}

/// Known halves: random below `2^bits`, with the extremes near 2^32
/// scattered in when `bits == 32`.
fn known_column(len: usize, bits: u32, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    let mut k: Vec<u32> = (0..len).map(|_| (rng.next() >> (64 - bits)) as u32).collect();
    if bits == 32 {
        for (i, edge) in [u32::MAX, u32::MAX - 1, 0xFFFF_FFF0, 1 << 31].into_iter().enumerate() {
            if i < len {
                k[len - 1 - i] = edge;
            }
        }
    }
    k
}

#[test]
fn fused_extend_matches_two_step_reference() {
    let _g = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // (m_bits, full_width): beam levels below the full half and at it,
    // for the 25-bit low and 28-bit high halves, and past it.
    let widths = [(8, 25), (17, 25), (25, 25), (24, 28), (28, 28), (30, 28)];
    // Guesses: zero, small, bit 27 set (a whole high half), all 28 and
    // all 32 bits set, and mixed words; two full blocks.
    let guesses = [
        0u64,
        0xA5,
        0x1FF_FFFF,
        1 << 27 | 0x35_C0DE,
        0xFFF_FFFF,
        0xFFFF_FFFF,
        0x9E3_779B,
        1 << 31 | 0x1234,
        0x5A5A_A5A5,
    ];
    // Lengths covering every tail of 0–3 traces, the empty column
    // included, below and above one tile.
    for len in [0usize, 1, 2, 3, 4, 5, 6, 7, 64, 65, 66, 67, 401, 4099] {
        for (c, &bits) in [25u32, 28, 32].iter().enumerate() {
            let seed = 0xF05E ^ (len as u64) << 8 ^ c as u64;
            let cols = vec![(known_column(len, bits, seed), wide_samples(len, seed))];
            for &(m_bits, full_width) in &widths {
                for block in guesses.windows(GUESS_BLOCK) {
                    let g: [u64; GUESS_BLOCK] = block.try_into().unwrap();
                    let scalar = fused(KernelChoice::Scalar, g, m_bits, full_width, &cols);
                    let auto = fused(KernelChoice::Auto, g, m_bits, full_width, &cols);
                    let what = format!("len={len} bits={bits} m={m_bits}/{full_width} g={g:x?}");
                    assert_eq!(scalar, auto, "fused kernels diverge: {what}");
                    for (q, &gq) in g.iter().enumerate() {
                        let reference = two_step(gq, m_bits, full_width, &cols);
                        assert_eq!(scalar[q], reference, "fused != two-step: {what} q={q}");
                    }
                }
            }
        }
    }
}

#[test]
fn fused_extend_accumulates_columns_and_special_samples() {
    let _g = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Several columns of different lengths into the same accumulators
    // (the extend scores four product columns per guess), one of them
    // carrying NaN, infinite and subnormal samples.
    let mut cols: Vec<(Vec<u32>, Vec<f32>)> = [33usize, 4, 7, 256, 1, 0]
        .iter()
        .map(|&n| (known_column(n, 28, 0xC01 + n as u64), wide_samples(n, 0xC02 + n as u64)))
        .collect();
    for (i, v) in [f32::NAN, f32::INFINITY, -0.0, f32::MIN_POSITIVE / 2.0].into_iter().enumerate() {
        cols[3].1[7 * i + 1] = v;
    }
    for (m_bits, full_width) in [(16, 28), (28, 28)] {
        let g =
            [0x9E3_779B, 1 << 27 | 0x1234, 0, 0xFFFF_FFFF, 0x1FF_FFFF, 1 << 27, 0xA5, 0x0ABC_DEF1];
        let scalar = fused(KernelChoice::Scalar, g, m_bits, full_width, &cols);
        assert_eq!(scalar, fused(KernelChoice::Auto, g, m_bits, full_width, &cols));
        for (q, &gq) in g.iter().enumerate() {
            assert_eq!(scalar[q], two_step(gq, m_bits, full_width, &cols), "q={q}");
        }
    }
}

#[test]
#[should_panic(expected = "below 2^32")]
fn fused_extend_rejects_guesses_of_33_bits() {
    let (k, t) = (vec![1u32; 4], vec![0.5f32; 4]);
    let mut accs = [PearsonSums::default(); GUESS_BLOCK];
    let g = [1u64 << 32; GUESS_BLOCK];
    push_product_column(&mut accs, g, u64::MAX, &k, &t, &SampleSums::new(&t));
}
