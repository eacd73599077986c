//! Polynomials over arbitrary-precision integers, and the Babai size
//! reduction used by the NTRU equation solver.
//!
//! Everything here lives in `Z[x]/(x^m + 1)` for power-of-two `m`. The
//! solver's tower descent uses the Galois conjugate `f(−x)` and the field
//! norm `N(f)(x²) = f(x)·f(−x)`; the ascent lifts solutions and reduces
//! their size with approximate Babai nearest-plane steps computed in
//! `f64` FFT precision (key-generation internals only — the signing path
//! never touches host floats).

use crate::zint::Zint;

/// A polynomial with [`Zint`] coefficients (length is the ring degree).
pub type PolyZ = Vec<Zint>;

/// Builds a big-integer polynomial from machine integers.
pub fn poly_from_i64(v: &[i64]) -> PolyZ {
    v.iter().map(|&c| Zint::from_i64(c)).collect()
}

/// Elementwise `a + b`.
pub fn add(a: &[Zint], b: &[Zint]) -> PolyZ {
    a.iter().zip(b).map(|(x, y)| x.add(y)).collect()
}

/// Elementwise `a - b`.
pub fn sub(a: &[Zint], b: &[Zint]) -> PolyZ {
    a.iter().zip(b).map(|(x, y)| x.sub(y)).collect()
}

/// Negacyclic product in `Z[x]/(x^m + 1)`.
///
/// Every coefficient of the product is a sum of `m` terms, each below
/// `2^(max_bits(a) + max_bits(b))` in magnitude, so the sum and all its
/// partial sums stay below `2^127` whenever
/// `max_bits(a) + max_bits(b) + ⌈log2 m⌉ <= 127`. Such operands — the
/// small upper levels of the NTRU solve and every Babai correction —
/// are multiplied exactly in `i128`; larger ones use the [`Zint`]
/// schoolbook product (see DESIGN.md §7). Both are exact, so the result
/// does not depend on the path taken.
pub fn mul(a: &[Zint], b: &[Zint]) -> PolyZ {
    let m = a.len();
    debug_assert_eq!(b.len(), m);
    if max_bits(a) + max_bits(b) + m.next_power_of_two().trailing_zeros() <= 127 {
        return mul_i128(a, b);
    }
    mul_zint(a, b)
}

/// The `i128` product behind [`mul`]; the caller guarantees the bound.
fn mul_i128(a: &[Zint], b: &[Zint]) -> PolyZ {
    let m = a.len();
    let to_i128 = |p: &[Zint]| -> Vec<i128> {
        p.iter().map(|c| c.to_i128().expect("operand within the i128 bound")).collect()
    };
    let (a, b) = (to_i128(a), to_i128(b));
    let mut r = vec![0i128; m];
    for (i, &x) in a.iter().enumerate() {
        // x^(i+j) wraps to −x^(i+j−m) once i + j reaches m.
        let (head, tail) = b.split_at(m - i);
        for (acc, &y) in r[i..].iter_mut().zip(head) {
            *acc += x * y;
        }
        for (acc, &y) in r[..i].iter_mut().zip(tail) {
            *acc -= x * y;
        }
    }
    r.into_iter().map(Zint::from_i128).collect()
}

/// The [`Zint`] schoolbook product behind [`mul`], for any operand size.
fn mul_zint(a: &[Zint], b: &[Zint]) -> PolyZ {
    let m = a.len();
    let mut r = vec![Zint::zero(); m];
    for (i, x) in a.iter().enumerate() {
        if x.is_zero() {
            continue;
        }
        for (j, y) in b.iter().enumerate() {
            if y.is_zero() {
                continue;
            }
            let p = x.mul(y);
            let k = (i + j) % m;
            if i + j >= m {
                r[k] = r[k].sub(&p);
            } else {
                r[k] = r[k].add(&p);
            }
        }
    }
    r
}

/// The Galois conjugate `f(−x)`: negates odd-index coefficients.
pub fn galois_conjugate(f: &[Zint]) -> PolyZ {
    f.iter().enumerate().map(|(i, c)| if i % 2 == 1 { c.negated() } else { c.clone() }).collect()
}

/// The field norm `N(f)` relative to the subring `Z[y]/(y^{m/2}+1)`,
/// `y = x²`: with `f(x) = fe(x²) + x·fo(x²)`,
/// `N(f)(y) = fe(y)² − y·fo(y)²`.
#[allow(clippy::needless_range_loop)] // the negacyclic wrap uses the index
pub fn field_norm(f: &[Zint]) -> PolyZ {
    let m = f.len();
    debug_assert!(m >= 2 && m.is_power_of_two());
    let h = m / 2;
    let fe: PolyZ = f.iter().step_by(2).cloned().collect();
    let fo: PolyZ = f.iter().skip(1).step_by(2).cloned().collect();
    let fe2 = mul(&fe, &fe);
    let fo2 = mul(&fo, &fo);
    // y·fo(y)² in Z[y]/(y^h+1): multiply by y = shift with negacyclic wrap.
    let mut shifted = vec![Zint::zero(); h];
    for i in 0..h {
        let j = (i + 1) % h;
        shifted[j] = if i + 1 >= h { fo2[i].negated() } else { fo2[i].clone() };
    }
    sub(&fe2, &shifted)
}

/// Injects `p(y)` into `Z[x]/(x^{2m}+1)` as `p(x²)` (zero-interleaved).
pub fn lift(p: &[Zint]) -> PolyZ {
    let mut out = vec![Zint::zero(); 2 * p.len()];
    for (i, c) in p.iter().enumerate() {
        out[2 * i] = c.clone();
    }
    out
}

/// Maximum coefficient bit length.
pub fn max_bits(p: &[Zint]) -> u32 {
    p.iter().map(Zint::bits).max().unwrap_or(0)
}

// ---------------------------------------------------------------------
// f64 complex FFT (key-generation internals).
// ---------------------------------------------------------------------

/// Complex number over `f64` for the Babai reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct C64 {
    pub re: f64,
    pub im: f64,
}

impl C64 {
    fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
    fn mul(self, o: C64) -> C64 {
        C64::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
    fn conj(self) -> C64 {
        C64::new(self.re, -self.im)
    }
    fn scale(self, s: f64) -> C64 {
        C64::new(self.re * s, self.im * s)
    }
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

fn root64(m: usize, j: usize) -> C64 {
    let ang = core::f64::consts::PI * (2 * j + 1) as f64 / m as f64;
    C64::new(ang.cos(), ang.sin())
}

/// FFT of a real `f64` polynomial at the `m/2` upper roots of `x^m + 1`
/// (same convention as the `Fpr` FFT in [`crate::fft`]).
pub(crate) fn fft64(coeffs: &[f64]) -> Vec<C64> {
    let m = coeffs.len();
    if m == 1 {
        // Degree-1 ring Z[x]/(x+1): evaluation at -1 is the constant.
        return vec![C64::new(coeffs[0], 0.0)];
    }
    if m == 2 {
        return vec![C64::new(coeffs[0], coeffs[1])];
    }
    let e: Vec<f64> = coeffs.iter().step_by(2).copied().collect();
    let o: Vec<f64> = coeffs.iter().skip(1).step_by(2).copied().collect();
    let ge = fft64(&e);
    let go = fft64(&o);
    let hm = m / 2;
    let mut out = vec![C64::default(); hm];
    for j in 0..m / 4 {
        let z = root64(m, j);
        out[j] = ge[j].add(z.mul(go[j]));
        let k = hm - 1 - j;
        out[k] = ge[j].conj().add(root64(m, k).mul(go[j].conj()));
    }
    out
}

fn ifft64(vals: &[C64]) -> Vec<f64> {
    let hm = vals.len();
    let m = 2 * hm;
    if m == 2 {
        return vec![vals[0].re, vals[0].im];
    }
    let qm = m / 4;
    let mut ge = vec![C64::default(); qm];
    let mut go = vec![C64::default(); qm];
    for j in 0..qm {
        let a = vals[j];
        let b = vals[hm - 1 - j].conj();
        ge[j] = a.add(b).scale(0.5);
        go[j] = a.sub(b).scale(0.5).mul(root64(m, j).conj());
    }
    let e = ifft64(&ge);
    let o = ifft64(&go);
    let mut out = vec![0.0; m];
    for i in 0..hm {
        out[2 * i] = e[i];
        out[2 * i + 1] = o[i];
    }
    out
}

/// Scales every coefficient by `2^-shift` and converts to `f64`.
fn to_f64_scaled(p: &[Zint], shift: u32) -> Vec<f64> {
    p.iter()
        .map(|c| {
            let (m, e) = c.to_f64_exp();
            m * 2f64.powi(e - shift as i32)
        })
        .collect()
}

/// Babai size reduction: repeatedly subtracts `k·(f, g)` from `(capf,
/// capg)` with `k = ⌈(F·f̄ + G·ḡ)/(f·f̄ + g·ḡ)⌋` computed in scaled `f64`
/// FFT precision, until the quotient rounds to zero or the operands are
/// no larger than `(f, g)`.
pub fn babai_reduce(f: &[Zint], g: &[Zint], capf: &mut PolyZ, capg: &mut PolyZ) {
    let m = f.len();
    if m == 1 {
        babai_reduce_scalar(&f[0], &g[0], &mut capf[0], &mut capg[0]);
        return;
    }
    let base = 53u32.max(max_bits(f)).max(max_bits(g));
    let fa = fft64(&to_f64_scaled(f, base - 53));
    let ga = fft64(&to_f64_scaled(g, base - 53));
    let den: Vec<f64> = fa.iter().zip(&ga).map(|(x, y)| x.norm_sq() + y.norm_sq()).collect();
    if den.iter().any(|&d| d <= 0.0 || !d.is_finite()) {
        return; // degenerate basis; caller's verification will reject
    }
    // Iterate until the quotient rounds to zero everywhere or (F, G)
    // drop below the scale of (f, g), with a generous round cap as a
    // termination backstop. Unlike a coarse stop-above-the-base-size
    // rule, the final rounds at `size == base` polish (F, G) all the way
    // down to the true Babai remainder, whose coefficients are on the
    // scale of (f, g) — the key encoding's 8-bit field relies on that.
    for _round in 0..256 {
        let size = 53u32.max(max_bits(capf)).max(max_bits(capg));
        if size < base {
            break;
        }
        let shift = size - 53;
        let fc = fft64(&to_f64_scaled(capf, shift));
        let gc = fft64(&to_f64_scaled(capg, shift));
        // k̂ = (F̂ f̄ + Ĝ ḡ) / (f f̄ + g ḡ)
        let khat: Vec<C64> = (0..fc.len())
            .map(|j| fc[j].mul(fa[j].conj()).add(gc[j].mul(ga[j].conj())).scale(1.0 / den[j]))
            .collect();
        let kf = ifft64(&khat);
        let k: Vec<i64> = kf
            .iter()
            .map(|&v| {
                if v.is_finite() {
                    v.round().clamp(-(2f64.powi(62)), 2f64.powi(62)) as i64
                } else {
                    0
                }
            })
            .collect();
        if k.iter().all(|&v| v == 0) {
            break;
        }
        let kz: PolyZ = k.iter().map(|&v| Zint::from_i64(v)).collect();
        let up = size - base;
        let df = mul(&kz, f);
        let dg = mul(&kz, g);
        let mut progressed = false;
        for i in 0..m {
            let nf = capf[i].sub(&df[i].shl(up));
            let ng = capg[i].sub(&dg[i].shl(up));
            if nf != capf[i] || ng != capg[i] {
                progressed = true;
            }
            capf[i] = nf;
            capg[i] = ng;
        }
        if !progressed {
            break;
        }
    }
}

/// Degree-1 case of the Babai reduction: plain integer nearest rounding
/// of `(F·f + G·g)/(f² + g²)`.
fn babai_reduce_scalar(f: &Zint, g: &Zint, capf: &mut Zint, capg: &mut Zint) {
    let base = 53u32.max(f.bits()).max(g.bits());
    for _round in 0..256 {
        let size = 53u32.max(capf.bits()).max(capg.bits());
        if size < base {
            break;
        }
        let shift = size - 53;
        let scale = |z: &Zint, sh: u32| -> f64 {
            let (mant, e) = z.to_f64_exp();
            mant * 2f64.powi(e - sh as i32)
        };
        let fa = scale(f, base - 53);
        let ga = scale(g, base - 53);
        let den = fa * fa + ga * ga;
        if den <= 0.0 || !den.is_finite() {
            return;
        }
        let num = scale(capf, shift) * fa + scale(capg, shift) * ga;
        let k = (num / den).round();
        if k == 0.0 || !k.is_finite() {
            break;
        }
        let kz = Zint::from_i64(k.clamp(-(2f64.powi(62)), 2f64.powi(62)) as i64);
        let up = size - base;
        let nf = capf.sub(&kz.mul(f).shl(up));
        let ng = capg.sub(&kz.mul(g).shl(up));
        if nf == *capf && ng == *capg {
            break;
        }
        *capf = nf;
        *capg = ng;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[i64]) -> PolyZ {
        poly_from_i64(v)
    }

    fn as_i64(v: &PolyZ) -> Vec<i64> {
        v.iter().map(|c| c.to_i64().expect("fits i64")).collect()
    }

    #[test]
    fn negacyclic_multiplication() {
        // (1 + x)(1 + x) = 1 + 2x + x² in Z[x]/(x²+1) → (1 - 1) + 2x.
        let r = mul(&p(&[1, 1]), &p(&[1, 1]));
        assert_eq!(as_i64(&r), vec![0, 2]);
        // x · x = x² = -1 in Z[x]/(x²+1).
        let r = mul(&p(&[0, 1]), &p(&[0, 1]));
        assert_eq!(as_i64(&r), vec![-1, 0]);
    }

    #[test]
    fn galois_conjugate_negates_odd() {
        assert_eq!(as_i64(&galois_conjugate(&p(&[1, 2, 3, 4]))), vec![1, -2, 3, -4]);
    }

    #[test]
    fn field_norm_is_f_times_conjugate() {
        // N(f)(x²) must equal f(x)·f(−x) for several small polys.
        for f in [[3i64, 1, 4, 1], [-2, 7, 0, 5], [1, 0, 0, 0]] {
            let fp = p(&f);
            let n = field_norm(&fp);
            let direct = mul(&fp, &galois_conjugate(&fp));
            // direct has only even-index coefficients; they must match N(f).
            for i in 0..fp.len() {
                if i % 2 == 0 {
                    assert_eq!(direct[i], n[i / 2], "even coeff {i}");
                } else {
                    assert!(direct[i].is_zero(), "odd coeff {i} nonzero");
                }
            }
        }
    }

    #[test]
    fn lift_interleaves_zeros() {
        assert_eq!(as_i64(&lift(&p(&[5, -7]))), vec![5, 0, -7, 0]);
    }

    #[test]
    fn fft64_roundtrip() {
        let coeffs = vec![1.0, -2.0, 3.5, 0.25, -1.0, 0.0, 2.0, 9.0];
        let back = ifft64(&fft64(&coeffs));
        for (a, b) in coeffs.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn babai_reduces_size() {
        // Construct a deliberately huge (F, G) = (F0 + K·f, G0 + K·g) and
        // check the reduction strips the K·(f,g) component back down.
        let f = p(&[3, 1, -2, 5]);
        let g = p(&[1, -4, 2, 2]);
        // K far beyond the 53-bit float window that the reduction targets.
        let k: PolyZ = p(&[7, -5, 3, 11]).iter().map(|c| c.shl(90)).collect();
        let f0 = p(&[2, 0, 1, -1]);
        let g0 = p(&[0, 1, 1, 3]);
        let mut capf = add(&f0, &mul(&k, &f));
        let mut capg = add(&g0, &mul(&k, &g));
        let before = max_bits(&capf).max(max_bits(&capg));
        babai_reduce(&f, &g, &mut capf, &mut capg);
        let after = max_bits(&capf).max(max_bits(&capg));
        assert!(after < before, "no reduction: {before} -> {after}");
        assert!(after <= 53, "not fully reduced: {after}");
    }

    /// A degree-`m` polynomial whose coefficients have exactly `bits`
    /// bits (`bits <= 64`): all `2^bits − 1` when `seed` is 0, otherwise
    /// random magnitudes with the top bit set and random signs.
    fn operand(m: usize, bits: u32, seed: u64) -> PolyZ {
        let mut st = seed;
        let mut next = || {
            st = st.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = st;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let top = 1i128 << (bits - 1);
        (0..m)
            .map(|_| {
                let c = if seed == 0 {
                    2 * top - 1
                } else {
                    let c = top | (i128::from(next()) & (top - 1));
                    if next() & 1 == 1 {
                        -c
                    } else {
                        c
                    }
                };
                Zint::from_i128(c)
            })
            .collect()
    }

    #[test]
    fn i128_product_matches_zint_schoolbook_around_the_bound() {
        for logm in 0..=10u32 {
            let m = 1usize << logm;
            // Total operand bits (plus log2 m) of 126 and 127 take the
            // i128 path, 128 the Zint one; the all-ones operands put the
            // top product coefficient at its largest possible magnitude.
            for total in [126u32, 127, 128] {
                let ba = (total - logm) / 2;
                let bb = total - logm - ba;
                for seed in [0u64, 1 + u64::from(total) * 1024 + m as u64] {
                    let (a, b) = (operand(m, ba, seed), operand(m, bb, seed.wrapping_mul(3)));
                    assert_eq!((max_bits(&a), max_bits(&b)), (ba, bb));
                    let want = mul_zint(&a, &b);
                    assert_eq!(mul(&a, &b), want, "m={m} bits {ba}+{bb}");
                    if total <= 127 {
                        assert_eq!(mul_i128(&a, &b), want, "m={m} bits {ba}+{bb}");
                    } else if seed == 0 {
                        // One bit past the bound the extreme coefficient
                        // no longer fits in i128.
                        assert_eq!(want[m - 1].to_i128(), None, "m={m} bits {ba}+{bb}");
                    }
                }
            }
        }
    }
}
