//! Fast Fourier transform over FALCON's emulated floating point.
//!
//! FALCON represents a real polynomial `f ∈ R[x]/(x^n + 1)` in the FFT
//! domain by its values at the `n/2` complex roots of `x^n + 1` with
//! positive imaginary part, `ζ_j = exp(iπ(2j+1)/n)`; the other roots are
//! conjugates and carry no extra information for real `f`. The storage
//! layout is FALCON's: a slice of `n` [`Fpr`] values, the first half real
//! parts, the second half imaginary parts.
//!
//! Pointwise multiplication in this domain is the negacyclic product of
//! the polynomials — and the `FFT(c) ⊙ FFT(f)` instance of it during
//! signing is the computation attacked by *Falcon Down*:
//! [`poly_mul_fft_observed`] reports every floating-point multiplication
//! micro-op to a [`MulObserver`].

use falcon_fpr::{Fpr, MulObserver};
use std::sync::OnceLock;

/// A complex number over emulated floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cplx {
    /// Real part.
    pub re: Fpr,
    /// Imaginary part.
    pub im: Fpr,
}

// `add`/`sub`/`mul` follow the reference FPC_* macro names; Cplx is a
// plain value type and deliberately does not overload operators.
#[allow(clippy::should_implement_trait)]
impl Cplx {
    /// Zero.
    pub const ZERO: Cplx = Cplx { re: Fpr::ZERO, im: Fpr::ZERO };

    /// Builds a complex number from parts.
    #[inline]
    pub fn new(re: Fpr, im: Fpr) -> Cplx {
        Cplx { re, im }
    }

    /// Complex addition.
    #[inline]
    pub fn add(self, o: Cplx) -> Cplx {
        Cplx::new(self.re + o.re, self.im + o.im)
    }

    /// Complex subtraction.
    #[inline]
    pub fn sub(self, o: Cplx) -> Cplx {
        Cplx::new(self.re - o.re, self.im - o.im)
    }

    /// Complex multiplication (four real products, as in the reference
    /// `FPC_MUL` macro).
    #[inline]
    pub fn mul(self, o: Cplx) -> Cplx {
        // ct: secret(self, o)
        let m0 = self.re * o.re;
        let m1 = self.im * o.im;
        let m2 = self.re * o.im;
        let m3 = self.im * o.re;
        Cplx::new(m0 - m1, m2 + m3)
        // ct: end
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Cplx {
        Cplx::new(self.re, self.im.neg())
    }

    /// Multiplication by a real scalar.
    #[inline]
    pub fn scale(self, s: Fpr) -> Cplx {
        Cplx::new(self.re * s, self.im * s)
    }

    /// Squared modulus `re² + im²`.
    #[inline]
    pub fn norm_sq(self) -> Fpr {
        self.re.sqr() + self.im.sqr()
    }

    /// Complex division.
    #[inline]
    pub fn div(self, o: Cplx) -> Cplx {
        let inv = o.norm_sq().inv();
        self.mul(o.conj()).scale(inv)
    }
}

/// Returns the root table for size `n = 2^logn`: `ζ_j = exp(iπ(2j+1)/n)`
/// for `j < n/2`.
fn roots(logn: u32) -> &'static [Cplx] {
    static TABLES: OnceLock<Vec<Vec<Cplx>>> = OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        let mut all = Vec::with_capacity(12);
        for l in 0..=11u32 {
            let n = 1usize << l;
            let hn = n / 2;
            let mut t = Vec::with_capacity(hn);
            for j in 0..hn {
                let ang = core::f64::consts::PI * (2 * j + 1) as f64 / n as f64;
                t.push(Cplx::new(Fpr::from(ang.cos()), Fpr::from(ang.sin())));
            }
            all.push(t);
        }
        all
    });
    &tables[logn as usize]
}

fn fft_complex(coeffs: &[Fpr]) -> Vec<Cplx> {
    let n = coeffs.len();
    debug_assert!(n.is_power_of_two() && n >= 2);
    if n == 2 {
        return vec![Cplx::new(coeffs[0], coeffs[1])];
    }
    let logn = n.trailing_zeros();
    let f0: Vec<Fpr> = coeffs.iter().step_by(2).copied().collect();
    let f1: Vec<Fpr> = coeffs.iter().skip(1).step_by(2).copied().collect();
    let g0 = fft_complex(&f0);
    let g1 = fft_complex(&f1);
    let z = roots(logn);
    let hn = n / 2;
    let mut out = vec![Cplx::ZERO; hn];
    for j in 0..n / 4 {
        out[j] = g0[j].add(z[j].mul(g1[j]));
        let k = hn - 1 - j;
        out[k] = g0[j].conj().add(z[k].mul(g1[j].conj()));
    }
    out
}

fn ifft_complex(vals: &[Cplx]) -> Vec<Fpr> {
    let hn = vals.len();
    let n = 2 * hn;
    if n == 2 {
        return vec![vals[0].re, vals[0].im];
    }
    let logn = n.trailing_zeros();
    let z = roots(logn);
    let qn = n / 4;
    let mut g0 = vec![Cplx::ZERO; qn];
    let mut g1 = vec![Cplx::ZERO; qn];
    for j in 0..qn {
        let a = vals[j];
        let b = vals[hn - 1 - j].conj();
        g0[j] = a.add(b).scale(Fpr::ONEHALF);
        g1[j] = a.sub(b).scale(Fpr::ONEHALF).mul(z[j].conj());
    }
    let f0 = ifft_complex(&g0);
    let f1 = ifft_complex(&g1);
    let mut out = vec![Fpr::ZERO; n];
    for i in 0..hn {
        out[2 * i] = f0[i];
        out[2 * i + 1] = f1[i];
    }
    out
}

/// In-place forward FFT on a polynomial in FALCON layout (`n` values:
/// coefficients in, `[re | im]` halves out).
///
/// # Panics
///
/// Panics if the length is not a power of two at least 2.
pub fn fft(f: &mut [Fpr]) {
    let n = f.len();
    assert!(n.is_power_of_two() && n >= 2, "invalid FFT size {n}");
    let vals = fft_complex(f);
    let hn = n / 2;
    for (j, v) in vals.into_iter().enumerate() {
        f[j] = v.re;
        f[j + hn] = v.im;
    }
}

/// In-place inverse FFT (FALCON layout in, coefficients out).
pub fn ifft(f: &mut [Fpr]) {
    let n = f.len();
    assert!(n.is_power_of_two() && n >= 2, "invalid FFT size {n}");
    let hn = n / 2;
    let vals: Vec<Cplx> = (0..hn).map(|j| Cplx::new(f[j], f[j + hn])).collect();
    f.copy_from_slice(&ifft_complex(&vals));
}

/// Reads the `j`-th complex value of an FFT-layout slice.
#[inline]
pub fn at(f: &[Fpr], j: usize) -> Cplx {
    Cplx::new(f[j], f[j + f.len() / 2])
}

/// Writes the `j`-th complex value of an FFT-layout slice.
#[inline]
pub fn set(f: &mut [Fpr], j: usize, v: Cplx) {
    let hn = f.len() / 2;
    f[j] = v.re;
    f[j + hn] = v.im;
}

/// Elementwise addition (either domain).
pub fn poly_add(a: &mut [Fpr], b: &[Fpr]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += *y;
    }
}

/// Elementwise subtraction (either domain).
pub fn poly_sub(a: &mut [Fpr], b: &[Fpr]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x -= *y;
    }
}

/// Elementwise negation (either domain).
pub fn poly_neg(a: &mut [Fpr]) {
    for x in a.iter_mut() {
        *x = x.neg();
    }
}

/// FFT-domain adjoint: `a ← adj(a)` (complex conjugation pointwise).
pub fn poly_adj_fft(a: &mut [Fpr]) {
    let hn = a.len() / 2;
    for x in a[hn..].iter_mut() {
        *x = x.neg();
    }
}

/// FFT-domain pointwise multiplication `a ← a ⊙ b`.
pub fn poly_mul_fft(a: &mut [Fpr], b: &[Fpr]) {
    let hn = a.len() / 2;
    // ct: secret(a, b)
    for j in 0..hn {
        set(a, j, at(a, j).mul(at(b, j)));
    }
    // ct: end
}

/// FFT-domain pointwise multiplication `a ← a ⊙ b` where `a` holds the
/// secret values, reporting every floating-point multiplication to `obs`.
///
/// Each of the four real multiplications of a complex product is preceded
/// by a `begin_coefficient` notification carrying the flat index of the
/// **secret** `Fpr` operand involved (`j` for real parts, `j + n/2` for
/// imaginary parts), exactly the granularity at which the *Falcon Down*
/// attack recovers `FFT(f)`.
pub fn poly_mul_fft_observed<O: MulObserver>(a: &mut [Fpr], b: &[Fpr], obs: &mut O) {
    let n = a.len();
    let hn = n / 2;
    // ct: secret(a, b)
    for j in 0..hn {
        let x = at(a, j);
        let y = at(b, j);
        obs.begin_coefficient(j);
        let m0 = x.re.mul_observed(y.re, obs);
        obs.begin_coefficient(j + hn);
        let m1 = x.im.mul_observed(y.im, obs);
        obs.begin_coefficient(j);
        let m2 = x.re.mul_observed(y.im, obs);
        obs.begin_coefficient(j + hn);
        let m3 = x.im.mul_observed(y.re, obs);
        set(a, j, Cplx::new(m0 - m1, m2 + m3));
    }
    // ct: end
}

/// FFT-domain multiplication by the adjoint: `a ← a ⊙ adj(b)`.
pub fn poly_muladj_fft(a: &mut [Fpr], b: &[Fpr]) {
    let hn = a.len() / 2;
    for j in 0..hn {
        set(a, j, at(a, j).mul(at(b, j).conj()));
    }
}

/// FFT-domain self-adjoint product `a ← a ⊙ adj(a) = |a|²` (result has
/// zero imaginary parts).
pub fn poly_mulselfadj_fft(a: &mut [Fpr]) {
    let hn = a.len() / 2;
    for j in 0..hn {
        set(a, j, Cplx::new(at(a, j).norm_sq(), Fpr::ZERO));
    }
}

/// Multiplication by a real constant (either domain).
pub fn poly_mulconst(a: &mut [Fpr], c: Fpr) {
    for x in a.iter_mut() {
        *x *= c;
    }
}

/// FFT-domain pointwise division `a ← a / b`.
pub fn poly_div_fft(a: &mut [Fpr], b: &[Fpr]) {
    let hn = a.len() / 2;
    for j in 0..hn {
        set(a, j, at(a, j).div(at(b, j)));
    }
}

/// Splits `f` (FFT layout, size `n`) into the transforms of its even and
/// odd coefficient halves, written to `f0` and `f1` (each FFT layout,
/// size `n/2`); at `n = 2` the halves are the two single real values.
///
/// This is the `split` operation of fast Fourier sampling.
#[allow(clippy::needless_range_loop)] // j indexes paired butterfly roots
pub fn poly_split_fft(f: &[Fpr], f0: &mut [Fpr], f1: &mut [Fpr]) {
    let n = f.len();
    let hn = n / 2;
    if n == 2 {
        f0[0] = f[0];
        f1[0] = f[1];
        return;
    }
    let logn = n.trailing_zeros();
    let z = roots(logn);
    let qn = n / 4;
    for j in 0..qn {
        let a = at(f, j);
        let b = at(f, hn - 1 - j).conj();
        set(f0, j, a.add(b).scale(Fpr::ONEHALF));
        set(f1, j, a.sub(b).scale(Fpr::ONEHALF).mul(z[j].conj()));
    }
}

/// Inverse of [`poly_split_fft`]: merges the halves `f0` and `f1` into
/// `f` (size `2·f0.len()`).
pub fn poly_merge_fft(f0: &[Fpr], f1: &[Fpr], f: &mut [Fpr]) {
    let hn = f0.len();
    let n = 2 * hn;
    if n == 2 {
        f[0] = f0[0];
        f[1] = f1[0];
        return;
    }
    let logn = n.trailing_zeros();
    let z = roots(logn);
    let qn = n / 4;
    for j in 0..qn {
        let a = at(f0, j);
        let b = at(f1, j);
        set(f, j, a.add(z[j].mul(b)));
        set(f, hn - 1 - j, a.conj().add(z[hn - 1 - j].mul(b.conj())));
    }
}

/// Converts signed integer coefficients to an `Fpr` polynomial.
pub fn poly_from_ints(v: &[i16]) -> Vec<Fpr> {
    v.iter().map(|&c| Fpr::from_i64(c as i64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    fn to_f64s(v: &[Fpr]) -> Vec<f64> {
        v.iter().map(|x| x.to_f64()).collect()
    }

    #[test]
    fn fft_ifft_roundtrip() {
        for logn in 1..=9u32 {
            let n = 1usize << logn;
            let orig: Vec<Fpr> =
                (0..n).map(|i| Fpr::from_i64((i as i64 * 37 % 257) - 128)).collect();
            let mut f = orig.clone();
            fft(&mut f);
            ifft(&mut f);
            for (a, b) in f.iter().zip(orig.iter()) {
                assert!(
                    close(a.to_f64(), b.to_f64(), 1e-12),
                    "logn={logn}: {} vs {}",
                    a.to_f64(),
                    b.to_f64()
                );
            }
        }
    }

    #[allow(clippy::needless_range_loop)] // (i, j) are polynomial exponents
    fn schoolbook_negacyclic(a: &[f64], b: &[f64]) -> Vec<f64> {
        let n = a.len();
        let mut r = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                let k = (i + j) % n;
                let s = if i + j >= n { -1.0 } else { 1.0 };
                r[k] += s * a[i] * b[j];
            }
        }
        r
    }

    #[test]
    fn pointwise_product_is_negacyclic_convolution() {
        for logn in [1u32, 2, 4, 6] {
            let n = 1usize << logn;
            let a: Vec<Fpr> = (0..n).map(|i| Fpr::from_i64((i as i64 * 7 % 23) - 11)).collect();
            let b: Vec<Fpr> = (0..n).map(|i| Fpr::from_i64((i as i64 * 5 % 17) - 8)).collect();
            let want = schoolbook_negacyclic(&to_f64s(&a), &to_f64s(&b));
            let mut fa = a.clone();
            let mut fb = b.clone();
            fft(&mut fa);
            fft(&mut fb);
            poly_mul_fft(&mut fa, &fb);
            ifft(&mut fa);
            for (got, want) in fa.iter().zip(want.iter()) {
                assert!(close(got.to_f64(), *want, 1e-9), "logn={logn}");
            }
        }
    }

    #[test]
    fn split_merge_roundtrip() {
        for logn in 1..=7u32 {
            let n = 1usize << logn;
            let mut f: Vec<Fpr> = (0..n).map(|i| Fpr::from_i64(i as i64 - 3)).collect();
            fft(&mut f);
            let (mut f0, mut f1) = (vec![Fpr::ZERO; n / 2], vec![Fpr::ZERO; n / 2]);
            poly_split_fft(&f, &mut f0, &mut f1);
            let mut g = vec![Fpr::ZERO; n];
            poly_merge_fft(&f0, &f1, &mut g);
            for (a, b) in f.iter().zip(g.iter()) {
                assert!(close(a.to_f64(), b.to_f64(), 1e-12), "logn={logn}");
            }
        }
    }

    #[test]
    fn split_matches_coefficient_parity() {
        // split(FFT(f)) must equal (FFT(f_even), FFT(f_odd)).
        let n = 16usize;
        let coeffs: Vec<Fpr> = (0..n).map(|i| Fpr::from_i64((i * i) as i64 % 13 - 6)).collect();
        let mut f = coeffs.clone();
        fft(&mut f);
        let (mut s0, mut s1) = (vec![Fpr::ZERO; n / 2], vec![Fpr::ZERO; n / 2]);
        poly_split_fft(&f, &mut s0, &mut s1);

        let mut e: Vec<Fpr> = coeffs.iter().step_by(2).copied().collect();
        let mut o: Vec<Fpr> = coeffs.iter().skip(1).step_by(2).copied().collect();
        fft(&mut e);
        fft(&mut o);
        for (a, b) in s0.iter().zip(e.iter()).chain(s1.iter().zip(o.iter())) {
            assert!(close(a.to_f64(), b.to_f64(), 1e-12));
        }
    }

    #[test]
    fn adjoint_is_reversal_with_negation() {
        // adj(f)(x) = f(1/x): coefficients (f0, -f_{n-1}, ..., -f_1).
        let n = 8usize;
        let coeffs: Vec<Fpr> = (0..n).map(|i| Fpr::from_i64(i as i64 + 1)).collect();
        let mut f = coeffs.clone();
        fft(&mut f);
        poly_adj_fft(&mut f);
        ifft(&mut f);
        assert!(close(f[0].to_f64(), coeffs[0].to_f64(), 1e-12));
        for i in 1..n {
            assert!(close(f[i].to_f64(), -coeffs[n - i].to_f64(), 1e-12), "i={i}");
        }
    }

    #[test]
    fn observed_mul_matches_plain() {
        use falcon_fpr::RecordingObserver;
        let n = 8usize;
        let mut a: Vec<Fpr> = (0..n).map(|i| Fpr::from_i64(i as i64 - 4)).collect();
        let b: Vec<Fpr> = (0..n).map(|i| Fpr::from_i64(2 * i as i64 + 1)).collect();
        fft(&mut a);
        let mut bf = b.clone();
        fft(&mut bf);
        let mut plain = a.clone();
        poly_mul_fft(&mut plain, &bf);
        let mut obs = RecordingObserver::new();
        let mut traced = a.clone();
        poly_mul_fft_observed(&mut traced, &bf, &mut obs);
        assert_eq!(plain, traced);
        // 4 real multiplications per complex coefficient, 14 steps each.
        assert_eq!(obs.steps.len(), (n / 2) * 4 * 14);
        assert_eq!(obs.boundaries.len(), (n / 2) * 4);
    }

    #[test]
    fn div_and_selfadj() {
        let n = 8usize;
        let mut a: Vec<Fpr> = (0..n).map(|i| Fpr::from_i64(i as i64 + 2)).collect();
        fft(&mut a);
        let b = a.clone();
        let mut c = a.clone();
        poly_div_fft(&mut c, &b);
        let hn = n / 2;
        for j in 0..hn {
            assert!(close(at(&c, j).re.to_f64(), 1.0, 1e-12));
            assert!(close(at(&c, j).im.to_f64(), 0.0, 1e-12));
        }
        let mut d = a.clone();
        poly_mulselfadj_fft(&mut d);
        for j in 0..hn {
            assert!(at(&d, j).re.to_f64() >= 0.0);
            assert_eq!(at(&d, j).im, Fpr::ZERO);
        }
    }
}
