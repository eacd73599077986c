//! Fixed-point exponential for the discrete Gaussian sampler.

use crate::repr::Fpr;

/// Number of Taylor terms used by [`Fpr::expm_p63`]. With `x <= ln 2` the
/// truncation error is below 2^-63.
const TERMS: u32 = 21;

/// `(a * b) >> 63` for 63-bit fixed-point operands.
#[inline]
fn mul63(a: u64, b: u64) -> u64 {
    (((a as u128) * (b as u128)) >> 63) as u64
}

impl Fpr {
    /// Computes `⌊2^63 · ccs · exp(-x)⌋` (up to a few ulps) for
    /// `0 <= x <= ln 2` and `0 < ccs <= 1`.
    ///
    /// This is the reference implementation's `fpr_expm_p63`, realised
    /// with a truncated Taylor series in 63-bit fixed point instead of the
    /// reference's minimax constants; the relative error stays below
    /// 2^-57, which is far inside the sampler's statistical tolerance
    /// (documented substitution, see DESIGN.md §7).
    pub fn expm_p63(self, ccs: Fpr) -> u64 {
        crate::ctcheck::site(crate::ctcheck::sites::EXPM);
        // ct: secret(self, ccs)
        let x = self.to_fixed63();
        // Horner evaluation of sum_k (-x)^k / k! using unsigned fixed
        // point: y_k = 1/k-ish coefficients precomputed as 2^63 / k!.
        let mut y: u64 = coeff(TERMS - 1);
        for k in (0..TERMS - 1).rev() {
            crate::ctcheck::site(crate::ctcheck::sites::EXPM_LOOP);
            y = coeff(k).wrapping_sub(mul63(x, y));
        }
        // ccs ≤ 1 converts to a fixed-point scale in [0, 2^63]; the
        // endpoint ccs = 1 maps to exactly 2^63, for which mul63 is the
        // identity, so no special case (and no secret-dependent branch)
        // is needed.
        mul63(y, ccs.to_fixed63())
        // ct: end
    }
}

/// `round(2^63 / k!)` for `k < TERMS`, computed exactly in 128-bit
/// arithmetic at compile time.
const COEFFS: [u64; TERMS as usize] = {
    let mut c = [0u64; TERMS as usize];
    let mut fact: u128 = 1;
    let mut k = 0;
    while k < TERMS as usize {
        c[k] = (((1u128 << 63) + fact / 2) / fact) as u64;
        k += 1;
        fact *= k as u128;
    }
    c
};

/// The Horner coefficient `round(2^63 / k!)`.
#[inline]
fn coeff(k: u32) -> u64 {
    COEFFS[k as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `round(2^63 / k!)` by the direct factorial and u128 division the
    /// table replaced: the oracle for [`COEFFS`].
    fn coeff_by_factorial(k: u32) -> u64 {
        let mut fact: u128 = 1;
        for i in 2..=k as u128 {
            fact *= i;
        }
        (((1u128 << 63) + fact / 2) / fact) as u64
    }

    #[test]
    fn coeff_values() {
        assert_eq!(coeff(0), 1u64 << 63);
        assert_eq!(coeff(1), 1u64 << 63);
        assert_eq!(coeff(2), 1u64 << 62);
        for k in 0..TERMS {
            assert_eq!(coeff(k), coeff_by_factorial(k), "k = {k}");
        }
    }

    #[test]
    fn tabled_horner_matches_factorial_horner() {
        // The pre-table evaluation over a sweep of x in [0, ln 2] and a
        // spread of ccs in (0, 1].
        for i in 0..=4096u32 {
            let x = Fpr::from(std::f64::consts::LN_2 * f64::from(i) / 4096.0);
            let ccs = Fpr::from(f64::from(i % 97 + 1) / 97.0);
            let xf = x.to_fixed63();
            let mut y = coeff_by_factorial(TERMS - 1);
            for k in (0..TERMS - 1).rev() {
                y = coeff_by_factorial(k).wrapping_sub(mul63(xf, y));
            }
            assert_eq!(x.expm_p63(ccs), mul63(y, ccs.to_fixed63()), "x = {x:?}, ccs = {ccs:?}");
        }
    }

    #[test]
    fn matches_host_exp() {
        for i in 0..=100 {
            let x = std::f64::consts::LN_2 * (i as f64) / 100.0;
            let got = Fpr::from(x).expm_p63(Fpr::ONE) as f64;
            let want = (2.0f64.powi(63)) * (-x).exp();
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-14, "x={x} got={got} want={want} rel={rel}");
        }
    }
}
