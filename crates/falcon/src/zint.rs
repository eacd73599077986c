//! Signed arbitrary-precision integers.
//!
//! The NTRU equation solver works with resultant-sized integers (several
//! thousand bits for FALCON-512). This module provides the minimal exact
//! integer arithmetic it needs — sign-magnitude representation over `u64`
//! limbs with Karatsuba multiplication, shifting, extended GCD and a
//! top-bits extraction used by the Babai reduction — with no external
//! dependency.

use core::cmp::Ordering;
use core::fmt;

/// A signed arbitrary-precision integer (sign-magnitude, little-endian
/// `u64` limbs, no trailing zero limbs; zero is the empty magnitude).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Zint {
    neg: bool,
    mag: Vec<u64>,
}

impl fmt::Debug for Zint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "Zint(0)");
        }
        write!(f, "Zint({}0x", if self.neg { "-" } else { "" })?;
        for limb in self.mag.iter().rev() {
            write!(f, "{limb:016x}")?;
        }
        write!(f, ")")
    }
}

impl Zint {
    /// Zero.
    pub fn zero() -> Zint {
        Zint::default()
    }

    /// One.
    pub fn one() -> Zint {
        Zint::from_i64(1)
    }

    /// Builds from a machine integer.
    pub fn from_i64(v: i64) -> Zint {
        let neg = v < 0;
        let m = v.unsigned_abs();
        let mag = if m == 0 { Vec::new() } else { vec![m] };
        Zint { neg, mag }
    }

    /// True when the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// True when the value is strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.neg && !self.is_zero()
    }

    /// Number of significant bits of the magnitude (0 for zero).
    pub fn bits(&self) -> u32 {
        match self.mag.last() {
            None => 0,
            Some(&top) => 64 * (self.mag.len() as u32 - 1) + (64 - top.leading_zeros()),
        }
    }

    fn trim(&mut self) {
        while self.mag.last() == Some(&0) {
            self.mag.pop();
        }
        if self.mag.is_empty() {
            self.neg = false;
        }
    }

    fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            if x != y {
                return x.cmp(y);
            }
        }
        Ordering::Equal
    }

    #[allow(clippy::needless_range_loop)] // carry chains index both operands
    fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let s = short.get(i).copied().unwrap_or(0);
            let (t, c1) = long[i].overflowing_add(s);
            let (t, c2) = t.overflowing_add(carry);
            out.push(t);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    /// `a - b` for `a >= b` (magnitudes).
    #[allow(clippy::needless_range_loop)] // borrow chains index both operands
    fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for i in 0..a.len() {
            let s = b.get(i).copied().unwrap_or(0);
            let (t, b1) = a[i].overflowing_sub(s);
            let (t, b2) = t.overflowing_sub(borrow);
            out.push(t);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut z = Zint { neg: false, mag: out };
        z.trim();
        z.mag
    }

    /// Signed addition.
    pub fn add(&self, other: &Zint) -> Zint {
        if self.neg == other.neg {
            Zint { neg: self.neg, mag: Self::add_mag(&self.mag, &other.mag) }
        } else {
            match Self::cmp_mag(&self.mag, &other.mag) {
                Ordering::Equal => Zint::zero(),
                Ordering::Greater => {
                    Zint { neg: self.neg, mag: Self::sub_mag(&self.mag, &other.mag) }
                }
                Ordering::Less => {
                    Zint { neg: other.neg, mag: Self::sub_mag(&other.mag, &self.mag) }
                }
            }
        }
    }

    /// Signed subtraction.
    pub fn sub(&self, other: &Zint) -> Zint {
        self.add(&other.negated())
    }

    /// Absolute value.
    pub fn abs(&self) -> Zint {
        Zint { neg: false, mag: self.mag.clone() }
    }

    /// Negated copy.
    pub fn negated(&self) -> Zint {
        if self.is_zero() {
            Zint::zero()
        } else {
            Zint { neg: !self.neg, mag: self.mag.clone() }
        }
    }

    fn mul_mag_school(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let t = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        const KARATSUBA_CUTOFF: usize = 24;
        let shorter = a.len().min(b.len());
        if shorter < KARATSUBA_CUTOFF {
            return Self::mul_mag_school(a, b);
        }
        let half = a.len().max(b.len()) / 2;
        let (a0, a1) = a.split_at(half.min(a.len()));
        let (b0, b1) = b.split_at(half.min(b.len()));
        // a = a0 + a1·2^(64·half), similarly b.
        let z0 = Self::mul_mag(a0, b0);
        let z2 = Self::mul_mag(a1, b1);
        let sa = Self::add_mag(a0, a1);
        let sb = Self::add_mag(b0, b1);
        let z1 = Self::mul_mag(&sa, &sb);
        // z1 -= z0 + z2 (magnitudes; never negative for Karatsuba).
        let z1 = Self::sub_mag(&Self::sub_mag_vec(z1, &z0), &z2);

        let mut out = vec![0u64; a.len() + b.len() + 1];
        Self::acc_at(&mut out, &z0, 0);
        Self::acc_at(&mut out, &z1, half);
        Self::acc_at(&mut out, &z2, 2 * half);
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn sub_mag_vec(a: Vec<u64>, b: &[u64]) -> Vec<u64> {
        Self::sub_mag(&a, b)
    }

    fn acc_at(out: &mut [u64], v: &[u64], at: usize) {
        let mut carry = 0u64;
        let mut i = 0;
        while i < v.len() || carry != 0 {
            let add = v.get(i).copied().unwrap_or(0);
            let (t, c1) = out[at + i].overflowing_add(add);
            let (t, c2) = t.overflowing_add(carry);
            out[at + i] = t;
            carry = u64::from(c1) + u64::from(c2);
            i += 1;
        }
    }

    /// Signed multiplication.
    pub fn mul(&self, other: &Zint) -> Zint {
        let mut z = Zint { neg: self.neg != other.neg, mag: Self::mul_mag(&self.mag, &other.mag) };
        z.trim();
        z
    }

    /// Left shift by `sh` bits.
    pub fn shl(&self, sh: u32) -> Zint {
        if self.is_zero() || sh == 0 {
            return self.clone();
        }
        let limbs = (sh / 64) as usize;
        let bits = sh % 64;
        let mut mag = vec![0u64; limbs];
        if bits == 0 {
            mag.extend_from_slice(&self.mag);
        } else {
            let mut carry = 0u64;
            for &l in &self.mag {
                mag.push((l << bits) | carry);
                carry = l >> (64 - bits);
            }
            if carry != 0 {
                mag.push(carry);
            }
        }
        Zint { neg: self.neg, mag }
    }

    /// Arithmetic right shift by `sh` bits of the magnitude
    /// (rounds toward zero).
    pub fn shr(&self, sh: u32) -> Zint {
        if self.is_zero() {
            return Zint::zero();
        }
        let limbs = (sh / 64) as usize;
        if limbs >= self.mag.len() {
            return Zint::zero();
        }
        let bits = sh % 64;
        let src = &self.mag[limbs..];
        let mut mag = Vec::with_capacity(src.len());
        if bits == 0 {
            mag.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                mag.push((src[i] >> bits) | (hi << (64 - bits)));
            }
        }
        let mut z = Zint { neg: self.neg, mag };
        z.trim();
        z
    }

    /// Exact conversion to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.mag.len() {
            0 => Some(0),
            1 => {
                let m = self.mag[0];
                if self.neg {
                    if m <= 1u64 << 63 {
                        Some((m as i128).wrapping_neg() as i64)
                    } else {
                        None
                    }
                } else if m < 1u64 << 63 {
                    Some(m as i64)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Exact conversion to `i128` when the magnitude fits in 127 bits.
    pub fn to_i128(&self) -> Option<i128> {
        if self.bits() > 127 {
            return None;
        }
        let lo = self.mag.first().copied().unwrap_or(0) as u128;
        let hi = self.mag.get(1).copied().unwrap_or(0) as u128;
        let m = (lo | (hi << 64)) as i128;
        Some(if self.neg { -m } else { m })
    }

    /// Builds from a 128-bit machine integer.
    pub fn from_i128(v: i128) -> Zint {
        let m = v.unsigned_abs();
        let mut z = Zint { neg: v < 0, mag: vec![m as u64, (m >> 64) as u64] };
        z.trim();
        z
    }

    /// Signed comparison.
    pub fn cmp_signed(&self, other: &Zint) -> Ordering {
        match (self.is_negative(), other.is_negative()) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => Self::cmp_mag(&self.mag, &other.mag),
            (true, true) => Self::cmp_mag(&other.mag, &self.mag),
        }
    }

    /// Returns `(mantissa, exponent)` such that the value is
    /// approximately `mantissa · 2^exponent`, with `mantissa` an `f64`
    /// built from the top 53 bits. Used by the Babai reduction to project
    /// huge integers onto floats.
    pub fn to_f64_exp(&self) -> (f64, i32) {
        let bits = self.bits();
        if bits == 0 {
            return (0.0, 0);
        }
        // Take the top (up to) 63 bits exactly.
        let sh = bits.saturating_sub(63);
        let top = self.shr(sh);
        let mut v = top.mag.first().copied().unwrap_or(0) as f64;
        if self.neg {
            v = -v;
        }
        (v, sh as i32)
    }

    /// Approximate `f64` value `mantissa · 2^exponent` (may overflow to
    /// infinity for huge values; callers use [`Zint::to_f64_exp`] when the
    /// scale matters).
    pub fn to_f64(&self) -> f64 {
        let (m, e) = self.to_f64_exp();
        m * 2f64.powi(e)
    }

    /// Extended binary GCD: returns `(g, u, v)` with `u·a + v·b = g`,
    /// `g = gcd(|a|, |b|) >= 0`.
    ///
    /// Both inputs must be non-negative (the NTRU solver's base case only
    /// needs that case; it fails key generation on negative resultants
    /// upstream).
    pub fn xgcd(a: &Zint, b: &Zint) -> (Zint, Zint, Zint) {
        assert!(!a.is_negative() && !b.is_negative(), "xgcd needs non-negative inputs");
        // Classical Euclidean algorithm built on divmod.
        let mut r0 = a.clone();
        let mut r1 = b.clone();
        let (mut s0, mut s1) = (Zint::one(), Zint::zero());
        let (mut t0, mut t1) = (Zint::zero(), Zint::one());
        while !r1.is_zero() {
            let (q, r) = r0.divmod(&r1);
            let ns = s0.sub(&q.mul(&s1));
            let nt = t0.sub(&q.mul(&t1));
            r0 = r1;
            r1 = r;
            s0 = s1;
            s1 = ns;
            t0 = t1;
            t1 = nt;
        }
        (r0, s0, t0)
    }

    /// Euclidean division of non-negative values: `(quotient, remainder)`
    /// with `0 <= remainder < divisor`.
    ///
    /// # Panics
    ///
    /// Panics if the divisor is zero or either operand is negative.
    pub fn divmod(&self, div: &Zint) -> (Zint, Zint) {
        assert!(!div.is_zero(), "division by zero");
        assert!(!self.is_negative() && !div.is_negative());
        if Self::cmp_mag(&self.mag, &div.mag) == Ordering::Less {
            return (Zint::zero(), self.clone());
        }
        // Binary long division: shift-subtract from the top bit down.
        let shift = self.bits() - div.bits();
        let mut rem = self.clone();
        let mut quo = Zint::zero();
        for sh in (0..=shift).rev() {
            let d = div.shl(sh);
            if Self::cmp_mag(&rem.mag, &d.mag) != Ordering::Less {
                rem = Zint { neg: false, mag: Self::sub_mag(&rem.mag, &d.mag) };
                quo = quo.add(&Zint::one().shl(sh));
            }
        }
        (quo, rem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z(v: i64) -> Zint {
        Zint::from_i64(v)
    }

    #[test]
    fn small_arithmetic_matches_i128() {
        let vals = [-9i64, -3, -1, 0, 1, 2, 7, 100, -12289, 1 << 40];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(z(a).add(&z(b)).to_i64(), Some(a + b), "{a}+{b}");
                assert_eq!(z(a).sub(&z(b)).to_i64(), Some(a - b), "{a}-{b}");
                let p = (a as i128) * (b as i128);
                if let Ok(p64) = i64::try_from(p) {
                    assert_eq!(z(a).mul(&z(b)).to_i64(), Some(p64), "{a}*{b}");
                }
            }
        }
    }

    #[test]
    fn shifts() {
        let v = z(0x1234_5678).shl(100);
        assert_eq!(v.shr(100).to_i64(), Some(0x1234_5678));
        assert_eq!(v.bits(), 29 + 100);
        assert_eq!(z(-8).shr(2).to_i64(), Some(-2));
        assert_eq!(z(0).shl(64).to_i64(), Some(0));
    }

    #[test]
    fn big_multiplication_is_consistent() {
        // (2^200 + 1)(2^200 - 1) = 2^400 - 1
        let a = Zint::one().shl(200).add(&Zint::one());
        let b = Zint::one().shl(200).sub(&Zint::one());
        let p = a.mul(&b);
        let want = Zint::one().shl(400).sub(&Zint::one());
        assert_eq!(p, want);
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Build operands large enough to trigger the Karatsuba path.
        let mut a = Zint::zero();
        let mut b = Zint::zero();
        for i in 0..80u32 {
            a = a.add(&z((i as i64 + 1) * 0x9E37_79B9).shl(64 * i));
            b = b.add(&z((i as i64 * 7 + 3) * 0x85EB_CA6B).shl(64 * i));
        }
        let fast = Zint::mul_mag(&a.mag, &b.mag);
        let slow = Zint::mul_mag_school(&a.mag, &b.mag);
        assert_eq!(fast, slow);
    }

    #[test]
    fn divmod_random() {
        let a = Zint::one().shl(300).add(&z(123_456_789));
        let b = z(987_654_321);
        let (q, r) = a.divmod(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp_signed(&b) == Ordering::Less);
    }

    #[test]
    fn xgcd_bezout() {
        let cases = [(240i64, 46), (12289, 512), (1, 1), (17, 0), (0, 5), (7919, 7907)];
        for (a, b) in cases {
            let (g, u, v) = Zint::xgcd(&z(a), &z(b));
            let lhs = z(a).mul(&u).add(&z(b).mul(&v));
            assert_eq!(lhs, g, "bezout {a} {b}");
            // gcd check against the Euclid oracle.
            let (mut x, mut y) = (a.unsigned_abs(), b.unsigned_abs());
            while y != 0 {
                let t = x % y;
                x = y;
                y = t;
            }
            assert_eq!(g.to_i64(), Some(x as i64), "gcd {a} {b}");
        }
    }

    #[test]
    fn to_f64_exp_scale() {
        let v = z(3).shl(500);
        let (m, e) = v.to_f64_exp();
        let approx = m * 2f64.powi(e - 500);
        assert!((approx - 3.0).abs() < 1e-9);
        let neg = z(-3).shl(500);
        assert!(neg.to_f64_exp().0 < 0.0);
    }

    #[test]
    fn i128_conversions_roundtrip_up_to_127_bits() {
        let max = i128::MAX;
        for v in [0, 1, -1, 12289, -(1 << 64), (1 << 64) - 1, max, -max, max >> 1, -(max >> 1)] {
            let z = Zint::from_i128(v);
            assert_eq!(z.to_i128(), Some(v), "{v}");
            assert_eq!(z.to_i64(), i64::try_from(v).ok(), "{v}");
        }
        // 2^127 needs 128 bits: representable as a Zint, not as an i128.
        assert_eq!(Zint::from_i128(i128::MIN).to_i128(), None);
        assert_eq!(Zint::one().shl(127).to_i128(), None);
    }

    #[test]
    fn comparisons() {
        assert_eq!(z(-5).cmp_signed(&z(3)), Ordering::Less);
        assert_eq!(z(5).cmp_signed(&z(-3)), Ordering::Greater);
        assert_eq!(z(-5).cmp_signed(&z(-3)), Ordering::Less);
        assert_eq!(z(5).cmp_signed(&z(5)), Ordering::Equal);
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", z(0)), "Zint(0)");
        assert!(format!("{:?}", z(-255)).starts_with("Zint(-0x"));
    }
}
