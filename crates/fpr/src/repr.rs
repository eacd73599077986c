//! The `Fpr` value type: bit layout, packing and elementary predicates.

use core::fmt;

/// Mask of the 52 stored mantissa bits.
pub(crate) const MANT_MASK: u64 = (1u64 << 52) - 1;
/// Mask of the 11 exponent bits (after shifting right by 52).
pub(crate) const EXP_MASK: u64 = 0x7FF;

/// A FALCON emulated floating-point number.
///
/// The wrapped `u64` uses the IEEE-754 double-precision bit layout
/// (sign ∙ 11-bit biased exponent ∙ 52-bit mantissa). Arithmetic is pure
/// integer emulation with round-to-nearest-even and flush-to-zero for
/// subnormals, exactly like FALCON's reference `fpr` type.
///
/// `PartialEq`/`Eq`/`Hash` compare the raw bits, so `+0.0 != -0.0`; use
/// [`Fpr::is_zero`] for a sign-insensitive zero test. Ordering helpers are
/// provided as [`Fpr::lt`] and friends rather than `PartialOrd`, mirroring
/// the reference API and avoiding surprises around signed zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fpr(pub(crate) u64);

impl Fpr {
    /// Positive zero.
    pub const ZERO: Fpr = Fpr(0);
    /// One.
    pub const ONE: Fpr = Fpr(0x3FF0_0000_0000_0000);
    /// Two.
    pub const TWO: Fpr = Fpr(0x4000_0000_0000_0000);
    /// One half.
    pub const ONEHALF: Fpr = Fpr(0x3FE0_0000_0000_0000);

    /// Builds an `Fpr` from its raw IEEE-754 bit pattern.
    ///
    /// ```
    /// use falcon_fpr::Fpr;
    /// assert_eq!(Fpr::from_bits(0x3FF0_0000_0000_0000), Fpr::ONE);
    /// ```
    #[inline]
    pub const fn from_bits(bits: u64) -> Fpr {
        Fpr(bits)
    }

    /// Returns the raw IEEE-754 bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u64 {
        self.0
    }

    /// Sign bit (0 for positive, 1 for negative).
    #[inline]
    pub const fn sign_bit(self) -> u32 {
        (self.0 >> 63) as u32
    }

    /// Biased 11-bit exponent field.
    #[inline]
    pub const fn exponent_bits(self) -> u32 {
        ((self.0 >> 52) & EXP_MASK) as u32
    }

    /// The 52 stored mantissa bits (without the implicit leading one).
    #[inline]
    pub const fn mantissa_bits(self) -> u64 {
        self.0 & MANT_MASK
    }

    /// True if the value is (plus or minus) zero.
    ///
    /// FALCON's emulation flushes subnormals to zero, so a zero exponent
    /// field always denotes zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 & !(1u64 << 63) == 0
    }

    /// Negation (sign-bit flip; `-0.0` is produced from `0.0`).
    #[inline]
    pub const fn neg(self) -> Fpr {
        Fpr(self.0 ^ (1u64 << 63))
    }

    /// Absolute value.
    #[inline]
    pub const fn abs(self) -> Fpr {
        Fpr(self.0 & !(1u64 << 63))
    }

    /// Doubles the value (exponent increment; zero stays zero).
    #[inline]
    pub fn double(self) -> Fpr {
        crate::ctcheck::site(crate::ctcheck::sites::DOUBLE);
        // ct: secret(self)
        // Exponent increment, masked to a no-op for (signed) zero so the
        // special case costs no branch.
        let nz = (!self.is_zero() as u64).wrapping_neg();
        Fpr(self.0.wrapping_add((1u64 << 52) & nz))
        // ct: end
    }

    /// Halves the value (exponent decrement, flushing to zero on underflow).
    #[inline]
    pub fn half(self) -> Fpr {
        crate::ctcheck::site(crate::ctcheck::sites::HALF);
        // ct: secret(self)
        // A zero exponent field (i.e. zero — subnormals are flushed)
        // keeps only the sign bit; otherwise the exponent is decremented.
        let nz = ((self.exponent_bits() != 0) as u64).wrapping_neg();
        let dec = self.0.wrapping_sub(1u64 << 52) & nz;
        Fpr(dec | (self.0 & (1u64 << 63) & !nz))
        // ct: end
    }

    /// Strictly-less-than comparison on the represented real values.
    #[inline]
    pub fn lt(self, rhs: Fpr) -> bool {
        cmp_total(self, rhs) == core::cmp::Ordering::Less
    }

    /// Less-than-or-equal comparison on the represented real values.
    #[inline]
    pub fn le(self, rhs: Fpr) -> bool {
        cmp_total(self, rhs) != core::cmp::Ordering::Greater
    }

    /// Packs sign `s`, unbiased exponent `e` and a 55-bit mantissa `m`
    /// (`2^54 <= m < 2^55`, or 0) into an `Fpr`, rounding the two excess
    /// low bits to nearest-even. The represented value is `(-1)^s · m · 2^e`.
    ///
    /// Exponents below the normal range flush the result to (signed) zero.
    /// Overflow above the range cannot occur on FALCON's value domain and
    /// is unspecified, matching the reference implementation.
    #[inline]
    pub(crate) fn build(s: u32, e: i32, m: u64) -> Fpr {
        debug_assert!(m == 0 || (m >> 54) == 1, "mantissa out of range: {m:#x}");
        crate::ctcheck::site(crate::ctcheck::sites::BUILD);
        // ct: secret(s, e, m)
        let e = e + 1076;
        // All-ones when the result is a normal number; a zero mantissa or
        // an underflowed exponent flushes to signed zero through the mask
        // instead of an early return.
        let live = (((m != 0) & (e >= 0)) as u64).wrapping_neg();
        // Clamp the exponent to zero on the flushed lane so the shift
        // below stays in range (the lane is masked out anyway).
        let ec = (e & !(e >> 31)) as u64;
        // Round-to-nearest-even on the two dropped bits: round up when the
        // dropped bits are 0b11, or 0b10 with an odd kept mantissa.
        let f = (m & 3) as u32;
        let kept = m >> 2;
        let round_up = ((f >> 1) & (f | (kept as u32)) & 1) as u64;
        // Adding the exponent field lets a rounding carry out of the
        // mantissa propagate into the exponent, which is exactly the
        // correct renormalisation (mantissa 2^53 -> 2^52, exponent + 1).
        let x = (((s as u64) << 63) | kept).wrapping_add(ec << 52).wrapping_add(round_up);
        Fpr((x & live) | (((s as u64) << 63) & !live))
        // ct: end
    }

    /// Decomposes into (sign, biased exponent field, 53-bit mantissa with
    /// the implicit bit, valid only when the exponent field is nonzero).
    #[inline]
    pub(crate) fn unpack(self) -> (u32, i32, u64) {
        let s = self.sign_bit();
        let e = self.exponent_bits() as i32;
        let m = self.mantissa_bits() | (1u64 << 52);
        (s, e, m)
    }
}

fn cmp_total(a: Fpr, b: Fpr) -> core::cmp::Ordering {
    // Compare as sign-magnitude integers; the IEEE layout is monotonic in
    // the non-negative range.
    let (sa, sb) = (a.sign_bit(), b.sign_bit());
    let (ma, mb) = (a.0 & !(1u64 << 63), b.0 & !(1u64 << 63));
    if ma == 0 && mb == 0 {
        return core::cmp::Ordering::Equal; // +-0 == +-0
    }
    match (sa, sb) {
        (0, 0) => ma.cmp(&mb),
        (1, 1) => mb.cmp(&ma),
        (1, 0) => core::cmp::Ordering::Less,
        _ => core::cmp::Ordering::Greater,
    }
}

impl fmt::Debug for Fpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fpr({:e} = {:#018x})", self.to_f64(), self.0)
    }
}

impl fmt::Display for Fpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl fmt::LowerHex for Fpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Fpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}
