//! Emulated addition and subtraction.

use crate::repr::Fpr;
use core::ops::{Add, AddAssign, Neg, Sub, SubAssign};

// The inherent `add`/`sub` mirror the reference implementation's API;
// the std operator traits are implemented below in terms of them.
#[allow(clippy::should_implement_trait)]
impl Fpr {
    /// Emulated addition with round-to-nearest-even.
    ///
    /// Matches the FALCON reference semantics: operands are aligned with a
    /// sticky bit absorbing everything shifted out, the result is
    /// renormalised and rounded, and subnormal results flush to zero.
    #[inline]
    pub fn add(self, rhs: Fpr) -> Fpr {
        crate::ctcheck::site(crate::ctcheck::sites::ADD);
        // ct: secret(self, rhs)
        // Order operands so that |x| >= |y|; when magnitudes are equal,
        // prefer the non-negative one first so that exact cancellation
        // yields +0 (IEEE round-to-nearest behaviour). The swap is a
        // mask select rather than a branch.
        let am = self.0 & !(1u64 << 63);
        let bm = rhs.0 & !(1u64 << 63);
        let swap = (((am < bm) | ((am == bm) & (self.sign_bit() == 1))) as u64).wrapping_neg();
        let x = Fpr((self.0 & !swap) | (rhs.0 & swap));
        let y = Fpr((rhs.0 & !swap) | (self.0 & swap));

        let sx = x.sign_bit();
        let sy = y.sign_bit();

        // Scale mantissas up by 8 (three guard bits) and express both
        // values as m * 2^(e): a zero exponent field means the value is
        // zero, so the implicit bit is only kept for nonzero operands
        // (masked, not branched).
        let exf = x.exponent_bits() as i32;
        let eyf = y.exponent_bits() as i32;
        let xm = ((exf != 0) as u64).wrapping_neg();
        let ym = ((eyf != 0) as u64).wrapping_neg();
        let xu = ((x.mantissa_bits() | (1u64 << 52)) << 3) & xm;
        let yu = ((y.mantissa_bits() | (1u64 << 52)) << 3) & ym;
        let ex = exf - 1078;
        let ey = eyf - 1078;

        // Align y to x's exponent. Beyond 59 positions y cannot influence
        // the rounded result (x's guard bits fully decide it), so it is
        // dropped entirely, as in the reference implementation; the
        // drop is a mask and the shift count is clamped so the in-range
        // lane is computed unconditionally.
        let cc = (ex - ey) as u32;
        debug_assert!(ex >= ey);
        let keep = ((cc <= 59) as u64).wrapping_neg();
        let sh = cc & 63;
        let smask = (1u64 << sh) - 1;
        let sticky = u64::from(yu & smask != 0);
        let yu = ((yu >> sh) | sticky) & keep;

        // Same sign: magnitude addition; opposite signs: subtraction
        // (non-negative because |x| >= |y|), realised by conditionally
        // negating the aligned addend. The result sign is x's.
        let opp = ((sx ^ sy) as u64).wrapping_neg();
        let zu = xu.wrapping_add((yu ^ opp).wrapping_sub(opp));

        // Renormalise to a 55-bit mantissa (top bit at position 54),
        // folding right-shifted bits into the sticky position. The
        // left/right shift pair is selected by masks; `zu | 1` keeps the
        // shift amounts in range for the fully-cancelled case, whose
        // mantissa is then masked to zero so the packer emits x's signed
        // zero.
        let nz = ((zu != 0) as u64).wrapping_neg();
        let top = 63 - (zu | 1).leading_zeros() as i32;
        let d = top - 54;
        let kr = (d & !(d >> 31)) as u32;
        let kl = ((-d) & !((-d) >> 31)) as u32;
        let rmask = (1u64 << kr) - 1;
        let rsticky = u64::from(zu & rmask != 0);
        let m = (((zu >> kr) | rsticky) << kl) & nz;

        Fpr::build(sx, ex + d, m)
        // ct: end
    }

    /// Emulated subtraction: `self - rhs`.
    #[inline]
    pub fn sub(self, rhs: Fpr) -> Fpr {
        self.add(rhs.neg())
    }
}

impl Add for Fpr {
    type Output = Fpr;
    #[inline]
    fn add(self, rhs: Fpr) -> Fpr {
        Fpr::add(self, rhs)
    }
}

impl Sub for Fpr {
    type Output = Fpr;
    #[inline]
    fn sub(self, rhs: Fpr) -> Fpr {
        Fpr::sub(self, rhs)
    }
}

impl Neg for Fpr {
    type Output = Fpr;
    #[inline]
    fn neg(self) -> Fpr {
        Fpr::neg(self)
    }
}

impl AddAssign for Fpr {
    #[inline]
    fn add_assign(&mut self, rhs: Fpr) {
        *self = Fpr::add(*self, rhs);
    }
}

impl SubAssign for Fpr {
    #[inline]
    fn sub_assign(&mut self, rhs: Fpr) {
        *self = Fpr::sub(*self, rhs);
    }
}
