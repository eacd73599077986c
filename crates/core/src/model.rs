//! Leakage hypothesis models.
//!
//! For a guess about (part of) a secret `FFT(f)` coefficient and the
//! known `FFT(c)` operand of a multiplication, these functions predict
//! the Hamming weight of the corresponding micro-operation's data word —
//! the quantities correlated against measured samples.
//!
//! The exact models simply re-execute [`Fpr::mul_observed`]; the partial
//! models exploit that the low `m` bits of a product depend only on the
//! low `m` bits of each factor, which is what makes the incremental
//! extend-and-prune recovery sound.

use falcon_emsim::StepKind;
use falcon_fpr::Fpr;

/// Decomposition of a known 64-bit operand into the fields manipulated by
/// the emulated multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownOperand {
    /// Raw bits.
    pub bits: u64,
    /// Low 25 bits of the 53-bit mantissa (the paper's `B`).
    pub lo: u32,
    /// High 28 bits of the mantissa, implicit one included (the paper's
    /// `A`).
    pub hi: u32,
    /// Biased exponent field.
    pub exp: u32,
    /// Sign bit.
    pub sign: u32,
}

impl KnownOperand {
    /// Splits a known coefficient.
    pub fn new(bits: u64) -> KnownOperand {
        let f = Fpr::from_bits(bits);
        let m = f.mantissa_bits() | (1u64 << 52);
        KnownOperand {
            bits,
            lo: (m as u32) & 0x1FF_FFFF,
            hi: (m >> 25) as u32,
            exp: f.exponent_bits(),
            sign: f.sign_bit(),
        }
    }
}

/// Which secret mantissa half a partial product involves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecretHalf {
    /// The low 25 bits (`D` in the paper).
    Low,
    /// The high 28 bits (`C` in the paper).
    High,
}

/// Partial-product hypothesis: Hamming weight of the low `m_bits` of
/// `guess · k`, where `guess` holds the low `m_bits` of the secret half.
///
/// For `m_bits` covering the whole secret half this is the full product
/// word (the monolithic attack's model).
pub fn hyp_partial_product(guess: u64, m_bits: u32, known_half: u32, full_width: u32) -> f64 {
    let prod = guess.wrapping_mul(known_half as u64);
    (prod & product_mask(m_bits, full_width)).count_ones() as f64
}

/// The product bits [`hyp_partial_product`] observes: the low `m_bits`,
/// or the whole word once `m_bits` covers the secret half.
pub fn product_mask(m_bits: u32, full_width: u32) -> u64 {
    if m_bits >= full_width {
        u64::MAX
    } else {
        (1u64 << m_bits) - 1
    }
}

/// Exact hypothesis for any step, given a full guess of the secret
/// coefficient bits: re-executes the multiplication and reads off the
/// step's data word.
pub fn hyp_exact(secret_bits: u64, known: &KnownOperand, step: StepKind) -> f64 {
    step_words(secret_bits, known)[step as usize].count_ones() as f64
}

/// Allocation-free observer collecting the 14 data words of one
/// multiplication.
#[derive(Debug, Default)]
struct WordsObserver {
    words: [u64; StepKind::COUNT],
    at: usize,
}

impl falcon_fpr::MulObserver for WordsObserver {
    #[inline]
    fn record(&mut self, step: falcon_fpr::MulStep) {
        self.words[self.at] = step.data_word();
        self.at += 1;
    }
}

/// All 14 data words of the multiplication `secret × known`.
pub fn step_words(secret_bits: u64, known: &KnownOperand) -> [u64; StepKind::COUNT] {
    let mut rec = WordsObserver::default();
    let _ = Fpr::from_bits(secret_bits).mul_observed(Fpr::from_bits(known.bits), &mut rec);
    debug_assert_eq!(rec.at, StepKind::COUNT);
    rec.words
}

/// Exact hypothesis for the mantissa-addition (prune) step that depends
/// only on the secret **low** half `d`: the `AddLoHi` accumulator
/// `(d·B >> 25) + (d·A & 0x1FFFFFF)`.
pub fn hyp_add_lo(d: u64, known: &KnownOperand) -> f64 {
    let w_ll = d * known.lo as u64;
    let w_lh = d * known.hi as u64;
    let z1 = (w_ll >> 25) as u32 + ((w_lh as u32) & 0x1FF_FFFF);
    z1.count_ones() as f64
}

/// Exact hypothesis for the top-word accumulation (prune step for the
/// secret **high** half `c`), given the already-recovered low half `d`:
/// the `AddHiHi` accumulator of the reference dataflow.
pub fn hyp_add_hi(c: u64, d: u64, known: &KnownOperand) -> f64 {
    // Mirrors the accumulation order of fpr::mul_observed.
    let (y0, y1) = (known.lo as u64, known.hi as u64);
    let w_ll = d * y0;
    let w_lh = d * y1;
    let mut z1 = ((w_ll >> 25) as u32) + ((w_lh as u32) & 0x1FF_FFFF);
    let mut z2 = (w_lh >> 25) as u32;
    let w_hl = c * y0;
    z1 += (w_hl as u32) & 0x1FF_FFFF;
    z2 += (w_hl >> 25) as u32;
    let w_hh = c * y1;
    z2 += z1 >> 25;
    let zu = w_hh + z2 as u64;
    zu.count_ones() as f64
}

/// Sign-step hypothesis: `guess_sign ⊕ known_sign`.
pub fn hyp_sign(guess_sign: u32, known: &KnownOperand) -> f64 {
    (guess_sign ^ known.sign) as f64
}

/// Exponent-step hypothesis with the carry recomputed from fully
/// recovered mantissas.
pub fn hyp_exponent_with_carry(ef: u32, c: u64, d: u64, known: &KnownOperand) -> f64 {
    let (y0, y1) = (known.lo as u64, known.hi as u64);
    let w_ll = d * y0;
    let w_lh = d * y1;
    let mut z1 = ((w_ll >> 25) as u32) + ((w_lh as u32) & 0x1FF_FFFF);
    let mut z2 = (w_lh >> 25) as u32;
    let w_hl = c * y0;
    z1 += (w_hl as u32) & 0x1FF_FFFF;
    z2 += (w_hl >> 25) as u32;
    let w_hh = c * y1;
    z2 += z1 >> 25;
    let z1m = z1 & 0x1FF_FFFF;
    let mut zu = w_hh + z2 as u64;
    let z0 = (w_ll as u32) & 0x1FF_FFFF;
    zu |= u64::from((z0 | z1m) != 0);
    let carry = (zu >> 55) as u32;
    let v = (known.exp as i32 + ef as i32 - 2100 + carry as i32) as u32;
    v.count_ones() as f64
}

/// Assembles the full 64-bit coefficient from recovered parts.
///
/// `c_hi` is the 28-bit high mantissa half (implicit bit included), `d_lo`
/// the 25-bit low half, `exp` the biased exponent field, `sign` the sign
/// bit.
pub fn assemble_coefficient(sign: u32, exp: u32, c_hi: u64, d_lo: u64) -> u64 {
    debug_assert!(c_hi >> 28 == 0 && (c_hi >> 27) == 1, "high half must carry the implicit bit");
    debug_assert!(d_lo >> 25 == 0);
    let mantissa = ((c_hi & 0x7FF_FFFF) << 25) | d_lo;
    ((sign as u64) << 63) | ((exp as u64) << 52) | mantissa
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_fpr::RecordingObserver;

    const COEFF: u64 = 0xC060_17BC_8036_B580;

    #[test]
    fn known_operand_fields() {
        let k = KnownOperand::new(COEFF);
        assert_eq!(k.sign, 1);
        assert_eq!(k.exp, 0x406);
        assert_eq!(k.lo, 0x36B580);
        assert_eq!(k.hi, 0x80B_DE40);
    }

    #[test]
    fn exact_hypotheses_match_recorded_steps() {
        let secret = 0x4012_3456_789A_BCDE;
        let known = KnownOperand::new(COEFF);
        let mut rec = RecordingObserver::new();
        let _ = Fpr::from_bits(secret).mul_observed(Fpr::from_bits(known.bits), &mut rec);
        for (i, step) in rec.steps.iter().enumerate() {
            let kind = StepKind::ALL[i];
            assert_eq!(
                hyp_exact(secret, &known, kind),
                step.data_word().count_ones() as f64,
                "step {kind:?}"
            );
        }
    }

    #[test]
    fn partial_product_consistency() {
        // The full-width partial model must equal the exact PpLoLo model.
        let secret = 0x4012_3456_789A_BCDE;
        let known = KnownOperand::new(COEFF);
        let sm = Fpr::from_bits(secret).mantissa_bits() | (1 << 52);
        let d = sm & 0x1FF_FFFF;
        assert_eq!(
            hyp_partial_product(d, 25, known.lo, 25),
            hyp_exact(secret, &known, StepKind::PpLoLo)
        );
        // A partial guess of the low 8 bits models the product's low 8
        // bits regardless of the rest of d.
        let d8 = d & 0xFF;
        let full = d * known.lo as u64;
        assert_eq!(hyp_partial_product(d8, 8, known.lo, 25), (full & 0xFF).count_ones() as f64);
    }

    #[test]
    fn add_lo_matches_recorded_intermediate() {
        let secret = 0x4012_3456_789A_BCDE;
        let known = KnownOperand::new(COEFF);
        let sm = Fpr::from_bits(secret).mantissa_bits() | (1 << 52);
        let d = sm & 0x1FF_FFFF;
        assert_eq!(hyp_add_lo(d, &known), hyp_exact(secret, &known, StepKind::AddLoHi));
    }

    #[test]
    fn add_hi_matches_recorded_intermediate() {
        let secret = 0x4012_3456_789A_BCDE;
        let known = KnownOperand::new(COEFF);
        let sm = Fpr::from_bits(secret).mantissa_bits() | (1 << 52);
        let d = sm & 0x1FF_FFFF;
        let c = sm >> 25;
        assert_eq!(hyp_add_hi(c, d, &known), hyp_exact(secret, &known, StepKind::AddHiHi));
    }

    #[test]
    fn exponent_with_carry_matches_exact() {
        for secret in [0x4012_3456_789A_BCDEu64, 0x3FF0_0000_0000_0001, 0xC1D2_3344_5566_7788] {
            let known = KnownOperand::new(COEFF);
            let f = Fpr::from_bits(secret);
            let sm = f.mantissa_bits() | (1 << 52);
            let (d, c) = (sm & 0x1FF_FFFF, sm >> 25);
            assert_eq!(
                hyp_exponent_with_carry(f.exponent_bits(), c, d, &known),
                hyp_exact(secret, &known, StepKind::ExponentAdd),
                "secret {secret:#x}"
            );
        }
    }

    #[test]
    fn assemble_roundtrip() {
        let f = Fpr::from_bits(COEFF);
        let m = f.mantissa_bits() | (1 << 52);
        let rebuilt =
            assemble_coefficient(f.sign_bit(), f.exponent_bits(), m >> 25, m & 0x1FF_FFFF);
        assert_eq!(rebuilt, COEFF);
    }
}
