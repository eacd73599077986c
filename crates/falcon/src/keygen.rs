//! Key generation (the paper's Algorithm 1) and key types.
//!
//! `NTRUGen` samples the private polynomials `f, g` from a discrete
//! Gaussian, rejects poorly conditioned candidates (non-invertible `f`,
//! excessive Gram–Schmidt norm), solves the NTRU equation
//! `f·G − g·F = q` by the recursive field-norm descent with Babai size
//! reduction, and derives the public key `h = g·f⁻¹ mod q`, the
//! FFT-domain secret basis `B̂` and the ffLDL* sampling tree.

use crate::ffsampling::{gram, LdlTree};
use crate::fft::{fft, poly_from_ints, poly_neg};
use crate::ntt::NttTables;
use crate::params::{LogN, Q};
use crate::poly_big::{self, babai_reduce, field_norm, galois_conjugate, lift, PolyZ};
use crate::rng::Prng;
use crate::sign::{sign_inner, Signature};
use crate::zint::Zint;
use falcon_fpr::{Fpr, MulObserver, NullObserver};

/// Solves the NTRU equation: finds `(F, G)` with `f·G − g·F = q` over
/// `Z[x]/(x^m + 1)`, or `None` when the descent hits a non-coprime base
/// case (the caller resamples `f, g`).
pub fn ntru_solve(f: &[Zint], g: &[Zint]) -> Option<(PolyZ, PolyZ)> {
    if f.len() == 1 {
        let f0 = &f[0];
        let g0 = &g[0];
        if f0.is_zero() && g0.is_zero() {
            return None;
        }
        let (d, u, v) = Zint::xgcd(&f0.abs(), &g0.abs());
        if d != Zint::one() {
            return None;
        }
        // u·|f0| + v·|g0| = 1  ⇒  (±u)·f0 + (±v)·g0 = 1.
        let us = if f0.is_negative() { u.negated() } else { u };
        let vs = if g0.is_negative() { v.negated() } else { v };
        let q = Zint::from_i64(Q as i64);
        let capg = us.mul(&q);
        let capf = vs.mul(&q).negated();
        let mut capf = vec![capf];
        let mut capg = vec![capg];
        babai_reduce(f, g, &mut capf, &mut capg);
        return Some((capf, capg));
    }
    let fp = field_norm(f);
    let gp = field_norm(g);
    let (capf_p, capg_p) = ntru_solve(&fp, &gp)?;
    // Lift: F = F'(x²)·g(−x), G = G'(x²)·f(−x).
    let mut capf = poly_big::mul(&lift(&capf_p), &galois_conjugate(g));
    let mut capg = poly_big::mul(&lift(&capg_p), &galois_conjugate(f));
    babai_reduce(f, g, &mut capf, &mut capg);
    Some((capf, capg))
}

/// Checks `f·G − g·F = q` exactly.
pub fn ntru_equation_holds(f: &[i16], g: &[i16], capf: &[i16], capg: &[i16]) -> bool {
    let to_z = |v: &[i16]| -> PolyZ { v.iter().map(|&c| Zint::from_i64(c as i64)).collect() };
    let lhs =
        poly_big::sub(&poly_big::mul(&to_z(f), &to_z(capg)), &poly_big::mul(&to_z(g), &to_z(capf)));
    if lhs[0].to_i64() != Some(Q as i64) {
        return false;
    }
    lhs[1..].iter().all(Zint::is_zero)
}

/// Samples one private polynomial coefficient set from the discrete
/// Gaussian with `σ = σ_fg(logn)` via an inverse-CDT over 63-bit uniform
/// randomness.
fn sample_fg(logn: LogN, rng: &mut Prng) -> Vec<i16> {
    let sigma = logn.sigma_fg();
    let kmax = (10.0 * sigma).ceil() as i64;
    // Cumulative table over k = -kmax..=kmax.
    let weights: Vec<f64> =
        (-kmax..=kmax).map(|k| (-(k * k) as f64 / (2.0 * sigma * sigma)).exp()).collect();
    // ct: allow(sequential fold over a fixed-order spec table)
    let total: f64 = weights.iter().sum();
    let mut cum = Vec::with_capacity(weights.len());
    let mut acc = 0.0f64;
    for w in &weights {
        acc += w / total;
        cum.push((acc * 2f64.powi(63)) as u64);
    }
    (0..logn.n())
        .map(|_| {
            let u = rng.next_u64() >> 1;
            let idx = cum.partition_point(|&c| c <= u);
            (idx as i64 - kmax).clamp(i16::MIN as i64, i16::MAX as i64) as i16
        })
        .collect()
}

/// Gram–Schmidt acceptance test from the specification: both the norm of
/// `(g, −f)` and of the dual vector `q·(f̄, ḡ)/(f f̄ + g ḡ)` must be at
/// most `1.17²·q`.
fn gs_norm_ok(f: &[i16], g: &[i16]) -> bool {
    let bound = 1.17 * 1.17 * Q as f64;
    // ct: allow(sequential in-order coefficient sum from the spec)
    let sq: f64 = f.iter().chain(g.iter()).map(|&c| (c as f64) * (c as f64)).sum();
    if sq > bound {
        return false;
    }
    let n = f.len() as f64;
    let fa = poly_big::fft64(&f.iter().map(|&c| c as f64).collect::<Vec<_>>());
    let ga = poly_big::fft64(&g.iter().map(|&c| c as f64).collect::<Vec<_>>());
    let mut acc = 0f64;
    for (x, y) in fa.iter().zip(ga.iter()) {
        let den = x.norm_sq() + y.norm_sq();
        if den < 1e-9 {
            return false;
        }
        acc += (Q as f64) * (Q as f64) / den;
    }
    (2.0 / n) * acc <= bound
}

/// The private signing key: the four NTRU polynomials together with the
/// precomputed FFT basis and the ffLDL* sampling tree.
#[derive(Debug, Clone)]
pub struct SigningKey {
    // ct: public(logn, h)
    logn: LogN,
    f: Vec<i16>,
    g: Vec<i16>,
    capf: Vec<i16>,
    capg: Vec<i16>,
    /// B̂ rows: b00 = FFT(g), b01 = FFT(−f), b10 = FFT(G), b11 = FFT(−F).
    pub(crate) b00: Vec<Fpr>,
    pub(crate) b01: Vec<Fpr>,
    pub(crate) b10: Vec<Fpr>,
    pub(crate) b11: Vec<Fpr>,
    /// FFT(f) — the secret operand of the attacked multiplication.
    pub(crate) f_fft: Vec<Fpr>,
    /// FFT(F).
    pub(crate) capf_fft: Vec<Fpr>,
    pub(crate) tree: LdlTree,
    h: Vec<u16>,
}

/// The public verification key `h = g·f⁻¹ mod q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyingKey {
    logn: LogN,
    h: Vec<u16>,
}

/// A freshly generated key pair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    sk: SigningKey,
    vk: VerifyingKey,
}

impl KeyPair {
    /// Runs `NTRUGen` until an acceptable key materialises.
    pub fn generate(logn: LogN, rng: &mut Prng) -> KeyPair {
        loop {
            let f = sample_fg(logn, rng);
            let g = sample_fg(logn, rng);
            if let Some(kp) = Self::try_from_fg(logn, &f, &g) {
                return kp;
            }
        }
    }

    /// Attempts to complete a key pair from candidate `(f, g)`; `None`
    /// when any acceptance test fails.
    pub fn try_from_fg(logn: LogN, f: &[i16], g: &[i16]) -> Option<KeyPair> {
        let n = logn.n();
        assert_eq!(f.len(), n);
        assert_eq!(g.len(), n);
        if !gs_norm_ok(f, g) {
            return None;
        }
        // h = g·f⁻¹ mod q (also proves invertibility of f).
        let tables = NttTables::new(logn.logn());
        let fq: Vec<u32> = f.iter().map(|&v| crate::ntt::mq_from_signed(v as i32)).collect();
        let gq: Vec<u32> = g.iter().map(|&v| crate::ntt::mq_from_signed(v as i32)).collect();
        let finv = tables.poly_inv(&fq)?;
        let h: Vec<u16> = tables.poly_mul(&gq, &finv).into_iter().map(|v| v as u16).collect();

        let to_z = |v: &[i16]| -> PolyZ { v.iter().map(|&c| Zint::from_i64(c as i64)).collect() };
        let (capf_z, capg_z) = ntru_solve(&to_z(f), &to_z(g))?;
        let cap_to_i16 = |p: &PolyZ| -> Option<Vec<i16>> {
            p.iter().map(|c| c.to_i64().and_then(|v| i16::try_from(v).ok())).collect()
        };
        let capf = cap_to_i16(&capf_z)?;
        let capg = cap_to_i16(&capg_z)?;
        debug_assert!(ntru_equation_holds(f, g, &capf, &capg));

        // Enforce the key-encoding field widths (the specification's
        // keygen resamples such keys too).
        let fg_lim = 1i16 << (crate::keys::max_fg_bits(logn.logn()) - 1);
        if f.iter().chain(g.iter()).any(|&c| c <= -fg_lim || c >= fg_lim) {
            return None;
        }
        let cap_lim = 1i16 << (crate::keys::max_capfg_bits(logn.logn()) - 1);
        if capf.iter().chain(capg.iter()).any(|&c| c <= -cap_lim || c >= cap_lim) {
            return None;
        }

        let sk = SigningKey::from_private(logn, f, g, &capf, &capg, h.clone());
        let vk = VerifyingKey { logn, h };
        Some(KeyPair { sk, vk })
    }

    /// The signing half.
    pub fn signing_key(&self) -> &SigningKey {
        &self.sk
    }

    /// The verification half.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.vk
    }

    /// Splits the pair into its halves.
    pub fn into_parts(self) -> (SigningKey, VerifyingKey) {
        (self.sk, self.vk)
    }
}

impl SigningKey {
    /// Builds the full signing state (FFT basis, Gram tree) from the four
    /// private polynomials and the public key.
    ///
    /// This is also the entry point used by the *Falcon Down* attack once
    /// it has recovered `(f, g, F, G)`: a forged key built here is
    /// functionally identical to the victim's.
    pub fn from_private(
        logn: LogN,
        f: &[i16],
        g: &[i16],
        capf: &[i16],
        capg: &[i16],
        h: Vec<u16>,
    ) -> SigningKey {
        let n = logn.n();
        assert!(f.len() == n && g.len() == n && capf.len() == n && capg.len() == n);
        let fft_of = |v: &[i16], negate: bool| -> Vec<Fpr> {
            let mut p = poly_from_ints(v);
            if negate {
                poly_neg(&mut p);
            }
            fft(&mut p);
            p
        };
        let b00 = fft_of(g, false);
        let b01 = fft_of(f, true);
        let b10 = fft_of(capg, false);
        let b11 = fft_of(capf, true);
        let f_fft = fft_of(f, false);
        let capf_fft = fft_of(capf, false);
        let (g00, g01, g11) = gram(&b00, &b01, &b10, &b11);
        let tree = LdlTree::build(&g00, &g01, &g11, Fpr::from(logn.sigma()));
        SigningKey {
            logn,
            f: f.to_vec(),
            g: g.to_vec(),
            capf: capf.to_vec(),
            capg: capg.to_vec(),
            b00,
            b01,
            b10,
            b11,
            f_fft,
            capf_fft,
            tree,
            h,
        }
    }

    /// The parameter set.
    pub fn logn(&self) -> LogN {
        self.logn
    }

    /// The private polynomial `f`.
    pub fn f(&self) -> &[i16] {
        &self.f
    }

    /// The private polynomial `g`.
    pub fn g(&self) -> &[i16] {
        &self.g
    }

    /// The private polynomial `F`.
    pub fn cap_f(&self) -> &[i16] {
        &self.capf
    }

    /// The private polynomial `G`.
    pub fn cap_g(&self) -> &[i16] {
        &self.capg
    }

    /// The FFT-domain secret `FFT(f)` (what the side-channel attack
    /// reconstructs; exposed for ground-truth comparisons in tests and
    /// experiments).
    pub fn f_fft(&self) -> &[Fpr] {
        &self.f_fft
    }

    /// The public key polynomial.
    pub fn h(&self) -> &[u16] {
        &self.h
    }

    /// Signs a message (Algorithm 2).
    pub fn sign(&self, msg: &[u8], rng: &mut Prng) -> Signature {
        sign_inner(self, msg, rng, &mut NullObserver)
    }

    /// Signs a message while reporting the micro-operations of the
    /// `FFT(c) ⊙ FFT(f)` pointwise multiplication — the computation the
    /// *Falcon Down* attack measures — to `obs`.
    pub fn sign_traced<O: MulObserver>(
        &self,
        msg: &[u8],
        rng: &mut Prng,
        obs: &mut O,
    ) -> Signature {
        sign_inner(self, msg, rng, obs)
    }
}

impl VerifyingKey {
    /// Builds a verifying key from the raw public polynomial.
    pub fn from_h(logn: LogN, h: Vec<u16>) -> VerifyingKey {
        assert_eq!(h.len(), logn.n());
        VerifyingKey { logn, h }
    }

    /// The parameter set.
    pub fn logn(&self) -> LogN {
        self.logn
    }

    /// The public key polynomial `h` (coefficients in `[0, q)`).
    pub fn h(&self) -> &[u16] {
        &self.h
    }

    /// Verifies `sig` over `msg`; see [`crate::verify`].
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        crate::verify::verify(self, msg, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_z(v: &[i64]) -> PolyZ {
        v.iter().map(|&c| Zint::from_i64(c)).collect()
    }

    #[test]
    fn ntru_solve_base_case() {
        // f = 3, g = 2 (coprime): 3G - 2F = 12289.
        let (capf, capg) = ntru_solve(&to_z(&[3]), &to_z(&[2])).expect("coprime");
        let lhs = Zint::from_i64(3).mul(&capg[0]).sub(&Zint::from_i64(2).mul(&capf[0]));
        assert_eq!(lhs.to_i64(), Some(12289));
    }

    #[test]
    fn ntru_solve_non_coprime_fails() {
        assert!(ntru_solve(&to_z(&[4]), &to_z(&[2])).is_none());
        assert!(ntru_solve(&to_z(&[0]), &to_z(&[0])).is_none());
    }

    #[test]
    fn ntru_solve_small_degrees() {
        let mut rng = Prng::from_seed(b"ntru solve test");
        for logn in [1u32, 2, 3, 4] {
            let logn = LogN::new(logn).unwrap();
            let mut solved = 0;
            for _ in 0..20 {
                let f = sample_fg(logn, &mut rng);
                let g = sample_fg(logn, &mut rng);
                let fz: PolyZ = f.iter().map(|&c| Zint::from_i64(c as i64)).collect();
                let gz: PolyZ = g.iter().map(|&c| Zint::from_i64(c as i64)).collect();
                if let Some((capf, capg)) = ntru_solve(&fz, &gz) {
                    // Exact equation check over Zint.
                    let lhs = poly_big::sub(&poly_big::mul(&fz, &capg), &poly_big::mul(&gz, &capf));
                    assert_eq!(lhs[0].to_i64(), Some(Q as i64), "logn={:?}", logn);
                    assert!(lhs[1..].iter().all(Zint::is_zero));
                    solved += 1;
                }
            }
            assert!(solved > 0, "no solvable instance at logn={:?}", logn);
        }
    }

    #[test]
    fn sample_fg_statistics() {
        let mut rng = Prng::from_seed(b"fg stats");
        let logn = LogN::new(6).unwrap();
        let mut sum = 0f64;
        let mut sq = 0f64;
        let mut count = 0usize;
        for _ in 0..200 {
            for c in sample_fg(logn, &mut rng) {
                sum += c as f64;
                sq += (c as f64) * (c as f64);
                count += 1;
            }
        }
        let mean = sum / count as f64;
        let var = sq / count as f64 - mean * mean;
        let sigma = logn.sigma_fg();
        assert!(mean.abs() < 0.5, "mean={mean}");
        assert!((var - sigma * sigma).abs() < sigma * sigma * 0.1, "var={var}");
    }

    #[test]
    fn cached_leaf_inverses_match_division() {
        fn leaves(t: &LdlTree, out: &mut Vec<(Fpr, Fpr)>) {
            match t {
                LdlTree::Leaf { sigma, isigma } => out.push((*sigma, *isigma)),
                LdlTree::Node { left, right, .. } => {
                    leaves(left, out);
                    leaves(right, out);
                }
            }
        }
        let kp = KeyPair::generate(LogN::N512, &mut Prng::from_seed(b"leaf inverses"));
        let mut got = Vec::new();
        leaves(&kp.signing_key().tree, &mut got);
        assert_eq!(got.len(), 512);
        for (i, (sigma, isigma)) in got.into_iter().enumerate() {
            assert_eq!(isigma.to_bits(), sigma.inv().to_bits(), "leaf {i}");
        }
    }

    #[test]
    fn generate_small_keypair() {
        let mut rng = Prng::from_seed(b"keygen small");
        let logn = LogN::new(4).unwrap();
        let kp = KeyPair::generate(logn, &mut rng);
        assert!(ntru_equation_holds(
            kp.signing_key().f(),
            kp.signing_key().g(),
            kp.signing_key().cap_f(),
            kp.signing_key().cap_g()
        ));
        // h·f = g mod q.
        let t = NttTables::new(logn.logn());
        let hf = crate::poly::mul_mod_q_centered(kp.signing_key().f(), kp.verifying_key().h(), &t);
        assert_eq!(&hf, kp.signing_key().g());
        // Tree has n leaves, all in [sigma_min, sigma_max].
        let sigmas = kp.signing_key().tree.leaf_sigmas();
        assert_eq!(sigmas.len(), logn.n());
        for s in sigmas {
            let v = s.to_f64();
            assert!(v >= logn.sigma_min() - 1e-9, "leaf sigma {v} below min");
            assert!(v <= logn.sigma_max() + 1e-9, "leaf sigma {v} above max");
        }
    }
}
