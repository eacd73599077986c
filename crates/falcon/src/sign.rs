//! Signature generation (the paper's Algorithm 2).

use crate::codec::compress;
use crate::ffsampling::{ff_sampling, ff_sampling_ws_len};
use crate::fft::{
    fft, ifft, poly_add, poly_mul_fft, poly_mul_fft_observed, poly_mulconst, poly_neg, poly_sub,
};
use crate::hash::hash_to_point;
use crate::keygen::SigningKey;
use crate::params::{LogN, SALT_LEN};
use crate::poly::norm_sq;
use crate::rng::Prng;
use falcon_fpr::{Fpr, MulObserver};

/// A FALCON signature: the salt `r` and the compressed short vector `s2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    logn: LogN,
    salt: [u8; SALT_LEN],
    s2: Vec<i16>,
    encoded: Vec<u8>,
}

impl Signature {
    /// The parameter set this signature was produced under.
    pub fn logn(&self) -> LogN {
        self.logn
    }

    /// The random salt `r`.
    pub fn salt(&self) -> &[u8; SALT_LEN] {
        &self.salt
    }

    /// The signed short polynomial `s2` in coefficient form.
    pub fn s2(&self) -> &[i16] {
        &self.s2
    }

    /// The full wire encoding: header byte, salt, compressed `s2`
    /// (fixed length [`LogN::sig_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.logn.sig_bytes());
        out.push(0x30 | self.logn.logn() as u8);
        out.extend_from_slice(&self.salt);
        out.extend_from_slice(&self.encoded);
        out
    }

    /// Parses a wire encoding back into a signature.
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        let (&header, rest) = bytes.split_first()?;
        if header & 0xF0 != 0x30 {
            return None;
        }
        let logn = LogN::new((header & 0x0F) as u32)?;
        if bytes.len() != logn.sig_bytes() {
            return None;
        }
        let salt: [u8; SALT_LEN] = rest[..SALT_LEN].try_into().ok()?;
        let encoded = rest[SALT_LEN..].to_vec();
        let s2 = crate::codec::decompress(&encoded, logn.n())?;
        Some(Signature { logn, salt, s2, encoded })
    }

    /// Builds a signature object from raw parts (used by verification
    /// tests and the attack's forgery path); returns `None` when `s2`
    /// does not fit the fixed encoding length.
    pub fn from_parts(logn: LogN, salt: [u8; SALT_LEN], s2: Vec<i16>) -> Option<Signature> {
        let encoded = compress(&s2, logn.s2_bytes())?;
        Some(Signature { logn, salt, s2, encoded })
    }
}

/// Shared signing core; `obs` taps the `FFT(c) ⊙ FFT(f)` multiplication.
pub(crate) fn sign_inner<O: MulObserver>(
    sk: &SigningKey,
    msg: &[u8],
    rng: &mut Prng,
    obs: &mut O,
) -> Signature {
    loop {
        let mut salt = [0u8; SALT_LEN];
        rng.fill(&mut salt);
        if let Some(sig) = sign_with_salt(sk, msg, salt, rng, obs) {
            return sig;
        }
    }
}

/// One outer iteration of Algorithm 2 with a fixed salt; `None` when the
/// compressed signature does not fit (caller picks a fresh salt).
pub fn sign_with_salt<O: MulObserver>(
    sk: &SigningKey,
    msg: &[u8],
    salt: [u8; SALT_LEN],
    rng: &mut Prng,
    obs: &mut O,
) -> Option<Signature> {
    let logn = sk.logn();
    let n = logn.n();
    let c = hash_to_point(&salt, msg, n);

    // FFT(c).
    let mut c_fft: Vec<Fpr> = c.iter().map(|&v| Fpr::from_i64(v as i64)).collect();
    fft(&mut c_fft);

    let inv_q = Fpr::from_i64(crate::params::Q as i64).inv();

    // t1 = (1/q)·FFT(c) ⊙ FFT(f)  — the attacked multiplication; the
    // secret operand comes first so the observer indexes FFT(f).
    // ct: secret(sk, t1, t0)
    let mut t1 = sk.f_fft.clone();
    poly_mul_fft_observed(&mut t1, &c_fft, obs);
    poly_mulconst(&mut t1, inv_q);

    // t0 = −(1/q)·FFT(c) ⊙ FFT(F).
    let mut t0 = sk.capf_fft.clone();
    poly_mul_fft(&mut t0, &c_fft);
    poly_mulconst(&mut t0, inv_q);
    poly_neg(&mut t0);

    let sigma_min = Fpr::from(logn.sigma_min());
    let bound = logn.l2_bound();

    // One sampling workspace for every attempt; z0 and z1 are its head.
    let depth = logn.logn();
    let mut ws = vec![Fpr::ZERO; ff_sampling_ws_len(depth)];

    // Inner loop: resample until the candidate is short enough.
    for _attempt in 0..64 {
        ff_sampling(&t0, &t1, &sk.tree, sigma_min, depth, rng, &mut ws);
        let (z0, z1) = ws[..2 * n].split_at(n);

        // (tz0, tz1) = t − z ; ŝ = (t − z)·B̂.
        let mut tz0 = t0.clone();
        poly_sub(&mut tz0, z0);
        let mut tz1 = t1.clone();
        poly_sub(&mut tz1, z1);

        // s1 = tz0·b00 + tz1·b10 ; s2 = tz0·b01 + tz1·b11.
        let mut s1 = tz0.clone();
        poly_mul_fft(&mut s1, &sk.b00);
        let mut tmp = tz1.clone();
        poly_mul_fft(&mut tmp, &sk.b10);
        poly_add(&mut s1, &tmp);

        let mut s2 = tz0;
        poly_mul_fft(&mut s2, &sk.b01);
        let mut tmp = tz1;
        poly_mul_fft(&mut tmp, &sk.b11);
        poly_add(&mut s2, &tmp);

        ifft(&mut s1);
        ifft(&mut s2);
        let s1i: Vec<i16> = s1.iter().map(|v| v.rint() as i16).collect();
        let s2i: Vec<i16> = s2.iter().map(|v| v.rint() as i16).collect();

        // The accept/reject decision is the scheme's specified output
        // conditioning and the accepted vector is published as the
        // signature; the branch mirrors the reference control flow.
        // ct: allow(rejection sampling on the published norm bound)
        if norm_sq(&[&s1i, &s2i]) > bound {
            continue;
        }
        // ct: end
        // Compression failure → new salt (outer loop).
        return Signature::from_parts(logn, salt, s2i);
    }
    // Statistically unreachable: the sampler emits short vectors with
    // overwhelming probability. Treat as a salt retry.
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keygen::KeyPair;

    fn test_pair(seed: &[u8], logn: u32) -> KeyPair {
        let mut rng = Prng::from_seed(seed);
        KeyPair::generate(LogN::new(logn).unwrap(), &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip_small() {
        let kp = test_pair(b"sign test 16", 4);
        let mut rng = Prng::from_seed(b"sig rng");
        for msg in [b"alpha".as_slice(), b"beta", b"", b"a longer message body 123"] {
            let sig = kp.signing_key().sign(msg, &mut rng);
            assert!(kp.verifying_key().verify(msg, &sig), "message {msg:?}");
            assert!(!kp.verifying_key().verify(b"other", &sig));
        }
    }

    #[test]
    fn signature_norm_within_bound() {
        let kp = test_pair(b"norm bound", 5);
        let mut rng = Prng::from_seed(b"norm rng");
        let logn = kp.signing_key().logn();
        for i in 0..10u8 {
            let sig = kp.signing_key().sign(&[i], &mut rng);
            let t = crate::ntt::NttTables::new(logn.logn());
            let c = hash_to_point(sig.salt(), &[i], logn.n());
            let s2h = crate::poly::mul_mod_q_centered(sig.s2(), kp.verifying_key().h(), &t);
            let s1: Vec<i16> = c
                .iter()
                .zip(&s2h)
                .map(|(&ci, &p)| {
                    crate::ntt::mq_to_signed(crate::ntt::mq_from_signed(ci as i32 - p as i32))
                        as i16
                })
                .collect();
            assert!(norm_sq(&[&s1, sig.s2()]) <= logn.l2_bound());
        }
    }

    #[test]
    fn encoding_roundtrip() {
        let kp = test_pair(b"encode", 4);
        let mut rng = Prng::from_seed(b"encode rng");
        let sig = kp.signing_key().sign(b"msg", &mut rng);
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), kp.signing_key().logn().sig_bytes());
        let back = Signature::from_bytes(&bytes).expect("parses");
        assert_eq!(back, sig);
        assert!(Signature::from_bytes(&bytes[..10]).is_none());
        let mut bad = bytes.clone();
        bad[0] = 0x40;
        assert!(Signature::from_bytes(&bad).is_none());
    }

    #[test]
    fn traced_signature_still_verifies() {
        use falcon_fpr::RecordingObserver;
        let kp = test_pair(b"traced", 4);
        let mut rng = Prng::from_seed(b"traced rng");
        let mut obs = RecordingObserver::new();
        let sig = kp.signing_key().sign_traced(b"traced message", &mut rng, &mut obs);
        assert!(kp.verifying_key().verify(b"traced message", &sig));
        // One begin_coefficient per real multiplication: n/2 complex
        // coefficients × 4 multiplications (possibly × retries).
        let n = kp.signing_key().logn().n();
        assert!(obs.boundaries.len() >= n / 2 * 4);
        assert_eq!(obs.boundaries.len() % (n / 2 * 4), 0);
    }

    #[test]
    fn different_salts_give_different_signatures() {
        let kp = test_pair(b"salts", 4);
        let mut rng = Prng::from_seed(b"salts rng");
        let a = kp.signing_key().sign(b"m", &mut rng);
        let b = kp.signing_key().sign(b"m", &mut rng);
        assert_ne!(a.salt(), b.salt());
        assert!(kp.verifying_key().verify(b"m", &a));
        assert!(kp.verifying_key().verify(b"m", &b));
    }
}
