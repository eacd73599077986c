//! The ffLDL* Gram tree and fast Fourier nearest-plane sampling.
//!
//! Key generation decomposes the Gram matrix `G = B̂·B̂*` of the secret
//! basis into a binary tree of LDL* factorisations ([`LdlTree::build`]);
//! each leaf ends up holding a standard deviation `σ/√(leaf value)`
//! (Algorithm 1, lines 5–8 of the paper). Signing then walks the tree
//! with [`ff_sampling`] (Algorithm 2, line 6), drawing each lattice
//! coordinate from [`sampler_z`].

use crate::fft::{
    at, poly_add, poly_merge_fft, poly_mul_fft, poly_muladj_fft, poly_split_fft, poly_sub, set,
    Cplx,
};
use crate::rng::Prng;
use crate::sampler::sampler_z;
use falcon_fpr::Fpr;

/// A node of the ffLDL* tree.
///
/// Inner nodes carry the FFT-domain `L` factor `l10` of their level's 2×2
/// LDL* decomposition; leaves carry the per-coordinate Gaussian standard
/// deviation and its inverse, which the sampler takes.
#[derive(Debug, Clone)]
pub enum LdlTree {
    /// An internal node covering polynomials of `2^logn` coefficients.
    Node {
        /// FFT-domain `l10 = g10/g00` (layout size `2^logn`).
        l10: Vec<Fpr>,
        /// Subtree for the `d00` half.
        left: Box<LdlTree>,
        /// Subtree for the `d11` half.
        right: Box<LdlTree>,
    },
    /// A leaf: the (already normalised) sampling standard deviation.
    Leaf {
        /// `σ/√(diagonal value)`.
        sigma: Fpr,
        /// `1/sigma`, computed once here instead of on every signature.
        isigma: Fpr,
    },
}

impl LdlTree {
    /// Builds the tree from the FFT-domain Gram matrix entries
    /// `(g00, g01, g11)` (each in FALCON layout, size `2^logn`), then
    /// normalises the leaves to `sigma / sqrt(leaf)`.
    pub fn build(g00: &[Fpr], g01: &[Fpr], g11: &[Fpr], sigma: Fpr) -> LdlTree {
        let mut t = Self::build_raw(g00, g01, g11);
        t.normalize(sigma);
        t
    }

    fn build_raw(g00: &[Fpr], g01: &[Fpr], g11: &[Fpr]) -> LdlTree {
        let n = g00.len();
        debug_assert!(n >= 2);
        // LDL*: l10 = adj(g01)/g00, d00 = g00,
        // d11 = g11 − l10·adj(l10)·g00.
        let mut l10 = g01.to_vec();
        let hn = n / 2;
        for j in 0..hn {
            let g0 = at(g00, j);
            // g10 = conj(g01); divide by the (real, positive) g00.
            let inv = g0.re.inv();
            set(&mut l10, j, at(g01, j).conj().scale(inv));
        }
        let mut d11 = g11.to_vec();
        for j in 0..hn {
            let l = at(&l10, j);
            let sub = l.norm_sq() * at(g00, j).re;
            let cur = at(&d11, j);
            set(&mut d11, j, Cplx::new(cur.re - sub, cur.im));
        }
        if n == 2 {
            return LdlTree::Node {
                l10,
                left: Box::new(LdlTree::Leaf { sigma: g00[0], isigma: Fpr::ZERO }),
                right: Box::new(LdlTree::Leaf { sigma: d11[0], isigma: Fpr::ZERO }),
            };
        }
        let mut d00 = vec![Fpr::ZERO; n];
        let (d00_0, d00_1) = d00.split_at_mut(hn);
        poly_split_fft(g00, d00_0, d00_1);
        let mut d11s = vec![Fpr::ZERO; n];
        let (d11_0, d11_1) = d11s.split_at_mut(hn);
        poly_split_fft(&d11, d11_0, d11_1);
        let left = Self::build_raw(d00_0, d00_1, d00_0);
        let right = Self::build_raw(d11_0, d11_1, d11_0);
        LdlTree::Node { l10, left: Box::new(left), right: Box::new(right) }
    }

    /// Replaces each raw leaf value `v` (a Gaussian variance) by the
    /// sampling deviation `sigma/√v` — the paper's Algorithm 1, line 7 —
    /// and caches its inverse.
    fn normalize(&mut self, sigma: Fpr) {
        match self {
            LdlTree::Leaf { sigma: v, isigma } => {
                *v = sigma / v.sqrt();
                *isigma = v.inv();
            }
            LdlTree::Node { left, right, .. } => {
                left.normalize(sigma);
                right.normalize(sigma);
            }
        }
    }

    /// Depth-first iterator over leaf sigmas (diagnostics and tests).
    pub fn leaf_sigmas(&self) -> Vec<Fpr> {
        match self {
            LdlTree::Leaf { sigma, .. } => vec![*sigma],
            LdlTree::Node { left, right, .. } => {
                let mut v = left.leaf_sigmas();
                v.extend(right.leaf_sigmas());
                v
            }
        }
    }
}

/// Fast Fourier sampling (specification Algorithm 11): samples an
/// integral lattice point `(z0, z1)` close to the FFT-domain target
/// `(t0, t1)` of degree `2^logn` under the Gram tree `tree`.
///
/// `ws` is the workspace, at least [`ff_sampling_ws_len`]`(logn)` values:
/// `z0` lands in `ws[..2^logn]` and `z1` in `ws[2^logn..2^(logn+1)]`,
/// and the rest is scratch for the recursion, so one allocation serves
/// a whole signature. `sigma_min` is the parameter set's minimum
/// deviation, forwarded to [`sampler_z`].
pub fn ff_sampling(
    t0: &[Fpr],
    t1: &[Fpr],
    tree: &LdlTree,
    sigma_min: Fpr,
    logn: u32,
    rng: &mut Prng,
    ws: &mut [Fpr],
) {
    let n = 1usize << logn;
    let hn = n / 2;
    let (out, child) = ws.split_at_mut(2 * n);
    let (out0, out1) = out.split_at_mut(n);
    // out0's halves hold each split target until the child has read it.
    let (s0, s1) = out0.split_at_mut(hn);
    if logn == 0 {
        // Base case: the FFT representation of a 1-coefficient polynomial
        // is the coefficient itself; sample both coordinates.
        let LdlTree::Leaf { isigma, .. } = *tree else {
            unreachable!("tree/vector size mismatch");
        };
        let z0 = sampler_z(rng, t0[0], isigma, sigma_min);
        let z1 = sampler_z(rng, t1[0], isigma, sigma_min);
        out0[0] = Fpr::from_i64(z0);
        out1[0] = Fpr::from_i64(z1);
        return;
    }
    let LdlTree::Node { l10, left, right } = tree else {
        unreachable!("tree/vector size mismatch");
    };

    // Second coordinate first, from the right subtree.
    poly_split_fft(t1, s0, s1);
    ff_sampling(s0, s1, right, sigma_min, logn - 1, rng, child);
    poly_merge_fft(&child[..hn], &child[hn..n], out1);

    // t0' = t0 + (t1 − z1)·l10, built where the child's output was.
    let tb = &mut child[..n];
    for (x, &y) in tb.iter_mut().zip(t1) {
        *x = y;
    }
    poly_sub(tb, out1);
    poly_mul_fft(tb, l10);
    poly_add(tb, t0);

    poly_split_fft(tb, s0, s1);
    ff_sampling(s0, s1, left, sigma_min, logn - 1, rng, child);
    poly_merge_fft(&child[..hn], &child[hn..n], out0);
}

/// Workspace length [`ff_sampling`] needs at degree `2^logn`: `2n` for
/// its output and the split halves, plus the child's workspace.
pub fn ff_sampling_ws_len(logn: u32) -> usize {
    4 << logn
}

/// Convenience: FFT-domain Gram matrix of the basis
/// `B̂ = [[b00, b01], [b10, b11]]`, returning `(g00, g01, g11)`.
pub fn gram(b00: &[Fpr], b01: &[Fpr], b10: &[Fpr], b11: &[Fpr]) -> (Vec<Fpr>, Vec<Fpr>, Vec<Fpr>) {
    let n = b00.len();
    let mut g00 = b00.to_vec();
    poly_muladj_fft(&mut g00, b00);
    let mut t = b01.to_vec();
    poly_muladj_fft(&mut t, b01);
    poly_add(&mut g00, &t);

    let mut g01 = b00.to_vec();
    poly_muladj_fft(&mut g01, b10);
    let mut t = b01.to_vec();
    poly_muladj_fft(&mut t, b11);
    poly_add(&mut g01, &t);

    let mut g11 = b10.to_vec();
    poly_muladj_fft(&mut g11, b10);
    let mut t = b11.to_vec();
    poly_muladj_fft(&mut t, b11);
    poly_add(&mut g11, &t);

    debug_assert_eq!(g00.len(), n);
    (g00, g01, g11)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft;

    fn fft_of(ints: &[i64]) -> Vec<Fpr> {
        let mut v: Vec<Fpr> = ints.iter().map(|&c| Fpr::from_i64(c)).collect();
        fft(&mut v);
        v
    }

    #[test]
    fn tree_shape_and_leaf_count() {
        // A well-conditioned basis: diagonal-ish.
        let n = 8usize;
        let b00 = fft_of(&[4, 1, 0, 0, 0, 0, 0, -1]);
        let b01 = fft_of(&[1, 0, 0, 0, 0, 0, 0, 0]);
        let b10 = fft_of(&[0, 1, 0, 0, 0, 0, 0, 0]);
        let b11 = fft_of(&[5, 0, 0, 1, 0, 0, 0, 0]);
        let (g00, g01, g11) = gram(&b00, &b01, &b10, &b11);
        let tree = LdlTree::build(&g00, &g01, &g11, Fpr::from(10.0));
        // A tree over degree n has n leaves.
        let sigmas = tree.leaf_sigmas();
        assert_eq!(sigmas.len(), n);
        for s in sigmas {
            assert!(s.to_f64() > 0.0, "leaf sigma must be positive");
            assert!(s.to_f64().is_finite());
        }
    }

    #[test]
    fn sampling_returns_integer_vectors_near_target() {
        let n = 16usize;
        // Basis roughly c·I: g00 = g11 ≈ c², g01 ≈ 0.
        let mut ints0 = vec![0i64; n];
        ints0[0] = 9;
        let b00 = fft_of(&ints0);
        let b01 = fft_of(&vec![0i64; n]);
        let b10 = fft_of(&vec![0i64; n]);
        let b11 = fft_of(&ints0);
        let (g00, g01, g11) = gram(&b00, &b01, &b10, &b11);
        let sigma = Fpr::from(12.0);
        let tree = LdlTree::build(&g00, &g01, &g11, sigma);

        // Target: integer vector (3, ..., 3)/(1, ..., -2) in FFT domain.
        let t0 = fft_of(&vec![3i64; n]);
        let t1 = fft_of(&{
            let mut v = vec![1i64; n];
            v[1] = -2;
            v
        });
        let mut rng = Prng::from_seed(b"ffsampling");
        let smin = Fpr::from(1.2);
        let mut ws = vec![Fpr::ZERO; ff_sampling_ws_len(4)];
        ff_sampling(&t0, &t1, &tree, smin, 4, &mut rng, &mut ws);
        // z must be FFTs of integer polynomials: invert and check.
        for z in ws[..2 * n].chunks(n) {
            let mut c = z.to_vec();
            crate::fft::ifft(&mut c);
            for x in c {
                let v = x.to_f64();
                assert!((v - v.round()).abs() < 1e-6, "non-integer coordinate {v}");
            }
        }
    }

    #[test]
    fn sampling_distribution_centers_on_target() {
        // With a scaled-identity Gram, z0 should be a Gaussian around t0.
        let n = 4usize;
        let mut ints = vec![0i64; n];
        ints[0] = 8;
        let b00 = fft_of(&ints);
        let zeros = fft_of(&vec![0i64; n]);
        let (g00, g01, g11) = gram(&b00, &zeros, &zeros, &b00);
        let sigma = Fpr::from(12.0);
        let tree = LdlTree::build(&g00, &g01, &g11, sigma);
        let t0 = fft_of(&[5, 0, 0, 0]);
        let t1 = fft_of(&[0, 0, 0, 0]);
        let mut rng = Prng::from_seed(b"center");
        let mut acc = 0f64;
        let trials = 2000;
        let mut ws = vec![Fpr::ZERO; ff_sampling_ws_len(2)];
        for _ in 0..trials {
            ff_sampling(&t0, &t1, &tree, Fpr::from(1.2), 2, &mut rng, &mut ws);
            let mut c = ws[..n].to_vec();
            crate::fft::ifft(&mut c);
            acc += c[0].to_f64().round();
        }
        let mean = acc / trials as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean={mean}");
    }
}
