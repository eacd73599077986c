//! Pinned attack outputs: a seeded `recover_coefficient` and a seeded
//! monolithic window must return these exact `CoefficientResult` /
//! `ComponentResult` bits — value, correlation and runner-up of every
//! component, the floats compared with `f64::to_bits` — under both the
//! scalar and the auto-detected Pearson kernel.
//!
//! The expected values were recorded before the fused partial-product
//! extend kernel replaced the two-step hypothesis-column path, so this
//! suite is the whole-coefficient check that the kernel (and any later
//! change to it) moves no output bit. `kernel_differential.rs` checks the
//! kernel itself against the two-step reference column by column.
//!
//! Kept as a single `#[test]` in its own integration binary: the kernel
//! selection is process-global.

use falcon_dema::acquire::Dataset;
use falcon_dema::attack::{
    recover_coefficient, recover_mantissa_half_monolithic, AttackConfig, ComponentResult,
};
use falcon_dema::cpa::simd::{self, KernelChoice};
use falcon_dema::model::SecretHalf;
use falcon_dema::source::ColumnSource;
use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
use falcon_sig::rng::Prng;
use falcon_sig::{KeyPair, LogN};

/// A seeded FALCON-8 capture of `targets` at Gaussian noise `sigma`,
/// with the victim's true `FFT(f)` bits.
fn capture(sigma: f64, targets: &[usize], traces: usize, seed: &[u8]) -> (Dataset, Vec<u64>) {
    let mut rng = Prng::from_seed(seed);
    let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, sigma),
        lowpass: 0.0,
        scope: Scope { enabled: false, ..Default::default() },
        ..Default::default()
    };
    let mut device = Device::new(kp.into_parts().0, chain, seed);
    let truth = device.signing_key().f_fft().iter().map(|v| v.to_bits()).collect();
    let ds = Dataset::collect(&mut device, targets, traces, &mut Prng::from_seed(b"pinned msgs"));
    (ds, truth)
}

/// `[value, corr bits, runner_up bits]` of one component.
fn pin(c: ComponentResult) -> [u64; 3] {
    [c.value, c.corr.to_bits(), c.runner_up.to_bits()]
}

/// Every output of the seeded attacks: per coefficient its bits and the
/// sign, exponent, low and high mantissa components; then the two
/// halves of the monolithic window.
fn outputs() -> Vec<(u64, Vec<[u64; 3]>)> {
    let (ds, _) = capture(8.6, &[0, 3, 6], 250, b"pinned coefficient");
    let mut out: Vec<(u64, Vec<[u64; 3]>)> = ds
        .targets()
        .iter()
        .map(|&t| {
            let r = recover_coefficient(&ds, t, &AttackConfig::default());
            (r.bits, vec![pin(r.sign), pin(r.exponent), pin(r.mant_lo), pin(r.mant_hi)])
        })
        .collect();
    // The window attacks the low 10 bits of each half, the rest taken
    // from the key; the high half's window leaves bit 27 in `rest`.
    let (ds, truth) = capture(2.0, &[5], 300, b"pinned window");
    let block = ds.target_block(5).expect("resident block");
    let m = (truth[5] & ((1 << 52) - 1)) | 1 << 52;
    let (d_lo, c_hi) = (m & 0x1FF_FFFF, m >> 25);
    let width = 10;
    let lo =
        recover_mantissa_half_monolithic(&block, SecretHalf::Low, None, width, d_lo >> width, 24);
    let hi = recover_mantissa_half_monolithic(
        &block,
        SecretHalf::High,
        Some(d_lo),
        width,
        c_hi >> width,
        24,
    );
    assert_eq!((lo.value, hi.value), (d_lo, c_hi), "the window must recover both true halves");
    out.push((width as u64, vec![pin(lo), pin(hi)]));
    out
}

/// The outputs of [`outputs`], recorded with the two-step extend path.
const PINNED: &[(u64, &[[u64; 3]])] = &[
    (
        0x402a_9c6b_de62_4bfc,
        &[
            [0x0, 0x3feb_d149_80b9_b5bf, 0x3feb_d136_ea06_2d4a],
            [0x402, 0x3feb_d149_80b9_b5bf, 0x3feb_d136_ea06_2d4a],
            [0x62_4bfc, 0x3fe6_8351_c48d_2847, 0x3fe5_9c5e_2680_0fe2],
            [0xd4e_35ef, 0x3fd7_b162_7d2a_c2d4, 0x3fbe_4b06_3aee_3482],
        ],
    ),
    (
        0x4000_75be_d556_5f3a,
        &[
            [0x0, 0x3feb_d4e6_2c19_dcc4, 0x3feb_d4d0_e9ee_c300],
            [0x400, 0x3feb_d4e6_2c19_dcc4, 0x3feb_d4d0_e9ee_c300],
            [0x156_5f3a, 0x3fe5_f71d_427e_1105, 0x3fe4_e92b_2e5e_a22b],
            [0x83a_df6a, 0x3fd6_0b52_df80_757c, 0x3fc0_40cf_56f8_0b10],
        ],
    ),
    (
        0xc1b2_563f_9c60_18d6,
        &[
            [0x1, 0x3feb_9212_241d_b05e, 0x3feb_9125_13d1_5512],
            [0x41b, 0x3feb_9212_241d_b05e, 0x3feb_9125_13d1_5512],
            [0x60_18d6, 0x3fe6_6183_8d42_222c, 0x3fe5_6c7a_f3db_5baf],
            [0x92b_1fce, 0x3fdb_3bc9_d4b1_3ce6, 0x3fb8_fe9a_05ab_cc3a],
        ],
    ),
    (
        0xa,
        &[
            [0x15a_e989, 0x3fe7_fc2a_5b4e_3431, 0x3fbc_deb4_4527_350c],
            [0x986_7568, 0x3feb_fe51_6406_b7a4, 0x3fd7_646a_9e35_ca47],
        ],
    ),
];

#[test]
fn seeded_attack_outputs_are_pinned() {
    let want: Vec<(u64, Vec<[u64; 3]>)> =
        PINNED.iter().map(|&(bits, comps)| (bits, comps.to_vec())).collect();
    for choice in [KernelChoice::Scalar, KernelChoice::Auto] {
        simd::set_kernel(Some(choice));
        let got = outputs();
        simd::set_kernel(None);
        assert_eq!(got, want, "attack outputs moved under the {choice:?} kernel");
    }
}
