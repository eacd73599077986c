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
//! The checkpoint test pins the SHAKE256 digests of seeded live and
//! offline campaign checkpoints (mid-run and final). The live format
//! embeds every target's accumulated traces, so the digests move on any
//! change to the trace store, the dataset writer or the convergence
//! trackers.
//!
//! The kernel selection is process-global; the attack test sweeps it,
//! and the checkpoint test reads whichever kernel is active, which is
//! harmless because the kernels are bit-identical.

use falcon_dema::acquire::Dataset;
use falcon_dema::attack::{
    recover_coefficient, recover_mantissa_half_monolithic, AttackConfig, ComponentResult,
};
use falcon_dema::cpa::simd::{self, KernelChoice};
use falcon_dema::model::SecretHalf;
use falcon_dema::source::ColumnSource;
use falcon_dema::{Campaign, CampaignConfig, OfflineCampaign};
use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
use falcon_sig::rng::Prng;
use falcon_sig::shake::Shake256;
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

/// Hex SHAKE256-256 digest of `bytes`.
fn digest(bytes: &[u8]) -> String {
    let mut out = [0u8; 32];
    Shake256::digest(bytes, &mut out);
    out.iter().map(|b| format!("{b:02x}")).collect()
}

/// A seeded FALCON-8 victim at Gaussian noise `sigma`.
fn victim(sigma: f64, seed: &[u8]) -> Device {
    let mut rng = Prng::from_seed(seed);
    let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, sigma),
        lowpass: 0.0,
        scope: Scope { enabled: false, ..Default::default() },
        ..Default::default()
    };
    Device::new(kp.into_parts().0, chain, b"pinned checkpoint bench")
}

/// Digests of a live campaign's checkpoint after two batches and at the
/// end, then of an offline replay's checkpoint after three batches and
/// at the end. The batch size (37) is odd so prefixes never align with
/// any power of two.
fn checkpoint_digests() -> [String; 4] {
    let cfg = CampaignConfig { batch_size: 37, max_traces: 2000, ..Default::default() };
    let mut device = victim(3.0, b"pinned live key");
    let mut msgs = Prng::from_seed(b"pinned live msgs");
    let mut live = Campaign::new(8, cfg.clone()).unwrap();
    let ckpt = |c: &Campaign, d: &Device, m: &Prng| {
        let mut buf = Vec::new();
        c.write_checkpoint(d, m, &mut buf).unwrap();
        buf
    };
    for _ in 0..2 {
        assert!(live.step(&mut device, &mut msgs).unwrap());
    }
    let live_mid = ckpt(&live, &device, &msgs);
    let report = live.run(&mut device, &mut msgs).unwrap();
    assert!(report.is_complete() && report.traces_requested > 2 * 37, "{report:?}");
    let live_end = ckpt(&live, &device, &msgs);
    // A campaign resumed from the mid-run checkpoint ends on the same bytes.
    let (mut device, mut msgs) = (victim(3.0, b"pinned live key"), Prng::from_seed(b"rewound"));
    let mut resumed = Campaign::resume(cfg.clone(), &mut device, &mut msgs, &live_mid[..]).unwrap();
    resumed.run(&mut device, &mut msgs).unwrap();
    assert_eq!(ckpt(&resumed, &device, &msgs), live_end, "resumed live checkpoint");

    let mut device = victim(3.0, b"pinned offline key");
    let targets: Vec<usize> = (0..8).collect();
    let mut msgs = Prng::from_seed(b"pinned offline msgs");
    let ds = Dataset::collect(&mut device, &targets, 400, &mut msgs);
    let mut offline = OfflineCampaign::new(&ds, cfg).unwrap();
    let ockpt = |c: &OfflineCampaign| {
        let mut buf = Vec::new();
        c.write_checkpoint(&mut buf).unwrap();
        digest(&buf)
    };
    for _ in 0..3 {
        assert!(offline.step(&ds).unwrap());
    }
    let offline_mid = ockpt(&offline);
    assert!(offline.run(&ds).unwrap().is_complete());
    [digest(&live_mid), digest(&live_end), offline_mid, ockpt(&offline)]
}

/// The digests of [`checkpoint_digests`], recorded with the
/// per-batch-copy campaign engines that predate the trace store.
const PINNED_CHECKPOINTS: [&str; 4] = [
    "10ce9077e97f68f14c3c287b72b746569fedc723fa59f4f031a8555593c60424",
    "68ba5fe7460e8fb95811ae8fa90808dabbba34b9afc41599b31027a87bab7985",
    "30cd5bb1ec15e932c39177b7ba635995cc07981f1acec44354b471ae7811c2bc",
    "cb5b53eee4d0aba7801478d033397ee6e9be663bce342bc4aa7bea3fef344f29",
];

#[test]
fn seeded_checkpoint_bytes_are_pinned() {
    assert_eq!(checkpoint_digests(), PINNED_CHECKPOINTS.map(String::from));
}
