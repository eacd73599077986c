//! Closed-loop validation of the static leakage-site map: the ranking
//! produced by `falcon-ct`'s sites pass must agree with what the attack
//! stack can actually exploit.
//!
//! Three claims, checked end to end on a seeded FALCON-8 campaign:
//!
//! 1. The #1-ranked static site is the secret-mantissa partial-product
//!    multiply inside `Fpr::mul_observed` — the operation the DAC'21
//!    CPA keys on — and every `ct_dyn` primitive has a statically
//!    predicted site (the map is a superset of the dynamic checker).
//! 2. A CPA pointed at the top-ranked site's recorded step recovers the
//!    signing key outright (full extend-and-prune pipeline → forgery).
//! 3. The *same trace budget* spent at a site the map ranks at the
//!    bottom (the 1-bit `SignXor` word) cannot distinguish the secret:
//!    the ranking is not just ordering noise, it predicts exploitability.

use falcon_down::ct::dyncheck::PRIMITIVE_FNS;
use falcon_down::ct::sites::covers_primitive;
use falcon_down::ct::{CallGraph, SiteKind, SiteMap, TaintMap};
use falcon_down::dema::attack::{recover_all_verified, AttackConfig};
use falcon_down::dema::model::{hyp_exact, KnownOperand};
use falcon_down::dema::recover::key_from_fft_bits;
use falcon_down::dema::{ColumnSource, Dataset};
use falcon_down::emsim::{Device, LeakageModel, MeasurementChain, Scope, StepKind};
use falcon_down::sig::rng::Prng;
use falcon_down::sig::{KeyPair, LogN};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn static_site_map() -> SiteMap {
    let graph = CallGraph::build(workspace_root()).expect("build call graph");
    let taint = TaintMap::compute(&graph);
    SiteMap::compute(&graph, &taint)
}

/// Claim 1: the static map points at the paper's attack surface.
#[test]
fn static_map_predicts_the_attack_point_and_covers_ct_dyn() {
    let graph = CallGraph::build(workspace_root()).expect("build call graph");
    let taint = TaintMap::compute(&graph);
    let map = SiteMap::compute(&graph, &taint);

    let top = map.top().expect("workspace has leakage sites");
    assert_eq!(
        top.kind,
        SiteKind::MantissaMul,
        "top site is [{}], not the mantissa multiply",
        top.kind
    );
    assert_eq!(top.file, "crates/fpr/src/mul.rs");
    assert!(top.qual.contains("mul_observed"), "top site in {}", top.qual);
    assert!(top.step.is_some(), "mantissa site must carry its recorded observer step");

    let missing: Vec<&str> = PRIMITIVE_FNS
        .iter()
        .filter(|(_, fns)| !covers_primitive(&graph, &taint, fns))
        .map(|(name, _)| *name)
        .collect();
    assert!(missing.is_empty(), "ct_dyn primitives outside the static map: {missing:?}");
}

fn collect_falcon8(noise: f64, traces: usize) -> (Dataset, Vec<u64>, KeyPair) {
    let params = LogN::new(3).unwrap(); // FALCON-8
    let n = params.n();
    let mut rng = Prng::from_seed(b"ct closed loop key");
    let kp = KeyPair::generate(params, &mut rng);
    let truth: Vec<u64> = kp.signing_key().f_fft().iter().map(|x| x.to_bits()).collect();
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, noise),
        lowpass: 0.0,
        scope: Scope::default(),
        ..Default::default()
    };
    let kp_clone = kp.clone();
    let mut device = Device::new(kp.into_parts().0, chain, b"ct closed loop");
    let targets: Vec<usize> = (0..n).collect();
    let mut msgs = Prng::from_seed(b"ct closed loop msgs");
    let ds = Dataset::collect(&mut device, &targets, traces, &mut msgs);
    (ds, truth, kp_clone)
}

/// Claim 2: a CPA at the predicted site recovers the key.
#[test]
fn cpa_at_the_top_ranked_site_recovers_the_key() {
    let map = static_site_map();
    let top = map.top().expect("sites exist");
    // The attack below correlates against exactly the micro-op family
    // the static map put on top: the partial-product multiplies.
    assert_eq!(top.kind, SiteKind::MantissaMul);

    let (ds, truth, kp) = collect_falcon8(1.0, 300);
    let results = recover_all_verified(&ds, &AttackConfig::default());
    let correct = results.iter().zip(&truth).filter(|((r, _), &w)| r.bits == w).count();
    assert_eq!(correct, truth.len(), "all FFT(f) coefficients must be recovered");

    let bits: Vec<u64> = results.iter().map(|(r, _)| r.bits).collect();
    let vk = kp.verifying_key().clone();
    let rec = key_from_fft_bits(&bits, &vk).expect("key recovery from site-predicted CPA");
    assert_eq!(rec.sk.f(), kp.signing_key().f(), "recovered f must equal the victim's");
    let mut rng = Prng::from_seed(b"ct closed loop forge");
    let forged = rec.sk.sign(b"forged via the predicted site", &mut rng);
    assert!(vk.verify(b"forged via the predicted site", &forged));
}

fn pearson(xs: &[f64], ys: &[f32]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().map(|&y| y as f64).sum::<f64>() / n;
    let (mut num, mut dx, mut dy) = (0.0, 0.0, 0.0);
    for (&x, &y) in xs.iter().zip(ys) {
        let (a, b) = (x - mx, y as f64 - my);
        num += a * b;
        dx += a * a;
        dy += b * b;
    }
    if dx == 0.0 || dy == 0.0 {
        0.0
    } else {
        num / (dx * dy).sqrt()
    }
}

/// How many targets a single-step CPA distinguishes: for each target,
/// correlate the exact hypothesis of the true secret and of 15 decoys
/// against the measured column at `step`; the target counts as won only
/// if the truth *strictly* out-correlates every decoy.
fn targets_won_at(ds: &Dataset, truth: &[u64], step: StepKind) -> usize {
    let mut won = 0;
    for (t, &secret) in truth.iter().enumerate() {
        let block = ds.target_block(t).unwrap();
        let knowns: Vec<KnownOperand> =
            block.known_column(0).iter().map(|&k| KnownOperand::new(k)).collect();
        let samples = block.sample_column(0, step);
        let corr_of = |guess: u64| {
            let hyp: Vec<f64> = knowns.iter().map(|k| hyp_exact(guess, k, step)).collect();
            pearson(&hyp, samples).abs()
        };
        let truth_corr = corr_of(secret);
        // Decoys: the true bits with high-mantissa perturbations (bits
        // 30..34 sit in the `A`/`C` half every partial product except
        // LoLo consumes) — the hypotheses a pruning attack must reject.
        let beaten = (1..=15u64).all(|d| corr_of(secret ^ (d << 30)) < truth_corr);
        if beaten {
            won += 1;
        }
    }
    won
}

/// Claim 3: the same budget at a bottom-ranked site does not
/// distinguish the secret.
#[test]
fn matched_budget_at_an_unpredicted_site_fails() {
    let map = static_site_map();
    let top = map.top().expect("sites exist");
    let top_step = top.step.expect("mantissa site carries a step");

    let (ds, truth, _) = collect_falcon8(1.0, 300);

    // At the predicted site the truth strictly beats every decoy for
    // every coefficient…
    let won_predicted = targets_won_at(&ds, &truth, top_step);
    assert_eq!(
        won_predicted,
        truth.len(),
        "CPA at the top-ranked step {top_step:?} should distinguish every coefficient"
    );

    // …while the 1-bit SignXor word — which the site model scores at
    // the very bottom of the amplitude classes — cannot separate
    // mantissa guesses at all: most decoys produce the *identical*
    // hypothesis vector, so the strict win rate collapses.
    let won_unpredicted = targets_won_at(&ds, &truth, StepKind::SignXor);
    assert!(
        won_unpredicted <= truth.len() / 4,
        "a 1-bit site should not distinguish mantissa guesses, yet won \
         {won_unpredicted}/{} targets",
        truth.len()
    );

    // The ranking itself encodes this: every mantissa-multiply site
    // scores above any branch/timing site.
    let worst_mantissa = map
        .sites
        .iter()
        .filter(|s| s.kind == SiteKind::MantissaMul)
        .map(|s| s.score)
        .min()
        .unwrap();
    let best_branch =
        map.sites.iter().filter(|s| s.kind == SiteKind::Branch).map(|s| s.score).max().unwrap();
    assert!(worst_mantissa > best_branch);
}
