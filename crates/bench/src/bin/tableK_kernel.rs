//! B-KERN — SIMD Pearson kernel and monolithic-mode benchmark.
//!
//! Two layers of measurement behind one table:
//!
//! 1. **Tile microbench** — the innermost `PearsonSums` column fold on
//!    a fixed synthetic workload. The before is a bench-local copy of
//!    the original scalar five-sum fold, so the baseline stays the same
//!    code; the after is `PearsonSums::push_column` with reused sample
//!    sums under the auto-detected kernel. The legs run in turn
//!    `TILE_REPS` (5) times and each reports its median. The acceptance
//!    criterion lives here: on an AVX2 host the after's median must
//!    clear **2× correlations/sec** over the before's; without SIMD a
//!    third leg pins the after to the scalar kernel, and auto must
//!    match it.
//! 2. **Fused extend** — the extend step's partial-product scoring
//!    (`cpa::push_product_column`, hypotheses computed in registers,
//!    [`GUESS_BLOCK`] guesses per pass) over four product columns,
//!    in guesses/sec under the scalar and the auto kernel, next to the
//!    two-step path it replaced (`hyp_partial_product` into a column,
//!    then `push_column`). All three are asserted bit-identical.
//! 3. **Monolithic mode** — the paper's one-shot enumeration as a real
//!    recovery: a windowed `recover_mantissa_half_monolithic` against a
//!    seeded FALCON-8 victim under both kernels (correctness asserted
//!    against the ground-truth key), reporting measured guesses/sec and
//!    the projected wall time of the full 2^25 / 2^27 runs. With
//!    `full=1` the projection is replaced by the real 2^25 low-half
//!    enumeration.
//!
//! The JSON report carries the git `rev` and the `host` it ran on.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin tableK_kernel \
//!     [out=BENCH_kernel.json] [points=2400] [traces=400] [noise=1.0] \
//!     [width=14] [full=0]
//! ```

use falcon_bench::json::Json;
use falcon_bench::report::{arg_or, git_rev, host, print_table, reject_unread_args};
use falcon_bench::setup::victim;
use falcon_dema::acquire::Dataset;
use falcon_dema::cpa::simd::{self, KernelChoice, GUESS_BLOCK, TILE_LANES};
use falcon_dema::cpa::{push_product_column, PearsonSums, SampleSums};
use falcon_dema::model::{hyp_partial_product, product_mask, KnownOperand, SecretHalf};
use falcon_dema::recover_mantissa_half_monolithic;
use falcon_dema::source::{ColumnSource, TargetBlock};
use falcon_emsim::StepKind;
use falcon_obs as obs;
use std::hint::black_box;
use std::time::Instant;

/// Alternating repetitions of the tile legs; each leg reports its median.
const TILE_REPS: usize = 5;

/// The original scalar tile fold, the fixed baseline of the tile
/// microbench: the lanes of [`five_sum_lanes`] folded in index order,
/// then the tail, with no sample sums reused.
fn five_sum_fold(hyps: &[f64], samples: &[f32]) -> [f64; 5] {
    let lanes = five_sum_lanes(hyps, samples);
    // ct: allow(pinned fold kernel: sequential in-order lane sum)
    let mut s = lanes.map(|l| l.iter().fold(0.0, |acc, v| acc + v));
    let n = hyps.len() - hyps.len() % TILE_LANES;
    for (&h, &t) in hyps[n..].iter().zip(&samples[n..]) {
        let t = t as f64;
        for (s, v) in s.iter_mut().zip([h, h * h, t, t * t, h * t]) {
            *s += v;
        }
    }
    s
}

/// The original scalar tile: Σh, Σh², Σt, Σt² and Σht of the aligned
/// prefix in [`TILE_LANES`] lanes. Out of line, as it was: compiled
/// into its caller it runs about twice as slow, which would flatter
/// the after.
#[inline(never)]
fn five_sum_lanes(hyps: &[f64], samples: &[f32]) -> [[f64; TILE_LANES]; 5] {
    let mut l = [[0f64; TILE_LANES]; 5];
    for (hh, ss) in hyps.chunks_exact(TILE_LANES).zip(samples.chunks_exact(TILE_LANES)) {
        for j in 0..TILE_LANES {
            let h = hh[j];
            let t = ss[j] as f64;
            l[0][j] += h;
            l[1][j] += h * h;
            l[2][j] += t;
            l[3][j] += t * t;
            l[4][j] += h * t;
        }
    }
    l
}

/// Runs `pass` (one sweep over `work` items) until the clock is
/// trustworthy; returns items per second.
fn per_sec(work: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            pass();
        }
        let secs = t0.elapsed().as_secs_f64();
        if secs > 0.25 {
            return (iters * work as u64) as f64 / secs;
        }
        iters *= 4;
    }
}

/// One candidate's worth of tile work: fold a `points`-long column pair
/// (and read the correlation). Returns correlations (column folds) per
/// second, through the bench-local five-sum fold when `choice` is
/// `None`, else through `push_column` under that kernel policy.
fn tile_corr_per_sec(choice: Option<KernelChoice>, h: &[f64], t: &[f32]) -> f64 {
    simd::set_kernel(choice);
    let sums = SampleSums::new(t);
    let cps = per_sec(1, || {
        let (h, t) = (black_box(h), black_box(t));
        let mut acc = PearsonSums::default();
        match choice {
            None => _ = black_box(five_sum_fold(h, t)),
            Some(_) => acc.push_column(h, t, &sums),
        }
        black_box(acc.corr());
    });
    simd::set_kernel(None);
    cps
}

/// The extend scoring of every guess over `cols` at the full product
/// width: `(guesses/sec, accumulator bits per guess)`, through the fused
/// kernel under `choice`, or through the two-step hypothesis column
/// when `choice` is `None`.
fn extend_leg(
    choice: Option<KernelChoice>,
    cols: &[(Vec<u32>, Vec<f32>)],
    guesses: &[[u64; GUESS_BLOCK]],
) -> (f64, Vec<[u64; 6]>) {
    const WIDTH: u32 = 25;
    simd::set_kernel(Some(choice.unwrap_or(KernelChoice::Auto)));
    let sums: Vec<SampleSums> = cols.iter().map(|(_, t)| SampleSums::new(t)).collect();
    let mask = product_mask(WIDTH, WIDTH);
    let mut hyps = Vec::new();
    let mut score = |g: [u64; GUESS_BLOCK]| {
        let mut accs = [PearsonSums::default(); GUESS_BLOCK];
        for ((k, t), ss) in cols.iter().zip(&sums) {
            if choice.is_some() {
                push_product_column(&mut accs, g, mask, k, t, ss);
                continue;
            }
            for (acc, &gq) in accs.iter_mut().zip(&g) {
                hyps.clear();
                hyps.extend(k.iter().map(|&kv| hyp_partial_product(gq, WIDTH, kv, WIDTH)));
                acc.push_column(&hyps, t, ss);
            }
        }
        accs
    };
    let bits: Vec<[u64; 6]> =
        guesses.iter().flat_map(|&g| score(g)).map(|a| a.components().map(f64::to_bits)).collect();
    let gps = per_sec(guesses.len() * GUESS_BLOCK, || {
        for &g in guesses {
            black_box(score(black_box(g)).map(|a| a.corr()));
        }
    });
    simd::set_kernel(None);
    (gps, bits)
}

/// Windowed monolithic recovery of the low half `d_lo` under one
/// kernel, asserted exact: returns guesses/sec.
fn monolithic_leg(
    choice: KernelChoice,
    block: &TargetBlock<'_>,
    width: u32,
    d_lo: u64,
    c_hi: u64,
) -> f64 {
    simd::set_kernel(Some(choice));
    let rest = d_lo >> width;
    let before = obs::metrics().snapshot();
    let t0 = Instant::now();
    let r = recover_mantissa_half_monolithic(block, SecretHalf::Low, Some(c_hi), width, rest, 64);
    let secs = t0.elapsed().as_secs_f64();
    let after = obs::metrics().snapshot();
    simd::set_kernel(None);
    assert_eq!(r.value, d_lo, "{choice:?} monolithic window must recover the true low half");
    let guesses = after.counter_delta(&before, "attack.correlations");
    guesses as f64 / secs.max(1e-12)
}

fn main() {
    let out: String = arg_or("out", "BENCH_kernel.json".to_string());
    let points: usize = arg_or("points", 2400);
    let traces: usize = arg_or("traces", 400);
    let noise: f64 = arg_or("noise", 1.0);
    let width: u32 = arg_or("width", 14);
    let full: u64 = arg_or("full", 0);
    reject_unread_args();
    println!("rev {}, host {}", git_rev(), host());

    let simd_host = simd::simd_available();
    simd::set_kernel(Some(KernelChoice::Auto));
    let auto_kernel = simd::active_kernel().name();
    simd::set_kernel(None);

    // ---- 1. tile microbench -------------------------------------------------
    // A representative extend-candidate workload: Hamming-weight-like
    // hypotheses against near-zero-mean samples.
    let h: Vec<f64> = (0..points).map(|i| ((i.wrapping_mul(2654435761)) % 105) as f64).collect();
    let t: Vec<f32> =
        (0..points).map(|i| ((i.wrapping_mul(40503) + 7) % 89) as f32 / 4.0 - 11.0).collect();
    let mut legs = vec![("before_five_sum", None), ("after_push_column", Some(KernelChoice::Auto))];
    if !simd_host {
        // The gate without SIMD: auto must run at the scalar kernel's speed.
        legs.push(("after_scalar_kernel", Some(KernelChoice::Scalar)));
    }
    // Every leg runs once per repetition, in turn, and reports its
    // median: one slow timing on a shared host cannot swing the ratio.
    let mut runs = vec![Vec::new(); legs.len()];
    for _ in 0..TILE_REPS {
        for (run, &(_, choice)) in runs.iter_mut().zip(&legs) {
            run.push(tile_corr_per_sec(choice, &h, &t));
        }
    }
    let tile: Vec<(&str, f64)> = legs
        .iter()
        .zip(runs)
        .map(|(&(name, ..), mut run)| {
            run.sort_by(f64::total_cmp);
            (name, run[TILE_REPS / 2])
        })
        .collect();
    let before_cps = tile[0].1;
    let after_cps = tile[1].1;
    let speedup = after_cps / before_cps;

    // ---- 2. fused extend -----------------------------------------------------
    // The four product columns of a real capture's low half (the extend
    // step's input), and a 4096-guess window of the 25-bit half.
    let (mut device, _vk, truth) = victim(3, noise, "kernel bench");
    let mut msgs = falcon_sig::rng::Prng::from_seed(b"kernel bench msgs");
    let ds = Dataset::collect(&mut device, &[0], traces, &mut msgs);
    let block = ds.target_block(0).expect("resident block");
    let cols: Vec<(Vec<u32>, Vec<f32>)> = (0..2)
        .flat_map(|occ| {
            let knowns: Vec<_> =
                block.known_column(occ).iter().map(|&k| KnownOperand::new(k)).collect();
            [(StepKind::PpLoLo, true), (StepKind::PpLoHi, false)].map(|(step, lo)| {
                let k = knowns.iter().map(|k| if lo { k.lo } else { k.hi }).collect();
                (k, block.sample_column(occ, step).to_vec())
            })
        })
        .collect();
    let guesses: Vec<[u64; GUESS_BLOCK]> = (0..4096u64)
        .step_by(GUESS_BLOCK)
        .map(|g| std::array::from_fn(|q| 0x155_5000 | (g + q as u64)))
        .collect();
    let (two_step_gps, two_step_bits) = extend_leg(None, &cols, &guesses);
    let (fused_scalar_gps, fused_scalar_bits) =
        extend_leg(Some(KernelChoice::Scalar), &cols, &guesses);
    let (fused_auto_gps, fused_auto_bits) = extend_leg(Some(KernelChoice::Auto), &cols, &guesses);
    assert!(
        fused_scalar_bits == two_step_bits && fused_auto_bits == two_step_bits,
        "the fused extend kernels must be bit-identical to the two-step path"
    );
    let fused_speedup = fused_auto_gps / two_step_gps;

    // ---- 3. monolithic mode -------------------------------------------------
    let m = falcon_fpr::Fpr::from_bits(truth[0]).mantissa_bits() | (1 << 52);
    let (d_lo, c_hi) = (m & 0x1FF_FFFF, m >> 25);

    let scalar_gps = monolithic_leg(KernelChoice::Scalar, &block, width, d_lo, c_hi);
    let auto_gps = monolithic_leg(KernelChoice::Auto, &block, width, d_lo, c_hi);
    let proj_25 = (1u64 << 25) as f64 / auto_gps;
    let proj_27 = (1u64 << 27) as f64 / auto_gps;

    // Optionally run the real 2^25 low-half enumeration end to end.
    let full_run = (full != 0).then(|| {
        simd::set_kernel(Some(KernelChoice::Auto));
        let t0 = Instant::now();
        let r = recover_mantissa_half_monolithic(&block, SecretHalf::Low, Some(c_hi), 25, 0, 64);
        let secs = t0.elapsed().as_secs_f64();
        simd::set_kernel(None);
        assert_eq!(r.value, d_lo, "full 2^25 monolithic run must recover the true low half");
        (secs, (1u64 << 25) as f64 / secs)
    });

    // ---- report -------------------------------------------------------------
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |layer: &str, config: &str, value: String| {
        rows.push(vec![layer.into(), config.into(), value]);
    };
    for &(name, cps) in &tile {
        row("tile", name, format!("{cps:.0} corr/s ({points} pts, median of {TILE_REPS})"));
    }
    row("tile", "speedup (after/before)", format!("{speedup:.2}×"));
    for (name, gps) in [
        ("two-step (auto tile)", two_step_gps),
        ("fused, scalar", fused_scalar_gps),
        (&format!("fused, {auto_kernel}"), fused_auto_gps),
    ] {
        row("extend", name, format!("{gps:.0} guesses/s (4 × {traces} pts)"));
    }
    row("extend", "fused auto / two-step", format!("{fused_speedup:.2}× (bit-identical)"));
    row("monolithic", &format!("scalar, 2^{width} window"), format!("{scalar_gps:.0} guesses/s"));
    row(
        "monolithic",
        &format!("{auto_kernel}, 2^{width} window"),
        format!("{auto_gps:.0} guesses/s"),
    );
    row("monolithic", "projected full 2^25 / 2^27", format!("{proj_25:.1} s / {proj_27:.1} s"));
    if let Some((secs, gps)) = full_run {
        row("monolithic", "measured full 2^25", format!("{secs:.1} s ({gps:.0} guesses/s)"));
    }
    row("host", "auto kernel", format!("{auto_kernel} (simd available: {simd_host})"));
    print_table("B-KERN: SIMD Pearson kernel", &["layer", "configuration", "value"], &rows);

    let doc = Json::obj()
        .field("bench", "tableK_kernel")
        .field("rev", git_rev())
        .field("host", host())
        .field("executor_threads", falcon_dema::exec::threads())
        .field("simd_available", simd_host)
        .field("auto_kernel", auto_kernel)
        .field("tile_points", points)
        .field("tile_reps", TILE_REPS)
        .field(
            "tile",
            tile.iter()
                .fold(Json::obj(), |j, &(name, cps)| j.field(name, cps))
                .field("speedup_after_over_before", speedup),
        )
        .field(
            "extend",
            Json::obj()
                .field("columns", cols.len())
                .field("traces", traces)
                .field("guesses", guesses.len() * GUESS_BLOCK)
                .field("two_step_guesses_per_sec", two_step_gps)
                .field("fused_scalar_guesses_per_sec", fused_scalar_gps)
                .field("fused_auto_guesses_per_sec", fused_auto_gps)
                .field("fused_auto_over_two_step", fused_speedup)
                .field("bit_identical", true),
        )
        .field(
            "monolithic",
            Json::obj()
                .field("window_bits", width)
                .field("traces", traces)
                .field("noise_sigma", noise)
                .field("scalar_guesses_per_sec", scalar_gps)
                .field("auto_guesses_per_sec", auto_gps)
                .field("projected_full_2pow25_secs", proj_25)
                .field("projected_full_2pow27_secs", proj_27)
                .field("full_2pow25_measured_secs", full_run.map(|(s, _)| s).unwrap_or(-1.0))
                .field("recovered_low_half_exact", true),
        );
    std::fs::write(&out, doc.render()).expect("write BENCH_kernel.json");
    println!("\nwrote {out}");

    // Acceptance: ≥2× on a SIMD host; documented scalar parity otherwise.
    if simd_host {
        assert!(
            speedup >= 2.0,
            "SIMD host must clear 2× over the five-sum scalar tile, measured {speedup:.2}×"
        );
        println!("acceptance: {speedup:.2}× ≥ 2× over the five-sum scalar tile ({auto_kernel})");
    } else {
        let parity = after_cps / tile[2].1;
        assert!(
            (0.8..1.25).contains(&parity),
            "non-SIMD host: auto must match the scalar tile, measured {parity:.2}×"
        );
        println!(
            "acceptance: host lacks AVX2 — auto falls back to scalar (parity {parity:.2}×); \
             differential suite proves bit-identity"
        );
    }
}
