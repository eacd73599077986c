//! The column-lending contract of the data plane, and the one type
//! that owns trace columns.
//!
//! Every analysis stage in this crate — the CPA kernels, the
//! extend-and-prune attack, campaign convergence, the NTT attack —
//! consumes traces **column-wise**: one known-operand column and a
//! handful of sample columns per target, each `traces` long. Nothing
//! downstream needs the whole dataset at once; it needs *one target's
//! columns at a time*.
//!
//! [`ColumnSource`] names that contract. A source hands out
//! [`TargetBlock`]s — the complete column set of a single target — and
//! implementations are free to lend borrowed slices (the resident
//! [`Dataset`], a campaign's trace store) or to materialise the block
//! from disk on demand (the out-of-core
//! [`StreamedDataset`](crate::stream::StreamedDataset)). Because the
//! attack layers consume whole columns in a fixed order, any source
//! that returns byte-identical blocks yields bit-identical results —
//! the determinism suite pins exactly this.
//!
//! # One owner of the columns
//!
//! A `TraceStore` holds one target's `[occ][trace]` known and
//! `[occ][step][trace]` sample columns. It is the only type that owns
//! trace columns and the only place that knows their index
//! arithmetic: a [`Dataset`] is one store per target, the campaign
//! engines keep one append-only store per target, captures and
//! imported archives are transposed from rows straight into stores
//! (`scatter_rows`), and `io::read_dataset` reads each target's column
//! ranges into its store.
//!
//! # Stride and prefixes
//!
//! A block's columns start `stride` elements apart in its buffers
//! (`stride >= traces`); [`TargetBlock::new`] builds dense blocks
//! (`stride == traces`). A store lends its columns at its capacity,
//! which equals its trace count for a [`Dataset`]'s stores.
//! [`TargetBlock::prefix`] lends the first `k` traces of every column
//! as a borrowed view at the same stride, with no copy. Consumers read
//! only through the column accessors, so a prefix scores exactly like a
//! dense block holding the same columns.

use crate::acquire::{Dataset, POINTS_PER_TARGET};
use crate::error::{Error, Result};
use falcon_emsim::StepKind;
use std::borrow::Cow;

/// The complete column set of one target: both occurrences' known
/// operands (`[occ][trace]`, `2·traces` words) and all sample columns
/// (`[occ][step][trace]`, `28·traces` samples) — the exact columnar
/// layout of one target in the v2 on-disk format and in a store.
///
/// Borrowing sources lend `Cow::Borrowed` slices with zero copies;
/// streaming sources return `Cow::Owned` buffers decoded from disk.
/// Columns sit `stride` elements apart (see the module docs).
#[derive(Debug, Clone)]
pub struct TargetBlock<'a> {
    target: usize,
    traces: usize,
    stride: usize,
    knowns: Cow<'a, [u64]>,
    points: Cow<'a, [f32]>,
}

/// Column `c` of a buffer whose columns start `stride` apart.
fn column<T>(buf: &[T], c: usize, stride: usize, traces: usize) -> &[T] {
    &buf[c * stride..c * stride + traces]
}

impl<'a> TargetBlock<'a> {
    /// Assembles a dense block (`stride == traces`), validating the
    /// column lengths against `traces`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when either buffer disagrees
    /// with the `[occ][(step)][trace]` geometry.
    pub fn new(
        target: usize,
        traces: usize,
        knowns: Cow<'a, [u64]>,
        points: Cow<'a, [f32]>,
    ) -> Result<Self> {
        if knowns.len() != 2 * traces {
            return Err(Error::ShapeMismatch {
                what: "target block knowns",
                expected: 2 * traces,
                got: knowns.len(),
            });
        }
        if points.len() != POINTS_PER_TARGET * traces {
            return Err(Error::ShapeMismatch {
                what: "target block points",
                expected: POINTS_PER_TARGET * traces,
                got: points.len(),
            });
        }
        Ok(TargetBlock { target, traces, stride: traces, knowns, points })
    }

    /// The first `traces` traces of every column, borrowed from this
    /// block's buffers at its stride: no copy.
    ///
    /// # Panics
    ///
    /// Panics when `traces` exceeds [`TargetBlock::traces`].
    pub fn prefix(&self, traces: usize) -> TargetBlock<'_> {
        assert!(traces <= self.traces, "prefix of {traces} traces from a block of {}", self.traces);
        TargetBlock {
            target: self.target,
            traces,
            stride: self.stride,
            knowns: Cow::Borrowed(&self.knowns),
            points: Cow::Borrowed(&self.points),
        }
    }

    /// The flat `FFT(f)` index this block belongs to.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Traces per column.
    pub fn traces(&self) -> usize {
        self.traces
    }

    /// Known-operand column for `occ` (0 or 1).
    pub fn known_column(&self, occ: usize) -> &[u64] {
        debug_assert!(occ < 2);
        column(&self.knowns, occ, self.stride, self.traces)
    }

    /// Sample column for one pipeline step of `occ`.
    pub fn sample_column(&self, occ: usize, step: StepKind) -> &[f32] {
        debug_assert!(occ < 2);
        column(&self.points, occ * StepKind::COUNT + step as usize, self.stride, self.traces)
    }

    /// Known operand of a single trace.
    pub fn known(&self, trace: usize, occ: usize) -> u64 {
        self.known_column(occ)[trace]
    }

    /// Leakage sample of a single trace at one step.
    pub fn sample(&self, trace: usize, occ: usize, step: StepKind) -> f32 {
        self.sample_column(occ, step)[trace]
    }
}

/// A provider of per-target trace columns.
///
/// The contract every consumer relies on:
///
/// * `targets()` is the fixed acquisition order; `target_block` only
///   answers for members of that list.
/// * All blocks have exactly `traces()` traces, in a stable trace
///   order shared across targets (trace `i` of one block and trace
///   `i` of another came from the same signature).
/// * Repeated `target_block` calls for the same target return
///   byte-identical columns — sources are immutable snapshots, so
///   every analysis over them is deterministic.
pub trait ColumnSource {
    /// Ring degree of the attacked key.
    fn n(&self) -> usize;

    /// Targeted flat `FFT(f)` indices, in acquisition order.
    fn targets(&self) -> &[usize];

    /// Traces per column.
    fn traces(&self) -> usize;

    /// Lends the complete column set of `target`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TargetNotInDataset`] for a target outside
    /// [`ColumnSource::targets`], and I/O or format errors from
    /// streaming sources.
    fn target_block(&self, target: usize) -> Result<TargetBlock<'_>>;
}

/// The trace store of one target: its `[occ]` known and `[occ][step]`
/// sample columns, `capacity` apart. A push copies only the new
/// traces, in place; the columns are re-laid only when the capacity
/// grows, at least doubling, so `T` traces pushed in batches cost
/// `O(T)` copies instead of `O(T²/batch)`. The store lends its traces
/// as one strided block through [`ColumnSource`].
#[derive(Debug, Clone)]
pub(crate) struct TraceStore {
    n: usize,
    /// The one target, as a slice for [`ColumnSource::targets`].
    target: [usize; 1],
    traces: usize,
    capacity: usize,
    knowns: Vec<u64>,
    points: Vec<f32>,
}

impl TraceStore {
    /// An empty store for `target` of a ring of degree `n`.
    pub(crate) fn new(n: usize, target: usize) -> TraceStore {
        let (knowns, points) = (Vec::new(), Vec::new());
        TraceStore { n, target: [target], traces: 0, capacity: 0, knowns, points }
    }

    /// A store of `traces` traces over dense columns: `knowns` is
    /// `[occ][trace]` and `points` is `[occ][step][trace]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when a buffer disagrees with
    /// that geometry, and [`Error::InvalidData`] for a non-finite
    /// sample.
    pub(crate) fn from_columns(
        n: usize,
        target: usize,
        traces: usize,
        knowns: Vec<u64>,
        points: Vec<f32>,
    ) -> Result<TraceStore> {
        let block = TargetBlock::new(target, traces, Cow::Owned(knowns), Cow::Owned(points))?;
        // ct: allow(attacker-side input validation of captured samples)
        check_finite_samples(&block.points)?;
        let (knowns, points) = (block.knowns.into_owned(), block.points.into_owned());
        Ok(TraceStore { n, target: [target], traces, capacity: traces, knowns, points })
    }

    /// Appends every trace of `block`, a block of this store's target.
    pub(crate) fn push(&mut self, block: &TargetBlock<'_>) {
        debug_assert_eq!(block.target, self.target[0]);
        let (old, add) = (self.traces, block.traces);
        if old + add > self.capacity {
            let capacity = (old + add).max(2 * self.capacity);
            let knowns = std::mem::replace(&mut self.knowns, vec![0; 2 * capacity]);
            let points =
                std::mem::replace(&mut self.points, vec![0.0; POINTS_PER_TARGET * capacity]);
            copy_columns(&mut self.knowns, capacity, 0, &knowns, self.capacity, old);
            copy_columns(&mut self.points, capacity, 0, &points, self.capacity, old);
            self.capacity = capacity;
        }
        copy_columns(&mut self.knowns, self.capacity, old, &block.knowns, block.stride, add);
        copy_columns(&mut self.points, self.capacity, old, &block.points, block.stride, add);
        self.traces = old + add;
    }

    /// Every sample column, `traces` long, for rewriting in place
    /// (screening's winsorisation).
    pub(crate) fn sample_columns_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        let traces = self.traces;
        self.points.chunks_exact_mut(self.capacity.max(1)).map(move |c| &mut c[..traces])
    }
}

/// Row → column transpose of one acquisition batch into a [`Dataset`]:
/// `rows` holds each trace's `(knowns, points)` row, `[target][occ]`
/// operands and `[target][occ·14+step]` samples, in trace order. Each
/// target's columns are written straight into its own store.
///
/// # Errors
///
/// See [`TraceStore::from_columns`] and `Dataset::from_stores`.
pub(crate) fn scatter_rows(
    n: usize,
    targets: &[usize],
    rows: &[(Vec<u64>, Vec<f32>)],
) -> Result<Dataset> {
    let traces = rows.len();
    let store = |(ti, &target): (usize, &usize)| {
        let mut knowns = vec![0u64; 2 * traces];
        let mut points = vec![0f32; POINTS_PER_TARGET * traces];
        for (trace, (row_k, row_p)) in rows.iter().enumerate() {
            for (c, &k) in row_k[2 * ti..2 * ti + 2].iter().enumerate() {
                knowns[c * traces + trace] = k;
            }
            let window = &row_p[ti * POINTS_PER_TARGET..(ti + 1) * POINTS_PER_TARGET];
            for (c, &p) in window.iter().enumerate() {
                points[c * traces + trace] = p;
            }
        }
        TraceStore::from_columns(n, target, traces, knowns, points)
    };
    let stores = targets.iter().enumerate().map(store).collect::<Result<_>>()?;
    Dataset::from_stores(n, traces, stores)
}

/// Rejects a sample column holding a NaN or an infinity. One such sample
/// makes its column's variance non-finite, every correlation over the
/// column then reads 0, and the beam would keep its first guesses by
/// index instead of failing.
///
/// # Errors
///
/// Returns [`Error::InvalidData`] naming the first non-finite sample.
pub(crate) fn check_finite_samples(points: &[f32]) -> Result<()> {
    // ct: allow(attacker-side input validation of captured samples)
    match points.iter().position(|p| !p.is_finite()) {
        Some(i) => {
            // ct: allow(attacker-side input validation of captured samples)
            Err(Error::invalid(format!("sample {i} is {}; samples must be finite", points[i])))
        }
        None => Ok(()),
    }
}

/// Copies the first `len` elements of every column of `src` (columns
/// `src_stride` apart) to offset `at` of the same column of `dst`
/// (columns `stride` apart).
fn copy_columns<T: Copy>(
    dst: &mut [T],
    stride: usize,
    at: usize,
    src: &[T],
    src_stride: usize,
    len: usize,
) {
    for c in 0..dst.len() / stride.max(1) {
        dst[c * stride + at..c * stride + at + len]
            .copy_from_slice(column(src, c, src_stride, len));
    }
}

impl ColumnSource for TraceStore {
    fn n(&self) -> usize {
        self.n
    }

    fn targets(&self) -> &[usize] {
        &self.target
    }

    fn traces(&self) -> usize {
        self.traces
    }

    fn target_block(&self, target: usize) -> Result<TargetBlock<'_>> {
        if target != self.target[0] {
            return Err(Error::TargetNotInDataset { target });
        }
        Ok(TargetBlock {
            target,
            traces: self.traces,
            stride: self.capacity,
            knowns: Cow::Borrowed(&self.knowns),
            points: Cow::Borrowed(&self.points),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
    use falcon_sig::rng::Prng;
    use falcon_sig::{KeyPair, LogN};

    fn device() -> Device {
        let mut rng = Prng::from_seed(b"source test key");
        let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, 1.0),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        Device::new(kp.into_parts().0, chain, b"source bench")
    }

    fn sample_dataset() -> Dataset {
        Dataset::collect(&mut device(), &[0, 2, 5], 9, &mut Prng::from_seed(b"source msgs"))
    }

    #[test]
    fn resident_blocks_borrow_the_exact_columns() {
        // Rows numbered by (trace, column), so every cell is distinct:
        // the transpose must put each in its target's column at its
        // trace, and the dataset lends those columns without a copy.
        let (targets, traces) = ([5usize, 0, 2], 9);
        let rows: Vec<(Vec<u64>, Vec<f32>)> = (0..traces)
            .map(|trace| {
                let knowns = (0..2 * targets.len()).map(|c| (trace * 100 + c) as u64).collect();
                let width = POINTS_PER_TARGET * targets.len();
                (knowns, (0..width).map(|c| (trace * 1000 + c) as f32).collect())
            })
            .collect();
        let ds = scatter_rows(8, &targets, &rows).unwrap();
        for (ti, &t) in targets.iter().enumerate() {
            let block = ColumnSource::target_block(&ds, t).unwrap();
            assert_eq!((block.target(), block.traces(), block.stride), (t, traces, traces));
            assert!(matches!(block.knowns, Cow::Borrowed(_)));
            assert!(matches!(block.points, Cow::Borrowed(_)));
            for (trace, (row_k, row_p)) in rows.iter().enumerate() {
                for occ in 0..2 {
                    assert_eq!(block.known(trace, occ), row_k[2 * ti + occ]);
                    assert_eq!(block.known_column(occ)[trace], row_k[2 * ti + occ]);
                    for step in StepKind::ALL {
                        let want =
                            row_p[ti * POINTS_PER_TARGET + occ * StepKind::COUNT + step as usize];
                        assert_eq!(block.sample(trace, occ, step), want);
                        assert_eq!(block.sample_column(occ, step)[trace], want);
                    }
                }
            }
        }
    }

    #[test]
    fn missing_target_is_typed() {
        let ds = sample_dataset();
        match ColumnSource::target_block(&ds, 7) {
            Err(Error::TargetNotInDataset { target: 7 }) => {}
            other => panic!("expected TargetNotInDataset, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "prefix of 10 traces from a block of 9")]
    fn a_prefix_longer_than_the_block_panics() {
        ColumnSource::target_block(&sample_dataset(), 0).unwrap().prefix(10);
    }

    #[test]
    fn store_prefixes_match_a_capture_taken_in_one_piece() {
        // Batches of 0, 1 and odd sizes; 9 → 12 fits the capacity of 16,
        // the others cross it. Batched captures from the same seeds
        // equal one capture of all 47 traces.
        let batches = [0usize, 1, 7, 1, 3, 30, 5];
        let capacities = [0usize, 1, 8, 16, 16, 42, 84];
        let whole = Dataset::collect(&mut device(), &[3], 47, &mut Prng::from_seed(b"store"));
        let whole = ColumnSource::target_block(&whole, 3).unwrap();
        let (mut dev, mut msgs) = (device(), Prng::from_seed(b"store"));
        let mut store = TraceStore::new(8, 3);
        for (&batch, &capacity) in batches.iter().zip(&capacities) {
            let ds = Dataset::collect(&mut dev, &[3], batch, &mut msgs);
            let before = (store.knowns.as_ptr(), store.points.as_ptr(), store.capacity);
            store.push(&ColumnSource::target_block(&ds, 3).unwrap());
            let pushed = store.traces;
            assert_eq!(store.capacity, capacity);
            if pushed <= before.2 {
                // A push that fits moves neither buffer.
                assert_eq!((store.knowns.as_ptr(), store.points.as_ptr()), (before.0, before.1));
            }
            let block = store.target_block(3).unwrap();
            let (knowns, points) = (store.knowns.as_ptr_range(), store.points.as_ptr_range());
            for k in [0, pushed / 2, pushed] {
                // Column by column equal to the one-piece capture, and
                // borrowed from the store's buffers.
                let prefix = block.prefix(k);
                assert_eq!((prefix.target(), prefix.traces()), (3, k));
                for occ in 0..2 {
                    let kc = prefix.known_column(occ);
                    assert_eq!(kc, &whole.known_column(occ)[..k]);
                    assert!(knowns.start <= kc.as_ptr() && kc.as_ptr_range().end <= knowns.end);
                    for step in StepKind::ALL {
                        let sc = prefix.sample_column(occ, step);
                        assert_eq!(sc, &whole.sample_column(occ, step)[..k]);
                        assert!(points.start <= sc.as_ptr() && sc.as_ptr_range().end <= points.end);
                    }
                }
            }
        }
        assert_eq!(store.traces, whole.traces());
        assert!(matches!(store.target_block(5), Err(Error::TargetNotInDataset { target: 5 })));
    }

    #[test]
    fn shape_mismatches_are_typed() {
        let err = TargetBlock::new(0, 4, Cow::Owned(vec![0u64; 7]), Cow::Owned(vec![0.0; 112]));
        assert!(matches!(err, Err(Error::ShapeMismatch { what: "target block knowns", .. })));
        let err = TargetBlock::new(0, 4, Cow::Owned(vec![0u64; 8]), Cow::Owned(vec![0.0; 111]));
        assert!(matches!(err, Err(Error::ShapeMismatch { what: "target block points", .. })));
    }
}
