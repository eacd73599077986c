//! Out-of-core streaming reader for the columnar v2 dataset format.
//!
//! A [`StreamedDataset`] is a [`ColumnSource`] over an `FDNDSET\x02`
//! file: it holds only the parsed header, and materialises one
//! target's column set at a time by reading the target's two
//! contiguous byte ranges (knowns, then samples) through a bounded
//! prefetch ring. A dedicated reader thread fills the ring with
//! fixed-size chunks in file order while the consumer decodes them, so
//! I/O overlaps decoding; the channel bound caps the bytes staged in
//! flight at `depth × chunk_bytes` regardless of file size.
//!
//! # Determinism
//!
//! Chunks are read, sent, and decoded strictly in file order, and the
//! decoded block is byte-identical to the resident load of the same
//! file — the reader thread only moves bytes, it never reorders or
//! merges floats. Every analysis downstream of [`ColumnSource`]
//! therefore produces bit-identical results over a `StreamedDataset`
//! and the [`Dataset`](crate::Dataset) it was written from; the
//! determinism suite pins campaign → key → forgery equality across
//! ring depths and thread counts.
//!
//! # Memory accounting
//!
//! `stream.ring_capacity_bytes` (gauge) records the configured bound,
//! `stream.ring_peak_bytes` (gauge) the high-water mark of bytes
//! actually staged in the ring, and `stream.bytes_read` /
//! `stream.chunks_read` / `stream.blocks_fetched` (counters) the I/O
//! volume. Tests assert `peak ≤ capacity` while streaming files much
//! larger than the ring.

use crate::error::{Error, Result};
use crate::io::{read_dataset_header, DatasetHeader};
use crate::source::{ColumnSource, TargetBlock};
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;

/// Smallest permitted chunk: big enough that the per-chunk channel
/// rendezvous stays negligible against the memcpy it covers.
pub const MIN_CHUNK_BYTES: usize = 512;

/// Process-wide high-water mark of bytes staged in any prefetch ring,
/// mirrored to the `stream.ring_peak_bytes` gauge (which is
/// last-write-wins and so cannot track a max by itself).
static RING_PEAK: AtomicU64 = AtomicU64::new(0);

/// Resets the process-wide ring high-water mark (and its gauge), so a
/// test can bound the peak of one specific streaming pass.
pub fn reset_ring_peak() {
    RING_PEAK.store(0, Ordering::SeqCst);
    crate::obs::gauge("stream.ring_peak_bytes").set(0.0);
}

fn note_staged(in_ring: &AtomicU64, len: u64) {
    let now = in_ring.fetch_add(len, Ordering::SeqCst) + len;
    let mut peak = RING_PEAK.load(Ordering::SeqCst);
    while now > peak {
        match RING_PEAK.compare_exchange(peak, now, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => break,
            Err(cur) => peak = cur,
        }
    }
    crate::obs::gauge("stream.ring_peak_bytes").set(RING_PEAK.load(Ordering::SeqCst) as f64);
}

/// Geometry of the prefetch ring: `depth` chunks of `chunk_bytes`
/// each may be staged between the reader thread and the decoder, so
/// peak staging memory per block fetch is `depth × chunk_bytes` —
/// independent of file size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Bytes per chunk. Must be a multiple of 8 (so chunk boundaries
    /// always fall on u64/f32 element boundaries within a payload
    /// range) and at least [`MIN_CHUNK_BYTES`].
    pub chunk_bytes: usize,
    /// Chunks in flight, including the one being decoded. At least 2
    /// (one decoding, one prefetching).
    pub depth: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        // 1 MiB chunks, 4 deep: 4 MiB of staging regardless of
        // archive size, large enough to keep a spinning disk busy.
        RingConfig { chunk_bytes: 1 << 20, depth: 4 }
    }
}

impl RingConfig {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] for a chunk size that is too
    /// small or misaligned, or a ring shallower than 2.
    pub fn validate(&self) -> Result<()> {
        if self.chunk_bytes < MIN_CHUNK_BYTES || !self.chunk_bytes.is_multiple_of(8) {
            return Err(Error::invalid(format!(
                "ring chunk_bytes must be a multiple of 8 and >= {MIN_CHUNK_BYTES}, got {}",
                self.chunk_bytes
            )));
        }
        if self.depth < 2 {
            return Err(Error::invalid(format!("ring depth must be >= 2, got {}", self.depth)));
        }
        Ok(())
    }

    /// The staging-memory bound this geometry guarantees.
    pub fn capacity_bytes(&self) -> u64 {
        self.chunk_bytes as u64 * self.depth as u64
    }
}

/// A [`ColumnSource`] over an on-disk `FDNDSET\x02` archive, holding
/// only the header resident and streaming one target's columns at a
/// time through a bounded prefetch ring.
#[derive(Debug)]
pub struct StreamedDataset {
    path: PathBuf,
    header: DatasetHeader,
    ring: RingConfig,
}

impl StreamedDataset {
    /// Opens an archive for streaming: validates the ring geometry,
    /// parses the header (payload untouched), and checks the file
    /// length against the header's byte geometry so truncation is
    /// caught at open rather than mid-campaign.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] for a length mismatch or a bad
    /// ring, plus everything [`read_dataset_header`] returns.
    pub fn open(path: impl AsRef<Path>, ring: RingConfig) -> Result<Self> {
        ring.validate()?;
        let path = path.as_ref().to_path_buf();
        let mut r = BufReader::new(File::open(&path)?);
        let header = read_dataset_header(&mut r)?;
        drop(r);
        let actual = std::fs::metadata(&path)?.len();
        if actual != header.file_len() {
            return Err(Error::invalid(format!(
                "archive length mismatch: header implies {} bytes, file has {actual}",
                header.file_len()
            )));
        }
        crate::obs::gauge("stream.ring_capacity_bytes").set(ring.capacity_bytes() as f64);
        Ok(StreamedDataset { path, header, ring })
    }

    /// Opens with the default ring geometry.
    ///
    /// # Errors
    ///
    /// See [`StreamedDataset::open`].
    pub fn open_default(path: impl AsRef<Path>) -> Result<Self> {
        Self::open(path, RingConfig::default())
    }

    /// The archive path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The parsed header (resident metadata).
    pub fn header(&self) -> &DatasetHeader {
        &self.header
    }

    /// The ring geometry.
    pub fn ring(&self) -> RingConfig {
        self.ring
    }

    /// Streams the byte ranges of one target (knowns then points)
    /// through the ring, decoding into owned column buffers, and
    /// rejects a NaN or infinite sample with [`Error::InvalidData`].
    fn fetch(&self, ti: usize) -> Result<(Vec<u64>, Vec<f32>)> {
        let (koff, klen) = self.header.target_knowns_range(ti);
        let (poff, plen) = self.header.target_points_range(ti);
        let chunk = self.ring.chunk_bytes;
        // Staged chunks live in three places: one the reader has
        // allocated and not yet handed over, up to capacity sitting in
        // the channel, and one the consumer is decoding. Capacity
        // depth-2 therefore caps the total at exactly depth chunks
        // (depth 2 degenerates to a rendezvous channel: one decoding,
        // one prefetching).
        let (tx, rx) = sync_channel::<std::io::Result<Vec<u8>>>(self.ring.depth - 2);
        let in_ring = Arc::new(AtomicU64::new(0));
        let staged = Arc::clone(&in_ring);
        let path = self.path.clone();
        let reader = std::thread::spawn(move || {
            let run = |tx: &SyncSender<std::io::Result<Vec<u8>>>| -> std::io::Result<()> {
                let mut f = File::open(&path)?;
                for &(off, len) in &[(koff, klen), (poff, plen)] {
                    f.seek(SeekFrom::Start(off))?;
                    let mut left = len;
                    while left > 0 {
                        let take = left.min(chunk as u64) as usize;
                        let mut buf = vec![0u8; take];
                        // Counted from allocation, not from hand-over:
                        // the gauge bounds real staging memory.
                        note_staged(&staged, take as u64);
                        f.read_exact(&mut buf)?;
                        // A send error means the consumer hung up
                        // (early exit); stop reading quietly.
                        if tx.send(Ok(buf)).is_err() {
                            return Ok(());
                        }
                        left -= take as u64;
                    }
                }
                Ok(())
            };
            if let Err(e) = run(&tx) {
                // Forward the failure; the consumer may already be
                // gone, in which case nobody cares.
                let _ = tx.send(Err(e));
            }
        });
        let chunks_read = crate::obs::counter("stream.chunks_read");
        let bytes_read = crate::obs::counter("stream.bytes_read");
        let mut knowns = Vec::with_capacity((klen / 8) as usize);
        let mut points = Vec::with_capacity((plen / 4) as usize);
        let mut result = Ok(());
        // Decode chunks strictly in arrival (= file) order. The knowns
        // range length is a multiple of chunk_bytes' alignment (both
        // are multiples of 8), so the range boundary always coincides
        // with a chunk boundary and each chunk decodes wholly as u64s
        // or wholly as f32s.
        for received in rx.iter() {
            match received {
                Ok(buf) => {
                    if (knowns.len() as u64) < klen / 8 {
                        knowns.extend(
                            buf.chunks_exact(8)
                                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
                        );
                    } else {
                        points.extend(
                            buf.chunks_exact(4)
                                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))),
                        );
                    }
                    chunks_read.incr();
                    bytes_read.add(buf.len() as u64);
                    in_ring.fetch_sub(buf.len() as u64, Ordering::SeqCst);
                }
                Err(e) => {
                    result = Err(Error::from(e));
                    break;
                }
            }
        }
        drop(rx);
        reader.join().map_err(|payload| crate::exec::panicked(0, payload))?;
        result?;
        crate::acquire::check_finite_samples(&points)?;
        crate::obs::counter("stream.blocks_fetched").incr();
        Ok((knowns, points))
    }
}

impl ColumnSource for StreamedDataset {
    fn n(&self) -> usize {
        self.header.n
    }

    fn targets(&self) -> &[usize] {
        &self.header.targets
    }

    fn traces(&self) -> usize {
        self.header.traces
    }

    fn target_block(&self, target: usize) -> Result<TargetBlock<'_>> {
        let ti = self.header.target_slot(target).ok_or(Error::TargetNotInDataset { target })?;
        let (knowns, points) = self.fetch(ti)?;
        TargetBlock::new(target, self.header.traces, Cow::Owned(knowns), Cow::Owned(points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquire::Dataset;
    use crate::io::write_dataset;
    use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope, StepKind};
    use falcon_sig::rng::Prng;
    use falcon_sig::{KeyPair, LogN};

    fn sample_dataset(traces: usize) -> Dataset {
        let mut rng = Prng::from_seed(b"stream test key");
        let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, 1.0),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        let mut dev = Device::new(kp.into_parts().0, chain, b"stream bench");
        let mut msgs = Prng::from_seed(b"stream msgs");
        Dataset::collect(&mut dev, &[0, 2, 5], traces, &mut msgs)
    }

    fn write_tmp(ds: &Dataset, name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("falcon-stream-{name}-{}", std::process::id()));
        crate::io::atomic_write(&path, |w| write_dataset(ds, w)).unwrap();
        path
    }

    #[test]
    fn streamed_blocks_are_byte_identical_to_resident() {
        let ds = sample_dataset(64);
        let path = write_tmp(&ds, "ident");
        for ring in [
            RingConfig { chunk_bytes: MIN_CHUNK_BYTES, depth: 2 },
            RingConfig { chunk_bytes: 1024, depth: 3 },
            RingConfig::default(),
        ] {
            let sd = StreamedDataset::open(&path, ring).unwrap();
            assert_eq!(ColumnSource::n(&sd), ds.n());
            assert_eq!(ColumnSource::targets(&sd), ds.targets());
            assert_eq!(ColumnSource::traces(&sd), ds.traces());
            for &t in ds.targets() {
                let sb = sd.target_block(t).unwrap();
                let rb = ColumnSource::target_block(&ds, t).unwrap();
                for occ in 0..2 {
                    assert_eq!(sb.known_column(occ), rb.known_column(occ));
                    for step in StepKind::ALL {
                        let s: Vec<u32> =
                            sb.sample_column(occ, step).iter().map(|v| v.to_bits()).collect();
                        let r: Vec<u32> =
                            rb.sample_column(occ, step).iter().map(|v| v.to_bits()).collect();
                        assert_eq!(s, r);
                    }
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ring_peak_respects_the_configured_bound() {
        let ds = sample_dataset(256);
        let path = write_tmp(&ds, "peak");
        let ring = RingConfig { chunk_bytes: MIN_CHUNK_BYTES, depth: 2 };
        let sd = StreamedDataset::open(&path, ring).unwrap();
        // The file dwarfs the ring: streaming must stage at most
        // depth × chunk_bytes even so.
        assert!(std::fs::metadata(&path).unwrap().len() > ring.capacity_bytes() * 4);
        reset_ring_peak();
        for &t in ColumnSource::targets(&sd).to_vec().iter() {
            sd.target_block(t).unwrap();
        }
        let peak = crate::obs::gauge("stream.ring_peak_bytes").get();
        assert!(peak > 0.0, "streaming staged nothing?");
        assert!(
            peak <= ring.capacity_bytes() as f64,
            "ring peak {peak} exceeds capacity {}",
            ring.capacity_bytes()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_ring_geometry_is_rejected() {
        assert!(RingConfig { chunk_bytes: 4, depth: 2 }.validate().is_err());
        assert!(RingConfig { chunk_bytes: 1001, depth: 2 }.validate().is_err());
        assert!(RingConfig { chunk_bytes: 1 << 20, depth: 1 }.validate().is_err());
        assert!(RingConfig::default().validate().is_ok());
    }

    #[test]
    fn missing_target_is_typed() {
        let ds = sample_dataset(8);
        let path = write_tmp(&ds, "missing");
        let sd = StreamedDataset::open_default(&path).unwrap();
        assert!(matches!(sd.target_block(7), Err(Error::TargetNotInDataset { target: 7 })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_finite_samples_are_rejected_on_fetch() {
        let ds = sample_dataset(16);
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let hdr = crate::io::read_dataset_header(&mut &buf[..]).unwrap();
        let (off, len) = hdr.target_points_range(2);
        let at = (off + len) as usize - 4;
        buf[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let path = std::env::temp_dir().join(format!("falcon-stream-nan-{}", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        let sd =
            StreamedDataset::open(&path, RingConfig { chunk_bytes: MIN_CHUNK_BYTES, depth: 2 })
                .unwrap();
        // Targets 0 and 2 stream clean; target 5 holds the NaN.
        assert!(sd.target_block(0).is_ok());
        assert!(sd.target_block(2).is_ok());
        match sd.target_block(5) {
            Err(Error::InvalidData(msg)) => assert!(msg.contains("finite"), "{msg}"),
            other => panic!("expected InvalidData, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_at_every_chunk_boundary_is_typed() {
        // Fuzz-style sweep: cut the archive at every chunk boundary
        // (and a few straddling offsets) and demand a typed error from
        // open() — never a panic, never a silent short read.
        let ds = sample_dataset(16);
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let ring = RingConfig { chunk_bytes: MIN_CHUNK_BYTES, depth: 2 };
        let path = std::env::temp_dir().join(format!("falcon-stream-trunc-{}", std::process::id()));
        let mut cuts: Vec<usize> = (0..buf.len()).step_by(ring.chunk_bytes).collect();
        cuts.extend([1, 7, 8, 31, buf.len() - 1]);
        for cut in cuts {
            std::fs::write(&path, &buf[..cut]).unwrap();
            let r = StreamedDataset::open(&path, ring);
            match r {
                Err(Error::Io(_)) | Err(Error::InvalidData(_)) => {}
                other => panic!("cut at {cut}/{}: expected typed error, got {other:?}", buf.len()),
            }
        }
        // And the intact file streams fine.
        std::fs::write(&path, &buf).unwrap();
        let sd = StreamedDataset::open(&path, ring).unwrap();
        for &t in ds.targets() {
            sd.target_block(t).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_stream_truncation_surfaces_as_io_error() {
        // open() length-checks the file, but a file shrinking *after*
        // open (or a racing writer) must still fail typed, not panic:
        // shrink behind the source's back and fetch.
        let ds = sample_dataset(32);
        let path = write_tmp(&ds, "shrink");
        let ring = RingConfig { chunk_bytes: MIN_CHUNK_BYTES, depth: 2 };
        let sd = StreamedDataset::open(&path, ring).unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full / 2).unwrap();
        drop(f);
        let last = *ds.targets().last().unwrap();
        match sd.target_block(last) {
            Err(Error::Io(_)) => {}
            other => panic!("expected Io error after shrink, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_archives_refuse_to_stream() {
        let ds = sample_dataset(4);
        // Hand-roll a v1 header over an empty payload: the header parse
        // rejects the version before any payload read.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"FDNDSET\x01");
        buf.extend_from_slice(&(ds.n() as u64).to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let path = std::env::temp_dir().join(format!("falcon-stream-v1-{}", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        match StreamedDataset::open_default(&path) {
            Err(Error::UnsupportedVersion { found: 1, supported: 2 }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
