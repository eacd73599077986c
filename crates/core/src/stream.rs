//! Out-of-core streaming reader for the columnar v2 dataset format.
//!
//! A [`StreamedDataset`] is a [`ColumnSource`] over an `FDNDSET\x02`
//! file: it holds only the parsed header, and materialises one
//! target's column set at a time by reading the target's two
//! contiguous byte ranges (knowns, then samples) on the calling thread.
//! Each range is read in pieces of at most [`STAGE_BYTES`] through one
//! staging buffer per fetch by the same little-endian reader
//! [`read_dataset`](crate::io::read_dataset) uses, and every piece is
//! decoded as it arrives, so the bytes staged beyond the decoded
//! columns themselves stay bounded by [`STAGE_BYTES`] regardless of
//! file size.
//!
//! # Determinism
//!
//! Bytes are read and decoded strictly in file order, and the decoded
//! block is byte-identical to the resident load of the same file — the
//! reader only moves bytes, it never reorders or merges floats. Every
//! analysis downstream of [`ColumnSource`] therefore produces
//! bit-identical results over a `StreamedDataset` and the
//! [`Dataset`](crate::Dataset) it was written from; the determinism
//! suite pins campaign → key → forgery equality across sources and
//! thread counts.
//!
//! # Memory accounting
//!
//! `stream.ring_peak_bytes` (gauge) records the high-water mark of the
//! staging buffer (at most [`STAGE_BYTES`]; the name predates the
//! calling-thread reader), and `stream.bytes_read` /
//! `stream.blocks_fetched` (counters) the I/O volume. Tests assert the
//! staging bound while streaming files many times larger.

use crate::error::{Error, Result};
use crate::io::{read_dataset_header, read_le, DatasetHeader};
use crate::source::{check_finite_samples, ColumnSource, TargetBlock};
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Largest single read while fetching a target block. A multiple of 8,
/// so no u64 or f32 element ever straddles two reads.
pub const STAGE_BYTES: usize = 64 << 10;

/// Resets the staging high-water mark (the `stream.ring_peak_bytes`
/// gauge), so a test can bound the peak of one specific streaming pass.
pub fn reset_ring_peak() {
    crate::obs::gauge("stream.ring_peak_bytes").set(0.0);
}

/// A [`ColumnSource`] over an on-disk `FDNDSET\x02` archive, holding
/// only the header resident and reading one target's columns at a time.
#[derive(Debug)]
pub struct StreamedDataset {
    path: PathBuf,
    header: DatasetHeader,
}

impl StreamedDataset {
    /// Opens an archive for streaming: parses the header (payload
    /// untouched), and checks the file length against the header's byte
    /// geometry so truncation is caught at open rather than
    /// mid-campaign.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] for a length mismatch, plus
    /// everything [`read_dataset_header`] returns.
    pub fn open_default(path: impl AsRef<Path>) -> Result<Self> {
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
        Ok(StreamedDataset { path, header })
    }

    /// The parsed header (resident metadata).
    pub fn header(&self) -> &DatasetHeader {
        &self.header
    }

    /// Reads the byte ranges of one target (knowns then points)
    /// through one staging buffer, decoding into owned column buffers,
    /// and rejects a NaN or infinite sample with [`Error::InvalidData`].
    fn fetch(&self, ti: usize) -> Result<(Vec<u64>, Vec<f32>)> {
        let (kstart, klen) = self.header.target_knowns_range(ti);
        let (pstart, plen) = self.header.target_points_range(ti);
        // Both range lengths are multiples of 8, as is STAGE_BYTES, so
        // no word straddles two reads.
        let mut stage = vec![0u8; STAGE_BYTES.min(klen.max(plen) as usize)];
        let peak = crate::obs::gauge("stream.ring_peak_bytes");
        if stage.len() as f64 > peak.get() {
            peak.set(stage.len() as f64);
        }
        let bytes_read = crate::obs::counter("stream.bytes_read");
        let mut f = File::open(&self.path)?;
        // `open_default` checked the file length against the header, so
        // the ranges' lengths can size the buffers up front.
        f.seek(SeekFrom::Start(kstart))?;
        let words = (klen / 8) as usize;
        let out = Vec::with_capacity(words);
        let knowns = read_le(&mut f, words, &mut stage, u64::from_le_bytes, out)?;
        bytes_read.add(klen);
        f.seek(SeekFrom::Start(pstart))?;
        let samples = (plen / 4) as usize;
        let out = Vec::with_capacity(samples);
        let points = read_le(&mut f, samples, &mut stage, f32::from_le_bytes, out)?;
        bytes_read.add(plen);
        check_finite_samples(&points)?;
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
        // 640 traces put each target's sample range past STAGE_BYTES,
        // so the multi-read decode path is covered too.
        let ds = sample_dataset(640);
        let path = write_tmp(&ds, "ident");
        let sd = StreamedDataset::open_default(&path).unwrap();
        assert!(sd.header().target_points_range(0).1 > STAGE_BYTES as u64);
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
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ring_peak_respects_the_configured_bound() {
        let ds = sample_dataset(768);
        let path = write_tmp(&ds, "peak");
        let sd = StreamedDataset::open_default(&path).unwrap();
        // The file dwarfs the staging buffer: streaming must stage at
        // most STAGE_BYTES even so.
        assert!(std::fs::metadata(&path).unwrap().len() > STAGE_BYTES as u64 * 4);
        reset_ring_peak();
        for &t in ColumnSource::targets(&sd).to_vec().iter() {
            sd.target_block(t).unwrap();
        }
        let peak = crate::obs::gauge("stream.ring_peak_bytes").get();
        assert!(peak > 0.0, "streaming staged nothing?");
        assert!(peak <= STAGE_BYTES as f64, "staging peak {peak} exceeds {STAGE_BYTES}");
        std::fs::remove_file(&path).unwrap();
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
        let sd = StreamedDataset::open_default(&path).unwrap();
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
        // Fuzz-style sweep: cut the archive every 512 bytes (and at a
        // few straddling offsets) and demand a typed error from open()
        // — never a panic, never a silent short read.
        let ds = sample_dataset(16);
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let path = std::env::temp_dir().join(format!("falcon-stream-trunc-{}", std::process::id()));
        let mut cuts: Vec<usize> = (0..buf.len()).step_by(512).collect();
        cuts.extend([1, 7, 8, 31, buf.len() - 1]);
        for cut in cuts {
            std::fs::write(&path, &buf[..cut]).unwrap();
            let r = StreamedDataset::open_default(&path);
            match r {
                Err(Error::Io(_)) | Err(Error::InvalidData(_)) => {}
                other => panic!("cut at {cut}/{}: expected typed error, got {other:?}", buf.len()),
            }
        }
        // And the intact file streams fine.
        std::fs::write(&path, &buf).unwrap();
        let sd = StreamedDataset::open_default(&path).unwrap();
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
        let sd = StreamedDataset::open_default(&path).unwrap();
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
