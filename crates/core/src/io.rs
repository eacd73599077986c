//! Dataset persistence.
//!
//! Real side-channel campaigns acquire once and analyse many times; this
//! module stores a [`Dataset`] in a compact self-describing binary format
//! (magic, version, dimensions, then raw little-endian payloads) so
//! acquisitions can be replayed, shared, and attacked offline.
//!
//! # Versions
//!
//! * **v2** (`FDNDSET\x02`, the only version read or written):
//!   columnar payload — knowns keyed `[target][occ][trace]`, samples
//!   `[target][occ][step][trace]`, a byte-for-byte dump of the in-memory
//!   [`Dataset`] buffers. Writing and loading are bulk copies with no
//!   transpose.
//!
//! Every other version, including the row-major v1 (`FDNDSET\x01`) that
//! only early builds of this crate wrote, is rejected with
//! [`Error::UnsupportedVersion`].

use crate::acquire::{Dataset, POINTS_PER_TARGET};
use crate::error::{Error, Result};
use std::io::{Read, Write};
use std::path::Path;

const HEAD: &[u8; 8] = b"FDNDSET\x02";
/// Current (columnar) dataset format version.
pub const VERSION_V2: u8 = 2;

/// The parsed header of a serialised dataset: everything up to (and
/// including) the column directory, with **no payload read**. Besides
/// the dimensions, it knows the byte geometry of the columnar payload,
/// so out-of-core readers can address any target's contiguous
/// known/sample regions directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetHeader {
    /// On-disk format version (always [`VERSION_V2`]).
    pub version: u8,
    /// Ring degree.
    pub n: usize,
    /// Targeted flat `FFT(f)` indices, in file order.
    pub targets: Vec<usize>,
    /// Traces per column.
    pub traces: usize,
}

impl DatasetHeader {
    /// Bytes occupied by the header itself (magic through the target
    /// directory); the payload starts at this offset.
    pub fn header_len(&self) -> u64 {
        8 + 3 * 8 + self.targets.len() as u64 * 8
    }

    /// Total u64 words in the known-operand payload.
    pub fn knowns_len(&self) -> usize {
        self.targets.len() * 2 * self.traces
    }

    /// Total f32 samples in the sample payload.
    pub fn points_len(&self) -> usize {
        self.targets.len() * POINTS_PER_TARGET * self.traces
    }

    /// Byte offset where the sample payload starts.
    pub fn points_offset(&self) -> u64 {
        self.header_len() + self.knowns_len() as u64 * 8
    }

    /// Total byte length of a well-formed file with this header.
    pub fn file_len(&self) -> u64 {
        self.points_offset() + self.points_len() as u64 * 4
    }

    /// Byte range `(offset, len)` of target slot `ti`'s known-operand
    /// block (`[occ][trace]`, `2·traces` u64 words).
    pub fn target_knowns_range(&self, ti: usize) -> (u64, u64) {
        debug_assert!(ti < self.targets.len());
        let len = 2 * self.traces as u64 * 8;
        (self.header_len() + ti as u64 * len, len)
    }

    /// Byte range `(offset, len)` of target slot `ti`'s sample block
    /// (`[occ][step][trace]`, `28·traces` f32 samples).
    pub fn target_points_range(&self, ti: usize) -> (u64, u64) {
        debug_assert!(ti < self.targets.len());
        let len = POINTS_PER_TARGET as u64 * self.traces as u64 * 4;
        (self.points_offset() + ti as u64 * len, len)
    }

    /// Position of `target` in the file's target directory.
    pub fn target_slot(&self, target: usize) -> Option<usize> {
        self.targets.iter().position(|&t| t == target)
    }
}

/// Parses a dataset header, stopping after the column (target)
/// directory: nothing of the payload is read or buffered, so probing
/// the dimensions of a multi-gigabyte archive costs a few hundred
/// bytes of I/O.
///
/// # Errors
///
/// Returns [`Error::InvalidData`] on a bad magic or implausible or
/// overflowing dimensions, [`Error::UnsupportedVersion`] on a version
/// this build does not understand, and [`Error::Io`] on truncation.
pub fn read_dataset_header<R: Read>(r: &mut R) -> Result<DatasetHeader> {
    read_head(r, HEAD, "dataset")?;
    let n = checked_count(read_u64(r)?, "ring degree")?;
    if !n.is_power_of_two() || !(2..=1 << 10).contains(&n) {
        return Err(bad("invalid ring degree"));
    }
    let n_targets = checked_count(read_u64(r)?, "target count")?;
    let traces = checked_count(read_u64(r)?, "trace count")?;
    if n_targets == 0 || n_targets > n || traces > 1 << 28 {
        return Err(bad("implausible dimensions"));
    }
    let targets_u = read_u64s(r, n_targets)?;
    let mut targets = Vec::with_capacity(n_targets);
    for t in targets_u {
        let t = checked_count(t, "target index")?;
        if t >= n {
            return Err(bad("target index out of range"));
        }
        targets.push(t);
    }
    // The length helpers multiply n_targets (<= 1024) by traces
    // (<= 2^28) by <= 28: comfortably inside u64, but re-check the
    // usize-facing products on 32-bit hosts.
    traces
        .checked_mul(n_targets)
        .and_then(|v| v.checked_mul(2))
        .ok_or_else(|| bad("known-operand count overflows"))?;
    traces
        .checked_mul(n_targets)
        .and_then(|v| v.checked_mul(POINTS_PER_TARGET))
        .ok_or_else(|| bad("sample count overflows"))?;
    Ok(DatasetHeader { version: VERSION_V2, n, targets, traces })
}

/// Serialises a dataset in the current (v2, columnar) format.
///
/// # Errors
///
/// Propagates I/O errors from the writer. The format is
/// platform-independent (fixed-width little-endian fields).
pub fn write_dataset<W: Write>(ds: &Dataset, mut w: W) -> Result<()> {
    w.write_all(HEAD)?;
    w.write_all(&(ds.n() as u64).to_le_bytes())?;
    w.write_all(&(ds.targets().len() as u64).to_le_bytes())?;
    w.write_all(&(ds.traces() as u64).to_le_bytes())?;
    for &t in ds.targets() {
        w.write_all(&(t as u64).to_le_bytes())?;
    }
    write_u64s(&mut w, ds.knowns_columnar())?;
    write_f32s(&mut w, ds.points_columnar())?;
    Ok(())
}

/// Writes a u64 slice as little-endian words through a bounded stack
/// buffer (one syscall-sized write per 256 words instead of one per
/// word).
fn write_u64s<W: Write>(w: &mut W, vals: &[u64]) -> Result<()> {
    let mut buf = [0u8; 8 * 256];
    for chunk in vals.chunks(256) {
        for (dst, &v) in buf.chunks_exact_mut(8).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf[..8 * chunk.len()])?;
    }
    Ok(())
}

/// Writes an f32 slice as little-endian samples with the same bounded
/// buffering as [`write_u64s`].
fn write_f32s<W: Write>(w: &mut W, vals: &[f32]) -> Result<()> {
    let mut buf = [0u8; 4 * 512];
    for chunk in vals.chunks(512) {
        for (dst, &v) in buf.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf[..4 * chunk.len()])?;
    }
    Ok(())
}

/// Suffix appended to the destination file name for the temporary
/// sibling used by [`atomic_write`] (`job.spec` → `job.spec.tmp`, so
/// sibling records of one job never collide on their temp files);
/// recovery scans ([`crate::orch::JobStore`]) delete any leftover
/// `*.tmp` as a torn write from a crashed process.
pub const TMP_SUFFIX: &str = ".tmp";

fn persist_err<'a>(op: &'static str, path: &'a Path) -> impl FnOnce(std::io::Error) -> Error + 'a {
    move |source| Error::Persist { op, path: path.display().to_string(), source }
}

/// Fsyncs a directory so a preceding rename inside it is durable.
///
/// POSIX only promises that `rename` survives a crash once the parent
/// directory's metadata has itself been synced; without this step an
/// "atomic" checkpoint can vanish wholesale on power loss even though
/// the file's own contents were fsynced. On non-Unix platforms opening
/// a directory for sync is not portable, so this is a no-op there (the
/// rename-over guarantee still holds; only the power-loss window
/// differs).
///
/// # Errors
///
/// Returns [`Error::Persist`] with `op = "sync-dir"`.
pub fn fsync_dir(dir: &Path) -> Result<()> {
    #[cfg(unix)]
    {
        let d = std::fs::File::open(dir).map_err(persist_err("sync-dir", dir))?;
        d.sync_all().map_err(persist_err("sync-dir", dir))?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Writes a file atomically *and durably*: the payload goes to a
/// `<path>.tmp` sibling, is fsynced, renamed over `path`, and the
/// parent directory is fsynced so the rename itself survives a crash.
/// A kill at any instant leaves either the previous file or the new
/// one, never a torn or vanishing file.
///
/// `fill` receives a buffered writer for the temporary file.
///
/// # Errors
///
/// Returns [`Error::Persist`] naming the failed step, or the error
/// propagated from `fill`.
pub fn atomic_write<F>(path: &Path, fill: F) -> Result<()>
where
    F: FnOnce(&mut dyn Write) -> Result<()>,
{
    let mut tmp_name = path.file_name().map(|f| f.to_os_string()).unwrap_or_default();
    tmp_name.push(TMP_SUFFIX);
    let tmp = path.with_file_name(tmp_name);
    {
        let f = std::fs::File::create(&tmp).map_err(persist_err("create", &tmp))?;
        let mut w = std::io::BufWriter::new(f);
        fill(&mut w)?;
        let f = w.into_inner().map_err(|e| Error::Persist {
            op: "write",
            path: tmp.display().to_string(),
            source: e.into_error(),
        })?;
        f.sync_all().map_err(persist_err("sync", &tmp))?;
    }
    std::fs::rename(&tmp, path).map_err(persist_err("rename", path))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// Reads and checks an 8-byte magic-and-version header: seven magic
/// bytes naming the record type (`what`), then the one version byte
/// this build reads.
pub(crate) fn read_head<R: Read>(r: &mut R, head: &[u8; 8], what: &str) -> Result<()> {
    let mut got = [0u8; 8];
    r.read_exact(&mut got)?;
    if got[..7] != head[..7] {
        return Err(Error::invalid(format!("not a falcon-down {what} (bad magic)")));
    }
    if got[7] != head[7] {
        return Err(Error::UnsupportedVersion {
            found: u32::from(got[7]),
            supported: u32::from(head[7]),
        });
    }
    Ok(())
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn bad(msg: &str) -> Error {
    Error::invalid(msg)
}

/// Converts a serialized u64 count into a usize, rejecting values that do
/// not fit the platform.
pub(crate) fn checked_count(v: u64, what: &str) -> Result<usize> {
    usize::try_from(v).map_err(|_| Error::invalid(format!("{what} does not fit this platform")))
}

/// Reads `count` little-endian u64 words without trusting `count` for an
/// upfront allocation: the vector grows in bounded chunks, so a hostile
/// header over a short stream fails with a read error after a small,
/// bounded allocation instead of aborting on OOM.
pub(crate) fn read_u64s<R: Read>(r: &mut R, count: usize) -> Result<Vec<u64>> {
    const CHUNK: usize = 8 << 10;
    let mut out = Vec::with_capacity(count.min(CHUNK));
    let mut buf = [0u8; 8 * 256];
    let mut left = count;
    while left > 0 {
        let batch = left.min(256);
        let bytes = &mut buf[..8 * batch];
        r.read_exact(bytes)?;
        out.extend(
            bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
        );
        left -= batch;
    }
    Ok(out)
}

/// Reads `count` little-endian f32 samples with the same bounded-growth
/// strategy as [`read_u64s`].
pub(crate) fn read_f32s<R: Read>(r: &mut R, count: usize) -> Result<Vec<f32>> {
    const CHUNK: usize = 16 << 10;
    let mut out = Vec::with_capacity(count.min(CHUNK));
    let mut buf = [0u8; 4 * 512];
    let mut left = count;
    while left > 0 {
        let batch = left.min(512);
        let bytes = &mut buf[..4 * batch];
        r.read_exact(bytes)?;
        out.extend(
            bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))),
        );
        left -= batch;
    }
    Ok(out)
}

/// Deserialises a dataset written by [`write_dataset`].
///
/// # Errors
///
/// Returns [`Error::InvalidData`] on a bad magic or implausible or
/// overflowing dimensions, [`Error::UnsupportedVersion`] on a version
/// this build does not understand, and [`Error::Io`] on truncation.
/// Dimension products are computed with checked arithmetic and the
/// payload is read incrementally, so a corrupt or hostile header cannot
/// trigger an abort-on-OOM or a capacity overflow.
pub fn read_dataset<R: Read>(mut r: R) -> Result<Dataset> {
    let hdr = read_dataset_header(&mut r)?;
    let knowns = read_u64s(&mut r, hdr.knowns_len())?;
    let points = read_f32s(&mut r, hdr.points_len())?;
    Dataset::try_from_columnar_parts(hdr.n, hdr.targets, hdr.traces, knowns, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope, StepKind};
    use falcon_sig::rng::Prng;
    use falcon_sig::{KeyPair, LogN};

    fn sample_dataset() -> Dataset {
        let mut rng = Prng::from_seed(b"io test key");
        let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, 1.0),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        let mut dev = Device::new(kp.into_parts().0, chain, b"io bench");
        let mut msgs = Prng::from_seed(b"io msgs");
        Dataset::collect(&mut dev, &[0, 2, 5], 12, &mut msgs)
    }

    fn assert_datasets_equal(a: &Dataset, b: &Dataset) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.targets(), b.targets());
        assert_eq!(a.traces(), b.traces());
        for trace in 0..a.traces() {
            for &t in a.targets() {
                for occ in 0..2 {
                    assert_eq!(a.known(trace, t, occ), b.known(trace, t, occ));
                    for step in StepKind::ALL {
                        assert_eq!(a.sample(trace, t, occ, step), b.sample(trace, t, occ, step));
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_v2() {
        let ds = sample_dataset();
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        assert_eq!(&buf[..8], b"FDNDSET\x02");
        let back = read_dataset(&buf[..]).unwrap();
        assert_datasets_equal(&back, &ds);
        // v2 is a byte dump of the columnar buffers: no transpose on load.
        assert_eq!(back.knowns_columnar(), ds.knowns_columnar());
        assert_eq!(back.points_columnar(), ds.points_columnar());
    }

    #[test]
    fn header_knows_the_byte_geometry() {
        let ds = sample_dataset();
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let hdr = read_dataset_header(&mut &buf[..]).unwrap();
        assert_eq!(hdr.version, VERSION_V2);
        assert_eq!(hdr.n, ds.n());
        assert_eq!(hdr.targets, ds.targets());
        assert_eq!(hdr.traces, ds.traces());
        assert_eq!(hdr.file_len(), buf.len() as u64);
        // The per-target ranges address exactly the columnar buffers.
        for (ti, &t) in ds.targets().iter().enumerate() {
            assert_eq!(hdr.target_slot(t), Some(ti));
            let (off, len) = hdr.target_knowns_range(ti);
            let bytes = &buf[off as usize..(off + len) as usize];
            let words: Vec<u64> =
                bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
            let base = ti * 2 * ds.traces();
            assert_eq!(words, ds.knowns_columnar()[base..base + 2 * ds.traces()]);
            let (off, len) = hdr.target_points_range(ti);
            let bytes = &buf[off as usize..(off + len) as usize];
            let samples: Vec<f32> =
                bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
            let base = ti * POINTS_PER_TARGET * ds.traces();
            assert_eq!(samples, ds.points_columnar()[base..base + POINTS_PER_TARGET * ds.traces()]);
        }
        assert_eq!(hdr.target_slot(ds.n()), None);
        // Header parsing must not consume the payload.
        let mut r = &buf[..];
        read_dataset_header(&mut r).unwrap();
        assert_eq!(r.len() as u64, buf.len() as u64 - hdr.header_len());
    }

    #[test]
    fn rejects_legacy_v1_row_major() {
        // Row-major v1 is rejected like any other unknown version; the
        // header check fires before the payload layout matters.
        let ds = sample_dataset();
        let mut v1 = Vec::new();
        write_dataset(&ds, &mut v1).unwrap();
        v1[7] = 1;
        assert!(matches!(
            read_dataset(&v1[..]),
            Err(Error::UnsupportedVersion { found: 1, supported: 2 })
        ));
    }

    #[test]
    fn unknown_version_is_a_typed_error() {
        let ds = sample_dataset();
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        buf[7] = 9;
        match read_dataset(&buf[..]) {
            Err(Error::UnsupportedVersion { found: 9, supported: 2 }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // A non-FDNDSET stream is a magic failure, not a version failure.
        buf[0] ^= 0xFF;
        assert!(matches!(read_dataset(&buf[..]), Err(Error::InvalidData(_))));
    }

    #[test]
    fn truncation_at_every_byte_fails_cleanly() {
        let mut rng = Prng::from_seed(b"io trunc key");
        let kp = KeyPair::generate(LogN::new(1).unwrap(), &mut rng);
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, 1.0),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        let mut dev = Device::new(kp.into_parts().0, chain, b"io trunc");
        let mut msgs = Prng::from_seed(b"io trunc msgs");
        let ds = Dataset::collect(&mut dev, &[0, 1], 3, &mut msgs);
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        for cut in 0..buf.len() {
            let r = read_dataset(&buf[..cut]);
            assert!(r.is_err(), "prefix of {cut}/{} bytes must not parse", buf.len());
        }
        assert!(read_dataset(&buf[..]).is_ok());
    }

    #[test]
    fn rejects_corruption() {
        let ds = sample_dataset();
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        // Bad magic.
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xFF;
        assert!(read_dataset(&bad_magic[..]).is_err());
        // Truncation.
        assert!(read_dataset(&buf[..buf.len() - 5]).is_err());
        // Absurd degree.
        let mut bad_n = buf.clone();
        bad_n[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_dataset(&bad_n[..]).is_err());
    }

    #[test]
    fn attack_works_on_reloaded_dataset() {
        use crate::attack::{recover_coefficient, AttackConfig};
        let mut rng = Prng::from_seed(b"io attack key");
        let kp = KeyPair::generate(LogN::new(3).unwrap(), &mut rng);
        let truth = kp.signing_key().f_fft()[0].to_bits();
        let chain = MeasurementChain {
            model: LeakageModel::hamming_weight(1.0, 0.5),
            lowpass: 0.0,
            scope: Scope { enabled: false, ..Default::default() },
            ..Default::default()
        };
        let mut dev = Device::new(kp.into_parts().0, chain, b"io attack");
        let mut msgs = Prng::from_seed(b"io attack msgs");
        let ds = Dataset::collect(&mut dev, &[0], 200, &mut msgs);
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let back = read_dataset(&buf[..]).unwrap();
        let r = recover_coefficient(&back, 0, &AttackConfig::default());
        assert_eq!(r.bits, truth);
    }
}
