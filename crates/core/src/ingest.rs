//! Foreign trace-archive ingestion.
//!
//! Real reproductions of the attack correlate against captured hardware
//! traces — ChipWhisperer campaigns, oscilloscope exports — not the
//! simulator. This module imports such archives into the columnar
//! `FDNDSET\x02` format once, after which they stream through
//! [`StreamedDataset`](crate::stream::StreamedDataset) like any native
//! dataset.
//!
//! # Archive layout
//!
//! An importable archive is a directory with a `manifest.txt` of
//! `key = value` lines:
//!
//! ```text
//! n = 8                     # ring degree of the attacked key
//! targets = 0, 2, 5         # targeted flat FFT(f) indices, file order
//! knowns = knowns.npy       # known operands, [trace][2·slot] u64
//! traces = traces.npy       # leakage, [trace][samples_per_trace] float
//! window.0 = 0              # column where target 0's 28 samples start
//! window.2 = 28
//! window.5 = 56
//! winsorize_k = 6.0         # optional robust outlier clamp (MAD units)
//! max_traces = 50000        # optional row cap
//! ```
//!
//! The knowns array has two columns per target slot (occurrence 0 then
//! 1, in `targets` order). Each target's window is 28 consecutive
//! sample columns: occurrence 0's 14 pipeline steps
//! ([`StepKind::ALL`] order) then occurrence 1's.
//!
//! Three trace containers are understood, selected by the `traces`
//! value:
//!
//! * **npy** (`*.npy`): a 2-D C-order `<f4`/`<f8` array — the
//!   numpy-native export every ChipWhisperer capture script produces;
//! * **CSV** (`*.csv`): one row of decimal floats per trace;
//! * **binary directory** (path ending in `/` or naming a directory):
//!   one raw little-endian f32 file per trace, lexicographic order —
//!   the ChipWhisperer Pro segment layout.
//!
//! The knowns container may be npy (`<u8`/`<i8`/`<u4`/`<i4`) or CSV
//! (decimal u64).

use crate::acquire::{Dataset, POINTS_PER_TARGET};
use crate::error::{Error, Result};
use crate::io::write_dataset;
use crate::screen::winsorize_dataset;
use crate::source::{scatter_rows, ColumnSource, TargetBlock};
use falcon_emsim::StepKind;
use std::io::Write;
use std::path::{Path, PathBuf};

fn bad(msg: impl Into<String>) -> Error {
    Error::invalid(msg.into())
}

// ---------------------------------------------------------------------------
// npy (numpy array file) reading and writing, std-only.
// ---------------------------------------------------------------------------

/// Element type of an npy array this importer understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NpyDescr {
    /// `<f4`
    F32,
    /// `<f8`
    F64,
    /// `<u4`
    U32,
    /// `<u8`
    U64,
    /// `<i4`
    I32,
    /// `<i8`
    I64,
}

impl NpyDescr {
    fn parse(s: &str) -> Result<Self> {
        match s {
            "<f4" | "|f4" => Ok(NpyDescr::F32),
            "<f8" | "|f8" => Ok(NpyDescr::F64),
            "<u4" | "|u4" => Ok(NpyDescr::U32),
            "<u8" | "|u8" => Ok(NpyDescr::U64),
            "<i4" | "|i4" => Ok(NpyDescr::I32),
            "<i8" | "|i8" => Ok(NpyDescr::I64),
            other => Err(bad(format!(
                "unsupported npy descr {other:?} (little-endian 4/8-byte ints and floats only)"
            ))),
        }
    }

    fn size(self) -> usize {
        match self {
            NpyDescr::F32 | NpyDescr::U32 | NpyDescr::I32 => 4,
            NpyDescr::F64 | NpyDescr::U64 | NpyDescr::I64 => 8,
        }
    }
}

/// A parsed 2-D npy array: row-major (`C order`) with `shape.0` rows of
/// `shape.1` elements, values widened to `f64` / `u64` on access.
#[derive(Debug, Clone)]
pub struct NpyArray {
    /// `(rows, cols)`.
    pub shape: (usize, usize),
    descr: NpyDescr,
    data: Vec<u8>,
}

impl NpyArray {
    /// Element `(row, col)` as a float (lossless for every supported
    /// float descr; integer descrs are converted).
    pub fn get_f64(&self, row: usize, col: usize) -> f64 {
        let i = (row * self.shape.1 + col) * self.descr.size();
        let b = &self.data[i..i + self.descr.size()];
        match self.descr {
            NpyDescr::F32 => f32::from_le_bytes(b.try_into().expect("4 bytes")) as f64,
            NpyDescr::F64 => f64::from_le_bytes(b.try_into().expect("8 bytes")),
            NpyDescr::U32 => u32::from_le_bytes(b.try_into().expect("4 bytes")) as f64,
            NpyDescr::U64 => u64::from_le_bytes(b.try_into().expect("8 bytes")) as f64,
            NpyDescr::I32 => i32::from_le_bytes(b.try_into().expect("4 bytes")) as f64,
            NpyDescr::I64 => i64::from_le_bytes(b.try_into().expect("8 bytes")) as f64,
        }
    }

    /// Element `(row, col)` reinterpreted as a u64 known operand
    /// (integer descrs only; signed values must be non-negative).
    pub fn get_u64(&self, row: usize, col: usize) -> Result<u64> {
        let i = (row * self.shape.1 + col) * self.descr.size();
        let b = &self.data[i..i + self.descr.size()];
        match self.descr {
            NpyDescr::U32 => Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")) as u64),
            NpyDescr::U64 => Ok(u64::from_le_bytes(b.try_into().expect("8 bytes"))),
            NpyDescr::I32 => u64::try_from(i32::from_le_bytes(b.try_into().expect("4 bytes")))
                .map_err(|_| bad("negative known operand")),
            NpyDescr::I64 => u64::try_from(i64::from_le_bytes(b.try_into().expect("8 bytes")))
                .map_err(|_| bad("negative known operand")),
            NpyDescr::F32 | NpyDescr::F64 => {
                Err(bad("known operands must be an integer npy array"))
            }
        }
    }
}

/// Parses an npy (version 1.0 or 2.0) byte buffer into a 2-D array.
/// 1-D arrays are accepted as a single column.
///
/// # Errors
///
/// [`Error::InvalidData`] on a bad magic, Fortran order, an
/// unsupported descr, >2 dimensions, or a payload/shape mismatch.
pub fn parse_npy(bytes: &[u8]) -> Result<NpyArray> {
    if bytes.len() < 10 || &bytes[..6] != b"\x93NUMPY" {
        return Err(bad("not an npy file (bad magic)"));
    }
    let (major, _minor) = (bytes[6], bytes[7]);
    let (header_len, header_start): (usize, usize) = match major {
        1 => (u16::from_le_bytes([bytes[8], bytes[9]]) as usize, 10),
        2 => {
            if bytes.len() < 12 {
                return Err(bad("truncated npy v2 header length"));
            }
            (u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize, 12)
        }
        v => return Err(bad(format!("unsupported npy major version {v}"))),
    };
    let header_end =
        header_start.checked_add(header_len).ok_or_else(|| bad("npy header length overflows"))?;
    if bytes.len() < header_end {
        return Err(bad("truncated npy header"));
    }
    let header = std::str::from_utf8(&bytes[header_start..header_end])
        .map_err(|_| bad("npy header is not utf-8"))?;
    let descr = NpyDescr::parse(&dict_str(header, "descr")?)?;
    match dict_raw(header, "fortran_order")?.as_str() {
        "False" => {}
        "True" => {
            return Err(bad("fortran_order npy arrays are not supported (save with C order)"))
        }
        other => return Err(bad(format!("malformed fortran_order {other:?}"))),
    }
    let shape_raw = dict_raw(header, "shape")?;
    let dims: Vec<usize> = shape_raw
        .trim_start_matches('(')
        .trim_end_matches(')')
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<usize>().map_err(|_| bad(format!("malformed npy shape {shape_raw:?}"))))
        .collect::<Result<_>>()?;
    let shape = match dims.len() {
        1 => (dims[0], 1),
        2 => (dims[0], dims[1]),
        d => return Err(bad(format!("{d}-dimensional npy arrays are not supported"))),
    };
    let expect = shape
        .0
        .checked_mul(shape.1)
        .and_then(|e| e.checked_mul(descr.size()))
        .ok_or_else(|| bad("npy element count overflows"))?;
    let data = &bytes[header_end..];
    if data.len() != expect {
        return Err(bad(format!("npy payload is {} bytes, shape implies {expect}", data.len())));
    }
    Ok(NpyArray { shape, descr, data: data.to_vec() })
}

/// Extracts the raw (unquoted) value of `key` from an npy header dict.
fn dict_raw(header: &str, key: &str) -> Result<String> {
    let pat = format!("'{key}':");
    let at = header.find(&pat).ok_or_else(|| bad(format!("npy header misses {key:?}")))?;
    let rest = header[at + pat.len()..].trim_start();
    let end = if rest.starts_with('(') {
        rest.find(')').map(|e| e + 1).ok_or_else(|| bad("unterminated npy shape tuple"))?
    } else {
        rest.find([',', '}']).ok_or_else(|| bad("unterminated npy header value"))?
    };
    Ok(rest[..end].trim().to_string())
}

/// Extracts a quoted string value of `key` from an npy header dict.
fn dict_str(header: &str, key: &str) -> Result<String> {
    let raw = dict_raw(header, key)?;
    Ok(raw.trim_matches(|c| c == '\'' || c == '"').to_string())
}

/// Serialises a 2-D array as npy v1.0 (C order, little-endian).
/// `descr` must be one of the supported element types; `data` supplies
/// raw little-endian elements, `rows · cols` of them.
pub fn write_npy<W: Write>(
    mut w: W,
    descr: &str,
    rows: usize,
    cols: usize,
    data: &[u8],
) -> Result<()> {
    let mut header =
        format!("{{'descr': '{descr}', 'fortran_order': False, 'shape': ({rows}, {cols}), }}");
    // Pad the total preamble (10 magic/len bytes + header) to 64 bytes,
    // newline-terminated, exactly like numpy.save.
    let pad = 64 - (10 + header.len() + 1) % 64;
    header.extend(std::iter::repeat_n(' ', pad % 64));
    header.push('\n');
    w.write_all(b"\x93NUMPY\x01\x00")?;
    let hl = u16::try_from(header.len()).map_err(|_| bad("npy header too long"))?;
    w.write_all(&hl.to_le_bytes())?;
    w.write_all(header.as_bytes())?;
    w.write_all(data)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Text lines.
// ---------------------------------------------------------------------------

/// The lines of `text` that carry data, trimmed, with their 1-based
/// line numbers: blank lines and `#` comments are skipped.
fn data_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let lines = text.lines().enumerate().map(|(no, line)| (no + 1, line.trim()));
    lines.filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
}

/// The `key = value` data lines of `text`, key and value trimmed, with
/// their line numbers; `what` names the text in the error for a line
/// without `=`.
fn key_values<'a>(
    text: &'a str,
    what: &'a str,
) -> impl Iterator<Item = Result<(usize, &'a str, &'a str)>> + 'a {
    data_lines(text).map(move |(no, line)| {
        let (k, v) =
            line.split_once('=').ok_or_else(|| bad(format!("{what} line {no}: missing '='")))?;
        Ok((no, k.trim(), v.trim()))
    })
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

/// A parsed `manifest.txt`: ordered `key = value` pairs ('#' comments
/// and blank lines ignored).
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    entries: Vec<(String, String)>,
}

impl Manifest {
    /// Parses manifest text.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidData`] on a line without `=`.
    pub fn parse(text: &str) -> Result<Manifest> {
        let entries = key_values(text, "manifest")
            .map(|kv| kv.map(|(_, k, v)| (k.to_string(), v.to_string())))
            .collect::<Result<_>>()?;
        Ok(Manifest { entries })
    }

    /// Last value for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str> {
        self.get(key).ok_or_else(|| bad(format!("manifest misses required key {key:?}")))
    }

    fn parse_usize(&self, key: &str) -> Result<usize> {
        let v = self.require(key)?;
        v.parse().map_err(|_| bad(format!("manifest {key} = {v:?} is not an integer")))
    }
}

// ---------------------------------------------------------------------------
// Trace / known containers.
// ---------------------------------------------------------------------------

/// Leakage rows loaded from any supported container:
/// `[trace][sample column]`.
#[derive(Debug, Clone)]
pub struct TraceRows {
    /// Samples per trace.
    pub cols: usize,
    /// Row-major samples, `rows · cols`.
    pub samples: Vec<f32>,
}

impl TraceRows {
    /// Number of traces.
    pub fn rows(&self) -> usize {
        self.samples.len().checked_div(self.cols).unwrap_or(0)
    }
}

/// Loads trace rows from `path`: `.npy`, `.csv`, or a directory of raw
/// f32-LE files (one trace per file, lexicographic order).
///
/// # Errors
///
/// Typed errors on unreadable files, malformed containers, or ragged
/// rows.
pub fn read_trace_rows(path: &Path) -> Result<TraceRows> {
    if path.is_dir() {
        return read_trace_dir(path);
    }
    let (cols, samples) = match path.extension().and_then(|e| e.to_str()) {
        Some("npy") => read_npy_rows(path, |arr, r, c| Ok(arr.get_f64(r, c) as f32))?,
        Some("csv") => read_csv_rows(path, "trace csv row", "a float", |s| s.parse().ok())?,
        _ => {
            return Err(bad(format!(
                "unsupported trace container {:?} (.npy, .csv, or a directory)",
                path.display()
            )))
        }
    };
    Ok(TraceRows { cols, samples })
}

/// Every element of a 2-D npy file, row-major, read through `get`,
/// with the row width.
fn read_npy_rows<T>(
    path: &Path,
    get: impl Fn(&NpyArray, usize, usize) -> Result<T>,
) -> Result<(usize, Vec<T>)> {
    let arr = parse_npy(&std::fs::read(path)?)?;
    let (rows, cols) = arr.shape;
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            out.push(get(&arr, r, c)?);
        }
    }
    Ok((cols, out))
}

/// Every cell of a CSV file, row-major, with the row width: one
/// comma-separated row per data line, each as wide as the first.
/// `parse` reads one trimmed cell; a cell it rejects is reported as
/// not being `ty`, and a ragged row as a [`Error::ShapeMismatch`] of
/// `what` (`"trace csv row"`, whose lines are called `trace csv line`).
fn read_csv_rows<T>(
    path: &Path,
    what: &'static str,
    ty: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<(usize, Vec<T>)> {
    let text = std::fs::read_to_string(path)?;
    let line_name = what.trim_end_matches(" row");
    let mut cols = 0usize;
    let mut out = Vec::new();
    for (no, line) in data_lines(&text) {
        let start = out.len();
        for s in line.split(',').map(str::trim) {
            let v =
                parse(s).ok_or_else(|| bad(format!("{line_name} line {no}: {s:?} is not {ty}")))?;
            out.push(v);
        }
        let got = out.len() - start;
        if cols == 0 {
            cols = got;
        } else if got != cols {
            return Err(Error::ShapeMismatch { what, expected: cols, got });
        }
    }
    Ok((cols, out))
}

/// The ChipWhisperer segment layout: one raw little-endian f32 file per
/// trace; every file must have the same length.
fn read_trace_dir(dir: &Path) -> Result<TraceRows> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    // read_dir order is filesystem-dependent; the trace order must not
    // be, so sort by name.
    files.sort();
    if files.is_empty() {
        return Err(bad(format!("trace directory {:?} is empty", dir.display())));
    }
    // The first file sets the row length, even when it is empty.
    let mut cols = None;
    let mut samples = Vec::new();
    for f in &files {
        let raw = std::fs::read(f)?;
        if raw.len() % 4 != 0 {
            return Err(bad(format!("{:?} is not a whole number of f32 samples", f.display())));
        }
        let n = raw.len() / 4;
        let expected = *cols.get_or_insert(n);
        if n != expected {
            return Err(Error::ShapeMismatch { what: "binary trace file", expected, got: n });
        }
        samples.extend(
            raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))),
        );
    }
    Ok(TraceRows { cols: cols.unwrap_or(0), samples })
}

/// Loads known-operand rows (`[trace][2·slot]` u64) from `.npy` or
/// `.csv`.
///
/// # Errors
///
/// Typed errors on unreadable files, malformed containers, or ragged
/// rows.
pub fn read_known_rows(path: &Path) -> Result<(usize, Vec<u64>)> {
    let hex_or_decimal = |s: &str| match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    };
    match path.extension().and_then(|e| e.to_str()) {
        Some("npy") => read_npy_rows(path, NpyArray::get_u64),
        Some("csv") => read_csv_rows(path, "known csv row", "a u64", hex_or_decimal),
        _ => Err(bad(format!("unsupported known container {:?} (.npy or .csv)", path.display()))),
    }
}

// ---------------------------------------------------------------------------
// Import.
// ---------------------------------------------------------------------------

/// Accounting of one archive import.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImportReport {
    /// Traces imported (after any `max_traces` cap).
    pub traces: usize,
    /// Targets imported.
    pub targets: usize,
    /// Samples clamped by the optional winsorisation pass.
    pub winsorized: usize,
}

/// Imports a foreign archive directory (see the module docs for the
/// layout) into a resident [`Dataset`].
///
/// # Errors
///
/// Typed errors for a missing/malformed manifest, container shape
/// mismatches, out-of-range targets or windows, or trace/known row
/// count disagreement.
pub fn import_archive(dir: &Path) -> Result<(Dataset, ImportReport)> {
    let manifest = Manifest::parse(&std::fs::read_to_string(dir.join("manifest.txt"))?)?;
    let n = manifest.parse_usize("n")?;
    let targets: Vec<usize> = manifest
        .require("targets")?
        .split(',')
        .map(|s| {
            let s = s.trim();
            s.parse::<usize>().map_err(|_| bad(format!("manifest target {s:?} is not an integer")))
        })
        .collect::<Result<_>>()?;
    if targets.is_empty() {
        return Err(bad("manifest names no targets"));
    }
    let rows = read_trace_rows(&dir.join(manifest.require("traces")?))?;
    let (kcols, knowns_rows) = read_known_rows(&dir.join(manifest.require("knowns")?))?;
    if kcols != 2 * targets.len() {
        return Err(Error::ShapeMismatch {
            what: "known columns (2 per target)",
            expected: 2 * targets.len(),
            got: kcols,
        });
    }
    let mut traces = rows.rows();
    let krows = knowns_rows.len().checked_div(kcols).unwrap_or(0);
    if krows != traces {
        return Err(Error::ShapeMismatch { what: "known rows", expected: traces, got: krows });
    }
    if let Some(cap) = manifest.get("max_traces") {
        let cap: usize = cap
            .parse()
            .map_err(|_| bad(format!("manifest max_traces = {cap:?} is not an integer")))?;
        traces = traces.min(cap);
    }
    if traces == 0 {
        return Err(bad("archive holds no traces"));
    }
    // Per-target window offsets into the trace rows.
    let mut windows = Vec::with_capacity(targets.len());
    for &t in &targets {
        let off = manifest.parse_usize(&format!("window.{t}"))?;
        let end = off
            .checked_add(POINTS_PER_TARGET)
            .ok_or_else(|| bad(format!("window.{t} overflows")))?;
        if end > rows.cols {
            return Err(bad(format!(
                "window.{t} = {off} needs {POINTS_PER_TARGET} columns but traces have {}",
                rows.cols
            )));
        }
        windows.push(off);
    }
    // One row per trace: its known operands and its target windows.
    let windowed: Vec<(Vec<u64>, Vec<f32>)> = (0..traces)
        .map(|trace| {
            let row = &rows.samples[trace * rows.cols..][..rows.cols];
            let points = windows.iter().flat_map(|&off| &row[off..off + POINTS_PER_TARGET]);
            (knowns_rows[trace * kcols..][..kcols].to_vec(), points.copied().collect())
        })
        .collect();
    let mut ds = scatter_rows(n, &targets, &windowed)?;
    let mut winsorized = 0;
    if let Some(k) = manifest.get("winsorize_k") {
        let k: f64 =
            k.parse().map_err(|_| bad(format!("manifest winsorize_k = {k:?} is not a float")))?;
        if k > 0.0 {
            winsorized = winsorize_dataset(&mut ds, k);
        }
    }
    crate::obs::counter("ingest.traces").add(traces as u64);
    let report = ImportReport { traces, targets: ds.targets().len(), winsorized };
    Ok((ds, report))
}

/// Imports an archive directory and writes it as an `FDNDSET\x02` file
/// (atomically, so a crashed import never leaves a torn dataset).
///
/// # Errors
///
/// See [`import_archive`]; plus [`Error::Persist`] from the write.
pub fn import_archive_to_path(dir: &Path, out: &Path) -> Result<ImportReport> {
    let (ds, report) = import_archive(dir)?;
    crate::io::atomic_write(out, |w| write_dataset(&ds, w))?;
    Ok(report)
}

// ---------------------------------------------------------------------------
// Fixture generation (simulated archive in the foreign layout).
// ---------------------------------------------------------------------------

/// Writes a synthetic npy-style archive captured from the device
/// simulator: `traces.npy` (`<f4`), `knowns.npy` (`<u8`),
/// `manifest.txt`, and `truth.txt` (one hex `FFT(f)` coefficient per
/// targeted index). Returns the ground-truth bits in target order.
///
/// The archive exercises the exact import mapping real captures use,
/// so the CI round-trip (fixture → import → stream → attack) validates
/// the full foreign-data path.
///
/// # Errors
///
/// Propagates I/O errors; [`Error::BadDegree`] for an invalid `logn`.
pub fn write_fixture_archive(
    dir: &Path,
    logn: u32,
    targets: &[usize],
    traces: usize,
    noise: f64,
    seed: &[u8],
) -> Result<Vec<u64>> {
    use falcon_emsim::{Device, LeakageModel, MeasurementChain, Scope};
    use falcon_sig::rng::Prng;
    use falcon_sig::{KeyPair, LogN};

    let logn = LogN::new(logn).ok_or(Error::BadDegree { n: 1 << logn })?;
    let mut rng = Prng::from_seed(seed);
    let kp = KeyPair::generate(logn, &mut rng);
    let truth: Vec<u64> = targets.iter().map(|&t| kp.signing_key().f_fft()[t].to_bits()).collect();
    let chain = MeasurementChain {
        model: LeakageModel::hamming_weight(1.0, noise),
        lowpass: 0.0,
        scope: Scope { enabled: false, ..Default::default() },
        ..Default::default()
    };
    let mut dev = Device::new(kp.into_parts().0, chain, seed);
    let mut msgs = Prng::from_seed(b"ingest fixture msgs");
    let ds = Dataset::collect(&mut dev, targets, traces, &mut msgs);

    std::fs::create_dir_all(dir)?;
    // Row-major trace array: each row concatenates every target's
    // 28-sample window, in target order.
    let cols = targets.len() * POINTS_PER_TARGET;
    let mut tbytes = Vec::with_capacity(ds.traces() * cols * 4);
    let mut kbytes = Vec::with_capacity(ds.traces() * targets.len() * 2 * 8);
    let blocks: Vec<TargetBlock<'_>> =
        targets.iter().map(|&t| ds.target_block(t)).collect::<Result<_>>()?;
    for trace in 0..ds.traces() {
        for block in &blocks {
            for occ in 0..2 {
                for &step in StepKind::ALL.iter() {
                    tbytes.extend_from_slice(&block.sample(trace, occ, step).to_le_bytes());
                }
            }
        }
        for block in &blocks {
            for occ in 0..2 {
                kbytes.extend_from_slice(&block.known(trace, occ).to_le_bytes());
            }
        }
    }
    let mut tf = Vec::new();
    write_npy(&mut tf, "<f4", ds.traces(), cols, &tbytes)?;
    crate::io::atomic_write(&dir.join("traces.npy"), |w| Ok(w.write_all(&tf)?))?;
    let mut kf = Vec::new();
    write_npy(&mut kf, "<u8", ds.traces(), targets.len() * 2, &kbytes)?;
    crate::io::atomic_write(&dir.join("knowns.npy"), |w| Ok(w.write_all(&kf)?))?;

    let mut manifest = String::new();
    manifest.push_str("# synthetic falcon-down capture fixture\n");
    manifest.push_str(&format!("n = {}\n", ds.n()));
    let tlist: Vec<String> = targets.iter().map(|t| t.to_string()).collect();
    manifest.push_str(&format!("targets = {}\n", tlist.join(", ")));
    manifest.push_str("traces = traces.npy\n");
    manifest.push_str("knowns = knowns.npy\n");
    for (ti, &t) in targets.iter().enumerate() {
        manifest.push_str(&format!("window.{t} = {}\n", ti * POINTS_PER_TARGET));
    }
    crate::io::atomic_write(&dir.join("manifest.txt"), |w| Ok(w.write_all(manifest.as_bytes())?))?;

    let mut truth_txt = String::new();
    for (&t, &bits) in targets.iter().zip(&truth) {
        truth_txt.push_str(&format!("{t} = {bits:#018x}\n"));
    }
    crate::io::atomic_write(&dir.join("truth.txt"), |w| Ok(w.write_all(truth_txt.as_bytes())?))?;
    Ok(truth)
}

/// Parses a `truth.txt` written by [`write_fixture_archive`] into
/// `(target, bits)` pairs.
///
/// # Errors
///
/// [`Error::InvalidData`] on malformed lines.
pub fn parse_truth(text: &str) -> Result<Vec<(usize, u64)>> {
    key_values(text, "truth")
        .map(|kv| {
            let (no, t, b) = kv?;
            let target =
                t.parse::<usize>().map_err(|_| bad(format!("truth line {no}: bad target")))?;
            let bits = u64::from_str_radix(b.trim_start_matches("0x"), 16)
                .map_err(|_| bad(format!("truth line {no}: bad bits")))?;
            Ok((target, bits))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{recover_coefficient_block, AttackConfig};
    use crate::source::ColumnSource;
    use crate::stream::StreamedDataset;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("falcon-ingest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn npy_roundtrip() {
        let vals: Vec<f32> = (0..12).map(|i| i as f32 * 0.5 - 2.0).collect();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut buf = Vec::new();
        write_npy(&mut buf, "<f4", 3, 4, &bytes).unwrap();
        // numpy-compatible preamble: 64-byte aligned, newline-terminated.
        assert_eq!((10 + u16::from_le_bytes([buf[8], buf[9]]) as usize) % 64, 0);
        let arr = parse_npy(&buf).unwrap();
        assert_eq!(arr.shape, (3, 4));
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(arr.get_f64(r, c) as f32, vals[r * 4 + c]);
            }
        }
    }

    #[test]
    fn npy_rejects_malformations() {
        assert!(parse_npy(b"not an npy").is_err());
        let bytes: Vec<u8> = 7u64.to_le_bytes().into();
        let mut buf = Vec::new();
        write_npy(&mut buf, "<u8", 1, 1, &bytes).unwrap();
        // Truncation at every byte.
        for cut in 0..buf.len() {
            assert!(parse_npy(&buf[..cut]).is_err(), "cut at {cut}");
        }
        // Fortran order.
        let mut fortran = buf.clone();
        let at = fortran.windows(5).position(|w| w == b"False").unwrap();
        fortran.splice(at..at + 5, b"True ".iter().copied());
        assert!(parse_npy(&fortran).is_err());
        // Unsupported descr.
        let mut wide = buf.clone();
        let at = wide.windows(3).position(|w| w == b"<u8").unwrap();
        wide[at..at + 3].copy_from_slice(b"<c8");
        assert!(parse_npy(&wide).is_err());
    }

    #[test]
    fn fixture_roundtrips_through_import_stream_and_attack() {
        let dir = tmpdir("roundtrip");
        let truth = write_fixture_archive(&dir, 3, &[0, 4], 220, 0.5, b"ingest test").unwrap();
        let (ds, report) = import_archive(&dir).unwrap();
        assert_eq!(report.traces, 220);
        assert_eq!(report.targets, 2);
        assert_eq!(ds.targets(), &[0, 4]);
        // Import → serialise → stream: the attack over the streamed
        // archive recovers the planted key coefficients exactly.
        let out = dir.join("fixture.fdnd");
        import_archive_to_path(&dir, &out).unwrap();
        let sd = StreamedDataset::open_default(&out).unwrap();
        for (&t, &bits) in [0usize, 4].iter().zip(&truth) {
            let r =
                recover_coefficient_block(&sd.target_block(t).unwrap(), &AttackConfig::default());
            assert_eq!(r.bits, bits, "target {t}");
        }
        // And the resident import scores identically (bit-identical
        // columns on both paths).
        for &t in &[0usize, 4] {
            let sb = sd.target_block(t).unwrap();
            let rb = ColumnSource::target_block(&ds, t).unwrap();
            assert_eq!(sb.known_column(0), rb.known_column(0));
        }
        let parsed = parse_truth(&std::fs::read_to_string(dir.join("truth.txt")).unwrap()).unwrap();
        assert_eq!(parsed, vec![(0, truth[0]), (4, truth[1])]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_and_binary_containers_import_identically() {
        // Generate an npy fixture, then re-express its containers as
        // CSV and as a binary trace directory: all three imports must
        // produce byte-identical datasets.
        let dir = tmpdir("containers");
        write_fixture_archive(&dir, 3, &[1], 24, 0.0, b"containers").unwrap();
        let (base, _) = import_archive(&dir).unwrap();

        // CSV traces + CSV knowns.
        let rows = read_trace_rows(&dir.join("traces.npy")).unwrap();
        let mut csv = String::new();
        for r in 0..rows.rows() {
            let row: Vec<String> =
                (0..rows.cols).map(|c| format!("{:.e}", rows.samples[r * rows.cols + c])).collect();
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        std::fs::write(dir.join("traces.csv"), &csv).unwrap();
        let (kcols, knowns) = read_known_rows(&dir.join("knowns.npy")).unwrap();
        let mut kcsv = String::new();
        for r in 0..knowns.len() / kcols {
            let row: Vec<String> =
                (0..kcols).map(|c| format!("{:#x}", knowns[r * kcols + c])).collect();
            kcsv.push_str(&row.join(","));
            kcsv.push('\n');
        }
        std::fs::write(dir.join("knowns.csv"), &kcsv).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.txt"))
            .unwrap()
            .replace("traces.npy", "traces.csv")
            .replace("knowns.npy", "knowns.csv");
        std::fs::write(dir.join("manifest.txt"), &manifest).unwrap();
        let (csv_ds, _) = import_archive(&dir).unwrap();
        let archive = |ds: &Dataset| {
            let mut bytes = Vec::new();
            write_dataset(ds, &mut bytes).unwrap();
            bytes
        };
        let base = archive(&base);
        assert!(archive(&csv_ds) == base, "csv float round-trip must be exact");

        // Binary trace directory (ChipWhisperer segment layout).
        let bin = dir.join("traces");
        std::fs::create_dir_all(&bin).unwrap();
        for r in 0..rows.rows() {
            let raw: Vec<u8> = (0..rows.cols)
                .flat_map(|c| rows.samples[r * rows.cols + c].to_le_bytes())
                .collect();
            std::fs::write(bin.join(format!("trace_{r:05}.bin")), &raw).unwrap();
        }
        let manifest = manifest.replace("traces.csv", "traces");
        std::fs::write(dir.join("manifest.txt"), &manifest).unwrap();
        let (bin_ds, _) = import_archive(&dir).unwrap();
        assert!(archive(&bin_ds) == base, "binary container must import bit-identically");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn import_rejects_malformed_archives() {
        let dir = tmpdir("malformed");
        write_fixture_archive(&dir, 3, &[0], 16, 0.0, b"malformed").unwrap();
        let good = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
        // Missing manifest key.
        std::fs::write(dir.join("manifest.txt"), good.replace("knowns = knowns.npy\n", ""))
            .unwrap();
        assert!(import_archive(&dir).is_err());
        // Window out of range.
        std::fs::write(dir.join("manifest.txt"), good.replace("window.0 = 0", "window.0 = 9999"))
            .unwrap();
        assert!(import_archive(&dir).is_err());
        // Out-of-range target index.
        std::fs::write(
            dir.join("manifest.txt"),
            good.replace("targets = 0", "targets = 63").replace("window.0", "window.63"),
        )
        .unwrap();
        assert!(import_archive(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn import_rejects_non_finite_samples() {
        let dir = tmpdir("nonfinite");
        write_fixture_archive(&dir, 3, &[0], 16, 0.0, b"nonfinite").unwrap();
        let path = dir.join("traces.npy");
        let mut npy = std::fs::read(&path).unwrap();
        // The first payload element: trace 0, column 0 (window.0 = 0).
        let at = 10 + u16::from_le_bytes([npy[8], npy[9]]) as usize;
        npy[at..at + 4].copy_from_slice(&f32::INFINITY.to_le_bytes());
        std::fs::write(&path, &npy).unwrap();
        match import_archive(&dir) {
            Err(Error::InvalidData(msg)) => assert!(msg.contains("finite"), "{msg}"),
            other => panic!("expected InvalidData, got {:?}", other.map(|(_, r)| r)),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_traces_and_winsorize_knobs_apply() {
        let dir = tmpdir("knobs");
        write_fixture_archive(&dir, 3, &[2], 64, 1.0, b"knobs").unwrap();
        let good = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
        std::fs::write(
            dir.join("manifest.txt"),
            format!("{good}max_traces = 40\nwinsorize_k = 3.0\n"),
        )
        .unwrap();
        let (ds, report) = import_archive(&dir).unwrap();
        assert_eq!(ds.traces(), 40);
        assert_eq!(report.traces, 40);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
