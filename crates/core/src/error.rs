//! Crate-wide typed errors.
//!
//! Library entry points that can fail on untrusted input (serialized
//! datasets and checkpoints), inconsistent dimensions, or exhausted
//! acquisition budgets return [`Error`] instead of panicking, so a
//! long-running campaign degrades gracefully. The original panicking
//! constructors remain as thin `#[track_caller]` wrappers where tests
//! and exploratory code rely on them.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// The error type for acquisition, persistence and campaign operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Underlying I/O failure (reading/writing datasets, checkpoints).
    Io(std::io::Error),
    /// Malformed or hostile serialized input.
    InvalidData(String),
    /// A target index is out of range for the ring degree.
    TargetOutOfRange {
        /// The offending flat `FFT(f)` index.
        target: usize,
        /// The ring degree it must stay below.
        n: usize,
    },
    /// A requested target is not one of the dataset's targets.
    TargetNotInDataset {
        /// The missing flat `FFT(f)` index.
        target: usize,
    },
    /// Component lengths are inconsistent with the claimed dimensions.
    ShapeMismatch {
        /// Which component is inconsistent.
        what: &'static str,
        /// The length implied by the dimensions.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// Ring degree is not a supported power of two.
    BadDegree {
        /// The rejected degree.
        n: usize,
    },
    /// A serialized format version this build does not understand.
    UnsupportedVersion {
        /// The version found in the input.
        found: u32,
        /// The newest version this build supports.
        supported: u32,
    },
    /// Acquisition could not make progress (e.g. screening rejected
    /// every trace of a batch).
    Acquisition(String),
    /// An atomic persistence step (temp write, fsync, rename, directory
    /// fsync) failed; names the step and the destination path so crash
    /// reports say exactly which durability guarantee was lost.
    Persist {
        /// The step that failed: `"create"`, `"write"`, `"sync"`,
        /// `"rename"`, `"sync-dir"`.
        op: &'static str,
        /// The destination path of the atomic write.
        path: String,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
    /// A parallel worker panicked; the panic was captured instead of
    /// tearing down the process, so supervisors can retry the work.
    WorkerPanicked {
        /// The work-unit (chunk) index whose closure panicked.
        chunk: usize,
        /// The stringified panic payload.
        payload: String,
    },
    /// An orchestrated job violated a supervision constraint (bad spec,
    /// unknown job, illegal state transition).
    Orchestration(String),
}

impl Error {
    /// Shorthand for an [`Error::InvalidData`] with a formatted message.
    pub(crate) fn invalid(msg: impl Into<String>) -> Error {
        Error::InvalidData(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::InvalidData(msg) => write!(f, "invalid data: {msg}"),
            Error::TargetOutOfRange { target, n } => {
                write!(f, "target {target} out of range for ring degree {n}")
            }
            Error::TargetNotInDataset { target } => {
                write!(f, "target {target} is not part of the dataset")
            }
            Error::ShapeMismatch { what, expected, got } => {
                write!(f, "{what}: expected {expected} elements, got {got}")
            }
            Error::BadDegree { n } => {
                write!(f, "ring degree {n} is not a supported power of two")
            }
            Error::UnsupportedVersion { found, supported } => {
                write!(f, "format version {found} not supported (this build reads <= {supported})")
            }
            Error::Acquisition(msg) => write!(f, "acquisition failed: {msg}"),
            Error::Persist { op, path, source } => {
                write!(f, "atomic persistence failed during {op} of {path}: {source}")
            }
            Error::WorkerPanicked { chunk, payload } => {
                write!(f, "parallel worker panicked on chunk {chunk}: {payload}")
            }
            Error::Orchestration(msg) => write!(f, "orchestration error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Persist { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::TargetOutOfRange { target: 9, n: 8 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('8'));
        let e = Error::ShapeMismatch { what: "points", expected: 28, got: 27 };
        assert!(e.to_string().contains("points"));
        let e = Error::from(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof"));
        assert!(matches!(e, Error::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
