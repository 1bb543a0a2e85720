//! Error type shared by the trace containers, formats, and translation.

use extrap_time::ThreadId;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Everything that can go wrong while building, validating, serializing,
/// or translating traces.  Cloning is cheap: an I/O failure is shared,
/// so a memoized error (see `extrap_core::SharedTraceCache`) comes back
/// whole on every hit.
#[derive(Clone, Debug)]
pub enum TraceError {
    /// A record references a thread id outside `0..n_threads`.
    BadThread {
        /// Index of the offending record in the global stream.
        record: usize,
        /// The referenced thread.
        thread: ThreadId,
        /// The trace's declared thread count.
        n_threads: usize,
    },
    /// Global timestamps went backwards.
    TimeRegression {
        /// Index of the offending record.
        record: usize,
    },
    /// A per-thread timestamp went backwards.
    ThreadTimeRegression {
        /// The thread whose clock regressed.
        thread: ThreadId,
        /// Index of the offending record within the thread trace.
        record: usize,
    },
    /// A thread trace is stored at the wrong position, or contains records
    /// of another thread.
    MisplacedThread {
        /// Position in the trace set.
        position: usize,
        /// Thread id actually found.
        thread: ThreadId,
    },
    /// Threads disagree on the barrier sequence — the program violates the
    /// data-parallel determinism assumption (§5).
    BarrierMismatch {
        /// First thread whose barrier sequence deviates from the reference.
        thread: ThreadId,
        /// The thread it was compared against: thread 0 for whole sets
        /// and barrier counts, the first thread to reach the epoch for a
        /// barrier id seen during translation.
        reference: ThreadId,
    },
    /// A barrier was exited before every thread entered it, or entered
    /// twice without an exit.
    BarrierProtocol {
        /// The offending thread.
        thread: ThreadId,
        /// Description of the violation.
        detail: String,
    },
    /// The bytes carry neither trace magic (`XTRP` nor `XTPS`), or are
    /// too short to carry one.
    NotATrace,
    /// Binary format corruption.
    Format {
        /// Description of the corruption.
        detail: String,
    },
    /// A caller's gate rejected the trace (e.g. the experiment harness
    /// found lint errors in a fresh translation).
    Validation {
        /// Rendered description of the rejection.
        detail: String,
    },
    /// Underlying I/O failure.
    Io(Arc<io::Error>),
    /// Any of the above, annotated with the file it occurred in.  Produced
    /// by the file-backed streaming readers so a refill failure mid-file
    /// reports the path, not just the offset.
    InFile {
        /// The file being read when the error occurred.
        path: PathBuf,
        /// The underlying error.
        source: Box<TraceError>,
    },
}

impl TraceError {
    /// Annotates this error with the file it occurred in.  Idempotent: an
    /// error already carrying a path is returned unchanged (the innermost
    /// attribution wins).
    pub fn in_file(self, path: impl AsRef<Path>) -> TraceError {
        match self {
            e @ TraceError::InFile { .. } => e,
            e => TraceError::InFile {
                path: path.as_ref().to_path_buf(),
                source: Box::new(e),
            },
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadThread {
                record,
                thread,
                n_threads,
            } => write!(
                f,
                "record {record} references {thread} but the trace has {n_threads} threads"
            ),
            TraceError::TimeRegression { record } => {
                write!(f, "global timestamp regression at record {record}")
            }
            TraceError::ThreadTimeRegression { thread, record } => {
                write!(f, "timestamp regression in {thread} at record {record}")
            }
            TraceError::MisplacedThread { position, thread } => {
                write!(
                    f,
                    "trace at position {position} contains records of {thread}"
                )
            }
            TraceError::BarrierMismatch { thread, reference } => write!(
                f,
                "{thread} passes a different barrier sequence than thread {} \
                 (program is not deterministically data-parallel)",
                reference.0
            ),
            TraceError::BarrierProtocol { thread, detail } => {
                write!(f, "barrier protocol violation in {thread}: {detail}")
            }
            TraceError::NotATrace => write!(f, "not a trace image (expected XTRP or XTPS magic)"),
            TraceError::Format { detail } => write!(f, "malformed trace: {detail}"),
            TraceError::Validation { detail } => {
                write!(f, "trace rejected by validation: {detail}")
            }
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::InFile { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e.as_ref()),
            TraceError::InFile { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(Arc::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TraceError::BarrierMismatch {
            thread: ThreadId(3),
            reference: ThreadId(1),
        };
        assert!(e.to_string().contains("T3"));
        assert!(e.to_string().contains("than thread 1"));
        let e = TraceError::Format {
            detail: "bad magic".into(),
        };
        assert!(e.to_string().contains("bad magic"));
    }

    #[test]
    fn in_file_annotates_and_is_idempotent() {
        let e = TraceError::Format {
            detail: "bad magic".into(),
        }
        .in_file("a.xtrp");
        assert_eq!(e.to_string(), "a.xtrp: malformed trace: bad magic");
        // Re-wrapping keeps the innermost (most precise) attribution.
        let e = e.in_file("b.xtrp");
        assert_eq!(e.to_string(), "a.xtrp: malformed trace: bad magic");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn io_error_converts() {
        let e: TraceError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(matches!(e, TraceError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
