//! Reading translated trace sets from files.
//!
//! [`read_set_file`] materializes a whole [`TraceSet`] for the tools
//! that need one (`extrap timeline`).  Simulation, statistics and
//! reports never do: they open a raw or translated file through
//! [`TraceStream`](crate::TraceStream) and walk it straight into a
//! compiled program (`extrap_core::compile_trace_stream`), with a
//! [`PhaseFold`](crate::PhaseFold) riding the same pass.  Raw,
//! unvalidated decoding for diagnostics lives in [`crate::format`] and
//! [`crate::stream`].

use crate::error::TraceError;
use crate::event::TraceSet;
use crate::stream::SetStream;
use std::path::Path;

/// Reads a translated trace set from a file and enforces its structural
/// invariants ([`TraceSet::validate`]).
///
/// The file is consumed through the chunked [`SetStream`], so peak
/// memory is one refill window plus the decoded records.  All failure
/// modes — open, decode, invariant violations — carry the file path in
/// the error ([`TraceError::InFile`]).
pub fn read_set_file(path: impl AsRef<Path>) -> Result<TraceSet, TraceError> {
    let path = path.as_ref();
    let set = SetStream::open(path)?.read_to_end()?;
    set.validate().map_err(|e| e.in_file(path))?;
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ThreadTrace, TraceRecord};
    use crate::format;
    use extrap_time::{ThreadId, TimeNs};

    fn scratch_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("extrap-reader-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn missing_file_is_io_error_with_path() {
        let err = read_set_file("/nonexistent/path/trace.xtps").unwrap_err();
        assert!(
            matches!(err, TraceError::InFile { ref source, .. } if matches!(**source, TraceError::Io(_)))
        );
        assert!(err.to_string().contains("/nonexistent/path/trace.xtps"));
    }

    #[test]
    fn file_validate_errors_carry_the_path() {
        let rec = |t: u64, kind| TraceRecord {
            time: TimeNs(t),
            thread: ThreadId(0),
            kind,
        };
        let set = TraceSet {
            threads: vec![ThreadTrace {
                thread: ThreadId(0),
                records: vec![rec(5, EventKind::ThreadBegin), rec(3, EventKind::ThreadEnd)],
            }],
        };
        let path = scratch_file("regress.xtps", &format::encode_set(&set));
        let err = read_set_file(&path).unwrap_err();
        assert!(err.to_string().contains("regress.xtps"));
        assert!(err.to_string().contains("timestamp regression"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_format_error() {
        let path = scratch_file("empty.xtps", b"");
        let err = read_set_file(&path).unwrap_err();
        assert!(
            matches!(err, TraceError::InFile { ref source, .. } if matches!(**source, TraceError::Format { .. }))
        );
        std::fs::remove_file(&path).ok();
    }
}
