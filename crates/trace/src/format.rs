//! The compact binary trace format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! ProgramTrace file:            TraceSet file:
//!   magic   b"XTRP"               magic   b"XTPS"
//!   version u16 (= 1)             version u16 (= 1)
//!   n_threads u32                 n_threads u32
//!   n_records u64                 per thread:
//!   records ...                     thread    u32
//!                                   n_records u64
//!                                   records ...
//! record:
//!   time   u64
//!   thread u32
//!   kind   u8
//!   payload (kind-dependent, see `encode_record`)
//! ```

use crate::bytesio::{Buf, BufMut};
use crate::error::TraceError;
use crate::event::{EventKind, ProgramTrace, TraceRecord, TraceSet};
use crate::stream::{ProgramStream, SetStream, SliceSource};
use extrap_time::{BarrierId, ElementId, ThreadId, TimeNs};

/// Magic bytes for a program (1-processor) trace file.
pub const PROGRAM_MAGIC: &[u8; 4] = b"XTRP";
/// Magic bytes for a translated trace-set file.
pub const SET_MAGIC: &[u8; 4] = b"XTPS";
/// Current format version.
pub const VERSION: u16 = 1;
/// The most threads a trace may declare, so every reader can reject a
/// forged header before allocating per declared thread.  One-processor
/// capture is still practical at this size.
pub const MAX_THREADS: usize = 4096;

const KIND_BEGIN: u8 = 0;
const KIND_END: u8 = 1;
const KIND_BARRIER_ENTER: u8 = 2;
const KIND_BARRIER_EXIT: u8 = 3;
const KIND_REMOTE_READ: u8 = 4;
const KIND_REMOTE_WRITE: u8 = 5;
const KIND_MARKER: u8 = 6;

/// Appends one record to `buf`.
pub fn encode_record(buf: &mut impl BufMut, rec: &TraceRecord) {
    buf.put_u64_le(rec.time.as_ns());
    buf.put_u32_le(rec.thread.0);
    match rec.kind {
        EventKind::ThreadBegin => buf.put_u8(KIND_BEGIN),
        EventKind::ThreadEnd => buf.put_u8(KIND_END),
        EventKind::BarrierEnter { barrier } => {
            buf.put_u8(KIND_BARRIER_ENTER);
            buf.put_u32_le(barrier.0);
        }
        EventKind::BarrierExit { barrier } => {
            buf.put_u8(KIND_BARRIER_EXIT);
            buf.put_u32_le(barrier.0);
        }
        EventKind::RemoteRead {
            owner,
            element,
            declared_bytes,
            actual_bytes,
        } => {
            buf.put_u8(KIND_REMOTE_READ);
            buf.put_u32_le(owner.0);
            buf.put_u32_le(element.0);
            buf.put_u32_le(declared_bytes);
            buf.put_u32_le(actual_bytes);
        }
        EventKind::RemoteWrite {
            owner,
            element,
            declared_bytes,
            actual_bytes,
        } => {
            buf.put_u8(KIND_REMOTE_WRITE);
            buf.put_u32_le(owner.0);
            buf.put_u32_le(element.0);
            buf.put_u32_le(declared_bytes);
            buf.put_u32_le(actual_bytes);
        }
        EventKind::Marker { id } => {
            buf.put_u8(KIND_MARKER);
            buf.put_u32_le(id);
        }
    }
}

/// Decodes one record from `buf`.
///
/// # Errors
/// Returns a format error on truncation or an unknown kind byte.
pub fn decode_record(buf: &mut impl Buf) -> Result<TraceRecord, TraceError> {
    if buf.remaining() < 8 + 4 + 1 {
        return Err(truncated("record header"));
    }
    let time = TimeNs(buf.get_u64_le());
    let thread = ThreadId(buf.get_u32_le());
    let kind_byte = buf.get_u8();
    let kind = match kind_byte {
        KIND_BEGIN => EventKind::ThreadBegin,
        KIND_END => EventKind::ThreadEnd,
        KIND_BARRIER_ENTER => EventKind::BarrierEnter {
            barrier: BarrierId(get_u32(buf, "barrier id")?),
        },
        KIND_BARRIER_EXIT => EventKind::BarrierExit {
            barrier: BarrierId(get_u32(buf, "barrier id")?),
        },
        KIND_REMOTE_READ | KIND_REMOTE_WRITE => {
            let owner = ThreadId(get_u32(buf, "owner")?);
            let element = ElementId(get_u32(buf, "element")?);
            let declared_bytes = get_u32(buf, "declared size")?;
            let actual_bytes = get_u32(buf, "actual size")?;
            if kind_byte == KIND_REMOTE_READ {
                EventKind::RemoteRead {
                    owner,
                    element,
                    declared_bytes,
                    actual_bytes,
                }
            } else {
                EventKind::RemoteWrite {
                    owner,
                    element,
                    declared_bytes,
                    actual_bytes,
                }
            }
        }
        KIND_MARKER => EventKind::Marker {
            id: get_u32(buf, "marker id")?,
        },
        other => {
            return Err(TraceError::Format {
                detail: format!("unknown event kind byte {other}"),
            })
        }
    };
    Ok(TraceRecord { time, thread, kind })
}

/// Encodes a whole program trace to bytes.
pub fn encode_program(trace: &ProgramTrace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(18 + trace.records.len() * 16);
    buf.put_slice(PROGRAM_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(trace.n_threads as u32);
    buf.put_u64_le(trace.records.len() as u64);
    for r in &trace.records {
        encode_record(&mut buf, r);
    }
    buf
}

/// Decodes a program trace from bytes and validates it.
pub fn decode_program(data: &[u8]) -> Result<ProgramTrace, TraceError> {
    let pt = decode_program_raw(data)?;
    pt.validate()?;
    Ok(pt)
}

/// Decodes a program trace without checking semantic invariants.
///
/// Structural errors (bad magic/version, truncation, unknown kinds,
/// trailing bytes) are still rejected, but timestamp ordering and
/// thread-range invariants are **not** enforced — this is the entry
/// point for diagnostic tools (`extrap-lint`) that want to see the whole
/// record stream of a corrupted trace rather than fail at the first
/// violation.  An adapter over [`ProgramStream`]: the framing grammar
/// lives in the streams only.
pub fn decode_program_raw(data: &[u8]) -> Result<ProgramTrace, TraceError> {
    ProgramStream::new(SliceSource(data))?.read_to_end()
}

/// Encodes a translated trace set to bytes.
pub fn encode_set(set: &TraceSet) -> Vec<u8> {
    let total: usize = set.threads.iter().map(|t| t.records.len()).sum();
    let mut buf = Vec::with_capacity(10 + total * 16);
    buf.put_slice(SET_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(set.n_threads() as u32);
    for t in &set.threads {
        buf.put_u32_le(t.thread.0);
        buf.put_u64_le(t.records.len() as u64);
        for r in &t.records {
            encode_record(&mut buf, r);
        }
    }
    buf
}

/// Decodes a trace set from bytes and validates it.
pub fn decode_set(data: &[u8]) -> Result<TraceSet, TraceError> {
    let set = decode_set_raw(data)?;
    set.validate()?;
    Ok(set)
}

/// Decodes a trace set without checking semantic invariants (the
/// [`decode_program_raw`] counterpart for translated traces, an adapter
/// over [`SetStream`]).
pub fn decode_set_raw(data: &[u8]) -> Result<TraceSet, TraceError> {
    SetStream::new(SliceSource(data))?.read_to_end()
}

pub(crate) fn check_header(data: &mut &[u8], magic: &[u8; 4]) -> Result<(), TraceError> {
    if data.remaining() < 6 {
        return Err(truncated("file header"));
    }
    let mut found = [0u8; 4];
    data.copy_to_slice(&mut found);
    if &found != magic {
        return Err(TraceError::Format {
            detail: format!("bad magic {found:?}, expected {magic:?}"),
        });
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(TraceError::Format {
            detail: format!("unsupported format version {version}"),
        });
    }
    Ok(())
}

/// Reads a header's thread count and checks it against [`MAX_THREADS`].
pub(crate) fn get_thread_count(buf: &mut impl Buf) -> Result<usize, TraceError> {
    let n = get_u32(buf, "thread count")? as usize;
    if n > MAX_THREADS {
        return Err(TraceError::Format {
            detail: format!("header declares {n} threads, more than the {MAX_THREADS} supported"),
        });
    }
    Ok(n)
}

pub(crate) fn get_u32(buf: &mut impl Buf, what: &str) -> Result<u32, TraceError> {
    if buf.remaining() < 4 {
        return Err(truncated(what));
    }
    Ok(buf.get_u32_le())
}

pub(crate) fn get_u64(buf: &mut impl Buf, what: &str) -> Result<u64, TraceError> {
    if buf.remaining() < 8 {
        return Err(truncated(what));
    }
    Ok(buf.get_u64_le())
}

fn truncated(what: &str) -> TraceError {
    TraceError::Format {
        detail: format!("truncated while reading {what}"),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::PhaseProgram;
    use crate::translate::{translate, TranslateOptions};
    use extrap_time::DurationNs;

    fn sample_program() -> ProgramTrace {
        let mut p = PhaseProgram::new(3);
        p.push_uniform_phase(DurationNs(100));
        p.push_uniform_phase(DurationNs(250));
        p.record()
    }

    #[test]
    fn program_round_trip() {
        let pt = sample_program();
        let bytes = encode_program(&pt);
        let back = decode_program(&bytes).unwrap();
        assert_eq!(pt, back);
    }

    /// A header declaring `n` threads and no records (program layout) or
    /// no segments (set layout, truncated after the count).
    pub(crate) fn forged_header(magic: &[u8; 4], n: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_slice(magic);
        buf.put_u16_le(VERSION);
        buf.put_u32_le(n);
        if magic == PROGRAM_MAGIC {
            buf.put_u64_le(0);
        }
        buf
    }

    #[test]
    fn thread_count_above_the_cap_is_rejected() {
        let at_cap = decode_program_raw(&forged_header(PROGRAM_MAGIC, MAX_THREADS as u32));
        assert_eq!(at_cap.unwrap().n_threads, MAX_THREADS);
        let over = MAX_THREADS as u32 + 1;
        for err in [
            decode_program_raw(&forged_header(PROGRAM_MAGIC, over)).unwrap_err(),
            decode_set_raw(&forged_header(SET_MAGIC, over)).unwrap_err(),
            decode_set_raw(&forged_header(SET_MAGIC, u32::MAX)).unwrap_err(),
        ] {
            assert!(
                matches!(&err, TraceError::Format { detail } if detail.contains("threads")),
                "{err}"
            );
        }
    }

    #[test]
    fn set_round_trip() {
        let ts = translate(&sample_program(), TranslateOptions::default()).unwrap();
        let bytes = encode_set(&ts);
        let back = decode_set(&bytes).unwrap();
        assert_eq!(ts, back);
    }

    #[test]
    fn every_kind_round_trips() {
        let kinds = [
            EventKind::ThreadBegin,
            EventKind::ThreadEnd,
            EventKind::BarrierEnter {
                barrier: BarrierId(9),
            },
            EventKind::BarrierExit {
                barrier: BarrierId(9),
            },
            EventKind::RemoteRead {
                owner: ThreadId(2),
                element: ElementId(77),
                declared_bytes: 231_456,
                actual_bytes: 128,
            },
            EventKind::RemoteWrite {
                owner: ThreadId(1),
                element: ElementId(5),
                declared_bytes: 64,
                actual_bytes: 2,
            },
            EventKind::Marker { id: 42 },
        ];
        for kind in kinds {
            let rec = TraceRecord {
                time: TimeNs(123_456_789),
                thread: ThreadId(3),
                kind,
            };
            let mut buf = Vec::new();
            encode_record(&mut buf, &rec);
            let back = decode_record(&mut &buf[..]).unwrap();
            assert_eq!(rec, back);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_program(&sample_program());
        bytes[0] = b'Z';
        assert!(matches!(
            decode_program(&bytes),
            Err(TraceError::Format { .. })
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_program(&sample_program());
        bytes[4] = 99;
        assert!(decode_program(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_program(&sample_program());
        for cut in [0, 3, 6, 10, bytes.len() - 1] {
            assert!(decode_program(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_program(&sample_program());
        bytes.push(0);
        assert!(decode_program(&bytes).is_err());
    }

    #[test]
    fn unknown_kind_rejected() {
        let rec = TraceRecord {
            time: TimeNs(1),
            thread: ThreadId(0),
            kind: EventKind::ThreadBegin,
        };
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec);
        let last = buf.len() - 1;
        buf[last] = 200;
        assert!(decode_record(&mut &buf[..]).is_err());
    }

    #[test]
    fn raw_read_accepts_invariant_violations() {
        // A trace with a global timestamp regression: the strict decoder
        // rejects it, the raw decoder hands it over for diagnosis.
        let mut pt = ProgramTrace::new(1);
        let rec = |t: u64, kind| TraceRecord {
            time: TimeNs(t),
            thread: ThreadId(0),
            kind,
        };
        pt.records.push(rec(5, EventKind::ThreadBegin));
        pt.records.push(rec(3, EventKind::ThreadEnd));
        let bytes = encode_program(&pt);
        assert!(matches!(
            decode_program(&bytes),
            Err(TraceError::TimeRegression { .. })
        ));
        let raw = decode_program_raw(&bytes).unwrap();
        assert_eq!(raw.records.len(), 2);
    }
}
