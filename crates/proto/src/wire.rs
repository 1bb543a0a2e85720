//! The versioned wire codec: length-prefixed frames over any
//! `Read`/`Write` pair, carrying tagged little-endian payloads.
//!
//! ```text
//! frame   := magic "XSRV" | len:u32le | payload[len]
//! payload := version:u16le | tag:u8 | body
//! ```
//!
//! Each layout is declared once.  A private `Wire` trait gives every
//! wire type one `put` and one `get`: integers are little-endian, `f64`
//! travels as its raw bits, `bool` is exactly 0 or 1, strings and byte
//! payloads are a `u32` length then the bytes, and a `Vec` is a `u32`
//! count then the items.  Each struct lists its fields once and each
//! message lists `tag => Variant { fields }` once; both directions
//! walk that one list, and `tests/golden.rs` pins the resulting bytes.
//!
//! Every decode is total: truncated bodies, unknown tags, version
//! mismatches, and trailing garbage are all [`ProtoError`]s, never
//! panics — a malformed client must not take a server worker down.
//! Encoding is canonical (one byte string per value), so
//! `encode(decode(bytes)) == bytes` for every accepted input; the
//! protocol property tests drive this with randomized values.

use crate::{
    BreakdownRow, ErrorCode, JobId, PredictionSummary, Request, Response, ServerStats, SweepRow,
    SweepSpec, TraceId,
};
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol revision; bumped on any wire-visible change.  A peer
/// speaking a different version is rejected with
/// [`ProtoError::Version`] at decode time.
///
/// v2 added [`Request::Phases`]/[`Response::Phases`] (remote
/// `stats --phases` parity) and [`Request::Analyze`]/
/// [`Response::Analyzed`] (static bound analysis as a service).
pub const PROTO_VERSION: u16 = 2;

/// Leading bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"XSRV";

/// Upper bound a reader enforces on the declared payload length before
/// allocating — large enough for paper-scale trace submissions, small
/// enough that a corrupt length field cannot balloon memory.
pub const MAX_FRAME_LEN: u32 = 256 << 20;

/// Codec and framing failures.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The payload does not parse (truncated, unknown tag, trailing
    /// bytes, bad enum value, non-UTF-8 string…).
    Malformed(String),
    /// The peer speaks a different protocol revision.
    Version {
        /// The version the peer sent.
        got: u16,
    },
    /// The frame header's magic is wrong — not an extrap-serve peer.
    BadMagic,
    /// The declared payload length exceeds the reader's cap.
    TooLarge {
        /// Declared length.
        len: u32,
        /// Enforced cap.
        max: u32,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::Malformed(d) => write!(f, "malformed frame: {d}"),
            ProtoError::Version { got } => {
                write!(f, "protocol version {got} (expected {PROTO_VERSION})")
            }
            ProtoError::BadMagic => write!(f, "bad frame magic (not an extrap-serve peer)"),
            ProtoError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one frame (header + payload) and flushes.  A payload over
/// [`MAX_FRAME_LEN`] is refused with `InvalidInput` before a byte is
/// written: no reader would accept it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                payload.len()
            ),
        ));
    }
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload.  `Ok(None)` is a clean end of stream —
/// the peer closed exactly on a frame boundary; EOF anywhere else is
/// malformed.  `max_len` caps the declared payload length (use
/// [`MAX_FRAME_LEN`] unless the endpoint wants a tighter bound).
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; 8];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(ProtoError::Malformed(format!(
                    "eof after {got} header bytes"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    if header[..4] != FRAME_MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let len = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(ProtoError::TooLarge { len, max: max_len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => {
            ProtoError::Malformed(format!("eof inside a {len}-byte payload"))
        }
        _ => ProtoError::Io(e),
    })?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// The codec: one `Wire` impl per type
// ---------------------------------------------------------------------

/// A bounds-checked cursor over a payload: every read reports
/// truncation as an error instead of panicking.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() < n {
            return Err(ProtoError::Malformed(format!(
                "truncated: wanted {n} bytes, {} left",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Malformed(format!(
                "{} trailing bytes after the body",
                self.buf.len()
            )))
        }
    }
}

/// A value with one wire layout: `put` appends it, `get` reads it back.
/// Both walk the same declaration, so they cannot disagree.
trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError>;

    /// Appends the items of a `Vec<Self>` (its count is already out);
    /// bytes override this with one bulk copy.
    fn put_items(items: &[Self], buf: &mut Vec<u8>) {
        for item in items {
            item.put(buf);
        }
    }

    /// Reads the `count` items of a `Vec<Self>`; bytes override this
    /// with one bulk copy.
    fn get_items(r: &mut Reader<'_>, count: usize) -> Result<Vec<Self>, ProtoError> {
        // Guard against absurd counts before allocating: every element
        // needs at least one byte of body.
        if count > r.buf.len() {
            return Err(ProtoError::Malformed(format!(
                "sequence of {count} elements in {}-byte body",
                r.buf.len()
            )));
        }
        (0..count).map(|_| Self::get(r)).collect()
    }
}

/// Little-endian fixed-width integers.
macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

wire_le!(u16, u32, u64);

impl Wire for u8 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<u8, ProtoError> {
        Ok(r.take(1)?[0])
    }
    fn put_items(items: &[u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(items);
    }
    fn get_items(r: &mut Reader<'_>, count: usize) -> Result<Vec<u8>, ProtoError> {
        Ok(r.take(count)?.to_vec())
    }
}

/// Exact bits, so NaN payloads and signed zeros survive.
impl Wire for f64 {
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<bool, ProtoError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ProtoError::Malformed(format!("bad bool {other}"))),
        }
    }
}

/// A `u32` count, then the items.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        T::put_items(self, buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, ProtoError> {
        let count = u32::get(r)? as usize;
        T::get_items(r, count)
    }
}

/// Length-prefixed UTF-8, laid out exactly like `Vec<u8>`.
impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<String, ProtoError> {
        String::from_utf8(Vec::get(r)?)
            .map_err(|_| ProtoError::Malformed("non-UTF-8 string".into()))
    }
}

impl Wire for ErrorCode {
    fn put(&self, buf: &mut Vec<u8>) {
        self.row().1.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<ErrorCode, ProtoError> {
        let raw = u8::get(r)?;
        ErrorCode::ROWS
            .iter()
            .find(|row| row.1 == raw)
            .map(|row| row.0)
            .ok_or_else(|| ProtoError::Malformed(format!("unknown error code {raw}")))
    }
}

/// Structs (and the `u64` id newtypes, field `0`): the fields in wire
/// order.
macro_rules! wire_struct {
    ($($ty:ident { $($field:tt),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$field.put(buf);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<$ty, ProtoError> {
                Ok($ty { $($field: Wire::get(r)?),* })
            }
        }
    )*};
}

wire_struct! {
    TraceId { 0 }
    JobId { 0 }
    SweepSpec { benches, procs, scale, params }
    SweepRow { bench, procs, exec_time_ns }
    BreakdownRow {
        compute_ns, send_overhead_ns, service_ns, remote_wait_ns, barrier_wait_ns, end_time_ns
    }
    PredictionSummary {
        n_threads, n_procs, exec_time_ns, barriers, messages, bytes, contention_factor_sum,
        events_dispatched, per_thread
    }
    ServerStats {
        uptime_ms, connections, active_connections, requests, jobs_inflight, jobs_done,
        jobs_failed, sweep_batches, coalesced_sweeps, traces_resident, resident_bytes,
        mem_budget_bytes, evictions, translations
    }
}

/// Messages: a `u8` tag per variant, then its fields in wire order.  A
/// tuple variant names its one field with a binding.
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $var:ident $({ $($field:ident),* })? $(($inner:ident))?,)*
    }) => {
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($ty::$var $({ $($field),* })? $(($inner))? => {
                        let tag: u8 = $tag;
                        tag.put(buf);
                        $($($field.put(buf);)*)?
                        $($inner.put(buf);)?
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<$ty, ProtoError> {
                Ok(match u8::get(r)? {
                    $($tag => $ty::$var
                        $({ $($field: Wire::get(r)?),* })?
                        $(({ let $inner = Wire::get(r)?; $inner }))?,)*
                    other => {
                        return Err(ProtoError::Malformed(format!(
                            concat!("unknown ", $what, " tag {}"),
                            other
                        )))
                    }
                })
            }
        }
    };
}

wire_enum!(Request, "request" {
    1 => SubmitTrace { name, payload },
    2 => Simulate { trace, params },
    3 => Sweep(spec),
    4 => FetchResult { job, wait_ms },
    5 => Evict { trace },
    6 => Stats,
    7 => Shutdown,
    8 => Phases { trace, phases, max_clusters, tolerance },
    9 => Analyze { trace, params, format },
});

wire_enum!(Response, "response" {
    1 => Submitted { trace, n_threads, resident_bytes },
    2 => Accepted { job },
    3 => Pending { job },
    4 => Prediction(summary),
    5 => SweepRows(rows),
    6 => Evicted { freed_bytes },
    7 => Stats(stats),
    8 => Error { code, detail },
    9 => Bye,
    10 => Phases { text },
    11 => Analyzed { rendered },
});

fn encode(msg: &impl Wire) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    PROTO_VERSION.put(&mut buf);
    msg.put(&mut buf);
    buf
}

/// The one decode path: version header, the message (tag first), then
/// no trailing bytes.
fn decode<T: Wire>(data: &[u8]) -> Result<T, ProtoError> {
    let mut r = Reader { buf: data };
    let version = u16::get(&mut r)?;
    if version != PROTO_VERSION {
        return Err(ProtoError::Version { got: version });
    }
    let msg = T::get(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Encodes one request as a frame payload (pass to [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode(req)
}

/// Decodes one request payload; rejects version mismatches, unknown
/// tags, truncation, and trailing bytes.
pub fn decode_request(data: &[u8]) -> Result<Request, ProtoError> {
    decode(data)
}

/// Encodes one response as a frame payload (pass to [`write_frame`]).
pub fn encode_response(rsp: &Response) -> Vec<u8> {
    encode(rsp)
}

/// Decodes one response payload; rejects version mismatches, unknown
/// tags, truncation, and trailing bytes.
pub fn decode_response(data: &[u8]) -> Result<Response, ProtoError> {
    decode(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, b"hello").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        let mut cursor = io::Cursor::new(pipe);
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_LEN).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_LEN).unwrap().as_deref(),
            Some(&b""[..])
        );
        assert!(read_frame(&mut cursor, MAX_FRAME_LEN).unwrap().is_none());
    }

    #[test]
    fn oversize_and_bad_magic_frames_are_rejected() {
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, &[0u8; 32]).unwrap();
        let err = read_frame(&mut io::Cursor::new(&pipe), 16).unwrap_err();
        assert!(matches!(err, ProtoError::TooLarge { len: 32, max: 16 }));

        let mut bad = pipe.clone();
        bad[0] = b'Z';
        let err = read_frame(&mut io::Cursor::new(&bad), MAX_FRAME_LEN).unwrap_err();
        assert!(matches!(err, ProtoError::BadMagic));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut payload = encode_request(&Request::Stats);
        payload[0] = 0xFF;
        payload[1] = 0xFF;
        let err = decode_request(&payload).unwrap_err();
        assert!(matches!(err, ProtoError::Version { got: 0xFFFF }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::Stats);
        payload.push(0);
        let err = decode_request(&payload).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn absurd_sequence_counts_fail_before_allocating() {
        // A sweep-rows response claiming u32::MAX rows in a tiny body.
        let mut buf = encode_response(&Response::SweepRows(Vec::new()));
        buf.truncate(buf.len() - 4);
        u32::MAX.put(&mut buf);
        let err = decode_response(&buf).unwrap_err();
        assert!(err.to_string().contains("sequence"), "{err}");
    }

    #[test]
    fn oversized_payloads_fail_before_a_byte_is_written() {
        // Lazily zeroed: the refusal reads only the length.
        let big = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut sink: Vec<u8> = Vec::new();
        let err = write_frame(&mut sink, &big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(
            err.to_string(),
            "frame payload of 268435457 bytes exceeds the 268435456-byte cap"
        );
        assert!(sink.is_empty());
    }
}
