//! Chunked, bounded-memory trace ingestion.
//!
//! The slurp decoders in [`crate::format`] take the whole file as one
//! byte slice — fine for test fixtures and wire payloads, hostile to the
//! paper-scale case where one `(bench, n)` key is tens of megabytes.
//! This module reads trace files **incrementally**: a [`ChunkSource`]
//! feeds bytes into a pooled [`StreamArena`], and [`ProgramStream`] /
//! [`SetStream`] decode them into bounded record chunks that callers
//! consume one at a time.  Peak memory is `O(window + chunk)`,
//! independent of file size.
//!
//! Like [`crate::format::decode_program_raw`], the streams are **raw**:
//! they enforce the structural grammar (magic, version, record framing,
//! no trailing bytes) but none of the semantic invariants, so a
//! corrupted trace can be inspected in full by diagnostic tools
//! (`extrap-lint`) instead of failing at the first violation.  The
//! structural error messages are byte-identical to the slurp decoders'
//! because both run the exact same `format` primitives.

use crate::bytesio::Buf;
use crate::error::TraceError;
use crate::event::{ProgramTrace, ThreadTrace, TraceRecord, TraceSet};
use crate::format;
use crate::translate::TranslateSink;
use extrap_time::ThreadId;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Attaches a file path to errors of streams opened from disk; in-memory
/// streams (`context == None`) keep byte-identical slurp-decoder messages.
fn in_ctx(context: &Option<PathBuf>, e: TraceError) -> TraceError {
    match context {
        Some(path) => e.in_file(path),
        None => e,
    }
}

/// Default refill window: how many bytes one `read` asks the source for.
pub const DEFAULT_WINDOW_BYTES: usize = 64 * 1024;
/// Default number of decoded records handed out per chunk.
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;
/// Upper bound on the encoded size of one record (header + the largest
/// payload, a remote access: 8 + 4 + 1 + 4·4 bytes).
pub const MAX_RECORD_BYTES: usize = 29;

/// A source of raw trace bytes read in forward-only chunks.
///
/// Implementations fill as much of `buf` as they can and return the
/// number of bytes written; `Ok(0)` means end of input.
pub trait ChunkSource {
    /// Reads more bytes into `buf`, returning how many were written.
    fn read_more(&mut self, buf: &mut [u8]) -> io::Result<usize>;
}

/// A [`ChunkSource`] over a file, using positioned reads so the stream
/// never owns more than its refill window of the file at once.
#[derive(Debug)]
pub struct FileSource {
    file: File,
    offset: u64,
}

impl FileSource {
    /// Opens `path` for streaming.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileSource> {
        Ok(FileSource::new(File::open(path)?))
    }

    /// Wraps an already-open file (reads start at offset 0).
    pub fn new(file: File) -> FileSource {
        FileSource { file, offset: 0 }
    }
}

impl ChunkSource for FileSource {
    #[cfg(unix)]
    fn read_more(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        loop {
            match self.file.read_at(buf, self.offset) {
                Ok(n) => {
                    self.offset += n as u64;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    #[cfg(not(unix))]
    fn read_more(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        use std::io::{Seek, SeekFrom};
        self.file.seek(SeekFrom::Start(self.offset))?;
        loop {
            match self.file.read(buf) {
                Ok(n) => {
                    self.offset += n as u64;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// A [`ChunkSource`] over an in-memory byte slice.
#[derive(Debug)]
pub struct SliceSource<'a>(pub &'a [u8]);

impl ChunkSource for SliceSource<'_> {
    fn read_more(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// Reusable buffers for one stream: the raw byte window and the decoded
/// record chunk.  Pool one per worker and recycle it across files (via
/// [`ProgramStream::into_arena`] / [`SetStream::into_arena`]) so a
/// directory-wide lint run allocates its windows once.
#[derive(Debug, Default)]
pub struct StreamArena {
    bytes: Vec<u8>,
    records: Vec<TraceRecord>,
}

impl StreamArena {
    /// A fresh, empty arena.
    pub fn new() -> StreamArena {
        StreamArena::default()
    }
}

/// The sliding byte window between a [`ChunkSource`] and the decoder.
struct ByteFeed<S> {
    src: S,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    eof: bool,
    window: usize,
}

impl<S: ChunkSource> ByteFeed<S> {
    fn new(src: S, mut buf: Vec<u8>, window: usize) -> ByteFeed<S> {
        buf.clear();
        ByteFeed {
            src,
            buf,
            pos: 0,
            len: 0,
            eof: false,
            window: window.max(MAX_RECORD_BYTES),
        }
    }

    /// Refills until at least `want` unread bytes are buffered or the
    /// source is exhausted (after which fewer may remain — exactly the
    /// file's final suffix, so truncation errors match the slurp path).
    fn ensure(&mut self, want: usize) -> Result<(), TraceError> {
        while self.len - self.pos < want && !self.eof {
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.len, 0);
                self.len -= self.pos;
                self.pos = 0;
            }
            let target = self.len + self.window.max(want);
            if self.buf.len() < target {
                self.buf.resize(target, 0);
            }
            let n = self.src.read_more(&mut self.buf[self.len..])?;
            if n == 0 {
                self.eof = true;
            } else {
                self.len += n;
            }
        }
        Ok(())
    }

    /// The unread bytes currently buffered.
    fn available(&self) -> &[u8] {
        &self.buf[self.pos..self.len]
    }

    /// Marks `n` buffered bytes as read.
    fn consume(&mut self, n: usize) {
        debug_assert!(self.pos + n <= self.len);
        self.pos += n;
    }

    /// Drains the rest of the source, returning how many unread bytes
    /// were left (the "trailing bytes" count of the slurp decoders).
    fn count_to_end(&mut self) -> Result<usize, TraceError> {
        let mut total = self.len - self.pos;
        self.pos = self.len;
        while !self.eof {
            if self.buf.len() < self.window {
                self.buf.resize(self.window, 0);
            }
            let n = self.src.read_more(&mut self.buf[..])?;
            if n == 0 {
                self.eof = true;
            } else {
                total += n;
            }
        }
        Ok(total)
    }

    /// Decodes one record off the front of the window.
    fn decode_record(&mut self) -> Result<TraceRecord, TraceError> {
        self.ensure(MAX_RECORD_BYTES)?;
        let mut cur = self.available();
        let before = cur.remaining();
        let rec = format::decode_record(&mut cur)?;
        let used = before - cur.remaining();
        self.consume(used);
        Ok(rec)
    }
}

/// Streaming decoder for a program (`XTRP`) trace file: the header is
/// parsed eagerly, then [`next_chunk`](ProgramStream::next_chunk) hands
/// out bounded batches of decoded records until the declared record
/// count is exhausted (trailing bytes are rejected, as in
/// [`format::decode_program_raw`]).
pub struct ProgramStream<S> {
    feed: ByteFeed<S>,
    n_threads: usize,
    n_records: u64,
    decoded: u64,
    records: Vec<TraceRecord>,
    chunk_records: usize,
    done: bool,
    /// Originating file, when opened from disk: attached to refill and
    /// decode errors so a mid-file failure names the file, not just the
    /// offset.
    context: Option<PathBuf>,
}

impl<S: ChunkSource> ProgramStream<S> {
    /// Starts a stream with a fresh arena and default sizes.
    pub fn new(src: S) -> Result<ProgramStream<S>, TraceError> {
        ProgramStream::with_arena(src, StreamArena::new())
    }

    /// Starts a stream reusing `arena`'s buffers.
    pub fn with_arena(src: S, arena: StreamArena) -> Result<ProgramStream<S>, TraceError> {
        ProgramStream::with_options(src, arena, DEFAULT_WINDOW_BYTES, DEFAULT_CHUNK_RECORDS)
    }

    /// Starts a stream with explicit window/chunk sizes (small values
    /// exercise the refill path in tests).
    pub fn with_options(
        src: S,
        arena: StreamArena,
        window_bytes: usize,
        chunk_records: usize,
    ) -> Result<ProgramStream<S>, TraceError> {
        let StreamArena { bytes, mut records } = arena;
        records.clear();
        let mut feed = ByteFeed::new(src, bytes, window_bytes);
        feed.ensure(18)?;
        let mut cur = feed.available();
        let before = cur.remaining();
        format::check_header(&mut cur, format::PROGRAM_MAGIC)?;
        let n_threads = format::get_thread_count(&mut cur)?;
        let n_records = format::get_u64(&mut cur, "record count")?;
        let used = before - cur.remaining();
        feed.consume(used);
        Ok(ProgramStream {
            feed,
            n_threads,
            n_records,
            decoded: 0,
            records,
            chunk_records: chunk_records.max(1),
            done: false,
            context: None,
        })
    }

    /// The declared thread count.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The declared record count.
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// Decodes and returns the next chunk of records, or `None` once
    /// every declared record has been handed out (the trailing-bytes
    /// check runs at that point).
    pub fn next_chunk(&mut self) -> Result<Option<&[TraceRecord]>, TraceError> {
        if self.done {
            return Ok(None);
        }
        self.records.clear();
        while self.decoded < self.n_records && self.records.len() < self.chunk_records {
            let rec = self.feed.decode_record();
            let rec = rec.map_err(|e| in_ctx(&self.context, e))?;
            self.records.push(rec);
            self.decoded += 1;
        }
        if self.records.is_empty() {
            let trailing = self.feed.count_to_end();
            let trailing = trailing.map_err(|e| in_ctx(&self.context, e))?;
            if trailing > 0 {
                return Err(in_ctx(
                    &self.context,
                    TraceError::Format {
                        detail: format!("{trailing} trailing bytes after records"),
                    },
                ));
            }
            self.done = true;
            return Ok(None);
        }
        Ok(Some(&self.records))
    }

    /// Drains the stream into an owned [`ProgramTrace`] (no invariant
    /// checks — the streaming counterpart of `decode_program_raw`).
    pub fn read_to_end(&mut self) -> Result<ProgramTrace, TraceError> {
        let mut records = Vec::with_capacity((self.n_records as usize).min(1 << 20));
        while let Some(chunk) = self.next_chunk()? {
            records.extend_from_slice(chunk);
        }
        Ok(ProgramTrace {
            n_threads: self.n_threads,
            records,
        })
    }

    /// Recovers the arena for reuse on the next file.
    pub fn into_arena(self) -> StreamArena {
        StreamArena {
            bytes: self.feed.buf,
            records: self.records,
        }
    }
}

impl ProgramStream<FileSource> {
    /// Opens `path` as a streaming program trace.
    pub fn open(path: impl AsRef<Path>) -> Result<ProgramStream<FileSource>, TraceError> {
        ProgramStream::open_with_arena(path, StreamArena::new())
    }

    /// Opens `path` reusing `arena`'s buffers.
    pub fn open_with_arena(
        path: impl AsRef<Path>,
        arena: StreamArena,
    ) -> Result<ProgramStream<FileSource>, TraceError> {
        let path = path.as_ref();
        let src = FileSource::open(path).map_err(|e| TraceError::from(e).in_file(path))?;
        let mut stream = ProgramStream::with_arena(src, arena).map_err(|e| e.in_file(path))?;
        stream.context = Some(path.to_path_buf());
        Ok(stream)
    }
}

/// One step of a [`SetStream`]: either the header of the next per-thread
/// segment or a chunk of that segment's records.
#[derive(Debug)]
pub enum SetChunk<'a> {
    /// A new per-thread segment begins.
    Thread {
        /// Zero-based position of the segment in the file.
        position: usize,
        /// The thread id the segment header declares.
        thread: ThreadId,
        /// How many records the segment declares.
        n_records: u64,
    },
    /// The next records of the current segment (never empty).
    Records(&'a [TraceRecord]),
}

/// Streaming decoder for a trace-set (`XTPS`) file: yields a
/// [`SetChunk::Thread`] header followed by that segment's record chunks,
/// for each declared thread in file order.
pub struct SetStream<S> {
    feed: ByteFeed<S>,
    n_threads: usize,
    seg: usize,
    seg_remaining: u64,
    records: Vec<TraceRecord>,
    chunk_records: usize,
    done: bool,
    /// Originating file, when opened from disk (see [`ProgramStream`]).
    context: Option<PathBuf>,
}

impl<S: ChunkSource> SetStream<S> {
    /// Starts a stream with a fresh arena and default sizes.
    pub fn new(src: S) -> Result<SetStream<S>, TraceError> {
        SetStream::with_arena(src, StreamArena::new())
    }

    /// Starts a stream reusing `arena`'s buffers.
    pub fn with_arena(src: S, arena: StreamArena) -> Result<SetStream<S>, TraceError> {
        SetStream::with_options(src, arena, DEFAULT_WINDOW_BYTES, DEFAULT_CHUNK_RECORDS)
    }

    /// Starts a stream with explicit window/chunk sizes.
    pub fn with_options(
        src: S,
        arena: StreamArena,
        window_bytes: usize,
        chunk_records: usize,
    ) -> Result<SetStream<S>, TraceError> {
        let StreamArena { bytes, mut records } = arena;
        records.clear();
        let mut feed = ByteFeed::new(src, bytes, window_bytes);
        feed.ensure(10)?;
        let mut cur = feed.available();
        let before = cur.remaining();
        format::check_header(&mut cur, format::SET_MAGIC)?;
        let n_threads = format::get_thread_count(&mut cur)?;
        let used = before - cur.remaining();
        feed.consume(used);
        Ok(SetStream {
            feed,
            n_threads,
            seg: 0,
            seg_remaining: 0,
            records,
            chunk_records: chunk_records.max(1),
            done: false,
            context: None,
        })
    }

    /// The declared number of per-thread segments.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Advances the stream by one step (see [`SetChunk`]); `None` once
    /// every segment has been handed out.
    pub fn next_chunk(&mut self) -> Result<Option<SetChunk<'_>>, TraceError> {
        if self.done {
            return Ok(None);
        }
        if self.seg_remaining > 0 {
            self.records.clear();
            while self.seg_remaining > 0 && self.records.len() < self.chunk_records {
                let rec = self.feed.decode_record();
                let rec = rec.map_err(|e| in_ctx(&self.context, e))?;
                self.records.push(rec);
                self.seg_remaining -= 1;
            }
            return Ok(Some(SetChunk::Records(&self.records)));
        }
        if self.seg < self.n_threads {
            let ensured = self.feed.ensure(12);
            ensured.map_err(|e| in_ctx(&self.context, e))?;
            let mut cur = self.feed.available();
            let before = cur.remaining();
            let header: Result<(ThreadId, u64), TraceError> = (|| {
                let thread = ThreadId(format::get_u32(&mut cur, "thread id")?);
                let n_records = format::get_u64(&mut cur, "record count")?;
                Ok((thread, n_records))
            })();
            let (thread, n_records) = header.map_err(|e| in_ctx(&self.context, e))?;
            let used = before - cur.remaining();
            self.feed.consume(used);
            let position = self.seg;
            self.seg += 1;
            self.seg_remaining = n_records;
            return Ok(Some(SetChunk::Thread {
                position,
                thread,
                n_records,
            }));
        }
        let trailing = self.feed.count_to_end();
        let trailing = trailing.map_err(|e| in_ctx(&self.context, e))?;
        if trailing > 0 {
            return Err(in_ctx(
                &self.context,
                TraceError::Format {
                    detail: format!("{trailing} trailing bytes after records"),
                },
            ));
        }
        self.done = true;
        Ok(None)
    }

    /// Drains the stream into an owned [`TraceSet`] (no invariant
    /// checks — the streaming counterpart of `decode_set_raw`).
    pub fn read_to_end(&mut self) -> Result<TraceSet, TraceError> {
        let mut threads: Vec<ThreadTrace> = Vec::with_capacity(self.n_threads.min(1 << 16));
        loop {
            match self.next_chunk()? {
                None => break,
                Some(SetChunk::Thread {
                    thread, n_records, ..
                }) => threads.push(ThreadTrace {
                    thread,
                    records: Vec::with_capacity((n_records as usize).min(1 << 20)),
                }),
                Some(SetChunk::Records(recs)) => {
                    if let Some(t) = threads.last_mut() {
                        t.records.extend_from_slice(recs);
                    }
                }
            }
        }
        Ok(TraceSet { threads })
    }

    /// Recovers the arena for reuse on the next file.
    pub fn into_arena(self) -> StreamArena {
        StreamArena {
            bytes: self.feed.buf,
            records: self.records,
        }
    }
}

impl SetStream<FileSource> {
    /// Opens `path` as a streaming trace set.
    pub fn open(path: impl AsRef<Path>) -> Result<SetStream<FileSource>, TraceError> {
        SetStream::open_with_arena(path, StreamArena::new())
    }

    /// Opens `path` reusing `arena`'s buffers.
    pub fn open_with_arena(
        path: impl AsRef<Path>,
        arena: StreamArena,
    ) -> Result<SetStream<FileSource>, TraceError> {
        let path = path.as_ref();
        let src = FileSource::open(path).map_err(|e| TraceError::from(e).in_file(path))?;
        let mut stream = SetStream::with_arena(src, arena).map_err(|e| e.in_file(path))?;
        stream.context = Some(path.to_path_buf());
        Ok(stream)
    }
}

/// Which trace shape a file holds, per its magic bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// A 1-processor program trace (`XTRP`).
    Program,
    /// A translated per-thread trace set (`XTPS`).
    Set,
}

/// Sniffs a file's magic bytes without reading the rest of it.
///
/// Returns `Ok(None)` for files that are too short or carry neither
/// magic (callers typically fall back to config-text parsing).
pub fn sniff_kind(path: impl AsRef<Path>) -> io::Result<Option<TraceKind>> {
    let mut f = File::open(path)?;
    let mut magic = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match f.read(&mut magic[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(if got < 4 {
        None
    } else if &magic == format::PROGRAM_MAGIC {
        Some(TraceKind::Program)
    } else if &magic == format::SET_MAGIC {
        Some(TraceKind::Set)
    } else {
        None
    })
}

// ---------------------------------------------------------------------
// Spill-backed translation output
// ---------------------------------------------------------------------

static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-unique temp directory holding per-thread spill runs;
/// removed (best-effort) on drop.
#[derive(Debug)]
pub struct SpillDir {
    root: PathBuf,
}

impl SpillDir {
    /// Creates a fresh spill directory under the system temp dir.
    pub fn new() -> io::Result<SpillDir> {
        let seq = SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("extrap-spill-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(SpillDir { root })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    fn run_file(&self, thread: usize) -> io::Result<File> {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.root.join(format!("thread-{thread}.run")))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One thread's translated output run: an in-memory tail plus an
/// optional on-disk prefix (encoded records, appended oldest-first).
#[derive(Debug, Default)]
struct SpillRun {
    buf: Vec<TraceRecord>,
    spilled: u64,
    file: Option<File>,
}

/// A [`TranslateSink`] that keeps translated per-thread runs in memory
/// up to a byte budget and spills the largest run to a [`SpillDir`]
/// beyond it — the out-of-core half of the streaming translate→compile
/// pipeline.  Runs are written in per-thread order, so reassembly into
/// an `XTPS` file ([`SpillSink::write_set_file`]) is a sequential replay
/// per thread: the k-way epoch merge happens on the way *in*
/// (the [`crate::translate::EpochTranslator`] emits records only once
/// their epoch resolves), never in memory on the way out.
///
/// Encode/replay scratch reuses [`StreamArena`] buffers; pass one via
/// [`SpillSink::with_arena`] to pool allocations across traces.
#[derive(Debug)]
pub struct SpillSink {
    runs: Vec<SpillRun>,
    dir: Option<SpillDir>,
    /// In-memory record budget, in bytes of `TraceRecord`s.
    budget: usize,
    in_mem: usize,
    spill_count: usize,
    /// Reused encode/replay byte scratch (the arena's byte buffer).
    scratch: Vec<u8>,
    peak_resident: usize,
}

impl SpillSink {
    /// A sink for `n_threads` runs holding at most `mem_budget` bytes of
    /// translated records in memory (0 spills every record batch).
    pub fn new(n_threads: usize, mem_budget: usize) -> SpillSink {
        SpillSink::with_arena(n_threads, mem_budget, StreamArena::new())
    }

    /// Like [`SpillSink::new`], reusing `arena`'s buffers for encode and
    /// replay scratch.
    pub fn with_arena(n_threads: usize, mem_budget: usize, arena: StreamArena) -> SpillSink {
        let StreamArena { mut bytes, .. } = arena;
        bytes.clear();
        SpillSink {
            runs: (0..n_threads).map(|_| SpillRun::default()).collect(),
            dir: None,
            budget: mem_budget,
            in_mem: 0,
            spill_count: 0,
            scratch: bytes,
            peak_resident: 0,
        }
    }

    /// How many spill flushes happened (0 = the whole set fit in budget).
    pub fn spill_count(&self) -> usize {
        self.spill_count
    }

    /// High-water mark of in-memory translated records, in bytes.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
    }

    /// Flushes the largest in-memory run to its spill file.
    fn spill_largest(&mut self) -> Result<(), TraceError> {
        let Some((t, _)) = self
            .runs
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| r.buf.len())
            .filter(|(_, r)| !r.buf.is_empty())
        else {
            return Ok(());
        };
        if self.dir.is_none() {
            self.dir = Some(SpillDir::new()?);
        }
        let run = &mut self.runs[t];
        if run.file.is_none() {
            run.file = Some(self.dir.as_ref().expect("spill dir").run_file(t)?);
        }
        self.scratch.clear();
        for rec in &run.buf {
            format::encode_record(&mut self.scratch, rec);
        }
        run.file
            .as_mut()
            .expect("spill file")
            .write_all(&self.scratch)?;
        run.spilled += run.buf.len() as u64;
        self.spill_count += 1;
        self.in_mem -= run.buf.len();
        run.buf.clear();
        Ok(())
    }

    /// Writes the translated set straight to an `XTPS` file without ever
    /// materializing it: header, then per thread a segment header and a
    /// sequential replay of that thread's run (spilled prefix from disk
    /// first, in-memory tail after).  This is how `extrap translate`
    /// writes its output, at any `--mem-budget`; the bytes are identical
    /// to `format::encode_set` of [`crate::translate()`]'s set.
    pub fn write_set_file(self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        self.write_set(File::create(path)?)
    }

    // Not generic, so the replay loop is compiled here once rather than
    // in each caller: instantiated through the generic `path` it ran
    // about 1.5x slower in a microbenchmark (32 threads, 57,664 records,
    // 2-vCPU x86-64 VM).
    fn write_set(mut self, file: File) -> Result<(), TraceError> {
        use crate::bytesio::BufMut;
        let mut w = io::BufWriter::new(file);
        let mut buf = Vec::with_capacity(MAX_RECORD_BYTES.max(16));
        buf.put_slice(format::SET_MAGIC);
        buf.put_u16_le(format::VERSION);
        buf.put_u32_le(self.runs.len() as u32);
        w.write_all(&buf)?;
        for (t, run) in std::mem::take(&mut self.runs).into_iter().enumerate() {
            buf.clear();
            buf.put_u32_le(ThreadId::from_index(t).0);
            buf.put_u64_le(run.spilled + run.buf.len() as u64);
            w.write_all(&buf)?;
            if let Some(file) = run.file {
                // Reuse the shared refill machinery for the read-back:
                // the run file is raw concatenated records.
                let bytes = std::mem::take(&mut self.scratch);
                let mut feed = ByteFeed::new(FileSource::new(file), bytes, DEFAULT_WINDOW_BYTES);
                for _ in 0..run.spilled {
                    buf.clear();
                    format::encode_record(&mut buf, &feed.decode_record()?);
                    w.write_all(&buf)?;
                }
                self.scratch = feed.buf;
            }
            for rec in &run.buf {
                buf.clear();
                format::encode_record(&mut buf, rec);
                w.write_all(&buf)?;
            }
        }
        w.flush()?;
        Ok(())
    }
}

impl TranslateSink for SpillSink {
    fn emit(&mut self, thread: usize, rec: TraceRecord) -> Result<(), TraceError> {
        self.runs[thread].buf.push(rec);
        self.in_mem += 1;
        let resident = self.in_mem * size_of::<TraceRecord>();
        if resident > self.peak_resident {
            self.peak_resident = resident;
        }
        if resident > self.budget {
            self.spill_largest()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
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
    fn program_stream_matches_slurp_decoder() {
        let pt = sample_program();
        let bytes = format::encode_program(&pt);
        // Tiny window + tiny chunks force many refills and compactions.
        for (window, chunk) in [(1, 1), (7, 2), (64 * 1024, 4096)] {
            let mut s =
                ProgramStream::with_options(SliceSource(&bytes), StreamArena::new(), window, chunk)
                    .unwrap();
            assert_eq!(s.n_threads(), pt.n_threads);
            assert_eq!(s.n_records(), pt.records.len() as u64);
            let back = s.read_to_end().unwrap();
            assert_eq!(back, pt);
        }
    }

    #[test]
    fn set_stream_matches_slurp_decoder() {
        let ts = translate(&sample_program(), TranslateOptions::default()).unwrap();
        let bytes = format::encode_set(&ts);
        for (window, chunk) in [(1, 1), (13, 3), (64 * 1024, 4096)] {
            let mut s =
                SetStream::with_options(SliceSource(&bytes), StreamArena::new(), window, chunk)
                    .unwrap();
            assert_eq!(s.n_threads(), ts.n_threads());
            let back = s.read_to_end().unwrap();
            assert_eq!(back, ts);
        }
    }

    #[test]
    fn stream_headers_reject_thread_counts_above_the_cap() {
        use crate::format::tests::forged_header;
        let over = format::MAX_THREADS as u32 + 1;
        let bytes = forged_header(format::PROGRAM_MAGIC, over);
        let err = ProgramStream::new(SliceSource(&bytes)).err().unwrap();
        assert!(matches!(err, TraceError::Format { .. }), "{err}");
        let bytes = forged_header(format::SET_MAGIC, over);
        let err = SetStream::new(SliceSource(&bytes)).err().unwrap();
        assert!(matches!(err, TraceError::Format { .. }), "{err}");
        let at_cap = forged_header(format::PROGRAM_MAGIC, format::MAX_THREADS as u32);
        let s = ProgramStream::new(SliceSource(&at_cap)).unwrap();
        assert_eq!(s.n_threads(), format::MAX_THREADS);
    }

    #[test]
    fn stream_errors_match_slurp_decoder_errors() {
        let bytes = format::encode_program(&sample_program());
        for cut in 0..bytes.len() {
            let slurp = format::decode_program_raw(&bytes[..cut]);
            let stream =
                ProgramStream::with_options(SliceSource(&bytes[..cut]), StreamArena::new(), 5, 2)
                    .and_then(|mut s| s.read_to_end());
            match (slurp, stream) {
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "cut {cut}"),
                (Ok(a), Ok(b)) => assert_eq!(a, b, "cut {cut}"),
                (a, b) => panic!("divergence at cut {cut}: slurp {a:?} vs stream {b:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected_with_exact_count() {
        let mut bytes = format::encode_program(&sample_program());
        bytes.extend_from_slice(&[0, 1, 2]);
        let err = ProgramStream::new(SliceSource(&bytes))
            .and_then(|mut s| s.read_to_end())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            format::decode_program_raw(&bytes).unwrap_err().to_string()
        );
        assert!(err.to_string().contains("3 trailing bytes"));
    }

    #[test]
    fn arena_recycles_between_files() {
        let pt = sample_program();
        let bytes = format::encode_program(&pt);
        let mut arena = StreamArena::new();
        for _ in 0..3 {
            let mut s = ProgramStream::with_arena(SliceSource(&bytes), arena).unwrap();
            assert_eq!(s.read_to_end().unwrap(), pt);
            arena = s.into_arena();
            assert!(!arena.bytes.is_empty() || arena.bytes.capacity() > 0);
        }
    }

    #[test]
    fn sniff_detects_both_kinds_and_rejects_others() {
        let dir = std::env::temp_dir().join(format!("extrap-stream-sniff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pt = sample_program();
        let ts = translate(&pt, TranslateOptions::default()).unwrap();
        let p = dir.join("a.xtrp");
        let s = dir.join("a.xtps");
        let c = dir.join("a.cfg");
        std::fs::write(&p, format::encode_program(&pt)).unwrap();
        std::fs::write(&s, format::encode_set(&ts)).unwrap();
        std::fs::write(&c, "MipsRatio = 1.0\n").unwrap();
        assert_eq!(sniff_kind(&p).unwrap(), Some(TraceKind::Program));
        assert_eq!(sniff_kind(&s).unwrap(), Some(TraceKind::Set));
        assert_eq!(sniff_kind(&c).unwrap(), None);
        let short = dir.join("short");
        std::fs::write(&short, b"XT").unwrap();
        assert_eq!(sniff_kind(&short).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_source_streams_program() {
        let dir = std::env::temp_dir().join(format!("extrap-stream-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pt = sample_program();
        let path = dir.join("t.xtrp");
        std::fs::write(&path, format::encode_program(&pt)).unwrap();
        let back = ProgramStream::open(&path).unwrap().read_to_end().unwrap();
        assert_eq!(back, pt);
        std::fs::remove_dir_all(&dir).ok();
    }
}
