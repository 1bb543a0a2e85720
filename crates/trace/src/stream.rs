//! Chunked, bounded-memory trace ingestion.
//!
//! This module reads trace images **incrementally**: a [`ChunkSource`]
//! feeds bytes into a sliding window, and [`ProgramStream`] /
//! [`SetStream`] decode them into bounded record chunks that callers
//! consume one at a time.  Peak memory is `O(window + chunk)`,
//! independent of file size, which matters in the paper-scale case
//! where one `(bench, n)` key is tens of megabytes.  [`TraceStream`] is
//! the front door for readers that take either shape: it reads the
//! magic once and starts the matching stream on the same bytes.
//!
//! The streams hold the format's one framing grammar (magic, version,
//! record counts, no trailing bytes): the whole-image decoders in
//! [`crate::format`] are adapters that drain a stream over a
//! [`SliceSource`].  The streams are **raw**: they enforce that grammar
//! but none of the semantic invariants, so a corrupted trace can be
//! inspected in full by diagnostic tools (`extrap-lint`) instead of
//! failing at the first violation.

use crate::error::TraceError;
use crate::event::{ProgramTrace, ThreadTrace, TraceRecord, TraceSet};
use crate::format;
use crate::translate::TranslateSink;
use extrap_time::ThreadId;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The sliding byte window between a [`ChunkSource`] and the decoder.
struct ByteFeed<S> {
    src: S,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    eof: bool,
    window: usize,
    /// Originating file, when opened from disk: attached to every error
    /// so a mid-file failure names the file, not just the offset.
    /// In-memory feeds (`None`) keep the bare messages.
    context: Option<PathBuf>,
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
            context: None,
        }
    }

    /// Attributes `e` to this feed's file, if it has one.
    fn fail(&self, e: TraceError) -> TraceError {
        match &self.context {
            Some(path) => e.in_file(path),
            None => e,
        }
    }

    /// Refills until at least `want` unread bytes are buffered or the
    /// source is exhausted (after which fewer may remain — exactly the
    /// input's final suffix, so truncation errors name the field that
    /// was cut).
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

    /// Buffers up to `want` bytes, runs `parse` over them and consumes
    /// what it read.
    fn parse<T>(
        &mut self,
        want: usize,
        parse: impl FnOnce(&mut &[u8]) -> Result<T, TraceError>,
    ) -> Result<T, TraceError> {
        self.ensure(want).map_err(|e| self.fail(e))?;
        let mut cur = self.available();
        let before = cur.len();
        let parsed = parse(&mut cur);
        self.pos += before - cur.len();
        parsed.map_err(|e| self.fail(e))
    }

    /// Decodes `n` records onto `out`, a window at a time: while a whole
    /// record's worth of bytes is buffered (or the input has ended) the
    /// inner loop decodes off one local cursor, so the per-record cost
    /// is the slice decoder's.
    fn decode_into(&mut self, out: &mut Vec<TraceRecord>, mut n: u64) -> Result<(), TraceError> {
        while n > 0 {
            self.ensure(MAX_RECORD_BYTES).map_err(|e| self.fail(e))?;
            let mut cur = self.available();
            let before = cur.len();
            while n > 0 && (cur.len() >= MAX_RECORD_BYTES || self.eof) {
                out.push(format::decode_record(&mut cur).map_err(|e| self.fail(e))?);
                n -= 1;
            }
            self.pos += before - cur.len();
        }
        Ok(())
    }

    /// Drains the rest of the source and fails if any bytes were left
    /// after the declared records.
    fn expect_end(&mut self) -> Result<(), TraceError> {
        let mut trailing = self.len - self.pos;
        self.pos = self.len;
        while !self.eof {
            if self.buf.len() < self.window {
                self.buf.resize(self.window, 0);
            }
            match self.src.read_more(&mut self.buf[..]) {
                Ok(0) => self.eof = true,
                Ok(n) => trailing += n,
                Err(e) => return Err(self.fail(e.into())),
            }
        }
        if trailing > 0 {
            return Err(self.fail(TraceError::Format {
                detail: format!("{trailing} trailing bytes after records"),
            }));
        }
        Ok(())
    }
}

impl ByteFeed<FileSource> {
    /// Opens `path` as a feed whose errors all carry the path.
    fn open(path: &Path) -> Result<ByteFeed<FileSource>, TraceError> {
        let src = FileSource::open(path).map_err(|e| TraceError::from(e).in_file(path))?;
        let mut feed = ByteFeed::new(src, Vec::new(), DEFAULT_WINDOW_BYTES);
        feed.context = Some(path.to_path_buf());
        Ok(feed)
    }
}

/// Streaming decoder for a program (`XTRP`) trace file: the header is
/// parsed eagerly, then [`next_chunk`](ProgramStream::next_chunk) hands
/// out bounded batches of decoded records until the declared record
/// count is exhausted (trailing bytes are rejected).
pub struct ProgramStream<S> {
    feed: ByteFeed<S>,
    n_threads: usize,
    n_records: u64,
    decoded: u64,
    records: Vec<TraceRecord>,
    chunk_records: usize,
    done: bool,
}

impl<S: ChunkSource> ProgramStream<S> {
    /// Starts a stream with default sizes.
    pub fn new(src: S) -> Result<ProgramStream<S>, TraceError> {
        ProgramStream::with_options(src, DEFAULT_WINDOW_BYTES, DEFAULT_CHUNK_RECORDS)
    }

    /// Starts a stream with explicit window/chunk sizes (small values
    /// exercise the refill path in tests).
    pub fn with_options(
        src: S,
        window_bytes: usize,
        chunk_records: usize,
    ) -> Result<ProgramStream<S>, TraceError> {
        let feed = ByteFeed::new(src, Vec::new(), window_bytes);
        ProgramStream::from_feed(feed, chunk_records)
    }

    /// Parses the header (magic included) off the front of `feed`.
    fn from_feed(
        mut feed: ByteFeed<S>,
        chunk_records: usize,
    ) -> Result<ProgramStream<S>, TraceError> {
        let (n_threads, n_records) = feed.parse(18, |cur| {
            format::check_header(cur, format::PROGRAM_MAGIC)?;
            let n_threads = format::get_thread_count(cur)?;
            Ok((n_threads, format::get_u64(cur, "record count")?))
        })?;
        Ok(ProgramStream {
            feed,
            n_threads,
            n_records,
            decoded: 0,
            records: Vec::new(),
            chunk_records: chunk_records.max(1),
            done: false,
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
        let n = (self.n_records - self.decoded).min(self.chunk_records as u64);
        self.feed.decode_into(&mut self.records, n)?;
        self.decoded += n;
        if self.records.is_empty() {
            self.feed.expect_end()?;
            self.done = true;
            return Ok(None);
        }
        Ok(Some(&self.records))
    }

    /// Drains the stream into an owned [`ProgramTrace`] with no
    /// invariant checks ([`format::decode_program_raw`] is this over an
    /// in-memory image).
    pub fn read_to_end(&mut self) -> Result<ProgramTrace, TraceError> {
        let mut records = Vec::with_capacity((self.n_records as usize).min(1 << 20));
        // Decode straight into the output, not through the chunk buffer.
        self.feed
            .decode_into(&mut records, self.n_records - self.decoded)?;
        self.decoded = self.n_records;
        // The trailing-bytes check.
        self.next_chunk()?;
        Ok(ProgramTrace {
            n_threads: self.n_threads,
            records,
        })
    }
}

impl ProgramStream<FileSource> {
    /// Opens `path` as a streaming program trace.
    pub fn open(path: impl AsRef<Path>) -> Result<ProgramStream<FileSource>, TraceError> {
        let feed = ByteFeed::open(path.as_ref())?;
        ProgramStream::from_feed(feed, DEFAULT_CHUNK_RECORDS)
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
}

impl<S: ChunkSource> SetStream<S> {
    /// Starts a stream with default sizes.
    pub fn new(src: S) -> Result<SetStream<S>, TraceError> {
        SetStream::with_options(src, DEFAULT_WINDOW_BYTES, DEFAULT_CHUNK_RECORDS)
    }

    /// Starts a stream with explicit window/chunk sizes.
    pub fn with_options(
        src: S,
        window_bytes: usize,
        chunk_records: usize,
    ) -> Result<SetStream<S>, TraceError> {
        let feed = ByteFeed::new(src, Vec::new(), window_bytes);
        SetStream::from_feed(feed, chunk_records)
    }

    /// Parses the header (magic included) off the front of `feed`.
    fn from_feed(mut feed: ByteFeed<S>, chunk_records: usize) -> Result<SetStream<S>, TraceError> {
        let n_threads = feed.parse(10, |cur| {
            format::check_header(cur, format::SET_MAGIC)?;
            format::get_thread_count(cur)
        })?;
        Ok(SetStream {
            feed,
            n_threads,
            seg: 0,
            seg_remaining: 0,
            records: Vec::new(),
            chunk_records: chunk_records.max(1),
            done: false,
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
            let n = self.seg_remaining.min(self.chunk_records as u64);
            self.feed.decode_into(&mut self.records, n)?;
            self.seg_remaining -= n;
            return Ok(Some(SetChunk::Records(&self.records)));
        }
        if self.seg < self.n_threads {
            let (thread, n_records) = self.feed.parse(12, |cur| {
                let thread = ThreadId(format::get_u32(cur, "thread id")?);
                Ok((thread, format::get_u64(cur, "record count")?))
            })?;
            let position = self.seg;
            self.seg += 1;
            self.seg_remaining = n_records;
            return Ok(Some(SetChunk::Thread {
                position,
                thread,
                n_records,
            }));
        }
        self.feed.expect_end()?;
        self.done = true;
        Ok(None)
    }

    /// Drains the stream into an owned [`TraceSet`] with no invariant
    /// checks ([`format::decode_set_raw`] is this over an in-memory
    /// image).
    pub fn read_to_end(&mut self) -> Result<TraceSet, TraceError> {
        let mut threads: Vec<ThreadTrace> = Vec::with_capacity(self.n_threads.min(1 << 16));
        loop {
            match self.next_chunk()? {
                None => break,
                Some(SetChunk::Thread {
                    thread, n_records, ..
                }) => {
                    // Decode the segment straight into its output.
                    let mut records = Vec::with_capacity((n_records as usize).min(1 << 20));
                    self.feed.decode_into(&mut records, self.seg_remaining)?;
                    self.seg_remaining = 0;
                    threads.push(ThreadTrace { thread, records });
                }
                Some(SetChunk::Records(recs)) => {
                    if let Some(t) = threads.last_mut() {
                        t.records.extend_from_slice(recs);
                    }
                }
            }
        }
        Ok(TraceSet { threads })
    }
}

impl SetStream<FileSource> {
    /// Opens `path` as a streaming trace set.
    pub fn open(path: impl AsRef<Path>) -> Result<SetStream<FileSource>, TraceError> {
        let feed = ByteFeed::open(path.as_ref())?;
        SetStream::from_feed(feed, DEFAULT_CHUNK_RECORDS)
    }
}

/// A trace image of either shape: the front door for every reader that
/// accepts a raw capture as well as a translated set.  The constructor
/// reads the magic once and parses the matching header from the same
/// feed, so a file is opened and read once.
pub enum TraceStream<S> {
    /// A 1-processor program trace (`XTRP`).
    Program(ProgramStream<S>),
    /// A translated per-thread trace set (`XTPS`).
    Set(SetStream<S>),
}

impl<S: ChunkSource> TraceStream<S> {
    /// Starts a stream over `src`, dispatching on its magic bytes.
    ///
    /// # Errors
    /// [`TraceError::NotATrace`] when the input is shorter than a magic
    /// or carries neither; otherwise the matching header's errors.
    pub fn new(src: S) -> Result<TraceStream<S>, TraceError> {
        TraceStream::from_feed(ByteFeed::new(src, Vec::new(), DEFAULT_WINDOW_BYTES))
    }

    /// Reads the magic, then parses the matching header off the same feed.
    fn from_feed(mut feed: ByteFeed<S>) -> Result<TraceStream<S>, TraceError> {
        feed.ensure(format::PROGRAM_MAGIC.len())
            .map_err(|e| feed.fail(e))?;
        let head = feed.available();
        if head.starts_with(format::PROGRAM_MAGIC) {
            ProgramStream::from_feed(feed, DEFAULT_CHUNK_RECORDS).map(TraceStream::Program)
        } else if head.starts_with(format::SET_MAGIC) {
            SetStream::from_feed(feed, DEFAULT_CHUNK_RECORDS).map(TraceStream::Set)
        } else {
            Err(feed.fail(TraceError::NotATrace))
        }
    }
}

impl TraceStream<FileSource> {
    /// Opens `path` as a streaming trace of either shape.
    pub fn open(path: impl AsRef<Path>) -> Result<TraceStream<FileSource>, TraceError> {
        TraceStream::from_feed(ByteFeed::open(path.as_ref())?)
    }
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
#[derive(Debug)]
pub struct SpillSink {
    runs: Vec<SpillRun>,
    dir: Option<SpillDir>,
    /// In-memory record budget, in bytes of `TraceRecord`s.
    budget: usize,
    in_mem: usize,
    spill_count: usize,
    /// Reused encode/replay byte scratch.
    scratch: Vec<u8>,
    peak_resident: usize,
}

impl SpillSink {
    /// A sink for `n_threads` runs holding at most `mem_budget` bytes of
    /// translated records in memory (0 spills every record batch).
    pub fn new(n_threads: usize, mem_budget: usize) -> SpillSink {
        SpillSink {
            runs: (0..n_threads).map(|_| SpillRun::default()).collect(),
            dir: None,
            budget: mem_budget,
            in_mem: 0,
            spill_count: 0,
            scratch: Vec::new(),
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
                    let rec = feed.parse(MAX_RECORD_BYTES, |cur| format::decode_record(cur))?;
                    format::encode_record(&mut buf, &rec);
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
            let mut s = ProgramStream::with_options(SliceSource(&bytes), window, chunk).unwrap();
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
            let mut s = SetStream::with_options(SliceSource(&bytes), window, chunk).unwrap();
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
            let stream = ProgramStream::with_options(SliceSource(&bytes[..cut]), 5, 2)
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
    fn trace_stream_dispatches_on_magic_and_rejects_others() {
        let dir = std::env::temp_dir().join(format!("extrap-stream-sniff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pt = sample_program();
        let ts = translate(&pt, TranslateOptions::default()).unwrap();
        let p = dir.join("a.xtrp");
        let s = dir.join("a.xtps");
        let c = dir.join("a.cfg");
        let short = dir.join("short");
        std::fs::write(&p, format::encode_program(&pt)).unwrap();
        std::fs::write(&s, format::encode_set(&ts)).unwrap();
        std::fs::write(&c, "MipsRatio = 1.0\n").unwrap();
        std::fs::write(&short, b"XT").unwrap();
        match TraceStream::open(&p).unwrap() {
            TraceStream::Program(mut stream) => assert_eq!(stream.read_to_end().unwrap(), pt),
            TraceStream::Set(_) => panic!("XTRP opened as a set"),
        }
        match TraceStream::open(&s).unwrap() {
            TraceStream::Set(mut stream) => assert_eq!(stream.read_to_end().unwrap(), ts),
            TraceStream::Program(_) => panic!("XTPS opened as a program"),
        }
        for path in [&c, &short] {
            let err = TraceStream::open(path).err().unwrap();
            assert_eq!(
                err.to_string(),
                format!(
                    "{}: not a trace image (expected XTRP or XTPS magic)",
                    path.display()
                )
            );
            assert!(
                matches!(err, TraceError::InFile { ref source, .. } if matches!(**source, TraceError::NotATrace))
            );
        }
        // In memory, a bare magic is a trace whose header is cut short.
        let err = TraceStream::new(SliceSource(b"XTPS")).err().unwrap();
        assert_eq!(
            err.to_string(),
            "malformed trace: truncated while reading file header"
        );
        let err = TraceStream::new(SliceSource(b"")).err().unwrap();
        assert!(matches!(err, TraceError::NotATrace), "{err}");
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
