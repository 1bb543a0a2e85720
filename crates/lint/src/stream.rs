//! Incremental lint machines: every trace check as a state machine fed
//! record-by-record, so multi-gigabyte traces lint in bounded memory.
//!
//! [`StreamLinter`] combines the two trace check families:
//!
//! * `WellFormedStream` — fully streaming well-formedness (`E001`,
//!   `E002`, `E003`, `E004`, `E006`, `E009`, `W001`, `W002`, `W003`);
//! * `SoundnessStream` — translation soundness (`E005`, `E007`)
//!   keeping only per-thread barrier-sequence digests and the collapsed
//!   vector clocks (barrier-epoch counters), never the record stream.
//!
//! The whole-trace entry points ([`crate::lint_program`] /
//! [`crate::lint_set`]) feed in-memory traces through the same
//! [`StreamLinter`], so the streaming drivers ([`lint_program_stream`] /
//! [`lint_set_stream`] / [`lint_trace_file`]) produce **byte-identical**
//! reports by construction.
//!
//! # Memory bound
//!
//! Resident analysis state is `O(threads + live epochs + sync events)`,
//! independent of the record count:
//!
//! * per thread: a constant-size cursor (clock, barrier-protocol cell,
//!   epoch counter) plus its phase-marker sequence (markers are rare —
//!   one per program phase — and `W001`'s message prints the full
//!   sequences, so they are retained);
//! * the element-ownership and causality maps are keyed by
//!   `(epoch, element)`; for program traces (global time order, so
//!   epochs advance together) entries whose epoch every thread has left
//!   are pruned as the stream advances, leaving only **live** epochs;
//!   for trace sets the epoch counter restarts with every segment, so
//!   entries persist but are still bounded by distinct
//!   `(epoch, element)` pairs, not records;
//! * the `E005` digest keeps the first thread's barrier-id sequence as
//!   the reference plus, per other thread, a counter, the first
//!   mismatch, and any enters that arrived before the reference grew.
//!
//! [`StreamLinter::peak_resident_bytes`] reports an estimate of that
//! state (analysis state only, excluding emitted diagnostics), which
//! tests pin to show the bound holds as traces grow.

use crate::diag::{Code, Diagnostic, Report, Span};
use extrap_time::{BarrierId, ElementId, ThreadId, TimeNs};
use extrap_trace::stream::{
    sniff_kind, ChunkSource, ProgramStream, SetChunk, SetStream, StreamArena, TraceKind,
};
use extrap_trace::{EventKind, TraceError, TraceRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::mem::size_of;
use std::path::Path;

/// Which trace shape a machine is consuming.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Shape {
    Program,
    Set,
}

/// Per-thread well-formedness cursor.
struct ThreadWf {
    thread: ThreadId,
    count: usize,
    first_kind: Option<EventKind>,
    last_kind: Option<EventKind>,
    open: Option<(BarrierId, Span)>,
    epoch: usize,
    markers: Vec<u32>,
    prev_time: TimeNs,
}

impl ThreadWf {
    fn new(thread: ThreadId) -> ThreadWf {
        ThreadWf {
            thread,
            count: 0,
            first_kind: None,
            last_kind: None,
            open: None,
            epoch: 0,
            markers: Vec::new(),
            prev_time: TimeNs::ZERO,
        }
    }
}

/// Well-formedness: the structural invariants a trace must satisfy
/// before any model-level reasoning makes sense (see module docs for
/// the codes).
struct WellFormedStream {
    shape: Shape,
    n_threads: usize,
    threads: Vec<ThreadWf>,
    current: usize,
    next_record: usize,
    prev_time: TimeNs,
    /// First claimed owner per `(epoch, element)`; shared across
    /// threads, pruned to live epochs for program traces.
    owners: BTreeMap<(usize, ElementId), ThreadId>,
    marker_total: usize,
}

impl WellFormedStream {
    /// A machine for a 1-processor program trace declaring `n_threads`.
    fn for_program(n_threads: usize) -> WellFormedStream {
        WellFormedStream {
            shape: Shape::Program,
            n_threads,
            threads: (0..n_threads)
                .map(|t| ThreadWf::new(ThreadId(t as u32)))
                .collect(),
            current: 0,
            next_record: 0,
            prev_time: TimeNs::ZERO,
            owners: BTreeMap::new(),
            marker_total: 0,
        }
    }

    /// A machine for a trace set declaring `n_threads` segments.
    fn for_set(n_threads: usize) -> WellFormedStream {
        WellFormedStream {
            shape: Shape::Set,
            n_threads,
            threads: Vec::new(),
            current: 0,
            next_record: 0,
            prev_time: TimeNs::ZERO,
            owners: BTreeMap::new(),
            marker_total: 0,
        }
    }

    /// Starts the next per-thread segment (set shape only).
    fn begin_thread(&mut self, position: usize, thread: ThreadId, report: &mut Report) {
        debug_assert_eq!(self.shape, Shape::Set);
        if thread.index() != position {
            report.push(
                Code::E009MisplacedThread,
                Span::thread(thread),
                format!("trace at position {position} claims to belong to {thread}"),
            );
        }
        self.threads.push(ThreadWf::new(thread));
        self.current = self.threads.len() - 1;
        self.next_record = 0;
    }

    /// Feeds one record; returns the `(thread index, span)` the record
    /// was attributed to, or `None` when it belongs to no tracked
    /// thread (out-of-range ids in a program trace).
    fn record(&mut self, r: &TraceRecord, report: &mut Report) -> Option<(usize, Span)> {
        match self.shape {
            Shape::Program => {
                let i = self.next_record;
                self.next_record += 1;
                if r.thread.index() >= self.n_threads {
                    report.push(
                        Code::E003BadThreadId,
                        Span::record(i),
                        format!(
                            "record references {} but the trace declares {} threads",
                            r.thread, self.n_threads
                        ),
                    );
                }
                if r.time < self.prev_time {
                    report.push(
                        Code::E001GlobalTimeRegression,
                        Span::at(r.thread, i),
                        format!(
                            "global clock goes backwards: {} ns after {} ns",
                            r.time.0, self.prev_time.0
                        ),
                    );
                }
                // Resynchronize after a dip so one corruption yields one
                // diagnostic instead of flagging every later in-order record.
                self.prev_time = r.time;
                if r.thread.index() < self.n_threads {
                    let idx = r.thread.index();
                    let span = Span::at(r.thread, i);
                    self.step(idx, span, r, report);
                    Some((idx, span))
                } else {
                    None
                }
            }
            Shape::Set => {
                let j = self.next_record;
                self.next_record += 1;
                let idx = self.current;
                let thread = self.threads[idx].thread;
                let span = Span::at(thread, j);
                if r.thread != thread {
                    report.push(
                        Code::E009MisplacedThread,
                        span,
                        format!("record of {} found in {thread}'s trace", r.thread),
                    );
                }
                if r.time < self.threads[idx].prev_time {
                    report.push(
                        Code::E002ThreadTimeRegression,
                        span,
                        format!(
                            "{thread}'s clock goes backwards: {} ns after {} ns",
                            r.time.0, self.threads[idx].prev_time.0
                        ),
                    );
                }
                self.threads[idx].prev_time = r.time;
                self.step(idx, span, r, report);
                Some((idx, span))
            }
        }
    }

    /// The shape-independent per-thread protocol checks.
    fn step(&mut self, idx: usize, span: Span, r: &TraceRecord, report: &mut Report) {
        let tw = &mut self.threads[idx];
        tw.count += 1;
        if tw.first_kind.is_none() {
            tw.first_kind = Some(r.kind);
        }
        tw.last_kind = Some(r.kind);
        let (owner, element) = match r.kind {
            EventKind::BarrierEnter { barrier } => {
                if let Some((inside, _)) = tw.open {
                    report.push(
                        Code::E004BarrierProtocol,
                        span,
                        format!(
                            "{} enters barrier {} while still inside barrier {}",
                            tw.thread,
                            barrier.index(),
                            inside.index()
                        ),
                    );
                }
                tw.open = Some((barrier, span));
                tw.epoch += 1;
                if self.shape == Shape::Program {
                    self.prune_dead_epochs();
                }
                return;
            }
            EventKind::BarrierExit { barrier } => {
                match tw.open.take() {
                    None => report.push(
                        Code::E004BarrierProtocol,
                        span,
                        format!(
                            "{} exits barrier {} without having entered it",
                            tw.thread,
                            barrier.index()
                        ),
                    ),
                    Some((entered, _)) if entered != barrier => report.push(
                        Code::E004BarrierProtocol,
                        span,
                        format!(
                            "{} exits barrier {} but entered barrier {}",
                            tw.thread,
                            barrier.index(),
                            entered.index()
                        ),
                    ),
                    Some(_) => {}
                }
                return;
            }
            EventKind::Marker { id } => {
                tw.markers.push(id);
                self.marker_total += 1;
                return;
            }
            EventKind::RemoteRead { owner, element, .. }
            | EventKind::RemoteWrite { owner, element, .. } => (owner, element),
            _ => return,
        };
        // Ownership is only required to be consistent *within* a barrier
        // epoch: programs redistribute arrays (and multigrid codes reuse
        // element ids across levels), but two same-epoch accesses naming
        // different owners for one element cannot both be right.
        let (thread, epoch) = (tw.thread, tw.epoch);
        if owner.index() >= self.n_threads {
            report.push(
                Code::E006DanglingElement,
                span,
                format!(
                    "remote access to element {} names owner {owner} but the trace has \
                     {} threads",
                    element.index(),
                    self.n_threads
                ),
            );
        } else if owner == thread {
            report.push(
                Code::W002SelfRemoteAccess,
                span,
                format!(
                    "{thread} remote-accesses element {} it owns itself (local access \
                     traced as remote?)",
                    element.index()
                ),
            );
        }
        match self.owners.get(&(epoch, element)) {
            None => {
                self.owners.insert((epoch, element), owner);
            }
            Some(&first) if first != owner => {
                report.push(
                    Code::E006DanglingElement,
                    span,
                    format!(
                        "element {} accessed with owner {owner} but an access in the same \
                         barrier epoch names owner {first} (inconsistent ownership)",
                        element.index()
                    ),
                );
            }
            Some(_) => {}
        }
    }

    /// Drops ownership entries for epochs every thread has left.  Only
    /// sound for program traces: the global stream is consumed in time
    /// order, so once the minimum per-thread epoch passes `e`, no
    /// further record can land in epoch `e`.
    fn prune_dead_epochs(&mut self) {
        let min_epoch = self.threads.iter().map(|t| t.epoch).min().unwrap_or(0);
        while self
            .owners
            .first_key_value()
            .is_some_and(|(k, _)| k.0 < min_epoch)
        {
            self.owners.pop_first();
        }
    }

    /// Emits the end-of-stream diagnostics: per-thread frame (`W003`)
    /// and unclosed-barrier (`E004`) checks, then the cross-thread
    /// marker comparison (`W001`).
    fn finish(&mut self, report: &mut Report) {
        for tw in &self.threads {
            match (tw.first_kind, tw.last_kind) {
                (None, _) => report.push(
                    Code::W003MissingThreadFrame,
                    Span::thread(tw.thread),
                    format!("{} has no events at all", tw.thread),
                ),
                (Some(EventKind::ThreadBegin), Some(EventKind::ThreadEnd)) => {}
                (first, last) => report.push(
                    Code::W003MissingThreadFrame,
                    Span::thread(tw.thread),
                    format!(
                        "{}'s stream is not framed by begin/end (starts with {}, ends with {})",
                        tw.thread,
                        first.map(|k| k.tag()).unwrap_or("nothing"),
                        last.map(|k| k.tag()).unwrap_or("nothing"),
                    ),
                ),
            }
            if let Some((barrier, span)) = tw.open {
                report.push(
                    Code::E004BarrierProtocol,
                    span,
                    format!(
                        "{} enters barrier {} but never exits it",
                        tw.thread,
                        barrier.index()
                    ),
                );
            }
        }
        let Some(first) = self.threads.first() else {
            return;
        };
        let (reference, ref_thread) = (&first.markers, first.thread);
        for tw in &self.threads[1..] {
            if &tw.markers != reference {
                report.push(
                    Code::W001MarkerMismatch,
                    Span::thread(tw.thread),
                    format!(
                        "{} passes marker sequence {:?} but {ref_thread} passes {:?}",
                        tw.thread, tw.markers, reference
                    ),
                );
            }
        }
    }

    /// Estimated bytes of resident analysis state (O(1) to compute).
    fn resident_bytes(&self) -> usize {
        self.threads.len() * size_of::<ThreadWf>()
            + self.marker_total * size_of::<u32>()
            + self.owners.len() * size_of::<((usize, ElementId), ThreadId)>()
    }
}

/// One element's accesses within one barrier epoch, collapsed to the
/// digest `E007` needs: the first writer (in view order) and the set of
/// participating threads.
struct EpochAccess {
    writer: Option<(ThreadId, Span, (usize, usize))>,
    participants: BTreeSet<ThreadId>,
}

/// Per-thread soundness digest.
struct ThreadSound {
    thread: ThreadId,
    epoch: usize,
    entered: usize,
    first_mismatch: Option<(usize, u32, u32)>,
    /// Barrier enters that arrived before the reference sequence grew
    /// to their position; resolved at [`SoundnessStream::finish`].
    pending: Vec<(usize, u32)>,
}

impl ThreadSound {
    fn new(thread: ThreadId) -> ThreadSound {
        ThreadSound {
            thread,
            epoch: 0,
            entered: 0,
            first_mismatch: None,
            pending: Vec::new(),
        }
    }
}

/// Translation soundness: does the §3.2 translation of this program
/// preserve its meaning?  Two checks:
///
/// * **Static deadlock detection** (`E005`) — every thread must pass the
///   same barrier sequence.  With global barriers a thread that enters
///   fewer (or different) barriers than its peers leaves the others
///   waiting forever; translation would silently manufacture a schedule
///   for a program that cannot finish.  Each thread's sequence is
///   compared against the first thread's as a digest (a counter and the
///   first mismatch), never stored.
/// * **Causality** (`E007`) — a vector-clock happens-before check that
///   the translated per-thread replay preserves the dependences of the
///   original run.  Under the data-parallel model the only inter-thread
///   ordering is the global barrier, so each thread's vector clock
///   collapses to its barrier-epoch counter: two accesses on different
///   threads are ordered iff their epochs differ.  A remote **write**
///   concurrent (same epoch) with another thread's access to the same
///   element therefore has no happens-before edge — the value observed
///   depends on timing, and extrapolated timings are exactly what the
///   pipeline changes.  This is the paper's §5 determinism condition,
///   and this machine is the tool's only check of it (`extrap lint
///   FILE`), reported as a race-detector diagnostic with spans.
///
/// Records referencing out-of-range thread ids never reach it:
/// [`StreamLinter`] routes only the records `WellFormedStream`
/// attributes to a thread (which reports the rest as `E003`).
struct SoundnessStream {
    shape: Shape,
    threads: Vec<ThreadSound>,
    /// The first thread's barrier-id sequence (the `E005` reference).
    reference: Vec<u32>,
    accesses: BTreeMap<(usize, ElementId), EpochAccess>,
    /// `E007` diagnostics for epochs already pruned (program shape);
    /// buffered so they still render after the `E005`s, in key order.
    early_e007: Vec<Diagnostic>,
    pending_total: usize,
    participants_total: usize,
}

impl SoundnessStream {
    /// A machine for a program trace declaring `n_threads`.
    fn for_program(n_threads: usize) -> SoundnessStream {
        SoundnessStream {
            shape: Shape::Program,
            threads: (0..n_threads)
                .map(|t| ThreadSound::new(ThreadId(t as u32)))
                .collect(),
            reference: Vec::new(),
            accesses: BTreeMap::new(),
            early_e007: Vec::new(),
            pending_total: 0,
            participants_total: 0,
        }
    }

    /// A machine for a trace set.
    fn for_set() -> SoundnessStream {
        SoundnessStream {
            shape: Shape::Set,
            threads: Vec::new(),
            reference: Vec::new(),
            accesses: BTreeMap::new(),
            early_e007: Vec::new(),
            pending_total: 0,
            participants_total: 0,
        }
    }

    /// Starts the next per-thread segment (set shape only).
    fn begin_thread(&mut self, thread: ThreadId) {
        debug_assert_eq!(self.shape, Shape::Set);
        self.threads.push(ThreadSound::new(thread));
    }

    /// Feeds one record attributed to thread index `idx` (program:
    /// `r.thread`'s index; set: the segment position) at `span`.
    fn record(&mut self, idx: usize, span: Span, r: &TraceRecord) {
        match r.kind {
            EventKind::BarrierEnter { barrier } => {
                let t = &mut self.threads[idx];
                let pos = t.entered;
                t.entered += 1;
                t.epoch += 1;
                if idx == 0 {
                    self.reference.push(barrier.0);
                } else if pos < self.reference.len() {
                    if self.reference[pos] != barrier.0 && t.first_mismatch.is_none() {
                        t.first_mismatch = Some((pos, barrier.0, self.reference[pos]));
                    }
                } else {
                    t.pending.push((pos, barrier.0));
                    self.pending_total += 1;
                }
                if self.shape == Shape::Program {
                    self.prune_dead_epochs();
                }
            }
            EventKind::RemoteRead { element, .. } => self.note_access(idx, span, element, false),
            EventKind::RemoteWrite { element, .. } => self.note_access(idx, span, element, true),
            _ => {}
        }
    }

    fn note_access(&mut self, idx: usize, span: Span, element: ElementId, write: bool) {
        let t = &self.threads[idx];
        let (thread, epoch) = (t.thread, t.epoch);
        let acc = self
            .accesses
            .entry((epoch, element))
            .or_insert_with(|| EpochAccess {
                writer: None,
                participants: BTreeSet::new(),
            });
        if acc.participants.insert(thread) {
            self.participants_total += 1;
        }
        if write {
            // "First writer" in view order = minimal (view index, record
            // index), so a program stream that interleaves threads picks
            // the writer a thread-by-thread reading would.
            let key = (idx, span.record.unwrap_or(0));
            match acc.writer {
                Some((_, _, k)) if k <= key => {}
                _ => acc.writer = Some((thread, span, key)),
            }
        }
    }

    /// Converts one collapsed access cell into its `E007` diagnostic,
    /// if it is a race (a writer plus at least one other participant).
    fn race_diagnostic(key: (usize, ElementId), acc: &EpochAccess) -> Option<Diagnostic> {
        let (epoch, element) = key;
        let (writer, span, _) = acc.writer?;
        if acc.participants.len() <= 1 {
            return None;
        }
        let others: Vec<String> = acc
            .participants
            .iter()
            .filter(|&&t| t != writer)
            .map(|t| t.to_string())
            .collect();
        Some(Diagnostic::new(
            Code::E007CausalityViolation,
            span,
            format!(
                "write to element {} by {writer} is concurrent with accesses by {} in \
                 barrier epoch {epoch} — no happens-before edge orders them, so the \
                 trace does not transfer across timings (§5)",
                element.index(),
                others.join(", "),
            ),
        ))
    }

    /// Evaluates and drops access cells for epochs every thread has
    /// left (program shape; see [`WellFormedStream::prune_dead_epochs`]).
    fn prune_dead_epochs(&mut self) {
        let min_epoch = self.threads.iter().map(|t| t.epoch).min().unwrap_or(0);
        while self
            .accesses
            .first_key_value()
            .is_some_and(|(k, _)| k.0 < min_epoch)
        {
            let (key, acc) = self.accesses.pop_first().expect("peeked non-empty");
            self.participants_total -= acc.participants.len();
            if let Some(d) = SoundnessStream::race_diagnostic(key, &acc) {
                self.early_e007.push(d);
            }
        }
    }

    /// Emits the end-of-stream diagnostics: `E005` per disagreeing
    /// thread, then every `E007` race in `(epoch, element)` order.
    fn finish(&mut self, report: &mut Report) {
        if self.threads.is_empty() {
            return;
        }
        let (head, tail) = self.threads.split_at_mut(1);
        let ref_thread = head[0].thread;
        let ref_len = self.reference.len();
        for t in tail {
            // Resolve enters that outran the reference, keeping the
            // lowest-position mismatch (a pending entry at position p can
            // precede an inline-compared one at position q > p).
            for &(pos, b) in &t.pending {
                if pos < ref_len && self.reference[pos] != b {
                    match t.first_mismatch {
                        Some((p, _, _)) if p <= pos => {}
                        _ => t.first_mismatch = Some((pos, b, self.reference[pos])),
                    }
                }
            }
            if t.entered != ref_len {
                report.push(
                    Code::E005BarrierMismatch,
                    Span::thread(t.thread),
                    format!(
                        "{} enters {} barriers but {ref_thread} enters {} — the threads \
                         deadlock at barrier number {}",
                        t.thread,
                        t.entered,
                        ref_len,
                        t.entered.min(ref_len)
                    ),
                );
            } else if let Some((i, a, b)) = t.first_mismatch {
                report.push(
                    Code::E005BarrierMismatch,
                    Span::thread(t.thread),
                    format!(
                        "{} enters barrier {a} where {ref_thread} enters barrier {b} \
                         (position {i} of the barrier sequence)",
                        t.thread
                    ),
                );
            }
        }
        // Pruned epochs first (lower keys), then the still-live cells:
        // together, ascending (epoch, element) order.
        for d in self.early_e007.drain(..) {
            report.diagnostics.push(d);
        }
        for (&key, acc) in &self.accesses {
            if let Some(d) = SoundnessStream::race_diagnostic(key, acc) {
                report.diagnostics.push(d);
            }
        }
    }

    /// Estimated bytes of resident analysis state (O(1) to compute;
    /// excludes buffered diagnostics, which are output, not state).
    fn resident_bytes(&self) -> usize {
        self.threads.len() * size_of::<ThreadSound>()
            + self.reference.len() * size_of::<u32>()
            + self.pending_total * size_of::<(usize, u32)>()
            + self.accesses.len() * size_of::<((usize, ElementId), EpochAccess)>()
            + self.participants_total * size_of::<ThreadId>()
    }
}

/// Both trace check families behind one record-at-a-time interface,
/// producing the same [`Report`] as [`crate::lint_program`] /
/// [`crate::lint_set`] (see module docs).
pub struct StreamLinter {
    wf: WellFormedStream,
    sound: SoundnessStream,
    report: Report,
    peak_resident: usize,
}

impl StreamLinter {
    /// A linter for a program trace declaring `n_threads`.
    pub fn for_program(n_threads: usize) -> StreamLinter {
        let mut lt = StreamLinter {
            wf: WellFormedStream::for_program(n_threads),
            sound: SoundnessStream::for_program(n_threads),
            report: Report::new(),
            peak_resident: 0,
        };
        lt.note_peak();
        lt
    }

    /// A linter for a trace set declaring `n_threads` segments.
    pub fn for_set(n_threads: usize) -> StreamLinter {
        let mut lt = StreamLinter {
            wf: WellFormedStream::for_set(n_threads),
            sound: SoundnessStream::for_set(),
            report: Report::new(),
            peak_resident: 0,
        };
        lt.note_peak();
        lt
    }

    /// Starts the next per-thread segment (set shape only).
    pub fn begin_thread(&mut self, position: usize, thread: ThreadId) {
        self.wf.begin_thread(position, thread, &mut self.report);
        self.sound.begin_thread(thread);
        self.note_peak();
    }

    /// Feeds one record through both machines.
    pub fn record(&mut self, r: &TraceRecord) {
        if let Some((idx, span)) = self.wf.record(r, &mut self.report) {
            self.sound.record(idx, span, r);
        }
        self.note_peak();
    }

    /// Finishes both machines and returns the combined report.
    pub fn finish(mut self) -> Report {
        self.wf.finish(&mut self.report);
        self.sound.finish(&mut self.report);
        self.report
    }

    fn note_peak(&mut self) {
        let resident = self.resident_bytes();
        if resident > self.peak_resident {
            self.peak_resident = resident;
        }
    }

    /// Estimated bytes of resident analysis state right now.
    pub fn resident_bytes(&self) -> usize {
        self.wf.resident_bytes() + self.sound.resident_bytes()
    }

    /// The high-water mark of [`resident_bytes`](Self::resident_bytes)
    /// over the stream so far — what the memory-bound tests pin.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
    }
}

/// Lints a chunked program-trace stream without materializing it.
pub fn lint_program_stream<S: ChunkSource>(
    stream: &mut ProgramStream<S>,
) -> Result<Report, TraceError> {
    let mut lt = StreamLinter::for_program(stream.n_threads());
    while let Some(chunk) = stream.next_chunk()? {
        for r in chunk {
            lt.record(r);
        }
    }
    Ok(lt.finish())
}

/// Lints a chunked trace-set stream without materializing it.
pub fn lint_set_stream<S: ChunkSource>(stream: &mut SetStream<S>) -> Result<Report, TraceError> {
    let mut lt = StreamLinter::for_set(stream.n_threads());
    loop {
        match stream.next_chunk()? {
            None => break,
            Some(SetChunk::Thread {
                position, thread, ..
            }) => lt.begin_thread(position, thread),
            Some(SetChunk::Records(recs)) => {
                for r in recs {
                    lt.record(r);
                }
            }
        }
    }
    Ok(lt.finish())
}

/// Lints a trace file through the chunked reader, dispatching on its
/// magic bytes and recycling `arena`'s buffers across calls.
///
/// Returns `Ok(None)` when the file carries neither trace magic (the
/// caller decides whether to treat it as config text).
pub fn lint_trace_file(
    path: impl AsRef<Path>,
    arena: &mut StreamArena,
) -> Result<Option<Report>, TraceError> {
    let path = path.as_ref();
    let kind = sniff_kind(path).map_err(|e| TraceError::from(e).in_file(path))?;
    let taken = std::mem::take(arena);
    match kind {
        None => {
            *arena = taken;
            Ok(None)
        }
        Some(TraceKind::Program) => {
            let mut stream = ProgramStream::open_with_arena(path, taken)?;
            let report = lint_program_stream(&mut stream);
            *arena = stream.into_arena();
            report.map(Some)
        }
        Some(TraceKind::Set) => {
            let mut stream = SetStream::open_with_arena(path, taken)?;
            let report = lint_set_stream(&mut stream);
            *arena = stream.into_arena();
            report.map(Some)
        }
    }
}
