//! Incremental lint machines: every trace check as a state machine fed
//! record-by-record, so multi-gigabyte traces lint in bounded memory.
//!
//! [`StreamLinter`] combines the two trace check families:
//!
//! * `WellFormedStream` — fully streaming well-formedness (`E001`,
//!   `E002`, `E003`, `E004`, `E006`, `E009`, `W001`, `W002`, `W003`);
//! * `SoundnessStream` — translation soundness (`E005`, `E007`; its
//!   docs give the §5 argument), keeping only per-thread
//!   barrier-sequence digests;
//! * `EpochCells` — the collapsed vector clocks (barrier-epoch
//!   counters) and the per-epoch element cells that `E006` and `E007`
//!   share, never the record stream.
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
//! * per thread: a constant-size cursor (clock, barrier-protocol cell)
//!   plus its phase-marker sequence (markers are rare — one per program
//!   phase — and `W001`'s message prints the full sequences, so they
//!   are retained);
//! * `EpochCells` holds each thread's barrier epoch once, for both
//!   checks, and **one table of cells per live epoch**: a cell is one
//!   element's accesses in that epoch (first claimed owner for `E006`;
//!   first writer and sorted participants for `E007`).  For program
//!   traces (global time order, so epochs advance together) a
//!   per-epoch thread count gives the minimum epoch in O(1); when every
//!   thread has left an epoch its table is decided, cleared and reused,
//!   so only **live** epochs hold cells.  For trace sets the epoch
//!   counter restarts with every segment, so tables are never pruned
//!   and stay bounded by distinct `(epoch, element)` pairs, not records;
//! * the `E005` digest keeps the first thread's barrier-id sequence as
//!   the reference plus, per other thread, a counter, the first
//!   mismatch, and any enters that arrived before the reference grew.
//!
//! The tables hash element ids with a fixed hasher, and a table's races
//! are sorted by element before they are reported, so `E007`s come out
//! in `(epoch, element)` order and hash order never reaches the output.
//!
//! [`StreamLinter::peak_resident_bytes`] reports an estimate of that
//! state (analysis state only, excluding emitted diagnostics; reused
//! tables and participant vectors count at their capacity), which tests
//! pin to show the bound holds as traces grow.

use crate::diag::{Code, Diagnostic, Report, Span};
use extrap_time::{BarrierId, ElementId, ThreadId, TimeNs};
use extrap_trace::stream::{ChunkSource, ProgramStream, SetChunk, SetStream, TraceStream};
use extrap_trace::{EventKind, TraceError, TraceRecord};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
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

    /// Feeds one record; returns the thread index the record was
    /// attributed to, or `None` when it belongs to no tracked
    /// thread (out-of-range ids in a program trace).
    fn record(
        &mut self,
        r: &TraceRecord,
        cells: &mut EpochCells,
        report: &mut Report,
    ) -> Option<usize> {
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
                    self.step(idx, span, r, cells, report);
                    Some(idx)
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
                self.step(idx, span, r, cells, report);
                Some(idx)
            }
        }
    }

    /// The shape-independent per-thread protocol checks.
    fn step(
        &mut self,
        idx: usize,
        span: Span,
        r: &TraceRecord,
        cells: &mut EpochCells,
        report: &mut Report,
    ) {
        let tw = &mut self.threads[idx];
        tw.count += 1;
        if tw.first_kind.is_none() {
            tw.first_kind = Some(r.kind);
        }
        tw.last_kind = Some(r.kind);
        let (owner, element, write) = match r.kind {
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
                cells.enter(idx);
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
            EventKind::RemoteRead { owner, element, .. } => (owner, element, false),
            EventKind::RemoteWrite { owner, element, .. } => (owner, element, true),
            _ => return,
        };
        // Ownership is only required to be consistent *within* a barrier
        // epoch: programs redistribute arrays (and multigrid codes reuse
        // element ids across levels), but two same-epoch accesses naming
        // different owners for one element cannot both be right.
        let thread = tw.thread;
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
        let record = span.record.unwrap_or(0);
        let first = cells.access(idx, thread, record, owner, element, write);
        if first != owner {
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
        self.threads.len() * size_of::<ThreadWf>() + self.marker_total * size_of::<u32>()
    }
}

/// The element-id hasher of the cell tables: one folded multiply with a
/// fixed constant (no per-process seed, unlike `RandomState`).  Hash
/// order never reaches the output: a table's races are sorted by
/// element before they are reported.
#[derive(Default, Clone, Copy)]
struct ElementHasher(u64);

impl Hasher for ElementHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
}

/// One epoch's cells, keyed by element.
type Table = HashMap<ElementId, Cell, BuildHasherDefault<ElementHasher>>;

/// One element's accesses within one barrier epoch, as both checks need
/// them: the first claimed owner (`E006`), and for `E007` the first
/// writer in view order plus the participating threads, sorted.
struct Cell {
    owner: ThreadId,
    writer: Option<Writer>,
    participants: Vec<ThreadId>,
}

/// A cell's first writer and its place in view order: `(view index,
/// record index)`, where the view index is the thread's (program) or
/// the segment's position (set), so a program stream that interleaves
/// threads picks the writer a thread-by-thread reading would.
#[derive(Clone, Copy)]
struct Writer {
    thread: ThreadId,
    view: (usize, usize),
}

/// The live-epoch window both checks share: each thread's barrier
/// epoch, and one table of [`Cell`]s per epoch from the oldest live one
/// to the newest accessed.
///
/// In program shape a per-epoch thread count gives the minimum epoch in
/// O(1).  When it passes an epoch no further record can land there (the
/// global stream is in time order), so the epoch's races are decided and
/// its table is cleared and kept for reuse, as are the participant
/// vectors of its cells.  In set shape epochs restart per segment, so
/// the window starts at 0 and nothing is pruned.
struct EpochCells {
    shape: Shape,
    /// Per thread (program) or segment (set): its barrier epoch.
    epochs: Vec<usize>,
    /// The oldest live epoch: the minimum of `epochs` (program), 0 (set).
    base: usize,
    /// Program shape: threads per epoch, indexed by `epoch - base`.
    counts: VecDeque<usize>,
    /// Cells per epoch, indexed by `epoch - base`.
    tables: VecDeque<Table>,
    spare_tables: Vec<Table>,
    spare_participants: Vec<Vec<ThreadId>>,
    /// `E007`s of pruned epochs, in `(epoch, element)` order; buffered
    /// so they still render after the `E005`s.
    races: Vec<Diagnostic>,
    /// Capacity ever allocated to tables and participant vectors (reuse
    /// keeps it, so it only grows).
    table_slots: usize,
    participant_slots: usize,
}

impl EpochCells {
    /// The window of a program trace declaring `n_threads`, all in epoch 0.
    fn for_program(n_threads: usize) -> EpochCells {
        let mut cells = EpochCells::for_set();
        cells.shape = Shape::Program;
        cells.epochs = vec![0; n_threads];
        if n_threads > 0 {
            cells.counts.push_back(n_threads);
        }
        cells
    }

    /// The window of a trace set: segments arrive via `begin_thread`.
    fn for_set() -> EpochCells {
        EpochCells {
            shape: Shape::Set,
            epochs: Vec::new(),
            base: 0,
            counts: VecDeque::new(),
            tables: VecDeque::new(),
            spare_tables: Vec::new(),
            spare_participants: Vec::new(),
            races: Vec::new(),
            table_slots: 0,
            participant_slots: 0,
        }
    }

    /// Starts the next per-thread segment (set shape only), in epoch 0.
    fn begin_thread(&mut self) {
        self.epochs.push(0);
    }

    /// Thread `idx` enters a barrier: it moves to the next epoch, and in
    /// program shape every epoch the minimum passes is decided.
    fn enter(&mut self, idx: usize) {
        let epoch = self.epochs[idx];
        self.epochs[idx] = epoch + 1;
        if self.shape == Shape::Set {
            return;
        }
        let slot = epoch - self.base;
        self.counts[slot] -= 1;
        if self.counts.len() == slot + 1 {
            self.counts.push_back(0);
        }
        self.counts[slot + 1] += 1;
        while self.counts.front() == Some(&0) {
            self.counts.pop_front();
            if let Some(mut table) = self.tables.pop_front() {
                decide(
                    self.base,
                    &mut table,
                    &mut self.spare_participants,
                    &mut self.races,
                );
                self.spare_tables.push(table);
            }
            self.base += 1;
        }
    }

    /// Records thread `idx`'s access to `element` naming `owner` in its
    /// current epoch; returns the owner the cell's first access named.
    fn access(
        &mut self,
        idx: usize,
        thread: ThreadId,
        record: usize,
        owner: ThreadId,
        element: ElementId,
        write: bool,
    ) -> ThreadId {
        let slot = self.epochs[idx] - self.base;
        while self.tables.len() <= slot {
            let table = self.spare_tables.pop().unwrap_or_default();
            self.tables.push_back(table);
        }
        let table = &mut self.tables[slot];
        let capacity = table.capacity();
        let spare = &mut self.spare_participants;
        let cell = table.entry(element).or_insert_with(|| Cell {
            owner,
            writer: None,
            participants: spare.pop().unwrap_or_default(),
        });
        let participants = &mut cell.participants;
        if let Err(pos) = participants.binary_search(&thread) {
            let had = participants.capacity();
            participants.insert(pos, thread);
            self.participant_slots += participants.capacity() - had;
        }
        if write {
            let view = (idx, record);
            match cell.writer {
                Some(w) if w.view <= view => {}
                _ => cell.writer = Some(Writer { thread, view }),
            }
        }
        let first = cell.owner;
        self.table_slots += table.capacity() - capacity;
        first
    }

    /// Emits every `E007`: the pruned epochs' first, then each live
    /// epoch's in turn — together, ascending `(epoch, element)` order.
    fn finish(&mut self, report: &mut Report) {
        report.diagnostics.append(&mut self.races);
        for (i, table) in self.tables.iter_mut().enumerate() {
            decide(
                self.base + i,
                table,
                &mut self.spare_participants,
                &mut report.diagnostics,
            );
        }
    }

    /// Estimated bytes of resident analysis state (O(1) to compute);
    /// spare tables and vectors count at their capacity.
    fn resident_bytes(&self) -> usize {
        (self.epochs.capacity() + self.counts.capacity()) * size_of::<usize>()
            + (self.tables.capacity() + self.spare_tables.capacity()) * size_of::<Table>()
            + self.table_slots * (size_of::<(ElementId, Cell)>() + 1)
            + self.spare_participants.capacity() * size_of::<Vec<ThreadId>>()
            + self.participant_slots * size_of::<ThreadId>()
    }
}

/// Decides one epoch: drains its table, appends its races to `out`
/// sorted by element, and keeps each cell's participant vector, cleared,
/// in `spare`.
fn decide(
    epoch: usize,
    table: &mut Table,
    spare: &mut Vec<Vec<ThreadId>>,
    out: &mut Vec<Diagnostic>,
) {
    let mut races = Vec::new();
    for (element, mut cell) in table.drain() {
        if let Some(d) = race_diagnostic(epoch, element, &cell) {
            races.push((element, d));
        }
        cell.participants.clear();
        spare.push(cell.participants);
    }
    races.sort_unstable_by_key(|&(element, _)| element);
    out.extend(races.into_iter().map(|(_, d)| d));
}

/// One cell's `E007` diagnostic, if it is a race (a writer plus at
/// least one other participant).
fn race_diagnostic(epoch: usize, element: ElementId, cell: &Cell) -> Option<Diagnostic> {
    let Writer {
        thread: writer,
        view,
    } = cell.writer?;
    if cell.participants.len() <= 1 {
        return None;
    }
    let others: Vec<String> = cell
        .participants
        .iter()
        .filter(|&&t| t != writer)
        .map(|t| t.to_string())
        .collect();
    Some(Diagnostic::new(
        Code::E007CausalityViolation,
        Span::at(writer, view.1),
        format!(
            "write to element {} by {writer} is concurrent with accesses by {} in \
             barrier epoch {epoch} — no happens-before edge orders them, so the \
             trace does not transfer across timings (§5)",
            element.index(),
            others.join(", "),
        ),
    ))
}

/// Per-thread soundness digest.
struct ThreadSound {
    thread: ThreadId,
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
///   first mismatch), never stored.  This machine holds that digest.
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
///   and it is the tool's only check of it (`extrap lint FILE`),
///   reported as a race-detector diagnostic with spans.  The epoch
///   counters and per-epoch cells live in `EpochCells`, shared with
///   `E006`.
///
/// Records referencing out-of-range thread ids never reach it:
/// [`StreamLinter`] routes only the records `WellFormedStream`
/// attributes to a thread (which reports the rest as `E003`).
struct SoundnessStream {
    threads: Vec<ThreadSound>,
    /// The first thread's barrier-id sequence (the `E005` reference).
    reference: Vec<u32>,
    pending_total: usize,
}

impl SoundnessStream {
    /// A machine for a program trace declaring `n_threads`.
    fn for_program(n_threads: usize) -> SoundnessStream {
        SoundnessStream {
            threads: (0..n_threads)
                .map(|t| ThreadSound::new(ThreadId(t as u32)))
                .collect(),
            ..SoundnessStream::for_set()
        }
    }

    /// A machine for a trace set.
    fn for_set() -> SoundnessStream {
        SoundnessStream {
            threads: Vec::new(),
            reference: Vec::new(),
            pending_total: 0,
        }
    }

    /// Starts the next per-thread segment (set shape only).
    fn begin_thread(&mut self, thread: ThreadId) {
        self.threads.push(ThreadSound::new(thread));
    }

    /// Feeds one record attributed to thread index `idx` (program:
    /// `r.thread`'s index; set: the segment position).
    fn record(&mut self, idx: usize, r: &TraceRecord) {
        let EventKind::BarrierEnter { barrier } = r.kind else {
            return;
        };
        let t = &mut self.threads[idx];
        let pos = t.entered;
        t.entered += 1;
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
    }

    /// Emits the end-of-stream diagnostics: `E005` per disagreeing
    /// thread.
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
    }

    /// Estimated bytes of resident analysis state (O(1) to compute).
    fn resident_bytes(&self) -> usize {
        self.threads.len() * size_of::<ThreadSound>()
            + self.reference.len() * size_of::<u32>()
            + self.pending_total * size_of::<(usize, u32)>()
    }
}

/// Both trace check families behind one record-at-a-time interface,
/// producing the same [`Report`] as [`crate::lint_program`] /
/// [`crate::lint_set`] (see module docs).
pub struct StreamLinter {
    wf: WellFormedStream,
    sound: SoundnessStream,
    cells: EpochCells,
    report: Report,
    peak_resident: usize,
}

impl StreamLinter {
    /// A linter for a program trace declaring `n_threads`.
    pub fn for_program(n_threads: usize) -> StreamLinter {
        let mut lt = StreamLinter {
            wf: WellFormedStream::for_program(n_threads),
            sound: SoundnessStream::for_program(n_threads),
            cells: EpochCells::for_program(n_threads),
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
            cells: EpochCells::for_set(),
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
        self.cells.begin_thread();
        self.note_peak();
    }

    /// Feeds one record through both machines.
    pub fn record(&mut self, r: &TraceRecord) {
        if let Some(idx) = self.wf.record(r, &mut self.cells, &mut self.report) {
            self.sound.record(idx, r);
        }
        self.note_peak();
    }

    /// Finishes both machines and returns the combined report.
    pub fn finish(mut self) -> Report {
        self.wf.finish(&mut self.report);
        self.sound.finish(&mut self.report);
        self.cells.finish(&mut self.report);
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
        self.wf.resident_bytes() + self.sound.resident_bytes() + self.cells.resident_bytes()
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
/// magic bytes ([`TraceStream`]).
///
/// Returns `Ok(None)` when the file carries neither trace magic (the
/// caller decides whether to treat it as config text).
pub fn lint_trace_file(path: impl AsRef<Path>) -> Result<Option<Report>, TraceError> {
    match TraceStream::open(path) {
        Ok(TraceStream::Program(mut stream)) => lint_program_stream(&mut stream).map(Some),
        Ok(TraceStream::Set(mut stream)) => lint_set_stream(&mut stream).map(Some),
        Err(TraceError::InFile { source, .. }) if matches!(*source, TraceError::NotATrace) => {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}
