//! The processor model (§3.3.1): computation-time scaling by `MipsRatio`
//! and compilation of translated thread traces into the op scripts the
//! simulation engine executes.
//!
//! A thread's translated trace is a sequence of timestamped events; the
//! time *between* events is that thread's computation, which the target
//! processor executes scaled by `MipsRatio`.  Compilation turns the
//! event stream into an explicit op list:
//!
//! ```text
//! [Compute(d0), RemoteRead{..}, Compute(d1), Barrier(b0), Compute(d2), End]
//! ```
//!
//! Barrier-exit events are *resume points*: the enter→exit gap in the
//! idealized trace is wait, not work, so it never becomes a `Compute` op.

use extrap_time::{BarrierId, DurationNs, ElementId, ThreadId, TimeNs};
use extrap_trace::{EventKind, TraceError, TraceRecord, TraceSet, TranslateSink};

/// One step of a thread's script.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Compute for the given duration in **host** (unscaled) time; the
    /// engine scales it by `MipsRatio` when it dispatches the op.
    Compute(DurationNs),
    /// Issue a blocking remote element read owned by `owner`.  The engine
    /// selects the modelled transfer size from the two recorded sizes per
    /// its `SizeMode`.
    RemoteRead {
        /// Owning thread.
        owner: ThreadId,
        /// Accessed element (carried through to the predicted trace).
        element: ElementId,
        /// Compiler-declared (whole element) size.
        declared_bytes: u32,
        /// Actually required size.
        actual_bytes: u32,
    },
    /// Issue a non-blocking remote element write.
    RemoteWrite {
        /// Owning thread.
        owner: ThreadId,
        /// Accessed element.
        element: ElementId,
        /// Compiler-declared size.
        declared_bytes: u32,
        /// Actual size.
        actual_bytes: u32,
    },
    /// Enter the given global barrier (program-order id).
    Barrier(BarrierId),
    /// Thread completes.
    End,
}

/// Appends the op(s) for one translated record — the single per-record
/// compilation step shared by the whole-trace and streaming compilers.
fn fold_record(ops: &mut Vec<Op>, prev: &mut Option<TimeNs>, rec: &TraceRecord) {
    // Time since the previous event is computation — except the gap
    // ending in a barrier exit, which is barrier wait.
    if let Some(p) = *prev {
        let is_exit = matches!(rec.kind, EventKind::BarrierExit { .. });
        let delta = rec.time.since(p);
        if !is_exit && !delta.is_zero() {
            ops.push(Op::Compute(delta));
        }
    }
    *prev = Some(rec.time);
    match rec.kind {
        EventKind::ThreadBegin | EventKind::Marker { .. } => {}
        EventKind::BarrierEnter { barrier } => ops.push(Op::Barrier(barrier)),
        EventKind::BarrierExit { .. } => {}
        EventKind::RemoteRead {
            owner,
            element,
            declared_bytes,
            actual_bytes,
        } => ops.push(Op::RemoteRead {
            owner,
            element,
            declared_bytes,
            actual_bytes,
        }),
        EventKind::RemoteWrite {
            owner,
            element,
            declared_bytes,
            actual_bytes,
        } => ops.push(Op::RemoteWrite {
            owner,
            element,
            declared_bytes,
            actual_bytes,
        }),
        EventKind::ThreadEnd => ops.push(Op::End),
    }
}

/// One thread of a [`CompiledProgram`]: the op script (unscaled compute)
/// plus the counts the engine uses for exact buffer pre-reservation.
///
/// Every script ends in [`Op::End`]: [`CompiledProgram`] is only ever
/// assembled from scripts sealed by `CompiledThread::new`, which is what
/// [`epochs`] relies on.
///
/// [`epochs`]: CompiledThread::epochs
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledThread {
    /// The thread this script belongs to (drives processor placement).
    pub thread: ThreadId,
    /// The op script, compute durations in **host** (unscaled) time.
    pub ops: Vec<Op>,
    /// Exactly how many records this thread's predicted trace will hold
    /// (begin + end + one per remote op + two per barrier), so `Full`
    /// record mode reserves once and never regrows.
    pub predicted_records: usize,
}

impl CompiledThread {
    /// Seals `ops` (every script ends in [`Op::End`], even for an empty
    /// thread) and counts its exact predicted records: begin + end + one
    /// per remote op + two per barrier.
    pub(crate) fn new(thread: ThreadId, mut ops: Vec<Op>) -> CompiledThread {
        if !matches!(ops.last(), Some(Op::End)) {
            ops.push(Op::End);
        }
        let predicted_records = 2 + ops
            .iter()
            .map(|op| match op {
                Op::RemoteRead { .. } | Op::RemoteWrite { .. } => 1,
                Op::Barrier(_) => 2,
                Op::Compute(_) | Op::End => 0,
            })
            .sum::<usize>();
        CompiledThread {
            thread,
            ops,
            predicted_records,
        }
    }

    /// The script's barrier epochs, in order — the one definition of
    /// where an epoch starts and ends.  Epoch `k` ends with the thread's
    /// `k`-th [`Op::Barrier`], counting from 0; the tail epoch ends with
    /// [`Op::End`].  A script with `b` barriers has `b + 1` epochs.
    pub fn epochs(&self) -> impl Iterator<Item = &[Op]> {
        self.ops.split_inclusive(|op| matches!(op, Op::Barrier(_)))
    }
}

/// A whole trace set compiled once into per-thread op scripts.
///
/// Compilation is parameter-independent (`MipsRatio` scaling happens at
/// execution time), so a sweep over P traces × K parameter sets compiles
/// P times instead of P×K times.  Wrap it in an `Arc` — the sweep cache
/// does — and hand it to [`Extrapolator::run`](crate::Extrapolator::run)
/// as many times as you like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledProgram {
    threads: Vec<CompiledThread>,
    peak_events: usize,
}

impl CompiledProgram {
    /// Validates `traces` and compiles every thread's script.
    ///
    /// This is a thin adapter over the streaming
    /// [`IncrementalCompiler`]: the per-record fold is the same machine
    /// either way, so the whole-trace and out-of-core paths produce
    /// identical programs by construction.
    pub fn compile(traces: &TraceSet) -> Result<CompiledProgram, TraceError> {
        traces.validate()?;
        let mut compiler = IncrementalCompiler::new(traces.threads.len());
        for (i, tt) in traces.threads.iter().enumerate() {
            for rec in &tt.records {
                compiler.emit_record(i, rec)?;
            }
        }
        compiler.finish()
    }

    /// Assembles a program from sealed thread scripts.  The
    /// representative-region path slices a full compiled program at
    /// barrier boundaries into per-cluster mini-programs; every script
    /// must end in [`Op::End`] and the barriers must align globally, as
    /// [`compile`](CompiledProgram::compile) produces them.
    pub(crate) fn from_threads(threads: Vec<CompiledThread>) -> CompiledProgram {
        // Per-epoch remote-write counts, summed across threads:
        // non-blocking writes are the only ops that can pile up in the
        // event queue faster than they drain, and a barrier flushes them,
        // so the busiest epoch bounds the write backlog.
        let mut epoch_writes: Vec<usize> = Vec::new();
        for t in &threads {
            for (e, ops) in t.epochs().enumerate() {
                let writes = ops
                    .iter()
                    .filter(|op| matches!(op, Op::RemoteWrite { .. }))
                    .count();
                match epoch_writes.get_mut(e) {
                    Some(w) => *w += writes,
                    None => epoch_writes.push(writes),
                }
            }
        }
        let peak_events = 3 * threads.len() + epoch_writes.iter().copied().max().unwrap_or(0);
        CompiledProgram {
            threads,
            peak_events,
        }
    }

    /// The compiled per-thread scripts, in thread-index order.
    pub fn threads(&self) -> &[CompiledThread] {
        &self.threads
    }

    /// Number of threads in the program.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// True for the empty (zero-thread) program.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Approximate heap footprint of the compiled scripts in bytes —
    /// the accounting probe cache-eviction budgets are charged against.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<CompiledProgram>()
            + self
                .threads
                .iter()
                .map(|t| {
                    std::mem::size_of::<CompiledThread>()
                        + t.ops.capacity() * std::mem::size_of::<Op>()
                })
                .sum::<usize>()
    }

    /// Estimated peak event-queue occupancy for a simulation of this
    /// program: a small constant per thread (grant + completion + poll
    /// tick) plus the busiest between-barrier burst of non-blocking
    /// remote writes.  The engine reserves this much event-heap
    /// capacity up front.
    pub fn peak_events(&self) -> usize {
        self.peak_events
    }
}

/// Streaming program compiler: folds translated per-thread records into
/// op scripts **as they are emitted**, so a [`CompiledProgram`] is built
/// straight off a translate stream without ever holding the intermediate
/// [`TraceSet`].
///
/// It implements [`TranslateSink`], so it plugs directly into
/// `extrap_trace::translate_stream` — records may arrive interleaved
/// across threads (the epoch translator emits them in epoch-resolution
/// order) because each thread folds independently.
/// [`CompiledProgram::compile`] is an adapter over this machine, which is
/// what makes the whole-trace and out-of-core paths identical by
/// construction: same fold, same sealing, same `peak_events` census.
#[derive(Debug)]
pub struct IncrementalCompiler {
    threads: Vec<ThreadFold>,
    /// Records folded so far, across all threads in arrival order.
    records: usize,
    /// The highest remote-access owner seen, with the arrival index of
    /// the first record naming it: [`finish`](Self::finish) rejects it
    /// if the final thread count does not reach it.
    top_owner: Option<(ThreadId, usize)>,
}

/// One thread's in-progress script fold.
#[derive(Debug, Default)]
struct ThreadFold {
    ops: Vec<Op>,
    prev: Option<TimeNs>,
}

impl IncrementalCompiler {
    /// A compiler expecting records for threads `0..n_threads`.
    pub fn new(n_threads: usize) -> IncrementalCompiler {
        IncrementalCompiler {
            threads: (0..n_threads).map(|_| ThreadFold::default()).collect(),
            records: 0,
            top_owner: None,
        }
    }

    /// Adds a fold for one more thread (index `n_threads()` before the
    /// call), so a set stream grows the compiler as segments arrive
    /// instead of trusting its declared thread count.
    pub(crate) fn push_thread(&mut self) {
        self.threads.push(ThreadFold::default());
    }

    /// Folds one translated record of `thread` into its script.
    pub fn emit_record(&mut self, thread: usize, rec: &TraceRecord) -> Result<(), TraceError> {
        let Some(fold) = self.threads.get_mut(thread) else {
            return Err(TraceError::BadThread {
                record: self.records,
                thread: ThreadId::from_index(thread),
                n_threads: self.threads.len(),
            });
        };
        fold_record(&mut fold.ops, &mut fold.prev, rec);
        if let EventKind::RemoteRead { owner, .. } | EventKind::RemoteWrite { owner, .. } = rec.kind
        {
            if self.top_owner.is_none_or(|(top, _)| owner > top) {
                self.top_owner = Some((owner, self.records));
            }
        }
        self.records += 1;
        Ok(())
    }

    /// Heap bytes currently held by the partially compiled scripts (the
    /// pipeline's *product*, which necessarily grows with distinct
    /// program structure — unlike the translate machinery, which stays
    /// O(threads + live-epoch)).
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<IncrementalCompiler>()
            + self
                .threads
                .iter()
                .map(|t| {
                    std::mem::size_of::<ThreadFold>() + t.ops.capacity() * std::mem::size_of::<Op>()
                })
                .sum::<usize>()
    }

    /// Seals every script and assembles the program (identical to what
    /// [`CompiledProgram::compile`] yields for the equivalent
    /// [`TraceSet`]).
    ///
    /// Every remote access must name an owner below the final thread
    /// count — the engine indexes its threads by owner.  A violation is
    /// [`TraceError::BadThread`], naming the first record that
    /// references the highest out-of-range owner by its arrival index:
    /// its position in a set stream, or in the translation's output for
    /// a raw trace.
    pub fn finish(self) -> Result<CompiledProgram, TraceError> {
        if let Some((owner, record)) = self.top_owner {
            if owner.index() >= self.threads.len() {
                return Err(TraceError::BadThread {
                    record,
                    thread: owner,
                    n_threads: self.threads.len(),
                });
            }
        }
        let threads: Vec<CompiledThread> = self
            .threads
            .into_iter()
            .enumerate()
            .map(|(i, fold)| CompiledThread::new(ThreadId::from_index(i), fold.ops))
            .collect();
        Ok(CompiledProgram::from_threads(threads))
    }
}

impl TranslateSink for IncrementalCompiler {
    fn emit(&mut self, thread: usize, rec: TraceRecord) -> Result<(), TraceError> {
        self.emit_record(thread, &rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork};

    /// Thread `t`'s op script, compiled through the one compile path.
    fn script(traces: &TraceSet, t: usize) -> Vec<Op> {
        CompiledProgram::compile(traces).unwrap().threads()[t]
            .ops
            .clone()
    }

    fn total_compute(ops: &[Op]) -> DurationNs {
        ops.iter()
            .filter_map(|op| match op {
                Op::Compute(d) => Some(*d),
                _ => None,
            })
            .sum()
    }

    /// Two threads, one phase; thread 0 reads a remote element 400ns in.
    fn one_read_phase() -> TraceSet {
        let mut p = PhaseProgram::new(2);
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs(1_000),
                accesses: vec![PhaseAccess {
                    after: DurationNs(400),
                    owner: ThreadId(1),
                    element: ElementId(3),
                    declared_bytes: 2048,
                    actual_bytes: 16,
                    write: false,
                }],
            },
            PhaseWork {
                compute: DurationNs(1_000),
                accesses: vec![],
            },
        ]);
        extrap_trace::translate(&p.record(), Default::default()).unwrap()
    }

    #[test]
    fn script_shape() {
        assert_eq!(
            script(&one_read_phase(), 0),
            vec![
                Op::Compute(DurationNs(400)),
                Op::RemoteRead {
                    owner: ThreadId(1),
                    element: ElementId(3),
                    declared_bytes: 2048,
                    actual_bytes: 16,
                },
                Op::Compute(DurationNs(600)),
                Op::Barrier(BarrierId(0)),
                Op::End,
            ]
        );
    }

    #[test]
    fn barrier_wait_gap_is_not_compute() {
        // Thread 0 finishes early and waits 600ns at the barrier; that gap
        // must not appear as compute.
        let mut p = PhaseProgram::new(2);
        p.push_phase(vec![
            PhaseWork {
                compute: DurationNs(400),
                accesses: vec![],
            },
            PhaseWork {
                compute: DurationNs(1_000),
                accesses: vec![],
            },
        ]);
        p.push_uniform_phase(DurationNs(100));
        let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
        assert_eq!(total_compute(&script(&ts, 0)), DurationNs(500));
    }

    #[test]
    fn markers_are_transparent() {
        let mut compiler = IncrementalCompiler::new(1);
        for (t, kind) in [
            (0, EventKind::ThreadBegin),
            (100, EventKind::Marker { id: 1 }),
            (300, EventKind::ThreadEnd),
        ] {
            let rec = TraceRecord {
                time: TimeNs(t),
                thread: ThreadId(0),
                kind,
            };
            compiler.emit_record(0, &rec).unwrap();
        }
        // Marker splits the compute but contributes no op.
        assert_eq!(
            compiler.finish().unwrap().threads()[0].ops,
            vec![
                Op::Compute(DurationNs(100)),
                Op::Compute(DurationNs(200)),
                Op::End
            ]
        );
    }

    #[test]
    fn compiled_program_is_parameter_independent() {
        let mut p = PhaseProgram::new(2);
        p.push_uniform_phase(DurationNs(1_000));
        let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
        let program = CompiledProgram::compile(&ts).unwrap();
        assert_eq!(program.n_threads(), 2);
        // Raw scripts carry host-time compute; scaling is execution-time.
        assert_eq!(
            program.threads()[0].ops[0],
            Op::Compute(DurationNs(1_000)),
            "compiled compute is unscaled"
        );
    }

    #[test]
    fn compiled_program_counts_predicted_records_exactly() {
        // 1 read + 1 barrier + begin/end = 5.
        let program = CompiledProgram::compile(&one_read_phase()).unwrap();
        assert_eq!(program.threads()[0].predicted_records, 5);
    }

    #[test]
    fn end_op_is_guaranteed() {
        let program = IncrementalCompiler::new(1).finish().unwrap();
        assert_eq!(program.threads()[0].ops, vec![Op::End]);
    }

    /// A random sealed script of up to 40 ops drawn from `rng`.
    fn random_thread(rng: &mut u64) -> CompiledThread {
        use extrap_trace::phases::splitmix64;
        let len = splitmix64(rng) % 41;
        let ops = (0..len)
            .map(|_| {
                let r = splitmix64(rng);
                match r % 5 {
                    0 => Op::Barrier(BarrierId((r >> 8) as u32 % 4)),
                    1 => Op::RemoteRead {
                        owner: ThreadId(1),
                        element: ElementId(0),
                        declared_bytes: 64,
                        actual_bytes: 8,
                    },
                    2 => Op::RemoteWrite {
                        owner: ThreadId(1),
                        element: ElementId(0),
                        declared_bytes: 64,
                        actual_bytes: 8,
                    },
                    _ => Op::Compute(DurationNs(r >> 40)),
                }
            })
            .collect();
        CompiledThread::new(ThreadId(0), ops)
    }

    #[test]
    fn epochs_split_sealed_scripts_at_every_barrier() {
        let mut rng = 0xE90C_u64;
        for _ in 0..500 {
            let thread = random_thread(&mut rng);
            let epochs: Vec<&[Op]> = thread.epochs().collect();
            assert_eq!(epochs.concat(), thread.ops);
            let barriers = thread
                .ops
                .iter()
                .filter(|op| matches!(op, Op::Barrier(_)))
                .count();
            assert_eq!(epochs.len(), barriers + 1, "{:?}", thread.ops);
            let (tail, interior) = epochs.split_last().unwrap();
            for epoch in interior {
                let n = epoch
                    .iter()
                    .filter(|op| matches!(op, Op::Barrier(_)))
                    .count();
                assert_eq!(n, 1, "{epoch:?}");
                assert!(matches!(epoch.last(), Some(Op::Barrier(_))), "{epoch:?}");
            }
            assert!(!tail.iter().any(|op| matches!(op, Op::Barrier(_))));
            assert_eq!(tail.last(), Some(&Op::End));
        }
    }

    #[test]
    fn repr_mini_programs_count_their_predicted_records_exactly() {
        let mut p = PhaseProgram::new(2);
        for e in 0..24u32 {
            p.push_phase(vec![
                PhaseWork {
                    compute: DurationNs(1_000 + 500 * u64::from(e % 2)),
                    accesses: vec![PhaseAccess {
                        after: DurationNs(200),
                        owner: ThreadId(1),
                        element: ElementId(e),
                        declared_bytes: 256,
                        actual_bytes: 32,
                        write: e % 3 == 0,
                    }],
                },
                PhaseWork {
                    compute: DurationNs(800),
                    accesses: vec![],
                },
            ]);
        }
        let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
        let program = CompiledProgram::compile(&ts).unwrap();
        let plan = crate::ReprPlan::from_program(&program, 16, 0.05).unwrap();
        let params = crate::SimParams::default();
        assert_eq!(params.record_mode, crate::params::RecordMode::Full);
        let run = |program: &CompiledProgram| {
            let pred = crate::Extrapolator::new(params.clone())
                .run(program)
                .unwrap();
            for (thread, trace) in program.threads().iter().zip(&pred.predicted.threads) {
                assert_eq!(thread.predicted_records, trace.records.len());
            }
        };
        run(plan.baseline());
        for cluster in plan.clusters() {
            run(cluster.program());
        }
    }
}
