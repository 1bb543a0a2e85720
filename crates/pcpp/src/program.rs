//! Program execution: spawn *n* runtime threads under the non-preemptive
//! scheduler, give each a [`ThreadCtx`], and collect the instrumented
//! 1-processor trace.

use crate::clock::WorkModel;
use crate::instrument::Recorder;
use crate::scheduler::Scheduler;
use extrap_time::{BarrierId, DurationNs, ElementId, ThreadId};
use extrap_trace::{EventKind, ProgramTrace};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A configured data-parallel program: thread count, host work model,
/// and instrumentation overhead.
#[derive(Clone, Debug)]
pub struct Program {
    n_threads: usize,
    work: WorkModel,
    event_overhead: DurationNs,
}

impl Program {
    /// A program of `n_threads` threads on the default (Sun 4) host.
    pub fn new(n_threads: usize) -> Program {
        assert!(n_threads > 0, "need at least one thread");
        Program {
            n_threads,
            work: WorkModel::default(),
            event_overhead: DurationNs::ZERO,
        }
    }

    /// Overrides the host work model.
    pub fn with_work_model(mut self, work: WorkModel) -> Program {
        self.work = work;
        self
    }

    /// Charges a virtual cost for recording each trace event (exercises
    /// the intrusion compensation in trace translation).
    pub fn with_event_overhead(mut self, overhead: DurationNs) -> Program {
        self.event_overhead = overhead;
        self
    }

    /// Thread count.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Runs `body` once per thread under the non-preemptive scheduler and
    /// returns the recorded 1-processor program trace.
    ///
    /// `body` is shared by all threads; per-thread state lives in the
    /// [`ThreadCtx`].  Panics in any thread are propagated.
    pub fn run<F>(&self, body: F) -> ProgramTrace
    where
        F: Fn(&mut ThreadCtx) + Sync,
    {
        // The run-token scheduler below is measurement substrate, not a
        // model-checking target: opt this thread out so a scenario that
        // drives `Program::run` doesn't try to schedule it.
        crate::sync::unchecked_scope(|| self.run_inner(body))
    }

    fn run_inner<F>(&self, body: F) -> ProgramTrace
    where
        F: Fn(&mut ThreadCtx) + Sync,
    {
        let recorder = Recorder::new(self.event_overhead);
        let scheduler = Arc::new(Scheduler::new(self.n_threads));
        let body = &body;
        let recorder_ref = &recorder;
        std::thread::scope(|s| {
            for i in 0..self.n_threads {
                let scheduler = Arc::clone(&scheduler);
                let work = self.work;
                s.spawn(move || {
                    scheduler.wait_first_turn(i);
                    let mut ctx = ThreadCtx {
                        id: ThreadId::from_index(i),
                        n_threads: scheduler.n_threads(),
                        work,
                        recorder: recorder_ref,
                        scheduler: &scheduler,
                        barriers: 0,
                    };
                    ctx.recorder.record(ctx.id, EventKind::ThreadBegin);
                    let result = catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                    match result {
                        Ok(()) => {
                            ctx.recorder.record(ctx.id, EventKind::ThreadEnd);
                            scheduler.finish(i);
                        }
                        Err(payload) => {
                            scheduler.poison();
                            resume_unwind(payload);
                        }
                    }
                });
            }
        });
        recorder.into_trace(self.n_threads)
    }
}

/// Per-thread execution context handed to the program body.
pub struct ThreadCtx<'a> {
    id: ThreadId,
    n_threads: usize,
    work: WorkModel,
    recorder: &'a Recorder,
    scheduler: &'a Scheduler,
    barriers: usize,
}

impl ThreadCtx<'_> {
    /// This thread's id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Total threads in the program.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The host work model.
    pub fn work(&self) -> &WorkModel {
        &self.work
    }

    /// Charges raw virtual time.
    pub fn charge(&mut self, d: DurationNs) {
        self.recorder.advance(d);
    }

    /// Charges `n` floating-point operations.
    pub fn charge_flops(&mut self, n: u64) {
        self.charge(self.work.flops(n));
    }

    /// Charges `n` integer/logic operations.
    pub fn charge_int_ops(&mut self, n: u64) {
        self.charge(self.work.int_ops(n));
    }

    /// Charges `n` memory operations.
    pub fn charge_mem_ops(&mut self, n: u64) {
        self.charge(self.work.mem_ops(n));
    }

    /// Charges one collection-element access overhead.
    pub fn charge_elem_access(&mut self) {
        self.charge(self.work.elem_access);
    }

    /// Enters the next global barrier (all threads must call `barrier`
    /// the same number of times — the data-parallel execution model).
    pub fn barrier(&mut self) {
        let b = BarrierId::from_index(self.barriers);
        self.barriers += 1;
        self.recorder
            .record(self.id, EventKind::BarrierEnter { barrier: b });
        self.scheduler.barrier(self.id.index());
        self.recorder
            .record(self.id, EventKind::BarrierExit { barrier: b });
    }

    /// Records a user marker event.
    pub fn marker(&mut self, id: u32) {
        self.recorder.record(self.id, EventKind::Marker { id });
    }

    /// Records a remote element read (used by [`crate::Collection`];
    /// public so custom containers can instrument themselves).
    pub fn record_remote_read(
        &mut self,
        owner: ThreadId,
        element: ElementId,
        declared_bytes: u32,
        actual_bytes: u32,
    ) {
        debug_assert_ne!(owner, self.id, "remote read of a local element");
        self.recorder.record(
            self.id,
            EventKind::RemoteRead {
                owner,
                element,
                declared_bytes,
                actual_bytes,
            },
        );
    }

    /// Records a remote element write.
    pub fn record_remote_write(
        &mut self,
        owner: ThreadId,
        element: ElementId,
        declared_bytes: u32,
        actual_bytes: u32,
    ) {
        debug_assert_ne!(owner, self.id, "remote write of a local element");
        self.recorder.record(
            self.id,
            EventKind::RemoteWrite {
                owner,
                element,
                declared_bytes,
                actual_bytes,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_time::TimeNs;

    #[test]
    fn phase_structure_matches_phase_program_builder() {
        // A program where every thread charges 1000ns then barriers,
        // twice, must produce the same trace as the synthetic builder.
        let trace = Program::new(3)
            .with_work_model(WorkModel::unit())
            .run(|ctx| {
                for _ in 0..2 {
                    ctx.charge(DurationNs(1_000));
                    ctx.barrier();
                }
            });
        let mut synth = extrap_trace::PhaseProgram::new(3);
        synth.push_uniform_phase(DurationNs(1_000));
        synth.push_uniform_phase(DurationNs(1_000));
        assert_eq!(trace, synth.record());
    }

    #[test]
    fn translated_runtime_trace_collapses() {
        let trace = Program::new(4).run(|ctx| {
            ctx.charge(DurationNs(500));
            ctx.barrier();
        });
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        assert_eq!(ts.makespan(), TimeNs(500));
    }

    #[test]
    fn skewed_work_is_recorded_per_thread() {
        let trace = Program::new(2).run(|ctx| {
            let mine = (ctx.id().0 as u64 + 1) * 100;
            ctx.charge(DurationNs(mine));
            ctx.barrier();
        });
        let ts = extrap_trace::translate(&trace, Default::default()).unwrap();
        // Thread 1 computes 200ns; barrier releases then.
        assert_eq!(ts.makespan(), TimeNs(200));
    }

    #[test]
    fn charge_helpers_scale_by_work_model() {
        let trace = Program::new(1)
            .with_work_model(WorkModel {
                flop: DurationNs(10),
                int_op: DurationNs(2),
                mem_op: DurationNs(3),
                elem_access: DurationNs(5),
            })
            .run(|ctx| {
                ctx.charge_flops(4); // 40
                ctx.charge_int_ops(5); // 10
                ctx.charge_mem_ops(2); // 6
                ctx.charge_elem_access(); // 5
            });
        let end = trace.records.last().unwrap().time;
        assert_eq!(end, TimeNs(61));
    }

    #[test]
    fn markers_appear_in_trace() {
        let trace = Program::new(1).run(|ctx| {
            ctx.marker(42);
        });
        assert!(trace
            .records
            .iter()
            .any(|r| r.kind == EventKind::Marker { id: 42 }));
    }

    #[test]
    fn event_overhead_inflates_clock() {
        let trace = Program::new(1)
            .with_event_overhead(DurationNs(9))
            .run(|ctx| {
                ctx.charge(DurationNs(100));
            });
        // begin (overhead 9) + 100 compute -> end at 109.
        assert_eq!(trace.records.last().unwrap().time, TimeNs(109));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            Program::new(5).run(|ctx| {
                for p in 0..4 {
                    ctx.charge(DurationNs((ctx.id().0 as u64 + 1) * (p + 1) * 10));
                    ctx.barrier();
                }
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn body_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Program::new(3).run(|ctx| {
                if ctx.id().0 == 1 {
                    panic!("boom");
                }
                ctx.barrier();
            });
        });
        assert!(result.is_err());
    }
}
