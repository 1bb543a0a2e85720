//! The trace-driven extrapolation engine (§3.3).
//!
//! The engine replays the translated per-thread traces on a model of the
//! target machine: each thread's op script executes on its processor,
//! remote element accesses become request/reply messages through the
//! network model, barriers follow the barrier model, and the configured
//! **service policy** decides when an owner thread handles incoming
//! remote requests:
//!
//! * `NoInterrupt` — requests queue; the owner services them when it
//!   blocks (remote-reply wait, barrier wait) or at compute-segment
//!   boundaries;
//! * `Interrupt` — a request preempts the owner's computation, which
//!   resumes after the service completes;
//! * `Poll { interval }` — compute segments are chopped into
//!   `interval`-sized chunks and queued requests are serviced at each
//!   chunk boundary.
//!
//! Threads waiting at a barrier or for a remote reply always continue to
//! service incoming requests (the pC++ runtime behaviour §3.3.3 calls
//! out), so request/reply chains can never deadlock.
//!
//! # Hot path
//!
//! The engine executes a borrowed [`CompiledProgram`] — the scripts are
//! compiled once per trace and shared across every parameter set of a
//! sweep, with `MipsRatio` applied to compute durations at dispatch
//! time.  All mutable simulation state (event queue, message slots,
//! barrier state and action buffer, per-thread and per-processor
//! records) lives in a [`SimScratch`] that callers may reuse across
//! runs.  A message's slot is recycled as soon as the message arrives
//! and completed barriers hand their state back, so every buffer stays
//! bounded by what is in flight at once.  Once a reused scratch has seen
//! a program, the simulate loop itself does not allocate: a run
//! allocates only its result (the per-thread breakdown, and the
//! predicted trace under [`RecordMode::Full`]) plus whatever a
//! caller-supplied network model allocates.

use crate::barrier::{BarrierAction, BarrierCoordinator, BarrierMsg};
use crate::metrics::{Prediction, ProcBreakdown};
use crate::network::state::NetModel;
use crate::network::NetworkState;
use crate::params::{RecordMode, ServicePolicy, SimParams, SimStrategy, SizeMode};
use crate::processor::{CompiledProgram, Op};
use crate::repr::ReprPlan;
use extrap_sim::Engine as EventQueue;
use extrap_time::{BarrierId, DurationNs, ProcId, ThreadId, TimeNs};
use extrap_trace::{EventKind, ThreadTrace, TraceError, TraceRecord, TraceSet};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::fmt;
use std::mem;

/// Errors from the extrapolation pipeline.
#[derive(Clone, Debug)]
pub enum ExtrapError {
    /// The input trace set is malformed.
    Trace(TraceError),
    /// The parameter set is invalid.
    Params(String),
    /// The simulation stalled with threads unfinished (indicates an
    /// internally inconsistent trace, e.g. a barrier some threads never
    /// reach).
    Stuck {
        /// Threads that never completed.
        unfinished: Vec<ThreadId>,
    },
    /// The job was cancelled before it ran (sweep shutdown / drain).
    Cancelled,
}

impl fmt::Display for ExtrapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtrapError::Trace(e) => write!(f, "invalid trace: {e}"),
            ExtrapError::Params(e) => write!(f, "invalid parameters: {e}"),
            ExtrapError::Stuck { unfinished } => {
                write!(f, "simulation stalled; unfinished threads: {unfinished:?}")
            }
            ExtrapError::Cancelled => write!(f, "job cancelled before it ran"),
        }
    }
}

impl std::error::Error for ExtrapError {}

impl From<TraceError> for ExtrapError {
    fn from(e: TraceError) -> Self {
        ExtrapError::Trace(e)
    }
}

/// Queue events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ev {
    /// Thread was granted its processor.
    Granted(u32),
    /// A compute segment finished (generation-guarded).
    ComputeDone(u32, u64),
    /// A polling-policy chunk boundary (generation-guarded).
    PollTick(u32, u64),
    /// Message `idx` arrived at its destination.
    Arrive(u32),
}

/// In-flight message bookkeeping; the slot is recycled when the message
/// arrives.
#[derive(Clone, Copy, Debug)]
struct Msg {
    from: ThreadId,
    to: ThreadId,
    payload: Payload,
    /// True if the message actually traversed the interconnect (false for
    /// co-located threads in multithreaded mode).
    wire: bool,
}

#[derive(Clone, Copy, Debug)]
enum Payload {
    /// Remote-read request; the reply will carry `reply_bytes`.
    Request { reply_bytes: u32 },
    /// Remote-read reply back to the requester.
    Reply,
    /// One-way remote-write data.
    Write,
    /// Barrier protocol message.
    Bar(BarrierMsg),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    /// Waiting to be granted the processor.
    WaitCpu,
    /// Executing a compute segment.
    Computing,
    /// Blocked on a remote-read reply.
    WaitReply,
    /// Waiting inside a barrier.
    AtBarrier,
    /// Finished.
    Done,
}

struct Th {
    pc: usize,
    state: TState,
    gen: u64,
    proc: ProcId,
    compute_until: TimeNs,
    /// Requests/writes queued while this thread computes (serviced per
    /// the policy).
    pending: VecDeque<Msg>,
    /// When this thread's (idle-time) service capacity is next free.
    svc_avail: TimeNs,
    /// Start of the current wait (barrier or remote).
    waiting_since: TimeNs,
    /// When the thread asked for the CPU (for scheduler-wait stats).
    ready_since: TimeNs,
    stats: ProcBreakdown,
    predicted: Vec<TraceRecord>,
}

struct Pr {
    occupant: Option<u32>,
    queue: VecDeque<u32>,
    last: Option<u32>,
}

/// Reusable simulation state: the event queue, message slots, barrier
/// coordinator and action buffer, and per-thread/per-processor
/// bookkeeping vectors.
///
/// A fresh `SimScratch` is just empty buffers; passing the same one in
/// [`RunInput::CompiledScratch`](crate::RunInput::CompiledScratch) for
/// every job of a sweep lets steady-state jobs reuse all of them.  The
/// sweep engine keeps one per worker thread.  Contents are opaque — the
/// engine resets everything it reads.
#[derive(Default)]
pub struct SimScratch {
    queue: EventQueue<Ev>,
    threads: Vec<Th>,
    procs: Vec<Pr>,
    msgs: Vec<Msg>,
    free_msgs: Vec<u32>,
    coord: Option<BarrierCoordinator>,
    bar_actions: Vec<BarrierAction>,
}

/// Runs one prediction: the single strategy dispatch behind
/// [`Extrapolator::run`](crate::Extrapolator::run) and the sweep engine.
///
/// Validates `params` once, then simulates every epoch exactly or —
/// under [`SimStrategy::Representative`] — composes the
/// [`ReprPlan`] that `repr_plan` supplies for the strategy's
/// `(max_clusters, tolerance)`: built fresh by a session, memoized per
/// trace by a sweep ([`CachedTrace::repr_plan`](crate::CachedTrace::repr_plan)).
/// No plan means no exploitable repetition, and the run falls back to
/// the exact path.
pub(crate) fn simulate<P: Borrow<ReprPlan>>(
    program: &CompiledProgram,
    params: &SimParams,
    repr_plan: impl FnOnce(u32, f64) -> Option<P>,
    scratch: &mut SimScratch,
) -> Result<Prediction, ExtrapError> {
    params.validate().map_err(ExtrapError::Params)?;
    let plan = match params.strategy {
        SimStrategy::Representative {
            max_clusters,
            tolerance,
        } => repr_plan(max_clusters, tolerance),
        SimStrategy::Exact => None,
    };
    match plan {
        Some(plan) => plan.borrow().run(params, scratch),
        None => exact_compiled_scratch(program, params, scratch),
    }
}

/// The exact (every-epoch) path on the analytic network model, with no
/// validation: the exact arm of [`simulate`] and
/// the representative mini-runs.  Falling back from representative
/// lands on literally this code, so fallback output is byte-identical
/// by construction.
pub(crate) fn exact_compiled_scratch(
    program: &CompiledProgram,
    params: &SimParams,
    scratch: &mut SimScratch,
) -> Result<Prediction, ExtrapError> {
    let n_procs = params
        .multithread
        .mapping
        .n_procs(program.n_threads().max(1));
    let net = NetworkState::new(n_procs, params.network, params.comm.byte_transfer);
    replay(program, params, net, scratch)
}

/// Runs a compiled program exactly with a caller-supplied network model
/// — the seam `extrap-refsim` uses to substitute link-level contention
/// simulation (the model swap §3.3.2 anticipates), and
/// [`extrapolate_clustered`](crate::extrapolate_clustered) its
/// shared-memory islands.  Always exact: a stateful network model
/// carries state across epochs, which representative composition cannot
/// honor.
pub fn run_with_network<N: NetModel>(
    program: &CompiledProgram,
    params: &SimParams,
    net: N,
    scratch: &mut SimScratch,
) -> Result<Prediction, ExtrapError> {
    params.validate().map_err(ExtrapError::Params)?;
    replay(program, params, net, scratch)
}

/// The simulate loop itself, on already-validated parameters.
fn replay<N: NetModel>(
    program: &CompiledProgram,
    params: &SimParams,
    net: N,
    scratch: &mut SimScratch,
) -> Result<Prediction, ExtrapError> {
    if program.is_empty() {
        return Ok(Prediction::empty());
    }
    let mut sim = Sim::new(program, params, net, scratch);
    sim.run()?;
    Ok(sim.into_prediction(scratch))
}

struct Sim<'p, N> {
    program: &'p CompiledProgram,
    params: &'p SimParams,
    /// Materialize the predicted trace? (`RecordMode::Full`)
    record: bool,
    n_threads: usize,
    n_procs: usize,
    queue: EventQueue<Ev>,
    threads: Vec<Th>,
    procs: Vec<Pr>,
    net: N,
    coord: BarrierCoordinator,
    /// Scratch for the actions one barrier callback produces.
    bar_actions: Vec<BarrierAction>,
    msgs: Vec<Msg>,
    /// Slots of arrived messages, reused by the next sends.
    free_msgs: Vec<u32>,
}

impl<'p, N: NetModel> Sim<'p, N> {
    fn new(
        program: &'p CompiledProgram,
        params: &'p SimParams,
        net: N,
        scratch: &mut SimScratch,
    ) -> Sim<'p, N> {
        let n_threads = program.n_threads();
        let mapping = params.multithread.mapping;
        let n_procs = mapping.n_procs(n_threads);
        let record = params.record_mode == RecordMode::Full;

        let mut queue = mem::take(&mut scratch.queue);
        queue.reset();
        queue.reserve(program.peak_events());
        let mut msgs = mem::take(&mut scratch.msgs);
        msgs.clear();
        let mut free_msgs = mem::take(&mut scratch.free_msgs);
        free_msgs.clear();
        let mut bar_actions = mem::take(&mut scratch.bar_actions);
        bar_actions.clear();
        let coord = match scratch.coord.take() {
            Some(mut coord) => {
                coord.reset(n_threads, params.barrier, params.comm);
                coord
            }
            None => BarrierCoordinator::new(n_threads, params.barrier, params.comm),
        };

        let mut threads = mem::take(&mut scratch.threads);
        threads.truncate(n_threads);
        for (i, ct) in program.threads().iter().enumerate() {
            let proc = mapping.proc_of(ct.thread, n_threads);
            // Full mode reserves the exact predicted-trace capacity the
            // compiler counted; MetricsOnly never touches the vec.
            let cap = if record { ct.predicted_records } else { 0 };
            match threads.get_mut(i) {
                Some(th) => {
                    th.pc = 0;
                    th.state = TState::WaitCpu;
                    th.gen = 0;
                    th.proc = proc;
                    th.compute_until = TimeNs::ZERO;
                    th.pending.clear();
                    th.svc_avail = TimeNs::ZERO;
                    th.waiting_since = TimeNs::ZERO;
                    th.ready_since = TimeNs::ZERO;
                    th.stats = ProcBreakdown::default();
                    th.predicted.clear();
                    th.predicted.reserve_exact(cap);
                }
                None => threads.push(Th {
                    pc: 0,
                    state: TState::WaitCpu,
                    gen: 0,
                    proc,
                    compute_until: TimeNs::ZERO,
                    pending: VecDeque::new(),
                    svc_avail: TimeNs::ZERO,
                    waiting_since: TimeNs::ZERO,
                    ready_since: TimeNs::ZERO,
                    stats: ProcBreakdown::default(),
                    predicted: Vec::with_capacity(cap),
                }),
            }
        }

        let mut procs = mem::take(&mut scratch.procs);
        procs.truncate(n_procs);
        for p in &mut procs {
            p.occupant = None;
            p.queue.clear();
            p.last = None;
        }
        while procs.len() < n_procs {
            procs.push(Pr {
                occupant: None,
                queue: VecDeque::new(),
                last: None,
            });
        }

        Sim {
            program,
            params,
            record,
            n_threads,
            n_procs,
            queue,
            threads,
            procs,
            net,
            coord,
            bar_actions,
            msgs,
            free_msgs,
        }
    }

    fn run(&mut self) -> Result<(), ExtrapError> {
        for t in 0..self.n_threads {
            self.emit(t, TimeNs::ZERO, EventKind::ThreadBegin);
            self.request_cpu(t, TimeNs::ZERO);
        }
        while let Some((now, ev)) = self.queue.next() {
            match ev {
                Ev::Granted(t) => self.on_granted(t as usize, now),
                Ev::ComputeDone(t, gen) => self.on_compute_done(t as usize, gen, now),
                Ev::PollTick(t, gen) => self.on_poll_tick(t as usize, gen, now),
                Ev::Arrive(m) => self.on_arrive(m as usize, now),
            }
        }
        let unfinished: Vec<ThreadId> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, th)| th.state != TState::Done)
            .map(|(i, _)| ThreadId::from_index(i))
            .collect();
        if unfinished.is_empty() {
            Ok(())
        } else {
            Err(ExtrapError::Stuck { unfinished })
        }
    }

    /// Harvests the prediction and returns every buffer to `scratch` for
    /// the next run.
    fn into_prediction(mut self, scratch: &mut SimScratch) -> Prediction {
        let per_thread = self.threads.iter().map(|t| t.stats).collect();
        let predicted = if self.record {
            TraceSet {
                threads: self
                    .threads
                    .iter_mut()
                    .enumerate()
                    .map(|(i, th)| ThreadTrace {
                        thread: ThreadId::from_index(i),
                        records: mem::take(&mut th.predicted),
                    })
                    .collect(),
            }
        } else {
            TraceSet {
                threads: Vec::new(),
            }
        };
        let prediction = Prediction {
            n_threads: self.n_threads,
            n_procs: self.n_procs,
            per_thread,
            network: self.net.stats(),
            barriers: self.coord.completed(),
            events_dispatched: self.queue.dispatched(),
            predicted,
        };
        scratch.queue = self.queue;
        scratch.threads = self.threads;
        scratch.procs = self.procs;
        scratch.msgs = self.msgs;
        scratch.free_msgs = self.free_msgs;
        scratch.coord = Some(self.coord);
        scratch.bar_actions = self.bar_actions;
        prediction
    }

    // ----- predicted-trace helper -------------------------------------

    fn emit(&mut self, t: usize, time: TimeNs, kind: EventKind) {
        if !self.record {
            return;
        }
        self.threads[t].predicted.push(TraceRecord {
            time,
            thread: ThreadId::from_index(t),
            kind,
        });
    }

    // ----- processor scheduling ---------------------------------------

    fn request_cpu(&mut self, t: usize, at: TimeNs) {
        self.threads[t].state = TState::WaitCpu;
        self.threads[t].ready_since = at;
        let p = self.threads[t].proc.index();
        if self.procs[p].occupant.is_none() {
            self.grant(p, t, at);
        } else {
            self.procs[p].queue.push_back(t as u32);
        }
    }

    fn grant(&mut self, p: usize, t: usize, at: TimeNs) {
        let switch = match self.procs[p].last {
            Some(prev) if prev != t as u32 => self.params.multithread.switch_cost,
            _ => DurationNs::ZERO,
        };
        self.procs[p].occupant = Some(t as u32);
        self.procs[p].last = Some(t as u32);
        self.queue.schedule(at + switch, Ev::Granted(t as u32));
    }

    fn release_cpu(&mut self, t: usize, at: TimeNs) {
        let p = self.threads[t].proc.index();
        debug_assert_eq!(self.procs[p].occupant, Some(t as u32));
        self.procs[p].occupant = None;
        if let Some(next) = self.procs[p].queue.pop_front() {
            let next = next as usize;
            let waited = at.saturating_since(self.threads[next].ready_since);
            self.threads[next].stats.sched_wait += waited;
            self.grant(p, next, at);
        }
    }

    fn on_granted(&mut self, t: usize, now: TimeNs) {
        // Service anything that queued up while this thread was off-CPU,
        // then proceed with the script.
        let delay = self.drain_pending(t, now);
        self.run_next(t, now + delay);
    }

    // ----- script execution -------------------------------------------

    fn run_next(&mut self, t: usize, mut now: TimeNs) {
        let ops: &[Op] = &self.program.threads()[t].ops;
        loop {
            let op = ops[self.threads[t].pc];
            match op {
                Op::Compute(d) => {
                    self.threads[t].pc += 1;
                    // Scripts carry host time; the target's speed ratio
                    // applies here, at dispatch.
                    let d = d.scale(self.params.mips_ratio);
                    if d.is_zero() {
                        continue;
                    }
                    let th = &mut self.threads[t];
                    th.stats.compute += d;
                    th.state = TState::Computing;
                    th.gen += 1;
                    th.compute_until = now + d;
                    let gen = th.gen;
                    match self.params.policy {
                        ServicePolicy::Poll { interval } => {
                            let first = now + interval.min(d);
                            self.queue.schedule(first, Ev::PollTick(t as u32, gen));
                        }
                        _ => {
                            self.queue.schedule(now + d, Ev::ComputeDone(t as u32, gen));
                        }
                    }
                    return;
                }
                Op::RemoteRead {
                    owner,
                    element,
                    declared_bytes,
                    actual_bytes,
                } => {
                    self.threads[t].pc += 1;
                    self.emit(
                        t,
                        now,
                        EventKind::RemoteRead {
                            owner,
                            element,
                            declared_bytes,
                            actual_bytes,
                        },
                    );
                    let data = self.pick_bytes(declared_bytes, actual_bytes);
                    let send = self.params.comm.construct + self.params.comm.startup;
                    let depart = now + send;
                    {
                        let th = &mut self.threads[t];
                        th.stats.send_overhead += send;
                        th.stats.remote_reads += 1;
                        th.state = TState::WaitReply;
                        th.waiting_since = now;
                        th.gen += 1;
                        // Idle service capacity opens once the request is out.
                        th.svc_avail = th.svc_avail.max(depart);
                    }
                    self.send_msg(
                        depart,
                        ThreadId::from_index(t),
                        owner,
                        self.params.comm.request_bytes,
                        Payload::Request {
                            reply_bytes: data + self.params.comm.reply_header_bytes,
                        },
                    );
                    self.release_cpu(t, depart);
                    return;
                }
                Op::RemoteWrite {
                    owner,
                    element,
                    declared_bytes,
                    actual_bytes,
                } => {
                    self.threads[t].pc += 1;
                    self.emit(
                        t,
                        now,
                        EventKind::RemoteWrite {
                            owner,
                            element,
                            declared_bytes,
                            actual_bytes,
                        },
                    );
                    let data = self.pick_bytes(declared_bytes, actual_bytes);
                    let send = self.params.comm.construct + self.params.comm.startup;
                    let depart = now + send;
                    {
                        let th = &mut self.threads[t];
                        th.stats.send_overhead += send;
                        th.stats.remote_writes += 1;
                    }
                    self.send_msg(
                        depart,
                        ThreadId::from_index(t),
                        owner,
                        data + self.params.comm.request_bytes,
                        Payload::Write,
                    );
                    // Non-blocking: the thread continues after the send
                    // overhead.
                    now = depart;
                }
                Op::Barrier(b) => {
                    self.threads[t].pc += 1;
                    self.emit(t, now, EventKind::BarrierEnter { barrier: b });
                    {
                        let th = &mut self.threads[t];
                        th.state = TState::AtBarrier;
                        th.waiting_since = now;
                        th.gen += 1;
                        th.svc_avail = th.svc_avail.max(now + self.params.barrier.entry);
                    }
                    self.coord
                        .on_enter(b, ThreadId::from_index(t), now, &mut self.bar_actions);
                    self.release_cpu(t, now + self.params.barrier.entry);
                    self.apply_barrier_actions();
                    return;
                }
                Op::End => {
                    self.emit(t, now, EventKind::ThreadEnd);
                    let th = &mut self.threads[t];
                    th.state = TState::Done;
                    th.stats.end_time = now;
                    th.gen += 1;
                    th.svc_avail = th.svc_avail.max(now);
                    self.release_cpu(t, now);
                    return;
                }
            }
        }
    }

    fn pick_bytes(&self, declared: u32, actual: u32) -> u32 {
        match self.params.size_mode {
            SizeMode::Declared => declared,
            SizeMode::Actual => actual,
        }
    }

    // ----- compute-segment events ---------------------------------------

    fn on_compute_done(&mut self, t: usize, gen: u64, now: TimeNs) {
        if self.threads[t].gen != gen || self.threads[t].state != TState::Computing {
            return;
        }
        // NoInterrupt (and Interrupt, whose queue is always empty here)
        // service queued requests at the segment boundary.
        let delay = self.drain_pending(t, now);
        self.run_next(t, now + delay);
    }

    fn on_poll_tick(&mut self, t: usize, gen: u64, now: TimeNs) {
        if self.threads[t].gen != gen || self.threads[t].state != TState::Computing {
            return;
        }
        let remaining = self.threads[t].compute_until.saturating_since(now);
        let delay = self.drain_pending(t, now);
        if remaining.is_zero() {
            self.run_next(t, now + delay);
            return;
        }
        self.threads[t].compute_until += delay;
        let interval = match self.params.policy {
            ServicePolicy::Poll { interval } => interval,
            _ => unreachable!("poll tick under non-poll policy"),
        };
        let next = now + delay + interval.min(remaining);
        self.queue.schedule(next, Ev::PollTick(t as u32, gen));
    }

    /// Services every queued request/write, returning the total time
    /// consumed.  Replies depart back-to-back.
    fn drain_pending(&mut self, t: usize, now: TimeNs) -> DurationNs {
        let mut total = DurationNs::ZERO;
        while let Some(m) = self.threads[t].pending.pop_front() {
            match m.payload {
                Payload::Request { reply_bytes } => {
                    let svc = self.params.comm.receive + self.params.comm.service;
                    let send = self.params.comm.construct + self.params.comm.startup;
                    self.threads[t].stats.service += svc;
                    self.threads[t].stats.send_overhead += send;
                    total += svc + send;
                    let depart = now + total;
                    self.send_msg(
                        depart,
                        ThreadId::from_index(t),
                        m.from,
                        reply_bytes,
                        Payload::Reply,
                    );
                }
                Payload::Write => {
                    let svc = self.params.comm.receive + self.params.comm.service;
                    self.threads[t].stats.service += svc;
                    total += svc;
                }
                other => unreachable!("only requests/writes queue: {other:?}"),
            }
        }
        total
    }

    // ----- messages -----------------------------------------------------

    fn send_msg(
        &mut self,
        depart: TimeNs,
        from: ThreadId,
        to: ThreadId,
        bytes: u32,
        payload: Payload,
    ) {
        let src = self.threads[from.index()].proc;
        let dst = self.threads[to.index()].proc;
        let arrival = self.net.inject(depart, src, dst, bytes);
        let msg = Msg {
            from,
            to,
            payload,
            wire: src != dst,
        };
        let idx = match self.free_msgs.pop() {
            Some(idx) => {
                self.msgs[idx as usize] = msg;
                idx
            }
            None => {
                self.msgs.push(msg);
                (self.msgs.len() - 1) as u32
            }
        };
        self.queue.schedule(arrival, Ev::Arrive(idx));
    }

    fn on_arrive(&mut self, mi: usize, now: TimeNs) {
        // A request that has to wait is queued by value, so the slot is
        // free for the next send.
        let m = self.msgs[mi];
        self.free_msgs.push(mi as u32);
        if m.wire {
            let src = self.threads[m.from.index()].proc;
            let dst = self.threads[m.to.index()].proc;
            self.net.complete(src, dst);
        }
        match m.payload {
            Payload::Request { .. } | Payload::Write => {
                self.handle_service(m, now);
            }
            Payload::Reply => {
                let t = m.to.index();
                debug_assert_eq!(self.threads[t].state, TState::WaitReply);
                let start = now.max(self.threads[t].svc_avail);
                let resume = start + self.params.comm.receive;
                let th = &mut self.threads[t];
                th.svc_avail = resume;
                th.stats.remote_wait += resume.saturating_since(th.waiting_since);
                self.request_cpu(t, resume);
            }
            Payload::Bar(BarrierMsg::Arrive(b)) => {
                self.coord
                    .on_arrive_msg(b, m.from, now, &mut self.bar_actions);
                self.apply_barrier_actions();
            }
            Payload::Bar(BarrierMsg::Release(b)) => {
                self.coord
                    .on_release_msg(b, m.to, now, &mut self.bar_actions);
                self.apply_barrier_actions();
            }
        }
    }

    /// Dispatches an incoming request/write per the service policy and
    /// the owner's state.
    fn handle_service(&mut self, m: Msg, now: TimeNs) {
        let o = m.to.index();
        match self.threads[o].state {
            TState::Computing => match self.params.policy {
                ServicePolicy::Interrupt => self.interrupt_service(o, m, now),
                ServicePolicy::NoInterrupt | ServicePolicy::Poll { .. } => {
                    self.threads[o].pending.push_back(m);
                }
            },
            TState::WaitCpu => {
                // Serviced when the thread next gets the CPU.
                self.threads[o].pending.push_back(m);
            }
            TState::WaitReply | TState::AtBarrier | TState::Done => {
                self.idle_service(o, m, now);
            }
        }
    }

    /// Interrupt policy: the owner's computation is extended by the
    /// service time and the reply goes out immediately.
    fn interrupt_service(&mut self, o: usize, m: Msg, now: TimeNs) {
        let svc = self.params.comm.receive + self.params.comm.service;
        match m.payload {
            Payload::Request { reply_bytes } => {
                let send = self.params.comm.construct + self.params.comm.startup;
                let cost = svc + send;
                {
                    let th = &mut self.threads[o];
                    th.stats.service += svc;
                    th.stats.send_overhead += send;
                    th.compute_until += cost;
                    th.gen += 1;
                }
                let depart = now + cost;
                self.send_msg(
                    depart,
                    ThreadId::from_index(o),
                    m.from,
                    reply_bytes,
                    Payload::Reply,
                );
                let (until, gen) = {
                    let th = &self.threads[o];
                    (th.compute_until, th.gen)
                };
                self.queue.schedule(until, Ev::ComputeDone(o as u32, gen));
            }
            Payload::Write => {
                let th = &mut self.threads[o];
                th.stats.service += svc;
                th.compute_until += svc;
                th.gen += 1;
                let (until, gen) = (th.compute_until, th.gen);
                self.queue.schedule(until, Ev::ComputeDone(o as u32, gen));
            }
            other => unreachable!("not serviceable: {other:?}"),
        }
    }

    /// A waiting/finished thread services a request in its idle time.
    fn idle_service(&mut self, o: usize, m: Msg, now: TimeNs) {
        let start = now.max(self.threads[o].svc_avail);
        let svc = self.params.comm.receive + self.params.comm.service;
        match m.payload {
            Payload::Request { reply_bytes } => {
                let send = self.params.comm.construct + self.params.comm.startup;
                let depart = start + svc + send;
                self.threads[o].stats.service += svc;
                self.threads[o].stats.send_overhead += send;
                self.threads[o].svc_avail = depart;
                self.send_msg(
                    depart,
                    ThreadId::from_index(o),
                    m.from,
                    reply_bytes,
                    Payload::Reply,
                );
            }
            Payload::Write => {
                self.threads[o].stats.service += svc;
                self.threads[o].svc_avail = start + svc;
            }
            other => unreachable!("not serviceable: {other:?}"),
        }
    }

    // ----- barrier actions ------------------------------------------------

    /// Applies (and then clears) the actions the last barrier callback
    /// appended to `bar_actions`.  Applying them never re-enters the
    /// coordinator, so the buffer is stable while it is walked.
    fn apply_barrier_actions(&mut self) {
        for i in 0..self.bar_actions.len() {
            match self.bar_actions[i] {
                BarrierAction::Send {
                    depart,
                    from,
                    to,
                    bytes,
                    msg,
                } => {
                    self.send_msg(depart, from, to, bytes, Payload::Bar(msg));
                }
                BarrierAction::Resume { thread, at } => {
                    let t = thread.index();
                    debug_assert_eq!(self.threads[t].state, TState::AtBarrier);
                    let b = self.current_barrier_of(t);
                    let th = &mut self.threads[t];
                    th.stats.barrier_wait += at.saturating_since(th.waiting_since);
                    th.svc_avail = th.svc_avail.max(at);
                    self.emit(t, at, EventKind::BarrierExit { barrier: b });
                    self.request_cpu(t, at);
                }
            }
        }
        self.bar_actions.clear();
    }

    /// The barrier the thread is currently waiting in: the `Barrier` op
    /// just before its program counter.
    fn current_barrier_of(&self, t: usize) -> BarrierId {
        let pc = self.threads[t].pc;
        debug_assert!(pc > 0);
        match self.program.threads()[t].ops[pc - 1] {
            Op::Barrier(b) => b,
            other => panic!("thread {t} at barrier but previous op is {other:?}"),
        }
    }
}
