//! The model-checking scheduler behind the `model-check` feature.
//!
//! When a scenario runs under [`run_scenario`], every thread it spawns
//! through the [`Handle`] becomes a *model thread*: each operation on a
//! [`crate::sync`] primitive announces itself here and blocks until this
//! cooperative scheduler grants it the next turn.  Exactly one model
//! thread runs between scheduling points, so an execution is fully
//! described by the sequence of thread ids chosen at each point — the
//! *decision string* — and replaying a decision string reproduces the
//! execution byte-identically.
//!
//! The scheduler is loom/shuttle-style stateless model checking by
//! re-execution: the driver (`extrap-check`) re-runs the scenario once
//! per schedule, steering each run with a [`RunSpec`] prefix and
//! harvesting the [`Choice`] points the run exposed.  Within one run
//! this module
//!
//! * tracks the virtual ownership state of every mutex/rwlock/condvar
//!   the model threads touch (objects are numbered in first-use order,
//!   which is deterministic because only one thread runs at a time);
//! * maintains a *sleep set* (Godefroid-style partial-order reduction):
//!   threads whose alternatives were already explored at an earlier
//!   sibling stay asleep until a dependent operation executes, so
//!   commuting interleavings are enumerated once;
//! * enforces an optional *preemption bound*: once a run has exhausted
//!   its budget of involuntary context switches it keeps running the
//!   current thread until it blocks (the CHESS iterated-bounding
//!   strategy — the driver ladders the bound 0, 1, 2, ∞);
//! * models time: timed condvar waits fire only at quiescence (no other
//!   transition enabled), advancing a virtual clock that
//!   [`crate::sync::Instant`] reads, so timeout-based protocols are
//!   explored without wall-clock sleeps;
//! * detects failure states — deadlock, lost wakeups (every live thread
//!   parked on an untimed condvar wait), re-entrant double-lock, waiting
//!   on a condvar without holding its mutex, scenario panics, and
//!   step-limit livelock — and aborts the run, unwinding every model
//!   thread with a private panic payload.
//!
//! The *real* operation always happens too (the real lock is taken after
//! the virtual grant, the real notify is sent after the virtual wake), so
//! code paths that mix checked and unchecked threads degrade gracefully;
//! the one unsupported direction is an unchecked thread notifying a
//! virtually parked waiter.  [`crate::sync::unchecked_scope`] opts a
//! region out entirely — [`crate::Program::run`] uses it because the
//! traced program's run-token scheduler is not the object under test.

use extrap_time::splitmix64;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, Once};
use std::time::Duration;

// ---------------------------------------------------------------------
// Thread-local context
// ---------------------------------------------------------------------

#[derive(Clone)]
enum Ctx {
    /// A thread spawned through [`Handle::spawn`], scheduled by the
    /// session.
    Model { session: Arc<Session>, tid: u32 },
    /// The thread driving [`run_scenario`]: reads the virtual clock but
    /// bypasses scheduling (it only touches shared state while every
    /// model thread is parked).
    Controller { session: Arc<Session> },
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The panic payload used to unwind model threads when a run aborts.
/// Never surfaces to user code: the wrapper around every model thread
/// swallows it, and the process panic hook suppresses its report.
struct CheckAbort;

fn with_model<R>(f: impl FnOnce(&Arc<Session>, u32) -> R) -> Option<R> {
    let ctx = CTX.with(|c| c.borrow().clone());
    match ctx {
        Some(Ctx::Model { session, tid }) => Some(f(&session, tid)),
        _ => None,
    }
}

/// Whether the calling thread is a scheduled model thread that should
/// route sync operations through the checker.  Unwinding threads opt
/// out: their virtual state is torn down by the abort protocol, and a
/// panic inside a panic would abort the process.
pub(crate) fn on_checked_thread() -> bool {
    !std::thread::panicking() && CTX.with(|c| matches!(&*c.borrow(), Some(Ctx::Model { .. })))
}

/// The session's virtual clock in nanoseconds, if the calling thread
/// belongs to a session (model *or* controller).  `None` means wall
/// clocks apply.
pub(crate) fn virtual_now() -> Option<u64> {
    let ctx = CTX.with(|c| c.borrow().clone());
    let session = match ctx {
        Some(Ctx::Model { session, .. }) | Some(Ctx::Controller { session }) => session,
        None => return None,
    };
    let ns = session
        .st
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clock_ns;
    Some(ns)
}

/// Runs `f` with the checker context cleared: sync operations inside go
/// straight to std.  See [`crate::sync::unchecked_scope`].
pub(crate) fn unchecked_scope<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Ctx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let saved = self.0.take();
            CTX.with(|c| *c.borrow_mut() = saved);
        }
    }
    let _restore = Restore(CTX.with(|c| c.borrow_mut().take()));
    f()
}

// ---------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------

/// One checker-visible transition, on objects numbered in first-use
/// order within the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// A spawned thread's first scheduling point (before user code).
    Start,
    /// Acquire a mutex.
    Lock(u64),
    /// Release a mutex.
    Unlock(u64),
    /// Acquire a read lock.
    RwRead(u64),
    /// Acquire a write lock.
    RwWrite(u64),
    /// Release either kind of rwlock guard.
    RwUnlock(u64),
    /// Atomically release `mutex` and park on `cv`.
    Wait {
        /// The condvar parked on.
        cv: u64,
        /// The mutex released while parked.
        mutex: u64,
    },
    /// Reacquire `mutex` after being woken from `cv`.
    Relock {
        /// The mutex being reacquired.
        mutex: u64,
        /// The condvar the thread was parked on.
        cv: u64,
    },
    /// Wake one (`all = false`) or every waiter of a condvar.
    Notify {
        /// The condvar notified.
        cv: u64,
        /// Whether this is `notify_all`.
        all: bool,
    },
    /// A checked atomic load ([`crate::sync::AtomicFlag`]).
    Load(u64),
    /// A checked atomic store or swap.
    Store(u64),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Start => write!(f, "start"),
            Op::Lock(m) => write!(f, "lock(o{m})"),
            Op::Unlock(m) => write!(f, "unlock(o{m})"),
            Op::RwRead(o) => write!(f, "read(o{o})"),
            Op::RwWrite(o) => write!(f, "write(o{o})"),
            Op::RwUnlock(o) => write!(f, "rw-unlock(o{o})"),
            Op::Wait { cv, mutex } => write!(f, "wait(o{cv}, o{mutex})"),
            Op::Relock { mutex, cv } => write!(f, "relock(o{mutex}, after o{cv})"),
            Op::Notify { cv, all: true } => write!(f, "notify-all(o{cv})"),
            Op::Notify { cv, all: false } => write!(f, "notify-one(o{cv})"),
            Op::Load(a) => write!(f, "load(o{a})"),
            Op::Store(a) => write!(f, "store(o{a})"),
        }
    }
}

fn touches(op: Op) -> [Option<u64>; 2] {
    match op {
        Op::Start => [None, None],
        Op::Lock(m) | Op::Unlock(m) => [Some(m), None],
        Op::RwRead(o) | Op::RwWrite(o) | Op::RwUnlock(o) => [Some(o), None],
        Op::Wait { cv, mutex } | Op::Relock { mutex, cv } => [Some(cv), Some(mutex)],
        Op::Notify { cv, .. } => [Some(cv), None],
        Op::Load(a) | Op::Store(a) => [Some(a), None],
    }
}

/// Conservative dependence: two operations commute unless they touch a
/// common object; two atomic loads commute regardless.
fn dependent(a: Op, b: Op) -> bool {
    if let (Op::Load(_), Op::Load(_)) = (a, b) {
        return false;
    }
    let (ta, tb) = (touches(a), touches(b));
    ta.iter()
        .flatten()
        .any(|x| tb.iter().flatten().any(|y| x == y))
}

// ---------------------------------------------------------------------
// Run descriptions and outcomes
// ---------------------------------------------------------------------

/// How one execution should be steered.
#[derive(Clone, Debug, Default)]
pub struct RunSpec {
    /// Seed for the deterministic candidate ordering at each choice.
    pub seed: u64,
    /// Forced choices: at depth `d < prefix.len()` the scheduler picks
    /// thread `prefix[d]` (failing with
    /// [`FailureKind::ReplayDivergence`] if it is not enabled).
    pub prefix: Vec<u32>,
    /// Per-depth sleep-set seeds: at depth `d`, threads in
    /// `extra_sleep[d]` are put to sleep before selection (they were
    /// explored by sibling branches).
    pub extra_sleep: Vec<Vec<u32>>,
    /// Preemption budget beyond the prefix (`None` = unbounded).
    pub bound: Option<u32>,
    /// Abort the run as a livelock after this many transitions
    /// (`0` = the default of 50 000).
    pub max_steps: usize,
}

/// One enabled, non-sleeping thread at a choice point.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The thread id.
    pub tid: u32,
    /// Its announced operation.
    pub op: Op,
    /// Whether picking it would preempt the previously running thread.
    pub preempts: bool,
}

/// One scheduling decision, as exposed to the exploration driver.
#[derive(Clone, Debug)]
pub struct Choice {
    /// The selectable candidates, in the seeded deterministic order the
    /// default policy consults.
    pub selectable: Vec<Candidate>,
    /// The thread that was scheduled.
    pub chosen: u32,
    /// The chosen thread's operation (it may be absent from
    /// `selectable` when a replay prefix forces a sleeping thread).
    pub chosen_op: Op,
    /// Preemptions consumed before this decision.
    pub preemptions_before: u32,
}

/// Why a run was declared a failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// No thread can ever run again and at least one is blocked on a
    /// lock acquisition.
    Deadlock,
    /// Every live thread is parked in an untimed condvar wait — nobody
    /// is left to notify.
    LostWakeup,
    /// A thread re-acquired a lock it already holds (or upgraded a read
    /// lock it holds to a write lock).
    DoubleLock,
    /// A thread waited on a condvar without holding the guard's mutex.
    WaitWithoutLock,
    /// A model thread (or the scenario's own assertions) panicked.
    Panic,
    /// The run exceeded its step budget — a livelock by decree.
    StepLimit,
    /// A replay prefix asked for a thread that was not enabled: the
    /// scenario is not deterministic given the schedule.
    ReplayDivergence,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailureKind::Deadlock => "deadlock",
            FailureKind::LostWakeup => "lost wakeup",
            FailureKind::DoubleLock => "double lock",
            FailureKind::WaitWithoutLock => "wait without lock",
            FailureKind::Panic => "panic",
            FailureKind::StepLimit => "step limit (livelock?)",
            FailureKind::ReplayDivergence => "replay divergence",
        };
        f.write_str(s)
    }
}

/// A failed run's classification and diagnostic.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The failure class.
    pub kind: FailureKind,
    /// A human-readable account of the failing state.
    pub message: String,
}

/// How a run ended.
#[derive(Clone, Debug)]
pub enum RunStatus {
    /// Every model thread finished and the scenario's assertions held.
    Complete,
    /// The run was cut short by sleep sets or the preemption bound; an
    /// equivalent execution is (or was) explored elsewhere.
    Pruned,
    /// The run hit a failure state.
    Failed(Failure),
}

/// Everything the exploration driver learns from one execution.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Terminal status.
    pub status: RunStatus,
    /// Every scheduling decision, in order.
    pub choices: Vec<Choice>,
    /// Transitions executed (choices plus timeout firings).
    pub steps: usize,
}

impl RunOutcome {
    /// The decision string: the chosen thread id at every choice point.
    /// Feeding it back as [`RunSpec::prefix`] replays this execution.
    pub fn decisions(&self) -> Vec<u32> {
        self.choices.iter().map(|c| c.chosen).collect()
    }
}

// ---------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Ready,
    Running,
    Blocked,
    Finished,
}

#[derive(Clone, Debug)]
struct ThreadSt {
    status: Status,
    pending: Option<Op>,
    /// Set when the thread's timed wait fired instead of being notified.
    timed_out: bool,
    /// Virtual-clock deadline of an in-progress timed wait.
    deadline: Option<u64>,
    /// The mutex to relock when woken from a condvar wait.
    wait_mutex: u64,
    /// The condvar currently parked on.
    wait_cv: u64,
}

impl ThreadSt {
    fn new() -> ThreadSt {
        ThreadSt {
            status: Status::Ready,
            pending: Some(Op::Start),
            timed_out: false,
            deadline: None,
            wait_mutex: 0,
            wait_cv: 0,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Mutex,
    Rw,
    Cv,
    Atomic,
}

#[derive(Debug)]
enum Obj {
    Mutex {
        owner: Option<u32>,
    },
    Rw {
        writer: Option<u32>,
        readers: Vec<u32>,
    },
    Cv {
        waiters: VecDeque<u32>,
    },
    Atomic,
}

impl Obj {
    fn kind(&self) -> Kind {
        match self {
            Obj::Mutex { .. } => Kind::Mutex,
            Obj::Rw { .. } => Kind::Rw,
            Obj::Cv { .. } => Kind::Cv,
            Obj::Atomic => Kind::Atomic,
        }
    }

    fn fresh(kind: Kind) -> Obj {
        match kind {
            Kind::Mutex => Obj::Mutex { owner: None },
            Kind::Rw => Obj::Rw {
                writer: None,
                readers: Vec::new(),
            },
            Kind::Cv => Obj::Cv {
                waiters: VecDeque::new(),
            },
            Kind::Atomic => Obj::Atomic,
        }
    }
}

struct State {
    seed: u64,
    prefix: Vec<u32>,
    extra_sleep: Vec<Vec<u32>>,
    bound: Option<u32>,
    max_steps: usize,

    threads: Vec<ThreadSt>,
    ids: HashMap<usize, u64>,
    objects: HashMap<u64, Obj>,
    next_obj: u64,

    started: bool,
    live: u32,
    running: Option<u32>,
    last_running: Option<u32>,
    clock_ns: u64,
    steps: usize,
    preemptions: u32,
    sleep: Vec<(u32, Op)>,
    choices: Vec<Choice>,
    failure: Option<Failure>,
    pruned: bool,
    aborting: bool,
}

impl State {
    fn new(spec: RunSpec) -> State {
        State {
            seed: spec.seed,
            prefix: spec.prefix,
            extra_sleep: spec.extra_sleep,
            bound: spec.bound,
            max_steps: if spec.max_steps == 0 {
                50_000
            } else {
                spec.max_steps
            },
            threads: Vec::new(),
            ids: HashMap::new(),
            objects: HashMap::new(),
            next_obj: 0,
            started: false,
            live: 0,
            running: None,
            last_running: None,
            clock_ns: 0,
            steps: 0,
            preemptions: 0,
            sleep: Vec::new(),
            choices: Vec::new(),
            failure: None,
            pruned: false,
            aborting: false,
        }
    }

    /// The stable per-run id for the primitive at `addr`, minted in
    /// first-use order (deterministic: one thread runs at a time).  An
    /// address recycled as a different primitive kind gets a fresh id.
    fn obj_id(&mut self, addr: usize, kind: Kind) -> u64 {
        if let Some(&id) = self.ids.get(&addr) {
            if self.objects.get(&id).is_some_and(|o| o.kind() == kind) {
                return id;
            }
        }
        let id = self.next_obj;
        self.next_obj += 1;
        self.ids.insert(addr, id);
        self.objects.insert(id, Obj::fresh(kind));
        id
    }

    fn enabled(&self, op: Op) -> bool {
        match op {
            Op::Lock(m) | Op::Relock { mutex: m, .. } => {
                matches!(self.objects.get(&m), Some(Obj::Mutex { owner: None }))
            }
            Op::RwRead(o) => matches!(self.objects.get(&o), Some(Obj::Rw { writer: None, .. })),
            Op::RwWrite(o) => matches!(
                self.objects.get(&o),
                Some(Obj::Rw { writer: None, readers }) if readers.is_empty()
            ),
            _ => true,
        }
    }

    fn fail(&mut self, kind: FailureKind, message: String) {
        if self.failure.is_none() {
            self.failure = Some(Failure { kind, message });
        }
        self.aborting = true;
    }

    /// Misuse checks run when an operation is announced, before
    /// scheduling: a re-entrant acquisition would otherwise present as a
    /// plain deadlock, losing the diagnosis.
    fn misuse(&self, tid: u32, op: Op) -> Option<Failure> {
        let fail = |kind, message: String| Some(Failure { kind, message });
        match op {
            Op::Lock(m) | Op::Relock { mutex: m, .. } => match self.objects.get(&m) {
                Some(Obj::Mutex { owner: Some(o) }) if *o == tid => fail(
                    FailureKind::DoubleLock,
                    format!("T{tid} locks o{m} which it already holds"),
                ),
                _ => None,
            },
            Op::RwWrite(o) | Op::RwRead(o) => match self.objects.get(&o) {
                Some(Obj::Rw {
                    writer: Some(w), ..
                }) if *w == tid => fail(
                    FailureKind::DoubleLock,
                    format!("T{tid} acquires o{o} while holding its write lock"),
                ),
                Some(Obj::Rw { readers, .. })
                    if matches!(op, Op::RwWrite(_)) && readers.contains(&tid) =>
                {
                    fail(
                        FailureKind::DoubleLock,
                        format!("T{tid} upgrades o{o} read lock to write (self-deadlock)"),
                    )
                }
                _ => None,
            },
            Op::Wait { cv, mutex } => match self.objects.get(&mutex) {
                Some(Obj::Mutex { owner: Some(o) }) if *o == tid => None,
                _ => fail(
                    FailureKind::WaitWithoutLock,
                    format!("T{tid} waits on o{cv} without holding o{mutex}"),
                ),
            },
            _ => None,
        }
    }
}

fn order_key(seed: u64, depth: usize, tid: u32) -> u64 {
    let mut slot = ((depth as u64) << 32) | u64::from(tid);
    let mut key = seed ^ splitmix64(&mut slot);
    splitmix64(&mut key)
}

fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The scheduler shared by one scenario execution.
pub struct Session {
    st: StdMutex<State>,
    cv: StdCondvar,
}

type Guard<'a> = std::sync::MutexGuard<'a, State>;

impl Session {
    fn lock(&self) -> Guard<'_> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parks the calling model thread after announcing `op`; returns
    /// once the scheduler grants it the turn (for waits: once its relock
    /// is granted).  The return value is the timed-out flag of a timed
    /// wait.  Unwinds with `CheckAbort` if the run aborts meanwhile.
    fn yield_op(&self, tid: u32, timeout: Option<Duration>, op: Op) -> bool {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            abort_unwind();
            return false;
        }
        if let Some(f) = st.misuse(tid, op) {
            st.failure = Some(f);
            st.aborting = true;
            self.cv.notify_all();
            drop(st);
            abort_unwind();
            return false;
        }
        debug_assert_eq!(st.running, Some(tid), "only the running thread yields");
        let deadline = timeout.map(|d| st.clock_ns.saturating_add(dur_ns(d)));
        {
            let t = &mut st.threads[tid as usize];
            t.pending = Some(op);
            t.status = Status::Ready;
            t.timed_out = false;
            if let Op::Wait { cv, mutex } = op {
                t.deadline = deadline;
                t.wait_mutex = mutex;
                t.wait_cv = cv;
            }
        }
        st.running = None;
        self.schedule(&mut st);
        loop {
            if st.aborting {
                drop(st);
                abort_unwind();
                return false;
            }
            if st.running == Some(tid) {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.threads[tid as usize].timed_out
    }

    /// Advances the schedule until a thread is running, the run is over,
    /// or it aborted.  Called with the state lock held, by whichever
    /// thread changed the state.
    fn schedule(&self, st: &mut State) {
        if !st.started {
            return;
        }
        loop {
            if st.failure.is_some() {
                st.aborting = true;
            }
            if st.aborting || st.live == 0 || st.running.is_some() {
                self.cv.notify_all();
                return;
            }
            st.steps += 1;
            if st.steps > st.max_steps {
                st.fail(
                    FailureKind::StepLimit,
                    format!("run exceeded {} transitions", st.max_steps),
                );
                continue;
            }
            let mut candidates: Vec<(u32, Op)> = st
                .threads
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match (t.status, t.pending) {
                    (Status::Ready, Some(op)) if st.enabled(op) => Some((i as u32, op)),
                    _ => None,
                })
                .collect();
            if candidates.is_empty() {
                if self.fire_earliest_timeout(st) {
                    continue;
                }
                let f = classify_deadlock(st);
                st.fail(f.kind, f.message);
                continue;
            }
            // Seed the sleep set for this depth from the driver: those
            // threads' continuations were explored by sibling branches.
            let depth = st.choices.len();
            if depth < st.extra_sleep.len() {
                let extras = st.extra_sleep[depth].clone();
                for tid in extras {
                    if let Some(op) = st.threads.get(tid as usize).and_then(|t| t.pending) {
                        if !st.sleep.iter().any(|&(t, _)| t == tid) {
                            st.sleep.push((tid, op));
                        }
                    }
                }
            }
            let (seed, sleep) = (st.seed, &st.sleep);
            candidates.sort_by_key(|&(tid, _)| (order_key(seed, depth, tid), tid));
            let selectable: Vec<(u32, Op)> = candidates
                .iter()
                .filter(|&&(tid, _)| !sleep.iter().any(|&(s, _)| s == tid))
                .copied()
                .collect();
            // `prev` is the last-running thread *if* it could continue:
            // scheduling anyone else then counts as a preemption.
            let prev = st
                .last_running
                .filter(|p| candidates.iter().any(|&(t, _)| t == *p));
            let view: Vec<Candidate> = selectable
                .iter()
                .map(|&(tid, op)| Candidate {
                    tid,
                    op,
                    preempts: prev.is_some_and(|p| p != tid),
                })
                .collect();

            let chosen: u32 = if depth < st.prefix.len() {
                let want = st.prefix[depth];
                if !candidates.iter().any(|&(t, _)| t == want) {
                    let enabled: Vec<u32> = candidates.iter().map(|&(t, _)| t).collect();
                    st.fail(
                        FailureKind::ReplayDivergence,
                        format!("prefix wants T{want} at step {depth}, enabled: {enabled:?}"),
                    );
                    continue;
                }
                want
            } else if selectable.is_empty() {
                // Every enabled thread is asleep: this execution is a
                // reordering of one explored elsewhere.
                st.pruned = true;
                st.aborting = true;
                self.cv.notify_all();
                return;
            } else if st.bound.is_some_and(|b| st.preemptions >= b) {
                match prev {
                    // Budget spent: keep running the previous thread...
                    Some(p) if selectable.iter().any(|&(t, _)| t == p) => p,
                    // ...unless it is asleep, in which case continuing
                    // would both preempt and duplicate a sibling: prune.
                    Some(_) => {
                        st.pruned = true;
                        st.aborting = true;
                        self.cv.notify_all();
                        return;
                    }
                    // A forced switch (prev blocked/finished) is free.
                    None => selectable[0].0,
                }
            } else {
                selectable[0].0
            };

            let chosen_op = candidates
                .iter()
                .find(|&&(t, _)| t == chosen)
                .map(|&(_, op)| op)
                .expect("chosen is a candidate");
            let preempted = prev.is_some_and(|p| p != chosen);
            st.choices.push(Choice {
                selectable: view,
                chosen,
                chosen_op,
                preemptions_before: st.preemptions,
            });
            st.preemptions += u32::from(preempted);
            // Executing a dependent operation wakes sleeping threads.
            st.sleep
                .retain(|&(t, op)| t != chosen && !dependent(op, chosen_op));
            self.apply(st, chosen, chosen_op);
        }
    }

    /// Applies `op`'s effect on the virtual state.  Most operations
    /// leave the chosen thread running; `Wait` parks it, sending the
    /// loop in [`schedule`](Session::schedule) around again.
    fn apply(&self, st: &mut State, tid: u32, op: Op) {
        let mut still_running = true;
        match op {
            Op::Start | Op::Load(_) | Op::Store(_) => {}
            Op::Lock(m) | Op::Relock { mutex: m, .. } => {
                if let Some(Obj::Mutex { owner }) = st.objects.get_mut(&m) {
                    *owner = Some(tid);
                }
            }
            Op::Unlock(m) => {
                if let Some(Obj::Mutex { owner }) = st.objects.get_mut(&m) {
                    *owner = None;
                }
            }
            Op::RwRead(o) => {
                if let Some(Obj::Rw { readers, .. }) = st.objects.get_mut(&o) {
                    readers.push(tid);
                }
            }
            Op::RwWrite(o) => {
                if let Some(Obj::Rw { writer, .. }) = st.objects.get_mut(&o) {
                    *writer = Some(tid);
                }
            }
            Op::RwUnlock(o) => {
                if let Some(Obj::Rw { writer, readers }) = st.objects.get_mut(&o) {
                    if *writer == Some(tid) {
                        *writer = None;
                    } else {
                        readers.retain(|&r| r != tid);
                    }
                }
            }
            Op::Wait { cv, mutex } => {
                if let Some(Obj::Mutex { owner }) = st.objects.get_mut(&mutex) {
                    *owner = None;
                }
                if let Some(Obj::Cv { waiters }) = st.objects.get_mut(&cv) {
                    waiters.push_back(tid);
                }
                still_running = false;
            }
            Op::Notify { cv, all } => {
                let woken: Vec<u32> = match st.objects.get_mut(&cv) {
                    Some(Obj::Cv { waiters }) => {
                        if all {
                            waiters.drain(..).collect()
                        } else {
                            waiters.pop_front().into_iter().collect()
                        }
                    }
                    _ => Vec::new(),
                };
                for w in woken {
                    let t = &mut st.threads[w as usize];
                    t.status = Status::Ready;
                    t.pending = Some(Op::Relock {
                        mutex: t.wait_mutex,
                        cv,
                    });
                    t.timed_out = false;
                    t.deadline = None;
                }
            }
        }
        let t = &mut st.threads[tid as usize];
        t.pending = None;
        if still_running {
            t.status = Status::Running;
            st.running = Some(tid);
            st.last_running = Some(tid);
        } else {
            t.status = Status::Blocked;
            st.last_running = None;
        }
    }

    /// At quiescence, fires the earliest timed condvar wait (ties broken
    /// by thread id), advancing the virtual clock to its deadline.
    /// Returns whether anything fired.
    fn fire_earliest_timeout(&self, st: &mut State) -> bool {
        let victim = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Blocked)
            .filter_map(|(i, t)| t.deadline.map(|d| (d, i as u32)))
            .min();
        let Some((deadline, tid)) = victim else {
            return false;
        };
        st.clock_ns = st.clock_ns.max(deadline);
        let (cv, mutex) = {
            let t = &st.threads[tid as usize];
            (t.wait_cv, t.wait_mutex)
        };
        if let Some(Obj::Cv { waiters }) = st.objects.get_mut(&cv) {
            waiters.retain(|&w| w != tid);
        }
        let t = &mut st.threads[tid as usize];
        t.status = Status::Ready;
        t.pending = Some(Op::Relock { mutex, cv });
        t.timed_out = true;
        t.deadline = None;
        true
    }

    /// A model thread's exit path (normal completion, abort, or panic).
    fn thread_exit(&self, tid: u32, panic_msg: Option<String>) {
        let mut st = self.lock();
        {
            let t = &mut st.threads[tid as usize];
            t.status = Status::Finished;
            t.pending = None;
        }
        st.live = st.live.saturating_sub(1);
        if st.running == Some(tid) {
            st.running = None;
        }
        if st.last_running == Some(tid) {
            st.last_running = None;
        }
        if let Some(msg) = panic_msg {
            st.fail(FailureKind::Panic, format!("T{tid} panicked: {msg}"));
        }
        self.schedule(&mut st);
        self.cv.notify_all();
    }
}

fn classify_deadlock(st: &State) -> Failure {
    let mut parked = Vec::new();
    let mut lock_blocked = Vec::new();
    for (i, t) in st.threads.iter().enumerate() {
        match (t.status, t.pending) {
            (Status::Blocked, _) => parked.push(format!("T{i} waits on o{}", t.wait_cv)),
            (Status::Ready, Some(op)) => lock_blocked.push(format!("T{i} blocked at {op}")),
            _ => {}
        }
    }
    if lock_blocked.is_empty() && !parked.is_empty() {
        Failure {
            kind: FailureKind::LostWakeup,
            message: format!(
                "every live thread is parked on an untimed condvar wait with no notifier: {}",
                parked.join("; ")
            ),
        }
    } else {
        Failure {
            kind: FailureKind::Deadlock,
            message: format!("no runnable thread: {}", {
                let mut all = lock_blocked;
                all.extend(parked);
                all.join("; ")
            }),
        }
    }
}

/// Unwinds the calling model thread out of an aborted run.  A thread
/// that is already unwinding just returns — the op is skipped and the
/// abort protocol owns the virtual state.
fn abort_unwind() {
    if !std::thread::panicking() {
        std::panic::panic_any(CheckAbort);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Installs the process-wide panic hook once: model/controller panics
/// are recorded into their session (so the failure *report* carries the
/// message) instead of being printed, and `CheckAbort` unwinds stay
/// silent.  Panics on unrelated threads keep the previous hook.
fn install_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CheckAbort>().is_some() {
                return;
            }
            let ctx = CTX.with(|c| c.borrow().clone());
            match ctx {
                Some(Ctx::Model { session, tid }) => {
                    // Record and begin the abort *now*, before unwinding
                    // runs drop code that may take real locks held by
                    // suspended siblings.
                    let msg = info
                        .payload()
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| info.payload().downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    let mut st = session.lock();
                    st.fail(FailureKind::Panic, format!("T{tid} panicked: {msg}"));
                    session.cv.notify_all();
                }
                Some(Ctx::Controller { .. }) => {}
                None => prev(info),
            }
        }));
    });
}

// ---------------------------------------------------------------------
// Public op entry points (called from `crate::sync`)
// ---------------------------------------------------------------------

pub(crate) fn mutex_lock(addr: usize) {
    if !on_checked_thread() {
        return;
    }
    with_model(|sess, tid| {
        let op = {
            let mut st = sess.lock();
            Op::Lock(st.obj_id(addr, Kind::Mutex))
        };
        sess.yield_op(tid, None, op);
    });
}

pub(crate) fn mutex_unlock(addr: usize) {
    if !on_checked_thread() {
        return;
    }
    with_model(|sess, tid| {
        let op = {
            let mut st = sess.lock();
            Op::Unlock(st.obj_id(addr, Kind::Mutex))
        };
        sess.yield_op(tid, None, op);
    });
}

pub(crate) fn rw_read(addr: usize) {
    if !on_checked_thread() {
        return;
    }
    with_model(|sess, tid| {
        let op = {
            let mut st = sess.lock();
            Op::RwRead(st.obj_id(addr, Kind::Rw))
        };
        sess.yield_op(tid, None, op);
    });
}

pub(crate) fn rw_write(addr: usize) {
    if !on_checked_thread() {
        return;
    }
    with_model(|sess, tid| {
        let op = {
            let mut st = sess.lock();
            Op::RwWrite(st.obj_id(addr, Kind::Rw))
        };
        sess.yield_op(tid, None, op);
    });
}

pub(crate) fn rw_unlock(addr: usize) {
    if !on_checked_thread() {
        return;
    }
    with_model(|sess, tid| {
        let op = {
            let mut st = sess.lock();
            Op::RwUnlock(st.obj_id(addr, Kind::Rw))
        };
        sess.yield_op(tid, None, op);
    });
}

/// Virtual condvar wait: release `mutex_addr`, park on `cv_addr`, and
/// return the timed-out flag once rescheduled.  The caller must have
/// dropped the real guard already and re-takes the real lock after.
pub(crate) fn cond_wait(cv_addr: usize, mutex_addr: usize, timeout: Option<Duration>) -> bool {
    if !on_checked_thread() {
        return false;
    }
    with_model(|sess, tid| {
        let op = {
            let mut st = sess.lock();
            let cv = st.obj_id(cv_addr, Kind::Cv);
            let mutex = st.obj_id(mutex_addr, Kind::Mutex);
            Op::Wait { cv, mutex }
        };
        sess.yield_op(tid, timeout, op)
    })
    .unwrap_or(false)
}

pub(crate) fn notify(cv_addr: usize, all: bool) {
    if !on_checked_thread() {
        return;
    }
    with_model(|sess, tid| {
        let op = {
            let mut st = sess.lock();
            Op::Notify {
                cv: st.obj_id(cv_addr, Kind::Cv),
                all,
            }
        };
        sess.yield_op(tid, None, op);
    });
}

pub(crate) fn atomic_load(addr: usize) {
    if !on_checked_thread() {
        return;
    }
    with_model(|sess, tid| {
        let op = {
            let mut st = sess.lock();
            Op::Load(st.obj_id(addr, Kind::Atomic))
        };
        sess.yield_op(tid, None, op);
    });
}

pub(crate) fn atomic_store(addr: usize) {
    if !on_checked_thread() {
        return;
    }
    with_model(|sess, tid| {
        let op = {
            let mut st = sess.lock();
            Op::Store(st.obj_id(addr, Kind::Atomic))
        };
        sess.yield_op(tid, None, op);
    });
}

// ---------------------------------------------------------------------
// Scenario harness
// ---------------------------------------------------------------------

/// The controller-side handle a scenario uses to spawn model threads and
/// start the schedule.
pub struct Handle {
    session: Arc<Session>,
    joins: RefCell<Vec<std::thread::JoinHandle<()>>>,
    went: Cell<bool>,
}

impl Handle {
    /// Registers and launches one model thread.  The thread parks
    /// immediately; no user code runs until [`go`](Handle::go).
    /// Registration order assigns thread ids `0, 1, 2, ...`.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        let session = Arc::clone(&self.session);
        let tid = {
            let mut st = session.lock();
            assert!(!st.started, "spawn after go()");
            st.threads.push(ThreadSt::new());
            st.live += 1;
            (st.threads.len() - 1) as u32
        };
        let handle = std::thread::Builder::new()
            .name(format!("chk-T{tid}"))
            .spawn(move || {
                CTX.with(|c| {
                    *c.borrow_mut() = Some(Ctx::Model {
                        session: Arc::clone(&session),
                        tid,
                    })
                });
                // Wait for the Start grant (or an abort before launch).
                {
                    let mut st = session.lock();
                    loop {
                        if st.aborting {
                            drop(st);
                            session.thread_exit(tid, None);
                            return;
                        }
                        if st.running == Some(tid) {
                            break;
                        }
                        st = session.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                }
                let result = catch_unwind(AssertUnwindSafe(f));
                let panic_msg = match result {
                    Ok(()) => None,
                    Err(p) if p.downcast_ref::<CheckAbort>().is_some() => None,
                    Err(p) => Some(panic_message(p.as_ref())),
                };
                session.thread_exit(tid, panic_msg);
            })
            .expect("spawn model thread");
        self.joins.borrow_mut().push(handle);
    }

    /// Starts the schedule and blocks until every model thread has
    /// finished (or the run aborted).  Returns whether the run completed
    /// cleanly — scenarios gate their teardown assertions on it.
    pub fn go(&self) -> bool {
        self.went.set(true);
        {
            let mut st = self.session.lock();
            st.started = true;
            self.session.schedule(&mut st);
            while st.live > 0 {
                st = self.session.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        for h in self.joins.borrow_mut().drain(..) {
            let _ = h.join();
        }
        let st = self.session.lock();
        st.failure.is_none() && !st.pruned
    }

    fn abort(&self) {
        let mut st = self.session.lock();
        st.aborting = true;
        self.session.cv.notify_all();
        drop(st);
        while self.session.lock().live > 0 {
            let st = self.session.lock();
            let _ = self
                .session
                .cv
                .wait_timeout(st, Duration::from_millis(10))
                .unwrap_or_else(|e| e.into_inner());
        }
        for h in self.joins.borrow_mut().drain(..) {
            let _ = h.join();
        }
    }
}

/// Executes `scenario` once under the schedule described by `spec`.
///
/// The scenario closure runs on the calling thread (the *controller*):
/// it sets up shared state, spawns model threads via [`Handle::spawn`],
/// calls [`Handle::go`], and — when `go` returns `true` — asserts
/// whatever invariants must hold in every terminal state.  Failures of
/// any kind (scheduler-detected or assertion panics) land in the
/// returned [`RunOutcome`].
pub fn run_scenario(spec: RunSpec, scenario: impl FnOnce(&Handle)) -> RunOutcome {
    install_hook();
    let session = Arc::new(Session {
        st: StdMutex::new(State::new(spec)),
        cv: StdCondvar::new(),
    });
    struct CtxGuard;
    impl Drop for CtxGuard {
        fn drop(&mut self) {
            CTX.with(|c| *c.borrow_mut() = None);
        }
    }
    let _ctx = CtxGuard;
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx::Controller {
            session: Arc::clone(&session),
        })
    });
    let handle = Handle {
        session: Arc::clone(&session),
        joins: RefCell::new(Vec::new()),
        went: Cell::new(false),
    };
    let result = catch_unwind(AssertUnwindSafe(|| scenario(&handle)));
    match &result {
        Ok(()) if !handle.went.get() => {
            // Scenario forgot go(): release (and drain) its threads.
            handle.go();
        }
        Ok(()) => {}
        Err(_) => {
            // Setup or teardown panicked; don't start user code, just
            // unwind whatever was spawned.
            handle.abort();
        }
    }
    let mut st = session.lock();
    if let Err(p) = result {
        if p.downcast_ref::<CheckAbort>().is_none() && st.failure.is_none() {
            let msg = panic_message(p.as_ref());
            st.failure = Some(Failure {
                kind: FailureKind::Panic,
                message: format!("scenario panicked: {msg}"),
            });
        }
    }
    let status = if let Some(f) = &st.failure {
        RunStatus::Failed(f.clone())
    } else if st.pruned {
        RunStatus::Pruned
    } else {
        RunStatus::Complete
    };
    RunOutcome {
        status,
        choices: st.choices.clone(),
        steps: st.steps,
    }
}
