//! The barrier model (§3.3.3, Table 1).
//!
//! The paper's model is a **linear master–slave** barrier: thread 0 is the
//! master; every slave entering the barrier sends a message to the master
//! and waits for a release message.  The master waits for all slaves
//! (checking every `CheckTime`), waits `ModelTime`, then sends release
//! messages to every slave.  With `BarrierByMsgs = 1` the messages are
//! real network messages whose transfer time contributes to the barrier
//! time.  Hardware barriers and logarithmic combining trees are provided
//! as the "easily substituted" alternative algorithms.
//!
//! The coordinator is model logic only: it computes *when* things happen
//! and appends [`BarrierAction`]s (messages to inject, threads to resume)
//! to a buffer the engine owns and reuses; the engine owns the event
//! queue and the network.

pub mod hardware;
pub mod linear;
pub mod tree;

use crate::params::{BarrierAlgorithm, BarrierParams, CommParams};
use extrap_time::{BarrierId, DurationNs, ThreadId, TimeNs};

/// Barrier-protocol messages exchanged through the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BarrierMsg {
    /// Slave → master: "I have reached barrier `b`".
    Arrive(BarrierId),
    /// Master → slave: "barrier `b` is lowered".
    Release(BarrierId),
}

/// What the engine must do on behalf of the barrier model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BarrierAction {
    /// Inject a barrier message into the network at `depart`.
    Send {
        /// Network departure time (sender-side costs already included).
        depart: TimeNs,
        /// Sending thread.
        from: ThreadId,
        /// Receiving thread.
        to: ThreadId,
        /// Message size in bytes.
        bytes: u32,
        /// Protocol content.
        msg: BarrierMsg,
    },
    /// Resume `thread` (its barrier-exit trace event timestamp) at `at`.
    Resume {
        /// The thread leaving the barrier.
        thread: ThreadId,
        /// Exit-event time (all barrier costs included).
        at: TimeNs,
    },
}

/// The master thread of the linear algorithm (thread 0, per the paper).
pub const MASTER: ThreadId = ThreadId(0);

/// Rounds `t` up to the polling grid anchored at `anchor` with period
/// `q` (used for `CheckTime` / `ExitCheckTime` quantization).  With a
/// zero period the state change is observed immediately.
pub fn quantize(anchor: TimeNs, t: TimeNs, q: DurationNs) -> TimeNs {
    if q.is_zero() || t <= anchor {
        return t.max(anchor);
    }
    let gap = t.since(anchor).as_ns();
    let period = q.as_ns();
    let ticks = gap.div_ceil(period);
    anchor + DurationNs(ticks * period)
}

/// Per-barrier bookkeeping, recycled once the barrier completes.
#[derive(Clone, Debug, Default)]
struct BarrierState {
    /// Per-thread entry-complete times (trace event time + `EntryTime`).
    entry_done: Vec<Option<TimeNs>>,
    /// Arrival times of slave messages at the master (message mode).
    arrivals: Vec<Option<TimeNs>>,
    /// Count of entry_done entries.
    entered: usize,
    /// Count of arrivals recorded at the master.
    arrived_msgs: usize,
    /// Release messages delivered to slaves (message mode).
    released_msgs: usize,
}

impl BarrierState {
    fn reset(&mut self, n: usize) {
        self.entry_done.clear();
        self.entry_done.resize(n, None);
        self.arrivals.clear();
        self.arrivals.resize(n, None);
        self.entered = 0;
        self.arrived_msgs = 0;
        self.released_msgs = 0;
    }
}

/// `slot_of` marker: the barrier has not been entered yet.
const UNSEEN: u32 = u32::MAX;
/// `slot_of` marker: the barrier completed and its state was recycled.
const RETIRED: u32 = u32::MAX - 1;

/// The barrier model's coordinator.  One instance serves all barriers of
/// a run (they are indexed by program-order [`BarrierId`]).
///
/// Only barriers still in progress hold state: a completed barrier's
/// state goes back to a free list and is reused by a later barrier, and
/// [`reset`](BarrierCoordinator::reset) keeps every buffer for the next
/// run, so a recycled coordinator stops allocating once it has seen its
/// peak number of concurrently open barriers.
#[derive(Clone, Debug)]
pub struct BarrierCoordinator {
    n_threads: usize,
    params: BarrierParams,
    comm: CommParams,
    /// State pool; live barriers find theirs through `slot_of`.
    states: Vec<BarrierState>,
    /// Program-order barrier index → slot in `states` (or a marker).
    slot_of: Vec<u32>,
    /// Slots of completed barriers, ready for reuse.
    free: Vec<u32>,
    /// Entry-complete times, turned into resume times in place by the
    /// non-message algorithms.
    times: Vec<TimeNs>,
    /// Total barrier synchronization episodes completed.
    completed: usize,
}

impl BarrierCoordinator {
    /// Creates a coordinator for `n_threads` threads.
    pub fn new(n_threads: usize, params: BarrierParams, comm: CommParams) -> BarrierCoordinator {
        assert!(n_threads > 0);
        BarrierCoordinator {
            n_threads,
            params,
            comm,
            states: Vec::new(),
            slot_of: Vec::new(),
            free: Vec::new(),
            times: Vec::new(),
            completed: 0,
        }
    }

    /// Re-arms the coordinator for a new run, keeping its buffers.
    pub fn reset(&mut self, n_threads: usize, params: BarrierParams, comm: CommParams) {
        assert!(n_threads > 0);
        self.n_threads = n_threads;
        self.params = params;
        self.comm = comm;
        self.slot_of.clear();
        self.free.clear();
        self.free.extend((0..self.states.len() as u32).rev());
        self.completed = 0;
    }

    /// Barriers fully released so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// The state slot of barrier `b`, opening one on first use.
    fn slot(&mut self, b: BarrierId) -> usize {
        let idx = b.index();
        if self.slot_of.len() <= idx {
            self.slot_of.resize(idx + 1, UNSEEN);
        }
        match self.slot_of[idx] {
            UNSEEN => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.states.push(BarrierState::default());
                    (self.states.len() - 1) as u32
                });
                self.states[slot as usize].reset(self.n_threads);
                self.slot_of[idx] = slot;
                slot as usize
            }
            RETIRED => panic!("{b} used after it completed"),
            slot => slot as usize,
        }
    }

    /// Returns barrier `b`'s state slot to the free list.
    fn retire(&mut self, b: BarrierId, slot: usize) {
        self.slot_of[b.index()] = RETIRED;
        self.free.push(slot as u32);
    }

    /// Sender-side message overhead (construct + startup).
    fn send_overhead(&self) -> DurationNs {
        self.comm.construct + self.comm.startup
    }

    /// Called when `thread`'s barrier-enter trace event fires at `now`;
    /// appends the resulting actions to `out`.
    pub fn on_enter(
        &mut self,
        b: BarrierId,
        thread: ThreadId,
        now: TimeNs,
        out: &mut Vec<BarrierAction>,
    ) {
        let entry = self.params.entry;
        let n = self.n_threads;
        let use_msgs = self.params.by_msgs && self.params.algorithm == BarrierAlgorithm::Linear;
        let send_overhead = self.send_overhead();
        let msg_size = self.params.msg_size;
        let slot = self.slot(b);
        let st = &mut self.states[slot];
        let done = now + entry;
        assert!(
            st.entry_done[thread.index()].is_none(),
            "{thread} entered {b} twice"
        );
        st.entry_done[thread.index()] = Some(done);
        st.entered += 1;

        if use_msgs {
            if thread != MASTER {
                // Slave announces itself to the master with a real message.
                out.push(BarrierAction::Send {
                    depart: done + send_overhead,
                    from: thread,
                    to: MASTER,
                    bytes: msg_size,
                    msg: BarrierMsg::Arrive(b),
                });
            } else {
                // The master's own entry counts as an arrival at itself.
                st.arrivals[MASTER.index()] = Some(done);
                st.arrived_msgs += 1;
                if st.arrived_msgs == n {
                    self.lower_with_msgs(b, slot, out);
                }
            }
            return;
        }

        // Non-message algorithms resolve once the last thread enters.
        if st.entered == n {
            self.resolve_without_msgs(b, slot, out);
        }
    }

    /// Called when a slave's `Arrive` message reaches the master at
    /// `arrival` (message mode only); appends the resulting actions to
    /// `out`.
    pub fn on_arrive_msg(
        &mut self,
        b: BarrierId,
        from: ThreadId,
        arrival: TimeNs,
        out: &mut Vec<BarrierAction>,
    ) {
        let n = self.n_threads;
        let slot = self.slot(b);
        let st = &mut self.states[slot];
        assert!(
            st.arrivals[from.index()].is_none(),
            "duplicate barrier arrival from {from}"
        );
        st.arrivals[from.index()] = Some(arrival);
        st.arrived_msgs += 1;
        if st.arrived_msgs == n {
            self.lower_with_msgs(b, slot, out);
        }
    }

    /// Called when the master's `Release` message reaches slave `thread`
    /// at `arrival` (message mode only).  Appends the resume action to
    /// `out`.
    pub fn on_release_msg(
        &mut self,
        b: BarrierId,
        thread: ThreadId,
        arrival: TimeNs,
        out: &mut Vec<BarrierAction>,
    ) {
        let exit = self.params.exit;
        let exit_check = self.params.exit_check;
        let receive = self.comm.receive;
        let n = self.n_threads;
        let slot = self.slot(b);
        let st = &mut self.states[slot];
        let waiting_since = st.entry_done[thread.index()]
            .expect("release for a thread that never entered the barrier");
        // The slave polls for the release every ExitCheckTime.
        let observed = quantize(waiting_since, arrival + receive, exit_check);
        out.push(BarrierAction::Resume {
            thread,
            at: observed + exit,
        });
        st.released_msgs += 1;
        if st.released_msgs == n - 1 {
            self.retire(b, slot);
        }
    }

    /// Master has all arrivals (message mode): compute lowering time,
    /// send release messages, resume the master.
    fn lower_with_msgs(&mut self, b: BarrierId, slot: usize, out: &mut Vec<BarrierAction>) {
        let p = self.params;
        let send_overhead = self.send_overhead();
        let n = self.n_threads;
        let st = &self.states[slot];
        let master_ready = st.arrivals[MASTER.index()].expect("master not ready");
        let last = st
            .arrivals
            .iter()
            .map(|a| a.expect("missing arrival"))
            .max()
            .expect("no arrivals");
        // The master checks the arrival count every CheckTime.
        let observed = quantize(master_ready, last, p.check);
        let lower = observed + p.model;
        self.completed += 1;

        // Release messages go out one after another (linear algorithm).
        let mut depart = lower;
        for t in extrap_time::threads(n) {
            if t == MASTER {
                continue;
            }
            depart += send_overhead;
            out.push(BarrierAction::Send {
                depart,
                from: MASTER,
                to: t,
                bytes: p.msg_size,
                msg: BarrierMsg::Release(b),
            });
        }
        // The master resumes after sending every release.
        out.push(BarrierAction::Resume {
            thread: MASTER,
            at: depart + p.exit,
        });
        // Slaves still read their entry times when the releases land.
        if n == 1 {
            self.retire(b, slot);
        }
    }

    /// Non-message resolution: hardware, tree, or linear-without-messages.
    fn resolve_without_msgs(&mut self, b: BarrierId, slot: usize, out: &mut Vec<BarrierAction>) {
        let p = self.params;
        let comm = self.comm;
        let times = &mut self.times;
        times.clear();
        times.extend(
            self.states[slot]
                .entry_done
                .iter()
                .map(|t| t.expect("missing entry")),
        );
        match p.algorithm {
            BarrierAlgorithm::Hardware => hardware::resume_times(&p, times),
            BarrierAlgorithm::Tree { arity } => tree::resume_times(&p, &comm, arity, times),
            BarrierAlgorithm::Linear => linear::resume_times_no_msgs(&p, times),
        }
        out.extend(
            times
                .iter()
                .enumerate()
                .map(|(i, &at)| BarrierAction::Resume {
                    thread: ThreadId::from_index(i),
                    at,
                }),
        );
        self.completed += 1;
        self.retire(b, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(
        c: &mut BarrierCoordinator,
        b: BarrierId,
        t: ThreadId,
        now: TimeNs,
    ) -> Vec<BarrierAction> {
        let mut out = Vec::new();
        c.on_enter(b, t, now, &mut out);
        out
    }

    fn arrive(
        c: &mut BarrierCoordinator,
        b: BarrierId,
        t: ThreadId,
        at: TimeNs,
    ) -> Vec<BarrierAction> {
        let mut out = Vec::new();
        c.on_arrive_msg(b, t, at, &mut out);
        out
    }

    fn release(
        c: &mut BarrierCoordinator,
        b: BarrierId,
        t: ThreadId,
        at: TimeNs,
    ) -> Vec<BarrierAction> {
        let mut out = Vec::new();
        c.on_release_msg(b, t, at, &mut out);
        out
    }

    #[test]
    fn quantize_grid() {
        let q = DurationNs(100);
        let anchor = TimeNs(1_000);
        assert_eq!(quantize(anchor, TimeNs(1_000), q), TimeNs(1_000));
        assert_eq!(quantize(anchor, TimeNs(1_001), q), TimeNs(1_100));
        assert_eq!(quantize(anchor, TimeNs(1_100), q), TimeNs(1_100));
        assert_eq!(quantize(anchor, TimeNs(1_101), q), TimeNs(1_200));
        // Zero period observes immediately.
        assert_eq!(
            quantize(anchor, TimeNs(1_101), DurationNs::ZERO),
            TimeNs(1_101)
        );
        // Times before the anchor clamp to the anchor.
        assert_eq!(quantize(anchor, TimeNs(500), q), anchor);
    }

    fn zeroish_params(algorithm: BarrierAlgorithm, by_msgs: bool) -> BarrierParams {
        BarrierParams {
            entry: DurationNs(10),
            exit: DurationNs(20),
            check: DurationNs::ZERO,
            exit_check: DurationNs::ZERO,
            model: DurationNs(100),
            by_msgs,
            msg_size: 64,
            algorithm,
            hardware_latency: DurationNs(7),
        }
    }

    #[test]
    fn hardware_barrier_releases_at_last_entry_plus_latency() {
        let mut c = BarrierCoordinator::new(
            3,
            zeroish_params(BarrierAlgorithm::Hardware, false),
            CommParams::free(),
        );
        let b = BarrierId(0);
        assert!(enter(&mut c, b, ThreadId(0), TimeNs(100)).is_empty());
        assert!(enter(&mut c, b, ThreadId(2), TimeNs(500)).is_empty());
        let actions = enter(&mut c, b, ThreadId(1), TimeNs(300));
        // Last entry completes at 510; release 510+7; resume +exit 20.
        assert_eq!(actions.len(), 3);
        for a in &actions {
            match a {
                BarrierAction::Resume { at, .. } => assert_eq!(*at, TimeNs(537)),
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(c.completed(), 1);
    }

    #[test]
    fn linear_no_msgs_includes_model_and_check() {
        let mut p = zeroish_params(BarrierAlgorithm::Linear, false);
        p.check = DurationNs(30);
        let mut c = BarrierCoordinator::new(2, p, CommParams::free());
        let b = BarrierId(0);
        enter(&mut c, b, ThreadId(0), TimeNs(0)); // master ready at 10
        let actions = enter(&mut c, b, ThreadId(1), TimeNs(95)); // done at 105
                                                                 // master observes on its 30ns grid from 10: 105 -> 130; lower at 230.
                                                                 // resumes at 230 + exit(20) = 250 (exit_check = 0).
        let resumes: Vec<TimeNs> = actions
            .iter()
            .map(|a| match a {
                BarrierAction::Resume { at, .. } => *at,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(resumes, vec![TimeNs(250), TimeNs(250)]);
    }

    #[test]
    fn message_mode_emits_arrive_and_release_sends() {
        let p = zeroish_params(BarrierAlgorithm::Linear, true);
        let comm = CommParams {
            construct: DurationNs(5),
            startup: DurationNs(15),
            receive: DurationNs(2),
            ..CommParams::free()
        };
        let mut c = BarrierCoordinator::new(2, p, comm);
        let b = BarrierId(0);
        // Slave enters first: emits an Arrive send at entry_done + 20.
        let a1 = enter(&mut c, b, ThreadId(1), TimeNs(0));
        assert_eq!(
            a1,
            vec![BarrierAction::Send {
                depart: TimeNs(30),
                from: ThreadId(1),
                to: MASTER,
                bytes: 64,
                msg: BarrierMsg::Arrive(b),
            }]
        );
        // Master enters; still waiting for the slave's message.
        assert!(enter(&mut c, b, MASTER, TimeNs(50)).is_empty());
        // Arrive message lands at 100: master lowers at 100+model(100)=200,
        // sends release departing 200+20=220, resumes at 220+exit(20)=240.
        let a2 = arrive(&mut c, b, ThreadId(1), TimeNs(100));
        assert_eq!(
            a2,
            vec![
                BarrierAction::Send {
                    depart: TimeNs(220),
                    from: MASTER,
                    to: ThreadId(1),
                    bytes: 64,
                    msg: BarrierMsg::Release(b),
                },
                BarrierAction::Resume {
                    thread: MASTER,
                    at: TimeNs(240),
                },
            ]
        );
        // Release lands at slave at 300: + receive(2) + exit(20).
        let a3 = release(&mut c, b, ThreadId(1), TimeNs(300));
        assert_eq!(
            a3,
            vec![BarrierAction::Resume {
                thread: ThreadId(1),
                at: TimeNs(322),
            }]
        );
    }

    #[test]
    fn single_thread_barrier_is_cheap_but_not_free() {
        let p = zeroish_params(BarrierAlgorithm::Linear, true);
        let mut c = BarrierCoordinator::new(1, p, CommParams::free());
        let actions = enter(&mut c, BarrierId(0), MASTER, TimeNs(0));
        // entry 10 + model 100 + exit 20 = resume at 130, no sends.
        assert_eq!(
            actions,
            vec![BarrierAction::Resume {
                thread: MASTER,
                at: TimeNs(130),
            }]
        );
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_entry_panics() {
        let p = zeroish_params(BarrierAlgorithm::Hardware, false);
        let mut c = BarrierCoordinator::new(2, p, CommParams::free());
        enter(&mut c, BarrierId(0), ThreadId(0), TimeNs(0));
        enter(&mut c, BarrierId(0), ThreadId(0), TimeNs(1));
    }

    #[test]
    fn completed_barriers_recycle_their_state() {
        let mut p = zeroish_params(BarrierAlgorithm::Linear, true);
        let mut c = BarrierCoordinator::new(3, p, CommParams::free());
        for i in 0..50 {
            let b = BarrierId(i);
            for t in [1, 2] {
                enter(&mut c, b, ThreadId(t), TimeNs(u64::from(i) * 100));
                arrive(&mut c, b, ThreadId(t), TimeNs(u64::from(i) * 100 + 1));
            }
            assert_eq!(
                enter(&mut c, b, MASTER, TimeNs(u64::from(i) * 100)).len(),
                3
            );
            for t in [1, 2] {
                release(&mut c, b, ThreadId(t), TimeNs(u64::from(i) * 100 + 50));
            }
        }
        assert_eq!(c.completed(), 50);
        assert_eq!(
            c.states.len(),
            1,
            "one barrier open at a time needs one state"
        );

        // A reset coordinator reuses the pool for a different run shape.
        p.algorithm = BarrierAlgorithm::Hardware;
        c.reset(4, p, CommParams::free());
        assert_eq!(c.completed(), 0);
        for t in 0..3 {
            assert!(enter(&mut c, BarrierId(0), ThreadId(t), TimeNs(0)).is_empty());
        }
        assert_eq!(enter(&mut c, BarrierId(0), ThreadId(3), TimeNs(0)).len(), 4);
        assert_eq!(c.states.len(), 1);
    }

    #[test]
    #[should_panic(expected = "after it completed")]
    fn entering_a_completed_barrier_panics() {
        let p = zeroish_params(BarrierAlgorithm::Hardware, false);
        let mut c = BarrierCoordinator::new(1, p, CommParams::free());
        enter(&mut c, BarrierId(0), MASTER, TimeNs(0));
        enter(&mut c, BarrierId(0), MASTER, TimeNs(1));
    }
}
