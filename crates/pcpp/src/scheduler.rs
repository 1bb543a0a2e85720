//! The non-preemptive run-token scheduler.
//!
//! All program threads exist as OS threads, but a single *turn* token
//! decides which one executes; every other thread is parked on its own
//! condition variable.  The token moves only at the pC++ scheduling
//! points — program start, barrier entry, barrier release, and thread
//! completion — so the execution is exactly the "n-thread program on a
//! single processor using a non-preemptive threads package" of §3.2, and
//! fully deterministic.  A handoff wakes exactly the thread that receives
//! the token, so a phase of `n` threads costs O(n) wakeups.

use crate::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};

#[derive(Debug)]
struct State {
    /// Which thread may run.
    turn: usize,
    /// Threads that entered the current barrier so far.
    arrived: usize,
    /// Barrier generation; bumps when the last thread enters.
    gen: u64,
}

/// The scheduler shared by all threads of one program run.
#[derive(Debug)]
pub struct Scheduler {
    n: usize,
    state: Mutex<State>,
    /// `cvs[i]` parks thread `i`; only a handoff to `i` notifies it.
    cvs: Box<[Condvar]>,
    poisoned: AtomicBool,
}

impl Scheduler {
    /// Creates a scheduler for `n` threads; thread 0 holds the initial
    /// turn.
    pub fn new(n: usize) -> Scheduler {
        assert!(n > 0);
        Scheduler {
            n,
            state: Mutex::new(State {
                turn: 0,
                arrived: 0,
                gen: 0,
            }),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Thread count.
    pub fn n_threads(&self) -> usize {
        self.n
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::Relaxed) {
            panic!("pcpp-rt scheduler poisoned: another program thread panicked");
        }
    }

    /// Marks the run as failed and wakes every parked thread so it can
    /// unwind.  The panicking thread holds the turn, so every woken
    /// waiter's predicate fails and it reaches the check at the top of its
    /// loop — as does a thread that first parks after the poison.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
        let _guard = self.state.lock();
        for cv in self.cvs.iter() {
            cv.notify_all();
        }
    }

    /// Blocks until it is thread `i`'s turn for the first time.
    pub fn wait_first_turn(&self, i: usize) {
        let mut st = self.state.lock();
        while st.turn != i {
            self.check_poison();
            self.cvs[i].wait(&mut st);
        }
    }

    /// Enters the global barrier as thread `i` and blocks until the
    /// barrier is released *and* it is `i`'s turn again.
    pub fn barrier(&self, i: usize) {
        let mut st = self.state.lock();
        debug_assert_eq!(st.turn, i, "thread ran out of turn");
        let entered_gen = st.gen;
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.gen += 1;
            st.turn = 0;
        } else {
            st.turn = i + 1;
        }
        self.cvs[st.turn].notify_one();
        while !(st.gen > entered_gen && st.turn == i) {
            self.check_poison();
            self.cvs[i].wait(&mut st);
        }
    }

    /// Thread `i` finished: hand the turn to the next thread.
    pub fn finish(&self, i: usize) {
        let mut st = self.state.lock();
        debug_assert_eq!(st.turn, i, "thread finished out of turn");
        st.turn = i + 1;
        if st.turn < self.n {
            self.cvs[st.turn].notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Runs `n` threads that each append (thread, step) markers around
    /// `phases` barriers; checks full serialization order.
    fn run_order(n: usize, phases: usize) -> Vec<(usize, usize)> {
        let sched = Arc::new(Scheduler::new(n));
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for i in 0..n {
                let sched = Arc::clone(&sched);
                let log = Arc::clone(&log);
                s.spawn(move || {
                    sched.wait_first_turn(i);
                    for ph in 0..phases {
                        log.lock().push((i, ph));
                        sched.barrier(i);
                    }
                    log.lock().push((i, phases));
                    sched.finish(i);
                });
            }
        });
        Arc::try_unwrap(log).unwrap().into_inner()
    }

    #[test]
    fn threads_run_in_id_order_per_phase() {
        let order = run_order(3, 2);
        let expected: Vec<(usize, usize)> = (0..=2usize)
            .flat_map(|ph| (0..3).map(move |t| (t, ph)))
            .collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn single_thread_needs_no_waiting() {
        let order = run_order(1, 3);
        assert_eq!(order, vec![(0, 0), (0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn many_threads_many_phases_are_deterministic() {
        assert_eq!(run_order(8, 5), run_order(8, 5));
    }

    #[test]
    fn hundreds_of_threads_serialize_in_id_order() {
        // A handoff that woke every parked thread would make this take
        // seconds instead of milliseconds.
        let (n, phases) = (256, 8);
        let expected: Vec<(usize, usize)> = (0..=phases)
            .flat_map(|ph| (0..n).map(move |t| (t, ph)))
            .collect();
        assert_eq!(run_order(n, phases), expected);
    }

    /// Runs 64 threads through `Program::run` where thread 17 panics in
    /// phase `bad_phase`; returns whether the run re-raised the panic.
    fn run_panicking_at(bad_phase: usize) -> bool {
        std::panic::catch_unwind(|| {
            crate::Program::new(64).run(|ctx| {
                for ph in 0..6 {
                    if ctx.id().index() == 17 && ph == bad_phase {
                        panic!("thread 17 fails in phase {ph}");
                    }
                    ctx.barrier();
                }
            })
        })
        .is_err()
    }

    #[test]
    fn poison_reaches_every_parked_thread() {
        // Phase 3: threads 0..17 are parked in the next barrier and
        // 18..64 wait for their turn in the current one.
        assert!(run_panicking_at(3));
        // Phase 0: threads 0..17 are parked in `barrier`, the rest in
        // (or still on their way to) `wait_first_turn`.
        assert!(run_panicking_at(0));
    }

    #[test]
    fn poison_unblocks_waiters() {
        let sched = Arc::new(Scheduler::new(2));
        let s2 = Arc::clone(&sched);
        let waiter = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s2.wait_first_turn(1);
            }));
            result.is_err()
        });
        // Give the waiter time to park, then poison.
        std::thread::sleep(std::time::Duration::from_millis(20));
        sched.poison();
        assert!(waiter.join().unwrap(), "waiter should panic on poison");
    }
}
