//! The bound computation: abstract interpretation of a
//! [`CompiledProgram`] under one [`SimParams`] into closed-form
//! lower/upper execution-time bounds.
//!
//! Both bounds walk the program one barrier epoch at a time, over the
//! borrowed op slices of
//! [`CompiledThread::epochs`](extrap_core::CompiledThread::epochs) — the
//! one epoch definition, shared with representative-region planning.
//!
//! The derivation mirrors the engine's cost formulas term by term:
//!
//! * **Lower bound (span).**  Each thread's serial chain is replayed
//!   contention-free: every compute atom costs exactly
//!   `d.scale(MipsRatio)`, every remote read costs its minimum round
//!   trip (send overhead → wire at factor 1 → `receive + service` at the
//!   owner → send overhead → wire back → receive), every write costs one
//!   send overhead, and every barrier applies the coordinator's resume
//!   formulas with all waits collapsed to their floors (`quantize(a, t,
//!   q) ≥ max(a, t)`).  The engine can only ever *add* time to these
//!   chains — contention factors are ≥ 1, service backlog only delays,
//!   and quantization only rounds up — so the maximum per-thread chain
//!   end is a true execution-time floor.
//!
//! * **Upper bound.**  A scalar per-epoch chain `U`: after barrier
//!   `e−1`, every thread has resumed by `U`; the slowest thread's serial
//!   work (with each read charged its *worst* direct wait: the largest
//!   compute atom a request can land behind, the barrier entry stall,
//!   the previous barrier's release spread, one pending issue, or one
//!   in-progress reply receive) plus the barrier's worst-case
//!   completion (every quantization rounded fully up, every wire at the
//!   contention ceiling `fmax`) advances the chain.  Service *backlog*
//!   — requests queued behind other requests — is amortized separately:
//!   each service interval in the whole run can intersect one causal
//!   chain at most once, so the global sum `G` of all service costs is
//!   added exactly once at the end.
//!
//! Both bounds are monotone in `MipsRatio` (compute scaling is the only
//! ratio-dependent term and `DurationNs::scale` is monotone in its
//! factor), which [`verify_prediction`] checks as a tripwire.

use extrap_core::barrier::tree;
use extrap_core::processor::Op;
use extrap_core::{
    BarrierAlgorithm, CompiledProgram, Prediction, ReprPlan, SimParams, SimStrategy, ThreadMapping,
};
use extrap_time::{BarrierId, DurationNs, ProcId, ThreadId, TimeNs};

/// Why a program/parameter combination has no static envelope.
///
/// The analyzer covers the configuration space the paper's experiments
/// use; anything outside it is *skipped*, never guessed at — a bound
/// that might not hold is worse than no bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsupported {
    /// Human-readable reason the analysis declined.
    pub reason: String,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "analysis unsupported: {}", self.reason)
    }
}

impl std::error::Error for Unsupported {}

fn unsupported(reason: impl Into<String>) -> Unsupported {
    Unsupported {
        reason: reason.into(),
    }
}

/// Per-epoch work/imbalance summary (one row of `extrap analyze`).
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRow {
    /// Epoch index (epoch `e` ends at the `e`-th barrier; the last row
    /// is the tail epoch ending at thread end).
    pub index: usize,
    /// Terminating barrier, `None` for the tail epoch.
    pub barrier: Option<BarrierId>,
    /// Total scaled compute across threads.
    pub work: DurationNs,
    /// Scaled compute of the busiest thread.
    pub busiest: DurationNs,
    /// Load imbalance: busiest thread / mean thread (1.0 when idle).
    pub imbalance: f64,
    /// Remote reads issued in the epoch (all threads).
    pub reads: u64,
    /// Remote writes issued in the epoch (all threads).
    pub writes: u64,
}

/// The static analysis of one program under one parameter set.
#[derive(Clone, Debug, PartialEq)]
pub struct Analysis {
    /// Threads in the program.
    pub n_threads: usize,
    /// Processors of the target machine (from the thread mapping).
    pub n_procs: usize,
    /// Barriers every thread passes.
    pub n_barriers: usize,
    /// Total `MipsRatio`-scaled compute across all threads (the *work*
    /// term of the Brent-style bound).
    pub total_work: DurationNs,
    /// Critical-path lower bound on execution time (the *span*).
    pub span: TimeNs,
    /// Closed-form upper bound on execution time.
    pub upper: TimeNs,
    /// Per-thread end-time floors.
    pub thread_lower: Vec<TimeNs>,
    /// Per-thread end-time ceilings.
    pub thread_upper: Vec<TimeNs>,
    /// Per-epoch work/imbalance rows.
    pub epochs: Vec<EpochRow>,
    /// Contention delay-factor ceiling used by the upper bound.
    pub fmax: f64,
    /// Global service slack `G` (sum of every service action's cost),
    /// charged once in the upper bound.
    pub slack: DurationNs,
    /// Cross-processor message census backing `fmax`.
    pub messages: u64,
}

impl Analysis {
    /// Lower bound on achievable speedup (`work / upper`).
    pub fn speedup_lower(&self) -> f64 {
        ratio(self.total_work.as_ns(), self.upper.as_ns())
    }

    /// Upper bound on achievable speedup (`work / span`).
    pub fn speedup_upper(&self) -> f64 {
        ratio(self.total_work.as_ns(), self.span.as_ns())
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        if num == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        num as f64 / den as f64
    }
}

/// The validity envelope a simulation result is checked against.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Which result shape the envelope bounds.
    pub strategy: &'static str,
    /// Execution-time floor.
    pub exec_lower: TimeNs,
    /// Execution-time ceiling.
    pub exec_upper: TimeNs,
    /// Per-thread end-time floors.
    pub thread_lower: Vec<TimeNs>,
    /// Per-thread end-time ceilings.
    pub thread_upper: Vec<TimeNs>,
}

// ---------------------------------------------------------------------
// Epoch decomposition
// ---------------------------------------------------------------------

/// The program split into its barrier epochs, borrowed straight from
/// the compiled scripts.
struct Decomp<'a> {
    n_threads: usize,
    n_procs: usize,
    barriers: Vec<BarrierId>,
    /// `segs[thread][epoch]`, `barriers.len() + 1` epochs per thread.
    segs: Vec<Vec<&'a [Op]>>,
}

/// The barrier ids that end a thread's epochs, in order.
fn barrier_ids<'s>(epochs: &'s [&[Op]]) -> impl Iterator<Item = BarrierId> + 's {
    epochs.iter().filter_map(|seg| match seg.last() {
        Some(Op::Barrier(b)) => Some(*b),
        _ => None,
    })
}

fn decompose<'a>(
    program: &'a CompiledProgram,
    params: &SimParams,
) -> Result<Decomp<'a>, Unsupported> {
    if params.multithread.mapping != ThreadMapping::OnePerProc {
        return Err(unsupported(format!(
            "thread mapping {:?} multiplexes processors; bounds cover one-per-proc only",
            params.multithread.mapping
        )));
    }
    let n_threads = program.n_threads();
    let n_procs = params.multithread.mapping.n_procs(n_threads.max(1));

    let mut segs: Vec<Vec<&[Op]>> = Vec::with_capacity(n_threads);
    for (ti, th) in program.threads().iter().enumerate() {
        if th.thread != ThreadId(ti as u32) {
            return Err(unsupported(format!(
                "thread slot {ti} holds {:?}; bounds need identity thread order",
                th.thread
            )));
        }
        for op in &th.ops {
            let (kind, owner) = match *op {
                Op::RemoteRead { owner, .. } => ("read", owner),
                Op::RemoteWrite { owner, .. } => ("write", owner),
                _ => continue,
            };
            if owner.index() >= n_threads {
                return Err(unsupported(format!(
                    "{kind} owner {owner:?} outside the {n_threads}-thread program"
                )));
            }
        }
        let epochs: Vec<&[Op]> = th.epochs().collect();
        if let Some(first) = segs.first() {
            if !barrier_ids(&epochs).eq(barrier_ids(first)) {
                return Err(unsupported(
                    "threads disagree on the barrier sequence; per-epoch bounds need \
                     globally aligned barriers",
                ));
            }
        }
        segs.push(epochs);
    }
    let barriers = segs
        .first()
        .map_or_else(Vec::new, |e| barrier_ids(e).collect());
    Ok(Decomp {
        n_threads,
        n_procs,
        barriers,
        segs,
    })
}

// ---------------------------------------------------------------------
// Cost helpers
// ---------------------------------------------------------------------

struct Costs<'a> {
    p: &'a SimParams,
    n_procs: usize,
    /// Contention ceiling for the upper bound; exactly 1.0 for lower.
    fmax: f64,
}

impl Costs<'_> {
    fn send_oh(&self) -> DurationNs {
        self.p.comm.construct + self.p.comm.startup
    }

    fn svc(&self) -> DurationNs {
        self.p.comm.receive + self.p.comm.service
    }

    fn proc_of(&self, t: ThreadId) -> ProcId {
        // Gated to OnePerProc in `decompose`, where proc i serves
        // exactly thread i.
        ProcId(t.0)
    }

    /// Wire time `hop × hops + byte_transfer × bytes` scaled by
    /// `factor` — the same expression (and rounding) as
    /// `NetworkState::inject`; zero between co-resident endpoints.
    fn wire(&self, src: ThreadId, dst: ThreadId, bytes: u32, factor: f64) -> DurationNs {
        let (a, b) = (self.proc_of(src), self.proc_of(dst));
        if a == b {
            return DurationNs::ZERO;
        }
        let hops = self.p.network.topology.hops(self.n_procs, a, b);
        let wire =
            self.p.network.hop * u64::from(hops) + self.p.comm.byte_transfer * u64::from(bytes);
        wire.scale(factor)
    }

    /// Round-trip floor of one blocking read: request send overhead,
    /// contention-free request wire, owner service, reply send overhead,
    /// contention-free reply wire, receive.  Every engine service path
    /// (idle, interrupt, poll drain) charges at least this much.
    fn read_floor(&self, t: ThreadId, owner: ThreadId, bytes: u32) -> DurationNs {
        self.send_oh()
            + self.wire(t, owner, self.p.comm.request_bytes, 1.0)
            + self.svc()
            + self.send_oh()
            + self.wire(owner, t, bytes + self.p.comm.reply_header_bytes, 1.0)
            + self.p.comm.receive
    }

    /// Round-trip ceiling of one blocking read, excluding service
    /// *backlog* (amortized globally in `G`): wires at the contention
    /// ceiling plus the worst direct wait a request can land behind.
    fn read_ceiling(
        &self,
        t: ThreadId,
        owner: ThreadId,
        bytes: u32,
        wait_direct: DurationNs,
    ) -> DurationNs {
        self.send_oh()
            + self.wire(t, owner, self.p.comm.request_bytes, self.fmax)
            + wait_direct
            + self.svc()
            + self.send_oh()
            + self.wire(owner, t, bytes + self.p.comm.reply_header_bytes, self.fmax)
            + self.p.comm.receive
    }

    /// Serial cost of one thread's epoch slice, with each read charged
    /// `read_cost(owner, modelled bytes)`.  Every compute atom is scaled
    /// on its own, the way the engine scales each `Op::Compute` at
    /// dispatch.
    fn serial(
        &self,
        seg: &[Op],
        mut read_cost: impl FnMut(ThreadId, u32) -> DurationNs,
    ) -> DurationNs {
        let mut total = DurationNs::ZERO;
        for op in seg {
            total += match *op {
                Op::Compute(d) => d.scale(self.p.mips_ratio),
                Op::RemoteRead {
                    owner,
                    declared_bytes,
                    actual_bytes,
                    ..
                } => read_cost(
                    owner,
                    match self.p.size_mode {
                        extrap_core::SizeMode::Declared => declared_bytes,
                        extrap_core::SizeMode::Actual => actual_bytes,
                    },
                ),
                Op::RemoteWrite { .. } => self.send_oh(),
                Op::Barrier(_) | Op::End => DurationNs::ZERO,
            };
        }
        total
    }
}

// ---------------------------------------------------------------------
// Message census (fmax) and global slack (G)
// ---------------------------------------------------------------------

/// One count pass over every remote op, feeding the contention ceiling
/// `fmax` and the global service slack `G`.
struct Census {
    /// Blocking reads in the run.
    reads: u64,
    /// Non-blocking writes in the run.
    writes: u64,
    /// Every cross-processor message the run will inject.
    messages: u64,
    /// How many of them can be in flight at once.
    concurrent: u64,
}

/// Counts the run's remote ops and messages.
///
/// `messages` counts every cross-processor message the run will inject:
/// two per cross-proc read, one per write, and — in message-mode linear
/// barriers — `2 × (n − 1)` per barrier (arrives + releases).  Tree
/// barriers are analytic (never injected) and hardware/flag barriers
/// send nothing.
///
/// `concurrent` bounds how many can be *in flight at once*, which is
/// what the engine's delay factor actually sees: a reading thread
/// blocks until its reply lands, so reads contribute at most one
/// message per reading thread; a message-mode barrier keeps at most one
/// arrive-or-release per slave in flight per adjacent barrier pair
/// (`2 × (n − 1)`); writes are fire-and-forget and keep their total.
fn message_census(dec: &Decomp<'_>, params: &SimParams) -> Census {
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut total = 0u64;
    let mut concurrent = 0u64;
    for (ti, epochs) in dec.segs.iter().enumerate() {
        let mut cross_reads = 0u64;
        for op in epochs.iter().copied().flatten() {
            match op {
                Op::RemoteRead { owner, .. } => {
                    reads += 1;
                    if owner.index() != ti {
                        cross_reads += 1;
                    }
                }
                // A write to self stays on-proc, but every write counts
                // as cross-processor: over-counting keeps `fmax` a
                // ceiling and the committed analyze goldens unchanged.
                Op::RemoteWrite { .. } => writes += 1,
                _ => {}
            }
        }
        total += 2 * cross_reads;
        concurrent += cross_reads.min(1);
    }
    total += writes;
    concurrent += writes;
    if params.barrier.by_msgs
        && matches!(params.barrier.algorithm, BarrierAlgorithm::Linear)
        && dec.n_threads > 1
        && !dec.barriers.is_empty()
    {
        total += dec.barriers.len() as u64 * 2 * (dec.n_threads as u64 - 1);
        concurrent += 2 * (dec.n_threads as u64 - 1);
    }
    Census {
        reads,
        writes,
        messages: total,
        concurrent: concurrent.min(total),
    }
}

fn contention_ceiling(params: &SimParams, n_procs: usize, concurrent: u64) -> f64 {
    if !params.network.contention.enabled || concurrent <= 1 {
        return 1.0;
    }
    1.0 + params.network.contention.alpha * (concurrent - 1) as f64
        / params.network.topology.capacity(n_procs)
}

/// Global service slack: the summed cost of every service action in the
/// run.  Each service interval occupies one thread for one bounded span
/// and can intersect a single causal chain at most once, so charging
/// the full sum once bounds all backlog-induced stalls.
fn global_slack(census: &Census, costs: &Costs<'_>) -> DurationNs {
    (costs.svc() + costs.send_oh()) * census.reads + costs.svc() * census.writes
}

// ---------------------------------------------------------------------
// Lower bound (span)
// ---------------------------------------------------------------------

/// Per-thread end-time floors via the contention-free critical path.
fn lower_chain(dec: &Decomp<'_>, costs: &Costs<'_>) -> Vec<TimeNs> {
    let n = dec.n_threads;
    let bp = &costs.p.barrier;
    let mut lam = vec![TimeNs::ZERO; n];
    let n_epochs = dec.barriers.len() + 1;
    for e in 0..n_epochs {
        // Serial floor of each thread's epoch-e segment.
        let mut done = vec![TimeNs::ZERO; n];
        for t in 0..n {
            let serial = costs.serial(dec.segs[t][e], |owner, bytes| {
                costs.read_floor(ThreadId(t as u32), owner, bytes)
            });
            done[t] = lam[t] + serial;
        }
        if e == dec.barriers.len() {
            return done;
        }
        // Entry-done floors, then the coordinator's resume floors.
        let ed: Vec<TimeNs> = done.iter().map(|&d| d + bp.entry).collect();
        let last_ed = ed.iter().copied().max().unwrap_or(TimeNs::ZERO);
        if n == 1 {
            let gap = match bp.algorithm {
                BarrierAlgorithm::Hardware => bp.hardware_latency,
                _ => bp.model,
            };
            lam[0] = ed[0] + gap + bp.exit;
            continue;
        }
        match bp.algorithm {
            BarrierAlgorithm::Linear if bp.by_msgs => {
                // Arrive floors: the master's own arrival is its entry
                // done; each slave's travels one send + one wire.
                let mut last_arrival = ed[0];
                for (i, &e_i) in ed.iter().enumerate().skip(1) {
                    let arr = e_i
                        + costs.send_oh()
                        + costs.wire(ThreadId(i as u32), ThreadId(0), bp.msg_size, 1.0);
                    last_arrival = last_arrival.max(arr);
                }
                let lower = last_arrival.max(ed[0]) + bp.model;
                // Releases depart serially in thread order; the master
                // resumes after the last departs.
                for (i, l) in lam.iter_mut().enumerate().skip(1) {
                    let arr = lower
                        + costs.send_oh() * i as u64
                        + costs.wire(ThreadId(0), ThreadId(i as u32), bp.msg_size, 1.0)
                        + costs.p.comm.receive;
                    *l = arr.max(ed[i]) + bp.exit;
                }
                lam[0] = lower + costs.send_oh() * (n as u64 - 1) + bp.exit;
            }
            BarrierAlgorithm::Linear => {
                // Flag mode: no messages; everyone resumes at or after
                // the flag-lowering floor.
                let lower = last_ed + bp.model;
                for l in lam.iter_mut() {
                    *l = lower + bp.exit;
                }
            }
            BarrierAlgorithm::Tree { arity } => {
                let per_level = if bp.by_msgs {
                    costs.send_oh() + costs.p.comm.byte_transfer * u64::from(bp.msg_size)
                } else {
                    bp.check
                };
                let depth = tree::levels(n, arity);
                let sweep = per_level * u64::from(depth);
                let lower = (last_ed + sweep).max(ed[0]) + bp.model;
                for l in lam.iter_mut() {
                    *l = lower + sweep + bp.exit;
                }
            }
            BarrierAlgorithm::Hardware => {
                let release = last_ed + bp.hardware_latency;
                for l in lam.iter_mut() {
                    *l = release + bp.exit;
                }
            }
        }
    }
    unreachable!("loop returns on the tail epoch")
}

// ---------------------------------------------------------------------
// Upper bound
// ---------------------------------------------------------------------

/// Worst-case barrier completion measured from the last entry-done,
/// plus the release *spread* (latest minus earliest possible resume)
/// the next epoch's direct-wait term must absorb.
fn barrier_ceiling(costs: &Costs<'_>, n: usize) -> (DurationNs, DurationNs) {
    let bp = &costs.p.barrier;
    if n == 1 {
        let completion = match bp.algorithm {
            BarrierAlgorithm::Hardware => bp.hardware_latency + bp.exit,
            BarrierAlgorithm::Tree { .. } => bp.model + bp.exit_check + bp.exit,
            BarrierAlgorithm::Linear => bp.model + bp.exit,
        };
        return (completion, DurationNs::ZERO);
    }
    match bp.algorithm {
        BarrierAlgorithm::Linear if bp.by_msgs => {
            let mut wire_arr = DurationNs::ZERO;
            let mut wire_rel = DurationNs::ZERO;
            for i in 1..n {
                wire_arr = wire_arr.max(costs.wire(
                    ThreadId(i as u32),
                    ThreadId(0),
                    bp.msg_size,
                    costs.fmax,
                ));
                wire_rel = wire_rel.max(costs.wire(
                    ThreadId(0),
                    ThreadId(i as u32),
                    bp.msg_size,
                    costs.fmax,
                ));
            }
            let tail =
                costs.send_oh() * (n as u64 - 1) + wire_rel + costs.p.comm.receive + bp.exit_check;
            (
                costs.send_oh() + wire_arr + bp.check + bp.model + tail + bp.exit,
                tail,
            )
        }
        BarrierAlgorithm::Linear => (bp.check + bp.model + bp.exit_check + bp.exit, bp.exit_check),
        BarrierAlgorithm::Tree { arity } => {
            let per_level = if bp.by_msgs {
                costs.send_oh() + costs.p.comm.byte_transfer * u64::from(bp.msg_size)
            } else {
                bp.check
            };
            let sweep = per_level * u64::from(tree::levels(n, arity));
            (
                sweep + bp.check + bp.model + sweep + bp.exit_check + bp.exit,
                bp.exit_check,
            )
        }
        BarrierAlgorithm::Hardware => (bp.hardware_latency + bp.exit, DurationNs::ZERO),
    }
}

/// Scalar epoch chain: `(per-thread ceilings, exec ceiling)`, with the
/// global service slack charged once.
fn upper_chain(dec: &Decomp<'_>, costs: &Costs<'_>, slack: DurationNs) -> (Vec<TimeNs>, TimeNs) {
    let n = dec.n_threads;
    let bp = &costs.p.barrier;
    let (completion, barrier_spread) = barrier_ceiling(costs, n);
    let mut u = TimeNs::ZERO;
    let mut spread_prev = DurationNs::ZERO;
    let n_epochs = dec.barriers.len() + 1;
    for e in 0..n_epochs {
        // Largest single scaled compute atom in the epoch: the longest
        // an incoming request can wait on an owner's current segment
        // (NoInterrupt runs it out; Poll ticks within it).
        let mut segmax = DurationNs::ZERO;
        for epochs in &dec.segs {
            for op in epochs[e] {
                if let Op::Compute(d) = *op {
                    segmax = segmax.max(d.scale(costs.p.mips_ratio));
                }
            }
        }
        // Worst direct wait: owner mid-atom, owner's barrier-entry
        // bump, owner not yet resumed from the previous barrier, an
        // issue in progress, or a reply receive in progress.
        let wait_direct = segmax
            .max(bp.entry)
            .max(spread_prev)
            .max(costs.send_oh())
            .max(costs.p.comm.receive);
        let mut smax = DurationNs::ZERO;
        let mut serial = vec![DurationNs::ZERO; n];
        for (t, s) in serial.iter_mut().enumerate() {
            *s = costs.serial(dec.segs[t][e], |owner, bytes| {
                costs.read_ceiling(ThreadId(t as u32), owner, bytes, wait_direct)
            });
            smax = smax.max(*s);
        }
        if e == dec.barriers.len() {
            let per_thread = serial.iter().map(|&s| u + s + slack).collect();
            return (per_thread, u + smax + slack);
        }
        u = u + smax + bp.entry + completion;
        spread_prev = barrier_spread;
    }
    unreachable!("loop returns on the tail epoch")
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Statically analyzes `program` under `params`: per-epoch work and
/// imbalance, the contention-free critical path (span), and closed-form
/// lower/upper execution-time bounds.  No simulation is run.
pub fn analyze(program: &CompiledProgram, params: &SimParams) -> Result<Analysis, Unsupported> {
    let dec = decompose(program, params)?;
    if dec.n_threads == 0 {
        return Ok(Analysis {
            n_threads: 0,
            n_procs: dec.n_procs,
            n_barriers: 0,
            total_work: DurationNs::ZERO,
            span: TimeNs::ZERO,
            upper: TimeNs::ZERO,
            thread_lower: Vec::new(),
            thread_upper: Vec::new(),
            epochs: Vec::new(),
            fmax: 1.0,
            slack: DurationNs::ZERO,
            messages: 0,
        });
    }
    let census = message_census(&dec, params);
    let fmax = contention_ceiling(params, dec.n_procs, census.concurrent);
    let floor = Costs {
        p: params,
        n_procs: dec.n_procs,
        fmax: 1.0,
    };
    let ceil = Costs {
        p: params,
        n_procs: dec.n_procs,
        fmax,
    };
    let thread_lower = lower_chain(&dec, &floor);
    let slack = global_slack(&census, &ceil);
    let (thread_upper, upper) = upper_chain(&dec, &ceil, slack);
    let span = thread_lower.iter().copied().max().unwrap_or(TimeNs::ZERO);

    let mut epochs = Vec::with_capacity(dec.barriers.len() + 1);
    let mut total_work = DurationNs::ZERO;
    for e in 0..=dec.barriers.len() {
        let mut work = DurationNs::ZERO;
        let mut busiest = DurationNs::ZERO;
        let mut reads = 0u64;
        let mut writes = 0u64;
        for epochs_t in &dec.segs {
            let mut mine = DurationNs::ZERO;
            for op in epochs_t[e] {
                match *op {
                    Op::Compute(d) => mine += d.scale(params.mips_ratio),
                    Op::RemoteRead { .. } => reads += 1,
                    Op::RemoteWrite { .. } => writes += 1,
                    Op::Barrier(_) | Op::End => {}
                }
            }
            busiest = busiest.max(mine);
            work += mine;
        }
        total_work += work;
        let mean = work.as_ns() as f64 / dec.n_threads as f64;
        epochs.push(EpochRow {
            index: e,
            barrier: dec.barriers.get(e).copied(),
            work,
            busiest,
            imbalance: if mean > 0.0 {
                busiest.as_ns() as f64 / mean
            } else {
                1.0
            },
            reads,
            writes,
        });
    }
    Ok(Analysis {
        n_threads: dec.n_threads,
        n_procs: dec.n_procs,
        n_barriers: dec.barriers.len(),
        total_work,
        span,
        upper,
        thread_lower,
        thread_upper,
        epochs,
        fmax,
        slack,
        messages: census.messages,
    })
}

/// The envelope a simulation of `program` under `params` must land in,
/// or `None` when the combination is outside the analyzer's coverage.
///
/// Under [`SimStrategy::Representative`] with an applicable
/// [`ReprPlan`], results are weighted compositions `Σ w_c · (mini_c −
/// base)⁺` of representative mini-runs against a warmup baseline; the
/// envelope composes the per-program bounds the same way (mini floors
/// against the baseline ceiling and vice versa), because composed
/// results are *approximations* and may legitimately leave the exact
/// envelope.  Every other strategy/fallback gets the exact envelope.
pub fn envelope(program: &CompiledProgram, params: &SimParams) -> Option<Envelope> {
    if let SimStrategy::Representative {
        max_clusters,
        tolerance,
    } = params.strategy
    {
        if let Some(plan) = ReprPlan::from_program(program, max_clusters, tolerance) {
            return repr_envelope(&plan, params);
        }
    }
    let a = analyze(program, params).ok()?;
    Some(Envelope {
        strategy: "exact",
        exec_lower: a.span,
        exec_upper: a.upper,
        thread_lower: a.thread_lower,
        thread_upper: a.thread_upper,
    })
}

fn repr_envelope(plan: &ReprPlan, params: &SimParams) -> Option<Envelope> {
    let base = analyze(plan.baseline(), params).ok()?;
    let n = base.n_threads;
    let mut lower = vec![0u64; n];
    let mut upper = vec![0u64; n];
    for cluster in plan.clusters() {
        let mini = analyze(cluster.program(), params).ok()?;
        if mini.n_threads != n {
            return None;
        }
        for t in 0..n {
            // Composition is per-thread saturating deltas scaled by the
            // cluster weight; bound each delta by crossing the mini and
            // baseline bounds.
            let floor = mini.thread_lower[t]
                .as_ns()
                .saturating_sub(base.thread_upper[t].as_ns());
            let ceil = mini.thread_upper[t]
                .as_ns()
                .saturating_sub(base.thread_lower[t].as_ns());
            lower[t] = lower[t].saturating_add(floor.saturating_mul(cluster.weight));
            upper[t] = upper[t].saturating_add(ceil.saturating_mul(cluster.weight));
        }
    }
    let thread_lower: Vec<TimeNs> = lower.into_iter().map(TimeNs).collect();
    let thread_upper: Vec<TimeNs> = upper.into_iter().map(TimeNs).collect();
    Some(Envelope {
        strategy: "representative",
        exec_lower: thread_lower.iter().copied().max().unwrap_or(TimeNs::ZERO),
        exec_upper: thread_upper.iter().copied().max().unwrap_or(TimeNs::ZERO),
        thread_lower,
        thread_upper,
    })
}

/// Checks one simulation result against its static envelope and the
/// MipsRatio-monotonicity invariant.  `Ok(())` when the result is
/// consistent *or* the combination is outside analyzer coverage (no
/// envelope means nothing to violate).
pub fn verify_prediction(
    program: &CompiledProgram,
    params: &SimParams,
    pred: &Prediction,
) -> Result<(), String> {
    let Some(env) = envelope(program, params) else {
        return Ok(());
    };
    let exec = pred.exec_time();
    if exec < env.exec_lower || exec > env.exec_upper {
        return Err(format!(
            "exec time {} ns escapes its static {} envelope [{}, {}] ns",
            exec.as_ns(),
            env.strategy,
            env.exec_lower.as_ns(),
            env.exec_upper.as_ns()
        ));
    }
    if pred.per_thread.len() == env.thread_lower.len() {
        for (t, b) in pred.per_thread.iter().enumerate() {
            if b.end_time < env.thread_lower[t] || b.end_time > env.thread_upper[t] {
                return Err(format!(
                    "thread {t} end time {} ns escapes its static {} envelope [{}, {}] ns",
                    b.end_time.as_ns(),
                    env.strategy,
                    env.thread_lower[t].as_ns(),
                    env.thread_upper[t].as_ns()
                ));
            }
        }
    }
    // Monotonicity tripwire: both bounds must be nondecreasing in
    // MipsRatio (slower target processors cannot tighten the envelope).
    let mut probes = Vec::new();
    for factor in [0.5, 2.0] {
        let mut p = params.clone();
        p.mips_ratio = params.mips_ratio * factor;
        if let Some(e) = envelope(program, &p) {
            probes.push((factor, e));
        }
    }
    for (factor, e) in probes {
        let (lo_ok, hi_ok) = if factor < 1.0 {
            (
                e.exec_lower <= env.exec_lower,
                e.exec_upper <= env.exec_upper,
            )
        } else {
            (
                e.exec_lower >= env.exec_lower,
                e.exec_upper >= env.exec_upper,
            )
        };
        if !lo_ok || !hi_ok {
            return Err(format!(
                "bounds are not monotone in MipsRatio: ×{factor} gives [{}, {}] ns \
                 against [{}, {}] ns",
                e.exec_lower.as_ns(),
                e.exec_upper.as_ns(),
                env.exec_lower.as_ns(),
                env.exec_upper.as_ns()
            ));
        }
    }
    Ok(())
}
