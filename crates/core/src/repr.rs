//! Representative-region simulation: the [`SimStrategy::Representative`]
//! execution path.
//!
//! Iterative programs (Mgrid, Poisson, Grid) repeat near-identical
//! barrier epochs hundreds of times; replaying every one is the
//! dominant cost of a paper-scale sweep.  This module applies
//! SimPoint-style region selection to barrier epochs (the slices
//! [`CompiledThread::epochs`] yields, the one epoch definition it
//! shares with the static bounds analyzer): fingerprint each epoch from
//! the compiled op scripts, cluster the fingerprints deterministically,
//! simulate **one representative epoch per cluster** through the
//! unmodified exact engine, and compose full-run metrics from the
//! cluster weights.
//!
//! The fingerprint and the clustering live only here: `extrap stats
//! --phases` prints the plan this module builds
//! ([`render_stats_report`]), so the regions a user inspects are the
//! regions `--strategy repr` simulates.
//!
//! # Fallback contract
//!
//! [`ReprPlan::from_program`] returns `None` — and the engine dispatch
//! falls back to the exact path, byte-identically — when the program
//! has fewer than [`MIN_EPOCHS`] epochs, when clustering would need
//! more than `max_clusters` clusters, or when the achieved repetition
//! is below [`MIN_REPETITION`] (simulating representatives would not
//! pay for itself).
//!
//! # What composition can and cannot preserve
//!
//! Weighted composition is exact for additive per-thread quantities
//! (compute, waits, remote counts) and for network volume, under the
//! assumption that same-cluster epochs simulate to the same cost.  It
//! cannot model cross-epoch network state; the analytic contention
//! model is memoryless per epoch, so this is lossless here, but the
//! refsim link-level path keeps state and therefore always runs exact.
//!
//! # Warmup: the leading barrier
//!
//! In the full run an epoch does not start from aligned threads — it
//! starts from the *staggered release* of the previous barrier, and at
//! high processor counts that stagger is a significant fraction of a
//! short epoch.  Each mini-program therefore opens with a warmup
//! barrier (the SimPoint warmup analog): all threads arrive aligned at
//! `t = 0`, the barrier completes, and its release reproduces the
//! steady-state stagger before the epoch body runs.  The cost of the
//! warmup itself is measured once by a barrier-only baseline program
//! and subtracted from every representative's metrics, so each cluster
//! contributes `weight x (representative - baseline)`.  The engine is
//! deterministic and the mini-run's prefix is identical to the
//! baseline run, so the subtraction never underflows.

use crate::engine::{self, ExtrapError, SimScratch};
use crate::metrics::Prediction;
use crate::network::state::NetworkStats;
use crate::params::{RecordMode, SimParams, SimStrategy};
use crate::processor::{CompiledProgram, CompiledThread, Op};
use extrap_time::{BarrierId, DurationNs, TimeNs};
use extrap_trace::phases::{self, splitmix64, PhaseProfile};
use extrap_trace::TraceSet;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Programs with fewer epochs than this simulate exactly — there is
/// nothing to amortize.
pub const MIN_EPOCHS: usize = 4;

/// Minimum epochs-per-cluster ratio for a plan to be worthwhile;
/// below it the trace "repeats" too weakly and the run falls back.
pub const MIN_REPETITION: f64 = 2.0;

/// One epoch cluster: its representative's mini-program and how many
/// epochs of the full run it stands for.
#[derive(Clone, Debug)]
pub struct ReprCluster {
    /// Index of the representative epoch in the full program.
    pub rep_epoch: usize,
    /// Number of epochs this cluster covers.
    pub weight: u64,
    /// The representative epoch's fingerprint (what `extrap stats
    /// --phases` prints for the cluster).
    signature: EpochSignature,
    /// The representative epoch as a standalone compiled program.
    program: CompiledProgram,
}

impl ReprCluster {
    /// The representative epoch's standalone program.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }
}

/// A representative-region simulation plan: the clustering of a
/// program's barrier epochs plus one sliced mini-program per cluster.
///
/// A plan depends only on the compiled program and the strategy knobs —
/// not on machine parameters — so sweeps memoize it per trace (see
/// [`CachedTrace::repr_plan`](crate::sweep::CachedTrace::repr_plan))
/// and share it across every parameter set.
#[derive(Clone, Debug)]
pub struct ReprPlan {
    n_epochs: usize,
    clusters: Vec<ReprCluster>,
    /// Barrier-only program measuring the warmup barrier's cost (see
    /// the module docs); subtracted from every representative run.
    baseline: CompiledProgram,
}

impl ReprPlan {
    /// Fingerprints and clusters `program`'s barrier epochs and slices
    /// one mini-program per cluster.  `None` means "no exploitable
    /// repetition — simulate exactly" (see the module docs for the
    /// precise conditions).
    pub fn from_program(
        program: &CompiledProgram,
        max_clusters: u32,
        tolerance: f64,
    ) -> Option<ReprPlan> {
        if program.is_empty() {
            return None;
        }
        let epochs: Vec<Vec<&[Op]>> = program
            .threads()
            .iter()
            .map(|t| t.epochs().collect())
            .collect();
        let n_epochs = epochs[0].len();
        if n_epochs < MIN_EPOCHS || epochs.iter().any(|e| e.len() != n_epochs) {
            return None;
        }

        let mut sigs = vec![EpochSignature::zero(EpochTerminator::Barrier); n_epochs];
        if let Some(last) = sigs.last_mut() {
            last.terminator = EpochTerminator::End;
        }
        for thread in &epochs {
            for (sig, ops) in sigs.iter_mut().zip(thread) {
                accumulate_signature(sig, ops);
            }
        }

        let epoch_clusters = cluster_epochs(&sigs, max_clusters as usize, tolerance)?;
        if (n_epochs as f64 / epoch_clusters.len() as f64) < MIN_REPETITION {
            return None;
        }

        let clusters = epoch_clusters
            .iter()
            .map(|c| ReprCluster {
                rep_epoch: c.rep,
                weight: c.weight,
                signature: sigs[c.rep],
                program: slice_epoch(program, &epochs, c.rep),
            })
            .collect();
        let baseline = CompiledProgram::from_threads(
            program
                .threads()
                .iter()
                .map(|t| CompiledThread::new(t.thread, vec![Op::Barrier(BarrierId(0))]))
                .collect(),
        );
        Some(ReprPlan {
            n_epochs,
            clusters,
            baseline,
        })
    }

    /// Total barrier epochs of the underlying program.
    pub fn n_epochs(&self) -> usize {
        self.n_epochs
    }

    /// The clusters, in first-seen epoch order.
    pub fn clusters(&self) -> &[ReprCluster] {
        &self.clusters
    }

    /// The warmup-barrier baseline program subtracted from every
    /// representative run (see the module docs).  Exposed so static
    /// bound analysis can compose a matching envelope.
    pub fn baseline(&self) -> &CompiledProgram {
        &self.baseline
    }

    /// Epochs per simulated representative — the theoretical speedup
    /// bound of this plan.
    pub fn repetition(&self) -> f64 {
        self.n_epochs as f64 / self.clusters.len().max(1) as f64
    }

    /// Simulates each cluster's representative epoch through the exact
    /// engine and composes the full-run prediction from cluster
    /// weights.
    ///
    /// Composition rules: additive per-thread quantities (compute,
    /// service, waits, remote counts, end time) and network volume
    /// contribute `weight x (representative - baseline)` — the warmup
    /// barrier's cost never leaks into the total; `max_in_flight` takes
    /// the max across representatives; `barriers` is the full program's
    /// count; `events_dispatched` stays the *actual* (unweighted) event
    /// count across the baseline and representative runs, so the metric
    /// honestly reports what the representative simulation cost.  The
    /// predicted trace is always empty — representative simulation is a
    /// metrics-only strategy.  The engine's strategy dispatch calls this
    /// after validating `params`, and checks the composed result.
    pub(crate) fn run(
        &self,
        params: &SimParams,
        scratch: &mut SimScratch,
    ) -> Result<Prediction, ExtrapError> {
        // The mini-programs run the plain exact path: no recursion into
        // the strategy dispatch, no predicted-trace materialization.
        let mut run_params = params.clone();
        run_params.strategy = SimStrategy::Exact;
        run_params.record_mode = RecordMode::MetricsOnly;

        let base = engine::exact_compiled_scratch(&self.baseline, &run_params, scratch)?;
        let mut out = zeroed(&base);
        let mut events = base.events_dispatched;
        for cluster in &self.clusters {
            let pred = engine::exact_compiled_scratch(&cluster.program, &run_params, scratch)?;
            events += pred.events_dispatched;
            add_scaled_delta(&mut out, &pred, &base, cluster.weight);
        }
        out.barriers = self.n_epochs.saturating_sub(1);
        out.events_dispatched = events;
        out.predicted = TraceSet { threads: vec![] };
        Ok(out)
    }
}

/// Folds an op slice into an epoch signature.
fn accumulate_signature(sig: &mut EpochSignature, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Compute(d) => sig.compute += *d,
            Op::RemoteRead {
                declared_bytes,
                actual_bytes,
                ..
            } => {
                sig.remote_reads += 1;
                sig.declared_bytes += u64::from(*declared_bytes);
                sig.actual_bytes += u64::from(*actual_bytes);
            }
            Op::RemoteWrite {
                declared_bytes,
                actual_bytes,
                ..
            } => {
                sig.remote_writes += 1;
                sig.declared_bytes += u64::from(*declared_bytes);
                sig.actual_bytes += u64::from(*actual_bytes);
            }
            Op::Barrier(_) | Op::End => {}
        }
    }
}

/// How a barrier epoch ends: at a barrier, or at program end (the final
/// epoch).  Epochs with different terminators never cluster together —
/// the tail epoch has no barrier cost, so merging it with an interior
/// epoch would mis-compose barrier statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EpochTerminator {
    Barrier,
    End,
}

/// The workload fingerprint of one barrier epoch, aggregated across
/// threads.  Two epochs with near-identical signatures are assumed to
/// simulate to near-identical costs — the SimPoint hypothesis applied
/// to barrier-delimited phases instead of instruction intervals.
/// Everything here is read off the op scripts; simulation outputs such
/// as barrier wait are not features, since identical workloads produce
/// identical waits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EpochSignature {
    compute: DurationNs,
    remote_reads: u64,
    remote_writes: u64,
    /// Declared (compile-time) bytes of all remote accesses.
    declared_bytes: u64,
    /// Actual (runtime) bytes of all remote accesses.
    actual_bytes: u64,
    terminator: EpochTerminator,
}

impl EpochSignature {
    fn zero(terminator: EpochTerminator) -> EpochSignature {
        EpochSignature {
            compute: DurationNs::ZERO,
            remote_reads: 0,
            remote_writes: 0,
            declared_bytes: 0,
            actual_bytes: 0,
            terminator,
        }
    }

    /// The signature's numeric features in a fixed order (the distance
    /// metric iterates over this).
    fn features(&self) -> [f64; 5] {
        [
            self.compute.as_ns() as f64,
            self.remote_reads as f64,
            self.remote_writes as f64,
            self.declared_bytes as f64,
            self.actual_bytes as f64,
        ]
    }
}

/// Mean pairwise *relative* difference over features — `|a-b| /
/// max(a,b)` per feature, averaged over the features where either side
/// is nonzero — and infinite when the terminators differ (those epochs
/// must never merge).
///
/// Relative (not max-normalized) distance is what bounds composition
/// error: every member of a cluster matches its representative to
/// within ~tolerance *in proportion*, so scaling the representative's
/// simulated cost by the member count misestimates each epoch by at
/// most ~tolerance.  Max-normalization would instead call two small
/// epochs "close" even when one does 4x the other's work.
fn distance(a: &EpochSignature, b: &EpochSignature) -> f64 {
    if a.terminator != b.terminator {
        return f64::INFINITY;
    }
    let mut sum = 0.0;
    let mut n = 0u32;
    for (fa, fb) in a.features().into_iter().zip(b.features()) {
        let denom = fa.max(fb);
        if denom > 0.0 {
            sum += (fa - fb).abs() / denom;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

/// One cluster of near-identical epochs: its representative (medoid)
/// epoch and how many epochs it covers.
struct EpochCluster {
    rep: usize,
    weight: u64,
}

/// Greedy-threshold clustering of epoch signatures, SimPoint style.
///
/// Each epoch joins the first existing cluster whose representative is
/// within `tolerance` (mean relative distance), else founds a new
/// cluster.  A medoid-refinement pass then re-picks each cluster's
/// representative as the member minimizing total distance to a
/// SplitMix64-sampled subset (capped at 64 members) of its cluster.
/// The whole procedure is a pure function of the signature vector —
/// byte-stable across worker counts, platforms, and runs.
///
/// Returns the clusters in first-seen epoch order, or `None` when more
/// than `max_clusters` clusters would be needed (no exploitable
/// repetition at this tolerance).
fn cluster_epochs(
    sigs: &[EpochSignature],
    max_clusters: usize,
    tolerance: f64,
) -> Option<Vec<EpochCluster>> {
    if sigs.is_empty() || max_clusters == 0 {
        return None;
    }
    let mut clusters: Vec<EpochCluster> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (e, sig) in sigs.iter().enumerate() {
        let found = clusters
            .iter()
            .position(|c| distance(sig, &sigs[c.rep]) <= tolerance);
        match found {
            Some(c) => {
                clusters[c].weight += 1;
                members[c].push(e);
            }
            None => {
                if clusters.len() == max_clusters {
                    return None;
                }
                clusters.push(EpochCluster { rep: e, weight: 1 });
                members.push(vec![e]);
            }
        }
    }

    // Medoid refinement: the first-fit founder may sit at the edge of
    // its cluster; re-pick the member closest to everyone else (sampled
    // when the cluster is large, with a seed derived from the cluster
    // index so the choice is reproducible).
    const SAMPLE_CAP: usize = 64;
    for (c, cluster) in clusters.iter_mut().enumerate() {
        let m = &members[c];
        if m.len() <= 2 {
            continue;
        }
        let sample: Vec<usize> = if m.len() <= SAMPLE_CAP {
            m.clone()
        } else {
            let mut rng = 0x5EED_0000_0000_0000 ^ c as u64;
            (0..SAMPLE_CAP)
                .map(|_| m[(splitmix64(&mut rng) % m.len() as u64) as usize])
                .collect()
        };
        let best = m
            .iter()
            .map(|&cand| {
                let cost: f64 = sample
                    .iter()
                    .map(|&o| distance(&sigs[cand], &sigs[o]))
                    .sum();
                (cand, cost)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(cand, _)| cand);
        if let Some(rep) = best {
            cluster.rep = rep;
        }
    }

    Some(clusters)
}

/// Renders the `extrap stats` report: the marker-phase table of
/// `profiles`, plus — with `epochs = Some((program, max_clusters,
/// tolerance))` — the barrier-epoch plan that `--strategy repr:K:TOL`
/// builds for `program` through the same [`ReprPlan::from_program`] call the
/// engine makes.  The epoch section therefore announces the fallback
/// exactly when the strategy falls back, and otherwise lists the
/// plan's own clusters and representatives.
///
/// This is the *single* renderer behind both the local `extrap stats`
/// command and the served `Phases` request — one string builder, so
/// remote output is byte-identical to local output by construction.
pub fn render_stats_report(
    profiles: &BTreeMap<u32, PhaseProfile>,
    epochs: Option<(&CompiledProgram, u32, f64)>,
) -> String {
    let mut out = String::from("-- marker phases --\n");
    out.push_str(&phases::render(profiles));
    let Some((program, max_clusters, tolerance)) = epochs else {
        return out;
    };
    out.push_str("-- barrier epochs --\n");
    let Some(plan) = ReprPlan::from_program(program, max_clusters, tolerance) else {
        let n_epochs = program.threads().first().map_or(0, |t| t.epochs().count());
        let _ = writeln!(
            out,
            "{n_epochs} epochs; no plan with at least {MIN_EPOCHS} epochs and \
             {MIN_REPETITION:.1}x repetition within {max_clusters} clusters at tolerance \
             {tolerance} — `--strategy repr` falls back to exact simulation"
        );
        return out;
    };
    let _ = writeln!(
        out,
        "{} epochs in {} clusters (repetition {:.1}x)",
        plan.n_epochs(),
        plan.clusters().len(),
        plan.repetition()
    );
    let _ = writeln!(
        out,
        "{:>7} {:>7} {:>7} {:>12} {:>8} {:>8} {:>12} {:>5}",
        "cluster", "weight", "rep", "compute[ms]", "reads", "writes", "bytes", "end"
    );
    for (c, cluster) in plan.clusters().iter().enumerate() {
        let sig = &cluster.signature;
        let _ = writeln!(
            out,
            "{:>7} {:>7} {:>7} {:>12.3} {:>8} {:>8} {:>12} {:>5}",
            c,
            cluster.weight,
            cluster.rep_epoch,
            sig.compute.as_us() / 1_000.0,
            sig.remote_reads,
            sig.remote_writes,
            sig.actual_bytes,
            match sig.terminator {
                EpochTerminator::Barrier => "bar",
                EpochTerminator::End => "eof",
            }
        );
    }
    out
}

/// Extracts epoch `e` of every thread as a standalone program: a
/// leading warmup barrier (`BarrierId(0)`, reproducing the staggered
/// start the epoch sees in the full run), the epoch's ops with its own
/// barrier remapped to `BarrierId(1)` (the coordinator sizes its state
/// by barrier index), and the `Op::End` that sealing leaves last.
fn slice_epoch(program: &CompiledProgram, epochs: &[Vec<&[Op]>], e: usize) -> CompiledProgram {
    let threads = program
        .threads()
        .iter()
        .zip(epochs)
        .map(|(thread, thread_epochs)| {
            let mut ops = vec![Op::Barrier(BarrierId(0))];
            ops.extend(thread_epochs[e].iter().map(|op| match op {
                Op::Barrier(_) => Op::Barrier(BarrierId(1)),
                other => *other,
            }));
            CompiledThread::new(thread.thread, ops)
        })
        .collect();
    CompiledProgram::from_threads(threads)
}

/// `pred` with every composable metric cleared — the accumulator the
/// cluster deltas add into.  Thread identities, `n_threads`/`n_procs`
/// shape, and non-composable fields come from the baseline run.
fn zeroed(pred: &Prediction) -> Prediction {
    let mut out = pred.clone();
    for t in &mut out.per_thread {
        t.compute = DurationNs::ZERO;
        t.service = DurationNs::ZERO;
        t.send_overhead = DurationNs::ZERO;
        t.remote_wait = DurationNs::ZERO;
        t.barrier_wait = DurationNs::ZERO;
        t.sched_wait = DurationNs::ZERO;
        t.end_time = TimeNs::ZERO;
        t.remote_reads = 0;
        t.remote_writes = 0;
    }
    out.network = NetworkStats::default();
    out.barriers = 0;
    out.events_dispatched = 0;
    out.predicted = TraceSet { threads: vec![] };
    out
}

/// Adds `w x (pred - base)` into the running composition.  `base` is
/// the warmup-barrier baseline; its run is a prefix of `pred`'s (same
/// deterministic engine, identical opening ops), so each subtraction is
/// non-negative — `saturating_sub` merely documents that a zero floor
/// is the safe failure mode.
fn add_scaled_delta(acc: &mut Prediction, pred: &Prediction, base: &Prediction, w: u64) {
    for (a, (t, b)) in acc
        .per_thread
        .iter_mut()
        .zip(pred.per_thread.iter().zip(&base.per_thread))
    {
        a.compute += t.compute.saturating_sub(b.compute) * w;
        a.service += t.service.saturating_sub(b.service) * w;
        a.send_overhead += t.send_overhead.saturating_sub(b.send_overhead) * w;
        a.remote_wait += t.remote_wait.saturating_sub(b.remote_wait) * w;
        a.barrier_wait += t.barrier_wait.saturating_sub(b.barrier_wait) * w;
        a.sched_wait += t.sched_wait.saturating_sub(b.sched_wait) * w;
        a.end_time =
            TimeNs(a.end_time.as_ns() + t.end_time.as_ns().saturating_sub(b.end_time.as_ns()) * w);
        a.remote_reads += t.remote_reads.saturating_sub(b.remote_reads) * w;
        a.remote_writes += t.remote_writes.saturating_sub(b.remote_writes) * w;
    }
    acc.network.messages += pred.network.messages.saturating_sub(base.network.messages) * w;
    acc.network.bytes += pred.network.bytes.saturating_sub(base.network.bytes) * w;
    acc.network.max_in_flight = acc.network.max_in_flight.max(pred.network.max_in_flight);
    acc.network.factor_sum +=
        (pred.network.factor_sum - base.network.factor_sum).max(0.0) * w as f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use extrap_trace::PhaseProgram;

    fn periodic(n_threads: usize, epochs: usize, pattern: &[u64]) -> CompiledProgram {
        let mut p = PhaseProgram::new(n_threads);
        for e in 0..epochs {
            p.push_uniform_phase(DurationNs(pattern[e % pattern.len()]));
        }
        let ts = extrap_trace::translate(&p.record(), Default::default()).unwrap();
        CompiledProgram::compile(&ts).unwrap()
    }

    #[test]
    fn plan_clusters_periodic_program() {
        let program = periodic(2, 20, &[1_000, 5_000]);
        let plan = ReprPlan::from_program(&program, 16, 0.05).unwrap();
        assert_eq!(plan.n_epochs(), 21);
        // Two alternating interior clusters plus the (empty) tail epoch.
        assert_eq!(plan.clusters().len(), 3);
        let total: u64 = plan.clusters().iter().map(|c| c.weight).sum();
        assert_eq!(total, 21);
        assert!(plan.repetition() > 5.0);
    }

    #[test]
    fn terminator_mismatch_never_merges() {
        // All-identical compute: interior epochs form one cluster, the
        // tail epoch (program end, no barrier) must still stand alone.
        let plan = ReprPlan::from_program(&periodic(2, 10, &[250]), 16, 0.05).unwrap();
        let weights: Vec<u64> = plan.clusters().iter().map(|c| c.weight).collect();
        assert_eq!(weights, [10, 1]);
        assert_eq!(plan.clusters()[1].rep_epoch, 10);
    }

    #[test]
    fn plans_are_deterministic() {
        let program = periodic(4, 40, &[100, 900, 100, 500]);
        let a = ReprPlan::from_program(&program, 16, 0.05).unwrap();
        let b = ReprPlan::from_program(&program, 16, 0.05).unwrap();
        let shape = |p: &ReprPlan| -> Vec<(usize, u64)> {
            p.clusters()
                .iter()
                .map(|c| (c.rep_epoch, c.weight))
                .collect()
        };
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn stats_report_prints_the_plan_or_the_fallback() {
        let profiles = BTreeMap::new();
        let program = periodic(2, 20, &[1_000, 5_000]);
        let markers_only = render_stats_report(&profiles, None);
        assert!(!markers_only.contains("barrier epochs"));

        let report = render_stats_report(&profiles, Some((&program, 16, 0.05)));
        assert!(report.contains("21 epochs in 3 clusters"), "{report}");
        // Header line plus column header plus one row per cluster.
        let section = report.split("-- barrier epochs --\n").nth(1).unwrap();
        assert_eq!(section.lines().count(), 2 + 3);

        let short = periodic(2, 2, &[1_000]);
        let short = render_stats_report(&profiles, Some((&short, 16, 0.05)));
        assert!(short.contains("3 epochs; no plan"), "{short}");
        assert!(short.contains("falls back to exact simulation"));
    }

    #[test]
    fn short_programs_refuse_a_plan() {
        let program = periodic(2, 2, &[1_000]);
        assert!(ReprPlan::from_program(&program, 16, 0.05).is_none());
    }

    #[test]
    fn non_repeating_programs_refuse_a_plan() {
        let pattern: Vec<u64> = (1..=12).map(|i| i * 7_919).collect();
        let program = periodic(2, 12, &pattern);
        assert!(ReprPlan::from_program(&program, 16, 0.001).is_none());
    }

    #[test]
    fn cluster_cap_alone_refuses_a_plan() {
        // Ten distinct interior epochs plus the tail: 41 epochs in 11
        // clusters (3.7x, above MIN_REPETITION), so only the cap decides.
        let pattern: Vec<u64> = (1..=10).map(|i| i * 1_000).collect();
        let program = periodic(2, 40, &pattern);
        let plan = ReprPlan::from_program(&program, 11, 0.01).unwrap();
        assert_eq!(plan.clusters().len(), 11);
        assert!(plan.repetition() >= MIN_REPETITION);
        assert!(ReprPlan::from_program(&program, 10, 0.01).is_none());
    }

    #[test]
    fn mini_programs_warm_up_end_and_remap_barriers() {
        let program = periodic(2, 10, &[1_000]);
        let plan = ReprPlan::from_program(&program, 16, 0.05).unwrap();
        for cluster in plan.clusters() {
            for thread in cluster.program().threads() {
                // Leading warmup barrier, remapped epoch barriers, End.
                assert_eq!(thread.ops.first(), Some(&Op::Barrier(BarrierId(0))));
                assert_eq!(thread.ops.last(), Some(&Op::End));
                for op in &thread.ops[1..] {
                    if let Op::Barrier(id) = op {
                        assert_eq!(*id, BarrierId(1));
                    }
                }
            }
        }
    }

    fn rel_err(a: TimeNs, b: TimeNs) -> f64 {
        (a.as_ns() as f64 - b.as_ns() as f64).abs() / b.as_ns() as f64
    }

    #[test]
    fn composed_metrics_match_exact_on_perfectly_periodic_trace() {
        let program = periodic(4, 30, &[2_000]);
        let params = SimParams::default();
        let exact = crate::Extrapolator::new(params.clone())
            .run(&program)
            .unwrap();

        let plan = ReprPlan::from_program(&program, 16, 0.05).unwrap();
        let composed = plan.run(&params, &mut SimScratch::default()).unwrap();

        assert_eq!(composed.n_threads, exact.n_threads);
        assert_eq!(composed.barriers, exact.barriers);
        // Additive workload metrics compose exactly.
        assert_eq!(composed.network.messages, exact.network.messages);
        assert_eq!(composed.network.bytes, exact.network.bytes);
        for (c, e) in composed.per_thread.iter().zip(&exact.per_thread) {
            assert_eq!(c.compute, e.compute);
        }
        // Timing composes approximately: a mini-epoch starts its threads
        // aligned at t=0, while the full run's epoch starts are skewed
        // by the previous barrier's staggered release — a constant
        // per-epoch offset, well under 1% here.
        assert!(rel_err(composed.exec_time(), exact.exec_time()) < 0.01);
        // The whole point: far fewer simulator events.
        assert!(composed.events_dispatched < exact.events_dispatched / 2);
    }

    #[test]
    fn strategy_dispatch_uses_the_plan() {
        let program = periodic(2, 24, &[3_000]);
        let mut params = SimParams::default();
        let exact = crate::Extrapolator::new(params.clone())
            .run(&program)
            .unwrap();
        params.strategy = SimStrategy::representative();
        let repr = crate::Extrapolator::new(params.clone())
            .run(&program)
            .unwrap();
        assert!(rel_err(repr.exec_time(), exact.exec_time()) < 0.01);
        assert!(repr.events_dispatched < exact.events_dispatched);
        assert!(repr.predicted.threads.is_empty());
    }
}
