//! Distributed collections: the pC++ object-parallel data structure.
//!
//! A collection owns a 2-D (or 1-D) array of elements distributed over
//! threads per a [`Distribution`].  Under the 1-processor runtime the
//! elements live in one global space, so remote reads are *directly
//! served* (identical timing to local reads, §3.2) — but they are
//! *recorded* as remote-access events carrying both the declared
//! (whole-element) size and the actual bytes the access needs.

use crate::distribution::{Distribution, Index2};
use crate::element::Element;
use crate::program::ThreadCtx;
use crate::sync::RwLock;
use extrap_time::{ElementId, ThreadId};

/// A distributed collection of elements.
pub struct Collection<T: Element> {
    dist: Distribution,
    data: Vec<RwLock<T>>,
}

impl<T: Element> Collection<T> {
    /// Builds a collection, initializing each element from its index.
    pub fn build(dist: Distribution, mut init: impl FnMut(Index2) -> T) -> Collection<T> {
        let (rows, cols) = dist.shape;
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(RwLock::new(init(Index2(r, c))));
            }
        }
        Collection { dist, data }
    }

    /// The collection's distribution.
    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Indices owned by `thread` (row-major order).
    pub fn local_indices(&self, thread: ThreadId) -> impl Iterator<Item = Index2> + '_ {
        self.dist.local_indices(thread)
    }

    /// The owner of an element.
    pub fn owner(&self, idx: Index2) -> ThreadId {
        self.dist.owner(idx)
    }

    fn slot(&self, idx: Index2) -> &RwLock<T> {
        &self.data[self.dist.flat(idx)]
    }

    /// Reads a whole element.  If the element is remote, a remote-read
    /// event is recorded with `actual == declared` (the access consumes
    /// the full element).
    pub fn read<R>(&self, ctx: &mut ThreadCtx<'_>, idx: Index2, f: impl FnOnce(&T) -> R) -> R {
        let guard = self.slot(idx).read();
        let declared = guard.size_bytes();
        self.note_read(ctx, idx, declared, declared);
        f(&guard)
    }

    /// Reads part of an element: `actual_bytes` is what the access really
    /// needs, while the declared size stays the whole element — exactly
    /// the compiler abstraction mismatch behind the §4.1 Grid anomaly.
    pub fn read_part<R>(
        &self,
        ctx: &mut ThreadCtx<'_>,
        idx: Index2,
        actual_bytes: u32,
        f: impl FnOnce(&T) -> R,
    ) -> R {
        let guard = self.slot(idx).read();
        let declared = guard.size_bytes();
        self.note_read(ctx, idx, declared, actual_bytes.min(declared).max(1));
        f(&guard)
    }

    /// Mutates a whole element.  Remote writes are recorded as one-way
    /// remote-write events (§5's "trivial extension"); the owner-computes
    /// benchmarks never use them, but Matmul-style broadcasts can.
    pub fn write(&self, ctx: &mut ThreadCtx<'_>, idx: Index2, f: impl FnOnce(&mut T)) {
        let mut guard = self.slot(idx).write();
        let declared = guard.size_bytes();
        self.note_write(ctx, idx, declared, declared);
        f(&mut guard);
    }

    /// Copies a whole element out (records a remote read if needed).
    pub fn get(&self, ctx: &mut ThreadCtx<'_>, idx: Index2) -> T
    where
        T: Clone,
    {
        self.read(ctx, idx, |t| t.clone())
    }

    /// Reads an element *without* instrumentation (setup/verification
    /// code outside the measured program).
    pub fn peek<R>(&self, idx: Index2, f: impl FnOnce(&T) -> R) -> R {
        f(&self.slot(idx).read())
    }

    fn note_read(&self, ctx: &mut ThreadCtx<'_>, idx: Index2, declared: u32, actual: u32) {
        ctx.charge_elem_access();
        let owner = self.owner(idx);
        if owner != ctx.id() {
            ctx.record_remote_read(
                owner,
                ElementId::from_index(self.dist.flat(idx)),
                declared,
                actual,
            );
        }
    }

    fn note_write(&self, ctx: &mut ThreadCtx<'_>, idx: Index2, declared: u32, actual: u32) {
        ctx.charge_elem_access();
        let owner = self.owner(idx);
        if owner != ctx.id() {
            ctx.record_remote_write(
                owner,
                ElementId::from_index(self.dist.flat(idx)),
                declared,
                actual,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WorkModel;
    use crate::program::Program;
    use extrap_trace::EventKind;

    #[test]
    fn local_reads_record_nothing() {
        let coll = Collection::<f64>::build(Distribution::block_1d(4, 2), |i| i.0 as f64);
        let trace = Program::new(2)
            .with_work_model(WorkModel::unit())
            .run(|ctx| {
                for idx in coll.local_indices(ctx.id()) {
                    let v = coll.read(ctx, idx, |v| *v);
                    assert_eq!(v, idx.0 as f64);
                }
            });
        assert!(!trace.records.iter().any(|r| r.kind.is_remote()));
    }

    #[test]
    fn remote_reads_record_owner_and_sizes() {
        let coll = Collection::<Vec<f64>>::build(Distribution::block_1d(2, 2), |_| vec![0.0; 16]);
        let trace = Program::new(2)
            .with_work_model(WorkModel::unit())
            .run(|ctx| {
                if ctx.id().0 == 0 {
                    // Element 1 belongs to thread 1: full read then a
                    // 8-byte partial read.
                    coll.read(ctx, Index2(1, 0), |v| v.len());
                    coll.read_part(ctx, Index2(1, 0), 8, |v| v.len());
                }
                ctx.barrier();
            });
        let remotes: Vec<_> = trace
            .records
            .iter()
            .filter(|r| r.kind.is_remote())
            .collect();
        assert_eq!(remotes.len(), 2);
        match remotes[0].kind {
            EventKind::RemoteRead {
                owner,
                declared_bytes,
                actual_bytes,
                ..
            } => {
                assert_eq!(owner.0, 1);
                assert_eq!(declared_bytes, 128);
                assert_eq!(actual_bytes, 128);
            }
            ref other => panic!("unexpected {other:?}"),
        }
        match remotes[1].kind {
            EventKind::RemoteRead {
                declared_bytes,
                actual_bytes,
                ..
            } => {
                assert_eq!(declared_bytes, 128);
                assert_eq!(actual_bytes, 8);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn remote_writes_record_events() {
        let coll = Collection::<f64>::build(Distribution::block_1d(2, 2), |_| 0.0);
        let trace = Program::new(2)
            .with_work_model(WorkModel::unit())
            .run(|ctx| {
                if ctx.id().0 == 0 {
                    coll.write(ctx, Index2(1, 0), |v| *v = 7.0);
                }
                ctx.barrier();
            });
        assert_eq!(
            trace
                .records
                .iter()
                .filter(|r| matches!(r.kind, EventKind::RemoteWrite { .. }))
                .count(),
            1
        );
        assert_eq!(coll.peek(Index2(1, 0), |v| *v), 7.0);
    }

    #[test]
    fn computation_results_are_correct_across_threads() {
        // A reduction computed through the runtime produces the right
        // numeric answer (the benchmarks rely on this).
        let n = 16;
        let coll = Collection::<f64>::build(Distribution::cyclic_1d(n, 4), |i| (i.0 + 1) as f64);
        let partial = Collection::<f64>::build(Distribution::block_1d(4, 4), |_| 0.0);
        let trace = Program::new(4)
            .with_work_model(WorkModel::unit())
            .run(|ctx| {
                let mut acc = 0.0;
                for idx in coll.local_indices(ctx.id()) {
                    acc += coll.read(ctx, idx, |v| *v);
                    ctx.charge_flops(1);
                }
                let me = Index2(ctx.id().index(), 0);
                partial.write(ctx, me, |v| *v = acc);
                ctx.barrier();
                // Thread 0 combines.
                if ctx.id().0 == 0 {
                    let mut total = 0.0;
                    for t in 0..4 {
                        total += partial.read(ctx, Index2(t, 0), |v| *v);
                        ctx.charge_flops(1);
                    }
                    partial.write(ctx, Index2(0, 0), |v| *v = total);
                }
                ctx.barrier();
            });
        assert_eq!(coll.peek(Index2(0, 0), |v| *v), 1.0);
        assert_eq!(partial.peek(Index2(0, 0), |v| *v), (n * (n + 1) / 2) as f64);
        // Thread 0 performed 3 remote reads in the combine phase.
        let remote_reads = trace
            .records
            .iter()
            .filter(|r| matches!(r.kind, EventKind::RemoteRead { .. }))
            .count();
        assert_eq!(remote_reads, 3);
    }
}
