#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pcpp-rt — an object-parallel runtime in the style of pC++
//!
//! This crate is the measurement substrate of the reproduction: a small
//! data-parallel runtime whose programs are *n*-thread object-parallel
//! computations over distributed [`Collection`]s, executed on **one
//! processor** under a **non-preemptive** scheduler (§3.1–3.2 of the
//! paper), with every thread interaction — barrier entry/exit and remote
//! element access — recorded as a high-level trace event.
//!
//! Differences from the original pC++ stack are deliberate substitutions
//! (documented in DESIGN.md):
//!
//! * computation time is charged to a deterministic **virtual clock**
//!   through an explicit [`WorkModel`] instead of being measured with a
//!   wall clock, which makes traces bit-reproducible;
//! * the AWESIME threads package becomes a run-token scheduler over OS
//!   threads: exactly one thread executes at any time and switches happen
//!   only at barrier boundaries, exactly the scheduling points pC++ has.
//!
//! ## Example
//!
//! ```
//! use pcpp_rt::{Program, Collection, Distribution, WorkModel};
//!
//! // 4 threads, 16 elements distributed blockwise.
//! let program = Program::new(4);
//! let coll = Collection::<f64>::build(Distribution::block_1d(16, 4), |i| i.0 as f64);
//! let trace = program.run(move |ctx| {
//!     let mut acc = 0.0;
//!     for idx in coll.local_indices(ctx.id()) {
//!         acc += coll.read(ctx, idx, |v| *v);
//!         ctx.charge_flops(1);
//!     }
//!     ctx.barrier();
//!     // Read one element from the right neighbour.
//!     let n = ctx.n_threads() as u32;
//!     let peer = (ctx.id().0 + 1) % n;
//!     let first = coll.dist().local_indices(pcpp_rt::tid(peer)).next().unwrap();
//!     let _ = coll.read(ctx, first, |v| *v);
//!     ctx.barrier();
//! });
//! assert_eq!(trace.n_threads, 4);
//! ```

#[cfg(feature = "model-check")]
pub mod chk;
pub mod clock;
pub mod collection;
pub mod collective;
pub mod distribution;
pub mod element;
pub mod instrument;
pub mod program;
pub mod scheduler;
pub mod sync;

pub use clock::WorkModel;
pub use collection::Collection;
pub use collective::Collectives;
pub use distribution::{Dist1, Distribution, Index2};
pub use element::Element;
pub use instrument::Recorder;
pub use program::{Program, ThreadCtx};

/// Shorthand for building a [`extrap_time::ThreadId`].
pub fn tid(i: u32) -> extrap_time::ThreadId {
    extrap_time::ThreadId(i)
}
