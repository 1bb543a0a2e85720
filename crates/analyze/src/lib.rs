//! Static work/span bound analysis over compiled ExtraP programs.
//!
//! This crate computes, *without running the discrete-event simulator*,
//! per-barrier-epoch work and load imbalance, the contention-free
//! critical path (span), and closed-form lower/upper bounds on
//! simulated execution time and speedup — a Brent-style envelope
//! `span ≤ T(n) ≤ upper` derived from the exact cost formulas the
//! `extrap-core` engine charges (processor scaling, network wires,
//! service round trips, barrier algorithms).
//!
//! Two consumers sit on top:
//!
//! * `extrap analyze` renders the analysis (text/JSON/CSV, with bound
//!   curves over processor counts), and
//! * [`verify_prediction`] checks one simulation result — exact or
//!   representative — against its static envelope.  `extrap simulate`
//!   and `extrap sweep` call it on every prediction under
//!   `--check-bounds`, turning engine, clustering, or scheduler bugs
//!   into an error instead of a number.
//!
//! The bound model is deliberately *sound over tight*: lower bounds
//! collapse every wait to its floor, upper bounds charge every
//! quantization, contention factor, and service interval at its
//! ceiling.  Configurations the model does not cover (thread
//! multiplexing, divergent barrier sequences) report
//! [`Unsupported`] rather than guessing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod render;

pub use bounds::{analyze, envelope, verify_prediction, Analysis, Envelope, EpochRow, Unsupported};
pub use render::{render, CurvePoint, Format};
