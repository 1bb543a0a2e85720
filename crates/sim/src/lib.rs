#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! A small, deterministic discrete-event simulation kernel.
//!
//! ExtraP's trace-driven simulator (`extrap-core`) runs on this engine.
//! Determinism is load-bearing for the whole reproduction: events at
//! equal timestamps pop in schedule order (FIFO tie-breaking), and no
//! wall-clock or hash-iteration order leaks into simulation results.
//! Events are never cancelled; simulators drop stale events with their
//! own generation checks.

pub mod engine;

pub use engine::Engine;
