#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! High-level event tracing for ExtraP-rs.
//!
//! This crate implements the measurement side of the paper: the event
//! vocabulary recorded by the instrumented pC++-style runtime (barrier
//! entry/exit, remote element accesses — §3.2), the program/thread trace
//! containers, a compact binary trace-file format, the **trace
//! translation algorithm** that turns the *n*-thread / 1-processor
//! trace into *n* idealized per-thread traces, and trace statistics
//! used for performance diagnosis.

pub mod builder;
pub mod bytesio;
pub mod error;
pub mod event;
pub mod format;
pub mod phases;
pub mod stats;
pub mod stream;
pub mod timeline;
pub mod translate;
pub mod writer;

pub use builder::{PhaseAccess, PhaseProgram, PhaseWork, ProgramTraceBuilder};
pub use error::TraceError;
pub use event::{EventKind, TraceRecord};
pub use event::{ProgramTrace, SetCheck, ThreadTrace, TraceSet};
pub use phases::{splitmix64, PhaseFold, PhaseProfile};
pub use stats::{ThreadStats, TraceStats};
pub use stream::{
    ChunkSource, FileSource, ProgramStream, SetChunk, SetStream, SliceSource, SpillSink,
    TraceStream,
};
pub use translate::{
    translate, translate_stream, EpochTranslator, TranslateOptions, TranslateSink, TranslateStats,
};
