#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Fixed-point simulation time and identifier types shared by every
//! ExtraP-rs crate, plus the seeded generator and the command-line
//! front end ([`cli`]) of the binaries and bench targets.
//!
//! All simulation state advances on a single integer nanosecond clock
//! ([`TimeNs`]); model parameters are expressed in microseconds (as in the
//! paper) and converted once at configuration time.  Using integer
//! nanoseconds keeps every experiment bit-reproducible — there is no
//! floating-point accumulation anywhere on the simulation path.

pub mod cli;
pub mod ids;
pub mod rate;
pub mod rng;
pub mod time;

pub use cli::{json_escape, ArgSpec};
pub use ids::{procs, threads, BarrierId, ElementId, ProcId, ThreadId};
pub use rate::{mbps_to_us_per_byte, us_per_byte_to_mbps};
pub use rng::{splitmix64, SplitMix64};
pub use time::{DurationNs, TimeNs};
