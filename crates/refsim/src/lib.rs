#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # extrap-refsim — the link-level reference machine
//!
//! The paper validates extrapolated predictions against *measurements on
//! a real CM-5* (§4.2, Fig. 9).  No CM-5 being available, this crate
//! provides the substitution documented in DESIGN.md: a much more
//! detailed machine simulation that plays the same translated traces but
//! models the interconnect at **link level** — explicit switch-to-switch
//! links with per-channel occupancy, store-and-forward transfers,
//! packetization overhead, and a serialized ingress port per node (the
//! receive-queue contention the paper simulates directly).
//!
//! ExtraP deliberately avoids this level of detail for speed and instead
//! uses analytic contention factors; running both simulators on
//! identical traces therefore reproduces the methodological relationship
//! under study (cheap high-level prediction vs. expensive detailed
//! "measurement") *and* doubles as an ablation of the analytic
//! contention choice.

pub mod link;
pub mod machine;
pub mod route;

pub use link::{LinkNetwork, LinkParams};
pub use machine::RefMachine;
