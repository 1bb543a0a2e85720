#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # extrap-serve — extrapolation as a service
//!
//! A long-running, multi-tenant daemon serving the [`extrap_proto`]
//! session API over TCP: clients submit traces once, then answer many
//! what-if questions (simulations and whole benchmark sweeps) against
//! the server's shared, memory-budgeted caches.  This is the paper's
//! economics — extrapolation is cheap enough to be interactive — turned
//! into a serving layer that amortizes trace compilation and sweep work
//! across every connected client.
//!
//! Architecture (all std, no async runtime):
//!
//! * an **accept loop** admits up to `max_connections` clients, each
//!   handled by its own thread speaking length-prefixed
//!   [`extrap_proto::wire`] frames;
//! * request **admission** validates everything up front (parameters,
//!   benchmark names, trace bytes) and applies backpressure: a global
//!   in-flight bound plus a per-connection bound, both answered with
//!   [`extrap_proto::ErrorCode::Busy`] rather than queueing unboundedly;
//! * a **bounded worker pool** executes jobs; compatible sweep requests
//!   (same scale + canonical parameter text) that are queued together
//!   are **coalesced into one shared grid** executed through
//!   `extrap_core::sweep` (and its contiguous `claim_chunk` range
//!   claims), so a burst of identical what-if sweeps costs one grid;
//! * the shared caches are **evicted LRU-first under a configurable
//!   memory budget**, charged by the `resident_bytes` accounting probes
//!   on traces and compiled programs;
//! * **graceful shutdown** drains: new work is refused with
//!   `ShuttingDown`, queued jobs finish, results stay fetchable until
//!   the drain completes, then connections close and threads join.
//!
//! The [`client::Client`] in this crate is the *only* client
//! implementation — the `extrap client` CLI, the load-generator bench,
//! and the end-to-end tests all share it.
//!
//! ```no_run
//! use extrap_serve::{Server, ServeConfig};
//! use extrap_serve::client::Client;
//! use extrap_proto::SweepSpec;
//!
//! let server = Server::start(ServeConfig::default().with_addr("127.0.0.1:0")).unwrap();
//! let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
//! let rows = client
//!     .sweep(SweepSpec {
//!         benches: vec!["poisson".into()],
//!         procs: vec![1, 2, 4],
//!         scale: "tiny".into(),
//!         params: String::new(),
//!     })
//!     .unwrap();
//! assert_eq!(rows.len(), 3);
//! server.shutdown_and_join();
//! ```

pub mod client;
mod conn;
mod state;
mod worker;

pub use state::{Service, Session};

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.  [`ServeConfig::default`] is tuned for a
/// local, interactive daemon; every knob has a CLI flag on
/// `extrap serve`.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker-pool threads executing jobs.
    pub workers: usize,
    /// Threads one coalesced sweep grid may use inside a worker.
    pub sweep_workers: usize,
    /// Memory budget in bytes for resident traces + the sweep cache
    /// (0 = unlimited).  Enforced LRU-first after every admission that
    /// grows the caches.
    pub mem_budget_bytes: usize,
    /// Global bound on queued + running jobs (backpressure).
    pub max_inflight_jobs: usize,
    /// Per-connection bound on unfetched jobs (backpressure).
    pub max_inflight_per_conn: usize,
    /// Simultaneously open connections; extras are refused with `Busy`.
    pub max_connections: usize,
    /// Per-job deadline: a job still queued this long after admission
    /// fails with `Timeout` instead of running.  Also caps one
    /// `FetchResult`'s server-side wait.
    pub request_timeout: Duration,
    /// How long a worker holding a fresh sweep job lingers for more
    /// compatible sweeps to arrive before executing the batch.  Zero
    /// still coalesces whatever is already queued.
    pub batch_window: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:4755".into(),
            workers: extrap_core::sweep::default_workers(),
            sweep_workers: extrap_core::sweep::default_workers(),
            mem_budget_bytes: 256 << 20,
            max_inflight_jobs: 1024,
            max_inflight_per_conn: 32,
            max_connections: 1024,
            request_timeout: Duration::from_secs(30),
            batch_window: Duration::from_millis(1),
        }
    }
}

impl ServeConfig {
    /// Replaces the listen address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> ServeConfig {
        self.addr = addr.into();
        self
    }
}

/// Server startup/runtime failures.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen address failed.
    Bind {
        /// The address that could not be bound.
        addr: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A configuration value is unusable.
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "bind {addr}: {source}"),
            ServeError::Config(d) => write!(f, "bad config: {d}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A running server: the accept loop, worker pool, and shared state.
pub struct Server {
    service: Arc<Service>,
    local_addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts the accept loop and worker pool.
    pub fn start(config: ServeConfig) -> Result<Server, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::Config("workers must be >= 1".into()));
        }
        let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Bind {
            addr: config.addr.clone(),
            source,
        })?;
        let local_addr = listener.local_addr().map_err(|source| ServeError::Bind {
            addr: config.addr.clone(),
            source,
        })?;
        let service = Arc::new(Service::new(config.clone()));
        let workers = (0..config.workers)
            .map(|i| {
                let service = Arc::clone(&service);
                std::thread::Builder::new()
                    .name(format!("extrap-serve-worker-{i}"))
                    .spawn(move || worker::run(&service))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("extrap-serve-accept".into())
                .spawn(move || conn::accept_loop(listener, &service))
                .expect("spawn accept loop")
        };
        Ok(Server {
            service,
            local_addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared service, for in-process sessions alongside TCP ones.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Begins graceful shutdown: refuse new work, drain queued jobs.
    /// Returns immediately; use [`join`](Server::join) to wait.
    pub fn shutdown(&self) {
        self.service.begin_shutdown();
    }

    /// Waits for the accept loop, every worker, and every connection to
    /// finish.  Call after [`shutdown`](Server::shutdown) (or after a
    /// client sent [`extrap_proto::Request::Shutdown`]).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Connection threads are detached; wait out their counter.
        while self.service.stats().active_connections > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// [`shutdown`](Server::shutdown) + [`join`](Server::join).
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}
