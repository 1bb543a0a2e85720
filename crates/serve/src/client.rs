//! The blocking protocol client.
//!
//! This is the one client implementation in the tree: `extrap client`,
//! the load-generator bench, and the end-to-end tests all drive servers
//! through it, so a protocol change breaks loudly in one place.

use extrap_proto::{
    decode_response, encode_request, read_frame, write_frame, ErrorCode, JobId, PredictionSummary,
    ProtoError, Request, Response, ServerStats, SweepRow, SweepSpec, TraceId, MAX_FRAME_LEN,
};
use std::fmt;
use std::io;
use std::net::TcpStream;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure.
    Proto(ProtoError),
    /// The server answered with [`Response::Error`].
    Server {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The server answered with the wrong response kind, or hung up
    /// mid-conversation.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server { code, detail } => write!(f, "server error [{code}]: {detail}"),
            ClientError::Protocol(d) => write!(f, "protocol violation: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Proto(ProtoError::Io(e))
    }
}

impl ClientError {
    /// Whether this is the server's `Busy` backpressure answer — the
    /// one error a well-behaved client retries after a pause.
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Busy,
                ..
            }
        )
    }
}

fn unexpected(wanted: &str, got: Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}

/// A blocking connection to an `extrap-serve` daemon.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// One raw request/response exchange.  Server-side
    /// [`Response::Error`]s come back as `Ok` — use [`round`](Client::round)
    /// to surface them as [`ClientError::Server`].
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let frame = read_frame(&mut self.stream, MAX_FRAME_LEN)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        Ok(decode_response(&frame)?)
    }

    /// [`request`](Client::request) with error responses lifted into
    /// [`ClientError::Server`].
    pub fn round(&mut self, req: &Request) -> Result<Response, ClientError> {
        match self.request(req)? {
            Response::Error { code, detail } => Err(ClientError::Server { code, detail }),
            other => Ok(other),
        }
    }

    /// Uploads a trace image (`XTRP` or `XTPS` bytes); returns the
    /// handle plus `(n_threads, resident_bytes)`.
    pub fn submit_trace(
        &mut self,
        name: &str,
        payload: Vec<u8>,
    ) -> Result<(TraceId, u32, u64), ClientError> {
        match self.round(&Request::SubmitTrace {
            name: name.to_string(),
            payload,
        })? {
            Response::Submitted {
                trace,
                n_threads,
                resident_bytes,
            } => Ok((trace, n_threads, resident_bytes)),
            other => Err(unexpected("Submitted", other)),
        }
    }

    /// Extrapolates a submitted trace under one parameter set (config
    /// text; empty = server defaults), blocking until the result lands.
    pub fn simulate(
        &mut self,
        trace: TraceId,
        params: &str,
    ) -> Result<PredictionSummary, ClientError> {
        let job = self.accept(&Request::Simulate {
            trace,
            params: params.to_string(),
        })?;
        match self.await_result(job)? {
            Response::Prediction(p) => Ok(p),
            other => Err(unexpected("Prediction", other)),
        }
    }

    /// Runs a sweep grid, blocking until the rows land.  Row order is
    /// the grid order `extrap sweep` prints: benches major, procs minor.
    pub fn sweep(&mut self, spec: SweepSpec) -> Result<Vec<SweepRow>, ClientError> {
        let job = self.accept(&Request::Sweep(spec))?;
        match self.await_result(job)? {
            Response::SweepRows(rows) => Ok(rows),
            other => Err(unexpected("SweepRows", other)),
        }
    }

    /// Drops a submitted trace server-side; returns the bytes freed.
    pub fn evict(&mut self, trace: TraceId) -> Result<u64, ClientError> {
        match self.round(&Request::Evict { trace })? {
            Response::Evicted { freed_bytes } => Ok(freed_bytes),
            other => Err(unexpected("Evicted", other)),
        }
    }

    /// Fetches the phase/epoch statistics report for a submitted trace,
    /// rendered server-side — byte-identical to local `extrap stats`.
    /// `epochs = Some((max_clusters, tolerance))` adds the barrier-epoch
    /// section (`--phases`).
    pub fn phases(
        &mut self,
        trace: TraceId,
        epochs: Option<(u32, f64)>,
    ) -> Result<String, ClientError> {
        let (max_clusters, tolerance) = epochs.unwrap_or_default();
        match self.round(&Request::Phases {
            trace,
            phases: epochs.is_some(),
            max_clusters,
            tolerance,
        })? {
            Response::Phases { text } => Ok(text),
            other => Err(unexpected("Phases", other)),
        }
    }

    /// Fetches the static work/span bound report for a submitted trace
    /// (params = config text, empty for server defaults; format =
    /// `text`/`json`/`csv`, empty for text), rendered server-side.
    pub fn analyze(
        &mut self,
        trace: TraceId,
        params: &str,
        format: &str,
    ) -> Result<String, ClientError> {
        match self.round(&Request::Analyze {
            trace,
            params: params.to_string(),
            format: format.to_string(),
        })? {
            Response::Analyzed { rendered } => Ok(rendered),
            other => Err(unexpected("Analyzed", other)),
        }
    }

    /// Fetches a statistics snapshot.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.round(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", other)),
        }
    }

    /// Asks the server to begin its graceful drain.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected("Bye", other)),
        }
    }

    fn accept(&mut self, req: &Request) -> Result<JobId, ClientError> {
        match self.round(req)? {
            Response::Accepted { job } => Ok(job),
            other => Err(unexpected("Accepted", other)),
        }
    }

    /// Long-polls `FetchResult` until the job leaves `Pending`.
    fn await_result(&mut self, job: JobId) -> Result<Response, ClientError> {
        loop {
            match self.round(&Request::FetchResult {
                job,
                wait_ms: 1_000,
            })? {
                Response::Pending { .. } => continue,
                other => return Ok(other),
            }
        }
    }
}
