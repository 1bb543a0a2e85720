//! `extrap serve` and `extrap client` — the daemon and its CLI driver.
//!
//! `serve` runs an `extrap-serve` daemon in the foreground until a
//! client sends `Shutdown` (it then drains in-flight jobs and exits).
//! `client` speaks the versioned wire protocol to a running daemon; its
//! `sweep --csv` and `simulate` output is byte-identical to the
//! in-process `extrap sweep --csv` and `extrap simulate`, because both
//! render the same exact integer nanoseconds through the same formatter.

use crate::{parse_sweep_request, print_prediction, render_sweep_rows, take_epoch_flags};
use extrap_proto::SweepSpec;
use extrap_serve::client::Client;
use extrap_serve::{ServeConfig, Server};
use extrap_time::{out, outln, ArgSpec, TimeNs};
use std::time::Duration;

/// Where `extrap client` looks for a daemon when `--addr` is omitted;
/// matches `ServeConfig::default()`.
const DEFAULT_ADDR: &str = "127.0.0.1:4755";

/// `extrap serve`: run the extrapolation daemon in the foreground.
pub(crate) fn cmd_serve(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "serve", args);
    let mut config = ServeConfig::default();
    if let Some(addr) = spec.value("--addr")? {
        config.addr = addr;
    }
    if let Some(n) = spec.positive("--workers")? {
        config.workers = n;
    }
    if let Some(n) = spec.positive("--sweep-workers")? {
        config.sweep_workers = n;
    }
    if let Some(mb) = spec.parsed::<usize>("--mem-budget-mb")? {
        config.mem_budget_bytes = mb << 20;
    }
    if let Some(n) = spec.positive("--max-inflight")? {
        config.max_inflight_jobs = n;
    }
    if let Some(n) = spec.positive("--max-conn-inflight")? {
        config.max_inflight_per_conn = n;
    }
    if let Some(n) = spec.positive("--max-connections")? {
        config.max_connections = n;
    }
    if let Some(ms) = spec.parsed::<u64>("--timeout-ms")? {
        config.request_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = spec.parsed::<u64>("--batch-window-ms")? {
        config.batch_window = Duration::from_millis(ms);
    }
    let leftovers = spec.finish()?;
    if !leftovers.is_empty() {
        return Err("serve: takes flags only; see `extrap help`".to_string());
    }

    let server = Server::start(config).map_err(|e| e.to_string())?;
    // Scripts (and the CI smoke job) wait for this line before
    // connecting; stdout is line-buffered, so it hits the pipe before
    // we block in join().
    outln!("extrap-serve listening on {}", server.local_addr());
    server.join();
    outln!("extrap-serve drained; bye");
    Ok(())
}

/// `extrap client <sweep|simulate|analyze|stats|shutdown>`: drive a
/// daemon.
pub(crate) fn cmd_client(args: Vec<String>) -> Result<(), String> {
    let mut it = args.into_iter();
    let sub = it
        .next()
        .ok_or("usage: extrap client sweep|simulate|analyze|stats|shutdown [--addr HOST:PORT]")?;
    let rest: Vec<String> = it.collect();
    match sub.as_str() {
        "sweep" => client_sweep(rest),
        "simulate" => client_simulate(rest),
        "analyze" => client_analyze(rest),
        "stats" => client_stats(rest),
        "shutdown" => client_shutdown(rest),
        other => Err(format!(
            "client: unknown subcommand {other:?} (sweep|simulate|analyze|stats|shutdown)"
        )),
    }
}

fn take_addr(spec: &mut ArgSpec) -> Result<String, String> {
    Ok(spec
        .value("--addr")?
        .unwrap_or_else(|| DEFAULT_ADDR.to_string()))
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn client_sweep(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "client sweep", args);
    let addr = take_addr(&mut spec)?;
    let req = parse_sweep_request(spec)?;

    let wire = SweepSpec {
        benches: req.benches.iter().map(|b| b.name().to_string()).collect(),
        procs: req.procs.iter().map(|&n| n as u32).collect(),
        scale: req.scale.name().to_string(),
        params: req.params.to_config_text(),
    };
    let n_points = wire.benches.len() * wire.procs.len();
    let rows = connect(&addr)?.sweep(wire).map_err(|e| e.to_string())?;

    let rendered: Vec<(String, usize, f64)> = rows
        .iter()
        .map(|r| {
            (
                r.bench.clone(),
                r.procs as usize,
                TimeNs(r.exec_time_ns).as_ms(),
            )
        })
        .collect();
    render_sweep_rows(&rendered, &req.procs, req.csv);
    if !req.csv {
        outln!("({n_points} jobs via {addr})");
    }
    Ok(())
}

fn client_simulate(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "client simulate", args);
    let addr = take_addr(&mut spec)?;
    let params = crate::load_params(&mut spec)?;
    let [input] = spec.finish_exact("extrap client simulate FILE [--addr HOST:PORT]")?;
    let payload = std::fs::read(&input).map_err(|e| format!("{input}: {e}"))?;

    let mut client = connect(&addr)?;
    let (trace, _, _) = client
        .submit_trace(&input, payload)
        .map_err(|e| e.to_string())?;
    let result = client.simulate(trace, &params.to_config_text());
    // Best-effort: free the server-side entry whatever the outcome.
    let _ = client.evict(trace);
    print_prediction(&result.map_err(|e| e.to_string())?);
    Ok(())
}

/// `extrap client analyze FILE`: upload a trace, fetch its static
/// work/span bound report (rendered server-side through the same
/// formatter as local `extrap analyze`), then free the server entry.
fn client_analyze(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "client analyze", args);
    let addr = take_addr(&mut spec)?;
    let params = crate::load_params(&mut spec)?;
    let format = spec
        .value("--format")?
        .unwrap_or_else(|| "text".to_string());
    if extrap_analyze::Format::parse(&format).is_none() {
        return Err(format!(
            "client analyze: unknown --format {format:?} (text|json|csv)"
        ));
    }
    let [input] = spec.finish_exact(
        "extrap client analyze FILE [--format text|json|csv] \
         [--machine M | --params FILE] [--addr HOST:PORT]",
    )?;
    let payload = std::fs::read(&input).map_err(|e| format!("{input}: {e}"))?;

    let mut client = connect(&addr)?;
    let (trace, _, _) = client
        .submit_trace(&input, payload)
        .map_err(|e| e.to_string())?;
    let result = client.analyze(trace, &params.to_config_text(), &format);
    // Best-effort: free the server-side entry whatever the outcome.
    let _ = client.evict(trace);
    out!("{}", result.map_err(|e| e.to_string())?);
    Ok(())
}

/// `extrap client stats [FILE]`: without a positional, the server's
/// counters snapshot; with one, upload the trace and fetch its
/// phase/epoch report — byte-identical to local `extrap stats FILE`.
fn client_stats(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "client stats", args);
    let addr = take_addr(&mut spec)?;
    let epochs = take_epoch_flags(&mut spec)?;
    let mut leftovers = spec.finish()?;
    if leftovers.len() > 1 {
        return Err(
            "usage: extrap client stats [FILE --phases --max-clusters K --tolerance F] \
             [--addr HOST:PORT]"
                .to_string(),
        );
    }
    if let Some(input) = leftovers.pop() {
        let payload = std::fs::read(&input).map_err(|e| format!("{input}: {e}"))?;
        let mut client = connect(&addr)?;
        let (trace, _, _) = client
            .submit_trace(&input, payload)
            .map_err(|e| e.to_string())?;
        let result = client.phases(trace, epochs);
        let _ = client.evict(trace);
        out!("{}", result.map_err(|e| e.to_string())?);
        return Ok(());
    }
    if epochs.is_some() {
        return Err("client stats: --phases needs a trace FILE to report on".to_string());
    }
    let s = connect(&addr)?.stats().map_err(|e| e.to_string())?;
    outln!("uptime:             {:.1} s", s.uptime_ms as f64 / 1e3);
    outln!(
        "connections:        {} total, {} active",
        s.connections,
        s.active_connections
    );
    outln!("requests:           {}", s.requests);
    outln!(
        "jobs:               {} in flight, {} done, {} failed",
        s.jobs_inflight,
        s.jobs_done,
        s.jobs_failed
    );
    outln!(
        "sweep batches:      {} ({} coalesced riders)",
        s.sweep_batches,
        s.coalesced_sweeps
    );
    outln!(
        "resident:           {} traces, {} bytes (budget {})",
        s.traces_resident,
        s.resident_bytes,
        if s.mem_budget_bytes == 0 {
            "unlimited".to_string()
        } else {
            format!("{} bytes", s.mem_budget_bytes)
        }
    );
    outln!("evictions:          {}", s.evictions);
    outln!("translations:       {}", s.translations);
    Ok(())
}

fn client_shutdown(args: Vec<String>) -> Result<(), String> {
    let mut spec = ArgSpec::new("extrap", "client shutdown", args);
    let addr = take_addr(&mut spec)?;
    let leftovers = spec.finish()?;
    if !leftovers.is_empty() {
        return Err("client shutdown: takes --addr only".to_string());
    }
    connect(&addr)?.shutdown().map_err(|e| e.to_string())?;
    outln!("shutdown requested; {addr} is draining");
    Ok(())
}
