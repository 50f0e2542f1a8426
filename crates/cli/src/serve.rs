//! `sdfr serve`: a resident analysis server over one process-wide
//! [`SessionRegistry`].
//!
//! The one-shot CLI pays the symbolic iteration on every invocation; the
//! server pays it once per distinct `(graph content, budget caps)` and
//! answers every later request for the same content from the registry —
//! the cross-invocation continuation of the `sdfr batch` cache. It is
//! deliberately std-only: a hand-rolled HTTP/1.1 loop over
//! [`TcpListener`], in the same spirit as the dependency-free `sdfr-pool`
//! — no async runtime, no HTTP crate.
//!
//! # Endpoints
//!
//! | Method | Path                       | Body                                   |
//! |--------|----------------------------|----------------------------------------|
//! | POST   | `/v1/analyze`              | one [`sdfr_api::AnalysisRequest`] with exactly one source and no tiers → one standalone record line, byte-identical to `sdfr analyze --json` (or `csdf --json` for a tagged `csdf` source) |
//! | POST   | `/v1/batch`                | an [`sdfr_api::AnalysisRequest`] of `sdf`/`sadf` sources → indexed record lines + a [`sdfr_api::BatchSummary`] line, the shape of `sdfr batch` |
//! | POST   | `/v1/csdf`                 | `/v1/analyze`'s handler with the kind fixed to `csdf`, any number of sources → one [`sdfr_api::CsdfRecord`] line per graph |
//! | POST   | `/v1/sadf`                 | the same with the kind fixed to `sadf` → one scenario-aware [`sdfr_api::UnitRecord`] line per workload, byte-identical to `sdfr analyze --scenarios --json` |
//! | GET    | `/v1/stats` (or `/stats`)  | registry + pool + connection + persistence + incremental counters, request count, drain flag |
//! | GET    | `/metrics`                 | the same counters in the Prometheus text exposition format |
//! | POST   | `/shutdown` (or `/v1/shutdown`) | begin a graceful drain; the process exits 0 once in-flight work finishes |
//!
//! Each source's workload kind follows `workload::unit_kind`:
//! the route where it names one, else the request's tagged kind, else the
//! `.sadf`-name rule.
//!
//! HTTP statuses follow the CLI exit-code discipline via
//! [`sdfr_api::http_status_for_exit`]; request-level failures (malformed
//! JSON, unsupported schema major, oversized body, socket timeout,
//! load-shedding) are [`sdfr_api::ErrorBody`] documents.
//!
//! # Robustness
//!
//! - **Keep-alive with pipelining.** Connections are HTTP/1.1 persistent
//!   by default: the per-connection loop parses requests out of a
//!   carry-over buffer (see [`crate::http`]), so back-to-back and
//!   pipelined requests reuse one TCP connection. A connection closes on
//!   `Connection: close`, after `--max-requests` requests, after any
//!   framing error or handler panic, or once a drain begins.
//! - **Bounded accept queue.** Accepted connections enter a fixed-depth
//!   queue (`--queue`); when it is full the accept thread answers
//!   `429 Too Many Requests` with `Retry-After: 1` inline instead of
//!   letting latency grow without bound.
//! - **Per-request timeouts.** `--io-timeout` bounds every *request*, not
//!   just the first one on a connection: the deadline restarts for each
//!   keep-alive request, a stalled or truncated request gets `408`/`400`,
//!   an idle keep-alive connection is closed silently, and response writes
//!   carry the same deadline so a slow-reading client cannot pin a worker.
//! - **Body cap.** Bodies over `--max-body` are refused with `413` before
//!   they are read.
//! - **Response deadlines.** A request's `deadline_ms` bounds the *answer*,
//!   not the analysis: a cold graph that cannot finish in time is answered
//!   with the iteration-free conservative bound (`"pending":true`) while
//!   the exact analysis keeps warming the shared session in the background.
//! - **Crash-safe warm cache.** With `--cache-dir`, every headline result
//!   is appended to a checksummed `sdfr-cache/1` journal and restored into
//!   the registry at startup — a `kill -9` loses at most the torn tail of
//!   the last record, which replay truncates (see [`sdfr_api::cache`]).
//! - **Graceful drain.** `SIGTERM`, `SIGINT` or `/shutdown` stop the accept
//!   loop, let workers finish queued and in-flight keep-alive requests
//!   (answered with `Connection: close`), and exit 0.
//! - **Panic isolation.** A panicking request handler answers `500` with an
//!   `ErrorBody` (`exit` 70) instead of taking the server down.
//! - **Fault injection (test-only).** `--fault` arms deterministic
//!   failures — accept delay, mid-response close, torn journal write,
//!   slow-loris response stall — so the black-box suite can prove each
//!   degrades to a structured, budgeted answer.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sdfr_analysis::registry::{RegistryConfig, SessionRegistry};
use sdfr_api::cache::CacheRecord;
use sdfr_api::shards::{RedirectRecord, ShardMap};
use sdfr_api::{
    http_status_for_exit, pool_stats_json, registry_stats_json, AnalysisRequest, ErrorBody,
    GraphSource, RequestError, WorkloadKind, EXIT_IO, EXIT_PANIC, EXIT_USAGE, SCHEMA,
};
use sdfr_graph::budget::Budget;

use crate::http::{self, Parsed};
use crate::workload::{self, AnalyzedUnit};
use crate::{batch, cache, client, CliError};

/// Parsed options of one `sdfr serve` invocation.
#[derive(Debug, Clone)]
struct ServeOptions {
    /// Listen address (`--addr`); port 0 picks an ephemeral port.
    addr: String,
    /// HTTP worker threads (`--workers`).
    workers: usize,
    /// Accept-queue depth before load-shedding (`--queue`).
    queue: usize,
    /// Request-body byte cap (`--max-body`).
    max_body: usize,
    /// Per-request read/write timeout (`--io-timeout`).
    io_timeout: Duration,
    /// Requests served per connection before a forced close
    /// (`--max-requests`).
    max_requests: u64,
    /// Session-registry capacity limits.
    registry: RegistryConfig,
    /// Budget caps for `--preload` warm-up (and nothing else — request
    /// budgets come from the requests).
    budget: Budget,
    /// Graph files to prefetch into the registry at startup.
    preload: Vec<String>,
    /// Directory for the persistent `sdfr-cache/1` journal (`--cache-dir`).
    cache_dir: Option<String>,
    /// Journal size past which persists trigger a compaction pass
    /// (`--cache-compact-bytes`).
    cache_compact_bytes: u64,
    /// This process's fleet membership (`--shard ID/N` + `--peers`), with
    /// the derived ring and the mis-route policy.
    shard: Option<ShardOptions>,
    /// Armed fault injections (`--fault`).
    fault: FaultPlan,
}

/// Parsed fleet membership: `--shard ID/N --peers A,B,…`.
#[derive(Debug, Clone)]
struct ShardOptions {
    /// This process's shard id (< the peer count).
    id: u32,
    /// The shared ring, derived from the ordered peer list.
    map: ShardMap,
    /// `--misroute proxy`: forward a mis-routed request to its owner
    /// instead of rejecting it with 421.
    proxy: bool,
}

/// Deterministic fault injections for the black-box robustness suite.
/// Everything defaults to off; production runs never arm these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct FaultPlan {
    /// Sleep this long in the accept loop before queueing each connection.
    accept_delay: Option<Duration>,
    /// Close the connection after writing half of the Nth response body
    /// (1-based, across the whole process).
    mid_response_close: Option<u64>,
    /// Tear the Nth journal append mid-record (1-based).
    torn_write: Option<u64>,
    /// Stall this long between every response head and body — the server
    /// side of a slow-loris, for exercising client read budgets.
    slow_loris: Option<Duration>,
}

/// Parses a `--fault` spec: comma-separated `kind=value`
/// entries, e.g. `mid-response-close=1,slow-loris=2000`. Delays are in
/// milliseconds, counters are 1-based ordinals.
fn parse_fault_plan(spec: &str) -> Result<FaultPlan, CliError> {
    fn value_of(kind: &str, value: Option<&str>) -> Result<u64, CliError> {
        value
            .ok_or_else(|| CliError::usage(format!("--fault: '{kind}' needs a value")))?
            .parse()
            .map_err(|_| CliError::usage(format!("--fault: '{kind}' needs a number")))
    }
    let mut plan = FaultPlan::default();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (kind, value) = match part.split_once('=') {
            Some((k, v)) => (k.trim(), Some(v.trim())),
            None => (part, None),
        };
        match kind {
            "accept-delay" => {
                plan.accept_delay = Some(Duration::from_millis(value_of(kind, value)?));
            }
            "mid-response-close" => {
                plan.mid_response_close = Some(value_of(kind, value)?.max(1));
            }
            "torn-write" => plan.torn_write = Some(value_of(kind, value)?.max(1)),
            "slow-loris" => {
                plan.slow_loris = Some(Duration::from_millis(value_of(kind, value)?));
            }
            _ => {
                return Err(CliError::usage(format!(
                    "--fault: unknown fault '{kind}' (expected accept-delay, \
                     mid-response-close, torn-write or slow-loris)"
                )));
            }
        }
    }
    Ok(plan)
}

/// Everything a worker needs to answer requests.
struct ServerState {
    registry: SessionRegistry,
    pool: sdfr_pool::Pool,
    requests: AtomicU64,
    connections: AtomicU64,
    /// Requests served on an already-used keep-alive connection.
    reused: AtomicU64,
    /// Requests that carried the client's `X-Sdfr-Retry` marker.
    retries_observed: AtomicU64,
    /// Responses written, for the mid-response-close fault ordinal.
    responses: AtomicU64,
    max_body: usize,
    io_timeout: Duration,
    max_requests: u64,
    journal: Option<cache::Journal>,
    shard: Option<ShardState>,
    fault: FaultPlan,
}

/// Fleet membership plus the sharding counters `/v1/stats` reports.
struct ShardState {
    /// This process's shard id.
    id: u32,
    /// The ring every fleet member and the routing client agree on.
    map: ShardMap,
    /// Forward mis-routed requests to their owner instead of 421-ing.
    proxy: bool,
    /// Requests rejected with a 421 redirect record.
    misroutes: AtomicU64,
    /// Mis-routed requests forwarded to their owning shard.
    proxied: AtomicU64,
    /// Archive handoffs asked of the ring successor (routed misses).
    handoffs_requested: AtomicU64,
    /// Handoffs that came back with a usable archive (restored warm).
    handoffs_received: AtomicU64,
    /// `GET /v1/archive/<fp>` requests answered with a record.
    handoffs_served: AtomicU64,
}

impl ShardState {
    fn new(opts: ShardOptions) -> ShardState {
        ShardState {
            id: opts.id,
            map: opts.map,
            proxy: opts.proxy,
            misroutes: AtomicU64::new(0),
            proxied: AtomicU64::new(0),
            handoffs_requested: AtomicU64::new(0),
            handoffs_received: AtomicU64::new(0),
            handoffs_served: AtomicU64::new(0),
        }
    }
}

/// The process-wide drain flag: set by `SIGTERM`/`SIGINT` (via the
/// handler below) or by `/shutdown`, polled by the accept loop and the
/// workers. Process-wide state is the honest scope here — signals are.
static DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn drain_on_signal(_sig: i32) {
    // Only an atomic store: the one thing that is async-signal-safe.
    DRAIN.store(true, Ordering::SeqCst);
}

/// Installs `drain_on_signal` for SIGTERM (15) and SIGINT (2) via the
/// C `signal` symbol libc already links — no new dependency, and the
/// non-portable corners of `sigaction` are not needed for one flag.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = drain_on_signal as *const () as usize;
    unsafe {
        signal(15, handler);
        signal(2, handler);
    }
}

/// A bounded MPMC queue of accepted connections. `try_push` never blocks
/// (the accept thread must stay responsive to shed load); `pop` blocks
/// with a periodic drain check so workers notice a signal-initiated drain
/// even when no notification is sent.
struct ConnQueue {
    inner: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    cap: usize,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Enqueues a connection, or hands it back when the queue is full.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.inner.lock().expect("accept queue poisoned");
        if q.len() >= self.cap {
            return Err(stream);
        }
        q.push_back(stream);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the next connection; `None` once draining and empty.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.inner.lock().expect("accept queue poisoned");
        loop {
            if let Some(s) = q.pop_front() {
                return Some(s);
            }
            if DRAIN.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(50))
                .expect("accept queue poisoned");
            q = guard;
        }
    }
}

/// Parses a `--shard ID/N` spec into `(id, n)`.
fn parse_shard_spec(spec: &str) -> Result<(u32, u32), CliError> {
    let bad = || CliError::usage(format!("--shard: '{spec}' is not ID/N (e.g. 0/3)"));
    let (id, n) = spec.split_once('/').ok_or_else(bad)?;
    let id: u32 = id.trim().parse().map_err(|_| bad())?;
    let n: u32 = n.trim().parse().map_err(|_| bad())?;
    if n == 0 {
        return Err(CliError::usage("--shard: the fleet size must be positive"));
    }
    if id >= n {
        return Err(CliError::usage(format!(
            "--shard: id {id} is out of range for a fleet of {n}"
        )));
    }
    Ok((id, n))
}

/// Parses `sdfr serve` arguments (everything after the command word).
fn parse_serve_args(args: &[String]) -> Result<ServeOptions, CliError> {
    let mut opts = ServeOptions {
        addr: "127.0.0.1:7878".to_string(),
        workers: 4,
        queue: 64,
        max_body: 8 * 1024 * 1024,
        io_timeout: Duration::from_secs(10),
        max_requests: 256,
        registry: RegistryConfig::default(),
        budget: crate::budget_from_opts(args)?,
        preload: Vec::new(),
        cache_dir: None,
        cache_compact_bytes: cache::DEFAULT_COMPACT_BYTES,
        shard: None,
        fault: FaultPlan::default(),
    };
    if let Some(addr) = crate::flag_raw(args, "--addr")? {
        opts.addr = addr;
    }
    if let Some(n) = crate::flag_value(args, "--workers")? {
        if n == 0 {
            return Err(CliError::usage("--workers must be a positive integer"));
        }
        opts.workers = usize::try_from(n).unwrap_or(usize::MAX);
    }
    if let Some(n) = crate::flag_value(args, "--queue")? {
        if n == 0 {
            return Err(CliError::usage("--queue must be a positive integer"));
        }
        opts.queue = usize::try_from(n).unwrap_or(usize::MAX);
    }
    if let Some(n) = crate::flag_value(args, "--max-body")? {
        opts.max_body = usize::try_from(n).unwrap_or(usize::MAX);
    }
    if let Some(raw) = crate::flag_raw(args, "--io-timeout")? {
        let d = crate::parse_duration(&raw)
            .map_err(|_| CliError::usage(format!("--io-timeout: '{raw}' is not a duration")))?;
        if d.is_zero() {
            return Err(CliError::usage("--io-timeout must be positive"));
        }
        opts.io_timeout = d;
    }
    if let Some(n) = crate::flag_value(args, "--max-requests")? {
        if n == 0 {
            return Err(CliError::usage("--max-requests must be a positive integer"));
        }
        opts.max_requests = n;
    }
    if let Some(n) = crate::flag_value(args, "--cache-entries")? {
        opts.registry.max_entries = usize::try_from(n).unwrap_or(usize::MAX);
    }
    if let Some(n) = crate::flag_value(args, "--cache-bytes")? {
        opts.registry.max_bytes = n;
    }
    if let Some(dir) = crate::flag_raw(args, "--cache-dir")? {
        opts.cache_dir = Some(dir);
    }
    if let Some(n) = crate::flag_value(args, "--cache-compact-bytes")? {
        if n == 0 {
            return Err(CliError::usage(
                "--cache-compact-bytes must be a positive integer",
            ));
        }
        opts.cache_compact_bytes = n;
    }
    if let Some(spec) = crate::flag_raw(args, "--fault")? {
        opts.fault = parse_fault_plan(&spec)?;
    }
    let shard_spec = crate::flag_raw(args, "--shard")?;
    let peer_spec = crate::flag_raw(args, "--peers")?;
    let misroute_spec = crate::flag_raw(args, "--misroute")?;
    match (shard_spec, peer_spec) {
        (None, None) => {
            if misroute_spec.is_some() {
                return Err(CliError::usage("--misroute requires --shard and --peers"));
            }
        }
        (Some(_), None) => return Err(CliError::usage("--shard requires --peers")),
        (None, Some(_)) => return Err(CliError::usage("--peers requires --shard ID/N")),
        (Some(shard), Some(peers)) => {
            let (id, n) = parse_shard_spec(&shard)?;
            let peers: Vec<String> = peers.split(',').map(|p| p.trim().to_string()).collect();
            if peers.len() != n as usize {
                return Err(CliError::usage(format!(
                    "--peers lists {} address(es) for a fleet of {n}",
                    peers.len()
                )));
            }
            let map = ShardMap::new(peers).map_err(|e| CliError::usage(format!("--peers: {e}")))?;
            let proxy = match misroute_spec.as_deref() {
                None | Some("reject") => false,
                Some("proxy") => true,
                Some(other) => {
                    return Err(CliError::usage(format!(
                        "--misroute: '{other}' is not 'reject' or 'proxy'"
                    )));
                }
            };
            opts.shard = Some(ShardOptions { id, map, proxy });
        }
    }
    let value_flags = [
        "--addr",
        "--workers",
        "--queue",
        "--max-body",
        "--io-timeout",
        "--max-requests",
        "--cache-entries",
        "--cache-bytes",
        "--cache-dir",
        "--cache-compact-bytes",
        "--shard",
        "--peers",
        "--misroute",
        "--fault",
        "--deadline",
        "--max-firings",
        "--max-size",
    ];
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if value_flags.contains(&arg) {
            i += 2;
            continue;
        }
        if arg.starts_with('-') {
            return Err(CliError::usage(format!("serve: unknown option '{arg}'")));
        }
        opts.preload.push(arg.to_string());
        i += 1;
    }
    Ok(opts)
}

/// Runs the server until a drain completes; returns the final report line
/// (the "listening on" line is printed — and flushed — immediately, so
/// wrappers reading a pipe can learn the ephemeral port). With
/// `--cache-dir`, the journal is replayed and restored into the registry
/// *before* the listening line, so by the time a wrapper can connect the
/// cache is warm.
pub(crate) fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let opts = parse_serve_args(args)?;
    DRAIN.store(false, Ordering::SeqCst);
    let listener = TcpListener::bind(&opts.addr)
        .map_err(|e| CliError::io(format!("serve: cannot bind {}: {e}", opts.addr)))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError::io(format!("serve: cannot poll the listener: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::io(format!("serve: no local address: {e}")))?;

    let shard_coord = opts.shard.as_ref().map(|s| (s.id, s.map.len() as u32));
    let mut journal = None;
    let mut replayed = Vec::new();
    if let Some(dir) = &opts.cache_dir {
        let (j, records) = cache::Journal::open(
            Path::new(dir),
            opts.fault.torn_write,
            opts.cache_compact_bytes,
            shard_coord,
        )?;
        journal = Some(j);
        replayed = records;
    }

    let threads = sdfr_pool::default_threads();
    let state = Arc::new(ServerState {
        registry: SessionRegistry::with_config(opts.registry),
        pool: sdfr_pool::Pool::new(threads),
        requests: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        reused: AtomicU64::new(0),
        retries_observed: AtomicU64::new(0),
        responses: AtomicU64::new(0),
        max_body: opts.max_body,
        io_timeout: opts.io_timeout,
        max_requests: opts.max_requests,
        journal,
        shard: opts.shard.clone().map(ShardState::new),
        fault: opts.fault.clone(),
    });
    if let Some(shard) = &state.shard {
        eprintln!(
            "sdfr serve: shard {}/{} ({}), peers {:?}, mis-routes are {}",
            shard.id,
            shard.map.len(),
            shard.map.peer(shard.id),
            shard.map.peers(),
            if shard.proxy { "proxied" } else { "rejected" }
        );
    }

    if let Some(journal) = &state.journal {
        state
            .pool
            .install(|| journal.restore_into(&replayed, &state.registry));
        let stats = journal.stats();
        if stats.loaded > 0 || stats.rejected > 0 {
            eprintln!(
                "sdfr serve: cache journal: restored {} session(s), rejected {}",
                stats.loaded, stats.rejected
            );
        }
    }

    println!("sdfr serve: listening on {local}");
    let _ = std::io::stdout().flush();
    install_signal_handlers();

    if !opts.preload.is_empty() {
        let graphs: Vec<_> = opts
            .preload
            .iter()
            .filter_map(|path| match crate::load_graph(path) {
                Ok(g) => Some(Arc::new(g)),
                Err(e) => {
                    eprintln!("sdfr serve: skipping preload {path}: {e}");
                    None
                }
            })
            .collect();
        let warmed = state
            .pool
            .install(|| state.registry.prefetch(&graphs, &opts.budget))
            .len();
        eprintln!("sdfr serve: prefetched {warmed} graph(s)");
    }

    let queue = Arc::new(ConnQueue::new(opts.queue));
    let workers: Vec<_> = (0..opts.workers)
        .map(|_| {
            let state = Arc::clone(&state);
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                while let Some(stream) = queue.pop() {
                    handle_connection(stream, &state);
                }
            })
        })
        .collect();

    while !DRAIN.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Some(delay) = opts.fault.accept_delay {
                    std::thread::sleep(delay);
                }
                if let Err(stream) = queue.try_push(stream) {
                    // Load shedding: answer inline from the accept thread —
                    // the whole point is not to wait for a worker.
                    shed(stream, &state);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    // Drain: stop accepting (drop closes the listening socket now, so the
    // port frees before the last responses finish), let the workers empty
    // the queue, then report.
    drop(listener);
    queue.ready.notify_all();
    for w in workers {
        let _ = w.join();
    }
    Ok(format!(
        "sdfr serve: drained after {} request(s)\n",
        state.requests.load(Ordering::Relaxed)
    ))
}

/// Answers a shed connection with `429` + `Retry-After: 1` (or `503` with
/// code `draining` once a drain began) without blocking the accept loop on
/// a slow reader: a short write timeout and no request parsing.
fn shed(mut stream: TcpStream, state: &ServerState) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let draining = DRAIN.load(Ordering::SeqCst);
    let body = if draining {
        ErrorBody::new(
            "draining",
            "the server is draining; connect elsewhere",
            EXIT_IO,
        )
    } else {
        ErrorBody::new(
            "overloaded",
            format!(
                "the accept queue is full ({} handled so far); retry shortly",
                state.requests.load(Ordering::Relaxed)
            ),
            EXIT_IO,
        )
    };
    let status = if draining { 503 } else { 429 };
    respond(&mut stream, status, &(body.to_json() + "\n"), true, state);
}

/// What [`next_request`] found on the connection.
enum NextRequest {
    /// One complete request, consumed from the buffer.
    Request(http::Request),
    /// Close silently: clean EOF or idle-timeout between requests, a broken
    /// socket, or a drain with nothing buffered.
    Close,
    /// Answer this error and close: the stream position is untrustworthy.
    Error((u16, ErrorBody)),
}

/// Reads the next request off a keep-alive connection. `buf` carries
/// pipelined bytes between calls; a fresh `--io-timeout` deadline covers
/// this request only. Reads happen in short slices so the worker notices a
/// drain within ~50ms even on an idle connection.
fn next_request(stream: &mut TcpStream, buf: &mut Vec<u8>, state: &ServerState) -> NextRequest {
    let deadline = Instant::now() + state.io_timeout;
    let mut chunk = [0u8; 4096];
    loop {
        // Parse before reading: a pipelined request already in the buffer
        // is answered without touching the socket.
        match http::parse_request(buf, state.max_body) {
            Ok(Parsed::Complete(req)) => {
                buf.drain(..req.consumed);
                return NextRequest::Request(req);
            }
            Ok(Parsed::Partial) => {}
            Err(failure) => return NextRequest::Error(failure),
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            // Out of time: an idle connection just expired (normal
            // keep-alive lifecycle, close silently); a half-request is a
            // stall and earns the structured 408.
            return if buf.is_empty() {
                NextRequest::Close
            } else {
                NextRequest::Error(http::timeout_failure())
            };
        }
        // During a drain, still *try* to read: a queued connection's
        // request is already sitting in the socket buffer and must be
        // served (closing unread bytes would RST the client). Only a read
        // that comes back empty-handed ends the connection early.
        let draining = DRAIN.load(Ordering::SeqCst);
        let slice = if draining {
            Duration::from_millis(10)
        } else {
            remaining.min(Duration::from_millis(50))
        };
        let _ = stream.set_read_timeout(Some(slice.max(Duration::from_millis(1))));
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    NextRequest::Close
                } else {
                    NextRequest::Error(http::truncation_failure())
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if draining && buf.is_empty() {
                    return NextRequest::Close;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return NextRequest::Close,
        }
    }
}

/// Serves one connection: a keep-alive loop of read → route
/// (panic-isolated) → respond, until the client closes, errs, hits the
/// per-connection request cap, or a drain begins.
fn handle_connection(mut stream: TcpStream, state: &ServerState) {
    state.connections.fetch_add(1, Ordering::Relaxed);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut served: u64 = 0;
    loop {
        let req = match next_request(&mut stream, &mut buf, state) {
            NextRequest::Request(req) => req,
            NextRequest::Close => return,
            NextRequest::Error((status, err)) => {
                respond(&mut stream, status, &(err.to_json() + "\n"), true, state);
                return;
            }
        };
        served += 1;
        if served > 1 {
            state.reused.fetch_add(1, Ordering::Relaxed);
        }
        if req.retry {
            state.retries_observed.fetch_add(1, Ordering::Relaxed);
        }
        state.requests.fetch_add(1, Ordering::Relaxed);
        let (status, body) = match catch_unwind(AssertUnwindSafe(|| {
            route(&req.method, &req.path, &req.body, req.failover, state)
        })) {
            Ok(response) => response,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                error_response(
                    500,
                    "internal",
                    format!("request handler panicked: {msg}"),
                    EXIT_PANIC,
                )
            }
        };
        // After a panic the handler's internal state is suspect; after the
        // cap or during a drain the connection has done its share.
        let close = req.close
            || status == 500
            || served >= state.max_requests
            || DRAIN.load(Ordering::SeqCst);
        if !respond(&mut stream, status, &body, close, state) || close {
            return;
        }
    }
}

/// Routes one parsed request to its handler. `failover` is the client's
/// `X-Sdfr-Failover` marker: it disarms the sharded mis-route check so a
/// ring successor serves fingerprints it does not own while the owner is
/// down.
fn route(
    method: &str,
    path: &str,
    body: &str,
    failover: bool,
    state: &ServerState,
) -> (u16, String) {
    let wrong_method = |allowed: &str| {
        error_response(
            405,
            "method-not-allowed",
            format!("{path} only answers {allowed}"),
            EXIT_USAGE,
        )
    };
    if let Some(fp) = path.strip_prefix("/v1/archive/") {
        if method != "GET" {
            return wrong_method("GET");
        }
        return handle_archive(fp, state);
    }
    match path {
        "/v1/analyze" | "/v1/batch" | "/v1/csdf" | "/v1/sadf" => {
            if method != "POST" {
                return wrong_method("POST");
            }
            handle_workload(path, body, failover, state)
        }
        "/v1/stats" | "/stats" => {
            if method != "GET" {
                return wrong_method("GET");
            }
            (200, stats_body(state))
        }
        "/metrics" => {
            if method != "GET" {
                return wrong_method("GET");
            }
            (200, metrics_body(state))
        }
        "/shutdown" | "/v1/shutdown" => {
            if method != "POST" {
                return wrong_method("POST");
            }
            DRAIN.store(true, Ordering::SeqCst);
            (
                200,
                format!("{{\"schema\":\"{SCHEMA}\",\"draining\":true,\"exit\":0}}\n"),
            )
        }
        _ => error_response(
            404,
            "not-found",
            format!("no such endpoint: {path}"),
            EXIT_IO,
        ),
    }
}

/// A request-level failure as a response: an [`ErrorBody`] line.
fn error_response(
    status: u16,
    code: &'static str,
    message: impl Into<String>,
    exit: i32,
) -> (u16, String) {
    (status, ErrorBody::new(code, message, exit).to_json() + "\n")
}

/// `/v1/analyze`, `/v1/batch`, `/v1/csdf` and `/v1/sadf`: one handler;
/// the last two are aliases that fix the workload kind. It parses the
/// request, decides and parses every source once (the sharded mis-route
/// check reuses those fingerprints), analyses every `(source, tier)` unit
/// **sequentially in index order** through the shared registry
/// (deterministic cache attribution — a fresh server's first batch
/// response is byte-identical to `sdfr batch --stable`), offers each unit
/// to the cache journal, and renders the record lines. `/v1/analyze`
/// takes exactly one source; only `/v1/batch` honours tiers and appends a
/// summary.
///
/// The batch summary embeds the *whole* registry's counters, cumulative
/// across invocations — that is the feature, not an accounting bug; `/v1/
/// stats` reads the same counters.
fn handle_workload(path: &str, body: &str, failover: bool, state: &ServerState) -> (u16, String) {
    let req = match parse_request(body) {
        Ok(req) => req,
        Err(response) => return response,
    };
    let bad_request = |message: String| error_response(400, "bad-request", message, EXIT_USAGE);
    let is_batch = path == "/v1/batch";
    if path == "/v1/analyze" && (req.graphs.len() != 1 || !req.tiers.is_empty()) {
        return bad_request(
            "/v1/analyze takes exactly one graph and no tiers; use /v1/batch".to_string(),
        );
    }
    // The cyclo-static and scenario routes are the aliases that fix a kind.
    let fixed = [WorkloadKind::Csdf, WorkloadKind::Sadf]
        .into_iter()
        .find(|&kind| workload::route(kind) == path);
    let tagged = req.tagged.then_some(req.kind);
    let mut sources = Vec::with_capacity(req.graphs.len());
    for g in &req.graphs {
        let kind = match workload::unit_kind(fixed, tagged, &g.name) {
            Ok(kind) => kind,
            Err(e) => return bad_request(format!("{path}: {}", e.message)),
        };
        if is_batch && kind == WorkloadKind::Csdf {
            // Cyclo-static records carry no "index" for a sharded client
            // to merge batch streams on.
            return bad_request("/v1/batch serves sdf and sadf workloads; use /v1/csdf".into());
        }
        sources.push((kind, workload::parse_source(kind, &g.name, &g.content)));
    }
    if let Some(shard) = &state.shard {
        if !failover {
            let fingerprints: Vec<u64> = sources
                .iter()
                .filter_map(|(_, source)| source.as_ref().ok()?.fingerprint())
                .collect();
            if let Some(response) = shard_check(shard, &fingerprints, path, body, state) {
                return response;
            }
        }
    }
    let base = req.caps_budget();
    let deadline = req.wait_deadline().map(|d| Instant::now() + d);
    let tiers: Vec<Option<u64>> = if is_batch && !req.tiers.is_empty() {
        req.tiers.iter().map(|&t| Some(t)).collect()
    } else {
        vec![None]
    };

    let mut analyzed = Vec::with_capacity(sources.len() * tiers.len());
    let mut handoff_probed = std::collections::HashSet::new();
    for (g, (kind, source)) in req.graphs.iter().zip(&sources) {
        // A routed miss on a fingerprint this shard *owns* first asks the
        // ring successor for a warm archive: after a failover episode (or
        // a ring change) the warmth lives one hop away, and importing it
        // beats recomputing the symbolic iteration.
        let fp = source.as_ref().ok().and_then(workload::Source::fingerprint);
        if let (Some(shard), Some(fp)) = (&state.shard, fp) {
            if shard.map.owner(fp) == shard.id
                && handoff_probed.insert(fp)
                && state.registry.find_by_fingerprint(fp).is_none()
            {
                try_handoff(state, shard, fp);
            }
        }
        for &tier in &tiers {
            // The record's index: the caller's global position when the
            // routing client split one logical batch across shards,
            // otherwise our own running count.
            let index = analyzed.len();
            let batch_fields = is_batch.then(|| {
                let global = req.indices.as_ref().map_or(index, |indices| indices[index]);
                (global, tier)
            });
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            // install() makes any nested analysis fan-out cooperate with
            // the server's pool instead of spawning per-request threads.
            let unit = state.pool.install(|| {
                workload::analyze_unit(
                    *kind,
                    batch_fields,
                    &g.name,
                    source,
                    &state.registry,
                    &base,
                    remaining,
                )
            });
            persist(state, g, &unit);
            analyzed.push(unit);
        }
    }

    let mut out = String::new();
    for unit in &analyzed {
        out.push_str(&unit.to_json_line());
        out.push('\n');
    }
    let exit = analyzed.iter().map(|u| u.record.exit).max().unwrap_or(0);
    if is_batch {
        let summary = batch::summarize(analyzed.iter(), state.registry.stats());
        out.push_str(&summary.to_json_line());
        out.push('\n');
    }
    (http_status_for_exit(exit), out)
}

/// Offers the registry sessions a unit went through to the cache journal;
/// [`cache::record_for`] skips the ones without an exportable headline
/// (still cold, or a deadline-bound pending answer whose warmer has not
/// landed yet — a later request for the content persists it). A plain
/// graph is journalled under the request's own name and content; a
/// scenario session under its graph's canonical text, exactly what a plain
/// request for that scenario would persist, so a restarted server comes
/// up warm for the whole workload family.
fn persist(state: &ServerState, source: &GraphSource, unit: &AnalyzedUnit) {
    let Some(journal) = &state.journal else {
        return;
    };
    for session in &unit.sessions {
        let record = if unit.record.workload_kind == WorkloadKind::Sdf {
            cache::record_for(&source.name, &source.content, session)
        } else {
            let graph = session.graph();
            cache::record_for(graph.name(), &sdfr_io::text::to_text(graph), session)
        };
        if let Some(record) = record {
            journal.persist(&record);
        }
    }
    journal.maybe_compact(&state.registry);
}

/// The sharded mis-route check: every source fingerprint in the request
/// must be owned by this shard. Returns `None` when the request may be
/// served here, or the response to send instead:
///
/// - `--misroute proxy` and every fingerprint owned by one *other* shard:
///   the whole body is forwarded there and its answer relayed (a proxy
///   failure degrades to 503 so the client's failover takes over);
/// - otherwise any foreign fingerprint earns a 421 with a
///   [`RedirectRecord`] naming its owner.
///
/// Unparseable graphs and cyclo-static or scenario sources have no
/// fingerprint and are served anywhere — the routing client places them
/// by content hash, and their records are shard-independent bytes.
fn shard_check(
    shard: &ShardState,
    fingerprints: &[u64],
    path: &str,
    body: &str,
    state: &ServerState,
) -> Option<(u16, String)> {
    let owners: Vec<(u64, u32)> = fingerprints
        .iter()
        .map(|&fp| (fp, shard.map.owner(fp)))
        .collect();
    let foreign: Vec<(u64, u32)> = owners
        .iter()
        .copied()
        .filter(|&(_, o)| o != shard.id)
        .collect();
    let &(first_fp, first_owner) = foreign.first()?;
    if shard.proxy && owners.iter().all(|&(_, o)| o == first_owner) {
        // Whole request belongs to one other shard: forward it verbatim.
        shard.proxied.fetch_add(1, Ordering::Relaxed);
        let peer = shard.map.peer(first_owner);
        return Some(
            match http_fetch(peer, "POST", path, body, state.io_timeout) {
                Ok((status, relayed)) => (status, relayed),
                Err(e) => error_response(
                    503,
                    "misrouted",
                    format!("cannot proxy to owning shard {first_owner} ({peer}): {e}"),
                    EXIT_IO,
                ),
            },
        );
    }
    shard.misroutes.fetch_add(1, Ordering::Relaxed);
    let record = RedirectRecord {
        fingerprint: first_fp,
        shard: shard.id,
        owner: first_owner,
        peer: shard.map.peer(first_owner).to_string(),
    };
    Some((421, record.to_json() + "\n"))
}

/// `GET /v1/archive/<fp>`: exports the warmest resident session for a
/// fingerprint as one `sdfr-cache/1` record — graph content regenerated
/// from the session's graph, headline artifacts, engine checkpoint if one
/// exists. The receiving shard re-verifies the fingerprint and rebuilds
/// the session through exactly the journal-replay path, so a handoff can
/// never inject state a local computation would not have produced.
fn handle_archive(fp: &str, state: &ServerState) -> (u16, String) {
    let Ok(fingerprint) = u64::from_str_radix(fp, 16) else {
        return error_response(
            400,
            "bad-request",
            format!("'{fp}' is not a hexadecimal fingerprint"),
            EXIT_USAGE,
        );
    };
    let miss = || {
        error_response(
            404,
            "not-found",
            format!("no warm session for fingerprint {fingerprint:016x}"),
            EXIT_IO,
        )
    };
    let Some(session) = state.registry.find_by_fingerprint(fingerprint) else {
        return miss();
    };
    let content = sdfr_io::text::to_text(session.graph());
    let name = format!("{fingerprint:016x}.sdf");
    let Some(record) = cache::record_for(&name, &content, &session) else {
        return miss(); // still cold, or a non-exportable outcome
    };
    if let Some(shard) = &state.shard {
        shard.handoffs_served.fetch_add(1, Ordering::Relaxed);
    }
    (200, record.to_json_line() + "\n")
}

/// Asks the ring successor for a warm archive of `fp` and restores it
/// into the registry. Failures are silent beyond the counters — the unit
/// is computed locally either way; a handoff only changes how fast.
fn try_handoff(state: &ServerState, shard: &ShardState, fp: u64) {
    let Some(donor) = shard.map.successor(fp) else {
        return;
    };
    shard.handoffs_requested.fetch_add(1, Ordering::Relaxed);
    let peer = shard.map.peer(donor);
    let path = format!("/v1/archive/{fp:016x}");
    let reply = http_fetch(peer, "GET", &path, "", Duration::from_millis(1500));
    let Ok((200, body)) = reply else {
        return; // donor down, cold, or slow: compute locally
    };
    let Ok(record) = CacheRecord::from_json_line(body.lines().next().unwrap_or("")) else {
        return;
    };
    if record.fingerprint != fp {
        return; // a confused donor does not get to seed our cache
    }
    let Ok((session, _)) = cache::rebuild_session(&record) else {
        return;
    };
    if state.registry.restore(session) {
        shard.handoffs_received.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "sdfr serve: shard {}: warm handoff of {fp:016x} from shard {donor} ({peer})",
            shard.id
        );
    }
}

/// A one-shot HTTP exchange with a fleet peer: the transport under
/// proxying and archive handoff. It is the client's exchange without the
/// retries — fleet-internal calls fail fast within `timeout` and fall back
/// to local computation.
fn http_fetch(
    peer: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<(u16, String), String> {
    use std::net::ToSocketAddrs;
    let addr = peer
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {peer}: {e}"))?
        .next()
        .ok_or_else(|| format!("cannot resolve {peer}: no address"))?;
    let stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    let policy = client::RetryPolicy {
        retries: 0,
        budget: timeout,
        bounded_reads: true,
    };
    let (status, _, payload) =
        client::exchange(stream, peer, method, path, body, 0, false, &policy)?;
    Ok((status, payload))
}

/// Parses and validates an [`AnalysisRequest`] body, mapping the three
/// rejection classes to their `ErrorBody` codes. An unsupported workload
/// kind additionally carries the machine-readable `"supported"` token
/// list, so a newer client can tell "old server" from "typo".
fn parse_request(body: &str) -> Result<AnalysisRequest, (u16, String)> {
    AnalysisRequest::from_json(body).map_err(|e| {
        let body = match e {
            RequestError::UnsupportedSchema(m) => {
                ErrorBody::new("unsupported-schema", m, EXIT_USAGE)
            }
            RequestError::UnsupportedKind(m) => ErrorBody::new("unsupported-kind", m, EXIT_USAGE)
                .with_supported(sdfr_api::WorkloadKind::SUPPORTED),
            RequestError::Malformed(m) => ErrorBody::new("bad-request", m, EXIT_USAGE),
        };
        (400, body.to_json() + "\n")
    })
}

/// The `/v1/stats` document: the registry and pool counters in their one
/// canonical serialization, plus the request/connection counts, the
/// journal counters (zero without `--cache-dir`), the observed-retry
/// count, and the drain flag.
fn stats_body(state: &ServerState) -> String {
    let journal = state
        .journal
        .as_ref()
        .map(|j| j.stats())
        .unwrap_or_default();
    let registry = state.registry.stats();
    // The shard block exists only on sharded servers, so a single-process
    // `sdfr serve` emits byte-identical stats to every earlier release —
    // the fleet CI job diffs cluster output against a lone server.
    let shard = state.shard.as_ref().map_or_else(String::new, |s| {
        format!(
            ",\"shard\":{{\"id\":{},\"of\":{},\"misroutes\":{},\"proxied\":{},\
             \"handoffs_requested\":{},\"handoffs_received\":{},\"handoffs_served\":{}}}",
            s.id,
            s.map.len(),
            s.misroutes.load(Ordering::Relaxed),
            s.proxied.load(Ordering::Relaxed),
            s.handoffs_requested.load(Ordering::Relaxed),
            s.handoffs_received.load(Ordering::Relaxed),
            s.handoffs_served.load(Ordering::Relaxed),
        )
    });
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"registry\":{},\"pool\":{},\"requests\":{},\
         \"connections\":{{\"handled\":{},\"reused_requests\":{}}},\
         \"persistence\":{{\"journal_loaded\":{},\"journal_rejected\":{},\"journal_appended\":{}}},\
         \"incremental\":{{\"near_hits\":{},\"checkpoints_persisted\":{},\
         \"checkpoints_restored\":{},\"compactions\":{}}},\
         \"retries_observed\":{},\"draining\":{}{shard}}}\n",
        registry_stats_json(&registry),
        pool_stats_json(&state.pool.stats()),
        state.requests.load(Ordering::Relaxed),
        state.connections.load(Ordering::Relaxed),
        state.reused.load(Ordering::Relaxed),
        journal.loaded,
        journal.rejected,
        journal.appended,
        registry.near_hits,
        journal.checkpoints_persisted,
        journal.checkpoints_restored,
        journal.compactions,
        state.retries_observed.load(Ordering::Relaxed),
        DRAIN.load(Ordering::SeqCst)
    )
}

/// Appends one metric in the Prometheus text exposition format: a `# HELP`
/// line, a `# TYPE` line, and the sample itself.
fn prom(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

/// `GET /metrics`: the `/v1/stats` counters rendered as Prometheus text.
/// A pure formatter — every sample reads the same snapshots `/v1/stats`
/// serializes, so the two endpoints can never disagree about a value.
fn metrics_body(state: &ServerState) -> String {
    let registry = state.registry.stats();
    let pool = state.pool.stats();
    let journal = state
        .journal
        .as_ref()
        .map(|j| j.stats())
        .unwrap_or_default();
    let mut out = String::new();
    let o = &mut out;
    prom(
        o,
        "sdfr_registry_hits_total",
        "counter",
        "Warm registry lookups",
        registry.hits,
    );
    prom(
        o,
        "sdfr_registry_misses_total",
        "counter",
        "Cold registry lookups",
        registry.misses,
    );
    prom(
        o,
        "sdfr_registry_bypasses_total",
        "counter",
        "Lookups that bypassed the registry",
        registry.bypasses,
    );
    prom(
        o,
        "sdfr_registry_collisions_total",
        "counter",
        "Fingerprint collisions detected",
        registry.collisions,
    );
    prom(
        o,
        "sdfr_registry_evictions_total",
        "counter",
        "Sessions evicted by capacity limits",
        registry.evictions,
    );
    prom(
        o,
        "sdfr_registry_near_hits_total",
        "counter",
        "Misses seeded from a family member's engine checkpoint",
        registry.near_hits,
    );
    prom(
        o,
        "sdfr_registry_entries",
        "gauge",
        "Resident registry sessions",
        registry.entries as u64,
    );
    prom(
        o,
        "sdfr_registry_bytes_estimate",
        "gauge",
        "Estimated resident session bytes",
        registry.bytes_estimate,
    );
    prom(
        o,
        "sdfr_registry_symbolic_iterations_total",
        "counter",
        "Symbolic iterations executed",
        registry.symbolic_iterations,
    );
    prom(
        o,
        "sdfr_pool_threads",
        "gauge",
        "Worker pool executors",
        pool.threads as u64,
    );
    prom(
        o,
        "sdfr_pool_spawned_total",
        "counter",
        "Tasks spawned on the pool",
        pool.spawned,
    );
    prom(
        o,
        "sdfr_pool_stolen_total",
        "counter",
        "Tasks stolen across workers",
        pool.stolen,
    );
    prom(
        o,
        "sdfr_pool_executed_total",
        "counter",
        "Tasks executed to completion",
        pool.executed,
    );
    prom(
        o,
        "sdfr_requests_total",
        "counter",
        "HTTP requests served",
        state.requests.load(Ordering::Relaxed),
    );
    prom(
        o,
        "sdfr_connections_handled_total",
        "counter",
        "Connections accepted",
        state.connections.load(Ordering::Relaxed),
    );
    prom(
        o,
        "sdfr_connections_reused_requests_total",
        "counter",
        "Keep-alive requests beyond each connection's first",
        state.reused.load(Ordering::Relaxed),
    );
    prom(
        o,
        "sdfr_journal_loaded_total",
        "counter",
        "Sessions restored from the cache journal",
        journal.loaded,
    );
    prom(
        o,
        "sdfr_journal_rejected_total",
        "counter",
        "Journal records rejected",
        journal.rejected,
    );
    prom(
        o,
        "sdfr_journal_appended_total",
        "counter",
        "Journal records appended",
        journal.appended,
    );
    prom(
        o,
        "sdfr_journal_compactions_total",
        "counter",
        "Journal compaction rewrites",
        journal.compactions,
    );
    prom(
        o,
        "sdfr_checkpoints_persisted_total",
        "counter",
        "Appended records carrying an engine checkpoint",
        journal.checkpoints_persisted,
    );
    prom(
        o,
        "sdfr_checkpoints_restored_total",
        "counter",
        "Restored sessions with an attached engine checkpoint",
        journal.checkpoints_restored,
    );
    prom(
        o,
        "sdfr_retries_observed_total",
        "counter",
        "Requests flagged as client retries",
        state.retries_observed.load(Ordering::Relaxed),
    );
    prom(
        o,
        "sdfr_draining",
        "gauge",
        "1 while the server is draining",
        u64::from(DRAIN.load(Ordering::SeqCst)),
    );
    // Like `/v1/stats`, shard metrics appear only on sharded servers so a
    // lone server's exposition stays byte-identical across releases.
    if let Some(shard) = &state.shard {
        prom(
            o,
            "sdfr_shard_id",
            "gauge",
            "This server's shard id",
            u64::from(shard.id),
        );
        prom(
            o,
            "sdfr_shard_count",
            "gauge",
            "Shards in the fleet map",
            shard.map.len() as u64,
        );
        prom(
            o,
            "sdfr_shard_misroutes_total",
            "counter",
            "Requests rejected with a 421 redirect",
            shard.misroutes.load(Ordering::Relaxed),
        );
        prom(
            o,
            "sdfr_shard_proxied_total",
            "counter",
            "Mis-routed requests forwarded to their owner",
            shard.proxied.load(Ordering::Relaxed),
        );
        prom(
            o,
            "sdfr_shard_handoffs_requested_total",
            "counter",
            "Warm-archive fetches attempted from the ring successor",
            shard.handoffs_requested.load(Ordering::Relaxed),
        );
        prom(
            o,
            "sdfr_shard_handoffs_received_total",
            "counter",
            "Warm archives restored from a peer",
            shard.handoffs_received.load(Ordering::Relaxed),
        );
        prom(
            o,
            "sdfr_shard_handoffs_served_total",
            "counter",
            "Warm archives exported to a peer",
            shard.handoffs_served.load(Ordering::Relaxed),
        );
    }
    out
}

/// Writes one complete HTTP/1.1 response under the `--io-timeout` write
/// deadline, honouring the negotiated `Connection` disposition. Returns
/// `false` when the connection is no longer usable (write failure,
/// deadline, or an injected fault) so the keep-alive loop stops. Write
/// errors are not reported to anyone — the client is gone, and the
/// connection closes either way.
fn respond(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    close: bool,
    state: &ServerState,
) -> bool {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    };
    let retry_after = if status == 429 || status == 503 {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    let connection = if close { "close" } else { "keep-alive" };
    // `/metrics` is the one non-JSON body; Prometheus scrapers expect the
    // text exposition content type.
    let content_type = if body.starts_with("# HELP ") {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n{retry_after}Connection: {connection}\r\n\r\n",
        body.len()
    );
    let n = state.responses.fetch_add(1, Ordering::Relaxed) + 1;
    if state.fault.mid_response_close == Some(n) {
        // Fault injection: ship the head and half the body, then hard-close
        // — what a crash between write(2) calls looks like from outside.
        let half = &body.as_bytes()[..body.len() / 2];
        let _ = write_with_deadline(stream, head.as_bytes(), state.io_timeout);
        let _ = write_with_deadline(stream, half, state.io_timeout);
        let _ = stream.shutdown(std::net::Shutdown::Both);
        eprintln!("sdfr serve: fault: closed the connection mid-response #{n}");
        return false;
    }
    if !write_with_deadline(stream, head.as_bytes(), state.io_timeout) {
        return false;
    }
    if let Some(stall) = state.fault.slow_loris {
        // Fault injection: a server that dribbles its response, for
        // exercising client-side read budgets.
        std::thread::sleep(stall);
    }
    write_with_deadline(stream, body.as_bytes(), state.io_timeout) && !close
}

/// Writes `bytes` completely within `timeout`, shrinking the socket write
/// timeout as the deadline approaches so a slow-reading client cannot pin
/// a worker past `--io-timeout`.
fn write_with_deadline(stream: &mut TcpStream, mut bytes: &[u8], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while !bytes.is_empty() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return false;
        }
        let _ = stream.set_write_timeout(Some(remaining.max(Duration::from_millis(1))));
        match stream.write(bytes) {
            Ok(0) => return false,
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    stream.flush().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state() -> ServerState {
        ServerState {
            registry: SessionRegistry::new(),
            pool: sdfr_pool::Pool::new(1),
            requests: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            retries_observed: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            max_body: 1024,
            io_timeout: Duration::from_secs(1),
            max_requests: 256,
            journal: None,
            fault: FaultPlan::default(),
            shard: None,
        }
    }

    /// A sharded `test_state` with `id` of `n` peers (the peers are never
    /// dialled — handoff and proxy failures degrade gracefully, which is
    /// itself part of what these tests exercise).
    fn sharded_state(id: u32, n: usize, proxy: bool) -> ServerState {
        let peers = (0..n).map(|i| format!("127.0.0.1:{}", 9800 + i)).collect();
        let mut state = test_state();
        state.shard = Some(ShardState::new(ShardOptions {
            id,
            map: ShardMap::new(peers).unwrap(),
            proxy,
        }));
        state
    }

    #[test]
    fn queue_depth_is_a_cap_not_an_allocation() {
        // `--queue` bounds the depth in `try_push`; nothing is reserved up
        // front, so even the largest depth starts empty and cheap.
        let queue = ConnQueue::new(usize::MAX);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(queue.try_push(accepted).is_ok());
        let popped = queue.pop().expect("the queued connection");
        assert_eq!(popped.peer_addr().unwrap(), client.local_addr().unwrap());
    }

    #[test]
    fn serve_args_parse_and_reject() {
        let to_args = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let opts = parse_serve_args(&to_args(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "5",
            "--max-body",
            "1024",
            "--io-timeout",
            "500ms",
            "--max-requests",
            "3",
            "--cache-dir",
            "/tmp/sdfr-cache",
            "pre.sdf",
        ]))
        .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:0");
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.queue, 5);
        assert_eq!(opts.max_body, 1024);
        assert_eq!(opts.io_timeout, Duration::from_millis(500));
        assert_eq!(opts.max_requests, 3);
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/sdfr-cache"));
        assert_eq!(opts.preload, vec!["pre.sdf"]);
        assert!(parse_serve_args(&to_args(&["--workers", "0"])).is_err());
        assert!(parse_serve_args(&to_args(&["--queue", "0"])).is_err());
        assert!(parse_serve_args(&to_args(&["--max-requests", "0"])).is_err());
        assert!(parse_serve_args(&to_args(&["--io-timeout", "never"])).is_err());
        assert!(parse_serve_args(&to_args(&["--bogus"])).is_err());
    }

    #[test]
    fn fault_plans_parse_and_reject() {
        assert_eq!(parse_fault_plan("").unwrap(), FaultPlan::default());
        let plan =
            parse_fault_plan("accept-delay=250, mid-response-close=2,torn-write=1,slow-loris=900")
                .unwrap();
        assert_eq!(plan.accept_delay, Some(Duration::from_millis(250)));
        assert_eq!(plan.mid_response_close, Some(2));
        assert_eq!(plan.torn_write, Some(1));
        assert_eq!(plan.slow_loris, Some(Duration::from_millis(900)));
        assert!(parse_fault_plan("explode").is_err());
        assert!(parse_fault_plan("slow-loris").is_err(), "missing value");
        assert!(parse_fault_plan("torn-write=soon").is_err());
        let args = vec!["--fault".to_string(), "torn-write=1".to_string()];
        assert_eq!(parse_serve_args(&args).unwrap().fault.torn_write, Some(1));
    }

    #[test]
    fn routing_rejects_unknown_and_mismatched() {
        let state = test_state();
        let (status, body) = route("GET", "/nope", "", false, &state);
        assert_eq!(status, 404);
        assert!(body.contains("\"code\":\"not-found\""));
        let (status, body) = route("GET", "/v1/analyze", "", false, &state);
        assert_eq!(status, 405);
        assert!(body.contains("\"code\":\"method-not-allowed\""));
        let (status, body) = route("POST", "/v1/analyze", "{", false, &state);
        assert_eq!(status, 400);
        assert!(body.contains("\"code\":\"bad-request\""));
        let (status, body) = route(
            "POST",
            "/v1/analyze",
            r#"{"schema":"sdfr-api/9","graphs":[{"name":"a","content":"x"}]}"#,
            false,
            &state,
        );
        assert_eq!(status, 400);
        assert!(body.contains("\"code\":\"unsupported-schema\""));
        let (status, body) = route("GET", "/v1/stats", "", false, &state);
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"schema\":\"sdfr-api/1\",\"registry\":{\"hits\":0,"));
    }

    #[test]
    fn stats_report_connection_and_persistence_counters() {
        let state = test_state();
        state.connections.fetch_add(3, Ordering::Relaxed);
        state.reused.fetch_add(2, Ordering::Relaxed);
        state.retries_observed.fetch_add(1, Ordering::Relaxed);
        let body = stats_body(&state);
        assert!(
            body.contains("\"connections\":{\"handled\":3,\"reused_requests\":2}"),
            "{body}"
        );
        assert!(
            body.contains(
                "\"persistence\":{\"journal_loaded\":0,\"journal_rejected\":0,\"journal_appended\":0}"
            ),
            "{body}"
        );
        assert!(
            body.contains(
                "\"incremental\":{\"near_hits\":0,\"checkpoints_persisted\":0,\
                 \"checkpoints_restored\":0,\"compactions\":0}"
            ),
            "{body}"
        );
        assert!(
            body.contains("\"retries_observed\":1,\"draining\":"),
            "{body}"
        );
    }

    #[test]
    fn metrics_render_prometheus_text() {
        let state = test_state();
        state.requests.fetch_add(5, Ordering::Relaxed);
        let (status, body) = route("GET", "/metrics", "", false, &state);
        assert_eq!(status, 200);
        assert!(body.contains("\nsdfr_requests_total 5\n"), "{body}");
        assert!(body.contains("# TYPE sdfr_registry_near_hits_total counter"));
        // Format lint: every non-comment line is `name value`, every
        // comment line is a HELP or TYPE annotation.
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP sdfr_") || rest.starts_with("TYPE sdfr_"),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (name, value) = line.split_once(' ').expect("sample line");
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name: {line}"
            );
            assert!(value.parse::<u64>().is_ok(), "bad sample value: {line}");
        }
        let (status, _) = route("POST", "/metrics", "", false, &state);
        assert_eq!(status, 405);
    }

    #[test]
    fn analyze_endpoint_is_single_graph_only() {
        let state = test_state();
        let two = r#"{"schema":"sdfr-api/1","graphs":[
            {"name":"a","content":"graph a\nactor a 1\nchannel a a 1 1 1\n"},
            {"name":"b","content":"graph b\nactor b 1\nchannel b b 1 1 1\n"}]}"#;
        let (status, body) = route("POST", "/v1/analyze", two, false, &state);
        assert_eq!(status, 400);
        assert!(body.contains("use /v1/batch"), "{body}");
        let (status, body) = route("POST", "/v1/batch", two, false, &state);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.lines().count(), 3, "{body}");
        assert!(body.lines().last().unwrap().contains("\"summary\":true"));
    }

    #[test]
    fn batch_endpoint_persists_warm_units_to_the_journal() {
        let dir = std::env::temp_dir().join(format!("sdfr-serve-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, replayed) =
            cache::Journal::open(&dir, None, cache::DEFAULT_COMPACT_BYTES, None).unwrap();
        assert!(replayed.is_empty());
        let mut state = test_state();
        state.journal = Some(journal);
        let one = r#"{"schema":"sdfr-api/1","graphs":[
            {"name":"a","content":"graph a\nactor a 1\nchannel a a 1 1 1\n"}]}"#;
        let (status, _) = route("POST", "/v1/batch", one, false, &state);
        assert_eq!(status, 200);
        assert_eq!(state.journal.as_ref().unwrap().stats().appended, 1);
        // The same content again: already persisted, no duplicate record.
        let (status, _) = route("POST", "/v1/batch", one, false, &state);
        assert_eq!(status, 200);
        assert_eq!(state.journal.as_ref().unwrap().stats().appended, 1);
        let (_, replayed) =
            cache::Journal::open(&dir, None, cache::DEFAULT_COMPACT_BYTES, None).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].name, "a");
        let _ = std::fs::remove_dir_all(&dir);
    }

    const SHARD_GRAPH: &str = "graph a\nactor a 1\nchannel a a 1 1 1\n";

    fn shard_graph_fp() -> u64 {
        crate::parse_graph_content("a", SHARD_GRAPH)
            .unwrap()
            .fingerprint()
    }

    fn shard_batch_body() -> String {
        format!(
            r#"{{"schema":"sdfr-api/1","graphs":[{{"name":"a","content":"{}"}}]}}"#,
            SHARD_GRAPH.replace('\n', "\\n")
        )
    }

    #[test]
    fn shard_specs_parse_and_reject() {
        assert_eq!(parse_shard_spec("0/3").unwrap(), (0, 3));
        assert_eq!(parse_shard_spec("2/3").unwrap(), (2, 3));
        assert!(parse_shard_spec("3/3").is_err(), "id out of range");
        assert!(parse_shard_spec("0/0").is_err(), "empty fleet");
        assert!(parse_shard_spec("1").is_err());
        assert!(parse_shard_spec("one/three").is_err());
        let to_args = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(
            parse_serve_args(&to_args(&["--shard", "0/3"])).is_err(),
            "--shard without --peers"
        );
        assert!(
            parse_serve_args(&to_args(&["--peers", "a:1,b:2"])).is_err(),
            "--peers without --shard"
        );
        assert!(
            parse_serve_args(&to_args(&["--shard", "0/3", "--peers", "a:1,b:2"])).is_err(),
            "peer count must match /N"
        );
        let opts = parse_serve_args(&to_args(&["--shard", "1/2", "--peers", "a:1,b:2"])).unwrap();
        let shard = opts.shard.unwrap();
        assert_eq!(shard.id, 1);
        assert_eq!(shard.map.len(), 2);
        assert!(!shard.proxy);
        let opts = parse_serve_args(&to_args(&[
            "--shard",
            "0/2",
            "--peers",
            "a:1,b:2",
            "--misroute",
            "proxy",
        ]))
        .unwrap();
        assert!(opts.shard.unwrap().proxy);
        assert!(parse_serve_args(&to_args(&[
            "--shard",
            "0/2",
            "--peers",
            "a:1,b:2",
            "--misroute",
            "drop",
        ]))
        .is_err());
    }

    #[test]
    fn misrouted_fingerprints_earn_a_421_redirect() {
        let fp = shard_graph_fp();
        let map = ShardMap::new(vec!["127.0.0.1:9801".into(), "127.0.0.1:9802".into()]).unwrap();
        let owner = map.owner(fp);
        let state = sharded_state(1 - owner, 2, false);
        let (status, body) = route("POST", "/v1/batch", &shard_batch_body(), false, &state);
        assert_eq!(status, 421, "{body}");
        assert!(body.contains("\"redirect\":true"), "{body}");
        assert!(
            body.contains(&format!("\"fingerprint\":\"{fp:016x}\"")),
            "{body}"
        );
        assert!(body.contains(&format!("\"owner\":{owner}")), "{body}");
        let shard = state.shard.as_ref().unwrap();
        assert_eq!(shard.misroutes.load(Ordering::Relaxed), 1);
        // The redirect shows up in the stats document, and only there —
        // unsharded servers never emit a shard block.
        assert!(stats_body(&state).contains("\"shard\":{\"id\":"));
        assert!(!stats_body(&test_state()).contains("\"shard\""));
    }

    #[test]
    fn failover_flag_bypasses_the_misroute_check() {
        let fp = shard_graph_fp();
        let map = ShardMap::new(vec!["127.0.0.1:9801".into(), "127.0.0.1:9802".into()]).unwrap();
        let state = sharded_state(1 - map.owner(fp), 2, false);
        let (status, body) = route("POST", "/v1/batch", &shard_batch_body(), true, &state);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"summary\":true"), "{body}");
        assert_eq!(
            state
                .shard
                .as_ref()
                .unwrap()
                .misroutes
                .load(Ordering::Relaxed),
            0
        );
    }

    #[test]
    fn owned_requests_probe_the_successor_then_compute_locally() {
        let fp = shard_graph_fp();
        let map =
            ShardMap::new((0..3).map(|i| format!("127.0.0.1:{}", 9801 + i)).collect()).unwrap();
        // This shard owns the fingerprint; its successor peer is a closed
        // port, so the warm-handoff probe fails fast and the unit is
        // computed locally anyway.
        let state = sharded_state(map.owner(fp), 3, false);
        let (status, body) = route("POST", "/v1/batch", &shard_batch_body(), false, &state);
        assert_eq!(status, 200, "{body}");
        let shard = state.shard.as_ref().unwrap();
        assert_eq!(shard.handoffs_requested.load(Ordering::Relaxed), 1);
        assert_eq!(shard.handoffs_received.load(Ordering::Relaxed), 0);
        // Warm now: the second request does not probe again.
        let (status, _) = route("POST", "/v1/batch", &shard_batch_body(), false, &state);
        assert_eq!(status, 200);
        assert_eq!(shard.handoffs_requested.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn archive_endpoint_exports_warm_sessions_as_cache_records() {
        let fp = shard_graph_fp();
        let state = test_state();
        let (status, body) = route("GET", "/v1/archive/zzz", "", false, &state);
        assert_eq!(status, 400, "{body}");
        let path = format!("/v1/archive/{fp:016x}");
        let (status, body) = route("GET", &path, "", false, &state);
        assert_eq!(status, 404, "cold registry: {body}");
        let (status, _) = route("POST", "/v1/batch", &shard_batch_body(), false, &state);
        assert_eq!(status, 200);
        let (status, body) = route("GET", &path, "", false, &state);
        assert_eq!(status, 200, "{body}");
        let record = CacheRecord::from_json_line(body.lines().next().unwrap()).unwrap();
        assert_eq!(record.fingerprint, fp);
        // The exported record rebuilds into a session with the same
        // fingerprint — what the receiving shard will do with it.
        let (session, _) = cache::rebuild_session(&record).unwrap();
        assert_eq!(session.graph().fingerprint(), fp);
        let (status, _) = route("POST", &path, "", false, &state);
        assert_eq!(status, 405);
    }
}
