//! The `--server` client: routes `analyze`, `batch` and `csdf` to a
//! running `sdfr serve`, plus the `stats`/`shutdown` control commands.
//!
//! The client reads graph files locally and ships their *content* inline
//! (the server never opens paths), prints the server's response body
//! verbatim to stdout, and exits with the code the `sdfr-api/1` records
//! carry in their `"exit"` fields — so scripting against `sdfr --server …`
//! is indistinguishable from scripting against the in-process commands in
//! `--json` mode.
//!
//! # Retries
//!
//! Transient failures are retried under `--retries` attempts and a
//! `--retry-budget-ms` wall-clock budget, with capped, jittered
//! exponential backoff:
//!
//! - **Connect failures** are always retryable — nothing was sent.
//! - **`429`/`503` shed responses** are always retryable — the server
//!   answers those *instead of* processing, so no effect can double-apply;
//!   the sleep honours the response's `Retry-After` (plus jitter).
//! - **Transport failures after the request went out** (send/receive
//!   errors, a response shorter than its `Content-Length`) are retried
//!   only for the idempotent requests — `analyze`, `batch`, `csdf` and
//!   `stats` are pure questions; `shutdown` is not re-sent, because the
//!   first copy may have been acted on.
//!
//! Every re-sent attempt carries an `X-Sdfr-Retry: N` header, which the
//! server counts in `/v1/stats` as `retries_observed`.
//!
//! Only a failed *connect* (after its retries) falls back to in-process
//! analysis (decided in [`crate::run`]); once a server answered, its
//! verdict stands — a `400` is surfaced, not silently retried locally, so
//! two observers never see two different answers for one invocation.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sdfr_api::json::{self, Value};
use sdfr_api::shards::ShardMap;
use sdfr_api::{AnalysisRequest, BatchSummary, GraphSource, WorkloadKind};

use crate::{batch, workload, CliError, EXIT_OK, EXIT_PANIC};

/// The client-side retry discipline, from the global `--retries` /
/// `--retry-budget-ms` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RetryPolicy {
    /// Re-attempts after the first try (`--retries`, default 2).
    pub retries: u32,
    /// Wall-clock budget across all sleeps of one invocation
    /// (`--retry-budget-ms`, default 2000).
    pub budget: Duration,
    /// `true` once the user set `--retry-budget-ms` explicitly: responses
    /// are then read under the budget as a timeout, so a stalled server
    /// (slow-loris) becomes a retryable transport error instead of an
    /// unbounded wait. Off by default — a cold exact analysis may
    /// legitimately take longer than any retry budget.
    pub bounded_reads: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 2,
            budget: Duration::from_millis(2000),
            bounded_reads: false,
        }
    }
}

/// A jittered duration in `[lo, hi]`, from a process-wide xorshift64
/// stream seeded once per process — retry storms from concurrent clients
/// decorrelate without any new dependency.
fn jitter_between(lo: Duration, hi: Duration) -> Duration {
    static SEED: AtomicU64 = AtomicU64::new(0);
    let mut s = SEED.load(Ordering::Relaxed);
    if s == 0 {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| u64::from(d.subsec_nanos()));
        s = u64::from(std::process::id()) ^ (nanos << 17) ^ 0x9E37_79B9_7F4A_7C15;
    }
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    SEED.store(s, Ordering::Relaxed);
    let span = u64::try_from(hi.saturating_sub(lo).as_millis()).unwrap_or(u64::MAX);
    if span == 0 {
        return lo;
    }
    lo + Duration::from_millis(s % (span + 1))
}

/// The backoff delay before re-attempt number `attempt + 1`: exponential
/// from 50ms, capped at 1s, jittered into the upper half of the cap.
fn backoff_delay(attempt: u32) -> Duration {
    let cap = Duration::from_millis(50u64 << attempt.min(5)).min(Duration::from_secs(1));
    jitter_between(cap / 2, cap)
}

/// Sleeps the backoff for `attempt` within what is left of the retry
/// budget; `false` (without sleeping) when the budget is gone and the
/// caller should stop retrying.
fn sleep_backoff(attempt: u32, start: Instant, policy: &RetryPolicy) -> bool {
    let remaining = policy.budget.saturating_sub(start.elapsed());
    if remaining.is_zero() {
        return false;
    }
    std::thread::sleep(backoff_delay(attempt).min(remaining));
    true
}

/// Sleeps a shed response's `Retry-After` (seconds; default 1) plus up to
/// 100ms of jitter, capped by the remaining retry budget; `false` when the
/// budget is gone.
fn sleep_retry_after(retry_after: Option<u64>, start: Instant, policy: &RetryPolicy) -> bool {
    let remaining = policy.budget.saturating_sub(start.elapsed());
    if remaining.is_zero() {
        return false;
    }
    let base = Duration::from_secs(retry_after.unwrap_or(1));
    let delay = base + jitter_between(Duration::ZERO, Duration::from_millis(100));
    std::thread::sleep(delay.min(remaining));
    true
}

/// Ensures fallback output parity: the server always answers `sdfr-api/1`
/// JSON, so when `analyze`/`csdf` degrade to in-process execution they
/// must emit JSON too, whether or not the user typed `--json`.
pub(crate) fn with_json_flag(mut args: Vec<String>) -> Vec<String> {
    if matches!(args.first().map(String::as_str), Some("analyze" | "csdf"))
        && !args.iter().any(|a| a == "--json")
    {
        args.push("--json".to_string());
    }
    args
}

/// A request [`send`] could not complete.
#[derive(Debug)]
struct SendError {
    /// Whether any attempt connected. Only a server that was never reached
    /// may be replaced by in-process analysis: once one answered, the
    /// request may have been seen, and its verdict is the server's.
    connected: bool,
    /// The last attempt's failure.
    message: String,
}

/// Sends one request to `addr` under the retry discipline of the module
/// docs and returns the final `(status, body)` — a shed that outlasts the
/// retries comes back as a value, so a fleet caller can fail over on it.
/// Failed connects and `429`/`503` sheds are always retried; transport
/// failures after the request went out only when it is `idempotent`.
/// `failover` sends `X-Sdfr-Failover`, which lets a sharded server answer
/// for fingerprints it does not own.
fn send(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    idempotent: bool,
    failover: bool,
    policy: &RetryPolicy,
) -> Result<(u16, String), SendError> {
    let start = Instant::now();
    let mut connected = false;
    let mut attempt = 0u32;
    loop {
        let (retryable, message) = match TcpStream::connect(addr) {
            // Nothing was sent: retryable for every request.
            Err(e) => (true, format!("connect: {e}")),
            Ok(stream) => {
                connected = true;
                match exchange(stream, addr, method, path, body, attempt, failover, policy) {
                    Ok((status, retry_after, body)) => {
                        if (status == 429 || status == 503)
                            && attempt < policy.retries
                            && sleep_retry_after(retry_after, start, policy)
                        {
                            attempt += 1;
                            continue;
                        }
                        return Ok((status, body));
                    }
                    Err(e) => (idempotent, e),
                }
            }
        };
        if retryable && attempt < policy.retries && sleep_backoff(attempt, start, policy) {
            attempt += 1;
            continue;
        }
        return Err(SendError { connected, message });
    }
}

/// `sdfr stats --server A` / `sdfr shutdown --server A`. No in-process
/// fallback: an unreachable server is an I/O error (exit 3). `stats` is
/// idempotent and retries transport failures; `shutdown` retries only
/// connect failures and shed responses — never a request that may already
/// have begun a drain.
pub(crate) fn cmd_control(
    addr: &str,
    command: &str,
    policy: &RetryPolicy,
) -> Result<String, CliError> {
    let (method, path) = if command == "stats" {
        ("GET", "/v1/stats")
    } else {
        ("POST", "/shutdown")
    };
    let (status, body) = send(addr, method, path, "", command == "stats", false, policy)
        .map_err(|e| CliError::io(format!("{command}: {addr}: {}", e.message)))?;
    finish(status, body)
}

/// Runs `analyze`/`batch`/`csdf` against the server at `addr`.
///
/// # Errors
///
/// The outer `Err(String)` is a server that never accepted a connection
/// (after its backoff retries) — the only condition the caller answers
/// with in-process fallback. Everything else (bad arguments, unreadable
/// files, failures after a connect, nonzero server verdicts) is the inner
/// [`CliError`] and final.
pub(crate) fn run_remote(
    addr: &str,
    args: &[String],
    policy: &RetryPolicy,
) -> Result<Result<String, CliError>, String> {
    let (path, request) = match build_request(args) {
        Ok(built) => built,
        Err(e) => return Ok(Err(e)),
    };
    // All three analysis commands are idempotent questions, so a re-send
    // can never double-apply an effect.
    match send(addr, "POST", path, &request.to_json(), true, false, policy) {
        Ok((status, body)) => Ok(finish(status, body)),
        Err(e) if !e.connected => Err(e.message),
        Err(e) => Ok(Err(CliError::io(format!(
            "{}: {addr}: {}",
            args[0], e.message
        )))),
    }
}

/// Translates one `analyze`/`batch`/`csdf` command line into its endpoint
/// path and [`AnalysisRequest`] — file contents read and inlined, flags
/// validated. Shared between the single-server client and the sharded
/// router (which re-partitions the request but builds it identically).
fn build_request(args: &[String]) -> Result<(&'static str, AnalysisRequest), CliError> {
    let command = args[0].as_str();
    if command == "batch" {
        let opts = batch::parse_batch_args(&args[1..])?;
        let graphs = opts
            .files
            .iter()
            .map(|f| read_source(f))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok((
            "/v1/batch",
            AnalysisRequest {
                graphs,
                tiers: opts.tiers,
                deadline_ms: deadline_ms(&args[1..])?,
                max_firings: opts.budget.max_firings(),
                max_size: opts.budget.max_size(),
                indices: None,
                ..AnalysisRequest::default()
            },
        ));
    }
    // analyze, csdf and scenario analyze share the single-file request
    // shape; the kind picks the route.
    let file = args
        .get(1)
        .filter(|a| !a.starts_with('-'))
        .ok_or_else(|| CliError::usage(format!("{command}: missing <file>")))?;
    let opts = &args[2..];
    let budget = crate::budget_from_opts(opts)?;
    let kind = workload::unit_kind(workload::command_kind(command, opts), None, file)?;
    Ok((
        workload::route(kind),
        AnalysisRequest {
            kind,
            // Scenario workloads ride the newer tagged request shape;
            // plain analyze/csdf keep the flat shape so this client stays
            // byte-compatible with pre-workload servers.
            tagged: kind == WorkloadKind::Sadf,
            graphs: vec![read_source(file)?],
            tiers: Vec::new(),
            deadline_ms: deadline_ms(opts)?,
            max_firings: budget.max_firings(),
            max_size: budget.max_size(),
            indices: None,
        },
    ))
}

/// Reads one graph file into an inline [`GraphSource`]. Unlike the
/// in-process batch (which turns an unreadable file into an error record
/// and keeps going), the remote client needs the content up front, so a
/// read failure fails the invocation with exit 3 before anything is sent.
fn read_source(path: &str) -> Result<GraphSource, CliError> {
    Ok(GraphSource {
        name: path.to_string(),
        content: crate::read_file(path)?,
    })
}

/// The `--deadline` flag as a response-deadline in milliseconds. Remotely
/// this bounds the *answer* (the server degrades past it), where the
/// in-process flag bounds the analysis itself — same knob, same spirit,
/// documented in the README.
fn deadline_ms(opts: &[String]) -> Result<Option<u64>, CliError> {
    Ok(match crate::flag_raw(opts, "--deadline")? {
        Some(raw) => {
            Some(u64::try_from(crate::parse_duration(&raw)?.as_millis()).unwrap_or(u64::MAX))
        }
        None => None,
    })
}

/// One full HTTP/1.1 exchange over an established connection: write the
/// request (marked `X-Sdfr-Retry` on re-attempts), read to EOF (the client
/// always sends `Connection: close`), split status and `Retry-After` from
/// the body, and verify the body against the response's `Content-Length`
/// — a short body (a crash or injected fault mid-response) is a transport
/// error, not a truncated answer handed to the user.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exchange(
    mut stream: TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    attempt: u32,
    failover: bool,
    policy: &RetryPolicy,
) -> Result<(u16, Option<u64>, String), String> {
    if policy.bounded_reads {
        let _ = stream.set_read_timeout(Some(policy.budget));
        let _ = stream.set_write_timeout(Some(policy.budget));
    }
    let retry_marker = if attempt > 0 {
        format!("X-Sdfr-Retry: {attempt}\r\n")
    } else {
        String::new()
    };
    // The failover marker tells a sharded server to serve fingerprints it
    // does not own: the router only sets it after the owning shard failed.
    let failover_marker = if failover {
        "X-Sdfr-Failover: 1\r\n"
    } else {
        ""
    };
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{retry_marker}{failover_marker}Connection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send failed: {e}"))?;
    stream.flush().map_err(|e| format!("send failed: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive failed: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let head_end = text
        .find("\r\n\r\n")
        .ok_or_else(|| "truncated response".to_string())?;
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "unreadable status line".to_string())?;
    let mut retry_after = None;
    let mut content_length = None;
    for line in text[..head_end].lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.parse().ok();
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok();
        }
    }
    let payload = &raw[head_end + 4..];
    if let Some(announced) = content_length {
        if payload.len() < announced {
            return Err(format!(
                "truncated response: {} of {announced} body bytes",
                payload.len()
            ));
        }
    }
    Ok((
        status,
        retry_after,
        String::from_utf8_lossy(payload).into_owned(),
    ))
}

/// Turns a response into the CLI contract: body verbatim on stdout
/// (`Ok`) when every record exits 0, otherwise the body travels in the
/// error (stderr) and the process exits with the worst `"exit"` any line
/// carries — exactly how a failing `--stable` batch reports.
fn finish(status: u16, body: String) -> Result<String, CliError> {
    let mut exit: Option<i32> = None;
    for line in body.lines() {
        if let Ok(v) = json::parse(line) {
            if let Some(e) = v.get("exit").and_then(Value::as_u64) {
                let e = i32::try_from(e).unwrap_or(EXIT_PANIC);
                exit = Some(exit.map_or(e, |m| m.max(e)));
            }
        }
    }
    // A body without exit fields (or an unparsable one) falls back to the
    // transport's verdict.
    let exit = exit.unwrap_or(if (200..300).contains(&status) {
        EXIT_OK
    } else {
        EXIT_PANIC
    });
    crate::exit_output(exit, body)
}

// ---------------------------------------------------------------------------
// Sharded routing (`--peers`)
// ---------------------------------------------------------------------------

/// Validates a `--peers` fleet list into the consistent-hash ring,
/// resolving every peer address up front: a malformed or unresolvable
/// peer is a usage error *naming the peer* before any file is read or
/// byte sent. With `--peers` there is deliberately no in-process
/// fallback — a half-usable shard map must fail loudly, because quietly
/// analyzing locally would hide a fleet misconfiguration behind correct
/// answers.
pub(crate) fn fleet_map(peers: &[String]) -> Result<ShardMap, CliError> {
    let map =
        ShardMap::new(peers.to_vec()).map_err(|e| CliError::usage(format!("--peers: {e}")))?;
    for peer in peers {
        use std::net::ToSocketAddrs;
        match peer.to_socket_addrs() {
            Ok(mut addrs) => {
                if addrs.next().is_none() {
                    return Err(CliError::usage(format!(
                        "--peers: '{peer}' resolves to no address"
                    )));
                }
            }
            Err(e) => {
                return Err(CliError::usage(format!(
                    "--peers: cannot resolve '{peer}': {e}"
                )))
            }
        }
    }
    Ok(map)
}

/// Runs one analysis command against a sharded fleet: the client is the
/// router. Every process that knows the `--peers` list derives the same
/// [`ShardMap`], so each graph's fingerprint is resolved locally and sent
/// straight to its owning shard; when a shard is unreachable (or sheds
/// with 503 past the retry budget) its units fail over along the ring —
/// the same successor order the servers use for warm handoff, so failover
/// traffic lands where the warmth migrates.
pub(crate) fn run_sharded(
    peers: &[String],
    args: &[String],
    policy: &RetryPolicy,
) -> Result<String, CliError> {
    let map = fleet_map(peers)?;
    match args[0].as_str() {
        "batch" => batch_sharded(&map, &args[1..], policy),
        "analyze" | "csdf" => single_sharded(&map, args, policy),
        other => Err(CliError::usage(format!(
            "{other}: --peers routes analyze, batch and csdf; \
             control commands take --server with one shard's address"
        ))),
    }
}

/// The routing fingerprint of a `kind` source: the fingerprint the owning
/// server computes from the same parse when the source has one, else
/// FNV-1a over the raw bytes. Servers accept sources without a
/// fingerprint anywhere, and unparseable sources produce identical error
/// records on every shard, so for them any *deterministic* placement is
/// correct.
fn routing_fingerprint(kind: WorkloadKind, source: &GraphSource) -> u64 {
    let parsed = workload::parse_source(kind, &source.name, &source.content);
    if let Some(fp) = parsed.ok().and_then(|s| s.fingerprint()) {
        return fp;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in source.content.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One file of a sharded batch in flight: its content, its failover route
/// (owner first, then ring successors), how far along that route it has
/// fallen, and the global index of its first unit (`file index × units
/// per file` — the server stamps each record with `base + tier` so the
/// router can reassemble the single-server line order).
struct BatchJob {
    source: GraphSource,
    route: Vec<u32>,
    pos: usize,
    base: usize,
}

/// `sdfr batch --peers …`: partitions the files by owning shard, sends
/// ONE request per shard carrying the global unit indices, then
/// reassembles — records re-ordered by their `"index"` field, per-shard
/// summaries folded with [`BatchSummary::merge`]. Because the units
/// partition by fingerprint, the reassembled body is byte-identical to a
/// single server holding every unit (the fleet CI job diffs exactly
/// that).
fn batch_sharded(
    map: &ShardMap,
    rest: &[String],
    policy: &RetryPolicy,
) -> Result<String, CliError> {
    let opts = batch::parse_batch_args(rest)?;
    let deadline_ms = deadline_ms(rest)?;
    let units_per_file = opts.tiers.len().max(1);
    let mut pending = Vec::with_capacity(opts.files.len());
    for (i, file) in opts.files.iter().enumerate() {
        let source = read_source(file)?;
        let fp = routing_fingerprint(workload::unit_kind(None, None, file)?, &source);
        pending.push(BatchJob {
            route: map.route(fp),
            source,
            pos: 0,
            base: i * units_per_file,
        });
    }
    let mut lines: Vec<(usize, String)> = Vec::with_capacity(pending.len() * units_per_file);
    let mut summaries = Vec::new();
    while let Some(first) = pending.first() {
        let target = first.route[first.pos];
        let (group, rest): (Vec<BatchJob>, Vec<BatchJob>) =
            pending.drain(..).partition(|j| j.route[j.pos] == target);
        pending = rest;
        let failover = group.iter().any(|j| j.pos > 0);
        let request = AnalysisRequest {
            graphs: group.iter().map(|j| j.source.clone()).collect(),
            tiers: opts.tiers.clone(),
            deadline_ms,
            max_firings: opts.budget.max_firings(),
            max_size: opts.budget.max_size(),
            indices: Some(
                group
                    .iter()
                    .flat_map(|j| j.base..j.base + units_per_file)
                    .collect(),
            ),
            ..AnalysisRequest::default()
        };
        let peer = map.peer(target);
        match send(
            peer,
            "POST",
            "/v1/batch",
            &request.to_json(),
            true,
            failover,
            policy,
        ) {
            Ok((421, body)) => return Err(shard_map_disagreement(target, peer, &body)),
            Ok((503, body)) => requeue(
                &mut pending,
                group,
                map,
                target,
                &format!("shed with 503: {}", body.trim()),
            )?,
            Ok((status, body)) => {
                let mut recognized = false;
                for line in body.lines() {
                    if let Ok(summary) = BatchSummary::from_json_line(line) {
                        summaries.push(summary);
                        recognized = true;
                    } else if let Some(index) = json::parse(line)
                        .ok()
                        .and_then(|v| v.get("index").and_then(Value::as_u64))
                    {
                        lines.push((
                            usize::try_from(index).unwrap_or(usize::MAX),
                            line.to_string(),
                        ));
                        recognized = true;
                    }
                }
                if !recognized {
                    // Not a batch answer at all (an error document): final,
                    // exactly as the single-server client treats it.
                    return finish(status, body);
                }
            }
            Err(e) => requeue(&mut pending, group, map, target, &e.message)?,
        }
    }
    lines.sort_by_key(|&(index, _)| index);
    let mut out =
        String::with_capacity(lines.iter().map(|(_, l)| l.len() + 1).sum::<usize>() + 256);
    for (_, line) in &lines {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&BatchSummary::merge(&summaries).to_json_line());
    out.push('\n');
    finish(200, out)
}

/// Pushes a failed group one step along each job's failover route, or
/// fails the invocation once any job has no shards left to try.
fn requeue(
    pending: &mut Vec<BatchJob>,
    group: Vec<BatchJob>,
    map: &ShardMap,
    target: u32,
    err: &str,
) -> Result<(), CliError> {
    eprintln!(
        "sdfr: shard {target} ({}) failed ({err}); failing over to each unit's ring successor",
        map.peer(target)
    );
    for mut job in group {
        job.pos += 1;
        if job.pos >= job.route.len() {
            return Err(CliError::io(format!(
                "batch: every shard failed for {}; last: shard {target} ({}): {err}",
                job.source.name,
                map.peer(target)
            )));
        }
        pending.push(job);
    }
    Ok(())
}

/// `sdfr analyze/csdf --peers …`: a single file routes to its owner, then
/// cascades along the ring on transport failure or a final 503.
fn single_sharded(
    map: &ShardMap,
    args: &[String],
    policy: &RetryPolicy,
) -> Result<String, CliError> {
    let command = args[0].clone();
    let (path, request) = build_request(args)?;
    let fp = routing_fingerprint(request.kind, &request.graphs[0]);
    let payload = request.to_json();
    let route = map.route(fp);
    let mut last_err = String::new();
    for (pos, &target) in route.iter().enumerate() {
        let peer = map.peer(target);
        match send(peer, "POST", path, &payload, true, pos > 0, policy) {
            Ok((421, body)) => return Err(shard_map_disagreement(target, peer, &body)),
            Ok((503, body)) => {
                last_err = format!("shard {target} ({peer}) shed with 503: {}", body.trim());
                eprintln!("sdfr: {last_err}; failing over to the ring successor");
            }
            Ok((status, body)) => return finish(status, body),
            Err(e) => {
                last_err = format!("shard {target} ({peer}): {}", e.message);
                eprintln!("sdfr: {last_err}; failing over to the ring successor");
            }
        }
    }
    Err(CliError::io(format!(
        "{command}: every shard failed; last: {last_err}"
    )))
}

/// A 421 means the server derived a different ring than this client —
/// mixed `--peers` lists across the fleet. Retrying elsewhere would only
/// bounce, so it is a hard usage error carrying the server's redirect
/// record.
fn shard_map_disagreement(shard: u32, peer: &str, body: &str) -> CliError {
    CliError::usage(format!(
        "shard {shard} ({peer}) rejected the route with 421 — client and server \
         disagree about the shard map; was every process started with the same \
         --peers list?\n{}",
        body.trim()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn json_flag_is_forced_only_where_it_matters() {
        let to_args = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            with_json_flag(to_args(&["analyze", "f.sdf"])),
            to_args(&["analyze", "f.sdf", "--json"])
        );
        assert_eq!(
            with_json_flag(to_args(&["analyze", "f.sdf", "--json"])),
            to_args(&["analyze", "f.sdf", "--json"])
        );
        assert_eq!(
            with_json_flag(to_args(&["batch", "f.sdf"])),
            to_args(&["batch", "f.sdf"])
        );
    }

    #[test]
    fn finish_extracts_the_worst_exit() {
        assert!(finish(200, "{\"exit\":0}\n{\"exit\":0}\n".into()).is_ok());
        let err = finish(422, "{\"exit\":0}\n{\"exit\":4}\n".into()).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        let err = finish(500, "not json".into()).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_PANIC);
        assert!(finish(200, "no records".into()).is_ok());
    }

    #[test]
    fn deadline_flag_converts_to_millis() {
        let to_args = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            deadline_ms(&to_args(&["--deadline", "250ms"])).unwrap(),
            Some(250)
        );
        assert_eq!(deadline_ms(&to_args(&[])).unwrap(), None);
        assert!(deadline_ms(&to_args(&["--deadline", "soon"])).is_err());
    }

    #[test]
    fn backoff_is_jittered_capped_exponential() {
        for attempt in 0..8 {
            let cap = Duration::from_millis(50u64 << attempt.min(5)).min(Duration::from_secs(1));
            for _ in 0..32 {
                let d = backoff_delay(attempt);
                assert!(d >= cap / 2, "attempt {attempt}: {d:?} under half the cap");
                assert!(d <= cap, "attempt {attempt}: {d:?} over the cap {cap:?}");
            }
        }
        // The budget gate refuses to sleep once the budget is spent.
        let policy = RetryPolicy {
            budget: Duration::from_millis(0),
            ..RetryPolicy::default()
        };
        assert!(!sleep_backoff(0, Instant::now(), &policy));
        assert!(!sleep_retry_after(Some(1), Instant::now(), &policy));
    }

    /// Reads a whole request (through the blank line ending the headers)
    /// off a stub connection. The client writes its request in several
    /// small unbuffered pieces; a stub that answers and closes after one
    /// `read` can leave late fragments unread, and closing with unread
    /// data sends an RST that races the client out of the answer.
    fn read_request(s: &mut std::net::TcpStream) -> String {
        let mut req = Vec::new();
        let mut buf = [0u8; 4096];
        while !req.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            req.extend_from_slice(&buf[..n]);
        }
        String::from_utf8_lossy(&req).into_owned()
    }

    #[test]
    fn shed_responses_honor_retry_after_and_mark_the_retry() {
        // A tiny in-test server: sheds the first request with 429 +
        // Retry-After, answers the second — which must carry the
        // X-Sdfr-Retry marker.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let answers = [
                (
                    "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 12\r\n\
                     Retry-After: 0\r\nConnection: close\r\n\r\n{\"shed\":true}",
                    false,
                ),
                (
                    "HTTP/1.1 200 OK\r\nContent-Length: 11\r\nConnection: close\r\n\r\n{\"exit\":0}\n",
                    true,
                ),
            ];
            let mut saw_marker = false;
            for (answer, expect_marker) in answers {
                let (mut s, _) = listener.accept().unwrap();
                let req = read_request(&mut s);
                if expect_marker {
                    saw_marker = req.contains("X-Sdfr-Retry: 1");
                }
                s.write_all(answer.as_bytes()).unwrap();
            }
            saw_marker
        });
        let policy = RetryPolicy {
            retries: 2,
            budget: Duration::from_secs(5),
            bounded_reads: false,
        };
        let body = cmd_control(&addr, "stats", &policy).unwrap();
        assert_eq!(body, "{\"exit\":0}\n");
        assert!(server.join().unwrap(), "the retry was not marked");
    }

    #[test]
    fn truncated_responses_are_transport_errors_and_retried() {
        // First response lies about its length and closes early (the
        // mid-response-close shape); the retry gets a whole answer.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let answers = [
                "HTTP/1.1 200 OK\r\nContent-Length: 40\r\nConnection: close\r\n\r\n{\"exit\"",
                "HTTP/1.1 200 OK\r\nContent-Length: 11\r\nConnection: close\r\n\r\n{\"exit\":0}\n",
            ];
            for answer in answers {
                let (mut s, _) = listener.accept().unwrap();
                let _ = read_request(&mut s);
                s.write_all(answer.as_bytes()).unwrap();
            }
        });
        let policy = RetryPolicy {
            retries: 1,
            budget: Duration::from_secs(5),
            bounded_reads: false,
        };
        let body = cmd_control(&addr, "stats", &policy).unwrap();
        assert_eq!(body, "{\"exit\":0}\n");
        server.join().unwrap();
    }
}
