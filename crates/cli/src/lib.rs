//! The `sdfr` command-line tool.
//!
//! Exposes the analysis and reduction stack over files in either the
//! SDF3-compatible XML subset or the compact text format (auto-detected):
//!
//! ```text
//! sdfr info      <file>                  structure, γ, liveness
//! sdfr analyze   <file>                  throughput, latency, bottleneck
//! sdfr convert   <file> [--traditional | --novel | --auto] [-o <out.xml>]
//! sdfr abstract  <file> [-o <out.xml>]   auto abstraction + verification
//! sdfr simulate  <file> [--iterations K] self-timed execution summary
//! sdfr buffers   <file> [--iterations K] minimal throughput-preserving capacities
//! sdfr pareto    <file> [--iterations K] throughput/buffer trade-off curve
//! sdfr latency   <file> --source A --sink B --period MU
//! sdfr schedule  <file>                  rate-optimal static periodic schedule
//! sdfr csdf      <file> [-o <out.xml>]   cyclo-static analysis + HSDF reduction
//! sdfr dot       <file>                  Graphviz export
//! sdfr batch     <file>... [--tiers N,..] JSON-lines analysis through a
//!                                         shared cross-graph session cache
//! sdfr serve     [--addr A]              resident analysis server over one
//!                                         process-wide session registry
//! sdfr stats     --server A              the server's registry/pool counters
//! sdfr shutdown  --server A              ask the server to drain and exit
//! ```
//!
//! With the global `--server <addr>` flag, `analyze`, `batch` and `csdf`
//! are executed by a running `sdfr serve` instead of in-process (falling
//! back to in-process analysis — with `--json` output for parity — when no
//! server answers). All JSON output follows the versioned `sdfr-api/1`
//! wire schema (see the `sdfr-api` crate); `--api-version` asserts the
//! schema major this build speaks and exits 2 on a mismatch.
//!
//! The command logic lives in this library (see [`run`]) so it can be
//! tested without spawning processes; `main.rs` is a thin wrapper.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
mod cache;
mod client;
pub mod http;
pub mod serve;
mod workload;

use std::fmt::Write as _;
use std::time::Duration;

use sdfr_analysis::latency::periodic_source_latency;
use sdfr_analysis::throughput::throughput;
use sdfr_analysis::AnalysisSession;
use sdfr_api::WorkloadKind;
use sdfr_core::auto::auto_abstraction;
use sdfr_core::conservativity::{conservative_period_bound, verify_abstraction};
use sdfr_core::degrade::conservative_period_fallback;
use sdfr_core::recommend::{predict_sizes_with_session, ConversionChoice};
use sdfr_core::{abstract_graph, novel, traditional};
use sdfr_graph::budget::Budget;
use sdfr_graph::execution::{simulate, SimulationOptions};
use sdfr_graph::liveness::is_live;
use sdfr_graph::repetition::repetition_vector;
use sdfr_graph::{dot, SdfError, SdfGraph};

/// Exit code: success (including a degraded-but-safe `analyze` answer).
pub const EXIT_OK: i32 = 0;
/// Exit code: the input graph or analysis request is invalid.
pub const EXIT_INVALID: i32 = 1;
/// Exit code: the command line itself is unusable.
pub const EXIT_USAGE: i32 = 2;
/// Exit code: a file could not be read or written.
pub const EXIT_IO: i32 = 3;
/// Exit code: a resource budget (`--deadline`, `--max-firings`,
/// `--max-size`) was exhausted and no safe fallback answer exists for the
/// command.
pub const EXIT_EXHAUSTED: i32 = 4;
/// Exit code: an internal panic was caught (a bug, not a user error).
pub const EXIT_PANIC: i32 = 70;

/// What went wrong, at the granularity scripts care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliErrorKind {
    /// Unusable command line (unknown command, missing flag value, …).
    Usage,
    /// Reading or writing a file failed.
    Io,
    /// The graph or the request is invalid (inconsistent, deadlocked, …).
    Invalid,
    /// A resource budget ran out before the analysis finished.
    Exhausted,
    /// An internal failure on the other side of a server connection (the
    /// server reported a panic or an unclassifiable error). Maps to
    /// [`EXIT_PANIC`].
    Internal,
}

/// Errors surfaced to the user, with a [`CliErrorKind`] selecting the
/// process exit code.
#[derive(Debug, Clone)]
pub struct CliError {
    /// Classification, mapped to an exit code by [`CliError::exit_code`].
    pub kind: CliErrorKind,
    /// Human-readable message, printed to stderr.
    pub message: String,
}

impl CliError {
    pub(crate) fn usage(message: impl Into<String>) -> Self {
        CliError {
            kind: CliErrorKind::Usage,
            message: message.into(),
        }
    }

    pub(crate) fn io(message: impl Into<String>) -> Self {
        CliError {
            kind: CliErrorKind::Io,
            message: message.into(),
        }
    }

    pub(crate) fn invalid(message: impl Into<String>) -> Self {
        CliError {
            kind: CliErrorKind::Invalid,
            message: message.into(),
        }
    }

    /// The process exit code for this error:
    /// [`EXIT_INVALID`]/[`EXIT_USAGE`]/[`EXIT_IO`]/[`EXIT_EXHAUSTED`].
    pub fn exit_code(&self) -> i32 {
        match self.kind {
            CliErrorKind::Usage => EXIT_USAGE,
            CliErrorKind::Io => EXIT_IO,
            CliErrorKind::Invalid => EXIT_INVALID,
            CliErrorKind::Exhausted => EXIT_EXHAUSTED,
            CliErrorKind::Internal => EXIT_PANIC,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<sdfr_graph::SdfError> for CliError {
    fn from(e: sdfr_graph::SdfError) -> Self {
        let kind = match e {
            SdfError::Exhausted { .. } => CliErrorKind::Exhausted,
            _ => CliErrorKind::Invalid,
        };
        CliError {
            kind,
            message: e.to_string(),
        }
    }
}

impl From<sdfr_core::CoreError> for CliError {
    fn from(e: sdfr_core::CoreError) -> Self {
        let kind = match e {
            sdfr_core::CoreError::Graph(SdfError::Exhausted { .. }) => CliErrorKind::Exhausted,
            _ => CliErrorKind::Invalid,
        };
        CliError {
            kind,
            message: e.to_string(),
        }
    }
}

impl From<sdfr_io::IoError> for CliError {
    fn from(e: sdfr_io::IoError) -> Self {
        CliError::invalid(e.to_string())
    }
}

/// Usage text printed for `--help` or argument errors.
pub const USAGE: &str = "\
sdfr — synchronous dataflow graph analysis and reduction

USAGE:
  sdfr <command> <file> [options]

COMMANDS:
  info      structure, repetition vector, liveness
  analyze   throughput, latency and bottleneck analysis; with
            --scenarios (auto-selected for .sadf files) a scenario-aware
            workload: worst-case throughput over all runs of a scenario
            FSM whose states are SDF graphs
  convert   SDF -> HSDF (--traditional | --novel | --auto (default))
  abstract  derive + verify a conservative abstraction
  simulate  self-timed execution (--iterations K, default 8)
  buffers   minimal throughput-preserving channel capacities
  pareto    throughput/buffer trade-off curve
  latency   steady-state latency under a periodic source
            (--source A --sink B --period MU)
  schedule  rate-optimal static periodic schedule (HSDF input)
  csdf      cyclo-static file: consistency, throughput, HSDF reduction
  dot       Graphviz export
  batch     analyze many files (or one file at many --tiers budget tiers)
            through a shared cross-graph session cache; one JSON line per
            graph, streamed as results land, plus a JSON summary
  serve     resident HTTP analysis server sharing one session registry
            across requests (see SERVE OPTIONS)
  stats     print a running server's registry/pool counters (needs --server)
  shutdown  ask a running server to drain and exit (needs --server)

GLOBAL OPTIONS:
  --server ADDR    run analyze/batch/csdf on the sdfr serve at ADDR
                   (host:port); falls back to in-process --json analysis
                   if nothing is listening there
  --peers A,B,...  route analyze/batch/csdf across a sharded fleet: every
                   graph goes to the shard owning its fingerprint (the
                   same consistent-hash map the servers derive from this
                   list), failing over along the ring when a shard is
                   down; unlike --server there is NO in-process fallback
                   — an unusable fleet fails fast, naming the bad peer
  --api-version V  require wire-schema major V (1 or sdfr-api/1); any
                   other value exits 2 before touching the network
  --json           analyze/csdf: emit one sdfr-api/1 JSON line instead of
                   the human report (batch and the server are always JSON)
  --retries N      client retries for transient server failures: failed
                   connects, 429/503 sheds (honoring Retry-After), and —
                   for idempotent requests only — broken transports
                   (default 2)
  --retry-budget-ms M  wall-clock cap across all retry sleeps (default
                   2000); setting it also bounds response reads, so a
                   stalled server fails within the budget

OPTIONS:
  --scenarios      analyze: treat <file> as a scenario-aware workload
                   (.sadf: named scenarios + a scenario FSM with
                   per-transition mode-change delays)
  -o <file>        write the resulting graph as SDF3-style XML
  --iterations K   simulation horizon
  --traditional / --novel / --auto   conversion selection
  --deadline D     wall-clock budget (e.g. 500ms, 1s, 2m; bare number = s)
  --max-firings N  abandon analyses after N actor firings / search steps
  --max-size N     refuse intermediate structures larger than N

BATCH OPTIONS:
  --tiers N,N,...    analyze each file once per --max-firings tier
  --threads T        worker threads, T >= 1 (default: SDFR_THREADS if set,
                     else available parallelism)
  --stable           sequential, deterministic order (for scripts/tests)
  --cache-entries N  session-cache entry cap (default 256)
  --cache-bytes N    session-cache byte cap (default 64 MiB)

SERVE OPTIONS:
  --addr A           listen address (default 127.0.0.1:7878; port 0 picks
                     an ephemeral port, printed on startup)
  --workers N        HTTP worker threads (default 4)
  --queue N          accept-queue depth before load-shedding 429s (default 64)
  --max-body N       request-body byte cap, larger bodies get 413 (default 8 MiB)
  --io-timeout D     per-request read/write deadline; restarts for every
                     keep-alive request, idle connections close silently
                     (default 10s)
  --max-requests N   requests served per keep-alive connection before a
                     forced Connection: close (default 256)
  --cache-dir DIR    persist warmed results to DIR/journal.sdfr-cache (a
                     checksummed, crash-safe sdfr-cache/1 journal) and
                     restore them at startup, so restarts come up warm
  --cache-entries N / --cache-bytes N   session-registry caps (as in batch)
  --shard ID/N       join an N-process fleet as shard ID (0-based); needs
                     --peers with exactly N addresses, this shard's own
                     listen address at position ID
  --peers A,B,...    the fleet's addresses in shard-id order; every member
                     (and every routing client) must be started with the
                     identical list, since each derives the shard map from
                     it independently
  --misroute MODE    what to do with requests for fingerprints another
                     shard owns: 'reject' (default) answers 421 with a
                     redirect record naming the owner; 'proxy' forwards
                     the request there and relays the answer
  --fault SPEC       test-only fault injection: comma-separated
                     accept-delay=MS, mid-response-close=N, torn-write=N,
                     slow-loris=MS
  <file>...          graphs to prefetch into the registry at startup

Under a budget, `analyze` degrades gracefully: if the exact analysis is
cut short, a conservative (safe) upper bound on the iteration period is
reported instead. Other commands fail with exit code 4.

EXIT CODES:
  0  success (including a degraded-but-safe analyze answer)
  1  invalid graph or analysis request
  2  unusable command line
  3  file could not be read or written
  4  resource budget exhausted, no safe fallback for this command
  70 internal panic (a bug)

FILES: `.xml` files are parsed as the SDF3 subset, anything else as the
text format (a leading '<' also selects XML). `.sadf` files are
scenario-aware workloads — `analyze`, `batch` and `--server` route them
through the scenario analysis automatically.
";

/// Parses a graph from a file, auto-detecting the format.
///
/// # Errors
///
/// I/O and parse errors, stringified for the user.
pub fn load_graph(path: &str) -> Result<SdfGraph, CliError> {
    parse_graph_content(path, &read_file(path)?)
}

/// Reads a whole input file; a failure is an I/O error naming the path.
pub(crate) fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::io(format!("{path}: {e}")))
}

/// The format auto-detection every graph reader shares: a `.xml` name or
/// a leading `<` selects the SDF3 subset, anything else the text format.
fn looks_xml(name: &str, content: &str) -> bool {
    name.ends_with(".xml") || content.trim_start().starts_with('<')
}

/// Parses a graph from in-memory content with the same format
/// auto-detection as [`load_graph`]. The server analyses inline request
/// content through this — names in requests are display labels, never
/// opened as paths.
pub(crate) fn parse_graph_content(name: &str, content: &str) -> Result<SdfGraph, CliError> {
    Ok(if looks_xml(name, content) {
        sdfr_io::xml::from_xml(content)?
    } else {
        sdfr_io::text::from_text(content)?
    })
}

/// Parses a cyclo-static graph with the same format auto-detection.
pub(crate) fn parse_csdf_content(
    name: &str,
    content: &str,
) -> Result<sdfr_csdf::CsdfGraph, CliError> {
    Ok(if looks_xml(name, content) {
        sdfr_io::csdf::from_xml(content)?
    } else {
        sdfr_io::csdf::from_text(content)?
    })
}

/// Runs one CLI invocation; `args` excludes the program name. Writes the
/// report into `out` and returns the process exit code.
///
/// # Errors
///
/// Returns [`CliError`] for unusable arguments, unreadable files and
/// analysis failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Globals {
        args,
        server,
        peers,
        retry,
    } = extract_globals(args)?;
    let mut out = String::new();
    let Some(command) = args.first() else {
        return Err(CliError::usage(USAGE.to_string()));
    };
    if command == "--help" || command == "-h" || command == "help" {
        return Ok(USAGE.to_string());
    }
    if command == "serve" {
        // `--peers` doubles as a serve flag (the fleet membership list);
        // hand it back to the serve parser rather than routing with it.
        let mut serve_args = args[1..].to_vec();
        if let Some(peers) = peers {
            serve_args.push("--peers".to_string());
            serve_args.push(peers.join(","));
        }
        return serve::cmd_serve(&serve_args);
    }
    if let Some(peers) = peers {
        if server.is_some() {
            return Err(CliError::usage(
                "--peers and --server are mutually exclusive: --peers routes by \
                 fingerprint, --server pins one address",
            ));
        }
        // Routed fleet mode: resolve the shard map up front and never fall
        // back to in-process analysis — with an explicit fleet on the
        // command line, a quiet local answer would mask a dead or
        // misconfigured cluster.
        return client::run_sharded(&peers, &args, &retry);
    }
    if command == "stats" || command == "shutdown" {
        // No in-process fallback for these: they are questions *about* a
        // server, meaningless without one.
        let addr =
            server.ok_or_else(|| CliError::usage(format!("{command} requires --server <addr>")))?;
        return client::cmd_control(&addr, command, &retry);
    }
    let args = match server {
        Some(addr) if matches!(command.as_str(), "analyze" | "batch" | "csdf") => {
            match client::run_remote(&addr, &args, &retry) {
                Ok(result) => return result,
                Err(connect_err) => {
                    // Load-shedding and protocol errors surface above as
                    // `Ok(Err(..))`; only a dead server degrades to local
                    // analysis. Force --json so the output shape does not
                    // depend on whether the server was up.
                    eprintln!(
                        "sdfr: server {addr} unreachable ({connect_err}); \
                         analyzing in-process"
                    );
                    client::with_json_flag(args)
                }
            }
        }
        _ => args,
    };
    let command = &args[0];
    if command == "batch" {
        return cmd_batch(&args[1..]);
    }
    let Some(path) = args.get(1) else {
        return Err(CliError::usage(format!(
            "{command}: missing <file>\n\n{USAGE}"
        )));
    };
    let opts = &args[2..];
    let budget = budget_from_opts(opts)?;
    if matches!(command.as_str(), "analyze" | "csdf") {
        let kind = workload::unit_kind(workload::command_kind(command, opts), None, path)?;
        if opts.iter().any(|o| o == "--json") {
            return cmd_record(kind, path, &budget);
        }
        match kind {
            WorkloadKind::Csdf => return cmd_csdf(path, &budget, opts),
            WorkloadKind::Sadf => return cmd_analyze_sadf(path, &budget),
            WorkloadKind::Sdf => {}
        }
    }
    let g = load_graph(path)?;

    match command.as_str() {
        "info" => cmd_info(&g, &mut out)?,
        "analyze" => cmd_analyze(&g, &budget, &mut out)?,
        "convert" => cmd_convert(&g, &budget, opts, &mut out)?,
        "abstract" => cmd_abstract(&g, opts, &mut out)?,
        "simulate" => cmd_simulate(&g, &budget, opts, &mut out)?,
        "buffers" => cmd_buffers(&g, &budget, opts, &mut out)?,
        "pareto" => cmd_pareto(&g, opts, &mut out)?,
        "latency" => cmd_latency(&g, opts, &mut out)?,
        "schedule" => cmd_schedule(&g, &budget, &mut out)?,
        "dot" => {
            out.push_str(&dot::to_dot(&g));
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown command '{other}'\n\n{USAGE}"
            )))
        }
    }
    Ok(out)
}

/// The global options [`extract_globals`] strips from the command line.
struct Globals {
    /// The command line with the global flags removed.
    args: Vec<String>,
    /// `--server <addr>`, when present.
    server: Option<String>,
    /// `--peers <a,b,…>`, when present: the full sharded fleet, in shard-id
    /// order (the same list every `sdfr serve --shard` was started with).
    peers: Option<Vec<String>>,
    /// The client retry discipline from `--retries`/`--retry-budget-ms`.
    retry: client::RetryPolicy,
}

/// Strips the global options that may appear anywhere on the command line:
/// `--server <addr>` and the `--retries`/`--retry-budget-ms` retry knobs
/// (returned), and `--api-version <v>` (validated against the `sdfr-api`
/// major this build speaks, then dropped — a mismatch is a usage error
/// before anything touches a file or the network).
fn extract_globals(args: &[String]) -> Result<Globals, CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut server = None;
    let mut peers = None;
    let mut retry = client::RetryPolicy::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--server" => {
                server =
                    Some(args.get(i + 1).cloned().ok_or_else(|| {
                        CliError::usage("--server requires an address (host:port)")
                    })?);
                i += 1;
            }
            "--peers" => {
                let list = args.get(i + 1).ok_or_else(|| {
                    CliError::usage("--peers requires a comma-separated address list")
                })?;
                peers = Some(
                    list.split(',')
                        .map(|p| p.trim().to_string())
                        .collect::<Vec<_>>(),
                );
                i += 1;
            }
            "--api-version" => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::usage("--api-version requires a value"))?;
                sdfr_api::check_requested_version(v).map_err(CliError::usage)?;
                i += 1;
            }
            "--retries" => {
                retry.retries = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::usage("--retries requires a count"))?;
                i += 1;
            }
            "--retry-budget-ms" => {
                let ms: u64 = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::usage("--retry-budget-ms requires milliseconds"))?;
                retry.budget = Duration::from_millis(ms);
                // An explicit budget also bounds response reads, so a
                // stalled server cannot outwait the retry discipline.
                retry.bounded_reads = true;
                i += 1;
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    Ok(Globals {
        args: rest,
        server,
        peers,
        retry,
    })
}

/// `analyze --json`, `analyze --scenarios --json` and `csdf --json`: one
/// standalone `sdfr-api/1` record line — byte-identical to what the
/// server's route for the same kind returns for the same source and caps.
/// A record with a nonzero exit code travels in the error (stderr, like a
/// failing `--stable` batch report) so the process exit matches the
/// record's.
fn cmd_record(kind: WorkloadKind, path: &str, budget: &Budget) -> Result<String, CliError> {
    let registry = sdfr_analysis::registry::SessionRegistry::new();
    let source = workload::load_source(kind, path);
    let unit = workload::analyze_unit(kind, None, path, &source, &registry, budget, None);
    exit_output(unit.record.exit, unit.to_json_line() + "\n")
}

/// `sdfr analyze --scenarios` (auto-selected for `.sadf` files): one
/// scenario-aware workload — named SDF scenarios plus a scenario FSM —
/// analysed as a worst-case maximum-cycle-mean problem over the FSM's
/// max-plus state-space lattice, reported with per-scenario periods and
/// the critical FSM cycle.
fn cmd_analyze_sadf(path: &str, budget: &Budget) -> Result<String, CliError> {
    let registry = sdfr_analysis::registry::SessionRegistry::new();
    let source = workload::load_source(WorkloadKind::Sadf, path);
    let record = workload::analyze_unit(
        WorkloadKind::Sadf,
        None,
        path,
        &source,
        &registry,
        budget,
        None,
    )
    .record;
    let mut out = format!("scenario-aware workload: {path}\n");
    match &record.status {
        sdfr_api::UnitStatus::Exact { period } => {
            let _ = writeln!(
                out,
                "worst-case iteration period: {}",
                period
                    .as_deref()
                    .unwrap_or("none (no recurrent constraint)")
            );
            if let Some(scenarios) = &record.scenarios {
                out.push_str("per-scenario periods:\n");
                for (name, period) in &scenarios.periods {
                    let _ = writeln!(out, "  {name}: {}", period.as_deref().unwrap_or("none"));
                }
                if !scenarios.cycle.is_empty() {
                    let _ = writeln!(
                        out,
                        "critical scenario cycle: {}",
                        scenarios.cycle.join(" -> ")
                    );
                }
            }
        }
        sdfr_api::UnitStatus::Degraded { bound, method } => {
            let _ = writeln!(
                out,
                "budget exhausted; conservative period bound: {bound} (method: {method})"
            );
        }
        sdfr_api::UnitStatus::Error { message } => {
            return exit_output(record.exit, message.clone());
        }
    }
    Ok(out)
}

/// Output that carries exit code `exit`: stdout on success; otherwise the
/// text travels in the error (stderr) and the process exits with `exit` —
/// how a failing record, server response or `--stable` batch report
/// surfaces. An error is printed with its own line end, so the text's
/// trailing newline is dropped there.
pub(crate) fn exit_output(exit: i32, mut text: String) -> Result<String, CliError> {
    let kind = match exit {
        EXIT_OK => return Ok(text),
        EXIT_USAGE => CliErrorKind::Usage,
        EXIT_IO => CliErrorKind::Io,
        EXIT_EXHAUSTED => CliErrorKind::Exhausted,
        EXIT_INVALID => CliErrorKind::Invalid,
        _ => CliErrorKind::Internal,
    };
    if text.ends_with('\n') {
        text.pop();
    }
    Err(CliError {
        kind,
        message: text,
    })
}

/// Builds the resource [`Budget`] from the global `--deadline`,
/// `--max-firings` and `--max-size` options (unlimited when absent).
pub(crate) fn budget_from_opts(opts: &[String]) -> Result<Budget, CliError> {
    let mut budget = Budget::unlimited();
    if let Some(raw) = flag_raw(opts, "--deadline")? {
        budget = budget.with_deadline(parse_duration(&raw)?);
    }
    if let Some(n) = flag_value(opts, "--max-firings")? {
        budget = budget.with_max_firings(n);
    }
    if let Some(n) = flag_value(opts, "--max-size")? {
        budget = budget.with_max_size(n);
    }
    Ok(budget)
}

/// Parses a human-friendly duration: `500ms`, `1s`, `2m`, `1h`, or a bare
/// number of seconds.
pub(crate) fn parse_duration(raw: &str) -> Result<Duration, CliError> {
    let err = || {
        CliError::usage(format!(
            "--deadline: '{raw}' is not a duration (try 1s, 500ms, 2m)"
        ))
    };
    let (digits, scale_ms) = if let Some(d) = raw.strip_suffix("ms") {
        (d, 1u64)
    } else if let Some(d) = raw.strip_suffix('s') {
        (d, 1_000)
    } else if let Some(d) = raw.strip_suffix('m') {
        (d, 60_000)
    } else if let Some(d) = raw.strip_suffix('h') {
        (d, 3_600_000)
    } else {
        (raw, 1_000)
    };
    let n: u64 = digits.parse().map_err(|_| err())?;
    let ms = n.checked_mul(scale_ms).ok_or_else(err)?;
    Ok(Duration::from_millis(ms))
}

fn cmd_info(g: &SdfGraph, out: &mut String) -> Result<(), CliError> {
    let _ = writeln!(out, "{g}");
    match repetition_vector(g) {
        Ok(gamma) => {
            let _ = writeln!(out, "consistent: yes");
            let _ = writeln!(out, "iteration length (Σγ): {}", gamma.iteration_length());
            for (a, count) in gamma.iter() {
                let _ = writeln!(out, "  γ({}) = {}", g.actor(a).name(), count);
            }
            let _ = writeln!(out, "homogeneous: {}", g.is_homogeneous());
            let _ = writeln!(out, "live: {}", is_live(g));
        }
        Err(e) => {
            let _ = writeln!(out, "consistent: no ({e})");
        }
    }
    Ok(())
}

fn cmd_analyze(g: &SdfGraph, budget: &Budget, out: &mut String) -> Result<(), CliError> {
    let session = AnalysisSession::with_budget(g.clone(), budget.clone());
    cmd_analyze_session(&session, out)
}

/// The body of `sdfr analyze` over an [`AnalysisSession`]: the throughput,
/// bottleneck and SCC reports all read the session's single cached symbolic
/// iteration (the tests assert exactly one is executed).
fn cmd_analyze_session(session: &AnalysisSession, out: &mut String) -> Result<(), CliError> {
    let g = session.graph();
    let thr = match session.throughput() {
        Ok(thr) => thr,
        Err(e @ SdfError::Exhausted { .. }) => {
            // Graceful degradation: the exact analysis was cut short, so
            // report a safe upper bound on the period instead of nothing.
            let fallback = conservative_period_fallback(g)?;
            let _ = writeln!(out, "budget exhausted: {e}");
            let _ = writeln!(
                out,
                "conservative period bound ({}): {}",
                fallback.method, fallback.bound
            );
            let _ = writeln!(
                out,
                "SAFE BOUND: the true iteration period does not exceed this \
                 value (provided the graph is live); rerun with a larger \
                 budget for the exact period"
            );
            return Ok(());
        }
        Err(e) => return Err(e.into()),
    };
    match thr.period() {
        Some(p) => {
            let _ = writeln!(out, "iteration period: {p}");
            for (a, actor) in g.actors() {
                let _ = writeln!(
                    out,
                    "  throughput({}) = {}",
                    actor.name(),
                    thr.actor_throughput(a)
                        .map_or("unbounded".to_string(), |t| t.to_string())
                );
            }
        }
        None => {
            let _ = writeln!(out, "iteration period: none (unbounded throughput)");
        }
    }
    let _ = writeln!(
        out,
        "first-iteration makespan: {}",
        session.iteration_makespan()?
    );
    if let Some(b) = session.bottleneck()? {
        let names: Vec<&str> = b.actors.iter().map(|&a| g.actor(a).name()).collect();
        let _ = writeln!(out, "bottleneck actors: {}", names.join(", "));
        let _ = writeln!(out, "critical tokens: {}", b.tokens.len());
    }
    Ok(())
}

fn cmd_convert(
    g: &SdfGraph,
    budget: &Budget,
    opts: &[String],
    out: &mut String,
) -> Result<(), CliError> {
    let session = AnalysisSession::with_budget(g.clone(), budget.clone());
    let p = predict_sizes_with_session(&session)?;
    let _ = writeln!(
        out,
        "prediction: traditional = {} actors, novel <= {} actors (N = {})",
        p.traditional_actors, p.novel_actor_bound, p.tokens
    );
    let mode = if opts.iter().any(|o| o == "--traditional") {
        ConversionChoice::Traditional
    } else if opts.iter().any(|o| o == "--novel") {
        ConversionChoice::Novel
    } else {
        p.choice()
    };
    let converted = match mode {
        ConversionChoice::Traditional => {
            let c = traditional::convert_with_session(&session)?;
            let _ = writeln!(out, "traditional conversion selected");
            c.graph
        }
        ConversionChoice::Novel => {
            let c = novel::convert_with_session(&session)?;
            let _ = writeln!(out, "novel conversion selected");
            c.graph
        }
    };
    let _ = writeln!(
        out,
        "result: {} actors, {} channels, {} tokens",
        converted.num_actors(),
        converted.num_channels(),
        converted.total_initial_tokens()
    );
    write_output(&converted, opts, out)?;
    Ok(())
}

fn cmd_abstract(g: &SdfGraph, opts: &[String], out: &mut String) -> Result<(), CliError> {
    let abs = auto_abstraction(g)?;
    let _ = writeln!(
        out,
        "abstraction: {} groups, cycle length N = {}",
        abs.num_groups(),
        abs.cycle_length()
    );
    let small = abstract_graph(g, &abs)?;
    let _ = writeln!(
        out,
        "abstract graph: {} actors, {} channels",
        small.num_actors(),
        small.num_channels()
    );
    match verify_abstraction(g, &abs)? {
        Ok(()) => {
            let _ = writeln!(out, "conservativity: verified (Prop. 1 premises hold)");
        }
        Err(v) => {
            let _ = writeln!(out, "conservativity: VIOLATED ({v})");
        }
    }
    let actual = throughput(g)?.period();
    let bound = conservative_period_bound(g, &abs)?;
    let _ = writeln!(
        out,
        "original period: {}",
        actual.map_or("none".to_string(), |p| p.to_string())
    );
    let _ = writeln!(
        out,
        "conservative bound (N·λ'): {}",
        bound.map_or("none".to_string(), |p| p.to_string())
    );
    write_output(&small, opts, out)?;
    Ok(())
}

fn cmd_simulate(
    g: &SdfGraph,
    budget: &Budget,
    opts: &[String],
    out: &mut String,
) -> Result<(), CliError> {
    let iterations = flag_value(opts, "--iterations")?.unwrap_or(8);
    let trace = simulate(
        g,
        &SimulationOptions::iterations(iterations).with_budget(budget.clone()),
    )?;
    let _ = writeln!(out, "simulated {iterations} iteration(s)");
    let _ = writeln!(out, "makespan: {}", trace.makespan);
    let _ = writeln!(
        out,
        "iteration completion times: {:?}",
        trace.iteration_completions
    );
    for (cid, c) in g.channels() {
        let _ = writeln!(
            out,
            "  peak tokens on {} -> {}: {}",
            g.actor(c.source()).name(),
            g.actor(c.target()).name(),
            trace.channel_peak_tokens[cid.index()]
        );
    }
    Ok(())
}

fn cmd_buffers(
    g: &SdfGraph,
    budget: &Budget,
    opts: &[String],
    out: &mut String,
) -> Result<(), CliError> {
    let iterations = flag_value(opts, "--iterations")?.unwrap_or(16);
    let peaks = simulate(
        g,
        &SimulationOptions::iterations(iterations).with_budget(budget.clone()),
    )?
    .channel_peak_tokens;
    let session = AnalysisSession::with_budget(g.clone(), budget.clone());
    let minimal = session.minimize_capacities(iterations)?;
    let _ = writeln!(
        out,
        "channel                      self-timed peak  minimal capacity"
    );
    for (cid, c) in g.channels() {
        let label = format!(
            "{} -> {}",
            g.actor(c.source()).name(),
            g.actor(c.target()).name()
        );
        let _ = writeln!(
            out,
            "{label:<28} {:>15}  {:>16}",
            peaks[cid.index()],
            minimal[cid.index()]
        );
    }
    let _ = writeln!(
        out,
        "total: peak {} vs minimal {}",
        peaks.iter().sum::<u64>(),
        minimal.iter().sum::<u64>()
    );
    Ok(())
}

fn cmd_latency(g: &SdfGraph, opts: &[String], out: &mut String) -> Result<(), CliError> {
    let source = named_actor(g, opts, "--source")?;
    let sink = named_actor(g, opts, "--sink")?;
    let mu = flag_value(opts, "--period")?
        .ok_or_else(|| CliError::usage("latency requires --period <MU>"))?;
    let l = periodic_source_latency(g, source, sink, mu as i64, 16, 16)?;
    let _ = writeln!(
        out,
        "steady-state latency {} -> {} at source period {}: {}",
        g.actor(source).name(),
        g.actor(sink).name(),
        mu,
        l
    );
    Ok(())
}

fn cmd_schedule(g: &SdfGraph, budget: &Budget, out: &mut String) -> Result<(), CliError> {
    match AnalysisSession::with_budget(g.clone(), budget.clone()).rate_optimal_schedule()? {
        None => {
            let _ = writeln!(out, "no recurrent constraint: any period admits a schedule");
        }
        Some(s) => {
            let _ = writeln!(out, "rate-optimal period: {}", s.period());
            for (a, actor) in g.actors() {
                let _ = writeln!(out, "  start({}) = {}", actor.name(), s.start_time(a, 0));
            }
            debug_assert!(s.is_admissible(g));
        }
    }
    Ok(())
}

fn cmd_pareto(g: &SdfGraph, opts: &[String], out: &mut String) -> Result<(), CliError> {
    let iterations = flag_value(opts, "--iterations")?.unwrap_or(16);
    let curve = AnalysisSession::new(g.clone()).throughput_buffer_tradeoff(iterations)?;
    let _ = writeln!(out, "total capacity  period");
    for point in curve {
        let _ = writeln!(
            out,
            "{:>14}  {}",
            point.total,
            point
                .period
                .map_or("deadlock".to_string(), |p| p.to_string())
        );
    }
    Ok(())
}

/// Runs `sdfr batch` (see [`batch`]): streams one JSON line per unit to
/// stdout as results land (unless `--stable`, where the whole deterministic
/// report is returned instead), then reports the summary. A batch whose
/// worst per-unit exit code is nonzero surfaces that code through the
/// returned [`CliError`]; in streaming mode the per-unit lines have already
/// been printed by then.
fn cmd_batch(args: &[String]) -> Result<String, CliError> {
    let opts = batch::parse_batch_args(args)?;
    let report = if opts.stable {
        batch::run_batch(&opts, &|_| {})
    } else {
        let report = batch::run_batch(&opts, &|line| println!("{line}"));
        println!("{}", report.summary);
        report
    };
    // The numerically largest per-unit code is also the most severe
    // (0 < 1 invalid < 3 io < 4 exhausted).
    if opts.stable {
        exit_output(report.exit_code, report.text())
    } else {
        exit_output(report.exit_code, report.summary).map(|_| String::new())
    }
}

/// Analyses a cyclo-static file: consistency, throughput, HSDF reduction.
fn cmd_csdf(path: &str, budget: &Budget, opts: &[String]) -> Result<String, CliError> {
    let g = parse_csdf_content(path, &read_file(path)?)?;
    let mut out = String::new();
    let _ = write!(out, "{g}");
    // One symbolic iteration feeds the repetition report, the throughput
    // and the HSDF reduction alike.
    let sym = sdfr_csdf::symbolic_iteration_capped(&g, budget)?;
    let _ = writeln!(
        out,
        "phase firings per iteration: {}",
        sym.repetition.iteration_length(&g)
    );
    let _ = writeln!(
        out,
        "iteration period: {}",
        sdfr_csdf::period_from_symbolic(&sym)?
            .map_or("none (unbounded)".to_string(), |p| p.to_string())
    );
    let hsdf = sdfr_csdf::hsdf_from_symbolic(&sym, g.name());
    let _ = writeln!(
        out,
        "compact HSDF: {} actors, {} channels, {} tokens",
        hsdf.num_actors(),
        hsdf.num_channels(),
        hsdf.total_initial_tokens()
    );
    write_output(&hsdf, opts, &mut out)?;
    Ok(out)
}

/// Resolves `--flag <actor-name>` against the graph.
fn named_actor(g: &SdfGraph, opts: &[String], flag: &str) -> Result<sdfr_graph::ActorId, CliError> {
    let Some(pos) = opts.iter().position(|o| o == flag) else {
        return Err(CliError::usage(format!("latency requires {flag} <actor>")));
    };
    let name = opts
        .get(pos + 1)
        .ok_or_else(|| CliError::usage(format!("{flag} requires an actor name")))?;
    g.actor_by_name(name)
        .ok_or_else(|| CliError::invalid(format!("no actor named '{name}'")))
}

/// Writes `g` as XML if `-o <path>` appears in the options.
fn write_output(g: &SdfGraph, opts: &[String], out: &mut String) -> Result<(), CliError> {
    if let Some(pos) = opts.iter().position(|o| o == "-o") {
        let path = opts
            .get(pos + 1)
            .ok_or_else(|| CliError::usage("-o requires a file path"))?;
        std::fs::write(path, sdfr_io::xml::to_xml(g))
            .map_err(|e| CliError::io(format!("{path}: {e}")))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(())
}

/// Extracts the raw string value of `--flag <value>` from the options.
pub(crate) fn flag_raw(opts: &[String], flag: &str) -> Result<Option<String>, CliError> {
    let Some(pos) = opts.iter().position(|o| o == flag) else {
        return Ok(None);
    };
    opts.get(pos + 1)
        .cloned()
        .map(Some)
        .ok_or_else(|| CliError::usage(format!("{flag} requires a value")))
}

/// Extracts `--flag <u64>` from the options.
pub(crate) fn flag_value(opts: &[String], flag: &str) -> Result<Option<u64>, CliError> {
    let Some(raw) = flag_raw(opts, flag)? else {
        return Ok(None);
    };
    raw.parse()
        .map(Some)
        .map_err(|_| CliError::usage(format!("{flag}: '{raw}' is not a number")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(content: &str, ext: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sdfr-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "g-{}-{}.{ext}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::write(&path, content).unwrap();
        path
    }

    fn sample_text() -> &'static str {
        "graph demo\nactor a 2\nactor b 3\nchannel a b 1 1 0\nchannel b a 1 1 1\n"
    }

    fn run_on(cmd: &str, file: &std::path::Path, extra: &[&str]) -> Result<String, CliError> {
        let mut args = vec![cmd.to_string(), file.to_string_lossy().into_owned()];
        args.extend(extra.iter().map(|s| s.to_string()));
        run(&args)
    }

    #[test]
    fn info_reports_structure() {
        let f = write_temp(sample_text(), "sdf");
        let out = run_on("info", &f, &[]).unwrap();
        assert!(out.contains("consistent: yes"));
        assert!(out.contains("γ(a) = 1"));
        assert!(out.contains("live: true"));
    }

    #[test]
    fn analyze_reports_period_and_bottleneck() {
        let f = write_temp(sample_text(), "sdf");
        let out = run_on("analyze", &f, &[]).unwrap();
        assert!(out.contains("iteration period: 5"));
        assert!(out.contains("throughput(a) = 1/5"));
        assert!(out.contains("bottleneck actors: a, b"));
    }

    #[test]
    fn analyze_runs_exactly_one_symbolic_iteration() {
        // The whole analyze report — period, per-actor throughput, makespan,
        // bottleneck — must come out of a single symbolic iteration.
        let g = sdfr_io::text::from_text(sample_text()).unwrap();
        let session = AnalysisSession::new(g);
        let mut out = String::new();
        cmd_analyze_session(&session, &mut out).unwrap();
        assert!(out.contains("iteration period: 5"), "{out}");
        assert!(out.contains("bottleneck actors: a, b"), "{out}");
        assert_eq!(session.symbolic_iterations_computed(), 1);
    }

    #[test]
    fn convert_auto_and_forced() {
        // The tiny sample has Σγ = 2 < N(N+2) = 3: auto picks traditional.
        let f = write_temp(sample_text(), "sdf");
        let out = run_on("convert", &f, &[]).unwrap();
        assert!(out.contains("prediction:"));
        assert!(out.contains("traditional conversion selected"));
        assert!(out.contains("result: 2 actors"));
        let out = run_on("convert", &f, &["--novel"]).unwrap();
        assert!(out.contains("novel conversion selected"));
        assert!(out.contains("result: 1 actors"));
        // A multirate chain flips the recommendation to novel.
        let f = write_temp(
            "graph big\nactor a 1\nactor b 1\nchannel a b 9 1 0\nchannel a a 1 1 1\n",
            "sdf",
        );
        let out = run_on("convert", &f, &[]).unwrap();
        assert!(out.contains("novel conversion selected"));
    }

    #[test]
    fn convert_writes_xml_output() {
        let f = write_temp(sample_text(), "sdf");
        let outfile = f.with_extension("out.xml");
        let out = run_on("convert", &f, &["--novel", "-o", outfile.to_str().unwrap()]).unwrap();
        assert!(out.contains("wrote"));
        let written = std::fs::read_to_string(&outfile).unwrap();
        assert!(written.contains("<sdf3"));
        // The written file parses back.
        assert!(sdfr_io::xml::from_xml(&written).is_ok());
    }

    #[test]
    fn abstract_verifies() {
        let text = "graph regular\nactor A1 2\nactor A2 5\nactor A3 3\n\
                    channel A1 A2 1 1 0\nchannel A2 A3 1 1 0\nchannel A3 A1 1 1 1\n";
        let f = write_temp(text, "sdf");
        let out = run_on("abstract", &f, &[]).unwrap();
        assert!(out.contains("abstraction: 1 groups, cycle length N = 3"));
        assert!(out.contains("conservativity: verified"));
        assert!(out.contains("original period: 10"));
        assert!(out.contains("conservative bound (N·λ'): 15"));
    }

    #[test]
    fn simulate_and_buffers() {
        let f = write_temp(sample_text(), "sdf");
        let out = run_on("simulate", &f, &["--iterations", "3"]).unwrap();
        assert!(out.contains("simulated 3 iteration(s)"));
        assert!(out.contains("[5, 10, 15]"));
        let out = run_on("buffers", &f, &[]).unwrap();
        assert!(out.contains("total: peak"));
    }

    #[test]
    fn latency_and_schedule_commands() {
        let text = "graph pp\nactor src 1\nactor work 4\nactor snk 2\n\
                    channel src work 1 1 0\nchannel work snk 1 1 0\n\
                    channel src src 1 1 1\nchannel work work 1 1 1\n\
                    channel snk snk 1 1 1\n";
        let f = write_temp(text, "sdf");
        let out = run_on(
            "latency",
            &f,
            &["--source", "src", "--sink", "snk", "--period", "10"],
        )
        .unwrap();
        assert!(out.contains("latency src -> snk at source period 10: 7"));
        assert!(run_on("latency", &f, &["--source", "src"]).is_err());
        assert!(run_on(
            "latency",
            &f,
            &["--source", "ghost", "--sink", "snk", "--period", "10"]
        )
        .is_err());

        let out = run_on("schedule", &f, &[]).unwrap();
        assert!(out.contains("rate-optimal period: 4"));
        assert!(out.contains("start(src) = 0"));
    }

    #[test]
    fn pareto_command() {
        let text = "graph pipe\nactor x 2\nactor y 5\nchannel x y 1 1 0\n\
                    channel x x 1 1 1\nchannel y y 1 1 1\n";
        let f = write_temp(text, "sdf");
        let out = run_on("pareto", &f, &[]).unwrap();
        assert!(out.contains("total capacity  period"));
        assert!(out.lines().count() >= 3);
        assert!(
            out.trim_end().ends_with('5'),
            "curve ends at the target: {out}"
        );
    }

    #[test]
    fn csdf_command() {
        let text = "csdf w\nactor w 1,3\nchannel w w 1,1 1,1 1\n";
        let f = write_temp(text, "csdf");
        let out = run_on("csdf", &f, &[]).unwrap();
        assert!(out.contains("iteration period: 4"));
        assert!(out.contains("compact HSDF: 1 actors"));
        let outfile = f.with_extension("hsdf.xml");
        let out = run_on("csdf", &f, &["-o", outfile.to_str().unwrap()]).unwrap();
        assert!(out.contains("wrote"));
        assert!(sdfr_io::xml::from_xml(&std::fs::read_to_string(outfile).unwrap()).is_ok());
    }

    #[test]
    fn dot_outputs_graphviz() {
        let f = write_temp(sample_text(), "sdf");
        let out = run_on("dot", &f, &[]).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn xml_files_detected() {
        let mut b = SdfGraph::builder("x");
        let a = b.actor("a", 1);
        b.channel(a, a, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let f = write_temp(&sdfr_io::xml::to_xml(&g), "xml");
        let out = run_on("info", &f, &[]).unwrap();
        assert!(out.contains("consistent: yes"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&[]).is_err());
        assert!(run(&["info".to_string()]).is_err());
        assert!(run(&["info".to_string(), "/nonexistent/file".to_string()]).is_err());
        let f = write_temp(sample_text(), "sdf");
        assert!(run_on("frobnicate", &f, &[]).is_err());
        assert!(run_on("simulate", &f, &["--iterations"]).is_err());
        assert!(run_on("simulate", &f, &["--iterations", "many"]).is_err());
        let help = run(&["--help".to_string()]).unwrap();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn analyze_degrades_under_budget() {
        // Σγ = 1e9 + 1: exact analysis is hopeless, the bound is instant.
        let f = write_temp(
            "graph huge\nactor x 1\nactor y 1\nchannel x y 1000000000 1 0\n",
            "sdf",
        );
        let t0 = std::time::Instant::now();
        let out = run_on(
            "analyze",
            &f,
            &["--deadline", "1s", "--max-firings", "100000"],
        )
        .unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_secs(1), "{out}");
        assert!(out.contains("budget exhausted"), "{out}");
        assert!(
            out.contains("conservative period bound (serialization): 1000000001"),
            "{out}"
        );
        assert!(out.contains("SAFE BOUND"), "{out}");
        // An ample budget yields the exact answer with no degradation.
        let f = write_temp(sample_text(), "sdf");
        let out = run_on("analyze", &f, &["--deadline", "1h"]).unwrap();
        assert!(out.contains("iteration period: 5"), "{out}");
        assert!(!out.contains("budget exhausted"), "{out}");
    }

    #[test]
    fn budgeted_commands_fail_distinctly_when_exhausted() {
        let f = write_temp(
            "graph huge\nactor x 1\nactor y 1\nchannel x y 1000000000 1 0\n",
            "sdf",
        );
        let t0 = std::time::Instant::now();
        let err = run_on("convert", &f, &["--traditional", "--max-size", "1000000"]).unwrap_err();
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(err.kind, CliErrorKind::Exhausted);
        assert_eq!(err.exit_code(), EXIT_EXHAUSTED);

        // γ = (3, 2), 6 initial tokens: each budgeted path names the cap it
        // hit and what it had spent.
        let f = write_temp(
            "graph updown\nactor a 2\nactor b 3\nchannel a b 2 3 0\nchannel b a 3 2 6\n",
            "sdf",
        );
        for (cmd, extra, used) in [
            (
                "buffers",
                &["--max-firings", "1"][..],
                "firings used 0 of limit 1",
            ),
            (
                "schedule",
                &["--max-size", "1"],
                "state size used 2 of limit 1",
            ),
            (
                "convert",
                &["--novel", "--max-size", "1"],
                "state size used 6 of limit 1",
            ),
            (
                "convert",
                &["--traditional", "--max-firings", "1"],
                "firings used 0 of limit 1",
            ),
            (
                "simulate",
                &["--max-firings", "1"],
                "firings used 0 of limit 1",
            ),
        ] {
            let err = run_on(cmd, &f, extra).unwrap_err();
            assert_eq!(err.kind, CliErrorKind::Exhausted, "{cmd} {extra:?}");
            assert_eq!(err.exit_code(), EXIT_EXHAUSTED, "{cmd} {extra:?}");
            assert_eq!(
                err.message,
                format!("resource budget exhausted: {used}"),
                "{cmd} {extra:?}"
            );
        }

        // The cyclo-static front-end runs under the same caps: 6 initial
        // tokens and 4 phase firings per iteration.
        let f = write_temp(
            "csdf tp\nactor p 1,3\nactor c 2\nchannel p c 2,0 1 0\n\
             channel c p 1 0,2 4\nchannel p p 1,1 1,1 1\nchannel c c 1 1 1\n",
            "csdf",
        );
        for (extra, used) in [
            (
                &["--json", "--max-firings", "1"][..],
                "firings used 2 of limit 1",
            ),
            (&["--max-size", "1"], "state size used 6 of limit 1"),
        ] {
            let err = run_on("csdf", &f, extra).unwrap_err();
            assert_eq!(err.exit_code(), EXIT_EXHAUSTED, "csdf {extra:?}");
            let message = format!("resource budget exhausted: {used}");
            let record = format!(
                "{{\"schema\":\"sdfr-api/1\",\"workload_kind\":\"csdf\",\"file\":\"{}\",\
                 \"status\":\"error\",\"error\":\"{message}\",\"exit\":4}}",
                f.display()
            );
            let json = extra[0] == "--json";
            assert_eq!(err.message, if json { record } else { message });
        }
    }

    #[test]
    fn budgeted_commands_still_work_with_room_to_spare() {
        let f = write_temp(sample_text(), "sdf");
        for cmd in ["simulate", "buffers", "schedule", "convert"] {
            run_on(cmd, &f, &["--max-firings", "100000", "--deadline", "1h"])
                .unwrap_or_else(|e| panic!("{cmd}: {e}"));
        }
    }

    #[test]
    fn exit_codes_are_distinct() {
        let f = write_temp(sample_text(), "sdf");
        // usage
        assert_eq!(run(&[]).unwrap_err().exit_code(), EXIT_USAGE);
        assert_eq!(
            run_on("frobnicate", &f, &[]).unwrap_err().exit_code(),
            EXIT_USAGE
        );
        assert_eq!(
            run_on("analyze", &f, &["--deadline", "soon"])
                .unwrap_err()
                .exit_code(),
            EXIT_USAGE
        );
        // io
        assert_eq!(
            run(&["info".to_string(), "/nonexistent/file".to_string()])
                .unwrap_err()
                .exit_code(),
            EXIT_IO
        );
        // invalid
        let bad = write_temp("graph bad\nactor a 1\nchannel a a 1 2 1\n", "sdf");
        assert_eq!(
            run_on("analyze", &bad, &[]).unwrap_err().exit_code(),
            EXIT_INVALID
        );
    }

    #[test]
    fn exit_output_maps_every_exit() {
        assert_eq!(exit_output(0, "out".into()).unwrap(), "out");
        for (exit, kind) in [
            (1, CliErrorKind::Invalid),
            (2, CliErrorKind::Usage),
            (3, CliErrorKind::Io),
            (4, CliErrorKind::Exhausted),
            (70, CliErrorKind::Internal),
            (99, CliErrorKind::Internal),
        ] {
            assert_eq!(exit_output(exit, String::new()).unwrap_err().kind, kind);
        }
        // The error's own line end replaces the record's.
        assert_eq!(exit_output(1, "{}\n".into()).unwrap_err().message, "{}");
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("1s").unwrap(), Duration::from_secs(1));
        assert_eq!(parse_duration("2m").unwrap(), Duration::from_secs(120));
        assert_eq!(parse_duration("1h").unwrap(), Duration::from_secs(3600));
        assert_eq!(parse_duration("3").unwrap(), Duration::from_secs(3));
        assert!(parse_duration("soon").is_err());
        assert!(parse_duration("").is_err());
    }

    #[test]
    fn info_on_inconsistent_graph() {
        let f = write_temp("graph bad\nactor a 1\nchannel a a 1 2 1\n", "sdf");
        let out = run_on("info", &f, &[]).unwrap();
        assert!(out.contains("consistent: no"));
    }
}
