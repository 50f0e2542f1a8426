//! One workload run: prepare and start `sdfr serve`, drive the closed
//! loop, probe the transport, stop the server, replay the same requests
//! in-process, check every answer, and compute the metrics.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfr_analysis::registry::RegistryConfig;
use sdfr_api::json::{self, Value};

use crate::client::{self, Conn, Sample};
use crate::gen::{mix, Generator, Workload};
use crate::oracle::{self, Oracle};
use crate::replay::{Expected, Replay};
use crate::server::{Server, Stats};
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::{self_times, write_jsonl};

/// Server starts per run, `setup_s` being their median: at least
/// `SETUP_STARTS.0`, and more — up to `SETUP_STARTS.1` — while their total
/// stays under [`SETUP_BUDGET`]. An empty server starts in under 1 ms with
/// ±15% noise per start, so it gets the larger sample; a journal-replaying
/// `warm_hit` server takes ~0.8 s and gets the smaller one.
const SETUP_STARTS: (usize, usize) = (5, 25);
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// The unmeasured warm-up before the timed phase (shorter only when the
/// timed phase itself is).
const WARMUP: Duration = Duration::from_secs(2);
/// Distinct graphs per run whose served period is checked by the oracle.
const ORACLE_SAMPLE: usize = 64;
/// The transport probes of a traced run.
const KEEPALIVE_PROBE: Duration = Duration::from_secs(3);
const ACCEPT_PROBE: Duration = Duration::from_secs(1);
/// Failure messages kept for the report.
const FAILURES_SHOWN: usize = 5;

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub timed: Duration,
    /// Also run the transport probes and write the trace file.
    pub trace: bool,
    /// Where trace, result and scratch files go.
    pub out: PathBuf,
    /// The `sdfr` binary.
    pub sdfr: PathBuf,
    /// Closed-loop clients (threads, one connection each).
    pub clients: usize,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, e.g. `latency_p50_ms`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit, e.g. `ms`.
    pub unit: &'static str,
    /// The sample count behind a percentile or median.
    pub samples: Option<usize>,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests sent, warm-up and set-up requests included.
    pub attempted: u64,
    /// Requests answered wrongly or not at all, plus oracle mismatches
    /// and a server that did not stop cleanly.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
    /// Run facts: durations, sample counts, the tail percentile rule.
    pub notes: Vec<(String, String)>,
}

/// Counts failures and keeps the first few messages.
#[derive(Debug, Default)]
struct Failures {
    count: u64,
    shown: Vec<String>,
}

impl Failures {
    fn add(&mut self, message: String) {
        self.count += 1;
        if self.shown.len() < FAILURES_SHOWN {
            self.shown.push(message);
        }
    }
}

/// How a workload's server is configured, and what the replay mirrors.
#[derive(Debug, Clone)]
struct ServerSetup {
    /// Flags after `sdfr serve --addr 127.0.0.1:0`.
    args: Vec<String>,
    /// The registry limits those flags set.
    registry: RegistryConfig,
    /// The server keeps a `--cache-dir` journal.
    journal: bool,
}

/// The server flags of a workload.
///
/// - `warm_hit` keeps a journal and lifts the byte cap: the prep server
///   must hold all 192 fully analysed sessions (the big Table-1 graphs
///   take megabytes each) so that compaction keeps every record and all
///   192 restore.
/// - `cold_miss` keeps a journal in a 32-entry registry: every miss
///   evicts, and each compaction (every ~215 requests) rewrites about 32
///   live records. With the default 256 entries each compaction stalled
///   both clients for up to ~1.4 s, and throughput depended on whether
///   two or three stalls fell in the timed phase.
/// - `near_hit_family` uses the default 256-entry registry.
/// - `kinds_batch` raises the entry cap to 1024 and lifts the byte cap.
///   Its batch records carry hit/miss attribution, which the byte-for-byte
///   check needs deterministic: a warm repeat must never be evicted. Each
///   warm graph is repeated once per 16 batches, so at most 64 requests —
///   under 180 fresh entries — pass between two touches of it, far fewer
///   than a 1024-entry LRU needs to evict it. Fresh entries are looked up
///   once, so their evictions never change an answer.
fn server_setup(workload: Workload, cache_dir: &Path) -> ServerSetup {
    let mut registry = RegistryConfig::default();
    match workload {
        Workload::WarmHit => registry.max_bytes = 1 << 30,
        Workload::ColdMiss => registry.max_entries = 32,
        Workload::NearHitFamily => {}
        Workload::KindsBatch => {
            registry.max_entries = 1024;
            registry.max_bytes = 1 << 40;
        }
    }
    let journal = matches!(workload, Workload::WarmHit | Workload::ColdMiss);
    let mut args = Vec::new();
    let mut flag = |name: &str, value: String| args.extend([name.to_string(), value]);
    if journal {
        flag("--cache-dir", cache_dir.display().to_string());
    }
    let default = RegistryConfig::default();
    if registry.max_entries != default.max_entries {
        flag("--cache-entries", registry.max_entries.to_string());
    }
    if registry.max_bytes != default.max_bytes {
        flag("--cache-bytes", registry.max_bytes.to_string());
    }
    ServerSetup {
        args,
        registry,
        journal,
    }
}

/// Problems in one answer: a transport error, a non-200 status, a record
/// with a non-zero `"exit"` or `"pending":true`.
fn answer_problem(outcome: &Result<client::Response, String>) -> Option<String> {
    let r = match outcome {
        Ok(r) => r,
        Err(e) => return Some(format!("no answer: {e}")),
    };
    if r.status != 200 {
        return Some(format!("status {}: {}", r.status, r.body.trim()));
    }
    for line in r.body.lines() {
        let v = json::parse(line).map_err(|e| e.to_string());
        let Ok(v) = v else {
            return Some(format!("unparseable line {line:?}"));
        };
        if v.get("exit").and_then(Value::as_u64) != Some(0) {
            return Some(format!("exit ≠ 0: {line}"));
        }
        if v.get("pending") == Some(&Value::Bool(true)) {
            return Some(format!("pending: {line}"));
        }
    }
    None
}

/// Sends every prewarm request over its own connection; fatal on failure.
fn prewarm(addr: SocketAddr, gen: &Generator) -> Result<Vec<client::Response>, String> {
    gen.prewarm()
        .iter()
        .map(|r| {
            let resp = client::one_shot(addr, &r.bytes()).map_err(|e| format!("prewarm: {e}"))?;
            if resp.status != 200 {
                return Err(format!(
                    "prewarm answered {}: {}",
                    resp.status,
                    resp.body.trim()
                ));
            }
            Ok(resp)
        })
        .collect()
}

/// The transport probes of a traced run: p50 in µs and sample count of
/// a 404 on a kept-alive connection, and of one on a fresh connection.
#[derive(Debug, Clone, Copy, Default)]
struct Probes {
    keepalive: (f64, usize),
    accept: (f64, usize),
}

/// p50 in µs of `probe` repeated for `length`; `None` if it ever failed.
fn probe_us(length: Duration, mut probe: impl FnMut() -> bool) -> Option<(f64, usize)> {
    let end = Instant::now() + length;
    let mut us = Vec::new();
    while Instant::now() < end {
        let t0 = Instant::now();
        if !probe() {
            return None;
        }
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let n = us.len();
    Some((percentile(&sorted(us), 50.0), n))
}

/// A scratch directory for server journals and logs, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The live part of a run, up to the stopped server.
struct Live {
    samples: Vec<Sample>,
    prewarmed: Vec<client::Response>,
    warmup: Duration,
    setups: Vec<f64>,
    threads_peak: u64,
    cpu_s: f64,
    /// `VmRSS` samples over the timed phase, every 100 ms.
    rss_kb: Vec<f64>,
    rss_peak_kb: u64,
    before: Stats,
    after: Stats,
    journal_bytes: u64,
    probes: Probes,
}

fn live(
    cfg: &Config,
    gen: &Generator,
    work: &Path,
    failures: &mut Failures,
) -> Result<Live, String> {
    let cache_dir = work.join("cache");
    let args = server_setup(cfg.workload, &cache_dir).args;
    let log = work.join("server.log");
    if cfg.workload == Workload::WarmHit {
        // Fill the journal on a prep server; the measured server restarts onto it.
        let prep = Server::start(&cfg.sdfr, &args, &work.join("prep.log"))?;
        prewarm(prep.addr, gen)?;
        prep.shutdown()?;
    }
    let mut setups = Vec::new();
    let server = loop {
        let server = Server::start(&cfg.sdfr, &args, &log)?;
        setups.push(server.setup.as_secs_f64());
        let spent = Duration::from_secs_f64(setups.iter().sum());
        let (min, max) = SETUP_STARTS;
        if setups.len() >= max || (setups.len() >= min && spent >= SETUP_BUDGET) {
            break server;
        }
    };
    if cfg.workload == Workload::WarmHit {
        let restored = server.stats()?.get(&["persistence", "journal_loaded"]);
        if restored != crate::gen::WARM_HIT_GRAPHS {
            return Err(format!(
                "the server restored {restored} of {} journalled sessions",
                crate::gen::WARM_HIT_GRAPHS
            ));
        }
    }
    let prewarmed = if cfg.workload == Workload::KindsBatch {
        prewarm(server.addr, gen)?
    } else {
        Vec::new()
    };

    let warmup = WARMUP.min(cfg.timed);
    let origin = Instant::now();
    let warm_end = origin + warmup;
    let end = warm_end + cfg.timed;
    let done = AtomicBool::new(false);
    let request = |i: u64| {
        let r = gen.request(i);
        (r.bytes(), r.close)
    };
    let mut threads_peak = 0;
    let mut rss_kb = Vec::new();
    let mut before = None;
    let samples = std::thread::scope(|s| {
        let load = s.spawn(|| {
            let samples = client::closed_loop(server.addr, cfg.clients, origin, end, &request);
            done.store(true, Ordering::SeqCst);
            samples
        });
        while !done.load(Ordering::SeqCst) {
            if Instant::now() >= warm_end {
                if before.is_none() {
                    before = Some((server.stats(), server.cpu_seconds()));
                }
                rss_kb.extend(server.status_field("VmRSS"));
            }
            threads_peak = threads_peak.max(server.status_field("Threads").unwrap_or(0));
            std::thread::sleep(Duration::from_millis(100));
        }
        load.join().expect("the load threads do not panic")
    });
    let cpu_after = server.cpu_seconds();
    let after = server.stats()?;
    let rss_peak_kb = server.status_field("VmHWM").unwrap_or(0);
    let (before, cpu_before) = before.ok_or("the load ended before its timed phase".to_string())?;
    let journal_bytes =
        std::fs::metadata(cache_dir.join("journal.sdfr-cache")).map_or(0, |m| m.len());

    let mut probes = Probes::default();
    if cfg.trace {
        let mut conn = Conn::new(server.addr);
        let nope = client::get_keepalive("/v1/nope");
        let keepalive = probe_us(
            KEEPALIVE_PROBE,
            || matches!(conn.exchange(&nope, false), Ok(r) if r.status == 404),
        );
        let nope = client::get_close("/v1/nope");
        let accept = probe_us(
            ACCEPT_PROBE,
            || matches!(client::one_shot(server.addr, &nope), Ok(r) if r.status == 404),
        );
        if keepalive.is_none() || accept.is_none() {
            failures.add("a transport probe did not answer 404".into());
        }
        probes = Probes {
            keepalive: keepalive.unwrap_or_default(),
            accept: accept.unwrap_or_default(),
        };
    }
    if let Err(e) = server.shutdown() {
        failures.add(e);
    }
    Ok(Live {
        samples,
        prewarmed,
        warmup,
        setups,
        threads_peak,
        cpu_s: cpu_after.zip(cpu_before).map_or(0.0, |(a, b)| a - b),
        rss_kb: rss_kb.into_iter().map(|kb| kb as f64).collect(),
        rss_peak_kb,
        before: before?,
        after,
        journal_bytes,
        probes,
    })
}

/// Runs one workload end to end.
///
/// # Errors
///
/// A message when the run could not be carried out at all: the server
/// would not start, or a set-up request failed.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let gen = Generator::new(cfg.workload, cfg.seed);
    let work = WorkDir(cfg.out.join(format!(
        "work-{}-{}",
        cfg.workload.name(),
        std::process::id()
    )));
    let work = &work.0;
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut failures = Failures::default();
    let t_live = Instant::now();
    let live = live(cfg, &gen, work, &mut failures)?;
    let live_s = t_live.elapsed().as_secs_f64();

    // Replay everything the server answered, in index order.
    let t_replay = Instant::now();
    let setup = server_setup(cfg.workload, Path::new(""));
    let journal = setup.journal.then(|| work.join("replay-journal"));
    let mut replay =
        Replay::new(setup.registry, journal).map_err(|e| format!("replay journal: {e}"))?;
    let prewarm = gen.prewarm();
    if cfg.workload == Workload::WarmHit {
        replay.restore_from(&prewarm);
    }
    for (k, (req, served)) in prewarm.iter().zip(&live.prewarmed).enumerate() {
        let expected = replay.run(u64::MAX - k as u64, &req.bytes(), false);
        if !expected.matches(served.status, &served.body) {
            failures.add(format!(
                "prewarm request {k}: served bytes differ from the replay"
            ));
        }
    }
    let mut correct = Vec::with_capacity(live.samples.len());
    for s in &live.samples {
        let req = gen.request(s.index);
        let expected: Expected = replay.run(s.index, &req.bytes(), s.start >= live.warmup);
        let problem = answer_problem(&s.outcome).or_else(|| match &s.outcome {
            Ok(r) if !expected.matches(r.status, &r.body) => Some(format!(
                "served bytes differ from the replay\n  served:   {}\n  replayed: {}",
                r.body.trim(),
                expected.lines.join("\n            ")
            )),
            _ => None,
        });
        correct.push(problem.is_none());
        if let Some(problem) = problem {
            failures.add(format!("request {}: {problem}", s.index));
        }
    }

    if let Some(e) = replay.journal_error() {
        return Err(format!("replay journal: {e}"));
    }
    let replay_s = t_replay.elapsed().as_secs_f64();

    // The oracle, on a seeded sample of distinct served graphs.
    let t_oracle = Instant::now();
    let mut order: Vec<&Sample> = live.samples.iter().collect();
    let mut rng = StdRng::seed_from_u64(mix(cfg.seed, 0x0AC1E, 0));
    for p in (1..order.len()).rev() {
        order.swap(p, rng.gen_range(0..=p));
    }
    let mut seen = std::collections::HashSet::new();
    let mut checks = Vec::new();
    for s in order {
        if checks.len() >= ORACLE_SAMPLE {
            break;
        }
        if let Ok(r) = &s.outcome {
            let req = gen.request(s.index);
            for c in oracle::checks(req.route, &req.body, &r.body) {
                if checks.len() < ORACLE_SAMPLE && seen.insert(c.key) {
                    checks.push(c);
                }
            }
        }
    }
    let oracle = Oracle::default();
    for c in &checks {
        if let Err(e) = oracle.verify(c) {
            failures.add(format!("oracle: {e}"));
        }
    }

    let oracle_s = t_oracle.elapsed().as_secs_f64();

    if cfg.trace {
        let path = cfg.out.join(format!("trace-{}.jsonl", cfg.workload.name()));
        write_jsonl(replay.tracer.spans(), &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let attempted = (live.samples.len() + live.prewarmed.len()) as u64;
    let mut outcome = measure(
        cfg,
        &live,
        &correct,
        &replay,
        attempted,
        failures,
        checks.len(),
    );
    outcome.notes.extend([
        ("server_phase_s".to_string(), format!("{live_s}")),
        ("replay_s".to_string(), format!("{replay_s}")),
        ("oracle_s".to_string(), format!("{oracle_s}")),
    ]);
    Ok(outcome)
}

/// The metrics of one run.
fn measure(
    cfg: &Config,
    live: &Live,
    correct: &[bool],
    replay: &Replay,
    attempted: u64,
    failures: Failures,
    oracle_checks: usize,
) -> Outcome {
    let is_timed = |s: &&Sample| s.start >= live.warmup;
    let timed: Vec<&Sample> = live.samples.iter().filter(is_timed).collect();
    let n = timed.len();
    let latencies = sorted(timed.iter().map(|s| s.latency.as_secs_f64() * 1e3));
    let correct = live
        .samples
        .iter()
        .zip(correct)
        .filter(|(s, &ok)| ok && is_timed(s))
        .count() as f64;
    let timed_end = timed
        .iter()
        .map(|s| s.start + s.latency)
        .max()
        .unwrap_or(live.warmup);
    let timed_s = (timed_end - live.warmup).as_secs_f64();

    let end_to_end = vec![
        metric(
            "latency_p50_ms",
            percentile(&latencies, 50.0),
            "ms",
            Some(n),
        ),
        metric(
            "latency_p90_ms",
            percentile(&latencies, 90.0),
            "ms",
            Some(n),
        ),
        metric("throughput_rps", correct / timed_s, "req/s", Some(n)),
        metric(
            "setup_s",
            median(&live.setups),
            "s",
            Some(live.setups.len()),
        ),
    ];

    let per_layer = if cfg.trace {
        per_layer(cfg, live, &timed, &latencies, replay, attempted)
    } else {
        Vec::new()
    };

    let tail = tail_percentile(n).map_or("none".to_string(), |p| {
        format!("p{p} = {:.3} ms", percentile(&latencies, p))
    });
    let notes = vec![
        ("warmup_s".into(), format!("{}", live.warmup.as_secs_f64())),
        ("timed_s".into(), format!("{timed_s}")),
        ("timed_requests".into(), n.to_string()),
        ("tail_percentile".into(), tail),
        (
            "failed_frac".into(),
            format!("{}", failures.count as f64 / attempted.max(1) as f64),
        ),
        ("oracle_checks".into(), oracle_checks.to_string()),
        ("replayed_requests".into(), live.samples.len().to_string()),
    ];
    Outcome {
        attempted,
        failed: failures.count,
        failures: failures.shown,
        end_to_end,
        per_layer,
        notes,
    }
}

/// The per-layer metrics of a traced run: layer self times from the
/// replay's spans, and what the live server reported.
fn per_layer(
    cfg: &Config,
    live: &Live,
    timed: &[&Sample],
    latencies: &[f64],
    replay: &Replay,
    attempted: u64,
) -> Vec<Metric> {
    let n = timed.len();
    let per_req = |x: f64| if n == 0 { 0.0 } else { x / n as f64 };
    let spans = replay.tracer.spans();
    let selfs = self_times(spans);
    let replay_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let traced = spans.iter().filter(|s| s.parent.is_none()).count();
    let layer = |name: &str| -> (Vec<f64>, u64) {
        let mut total = 0;
        let mut us = Vec::new();
        for (s, &t) in spans.iter().zip(&selfs) {
            if s.layer == name {
                total += t;
                us.push(t as f64 / 1e3);
            }
        }
        (sorted(us), total)
    };
    let share = |total: u64| total as f64 / replay_ns.max(1) as f64;
    let mut per_layer = Vec::new();
    let mut layer_ns = 0;
    for name in LAYERS_WITH_P50.iter().chain(LAYERS_SHARE_ONLY) {
        let (us, total) = layer(name);
        layer_ns += total;
        if LAYERS_WITH_P50.contains(name) {
            per_layer.push(metric(
                format!("{name}_us.p50"),
                percentile(&us, 50.0),
                "us",
                Some(us.len()),
            ));
        }
        per_layer.push(metric(
            format!("{name}_us.share"),
            share(total),
            "ratio",
            None,
        ));
    }

    let (before, after) = (&live.before, &live.after);
    let d = |path: &[&str]| before.delta(after, path) as f64;
    let (hits, misses) = (d(&["registry", "hits"]), d(&["registry", "misses"]));
    let Probes { keepalive, accept } = live.probes;
    let transport_us = if cfg.workload.per_request_connections() {
        accept.0
    } else {
        keepalive.0
    };
    let mean_e2e_us = latencies.iter().sum::<f64>() * 1e3 / n.max(1) as f64;
    let layers_per_req_us = layer_ns as f64 / 1e3 / traced.max(1) as f64;
    let reconnects = timed
        .iter()
        .filter(|s| {
            matches!(&s.outcome, Ok(r) if r.close) && !cfg.workload.per_request_connections()
        })
        .count() as f64;
    let bytes_estimate = after.get(&["registry", "bytes_estimate"]) as f64;
    per_layer.extend([
        metric(
            "serve.keepalive_rtt_us",
            keepalive.0,
            "us",
            Some(keepalive.1),
        ),
        metric("serve.accept_us", accept.0, "us", Some(accept.1)),
        metric(
            "serve.reconnects_per_1k",
            per_req(reconnects) * 1e3,
            "count",
            None,
        ),
        metric(
            "serve.threads_peak",
            live.threads_peak as f64,
            "count",
            None,
        ),
        metric(
            "serve.cpu_ms_per_req",
            per_req(live.cpu_s * 1e3),
            "ms",
            None,
        ),
        metric(
            "registry.hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
            None,
        ),
        metric(
            "registry.near_hit_ratio",
            d(&["incremental", "near_hits"]) / misses.max(1.0),
            "ratio",
            None,
        ),
        metric(
            "registry.evictions_per_req",
            per_req(d(&["registry", "evictions"])),
            "count",
            None,
        ),
        metric(
            "serve.rss_mb",
            median(&live.rss_kb) / 1024.0,
            "MB",
            Some(live.rss_kb.len()),
        ),
        metric(
            "serve.rss_peak_mb",
            live.rss_peak_kb as f64 / 1024.0,
            "MB",
            None,
        ),
        metric(
            "registry.rss_per_estimate",
            live.rss_peak_kb as f64 * 1024.0 / bytes_estimate.max(1.0),
            "ratio",
            None,
        ),
        metric(
            "engine.firings_per_req",
            replay.firings as f64 / traced.max(1) as f64,
            "count",
            None,
        ),
        metric(
            "cache.appends_per_req",
            per_req(d(&["persistence", "journal_appended"])),
            "count",
            None,
        ),
        metric(
            "cache.compactions",
            d(&["incremental", "compactions"]),
            "count",
            None,
        ),
        metric(
            "cache.journal_kb_per_req",
            live.journal_bytes as f64 / 1024.0 / attempted.max(1) as f64,
            "KB",
            None,
        ),
        metric(
            "trace.unexplained_frac",
            1.0 - (transport_us + layers_per_req_us) / mean_e2e_us.max(1e-9),
            "ratio",
            None,
        ),
    ]);

    per_layer
}

/// Layers every workload calls: reported as a p50 and a share.
const LAYERS_WITH_P50: &[&str] = &[
    "http.parse",
    "api.request_parse",
    "io.parse",
    "graph.fingerprint",
    "registry.lookup",
    "session.repetition",
    "maxplus.eigenvalue",
    "core.analyze",
    "api.render",
];

/// Layers some workloads bypass (`warm_hit` runs no symbolic iteration;
/// only `kinds_batch` posts CSDF and SADF): reported as a share only, so
/// no workload reports a layer time it never measured.
const LAYERS_SHARE_ONLY: &[&str] = &[
    "session.schedule",
    "engine.symbolic",
    "csdf.analyze",
    "sadf.analyze",
    "cache.journal",
];
