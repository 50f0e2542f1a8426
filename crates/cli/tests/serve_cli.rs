//! Integration tests for `sdfr serve` and the `--server` client: golden
//! client↔server parity (responses byte-identical to the in-process
//! `--json`/`--stable` output), warm-cache behaviour observable through
//! `/v1/stats`, response-deadline degradation, the negative paths
//! (malformed, unsupported schema, oversize, timeout, 404/405), the
//! `--api-version` guard, clean drain on `/shutdown`, and the in-process
//! fallback when no server answers.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn example(name: &str) -> String {
    format!(
        "{}/../../examples/graphs/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn write_temp(content: &str, ext: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sdfr-serve-tests");
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

/// Runs the `sdfr` binary to completion.
fn sdfr(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sdfr"))
        .args(args)
        .output()
        .expect("sdfr runs")
}

/// A live `sdfr serve` child on an ephemeral port, killed on drop unless
/// a test already drained it.
struct Server {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Server {
    fn start(extra: &[&str]) -> Server {
        Server::start_env(extra, &[])
    }

    fn start_env(extra: &[&str], envs: &[(&str, &str)]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sdfr"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .envs(envs.iter().copied())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("listening line");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .unwrap_or_default()
            .to_string();
        assert!(
            line.contains("listening on") && addr.contains(':'),
            "unexpected startup line: {line:?}"
        );
        Server {
            child,
            addr,
            stdout,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One raw HTTP/1.1 exchange, for the negative paths the normal client
/// never produces.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("server reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response arrives");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let head_end = text.find("\r\n\r\n").expect("complete response");
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, text[head_end + 4..].to_string())
}

/// The headline acceptance criterion: a second `--server` analyze of the
/// same graph is served from the registry (visible as a `/v1/stats` hit)
/// and its response is byte-identical to the in-process `--json` output.
#[test]
fn second_analyze_is_a_registry_hit_with_identical_bytes() {
    let demo = example("demo.sdf");
    let server = Server::start(&[]);
    let local = sdfr(&["analyze", &demo, "--json"]);
    assert!(local.status.success());

    let first = sdfr(&["--server", &server.addr, "analyze", &demo]);
    assert!(first.status.success(), "{first:?}");
    assert_eq!(first.stdout, local.stdout, "first response != in-process");

    let second = sdfr(&["--server", &server.addr, "analyze", &demo]);
    assert!(second.status.success());
    assert_eq!(second.stdout, local.stdout, "warm response != in-process");

    let stats = sdfr(&["stats", "--server", &server.addr]);
    assert!(stats.status.success());
    let stats = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(
        stats.starts_with("{\"schema\":\"sdfr-api/1\",\"registry\":{\"hits\":1,\"misses\":1,"),
        "stats: {stats}"
    );
    assert!(stats.contains("\"requests\":"), "stats: {stats}");
}

/// A fresh server's first `/v1/batch` response — records, summary, cache
/// attribution, registry counters — is byte-identical to `sdfr batch
/// --stable` stdout for the same command line.
#[test]
fn fresh_server_batch_is_byte_identical_to_stable() {
    let demo = example("demo.sdf");
    let pipeline = example("pipeline.sdf");
    let server = Server::start(&[]);
    let local = sdfr(&["batch", &demo, &demo, &pipeline, "--stable"]);
    assert!(local.status.success());
    let remote = sdfr(&["--server", &server.addr, "batch", &demo, &demo, &pipeline]);
    assert!(remote.status.success(), "{remote:?}");
    assert_eq!(
        String::from_utf8_lossy(&remote.stdout),
        String::from_utf8_lossy(&local.stdout)
    );
}

/// `csdf` parity: the server's `/v1/csdf` line equals `sdfr csdf --json`.
#[test]
fn csdf_roundtrip_matches_in_process_json() {
    let f = write_temp("csdf w\nactor w 1,3\nchannel w w 1,1 1,1 1\n", "csdf");
    let path = f.to_str().unwrap();
    let server = Server::start(&[]);
    let local = sdfr(&["csdf", path, "--json"]);
    assert!(local.status.success());
    let remote = sdfr(&["--server", &server.addr, "csdf", path]);
    assert!(remote.status.success(), "{remote:?}");
    assert_eq!(remote.stdout, local.stdout);
    let line = String::from_utf8_lossy(&local.stdout).into_owned();
    assert!(line.contains("\"phase_firings\":2"), "{line}");
}

/// A response deadline on a cold, expensive graph yields an immediate
/// degraded answer marked `"pending":true` with exit 0; the warmed session
/// then answers the same request exactly.
#[test]
fn response_deadline_degrades_then_warms() {
    let huge = write_temp(
        "graph big\nactor x 1\nactor y 1\nchannel x y 1000000 1 0\n",
        "sdf",
    );
    let path = huge.to_str().unwrap();
    let server = Server::start(&[]);
    let first = sdfr(&[
        "--server",
        &server.addr,
        "analyze",
        path,
        "--deadline",
        "1ms",
    ]);
    assert!(first.status.success(), "{first:?}");
    let line = String::from_utf8_lossy(&first.stdout).into_owned();
    assert!(line.contains("\"status\":\"degraded\""), "{line}");
    assert!(line.contains("\"pending\":true"), "{line}");
    assert!(line.contains("\"exit\":0"), "{line}");
    // Wait for the background warmer, then ask again under the same tiny
    // deadline: the warm session answers exactly.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let again = sdfr(&[
            "--server",
            &server.addr,
            "analyze",
            path,
            "--deadline",
            "1ms",
        ]);
        assert!(again.status.success());
        let line = String::from_utf8_lossy(&again.stdout).into_owned();
        if line.contains("\"status\":\"exact\"") {
            assert!(!line.contains("\"pending\""), "{line}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "session never warmed: {line}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Malformed JSON, unsupported schema majors, unknown paths and wrong
/// methods all get structured `ErrorBody` responses with the right status.
#[test]
fn negative_requests_get_structured_errors() {
    let server = Server::start(&[]);
    let (status, body) = http(&server.addr, "POST", "/v1/analyze", "{");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"bad-request\""), "{body}");

    let (status, body) = http(
        &server.addr,
        "POST",
        "/v1/analyze",
        r#"{"schema":"sdfr-api/9","graphs":[{"name":"a","content":"x"}]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"unsupported-schema\""), "{body}");

    let (status, body) = http(&server.addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"code\":\"not-found\""), "{body}");
    assert!(body.contains("\"exit\":3"), "{body}");

    let (status, body) = http(&server.addr, "DELETE", "/v1/batch", "");
    assert_eq!(status, 405, "{body}");
    assert!(body.contains("\"code\":\"method-not-allowed\""), "{body}");

    // An invalid graph is a per-unit verdict (422 + record), not an
    // ErrorBody: the request itself was fine.
    let (status, body) = http(
        &server.addr,
        "POST",
        "/v1/analyze",
        r#"{"schema":"sdfr-api/1","graphs":[{"name":"bad.sdf","content":"graph bad\nactor a 1\nchannel a a 1 2 1\n"}]}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"status\":\"error\""), "{body}");
    assert!(body.contains("\"exit\":1"), "{body}");
}

/// Bodies over `--max-body` are refused with 413 before being read, and a
/// stalled request gets 408 once `--io-timeout` expires.
#[test]
fn oversize_and_stalled_requests_are_bounded() {
    let server = Server::start(&["--max-body", "200", "--io-timeout", "500ms"]);
    let big = format!(
        r#"{{"schema":"sdfr-api/1","graphs":[{{"name":"a","content":"{}"}}]}}"#,
        "x".repeat(400)
    );
    let (status, body) = http(&server.addr, "POST", "/v1/batch", &big);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"code\":\"payload-too-large\""), "{body}");

    // Open a connection, send half a request, then stall.
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "POST /v1/analyze HTTP/1.1\r\nContent-Le").unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("timeout response");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(text.contains("\"code\":\"timeout\""), "{text}");
}

/// `--api-version` rejects majors this build does not speak with exit 2,
/// before any file or network activity; the supported major passes.
#[test]
fn api_version_guard() {
    let demo = example("demo.sdf");
    let bad = sdfr(&["--api-version", "2", "analyze", &demo, "--json"]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("not supported"),
        "{bad:?}"
    );
    for ok_version in ["1", "sdfr-api/1"] {
        let ok = sdfr(&["--api-version", ok_version, "analyze", &demo, "--json"]);
        assert!(ok.status.success(), "{ok:?}");
    }
}

/// `sdfr shutdown` drains the server: the process exits 0 on its own, the
/// port stops answering, and the drain report names the request count.
#[test]
fn shutdown_drains_cleanly() {
    let demo = example("demo.sdf");
    let mut server = Server::start(&[]);
    let analyze = sdfr(&["--server", &server.addr, "analyze", &demo]);
    assert!(analyze.status.success());
    let shutdown = sdfr(&["shutdown", "--server", &server.addr]);
    assert!(shutdown.status.success(), "{shutdown:?}");
    assert!(String::from_utf8_lossy(&shutdown.stdout).contains("\"draining\":true"));

    let status = server.child.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "drain must exit 0");
    let mut rest = String::new();
    server.stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drained after"), "final report: {rest:?}");
    // The socket is gone — no leaked listener.
    assert!(TcpStream::connect(&server.addr).is_err());
}

/// With nothing listening, `--server` degrades to in-process analysis with
/// `--json` output parity and says so on stderr.
#[test]
fn dead_server_falls_back_to_in_process_json() {
    let demo = example("demo.sdf");
    let local = sdfr(&["analyze", &demo, "--json"]);
    let fallback = sdfr(&["--server", "127.0.0.1:9", "analyze", &demo]);
    assert!(fallback.status.success(), "{fallback:?}");
    assert_eq!(fallback.stdout, local.stdout);
    assert!(
        String::from_utf8_lossy(&fallback.stderr).contains("unreachable"),
        "{fallback:?}"
    );
    // Control commands have no fallback: a dead server is an I/O error.
    let stats = sdfr(&["stats", "--server", "127.0.0.1:9"]);
    assert_eq!(stats.status.code(), Some(3), "{stats:?}");
}

/// Preloaded graphs are warm before the first request: the very first
/// `--server` analyze is already a registry hit.
#[test]
fn preload_warms_the_registry() {
    let demo = example("demo.sdf");
    let server = Server::start(&[&demo]);
    // Prefetch runs before the listening line is printed, so no race: the
    // first stats call must already show the miss from the preload.
    let first = sdfr(&["--server", &server.addr, "analyze", &demo]);
    assert!(first.status.success());
    let stats = sdfr(&["stats", "--server", &server.addr]);
    let stats = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(
        stats.contains("\"hits\":1,\"misses\":1,"),
        "preloaded analyze should hit: {stats}"
    );
}

/// Reads one complete HTTP response off a raw stream: status, full head,
/// and exactly `Content-Length` body bytes — the keep-alive counterpart of
/// the read-to-EOF in [`http`].
fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(0) => panic!(
                "connection closed mid-head: {:?}",
                String::from_utf8_lossy(&head)
            ),
            Ok(_) => head.extend_from_slice(&byte),
            Err(e) => panic!("head read failed: {e}"),
        }
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            if name.eq_ignore_ascii_case("content-length") {
                value.trim().parse().ok()
            } else {
                None
            }
        })
        .expect("Content-Length header");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("body arrives whole");
    (status, head, String::from_utf8_lossy(&body).into_owned())
}

/// Sends SIGTERM, the signal a supervisor uses for a graceful stop.
fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "SIGTERM delivery failed");
}

/// Keep-alive + pipelining: two requests written back-to-back on one
/// connection are both answered on that connection; `--max-requests` then
/// forces `Connection: close` on the capped response, and `/v1/stats`
/// counts the reuse.
#[test]
fn keep_alive_pipelines_and_honors_the_request_cap() {
    let server = Server::start(&["--max-requests", "2"]);
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Two pipelined requests, neither asking to close.
    write!(
        stream,
        "GET /v1/stats HTTP/1.1\r\nHost: a\r\nContent-Length: 0\r\n\r\n\
         GET /v1/stats HTTP/1.1\r\nHost: a\r\nContent-Length: 0\r\n\r\n"
    )
    .unwrap();
    stream.flush().unwrap();
    let (status, head, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    let (status, head, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert!(
        head.contains("Connection: close"),
        "--max-requests 2 must close the second response: {head}"
    );
    assert!(
        body.contains("\"connections\":{\"handled\":1,\"reused_requests\":1}"),
        "{body}"
    );
    // The server really closes at the cap.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after the capped response: {rest:?}");
}

/// The slow-loris regression: `--io-timeout` is a *per-request* deadline,
/// so a client trickling bytes — each read succeeding, the request never
/// completing — is cut off with 408 once the deadline expires, not strung
/// along indefinitely. A keep-alive request served first proves the
/// deadline restarts per request rather than covering the whole
/// connection.
#[test]
fn slow_loris_requests_are_cut_off_per_request() {
    let server = Server::start(&["--io-timeout", "700ms"]);
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A healthy request first: its deadline must not count against the
    // slow one that follows on the same connection.
    write!(
        stream,
        "GET /v1/stats HTTP/1.1\r\nHost: a\r\nContent-Length: 0\r\n\r\n"
    )
    .unwrap();
    let (status, _, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(300));
    // Now trickle a second request: one byte every 150ms keeps every
    // individual read alive, so only a true per-request deadline fires.
    let started = std::time::Instant::now();
    for b in "GET /v1/stats HTTP/1.1\r\n".as_bytes() {
        if stream.write_all(&[*b]).is_err() {
            break; // the server already gave up on us — expected
        }
        std::thread::sleep(Duration::from_millis(150));
        if started.elapsed() > Duration::from_secs(3) {
            break;
        }
    }
    let (status, head, body) = read_response(&mut stream);
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("\"code\":\"timeout\""), "{body}");
    assert!(head.contains("Connection: close"), "{head}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the 408 took {:?}",
        started.elapsed()
    );
}

/// Drain under load: with one worker, SIGTERM arrives while a keep-alive
/// connection is being served and two complete requests sit in the accept
/// queue. Both queued requests are answered whole (with `Connection:
/// close`), the idle keep-alive connection is released, the process exits
/// 0, and the port stops answering — no socket leak.
#[test]
fn sigterm_drains_queued_and_in_flight_requests() {
    let server = Server::start(&["--workers", "1", "--queue", "8", "--io-timeout", "5s"]);
    let request = "GET /v1/stats HTTP/1.1\r\nHost: a\r\nContent-Length: 0\r\n\r\n";

    // A: served, then held open — it pins the only worker in its
    // keep-alive read loop.
    let mut a = TcpStream::connect(&server.addr).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    a.write_all(request.as_bytes()).unwrap();
    let (status, _, _) = read_response(&mut a);
    assert_eq!(status, 200);

    // B and C: accepted and queued with complete unread requests.
    let mut b = TcpStream::connect(&server.addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    b.write_all(request.as_bytes()).unwrap();
    let mut c = TcpStream::connect(&server.addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.write_all(request.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let mut server = server;
    sigterm(&server.child);
    for (label, stream) in [("B", &mut b), ("C", &mut c)] {
        let (status, head, body) = read_response(stream);
        assert_eq!(status, 200, "{label}: {body}");
        assert!(
            head.contains("Connection: close"),
            "{label} must be told to close during drain: {head}"
        );
        assert!(body.contains("\"draining\":true"), "{label}: {body}");
    }
    let status = server.child.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "drain must exit 0");
    let mut report = String::new();
    server.stdout.read_to_string(&mut report).unwrap();
    assert!(report.contains("drained after"), "{report:?}");
    assert!(TcpStream::connect(&server.addr).is_err(), "socket leaked");
    // A was released: EOF, not a hang.
    let mut rest = Vec::new();
    a.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "unexpected bytes on the idle conn: {rest:?}"
    );
}

/// The headline crash test: warm a `--cache-dir` server, `kill -9` it,
/// restart on the same directory — the first request is a registry hit
/// with byte-identical output and `journal_loaded` ≥ 1. Then corrupt the
/// journal tail and restart again: the torn tail is truncated
/// (`journal_rejected` ≥ 1) and the intact record still answers warm.
#[test]
fn kill_dash_nine_restart_comes_up_warm() {
    let demo = example("demo.sdf");
    let dir = std::env::temp_dir().join(format!("sdfr-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.to_str().unwrap().to_string();

    let mut first_server = Server::start(&["--cache-dir", &cache_dir]);
    let warm = sdfr(&["--server", &first_server.addr, "analyze", &demo]);
    assert!(warm.status.success(), "{warm:?}");
    // kill() is SIGKILL: no drain, no atexit, nothing graceful.
    first_server.child.kill().unwrap();
    first_server.child.wait().unwrap();

    let restarted = Server::start(&["--cache-dir", &cache_dir]);
    let after = sdfr(&["--server", &restarted.addr, "analyze", &demo]);
    assert!(after.status.success(), "{after:?}");
    assert_eq!(
        after.stdout, warm.stdout,
        "the restarted answer must be byte-identical"
    );
    let stats = sdfr(&["stats", "--server", &restarted.addr]);
    let stats = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(
        stats.contains("\"hits\":1,\"misses\":0,"),
        "the first post-restart request must be a hit: {stats}"
    );
    assert!(stats.contains("\"journal_loaded\":1"), "{stats}");
    drop(restarted);

    // Tear the journal the way a crash mid-append would.
    let journal = dir.join("journal.sdfr-cache");
    let intact = std::fs::metadata(&journal).unwrap().len();
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    f.write_all(b"{\"schema\":\"sdfr-cache/1\",\"fingerprint\":\"dead")
        .unwrap();
    drop(f);

    let recovered = Server::start(&["--cache-dir", &cache_dir]);
    let again = sdfr(&["--server", &recovered.addr, "analyze", &demo]);
    assert!(again.status.success());
    assert_eq!(again.stdout, warm.stdout, "recovery changed the answer");
    let stats = sdfr(&["stats", "--server", &recovered.addr]);
    let stats = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(stats.contains("\"journal_loaded\":1"), "{stats}");
    assert!(stats.contains("\"journal_rejected\":1"), "{stats}");
    assert_eq!(
        std::fs::metadata(&journal).unwrap().len(),
        intact,
        "the torn tail must be truncated off the journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault: the server closes the connection after half of the first
/// response body. The retrying client detects the short body against
/// `Content-Length`, re-sends (analyze is idempotent), and succeeds; the
/// server's stats count the observed retry.
#[test]
fn mid_response_close_is_retried_to_success() {
    let demo = example("demo.sdf");
    let local = sdfr(&["analyze", &demo, "--json"]);
    let server = Server::start(&["--fault", "mid-response-close=1"]);
    let out = sdfr(&["--server", &server.addr, "analyze", &demo]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(out.stdout, local.stdout);
    let stats = sdfr(&["stats", "--server", &server.addr]);
    let stats = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(stats.contains("\"retries_observed\":1"), "{stats}");
}

/// Fault: the server stalls every response (slow-loris from the server
/// side). A client with an explicit retry budget fails with a structured
/// I/O error (exit 3) within its budget instead of hanging.
#[test]
fn stalled_server_fails_the_client_within_its_budget() {
    let demo = example("demo.sdf");
    let server = Server::start(&["--fault", "slow-loris=30000"]);
    let started = std::time::Instant::now();
    let out = sdfr(&[
        "--server",
        &server.addr,
        "analyze",
        &demo,
        "--retries",
        "1",
        "--retry-budget-ms",
        "500",
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("receive failed"),
        "{out:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the failure took {:?} — the budget did not bound it",
        started.elapsed()
    );
}

/// Fault: the first journal append is torn mid-record. The server keeps
/// answering correctly; the restart truncates the torn tail, reports it,
/// and recomputes the un-persisted result — cold but correct.
#[test]
fn torn_journal_write_recovers_cold_but_correct() {
    let demo = example("demo.sdf");
    let local = sdfr(&["analyze", &demo, "--json"]);
    let dir = std::env::temp_dir().join(format!("sdfr-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.to_str().unwrap().to_string();

    let server = Server::start(&["--cache-dir", &cache_dir, "--fault", "torn-write=1"]);
    let out = sdfr(&["--server", &server.addr, "analyze", &demo]);
    assert!(
        out.status.success(),
        "a torn journal must not fail requests"
    );
    assert_eq!(out.stdout, local.stdout);
    drop(server);

    let restarted = Server::start(&["--cache-dir", &cache_dir]);
    let stats = sdfr(&["stats", "--server", &restarted.addr]);
    let stats = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(stats.contains("\"journal_loaded\":0"), "{stats}");
    assert!(stats.contains("\"journal_rejected\":1"), "{stats}");
    let cold = sdfr(&["--server", &restarted.addr, "analyze", &demo]);
    assert!(cold.status.success());
    assert_eq!(
        cold.stdout, local.stdout,
        "cold recompute changed the answer"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault: an accept-side delay slows admission but every request still
/// completes correctly — degradation, not failure.
#[test]
fn accept_delay_slows_but_does_not_break() {
    let demo = example("demo.sdf");
    let local = sdfr(&["analyze", &demo, "--json"]);
    let server = Server::start(&["--fault", "accept-delay=200"]);
    let out = sdfr(&["--server", &server.addr, "analyze", &demo]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(out.stdout, local.stdout);
}

// ---------------------------------------------------------------------------
// Sharded fleet (`--shard` / `--peers`)
// ---------------------------------------------------------------------------

/// A consistent-hash sharded fleet of `sdfr serve` processes on
/// pre-picked local ports, every member started with the same `--peers`
/// list. Members can be killed and restarted in place.
struct Fleet {
    peers: Vec<String>,
    members: Vec<Option<Server>>,
    extra: Vec<String>,
}

impl Fleet {
    /// Picks N free ports, then starts one `--shard i/N` server per port.
    /// The pick-then-bind gap is a real (tiny) race, so a failed member
    /// start retries with fresh ports.
    fn start(n: usize, extra: &[&str]) -> Fleet {
        for _ in 0..5 {
            let ports: Vec<u16> = (0..n)
                .map(|_| {
                    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                    l.local_addr().unwrap().port()
                })
                .collect();
            let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
            let mut fleet = Fleet {
                peers,
                members: Vec::new(),
                extra: extra.iter().map(|s| s.to_string()).collect(),
            };
            let ok = (0..n).all(|i| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fleet.start_member(i)))
                    .is_ok()
            });
            if ok {
                return fleet;
            }
        }
        panic!("could not start a {n}-shard fleet in 5 attempts");
    }

    /// Starts (or restarts) shard `i` on its fixed fleet address.
    fn start_member(&mut self, i: usize) {
        let shard_spec = format!("{i}/{}", self.peers.len());
        let peer_list = self.peers.join(",");
        let mut member_args = vec![
            "--shard".to_string(),
            shard_spec,
            "--peers".to_string(),
            peer_list,
        ];
        member_args.extend(self.extra.iter().cloned());
        let args_ref: Vec<&str> = member_args.iter().map(String::as_str).collect();
        let server = Server::start_at(&self.peers[i], &args_ref);
        if self.members.len() <= i {
            self.members.resize_with(i + 1, || None);
        }
        self.members[i] = Some(server);
    }

    /// SIGKILLs shard `i` — no drain, nothing graceful.
    fn kill_member(&mut self, i: usize) {
        if let Some(mut s) = self.members[i].take() {
            s.child.kill().unwrap();
            s.child.wait().unwrap();
        }
    }

    fn peers_arg(&self) -> String {
        self.peers.join(",")
    }

    /// Each live member's `/v1/stats` document, by shard id.
    fn stats(&self) -> Vec<(usize, String)> {
        self.members
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|s| (i, s.addr.clone())))
            .map(|(i, addr)| {
                let out = sdfr(&["stats", "--server", &addr]);
                assert!(out.status.success(), "stats on shard {i} failed: {out:?}");
                (i, String::from_utf8_lossy(&out.stdout).into_owned())
            })
            .collect()
    }
}

impl Server {
    /// Starts a server on a *fixed* address (fleet members must listen
    /// where the shared `--peers` list says they do).
    fn start_at(addr: &str, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sdfr"))
            .arg("serve")
            .args(["--addr", addr])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("listening line");
        assert!(
            line.contains("listening on") && line.contains(addr),
            "unexpected startup line for {addr}: {line:?}"
        );
        Server {
            child,
            addr: addr.to_string(),
            stdout,
        }
    }
}

/// A small corpus with enough distinct fingerprints to land on every
/// shard of a 3-shard ring.
fn fleet_corpus() -> Vec<String> {
    (0..8)
        .map(|i| {
            let content = format!(
                "graph g{i}\nactor a 1\nactor b {}\nchannel a b {} 1 0\nchannel b a 1 {} {}\n",
                i + 1,
                i % 3 + 1,
                i % 3 + 1,
                i % 3 + 1,
            );
            write_temp(&content, "sdf").to_str().unwrap().to_string()
        })
        .collect()
}

/// The run-to-run invariant part of a batch response: the summary line is
/// dropped (its cumulative cache counters legitimately move) and per-unit
/// cache attribution is masked (warm runs hit where cold runs missed).
/// Everything else — verdicts, periods, fingerprints, order — must not
/// change, whatever the fleet does.
fn records_only(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| !l.contains("\"summary\":true"))
        .map(|l| {
            l.replace("\"cache\":\"hit\"", "\"cache\":\"?\"")
                .replace("\"cache\":\"miss\"", "\"cache\":\"?\"")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The headline tentpole criterion: a cold 3-shard fleet's routed batch is
/// byte-identical to `sdfr batch --stable` — records AND merged summary —
/// and a second (warm) run leaves registry hits on at least two shards.
#[test]
fn sharded_batch_is_byte_identical_to_stable_and_warms_shards() {
    let corpus = fleet_corpus();
    let corpus_refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
    let fleet = Fleet::start(3, &[]);

    let mut local_args = vec!["batch"];
    local_args.extend(&corpus_refs);
    local_args.push("--stable");
    let local = sdfr(&local_args);
    assert!(local.status.success(), "{local:?}");

    let peers = fleet.peers_arg();
    let mut routed_args = vec!["--peers", &peers, "batch"];
    routed_args.extend(&corpus_refs);
    let cold = sdfr(&routed_args);
    assert!(cold.status.success(), "{cold:?}");
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&local.stdout),
        "cold fleet output != single-process --stable"
    );

    let warm = sdfr(&routed_args);
    assert!(warm.status.success(), "{warm:?}");
    assert_eq!(
        records_only(&warm.stdout),
        records_only(&local.stdout),
        "warm fleet records changed"
    );
    let warm_shards = fleet
        .stats()
        .iter()
        .filter(|(_, s)| !s.contains("\"hits\":0,"))
        .count();
    assert!(
        warm_shards >= 2,
        "warm traffic must reach >=2 shards, got {warm_shards}"
    );
}

/// Kill -9 one warm shard: the routed client exits 0 via ring-successor
/// failover with unchanged records; restarting the shard cold, the next
/// run hands its warmth back (`handoffs_received` ≥ 1 on the restarted
/// member) — again with unchanged records.
#[test]
fn killed_shard_fails_over_and_handoff_rewarms_it() {
    let corpus = fleet_corpus();
    let corpus_refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
    let mut fleet = Fleet::start(3, &[]);
    let peers = fleet.peers_arg();
    let mut routed_args = vec!["--peers", &peers, "batch"];
    routed_args.extend(&corpus_refs);

    let baseline = sdfr(&routed_args);
    assert!(baseline.status.success(), "{baseline:?}");

    // Kill a shard that actually owns part of the corpus (entries >= 1).
    let victim = fleet
        .stats()
        .iter()
        .find(|(_, s)| !s.contains("\"entries\":0,"))
        .map(|&(i, _)| i)
        .expect("some shard owns a graph");
    fleet.kill_member(victim);

    let failover = sdfr(&routed_args);
    assert_eq!(
        failover.status.code(),
        Some(0),
        "failover run must exit 0: {failover:?}"
    );
    assert_eq!(
        records_only(&failover.stdout),
        records_only(&baseline.stdout),
        "failover changed the records"
    );
    assert!(
        String::from_utf8_lossy(&failover.stderr).contains("failing over"),
        "{failover:?}"
    );

    // Restart the victim cold: the next routed run sends its fingerprints
    // home, and the cold owner pulls their warm archives from the ring
    // successor that served them during the outage.
    fleet.start_member(victim);
    let rewarmed = sdfr(&routed_args);
    assert!(rewarmed.status.success(), "{rewarmed:?}");
    assert_eq!(
        records_only(&rewarmed.stdout),
        records_only(&baseline.stdout),
        "post-restart records changed"
    );
    let stats = fleet.stats();
    let victim_stats = &stats.iter().find(|&&(i, _)| i == victim).unwrap().1;
    assert!(
        victim_stats.contains("\"handoffs_received\":")
            && !victim_stats.contains("\"handoffs_received\":0"),
        "restarted shard {victim} never received a warm handoff: {victim_stats}"
    );
}

/// Satellite 3: an unusable `--peers` list fails fast with a usage-style
/// exit naming the bad peer — no quiet in-process fallback, and no mixing
/// with `--server`.
#[test]
fn bad_peer_list_fails_fast_without_fallback() {
    let demo = example("demo.sdf");
    let out = sdfr(&[
        "--peers",
        "127.0.0.1:7001,???not-a-host???:x",
        "batch",
        &demo,
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("???not-a-host???:x"), "{stderr}");
    assert!(
        !stderr.contains("in-process") && out.stdout.is_empty(),
        "must not fall back: {out:?}"
    );

    let mixed = sdfr(&["--peers", "a:1", "--server", "b:2", "batch", &demo]);
    assert_eq!(mixed.status.code(), Some(2), "{mixed:?}");
    assert!(
        String::from_utf8_lossy(&mixed.stderr).contains("mutually exclusive"),
        "{mixed:?}"
    );

    // An empty entry in the list is named by position.
    let empty = sdfr(&["--peers", "127.0.0.1:7001,,127.0.0.1:7003", "batch", &demo]);
    assert_eq!(empty.status.code(), Some(2), "{empty:?}");
}

/// Mis-routed requests: the default fleet rejects a foreign fingerprint
/// with a 421 redirect record naming the owner; a `--misroute proxy`
/// fleet forwards it and relays the owner's verdict.
#[test]
fn misroutes_reject_by_default_and_proxy_on_request() {
    let corpus = fleet_corpus();
    let body = format!(
        r#"{{"schema":"sdfr-api/1","graphs":[{{"name":"g","content":"{}"}}]}}"#,
        std::fs::read_to_string(&corpus[0])
            .unwrap()
            .replace('\n', "\\n")
    );

    let fleet = Fleet::start(3, &[]);
    let mut saw_reject = false;
    let mut owner_from_redirect = None;
    for member in fleet.members.iter().flatten() {
        let (status, response) = http(&member.addr, "POST", "/v1/batch", &body);
        if status == 421 {
            saw_reject = true;
            assert!(response.contains("\"redirect\":true"), "{response}");
            assert!(response.contains("\"owner\":"), "{response}");
            let owner: usize = response
                .split("\"owner\":")
                .nth(1)
                .and_then(|s| s.split(&[',', '}'][..]).next())
                .and_then(|s| s.trim().parse().ok())
                .expect("owner field");
            owner_from_redirect = Some(owner);
        } else {
            assert_eq!(status, 200, "{response}");
        }
    }
    assert!(saw_reject, "no shard rejected the blanket post");
    drop(fleet);

    let proxy_fleet = Fleet::start(3, &["--misroute", "proxy"]);
    for member in proxy_fleet.members.iter().flatten() {
        let (status, response) = http(&member.addr, "POST", "/v1/batch", &body);
        assert_eq!(status, 200, "proxy fleet must relay: {response}");
        assert!(response.contains("\"summary\":true"), "{response}");
    }
    let proxied_total: u64 = proxy_fleet
        .stats()
        .iter()
        .filter_map(|(_, s)| {
            s.split("\"proxied\":")
                .nth(1)
                .and_then(|t| t.split(&[',', '}'][..]).next())
                .and_then(|t| t.trim().parse::<u64>().ok())
        })
        .sum();
    assert_eq!(
        proxied_total, 2,
        "two non-owners should each have proxied once (owner per redirect: {owner_from_redirect:?})"
    );
}

/// Determinism under the cache: a single-threaded server's batch response
/// stays byte-identical to `sdfr batch --stable`, persistence and
/// keep-alive notwithstanding.
#[test]
fn single_threaded_server_matches_stable_batch() {
    let demo = example("demo.sdf");
    let pipeline = example("pipeline.sdf");
    let dir = std::env::temp_dir().join(format!("sdfr-stable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.to_str().unwrap().to_string();
    let local = sdfr(&["batch", &demo, &pipeline, "--stable"]);
    assert!(local.status.success());
    let server = Server::start_env(&["--cache-dir", &cache_dir], &[("SDFR_THREADS", "1")]);
    let remote = sdfr(&["--server", &server.addr, "batch", &demo, &pipeline]);
    assert!(remote.status.success(), "{remote:?}");
    assert_eq!(
        String::from_utf8_lossy(&remote.stdout),
        String::from_utf8_lossy(&local.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A two-scenario workload with mode-transition delays: both FSM states
/// run `fast` or `slow` variants of the same two-actor ring, and the
/// s0→s1 switch costs 4 time units, so the worst-case period per step is
/// (3 + 9 + 4) / 2 = 8.
const SADF_MODES: &str = "\
sadf modes
scenario fast
  actor a 1
  actor b 2
  channel a b 1 1 0
  channel b a 1 1 1
end
scenario slow
  actor a 4
  actor b 5
  channel a b 1 1 0
  channel b a 1 1 1
end
state s0 fast
state s1 slow
transition s0 s1 4
transition s1 s0 0
initial s0
";

/// `sadf` parity: the server's `/v1/sadf` record is byte-identical to the
/// in-process `analyze --json` on the same `.sadf` workload, including
/// the `workload_kind` token and the `scenarios` sub-object. A second
/// request is answered from the per-scenario sessions the first one
/// journalled into the registry.
#[test]
fn sadf_roundtrip_matches_in_process_json() {
    let f = write_temp(SADF_MODES, "sadf");
    let path = f.to_str().unwrap();
    let server = Server::start(&[]);
    let local = sdfr(&["analyze", path, "--json"]);
    assert!(local.status.success(), "{local:?}");
    let remote = sdfr(&["--server", &server.addr, "analyze", path]);
    assert!(remote.status.success(), "{remote:?}");
    assert_eq!(remote.stdout, local.stdout);
    let line = String::from_utf8_lossy(&local.stdout).into_owned();
    assert!(line.contains("\"workload_kind\":\"sadf\""), "{line}");
    assert!(line.contains("\"period\":\"8\""), "{line}");
    assert!(
        line.contains(
            "\"scenarios\":{\"periods\":{\"fast\":\"3\",\"slow\":\"9\"},\"cycle\":[\"s0\",\"s1\"]}"
        ),
        "{line}"
    );
    let again = sdfr(&["--server", &server.addr, "analyze", path]);
    assert_eq!(again.stdout, local.stdout);
    let stats = sdfr(&["stats", "--server", &server.addr]);
    let stats = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(
        !stats.contains("\"hits\":0,"),
        "warm scenarios must hit: {stats}"
    );
}

/// The cyclo-static oracle across every front-end: a balanced CSDF graph
/// and its cyclic-FSM `.sadf` encoding agree exactly. `sdfr csdf` reports
/// `P × λ` while the workload reports `λ`, and the `.sadf` record is
/// byte-identical between in-process `--json`, the server, and
/// `batch --stable` (from `"status"` on — the batch record additionally
/// carries its index and tier).
#[test]
fn csdf_oracle_agrees_across_all_front_ends() {
    let csdf = write_temp("csdf w\nactor w 1,3\nchannel w w 1,1 1,1 1\n", "csdf");
    // The same machine, phase-per-scenario, with the implicit cyclic FSM
    // p0 -> p1 -> p0 (delay 0).
    let sadf = write_temp(
        "sadf w\nscenario p0\n  actor w 1\n  channel w w 1 1 1\nend\n\
         scenario p1\n  actor w 3\n  channel w w 1 1 1\nend\n",
        "sadf",
    );
    let csdf_out = sdfr(&["csdf", csdf.to_str().unwrap(), "--json"]);
    assert!(csdf_out.status.success(), "{csdf_out:?}");
    let csdf_line = String::from_utf8_lossy(&csdf_out.stdout).into_owned();
    assert!(csdf_line.contains("\"period\":\"4\""), "{csdf_line}");

    let local = sdfr(&["analyze", sadf.to_str().unwrap(), "--json"]);
    assert!(local.status.success(), "{local:?}");
    let local_line = String::from_utf8_lossy(&local.stdout).into_owned();
    // P = 2 phases, so λ = 4 / 2 = 2.
    assert!(local_line.contains("\"period\":\"2\""), "{local_line}");

    let server = Server::start(&[]);
    let remote = sdfr(&["--server", &server.addr, "analyze", sadf.to_str().unwrap()]);
    assert!(remote.status.success(), "{remote:?}");
    assert_eq!(remote.stdout, local.stdout);

    let batch = sdfr(&["batch", sadf.to_str().unwrap(), "--stable"]);
    assert!(batch.status.success(), "{batch:?}");
    let batch_line = String::from_utf8_lossy(&batch.stdout)
        .lines()
        .next()
        .unwrap()
        .to_string();
    let suffix = |l: &str| l[l.find("\"status\"").unwrap()..].trim_end().to_string();
    assert_eq!(suffix(&batch_line), suffix(&local_line));
}

/// Hostile cyclo-static bodies are answered as per-unit records, never by
/// taking the server down: a time-stamp overflow is an invalid graph, and
/// a trillion-firing iteration under a firing cap is exhausted before it
/// allocates anything proportional to its length.
#[test]
fn hostile_csdf_bodies_cannot_take_the_server_down() {
    let server = Server::start(&[]);
    let body = |content: &str, caps: &str| {
        format!(
            r#"{{"schema":"sdfr-api/1","graphs":[{{"name":"h.csdf","content":"{}"}}]{caps}}}"#,
            content.replace('\n', "\\n")
        )
    };
    let overflow = body(
        "csdf w\nactor w 4611686018427387904,4611686018427387904\nchannel w w 1,1 1,1 1\n",
        "",
    );
    let (status, answer) = http(&server.addr, "POST", "/v1/csdf", &overflow);
    assert_eq!(status, 422, "{answer}");
    assert!(
        answer.contains(
            "\"error\":\"integer overflow while computing symbolic time stamp \
             (accumulated execution times)\",\"exit\":1}"
        ),
        "{answer}"
    );

    let huge = body(
        "csdf huge\nactor x 1\nactor y 1\nchannel x y 1000000000000 1 0\n",
        r#","max_firings":1000"#,
    );
    let (status, answer) = http(&server.addr, "POST", "/v1/csdf", &huge);
    assert_eq!(status, 422, "{answer}");
    assert!(
        answer.contains("\"error\":\"resource budget exhausted: firings used 1001 of limit 1000\"")
            && answer.contains("\"exit\":4}"),
        "{answer}"
    );

    let (status, stats) = http(&server.addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{stats}");
}

/// A graph whose Alg. 1 matrix has walk weights beyond `i64` (though its
/// period fits) is answered as a record, exact or an invalid graph, never
/// by a panicked handler, and the server keeps serving.
#[test]
fn large_cycle_means_are_records_not_panics() {
    let server = Server::start(&[]);
    let body = r#"{"schema":"sdfr-api/1","graphs":[{"name":"k5.sdf","content":"graph k5\nactor x 5000000000000000000\nactor y 1\nchannel x x 1 1 3\nchannel x y 1 1 0\nchannel y x 1 1 3\n"}]}"#;
    let (status, answer) = http(&server.addr, "POST", "/v1/analyze", body);
    match status {
        200 => assert!(
            answer.contains("\"status\":\"exact\",\"period\":\"1666666666666666667\""),
            "{answer}"
        ),
        422 => assert!(
            answer.contains("\"error\":\"integer overflow while computing ")
                && answer.contains("\"exit\":1}"),
            "{answer}"
        ),
        _ => panic!("HTTP {status}: {answer}"),
    }
    let (status, stats) = http(&server.addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{stats}");
}

/// A scenario workload whose critical-cycle potentials leave `i64` is
/// answered as an invalid-graph record (422), not a panicked handler, and
/// the server keeps serving.
#[test]
fn sadf_critical_cycle_overflow_is_a_record_not_a_panic() {
    let server = Server::start(&[]);
    let scenario = |name: &str, tx: &str| {
        format!(
            "scenario {name}\n  actor x {tx}\n  actor y 1\n  channel x x 1 1 3\n  \
             channel x y 1 1 0\n  channel y x 1 1 3\nend\n"
        )
    };
    let content = format!(
        "sadf big\n{}{}state s0 s\nstate s1 t\ntransition s0 s1 0\n\
         transition s1 s0 0\ninitial s0\n",
        scenario("s", "4000000000000000000"),
        scenario("t", "1")
    );
    let body = format!(
        r#"{{"schema":"sdfr-api/1","graphs":[{{"name":"big.sadf","content":"{}"}}]}}"#,
        content.replace('\n', "\\n")
    );
    let (status, answer) = http(&server.addr, "POST", "/v1/sadf", &body);
    assert_eq!(status, 422, "{answer}");
    assert!(
        answer.contains(
            "\"error\":\"big.sadf: integer overflow while computing \
             critical-cycle potentials\",\"exit\":1}"
        ),
        "{answer}"
    );
    let (status, stats) = http(&server.addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200, "{stats}");
}

/// A tagged request with an unknown workload kind is refused before any
/// graph work, with the machine-readable list of kinds this build speaks.
#[test]
fn unknown_workload_kind_gets_the_supported_list() {
    let server = Server::start(&[]);
    let (status, body) = http(
        &server.addr,
        "POST",
        "/v1/analyze",
        r#"{"schema":"sdfr-api/1","workload":{"kind":"quantum","graphs":[{"name":"a","content":"x"}]}}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"unsupported-kind\""), "{body}");
    assert!(
        body.contains("\"supported\":[\"csdf\",\"sadf\",\"sdf\"]"),
        "{body}"
    );
}

/// The tagged `workload` envelope and the flat `sdfr-api/1` shape answer
/// byte-identically: the envelope is transport detail, not semantics.
#[test]
fn tagged_and_flat_requests_answer_identically() {
    let server = Server::start(&[]);
    let graphs = r#"[{"name":"g.sdf","content":"graph g\nactor a 2\nchannel a a 1 1 1\n"}]"#;
    let flat = format!(r#"{{"schema":"sdfr-api/1","graphs":{graphs}}}"#);
    let tagged =
        format!(r#"{{"schema":"sdfr-api/1","workload":{{"kind":"sdf","graphs":{graphs}}}}}"#);
    let (s1, b1) = http(&server.addr, "POST", "/v1/analyze", &flat);
    let (s2, b2) = http(&server.addr, "POST", "/v1/analyze", &tagged);
    assert_eq!(s1, 200, "{b1}");
    assert_eq!((s1, b1), (s2, b2));

    // The tagged kind selects the analysis on /v1/analyze, whatever the
    // name says: the same body answers exactly as on the kind's own route.
    let tagged_body = |kind: &str, name: &str, content: &str| {
        format!(
            r#"{{"schema":"sdfr-api/1","workload":{{"kind":"{kind}","graphs":[{{"name":"{name}","content":"{}"}}]}}}}"#,
            content.replace('\n', "\\n")
        )
    };
    let sadf = tagged_body("sadf", "modes.txt", SADF_MODES);
    let on_analyze = http(&server.addr, "POST", "/v1/analyze", &sadf);
    assert_eq!(on_analyze.0, 200, "{}", on_analyze.1);
    assert!(
        on_analyze.1.contains("\"workload_kind\":\"sadf\""),
        "{}",
        on_analyze.1
    );
    assert_eq!(on_analyze, http(&server.addr, "POST", "/v1/sadf", &sadf));
    let csdf = tagged_body(
        "csdf",
        "w.txt",
        "csdf w\nactor w 1,3\nchannel w w 1,1 1,1 1\n",
    );
    let on_analyze = http(&server.addr, "POST", "/v1/analyze", &csdf);
    assert_eq!(on_analyze.0, 200, "{}", on_analyze.1);
    assert!(
        on_analyze.1.contains("\"phase_firings\":2"),
        "{}",
        on_analyze.1
    );
    assert_eq!(on_analyze, http(&server.addr, "POST", "/v1/csdf", &csdf));

    // A tagged kind that contradicts the route, and a cyclo-static batch
    // (its records carry no index to merge on), are bad requests.
    let sdf = tagged_body("sdf", "g.sdf", "graph g\nactor a 2\nchannel a a 1 1 1\n");
    for (path, body) in [("/v1/csdf", &sdf), ("/v1/batch", &csdf)] {
        let (status, answer) = http(&server.addr, "POST", path, body);
        assert_eq!(status, 400, "{path}: {answer}");
        assert!(
            answer.contains("\"code\":\"bad-request\""),
            "{path}: {answer}"
        );
    }
    let (_, answer) = http(&server.addr, "POST", "/v1/batch", &csdf);
    assert!(answer.contains("/v1/csdf"), "{answer}");
}

/// Regression for the version guard: future *minors* of the dialect are
/// forward-compatible everywhere — the `--api-version` flag, a request
/// stamped `sdfr-api/1.9`, and a future-minor batch response (records and
/// summary with unknown fields) fed back through the `--server` client's
/// reassembly. Only a major bump refuses.
#[test]
fn future_minor_versions_are_forward_compatible() {
    let demo = example("demo.sdf");
    for ok_version in ["1.9", "sdfr-api/1.42"] {
        let ok = sdfr(&["--api-version", ok_version, "analyze", &demo, "--json"]);
        assert!(ok.status.success(), "{ok:?}");
    }

    let server = Server::start(&[]);
    let (status, body) = http(
        &server.addr,
        "POST",
        "/v1/analyze",
        r#"{"schema":"sdfr-api/1.9","graphs":[{"name":"g.sdf","content":"graph g\nactor a 2\nchannel a a 1 1 1\n"}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"exact\""), "{body}");

    // A stub "server" from a future minor: its records and summary carry
    // the 1.9 schema tag and fields this build has never heard of. The
    // client must reassemble and pass them through, not refuse.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let stub_addr = listener.local_addr().unwrap().to_string();
    let response_body = concat!(
        "{\"schema\":\"sdfr-api/1.9\",\"workload_kind\":\"sdf\",\"novel\":true,",
        "\"index\":0,\"file\":\"demo.sdf\",\"status\":\"exact\",\"period\":\"2\",\"exit\":0}\n",
        "{\"schema\":\"sdfr-api/1.9\",\"summary\":true,\"novel\":42,\"total\":1,\"exact\":1,",
        "\"degraded_abstraction\":0,\"degraded_serialization\":0,\"errors\":0,",
        "\"exits\":{\"0\":1},\"kinds\":{\"sdf\":1},",
        "\"cache\":{\"hits\":0,\"misses\":1,\"entries\":1,\"evictions\":0},\"exit\":0}\n",
    );
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        let mut content_length = 0usize;
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        std::io::copy(
            &mut reader.by_ref().take(content_length as u64),
            &mut std::io::sink(),
        )
        .unwrap();
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            response_body.len(),
            response_body
        )
        .unwrap();
    });
    let out = sdfr(&["--server", &stub_addr, "batch", &demo]);
    stub.join().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout, response_body,
        "future-minor lines must pass through"
    );

    // The major guard still refuses.
    let bad = sdfr(&["--api-version", "2.0", "analyze", &demo, "--json"]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
}

/// The exact `/v1/stats` and `/metrics` bodies of a fresh two-thread
/// server: every counter's name, order, `# HELP`/`# TYPE` text and zero
/// value is part of the operator-facing contract.
#[test]
fn fresh_server_stats_and_metrics_bodies_are_pinned() {
    let server = Server::start_env(&[], &[("SDFR_THREADS", "2")]);
    let (status, stats) = http(&server.addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    assert_eq!(
        stats,
        "{\"schema\":\"sdfr-api/1\",\"registry\":{\"hits\":0,\"misses\":0,\"bypasses\":0,\
         \"collisions\":0,\"evictions\":0,\"entries\":0,\"bytes_estimate\":0,\
         \"symbolic_iterations\":0},\"pool\":{\"threads\":2,\"spawned\":0,\"stolen\":0,\
         \"executed\":0},\"requests\":1,\"connections\":{\"handled\":1,\"reused_requests\":0},\
         \"persistence\":{\"journal_loaded\":0,\"journal_rejected\":0,\"journal_appended\":0},\
         \"incremental\":{\"near_hits\":0,\"checkpoints_persisted\":0,\
         \"checkpoints_restored\":0,\"compactions\":0},\"retries_observed\":0,\
         \"draining\":false}\n"
    );
    let (status, metrics) = http(&server.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let expected: String = [
        (
            "sdfr_registry_hits_total",
            "counter",
            "Warm registry lookups",
            0,
        ),
        (
            "sdfr_registry_misses_total",
            "counter",
            "Cold registry lookups",
            0,
        ),
        (
            "sdfr_registry_bypasses_total",
            "counter",
            "Lookups that bypassed the registry",
            0,
        ),
        (
            "sdfr_registry_collisions_total",
            "counter",
            "Fingerprint collisions detected",
            0,
        ),
        (
            "sdfr_registry_evictions_total",
            "counter",
            "Sessions evicted by capacity limits",
            0,
        ),
        (
            "sdfr_registry_near_hits_total",
            "counter",
            "Misses seeded from a family member's engine checkpoint",
            0,
        ),
        (
            "sdfr_registry_entries",
            "gauge",
            "Resident registry sessions",
            0,
        ),
        (
            "sdfr_registry_bytes_estimate",
            "gauge",
            "Estimated resident session bytes",
            0,
        ),
        (
            "sdfr_registry_symbolic_iterations_total",
            "counter",
            "Symbolic iterations executed",
            0,
        ),
        ("sdfr_pool_threads", "gauge", "Worker pool executors", 2),
        (
            "sdfr_pool_spawned_total",
            "counter",
            "Tasks spawned on the pool",
            0,
        ),
        (
            "sdfr_pool_stolen_total",
            "counter",
            "Tasks stolen across workers",
            0,
        ),
        (
            "sdfr_pool_executed_total",
            "counter",
            "Tasks executed to completion",
            0,
        ),
        ("sdfr_requests_total", "counter", "HTTP requests served", 2),
        (
            "sdfr_connections_handled_total",
            "counter",
            "Connections accepted",
            2,
        ),
        (
            "sdfr_connections_reused_requests_total",
            "counter",
            "Keep-alive requests beyond each connection's first",
            0,
        ),
        (
            "sdfr_journal_loaded_total",
            "counter",
            "Sessions restored from the cache journal",
            0,
        ),
        (
            "sdfr_journal_rejected_total",
            "counter",
            "Journal records rejected",
            0,
        ),
        (
            "sdfr_journal_appended_total",
            "counter",
            "Journal records appended",
            0,
        ),
        (
            "sdfr_journal_compactions_total",
            "counter",
            "Journal compaction rewrites",
            0,
        ),
        (
            "sdfr_checkpoints_persisted_total",
            "counter",
            "Appended records carrying an engine checkpoint",
            0,
        ),
        (
            "sdfr_checkpoints_restored_total",
            "counter",
            "Restored sessions with an attached engine checkpoint",
            0,
        ),
        (
            "sdfr_retries_observed_total",
            "counter",
            "Requests flagged as client retries",
            0,
        ),
        (
            "sdfr_draining",
            "gauge",
            "1 while the server is draining",
            0,
        ),
    ]
    .iter()
    .map(|(name, kind, help, value)| {
        format!("# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n")
    })
    .collect();
    assert_eq!(metrics, expected);
}
