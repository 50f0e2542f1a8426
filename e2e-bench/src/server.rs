//! Starting and stopping `sdfr serve` child processes, and what the
//! benchmark reads about them: `/v1/stats` and `/proc/<pid>`.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sdfr_api::json::{self, Value};

use crate::client;

/// `/proc` reports CPU time in units of `USER_HZ`, which Linux fixes at 100.
const USER_HZ: f64 = 100.0;

/// A running `sdfr serve`. Dropping it kills the process and waits for it.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Held open so the server's final report line never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// From spawn until the listening line: the server's set-up time,
    /// journal replay included.
    pub setup: Duration,
}

impl Server {
    /// Spawns `sdfr serve --addr 127.0.0.1:0 <args>` and waits for its
    /// listening line. The server's stderr goes to `log`.
    ///
    /// # Errors
    ///
    /// A message when the process cannot start or never prints the line.
    pub fn start(sdfr: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let log = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(sdfr)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sdfr.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let setup = t0.elapsed();
        let addr = line
            .trim()
            .strip_prefix("sdfr serve: listening on ")
            .and_then(|a| a.parse().ok());
        let server = Server {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            setup,
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err(format!("sdfr serve did not start: first line {line:?}")),
        }
    }

    /// The process id.
    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The `/v1/stats` document.
    ///
    /// # Errors
    ///
    /// Transport failures, a non-200 status, or an unparseable body.
    pub fn stats(&self) -> Result<Stats, String> {
        let r = client::one_shot(self.addr, &client::get_close("/v1/stats"))
            .map_err(|e| format!("/v1/stats: {e}"))?;
        if r.status != 200 {
            return Err(format!("/v1/stats answered {}", r.status));
        }
        json::parse(&r.body)
            .map(Stats)
            .map_err(|e| format!("/v1/stats: {e}"))
    }

    /// Asks the server to drain and waits for it to exit.
    ///
    /// # Errors
    ///
    /// A message when the drain request fails, the server does not exit
    /// within ten seconds (it is then killed), or it exits non-zero.
    pub fn shutdown(mut self) -> Result<(), String> {
        let raw = b"POST /shutdown HTTP/1.1\r\nHost: sdfr\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        client::one_shot(self.addr, raw).map_err(|e| format!("/shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("sdfr serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => return Err("sdfr serve did not drain within 10 s".into()),
            }
        }
    }

    /// A field of `/proc/<pid>/status` in its own unit (`kB` for memory).
    pub fn status_field(&self, field: &str) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    }

    /// User plus system CPU seconds the process (and its exited threads)
    /// has used, from `/proc/<pid>/stat`.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 =
            fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        Some(ticks as f64 / USER_HZ)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A parsed `/v1/stats` document.
#[derive(Debug, Clone)]
pub struct Stats(Value);

impl Stats {
    /// The counter at `path` (e.g. `["registry", "hits"]`), 0 when absent.
    pub fn get(&self, path: &[&str]) -> u64 {
        path.iter()
            .try_fold(&self.0, |v, key| v.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    /// `later − self` at `path`, saturating at 0.
    pub fn delta(&self, later: &Stats, path: &[&str]) -> u64 {
        later.get(path).saturating_sub(self.get(path))
    }
}
