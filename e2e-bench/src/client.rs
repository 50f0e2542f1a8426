//! A stock HTTP/1.1 client and the closed-loop load it drives.
//!
//! Socket options are those of an ordinary client: each request goes out
//! in one `write` (with `TCP_NODELAY`, as curl sets it), and the client
//! never forces quick ACKs. Stalls the server's own writes cause are
//! therefore measured, not hidden.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a client waits for any one response before giving up.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body, exactly `Content-Length` bytes.
    pub body: String,
    /// The server answered `Connection: close`.
    pub close: bool,
}

/// A client connection that reconnects whenever the previous response
/// closed it.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// Sends `raw` with one `write` and reads the response. The connection
    /// is dropped afterwards when either side asked to close it (`close`
    /// is whether `raw` carries `Connection: close`) or anything failed.
    ///
    /// # Errors
    ///
    /// Connect, write and read failures, and malformed responses.
    pub fn exchange(&mut self, raw: &[u8], close: bool) -> io::Result<Response> {
        let result = self.try_exchange(raw);
        if close || !matches!(&result, Ok(r) if !r.close) {
            self.stream = None;
        }
        result
    }

    fn try_exchange(&mut self, raw: &[u8]) -> io::Result<Response> {
        let stream = match &mut self.stream {
            Some(s) => s,
            None => {
                let s = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(IO_TIMEOUT))?;
                s.set_write_timeout(Some(IO_TIMEOUT))?;
                self.stream.insert(s)
            }
        };
        stream.write_all(raw)?;
        read_response(stream)
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Reads one response: the head, then exactly `Content-Length` body bytes.
fn read_response(stream: &mut TcpStream) -> io::Result<Response> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(malformed("connection closed before the response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("unreadable status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| malformed("no Content-Length"))?;
    let mut body = buf.split_off(head_end + 4);
    while body.len() < length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(length);
    let body = String::from_utf8(body).map_err(|_| malformed("body is not UTF-8"))?;
    Ok(Response {
        status,
        body,
        close,
    })
}

/// One request of the closed loop.
#[derive(Debug)]
pub struct Sample {
    /// The request index.
    pub index: u64,
    /// When it was sent, since the load began.
    pub start: Duration,
    /// Send-to-last-byte latency.
    pub latency: Duration,
    /// The response, or why there was none.
    pub outcome: Result<Response, String>,
}

/// Runs `clients` closed-loop clients until `end`: each takes the next
/// index from one shared counter, sends `request(index)` (its bytes and
/// whether it closes its connection), and waits for the answer before
/// sending again. Samples come back in index order.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    origin: Instant,
    end: Instant,
    request: &(dyn Fn(u64) -> (Vec<u8>, bool) + Sync),
) -> Vec<Sample> {
    let next = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut conn = Conn::new(addr);
                let mut mine = Vec::new();
                while Instant::now() < end {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let (raw, close) = request(index);
                    let sent = Instant::now();
                    let outcome = conn.exchange(&raw, close).map_err(|e| e.to_string());
                    let latency = sent.elapsed();
                    mine.push(Sample {
                        index,
                        start: sent - origin,
                        latency,
                        outcome,
                    });
                }
                samples.lock().expect("sample list poisoned").extend(mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("sample list poisoned");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Sends `raw` over a fresh connection and returns the response.
///
/// # Errors
///
/// As [`Conn::exchange`].
pub fn one_shot(addr: SocketAddr, raw: &[u8]) -> io::Result<Response> {
    Conn::new(addr).exchange(raw, true)
}

/// `GET path` with `Connection: close`.
pub fn get_close(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: sdfr\r\nConnection: close\r\n\r\n").into_bytes()
}

/// `GET path` on a kept-alive connection.
pub fn get_keepalive(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: sdfr\r\n\r\n").into_bytes()
}
