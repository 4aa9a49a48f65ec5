//! Driving the `ioenc` binary: spawning `ioenc serve`, waiting for its
//! banner, and speaking NDJSON or HTTP/1.1 keep-alive on one connection.

use ioenc_core::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups timed per burst of `setup_s` samples.
pub const SETUPS: usize = 21;

/// `setup_s` samples: spawn-to-ready times taken in bursts at several
/// points of a run (before its inputs are gated, before the timed phase
/// and after it). Set-up is a few milliseconds of process start on a
/// shared host whose speed drifts over seconds; samples spread over the
/// run make the reported median follow the run's host state rather than
/// the instant of one burst.
#[derive(Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Times [`SETUPS`] calls of `once`, which returns seconds.
    pub fn burst(&mut self, mut once: impl FnMut() -> Result<f64, String>) -> Result<(), String> {
        for _ in 0..SETUPS {
            self.0.push(once()?);
        }
        Ok(())
    }

    /// A burst of `ioenc serve <args>` spawns, each shut down after its
    /// banner.
    pub fn serve_burst(&mut self, bin: &Path, args: &[String]) -> Result<(), String> {
        self.burst(|| {
            let s = Server::spawn(bin, args)?;
            let ready = s.ready_s;
            s.shutdown()?;
            Ok(ready)
        })
    }

    /// Spawns the server a run measures against, counting its set-up too.
    pub fn spawn(&mut self, bin: &Path, args: &[String]) -> Result<Server, String> {
        let s = Server::spawn(bin, args)?;
        self.0.push(s.ready_s);
        Ok(s)
    }

    pub fn median(&self) -> f64 {
        crate::util::median(&self.0)
    }
}

/// A running `ioenc serve --tcp 0` process.
pub struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
    /// Seconds from spawn until the `listening on` banner.
    pub ready_s: f64,
}

impl Server {
    /// Spawns `ioenc serve --tcp 0 <args>` and waits for its banner.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--tcp", "0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or("no stderr pipe")?);
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let ready_s = t.elapsed().as_secs_f64();
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .rsplit(' ')
                .next()
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(Server {
                child,
                stderr,
                addr,
                ready_s,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("serve did not print its banner: {line:?}"))
            }
        }
    }

    /// Sends one request on a fresh NDJSON connection and returns the
    /// parsed `result` object.
    pub fn request(&self, line: &str) -> Result<Json, String> {
        let mut conn = Conn::open(self.addr, Proto::Ndjson).map_err(|e| e.to_string())?;
        conn.send(line).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let replies = conn
                .poll(Some(Duration::from_millis(100)))
                .map_err(|e| e.to_string())?;
            if let Some(r) = replies.into_iter().next() {
                return Json::parse(&r.result).map_err(|e| format!("bad result JSON: {e}"));
            }
            if Instant::now() > deadline || conn.closed {
                return Err("no reply".to_string());
            }
        }
    }

    /// The `stats` op's result.
    pub fn stats(&self) -> Result<Json, String> {
        self.request(r#"{"id":0,"op":"stats"}"#)
    }

    /// Asks the server to shut down and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let res = self.request(r#"{"id":0,"op":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stderr.read_to_string(&mut rest);
                    return match (res, status.success()) {
                        (Ok(_), true) => Ok(()),
                        (Err(e), _) => Err(format!("shutdown request failed: {e}")),
                        (_, false) => Err(format!("serve exited with {status}: {rest}")),
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("serve did not exit after shutdown".to_string()),
            }
        }
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

/// The wire protocol of one connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Proto {
    Ndjson,
    Http,
}

/// One response: the request id and the raw `result` bytes, stamped with
/// the time the read that delivered it returned.
pub struct Reply {
    pub id: u64,
    pub result: String,
    pub at: Instant,
}

/// Splits the protocol-v1 envelope `{"id":N,"v":1,"result":R}` into
/// `(N, R)` without a full JSON parse.
fn split_envelope(line: &str) -> Option<(u64, String)> {
    let rest = line.trim().strip_prefix("{\"id\":")?;
    let comma = rest.find(',')?;
    let id = rest[..comma].parse().ok()?;
    let start = rest.find(",\"result\":")? + ",\"result\":".len();
    let body = rest.get(start..rest.len().checked_sub(1)?)?;
    Some((id, body.to_string()))
}

/// A client connection with its own receive buffer. Responses that do not
/// parse as an envelope come back with id `u64::MAX`.
pub struct Conn {
    stream: TcpStream,
    proto: Proto,
    buf: Vec<u8>,
    chunk: Vec<u8>,
    pub closed: bool,
}

impl Conn {
    pub fn open(addr: SocketAddr, proto: Proto) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            proto,
            buf: Vec::new(),
            chunk: vec![0; 1 << 16],
            closed: false,
        })
    }

    /// Sends one request object (a single line of JSON, no newline).
    pub fn send(&mut self, body: &str) -> std::io::Result<()> {
        match self.proto {
            Proto::Ndjson => {
                let mut line = String::with_capacity(body.len() + 1);
                line.push_str(body);
                line.push('\n');
                self.stream.write_all(line.as_bytes())
            }
            Proto::Http => {
                let msg = format!(
                    "POST / HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                self.stream.write_all(msg.as_bytes())
            }
        }
    }

    /// Waits at most `timeout` (indefinitely for `None`) for data, reads
    /// what is there, and returns every response completed so far.
    pub fn poll(&mut self, timeout: Option<Duration>) -> std::io::Result<Vec<Reply>> {
        if wait_readable(&self.stream, timeout)? {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => self.closed = true,
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let at = Instant::now();
        let mut out = Vec::new();
        let mut pos = 0;
        while let Some((body, next)) = self.message_at(pos) {
            pos = next;
            let (id, result) = split_envelope(&body).unwrap_or((u64::MAX, body));
            out.push(Reply { id, result, at });
        }
        self.buf.drain(..pos);
        Ok(out)
    }

    /// The complete message body starting at `pos` in the buffer, and the
    /// offset just past it.
    fn message_at(&self, pos: usize) -> Option<(String, usize)> {
        let buf = &self.buf[pos..];
        match self.proto {
            Proto::Ndjson => {
                let nl = buf.iter().position(|&b| b == b'\n')?;
                Some((
                    String::from_utf8_lossy(&buf[..nl]).into_owned(),
                    pos + nl + 1,
                ))
            }
            Proto::Http => {
                let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
                let head = String::from_utf8_lossy(&buf[..head_end]).to_ascii_lowercase();
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length:"))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0);
                let total = head_end + 4 + len;
                if buf.len() < total {
                    return None;
                }
                let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
                Some((body, pos + total))
            }
        }
    }

    /// Sends one request and waits for its reply (no other request may be
    /// in flight). Returns the latency in milliseconds and the `result`.
    pub fn call(&mut self, body: &str, deadline: Instant) -> Result<(f64, String), String> {
        let t = Instant::now();
        self.send(body).map_err(|e| e.to_string())?;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.closed {
                return Err("no reply".to_string());
            }
            let replies = self.poll(Some(left)).map_err(|e| e.to_string())?;
            if let Some(r) = replies.into_iter().next() {
                return Ok(((r.at - t).as_secs_f64() * 1e3, r.result));
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until `stream` is readable or `timeout` passes. `ppoll` takes a
/// nanosecond timeout served by high-resolution timers; socket receive
/// timeouts are rounded to scheduler ticks, far too coarse to send
/// open-loop requests on time.
fn wait_readable(stream: &TcpStream, timeout: Option<Duration>) -> std::io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: 1, // POLLIN
        revents: 0,
    };
    let ts = timeout.map(|t| Timespec {
        tv_sec: t.as_secs() as i64,
        tv_nsec: i64::from(t.subsec_nanos()),
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fd` is one live, `repr(C)` pollfd and `nfds` is 1; `ts_ptr`
    // is null or points at a live `repr(C)` timespec (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on); a null signal mask
    // leaves the mask unchanged. All three outlive the call.
    let r = unsafe { ppoll(&mut fd, 1, ts_ptr, std::ptr::null()) };
    if r < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == std::io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(r > 0)
}

/// An answered request: latency in milliseconds, when the reply arrived,
/// and the check's verdict on it.
pub struct Done {
    pub ms: f64,
    pub at: Instant,
    pub verdict: Result<(), String>,
}

/// One request's fate in a closed loop: `None` when no reply arrived.
pub type Slot = Option<Done>;

/// Runs a closed loop on `conn`, keeping up to `window` requests in
/// flight: request `i` is `body(i)` with id `first_id + i`, for `i` below
/// `max`, and nothing new is sent after `stop`. Each reply is checked
/// with `check(i, result)`. Returns one slot per request sent.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    conn: &mut Conn,
    max: usize,
    first_id: u64,
    window: usize,
    stop: Instant,
    deadline: Instant,
    body: impl Fn(usize, u64) -> String,
    check: impl Fn(usize, &str) -> Result<(), String>,
) -> Vec<Slot> {
    let mut out: Vec<Slot> = Vec::new();
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut done = 0;
    loop {
        let now = Instant::now();
        let more = out.len() < max && now < stop;
        if conn.closed || now >= deadline || (!more && done == out.len()) {
            break;
        }
        while more && out.len() < max && out.len() - done < window {
            let i = out.len();
            if conn.send(&body(i, first_id + i as u64)).is_err() {
                return out;
            }
            sent_at.push(Instant::now());
            out.push(None);
        }
        let Ok(replies) = conn.poll(Some(Duration::from_millis(50))) else {
            return out;
        };
        for r in replies {
            let Some(i) = r.id.checked_sub(first_id).map(|i| i as usize) else {
                continue;
            };
            if let Some(slot @ None) = out.get_mut(i) {
                *slot = Some(Done {
                    ms: (r.at - sent_at[i]).as_secs_f64() * 1e3,
                    at: r.at,
                    verdict: check(i, &r.result),
                });
                done += 1;
            }
        }
    }
    out
}
