//! The `ioenc serve` loop: NDJSON over stdio, and a readiness-driven
//! event loop for TCP that speaks NDJSON and (optionally) HTTP/1.1 on
//! the same port, backed by a scoped worker pool, bounded queuing with
//! load shedding, inline `stats`/`shutdown` operations and graceful
//! drain.
//!
//! Concurrency shape: the stdio main loop, or the single event-loop
//! thread ([`poller`]-driven, one nonblocking socket set), parses each
//! request and either answers it at once (`stats`, `shutdown`, malformed
//! requests, shed load) or queues it: an `encode` as a job of its own, a
//! session operation on its session's FIFO lane (see [`session`]).
//! Both kinds pass through the one bounded queue, and the dispatching
//! thread never solves. `std::thread::scope` workers pop jobs, run the
//! shared [`outcome`] pipeline or the lane with `Parallelism::Off` (the
//! pool itself is the parallelism) and hand the response back — directly
//! to the stdio sink, or through a completion queue plus
//! [`poller::Waker`] to the event loop, which owns all sockets and does
//! every read and write itself. Accepted sockets get `TCP_NODELAY`, so a
//! reply goes out when it is ready rather than when the peer has
//! acknowledged the previous one (Nagle's algorithm). Shutdown closes
//! the queue; workers finish every accepted job before exiting, so no
//! request is silently dropped.
//!
//! [`session`]: crate::session
//!
//! Per-connection protocol is auto-detected from the first byte (when
//! [`ServeOptions::http`] is on): `{` starts the NDJSON protocol,
//! anything else HTTP/1.1. NDJSON responses may arrive out of request
//! order (the documented protocol); HTTP responses are held and
//! released strictly in request order, which is what pipelining
//! requires.

use crate::cache::ResultCache;
use crate::diskcache::DiskCache;
use crate::exec::{failure_json, outcome, panic_json, EncodeSpec, Mode, Outcome, PROTOCOL_VERSION};
use crate::http;
use crate::poller::{self, Events, Interest, Poller, WAKER_TOKEN};
use crate::queue::BoundedQueue;
use crate::session::{Lane, SessionRegistry};
use ioenc_core::json::Json;
use ioenc_core::{CancelToken, CostFunction, EncodeError, Parallelism};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for [`serve_stdio`] / [`serve_tcp`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeOptions {
    /// Worker threads (minimum 1).
    pub workers: usize,
    /// Bounded queue capacity; excess `encode` and session requests are
    /// shed with an `overloaded` response.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries; `0` disables the cache
    /// (including any disk tier).
    pub cache_entries: usize,
    /// Accept HTTP/1.1 on the TCP listener (per-connection
    /// auto-detected; NDJSON connections still work). Off by default so
    /// plain-NDJSON deployments never change behavior.
    pub http: bool,
    /// Directory for the persistent shared result cache; `None` keeps
    /// the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Requested shard count for a freshly created cache directory
    /// (rounded to a power of two; an existing directory's pinned count
    /// wins).
    pub cache_shards: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            queue_capacity: 64,
            cache_entries: 1024,
            http: false,
            cache_dir: None,
            cache_shards: 4,
        }
    }
}

impl ServeOptions {
    /// Default options: 4 workers, a 64-slot queue, a 1024-entry cache,
    /// NDJSON only, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (floored at 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the queue capacity (floored at 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the cache capacity; `0` disables caching.
    pub fn with_cache_entries(mut self, entries: usize) -> Self {
        self.cache_entries = entries;
        self
    }

    /// Enables (or disables) HTTP/1.1 on the TCP listener.
    pub fn with_http(mut self, http: bool) -> Self {
        self.http = http;
        self
    }

    /// Backs the result cache with a persistent shared directory.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Sets the requested shard count for a fresh cache directory.
    pub fn with_cache_shards(mut self, shards: u32) -> Self {
        self.cache_shards = shards.max(1);
        self
    }
}

/// Where a response line goes: shared, line-locked writer.
type Sink = Arc<Mutex<Box<dyn Write + Send>>>;

/// How a worker hands its result back.
#[derive(Clone)]
enum Reply {
    /// Write the envelope line under the sink lock (stdio mode).
    Sink(Sink),
    /// Push a [`Completion`] for connection `token`, response slot
    /// `seq`, and wake the event loop.
    Loop {
        /// The connection's poller token.
        token: usize,
        /// The response's per-connection sequence number.
        seq: u64,
    },
}

/// A session operation's way back: the request's `id` and its reply
/// route.
type Ticket = (String, Reply);

enum Job {
    /// A one-shot `encode`.
    Encode {
        /// The request's `id`, re-rendered as JSON and echoed verbatim.
        id: String,
        text: String,
        spec: EncodeSpec,
        reply: Reply,
    },
    /// A session operation was appended to this lane; run it unless
    /// another worker already is.
    Session(Arc<Lane<Ticket>>),
}

/// A finished job traveling from a worker back to the event loop.
struct Completion {
    token: usize,
    seq: u64,
    /// The full NDJSON envelope line (newline-terminated).
    line: String,
}

struct Shared {
    cache: Option<ResultCache>,
    queue: BoundedQueue<Job>,
    sessions: SessionRegistry<Ticket>,
    cancel: CancelToken,
    shutdown: AtomicBool,
    shed: AtomicU64,
    processed: AtomicU64,
    workers: usize,
    completions: Mutex<Vec<Completion>>,
    loop_waker: Mutex<Option<poller::Waker>>,
}

impl Shared {
    fn new(opts: &ServeOptions) -> std::io::Result<Self> {
        let cache = if opts.cache_entries > 0 {
            Some(match &opts.cache_dir {
                Some(dir) => ResultCache::with_disk(
                    opts.cache_entries,
                    DiskCache::open(dir, opts.cache_shards)?,
                ),
                None => ResultCache::new(opts.cache_entries),
            })
        } else {
            None
        };
        Ok(Shared {
            cache,
            queue: BoundedQueue::new(opts.queue_capacity),
            sessions: SessionRegistry::new(),
            cancel: CancelToken::new(),
            shutdown: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            workers: opts.workers.max(1),
            completions: Mutex::new(Vec::new()),
            loop_waker: Mutex::new(None),
        })
    }

    fn push_completion(&self, c: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(c);
        if let Some(w) = self
            .loop_waker
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .as_ref()
        {
            w.wake();
        }
    }

    fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// The one NDJSON response envelope: id echoed verbatim, protocol
/// version, result object, newline-terminated.
fn envelope(id: &str, result: &str) -> String {
    format!("{{\"id\":{id},\"v\":{PROTOCOL_VERSION},\"result\":{result}}}\n")
}

fn write_response(sink: &Sink, id: &str, result: &str) {
    let line = envelope(id, result);
    let mut w = sink.lock().unwrap_or_else(|p| p.into_inner());
    // A vanished client (broken pipe, closed socket) must not take the
    // server down; its remaining responses are simply dropped.
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

fn deliver(shared: &Shared, reply: &Reply, id: &str, result: &str) {
    match reply {
        Reply::Sink(sink) => write_response(sink, id, result),
        Reply::Loop { token, seq } => shared.push_completion(Completion {
            token: *token,
            seq: *seq,
            line: envelope(id, result),
        }),
    }
}

fn worker(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        match job {
            Job::Encode {
                id,
                text,
                spec,
                reply,
            } => {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    outcome(&text, &spec, shared.cache.as_ref(), Some(&shared.cancel))
                }));
                let out = result.unwrap_or_else(|_| Outcome {
                    json: panic_json().render(),
                    exit_code: 1,
                });
                shared.processed.fetch_add(1, Ordering::Relaxed);
                deliver(shared, &reply, &id, &out.json);
            }
            Job::Session(lane) => lane.run(|(id, reply), answer| {
                shared.processed.fetch_add(1, Ordering::Relaxed);
                deliver(shared, &reply, &id, &answer.render());
            }),
        }
    }
}

fn u64_field(req: &Json, name: &str) -> Result<Option<u64>, EncodeError> {
    match req.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| EncodeError::parse(format!("'{name}' must be a non-negative integer"))),
    }
}

fn usize_field(req: &Json, name: &str) -> Result<Option<usize>, EncodeError> {
    Ok(u64_field(req, name)?.map(|n| n as usize))
}

/// Translates an `encode`/`open` request object into `(text, spec)`.
pub(crate) fn parse_encode_request(req: &Json) -> Result<(String, EncodeSpec), EncodeError> {
    let text = req
        .get("text")
        .and_then(Json::as_str)
        .ok_or_else(|| EncodeError::parse("encode request needs a string 'text' field"))?
        .to_string();
    let mode_name = match req.get("mode") {
        None | Some(Json::Null) => "exact",
        Some(m) => m
            .as_str()
            .ok_or_else(|| EncodeError::parse("'mode' must be a string"))?,
    };
    let bits = usize_field(req, "bits")?;
    let prime_cap = usize_field(req, "prime_cap")?;
    let mode = match mode_name {
        "exact" => Mode::Exact { prime_cap },
        "heuristic" => {
            let cost = match req
                .get("cost")
                .and_then(Json::as_str)
                .unwrap_or("violations")
            {
                "violations" => CostFunction::Violations,
                "cubes" => CostFunction::Cubes,
                "literals" => CostFunction::Literals,
                other => {
                    return Err(EncodeError::parse(format!(
                        "unknown cost function '{other}'"
                    )))
                }
            };
            Mode::Heuristic { bits, cost }
        }
        "auto" => Mode::Auto,
        other => return Err(EncodeError::parse(format!("unknown mode '{other}'"))),
    };
    let deadline_ms = u64_field(req, "deadline_ms")?;
    if deadline_ms == Some(0) {
        return Err(EncodeError::limit("deadline_ms must be positive"));
    }
    let presolve = match req.get("presolve") {
        None | Some(Json::Null) => true,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(EncodeError::parse("'presolve' must be a boolean")),
    };
    Ok((
        text,
        EncodeSpec {
            mode,
            max_primes: usize_field(req, "max_primes")?,
            max_nodes: u64_field(req, "max_nodes")?,
            max_evals: u64_field(req, "max_evals")?,
            max_ps_steps: u64_field(req, "max_ps_steps")?,
            deadline_ms,
            parallelism: Parallelism::Off,
            presolve,
        },
    ))
}

fn stats_json(shared: &Shared) -> Json {
    let disk = match shared.cache.as_ref().and_then(|c| c.disk()) {
        Some(d) => {
            let s = d.stats();
            Json::obj()
                .field("enabled", true)
                .field("shards", u64::from(d.shard_count()))
                .field("records", d.indexed_records())
                .field("hits", s.hits.load(Ordering::Relaxed))
                .field("appends", s.appends.load(Ordering::Relaxed))
                .field("rejected", s.rejected.load(Ordering::Relaxed))
                .field("torn_bytes", s.torn_bytes.load(Ordering::Relaxed))
                .field("recovered", s.recovered.load(Ordering::Relaxed))
        }
        None => Json::obj().field("enabled", false),
    };
    let cache = match &shared.cache {
        Some(c) => Json::obj()
            .field("enabled", true)
            .field("capacity", c.capacity())
            .field("entries", c.len())
            .field("hits", c.hits())
            .field("misses", c.misses())
            .field("evictions", c.evictions())
            .field("verify_failures", c.verify_failures())
            .field("disk", disk),
        None => Json::obj()
            .field("enabled", false)
            .field("capacity", 0u64)
            .field("entries", 0u64)
            .field("hits", 0u64)
            .field("misses", 0u64)
            .field("evictions", 0u64)
            .field("verify_failures", 0u64)
            .field("disk", disk),
    };
    Json::obj()
        .field("ok", true)
        .field("workers", shared.workers)
        .field("sessions", shared.sessions.len())
        .field(
            "queue",
            Json::obj()
                .field("capacity", shared.queue.capacity())
                .field("depth", shared.queue.depth())
                .field("shed", shared.shed.load(Ordering::Relaxed))
                .field("processed", shared.processed.load(Ordering::Relaxed)),
        )
        .field("cache", cache)
}

fn overloaded_json(shared: &Shared) -> Json {
    Json::obj().field("ok", false).field(
        "error",
        Json::obj().field("class", "overloaded").field(
            "message",
            format!(
                "queue full (capacity {}); retry later",
                shared.queue.capacity()
            ),
        ),
    )
}

/// The typed error for an unsupported request `"v"`, mirroring the
/// [`failure_json`] shape with class `protocol`.
fn protocol_error_json(got: &Json) -> Json {
    Json::obj().field("ok", false).field(
        "error",
        Json::obj()
            .field("class", "protocol")
            .field("exit_code", 2u64)
            .field(
                "message",
                format!(
                    "unsupported protocol version {}; this server speaks v{PROTOCOL_VERSION}",
                    got.render()
                ),
            ),
    )
}

/// What [`dispatch_line`] decided about one request.
enum Dispatched {
    /// Empty line; no response.
    Nothing,
    /// Answered inline; emit this response.
    Immediate { id: String, result: String },
    /// An `encode` job or a session operation was queued; its response
    /// arrives via its [`Reply`].
    Queued,
    /// Answered inline and the whole server is shutting down.
    Shutdown { id: String, result: String },
}

/// Handles one request line: answers `stats`/`shutdown`/errors at once,
/// queues `encode` jobs and session operations (with `reply` cloned into
/// each).
fn dispatch_line(shared: &Shared, line: &str, reply: &Reply) -> Dispatched {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Dispatched::Nothing;
    }
    let req = match Json::parse(trimmed) {
        Ok(j) => j,
        Err(msg) => {
            let e = EncodeError::parse(format!("invalid request JSON: {msg}"));
            return Dispatched::Immediate {
                id: "null".to_string(),
                result: failure_json(&e, None).render(),
            };
        }
    };
    let id = req
        .get("id")
        .map(Json::render)
        .unwrap_or_else(|| "null".to_string());
    // Version gate: absent means v1 (the first versioned protocol is also
    // the first protocol); anything else is a typed `protocol` error so
    // future clients fail loudly instead of misparsing v1 responses.
    match req.get("v") {
        None | Some(Json::Null) => {}
        Some(v) if v.as_u64() == Some(PROTOCOL_VERSION) => {}
        Some(v) => {
            return Dispatched::Immediate {
                id,
                result: protocol_error_json(v).render(),
            };
        }
    }
    let op = req.get("op").and_then(Json::as_str).unwrap_or("encode");
    match op {
        "stats" => Dispatched::Immediate {
            id,
            result: stats_json(shared).render(),
        },
        "shutdown" => {
            if req.get("abort").and_then(Json::as_bool).unwrap_or(false) {
                shared.cancel.cancel();
            }
            shared.shutdown.store(true, Ordering::SeqCst);
            Dispatched::Shutdown {
                id,
                result: Json::obj()
                    .field("ok", true)
                    .field("shutting_down", true)
                    .render(),
            }
        }
        // Session operations queue on their session's lane, which keeps
        // per-session order (see the `session` module docs). They never
        // touch the result cache.
        "open" | "delta" | "close" => {
            if shared.shutdown.load(Ordering::SeqCst) {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                return Dispatched::Immediate {
                    id,
                    result: overloaded_json(shared).render(),
                };
            }
            let admitted = shared
                .sessions
                .admit(op, &req, (id.clone(), reply.clone()), |lane| {
                    shared.queue.try_push(Job::Session(lane)).map_err(|_| {
                        shared.shed.fetch_add(1, Ordering::Relaxed);
                        overloaded_json(shared)
                    })
                });
            match admitted {
                Ok(()) => Dispatched::Queued,
                Err(answer) => Dispatched::Immediate {
                    id,
                    result: answer.render(),
                },
            }
        }
        "encode" => {
            if shared.shutdown.load(Ordering::SeqCst) {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                return Dispatched::Immediate {
                    id,
                    result: overloaded_json(shared).render(),
                };
            }
            match parse_encode_request(&req) {
                Ok((text, spec)) => {
                    let job = Job::Encode {
                        id: id.clone(),
                        text,
                        spec,
                        reply: reply.clone(),
                    };
                    if shared.queue.try_push(job).is_err() {
                        shared.shed.fetch_add(1, Ordering::Relaxed);
                        return Dispatched::Immediate {
                            id,
                            result: overloaded_json(shared).render(),
                        };
                    }
                    Dispatched::Queued
                }
                Err(e) => Dispatched::Immediate {
                    id,
                    result: failure_json(&e, None).render(),
                },
            }
        }
        other => {
            let e = EncodeError::parse(format!("unknown op '{other}'"));
            Dispatched::Immediate {
                id,
                result: failure_json(&e, None).render(),
            }
        }
    }
}

/// Serves NDJSON requests from `input`, writing responses to `sink`.
/// Returns after end-of-input or a `shutdown` request, once every
/// accepted job has been answered. Lines are decoded like TCP ones:
/// invalid UTF-8 becomes U+FFFD, so such a line gets a typed `parse`
/// error and the requests after it are still served.
fn serve_reader<R: BufRead>(opts: &ServeOptions, mut input: R, sink: Sink) -> std::io::Result<()> {
    let shared = Shared::new(opts)?;
    std::thread::scope(|s| {
        for _ in 0..shared.workers {
            s.spawn(|| worker(&shared));
        }
        let reply = Reply::Sink(sink.clone());
        let mut buf = Vec::new();
        loop {
            buf.clear();
            match input.read_until(b'\n', &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let line = String::from_utf8_lossy(&buf);
            match dispatch_line(&shared, &line, &reply) {
                Dispatched::Nothing | Dispatched::Queued => {}
                Dispatched::Immediate { id, result } => write_response(&sink, &id, &result),
                Dispatched::Shutdown { id, result } => {
                    write_response(&sink, &id, &result);
                    break;
                }
            }
        }
        shared.queue.close();
    });
    Ok(())
}

/// Runs the service over stdin/stdout until EOF or a `shutdown` request.
pub fn serve_stdio(opts: &ServeOptions) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let sink: Sink = Arc::new(Mutex::new(Box::new(std::io::stdout())));
    serve_reader(opts, stdin.lock(), sink)
}

// ---------------------------------------------------------------------
// The TCP event loop

/// Poller token of the accept socket; connections get tokens from 1 up.
const LISTENER_TOKEN: usize = 0;

/// Cap on an unterminated NDJSON request line before the connection is
/// answered with a parse error and closed (HTTP limits live in
/// [`http`]).
const MAX_NDJSON_LINE: usize = 8 * 1024 * 1024;

/// How long a shutting-down server waits for clients to drain written
/// responses before force-closing them.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Protocol {
    /// First non-whitespace byte not seen yet.
    Unknown,
    Ndjson,
    Http,
}

struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// Pending response bytes (wire format), `out_pos` already written.
    out: Vec<u8>,
    out_pos: usize,
    protocol: Protocol,
    /// Next request sequence number to assign.
    next_seq: u64,
    /// Next sequence to release to `out` (HTTP ordering).
    next_release: u64,
    /// Completed-but-unreleased HTTP responses: seq → (wire bytes,
    /// keep-alive).
    held: BTreeMap<u64, (Vec<u8>, bool)>,
    /// seq → keep-alive decision recorded at parse time (HTTP only).
    meta: HashMap<u64, bool>,
    /// Queued jobs not yet completed.
    pending: u64,
    /// Peer closed its write half (EOF read).
    read_closed: bool,
    /// No further requests will be parsed; close once everything owed
    /// has been written.
    closing: bool,
    /// Unrecoverable socket error; drop immediately.
    dead: bool,
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream, http_enabled: bool) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            protocol: if http_enabled {
                Protocol::Unknown
            } else {
                Protocol::Ndjson
            },
            next_seq: 0,
            next_release: 0,
            held: BTreeMap::new(),
            meta: HashMap::new(),
            pending: 0,
            read_closed: false,
            closing: false,
            dead: false,
            interest: Interest::READ,
        }
    }

    fn out_drained(&self) -> bool {
        self.out_pos == self.out.len()
    }

    /// True once the connection owes the peer nothing more and will
    /// produce nothing more.
    fn finished(&self) -> bool {
        (self.closing || self.read_closed)
            && self.pending == 0
            && self.held.is_empty()
            && self.out_drained()
    }

    /// Accepts a finished response (the NDJSON envelope line) for `seq`.
    fn complete(&mut self, seq: u64, line: String) {
        match self.protocol {
            Protocol::Http => {
                let keep = self.meta.remove(&seq).unwrap_or(false);
                let wire = http::response(200, line.as_bytes(), keep);
                self.held.insert(seq, (wire, keep));
                self.release();
            }
            // NDJSON responses are documented to arrive in any order.
            _ => self.out.extend_from_slice(line.as_bytes()),
        }
    }

    /// Queues a non-200 HTTP response for `seq` (framing or mapping
    /// errors); still released in request order.
    fn complete_http_error(&mut self, seq: u64, status: u16, body: &[u8], keep: bool) {
        let wire = http::response(status, body, keep);
        self.held.insert(seq, (wire, keep));
        self.release();
    }

    /// Moves in-order completed HTTP responses into the write buffer.
    fn release(&mut self) {
        while let Some((wire, keep)) = self.held.remove(&self.next_release) {
            self.out.extend_from_slice(&wire);
            self.next_release += 1;
            if !keep {
                self.closing = true;
                self.held.clear();
                self.meta.clear();
                break;
            }
        }
    }

    /// Nonblocking read until `WouldBlock`/EOF, then parse what arrived.
    fn on_readable(&mut self, shared: &Shared, token: usize, outstanding: &mut u64) {
        let mut tmp = [0u8; 16384];
        loop {
            match (&self.stream).read(&mut tmp) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.parse(shared, token, outstanding);
        // The NDJSON stream may legally end without a final newline.
        if self.read_closed && !self.closing && !self.buf.is_empty() {
            if let Protocol::Ndjson = self.protocol {
                let line = String::from_utf8_lossy(&self.buf).into_owned();
                self.buf.clear();
                self.dispatch_ndjson(shared, token, &line, outstanding);
            }
        }
    }

    fn parse(&mut self, shared: &Shared, token: usize, outstanding: &mut u64) {
        if self.protocol == Protocol::Unknown {
            match self
                .buf
                .iter()
                .find(|&&b| !matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
            {
                None => return,
                Some(&b'{') => self.protocol = Protocol::Ndjson,
                Some(_) => self.protocol = Protocol::Http,
            }
        }
        match self.protocol {
            Protocol::Ndjson => self.parse_ndjson(shared, token, outstanding),
            Protocol::Http => self.parse_http(shared, token, outstanding),
            Protocol::Unknown => {}
        }
    }

    fn dispatch_ndjson(
        &mut self,
        shared: &Shared,
        token: usize,
        line: &str,
        outstanding: &mut u64,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match dispatch_line(shared, line, &Reply::Loop { token, seq }) {
            Dispatched::Nothing => {}
            Dispatched::Immediate { id, result } => self.complete(seq, envelope(&id, &result)),
            Dispatched::Queued => {
                self.pending += 1;
                *outstanding += 1;
            }
            Dispatched::Shutdown { id, result } => {
                self.complete(seq, envelope(&id, &result));
                self.closing = true;
            }
        }
    }

    fn parse_ndjson(&mut self, shared: &Shared, token: usize, outstanding: &mut u64) {
        while !self.closing {
            let Some(pos) = self.buf.iter().position(|&b| b == b'\n') else {
                break;
            };
            let line = String::from_utf8_lossy(&self.buf[..pos]).into_owned();
            self.buf.drain(..=pos);
            self.dispatch_ndjson(shared, token, &line, outstanding);
        }
        if !self.closing && self.buf.len() > MAX_NDJSON_LINE {
            let e = EncodeError::parse(format!(
                "request line exceeds {MAX_NDJSON_LINE} bytes without a newline"
            ));
            let seq = self.next_seq;
            self.next_seq += 1;
            self.complete(seq, envelope("null", &failure_json(&e, None).render()));
            self.closing = true;
        }
    }

    fn parse_http(&mut self, shared: &Shared, token: usize, outstanding: &mut u64) {
        while !self.closing {
            match http::parse_request(&self.buf) {
                http::Step::Partial => break,
                http::Step::Malformed(fe) => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.closing = true;
                    let body = http::framing_error_body(&fe);
                    self.complete_http_error(seq, fe.status, &body, false);
                    self.buf.clear();
                    break;
                }
                http::Step::Ready { request, consumed } => {
                    self.buf.drain(..consumed);
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let keep = request.keep_alive;
                    if !keep {
                        self.closing = true;
                    }
                    match http_request_line(&request) {
                        Ok(line) => {
                            self.meta.insert(seq, keep);
                            match dispatch_line(shared, &line, &Reply::Loop { token, seq }) {
                                Dispatched::Nothing => {
                                    // Unreachable (the mapping never
                                    // yields an empty line), but the seq
                                    // slot must be filled regardless.
                                    let e = EncodeError::parse("empty request");
                                    self.complete(
                                        seq,
                                        envelope("null", &failure_json(&e, None).render()),
                                    );
                                }
                                Dispatched::Immediate { id, result } => {
                                    self.complete(seq, envelope(&id, &result));
                                }
                                Dispatched::Queued => {
                                    self.pending += 1;
                                    *outstanding += 1;
                                }
                                Dispatched::Shutdown { id, result } => {
                                    self.complete(seq, envelope(&id, &result));
                                    self.closing = true;
                                }
                            }
                        }
                        Err(fe) => {
                            let body = http::framing_error_body(&fe);
                            self.complete_http_error(seq, fe.status, &body, keep);
                        }
                    }
                }
            }
        }
    }

    /// Nonblocking flush of the write buffer.
    fn flush_out(&mut self) {
        while self.out_pos < self.out.len() {
            match (&self.stream).write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.out_drained() {
            self.out.clear();
            self.out_pos = 0;
        }
    }
}

/// Maps an HTTP request onto one NDJSON request line:
///
/// * `POST` (any target) with a JSON body — the body *is* the request
///   object, exactly one per HTTP request.
/// * `GET /stats` — `{"op":"stats"}`.
/// * `GET /healthz` — `{"op":"stats"}` (liveness probes read any 200).
///
/// Anything else is a typed HTTP error.
fn http_request_line(req: &http::Request) -> Result<String, http::FramingError> {
    match req.method.as_str() {
        "POST" => {
            if req.body.is_empty() {
                return Err(http::FramingError {
                    status: 400,
                    message: "POST body must contain one JSON request object".to_string(),
                });
            }
            match std::str::from_utf8(&req.body) {
                Ok(s) => Ok(s.to_string()),
                Err(_) => Err(http::FramingError {
                    status: 400,
                    message: "POST body is not valid UTF-8".to_string(),
                }),
            }
        }
        "GET" => match req.target.as_str() {
            "/stats" | "/healthz" => Ok("{\"op\":\"stats\"}".to_string()),
            other => Err(http::FramingError {
                status: 404,
                message: format!("no such resource '{other}'; POST requests to /"),
            }),
        },
        other => Err(http::FramingError {
            status: 405,
            message: format!("method {other} not supported; use POST or GET /stats"),
        }),
    }
}

/// Runs the service on a loopback TCP port (`0` picks an ephemeral one).
/// Prints `ioenc serve: listening on 127.0.0.1:<port>` to stderr once
/// bound — test harnesses learn the ephemeral port from that line — and
/// returns after a `shutdown` request, once accepted jobs are answered.
pub fn serve_tcp(opts: &ServeOptions, port: u16) -> std::io::Result<()> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let local = listener.local_addr()?;
    eprintln!("ioenc serve: listening on {local}");
    serve_listener(opts, listener)
}

/// [`serve_tcp`] on an already-bound listener (used by tests to avoid
/// port races): the readiness-driven event loop plus the worker pool.
fn serve_listener(opts: &ServeOptions, listener: TcpListener) -> std::io::Result<()> {
    let shared = Shared::new(opts)?;
    let poller = Poller::new()?;
    poller::set_nonblocking_listener(&listener)?;
    poller.add_listener(&listener, LISTENER_TOKEN)?;
    *shared.loop_waker.lock().unwrap_or_else(|p| p.into_inner()) = Some(poller.waker());
    std::thread::scope(|s| {
        for _ in 0..shared.workers {
            s.spawn(|| worker(&shared));
        }
        event_loop(&shared, opts, &poller, &listener);
        // Idempotent: the loop already closed it on the shutdown path,
        // but an error exit must still let the workers drain and stop.
        shared.queue.close();
    });
    Ok(())
}

/// Readies an accepted connection for the event loop: nonblocking, and
/// with `TCP_NODELAY`, because a reply is one small write that Nagle's
/// algorithm would hold until the peer acknowledged the previous one.
fn prepare_accepted(stream: &TcpStream) -> std::io::Result<()> {
    poller::set_nonblocking_stream(stream)?;
    stream.set_nodelay(true)
}

fn event_loop(shared: &Shared, opts: &ServeOptions, poller: &Poller, listener: &TcpListener) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut events = Events::new();
    let mut next_token = LISTENER_TOKEN + 1;
    // Queued jobs not yet completed, across all connections — including
    // ones whose connection has since died (their completions still
    // arrive and must be consumed).
    let mut outstanding: u64 = 0;
    let mut shutting = false;
    let mut drain_deadline = Instant::now();

    loop {
        if poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .is_err()
        {
            break;
        }

        // Worker completions first: they only ever add to write buffers.
        for c in shared.take_completions() {
            outstanding = outstanding.saturating_sub(1);
            if let Some(conn) = conns.get_mut(&c.token) {
                conn.pending = conn.pending.saturating_sub(1);
                conn.complete(c.seq, c.line);
            }
        }

        let mut accept_ready = false;
        for ev in events.iter() {
            match ev.token {
                WAKER_TOKEN => {}
                LISTENER_TOKEN => accept_ready = true,
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.readable && !conn.dead {
                            conn.on_readable(shared, token, &mut outstanding);
                        }
                        if ev.closed && !ev.readable {
                            // Hard error/hangup with nothing left to
                            // read: the peer is gone.
                            conn.dead = true;
                        }
                    }
                }
            }
        }

        if accept_ready && !shutting {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if prepare_accepted(&stream).is_err() {
                            continue;
                        }
                        let token = next_token;
                        next_token += 1;
                        if poller.add_stream(&stream, token, Interest::READ).is_ok() {
                            conns.insert(token, Conn::new(stream, opts.http));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // Flush write buffers, retire finished connections, keep
        // everyone's poller interest in sync with what they owe.
        conns.retain(|&token, conn| {
            if !conn.dead {
                conn.flush_out();
            }
            if conn.dead || conn.finished() {
                let _ = poller.remove_stream(&conn.stream);
                poller.forget(token);
                return false;
            }
            let want = Interest {
                readable: !(conn.closing || conn.read_closed),
                writable: !conn.out_drained(),
            };
            if want != conn.interest && poller.rearm_stream(&conn.stream, token, want).is_ok() {
                conn.interest = want;
            }
            true
        });

        if shared.shutdown.load(Ordering::SeqCst) && !shutting {
            shutting = true;
            // No new connections, no new jobs; workers drain the queue
            // and the loop keeps running to deliver their completions.
            let _ = poller.remove_listener(listener);
            poller.forget(LISTENER_TOKEN);
            shared.queue.close();
            drain_deadline = Instant::now() + DRAIN_GRACE;
        }
        if shutting {
            let busy = outstanding > 0
                || conns
                    .values()
                    .any(|c| c.pending > 0 || !c.held.is_empty() || !c.out_drained());
            if !busy || Instant::now() > drain_deadline {
                break;
            }
        }
    }
    shared.queue.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    const SECTION1: &str = "symbols: a b c d\n(b,c)\n(c,d)\n(b,a)\n(a,d)\nb>c\na>c\na=b|d\n";

    fn serve_lines(opts: &ServeOptions, requests: &[String]) -> Vec<String> {
        serve_bytes(opts, (requests.join("\n") + "\n").as_bytes())
    }

    fn serve_bytes(opts: &ServeOptions, input: &[u8]) -> Vec<String> {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let sink: Sink = Arc::new(Mutex::new(Box::new(SharedBuf(buf.clone()))));
        serve_reader(opts, input, sink).unwrap();
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        out.lines().map(str::to_string).collect()
    }

    fn encode_request(id: u64, text: &str) -> String {
        Json::obj()
            .field("id", id)
            .field("op", "encode")
            .field("text", text)
            .render()
    }

    #[test]
    fn encode_stats_and_shutdown_round_trip() {
        let reqs = vec![
            encode_request(1, SECTION1),
            encode_request(2, SECTION1),
            Json::obj().field("id", 3u64).field("op", "stats").render(),
            Json::obj()
                .field("id", 4u64)
                .field("op", "shutdown")
                .render(),
        ];
        let lines = serve_lines(&ServeOptions::new().with_workers(2), &reqs);
        assert_eq!(lines.len(), 4);
        let by_id = |want: u64| {
            lines
                .iter()
                .find(|l| Json::parse(l).unwrap().get("id").and_then(Json::as_u64) == Some(want))
                .cloned()
                .unwrap()
        };
        let r1 = Json::parse(&by_id(1)).unwrap();
        let ok = r1
            .get("result")
            .and_then(|r| r.get("ok"))
            .and_then(Json::as_bool);
        assert_eq!(ok, Some(true));
        // Identical requests produce byte-identical result objects.
        assert_eq!(
            by_id(1).replace("\"id\":1", ""),
            by_id(2).replace("\"id\":2", "")
        );
        let shut = Json::parse(&by_id(4)).unwrap();
        assert_eq!(
            shut.get("result")
                .and_then(|r| r.get("shutting_down"))
                .and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn responses_carry_the_protocol_version_and_gate_requests_on_it() {
        let reqs = vec![
            encode_request(1, SECTION1),
            // Explicitly pinned current version: accepted.
            Json::obj()
                .field("id", 2u64)
                .field("v", 1u64)
                .field("op", "stats")
                .render(),
            // Unknown version: typed protocol error, request not executed.
            Json::obj()
                .field("id", 3u64)
                .field("v", 99u64)
                .field("op", "stats")
                .render(),
        ];
        let lines = serve_lines(&ServeOptions::new().with_workers(1), &reqs);
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("v").and_then(Json::as_u64), Some(1), "{line}");
        }
        let bad = lines.iter().find(|l| l.contains("\"id\":3")).unwrap();
        assert!(bad.contains("\"class\":\"protocol\""), "{bad}");
        assert!(bad.contains("speaks v1"), "{bad}");
    }

    #[test]
    fn session_ops_round_trip_through_the_dispatcher() {
        let base = "symbols: a b c d\n(a,b)\n(c,d)\n";
        let req = |id: u64, op: &str| Json::obj().field("id", id).field("op", op);
        let delta = |id: u64, sid: u64, line: &str| {
            req(id, "delta")
                .field("session", sid)
                .field("add", vec![Json::from(line)])
        };
        // Two sessions' operations, interleaved and pipelined on one stream.
        let reqs = vec![
            req(1, "open").field("text", base).render(),
            req(2, "open").field("text", base).render(),
            delta(3, 1, "(b,c)").render(),
            delta(4, 2, "(a,d)").render(),
            req(5, "stats").render(),
            delta(6, 1, "a>c").render(),
            req(7, "close").field("session", 1u64).render(),
            req(8, "stats").render(),
            delta(9, 1, "(a,c)").render(),
        ];
        let run = |workers: usize| -> HashMap<u64, String> {
            let lines = serve_lines(&ServeOptions::new().with_workers(workers), &reqs);
            assert_eq!(lines.len(), reqs.len());
            lines
                .into_iter()
                .map(|l| {
                    let id = Json::parse(&l).unwrap().get("id").and_then(Json::as_u64);
                    (id.unwrap(), l)
                })
                .collect()
        };
        let lines = run(2);
        let result = |want: u64| {
            Json::parse(&lines[&want])
                .unwrap()
                .get("result")
                .cloned()
                .unwrap()
        };
        // Session ids follow request order, whichever solve ends first.
        for (id, sid) in [(1, 1), (2, 2), (3, 1), (4, 2), (6, 1), (7, 1)] {
            assert_eq!(
                result(id).get("session").and_then(Json::as_u64),
                Some(sid),
                "request {id}"
            );
        }
        let applied = result(3);
        assert_eq!(
            applied
                .get("reuse")
                .and_then(|r| r.get("incremental"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(result(7).get("closed").and_then(Json::as_bool), Some(true));
        assert!(lines[&9].contains("no open session 1"), "{}", lines[&9]);
        // `stats` counts sessions as of its own place in the stream, and
        // sessions never consult the result cache.
        for (id, live) in [(5, 2), (8, 1)] {
            let stats = result(id);
            assert_eq!(stats.get("sessions").and_then(Json::as_u64), Some(live));
            let cache = stats.get("cache").unwrap();
            assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(0));
            assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(0));
        }
        // One worker runs every operation in arrival order: the replies
        // of the parallel run match it byte for byte.
        let sequential = run(1);
        for id in [1, 2, 3, 4, 6, 7, 9] {
            assert_eq!(lines[&id], sequential[&id], "request {id}");
        }
    }

    #[test]
    fn malformed_lines_get_typed_parse_errors_not_panics() {
        let reqs = [
            "this is not json",
            "{\"id\":9,\"op\":\"encode\"}",
            "{\"id\":10,\"op\":\"frobnicate\"}",
            "{\"id\":11,\"op\":\"encode\",\"text\":\"no header\"}",
        ];
        let mut input = (reqs.join("\n") + "\n").into_bytes();
        // Invalid UTF-8 decodes lossily, as over TCP: one parse error, and
        // the stream goes on.
        input.extend_from_slice(b"{\"id\":12,\"op\":\"stats\"}\xff\n");
        input.extend_from_slice(b"{\"id\":13,\"op\":\"frobnicate\"}\n");
        let lines = serve_bytes(&ServeOptions::new().with_workers(1), &input);
        assert_eq!(lines.len(), 6);
        for line in &lines {
            let v = Json::parse(line).unwrap();
            let err = v
                .get("result")
                .and_then(|r| r.get("error"))
                .and_then(|e| e.get("class"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            assert_eq!(err, "parse", "{line}");
        }
    }

    #[test]
    fn overload_sheds_with_an_explicit_response() {
        // One worker, one queue slot, no cache: burst enough requests
        // that at least one is shed (the reader enqueues much faster
        // than a solve completes). Session opens share the queue; the
        // first one finds it empty.
        let open = |id: u64| {
            let req = Json::obj().field("id", id).field("op", "open");
            req.field("text", SECTION1).render()
        };
        let mut reqs = vec![open(100)];
        for i in 0..12 {
            reqs.push(encode_request(i, SECTION1));
            if i % 2 == 0 {
                reqs.push(open(101 + i));
            }
        }
        reqs.push(Json::obj().field("id", 99u64).field("op", "stats").render());
        let opts = ServeOptions::new()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_cache_entries(0);
        let lines = serve_lines(&opts, &reqs);
        assert_eq!(lines.len(), 20);
        let shed = lines
            .iter()
            .filter(|l| l.contains("\"class\":\"overloaded\""))
            .count();
        assert!(shed > 0, "expected at least one shed response");
        let stats_line = lines.iter().find(|l| l.contains("\"queue\"")).unwrap();
        let v = Json::parse(stats_line).unwrap();
        let reported = v
            .get("result")
            .and_then(|r| r.get("queue"))
            .and_then(|q| q.get("shed"))
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(reported as usize, shed);
        // Opens are shed like encodes, and a shed `open` consumes no
        // session id: the admitted ones are numbered 1, 2, … in request
        // order.
        let (mut opened, mut shed_opens) = (Vec::new(), 0);
        for line in &lines {
            let reply = Json::parse(line).unwrap();
            let id = reply.get("id").and_then(Json::as_u64).unwrap();
            if id < 100 {
                continue;
            }
            match reply.get("result").and_then(|r| r.get("session")) {
                Some(sid) => opened.push((id, sid.as_u64().unwrap())),
                None => {
                    assert!(line.contains("\"class\":\"overloaded\""), "{line}");
                    shed_opens += 1;
                }
            }
        }
        opened.sort_unstable();
        let sids: Vec<u64> = opened.iter().map(|&(_, sid)| sid).collect();
        assert!(shed_opens > 0 && !sids.is_empty(), "{lines:?}");
        assert_eq!(sids, (1..=sids.len() as u64).collect::<Vec<_>>());
        let live = v.get("result").and_then(|r| r.get("sessions"));
        assert_eq!(live.and_then(Json::as_u64), Some(sids.len() as u64));
    }

    fn connect_with_retry(port: u16) -> TcpStream {
        for _ in 0..100 {
            if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
                s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                return s;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("server did not accept within 1s");
    }

    #[test]
    fn accepted_streams_are_nonblocking_with_nodelay() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        prepare_accepted(&stream).unwrap();
        assert!(
            stream.nodelay().unwrap(),
            "replies would wait on Nagle's algorithm"
        );
        let err = (&stream).read(&mut [0u8; 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    /// A session `open` that solves for seconds (about 4 s in a debug
    /// build) must not hold up another connection: B's `stats` and a
    /// cached `encode` are answered while A's `open` reply is still owed.
    #[test]
    fn a_slow_session_op_does_not_delay_other_connections() {
        const SLOW: &str = "symbols: s0 s1 s2 s3 s4 s5 s6 s7 s8 s9\n(s0,s1)\n(s2,s3)\n";
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let opts = ServeOptions::new().with_workers(2);
        let server = std::thread::spawn(move || serve_listener(&opts, listener));

        // B warms the cache.
        let b = connect_with_retry(port);
        let mut bw = b.try_clone().unwrap();
        let mut br = BufReader::new(b);
        writeln!(bw, "{}", encode_request(1, SECTION1)).unwrap();
        let warm = read_line(&mut br);

        // A opens the slow session. The `stats` behind it on the same
        // connection is answered once the open has been dispatched.
        let a = connect_with_retry(port);
        let mut aw = a.try_clone().unwrap();
        let mut ar = BufReader::new(a);
        let open = Json::obj()
            .field("id", 10u64)
            .field("op", "open")
            .field("text", SLOW)
            .render();
        write!(aw, "{open}\n{{\"id\":11,\"op\":\"stats\"}}\n").unwrap();
        let first = read_line(&mut ar);
        assert!(first.starts_with("{\"id\":11,"), "stats waited: {first}");

        // B: a cached encode, then `stats` showing that it hit.
        writeln!(bw, "{}", encode_request(2, SECTION1)).unwrap();
        let cached = read_line(&mut br);
        assert_eq!(cached, warm.replacen("\"id\":1,", "\"id\":2,", 1));
        writeln!(bw, "{{\"id\":3,\"op\":\"stats\"}}").unwrap();
        let stats = Json::parse(&read_line(&mut br)).unwrap();
        let hits = stats
            .get("result")
            .and_then(|r| r.get("cache"))
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64);
        assert_eq!(hits, Some(1));

        // All of that came back before A's open reply.
        ar.get_ref().set_nonblocking(true).unwrap();
        let owed = ar.fill_buf().map(|buf| buf.len());
        assert!(
            matches!(&owed, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
            "the open was answered first: {owed:?}"
        );
        ar.get_ref().set_nonblocking(false).unwrap();
        let opened = read_line(&mut ar);
        assert!(opened.starts_with("{\"id\":10,"), "{opened}");
        assert!(opened.contains("\"ok\":true,\"session\":1,"), "{opened}");

        writeln!(bw, "{{\"id\":4,\"op\":\"shutdown\"}}").unwrap();
        assert!(read_line(&mut br).contains("\"shutting_down\":true"));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn tcp_round_trip_with_ephemeral_port() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let opts = ServeOptions::new().with_workers(2);
        let server = std::thread::spawn(move || serve_listener(&opts, listener));
        let stream = connect_with_retry(port);
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "{}", encode_request(1, SECTION1)).unwrap();
        writeln!(
            writer,
            "{}",
            Json::obj()
                .field("id", 2u64)
                .field("op", "shutdown")
                .render()
        )
        .unwrap();
        let reader = BufReader::new(stream);
        let lines: Vec<String> = reader.lines().map_while(Result::ok).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().any(|l| l.contains("\"ok\":true")));
        server.join().unwrap().unwrap();
    }

    /// Reads one HTTP/1.1 response (status, body) off a blocking stream.
    fn read_http_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = v.parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn http_and_ndjson_share_the_port() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let opts = ServeOptions::new().with_workers(2).with_http(true);
        let server = std::thread::spawn(move || serve_listener(&opts, listener));

        // NDJSON connection (auto-detected from the '{' first byte).
        let ndjson = connect_with_retry(port);
        let mut w = ndjson.try_clone().unwrap();
        writeln!(w, "{}", encode_request(1, SECTION1)).unwrap();
        let mut r = BufReader::new(ndjson);
        let mut ndjson_line = String::new();
        r.read_line(&mut ndjson_line).unwrap();
        assert!(ndjson_line.contains("\"ok\":true"), "{ndjson_line}");
        drop((r, w));

        // HTTP connection: two pipelined POSTs answered in order, then
        // GET /stats on the same keep-alive connection.
        let httpc = connect_with_retry(port);
        let mut w = httpc.try_clone().unwrap();
        let body1 = encode_request(10, SECTION1);
        let body2 = encode_request(11, SECTION1);
        let mut pipelined = Vec::new();
        for body in [&body1, &body2] {
            pipelined.extend_from_slice(
                format!(
                    "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
        pipelined.extend_from_slice(b"GET /stats HTTP/1.1\r\n\r\n");
        w.write_all(&pipelined).unwrap();
        let mut r = BufReader::new(httpc);
        let (s1, b1) = read_http_response(&mut r);
        let (s2, b2) = read_http_response(&mut r);
        let (s3, b3) = read_http_response(&mut r);
        assert_eq!((s1, s2, s3), (200, 200, 200));
        assert!(b1.contains("\"id\":10"), "responses in request order: {b1}");
        assert!(b2.contains("\"id\":11"), "responses in request order: {b2}");
        assert!(b3.contains("\"queue\""), "{b3}");
        // The HTTP body is the same envelope the NDJSON protocol sends.
        assert_eq!(
            b1.replace("\"id\":10", "\"id\":1"),
            ndjson_line,
            "HTTP and NDJSON responses are byte-identical"
        );

        // Unknown GET target and bad method get typed errors.
        let mut w2 = r.get_ref().try_clone().unwrap();
        w2.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
        let (s4, b4) = read_http_response(&mut r);
        assert_eq!(s4, 404);
        assert!(b4.contains("\"class\":\"http\""), "{b4}");

        // Shut down over HTTP.
        w2.write_all(
            format!(
                "POST / HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
                "{\"id\":99,\"op\":\"shutdown\"}".len(),
                "{\"id\":99,\"op\":\"shutdown\"}"
            )
            .as_bytes(),
        )
        .unwrap();
        let (s5, b5) = read_http_response(&mut r);
        assert_eq!(s5, 200);
        assert!(b5.contains("\"shutting_down\":true"), "{b5}");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_http_gets_a_typed_close_not_a_hang() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let opts = ServeOptions::new().with_workers(1).with_http(true);
        let server = std::thread::spawn(move || serve_listener(&opts, listener));

        let bad = connect_with_retry(port);
        let mut w = bad.try_clone().unwrap();
        // Three tokens but a nonsense version: typed 505, then close.
        w.write_all(b"NONSENSE REQUEST LINE\r\n\r\n").unwrap();
        let mut r = BufReader::new(bad);
        let (status, body) = read_http_response(&mut r);
        assert_eq!(status, 505);
        assert!(body.contains("\"class\":\"http\""), "{body}");
        // The connection is closed afterwards.
        let mut probe = String::new();
        assert_eq!(r.read_line(&mut probe).unwrap(), 0, "connection not closed");

        let fin = connect_with_retry(port);
        let mut w = fin.try_clone().unwrap();
        writeln!(w, "{{\"id\":1,\"op\":\"shutdown\"}}").unwrap();
        let mut r = BufReader::new(fin);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("\"shutting_down\":true"), "{line}");
        server.join().unwrap().unwrap();
    }
}
