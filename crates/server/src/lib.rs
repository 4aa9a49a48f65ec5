#![warn(missing_docs)]
// `deny` rather than `forbid`: the epoll backend in `poller` opts back in
// with a scoped, documented `#[allow(unsafe_code)]` for its raw-syscall
// module (the same pattern as `ioenc_bitset`'s SIMD kernels). Everything
// else in the crate remains safe code.
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! `ioenc serve` — a concurrent batch-encoding service (DESIGN.md §6e).
//!
//! The service answers newline-delimited JSON encode requests over stdio
//! or TCP, backed by three layers:
//!
//! * [`exec`] — the shared request pipeline: canonicalize (see
//!   [`ioenc_core::canonical_form`]), solve the canonical set, restore
//!   the codes to the caller's symbol order, and render the outcome as
//!   compact JSON. `ioenc encode --json` runs the *same* pipeline, which
//!   is what makes serve responses byte-identical to one-shot CLI output.
//! * [`cache`] — a sharded, size-bounded result cache addressed by
//!   `(canonical key, solver mode, budget fingerprint)`. Every hit is
//!   re-verified against the original constraint set, so a
//!   canonicalization bug can degrade throughput but never return a
//!   wrong code.
//! * [`server`] — the transport: a `std::thread::scope` worker pool fed
//!   by a bounded [`queue`] that sheds load with an explicit
//!   `overloaded` response, per-request budgets wired to a shared
//!   [`CancelToken`](ioenc_core::CancelToken), inline `stats` and
//!   `shutdown` operations, and graceful drain on shutdown. TCP
//!   connections are served by a single readiness-driven event loop
//!   ([`poller`], epoll on Linux) rather than a thread per connection,
//!   speaking both the NDJSON protocol and HTTP/1.1 ([`http`]) on the
//!   same port.
//! * [`diskcache`] — an optional persistent tier under [`cache`]: an
//!   append-only, checksummed, crash-recovering record log that any
//!   number of server processes share through `flock`-based
//!   coordination (DESIGN.md §6h).
//!
//! # Protocol (v1)
//!
//! One JSON object per line in, one per line out; responses carry the
//! request's `id`, the protocol version `v`, and may arrive out of
//! order. Requests may pin a `"v"` (absent means 1); an unsupported
//! version gets a typed `protocol` error:
//!
//! ```text
//! → {"id":1,"op":"encode","text":"symbols: a b c d\n(b,c)\n(c,d)\n"}
//! ← {"id":1,"v":1,"result":{"ok":true,"key":"…","mode":"exact",…}}
//! → {"id":2,"op":"stats"}
//! ← {"id":2,"v":1,"result":{"ok":true,"workers":4,"sessions":0,…}}
//! → {"id":3,"op":"shutdown"}
//! ← {"id":3,"v":1,"result":{"ok":true,"shutting_down":true}}
//! ```
//!
//! The `result` object of an `encode` response is byte-for-byte the
//! stdout of `ioenc encode --json` on the same input, for every worker
//! count and cache state.
//!
//! Incremental sessions add three operations (see [`session`]):
//!
//! ```text
//! → {"id":4,"op":"open","text":"symbols: a b c d\n(a,b)\n(c,d)\n"}
//! ← {"id":4,"v":1,"result":{"ok":true,"session":1,…,"reuse":{…}}}
//! → {"id":5,"op":"delta","session":1,"add":["(b,c)"],"remove":["(c,d)"]}
//! ← {"id":5,"v":1,"result":{"ok":true,"session":1,…,"reuse":{"incremental":true,…}}}
//! → {"id":6,"op":"close","session":1}
//! ← {"id":6,"v":1,"result":{"ok":true,"session":1,"closed":true}}
//! ```

pub mod cache;
pub mod diskcache;
pub mod exec;
pub mod http;
pub mod poller;
pub mod queue;
pub mod server;
pub mod session;

pub use cache::{CachedOutcome, ResultCache};
pub use diskcache::DiskCache;
pub use exec::{
    outcome, parse_constraint_text, solve_fresh, EncodeResult, EncodeSpec, Mode, ModeOutcome,
    Outcome, PROTOCOL_VERSION,
};
pub use server::{serve_stdio, serve_tcp, ServeOptions};
