//! `session-edits`: incremental edit sessions over serve
//! `open`/`delta`/`close`.
//!
//! Closed loop on one NDJSON connection against `ioenc serve --workers
//! 2` (session operations run one at a time on the server's event loop,
//! so a second connection would only make each latency depend on where
//! the other client's slow first visits happen to fall). Each user opens an unbudgeted exact session on a lightly
//! constrained 9-symbol base set (about 250 prime dichotomies) and sends
//! a fixed chain of single-constraint toggles over
//! three candidate constraints: a toggle back to an earlier form replays
//! the memoized cover, a first visit patches the dichotomy lattice. Users
//! are cycled until time is up; each pass opens a fresh session. Answers
//! are gated after the timed loop.

use crate::check::{par_map, Oracle};
use crate::client::{Conn, Proto, Setups};
use crate::gen::{Digest, Rng};
use crate::replay::Counts;
use crate::report::{Ctx, Report};
use crate::trace::Tracer;
use crate::util::{median, quantile, rate, ratio};
use ioenc_core::json::Json;
use ioenc_core::{Delta, Session};
use ioenc_server::{parse_constraint_text, EncodeSpec};
use std::time::{Duration, Instant};

/// Users per run (each with its own seeded labels and toggle roles).
const USERS: usize = 12;
const TOGGLES: usize = 3;
/// The delta chain: which toggle role each delta flips. Fixed, so every
/// seed sends the same number of first visits and replays.
const CHAIN: [usize; 16] = [0, 0, 1, 1, 0, 2, 2, 1, 0, 1, 2, 0, 2, 1, 0, 0];
const SYMBOLS: usize = 9;
/// Seed of the users' symbol labels and toggle roles.
const LABELS_SEED: u64 = 0x5e55_1015;

struct User {
    header: String,
    base: Vec<String>,
    toggles: Vec<String>,
    /// Toggle index per delta.
    chain: Vec<usize>,
}

impl User {
    fn text(&self, lines: &[String]) -> String {
        let mut t = self.header.clone();
        for l in lines {
            t.push_str(l);
            t.push('\n');
        }
        t
    }
}

/// A user: 9 symbols, base `(a,b) (c,d)`, toggles `e>f`, `(g,h)`,
/// `a>i` (about 250 primes; the 9-symbol case of the incremental-session
/// measurements), with its symbols relabeled and its toggles assigned to
/// the chain's roles by `rng`.
fn user(rng: &mut Rng) -> User {
    let mut label: Vec<usize> = (0..SYMBOLS).collect();
    rng.shuffle(&mut label);
    let s = |k: usize| format!("s{}", label[k]);
    let base = vec![
        format!("({},{})", s(0), s(1)),
        format!("({},{})", s(2), s(3)),
    ];
    let mut toggles = vec![
        format!("{}>{}", s(4), s(5)),
        format!("({},{})", s(6), s(7)),
        format!("{}>{}", s(0), s(8)),
    ];
    rng.shuffle(&mut toggles);
    let names: Vec<String> = (0..SYMBOLS).map(|k| format!("s{k}")).collect();
    User {
        header: format!("symbols: {}\n", names.join(" ")),
        base,
        toggles,
        chain: CHAIN.to_vec(),
    }
}

/// One answer to check after the timed loop: the user, the lines of the
/// set the session holds at that point (in session order), the raw
/// `result`.
struct Answer {
    user: usize,
    lines: Vec<String>,
    result: String,
}

/// What one connection's client saw.
#[derive(Default)]
struct ConnOut {
    sent: u64,
    /// Per delta: when its reply arrived, and its latency in ms.
    deltas: Vec<(Instant, f64)>,
    opens_ms: Vec<f64>,
    answers: Vec<Answer>,
    errors: Vec<String>,
}

/// One user's pass through a session on `conn`: open, the delta chain
/// (stopping early at `stop`), close. Answers are kept for the gate.
fn drive(
    conn: &mut Conn,
    users: &[User],
    k: usize,
    next_id: &mut u64,
    stop: Instant,
    out: &mut ConnOut,
) -> Result<(), String> {
    let user = &users[k];
    let deadline = stop + Duration::from_secs(60);
    let mut call = |body: Json, out: &mut ConnOut| -> Result<(f64, String), String> {
        let body = body.field("id", *next_id).render();
        *next_id += 1;
        out.sent += 1;
        conn.call(&body, deadline)
    };
    let mut lines = user.base.clone();
    let open = Json::obj()
        .field("op", "open")
        .field("text", user.text(&lines));
    let (ms, raw) = call(open, out)?;
    out.opens_ms.push(ms);
    let sid = Json::parse(&raw)
        .ok()
        .and_then(|j| j.get("session").and_then(Json::as_u64))
        .ok_or_else(|| format!("open returned no session id: {raw}"))?;
    out.answers.push(Answer {
        user: k,
        lines: lines.clone(),
        result: raw,
    });
    for &t in &user.chain {
        if Instant::now() >= stop {
            break;
        }
        let line = &user.toggles[t];
        let verb = match lines.iter().position(|l| l == line) {
            Some(p) => {
                lines.remove(p);
                "remove"
            }
            None => {
                lines.push(line.clone());
                "add"
            }
        };
        let delta = Json::obj()
            .field("op", "delta")
            .field("session", sid)
            .field(verb, vec![Json::from(line.as_str())]);
        let (ms, raw) = call(delta, out)?;
        out.deltas.push((Instant::now(), ms));
        out.answers.push(Answer {
            user: k,
            lines: lines.clone(),
            result: raw,
        });
    }
    let close = Json::obj().field("op", "close").field("session", sid);
    let (_, raw) = call(close, out)?;
    if !raw.contains("\"closed\":true") {
        out.errors.push(format!("close failed: {raw}"));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    // Sessions solve the caller's set as spelled (no canonicalization), so
    // symbol labels and toggle roles change the work: the labelings are
    // fixed and `--seed` only picks the user each pass starts from.
    let mut digest = Digest::default();
    let users = users();
    let first_user = Rng::new(ctx.seed).gen_range(0..USERS);
    for u in &users {
        digest.add(&format!(
            "{}{:?}{:?}{:?}",
            u.header, u.base, u.toggles, u.chain
        ));
    }
    rep.pool_digest = digest.hex();
    digest.add(&first_user.to_string());
    rep.digest = digest.hex();
    if ctx.pool_only() {
        return Ok(rep);
    }

    let args: Vec<String> = ["--workers", "2"].iter().map(|s| s.to_string()).collect();
    let mut setups = Setups::default();
    setups.serve_burst(&ctx.bin, &args)?;
    let server = setups.spawn(&ctx.bin, &args)?;

    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(ctx.seconds);
    let mut conn = Conn::open(server.addr, Proto::Ndjson).map_err(|e| e.to_string())?;
    let mut out = ConnOut::default();
    let mut next_id = 1;
    let mut k = first_user;
    while Instant::now() < stop {
        drive(&mut conn, &users, k % USERS, &mut next_id, stop, &mut out)?;
        k += 1;
    }
    drop(conn);
    let sent = out.sent;
    for e in out.errors {
        rep.fail(e);
    }
    let (deltas, opens, answers) = (out.deltas, out.opens_ms, out.answers);
    setups.serve_burst(&ctx.bin, &args)?;
    let stats = server.stats()?;
    server.shutdown()?;
    rep.attempted = sent;
    let processed = stats
        .get("queue")
        .and_then(|q| q.get("processed"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if processed != sent {
        rep.fail(format!(
            "server processed {processed} requests, {sent} were sent"
        ));
    }

    // The gate, after the timed loop so that checking costs no client
    // time: codes against the tracked set, optimal widths against the
    // oracle (memoized per form).
    let oracle = Oracle::new(SYMBOLS);
    let verdicts = par_map(&answers, |a| {
        let u = &users[a.user];
        let mut key: Vec<&String> = a.lines.iter().collect();
        key.sort();
        let key = format!("{}{key:?}", u.header);
        let j = Json::parse(&a.result).map_err(|e| format!("bad result JSON: {e}"))?;
        oracle.check_result(&u.text(&a.lines), &j, &key)
    });
    let mut replayed = 0;
    for (a, v) in answers.iter().zip(verdicts) {
        if let Err(e) = v {
            rep.fail(format!("session answer failed the gate: {e}"));
        }
        if a.result.contains("\"cover_replayed\":true") {
            replayed += 1;
        }
    }
    setups.serve_burst(&ctx.bin, &args)?;
    rep.e2e.insert("setup_s", setups.median());

    let at: Vec<Instant> = deltas.iter().map(|d| d.0).collect();
    let ms: Vec<f64> = deltas.iter().map(|d| d.1).collect();
    let p50 = quantile(&ms, 0.5);
    let p90 = quantile(&ms, 0.9);
    let rate = rate(&at, start, ctx.seconds);
    rep.e2e.insert("p50_ms", p50);
    rep.e2e.insert("tail_ms", p90);
    rep.named("session.deltas_per_s", rate, "ops/s");
    rep.named("session.p50_ms", p50, "ms");
    rep.named("session.p90_ms", p90, "ms");
    rep.named("session.open_p50_ms", median(&opens), "ms");
    rep.named(
        "session.replay_share",
        ratio(replayed as f64, deltas.len() as f64),
        "ratio",
    );
    rep.named("session.deltas", deltas.len() as f64, "count");
    rep.named("session.opens", opens.len() as f64, "count");

    if ctx.trace {
        replay_traced(ctx, &users, &mut rep)?;
    }
    Ok(rep)
}

/// The fixed users (see [`LABELS_SEED`]).
fn users() -> Vec<User> {
    let mut rng = Rng::new(LABELS_SEED);
    (0..USERS).map(|_| user(&mut rng)).collect()
}

/// What an in-process pass over the users' sessions saw.
#[derive(Default)]
struct Reuse {
    first_us: Vec<f64>,
    replay_us: Vec<f64>,
    seeded: u64,
    reused: u64,
    raised: u64,
}

impl Reuse {
    fn report(&self, rep: &mut Report) {
        let applied = (self.first_us.len() + self.replay_us.len()) as f64;
        rep.layer("session.apply_first_us", median(&self.first_us));
        rep.layer("session.apply_replay_us", median(&self.replay_us));
        rep.layer(
            "session.replay_share",
            ratio(self.replay_us.len() as f64, applied),
        );
        rep.layer("session.seeded_share", ratio(self.seeded as f64, applied));
        rep.layer(
            "session.raises_reused_ratio",
            ratio(self.reused as f64, self.raised as f64),
        );
    }
}

/// Replays every user's session in-process through `Session::open` and
/// `Session::apply`, each under a span; the users' requests are numbered
/// from `first_request`.
fn replay_pass(
    users: &[User],
    tr: &mut Tracer,
    counts: &mut Counts,
    first_request: u32,
) -> Result<Reuse, String> {
    let solver = EncodeSpec::default()
        .solver(None)
        .map_err(|e| e.to_string())?;
    let mut r = Reuse::default();
    for (k, u) in users.iter().enumerate() {
        tr.request(first_request + k as u32);
        let cs = parse_constraint_text(&u.text(&u.base)).map_err(|e| e.to_string())?;
        let mut session = tr.span("session.open", |_| {
            let mut s = Session::open(cs).with_solver(solver.clone());
            let out = s.solve();
            (s, out)
        });
        if let Ok(out) = &session.1 {
            counts.solved(&out.solution.stats, &out.solution.detail);
        }
        let mut present = [false; TOGGLES];
        for &t in &u.chain {
            let line = u.toggles[t].as_str();
            let delta = if present[t] {
                Delta::new().remove(line)
            } else {
                Delta::new().add(line)
            };
            present[t] = !present[t];
            let t0 = Instant::now();
            let out = tr.span("session.apply", |_| session.0.apply(&delta));
            let us = t0.elapsed().as_secs_f64() * 1e6;
            let out = out.map_err(|e| e.to_string())?;
            counts.solved(&out.solution.stats, &out.solution.detail);
            r.seeded += u64::from(out.reuse.cover_seeded);
            r.reused += out.reuse.raises_reused as u64;
            r.raised += (out.reuse.raises_reused
                + out.reuse.raises_recomputed
                + out.reuse.raises_fresh) as u64;
            if out.reuse.cover_replayed {
                r.replay_us.push(us);
            } else {
                r.first_us.push(us);
            }
        }
    }
    Ok(r)
}

/// Replays the users' sessions under `tr`'s spans after another
/// workload's requests (numbered from `first_request`) and records the
/// `session.*` layers. Their solves' work counters are left out of the
/// other workload's.
pub fn replay_sessions(
    tr: &mut Tracer,
    first_request: u32,
    rep: &mut Report,
) -> Result<(), String> {
    replay_pass(&users(), tr, &mut Counts::default(), first_request)?.report(rep);
    Ok(())
}

/// Replays every user's session in-process, traced then untraced.
fn replay_traced(ctx: &Ctx, users: &[User], rep: &mut Report) -> Result<(), String> {
    let mut tr = Tracer::new(true);
    let mut counts = Counts::default();
    let t = Instant::now();
    let reuse = replay_pass(users, &mut tr, &mut counts, 0)?;
    let traced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    replay_pass(users, &mut Tracer::new(false), &mut Counts::default(), 0)?;
    let untraced_s = t.elapsed().as_secs_f64();
    rep.layer("trace.replayed", users.len() as f64);
    rep.layer("trace.overhead_ratio", traced_s / untraced_s);
    reuse.report(rep);
    counts.report(rep);
    crate::replay::span_metrics(&tr, rep);
    crate::write_spans(&tr, "session-edits", ctx.seed);
    Ok(())
}
