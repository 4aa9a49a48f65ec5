//! `serve-mixed`: many users' one-shot encode traffic against a
//! cache-fronted `ioenc serve`.
//!
//! Open loop: seeded Poisson arrivals at [`RATE`] requests per second,
//! split between one pipelined NDJSON connection and one HTTP/1.1
//! keep-alive connection. Popularity over a hot set of canonical keys is
//! Zipf-like; some repeats are re-spelled (symbols reordered, lines
//! shuffled, a redundant line added) so presolve and canonicalization
//! must collapse them; a steady share of never-seen keys forces misses,
//! disk appends and, once the warm-up has nearly filled the memory tier,
//! FIFO evictions. Closed-loop saturation bursts over the hot set,
//! interleaved with the open-loop segments, give throughput.

use crate::check::{gate_pool, par_map, prime_count, Oracle, Reference};
use crate::client::{closed_loop, Conn, Done, Proto, Server, Setups, Slot};
use crate::gen::{self, exp_gap, Digest, Rng, Zipf};
use crate::replay::{self, Counts};
use crate::report::{Ctx, Report};
use crate::trace::Tracer;
use crate::util::{median, quantile, WorkDir};
use ioenc_core::canonical_form;
use ioenc_core::json::Json;
use ioenc_server::{outcome, parse_constraint_text, DiskCache, EncodeSpec, ResultCache};
use std::collections::{BTreeSet, HashSet};
use std::time::{Duration, Instant};

/// Open-loop arrival rate, requests per second (both connections).
const RATE: f64 = 1000.0;
/// Share of open-loop requests for a never-seen canonical key.
const MISS_SHARE: f64 = 0.12;
/// Share of hot-key requests sent in another spelling.
const RESPELL_SHARE: f64 = 0.3;
/// Distinct hot canonical keys.
const HOT_KEYS: usize = 256;
/// Never-seen keys sent during the warm-up, so the 1024-entry memory
/// tier is nearly full when timing starts.
const FILLER_KEYS: usize = 560;
/// A key is admitted only if its set has at most this many prime
/// dichotomies, which bounds a miss to a few milliseconds.
const MAX_PRIMES: usize = 64;
/// Seed of the request population. The population is fixed so that the
/// frozen exclusion list in `pins.txt` covers every seed; `--seed` drives
/// the traffic (popularity ranks, schedule, spelling choices).
const POPULATION_SEED: u64 = 0x5e7e_d00d;
/// Never-seen-key candidates, enough for a 60-second run.
const COLD_CANDS: usize = 18_000;
/// Latency limit for `serve.late_share`, milliseconds.
const LATENCY_LIMIT_MS: f64 = 25.0;
/// The run is invalid when the generator's p99 send lag exceeds this
/// share of the latency limit.
const MAX_LAG_SHARE: f64 = 0.5;
/// Share of `--seconds` spent in the open loop; the rest saturates.
const OPEN_SHARE: f64 = 0.7;
/// Length of one round of the timed phase (an open-loop segment and a
/// saturation burst), seconds.
const ROUND_S: f64 = 2.0;
/// Requests in flight in the saturation phase (one NDJSON connection, so
/// the two cores go to the server rather than to a second client thread).
const SAT_WINDOW: usize = 16;

/// A distinct request text plus its in-process reference.
struct Item {
    text: String,
    esc: String,
    refr: Reference,
}

/// Counts one request against the run: attempted, and failed unless its
/// reply arrived and passed the check.
pub fn tally(rep: &mut Report, slot: Slot) {
    rep.attempted += 1;
    match slot {
        Some(Done {
            verdict: Ok(()), ..
        }) => {}
        Some(Done {
            verdict: Err(e), ..
        }) => rep.fail(e),
        None => rep.fail("no reply"),
    }
}

fn body(id: u64, esc: &str) -> String {
    format!("{{\"id\":{id},\"op\":\"encode\",\"text\":{esc}}}")
}

/// A candidate's canonical key (its symbol-relabeling class) when its
/// set admits it: it parses, is feasible and has at most [`MAX_PRIMES`]
/// prime dichotomies. Only properties of the set decide, so the pool does
/// not depend on how fast or how well the program answers.
fn eligible(text: &str) -> Option<u128> {
    prime_count(text, MAX_PRIMES)?;
    let cs = parse_constraint_text(text).ok()?;
    Some(canonical_form(&cs).key.as_u128())
}

/// Admits candidate indices in order: eligible, canonical key not seen
/// yet, not excluded, until `want` are taken.
fn admit(
    cands: &[String],
    want: usize,
    seen: &mut HashSet<u128>,
    excluded: &BTreeSet<usize>,
) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for (b, batch) in cands.chunks(512).enumerate() {
        for (k, key) in par_map(batch, |t| eligible(t)).into_iter().enumerate() {
            let i = b * 512 + k;
            let Some(key) = key else { continue };
            if !excluded.contains(&i) && seen.insert(key) {
                out.push(i);
                if out.len() == want {
                    return Ok(out);
                }
            }
        }
    }
    Err(format!(
        "only {} of {want} candidate keys admitted",
        out.len()
    ))
}

/// One open-loop arrival: due time (seconds from start) and item index.
struct Arrival {
    due: f64,
    item: usize,
}

/// Per arrival: item, send lag (ms), and the latency from the due time
/// (ms) with the reply, if one came.
type Sample = (usize, f64, Option<(f64, String)>);

/// A scheduled request: due time (s), connection, and either the
/// never-seen key's ordinal (`Err`) or a hot key's rank and spelling.
type Planned = (f64, usize, Result<(usize, usize), usize>);

struct OpenResult {
    samples: Vec<Sample>,
    backlog: usize,
    depth_max: u64,
}

/// Drives one connection through its share of the schedule: sends each
/// request when due, reads replies in between, and (NDJSON only) samples
/// the queue depth with a `stats` op every 250 ms.
fn open_loop(
    conn: &mut Conn,
    arrivals: &[Arrival],
    items: &[Item],
    first_id: u64,
    t0: Instant,
    sample_depth: bool,
) -> OpenResult {
    let n = arrivals.len();
    let mut samples: Vec<Sample> = arrivals.iter().map(|a| (a.item, 0.0, None)).collect();
    let due = |i: usize| t0 + Duration::from_secs_f64(arrivals[i].due);
    let mut next = 0;
    let mut done = 0;
    let mut backlog = None;
    let mut depth_max = 0;
    let mut next_stats = t0;
    let stats_id = u64::MAX - 1;
    let drain_deadline =
        t0 + Duration::from_secs_f64(arrivals.last().map_or(0.0, |a| a.due) + 20.0);
    loop {
        let now = Instant::now();
        while next < n && due(next) <= now {
            let a = &arrivals[next];
            if conn
                .send(&body(first_id + next as u64, &items[a.item].esc))
                .is_err()
            {
                return OpenResult {
                    samples,
                    backlog: n - done,
                    depth_max,
                };
            }
            samples[next].1 = (Instant::now() - due(next)).as_secs_f64() * 1e3;
            next += 1;
        }
        if next == n && backlog.is_none() {
            backlog = Some(next - done);
        }
        if sample_depth && next < n && now >= next_stats {
            let _ = conn.send(&format!("{{\"id\":{stats_id},\"op\":\"stats\"}}"));
            next_stats = now + Duration::from_millis(250);
        }
        if (next == n && done == n) || now > drain_deadline || conn.closed {
            break;
        }
        let wait = if next < n {
            due(next).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        let Ok(replies) = conn.poll(Some(wait)) else {
            break;
        };
        for r in replies {
            if r.id == stats_id {
                let depth = Json::parse(&r.result).ok().and_then(|j| {
                    j.get("queue")
                        .and_then(|q| q.get("depth"))
                        .and_then(Json::as_u64)
                });
                depth_max = depth_max.max(depth.unwrap_or(0));
                continue;
            }
            let Some(i) = r.id.checked_sub(first_id).map(|i| i as usize) else {
                continue;
            };
            if i < next && samples[i].2.is_none() {
                samples[i].2 = Some(((r.at - due(i)).as_secs_f64() * 1e3, r.result));
                done += 1;
            }
        }
    }
    OpenResult {
        samples,
        backlog: backlog.unwrap_or(n - done),
        depth_max,
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let spec = EncodeSpec::default();
    let mut pop = Rng::new(POPULATION_SEED);
    let mut rng = Rng::new(ctx.seed ^ 0x5e7e_0001);
    let mut digest = Digest::default();

    // The request population (fixed, see [`POPULATION_SEED`]): hot-key
    // candidates with two respellings each, and never-seen-key candidates.
    let fsm = gen::fsm_sets(POPULATION_SEED, 160, 9, 4);
    let adv = gen::adversarial_sets(POPULATION_SEED, 48);
    let (mut fi, mut ai) = (0, 0);
    let hot_cands: Vec<String> = (0..HOT_KEYS * 4)
        .map(|i| match i % 10 {
            0..=2 if fi < fsm.len() => {
                fi += 1;
                fsm[fi - 1].clone()
            }
            3 if ai < adv.len() => {
                ai += 1;
                adv[ai - 1].clone()
            }
            _ => {
                let n = 6 + pop.gen_range(0..4);
                gen::render(&gen::random_set(&mut pop, n))
            }
        })
        .collect();
    let spellings: Vec<[String; 2]> = hot_cands
        .iter()
        .map(|h| {
            [
                gen::respell(h, &mut pop, false),
                gen::respell(h, &mut pop, true),
            ]
        })
        .collect();
    let cold_cands: Vec<String> = (0..COLD_CANDS)
        .map(|_| {
            let n = 6 + pop.gen_range(0..4);
            gen::render(&gen::random_set(&mut pop, n))
        })
        .collect();

    // The seeded traffic: which hot key holds which popularity rank, the
    // open-loop schedule and the saturation stream.
    let mut perm: Vec<usize> = (0..HOT_KEYS).collect();
    rng.shuffle(&mut perm);
    let open_s = ctx.seconds * OPEN_SHARE;
    let sat_s = ctx.seconds - open_s;
    let zipf = Zipf::new(HOT_KEYS);
    let mut t = 0.0;
    let mut plan: Vec<Planned> = Vec::new();
    let mut misses = 0;
    loop {
        t += exp_gap(&mut rng, RATE);
        if t >= open_s {
            break;
        }
        let conn = rng.gen_range(0..2);
        if rng.gen_bool(MISS_SHARE) {
            plan.push((t, conn, Err(misses)));
            misses += 1;
        } else {
            let rank = zipf.sample(&mut rng);
            let spelling = if rng.gen_bool(RESPELL_SHARE) {
                1 + rng.gen_range(0..2)
            } else {
                0
            };
            plan.push((t, conn, Ok((rank, spelling))));
        }
    }
    let sat_plan: Vec<(usize, usize)> = (0..16384)
        .map(|_| {
            let rank = zipf.sample(&mut rng);
            let s = if rng.gen_bool(RESPELL_SHARE) {
                1 + rng.gen_range(0..2)
            } else {
                0
            };
            (rank, s)
        })
        .collect();
    for (h, [a, b]) in hot_cands.iter().zip(&spellings) {
        digest.add(h);
        digest.add(a);
        digest.add(b);
    }
    for c in &cold_cands {
        digest.add(c);
    }
    digest.add(&format!("{perm:?}"));
    for (due, conn, what) in &plan {
        digest.add(&format!("{due:.9} {conn} {what:?}"));
    }
    digest.add(&format!("{sat_plan:?}"));
    rep.digest = digest.hex();

    // The pool: hot keys, then as many never-seen keys as the warm-up and
    // the schedule use.
    let want_cold = FILLER_KEYS + misses;
    let pick = |ex_hot: &BTreeSet<usize>, ex_cold: &BTreeSet<usize>| -> Result<_, String> {
        let mut seen = HashSet::new();
        let hot: Vec<(usize, Vec<String>)> = admit(&hot_cands, HOT_KEYS, &mut seen, ex_hot)?
            .into_iter()
            .map(|i| {
                let [a, b] = spellings[i].clone();
                (i, vec![hot_cands[i].clone(), a, b])
            })
            .collect();
        let cold: Vec<(usize, Vec<String>)> = admit(&cold_cands, want_cold, &mut seen, ex_cold)?
            .into_iter()
            .map(|i| (i, vec![cold_cands[i].clone()]))
            .collect();
        Ok((hot, cold))
    };
    // Listing exclusions starts from empty lists (see the gate below).
    let (mut ex_hot, mut ex_cold) = if ctx.list_exclusions {
        Default::default()
    } else {
        (ctx.excluded("hot"), ctx.excluded("cold"))
    };
    let (mut hot, mut cold) = pick(&ex_hot, &ex_cold)?;
    let mut pool = Digest::default();
    for t in hot.iter().chain(&cold).flat_map(|(_, t)| t) {
        pool.add(t);
    }
    rep.pool_digest = pool.hex();
    if ctx.digest_only {
        return Ok(rep);
    }

    // `setup_s` bursts before the gate, before the warm-up and after the
    // saturation phase; each set-up spawn opens a fresh cache dir.
    let work = WorkDir::new("serve-mixed").map_err(|e| e.to_string())?;
    let cache_dir = work.path().join("cache");
    let serve_args = |dir: &std::path::Path| -> Vec<String> {
        ["--http", "--workers", "2", "--cache-dir"]
            .iter()
            .map(|s| s.to_string())
            .chain([dir.display().to_string()])
            .collect()
    };
    let args = serve_args(&cache_dir);
    let mut setups = Setups::default();
    let mut spawned = 0;
    let mut fresh = || {
        spawned += 1;
        let s = Server::spawn(
            &ctx.bin,
            &serve_args(&work.path().join(format!("setup{spawned}"))),
        )?;
        let ready = s.ready_s;
        s.shutdown()?;
        Ok(ready)
    };
    if !ctx.list_exclusions {
        setups.burst(&mut fresh)?;
    }
    // The gate. When listing exclusions, the failing candidates are
    // excluded and admission runs again until the pool passes, so the
    // lists hold exactly the failing candidates admission reaches.
    let oracle = Oracle::default();
    let (hot, cold) = loop {
        let (hot_ok, hot_bad) = gate_pool(&mut rep, "hot", &oracle, &spec, hot);
        let (cold_ok, cold_bad) = gate_pool(&mut rep, "cold", &oracle, &spec, cold);
        if !ctx.list_exclusions || hot_bad.is_empty() && cold_bad.is_empty() {
            break (hot_ok, cold_ok);
        }
        ex_hot.extend(hot_bad);
        ex_cold.extend(cold_bad);
        (hot, cold) = pick(&ex_hot, &ex_cold)?;
    };
    if ctx.list_exclusions {
        rep.exclusions
            .push(("hot".to_string(), ex_hot.into_iter().collect()));
        rep.exclusions
            .push(("cold".to_string(), ex_cold.into_iter().collect()));
        return Ok(rep);
    }
    if rep.failed > 0 {
        return Err(format!(
            "pool inputs failed the gate: {}",
            rep.errors.join("; ")
        ));
    }
    rep.named(
        "serve.excluded",
        (ex_hot.len() + ex_cold.len()) as f64,
        "count",
    );
    // items: [hot bases][respellings a,b per hot key][cold]; each
    // respelling has its own reference (each answer comes back in its
    // own symbol order).
    let item = |(text, refr): (String, Reference)| Item {
        esc: Json::from(text.as_str()).render(),
        text,
        refr,
    };
    let mut items: Vec<Item> = Vec::new();
    let mut spelled_items = Vec::new();
    for (_, mut refs) in hot {
        let rest = refs.split_off(1);
        items.extend(refs.into_iter().map(item));
        spelled_items.extend(rest.into_iter().map(item));
    }
    let n_hot = items.len();
    items.extend(spelled_items);
    let cold_base = items.len();
    items.extend(cold.into_iter().flat_map(|(_, r)| r).map(item));
    let spelled = |rank: usize, s: usize| {
        if s == 0 {
            perm[rank]
        } else {
            n_hot + 2 * perm[rank] + (s - 1)
        }
    };

    setups.burst(&mut fresh)?;
    let server = setups.spawn(&ctx.bin, &args)?;

    let mut sent = 0u64;
    let same = |i: usize, got: &str| {
        if got == items[i].refr.json {
            Ok(())
        } else {
            Err(format!("answer differs from in-process outcome: {got}"))
        }
    };

    // Untimed warm-up: every hot key once, then the filler keys.
    let warm: Vec<usize> = (0..n_hot)
        .chain(cold_base..cold_base + FILLER_KEYS)
        .collect();
    let mut id = 1u64;
    {
        let mut conn = Conn::open(server.addr, Proto::Ndjson).map_err(|e| e.to_string())?;
        let far = Instant::now() + Duration::from_secs(120);
        let slots = closed_loop(
            &mut conn,
            warm.len(),
            id,
            16,
            far,
            far,
            |k, rid| body(rid, &items[warm[k]].esc),
            |k, got| same(warm[k], got),
        );
        sent += slots.len() as u64;
        if slots.len() < warm.len() {
            rep.fail(format!("warm-up sent {} of {}", slots.len(), warm.len()));
        }
        for slot in slots {
            tally(&mut rep, slot);
        }
        id += warm.len() as u64;
    }

    // The timed phase: rounds of an open-loop segment on both connections
    // followed by a closed-loop saturation burst on the NDJSON connection,
    // so that both sample the host over the whole run.
    let rounds = ((ctx.seconds / ROUND_S).round() as usize).max(1);
    let seg_s = open_s / rounds as f64;
    let burst_s = sat_s / rounds as f64;
    let mut segments: Vec<[Vec<Arrival>; 2]> = (0..rounds).map(|_| Default::default()).collect();
    for (due, conn, what) in &plan {
        let item = match what {
            Ok((rank, s)) => spelled(*rank, *s),
            Err(m) => cold_base + FILLER_KEYS + m,
        };
        let k = ((due / seg_s) as usize).min(rounds - 1);
        segments[k][*conn].push(Arrival {
            due: due - k as f64 * seg_s,
            item,
        });
    }
    sent += plan.len() as u64;
    let sat_item = |k: usize| {
        let (rank, s) = sat_plan[k % sat_plan.len()];
        spelled(rank, s)
    };
    let mut nd = Conn::open(server.addr, Proto::Ndjson).map_err(|e| e.to_string())?;
    let mut http = Conn::open(server.addr, Proto::Http).map_err(|e| e.to_string())?;
    let mut lat = Vec::new();
    let mut lags = Vec::new();
    let mut late = 0usize;
    let (mut backlog, mut depth_max) = (0, 0);
    let (mut sat_sent, mut sat_done) = (0usize, 0usize);
    for [to_nd, to_http] in &segments {
        let http_base = id + to_nd.len() as u64;
        let t0 = Instant::now() + Duration::from_millis(20);
        let (r_nd, r_http) = std::thread::scope(|s| {
            let h = s.spawn(|| open_loop(&mut http, to_http, &items, http_base, t0, false));
            let a = open_loop(&mut nd, to_nd, &items, id, t0, true);
            (a, h.join())
        });
        let r_http = r_http.map_err(|_| "open-loop thread panicked".to_string())?;
        id = http_base + to_http.len() as u64;
        // The backlog reported is the largest at the end of a segment.
        backlog = backlog.max(r_nd.backlog + r_http.backlog);
        depth_max = depth_max.max(r_nd.depth_max);
        for r in [&r_nd, &r_http] {
            for (item, lag, reply) in &r.samples {
                lags.push(*lag);
                let slot = reply.as_ref().map(|(ms, got)| Done {
                    ms: *ms,
                    at: t0,
                    verdict: same(*item, got),
                });
                match &slot {
                    Some(Done {
                        ms,
                        verdict: Ok(()),
                        ..
                    }) => {
                        lat.push(*ms);
                        if *ms > LATENCY_LIMIT_MS {
                            late += 1;
                        }
                    }
                    _ => late += 1,
                }
                tally(&mut rep, slot);
            }
        }

        // The saturation burst; throughput counts the answers that arrive
        // before the burst's end.
        let stop = Instant::now() + Duration::from_secs_f64(burst_s);
        let out = closed_loop(
            &mut nd,
            usize::MAX,
            id,
            SAT_WINDOW,
            stop,
            stop + Duration::from_secs(20),
            |k, rid| body(rid, &items[sat_item(sat_sent + k)].esc),
            |k, got| same(sat_item(sat_sent + k), got),
        );
        id += out.len() as u64;
        sat_sent += out.len();
        for slot in out {
            if matches!(&slot, Some(d) if d.at < stop) {
                sat_done += 1;
            }
            tally(&mut rep, slot);
        }
    }
    sent += sat_sent as u64;
    let throughput = sat_done as f64 / sat_s;
    drop(nd);
    drop(http);
    setups.burst(&mut fresh)?;
    rep.e2e.insert("setup_s", setups.median());

    // Server counters, then shutdown.
    let stats = server.stats()?;
    server.shutdown()?;
    let g = |path: &[&str]| {
        let mut j = Some(&stats);
        for p in path {
            j = j.and_then(|x| x.get(p));
        }
        j.and_then(Json::as_u64).unwrap_or(0)
    };
    let processed = g(&["queue", "processed"]);
    if processed != sent {
        rep.fail(format!(
            "server processed {processed} requests, {sent} were sent"
        ));
    }
    for (name, path) in [
        ("cache verify failures", &["cache", "verify_failures"][..]),
        ("disk records rejected", &["cache", "disk", "rejected"][..]),
    ] {
        let v = g(path);
        if v > 0 {
            rep.fail(format!("{name}: {v}"));
        }
    }

    let p50 = quantile(&lat, 0.5);
    let p99 = quantile(&lat, 0.99);
    let lag_p99 = quantile(&lags, 0.99);
    let lag_max = lags.iter().copied().fold(0.0, f64::max);
    rep.e2e.insert("p50_ms", p50);
    rep.e2e.insert("tail_ms", p99);
    rep.named("serve.p50_ms", p50, "ms");
    rep.named("serve.p99_ms", p99, "ms");
    rep.named(
        "serve.late_share",
        late as f64 / plan.len().max(1) as f64,
        "ratio",
    );
    rep.named("serve.throughput_rps", throughput, "req/s");
    rep.named("serve.open_loop_samples", lat.len() as f64, "count");
    rep.named("serve.saturation_samples", sat_done as f64, "count");
    rep.named("serve.lag_p99_ms", lag_p99, "ms");
    rep.named("serve.lag_max_ms", lag_max, "ms");
    rep.named("serve.backlog_at_end", backlog as f64, "count");
    for (name, path) in [
        ("serve.queue_shed", &["queue", "shed"][..]),
        ("serve.queue_processed", &["queue", "processed"][..]),
        ("serve.cache_hits", &["cache", "hits"][..]),
        ("serve.cache_misses", &["cache", "misses"][..]),
        ("serve.cache_evictions", &["cache", "evictions"][..]),
        (
            "serve.cache_verify_failures",
            &["cache", "verify_failures"][..],
        ),
        ("serve.disk_appends", &["cache", "disk", "appends"][..]),
        ("serve.disk_rejected", &["cache", "disk", "rejected"][..]),
        (
            "serve.disk_torn_bytes",
            &["cache", "disk", "torn_bytes"][..],
        ),
    ] {
        rep.named(name, g(path) as f64, "count");
    }
    if lag_p99 > MAX_LAG_SHARE * LATENCY_LIMIT_MS {
        rep.invalid = Some(format!(
            "open-loop generator lagged: p99 send lag {lag_p99:.2} ms > {:.1} ms",
            MAX_LAG_SHARE * LATENCY_LIMIT_MS
        ));
    }

    if ctx.trace {
        rep.layer("queue.depth_max", depth_max as f64);
        rep.layer("queue.shed", g(&["queue", "shed"]) as f64);
        rep.layer("loadgen.lag_p99_ms", lag_p99);
        rep.layer("loadgen.lag_max_ms", lag_max);
        rep.layer("loadgen.backlog", backlog as f64);
        let hits = g(&["cache", "hits"]) as f64;
        rep.layer(
            "cache.hit_ratio",
            crate::util::ratio(hits, hits + g(&["cache", "misses"]) as f64),
        );
        rep.layer("cache.evictions", g(&["cache", "evictions"]) as f64);
        rep.layer(
            "cache.verify_failures",
            g(&["cache", "verify_failures"]) as f64,
        );
        rep.layer("diskcache.appends", g(&["cache", "disk", "appends"]) as f64);
        rep.layer(
            "diskcache.rejected",
            g(&["cache", "disk", "rejected"]) as f64,
        );

        // Replay warm-up + open loop in-process: traced through the
        // layers, then untraced through the same path (overhead), then
        // through `outcome` itself (transport = e2e median - this).
        let mut seq: Vec<usize> = warm.clone();
        seq.extend(plan.iter().map(|(_, _, what)| match what {
            Ok((rank, s)) => spelled(*rank, *s),
            Err(m) => cold_base + FILLER_KEYS + m,
        }));
        let open_from = warm.len();
        let mut tr = Tracer::new(true);
        let mut counts = Counts::default();
        let mut mismatches = 0;
        let traced_s = {
            let dir = work.path().join("replay-traced");
            let cache =
                ResultCache::with_disk(1024, DiskCache::open(&dir, 4).map_err(|e| e.to_string())?);
            let t = Instant::now();
            for (k, &i) in seq.iter().enumerate() {
                tr.request(k as u32);
                let got = tr.span("request", |tr| {
                    replay::encode(tr, &mut counts, &items[i].text, &spec, Some(&cache))
                });
                if got != items[i].refr.json {
                    mismatches += 1;
                }
            }
            t.elapsed().as_secs_f64()
        };
        let untraced_s = {
            let dir = work.path().join("replay-untraced");
            let cache =
                ResultCache::with_disk(1024, DiskCache::open(&dir, 4).map_err(|e| e.to_string())?);
            let mut off = Tracer::new(false);
            let mut c = Counts::default();
            let t = Instant::now();
            for &i in &seq {
                replay::encode(&mut off, &mut c, &items[i].text, &spec, Some(&cache));
            }
            t.elapsed().as_secs_f64()
        };
        let mut inproc = Vec::new();
        {
            let dir = work.path().join("replay-outcome");
            let cache =
                ResultCache::with_disk(1024, DiskCache::open(&dir, 4).map_err(|e| e.to_string())?);
            for (k, &i) in seq.iter().enumerate() {
                let t = Instant::now();
                let _ = outcome(&items[i].text, &spec, Some(&cache), None);
                if k >= open_from {
                    inproc.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        rep.layer("server.transport_us", p50 * 1e3 - median(&inproc));
        rep.layer("trace.replayed", seq.len() as f64);
        rep.layer("trace.overhead_ratio", traced_s / untraced_s);
        rep.layer("trace.replay_mismatches", mismatches as f64);
        counts.report(&mut rep);
        replay::span_metrics(&tr, &mut rep);
        crate::write_spans(&tr, "serve-mixed", ctx.seed);
    }
    Ok(rep)
}
