//! The repository's standing end-to-end benchmark.
//!
//! ```text
//! ioenc-perfbench --ioenc <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives the release
//! `ioenc` binary the way users do, checks every answer, and prints
//! human-readable metric lines followed by one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 1` the same inputs are also replayed in-process under
//! per-layer spans and the per-layer metrics are printed instead of the
//! end-to-end ones. `--digest-only` prints the input and pool digests as
//! a `pins.txt` line and exits; `--list-exclusions` gates every candidate
//! of the workload's fixed population and prints the failing ones as
//! `pins.txt` exclusion lines.
//! See README.md for the workloads and metrics.

mod check;
mod client;
mod gen;
mod pins;
mod replay;
mod report;
mod trace;
mod util;
mod wl_serve;
mod wl_session;
mod wl_solve;
mod wl_synth;

use ioenc_core::json::Json;
use report::{Ctx, Report, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["serve-mixed", "solve-cold", "session-edits", "synth-batch"];

/// Writes a run's spans under `.bench_trace/` in the checkout.
pub fn write_spans(tr: &trace::Tracer, workload: &str, seed: u64) {
    let path = Path::new(".bench_trace").join(format!("{workload}-seed{seed}.jsonl"));
    if let Err(e) = tr.write(&path) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ioenc-perfbench --ioenc <path> --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--digest-only | --list-exclusions]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // In-process calls that panic are caught and counted by the caller;
    // one line on stderr is enough.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: in-process call panicked: {info}");
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(bin)) = (value("--workload"), value("--ioenc")) else {
        return usage();
    };
    let seed = value("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);
    let seconds: f64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let trace = value("--trace").as_deref() == Some("1");
    let ctx = Ctx {
        bin: PathBuf::from(bin),
        seed,
        seconds,
        trace,
        digest_only: args.iter().any(|a| a == "--digest-only"),
        list_exclusions: args.iter().any(|a| a == "--list-exclusions"),
        workload: workload.clone(),
        pins: pins::Pins::load(),
    };
    if !ctx.bin.is_file() {
        eprintln!("perfbench: no ioenc binary at {}", ctx.bin.display());
        return ExitCode::from(2);
    }
    let result = match workload.as_str() {
        "serve-mixed" => wl_serve::run(&ctx),
        "solve-cold" => wl_solve::run(&ctx),
        "session-edits" => wl_session::run(&ctx),
        "synth-batch" => wl_synth::run(&ctx),
        _ => return usage(),
    };
    let rep: Report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    if ctx.digest_only {
        println!(
            "pin {workload} {seed} {seconds} {} {}",
            rep.digest, rep.pool_digest
        );
        return ExitCode::SUCCESS;
    }
    if ctx.list_exclusions {
        for (stream, failing) in &rep.exclusions {
            let list: Vec<String> = failing.iter().map(usize::to_string).collect();
            println!("exclude {workload} {stream} {}", list.join(" "));
        }
        return ExitCode::SUCCESS;
    }
    println!(
        "# {workload} seed {seed}: input digest {}, pool digest {}",
        rep.digest, rep.pool_digest
    );
    if let Some((input, pool)) = ctx.pins.pinned(&workload, seed, seconds) {
        if (&input, &pool) != (&rep.digest, &rep.pool_digest) {
            eprintln!(
                "perfbench: {workload} seed {seed}: input digest {} and pool digest {} do not match \
                 the pinned {input} and {pool}; a generator or the pool admission changed the workload",
                rep.digest, rep.pool_digest
            );
            return ExitCode::from(4);
        }
        println!("# digests match the pins");
    }
    for (name, value, unit) in &rep.named {
        println!("{name} = {value:.6} {unit}");
    }
    for e in &rep.errors {
        eprintln!("perfbench: failed: {e}");
    }
    let mut metrics = Json::obj();
    if ctx.trace {
        for (name, unit) in PER_LAYER {
            let v = rep
                .layers
                .get(*name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            metrics = metrics.field(
                name,
                Json::obj()
                    .field("value", Json::Float(v))
                    .field("unit", *unit),
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            let Some(v) = rep
                .e2e
                .get(name)
                .copied()
                .filter(|v| v.is_finite() && *v > 0.0)
            else {
                eprintln!("perfbench: {workload} did not measure {name}");
                return ExitCode::from(1);
            };
            metrics = metrics.field(
                name,
                Json::obj()
                    .field("value", Json::Float(v))
                    .field("unit", *unit),
            );
        }
    }
    let correct = rep.failed == 0;
    println!(
        "{}",
        Json::obj()
            .field("correct", correct)
            .field("attempted", rep.attempted)
            .field("failed", rep.failed)
            .field("metrics", metrics)
            .render()
    );
    if let Some(why) = &rep.invalid {
        eprintln!("perfbench: run invalid: {why}");
        return ExitCode::from(3);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
