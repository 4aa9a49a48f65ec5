//! `ioenc` — command-line front end for the encoding-constraint framework.
//!
//! ```text
//! ioenc check <constraints-file>                 feasibility (P-1)
//! ioenc lint <constraints-file> [--json]         static analysis + conflict cores
//! ioenc analyze <constraints-file>               presolve report with derivations
//! ioenc canon <constraints-file>                 canonical form + content key
//! ioenc encode <constraints-file> [options]      exact or heuristic codes
//! ioenc session <constraints-file>               incremental re-solve loop
//! ioenc serve [--workers N] [--tcp PORT]         NDJSON batch-encoding service
//! ioenc primes <constraints-file> [--cap N]      prime encoding-dichotomies
//! ioenc fsm <kiss2-file> [--mixed] [--dc]        constraints from an FSM
//! ioenc table <constraints-file>                 the Section 4 binate table
//! ioenc synth <kiss2-file> [options]             full pipeline, resumable stages
//! ioenc synth gen-corpus <dir> [options]         seeded scenario corpus
//! ```
//!
//! Constraint files use the [`ConstraintSet::parse`] syntax preceded by a
//! `symbols: a b c …` header line:
//!
//! ```text
//! symbols: a b c d
//! (b,c)
//! (c,d)
//! a>c
//! a=b|d
//! ```
//!
//! Encoding results go to stdout; solver statistics go to stderr, so the
//! codes stay byte-identical across thread counts and pipe cleanly.
//!
//! Exit codes are consistent across subcommands, one per
//! [`EncodeError`] class: 0 success, 2 parse, 3 io, 4 limit, 5 budget,
//! 6 infeasible (1 is reserved for other failures, e.g.
//! `lint --deny-warnings`).

#![forbid(unsafe_code)]

use ioenc::core::lint::{lint, LintOptions};
use ioenc::core::{
    canonical_form, check_feasible, generate_primes_with, initial_dichotomies, BinateFormulation,
    ConstraintSet, CostFunction, EncodeError, Parallelism,
};
use ioenc::espresso::{cover_to_pla_text, parse_pla_text};
use ioenc::kiss::Fsm;
use ioenc::server::{
    outcome, serve_stdio, serve_tcp, solve_fresh, EncodeSpec, Mode, ModeOutcome, ServeOptions,
};
use ioenc::symbolic::{
    assign_states, input_constraints, input_constraints_with_dc, mixed_constraints, OutputProfile,
    Strategy,
};
use ioenc::synth::{
    failure_json, synth, write_corpus, ConstraintSource, CorpusOptions, Stage, SynthMode,
    SynthOptions, SynthRun,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
usage:
  ioenc check  <constraints-file>
  ioenc lint   <constraints-file> [--json] [--deny-warnings]
               [--threads auto|off|N]
  ioenc lint --explain <CODE>        describe a diagnostic code (E001, W002, …)
  ioenc analyze <constraints-file>   presolve: rewrites, facts, derivations
  ioenc canon  <constraints-file>
  ioenc encode <constraints-file> [--json] [--heuristic] [--bits N]
               [--cost violations|cubes|literals] [--prime-cap N]
               [--auto] [--max-primes N] [--max-nodes N] [--max-evals N]
               [--max-ps-steps N] [--deadline-ms T] [--no-presolve]
               [--measure <kiss2-file>] [--threads auto|off|N]
  ioenc session <constraints-file> [--auto] [--prime-cap N]
               [--threads auto|off|N]
               (then add/remove/show/quit commands on stdin)
  ioenc serve  [--workers N] [--queue N] [--cache N|off] [--tcp PORT]
               [--http] [--cache-dir PATH] [--shards N]
  ioenc primes <constraints-file> [--cap N] [--threads auto|off|N]
  ioenc fsm    <kiss2-file> [--mixed] [--dc] [--assign]
  ioenc table  <constraints-file>
  ioenc minimize <pla-file>
  ioenc synth  <kiss2-file> [--json] [--run-dir PATH] [--stop-after STAGE]
               [--source input|dc|mixed] [--auto] [--heuristic] [--bits N]
               [--cost violations|cubes|literals] [--prime-cap N]
               [--max-primes N] [--max-nodes N] [--max-evals N]
               [--max-ps-steps N] [--max-espresso-iters N] [--deadline-ms T]
               [--no-presolve] [--oracle-cap N] [--nova-passes N]
               [--threads auto|off|N]
  ioenc synth gen-corpus <dir> [--seed N] [--count N] [--max-states N]
               [--adversarial N]
exit codes: 0 success, 2 parse, 3 io, 4 limit, 5 budget, 6 infeasible";

/// Positional-free flag helpers over a tail-of-argv slice.
struct Flags<'a> {
    rest: &'a [&'a String],
}

impl<'a> Flags<'a> {
    fn flag(&self, name: &str) -> bool {
        self.rest.iter().any(|a| *a == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.rest
            .iter()
            .position(|a| *a == name)
            .and_then(|i| self.rest.get(i + 1))
            .map(|s| s.as_str())
    }

    fn number(&self, name: &str) -> Result<Option<usize>, EncodeError> {
        match self.value(name) {
            Some(v) => v
                .parse::<usize>()
                .map_err(|e| EncodeError::parse(format!("{name} {v}: {e}")))
                .map(Some),
            None if self.flag(name) => Err(EncodeError::parse(format!("{name} requires a value"))),
            None => Ok(None),
        }
    }

    fn threads(&self) -> Result<Parallelism, EncodeError> {
        if self.flag("--threads") && self.value("--threads").is_none() {
            return Err(EncodeError::parse(
                "--threads requires a value (auto|off|N)",
            ));
        }
        Ok(match self.value("--threads") {
            None | Some("auto") => Parallelism::Auto,
            Some("off") => Parallelism::Off,
            Some(v) => {
                let n = v
                    .parse::<usize>()
                    .map_err(|e| EncodeError::parse(format!("--threads {v}: {e}")))?;
                if n == 0 {
                    return Err(EncodeError::limit("--threads must be positive (or 'off')"));
                }
                Parallelism::Fixed(n)
            }
        })
    }
}

fn run(args: &[String]) -> Result<ExitCode, EncodeError> {
    let mut it = args.iter();
    let cmd = it
        .next()
        .ok_or_else(|| EncodeError::parse("missing subcommand"))?;
    let tail: Vec<&String> = it.collect();

    if cmd == "serve" {
        return run_serve(&Flags { rest: &tail });
    }

    if cmd == "synth" {
        return run_synth(&tail);
    }

    if cmd == "lint" || cmd == "analyze" {
        let f = Flags { rest: &tail };
        if let Some(code) = f.value("--explain") {
            return run_explain(code);
        }
        if f.flag("--explain") {
            return Err(EncodeError::parse("--explain requires a diagnostic code"));
        }
    }

    let path = tail
        .first()
        .map(|s| s.as_str())
        .ok_or_else(|| EncodeError::parse("missing input file"))?;
    let rest = &tail[1..];
    let f = Flags { rest };
    let text = std::fs::read_to_string(path).map_err(|e| EncodeError::io(path, &e))?;

    match cmd.as_str() {
        "check" => {
            let cs = parse_constraints(&text)?;
            let r = check_feasible(&cs);
            println!(
                "{} initial encoding-dichotomies, {} valid after raising",
                r.initial.len(),
                r.raised.len()
            );
            if r.is_feasible() {
                println!("FEASIBLE");
            } else {
                println!("INFEASIBLE — uncovered initial encoding-dichotomies:");
                for d in &r.uncovered {
                    println!("  {}", d.display(&cs));
                }
                let report = lint(&cs, &LintOptions::new());
                print!("{}", report.render(&cs, Some(path)));
            }
            Ok(ExitCode::SUCCESS)
        }
        "lint" => {
            let cs = parse_constraints(&text)?;
            f.threads()?; // validated for CLI uniformity; the lint is single-threaded
            let report = lint(&cs, &LintOptions::new());
            if f.flag("--json") {
                print!("{}", report.render_json(&cs, Some(path)));
            } else {
                print!("{}", report.render(&cs, Some(path)));
            }
            Ok(if report.has_errors() || !report.feasible {
                // The infeasibility exit class, same as `encode`.
                ExitCode::from(EncodeError::infeasible(vec![]).exit_code())
            } else if f.flag("--deny-warnings") && report.warnings() > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "analyze" => run_analyze(&text),
        "canon" => {
            let cs = parse_constraints(&text)?;
            let form = canonical_form(&cs);
            println!("key: {}", form.key);
            print!("{}", form.text);
            Ok(ExitCode::SUCCESS)
        }
        "encode" => run_encode(&f, path, &text),
        "session" => run_session(&f, &text),
        "primes" => {
            let cs = parse_constraints(&text)?;
            let cap = f.number("--cap")?.unwrap_or(50_000);
            if cap == 0 {
                return Err(EncodeError::limit("--cap must be positive"));
            }
            let initial = initial_dichotomies(&cs, !cs.has_output_constraints());
            println!("{} initial encoding-dichotomies:", initial.len());
            for d in &initial {
                println!("  {}", d.display(&cs));
            }
            let (primes, stats) = generate_primes_with(&initial, cap, f.threads()?)?;
            println!("{} prime encoding-dichotomies:", primes.len());
            for p in &primes {
                println!("  {}", p.display(&cs));
            }
            eprintln!(
                "{} ps steps, peak {} terms, {} threads",
                stats.ps_steps, stats.peak_terms, stats.threads
            );
            Ok(ExitCode::SUCCESS)
        }
        "fsm" => {
            let fsm = Fsm::parse_kiss2(&text)?;
            println!("# {fsm}");
            if f.flag("--assign") {
                let strategy = if f.flag("--mixed") {
                    Strategy::ExactMixed(OutputProfile::default())
                } else {
                    Strategy::HeuristicInput(CostFunction::Cubes)
                };
                let a = assign_states(&fsm, &strategy)?;
                println!(
                    "# {} of {} face constraints satisfied; PLA {} cubes / {} literals",
                    a.satisfied.0, a.satisfied.1, a.pla_cost.0, a.pla_cost.1
                );
                print!("{}", a.encoding.display(&a.constraints));
                return Ok(ExitCode::SUCCESS);
            }
            let cs = if f.flag("--mixed") {
                mixed_constraints(&fsm, &OutputProfile::default())
            } else if f.flag("--dc") {
                input_constraints_with_dc(&fsm)
            } else {
                input_constraints(&fsm)
            };
            println!("symbols: {}", fsm.state_names().join(" "));
            print!("{cs}");
            Ok(ExitCode::SUCCESS)
        }
        "minimize" => {
            let pla = parse_pla_text(&text).map_err(EncodeError::parse)?;
            let m = pla.minimize();
            let (cubes, lits) = ioenc::espresso::summary(&m, pla.inputs());
            eprintln!("# minimized to {cubes} product terms, {lits} input literals");
            print!("{}", cover_to_pla_text(&m, &pla));
            Ok(ExitCode::SUCCESS)
        }
        "table" => {
            let cs = parse_constraints(&text)?;
            let form = BinateFormulation::build(&cs);
            println!("columns: {:?}", form.columns);
            print!("{}", form.display());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(EncodeError::parse(format!("unknown subcommand '{other}'"))),
    }
}

/// Builds the [`EncodeSpec`] from `encode` flags (shared by the plain and
/// `--json` output paths, so both solve the identical request).
fn encode_spec(f: &Flags<'_>) -> Result<EncodeSpec, EncodeError> {
    if f.flag("--auto") && f.flag("--heuristic") {
        return Err(EncodeError::limit(
            "--auto and --heuristic are mutually exclusive",
        ));
    }
    let bits = f.number("--bits")?;
    let mode = if f.flag("--auto") {
        Mode::Auto
    } else if f.flag("--heuristic") {
        let cost = match f.value("--cost").unwrap_or("violations") {
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
    } else {
        Mode::Exact {
            prime_cap: f.number("--prime-cap")?,
        }
    };
    let deadline_ms = f.number("--deadline-ms")?;
    if deadline_ms == Some(0) {
        return Err(EncodeError::limit("--deadline-ms must be positive"));
    }
    Ok(EncodeSpec {
        mode,
        max_primes: f.number("--max-primes")?,
        max_nodes: f.number("--max-nodes")?.map(|n| n as u64),
        max_evals: f.number("--max-evals")?.map(|n| n as u64),
        max_ps_steps: f.number("--max-ps-steps")?.map(|n| n as u64),
        deadline_ms: deadline_ms.map(|n| n as u64),
        parallelism: f.threads()?,
        presolve: !f.flag("--no-presolve"),
    })
}

/// `lint --explain CODE` / `analyze --explain CODE`: print the registry
/// entry for a stable diagnostic code. Unknown codes exit with the parse
/// class and list what exists.
fn run_explain(code: &str) -> Result<ExitCode, EncodeError> {
    use ioenc::core::lint::registry;
    match registry::explain(code) {
        Some(info) => {
            print!("{}", info.render());
            Ok(ExitCode::SUCCESS)
        }
        None => {
            let known: Vec<&str> = registry::all().iter().map(|i| i.code).collect();
            Err(EncodeError::parse(format!(
                "unknown diagnostic code '{code}' (known: {})",
                known.join(", ")
            )))
        }
    }
}

/// The `analyze` subcommand: run the semantic presolve with fact
/// collection on, print the rewrite log, the derived fact base and the
/// verdict — every line carrying its derivation trace — then re-check
/// every derivation with the independent trace checker.
fn run_analyze(text: &str) -> Result<ExitCode, EncodeError> {
    use ioenc::core::{
        presolve, verify_report, FactKind, PresolveOptions, PresolveVerdict, RewriteAction, Trace,
    };

    let cs = parse_constraints(text)?;
    let report = presolve(&cs, &PresolveOptions::new().with_collect_facts(true));
    let name = |s: usize| cs.name(s);
    let trace_str = |t: &Trace| {
        if t.premises.is_empty() {
            format!("[{}]", t.rule)
        } else {
            let prem: Vec<String> = t
                .premises
                .iter()
                .map(|r| format!("{} {}", r.kind(), r.index()))
                .collect();
            format!("[{}: {}]", t.rule, prem.join(", "))
        }
    };

    println!("{}", report.stats.render());
    if !report.rewrites.is_empty() {
        println!("rewrites:");
        for rw in &report.rewrites {
            match &rw.action {
                RewriteAction::Drop => println!(
                    "  drop {} {} `{}` {}",
                    rw.target.kind(),
                    rw.target.index(),
                    cs.describe(rw.target),
                    trace_str(&rw.trace)
                ),
                RewriteAction::ReplaceDisjunctiveChildren { children } => {
                    let kids: Vec<&str> = children.iter().map(|&c| name(c)).collect();
                    println!(
                        "  rewrite {} {} `{}` children -> {} {}",
                        rw.target.kind(),
                        rw.target.index(),
                        cs.describe(rw.target),
                        kids.join("|"),
                        trace_str(&rw.trace)
                    );
                }
            }
        }
    }
    if !report.facts.is_empty() {
        println!("facts:");
        for fact in &report.facts {
            let line = match &fact.kind {
                FactKind::Dominates { above, below } => {
                    format!("dominates {}>{}", name(*above), name(*below))
                }
                FactKind::ForcedEqual { class } => {
                    let syms: Vec<&str> = class.iter().map(|&s| name(s)).collect();
                    format!("forced-equal {}", syms.join("="))
                }
                FactKind::FaceIntersection { faces, shared } => {
                    let syms: Vec<&str> = shared.iter().map(|&s| name(s)).collect();
                    format!(
                        "face-intersection face {} ∩ face {} ⊇ ({})",
                        faces.0,
                        faces.1,
                        syms.join(",")
                    )
                }
                FactKind::SubsumedFace { face, by } => {
                    format!("subsumed-face face {face} ⊆ face {by}")
                }
            };
            println!("  {} {}", line, trace_str(&fact.trace));
        }
    }
    match &report.verdict {
        PresolveVerdict::Unknown => println!("verdict: unknown (presolve proves nothing)"),
        PresolveVerdict::ProvedInfeasible { trace } => {
            println!("verdict: proved infeasible {}", trace_str(trace));
        }
    }
    if report.changed() {
        println!("simplified set:");
        let names: Vec<&str> = (0..report.set.num_symbols())
            .map(|s| report.set.name(s))
            .collect();
        println!("symbols: {}", names.join(" "));
        print!("{}", report.set);
    }
    match verify_report(&cs, &report) {
        Ok(()) => {
            println!(
                "derivation check: ok ({} rewrites, {} facts)",
                report.rewrites.len(),
                report.facts.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Err(EncodeError::parse(format!("derivation check FAILED: {e}"))),
    }
}

fn run_encode(f: &Flags<'_>, path: &str, text: &str) -> Result<ExitCode, EncodeError> {
    let spec = encode_spec(f)?;
    let measure_fsm = match f.value("--measure") {
        Some(p) => {
            let kiss = std::fs::read_to_string(p).map_err(|e| EncodeError::io(p, &e))?;
            Some(Fsm::parse_kiss2(&kiss)?)
        }
        None if f.flag("--measure") => {
            return Err(EncodeError::parse("--measure requires a KISS2 file"))
        }
        None => None,
    };
    if f.flag("--json") {
        // The same pipeline `serve` workers run; parse errors land in the
        // JSON too, so scripted callers never have to scrape stderr.
        let out = outcome(text, &spec, None, None);
        match &measure_fsm {
            Some(fsm) if out.exit_code == 0 => {
                println!("{}", attach_implementation(&out.json, fsm)?);
            }
            _ => println!("{}", out.json),
        }
        return Ok(ExitCode::from(out.exit_code));
    }
    let cs = parse_constraints(text)?;
    let form = canonical_form(&cs);
    let r = match solve_fresh(&cs, &form, &spec, None) {
        Ok(r) => r,
        Err(e) => return fail_with_explanation(&cs, path, e),
    };
    match &r.mode {
        ModeOutcome::Exact { optimal } => println!(
            "exact minimum-length encoding, {} bits ({} primes{}):",
            r.encoding.width(),
            r.work.num_primes,
            if *optimal { "" } else { ", node limit hit" }
        ),
        ModeOutcome::Heuristic { .. } => {
            let cost = match &spec.mode {
                Mode::Heuristic { cost, .. } => *cost,
                _ => CostFunction::Violations,
            };
            println!(
                "heuristic encoding, {} bits, cost = {}:",
                r.encoding.width(),
                ioenc::core::cost_of(&cs, &r.encoding, cost)
            );
        }
        ModeOutcome::Auto { rung, optimal } => println!(
            "{} encoding, {} bits{}:",
            rung,
            r.encoding.width(),
            if *optimal { " (minimum length)" } else { "" }
        ),
    }
    print!("{}", r.encoding.display(&cs));
    if let Some(fsm) = &measure_fsm {
        let codes: Vec<(String, u64)> = (0..cs.num_symbols())
            .map(|s| (cs.name(s).to_string(), r.encoding.code(s)))
            .collect();
        let (cubes, lits) = measure_implementation(fsm, r.encoding.width(), &codes)?;
        println!("implementation: {cubes} product terms, {lits} input literals");
    }
    for note in &r.notes {
        eprintln!("{note}");
    }
    if let Some(stats) = &r.stats_text {
        eprintln!("{stats}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The `session` subcommand: an incremental edit/re-solve loop. The
/// constraint file seeds the session; one command per stdin line then
/// edits it:
///
/// ```text
/// add <constraint-line>      add a constraint and re-solve
/// remove <constraint-line>   remove the matching constraint, re-solve
/// show                       print the current constraint set
/// quit                       exit (EOF works too)
/// ```
///
/// Each solve prints the encoding to stdout (same bytes as a fresh
/// `ioenc encode` solve of the current set — the incremental path is
/// bit-identical by construction) and the reuse accounting to stderr.
/// Edit errors (bad line, unmatched removal, infeasible set) are
/// reported on stderr and the loop continues — for an infeasible set the
/// offending edit stays committed, so `remove` can repair it.
fn run_session(f: &Flags<'_>, text: &str) -> Result<ExitCode, EncodeError> {
    use ioenc::core::{Delta, Session, Solver, SolverMode};

    let cs = parse_constraints(text)?;
    let mut solver = Solver::new()
        .mode(if f.flag("--auto") {
            SolverMode::Auto
        } else {
            SolverMode::Exact
        })
        .threads(f.threads()?);
    if let Some(cap) = f.number("--prime-cap")? {
        if cap == 0 {
            return Err(EncodeError::limit("--prime-cap must be positive"));
        }
        solver = solver.prime_cap(cap);
    }
    let mut session = Session::open(cs).with_solver(solver);

    let report = |session: &mut Session, delta: &Delta| match session.apply(delta) {
        Ok(out) => {
            println!("{} bits:", out.solution.encoding.width());
            print!("{}", out.solution.encoding.display(session.constraints()));
            if out.reuse.incremental {
                eprintln!(
                    "incremental: {} raises reused, {} recomputed, {} fresh; {} prime cliques{}",
                    out.reuse.raises_reused,
                    out.reuse.raises_recomputed,
                    out.reuse.raises_fresh,
                    out.reuse.cliques,
                    if out.reuse.cover_replayed {
                        "; cover replayed"
                    } else {
                        ""
                    }
                );
            } else {
                eprintln!("solved from scratch");
            }
        }
        Err(e) => eprintln!("error: {e}"),
    };
    report(&mut session, &Delta::new());

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let cmd = line.trim();
        if cmd.is_empty() {
            continue;
        }
        if cmd == "quit" || cmd == "exit" {
            break;
        }
        if cmd == "show" {
            let cs = session.constraints();
            let names: Vec<&str> = (0..cs.num_symbols()).map(|s| cs.name(s)).collect();
            println!("symbols: {}", names.join(" "));
            print!("{cs}");
            continue;
        }
        if let Some(rest) = cmd.strip_prefix("add ") {
            report(&mut session, &Delta::new().add(rest));
        } else if let Some(rest) = cmd.strip_prefix("remove ") {
            report(&mut session, &Delta::new().remove(rest));
        } else {
            eprintln!("error: unknown session command '{cmd}' (add/remove/show/quit)");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Builds [`SynthOptions`] from the `synth` flags.
fn synth_opts(f: &Flags<'_>) -> Result<SynthOptions, EncodeError> {
    let source = match f.value("--source") {
        None if f.flag("--source") => {
            return Err(EncodeError::parse(
                "--source requires a value (input|dc|mixed)",
            ))
        }
        None | Some("mixed") => ConstraintSource::Mixed(OutputProfile::default()),
        Some("input") => ConstraintSource::Input,
        Some("dc") => ConstraintSource::InputDc,
        Some(other) => {
            return Err(EncodeError::parse(format!(
                "unknown constraint source '{other}' (input|dc|mixed)"
            )))
        }
    };
    if f.flag("--auto") && f.flag("--heuristic") {
        return Err(EncodeError::limit(
            "--auto and --heuristic are mutually exclusive",
        ));
    }
    let mode = if f.flag("--auto") {
        SynthMode::Auto
    } else if f.flag("--heuristic") {
        let cost = match f.value("--cost").unwrap_or("violations") {
            "violations" => CostFunction::Violations,
            "cubes" => CostFunction::Cubes,
            "literals" => CostFunction::Literals,
            other => {
                return Err(EncodeError::parse(format!(
                    "unknown cost function '{other}'"
                )))
            }
        };
        SynthMode::Heuristic {
            bits: f.number("--bits")?,
            cost,
        }
    } else {
        SynthMode::Exact {
            prime_cap: f.number("--prime-cap")?,
        }
    };
    let mut budget = ioenc::core::Budget::unlimited();
    if let Some(n) = f.number("--max-primes")? {
        budget = budget.with_max_primes(n);
    }
    if let Some(n) = f.number("--max-nodes")? {
        budget = budget.with_max_cover_nodes(n as u64);
    }
    if let Some(n) = f.number("--max-evals")? {
        budget = budget.with_max_evals(n as u64);
    }
    if let Some(n) = f.number("--max-ps-steps")? {
        budget = budget.with_max_ps_steps(n as u64);
    }
    if let Some(n) = f.number("--max-espresso-iters")? {
        budget = budget.with_max_espresso_iters(n as u64);
    }
    if let Some(ms) = f.number("--deadline-ms")? {
        if ms == 0 {
            return Err(EncodeError::limit("--deadline-ms must be positive"));
        }
        budget = budget.with_deadline(std::time::Duration::from_millis(ms as u64));
    }
    let defaults = SynthOptions::default();
    let run_dir = match f.value("--run-dir") {
        Some(dir) => Some(std::path::PathBuf::from(dir)),
        None if f.flag("--run-dir") => return Err(EncodeError::parse("--run-dir requires a path")),
        None => None,
    };
    let stop_after = match f.value("--stop-after") {
        Some(name) => Some(Stage::from_name(name).ok_or_else(|| {
            EncodeError::parse(format!(
                "unknown stage '{name}' (parse|minimize|extract|encode|verify|realize|measure)"
            ))
        })?),
        None if f.flag("--stop-after") => {
            return Err(EncodeError::parse("--stop-after requires a stage name"))
        }
        None => None,
    };
    Ok(SynthOptions {
        source,
        mode,
        budget,
        threads: f.threads()?,
        presolve: !f.flag("--no-presolve"),
        oracle_cap: f.number("--oracle-cap")?.unwrap_or(defaults.oracle_cap),
        nova_passes: f.number("--nova-passes")?.unwrap_or(defaults.nova_passes),
        run_dir,
        stop_after,
    })
}

/// The `synth` subcommand: the end-to-end resumable pipeline, or the
/// `gen-corpus` scenario-corpus builder. The deterministic result goes to
/// stdout; per-stage timings, resume flags and work units go to stderr,
/// so resumed runs stay byte-identical on stdout.
fn run_synth(tail: &[&String]) -> Result<ExitCode, EncodeError> {
    let first = tail
        .first()
        .map(|s| s.as_str())
        .ok_or_else(|| EncodeError::parse("synth needs a KISS2 file or 'gen-corpus'"))?;

    if first == "gen-corpus" {
        let dir = tail
            .get(1)
            .map(|s| s.as_str())
            .filter(|s| !s.starts_with("--"))
            .ok_or_else(|| EncodeError::parse("gen-corpus needs an output directory"))?;
        let f = Flags { rest: &tail[2..] };
        let mut opts = CorpusOptions::default();
        if let Some(seed) = f.number("--seed")? {
            opts.seed = seed as u64;
        }
        if let Some(count) = f.number("--count")? {
            opts.count = count;
        }
        if let Some(max) = f.number("--max-states")? {
            if max < 4 {
                return Err(EncodeError::limit("--max-states must be at least 4"));
            }
            opts.max_states = max;
        }
        if let Some(adv) = f.number("--adversarial")? {
            opts.adversarial = adv;
        }
        let n = write_corpus(std::path::Path::new(dir), &opts)?;
        println!("wrote {n} files + MANIFEST.txt to {dir}");
        return Ok(ExitCode::SUCCESS);
    }

    let f = Flags { rest: &tail[1..] };
    let text = std::fs::read_to_string(first).map_err(|e| EncodeError::io(first, &e))?;
    let opts = synth_opts(&f)?;
    match synth(&text, &opts) {
        Ok(SynthRun::Complete(out)) => {
            if f.flag("--json") {
                println!("{}", out.render_json());
            } else {
                print!("{}", out.render());
            }
            for s in &out.stages {
                eprintln!(
                    "stage {:<8} {:>10.3} ms{}",
                    s.stage,
                    s.nanos as f64 / 1e6,
                    if s.resumed { "  (resumed)" } else { "" }
                );
            }
            eprintln!("run {}", out.key);
            Ok(ExitCode::SUCCESS)
        }
        Ok(SynthRun::Stopped { after, key, stages }) => {
            for s in &stages {
                eprintln!(
                    "stage {:<8} {:>10.3} ms{}",
                    s.stage,
                    s.nanos as f64 / 1e6,
                    if s.resumed { "  (resumed)" } else { "" }
                );
            }
            eprintln!("stopped after stage {after}; artifacts under run {key}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            if f.flag("--json") {
                println!("{}", failure_json(&e));
            } else {
                eprintln!("error: {e}");
            }
            Ok(ExitCode::from(e.exit_code()))
        }
    }
}

fn run_serve(f: &Flags<'_>) -> Result<ExitCode, EncodeError> {
    let workers = f.number("--workers")?.unwrap_or(4);
    if workers == 0 {
        return Err(EncodeError::limit("--workers must be positive"));
    }
    let queue = f.number("--queue")?.unwrap_or(64);
    if queue == 0 {
        return Err(EncodeError::limit("--queue must be positive"));
    }
    let cache = match f.value("--cache") {
        None if f.flag("--cache") => {
            return Err(EncodeError::parse("--cache requires a value (N or 'off')"))
        }
        None => 1024,
        Some("off") => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|e| EncodeError::parse(format!("--cache {v}: {e}")))?,
    };
    let mut opts = ServeOptions::new()
        .with_workers(workers)
        .with_queue_capacity(queue)
        .with_cache_entries(cache)
        .with_http(f.flag("--http"));
    if let Some(dir) = f.value("--cache-dir") {
        if cache == 0 {
            return Err(EncodeError::parse(
                "--cache-dir needs the cache enabled; drop '--cache off'",
            ));
        }
        opts = opts.with_cache_dir(dir);
    } else if f.flag("--cache-dir") {
        return Err(EncodeError::parse("--cache-dir requires a path"));
    }
    if let Some(v) = f.value("--shards") {
        let shards = v
            .parse::<u32>()
            .map_err(|e| EncodeError::parse(format!("--shards {v}: {e}")))?;
        if shards == 0 || shards > 256 {
            return Err(EncodeError::limit("--shards must be between 1 and 256"));
        }
        opts = opts.with_cache_shards(shards);
    } else if f.flag("--shards") {
        return Err(EncodeError::parse("--shards requires a count"));
    }
    if f.flag("--http") && !f.flag("--tcp") {
        return Err(EncodeError::parse("--http requires --tcp PORT"));
    }
    let served = if f.flag("--tcp") {
        let port = match f.value("--tcp") {
            Some(v) => v
                .parse::<u16>()
                .map_err(|e| EncodeError::parse(format!("--tcp {v}: {e}")))?,
            None => return Err(EncodeError::parse("--tcp requires a port (0 = ephemeral)")),
        };
        serve_tcp(&opts, port)
    } else {
        serve_stdio(&opts)
    };
    served.map_err(|e| EncodeError::io("serve", &e))?;
    Ok(ExitCode::SUCCESS)
}

/// Prints the lint explanation attached to an infeasible encode failure
/// (stderr) and turns it into the infeasibility exit code, skipping the
/// usage blurb. Errors without an explanation propagate unchanged.
fn fail_with_explanation(
    cs: &ConstraintSet,
    origin: &str,
    e: EncodeError,
) -> Result<ExitCode, EncodeError> {
    match e {
        EncodeError::Infeasible {
            ref uncovered,
            explanation: Some(ref report),
        } => {
            eprintln!(
                "error: constraints are unsatisfiable ({} uncovered initial dichotomies)",
                uncovered.len()
            );
            eprint!("{}", report.render(cs, Some(origin)));
            Ok(ExitCode::from(e.exit_code()))
        }
        other => Err(other),
    }
}

/// Minimizes the FSM realized under the given `(state name, code)` map
/// and returns `(product terms, input literals)` — the `--measure` cost.
fn measure_implementation(
    fsm: &Fsm,
    width: usize,
    codes: &[(String, u64)],
) -> Result<(usize, usize), EncodeError> {
    if codes.len() != fsm.num_states() {
        return Err(EncodeError::limit(format!(
            "--measure: {} constraint symbols but the FSM has {} states",
            codes.len(),
            fsm.num_states()
        )));
    }
    if width > 24 {
        return Err(EncodeError::limit(
            "--measure: state codes wider than 24 bits are unsupported",
        ));
    }
    let mut ordered = Vec::with_capacity(codes.len());
    for name in fsm.state_names() {
        let code = codes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .ok_or_else(|| {
                EncodeError::limit(format!("--measure: FSM state '{name}' has no code"))
            })?;
        ordered.push(code);
    }
    Ok(ioenc::symbolic::measure_encoded(
        fsm,
        &ioenc::core::Encoding::new(width, ordered),
    ))
}

/// Re-renders an `encode --json` success line with an `implementation`
/// field: the minimized encoded-PLA cost of realizing the FSM under the
/// returned codes.
fn attach_implementation(json: &str, fsm: &Fsm) -> Result<String, EncodeError> {
    use ioenc::core::json::Json;
    let v = Json::parse(json).map_err(EncodeError::parse)?;
    let width = v
        .get("width")
        .and_then(Json::as_u64)
        .ok_or_else(|| EncodeError::parse("--measure: result JSON has no width"))?
        as usize;
    let entries = v
        .get("codes")
        .and_then(Json::as_arr)
        .ok_or_else(|| EncodeError::parse("--measure: result JSON has no codes"))?;
    let mut codes = Vec::with_capacity(entries.len());
    for entry in entries {
        let symbol = entry
            .get("symbol")
            .and_then(Json::as_str)
            .ok_or_else(|| EncodeError::parse("--measure: code entry has no symbol"))?;
        let bits = entry
            .get("code")
            .and_then(Json::as_str)
            .ok_or_else(|| EncodeError::parse("--measure: code entry has no code"))?;
        let code = u64::from_str_radix(bits, 2)
            .map_err(|e| EncodeError::parse(format!("--measure: bad code '{bits}': {e}")))?;
        codes.push((symbol.to_string(), code));
    }
    let (cubes, lits) = measure_implementation(fsm, width, &codes)?;
    Ok(v.field(
        "implementation",
        Json::obj()
            .field("cubes", cubes as u64)
            .field("literals", lits as u64),
    )
    .render())
}

/// Parses the `symbols:`-headed constraint file format (shared with the
/// `serve` request pipeline so both report identical parse errors).
fn parse_constraints(text: &str) -> Result<ConstraintSet, EncodeError> {
    ioenc::server::parse_constraint_text(text)
}
