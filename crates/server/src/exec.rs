//! The shared encode pipeline: parse → canonicalize → solve → restore →
//! render.
//!
//! Both `ioenc encode --json` and every `serve` worker run [`outcome`],
//! so their bytes agree by construction. The pipeline always solves the
//! *canonical* form of the request (see [`canonical_form`]) and restores
//! the codes to the caller's symbol order afterwards; that is what makes
//! a cache hit for a symbol-permuted duplicate byte-identical to the
//! fresh solve the permuted spelling would have gotten on its own.
//!
//! Determinism contract: the rendered JSON contains only
//! schedule-independent data — symbol names, codes, [`WorkUnits`], mode
//! detail and the canonical key. Wall-clock timings and thread counts
//! stay on stderr (the CLI's human output), never in the JSON.

use crate::cache::{CachedOutcome, ResultCache};
use ioenc_core::json::Json;
use ioenc_core::lint::{lint, LintOptions};
use ioenc_core::{
    canonical_form, check_feasible, presolve, Budget, CancelToken, CanonicalForm, ConstraintSet,
    CostFunction, EncodeError, Encoding, Parallelism, PresolveOptions, PresolveStats,
    PresolveVerdict, Solution, SolutionDetail, Solver, SolverMode, SolverStats, WorkUnits,
    PRESOLVE_VERSION,
};

/// Which solver answers the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Exact minimum-length encoding (Theorem 6.2).
    Exact {
        /// Prime-generation cap (`--prime-cap`); `None` for the default.
        prime_cap: Option<usize>,
    },
    /// Bounded-length heuristic encoding (Section 7.1).
    Heuristic {
        /// Code length (`--bits`); `None` lets the heuristic pick.
        bits: Option<usize>,
        /// The cost function to minimize.
        cost: CostFunction,
    },
    /// The exact → bounded → heuristic degradation ladder
    /// ([`SolverMode::Auto`]); requires at least one budget.
    Auto,
}

/// A fully-resolved encode request: mode, budgets and parallelism.
///
/// The JSON outcome is independent of `parallelism` (and of whether a
/// deadline fired between identical runs is the *caller's* concern —
/// deadline-budgeted requests bypass the result cache entirely).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeSpec {
    /// Solver mode.
    pub mode: Mode,
    /// `--max-primes`: cap on prime encoding-dichotomies.
    pub max_primes: Option<usize>,
    /// `--max-nodes`: cap on covering branch-and-bound nodes.
    pub max_nodes: Option<u64>,
    /// `--max-evals`: cap on cost-function evaluations.
    pub max_evals: Option<u64>,
    /// `--max-ps-steps`: cap on prime-generation `ps` steps.
    pub max_ps_steps: Option<u64>,
    /// `--deadline-ms`: wall-clock deadline. Disables caching.
    pub deadline_ms: Option<u64>,
    /// Worker parallelism for the solve (not part of the fingerprint:
    /// results are bit-identical across thread counts).
    pub parallelism: Parallelism,
    /// Whether the semantic presolve stage runs (`--no-presolve` turns it
    /// off). Part of the fingerprint: the simplified set can admit a
    /// different (equally valid) minimum encoding than the original.
    pub presolve: bool,
}

impl Default for EncodeSpec {
    fn default() -> Self {
        EncodeSpec {
            mode: Mode::Exact { prime_cap: None },
            max_primes: None,
            max_nodes: None,
            max_evals: None,
            max_ps_steps: None,
            deadline_ms: None,
            parallelism: Parallelism::Off,
            presolve: true,
        }
    }
}

/// The NDJSON protocol version this server speaks. Every response carries
/// it as a top-level `"v"` field; requests may pin it with their own `"v"`
/// and are rejected with a typed `protocol` error on a mismatch.
pub const PROTOCOL_VERSION: u64 = 1;

fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    }
}

/// The lowercase name of a cost function (stable; used in fingerprints
/// and request parsing).
pub fn cost_label(cost: CostFunction) -> &'static str {
    match cost {
        CostFunction::Violations => "violations",
        CostFunction::Cubes => "cubes",
        CostFunction::Literals => "literals",
    }
}

impl EncodeSpec {
    /// The deterministic cache fingerprint: the protocol version, the
    /// mode, and every budget knob that can change the result. The
    /// version prefix keeps entries written by one protocol generation
    /// from answering another's requests across an upgrade. The deadline
    /// is deliberately absent — deadline-budgeted requests never consult
    /// the cache (see [`EncodeSpec::cacheable`]) — and so is
    /// `parallelism`, because results are bit-identical across thread
    /// counts.
    pub fn fingerprint(&self) -> String {
        let mode = match &self.mode {
            Mode::Exact { prime_cap } => format!("exact:cap={}", opt(prime_cap)),
            Mode::Heuristic { bits, cost } => {
                format!("heuristic:bits={}:cost={}", opt(bits), cost_label(*cost))
            }
            Mode::Auto => "auto".to_string(),
        };
        let presolve = if self.presolve {
            format!("v{PRESOLVE_VERSION}")
        } else {
            "off".to_string()
        };
        format!(
            "v{PROTOCOL_VERSION};{mode};primes={};nodes={};evals={};ps={};presolve={presolve}",
            opt(&self.max_primes),
            opt(&self.max_nodes),
            opt(&self.max_evals),
            opt(&self.max_ps_steps),
        )
    }

    /// Whether this request's outcome may be stored in / served from the
    /// result cache: work-unit budgets are deterministic, a wall-clock
    /// deadline is not.
    pub fn cacheable(&self) -> bool {
        self.deadline_ms.is_none()
    }

    /// Builds the per-request [`Budget`] and reports whether any limit
    /// was set (auto mode requires one).
    fn budget(&self, cancel: Option<&CancelToken>) -> (Budget, bool) {
        let mut budget = Budget::unlimited();
        let mut any = false;
        if let Some(n) = self.max_primes {
            budget = budget.with_max_primes(n);
            any = true;
        }
        if let Some(n) = self.max_nodes {
            budget = budget.with_max_cover_nodes(n);
            any = true;
        }
        if let Some(n) = self.max_evals {
            budget = budget.with_max_evals(n);
            any = true;
        }
        if let Some(n) = self.max_ps_steps {
            budget = budget.with_max_ps_steps(n);
            any = true;
        }
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline(std::time::Duration::from_millis(ms));
            any = true;
        }
        if let Some(token) = cancel {
            budget = budget.with_cancel(token.clone());
        }
        (budget, any)
    }

    /// Builds the [`Solver`] this spec describes — shared by the one-shot
    /// pipeline and the session registry, so both solve identically.
    ///
    /// # Errors
    ///
    /// [`EncodeError::Limit`] for a zero prime cap or a budget-less auto
    /// request.
    pub fn solver(&self, cancel: Option<&CancelToken>) -> Result<Solver, EncodeError> {
        let (budget, any_budget) = self.budget(cancel);
        let mut solver = Solver::new()
            .threads(self.parallelism)
            .budget(budget)
            .presolve(self.presolve);
        match &self.mode {
            Mode::Exact { prime_cap } => {
                if let Some(cap) = prime_cap {
                    if *cap == 0 {
                        return Err(EncodeError::limit("--prime-cap must be positive"));
                    }
                    solver = solver.prime_cap(*cap);
                }
                Ok(solver.mode(SolverMode::Exact))
            }
            Mode::Heuristic { bits, cost } => {
                solver = solver.cost(*cost);
                if let Some(bits) = bits {
                    solver = solver.code_length(*bits);
                }
                Ok(solver.mode(SolverMode::Heuristic))
            }
            Mode::Auto => {
                if !any_budget {
                    return Err(EncodeError::limit(
                        "--auto needs at least one budget: --max-primes, --max-nodes, \
                         --max-evals, --max-ps-steps or --deadline-ms",
                    ));
                }
                Ok(solver.mode(SolverMode::Auto))
            }
        }
    }
}

/// Mode-specific result detail, stable across cache hits and fresh
/// solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModeOutcome {
    /// Exact pipeline result.
    Exact {
        /// Proven minimum length (false when the node limit was hit).
        optimal: bool,
    },
    /// Heuristic result.
    Heuristic {
        /// Whether the split/merge/select search reached its fixpoint.
        converged: bool,
    },
    /// Degradation-ladder result.
    Auto {
        /// The rung that answered (`"exact"`, `"bounded exact"`,
        /// `"heuristic"`).
        rung: String,
        /// Proven minimum length.
        optimal: bool,
    },
}

/// A solved request: the encoding in the *original* symbol order plus
/// everything needed to render both the JSON outcome and the CLI's
/// human-readable output.
#[derive(Debug, Clone)]
pub struct EncodeResult {
    /// The verified encoding, original symbol order.
    pub encoding: Encoding,
    /// Mode detail (`optimal` / `converged` / rung).
    pub mode: ModeOutcome,
    /// Deterministic work counters (the only stats that reach the JSON).
    pub work: WorkUnits,
    /// Whether the result came from the cache.
    pub from_cache: bool,
    /// Full stats render for stderr (`None` on cache hits).
    pub stats_text: Option<String>,
    /// Human diagnostics for stderr (auto-rung attempts; empty on hits).
    pub notes: Vec<String>,
}

/// Parses the `symbols:`-headed constraint file format. The header line
/// is replaced by a blank line (not removed) so that the spans the parser
/// attaches keep pointing at the original text's line numbers.
pub fn parse_constraint_text(text: &str) -> Result<ConstraintSet, EncodeError> {
    let mut names: Option<Vec<&str>> = None;
    let mut body = String::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix("symbols:") {
            if names.is_none() {
                names = Some(rest.split_whitespace().collect());
                body.push('\n');
                continue;
            }
        }
        body.push_str(line);
        body.push('\n');
    }
    let names = names.ok_or_else(|| EncodeError::parse("missing 'symbols: …' header line"))?;
    ConstraintSet::parse(&names, &body)
}

/// Rebuilds an infeasibility error against the *original* constraint
/// set, so the attached lint report's constraint references and source
/// spans point at the caller's spelling rather than the canonical one.
fn original_infeasible(cs: &ConstraintSet) -> EncodeError {
    let feas = check_feasible(cs);
    let report = lint(cs, &LintOptions::new());
    EncodeError::Infeasible {
        uncovered: feas.uncovered,
        explanation: Some(Box::new(report)),
    }
}

/// One solver run: the encoding plus everything the response renders.
struct ModeRun {
    encoding: Encoding,
    mode: ModeOutcome,
    stats: SolverStats,
    notes: Vec<String>,
    presolve: Option<PresolveStats>,
}

/// Runs the requested solver on `set` (which may be the canonical set or,
/// on the verify-fallback path, the original one).
fn run_mode(
    set: &ConstraintSet,
    spec: &EncodeSpec,
    cancel: Option<&CancelToken>,
) -> Result<ModeRun, EncodeError> {
    let solver = spec.solver(cancel)?;
    let Solution {
        encoding,
        stats,
        detail,
        presolve,
    } = solver.solve(set)?;
    let (mode, notes) = match detail {
        SolutionDetail::Exact { optimal } => (ModeOutcome::Exact { optimal }, Vec::new()),
        SolutionDetail::Heuristic { converged } => {
            (ModeOutcome::Heuristic { converged }, Vec::new())
        }
        SolutionDetail::Bounded { .. } => {
            // The spec grammar never selects bounded mode directly; it only
            // runs as an auto-ladder rung.
            return Err(EncodeError::limit("bounded mode is not a serve mode"));
        }
        SolutionDetail::Auto {
            rung,
            optimal,
            attempts,
            reused_raised,
        } => {
            let mut notes = Vec::new();
            for a in &attempts {
                match &a.error {
                    Some(e) => notes.push(format!("{} rung fell short: {e}", a.rung)),
                    None => notes.push(format!(
                        "{} rung fell short: best encoding still violated constraints",
                        a.rung
                    )),
                }
            }
            if reused_raised {
                notes.push("fallback reused the exact rung's raised dichotomies".to_string());
            }
            (
                ModeOutcome::Auto {
                    rung: rung.to_string(),
                    optimal,
                },
                notes,
            )
        }
    };
    Ok(ModeRun {
        encoding,
        mode,
        stats,
        notes,
        presolve,
    })
}

/// Joins the optional presolve line with the solver stats render for the
/// stderr `--stats` output.
fn render_stats(pre: Option<&PresolveStats>, stats: &SolverStats) -> String {
    match pre {
        Some(p) => format!("{}\n{}", p.render(), stats.render()),
        None => stats.render(),
    }
}

/// Solves `cs` without consulting any cache: solve the canonical set,
/// restore the codes to the original symbol order, and verify them
/// against the original set. If the restored encoding somehow violates
/// the original constraints (a canonicalization bug), the request is
/// re-solved directly on the original set — slower, never wrong. An
/// infeasibility verdict is always rebuilt against the original set so
/// lint spans point at the caller's constraints.
pub fn solve_fresh(
    cs: &ConstraintSet,
    form: &CanonicalForm,
    spec: &EncodeSpec,
    cancel: Option<&CancelToken>,
) -> Result<EncodeResult, EncodeError> {
    let run = run_mode(&form.set, spec, cancel).map_err(|e| match e {
        EncodeError::Infeasible { .. } => original_infeasible(cs),
        other => other,
    })?;
    let restored = form.restore_encoding(&run.encoding);
    if restored.verify(cs).is_empty() {
        return Ok(EncodeResult {
            encoding: restored,
            mode: run.mode,
            work: run.stats.work_units(),
            from_cache: false,
            stats_text: Some(render_stats(run.presolve.as_ref(), &run.stats)),
            notes: run.notes,
        });
    }
    // Canonicalization bug: fall back to solving the original set.
    let run = run_mode(cs, spec, cancel)?;
    Ok(EncodeResult {
        encoding: run.encoding,
        mode: run.mode,
        work: run.stats.work_units(),
        from_cache: false,
        stats_text: Some(render_stats(run.presolve.as_ref(), &run.stats)),
        notes: run.notes,
    })
}

pub(crate) fn work_units_json(w: &WorkUnits) -> Json {
    Json::obj()
        .field("num_initial", w.num_initial)
        .field("num_primes", w.num_primes)
        .field("raise_attempts", w.raise_attempts)
        .field("evals", w.evals)
        .field("espresso_iters", w.espresso_iters)
        .field("ps_steps", w.ps_steps)
        .field("peak_terms", w.peak_terms)
        .field("cover_nodes", w.cover_nodes)
        .field("cover_prunes", w.cover_prunes)
        .field("cover_tasks", w.cover_tasks)
}

/// The success JSON for a solved request: `ok`, canonical `key`, mode
/// detail, `width`, per-symbol `codes` (binary strings, original symbol
/// order) and the deterministic work-unit `stats`.
pub fn result_json(cs: &ConstraintSet, form: &CanonicalForm, r: &EncodeResult) -> Json {
    let mut obj = Json::obj()
        .field("ok", true)
        .field("key", form.key.to_string());
    obj = match &r.mode {
        ModeOutcome::Exact { optimal } => obj.field("mode", "exact").field("optimal", *optimal),
        ModeOutcome::Heuristic { converged } => obj
            .field("mode", "heuristic")
            .field("converged", *converged),
        ModeOutcome::Auto { rung, optimal } => obj
            .field("mode", "auto")
            .field("rung", rung.as_str())
            .field("optimal", *optimal),
    };
    let width = r.encoding.width();
    let codes: Vec<Json> = (0..cs.num_symbols())
        .map(|s| {
            Json::obj()
                .field("symbol", cs.name(s))
                .field("code", format!("{:0width$b}", r.encoding.codes()[s]))
        })
        .collect();
    obj.field("width", width)
        .field("codes", codes)
        .field("stats", work_units_json(&r.work))
}

/// The failure JSON for a typed error: class, exit code, message and —
/// for infeasibility with an attached explanation — the embedded lint
/// report (origin-less, so serve and CLI bytes agree).
pub fn failure_json(err: &EncodeError, lint_cs: Option<&ConstraintSet>) -> Json {
    let mut e = Json::obj()
        .field("class", err.class())
        .field("exit_code", u64::from(err.exit_code()))
        .field("message", err.to_string());
    if let (
        EncodeError::Infeasible {
            explanation: Some(report),
            ..
        },
        Some(cs),
    ) = (err, lint_cs)
    {
        e = e.field("lint", report.to_json(cs, None));
    }
    Json::obj().field("ok", false).field("error", e)
}

/// The typed `internal` failure answered for a request whose solve
/// panicked: the request is abandoned and the worker keeps serving.
pub(crate) fn panic_json() -> Json {
    Json::obj().field("ok", false).field(
        "error",
        Json::obj()
            .field("class", "internal")
            .field("message", "worker panicked; request abandoned"),
    )
}

/// A rendered outcome: one line of compact JSON (no trailing newline)
/// plus the exit code the CLI uses for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Compact JSON, exactly the `result` object of a serve response and
    /// exactly the stdout line of `ioenc encode --json`.
    pub json: String,
    /// `0` on success, otherwise [`EncodeError::exit_code`].
    pub exit_code: u8,
}

/// The full request pipeline: parse, canonicalize, consult the cache,
/// solve, render. `cache` is consulted and filled only for
/// [`cacheable`](EncodeSpec::cacheable) requests, and never after
/// `cancel` has fired (a cancelled solve's partial outcome must not be
/// replayed). The returned JSON is byte-identical across worker counts,
/// cache states and symbol-permuted duplicate inputs.
pub fn outcome(
    text: &str,
    spec: &EncodeSpec,
    cache: Option<&ResultCache>,
    cancel: Option<&CancelToken>,
) -> Outcome {
    let cs = match parse_constraint_text(text) {
        Ok(cs) => cs,
        Err(e) => {
            return Outcome {
                json: failure_json(&e, None).render(),
                exit_code: e.exit_code(),
            }
        }
    };
    // Presolve before canonicalization so that inputs differing only in
    // redundant constraints collapse to the same cache key. Restricted to
    // the modes where the solver itself would presolve, and skipped on a
    // ProvedInfeasible verdict — the failure path lints the original set
    // and the canonical key must then describe that set. Presolve is
    // idempotent, so the solver's own pass over the canonical set is a
    // no-op rewrite-wise.
    let pre_simplified = if spec.presolve && matches!(spec.mode, Mode::Exact { .. } | Mode::Auto) {
        let report = presolve(&cs, &PresolveOptions::new());
        match report.verdict {
            PresolveVerdict::Unknown if report.changed() => Some(report.set),
            _ => None,
        }
    } else {
        None
    };
    let form = canonical_form(pre_simplified.as_ref().unwrap_or(&cs));
    let fingerprint = spec.fingerprint();
    let raw_hash = ioenc_rng::seed_from_str(text);
    let cache = cache.filter(|_| spec.cacheable());

    // Held (when the cache has a disk tier) from just before the solve
    // until the outcome is inserted, so that processes sharing the cache
    // directory solve each (key, fingerprint) exactly once.
    let mut _solve_guard = None;
    if let Some(store) = cache {
        if let Some(hit) = replay_hit(store, &cs, &form, &fingerprint, raw_hash) {
            return hit;
        }
        _solve_guard = store.begin_solve(form.key.as_u128(), &fingerprint);
        if _solve_guard.is_some() {
            // We may have blocked behind another process solving this
            // very key; its record is on disk now if so.
            if let Some(hit) = replay_hit(store, &cs, &form, &fingerprint, raw_hash) {
                return hit;
            }
        }
    }

    let cancelled = || cancel.is_some_and(|t| t.is_cancelled());
    match solve_fresh(&cs, &form, spec, cancel) {
        Ok(r) => {
            if let Some(store) = cache {
                if !cancelled() {
                    let canon_codes: Vec<u64> = form
                        .from_canonical
                        .iter()
                        .map(|&orig| r.encoding.codes()[orig])
                        .collect();
                    store.insert(
                        form.key.as_u128(),
                        &fingerprint,
                        CachedOutcome::Success {
                            width: r.encoding.width(),
                            canon_codes,
                            work: r.work,
                            mode: r.mode.clone(),
                        },
                    );
                }
            }
            Outcome {
                json: result_json(&cs, &form, &r).render(),
                exit_code: 0,
            }
        }
        Err(e) => {
            let json = failure_json(&e, Some(&cs)).render();
            let exit_code = e.exit_code();
            if let Some(store) = cache {
                if !cancelled() {
                    store.insert(
                        form.key.as_u128(),
                        &fingerprint,
                        CachedOutcome::Failure {
                            raw_hash,
                            json: json.clone(),
                            exit_code,
                        },
                    );
                }
            }
            Outcome { json, exit_code }
        }
    }
}

/// Tries to answer from the cache: a verified [`CachedOutcome::Success`]
/// is restored and re-rendered; a [`CachedOutcome::Failure`] replays
/// verbatim (the raw-hash guard already ran inside
/// [`ResultCache::lookup`]). `None` means miss — including a hit whose
/// re-verification against the original set failed, which is counted
/// and re-solved.
fn replay_hit(
    store: &ResultCache,
    cs: &ConstraintSet,
    form: &CanonicalForm,
    fingerprint: &str,
    raw_hash: u64,
) -> Option<Outcome> {
    match store.lookup(form.key.as_u128(), fingerprint, raw_hash)? {
        CachedOutcome::Success {
            width,
            canon_codes,
            work,
            mode,
        } => {
            let restored = form.restore_encoding(&Encoding::new(width, canon_codes));
            if restored.verify(cs).is_empty() {
                let r = EncodeResult {
                    encoding: restored,
                    mode,
                    work,
                    from_cache: true,
                    stats_text: None,
                    notes: Vec::new(),
                };
                return Some(Outcome {
                    json: result_json(cs, form, &r).render(),
                    exit_code: 0,
                });
            }
            store.note_verify_failure();
            None
        }
        CachedOutcome::Failure {
            json, exit_code, ..
        } => Some(Outcome { json, exit_code }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECTION1: &str = "symbols: a b c d\n(b,c)\n(c,d)\n(b,a)\n(a,d)\nb>c\na>c\na=b|d\n";
    const SECTION1_PERMUTED: &str =
        "symbols: d c b a\n(a,d)\n(b,c)\nb>c\n(c,d)\n(b,a)\na=d|b\na>c\n";

    #[test]
    fn outcome_is_deterministic_and_cache_transparent() {
        let spec = EncodeSpec::default();
        let cold = outcome(SECTION1, &spec, None, None);
        assert_eq!(cold.exit_code, 0);
        let cache = ResultCache::new(64);
        let miss = outcome(SECTION1, &spec, Some(&cache), None);
        let hit = outcome(SECTION1, &spec, Some(&cache), None);
        assert_eq!(cold.json, miss.json);
        assert_eq!(miss.json, hit.json);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn permuted_input_hits_the_cache_with_its_own_symbol_order() {
        let spec = EncodeSpec::default();
        let cache = ResultCache::new(64);
        let first = outcome(SECTION1, &spec, Some(&cache), None);
        let hit = outcome(SECTION1_PERMUTED, &spec, Some(&cache), None);
        assert_eq!(
            cache.hits(),
            1,
            "permuted spelling shares the canonical key"
        );
        // The permuted spelling's bytes equal its own fresh solve…
        let fresh = outcome(SECTION1_PERMUTED, &spec, None, None);
        assert_eq!(hit.json, fresh.json);
        // …and share the canonical key with the first spelling.
        let key = |o: &Outcome| {
            Json::parse(&o.json)
                .unwrap()
                .get("key")
                .and_then(|k| k.as_str().map(str::to_string))
                .unwrap()
        };
        assert_eq!(key(&first), key(&hit));
    }

    #[test]
    fn infeasible_failure_is_typed_and_replayed_only_for_identical_text() {
        let spec = EncodeSpec::default();
        let cache = ResultCache::new(64);
        let bad = "symbols: a b\na>b\nb>a\n";
        let first = outcome(bad, &spec, Some(&cache), None);
        assert_eq!(first.exit_code, 6);
        let replay = outcome(bad, &spec, Some(&cache), None);
        assert_eq!(first.json, replay.json);
        assert_eq!(cache.hits(), 1);
        // A permuted spelling of the same conflict must re-solve so its
        // lint spans point at its own lines.
        let permuted = "symbols: b a\nb>a\na>b\n";
        let other = outcome(permuted, &spec, Some(&cache), None);
        assert_eq!(other.exit_code, 6);
        assert_eq!(cache.hits(), 1, "raw-hash guard forced a miss");
    }

    #[test]
    fn redundant_spellings_share_a_cache_entry() {
        // Presolve runs before canonicalization, so a spelling padded
        // with redundant constraints collapses to the same canonical key
        // — and therefore the same cache entry and the same bytes.
        let spec = EncodeSpec::default();
        let cache = ResultCache::new(64);
        let first = outcome(SECTION1, &spec, Some(&cache), None);
        let padded = format!("{SECTION1}b>c\na>c\n");
        let second = outcome(&padded, &spec, Some(&cache), None);
        assert_eq!(first.exit_code, 0);
        assert_eq!(first.json, second.json);
        assert_eq!(cache.hits(), 1, "padded spelling missed the cache");
    }

    #[test]
    fn deadline_requests_bypass_the_cache() {
        let spec = EncodeSpec {
            deadline_ms: Some(10_000),
            ..EncodeSpec::default()
        };
        assert!(!spec.cacheable());
        let cache = ResultCache::new(64);
        let a = outcome(SECTION1, &spec, Some(&cache), None);
        let b = outcome(SECTION1, &spec, Some(&cache), None);
        assert_eq!(a.exit_code, 0);
        assert_eq!(a.json, b.json);
        assert_eq!(cache.hits() + cache.misses(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn auto_without_budget_is_a_limit_error() {
        let spec = EncodeSpec {
            mode: Mode::Auto,
            ..EncodeSpec::default()
        };
        let out = outcome(SECTION1, &spec, None, None);
        assert_eq!(out.exit_code, 4);
        assert!(out.json.contains("\"class\":\"limit\""));
    }

    #[test]
    fn fingerprints_distinguish_modes_and_budgets() {
        let exact = EncodeSpec::default();
        let capped = EncodeSpec {
            mode: Mode::Exact {
                prime_cap: Some(10),
            },
            ..EncodeSpec::default()
        };
        let heur = EncodeSpec {
            mode: Mode::Heuristic {
                bits: Some(3),
                cost: CostFunction::Cubes,
            },
            ..EncodeSpec::default()
        };
        let budgeted = EncodeSpec {
            max_nodes: Some(100),
            ..EncodeSpec::default()
        };
        let raw = EncodeSpec {
            presolve: false,
            ..EncodeSpec::default()
        };
        let fps = [
            exact.fingerprint(),
            capped.fingerprint(),
            heur.fingerprint(),
            budgeted.fingerprint(),
            raw.fingerprint(),
        ];
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
