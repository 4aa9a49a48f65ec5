//! The resumable stage pipeline: parse → minimize → extract → encode →
//! verify → realize → measure.
//!
//! Every stage serializes its result to a textual artifact and then *reads
//! its own artifact back* before handing the value downstream — fresh and
//! resumed runs therefore flow the exact same parsed values, which is what
//! makes resumption byte-identical by construction rather than by luck.
//!
//! Budget discipline: the pipeline holds one shared [`Budget`]. The encode
//! stage receives the remainder ([`Budget::after`]) of whatever earlier
//! work consumed, and the realize/measure minimizations run under the
//! budget's per-minimization ESPRESSO iteration cap, charging their
//! iterations back into the shared ledger. A stage whose slice runs dry
//! fails with a typed [`SynthError`] carrying the `budget` class; its
//! artifact is *not* written, so a later invocation with a fresh budget
//! recomputes exactly that stage and produces the bytes an unbudgeted run
//! would have.

use crate::artifact::Store;
use crate::stage::{Stage, SynthError};
use ioenc_core::json::Json;
use ioenc_core::{
    Budget, BudgetPhase, BudgetSpent, ConstraintSet, CostFunction, EncodeError, Encoding,
    OracleOptions, Parallelism, SolutionDetail, Solver, SolverMode, SolverStats, WorkUnits,
};
use ioenc_espresso::{cover_to_pla_text, parse_pla_text, summary, MinimizeStats};
use ioenc_kiss::Fsm;
use ioenc_nova::{nova_encode, NovaOptions};
use ioenc_symbolic::{
    encoded_pla, input_constraints, input_constraints_with_dc, output_constraints, OutputProfile,
};
use std::path::PathBuf;
use std::time::Instant;

/// The pipeline fingerprint version; bump on any semantic change to stage
/// serialization or behaviour so stale artifacts never replay.
const PIPELINE_VERSION: &str = "v1";

/// Which constraints the minimize/extract stages derive.
#[derive(Debug, Clone)]
pub enum ConstraintSource {
    /// Face constraints from the multiple-valued minimized cover.
    Input,
    /// Face constraints with encoding don't-cares.
    InputDc,
    /// Faces plus feasibility-guarded dominance/disjunctive constraints.
    Mixed(OutputProfile),
}

impl ConstraintSource {
    fn token(&self) -> String {
        match self {
            ConstraintSource::Input => "input".into(),
            ConstraintSource::InputDc => "dc".into(),
            ConstraintSource::Mixed(p) => {
                format!("mixed;dom={};disj={}", p.max_dominance, p.max_disjunctive)
            }
        }
    }
}

/// The solver configuration for the encode stage (a subset of the CLI
/// `encode` modes; bounded solves are reachable through `Heuristic` with a
/// fixed width upstream of the pipeline).
#[derive(Debug, Clone)]
pub enum SynthMode {
    /// Exact minimum-length encoding (P-2).
    Exact {
        /// Prime-dichotomy cap override.
        prime_cap: Option<usize>,
    },
    /// Bounded-length heuristic (P-3).
    Heuristic {
        /// Code length; `None` uses the minimum `⌈log₂ n⌉`.
        bits: Option<usize>,
        /// The cost function to minimize.
        cost: CostFunction,
    },
    /// The exact → bounded → heuristic degradation ladder (requires a
    /// budget with at least one work limit).
    Auto,
}

impl SynthMode {
    fn token(&self) -> String {
        match self {
            SynthMode::Exact { prime_cap } => match prime_cap {
                Some(c) => format!("exact;cap={c}"),
                None => "exact".into(),
            },
            SynthMode::Heuristic { bits, cost } => format!(
                "heuristic;bits={};cost={}",
                bits.map_or_else(|| "-".into(), |b| b.to_string()),
                cost_token(*cost)
            ),
            SynthMode::Auto => "auto".into(),
        }
    }
}

fn cost_token(cost: CostFunction) -> &'static str {
    match cost {
        CostFunction::Violations => "violations",
        CostFunction::Cubes => "cubes",
        CostFunction::Literals => "literals",
    }
}

/// Options for one synthesis run.
#[derive(Debug, Clone)]
pub struct SynthOptions {
    /// Which constraints to derive (default: mixed with the default
    /// profile, the paper's Table 1 configuration).
    pub source: ConstraintSource,
    /// The encode-stage solver mode (default: exact).
    pub mode: SynthMode,
    /// The shared budget sliced across stages. Not part of the run key:
    /// budgets bound work, they do not define the answer.
    pub budget: Budget,
    /// Solver parallelism (results are bit-identical across settings).
    pub threads: Parallelism,
    /// Run the semantic presolve inside exact/auto solves.
    pub presolve: bool,
    /// Run the Theorem 6.1 oracle cross-check in the verify stage when
    /// the constraint set has at most this many symbols (the oracle
    /// enumerates `2ⁿ−2` columns; keep this small).
    pub oracle_cap: usize,
    /// Improvement passes for the NOVA baseline in the measure stage.
    pub nova_passes: usize,
    /// Root of the content-addressed run directories; `None` disables
    /// artifacts (and therefore resumption).
    pub run_dir: Option<PathBuf>,
    /// Stop after this stage completes and return [`SynthRun::Stopped`]
    /// (artifacts up to and including it are on disk). Used by the
    /// kill-and-resume tests and smoke scripts.
    pub stop_after: Option<Stage>,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            source: ConstraintSource::Mixed(OutputProfile::default()),
            mode: SynthMode::Exact { prime_cap: None },
            budget: Budget::unlimited(),
            threads: Parallelism::Auto,
            presolve: true,
            oracle_cap: 9,
            nova_passes: 4,
            run_dir: None,
            stop_after: None,
        }
    }
}

impl SynthOptions {
    /// The static half of the per-stage fingerprint: pipeline version
    /// plus every semantic knob that stage depends on. Budgets and
    /// parallelism are excluded — they bound work without changing
    /// results (degraded results are handled by the artifact taint flag
    /// instead). [`synth`] appends `;in=<hash>` of the upstream artifact
    /// payloads each stage consumes, so a stage recomputed to a different
    /// result invalidates every stale artifact downstream of it.
    fn fingerprint(&self, stage: Stage) -> String {
        match stage {
            Stage::Parse => format!("{PIPELINE_VERSION};parse"),
            Stage::Minimize => {
                let src = match &self.source {
                    ConstraintSource::InputDc => "dc",
                    _ => "input",
                };
                format!("{PIPELINE_VERSION};minimize;src={src}")
            }
            Stage::Extract => format!("{PIPELINE_VERSION};extract;src={}", self.source.token()),
            Stage::Encode => format!(
                "{PIPELINE_VERSION};encode;mode={};presolve={}",
                self.mode.token(),
                if self.presolve { "on" } else { "off" }
            ),
            Stage::Verify => format!("{PIPELINE_VERSION};verify;oracle={}", self.oracle_cap),
            Stage::Realize => format!("{PIPELINE_VERSION};realize"),
            Stage::Measure => {
                format!(
                    "{PIPELINE_VERSION};measure;nova-passes={}",
                    self.nova_passes
                )
            }
        }
    }

    /// The run key: input bytes plus every stage fingerprint, hashed to
    /// 128 bits — the same content-addressing scheme as the serve cache.
    pub fn run_key(&self, kiss_text: &str) -> u128 {
        let mut keyed = String::new();
        for stage in Stage::ALL {
            keyed.push_str(&self.fingerprint(stage));
            keyed.push('\n');
        }
        keyed.push_str(kiss_text);
        ioenc_rng::hash_bytes128(keyed.as_bytes())
    }
}

/// One stage's execution record (diagnostics only — never part of the
/// deterministic stdout report, which must be byte-identical between
/// fresh and resumed runs).
#[derive(Debug, Clone, Copy)]
pub struct StageReport {
    /// The stage.
    pub stage: Stage,
    /// Whether a stored artifact was replayed instead of recomputing.
    pub resumed: bool,
    /// Wall-clock nanoseconds spent (including artifact IO).
    pub nanos: u128,
}

/// The verify stage's oracle cross-check result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleCheck {
    /// The constraint set exceeded the oracle cap.
    Skipped,
    /// The oracle's minimum width (matches the encoding when the solve
    /// claimed optimality — enforced, or the verify stage errors).
    Width(usize),
}

/// The completed pipeline's deterministic result.
#[derive(Debug, Clone)]
pub struct SynthOutcome {
    /// The run key (`032x` hex), naming the artifact directory.
    pub key: String,
    /// FSM name.
    pub name: String,
    /// FSM shape.
    pub states: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Face constraints extracted.
    pub faces: usize,
    /// Dominance constraints extracted.
    pub dominances: usize,
    /// Disjunctive constraints extracted.
    pub disjunctives: usize,
    /// Code width.
    pub width: usize,
    /// Mode label (`exact`, `heuristic`, `auto <rung>`).
    pub detail: String,
    /// Whether the width is a proven minimum.
    pub optimal: bool,
    /// `(state name, code)` in state order.
    pub codes: Vec<(String, u64)>,
    /// Constraint violations (0 for exact/optimal solves; heuristic
    /// solves may violate and record the count).
    pub violations: usize,
    /// The oracle cross-check.
    pub oracle: OracleCheck,
    /// Minimized encoded-PLA cost `(product terms, input literals)`.
    pub cost: (usize, usize),
    /// NOVA baseline code width.
    pub nova_width: usize,
    /// NOVA baseline cost `(product terms, input literals)`.
    pub nova_cost: (usize, usize),
    /// Per-stage execution records (diagnostics; timings and resume flags
    /// vary run to run).
    pub stages: Vec<StageReport>,
    /// Deterministic work units consumed *in this invocation* (resumed
    /// stages charge nothing — their work is already on disk).
    pub spent: WorkUnits,
}

impl SynthOutcome {
    /// Renders the deterministic human report (stdout): summary comments
    /// then one `state code` line per state. Byte-identical between fresh
    /// and resumed runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# synth {}: {} states, {} inputs, {} outputs\n",
            self.name, self.states, self.inputs, self.outputs
        ));
        out.push_str(&format!(
            "# constraints: {} faces, {} dominance, {} disjunctive\n",
            self.faces, self.dominances, self.disjunctives
        ));
        out.push_str(&format!(
            "# encoding: {} bits ({}{})\n",
            self.width,
            self.detail,
            if self.optimal { ", optimal" } else { "" }
        ));
        match (self.violations, self.oracle) {
            (0, OracleCheck::Width(w)) => {
                out.push_str(&format!("# verify: ok (oracle agrees at {w} bits)\n"));
            }
            (0, OracleCheck::Skipped) => out.push_str("# verify: ok (oracle skipped)\n"),
            (v, _) => out.push_str(&format!("# verify: {v} violations (heuristic encoding)\n")),
        }
        out.push_str(&format!(
            "# cost: {} cubes / {} literals; nova baseline: {} cubes / {} literals at {} bits\n",
            self.cost.0, self.cost.1, self.nova_cost.0, self.nova_cost.1, self.nova_width
        ));
        for (name, code) in &self.codes {
            out.push_str(&format!("{name} {:0width$b}\n", code, width = self.width));
        }
        out
    }

    /// Renders the deterministic JSON report (one compact line, same
    /// field discipline as `ioenc encode --json`).
    pub fn render_json(&self) -> String {
        let codes: Vec<Json> = self
            .codes
            .iter()
            .map(|(name, code)| {
                Json::obj()
                    .field("symbol", name.as_str())
                    .field("code", format!("{:0width$b}", code, width = self.width))
            })
            .collect();
        let mut verify = Json::obj().field("violations", self.violations as u64);
        verify = match self.oracle {
            OracleCheck::Skipped => verify.field("oracle", "skipped"),
            OracleCheck::Width(w) => verify
                .field("oracle", "agrees")
                .field("oracle_width", w as u64),
        };
        Json::obj()
            .field("ok", true)
            .field("key", self.key.as_str())
            .field("name", self.name.as_str())
            .field("states", self.states as u64)
            .field("inputs", self.inputs as u64)
            .field("outputs", self.outputs as u64)
            .field(
                "constraints",
                Json::obj()
                    .field("faces", self.faces as u64)
                    .field("dominance", self.dominances as u64)
                    .field("disjunctive", self.disjunctives as u64),
            )
            .field("width", self.width as u64)
            .field("detail", self.detail.as_str())
            .field("optimal", self.optimal)
            .field("codes", codes)
            .field("verify", verify)
            .field(
                "cost",
                Json::obj()
                    .field("cubes", self.cost.0 as u64)
                    .field("literals", self.cost.1 as u64),
            )
            .field(
                "nova",
                Json::obj()
                    .field("width", self.nova_width as u64)
                    .field("cubes", self.nova_cost.0 as u64)
                    .field("literals", self.nova_cost.1 as u64),
            )
            .render()
    }
}

/// The result of one pipeline invocation.
#[derive(Debug)]
pub enum SynthRun {
    /// All stages ran (or replayed) to completion.
    Complete(Box<SynthOutcome>),
    /// `stop_after` ended the run early; artifacts up to and including
    /// `after` are on disk under `key`.
    Stopped {
        /// The last stage that completed.
        after: Stage,
        /// The run key (`032x` hex).
        key: String,
        /// Per-stage execution records.
        stages: Vec<StageReport>,
    },
}

/// The failure JSON for CLI/scripted callers: `{"ok":false,"stage":…,
/// "error":{"class":…,"message":…}}`, mirroring the serve failure shape
/// with the stage attached.
pub fn failure_json(err: &SynthError) -> String {
    Json::obj()
        .field("ok", false)
        .field("stage", err.stage.name())
        .field(
            "error",
            Json::obj()
                .field("class", err.source.class())
                .field("message", err.source.to_string()),
        )
        .render()
}

/// Renders a constraint set in the `symbols:`-headed file format every
/// `ioenc` surface shares.
pub fn render_constraints(cs: &ConstraintSet) -> String {
    let names: Vec<&str> = (0..cs.num_symbols()).map(|s| cs.name(s)).collect();
    format!("symbols: {}\n{cs}", names.join(" "))
}

/// Parses the `symbols:`-headed constraint file format (the same grammar
/// as `ioenc encode` inputs and the minimize/extract artifacts).
pub fn parse_constraints(text: &str) -> Result<ConstraintSet, EncodeError> {
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

/// Runs one stage: replay the artifact when it verifies, otherwise build
/// and persist it; either way the value handed downstream is parsed from
/// the payload, so fresh and resumed runs flow identical data. Returns
/// the value plus the payload hash — downstream stages fold that hash
/// into their own fingerprints, so a stage recomputed to a *different*
/// result (a tainted encode redone under a fresh budget, say)
/// automatically invalidates every stale artifact built on the old one.
fn run_stage<T>(
    store: &Store,
    stages: &mut Vec<StageReport>,
    stage: Stage,
    fingerprint: &str,
    build: impl FnOnce() -> Result<(String, bool), SynthError>,
    parse: impl FnOnce(&str) -> Result<T, EncodeError>,
) -> Result<(T, u128), SynthError> {
    let start = Instant::now();
    let (payload, resumed) = match store.load(stage, fingerprint) {
        Some(p) => (p, true),
        None => {
            let (payload, tainted) = build()?;
            store
                .save(stage, fingerprint, tainted, &payload)
                .map_err(|e| SynthError::new(stage, e))?;
            (payload, false)
        }
    };
    let value = parse(&payload).map_err(|e| SynthError::new(stage, e))?;
    let hash = ioenc_rng::hash_bytes128(payload.as_bytes());
    stages.push(StageReport {
        stage,
        resumed,
        nanos: start.elapsed().as_nanos(),
    });
    Ok((value, hash))
}

fn render_encoding(cs: &ConstraintSet, enc: &Encoding, label: &str, optimal: bool) -> String {
    let width = enc.width();
    let mut out = format!(
        "width {width}\nmode {label}\noptimal {}\n",
        u8::from(optimal)
    );
    for s in 0..cs.num_symbols() {
        out.push_str(&format!("{} {:0width$b}\n", cs.name(s), enc.code(s)));
    }
    out
}

fn parse_encoding(cs: &ConstraintSet, text: &str) -> Result<(Encoding, String, bool), EncodeError> {
    let mut lines = text.lines();
    let bad = |m: &str| EncodeError::parse(format!("encode artifact: {m}"));
    let width: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("width "))
        .ok_or_else(|| bad("missing width"))?
        .parse()
        .map_err(|_| bad("bad width"))?;
    let label = lines
        .next()
        .and_then(|l| l.strip_prefix("mode "))
        .ok_or_else(|| bad("missing mode"))?
        .to_string();
    let optimal = match lines.next().and_then(|l| l.strip_prefix("optimal ")) {
        Some("1") => true,
        Some("0") => false,
        _ => return Err(bad("missing optimal flag")),
    };
    let mut codes = Vec::with_capacity(cs.num_symbols());
    for s in 0..cs.num_symbols() {
        let line = lines.next().ok_or_else(|| bad("missing code line"))?;
        let (name, bits) = line.split_once(' ').ok_or_else(|| bad("bad code line"))?;
        if name != cs.name(s) {
            return Err(bad("symbol order mismatch"));
        }
        let code = u64::from_str_radix(bits, 2).map_err(|_| bad("bad code bits"))?;
        codes.push(code);
    }
    Ok((Encoding::new(width, codes), label, optimal))
}

fn parse_verify(text: &str) -> Result<(usize, OracleCheck), EncodeError> {
    let bad = |m: &str| EncodeError::parse(format!("verify artifact: {m}"));
    let mut lines = text.lines();
    let violations: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("violations "))
        .ok_or_else(|| bad("missing violations"))?
        .parse()
        .map_err(|_| bad("bad violations"))?;
    let oracle = match lines.next() {
        Some("oracle skipped") => OracleCheck::Skipped,
        Some(l) => {
            let w = l
                .strip_prefix("oracle agrees ")
                .ok_or_else(|| bad("bad oracle line"))?
                .parse()
                .map_err(|_| bad("bad oracle width"))?;
            OracleCheck::Width(w)
        }
        None => return Err(bad("missing oracle line")),
    };
    Ok((violations, oracle))
}

/// Measure payload: synth `(cubes, literals)`, NOVA width, NOVA
/// `(cubes, literals)`.
type MeasureCosts = ((usize, usize), usize, (usize, usize));

fn parse_measure(text: &str) -> Result<MeasureCosts, EncodeError> {
    let bad = |m: &str| EncodeError::parse(format!("measure artifact: {m}"));
    let v = Json::parse(text).map_err(|e| bad(&e))?;
    let get = |obj: &Json, k: &str| -> Result<usize, EncodeError> {
        obj.get(k)
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| bad(&format!("missing {k}")))
    };
    let nova = v.get("nova").ok_or_else(|| bad("missing nova"))?;
    Ok((
        (get(&v, "cubes")?, get(&v, "literals")?),
        get(nova, "width")?,
        (get(nova, "cubes")?, get(nova, "literals")?),
    ))
}

/// Charges one bounded minimization's iterations into the shared ledger,
/// or raises the budget error when the per-minimization cap stopped it.
fn charge_minimize(
    stage: Stage,
    stats: MinimizeStats,
    spent: &mut SolverStats,
) -> Result<(), SynthError> {
    let charged = SolverStats {
        espresso_iters: stats.iterations,
        ..SolverStats::default()
    };
    spent.absorb(&charged);
    if stats.converged {
        Ok(())
    } else {
        Err(SynthError::new(
            stage,
            EncodeError::budget(
                BudgetPhase::Heuristic,
                BudgetSpent {
                    stats: charged,
                    raised: Vec::new(),
                },
            ),
        ))
    }
}

/// Runs the full pipeline on a KISS2 text. See the module docs for the
/// stage graph, artifact keying and resume semantics.
///
/// # Errors
///
/// A [`SynthError`] naming the failing stage; its source keeps the stable
/// [`EncodeError`] class (and exit code).
pub fn synth(kiss_text: &str, opts: &SynthOptions) -> Result<SynthRun, SynthError> {
    let key = opts.run_key(kiss_text);
    let key_hex = format!("{key:032x}");
    let store =
        Store::open(opts.run_dir.as_deref(), key).map_err(|e| SynthError::new(Stage::Parse, e))?;
    let mut stages: Vec<StageReport> = Vec::new();
    let mut spent = SolverStats::default();

    macro_rules! stop_after {
        ($stage:expr) => {
            if opts.stop_after == Some($stage) {
                return Ok(SynthRun::Stopped {
                    after: $stage,
                    key: key_hex,
                    stages,
                });
            }
        };
    }

    // Parse: normalize the KISS2 text; downstream stages work from the
    // normalized artifact, never the raw input.
    let (fsm, parse_hash) = run_stage(
        &store,
        &mut stages,
        Stage::Parse,
        &opts.fingerprint(Stage::Parse),
        || {
            let fsm = Fsm::parse_kiss2(kiss_text).map_err(|e| SynthError::new(Stage::Parse, e))?;
            Ok((fsm.to_kiss2(), false))
        },
        Fsm::parse_kiss2,
    )?;
    stop_after!(Stage::Parse);

    // Symbolic minimize: face constraints off the MV-minimized cover.
    let (face_cs, minimize_hash) = run_stage(
        &store,
        &mut stages,
        Stage::Minimize,
        &format!("{};in={parse_hash:032x}", opts.fingerprint(Stage::Minimize)),
        || {
            let cs = match &opts.source {
                ConstraintSource::InputDc => input_constraints_with_dc(&fsm),
                _ => input_constraints(&fsm),
            };
            Ok((render_constraints(&cs), false))
        },
        parse_constraints,
    )?;
    stop_after!(Stage::Minimize);

    // Extract: admit output constraints (mixed) or pass faces through.
    let (cs, extract_hash) = run_stage(
        &store,
        &mut stages,
        Stage::Extract,
        &format!(
            "{};in={minimize_hash:032x}",
            opts.fingerprint(Stage::Extract)
        ),
        || {
            let full = match &opts.source {
                ConstraintSource::Mixed(profile) => {
                    output_constraints(&fsm, face_cs.clone(), profile)
                }
                _ => face_cs.clone(),
            };
            Ok((render_constraints(&full), false))
        },
        parse_constraints,
    )?;
    stop_after!(Stage::Extract);

    // Encode: the solver gets the remainder of the shared budget. A
    // degraded result (node-limited exact, unconverged heuristic,
    // non-optimal auto) taints the artifact so a resume with a fresh
    // budget recomputes instead of replaying the degraded codes.
    let ((encoding, detail_label, optimal), encode_hash) = run_stage(
        &store,
        &mut stages,
        Stage::Encode,
        &format!("{};in={extract_hash:032x}", opts.fingerprint(Stage::Encode)),
        || {
            let remaining = opts.budget.after(&spent);
            let mut solver = Solver::new()
                .threads(opts.threads)
                .budget(remaining)
                .presolve(opts.presolve);
            match &opts.mode {
                SynthMode::Exact { prime_cap } => {
                    solver = solver.mode(SolverMode::Exact);
                    if let Some(cap) = prime_cap {
                        solver = solver.prime_cap(*cap);
                    }
                }
                SynthMode::Heuristic { bits, cost } => {
                    solver = solver.mode(SolverMode::Heuristic).cost(*cost);
                    if let Some(b) = bits {
                        solver = solver.code_length(*b);
                    }
                }
                SynthMode::Auto => solver = solver.mode(SolverMode::Auto),
            }
            let sol = solver
                .solve(&cs)
                .map_err(|e| SynthError::new(Stage::Encode, e))?;
            spent.absorb(&sol.stats);
            let (label, optimal, degraded) = match &sol.detail {
                SolutionDetail::Exact { optimal } => ("exact".to_string(), *optimal, !*optimal),
                SolutionDetail::Bounded { .. } => ("bounded".to_string(), false, false),
                SolutionDetail::Heuristic { converged } => {
                    ("heuristic".to_string(), false, !*converged)
                }
                SolutionDetail::Auto { rung, optimal, .. } => {
                    (format!("auto {rung}"), *optimal, !*optimal)
                }
            };
            Ok((
                render_encoding(&cs, &sol.encoding, &label, optimal),
                degraded,
            ))
        },
        |p| parse_encoding(&cs, p),
    )?;
    stop_after!(Stage::Encode);

    // Verify: the codes against the constraint set, and (small sets) the
    // claimed-optimal width against the Theorem 6.1 oracle.
    let ((violations, oracle), _) = run_stage(
        &store,
        &mut stages,
        Stage::Verify,
        &format!(
            "{};in={extract_hash:032x},{encode_hash:032x}",
            opts.fingerprint(Stage::Verify)
        ),
        || {
            let violations = encoding.verify(&cs).len();
            let expect_zero = detail_label == "exact" || optimal;
            if expect_zero && violations > 0 {
                return Err(SynthError::new(
                    Stage::Verify,
                    EncodeError::limit(format!(
                        "{detail_label} encoding violates {violations} constraints"
                    )),
                ));
            }
            let oracle_line =
                if cs.num_symbols() <= opts.oracle_cap {
                    let opts_o = OracleOptions {
                        max_symbols: opts.oracle_cap,
                    };
                    match ioenc_core::oracle_min_width(&cs, &opts_o)
                        .map_err(|e| SynthError::new(Stage::Verify, e))?
                    {
                        Some(w) => {
                            if optimal && w != encoding.width() {
                                return Err(SynthError::new(
                                    Stage::Verify,
                                    EncodeError::limit(format!(
                                        "claimed-optimal width {} disagrees with oracle width {w}",
                                        encoding.width()
                                    )),
                                ));
                            }
                            format!("oracle agrees {w}")
                        }
                        None => return Err(SynthError::new(
                            Stage::Verify,
                            EncodeError::limit(
                                "oracle finds the constraint set infeasible, yet it was encoded",
                            ),
                        )),
                    }
                } else {
                    "oracle skipped".to_string()
                };
            Ok((format!("violations {violations}\n{oracle_line}\n"), false))
        },
        parse_verify,
    )?;
    stop_after!(Stage::Verify);

    // Realize: the encoded FSM as a minimized two-level PLA, under the
    // budget's per-minimization ESPRESSO iteration cap.
    let (realized, realize_hash) = run_stage(
        &store,
        &mut stages,
        Stage::Realize,
        &format!(
            "{};in={parse_hash:032x},{encode_hash:032x}",
            opts.fingerprint(Stage::Realize)
        ),
        || {
            if encoding.width() > 24 {
                return Err(SynthError::new(
                    Stage::Realize,
                    EncodeError::limit("state codes wider than 24 bits are unsupported"),
                ));
            }
            let pla = encoded_pla(&fsm, &encoding);
            let cap = opts.budget.after(&spent).max_espresso_iters;
            let (cover, stats) = pla.minimize_bounded(cap);
            charge_minimize(Stage::Realize, stats, &mut spent)?;
            Ok((cover_to_pla_text(&cover, &pla), false))
        },
        |p| parse_pla_text(p).map_err(EncodeError::parse),
    )?;
    stop_after!(Stage::Realize);

    // Measure: the synthesized cost plus the NOVA minimum-length baseline
    // encoded and measured the same way.
    let ((cost, nova_width, nova_cost), _) = run_stage(
        &store,
        &mut stages,
        Stage::Measure,
        &format!(
            "{};in={parse_hash:032x},{minimize_hash:032x},{realize_hash:032x}",
            opts.fingerprint(Stage::Measure)
        ),
        || {
            let cost = summary(realized.on_set(), realized.inputs());
            let nova = nova_encode(
                &face_cs,
                &NovaOptions {
                    code_length: None,
                    passes: opts.nova_passes,
                },
            );
            let cap = opts.budget.after(&spent).max_espresso_iters;
            let (nova_cost, stats) = encoded_pla(&fsm, &nova).minimize_summary_bounded(cap);
            charge_minimize(Stage::Measure, stats, &mut spent)?;
            let payload = Json::obj()
                .field("cubes", cost.0 as u64)
                .field("literals", cost.1 as u64)
                .field(
                    "nova",
                    Json::obj()
                        .field("width", nova.width() as u64)
                        .field("cubes", nova_cost.0 as u64)
                        .field("literals", nova_cost.1 as u64),
                )
                .render();
            Ok((payload, false))
        },
        parse_measure,
    )?;
    stop_after!(Stage::Measure);

    let codes: Vec<(String, u64)> = (0..cs.num_symbols())
        .map(|s| (cs.name(s).to_string(), encoding.code(s)))
        .collect();
    Ok(SynthRun::Complete(Box::new(SynthOutcome {
        key: key_hex,
        name: fsm.name().to_string(),
        states: fsm.num_states(),
        inputs: fsm.num_inputs(),
        outputs: fsm.num_outputs(),
        faces: cs.faces().len(),
        dominances: cs.dominances().len(),
        disjunctives: cs.disjunctives().count(),
        width: encoding.width(),
        detail: detail_label,
        optimal,
        codes,
        violations,
        oracle,
        cost,
        nova_width,
        nova_cost,
        stages,
        spent: spent.work_units(),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioenc_kiss::{generate, BenchmarkSpec};

    fn opts() -> SynthOptions {
        SynthOptions::default()
    }

    #[test]
    fn pipeline_completes_without_a_run_dir() {
        let fsm = generate(&BenchmarkSpec::sized("p", 8));
        let run = synth(&fsm.to_kiss2(), &opts()).unwrap();
        let SynthRun::Complete(out) = run else {
            panic!("expected completion");
        };
        assert_eq!(out.states, 8);
        assert_eq!(out.codes.len(), 8);
        assert!(out.cost.0 > 0);
        assert!(out.nova_cost.0 > 0);
        assert_eq!(out.violations, 0);
        assert_eq!(out.stages.len(), 7);
        assert!(out.stages.iter().all(|s| !s.resumed));
    }

    #[test]
    fn parse_errors_name_the_parse_stage() {
        let err = synth(".i 1\n.o 1\nbogus\n.e\n", &opts()).unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn run_key_ignores_budget_but_not_mode() {
        let text = generate(&BenchmarkSpec::sized("k", 6)).to_kiss2();
        let a = opts().run_key(&text);
        let mut budgeted = opts();
        budgeted.budget = Budget::unlimited().with_max_ps_steps(1);
        assert_eq!(a, budgeted.run_key(&text));
        let mut heur = opts();
        heur.mode = SynthMode::Heuristic {
            bits: None,
            cost: CostFunction::Cubes,
        };
        assert_ne!(a, heur.run_key(&text));
    }

    #[test]
    fn constraint_render_parse_round_trips() {
        let fsm = generate(&BenchmarkSpec::sized("c", 9));
        let cs = input_constraints(&fsm);
        let text = render_constraints(&cs);
        let back = parse_constraints(&text).unwrap();
        assert_eq!(render_constraints(&back), text);
    }
}
