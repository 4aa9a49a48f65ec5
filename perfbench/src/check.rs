//! The correctness gate and the in-process references it compares with.
//!
//! Every answer the benchmark receives is checked independently of the
//! server: codes are re-verified with `Encoding::verify` against the set
//! the benchmark parsed itself, a claimed-optimal width on a set within
//! [`ORACLE_CAP`] symbols must equal `oracle_min_width`, and an encode
//! `result` must be byte-identical to the in-process `outcome` on the same
//! text.

use crate::report::Report;
use ioenc_core::json::Json;
use ioenc_core::{oracle_min_width, ConstraintSet, Encoding, OracleOptions};
use ioenc_server::{outcome, parse_constraint_text, EncodeSpec};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Largest symbol count the exponential oracle is asked about.
pub const ORACLE_CAP: usize = 8;
/// The same for sets with distance-2 or non-face constraints, whose
/// oracle is a binate covering search that grows much faster.
pub const BINATE_ORACLE_CAP: usize = 6;

/// Threads the benchmark uses for untimed preparation and checking.
pub const PREP_THREADS: usize = 2;

/// Maps `f` over `items` on [`PREP_THREADS`] threads, keeping order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..PREP_THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().expect("slot lock poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// The in-process answer for one text: the exact `result` bytes plus the
/// fields the workloads filter and score on.
#[derive(Clone, Debug)]
pub struct Reference {
    pub json: String,
    pub exit_code: u8,
    pub key: String,
    pub width: u64,
    pub optimal: bool,
}

/// The number of prime dichotomies of `text`'s set as written (presolve
/// off, so this is a property of the set, whatever the solver), or `None`
/// when it does not parse, is infeasible or has more than `cap`. Prime
/// generation stops at the cap, so oversized sets cost little.
pub fn prime_count(text: &str, cap: usize) -> Option<usize> {
    let cs = parse_constraint_text(text).ok()?;
    if !ioenc_core::check_feasible(&cs).is_feasible() {
        return None;
    }
    let budget = ioenc_core::Budget::unlimited()
        .with_max_primes(cap)
        .with_max_cover_nodes(1);
    let solver = ioenc_core::Solver::new()
        .mode(ioenc_core::SolverMode::Exact)
        .presolve(false)
        .budget(budget);
    match solver.solve(&cs) {
        Ok(sol) => Some(sol.stats.num_primes),
        Err(ioenc_core::EncodeError::Budget { phase, spent })
            if phase != ioenc_core::BudgetPhase::Primes =>
        {
            Some(spent.stats.num_primes)
        }
        Err(_) => None,
    }
}

/// Exit code recorded when the in-process pipeline panicked (the server
/// answers such a request with an `internal` error).
pub const PANICKED: u8 = 255;

/// Runs the shared encode pipeline in-process (no cache) on `text`.
pub fn reference(text: &str, spec: &EncodeSpec) -> Reference {
    let out = std::panic::catch_unwind(|| outcome(text, spec, None, None)).unwrap_or_else(|_| {
        ioenc_server::Outcome {
            json: String::new(),
            exit_code: PANICKED,
        }
    });
    let j = Json::parse(&out.json).ok();
    let field = |k: &str| j.as_ref().and_then(|j| j.get(k));
    Reference {
        exit_code: out.exit_code,
        key: field("key")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        width: field("width").and_then(Json::as_u64).unwrap_or(0),
        optimal: field("optimal").and_then(Json::as_bool).unwrap_or(false),
        json: out.json,
    }
}

/// Oracle widths, memoized by canonical key (or any caller-chosen key),
/// for sets of at most `cap` symbols.
pub struct Oracle {
    cap: usize,
    widths: Mutex<HashMap<String, Option<usize>>>,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new(ORACLE_CAP)
    }
}

impl Oracle {
    pub fn new(cap: usize) -> Oracle {
        Oracle {
            cap,
            widths: Mutex::default(),
        }
    }

    fn min_width(&self, key: &str, cs: &ConstraintSet) -> Result<Option<usize>, String> {
        if let Some(w) = self.widths.lock().expect("oracle lock poisoned").get(key) {
            return Ok(*w);
        }
        let w = oracle_min_width(
            cs,
            &OracleOptions {
                max_symbols: self.cap,
            },
        )
        .map_err(|e| format!("oracle: {e}"))?;
        self.widths
            .lock()
            .expect("oracle lock poisoned")
            .insert(key.to_string(), w);
        Ok(w)
    }

    /// Checks codes against `cs`, and a claimed-optimal width against
    /// the oracle when `cs` is small enough. `key` memoizes the oracle.
    pub fn check_codes(
        &self,
        cs: &ConstraintSet,
        key: &str,
        width: usize,
        codes: Vec<u64>,
        optimal: bool,
    ) -> Result<(), String> {
        if codes.len() != cs.num_symbols() {
            return Err(format!(
                "{} codes for {} symbols",
                codes.len(),
                cs.num_symbols()
            ));
        }
        let enc = Encoding::new(width, codes);
        let violations = enc.verify(cs);
        if !violations.is_empty() {
            return Err(format!("codes violate {} constraints", violations.len()));
        }
        let cap = if cs.has_binate_constraints() {
            self.cap.min(BINATE_ORACLE_CAP)
        } else {
            self.cap
        };
        if optimal && cs.num_symbols() <= cap {
            match self.min_width(key, cs)? {
                Some(w) if w == width => {}
                other => {
                    return Err(format!(
                        "claimed-optimal width {width} but oracle says {other:?}"
                    ))
                }
            }
        }
        Ok(())
    }

    /// Gate for one successful encode/session `result` object: its codes
    /// (listed by symbol name) against the benchmark's own parse of
    /// `text`.
    pub fn check_result(&self, text: &str, result: &Json, key: &str) -> Result<(), String> {
        let cs = parse_constraint_text(text).map_err(|e| format!("parse: {e}"))?;
        if result.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("not ok: {}", result.render()));
        }
        let width = result
            .get("width")
            .and_then(Json::as_u64)
            .ok_or("no width")? as usize;
        let optimal = result
            .get("optimal")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let codes = codes_by_name(result, &cs)?;
        self.check_codes(&cs, key, width, codes, optimal)
    }
}

/// The `codes` array of a result, in `cs` symbol order.
pub fn codes_by_name(result: &Json, cs: &ConstraintSet) -> Result<Vec<u64>, String> {
    let arr = result
        .get("codes")
        .and_then(Json::as_arr)
        .ok_or("no codes")?;
    let mut by_name = HashMap::new();
    for c in arr {
        let sym = c.get("symbol").and_then(Json::as_str).ok_or("no symbol")?;
        let code = c.get("code").and_then(Json::as_str).ok_or("no code")?;
        let v = u64::from_str_radix(code, 2).map_err(|_| "bad code bits")?;
        by_name.insert(sym.to_string(), v);
    }
    (0..cs.num_symbols())
        .map(|s| {
            by_name
                .get(cs.name(s))
                .copied()
                .ok_or_else(|| format!("no code for {}", cs.name(s)))
        })
        .collect()
}

/// Checks a reference answer itself (so that byte-equal served answers
/// are checked too): codes verified, optimal widths against the oracle.
pub fn check_reference(oracle: &Oracle, text: &str, r: &Reference) -> Result<(), String> {
    let j = Json::parse(&r.json).map_err(|e| format!("reference JSON: {e}"))?;
    oracle.check_result(text, &j, &r.key)
}

/// Runs `text` in-process and gates the answer: it must exit 0 and pass
/// [`check_reference`].
pub fn gated_reference(
    oracle: &Oracle,
    text: &str,
    spec: &EncodeSpec,
) -> (Reference, Result<(), String>) {
    let r = reference(text, spec);
    let verdict = match r.exit_code {
        0 => check_reference(oracle, text, &r),
        PANICKED => Err("in-process encode panicked".to_string()),
        code => Err(format!("in-process encode exited with {code}")),
    };
    (r, verdict)
}

/// One admitted pool input: its candidate index in its stream and its
/// texts (a hot key's base spelling and respellings) with their gated
/// in-process references.
pub type Gated = (usize, Vec<(String, Reference)>);

/// Gates the admitted inputs of `stream` in-process: each candidate's
/// texts must all pass [`gated_reference`]. Candidates on the frozen
/// exclusion list were never admitted, so one that fails here is a new
/// failure and fails the run. Returns the candidates that pass and the
/// indices of those that fail.
pub fn gate_pool(
    rep: &mut Report,
    stream: &str,
    oracle: &Oracle,
    spec: &EncodeSpec,
    picked: Vec<(usize, Vec<String>)>,
) -> (Vec<Gated>, BTreeSet<usize>) {
    let results = par_map(&picked, |(_, texts)| {
        texts
            .iter()
            .map(|t| gated_reference(oracle, t, spec))
            .collect::<Vec<_>>()
    });
    let mut kept = Vec::new();
    let mut failing = BTreeSet::new();
    for ((index, texts), results) in picked.into_iter().zip(results) {
        let err = results
            .iter()
            .zip(&texts)
            .find_map(|((_, v), t)| v.as_ref().err().map(|e| format!("{e} on {t:?}")));
        match err {
            None => kept.push((
                index,
                texts
                    .into_iter()
                    .zip(results.into_iter().map(|(r, _)| r))
                    .collect(),
            )),
            Some(e) => {
                failing.insert(index);
                rep.fail(format!(
                    "{stream} input {index} is not on the exclusion list and failed the gate: {e}"
                ));
            }
        }
    }
    (kept, failing)
}
