//! In-process replay of encode requests, one span per layer call.
//!
//! [`encode`] walks the same steps as `ioenc_server::outcome` — parse,
//! presolve, canonicalize, cache lookup, re-verify, solve, insert, render
//! — but calls each layer's public function itself, so each gets a span.
//! Its bytes must equal `outcome`'s; a difference is counted as a replay
//! mismatch.

use crate::report::{Report, SELF_TIME_LAYERS};
use crate::trace::Tracer;
use crate::util::ratio;
use ioenc_core::{
    canonical_form, check_feasible, presolve, Encoding, PresolveOptions, PresolveVerdict,
    SolutionDetail,
};
use ioenc_server::exec::result_json;
use ioenc_server::{
    outcome, parse_constraint_text, CachedOutcome, EncodeResult, EncodeSpec, Mode, ModeOutcome,
    ResultCache,
};

/// Work counters accumulated over a replay, read from the values the
/// public calls return.
#[derive(Default, Debug)]
pub struct Counts {
    pub presolve_calls: u64,
    pub presolve_changed: u64,
    pub rewrites: u64,
    pub solves: u64,
    pub primes: u64,
    pub ps_steps: u64,
    pub peak_terms: u64,
    pub nodes: u64,
    pub prunes: u64,
    pub cover_ns: u64,
    pub auto_answers: u64,
    pub auto_exact: u64,
    pub fallback_ns: u64,
    pub evals: u64,
    pub espresso_iters: u64,
}

impl Counts {
    /// Adds one solve's statistics.
    pub fn solved(&mut self, stats: &ioenc_core::SolverStats, detail: &SolutionDetail) {
        self.solves += 1;
        self.primes += stats.num_primes as u64;
        self.ps_steps += stats.primes.ps_steps;
        self.peak_terms = self.peak_terms.max(stats.primes.peak_terms as u64);
        self.nodes += stats.cover.nodes;
        self.prunes += stats.cover.prunes;
        self.cover_ns += stats.timings.cover.as_nanos() as u64;
        self.evals += stats.evals;
        if let SolutionDetail::Auto { rung, attempts, .. } = detail {
            self.auto_answers += 1;
            if *rung == ioenc_core::AutoRung::Exact {
                self.auto_exact += 1;
            }
            for a in attempts {
                self.fallback_ns += a.stats.timings.total.as_nanos() as u64;
            }
        }
    }

    /// The counter-derived per-layer metrics.
    pub fn report(&self, r: &mut Report) {
        let solves = self.solves as f64;
        r.layer(
            "presolve.changed_share",
            ratio(self.presolve_changed as f64, self.presolve_calls as f64),
        );
        r.layer("presolve.rewrites", self.rewrites as f64);
        r.layer("primes.count", ratio(self.primes as f64, solves));
        r.layer("primes.ps_steps", ratio(self.ps_steps as f64, solves));
        r.layer("primes.peak_terms", self.peak_terms as f64);
        r.layer("cover.nodes", ratio(self.nodes as f64, solves));
        r.layer(
            "cover.prune_ratio",
            ratio(self.prunes as f64, self.nodes as f64),
        );
        r.layer(
            "cover.ns_per_node",
            ratio(self.cover_ns as f64, self.nodes as f64),
        );
        r.layer(
            "auto.exact_share",
            ratio(self.auto_exact as f64, self.auto_answers as f64),
        );
        r.layer(
            "auto.fallback_us",
            ratio(self.fallback_ns as f64 / 1e3, self.auto_answers as f64),
        );
        r.layer("heuristic.evals", self.evals as f64);
        if self.espresso_iters > 0 {
            r.layer("espresso.iters", self.espresso_iters as f64);
        }
    }
}

fn mode_outcome(detail: &SolutionDetail) -> Option<ModeOutcome> {
    Some(match detail {
        SolutionDetail::Exact { optimal } => ModeOutcome::Exact { optimal: *optimal },
        SolutionDetail::Heuristic { converged } => ModeOutcome::Heuristic {
            converged: *converged,
        },
        SolutionDetail::Auto { rung, optimal, .. } => ModeOutcome::Auto {
            rung: rung.to_string(),
            optimal: *optimal,
        },
        SolutionDetail::Bounded { .. } => return None,
    })
}

/// One encode request through the layers, each call under a span.
/// Returns the rendered `result` JSON.
pub fn encode(
    tr: &mut Tracer,
    c: &mut Counts,
    text: &str,
    spec: &EncodeSpec,
    cache: Option<&ResultCache>,
) -> String {
    let Ok(cs) = tr.span("exec.parse", |_| parse_constraint_text(text)) else {
        return outcome(text, spec, None, None).json;
    };
    let simplified = if spec.presolve && matches!(spec.mode, Mode::Exact { .. } | Mode::Auto) {
        let report = tr.span("presolve", |_| presolve(&cs, &PresolveOptions::new()));
        c.presolve_calls += 1;
        c.rewrites += report.rewrites.len() as u64;
        match report.verdict {
            PresolveVerdict::Unknown if report.changed() => {
                c.presolve_changed += 1;
                Some(report.set)
            }
            _ => None,
        }
    } else {
        None
    };
    let form = tr.span("canon", |_| {
        canonical_form(simplified.as_ref().unwrap_or(&cs))
    });
    let fingerprint = spec.fingerprint();
    let raw_hash = ioenc_rng::seed_from_str(text);
    let key = form.key.as_u128();
    if let Some(store) = cache {
        match tr.span("cache.lookup", |_| {
            store.lookup(key, &fingerprint, raw_hash)
        }) {
            Some(CachedOutcome::Success {
                width,
                canon_codes,
                work,
                mode,
            }) => {
                let restored = tr.span("exec.verify", |_| {
                    let e = form.restore_encoding(&Encoding::new(width, canon_codes));
                    let ok = e.verify(&cs).is_empty();
                    ok.then_some(e)
                });
                match restored {
                    Some(encoding) => {
                        let r = EncodeResult {
                            encoding,
                            mode,
                            work,
                            from_cache: true,
                            stats_text: None,
                            notes: Vec::new(),
                        };
                        return tr.span("exec.render", |_| result_json(&cs, &form, &r).render());
                    }
                    None => store.note_verify_failure(),
                }
            }
            Some(CachedOutcome::Failure { json, .. }) => return json,
            None => {}
        }
    }
    tr.span("feasible", |_| check_feasible(&form.set));
    let solved = tr.span("solve", |tr| {
        let sol = spec.solver(None).and_then(|s| s.solve(&form.set));
        if let Ok(sol) = &sol {
            let t = sol.stats.timings;
            tr.reported("solve.setup", t.setup);
            tr.reported("primes", t.primes);
            tr.reported("cover", t.cover);
        }
        sol
    });
    let Ok(sol) = solved else {
        return outcome(text, spec, None, None).json;
    };
    c.solved(&sol.stats, &sol.detail);
    let Some(mode) = mode_outcome(&sol.detail) else {
        return outcome(text, spec, None, None).json;
    };
    let restored = tr.span("exec.verify", |_| {
        let e = form.restore_encoding(&sol.encoding);
        let ok = e.verify(&cs).is_empty();
        ok.then_some(e)
    });
    let Some(encoding) = restored else {
        return outcome(text, spec, None, None).json;
    };
    let r = EncodeResult {
        encoding,
        mode,
        work: sol.stats.work_units(),
        from_cache: false,
        stats_text: None,
        notes: Vec::new(),
    };
    if let Some(store) = cache {
        let canon_codes: Vec<u64> = form
            .from_canonical
            .iter()
            .map(|&orig| r.encoding.codes()[orig])
            .collect();
        tr.span("diskcache.insert", |_| {
            store.insert(
                key,
                &fingerprint,
                CachedOutcome::Success {
                    width: r.encoding.width(),
                    canon_codes,
                    work: r.work,
                    mode: r.mode.clone(),
                },
            )
        });
    }
    tr.span("exec.render", |_| result_json(&cs, &form, &r).render())
}

/// Span-derived per-layer metrics: median call time per layer and total
/// self time per layer group.
pub fn span_metrics(tr: &Tracer, r: &mut Report) {
    let agg = tr.aggregate();
    let med = |name: &str| agg.get(name).map_or(0.0, |a| a.median_us());
    for (metric, span) in [
        ("exec.parse_us", "exec.parse"),
        ("exec.verify_us", "exec.verify"),
        ("exec.render_us", "exec.render"),
        ("presolve.us", "presolve"),
        ("canon.us", "canon"),
        ("cache.lookup_us", "cache.lookup"),
        ("diskcache.insert_us", "diskcache.insert"),
        ("feasible.us", "feasible"),
        ("primes.us", "primes"),
        ("cover.us", "cover"),
        ("session.open_us", "session.open"),
        ("kiss.parse_us", "kiss.parse"),
        ("symbolic.minimize_us", "symbolic.minimize"),
        ("symbolic.extract_us", "symbolic.extract"),
        ("synth.encode_us", "synth.encode"),
        ("synth.verify_us", "synth.verify"),
        ("espresso.realize_us", "espresso.realize"),
        ("nova.us", "nova"),
        ("espresso.measure_us", "espresso.measure"),
    ] {
        r.layer(metric, med(span));
    }
    for (metric, spans) in SELF_TIME_LAYERS {
        let ns: u64 = spans
            .iter()
            .filter_map(|s| agg.get(s))
            .map(|a| a.self_ns)
            .sum();
        r.layer(metric, ns as f64 / 1e6);
    }
}
