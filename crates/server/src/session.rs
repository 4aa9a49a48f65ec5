//! Server-side incremental sessions: the `open` / `delta` / `close`
//! NDJSON operations, backed by [`ioenc_core::Session`].
//!
//! A session holds a constraint set server-side so a client can re-solve
//! after small edits without resending (or re-solving) the whole set. The
//! response codes are bit-identical to a fresh `encode` of the edited
//! text — that is [`Session`]'s contract — so a client may freely mix
//! one-shot and session requests.
//!
//! Design points:
//!
//! * **Sessions never touch the result cache.** The cache is keyed by
//!   canonical form and replays rendered outcomes; session responses
//!   carry reuse accounting that is true for *this* session's history
//!   only, so caching them would replay lies. The underlying solves stay
//!   deterministic, which keeps responses reproducible anyway.
//! * **Session operations run on the worker pool, in one FIFO lane per
//!   session.** The server's dispatcher (the stdio reader or the event
//!   loop) admits each `open`/`delta`/`close` in arrival order: it checks
//!   the request, appends the operation to its session's lane and
//!   pushes the lane through the server's bounded queue, so session
//!   operations count against `--queue` and are shed as `overloaded`
//!   like encodes. A worker that pops a lane runs its waiting operations
//!   in order; when another worker is already running that lane it
//!   returns at once, and the running worker picks the operation up.
//!   Operations on one session therefore run one at a time in arrival
//!   order, different sessions run in parallel, no worker waits for
//!   another operation's turn, and no lock is held across a solve.
//! * **Ids and counts are fixed at dispatch.** An `open` gets its session
//!   id when it is admitted, and the live-session count moves when an
//!   `open` or `close` is admitted, so both are functions of the request
//!   stream, whichever worker finishes first.
//! * **Deadline-budgeted sessions stay correct**: [`Session`] only builds
//!   incremental state under an unlimited budget, so a deadline-truncated
//!   solve can never seed state that a later delta would reuse (the same
//!   reason deadline requests bypass the result cache).

use crate::exec::{failure_json, panic_json, parse_constraint_text, work_units_json};
use ioenc_core::json::Json;
use ioenc_core::{ConstraintSet, Delta, EncodeError, Session, SessionOutcome, SolutionDetail};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

/// The live sessions of one server instance, addressed by server-assigned
/// numeric ids. `T` is the tag each admitted operation carries to its
/// answer (the server's request id and reply route).
pub(crate) struct SessionRegistry<T> {
    lanes: Mutex<Lanes<T>>,
}

struct Lanes<T> {
    /// The id of the most recently admitted `open`.
    last_id: u64,
    /// Sessions opened and not yet closed, as of the last admitted
    /// operation.
    live: HashMap<u64, Arc<Lane<T>>>,
}

impl<T> SessionRegistry<T> {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        SessionRegistry {
            lanes: Mutex::new(Lanes {
                last_id: 0,
                live: HashMap::new(),
            }),
        }
    }

    /// The number of live sessions: admitted `open`s minus admitted
    /// `close`s.
    pub(crate) fn len(&self) -> usize {
        self.lock().live.len()
    }

    fn lock(&self) -> MutexGuard<'_, Lanes<T>> {
        self.lanes.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admits one `op` request (`open`, `delta` or `close`): checks it,
    /// appends it with `tag` to its session's lane (an `open` creates the
    /// lane under the next session id) and hands the lane to `enqueue`,
    /// which schedules a run of it. Returns the answer to send at once
    /// instead when the request is malformed, names no open session, or
    /// `enqueue` refuses; a refused operation is withdrawn as if it had
    /// never arrived.
    ///
    /// An `open` whose set fails to solve still creates its session, so
    /// the client can repair the set with deltas.
    pub(crate) fn admit(
        &self,
        op: &str,
        req: &Json,
        tag: T,
        enqueue: impl FnOnce(Arc<Lane<T>>) -> Result<(), Json>,
    ) -> Result<(), Json> {
        let mut lanes = self.lock();
        let (lane, op) = if op == "open" {
            let session = open_session(req).map_err(|e| failure_json(&e, None))?;
            (Arc::new(Lane::new(lanes.last_id + 1, session)), Op::Open)
        } else {
            let sid = req.get("session").and_then(Json::as_u64).ok_or_else(|| {
                failure_json(
                    &EncodeError::parse(format!("{op} request needs a numeric 'session' field")),
                    None,
                )
            })?;
            let op = if op == "delta" {
                Op::Delta(parse_delta(req).map_err(|e| failure_json(&e, None))?)
            } else {
                Op::Close
            };
            let lane = lanes
                .live
                .get(&sid)
                .cloned()
                .ok_or_else(|| no_session(sid))?;
            (lane, op)
        };
        let sid = lane.sid;
        let (opens, closes) = (matches!(op, Op::Open), matches!(op, Op::Close));
        {
            // Holding the lane while enqueueing keeps a worker already
            // running it from taking the operation before a refusal can
            // withdraw it.
            let mut state = lane.lock();
            state.waiting.push_back((op, tag));
            if let Err(answer) = enqueue(Arc::clone(&lane)) {
                state.waiting.pop_back();
                return Err(answer);
            }
        }
        if opens {
            lanes.last_id = sid;
            lanes.live.insert(sid, lane);
        } else if closes {
            lanes.live.remove(&sid);
        }
        Ok(())
    }
}

/// What an admitted operation does to its session.
enum Op {
    /// The first solve of a freshly opened session.
    Open,
    Delta(Delta),
    Close,
}

/// One session's FIFO of admitted operations, run by at most one worker
/// at a time.
pub(crate) struct Lane<T> {
    sid: u64,
    state: Mutex<LaneState<T>>,
}

struct LaneState<T> {
    /// `None` once the session is closed, or lost to a panicking solve.
    session: Option<Session>,
    /// Admitted operations not yet run, in arrival order.
    waiting: VecDeque<(Op, T)>,
    /// A worker is running this lane.
    running: bool,
}

impl<T> Lane<T> {
    fn new(sid: u64, session: Session) -> Self {
        Lane {
            sid,
            state: Mutex::new(LaneState {
                session: Some(session),
                waiting: VecDeque::new(),
                running: false,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LaneState<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Runs the waiting operations in arrival order, handing each tag and
    /// answer to `done`, until none are left. Returns at once when another
    /// worker is already running this lane: that worker also runs
    /// everything queued behind its current operation.
    pub(crate) fn run(&self, mut done: impl FnMut(T, Json)) {
        let mut state = self.lock();
        if state.running {
            return;
        }
        state.running = true;
        while let Some((op, tag)) = state.waiting.pop_front() {
            let mut session = state.session.take();
            drop(state);
            let answer = catch_unwind(AssertUnwindSafe(|| self.step(&mut session, op)))
                .unwrap_or_else(|_| {
                    session = None;
                    panic_json()
                });
            done(tag, answer);
            state = self.lock();
            state.session = session;
        }
        state.running = false;
    }

    fn step(&self, session: &mut Option<Session>, op: Op) -> Json {
        let sid = self.sid;
        let Some(s) = session.as_mut() else {
            return no_session(sid);
        };
        match op {
            Op::Open => {
                let outcome = s.solve();
                render_outcome(sid, s.constraints(), &outcome)
            }
            Op::Delta(delta) => {
                let outcome = s.apply(&delta);
                render_outcome(sid, s.constraints(), &outcome)
            }
            Op::Close => {
                *session = None;
                Json::obj()
                    .field("ok", true)
                    .field("session", sid)
                    .field("closed", true)
            }
        }
    }
}

/// Parses an `open` request into an unsolved session configured from its
/// spec fields.
fn open_session(req: &Json) -> Result<Session, EncodeError> {
    let (text, spec) = crate::server::parse_encode_request(req)?;
    let cs = parse_constraint_text(&text)?;
    Ok(Session::open(cs).with_solver(spec.solver(None)?))
}

fn no_session(sid: u64) -> Json {
    failure_json(&EncodeError::parse(format!("no open session {sid}")), None)
}

fn parse_delta(req: &Json) -> Result<Delta, EncodeError> {
    let mut delta = Delta::new();
    for (key, kind) in [("add", "addition"), ("remove", "removal")] {
        match req.get(key) {
            None | Some(Json::Null) => {}
            Some(v) => {
                let items = v.as_arr().ok_or_else(|| {
                    EncodeError::parse(format!("'{key}' must be an array of constraint lines"))
                })?;
                for item in items {
                    let line = item.as_str().ok_or_else(|| {
                        EncodeError::parse(format!("each {kind} must be a string"))
                    })?;
                    delta = match key {
                        "add" => delta.add(line),
                        _ => delta.remove(line),
                    };
                }
            }
        }
    }
    Ok(delta)
}

/// Renders a session solve result. Success mirrors the one-shot result
/// shape (`mode`/`width`/`codes`/`stats`) minus the canonical `key` —
/// sessions solve the caller's set directly — plus the `session` id and
/// the incremental `reuse` accounting. Errors mirror the one-shot failure
/// shape plus the `session` id.
fn render_outcome(
    sid: u64,
    cs: &ConstraintSet,
    outcome: &Result<SessionOutcome, EncodeError>,
) -> Json {
    let out = match outcome {
        Ok(out) => out,
        Err(e) => return failure_json(e, Some(cs)).field("session", sid),
    };
    let mut obj = Json::obj().field("ok", true).field("session", sid);
    obj = match &out.solution.detail {
        SolutionDetail::Exact { optimal } => obj.field("mode", "exact").field("optimal", *optimal),
        SolutionDetail::Bounded { cost } => obj.field("mode", "bounded").field("cost", *cost),
        SolutionDetail::Heuristic { converged } => obj
            .field("mode", "heuristic")
            .field("converged", *converged),
        SolutionDetail::Auto { rung, optimal, .. } => obj
            .field("mode", "auto")
            .field("rung", rung.to_string())
            .field("optimal", *optimal),
    };
    let width = out.solution.encoding.width();
    let codes: Vec<Json> = (0..cs.num_symbols())
        .map(|s| {
            Json::obj().field("symbol", cs.name(s)).field(
                "code",
                format!("{:0width$b}", out.solution.encoding.codes()[s]),
            )
        })
        .collect();
    obj.field("width", width)
        .field("codes", codes)
        .field("stats", work_units_json(&out.solution.stats.work_units()))
        .field(
            "reuse",
            Json::obj()
                .field("incremental", out.reuse.incremental)
                .field("delta_size", out.reuse.delta_size)
                .field("raises_reused", out.reuse.raises_reused)
                .field("raises_recomputed", out.reuse.raises_recomputed)
                .field("raises_fresh", out.reuse.raises_fresh)
                .field("cliques", out.reuse.cliques)
                .field("cover_replayed", out.reuse.cover_replayed),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::EncodeSpec;

    fn open_req(text: &str) -> Json {
        Json::obj().field("op", "open").field("text", text)
    }

    /// Admits `req` and runs its lane on this thread: one request,
    /// answered sequentially.
    fn call<T: Default>(reg: &SessionRegistry<T>, op: &str, req: &Json) -> Json {
        let mut lane = None;
        if let Err(answer) = reg.admit(op, req, T::default(), |l| {
            lane = Some(l);
            Ok(())
        }) {
            return answer;
        }
        let mut answer = None;
        lane.unwrap().run(|_, a| answer = Some(a));
        answer.unwrap()
    }

    const BASE: &str = "symbols: a b c d\n(a,b)\n(c,d)\na>c\n";

    #[test]
    fn open_delta_close_round_trip() {
        let reg: SessionRegistry<()> = SessionRegistry::new();
        let opened = call(&reg, "open", &open_req(BASE));
        assert_eq!(opened.get("ok").and_then(Json::as_bool), Some(true));
        let sid = opened.get("session").and_then(Json::as_u64).unwrap();
        assert_eq!(reg.len(), 1);

        let delta = Json::obj()
            .field("op", "delta")
            .field("session", sid)
            .field("add", vec![Json::from("(b,c)")])
            .field("remove", vec![Json::from("a>c")]);
        let applied = call(&reg, "delta", &delta);
        assert_eq!(applied.get("ok").and_then(Json::as_bool), Some(true));
        let reuse = applied.get("reuse").unwrap();
        assert_eq!(reuse.get("incremental").and_then(Json::as_bool), Some(true));
        assert_eq!(reuse.get("delta_size").and_then(Json::as_u64), Some(2));

        // Bit-identity with a fresh one-shot solve of the edited text.
        let edited = "symbols: a b c d\n(a,b)\n(c,d)\n(b,c)\n";
        let fresh = crate::exec::outcome(edited, &EncodeSpec::default(), None, None);
        let fresh = Json::parse(&fresh.json).unwrap();
        assert_eq!(applied.get("codes"), fresh.get("codes"));
        assert_eq!(applied.get("width"), fresh.get("width"));

        let close = Json::obj().field("op", "close").field("session", sid);
        let closed = call(&reg, "close", &close);
        assert_eq!(closed.get("closed").and_then(Json::as_bool), Some(true));
        assert_eq!(reg.len(), 0);
        let gone = call(&reg, "delta", &Json::obj().field("session", sid));
        assert_eq!(gone.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn lanes_run_in_arrival_order_with_ids_fixed_at_admission() {
        let reg: SessionRegistry<u64> = SessionRegistry::new();
        let mut lanes = Vec::new();
        let mut admit = |tag: u64, op: &str, req: Json| {
            reg.admit(op, &req, tag, |l| {
                lanes.push(l);
                Ok(())
            })
        };
        let delta = |sid: u64, line: &str| {
            Json::obj()
                .field("session", sid)
                .field("add", vec![Json::from(line)])
        };
        // Nothing runs until the lanes do: ids and the live count are
        // decided by admission order alone.
        admit(1, "open", open_req(BASE)).unwrap();
        admit(2, "open", open_req(BASE)).unwrap();
        admit(3, "delta", delta(1, "(b,c)")).unwrap();
        admit(4, "delta", delta(2, "(a,d)")).unwrap();
        admit(5, "close", Json::obj().field("session", 1u64)).unwrap();
        let late = admit(6, "delta", delta(1, "(a,c)")).unwrap_err();
        assert!(late.render().contains("no open session 1"), "{late:?}");
        // A refused operation is withdrawn and consumes no id.
        let refused = reg.admit("open", &open_req(BASE), 7, |_| Err(Json::from("full")));
        assert_eq!(refused.unwrap_err(), Json::from("full"));
        assert_eq!(reg.len(), 1);

        let mut answers = Vec::new();
        for lane in &lanes {
            lane.run(|tag, a| answers.push((tag, a)));
        }
        let order: Vec<u64> = answers.iter().map(|(t, _)| *t).collect();
        assert_eq!(order, [1, 3, 5, 2, 4], "each lane runs in arrival order");
        let sid = |tag: u64| {
            answers
                .iter()
                .find(|(t, _)| *t == tag)
                .and_then(|(_, a)| a.get("session").and_then(Json::as_u64))
        };
        assert_eq!((sid(1), sid(3), sid(5)), (Some(1), Some(1), Some(1)));
        assert_eq!((sid(2), sid(4)), (Some(2), Some(2)));
        let opened = call(&reg, "open", &open_req(BASE));
        assert_eq!(opened.get("session").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn open_survives_an_infeasible_set_for_repair() {
        let reg: SessionRegistry<()> = SessionRegistry::new();
        let bad = "symbols: a b\na>b\nb>a\n";
        let opened = call(&reg, "open", &open_req(bad));
        assert_eq!(opened.get("ok").and_then(Json::as_bool), Some(false));
        let sid = opened.get("session").and_then(Json::as_u64).unwrap();
        assert_eq!(reg.len(), 1, "failed open still creates the session");
        let repaired = call(
            &reg,
            "delta",
            &Json::obj()
                .field("session", sid)
                .field("remove", vec![Json::from("b>a")]),
        );
        assert_eq!(
            repaired.get("ok").and_then(Json::as_bool),
            Some(true),
            "{repaired:?}"
        );
    }

    #[test]
    fn malformed_deltas_are_typed_and_leave_the_session_alone() {
        let reg: SessionRegistry<()> = SessionRegistry::new();
        let opened = call(&reg, "open", &open_req(BASE));
        let sid = opened.get("session").and_then(Json::as_u64).unwrap();
        for bad in [
            Json::obj()
                .field("session", sid)
                .field("add", "not-an-array"),
            Json::obj()
                .field("session", sid)
                .field("remove", vec![Json::from("(z,q)")]),
            Json::obj().field("add", vec![Json::from("(a,b)")]),
        ] {
            let r = call(&reg, "delta", &bad);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{r:?}");
            assert_eq!(
                r.get("error")
                    .and_then(|e| e.get("class"))
                    .and_then(Json::as_str),
                Some("parse"),
                "{r:?}"
            );
        }
        // The session still answers an empty delta with the base solve.
        let ok = call(&reg, "delta", &Json::obj().field("session", sid));
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn deadline_sessions_never_go_incremental() {
        let reg: SessionRegistry<()> = SessionRegistry::new();
        let mut req = open_req(BASE);
        req = req.field("deadline_ms", 60_000u64);
        let opened = call(&reg, "open", &req);
        assert_eq!(opened.get("ok").and_then(Json::as_bool), Some(true));
        let sid = opened.get("session").and_then(Json::as_u64).unwrap();
        assert_eq!(
            opened
                .get("reuse")
                .and_then(|r| r.get("incremental"))
                .and_then(Json::as_bool),
            Some(false),
            "deadline-budgeted solve must not build incremental state"
        );
        let applied = call(
            &reg,
            "delta",
            &Json::obj()
                .field("session", sid)
                .field("add", vec![Json::from("(b,c)")]),
        );
        assert_eq!(
            applied
                .get("reuse")
                .and_then(|r| r.get("incremental"))
                .and_then(Json::as_bool),
            Some(false),
            "deltas under a deadline budget must re-solve from scratch"
        );
    }
}
