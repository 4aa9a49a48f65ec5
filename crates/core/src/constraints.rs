//! Constraint model: the input and output encoding constraints of the
//! paper, with a small text format for tests and examples.

use crate::EncodeError;
use ioenc_bitset::BitSet;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A source location in a constraint text file: 1-based line and column of
/// the constraint's first character, plus its byte length. Spans are
/// attached by [`ConstraintSet::parse`] and surfaced in lint diagnostics;
/// constraints added through the builder methods have no span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column of the constraint's first byte.
    pub col: u32,
    /// Length of the constraint text in bytes.
    pub len: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A stable reference to one constraint inside a [`ConstraintSet`]: the
/// constraint kind plus its index in that kind's insertion order. The
/// canonical ordering (faces, dominances, disjunctives, extended,
/// distance-2, non-faces, each by index) matches [`ConstraintSet`]'s
/// `Display` output and the deterministic ordering of lint diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConstraintRef {
    /// The `i`-th face constraint.
    Face(usize),
    /// The `i`-th dominance constraint.
    Dominance(usize),
    /// The `i`-th disjunctive constraint.
    Disjunctive(usize),
    /// The `i`-th extended disjunctive constraint.
    Extended(usize),
    /// The `i`-th distance-2 constraint.
    Distance2(usize),
    /// The `i`-th non-face constraint.
    NonFace(usize),
}

impl ConstraintRef {
    /// The constraint kind as a lowercase noun (for diagnostics and JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            ConstraintRef::Face(_) => "face",
            ConstraintRef::Dominance(_) => "dominance",
            ConstraintRef::Disjunctive(_) => "disjunctive",
            ConstraintRef::Extended(_) => "extended",
            ConstraintRef::Distance2(_) => "distance2",
            ConstraintRef::NonFace(_) => "nonface",
        }
    }

    /// The index within the constraint kind.
    pub fn index(&self) -> usize {
        match self {
            ConstraintRef::Face(i)
            | ConstraintRef::Dominance(i)
            | ConstraintRef::Disjunctive(i)
            | ConstraintRef::Extended(i)
            | ConstraintRef::Distance2(i)
            | ConstraintRef::NonFace(i) => *i,
        }
    }
}

/// A face-embedding (input) constraint: `members` must span a face of the
/// encoding hypercube that contains no symbol outside `members ∪
/// dont_cares` (Section 1; don't cares per Section 8.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaceConstraint {
    /// Symbols that must lie on the face.
    pub members: BitSet,
    /// Symbols free to lie on or off the face (encoding don't cares).
    pub dont_cares: BitSet,
}

/// A disjunctive output constraint `parent = child₁ ∨ child₂ ∨ …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Disjunctive {
    pub parent: usize,
    pub children: Vec<usize>,
}

/// An extended disjunctive constraint
/// `(c₁₁∧c₁₂∧…) ∨ (c₂₁∧…) ∨ … >= parent` (Section 6.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ExtendedDisjunctive {
    pub parent: usize,
    pub conjunctions: Vec<Vec<usize>>,
}

/// A set of encoding constraints over `n` symbols.
///
/// Symbols are dense indices `0..n`; optional names make diagnostics and
/// the text format readable. Builder methods validate indices and panic on
/// misuse; [`ConstraintSet::parse`] returns errors instead.
///
/// # Examples
///
/// ```
/// use ioenc_core::ConstraintSet;
///
/// let mut cs = ConstraintSet::new(4);
/// cs.add_face([0, 1]);
/// cs.add_dominance(0, 2);
/// cs.add_disjunctive(0, [1, 3]);
/// assert!(cs.has_output_constraints());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    n: usize,
    names: Vec<String>,
    faces: Vec<FaceConstraint>,
    dominances: Vec<(usize, usize)>,
    disjunctives: Vec<Disjunctive>,
    extended: Vec<ExtendedDisjunctive>,
    distance2: Vec<(usize, usize)>,
    nonfaces: Vec<BitSet>,
    spans: BTreeMap<ConstraintRef, Span>,
    synthetic: BTreeSet<ConstraintRef>,
}

impl ConstraintSet {
    /// An empty constraint set over `n` symbols named `s0..s{n-1}`.
    pub fn new(n: usize) -> Self {
        Self::with_names((0..n).map(|i| format!("s{i}")).collect())
    }

    /// An empty constraint set with explicit symbol names.
    pub fn with_names(names: Vec<String>) -> Self {
        ConstraintSet {
            n: names.len(),
            names,
            ..Default::default()
        }
    }

    /// Number of symbols.
    pub fn num_symbols(&self) -> usize {
        self.n
    }

    /// The name of symbol `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_symbols()`.
    pub fn name(&self, s: usize) -> &str {
        &self.names[s]
    }

    /// Looks a symbol up by name.
    pub fn symbol(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    fn check(&self, s: usize) {
        assert!(s < self.n, "symbol {s} out of range {}", self.n);
    }

    /// Adds a face constraint without don't cares, returning its
    /// [`ConstraintRef`].
    ///
    /// # Panics
    ///
    /// Panics if a symbol is out of range or fewer than two symbols are
    /// given.
    pub fn add_face<I: IntoIterator<Item = usize>>(&mut self, members: I) -> ConstraintRef {
        self.add_face_with_dc(members, [])
    }

    /// Adds a face constraint with encoding don't cares (Section 8.1).
    ///
    /// # Panics
    ///
    /// Panics if a symbol is out of range, a don't care is also a member,
    /// or fewer than two members are given.
    pub fn add_face_with_dc<I, J>(&mut self, members: I, dont_cares: J) -> ConstraintRef
    where
        I: IntoIterator<Item = usize>,
        J: IntoIterator<Item = usize>,
    {
        let members: Vec<usize> = members.into_iter().collect();
        let dcs: Vec<usize> = dont_cares.into_iter().collect();
        for &s in members.iter().chain(&dcs) {
            self.check(s);
        }
        assert!(members.len() >= 2, "a face constraint needs >= 2 members");
        let members = BitSet::from_indices(self.n, members);
        let dont_cares = BitSet::from_indices(self.n, dcs);
        assert!(
            members.is_disjoint(&dont_cares),
            "don't cares must not repeat members"
        );
        self.faces.push(FaceConstraint {
            members,
            dont_cares,
        });
        ConstraintRef::Face(self.faces.len() - 1)
    }

    /// Adds a dominance constraint `above > below`, returning its
    /// [`ConstraintRef`].
    ///
    /// # Panics
    ///
    /// Panics if a symbol is out of range or `above == below`.
    pub fn add_dominance(&mut self, above: usize, below: usize) -> ConstraintRef {
        self.check(above);
        self.check(below);
        assert_ne!(above, below, "a symbol cannot dominate itself");
        self.dominances.push((above, below));
        ConstraintRef::Dominance(self.dominances.len() - 1)
    }

    /// Adds a disjunctive constraint `parent = ⋁ children`.
    ///
    /// # Panics
    ///
    /// Panics if a symbol is out of range, the parent is among the
    /// children, or fewer than two children are given.
    pub fn add_disjunctive<I: IntoIterator<Item = usize>>(
        &mut self,
        parent: usize,
        children: I,
    ) -> ConstraintRef {
        self.check(parent);
        let children: Vec<usize> = children.into_iter().collect();
        for &c in &children {
            self.check(c);
            assert_ne!(c, parent, "parent cannot be its own child");
        }
        assert!(children.len() >= 2, "a disjunction needs >= 2 children");
        self.disjunctives.push(Disjunctive { parent, children });
        ConstraintRef::Disjunctive(self.disjunctives.len() - 1)
    }

    /// Adds an extended disjunctive constraint `⋁ᵢ ⋀ conjᵢ >= parent`
    /// (Section 6.2).
    ///
    /// # Panics
    ///
    /// Panics if a symbol is out of range or any conjunction is empty.
    pub fn add_extended<I, J>(&mut self, parent: usize, conjunctions: I) -> ConstraintRef
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = usize>,
    {
        self.check(parent);
        let conjunctions: Vec<Vec<usize>> = conjunctions
            .into_iter()
            .map(|c| c.into_iter().collect())
            .collect();
        assert!(!conjunctions.is_empty(), "need at least one conjunction");
        for c in &conjunctions {
            assert!(!c.is_empty(), "conjunctions must be non-empty");
            for &s in c {
                self.check(s);
            }
        }
        self.extended.push(ExtendedDisjunctive {
            parent,
            conjunctions,
        });
        ConstraintRef::Extended(self.extended.len() - 1)
    }

    /// Adds a distance-2 constraint: the codes of `a` and `b` must differ
    /// in at least two bits (Section 8.2). Returns its [`ConstraintRef`].
    ///
    /// # Panics
    ///
    /// Panics if a symbol is out of range or `a == b`.
    pub fn add_distance2(&mut self, a: usize, b: usize) -> ConstraintRef {
        self.check(a);
        self.check(b);
        assert_ne!(a, b, "distance-2 needs two distinct symbols");
        self.distance2.push((a, b));
        ConstraintRef::Distance2(self.distance2.len() - 1)
    }

    /// Adds a non-face constraint: the face spanned by `members` must
    /// contain at least one other symbol (Section 8.3).
    ///
    /// # Panics
    ///
    /// Panics if a symbol is out of range or fewer than two symbols are
    /// given.
    pub fn add_nonface<I: IntoIterator<Item = usize>>(&mut self, members: I) -> ConstraintRef {
        let members: Vec<usize> = members.into_iter().collect();
        for &s in &members {
            self.check(s);
        }
        assert!(
            members.len() >= 2,
            "a non-face constraint needs >= 2 members"
        );
        self.nonfaces.push(BitSet::from_indices(self.n, members));
        ConstraintRef::NonFace(self.nonfaces.len() - 1)
    }

    /// The face constraints.
    pub fn faces(&self) -> &[FaceConstraint] {
        &self.faces
    }

    /// The dominance constraints as `(above, below)` pairs.
    pub fn dominances(&self) -> &[(usize, usize)] {
        &self.dominances
    }

    /// The disjunctive constraints as `(parent, children)` views.
    pub fn disjunctives(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.disjunctives
            .iter()
            .map(|d| (d.parent, d.children.as_slice()))
    }

    /// The extended disjunctive constraints as `(parent, conjunctions)`.
    pub fn extended_disjunctives(&self) -> impl Iterator<Item = (usize, &[Vec<usize>])> {
        self.extended
            .iter()
            .map(|e| (e.parent, e.conjunctions.as_slice()))
    }

    /// The distance-2 pairs.
    pub fn distance2_pairs(&self) -> &[(usize, usize)] {
        &self.distance2
    }

    /// The non-face constraints.
    pub fn nonfaces(&self) -> &[BitSet] {
        &self.nonfaces
    }

    /// The source span of a constraint, when it was attached by
    /// [`ConstraintSet::parse`] (or [`ConstraintSet::set_span`]).
    pub fn span_of(&self, r: ConstraintRef) -> Option<Span> {
        self.spans.get(&r).copied()
    }

    /// Attaches a source span to a constraint. Parsers use this to let
    /// lint diagnostics point back into the input text.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to an existing constraint.
    pub fn set_span(&mut self, r: ConstraintRef, span: Span) {
        let count = match r {
            ConstraintRef::Face(_) => self.faces.len(),
            ConstraintRef::Dominance(_) => self.dominances.len(),
            ConstraintRef::Disjunctive(_) => self.disjunctives.len(),
            ConstraintRef::Extended(_) => self.extended.len(),
            ConstraintRef::Distance2(_) => self.distance2.len(),
            ConstraintRef::NonFace(_) => self.nonfaces.len(),
        };
        assert!(r.index() < count, "no such constraint: {r:?}");
        self.spans.insert(r, span);
    }

    /// Marks a constraint as *synthetic*: it was synthesized by a tool
    /// (a [`Session`](crate::Session) delta line, a presolve rewrite)
    /// rather than written in the original source text, so it can never
    /// carry a meaningful [`Span`]. Lint JSON output reports the marker so
    /// consumers can distinguish "no span because synthesized" from a
    /// plain builder-added constraint.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to an existing constraint.
    pub fn mark_synthetic(&mut self, r: ConstraintRef) {
        let count = match r {
            ConstraintRef::Face(_) => self.faces.len(),
            ConstraintRef::Dominance(_) => self.dominances.len(),
            ConstraintRef::Disjunctive(_) => self.disjunctives.len(),
            ConstraintRef::Extended(_) => self.extended.len(),
            ConstraintRef::Distance2(_) => self.distance2.len(),
            ConstraintRef::NonFace(_) => self.nonfaces.len(),
        };
        assert!(r.index() < count, "no such constraint: {r:?}");
        self.synthetic.insert(r);
    }

    /// `true` if the constraint was marked synthetic via
    /// [`mark_synthetic`](Self::mark_synthetic).
    pub fn is_synthetic(&self, r: ConstraintRef) -> bool {
        self.synthetic.contains(&r)
    }

    /// Every constraint in canonical order: faces, dominances,
    /// disjunctives, extended disjunctives, distance-2, non-faces, each in
    /// insertion order. This is the deterministic ordering the lint
    /// subsystem and the conflict-core search iterate in.
    pub fn constraint_refs(&self) -> Vec<ConstraintRef> {
        let mut out = Vec::with_capacity(self.len());
        out.extend((0..self.faces.len()).map(ConstraintRef::Face));
        out.extend((0..self.dominances.len()).map(ConstraintRef::Dominance));
        out.extend((0..self.disjunctives.len()).map(ConstraintRef::Disjunctive));
        out.extend((0..self.extended.len()).map(ConstraintRef::Extended));
        out.extend((0..self.distance2.len()).map(ConstraintRef::Distance2));
        out.extend((0..self.nonfaces.len()).map(ConstraintRef::NonFace));
        out
    }

    /// Renders a single constraint in the text-format syntax (the same
    /// notation `Display` uses for the whole set).
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to an existing constraint.
    pub fn describe(&self, r: ConstraintRef) -> String {
        let name = |s: usize| self.names[s].as_str();
        match r {
            ConstraintRef::Face(i) => {
                let fc = &self.faces[i];
                let members: Vec<&str> = fc.members.iter().map(name).collect();
                if fc.dont_cares.is_empty() {
                    format!("({})", members.join(","))
                } else {
                    let dcs: Vec<&str> = fc.dont_cares.iter().map(name).collect();
                    format!("({},[{}])", members.join(","), dcs.join(","))
                }
            }
            ConstraintRef::Dominance(i) => {
                let (a, b) = self.dominances[i];
                format!("{}>{}", name(a), name(b))
            }
            ConstraintRef::Disjunctive(i) => {
                let d = &self.disjunctives[i];
                let children: Vec<&str> = d.children.iter().map(|&c| name(c)).collect();
                format!("{}={}", name(d.parent), children.join("|"))
            }
            ConstraintRef::Extended(i) => {
                let e = &self.extended[i];
                let terms: Vec<String> = e
                    .conjunctions
                    .iter()
                    .map(|c| {
                        let syms: Vec<&str> = c.iter().map(|&s| name(s)).collect();
                        format!("({})", syms.join("&"))
                    })
                    .collect();
                format!("{}>={}", terms.join("|"), name(e.parent))
            }
            ConstraintRef::Distance2(i) => {
                let (a, b) = self.distance2[i];
                format!("dist2({},{})", name(a), name(b))
            }
            ConstraintRef::NonFace(i) => {
                let members: Vec<&str> = self.nonfaces[i].iter().map(name).collect();
                format!("!({})", members.join(","))
            }
        }
    }

    /// A constraint set over the same symbols keeping only the constraints
    /// in `keep` (in canonical order, regardless of the order of `keep`).
    /// Source spans are carried over. The conflict-core search shrinks an
    /// infeasible set by repeatedly re-checking feasibility of subsets.
    ///
    /// # Panics
    ///
    /// Panics if a reference does not refer to an existing constraint.
    pub fn subset(&self, keep: &[ConstraintRef]) -> ConstraintSet {
        let mut refs: Vec<ConstraintRef> = keep.to_vec();
        refs.sort();
        refs.dedup();
        let mut out = ConstraintSet::with_names(self.names.clone());
        for &r in &refs {
            let new_ref = match r {
                ConstraintRef::Face(i) => {
                    let fc = &self.faces[i];
                    out.add_face_with_dc(fc.members.iter(), fc.dont_cares.iter())
                }
                ConstraintRef::Dominance(i) => {
                    let (a, b) = self.dominances[i];
                    out.add_dominance(a, b)
                }
                ConstraintRef::Disjunctive(i) => {
                    let d = &self.disjunctives[i];
                    out.add_disjunctive(d.parent, d.children.iter().copied())
                }
                ConstraintRef::Extended(i) => {
                    let e = &self.extended[i];
                    out.add_extended(e.parent, e.conjunctions.iter().cloned())
                }
                ConstraintRef::Distance2(i) => {
                    let (a, b) = self.distance2[i];
                    out.add_distance2(a, b)
                }
                ConstraintRef::NonFace(i) => out.add_nonface(self.nonfaces[i].iter()),
            };
            if let Some(span) = self.span_of(r) {
                out.set_span(new_ref, span);
            }
            if self.is_synthetic(r) {
                out.mark_synthetic(new_ref);
            }
        }
        out
    }

    /// Replaces the children of the `i`-th disjunctive constraint. The
    /// presolve rewrite engine uses this to canonicalize alternatives
    /// (sorted, deduplicated) in place, keeping the constraint's index —
    /// and therefore every [`ConstraintRef`] into the set — stable.
    pub(crate) fn set_disjunctive_children(&mut self, i: usize, children: Vec<usize>) {
        let parent = self.disjunctives[i].parent;
        for &c in &children {
            self.check(c);
            assert_ne!(c, parent, "parent cannot be its own child");
        }
        assert!(children.len() >= 2, "a disjunction needs >= 2 children");
        self.disjunctives[i].children = children;
    }

    /// `true` if any output constraint (dominance, disjunctive, extended)
    /// is present; when none is, the left/right symmetry of dichotomies can
    /// be broken (footnote 4 of the paper).
    pub fn has_output_constraints(&self) -> bool {
        !self.dominances.is_empty() || !self.disjunctives.is_empty() || !self.extended.is_empty()
    }

    /// `true` if distance-2 or non-face constraints require the binate
    /// covering path.
    pub fn has_binate_constraints(&self) -> bool {
        !self.distance2.is_empty() || !self.nonfaces.is_empty()
    }

    /// Total number of constraints of all kinds.
    pub fn len(&self) -> usize {
        self.faces.len()
            + self.dominances.len()
            + self.disjunctives.len()
            + self.extended.len()
            + self.distance2.len()
            + self.nonfaces.len()
    }

    /// `true` if no constraint has been added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dominance pairs including those implied by disjunctive constraints:
    /// `p = a ∨ b` implies `p > a` and `p > b`.
    pub fn all_dominances(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let implied = self
            .disjunctives
            .iter()
            .flat_map(|d| d.children.iter().map(move |&c| (d.parent, c)));
        self.dominances.iter().copied().chain(implied)
    }

    /// Restricts the constraint set to `symbols`, renumbering them
    /// `0..symbols.len()` in the given order. Face constraints keep the
    /// members/don't cares that survive; those left with fewer than two
    /// members are dropped (their restriction is vacuous). Output
    /// constraints are kept only when all their symbols survive.
    ///
    /// Returns the restricted set; `symbols[i]` is the original index of
    /// new symbol `i`.
    ///
    /// # Panics
    ///
    /// Panics if `symbols` contains an out-of-range or duplicate index.
    pub fn restrict(&self, symbols: &[usize]) -> ConstraintSet {
        let mut map = vec![usize::MAX; self.n];
        for (new, &old) in symbols.iter().enumerate() {
            self.check(old);
            assert!(map[old] == usize::MAX, "duplicate symbol {old}");
            map[old] = new;
        }
        let mut out =
            ConstraintSet::with_names(symbols.iter().map(|&s| self.names[s].clone()).collect());
        for f in &self.faces {
            let members: Vec<usize> = f
                .members
                .iter()
                .filter(|&s| map[s] != usize::MAX)
                .map(|s| map[s])
                .collect();
            if members.len() < 2 {
                continue;
            }
            let dcs: Vec<usize> = f
                .dont_cares
                .iter()
                .filter(|&s| map[s] != usize::MAX)
                .map(|s| map[s])
                .collect();
            out.add_face_with_dc(members, dcs);
        }
        for &(a, b) in &self.dominances {
            if map[a] != usize::MAX && map[b] != usize::MAX {
                out.add_dominance(map[a], map[b]);
            }
        }
        for d in &self.disjunctives {
            if map[d.parent] != usize::MAX && d.children.iter().all(|&c| map[c] != usize::MAX) {
                out.add_disjunctive(map[d.parent], d.children.iter().map(|&c| map[c]));
            }
        }
        for e in &self.extended {
            if map[e.parent] != usize::MAX
                && e.conjunctions
                    .iter()
                    .all(|c| c.iter().all(|&s| map[s] != usize::MAX))
            {
                out.add_extended(
                    map[e.parent],
                    e.conjunctions
                        .iter()
                        .map(|c| c.iter().map(|&s| map[s]).collect::<Vec<_>>()),
                );
            }
        }
        for &(a, b) in &self.distance2 {
            if map[a] != usize::MAX && map[b] != usize::MAX {
                out.add_distance2(map[a], map[b]);
            }
        }
        for nf in &self.nonfaces {
            let members: Vec<usize> = nf
                .iter()
                .filter(|&s| map[s] != usize::MAX)
                .map(|s| map[s])
                .collect();
            if members.len() == nf.count() {
                out.add_nonface(members);
            }
        }
        out
    }

    /// Parses a constraint set from the line-based text format:
    ///
    /// ```text
    /// (a,b,c)            # face constraint
    /// (a,b,[c,d],e)      # face constraint with encoding don't cares
    /// a>b                # dominance
    /// a=b|c              # disjunctive
    /// (b&c)|(d&e)>=a     # extended disjunctive
    /// dist2(a,b)         # distance-2
    /// !(a,b,c)           # non-face
    /// ```
    ///
    /// Every parsed constraint carries a [`Span`] (1-based line/column)
    /// pointing back into `text`, retrievable via
    /// [`ConstraintSet::span_of`] — this is what lets
    /// [`lint`](crate::lint) diagnostics name the offending source lines.
    ///
    /// # Errors
    ///
    /// [`EncodeError::Parse`] naming the offending line and column on any
    /// syntax error or unknown symbol.
    pub fn parse(names: &[&str], text: &str) -> Result<Self, EncodeError> {
        let mut cs = ConstraintSet::with_names(names.iter().map(|s| s.to_string()).collect());
        for (ln, raw) in text.lines().enumerate() {
            let content = raw.split('#').next().unwrap_or("");
            let line = content.trim();
            if line.is_empty() {
                continue;
            }
            let col = content.len() - content.trim_start().len() + 1;
            let r = cs
                .parse_line(line)
                .map_err(|e| EncodeError::parse(format!("line {}, column {col}: {e}", ln + 1)))?;
            cs.set_span(
                r,
                Span {
                    line: (ln + 1) as u32,
                    col: col as u32,
                    len: line.len() as u32,
                },
            );
        }
        Ok(cs)
    }

    /// Parses and appends a single constraint in the [`parse`](Self::parse)
    /// line grammar (comments stripped), returning its reference. No
    /// [`Span`] is attached — the line has no surrounding source text —
    /// and the constraint is [marked synthetic](Self::mark_synthetic).
    /// This is how [`Session`](crate::Session) deltas grow a set.
    ///
    /// # Errors
    ///
    /// [`EncodeError::Parse`] on a syntax error, an unknown symbol, or an
    /// empty line.
    pub fn add_line(&mut self, line: &str) -> Result<ConstraintRef, EncodeError> {
        let content = line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            return Err(EncodeError::parse("empty constraint line"));
        }
        let r = self.parse_line(content).map_err(EncodeError::parse)?;
        self.mark_synthetic(r);
        Ok(r)
    }

    fn lookup(&self, name: &str) -> Result<usize, String> {
        let name = name.trim();
        self.symbol(name)
            .ok_or_else(|| format!("unknown symbol '{name}'"))
    }

    fn parse_line(&mut self, line: &str) -> Result<ConstraintRef, String> {
        if let Some(rest) = line.strip_prefix("dist2(") {
            let inner = rest
                .strip_suffix(')')
                .ok_or("missing ')' in dist2 constraint")?;
            let parts: Vec<&str> = inner.split(',').collect();
            if parts.len() != 2 {
                return Err("dist2 takes exactly two symbols".into());
            }
            let a = self.lookup(parts[0])?;
            let b = self.lookup(parts[1])?;
            if a == b {
                return Err("dist2 symbols must differ".into());
            }
            return Ok(self.add_distance2(a, b));
        }
        if let Some(rest) = line.strip_prefix("!(") {
            let inner = rest
                .strip_suffix(')')
                .ok_or("missing ')' in non-face constraint")?;
            let members = self.parse_symbol_list(inner)?;
            if members.len() < 2 {
                return Err("a non-face constraint needs >= 2 symbols".into());
            }
            return Ok(self.add_nonface(members));
        }
        if let Some((lhs, rhs)) = line.split_once(">=") {
            // Extended disjunctive: (b&c)|(d&e)>=a
            let parent = self.lookup(rhs)?;
            let mut conjunctions = Vec::new();
            for term in lhs.split('|') {
                let term = term.trim();
                let term = term
                    .strip_prefix('(')
                    .and_then(|t| t.strip_suffix(')'))
                    .unwrap_or(term);
                let mut conj = Vec::new();
                for s in term.split('&') {
                    conj.push(self.lookup(s)?);
                }
                if conj.is_empty() {
                    return Err("empty conjunction".into());
                }
                conjunctions.push(conj);
            }
            if conjunctions.is_empty() {
                return Err("empty extended disjunction".into());
            }
            return Ok(self.add_extended(parent, conjunctions));
        }
        if let Some((lhs, rhs)) = line.split_once('=') {
            let parent = self.lookup(lhs)?;
            let mut children = Vec::new();
            for s in rhs.split('|') {
                children.push(self.lookup(s)?);
            }
            if children.len() < 2 {
                return Err("a disjunction needs >= 2 children".into());
            }
            if children.contains(&parent) {
                return Err("parent cannot be its own child".into());
            }
            return Ok(self.add_disjunctive(parent, children));
        }
        if let Some((lhs, rhs)) = line.split_once('>') {
            let a = self.lookup(lhs)?;
            let b = self.lookup(rhs)?;
            if a == b {
                return Err("a symbol cannot dominate itself".into());
            }
            return Ok(self.add_dominance(a, b));
        }
        if let Some(rest) = line.strip_prefix('(') {
            let inner = rest
                .strip_suffix(')')
                .ok_or("missing ')' in face constraint")?;
            // Split members from an optional [dc,...] group.
            let mut members = Vec::new();
            let mut dcs = Vec::new();
            let mut rest = inner;
            while !rest.is_empty() {
                if let Some(after) = rest.strip_prefix('[') {
                    let (group, tail) = after
                        .split_once(']')
                        .ok_or("missing ']' in don't-care group")?;
                    dcs.extend(self.parse_symbol_list(group)?);
                    rest = tail.trim_start_matches(',').trim();
                } else {
                    let (tok, tail) = match rest.find([',', '[']) {
                        Some(i) if rest.as_bytes()[i] == b'[' => (&rest[..i], &rest[i..]),
                        Some(i) => (&rest[..i], &rest[i + 1..]),
                        None => (rest, ""),
                    };
                    let tok = tok.trim().trim_matches(',');
                    if !tok.is_empty() {
                        members.push(self.lookup(tok)?);
                    }
                    rest = tail.trim();
                }
            }
            if members.len() < 2 {
                return Err("a face constraint needs >= 2 members".into());
            }
            for &d in &dcs {
                if members.contains(&d) {
                    return Err("don't care repeats a member".into());
                }
            }
            return Ok(self.add_face_with_dc(members, dcs));
        }
        Err(format!("unrecognized constraint '{line}'"))
    }

    fn parse_symbol_list(&self, s: &str) -> Result<Vec<usize>, String> {
        s.split(',')
            .map(|t| self.lookup(t))
            .collect::<Result<Vec<_>, _>>()
    }

    /// Renders a symbol set like `{a, c}` using the symbol names.
    pub fn format_symbols(&self, set: &BitSet) -> String {
        let names: Vec<&str> = set.iter().map(|s| self.names[s].as_str()).collect();
        format!("{{{}}}", names.join(", "))
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for fc in &self.faces {
            let members: Vec<&str> = fc.members.iter().map(|s| self.names[s].as_str()).collect();
            if fc.dont_cares.is_empty() {
                writeln!(f, "({})", members.join(","))?;
            } else {
                let dcs: Vec<&str> = fc
                    .dont_cares
                    .iter()
                    .map(|s| self.names[s].as_str())
                    .collect();
                writeln!(f, "({},[{}])", members.join(","), dcs.join(","))?;
            }
        }
        for &(a, b) in &self.dominances {
            writeln!(f, "{}>{}", self.names[a], self.names[b])?;
        }
        for d in &self.disjunctives {
            let children: Vec<&str> = d.children.iter().map(|&c| self.names[c].as_str()).collect();
            writeln!(f, "{}={}", self.names[d.parent], children.join("|"))?;
        }
        for e in &self.extended {
            let terms: Vec<String> = e
                .conjunctions
                .iter()
                .map(|c| {
                    let syms: Vec<&str> = c.iter().map(|&s| self.names[s].as_str()).collect();
                    format!("({})", syms.join("&"))
                })
                .collect();
            writeln!(f, "{}>={}", terms.join("|"), self.names[e.parent])?;
        }
        for &(a, b) in &self.distance2 {
            writeln!(f, "dist2({},{})", self.names[a], self.names[b])?;
        }
        for nf in &self.nonfaces {
            let members: Vec<&str> = nf.iter().map(|s| self.names[s].as_str()).collect();
            writeln!(f, "!({})", members.join(","))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let mut cs = ConstraintSet::new(5);
        cs.add_face([0, 1, 2]);
        cs.add_face_with_dc([0, 3], [4]);
        cs.add_dominance(0, 1);
        cs.add_disjunctive(0, [1, 2]);
        cs.add_extended(4, [vec![0, 1], vec![2, 3]]);
        cs.add_distance2(1, 3);
        cs.add_nonface([2, 3]);
        assert_eq!(cs.len(), 7);
        assert!(cs.has_output_constraints());
        assert!(cs.has_binate_constraints());
        assert_eq!(cs.faces().len(), 2);
        assert_eq!(cs.all_dominances().count(), 3);
        assert_eq!(cs.name(0), "s0");
        assert_eq!(cs.symbol("s3"), Some(3));
        assert_eq!(cs.symbol("zz"), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn face_rejects_bad_symbol() {
        ConstraintSet::new(2).add_face([0, 5]);
    }

    #[test]
    #[should_panic(expected = "dominate itself")]
    fn dominance_rejects_self() {
        ConstraintSet::new(2).add_dominance(1, 1);
    }

    #[test]
    fn parse_round_trip() {
        let names = ["a", "b", "c", "d", "e"];
        let text = "(a,b,c)\n(a,d,[e])\na>b\nb=c|d\n(a&b)|(c&d)>=e\ndist2(a,c)\n!(b,c)";
        let cs = ConstraintSet::parse(&names, text).unwrap();
        assert_eq!(cs.faces().len(), 2);
        assert_eq!(cs.dominances(), &[(0, 1)]);
        let disj: Vec<_> = cs.disjunctives().collect();
        assert_eq!(disj, vec![(1, &[2usize, 3][..])]);
        let ext: Vec<_> = cs.extended_disjunctives().collect();
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].0, 4);
        assert_eq!(cs.distance2_pairs(), &[(0, 2)]);
        assert_eq!(cs.nonfaces().len(), 1);
        // Display is re-parseable.
        let text2 = cs.to_string();
        let cs2 = ConstraintSet::parse(&names, &text2).unwrap();
        assert_eq!(cs2.to_string(), text2);
    }

    #[test]
    fn parse_dont_care_group() {
        let cs = ConstraintSet::parse(&["a", "b", "c", "d", "e"], "(a,b,[c,d],e)").unwrap();
        let f = &cs.faces()[0];
        assert_eq!(f.members.iter().collect::<Vec<_>>(), vec![0, 1, 4]);
        assert_eq!(f.dont_cares.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn parse_errors_are_reported_with_lines() {
        let err = ConstraintSet::parse(&["a", "b"], "(a,b)\n(a,q)").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("unknown symbol"), "{msg}");
        assert!(ConstraintSet::parse(&["a", "b"], "a>a").is_err());
        assert!(ConstraintSet::parse(&["a", "b"], "(a)").is_err());
        assert!(ConstraintSet::parse(&["a", "b"], "junk").is_err());
        assert!(ConstraintSet::parse(&["a", "b"], "a=b").is_err());
        assert!(ConstraintSet::parse(&["a", "b"], "dist2(a,a)").is_err());
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let cs = ConstraintSet::parse(&["a", "b", "c"], "# hi\n\n(a,b) # trailing\n").unwrap();
        assert_eq!(cs.faces().len(), 1);
    }

    #[test]
    fn restrict_remaps_and_filters() {
        let mut cs = ConstraintSet::new(5);
        cs.add_face([0, 1, 2]);
        cs.add_face([3, 4]);
        cs.add_dominance(0, 4);
        cs.add_dominance(1, 2);
        cs.add_disjunctive(0, [1, 2]);
        let r = cs.restrict(&[2, 1, 0]);
        assert_eq!(r.num_symbols(), 3);
        // Face (0,1,2) survives fully as {2,1,0} renamed.
        assert_eq!(r.faces().len(), 1);
        assert_eq!(r.faces()[0].members.count(), 3);
        // (0,4) dropped, (1,2) kept as (1,0) in new numbering.
        assert_eq!(r.dominances(), &[(1, 0)]);
        // Disjunctive kept: parent 0 -> new 2, children 1 -> 1, 2 -> 0.
        let disj: Vec<_> = r.disjunctives().collect();
        assert_eq!(disj, vec![(2, &[1usize, 0][..])]);
        assert_eq!(r.name(0), "s2");
    }

    #[test]
    fn parse_attaches_spans() {
        let cs = ConstraintSet::parse(
            &["a", "b", "c"],
            "# header\n(a,b)\n  a>c   # indented\n\ndist2(b,c)",
        )
        .unwrap();
        assert_eq!(
            cs.span_of(ConstraintRef::Face(0)),
            Some(Span {
                line: 2,
                col: 1,
                len: 5
            })
        );
        assert_eq!(
            cs.span_of(ConstraintRef::Dominance(0)),
            Some(Span {
                line: 3,
                col: 3,
                len: 3
            })
        );
        assert_eq!(
            cs.span_of(ConstraintRef::Distance2(0)),
            Some(Span {
                line: 5,
                col: 1,
                len: 10
            })
        );
        // Builder-added constraints carry no span.
        let mut built = ConstraintSet::new(2);
        let r = built.add_face([0, 1]);
        assert_eq!(built.span_of(r), None);
    }

    #[test]
    fn parse_errors_name_line_and_column() {
        let err = ConstraintSet::parse(&["a", "b"], "(a,b)\n   (a,q)").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2, column 4"), "{msg}");
    }

    #[test]
    fn describe_renders_each_kind() {
        let names = ["a", "b", "c", "d", "e"];
        let text = "(a,b,[c])\na>b\nb=c|d\n(a&b)|(c&d)>=e\ndist2(a,c)\n!(b,c)";
        let cs = ConstraintSet::parse(&names, text).unwrap();
        let rendered: Vec<String> = cs
            .constraint_refs()
            .iter()
            .map(|&r| cs.describe(r))
            .collect();
        assert_eq!(
            rendered,
            vec![
                "(a,b,[c])",
                "a>b",
                "b=c|d",
                "(a&b)|(c&d)>=e",
                "dist2(a,c)",
                "!(b,c)"
            ]
        );
    }

    #[test]
    fn subset_keeps_selected_constraints_and_spans() {
        let names = ["a", "b", "c", "d"];
        let cs = ConstraintSet::parse(&names, "(a,b)\n(c,d)\na>b\nb=c|d").unwrap();
        let sub = cs.subset(&[ConstraintRef::Face(1), ConstraintRef::Dominance(0)]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.faces().len(), 1);
        assert_eq!(sub.dominances(), &[(0, 1)]);
        assert!(sub.disjunctives().next().is_none());
        // The surviving face was on line 2 of the original text.
        assert_eq!(sub.span_of(ConstraintRef::Face(0)).map(|s| s.line), Some(2));
        // Duplicated refs collapse.
        let sub2 = cs.subset(&[ConstraintRef::Face(0), ConstraintRef::Face(0)]);
        assert_eq!(sub2.len(), 1);
    }

    #[test]
    fn add_line_marks_synthetic_and_subset_carries_it() {
        let mut cs = ConstraintSet::parse(&["a", "b", "c"], "(a,b)").unwrap();
        let r = cs.add_line("a>c").unwrap();
        assert!(cs.is_synthetic(r));
        assert!(!cs.is_synthetic(ConstraintRef::Face(0)));
        let sub = cs.subset(&[ConstraintRef::Face(0), r]);
        assert!(sub.is_synthetic(ConstraintRef::Dominance(0)));
        assert!(!sub.is_synthetic(ConstraintRef::Face(0)));
    }

    #[test]
    fn restrict_drops_single_member_faces() {
        let mut cs = ConstraintSet::new(4);
        cs.add_face([0, 1]);
        let r = cs.restrict(&[0, 2]);
        assert!(r.faces().is_empty());
    }
}
