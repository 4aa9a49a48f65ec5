//! Covers: lists of cubes with the recursive operations (tautology,
//! complement, containment) used by the minimizer.

use crate::{Cube, VarSpec};
use std::fmt;

/// A sum of cubes over a shared [`VarSpec`].
///
/// The recursive operations ([`Cover::is_tautology`], [`Cover::complement`],
/// [`Cover::contains_cube`]) use the classic unate-recursion paradigm: pick
/// the "most binate" variable, Shannon-expand over its parts, and recurse.
///
/// # Examples
///
/// ```
/// use ioenc_cube::{Cover, Cube, VarSpec};
///
/// let spec = VarSpec::binary(2);
/// let f = Cover::from_cubes(
///     spec.clone(),
///     vec![
///         Cube::parse(&spec, "1 -").unwrap(),
///         Cube::parse(&spec, "0 -").unwrap(),
///     ],
/// );
/// assert!(f.is_tautology());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Cover {
    spec: VarSpec,
    cubes: Vec<Cube>,
}

impl Cover {
    /// An empty cover (the constant-0 function).
    pub fn empty(spec: VarSpec) -> Self {
        Cover {
            spec,
            cubes: Vec::new(),
        }
    }

    /// A cover containing the universal cube (the constant-1 function).
    pub fn universe(spec: VarSpec) -> Self {
        let u = Cube::universe(&spec);
        Cover {
            spec,
            cubes: vec![u],
        }
    }

    /// Builds a cover from cubes; void cubes are dropped.
    pub fn from_cubes(spec: VarSpec, cubes: Vec<Cube>) -> Self {
        let mut c = Cover { spec, cubes };
        c.cubes.retain(|q| {
            let void = q.is_void(&c.spec);
            !void
        });
        c
    }

    /// Parses a cover from lines of [`Cube::parse`] syntax; blank lines and
    /// `#` comments are skipped.
    ///
    /// # Errors
    ///
    /// Propagates cube-parsing errors with the line number attached.
    pub fn parse(spec: &VarSpec, text: &str) -> Result<Self, String> {
        let mut cubes = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            cubes.push(Cube::parse(spec, line).map_err(|e| format!("line {}: {e}", ln + 1))?);
        }
        Ok(Cover::from_cubes(spec.clone(), cubes))
    }

    /// The variable spec.
    pub fn spec(&self) -> &VarSpec {
        &self.spec
    }

    /// The cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Mutable access to the cubes (void cubes the caller introduces are
    /// its own responsibility).
    pub fn cubes_mut(&mut self) -> &mut Vec<Cube> {
        &mut self.cubes
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// `true` if the cover has no cubes.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Appends a cube (ignored if void).
    pub fn push(&mut self, cube: Cube) {
        if !cube.is_void(&self.spec) {
            self.cubes.push(cube);
        }
    }

    /// Concatenates two covers over the same spec.
    ///
    /// # Panics
    ///
    /// Panics if the specs differ.
    pub fn union(&self, other: &Cover) -> Cover {
        assert!(self.spec == other.spec, "cover spec mismatch");
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().cloned());
        Cover {
            spec: self.spec.clone(),
            cubes,
        }
    }

    /// Removes single-cube-contained cubes (absorption): any cube contained
    /// in another cube of the cover is dropped. For a unate function this
    /// yields the minimal sum-of-products.
    pub fn single_cube_containment(&mut self) {
        self.cubes.sort();
        self.cubes.dedup();
        let mut keep = vec![true; self.cubes.len()];
        for i in 0..self.cubes.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..self.cubes.len() {
                if i != j && keep[j] && self.cubes[j].contains(&self.cubes[i]) {
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut i = 0;
        self.cubes.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }

    /// The cofactor of the cover with respect to cube `p`.
    pub fn cofactor(&self, p: &Cube) -> Cover {
        Cover::cofactor_of(&self.spec, &self.cubes, p)
    }

    /// The cofactor with respect to `p` of the cover the cubes `cubes` would
    /// form, in their order, without building that cover first.
    pub fn cofactor_of<'a>(
        spec: &VarSpec,
        cubes: impl IntoIterator<Item = &'a Cube>,
        p: &Cube,
    ) -> Cover {
        Cover {
            spec: spec.clone(),
            cubes: cubes
                .into_iter()
                .filter_map(|c| c.cofactor(spec, p))
                .collect(),
        }
    }

    /// Tautology check: does the cover contain every minterm?
    pub fn is_tautology(&self) -> bool {
        tautology(&self.spec, &self.cubes)
    }

    /// Cube containment: is `c` completely covered by the cover?
    pub fn contains_cube(&self, c: &Cube) -> bool {
        if c.is_void(&self.spec) {
            return true;
        }
        self.cofactor(c).is_tautology()
    }

    /// The complement of the cover, as a (containment-minimized) cover.
    pub fn complement(&self) -> Cover {
        let mut result = Cover {
            spec: self.spec.clone(),
            cubes: complement_cubes(&self.spec, &self.cubes),
        };
        result.single_cube_containment();
        result
    }

    /// Evaluates the cover on a minterm.
    pub fn contains_minterm(&self, values: &[usize]) -> bool {
        self.cubes
            .iter()
            .any(|c| c.contains_minterm(&self.spec, values))
    }

    /// Total input literals over the first `vars` variables (see
    /// [`Cube::literal_count`]).
    pub fn literal_count(&self, vars: usize) -> usize {
        self.cubes
            .iter()
            .map(|c| c.literal_count(&self.spec, vars))
            .sum()
    }

    /// Iterates over all minterms of the domain (for exhaustive testing of
    /// small covers).
    ///
    /// # Panics
    ///
    /// Panics if the domain has more than 2^24 minterms.
    pub fn enumerate_minterms(spec: &VarSpec) -> Vec<Vec<usize>> {
        assert!(
            spec.domain_size() <= 1 << 24,
            "domain too large to enumerate"
        );
        let mut out = Vec::new();
        let mut current = vec![0usize; spec.num_vars()];
        loop {
            out.push(current.clone());
            let mut v = 0;
            loop {
                if v == spec.num_vars() {
                    return out;
                }
                current[v] += 1;
                if current[v] < spec.parts(v) {
                    break;
                }
                current[v] = 0;
                v += 1;
            }
        }
    }
}

/// Chooses the splitting variable for unate recursion: the variable with a
/// non-full part field in the most cubes (ties broken toward more parts,
/// then toward the lower index). `None` when every cube is the universe or
/// there are no cubes.
fn splitting_var(spec: &VarSpec, cubes: &[Cube]) -> Option<usize> {
    let mut count = vec![0usize; spec.num_vars()];
    for c in cubes {
        spec.for_each_non_full_var(c.bits().as_words(), |v| count[v] += 1);
    }
    let mut best: Option<(usize, usize)> = None; // (count, var)
    for (v, &n) in count.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let better = match best {
            None => true,
            Some((bn, bv)) => n > bn || (n == bn && spec.parts(v) > spec.parts(bv)),
        };
        if better {
            best = Some((n, v));
        }
    }
    best.map(|(_, v)| v)
}

/// The cofactor of `cubes` with respect to part `p` of variable `v` (the
/// universe cube with `v` restricted to `p`): the cubes that admit `p`,
/// with `v` made full. No other variable changes, so no distance test is
/// needed.
fn part_cofactor(spec: &VarSpec, cubes: &[Cube], v: usize, p: usize) -> Vec<Cube> {
    let bit = spec.offset(v) + p;
    cubes
        .iter()
        .filter(|c| c.bits().contains(bit))
        .map(|c| {
            let mut c = c.clone();
            c.raise_var(spec, v);
            c
        })
        .collect()
}

/// Tautology of the cover the cubes form, by unate recursion over part
/// cofactors.
fn tautology(spec: &VarSpec, cubes: &[Cube]) -> bool {
    if cubes.iter().any(|c| c.is_universe(spec)) {
        return true;
    }
    let Some((first, rest)) = cubes.split_first() else {
        return false;
    };
    // Column check: a part no cube admits leaves some minterm uncovered.
    let mut column = first.bits().clone();
    for c in rest {
        column.union_with(c.bits());
    }
    if column.count() != spec.total_bits() {
        return false;
    }
    let Some(v) = splitting_var(spec, cubes) else {
        // No splitting variable, no universal cube: only possible when
        // there are no cubes, handled above.
        return false;
    };
    (0..spec.parts(v)).all(|p| tautology(spec, &part_cofactor(spec, cubes, v, p)))
}

/// The complement of the cover the cubes form, by unate recursion over
/// part cofactors.
fn complement_cubes(spec: &VarSpec, cubes: &[Cube]) -> Vec<Cube> {
    match cubes {
        [] => return vec![Cube::universe(spec)],
        _ if cubes.iter().any(|c| c.is_universe(spec)) => return Vec::new(),
        // De Morgan: one cube per non-full variable, its parts inverted.
        [c] => {
            return spec
                .vars()
                .filter(|&v| !c.var_is_full(spec, v))
                .map(|v| c.var_complement(spec, v))
                .collect()
        }
        _ => {}
    }
    #[allow(clippy::expect_used)] // >= 2 cubes and none universal, so some
    // variable is missing a part in some cube and must split.
    let v = splitting_var(spec, cubes)
        .expect("non-empty cover without universal cube has a splitting var");
    let mut out = Cover::empty(spec.clone());
    for p in 0..spec.parts(v) {
        // Every cube of the cofactor, so of its complement, has `v` full:
        // intersecting with the part's basis cube is restricting `v` to `p`.
        for mut c in complement_cubes(spec, &part_cofactor(spec, cubes, v, p)) {
            c.restrict_var(spec, v, p);
            out.cubes.push(c);
        }
    }
    out.single_cube_containment();
    out.cubes
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Cover[{} cubes]", self.cubes.len())?;
        for c in &self.cubes {
            writeln!(f, "  {}", c.display(&self.spec))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bcover(n: usize, lines: &[&str]) -> Cover {
        let spec = VarSpec::binary(n);
        Cover::from_cubes(
            spec.clone(),
            lines
                .iter()
                .map(|l| Cube::parse(&spec, l).unwrap())
                .collect(),
        )
    }

    #[test]
    fn tautology_basic() {
        assert!(bcover(2, &["1 -", "0 -"]).is_tautology());
        assert!(!bcover(2, &["1 -", "0 0"]).is_tautology());
        assert!(bcover(1, &["-"]).is_tautology());
        assert!(!Cover::empty(VarSpec::binary(2)).is_tautology());
        assert!(Cover::universe(VarSpec::binary(3)).is_tautology());
    }

    #[test]
    fn tautology_xor_parity() {
        // x0 xor x1 plus its complement is a tautology.
        assert!(bcover(2, &["1 0", "0 1", "1 1", "0 0"]).is_tautology());
        assert!(!bcover(2, &["1 0", "0 1", "1 1"]).is_tautology());
    }

    #[test]
    fn tautology_multivalued() {
        let spec = VarSpec::new(vec![3, 2]);
        let f = Cover::parse(&spec, "100 11\n010 11\n001 11").unwrap();
        assert!(f.is_tautology());
        let g = Cover::parse(&spec, "100 11\n010 11\n001 10").unwrap();
        assert!(!g.is_tautology());
    }

    #[test]
    fn complement_matches_semantics() {
        let spec = VarSpec::new(vec![2, 3, 2]);
        let f = Cover::parse(&spec, "10 110 11\n11 011 01\n01 100 10").unwrap();
        let g = f.complement();
        for m in Cover::enumerate_minterms(&spec) {
            assert_ne!(
                f.contains_minterm(&m),
                g.contains_minterm(&m),
                "disagreement at {m:?}"
            );
        }
    }

    #[test]
    fn complement_edge_cases() {
        let spec = VarSpec::binary(2);
        assert!(Cover::empty(spec.clone()).complement().is_tautology());
        assert!(Cover::universe(spec.clone()).complement().is_empty());
        // Single cube: complement of x0 x1 is x0' + x1'.
        let f = bcover(2, &["1 1"]);
        let g = f.complement();
        assert_eq!(g.len(), 2);
        for m in Cover::enumerate_minterms(&spec) {
            assert_ne!(f.contains_minterm(&m), g.contains_minterm(&m));
        }
    }

    #[test]
    fn scc_removes_contained() {
        let mut f = bcover(2, &["1 1", "1 -", "1 1", "0 0"]);
        f.single_cube_containment();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn contains_cube_via_tautology() {
        let f = bcover(2, &["1 0", "0 -"]);
        let spec = VarSpec::binary(2);
        assert!(f.contains_cube(&Cube::parse(&spec, "- 0").unwrap()));
        assert!(!f.contains_cube(&Cube::parse(&spec, "1 -").unwrap()));
    }

    #[test]
    fn parse_skips_comments() {
        let spec = VarSpec::binary(2);
        let f = Cover::parse(&spec, "# header\n1 1\n\n0 0\n").unwrap();
        assert_eq!(f.len(), 2);
        assert!(Cover::parse(&spec, "1").is_err());
    }

    #[test]
    fn union_and_push() {
        let spec = VarSpec::binary(2);
        let a = bcover(2, &["1 1"]);
        let b = bcover(2, &["0 0"]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        let mut c = Cover::empty(spec.clone());
        let mut void = Cube::universe(&spec);
        void.clear_part(&spec, 0, 0);
        void.clear_part(&spec, 0, 1);
        c.push(void);
        assert!(c.is_empty());
    }

    #[test]
    fn enumerate_minterms_counts() {
        let spec = VarSpec::new(vec![2, 3]);
        assert_eq!(Cover::enumerate_minterms(&spec).len(), 6);
    }
}
