//! Existential-variable elimination by candidate substitution.
//!
//! Constraints produced by the bidirectional rules contain existentially
//! quantified variables: sizes of list tails (`alg-r-consC-↓`) and costs of
//! checked arguments (`alg-r-app-↑`).  Off-the-shelf SMT solvers handle such
//! variables poorly, so the paper's implementation runs a pre-processing pass
//! that *guesses* substitutions for them: for an existential variable `v`, any
//! constraint of the form `v = I`, `v ≤ I` or `I ≤ v` syntactically present in
//! the formula makes `I` a candidate.  Candidates are tried lazily — generate
//! one, substitute, ask the solver; on failure move on to the next — exactly
//! as described in §6.
//!
//! **Scoped elimination.**  An `∃` is eliminated where it is bound.  One run
//! strips only the goal's existential *prefix* — the `∃`s reachable through
//! `∧` and the conclusions of `→` — and stops at `∀`: an `∃` under a
//! universal binder often needs a witness that names the binder (comp's
//! recursive call instantiates its size as the `∀`-bound tail size).  The
//! instantiated goal goes back through the solver, which opens the `∀`s and
//! antecedents and meets the inner `∃` with its binder in scope; that `∃`
//! gets a run of its own.  Each run strips at least one `∃`, so the
//! recursion terminates.  The **in-scope candidate rule** goes with it: a
//! candidate is kept only when every variable it mentions is a universal or
//! a prefix existential.  A candidate collected under an inner binder and
//! naming it could never work — substitution is capture-avoiding, so the
//! binder would be renamed away from it — and is dropped before it costs
//! an attempt.
//!
//! **The indexed search.**  The search works off a `MatrixIndex` built in
//! one pass: the matrix's top-level conjuncts, each with its (sorted)
//! existential-variable footprint, candidates collected per conjunct.
//! Because `∃x⃗.(A ∧ B) ⟺ (∃x⃗₁.A) ∧ (∃x⃗₂.B)` when `A` and `B` mention
//! disjoint variable sets, the conjuncts partition into **connected
//! components** solved independently — the cross product of candidate lists
//! collapses into a sum of small per-component searches, each checking only
//! its own conjuncts.  Within a component, **memoized rejection** skips any
//! assignment whose instantiated goal was already refuted under an earlier
//! assignment (distinct candidate tuples frequently resolve to the same
//! instantiation), counted as `exelim_candidates_pruned`.  Candidates that
//! name other existentials are resolved in **dependency order** over their
//! precomputed footprints; an assignment whose references form a cycle or
//! leave the component is skipped before any term is built.  All-ℝ components
//! that candidate search cannot close fall back to the exact Fourier–Motzkin
//! projection per component.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use rel_index::{Idx, IdxVar, Sort};

use crate::constr::{Constr, Quantified};
use crate::fm;
use crate::solver::{Provenance, SearchExhaustedReason, Solver, Validity};

/// Statistics from one elimination run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExElimStats {
    /// Number of existential variables eliminated.
    pub variables: usize,
    /// Number of complete candidate assignments tried.
    pub attempts: usize,
    /// Number of candidate assignments skipped before any term was built:
    /// their candidates depend on each other in a cycle, or name an
    /// existential outside the component.
    pub unresolved: usize,
    /// When the search gave up: which cap ended it, with the configured
    /// limit value (`None` on success, and also when the candidate pool
    /// simply ran dry without any cap firing).
    pub exhausted: Option<(SearchExhaustedReason, u64)>,
}

/// Result of eliminating the existentials of one goal.
#[derive(Debug, Clone)]
pub struct ExElimOutcome {
    /// `Some(Valid)` when a candidate assignment made the goal provable,
    /// `Some(Invalid)` never (failed candidates simply move on), `None` when
    /// no assignment worked.
    pub validity: Option<Validity>,
    /// The substitution that worked, if any.
    pub witness: Option<BTreeMap<IdxVar, Idx>>,
    /// Statistics.
    pub stats: ExElimStats,
}

/// Strips the existential *prefix* of a constraint — the `∃`s reachable
/// through `∧` and the conclusions of `→` — returning the matrix and the
/// stripped variables (prefix order).  Stripping stops at `∀`: an `∃` under
/// a universal binder may depend on it, so it is eliminated only once the
/// solver has decomposed that binder and its witness is in scope.
fn strip_existentials(c: &Constr) -> (Constr, Vec<Quantified>) {
    match c {
        Constr::Exists(q, body) => {
            let (inner, mut vars) = strip_existentials(body);
            vars.insert(0, q.clone());
            (inner, vars)
        }
        Constr::And(cs) => {
            let mut vars = Vec::new();
            let mut parts = Vec::new();
            for c in cs {
                let (inner, vs) = strip_existentials(c);
                vars.extend(vs);
                parts.push(inner);
            }
            (Constr::conj(parts), vars)
        }
        Constr::Implies(a, b) => {
            // Existentials under the conclusion of an implication can be
            // hoisted (the antecedent never binds them); existentials in the
            // antecedent are left untouched (they are really universals).
            let (inner, vars) = strip_existentials(b);
            (Constr::Implies(a.clone(), Box::new(inner)), vars)
        }
        other => (other.clone(), Vec::new()),
    }
}

/// Collects candidate substitutions for `v` from atomic comparisons in the
/// formula: `v = I`, `v ≤ I` and `I ≤ v` each contribute `I` (paper §6,
/// "Constraint solving").  The variable may occur *linearly inside* the
/// comparison (the consC rule produces `n ≐ i + 1` for existential `i`), in
/// which case the comparison is solved for `v`.  Candidates mentioning `v`
/// itself are skipped.
fn candidates_for(v: &IdxVar, c: &Constr, acc: &mut Vec<Idx>) {
    match c {
        Constr::Eq(a, b) | Constr::Leq(a, b) | Constr::Lt(a, b) => {
            if let Some(solution) = solve_linear_for(v, a, b) {
                push_unique(acc, solution);
            }
        }
        Constr::And(cs) | Constr::Or(cs) => {
            for c in cs {
                candidates_for(v, c, acc);
            }
        }
        Constr::Not(c) => candidates_for(v, c, acc),
        Constr::Implies(a, b) => {
            candidates_for(v, a, acc);
            candidates_for(v, b, acc);
        }
        Constr::Forall(_, c) | Constr::Exists(_, c) => candidates_for(v, c, acc),
        Constr::Top | Constr::Bot => {}
    }
}

fn push_unique(acc: &mut Vec<Idx>, idx: Idx) {
    let idx = rel_index::normalize(&idx);
    if !acc.contains(&idx) {
        acc.push(idx);
    }
}

/// Solves the comparison `a ⋈ b` for `v` when `v` occurs linearly (as the
/// plain atom `v`) on exactly one "side" of the linear normal form of
/// `a − b`: returns the boundary value of `v`, i.e. the term `I` such that the
/// comparison instantiated with `v := I` makes the two sides equal.
fn solve_linear_for(v: &IdxVar, a: &Idx, b: &Idx) -> Option<Idx> {
    use rel_index::{Atom, LinExpr};
    let diff = LinExpr::of_idx(a).sub(&LinExpr::of_idx(b));
    let v_atom = Atom(Idx::Var(v.clone()));
    let coeff = *diff.coeffs.get(&v_atom)?;
    if coeff.is_zero() {
        return None;
    }
    // The variable must not be buried inside any other (non-linear) atom.
    if diff
        .coeffs
        .keys()
        .any(|atom| *atom != v_atom && atom.0.mentions(v))
    {
        return None;
    }
    // diff = coeff·v + rest = 0  ⟹  v = −rest / coeff.
    let mut rest = diff.clone();
    rest.coeffs.remove(&v_atom);
    let solution = rest
        .scale(rel_index::Rational::from_int(-1) / coeff)
        .to_idx();
    if solution.mentions(v) {
        None
    } else {
        Some(solution)
    }
}

/// One candidate substitution for an existential variable.
struct Candidate {
    term: Idx,
    /// Positions (in the prefix's `ex_vars`, ascending) of the prefix
    /// existentials the term mentions: the variables that must be resolved
    /// before this candidate can be substituted.
    footprint: Vec<usize>,
}

impl Candidate {
    /// The candidate with its footprint, or `None` when the term mentions a
    /// variable out of scope at the prefix: neither a universal nor a
    /// prefix existential (`positions` maps each to its position).
    fn in_scope(
        term: Idx,
        universals: &[(IdxVar, Sort)],
        positions: &BTreeMap<&IdxVar, usize>,
    ) -> Option<Candidate> {
        let mut footprint = Vec::new();
        for w in term.free_vars() {
            match positions.get(&w) {
                Some(&p) => footprint.push(p),
                None if universals.iter().any(|(u, _)| *u == w) => {}
                None => return None,
            }
        }
        footprint.sort_unstable();
        Some(Candidate { term, footprint })
    }
}

/// The matrix, indexed: top-level conjuncts with their existential-variable
/// footprints, and per-variable candidate lists collected in one pass.
struct MatrixIndex {
    /// Top-level conjuncts of the matrix (flattened `And` spine).
    conjuncts: Vec<Constr>,
    /// Indices of the conjuncts that mention each existential variable
    /// (position-aligned with the `ex_vars` list handed to `build`).
    var_conjuncts: Vec<Vec<usize>>,
    /// Candidate substitutions per variable, sorted small-first (same
    /// position alignment).
    candidates: Vec<Vec<Candidate>>,
}

impl MatrixIndex {
    /// One pass over the matrix: flatten the conjunctive spine, compute each
    /// conjunct's existential footprint from its free variables, and collect
    /// candidates conjunct by conjunct (the seed re-scanned the *whole*
    /// matrix once per variable — quadratic in practice, since every
    /// divide-and-conquer obligation has dozens of conjuncts and a dozen
    /// existentials).
    ///
    /// A candidate is kept only when every variable it mentions is in scope
    /// at the prefix — a universal or a prefix existential.  Comparisons
    /// under an inner binder yield candidates naming the bound variable;
    /// substituting one would capture (`Constr::subst` renames the binder),
    /// so such a candidate could never match and is dropped.  Each kept
    /// candidate records its footprint, so the search resolves assignments
    /// without re-scanning terms.
    fn build(
        matrix: &Constr,
        hyp: &Constr,
        universals: &[(IdxVar, Sort)],
        ex_vars: &[Quantified],
    ) -> MatrixIndex {
        let mut conjuncts = Vec::new();
        flatten_conjuncts(matrix, &mut conjuncts);
        let positions: BTreeMap<&IdxVar, usize> = ex_vars
            .iter()
            .enumerate()
            .map(|(i, q)| (&q.var, i))
            .collect();
        let mut var_conjuncts: Vec<Vec<usize>> = vec![Vec::new(); ex_vars.len()];
        let mut terms: Vec<Vec<Idx>> = vec![Vec::new(); ex_vars.len()];
        for (ci, conjunct) in conjuncts.iter().enumerate() {
            let fv = conjunct.free_vars();
            for v in &fv {
                if let Some(&vi) = positions.get(v) {
                    var_conjuncts[vi].push(ci);
                    candidates_for(v, conjunct, &mut terms[vi]);
                }
            }
        }
        // Hypothesis candidates (the bidirectional rules never leak
        // existentials into the context, but direct callers can) and the
        // zero default — a frequent witness for cost variables (synchronous
        // executions).
        let hyp_fv = hyp.free_vars();
        let candidates = terms
            .into_iter()
            .zip(ex_vars)
            .map(|(mut terms, q)| {
                if hyp_fv.contains(&q.var) {
                    candidates_for(&q.var, hyp, &mut terms);
                }
                push_unique(&mut terms, Idx::zero());
                // Prefer syntactically small candidates (ground constants
                // resolve most size variables immediately; the lazy search
                // then rarely needs to move past the first assignment).
                terms.sort_by_key(Idx::size);
                terms
                    .into_iter()
                    .filter_map(|term| Candidate::in_scope(term, universals, &positions))
                    .collect()
            })
            .collect();
        MatrixIndex {
            conjuncts,
            var_conjuncts,
            candidates,
        }
    }

    /// Partitions the variables into connected components (two variables
    /// connect when some conjunct mentions both), returning per component
    /// the variable positions and the union of their conjunct indices.
    /// Conjuncts mentioning no existential variable are the residual,
    /// returned separately.
    #[allow(clippy::type_complexity)]
    fn components(&self, ex_vars: &[Quantified]) -> (Vec<(Vec<usize>, Vec<usize>)>, Vec<usize>) {
        // Union-find over variable positions.
        let mut parent: Vec<usize> = (0..ex_vars.len()).collect();
        fn find(parent: &mut [usize], i: usize) -> usize {
            let mut root = i;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = i;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        let mut conjunct_vars: Vec<Vec<usize>> = vec![Vec::new(); self.conjuncts.len()];
        for (vi, cis) in self.var_conjuncts.iter().enumerate() {
            for &ci in cis {
                conjunct_vars[ci].push(vi);
            }
        }
        for vars in &conjunct_vars {
            for w in vars.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        // Group variable positions and conjuncts by root, preserving order.
        let mut order: Vec<usize> = Vec::new();
        let mut groups: BTreeMap<usize, (Vec<usize>, BTreeSet<usize>)> = BTreeMap::new();
        for vi in 0..ex_vars.len() {
            let root = find(&mut parent, vi);
            let entry = groups.entry(root).or_insert_with(|| {
                order.push(root);
                (Vec::new(), BTreeSet::new())
            });
            entry.0.push(vi);
            entry.1.extend(self.var_conjuncts[vi].iter().copied());
        }
        let components = order
            .into_iter()
            .map(|root| {
                let (vars, conjuncts) = groups.remove(&root).expect("grouped above");
                (vars, conjuncts.into_iter().collect())
            })
            .collect();
        let residual = conjunct_vars
            .iter()
            .enumerate()
            .filter(|(_, vars)| vars.is_empty())
            .map(|(ci, _)| ci)
            .collect();
        (components, residual)
    }
}

/// Flattens the conjunctive spine of a constraint (dropping `Top` units,
/// exactly like the solver's hypothesis flattening).
fn flatten_conjuncts(c: &Constr, out: &mut Vec<Constr>) {
    match c {
        Constr::Top => {}
        Constr::And(cs) => {
            for c in cs {
                flatten_conjuncts(c, out);
            }
        }
        other => out.push(other.clone()),
    }
}

/// Eliminates the existentials of `goal` by lazily trying candidate
/// substitutions and asking `solver` to validate each resulting
/// existential-free constraint.  The search runs per connected component of
/// the matrix's conjunct/variable graph (see the module docs); the attempt
/// budget (`max_exelim_attempts`) is shared across components.
pub fn eliminate_existentials(
    solver: &mut Solver,
    universals: &[(IdxVar, Sort)],
    hyp: &Constr,
    goal: &Constr,
) -> ExElimOutcome {
    let (matrix, ex_vars) = strip_existentials(goal);
    let _span = rel_obs::span_with("exelim.eliminate", ex_vars.len() as u64);
    let mut stats = ExElimStats {
        variables: ex_vars.len(),
        ..ExElimStats::default()
    };
    if ex_vars.is_empty() {
        let v = solver.entails_no_exists(universals, hyp, &matrix);
        return ExElimOutcome {
            validity: Some(v),
            witness: Some(BTreeMap::new()),
            stats,
        };
    }

    let index = MatrixIndex::build(&matrix, hyp, universals, &ex_vars);
    let (components, residual) = index.components(&ex_vars);

    // The existential-free conjuncts must hold regardless of any witness;
    // check them once instead of re-checking them under every assignment.
    let mut provenance = Provenance::Proved;
    if !residual.is_empty() {
        let residual_goal = Constr::conj(residual.iter().map(|&ci| index.conjuncts[ci].clone()));
        match solver.entails_no_exists(universals, hyp, &residual_goal) {
            Validity::Valid(p) => provenance = provenance.and(p),
            _ => {
                // No assignment can rescue an invalid residual: the seed
                // search would have exhausted its budget against it.
                return ExElimOutcome {
                    validity: None,
                    witness: None,
                    stats,
                };
            }
        }
    }

    let max_attempts = solver.config().max_exelim_attempts;
    let mut combined_witness: Option<BTreeMap<IdxVar, Idx>> = Some(BTreeMap::new());
    for (var_positions, conjunct_indices) in components {
        let comp_goal = Constr::conj(
            conjunct_indices
                .iter()
                .map(|&ci| index.conjuncts[ci].clone()),
        );
        let comp_candidates: Vec<(&Quantified, &[Candidate])> = var_positions
            .iter()
            .map(|&vi| (&ex_vars[vi], index.candidates[vi].as_slice()))
            .collect();
        let _comp_span = rel_obs::span_with("exelim.component", var_positions.len() as u64);
        let unresolved_before = stats.unresolved;
        let found = search_component(
            solver,
            universals,
            hyp,
            &comp_goal,
            &comp_candidates,
            &ex_vars,
            &mut stats,
            max_attempts,
        );
        rel_obs::event_with(
            "exelim.unresolved",
            (stats.unresolved - unresolved_before) as u64,
        );
        match found {
            Some((witness, Validity::Valid(p))) => {
                provenance = provenance.and(p);
                if let Some(map) = combined_witness.as_mut() {
                    map.extend(witness);
                }
            }
            Some((_, _)) => unreachable!("search_component only returns Valid"),
            None => {
                // Candidate substitution is out of ideas for this component.
                // Real-sorted (cost) existentials have one more complete
                // move: Fourier–Motzkin projection is *exact* for ∃ over the
                // non-negative reals, so the projected, ∃-free component can
                // be handed back to the solver pipeline.
                let comp_vars: Vec<&Quantified> =
                    var_positions.iter().map(|&vi| &ex_vars[vi]).collect();
                match fm_projection(solver, universals, hyp, &comp_goal, &comp_vars, &mut stats) {
                    Some(Validity::Valid(p)) => {
                        provenance = provenance.and(p);
                        // A projected component has no syntactic witness.
                        combined_witness = None;
                    }
                    _ => {
                        return ExElimOutcome {
                            validity: None,
                            witness: None,
                            stats,
                        }
                    }
                }
            }
        }
    }

    ExElimOutcome {
        // The provenance of the instantiated checks carries over: witnesses
        // validated symbolically are a *proof*.
        validity: Some(Validity::Valid(provenance)),
        witness: combined_witness,
        stats,
    }
}

/// Lazily searches one component's candidate cross product.  Returns the
/// resolved substitution and its (valid) verdict, or `None` when the budget
/// is exhausted or no assignment works.
#[allow(clippy::too_many_arguments)]
fn search_component(
    solver: &mut Solver,
    universals: &[(IdxVar, Sort)],
    hyp: &Constr,
    comp_goal: &Constr,
    candidates: &[(&Quantified, &[Candidate])],
    all_ex_vars: &[Quantified],
    stats: &mut ExElimStats,
    max_attempts: usize,
) -> Option<(BTreeMap<IdxVar, Idx>, Validity)> {
    let mut assignment: Vec<usize> = vec![0; candidates.len()];
    let vars: Vec<&Quantified> = candidates.iter().map(|(q, _)| *q).collect();
    let mut resolver = Resolver::new(&vars, all_ex_vars);
    let mut chosen: Vec<&Candidate> = Vec::with_capacity(candidates.len());
    // Memoized rejection: instantiated goals already refuted under an
    // earlier assignment (distinct candidate tuples routinely resolve to
    // the same instantiation once mutual references are substituted out).
    let mut rejected: HashMap<u64, Vec<Constr>> = HashMap::new();
    // Unresolvable candidates and memo-pruned repeats do not spend the
    // attempt budget (screen rejections do: a screened candidate was a
    // genuine try, just a cheap one) — but budget-free assignments must
    // not let the odometer walk an astronomically large cross product
    // either, so exploration itself is capped at a multiple of the budget.
    let max_explored = max_attempts.saturating_mul(64);
    let mut explored = 0usize;
    let screen_bound = solver.config().inner_quantifier_bound;
    // An `∃` left under a binder evaluates by bounded search, so a false
    // reading proves nothing: goals that still hold one skip the screen.
    let screenable = comp_goal.existential_vars().is_empty();
    let mut screen_env = rel_index::IdxEnv::new();
    loop {
        explored += 1;
        if stats.attempts >= max_attempts || explored > max_explored {
            let (reason, limit) = if stats.attempts >= max_attempts {
                (SearchExhaustedReason::AttemptBudget, max_attempts as u64)
            } else {
                (SearchExhaustedReason::ComponentBlowup, max_explored as u64)
            };
            stats.exhausted = stats.exhausted.or(Some((reason, limit)));
            rel_obs::event_with(reason.event_name(), limit);
            return None;
        }
        chosen.clear();
        chosen.extend(
            candidates
                .iter()
                .zip(&assignment)
                .map(|((_, cands), &k)| &cands[k]),
        );
        if let Some(resolved) = resolver.resolve(&chosen) {
            // One traversal for the whole assignment — the resolver
            // guarantees the replacements mention no existential variables,
            // which is exactly `subst_all`'s precondition.
            let instantiated = comp_goal.subst_all(&resolved);
            let hash = constr_hash(&instantiated);
            let seen = rejected
                .get(&hash)
                .is_some_and(|bucket| bucket.contains(&instantiated));
            if seen {
                solver.note_exelim_pruned();
            } else {
                stats.attempts += 1;
                solver.note_exelim_attempt();
                if screenable
                    && screen_rejects(
                        universals,
                        hyp,
                        &instantiated,
                        screen_bound,
                        &mut screen_env,
                    )
                {
                    // A concrete on-grid counterexample: the full pipeline
                    // could only have said `Invalid` here, at far greater
                    // cost.  Memoize the rejection like any other.
                    solver.note_exelim_pruned();
                    rejected.entry(hash).or_default().push(instantiated);
                } else {
                    let verdict = solver.entails_no_exists(universals, hyp, &instantiated);
                    if verdict.is_valid() {
                        return Some((resolved, verdict));
                    }
                    rejected.entry(hash).or_default().push(instantiated);
                }
            }
        } else {
            stats.unresolved += 1;
        }

        // Advance the candidate odometer.
        let mut i = 0;
        loop {
            if i == assignment.len() {
                // The candidate pool ran dry without hitting any cap: not a
                // budget failure, so no `SearchExhaustedReason` — but the
                // trace still records that the search ended empty-handed.
                rel_obs::event_with("exelim.exhausted.candidates", stats.attempts as u64);
                return None;
            }
            assignment[i] += 1;
            if assignment[i] < candidates[i].1.len() {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

fn constr_hash(c: &Constr) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    c.hash(&mut h);
    h.finish()
}

/// Diagonal probe values for the candidate screen.  Every value is below
/// the solver's minimum per-variable grid size (`per_var_grid` never drops
/// under 3), which is what makes a screen rejection *verdict-preserving*:
/// the falsifying point lies on the exhaustive grid the full numeric layer
/// would sweep anyway, so the full pipeline could only have reported
/// `Invalid` too — never `Valid` (the symbolic layers are sound) and never
/// a different boolean.
const SCREEN_DIAGONAL: [u64; 3] = [0, 1, 2];

/// Cheap rejection screen for one instantiated candidate: evaluates
/// `hyp ⟹ goal` at a handful of small grid points and returns `true` when
/// one falsifies it.  Most candidate assignments are wrong, and refuting a
/// wrong one through the full pipeline is expensive in exactly the case the
/// symbolic path is supposed to win (prepared facts, lemma saturation and a
/// Fourier–Motzkin run spent on a goal a single evaluation kills).  The
/// screen rejects those candidates at tree-evaluation cost; candidates that
/// survive go through the full solver unchanged.  Goals that still hold an
/// `∃` under a binder are not screened: bounded search reads such an `∃` as
/// false whenever its witness lies past the bound.
fn screen_rejects(
    universals: &[(IdxVar, Sort)],
    hyp: &Constr,
    goal: &Constr,
    bound: u64,
    env: &mut rel_index::IdxEnv,
) -> bool {
    use rel_index::Extended;
    for k in SCREEN_DIAGONAL {
        for (v, _) in universals {
            env.bind(v.clone(), Extended::from(k));
        }
        if hyp.eval_bounded(env, bound) && !goal.eval_bounded(env, bound) {
            return true;
        }
    }
    false
}

/// Replaces `∃ v₁…vₖ :: ℝ. component` by its FM projection and re-checks;
/// only a `Valid` outcome is forwarded (anything else falls back to the
/// caller's bounded numeric search).  ℕ-sorted existentials are left alone:
/// rational projection over-approximates integer satisfiability, and proving
/// an over-approximated goal would be unsound.
fn fm_projection(
    solver: &mut Solver,
    universals: &[(IdxVar, Sort)],
    hyp: &Constr,
    matrix: &Constr,
    ex_vars: &[&Quantified],
    stats: &mut ExElimStats,
) -> Option<Validity> {
    if !solver.config().use_fm || ex_vars.is_empty() {
        return None;
    }
    if ex_vars.iter().any(|q| q.sort != Sort::Real) {
        return None;
    }
    // The projection treats the existentials as goal-local; a hypothesis
    // mentioning one (never produced by the bidirectional rules) would
    // change its meaning.
    if ex_vars.iter().any(|q| hyp.mentions(&q.var)) {
        return None;
    }
    let vars: Vec<IdxVar> = ex_vars.iter().map(|q| q.var.clone()).collect();
    let limits = solver.fm_limits().clone();
    let mut abort = None;
    let projected = match fm::project_reals_with(matrix, &vars, &limits, &mut abort) {
        Some(p) => p,
        None => {
            // A capped projection is the search's last complete move dying
            // to a limit, not to a missing candidate: record which one.
            if let Some((reason, limit)) = abort {
                stats.exhausted = stats.exhausted.or(Some((reason, limit)));
                rel_obs::event_with(reason.event_name(), limit);
            }
            return None;
        }
    };
    let verdict = solver.entails_no_exists(universals, hyp, &projected);
    if verdict.is_valid() {
        solver.note_fm_projection();
        Some(verdict)
    } else {
        None
    }
}

/// Resolves candidate assignments whose terms mention other existentials
/// of the component, in dependency order.
///
/// A candidate may name another prefix existential (`a := b + 1`); the
/// assignment is usable only when every such reference can be substituted
/// away.  The candidates' footprints form a dependency graph over the
/// component's variables: a depth-first walk with on-stack marks rejects a
/// cycle, or a reference outside the component, before any term is built.
/// An acyclic assignment then substitutes each variable's resolved term
/// once, dependencies first.  `Idx::subst` is syntactic, so each result is
/// the fully unfolded term repeated substitution to a fixed point builds.
struct Resolver<'a> {
    /// The component's variables, by slot.
    vars: &'a [&'a Quantified],
    /// All prefix existentials (footprints index into this list).
    all_ex_vars: &'a [Quantified],
    /// Component slot of each prefix existential, `None` outside it.
    slot_of: Vec<Option<usize>>,
    /// Per-slot walk state (reset per assignment).
    visit: Vec<Visit>,
    /// Slots in dependency order (dependencies first).
    order: Vec<usize>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Visit {
    New,
    OnStack,
    Done,
}

impl<'a> Resolver<'a> {
    fn new(vars: &'a [&'a Quantified], all_ex_vars: &'a [Quantified]) -> Resolver<'a> {
        let slot_of = all_ex_vars
            .iter()
            .map(|q| vars.iter().position(|v| v.var == q.var))
            .collect();
        Resolver {
            vars,
            all_ex_vars,
            slot_of,
            visit: vec![Visit::New; vars.len()],
            order: Vec::with_capacity(vars.len()),
        }
    }

    /// The substitution for one assignment (`chosen[s]` is slot `s`'s
    /// candidate) with every existential reference resolved, or `None`
    /// when the references form a cycle or leave the component.
    fn resolve(&mut self, chosen: &[&Candidate]) -> Option<BTreeMap<IdxVar, Idx>> {
        self.visit.fill(Visit::New);
        self.order.clear();
        for slot in 0..chosen.len() {
            if !self.walk(slot, chosen) {
                return None;
            }
        }
        let mut resolved = BTreeMap::new();
        for &slot in &self.order {
            let candidate = chosen[slot];
            let mut term = candidate.term.clone();
            for &p in &candidate.footprint {
                let w = &self.all_ex_vars[p].var;
                term = term.subst(w, &resolved[w]);
            }
            resolved.insert(self.vars[slot].var.clone(), term);
        }
        Some(resolved)
    }

    /// Depth-first post-order over the footprints from `slot`; `false` on
    /// a cycle or an out-of-component reference.
    fn walk(&mut self, slot: usize, chosen: &[&Candidate]) -> bool {
        match self.visit[slot] {
            Visit::Done => return true,
            Visit::OnStack => return false,
            Visit::New => {}
        }
        self.visit[slot] = Visit::OnStack;
        for &p in &chosen[slot].footprint {
            let Some(dep) = self.slot_of[p] else {
                return false;
            };
            if !self.walk(dep, chosen) {
                return false;
            }
        }
        self.visit[slot] = Visit::Done;
        self.order.push(slot);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveConfig;
    use proptest::prelude::*;

    /// The reference resolver the production [`Resolver`] replaced: repeated
    /// substitution until a fixed point; `None` if a cyclic dependency (or an
    /// existential outside `subst`) prevents resolution.
    fn resolve_mutual(
        subst: &BTreeMap<IdxVar, Idx>,
        ex_vars: &[Quantified],
    ) -> Option<BTreeMap<IdxVar, Idx>> {
        let ex_names: Vec<&IdxVar> = ex_vars.iter().map(|q| &q.var).collect();
        let mut out = subst.clone();
        for _ in 0..=ex_vars.len() {
            let mut changed = false;
            let snapshot = out.clone();
            for (_v, idx) in out.iter_mut() {
                for w in &ex_names {
                    if idx.mentions(w) {
                        let replacement = snapshot.get(*w)?.clone();
                        if replacement.mentions(w) {
                            // Self-referential candidate: unusable.
                            return None;
                        }
                        *idx = idx.subst(w, &replacement);
                        changed = true;
                    }
                }
            }
            if !changed {
                // Verify no existential variable remains anywhere.
                if out
                    .values()
                    .all(|i| ex_names.iter().all(|w| !i.mentions(w)))
                {
                    return Some(out);
                }
                return None;
            }
        }
        None
    }

    fn nat_universals(names: &[&str]) -> Vec<(IdxVar, Sort)> {
        names.iter().map(|n| (IdxVar::new(*n), Sort::Nat)).collect()
    }

    #[test]
    fn strip_collects_nested_existentials() {
        let c = Constr::exists(
            "i",
            Sort::Nat,
            Constr::eq(Idx::var("i"), Idx::var("n")).and(Constr::exists(
                "b",
                Sort::Nat,
                Constr::leq(Idx::var("b"), Idx::var("i")),
            )),
        );
        let (matrix, vars) = strip_existentials(&c);
        assert_eq!(vars.len(), 2);
        assert!(matrix.existential_vars().is_empty());
    }

    /// `∀c. n = c + 1 → ∃i. c = i ∧ i ≤ c` — the shape comp's spine
    /// produces: the witness `i := c` names the universal binder.
    fn comp_shaped_goal() -> Constr {
        Constr::forall(
            "c",
            Sort::Nat,
            Constr::eq(Idx::var("n"), Idx::var("c") + Idx::one()).implies(Constr::exists(
                "i",
                Sort::Nat,
                Constr::eq(Idx::var("c"), Idx::var("i"))
                    .and(Constr::leq(Idx::var("i"), Idx::var("c"))),
            )),
        )
    }

    #[test]
    fn existentials_under_a_binder_are_eliminated_in_its_scope() {
        let goal = comp_shaped_goal();
        // The `∃` stays under its `∀`: hoisting it would put its witness
        // out of scope.
        let (_, vars) = strip_existentials(&goal);
        assert!(vars.is_empty());
        let mut s = Solver::new();
        let u = nat_universals(&["n"]);
        let out = eliminate_existentials(&mut s, &u, &Constr::Top, &goal);
        assert_eq!(out.validity, Some(Validity::proved()));
        // Once the solver has opened `∀c` and `n = c + 1 →`, the witness
        // is in scope and found.
        let Constr::Forall(_, body) = &goal else {
            unreachable!()
        };
        let Constr::Implies(hyp, inner) = body.as_ref() else {
            unreachable!()
        };
        let out = eliminate_existentials(&mut s, &nat_universals(&["n", "c"]), hyp, inner);
        assert_eq!(out.validity, Some(Validity::proved()));
        assert_eq!(out.witness.unwrap()[&IdxVar::new("i")], Idx::var("c"));
    }

    #[test]
    fn candidates_naming_an_inner_bound_variable_are_never_tried() {
        // ∃i. 1 ≤ i ∧ ∀c. i = c: the comparison under `∀c` offers `c`,
        // which is out of scope at the prefix.  Only `0` and `1` are tried.
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::leq(Idx::one(), Idx::var("i")).and(Constr::forall(
                "c",
                Sort::Nat,
                Constr::eq(Idx::var("i"), Idx::var("c")),
            )),
        );
        let u = nat_universals(&["n"]);
        let (matrix, vars) = strip_existentials(&goal);
        let index = MatrixIndex::build(&matrix, &Constr::Top, &u, &vars);
        assert!(index.candidates[0]
            .iter()
            .all(|cand| cand.term != Idx::var("c")));
        assert_eq!(index.candidates[0].len(), 2);
        let mut s = Solver::new();
        let out = eliminate_existentials(&mut s, &u, &Constr::Top, &goal);
        assert!(out.validity.is_none());
        assert_eq!(out.stats.attempts, 2);
    }

    #[test]
    fn equality_candidates_are_found_and_used() {
        let mut s = Solver::new();
        let u = nat_universals(&["n", "alpha"]);
        // The archetypal consC constraint: ∃ i, β. n = i + 1 ∧ α = β + 1 ∧ i ≤ n ∧ β ≤ α
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::exists(
                "beta",
                Sort::Nat,
                Constr::eq(Idx::var("n"), Idx::var("i") + Idx::one())
                    .and(Constr::eq(Idx::var("alpha"), Idx::var("beta") + Idx::one()))
                    .and(Constr::leq(Idx::var("i"), Idx::var("n")))
                    .and(Constr::leq(Idx::var("beta"), Idx::var("alpha"))),
            ),
        );
        let hyp =
            Constr::leq(Idx::one(), Idx::var("n")).and(Constr::leq(Idx::one(), Idx::var("alpha")));
        let out = eliminate_existentials(&mut s, &u, &hyp, &goal);
        assert!(matches!(out.validity, Some(Validity::Valid(_))));
        let w = out.witness.unwrap();
        assert_eq!(
            rel_index::LinExpr::of_idx(&w[&IdxVar::new("i")]),
            rel_index::LinExpr::of_idx(&(Idx::var("n") - Idx::one()))
        );
    }

    #[test]
    fn upper_bound_candidates_work_for_cost_variables() {
        let mut s = Solver::new();
        let u = nat_universals(&["t"]);
        // ∃ t2. t2 ≤ t ∧ 0 ≤ t2  — witness t2 := 0 (default candidate) or t.
        let goal = Constr::exists(
            "t2",
            Sort::Real,
            Constr::leq(Idx::var("t2"), Idx::var("t"))
                .and(Constr::leq(Idx::zero(), Idx::var("t2"))),
        );
        let out = eliminate_existentials(&mut s, &u, &Constr::Top, &goal);
        assert!(matches!(out.validity, Some(Validity::Valid(_))));
    }

    #[test]
    fn lower_bound_candidates_work_for_inferred_costs() {
        let mut s = Solver::new();
        let u = nat_universals(&["c", "t"]);
        // ∃ t2. c ≤ t2 ∧ t2 + 1 ≤ t, given c + 1 ≤ t.  Witness t2 := c.
        let hyp = Constr::leq(Idx::var("c") + Idx::one(), Idx::var("t"));
        let goal = Constr::exists(
            "t2",
            Sort::Real,
            Constr::leq(Idx::var("c"), Idx::var("t2"))
                .and(Constr::leq(Idx::var("t2") + Idx::one(), Idx::var("t"))),
        );
        let out = eliminate_existentials(&mut s, &u, &hyp, &goal);
        assert!(matches!(out.validity, Some(Validity::Valid(_))));
        assert_eq!(out.witness.unwrap()[&IdxVar::new("t2")], Idx::var("c"));
    }

    #[test]
    fn chained_candidates_resolve_mutually() {
        let mut s = Solver::new();
        let u = nat_universals(&["n"]);
        // ∃ a b. a = b + 1 ∧ b = n ∧ a ≤ n + 1
        let goal = Constr::exists(
            "a",
            Sort::Nat,
            Constr::exists(
                "b",
                Sort::Nat,
                Constr::eq(Idx::var("a"), Idx::var("b") + Idx::one())
                    .and(Constr::eq(Idx::var("b"), Idx::var("n")))
                    .and(Constr::leq(Idx::var("a"), Idx::var("n") + Idx::one())),
            ),
        );
        let out = eliminate_existentials(&mut s, &u, &Constr::Top, &goal);
        assert!(matches!(out.validity, Some(Validity::Valid(_))));
    }

    #[test]
    fn cyclic_assignments_are_skipped_and_counted() {
        let mut s = Solver::new();
        let u = nat_universals(&["n"]);
        // ∃ a b. a = b ∧ a ≤ n: the first assignment (a := b, b := a) is a
        // cycle, skipped without an attempt; the next one resolves and works.
        let goal = Constr::exists(
            "a",
            Sort::Nat,
            Constr::exists(
                "b",
                Sort::Nat,
                Constr::eq(Idx::var("a"), Idx::var("b"))
                    .and(Constr::leq(Idx::var("a"), Idx::var("n"))),
            ),
        );
        let out = eliminate_existentials(&mut s, &u, &Constr::Top, &goal);
        assert!(matches!(out.validity, Some(Validity::Valid(_))));
        assert_eq!((out.stats.unresolved, out.stats.attempts), (1, 1));
        let w = out.witness.unwrap();
        assert_eq!(w[&IdxVar::new("a")], w[&IdxVar::new("b")]);
    }

    #[test]
    fn unsatisfiable_existentials_report_no_witness() {
        let mut s = Solver::with_config(SolveConfig {
            max_exelim_attempts: 32,
            ..SolveConfig::default()
        });
        let u = nat_universals(&["n"]);
        // ∃ i. i = n ∧ i = n + 1  — no candidate can satisfy both.
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::eq(Idx::var("i"), Idx::var("n"))
                .and(Constr::eq(Idx::var("i"), Idx::var("n") + Idx::one())),
        );
        let out = eliminate_existentials(&mut s, &u, &Constr::Top, &goal);
        assert!(out.validity.is_none());
        assert!(out.stats.attempts >= 2);
        // The pool ran dry without hitting a cap: no reason is reported.
        assert_eq!(out.stats.exhausted, None);
    }

    #[test]
    fn attempt_budget_exhaustion_is_tagged_with_its_cap() {
        let mut s = Solver::with_config(SolveConfig {
            max_exelim_attempts: 0,
            ..SolveConfig::default()
        });
        let u = nat_universals(&["n"]);
        // Solvable (i := n), but the zero budget exhausts the component
        // search before the first candidate is tried.
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::eq(Idx::var("i"), Idx::var("n")).and(Constr::leq(Idx::var("i"), Idx::var("n"))),
        );
        let out = eliminate_existentials(&mut s, &u, &Constr::Top, &goal);
        assert!(out.validity.is_none());
        assert_eq!(
            out.stats.exhausted,
            Some((SearchExhaustedReason::AttemptBudget, 0))
        );
    }

    #[test]
    fn independent_components_are_searched_separately() {
        // Two disjoint existential groups: the joint search would enumerate
        // the cross product of their candidate lists; the component search
        // adds them.
        let mut s = Solver::new();
        let u = nat_universals(&["n", "m"]);
        let hyp =
            Constr::leq(Idx::one(), Idx::var("n")).and(Constr::leq(Idx::nat(2), Idx::var("m")));
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::exists(
                "b",
                Sort::Nat,
                Constr::eq(Idx::var("n"), Idx::var("i") + Idx::one())
                    .and(Constr::eq(Idx::var("m"), Idx::var("b") + Idx::nat(2))),
            ),
        );
        let out = eliminate_existentials(&mut s, &u, &hyp, &goal);
        assert!(matches!(out.validity, Some(Validity::Valid(_))));
        let w = out.witness.unwrap();
        assert_eq!(w.len(), 2);
        // Sum, not product: each component resolves within its own list.
        assert!(out.stats.attempts <= 4, "attempts: {}", out.stats.attempts);
    }

    #[test]
    fn screen_rejects_doomed_candidates_without_solver_calls() {
        // Every candidate for `i` instantiates the goal to something false
        // at a small grid point (i = n forces n + 1 <= n), so the screen
        // rejects them at evaluation cost and the pruned counter records it.
        let mut s = Solver::new();
        let u = nat_universals(&["n"]);
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::eq(Idx::var("i"), Idx::var("n"))
                .and(Constr::leq(Idx::var("i") + Idx::one(), Idx::var("n"))),
        );
        let out = eliminate_existentials(&mut s, &u, &Constr::Top, &goal);
        assert!(out.validity.is_none(), "no candidate can work");
        assert!(
            s.stats().exelim_candidates_pruned >= 1,
            "screen rejections must be counted: {:?}",
            s.stats()
        );
    }

    #[test]
    fn real_component_projects_even_next_to_a_nat_component() {
        // A ℕ component (solved by candidate substitution) alongside an
        // all-ℝ component that only Fourier–Motzkin projection can close:
        // the seed's whole-matrix fallback required *every* existential to
        // be real-sorted, so this goal used to fall through to the bounded
        // numeric search.
        let mut s = Solver::new();
        let u = vec![
            (IdxVar::new("n"), Sort::Nat),
            (IdxVar::new("c"), Sort::Real),
            (IdxVar::new("d"), Sort::Real),
        ];
        let hyp = Constr::leq(Idx::one(), Idx::var("n"))
            .and(Constr::lt(Idx::var("c") + Idx::one(), Idx::var("d")));
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::exists(
                "t",
                Sort::Real,
                Constr::eq(Idx::var("n"), Idx::var("i") + Idx::one())
                    .and(Constr::lt(Idx::var("c"), Idx::var("t")))
                    .and(Constr::lt(Idx::var("t"), Idx::var("d"))),
            ),
        );
        let out = eliminate_existentials(&mut s, &u, &hyp, &goal);
        assert!(matches!(out.validity, Some(Validity::Valid(_))));
        assert!(s.stats().fm_projections >= 1);
        assert_eq!(s.stats().points_evaluated, 0);
        // The projected component has no syntactic witness, so none is
        // reported for the combined goal.
        assert!(out.witness.is_none());
    }

    // ---- differential oracle: dependency-order resolution agrees with the
    // fixed-point resolver on every assignment ----

    /// One random component: its variables (positions into `ex_vars`, which
    /// also holds existentials outside the component) and 1–3 candidate
    /// terms per variable.
    #[derive(Debug)]
    struct ComponentCase {
        ex_vars: Vec<Quantified>,
        component: Vec<usize>,
        candidates: Vec<Vec<Idx>>,
    }

    /// Components of up to 6 variables whose candidates chain, form 2- and
    /// 3-cycles (both planted and by chance), refer to themselves, name an
    /// existential outside the component, or put a `Σ_k` binder over a
    /// reference whose resolution mentions the universal `k` — which forces
    /// `Idx::subst` to rename the binder.
    struct ArbComponent;

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    impl Strategy for ArbComponent {
        type Value = ComponentCase;

        fn generate(&self, rng: &mut TestRng) -> ComponentCase {
            let ex_vars: Vec<Quantified> = (0..8)
                .map(|i| Quantified::new(format!("%e{i}"), Sort::Nat))
                .collect();
            let size = 1 + pick(rng, 6);
            // A random subset of the prefix positions, in a random order:
            // slot order and position order differ.
            let mut pool: Vec<usize> = (0..ex_vars.len()).collect();
            let component: Vec<usize> = (0..size)
                .map(|_| pool.remove(pick(rng, pool.len())))
                .collect();
            let var = |slot: usize| Idx::Var(ex_vars[component[slot]].var.clone());
            let mut candidates: Vec<Vec<Idx>> = (0..size)
                .map(|slot| {
                    (0..1 + pick(rng, 3))
                        .map(|_| {
                            let any = var(pick(rng, size));
                            let later = var(slot + pick(rng, size - slot));
                            let outside =
                                Idx::Var(ex_vars[pool[pick(rng, pool.len())]].var.clone());
                            match pick(rng, 9) {
                                0 => Idx::nat(pick(rng, 3) as u64),
                                1 => Idx::var("n") + Idx::var("k"),
                                2 => Idx::var("m") - Idx::var("k"),
                                3 => any + Idx::one(),
                                4 => later * Idx::nat(2),
                                5 => outside + Idx::var("n"),
                                6 => Idx::sum("k", Idx::zero(), Idx::var("n"), Idx::var("k") + any),
                                7 => Idx::sum("k", Idx::zero(), later, Idx::var("k")),
                                _ => Idx::max(any, later),
                            }
                        })
                        .collect()
                })
                .collect();
            if size >= 2 && pick(rng, 2) == 0 {
                // Plant a 2- or 3-cycle.
                let len = if size >= 3 { 2 + pick(rng, 2) } else { 2 };
                for (i, cands) in candidates.iter_mut().take(len).enumerate() {
                    cands.push(var((i + 1) % len) + Idx::var("m"));
                }
            }
            ComponentCase {
                ex_vars,
                component,
                candidates,
            }
        }
    }

    /// Every assignment of the case's candidate cross product, resolved by
    /// the oracle and by [`Resolver`].
    #[allow(clippy::type_complexity)]
    fn resolve_both_ways(
        case: &ComponentCase,
    ) -> Vec<(Option<BTreeMap<IdxVar, Idx>>, Option<BTreeMap<IdxVar, Idx>>)> {
        let universals = nat_universals(&["n", "m", "k"]);
        let positions: BTreeMap<&IdxVar, usize> = case
            .ex_vars
            .iter()
            .enumerate()
            .map(|(i, q)| (&q.var, i))
            .collect();
        let candidates: Vec<Vec<Candidate>> = case
            .candidates
            .iter()
            .map(|terms| {
                terms
                    .iter()
                    .map(|t| {
                        Candidate::in_scope(t.clone(), &universals, &positions)
                            .expect("generated terms are in scope")
                    })
                    .collect()
            })
            .collect();
        let vars: Vec<&Quantified> = case.component.iter().map(|&p| &case.ex_vars[p]).collect();
        let mut resolver = Resolver::new(&vars, &case.ex_vars);
        let mut assignment = vec![0; vars.len()];
        let mut out = Vec::new();
        loop {
            let chosen: Vec<&Candidate> = candidates
                .iter()
                .zip(&assignment)
                .map(|(cands, &k)| &cands[k])
                .collect();
            let subst: BTreeMap<IdxVar, Idx> = vars
                .iter()
                .zip(&chosen)
                .map(|(q, c)| (q.var.clone(), c.term.clone()))
                .collect();
            out.push((
                resolve_mutual(&subst, &case.ex_vars),
                resolver.resolve(&chosen),
            ));
            let mut i = 0;
            loop {
                if i == assignment.len() {
                    return out;
                }
                assignment[i] += 1;
                if assignment[i] < candidates[i].len() {
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
        }
    }

    proptest! {
        #[test]
        fn dependency_order_resolution_matches_the_fixpoint_oracle(case in ArbComponent) {
            for (oracle, resolved) in resolve_both_ways(&case) {
                prop_assert_eq!(oracle, resolved, "case: {:?}", case);
            }
        }
    }

    #[test]
    fn resolver_oracle_cases_cover_every_outcome() {
        // The property above is only as strong as its cases: they must
        // resolve, fail, and exercise binder renaming.
        let mut rng = TestRng::from_label("resolver-coverage");
        let (mut resolved, mut unresolved, mut renamed) = (0, 0, 0);
        for _ in 0..256 {
            for (oracle, _) in resolve_both_ways(&ArbComponent.generate(&mut rng)) {
                match oracle {
                    Some(map) => {
                        resolved += 1;
                        if format!("{map:?}").contains("\"k'\"") {
                            renamed += 1;
                        }
                    }
                    None => unresolved += 1,
                }
            }
        }
        assert!(
            resolved > 100 && unresolved > 100 && renamed > 10,
            "resolved {resolved}, unresolved {unresolved}, renamed {renamed}"
        );
    }

    #[test]
    fn solver_entry_point_integrates_elimination() {
        let mut s = Solver::new();
        let u = nat_universals(&["n"]);
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::eq(Idx::var("n"), Idx::var("i") + Idx::one()),
        );
        // Valid only when n ≥ 1.
        let hyp = Constr::leq(Idx::one(), Idx::var("n"));
        assert!(s.entails(&u, &hyp, &goal).is_valid());
    }
}
