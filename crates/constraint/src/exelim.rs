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
//! **The one-point rule.**  Before any candidate is searched, the prefix
//! existentials the matrix already defines are removed:
//! `∃x.(x = e ∧ R) ⟺ R[e/x]`.  A top-level equality conjunct (flattened
//! through `∧` only) that solves for `x` as a term `e` over universals
//! defines `x := e`; definitions chain, and one substitution applies them
//! all.  A defined variable joins the witness map and spends no attempt:
//! any candidate that could work must equal `e` under the hypothesis
//! anyway.  The `exelim.defined` event records how many each run removed.
//!
//! **The indexed search.**  The search works off a `MatrixIndex` built in
//! one pass: the matrix's top-level conjuncts, each with its existential
//! footprint (the prefix existentials it mentions), candidates collected
//! per conjunct, each comparison linearized once for all the variables it
//! mentions.  Because `∃x⃗.(A ∧ B) ⟺ (∃x⃗₁.A) ∧ (∃x⃗₂.B)` when `A` and
//! `B` mention disjoint variable sets, the conjuncts partition into
//! **connected components** solved independently — the cross product of
//! candidate lists collapses into a sum of small per-component searches,
//! each checking only its own conjuncts.  Candidates that name other
//! existentials are resolved in **dependency order** over their
//! precomputed footprints; an assignment whose references form a cycle or
//! leave the component is skipped before any term is built.
//!
//! **The instance table.**  A component search decides *conjunct
//! instances*, not whole instantiated goals.  An instance is one conjunct
//! under one tuple of resolved terms for the variables in its footprint;
//! the odometer usually moves one variable at a time, so most conjuncts keep
//! their instance from one assignment to the next.  After each resolved
//! assignment only the conjuncts whose footprint saw a term change are
//! re-keyed, and a conjunct is substituted only when its key is new.  Each
//! instance caches its screen result and its verdict, so an instance is
//! screened and decided at most once per search.  An assignment is its
//! tuple of instance ids: a repeated tuple is skipped without an attempt,
//! and a new one is rejected at once when one of its instances is already
//! refuted.  Otherwise its unscreened instances are screened and its
//! undecided ones decided, in conjunct order, stopping at the first
//! failure — the order in which the solver decomposes the instantiated
//! conjunction, so verdicts, attempts and witnesses match the whole-goal
//! search.  Rejections without a solver call count as
//! `exelim_candidates_pruned`.  The table lives for one search only;
//! per-candidate verdicts never reach the verdict caches.
//!
//! **One exit.**  The one-point rule and this search are the only ways a
//! goal's existentials are removed.  A goal is valid when every component
//! finds a witness; when one component's search fails, no other layer
//! retries the goal, and the solver reports the failure as an exhausted
//! search rather than as a counterexample.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use rel_index::{Atom, Idx, IdxVar, LinExpr, Rational, Sort};

use crate::constr::{Constr, Quantified};
use crate::solver::{PreparedHyp, Provenance, SearchExhaustedReason, Solver, Validity};

/// Statistics from one elimination run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExElimStats {
    /// Number of existential variables eliminated.
    pub variables: usize,
    /// How many of them the one-point rule defined (no attempt spent);
    /// the rest went to the candidate search.
    pub defined: usize,
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
    /// The substitution that made the goal provable, with the provenance of
    /// that proof; `None` when no assignment worked.
    pub found: Option<(BTreeMap<IdxVar, Idx>, Provenance)>,
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
            (Constr::Implies(a.clone(), Arc::new(inner)), vars)
        }
        other => (other.clone(), Vec::new()),
    }
}

/// Collects candidate substitutions from the atomic comparisons of `c`:
/// `v = I`, `v ≤ I` and `I ≤ v` each contribute `I` for `v` (paper §6,
/// "Constraint solving").  `vars` are the variables wanted, each with the
/// index of its list in `terms`.  The variable may occur *linearly inside*
/// the comparison (the consC rule produces `n ≐ i + 1` for existential
/// `i`), in which case the comparison is solved for it.  Each comparison
/// that mentions a wanted variable is linearized once and solved for every
/// one of them; a comparison that mentions none is skipped unlinearized.
/// Per variable, candidates arrive in traversal order, as a separate walk
/// per variable would find them.
fn collect_candidates(c: &Constr, vars: &[(&IdxVar, usize)], terms: &mut [Vec<Idx>]) {
    match c {
        Constr::Eq(a, b) | Constr::Leq(a, b) | Constr::Lt(a, b) => {
            if !vars.iter().any(|(v, _)| a.mentions(v) || b.mentions(v)) {
                return;
            }
            let diff = linearize(a, b);
            for &(v, vi) in vars {
                if let Some(solution) = solve_for(v, &diff) {
                    push_unique(&mut terms[vi], solution);
                }
            }
        }
        Constr::And(cs) | Constr::Or(cs) => {
            for c in cs {
                collect_candidates(c, vars, terms);
            }
        }
        Constr::Not(c) => collect_candidates(c, vars, terms),
        Constr::Implies(a, b) => {
            collect_candidates(a, vars, terms);
            collect_candidates(b, vars, terms);
        }
        Constr::Forall(_, c) | Constr::Exists(_, c) => collect_candidates(c, vars, terms),
        Constr::Top | Constr::Bot => {}
    }
}

fn push_unique(acc: &mut Vec<Idx>, idx: Idx) {
    let idx = rel_index::normalize(&idx);
    if !acc.contains(&idx) {
        acc.push(idx);
    }
}

/// The linear normal form of `a − b`, the one shape every comparison
/// `a ⋈ b` is solved in.
fn linearize(a: &Idx, b: &Idx) -> LinExpr {
    LinExpr::of_idx(a).sub(&LinExpr::of_idx(b))
}

/// Solves the linearized comparison `diff ⋈ 0` for `v` when `v` occurs
/// linearly (as the plain atom `v`) in `diff`: returns the boundary value of
/// `v`, i.e. the term `I` such that the comparison instantiated with
/// `v := I` makes the two sides equal.
fn solve_for(v: &IdxVar, diff: &LinExpr) -> Option<Idx> {
    let v_atom = Atom(Idx::Var(v.clone()));
    let coeff = *diff.coeffs.get(&v_atom)?;
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
    let solution = rest.scale(Rational::from_int(-1) / coeff).to_idx();
    if solution.mentions(v) {
        None
    } else {
        Some(solution)
    }
}

/// The one-point rule, `∃x.(x = e ∧ R) ⟺ R[e/x]`, applied to the prefix
/// `ex_vars` of `matrix` before any candidate is searched.  The defining
/// equalities are the matrix's top-level `Eq` conjuncts (flattened through
/// `∧` only: an equality under `→` holds only under its antecedent).  One
/// that solves for a prefix existential `x` as a term `e` over universals
/// only defines `x := e`; `e` is substituted into the pending equalities and
/// the pass repeats until nothing changes, so chains (`a = n`,
/// `b = a + 1`) resolve.  Returns the definitions and the existentials left
/// for the search.
///
/// This loses no witness: any candidate that works must equal `e` under
/// the hypothesis, since the equality is a conjunct.  The defining
/// equalities stay in the matrix (as `e = e` once substituted), so they are
/// still decided.  Witness sorts are unchecked here, as in the search.
fn one_point(
    matrix: &Constr,
    ex_vars: &[Quantified],
    universals: &[(IdxVar, Sort)],
) -> (BTreeMap<IdxVar, Idx>, Vec<Quantified>) {
    fn top_level_equalities(c: &Constr, out: &mut Vec<(Idx, Idx)>) {
        match c {
            Constr::And(cs) => cs.iter().for_each(|c| top_level_equalities(c, out)),
            Constr::Eq(a, b) => out.push((a.clone(), b.clone())),
            _ => {}
        }
    }
    let mut remaining = ex_vars.to_vec();
    let mut defined = BTreeMap::new();
    let mut pending = Vec::new();
    top_level_equalities(matrix, &mut pending);
    let mentions_any = |remaining: &[Quantified], (a, b): &(Idx, Idx)| {
        remaining
            .iter()
            .any(|q| a.mentions(&q.var) || b.mentions(&q.var))
    };
    let over_universals = |e: &Idx| {
        e.free_vars()
            .iter()
            .all(|w| universals.iter().any(|(u, _)| u == w))
    };
    let mut changed = true;
    while changed {
        changed = false;
        pending.retain(|eq| mentions_any(&remaining, eq));
        let mut k = 0;
        while k < pending.len() {
            let diff = linearize(&pending[k].0, &pending[k].1);
            let definition = remaining.iter().enumerate().find_map(|(i, q)| {
                solve_for(&q.var, &diff)
                    .map(|e| rel_index::normalize(&e))
                    .filter(over_universals)
                    .map(|e| (i, e))
            });
            let Some((i, e)) = definition else {
                k += 1;
                continue;
            };
            pending.remove(k);
            let x = remaining.remove(i).var;
            for (a, b) in &mut pending {
                if a.mentions(&x) {
                    *a = a.subst(&x, &e);
                }
                if b.mentions(&x) {
                    *b = b.subst(&x, &e);
                }
            }
            defined.insert(x, e);
            changed = true;
        }
    }
    (defined, remaining)
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
    /// Each conjunct's existential footprint: the positions (in the
    /// `ex_vars` list handed to `build`) of the variables it mentions.
    footprints: Vec<Vec<usize>>,
    /// Candidate substitutions per variable, sorted small-first
    /// (position-aligned with `ex_vars`).
    candidates: Vec<Vec<Candidate>>,
}

impl MatrixIndex {
    /// One pass over the matrix: flatten the conjunctive spine, compute each
    /// conjunct's existential footprint from its free variables, and collect
    /// candidates conjunct by conjunct, each comparison linearized at most
    /// once for all the footprint variables it mentions (the seed re-scanned
    /// the *whole* matrix once per variable — quadratic in practice, since
    /// every divide-and-conquer obligation has dozens of conjuncts and a
    /// dozen existentials).
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
        let mut terms: Vec<Vec<Idx>> = vec![Vec::new(); ex_vars.len()];
        // The variables of `vars` in scope at the prefix, each with its
        // position.
        let wanted = |vars: BTreeSet<IdxVar>| -> Vec<(&IdxVar, usize)> {
            vars.iter()
                .filter_map(|v| positions.get_key_value(v).map(|(&v, &vi)| (v, vi)))
                .collect()
        };
        let footprints = conjuncts
            .iter()
            .map(|conjunct| {
                let vars = wanted(conjunct.free_vars());
                collect_candidates(conjunct, &vars, &mut terms);
                vars.into_iter().map(|(_, vi)| vi).collect()
            })
            .collect();
        // Hypothesis candidates (the bidirectional rules never leak
        // existentials into the context, but direct callers can) and the
        // zero default — a frequent witness for cost variables (synchronous
        // executions).
        collect_candidates(hyp, &wanted(hyp.free_vars()), &mut terms);
        let candidates = terms
            .into_iter()
            .map(|mut terms| {
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
            footprints,
            candidates,
        }
    }

    /// Partitions the variables into connected components (two variables
    /// connect when some conjunct mentions both), returning per component
    /// the variable positions and its conjunct indices, both ascending.
    /// Conjuncts mentioning no existential variable are the residual,
    /// returned separately.
    #[allow(clippy::type_complexity)]
    fn components(&self, vars: usize) -> (Vec<(Vec<usize>, Vec<usize>)>, Vec<usize>) {
        // Union-find over variable positions.
        let mut parent: Vec<usize> = (0..vars).collect();
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
        for footprint in &self.footprints {
            for w in footprint.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        // Group variable positions and conjuncts by root, in order of each
        // component's first variable.
        let mut group_of: Vec<Option<usize>> = vec![None; vars];
        let mut components: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for vi in 0..vars {
            let root = find(&mut parent, vi);
            let group = *group_of[root].get_or_insert_with(|| {
                components.push((Vec::new(), Vec::new()));
                components.len() - 1
            });
            components[group].0.push(vi);
        }
        let mut residual = Vec::new();
        for (ci, footprint) in self.footprints.iter().enumerate() {
            match footprint.first() {
                Some(&vi) => {
                    let root = find(&mut parent, vi);
                    let group = group_of[root].expect("every root was grouped above");
                    components[group].1.push(ci);
                }
                None => residual.push(ci),
            }
        }
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
/// budget (`max_exelim_attempts`) is shared across components.  Every
/// instance is decided under the one prepared hypothesis, so the
/// hypothesis's facts and FM base system are built once for the whole
/// search.
pub fn eliminate_existentials(
    solver: &mut Solver,
    universals: &[(IdxVar, Sort)],
    hyp: &PreparedHyp<'_>,
    goal: &Constr,
) -> ExElimOutcome {
    let (matrix, ex_vars) = strip_existentials(goal);
    let _span = rel_obs::span_with("exelim.eliminate", ex_vars.len() as u64);
    let (defined, ex_vars) = one_point(&matrix, &ex_vars, universals);
    let mut stats = ExElimStats {
        variables: defined.len() + ex_vars.len(),
        defined: defined.len(),
        ..ExElimStats::default()
    };
    if !defined.is_empty() {
        rel_obs::event_with("exelim.defined", defined.len() as u64);
    }
    let matrix = matrix.subst_all(&defined);
    if ex_vars.is_empty() {
        let found = match solver.entails_no_exists(universals, hyp, &matrix) {
            Validity::Valid(p) => Some((defined, p)),
            Validity::Invalid(_) => None,
        };
        return ExElimOutcome { found, stats };
    }

    let (index, (components, residual)) = {
        let _span = rel_obs::span("exelim.index");
        let index = MatrixIndex::build(&matrix, hyp.hyp(), universals, &ex_vars);
        let parts = index.components(ex_vars.len());
        (index, parts)
    };

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
                return ExElimOutcome { found: None, stats };
            }
        }
    }

    let max_attempts = solver.config().max_exelim_attempts;
    let mut witness = defined;
    for (var_positions, conjunct_indices) in components {
        let _comp_span = rel_obs::span_with("exelim.component", var_positions.len() as u64);
        let unresolved_before = stats.unresolved;
        let found = search_component(
            solver,
            universals,
            hyp,
            &index,
            &var_positions,
            &conjunct_indices,
            &ex_vars,
            &mut stats,
            max_attempts,
        );
        rel_obs::event_with(
            "exelim.unresolved",
            (stats.unresolved - unresolved_before) as u64,
        );
        let Some((component_witness, p)) = found else {
            return ExElimOutcome { found: None, stats };
        };
        provenance = provenance.and(p);
        witness.extend(component_witness);
    }

    // The provenance of the instantiated checks carries over: witnesses
    // validated symbolically are a *proof*.
    ExElimOutcome {
        found: Some((witness, provenance)),
        stats,
    }
}

/// Lazily searches one component's candidate cross product, deciding
/// conjunct instances rather than whole instantiated goals (see the module
/// docs).  `var_positions` and `conjunct_indices` index `all_ex_vars` and
/// `index.conjuncts`.  Returns the resolved substitution and the provenance
/// of its verdict, or `None` when the budget is exhausted or no assignment
/// works.
#[allow(clippy::too_many_arguments)]
fn search_component(
    solver: &mut Solver,
    universals: &[(IdxVar, Sort)],
    hyp: &PreparedHyp<'_>,
    index: &MatrixIndex,
    var_positions: &[usize],
    conjunct_indices: &[usize],
    all_ex_vars: &[Quantified],
    stats: &mut ExElimStats,
    max_attempts: usize,
) -> Option<(BTreeMap<IdxVar, Idx>, Provenance)> {
    let candidates: Vec<&[Candidate]> = var_positions
        .iter()
        .map(|&vi| index.candidates[vi].as_slice())
        .collect();
    let vars: Vec<&Quantified> = var_positions.iter().map(|&vi| &all_ex_vars[vi]).collect();
    let mut assignment: Vec<usize> = vec![0; vars.len()];
    let mut resolver = Resolver::new(&vars, all_ex_vars);
    let mut chosen: Vec<&Candidate> = Vec::with_capacity(vars.len());
    let mut table = InstanceTable::new(index, conjunct_indices, vars.len());
    // Unresolvable candidates and repeated assignments do not spend the
    // attempt budget (screen rejections do: a screened candidate was a
    // genuine try, just a cheap one) — but budget-free assignments must
    // not let the odometer walk an astronomically large cross product
    // either, so exploration itself is capped at a multiple of the budget.
    let max_explored = max_attempts.saturating_mul(64);
    let mut explored = 0usize;
    // An `∃` left under a binder evaluates by bounded search, so a false
    // reading proves nothing: components that still hold one skip the
    // screen.
    let screen = conjunct_indices
        .iter()
        .all(|&ci| index.conjuncts[ci].existential_vars().is_empty())
        .then(|| {
            Screen::new(
                universals,
                hyp.hyp(),
                solver.config().inner_quantifier_bound,
            )
        });
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
        let resolved = {
            let _span = rel_obs::span("exelim.instantiate");
            chosen.clear();
            chosen.extend(
                candidates
                    .iter()
                    .zip(&assignment)
                    .map(|(cands, &k)| &cands[k]),
            );
            let resolved = resolver.resolve(&chosen);
            if let Some(resolved) = &resolved {
                table.instantiate(resolved, &vars, &resolver.slot_of);
            }
            resolved
        };
        match resolved {
            None => stats.unresolved += 1,
            Some(_) if !table.first_try() => solver.note_exelim_pruned(),
            Some(resolved) => {
                stats.attempts += 1;
                solver.note_exelim_attempt();
                if let Some(p) = table.decide(solver, universals, hyp, screen.as_ref()) {
                    return Some((resolved, p));
                }
            }
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
            if assignment[i] < candidates[i].len() {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// What a component search knows about one conjunct instance.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Neither screened nor decided.
    Open,
    /// Passed the screen, not yet decided.
    Screened,
    /// Decided valid.
    Valid(Provenance),
    /// Rejected by the screen or decided not valid.
    Refuted,
}

/// One conjunct under one tuple of resolved terms for its footprint.
struct Instance {
    constr: Constr,
    status: Status,
}

/// The conjunct instances of one component search.  An instance's key is
/// its conjunct (component-local) followed by the interned resolved terms
/// of its footprint, so two assignments share an instance exactly when
/// they instantiate that conjunct identically.
struct InstanceTable<'a> {
    index: &'a MatrixIndex,
    /// The component's conjuncts, as indices into `index.conjuncts`.
    conjuncts: &'a [usize],
    /// Interned resolved terms.
    term_ids: HashMap<Idx, u32>,
    /// Each slot's current term id, and whether the last assignment
    /// changed it.
    slot_terms: Vec<(u32, bool)>,
    /// Instance ids by key.
    ids: HashMap<Vec<u32>, u32>,
    instances: Vec<Instance>,
    /// The current assignment: one instance id per conjunct.
    current: Vec<u32>,
    /// Assignments already tried — all rejected, since a valid one ends
    /// the search.
    tried: HashSet<Vec<u32>>,
}

impl<'a> InstanceTable<'a> {
    fn new(index: &'a MatrixIndex, conjuncts: &'a [usize], slots: usize) -> InstanceTable<'a> {
        InstanceTable {
            index,
            conjuncts,
            term_ids: HashMap::new(),
            slot_terms: vec![(u32::MAX, true); slots],
            ids: HashMap::new(),
            instances: Vec::new(),
            current: vec![u32::MAX; conjuncts.len()],
            tried: HashSet::new(),
        }
    }

    /// Moves to a resolved assignment: re-keys the conjuncts whose
    /// footprint saw a term change and substitutes those whose key is new.
    fn instantiate(
        &mut self,
        resolved: &BTreeMap<IdxVar, Idx>,
        vars: &[&Quantified],
        slot_of: &[Option<usize>],
    ) {
        for (q, (term_id, changed)) in vars.iter().zip(&mut self.slot_terms) {
            let term = &resolved[&q.var];
            let next = self.term_ids.len() as u32;
            let id = *self.term_ids.get(term).unwrap_or(&next);
            if id == next {
                self.term_ids.insert(term.clone(), id);
            }
            *changed = id != *term_id;
            *term_id = id;
        }
        let slot =
            |p: usize| slot_of[p].expect("a component's conjuncts mention only its variables");
        let mut key = Vec::new();
        for (j, &ci) in self.conjuncts.iter().enumerate() {
            let footprint = &self.index.footprints[ci];
            if !footprint.iter().any(|&p| self.slot_terms[slot(p)].1) {
                continue;
            }
            key.clear();
            key.push(j as u32);
            key.extend(footprint.iter().map(|&p| self.slot_terms[slot(p)].0));
            self.current[j] = match self.ids.get(&key) {
                Some(&id) => id,
                None => {
                    // The resolver guarantees the replacements mention no
                    // existential variable: `subst_all`'s precondition.
                    let id = self.instances.len() as u32;
                    self.instances.push(Instance {
                        constr: self.index.conjuncts[ci].subst_all(resolved),
                        status: Status::Open,
                    });
                    self.ids.insert(key.clone(), id);
                    id
                }
            };
        }
    }

    /// Records the current assignment as tried; `false` when it already was.
    fn first_try(&mut self) -> bool {
        if self.tried.contains(&self.current) {
            return false;
        }
        self.tried.insert(self.current.clone());
        true
    }

    /// Decides the current assignment: rejected at once when one of its
    /// instances is already refuted; otherwise its unscreened instances are
    /// screened and its undecided ones decided, in conjunct order, stopping
    /// at the first failure.  Returns the provenance of a valid assignment.
    fn decide(
        &mut self,
        solver: &mut Solver,
        universals: &[(IdxVar, Sort)],
        hyp: &PreparedHyp<'_>,
        screen: Option<&Screen>,
    ) -> Option<Provenance> {
        let (instances, current) = (&mut self.instances, &self.current);
        if current
            .iter()
            .any(|&id| instances[id as usize].status == Status::Refuted)
        {
            solver.note_exelim_pruned();
            return None;
        }
        if let Some(screen) = screen {
            let _span = rel_obs::span("exelim.screen");
            for &id in current {
                let instance = &mut instances[id as usize];
                if instance.status != Status::Open {
                    continue;
                }
                if screen.rejects(&instance.constr) {
                    // A concrete on-grid counterexample: the full pipeline
                    // could only have said `Invalid` here, at far greater
                    // cost.
                    instance.status = Status::Refuted;
                    solver.note_exelim_pruned();
                    return None;
                }
                instance.status = Status::Screened;
            }
        }
        let mut provenance = Provenance::Proved;
        for &id in current {
            let instance = &mut instances[id as usize];
            if !matches!(instance.status, Status::Valid(_)) {
                instance.status = match solver.entails_no_exists(universals, hyp, &instance.constr)
                {
                    Validity::Valid(p) => Status::Valid(p),
                    Validity::Invalid(_) => Status::Refuted,
                };
            }
            match instance.status {
                Status::Valid(p) => provenance = provenance.and(p),
                _ => return None,
            }
        }
        Some(provenance)
    }
}

/// Diagonal probe values for the candidate screen.  Every value is below
/// the solver's minimum per-variable grid size (`per_var_grid` never drops
/// under 3), which is what makes a screen rejection *verdict-preserving*:
/// the falsifying point lies on the exhaustive grid the full numeric layer
/// would sweep anyway, so the full pipeline could only have reported
/// `Invalid` too — never `Valid` (the symbolic layers are sound) and never
/// a different boolean.
const SCREEN_DIAGONAL: [u64; 3] = [0, 1, 2];

/// Cheap rejection screen for instantiated candidates: evaluates
/// `hyp ⟹ goal` at a handful of small grid points and rejects `goal` when
/// one falsifies it.  Most candidate assignments are wrong, and refuting a
/// wrong one through the full pipeline is expensive in exactly the case the
/// symbolic path is supposed to win (prepared facts, lemma saturation and a
/// Fourier–Motzkin run spent on a goal a single evaluation kills).  The
/// screen rejects those candidates at tree-evaluation cost; candidates that
/// survive go through the full solver unchanged.  Goals that still hold an
/// `∃` under a binder are not screened: bounded search reads such an `∃` as
/// false whenever its witness lies past the bound.
struct Screen {
    /// The diagonal points at which `hyp` holds — the only ones that can
    /// falsify the implication — each with every universal bound.
    points: Vec<rel_index::IdxEnv>,
    bound: u64,
}

impl Screen {
    fn new(universals: &[(IdxVar, Sort)], hyp: &Constr, bound: u64) -> Screen {
        let points = SCREEN_DIAGONAL
            .into_iter()
            .map(|k| {
                let mut env = rel_index::IdxEnv::new();
                for (v, _) in universals {
                    env.bind(v.clone(), rel_index::Extended::from(k));
                }
                env
            })
            .filter(|env| hyp.eval_bounded(env, bound))
            .collect();
        Screen { points, bound }
    }

    /// Whether some point falsifies `goal`.
    fn rejects(&self, goal: &Constr) -> bool {
        self.points
            .iter()
            .any(|env| !goal.eval_bounded(env, self.bound))
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

    /// The whole-goal search the instance table replaced: each attempt
    /// substitutes the whole component goal, skips goals already refuted
    /// (memoized by hash), screens the whole goal and decides it with one
    /// solver call.
    #[allow(clippy::too_many_arguments)]
    fn search_whole_goal(
        solver: &mut Solver,
        universals: &[(IdxVar, Sort)],
        hyp: &Constr,
        comp_goal: &Constr,
        candidates: &[(&Quantified, &[Candidate])],
        all_ex_vars: &[Quantified],
        stats: &mut ExElimStats,
        max_attempts: usize,
    ) -> Option<(BTreeMap<IdxVar, Idx>, Provenance)> {
        let mut assignment: Vec<usize> = vec![0; candidates.len()];
        let vars: Vec<&Quantified> = candidates.iter().map(|(q, _)| *q).collect();
        let mut resolver = Resolver::new(&vars, all_ex_vars);
        let mut chosen: Vec<&Candidate> = Vec::with_capacity(candidates.len());
        let mut rejected: HashMap<u64, Vec<Constr>> = HashMap::new();
        let max_explored = max_attempts.saturating_mul(64);
        let mut explored = 0usize;
        let screen = comp_goal
            .existential_vars()
            .is_empty()
            .then(|| Screen::new(universals, hyp, solver.config().inner_quantifier_bound));
        let prepared = PreparedHyp::new(hyp);
        loop {
            explored += 1;
            if stats.attempts >= max_attempts || explored > max_explored {
                let (reason, limit) = if stats.attempts >= max_attempts {
                    (SearchExhaustedReason::AttemptBudget, max_attempts as u64)
                } else {
                    (SearchExhaustedReason::ComponentBlowup, max_explored as u64)
                };
                stats.exhausted = stats.exhausted.or(Some((reason, limit)));
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
                let instantiated = comp_goal.subst_all(&resolved);
                let hash = constr_hash(&instantiated);
                let seen = rejected
                    .get(&hash)
                    .is_some_and(|bucket| bucket.contains(&instantiated));
                if !seen {
                    stats.attempts += 1;
                    let screened_out = screen
                        .as_ref()
                        .is_some_and(|screen| screen.rejects(&instantiated));
                    if !screened_out {
                        if let Validity::Valid(p) =
                            solver.entails_no_exists(universals, &prepared, &instantiated)
                        {
                            return Some((resolved, p));
                        }
                    }
                    rejected.entry(hash).or_default().push(instantiated);
                }
            } else {
                stats.unresolved += 1;
            }
            let mut i = 0;
            loop {
                if i == assignment.len() {
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
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        c.hash(&mut h);
        h.finish()
    }

    fn nat_universals(names: &[&str]) -> Vec<(IdxVar, Sort)> {
        names.iter().map(|n| (IdxVar::new(*n), Sort::Nat)).collect()
    }

    /// `a ≤ b ∧ b ≤ a`: an equality in effect, but not one the one-point
    /// rule reads, so its variables reach the candidate search.
    fn pinned(a: Idx, b: Idx) -> Constr {
        Constr::leq(a.clone(), b.clone()).and(Constr::leq(b, a))
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
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&Constr::Top), &goal);
        assert_eq!(
            out.found.as_ref().map(|(_, p)| *p),
            Some(Provenance::Proved)
        );
        // Once the solver has opened `∀c` and `n = c + 1 →`, the witness
        // is in scope and found.
        let Constr::Forall(_, body) = &goal else {
            unreachable!()
        };
        let Constr::Implies(hyp, inner) = body.as_ref() else {
            unreachable!()
        };
        let out = eliminate_existentials(
            &mut s,
            &nat_universals(&["n", "c"]),
            &PreparedHyp::new(hyp),
            inner,
        );
        assert_eq!(
            out.found.as_ref().map(|(_, p)| *p),
            Some(Provenance::Proved)
        );
        assert_eq!(out.found.unwrap().0[&IdxVar::new("i")], Idx::var("c"));
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
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&Constr::Top), &goal);
        assert!(out.found.is_none());
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
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&hyp), &goal);
        let (w, _) = out.found.expect("a witness");
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
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&Constr::Top), &goal);
        assert!(out.found.is_some());
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
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&hyp), &goal);
        assert_eq!(out.found.unwrap().0[&IdxVar::new("t2")], Idx::var("c"));
    }

    #[test]
    fn chained_candidates_resolve_mutually() {
        let mut s = Solver::new();
        let u = nat_universals(&["n"]);
        // ∃ a b. a ≐ b + 1 ∧ b ≐ n ∧ a ≤ n + 1, each `≐` a `≤`/`≥` pair
        // so that the one-point rule leaves both variables to the search,
        // which resolves a := b + 1 through b := n.
        let goal = Constr::exists(
            "a",
            Sort::Nat,
            Constr::exists(
                "b",
                Sort::Nat,
                pinned(Idx::var("a"), Idx::var("b") + Idx::one())
                    .and(pinned(Idx::var("b"), Idx::var("n")))
                    .and(Constr::leq(Idx::var("a"), Idx::var("n") + Idx::one())),
            ),
        );
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&Constr::Top), &goal);
        assert_eq!(out.stats.defined, 0);
        let (w, _) = out.found.expect("a witness");
        assert_eq!(w[&IdxVar::new("b")], Idx::var("n"));
        assert_eq!(
            LinExpr::of_idx(&w[&IdxVar::new("a")]),
            LinExpr::of_idx(&(Idx::var("n") + Idx::one()))
        );
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
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&Constr::Top), &goal);
        assert!(out.found.is_some());
        assert_eq!((out.stats.unresolved, out.stats.attempts), (1, 1));
        let (w, _) = out.found.unwrap();
        assert_eq!(w[&IdxVar::new("a")], w[&IdxVar::new("b")]);
    }

    #[test]
    fn unsatisfiable_existentials_report_no_witness() {
        let mut s = Solver::with_config(SolveConfig {
            max_exelim_attempts: 32,
            ..SolveConfig::default()
        });
        let u = nat_universals(&["n"]);
        // ∃ i. n ≤ i ≤ n ∧ n + 1 ≤ i ≤ n + 1  — no candidate can satisfy
        // both, and no top-level equality defines `i`, so the search runs.
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            pinned(Idx::var("i"), Idx::var("n"))
                .and(pinned(Idx::var("i"), Idx::var("n") + Idx::one())),
        );
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&Constr::Top), &goal);
        assert!(out.found.is_none());
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
        let goal = Constr::exists("i", Sort::Nat, pinned(Idx::var("i"), Idx::var("n")));
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&Constr::Top), &goal);
        assert!(out.found.is_none());
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
        // `n ≤ i + 1 ≤ n` and `m ≤ b + 2 ≤ m`: no equality, so the
        // one-point rule leaves both to the search.
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::exists(
                "b",
                Sort::Nat,
                pinned(Idx::var("n"), Idx::var("i") + Idx::one())
                    .and(pinned(Idx::var("m"), Idx::var("b") + Idx::nat(2))),
            ),
        );
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&hyp), &goal);
        assert_eq!(out.stats.defined, 0);
        let (w, _) = out.found.expect("a witness");
        assert_eq!(w.len(), 2);
        // Sum, not product: each component resolves within its own list.
        assert!(out.stats.attempts <= 4, "attempts: {}", out.stats.attempts);
    }

    #[test]
    fn screen_rejects_doomed_candidates_without_solver_calls() {
        // Every candidate for `i` instantiates the goal to something false
        // at a small grid point (n ≤ i forces n + 1 <= n), so the screen
        // rejects them at evaluation cost and the pruned counter records it.
        // `n ≤ i` is no equality, so the one-point rule leaves `i` to the
        // search.
        let mut s = Solver::new();
        let u = nat_universals(&["n"]);
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::leq(Idx::var("n"), Idx::var("i"))
                .and(Constr::leq(Idx::var("i") + Idx::one(), Idx::var("n"))),
        );
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&Constr::Top), &goal);
        assert!(out.found.is_none(), "no candidate can work");
        assert!(
            s.stats().exelim_candidates_pruned >= 1,
            "screen rejections must be counted: {:?}",
            s.stats()
        );
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

    /// The universals the generated cases mention.
    fn case_universals() -> Vec<(IdxVar, Sort)> {
        nat_universals(&["n", "m", "k"])
    }

    /// The case's candidate terms as [`Candidate`]s, per component slot.
    fn slot_candidates(case: &ComponentCase) -> Vec<Vec<Candidate>> {
        let universals = case_universals();
        let positions: BTreeMap<&IdxVar, usize> = case
            .ex_vars
            .iter()
            .enumerate()
            .map(|(i, q)| (&q.var, i))
            .collect();
        case.candidates
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
            .collect()
    }

    /// Every assignment of the case's candidate cross product, resolved by
    /// the oracle and by [`Resolver`].
    #[allow(clippy::type_complexity)]
    fn resolve_both_ways(
        case: &ComponentCase,
    ) -> Vec<(Option<BTreeMap<IdxVar, Idx>>, Option<BTreeMap<IdxVar, Idx>>)> {
        let candidates = slot_candidates(case);
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

    // ---- differential oracle: the instance table agrees with the
    // whole-goal search on every component ----

    /// One random component search: an [`ArbComponent`] case, 1–5
    /// conjuncts over its variables, a hypothesis and an attempt budget.
    #[derive(Debug)]
    struct SearchCase {
        component: ComponentCase,
        conjuncts: Vec<Constr>,
        hyp: Constr,
        max_attempts: usize,
    }

    /// Conjuncts that mention one variable (their instances repeat while
    /// the odometer moves the others), conjuncts the screen rejects on most
    /// candidates (`x = n`), conjuncts only the solver refutes (`x ≤ n + 2`
    /// holds on the screen's diagonal for `x := n + k`), conjuncts coupling
    /// two variables, and an inner `∃` that turns the screen off.
    struct ArbSearch;

    impl Strategy for ArbSearch {
        type Value = SearchCase;

        fn generate(&self, rng: &mut TestRng) -> SearchCase {
            let mut component = ArbComponent.generate(rng);
            // A candidate most conjuncts accept, so searches also succeed.
            for cands in &mut component.candidates {
                if pick(rng, 2) == 0 {
                    cands.push(Idx::var("n"));
                }
            }
            let size = component.component.len();
            let var =
                |slot: usize| Idx::Var(component.ex_vars[component.component[slot]].var.clone());
            let (n, m) = (Idx::var("n"), Idx::var("m"));
            let conjuncts = (0..1 + pick(rng, 4))
                .map(|_| {
                    let (a, b) = (var(pick(rng, size)), var(pick(rng, size)));
                    match pick(rng, 9) {
                        0 => Constr::leq(a, n.clone() + m.clone()),
                        8 => Constr::leq(Idx::zero(), a),
                        1 => Constr::leq(a, n.clone() + Idx::nat(2)),
                        2 => Constr::eq(a, n.clone()),
                        3 => Constr::leq(a + b, m.clone() * Idx::nat(2) + n.clone()),
                        4 => Constr::leq(a, b),
                        5 => Constr::leq(Idx::one(), a).implies(Constr::leq(b, n.clone())),
                        6 => Constr::lt(m.clone(), a.clone() + Idx::one())
                            .or(Constr::eq(a, Idx::zero())),
                        _ => Constr::exists("j", Sort::Nat, Constr::eq(Idx::var("j"), a))
                            .or(Constr::leq(n.clone(), b)),
                    }
                })
                .collect();
            let hyp = match pick(rng, 3) {
                0 => Constr::Top,
                1 => Constr::leq(Idx::one(), n),
                _ => Constr::leq(m, n),
            };
            let max_attempts = [1, 2, 3, 5, 8, 128][pick(rng, 6)];
            SearchCase {
                component,
                conjuncts,
                hyp,
                max_attempts,
            }
        }
    }

    /// The case's matrix, indexed, with the generated candidates in place
    /// of the collected ones.
    fn search_index(case: &SearchCase) -> MatrixIndex {
        let c = &case.component;
        let matrix = Constr::conj(case.conjuncts.iter().cloned());
        let mut index = MatrixIndex::build(&matrix, &case.hyp, &case_universals(), &c.ex_vars);
        assert_eq!(index.conjuncts, case.conjuncts);
        let mut by_slot = slot_candidates(c).into_iter();
        let mut candidates: Vec<Vec<Candidate>> = c.ex_vars.iter().map(|_| Vec::new()).collect();
        for &p in &c.component {
            candidates[p] = by_slot.next().expect("one list per slot");
        }
        index.candidates = candidates;
        index
    }

    type SearchResult = (Option<(BTreeMap<IdxVar, Idx>, Provenance)>, ExElimStats);

    /// The case searched by the instance table and by the whole-goal
    /// oracle, each on a fresh solver.
    fn search_both_ways(case: &SearchCase) -> (SearchResult, SearchResult) {
        let universals = case_universals();
        let c = &case.component;
        let index = search_index(case);
        let all: Vec<usize> = (0..index.conjuncts.len()).collect();
        let mut stats = ExElimStats::default();
        let found = search_component(
            &mut Solver::new(),
            &universals,
            &PreparedHyp::new(&case.hyp),
            &index,
            &c.component,
            &all,
            &c.ex_vars,
            &mut stats,
            case.max_attempts,
        );
        let candidates: Vec<(&Quantified, &[Candidate])> = c
            .component
            .iter()
            .map(|&p| (&c.ex_vars[p], index.candidates[p].as_slice()))
            .collect();
        let mut oracle_stats = ExElimStats::default();
        let oracle = search_whole_goal(
            &mut Solver::new(),
            &universals,
            &case.hyp,
            &Constr::conj(case.conjuncts.iter().cloned()),
            &candidates,
            &c.ex_vars,
            &mut oracle_stats,
            case.max_attempts,
        );
        ((found, stats), (oracle, oracle_stats))
    }

    proptest! {
        #[test]
        fn instance_table_search_matches_the_whole_goal_oracle(case in ArbSearch) {
            let (table, oracle) = search_both_ways(&case);
            prop_assert_eq!(table, oracle, "case: {:?}", case);
        }
    }

    #[test]
    fn search_oracle_cases_cover_repeats_refutations_and_screening() {
        // Per distinct conjunct instance over every resolved assignment:
        // how often it recurs in a later assignment whose whole
        // instantiation differs, whether the screen rejects it, and whether
        // only the solver refutes it.  Searches must also both succeed and
        // give up.
        let universals = case_universals();
        let mut rng = TestRng::from_label("search-coverage");
        let (mut repeats, mut screened, mut refuted) = (0, 0, 0);
        let (mut found, mut failed) = (0, 0);
        for _ in 0..64 {
            let case = ArbSearch.generate(&mut rng);
            let c = &case.component;
            let vars: Vec<&Quantified> = c.component.iter().map(|&p| &c.ex_vars[p]).collect();
            let candidates = slot_candidates(c);
            let mut resolver = Resolver::new(&vars, &c.ex_vars);
            let mut seen: HashSet<Constr> = HashSet::new();
            let mut goals: HashSet<Constr> = HashSet::new();
            let mut assignment = vec![0; vars.len()];
            let screen = Screen::new(
                &universals,
                &case.hyp,
                SolveConfig::default().inner_quantifier_bound,
            );
            let mut solver = Solver::new();
            'odometer: loop {
                let chosen: Vec<&Candidate> = candidates
                    .iter()
                    .zip(&assignment)
                    .map(|(cands, &k)| &cands[k])
                    .collect();
                if let Some(resolved) = resolver.resolve(&chosen) {
                    let instances: Vec<Constr> = case
                        .conjuncts
                        .iter()
                        .map(|c| c.subst_all(&resolved))
                        .collect();
                    let new_goal = goals.insert(Constr::conj(instances.iter().cloned()));
                    for instance in instances {
                        if seen.contains(&instance) {
                            repeats += usize::from(new_goal);
                        } else if screen.rejects(&instance) {
                            screened += 1;
                        } else if !solver
                            .entails_no_exists(&universals, &PreparedHyp::new(&case.hyp), &instance)
                            .is_valid()
                        {
                            refuted += 1;
                        }
                        seen.insert(instance);
                    }
                }
                let mut i = 0;
                loop {
                    if i == assignment.len() {
                        break 'odometer;
                    }
                    assignment[i] += 1;
                    if assignment[i] < candidates[i].len() {
                        break;
                    }
                    assignment[i] = 0;
                    i += 1;
                }
            }
            match search_both_ways(&case).0 .0 {
                Some(_) => found += 1,
                None => failed += 1,
            }
        }
        assert!(
            repeats > 200 && screened > 50 && refuted > 30 && found > 10 && failed > 10,
            "repeats {repeats}, screened {screened}, refuted {refuted}, found {found}, failed {failed}"
        );
    }

    #[test]
    fn a_shared_instance_is_decided_once() {
        // ∃ b a. ((∃j. j = a) ∨ n + 1 ≤ a) ∧ b = n, tried as b := 0 then
        // b := n, with a := n both times.  Both assignments share the first
        // conjunct's instance.  Deciding it costs one query (its `∃`
        // disjunct goes back through the solver's entry point); the second
        // assignment reuses its verdict, so the query count does not move.
        let u = nat_universals(&["n"]);
        let ex_vars = vec![
            Quantified::new("b", Sort::Nat),
            Quantified::new("a", Sort::Nat),
        ];
        let shared = Constr::exists("j", Sort::Nat, Constr::eq(Idx::var("j"), Idx::var("a")))
            .or(Constr::leq(Idx::var("n") + Idx::one(), Idx::var("a")));
        let matrix = shared.and(Constr::eq(Idx::var("b"), Idx::var("n")));
        let mut index = MatrixIndex::build(&matrix, &Constr::Top, &u, &ex_vars);
        let candidate = |term: Idx, footprint: Vec<usize>| Candidate { term, footprint };
        index.candidates = vec![
            vec![
                candidate(Idx::zero(), vec![]),
                candidate(Idx::var("n"), vec![]),
            ],
            vec![candidate(Idx::var("n"), vec![])],
        ];
        let (components, residual) = index.components(ex_vars.len());
        assert!(residual.is_empty());
        assert_eq!(components, vec![(vec![0], vec![1]), (vec![1], vec![0])]);
        // Search both variables as one component, so the shared conjunct's
        // instance survives the change of `b`.
        let mut s = Solver::new();
        let mut stats = ExElimStats::default();
        let found = search_component(
            &mut s,
            &u,
            &PreparedHyp::new(&Constr::Top),
            &index,
            &[0, 1],
            &[0, 1],
            &ex_vars,
            &mut stats,
            128,
        );
        let (witness, provenance) = found.expect("b := n, a := n works");
        assert_eq!(provenance, Provenance::Proved);
        assert_eq!(witness[&IdxVar::new("b")], Idx::var("n"));
        assert_eq!(stats.attempts, 2);
        assert_eq!(s.stats().queries, 1, "the shared instance is decided once");
        // The whole-goal search decides it under both assignments.
        let mut oracle = Solver::new();
        let candidates: Vec<(&Quantified, &[Candidate])> = ex_vars
            .iter()
            .zip(&index.candidates)
            .map(|(q, c)| (q, c.as_slice()))
            .collect();
        let mut oracle_stats = ExElimStats::default();
        let oracle_found = search_whole_goal(
            &mut oracle,
            &u,
            &Constr::Top,
            &Constr::conj(index.conjuncts.iter().cloned()),
            &candidates,
            &ex_vars,
            &mut oracle_stats,
            128,
        );
        assert_eq!(
            (oracle_found.map(|(w, _)| w), oracle_stats.attempts),
            (Some(witness), 2)
        );
        assert_eq!(oracle.stats().queries, 2);
    }

    // ---- the one-point rule ----

    #[test]
    fn one_point_defines_a_witness_without_attempts() {
        // ∃ i. n = i + 1 ∧ i ≤ n, given 1 ≤ n: the equality defines
        // i := n − 1, and no candidate is tried.
        let mut s = Solver::new();
        let u = nat_universals(&["n"]);
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::eq(Idx::var("n"), Idx::var("i") + Idx::one())
                .and(Constr::leq(Idx::var("i"), Idx::var("n"))),
        );
        let hyp = Constr::leq(Idx::one(), Idx::var("n"));
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&hyp), &goal);
        let (w, p) = out.found.expect("a witness");
        assert_eq!(p, Provenance::Proved);
        assert_eq!(
            LinExpr::of_idx(&w[&IdxVar::new("i")]),
            LinExpr::of_idx(&(Idx::var("n") - Idx::one()))
        );
        assert_eq!((out.stats.defined, out.stats.attempts), (1, 0));
        assert_eq!(s.stats().exelim_attempts, 0);
    }

    #[test]
    fn one_point_definitions_chain() {
        // ∃ b a. b = a + 1 ∧ a = n ∧ b ≤ n + 1: `b`'s equality names the
        // existential `a` until `a := n` is substituted into it.
        let mut s = Solver::new();
        let u = nat_universals(&["n"]);
        let goal = Constr::exists(
            "b",
            Sort::Nat,
            Constr::exists(
                "a",
                Sort::Nat,
                Constr::eq(Idx::var("b"), Idx::var("a") + Idx::one())
                    .and(Constr::eq(Idx::var("a"), Idx::var("n")))
                    .and(Constr::leq(Idx::var("b"), Idx::var("n") + Idx::one())),
            ),
        );
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&Constr::Top), &goal);
        let (w, _) = out.found.expect("a witness");
        assert_eq!(w[&IdxVar::new("a")], Idx::var("n"));
        assert_eq!(
            LinExpr::of_idx(&w[&IdxVar::new("b")]),
            LinExpr::of_idx(&(Idx::var("n") + Idx::one()))
        );
        assert_eq!((out.stats.defined, out.stats.attempts), (2, 0));
    }

    #[test]
    fn an_equality_under_an_implication_defines_nothing() {
        // 1 ≤ n → ∃ i. i = n: the `∃` is hoisted, but its equality holds
        // only under the antecedent, so the search decides `i`.
        let mut s = Solver::new();
        let u = nat_universals(&["n"]);
        let goal = Constr::leq(Idx::one(), Idx::var("n")).implies(Constr::exists(
            "i",
            Sort::Nat,
            Constr::eq(Idx::var("i"), Idx::var("n")),
        ));
        let (matrix, vars) = strip_existentials(&goal);
        assert_eq!(vars.len(), 1);
        assert!(one_point(&matrix, &vars, &u).0.is_empty());
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&Constr::Top), &goal);
        assert!(out.found.is_some());
        assert_eq!(out.stats.defined, 0);
        assert!(out.stats.attempts >= 1);
    }

    #[test]
    fn an_equality_naming_another_existential_is_left_to_the_search() {
        // ∃ x y. x = y + 1 ∧ n ≤ y ≤ n: solved for either variable, the
        // equality names the other existential, and nothing defines `y`.
        let mut s = Solver::new();
        let u = nat_universals(&["n"]);
        let goal = Constr::exists(
            "x",
            Sort::Nat,
            Constr::exists(
                "y",
                Sort::Nat,
                Constr::eq(Idx::var("x"), Idx::var("y") + Idx::one())
                    .and(Constr::leq(Idx::var("n"), Idx::var("y")))
                    .and(Constr::leq(Idx::var("y"), Idx::var("n"))),
            ),
        );
        let out = eliminate_existentials(&mut s, &u, &PreparedHyp::new(&Constr::Top), &goal);
        assert_eq!(out.stats.defined, 0);
        assert!(out.stats.attempts >= 1);
        let (w, _) = out.found.expect("a witness");
        assert_eq!(
            LinExpr::of_idx(&w[&IdxVar::new("x")]),
            LinExpr::of_idx(&(Idx::var("n") + Idx::one()))
        );
    }

    #[test]
    fn a_definition_is_not_captured_by_a_shadowing_binder() {
        // ∃ i. i = c ∧ ∀c. c ≤ i, given c = 0: `i := c` names the universal
        // `c`, which the inner `∀c` shadows.  Substituted without capture,
        // the conjunct reads ∀c'. c' ≤ c and is false; captured, it would
        // read ∀c. c ≤ c and hold.
        let u = nat_universals(&["c"]);
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::eq(Idx::var("i"), Idx::var("c")).and(Constr::forall(
                "c",
                Sort::Nat,
                Constr::leq(Idx::var("c"), Idx::var("i")),
            )),
        );
        let (matrix, vars) = strip_existentials(&goal);
        let (defined, rest) = one_point(&matrix, &vars, &u);
        assert!(rest.is_empty());
        assert_eq!(defined[&IdxVar::new("i")], Idx::var("c"));
        assert!(matrix
            .subst_all(&defined)
            .free_vars()
            .contains(&IdxVar::new("c")));
        let hyp = Constr::eq(Idx::var("c"), Idx::zero());
        let out = eliminate_existentials(&mut Solver::new(), &u, &PreparedHyp::new(&hyp), &goal);
        assert!(out.found.is_none());
        assert_eq!((out.stats.defined, out.stats.attempts), (1, 0));
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
