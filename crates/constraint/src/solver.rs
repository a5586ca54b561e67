//! Validity checking for existential-free constraints.
//!
//! The checker decides (best-effort) entailments of the form
//! `∀ ∆, ψₐ.  Φₐ ⟹ Φ`, the judgement the paper delegates to Why3 + Alt-Ergo.
//! It has two layers:
//!
//! 1. **Fourier–Motzkin** ([`crate::fm`]) — the one symbolic prover:
//!    hypothesis equalities are used as rewrites, the lemma table of
//!    [`crate::lemmas`] saturates facts about non-linear atoms, and a
//!    complete decision procedure for linear arithmetic over atoms either
//!    proves the goal, refutes it with a witness (re-verified by direct
//!    evaluation), or abstains.  The hypothesis's half of that work is done
//!    once per hypothesis ([`PreparedHyp`]) and shared by every goal
//!    decided under it.
//! 2. **Numeric layer** — a bounded-exhaustive + randomized evaluation of the
//!    implication over a grid of values of the universally quantified index
//!    variables, on the calling thread.  It *refutes* invalid constraints
//!    (producing a counterexample) and *accepts* constraints that hold on the
//!    whole grid (DESIGN.md §4).  Each query is compiled once to the
//!    bytecode of [`crate::compile`] and memoized in the solver's program
//!    memo ([`SharedProgramCache`]).  The tree-walking evaluator it replaced
//!    survives only as a differential oracle behind the `reference-eval`
//!    feature, which only dev-dependencies enable.
//!
//! Before either layer runs, each query — and each conjunct, implication
//! body and ∀-body it decomposes into — is looked up in the verdict cache
//! that [`Solver::with_cache`] attached, a [`ShardedValidityCache`] shared
//! across solvers.  A cold solver holds no verdict memo: within one check
//! the instance table of [`crate::exelim`] and the FM memos already absorb
//! the repeats, and a private memo answered too few lookups to pay for
//! hashing every query.
//!
//! Verdicts carry **provenance**: [`Validity::Valid`] records whether the
//! obligation was *proved* (sound over the unbounded domain) or merely
//! *grid-checked* (accepted because no counterexample appeared on the
//! bounded sweep).  The distinction is threaded through `DefReport`, the
//! service protocol, the CLI and the persisted cache file.
//!
//! The statistics collected ([`SolveStats`]) feed the Table-1 style timing
//! breakdown reported by the engine.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rel_index::normalize::normalize_changed;
use rel_index::{Atom, Extended, Idx, IdxEnv, IdxVar, Rational, Sort};

use crate::cache::{CacheStats, Fnv1a, QueryRef, ShardedMap, ShardedValidityCache};
use crate::compile::{compile_query, CompiledQuery, Val};
use crate::constr::{map_vec, Constr, Quantified};
use crate::exelim;
use crate::fm::{self, FmBase, FmLimits, FmMemo, FmOutcome, FmVerdict};
use crate::lemmas;

#[cfg(feature = "reference-eval")]
mod reference;
#[cfg(feature = "reference-eval")]
pub use reference::{with_fm_oracle, with_tree_eval};

/// Configuration of the solver.
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// Largest natural tried per universally quantified variable on the grid.
    pub nat_grid_max: u64,
    /// Cap on the total number of grid points per query.
    pub max_grid_points: usize,
    /// Number of additional randomized sample points.
    pub random_points: usize,
    /// Domain bound used for quantifiers that remain *inside* the formula
    /// (e.g. axioms supplied as closed ∀-facts).
    pub inner_quantifier_bound: u64,
    /// Seed for the randomized sample points (fixed for reproducibility).
    pub rng_seed: u64,
    /// Cap on candidate-substitution combinations during existential
    /// elimination.
    pub max_exelim_attempts: usize,
    /// Whether the Fourier–Motzkin layer ([`crate::fm`]) runs before the
    /// numeric grid.  `false` leaves a pure grid (the `solver_grid`
    /// benchmark's control arm).  It **changes verdicts** (grid-checked
    /// obligations flip to proved), so it is part of
    /// [`SolveConfig::fingerprint`].
    pub use_fm: bool,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            nat_grid_max: 10,
            max_grid_points: 4_000,
            random_points: 64,
            inner_quantifier_bound: 8,
            rng_seed: 0xB1DE_C057,
            max_exelim_attempts: 128,
            use_fm: true,
        }
    }
}

impl SolveConfig {
    /// A stable fingerprint of every field that can influence a verdict.
    /// Mixed into cache keys: verdicts are only reusable between solvers
    /// running the *same* configuration (a laxer config must never leak
    /// `Valid` into a stricter one).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write_u64(self.nat_grid_max);
        h.write_u64(self.max_grid_points as u64);
        h.write_u64(self.random_points as u64);
        h.write_u64(self.inner_quantifier_bound);
        // The slot of a retired knob (a decisive numeric layer, always on),
        // kept so fingerprints — and the cache files keyed on them — stay
        // stable.
        h.write_u8(1);
        h.write_u64(self.rng_seed);
        h.write_u64(self.max_exelim_attempts as u64);
        // `use_fm` turns grid-checked verdicts into proved ones — a
        // provenance change — so a cache file recorded with the FM layer on
        // must never be replayed into a solver running with it off (and vice
        // versa).
        h.write_u8(self.use_fm as u8);
        h.finish()
    }
}

/// Statistics accumulated across solver queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Entailment queries at every structural decomposition level: the
    /// top-level goal and each conjunct, implication body and ∀-body it
    /// splits into (trivially true ones included).
    pub queries: usize,
    /// Goals discharged by the Fourier–Motzkin layer (proved, zero grid
    /// points).
    pub fm_proved: usize,
    /// Goals *refuted* by an FM witness: the feasible branch's assignment
    /// was extracted, re-verified by direct evaluation, and returned as the
    /// counterexample — again zero grid points.
    pub fm_refuted: usize,
    /// Leftover real-sorted existentials discharged by FM projection in
    /// `exelim`.  Nothing writes it any more: candidate search is the only
    /// existential elimination.  Kept so readers of the stats still build.
    pub fm_projections: usize,
    /// FM queries answered from the whole-query memo (each hit skipped
    /// conversion and elimination).  Every FM run is one lookup: a hit here
    /// or a miss below.
    pub fm_memo_hits: usize,
    /// FM queries that missed the whole-query memo and were decided.
    pub fm_memo_misses: usize,
    /// Candidate assignments `exelim` rejected without a solver call: a
    /// repeat of an assignment already tried, one holding a conjunct
    /// instance already refuted earlier in the search, or one the screen
    /// found an on-grid counterexample for at tree-evaluation cost.
    pub exelim_candidates_pruned: usize,
    /// Goals that needed the numeric layer.
    pub numeric_checks: usize,
    /// Numeric checks that ended in a grid-checked *accept* (the decisive
    /// numeric layer found no counterexample) — the verdicts that are
    /// `Valid(GridChecked)` rather than proved.
    pub grid_accepted: usize,
    /// Grid/random points evaluated by the numeric layer.
    pub points_evaluated: usize,
    /// Candidate substitutions attempted during existential elimination.
    pub exelim_attempts: usize,
    /// Lookups answered from the attached shared validity cache (always 0
    /// on a solver without one: a cold solver holds no verdict memo).
    pub cache_hits: usize,
    /// Lookups in the attached validity cache that missed (the verdict was
    /// computed and stored).  With a cache attached, hits plus misses are
    /// the non-trivial `queries`; without one, both stay 0.
    pub cache_misses: usize,
    /// Numeric queries lowered to bytecode (program-cache misses).
    pub programs_compiled: usize,
    /// Numeric queries whose compiled program was reused from the
    /// program cache.
    pub program_cache_hits: usize,
    /// Wall-clock time spent inside the Fourier–Motzkin decision procedure
    /// (`fm::prove`) — the cost of *proving*.
    pub fm_time: Duration,
    /// Wall-clock time spent inside the numeric layer (compile + grid +
    /// random sweep) — the cost of *sweeping*.
    pub numeric_time: Duration,
    /// Why the last exhausted existential search gave up, when a specific
    /// cap could be identified (`None` when no search was exhausted, or
    /// when the candidate pool simply ran dry without hitting a cap).
    pub search_exhausted: Option<SearchExhaustedReason>,
}

impl SolveStats {
    /// Accumulates `other` into `self`.
    ///
    /// This is the **single** aggregation point for solver counters — the
    /// batch workers, the daemon and the engine all sum through here, so a
    /// newly added field can never be silently dropped from one path: the
    /// exhaustive destructuring below fails to compile until the field is
    /// handled.
    pub fn merge(&mut self, other: &SolveStats) {
        let SolveStats {
            queries,
            fm_proved,
            fm_refuted,
            fm_projections,
            fm_memo_hits,
            fm_memo_misses,
            exelim_candidates_pruned,
            numeric_checks,
            grid_accepted,
            points_evaluated,
            exelim_attempts,
            cache_hits,
            cache_misses,
            programs_compiled,
            program_cache_hits,
            fm_time,
            numeric_time,
            search_exhausted,
        } = *other;
        self.queries += queries;
        self.fm_proved += fm_proved;
        self.fm_refuted += fm_refuted;
        self.fm_projections += fm_projections;
        self.fm_memo_hits += fm_memo_hits;
        self.fm_memo_misses += fm_memo_misses;
        self.exelim_candidates_pruned += exelim_candidates_pruned;
        self.numeric_checks += numeric_checks;
        self.grid_accepted += grid_accepted;
        self.points_evaluated += points_evaluated;
        self.exelim_attempts += exelim_attempts;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.programs_compiled += programs_compiled;
        self.program_cache_hits += program_cache_hits;
        self.fm_time += fm_time;
        self.numeric_time += numeric_time;
        self.search_exhausted = self.search_exhausted.or(search_exhausted);
    }

    /// Publishes these statistics as counters and leaf-timer histograms
    /// on the process-wide [`rel_obs::metrics::global`] registry.  Called
    /// once per def-check by the engine, so the histograms read as per-def
    /// time distributions.  Exhaustively destructured like
    /// [`SolveStats::merge`], and for the same reason.
    pub fn publish(&self) {
        let SolveStats {
            queries,
            fm_proved,
            fm_refuted,
            fm_projections,
            fm_memo_hits,
            fm_memo_misses,
            exelim_candidates_pruned,
            numeric_checks,
            grid_accepted,
            points_evaluated,
            exelim_attempts,
            cache_hits,
            cache_misses,
            programs_compiled,
            program_cache_hits,
            fm_time,
            numeric_time,
            search_exhausted,
        } = *self;
        rel_obs::counter!("solver.queries").add(queries as u64);
        rel_obs::counter!("solver.fm_proved").add(fm_proved as u64);
        rel_obs::counter!("solver.fm_refuted").add(fm_refuted as u64);
        rel_obs::counter!("solver.fm_projections").add(fm_projections as u64);
        rel_obs::counter!("solver.fm_memo_hits").add(fm_memo_hits as u64);
        rel_obs::counter!("solver.fm_memo_misses").add(fm_memo_misses as u64);
        rel_obs::counter!("solver.exelim_candidates_pruned").add(exelim_candidates_pruned as u64);
        rel_obs::counter!("solver.numeric_checks").add(numeric_checks as u64);
        rel_obs::counter!("solver.grid_accepted").add(grid_accepted as u64);
        rel_obs::counter!("solver.points_evaluated").add(points_evaluated as u64);
        rel_obs::counter!("solver.exelim_attempts").add(exelim_attempts as u64);
        rel_obs::counter!("solver.cache_hits").add(cache_hits as u64);
        rel_obs::counter!("solver.cache_misses").add(cache_misses as u64);
        rel_obs::counter!("solver.programs_compiled").add(programs_compiled as u64);
        rel_obs::counter!("solver.program_cache_hits").add(program_cache_hits as u64);
        rel_obs::histogram!("solver.fm_ns").observe(fm_time);
        rel_obs::histogram!("solver.numeric_ns").observe(numeric_time);
        if let Some(reason) = search_exhausted {
            // Four runtime-chosen names, so the per-call-site caching macro
            // does not apply; this is the once-per-def slow path.
            rel_obs::metrics::global()
                .counter(reason.counter_name())
                .incr();
        }
    }
}

/// Which cap ended an exhausted existential search — the difference between
/// "raise `max_exelim_attempts`" and "the FM system is too big", which is
/// exactly what the merge/msort close-out needs to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchExhaustedReason {
    /// `SolveConfig::max_exelim_attempts` candidate substitutions were
    /// tried without success.
    AttemptBudget,
    /// Fourier–Motzkin elimination gave up because an intermediate system
    /// exceeded the row or coefficient-magnitude limits (`FmLimits`).
    RowCap,
    /// Fourier–Motzkin gave up because the goal split into more DNF
    /// branches (or distinct atoms) than `FmLimits` allows.
    BranchCap,
    /// The indexed candidate search visited more combinations than the
    /// component exploration ceiling before the attempt budget was even
    /// reached (cartesian blowup inside one variable component).
    ComponentBlowup,
}

impl SearchExhaustedReason {
    /// Stable kebab-case tag used in JSON reports and CLI diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            SearchExhaustedReason::AttemptBudget => "attempt-budget",
            SearchExhaustedReason::RowCap => "row-cap",
            SearchExhaustedReason::BranchCap => "branch-cap",
            SearchExhaustedReason::ComponentBlowup => "component-blowup",
        }
    }

    /// Name of the recorder instant event emitted when this cap fires.
    pub fn event_name(self) -> &'static str {
        match self {
            SearchExhaustedReason::AttemptBudget => "exelim.exhausted.attempt-budget",
            SearchExhaustedReason::RowCap => "exelim.exhausted.row-cap",
            SearchExhaustedReason::BranchCap => "exelim.exhausted.branch-cap",
            SearchExhaustedReason::ComponentBlowup => "exelim.exhausted.component-blowup",
        }
    }

    /// Name of the recorder instant event emitted when Fourier–Motzkin
    /// *proving* (as opposed to exelim's projection) abstains on this cap.
    pub fn fm_event_name(self) -> &'static str {
        match self {
            SearchExhaustedReason::AttemptBudget => "fm.abstain.attempt-budget",
            SearchExhaustedReason::RowCap => "fm.abstain.row-cap",
            SearchExhaustedReason::BranchCap => "fm.abstain.branch-cap",
            SearchExhaustedReason::ComponentBlowup => "fm.abstain.component-blowup",
        }
    }

    /// Name of the global-registry counter bumped when this cap fires.
    pub fn counter_name(self) -> &'static str {
        match self {
            SearchExhaustedReason::AttemptBudget => "solver.search_exhausted.attempt-budget",
            SearchExhaustedReason::RowCap => "solver.search_exhausted.row-cap",
            SearchExhaustedReason::BranchCap => "solver.search_exhausted.branch-cap",
            SearchExhaustedReason::ComponentBlowup => "solver.search_exhausted.component-blowup",
        }
    }

    /// Human phrasing of the cap for failure diagnostics ("the `<cap>` of
    /// `<n>` ..." reads naturally with the fired limit appended).
    pub fn describe(self) -> &'static str {
        match self {
            SearchExhaustedReason::AttemptBudget => "the candidate-substitution attempt budget",
            SearchExhaustedReason::RowCap => {
                "the Fourier-Motzkin row/magnitude cap on an intermediate system"
            }
            SearchExhaustedReason::BranchCap => {
                "the Fourier-Motzkin branch/atom cap while splitting the goal"
            }
            SearchExhaustedReason::ComponentBlowup => {
                "the per-component exploration ceiling of the indexed candidate search"
            }
        }
    }

    /// Parses the [`SearchExhaustedReason::as_str`] tag back (used by the
    /// service layer when round-tripping reports through JSON).
    pub fn parse(s: &str) -> Option<SearchExhaustedReason> {
        match s {
            "attempt-budget" => Some(SearchExhaustedReason::AttemptBudget),
            "row-cap" => Some(SearchExhaustedReason::RowCap),
            "branch-cap" => Some(SearchExhaustedReason::BranchCap),
            "component-blowup" => Some(SearchExhaustedReason::ComponentBlowup),
            _ => None,
        }
    }
}

/// How a `Valid` verdict was reached — the provenance threaded through
/// reports, the service protocol and the persisted cache file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Decided symbolically (Fourier–Motzkin, or a structural combination
    /// of proved sub-goals): sound over the whole unbounded domain.
    Proved,
    /// Accepted because the numeric layer found no counterexample on the
    /// bounded grid + random sweep.
    GridChecked,
}

impl Provenance {
    /// The provenance of a conjunction of verdicts: proved only when every
    /// conjunct was proved.
    pub fn and(self, other: Provenance) -> Provenance {
        match (self, other) {
            (Provenance::Proved, Provenance::Proved) => Provenance::Proved,
            _ => Provenance::GridChecked,
        }
    }
}

/// The verdict of a validity query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validity {
    /// The entailment holds; the [`Provenance`] records whether it was
    /// proved or merely checked on the whole numeric grid.
    Valid(Provenance),
    /// The entailment fails; a falsifying assignment is provided when the
    /// numeric layer found one.
    Invalid(Option<IdxEnv>),
}

impl Validity {
    /// A proved `Valid`.
    pub fn proved() -> Validity {
        Validity::Valid(Provenance::Proved)
    }

    /// A grid-checked `Valid`.
    pub fn grid_checked() -> Validity {
        Validity::Valid(Provenance::GridChecked)
    }

    /// Returns `true` for [`Validity::Valid`] of either provenance.
    pub fn is_valid(&self) -> bool {
        matches!(self, Validity::Valid(_))
    }

    /// The provenance of a `Valid` verdict.
    pub fn provenance(&self) -> Option<Provenance> {
        match self {
            Validity::Valid(p) => Some(*p),
            _ => None,
        }
    }
}

/// Where a refutation (or the counterexample behind it) came from — kept by
/// the solver for the *last* top-level [`Solver::entails`] call so the
/// engine can explain failures instead of printing every `Invalid` the same
/// way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CexSource {
    /// The exhaustive bounded grid sweep found the falsifying point.
    GridSweep,
    /// The randomized sampling phase found the falsifying point.
    RandomSample,
    /// Fourier–Motzkin elimination produced the witness (re-verified by
    /// direct evaluation before being reported).
    FmWitness,
    /// No numeric counterexample exists in hand: the candidate-substitution
    /// search for the goal's existentials was exhausted.
    SearchExhausted,
}

/// Diagnostics of the last refutation: the counterexample source, the
/// falsifying assignment (when numeric) and the atom-elimination order of
/// the Fourier–Motzkin run that preceded it (empty when FM never ran on
/// the failing goal).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefutationInfo {
    /// What produced the refutation.
    pub source: Option<CexSource>,
    /// The falsifying assignment, if a numeric layer found one.
    pub env: Option<IdxEnv>,
    /// FM elimination order (atom display names) of the failing goal.
    pub fm_eliminated: Vec<String>,
    /// For [`CexSource::SearchExhausted`] refutations: which cap fired,
    /// with the configured limit value, when one could be identified.
    pub exhausted: Option<(SearchExhaustedReason, u64)>,
}

/// The key of a compiled program: its `(universals, hyp, goal)`, verbatim.
type ProgramKey = (Vec<(IdxVar, Sort)>, Constr, Constr);

fn program_key_hash(universals: &[(IdxVar, Sort)], hyp: &Constr, goal: &Constr) -> u64 {
    let mut h = Fnv1a::default();
    universals.hash(&mut h);
    hyp.hash(&mut h);
    goal.hash(&mut h);
    h.finish()
}

/// Counters of a [`SharedProgramCache`] (monotone).
pub type ProgramCacheStats = CacheStats;

/// The compiled-program memo: a `ShardedMap` keyed on the stable
/// structural hash of `(universals, hyp, goal)` with full-key verification,
/// the map the validity cache is built on (DESIGN.md §5.1).
///
/// Every [`Solver`] holds one: a private single-shard memo that dies with
/// the solver, unless [`Solver::with_program_cache`] attaches one shared
/// across solvers.  Engines spawn a fresh solver per definition, so without
/// sharing, every definition (and every daemon request) recompiles the
/// numeric queries it has in common with its neighbours; attaching one memo
/// to an engine (as with the validity cache) makes the bytecode survive
/// across definitions and requests.  It is not persisted: every lookup
/// follows a validity-cache miss, and the persisted validity cache answers
/// the queries a warm process would otherwise compile.
#[derive(Debug)]
pub struct SharedProgramCache {
    map: ShardedMap<ProgramKey, Arc<CompiledQuery>>,
}

impl Default for SharedProgramCache {
    // Hand-written (like ShardedValidityCache's): a derived Default would
    // build a zero-shard cache whose first lookup divides by zero.
    fn default() -> Self {
        SharedProgramCache::new()
    }
}

impl SharedProgramCache {
    /// Default shard count (8) and per-shard capacity (2 048 programs).
    pub fn new() -> SharedProgramCache {
        SharedProgramCache::with_shards_and_capacity(8, 2_048)
    }

    /// A cache with explicit shard count and per-shard entry cap (both
    /// rounded up to at least 1).
    pub fn with_shards_and_capacity(n: usize, max_entries_per_shard: usize) -> SharedProgramCache {
        SharedProgramCache {
            map: ShardedMap::new(n, max_entries_per_shard),
        }
    }

    /// Drops every stored program (counters are kept).
    pub fn clear(&self) {
        self.map.clear();
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> ProgramCacheStats {
        self.map.stats()
    }
}

/// The constraint solver.
#[derive(Debug)]
pub struct Solver {
    config: SolveConfig,
    /// `config.fingerprint()`, computed once — it is on the cache hot path.
    config_fingerprint: u64,
    stats: SolveStats,
    /// The shared verdict cache [`Solver::with_cache`] attached, consulted
    /// at every structural decomposition level; `None` on a cold solver,
    /// which memoizes no verdicts.  The `entails_no_exists` gateway of
    /// `exelim`'s candidate attempts deliberately does *not* consult it —
    /// hashing a large hypothesis per attempt costs more than the cheap
    /// sweeps it would save.  Work on that path is shared instead: every
    /// attempt is decided under one [`PreparedHyp`], whose facts and FM
    /// base system are built once, and a repeated FM query is answered by
    /// the FM layer's own query memo.
    cache: Option<Arc<ShardedValidityCache>>,
    /// Compiled-program memo: private to this solver unless
    /// [`Solver::with_program_cache`] attached a shared one.
    programs: Arc<SharedProgramCache>,
    /// Limits of the Fourier–Motzkin layer.
    fm_limits: FmLimits,
    /// FM atom table and whole-query outcomes.
    fm_memo: FmMemo,
    /// Diagnostics of the last refutation (reset per top-level `entails`).
    last_refutation: RefutationInfo,
    /// FM elimination order of the goal currently being decided; moved into
    /// `last_refutation` only when that same goal is refuted (cleared at
    /// every `symbolic_decide`, so a refutation is never annotated with an
    /// unrelated goal's atoms).
    pending_fm_order: Vec<String>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::with_config(SolveConfig::default())
    }
}

impl Solver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolveConfig) -> Solver {
        Solver {
            config_fingerprint: config.fingerprint(),
            config,
            stats: SolveStats::default(),
            cache: None,
            programs: Arc::new(SharedProgramCache::with_shards_and_capacity(
                1,
                Self::PRIVATE_PROGRAM_CAP,
            )),
            fm_limits: FmLimits::default(),
            fm_memo: FmMemo::default(),
            last_refutation: RefutationInfo::default(),
            pending_fm_order: Vec::new(),
        }
    }

    /// Attaches a shared validity cache, consulted before every entailment
    /// query (including the structural sub-queries `entails` decomposes
    /// into) and populated with every verdict computed.  Sound because the
    /// solver is deterministic: its randomized numeric layer runs from a
    /// fixed seed.
    pub fn with_cache(mut self, cache: Arc<ShardedValidityCache>) -> Solver {
        self.cache = Some(cache);
        self
    }

    /// The attached shared validity cache, if any.
    pub fn cache(&self) -> Option<&Arc<ShardedValidityCache>> {
        self.cache.as_ref()
    }

    /// Entry cap of a solver's private program memo.  Solvers live for one
    /// definition (engines spawn a fresh one per def), so the cap only
    /// matters for unusually long-lived solvers; the memo is cleared
    /// wholesale when full, like a validity-cache shard.
    const PRIVATE_PROGRAM_CAP: usize = 4_096;

    /// Replaces the solver's private compiled-program memo with a shared
    /// one, consulted before every compile and published to after it.  Safe
    /// to share between solvers of *different* configurations: the bytecode
    /// of a query is a pure function of `(universals, hyp, goal)` —
    /// configuration only decides which points it is evaluated at.
    pub fn with_program_cache(mut self, programs: Arc<SharedProgramCache>) -> Solver {
        self.programs = programs;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SolveConfig {
        &self.config
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = SolveStats::default();
    }

    /// Diagnostics of the most recent refutation (meaningful right after a
    /// failed [`Solver::entails`]; reset on every top-level call).
    pub fn last_refutation(&self) -> &RefutationInfo {
        &self.last_refutation
    }

    /// Checks the entailment `∀ universals. hyp ⟹ goal`.
    ///
    /// Existential quantifiers inside `goal` are eliminated first using the
    /// candidate-substitution pass of [`crate::exelim`], exactly as in §6 of
    /// the paper.
    pub fn entails(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &Constr,
        goal: &Constr,
    ) -> Validity {
        let _span = rel_obs::span_with("solver.entails", universals.len() as u64);
        self.last_refutation = RefutationInfo::default();
        self.pending_fm_order.clear();
        let goal = simplify(goal);
        self.entails_canonical(universals, &PreparedHyp::new(hyp), &goal)
    }

    /// [`Solver::entails`] on a goal that is already in simplified form.
    ///
    /// Structural recursion goes through this entry point: `simplify` is
    /// idempotent and recursive, so the sub-goals of a simplified goal are
    /// themselves simplified and re-simplifying them at every decomposition
    /// level would rebuild the same trees over and over (one full clone per
    /// level in the seed).
    fn entails_canonical(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &PreparedHyp<'_>,
        goal: &Constr,
    ) -> Validity {
        self.stats.queries += 1;
        if goal.is_top() {
            return Validity::proved();
        }
        // Consult the shared cache on the canonical form of the query.
        // Structural sub-queries recurse back through here, so conjuncts and
        // implication bodies are cached individually — that is what lets
        // verdicts transfer across definitions that share sub-derivations,
        // not just across identical top-level queries.  The query is hashed
        // once, for the lookup and the store together; the lookup borrows
        // the constraints, and nothing is cloned unless a freshly computed
        // verdict is stored.
        let Some(cache) = self.cache.clone() else {
            return self.entails_simplified(universals, hyp, goal);
        };
        let query = QueryRef::new(self.config_fingerprint, universals, hyp.hyp, goal);
        if let Some(verdict) = cache.lookup(&query) {
            self.stats.cache_hits += 1;
            return verdict;
        }
        self.stats.cache_misses += 1;
        let verdict = self.entails_simplified(universals, hyp, goal);
        cache.store(&query, verdict.clone());
        verdict
    }

    /// The uncached entailment check on an already-simplified goal.
    fn entails_simplified(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &PreparedHyp<'_>,
        goal: &Constr,
    ) -> Validity {
        // Decompose the goal structurally first so existential elimination is
        // applied to the smallest possible subproblems (each sub-derivation's
        // existentials stay together, but unrelated conjuncts are separated).
        match goal {
            Constr::Top => return Validity::proved(),
            Constr::And(cs) => {
                let mut prov = Provenance::Proved;
                for c in cs {
                    match self.entails_canonical(universals, hyp, c) {
                        Validity::Valid(p) => prov = prov.and(p),
                        other => return other,
                    }
                }
                return Validity::Valid(prov);
            }
            Constr::Implies(a, b) => {
                let hyp = hyp.hyp.clone().and((**a).clone());
                return self.entails_canonical(universals, &PreparedHyp::new(&hyp), b);
            }
            Constr::Forall(q, c) => {
                let hyp = hyp.under_binder(universals, q);
                let mut universals = universals.to_vec();
                universals.push((q.var.clone(), q.sort));
                return self.entails_canonical(&universals, &hyp, c);
            }
            _ => {}
        }

        // Only an `∃` has an existential prefix to eliminate; an `∃` under
        // `∨` or `¬` goes through `no_exists_canonical`'s per-disjunct path.
        if let Constr::Exists(_, _) = goal {
            self.eliminate(universals, hyp, goal)
        } else {
            self.no_exists_canonical(universals, hyp, goal)
        }
    }

    /// Eliminates the existential prefix of `goal` by candidate search
    /// ([`exelim::eliminate_existentials`]), the one place existentials are
    /// removed.  When no candidate assignment works the goal fails as an
    /// exhausted search: no numeric counterexample exists, so none is
    /// reported.
    fn eliminate(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &PreparedHyp<'_>,
        goal: &Constr,
    ) -> Validity {
        let outcome = exelim::eliminate_existentials(self, universals, hyp, goal);
        match outcome.found {
            Some((_, p)) => Validity::Valid(p),
            None => {
                self.note_search_exhausted(outcome.stats.exhausted);
                Validity::Invalid(None)
            }
        }
    }

    /// Checks an entailment whose goal contains no existential quantifier.
    pub(crate) fn entails_no_exists(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &PreparedHyp<'_>,
        goal: &Constr,
    ) -> Validity {
        let goal = simplify(goal);
        self.no_exists_canonical(universals, hyp, &goal)
    }

    /// [`Solver::entails_no_exists`] on an already-simplified goal; the
    /// structural recursion below stays here so each decomposition level
    /// reuses the one simplification done at entry instead of rebuilding
    /// the goal tree per level.
    fn no_exists_canonical(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &PreparedHyp<'_>,
        goal: &Constr,
    ) -> Validity {
        match goal {
            Constr::Top => Validity::proved(),
            Constr::And(cs) => {
                let mut prov = Provenance::Proved;
                for c in cs {
                    match self.no_exists_canonical(universals, hyp, c) {
                        Validity::Valid(p) => prov = prov.and(p),
                        other => return other,
                    }
                }
                Validity::Valid(prov)
            }
            Constr::Implies(a, b) => {
                let hyp = hyp.hyp.clone().and((**a).clone());
                self.no_exists_canonical(universals, &PreparedHyp::new(&hyp), b)
            }
            Constr::Forall(q, c) => {
                let hyp = hyp.under_binder(universals, q);
                let mut universals = universals.to_vec();
                universals.push((q.var.clone(), q.sort));
                self.no_exists_canonical(&universals, &hyp, c)
            }
            Constr::Or(cs) => {
                // Sufficient condition: one disjunct is entailed on its own.
                // Disjuncts may contain their own existentials (heuristic 1
                // joins the consC/consNC derivations with ∨), so recurse
                // through the full pipeline per disjunct.
                for c in cs {
                    if c.existential_vars().is_empty() {
                        if self.fm_proves(universals, hyp, c) {
                            return Validity::proved();
                        }
                    } else if let v @ Validity::Valid(_) =
                        self.entails_canonical(universals, hyp, c)
                    {
                        return v;
                    }
                }
                if goal.existential_vars().is_empty() {
                    // Pointwise-only disjunctions (no single disjunct is
                    // entailed) are exactly where the case-splitting FM
                    // refutation shines: ¬(d₁ ∨ d₂) conjoins both negations.
                    if let Some(v) = self.symbolic_decide(universals, hyp, goal) {
                        return v;
                    }
                    self.numeric_check(universals, hyp.hyp, goal)
                } else {
                    self.note_search_exhausted(None);
                    Validity::Invalid(None)
                }
            }
            Constr::Eq(_, _)
            | Constr::Leq(_, _)
            | Constr::Lt(_, _)
            | Constr::Bot
            | Constr::Not(_) => {
                if let Some(v) = self.symbolic_decide(universals, hyp, goal) {
                    return v;
                }
                self.numeric_check(universals, hyp.hyp, goal)
            }
            // An `∃` under a binder the decomposition above has now opened:
            // its witness may name that binder, so it is eliminated here, in
            // scope.  Each step strips at least one `∃`, and the instantiated
            // goals go back through `entails_no_exists`, so the per-candidate
            // sub-queries stay out of the verdict caches.
            Constr::Exists(_, _) => self.eliminate(universals, hyp, goal),
        }
    }

    // ----------------------------------------------------------------------
    // Fourier–Motzkin layer
    // ----------------------------------------------------------------------

    /// Runs Fourier–Motzkin on `hyp ⟹ goal`: the prepared hypothesis's base
    /// system (built on the first run under it) plus the goal's own lemma
    /// facts, against the rewritten goal.  Records its cost and memo
    /// counters and counts a proof, but records no refutation: what a
    /// feasible branch means is up to the caller.
    fn run_fm(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &PreparedHyp<'_>,
        goal: &Constr,
    ) -> FmOutcome {
        let facts = hyp.facts(universals);
        let nat_vars = hyp.nat_vars(universals);
        let (rewritten_goal, extra) = facts.goal_side(goal, nat_vars);
        let tf = Instant::now();
        let base = hyp.fm_base(universals, &mut self.fm_memo);
        let outcome = {
            let _fm_span = rel_obs::span_with("fm.prove", (facts.facts.len() + extra.len()) as u64);
            fm::prove(
                universals,
                nat_vars,
                base,
                &extra,
                &rewritten_goal,
                &self.fm_limits,
                &mut self.fm_memo,
            )
        };
        self.stats.fm_time += tf.elapsed();
        #[cfg(feature = "reference-eval")]
        reference::check_fm_oracle(universals, hyp.hyp, goal, &self.fm_limits, &outcome);
        self.stats.fm_memo_hits += outcome.memo_hits;
        self.stats.fm_memo_misses += outcome.memo_misses;
        if outcome.memo_hits > 0 {
            rel_obs::event_with("fm.memo_hit", outcome.memo_hits as u64);
        }
        if outcome.verdict == FmVerdict::Proved {
            self.stats.fm_proved += 1;
        }
        outcome
    }

    /// Whether Fourier–Motzkin proves `hyp ⟹ goal` — the test applied to
    /// each existential-free disjunct of an `Or` goal.  Only a proof counts:
    /// refuting one disjunct does not refute the disjunction.
    fn fm_proves(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &PreparedHyp<'_>,
        goal: &Constr,
    ) -> bool {
        self.config.use_fm && self.run_fm(universals, hyp, goal).verdict == FmVerdict::Proved
    }

    /// The symbolic layer on an existential-free goal: Fourier–Motzkin over
    /// the prepared hypothesis and the goal's own facts.  Returns
    /// `Some(Valid(Proved))` on a proof, `Some(Invalid)` on a verified FM
    /// witness, and `None` when the query must fall through to the numeric
    /// layer.
    fn symbolic_decide(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &PreparedHyp<'_>,
        goal: &Constr,
    ) -> Option<Validity> {
        let _span = rel_obs::span("solver.symbolic");
        // A new goal's decision invalidates whatever elimination order the
        // *previous* goal's FM run left pending — a later refutation must
        // never be annotated with another goal's atoms.
        self.pending_fm_order.clear();
        if !self.config.use_fm {
            return None;
        }
        let outcome = self.run_fm(universals, hyp, goal);
        match outcome.verdict {
            FmVerdict::Proved => Some(Validity::proved()),
            FmVerdict::CandidateRefuted | FmVerdict::Abstained => {
                // Remember the elimination order: if *this* goal goes on to
                // be refuted, the diagnostic can say which atoms FM
                // projected before handing over.
                self.pending_fm_order = outcome.eliminated;
                // A witness exists only when every atom was a plain variable
                // (no abstraction gap).  Even then it is trusted only after
                // re-evaluating the original implication at the point — that
                // single evaluation is what makes the verdict exactly as
                // sound as a grid counterexample, at none of the sweep's
                // cost.
                let witness = outcome.witness?;
                let mut env = IdxEnv::new();
                for (v, _) in universals {
                    env.bind(v.clone(), Extended::ZERO);
                }
                for (v, q) in witness {
                    env.bind(v, Extended::Finite(q));
                }
                // Variables consumed as hypothesis-equality rewrites were
                // substituted out of the FM system; reconstruct their values
                // from the rewrite right-hand sides so the full (unrewritten)
                // hypothesis evaluates correctly.  Iterated to a fixed point:
                // `split_rewrites` closes chains where it can, but a rewrite
                // whose right-hand side still mentions another rewritten
                // variable (cycle guard, bounded closure) would otherwise
                // evaluate against that variable's stale zero default and
                // discard a genuine counterexample.
                let rewrites = &hyp.facts(universals).rewrites;
                for _ in 0..rewrites.len().max(1) {
                    for (v, idx) in rewrites {
                        if let Ok(value) = idx.eval(&env) {
                            env.bind(v.clone(), value);
                        }
                    }
                }
                // A rebuilt value may leave its sort (`m = a/2` gives m = 1/2
                // at a = 1): such a point is no counterexample over ℕ.
                let in_domain = universals.iter().all(|(v, sort)| {
                    *sort != Sort::Nat
                        || matches!(env.lookup(v), Some(Extended::Finite(q)) if q.is_integer() && !q.is_negative())
                });
                let formula = hyp.hyp.clone().implies(goal.clone());
                if in_domain && !formula.eval_bounded(&env, self.config.inner_quantifier_bound) {
                    self.stats.fm_refuted += 1;
                    self.note_counterexample(CexSource::FmWitness, &env);
                    return Some(Validity::Invalid(Some(env)));
                }
                None
            }
        }
    }

    // ----------------------------------------------------------------------
    // Numeric layer
    // ----------------------------------------------------------------------

    /// Bounded-exhaustive plus randomized check of `∀ universals. hyp ⟹ goal`.
    ///
    /// Compiles the implication **once** to the flat bytecode of
    /// [`crate::compile`] (memoized in the program cache) and re-evaluates
    /// that program — with a single reused evaluation frame — at every grid
    /// and random point.  Builds with the `reference-eval` feature can route
    /// the sweep through the tree-walking oracle instead
    /// (`with_tree_eval`); verdicts, counterexamples and point counts are
    /// identical either way (differential-tested).
    fn numeric_check(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &Constr,
        goal: &Constr,
    ) -> Validity {
        let _span = rel_obs::span_with("solver.numeric", universals.len() as u64);
        self.stats.numeric_checks += 1;
        let tn = Instant::now();
        #[cfg(feature = "reference-eval")]
        let v = if reference::tree_eval_selected() {
            self.numeric_check_tree(universals, hyp, goal)
        } else {
            self.numeric_sweep(universals, hyp, goal)
        };
        #[cfg(not(feature = "reference-eval"))]
        let v = self.numeric_sweep(universals, hyp, goal);
        self.stats.numeric_time += tn.elapsed();
        v
    }

    /// The verdict of a numeric sweep that found no counterexample: a
    /// grid-checked accept.
    fn numeric_accept(&mut self) -> Validity {
        self.stats.grid_accepted += 1;
        Validity::grid_checked()
    }

    /// Records a counterexample for the failure diagnostics, claiming the
    /// pending FM elimination order (it belongs to the goal being refuted).
    fn note_counterexample(&mut self, source: CexSource, env: &IdxEnv) {
        self.last_refutation.source = Some(source);
        self.last_refutation.env = Some(env.clone());
        self.last_refutation.fm_eliminated = std::mem::take(&mut self.pending_fm_order);
    }

    /// Records an exhausted existential search (no numeric counterexample),
    /// with the cap that ended it when one fired.
    fn note_search_exhausted(&mut self, why: Option<(SearchExhaustedReason, u64)>) {
        self.last_refutation.source = Some(CexSource::SearchExhausted);
        self.last_refutation.env = None;
        self.last_refutation.fm_eliminated = std::mem::take(&mut self.pending_fm_order);
        self.last_refutation.exhausted = why;
        if let Some((reason, _)) = why {
            self.stats.search_exhausted = self.stats.search_exhausted.or(Some(reason));
        }
    }

    /// Adaptive per-variable grid size so the total stays under the cap.
    fn per_var_grid(&self, vars: usize) -> u64 {
        let k = vars as u32;
        let mut per_var = self.config.nat_grid_max + 1;
        while (per_var as u128).pow(k) > self.config.max_grid_points as u128 && per_var > 3 {
            per_var -= 1;
        }
        per_var
    }

    /// Looks up (or compiles and memoizes) the bytecode of one query.
    fn lookup_or_compile(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &Constr,
        goal: &Constr,
    ) -> Arc<CompiledQuery> {
        let hash = program_key_hash(universals, hyp, goal);
        let found = self
            .programs
            .map
            .get(hash, |(u, h, g)| u == universals && h == hyp && g == goal);
        if let Some(program) = found {
            self.stats.program_cache_hits += 1;
            return program;
        }
        self.stats.programs_compiled += 1;
        let program = {
            let _span = rel_obs::span("grid.compile");
            Arc::new(compile_query(universals, hyp, goal))
        };
        self.programs.map.insert(
            hash,
            (universals.to_vec(), hyp.clone(), goal.clone()),
            Arc::clone(&program),
        );
        program
    }

    /// The sweep behind [`Solver::numeric_check`]: the grid, then the
    /// off-grid random samples, through one compiled program.
    fn numeric_sweep(
        &mut self,
        universals: &[(IdxVar, Sort)],
        hyp: &Constr,
        goal: &Constr,
    ) -> Validity {
        let bound = self.config.inner_quantifier_bound;
        let program = self.lookup_or_compile(universals, hyp, goal);

        if universals.is_empty() {
            let mut frame = program.new_frame();
            self.stats.points_evaluated += 1;
            return if program.eval(&mut frame, bound) {
                self.numeric_accept()
            } else {
                let env = IdxEnv::new();
                self.note_counterexample(CexSource::GridSweep, &env);
                Validity::Invalid(Some(env))
            };
        }

        let per_var = self.per_var_grid(universals.len());
        let mut frame = program.new_frame();
        let failing = self.grid_sweep(&program, &mut frame, universals.len(), per_var, bound);
        if let Some(coords) = failing {
            let env = IdxEnv::from_pairs(
                universals
                    .iter()
                    .zip(&coords)
                    .map(|((v, _), n)| (v.clone(), Extended::from(*n))),
            );
            self.note_counterexample(CexSource::GridSweep, &env);
            return Validity::Invalid(Some(env));
        }

        // Randomized phase: the seeded stream of `draw_random_point`, where
        // points that already lie on the exhaustively-swept grid are skipped
        // (they cannot change the verdict and used to inflate
        // `points_evaluated`).  The stream is always consumed in full so
        // skipping never shifts later samples.
        if self.config.random_points > 0 {
            let mut rng = StdRng::seed_from_u64(self.config.rng_seed);
            let mut sample = vec![Extended::ZERO; universals.len()];
            let mut point = vec![Val::int(0); universals.len()];
            for _ in 0..self.config.random_points {
                if draw_random_point(&mut rng, universals, per_var, &mut sample) {
                    continue;
                }
                for (p, e) in point.iter_mut().zip(&sample) {
                    *p = Val::from_ext(*e);
                }
                self.stats.points_evaluated += 1;
                if !program.eval_point(&mut frame, &point, bound) {
                    let env = program.point_env(universals, &point);
                    self.note_counterexample(CexSource::RandomSample, &env);
                    return Validity::Invalid(Some(env));
                }
            }
        }

        self.numeric_accept()
    }

    /// Sweeps the whole grid with one reused frame; returns the coordinates
    /// of the first failing point.
    fn grid_sweep(
        &mut self,
        program: &CompiledQuery,
        frame: &mut crate::compile::EvalFrame,
        vars: usize,
        per_var: u64,
        bound: u64,
    ) -> Option<Vec<u64>> {
        let mut coords = vec![0u64; vars];
        let mut evaluated = 0usize;
        // Seed every universal slot once; the odometer then rewrites only
        // the slots whose coordinate actually changed (~1 per point).
        // Non-owner entries (shadowed duplicate names) never write: their
        // slot belongs to the last entry of the name, exactly the tree
        // evaluator's last-binding-wins environment.
        for i in 0..vars {
            frame.set_slot(program.universal_slot(i), Val::int(0));
        }
        let owns = |i: usize| program.universal_owner(i);
        let failing = 'grid: loop {
            evaluated += 1;
            if !program.eval(frame, bound) {
                break true;
            }
            // Advance the odometer (coordinate 0 fastest).
            let mut i = 0;
            loop {
                if i == coords.len() {
                    break 'grid false;
                }
                coords[i] += 1;
                if coords[i] < per_var {
                    if owns(i) {
                        frame.set_slot(program.universal_slot(i), Val::int(coords[i] as i64));
                    }
                    break;
                }
                coords[i] = 0;
                if owns(i) {
                    frame.set_slot(program.universal_slot(i), Val::int(0));
                }
                i += 1;
            }
        };
        self.stats.points_evaluated += evaluated;
        failing.then_some(coords)
    }

    /// Records one candidate-substitution attempt (called by `exelim`).
    pub(crate) fn note_exelim_attempt(&mut self) {
        self.stats.exelim_attempts += 1;
    }

    /// Records one candidate assignment rejected without a solver call
    /// (called by `exelim`'s component search).
    pub(crate) fn note_exelim_pruned(&mut self) {
        self.stats.exelim_candidates_pruned += 1;
    }
}

// --------------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------------

/// Draws one random sample point from the seeded stream (the same draws, in
/// the same order, as the seed solver), returning `true` when every
/// coordinate already lies on the exhaustive grid (integer-valued and below
/// `per_var`).  The sweep and the tree-walking oracle share this helper so
/// their streams — and therefore verdicts, counterexamples and
/// `points_evaluated` — stay in lockstep structurally rather than by
/// convention.
fn draw_random_point(
    rng: &mut StdRng,
    vars: &[(IdxVar, Sort)],
    per_var: u64,
    out: &mut [Extended],
) -> bool {
    let mut on_grid = true;
    for (slot, (_, sort)) in out.iter_mut().zip(vars) {
        *slot = match sort {
            Sort::Nat => {
                let n = rng.gen_range(0..64u64);
                on_grid &= n < per_var;
                Extended::from(n)
            }
            Sort::Real => {
                let q = Rational::new(rng.gen_range(0..128i64), 2);
                on_grid &= q.is_integer() && (q.numerator() as u64) < per_var;
                Extended::Finite(q)
            }
        };
    }
    on_grid
}

/// A hypothesis prepared once for every goal decided under it: the
/// symbolic layer's "push".
///
/// Everything the symbolic layer derives from the hypothesis alone — its
/// flattened conjuncts, its atoms and their lemma instances, the equality
/// rewrites and the rewritten facts, and the normalized Fourier–Motzkin
/// base system over them ([`FmBase`]) — is built on first use and shared by
/// every goal decided under the hypothesis: the conjuncts, implication
/// bodies and ∀-bodies a goal decomposes into, and each candidate instance
/// of [`crate::exelim`].  A goal adds only its own work: lemma instances
/// for atoms the hypothesis lacks, its rewrite and its negated DNF.  The
/// value is passed down the recursion; it has no key and is never looked
/// up, and a goal answered before the symbolic layer (by the validity
/// cache, or structurally) prepares nothing.
///
/// What is built depends on which universals are ℕ-sorted (integer-only
/// lemmas, integer tightening), so every query decided under one value
/// must pass universals with the same ℕ-sorted set (the solver re-prepares
/// under a `∀` that adds an ℕ-sorted variable).
pub struct PreparedHyp<'h> {
    hyp: &'h Constr,
    lazy: Rc<Prepared<'h>>,
}

/// The parts of a [`PreparedHyp`], each built on first use.
#[derive(Default)]
struct Prepared<'h> {
    nat_vars: OnceCell<BTreeSet<IdxVar>>,
    facts: OnceCell<HypFacts<'h>>,
    base: OnceCell<FmBase>,
}

/// The facts the symbolic layer derives from a hypothesis.
struct HypFacts<'h> {
    /// The hypothesis's atoms (their lemma instances are in `facts`).
    atoms: BTreeSet<Atom>,
    /// Hypothesis equalities used as variable rewrites (FM witnesses
    /// rebuild the rewritten variables from them).
    rewrites: Vec<(IdxVar, Idx)>,
    /// The rewritten facts: the conjuncts that are not rewrites, the
    /// atoms' lemma instances, and `0 ≤ rhs` for each rewrite `x := rhs` —
    /// FM's own non-negativity row for `x` is lost with `x`, and `rhs` can
    /// be negative where `x` cannot (`m = a − b` gives `b ≤ a`).
    facts: Vec<Cow<'h, Constr>>,
}

impl<'h> PreparedHyp<'h> {
    /// Prepares `hyp`; nothing is built until a goal under it reaches the
    /// symbolic layer.
    pub fn new(hyp: &'h Constr) -> PreparedHyp<'h> {
        PreparedHyp {
            hyp,
            lazy: Rc::default(),
        }
    }

    /// The hypothesis itself.
    pub fn hyp(&self) -> &'h Constr {
        self.hyp
    }

    /// The same hypothesis for the queries under `∀q`, whose universals are
    /// `universals` plus `q`: everything built so far is shared unless `q`
    /// adds an ℕ-sorted variable, in which case it is rebuilt on first use.
    pub(crate) fn under_binder(
        &self,
        universals: &[(IdxVar, Sort)],
        q: &Quantified,
    ) -> PreparedHyp<'h> {
        let adds_nat = q.sort == Sort::Nat
            && !universals
                .iter()
                .any(|(v, sort)| *v == q.var && *sort == Sort::Nat);
        PreparedHyp {
            hyp: self.hyp,
            lazy: if adds_nat {
                Rc::default()
            } else {
                Rc::clone(&self.lazy)
            },
        }
    }

    fn nat_vars(&self, universals: &[(IdxVar, Sort)]) -> &BTreeSet<IdxVar> {
        self.lazy
            .nat_vars
            .get_or_init(|| fm::nat_var_set(universals))
    }

    fn facts(&self, universals: &[(IdxVar, Sort)]) -> &HypFacts<'h> {
        self.lazy.facts.get_or_init(|| {
            let _span = rel_obs::span("solver.prepare");
            HypFacts::new(self.hyp, self.nat_vars(universals))
        })
    }

    fn fm_base(&self, universals: &[(IdxVar, Sort)], memo: &mut FmMemo) -> &FmBase {
        self.lazy.base.get_or_init(|| {
            let _span = rel_obs::span("solver.prepare");
            let facts = self.facts(universals);
            FmBase::new(
                facts.facts.iter().map(|c| c.as_ref()),
                self.nat_vars(universals),
                memo,
            )
        })
    }
}

impl<'h> HypFacts<'h> {
    fn new(hyp: &'h Constr, nat_vars: &BTreeSet<IdxVar>) -> HypFacts<'h> {
        let atoms = lemmas::atoms_of_constr(hyp);
        let mut lemma_facts = Vec::new();
        lemmas::saturate(&BTreeSet::new(), &atoms, nat_vars, &mut lemma_facts);
        // Lemma facts never become rewrites (the one lemma equality,
        // `⌈n/2⌉ + ⌊n/2⌋ = n`, mentions `n` on both sides), so the rewrites
        // come from the hypothesis alone.
        let (rewrites, rest) = split_rewrites(&conjuncts(hyp));
        let rewritten = |c: Constr| Cow::Owned(apply_rewrites(&c, &rewrites).into_owned());
        let mut facts: Vec<Cow<'h, Constr>> =
            rest.iter().map(|c| apply_rewrites(c, &rewrites)).collect();
        facts.extend(lemma_facts.into_iter().map(rewritten));
        facts.extend(
            rewrites
                .iter()
                .map(|(x, _)| rewritten(Constr::leq(Idx::zero(), Idx::Var(x.clone())))),
        );
        HypFacts {
            atoms,
            rewrites,
            facts,
        }
    }

    /// A goal's own part of a query: the goal rewritten, and the rewritten
    /// lemma instances of its atoms the hypothesis lacks.  A goal without a
    /// node any lemma is about skips the atom scan.
    fn goal_side<'g>(
        &self,
        goal: &'g Constr,
        nat_vars: &BTreeSet<IdxVar>,
    ) -> (Cow<'g, Constr>, Vec<Constr>) {
        let mut extra = Vec::new();
        if lemmas::has_lemma_atoms(goal) {
            let atoms = lemmas::atoms_of_constr(goal);
            lemmas::saturate(&self.atoms, &atoms, nat_vars, &mut extra);
            for fact in &mut extra {
                if let Cow::Owned(rewritten) = apply_rewrites(fact, &self.rewrites) {
                    *fact = rewritten;
                }
            }
        }
        (apply_rewrites(goal, &self.rewrites), extra)
    }
}

/// Flattens the top-level conjunctive structure of a hypothesis into atoms,
/// borrowing them from the hypothesis (no clones on this path).
fn conjuncts(c: &Constr) -> Vec<&Constr> {
    let mut out = Vec::new();
    fn go<'a>(c: &'a Constr, out: &mut Vec<&'a Constr>) {
        match c {
            Constr::Top => {}
            Constr::And(cs) => {
                for c in cs {
                    go(c, out);
                }
            }
            other => out.push(other),
        }
    }
    go(c, &mut out);
    out
}

/// Splits hypothesis facts into variable rewrites (`x = I` with `x ∉ I`) and
/// the remaining (still borrowed) inequality facts.
///
/// Only the *first* equality per variable becomes a rewrite: a second one
/// (`a = 0 ∧ a = β + 1` — the consC/nil case split produces these) must
/// stay a fact, because applying both as rewrites silently drops the
/// constraint connecting the two right-hand sides — exactly the
/// contradiction that proves a vacuous branch.
fn split_rewrites<'a>(facts: &[&'a Constr]) -> (Vec<(IdxVar, Idx)>, Vec<&'a Constr>) {
    let mut rewrites: Vec<(IdxVar, Idx)> = Vec::new();
    let mut rest = Vec::new();
    let rewritten = |rewrites: &[(IdxVar, Idx)], v: &IdxVar| rewrites.iter().any(|(w, _)| w == v);
    for f in facts.iter().copied() {
        match f {
            Constr::Eq(Idx::Var(v), rhs) if !rhs.mentions(v) && !rewritten(&rewrites, v) => {
                rewrites.push((v.clone(), rhs.clone()));
            }
            Constr::Eq(lhs, Idx::Var(v)) if !lhs.mentions(v) && !rewritten(&rewrites, v) => {
                rewrites.push((v.clone(), lhs.clone()));
            }
            other => rest.push(other),
        }
    }
    // Close the rewrites under each other (bounded iterations): a rewrite's
    // right-hand side may mention a variable that is itself rewritten.
    for _ in 0..rewrites.len() {
        let snapshot = rewrites.clone();
        for (v, rhs) in rewrites.iter_mut() {
            for (w, replacement) in &snapshot {
                if w != v && rhs.mentions(w) && !replacement.mentions(v) {
                    *rhs = rhs.subst(w, replacement);
                }
            }
        }
    }
    (rewrites, rest)
}

/// Applies variable rewrites throughout a constraint, borrowing the input
/// when no rewrite variable occurs in it (the common case for most facts).
/// Each substitution shares the subterms it leaves unchanged.
fn apply_rewrites<'a>(c: &'a Constr, rewrites: &[(IdxVar, Idx)]) -> Cow<'a, Constr> {
    let mut acc = Cow::Borrowed(c);
    for (v, i) in rewrites {
        if acc.mentions(v) {
            acc = Cow::Owned(acc.subst(v, i));
        }
    }
    acc
}

/// Constant-folds atomic comparisons and simplifies trivial connectives.
///
/// Idempotent (see the `Not` arm).  Copy-on-write: a subterm that is
/// already simplified comes back as the input's own allocation, so
/// re-simplifying a simplified constraint allocates at most its top-level
/// conjunction vector.
pub fn simplify(c: &Constr) -> Constr {
    simplify_changed(c).unwrap_or_else(|| c.clone())
}

/// [`simplify`], or `None` when the constraint is already simplified.
fn simplify_changed(c: &Constr) -> Option<Constr> {
    match c {
        Constr::Eq(a, b) => simplify_atom(a, b, Constr::Eq, |x, y| x == y, true),
        Constr::Leq(a, b) => simplify_atom(a, b, Constr::Leq, |x, y| x <= y, true),
        Constr::Lt(a, b) => simplify_atom(a, b, Constr::Lt, |x, y| x < y, false),
        Constr::And(cs) => simplify_list(
            cs,
            |c| matches!(c, Constr::Top | Constr::Bot | Constr::And(_)),
            Constr::conj,
        ),
        Constr::Or(cs) => simplify_list(
            cs,
            |c| matches!(c, Constr::Top | Constr::Bot | Constr::Or(_)),
            Constr::disj,
        ),
        // `negate` flips comparisons (¬(a < b) becomes b ≤ a) without
        // re-folding them, so simplify the flipped form once more: this is
        // what makes `simplify` idempotent, the invariant the solver's
        // canonical entry points (`entails_canonical`,
        // `no_exists_canonical`) rely on to skip re-simplification at every
        // decomposition level.  A `Not` result is the opaque case (e.g.
        // ¬(a = b)) whose operand is already simplified — recursing on it
        // would loop.
        Constr::Not(inner) => match simplify_changed(inner) {
            None if !matches!(
                **inner,
                Constr::Top | Constr::Bot | Constr::Not(_) | Constr::Leq(..) | Constr::Lt(..)
            ) =>
            {
                None
            }
            changed => Some(
                match changed.unwrap_or_else(|| Constr::clone(inner)).negate() {
                    negated @ Constr::Not(_) => negated,
                    negated => simplify(&negated),
                },
            ),
        },
        // As `Constr::implies`, keeping an unchanged side's allocation.
        Constr::Implies(a, b) => {
            let (na, nb) = (simplify_changed(a), simplify_changed(b));
            match (na.as_ref().unwrap_or(a), nb.as_ref().unwrap_or(b)) {
                (Constr::Top, sb) => Some(sb.clone()),
                (Constr::Bot, _) | (_, Constr::Top) => Some(Constr::Top),
                _ if na.is_none() && nb.is_none() => None,
                _ => Some(Constr::Implies(share(na, a), share(nb, b))),
            }
        }
        // As `Constr::forall`/`Constr::exists`: a binder whose variable the
        // simplified body no longer mentions is dropped.
        Constr::Forall(q, body) | Constr::Exists(q, body) => {
            let nb = simplify_changed(body);
            if !nb.as_ref().unwrap_or(body).mentions(&q.var) {
                return Some(nb.unwrap_or_else(|| Constr::clone(body)));
            }
            let body = Arc::new(nb?);
            Some(match c {
                Constr::Forall(..) => Constr::Forall(q.clone(), body),
                _ => Constr::Exists(q.clone(), body),
            })
        }
        Constr::Top | Constr::Bot => None,
    }
}

/// `join` (`Constr::conj` or `Constr::disj`) over the simplified parts, or
/// `None` when no part changed and `join` would rebuild the same list: it
/// has two or more parts and none that `join` folds away (`folded`: a unit
/// or a nested list of the same connective).
fn simplify_list(
    cs: &[Constr],
    folded: fn(&Constr) -> bool,
    join: fn(Vec<Constr>) -> Constr,
) -> Option<Constr> {
    match map_vec(cs, simplify_changed) {
        None if cs.len() > 1 && !cs.iter().any(folded) => None,
        parts => Some(join(parts.unwrap_or_else(|| cs.to_vec()))),
    }
}

/// Folds a comparison whose sides normalize to constants to `Top`/`Bot`;
/// `reflexive` comparisons of syntactically equal sides hold too.
fn simplify_atom(
    a: &Idx,
    b: &Idx,
    node: fn(Idx, Idx) -> Constr,
    holds: fn(&Extended, &Extended) -> bool,
    reflexive: bool,
) -> Option<Constr> {
    let (na, nb) = (normalize_changed(a), normalize_changed(b));
    let (sa, sb) = (na.as_ref().unwrap_or(a), nb.as_ref().unwrap_or(b));
    match (sa.as_const(), sb.as_const()) {
        (Some(x), Some(y)) => Some(if holds(&x, &y) {
            Constr::Top
        } else {
            Constr::Bot
        }),
        _ if reflexive && sa == sb => Some(Constr::Top),
        _ if na.is_none() && nb.is_none() => None,
        _ => Some(node(
            na.unwrap_or_else(|| a.clone()),
            nb.unwrap_or_else(|| b.clone()),
        )),
    }
}

/// The rewritten subconstraint, or the input's own allocation when the
/// rewrite left it unchanged (`new` is `None`).
fn share(new: Option<Constr>, old: &Arc<Constr>) -> Arc<Constr> {
    new.map_or_else(|| Arc::clone(old), Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constr::Quantified;
    use proptest::prelude::*;

    fn nat_vars(names: &[&str]) -> Vec<(IdxVar, Sort)> {
        names.iter().map(|n| (IdxVar::new(*n), Sort::Nat)).collect()
    }

    /// A configuration with the FM layer off — used by the tests that
    /// exercise the numeric layer itself (grid sweeps, program caches),
    /// which the complete linear decision procedure would now short-circuit.
    fn no_fm() -> SolveConfig {
        SolveConfig {
            use_fm: false,
            ..SolveConfig::default()
        }
    }

    #[test]
    fn trivial_goals() {
        let mut s = Solver::new();
        assert!(s.entails(&[], &Constr::Top, &Constr::Top).is_valid());
        assert!(s
            .entails(&[], &Constr::Top, &Constr::leq(Idx::nat(1), Idx::nat(2)))
            .is_valid());
        assert!(matches!(
            s.entails(&[], &Constr::Top, &Constr::leq(Idx::nat(3), Idx::nat(2))),
            Validity::Invalid(_)
        ));
    }

    #[test]
    fn linear_goals_are_discharged_symbolically() {
        let mut s = Solver::new();
        let u = nat_vars(&["n", "a"]);
        // n ≤ n + a
        let g = Constr::leq(Idx::var("n"), Idx::var("n") + Idx::var("a"));
        assert!(s.entails(&u, &Constr::Top, &g).is_valid());
        assert!(s.stats().fm_proved >= 1);
        assert_eq!(s.stats().numeric_checks, 0);
    }

    #[test]
    fn infinite_upper_bounds_are_proved() {
        // n ≤ a ⟹ n < a + ∞: the right-hand side is ∞ at every point and the
        // left is finite, so the comparison holds without any grid point.
        let mut s = Solver::new();
        let u = nat_vars(&["n", "a"]);
        let hyp = Constr::leq(Idx::var("n"), Idx::var("a"));
        let goal = Constr::lt(Idx::var("n"), Idx::var("a") + Idx::infty());
        assert_eq!(s.entails(&u, &hyp, &goal), Validity::proved());
        assert_eq!(s.stats().points_evaluated, 0);
    }

    #[test]
    fn false_hypotheses_prove_any_goal() {
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        assert_eq!(
            s.entails(&u, &Constr::Bot, &Constr::Bot),
            Validity::proved()
        );
        let goal = Constr::leq(Idx::var("n"), Idx::nat(3));
        assert_eq!(s.entails(&u, &Constr::Bot, &goal), Validity::proved());
        assert_eq!(s.stats().points_evaluated, 0);
    }

    #[test]
    fn existential_free_disjuncts_are_proved_by_fm() {
        // 3 ≤ n ⟹ (1 < n ∨ ∃i. n + i + 1 ≤ 0): the first disjunct needs
        // FM's integer tightening, and proving it settles the disjunction
        // before the existential one is ever searched.
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        let hyp = Constr::leq(Idx::nat(3), Idx::var("n"));
        let goal = Constr::lt(Idx::one(), Idx::var("n")).or(Constr::exists(
            "i",
            Sort::Nat,
            Constr::leq(Idx::var("n") + Idx::var("i") + Idx::one(), Idx::zero()),
        ));
        assert_eq!(s.entails(&u, &hyp, &goal), Validity::proved());
        assert!(s.stats().fm_proved >= 1);
        assert_eq!(s.stats().points_evaluated, 0);
    }

    #[test]
    fn hypotheses_are_used() {
        let mut s = Solver::new();
        let u = nat_vars(&["n", "m", "a"]);
        // n = m + 1 ∧ a ≤ m  ⟹  a + 1 ≤ n
        let hyp = Constr::eq(Idx::var("n"), Idx::var("m") + Idx::one())
            .and(Constr::leq(Idx::var("a"), Idx::var("m")));
        let goal = Constr::leq(Idx::var("a") + Idx::one(), Idx::var("n"));
        assert!(s.entails(&u, &hyp, &goal).is_valid());
    }

    #[test]
    fn invalid_entailments_produce_counterexamples() {
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        let goal = Constr::leq(Idx::var("n"), Idx::nat(5));
        match s.entails(&u, &Constr::Top, &goal) {
            Validity::Invalid(Some(env)) => {
                let v = Idx::var("n").eval(&env).unwrap();
                assert!(v > Extended::from(5));
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn ceiling_floor_lemmas_apply() {
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        // ⌈n/2⌉ + ⌊n/2⌋ ≤ n  (in fact equal)
        let goal = Constr::leq(
            Idx::half_ceil(Idx::var("n")) + Idx::half_floor(Idx::var("n")),
            Idx::var("n"),
        );
        assert!(s.entails(&u, &Constr::Top, &goal).is_valid());
        // ⌈n/2⌉ ≤ n
        let goal = Constr::leq(Idx::half_ceil(Idx::var("n")), Idx::var("n"));
        assert!(s.entails(&u, &Constr::Top, &goal).is_valid());
    }

    #[test]
    fn min_max_lemmas_apply() {
        let mut s = Solver::new();
        let u = nat_vars(&["a", "b"]);
        let goal = Constr::leq(Idx::min(Idx::var("a"), Idx::var("b")), Idx::var("a"));
        assert!(s.entails(&u, &Constr::Top, &goal).is_valid());
        let goal = Constr::leq(Idx::var("b"), Idx::max(Idx::var("a"), Idx::var("b")));
        assert!(s.entails(&u, &Constr::Top, &goal).is_valid());
    }

    #[test]
    fn implications_and_foralls_in_goals() {
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        // (n ≥ 3) → (1 ≤ n)
        let goal =
            Constr::geq(Idx::var("n"), Idx::nat(3)).implies(Constr::leq(Idx::one(), Idx::var("n")));
        assert!(s.entails(&u, &Constr::Top, &goal).is_valid());
        // ∀ m. m ≤ m + n
        let goal = Constr::forall(
            "m",
            Sort::Nat,
            Constr::leq(Idx::var("m"), Idx::var("m") + Idx::var("n")),
        );
        assert!(s.entails(&u, &Constr::Top, &goal).is_valid());
    }

    #[test]
    fn disjunction_goals() {
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        // (n ≤ n + 1) ∨ (n = 17): first disjunct is valid on its own.
        let goal = Constr::leq(Idx::var("n"), Idx::var("n") + Idx::one())
            .or(Constr::eq(Idx::var("n"), Idx::nat(17)));
        assert!(s.entails(&u, &Constr::Top, &goal).is_valid());
        // A disjunction valid only pointwise (n ≤ 8 ∨ n ≥ 5) is decided by
        // the FM case split — a *proof*, no grid point evaluated.
        let goal =
            Constr::leq(Idx::var("n"), Idx::nat(8)).or(Constr::geq(Idx::var("n"), Idx::nat(5)));
        assert_eq!(s.entails(&u, &Constr::Top, &goal), Validity::proved());
        assert!(s.stats().fm_proved >= 1);
        assert_eq!(s.stats().numeric_checks, 0);
        assert_eq!(s.stats().points_evaluated, 0);
        // With FM off it is still accepted, but only grid-checked.
        let mut tree = Solver::with_config(no_fm());
        assert_eq!(
            tree.entails(&u, &Constr::Top, &goal),
            Validity::grid_checked()
        );
        assert!(tree.stats().numeric_checks >= 1);
        assert!(tree.stats().grid_accepted >= 1);
    }

    #[test]
    fn existential_goals_are_eliminated() {
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        // ∃ i. n + 1 ≤ i ∧ i ≤ n + 1 ∧ n ≤ i: no equality defines `i`, so
        // the candidate search finds it.
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::leq(Idx::var("n") + Idx::one(), Idx::var("i"))
                .and(Constr::leq(Idx::var("i"), Idx::var("n") + Idx::one()))
                .and(Constr::leq(Idx::var("n"), Idx::var("i"))),
        );
        assert!(s.entails(&u, &Constr::Top, &goal).is_valid());
        assert!(s.stats().exelim_attempts >= 1);
    }

    #[test]
    fn existentials_under_disjunctions_under_binders_terminate() {
        // ∃t. t = n ∧ ∀x. (x + 1 ≤ 0 ∨ ∃y. y = x + t ∧ x ≤ y): elimination
        // of `t` reaches the `Or` under `∀x`, whose second disjunct runs a
        // nested elimination (y := x + n).
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        let disjunction = Constr::leq(Idx::var("x") + Idx::one(), Idx::zero()).or(Constr::exists(
            "y",
            Sort::Nat,
            Constr::eq(Idx::var("y"), Idx::var("x") + Idx::var("t"))
                .and(Constr::leq(Idx::var("x"), Idx::var("y"))),
        ));
        let goal = Constr::exists(
            "t",
            Sort::Nat,
            Constr::eq(Idx::var("t"), Idx::var("n")).and(Constr::forall(
                "x",
                Sort::Nat,
                disjunction,
            )),
        );
        let start = Instant::now();
        assert_eq!(s.entails(&u, &Constr::Top, &goal), Validity::proved());
        let wall = start.elapsed();
        // The FM and numeric leaf timers never nest, so their sum stays
        // within the wall clock of the query.
        let stats = s.stats();
        assert!(
            stats.fm_time + stats.numeric_time <= wall,
            "{stats:?} over {wall:?}"
        );
    }

    #[test]
    fn contradictory_hypotheses_entail_anything() {
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        let hyp = Constr::leq(Idx::var("n") + Idx::one(), Idx::var("n"));
        let goal = Constr::eq(Idx::nat(0), Idx::nat(1));
        assert!(s.entails(&u, &hyp, &goal).is_valid());
    }

    #[test]
    fn strict_inequalities() {
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        let hyp = Constr::leq(Idx::nat(3), Idx::var("n"));
        let goal = Constr::lt(Idx::nat(1), Idx::var("n"));
        assert!(s.entails(&u, &hyp, &goal).is_valid());
        let goal = Constr::lt(Idx::var("n"), Idx::var("n"));
        assert!(!s.entails(&u, &hyp, &goal).is_valid());
    }

    #[test]
    fn simplify_folds_constants() {
        assert_eq!(
            simplify(&Constr::leq(Idx::nat(2), Idx::nat(3))),
            Constr::Top
        );
        assert_eq!(
            simplify(&Constr::eq(Idx::nat(2) + Idx::nat(2), Idx::nat(4))),
            Constr::Top
        );
        assert_eq!(simplify(&Constr::lt(Idx::nat(4), Idx::nat(3))), Constr::Bot);
        let keep = Constr::leq(Idx::var("n"), Idx::nat(3));
        assert_eq!(simplify(&keep), keep);
    }

    #[test]
    fn cached_solver_agrees_with_uncached_and_reports_hits() {
        use crate::cache::ShardedValidityCache;
        let cache = Arc::new(ShardedValidityCache::new());
        let u = nat_vars(&["n", "a"]);
        let hyp = Constr::leq(Idx::var("a"), Idx::var("n"));
        let goals = [
            Constr::leq(Idx::var("a"), Idx::var("n") + Idx::one()),
            Constr::leq(Idx::var("n"), Idx::nat(3)),
            Constr::exists(
                "i",
                Sort::Nat,
                Constr::eq(Idx::var("i"), Idx::var("n") + Idx::one())
                    .and(Constr::leq(Idx::var("n"), Idx::var("i"))),
            ),
        ];

        let mut plain = Solver::new();
        let mut cached = Solver::new().with_cache(cache.clone());
        for goal in &goals {
            // Cold pass: every verdict matches the uncached solver.
            assert_eq!(
                plain.entails(&u, &hyp, goal),
                cached.entails(&u, &hyp, goal)
            );
        }
        assert_eq!(cached.stats().cache_hits, 0);
        let misses_after_cold = cached.stats().cache_misses;
        assert!(misses_after_cold > 0);

        // Warm pass: same queries, all answered from the cache.
        let mut warm = Solver::new().with_cache(cache.clone());
        for goal in &goals {
            assert_eq!(plain.entails(&u, &hyp, goal), warm.entails(&u, &hyp, goal));
        }
        assert!(warm.stats().cache_hits > 0);
        assert_eq!(warm.stats().cache_misses, 0);
        assert!(cache.stats().entries > 0);
    }

    /// A goal the symbolic layers cannot touch (the sum atom has no upper
    /// bound in the abstraction), so every solver path below exercises the
    /// numeric layer even with FM enabled.
    fn pointwise_goal() -> Constr {
        Constr::leq(
            Idx::sum("i", Idx::zero(), Idx::var("n"), Idx::one()),
            Idx::var("n") + Idx::one(),
        )
    }

    #[test]
    fn compiled_and_tree_numeric_paths_agree() {
        let u = nat_vars(&["n", "a"]);
        let hyp = Constr::leq(Idx::var("a"), Idx::var("n"));
        let goals = [
            pointwise_goal(),
            // Valid, with a summation forcing the inner loops.
            Constr::leq(
                Idx::sum(
                    "i",
                    Idx::zero(),
                    Idx::var("a"),
                    Idx::min(Idx::var("a"), Idx::pow2(Idx::var("i"))),
                ),
                Idx::var("n") * Idx::var("a") + Idx::var("n") + Idx::one(),
            ),
            // Invalid: both paths must report the *same* counterexample.
            Constr::leq(Idx::var("n") * Idx::var("n"), Idx::var("n") + Idx::nat(20)),
            // Inner quantifier.
            Constr::forall(
                "m",
                Sort::Nat,
                Constr::leq(Idx::var("m"), Idx::var("m") + Idx::var("n")),
            ),
        ];
        for goal in &goals {
            let mut compiled = Solver::new();
            let mut tree = Solver::new();
            assert_eq!(
                compiled.entails(&u, &hyp, goal),
                with_tree_eval(|| tree.entails(&u, &hyp, goal)),
                "compiled and tree verdicts diverge on {goal}"
            );
            assert_eq!(
                compiled.stats().points_evaluated,
                tree.stats().points_evaluated,
                "evaluation-point counts diverge on {goal}"
            );
            // The oracle really swept: it never compiles.
            assert_eq!(tree.stats().programs_compiled, 0);
        }
    }

    #[test]
    fn program_cache_reuses_compiled_queries() {
        let mut s = Solver::new().with_cache(Arc::new(crate::cache::ShardedValidityCache::new()));
        let u = nat_vars(&["n"]);
        let goal = pointwise_goal();
        assert!(s.entails(&u, &Constr::Top, &goal).is_valid());
        assert_eq!(s.stats().programs_compiled, 1);
        assert_eq!(s.stats().program_cache_hits, 0);
        let points_cold = s.stats().points_evaluated;
        assert!(points_cold > 0);
        // Same query again: the attached validity cache replays it outright
        // — no recompilation *and* no re-sweep.
        assert!(s.entails(&u, &Constr::Top, &goal).is_valid());
        assert_eq!(s.stats().programs_compiled, 1);
        assert_eq!(s.stats().points_evaluated, points_cold);
    }

    #[test]
    fn private_program_memo_answers_repeated_numeric_queries() {
        // `entails_no_exists` bypasses the verdict memo, so the second call
        // reaches the numeric layer again and must find its program in the
        // solver's private memo.
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        let goal = pointwise_goal();
        for _ in 0..2 {
            assert!(s
                .entails_no_exists(&u, &PreparedHyp::new(&Constr::Top), &goal)
                .is_valid());
        }
        assert_eq!(s.stats().numeric_checks, 2);
        assert_eq!(s.stats().programs_compiled, 1);
        assert_eq!(s.stats().program_cache_hits, 1);
        assert_eq!(
            s.programs.stats(),
            ProgramCacheStats {
                hits: 1,
                misses: 1,
                entries: 1,
                evictions: 0,
            }
        );
    }

    #[test]
    fn shared_program_cache_spans_solvers() {
        let shared = Arc::new(SharedProgramCache::new());
        let u = nat_vars(&["n"]);
        let goal = pointwise_goal();

        let mut first = Solver::new().with_program_cache(Arc::clone(&shared));
        assert!(first.entails(&u, &Constr::Top, &goal).is_valid());
        assert_eq!(first.stats().programs_compiled, 1);
        assert_eq!(shared.stats().entries, 1);

        // A *different* solver instance reuses the published bytecode.
        let mut second = Solver::new().with_program_cache(Arc::clone(&shared));
        assert!(second.entails(&u, &Constr::Top, &goal).is_valid());
        assert_eq!(second.stats().programs_compiled, 0);
        assert_eq!(second.stats().program_cache_hits, 1);
    }

    #[test]
    fn random_points_on_the_grid_are_not_recounted() {
        // One universal: the exhaustive grid covers 0..=10, and random Nat
        // samples land in 0..64 — the ones below 11 are skipped.  Both
        // evaluator paths must agree on the resulting point count.
        let u = nat_vars(&["n"]);
        let goal = pointwise_goal();
        let mut compiled = Solver::new();
        compiled.entails(&u, &Constr::Top, &goal);
        let mut tree = Solver::new();
        with_tree_eval(|| tree.entails(&u, &Constr::Top, &goal));
        assert_eq!(compiled.stats().programs_compiled, 1);
        assert_eq!(tree.stats().programs_compiled, 0);
        assert_eq!(
            compiled.stats().points_evaluated,
            tree.stats().points_evaluated
        );
        // 11 grid points plus at most 64 off-grid random points.
        assert!(compiled.stats().points_evaluated > 11);
        assert!(compiled.stats().points_evaluated < 11 + 64);
    }

    #[test]
    fn fm_integer_tightening_proves_strict_bounds() {
        // 3 ≤ n ⟹ 1 < n: FM's integer tightening refutes ¬goal (n ≤ 1)
        // against n ≥ 3 directly.
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        let hyp = Constr::leq(Idx::nat(3), Idx::var("n"));
        let goal = Constr::lt(Idx::one(), Idx::var("n"));
        assert_eq!(s.entails(&u, &hyp, &goal), Validity::proved());
        assert!(s.stats().fm_proved >= 1);
        assert_eq!(s.stats().points_evaluated, 0);
        // The same entailment is only grid-checked with FM off.
        let mut tree = Solver::with_config(no_fm());
        assert_eq!(tree.entails(&u, &hyp, &goal), Validity::grid_checked());
        assert!(tree.stats().points_evaluated > 0);
    }

    #[test]
    fn fm_witnesses_refute_without_grid_sweeps() {
        // The exact boundary: a + b ≤ 19 under the same hypotheses fails at
        // a = 10, b = 10 (or wherever FM's back-substitution lands); the
        // witness is verified by evaluation and no grid point is swept.
        let mut s = Solver::new();
        let u = nat_vars(&["a", "b"]);
        let hyp =
            Constr::leq(Idx::var("a"), Idx::nat(10)).and(Constr::leq(Idx::var("b"), Idx::nat(10)));
        let goal = Constr::leq(Idx::var("a") + Idx::var("b"), Idx::nat(19));
        match s.entails(&u, &hyp, &goal) {
            Validity::Invalid(Some(env)) => {
                // The witness genuinely falsifies the implication.
                assert!(hyp.eval_bounded(&env, 8));
                assert!(!goal.eval_bounded(&env, 8));
            }
            other => panic!("expected a witnessed refutation, got {other:?}"),
        }
        assert!(s.stats().fm_refuted >= 1);
        assert_eq!(s.stats().points_evaluated, 0);
        assert_eq!(s.last_refutation().source, Some(CexSource::FmWitness));
        assert!(!s.last_refutation().fm_eliminated.is_empty());
    }

    #[test]
    fn fm_witnesses_solve_product_factors() {
        // t·a ≤ 0 under 1 ≤ a: the product is an opaque atom, but the
        // concretizer divides the product's witness value back out to get
        // t — zero grid points for the refutation.
        let mut s = Solver::new();
        let u = vec![
            (IdxVar::new("t"), Sort::Real),
            (IdxVar::new("a"), Sort::Nat),
        ];
        let hyp = Constr::leq(Idx::one(), Idx::var("a"));
        let goal = Constr::leq(Idx::var("t") * Idx::var("a"), Idx::zero());
        match s.entails(&u, &hyp, &goal) {
            Validity::Invalid(Some(env)) => {
                assert!(!goal.eval_bounded(&env, 8), "witness must falsify: {env:?}");
            }
            other => panic!("expected a witnessed refutation, got {other:?}"),
        }
        assert_eq!(s.stats().points_evaluated, 0);
    }

    #[test]
    fn integer_only_lemmas_never_prove_real_goals() {
        // Each goal is false at t = 1/2; the lemmas `⌈n/2⌉ ≤ n`,
        // `⌈n/2⌉ + ⌊n/2⌋ = n` and `2^x ≥ x + 1` would prove them, but hold
        // for integer arguments only.
        let t = Idx::var("t");
        let u = vec![(IdxVar::new("t"), Sort::Real)];
        let half = IdxEnv::from_pairs([("t", Extended::Finite(Rational::new(1, 2)))]);
        let cases = [
            (
                Constr::leq(t.clone(), Idx::one()),
                Constr::leq(Idx::half_ceil(t.clone()), t.clone()),
            ),
            (
                Constr::Top,
                Constr::eq(
                    Idx::half_ceil(t.clone()) + Idx::half_floor(t.clone()),
                    t.clone(),
                ),
            ),
            (
                Constr::Top,
                Constr::leq(t.clone() + Idx::one(), Idx::pow2(t.clone())),
            ),
        ];
        for (hyp, goal) in &cases {
            assert!(!hyp.clone().implies(goal.clone()).eval_bounded(&half, 8));
            let verdict = Solver::new().entails(&u, hyp, goal);
            assert_ne!(verdict, Validity::proved(), "{hyp} ⟹ {goal}");
        }
        // Over ℕ the same lemmas still prove the first two.
        let u = nat_vars(&["t"]);
        for (hyp, goal) in &cases[..2] {
            assert_eq!(Solver::new().entails(&u, hyp, goal), Validity::proved());
        }
    }

    #[test]
    fn fm_witnesses_outside_the_naturals_are_not_counterexamples() {
        // m = a/2 ⟹ (a ≤ 0 ∨ 2 ≤ a) holds over ℕ.  FM's witness a = 1
        // rebuilds m = 1/2, which is no point of the domain: the query
        // falls through to the grid instead of being refuted there.
        let mut s = Solver::new();
        let u = nat_vars(&["m", "a"]);
        let hyp = Constr::eq(Idx::var("m"), Idx::var("a") / Idx::nat(2));
        let goal =
            Constr::leq(Idx::var("a"), Idx::zero()).or(Constr::leq(Idx::nat(2), Idx::var("a")));
        assert_eq!(s.entails(&u, &hyp, &goal), Validity::grid_checked());
        assert_eq!(s.stats().fm_refuted, 0);
    }

    #[test]
    fn rewrite_right_hand_sides_stay_non_negative() {
        // m = a − b ⟹ b ≤ a: the rewrite m := a − b removes m, and with it
        // FM's own row 0 ≤ m; the fact 0 ≤ a − b keeps what it said.
        let mut s = Solver::new();
        let u = nat_vars(&["m", "a", "b"]);
        let hyp = Constr::eq(Idx::var("m"), Idx::var("a") - Idx::var("b"));
        let goal = Constr::leq(Idx::var("b"), Idx::var("a"));
        assert_eq!(s.entails(&u, &hyp, &goal), Validity::proved());
        assert_eq!(s.stats().points_evaluated, 0);
    }

    #[test]
    fn twin_lemma_splits_across_hypothesis_and_goal() {
        // ⌈n/2⌉ only in the hypothesis, ⌊n/2⌋ only in the goal: the goal's
        // own facts supply ⌈n/2⌉ + ⌊n/2⌋ = n.
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        let n = Idx::var("n");
        let hyp = Constr::leq(Idx::half_ceil(n.clone()), Idx::nat(3));
        let goal = Constr::leq(n.clone(), Idx::half_floor(n) + Idx::nat(3));
        assert_eq!(s.entails(&u, &hyp, &goal), Validity::proved());
        assert_eq!(s.stats().points_evaluated, 0);
    }

    #[test]
    fn a_binder_that_adds_a_natural_reprepares_the_hypothesis() {
        // The first conjunct builds the prepared hypothesis under {m}; the
        // ∀n:ℕ body needs n tightened as an integer (it fails at n = 1/2),
        // so the base built without n must not be reused.
        let mut s = Solver::new();
        let n = Idx::var("n");
        let goal = Constr::leq(Idx::var("m"), Idx::var("m") + Idx::one()).and(Constr::forall(
            "n",
            Sort::Nat,
            Constr::leq(n.clone(), Idx::zero()).or(Constr::leq(Idx::one(), n)),
        ));
        assert_eq!(
            s.entails(&nat_vars(&["m"]), &Constr::Top, &goal),
            Validity::proved()
        );
        assert_eq!(s.stats().points_evaluated, 0);
    }

    #[test]
    fn goals_add_only_the_lemmas_the_hypothesis_lacks() {
        let n = Idx::var("n");
        let nat = fm::nat_var_set(&nat_vars(&["n"]));
        let hyp = Constr::leq(Idx::half_ceil(n.clone()), Idx::nat(3));
        let facts = HypFacts::new(&hyp, &nat);
        // A linear goal skips the atom scan; a goal whose lemma atoms the
        // hypothesis already has adds nothing either.
        for goal in [
            Constr::leq(n.clone(), Idx::nat(7)),
            Constr::leq(Idx::half_ceil(n.clone()), n.clone()),
        ] {
            let (rewritten, extra) = facts.goal_side(&goal, &nat);
            assert!(extra.is_empty(), "{goal}: {extra:?}");
            assert!(matches!(rewritten, Cow::Borrowed(_)));
        }
        // ⌊n/2⌋ brings its own facts and, with ⌈n/2⌉ in the hypothesis,
        // the twin facts.
        let goal = Constr::leq(Idx::half_floor(n.clone()), Idx::nat(3));
        let (_, extra) = facts.goal_side(&goal, &nat);
        let twin = Constr::eq(Idx::half_ceil(n.clone()) + Idx::half_floor(n.clone()), n);
        assert_eq!(extra.len(), 4, "{extra:?}");
        assert!(extra.contains(&twin));
    }

    #[test]
    fn a_failed_existential_search_is_a_give_up_not_a_counterexample() {
        // ∃i:ℕ. 100 ≤ i·i holds (i = 10), but no candidate is syntactically
        // present.  The failed search must say it gave up: an empty
        // environment would claim a counterexample that does not exist.
        let mut s = Solver::new();
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::leq(Idx::nat(100), Idx::var("i") * Idx::var("i")),
        );
        assert_eq!(s.entails(&[], &Constr::Top, &goal), Validity::Invalid(None));
        assert_eq!(s.last_refutation().source, Some(CexSource::SearchExhausted));
        assert_eq!(s.last_refutation().env, None);
    }

    #[test]
    fn a_failed_existential_search_is_never_grid_checked() {
        // ∃i:ℕ. n ≤ i·i holds (i = n), but `i` occurs only inside a
        // product, so the comparison offers no candidate.  A bounded search
        // over `i` finds a witness at every grid point; that is not a
        // proof, and no point is evaluated for it.
        let mut s = Solver::new();
        let goal = Constr::exists(
            "i",
            Sort::Nat,
            Constr::leq(Idx::var("n"), Idx::var("i") * Idx::var("i")),
        );
        let verdict = s.entails(&nat_vars(&["n"]), &Constr::Top, &goal);
        assert!(!verdict.is_valid(), "{verdict:?}");
        assert_eq!(s.stats().points_evaluated, 0);
        assert_eq!(s.stats().numeric_checks, 0);
    }

    #[test]
    fn and_goals_combine_provenance() {
        // One conjunct proves symbolically, the other only grid-checks (a
        // summation with no linear upper bound): the conjunction must
        // report the weaker provenance.
        let mut s = Solver::new();
        let u = nat_vars(&["n"]);
        let goal = Constr::leq(Idx::var("n"), Idx::var("n") + Idx::one()).and(Constr::leq(
            Idx::sum("i", Idx::zero(), Idx::var("n"), Idx::one()),
            Idx::var("n") + Idx::one(),
        ));
        assert_eq!(s.entails(&u, &Constr::Top, &goal), Validity::grid_checked());
        assert!(s.stats().grid_accepted >= 1);
    }

    #[test]
    fn duplicate_equalities_on_one_variable_keep_their_contradiction() {
        // a = 0 ∧ a = b + 1 forces b = −1: impossible over ℕ, so anything
        // follows.  Losing the second equality to a shadowed rewrite used
        // to push this to the grid (which accepted it only because no grid
        // point satisfies the hypothesis).
        let mut s = Solver::new();
        let u = nat_vars(&["a", "b", "m"]);
        let hyp = Constr::eq(Idx::var("a"), Idx::zero())
            .and(Constr::eq(Idx::var("a"), Idx::var("b") + Idx::one()));
        let goal = Constr::eq(Idx::var("m"), Idx::nat(7));
        assert_eq!(s.entails(&u, &hyp, &goal), Validity::proved());
        assert_eq!(s.stats().points_evaluated, 0);
    }

    #[test]
    fn merge_sort_recurrence_is_accepted() {
        // The key constraint from the paper's msort walkthrough (inequality (1)):
        //   h(⌈n/2⌉) + Q(⌈n/2⌉, β) + Q(⌊n/2⌋, α − β) ≤ Q(n, α)   when α ≥ 1, β ≤ α, α ≤ n, n ≥ 2.
        use crate::lemmas::big_q;
        let mut s = Solver::new();
        let u = nat_vars(&["n", "alpha", "beta"]);
        let hyp = Constr::leq(Idx::one(), Idx::var("alpha"))
            .and(Constr::leq(Idx::var("beta"), Idx::var("alpha")))
            .and(Constr::leq(Idx::var("alpha"), Idx::var("n")))
            .and(Constr::leq(Idx::nat(2), Idx::var("n")));
        let lhs = Idx::half_ceil(Idx::var("n"))
            + big_q(Idx::half_ceil(Idx::var("n")), Idx::var("beta"))
            + big_q(
                Idx::half_floor(Idx::var("n")),
                Idx::var("alpha") - Idx::var("beta"),
            );
        let goal = Constr::leq(lhs, big_q(Idx::var("n"), Idx::var("alpha")));
        assert!(s.entails(&u, &hyp, &goal).is_valid());
    }

    #[test]
    fn merge_covers_every_field() {
        // Every counter distinct and non-zero, so a merge that dropped or
        // crossed a field would be caught by the per-field asserts below.
        // Constructed without `..`: adding a SolveStats field breaks this
        // literal (and `merge` itself) until both are taught about it.
        let unit = SolveStats {
            queries: 1,
            fm_proved: 2,
            fm_refuted: 3,
            fm_projections: 4,
            fm_memo_hits: 5,
            fm_memo_misses: 6,
            exelim_candidates_pruned: 7,
            numeric_checks: 8,
            grid_accepted: 9,
            points_evaluated: 10,
            exelim_attempts: 11,
            cache_hits: 12,
            cache_misses: 13,
            programs_compiled: 14,
            program_cache_hits: 15,
            fm_time: Duration::from_nanos(16),
            numeric_time: Duration::from_nanos(17),
            search_exhausted: Some(SearchExhaustedReason::RowCap),
        };
        let mut acc = SolveStats::default();
        acc.merge(&unit);
        acc.merge(&unit);
        let SolveStats {
            queries,
            fm_proved,
            fm_refuted,
            fm_projections,
            fm_memo_hits,
            fm_memo_misses,
            exelim_candidates_pruned,
            numeric_checks,
            grid_accepted,
            points_evaluated,
            exelim_attempts,
            cache_hits,
            cache_misses,
            programs_compiled,
            program_cache_hits,
            fm_time,
            numeric_time,
            search_exhausted,
        } = acc;
        assert_eq!(queries, 2);
        assert_eq!(fm_proved, 4);
        assert_eq!(fm_refuted, 6);
        assert_eq!(fm_projections, 8);
        assert_eq!(fm_memo_hits, 10);
        assert_eq!(fm_memo_misses, 12);
        assert_eq!(exelim_candidates_pruned, 14);
        assert_eq!(numeric_checks, 16);
        assert_eq!(grid_accepted, 18);
        assert_eq!(points_evaluated, 20);
        assert_eq!(exelim_attempts, 22);
        assert_eq!(cache_hits, 24);
        assert_eq!(cache_misses, 26);
        assert_eq!(programs_compiled, 28);
        assert_eq!(program_cache_hits, 30);
        assert_eq!(fm_time, Duration::from_nanos(32));
        assert_eq!(numeric_time, Duration::from_nanos(34));
        // First-reason-wins accumulation, like the solver's own field.
        assert_eq!(search_exhausted, Some(SearchExhaustedReason::RowCap));
        let mut first = SolveStats {
            search_exhausted: Some(SearchExhaustedReason::BranchCap),
            ..SolveStats::default()
        };
        first.merge(&unit);
        assert_eq!(
            first.search_exhausted,
            Some(SearchExhaustedReason::BranchCap)
        );
    }

    #[test]
    fn exhausted_attempt_budget_reaches_stats_and_refutation() {
        // Attempt budget 0: the existential search exhausts before trying a
        // single candidate, and the abstention must surface as a verdict.
        // Each `≐` is a `≤`/`≥` pair, so the one-point rule defines none of
        // the three existentials and all of them reach the search.
        let mut s = Solver::with_config(SolveConfig {
            max_exelim_attempts: 0,
            ..SolveConfig::default()
        });
        let u = nat_vars(&["n"]);
        let pair = |a: Idx, b: Idx| Constr::leq(a.clone(), b.clone()).and(Constr::leq(b, a));
        let goal = Constr::exists(
            "a",
            Sort::Nat,
            Constr::exists(
                "b",
                Sort::Nat,
                Constr::exists(
                    "c",
                    Sort::Nat,
                    pair(Idx::var("a"), Idx::var("n"))
                        .and(pair(Idx::var("b"), Idx::var("a")))
                        .and(pair(Idx::var("c"), Idx::var("b") + Idx::one())),
                ),
            ),
        );
        let v = s.entails(&u, &Constr::Top, &goal);
        assert!(matches!(v, Validity::Invalid(None)));
        assert_eq!(
            s.stats().search_exhausted,
            Some(SearchExhaustedReason::AttemptBudget)
        );
        assert_eq!(
            s.last_refutation().exhausted,
            Some((SearchExhaustedReason::AttemptBudget, 0))
        );
        // The same query with the default budget succeeds — the abstention
        // above is the cap, not the constraint.
        let mut s = Solver::new();
        assert!(s.entails(&u, &Constr::Top, &goal).is_valid());
        assert_eq!(s.stats().search_exhausted, None);
    }

    #[test]
    fn simplify_shares_what_it_leaves_unchanged() {
        let hyp = Arc::new(Constr::lt(Idx::zero(), Idx::var("n")));
        let body = Constr::leq(Idx::var("n"), Idx::var("m") + Idx::one());
        let c = Constr::Implies(
            Arc::clone(&hyp),
            Arc::new(Constr::forall("m", Sort::Nat, body)),
        );
        assert_eq!(deep_simplify(&c), c, "the input is already simplified");
        let (Constr::Implies(a, b), Constr::Implies(sa, sb)) = (&c, &simplify(&c)) else {
            panic!("simplify changed the head");
        };
        assert!(Arc::ptr_eq(a, sa) && Arc::ptr_eq(b, sb));
        // Folding one side rebuilds that side only.
        let folded = Constr::leq(Idx::var("n") + Idx::zero(), Idx::var("m"));
        let c = Constr::Implies(Arc::clone(&hyp), Arc::new(folded));
        let Constr::Implies(sa, sb) = &simplify(&c) else {
            panic!("simplify changed the head");
        };
        assert!(Arc::ptr_eq(&hyp, sa));
        assert_eq!(**sb, Constr::leq(Idx::var("n"), Idx::var("m")));
    }

    /// `simplify` as it was before constraints shared subterms: a deep walk
    /// that rebuilds every node.  The sharing `simplify` must agree with it
    /// exactly.
    fn deep_simplify(c: &Constr) -> Constr {
        match c {
            Constr::Eq(a, b) => {
                let (na, nb) = (rel_index::normalize(a), rel_index::normalize(b));
                match (na.as_const(), nb.as_const()) {
                    (Some(x), Some(y)) => {
                        if x == y {
                            Constr::Top
                        } else {
                            Constr::Bot
                        }
                    }
                    _ => {
                        if na == nb {
                            Constr::Top
                        } else {
                            Constr::Eq(na, nb)
                        }
                    }
                }
            }
            Constr::Leq(a, b) => {
                let (na, nb) = (rel_index::normalize(a), rel_index::normalize(b));
                match (na.as_const(), nb.as_const()) {
                    (Some(x), Some(y)) => {
                        if x <= y {
                            Constr::Top
                        } else {
                            Constr::Bot
                        }
                    }
                    _ => {
                        if na == nb {
                            Constr::Top
                        } else {
                            Constr::Leq(na, nb)
                        }
                    }
                }
            }
            Constr::Lt(a, b) => {
                let (na, nb) = (rel_index::normalize(a), rel_index::normalize(b));
                match (na.as_const(), nb.as_const()) {
                    (Some(x), Some(y)) => {
                        if x < y {
                            Constr::Top
                        } else {
                            Constr::Bot
                        }
                    }
                    _ => Constr::Lt(na, nb),
                }
            }
            Constr::And(cs) => Constr::conj(cs.iter().map(deep_simplify)),
            Constr::Or(cs) => Constr::disj(cs.iter().map(deep_simplify)),
            // `negate` flips comparisons (¬(a < b) becomes b ≤ a) without
            // re-folding them, so simplify the flipped form once more: this is
            // what makes `simplify` idempotent, the invariant the solver's
            // canonical entry points (`entails_canonical`,
            // `no_exists_canonical`) rely on to skip re-simplification at every
            // decomposition level.  A `Not` result is the opaque case (e.g.
            // ¬(a = b)) whose operand is already simplified — recursing on it
            // would loop.
            Constr::Not(c) => match deep_simplify(c).negate() {
                negated @ Constr::Not(_) => negated,
                negated => deep_simplify(&negated),
            },
            Constr::Implies(a, b) => deep_simplify(a).implies(deep_simplify(b)),
            Constr::Forall(q, c) => Constr::forall(q.var.clone(), q.sort, deep_simplify(c)),
            Constr::Exists(q, c) => Constr::exists(q.var.clone(), q.sort, deep_simplify(c)),
            Constr::Top | Constr::Bot => c.clone(),
        }
    }

    // ---- property tests: `simplify` preserves meaning and is idempotent ----

    fn arb_idx() -> impl Strategy<Value = Idx> {
        let leaf = prop_oneof![
            (0u64..5).prop_map(Idx::nat),
            Just(Idx::Const(Rational::new(1, 2))),
            Just(Idx::infty()),
            Just(Idx::var("n")),
            Just(Idx::var("a")),
            Just(Idx::var("b")),
        ];
        leaf.prop_recursive(2, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Idx::min(a, b)),
                inner.clone().prop_map(Idx::ceil),
                inner.clone().prop_map(|a| a / Idx::nat(2)),
            ]
        })
    }

    fn arb_constr() -> impl Strategy<Value = Constr> {
        let cmp = prop_oneof![
            Just(Constr::Top),
            Just(Constr::Bot),
            (arb_idx(), arb_idx()).prop_map(|(a, b)| Constr::eq(a, b)),
            (arb_idx(), arb_idx()).prop_map(|(a, b)| Constr::leq(a, b)),
            (arb_idx(), arb_idx()).prop_map(|(a, b)| Constr::lt(a, b)),
            // Equal sides: `a < a` folds only once negated to `a ≤ a`.
            arb_idx().prop_map(|a| Constr::lt(a.clone(), a)),
        ];
        cmp.prop_recursive(3, 24, 3, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone(), 0usize..3).prop_map(|(a, b, k)| {
                    Constr::And(vec![a, b].into_iter().take(k).collect())
                }),
                (inner.clone(), inner.clone(), 0usize..3)
                    .prop_map(|(a, b, k)| { Constr::Or(vec![a, b].into_iter().take(k).collect()) }),
                inner.clone().prop_map(|c| Constr::Not(Arc::new(c))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Constr::Implies(Arc::new(a), Arc::new(b))),
                inner
                    .clone()
                    .prop_map(|c| Constr::Forall(Quantified::new("a", Sort::Nat), Arc::new(c))),
                inner
                    .clone()
                    .prop_map(|c| Constr::Exists(Quantified::new("b", Sort::Real), Arc::new(c))),
            ]
        })
    }

    proptest! {
        #[test]
        fn simplify_preserves_bounded_evaluation(
            c in arb_constr(),
            n in 0i64..6,
            a in 0i64..6,
            b in 0i64..6,
        ) {
            // Quantifier bound within `EXISTS_SEARCH_CAP`, so `∀` and `∃`
            // range over the same domain and `¬∀ ⟺ ∃¬` holds under
            // `eval_bounded` too.
            let env = IdxEnv::from_pairs([
                ("n", Extended::from(n)),
                ("a", Extended::from(a)),
                ("b", Extended::from(b)),
            ]);
            prop_assert_eq!(simplify(&c).eval_bounded(&env, 4), c.eval_bounded(&env, 4));
        }

        #[test]
        fn sharing_simplify_agrees_with_the_deep_walk(c in arb_constr(), d in arb_constr()) {
            prop_assert_eq!(simplify(&c), deep_simplify(&c));
            // One connective over already-simplified parts: there the sharing
            // walk decides from the node alone whether it changes.
            let (c, d) = (simplify(&c), simplify(&d));
            for node in [
                Constr::And(vec![c.clone(), d.clone()]),
                Constr::Or(vec![c.clone(), d.clone()]),
                Constr::Not(Arc::new(c.clone())),
                Constr::Implies(Arc::new(c.clone()), Arc::new(d.clone())),
                Constr::Forall(Quantified::new("a", Sort::Nat), Arc::new(c)),
                Constr::Exists(Quantified::new("b", Sort::Real), Arc::new(d)),
            ] {
                prop_assert_eq!(simplify(&node), deep_simplify(&node));
            }
        }

        #[test]
        fn subst_all_agrees_with_pairwise_subst(c in arb_constr(), r in arb_idx(), s in arb_idx()) {
            // Replacements free of the substituted `n` and `b`; they may
            // mention `a`, which `arb_constr` binds, so the capture path runs
            // as well as the shadowing one (`b` is bound too).
            let clean = |i: Idx| i.subst(&IdxVar::new("n"), &Idx::one()).subst(&IdxVar::new("b"), &Idx::nat(2));
            let map = std::collections::BTreeMap::from([
                (IdxVar::new("n"), clean(r)),
                (IdxVar::new("b"), clean(s)),
            ]);
            let pairwise = map.iter().fold(c.clone(), |acc, (v, i)| acc.subst(v, i));
            prop_assert_eq!(c.subst_all(&map), pairwise);
        }

        #[test]
        fn simplify_is_idempotent(c in arb_constr()) {
            let once = simplify(&c);
            prop_assert_eq!(simplify(&once), once);
        }
    }
}
