//! The checking pipeline: bidirectional constraint generation, existential
//! elimination and constraint solving, with the per-phase timing breakdown
//! reported in Table 1 of the paper.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rel_constraint::{
    CexSource, Constr, Fnv1a, Provenance, RefutationInfo, ShardedValidityCache, SharedProgramCache,
    SolveConfig, SolveStats, Solver, Validity,
};
use rel_index::Idx;
use rel_syntax::{Def, Program, SystemLevel};
use rel_unary::RelCtx;

use crate::bidir::{RelChecker, Session};
use crate::heuristics::Heuristics;

/// Wall-clock timings of the three pipeline phases (the columns of Table 1).
/// They partition the definition's wall clock: `total()` is the typecheck
/// wall clock plus the entailment wall clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Bidirectional type checking (constraint generation, including the
    /// heuristic decisions and the solver queries they make).
    pub typecheck: Duration,
    /// The entailment wall clock minus `solving`: candidate search,
    /// instantiation, structural decomposition, fact preparation, and memo
    /// and validity-cache lookups.
    pub existential_elim: Duration,
    /// The entailment solver's Fourier–Motzkin and numeric-layer time
    /// ([`SolveStats::fm_time`] + [`SolveStats::numeric_time`]).
    pub solving: Duration,
}

impl PhaseTimings {
    /// Total time across the three phases.
    pub fn total(&self) -> Duration {
        self.typecheck + self.existential_elim + self.solving
    }
}

/// The outcome of checking one definition.
#[derive(Debug, Clone)]
pub struct DefReport {
    /// The definition's name.
    pub name: String,
    /// Whether the definition checked (structurally and constraint-wise).
    pub ok: bool,
    /// `true` when the definition's obligations were *proved* (symbolic /
    /// Fourier–Motzkin — sound over the unbounded index domain); `false`
    /// when the verdict leaned on the bounded numeric grid (or the
    /// definition failed).  See [`rel_constraint::Provenance`].
    pub proved: bool,
    /// The error message when structural checking failed.
    pub error: Option<String>,
    /// Per-phase timings.
    pub timings: PhaseTimings,
    /// Number of atomic comparisons in the generated constraint.
    pub constraint_atoms: usize,
    /// Number of existential variables generated.
    pub existential_vars: u64,
    /// Number of explicit annotations in the definition (annotation effort).
    pub annotations: usize,
    /// Every solver counter and leaf timer for this definition, merged
    /// across the typechecking and entailment solvers through
    /// [`SolveStats::merge`] — one struct instead of a hand-stitched field
    /// list, so a counter added to the solver automatically reaches every
    /// report consumer.
    pub stats: SolveStats,
    /// Stable hash of the checking inputs for this definition (elaborated
    /// definition + interfaces of the definitions before it + engine
    /// configuration); `0` when no [`DefIndex`] was in play.
    pub input_hash: u64,
    /// `true` when the definition was not re-checked because a [`DefIndex`]
    /// already recorded a verdict for the same `input_hash`.  All timing and
    /// solver counters are zero for such a report.
    pub skipped_unchanged: bool,
}

/// The outcome of checking a whole program.
#[derive(Debug, Clone, Default)]
pub struct ProgramReport {
    /// Per-definition reports, in program order.
    pub defs: Vec<DefReport>,
}

impl ProgramReport {
    /// `true` when every definition checked.
    pub fn all_ok(&self) -> bool {
        self.defs.iter().all(|d| d.ok)
    }

    /// Looks up the report of a definition by name.
    pub fn def(&self, name: &str) -> Option<&DefReport> {
        self.defs.iter().find(|d| d.name == name)
    }

    /// Total time across all definitions and phases.
    pub fn total_time(&self) -> Duration {
        self.defs.iter().map(|d| d.timings.total()).sum()
    }

    /// All solver counters and leaf timers, merged across every
    /// definition through [`SolveStats::merge`].
    pub fn solve_stats(&self) -> SolveStats {
        let mut total = SolveStats::default();
        for d in &self.defs {
            total.merge(&d.stats);
        }
        total
    }

    /// Number of definitions skipped because their input hash was unchanged.
    pub fn skipped_unchanged(&self) -> usize {
        self.defs.iter().filter(|d| d.skipped_unchanged).count()
    }

    /// Definitions whose verdict was proved (vs merely grid-checked).
    pub fn proved_defs(&self) -> usize {
        self.defs.iter().filter(|d| d.ok && d.proved).count()
    }
}

/// The verdict a [`DefIndex`] remembers for one definition input hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredDef {
    /// The definition's name when the verdict was recorded (diagnostics
    /// only; the hash is the key).
    pub name: String,
    /// Whether the definition checked.
    pub ok: bool,
    /// Whether the recorded verdict was proved (vs grid-checked); replayed
    /// into [`DefReport::proved`] so provenance survives incremental skips
    /// and restarts.
    pub proved: bool,
    /// The recorded error message when it did not.
    pub error: Option<String>,
}

/// Per-definition verdict memory for incremental re-checking.
///
/// The key is [`DefReport::input_hash`] paired with an independently seeded
/// verify hash — together a 128-bit digest of everything a definition's
/// verdict depends on: the elaborated definition itself (both bodies, type,
/// cost bound, axioms), the *interfaces* (name + type) of the definitions
/// before it in its program, and the engine fingerprint
/// ([`Engine::fingerprint`]).  A lookup replays a verdict only when *both*
/// hashes match (see `HashChain` for the collision discussion).  Re-checking
/// a program through [`Engine::check_program_with`] skips any definition
/// whose digest is already recorded and replays the stored verdict,
/// reporting it as `skipped_unchanged` — zero constraint generation, zero
/// solver work.
///
/// Thread-safe: one index is shared across the workers of a batch run, and
/// the `rel-persist` cache file carries it across processes.  Bounded like the
/// other memo layers: when the entry cap is reached the index is
/// wholesale-cleared before insert (epoch eviction), so a long-running
/// daemon fed a stream of distinct programs cannot grow it — or the
/// compactions that serialize it — without bound.
pub struct DefIndex {
    entries: Mutex<HashMap<u64, (u64, StoredDef)>>,
    max_entries: usize,
    /// Monotone count of mutations (inserts and clears).  Dirty-state
    /// stamps (`Service::warm_stamp`) use this instead of `len()`: a clear
    /// followed by re-inserts can return the *length* to an old value, and
    /// a stamp built on lengths would alias the two states and skip a
    /// needed flush.
    mutations: std::sync::atomic::AtomicU64,
    /// Insert notification hook (WAL durability): called on every insert,
    /// outside the entries lock.
    observer: std::sync::RwLock<Option<DefObserver>>,
}

/// A callback notified of every def-index insert `(input_hash, verify_hash,
/// stored verdict)` — the persistence layer's write-ahead hook.
pub type DefObserver = Arc<dyn Fn(u64, u64, &StoredDef) + Send + Sync>;

impl std::fmt::Debug for DefIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefIndex")
            .field("entries", &self.len())
            .field("max_entries", &self.max_entries)
            .field("mutations", &self.mutation_count())
            .finish()
    }
}

impl Default for DefIndex {
    fn default() -> Self {
        DefIndex::new()
    }
}

impl DefIndex {
    /// Default entry cap: 65 536 definitions, far above any one program and
    /// small next to the validity cache it accompanies.
    const DEFAULT_MAX_ENTRIES: usize = 65_536;

    /// An empty index with the default capacity.
    pub fn new() -> DefIndex {
        DefIndex::with_capacity(DefIndex::DEFAULT_MAX_ENTRIES)
    }

    /// An empty index with an explicit entry cap (rounded up to at least 1).
    pub fn with_capacity(max_entries: usize) -> DefIndex {
        DefIndex {
            entries: Mutex::new(HashMap::new()),
            max_entries: max_entries.max(1),
            mutations: std::sync::atomic::AtomicU64::new(0),
            observer: std::sync::RwLock::new(None),
        }
    }

    /// Attaches the insert-notification hook, replacing any earlier one.
    /// Attach *after* restoring persisted entries, or every replayed entry
    /// re-enters the log it came from.
    pub fn set_store_observer(&self, observer: DefObserver) {
        *self.observer.write().expect("def observer poisoned") = Some(observer);
    }

    /// Monotone mutation counter (bumped on every insert and clear); equal
    /// values imply no new state to persist.
    pub fn mutation_count(&self) -> u64 {
        self.mutations.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of recorded definitions.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("def index poisoned").len()
    }

    /// `true` when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored verdict for an input digest; `None` when the primary hash
    /// is unknown *or* the verify hash disagrees (a primary-hash collision —
    /// treated as a miss, never replayed).
    pub fn lookup(&self, input_hash: u64, verify_hash: u64) -> Option<StoredDef> {
        self.entries
            .lock()
            .expect("def index poisoned")
            .get(&input_hash)
            .filter(|(v, _)| *v == verify_hash)
            .map(|(_, d)| d.clone())
    }

    /// Records (or overwrites) a verdict, epoch-clearing a full index first.
    pub fn insert(&self, input_hash: u64, verify_hash: u64, def: StoredDef) {
        // Notify before the insert, holding no lock (the observer is a WAL
        // append that may block on I/O); replay idempotence makes the
        // log-before-memory ordering harmless.
        if let Some(observer) = self.observer.read().expect("def observer poisoned").clone() {
            observer(input_hash, verify_hash, &def);
        }
        let mut entries = self.entries.lock().expect("def index poisoned");
        if entries.len() >= self.max_entries && !entries.contains_key(&input_hash) {
            entries.clear();
        }
        entries.insert(input_hash, (verify_hash, def));
        self.mutations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Clones out every entry, sorted by hash (deterministic compactions).
    pub fn export(&self) -> Vec<(u64, u64, StoredDef)> {
        let mut out: Vec<(u64, u64, StoredDef)> = self
            .entries
            .lock()
            .expect("def index poisoned")
            .iter()
            .map(|(h, (v, d))| (*h, *v, d.clone()))
            .collect();
        out.sort_by_key(|(h, _, _)| *h);
        out
    }

    /// Drops every entry.
    pub fn clear(&self) {
        self.entries.lock().expect("def index poisoned").clear();
        self.mutations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// The BiRelCost engine: checks programs definition by definition,
/// accumulating earlier definitions in the typing context (this is how the
/// `msort` example uses `bsplit` and `merge`).
///
/// The engine holds no mutable state — checking goes through `&self` — so one
/// instance can be shared across worker threads behind an [`Arc`].  When a
/// [`ShardedValidityCache`] is attached it is consulted by every solver the
/// engine spawns, letting concurrent batch checks share constraint
/// verdicts; otherwise each solver memoizes into a private one.
#[derive(Debug, Clone)]
pub struct Engine {
    checker: RelChecker,
    solve_config: SolveConfig,
    level: SystemLevel,
    cache: Option<Arc<ShardedValidityCache>>,
    programs: Option<Arc<SharedProgramCache>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with all heuristics, the standard cost model and the default
    /// solver configuration, checking at the RelCost level.
    pub fn new() -> Engine {
        Engine {
            checker: RelChecker::new(),
            solve_config: SolveConfig::default(),
            level: SystemLevel::RelCost,
            cache: None,
            programs: None,
        }
    }

    /// Attaches a shared constraint-validity cache.  Every solver the engine
    /// creates (both the checking-phase solver and the final entailment
    /// solver) consults it before solving and publishes its verdicts to it.
    pub fn with_cache(mut self, cache: Arc<ShardedValidityCache>) -> Engine {
        self.cache = Some(cache);
        self
    }

    /// The attached validity cache, if any.
    pub fn cache(&self) -> Option<&Arc<ShardedValidityCache>> {
        self.cache.as_ref()
    }

    /// Attaches a shared compiled-program memo: every solver the engine
    /// creates reuses bytecode compiled by any other solver (across
    /// definitions, batch workers and daemon requests).
    pub fn with_program_cache(mut self, programs: Arc<SharedProgramCache>) -> Engine {
        self.programs = Some(programs);
        self
    }

    /// The attached compiled-program memo, if any.
    pub fn program_cache(&self) -> Option<&Arc<SharedProgramCache>> {
        self.programs.as_ref()
    }

    /// Overrides the heuristics configuration (used by the ablation bench).
    pub fn with_heuristics(mut self, heuristics: Heuristics) -> Engine {
        self.checker = RelChecker::with_heuristics(heuristics);
        self
    }

    /// Overrides the solver configuration.
    pub fn with_solve_config(mut self, config: SolveConfig) -> Engine {
        self.solve_config = config;
        self
    }

    /// Selects which system of the paper to check in.  Below
    /// [`SystemLevel::RelCost`] all relative-cost bounds are replaced by `∞`
    /// (the paper's embedding of RelRef/RelRefU into RelCost).
    pub fn at_level(mut self, level: SystemLevel) -> Engine {
        self.level = level;
        self
    }

    /// The active system level.
    pub fn level(&self) -> SystemLevel {
        self.level
    }

    /// The checker in use.
    pub fn checker(&self) -> &RelChecker {
        &self.checker
    }

    /// A stable fingerprint of every engine knob that can influence a
    /// verdict: the solver configuration, the system level, and the
    /// checker's cost model and heuristics.  Keys [`DefIndex`] input hashes
    /// and `rel-persist` cache-file headers: verdicts recorded under one
    /// fingerprint are never replayed under another.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write_u64(self.solve_config.fingerprint());
        format!("{:?}", self.level).hash(&mut h);
        format!("{:?}", self.checker).hash(&mut h);
        h.finish()
    }

    /// Checks a whole program.
    pub fn check_program(&self, program: &Program) -> ProgramReport {
        self.check_program_with(program, None)
    }

    /// Checks a whole program, optionally against a [`DefIndex`].
    ///
    /// With an index, each definition's input hash is computed first (a
    /// formatting pass over the AST — no constraint generation): a recorded
    /// hash replays the stored verdict as a `skipped_unchanged` report with
    /// zero solver work, and a fresh hash is checked normally and recorded.
    /// Without an index this is exactly [`Engine::check_program`].
    pub fn check_program_with(&self, program: &Program, index: Option<&DefIndex>) -> ProgramReport {
        let mut ctx = RelCtx::new();
        let mut report = ProgramReport::default();
        // `chain` folds the interfaces (name + type) of the definitions seen
        // so far into each subsequent input hash: a definition's verdict
        // depends on the typing context it is checked in, so editing an
        // earlier interface must re-check every later definition.
        let mut chain = index.map(|_| HashChain::root(self.fingerprint()));
        for def in program.iter() {
            let def_report = match (index, chain) {
                (Some(index), Some(c)) => {
                    let (input_hash, verify_hash) = c.def_input_hash(def);
                    match index.lookup(input_hash, verify_hash) {
                        Some(stored) => skipped_report(def, input_hash, stored),
                        None => {
                            let mut r = self.check_def_in(&ctx, def);
                            r.input_hash = input_hash;
                            index.insert(
                                input_hash,
                                verify_hash,
                                StoredDef {
                                    name: r.name.clone(),
                                    ok: r.ok,
                                    proved: r.proved,
                                    error: r.error.clone(),
                                },
                            );
                            r
                        }
                    }
                }
                _ => self.check_def_in(&ctx, def),
            };
            if let Some(c) = chain.as_mut() {
                *c = c.extend_interface(def);
            }
            ctx = ctx.bind_var(def.name.clone(), def.ty.clone());
            report.defs.push(def_report);
        }
        report
    }

    /// Checks a single definition in an empty context.
    pub fn check_def(&self, def: &Def) -> DefReport {
        self.check_def_in(&RelCtx::new(), def)
    }

    /// Checks a single definition in the given context.
    pub fn check_def_in(&self, ctx: &RelCtx, def: &Def) -> DefReport {
        let _span = rel_obs::span("engine.check_def");
        let mut ctx = ctx.clone();
        for axiom in &def.axioms {
            ctx = ctx.assume(axiom.clone());
        }
        let cost = if self.level.tracks_cost() {
            def.cost.clone()
        } else {
            Idx::infty()
        };

        let mut sess = Session {
            fresh: rel_unary::FreshVars::new(),
            solver: self.new_solver(),
        };
        let start = Instant::now();
        let generated = {
            let _tc_span = rel_obs::span("engine.typecheck");
            self.checker.check(
                &mut sess,
                &ctx,
                &def.left,
                def.right_or_left(),
                &def.ty,
                &cost,
            )
        };
        let typecheck = start.elapsed();

        match generated {
            Err(err) => {
                let stats = *sess.solver.stats();
                let timings = PhaseTimings {
                    typecheck,
                    ..PhaseTimings::default()
                };
                publish(&stats, &timings);
                DefReport {
                    name: def.name.name().to_string(),
                    ok: false,
                    proved: false,
                    error: Some(err.to_string()),
                    timings,
                    constraint_atoms: 0,
                    existential_vars: sess.fresh.count(),
                    annotations: def.annotation_count(),
                    stats,
                    input_hash: 0,
                    skipped_unchanged: false,
                }
            }
            Ok(constraint) => {
                let atoms = constraint.atom_count();
                let mut solver = self.new_solver();
                let universals = ctx.universals();
                let start = Instant::now();
                let verdict = solver.entails(&universals, &ctx.assumptions, &constraint);
                let entailment = start.elapsed();
                let refutation = solver.last_refutation().clone();
                // Solving is the entailment solver's FM and numeric leaf
                // time (those timers never nest); the rest of the entailment
                // wall clock is existential elimination.  The session
                // solver's queries already sit inside the typecheck wall
                // clock.  Both solvers' counters are folded together through
                // the one canonical aggregation point.
                let entail_stats = *solver.stats();
                let solving = entail_stats.fm_time + entail_stats.numeric_time;
                let timings = PhaseTimings {
                    typecheck,
                    existential_elim: entailment.saturating_sub(solving),
                    solving,
                };
                let mut stats = entail_stats;
                stats.merge(sess.solver.stats());
                publish(&stats, &timings);
                DefReport {
                    name: def.name.name().to_string(),
                    ok: verdict.is_valid(),
                    proved: verdict.provenance() == Some(Provenance::Proved),
                    error: if verdict.is_valid() {
                        None
                    } else {
                        Some(describe_failure(&constraint, &verdict, &refutation))
                    },
                    timings,
                    constraint_atoms: atoms,
                    existential_vars: sess.fresh.count(),
                    annotations: def.annotation_count(),
                    stats,
                    input_hash: 0,
                    skipped_unchanged: false,
                }
            }
        }
    }

    /// A solver configured like this engine (and sharing its caches, if any).
    fn new_solver(&self) -> Solver {
        let mut solver = Solver::with_config(self.solve_config.clone());
        if let Some(cache) = &self.cache {
            solver = solver.with_cache(Arc::clone(cache));
        }
        if let Some(programs) = &self.programs {
            solver = solver.with_program_cache(Arc::clone(programs));
        }
        solver
    }
}

/// Publishes one def-check's solver counters and its phase split; the
/// `solver.exelim_ns`/`solver.solving_ns` histograms read as per-def
/// phase-time distributions.
fn publish(stats: &SolveStats, timings: &PhaseTimings) {
    stats.publish();
    rel_obs::histogram!("solver.exelim_ns").observe(timings.existential_elim);
    rel_obs::histogram!("solver.solving_ns").observe(timings.solving);
}

/// Renders a failed verdict with its provenance: *where* the refutation came
/// from (grid counterexample, random sample, exhausted existential search),
/// the falsifying assignment when one exists, and the Fourier–Motzkin
/// elimination order of the goal FM last projected (so a user can see which
/// atoms the linear layer reasoned about before handing over).
fn describe_failure(
    constraint: &Constr,
    verdict: &Validity,
    refutation: &RefutationInfo,
) -> String {
    let atoms = constraint.atom_count();
    let mut msg = match verdict {
        // A search that gave up has neither proved nor refuted anything.
        Validity::Invalid(None) => format!(
            "the generated constraints ({atoms} atomic comparisons) were not proved: \
             the existential search gave up (the candidate-substitution search for the \
             goal's existentials was exhausted) and no counterexample was found"
        ),
        _ => format!("the generated constraints ({atoms} atomic comparisons) are not valid"),
    };
    match verdict {
        Validity::Invalid(Some(env)) => {
            let point = if env.is_empty() {
                "the empty assignment".to_string()
            } else {
                env.iter()
                    .map(|(v, x)| format!("{v} = {x}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let source = match refutation.source {
                Some(CexSource::FmWitness) => "Fourier–Motzkin elimination found",
                Some(CexSource::RandomSample) => "randomized sampling found",
                Some(CexSource::GridSweep) => "the numeric grid sweep found",
                // A cached refutation replays the counterexample without
                // re-running the sweep that produced it.
                _ => "the numeric layer (possibly replayed from cache) found",
            };
            msg.push_str(&format!(": {source} a counterexample at {point}"));
        }
        Validity::Invalid(None) => {
            if let Some((reason, limit)) = refutation.exhausted {
                msg.push_str(&format!(
                    "; the binding cap was {} ({}, limit {limit})",
                    reason.describe(),
                    reason.as_str()
                ));
            }
        }
        Validity::Valid(_) => {}
    }
    if !refutation.fm_eliminated.is_empty() {
        msg.push_str(&format!(
            " [FM eliminated: {}]",
            refutation.fm_eliminated.join(", ")
        ));
    }
    msg
}

/// Salt separating the verify-hash stream from the primary one (an
/// arbitrary odd constant, 2⁶⁴/φ).
const VERIFY_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The rolling context hash behind definition input hashes: two
/// independently seeded FNV-1a streams over the engine fingerprint and the
/// interfaces (name + type) of the definitions seen so far.
///
/// Two streams because the def index replays verdicts *by hash* — the full
/// input (a rendering of the whole AST plus context) is deliberately not
/// stored, unlike the other memo layers whose keys are small.  A single
/// 64-bit hash would make an accidental collision replay the wrong verdict
/// silently; the paired 128 bits push accidental collisions out of reach
/// (~2⁻⁶⁴ at birthday scale for any feasible index size).  FNV is not
/// collision-*resistant* against an adversary crafting sources, so a
/// deployment checking hostile input at scale should upgrade this to a
/// keyed hash with a per-cache-file secret — the two-stream structure is the
/// seam for it.
///
/// Definitions are serialized via their `Debug` rendering — deterministic
/// and total; `Debug`-identical definitions check identically by
/// construction.  Cross-*version* stability is governed by the cache-file
/// format version, not by this hash (see DESIGN.md §6).
#[derive(Debug, Clone, Copy)]
struct HashChain {
    primary: u64,
    verify: u64,
}

impl HashChain {
    /// The chain at the start of a program.
    fn root(engine_fingerprint: u64) -> HashChain {
        HashChain {
            primary: engine_fingerprint,
            verify: fold(VERIFY_SALT, engine_fingerprint, ""),
        }
    }

    /// The `(input_hash, verify_hash)` pair of one definition in this
    /// context.
    fn def_input_hash(&self, def: &Def) -> (u64, u64) {
        let rendered = format!("{def:?}");
        (
            fold(0, self.primary, &rendered),
            fold(VERIFY_SALT, self.verify, &rendered),
        )
    }

    /// The chain after this definition's interface (name + type) enters the
    /// typing context.
    fn extend_interface(&self, def: &Def) -> HashChain {
        let interface = format!("{:?}|{:?}", def.name, def.ty);
        HashChain {
            primary: fold(0, self.primary, &interface),
            verify: fold(VERIFY_SALT, self.verify, &interface),
        }
    }
}

/// One FNV-1a fold of `(salt, seed, payload)`.
fn fold(salt: u64, seed: u64, payload: &str) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(salt);
    h.write_u64(seed);
    payload.hash(&mut h);
    h.finish()
}

/// The report replayed for a definition whose input hash is unchanged.
fn skipped_report(def: &Def, input_hash: u64, stored: StoredDef) -> DefReport {
    DefReport {
        name: def.name.name().to_string(),
        ok: stored.ok,
        proved: stored.proved,
        error: stored.error,
        timings: PhaseTimings::default(),
        constraint_atoms: 0,
        existential_vars: 0,
        annotations: def.annotation_count(),
        stats: SolveStats::default(),
        input_hash,
        skipped_unchanged: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_syntax::parse_program;

    fn check(src: &str) -> ProgramReport {
        Engine::new().check_program(&parse_program(src).unwrap())
    }

    #[test]
    fn accepts_well_typed_programs_and_reports_timings() {
        let report = check("def id : boolr -> boolr = lam x. x;");
        assert!(report.all_ok());
        let d = report.def("id").unwrap();
        assert!(d.error.is_none());
        assert_eq!(d.annotations, 1);
        assert!(d.timings.total() > Duration::ZERO);
    }

    #[test]
    fn failure_diagnostics_tell_a_refutation_from_a_search_that_gave_up() {
        let goal = Constr::leq(Idx::var("n"), Idx::nat(1));
        let gave_up = RefutationInfo {
            source: Some(CexSource::SearchExhausted),
            exhausted: Some((rel_constraint::SearchExhaustedReason::AttemptBudget, 128)),
            ..RefutationInfo::default()
        };
        let msg = describe_failure(&goal, &Validity::Invalid(None), &gave_up);
        assert!(msg.contains("were not proved"), "{msg}");
        assert!(msg.contains("the existential search gave up"), "{msg}");
        assert!(msg.contains("no counterexample was found"), "{msg}");
        assert!(msg.contains("(attempt-budget, limit 128)"), "{msg}");
        assert!(!msg.contains("not valid"), "{msg}");

        let env = rel_index::IdxEnv::from_pairs([("n", rel_index::Extended::from(2))]);
        let refuted = RefutationInfo {
            source: Some(CexSource::GridSweep),
            env: Some(env.clone()),
            ..RefutationInfo::default()
        };
        let msg = describe_failure(&goal, &Validity::Invalid(Some(env)), &refuted);
        assert!(msg.contains("are not valid"), "{msg}");
        assert!(
            msg.contains("the numeric grid sweep found a counterexample at n = 2"),
            "{msg}"
        );
        assert!(!msg.contains("gave up"), "{msg}");
    }

    #[test]
    fn rejects_ill_typed_programs() {
        let report = check("def bad : boolr = 3;");
        assert!(!report.all_ok());
        assert!(report.def("bad").unwrap().error.is_some());
    }

    #[test]
    fn rejects_unsound_cost_bounds() {
        // Claiming a negative-relative-cost identity is fine (0 ≤ 0), but a
        // claimed bound that the body exceeds must be rejected: here the left
        // program does strictly more work than allowed by the bound 0 against
        // a cheaper right program.
        let report = check("def two : UU int = 1 + 1 + 1 ~ 3;");
        assert!(!report.all_ok());
        let report = check("def two : UU int @ 2 = 1 + 1 + 1 ~ 3;");
        assert!(report.all_ok());
    }

    #[test]
    fn earlier_definitions_are_visible_to_later_ones() {
        let src = r#"
            def not2 : boolr -> boolr = lam b. if b then false else true;
            def use : boolr -> boolr = lam b. not2 (not2 b);
        "#;
        let report = check(src);
        assert!(report.all_ok(), "{report:?}");
    }

    #[test]
    fn solving_is_billed_from_the_leaf_timers_inside_elimination() {
        // `append`'s recursive call instantiates its index arguments with
        // `[]`, so its obligations are existential and FM runs inside
        // existential elimination; that time is solving, not elimination.
        // Typechecking applies no boxed function, so the session solver
        // makes no queries and the merged leaf timers are the entailment
        // solver's alone.
        let report = check(
            r#"
            def append : unitr -> forall n :: nat. forall a :: nat.
                         list[n; a] (UU int) ->
                         forall m :: nat. forall b :: nat.
                         list[m; b] (UU int) ->[0] list[n + m; a + b] (UU int)
            = fix append(u). Lam. Lam. lam l1. Lam. Lam. lam l2.
                case l1 of
                  nil -> l2
                | h :: t -> cons(h, append () [] [] t [] [] l2);
            "#,
        );
        let d = report.def("append").unwrap();
        assert!(d.ok && d.existential_vars > 0, "{d:?}");
        let t = d.timings;
        assert_eq!(t.solving, d.stats.fm_time + d.stats.numeric_time);
        assert!(t.solving > Duration::ZERO, "{d:?}");
        assert_eq!(t.typecheck + t.existential_elim + t.solving, t.total());
    }

    #[test]
    fn cached_engine_matches_uncached_verdicts_and_hits_on_rerun() {
        use rel_constraint::ShardedValidityCache;
        let src = r#"
            def not2 : boolr -> boolr = lam b. if b then false else true;
            def use : boolr -> boolr = lam b. not2 (not2 b);
        "#;
        let program = parse_program(src).unwrap();
        let plain = Engine::new().check_program(&program);

        let cache = Arc::new(ShardedValidityCache::new());
        let engine = Engine::new().with_cache(cache.clone());
        let cold = engine.check_program(&program);
        let warm = engine.check_program(&program);

        for (p, c) in plain.defs.iter().zip(&cold.defs) {
            assert_eq!(p.ok, c.ok, "cache changed the verdict of {}", p.name);
        }
        assert_eq!(cold.solve_stats().cache_hits, 0);
        assert!(cold.solve_stats().cache_misses > 0);
        assert!(
            warm.solve_stats().cache_hits > 0,
            "warm rerun must hit the cache"
        );
        assert!(cache.stats().entries > 0);
    }

    #[test]
    fn incremental_recheck_skips_unchanged_defs_with_zero_solver_work() {
        let src = r#"
            def not2 : boolr -> boolr = lam b. if b then false else true;
            def use : boolr -> boolr = lam b. not2 (not2 b);
        "#;
        let program = parse_program(src).unwrap();
        let engine = Engine::new();
        let index = DefIndex::new();

        let cold = engine.check_program_with(&program, Some(&index));
        assert!(cold.all_ok());
        assert_eq!(cold.skipped_unchanged(), 0);
        assert_eq!(index.len(), 2);
        for d in &cold.defs {
            assert_ne!(d.input_hash, 0);
        }

        let warm = engine.check_program_with(&program, Some(&index));
        assert!(warm.all_ok());
        assert_eq!(warm.skipped_unchanged(), 2);
        for (c, w) in cold.defs.iter().zip(&warm.defs) {
            assert_eq!(c.ok, w.ok);
            assert_eq!(c.input_hash, w.input_hash, "hashes must be reproducible");
            assert!(w.skipped_unchanged);
            // Zero solver work of any kind for a skipped definition.
            assert_eq!(w.stats.points_evaluated, 0);
            assert_eq!(w.stats.cache_misses, 0);
            assert_eq!(w.stats.programs_compiled, 0);
            assert_eq!(w.timings.total(), Duration::ZERO);
        }
    }

    #[test]
    fn editing_an_earlier_interface_recheck_later_defs() {
        let base = r#"
            def not2 : boolr -> boolr = lam b. if b then false else true;
            def use : boolr -> boolr = lam b. not2 (not2 b);
        "#;
        // Same `use` source text, but the interface it sees changed (the
        // body of not2 is different — its interface string is the same, so
        // only not2 itself re-checks)…
        let body_edit = r#"
            def not2 : boolr -> boolr = lam b. if b then false else false;
            def use : boolr -> boolr = lam b. not2 (not2 b);
        "#;
        let engine = Engine::new();
        let index = DefIndex::new();
        engine.check_program_with(&parse_program(base).unwrap(), Some(&index));

        let edited = engine.check_program_with(&parse_program(body_edit).unwrap(), Some(&index));
        assert!(
            !edited.defs[0].skipped_unchanged,
            "edited def must re-check"
        );
        assert!(
            edited.defs[1].skipped_unchanged,
            "unchanged def behind an unchanged interface is skipped"
        );

        // …whereas a changed *type* on not2 re-checks `use` too.
        let iface_edit = r#"
            def not2 : boolr ->[1] boolr = lam b. if b then false else true;
            def use : boolr -> boolr = lam b. not2 (not2 b);
        "#;
        let edited = engine.check_program_with(&parse_program(iface_edit).unwrap(), Some(&index));
        assert!(!edited.defs[0].skipped_unchanged);
        assert!(
            !edited.defs[1].skipped_unchanged,
            "an interface edit invalidates every later definition"
        );
    }

    #[test]
    fn def_index_epoch_evicts_at_capacity() {
        let stored = |n: u64| StoredDef {
            name: format!("d{n}"),
            ok: true,
            proved: true,
            error: None,
        };
        let index = DefIndex::with_capacity(2);
        for h in 0..3 {
            index.insert(h, h + 100, stored(h));
        }
        // The third insert cleared the full index first.
        assert_eq!(index.len(), 1);
        assert!(index.lookup(2, 102).is_some());
        assert!(index.lookup(0, 100).is_none());
        // Overwriting a recorded hash never evicts.
        index.insert(2, 102, stored(9));
        index.insert(2, 102, stored(10));
        assert_eq!(index.len(), 1);
        assert_eq!(index.lookup(2, 102).unwrap().name, "d10");
    }

    #[test]
    fn def_index_rejects_primary_hash_collisions() {
        let index = DefIndex::new();
        index.insert(
            7,
            1111,
            StoredDef {
                name: "real".to_string(),
                ok: true,
                proved: true,
                error: None,
            },
        );
        // Same primary hash, different verify hash: a collision — a miss,
        // never a replay of the wrong definition's verdict.
        assert!(index.lookup(7, 2222).is_none());
        assert!(index.lookup(7, 1111).is_some());
    }

    #[test]
    fn different_engine_configs_never_share_def_hashes() {
        let program = parse_program("def id : boolr -> boolr = lam x. x;").unwrap();
        let index = DefIndex::new();
        Engine::new().check_program_with(&program, Some(&index));
        let relref = Engine::new()
            .at_level(SystemLevel::RelRef)
            .check_program_with(&program, Some(&index));
        assert!(
            !relref.defs[0].skipped_unchanged,
            "a RelRef engine must not replay RelCost verdicts"
        );
        assert_ne!(Engine::new().fingerprint(), {
            Engine::new().at_level(SystemLevel::RelRef).fingerprint()
        });
    }

    #[test]
    fn shared_program_cache_is_wired_through_the_engine() {
        use rel_constraint::SharedProgramCache;
        // A def whose constraints reach the numeric layer, so bytecode gets
        // compiled: a cost-bound claim settled by grid evaluation.
        let src = "def two : UU int @ 2 = 1 + 1 + 1 ~ 3;";
        let program = parse_program(src).unwrap();
        let programs = Arc::new(SharedProgramCache::new());
        let engine = Engine::new().with_program_cache(Arc::clone(&programs));

        let first = engine.check_program(&program);
        assert!(first.all_ok());
        let compiled_cold = first.solve_stats().programs_compiled;

        let second = engine.check_program(&program);
        assert!(second.all_ok());
        assert_eq!(
            second.solve_stats().programs_compiled,
            0,
            "every program must come from the shared memo on the second run"
        );
        if compiled_cold > 0 {
            assert!(second.solve_stats().program_cache_hits > 0);
            assert!(programs.stats().entries > 0);
        }
    }

    #[test]
    fn relref_level_ignores_costs() {
        let src = "def f : intr ->[0] intr = lam x. x + 1;";
        // At the RelCost level the bound 0 on the arrow is fine (the relative
        // cost of the two identical bodies is 0)…
        assert!(check(src).all_ok());
        // …and at the RelRef level costs are ignored entirely.
        let report = Engine::new()
            .at_level(SystemLevel::RelRef)
            .check_program(&parse_program(src).unwrap());
        assert!(report.all_ok());
    }
}
