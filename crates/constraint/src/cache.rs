//! A sharded, thread-safe constraint-validity cache.
//!
//! The expensive step of the BiRelCost pipeline is discharging entailments
//! `∀ ∆. Φₐ ⟹ Φ` (the judgement the paper ships to Why3 + Alt-Ergo).  Those
//! queries are pure functions of the solver configuration, the universally
//! quantified context, the hypothesis constraint and the goal — and under
//! batch traffic the same sub-entailments recur constantly: identical
//! definitions submitted by different requests, shared library functions
//! re-checked per program, and repeated structural sub-goals within one
//! derivation.  Memoizing verdicts is therefore sound (the solver is
//! deterministic: its randomized numeric layer uses a fixed seed) and highly
//! effective.
//!
//! Lookups go through [`QueryRef`], a *borrowed* view of the query: the hot
//! path (a cache hit) hashes and compares in place and never clones the
//! hypothesis or goal.  An owned [`QueryKey`] is materialized only when a
//! computed verdict is stored.  Hashing is a stable FNV-1a over the canonical
//! structure (sorted, deduplicated universals; the simplified constraints the
//! solver works on) so shard selection is reproducible across processes; the
//! full key lives in the shard map, so hash collisions can never corrupt a
//! verdict.  Shards are bounded: when one fills up it is wholesale-cleared
//! (epoch eviction), which bounds daemon memory without LRU bookkeeping.
//! See DESIGN.md §5.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rel_index::{IdxVar, Sort};

use crate::constr::Constr;
use crate::solver::Validity;

/// A borrowed view of one entailment query `∀ universals. hyp ⟹ goal`,
/// bound to the fingerprint of the solver configuration answering it.
///
/// This is what the solver hands to [`ValidityCache::lookup`]: building it
/// allocates at most one small vec of references (for canonicalizing the
/// universals), never cloning constraints.
pub struct QueryRef<'a> {
    config_fingerprint: u64,
    /// Canonical universals: sorted by (name, sort), deduplicated.
    canonical_universals: Vec<&'a (IdxVar, Sort)>,
    hyp: &'a Constr,
    goal: &'a Constr,
}

impl<'a> QueryRef<'a> {
    /// Builds the canonical borrowed query.  For each variable *name* only
    /// the **last** binding is kept — the list is a prenex prefix built
    /// outermost-first, so a later binding of the same name shadows the
    /// earlier one completely (the solver's numeric layer binds its
    /// environment in list order, last wins).  The surviving bindings are
    /// then sorted: with every name unique, their order is semantically
    /// irrelevant.  `config_fingerprint` (see `SolveConfig::fingerprint`)
    /// keys the verdict to the configuration that produced it — solvers with
    /// different grids, seeds or decisiveness must not exchange verdicts
    /// even when they share a cache.
    pub fn new(
        config_fingerprint: u64,
        universals: &'a [(IdxVar, Sort)],
        hyp: &'a Constr,
        goal: &'a Constr,
    ) -> QueryRef<'a> {
        let mut canonical_universals: Vec<&(IdxVar, Sort)> = Vec::with_capacity(universals.len());
        for u in universals.iter().rev() {
            if !canonical_universals.iter().any(|kept| kept.0 == u.0) {
                canonical_universals.push(u);
            }
        }
        canonical_universals.sort();
        QueryRef {
            config_fingerprint,
            canonical_universals,
            hyp,
            goal,
        }
    }

    /// The stable 64-bit structural hash used for shard and bucket selection.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.config_fingerprint.hash(&mut h);
        for u in &self.canonical_universals {
            u.hash(&mut h);
        }
        self.hyp.hash(&mut h);
        self.goal.hash(&mut h);
        h.finish()
    }

    pub(crate) fn matches(&self, key: &QueryKey) -> bool {
        self.config_fingerprint == key.config_fingerprint
            && self
                .canonical_universals
                .iter()
                .copied()
                .eq(key.universals.iter())
            && *self.hyp == key.hyp
            && *self.goal == key.goal
    }

    /// Materializes the owned key (done once per miss, on store).
    pub fn to_key(&self) -> QueryKey {
        QueryKey {
            config_fingerprint: self.config_fingerprint,
            universals: self
                .canonical_universals
                .iter()
                .map(|u| (*u).clone())
                .collect(),
            hyp: self.hyp.clone(),
            goal: self.goal.clone(),
        }
    }
}

impl fmt::Debug for QueryRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QueryRef(#{:016x})", self.stable_hash())
    }
}

/// The owned, canonical key of a memoized entailment query.
#[derive(Clone, PartialEq, Eq)]
pub struct QueryKey {
    config_fingerprint: u64,
    universals: Vec<(IdxVar, Sort)>,
    hyp: Constr,
    goal: Constr,
}

impl QueryKey {
    /// Builds the owned canonical key directly (tests and out-of-band
    /// cache population; the solver goes through [`QueryRef`]).
    pub fn new(
        config_fingerprint: u64,
        universals: &[(IdxVar, Sort)],
        hyp: &Constr,
        goal: &Constr,
    ) -> QueryKey {
        QueryRef::new(config_fingerprint, universals, hyp, goal).to_key()
    }

    /// Reassembles a key from decoded parts (cache-file replay).  The
    /// universals are re-canonicalized, so a key decoded from a well-formed
    /// frame is byte-for-byte the key that was serialized, and a key from
    /// a hand-built frame still upholds the canonical-form invariant.
    pub fn from_parts(
        config_fingerprint: u64,
        universals: Vec<(IdxVar, Sort)>,
        hyp: Constr,
        goal: Constr,
    ) -> QueryKey {
        QueryKey::new(config_fingerprint, &universals, &hyp, &goal)
    }

    /// The fingerprint of the solver configuration the verdict is keyed to.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// The canonical universally quantified context.
    pub fn universals(&self) -> &[(IdxVar, Sort)] {
        &self.universals
    }

    /// The hypothesis constraint.
    pub fn hyp(&self) -> &Constr {
        &self.hyp
    }

    /// The goal constraint.
    pub fn goal(&self) -> &Constr {
        &self.goal
    }

    /// The stable 64-bit structural hash (agrees with the borrowed view's).
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.config_fingerprint.hash(&mut h);
        for u in &self.universals {
            u.hash(&mut h);
        }
        self.hyp.hash(&mut h);
        self.goal.hash(&mut h);
        h.finish()
    }

    #[cfg(test)]
    fn as_ref(&self) -> QueryRef<'_> {
        QueryRef {
            config_fingerprint: self.config_fingerprint,
            canonical_universals: self.universals.iter().collect(),
            hyp: &self.hyp,
            goal: &self.goal,
        }
    }
}

impl fmt::Debug for QueryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QueryKey(#{:016x})", self.stable_hash())
    }
}

/// FNV-1a: a stable hasher, unlike `DefaultHasher` whose keys are
/// unspecified.  Shared by the cache, `SolveConfig::fingerprint`, the
/// engine's per-definition input hashes and the frame checksum of
/// `rel-persist` — every hash that must be reproducible across processes.
#[derive(Default)]
pub struct Fnv1a {
    state: u64,
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        // An unseeded FNV state of 0 would map the empty input to 0; start
        // from the standard offset basis.
        self.state ^ 0xcbf2_9ce4_8422_2325
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.state = h ^ 0xcbf2_9ce4_8422_2325;
    }
}

/// Counters describing cache effectiveness (monotone, process-wide).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a memoized verdict.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Number of verdicts currently stored.
    pub entries: u64,
    /// Shard-clear evictions triggered by the per-shard capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `0` when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The interface the solver consults before running an entailment query.
///
/// Implementations must be thread-safe: one cache instance is shared across
/// all workers of a batch run.
pub trait ValidityCache: Send + Sync + fmt::Debug {
    /// Returns the memoized verdict for the query, if any, updating hit/miss
    /// counters.  Must not clone the query's constraints on the hit path.
    fn lookup(&self, query: &QueryRef<'_>) -> Option<Validity>;

    /// Memoizes a verdict.
    fn store(&self, query: &QueryRef<'_>, verdict: Validity);

    /// Current effectiveness counters.
    fn stats(&self) -> CacheStats;
}

type Bucket = Vec<(QueryKey, Validity)>;

/// One lockable shard: hash-bucketed verdicts plus a maintained entry count
/// (so the capacity check on store is O(1), not a scan over all buckets).
#[derive(Default)]
struct Shard {
    buckets: HashMap<u64, Bucket>,
    len: usize,
}

/// The default [`ValidityCache`]: N independently locked shards selected by
/// the query's stable hash, each a hash-bucketed map with a capacity bound.
///
/// When a shard reaches its per-shard entry cap it is wholesale-cleared
/// before the insert (epoch eviction): O(1) amortized, no recency
/// bookkeeping, and memory stays bounded for long-running daemons.  Under
/// the bound, a working set that fits is never evicted.
pub struct ShardedValidityCache {
    shards: Vec<Mutex<Shard>>,
    max_entries_per_shard: usize,
    entries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Store notification hook (WAL durability): called on every store,
    /// *before* the shard lock is taken, so the observer may itself inspect
    /// the cache or take unrelated locks without deadlocking.
    observer: std::sync::RwLock<Option<StoreObserver>>,
}

/// A callback notified of every verdict store (key + verdict).  Attached by
/// the persistence layer so each freshly computed verdict can be appended
/// to a write-ahead log the moment it is memoized.
pub type StoreObserver = std::sync::Arc<dyn Fn(&QueryKey, &Validity) + Send + Sync>;

impl ShardedValidityCache {
    /// Default shard count (16) and per-shard capacity (16 384 verdicts,
    /// i.e. at most ~262 k memoized verdicts before epoch eviction).
    pub fn new() -> ShardedValidityCache {
        ShardedValidityCache::with_shards(16)
    }

    /// A cache with an explicit shard count and the default capacity.
    pub fn with_shards(n: usize) -> ShardedValidityCache {
        ShardedValidityCache::with_shards_and_capacity(n, 16_384)
    }

    /// A cache with explicit shard count and per-shard entry cap (both
    /// rounded up to at least 1).
    pub fn with_shards_and_capacity(
        n: usize,
        max_entries_per_shard: usize,
    ) -> ShardedValidityCache {
        let n = n.max(1);
        ShardedValidityCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            max_entries_per_shard: max_entries_per_shard.max(1),
            entries: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            observer: std::sync::RwLock::new(None),
        }
    }

    /// Attaches (or with `None`, detaches) the store-notification hook.
    /// Callers restoring persisted state into the cache must attach the
    /// observer *after* the restore, or every replayed verdict re-enters
    /// the log it came from.
    pub fn set_store_observer(&self, observer: Option<StoreObserver>) {
        *self.observer.write().expect("cache observer poisoned") = observer;
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Drops every memoized verdict (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.buckets.clear();
            self.entries.fetch_sub(shard.len as u64, Ordering::Relaxed);
            shard.len = 0;
        }
    }

    /// Clones out every memoized verdict (compaction).  Entries are
    /// returned in a deterministic order — shards in index order, buckets by
    /// hash, entries in insertion order — so two exports of the same cache
    /// contents serialize identically.
    pub fn export_entries(&self) -> Vec<(QueryKey, Validity)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            let mut hashes: Vec<u64> = shard.buckets.keys().copied().collect();
            hashes.sort_unstable();
            for h in hashes {
                for (k, v) in &shard.buckets[&h] {
                    out.push((k.clone(), v.clone()));
                }
            }
        }
        out
    }

    /// Whether a verdict is memoized under `key`, without touching the
    /// hit/miss counters (replication dedup: an already-present key is a
    /// duplicate to drop, not a cache miss to report).
    pub fn contains_key(&self, key: &QueryKey) -> bool {
        let hash = key.stable_hash();
        let shard = self.shard(hash).lock().expect("cache shard poisoned");
        shard
            .buckets
            .get(&hash)
            .is_some_and(|bucket| bucket.iter().any(|(k, _)| k == key))
    }

    /// Stores a verdict under an owned key (out-of-band population; the
    /// solver path goes through [`ValidityCache::store`]).
    pub fn store_key(&self, key: QueryKey, verdict: Validity) {
        // Notify before the insert, with no shard lock held: the observer
        // (a WAL append) may block on I/O, and a durability log written
        // before the in-memory store can at worst carry a verdict the
        // memory never served — harmless, since replay is idempotent and
        // the verdict itself is correct either way.
        if let Some(observer) = self
            .observer
            .read()
            .expect("cache observer poisoned")
            .clone()
        {
            observer(&key, &verdict);
        }
        let hash = key.stable_hash();
        let mut shard = self.shard(hash).lock().expect("cache shard poisoned");
        if shard.len >= self.max_entries_per_shard {
            shard.buckets.clear();
            self.entries.fetch_sub(shard.len as u64, Ordering::Relaxed);
            shard.len = 0;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let bucket = shard.buckets.entry(hash).or_default();
        match bucket.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = verdict,
            None => {
                bucket.push((key, verdict));
                shard.len += 1;
                self.entries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Default for ShardedValidityCache {
    fn default() -> Self {
        ShardedValidityCache::new()
    }
}

impl fmt::Debug for ShardedValidityCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("ShardedValidityCache")
            .field("shards", &self.shards.len())
            .field("max_entries_per_shard", &self.max_entries_per_shard)
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl ValidityCache for ShardedValidityCache {
    fn lookup(&self, query: &QueryRef<'_>) -> Option<Validity> {
        let hash = query.stable_hash();
        let shard = self.shard(hash).lock().expect("cache shard poisoned");
        let found = shard
            .buckets
            .get(&hash)
            .and_then(|bucket| bucket.iter().find(|(k, _)| query.matches(k)))
            .map(|(_, v)| v.clone());
        drop(shard);
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&self, query: &QueryRef<'_>, verdict: Validity) {
        self.store_key(query.to_key(), verdict);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rel_index::Idx;
    use std::sync::Arc;

    const CFG: u64 = 0x5EED;

    fn goal(rhs: u64) -> Constr {
        Constr::leq(Idx::var("n"), Idx::nat(rhs))
    }

    fn key(goal_rhs: u64) -> QueryKey {
        QueryKey::new(
            CFG,
            &[(IdxVar::new("n"), Sort::Nat)],
            &Constr::Top,
            &goal(goal_rhs),
        )
    }

    fn lookup_key(cache: &ShardedValidityCache, key: &QueryKey) -> Option<Validity> {
        cache.lookup(&key.as_ref())
    }

    #[test]
    fn canonicalization_ignores_universal_order_and_duplicates() {
        let a = QueryKey::new(
            CFG,
            &[
                (IdxVar::new("n"), Sort::Nat),
                (IdxVar::new("a"), Sort::Nat),
                (IdxVar::new("n"), Sort::Nat),
            ],
            &Constr::Top,
            &Constr::Top,
        );
        let b = QueryKey::new(
            CFG,
            &[(IdxVar::new("a"), Sort::Nat), (IdxVar::new("n"), Sort::Nat)],
            &Constr::Top,
            &Constr::Top,
        );
        assert_eq!(a, b);
        assert_eq!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn borrowed_and_owned_views_agree() {
        let universals = [
            (IdxVar::new("n"), Sort::Nat),
            (IdxVar::new("a"), Sort::Nat),
            (IdxVar::new("n"), Sort::Nat),
        ];
        let hyp = Constr::Top;
        let g = goal(4);
        let q = QueryRef::new(CFG, &universals, &hyp, &g);
        let k = q.to_key();
        assert_eq!(q.stable_hash(), k.stable_hash());
        assert!(q.matches(&k));
    }

    #[test]
    fn shadowed_quantifiers_keep_only_the_innermost_binding() {
        let g = goal(3);
        // ∀ n::Nat. ∀ n::Real — the inner Real binding shadows the Nat one…
        let nat_then_real = [
            (IdxVar::new("n"), Sort::Nat),
            (IdxVar::new("n"), Sort::Real),
        ];
        // …and the reverse nesting shadows the other way round.
        let real_then_nat = [
            (IdxVar::new("n"), Sort::Real),
            (IdxVar::new("n"), Sort::Nat),
        ];
        let a = QueryKey::new(CFG, &nat_then_real, &Constr::Top, &g);
        let b = QueryKey::new(CFG, &real_then_nat, &Constr::Top, &g);
        assert_ne!(a, b, "different innermost sorts must not share a key");
        // Each agrees with the single-binding form of its innermost sort.
        let real_only = [(IdxVar::new("n"), Sort::Real)];
        assert_eq!(a, QueryKey::new(CFG, &real_only, &Constr::Top, &g));
        let cache = ShardedValidityCache::new();
        cache.store_key(a, Validity::proved());
        assert!(lookup_key(&cache, &b).is_none());
    }

    #[test]
    fn distinct_queries_get_distinct_keys() {
        assert_ne!(key(1), key(2));
        assert_ne!(key(1).stable_hash(), key(2).stable_hash());
    }

    #[test]
    fn different_solver_configs_do_not_share_verdicts() {
        let a = QueryKey::new(1, &[], &Constr::Top, &Constr::Bot);
        let b = QueryKey::new(2, &[], &Constr::Top, &Constr::Bot);
        assert_ne!(a, b);
        let cache = ShardedValidityCache::new();
        cache.store_key(a, Validity::proved());
        assert!(lookup_key(&cache, &b).is_none());
    }

    #[test]
    fn lookup_store_roundtrip_and_counters() {
        let cache = ShardedValidityCache::new();
        assert!(lookup_key(&cache, &key(1)).is_none());
        cache.store_key(key(1), Validity::proved());
        assert_eq!(lookup_key(&cache, &key(1)), Some(Validity::proved()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = ShardedValidityCache::with_shards(4);
        cache.store_key(key(1), Validity::proved());
        cache.store_key(key(2), Validity::Invalid(None));
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert!(lookup_key(&cache, &key(1)).is_none());
    }

    #[test]
    fn capacity_bound_evicts_by_clearing_the_full_shard() {
        // One shard, room for 4 verdicts: the 5th insert clears the shard.
        let cache = ShardedValidityCache::with_shards_and_capacity(1, 4);
        for i in 0..5 {
            cache.store_key(key(i), Validity::proved());
        }
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 1, "only the post-eviction insert remains");
        assert_eq!(lookup_key(&cache, &key(4)), Some(Validity::proved()));
        assert!(lookup_key(&cache, &key(0)).is_none());
    }

    #[test]
    fn restore_overwrites_without_duplicating() {
        let cache = ShardedValidityCache::new();
        cache.store_key(key(1), Validity::proved());
        cache.store_key(key(1), Validity::Invalid(None));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(lookup_key(&cache, &key(1)), Some(Validity::Invalid(None)));
    }

    #[test]
    fn concurrent_writers_and_readers_agree() {
        let cache = Arc::new(ShardedValidityCache::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..64 {
                    let k = key(t * 64 + i);
                    cache.store_key(k.clone(), Validity::proved());
                    assert_eq!(lookup_key(&cache, &k), Some(Validity::proved()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().entries, 8 * 64);
    }
}
