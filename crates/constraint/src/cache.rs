//! A sharded, thread-safe constraint-validity cache, and the bounded map it
//! shares with the compiled-program memo.
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
//! effective.  Every solver holds one [`ShardedValidityCache`]: a private
//! one unless an engine attaches one shared across solvers.
//!
//! Lookups go through [`QueryRef`], a *borrowed* view of the query, hashed
//! once: a hit compares in place and never clones the hypothesis or goal,
//! and an owned [`QueryKey`] is materialized only when a computed verdict
//! is stored, under the same hash.  Hashing is a stable FNV-1a over the
//! canonical structure (sorted, deduplicated universals; the simplified
//! constraints the solver works on) so shard selection is reproducible
//! across processes.  The verdicts live in a `ShardedMap`, the map the
//! compiled-program memo ([`crate::SharedProgramCache`]) is built on too:
//! full keys in the buckets, so hash collisions can never corrupt an
//! entry, and bounded shards that are wholesale-cleared when full (epoch
//! eviction), which bounds daemon memory without LRU bookkeeping.  See
//! DESIGN.md §5.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};

use rel_index::{IdxVar, Sort};

use crate::constr::Constr;
use crate::solver::Validity;

/// A borrowed view of one entailment query `∀ universals. hyp ⟹ goal`,
/// bound to the fingerprint of the solver configuration answering it.
///
/// This is what the solver hands to [`ShardedValidityCache::lookup`]:
/// building it hashes the query once and allocates at most one small vec of
/// references (for canonicalizing the universals), never cloning
/// constraints.
pub struct QueryRef<'a> {
    config_fingerprint: u64,
    /// Canonical universals: sorted by (name, sort), deduplicated.
    canonical_universals: Vec<&'a (IdxVar, Sort)>,
    hyp: &'a Constr,
    goal: &'a Constr,
    hash: u64,
}

/// The stable structural hash shared by [`QueryRef`] and [`QueryKey`].
fn query_hash<'a>(
    config_fingerprint: u64,
    universals: impl Iterator<Item = &'a (IdxVar, Sort)>,
    hyp: &Constr,
    goal: &Constr,
) -> u64 {
    let mut h = Fnv1a::default();
    config_fingerprint.hash(&mut h);
    for u in universals {
        u.hash(&mut h);
    }
    hyp.hash(&mut h);
    goal.hash(&mut h);
    h.finish()
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
    /// even when they share a cache.  The query is hashed here, once.
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
        let hash = query_hash(
            config_fingerprint,
            canonical_universals.iter().copied(),
            hyp,
            goal,
        );
        QueryRef {
            config_fingerprint,
            canonical_universals,
            hyp,
            goal,
            hash,
        }
    }

    /// The stable 64-bit structural hash used for shard and bucket selection.
    pub fn stable_hash(&self) -> u64 {
        self.hash
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
        write!(f, "QueryRef(#{:016x})", self.hash)
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
        query_hash(
            self.config_fingerprint,
            self.universals.iter(),
            &self.hyp,
            &self.goal,
        )
    }

    #[cfg(test)]
    fn as_ref(&self) -> QueryRef<'_> {
        QueryRef {
            config_fingerprint: self.config_fingerprint,
            canonical_universals: self.universals.iter().collect(),
            hyp: &self.hyp,
            goal: &self.goal,
            hash: self.stable_hash(),
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

/// Counters describing memo effectiveness (monotone, process-wide).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a memoized entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Number of entries currently stored.
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

/// One lockable shard: hash buckets of full keys plus a maintained entry
/// count (so the capacity check on insert is O(1), not a scan).
struct Shard<K, V> {
    buckets: HashMap<u64, Vec<(K, V)>>,
    len: usize,
}

/// The bounded sharded map behind both solver memos: N independently
/// locked shards selected by a caller-supplied stable hash, each a map from
/// that hash to a bucket of `(full key, value)` pairs.  Callers compare full
/// keys, so a hash collision can never alias two keys onto one value.
///
/// When a shard reaches its per-shard entry cap it is wholesale-cleared
/// before the insert (epoch eviction): O(1) amortized, no recency
/// bookkeeping, and memory stays bounded for long-running daemons.  Under
/// the bound, a working set that fits is never evicted.
pub(crate) struct ShardedMap<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    max_entries_per_shard: usize,
    entries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: PartialEq, V: Clone> ShardedMap<K, V> {
    /// A map with `n` shards of at most `max_entries_per_shard` entries
    /// each (both rounded up to at least 1).
    pub(crate) fn new(n: usize, max_entries_per_shard: usize) -> ShardedMap<K, V> {
        ShardedMap {
            shards: (0..n.max(1))
                .map(|_| {
                    Mutex::new(Shard {
                        buckets: HashMap::new(),
                        len: 0,
                    })
                })
                .collect(),
            max_entries_per_shard: max_entries_per_shard.max(1),
            entries: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self, index: usize) -> MutexGuard<'_, Shard<K, V>> {
        self.shards[index].lock().expect("cache shard poisoned")
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard<K, V>> {
        self.lock((hash % self.shards.len() as u64) as usize)
    }

    /// The value stored under the key `is_key` accepts in `hash`'s bucket,
    /// counted as a hit or a miss.
    pub(crate) fn get(&self, hash: u64, is_key: impl Fn(&K) -> bool) -> Option<V> {
        let found = self
            .shard(hash)
            .buckets
            .get(&hash)
            .and_then(|bucket| bucket.iter().find(|(k, _)| is_key(k)))
            .map(|(_, v)| v.clone());
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Whether `key` is stored, without touching the hit/miss counters.
    pub(crate) fn contains(&self, hash: u64, key: &K) -> bool {
        self.shard(hash)
            .buckets
            .get(&hash)
            .is_some_and(|bucket| bucket.iter().any(|(k, _)| k == key))
    }

    /// Stores `value` under `key` (whose hash is `hash`), overwriting an
    /// equal key's value; a full shard is cleared first.
    pub(crate) fn insert(&self, hash: u64, key: K, value: V) {
        let mut shard = self.shard(hash);
        if shard.len >= self.max_entries_per_shard {
            self.drop_entries(&mut shard);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let bucket = shard.buckets.entry(hash).or_default();
        match bucket.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => {
                bucket.push((key, value));
                shard.len += 1;
                self.entries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn drop_entries(&self, shard: &mut Shard<K, V>) {
        shard.buckets.clear();
        self.entries.fetch_sub(shard.len as u64, Ordering::Relaxed);
        shard.len = 0;
    }

    /// Drops every entry (counters are kept).
    pub(crate) fn clear(&self) {
        for i in 0..self.shards.len() {
            self.drop_entries(&mut self.lock(i));
        }
    }

    /// Clones out every entry in a deterministic order — shards in index
    /// order, buckets by hash, entries in insertion order — so two exports
    /// of the same contents agree.
    pub(crate) fn export(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            let shard = self.lock(i);
            let mut hashes: Vec<u64> = shard.buckets.keys().copied().collect();
            hashes.sort_unstable();
            for h in hashes {
                out.extend(shard.buckets[&h].iter().cloned());
            }
        }
        out
    }

    /// Current effectiveness counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Shape and counters only: the entries themselves are never printed.
impl<K: PartialEq, V: Clone> fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.shards.len())
            .field("max_entries_per_shard", &self.max_entries_per_shard)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The validity cache: verdicts keyed on canonical [`QueryKey`]s in a
/// `ShardedMap`, plus an optional store observer (the WAL).
pub struct ShardedValidityCache {
    map: ShardedMap<QueryKey, Validity>,
    /// Store notification hook (WAL durability): called on every store,
    /// *before* the shard lock is taken, so the observer may itself inspect
    /// the cache or take unrelated locks without deadlocking.
    observer: RwLock<Option<StoreObserver>>,
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
        ShardedValidityCache {
            map: ShardedMap::new(n, max_entries_per_shard),
            observer: RwLock::new(None),
        }
    }

    /// Attaches (or with `None`, detaches) the store-notification hook.
    /// Callers restoring persisted state into the cache must attach the
    /// observer *after* the restore, or every replayed verdict re-enters
    /// the log it came from.
    pub fn set_store_observer(&self, observer: Option<StoreObserver>) {
        *self.observer.write().expect("cache observer poisoned") = observer;
    }

    /// Returns the memoized verdict for the query, if any, counting a hit
    /// or a miss.  Never clones the query's constraints.
    pub fn lookup(&self, query: &QueryRef<'_>) -> Option<Validity> {
        self.map.get(query.hash, |k| query.matches(k))
    }

    /// Memoizes a verdict under the hash the query was built with.
    pub fn store(&self, query: &QueryRef<'_>, verdict: Validity) {
        self.insert(query.hash, query.to_key(), verdict);
    }

    /// Stores a verdict under an owned key (out-of-band population; the
    /// solver path goes through [`ShardedValidityCache::store`]).
    pub fn store_key(&self, key: QueryKey, verdict: Validity) {
        self.insert(key.stable_hash(), key, verdict);
    }

    fn insert(&self, hash: u64, key: QueryKey, verdict: Validity) {
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
        self.map.insert(hash, key, verdict);
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.map.stats()
    }

    /// Drops every memoized verdict (counters are kept).
    pub fn clear(&self) {
        self.map.clear();
    }

    /// Clones out every memoized verdict (compaction), in the map's
    /// deterministic export order, so two exports of the same cache
    /// contents serialize identically.
    pub fn export_entries(&self) -> Vec<(QueryKey, Validity)> {
        self.map.export()
    }

    /// Whether a verdict is memoized under `key`, without touching the
    /// hit/miss counters (replication dedup: an already-present key is a
    /// duplicate to drop, not a cache miss to report).
    pub fn contains_key(&self, key: &QueryKey) -> bool {
        self.map.contains(key.stable_hash(), key)
    }
}

impl Default for ShardedValidityCache {
    fn default() -> Self {
        ShardedValidityCache::new()
    }
}

impl fmt::Debug for ShardedValidityCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedValidityCache")
            .field("map", &self.map)
            .finish_non_exhaustive()
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
