//! The epoch-keyed result cache of the serving layer.
//!
//! [`ResultCache`] memoizes complete query answers under
//! `(`[`QueryFingerprint`]`, `[`Epoch`]`)` keys.  The fingerprint names
//! the *canonical* logical query (`orchestra_optimizer::fingerprint`), so
//! trivially equivalent spellings share one entry; the epoch names the
//! immutable data version the answer was computed against.  Because
//! published epochs never change, a cached answer is valid forever *for
//! its epoch* — there is no invalidation logic at all.  A publication
//! bumps the epoch queries run at, which changes the key, which makes
//! every stale entry an ordinary miss that capacity pressure eventually
//! evicts.
//!
//! **A hit costs one pointer bump a row.**  An answer's rows are built
//! once, when they leave the output batch; a [`Tuple`] shares its row by
//! pointer, so the fill keeps the very rows the first session's report
//! holds and every hit hands them out again — two `Vec`s of pointers
//! (rows and signed rows) are allocated per hit, and no row or string.
//!
//! The cache is bounded to [`ResultCache::capacity`] entries.  When full,
//! insertion evicts per [`EvictionPolicy`]:
//!
//! * [`EvictionPolicy::Lru`] — the least-recently-*used* entry (lookup
//!   hits and insertion both refresh recency);
//! * [`EvictionPolicy::CostAware`] — the entry whose miss would be
//!   cheapest to repay, measured by the network bytes its query shipped
//!   when it was executed; recency breaks ties, so the policy degrades
//!   to LRU among equal-cost entries.
//!
//! Fill discipline: the scheduler inserts an answer only when its session
//! *completes* — a query interrupted by a node failure contributes
//! nothing until its recovery finishes, at which point the recovered
//! (correct, cross-checked) answer is what gets cached.  A mid-query
//! failure therefore can never leave a partial fill behind.

use orchestra_common::{Epoch, QueryFingerprint, Tuple};
use std::collections::BTreeMap;

/// Which entry a full [`ResultCache`] sacrifices on insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used entry.
    Lru,
    /// Evict the entry cheapest to recompute (fewest shipped bytes on its
    /// original execution), recency breaking ties.
    CostAware,
}

/// Aggregate counters of a [`ResultCache`] — monotone over the cache's
/// lifetime; use [`CacheStats::since`] for per-run deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Answers inserted.
    pub insertions: u64,
    /// Entries evicted under capacity pressure.
    pub evictions: u64,
    /// Network bytes the hits avoided shipping (the sum, over every hit,
    /// of the bytes the entry's query moved when it actually executed).
    ///
    /// This is strictly a *result-cache* figure: subscriber
    /// notification traffic ([`super::registry::ViewDiff`] bytes) is
    /// accounted under its own `view_diff_bytes` key and never folds
    /// into this counter, so serving JSON reports the two under
    /// distinct keys without double-counting.
    pub bytes_saved: u64,
}

impl CacheStats {
    /// The counters accumulated since `earlier` was captured.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            insertions: self.insertions - earlier.insertions,
            evictions: self.evictions - earlier.evictions,
            bytes_saved: self.bytes_saved - earlier.bytes_saved,
        }
    }

    /// Hits over lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// One cached answer.
#[derive(Clone, Debug)]
struct Entry {
    /// The answer rows, already sorted (as `QueryReport::rows`).
    rows: Vec<Tuple>,
    /// The signed form (always `+1` for ordinary queries).
    signed_rows: Vec<(Tuple, i8)>,
    /// Serialized size of the answer rows.
    answer_bytes: u64,
    /// Network bytes the query shipped when it executed — what a hit
    /// saves, and the cost the [`EvictionPolicy::CostAware`] policy keeps.
    shipped_bytes: u64,
    /// Hits this entry has served.
    hits: u64,
    /// Logical recency tick of the last lookup hit or insertion.
    last_used: u64,
}

/// A cached answer as handed to the scheduler on a hit: the entry's own
/// rows, shared by pointer (one reference-count bump a row — see the
/// module docs), never a copy of their values.
#[derive(Clone, Debug)]
pub struct CachedAnswer {
    /// The answer rows, sorted.
    pub rows: Vec<Tuple>,
    /// The signed answer rows, sorted.
    pub signed_rows: Vec<(Tuple, i8)>,
    /// Network bytes this hit avoided shipping.
    pub shipped_bytes: u64,
}

/// Per-entry accounting, as exposed by [`ResultCache::entries`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryStats {
    /// The entry's key.
    pub fingerprint: QueryFingerprint,
    /// The epoch the answer was computed against.
    pub epoch: Epoch,
    /// Hits the entry has served.
    pub hits: u64,
    /// Serialized size of the cached answer.
    pub answer_bytes: u64,
    /// Network bytes one miss on this entry would ship.
    pub shipped_bytes: u64,
}

/// A bounded, epoch-keyed cache of complete query answers.
#[derive(Clone, Debug)]
pub struct ResultCache {
    capacity: usize,
    policy: EvictionPolicy,
    entries: BTreeMap<(QueryFingerprint, Epoch), Entry>,
    tick: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// A cache bounded to `capacity` entries under `policy`.  A capacity
    /// of zero is a valid (always-miss, never-stores) configuration.
    pub fn new(capacity: usize, policy: EvictionPolicy) -> ResultCache {
        ResultCache {
            capacity,
            policy,
            entries: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The eviction policy in force.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up the answer of `fingerprint` at `epoch`, recording a hit or
    /// a miss.  A hit refreshes the entry's recency.
    pub fn lookup(&mut self, fingerprint: QueryFingerprint, epoch: Epoch) -> Option<CachedAnswer> {
        self.tick += 1;
        match self.entries.get_mut(&(fingerprint, epoch)) {
            Some(entry) => {
                entry.hits += 1;
                entry.last_used = self.tick;
                self.stats.hits += 1;
                self.stats.bytes_saved += entry.shipped_bytes;
                Some(CachedAnswer {
                    rows: entry.rows.clone(),
                    signed_rows: entry.signed_rows.clone(),
                    shipped_bytes: entry.shipped_bytes,
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert the completed answer of `fingerprint` at `epoch`, evicting
    /// per the policy if the cache is full.  Re-inserting an existing key
    /// replaces the answer and its sizes (the store is deterministic, so
    /// in a run the rows are identical) without disturbing the entry's
    /// hit count.  The rows are moved in, not copied.
    pub fn insert(
        &mut self,
        fingerprint: QueryFingerprint,
        epoch: Epoch,
        rows: Vec<Tuple>,
        signed_rows: Vec<(Tuple, i8)>,
        shipped_bytes: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let key = (fingerprint, epoch);
        let answer_bytes: u64 = rows.iter().map(|t| t.serialized_size() as u64).sum();
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.rows = rows;
            entry.signed_rows = signed_rows;
            entry.answer_bytes = answer_bytes;
            entry.shipped_bytes = shipped_bytes;
            entry.last_used = self.tick;
            return;
        }
        if self.entries.len() >= self.capacity {
            self.evict_one();
        }
        self.entries.insert(
            key,
            Entry {
                rows,
                signed_rows,
                answer_bytes,
                shipped_bytes,
                hits: 0,
                last_used: self.tick,
            },
        );
        self.stats.insertions += 1;
    }

    /// Drop one entry per the eviction policy.
    fn evict_one(&mut self) {
        let victim = match self.policy {
            // Min by (last_used): oldest recency.  BTreeMap iteration
            // order makes any remaining tie (impossible: ticks are
            // unique) deterministic anyway.
            EvictionPolicy::Lru => self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k),
            // Min by (shipped_bytes, last_used): cheapest miss first,
            // oldest among equals.
            EvictionPolicy::CostAware => self
                .entries
                .iter()
                .min_by_key(|(_, e)| (e.shipped_bytes, e.last_used))
                .map(|(k, _)| *k),
        };
        if let Some(key) = victim {
            self.entries.remove(&key);
            self.stats.evictions += 1;
        }
    }

    /// Per-entry accounting, in key order (deterministic).
    pub fn entries(&self) -> Vec<EntryStats> {
        self.entries
            .iter()
            .map(|(&(fingerprint, epoch), e)| EntryStats {
                fingerprint,
                epoch,
                hits: e.hits,
                answer_bytes: e.answer_bytes,
                shipped_bytes: e.shipped_bytes,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::Value;

    fn fp(tag: &str) -> QueryFingerprint {
        QueryFingerprint::of_bytes(tag.as_bytes())
    }

    fn row(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    fn insert(cache: &mut ResultCache, tag: &str, epoch: u64, shipped: u64) {
        cache.insert(
            fp(tag),
            Epoch(epoch),
            vec![row(shipped as i64)],
            vec![(row(shipped as i64), 1)],
            shipped,
        );
    }

    #[test]
    fn hits_are_keyed_by_fingerprint_and_epoch() {
        let mut cache = ResultCache::new(4, EvictionPolicy::Lru);
        insert(&mut cache, "q1", 1, 100);
        assert!(cache.lookup(fp("q1"), Epoch(1)).is_some());
        // Same query, later epoch: a miss — publication bumped the key.
        assert!(cache.lookup(fp("q1"), Epoch(2)).is_none());
        // Different query, same epoch: a miss.
        assert!(cache.lookup(fp("q2"), Epoch(1)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.bytes_saved, 100);
        assert_eq!(cache.entries()[0].hits, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = ResultCache::new(2, EvictionPolicy::Lru);
        insert(&mut cache, "a", 1, 10);
        insert(&mut cache, "b", 1, 20);
        // Touch "a" so "b" is the coldest.
        assert!(cache.lookup(fp("a"), Epoch(1)).is_some());
        insert(&mut cache, "c", 1, 30);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(fp("a"), Epoch(1)).is_some());
        assert!(cache.lookup(fp("b"), Epoch(1)).is_none());
        assert!(cache.lookup(fp("c"), Epoch(1)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn cost_aware_keeps_the_expensive_answer() {
        let mut cache = ResultCache::new(2, EvictionPolicy::CostAware);
        insert(&mut cache, "cheap", 1, 10);
        insert(&mut cache, "dear", 1, 1000);
        // Touch "cheap" last: LRU would evict "dear"; cost-aware must
        // sacrifice "cheap" anyway.
        assert!(cache.lookup(fp("cheap"), Epoch(1)).is_some());
        insert(&mut cache, "mid", 1, 100);
        assert!(cache.lookup(fp("dear"), Epoch(1)).is_some());
        assert!(cache.lookup(fp("cheap"), Epoch(1)).is_none());
    }

    #[test]
    fn reinsertion_replaces_without_double_counting() {
        let mut cache = ResultCache::new(2, EvictionPolicy::Lru);
        insert(&mut cache, "a", 1, 10);
        assert!(cache.lookup(fp("a"), Epoch(1)).is_some());
        insert(&mut cache, "a", 1, 12);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
        let entry = &cache.entries()[0];
        assert_eq!(entry.hits, 1); // hit count survives the refresh
        assert_eq!(entry.shipped_bytes, 12);
    }

    #[test]
    fn reinsertion_resizes_the_answer() {
        let mut cache = ResultCache::new(2, EvictionPolicy::Lru);
        let size = |rows: &[Tuple]| rows.iter().map(|t| t.serialized_size() as u64).sum::<u64>();
        let small = vec![row(1)];
        let large = vec![
            Tuple::new(vec![Value::Int(1), Value::str("a longer row")]),
            Tuple::new(vec![Value::Int(2), Value::str("and a second one")]),
        ];
        assert_ne!(size(&small), size(&large));
        cache.insert(fp("a"), Epoch(1), small.clone(), Vec::new(), 10);
        assert_eq!(cache.entries()[0].answer_bytes, size(&small));
        cache.insert(fp("a"), Epoch(1), large.clone(), Vec::new(), 10);
        assert_eq!(cache.entries()[0].answer_bytes, size(&large));
        let hit = cache.lookup(fp("a"), Epoch(1)).expect("resident");
        assert_eq!(hit.rows, large);
        cache.insert(fp("a"), Epoch(1), small.clone(), Vec::new(), 10);
        assert_eq!(cache.entries()[0].answer_bytes, size(&small));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut cache = ResultCache::new(0, EvictionPolicy::Lru);
        insert(&mut cache, "a", 1, 10);
        assert!(cache.is_empty());
        assert!(cache.lookup(fp("a"), Epoch(1)).is_none());
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn stats_deltas_subtract() {
        let mut cache = ResultCache::new(2, EvictionPolicy::Lru);
        insert(&mut cache, "a", 1, 10);
        let before = cache.stats();
        assert!(cache.lookup(fp("a"), Epoch(1)).is_some());
        assert!(cache.lookup(fp("b"), Epoch(1)).is_none());
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses, delta.insertions), (1, 1, 0));
        assert_eq!(delta.bytes_saved, 10);
        assert!((delta.hit_rate() - 0.5).abs() < 1e-12);
    }
}
