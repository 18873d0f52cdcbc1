//! The snapshot-versioned distance-result cache: the throughput multiplier
//! for skewed (hot-pair) query traffic.
//!
//! Real navigation traffic is heavily skewed — a small set of hot
//! origin–destination pairs (airport ↔ downtown, stadium ↔ park-and-ride)
//! dominates the stream — so most queries recompute an answer the server
//! produced moments ago. A [`DistanceCache`] memoizes those answers *without
//! ever serving a stale one*: every entry is tagged with the
//! [`SnapshotPublisher`](htsp_graph::SnapshotPublisher) version it was
//! computed against, and a lookup only hits when the entry's version equals
//! the reader's pinned snapshot version. Publication of a new snapshot
//! therefore invalidates the whole cache *implicitly* — no sweep, no
//! flush — and stale entries are lazily overwritten by the next insert of
//! their pair.
//!
//! ```text
//!   maintainer ──publish(v+1)──► SnapshotPublisher ──on_publish──► epoch v+1
//!                                                                  │
//!   reader pinned at v+1:  get(s, t, v+1) ── entry.version == v+1? ┤
//!                                             yes → HIT (no search)│
//!                                             no  → stale MISS ────┴► search,
//!                                                   insert(s, t, v+1, d)
//! ```
//!
//! # Sharding and eviction
//!
//! The cache is split into `shards` independently locked segments (pair →
//! shard by Fx hash), each a fixed-capacity LRU list, so concurrent serving
//! threads rarely contend on one mutex. Per-shard telemetry counts hits,
//! misses (with the stale subset), inserts, and both eviction flavours
//! (capacity LRU evictions and lazy overwrites of stale entries);
//! [`DistanceCache::stats`] folds the shards into one [`CacheStats`].
//!
//! # Epochs
//!
//! The cache also tracks the newest published version it has *heard of* (its
//! epoch), fed by
//! [`SnapshotPublisher::on_publish`](htsp_graph::SnapshotPublisher::on_publish)
//! → [`DistanceCache::bump_epoch`] when a `RoadNetworkServer` owns the cache.
//! Correctness never depends on the epoch — the version equality check
//! carries it alone — but the epoch lets telemetry distinguish a *stale*
//! miss (the pair is cached, just from an older snapshot) from a *cold* one,
//! which is the number that says whether invalidation or capacity is eating
//! the hit rate.
//!
//! # When the cache helps vs hurts
//!
//! A hit costs one shard mutex and a hash lookup (~tens of ns); a miss adds
//! that on top of the search it failed to avoid. The cache therefore wins
//! when `hit_rate × t_search` exceeds the lookup cost: dramatically for
//! search-based views (BiDijkstra, DCH, the partitioned CH family, where
//! `t_search` is µs–ms), marginally or not at all for pure label lookups
//! (DH2H/MHL answer in ~100 ns — about the price of the probe itself). It is
//! config-gated off by default for exactly that reason; `BENCH_pr5.json`
//! records both sides.
//!
//! # Worked example
//!
//! ```
//! use htsp_throughput::{CacheConfig, DistanceCache};
//! use htsp_graph::{Dist, VertexId};
//!
//! let cache = DistanceCache::new(CacheConfig { capacity: 128, shards: 2 });
//! let (s, t) = (VertexId(3), VertexId(9));
//!
//! // Version 4 of the index answers d(s, t) = 17 and caches it.
//! assert_eq!(cache.get(s, t, 4), None); // cold miss
//! cache.insert(s, t, 4, Dist(17));
//! assert_eq!(cache.get(s, t, 4), Some(Dist(17))); // hit, no search
//!
//! // A new snapshot is published: same pair, new epoch — the old entry is
//! // invisible (stale miss) and the next insert overwrites it in place.
//! cache.bump_epoch(5);
//! assert_eq!(cache.get(s, t, 5), None);
//! cache.insert(s, t, 5, Dist(21));
//! assert_eq!(cache.get(s, t, 5), Some(Dist(21)));
//!
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses, stats.stale_misses), (2, 2, 1));
//! assert_eq!(stats.stale_evictions, 1); // the overwrite of the v4 entry
//! ```

use crate::config::CacheConfig;
use crate::telemetry::{Counter, TelemetryHub};
use htsp_graph::{Dist, QuerySession, VertexId};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cumulative telemetry of a [`DistanceCache`] (or one of its shards).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (entry present at the reader's
    /// snapshot version).
    pub hits: u64,
    /// Lookups that had to fall through to a search (includes
    /// [`CacheStats::stale_misses`]).
    pub misses: u64,
    /// The subset of misses where the pair *was* cached, but from a
    /// different snapshot version than the reader's (usually an older one —
    /// the price of publication-epoch invalidation).
    pub stale_misses: u64,
    /// Entries written (fresh inserts and overwrites alike).
    pub inserts: u64,
    /// Entries evicted because their shard was full (LRU order).
    pub evictions: u64,
    /// Entries lazily overwritten by an insert of the same pair at a newer
    /// version.
    pub stale_evictions: u64,
}

impl CacheStats {
    /// Component-wise sum (used to fold shards into one figure).
    pub fn plus(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            stale_misses: self.stale_misses + other.stale_misses,
            inserts: self.inserts + other.inserts,
            evictions: self.evictions + other.evictions,
            stale_evictions: self.stale_evictions + other.stale_evictions,
        }
    }

    /// The delta from an earlier reading of the same counters — the
    /// per-run figure the measurement harnesses report.
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            stale_misses: self.stale_misses.saturating_sub(earlier.stale_misses),
            inserts: self.inserts.saturating_sub(earlier.inserts),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            stale_evictions: self.stale_evictions.saturating_sub(earlier.stale_evictions),
        }
    }

    /// Fraction of lookups answered from the cache (0 when none happened).
    pub fn hit_rate(self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total lookups (hits + misses).
    pub fn lookups(self) -> u64 {
        self.hits + self.misses
    }

    /// Folds any number of per-shard (or per-server) readings into one
    /// aggregate — the fleet-report path, so per-shard cache telemetry sums
    /// without hand-rolled loops. Equivalent to `iter.sum()` via the
    /// [`Sum`](std::iter::Sum) impl.
    pub fn merge(stats: impl IntoIterator<Item = CacheStats>) -> CacheStats {
        stats
            .into_iter()
            .fold(CacheStats::default(), CacheStats::plus)
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        CacheStats::merge(iter)
    }
}

impl<'a> std::iter::Sum<&'a CacheStats> for CacheStats {
    fn sum<I: Iterator<Item = &'a CacheStats>>(iter: I) -> CacheStats {
        CacheStats::merge(iter.copied())
    }
}

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// One cached answer, threaded into its shard's LRU list.
#[derive(Clone, Copy)]
struct Slot {
    key: (VertexId, VertexId),
    /// Publisher version the answer was computed against.
    version: u64,
    dist: Dist,
    /// Towards more-recently-used.
    prev: u32,
    /// Towards less-recently-used.
    next: u32,
}

/// One shard's telemetry: lock-free [`Counter`] handles, readable without
/// the shard mutex and registerable into a [`TelemetryHub`] as labeled
/// `htsp_cache_*` series — the registry is the single source of truth;
/// [`CacheStats`] is a snapshot of these counters.
#[derive(Clone, Default)]
struct ShardMetrics {
    hits: Counter,
    misses: Counter,
    stale_misses: Counter,
    inserts: Counter,
    evictions: Counter,
    stale_evictions: Counter,
}

impl ShardMetrics {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            stale_misses: self.stale_misses.get(),
            inserts: self.inserts.get(),
            evictions: self.evictions.get(),
            stale_evictions: self.stale_evictions.get(),
        }
    }
}

/// One independently locked cache segment: a fixed-capacity LRU map.
struct Shard {
    map: rustc_hash::FxHashMap<(VertexId, VertexId), u32>,
    slots: Vec<Slot>,
    /// Most-recently-used slot (NIL when empty).
    head: u32,
    /// Least-recently-used slot (NIL when empty).
    tail: u32,
    capacity: usize,
    stats: ShardMetrics,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: rustc_hash::FxHashMap::default(),
            slots: Vec::with_capacity(capacity.min(1024)),
            head: NIL,
            tail: NIL,
            capacity,
            stats: ShardMetrics::default(),
        }
    }

    /// Unlinks slot `i` from the LRU list (it must be linked).
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Links slot `i` at the most-recently-used end.
    fn link_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[i as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        match old_head {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    fn get(&mut self, key: (VertexId, VertexId), version: u64) -> Option<Dist> {
        match self.map.get(&key).copied() {
            Some(i) if self.slots[i as usize].version == version => {
                self.stats.hits.inc();
                self.touch(i);
                Some(self.slots[i as usize].dist)
            }
            Some(_) => {
                // Cached, but computed against another snapshot: a miss by
                // contract (a hit must never cross a publication boundary).
                self.stats.misses.inc();
                self.stats.stale_misses.inc();
                None
            }
            None => {
                self.stats.misses.inc();
                None
            }
        }
    }

    fn insert(&mut self, key: (VertexId, VertexId), version: u64, dist: Dist) {
        if let Some(&i) = self.map.get(&key) {
            let slot = &mut self.slots[i as usize];
            // A straggler still pinned to an older snapshot must not
            // clobber a fresher entry — the next current-version reader
            // would pay a stale miss for it (and on hot pairs right after a
            // publication the two pins would ping-pong the entry).
            if slot.version > version {
                return;
            }
            // Lazy overwrite: the pair is already cached; replace in place.
            self.stats.inserts.inc();
            if slot.version < version {
                self.stats.stale_evictions.inc();
            }
            slot.version = version;
            slot.dist = dist;
            self.touch(i);
            return;
        }
        self.stats.inserts.inc();
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key,
                version,
                dist,
                prev: NIL,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            // Full: recycle the least-recently-used slot.
            let i = self.tail;
            debug_assert_ne!(i, NIL, "full shard with empty LRU list");
            self.unlink(i);
            let evicted_key = self.slots[i as usize].key;
            self.map.remove(&evicted_key);
            self.stats.evictions.inc();
            let slot = &mut self.slots[i as usize];
            slot.key = key;
            slot.version = version;
            slot.dist = dist;
            i
        };
        self.link_front(i);
        self.map.insert(key, i);
    }
}

/// A sharded, snapshot-versioned, fixed-capacity LRU cache of
/// `d(source, target)` answers. See the [module docs](self) for the design.
///
/// All methods take `&self`; any number of serving threads share one cache.
pub struct DistanceCache {
    shards: Vec<Mutex<Shard>>,
    /// Newest publisher version this cache has heard of (telemetry only —
    /// see the module docs).
    epoch: AtomicU64,
    capacity: usize,
}

impl DistanceCache {
    /// Creates a cache with `config.capacity` total entries spread over
    /// `config.shards` independently locked LRU shards.
    ///
    /// # Panics
    ///
    /// Panics if the per-shard capacity (`capacity / shards`, rounded up)
    /// does not fit the internal 32-bit slot index.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard = (config.capacity.max(1)).div_ceil(shards);
        // Slot indices are u32 with u32::MAX as the list sentinel; a larger
        // shard would corrupt the LRU links silently, so refuse it loudly.
        assert!(
            per_shard < u32::MAX as usize,
            "cache shard capacity {per_shard} exceeds the 32-bit slot index \
             (raise `shards` or lower `capacity`)"
        );
        DistanceCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            epoch: AtomicU64::new(0),
            capacity: per_shard * shards,
        }
    }

    #[inline]
    fn shard(&self, key: (VertexId, VertexId)) -> &Mutex<Shard> {
        let mut h = rustc_hash::FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `d(s, t)` as computed against publisher version `version`.
    ///
    /// Returns `Some` only when the cached entry was inserted at exactly
    /// that version — an entry from any other snapshot is reported as a
    /// (stale) miss, so a hit can never cross a publication boundary.
    pub fn get(&self, s: VertexId, t: VertexId, version: u64) -> Option<Dist> {
        self.shard((s, t))
            .lock()
            .expect("cache shard poisoned")
            .get((s, t), version)
    }

    /// Caches `d(s, t) = dist` as computed against publisher version
    /// `version`, overwriting any same-or-older entry for the pair (stale
    /// entries are reclaimed here, lazily) and evicting the shard's LRU
    /// entry when full. An insert from a reader pinned to an *older*
    /// version than the cached entry's is dropped — stragglers never
    /// clobber fresher answers.
    pub fn insert(&self, s: VertexId, t: VertexId, version: u64, dist: Dist) {
        self.shard((s, t))
            .lock()
            .expect("cache shard poisoned")
            .insert((s, t), version, dist);
    }

    /// Folds a publication into the cache's epoch (monotonic `max`, so
    /// out-of-order delivery from racing publishers is harmless). Wired to
    /// [`SnapshotPublisher::on_publish`](htsp_graph::SnapshotPublisher::on_publish)
    /// by the `RoadNetworkServer`.
    pub fn bump_epoch(&self, version: u64) {
        self.epoch.fetch_max(version, Ordering::AcqRel);
    }

    /// The newest publisher version the cache has heard of.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Total entry capacity (rounded up to a multiple of the shard count).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of independently locked shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Entries currently cached (fresh and stale alike).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Telemetry folded over all shards.
    pub fn stats(&self) -> CacheStats {
        self.per_shard_stats()
            .into_iter()
            .fold(CacheStats::default(), CacheStats::plus)
    }

    /// Telemetry per shard (index = shard), for spotting skew hot-spots.
    pub fn per_shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").stats.snapshot())
            .collect()
    }

    /// Adopts every shard's counters into `hub` as labeled
    /// `htsp_cache_*_total{shard="i"}` series. The handles are shared, not
    /// copied: the registry and [`DistanceCache::stats`] read the same
    /// atomics, so there is one source of truth for cache telemetry.
    pub fn register_metrics(&self, hub: &TelemetryHub) {
        for (i, shard) in self.shards.iter().enumerate() {
            let m = shard.lock().expect("cache shard poisoned").stats.clone();
            let shard_label = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", &shard_label)];
            hub.register_counter("htsp_cache_hits_total", labels, &m.hits);
            hub.register_counter("htsp_cache_misses_total", labels, &m.misses);
            hub.register_counter("htsp_cache_stale_misses_total", labels, &m.stale_misses);
            hub.register_counter("htsp_cache_inserts_total", labels, &m.inserts);
            hub.register_counter("htsp_cache_evictions_total", labels, &m.evictions);
            hub.register_counter(
                "htsp_cache_stale_evictions_total",
                labels,
                &m.stale_evictions,
            );
        }
    }
}

impl std::fmt::Debug for DistanceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("epoch", &self.epoch())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A [`QuerySession`] wrapper that consults a [`DistanceCache`] before (and
/// feeds it after) every search of the wrapped session.
///
/// The wrapper is pinned to the snapshot `version` of the session it wraps:
/// lookups and inserts both carry that version, so a cached answer is
/// exactly what the wrapped session would have computed — serving through a
/// `CachedSession` never changes an answer, only its cost. Batch workloads
/// are split pair-wise: cached pairs are answered from the cache and only
/// the *missing* targets of a one-to-many fan reach the session's shared
/// search.
pub struct CachedSession<'a> {
    inner: Box<dyn QuerySession + 'a>,
    cache: &'a DistanceCache,
    version: u64,
}

impl<'a> CachedSession<'a> {
    /// Wraps `inner` (pinned to publisher version `version`) around `cache`.
    pub fn new(inner: Box<dyn QuerySession + 'a>, cache: &'a DistanceCache, version: u64) -> Self {
        CachedSession {
            inner,
            cache,
            version,
        }
    }
}

impl QuerySession for CachedSession<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        if let Some(d) = self.cache.get(s, t, self.version) {
            return d;
        }
        let d = self.inner.distance(s, t);
        self.cache.insert(s, t, self.version, d);
        d
    }

    fn one_to_many(&mut self, source: VertexId, targets: &[VertexId]) -> Vec<Dist> {
        // Answer cached pairs up front; run one shared search over the rest.
        let mut out = vec![Dist::ZERO; targets.len()];
        let mut missing = Vec::new();
        let mut missing_at = Vec::new();
        for (i, &t) in targets.iter().enumerate() {
            match self.cache.get(source, t, self.version) {
                Some(d) => out[i] = d,
                None => {
                    missing.push(t);
                    missing_at.push(i);
                }
            }
        }
        if !missing.is_empty() {
            let ds = self.inner.one_to_many(source, &missing);
            for ((&t, &i), &d) in missing.iter().zip(&missing_at).zip(&ds) {
                self.cache.insert(source, t, self.version, d);
                out[i] = d;
            }
        }
        out
    }

    fn matrix(&mut self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Vec<Dist>> {
        sources
            .iter()
            .map(|&s| self.one_to_many(s, targets))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::FallbackSession;
    use htsp_graph::{Graph, GraphBuilder, QueryView};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn hit_miss_and_versioning() {
        let cache = DistanceCache::new(CacheConfig {
            capacity: 64,
            shards: 4,
        });
        assert_eq!(cache.get(v(1), v(2), 0), None);
        cache.insert(v(1), v(2), 0, Dist(5));
        assert_eq!(cache.get(v(1), v(2), 0), Some(Dist(5)));
        // Same pair, different reader version: stale miss, not a hit.
        assert_eq!(cache.get(v(1), v(2), 1), None);
        // Direction matters: (2, 1) is a different key.
        assert_eq!(cache.get(v(2), v(1), 0), None);
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.stale_misses, 1);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.hit_rate(), 0.25);
        assert_eq!(s.lookups(), 4);
    }

    #[test]
    fn stale_entries_are_lazily_overwritten() {
        let cache = DistanceCache::new(CacheConfig {
            capacity: 8,
            shards: 1,
        });
        cache.insert(v(1), v(2), 0, Dist(5));
        cache.bump_epoch(1);
        assert_eq!(cache.epoch(), 1);
        cache.insert(v(1), v(2), 1, Dist(9));
        assert_eq!(cache.len(), 1, "overwrite must not grow the cache");
        assert_eq!(cache.get(v(1), v(2), 1), Some(Dist(9)));
        assert_eq!(cache.get(v(1), v(2), 0), None, "old version gone");
        assert_eq!(cache.stats().stale_evictions, 1);
        // Epoch folds monotonically: an out-of-order event cannot regress it.
        cache.bump_epoch(0);
        assert_eq!(cache.epoch(), 1);
    }

    #[test]
    fn straggler_inserts_never_clobber_fresher_entries() {
        let cache = DistanceCache::new(CacheConfig {
            capacity: 8,
            shards: 1,
        });
        cache.insert(v(1), v(2), 5, Dist(50));
        // A reader still pinned to version 4 recomputes the pair on its old
        // snapshot; its insert must be dropped.
        cache.insert(v(1), v(2), 4, Dist(40));
        assert_eq!(cache.get(v(1), v(2), 5), Some(Dist(50)));
        let s = cache.stats();
        assert_eq!(s.inserts, 1, "the straggler insert must not count");
        assert_eq!(s.stale_evictions, 0);
        // The same-version overwrite path still works.
        cache.insert(v(1), v(2), 5, Dist(51));
        assert_eq!(cache.get(v(1), v(2), 5), Some(Dist(51)));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = DistanceCache::new(CacheConfig {
            capacity: 3,
            shards: 1,
        });
        cache.insert(v(0), v(1), 0, Dist(1));
        cache.insert(v(0), v(2), 0, Dist(2));
        cache.insert(v(0), v(3), 0, Dist(3));
        // Touch (0,1) so (0,2) becomes the LRU entry.
        assert_eq!(cache.get(v(0), v(1), 0), Some(Dist(1)));
        cache.insert(v(0), v(4), 0, Dist(4));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(v(0), v(2), 0), None, "LRU entry must be gone");
        assert_eq!(cache.get(v(0), v(1), 0), Some(Dist(1)));
        assert_eq!(cache.get(v(0), v(3), 0), Some(Dist(3)));
        assert_eq!(cache.get(v(0), v(4), 0), Some(Dist(4)));
    }

    #[test]
    fn capacity_rounds_up_to_shards_and_shards_isolate() {
        let cache = DistanceCache::new(CacheConfig {
            capacity: 10,
            shards: 4,
        });
        assert_eq!(cache.num_shards(), 4);
        assert_eq!(cache.capacity(), 12);
        // Many inserts across shards never exceed capacity.
        for i in 0..100u32 {
            cache.insert(v(i), v(i + 1), 0, Dist(i));
        }
        assert!(cache.len() <= cache.capacity());
        assert_eq!(cache.per_shard_stats().len(), 4);
        assert_eq!(
            cache
                .per_shard_stats()
                .into_iter()
                .fold(CacheStats::default(), CacheStats::plus),
            cache.stats()
        );
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        let cache = DistanceCache::new(CacheConfig {
            capacity: 256,
            shards: 8,
        });
        std::thread::scope(|scope| {
            for w in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    // 7 × 11 = 77 distinct keys, well under capacity, so
                    // repeats must hit.
                    for i in 0..500u32 {
                        let (s, t) = (v(i % 7), v((i * 3 + w) % 11));
                        if cache.get(s, t, 2).is_none() {
                            cache.insert(s, t, 2, Dist(s.0 + t.0));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 2000);
        assert!(stats.hits > 0);
        // Every cached answer is version-consistent.
        for i in 0..7 {
            for j in 0..11 {
                if let Some(d) = cache.get(v(i), v(j), 2) {
                    assert_eq!(d, Dist(i + j));
                }
            }
        }
    }

    /// A view that counts how many distance computations reach it.
    struct Counting {
        graph: Graph,
        calls: AtomicU64,
    }

    impl QueryView for Counting {
        fn algorithm(&self) -> &'static str {
            "counting"
        }
        fn stage(&self) -> usize {
            0
        }
        fn distance(&self, s: VertexId, t: VertexId) -> Dist {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Dist(s.0 * 100 + t.0)
        }
        fn session(&self) -> Box<dyn QuerySession + '_> {
            Box::new(FallbackSession::new(self))
        }
        fn graph(&self) -> &Graph {
            &self.graph
        }
    }

    fn counting_view() -> Counting {
        let mut b = GraphBuilder::new(8);
        b.add_edge(v(0), v(1), 1);
        Counting {
            graph: b.build(),
            calls: AtomicU64::new(0),
        }
    }

    #[test]
    fn cached_session_short_circuits_repeats_without_changing_answers() {
        let view = counting_view();
        let cache = DistanceCache::new(CacheConfig {
            capacity: 64,
            shards: 2,
        });
        let mut session = CachedSession::new(view.session(), &cache, 7);
        assert_eq!(session.distance(v(1), v(2)), Dist(102));
        assert_eq!(session.distance(v(1), v(2)), Dist(102));
        assert_eq!(session.distance(v(1), v(2)), Dist(102));
        assert_eq!(view.calls.load(Ordering::Relaxed), 1, "repeats must hit");
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn cached_session_fans_only_the_missing_targets() {
        let view = counting_view();
        let cache = DistanceCache::new(CacheConfig {
            capacity: 64,
            shards: 2,
        });
        let mut session = CachedSession::new(view.session(), &cache, 1);
        // Pre-warm two of four targets.
        session.distance(v(5), v(1));
        session.distance(v(5), v(3));
        let before = view.calls.load(Ordering::Relaxed);
        let ds = session.one_to_many(v(5), &[v(0), v(1), v(2), v(3)]);
        assert_eq!(ds, vec![Dist(500), Dist(501), Dist(502), Dist(503)]);
        assert_eq!(
            view.calls.load(Ordering::Relaxed) - before,
            2,
            "only the two cold targets may reach the view"
        );
        // Matrix goes through the same pair-wise path.
        let m = session.matrix(&[v(5)], &[v(0), v(1), v(2), v(3)]);
        assert_eq!(m[0], vec![Dist(500), Dist(501), Dist(502), Dist(503)]);
        assert_eq!(view.calls.load(Ordering::Relaxed) - before, 2);
    }

    #[test]
    fn stats_since_subtracts() {
        let a = CacheStats {
            hits: 10,
            misses: 6,
            stale_misses: 2,
            inserts: 6,
            evictions: 1,
            stale_evictions: 1,
        };
        let b = CacheStats {
            hits: 4,
            misses: 2,
            stale_misses: 1,
            inserts: 2,
            evictions: 0,
            stale_evictions: 1,
        };
        let d = a.since(b);
        assert_eq!(d.hits, 6);
        assert_eq!(d.misses, 4);
        assert_eq!(d.stale_misses, 1);
        assert_eq!(d.inserts, 4);
        assert_eq!(d.evictions, 1);
        assert_eq!(d.stale_evictions, 0);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
