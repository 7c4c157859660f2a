//! Per-node thread-location hint cache: the last node each thread was
//! observed at, used by the event router to replace a full §7.1 locator
//! wave (broadcast / root-anchored path trace / multicast) with a single
//! unicast probe when the target has not moved since the previous raise.
//!
//! The cache is purely a *hint*: a wrong entry costs one misdirected
//! probe (answered "not here", which invalidates the entry and falls back
//! to the configured [`crate::LocatorStrategy`]). A hinted probe is sent
//! once and never re-sent on a timer: it ends with its receipt, with a
//! failure-detector `Dead` verdict on the hinted node, or with the
//! delivery timeout. The wave re-sends the event only after a "not here"
//! (the hinted node did not admit it) or a `Dead` verdict, so a slow
//! receipt can never deliver the event a second time, however long ago
//! the target's seen ring last saw it.
//!
//! Entries carry a *generation* stamp so that a disproof ("not here")
//! only removes the entry it actually probed: a concurrent delivery that
//! re-learned a fresher location is never clobbered by a stale receipt.

use crate::ThreadId;
use doct_net::NodeId;
use doct_telemetry::{Counter, Registry};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independently locked shards. Raises on different threads hash
/// to different shards, so the read-mostly hot path rarely contends.
const SHARDS: usize = 16;

/// Tuning for the per-node thread-location hint cache
/// ([`crate::KernelConfig::location_cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocationCacheConfig {
    /// Consult the cache before the configured locator strategy.
    pub enabled: bool,
    /// Maximum cached entries across the whole node (LRU beyond this).
    pub capacity: usize,
}

impl Default for LocationCacheConfig {
    fn default() -> Self {
        LocationCacheConfig {
            enabled: true,
            capacity: 4096,
        }
    }
}

impl LocationCacheConfig {
    /// A disabled cache (every raise pays the full locator cost).
    pub fn disabled() -> Self {
        LocationCacheConfig {
            enabled: false,
            ..Self::default()
        }
    }
}

#[derive(Debug)]
struct Entry {
    node: NodeId,
    generation: u64,
    /// LRU clock value of the last lookup or insert (relaxed; approximate
    /// recency is all the eviction policy needs).
    last_used: AtomicU64,
}

/// Sharded, bounded, read-mostly map `ThreadId → (NodeId, generation)`.
///
/// All four `locator.cache_*` telemetry counters live here so hit rates
/// are observable in the same snapshots as the delivery ledger.
#[derive(Debug)]
pub struct LocationCache {
    shards: Vec<RwLock<HashMap<ThreadId, Entry>>>,
    per_shard_cap: usize,
    /// Shared LRU clock and generation source.
    clock: AtomicU64,
    /// Unicast fast paths taken (`locator.cache_hits`).
    pub hits: Counter,
    /// Lookups that found no entry (`locator.cache_misses`).
    pub misses: Counter,
    /// Hints disproved by a "not here" receipt (`locator.cache_stale`).
    pub stale: Counter,
    /// Entries dropped by LRU pressure, explicit invalidation (thread
    /// termination), or a detector-dead hinted node
    /// (`locator.cache_evictions`).
    pub evictions: Counter,
}

impl LocationCache {
    /// Cache with counters bound to `registry`'s `locator.*` series.
    pub fn new(config: LocationCacheConfig, registry: &Registry) -> Self {
        let per_shard_cap = (config.capacity / SHARDS).max(1);
        LocationCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            per_shard_cap,
            clock: AtomicU64::new(1),
            hits: registry.counter("locator.cache_hits"),
            misses: registry.counter("locator.cache_misses"),
            stale: registry.counter("locator.cache_stale"),
            evictions: registry.counter("locator.cache_evictions"),
        }
    }

    fn shard(&self, thread: ThreadId) -> &RwLock<HashMap<ThreadId, Entry>> {
        // ThreadId is (root node, sequence): mix both so threads rooted on
        // one busy node still spread across shards.
        let h = (thread.root.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(thread.seq as u64);
        &self.shards[(h % SHARDS as u64) as usize]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Last known location of `thread`, if cached, with the entry's
    /// generation (pass it back to [`LocationCache::invalidate_stale`] so a
    /// later disproof cannot clobber a fresher entry). Counts a hit or a
    /// miss.
    pub fn lookup(&self, thread: ThreadId) -> Option<(NodeId, u64)> {
        let found = {
            let shard = self.shard(thread).read();
            shard.get(&thread).map(|e| {
                e.last_used.store(self.tick(), Ordering::Relaxed);
                (e.node, e.generation)
            })
        };
        match found {
            Some(hit) => {
                self.hits.inc();
                Some(hit)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Non-counting lookup for diagnostics and tests.
    pub fn peek(&self, thread: ThreadId) -> Option<NodeId> {
        self.shard(thread).read().get(&thread).map(|e| e.node)
    }

    /// Record a confirmed delivery of an event for `thread` at `node`
    /// (from a delivery receipt or anchor confirmation). Overwrites any
    /// previous hint; evicts the least-recently-used entry of the shard
    /// when it is full.
    pub fn record(&self, thread: ThreadId, node: NodeId) {
        let stamp = self.tick();
        let mut shard = self.shard(thread).write();
        if !shard.contains_key(&thread) && shard.len() >= self.per_shard_cap {
            if let Some(&victim) = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(t, _)| t)
            {
                shard.remove(&victim);
                self.evictions.inc();
            }
        }
        shard.insert(
            thread,
            Entry {
                node,
                generation: stamp,
                last_used: AtomicU64::new(stamp),
            },
        );
    }

    /// A hint probe for `thread` came back "not here":
    /// drop the entry — but only if it is still the `generation` that was
    /// probed, so a fresher concurrently-recorded location survives.
    /// Counts `locator.cache_stale`.
    pub fn invalidate_stale(&self, thread: ThreadId, generation: u64) {
        self.stale.inc();
        let mut shard = self.shard(thread).write();
        if shard
            .get(&thread)
            .is_some_and(|e| e.generation == generation)
        {
            shard.remove(&thread);
        }
    }

    /// Drop whatever is cached for `thread` (thread terminated, or its
    /// hinted node was declared dead by the failure detector). Counts an
    /// eviction when an entry existed.
    pub fn invalidate(&self, thread: ThreadId) {
        if self.shard(thread).write().remove(&thread).is_some() {
            self.evictions.inc();
        }
    }

    /// Number of cached entries (diagnostics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doct_telemetry::Registry;

    fn cache(capacity: usize) -> LocationCache {
        LocationCache::new(
            LocationCacheConfig {
                enabled: true,
                capacity,
            },
            &Registry::new(),
        )
    }

    fn t(root: u32, seq: u32) -> ThreadId {
        ThreadId::new(NodeId(root), seq)
    }

    #[test]
    fn lookup_miss_then_hit() {
        let c = cache(64);
        assert_eq!(c.lookup(t(0, 1)), None);
        assert_eq!(c.misses.get(), 1);
        c.record(t(0, 1), NodeId(3));
        let (node, _gen) = c.lookup(t(0, 1)).expect("hit");
        assert_eq!(node, NodeId(3));
        assert_eq!(c.hits.get(), 1);
    }

    #[test]
    fn record_overwrites_with_new_generation() {
        let c = cache(64);
        c.record(t(0, 1), NodeId(1));
        let (_, g1) = c.lookup(t(0, 1)).unwrap();
        c.record(t(0, 1), NodeId(2));
        let (node, g2) = c.lookup(t(0, 1)).unwrap();
        assert_eq!(node, NodeId(2));
        assert!(g2 > g1, "each record gets a fresh generation");
    }

    #[test]
    fn stale_invalidation_respects_generation() {
        let c = cache(64);
        c.record(t(0, 1), NodeId(1));
        let (_, old_gen) = c.lookup(t(0, 1)).unwrap();
        // A fresher location lands before the old hint is disproved.
        c.record(t(0, 1), NodeId(2));
        c.invalidate_stale(t(0, 1), old_gen);
        assert_eq!(
            c.peek(t(0, 1)),
            Some(NodeId(2)),
            "disproof of an old generation must not clobber the fresh entry"
        );
        assert_eq!(c.stale.get(), 1);
        // Disproving the current generation does remove it.
        let (_, cur) = c.lookup(t(0, 1)).unwrap();
        c.invalidate_stale(t(0, 1), cur);
        assert_eq!(c.peek(t(0, 1)), None);
    }

    #[test]
    fn invalidate_counts_only_real_removals() {
        let c = cache(64);
        c.invalidate(t(0, 9));
        assert_eq!(c.evictions.get(), 0);
        c.record(t(0, 9), NodeId(1));
        c.invalidate(t(0, 9));
        assert_eq!(c.evictions.get(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_bounded_by_lru_eviction() {
        // capacity 16 → 1 entry per shard: any second thread landing in
        // an occupied shard evicts the older entry.
        let c = cache(16);
        for seq in 0..200 {
            c.record(t(0, seq), NodeId(1));
        }
        assert!(c.len() <= 16, "len {} exceeds capacity", c.len());
        assert!(c.evictions.get() >= 200 - 16);
    }

    #[test]
    fn lru_keeps_the_recently_used_entry() {
        let c = cache(SHARDS); // one slot per shard
                               // Find two threads that share a shard.
        let a = t(0, 1);
        let mut b = t(0, 2);
        for seq in 2..500 {
            b = t(0, seq);
            if std::ptr::eq(c.shard(a), c.shard(b)) {
                break;
            }
        }
        assert!(std::ptr::eq(c.shard(a), c.shard(b)), "no shard collision");
        c.record(a, NodeId(1));
        c.record(b, NodeId(2)); // evicts a (only slot in the shard)
        assert_eq!(c.peek(a), None);
        assert_eq!(c.peek(b), Some(NodeId(2)));
    }
}
