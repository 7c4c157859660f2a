//! Free-list buffer pool for batch envelopes and probe-wave chunks
//! (DESIGN.md §3g).
//!
//! Every sealed [`crate::BatchEnvelope`] carries a `Vec<(MessageClass,
//! M)>` chunk, and before this pool existed each seal allocated that
//! chunk fresh — one heap allocation per wire message on the
//! warm-unicast fast path. The pool keeps retired chunk allocations on
//! a free list and hands their capacity back out at the next seal, so
//! steady-state traffic allocates nothing.
//!
//! Ownership rules (the part that makes recycling safe):
//!
//! * A chunk may be recycled only by the party that *owns* it — the
//!   delivery path after it has drained a received batch's payloads,
//!   or the reliability layer after an ACK (or give-up) retires the
//!   tracked inflight copy. The transmitted chunk and the tracked
//!   inflight chunk are separate allocations (`Transfer::clone` at
//!   seal time), so recycling one can never alias a batch the
//!   retransmit queue must keep alive until its ACK.
//! * Recycling clears the buffer (dropping its elements) before the
//!   allocation re-enters the free list; a pool hit always observes an
//!   empty, correctly-typed buffer.
//!
//! Lock order: the free-list mutex is a leaf. `take`/`recycle` never
//! call out while holding it (no channel sends, no other locks), so it
//! can be acquired under the per-direction batch-slot lock or the
//! inflight-table lock without creating a lockdep edge cycle.

use crate::stats::NetStats;
use parking_lot::Mutex;

/// Upper bound on retained free buffers: enough for every direction of
/// a large cluster to have a chunk in flight, small enough that an idle
/// pool holds only a few KiB of empty capacity.
const DEFAULT_RETAIN: usize = 64;

/// A free-list pool of `Vec<T>` buffers that recycles capacity instead
/// of reallocating it.
#[derive(Debug)]
pub(crate) struct BufferPool<T> {
    free: Mutex<Vec<Vec<T>>>,
    retain: usize,
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        BufferPool {
            free: Mutex::new(Vec::new()),
            retain: DEFAULT_RETAIN,
        }
    }
}

impl<T> BufferPool<T> {
    /// Take a buffer: a recycled allocation when the free list has one
    /// (a *hit* — no allocation), a fresh empty `Vec` otherwise (a
    /// *miss*; it gains capacity at first use and is recycled later).
    pub(crate) fn take(&self, stats: &NetStats) -> Vec<T> {
        let recycled = self.free.lock().pop();
        match recycled {
            Some(buf) => {
                stats.pool_hits.inc();
                buf
            }
            None => {
                stats.pool_misses.inc();
                Vec::new()
            }
        }
    }

    /// Return a retired buffer to the free list. Elements are dropped
    /// here; only the allocation's capacity survives. Buffers that
    /// never grew (no capacity) and overflow beyond the retention cap
    /// are simply dropped.
    pub(crate) fn recycle(&self, mut buf: Vec<T>, stats: &NetStats) {
        buf.clear();
        if buf.capacity() == 0 {
            return;
        }
        let mut free = self.free.lock();
        if free.len() < self.retain {
            free.push(buf);
            drop(free);
            stats.pool_recycled.inc();
        }
    }

    /// Number of buffers currently on the free list (test hook).
    #[cfg(test)]
    pub(crate) fn free_len(&self) -> usize {
        self.free.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_recycle_then_hit_reuses_capacity() {
        let pool: BufferPool<u32> = BufferPool::default();
        let stats = NetStats::new();
        let mut buf = pool.take(&stats);
        assert_eq!(stats.pool_misses.get(), 1);
        buf.extend([1, 2, 3, 4]);
        let cap = buf.capacity();
        pool.recycle(buf, &stats);
        assert_eq!(stats.pool_recycled.get(), 1);
        assert_eq!(pool.free_len(), 1);
        let again = pool.take(&stats);
        assert_eq!(stats.pool_hits.get(), 1);
        assert!(again.is_empty(), "recycled buffers come back cleared");
        assert_eq!(again.capacity(), cap, "capacity survives the round trip");
    }

    #[test]
    fn capacityless_buffers_are_not_retained() {
        let pool: BufferPool<u32> = BufferPool::default();
        let stats = NetStats::new();
        pool.recycle(Vec::new(), &stats);
        assert_eq!(pool.free_len(), 0);
        assert_eq!(stats.pool_recycled.get(), 0);
    }

    #[test]
    fn retention_is_capped() {
        let pool: BufferPool<u32> = BufferPool::default();
        let stats = NetStats::new();
        for _ in 0..(DEFAULT_RETAIN + 10) {
            pool.recycle(Vec::with_capacity(4), &stats);
        }
        assert_eq!(pool.free_len(), DEFAULT_RETAIN);
        assert_eq!(stats.pool_recycled.get(), DEFAULT_RETAIN as u64);
    }
}
