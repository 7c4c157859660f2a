//! A single-owner work queue that idle siblings may steal from.
//!
//! The kernel does not use it: every node runs one kernel loop. The
//! type stays for two callers that test its contract: the benchmark's
//! `steal_queue.*` per-layer drivers, and the `reactor-steal-handoff`
//! schedule model in `crates/analyze`, which checks over every 3-thread
//! interleaving that a front pop and a concurrent back steal hand each
//! item off exactly once, and that the notify-on-empty-transition wake
//! protocol never strands a parked owner.
//!
//! The queue is a plain `Mutex<VecDeque>`; pop takes from the front,
//! steal takes a run from the back, and [`StealQueue::push`] reports
//! whether the queue was empty, so a producer need wake the owner only
//! on that transition.

use parking_lot::Mutex;
use std::collections::VecDeque;

/// A single-owner work queue that idle siblings may steal from.
pub struct StealQueue<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> Default for StealQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> StealQueue<T> {
    /// Fresh, empty queue.
    pub fn new() -> Self {
        StealQueue {
            items: Mutex::new(VecDeque::new()),
        }
    }

    /// Append one item. Returns `true` when the queue was empty before —
    /// the only case where the owner could be parked, so the only case
    /// the producer must wake it (notify-on-empty-transition).
    pub fn push(&self, item: T) -> bool {
        let mut q = self.items.lock();
        let was_empty = q.is_empty();
        q.push_back(item);
        was_empty
    }

    /// Owner-side dequeue from the front.
    pub fn pop(&self) -> Option<T> {
        let mut q = self.items.lock();
        q.pop_front()
    }

    /// Thief-side dequeue: up to `max` items from the *back* (the
    /// youngest work, the least likely to be mid-flight at the owner),
    /// preserving their relative order.
    pub fn steal(&self, max: usize) -> Vec<T> {
        let mut q = self.items.lock();
        let n = q.len().min(max);
        let at = q.len() - n;
        q.split_off(at).into_iter().collect()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// True when the queue holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_reports_the_empty_transition_only() {
        let q = StealQueue::new();
        assert!(q.push(1), "first push finds it empty");
        assert!(!q.push(2), "second push must not re-wake");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.push(3), "empty again after draining");
    }

    #[test]
    fn pop_front_steal_back_never_overlap() {
        let q = StealQueue::new();
        for i in 0..10 {
            let _ = q.push(i);
        }
        let stolen = q.steal(4);
        assert_eq!(stolen, vec![6, 7, 8, 9], "thief takes the youngest run");
        let local: Vec<_> = (0..4).map_while(|_| q.pop()).collect();
        assert_eq!(local, vec![0, 1, 2, 3], "owner keeps FIFO order");
        assert_eq!(q.len(), 2);
        assert_eq!(q.steal(10), vec![4, 5], "steal is bounded by depth");
        assert!(q.is_empty());
        assert!(q.steal(3).is_empty());
        assert_eq!(q.pop(), None);
    }
}
