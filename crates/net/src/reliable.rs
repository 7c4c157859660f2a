//! Acknowledged, retried transport: the reliability layer under the
//! kernel's remote paths.
//!
//! When enabled (see `Network::enable_reliability`), every unicast send
//! is stamped with a cluster-unique non-zero sequence number and tracked
//! in a retransmit queue. Delivery into the destination mailbox generates
//! a (simulated) acknowledgement that retires the entry — but only if the
//! reverse link is up when the ack is flushed, so a one-way partition
//! loses ACKs exactly like a real network. Unacked entries are retransmitted
//! with exponential backoff plus seeded jitter until `max_retries`
//! attempts, after which the entry is abandoned (`net.giveups`) and the
//! failure detector is told. The receiver deduplicates by sequence
//! number, so retried traffic stays exactly-once from the kernel's point
//! of view.
//!
//! # Batched fan-out
//!
//! Co-destined payloads coalesce in a per-(src, dst) accumulation buffer
//! and cross the wire as one [`BatchEnvelope`] of up to `batch_max`
//! payloads (`batch_max = 1` is the no-batching ablation: every payload
//! seals alone, through the same slot code) under one sequence number — one tracked entry, one
//! retransmission unit, one dedupe decision. A buffer with no flush
//! deadline pending flushes immediately (so singleton sends pay zero
//! added latency); a deadline only exists while a *response window* is
//! armed — when a batch is delivered, the reverse direction expects that
//! many responses and holds them for up to `batch_deadline` (or until
//! they all arrive) so receipts ride back coalesced too. Acks are
//! cumulative: delivered seqs buffer per direction and one flush retires
//! every contiguous run with a single ack message (`net.acks_coalesced`
//! counts the savings).

use crate::envelope::Transfer;
use crate::pool::BufferPool;
use crate::{BatchEnvelope, Envelope, MessageClass, NetStats, NodeId};
use parking_lot::{Condvar, Mutex};
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Domain tag for the retransmit-jitter RNG stream (see `crate::seed`).
const JITTER_RNG_DOMAIN: u64 = 0x6A69_7474; // "jitt"

/// Knobs for the ack/retransmit machinery and its maintenance thread.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityConfig {
    /// Retransmit attempts before giving an envelope up for lost.
    pub max_retries: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Uniform jitter added to each backoff, de-synchronising storms.
    /// Sampled from the seeded fabric RNG so the chaos soak replays.
    pub jitter: Duration,
    /// Maintenance thread tick: the *longest* the thread sleeps between
    /// scans. It wakes earlier whenever a retransmit deadline, a batch
    /// flush window, or a pending ack is due sooner.
    pub tick: Duration,
    /// Gap between heartbeat rounds of the failure detector.
    pub heartbeat_interval: Duration,
    /// Per-(src,dst) seqs remembered for dedupe; older seqs fall out and
    /// would be re-delivered, so this must exceed the retransmit window.
    /// Enforced by [`ReliabilityConfig::validate`] at enable time.
    pub dedupe_window: usize,
    /// Most payloads per sealed [`BatchEnvelope`] (the size flush
    /// threshold). `1` switches coalescing off: every payload crosses
    /// the wire alone.
    pub batch_max: usize,
    /// How long a response window holds payloads before the deadline
    /// flush. Only armed traffic waits; singleton sends with no window
    /// pending always flush immediately.
    pub batch_deadline: Duration,
    /// Explicit seed for the jitter RNG; `None` derives one from the
    /// session seed (see `crate::seed`), keeping retransmit ordering
    /// reproducible.
    pub rng_seed: Option<u64>,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            jitter: Duration::from_millis(5),
            tick: Duration::from_millis(5),
            heartbeat_interval: Duration::from_millis(20),
            dedupe_window: 1024,
            batch_max: 32,
            batch_deadline: Duration::from_millis(1),
            rng_seed: None,
        }
    }
}

impl ReliabilityConfig {
    /// Check the config for footguns. The fabric refuses to enable
    /// reliability on an invalid config instead of silently risking
    /// duplicate delivery.
    ///
    /// # Errors
    ///
    /// A static description of the first violated constraint:
    /// `dedupe_window` must cover the retransmit window (at least
    /// `4 * (max_retries + 1)` seqs) and at least `4 * batch_max`;
    /// `batch_max` must be non-zero.
    pub fn validate(&self) -> Result<(), &'static str> {
        let retransmit_floor = 4 * (self.max_retries as usize + 1);
        if self.dedupe_window < retransmit_floor {
            return Err("dedupe_window is smaller than the retransmit window \
                 (need at least 4 * (max_retries + 1)): late retransmissions \
                 of an evicted seq would be re-delivered");
        }
        if self.batch_max == 0 {
            return Err("batch_max must be at least 1");
        }
        if self.dedupe_window < 4 * self.batch_max {
            return Err("dedupe_window must be at least 4 * batch_max: a burst of \
                 max-fill batches would evict seqs still in the \
                 retransmit window");
        }
        Ok(())
    }
}

/// An unacknowledged transfer awaiting (re)transmission.
struct Inflight<M> {
    transfer: Transfer<M>,
    attempts: u32,
    backoff: Duration,
    next_retry: Instant,
    first_sent: Instant,
}

/// Seqs already delivered for one (src, dst) direction: a ring plus a
/// set for O(1) membership. Bounded; the window must outlast the longest
/// retransmit tail (checked by [`ReliabilityConfig::validate`]).
#[derive(Default)]
struct SeenWindow {
    order: VecDeque<u64>,
    members: HashSet<u64>,
}

impl SeenWindow {
    /// Record `seq`; returns `false` (duplicate) if already present.
    fn insert(&mut self, seq: u64, cap: usize) -> bool {
        if !self.members.insert(seq) {
            return false;
        }
        self.order.push_back(seq);
        while self.order.len() > cap {
            if let Some(old) = self.order.pop_front() {
                self.members.remove(&old);
            }
        }
        true
    }

    fn remove(&mut self, seq: u64) {
        if self.members.remove(&seq) {
            self.order.retain(|&s| s != seq);
        }
    }
}

/// One direction's accumulation buffer for the batched fan-out path.
struct BatchSlot<M> {
    buf: Vec<(MessageClass, M)>,
    /// Deadline of the armed response window, if any. While armed,
    /// enqueued payloads wait (for `expect` arrivals or the deadline);
    /// with no window, flushes are immediate.
    window: Option<Instant>,
    /// Payloads the window is waiting for before an early flush.
    expect: usize,
}

impl<M> Default for BatchSlot<M> {
    fn default() -> Self {
        BatchSlot {
            buf: Vec::new(),
            window: None,
            expect: 0,
        }
    }
}

/// Shared state of the reliability layer: the sequence allocator, the
/// retransmit queue, the receiver-side dedupe windows, the batch
/// accumulation slots, and the pending-ack coalescer.
pub(crate) struct ReliableState<M> {
    cfg: ReliabilityConfig,
    next_seq: AtomicU64,
    inflight: Mutex<HashMap<u64, Inflight<M>>>,
    /// Keyed by (src, dst) so each direction dedupes independently.
    seen: Mutex<HashMap<(u32, u32), SeenWindow>>,
    /// Per-direction accumulation buffers.
    slots: Mutex<HashMap<(u32, u32), BatchSlot<M>>>,
    /// Delivered-but-unflushed ack seqs per (src, dst) data direction.
    pending_acks: Mutex<HashMap<(u32, u32), Vec<u64>>>,
    /// Free-list pool for sealed batch chunks (DESIGN.md §3g). Chunks
    /// are taken at seal time and recycled on ACK-retire, give-up, and
    /// delivery-unpack; the free-list mutex is a leaf lock (see
    /// `crate::pool`).
    pool: BufferPool<(MessageClass, M)>,
    /// Seeded jitter RNG: retransmit ordering replays under a fixed
    /// session seed (see `crate::seed`).
    rng: Mutex<rand::rngs::StdRng>,
    /// Wakeup flag + condvar for the maintenance thread: set whenever new
    /// work (a tracked entry, a buffered payload, a pending ack) may move
    /// the earliest deadline forward.
    wake: Mutex<bool>,
    wake_cond: Condvar,
}

impl<M> fmt::Debug for ReliableState<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReliableState")
            .field("cfg", &self.cfg)
            .field("inflight", &self.inflight.lock().len())
            .finish_non_exhaustive()
    }
}

impl<M> ReliableState<M> {
    pub(crate) fn new(cfg: ReliabilityConfig) -> Self {
        let seed = cfg
            .rng_seed
            .unwrap_or_else(|| crate::seed::derived_seed(JITTER_RNG_DOMAIN));
        ReliableState {
            cfg,
            next_seq: AtomicU64::new(1),
            inflight: Mutex::new(HashMap::new()),
            seen: Mutex::new(HashMap::new()),
            slots: Mutex::new(HashMap::new()),
            pending_acks: Mutex::new(HashMap::new()),
            pool: BufferPool::default(),
            rng: Mutex::new(rand::rngs::StdRng::seed_from_u64(seed)),
            wake: Mutex::new(false),
            wake_cond: Condvar::new(),
        }
    }

    /// Envelopes currently awaiting acknowledgement.
    pub(crate) fn inflight_len(&self) -> usize {
        self.inflight.lock().len()
    }

    /// Wake the maintenance thread so it re-derives its sleep deadline.
    pub(crate) fn notify(&self) {
        let mut woken = self.wake.lock();
        *woken = true;
        self.wake_cond.notify_one();
    }

    /// Sleep until `deadline` or an earlier [`ReliableState::notify`].
    pub(crate) fn wait_for_work(&self, deadline: Instant) {
        let mut woken = self.wake.lock();
        if !*woken {
            self.wake_cond.wait_until(&mut woken, deadline);
        }
        *woken = false;
    }

    /// Buffer an ack for the (src → dst) data direction; the maintenance
    /// thread flushes it cumulatively.
    pub(crate) fn note_ack(&self, src: NodeId, dst: NodeId, seq: u64) {
        self.pending_acks
            .lock()
            .entry((src.0, dst.0))
            .or_default()
            .push(seq);
        self.notify();
    }

    /// Whether any buffered acks await a flush.
    pub(crate) fn has_pending_acks(&self) -> bool {
        !self.pending_acks.lock().is_empty()
    }

    /// Flush buffered acks: per data direction, if the reverse link is up
    /// the sorted seqs are grouped into contiguous runs and each run is
    /// retired by one cumulative ack message. A cut reverse link loses
    /// the whole flush (duplicate deliveries will re-buffer them later),
    /// so a one-way partition loses acks like a real network.
    pub(crate) fn flush_acks(&self, link_up: impl Fn(NodeId, NodeId) -> bool, stats: &NetStats) {
        let pending = std::mem::take(&mut *self.pending_acks.lock());
        for ((src, dst), mut seqs) in pending {
            // Acks flow dst → src.
            if !link_up(NodeId(dst), NodeId(src)) {
                continue;
            }
            seqs.sort_unstable();
            seqs.dedup();
            // Retired transfers are collected under the inflight lock and
            // recycled after it drops (pool free-list stays a leaf lock).
            let mut retired = Vec::new();
            {
                let mut inflight = self.inflight.lock();
                let mut run_retired = 0u64;
                let mut prev: Option<u64> = None;
                for seq in seqs {
                    if prev.is_some_and(|p| seq != p + 1) && run_retired > 0 {
                        stats.record_cumulative_ack(run_retired);
                        run_retired = 0;
                    }
                    prev = Some(seq);
                    if let Some(entry) = inflight.remove(&seq) {
                        stats.ack_latency.record(
                            crate::clock::now().saturating_duration_since(entry.first_sent),
                        );
                        run_retired += 1;
                        retired.push(entry.transfer);
                    }
                }
                if run_retired > 0 {
                    stats.record_cumulative_ack(run_retired);
                }
            }
            for transfer in retired {
                self.recycle_transfer(transfer, stats);
            }
        }
    }

    /// Receiver-side dedupe: returns `true` if this (src, dst, seq) is
    /// new and must be delivered, `false` for a retransmitted duplicate.
    /// Batches dedupe on their single batch seq, so a retransmitted batch
    /// is suppressed whole.
    pub(crate) fn first_delivery(&self, src: NodeId, dst: NodeId, seq: u64) -> bool {
        self.seen
            .lock()
            .entry((src.0, dst.0))
            .or_default()
            .insert(seq, self.cfg.dedupe_window)
    }

    /// Roll back a [`ReliableState::first_delivery`] claim whose mailbox
    /// push then failed (dead node), so later retransmissions are not
    /// mistaken for duplicates of a delivery that never happened.
    pub(crate) fn unmark(&self, src: NodeId, dst: NodeId, seq: u64) {
        if let Some(window) = self.seen.lock().get_mut(&(src.0, dst.0)) {
            window.remove(seq);
        }
    }

    /// Remove and return every entry due for retransmission at `now`,
    /// with backoff and attempt counters advanced. Entries that exhausted
    /// their retries are returned separately as given-up.
    pub(crate) fn take_due(&self, now: Instant) -> (Vec<Transfer<M>>, Vec<Transfer<M>>)
    where
        M: Clone,
    {
        let mut due = Vec::new();
        let mut given_up = Vec::new();
        let mut inflight = self.inflight.lock();
        let mut exhausted = Vec::new();
        for (seq, entry) in inflight.iter_mut() {
            if entry.next_retry > now {
                continue;
            }
            if entry.attempts >= self.cfg.max_retries {
                exhausted.push(*seq);
                continue;
            }
            entry.attempts += 1;
            entry.backoff = (entry.backoff * 2).min(self.cfg.max_backoff);
            let jitter_ns = self.cfg.jitter.as_nanos() as u64;
            let jitter = if jitter_ns == 0 {
                Duration::ZERO
            } else {
                Duration::from_nanos(self.rng.lock().gen_range(0..jitter_ns))
            };
            entry.next_retry = now + entry.backoff + jitter;
            due.push(entry.transfer.clone());
        }
        for seq in exhausted {
            if let Some(entry) = inflight.remove(&seq) {
                given_up.push(entry.transfer);
            }
        }
        (due, given_up)
    }

    // ------------------------------------------------------------------
    // Batched fan-out
    // ------------------------------------------------------------------

    /// Append `items` to the (src, dst) accumulation buffer and return
    /// any transfers that must go out now. With no response window armed
    /// the buffer flushes immediately (singleton fast path); an armed
    /// window holds payloads until `expect` arrivals, `batch_max` fill,
    /// or the window deadline (the maintenance thread handles the last).
    pub(crate) fn enqueue(
        &self,
        src: NodeId,
        dst: NodeId,
        items: impl IntoIterator<Item = (MessageClass, M)>,
        now: Instant,
        stats: &NetStats,
    ) -> Vec<Transfer<M>>
    where
        M: Clone,
    {
        let mut slots = self.slots.lock();
        let slot = slots.entry((src.0, dst.0)).or_default();
        slot.buf.extend(items);
        if slot.buf.is_empty() {
            return Vec::new();
        }
        let flush = match slot.window {
            None => true,
            Some(deadline) => {
                now >= deadline
                    || slot.buf.len() >= self.cfg.batch_max
                    || (slot.expect > 0 && slot.buf.len() >= slot.expect)
            }
        };
        if !flush {
            drop(slots);
            // The maintenance thread must wake by the window deadline.
            self.notify();
            return Vec::new();
        }
        let sealed = Self::seal_slot(
            &self.cfg,
            &self.next_seq,
            &self.inflight,
            &self.pool,
            slot,
            src,
            dst,
            stats,
        );
        drop(slots);
        // The sealed transfers are now inflight; their retry deadline may
        // be sooner than the maintenance thread's current sleep target.
        self.notify();
        sealed
    }

    /// Flush every slot whose window deadline has passed (or that holds
    /// payloads with no window — a race leftover), returning the sealed
    /// transfers for transmission. Expired empty windows are disarmed so
    /// later traffic goes back to immediate flushing.
    pub(crate) fn take_due_batches(&self, now: Instant, stats: &NetStats) -> Vec<Transfer<M>>
    where
        M: Clone,
    {
        let mut out = Vec::new();
        let mut slots = self.slots.lock();
        for ((src, dst), slot) in slots.iter_mut() {
            let expired = match slot.window {
                None => true,
                Some(w) => now >= w,
            };
            if !expired {
                continue;
            }
            if slot.buf.is_empty() {
                slot.window = None;
                slot.expect = 0;
                continue;
            }
            out.extend(Self::seal_slot(
                &self.cfg,
                &self.next_seq,
                &self.inflight,
                &self.pool,
                slot,
                NodeId(*src),
                NodeId(*dst),
                stats,
            ));
        }
        out
    }

    /// A batch of `expect` payloads was just delivered src → dst; its
    /// responses (receipts) will flow dst → src shortly. Arm a response
    /// window on that reverse direction so they coalesce instead of going
    /// out one by one.
    pub(crate) fn arm_response_window(
        &self,
        src: NodeId,
        dst: NodeId,
        expect: usize,
        now: Instant,
    ) {
        {
            let mut slots = self.slots.lock();
            let slot = slots.entry((src.0, dst.0)).or_default();
            slot.expect = slot.expect.saturating_add(expect);
            let deadline = now + self.cfg.batch_deadline;
            slot.window = Some(match slot.window {
                Some(w) => w.min(deadline),
                None => deadline,
            });
        }
        self.notify();
    }

    /// Drain the slot into sealed transfers (chunks of at most
    /// `batch_max`), track each for retransmission, and disarm the
    /// window. Single payloads seal as plain envelopes; 2+ as batches.
    /// Chunk buffers come from the pool, so a warm direction seals
    /// without allocating.
    #[allow(clippy::too_many_arguments)]
    fn seal_slot(
        cfg: &ReliabilityConfig,
        next_seq: &AtomicU64,
        inflight: &Mutex<HashMap<u64, Inflight<M>>>,
        pool: &BufferPool<(MessageClass, M)>,
        slot: &mut BatchSlot<M>,
        src: NodeId,
        dst: NodeId,
        stats: &NetStats,
    ) -> Vec<Transfer<M>>
    where
        M: Clone,
    {
        let mut out = Vec::new();
        let now = crate::clock::now();
        while !slot.buf.is_empty() {
            let take = slot.buf.len().min(cfg.batch_max);
            let mut chunk = pool.take(stats);
            chunk.extend(slot.buf.drain(..take));
            let seq = next_seq.fetch_add(1, Ordering::Relaxed);
            let transfer = if chunk.len() == 1 {
                let (class, payload) = chunk.pop().expect("one element");
                // The chunk's capacity goes straight back: the singleton
                // fast path is a take → pop → recycle round trip.
                pool.recycle(chunk, stats);
                Transfer::Single(Envelope {
                    src,
                    dst,
                    class,
                    seq,
                    payload,
                })
            } else {
                stats.record_batch(chunk.len());
                Transfer::Batch(BatchEnvelope {
                    src,
                    dst,
                    seq,
                    payloads: chunk,
                })
            };
            let backoff = cfg.base_backoff;
            inflight.lock().insert(
                seq,
                Inflight {
                    transfer: transfer.clone(),
                    attempts: 0,
                    backoff,
                    next_retry: now + backoff,
                    first_sent: now,
                },
            );
            out.push(transfer);
        }
        slot.window = None;
        slot.expect = 0;
        out
    }

    /// Return a retired transfer's chunk buffer (if it was a batch) to
    /// the pool. Callers own the transfer: the tracked inflight copy
    /// after its ACK or give-up, or the transmitted copy after the
    /// delivery path has drained it — never a copy the retransmit queue
    /// still holds.
    pub(crate) fn recycle_transfer(&self, transfer: Transfer<M>, stats: &NetStats) {
        if let Transfer::Batch(batch) = transfer {
            self.pool.recycle(batch.payloads, stats);
        }
    }

    /// Return a drained chunk buffer to the pool (delivery-unpack path).
    pub(crate) fn recycle_chunk(&self, buf: Vec<(MessageClass, M)>, stats: &NetStats) {
        self.pool.recycle(buf, stats);
    }

    /// The earliest instant at which the maintenance thread has work: the
    /// soonest retransmit deadline or the soonest armed window holding
    /// payloads. `None` when nothing is pending.
    pub(crate) fn earliest_deadline(&self) -> Option<Instant> {
        let mut earliest: Option<Instant> = None;
        {
            let inflight = self.inflight.lock();
            for entry in inflight.values() {
                earliest = Some(match earliest {
                    Some(e) => e.min(entry.next_retry),
                    None => entry.next_retry,
                });
            }
        }
        {
            let slots = self.slots.lock();
            for slot in slots.values() {
                if slot.buf.is_empty() {
                    continue;
                }
                if let Some(w) = slot.window {
                    earliest = Some(match earliest {
                        Some(e) => e.min(w),
                        None => w,
                    });
                }
            }
        }
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(cfg: ReliabilityConfig) -> ReliableState<u32> {
        ReliableState::new(cfg)
    }

    /// Seal one singleton n0 → n1, tracked for retransmission; its seq.
    fn track_one(s: &ReliableState<u32>) -> u64 {
        let item = [(MessageClass::Data, 7u32)];
        let now = crate::clock::now();
        let out = s.enqueue(NodeId(0), NodeId(1), item, now, &NetStats::new());
        out[0].seq()
    }

    #[test]
    fn seqs_are_unique_and_nonzero() {
        let s = state(ReliabilityConfig::default());
        let a = track_one(&s);
        let b = track_one(&s);
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn default_config_and_the_no_batching_ablation_validate() {
        let cfg = ReliabilityConfig::default();
        assert!(cfg.validate().is_ok());
        assert!(cfg.batch_max > 1, "coalescing is on by default");
        let off = ReliabilityConfig {
            batch_max: 1,
            ..cfg
        };
        assert!(off.validate().is_ok());
    }

    #[test]
    fn validate_rejects_undersized_dedupe_window() {
        let cfg = ReliabilityConfig {
            max_retries: 8,
            dedupe_window: 35, // needs 4 * (8 + 1) = 36
            ..Default::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("retransmit window"), "got: {err}");
    }

    #[test]
    fn validate_rejects_batching_footguns() {
        let cfg = ReliabilityConfig {
            batch_max: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ReliabilityConfig {
            max_retries: 2,
            batch_max: 64,
            dedupe_window: 128, // needs 4 * 64 = 256
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn ack_retires_inflight_and_records_latency() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        let seq = track_one(&s);
        assert_eq!(s.inflight_len(), 1);
        s.note_ack(NodeId(0), NodeId(1), seq);
        s.flush_acks(|_, _| true, &stats);
        assert_eq!(s.inflight_len(), 0);
        assert_eq!(stats.acks.get(), 1);
        assert_eq!(stats.ack_latency.count(), 1);
        // A second ack for the same seq (duplicate delivery) is a no-op.
        s.note_ack(NodeId(0), NodeId(1), seq);
        s.flush_acks(|_, _| true, &stats);
        assert_eq!(stats.acks.get(), 1);
    }

    #[test]
    fn dedupe_window_rejects_repeats_per_direction() {
        let s = state(ReliabilityConfig::default());
        assert!(s.first_delivery(NodeId(0), NodeId(1), 5));
        assert!(!s.first_delivery(NodeId(0), NodeId(1), 5));
        // Same seq on another direction is independent.
        assert!(s.first_delivery(NodeId(1), NodeId(0), 5));
    }

    #[test]
    fn dedupe_window_is_bounded() {
        let cfg = ReliabilityConfig {
            dedupe_window: 4,
            ..Default::default()
        };
        let s = state(cfg);
        for seq in 1..=10u64 {
            assert!(s.first_delivery(NodeId(0), NodeId(1), seq));
        }
        // Seq 1 fell out of the 4-deep window; only recent seqs are held.
        assert!(s.first_delivery(NodeId(0), NodeId(1), 1));
        assert!(!s.first_delivery(NodeId(0), NodeId(1), 10));
    }

    #[test]
    fn take_due_backs_off_exponentially_and_gives_up() {
        let cfg = ReliabilityConfig {
            max_retries: 2,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(400),
            jitter: Duration::ZERO,
            ..Default::default()
        };
        let s = state(cfg);
        let seq = track_one(&s);
        let t0 = crate::clock::now();

        // Not due before base_backoff.
        let (due, gone) = s.take_due(t0);
        assert!(due.is_empty() && gone.is_empty());

        // First retry: backoff doubles to 20ms.
        let (due, _) = s.take_due(t0 + Duration::from_millis(11));
        assert_eq!(due.len(), 1);
        let (due, _) = s.take_due(t0 + Duration::from_millis(12));
        assert!(due.is_empty(), "backoff keeps it out of the next scan");

        // Second (= max) retry, then the entry is abandoned.
        let (due, gone) = s.take_due(t0 + Duration::from_millis(600));
        assert_eq!((due.len(), gone.len()), (1, 0));
        let (due, gone) = s.take_due(t0 + Duration::from_millis(2000));
        assert_eq!((due.len(), gone.len()), (0, 1));
        assert_eq!(gone[0].seq(), seq);
        assert_eq!(s.inflight_len(), 0);
    }

    #[test]
    fn retransmit_jitter_is_deterministic_under_a_fixed_seed() {
        let cfg = ReliabilityConfig {
            jitter: Duration::from_millis(5),
            rng_seed: Some(42),
            ..Default::default()
        };
        let schedule = |cfg: ReliabilityConfig| {
            let s = state(cfg);
            let t0 = crate::clock::now();
            for _ in 0..8 {
                track_one(&s);
            }
            let _ = s.take_due(t0 + Duration::from_secs(1));
            let inflight = s.inflight.lock();
            let mut retries: Vec<Duration> = inflight
                .values()
                .map(|e| e.next_retry - (t0 + Duration::from_secs(1)))
                .collect();
            retries.sort_unstable();
            retries
        };
        assert_eq!(
            schedule(cfg),
            schedule(cfg),
            "same seed must give the same retransmit schedule"
        );
    }

    #[test]
    fn singleton_enqueue_flushes_immediately_with_no_window() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        let out = s.enqueue(
            NodeId(0),
            NodeId(1),
            [(MessageClass::Data, 1u32)],
            crate::clock::now(),
            &stats,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Transfer::Single(_)));
        assert_eq!(s.inflight_len(), 1, "the flush is tracked");
        assert_eq!(stats.batches_sent.get(), 0, "a singleton is not a batch");
    }

    #[test]
    fn enqueue_many_seals_one_batch_under_one_seq() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        let items = (0..5u32).map(|i| (MessageClass::Locate, i));
        let out = s.enqueue(NodeId(0), NodeId(1), items, crate::clock::now(), &stats);
        assert_eq!(out.len(), 1);
        let Transfer::Batch(b) = &out[0] else {
            panic!("expected a batch");
        };
        assert_eq!(b.payloads.len(), 5);
        assert_ne!(b.seq, 0);
        assert_eq!(s.inflight_len(), 1, "one tracked entry for the batch");
        assert_eq!(stats.batches_sent.get(), 1);
        assert_eq!(stats.batch_fill.max_ns(), 5);
    }

    #[test]
    fn oversized_enqueue_chunks_at_batch_max() {
        let cfg = ReliabilityConfig {
            batch_max: 4,
            ..Default::default()
        };
        let s = state(cfg);
        let stats = NetStats::new();
        let items = (0..10u32).map(|i| (MessageClass::Locate, i));
        let out = s.enqueue(NodeId(0), NodeId(1), items, crate::clock::now(), &stats);
        let fills: Vec<usize> = out.iter().map(Transfer::payload_count).collect();
        assert_eq!(fills, [4, 4, 2]);
        assert_eq!(s.inflight_len(), 3);
    }

    #[test]
    fn response_window_buffers_until_expect_then_flushes() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        let now = crate::clock::now();
        s.arm_response_window(NodeId(1), NodeId(0), 3, now);
        // The first two wait; the third completes the expected set.
        for i in 0..2u32 {
            let out = s.enqueue(
                NodeId(1),
                NodeId(0),
                [(MessageClass::Locate, i)],
                now,
                &stats,
            );
            assert!(out.is_empty(), "armed window buffers payload {i}");
        }
        let out = s.enqueue(
            NodeId(1),
            NodeId(0),
            [(MessageClass::Locate, 2u32)],
            now,
            &stats,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload_count(), 3);
        // The window disarmed on flush: the next send is immediate again.
        let out = s.enqueue(
            NodeId(1),
            NodeId(0),
            [(MessageClass::Locate, 9u32)],
            now,
            &stats,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload_count(), 1);
    }

    #[test]
    fn expired_window_flushes_via_maintenance_scan() {
        let cfg = ReliabilityConfig {
            batch_deadline: Duration::from_millis(1),
            ..Default::default()
        };
        let s = state(cfg);
        let stats = NetStats::new();
        let now = crate::clock::now();
        s.arm_response_window(NodeId(1), NodeId(0), 10, now);
        let out = s.enqueue(
            NodeId(1),
            NodeId(0),
            [(MessageClass::Locate, 1u32), (MessageClass::Locate, 2u32)],
            now,
            &stats,
        );
        assert!(out.is_empty(), "short of expect, inside the window");
        assert_eq!(
            s.earliest_deadline(),
            Some(now + Duration::from_millis(1)),
            "the armed window is the earliest deadline"
        );
        let before = s.take_due_batches(now, &stats);
        assert!(before.is_empty(), "window not yet expired");
        let after = s.take_due_batches(now + Duration::from_millis(2), &stats);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].payload_count(), 2);
    }

    #[test]
    fn flush_acks_coalesces_contiguous_runs() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        // Track seqs 1..=5, deliver acks for 1,2,3 and 5 (gap at 4).
        for _ in 0..5 {
            track_one(&s);
        }
        for seq in [1u64, 2, 3, 5] {
            s.note_ack(NodeId(0), NodeId(1), seq);
        }
        assert!(s.has_pending_acks());
        s.flush_acks(|_, _| true, &stats);
        assert!(!s.has_pending_acks());
        assert_eq!(s.inflight_len(), 1, "seq 4 still awaits its ack");
        assert_eq!(stats.acks.get(), 2, "two contiguous runs, two ack messages");
        assert_eq!(stats.acks_coalesced.get(), 2, "run of 3 saved 2 acks");
        assert_eq!(stats.ack_latency.count(), 4, "per-transfer RTTs kept");
    }

    #[test]
    fn flush_acks_loses_the_flush_on_a_cut_reverse_link() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        let seq = track_one(&s);
        s.note_ack(NodeId(0), NodeId(1), seq);
        s.flush_acks(|_, _| false, &stats);
        assert_eq!(s.inflight_len(), 1, "ack lost; entry still inflight");
        assert_eq!(stats.acks.get(), 0);
        assert!(!s.has_pending_acks(), "lost acks are not retried");
        // A later duplicate re-buffers and the healed link retires it.
        s.note_ack(NodeId(0), NodeId(1), seq);
        s.flush_acks(|_, _| true, &stats);
        assert_eq!(s.inflight_len(), 0);
        assert_eq!(stats.acks.get(), 1);
    }

    #[test]
    fn warm_singleton_path_reuses_pooled_chunks() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        for i in 0..100u32 {
            let out = s.enqueue(
                NodeId(0),
                NodeId(1),
                [(MessageClass::Data, i)],
                crate::clock::now(),
                &stats,
            );
            assert_eq!(out.len(), 1);
        }
        assert_eq!(stats.pool_misses.get(), 1, "only the cold start allocates");
        assert_eq!(
            stats.pool_hits.get(),
            99,
            "the warm path runs off the free list"
        );
        assert_eq!(
            stats.pool_recycled.get(),
            100,
            "every singleton chunk round-trips"
        );
    }

    #[test]
    fn recycled_chunk_never_aliases_a_batch_awaiting_ack() {
        let s = state(ReliabilityConfig::default());
        let stats = NetStats::new();
        let now = crate::clock::now();
        // Seal a batch of 1,2,3 toward n1; the tracked inflight copy must
        // survive until its ack even while the transmitted chunk is
        // drained and its buffer recycled.
        let out = s.enqueue(
            NodeId(0),
            NodeId(1),
            (1..=3u32).map(|i| (MessageClass::Locate, i)),
            now,
            &stats,
        );
        let Some(Transfer::Batch(mut batch)) = out.into_iter().next() else {
            panic!("expected one sealed batch");
        };
        let seq = batch.seq;
        // Delivery-unpack: drain the transmitted chunk, recycle its buffer.
        let delivered: Vec<u32> = batch.payloads.drain(..).map(|(_, p)| p).collect();
        assert_eq!(delivered, [1, 2, 3]);
        s.recycle_chunk(batch.payloads, &stats);
        // New traffic reuses the recycled buffer for a different batch.
        let out = s.enqueue(
            NodeId(0),
            NodeId(2),
            (7..=9u32).map(|i| (MessageClass::Locate, i)),
            now,
            &stats,
        );
        assert!(
            stats.pool_hits.get() >= 1,
            "the second seal reuses the buffer"
        );
        drop(out);
        // The first batch's ack never arrived: its retransmit copy must
        // still carry the original payloads, untouched by the reuse.
        let (due, gone) = s.take_due(now + Duration::from_secs(1));
        assert!(gone.is_empty());
        let retx: Vec<u32> = due
            .iter()
            .filter_map(|t| match t {
                Transfer::Batch(b) if b.seq == seq => {
                    Some(b.payloads.iter().map(|(_, p)| *p).collect::<Vec<u32>>())
                }
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(retx, [1, 2, 3], "inflight batch unchanged by pool reuse");
        // Retiring the batch recycles the tracked copy too.
        let recycled_before = stats.pool_recycled.get();
        s.note_ack(NodeId(0), NodeId(1), seq);
        s.flush_acks(|_, _| true, &stats);
        assert_eq!(s.inflight_len(), 1, "only the n2 batch remains tracked");
        assert!(stats.pool_recycled.get() > recycled_before);
    }

    #[test]
    fn earliest_deadline_tracks_the_soonest_retry() {
        let s = state(ReliabilityConfig::default());
        assert_eq!(s.earliest_deadline(), None);
        track_one(&s);
        let d = s.earliest_deadline().expect("one entry pending");
        assert!(d <= crate::clock::now() + ReliabilityConfig::default().base_backoff);
    }
}
