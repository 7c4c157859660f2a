//! What the bench-supplied handlers write and the harness reads: per
//! (raise id, recipient) invocation counts for the exactly-once oracle,
//! and handler entry/exit times on the bench epoch for latency and spans.
//!
//! Every raise carries a 16-byte header in its payload — its id and the
//! time it was due, both on the harness's clock — so the handler on the
//! target node can say which raise it ran for and how long it took to
//! get there without the program knowing it is being measured.

use doct_kernel::{Bytes, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Bytes of payload the harness owns: raise id then due time, both LE u64.
pub const HEADER_LEN: usize = 16;

/// Build one raise's payload: the header followed by the workload's
/// seeded filler (`template` is at least [`HEADER_LEN`] long).
pub fn payload(template: &[u8], id: u64, due_ns: u64) -> Value {
    let mut buf = template.to_vec();
    buf[..8].copy_from_slice(&id.to_le_bytes());
    buf[8..HEADER_LEN].copy_from_slice(&due_ns.to_le_bytes());
    Value::Bytes(Bytes::from_vec(buf))
}

/// Read the header back out of a delivered payload.
pub fn header(payload: &Value) -> Option<(u64, u64)> {
    let bytes = payload.as_bytes()?;
    let id = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);
    let due_ns = u64::from_le_bytes(bytes.get(8..HEADER_LEN)?.try_into().ok()?);
    Some((id, due_ns))
}

const CHUNK_BITS: u32 = 14;
const CHUNK: usize = 1 << CHUNK_BITS;

/// A table of atomics indexed by slot, allocated a chunk at a time on
/// first write, so memory follows the raises actually issued and the
/// harness's share of `peak_rss_mb` stays small and proportional.
pub struct LazyTable<A> {
    chunks: Vec<OnceLock<Box<[A]>>>,
}

impl<A: Default> LazyTable<A> {
    /// A table addressing up to `max_slots` slots.
    pub fn new(max_slots: u64) -> Self {
        let chunks = (max_slots as usize).div_ceil(CHUNK);
        LazyTable {
            chunks: (0..chunks).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The slot for writing; `None` past the table's end.
    pub fn slot(&self, i: u64) -> Option<&A> {
        let chunk = self.chunks.get((i >> CHUNK_BITS) as usize)?;
        let cells = chunk.get_or_init(|| (0..CHUNK).map(|_| A::default()).collect());
        cells.get(i as usize & (CHUNK - 1))
    }

    /// The slot for reading; `None` if never written (or past the end).
    pub fn peek(&self, i: u64) -> Option<&A> {
        self.chunks
            .get((i >> CHUNK_BITS) as usize)?
            .get()?
            .get(i as usize & (CHUNK - 1))
    }
}

/// A fault the self-test seeds into the harness's own recording, to show
/// the oracle would catch the program doing the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordFault {
    /// Pretend the handler for this raise id never ran.
    DropHit(u64),
    /// Pretend the handler for this raise id ran twice.
    DoubleHit(u64),
}

/// Shared between the harness and every bench handler.
pub struct Recorder {
    epoch: Instant,
    recipients: u64,
    hits: LazyTable<AtomicU8>,
    start_ns: LazyTable<AtomicU64>,
    end_ns: LazyTable<AtomicU64>,
    handled: AtomicU64,
    malformed: AtomicU64,
    /// Raise ids in `timed_from..timed_to` that are multiples of
    /// `sample_every` get their handler times recorded.
    timed_from: AtomicU64,
    timed_to: AtomicU64,
    sample_every: u64,
    record_exit: AtomicBool,
    fault: Option<RecordFault>,
}

impl Recorder {
    /// A recorder for raises with `recipients` handler invocations each,
    /// able to time every `sample_every`-th raise id.
    pub fn new(recipients: u64, sample_every: u64, fault: Option<RecordFault>) -> Self {
        // 2^27 slots of address space (8 M raises at 16 recipients);
        // chunks are allocated on first use.
        let max_slots = 1 << 27;
        Recorder {
            epoch: Instant::now(),
            recipients,
            hits: LazyTable::new(max_slots),
            start_ns: LazyTable::new(max_slots),
            end_ns: LazyTable::new(max_slots),
            handled: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            timed_from: AtomicU64::new(0),
            timed_to: AtomicU64::new(0),
            sample_every: sample_every.max(1),
            record_exit: AtomicBool::new(false),
            fault,
        }
    }

    /// Nanoseconds since the bench epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Recipients per raise.
    pub fn recipients(&self) -> u64 {
        self.recipients
    }

    /// Time handler entry for the sampled raise ids in `from..to`; with
    /// `exits`, handler exit too (the traced run).
    pub fn set_timed(&self, from: u64, to: u64, exits: bool) {
        // Relaxed: these publish no other data; a handler that reads the
        // old window for a raise straddling the switch only skips a sample.
        self.timed_from.store(from, Ordering::Relaxed);
        self.timed_to.store(to, Ordering::Relaxed);
        self.record_exit.store(exits, Ordering::Relaxed);
    }

    /// Whether raise `id` is one whose handler times are recorded.
    pub fn is_timed(&self, id: u64) -> bool {
        id >= self.timed_from.load(Ordering::Relaxed)
            && id < self.timed_to.load(Ordering::Relaxed)
            && id.is_multiple_of(self.sample_every)
    }

    fn slot_of(&self, id: u64, member: u64) -> u64 {
        id * self.recipients + member
    }

    /// Times are kept for sampled ids only, so their table is indexed by
    /// sample number: memory follows the samples, not the raises.
    fn time_slot_of(&self, id: u64, member: u64) -> u64 {
        id / self.sample_every * self.recipients + member
    }

    /// Called first thing in a bench handler: counts the invocation and,
    /// for timed raises, stamps the entry time.
    pub fn enter(&self, payload: &Value, member: u64) -> Option<u64> {
        let Some((id, _due)) = header(payload) else {
            self.malformed.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let slot = self.slot_of(id, member);
        if self.is_timed(id) {
            if let Some(cell) = self.start_ns.slot(self.time_slot_of(id, member)) {
                cell.store(self.now_ns(), Ordering::Relaxed);
            }
        }
        let count = match self.fault {
            Some(RecordFault::DropHit(f)) if f == id => 0,
            Some(RecordFault::DoubleHit(f)) if f == id => 2,
            _ => 1,
        };
        if let Some(cell) = self.hits.slot(slot) {
            // Saturating: 255 duplicates and 300 read the same to the oracle.
            let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                Some(h.saturating_add(count))
            });
        }
        // Release pairs with the Acquire in `handled()`: a harness that
        // sees the count also sees the hit and the entry time.
        self.handled.fetch_add(1, Ordering::Release);
        Some(id)
    }

    /// Called last thing in a bench handler (traced runs stamp the exit).
    pub fn exit(&self, id: u64, member: u64) {
        if self.record_exit.load(Ordering::Relaxed) && self.is_timed(id) {
            if let Some(cell) = self.end_ns.slot(self.time_slot_of(id, member)) {
                cell.store(self.now_ns(), Ordering::Relaxed);
            }
        }
    }

    /// Handler invocations so far.
    pub fn handled(&self) -> u64 {
        self.handled.load(Ordering::Acquire)
    }

    /// Deliveries whose payload did not carry a readable header.
    pub fn malformed(&self) -> u64 {
        self.malformed.load(Ordering::Relaxed)
    }

    /// Invocation count for one (raise, recipient).
    pub fn hits(&self, id: u64, member: u64) -> u8 {
        self.hits
            .peek(self.slot_of(id, member))
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Handler entry time for one (raise, recipient); `None` if untimed.
    pub fn started_ns(&self, id: u64, member: u64) -> Option<u64> {
        id.is_multiple_of(self.sample_every)
            .then(|| nonzero(self.start_ns.peek(self.time_slot_of(id, member))))
            .flatten()
    }

    /// Handler exit time for one (raise, recipient); `None` if untimed.
    pub fn ended_ns(&self, id: u64, member: u64) -> Option<u64> {
        id.is_multiple_of(self.sample_every)
            .then(|| nonzero(self.end_ns.peek(self.time_slot_of(id, member))))
            .flatten()
    }
}

fn nonzero(cell: Option<&AtomicU64>) -> Option<u64> {
    cell.map(|c| c.load(Ordering::Relaxed)).filter(|&t| t != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_and_rejects_short_payloads() {
        let template = vec![0xAB; 64];
        let p = payload(&template, 7, 123_456);
        assert_eq!(header(&p), Some((7, 123_456)));
        assert_eq!(p.as_bytes().map(<[u8]>::len), Some(64));
        assert_eq!(p.as_bytes().map(|b| b[HEADER_LEN]), Some(0xAB));
        assert_eq!(header(&Value::Null), None);
        assert_eq!(header(&Value::from(vec![1u8; 15])), None);
    }

    #[test]
    fn lazy_table_allocates_on_write_only() {
        let t: LazyTable<AtomicU8> = LazyTable::new(1 << 20);
        assert!(t.peek(5).is_none(), "nothing allocated yet");
        t.slot(5).expect("in range").store(9, Ordering::Relaxed);
        assert_eq!(t.peek(5).map(|c| c.load(Ordering::Relaxed)), Some(9));
        assert_eq!(t.peek(6).map(|c| c.load(Ordering::Relaxed)), Some(0));
        assert!(t.peek(CHUNK as u64).is_none(), "next chunk untouched");
        assert!(t.slot(1 << 21).is_none(), "past the end");
    }

    #[test]
    fn recorder_counts_per_recipient_and_times_the_window() {
        let rec = Recorder::new(2, 2, None);
        rec.set_timed(10, 20, true);
        let template = vec![0u8; 32];
        for id in [9u64, 10, 11, 12] {
            for member in 0..2 {
                let got = rec.enter(&payload(&template, id, 0), member);
                assert_eq!(got, Some(id));
                rec.exit(id, member);
            }
        }
        assert_eq!(rec.handled(), 8);
        assert_eq!(rec.hits(10, 1), 1);
        assert_eq!(rec.hits(13, 0), 0);
        assert!(rec.started_ns(9, 0).is_none(), "before the window");
        assert!(rec.started_ns(11, 0).is_none(), "not a sampled id");
        let (s, e) = (rec.started_ns(12, 1), rec.ended_ns(12, 1));
        assert!(s.is_some() && e >= s, "{s:?} {e:?}");
        assert_eq!(rec.enter(&Value::Null, 0), None);
        assert_eq!(rec.malformed(), 1);
    }

    #[test]
    fn seeded_faults_change_the_counts() {
        let template = vec![0u8; 16];
        let drop = Recorder::new(1, 1, Some(RecordFault::DropHit(3)));
        let dup = Recorder::new(1, 1, Some(RecordFault::DoubleHit(3)));
        for id in 0..5 {
            drop.enter(&payload(&template, id, 0), 0);
            dup.enter(&payload(&template, id, 0), 0);
        }
        assert_eq!((drop.hits(3, 0), drop.hits(4, 0)), (0, 1));
        assert_eq!((dup.hits(3, 0), dup.hits(2, 0)), (2, 1));
    }
}
