//! Schedule-exploration model checking for the two lock-light structures
//! the delivery guarantees lean on.
//!
//! Each model is a handful of logical threads, every thread a short
//! script of *atomic steps* (single method calls on the **real**
//! production types — `LocationCache`, `ThreadRegistry`). The explorer
//! enumerates **every** interleaving of those steps (a multinomial count,
//! asserted exactly in tests), replays each schedule against fresh state,
//! and checks the paper-level invariants after every step and at the end:
//!
//! * **generation-checked invalidation** (§7.1 hint cache): a disproof of
//!   an old hint generation never removes a concurrently recorded fresher
//!   location, and a superseded location never "resurrects";
//! * **exactly-once** (§5.2, seen ring): for any delivery seq inside the
//!   dedupe window, exactly one `mark_seen` reports fresh — duplicates
//!   are suppressed on *every* interleaving, with eviction behaviour
//!   matching a sequential reference ring step-for-step;
//! * **typed admission under overload** (bounded mailbox): concurrent
//!   producers flooding a full lane race a consumer draining at delivery
//!   points — every push is Stored or Shed in exact agreement with a
//!   reference occupancy count, control events preempt and pop FIFO, a
//!   stored push always wakes a parked consumer (no lost wakeup), and the
//!   lock-free depth mirror equals the real occupancy after every step;
//! * **steal-handoff exactly-once** (the `StealQueue` contract): an
//!   owner popping its `StealQueue` from the front races a thief stealing
//!   from the back while a producer pushes — no item is handed out twice
//!   or lost, and the notify-on-empty-transition wake protocol never strands
//!   a parked owner;
//! * **single-winner drain** (sharded delivery table, §3f): a raiser
//!   inserting trackers races a receipt-path remove and the shutdown
//!   drain — every tracker is resolved by exactly one party (removed,
//!   drained, or refused-at-insert), so the five-term delivery ledger
//!   cannot double- or zero-count a raise at shutdown.
//!
//! Method granularity is the honest yield-point choice here: both
//! structures confine shared state behind a single internal lock
//! acquisition per operation (verified by lockdep), so any real thread
//! interleaving is equivalent to some serialization of whole calls.

use doct_events::{MarkSeen, ThreadRegistry};
use doct_kernel::{Insert, LocationCache, LocationCacheConfig, ShardedTable, StealQueue, ThreadId};
use doct_net::NodeId;
use doct_telemetry::{Counter, Registry};
use std::collections::VecDeque;

/// Outcome of one model's exhaustive exploration.
#[derive(Debug)]
pub struct ModelReport {
    /// Model name (stable, used in logs).
    pub name: &'static str,
    /// Number of distinct schedules enumerated (the full multinomial).
    pub schedules: u64,
    /// Total atomic steps across the model's threads.
    pub steps: usize,
    /// Invariant violations, each tagged with the schedule that produced
    /// it. Empty means every interleaving preserved every invariant.
    pub violations: Vec<String>,
}

/// Every distinct interleaving of threads with `counts[i]` steps each,
/// as sequences of thread indices.
pub fn interleavings(counts: &[usize]) -> Vec<Vec<usize>> {
    fn rec(remaining: &mut [usize], cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining.iter().all(|&c| c == 0) {
            out.push(cur.clone());
            return;
        }
        for t in 0..remaining.len() {
            if remaining[t] > 0 {
                remaining[t] -= 1;
                cur.push(t);
                rec(remaining, cur, out);
                cur.pop();
                remaining[t] += 1;
            }
        }
    }
    let mut counts = counts.to_vec();
    let mut out = Vec::new();
    rec(&mut counts, &mut Vec::new(), &mut out);
    out
}

/// n! / (c0! · c1! · …) — the exact number of interleavings.
pub fn multinomial(counts: &[usize]) -> u64 {
    let total: usize = counts.iter().sum();
    let mut result = 1u64;
    let mut denom_pool: Vec<usize> = Vec::new();
    for &c in counts {
        for k in 1..=c {
            denom_pool.push(k);
        }
    }
    let mut denoms = denom_pool.into_iter();
    for n in 1..=total {
        result *= n as u64;
        // Divide eagerly to keep intermediate values small.
        if let Some(d) = denoms.next() {
            result /= d as u64;
        }
    }
    for d in denoms {
        result /= d as u64;
    }
    result
}

fn fresh_cache() -> LocationCache {
    LocationCache::new(
        LocationCacheConfig {
            enabled: true,
            capacity: 64,
        },
        &Registry::new(),
    )
}

/// §7.1 hint cache: a thread last seen at node A migrates to node B. A
/// late disproof of the *old* hint ("not here" from A) races the fresh
/// record from B's delivery receipt, while a reader keeps looking up.
///
/// Threads (steps):
/// * T0 — the stale wave: `lookup` (capturing the generation it probed),
///   then `invalidate_stale` with that generation.
/// * T1 — the fresh receipt: `record(thread, B)`.
/// * T2 — a reader: two `lookup`s.
///
/// Invariants, on every one of the 5!/(2!·1!·2!) = 30 schedules:
/// * once `record(B)` has executed, no lookup ever observes A again
///   (no stale-hint resurrection);
/// * at the end, the cache maps the thread to B — unless the disproof
///   captured B's *own* generation (it probed the fresh hint and
///   legitimately disproved it), in which case the entry is gone.
pub fn check_location_cache_generations() -> ModelReport {
    let counts = [2usize, 1, 2];
    let node_a = NodeId(1);
    let node_b = NodeId(2);
    let schedules = interleavings(&counts);
    let mut violations = Vec::new();

    for sched in &schedules {
        let cache = fresh_cache();
        let thread = ThreadId::new(NodeId(0), 7);
        cache.record(thread, node_a);

        let mut pc = [0usize; 3];
        let mut captured: Option<(NodeId, u64)> = None;
        let mut invalidated: Option<(NodeId, u64)> = None;
        let mut gen_b: Option<u64> = None;
        let mut recorded_b = false;
        let mut bad = |msg: String| violations.push(format!("schedule {sched:?}: {msg}"));

        for &t in sched {
            match (t, pc[t]) {
                (0, 0) => captured = cache.lookup(thread),
                (0, 1) => {
                    if let Some((node, generation)) = captured {
                        cache.invalidate_stale(thread, generation);
                        invalidated = Some((node, generation));
                    }
                }
                (1, 0) => {
                    cache.record(thread, node_b);
                    recorded_b = true;
                    gen_b = cache.lookup(thread).map(|(_, g)| g);
                }
                (2, _) => {
                    let seen = cache.lookup(thread);
                    if recorded_b && seen.map(|(n, _)| n) == Some(node_a) {
                        bad(format!(
                            "stale hint resurrected: observed {node_a:?} after record({node_b:?})"
                        ));
                    }
                }
                _ => unreachable!("schedule exceeds thread script"),
            }
            pc[t] += 1;
        }

        let final_hint = cache.peek(thread);
        let disproved_fresh = invalidated.is_some() && invalidated.map(|(_, g)| g) == gen_b;
        if disproved_fresh {
            if final_hint.is_some() {
                bad(format!(
                    "disproof of the current generation left {final_hint:?} behind"
                ));
            }
        } else if final_hint != Some(node_b) {
            bad(format!(
                "stale disproof {invalidated:?} clobbered the fresh hint: final {final_hint:?}"
            ));
        }
    }

    ModelReport {
        name: "location-cache-generation-invalidation",
        schedules: schedules.len() as u64,
        steps: counts.iter().sum(),
        violations,
    }
}

/// Sequential reference for the bounded seen ring, mirrored step-for-step
/// against the real `ThreadRegistry`.
struct RefRing {
    cap: usize,
    window: VecDeque<u64>,
}

impl RefRing {
    fn mark(&mut self, seq: u64) -> MarkSeen {
        if self.window.contains(&seq) {
            return MarkSeen::Duplicate;
        }
        let mut evicted = false;
        while self.window.len() >= self.cap {
            self.window.pop_front();
            evicted = true;
        }
        self.window.push_back(seq);
        if evicted {
            MarkSeen::FreshEvicted
        } else {
            MarkSeen::Fresh
        }
    }
}

fn run_seen_ring_model(
    name: &'static str,
    cap: usize,
    scripts: &[Vec<u64>],
    expect_exactly_once: bool,
) -> ModelReport {
    let counts: Vec<usize> = scripts.iter().map(Vec::len).collect();
    let schedules = interleavings(&counts);
    let mut violations = Vec::new();

    for sched in &schedules {
        let registry = ThreadRegistry::with_seen_cap(cap);
        let mut reference = RefRing {
            cap,
            window: VecDeque::new(),
        };
        let mut pc = vec![0usize; scripts.len()];
        let mut fresh_counts: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();

        for &t in sched {
            let seq = scripts[t][pc[t]];
            pc[t] += 1;
            let got = registry.mark_seen(seq);
            let want = reference.mark(seq);
            if got != want {
                violations.push(format!(
                    "schedule {sched:?}: mark_seen({seq}) = {got:?}, reference says {want:?}"
                ));
            }
            if got.is_fresh() {
                *fresh_counts.entry(seq).or_default() += 1;
            }
        }

        if expect_exactly_once {
            for (seq, fresh) in &fresh_counts {
                if *fresh != 1 {
                    violations.push(format!(
                        "schedule {sched:?}: seq {seq} delivered fresh {fresh} times (want exactly 1)"
                    ));
                }
            }
        }
    }

    ModelReport {
        name,
        schedules: schedules.len() as u64,
        steps: counts.iter().sum(),
        violations,
    }
}

/// §5.2 exactly-once: three delivery waves race the same seqs (the
/// broadcast wave, a hinted unicast, and a retransmit) against one
/// registry with ample window. On all 5!/(2!·2!·1!) = 30 schedules each
/// seq must be reported fresh exactly once.
pub fn check_seen_ring_exactly_once() -> ModelReport {
    run_seen_ring_model(
        "seen-ring-exactly-once",
        64,
        &[vec![100, 101], vec![100, 101], vec![100]],
        true,
    )
}

/// Bounded-window contract: with a deliberately tiny ring (cap 2), an old
/// seq may be evicted and later re-accepted — but only ever in exact
/// agreement with the sequential reference ring, on every interleaving.
pub fn check_seen_ring_eviction_window() -> ModelReport {
    run_seen_ring_model(
        "seen-ring-eviction-window",
        2,
        &[vec![1, 2, 3], vec![1]],
        false,
    )
}

/// Overload control (bounded mailbox): two producers race a consumer on
/// one mailbox with a deliberately tiny USER bound (cap 2). The model
/// drives the **real** `Mailbox` through every interleaving of:
///
/// * T0 — control producer: two TERMINATE pushes (unsheddable lane);
/// * T1 — user flood: three USER pushes, at least one past the bound
///   whenever the consumer has not drained in between;
/// * T2 — consumer: three delivery points, each a `pop` that parks the
///   thread (sets a waiting flag) when the mailbox is empty. A *stored*
///   push clears the flag — exactly the activation's notify-on-Stored
///   protocol.
///
/// Invariants, on all 8!/(2!·3!·3!) = 560 schedules:
/// * every admission agrees with a reference occupancy count — Shed iff
///   the event's sheddable lane is at capacity, and the shed names that
///   lane; control is never shed;
/// * a pop never returns a non-control event while control events are
///   queued (preemption), and control seqs pop in FIFO order;
/// * after every step, a parked consumer implies an empty mailbox — a
///   queued event alongside a waiting consumer is a lost wakeup;
/// * after every step, the lock-free depth mirror
///   ([`Mailbox::depth_handle`]) equals both the mailbox's real length
///   and the reference occupancy — a shed must never touch the mirror
///   (the kernel loop's mailbox-depth sample reads it without
///   the activation lock, so any drift miscounts load forever);
/// * conservation: stored − popped events remain queued, stored + shed
///   equals pushes attempted. Shed is a typed outcome, never a silent
///   drop.
pub fn check_mailbox_overload_admission() -> ModelReport {
    use doct_kernel::{
        Admission, EventName, Lane, Mailbox, MailboxConfig, SystemEvent, Value, WireEvent,
    };

    fn event(name: EventName, seq: u64) -> WireEvent {
        WireEvent {
            name,
            payload: Value::Null,
            raiser: None,
            raiser_node: NodeId(0),
            seq,
            sync: false,
            t_raise_ns: 0,
            attrs: None,
            deadline_ns: None,
        }
    }
    fn lane_slot(lane: Lane) -> usize {
        match lane {
            Lane::Control => 0,
            Lane::Timer => 1,
            Lane::User => 2,
        }
    }

    const LANE_CAP: usize = 2;
    let counts = [2usize, 3, 3];
    let schedules = interleavings(&counts);
    let mut violations = Vec::new();

    for sched in &schedules {
        let mut mailbox = Mailbox::new(MailboxConfig {
            timer_capacity: LANE_CAP,
            user_capacity: LANE_CAP,
            ..MailboxConfig::default()
        });
        let depth = mailbox.depth_handle();
        let mut pc = [0usize; 3];
        let mut ref_len = [0usize; 3]; // reference occupancy per lane
        let mut waiting = false; // consumer parked at a delivery point
        let mut stored = 0usize;
        let mut shed = 0usize;
        let mut popped = 0usize;
        let mut last_control_seq = 0u64;
        let mut bad = |msg: String| violations.push(format!("schedule {sched:?}: {msg}"));

        for &t in sched {
            match t {
                0 | 1 => {
                    let e = if t == 0 {
                        event(
                            EventName::System(SystemEvent::Terminate),
                            900 + pc[0] as u64,
                        )
                    } else {
                        event(EventName::user("FLOOD"), 100 + pc[1] as u64)
                    };
                    let lane = Lane::classify(&e.name);
                    let full = lane.sheddable() && ref_len[lane_slot(lane)] >= LANE_CAP;
                    match mailbox.push(e) {
                        Admission::Stored => {
                            if full {
                                bad(format!("{lane} lane stored past its bound"));
                            }
                            ref_len[lane_slot(lane)] += 1;
                            stored += 1;
                            // The kernel notifies the consumer on Stored.
                            waiting = false;
                        }
                        Admission::Shed(named) => {
                            shed += 1;
                            if !full {
                                bad(format!("shed {named} with the lane below capacity"));
                            }
                            if named != lane {
                                bad(format!("shed names {named}, event was {lane}"));
                            }
                            if !lane.sheddable() {
                                bad(format!("unsheddable {lane} event was shed"));
                            }
                        }
                    }
                }
                2 => match mailbox.pop(0) {
                    Some(e) => {
                        let lane = Lane::classify(&e.name);
                        if ref_len[lane_slot(Lane::Control)] > 0 && lane != Lane::Control {
                            bad(format!("popped {lane} while control events were queued"));
                        }
                        if lane == Lane::Control {
                            if e.seq <= last_control_seq {
                                bad(format!(
                                    "control lane out of FIFO order: {} after {last_control_seq}",
                                    e.seq
                                ));
                            }
                            last_control_seq = e.seq;
                        }
                        ref_len[lane_slot(lane)] -= 1;
                        popped += 1;
                    }
                    None => waiting = true,
                },
                _ => unreachable!("schedule exceeds thread script"),
            }
            pc[t] += 1;
            if waiting && !mailbox.is_empty() {
                bad("lost wakeup: consumer parked with events queued".into());
            }
            let mirror = depth.load(std::sync::atomic::Ordering::Relaxed);
            let occupancy: usize = ref_len.iter().sum();
            if mirror != mailbox.len() || mailbox.len() != occupancy {
                bad(format!(
                    "depth mirror drifted: mirror {mirror}, mailbox {}, reference {occupancy}",
                    mailbox.len()
                ));
            }
        }

        if stored - popped != mailbox.len() {
            bad(format!(
                "conservation broken: stored {stored} - popped {popped} != queued {}",
                mailbox.len()
            ));
        }
        if stored + shed != counts[0] + counts[1] {
            bad(format!(
                "untyped admission: stored {stored} + shed {shed} != pushes attempted"
            ));
        }
    }

    ModelReport {
        name: "mailbox-overload-admission",
        schedules: schedules.len() as u64,
        steps: counts.iter().sum(),
        violations,
    }
}

/// The `StealQueue` contract: a producer pushes onto a **real**
/// `StealQueue` while its owner pops from the front and an idle sibling
/// steals from the back. The model drives every interleaving of:
///
/// * T0 — producer: two pushes. `StealQueue::push` reports whether the
///   queue was empty, computed inside the queue's lock; the producer
///   wakes the owner exactly on that empty transition (clears the
///   waiting flag), as `push`'s contract asks of any caller;
/// * T1 — owner: three front pops, parking (waiting flag) on `None` —
///   the pop-then-park loop an owner runs;
/// * T2 — thief: two back steals of one item each.
///
/// Invariants, on all 7!/(2!·3!·2!) = 210 schedules:
/// * **exactly-once**: each pushed item is obtained by exactly one of
///   owner-pop and thief-steal — a steal racing a pop never duplicates or
///   loses an item;
/// * **no lost wakeup**: after every step, a parked owner implies an
///   empty queue. This is the load-bearing one: a steal can empty the
///   queue *between* a push and the next push, and only because
///   `was_empty` is computed under the queue lock does the next push
///   re-arm the wake;
/// * conservation: pushed = popped + stolen + remaining at the end.
pub fn check_reactor_steal_handoff() -> ModelReport {
    let counts = [2usize, 3, 2];
    let schedules = interleavings(&counts);
    let mut violations = Vec::new();

    for sched in &schedules {
        let queue: StealQueue<u32> = StealQueue::new();
        let mut pc = [0usize; 3];
        let mut waiting = false;
        let mut popped: Vec<u32> = Vec::new();
        let mut stolen: Vec<u32> = Vec::new();
        let mut bad = |msg: String| violations.push(format!("schedule {sched:?}: {msg}"));

        for &t in sched {
            match t {
                0 => {
                    let item = 10 + pc[0] as u32;
                    if queue.push(item) {
                        // Empty transition: the producer wakes the owner.
                        waiting = false;
                    }
                }
                1 => match queue.pop() {
                    Some(item) => popped.push(item),
                    None => waiting = true,
                },
                2 => stolen.extend(queue.steal(1)),
                _ => unreachable!("schedule exceeds thread script"),
            }
            pc[t] += 1;
            if waiting && !queue.is_empty() {
                bad("lost wakeup: owner parked with work queued".into());
            }
        }

        let mut obtained: Vec<u32> = popped.iter().chain(stolen.iter()).copied().collect();
        obtained.sort_unstable();
        if obtained.windows(2).any(|w| w[0] == w[1]) {
            bad(format!(
                "double delivery: popped {popped:?}, stolen {stolen:?}"
            ));
        }
        if obtained.len() + queue.len() != counts[0] {
            bad(format!(
                "conservation broken: obtained {} + remaining {} != pushed {}",
                obtained.len(),
                queue.len(),
                counts[0]
            ));
        }
    }

    ModelReport {
        name: "reactor-steal-handoff",
        schedules: schedules.len() as u64,
        steps: counts.iter().sum(),
        violations,
    }
}

/// Sharded delivery table shutdown (§3f): a raiser registering trackers
/// races the receipt path resolving them and the kernel's shutdown drain
/// — on the **real** `ShardedTable`. Before the drain latch existed, an
/// insert that lost the race landed in an already-emptied shard and the
/// raise was stranded (its waiter counted `lost` with no
/// `delivery.lost` increment — a ledger hole). The model drives every
/// interleaving of:
///
/// * T0 — raiser: `insert(1)`, `insert(2)` (a refused insert hands the
///   tracker back as [`Insert::Draining`]);
/// * T1 — receipt path: `remove(1)`, `remove(2)`;
/// * T2 — shutdown: one `drain`.
///
/// Invariant, on all 5!/(2!·2!·1!) = 30 schedules: every tracker is
/// resolved by **exactly one** party — removed by the receipt path,
/// swept up by the drain, or refused at insert — and the table is empty
/// afterwards. Exactly-one is what makes the five-term ledger balance:
/// each resolution increments exactly one `delivery.*` counter.
pub fn check_sharded_table_drain() -> ModelReport {
    let counts = [2usize, 2, 1];
    let schedules = interleavings(&counts);
    let mut violations = Vec::new();

    for sched in &schedules {
        let table: ShardedTable<&'static str> = ShardedTable::new(Counter::new());
        let mut pc = [0usize; 3];
        // Per id (1, 2): [removed, drained, refused] resolution tallies.
        let mut resolved = [[0usize; 3]; 2];
        let mut drained: Vec<&'static str> = Vec::new();

        for &t in sched {
            match (t, pc[t]) {
                (0, step) => {
                    let (id, tracker) = if step == 0 { (1, "t1") } else { (2, "t2") };
                    if let Insert::Draining(_) = table.insert(id, tracker) {
                        resolved[id as usize - 1][2] += 1;
                    }
                }
                (1, step) => {
                    let id = if step == 0 { 1u64 } else { 2 };
                    if table.remove(id).is_some() {
                        resolved[id as usize - 1][0] += 1;
                    }
                }
                (2, _) => drained = table.drain(),
                _ => unreachable!("schedule exceeds thread script"),
            }
            pc[t] += 1;
        }

        for tracker in &drained {
            let id = if *tracker == "t1" { 1usize } else { 2 };
            resolved[id - 1][1] += 1;
        }
        for (i, tallies) in resolved.iter().enumerate() {
            let total: usize = tallies.iter().sum();
            if total != 1 {
                violations.push(format!(
                    "schedule {sched:?}: tracker {} resolved {total} times \
                     (removed {}, drained {}, refused {})",
                    i + 1,
                    tallies[0],
                    tallies[1],
                    tallies[2]
                ));
            }
        }
        if !table.is_empty() {
            violations.push(format!(
                "schedule {sched:?}: {} tracker(s) stranded after shutdown",
                table.len()
            ));
        }
    }

    ModelReport {
        name: "sharded-table-drain",
        schedules: schedules.len() as u64,
        steps: counts.iter().sum(),
        violations,
    }
}

/// Run every model; returns the reports (callers log counts and fail on
/// any violation).
pub fn run_all() -> Vec<ModelReport> {
    vec![
        check_location_cache_generations(),
        check_seen_ring_exactly_once(),
        check_seen_ring_eviction_window(),
        check_mailbox_overload_admission(),
        check_reactor_steal_handoff(),
        check_sharded_table_drain(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_counts_are_exact_multinomials() {
        assert_eq!(
            interleavings(&[2, 1, 2]).len() as u64,
            multinomial(&[2, 1, 2])
        );
        assert_eq!(multinomial(&[2, 1, 2]), 30);
        assert_eq!(interleavings(&[2, 2, 1]).len() as u64, 30);
        assert_eq!(interleavings(&[3, 1]).len() as u64, 4);
        assert_eq!(interleavings(&[2, 2, 2]).len() as u64, 90);
        assert_eq!(multinomial(&[2, 2, 2]), 90);
    }

    #[test]
    fn interleavings_are_distinct_and_exhaustive() {
        let all = interleavings(&[2, 2]);
        assert_eq!(all.len(), 6);
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len(), "no duplicate schedules");
        for s in &all {
            assert_eq!(s.iter().filter(|&&t| t == 0).count(), 2);
            assert_eq!(s.iter().filter(|&&t| t == 1).count(), 2);
        }
    }

    #[test]
    fn location_cache_model_holds_on_every_schedule() {
        let report = check_location_cache_generations();
        assert_eq!(report.schedules, 30, "exhaustive enumeration");
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
    }

    #[test]
    fn seen_ring_exactly_once_holds_on_every_schedule() {
        let report = check_seen_ring_exactly_once();
        assert_eq!(report.schedules, 30);
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
    }

    #[test]
    fn seen_ring_eviction_matches_reference_on_every_schedule() {
        let report = check_seen_ring_eviction_window();
        assert_eq!(report.schedules, 4);
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
    }

    #[test]
    fn mailbox_overload_model_holds_on_every_schedule() {
        let report = check_mailbox_overload_admission();
        assert_eq!(report.schedules, 560, "8!/(2!·3!·3!) interleavings");
        assert_eq!(report.schedules, multinomial(&[2, 3, 3]));
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
    }

    #[test]
    fn reactor_steal_model_holds_on_every_schedule() {
        let report = check_reactor_steal_handoff();
        assert_eq!(report.schedules, 210, "7!/(2!·3!·2!) interleavings");
        assert_eq!(report.schedules, multinomial(&[2, 3, 2]));
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
    }

    #[test]
    fn sharded_table_drain_model_holds_on_every_schedule() {
        let report = check_sharded_table_drain();
        assert_eq!(report.schedules, 30, "5!/(2!·2!·1!) interleavings");
        assert_eq!(report.schedules, multinomial(&[2, 2, 1]));
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
    }

    /// The checker must actually be able to catch a broken invariant:
    /// feed it a reference ring with the wrong capacity and confirm the
    /// mismatch is reported.
    #[test]
    fn checker_detects_a_seeded_spec_divergence() {
        let report = run_seen_ring_model("seeded-divergence", 1, &[vec![1, 2], vec![1]], true);
        assert!(
            !report.violations.is_empty(),
            "cap-1 ring must violate exactly-once via eviction"
        );
    }
}
