//! The delivery state machine behind §7.2's guarantee — "the kernel
//! guarantees that the event is delivered", or the sender is told it was
//! not. A raise registers a [`DeliveryTracker`] per remote target, probes
//! for the thread (hint unicast, then locator waves, then a root anchor),
//! and ends in exactly one [`DeliveryStatus`] per target:
//!
//! * **start** — [`NodeKernel::raise_event`] serves local tips inline
//!   and registers the rest;
//! * **probe** — `send_probe_wave` / `send_hint_probe` on the raiser's
//!   node, `handle_deliver_thread` on the probed node;
//! * **receipt** — `handle_receipt` resolves, retries or anchors;
//! * **sweep** — `sweep` times deliveries out and falls stale
//!   hints back to the wave; `drain_deliveries_as_lost` ends the rest at
//!   shutdown.
//!
//! Three single points keep the five-term ledger
//! (`requested = delivered + dead + timeout + lost + overloaded`) honest:
//! `resolve` is the only writer of the resolution terms and the only
//! sender of a `DeliveryStatus`, `admit_local` is the only mailbox
//! admission, and [`LedgerSnapshot`] is the only reader. `resolve` and
//! `admit_local` are never called with a shard guard held (DESIGN.md
//! §3c: resolution is collect-then-send).

use crate::activation::Activation;
use crate::config::LocatorStrategy;
use crate::message::ReceiptVerdict;
use crate::node::NodeKernel;
use crate::shard_table::{shard_of, Insert};
use crate::tcb::Trail;
use crate::{
    Admission, DeliveryStatus, EventName, KernelMessage, Lane, ObjectId, RaiseTarget, ThreadId,
    Value, WireEvent,
};
use crossbeam::channel::{bounded, Receiver, Sender};
use doct_net::{MessageClass, NodeId, PeerState};
use doct_telemetry::{Counter, Histogram, RaiseVariant, Registry, Stage};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-node kernel statistics: handles bound once at kernel construction.
/// All but `thread_events` share storage with the cluster registry's
/// series of the same name, so every node of a cluster adds to (and
/// [`KernelStats::ledger`] reads) the cluster-wide totals.
#[derive(Debug)]
pub struct KernelStats {
    /// Events offered to thread mailboxes on this node (per node, not a
    /// registry series).
    pub thread_events: Counter,
    requested: Counter,
    delivered: Counter,
    dead: Counter,
    timeout: Counter,
    lost: Counter,
    overloaded: Counter,
    raises: Counter,
    shed_total: Counter,
    /// `kernel.shed_{control,timer,user}`, indexed by `Lane as usize`.
    shed_lane: [Counter; 3],
    shed_at_source: Counter,
    pub(crate) calls_failed_fast: Counter,
    deliver_latency: Histogram,
    pub(crate) mailbox_depth: Histogram,
}

impl KernelStats {
    /// Bind the kernel's series in `registry`.
    pub fn bound(registry: &Registry) -> Self {
        KernelStats {
            thread_events: Counter::new(),
            requested: registry.counter("delivery.requested"),
            delivered: registry.counter("delivery.delivered"),
            dead: registry.counter("delivery.dead"),
            timeout: registry.counter("delivery.timeout"),
            lost: registry.counter("delivery.lost"),
            overloaded: registry.counter("delivery.overloaded"),
            raises: registry.counter("event.raises"),
            shed_total: registry.counter("kernel.shed_total"),
            shed_lane: [Lane::Control, Lane::Timer, Lane::User]
                .map(|l| registry.counter(&format!("kernel.shed_{l}"))),
            shed_at_source: registry.counter("kernel.shed_at_source"),
            calls_failed_fast: registry.counter("kernel.calls_failed_fast"),
            deliver_latency: registry.histogram("event.deliver_latency_ns"),
            mailbox_depth: registry.histogram("kernel.mailbox_depth"),
        }
    }

    /// Read the delivery ledger.
    pub fn ledger(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            requested: self.requested.get(),
            delivered: self.delivered.get(),
            dead: self.dead.get(),
            timeout: self.timeout.get(),
            lost: self.lost.get(),
            overloaded: self.overloaded.get(),
        }
    }
}

/// One reading of the five-term delivery ledger. At quiescence every
/// tracked raise has resolved exactly once, so the reading
/// [balances](LedgerSnapshot::balanced); mid-flight `requested` runs
/// ahead by the raises still in the delivery table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Per-target deliveries asked for.
    pub requested: u64,
    /// Resolved [`DeliveryStatus::Delivered`].
    pub delivered: u64,
    /// Resolved [`DeliveryStatus::TargetDead`].
    pub dead: u64,
    /// Resolved [`DeliveryStatus::Timeout`].
    pub timeout: u64,
    /// Resolved [`DeliveryStatus::Lost`].
    pub lost: u64,
    /// Resolved [`DeliveryStatus::Overloaded`].
    pub overloaded: u64,
}

impl LedgerSnapshot {
    /// `requested == delivered + dead + timeout + lost + overloaded`.
    pub fn balanced(&self) -> bool {
        self.requested == self.delivered + self.dead + self.timeout + self.lost + self.overloaded
    }
}

impl fmt::Display for LedgerSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requested={} delivered={} dead={} timeout={} lost={} overloaded={}",
            self.requested, self.delivered, self.dead, self.timeout, self.lost, self.overloaded
        )
    }
}

pub(crate) struct DeliveryTracker {
    event: WireEvent,
    target: ThreadId,
    outstanding: usize,
    attempts_left: u32,
    /// Set once the final anchor attempt has been sent.
    anchored: bool,
    deadline: Instant,
    /// An outstanding unicast hint probe: the hinted node and the cache
    /// generation that was probed (so only that entry is invalidated on
    /// disproof). It is waited on until its receipt, a detector `Dead`
    /// verdict on the node, or the delivery deadline.
    hint: Option<(NodeId, u64)>,
    /// The hint fast path has been tried for this delivery; retries go
    /// straight to the locator wave.
    hint_spent: bool,
    result_tx: Sender<DeliveryStatus>,
}

/// A pending receipt set for one raise; resolves to a
/// [`DeliverySummary`].
#[must_use = "receipts resolve asynchronously: wait() for the summary or detach() explicitly"]
#[derive(Debug)]
pub struct RaiseTicket {
    receivers: Vec<Receiver<DeliveryStatus>>,
    timeout: Duration,
}

/// Aggregate outcome of a raise (one entry per targeted thread; objects
/// resolve to a single entry).
#[must_use = "the summary is the only record of dead/timed-out/lost recipients"]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliverySummary {
    /// Number of recipients the event reached.
    pub delivered: usize,
    /// Recipients that no longer exist (§7.2 dead-target notification).
    pub dead: usize,
    /// Recipients whose receipt never arrived.
    pub timed_out: usize,
    /// Recipients whose tracking kernel vanished before resolving the
    /// receipt (node shutdown mid-raise) — not a delivery timeout.
    pub lost: usize,
    /// Recipients whose bounded mailbox shed the event (admission
    /// control said no; the raise was *not* silently dropped).
    pub overloaded: usize,
    /// Nodes where delivery happened.
    pub nodes: Vec<NodeId>,
}

impl DeliverySummary {
    /// True if every recipient got the event.
    pub fn all_delivered(&self) -> bool {
        self.dead == 0 && self.timed_out == 0 && self.lost == 0 && self.overloaded == 0
    }
}

impl RaiseTicket {
    /// Block until every receipt resolves and summarize.
    pub fn wait(self) -> DeliverySummary {
        parking_lot::lockdep::blocking_point("kernel::RaiseTicket::wait");
        let mut summary = DeliverySummary::default();
        let deadline = Instant::now() + self.timeout + Duration::from_secs(1);
        for rx in self.receivers {
            let now = Instant::now();
            let remaining = deadline.saturating_duration_since(now);
            match rx.recv_timeout(remaining) {
                Ok(DeliveryStatus::Delivered(n)) => {
                    summary.delivered += 1;
                    summary.nodes.push(n);
                }
                Ok(DeliveryStatus::TargetDead) => summary.dead += 1,
                Ok(DeliveryStatus::Timeout) => summary.timed_out += 1,
                Ok(DeliveryStatus::Overloaded(_)) => summary.overloaded += 1,
                // A disconnected receipt channel means the tracking
                // kernel is gone, not that delivery timed out.
                Ok(DeliveryStatus::Lost) | Err(_) => summary.lost += 1,
            }
        }
        summary
    }

    /// Fire-and-forget: drop the receipts.
    pub fn detach(self) {}

    /// Take the raw receipt receivers (one per targeted thread).
    pub fn into_receivers(self) -> Vec<Receiver<DeliveryStatus>> {
        self.receivers
    }
}

impl NodeKernel {
    /// The single resolution point: count the outcome in the ledger, then
    /// tell the raiser. Taking the sender by value makes "resolved at
    /// most once" a move — whoever took the tracker out of the table (or
    /// never put one in) is the only party that can call this.
    fn resolve(&self, result_tx: Sender<DeliveryStatus>, status: DeliveryStatus) {
        let stats = self.stats();
        match status {
            DeliveryStatus::Delivered(_) => stats.delivered.inc(),
            DeliveryStatus::TargetDead => stats.dead.inc(),
            DeliveryStatus::Timeout => stats.timeout.inc(),
            DeliveryStatus::Lost => stats.lost.inc(),
            DeliveryStatus::Overloaded(_) => stats.overloaded.inc(),
        }
        let _ = result_tx.send(status);
    }

    /// The single local admission point: offer `event` to `act`'s mailbox
    /// and turn the admission into the receipt verdict. A stored event is
    /// traced and its raise-to-deliver latency sampled; a shed is
    /// *reported*, not silently dropped — it rides the receipt back to
    /// the origin as the backpressure signal.
    fn admit_local(&self, act: &Activation, event: &WireEvent) -> ReceiptVerdict {
        self.stats().thread_events.inc();
        match act.push_event(event.clone()) {
            Admission::Stored => {
                self.record_delivery(event);
                ReceiptVerdict::Found(self.node_id())
            }
            Admission::Shed(lane) => {
                self.record_shed(lane);
                ReceiptVerdict::Overloaded(self.node_id())
            }
        }
    }

    /// Trace + measure arrival of an event at this node's delivery point
    /// (raise-to-deliver latency).
    pub(crate) fn record_delivery(&self, event: &WireEvent) {
        self.trace(event.seq, Stage::Deliver);
        self.stats()
            .deliver_latency
            .record_ns(self.telemetry().now_ns().saturating_sub(event.t_raise_ns));
    }

    /// Account one shed event at this node: the overall `kernel.shed_total`
    /// plus the per-lane counter E13 breaks excess down by.
    fn record_shed(&self, lane: Lane) {
        self.stats().shed_total.inc();
        self.stats().shed_lane[lane as usize].inc();
    }

    /// Source shedding: a recent receipt said `peer`'s mailboxes are
    /// overloaded, so a sheddable raise is not even put on the wire.
    /// Returns `true` (and accounts the shed) when the caller must
    /// resolve the raise as `Overloaded(peer)` instead of sending.
    fn shed_at_source(&self, event: &WireEvent, peer: NodeId) -> bool {
        let lane = Lane::classify(&event.name);
        let shed = lane.sheddable() && peer != self.node_id() && self.net().peer_pressured(peer);
        if shed {
            self.record_shed(lane);
            self.stats().shed_at_source.inc();
        }
        shed
    }

    /// `thread`'s activation, when its tip is on this node.
    fn local_tip(&self, thread: ThreadId) -> Option<Arc<Activation>> {
        (self.tcbs().trail(thread) == Trail::TipHere)
            .then(|| self.activation(thread))
            .flatten()
    }

    /// Raise an event: the kernel-level primitive behind both `raise` and
    /// `raise_and_wait` (§5.3). Returns the receipt ticket and the event
    /// seq (the rendezvous key for synchronous raises).
    pub fn raise_event(
        self: &Arc<Self>,
        name: EventName,
        payload: Value,
        target: RaiseTarget,
        sync: bool,
        raiser: Option<&Arc<Activation>>,
    ) -> (RaiseTicket, u64) {
        let seq = self.next_seq();
        let variant = match (&target, sync) {
            (RaiseTarget::Thread(_), false) => RaiseVariant::ThreadAsync,
            (RaiseTarget::Thread(_), true) => RaiseVariant::ThreadSync,
            (RaiseTarget::Group(_), false) => RaiseVariant::GroupAsync,
            (RaiseTarget::Group(_), true) => RaiseVariant::GroupSync,
            (RaiseTarget::Object(_), false) => RaiseVariant::ObjectAsync,
            (RaiseTarget::Object(_), true) => RaiseVariant::ObjectSync,
        };
        let telemetry = self.telemetry();
        telemetry.trace(seq, Stage::Raise, u64::from(self.node_id().0), variant);
        self.stats().raises.inc();
        let t_raise_ns = telemetry.now_ns();
        // Timer-lane events carry a usefulness deadline: past it the tick
        // is stale (the next one supersedes it), before it a near-deadline
        // tick jumps the USER lane at the target's mailbox.
        let deadline_ns = (Lane::classify(&name) == Lane::Timer).then(|| {
            t_raise_ns.saturating_add(
                self.config()
                    .mailbox
                    .timer_deadline
                    .as_nanos()
                    .min(u128::from(u64::MAX)) as u64,
            )
        });
        let event = WireEvent {
            name,
            payload,
            raiser: raiser.map(|a| a.thread),
            raiser_node: self.node_id(),
            seq,
            sync,
            t_raise_ns,
            attrs: raiser.map(|a| a.attributes_snapshot()),
            deadline_ns,
        };
        let receivers = match target {
            RaiseTarget::Object(object) => {
                self.stats().requested.inc();
                let (tx, rx) = bounded(1);
                self.resolve(tx, self.raise_to_object(object, event));
                vec![rx]
            }
            RaiseTarget::Thread(thread) => self.start_group_deliveries(vec![thread], event),
            RaiseTarget::Group(group) => {
                self.start_group_deliveries(self.groups().members(group), event)
            }
        };
        let ticket = RaiseTicket {
            receivers,
            timeout: self.config().delivery_timeout,
        };
        (ticket, seq)
    }

    /// Route an object-targeted event to the object's home node. Object
    /// events are not tracked: the status is final as soon as the event
    /// is queued or on the wire.
    fn raise_to_object(self: &Arc<Self>, object: ObjectId, event: WireEvent) -> DeliveryStatus {
        let Some(record) = self.directory().get(object) else {
            return DeliveryStatus::TargetDead;
        };
        self.trace(event.seq, Stage::Route);
        if self.shed_at_source(&event, record.home) {
            return DeliveryStatus::Overloaded(record.home);
        }
        if record.home == self.node_id() {
            self.enqueue_object_event(object, event);
        } else {
            self.trace(event.seq, Stage::Send);
            let _ = self.net().send(
                self.node_id(),
                record.home,
                KernelMessage::DeliverObject { event, object },
                MessageClass::Event,
            );
        }
        DeliveryStatus::Delivered(record.home)
    }

    /// Begin delivering `event` to every thread in `targets`, returning
    /// one status receiver per target, in order. Local tips are served
    /// inline; the remaining targets are registered as trackers and then
    /// probed in one destination-sorted wave, so a group raise hands the
    /// transport all co-destined probes together (one wire batch per
    /// destination, DESIGN.md §3d) instead of a locator wave per member.
    fn start_group_deliveries(
        self: &Arc<Self>,
        targets: Vec<ThreadId>,
        event: WireEvent,
    ) -> Vec<Receiver<DeliveryStatus>> {
        self.stats().requested.add(targets.len() as u64);
        let mut receivers = Vec::with_capacity(targets.len());
        let mut wave = Vec::new();
        for thread in targets {
            let (tx, rx) = bounded(1);
            receivers.push(rx);
            self.trace(event.seq, Stage::Route);
            // Fast path: tip is on this node.
            if let Some(act) = self.local_tip(thread) {
                let status = self
                    .admit_local(&act, &event)
                    .terminal()
                    .expect("an admission is terminal");
                self.resolve(tx, status);
                continue;
            }
            let delivery_id = self.next_seq();
            let tracker = DeliveryTracker {
                event: event.clone(),
                target: thread,
                outstanding: 0,
                attempts_left: self.config().delivery_retries,
                anchored: false,
                deadline: Instant::now() + self.config().delivery_timeout,
                hint: None,
                hint_spent: false,
                result_tx: tx,
            };
            match self.deliveries.insert(delivery_id, tracker) {
                Insert::Admitted => wave.push(delivery_id),
                // The kernel loop is draining (shutdown): nobody will ever
                // resolve this tracker, so resolve it as Lost right here —
                // the other half of the drain-vs-insert race.
                Insert::Draining(t) => self.resolve(t.result_tx, DeliveryStatus::Lost),
            }
        }
        if !wave.is_empty() {
            self.send_probe_wave(&wave);
        }
        receivers
    }

    /// Send probe waves for a set of registered deliveries (initial or
    /// retry) — or, per delivery on its first attempt, a single unicast
    /// fast-path probe when the location cache holds a hint for its
    /// target. Wave probes are grouped by destination node (sorted, so
    /// fan-out order is deterministic) and handed to
    /// [`doct_net::Network::send_many`], which coalesces co-destined
    /// probes into one wire batch.
    fn send_probe_wave(self: &Arc<Self>, delivery_ids: &[u64]) {
        let me = self.node_id();
        let locator = self.config().locator;
        // Per destination: the delivery ids probing it and their probes.
        let mut per_dst: BTreeMap<NodeId, (Vec<u64>, Vec<_>)> = BTreeMap::new();
        // PathTrace deliveries rooted here run without a wire hop; they
        // are processed after aggregation so the recursive handling never
        // overlaps the bookkeeping below.
        let mut inline_root = Vec::new();
        let mut waved = Vec::with_capacity(delivery_ids.len());
        for &delivery_id in delivery_ids {
            let Some((event, target, try_hint)) = self
                .deliveries
                .with_mut(delivery_id, |t| (t.event.clone(), t.target, !t.hint_spent))
            else {
                continue;
            };
            if try_hint && self.send_hint_probe(delivery_id, &event, target) {
                continue;
            }
            self.trace(event.seq, Stage::Send);
            if locator == LocatorStrategy::PathTrace && target.root == me {
                inline_root.push((delivery_id, event, target));
                continue;
            }
            let probe = KernelMessage::DeliverThread {
                event,
                target,
                origin: me,
                delivery_id,
                hops: 0,
                anchor: false,
                hinted: false,
            };
            let mut enqueue = |dst: NodeId, probe: KernelMessage| {
                if dst != me {
                    let (ids, probes) = per_dst.entry(dst).or_default();
                    ids.push(delivery_id);
                    probes.push((MessageClass::Locate, probe));
                }
            };
            match locator {
                LocatorStrategy::Broadcast => {
                    self.net().stats().broadcasts.inc();
                    for dst in self.net().nodes() {
                        enqueue(dst, probe.clone());
                    }
                }
                LocatorStrategy::PathTrace => enqueue(target.root, probe),
                LocatorStrategy::Multicast => {
                    self.net().stats().multicasts.inc();
                    let group = target.multicast_group();
                    for dst in self.net().multicast_registry().members(group) {
                        enqueue(dst, probe.clone());
                    }
                }
            }
            waved.push(delivery_id);
        }
        // One send_many per destination: co-destined probes (typically a
        // multicast raise's members on one node) share a wire batch.
        let mut sent_counts: HashMap<u64, usize> = HashMap::new();
        for (dst, (ids, probes)) in per_dst {
            let sent = self
                .net()
                .send_many(me, dst, probes)
                .map(|o| o.is_sent())
                .unwrap_or(false);
            if sent {
                for id in ids {
                    *sent_counts.entry(id).or_insert(0) += 1;
                }
            }
        }
        for &delivery_id in &waved {
            let sent = sent_counts.get(&delivery_id).copied().unwrap_or(0);
            if sent == 0 {
                // Nobody to ask: the thread left no trace.
                if let Some(t) = self.deliveries.remove(delivery_id) {
                    self.resolve(t.result_tx, DeliveryStatus::TargetDead);
                }
            } else {
                let _ = self
                    .deliveries
                    .with_mut(delivery_id, |t| t.outstanding = sent);
            }
        }
        for (delivery_id, event, target) in inline_root {
            // We are the root but the tip is not here: follow our own
            // trail without a network hop. One receipt will come back
            // (possibly inline), so account for it first.
            let _ = self.deliveries.with_mut(delivery_id, |t| t.outstanding = 1);
            self.handle_deliver_thread(event, target, me, delivery_id, 0, false, false);
        }
    }

    /// Try the location-cache fast path for a delivery: if a (usable)
    /// hint exists, send one unicast probe to the hinted node and record
    /// the hint on the tracker so a "not here" receipt or a `Dead`
    /// verdict on the hinted node falls back to the full wave. Returns
    /// `true` when the probe went out (or the delivery was settled
    /// inline).
    fn send_hint_probe(
        self: &Arc<Self>,
        delivery_id: u64,
        event: &WireEvent,
        target: ThreadId,
    ) -> bool {
        let me = self.node_id();
        let Some(cache) = self.location_cache() else {
            return false;
        };
        let Some((node, generation)) = cache.lookup(target) else {
            return false;
        };
        // A self-hint is worthless (the local fast path already failed
        // before this delivery was registered), and a hint the failure
        // detector has disproved is never waited on: drop it and wave.
        if node == me || self.net().peer_state(me, node) == Some(PeerState::Dead) {
            cache.invalidate(target);
            return false;
        }
        // The hinted node recently shed on us: resolve right here instead
        // of feeding the flood; the hint itself stays valid (the thread
        // is still there).
        if self.shed_at_source(event, node) {
            if let Some(t) = self.deliveries.remove(delivery_id) {
                self.resolve(t.result_tx, DeliveryStatus::Overloaded(node));
            }
            return true;
        }
        let armed = self.deliveries.with_mut(delivery_id, |t| {
            t.hint_spent = true;
            t.hint = Some((node, generation));
            t.outstanding = 1;
        });
        if armed.is_none() {
            return true;
        }
        self.trace(event.seq, Stage::Send);
        let msg = KernelMessage::DeliverThread {
            event: event.clone(),
            target,
            origin: me,
            delivery_id,
            hops: 0,
            anchor: false,
            hinted: true,
        };
        let sent = self
            .net()
            .send_hinted(me, node, msg, MessageClass::Locate)
            .map(|o| o.is_sent())
            .unwrap_or(false);
        if !sent {
            // Unreliable transport and the link is down: treat it as an
            // immediate "not here" so the wave fallback runs now.
            self.handle_receipt(delivery_id, ReceiptVerdict::NotHere);
        }
        true
    }

    /// A probe arrived: enqueue here, forward along the trail, or report
    /// back "not here".
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_deliver_thread(
        self: &Arc<Self>,
        event: WireEvent,
        target: ThreadId,
        origin: NodeId,
        delivery_id: u64,
        hops: u32,
        anchor: bool,
        hinted: bool,
    ) {
        let me = self.node_id();
        let receipt = |verdict: ReceiptVerdict| {
            if origin == me {
                self.handle_receipt(delivery_id, verdict);
            } else {
                let _ = self.net().send(
                    me,
                    origin,
                    KernelMessage::DeliverReceipt {
                        delivery_id,
                        verdict,
                    },
                    MessageClass::Locate,
                );
            }
        };
        let trail = self.tcbs().trail(target);
        // An anchor is a sticky delivery at the root: the thread is alive
        // here (any trail), just too fast for the probes; leave the event
        // in its root activation, drained at its next delivery point here.
        if trail == Trail::TipHere || (anchor && trail != Trail::Unknown) {
            return receipt(match self.activation(target) {
                Some(act) => self.admit_local(&act, &event),
                None => ReceiptVerdict::NotHere,
            });
        }
        // Hinted unicast probes chase a short forwarding trail even under
        // broadcast/multicast: the thread usually made one hop since the
        // hint was recorded, and the wave fallback still covers longer
        // moves. Other broadcast/multicast probes cover the tip directly.
        const HINT_CHASE_HOPS: u32 = 3;
        match trail {
            Trail::Forward(next)
                if self.config().locator == LocatorStrategy::PathTrace
                    || (hinted && hops < HINT_CHASE_HOPS) =>
            {
                self.trace(event.seq, Stage::Send);
                let _ = self.net().send(
                    me,
                    next,
                    KernelMessage::DeliverThread {
                        event,
                        target,
                        origin,
                        delivery_id,
                        hops: hops + 1,
                        anchor: false,
                        hinted,
                    },
                    MessageClass::Locate,
                );
            }
            _ => receipt(ReceiptVerdict::NotHere),
        }
    }

    /// A probe's verdict came back (or was produced inline): resolve the
    /// delivery, or — on "not here" — retry the wave, anchor at the root,
    /// or give the target up as dead.
    pub(crate) fn handle_receipt(self: &Arc<Self>, delivery_id: u64, verdict: ReceiptVerdict) {
        let me = self.node_id();
        if let Some(status) = verdict.terminal() {
            let Some(t) = self.deliveries.remove(delivery_id) else {
                return;
            };
            if let ReceiptVerdict::Found(node) | ReceiptVerdict::Overloaded(node) = verdict {
                if node != me {
                    // Learn (or refresh) the target's location for the
                    // next raise from this node — a shedding thread *is*
                    // there too. Local deliveries go through the tip
                    // fast path, so only remotes are cached.
                    if let Some(cache) = self.location_cache() {
                        cache.record(t.target, node);
                    }
                    // The mailbox said no: shed future sheddable raises
                    // toward that node at the source for a while (and
                    // never retry — a retry would feed the flood).
                    if verdict == ReceiptVerdict::Overloaded(node) {
                        self.net()
                            .note_backpressure(node, self.config().mailbox.backpressure_hold);
                    }
                }
            }
            self.resolve(t.result_tx, status);
            return;
        }
        let mut retry = false;
        // A tracker given up as dead leaves the table under the shard
        // guard and is resolved only after it is released.
        let mut dead = None;
        {
            let mut shard = self.deliveries.lock_shard(shard_of(delivery_id));
            let Some(t) = shard.entries.get_mut(&delivery_id) else {
                return;
            };
            if let Some((_, generation)) = t.hint.take() {
                // The hinted node answered "not here": the cache entry is
                // stale. Invalidate it and fall back to the full locator
                // wave without consuming one of the wave's retry attempts.
                if let Some(cache) = self.location_cache() {
                    cache.invalidate_stale(t.target, generation);
                }
                t.outstanding = 0;
                retry = true;
            } else {
                t.outstanding = t.outstanding.saturating_sub(1);
            }
            if !retry && t.outstanding == 0 {
                if t.attempts_left > 0 {
                    t.attempts_left -= 1;
                    retry = true;
                } else if !t.anchored {
                    // Last resort: anchor the event at the root
                    // activation of a thread too fast to pin down.
                    t.anchored = true;
                    t.outstanding = 1;
                    let (event, target) = (t.event.clone(), t.target);
                    drop(shard);
                    let msg = KernelMessage::DeliverThread {
                        event,
                        target,
                        origin: me,
                        delivery_id,
                        hops: 0,
                        anchor: true,
                        hinted: false,
                    };
                    if target.root == me {
                        self.handle(msg, me);
                    } else {
                        let _ = self.net().send(me, target.root, msg, MessageClass::Locate);
                    }
                    return;
                } else {
                    dead = shard.entries.remove(&delivery_id);
                }
            }
        }
        if let Some(t) = dead {
            self.resolve(t.result_tx, DeliveryStatus::TargetDead);
        }
        if retry {
            // Cover the race where the thread moved mid-probe: check the
            // local fast path again, then resend the wave.
            let Some((event, target)) = self
                .deliveries
                .with_mut(delivery_id, |t| (t.event.clone(), t.target))
            else {
                return;
            };
            match self.local_tip(target) {
                Some(act) => self.handle_receipt(delivery_id, self.admit_local(&act, &event)),
                None => self.send_probe_wave(&[delivery_id]),
            }
        }
    }

    /// Sweep every delivery shard, one shard lock at a time — a long
    /// sweep never stalls registration or receipts on the other shards.
    pub(crate) fn sweep(self: &Arc<Self>) {
        let me = self.node_id();
        let now = Instant::now();
        let peer_dead =
            |peer: NodeId| peer != me && self.net().peer_state(me, peer) == Some(PeerState::Dead);
        // Deliveries whose hinted node was declared dead; probed again (as
        // a full wave) after the shard locks are released —
        // send_probe_wave re-locks them.
        let mut hint_fallbacks = Vec::new();
        // Trackers the sweep takes out of the table; resolved only after
        // the shard locks are released (collect-then-send).
        let mut resolved: Vec<(Sender<DeliveryStatus>, DeliveryStatus)> = Vec::new();
        let mut expired: Vec<(u64, DeliveryStatus)> = Vec::new();
        for idx in 0..self.deliveries.shard_count() {
            let mut shard = self.deliveries.lock_shard(idx);
            for (id, t) in shard.entries.iter_mut() {
                if now >= t.deadline {
                    expired.push((*id, DeliveryStatus::Timeout));
                    continue;
                }
                // §7.2 dead-target notification under real link failure:
                // when the failure detector has declared the target's root
                // node dead, resolve now instead of letting the raiser sit
                // out the whole delivery timeout.
                if peer_dead(t.target.root) {
                    expired.push((*id, DeliveryStatus::TargetDead));
                    continue;
                }
                // A hint probe is waited on until its receipt — the
                // reliable transport retransmits both ways — unless the
                // detector declares the hinted node dead: then drop the
                // hint and fall back to the locator wave. A receipt that
                // still arrives afterwards decrements the wave's
                // outstanding count, which only hastens a retry/anchor.
                if let Some((node, _)) = t.hint {
                    if peer_dead(node) {
                        t.hint = None;
                        t.outstanding = 0;
                        if let Some(cache) = self.location_cache() {
                            cache.invalidate(t.target);
                        }
                        hint_fallbacks.push(*id);
                    }
                }
            }
            resolved.extend(expired.drain(..).filter_map(|(id, status)| {
                shard.entries.remove(&id).map(|t| (t.result_tx, status))
            }));
        }
        for (result_tx, status) in resolved {
            self.resolve(result_tx, status);
        }
        self.send_probe_wave(&hint_fallbacks);
    }

    /// Resolve every in-flight delivery as [`DeliveryStatus::Lost`] when
    /// the kernel loop exits: nobody will process receipts after this
    /// point, so leaving trackers behind would strand raisers until their
    /// waiter timeout with a misleading `timed_out` verdict. Marks the
    /// table draining first, so a raiser thread racing this drain has its
    /// insert refused and resolves the tracker as `Lost` itself instead
    /// of stranding it (the `sharded-table-drain` model covers the race).
    pub(crate) fn drain_deliveries_as_lost(&self) {
        for t in self.deliveries.drain() {
            self.resolve(t.result_tx, DeliveryStatus::Lost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, MailboxConfig, ThreadAttributes};

    #[test]
    fn admit_local_accounts_stored_and_shed_admissions() {
        let cluster = Cluster::new(1);
        let kernel = cluster.kernel(0);
        let me = kernel.node_id();
        let one_user_slot = MailboxConfig {
            user_capacity: 1,
            ..MailboxConfig::default()
        };
        let act = Activation::with_mailbox(
            ThreadAttributes::new(kernel.new_thread_id(), me),
            one_user_slot,
        );
        let event = WireEvent {
            name: EventName::user("E"),
            payload: Value::Null,
            raiser: None,
            raiser_node: me,
            seq: 1,
            sync: false,
            t_raise_ns: 0,
            attrs: None,
            deadline_ns: None,
        };
        let stats = kernel.stats();

        assert_eq!(kernel.admit_local(&act, &event), ReceiptVerdict::Found(me));
        assert_eq!(stats.thread_events.get(), 1);
        assert_eq!(stats.deliver_latency.count(), 1);
        assert_eq!(stats.shed_total.get(), 0);

        let full = kernel.admit_local(&act, &event);
        assert_eq!(full, ReceiptVerdict::Overloaded(me));
        assert_eq!(stats.thread_events.get(), 2);
        assert_eq!(stats.deliver_latency.count(), 1, "a shed is not a delivery");
        assert_eq!(stats.shed_total.get(), 1);
        assert_eq!(stats.shed_lane[Lane::User as usize].get(), 1);
    }
}
