//! The transport-independent half of the fabric.
//!
//! [`Network`] owns mailboxes, the link matrix, reliability, statistics
//! and the failure detector; the one physical transmission attempt is
//! delegated to a pluggable [`Fabric`] backend (simulated crossbeam or
//! loopback UDP — see `crate::fabric`).

use crate::clock;
use crate::envelope::Transfer;
use crate::fabric::{Fabric, FabricSpec, SimFabric};
use crate::failure::{FailureConfig, FailureDetector, PeerState};
use crate::reliable::{ReliabilityConfig, ReliableState};
use crate::{
    Envelope, LatencyModel, MessageClass, MulticastGroupId, MulticastRegistry, NetStats, NodeId,
    WireCodec, WireMessage,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors reported by fabric operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkError {
    /// The referenced node id is outside `0..node_count`.
    UnknownNode(NodeId),
    /// The node's mailbox was already taken by an earlier call.
    MailboxTaken(NodeId),
    /// The OS refused to spawn the named fabric worker thread.
    SpawnFailed(&'static str),
    /// A configuration failed validation; the string says why.
    InvalidConfig(&'static str),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetworkError::MailboxTaken(n) => write!(f, "mailbox of {n} already taken"),
            NetworkError::SpawnFailed(name) => write!(f, "failed to spawn {name} thread"),
            NetworkError::InvalidConfig(why) => write!(f, "invalid config: {why}"),
        }
    }
}

impl Error for NetworkError {}

/// What happened to a single message handed to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Queued for delivery (immediately, via the delay line, or — with
    /// reliability enabled — held in the retransmit queue until acked).
    Sent,
    /// Dropped because the link between the two nodes is cut.
    DroppedLink,
    /// Dropped because the destination mailbox receiver no longer exists.
    DroppedDeadNode,
}

impl SendOutcome {
    /// True if the message was queued for delivery.
    pub fn is_sent(self) -> bool {
        self == SendOutcome::Sent
    }
}

/// The shared "last hop" into destination mailboxes, used by direct
/// sends, the delay-line worker, and the retransmit thread alike so that
/// receiver-side dedupe and ack generation happen at actual delivery
/// time, whatever route the transfer took.
pub(crate) struct DeliveryPath<M: Send + 'static> {
    senders: Vec<Sender<Envelope<M>>>,
    stats: Arc<NetStats>,
    links: Arc<RwLock<Vec<Vec<bool>>>>,
    reliable: Arc<RwLock<Option<Arc<ReliableState<M>>>>>,
}

impl<M: Send + 'static> Clone for DeliveryPath<M> {
    fn clone(&self) -> Self {
        DeliveryPath {
            senders: self.senders.clone(),
            stats: Arc::clone(&self.stats),
            links: Arc::clone(&self.links),
            reliable: Arc::clone(&self.reliable),
        }
    }
}

impl<M: Send + 'static> DeliveryPath<M> {
    /// Number of nodes in the cluster.
    pub(crate) fn node_count(&self) -> usize {
        self.senders.len()
    }

    /// The shared statistics counters.
    pub(crate) fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// The reliability layer, if enabled.
    pub(crate) fn reliable_handle(&self) -> Option<Arc<ReliableState<M>>> {
        self.reliable.read().clone()
    }

    pub(crate) fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        self.links
            .read()
            .get(a.index())
            .and_then(|row| row.get(b.index()))
            .copied()
            .unwrap_or(false)
    }

    /// Deliver `transfer` into its destination mailbox. Reliable
    /// transfers (`seq != 0`) are deduplicated and acknowledged here (the
    /// ack is buffered; the maintenance thread flushes it cumulatively
    /// and checks the reverse link then, so a one-way partition loses
    /// acks like a real network);
    /// batches are unpacked into one mailbox envelope per payload, each
    /// stamped with the batch's seq, after the single dedupe decision —
    /// so a retransmitted batch is suppressed whole and exactly-once
    /// survives coalescing.
    ///
    /// With reliability enabled, a transfer claiming the best-effort
    /// `seq: 0` is **rejected** (`net.wire_rejects`): the reliable fabric
    /// only emits unique non-zero sequence numbers, so such a transfer is
    /// a hostile or buggy peer trying to slip past the dedupe window —
    /// accepting it would let a replayed payload double-deliver.
    pub(crate) fn deliver(&self, transfer: Transfer<M>) -> bool {
        let (src, dst, seq) = (transfer.src(), transfer.dst(), transfer.seq());
        let reliable = self.reliable.read().clone();
        let reliable = match (seq, reliable) {
            (0, Some(_)) => {
                self.stats.wire_rejects.inc();
                return false;
            }
            (0, None) => None,
            (_, rel) => rel,
        };
        if let Some(rel) = &reliable {
            if !rel.first_delivery(src, dst, seq) {
                self.stats.dup_drops.inc();
                // A duplicate means an earlier copy was delivered but its
                // ack never made it back; re-ack if the path healed.
                rel.note_ack(src, dst, seq);
                // The suppressed copy's chunk buffer is still good.
                rel.recycle_transfer(transfer, &self.stats);
                return true;
            }
        }
        let payload_count = transfer.payload_count();
        let pushed = match self.senders.get(dst.index()) {
            Some(tx) => match transfer {
                Transfer::Single(env) => tx.send(env).is_ok(),
                Transfer::Batch(mut batch) => {
                    let mut ok = true;
                    for (class, payload) in batch.payloads.drain(..) {
                        ok &= tx
                            .send(Envelope {
                                src,
                                dst,
                                class,
                                seq,
                                payload,
                            })
                            .is_ok();
                    }
                    // Delivery-unpack recycle point: the payloads moved
                    // into mailbox envelopes; the drained chunk buffer
                    // goes back to the pool.
                    if let Some(rel) = &reliable {
                        rel.recycle_chunk(batch.payloads, &self.stats);
                    }
                    ok
                }
            },
            None => false,
        };
        if !pushed {
            // Dead node: roll the dedupe entry back so retransmissions
            // keep probing (and eventually give the transfer up) instead
            // of being swallowed as duplicates of a delivery that never
            // happened.
            if let Some(rel) = &reliable {
                rel.unmark(src, dst, seq);
            }
            self.stats.dropped.inc();
            return false;
        }
        if let Some(rel) = &reliable {
            if payload_count > 1 {
                // A batch just landed; its responses (receipts) flow
                // dst → src shortly. Arm a response window so they ride
                // back coalesced instead of one by one.
                rel.arm_response_window(dst, src, payload_count, clock::now());
            }
            rel.note_ack(src, dst, seq);
        }
        true
    }
}

/// The simulated cluster fabric.
///
/// Creates `n` nodes with unbounded mailboxes. The kernel takes each node's
/// receiving end once via [`Network::take_mailbox`]; everyone holding the
/// `Network` (usually via `Arc`) may send.
///
/// Local sends (`src == dst`) still traverse the mailbox — the kernel
/// short-circuits truly local work itself, so any message reaching the
/// fabric represents real communication and is counted by [`NetStats`].
///
/// By default the fabric is fire-and-forget: a send racing a cut link is
/// silently dropped (and counted). [`Network::enable_reliability`] turns
/// on acknowledged, retried transport with a heartbeat failure detector —
/// see the `reliable` module docs. With reliability on, co-destined
/// payloads coalesce into one wire hop of up to
/// [`ReliabilityConfig::batch_max`] payloads; see [`Network::send_many`].
pub struct Network<M: Send + 'static> {
    path: DeliveryPath<M>,
    mailboxes: Mutex<Vec<Option<Receiver<Envelope<M>>>>>,
    /// The transport backend carrying physical transmission attempts.
    fabric: Box<dyn Fabric<M>>,
    multicast: MulticastRegistry,
    /// Shared (not merely owned) because wire-liveness fabrics hold a
    /// clone: their receive threads stamp `note_heard` the moment
    /// reliability installs the detector.
    detector: Arc<RwLock<Option<Arc<FailureDetector>>>>,
    /// Peers that recently shed on this fabric's behalf, each with the
    /// instant its backpressure expires. Senders consult this to shed
    /// sheddable traffic at the source instead of feeding an overloaded
    /// peer (the signal itself rides delivery receipts, not extra wire
    /// traffic).
    pressure: Mutex<HashMap<NodeId, Instant>>,
    /// Callbacks fired by the maintenance thread for each directed
    /// `(observer, peer)` pair the failure detector newly declares dead
    /// (kernels use this to fail pending remote calls without polling).
    death_watchers: Mutex<Vec<DeathWatcher>>,
}

/// A callback for newly-dead `(observer, peer)` detector verdicts.
type DeathWatcher = Box<dyn Fn(NodeId, NodeId) + Send + Sync>;

impl<M: Send + 'static> fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.path.senders.len())
            .field("fabric", &self.fabric.name())
            .field("reliable", &self.reliability_enabled())
            .finish_non_exhaustive()
    }
}

impl<M: WireMessage + Send + 'static> Network<M> {
    /// Create a simulated fabric of `nodes` nodes with the given latency
    /// model and unbound counters.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or the delay-line thread cannot spawn; use
    /// [`Network::try_with_fabric`] to handle spawn failure (and to bind
    /// the counters to a telemetry registry).
    pub fn new(nodes: usize, latency: LatencyModel) -> Self {
        Self::build(nodes, Arc::new(NetStats::new()), |path, _| {
            Ok(Box::new(SimFabric::new(path.clone(), latency)?))
        })
        .expect("spawn fabric worker threads")
    }

    /// Shared constructor: wire up the transport-independent state, then
    /// let `make_fabric` build the backend from the delivery path (and
    /// the shared detector slot, for backends that stamp liveness).
    fn build(
        nodes: usize,
        stats: Arc<NetStats>,
        make_fabric: impl FnOnce(
            &DeliveryPath<M>,
            &Arc<RwLock<Option<Arc<FailureDetector>>>>,
        ) -> Result<Box<dyn Fabric<M>>, NetworkError>,
    ) -> Result<Self, NetworkError> {
        assert!(nodes > 0, "a cluster needs at least one node");
        let mut senders = Vec::with_capacity(nodes);
        let mut receivers = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let path = DeliveryPath {
            senders,
            stats,
            links: Arc::new(RwLock::new(vec![vec![true; nodes]; nodes])),
            reliable: Arc::new(RwLock::new(None)),
        };
        let detector = Arc::new(RwLock::new(None));
        let fabric = make_fabric(&path, &detector)?;
        Ok(Network {
            path,
            mailboxes: Mutex::new(receivers),
            fabric,
            multicast: MulticastRegistry::new(),
            detector,
            pressure: Mutex::new(HashMap::new()),
            death_watchers: Mutex::new(Vec::new()),
        })
    }
}

impl<M: WireMessage + WireCodec + Send + 'static> Network<M> {
    /// Create a fabric on an explicit backend ([`FabricSpec`]) whose
    /// counters live in `stats` (typically [`NetStats::bound`] to a
    /// telemetry registry, so network traffic shows up in metric
    /// snapshots). The `WireCodec` bound exists because the UDP backend
    /// must be able to put `M` on a real wire; [`Network::new`] stays
    /// available for codec-less payload types on the simulated backend.
    ///
    /// # Errors
    ///
    /// [`NetworkError::InvalidConfig`] for a malformed UDP peer/socket
    /// table, [`NetworkError::SpawnFailed`] if a backend worker thread
    /// cannot be spawned.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn try_with_fabric(
        nodes: usize,
        spec: FabricSpec,
        stats: Arc<NetStats>,
    ) -> Result<Self, NetworkError> {
        Self::build(nodes, stats, |path, detector| match spec {
            FabricSpec::Sim(latency) => Ok(Box::new(SimFabric::new(path.clone(), latency)?)),
            FabricSpec::Udp(cfg) => Ok(Box::new(crate::udp::UdpFabric::new(
                cfg,
                path.clone(),
                Arc::clone(detector),
            )?)),
        })
    }
}

impl<M: Send + 'static> Network<M> {
    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.path.senders.len()
    }

    /// All node ids, `n0..`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.path.senders.len() as u32).map(NodeId)
    }

    /// Shared statistics counters.
    pub fn stats(&self) -> &NetStats {
        &self.path.stats
    }

    /// Multicast group membership service.
    pub fn multicast_registry(&self) -> &MulticastRegistry {
        &self.multicast
    }

    /// Take node `node`'s mailbox receiver. Each mailbox can be taken once.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] if `node` is out of range,
    /// [`NetworkError::MailboxTaken`] if already taken.
    pub fn take_mailbox(&self, node: NodeId) -> Result<Receiver<Envelope<M>>, NetworkError> {
        let mut boxes = self.mailboxes.lock();
        let slot = boxes
            .get_mut(node.index())
            .ok_or(NetworkError::UnknownNode(node))?;
        slot.take().ok_or(NetworkError::MailboxTaken(node))
    }

    fn check_node(&self, node: NodeId) -> Result<(), NetworkError> {
        if node.index() < self.path.senders.len() {
            Ok(())
        } else {
            Err(NetworkError::UnknownNode(node))
        }
    }

    /// Record a backpressure signal from `peer` (it shed a delivery):
    /// [`Network::peer_pressured`] reports `peer` as pressured for the
    /// next `hold`. Repeated signals extend the hold.
    pub fn note_backpressure(&self, peer: NodeId, hold: Duration) {
        self.path.stats.backpressure_signals.inc();
        let until = clock::now() + hold;
        let mut pressure = self.pressure.lock();
        let entry = pressure.entry(peer).or_insert(until);
        *entry = (*entry).max(until);
    }

    /// Whether `peer` signalled backpressure within its hold window.
    /// Expired entries are pruned on the way out.
    pub fn peer_pressured(&self, peer: NodeId) -> bool {
        let mut pressure = self.pressure.lock();
        match pressure.get(&peer) {
            Some(&until) if clock::now() < until => true,
            Some(_) => {
                pressure.remove(&peer);
                false
            }
            None => false,
        }
    }

    /// Whether [`Network::enable_reliability`] has been called.
    pub fn reliability_enabled(&self) -> bool {
        self.path.reliable.read().is_some()
    }

    /// Reliable transfers still awaiting acknowledgement (0 when the
    /// reliability layer is off).
    pub fn pending_reliable(&self) -> usize {
        self.path
            .reliable
            .read()
            .as_ref()
            .map(|r| r.inflight_len())
            .unwrap_or(0)
    }

    /// `observer`'s current verdict about `peer`, if a failure detector
    /// is running.
    pub fn peer_state(&self, observer: NodeId, peer: NodeId) -> Option<PeerState> {
        self.detector
            .read()
            .as_ref()
            .map(|d| d.state(observer, peer))
    }

    /// Register a callback invoked (from the maintenance thread) for each
    /// directed `(observer, peer)` pair the failure detector newly
    /// declares dead. Registration is expected at startup; callbacks run
    /// under the watcher list's lock, so they must not re-enter the
    /// fabric. Without reliability enabled no heartbeat round ever runs,
    /// so the watcher simply never fires.
    pub fn add_death_watcher(&self, watcher: impl Fn(NodeId, NodeId) + Send + Sync + 'static) {
        self.death_watchers.lock().push(Box::new(watcher));
    }

    /// Fan newly-dead detector verdicts out to the registered watchers.
    fn notify_deaths(&self, newly_dead: &[(NodeId, NodeId)]) {
        let watchers = self.death_watchers.lock();
        for &(observer, peer) in newly_dead {
            for w in watchers.iter() {
                w(observer, peer);
            }
        }
    }
}

impl<M: WireMessage + Clone + Send + 'static> Network<M> {
    /// Send one message from `src` to `dst`.
    ///
    /// Without the reliability layer this is fire-and-forget: a cut link
    /// or dead destination drops the message (counted) and the outcome
    /// says so. With [`Network::enable_reliability`] on, the payload is
    /// stamped with a sequence number and tracked until acknowledged, so
    /// `Sent` means "queued; the fabric will keep trying" — even across a
    /// link that is down right now. A reliable payload may ride a
    /// [`crate::BatchEnvelope`] with other co-destined traffic; a send
    /// into an idle direction always flushes immediately, so singleton
    /// sends pay no batching latency.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] if either endpoint is out of range.
    pub fn send(
        &self,
        src: NodeId,
        dst: NodeId,
        payload: M,
        class: MessageClass,
    ) -> Result<SendOutcome, NetworkError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        parking_lot::lockdep::blocking_point("net::send");
        let reliable = self.path.reliable.read().clone();
        match reliable {
            None => {
                if !self.path.link_up(src, dst) {
                    self.path.stats.dropped.inc();
                    return Ok(SendOutcome::DroppedLink);
                }
                self.path.stats.record_send(class, payload.wire_size());
                let env = Envelope {
                    src,
                    dst,
                    class,
                    seq: 0,
                    payload,
                };
                Ok(self.transmit(Transfer::Single(env)))
            }
            Some(rel) => {
                self.path.stats.record_send(class, payload.wire_size());
                let transfers =
                    rel.enqueue(src, dst, [(class, payload)], clock::now(), &self.path.stats);
                for t in transfers {
                    self.dispatch(t);
                }
                Ok(SendOutcome::Sent)
            }
        }
    }

    /// Send many co-destined payloads from `src` to `dst` in one call.
    ///
    /// With reliability on, the payloads coalesce into
    /// [`crate::BatchEnvelope`]s — one sequence number and one wire hop
    /// per `batch_max`-sized chunk — and share the batch's retransmission
    /// fate. On the best-effort fabric this degenerates to a
    /// [`Network::send`] per payload, and the worst per-payload outcome
    /// is returned.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] if either endpoint is out of range.
    pub fn send_many(
        &self,
        src: NodeId,
        dst: NodeId,
        items: Vec<(MessageClass, M)>,
    ) -> Result<SendOutcome, NetworkError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if items.is_empty() {
            return Ok(SendOutcome::Sent);
        }
        parking_lot::lockdep::blocking_point("net::send_many");
        let reliable = self.path.reliable.read().clone();
        match reliable {
            Some(rel) => {
                for (class, payload) in &items {
                    self.path.stats.record_send(*class, payload.wire_size());
                }
                let transfers = rel.enqueue(src, dst, items, clock::now(), &self.path.stats);
                for t in transfers {
                    self.dispatch(t);
                }
                Ok(SendOutcome::Sent)
            }
            None => {
                let mut worst = SendOutcome::Sent;
                for (class, payload) in items {
                    let outcome = self.send(src, dst, payload, class)?;
                    if !outcome.is_sent() {
                        worst = outcome;
                    }
                }
                Ok(worst)
            }
        }
    }

    /// [`Network::send`], additionally counted as a location-cache hint
    /// unicast (`net.hint_unicasts`): a single probe sent in place of a
    /// locator wave. Delivery semantics are identical to `send`.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] if either endpoint is out of range.
    pub fn send_hinted(
        &self,
        src: NodeId,
        dst: NodeId,
        payload: M,
        class: MessageClass,
    ) -> Result<SendOutcome, NetworkError> {
        self.path.stats.hint_unicasts.inc();
        self.send(src, dst, payload, class)
    }

    /// First transmission attempt of a tracked transfer: over the wire if
    /// the link is up, otherwise the attempt is lost (counted) and the
    /// retransmit queue keeps ownership.
    fn dispatch(&self, transfer: Transfer<M>) {
        if self.path.link_up(transfer.src(), transfer.dst()) {
            self.transmit(transfer);
        } else {
            self.path.stats.dropped.inc();
            // The lost attempt's chunk buffer is recycled; the
            // retransmit queue owns its own tracked copy.
            if let Some(rel) = self.path.reliable.read().clone() {
                rel.recycle_transfer(transfer, &self.path.stats);
            }
        }
    }

    /// One physical transmission attempt, delegated to the backend
    /// (delay line / direct mailbox push for sim, a datagram for UDP).
    /// Counts one wire message however many payloads ride the transfer.
    fn transmit(&self, transfer: Transfer<M>) -> SendOutcome {
        self.path.stats.wire_msgs.inc();
        self.fabric.transmit(transfer)
    }

    /// Switch the fabric to acknowledged, retried transport and start its
    /// maintenance thread (batch-window flushes, cumulative ack flushes,
    /// retransmit scans, and heartbeat rounds for the failure detector).
    /// Idempotent: later calls are ignored.
    ///
    /// The maintenance thread sleeps until the earliest pending deadline
    /// (retransmit backoff, batch window, or heartbeat), capped at one
    /// `tick`, and is woken early when new work arrives — a 5ms backoff
    /// fires in ~5ms even under a long tick. It holds only a weak
    /// reference to the network and exits once the last `Arc` is gone, so
    /// enabling reliability never keeps a cluster alive.
    ///
    /// # Errors
    ///
    /// [`NetworkError::InvalidConfig`] if `cfg` fails
    /// [`ReliabilityConfig::validate`] (e.g. a `dedupe_window` smaller
    /// than the retransmit window, which would risk duplicate delivery);
    /// [`NetworkError::SpawnFailed`] if the maintenance thread cannot be
    /// spawned (the fabric stays unreliable and can be retried).
    pub fn enable_reliability(
        self: &Arc<Self>,
        cfg: ReliabilityConfig,
        failure: FailureConfig,
    ) -> Result<(), NetworkError> {
        cfg.validate().map_err(NetworkError::InvalidConfig)?;
        let rel = {
            let mut slot = self.path.reliable.write();
            if slot.is_some() {
                return Ok(());
            }
            let rel = Arc::new(ReliableState::new(cfg));
            *slot = Some(Arc::clone(&rel));
            rel
        };
        let stats = &self.path.stats;
        let detector = Arc::new(FailureDetector::new(
            self.node_count(),
            failure,
            stats.heartbeats.clone(),
            stats.suspects.clone(),
            stats.deaths.clone(),
        ));
        *self.detector.write() = Some(Arc::clone(&detector));

        let weak = Arc::downgrade(self);
        let spawned = std::thread::Builder::new()
            .name("doct-net-reliability".into())
            .spawn(move || {
                let mut last_heartbeat = clock::now();
                loop {
                    // Sleep until the next deadline — the earliest
                    // retransmit/batch-window instant or the heartbeat —
                    // capped at one tick; notify() wakes us early when
                    // new work may move the deadline forward.
                    let now = clock::now();
                    let mut deadline =
                        (now + cfg.tick).min(last_heartbeat + cfg.heartbeat_interval);
                    if let Some(d) = rel.earliest_deadline() {
                        deadline = deadline.min(d);
                    }
                    if deadline > now && !rel.has_pending_acks() {
                        rel.wait_for_work(deadline);
                    }
                    let Some(net) = weak.upgrade() else { return };
                    let now = clock::now();
                    for transfer in rel.take_due_batches(now, &net.path.stats) {
                        net.dispatch(transfer);
                    }
                    rel.flush_acks(|a, b| net.path.link_up(a, b), &net.path.stats);
                    let (due, given_up) = rel.take_due(now);
                    for transfer in due {
                        net.path.stats.retransmits.inc();
                        if net.path.link_up(transfer.src(), transfer.dst()) {
                            net.transmit(transfer);
                        } else {
                            net.path.stats.dropped.inc();
                            // The undeliverable copy's chunk goes back
                            // to the pool; the tracked entry survives.
                            rel.recycle_transfer(transfer, &net.path.stats);
                        }
                    }
                    for transfer in given_up {
                        net.path.stats.giveups.inc();
                        detector.note_unreachable(transfer.src(), transfer.dst());
                        // Abandoned entries retire their chunk buffers.
                        rel.recycle_transfer(transfer, &net.path.stats);
                    }
                    if now.saturating_duration_since(last_heartbeat) >= cfg.heartbeat_interval {
                        last_heartbeat = now;
                        // Wire-liveness backends exchange real probe
                        // datagrams (arrivals stamp `note_heard` on the
                        // receive path) and age from genuine receive
                        // timestamps; the simulated backend derives
                        // liveness from the link matrix.
                        let newly_dead = match net.fabric.wire_liveness() {
                            Some(local) => {
                                net.fabric.send_heartbeats();
                                detector.wire_round(&local)
                            }
                            None => detector.heartbeat_round(|a, b| net.path.link_up(a, b)),
                        };
                        if !newly_dead.is_empty() {
                            net.notify_deaths(&newly_dead);
                        }
                    }
                }
            });
        if spawned.is_err() {
            // Roll back so the fabric is observably unreliable and a
            // later retry can succeed.
            *self.path.reliable.write() = None;
            *self.detector.write() = None;
            return Err(NetworkError::SpawnFailed("doct-net-reliability"));
        }
        Ok(())
    }

    /// Send `payload` to every node except `src`.
    ///
    /// This is the "communication intensive and wasteful" option of §7.1;
    /// it costs `n - 1` messages, all counted in `class`, plus one broadcast
    /// operation in the stats.
    ///
    /// The last destination takes the payload by move and the rest get
    /// clones — with [`crate::Bytes`] payloads every destination shares
    /// one buffer, so the whole fan-out copies zero payload bytes.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] if `src` is out of range.
    pub fn broadcast(
        &self,
        src: NodeId,
        payload: M,
        class: MessageClass,
    ) -> Result<usize, NetworkError> {
        self.check_node(src)?;
        self.path.stats.broadcasts.inc();
        let dsts: Vec<NodeId> = self.nodes().filter(|&dst| dst != src).collect();
        self.fan_out(src, dsts, payload, class)
    }

    /// Send `payload` to every current member node of `group` except `src`.
    ///
    /// Shares one payload buffer across destinations exactly like
    /// [`Network::broadcast`].
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] if `src` is out of range.
    pub fn multicast(
        &self,
        src: NodeId,
        group: MulticastGroupId,
        payload: M,
        class: MessageClass,
    ) -> Result<usize, NetworkError> {
        self.check_node(src)?;
        self.path.stats.multicasts.inc();
        let dsts: Vec<NodeId> = self
            .multicast
            .members(group)
            .into_iter()
            .filter(|&dst| dst != src)
            .collect();
        self.fan_out(src, dsts, payload, class)
    }

    /// One payload to many destinations: clones for all but the last,
    /// which takes the original by move. Clones of a [`crate::Bytes`]
    /// payload are refcount bumps, so this never copies payload bytes.
    fn fan_out(
        &self,
        src: NodeId,
        dsts: Vec<NodeId>,
        payload: M,
        class: MessageClass,
    ) -> Result<usize, NetworkError> {
        let mut delivered = 0;
        let mut dsts = dsts.into_iter();
        let last = dsts.next_back();
        for dst in dsts {
            // doct-lint: allow(payload-clone-in-hot-path) refcount bump on shared Bytes
            if self.send(src, dst, payload.clone(), class)?.is_sent() {
                delivered += 1;
            }
        }
        if let Some(dst) = last {
            if self.send(src, dst, payload, class)?.is_sent() {
                delivered += 1;
            }
        }
        Ok(delivered)
    }
}

impl<M: Send + 'static> Network<M> {
    /// Set the (symmetric) link between `a` and `b` up or down.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] if either endpoint is out of range.
    pub fn set_link(&self, a: NodeId, b: NodeId, up: bool) -> Result<(), NetworkError> {
        let n = self.path.senders.len();
        if a.index() >= n {
            return Err(NetworkError::UnknownNode(a));
        }
        if b.index() >= n {
            return Err(NetworkError::UnknownNode(b));
        }
        let mut links = self.path.links.write();
        links[a.index()][b.index()] = up;
        links[b.index()][a.index()] = up;
        Ok(())
    }

    /// Set only the `a`→`b` direction up or down, leaving `b`→`a` alone.
    /// Asymmetric cuts are how acks get lost while data still flows.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] if either endpoint is out of range.
    pub fn set_link_one_way(&self, a: NodeId, b: NodeId, up: bool) -> Result<(), NetworkError> {
        let n = self.path.senders.len();
        if a.index() >= n {
            return Err(NetworkError::UnknownNode(a));
        }
        if b.index() >= n {
            return Err(NetworkError::UnknownNode(b));
        }
        self.path.links.write()[a.index()][b.index()] = up;
        Ok(())
    }

    /// Cut every link between `island` and the rest of the cluster.
    ///
    /// # Errors
    ///
    /// [`NetworkError::UnknownNode`] if any listed node is out of range.
    pub fn isolate(&self, island: &[NodeId]) -> Result<(), NetworkError> {
        let n = self.path.senders.len();
        for &node in island {
            if node.index() >= n {
                return Err(NetworkError::UnknownNode(node));
            }
        }
        let mut links = self.path.links.write();
        for a in 0..n {
            for b in 0..n {
                let a_in = island.iter().any(|x| x.index() == a);
                let b_in = island.iter().any(|x| x.index() == b);
                if a_in != b_in {
                    links[a][b] = false;
                }
            }
        }
        Ok(())
    }

    /// Restore every link.
    pub fn heal(&self) {
        let mut links = self.path.links.write();
        for row in links.iter_mut() {
            for cell in row.iter_mut() {
                *cell = true;
            }
        }
    }

    /// Whether messages can currently flow from `a` to `b`.
    pub fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        self.path.link_up(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn net(n: usize) -> Network<String> {
        Network::new(n, LatencyModel::Zero)
    }

    #[test]
    fn unicast_delivers_payload_and_metadata() {
        let net = net(2);
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        net.send(NodeId(0), NodeId(1), "x".into(), MessageClass::Event)
            .unwrap();
        let env = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.src, NodeId(0));
        assert_eq!(env.dst, NodeId(1));
        assert_eq!(env.class, MessageClass::Event);
        assert_eq!(env.seq, 0, "best-effort traffic is unsequenced");
        assert_eq!(env.payload, "x");
    }

    #[test]
    fn backpressure_holds_then_expires() {
        let net = net(3);
        assert!(!net.peer_pressured(NodeId(1)), "no signal yet");
        net.note_backpressure(NodeId(1), Duration::from_secs(60));
        assert!(net.peer_pressured(NodeId(1)));
        assert!(!net.peer_pressured(NodeId(2)), "per-peer, not global");
        net.note_backpressure(NodeId(2), Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!net.peer_pressured(NodeId(2)), "hold expired");
        assert!(net.peer_pressured(NodeId(1)), "longer hold still active");
        assert_eq!(net.stats().backpressure_signals.get(), 2);
    }

    #[test]
    fn mailbox_can_only_be_taken_once() {
        let net = net(1);
        assert!(net.take_mailbox(NodeId(0)).is_ok());
        assert_eq!(
            net.take_mailbox(NodeId(0)).unwrap_err(),
            NetworkError::MailboxTaken(NodeId(0))
        );
    }

    #[test]
    fn unknown_nodes_are_rejected() {
        let net = net(2);
        assert_eq!(
            net.send(NodeId(0), NodeId(9), "x".into(), MessageClass::Data)
                .unwrap_err(),
            NetworkError::UnknownNode(NodeId(9))
        );
        assert_eq!(
            net.send_many(NodeId(9), NodeId(0), vec![(MessageClass::Data, "x".into())])
                .unwrap_err(),
            NetworkError::UnknownNode(NodeId(9))
        );
        assert_eq!(
            net.take_mailbox(NodeId(9)).unwrap_err(),
            NetworkError::UnknownNode(NodeId(9))
        );
        assert!(net.set_link(NodeId(0), NodeId(9), false).is_err());
        assert!(net.set_link_one_way(NodeId(9), NodeId(0), false).is_err());
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let net = net(4);
        let boxes: Vec<_> = (0..4)
            .map(|i| net.take_mailbox(NodeId(i)).unwrap())
            .collect();
        let delivered = net
            .broadcast(NodeId(2), "b".into(), MessageClass::Locate)
            .unwrap();
        assert_eq!(delivered, 3);
        for (i, rx) in boxes.iter().enumerate() {
            if i == 2 {
                assert!(rx.try_recv().is_err(), "sender must not hear broadcast");
            } else {
                assert_eq!(
                    rx.recv_timeout(Duration::from_secs(1)).unwrap().payload,
                    "b"
                );
            }
        }
        assert_eq!(net.stats().broadcasts.get(), 1);
        assert_eq!(net.stats().sent(MessageClass::Locate), 3);
    }

    #[test]
    fn multicast_reaches_current_members_only() {
        let net = net(4);
        let g = MulticastGroupId(1);
        net.multicast_registry().join(g, NodeId(1));
        net.multicast_registry().join(g, NodeId(3));
        let rx1 = net.take_mailbox(NodeId(1)).unwrap();
        let rx2 = net.take_mailbox(NodeId(2)).unwrap();
        let rx3 = net.take_mailbox(NodeId(3)).unwrap();
        let delivered = net
            .multicast(NodeId(0), g, "m".into(), MessageClass::Locate)
            .unwrap();
        assert_eq!(delivered, 2);
        assert!(rx1.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(rx3.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(rx2.try_recv().is_err());
        assert_eq!(net.stats().multicasts.get(), 1);
    }

    #[test]
    fn broadcast_and_multicast_share_one_payload_buffer() {
        use crate::Bytes;
        let _g = crate::bytes::counter_guard::lock();
        let net: Network<Bytes> = Network::new(4, LatencyModel::Zero);
        let g = MulticastGroupId(7);
        net.multicast_registry().join(g, NodeId(1));
        net.multicast_registry().join(g, NodeId(2));
        let boxes: Vec<_> = (0..4)
            .map(|i| net.take_mailbox(NodeId(i)).unwrap())
            .collect();
        let payload = Bytes::from_vec(vec![0xAB; 4096]);
        let before = Bytes::deep_copied_bytes();
        let delivered = net
            .broadcast(NodeId(0), payload.clone(), MessageClass::Event)
            .unwrap();
        assert_eq!(delivered, 3);
        for rx in &boxes[1..] {
            let env = rx.recv_timeout(Duration::from_secs(1)).unwrap();
            assert!(
                Bytes::ptr_eq(&payload, &env.payload),
                "fan-out must be a refcount bump, not a byte copy"
            );
        }
        let delivered = net
            .multicast(NodeId(0), g, payload.clone(), MessageClass::Event)
            .unwrap();
        assert_eq!(delivered, 2);
        for rx in &boxes[1..3] {
            let env = rx.recv_timeout(Duration::from_secs(1)).unwrap();
            assert!(Bytes::ptr_eq(&payload, &env.payload));
        }
        assert_eq!(
            Bytes::deep_copied_bytes(),
            before,
            "five deliveries, zero payload bytes copied"
        );
    }

    #[test]
    fn multicast_skips_the_sender_node() {
        let net = net(2);
        let g = MulticastGroupId(7);
        net.multicast_registry().join(g, NodeId(0));
        net.multicast_registry().join(g, NodeId(1));
        let rx0 = net.take_mailbox(NodeId(0)).unwrap();
        let delivered = net
            .multicast(NodeId(0), g, "m".into(), MessageClass::Locate)
            .unwrap();
        assert_eq!(delivered, 1);
        assert!(rx0.try_recv().is_err());
    }

    #[test]
    fn cut_link_drops_messages_and_counts_them() {
        let net = net(2);
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        net.set_link(NodeId(0), NodeId(1), false).unwrap();
        let outcome = net
            .send(NodeId(0), NodeId(1), "x".into(), MessageClass::Data)
            .unwrap();
        assert_eq!(outcome, SendOutcome::DroppedLink);
        assert!(rx.try_recv().is_err());
        assert_eq!(net.stats().dropped.get(), 1);
        assert_eq!(
            net.stats().snapshot().total_sent(),
            0,
            "drops are not sends"
        );
        net.heal();
        assert!(net
            .send(NodeId(0), NodeId(1), "x".into(), MessageClass::Data)
            .unwrap()
            .is_sent());
        assert!(rx.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn one_way_cut_only_blocks_one_direction() {
        let net = net(2);
        let rx0 = net.take_mailbox(NodeId(0)).unwrap();
        let rx1 = net.take_mailbox(NodeId(1)).unwrap();
        net.set_link_one_way(NodeId(0), NodeId(1), false).unwrap();
        assert!(!net.link_up(NodeId(0), NodeId(1)));
        assert!(net.link_up(NodeId(1), NodeId(0)));
        assert_eq!(
            net.send(NodeId(0), NodeId(1), "x".into(), MessageClass::Data)
                .unwrap(),
            SendOutcome::DroppedLink
        );
        assert!(net
            .send(NodeId(1), NodeId(0), "y".into(), MessageClass::Data)
            .unwrap()
            .is_sent());
        assert!(rx1.try_recv().is_err());
        assert_eq!(
            rx0.recv_timeout(Duration::from_secs(1)).unwrap().payload,
            "y"
        );
    }

    #[test]
    fn isolate_cuts_cross_island_links_both_ways() {
        let net = net(4);
        net.isolate(&[NodeId(0), NodeId(1)]).unwrap();
        assert!(net.link_up(NodeId(0), NodeId(1)));
        assert!(net.link_up(NodeId(2), NodeId(3)));
        assert!(!net.link_up(NodeId(0), NodeId(2)));
        assert!(!net.link_up(NodeId(3), NodeId(1)));
        net.heal();
        assert!(net.link_up(NodeId(0), NodeId(2)));
    }

    #[test]
    fn latency_model_delays_delivery() {
        let net: Network<String> = Network::new(2, LatencyModel::fixed_micros(20_000));
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        let t0 = crate::clock::now();
        net.send(NodeId(0), NodeId(1), "slow".into(), MessageClass::Data)
            .unwrap();
        let env = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(env.payload, "slow");
        assert!(t0.elapsed() >= Duration::from_millis(19));
    }

    #[test]
    fn send_to_dead_node_reports_drop() {
        let net = net(2);
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        drop(rx);
        let outcome = net
            .send(NodeId(0), NodeId(1), "x".into(), MessageClass::Data)
            .unwrap();
        assert_eq!(outcome, SendOutcome::DroppedDeadNode);
    }

    #[test]
    fn wire_msgs_count_physical_transmissions() {
        let net = net(2);
        let _rx = net.take_mailbox(NodeId(1)).unwrap();
        for _ in 0..3 {
            net.send(NodeId(0), NodeId(1), "x".into(), MessageClass::Data)
                .unwrap();
        }
        assert_eq!(net.stats().wire_msgs.get(), 3);
        net.set_link(NodeId(0), NodeId(1), false).unwrap();
        net.send(NodeId(0), NodeId(1), "x".into(), MessageClass::Data)
            .unwrap();
        assert_eq!(
            net.stats().wire_msgs.get(),
            3,
            "a link drop never hits the wire"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_is_rejected() {
        let _ = Network::<String>::new(0, LatencyModel::Zero);
    }
}

#[cfg(test)]
mod reliability_tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::time::Duration;

    /// Aggressive timings so tests finish fast; dedupe window stays at
    /// the default.
    pub(super) fn fast_cfg() -> ReliabilityConfig {
        ReliabilityConfig {
            max_retries: 50,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            jitter: Duration::from_millis(2),
            tick: Duration::from_millis(2),
            heartbeat_interval: Duration::from_millis(5),
            ..Default::default()
        }
    }

    pub(super) fn fast_failure() -> FailureConfig {
        FailureConfig {
            suspect_after: Duration::from_millis(40),
            dead_after: Duration::from_millis(120),
        }
    }

    pub(super) fn reliable_net(n: usize) -> Arc<Network<String>> {
        let net = Arc::new(Network::new(n, LatencyModel::Zero));
        net.enable_reliability(fast_cfg(), fast_failure()).unwrap();
        net
    }

    pub(super) fn await_cond(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let t0 = crate::clock::now();
        while t0.elapsed() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    #[test]
    fn enable_is_idempotent_and_observable() {
        let net = reliable_net(2);
        assert!(net.reliability_enabled());
        net.enable_reliability(fast_cfg(), fast_failure()).unwrap();
        assert_eq!(net.peer_state(NodeId(0), NodeId(1)), Some(PeerState::Alive));
    }

    #[test]
    fn undersized_dedupe_window_is_rejected_at_enable_time() {
        let net = Arc::new(Network::<String>::new(2, LatencyModel::Zero));
        let err = net
            .enable_reliability(
                ReliabilityConfig {
                    max_retries: 8,
                    dedupe_window: 16, // needs 4 * (8 + 1) = 36
                    ..Default::default()
                },
                fast_failure(),
            )
            .unwrap_err();
        assert!(matches!(err, NetworkError::InvalidConfig(_)), "got {err}");
        assert!(
            !net.reliability_enabled(),
            "a rejected config must not half-enable the layer"
        );
        // A fixed config still goes through afterwards.
        net.enable_reliability(fast_cfg(), fast_failure()).unwrap();
        assert!(net.reliability_enabled());
    }

    #[test]
    fn reliable_send_is_acked_and_retired() {
        let net = reliable_net(2);
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        net.send(NodeId(0), NodeId(1), "r".into(), MessageClass::Data)
            .unwrap();
        let env = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_ne!(env.seq, 0, "reliable traffic is sequenced");
        assert!(await_cond(Duration::from_secs(2), || {
            net.pending_reliable() == 0
        }));
        assert_eq!(net.stats().acks.get(), 1);
        assert_eq!(net.stats().ack_latency.count(), 1);
    }

    #[test]
    fn retransmit_carries_a_send_across_a_partition() {
        let net = reliable_net(2);
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        net.set_link(NodeId(0), NodeId(1), false).unwrap();
        let outcome = net
            .send(NodeId(0), NodeId(1), "survivor".into(), MessageClass::Data)
            .unwrap();
        assert_eq!(
            outcome,
            SendOutcome::Sent,
            "reliable send queues, not drops"
        );
        std::thread::sleep(Duration::from_millis(60));
        assert!(rx.try_recv().is_err(), "nothing crosses a cut link");
        assert!(net.stats().retransmits.get() > 0, "the queue kept trying");
        net.heal();
        let env = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(env.payload, "survivor");
        assert!(await_cond(Duration::from_secs(2), || {
            net.pending_reliable() == 0
        }));
        // Exactly one copy reached the kernel-facing mailbox.
        std::thread::sleep(Duration::from_millis(50));
        assert!(rx.try_recv().is_err(), "duplicates must be suppressed");
    }

    #[test]
    fn lost_acks_cause_dup_drops_not_redelivery() {
        let net = reliable_net(2);
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        // Data flows 0→1 but the reverse path is down, so acks are lost.
        net.set_link_one_way(NodeId(1), NodeId(0), false).unwrap();
        net.send(NodeId(0), NodeId(1), "once".into(), MessageClass::Data)
            .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap().payload,
            "once"
        );
        assert!(
            await_cond(Duration::from_secs(2), || net.stats().dup_drops.get() > 0),
            "unacked envelope is retransmitted and suppressed as duplicate"
        );
        assert!(rx.try_recv().is_err(), "the kernel never sees the dups");
        assert_eq!(net.pending_reliable(), 1, "still awaiting its ack");
        // Heal the reverse path: the next duplicate re-acks and retires it.
        net.set_link_one_way(NodeId(1), NodeId(0), true).unwrap();
        assert!(await_cond(Duration::from_secs(2), || {
            net.pending_reliable() == 0
        }));
        assert!(net.stats().acks.get() >= 1);
    }

    #[test]
    fn exhausted_retries_give_up_and_suspect_the_peer() {
        let net = Arc::new(Network::<String>::new(2, LatencyModel::Zero));
        net.enable_reliability(
            ReliabilityConfig {
                max_retries: 2,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(4),
                jitter: Duration::from_millis(1),
                tick: Duration::from_millis(2),
                // Keep heartbeats quiet so the verdict we observe comes
                // from the giveup path.
                heartbeat_interval: Duration::from_secs(3600),
                ..Default::default()
            },
            fast_failure(),
        )
        .unwrap();
        let _rx = net.take_mailbox(NodeId(1)).unwrap();
        net.set_link(NodeId(0), NodeId(1), false).unwrap();
        net.send(NodeId(0), NodeId(1), "doomed".into(), MessageClass::Data)
            .unwrap();
        assert!(
            await_cond(Duration::from_secs(2), || net.stats().giveups.get() == 1),
            "entry abandoned after max_retries"
        );
        assert_eq!(net.pending_reliable(), 0);
        assert_eq!(
            net.peer_state(NodeId(0), NodeId(1)),
            Some(PeerState::Suspected),
            "giveup feeds the failure detector"
        );
        assert_eq!(
            net.peer_state(NodeId(1), NodeId(0)),
            Some(PeerState::Alive),
            "only the observer that failed to reach the peer suspects it"
        );
    }

    #[test]
    fn maintenance_wakes_for_early_deadlines_not_just_ticks() {
        // A deliberately glacial tick: if the maintenance thread slept a
        // fixed tick, the 5ms backoff would wait out a full second.
        let net = Arc::new(Network::<String>::new(2, LatencyModel::Zero));
        net.enable_reliability(
            ReliabilityConfig {
                tick: Duration::from_secs(1),
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(10),
                jitter: Duration::from_millis(1),
                heartbeat_interval: Duration::from_secs(3600),
                ..Default::default()
            },
            fast_failure(),
        )
        .unwrap();
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        net.set_link(NodeId(0), NodeId(1), false).unwrap();
        net.send(NodeId(0), NodeId(1), "early".into(), MessageClass::Data)
            .unwrap();
        net.heal();
        let t0 = crate::clock::now();
        let env = rx.recv_timeout(Duration::from_secs(3)).unwrap();
        assert_eq!(env.payload, "early");
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "retransmit must fire at its ~5ms backoff deadline, not the 1s \
             tick; took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn heartbeats_mark_partitioned_peers_dead_then_revive_on_heal() {
        let net = reliable_net(3);
        net.isolate(&[NodeId(2)]).unwrap();
        assert!(
            await_cond(Duration::from_secs(3), || {
                net.peer_state(NodeId(0), NodeId(2)) == Some(PeerState::Dead)
                    && net.peer_state(NodeId(2), NodeId(0)) == Some(PeerState::Dead)
            }),
            "silence past dead_after becomes a Dead verdict"
        );
        assert_eq!(
            net.peer_state(NodeId(0), NodeId(1)),
            Some(PeerState::Alive),
            "nodes on the same side stay alive"
        );
        assert!(net.stats().suspects.get() >= 2);
        assert!(net.stats().deaths.get() >= 2);
        net.heal();
        assert!(
            await_cond(Duration::from_secs(3), || {
                net.peer_state(NodeId(0), NodeId(2)) == Some(PeerState::Alive)
            }),
            "healed links revive the peer"
        );
    }

    #[test]
    fn reliable_traffic_over_latency_still_dedupes() {
        let net: Arc<Network<u64>> =
            Arc::new(Network::new(2, LatencyModel::uniform_micros(10, 300)));
        net.enable_reliability(fast_cfg(), fast_failure()).unwrap();
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        for i in 0..50u64 {
            net.send(NodeId(0), NodeId(1), i, MessageClass::Data)
                .unwrap();
        }
        let mut got: Vec<u64> = (0..50)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap().payload)
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<u64>>());
        assert!(await_cond(Duration::from_secs(5), || {
            net.pending_reliable() == 0
        }));
        // Whatever was retransmitted while acks raced, nothing extra
        // surfaced in the mailbox.
        std::thread::sleep(Duration::from_millis(50));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn send_many_coalesces_into_one_wire_message() {
        let net = reliable_net(2);
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        let items: Vec<(MessageClass, String)> = (0..5)
            .map(|i| (MessageClass::Locate, format!("p{i}")))
            .collect();
        net.send_many(NodeId(0), NodeId(1), items).unwrap();
        let got: Vec<_> = (0..5)
            .map(|_| rx.recv_timeout(Duration::from_secs(1)).unwrap())
            .collect();
        assert_eq!(
            net.stats().wire_msgs.get(),
            1,
            "five payloads, one wire hop"
        );
        assert_eq!(net.stats().batches_sent.get(), 1);
        assert_eq!(net.stats().batch_fill.max_ns(), 5);
        let seqs: HashSet<u64> = got.iter().map(|e| e.seq).collect();
        assert_eq!(seqs.len(), 1, "all payloads share the batch seq");
        let payloads: HashSet<String> = got.into_iter().map(|e| e.payload).collect();
        assert_eq!(payloads.len(), 5, "every payload surfaced");
        assert!(await_cond(Duration::from_secs(2), || {
            net.pending_reliable() == 0
        }));
        assert_eq!(net.stats().acks.get(), 1, "one ack retires the whole batch");
    }

    #[test]
    fn batch_max_one_sends_each_payload_separately() {
        let net = Arc::new(Network::<String>::new(2, LatencyModel::Zero));
        let off = ReliabilityConfig {
            batch_max: 1,
            ..fast_cfg()
        };
        net.enable_reliability(off, fast_failure()).unwrap();
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        let items: Vec<(MessageClass, String)> = (0..5)
            .map(|i| (MessageClass::Locate, format!("p{i}")))
            .collect();
        net.send_many(NodeId(0), NodeId(1), items).unwrap();
        for _ in 0..5 {
            rx.recv_timeout(Duration::from_secs(1)).unwrap();
        }
        assert_eq!(
            net.stats().wire_msgs.get(),
            5,
            "ablation: one hop per payload"
        );
        assert_eq!(net.stats().batches_sent.get(), 0);
        assert!(await_cond(Duration::from_secs(2), || {
            net.pending_reliable() == 0
        }));
    }

    #[test]
    fn retransmitted_batch_is_suppressed_whole() {
        let net = reliable_net(2);
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        // Acks are lost on the cut reverse path, so the batch retransmits.
        net.set_link_one_way(NodeId(1), NodeId(0), false).unwrap();
        let items: Vec<(MessageClass, String)> = (0..3)
            .map(|i| (MessageClass::Event, format!("e{i}")))
            .collect();
        net.send_many(NodeId(0), NodeId(1), items).unwrap();
        for _ in 0..3 {
            rx.recv_timeout(Duration::from_secs(1)).unwrap();
        }
        assert!(
            await_cond(Duration::from_secs(2), || net.stats().dup_drops.get() > 0),
            "retransmitted batch suppressed by its single seq"
        );
        assert!(
            rx.try_recv().is_err(),
            "no payload from the duplicate batch surfaced"
        );
        net.set_link_one_way(NodeId(1), NodeId(0), true).unwrap();
        assert!(await_cond(Duration::from_secs(2), || {
            net.pending_reliable() == 0
        }));
    }

    #[test]
    fn pool_recycles_across_heal_without_corrupting_retransmits() {
        use crate::Bytes;
        let net = Arc::new(Network::<Bytes>::new(3, LatencyModel::Zero));
        net.enable_reliability(fast_cfg(), fast_failure()).unwrap();
        let rx1 = net.take_mailbox(NodeId(1)).unwrap();
        let rx2 = net.take_mailbox(NodeId(2)).unwrap();
        // A batch to n1 sits inflight across a cut link, retransmitting.
        net.set_link(NodeId(0), NodeId(1), false).unwrap();
        let stuck: Vec<(MessageClass, Bytes)> = (0..3)
            .map(|i| (MessageClass::Event, Bytes::from_vec(vec![i as u8; 64])))
            .collect();
        net.send_many(NodeId(0), NodeId(1), stuck).unwrap();
        // Meanwhile healthy traffic to n2 churns the chunk pool: every
        // delivered batch recycles its transmitted chunk and every ack
        // retires the tracked copy.
        for round in 0..10u8 {
            let items: Vec<(MessageClass, Bytes)> = (0..4u8)
                .map(|i| {
                    (
                        MessageClass::Data,
                        Bytes::from_vec(vec![round * 10 + i; 32]),
                    )
                })
                .collect();
            net.send_many(NodeId(0), NodeId(2), items).unwrap();
            for _ in 0..4 {
                rx2.recv_timeout(Duration::from_secs(1)).unwrap();
            }
        }
        assert!(
            net.stats().pool_hits.get() > 0,
            "churn reused pooled chunks"
        );
        assert!(net.stats().pool_recycled.get() > 0);
        // Heal: the stuck batch's retransmit must still carry its
        // original payloads even though the pool recycled dozens of
        // buffers in between — a recycled slot never aliases a batch
        // still awaiting its ack.
        net.heal();
        let mut got: Vec<Vec<u8>> = (0..3)
            .map(|_| {
                rx1.recv_timeout(Duration::from_secs(2))
                    .unwrap()
                    .payload
                    .as_slice()
                    .to_vec()
            })
            .collect();
        got.sort();
        assert_eq!(got, vec![vec![0u8; 64], vec![1u8; 64], vec![2u8; 64]]);
        assert!(await_cond(Duration::from_secs(2), || {
            net.pending_reliable() == 0
        }));
    }

    #[test]
    fn singleton_sends_skip_batching_latency() {
        // With no response window armed, a lone send must hit the wire
        // inline — not wait for a batch deadline or maintenance tick.
        let net = reliable_net(2);
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        let t0 = crate::clock::now();
        net.send(NodeId(0), NodeId(1), "solo".into(), MessageClass::Data)
            .unwrap();
        let env = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.payload, "solo");
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "singleton flush was not immediate: {:?}",
            t0.elapsed()
        );
        assert_eq!(net.stats().batches_sent.get(), 0);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn many_concurrent_senders_lose_nothing() {
        const SENDERS: usize = 8;
        const PER_SENDER: usize = 500;
        let net: Arc<Network<u64>> = Arc::new(Network::new(2, LatencyModel::Zero));
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        let mut joins = Vec::new();
        for s in 0..SENDERS {
            let net = Arc::clone(&net);
            joins.push(std::thread::spawn(move || {
                for i in 0..PER_SENDER {
                    net.send(
                        NodeId(0),
                        NodeId(1),
                        (s * PER_SENDER + i) as u64,
                        MessageClass::Data,
                    )
                    .unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut got = Vec::with_capacity(SENDERS * PER_SENDER);
        for _ in 0..SENDERS * PER_SENDER {
            got.push(rx.recv_timeout(Duration::from_secs(5)).unwrap().payload);
        }
        got.sort_unstable();
        let expected: Vec<u64> = (0..(SENDERS * PER_SENDER) as u64).collect();
        assert_eq!(got, expected, "every message delivered exactly once");
        assert_eq!(
            net.stats().sent(MessageClass::Data) as usize,
            SENDERS * PER_SENDER
        );
    }

    #[test]
    fn jittered_latency_still_delivers_everything() {
        let net: Arc<Network<u64>> =
            Arc::new(Network::new(2, LatencyModel::uniform_micros(10, 500)));
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        for i in 0..200u64 {
            net.send(NodeId(0), NodeId(1), i, MessageClass::Data)
                .unwrap();
        }
        let mut got: Vec<u64> = (0..200)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap().payload)
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn fixed_latency_preserves_fifo_per_link() {
        let net: Arc<Network<u64>> = Arc::new(Network::new(2, LatencyModel::fixed_micros(200)));
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        for i in 0..100u64 {
            net.send(NodeId(0), NodeId(1), i, MessageClass::Data)
                .unwrap();
        }
        let got: Vec<u64> = (0..100)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap().payload)
            .collect();
        assert_eq!(
            got,
            (0..100).collect::<Vec<u64>>(),
            "constant delay keeps order"
        );
    }
}

#[cfg(test)]
mod udp_tests {
    use super::reliability_tests::{await_cond, fast_cfg, fast_failure, reliable_net};
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn hostile_zero_seq_reliable_traffic_is_rejected() {
        // Regression: a hostile/buggy peer crafting transfers that claim
        // the best-effort `seq: 0` (trivial over a real socket) used to
        // bypass the dedupe window entirely; they must be rejected at
        // delivery admission instead.
        let rel = reliable_net(2);
        let rx = rel.take_mailbox(NodeId(1)).unwrap();
        let single = Transfer::Single(Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            class: MessageClass::Event,
            seq: 0,
            payload: "forged".to_string(),
        });
        assert!(!rel.path.deliver(single), "zero-seq single is rejected");
        let batch = Transfer::Batch(crate::BatchEnvelope {
            src: NodeId(0),
            dst: NodeId(1),
            seq: 0,
            payloads: vec![
                (MessageClass::Event, "forged-a".to_string()),
                (MessageClass::Event, "forged-b".to_string()),
            ],
        });
        assert!(!rel.path.deliver(batch), "zero-seq batch is rejected");
        assert_eq!(rel.stats().wire_rejects.get(), 2);
        assert!(
            rx.recv_timeout(Duration::from_millis(30)).is_err(),
            "no forged payload reaches the mailbox"
        );
    }

    #[test]
    fn zero_seq_stays_the_best_effort_path_without_reliability() {
        let plain: Network<String> = Network::new(2, LatencyModel::Zero);
        let rx = plain.take_mailbox(NodeId(1)).unwrap();
        plain
            .send(NodeId(0), NodeId(1), "fine".into(), MessageClass::Data)
            .unwrap();
        let env = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((env.seq, env.payload.as_str()), (0, "fine"));
        assert_eq!(plain.stats().wire_rejects.get(), 0);
    }

    fn udp_net(n: usize) -> Arc<Network<String>> {
        let cfg = crate::udp::UdpConfig::loopback(n).expect("bind loopback sockets");
        Arc::new(
            Network::try_with_fabric(n, FabricSpec::Udp(cfg), Arc::new(NetStats::new()))
                .expect("udp fabric"),
        )
    }

    #[test]
    fn udp_fabric_delivers_over_real_sockets() {
        let net = udp_net(2);
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        net.send(NodeId(0), NodeId(1), "over-udp".into(), MessageClass::Event)
            .unwrap();
        let env = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((env.src, env.payload.as_str()), (NodeId(0), "over-udp"));
        assert_eq!(net.stats().wire_msgs.get(), 1);
    }

    #[test]
    fn udp_fabric_retransmits_across_a_partition() {
        let net = udp_net(2);
        net.enable_reliability(fast_cfg(), fast_failure()).unwrap();
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        net.set_link(NodeId(0), NodeId(1), false).unwrap();
        net.send(NodeId(0), NodeId(1), "patient".into(), MessageClass::Event)
            .unwrap();
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "a cut link must not deliver, even over loopback"
        );
        net.heal();
        let env = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("retransmission crosses the healed link");
        assert_eq!(env.payload, "patient");
    }

    #[test]
    fn udp_heartbeats_drive_the_detector_through_partition_and_heal() {
        let net = udp_net(2);
        net.enable_reliability(fast_cfg(), fast_failure()).unwrap();
        let _rx0 = net.take_mailbox(NodeId(0)).unwrap();
        let _rx1 = net.take_mailbox(NodeId(1)).unwrap();
        assert!(
            await_cond(Duration::from_secs(5), || net.stats().heartbeats.get() > 0),
            "real probe datagrams are exchanged"
        );
        net.set_link(NodeId(0), NodeId(1), false).unwrap();
        assert!(
            await_cond(Duration::from_secs(5), || {
                net.peer_state(NodeId(0), NodeId(1)) == Some(PeerState::Dead)
            }),
            "silence over real sockets ages the peer to dead"
        );
        net.heal();
        assert!(
            await_cond(Duration::from_secs(5), || {
                net.peer_state(NodeId(0), NodeId(1)) == Some(PeerState::Alive)
            }),
            "heartbeats resume after heal and revive the verdict"
        );
    }

    #[test]
    fn udp_garbage_datagrams_are_counted_not_fatal() {
        use std::net::UdpSocket;
        let cfg = crate::udp::UdpConfig::loopback(2).expect("bind");
        let victim_addr = cfg.peers[1];
        let net: Arc<Network<String>> = Arc::new(
            Network::try_with_fabric(2, FabricSpec::Udp(cfg), Arc::new(NetStats::new()))
                .expect("udp fabric"),
        );
        let rx = net.take_mailbox(NodeId(1)).unwrap();
        let hostile = UdpSocket::bind("127.0.0.1:0").expect("bind hostile");
        hostile.send_to(b"not a frame", victim_addr).expect("send");
        hostile.send_to(&[0u8; 3], victim_addr).expect("send");
        assert!(
            await_cond(Duration::from_secs(5), || net.stats().codec_errors.get()
                >= 2),
            "garbage datagrams land in net.codec_errors"
        );
        // The fabric keeps serving legitimate traffic afterwards.
        net.send(NodeId(0), NodeId(1), "alive".into(), MessageClass::Data)
            .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap().payload,
            "alive"
        );
    }
}
