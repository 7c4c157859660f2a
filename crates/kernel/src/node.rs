//! The per-node kernel: the kernel loop, invocation workers,
//! logical-thread spawning, object-event execution (master handler
//! thread or spawn-per-event, §4.3) and the TIMER/ALARM deadlines of the
//! threads rooted at this node. Event routing — the delivery state
//! machine with the three §7.1 thread locators — is in `delivery.rs`.

use crate::activation::Activation;
use crate::config::{KernelConfig, ObjectEventExecution};
use crate::delivery::{DeliveryTracker, KernelStats};
use crate::location_cache::LocationCache;
use crate::shard_table::ShardedTable;
use crate::tcb::TcbTable;
use crate::{ClassRegistry, DefaultDispatcher};
use crate::{
    Ctx, EventDispatcher, EventName, GroupRegistry, KernelError, KernelMessage, ObjectDirectory,
    ObjectId, RaiseTarget, SystemEvent, ThreadAttributes, ThreadId, TimerCmd, Value, WireEvent,
};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use doct_dsm::{DsmMessage, DsmNode, DsmTransport};
use doct_net::{MessageClass, Network, NodeId};
use doct_telemetry::{RaiseVariant, Stage, Telemetry};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated console/terminal output, keyed by I/O channel name. A thread
/// carries its channel in its attributes, so output from *any* object it
/// visits lands in the right place (paper §3.1's `foo`/`bar` example).
#[derive(Debug, Default)]
pub struct IoHub {
    channels: Mutex<HashMap<String, Vec<String>>>,
}

impl IoHub {
    /// Fresh hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a line to `channel`.
    pub fn emit(&self, channel: &str, line: impl Into<String>) {
        self.channels
            .lock()
            .entry(channel.to_string())
            .or_default()
            .push(line.into());
    }

    /// All lines written to `channel` so far.
    pub fn lines(&self, channel: &str) -> Vec<String> {
        self.channels
            .lock()
            .get(channel)
            .cloned()
            .unwrap_or_default()
    }
}

/// Reply channel for one in-flight remote invocation: the entry result
/// plus the thread's attributes coming home.
type InvokeReplySender = Sender<(Result<Value, KernelError>, ThreadAttributes)>;

/// One entry of the master handler's queue; `None` tells it to stop.
type MasterJob = Option<(ObjectId, WireEvent)>;

/// An armed TIMER/ALARM of a thread rooted at this node.
struct Deadline {
    at: Instant,
    thread: ThreadId,
    id: u64,
    period: Duration,
    payload: Value,
    one_shot: bool,
}

/// One in-flight remote invocation: its reply channel and the peer it is
/// waiting on, so the death watcher can fail every call to a dead node by
/// dropping the senders (the callers' `recv` wakes with `Disconnected`).
struct PendingCall {
    tx: InvokeReplySender,
    home: NodeId,
}

struct KernelDsmTransport {
    net: Arc<Network<KernelMessage>>,
}

impl DsmTransport for KernelDsmTransport {
    fn send(&self, from: NodeId, to: NodeId, msg: DsmMessage) {
        let _ = self
            .net
            .send(from, to, KernelMessage::Dsm(msg), MessageClass::Dsm);
    }
}

/// One node of the DO/CT cluster.
pub struct NodeKernel {
    node: NodeId,
    config: KernelConfig,
    net: Arc<Network<KernelMessage>>,
    dsm: DsmNode,
    directory: Arc<ObjectDirectory>,
    classes: Arc<ClassRegistry>,
    groups: Arc<GroupRegistry>,
    io: Arc<IoHub>,
    dispatcher: RwLock<Arc<dyn EventDispatcher>>,
    activations: Mutex<HashMap<ThreadId, (Arc<Activation>, u32)>>,
    tcbs: TcbTable,
    pending_calls: Mutex<HashMap<u64, PendingCall>>,
    pub(crate) deliveries: ShardedTable<DeliveryTracker>,
    /// Last known location of recently targeted threads (unicast fast
    /// path for `send_probe_wave`); `None` when disabled by config.
    location_cache: Option<LocationCache>,
    next_id: AtomicU64,
    next_thread_seq: AtomicU64,
    next_object_seq: AtomicU64,
    object_event_tx: Sender<MasterJob>,
    object_event_rx: Mutex<Option<Receiver<MasterJob>>>,
    shutdown: AtomicBool,
    stats: KernelStats,
    telemetry: Arc<Telemetry>,
}

impl fmt::Debug for NodeKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeKernel")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl NodeKernel {
    /// Construct a node kernel. The caller (the cluster builder) starts
    /// the kernel loop and master handler thread via
    /// [`NodeKernel::start`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node: NodeId,
        config: KernelConfig,
        net: Arc<Network<KernelMessage>>,
        directory: Arc<ObjectDirectory>,
        classes: Arc<ClassRegistry>,
        groups: Arc<GroupRegistry>,
        io: Arc<IoHub>,
        dsm_config: doct_dsm::DsmConfig,
        telemetry: Arc<Telemetry>,
    ) -> Arc<Self> {
        let transport = Arc::new(KernelDsmTransport {
            net: Arc::clone(&net),
        });
        let (oe_tx, oe_rx) = unbounded();
        Arc::new(NodeKernel {
            node,
            config,
            dsm: DsmNode::with_stats(
                node,
                dsm_config,
                transport,
                doct_dsm::DsmNodeStats::bound(telemetry.registry(), node),
            ),
            net,
            directory,
            classes,
            groups,
            io,
            dispatcher: RwLock::new(Arc::new(DefaultDispatcher)),
            activations: Mutex::new(HashMap::new()),
            tcbs: TcbTable::new(),
            pending_calls: Mutex::new(HashMap::new()),
            deliveries: ShardedTable::new(telemetry.counter("kernel.shard_contention")),
            location_cache: config
                .location_cache
                .enabled
                .then(|| LocationCache::new(config.location_cache, telemetry.registry())),
            next_id: AtomicU64::new(1),
            next_thread_seq: AtomicU64::new(1),
            next_object_seq: AtomicU64::new(1),
            object_event_tx: oe_tx,
            object_event_rx: Mutex::new(Some(oe_rx)),
            shutdown: AtomicBool::new(false),
            stats: KernelStats::bound(telemetry.registry()),
            telemetry,
        })
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Cluster configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// This node's DSM engine.
    pub fn dsm(&self) -> &DsmNode {
        &self.dsm
    }

    /// The network fabric.
    pub fn net(&self) -> &Arc<Network<KernelMessage>> {
        &self.net
    }

    /// Cluster object directory.
    pub fn directory(&self) -> &Arc<ObjectDirectory> {
        &self.directory
    }

    /// Cluster class registry.
    pub fn classes(&self) -> &Arc<ClassRegistry> {
        &self.classes
    }

    /// Cluster thread-group registry.
    pub fn groups(&self) -> &Arc<GroupRegistry> {
        &self.groups
    }

    /// Simulated console hub.
    pub fn io(&self) -> &Arc<IoHub> {
        &self.io
    }

    /// Kernel statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The cluster-shared telemetry hub (metrics + lifecycle traces).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Record one lifecycle stage of event `seq` on this node.
    pub(crate) fn trace(&self, seq: u64, stage: Stage) {
        self.telemetry
            .trace(seq, stage, u64::from(self.node.0), RaiseVariant::None);
    }

    /// Thread-control-block table (inspection).
    pub fn tcbs(&self) -> &TcbTable {
        &self.tcbs
    }

    /// This node's thread-location hint cache, when enabled.
    pub fn location_cache(&self) -> Option<&LocationCache> {
        self.location_cache.as_ref()
    }

    /// Install the event facility's dispatcher (all nodes usually share
    /// one `Arc`).
    pub fn set_dispatcher(&self, dispatcher: Arc<dyn EventDispatcher>) {
        *self.dispatcher.write() = dispatcher;
    }

    /// Current dispatcher.
    pub fn dispatcher(&self) -> Arc<dyn EventDispatcher> {
        self.dispatcher.read().clone()
    }

    /// Allocate a cluster-unique id (call ids, delivery ids, event seqs).
    pub fn next_seq(&self) -> u64 {
        ((self.node.0 as u64) << 40) | self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a thread id rooted at this node.
    pub fn new_thread_id(&self) -> ThreadId {
        ThreadId::new(
            self.node,
            self.next_thread_seq.fetch_add(1, Ordering::Relaxed) as u32,
        )
    }

    /// Allocate an object id homed at this node.
    pub fn new_object_id(&self) -> ObjectId {
        ObjectId::new(
            self.node,
            self.next_object_seq.fetch_add(1, Ordering::Relaxed) as u32,
        )
    }

    /// Ensure future object ids are allocated above `seq` (used when
    /// importing persistent objects so ids never collide).
    pub fn reserve_object_seq(&self, seq: u64) {
        self.next_object_seq.fetch_max(seq + 1, Ordering::Relaxed);
    }

    /// The activation of `thread` on this node, if present.
    pub fn activation(&self, thread: ThreadId) -> Option<Arc<Activation>> {
        self.activations.lock().get(&thread).map(|(a, _)| a.clone())
    }

    /// Number of live activations (diagnostics; E6's orphan check).
    pub fn activation_count(&self) -> usize {
        self.activations.lock().len()
    }

    // ------------------------------------------------------------------
    // Kernel loop
    // ------------------------------------------------------------------

    /// Start the kernel loop and (if configured) the master handler
    /// thread. Returns the loop join handles.
    pub fn start(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        let mut handles = Vec::new();
        let rx = self
            .net
            .take_mailbox(self.node)
            .expect("node mailbox taken once");
        // Dead-peer fast-fail for `call_remote`: when the failure detector
        // declares a peer dead, drop the reply senders of every call
        // waiting on it, so those callers wake immediately (receipt-style
        // wait — no poll slices). Fires only if reliability is enabled;
        // otherwise no heartbeat round ever runs.
        let weak = Arc::downgrade(self);
        let me = self.node;
        self.net.add_death_watcher(move |observer, peer| {
            if observer == me {
                if let Some(kernel) = weak.upgrade() {
                    kernel.fail_pending_calls_to(peer);
                }
            }
        });
        let k = Arc::clone(self);
        handles.push(
            std::thread::Builder::new()
                .name(format!("kernel-loop-{}", self.node))
                .spawn(move || k.run_loop(rx))
                .expect("spawn kernel loop"),
        );
        if self.config.object_events == ObjectEventExecution::Master {
            let rx = self
                .object_event_rx
                .lock()
                .take()
                .expect("master queue taken once");
            let k = Arc::clone(self);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("master-handler-{}", self.node))
                    .spawn(move || k.run_master(rx))
                    .expect("spawn master handler"),
            );
        }
        handles
    }

    fn run_loop(self: Arc<Self>, rx: Receiver<doct_net::Envelope<KernelMessage>>) {
        const SWEEP_EVERY: Duration = Duration::from_millis(50);
        // Sweep on a deadline, not only when the mailbox goes quiet:
        // under sustained inbound traffic `recv_timeout` never expires,
        // and delivery retries/timeouts would starve.
        let mut next_sweep = Instant::now() + SWEEP_EVERY;
        let mut timers: Vec<Deadline> = Vec::new();
        loop {
            let now = Instant::now();
            if now >= next_sweep {
                if self.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                self.sweep();
                self.sample_mailbox_depths();
                next_sweep = now + SWEEP_EVERY;
            }
            self.fire_due_timers(&mut timers, now);
            let wake = timers.iter().map(|t| t.at).fold(next_sweep, Instant::min);
            match rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
                Ok(env) => match env.payload {
                    KernelMessage::Shutdown => {
                        self.shutdown.store(true, Ordering::Relaxed);
                        break;
                    }
                    KernelMessage::Timer(TimerCmd::Register {
                        thread,
                        id,
                        period,
                        payload,
                        one_shot,
                    }) => timers.push(Deadline {
                        at: Instant::now() + period,
                        thread,
                        id,
                        period,
                        payload,
                        one_shot,
                    }),
                    KernelMessage::Timer(TimerCmd::Cancel { thread, id }) => {
                        timers.retain(|t| !(t.thread == thread && t.id == id));
                    }
                    msg => self.handle(msg, env.src),
                },
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
        self.drain_deliveries_as_lost();
        // Stop the master handler once it has run every queued event.
        let _ = self.object_event_tx.send(None);
    }

    /// Raise every due TIMER/ALARM at its thread. A timer whose thread has
    /// no activation here any more (the thread ended) is dropped.
    fn fire_due_timers(self: &Arc<Self>, timers: &mut Vec<Deadline>, now: Instant) {
        timers.retain_mut(|t| {
            if t.at > now {
                return true;
            }
            if self.activation(t.thread).is_none() {
                return false;
            }
            let name = if t.one_shot {
                SystemEvent::Alarm
            } else {
                SystemEvent::Timer
            };
            // doct-lint: allow(payload-clone-in-hot-path) re-fires share the registered buffer: a refcount bump for Bytes
            let payload = t.payload.clone();
            let _ = self.raise_event(
                EventName::System(name),
                payload,
                RaiseTarget::Thread(t.thread),
                false,
                None,
            );
            t.at = now + t.period;
            !t.one_shot
        });
    }

    fn run_master(self: Arc<Self>, rx: Receiver<MasterJob>) {
        while let Ok(Some((object, event))) = rx.recv() {
            self.run_object_event(object, event);
        }
    }

    /// Ask the loop to exit at its next sweep; on exit it stops the
    /// master handler thread.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    pub(crate) fn handle(self: &Arc<Self>, msg: KernelMessage, src: NodeId) {
        match msg {
            KernelMessage::Invoke {
                call_id,
                reply_to,
                object,
                entry,
                args,
                attrs,
                depth,
            } => self.handle_invoke(call_id, reply_to, object, entry, args, attrs, depth),
            KernelMessage::InvokeReply {
                call_id,
                result,
                attrs,
            } => {
                // Bind before sending: an `if let` scrutinee keeps the
                // `pending_calls` guard alive for the whole block.
                let pending = self.pending_calls.lock().remove(&call_id);
                if let Some(p) = pending {
                    let _ = p.tx.send((result, attrs));
                }
            }
            KernelMessage::Dsm(m) => self.dsm.handle_message(m),
            KernelMessage::DeliverThread {
                event,
                target,
                origin,
                delivery_id,
                hops,
                anchor,
                hinted,
            } => {
                self.handle_deliver_thread(event, target, origin, delivery_id, hops, anchor, hinted)
            }
            KernelMessage::DeliverReceipt {
                delivery_id,
                verdict,
            } => self.handle_receipt(delivery_id, verdict),
            KernelMessage::DeliverObject { event, object } => {
                self.enqueue_object_event(object, event)
            }
            KernelMessage::SyncResume {
                seq,
                raiser,
                verdict,
            } => {
                if let Some(act) = self.activation(raiser) {
                    act.push_sync_result(seq, verdict);
                }
            }
            // `run_loop` consumes these before dispatching here.
            KernelMessage::Timer(_) | KernelMessage::Shutdown => {}
        }
        let _ = src;
    }

    // ------------------------------------------------------------------
    // Invocations
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn handle_invoke(
        self: &Arc<Self>,
        call_id: u64,
        reply_to: NodeId,
        object: ObjectId,
        entry: String,
        args: Value,
        attrs: ThreadAttributes,
        depth: u32,
    ) {
        let kernel = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("worker-{}-{}", self.node, call_id))
            .spawn(move || {
                let thread = attrs.thread;
                let activation = kernel.checkin(attrs);
                kernel.tcbs.arrive(thread, depth, Some(reply_to));
                let result = kernel.execute_local(&activation, object, &entry, args, depth);
                let attrs_back = activation.attributes_snapshot();
                kernel.tcbs.leave(thread);
                kernel.checkout(thread);
                let _ = kernel.net.send(
                    kernel.node,
                    reply_to,
                    KernelMessage::InvokeReply {
                        call_id,
                        result,
                        attrs: attrs_back,
                    },
                    MessageClass::Invocation,
                );
            })
            .expect("spawn invocation worker");
    }

    /// Register (or re-enter) the thread's activation on this node.
    pub fn checkin(&self, attrs: ThreadAttributes) -> Arc<Activation> {
        let thread = attrs.thread;
        let mut acts = self.activations.lock();
        match acts.get_mut(&thread) {
            Some((act, sessions)) => {
                *sessions += 1;
                // The arriving copy is the freshest version of the
                // travelling record.
                act.with_attributes(|a| *a = attrs);
                act.clone()
            }
            None => {
                let act = Arc::new(Activation::with_mailbox(attrs, self.config.mailbox));
                acts.insert(thread, (act.clone(), 1));
                drop(acts);
                self.net
                    .multicast_registry()
                    .join(thread.multicast_group(), self.node);
                act
            }
        }
    }

    /// Drop one session; removes the activation when none remain.
    pub fn checkout(&self, thread: ThreadId) {
        let mut acts = self.activations.lock();
        if let Some((_, sessions)) = acts.get_mut(&thread) {
            *sessions -= 1;
            if *sessions == 0 {
                acts.remove(&thread);
                drop(acts);
                self.net
                    .multicast_registry()
                    .leave(thread.multicast_group(), self.node);
            }
        }
    }

    /// Execute an entry point locally: frame push, delivery points at the
    /// boundaries, panic containment.
    pub fn execute_local(
        self: &Arc<Self>,
        activation: &Arc<Activation>,
        object: ObjectId,
        entry: &str,
        args: Value,
        depth: u32,
    ) -> Result<Value, KernelError> {
        let record = self
            .directory
            .get(object)
            .ok_or(KernelError::UnknownObject(object))?;
        let behavior = self
            .classes
            .get(&record.class)
            .ok_or_else(|| KernelError::UnknownClass(record.class.clone()))?;
        activation.lock().stack.push(crate::activation::Frame {
            object,
            entry: entry.to_string(),
            depth,
        });
        let mut ctx = Ctx::new(Arc::clone(self), Arc::clone(activation));
        // Delivery point at invocation entry.
        let mut result = ctx.poll_events().and_then(|()| {
            record.run_exclusive(|| {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    behavior.dispatch(&mut ctx, entry, args)
                }));
                match outcome {
                    Ok(r) => r,
                    Err(p) => Err(KernelError::InvocationFailed(panic_text(p))),
                }
            })
        });
        // Delivery point at invocation exit (even on error).
        if let Err(e) = ctx.poll_events() {
            result = Err(e);
        }
        activation.lock().stack.pop();
        result
    }

    /// Synchronously run an invocation at a remote home node, shipping the
    /// thread's attributes there and back.
    pub fn call_remote(
        &self,
        home: NodeId,
        object: ObjectId,
        entry: &str,
        args: Value,
        attrs: ThreadAttributes,
        depth: u32,
    ) -> Result<(Result<Value, KernelError>, ThreadAttributes), KernelError> {
        parking_lot::lockdep::blocking_point("kernel::call_remote");
        let call_id = self.next_seq();
        let (tx, rx) = bounded(1);
        self.pending_calls
            .lock()
            .insert(call_id, PendingCall { tx, home });
        let sent = self
            .net
            .send(
                self.node,
                home,
                KernelMessage::Invoke {
                    call_id,
                    reply_to: self.node,
                    object,
                    entry: entry.to_string(),
                    args,
                    attrs,
                    depth,
                },
                MessageClass::Invocation,
            )
            .map_err(|e| KernelError::InvalidArgument(e.to_string()))?;
        if !sent.is_sent() {
            self.pending_calls.lock().remove(&call_id);
            return Err(KernelError::Timeout(format!(
                "invoke {object}::{entry}: link to {home} down"
            )));
        }
        // When a failure detector runs, it resolves this wait early: the
        // death watcher (registered in `start`) drops our reply sender the
        // moment it declares `home` dead, so the recv below wakes with
        // `Disconnected` within one heartbeat round of the verdict — no
        // poll slices, no latency quantization. The call was registered
        // *before* this check, so a death verdict landing between the two
        // is seen by exactly one side. Without a detector `peer_state` is
        // `None` and no sender is ever dropped.
        if self.net.peer_state(self.node, home) == Some(doct_net::PeerState::Dead) {
            self.pending_calls.lock().remove(&call_id);
            return Err(KernelError::NodeUnreachable(home));
        }
        match rx.recv_timeout(self.config.invoke_timeout) {
            Ok(pair) => Ok(pair),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                self.pending_calls.lock().remove(&call_id);
                Err(KernelError::Timeout(format!(
                    "invoke {object}::{entry} on {home}"
                )))
            }
            // Only the death watcher drops a registered sender.
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                Err(KernelError::NodeUnreachable(home))
            }
        }
    }

    /// Fail every in-flight remote call waiting on `peer`: remove the
    /// pending entries under the lock, then drop the reply senders after
    /// it is released so each caller's `recv` wakes with `Disconnected`
    /// and resolves as `NodeUnreachable` immediately.
    fn fail_pending_calls_to(&self, peer: NodeId) {
        let dropped: Vec<InvokeReplySender> = {
            let mut calls = self.pending_calls.lock();
            let ids: Vec<u64> = calls
                .iter()
                .filter(|(_, p)| p.home == peer)
                .map(|(id, _)| *id)
                .collect();
            ids.into_iter()
                .filter_map(|id| calls.remove(&id))
                .map(|p| p.tx)
                .collect()
        };
        self.stats.calls_failed_fast.add(dropped.len() as u64);
        drop(dropped);
    }

    // ------------------------------------------------------------------
    // Logical thread spawning
    // ------------------------------------------------------------------

    /// Run `body` as a logical thread rooted on this node. Returns the
    /// receiver for the thread's result.
    pub fn spawn_logical(
        self: &Arc<Self>,
        attrs: ThreadAttributes,
        body: impl FnOnce(&mut Ctx) -> Result<Value, KernelError> + Send + 'static,
    ) -> Receiver<Result<Value, KernelError>> {
        let kernel = Arc::clone(self);
        let (tx, rx) = bounded(1);
        let thread = attrs.thread;
        if let Some(g) = attrs.group {
            self.groups.join(g, thread);
        }
        std::thread::Builder::new()
            .name(format!("logical-{thread}"))
            .spawn(move || {
                let activation = kernel.checkin(attrs);
                kernel.tcbs.arrive(thread, 0, None);
                let mut ctx = Ctx::new(Arc::clone(&kernel), Arc::clone(&activation));
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
                let mut result = match outcome {
                    Ok(r) => r,
                    Err(p) => Err(KernelError::InvocationFailed(panic_text(p))),
                };
                // Final delivery point: run any straggler events (e.g. a
                // TERMINATE that arrived at the very end).
                if let Err(e) = ctx.poll_events() {
                    if result.is_ok() {
                        result = Err(e);
                    }
                }
                let group = activation.lock().attributes.group;
                kernel.tcbs.leave(thread);
                kernel.checkout(thread);
                // The thread no longer exists anywhere: drop its location
                // hint so later raises from this node fail fast to the
                // wave (remote caches self-correct via "not here").
                if let Some(cache) = &kernel.location_cache {
                    cache.invalidate(thread);
                }
                if let Some(g) = group {
                    kernel.groups.leave(g, thread);
                }
                let _ = tx.send(result);
            })
            .expect("spawn logical thread");
        rx
    }

    // ------------------------------------------------------------------
    // Delivery-point support (the state machine itself is delivery.rs)
    // ------------------------------------------------------------------

    /// Sample every local activation's mailbox depth into the
    /// `kernel.mailbox_depth` histogram. Reads the lock-free atomic depth
    /// mirror, never the activation lock: the sweep can neither observe a
    /// mailbox mid-resize nor stall delivery under load.
    fn sample_mailbox_depths(&self) {
        let acts: Vec<Arc<Activation>> = self
            .activations
            .lock()
            .values()
            .map(|(a, _)| Arc::clone(a))
            .collect();
        for act in acts {
            self.stats.mailbox_depth.record_ns(act.depth_hint() as u64);
        }
    }

    /// Resume a raiser blocked in `raise_and_wait` (facility-facing).
    pub fn resume_sync_raiser(&self, event: &WireEvent, verdict: Value) {
        self.trace(event.seq, Stage::Unwind);
        let Some(raiser) = event.raiser else { return };
        if event.raiser_node == self.node {
            if let Some(act) = self.activation(raiser) {
                act.push_sync_result(event.seq, verdict);
            }
        } else {
            let _ = self.net.send(
                self.node,
                event.raiser_node,
                KernelMessage::SyncResume {
                    seq: event.seq,
                    raiser,
                    verdict,
                },
                MessageClass::Event,
            );
        }
    }

    // ------------------------------------------------------------------
    // Object events
    // ------------------------------------------------------------------

    pub(crate) fn enqueue_object_event(self: &Arc<Self>, object: ObjectId, event: WireEvent) {
        match self.config.object_events {
            ObjectEventExecution::Master => {
                let _ = self.object_event_tx.send(Some((object, event)));
            }
            ObjectEventExecution::Spawn => {
                let kernel = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("objevent-{}", self.node))
                    .spawn(move || kernel.run_object_event(object, event))
                    .expect("spawn object event thread");
            }
        }
    }

    /// Execute one object-targeted event on the calling thread, under a
    /// surrogate logical thread that takes on the raiser's attributes
    /// (§6.1) when a snapshot travelled with the event.
    pub fn run_object_event(self: &Arc<Self>, object: ObjectId, event: WireEvent) {
        self.record_delivery(&event);
        let surrogate_id = self.new_thread_id();
        let attrs = match &event.attrs {
            // Surrogate: same attribute record (extensions shared), new
            // thread identity.
            Some(a) => {
                let mut copy = a.clone();
                copy.thread = surrogate_id;
                copy.group = None; // the surrogate is not a group member
                copy
            }
            None => ThreadAttributes::new(surrogate_id, self.node),
        };
        let activation = self.checkin(attrs);
        self.tcbs.arrive(surrogate_id, 0, None);
        let dispatcher = self.dispatcher();
        {
            let mut ctx = Ctx::new(Arc::clone(self), Arc::clone(&activation));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dispatcher.deliver_to_object(&mut ctx, object, event);
            }));
            if outcome.is_err() {
                // A handler panicked; the object event is dropped but the
                // kernel thread survives.
            }
        }
        self.tcbs.leave(surrogate_id);
        self.checkout(surrogate_id);
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic in entry point".to_string()
    }
}
