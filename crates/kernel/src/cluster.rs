//! The simulated DO/CT cluster: construction, object/thread lifecycle and
//! external event injection.

use crate::delivery::{LedgerSnapshot, RaiseTicket};
use crate::node::{IoHub, NodeKernel};
use crate::{
    ClassRegistry, Ctx, EventDispatcher, EventName, FabricChoice, GroupRegistry, KernelConfig,
    KernelError, KernelMessage, ObjectBehavior, ObjectConfig, ObjectDirectory, ObjectId,
    ObjectRecord, RaiseTarget, ThreadAttributes, ThreadGroupId, ThreadId, Value,
};
use crossbeam::channel::Receiver;
use doct_dsm::Backing;
use doct_net::{
    FabricSpec, FailureConfig, LatencyModel, MessageClass, NetStats, Network, NodeId,
    ReliabilityConfig, UdpConfig,
};
use doct_telemetry::Telemetry;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A persistent image of one object: everything needed to re-create it in
/// another cluster incarnation. The paper's objects are *persistent* —
/// "objects in our model are persistent by nature and may exist passively"
/// (§3.1); exporting and importing images models a system restart.
#[derive(Debug, Clone)]
pub struct ObjectImage {
    /// Original object id (preserved across import).
    pub id: ObjectId,
    /// Class name (its code must be registered in the importing cluster).
    pub class: String,
    /// Home node.
    pub home: NodeId,
    /// Encoded state (`Value::encode` of the current state).
    pub state: Vec<u8>,
    /// State segment capacity.
    pub state_size: usize,
    /// Exclusive-execution flag.
    pub exclusive: bool,
}

/// Handle to a spawned logical thread.
#[derive(Debug)]
pub struct ThreadHandle {
    thread: ThreadId,
    rx: Receiver<Result<Value, KernelError>>,
}

impl ThreadHandle {
    /// The logical thread's id.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Wait for the thread to finish and take its result.
    ///
    /// # Errors
    ///
    /// Whatever the thread's body failed with ([`KernelError::Terminated`]
    /// if it was terminated by an event).
    pub fn join(self) -> Result<Value, KernelError> {
        self.rx
            .recv()
            .unwrap_or(Err(KernelError::Timeout("thread lost".to_string())))
    }

    /// Wait up to `timeout`; `None` if the thread is still running.
    pub fn join_timeout(self, timeout: Duration) -> Option<Result<Value, KernelError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => None,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                Some(Err(KernelError::Timeout("thread lost".to_string())))
            }
        }
    }

    /// Non-blocking completion check.
    pub fn is_finished(&self) -> bool {
        !self.rx.is_empty() || self.rx.recv_timeout(Duration::ZERO).is_ok()
    }
}

/// Options for spawning a logical thread.
#[derive(Debug, Clone, Default)]
pub struct SpawnOptions {
    /// Join this group at birth.
    pub group: Option<ThreadGroupId>,
    /// I/O channel name (simulated terminal).
    pub io_channel: Option<String>,
    /// Inherit attributes (event registry included) from this snapshot
    /// instead of starting fresh.
    pub inherit: Option<ThreadAttributes>,
}

/// Builder for [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    nodes: usize,
    latency: LatencyModel,
    config: KernelConfig,
    dsm: doct_dsm::DsmConfig,
    reliability: Option<(ReliabilityConfig, FailureConfig)>,
}

impl ClusterBuilder {
    /// Start building an `n`-node cluster.
    pub fn new(nodes: usize) -> Self {
        ClusterBuilder {
            nodes,
            latency: LatencyModel::Zero,
            config: KernelConfig::default(),
            dsm: doct_dsm::DsmConfig::default(),
            reliability: None,
        }
    }

    /// Set the network latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Set the kernel configuration.
    pub fn config(mut self, config: KernelConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the DSM configuration.
    pub fn dsm(mut self, dsm: doct_dsm::DsmConfig) -> Self {
        self.dsm = dsm;
        self
    }

    /// Turn on the acked/retried transport and heartbeat failure detector
    /// with default tuning.
    pub fn reliable(self) -> Self {
        self.reliable_with(ReliabilityConfig::default(), FailureConfig::default())
    }

    /// Turn on the reliability layer with explicit tuning.
    pub fn reliable_with(mut self, rel: ReliabilityConfig, failure: FailureConfig) -> Self {
        self.reliability = Some((rel, failure));
        self
    }

    /// Build and start the cluster.
    ///
    /// The transport is chosen by [`KernelConfig::effective_fabric`]
    /// (`DOCT_FABRIC=udp` flips the whole cluster onto real loopback
    /// sockets; the latency model only applies to the simulated fabric).
    pub fn build(self) -> Cluster {
        let telemetry = Telemetry::shared();
        let stats = Arc::new(NetStats::bound(telemetry.registry()));
        let spec = match self.config.effective_fabric() {
            FabricChoice::Sim => FabricSpec::Sim(self.latency),
            FabricChoice::Udp => {
                FabricSpec::Udp(UdpConfig::loopback(self.nodes).expect("bind loopback udp sockets"))
            }
        };
        let net = Arc::new(
            Network::try_with_fabric(self.nodes, spec, stats).expect("spawn fabric worker threads"),
        );
        if let Some((rel, failure)) = self.reliability {
            net.enable_reliability(rel, failure)
                .expect("reliability config must validate");
        }
        let directory = Arc::new(ObjectDirectory::new());
        let classes = Arc::new(ClassRegistry::new());
        let groups = Arc::new(GroupRegistry::new());
        let io = Arc::new(IoHub::new());
        let mut kernels = Vec::with_capacity(self.nodes);
        let mut joins = Vec::new();
        for id in 0..self.nodes as u32 {
            let k = NodeKernel::new(
                NodeId(id),
                self.config,
                Arc::clone(&net),
                Arc::clone(&directory),
                Arc::clone(&classes),
                Arc::clone(&groups),
                Arc::clone(&io),
                self.dsm,
                Arc::clone(&telemetry),
            );
            joins.extend(k.start());
            kernels.push(k);
        }
        Cluster {
            net,
            kernels,
            directory,
            classes,
            groups,
            io,
            config: self.config,
            telemetry,
            joins: parking_lot::Mutex::new(joins),
        }
    }
}

/// A running simulated DO/CT cluster.
pub struct Cluster {
    net: Arc<Network<KernelMessage>>,
    kernels: Vec<Arc<NodeKernel>>,
    directory: Arc<ObjectDirectory>,
    classes: Arc<ClassRegistry>,
    groups: Arc<GroupRegistry>,
    io: Arc<IoHub>,
    config: KernelConfig,
    telemetry: Arc<Telemetry>,
    joins: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.kernels.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// An `n`-node cluster with default configuration.
    pub fn new(nodes: usize) -> Self {
        ClusterBuilder::new(nodes).build()
    }

    /// Builder with all the knobs.
    pub fn builder(nodes: usize) -> ClusterBuilder {
        ClusterBuilder::new(nodes)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kernels.len()
    }

    /// The kernel of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn kernel(&self, i: usize) -> &Arc<NodeKernel> {
        &self.kernels[i]
    }

    /// The network fabric (stats, partitions).
    pub fn net(&self) -> &Arc<Network<KernelMessage>> {
        &self.net
    }

    /// The object directory.
    pub fn directory(&self) -> &Arc<ObjectDirectory> {
        &self.directory
    }

    /// The thread-group registry.
    pub fn groups(&self) -> &Arc<GroupRegistry> {
        &self.groups
    }

    /// The simulated console hub.
    pub fn io(&self) -> &Arc<IoHub> {
        &self.io
    }

    /// The cluster configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The cluster-shared telemetry hub: metrics registry plus the event
    /// lifecycle trace ring (every node writes to the same instance).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The cluster-wide delivery ledger (every node's kernel counts into
    /// the same shared series).
    pub fn ledger(&self) -> LedgerSnapshot {
        self.kernels[0].stats().ledger()
    }

    /// Install the event facility's dispatcher on every node.
    pub fn set_dispatcher(&self, dispatcher: Arc<dyn EventDispatcher>) {
        for k in &self.kernels {
            k.set_dispatcher(Arc::clone(&dispatcher));
        }
    }

    /// Register object class code (replicated to every node).
    pub fn register_class(&self, name: impl Into<String>, behavior: Arc<dyn ObjectBehavior>) {
        self.classes.register(name, behavior);
    }

    /// Create a passive, persistent object.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownClass`] if the class is unregistered,
    /// [`KernelError::UnknownNode`] for a bad home node, or DSM errors
    /// writing the initial state.
    pub fn create_object(&self, config: ObjectConfig) -> Result<ObjectId, KernelError> {
        if self.classes.get(&config.class).is_none() {
            return Err(KernelError::UnknownClass(config.class));
        }
        let home = self
            .kernels
            .get(config.home.index())
            .ok_or(KernelError::UnknownNode(config.home))?;
        let id = home.new_object_id();
        let seg = home
            .dsm()
            .create_segment(config.state_size, Backing::Kernel);
        for k in &self.kernels {
            if k.node_id() != config.home {
                k.dsm().attach(seg);
            }
        }
        let enc = config.initial_state.encode();
        if 4 + enc.len() > seg.size {
            return Err(KernelError::StateTooLarge {
                object: id,
                need: 4 + enc.len(),
                capacity: seg.size,
            });
        }
        home.dsm()
            .write(seg.id, 0, &(enc.len() as u32).to_le_bytes())?;
        home.dsm().write(seg.id, 4, &enc)?;
        self.directory.insert(Arc::new(ObjectRecord::with_exclusive(
            id,
            config.class,
            config.home,
            seg,
            config.exclusive,
        )));
        Ok(id)
    }

    /// Create a thread group.
    pub fn create_group(&self) -> ThreadGroupId {
        self.groups.create(NodeId(0))
    }

    /// Export every object's persistent image ("objects are persistent by
    /// nature", §3.1) — the analogue of the persistent store surviving a
    /// shutdown. Quiesce application threads first; exports read each
    /// object's current state through DSM.
    ///
    /// # Errors
    ///
    /// DSM read failures.
    pub fn export_objects(&self) -> Result<Vec<ObjectImage>, KernelError> {
        let mut images = Vec::new();
        for id in self.directory.ids() {
            let Some(record) = self.directory.get(id) else {
                continue;
            };
            let seg = record.state_segment;
            let home = &self.kernels[record.home.index()];
            let len_bytes = home.dsm().read(seg.id, 0, 4)?;
            let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
            let state = if len == 0 {
                Value::Null.encode()
            } else {
                home.dsm().read(seg.id, 4, len)?
            };
            images.push(ObjectImage {
                id,
                class: record.class.clone(),
                home: record.home,
                state,
                state_size: seg.size,
                exclusive: record.exclusive,
            });
        }
        Ok(images)
    }

    /// Import persistent object images into this cluster (ids preserved,
    /// handler tables start empty — object init code re-installs them, as
    /// the paper's object initialization does).
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownClass`] if an image's class is unregistered,
    /// [`KernelError::UnknownNode`] for out-of-range homes, DSM failures.
    pub fn import_objects(&self, images: &[ObjectImage]) -> Result<(), KernelError> {
        for image in images {
            if self.classes.get(&image.class).is_none() {
                return Err(KernelError::UnknownClass(image.class.clone()));
            }
            let home = self
                .kernels
                .get(image.home.index())
                .ok_or(KernelError::UnknownNode(image.home))?;
            home.reserve_object_seq(image.id.0 & 0xffff_ffff);
            let seg = home.dsm().create_segment(image.state_size, Backing::Kernel);
            for k in &self.kernels {
                if k.node_id() != image.home {
                    k.dsm().attach(seg);
                }
            }
            if 4 + image.state.len() > seg.size {
                return Err(KernelError::StateTooLarge {
                    object: image.id,
                    need: 4 + image.state.len(),
                    capacity: seg.size,
                });
            }
            home.dsm()
                .write(seg.id, 0, &(image.state.len() as u32).to_le_bytes())?;
            home.dsm().write(seg.id, 4, &image.state)?;
            self.directory.insert(Arc::new(ObjectRecord::with_exclusive(
                image.id,
                image.class.clone(),
                image.home,
                seg,
                image.exclusive,
            )));
        }
        Ok(())
    }

    /// Spawn a logical thread on `node` that invokes `entry` on `object`.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownNode`] for a bad node index.
    pub fn spawn(
        &self,
        node: usize,
        object: ObjectId,
        entry: &str,
        args: impl Into<Value>,
    ) -> Result<ThreadHandle, KernelError> {
        self.spawn_with(node, SpawnOptions::default(), object, entry, args)
    }

    /// Spawn with options (group membership, I/O channel, inheritance).
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownNode`] for a bad node index.
    pub fn spawn_with(
        &self,
        node: usize,
        options: SpawnOptions,
        object: ObjectId,
        entry: &str,
        args: impl Into<Value>,
    ) -> Result<ThreadHandle, KernelError> {
        let entry = entry.to_string();
        let args = args.into();
        self.spawn_fn_with(node, options, move |ctx| ctx.invoke(object, &entry, args))
    }

    /// Spawn a logical thread running an arbitrary body (tests, drivers,
    /// event-facility services).
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownNode`] for a bad node index.
    pub fn spawn_fn(
        &self,
        node: usize,
        body: impl FnOnce(&mut Ctx) -> Result<Value, KernelError> + Send + 'static,
    ) -> Result<ThreadHandle, KernelError> {
        self.spawn_fn_with(node, SpawnOptions::default(), body)
    }

    /// [`Cluster::spawn_fn`] with options.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownNode`] for a bad node index.
    pub fn spawn_fn_with(
        &self,
        node: usize,
        options: SpawnOptions,
        body: impl FnOnce(&mut Ctx) -> Result<Value, KernelError> + Send + 'static,
    ) -> Result<ThreadHandle, KernelError> {
        let kernel = self
            .kernels
            .get(node)
            .ok_or(KernelError::UnknownNode(NodeId(node as u32)))?;
        let thread = kernel.new_thread_id();
        let mut attrs = match options.inherit {
            Some(parent) => parent.inherit_for(thread, kernel.node_id()),
            None => ThreadAttributes::new(thread, kernel.node_id()),
        };
        if options.group.is_some() {
            attrs.group = options.group;
        }
        if options.io_channel.is_some() {
            attrs.io_channel = options.io_channel;
        }
        let rx = kernel.spawn_logical(attrs, body);
        Ok(ThreadHandle { thread, rx })
    }

    /// Inject an event from outside any thread (e.g. the console's ^C,
    /// §6.3), raised at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn raise_from(
        &self,
        node: usize,
        name: impl Into<EventName>,
        payload: impl Into<Value>,
        target: impl Into<RaiseTarget>,
    ) -> RaiseTicket {
        let (ticket, _seq) =
            self.kernels[node].raise_event(name.into(), payload.into(), target.into(), false, None);
        ticket
    }

    /// Terminate every thread in `group`: raises QUIT to the current
    /// members and keeps re-raising until the group drains or `timeout`
    /// passes. Re-raising covers the §7.1 race where a fast-moving member
    /// evades one round of locate probes. Returns `true` if the group
    /// emptied.
    pub fn terminate_group(&self, group: ThreadGroupId, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.groups.member_count(group) == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return self.groups.member_count(group) == 0;
            }
            // Outcome deliberately unused: member_count above is the
            // authority on progress, and the loop re-raises until the
            // group drains or the deadline hits.
            let _ = self
                .raise_from(
                    0,
                    crate::SystemEvent::Quit,
                    Value::Null,
                    RaiseTarget::Group(group),
                )
                .wait();
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Total live activations across the cluster (used by the §6.3
    /// orphan check: after termination this must reach zero).
    pub fn live_activations(&self) -> usize {
        self.kernels.iter().map(|k| k.activation_count()).sum()
    }

    /// Wait until no activations remain (threads all exited), up to
    /// `timeout`. Returns `true` on success.
    pub fn await_quiescence(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.live_activations() == 0 {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.live_activations() == 0
    }

    /// Shut the cluster down: stops kernel loops and master handler
    /// threads. Called automatically on drop.
    pub fn shutdown(&self) {
        for k in &self.kernels {
            k.request_shutdown();
            let _ = self.net.send(
                k.node_id(),
                k.node_id(),
                KernelMessage::Shutdown,
                MessageClass::Control,
            );
        }
        let mut joins = self.joins.lock();
        for j in joins.drain(..) {
            let _ = j.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
