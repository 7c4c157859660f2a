//! The five workloads: what each builds, whom it raises at, and why it
//! exists. A [`Rig`] is one fresh cluster with the facility installed, the
//! bench handlers attached and the targets ready to be raised at.

use crate::record::{self, RecordFault, Recorder};
use doct_events::{AttachSpec, CtxEvents, EventFacility, HandlerDecision};
use doct_kernel::{
    ClassBuilder, Cluster, ClusterBuilder, Ctx, EventName, FabricChoice, KernelConfig, KernelError,
    LocatorStrategy, ObjectConfig, RaiseTarget, RaiseTicket, SpawnOptions, SystemEvent,
    ThreadHandle, ThreadId, Value,
};
use doct_net::{FailureConfig, NodeId, ReliabilityConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a workload's raises are addressed and completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One stationary handler thread per raise, on a remote node.
    Unicast,
    /// Every member of one thread group.
    Group,
    /// `raise_and_wait` from logical threads at chained local targets.
    LocalSync,
    /// A passive object's master-handler queue on a remote node.
    Object,
}

/// One workload's fixed parameters.
#[derive(Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers it stresses.
    pub why: &'static str,
    /// Addressing and completion style.
    pub kind: Kind,
    /// Cluster size.
    pub nodes: usize,
    /// Transport under the kernel.
    pub fabric: FabricChoice,
    /// Payload bytes per raise (header included).
    pub payload_len: usize,
    /// Open-loop rate of the paced phase, raises/s (`None`: closed loop only).
    pub paced_rate: Option<f64>,
    /// Raises in flight in the closed-loop phase.
    pub window: usize,
    /// Handler invocations one raise must cause.
    pub recipients: u64,
    /// Handlers the facility runs per bench-handler invocation.
    pub chain_depth: u64,
    /// Targets to spread raises over (threads, objects or raiser pairs).
    pub targets: usize,
}

/// Depth of the handler chain on the `local_sync` targets: 15 handlers
/// that `Propagate` above one that `Resume`s.
pub const CHAIN_DEPTH: u64 = 16;

/// The workloads, in the order `--workload all` runs them.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "unicast_warm",
        why: "smallest message on the fixed path: cache hit, one hinted unicast, singleton batch, mailbox, delivery point, handler, receipt; locate wave and batching idle",
        kind: Kind::Unicast,
        nodes: 2,
        fabric: FabricChoice::Sim,
        payload_len: 64,
        paced_rate: Some(10_000.0),
        window: 32,
        recipients: 1,
        chain_depth: 1,
        targets: 4,
    },
    Spec {
        name: "group_fanout",
        why: "16 members on 4 nodes, multicast locator, cache off: locate wave, per-pair batch slots and deadline, send_many, receipt fan-in, cumulative ACKs, sharded delivery table",
        kind: Kind::Group,
        nodes: 5,
        fabric: FabricChoice::Sim,
        payload_len: 1024,
        paced_rate: Some(500.0),
        window: 8,
        recipients: 16,
        chain_depth: 1,
        targets: 16,
    },
    Spec {
        name: "udp_unicast",
        why: "unicast_warm over loopback UDP with 8 KiB payloads: the only workload running the DCT1 wire codec, udp.rs syscalls and the rx poll; sim-only changes predict no move",
        kind: Kind::Unicast,
        nodes: 2,
        fabric: FabricChoice::Udp,
        payload_len: 8192,
        paced_rate: Some(5_000.0),
        window: 8,
        recipients: 1,
        chain_depth: 1,
        targets: 4,
    },
    Spec {
        name: "local_sync",
        why: "one node, raise_and_wait at 16-deep handler chains, zero wire traffic: chain walk, resume_sync_raiser and local delivery only; any doct-net change predicts no move",
        kind: Kind::LocalSync,
        nodes: 1,
        fabric: FabricChoice::Sim,
        payload_len: 64,
        paced_rate: None,
        window: 2,
        recipients: 1,
        chain_depth: CHAIN_DEPTH,
        targets: 2,
    },
    Spec {
        name: "object_events",
        why: "passive objects on a remote node, master-handler queue instead of thread mailbox and delivery point: a thread-path gain that costs the object path shows here",
        kind: Kind::Object,
        nodes: 2,
        fabric: FabricChoice::Sim,
        payload_len: 64,
        paced_rate: Some(10_000.0),
        window: 32,
        recipients: 1,
        chain_depth: 1,
        targets: 4,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A fault the self-test seeds while building or driving a rig.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A fault in the handlers' recording.
    Record(RecordFault),
    /// Do not install the event facility (what E12/E14/E15 do).
    NoFacility,
    /// Aim this raise id at a thread that does not exist.
    DeadTarget(u64),
}

/// The user event the `local_sync` raisers raise (registration-checked).
const SYNC_EVENT: &str = "BENCH_SYNC";

/// One `local_sync` raiser's timed sample: (raise id, call, return), ns.
pub type SyncSample = (u64, u64, u64);

/// State shared with the `local_sync` raiser threads.
#[derive(Default)]
pub struct SyncShared {
    /// Set to end the raisers' loops.
    pub stop: AtomicBool,
    /// Raises completed, per raiser.
    pub completed: [AtomicU64; 2],
    /// `raise_and_wait` calls that returned an error.
    pub errors: AtomicU64,
    /// Timed samples, published by each raiser as it stops.
    pub samples: Mutex<Vec<SyncSample>>,
}

/// One fresh cluster ready to be raised at.
pub struct Rig {
    /// The workload this rig runs.
    pub spec: &'static Spec,
    /// The cluster under test.
    pub cluster: Cluster,
    /// The handlers' table.
    pub rec: Arc<Recorder>,
    /// Shared state of the `local_sync` raisers.
    pub sync: Arc<SyncShared>,
    event: EventName,
    targets: Vec<RaiseTarget>,
    order: Vec<u8>,
    template: Vec<u8>,
    handles: Vec<ThreadHandle>,
    raisers: Vec<ThreadHandle>,
    dead_target: Option<u64>,
}

/// How long set-up and tear-down wait for threads before giving up.
const THREAD_WAIT: Duration = Duration::from_secs(10);

fn kernel_config(spec: &Spec) -> KernelConfig {
    let base = match spec.kind {
        Kind::Group => {
            KernelConfig::with_locator(LocatorStrategy::Multicast).without_location_cache()
        }
        _ => KernelConfig::default(),
    };
    // Stated, not defaulted: the workload's meaning depends on both.
    base.with_reactors(1).with_fabric(spec.fabric)
}

/// A stationary handler thread: attaches `handlers`, reports ready, then
/// sleeps at a delivery point until QUIT.
fn park_with_handlers(
    ctx: &mut Ctx,
    event: &EventName,
    handlers: Vec<AttachSpec>,
    ready: &AtomicU64,
) -> Result<Value, KernelError> {
    for h in handlers {
        ctx.attach_handler(event.clone(), h);
    }
    ready.fetch_add(1, Ordering::Release);
    loop {
        ctx.sleep(Duration::from_secs(3600))?;
    }
}

/// The bench handler for thread targets: count, stamp, resume.
fn leaf_handler(rec: &Arc<Recorder>, member: u64) -> AttachSpec {
    let rec = Arc::clone(rec);
    AttachSpec::proc("bench", move |_ctx, block| {
        if let Some(id) = rec.enter(&block.payload, member) {
            rec.exit(id, member);
        }
        HandlerDecision::Resume(Value::Null)
    })
}

/// The `local_sync` chain, in attach order (delivery walks it newest
/// first): a resuming handler that stamps the exit, 14 that propagate,
/// and on top the one that counts and stamps the entry.
fn sync_chain(rec: &Arc<Recorder>) -> Vec<AttachSpec> {
    let exit_rec = Arc::clone(rec);
    let enter_rec = Arc::clone(rec);
    let mut chain = vec![AttachSpec::proc("bench-resume", move |_ctx, block| {
        if let Some((id, _)) = record::header(&block.payload) {
            exit_rec.exit(id, 0);
        }
        HandlerDecision::Resume(Value::Null)
    })];
    for _ in 0..CHAIN_DEPTH - 2 {
        chain.push(AttachSpec::proc("bench-propagate", |_ctx, _block| {
            HandlerDecision::Propagate
        }));
    }
    chain.push(AttachSpec::proc("bench-enter", move |_ctx, block| {
        enter_rec.enter(&block.payload, 0);
        HandlerDecision::Propagate
    }));
    chain
}

impl Rig {
    /// Build the workload's cluster and targets. Everything that depends
    /// on the seed — filler bytes and target order — is drawn here;
    /// the fabric's own choices are seeded through the environment by the
    /// caller (`stamp::guard_environment`).
    ///
    /// # Errors
    ///
    /// Cluster spawn/object failures, or targets not ready in time.
    pub fn assemble(
        spec: &'static Spec,
        seed: u64,
        sample_every: u64,
        fault: Option<Fault>,
    ) -> Result<Rig, KernelError> {
        let record_fault = match fault {
            Some(Fault::Record(f)) => Some(f),
            _ => None,
        };
        let rec = Arc::new(Recorder::new(spec.recipients, sample_every, record_fault));
        let cluster = ClusterBuilder::new(spec.nodes)
            .config(kernel_config(spec))
            .reliable_with(ReliabilityConfig::default(), FailureConfig::default())
            .build();
        let facility = match fault {
            Some(Fault::NoFacility) => EventFacility::new(),
            _ => EventFacility::install(&cluster),
        };

        let mut rng = StdRng::seed_from_u64(seed);
        let template: Vec<u8> = (0..spec.payload_len.max(record::HEADER_LEN))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let order: Vec<u8> = (0..4096)
            .map(|_| rng.gen_range(0..spec.targets) as u8)
            .collect();

        let event = match spec.kind {
            Kind::LocalSync => facility.register_event(SYNC_EVENT),
            _ => EventName::System(SystemEvent::Timer),
        };
        let ready = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        let mut targets = Vec::new();
        let spawn_target = |node: usize, opts: SpawnOptions, handlers: Vec<AttachSpec>| {
            let (event, ready) = (event.clone(), Arc::clone(&ready));
            cluster.spawn_fn_with(node, opts, move |ctx| {
                park_with_handlers(ctx, &event, handlers, &ready)
            })
        };
        match spec.kind {
            Kind::Unicast => {
                for _ in 0..spec.targets {
                    let h = spawn_target(1, SpawnOptions::default(), vec![leaf_handler(&rec, 0)])?;
                    targets.push(RaiseTarget::Thread(h.thread()));
                    handles.push(h);
                }
            }
            Kind::Group => {
                // The raiser's node 0 hosts no member: every probe and
                // every receipt crosses the fabric.
                let group = cluster.create_group();
                let hosting = spec.nodes - 1;
                for m in 0..spec.targets {
                    let opts = SpawnOptions {
                        group: Some(group),
                        ..SpawnOptions::default()
                    };
                    let h =
                        spawn_target(1 + m % hosting, opts, vec![leaf_handler(&rec, m as u64)])?;
                    handles.push(h);
                }
                targets.push(RaiseTarget::Group(group));
            }
            Kind::LocalSync => {
                for _ in 0..spec.targets {
                    let h = spawn_target(0, SpawnOptions::default(), sync_chain(&rec))?;
                    targets.push(RaiseTarget::Thread(h.thread()));
                    handles.push(h);
                }
            }
            Kind::Object => {
                cluster.register_class("bench-sink", ClassBuilder::new("bench-sink").build());
                for _ in 0..spec.targets {
                    let object = cluster.create_object(
                        ObjectConfig::new("bench-sink", NodeId(1)).with_state_size(4096),
                    )?;
                    let rec = Arc::clone(&rec);
                    facility.on_object_event(
                        &cluster,
                        object,
                        event.clone(),
                        move |_c, _o, block| {
                            if let Some(id) = rec.enter(&block.payload, 0) {
                                rec.exit(id, 0);
                            }
                            HandlerDecision::Resume(Value::Null)
                        },
                    )?;
                    targets.push(RaiseTarget::Object(object));
                }
            }
        }
        let deadline = Instant::now() + THREAD_WAIT;
        while ready.load(Ordering::Acquire) < handles.len() as u64 {
            if Instant::now() > deadline {
                return Err(KernelError::Timeout("bench targets not ready".into()));
            }
            std::thread::sleep(Duration::from_micros(200));
        }

        let mut rig = Rig {
            spec,
            cluster,
            rec,
            sync: Arc::new(SyncShared::default()),
            event,
            targets,
            order,
            template,
            handles,
            raisers: Vec::new(),
            dead_target: match fault {
                Some(Fault::DeadTarget(id)) => Some(id),
                _ => None,
            },
        };
        if spec.kind == Kind::LocalSync {
            rig.start_sync_raisers(&facility)?;
        }
        Ok(rig)
    }

    /// Raise number `id`, due at `due_ns`, at the next target in the
    /// seeded order (workloads with an external generator).
    pub fn issue(&self, id: u64, due_ns: u64) -> RaiseTicket {
        let mut target = self.targets
            [usize::from(self.order[id as usize % self.order.len()]) % self.targets.len()];
        if self.dead_target == Some(id) {
            target = RaiseTarget::Thread(ThreadId::new(NodeId(1), u32::MAX));
        }
        self.cluster.raise_from(
            0,
            self.event.clone(),
            record::payload(&self.template, id, due_ns),
            target,
        )
    }

    /// Start the two `local_sync` raisers: logical threads on node 0,
    /// each in a closed loop of `raise_and_wait` at its own target.
    /// Raiser `r` uses raise ids `r, r + 2, r + 4, …`.
    fn start_sync_raisers(&mut self, facility: &Arc<EventFacility>) -> Result<(), KernelError> {
        for (r, target) in self.targets.clone().into_iter().enumerate() {
            let (rec, sync) = (Arc::clone(&self.rec), Arc::clone(&self.sync));
            let (facility, event) = (Arc::clone(facility), self.event.clone());
            let template = self.template.clone();
            let stride = self.targets.len() as u64;
            self.raisers.push(self.cluster.spawn_fn(0, move |ctx| {
                let mut samples: Vec<SyncSample> = Vec::new();
                let mut id = r as u64;
                while !sync.stop.load(Ordering::Relaxed) {
                    let timed = rec.is_timed(id);
                    let t0 = if timed { rec.now_ns() } else { 0 };
                    let payload = record::payload(&template, id, t0);
                    match facility.raise_and_wait(ctx, event.clone(), payload, target) {
                        Ok(_) if timed => samples.push((id, t0, rec.now_ns())),
                        Ok(_) => {}
                        Err(KernelError::Terminated) => break,
                        Err(_) => {
                            sync.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    id += stride;
                    // Release pairs with the harness's Acquire load: the
                    // count it reads covers handler writes made before it.
                    sync.completed[r].fetch_add(1, Ordering::Release);
                }
                sync.samples
                    .lock()
                    .expect("no raiser panics holding the samples lock")
                    .append(&mut samples);
                Ok(Value::Null)
            })?);
        }
        Ok(())
    }

    /// Raise ids issued so far by `local_sync` raiser `r`.
    pub fn sync_completed(&self, r: usize) -> u64 {
        self.sync.completed[r].load(Ordering::Acquire)
    }

    /// Stop the `local_sync` raisers and wait for them to publish their
    /// samples. Returns the number that did not end in time.
    pub fn stop_raisers(&mut self) -> usize {
        self.sync.stop.store(true, Ordering::Relaxed);
        self.raisers
            .drain(..)
            .map(|h| usize::from(h.join_timeout(THREAD_WAIT).is_none()))
            .sum()
    }

    /// Stop the raisers, QUIT the handler threads, and shut the cluster
    /// down. Returns the number of threads that did not end in time.
    pub fn teardown(mut self) -> usize {
        let mut stuck = self.stop_raisers();
        for h in &self.handles {
            self.cluster
                .raise_from(0, SystemEvent::Quit, Value::Null, h.thread())
                .detach();
        }
        for h in self.handles.drain(..) {
            stuck += usize::from(h.join_timeout(THREAD_WAIT).is_none());
        }
        self.cluster.shutdown();
        stuck
    }
}
