//! Nodes built the way `doct-node` builds them — `NodeKernel::new` plus
//! `start`, each with private registries, sharing nothing but one network
//! and no `Cluster` — must offer the whole `Ctx` surface. These tests pin
//! the §6.2 TIMER/ALARM path: a thread's timers live in the kernel loop of
//! its root node, so they need no cluster-wide service.

use doct_dsm::DsmConfig;
use doct_kernel::{
    ClassRegistry, Ctx, GroupRegistry, IoHub, KernelConfig, KernelError, KernelMessage, NodeKernel,
    ObjectDirectory, ThreadAttributes, Value,
};
use doct_net::{FabricSpec, LatencyModel, MessageClass, NetStats, Network, NodeId, UdpConfig};
use doct_telemetry::Telemetry;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `n` started kernels on one network, each with its own object
/// directory, class registry, group registry and console hub.
struct Nodes {
    net: Arc<Network<KernelMessage>>,
    kernels: Vec<Arc<NodeKernel>>,
    joins: Vec<JoinHandle<()>>,
}

impl Nodes {
    fn start(spec: FabricSpec, n: usize) -> Nodes {
        let telemetry = Telemetry::shared();
        let stats = Arc::new(NetStats::bound(telemetry.registry()));
        let net = Arc::new(Network::try_with_fabric(n, spec, stats).expect("fabric"));
        let mut kernels = Vec::new();
        let mut joins = Vec::new();
        for i in 0..n {
            let k = NodeKernel::new(
                NodeId(i as u32),
                KernelConfig::default(),
                Arc::clone(&net),
                Arc::new(ObjectDirectory::new()),
                Arc::new(ClassRegistry::new()),
                Arc::new(GroupRegistry::new()),
                Arc::new(IoHub::new()),
                DsmConfig::default(),
                Arc::clone(&telemetry),
            );
            joins.extend(k.start());
            kernels.push(k);
        }
        Nodes {
            net,
            kernels,
            joins,
        }
    }

    fn sim(n: usize) -> Nodes {
        Nodes::start(FabricSpec::Sim(LatencyModel::Zero), n)
    }

    /// Run `body` as a logical thread rooted at node `i` and return its
    /// result.
    fn run(
        &self,
        i: usize,
        body: impl FnOnce(&mut Ctx) -> Result<Value, KernelError> + Send + 'static,
    ) -> Result<Value, KernelError> {
        let k = &self.kernels[i];
        let attrs = ThreadAttributes::new(k.new_thread_id(), k.node_id());
        k.spawn_logical(attrs, body)
            .recv_timeout(Duration::from_secs(10))
            .expect("thread finished")
    }

    fn thread_events(&self, i: usize) -> u64 {
        self.kernels[i].stats().thread_events.get()
    }
}

impl Drop for Nodes {
    fn drop(&mut self) {
        for k in &self.kernels {
            k.request_shutdown();
            let _ = self.net.send(
                k.node_id(),
                k.node_id(),
                KernelMessage::Shutdown,
                MessageClass::Control,
            );
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

fn alarm_fires_once(nodes: &Nodes) {
    nodes
        .run(1, |ctx| {
            ctx.set_alarm(Duration::from_millis(30), "wake");
            ctx.sleep(Duration::from_millis(200))?;
            Ok(Value::Null)
        })
        .unwrap();
    assert_eq!(nodes.thread_events(1), 1, "the ALARM fired exactly once");
}

#[test]
fn alarm_fires_once_on_a_node_built_without_a_cluster() {
    alarm_fires_once(&Nodes::sim(2));
}

#[test]
fn cancelled_timer_stops_on_a_node_built_without_a_cluster() {
    let nodes = Nodes::sim(2);
    let k = Arc::clone(&nodes.kernels[0]);
    let (before, after) = nodes
        .run(0, move |ctx| {
            let id = ctx.add_timer(Duration::from_millis(10), "tick");
            ctx.sleep(Duration::from_millis(100))?;
            ctx.cancel_timer(id);
            // Let a fire raised before the cancel landed settle.
            ctx.sleep(Duration::from_millis(30))?;
            let before = k.stats().thread_events.get() as i64;
            ctx.sleep(Duration::from_millis(100))?;
            let after = k.stats().thread_events.get() as i64;
            Ok(Value::List(vec![Value::Int(before), Value::Int(after)]))
        })
        .map(|v| {
            let pair = v.as_list().expect("pair").to_vec();
            (pair[0].as_int().unwrap(), pair[1].as_int().unwrap())
        })
        .unwrap();
    assert!(before >= 3, "a 10 ms timer fired {before} times in 100 ms");
    assert_eq!(after, before, "no TIMER after cancel");
}

#[test]
fn alarm_fires_once_over_udp_without_a_cluster() {
    let udp = UdpConfig::loopback(2).expect("bind loopback udp sockets");
    let nodes = Nodes::start(FabricSpec::Udp(udp), 2);
    alarm_fires_once(&nodes);
    assert_eq!(
        nodes.net.stats().codec_errors.get(),
        0,
        "Register crossed the DCT1 codec"
    );
}
