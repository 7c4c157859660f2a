//! `doct-node` — one DO/CT node as one OS process, talking real UDP.
//!
//! The in-process cluster simulates n machines inside one address space;
//! this binary is the other deployment shape the UDP fabric enables: one
//! `NodeKernel` per process, peer addresses on the command line, every
//! inter-node kernel message a real datagram. `scripts/udp_smoke.sh`
//! launches a 2-process cluster and runs the kill -9 round.
//!
//! Roles:
//!
//! * `--role target`: hosts the victim node. Spawns two long-lived
//!   sleeper threads (delivery points every slice), prints
//!   `READY <thread-seqs>` on stdout, and sleeps until terminated —
//!   normally by the driver's `kill -9`.
//! * `--role driver --victim-pid <pid>`: hosts the driving node.
//!   Phase A (live peer): raises TIMER at sleeper 1 (expects
//!   delivered), then QUIT at sleeper 1 (expects delivered — the
//!   distributed kill). Phase B (dead peer): `kill -9`s the victim
//!   process, raises TIMER at sleeper 2, and expects the heartbeat
//!   detector to age the silent node to `Dead` so the raise resolves
//!   as a prompt dead-target verdict instead of hanging. Exits 0 only
//!   if the five-term delivery ledger balances:
//!   `requested = delivered + dead + timeout + lost + overloaded`.
//!
//! Usage:
//!   doct-node --role target --me 1 --peers 127.0.0.1:7401,127.0.0.1:7402
//!   doct-node --role driver --me 0 --peers 127.0.0.1:7401,127.0.0.1:7402 \
//!             --victim-pid 12345

use doct_kernel::{
    ClassRegistry, EventName, GroupRegistry, IoHub, KernelConfig, KernelMessage, NodeKernel,
    ObjectDirectory, RaiseTarget, SystemEvent, ThreadAttributes, ThreadId, Value,
};
use doct_net::{
    FabricSpec, FailureConfig, NetStats, Network, NodeId, PeerState, ReliabilityConfig, UdpConfig,
};
use doct_telemetry::Telemetry;
use std::io::Write;
use std::net::SocketAddr;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SLEEPERS: usize = 2;

struct Args {
    role: String,
    me: u32,
    peers: Vec<SocketAddr>,
    victim_pid: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut role = None;
    let mut me = None;
    let mut peers = None;
    let mut victim_pid = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--role" => role = Some(value()?),
            "--me" => {
                me = Some(value()?.parse::<u32>().map_err(|e| format!("--me: {e}"))?);
            }
            "--peers" => {
                let list = value()?;
                let parsed: Result<Vec<SocketAddr>, _> = list.split(',').map(str::parse).collect();
                peers = Some(parsed.map_err(|e| format!("--peers: {e}"))?);
            }
            "--victim-pid" => {
                victim_pid = Some(
                    value()?
                        .parse::<u32>()
                        .map_err(|e| format!("--victim-pid: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        role: role.ok_or("--role is required")?,
        me: me.ok_or("--me is required")?,
        peers: peers.ok_or("--peers is required")?,
        victim_pid,
    })
}

/// Reliability tuning for the smoke run: fast heartbeats so the dead
/// verdict lands well inside the delivery timeout.
fn reliability() -> (ReliabilityConfig, FailureConfig) {
    (
        ReliabilityConfig {
            max_retries: 20,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            jitter: Duration::from_millis(2),
            tick: Duration::from_millis(5),
            heartbeat_interval: Duration::from_millis(20),
            ..ReliabilityConfig::default()
        },
        FailureConfig {
            suspect_after: Duration::from_millis(150),
            dead_after: Duration::from_millis(500),
        },
    )
}

/// Build this process's node: a UDP network spanning the whole peer
/// table, hosting only `me`, plus a started kernel on top.
fn start_node(
    me: NodeId,
    peers: Vec<SocketAddr>,
) -> (Arc<Network<KernelMessage>>, Arc<NodeKernel>) {
    let nodes = peers.len();
    let telemetry = Telemetry::shared();
    let udp = match UdpConfig::single(me, peers) {
        Ok(udp) => udp,
        Err(e) => fail(&format!("bind {me}: {e}")),
    };
    let net = match Network::try_with_fabric(
        nodes,
        FabricSpec::Udp(udp),
        Arc::new(NetStats::bound(telemetry.registry())),
    ) {
        Ok(net) => Arc::new(net),
        Err(e) => fail(&format!("fabric: {e}")),
    };
    let (rel, failure) = reliability();
    if let Err(e) = net.enable_reliability(rel, failure) {
        fail(&format!("reliability: {e}"));
    }
    let config = KernelConfig {
        delivery_timeout: Duration::from_secs(3),
        delivery_retries: 2,
        ..KernelConfig::default()
    };
    let kernel = NodeKernel::new(
        me,
        config,
        Arc::clone(&net),
        Arc::new(ObjectDirectory::new()),
        Arc::new(ClassRegistry::new()),
        Arc::new(GroupRegistry::new()),
        Arc::new(IoHub::new()),
        doct_dsm::DsmConfig::default(),
        telemetry,
    );
    kernel.start();
    (net, kernel)
}

fn fail(msg: &str) -> ! {
    eprintln!("doct-node: {msg}");
    exit(1);
}

fn run_target(me: NodeId, peers: Vec<SocketAddr>) -> ! {
    let (_net, kernel) = start_node(me, peers);
    let mut seqs = Vec::new();
    let mut joins = Vec::new();
    for _ in 0..SLEEPERS {
        let thread = kernel.new_thread_id();
        seqs.push(thread.seq);
        let attrs = ThreadAttributes::new(thread, kernel.node_id());
        joins.push(kernel.spawn_logical(attrs, |ctx| {
            // Sleep in slices: every boundary is a delivery point where
            // TIMER and QUIT events land.
            for _ in 0..1200 {
                ctx.sleep(Duration::from_millis(100))?;
            }
            Ok(Value::Null)
        }));
    }
    let seq_list = seqs
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",");
    println!("READY {seq_list}");
    let _ = std::io::stdout().flush();
    // Stay alive until killed (or the sleepers run out after ~2 min).
    for rx in joins {
        let _ = rx.recv();
    }
    exit(0);
}

/// Raise `name` at `target` and wait for the delivery summary.
fn raise(
    kernel: &Arc<NodeKernel>,
    name: SystemEvent,
    target: ThreadId,
) -> doct_kernel::DeliverySummary {
    let (ticket, _seq) = kernel.raise_event(
        EventName::System(name),
        Value::Null,
        RaiseTarget::Thread(target),
        false,
        None,
    );
    ticket.wait()
}

fn await_peer(
    net: &Arc<Network<KernelMessage>>,
    me: NodeId,
    peer: NodeId,
    want: PeerState,
    deadline: Duration,
) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if net.peer_state(me, peer) == Some(want) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn run_driver(me: NodeId, peers: Vec<SocketAddr>, victim_pid: u32) -> ! {
    let victim = NodeId(if me.0 == 0 { 1 } else { 0 });
    let (net, kernel) = start_node(me, peers);

    // The launcher started the driver only after the target printed
    // READY, so its sleepers exist; wait until heartbeats flow.
    if !await_peer(&net, me, victim, PeerState::Alive, Duration::from_secs(5)) {
        fail("victim never became Alive");
    }

    // Phase A: the peer is up — TIMER then the distributed kill (QUIT),
    // both must be delivered.
    let timer = raise(&kernel, SystemEvent::Timer, ThreadId::new(victim, 1));
    if timer.delivered != 1 {
        fail(&format!("phase A TIMER not delivered: {timer:?}"));
    }
    let quit = raise(&kernel, SystemEvent::Quit, ThreadId::new(victim, 1));
    if quit.delivered != 1 {
        fail(&format!("phase A QUIT not delivered: {quit:?}"));
    }
    println!("phase A: TIMER and QUIT delivered to live peer");

    // Phase B: kill -9 the victim process. The node falls silent
    // mid-protocol; only the heartbeat detector can tell.
    let status = std::process::Command::new("kill")
        .args(["-9", &victim_pid.to_string()])
        .status();
    if !status.map(|s| s.success()).unwrap_or(false) {
        fail("kill -9 failed");
    }
    let dead = raise(&kernel, SystemEvent::Timer, ThreadId::new(victim, 2));
    if dead.dead != 1 {
        fail(&format!("phase B raise did not resolve dead: {dead:?}"));
    }
    if !await_peer(&net, me, victim, PeerState::Dead, Duration::from_secs(5)) {
        fail("detector never marked the killed node Dead");
    }
    println!("phase B: killed node marked Dead, raise resolved as dead-target");

    // The five-term ledger, from this process's own telemetry.
    let ledger = kernel.stats().ledger();
    println!("ledger: {ledger}");
    if !ledger.balanced() {
        fail("ledger out of balance");
    }
    if (ledger.requested, ledger.delivered, ledger.dead) != (3, 2, 1) {
        fail("expected exactly requested=3 delivered=2 dead=1");
    }
    println!("UDP-SMOKE PASS");
    exit(0);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => fail(&e),
    };
    let me = NodeId(args.me);
    if args.peers.len() < 2 {
        fail("need at least 2 peers");
    }
    match args.role.as_str() {
        "target" => run_target(me, args.peers),
        "driver" => {
            let Some(pid) = args.victim_pid else {
                fail("driver needs --victim-pid");
            };
            run_driver(me, args.peers, pid)
        }
        other => fail(&format!("unknown role {other}")),
    }
}
