//! Loopback UDP socket backend: each node is a real socket, optionally a
//! real OS process.
//!
//! Every [`Transfer`] becomes one datagram (see [`crate::codec`] for the
//! frame layout); heartbeat probes are real datagrams too, so a
//! `kill -9`'d peer process genuinely falls silent and the failure
//! detector ages it to `Dead` from actual receive timestamps
//! ([`crate::FailureDetector::wire_round`]).
//!
//! Two deployment shapes share this backend:
//!
//! * **In-process** ([`UdpConfig::loopback`]): all `n` nodes live in one
//!   process, each with its own `127.0.0.1` socket. Partition injection
//!   still works because the *receive* side consults the shared link
//!   matrix before delivering — a cut link drops the datagram on the
//!   floor exactly where a real firewall would.
//! * **Multi-process** ([`UdpConfig::single`]): one node per OS process
//!   (the `doct-node` binary), peer addresses passed on the command
//!   line. The local link matrix is all-up; loss, reordering and peer
//!   death are supplied by the real world.
//!
//! Receive-path discipline: everything a peer puts in a datagram decodes
//! to either a valid frame or a typed [`crate::CodecError`] — counted in
//! `net.codec_errors` and dropped, never a panic. Frames addressed to a
//! node this process does not host, or naming out-of-range node ids, are
//! counted in `net.wire_rejects` and dropped.

use crate::codec::{self, Frame, MAX_FRAME};
use crate::envelope::Transfer;
use crate::fabric::Fabric;
use crate::network::{DeliveryPath, NetworkError, SendOutcome};
use crate::{Bytes, FailureDetector, NodeId, WireCodec};
use parking_lot::{Mutex, RwLock};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a receiver thread blocks in `recv_from` before re-checking
/// the shutdown flag. Bounds fabric teardown latency.
const RX_POLL: Duration = Duration::from_millis(25);

/// Socket wiring for [`crate::FabricSpec::Udp`]: the cluster-wide peer
/// address table plus the bound sockets of the nodes this process hosts.
#[derive(Debug)]
pub struct UdpConfig {
    /// Address of every node in the cluster, indexed by `NodeId`.
    pub(crate) peers: Vec<SocketAddr>,
    /// The locally hosted nodes with their bound sockets.
    pub(crate) sockets: Vec<(NodeId, UdpSocket)>,
}

impl UdpConfig {
    /// Host all `nodes` nodes in this process, each on its own
    /// OS-assigned `127.0.0.1` port. This is how the in-process benches
    /// and tests run the whole cluster over real sockets.
    ///
    /// # Errors
    ///
    /// Any socket bind / local-address failure.
    pub fn loopback(nodes: usize) -> io::Result<UdpConfig> {
        let mut peers = Vec::with_capacity(nodes);
        let mut sockets = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let socket = UdpSocket::bind("127.0.0.1:0")?;
            peers.push(socket.local_addr()?);
            sockets.push((NodeId(i as u32), socket));
        }
        Ok(UdpConfig { peers, sockets })
    }

    /// Host exactly one node (`me`) in this process, bound at
    /// `peers[me]`. This is the multi-process shape used by the
    /// `doct-node` binary: every process gets the same peer table and
    /// hosts its own row.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if `me` is outside the peer table; otherwise any
    /// socket bind failure.
    pub fn single(me: NodeId, peers: Vec<SocketAddr>) -> io::Result<UdpConfig> {
        let addr = peers.get(me.index()).copied().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "node id outside peer table")
        })?;
        let socket = UdpSocket::bind(addr)?;
        Ok(UdpConfig {
            peers,
            sockets: vec![(me, socket)],
        })
    }
}

/// The UDP backend (see the module docs for the deployment shapes).
pub(crate) struct UdpFabric<M: Send + 'static> {
    peers: Vec<SocketAddr>,
    /// `sockets[i]` is `Some` when `NodeId(i)` is hosted here.
    sockets: Vec<Option<Arc<UdpSocket>>>,
    /// The locally hosted nodes, in config order.
    local: Vec<NodeId>,
    path: DeliveryPath<M>,
    /// Shared with [`crate::Network`]: reliability installs the detector
    /// after fabric construction, and the receive threads start stamping
    /// `note_heard` the moment it appears.
    detector: Arc<RwLock<Option<Arc<FailureDetector>>>>,
    shutdown: Arc<AtomicBool>,
    rx_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl<M: WireCodec + Send + 'static> UdpFabric<M> {
    /// Bind the backend to its sockets and start one receiver thread per
    /// locally hosted node.
    ///
    /// # Errors
    ///
    /// [`NetworkError::InvalidConfig`] for a malformed peer/socket table,
    /// [`NetworkError::SpawnFailed`] if a receiver thread cannot be
    /// spawned.
    pub(crate) fn new(
        cfg: UdpConfig,
        path: DeliveryPath<M>,
        detector: Arc<RwLock<Option<Arc<FailureDetector>>>>,
    ) -> Result<Self, NetworkError> {
        if cfg.peers.len() != path.node_count() {
            return Err(NetworkError::InvalidConfig(
                "udp peer table size != node count",
            ));
        }
        if cfg.sockets.is_empty() {
            return Err(NetworkError::InvalidConfig("udp config hosts no nodes"));
        }
        let mut sockets: Vec<Option<Arc<UdpSocket>>> = vec![None; cfg.peers.len()];
        let mut local = Vec::with_capacity(cfg.sockets.len());
        for (node, socket) in cfg.sockets {
            let slot = sockets
                .get_mut(node.index())
                .ok_or(NetworkError::InvalidConfig(
                    "hosted node outside peer table",
                ))?;
            if slot.is_some() {
                return Err(NetworkError::InvalidConfig("node hosted twice"));
            }
            socket
                .set_read_timeout(Some(RX_POLL))
                .map_err(|_| NetworkError::InvalidConfig("set_read_timeout failed"))?;
            *slot = Some(Arc::new(socket));
            local.push(node);
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut rx_threads = Vec::with_capacity(local.len());
        for &node in &local {
            let socket = match sockets.get(node.index()).and_then(|s| s.clone()) {
                Some(s) => s,
                None => continue,
            };
            let handle = std::thread::Builder::new()
                .name(format!("doct-net-udp-rx-{node}"))
                .spawn(rx_loop(
                    node,
                    socket,
                    path.clone(),
                    Arc::clone(&detector),
                    Arc::clone(&shutdown),
                ))
                .map_err(|_| NetworkError::SpawnFailed("doct-net-udp-rx"))?;
            rx_threads.push(handle);
        }
        Ok(UdpFabric {
            peers: cfg.peers,
            sockets,
            local,
            path,
            detector,
            shutdown,
            rx_threads: Mutex::new(rx_threads),
        })
    }
}

/// The per-node receive loop: datagram → typed decode → addressing and
/// link admission → liveness stamp → shared delivery path.
fn rx_loop<M: WireCodec + Send + 'static>(
    me: NodeId,
    socket: Arc<UdpSocket>,
    path: DeliveryPath<M>,
    detector: Arc<RwLock<Option<Arc<FailureDetector>>>>,
    shutdown: Arc<AtomicBool>,
) -> impl FnOnce() {
    move || {
        let mut buf = vec![0u8; MAX_FRAME + 1];
        while !shutdown.load(Ordering::Relaxed) {
            let len = match socket.recv_from(&mut buf) {
                Ok((len, _)) => len,
                // WouldBlock/TimedOut is the read-timeout tick (platform
                // dependent which); anything else gets the same treatment
                // — re-check the flag and keep serving.
                Err(_) => continue,
            };
            // Fresh allocation per datagram: the decoded payload keeps a
            // zero-copy view into it, so the buffer must not be reused.
            let datagram = Bytes::from_vec(buf[..len].to_vec());
            let frame = match codec::decode_frame::<M>(&datagram) {
                Ok(frame) => frame,
                Err(_) => {
                    path.stats().codec_errors.inc();
                    continue;
                }
            };
            let (src, dst) = match &frame {
                Frame::Heartbeat { src, dst } => (*src, *dst),
                Frame::Transfer(t) => (t.src(), t.dst()),
            };
            if dst != me || src.index() >= path.node_count() {
                // Misaddressed or naming nodes that don't exist: a peer
                // bug (or hostile peer), not a codec failure.
                path.stats().wire_rejects.inc();
                continue;
            }
            // Receive-side link admission keeps partition injection
            // working over real sockets: a cut link drops the datagram
            // here, heartbeats included, so the detector sees genuine
            // silence.
            if !path.link_up(src, dst) {
                path.stats().dropped.inc();
                continue;
            }
            // Any datagram that made it through is proof of life.
            if let Some(d) = detector.read().clone() {
                d.note_heard(dst, src);
            }
            if let Frame::Transfer(transfer) = frame {
                path.deliver(transfer);
            }
        }
    }
}

impl<M: WireCodec + Send + 'static> Fabric<M> for UdpFabric<M> {
    fn name(&self) -> &'static str {
        "udp"
    }

    fn transmit(&self, transfer: Transfer<M>) -> SendOutcome {
        let (src, dst) = (transfer.src(), transfer.dst());
        let frame = match codec::encode_transfer(&transfer) {
            Ok(frame) => frame,
            Err(_) => {
                // Unencodable (oversized or an in-process-only variant):
                // typed accounting, no panic. The retransmit queue still
                // owns its tracked copy and will give the entry up.
                self.path.stats().codec_errors.inc();
                if let Some(rel) = self.path.reliable_handle() {
                    rel.recycle_transfer(transfer, self.path.stats());
                }
                return SendOutcome::DroppedDeadNode;
            }
        };
        // Encoded: this attempt's chunk buffer can go back to the pool
        // (the retransmit queue owns its own tracked copy).
        if let Some(rel) = self.path.reliable_handle() {
            rel.recycle_transfer(transfer, self.path.stats());
        }
        let socket = match self.sockets.get(src.index()).and_then(|s| s.as_ref()) {
            Some(s) => s,
            None => {
                // A send on behalf of a node this process does not host.
                self.path.stats().wire_rejects.inc();
                return SendOutcome::DroppedDeadNode;
            }
        };
        let Some(addr) = self.peers.get(dst.index()) else {
            self.path.stats().wire_rejects.inc();
            return SendOutcome::DroppedDeadNode;
        };
        match socket.send_to(&frame, addr) {
            Ok(_) => SendOutcome::Sent,
            Err(_) => {
                self.path.stats().dropped.inc();
                SendOutcome::DroppedDeadNode
            }
        }
    }

    fn wire_liveness(&self) -> Option<Vec<NodeId>> {
        Some(self.local.clone())
    }

    fn send_heartbeats(&self) {
        let detector = self.detector.read().clone();
        for &src in &self.local {
            let Some(socket) = self.sockets.get(src.index()).and_then(|s| s.as_ref()) else {
                continue;
            };
            for (i, addr) in self.peers.iter().enumerate() {
                let dst = NodeId(i as u32);
                if dst == src {
                    continue;
                }
                if let Some(d) = &detector {
                    d.count_heartbeat();
                }
                let _ = socket.send_to(&codec::encode_heartbeat(src, dst), addr);
            }
        }
    }
}

impl<M: Send + 'static> Drop for UdpFabric<M> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for handle in self.rx_threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}
