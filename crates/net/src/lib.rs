#![warn(missing_docs)]
//! # doct-net — simulated cluster network substrate
//!
//! The DO/CT environment of the paper runs on a cluster of machines
//! connected by a local-area network. This crate simulates that cluster
//! in-process so the layers above it (DSM, kernel, event facility) exchange
//! real asynchronous messages with configurable latency, while every send is
//! observable for the communication-cost experiments (DESIGN.md §4, E2/E6).
//!
//! The pieces:
//!
//! * [`NodeId`] — identity of a simulated machine.
//! * [`Network`] — the fabric: per-node mailboxes, unicast
//!   [`Network::send`], [`Network::broadcast`], and
//!   [`Network::multicast`] over multicast groups (§7.1 of the paper
//!   proposes multicast groups for thread location).
//! * [`LatencyModel`] — zero, fixed, or jittered per-message delay,
//!   implemented by a delay-line thread so senders never block.
//! * [`NetStats`] — atomic counter handles (messages/bytes per
//!   [`MessageClass`], plus the reliability, batching and pool series)
//!   that experiments snapshot before and after a region and diff.
//! * Partition control — links can be cut ([`Network::set_link`],
//!   [`Network::isolate`], one-way via [`Network::set_link_one_way`]) to
//!   inject failures.
//! * Reliability — [`Network::enable_reliability`] turns on acked,
//!   retried transport with exponential backoff, receiver-side dedupe,
//!   and a heartbeat [`FailureDetector`] whose [`PeerState`] verdicts let
//!   the kernel fail fast on unreachable nodes instead of hanging.
//!
//! # Example
//!
//! ```
//! use doct_net::{Network, NodeId, LatencyModel, MessageClass};
//!
//! let net: Network<String> = Network::new(3, LatencyModel::Zero);
//! let rx = net.take_mailbox(NodeId(1)).unwrap();
//! net.send(NodeId(0), NodeId(1), "hello".to_string(), MessageClass::Data);
//! let env = rx.recv().unwrap();
//! assert_eq!(env.payload, "hello");
//! assert_eq!(net.stats().sent(MessageClass::Data), 1);
//! ```

mod bytes;
pub mod clock;
mod codec;
mod delay;
mod envelope;
mod fabric;
mod failure;
mod latency;
mod multicast;
mod network;
mod pool;
mod reliable;
mod seed;
mod stats;
mod udp;

pub use bytes::Bytes;
pub use codec::{CodecError, WireCodec, MAX_FRAME};
pub use envelope::{BatchEnvelope, Envelope, MessageClass, WireMessage};
pub use fabric::FabricSpec;
pub use failure::{FailureConfig, FailureDetector, PeerState};
pub use latency::LatencyModel;
pub use multicast::{MulticastGroupId, MulticastRegistry};
pub use network::{Network, NetworkError, SendOutcome};
pub use reliable::ReliabilityConfig;
pub use seed::{derived_seed, doct_seed};
pub use stats::{NetStats, StatsSnapshot};
pub use udp::UdpConfig;

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identity of a simulated machine ("node") in the cluster.
///
/// Node ids are dense indices `0..n` assigned by [`Network::new`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(NodeId::from(3u32), NodeId(3));
    }

    #[test]
    fn node_id_ordering_is_numeric() {
        assert!(NodeId(2) < NodeId(10));
    }
}
