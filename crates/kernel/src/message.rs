//! Node-to-node kernel messages.

use crate::{DeliveryStatus, KernelError, ObjectId, ThreadAttributes, ThreadId, Value, WireEvent};
use doct_dsm::DsmMessage;
use doct_net::{NodeId, WireMessage};
use std::fmt;
use std::time::Duration;

/// What a `DeliverThread` probe found at the probed node, carried back to
/// the origin in a `DeliverReceipt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiptVerdict {
    /// The event was enqueued at this node's activation.
    Found(NodeId),
    /// The thread has no usable activation here ("not here").
    NotHere,
    /// The thread was here but its mailbox shed the event: the raise
    /// resolves as `Overloaded` (no retry — the mailbox said no) and the
    /// origin applies backpressure toward the named node.
    Overloaded(NodeId),
}

impl ReceiptVerdict {
    /// The status this verdict resolves the raise with; `None` for "not
    /// here", which only continues the locate.
    pub(crate) fn terminal(self) -> Option<DeliveryStatus> {
        match self {
            ReceiptVerdict::Found(node) => Some(DeliveryStatus::Delivered(node)),
            ReceiptVerdict::Overloaded(node) => Some(DeliveryStatus::Overloaded(node)),
            ReceiptVerdict::NotHere => None,
        }
    }
}

/// A TIMER/ALARM command for the kernel loop of the thread's root node,
/// which owns the thread's deadlines (§6.2 periodic TIMER events, one-shot
/// ALARM events).
#[derive(Debug, Clone)]
pub enum TimerCmd {
    /// Arm a timer for `thread`.
    Register {
        /// Target thread.
        thread: ThreadId,
        /// Timer id (for cancellation).
        id: u64,
        /// Firing period (or delay, for one-shot alarms).
        period: Duration,
        /// Payload delivered with each event.
        payload: Value,
        /// Fire ALARM once and disarm; otherwise fire TIMER every period.
        one_shot: bool,
    },
    /// Disarm one timer.
    Cancel {
        /// Target thread.
        thread: ThreadId,
        /// Timer id.
        id: u64,
    },
}

/// Everything that flows between node kernels.
#[derive(Clone)]
pub enum KernelMessage {
    /// Remote invocation request: the logical thread (attributes included)
    /// moves to the target node to execute `entry` on `object`.
    Invoke {
        /// Correlates the reply.
        call_id: u64,
        /// Node hosting the calling frame.
        reply_to: NodeId,
        /// Target object (must be homed at the receiving node).
        object: ObjectId,
        /// Entry point name.
        entry: String,
        /// Invocation arguments.
        args: Value,
        /// The thread's travelling attribute record.
        attrs: ThreadAttributes,
        /// Invocation depth of the new frame.
        depth: u32,
    },
    /// Remote invocation reply; carries the (possibly mutated) attributes
    /// back to the calling frame.
    InvokeReply {
        /// Correlation id from the request.
        call_id: u64,
        /// Entry result.
        result: Result<Value, KernelError>,
        /// The thread's attributes after executing remotely.
        attrs: ThreadAttributes,
    },
    /// Encapsulated DSM coherence traffic.
    Dsm(DsmMessage),
    /// Locate-and-deliver probe for a thread-targeted event (used by all
    /// three locator strategies; they differ in who gets the probe).
    DeliverThread {
        /// The event being delivered.
        event: WireEvent,
        /// Target thread.
        target: ThreadId,
        /// Node that originated the delivery (gets the receipt).
        origin: NodeId,
        /// Correlates receipts at the origin.
        delivery_id: u64,
        /// Hops taken so far (path-trace statistics).
        hops: u32,
        /// Anchor attempt: after locate probes lost the race against a
        /// fast-moving thread, enqueue at the thread's *root* activation
        /// (it drains the queue at its next delivery point there) instead
        /// of requiring the tip.
        anchor: bool,
        /// The probe was a unicast sent on a location-cache hint rather
        /// than part of a locator wave. A "not here" receipt for a hinted
        /// probe invalidates the cache entry, and hinted probes may chase
        /// a bounded number of forwarding hops even under the broadcast
        /// and multicast locators.
        hinted: bool,
    },
    /// Receipt for a `DeliverThread` probe.
    DeliverReceipt {
        /// Correlation id.
        delivery_id: u64,
        /// Found / not-here / shed-by-mailbox.
        verdict: ReceiptVerdict,
    },
    /// Event for a (possibly passive) object, routed to its home node.
    DeliverObject {
        /// The event.
        event: WireEvent,
        /// Target object.
        object: ObjectId,
    },
    /// A handler resumed a synchronous raiser (paper §5.3: synchronous
    /// send blocks "until it is explicitly resumed by a handler").
    SyncResume {
        /// The blocked raise's event seq.
        seq: u64,
        /// Target thread that is blocked (for routing to its activation).
        raiser: ThreadId,
        /// Verdict passed back to the raiser.
        verdict: Value,
    },
    /// Arm or disarm a timer at the thread's root node.
    Timer(TimerCmd),
    /// Orderly shutdown of the node's kernel loop.
    Shutdown,
}

impl fmt::Debug for KernelMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelMessage::Invoke { object, entry, .. } => {
                write!(f, "Invoke({object}::{entry})")
            }
            KernelMessage::InvokeReply { call_id, .. } => write!(f, "InvokeReply(#{call_id})"),
            KernelMessage::Dsm(m) => write!(f, "Dsm({m:?})"),
            KernelMessage::DeliverThread { event, target, .. } => {
                write!(f, "DeliverThread({} -> {target})", event.name)
            }
            KernelMessage::DeliverReceipt { verdict, .. } => {
                write!(f, "DeliverReceipt({verdict:?})")
            }
            KernelMessage::DeliverObject { event, object } => {
                write!(f, "DeliverObject({} -> {object})", event.name)
            }
            KernelMessage::SyncResume { seq, .. } => write!(f, "SyncResume(#{seq})"),
            KernelMessage::Timer(TimerCmd::Register { id, .. }) => {
                write!(f, "Timer(Register #{id})")
            }
            KernelMessage::Timer(TimerCmd::Cancel { id, .. }) => write!(f, "Timer(Cancel #{id})"),
            KernelMessage::Shutdown => f.write_str("Shutdown"),
        }
    }
}

impl WireMessage for KernelMessage {
    fn wire_size(&self) -> usize {
        match self {
            KernelMessage::Invoke { args, entry, .. } => 128 + entry.len() + args.wire_size(),
            KernelMessage::InvokeReply { result, .. } => {
                128 + match result {
                    Ok(v) => v.wire_size(),
                    Err(_) => 32,
                }
            }
            KernelMessage::Dsm(m) => m.wire_size(),
            KernelMessage::DeliverThread { event, .. } => event.wire_size(),
            KernelMessage::DeliverReceipt { .. } => 64,
            KernelMessage::DeliverObject { event, .. } => event.wire_size(),
            KernelMessage::SyncResume { verdict, .. } => 64 + verdict.wire_size(),
            KernelMessage::Timer(TimerCmd::Register { payload, .. }) => 64 + payload.wire_size(),
            KernelMessage::Timer(TimerCmd::Cancel { .. }) => 32,
            KernelMessage::Shutdown => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventName, SystemEvent};

    #[test]
    fn debug_is_compact() {
        let msg = KernelMessage::DeliverReceipt {
            delivery_id: 1,
            verdict: ReceiptVerdict::Found(NodeId(2)),
        };
        assert_eq!(format!("{msg:?}"), "DeliverReceipt(Found(NodeId(2)))");
        let cancel = KernelMessage::Timer(TimerCmd::Cancel {
            thread: ThreadId::new(NodeId(0), 1),
            id: 7,
        });
        assert_eq!(format!("{cancel:?}"), "Timer(Cancel #7)");
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = KernelMessage::Invoke {
            call_id: 1,
            reply_to: NodeId(0),
            object: ObjectId::new(NodeId(0), 1),
            entry: "e".into(),
            args: Value::Null,
            attrs: ThreadAttributes::new(ThreadId::new(NodeId(0), 1), NodeId(0)),
            depth: 0,
        };
        let big = KernelMessage::Invoke {
            call_id: 1,
            reply_to: NodeId(0),
            object: ObjectId::new(NodeId(0), 1),
            entry: "e".into(),
            args: Value::from(vec![0u8; 500]),
            attrs: ThreadAttributes::new(ThreadId::new(NodeId(0), 1), NodeId(0)),
            depth: 0,
        };
        assert!(big.wire_size() >= small.wire_size() + 500);
        let ev = WireEvent {
            name: EventName::System(SystemEvent::Timer),
            payload: Value::Null,
            raiser: None,
            raiser_node: NodeId(0),
            seq: 0,
            sync: false,
            t_raise_ns: 0,
            attrs: None,
            deadline_ns: None,
        };
        assert!(
            KernelMessage::DeliverThread {
                event: ev,
                target: ThreadId::new(NodeId(0), 1),
                origin: NodeId(0),
                delivery_id: 0,
                hops: 0,
                anchor: false,
                hinted: false,
            }
            .wire_size()
                >= 96
        );
        let register = |payload: Value| {
            KernelMessage::Timer(TimerCmd::Register {
                thread: ThreadId::new(NodeId(0), 1),
                id: 1,
                period: Duration::from_millis(10),
                payload,
                one_shot: false,
            })
            .wire_size()
        };
        assert!(register(Value::from(vec![0u8; 500])) >= register(Value::Null) + 500);
    }
}
