//! [`WireCodec`] for [`KernelMessage`] — what lets a kernel cluster run
//! over the real-socket UDP fabric (`DOCT_FABRIC=udp`), one node per OS
//! process.
//!
//! Only the message variants that are meaningful *between* OS processes
//! serialize. `Invoke`/`InvokeReply` carry live closure state through
//! [`crate::Value`]-typed arguments plus extension-laden attributes, and
//! `Dsm` coherence traffic assumes the in-process shared-memory
//! simulation — all three are rejected with
//! [`CodecError::Unsupported`] at encode time (a typed error the fabric
//! counts in `net.codec_errors`; never a panic). The event-delivery
//! plane — `DeliverThread`, `DeliverReceipt`, `DeliverObject`,
//! `SyncResume`, `Timer`, `Shutdown` — is fully serializable, which is
//! exactly the surface the paper's event facility needs across machines.
//!
//! Attribute records serialize their *portable* slice (identity, group,
//! I/O channel, consistency label, key/value memory). The typed
//! extension bag is process-local by construction (trait objects) and is
//! dropped on the wire; the receiving facility rebuilds registries from
//! its own defaults, matching §6.1's surrogate-thread semantics.
//!
//! Every decode path returns a typed [`CodecError`] on malformed input —
//! a hostile or corrupted datagram must never panic the local kernel.

use crate::{
    EventName, KernelMessage, ObjectId, ReceiptVerdict, SystemEvent, ThreadAttributes,
    ThreadGroupId, ThreadId, TimerCmd, Value, WireEvent,
};
use doct_net::{Bytes, CodecError, NodeId, WireCodec};
use std::time::Duration;

// ---------------------------------------------------------------------
// Message tags.
// ---------------------------------------------------------------------

const TAG_DELIVER_THREAD: u8 = 0;
const TAG_DELIVER_RECEIPT: u8 = 1;
const TAG_DELIVER_OBJECT: u8 = 2;
const TAG_SYNC_RESUME: u8 = 3;
const TAG_SHUTDOWN: u8 = 4;
const TAG_TIMER_REGISTER: u8 = 5;
const TAG_TIMER_CANCEL: u8 = 6;

// ---------------------------------------------------------------------
// Write helpers (all big-endian, matching the frame codec).
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_node(out: &mut Vec<u8>, n: NodeId) {
    put_u32(out, n.0);
}

fn put_thread(out: &mut Vec<u8>, t: ThreadId) {
    put_node(out, t.root);
    put_u32(out, t.seq);
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), CodecError> {
    let len = u32::try_from(s.len()).map_err(|_| CodecError::Unsupported("string too long"))?;
    put_u32(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_value(out: &mut Vec<u8>, v: &Value) -> Result<(), CodecError> {
    let bytes = v.encode();
    let len = u32::try_from(bytes.len()).map_err(|_| CodecError::Unsupported("value too large"))?;
    put_u32(out, len);
    out.extend_from_slice(&bytes);
    Ok(())
}

fn put_opt<T: ?Sized>(
    out: &mut Vec<u8>,
    v: Option<&T>,
    put: impl FnOnce(&mut Vec<u8>, &T) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    match v {
        None => {
            out.push(0);
            Ok(())
        }
        Some(v) => {
            out.push(1);
            put(out, v)
        }
    }
}

fn put_event_name(out: &mut Vec<u8>, name: &EventName) -> Result<(), CodecError> {
    match name {
        EventName::System(s) => {
            let idx = SystemEvent::ALL
                .iter()
                .position(|e| e == s)
                .ok_or(CodecError::Unsupported("system event outside ALL"))?;
            out.push(0);
            out.push(idx as u8);
            Ok(())
        }
        EventName::User(u) => {
            out.push(1);
            put_str(out, u)
        }
    }
}

fn put_attrs(out: &mut Vec<u8>, attrs: &ThreadAttributes) -> Result<(), CodecError> {
    put_thread(out, attrs.thread);
    put_node(out, attrs.creator);
    put_opt(out, attrs.group.as_ref(), |out, g| {
        put_u64(out, g.0);
        Ok(())
    })?;
    put_opt(out, attrs.io_channel.as_deref(), put_str)?;
    put_opt(out, attrs.consistency_label.as_deref(), |out, s| {
        put_str(out, s)
    })?;
    let values = u32::try_from(attrs.values.len())
        .map_err(|_| CodecError::Unsupported("too many values"))?;
    put_u32(out, values);
    for (k, v) in &attrs.values {
        put_str(out, k)?;
        put_value(out, v)?;
    }
    Ok(())
}

fn put_event(out: &mut Vec<u8>, ev: &WireEvent) -> Result<(), CodecError> {
    put_event_name(out, &ev.name)?;
    put_value(out, &ev.payload)?;
    put_opt(out, ev.raiser.as_ref(), |out, t| {
        put_thread(out, *t);
        Ok(())
    })?;
    put_node(out, ev.raiser_node);
    put_u64(out, ev.seq);
    put_bool(out, ev.sync);
    put_u64(out, ev.t_raise_ns);
    put_opt(out, ev.attrs.as_ref(), put_attrs)?;
    put_opt(out, ev.deadline_ns.as_ref(), |out, ns| {
        put_u64(out, *ns);
        Ok(())
    })
}

fn put_verdict(out: &mut Vec<u8>, v: &ReceiptVerdict) {
    match v {
        ReceiptVerdict::Found(n) => {
            out.push(0);
            put_node(out, *n);
        }
        ReceiptVerdict::NotHere => out.push(1),
        ReceiptVerdict::Overloaded(n) => {
            out.push(2);
            put_node(out, *n);
        }
    }
}

// ---------------------------------------------------------------------
// Read side: a bounds-checked cursor over the zero-copy payload view.
// ---------------------------------------------------------------------

struct Rd<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a Bytes) -> Self {
        Rd { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated {
            need: n,
            have: self.remaining(),
        })?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let slice = &self.buf.as_slice()[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Zero-copy sub-view of the payload (shares the datagram's backing
    /// allocation), for nested [`Value::decode_shared`].
    fn take_view(&mut self, n: usize) -> Result<Bytes, CodecError> {
        let start = self.pos;
        self.take(n)?;
        Ok(self.buf.slice(start..start + n))
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b: [u8; 4] = self.take(4)?.try_into().expect("length checked");
        Ok(u32::from_be_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b: [u8; 8] = self.take(8)?.try_into().expect("length checked");
        Ok(u64::from_be_bytes(b))
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Payload("bad bool byte")),
        }
    }

    fn node(&mut self) -> Result<NodeId, CodecError> {
        Ok(NodeId(self.u32()?))
    }

    fn thread(&mut self) -> Result<ThreadId, CodecError> {
        let root = self.node()?;
        let seq = self.u32()?;
        Ok(ThreadId { root, seq })
    }

    fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Payload("invalid utf-8 string"))
    }

    fn value(&mut self) -> Result<Value, CodecError> {
        let len = self.u32()? as usize;
        let view = self.take_view(len)?;
        Value::decode_shared(&view).map_err(|_| CodecError::Payload("malformed value"))
    }

    fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            _ => Err(CodecError::Payload("bad option flag")),
        }
    }

    fn event_name(&mut self) -> Result<EventName, CodecError> {
        match self.u8()? {
            0 => {
                let idx = self.u8()? as usize;
                SystemEvent::ALL
                    .get(idx)
                    .copied()
                    .map(EventName::System)
                    .ok_or(CodecError::Payload("unknown system event"))
            }
            1 => Ok(EventName::User(self.str()?)),
            _ => Err(CodecError::Payload("bad event-name tag")),
        }
    }

    fn attrs(&mut self) -> Result<ThreadAttributes, CodecError> {
        let thread = self.thread()?;
        let creator = self.node()?;
        let mut attrs = ThreadAttributes::new(thread, creator);
        attrs.group = self.opt(|rd| Ok(ThreadGroupId(rd.u64()?)))?;
        attrs.io_channel = self.opt(Rd::str)?;
        attrs.consistency_label = self.opt(Rd::str)?;
        let values = self.u32()? as usize;
        for _ in 0..values {
            let k = self.str()?;
            let v = self.value()?;
            attrs.values.insert(k, v);
        }
        Ok(attrs)
    }

    fn event(&mut self) -> Result<WireEvent, CodecError> {
        Ok(WireEvent {
            name: self.event_name()?,
            payload: self.value()?,
            raiser: self.opt(Rd::thread)?,
            raiser_node: self.node()?,
            seq: self.u64()?,
            sync: self.bool()?,
            t_raise_ns: self.u64()?,
            attrs: self.opt(Rd::attrs)?,
            deadline_ns: self.opt(Rd::u64)?,
        })
    }

    fn verdict(&mut self) -> Result<ReceiptVerdict, CodecError> {
        match self.u8()? {
            0 => Ok(ReceiptVerdict::Found(self.node()?)),
            1 => Ok(ReceiptVerdict::NotHere),
            2 => Ok(ReceiptVerdict::Overloaded(self.node()?)),
            _ => Err(CodecError::Payload("bad verdict tag")),
        }
    }
}

impl WireCodec for KernelMessage {
    fn encode_payload(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        match self {
            KernelMessage::Invoke { .. } => Err(CodecError::Unsupported(
                "Invoke carries closure-typed state; sim fabric only",
            )),
            KernelMessage::InvokeReply { .. } => Err(CodecError::Unsupported(
                "InvokeReply carries closure-typed state; sim fabric only",
            )),
            KernelMessage::Dsm(_) => Err(CodecError::Unsupported(
                "DSM coherence assumes the in-process simulation",
            )),
            KernelMessage::DeliverThread {
                event,
                target,
                origin,
                delivery_id,
                hops,
                anchor,
                hinted,
            } => {
                out.push(TAG_DELIVER_THREAD);
                put_event(out, event)?;
                put_thread(out, *target);
                put_node(out, *origin);
                put_u64(out, *delivery_id);
                put_u32(out, *hops);
                put_bool(out, *anchor);
                put_bool(out, *hinted);
                Ok(())
            }
            KernelMessage::DeliverReceipt {
                delivery_id,
                verdict,
            } => {
                out.push(TAG_DELIVER_RECEIPT);
                put_u64(out, *delivery_id);
                put_verdict(out, verdict);
                Ok(())
            }
            KernelMessage::DeliverObject { event, object } => {
                out.push(TAG_DELIVER_OBJECT);
                put_event(out, event)?;
                put_u64(out, object.0);
                Ok(())
            }
            KernelMessage::SyncResume {
                seq,
                raiser,
                verdict,
            } => {
                out.push(TAG_SYNC_RESUME);
                put_u64(out, *seq);
                put_thread(out, *raiser);
                put_value(out, verdict)
            }
            KernelMessage::Timer(TimerCmd::Register {
                thread,
                id,
                period,
                payload,
                one_shot,
            }) => {
                out.push(TAG_TIMER_REGISTER);
                put_thread(out, *thread);
                put_u64(out, *id);
                let ns = u64::try_from(period.as_nanos())
                    .map_err(|_| CodecError::Unsupported("timer period overflows u64 ns"))?;
                put_u64(out, ns);
                put_value(out, payload)?;
                put_bool(out, *one_shot);
                Ok(())
            }
            KernelMessage::Timer(TimerCmd::Cancel { thread, id }) => {
                out.push(TAG_TIMER_CANCEL);
                put_thread(out, *thread);
                put_u64(out, *id);
                Ok(())
            }
            KernelMessage::Shutdown => {
                out.push(TAG_SHUTDOWN);
                Ok(())
            }
        }
    }

    fn decode_payload(buf: &Bytes) -> Result<Self, CodecError> {
        let mut rd = Rd::new(buf);
        let msg = match rd.u8()? {
            TAG_DELIVER_THREAD => {
                let event = rd.event()?;
                let target = rd.thread()?;
                let origin = rd.node()?;
                let delivery_id = rd.u64()?;
                let hops = rd.u32()?;
                let anchor = rd.bool()?;
                let hinted = rd.bool()?;
                KernelMessage::DeliverThread {
                    event,
                    target,
                    origin,
                    delivery_id,
                    hops,
                    anchor,
                    hinted,
                }
            }
            TAG_DELIVER_RECEIPT => KernelMessage::DeliverReceipt {
                delivery_id: rd.u64()?,
                verdict: rd.verdict()?,
            },
            TAG_DELIVER_OBJECT => KernelMessage::DeliverObject {
                event: rd.event()?,
                object: ObjectId(rd.u64()?),
            },
            TAG_SYNC_RESUME => KernelMessage::SyncResume {
                seq: rd.u64()?,
                raiser: rd.thread()?,
                verdict: rd.value()?,
            },
            TAG_TIMER_REGISTER => KernelMessage::Timer(TimerCmd::Register {
                thread: rd.thread()?,
                id: rd.u64()?,
                period: Duration::from_nanos(rd.u64()?),
                payload: rd.value()?,
                one_shot: rd.bool()?,
            }),
            TAG_TIMER_CANCEL => KernelMessage::Timer(TimerCmd::Cancel {
                thread: rd.thread()?,
                id: rd.u64()?,
            }),
            TAG_SHUTDOWN => KernelMessage::Shutdown,
            tag => return Err(CodecError::BadKind(tag)),
        };
        if rd.remaining() != 0 {
            return Err(CodecError::Payload("trailing bytes after message"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelError;
    use doct_dsm::{DsmMessage, FaultKind, PageId, SegmentId};

    fn roundtrip(msg: &KernelMessage) -> KernelMessage {
        let mut out = Vec::new();
        msg.encode_payload(&mut out).expect("encode");
        KernelMessage::decode_payload(&Bytes::from_vec(out)).expect("decode")
    }

    fn sample_event() -> WireEvent {
        let mut attrs = ThreadAttributes::new(ThreadId::new(NodeId(2), 7), NodeId(2));
        attrs.group = Some(ThreadGroupId::new(NodeId(2), 1));
        attrs.io_channel = Some("tty0".into());
        attrs.consistency_label = Some("serial".into());
        attrs.values.insert("budget".into(), Value::Int(9));
        WireEvent {
            name: EventName::user("COMMIT"),
            payload: Value::from(vec![1u8, 2, 3]),
            raiser: Some(ThreadId::new(NodeId(2), 7)),
            raiser_node: NodeId(2),
            seq: 99,
            sync: true,
            t_raise_ns: 123_456,
            attrs: Some(attrs),
            deadline_ns: Some(777),
        }
    }

    fn sample_register() -> KernelMessage {
        KernelMessage::Timer(TimerCmd::Register {
            thread: ThreadId::new(NodeId(2), 7),
            id: 42,
            period: Duration::from_millis(250),
            payload: Value::from("tick"),
            one_shot: true,
        })
    }

    #[test]
    fn deliver_thread_roundtrips_with_full_attributes() {
        let msg = KernelMessage::DeliverThread {
            event: sample_event(),
            target: ThreadId::new(NodeId(1), 3),
            origin: NodeId(0),
            delivery_id: 555,
            hops: 2,
            anchor: true,
            hinted: true,
        };
        let KernelMessage::DeliverThread {
            event,
            target,
            origin,
            delivery_id,
            hops,
            anchor,
            hinted,
        } = roundtrip(&msg)
        else {
            panic!("wrong variant");
        };
        assert_eq!(
            (target, origin, delivery_id, hops, anchor, hinted),
            (ThreadId::new(NodeId(1), 3), NodeId(0), 555, 2, true, true)
        );
        assert_eq!(event.name, EventName::user("COMMIT"));
        assert_eq!(event.payload, Value::from(vec![1u8, 2, 3]));
        assert_eq!(event.raiser, Some(ThreadId::new(NodeId(2), 7)));
        assert_eq!(
            (event.seq, event.sync, event.t_raise_ns),
            (99, true, 123_456)
        );
        assert_eq!(event.deadline_ns, Some(777));
        let attrs = event.attrs.expect("attrs travel");
        assert_eq!(attrs.thread, ThreadId::new(NodeId(2), 7));
        assert_eq!(attrs.group, Some(ThreadGroupId::new(NodeId(2), 1)));
        assert_eq!(attrs.io_channel.as_deref(), Some("tty0"));
        assert_eq!(attrs.consistency_label.as_deref(), Some("serial"));
        assert_eq!(attrs.values.get("budget"), Some(&Value::Int(9)));
    }

    #[test]
    fn system_events_and_sparse_options_roundtrip() {
        for sys in SystemEvent::ALL {
            let msg = KernelMessage::DeliverObject {
                event: WireEvent {
                    name: EventName::System(sys),
                    payload: Value::Null,
                    raiser: None,
                    raiser_node: NodeId(0),
                    seq: 1,
                    sync: false,
                    t_raise_ns: 0,
                    attrs: None,
                    deadline_ns: None,
                },
                object: ObjectId::new(NodeId(3), 5),
            };
            let KernelMessage::DeliverObject { event, object } = roundtrip(&msg) else {
                panic!("wrong variant");
            };
            assert_eq!(event.name, EventName::System(sys));
            assert_eq!(object, ObjectId::new(NodeId(3), 5));
        }
    }

    #[test]
    fn receipts_resume_and_shutdown_roundtrip() {
        for verdict in [
            ReceiptVerdict::Found(NodeId(4)),
            ReceiptVerdict::NotHere,
            ReceiptVerdict::Overloaded(NodeId(2)),
        ] {
            let msg = KernelMessage::DeliverReceipt {
                delivery_id: 31,
                verdict,
            };
            let KernelMessage::DeliverReceipt {
                delivery_id,
                verdict: got,
            } = roundtrip(&msg)
            else {
                panic!("wrong variant");
            };
            assert_eq!((delivery_id, got), (31, verdict));
        }
        let msg = KernelMessage::SyncResume {
            seq: 8,
            raiser: ThreadId::new(NodeId(0), 2),
            verdict: Value::from("resume"),
        };
        let KernelMessage::SyncResume {
            seq,
            raiser,
            verdict,
        } = roundtrip(&msg)
        else {
            panic!("wrong variant");
        };
        assert_eq!(
            (seq, raiser, verdict),
            (8, ThreadId::new(NodeId(0), 2), Value::from("resume"))
        );
        let KernelMessage::Timer(TimerCmd::Register {
            thread,
            id,
            period,
            payload,
            one_shot,
        }) = roundtrip(&sample_register())
        else {
            panic!("wrong variant");
        };
        assert_eq!(
            (thread, id, period, payload, one_shot),
            (
                ThreadId::new(NodeId(2), 7),
                42,
                Duration::from_millis(250),
                Value::from("tick"),
                true
            )
        );
        let cancel = KernelMessage::Timer(TimerCmd::Cancel {
            thread: ThreadId::new(NodeId(2), 7),
            id: 42,
        });
        let KernelMessage::Timer(TimerCmd::Cancel { thread, id }) = roundtrip(&cancel) else {
            panic!("wrong variant");
        };
        assert_eq!((thread, id), (ThreadId::new(NodeId(2), 7), 42));
        assert!(matches!(
            roundtrip(&KernelMessage::Shutdown),
            KernelMessage::Shutdown
        ));
    }

    #[test]
    fn in_process_only_variants_are_typed_unsupported() {
        let mut out = Vec::new();
        let invoke = KernelMessage::Invoke {
            call_id: 1,
            reply_to: NodeId(0),
            object: ObjectId::new(NodeId(0), 1),
            entry: "e".into(),
            args: Value::Null,
            attrs: ThreadAttributes::new(ThreadId::new(NodeId(0), 1), NodeId(0)),
            depth: 0,
        };
        assert!(matches!(
            invoke.encode_payload(&mut out),
            Err(CodecError::Unsupported(_))
        ));
        let reply = KernelMessage::InvokeReply {
            call_id: 1,
            result: Err(KernelError::NodeUnreachable(NodeId(1))),
            attrs: ThreadAttributes::new(ThreadId::new(NodeId(0), 1), NodeId(0)),
        };
        assert!(matches!(
            reply.encode_payload(&mut out),
            Err(CodecError::Unsupported(_))
        ));
        let dsm = KernelMessage::Dsm(DsmMessage::FaultRequest {
            page: PageId {
                segment: SegmentId(0),
                index: 0,
            },
            kind: FaultKind::Read,
            from: NodeId(0),
        });
        assert!(matches!(
            dsm.encode_payload(&mut out),
            Err(CodecError::Unsupported(_))
        ));
    }

    #[test]
    fn truncated_and_garbage_kernel_payloads_never_panic() {
        let mut out = Vec::new();
        KernelMessage::DeliverThread {
            event: sample_event(),
            target: ThreadId::new(NodeId(1), 3),
            origin: NodeId(0),
            delivery_id: 1,
            hops: 0,
            anchor: false,
            hinted: false,
        }
        .encode_payload(&mut out)
        .expect("encode");
        for cut in 0..out.len() {
            assert!(
                KernelMessage::decode_payload(&Bytes::from_vec(out[..cut].to_vec())).is_err(),
                "cut at {cut} must be a typed error"
            );
        }
        let mut register = Vec::new();
        sample_register()
            .encode_payload(&mut register)
            .expect("encode");
        for cut in 0..register.len() {
            assert!(
                KernelMessage::decode_payload(&Bytes::from_vec(register[..cut].to_vec())).is_err(),
                "Register cut at {cut} must be a typed error"
            );
        }
        // Pseudo-random garbage (deterministic LCG, no wall clock).
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for len in [1usize, 7, 64, 512] {
            let mut garbage = Vec::with_capacity(len);
            for _ in 0..len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                garbage.push((x >> 56) as u8);
            }
            let _ = KernelMessage::decode_payload(&Bytes::from_vec(garbage));
        }
        // Trailing bytes after a valid message are rejected.
        out.push(0);
        assert!(matches!(
            KernelMessage::decode_payload(&Bytes::from_vec(out)),
            Err(CodecError::Payload(_))
        ));
    }

    #[test]
    fn decoded_payload_bytes_are_views_of_the_datagram() {
        let mut out = Vec::new();
        KernelMessage::DeliverObject {
            event: WireEvent {
                name: EventName::System(SystemEvent::Timer),
                payload: Value::from(vec![9u8; 64]),
                raiser: None,
                raiser_node: NodeId(0),
                seq: 3,
                sync: false,
                t_raise_ns: 0,
                attrs: None,
                deadline_ns: None,
            },
            object: ObjectId::new(NodeId(0), 1),
        }
        .encode_payload(&mut out)
        .expect("encode");
        let datagram = Bytes::from_vec(out);
        let msg = KernelMessage::decode_payload(&datagram).expect("decode");
        let KernelMessage::DeliverObject { event, .. } = msg else {
            panic!("wrong variant");
        };
        let Value::Bytes(b) = event.payload else {
            panic!("payload kept its Bytes shape");
        };
        assert_eq!(b.as_slice(), &[9u8; 64][..]);
        assert!(
            Bytes::ptr_eq(&b, &datagram),
            "decoded bytes share the datagram's backing allocation"
        );
    }
}
