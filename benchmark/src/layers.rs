//! Per-layer drivers: each times calls into one module's public
//! functions from a single thread, in batches, and reports the median
//! batch. They say what a layer costs in isolation; the workloads say
//! whether that cost shows end to end.
//!
//! Batches are sized by time, not by count, so a 20 ns operation runs
//! ~10⁶ calls and a 30 µs loopback datagram ~10³; every metric carries
//! its call count as `n`.

use crate::report::Metric;
use doct_events::{
    AttachSpec, CtxEvents, EventFacility, HandlerDecision, Registration, ThreadRegistry,
};
use doct_kernel::{
    Bytes, Cluster, EventName, KernelMessage, LocationCache, LocationCacheConfig, Mailbox,
    MailboxConfig, ShardedTable, StealQueue, SystemEvent, ThreadId, Value, WireEvent,
};
use doct_net::{
    FabricSpec, FailureConfig, LatencyModel, MessageClass, NetStats, Network, NodeId,
    ReliabilityConfig, UdpConfig, WireCodec,
};
use doct_telemetry::{RaiseVariant, Stage, Telemetry};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per driver; the median is reported.
const BATCHES: usize = 11;

/// How long one batch should run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    batch: Duration,
}

impl Budget {
    /// ~55 ms per driver: all of them in about three seconds.
    pub fn full() -> Self {
        Budget {
            batch: Duration::from_millis(5),
        }
    }

    /// A fifth of that, for smoke runs.
    pub fn quick() -> Self {
        Budget {
            batch: Duration::from_millis(1),
        }
    }
}

/// Median nanoseconds per call of `op`, and the calls made.
fn time_per_call(budget: Budget, mut op: impl FnMut()) -> (f64, u64) {
    let run = |calls: u64, op: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..calls {
            op();
        }
        t0.elapsed()
    };
    // Grow the batch until it is long enough to time, then scale it. The
    // first, cold batch (page faults, a sleeping peer thread) is discarded.
    let mut calls = 16u64;
    run(calls, &mut op);
    let mut took = run(calls, &mut op);
    while took < budget.batch / 8 && calls < 1 << 30 {
        calls *= 4;
        took = run(calls, &mut op);
    }
    let scaled = calls as f64 * budget.batch.as_secs_f64() / took.as_secs_f64().max(1e-9);
    let calls = (scaled as u64).max(16);
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| run(calls, &mut op).as_nanos() as f64 / calls as f64)
        .collect();
    crate::stats::sort(&mut per_call);
    (per_call[BATCHES / 2], calls * BATCHES as u64)
}

fn ns(layer: &str, name: &str, budget: Budget, op: impl FnMut()) -> Metric {
    let (v, n) = time_per_call(budget, op);
    Metric::layer(layer, name, "ns", v, n)
}

fn us(layer: &str, name: &str, budget: Budget, op: impl FnMut()) -> Metric {
    let (v, n) = time_per_call(budget, op);
    Metric::layer(layer, name, "us", v / 1e3, n)
}

fn shims(b: Budget, out: &mut Vec<Metric>) {
    let (tx, rx) = crossbeam::channel::unbounded::<u64>();
    out.push(ns("shim", "chan_send_recv_ns", b, || {
        tx.send(black_box(1)).expect("receiver alive");
        black_box(rx.recv().expect("sender alive"));
    }));

    // Two threads ping-pong: one hop is half the round trip. This is the
    // blocking hand-off every stage boundary of a raise pays.
    let (to_echo, echo_rx) = crossbeam::channel::unbounded::<u64>();
    let (to_main, main_rx) = crossbeam::channel::unbounded::<u64>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = echo_rx.recv() {
            if to_main.send(v).is_err() {
                break;
            }
        }
    });
    let (round_trip, n) = time_per_call(b, || {
        to_echo.send(1).expect("echo thread alive");
        black_box(main_rx.recv().expect("echo thread alive"));
    });
    out.push(Metric::layer(
        "shim",
        "chan_handoff_us",
        "us",
        round_trip / 2e3,
        n,
    ));
    drop(to_echo);
    echo.join().expect("echo thread does not panic");

    let mutex = parking_lot::Mutex::new(0u64);
    out.push(ns("shim", "mutex_lock_ns", b, || {
        *mutex.lock() += 1;
    }));
    black_box(mutex.into_inner());
}

fn telemetry(b: Budget, out: &mut Vec<Metric>) {
    let t = Telemetry::new();
    // A registry as populated as a running cluster's, so by-name lookups
    // walk a realistic map.
    for i in 0..60 {
        t.counter(&format!("bench_filler_{i}")).inc();
    }
    out.push(ns("telemetry", "counter_lookup_ns", b, || {
        black_box(t.counter(black_box("bench_filler_31")));
    }));
    let counter = t.counter("bench_counter");
    out.push(ns("telemetry", "counter_inc_ns", b, || counter.inc()));
    let histogram = t.histogram("bench_histogram");
    let mut x = 1u64;
    out.push(ns("telemetry", "histogram_record_ns", b, || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        histogram.record_ns(x >> 44);
    }));
    out.push(ns("telemetry", "trace_push_ns", b, || {
        t.trace(black_box(7), Stage::Deliver, 1, RaiseVariant::None);
    }));
    out.push(us("telemetry", "snapshot_us", b, || {
        black_box(t.metrics());
    }));
}

fn filler(len: usize) -> Bytes {
    Bytes::from_vec((0..len).map(|i| i as u8).collect())
}

fn net(b: Budget, out: &mut Vec<Metric>) {
    let (n0, n1) = (NodeId(0), NodeId(1));
    let small = filler(64);

    let sim: Network<Bytes> = Network::new(2, LatencyModel::Zero);
    let rx = sim.take_mailbox(n1).expect("fresh network");
    out.push(us("net", "sim_send_recv_us", b, || {
        let _ = sim.send(n0, n1, small.clone(), MessageClass::Event);
        black_box(rx.recv().expect("network alive"));
    }));

    let rel: Arc<Network<Bytes>> = Arc::new(Network::new(2, LatencyModel::Zero));
    rel.enable_reliability(ReliabilityConfig::default(), FailureConfig::default())
        .expect("default reliability config is valid");
    let rx = rel.take_mailbox(n1).expect("fresh network");
    out.push(us("net", "reliable_send_recv_us", b, || {
        let _ = rel.send(n0, n1, small.clone(), MessageClass::Event);
        black_box(rx.recv().expect("network alive"));
    }));
    let (per_call, n) = time_per_call(b, || {
        let items = (0..16)
            .map(|_| (MessageClass::Locate, small.clone()))
            .collect();
        let _ = rel.send_many(n0, n1, items);
        for _ in 0..16 {
            black_box(rx.recv().expect("network alive"));
        }
    });
    out.push(Metric::layer(
        "net",
        "send_many16_us_per_payload",
        "us",
        per_call / 16e3,
        n * 16,
    ));

    // Real loopback datagrams: codec, two syscalls and the rx thread.
    let udp = UdpConfig::loopback(2).and_then(|cfg| {
        Network::<Bytes>::try_with_fabric(2, FabricSpec::Udp(cfg), Arc::new(NetStats::new()))
            .map_err(std::io::Error::other)
    });
    match udp {
        Ok(udp) => {
            let rx = udp.take_mailbox(n1).expect("fresh network");
            for (name, payload) in [
                ("udp_send_recv_us_64b", small.clone()),
                ("udp_send_recv_us_8k", filler(8192)),
            ] {
                out.push(us("net", name, b, || {
                    let _ = udp.send(n0, n1, payload.clone(), MessageClass::Event);
                    black_box(rx.recv_timeout(Duration::from_secs(5)).ok());
                }));
            }
        }
        Err(e) => eprintln!("layers: loopback UDP unavailable ({e}); net.udp_* omitted"),
    }

    out.push(ns("net", "bytes_clone_ns", b, || {
        black_box(small.clone());
    }));
}

fn wire_event(payload_len: usize) -> WireEvent {
    WireEvent {
        name: EventName::System(SystemEvent::Timer),
        payload: Value::Bytes(filler(payload_len)),
        raiser: None,
        raiser_node: NodeId(0),
        seq: 42,
        sync: false,
        t_raise_ns: 1_000,
        attrs: None,
        deadline_ns: Some(100_001_000),
    }
}

fn named_event(name: EventName, seq: u64) -> WireEvent {
    WireEvent {
        name,
        payload: Value::Null,
        deadline_ns: None,
        seq,
        ..wire_event(0)
    }
}

fn kernel(b: Budget, out: &mut Vec<Metric>) {
    for (label, len) in [("64b", 64usize), ("8k", 8192)] {
        let msg = KernelMessage::DeliverThread {
            event: wire_event(len),
            target: ThreadId::new(NodeId(1), 7),
            origin: NodeId(0),
            delivery_id: 99,
            hops: 0,
            anchor: false,
            hinted: true,
        };
        let mut buf = Vec::with_capacity(len + 256);
        out.push(ns("wire", &format!("encode_ns_{label}"), b, || {
            buf.clear();
            msg.encode_payload(&mut buf).expect("DeliverThread encodes");
            black_box(buf.len());
        }));
        let frame = Bytes::from_vec(buf.clone());
        out.push(ns("wire", &format!("decode_ns_{label}"), b, || {
            black_box(KernelMessage::decode_payload(&frame).expect("own encoding decodes"));
        }));
        if len == 64 {
            out.push(Metric::layer(
                "wire",
                "frame_overhead_bytes",
                "B",
                (frame.len() - len) as f64,
                1,
            ));
        }
    }

    let mut value = Value::map();
    value.set("id", 7i64);
    value.set("name", "bench");
    value.set("blob", Value::Bytes(filler(256)));
    out.push(ns("value", "encode_ns", b, || {
        black_box(value.encode());
    }));
    let encoded = Bytes::from_vec(value.encode());
    out.push(ns("value", "decode_shared_ns", b, || {
        black_box(Value::decode_shared(&encoded).expect("own encoding decodes"));
    }));

    let registry = Telemetry::new();
    let cache = LocationCache::new(LocationCacheConfig::default(), registry.registry());
    let threads: Vec<ThreadId> = (0..1024).map(|i| ThreadId::new(NodeId(1), i)).collect();
    for t in &threads {
        cache.record(*t, NodeId(1));
    }
    let mut i = 0usize;
    out.push(ns("location_cache", "lookup_hit_ns", b, || {
        i = (i + 1) % threads.len();
        black_box(cache.lookup(threads[i]));
    }));
    let absent = ThreadId::new(NodeId(3), 1);
    out.push(ns("location_cache", "lookup_miss_ns", b, || {
        black_box(cache.lookup(black_box(absent)));
    }));
    out.push(ns("location_cache", "record_ns", b, || {
        i = (i + 1) % threads.len();
        cache.record(threads[i], NodeId(1));
    }));

    let mut seq = 0u64;
    for (name, event) in [
        ("push_pop_user_ns", EventName::user("BENCH")),
        ("push_pop_timer_ns", EventName::System(SystemEvent::Timer)),
        (
            "push_pop_control_ns",
            EventName::System(SystemEvent::Interrupt),
        ),
    ] {
        let mut mailbox = Mailbox::new(MailboxConfig::default());
        out.push(ns("mailbox", name, b, || {
            seq += 1;
            let _ = mailbox.push(named_event(event.clone(), seq));
            black_box(mailbox.pop(0));
        }));
    }
    let mut full = Mailbox::new(MailboxConfig {
        user_capacity: 4,
        ..MailboxConfig::default()
    });
    for s in 0..4 {
        let _ = full.push(named_event(EventName::user("BENCH"), s));
    }
    out.push(ns("mailbox", "shed_ns", b, || {
        let _ = black_box(full.push(named_event(EventName::user("BENCH"), 9)));
    }));

    let table: ShardedTable<u64> = ShardedTable::new(registry.counter("bench_contention"));
    let mut id = 0u64;
    out.push(ns("shard_table", "insert_remove_ns", b, || {
        id += 1;
        let _ = table.insert(id, id);
        black_box(table.remove(id));
    }));

    let queue: StealQueue<u64> = StealQueue::new();
    out.push(ns("steal_queue", "push_pop_ns", b, || {
        queue.push(1);
        black_box(queue.pop());
    }));
    let (per_call, n) = time_per_call(b, || {
        for v in 0..8 {
            queue.push(v);
        }
        black_box(queue.steal(8));
    });
    // Eight pushes ride along; subtracting them would be a guess, so the
    // metric is the whole push×8 + steal(8) step, per stolen item.
    out.push(Metric::layer(
        "steal_queue",
        "steal_ns",
        "ns",
        per_call / 8.0,
        n * 8,
    ));
}

fn registration(id: u64, event: &EventName) -> Registration {
    Registration {
        id,
        event: event.clone(),
        spec: AttachSpec::proc("bench", |_ctx, _block| HandlerDecision::Propagate),
        attached_in: None,
        cleanup: false,
    }
}

/// Median `raise_and_wait`-at-self time on a 1-node cluster for a thread
/// whose chain is `depth` handlers deep (all but the oldest propagate).
fn local_sync_rtt_ns(b: Budget, depth: usize) -> Option<(f64, u64)> {
    let cluster = Cluster::new(1);
    let facility = EventFacility::install(&cluster);
    let event = facility.register_event("BENCH_CHAIN");
    let handle = cluster
        .spawn_fn(0, move |ctx| {
            ctx.attach_handler(
                event.clone(),
                AttachSpec::proc("resume", |_c, _b| HandlerDecision::Resume(Value::Null)),
            );
            for _ in 1..depth {
                ctx.attach_handler(
                    event.clone(),
                    AttachSpec::proc("propagate", |_c, _b| HandlerDecision::Propagate),
                );
            }
            let me = ctx.thread_id();
            let (per_call, n) = time_per_call(b, || {
                let _ = black_box(ctx.raise_and_wait(event.clone(), Value::Null, me));
            });
            let mut result = Value::map();
            result.set("ns", per_call);
            result.set("n", n as i64);
            Ok(result)
        })
        .ok()?;
    let result = handle.join_timeout(Duration::from_secs(60))?.ok()?;
    let per_call = result.get("ns")?.as_float()?;
    let n = result.get("n")?.as_int()? as u64;
    Some((per_call, n))
}

fn events(b: Budget, out: &mut Vec<Metric>) {
    let event = EventName::System(SystemEvent::Timer);
    let reg = ThreadRegistry::new();
    for id in 0..16 {
        reg.attach(registration(id, &event));
    }
    out.push(ns("thread_registry", "chain_shared_ns", b, || {
        black_box(reg.chain_shared(&event));
    }));
    let mut seq = 0u64;
    out.push(ns("thread_registry", "mark_seen_ns", b, || {
        seq += 1;
        let _ = black_box(reg.mark_seen(seq));
    }));
    out.push(ns("thread_registry", "attach_detach_ns", b, || {
        reg.attach(registration(1_000, &event));
        black_box(reg.detach(1_000));
    }));

    const DEEP: usize = 257;
    if let (Some((shallow, n1)), Some((deep, n2))) =
        (local_sync_rtt_ns(b, 1), local_sync_rtt_ns(b, DEEP))
    {
        out.push(Metric::layer(
            "events",
            "chain_walk_ns_per_handler",
            "ns",
            (deep - shallow) / (DEEP - 1) as f64,
            n1 + n2,
        ));
    }
}

/// Run every per-layer driver.
pub fn run(budget: Budget) -> Vec<Metric> {
    let mut out = Vec::new();
    shims(budget, &mut out);
    telemetry(budget, &mut out);
    net(budget, &mut out);
    kernel(budget, &mut out);
    events(budget, &mut out);
    out
}
