//! Integration tests for the thread-location hint cache: the unicast
//! fast path must collapse locator waves to single probes for stationary
//! targets, stay exactly-once when the target migrated after the hint was
//! recorded (stale unicast → invalidate → wave fallback), stay
//! exactly-once when the hinted probe's receipt is held long after the
//! target's seen ring turned over (a hint is never re-sent on a timer),
//! and never wait on a hint pointing at a node the failure detector has
//! declared dead.

use doct::prelude::*;
use doct_events::{AttachSpec, EventFacility, HandlerDecision};
use doct_kernel::ClusterBuilder;
use doct_net::{FailureConfig, ReliabilityConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn counter(cluster: &Cluster, name: &str) -> u64 {
    cluster
        .telemetry()
        .metrics()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn assert_ledger_balances(cluster: &Cluster) {
    let ledger = cluster.ledger();
    assert!(ledger.balanced(), "ledger out of balance: {ledger}");
}

fn fast_reliability() -> ReliabilityConfig {
    ReliabilityConfig {
        max_retries: 60,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        jitter: Duration::from_millis(2),
        tick: Duration::from_millis(2),
        heartbeat_interval: Duration::from_millis(5),
        dedupe_window: 1024,
        ..ReliabilityConfig::default()
    }
}

/// Register a "sleepy" class whose `park` entry sleeps for the given
/// number of milliseconds (taken from the argument), keeping the thread's
/// tip at the object's home node with open delivery points.
fn register_sleepy(cluster: &Cluster) {
    cluster.register_class(
        "sleepy",
        ClassBuilder::new("sleepy")
            .entry("park", |ctx, args| {
                let ms = args.as_int().unwrap_or(100) as u64;
                ctx.sleep(Duration::from_millis(ms))?;
                Ok(Value::Null)
            })
            .build(),
    );
}

/// A stationary remote target under the broadcast locator: after the
/// first (wave-located) raise warms the cache, every further raise goes
/// out as one hinted unicast and the hit counters record it.
#[test]
fn stationary_target_uses_the_unicast_fast_path() {
    let cluster = Cluster::builder(4)
        .config(KernelConfig::with_locator(LocatorStrategy::Broadcast))
        .build();
    let facility = EventFacility::install(&cluster);
    facility.register_event("PING");
    register_sleepy(&cluster);
    let obj = cluster
        .create_object(ObjectConfig::new("sleepy", NodeId(1)))
        .unwrap();

    let hits = Arc::new(AtomicU64::new(0));
    let h2 = Arc::clone(&hits);
    let handle = cluster
        .spawn_fn(0, move |ctx| {
            ctx.attach_handler(
                "PING",
                AttachSpec::proc("count", move |_c, _b| {
                    h2.fetch_add(1, Ordering::Relaxed);
                    HandlerDecision::Resume(Value::Null)
                }),
            );
            ctx.invoke(obj, "park", Value::Int(3_000))
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(80));

    // Cold raise: full broadcast wave, which teaches node 2 (the raiser)
    // where the thread is.
    let raiser = 2usize;
    let summary = cluster
        .raise_from(
            raiser,
            EventName::user("PING"),
            Value::Null,
            handle.thread(),
        )
        .wait();
    assert_eq!(summary.delivered, 1, "{summary:?}");
    assert_eq!(summary.nodes, vec![NodeId(1)]);
    assert_eq!(
        cluster
            .kernel(raiser)
            .location_cache()
            .unwrap()
            .peek(handle.thread()),
        Some(NodeId(1)),
        "the delivery receipt populated the raiser's cache"
    );

    // Warm raises: every one is a single hinted unicast, no broadcast.
    const WARM: u64 = 10;
    let before = cluster.net().stats().snapshot();
    let hits_before = counter(&cluster, "locator.cache_hits");
    for _ in 0..WARM {
        let summary = cluster
            .raise_from(
                raiser,
                EventName::user("PING"),
                Value::Null,
                handle.thread(),
            )
            .wait();
        assert_eq!(summary.delivered, 1);
        assert_eq!(summary.nodes, vec![NodeId(1)]);
    }
    let delta = before.delta(&cluster.net().stats().snapshot());
    assert_eq!(
        delta.get("hint_unicasts"),
        WARM,
        "one unicast probe per raise"
    );
    assert_eq!(delta.get("broadcasts"), 0, "no wave after warm-up");
    assert_eq!(
        counter(&cluster, "locator.cache_hits") - hits_before,
        WARM,
        "every warm raise hit the cache"
    );

    let deadline = Instant::now() + Duration::from_secs(5);
    while hits.load(Ordering::Relaxed) < WARM + 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(hits.load(Ordering::Relaxed), WARM + 1, "exactly once each");
    let _ = cluster
        .raise_from(0, SystemEvent::Quit, Value::Null, handle.thread())
        .wait();
    let _ = handle.join_timeout(Duration::from_secs(5));
    assert_ledger_balances(&cluster);
}

/// The thread migrates between a cached raise and the next one: the
/// stale unicast probe answers "not here", the entry is invalidated, the
/// wave fallback finds the new tip, and the handler still runs exactly
/// once per raise.
#[test]
fn stale_hint_falls_back_to_the_wave_exactly_once() {
    let cluster = Cluster::builder(4)
        .config(KernelConfig::with_locator(LocatorStrategy::Broadcast))
        .build();
    let facility = EventFacility::install(&cluster);
    facility.register_event("PING");
    register_sleepy(&cluster);
    let first_stop = cluster
        .create_object(ObjectConfig::new("sleepy", NodeId(1)))
        .unwrap();
    let second_stop = cluster
        .create_object(ObjectConfig::new("sleepy", NodeId(2)))
        .unwrap();

    let hits = Arc::new(AtomicU64::new(0));
    let h2 = Arc::clone(&hits);
    let handle = cluster
        .spawn_fn(0, move |ctx| {
            ctx.attach_handler(
                "PING",
                AttachSpec::proc("count", move |_c, _b| {
                    h2.fetch_add(1, Ordering::Relaxed);
                    HandlerDecision::Resume(Value::Null)
                }),
            );
            ctx.invoke(first_stop, "park", Value::Int(300))?;
            ctx.invoke(second_stop, "park", Value::Int(3_000))
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(80));

    // Raise while the tip parks on node 1: caches thread → node 1.
    let summary = cluster
        .raise_from(3, EventName::user("PING"), Value::Null, handle.thread())
        .wait();
    assert_eq!(summary.delivered, 1);
    assert_eq!(summary.nodes, vec![NodeId(1)]);

    // Let the thread move on to node 2, then raise on the stale hint.
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.kernel(2).tcbs().trail(handle.thread()) != doct_kernel::Trail::TipHere
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stale_before = counter(&cluster, "locator.cache_stale");
    let summary = cluster
        .raise_from(3, EventName::user("PING"), Value::Null, handle.thread())
        .wait();
    assert_eq!(summary.delivered, 1, "wave fallback still delivers");
    assert_eq!(summary.nodes, vec![NodeId(2)], "delivered at the new tip");
    assert!(
        counter(&cluster, "locator.cache_stale") > stale_before,
        "the stale hint was detected and invalidated"
    );
    assert_eq!(
        cluster
            .kernel(3)
            .location_cache()
            .unwrap()
            .peek(handle.thread()),
        Some(NodeId(2)),
        "the fallback receipt re-learned the new location"
    );

    let deadline = Instant::now() + Duration::from_secs(5);
    while hits.load(Ordering::Relaxed) < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(hits.load(Ordering::Relaxed), 2, "exactly once per raise");
    let _ = cluster
        .raise_from(0, SystemEvent::Quit, Value::Null, handle.thread())
        .wait();
    let _ = handle.join_timeout(Duration::from_secs(5));
    assert_ledger_balances(&cluster);
}

/// A cached hint pointing at a node the failure detector has declared
/// dead is purged on the next raise instead of being probed and waited
/// on: the raise resolves quickly (well inside the delivery timeout) and
/// no hint unicast is sent toward the dead node.
#[test]
fn dead_node_hint_is_purged_not_waited_on() {
    let cluster = ClusterBuilder::new(3)
        .config(KernelConfig::with_locator(LocatorStrategy::Broadcast))
        .reliable_with(fast_reliability(), FailureConfig::default())
        .build();
    let facility = EventFacility::install(&cluster);
    facility.register_event("PING");

    // Thread rooted and parked on node 2.
    let handle = cluster
        .spawn_fn(2, |ctx| {
            ctx.sleep(Duration::from_secs(30))?;
            Ok(Value::Null)
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let summary = cluster
        .raise_from(0, EventName::user("PING"), Value::Null, handle.thread())
        .wait();
    assert_eq!(summary.delivered, 1);
    let cache = cluster.kernel(0).location_cache().unwrap();
    assert_eq!(cache.peek(handle.thread()), Some(NodeId(2)));

    cluster.net().isolate(&[NodeId(2)]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.net().peer_state(NodeId(0), NodeId(2)) != Some(doct_net::PeerState::Dead)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        cluster.net().peer_state(NodeId(0), NodeId(2)),
        Some(doct_net::PeerState::Dead),
        "failure detector never declared node 2 dead"
    );

    let unicasts_before = cluster.net().stats().hint_unicasts.get();
    let evictions_before = counter(&cluster, "locator.cache_evictions");
    let started = Instant::now();
    let summary = cluster
        .raise_from(0, EventName::user("PING"), Value::Null, handle.thread())
        .wait();
    let elapsed = started.elapsed();
    assert_eq!(summary.delivered, 0);
    assert_eq!(summary.dead, 1, "dead-target verdict, not a hang");
    assert!(
        elapsed < Duration::from_secs(3),
        "resolved via the detector ({elapsed:?}), not the full delivery timeout"
    );
    assert_eq!(
        cluster.net().stats().hint_unicasts.get(),
        unicasts_before,
        "no unicast was sent toward the dead hint"
    );
    assert_eq!(cache.peek(handle.thread()), None, "the hint was purged");
    assert!(
        counter(&cluster, "locator.cache_evictions") > evictions_before,
        "the purge is counted as an eviction"
    );
    assert_ledger_balances(&cluster);
    cluster.net().heal();
}

/// The receipt of a hinted probe is held (the reliable layer retransmits
/// it until the link heals) while 600 local raises turn the target's
/// 256-entry seen ring over. The held event was admitted on the first
/// probe, so nothing may send it again: its handler runs once, the hint
/// is never counted stale, and the held raise resolves as delivered once
/// the receipt gets through.
#[test]
fn held_hint_receipt_is_delivered_once() {
    const FLOOD: usize = 600;
    // 20 retries (~4 s of backoff) keep the held receipt alive however
    // long the flood takes on a loaded host; the default 8 give up after
    // about 1 s. The detector stays far behind both.
    let cluster = ClusterBuilder::new(2)
        .reliable_with(
            ReliabilityConfig {
                max_retries: 20,
                ..ReliabilityConfig::default()
            },
            FailureConfig {
                suspect_after: Duration::from_secs(3),
                dead_after: Duration::from_secs(6),
            },
        )
        .build();
    let facility = EventFacility::install(&cluster);
    facility.register_event("PING");

    let runs: Arc<Mutex<HashMap<u64, u32>>> = Arc::default();
    let r2 = Arc::clone(&runs);
    let handle = cluster
        .spawn_fn(1, move |ctx| {
            ctx.attach_handler(
                "PING",
                AttachSpec::proc("count", move |_c, b| {
                    *r2.lock().unwrap().entry(b.seq).or_default() += 1;
                    HandlerDecision::Resume(Value::Null)
                }),
            );
            ctx.sleep(Duration::from_secs(20))?;
            Ok(Value::Null)
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let ping = || EventName::user("PING");

    // Warm node 0's hint: its next raise is one hinted unicast to node 1.
    let summary = cluster
        .raise_from(0, ping(), Value::Null, handle.thread())
        .wait();
    assert_eq!(summary.delivered, 1);
    let cache = cluster.kernel(0).location_cache().unwrap();
    assert_eq!(cache.peek(handle.thread()), Some(NodeId(1)));

    // Hold every receipt from node 1 to node 0, then raise once: the
    // probe arrives and is admitted, its receipt is retransmitted.
    cluster
        .net()
        .set_link_one_way(NodeId(1), NodeId(0), false)
        .unwrap();
    let stale_before = counter(&cluster, "locator.cache_stale");
    let held_at = Instant::now();
    let held = cluster.raise_from(0, ping(), Value::Null, handle.thread());

    // Turn the target's seen ring over with local raises.
    for _ in 0..FLOOD {
        let summary = cluster
            .raise_from(1, ping(), Value::Null, handle.thread())
            .wait();
        assert_eq!(summary.delivered, 1);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while runs.lock().unwrap().len() < FLOOD + 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(runs.lock().unwrap().len(), FLOOD + 2, "every seq handled");

    // Keep the receipt held well past any sweep slice, then let it in.
    let hold = Duration::from_millis(300);
    if let Some(rest) = hold.checked_sub(held_at.elapsed()) {
        std::thread::sleep(rest);
    }
    cluster.net().heal();

    let summary = held.wait();
    assert_eq!(summary.delivered, 1, "held raise: {summary:?}");
    // Let any second copy reach the handler before counting.
    std::thread::sleep(Duration::from_millis(100));
    let twice: Vec<_> = runs
        .lock()
        .unwrap()
        .iter()
        .filter(|(_, &n)| n != 1)
        .map(|(&seq, &n)| (seq, n))
        .collect();
    assert!(twice.is_empty(), "seqs not run exactly once: {twice:?}");
    assert_eq!(
        counter(&cluster, "locator.cache_stale"),
        stale_before,
        "the hint was never disproved"
    );
    let _ = cluster
        .raise_from(0, SystemEvent::Quit, Value::Null, handle.thread())
        .wait();
    let _ = handle.join_timeout(Duration::from_secs(5));
    assert_ledger_balances(&cluster);
}
