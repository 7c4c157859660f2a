//! E2 — thread location strategies (paper §7.1).
//!
//! Claims quantified:
//!
//! * "A simple solution to finding threads is to broadcast the event
//!   request. … However, this is communication intensive and is
//!   wasteful."
//! * "Starting with the root node, one can traverse the path of the
//!   thread, using information in the system's thread-control blocks. On
//!   a distributed system comprising of n nodes, it is possible to find
//!   the thread in n steps."
//! * "On systems supporting multicast communication … it should be
//!   possible to address each thread by sending a message to its
//!   multi-cast group."
//!
//! Workload: a logical thread whose tip sleeps `hops` invocation hops
//! from its root, on a cluster of `n` nodes. An event is raised at the
//! thread from a third-party node; we count `Locate`-class messages and
//! measure raise→receipt latency.

use crate::workloads::{register_classes, spawn_deep_thread};
use crate::Table;
use doct_kernel::{
    Cluster, ClusterBuilder, KernelConfig, KernelError, LocatorStrategy, SystemEvent, Value,
};
use doct_net::MessageClass;
use std::time::{Duration, Instant};

/// One measurement.
#[derive(Debug, Clone)]
pub struct LocateRow {
    /// Locator strategy.
    pub strategy: LocatorStrategy,
    /// Cluster size.
    pub nodes: usize,
    /// Invocation hops between root and tip.
    pub hops: usize,
    /// Locate-class messages per delivery (median of trials).
    pub locate_msgs: f64,
    /// Raise→receipt latency (median).
    pub latency: Duration,
}

fn one_config(
    strategy: LocatorStrategy,
    nodes: usize,
    hops: usize,
    trials: usize,
) -> Result<LocateRow, KernelError> {
    // The location cache is disabled here on purpose: this table
    // reproduces the paper's §7.1 per-raise locator costs; the cache's
    // effect is measured separately by `run_cache_sweep`.
    let cluster: Cluster = ClusterBuilder::new(nodes)
        .config(KernelConfig::with_locator(strategy).without_location_cache())
        .build();
    register_classes(&cluster);
    let handle = spawn_deep_thread(&cluster, hops)?;
    std::thread::sleep(Duration::from_millis(80));
    // Raise from the tip's neighbour so delivery always needs the network.
    let raiser_node = (hops % nodes + 1) % nodes;
    let mut msgs = Vec::with_capacity(trials);
    let mut lats = Vec::with_capacity(trials);
    for _ in 0..trials {
        let before = cluster.net().stats().snapshot();
        let t0 = Instant::now();
        let summary = cluster
            .raise_from(
                raiser_node,
                SystemEvent::Timer,
                Value::Null,
                handle.thread(),
            )
            .wait();
        let lat = t0.elapsed();
        assert_eq!(summary.delivered, 1, "{strategy:?} n={nodes} hops={hops}");
        let delta = before.delta(&cluster.net().stats().snapshot());
        msgs.push(delta.sent(MessageClass::Locate) as f64);
        lats.push(lat.as_secs_f64() * 1e6);
    }
    let _ = cluster
        .raise_from(0, SystemEvent::Quit, Value::Null, handle.thread())
        .wait();
    let _ = handle.join_timeout(Duration::from_secs(5));
    crate::telemetry_out::record("e2", &cluster);
    Ok(LocateRow {
        strategy,
        nodes,
        hops,
        locate_msgs: crate::workloads::median_micros(&mut msgs),
        latency: Duration::from_secs_f64(crate::workloads::median_micros(&mut lats) / 1e6),
    })
}

/// Run the sweep: n ∈ {4, 8, 16, 32}, tip at hops = n-1, all three
/// strategies; plus a hops=1 row at n=16 showing path-trace's dependence
/// on chain depth rather than cluster size.
///
/// # Errors
///
/// Cluster construction/spawn failures.
pub fn run() -> Result<Vec<LocateRow>, KernelError> {
    let mut rows = Vec::new();
    for &nodes in &[4usize, 8, 16, 32] {
        let hops = nodes - 1;
        for strategy in [
            LocatorStrategy::Broadcast,
            LocatorStrategy::PathTrace,
            LocatorStrategy::Multicast,
        ] {
            rows.push(one_config(strategy, nodes, hops, 5)?);
        }
    }
    for strategy in [
        LocatorStrategy::Broadcast,
        LocatorStrategy::PathTrace,
        LocatorStrategy::Multicast,
    ] {
        rows.push(one_config(strategy, 16, 1, 5)?);
    }
    Ok(rows)
}

/// Render the table.
pub fn table(rows: &[LocateRow]) -> Table {
    let mut t = Table::new(
        "E2: thread location cost (paper §7.1)",
        &["strategy", "nodes", "hops", "locate msgs", "latency"],
    );
    for r in rows {
        t.row(vec![
            format!("{:?}", r.strategy),
            r.nodes.to_string(),
            r.hops.to_string(),
            format!("{:.0}", r.locate_msgs),
            format!("{:.1?}", r.latency),
        ]);
    }
    t
}

/// One row of the moving-target ablation.
#[derive(Debug, Clone)]
pub struct MovingRow {
    /// Locator strategy.
    pub strategy: LocatorStrategy,
    /// How long the thread dwells per node before moving on.
    pub dwell: Duration,
    /// Events raised at the moving thread.
    pub raised: u64,
    /// Raises whose receipt said "delivered".
    pub delivered: u64,
    /// Raises reported dead/timed out (delivery races lost).
    pub failed: u64,
    /// Handler executions observed.
    pub handled: u64,
    /// Duplicate deliveries suppressed by the facility's seen ring.
    pub dupes_suppressed: u64,
}

/// Ablation: locating a *fast-moving* thread — §7.1 concedes the problem
/// ("threads move around much faster than other resources"). The thread
/// ping-pongs between two objects on different nodes; a third node raises
/// 50 events at it. We count delivery receipts and handler runs (to catch
/// duplicates).
///
/// # Errors
///
/// Cluster construction failures.
pub fn run_moving() -> Result<Vec<MovingRow>, KernelError> {
    use doct_events::{AttachSpec, CtxEvents, EventFacility, HandlerDecision};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const RAISES: u64 = 50;
    let mut rows = Vec::new();
    for dwell_ms in [0i64, 2, 10] {
        for strategy in [
            LocatorStrategy::Broadcast,
            LocatorStrategy::PathTrace,
            LocatorStrategy::Multicast,
        ] {
            let cluster: Cluster = ClusterBuilder::new(4)
                .config(KernelConfig::with_locator(strategy).without_location_cache())
                .build();
            let facility = EventFacility::install(&cluster);
            facility.register_event("MOVE");
            register_classes(&cluster);
            let a = cluster
                .create_object(doct_kernel::ObjectConfig::new("plain", doct_net::NodeId(1)))?;
            let b = cluster
                .create_object(doct_kernel::ObjectConfig::new("plain", doct_net::NodeId(2)))?;
            let handled = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let (h2, s2) = (Arc::clone(&handled), Arc::clone(&stop));
            let mover = cluster.spawn_fn(0, move |ctx| {
                ctx.attach_handler(
                    "MOVE",
                    AttachSpec::proc("count", move |_c, _b| {
                        h2.fetch_add(1, Ordering::Relaxed);
                        HandlerDecision::Resume(Value::Null)
                    }),
                );
                while !s2.load(Ordering::Relaxed) {
                    if dwell_ms == 0 {
                        ctx.invoke(a, "noop", Value::Null)?;
                        ctx.invoke(b, "noop", Value::Null)?;
                    } else {
                        ctx.invoke(a, "sleepy", dwell_ms)?;
                        ctx.invoke(b, "sleepy", dwell_ms)?;
                    }
                }
                Ok(Value::Null)
            })?;
            std::thread::sleep(Duration::from_millis(30));
            let mut delivered = 0;
            let mut failed = 0;
            for _ in 0..RAISES {
                let s = cluster
                    .raise_from(
                        3,
                        doct_kernel::EventName::user("MOVE"),
                        Value::Null,
                        mover.thread(),
                    )
                    .wait();
                delivered += s.delivered as u64;
                failed += (s.dead + s.timed_out) as u64;
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
            let _ = mover.join_timeout(Duration::from_secs(10));
            crate::telemetry_out::record("e2.moving", &cluster);
            rows.push(MovingRow {
                strategy,
                dwell: Duration::from_millis(dwell_ms as u64),
                raised: RAISES,
                delivered,
                failed,
                handled: handled.load(Ordering::Relaxed),
                dupes_suppressed: facility
                    .stats()
                    .duplicates_suppressed
                    .load(Ordering::Relaxed),
            });
        }
    }
    Ok(rows)
}

/// One row of the location-cache sweep (E2c).
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// Locator strategy the cache fronts (and falls back to).
    pub strategy: LocatorStrategy,
    /// Hint cache enabled for this run.
    pub cache: bool,
    /// `"stationary"` or `"moving"` target workload.
    pub workload: &'static str,
    /// Measured (post-warm-up) raises.
    pub raises: u64,
    /// Raises whose receipt said "delivered".
    pub delivered: u64,
    /// Raises reported dead/timed out (moving-target races lost).
    pub failed: u64,
    /// `Locate`-class messages (probes + receipts) per measured raise.
    pub locate_msgs_per_raise: f64,
    /// Hint unicast probes per measured raise.
    pub hint_unicasts_per_raise: f64,
    /// `cache_hits / (cache_hits + cache_misses)`; 0 with the cache off.
    pub hit_rate: f64,
    /// Stale-hint fallbacks (`locator.cache_stale`).
    pub stale: u64,
}

fn cache_counter(cluster: &Cluster, name: &str) -> u64 {
    cluster
        .telemetry()
        .metrics()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn cache_case(
    strategy: LocatorStrategy,
    cache: bool,
    moving: bool,
) -> Result<CacheRow, KernelError> {
    use doct_events::{AttachSpec, CtxEvents, EventFacility, HandlerDecision};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const NODES: usize = 8;
    const WARMUP: usize = 2;
    const MEASURED: usize = 28;
    let mut config = KernelConfig::with_locator(strategy);
    if !cache {
        config = config.without_location_cache();
    }
    let cluster: Cluster = ClusterBuilder::new(NODES).config(config).build();
    let facility = EventFacility::install(&cluster);
    facility.register_event("E2C");
    register_classes(&cluster);

    let stop = Arc::new(AtomicBool::new(false));
    let (handle, raiser_node) = if moving {
        // §7.1's acknowledged hard case: the tip ping-pongs between two
        // nodes (~2 ms dwell each), so cached hints go stale constantly.
        let a =
            cluster.create_object(doct_kernel::ObjectConfig::new("plain", doct_net::NodeId(1)))?;
        let b =
            cluster.create_object(doct_kernel::ObjectConfig::new("plain", doct_net::NodeId(2)))?;
        let s2 = Arc::clone(&stop);
        let handle = cluster.spawn_fn(0, move |ctx| {
            ctx.attach_handler(
                "E2C",
                AttachSpec::proc("sink", |_c, _b| HandlerDecision::Resume(Value::Null)),
            );
            while !s2.load(Ordering::Relaxed) {
                ctx.invoke(a, "sleepy", 2i64)?;
                ctx.invoke(b, "sleepy", 2i64)?;
            }
            Ok(Value::Null)
        })?;
        (handle, 3usize)
    } else {
        let hops = NODES - 1;
        let handle = spawn_deep_thread(&cluster, hops)?;
        (handle, (hops % NODES + 1) % NODES)
    };
    std::thread::sleep(Duration::from_millis(80));

    let raise_once = || {
        cluster
            .raise_from(
                raiser_node,
                doct_kernel::EventName::user("E2C"),
                Value::Null,
                handle.thread(),
            )
            .wait()
    };
    for _ in 0..WARMUP {
        let _ = raise_once();
    }
    let net_before = cluster.net().stats().snapshot();
    let hits_before = cache_counter(&cluster, "locator.cache_hits");
    let misses_before = cache_counter(&cluster, "locator.cache_misses");
    let stale_before = cache_counter(&cluster, "locator.cache_stale");
    let mut delivered = 0u64;
    let mut failed = 0u64;
    for _ in 0..MEASURED {
        if raise_once().delivered > 0 {
            delivered += 1;
        } else {
            failed += 1;
        }
        if moving {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let delta = net_before.delta(&cluster.net().stats().snapshot());
    let hits = cache_counter(&cluster, "locator.cache_hits") - hits_before;
    let misses = cache_counter(&cluster, "locator.cache_misses") - misses_before;
    let stale = cache_counter(&cluster, "locator.cache_stale") - stale_before;

    stop.store(true, Ordering::Relaxed);
    if moving {
        let _ = handle.join_timeout(Duration::from_secs(10));
    } else {
        let _ = cluster
            .raise_from(0, SystemEvent::Quit, Value::Null, handle.thread())
            .wait();
        let _ = handle.join_timeout(Duration::from_secs(5));
    }
    crate::telemetry_out::record("e2.cache", &cluster);

    Ok(CacheRow {
        strategy,
        cache,
        workload: if moving { "moving" } else { "stationary" },
        raises: MEASURED as u64,
        delivered,
        failed,
        locate_msgs_per_raise: delta.sent(MessageClass::Locate) as f64 / MEASURED as f64,
        hint_unicasts_per_raise: delta.get("hint_unicasts") as f64 / MEASURED as f64,
        hit_rate: if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        stale,
    })
}

/// Run the location-cache sweep: cache {off, on} × the three locator
/// strategies × {stationary, moving} targets on an 8-node cluster, and
/// assert the cache's claim on the row that shows it most: a stationary
/// target under Broadcast with the cache on stays at hit rate ≥ 99 % and
/// ≤ 3 locate msgs/raise (one hinted probe + its receipt; 25.5 with the
/// cache off). Raise latency on the warm path is `benchmark/`'s
/// `unicast_warm` workload (see `benchmark/README.md`).
///
/// # Errors
///
/// Cluster construction/spawn failures.
///
/// # Panics
///
/// Panics if the stationary Broadcast cache-on row misses that bound.
pub fn run_cache_sweep() -> Result<Vec<CacheRow>, KernelError> {
    let mut rows = Vec::new();
    for moving in [false, true] {
        for strategy in [
            LocatorStrategy::Broadcast,
            LocatorStrategy::PathTrace,
            LocatorStrategy::Multicast,
        ] {
            for cache in [false, true] {
                rows.push(cache_case(strategy, cache, moving)?);
            }
        }
    }
    let warm = rows
        .iter()
        .find(|r| r.strategy == LocatorStrategy::Broadcast && r.cache && r.workload == "stationary")
        .expect("the sweep covers stationary Broadcast with the cache on");
    assert!(
        warm.hit_rate >= 0.99 && warm.locate_msgs_per_raise <= 3.0,
        "E2c claim: stationary Broadcast-8 with the cache on must hit ≥99% at \
         ≤3 locate msgs/raise, got {:.1}% and {:.2}",
        warm.hit_rate * 100.0,
        warm.locate_msgs_per_raise
    );
    Ok(rows)
}

/// Render the cache sweep.
pub fn cache_table(rows: &[CacheRow]) -> Table {
    let mut t = Table::new(
        "E2c: thread-location hint cache (8 nodes; locate msgs include receipts)",
        &[
            "strategy",
            "cache",
            "workload",
            "locate/raise",
            "unicasts/raise",
            "hit rate",
            "stale",
            "failed",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:?}", r.strategy),
            if r.cache { "on" } else { "off" }.to_string(),
            r.workload.to_string(),
            format!("{:.1}", r.locate_msgs_per_raise),
            format!("{:.2}", r.hint_unicasts_per_raise),
            format!("{:.0}%", r.hit_rate * 100.0),
            r.stale.to_string(),
            r.failed.to_string(),
        ]);
    }
    t
}

/// Render the moving-target ablation.
pub fn moving_table(rows: &[MovingRow]) -> Table {
    let mut t = Table::new(
        "E2b: delivery to a fast-moving thread (ablation; §7.1's acknowledged race)",
        &[
            "strategy",
            "dwell/node",
            "raised",
            "delivered",
            "failed",
            "handler runs",
            "dupes suppressed",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:?}", r.strategy),
            format!("{:.0?}", r.dwell),
            r.raised.to_string(),
            r.delivered.to_string(),
            r.failed.to_string(),
            r.handled.to_string(),
            r.dupes_suppressed.to_string(),
        ]);
    }
    t
}
