//! E15 — zero-copy payload fan-out and pooled envelope chunks
//! (DESIGN.md §3g).
//!
//! The raise/deliver hot path used to copy the payload once per
//! destination (fan-out clones) and allocate a fresh chunk per sealed
//! batch. With payloads on shared [`Bytes`] buffers and chunk
//! allocations recycled through the reliability layer's pool, both costs
//! collapse:
//!
//! * **fan-out** — the E12 acceptance workload (8-member group across 2
//!   hosting nodes, multicast locator) raises a 64 KiB payload; the
//!   process-wide deep-copy counter must not move — N deliveries are N
//!   refcount bumps. The measured delta is mirrored into
//!   `net.bytes_copied` so telemetry snapshots carry it.
//! * **warm unicast** — the E2c-style hint-cache workload (stationary
//!   target, cache warm) raises repeatedly; after warmup every sealed
//!   singleton chunk must come from the pool free list (hit rate ≥99%),
//!   so the steady-state fast path allocates nothing.
//!
//! Both cases assert their acceptance bound and fail the run otherwise
//! — this is the count gate CI runs. Raise latency on these two paths is
//! `benchmark/`'s `group_fanout` and `unicast_warm` workloads (see
//! `benchmark/README.md`).

use crate::e12_fanout_batch::bench_reliability;
use crate::Table;
use doct_events::EventFacility;
use doct_kernel::{
    Bytes, Cluster, ClusterBuilder, KernelConfig, KernelError, LocatorStrategy, RaiseTarget,
    SpawnOptions, SystemEvent, Value,
};
use doct_net::{FailureConfig, ReliabilityConfig};
use std::time::Duration;

/// One measured case.
#[derive(Debug, Clone)]
pub struct ZeroCopyRow {
    /// `"fanout"` or `"warm-unicast"`.
    pub case: &'static str,
    /// Measured (post-warm-up) raises.
    pub raises: u64,
    /// Payload size carried per raise, bytes.
    pub payload_bytes: usize,
    /// Payload bytes deep-copied in-process per raise (refcount bumps
    /// excluded) — the zero-copy invariant is that this stays at 0.
    pub bytes_copied_per_raise: f64,
    /// `pool_hits / (pool_hits + pool_misses)` over the measured window.
    pub pool_hit_rate: f64,
    /// Chunk buffers recycled to the pool over the measured window.
    pub pool_recycled: u64,
}

/// Warm up, then count deep-copied payload bytes and pool traffic over
/// `measured` raises. The process-wide copy counter is mirrored into the
/// cluster's net stats so the telemetry snapshot records
/// `net.bytes_copied` alongside the pool counters.
fn measure(
    cluster: &Cluster,
    case: &'static str,
    payload_bytes: usize,
    warmup: usize,
    measured: usize,
    raise_once: impl Fn(),
) -> ZeroCopyRow {
    for _ in 0..warmup {
        raise_once();
    }
    let copied_before = Bytes::deep_copied_bytes();
    let before = cluster.net().stats().snapshot();
    for _ in 0..measured {
        raise_once();
    }
    let copied = Bytes::deep_copied_bytes() - copied_before;
    cluster.net().stats().bytes_copied.add(copied);
    let delta = before.delta(&cluster.net().stats().snapshot());
    let (hits, misses) = (delta.get("pool_hits"), delta.get("pool_misses"));
    ZeroCopyRow {
        case,
        raises: measured as u64,
        payload_bytes,
        bytes_copied_per_raise: copied as f64 / measured as f64,
        pool_hit_rate: match hits + misses {
            0 => 0.0,
            takes => hits as f64 / takes as f64,
        },
        pool_recycled: delta.get("pool_recycled"),
    }
}

/// E12's acceptance configuration (8 members on 2 hosting nodes, raiser
/// on a member-free node) carrying a 64 KiB payload: the fan-out must be
/// refcount bumps, with at most one copy per destination *node* tolerated
/// (the acceptance bound; the shared-buffer path does zero).
fn fanout_case() -> Result<ZeroCopyRow, KernelError> {
    const MEMBERS: usize = 8;
    const SPAN: usize = 2;
    const WARMUP: usize = 3;
    const MEASURED: usize = 30;
    const PAYLOAD: usize = 64 * 1024;
    let cluster: Cluster = ClusterBuilder::new(SPAN + 1)
        .config(
            KernelConfig {
                delivery_timeout: Duration::from_secs(5),
                ..KernelConfig::with_locator(LocatorStrategy::Multicast)
            }
            .without_location_cache(),
        )
        .reliable_with(
            bench_reliability(ReliabilityConfig::default().batch_max),
            FailureConfig::default(),
        )
        .build();
    let _facility = EventFacility::install(&cluster);
    let group = cluster.create_group();
    let handles: Vec<_> = (0..MEMBERS)
        .map(|i| {
            let node = 1 + i % SPAN;
            let opts = SpawnOptions {
                group: Some(group),
                ..Default::default()
            };
            cluster.spawn_fn_with(node, opts, |ctx| {
                ctx.sleep(Duration::from_secs(120))?;
                Ok(Value::Null)
            })
        })
        .collect::<Result<_, _>>()?;
    std::thread::sleep(Duration::from_millis(80));

    let payload = Value::Bytes(Bytes::from_vec(vec![0xA5; PAYLOAD]));
    let row = measure(&cluster, "fanout", PAYLOAD, WARMUP, MEASURED, || {
        let summary = cluster
            .raise_from(
                0,
                SystemEvent::Timer,
                payload.clone(),
                RaiseTarget::Group(group),
            )
            .wait();
        assert_eq!(summary.delivered, MEMBERS, "fan-out delivery: {summary:?}");
    });

    let _ = cluster
        .raise_from(0, SystemEvent::Quit, Value::Null, RaiseTarget::Group(group))
        .wait();
    for h in handles {
        let _ = h.join_timeout(Duration::from_secs(5));
    }
    crate::telemetry_out::record("e15", &cluster);

    assert!(
        row.bytes_copied_per_raise <= (SPAN * PAYLOAD) as f64,
        "fan-out copied {:.0} payload bytes/raise — more than one \
         copy per destination node ({SPAN} nodes × {PAYLOAD} B)",
        row.bytes_copied_per_raise
    );
    Ok(row)
}

/// The E2c-style warm path: a stationary target, hint cache on, so every
/// raise is one unicast probe — whose sealed singleton chunk must come
/// from the pool free list once warm (hit rate ≥99%).
fn warm_unicast_case() -> Result<ZeroCopyRow, KernelError> {
    const WARMUP: usize = 10;
    const MEASURED: usize = 200;
    const PAYLOAD: usize = 4 * 1024;
    let cluster: Cluster = ClusterBuilder::new(2)
        .config(KernelConfig {
            delivery_timeout: Duration::from_secs(5),
            ..KernelConfig::with_locator(LocatorStrategy::Broadcast)
        })
        .reliable_with(
            bench_reliability(ReliabilityConfig::default().batch_max),
            FailureConfig::default(),
        )
        .build();
    let _facility = EventFacility::install(&cluster);
    let handle = cluster.spawn_fn(1, |ctx| {
        ctx.sleep(Duration::from_secs(120))?;
        Ok(Value::Null)
    })?;
    std::thread::sleep(Duration::from_millis(80));

    let payload = Value::Bytes(Bytes::from_vec(vec![0x5A; PAYLOAD]));
    let row = measure(&cluster, "warm-unicast", PAYLOAD, WARMUP, MEASURED, || {
        let summary = cluster
            .raise_from(0, SystemEvent::Timer, payload.clone(), handle.thread())
            .wait();
        assert_eq!(summary.delivered, 1, "warm unicast delivery: {summary:?}");
    });

    let _ = cluster
        .raise_from(0, SystemEvent::Quit, Value::Null, handle.thread())
        .wait();
    let _ = handle.join_timeout(Duration::from_secs(5));
    crate::telemetry_out::record("e15", &cluster);

    assert!(
        row.pool_hit_rate >= 0.99,
        "warm-unicast pool hit rate {:.4} < 0.99 — the steady-state fast \
         path is allocating",
        row.pool_hit_rate
    );
    Ok(row)
}

/// Run both cases.
///
/// # Errors
///
/// Cluster construction/spawn failures.
///
/// # Panics
///
/// Panics if either case misses its acceptance bound.
pub fn run() -> Result<Vec<ZeroCopyRow>, KernelError> {
    Ok(vec![fanout_case()?, warm_unicast_case()?])
}

/// Render the measurements.
pub fn table(rows: &[ZeroCopyRow]) -> Table {
    let mut t = Table::new(
        "E15: zero-copy payloads and pooled chunks (copied bytes are deep copies; clones are refcount bumps)",
        &[
            "case",
            "raises",
            "payload",
            "copied B/raise",
            "pool hit rate",
            "recycled",
        ],
    );
    for r in rows {
        t.row(vec![
            r.case.to_string(),
            r.raises.to_string(),
            format!("{} KiB", r.payload_bytes / 1024),
            format!("{:.1}", r.bytes_copied_per_raise),
            format!("{:.3}", r.pool_hit_rate),
            r.pool_recycled.to_string(),
        ]);
    }
    t
}
