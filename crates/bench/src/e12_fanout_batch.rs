//! E12 — batched fan-out delivery (§5 event propagation cost).
//!
//! A group raise under the multicast locator probes every node hosting a
//! member, once per member: `members × hosting-nodes` co-destined probes
//! per raise. The batching layer in `doct-net` accumulates co-destined
//! reliable transfers per `(src, dst)` pair and seals them into one
//! `BatchEnvelope` (one seq, one wire hop), and receipts riding back get
//! the same treatment through the response windows the batch arms. This
//! sweep counts the wire-message reduction that buys, against the
//! `batch_max = 1` ablation (every payload seals alone), across group
//! size × hosting-node span, and asserts the claim: at 8 members on 2
//! nodes the default `batch_max` sends at least 3× fewer wire messages
//! per raise. Raise latency on this path is `benchmark/`'s
//! `group_fanout` workload (see `benchmark/README.md`).

use crate::Table;
use doct_events::EventFacility;
use doct_kernel::{
    Cluster, ClusterBuilder, KernelConfig, KernelError, LocatorStrategy, RaiseTarget, SpawnOptions,
    SystemEvent, Value,
};
use doct_net::{FailureConfig, MessageClass, ReliabilityConfig};
use std::time::Duration;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct FanoutRow {
    /// Threads in the raised-at group.
    pub group_size: usize,
    /// Nodes hosting members (the raiser is an extra, member-free node).
    pub hosting_nodes: usize,
    /// Most payloads per sealed batch (`1` is the no-batching ablation).
    pub batch_max: usize,
    /// Measured (post-warm-up) raises.
    pub raises: u64,
    /// Physical wire transmissions per raise (a batch counts once).
    pub wire_per_raise: f64,
    /// `Locate`-class payloads per raise (probes + receipts; identical
    /// in both arms — batching changes packaging, not payloads).
    pub locate_per_raise: f64,
    /// Batches sealed per raise.
    pub batches_per_raise: f64,
    /// Mean payloads per sealed batch (0 at `batch_max = 1`).
    pub mean_fill: f64,
    /// Acks saved by cumulative acknowledgement, per raise.
    pub acks_coalesced_per_raise: f64,
}

/// Tight reliability tuning so the sweep finishes quickly (shared with
/// E15); only `batch_max` varies between the measured arms.
pub(crate) fn bench_reliability(batch_max: usize) -> ReliabilityConfig {
    ReliabilityConfig {
        max_retries: 60,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        jitter: Duration::from_millis(2),
        tick: Duration::from_millis(2),
        heartbeat_interval: Duration::from_millis(50),
        dedupe_window: 4096,
        batch_max,
        ..ReliabilityConfig::default()
    }
}

fn case(
    group_size: usize,
    hosting_nodes: usize,
    batch_max: usize,
) -> Result<FanoutRow, KernelError> {
    const WARMUP: usize = 3;
    const MEASURED: usize = 30;
    // The raiser lives on node 0 and hosts no members, so every probe and
    // receipt crosses the wire. The hint cache is off: this table isolates
    // the locator-wave fan-out that batching compresses.
    let cluster: Cluster = ClusterBuilder::new(hosting_nodes + 1)
        .config(
            KernelConfig {
                delivery_timeout: Duration::from_secs(5),
                ..KernelConfig::with_locator(LocatorStrategy::Multicast)
            }
            .without_location_cache(),
        )
        .reliable_with(bench_reliability(batch_max), FailureConfig::default())
        .build();
    let _facility = EventFacility::install(&cluster);
    let group = cluster.create_group();
    let handles: Vec<_> = (0..group_size)
        .map(|i| {
            let node = 1 + i % hosting_nodes;
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

    let raise_once = || {
        let summary = cluster
            .raise_from(
                0,
                SystemEvent::Timer,
                Value::Null,
                RaiseTarget::Group(group),
            )
            .wait();
        assert_eq!(
            summary.delivered, group_size,
            "members={group_size} span={hosting_nodes} batch_max={batch_max}: {summary:?}"
        );
    };
    for _ in 0..WARMUP {
        raise_once();
    }
    let before = cluster.net().stats().snapshot();
    for _ in 0..MEASURED {
        raise_once();
    }
    let delta = before.delta(&cluster.net().stats().snapshot());

    let _ = cluster
        .raise_from(0, SystemEvent::Quit, Value::Null, RaiseTarget::Group(group))
        .wait();
    for h in handles {
        let _ = h.join_timeout(Duration::from_secs(5));
    }
    crate::telemetry_out::record("e12", &cluster);

    let per_raise = |n: u64| n as f64 / MEASURED as f64;
    Ok(FanoutRow {
        group_size,
        hosting_nodes,
        batch_max,
        raises: MEASURED as u64,
        wire_per_raise: per_raise(delta.get("wire_msgs")),
        locate_per_raise: per_raise(delta.sent(MessageClass::Locate)),
        batches_per_raise: per_raise(delta.get("batches_sent")),
        mean_fill: match delta.get("batch_fill.count") {
            0 => 0.0,
            sealed => delta.get("batch_fill.sum") as f64 / sealed as f64,
        },
        acks_coalesced_per_raise: per_raise(delta.get("acks_coalesced")),
    })
}

/// Run the sweep: (group size, hosting nodes) ∈ {(2,1), (4,2), (8,2),
/// (8,4), (16,4)} — members per node from 2 to 4 — each at
/// `batch_max = 1` then the default. (8,2) is the acceptance
/// configuration: ≥3× fewer wire messages per raise at the default.
///
/// # Errors
///
/// Cluster construction/spawn failures.
///
/// # Panics
///
/// Panics if the (8,2) reduction falls below 3×.
pub fn run() -> Result<Vec<FanoutRow>, KernelError> {
    let default_max = ReliabilityConfig::default().batch_max;
    let mut rows = Vec::new();
    for &(members, span) in &[(2usize, 1usize), (4, 2), (8, 2), (8, 4), (16, 4)] {
        for batch_max in [1, default_max] {
            rows.push(case(members, span, batch_max)?);
        }
    }
    let gate = reductions(&rows).into_iter().find(|r| (r.0, r.1) == (8, 2));
    let (_, _, ratio) = gate.expect("the sweep covers 8 members on 2 nodes");
    assert!(
        ratio >= 3.0,
        "E12 claim: default batch_max must cut wire msgs/raise ≥3× at 8×2, got {ratio:.2}×"
    );
    Ok(rows)
}

/// Wire-message reduction (`batch_max = 1` over default) for each swept
/// configuration.
fn reductions(rows: &[FanoutRow]) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for off in rows.iter().filter(|r| r.batch_max == 1) {
        if let Some(on) = rows.iter().find(|r| {
            r.batch_max > 1
                && r.group_size == off.group_size
                && r.hosting_nodes == off.hosting_nodes
        }) {
            let ratio = if on.wire_per_raise > 0.0 {
                off.wire_per_raise / on.wire_per_raise
            } else {
                0.0
            };
            out.push((off.group_size, off.hosting_nodes, ratio));
        }
    }
    out
}

/// Render the sweep.
pub fn table(rows: &[FanoutRow]) -> Table {
    let mut t = Table::new(
        "E12: batched fan-out delivery (multicast group raise; wire msgs count a batch once)",
        &[
            "members",
            "span",
            "batch_max",
            "wire/raise",
            "locate/raise",
            "batches/raise",
            "fill",
            "acks saved/raise",
        ],
    );
    for r in rows {
        t.row(vec![
            r.group_size.to_string(),
            r.hosting_nodes.to_string(),
            r.batch_max.to_string(),
            format!("{:.1}", r.wire_per_raise),
            format!("{:.1}", r.locate_per_raise),
            format!("{:.1}", r.batches_per_raise),
            format!("{:.1}", r.mean_fill),
            format!("{:.1}", r.acks_coalesced_per_raise),
        ]);
    }
    for (members, span, ratio) in reductions(rows) {
        t.row(vec![
            members.to_string(),
            span.to_string(),
            "1/default".to_string(),
            format!("{ratio:.1}x"),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    t
}
