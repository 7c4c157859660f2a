//! E11 — partition & heal: dead-target notification under real link
//! failure (paper §7.2).
//!
//! Claim quantified: with the acked/retried transport and heartbeat
//! failure detector on, a cluster that loses links mid-traffic keeps its
//! delivery ledger balanced — every raise resolves as delivered, dead,
//! timed out, lost, or overloaded — and no raiser blocks past its
//! deadline. A cut shorter than the retransmit tail is invisible
//! (retransmissions carry the traffic across the heal); a cut longer than
//! the detector's `dead_after` converts would-be hangs into prompt
//! `TargetDead` verdicts.
//!
//! Workload: a 4-node reliable cluster with sleeper threads spread over
//! nodes 1–3. Driver threads on node 0 raise events at seeded-random
//! sleepers continuously; mid-traffic, node 3 is isolated for a
//! configurable window, then healed, and traffic continues. At the end
//! the clusters drain and the ledger, retransmit, and detector counters
//! are read back.

use crate::Table;
use doct_kernel::{
    ClusterBuilder, KernelConfig, KernelError, LedgerSnapshot, RaiseTarget, SpawnOptions,
    SystemEvent, ThreadId, Value,
};
use doct_net::{FailureConfig, NodeId, ReliabilityConfig};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 4;
const SLEEPERS: usize = 6;
const DRIVERS: usize = 3;
const DELIVERY_TIMEOUT: Duration = Duration::from_millis(800);
/// A raise waiter is "hung" if it blocks past the delivery timeout plus
/// the ticket's own 1s grace plus scheduling slack.
const HANG_DEADLINE: Duration = Duration::from_millis(800 + 1_000 + 500);

/// Base seed: `DOCT_SEED` if set, else a fixed default (same convention
/// as the soak test, so CI's seed matrix reaches this experiment too).
fn base_seed() -> u64 {
    match std::env::var("DOCT_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("DOCT_SEED must be a u64, got {s:?}")),
        Err(_) => 0xD0C7_5EED,
    }
}

/// One measurement: a full cut → traffic → heal cycle.
#[derive(Debug, Clone)]
pub struct PartitionRow {
    /// Case label.
    pub label: &'static str,
    /// How long node 3 stays isolated.
    pub cut: Duration,
    /// The delivery ledger after the cycle quiesced.
    pub ledger: LedgerSnapshot,
    /// `net.retransmits`.
    pub retransmits: u64,
    /// `net.giveups` (retransmit queue abandoned an envelope).
    pub giveups: u64,
    /// `net.suspects` + `net.deaths` (detector downward transitions).
    pub verdicts: u64,
    /// Mean simulated-ack latency.
    pub ack_latency: Duration,
    /// Longest single raise wait observed.
    pub max_wait: Duration,
    /// Raise waits that blocked past [`HANG_DEADLINE`] (must be 0).
    pub hung: usize,
}

fn one_cycle(label: &'static str, cut: Duration, seed: u64) -> Result<PartitionRow, KernelError> {
    let cluster = ClusterBuilder::new(NODES)
        .config(KernelConfig {
            delivery_timeout: DELIVERY_TIMEOUT,
            delivery_retries: 2,
            ..KernelConfig::default()
        })
        .reliable_with(
            ReliabilityConfig {
                max_retries: 10,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(40),
                jitter: Duration::from_millis(2),
                tick: Duration::from_millis(2),
                heartbeat_interval: Duration::from_millis(10),
                dedupe_window: 4096,
                ..ReliabilityConfig::default()
            },
            FailureConfig {
                suspect_after: Duration::from_millis(60),
                dead_after: Duration::from_millis(200),
            },
        )
        .build();

    // Sleepers: long-lived raise targets spread over nodes 1..=3.
    let group = cluster.create_group();
    let mut handles = Vec::new();
    for i in 0..SLEEPERS {
        let opts = SpawnOptions {
            group: Some(group),
            ..Default::default()
        };
        handles.push(cluster.spawn_fn_with(1 + (i % (NODES - 1)), opts, |ctx| {
            // Sleep in slices: each slice boundary is a delivery point.
            for _ in 0..40 {
                ctx.sleep(Duration::from_millis(50))?;
            }
            Ok(Value::Null)
        })?);
    }
    let targets: Vec<ThreadId> = handles.iter().map(|h| h.thread()).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.groups().member_count(group) < SLEEPERS {
        assert!(Instant::now() < deadline, "sleepers failed to start");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Drivers: raise at seeded-random sleepers until told to stop,
    // recording every wait.
    let stop = Arc::new(AtomicBool::new(false));
    let waits: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let hung = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for d in 0..DRIVERS {
            let cluster = &cluster;
            let targets = targets.clone();
            let stop = Arc::clone(&stop);
            let waits = Arc::clone(&waits);
            let hung = Arc::clone(&hung);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0xE11 + d as u64));
                while !stop.load(Ordering::Relaxed) {
                    let target = targets[rng.gen_range(0..targets.len())];
                    let t0 = Instant::now();
                    let _ = cluster
                        .raise_from(
                            0,
                            SystemEvent::Timer,
                            Value::Null,
                            RaiseTarget::Thread(target),
                        )
                        .wait();
                    let waited = t0.elapsed();
                    if waited > HANG_DEADLINE {
                        hung.fetch_add(1, Ordering::Relaxed);
                    }
                    waits.lock().push(waited);
                    std::thread::sleep(Duration::from_millis(rng.gen_range(2..8)));
                }
            });
        }

        // Traffic → cut → (partitioned traffic) → heal → traffic.
        std::thread::sleep(Duration::from_millis(200));
        if !cut.is_zero() {
            cluster.net().isolate(&[NodeId(3)]).unwrap();
            std::thread::sleep(cut);
            cluster.net().heal();
        }
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });

    // Drain: sleepers run out, deliveries resolve, cluster quiesces.
    for h in handles {
        let _ = h.join_timeout(Duration::from_secs(10));
    }
    assert!(
        cluster.await_quiescence(Duration::from_secs(10)),
        "{label}: cluster failed to quiesce"
    );
    // One idle delivery-timeout window so stragglers sweep out.
    std::thread::sleep(DELIVERY_TIMEOUT + Duration::from_millis(200));

    let ledger = cluster.ledger();
    assert!(
        ledger.balanced(),
        "{label}: ledger out of balance: {ledger}"
    );
    let stats = cluster.net().stats();
    let max_wait = waits.lock().iter().copied().max().unwrap_or(Duration::ZERO);
    crate::telemetry_out::record("e11", &cluster);
    Ok(PartitionRow {
        label,
        cut,
        ledger,
        retransmits: stats.retransmits.get(),
        giveups: stats.giveups.get(),
        verdicts: stats.suspects.get() + stats.deaths.get(),
        ack_latency: Duration::from_nanos(stats.ack_latency.mean_ns()),
        max_wait,
        hung: hung.load(Ordering::Relaxed),
    })
}

/// Run the cut-length sweep: no cut, a cut inside the retransmit tail,
/// and a cut long enough for dead verdicts.
///
/// # Errors
///
/// Cluster construction failures.
pub fn run() -> Result<Vec<PartitionRow>, KernelError> {
    let seed = base_seed();
    [
        ("no cut", Duration::ZERO),
        ("cut < retransmit tail", Duration::from_millis(120)),
        ("cut > dead_after", Duration::from_millis(700)),
    ]
    .iter()
    .map(|&(label, cut)| one_cycle(label, cut, seed))
    .collect()
}

/// Render the table.
pub fn table(rows: &[PartitionRow]) -> Table {
    let mut t = Table::new(
        "E11: partition & heal, 4 nodes, reliable transport (paper §7.2)",
        &[
            "case",
            "cut",
            "raises",
            "delivered",
            "dead",
            "timeout",
            "lost",
            "overloaded",
            "retransmits",
            "giveups",
            "verdicts",
            "ack latency",
            "max wait",
            "hung",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.to_string(),
            format!("{:.0?}", r.cut),
            r.ledger.requested.to_string(),
            r.ledger.delivered.to_string(),
            r.ledger.dead.to_string(),
            r.ledger.timeout.to_string(),
            r.ledger.lost.to_string(),
            r.ledger.overloaded.to_string(),
            r.retransmits.to_string(),
            r.giveups.to_string(),
            r.verdicts.to_string(),
            format!("{:.1?}", r.ack_latency),
            format!("{:.1?}", r.max_wait),
            r.hung.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_cut_cycle_balances_and_nothing_hangs() {
        let row = one_cycle("test", Duration::from_millis(120), 7).unwrap();
        assert_eq!(row.hung, 0, "{row:?}");
        assert!(row.ledger.requested > 0);
        assert!(row.ledger.balanced(), "{row:?}");
        assert!(row.retransmits > 0, "cut produced no retransmits: {row:?}");
    }
}
