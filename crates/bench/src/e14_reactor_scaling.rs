//! E14 — delivery-pipeline scaling across per-core reactors (ROADMAP
//! item 1, the sharded-kernel companion to E13's saturation sweep).
//!
//! Each arm runs the same open-loop workload against a kernel configured
//! with 1, 2, 4, or 8 reactors: four raiser threads flood four sink
//! threads (distinct `thread_slot`s, so a multi-reactor kernel spreads
//! them) with detached TIMER raises as fast as the fabric admits, for a
//! fixed window. Throughput is **ledger-resolved raises per second**:
//! offered count divided by the time from the first raise until the
//! five-term ledger balances (every raise typed delivered / overloaded /
//! dead / timeout / lost) — admission control is part of the pipeline, so
//! sheds count as resolved work, not as progress lost. The event
//! facility is installed, so each delivered TIMER runs the sink's `burn`
//! handler — the service cost the throughput is defined against;
//! `handlers_run` shows it did.
//!
//! The claim under test: with the delivery table lock-striped and the
//! kernel loop split into work-stealing reactors, 4 reactors sustain
//! ≥ 2.5× the 1-reactor rate **on a host with ≥ 4 cores**. The row set
//! records `host_cores` precisely because the acceptance ratio is
//! physically unattainable on fewer: reactor threads on a single core
//! time-slice one CPU, so the expected ratio there is ~1× (the run then
//! demonstrates overhead-neutrality instead, and the steal/contention
//! counters prove the multi-reactor machinery actually engaged).

use crate::Table;
use doct_events::{CtxEvents, EventFacility};
use doct_kernel::{ClusterBuilder, KernelConfig, KernelError, SystemEvent, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-event service cost burned by each sink's handler.
const SERVICE: Duration = Duration::from_micros(10);
/// How long the raisers offer load.
const OFFER_FOR: Duration = Duration::from_millis(400);
/// Pacing between one raiser's consecutive raises (open loop, but bounded
/// so a slow arm cannot queue an unbounded backlog).
const RAISE_EVERY: Duration = Duration::from_micros(50);
/// Sink threads on the consuming node (= distinct reactor route slots).
const SINKS: usize = 4;
/// Raiser threads on the offering node.
const RAISERS: usize = 4;
/// How long to wait for the ledger to balance after offering stops.
const SETTLE_FOR: Duration = Duration::from_secs(15);

/// One measured reactor-count arm.
#[derive(Debug, Clone)]
pub struct ReactorRow {
    /// Reactor workers per kernel (1 = inline kernel loop, no router).
    pub reactors: usize,
    /// Raises offered (open loop, detached).
    pub offered: u64,
    /// Ledger-resolved raises per second (offered / time-to-balanced).
    pub resolved_per_s: f64,
    /// `delivery.delivered` for the arm.
    pub delivered: u64,
    /// `facility.handlers_run` — `burn` executions. At most `delivered`:
    /// the sinks stop polling when the window ends, so events still in a
    /// mailbox then are delivered but never handled.
    pub handlers_run: u64,
    /// `delivery.overloaded` for the arm (typed admission sheds).
    pub overloaded: u64,
    /// `kernel.reactor_steals` — batches stolen by idle reactors.
    pub steals: u64,
    /// `kernel.shard_contention` — delivery-table stripe lock misses.
    pub shard_contention: u64,
}

fn spin_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

fn case(reactors: usize) -> Result<ReactorRow, KernelError> {
    let cluster = ClusterBuilder::new(2)
        .config(
            KernelConfig {
                delivery_timeout: Duration::from_secs(10),
                ..KernelConfig::default()
            }
            .with_reactors(reactors),
        )
        .build();
    let _facility = EventFacility::install(&cluster);

    // Four draining sinks: each burns SERVICE per event and keeps polling
    // so the backlog moves; distinct threads mean distinct route slots.
    let stop = Arc::new(AtomicBool::new(false));
    let sinks: Vec<_> = (0..SINKS)
        .map(|_| {
            let s = Arc::clone(&stop);
            cluster
                .spawn_fn(1, move |ctx| {
                    ctx.attach_handler(
                        SystemEvent::Timer,
                        doct_events::AttachSpec::proc("burn", |_c, _b| {
                            spin_for(SERVICE);
                            doct_events::HandlerDecision::Resume(Value::Null)
                        }),
                    );
                    while !s.load(Ordering::Relaxed) {
                        ctx.poll_events()?;
                        ctx.sleep(Duration::from_micros(500))?;
                    }
                    Ok(Value::Null)
                })
                .unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let targets: Vec<_> = sinks.iter().map(|h| h.thread()).collect();

    // Open-loop offering from RAISERS OS threads, round-robin over the
    // sinks, each raise detached (the ledger, not the ticket, is the
    // resolution record).
    let start = Instant::now();
    let offered: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RAISERS)
            .map(|r| {
                let cluster = &cluster;
                let targets = &targets;
                scope.spawn(move || {
                    let mut count = 0u64;
                    let mut next = Instant::now();
                    while start.elapsed() < OFFER_FOR {
                        next += RAISE_EVERY;
                        while Instant::now() < next {
                            std::hint::spin_loop();
                        }
                        let target = targets[(r + count as usize) % targets.len()];
                        cluster
                            .raise_from(0, SystemEvent::Timer, Value::Null, target)
                            .detach();
                        count += 1;
                    }
                    count
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("raiser")).sum()
    });

    // Resolution clock: the arm ends when every offered raise is typed.
    let settled = || {
        let ledger = cluster.ledger();
        ledger.balanced() && ledger.requested >= offered
    };
    let settle_deadline = Instant::now() + SETTLE_FOR;
    while !settled() {
        assert!(
            Instant::now() < settle_deadline,
            "reactors {reactors}: ledger did not balance within {SETTLE_FOR:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let resolved_per_s = offered as f64 / start.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    for sink in sinks {
        let _ = sink.join_timeout(Duration::from_secs(10));
    }
    assert!(
        cluster.await_quiescence(Duration::from_secs(10)),
        "reactors {reactors}: orphan activations"
    );
    crate::telemetry_out::record("e14", &cluster);

    let ledger = cluster.ledger();
    let c = cluster.telemetry().metrics().counters;
    let get = |name: &str| c.get(name).copied().unwrap_or(0);
    let handlers_run = get("facility.handlers_run");
    assert!(
        (1..=ledger.delivered).contains(&handlers_run),
        "reactors {reactors}: {handlers_run} handler runs for {} deliveries — \
         the service cost this arm's rate is defined against did not run",
        ledger.delivered
    );
    Ok(ReactorRow {
        reactors,
        offered,
        resolved_per_s,
        delivered: ledger.delivered,
        handlers_run,
        overloaded: ledger.overloaded,
        steals: get("kernel.reactor_steals"),
        shard_contention: get("kernel.shard_contention"),
    })
}

/// Cores available to this process (what the scaling ratio is bounded by).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run the sweep: 1, 2, 4, and 8 reactors per kernel.
///
/// # Errors
///
/// Cluster construction/spawn failures.
///
/// # Panics
///
/// Panics if an arm's ledger does not balance, or its `burn` handler
/// never ran (or ran more often than events were delivered).
pub fn run() -> Result<Vec<ReactorRow>, KernelError> {
    [1usize, 2, 4, 8].iter().map(|&n| case(n)).collect()
}

/// Throughput of the 4-reactor arm over the 1-reactor baseline.
fn scaling_4x(rows: &[ReactorRow]) -> f64 {
    let base = rows
        .iter()
        .find(|r| r.reactors == 1)
        .map(|r| r.resolved_per_s)
        .unwrap_or(0.0);
    let four = rows
        .iter()
        .find(|r| r.reactors == 4)
        .map(|r| r.resolved_per_s)
        .unwrap_or(0.0);
    if base > 0.0 {
        four / base
    } else {
        0.0
    }
}

/// Render the sweep.
pub fn table(rows: &[ReactorRow]) -> Table {
    let mut t = Table::new(
        "E14: reactor scaling (open-loop raises/sec vs reactors per kernel)",
        &[
            "reactors",
            "offered",
            "resolved/s",
            "delivered",
            "handlers_run",
            "overloaded",
            "steals",
            "contention",
        ],
    );
    for r in rows {
        t.row(vec![
            r.reactors.to_string(),
            r.offered.to_string(),
            format!("{:.0}", r.resolved_per_s),
            r.delivered.to_string(),
            r.handlers_run.to_string(),
            r.overloaded.to_string(),
            r.steals.to_string(),
            r.shard_contention.to_string(),
        ]);
    }
    t.row(vec![
        format!("host: {} core(s)", host_cores()),
        String::new(),
        format!("4x/1x: {:.2}x", scaling_4x(rows)),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t
}

/// The sweep as machine-readable JSON (`BENCH_e14_reactor_scaling.json`):
/// per-arm throughput and reactor counters, the 4-over-1 scaling ratio,
/// and the host's core count (the ratio's physical bound — the ≥ 2.5×
/// target applies on hosts with at least 4 cores).
pub fn json(rows: &[ReactorRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"e14_reactor_scaling\",\n");
    out.push_str(&format!(
        "  \"host_cores\": {},\n  \"rows\": [\n",
        host_cores()
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"reactors\": {}, \"offered\": {}, \"resolved_per_s\": {:.0}, \
             \"delivered\": {}, \"handlers_run\": {}, \"overloaded\": {}, \
             \"steals\": {}, \"shard_contention\": {}}}{}\n",
            r.reactors,
            r.offered,
            r.resolved_per_s,
            r.delivered,
            r.handlers_run,
            r.overloaded,
            r.steals,
            r.shard_contention,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let ratio = scaling_4x(rows);
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"scaling_4x_over_1x\": {{\"ratio\": {:.2}, \"target\": 2.5, \
         \"target_applies\": {}}}\n}}\n",
        ratio,
        host_cores() >= 4,
    ));
    out
}
