//! Soak test: a 6-node cluster under several seconds of randomized
//! concurrent load — invocations, locked read-modify-writes, event
//! raises, computes and sleeps — followed by a full distributed
//! termination. Invariants checked at the end:
//!
//! * locked counter increments are never lost (the lock manager works
//!   under contention),
//! * every lock is released after termination (cleanup chains ran),
//! * the cluster quiesces with zero orphan activations,
//! * the telemetry delivery ledger balances: every tracked raise was
//!   resolved as delivered, dead, or timed out.
//!
//! The randomized schedules derive from one base seed, `DOCT_SEED`
//! (default below), so failures replay deterministically; the seed is
//! printed when a test panics.

use doct::prelude::*;
use doct_events::EventFacility;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 6;
const WORKERS: usize = 18;
const RUN_FOR: Duration = Duration::from_secs(3);

/// Base seed for every RNG in this file: `DOCT_SEED` if set, else a fixed
/// default so runs are deterministic out of the box.
fn base_seed() -> u64 {
    match std::env::var("DOCT_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("DOCT_SEED must be a u64, got {s:?}")),
        Err(_) => 0xD0C7_5EED,
    }
}

/// Prints the seed if the test panics, so the failing schedule can be
/// replayed with `DOCT_SEED=<seed> cargo test --test soak`.
struct SeedReport(u64);

impl Drop for SeedReport {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "soak failed with base seed {}; replay with DOCT_SEED={}",
                self.0, self.0
            );
        }
    }
}

/// At quiescence every tracked raise must be accounted for:
/// requested == delivered + dead + timed out + lost + overloaded.
/// Shed raises are *typed* outcomes, never silent drops.
fn assert_delivery_ledger_balances(cluster: &Cluster) {
    let ledger = cluster.ledger();
    assert!(
        ledger.balanced(),
        "delivery ledger out of balance: {ledger}"
    );
    assert!(ledger.requested > 0, "soak raised no tracked events");
}

#[test]
fn randomized_soak_with_clean_teardown() {
    let seed = base_seed();
    let _report = SeedReport(seed);
    let cluster = Cluster::new(NODES);
    let facility = EventFacility::install(&cluster);
    facility.register_event("NUDGE");
    let locks = LockManager::create(&cluster, NodeId(1)).unwrap();

    cluster.register_class(
        "cell",
        ClassBuilder::new("cell")
            .entry("incr", |ctx, _| {
                ctx.with_state(|s| {
                    let n = s.get("n").and_then(Value::as_int).unwrap_or(0);
                    s.set("n", n + 1);
                    Value::Int(n + 1)
                })
            })
            .entry("get", |ctx, _| {
                Ok(ctx.read_state()?.get("n").cloned().unwrap_or(Value::Int(0)))
            })
            .build(),
    );
    // One unprotected cell per node (exclusive, so invocations serialize)
    // plus one shared cell guarded by the lock manager.
    let cells: Vec<ObjectId> = (0..NODES)
        .map(|i| {
            cluster
                .create_object(
                    ObjectConfig::new("cell", NodeId(i as u32))
                        .with_state(Value::map())
                        .exclusive(),
                )
                .unwrap()
        })
        .collect();
    let shared = cluster
        .create_object(ObjectConfig::new("cell", NodeId(0)).with_state(Value::map()))
        .unwrap(); // NOT exclusive: protected by the lock instead

    let group = cluster.create_group();
    let stop = Arc::new(AtomicBool::new(false));
    let locked_increments = Arc::new(AtomicU64::new(0));
    let nudges_handled = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for w in 0..WORKERS {
        let cells = cells.clone();
        let stop = Arc::clone(&stop);
        let locked_increments = Arc::clone(&locked_increments);
        let nudges_handled = Arc::clone(&nudges_handled);
        let opts = SpawnOptions {
            group: Some(group),
            ..Default::default()
        };
        handles.push(
            cluster
                .spawn_fn_with(w % NODES, opts, move |ctx| {
                    let nh = Arc::clone(&nudges_handled);
                    ctx.attach_handler(
                        "NUDGE",
                        AttachSpec::proc("nudge", move |_c, _b| {
                            nh.fetch_add(1, Ordering::Relaxed);
                            HandlerDecision::Resume(Value::Null)
                        }),
                    );
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(w as u64));
                    let mut group_members: Vec<ThreadId> = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        match rng.gen_range(0..6) {
                            0 => {
                                // Plain invocation of a random cell.
                                let cell = cells[rng.gen_range(0..cells.len())];
                                ctx.invoke(cell, "incr", Value::Null)?;
                            }
                            1 => {
                                // Locked increment of the shared cell.
                                let lock = locks.acquire(ctx, "shared-cell")?;
                                ctx.invoke(shared, "incr", Value::Null)?;
                                locked_increments.fetch_add(1, Ordering::Relaxed);
                                locks.release(ctx, lock)?;
                            }
                            2 => {
                                // Nudge a random known sibling (or learn one).
                                if group_members.is_empty() {
                                    group_members = ctx
                                        .kernel()
                                        .groups()
                                        .members(ctx.attributes().group.expect("in group"));
                                }
                                if let Some(&t) =
                                    group_members.get(rng.gen_range(0..group_members.len()))
                                {
                                    ctx.raise("NUDGE", Value::Null, t).detach();
                                }
                            }
                            3 => ctx.compute(rng.gen_range(100..5_000))?,
                            4 => ctx.sleep(Duration::from_millis(rng.gen_range(1..4)))?,
                            _ => {
                                // Occasionally hold a lock "carelessly"
                                // across other work, then release.
                                let name = format!("aux-{}", rng.gen_range(0..4));
                                if let Some(lock) = locks.try_acquire(ctx, &name)? {
                                    ctx.compute(rng.gen_range(100..2_000))?;
                                    locks.release(ctx, lock)?;
                                }
                            }
                        }
                        ctx.poll_events()?;
                    }
                    Ok(Value::Null)
                })
                .unwrap(),
        );
    }

    // Let it churn.
    std::thread::sleep(RUN_FOR);
    stop.store(true, Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut finished = 0;
    for h in handles {
        match h.join_timeout(deadline.saturating_duration_since(Instant::now())) {
            Some(Ok(_)) => finished += 1,
            Some(Err(e)) => panic!("worker failed: {e}"),
            None => panic!("worker hung"),
        }
    }
    assert_eq!(finished, WORKERS);
    assert!(cluster.await_quiescence(Duration::from_secs(10)), "orphans");

    // Locked increments were never lost.
    let shared_total = cluster
        .spawn(0, shared, "get", Value::Null)
        .unwrap()
        .join()
        .unwrap()
        .as_int()
        .unwrap_or(-1) as u64;
    assert_eq!(
        shared_total,
        locked_increments.load(Ordering::Relaxed),
        "mutual exclusion must prevent lost updates"
    );

    // Every lock came back.
    let held = cluster
        .spawn_fn(2, move |ctx| Ok(Value::Int(locks.held_count(ctx)?)))
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(held, Value::Int(0), "all locks released");

    // The cluster actually did meaningful work.
    assert!(
        shared_total > 10,
        "suspiciously little contention work: {shared_total}"
    );
    assert!(
        nudges_handled.load(Ordering::Relaxed) > 10,
        "suspiciously few events handled"
    );

    assert_delivery_ledger_balances(&cluster);
}

#[test]
fn soak_with_hard_termination_releases_everything() {
    // Same churn, but instead of a cooperative stop the whole group is
    // terminated mid-flight (QUIT). Afterwards: no orphans and no held
    // locks — even for threads killed inside their critical sections.
    let seed = base_seed();
    let _report = SeedReport(seed);
    let cluster = Cluster::new(4);
    let facility = EventFacility::install(&cluster);
    facility.register_event("NUDGE");
    let locks = LockManager::create(&cluster, NodeId(2)).unwrap();
    cluster.register_class(
        "cell2",
        ClassBuilder::new("cell2")
            .entry("incr", |ctx, _| {
                ctx.with_state(|s| {
                    let n = s.get("n").and_then(Value::as_int).unwrap_or(0);
                    s.set("n", n + 1);
                    Value::Int(n + 1)
                })
            })
            .build(),
    );
    let shared = cluster
        .create_object(ObjectConfig::new("cell2", NodeId(0)).with_state(Value::map()))
        .unwrap();
    let group = cluster.create_group();
    let mut handles = Vec::new();
    for w in 0..12usize {
        let opts = SpawnOptions {
            group: Some(group),
            ..Default::default()
        };
        handles.push(
            cluster
                .spawn_fn_with(w % 4, opts, move |ctx| {
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xBAD + w as u64));
                    loop {
                        let lock = locks.acquire(ctx, "hot")?;
                        ctx.invoke(shared, "incr", Value::Null)?;
                        ctx.compute(rng.gen_range(100..2_000))?;
                        locks.release(ctx, lock)?;
                        ctx.sleep(Duration::from_millis(1))?;
                    }
                })
                .unwrap(),
        );
    }
    std::thread::sleep(Duration::from_millis(800));
    // Kill everyone mid-flight. Fast-moving threads can evade a single
    // QUIT wave (the §7.1 race), so the kernel helper re-raises until the
    // group drains.
    assert!(
        cluster.terminate_group(group, Duration::from_secs(20)),
        "group failed to drain"
    );
    for h in handles {
        let r = h.join_timeout(Duration::from_secs(15)).expect("terminated");
        assert!(matches!(r, Err(KernelError::Terminated)), "{r:?}");
    }
    assert!(cluster.await_quiescence(Duration::from_secs(10)), "orphans");
    // The hot lock must be free again: threads killed inside the critical
    // section were cleaned up by their chained unlock handlers.
    let held = cluster
        .spawn_fn(1, move |ctx| Ok(Value::Int(locks.held_count(ctx)?)))
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(held, Value::Int(0), "no lock leaked through the kill");
    assert_delivery_ledger_balances(&cluster);
}
