//! QUIT (§6.3 second phase) must be unmaskable AND still honor §4.2's
//! unlock-on-death guarantee: a thread hard-killed inside its critical
//! section runs its TERMINATE-chained cleanup handlers before dying, so
//! no lock leaks. This is the deterministic core of the race the
//! hard-termination soak exercises statistically: a QUIT landing at any
//! delivery point while a lock is held used to leak it forever.

use doct::prelude::*;
use doct_events::EventFacility;
use doct_kernel::{ClusterBuilder, KernelConfig, RaiseTarget, SpawnOptions};
use doct_net::{FailureConfig, ReliabilityConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn quit_while_holding_a_lock_releases_it() {
    let cluster = Cluster::new(2);
    let _facility = EventFacility::install(&cluster);
    let locks = LockManager::create(&cluster, NodeId(1)).unwrap();
    let h = cluster
        .spawn_fn(0, move |ctx| {
            let _lock = locks.acquire(ctx, "hot")?;
            // Park inside the critical section; the sleep is a delivery
            // point, so the QUIT below lands while the lock is held.
            ctx.sleep(Duration::from_secs(60))?;
            Ok(Value::Null)
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let _ = cluster
        .raise_from(1, SystemEvent::Quit, Value::Null, h.thread())
        .wait();
    let r = h.join_timeout(Duration::from_secs(10)).expect("dead");
    assert!(matches!(r, Err(KernelError::Terminated)), "{r:?}");
    let held = cluster
        .spawn_fn(1, move |ctx| Ok(Value::Int(locks.held_count(ctx)?)))
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(held, Value::Int(0), "QUIT must release held locks");
}

#[test]
fn quit_delivered_mid_batch_runs_cleanup_handlers_exactly_once() {
    // Two co-located group members give the QUIT raise a batched probe
    // wave (one BatchEnvelope). The ack path back to the raiser is cut so
    // the batch is retransmitted — the duplicate batch must be suppressed
    // whole, and each dying thread's TERMINATE-chained cleanup handler
    // must run exactly once, not once per batch copy.
    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig {
            delivery_timeout: Duration::from_secs(5),
            ..KernelConfig::default()
        })
        .reliable_with(
            ReliabilityConfig {
                max_retries: 60,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(20),
                jitter: Duration::from_millis(2),
                tick: Duration::from_millis(2),
                heartbeat_interval: Duration::from_millis(5),
                ..ReliabilityConfig::default()
            },
            FailureConfig {
                suspect_after: Duration::from_millis(500),
                dead_after: Duration::from_secs(10),
            },
        )
        .build();
    let _facility = EventFacility::install(&cluster);
    let cleanups = Arc::new(AtomicUsize::new(0));
    let group = cluster.create_group();
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let cleanups = Arc::clone(&cleanups);
            let opts = SpawnOptions {
                group: Some(group),
                ..Default::default()
            };
            cluster
                .spawn_fn_with(1, opts, move |ctx| {
                    use doct_events::{AttachSpec, CtxEvents, HandlerDecision};
                    let cleanups = Arc::clone(&cleanups);
                    ctx.attach_cleanup_handler(
                        SystemEvent::Terminate,
                        AttachSpec::proc("count-cleanup", move |_c, _b| {
                            cleanups.fetch_add(1, Ordering::SeqCst);
                            HandlerDecision::Resume(Value::Null)
                        }),
                    );
                    loop {
                        ctx.sleep(Duration::from_millis(5))?;
                    }
                })
                .unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    // Lose acks and receipts on the reverse path so the QUIT batch is
    // retransmitted while the targets are already dying.
    cluster
        .net()
        .set_link_one_way(NodeId(1), NodeId(0), false)
        .unwrap();
    let ticket = cluster.raise_from(0, SystemEvent::Quit, Value::Null, RaiseTarget::Group(group));
    std::thread::sleep(Duration::from_millis(150));
    cluster
        .net()
        .set_link_one_way(NodeId(1), NodeId(0), true)
        .unwrap();
    let _ = ticket.wait();

    for h in handles {
        let r = h.join_timeout(Duration::from_secs(10)).expect("dead");
        assert!(matches!(r, Err(KernelError::Terminated)), "{r:?}");
    }
    assert!(
        cluster.net().stats().dup_drops.get() > 0,
        "the unacked QUIT batch must have been retransmitted and suppressed"
    );
    // Give any wrong replay machinery time to double-run before counting.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        cleanups.load(Ordering::SeqCst),
        2,
        "each thread's cleanup handler must run exactly once"
    );
}

#[test]
fn quit_mid_batch_recycles_pool_chunks_and_keeps_the_ledger_balanced() {
    // Pool-recycle correctness under QUIT mid-batch (DESIGN.md §3g): warm
    // group raises churn chunk buffers through the reliability pool, then
    // a QUIT batch is forced into retransmission while its targets die.
    // The recycled chunks must never corrupt the inflight QUIT batch
    // (every thread still dies exactly once) and at quiescence the
    // delivery ledger must balance — no raise silently lost to a stale or
    // aliased buffer.
    const MEMBERS: usize = 4;
    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig {
            delivery_timeout: Duration::from_secs(5),
            ..KernelConfig::default()
        })
        .reliable_with(
            ReliabilityConfig {
                max_retries: 60,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(20),
                jitter: Duration::from_millis(2),
                tick: Duration::from_millis(2),
                heartbeat_interval: Duration::from_millis(5),
                ..ReliabilityConfig::default()
            },
            FailureConfig {
                suspect_after: Duration::from_millis(500),
                dead_after: Duration::from_secs(10),
            },
        )
        .build();
    let _facility = EventFacility::install(&cluster);
    let group = cluster.create_group();
    let handles: Vec<_> = (0..MEMBERS)
        .map(|_| {
            let opts = SpawnOptions {
                group: Some(group),
                ..Default::default()
            };
            cluster
                .spawn_fn_with(1, opts, move |ctx| loop {
                    ctx.sleep(Duration::from_millis(5))?;
                })
                .unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    // Warm raises with a shared Bytes payload: the batched probe waves
    // take chunk buffers from the pool and recycle them on ACK-retire.
    let payload = Value::from(doct_kernel::Bytes::from_vec(vec![0xC3u8; 2048]));
    for _ in 0..8 {
        let summary = cluster
            .raise_from(
                0,
                SystemEvent::Timer,
                payload.clone(),
                RaiseTarget::Group(group),
            )
            .wait();
        assert_eq!(summary.delivered, MEMBERS, "warm raise: {summary:?}");
    }
    let warm = cluster.net().stats().snapshot();
    assert!(
        warm.get("pool_recycled") > 0 && warm.get("pool_hits") > 0,
        "warm batched raises must churn the chunk pool \
         (hits {}, recycled {})",
        warm.get("pool_hits"),
        warm.get("pool_recycled")
    );

    // Cut the ack path so the QUIT batch retransmits mid-death, then heal.
    cluster
        .net()
        .set_link_one_way(NodeId(1), NodeId(0), false)
        .unwrap();
    let ticket = cluster.raise_from(0, SystemEvent::Quit, Value::Null, RaiseTarget::Group(group));
    std::thread::sleep(Duration::from_millis(150));
    cluster
        .net()
        .set_link_one_way(NodeId(1), NodeId(0), true)
        .unwrap();
    let _ = ticket.wait();

    for h in handles {
        let r = h.join_timeout(Duration::from_secs(10)).expect("dead");
        assert!(matches!(r, Err(KernelError::Terminated)), "{r:?}");
    }
    assert!(
        cluster.net().stats().dup_drops.get() > 0,
        "the unacked QUIT batch must have been retransmitted and suppressed"
    );

    // Quiescence: every tracked raise accounted for, none lost to a
    // recycled buffer.
    std::thread::sleep(Duration::from_millis(300));
    let ledger = cluster.ledger();
    assert!(ledger.requested > 0, "no tracked raises recorded");
    assert!(
        ledger.balanced(),
        "delivery ledger out of balance after QUIT mid-batch: {ledger}"
    );
}

#[test]
fn quit_cannot_be_masked_by_a_resume_handler() {
    // A TERMINATE handler that Resumes can rescue the thread from
    // TERMINATE — but on QUIT it runs for side effects only and the
    // thread dies regardless.
    let cluster = Cluster::new(1);
    let _facility = EventFacility::install(&cluster);
    let h = cluster
        .spawn_fn(0, move |ctx| {
            use doct_events::{AttachSpec, CtxEvents, HandlerDecision};
            ctx.attach_handler(
                SystemEvent::Terminate,
                AttachSpec::proc("shield", |_c, _b| HandlerDecision::Resume(Value::Null)),
            );
            loop {
                ctx.sleep(Duration::from_millis(5))?;
            }
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let _ = cluster
        .raise_from(0, SystemEvent::Quit, Value::Null, h.thread())
        .wait();
    let r = h.join_timeout(Duration::from_secs(10)).expect("dead");
    assert!(matches!(r, Err(KernelError::Terminated)), "{r:?}");
}
