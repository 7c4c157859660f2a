//! Overload-control integration tests: bounded priority mailboxes under
//! saturation (ROADMAP item 5, the E13 companion suite).
//!
//! Contracts under test:
//!
//! * **Control preemption** — a TIMER flood of 10⁴ raises never delays a
//!   concurrent TERMINATE past its deadline: the control lane is
//!   unbounded, unsheddable, and pops first at every delivery point.
//! * **Typed shedding** — a raise refused by a full lane resolves as
//!   `DeliveryStatus::Overloaded` in the raise summary and the
//!   `delivery.overloaded` counter. Nothing is silently dropped.
//! * **Backpressure** — an `Overloaded` receipt marks the peer pressured;
//!   while the hold lasts, sheddable raises toward it shed *at the
//!   source* (no wire traffic), while control raises still go through.
//! * **Ledger under chaos** — with deliberately tiny lane bounds and
//!   flooding workers, the five-term delivery ledger
//!   (requested = delivered + dead + timeout + lost + overloaded)
//!   balances on every seed, with real shedding observed.
//!
//! Seeds derive from `DOCT_SEED` (soak.rs convention) so failures replay.

use doct::prelude::*;
use doct_events::EventFacility;
use doct_kernel::{ClusterBuilder, KernelConfig, MailboxConfig, SpawnOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Base seed for the chaos rounds: `DOCT_SEED` if set, else fixed.
fn base_seed() -> u64 {
    match std::env::var("DOCT_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("DOCT_SEED must be a u64, got {s:?}")),
        Err(_) => 0x0E13_5EED,
    }
}

fn counter(cluster: &Cluster, name: &str) -> u64 {
    cluster
        .telemetry()
        .metrics()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Five-term ledger: every tracked raise resolved, sheds included.
fn assert_ledger_balances(cluster: &Cluster) {
    let ledger = cluster.ledger();
    assert!(ledger.balanced(), "ledger out of balance: {ledger}");
}

#[test]
fn timer_flood_never_delays_terminate_past_deadline() {
    // A small TIMER lane so the 10⁴-raise flood genuinely saturates it.
    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig::default().with_mailbox(MailboxConfig {
            timer_capacity: 64,
            ..MailboxConfig::default()
        }))
        .build();

    // The victim spins without touching a delivery point while the flood
    // lands (so its mailbox fills and sheds), then starts draining.
    let draining = Arc::new(AtomicBool::new(false));
    let d = Arc::clone(&draining);
    let victim = cluster
        .spawn_fn(0, move |ctx| {
            while !d.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            loop {
                ctx.compute(100)?;
                ctx.poll_events()?;
            }
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));

    for _ in 0..10_000 {
        cluster
            .raise_from(0, SystemEvent::Timer, Value::Null, victim.thread())
            .detach();
    }
    assert!(
        counter(&cluster, "kernel.shed_total") > 0,
        "10^4 raises against a 64-slot lane must shed"
    );
    assert!(
        counter(&cluster, "kernel.shed_timer") > 0,
        "the sheds must be attributed to the TIMER lane"
    );

    // Let the victim start chewing through the backlog, then kill it. The
    // TERMINATE must preempt every queued timer, not wait behind them.
    draining.store(true, Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(20));
    let summary = cluster
        .raise_from(1, SystemEvent::Terminate, Value::Null, victim.thread())
        .wait();
    assert_eq!(summary.delivered, 1, "control is never shed: {summary:?}");
    assert_eq!(summary.overloaded, 0, "{summary:?}");
    // The bounded join IS the deadline: with ~10⁴ queued timers at 100
    // compute-units each, draining the backlog first would blow well past
    // it — the control lane must preempt for this to return in time.
    let r = victim
        .join_timeout(Duration::from_secs(5))
        .expect("TERMINATE delayed past deadline by the flood");
    assert!(matches!(r, Err(KernelError::Terminated)), "{r:?}");

    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    assert_ledger_balances(&cluster);
}

#[test]
fn shed_raises_resolve_as_typed_overloaded() {
    // Lane bound of one: the first raise is stored, the rest are shed
    // while the victim (which never reaches a delivery point) sits on it.
    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig::default().with_mailbox(MailboxConfig {
            timer_capacity: 1,
            user_capacity: 1,
            ..MailboxConfig::default()
        }))
        .build();
    let stop = Arc::new(AtomicBool::new(false));
    let s = Arc::clone(&stop);
    let victim = cluster
        .spawn_fn(1, move |_ctx| {
            while !s.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Value::Null)
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let mut delivered = 0usize;
    let mut overloaded = 0usize;
    for _ in 0..5 {
        let summary = cluster
            .raise_from(0, SystemEvent::Timer, Value::Null, victim.thread())
            .wait();
        assert_eq!(
            summary.delivered + summary.overloaded,
            1,
            "every raise resolves as exactly one typed outcome: {summary:?}"
        );
        assert!(
            !summary.all_delivered() || summary.overloaded == 0,
            "an Overloaded summary must not claim full delivery: {summary:?}"
        );
        delivered += summary.delivered;
        overloaded += summary.overloaded;
    }
    assert_eq!(delivered, 1, "the single lane slot admits exactly one");
    assert_eq!(overloaded, 4, "the rest must be typed Overloaded, not lost");
    assert_eq!(counter(&cluster, "delivery.overloaded"), 4);
    assert!(counter(&cluster, "kernel.shed_total") >= 1);

    stop.store(true, Ordering::Relaxed);
    let _ = victim.join_timeout(Duration::from_secs(5));
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    assert_ledger_balances(&cluster);
}

#[test]
fn backpressure_sheds_at_the_source_but_control_passes() {
    let cluster = ClusterBuilder::new(2).build();
    let victim = cluster
        .spawn_fn(1, |ctx| loop {
            ctx.sleep(Duration::from_millis(2))?;
            ctx.poll_events()?;
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // First raise delivers normally and seeds node 0's location hint for
    // the victim — the pressured fast-path consults that hint.
    let summary = cluster
        .raise_from(0, SystemEvent::Timer, Value::Null, victim.thread())
        .wait();
    assert_eq!(summary.delivered, 1, "{summary:?}");

    // Simulate the Overloaded-receipt signal: node 1 is pressured. A
    // sheddable raise toward it now sheds at the source — typed, no wire.
    cluster
        .net()
        .note_backpressure(NodeId(1), Duration::from_secs(30));
    let summary = cluster
        .raise_from(0, SystemEvent::Timer, Value::Null, victim.thread())
        .wait();
    assert_eq!(summary.overloaded, 1, "{summary:?}");
    assert_eq!(summary.delivered, 0, "{summary:?}");
    assert!(
        counter(&cluster, "kernel.shed_at_source") >= 1,
        "the shed must happen on the raising node"
    );

    // Control traffic ignores the pressure: TERMINATE still goes through.
    let summary = cluster
        .raise_from(0, SystemEvent::Terminate, Value::Null, victim.thread())
        .wait();
    assert_eq!(
        summary.delivered, 1,
        "control must pass a pressured link: {summary:?}"
    );
    let r = victim
        .join_timeout(Duration::from_secs(10))
        .expect("victim must terminate");
    assert!(matches!(r, Err(KernelError::Terminated)), "{r:?}");

    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    assert_ledger_balances(&cluster);
}

/// One chaos round: flooding workers plus never-draining sinks under tiny
/// lane bounds. Returns with the ledger checked and shedding confirmed.
fn chaos_round(seed: u64) {
    const NODES: usize = 3;
    const WORKERS: usize = 6;
    let cluster = ClusterBuilder::new(NODES)
        .config(KernelConfig::default().with_mailbox(MailboxConfig {
            timer_capacity: 2,
            user_capacity: 2,
            ..MailboxConfig::default()
        }))
        .build();
    let facility = EventFacility::install(&cluster);
    facility.register_event("NUDGE");
    let stop = Arc::new(AtomicBool::new(false));
    let nudges = Arc::new(AtomicU64::new(0));

    // One sink per node: spins without delivery points, so raises at it
    // queue until the tiny lanes fill, then shed.
    let sinks: Vec<_> = (0..NODES)
        .map(|n| {
            let s = Arc::clone(&stop);
            cluster
                .spawn_fn(n, move |_ctx| {
                    while !s.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(Value::Null)
                })
                .unwrap()
        })
        .collect();
    let sink_threads: Vec<ThreadId> = sinks.iter().map(|h| h.thread()).collect();

    let group = cluster.create_group();
    let mut workers = Vec::new();
    for w in 0..WORKERS {
        let stop = Arc::clone(&stop);
        let nudges = Arc::clone(&nudges);
        let sink_threads = sink_threads.clone();
        let opts = SpawnOptions {
            group: Some(group),
            ..Default::default()
        };
        workers.push(
            cluster
                .spawn_fn_with(w % NODES, opts, move |ctx| {
                    let n = Arc::clone(&nudges);
                    ctx.attach_handler(
                        "NUDGE",
                        doct_events::AttachSpec::proc("nudge", move |_c, _b| {
                            n.fetch_add(1, Ordering::Relaxed);
                            doct_events::HandlerDecision::Resume(Value::Null)
                        }),
                    );
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(w as u64));
                    let mut siblings: Vec<ThreadId> = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        match rng.gen_range(0..4) {
                            0 => {
                                // Burst at a sink: guaranteed saturation.
                                let t = sink_threads[rng.gen_range(0..sink_threads.len())];
                                for _ in 0..8 {
                                    ctx.raise("NUDGE", Value::Null, t).detach();
                                }
                            }
                            1 => {
                                // Nudge a draining sibling: mostly lands.
                                if siblings.is_empty() {
                                    siblings = ctx
                                        .kernel()
                                        .groups()
                                        .members(ctx.attributes().group.expect("in group"));
                                }
                                if let Some(&t) = siblings.get(rng.gen_range(0..siblings.len())) {
                                    ctx.raise("NUDGE", Value::Null, t).detach();
                                }
                            }
                            2 => {
                                let t = sink_threads[rng.gen_range(0..sink_threads.len())];
                                ctx.raise(SystemEvent::Timer, Value::Null, t).detach();
                            }
                            _ => ctx.compute(rng.gen_range(100..2_000))?,
                        }
                        ctx.poll_events()?;
                    }
                    Ok(Value::Null)
                })
                .unwrap(),
        );
    }

    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    for h in workers {
        match h.join_timeout(Duration::from_secs(15)) {
            Some(Ok(_)) => {}
            Some(Err(e)) => panic!("seed {seed}: worker failed: {e}"),
            None => panic!("seed {seed}: worker hung"),
        }
    }
    for h in sinks {
        assert!(h.join_timeout(Duration::from_secs(15)).is_some());
    }
    assert!(
        cluster.await_quiescence(Duration::from_secs(10)),
        "seed {seed}: orphans"
    );

    // The workers' last detached raises chase siblings that have just
    // exited; they resolve `TargetDead` a few round trips after the last
    // thread is gone (milliseconds on a loaded host). Wait for those — at
    // most 500 × 1 ms, far short of `delivery_timeout` (5 s) — and require
    // that the sweep resolved nothing: a stranded tracker still fails.
    let mut ledger = cluster.ledger();
    for _ in 0..500 {
        if ledger.balanced() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        ledger = cluster.ledger();
    }
    assert_eq!(
        ledger.timeout, 0,
        "seed {seed}: a raise was left to the sweep"
    );
    assert!(ledger.requested > 0, "seed {seed}: no tracked raises");
    assert!(
        counter(&cluster, "kernel.shed_total") > 0,
        "seed {seed}: chaos round shed nothing — bounds not exercised"
    );
    assert!(
        ledger.overloaded > 0,
        "seed {seed}: sheds must surface in the delivery ledger"
    );
    assert!(
        ledger.balanced(),
        "seed {seed}: ledger out of balance: {ledger}"
    );
    assert!(
        nudges.load(Ordering::Relaxed) > 0,
        "seed {seed}: no events actually handled"
    );
}

#[test]
fn ledger_balances_under_three_seed_chaos_with_shedding() {
    let base = base_seed();
    for offset in 0..3 {
        chaos_round(base.wrapping_add(offset));
    }
}
