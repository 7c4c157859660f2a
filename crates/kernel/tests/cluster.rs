//! Integration tests for the DO/CT kernel: invocations (RPC and DSM),
//! thread attributes, TCB trails, event routing with every locator,
//! groups, timers, and termination via the default dispatcher.

use doct_kernel::{
    ClassBuilder, Cluster, ClusterBuilder, InvocationMode, KernelConfig, KernelError,
    LocatorStrategy, ObjectConfig, RaiseTarget, SpawnOptions, SystemEvent, Value,
};
use doct_net::{MessageClass, NodeId};
use std::time::Duration;

/// A class whose `chain` entry invokes the next object in a list,
/// building a cross-node invocation chain; `depth` reports how deep the
/// frame is; `where` reports the executing node.
fn register_chain_class(cluster: &Cluster) {
    cluster.register_class(
        "chain",
        ClassBuilder::new("chain")
            .entry("chain", |ctx, args| {
                let list = args.as_list().unwrap_or(&[]).to_vec();
                match list.split_first() {
                    None => Ok(Value::Int(ctx.node_id().0 as i64)),
                    Some((head, rest)) => {
                        let next = doct_kernel::ObjectId(head.as_int().unwrap() as u64);
                        ctx.invoke(next, "chain", Value::List(rest.to_vec()))
                    }
                }
            })
            .entry("where", |ctx, _| Ok(Value::Int(ctx.node_id().0 as i64)))
            .entry("depth", |ctx, _| Ok(Value::Int(ctx.current_depth() as i64)))
            .entry("sleepy", |ctx, args| {
                let ms = args.as_int().unwrap_or(100) as u64;
                ctx.sleep(Duration::from_millis(ms))?;
                Ok(Value::Str("woke".into()))
            })
            .build(),
    );
    cluster.register_class(
        "counter",
        ClassBuilder::new("counter")
            .entry("bump", |ctx, _| {
                ctx.with_state(|s| {
                    let n = s.get("n").and_then(Value::as_int).unwrap_or(0);
                    s.set("n", n + 1);
                    Value::Int(n + 1)
                })
            })
            .entry("get", |ctx, _| {
                Ok(Value::Int(
                    ctx.read_state()?
                        .get("n")
                        .and_then(Value::as_int)
                        .unwrap_or(0),
                ))
            })
            .build(),
    );
}

fn chain_objects(cluster: &Cluster, homes: &[u32]) -> Vec<doct_kernel::ObjectId> {
    homes
        .iter()
        .map(|&h| {
            cluster
                .create_object(ObjectConfig::new("chain", NodeId(h)))
                .unwrap()
        })
        .collect()
}

#[test]
fn local_invocation_round_trip() {
    let cluster = Cluster::new(1);
    register_chain_class(&cluster);
    let obj = chain_objects(&cluster, &[0])[0];
    let r = cluster.spawn(0, obj, "where", Value::Null).unwrap().join();
    assert_eq!(r.unwrap(), Value::Int(0));
}

#[test]
fn remote_invocation_executes_at_home_node_in_rpc_mode() {
    let cluster = Cluster::new(3);
    register_chain_class(&cluster);
    let obj = chain_objects(&cluster, &[2])[0];
    let r = cluster.spawn(0, obj, "where", Value::Null).unwrap().join();
    assert_eq!(r.unwrap(), Value::Int(2), "RPC: code runs at the home node");
    assert!(cluster.net().stats().sent(MessageClass::Invocation) >= 2);
}

#[test]
fn dsm_mode_executes_at_caller_and_moves_data() {
    let cluster = ClusterBuilder::new(3)
        .config(KernelConfig::with_mode(InvocationMode::Dsm))
        .build();
    register_chain_class(&cluster);
    let obj = chain_objects(&cluster, &[2])[0];
    let r = cluster.spawn(0, obj, "where", Value::Null).unwrap().join();
    assert_eq!(r.unwrap(), Value::Int(0), "DSM: code runs at the caller");
    assert_eq!(cluster.net().stats().sent(MessageClass::Invocation), 0);
}

#[test]
fn dsm_mode_state_faults_across() {
    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig::with_mode(InvocationMode::Dsm))
        .build();
    register_chain_class(&cluster);
    let obj = cluster
        .create_object(ObjectConfig::new("counter", NodeId(1)))
        .unwrap();
    let r = cluster.spawn(0, obj, "bump", Value::Null).unwrap().join();
    assert_eq!(r.unwrap(), Value::Int(1));
    assert!(
        cluster.net().stats().sent(MessageClass::Dsm) > 0,
        "state pages must travel"
    );
    // State is coherent: a second bump from the home node sees n=1.
    let r = cluster.spawn(1, obj, "bump", Value::Null).unwrap().join();
    assert_eq!(r.unwrap(), Value::Int(2));
}

#[test]
fn invocation_chain_across_nodes() {
    let cluster = Cluster::new(4);
    register_chain_class(&cluster);
    let objs = chain_objects(&cluster, &[1, 2, 3]);
    let args = Value::List(objs[1..].iter().map(|o| Value::Int(o.0 as i64)).collect());
    let r = cluster.spawn(0, objs[0], "chain", args).unwrap().join();
    assert_eq!(r.unwrap(), Value::Int(3), "tail of the chain runs on n3");
}

#[test]
fn state_round_trip_and_persistence() {
    let cluster = Cluster::new(2);
    register_chain_class(&cluster);
    let obj = cluster
        .create_object(ObjectConfig::new("counter", NodeId(1)))
        .unwrap();
    for expected in 1..=5i64 {
        let r = cluster.spawn(0, obj, "bump", Value::Null).unwrap().join();
        assert_eq!(r.unwrap(), Value::Int(expected));
    }
    // The object is passive between invocations; state persisted.
    let r = cluster.spawn(1, obj, "get", Value::Null).unwrap().join();
    assert_eq!(r.unwrap(), Value::Int(5));
}

#[test]
fn unknown_object_and_entry_errors() {
    let cluster = Cluster::new(1);
    register_chain_class(&cluster);
    let obj = chain_objects(&cluster, &[0])[0];
    let r = cluster.spawn(0, obj, "nope", Value::Null).unwrap().join();
    assert!(matches!(r, Err(KernelError::UnknownEntry { .. })), "{r:?}");
    let bogus = doct_kernel::ObjectId::new(NodeId(0), 999);
    let r = cluster.spawn(0, bogus, "x", Value::Null).unwrap().join();
    assert!(matches!(r, Err(KernelError::UnknownObject(_))), "{r:?}");
}

#[test]
fn panic_in_entry_is_contained() {
    let cluster = Cluster::new(1);
    cluster.register_class(
        "bomb",
        ClassBuilder::new("bomb")
            .entry("explode", |_ctx, _| panic!("boom"))
            .build(),
    );
    let obj = cluster
        .create_object(ObjectConfig::new("bomb", NodeId(0)))
        .unwrap();
    let r = cluster
        .spawn(0, obj, "explode", Value::Null)
        .unwrap()
        .join();
    match r {
        Err(KernelError::InvocationFailed(msg)) => assert!(msg.contains("boom"), "{msg}"),
        other => panic!("expected contained panic, got {other:?}"),
    }
}

#[test]
fn io_follows_the_thread_across_objects() {
    let cluster = Cluster::new(3);
    cluster.register_class(
        "printer",
        ClassBuilder::new("printer")
            .entry("print", |ctx, args| {
                ctx.emit(format!("from n{}: {}", ctx.node_id().0, args));
                Ok(Value::Null)
            })
            .build(),
    );
    let far = cluster
        .create_object(ObjectConfig::new("printer", NodeId(2)))
        .unwrap();
    let opts = SpawnOptions {
        io_channel: Some("tty7".into()),
        ..Default::default()
    };
    cluster
        .spawn_with(0, opts, far, "print", "hello")
        .unwrap()
        .join()
        .unwrap();
    let lines = cluster.io().lines("tty7");
    assert_eq!(lines, vec!["from n2: \"hello\""]);
}

#[test]
fn terminate_event_unwinds_a_sleeping_thread() {
    let cluster = Cluster::new(2);
    register_chain_class(&cluster);
    let obj = chain_objects(&cluster, &[1])[0];
    let handle = cluster.spawn(0, obj, "sleepy", Value::Int(30_000)).unwrap();
    let thread = handle.thread();
    std::thread::sleep(Duration::from_millis(50));
    let ticket = cluster.raise_from(0, SystemEvent::Terminate, Value::Null, thread);
    let summary = ticket.wait();
    assert_eq!(summary.delivered, 1, "{summary:?}");
    let r = handle
        .join_timeout(Duration::from_secs(5))
        .expect("unwound");
    assert!(matches!(r, Err(KernelError::Terminated)), "{r:?}");
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
}

#[test]
fn terminate_unwinds_across_the_whole_invocation_chain() {
    let cluster = Cluster::new(4);
    register_chain_class(&cluster);
    cluster.register_class(
        "deep",
        ClassBuilder::new("deep")
            .entry("go", |ctx, args| {
                let list = args.as_list().unwrap_or(&[]).to_vec();
                match list.split_first() {
                    None => {
                        ctx.sleep(Duration::from_secs(30))?;
                        Ok(Value::Null)
                    }
                    Some((head, rest)) => {
                        let next = doct_kernel::ObjectId(head.as_int().unwrap() as u64);
                        ctx.invoke(next, "go", Value::List(rest.to_vec()))
                    }
                }
            })
            .build(),
    );
    let objs: Vec<_> = (0..4)
        .map(|h| {
            cluster
                .create_object(ObjectConfig::new("deep", NodeId(h)))
                .unwrap()
        })
        .collect();
    let args = Value::List(objs[1..].iter().map(|o| Value::Int(o.0 as i64)).collect());
    let handle = cluster.spawn(0, objs[0], "go", args).unwrap();
    let thread = handle.thread();
    std::thread::sleep(Duration::from_millis(100));
    // The tip sleeps on node 3; TERMINATE must chase it there (PathTrace)
    // and the unwind must propagate back through nodes 2, 1, 0.
    let _ = cluster
        .raise_from(0, SystemEvent::Terminate, Value::Null, thread)
        .wait();
    let r = handle
        .join_timeout(Duration::from_secs(5))
        .expect("unwound");
    assert!(matches!(r, Err(KernelError::Terminated)), "{r:?}");
    assert!(
        cluster.await_quiescence(Duration::from_secs(5)),
        "no orphans"
    );
}

fn locator_cluster(strategy: LocatorStrategy) -> Cluster {
    ClusterBuilder::new(4)
        .config(KernelConfig::with_locator(strategy))
        .build()
}

#[test]
fn all_locators_find_a_thread_mid_chain() {
    for strategy in [
        LocatorStrategy::Broadcast,
        LocatorStrategy::PathTrace,
        LocatorStrategy::Multicast,
    ] {
        let cluster = locator_cluster(strategy);
        register_chain_class(&cluster);
        let objs = chain_objects(&cluster, &[1, 2, 3]);
        cluster.register_class(
            "deep2",
            ClassBuilder::new("deep2")
                .entry("go", |ctx, args| {
                    let list = args.as_list().unwrap_or(&[]).to_vec();
                    match list.split_first() {
                        None => {
                            ctx.sleep(Duration::from_secs(30))?;
                            Ok(Value::Null)
                        }
                        Some((head, rest)) => {
                            let next = doct_kernel::ObjectId(head.as_int().unwrap() as u64);
                            ctx.invoke(next, "go", Value::List(rest.to_vec()))
                        }
                    }
                })
                .build(),
        );
        let deep: Vec<_> = [1u32, 2, 3]
            .iter()
            .map(|&h| {
                cluster
                    .create_object(ObjectConfig::new("deep2", NodeId(h)))
                    .unwrap()
            })
            .collect();
        let _ = objs;
        let args = Value::List(deep[1..].iter().map(|o| Value::Int(o.0 as i64)).collect());
        let handle = cluster.spawn(0, deep[0], "go", args).unwrap();
        let thread = handle.thread();
        std::thread::sleep(Duration::from_millis(100));
        let summary = cluster
            .raise_from(0, SystemEvent::Terminate, Value::Null, thread)
            .wait();
        assert_eq!(summary.delivered, 1, "{strategy:?}: {summary:?}");
        assert_eq!(
            summary.nodes,
            vec![NodeId(3)],
            "{strategy:?} must find the tip on n3"
        );
        let r = handle
            .join_timeout(Duration::from_secs(5))
            .expect("unwound");
        assert!(
            matches!(r, Err(KernelError::Terminated)),
            "{strategy:?}: {r:?}"
        );
    }
}

#[test]
fn dead_thread_notifies_the_raiser() {
    for strategy in [
        LocatorStrategy::Broadcast,
        LocatorStrategy::PathTrace,
        LocatorStrategy::Multicast,
    ] {
        let cluster = locator_cluster(strategy);
        register_chain_class(&cluster);
        let obj = chain_objects(&cluster, &[1])[0];
        let handle = cluster.spawn(0, obj, "where", Value::Null).unwrap();
        let thread = handle.thread();
        handle.join().unwrap();
        cluster.await_quiescence(Duration::from_secs(2));
        let summary = cluster
            .raise_from(2, SystemEvent::Timer, Value::Null, thread)
            .wait();
        assert_eq!(summary.dead, 1, "{strategy:?}: {summary:?}");
        assert_eq!(summary.delivered, 0, "{strategy:?}");
    }
}

#[test]
fn broadcast_costs_scale_with_cluster_size() {
    let cluster = locator_cluster(LocatorStrategy::Broadcast);
    register_chain_class(&cluster);
    let obj = chain_objects(&cluster, &[1])[0];
    let handle = cluster.spawn(1, obj, "sleepy", Value::Int(5_000)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let before = cluster.net().stats().snapshot();
    let _ = cluster
        .raise_from(2, SystemEvent::Timer, Value::Null, handle.thread())
        .wait();
    let delta = before.delta(&cluster.net().stats().snapshot());
    // 3 probes out + receipts back: strictly more than PathTrace would use.
    assert!(
        delta.sent(MessageClass::Locate) >= 4,
        "broadcast locate traffic: {delta}"
    );
    let _ = cluster
        .raise_from(0, SystemEvent::Terminate, Value::Null, handle.thread())
        .wait();
    let _ = handle.join_timeout(Duration::from_secs(5));
}

#[test]
fn group_raise_reaches_every_member() {
    let cluster = Cluster::new(3);
    register_chain_class(&cluster);
    let group = cluster.create_group();
    let objs = chain_objects(&cluster, &[0, 1, 2]);
    let mut handles = Vec::new();
    for (i, &obj) in objs.iter().enumerate() {
        let opts = SpawnOptions {
            group: Some(group),
            ..Default::default()
        };
        handles.push(
            cluster
                .spawn_with(i, opts, obj, "sleepy", Value::Int(30_000))
                .unwrap(),
        );
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(cluster.groups().member_count(group), 3);
    let summary = cluster
        .raise_from(
            0,
            SystemEvent::Terminate,
            Value::Null,
            RaiseTarget::Group(group),
        )
        .wait();
    assert_eq!(summary.delivered, 3, "{summary:?}");
    for h in handles {
        let r = h.join_timeout(Duration::from_secs(5)).expect("terminated");
        assert!(matches!(r, Err(KernelError::Terminated)));
    }
    assert!(cluster.await_quiescence(Duration::from_secs(5)));
    assert_eq!(
        cluster.groups().member_count(group),
        0,
        "members left on exit"
    );
}

#[test]
fn async_invocations_inherit_group_and_attributes() {
    let cluster = Cluster::new(2);
    register_chain_class(&cluster);
    let group = cluster.create_group();
    let far = chain_objects(&cluster, &[1])[0];
    let opts = SpawnOptions {
        group: Some(group),
        io_channel: Some("console".into()),
        ..Default::default()
    };
    let handle = cluster
        .spawn_fn_with(0, opts, move |ctx| {
            let child = ctx.invoke_async(far, "where", Value::Null);
            // Child inherits group + io channel.
            let result = child.claim()?;
            ctx.emit(format!("child says {result}"));
            Ok(result)
        })
        .unwrap();
    assert_eq!(handle.join().unwrap(), Value::Int(1));
    assert_eq!(
        cluster.io().lines("console"),
        vec!["child says 1"],
        "parent io channel works"
    );
}

#[test]
fn raise_and_wait_resumes_via_default_dispatcher() {
    let cluster = Cluster::new(2);
    register_chain_class(&cluster);
    let obj = chain_objects(&cluster, &[1])[0];
    // A thread raises INTERRUPT synchronously at itself: the default
    // dispatcher resumes it with Null.
    let handle = cluster
        .spawn_fn(0, move |ctx| {
            let me = ctx.thread_id();
            let verdict = ctx.raise_and_wait(SystemEvent::Interrupt, Value::Null, me)?;
            assert_eq!(verdict, Value::Null);
            ctx.invoke(obj, "where", Value::Null)
        })
        .unwrap();
    assert_eq!(handle.join().unwrap(), Value::Int(1));
}

#[test]
fn checked_div_without_handler_fails() {
    let cluster = Cluster::new(1);
    let handle = cluster
        .spawn_fn(0, |ctx| {
            assert_eq!(ctx.checked_div(10, 2)?, 5);
            match ctx.checked_div(10, 0) {
                Err(KernelError::InvocationFailed(msg)) => {
                    assert!(msg.contains("division"), "{msg}");
                    Ok(Value::Null)
                }
                other => panic!("expected unrepaired div-zero, got {other:?}"),
            }
        })
        .unwrap();
    handle.join().unwrap();
}

#[test]
fn timers_chase_a_thread() {
    let cluster = Cluster::new(2);
    register_chain_class(&cluster);
    let far = chain_objects(&cluster, &[1])[0];
    // Thread registers a 20ms timer on node 0, then spends its life inside
    // an object on node 1; TIMER events must reach it there. The default
    // dispatcher ignores TIMER, but delivery stats count it.
    let handle = cluster
        .spawn_fn(0, move |ctx| {
            ctx.add_timer(Duration::from_millis(20), "tick");
            ctx.invoke(far, "sleepy", Value::Int(300))
        })
        .unwrap();
    handle.join().unwrap();
    let delivered: u64 = (0..2)
        .map(|i| {
            cluster
                .kernel(i)
                .stats()
                .thread_events
                .load(std::sync::atomic::Ordering::Relaxed)
        })
        .sum();
    assert!(
        delivered >= 2,
        "expected several TIMER deliveries, got {delivered}"
    );
}

#[test]
fn timer_cancelled_at_a_remote_tip_stops_firing() {
    let cluster = Cluster::new(2);
    cluster.register_class(
        "canceller",
        ClassBuilder::new("canceller")
            .entry("cancel", |ctx, args| {
                ctx.cancel_timer(args.as_int().unwrap() as u64);
                Ok(Value::Int(ctx.node_id().0 as i64))
            })
            .build(),
    );
    let far = cluster
        .create_object(ObjectConfig::new("canceller", NodeId(1)))
        .unwrap();
    let kernels = [cluster.kernel(0).clone(), cluster.kernel(1).clone()];
    let timer_events =
        move || -> u64 { kernels.iter().map(|k| k.stats().thread_events.get()).sum() };
    // The thread's root is node 0; it cancels from node 1, so the Cancel
    // crosses the fabric back to the root.
    let handle = cluster
        .spawn_fn(0, move |ctx| {
            let id = ctx.add_timer(Duration::from_millis(10), "tick");
            ctx.sleep(Duration::from_millis(50))?;
            assert_eq!(
                ctx.invoke(far, "cancel", Value::Int(id as i64))?,
                Value::Int(1)
            );
            ctx.sleep(Duration::from_millis(30))?;
            let before = timer_events();
            assert!(before >= 2, "the timer fired {before} times before cancel");
            ctx.sleep(Duration::from_millis(100))?;
            assert_eq!(timer_events(), before, "no TIMER after a remote cancel");
            Ok(Value::Null)
        })
        .unwrap();
    handle.join().unwrap();
}

#[test]
fn raise_to_unknown_object_reports_dead() {
    let cluster = Cluster::new(1);
    let bogus = doct_kernel::ObjectId::new(NodeId(0), 42);
    let summary = cluster
        .raise_from(0, SystemEvent::Delete, Value::Null, bogus)
        .wait();
    assert_eq!(summary.dead, 1);
}

#[test]
fn value_arguments_round_trip_through_remote_invocation() {
    let cluster = Cluster::new(2);
    cluster.register_class(
        "echo",
        ClassBuilder::new("echo")
            .entry("echo", |_ctx, args| Ok(args))
            .build(),
    );
    let obj = cluster
        .create_object(ObjectConfig::new("echo", NodeId(1)))
        .unwrap();
    let mut payload = Value::map();
    payload.set(
        "list",
        Value::List(vec![Value::Int(1), Value::Str("two".into())]),
    );
    payload.set("blob", vec![9u8; 300]);
    let r = cluster
        .spawn(0, obj, "echo", payload.clone())
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(r, payload);
}

#[test]
fn one_shot_alarm_fires_once() {
    let cluster = Cluster::new(2);
    register_chain_class(&cluster);
    let far = chain_objects(&cluster, &[1])[0];
    // Register a 30ms alarm, then work remotely; the ALARM must chase the
    // thread and fire exactly once (default dispatcher ignores it, but
    // delivery stats count it).
    let handle = cluster
        .spawn_fn(0, move |ctx| {
            ctx.set_alarm(Duration::from_millis(30), "wake");
            ctx.invoke(far, "sleepy", Value::Int(300))
        })
        .unwrap();
    handle.join().unwrap();
    let delivered: u64 = (0..2)
        .map(|i| {
            cluster
                .kernel(i)
                .stats()
                .thread_events
                .load(std::sync::atomic::Ordering::Relaxed)
        })
        .sum();
    assert_eq!(delivered, 1, "one-shot alarm fired exactly once");
}

#[test]
fn cancelled_alarm_never_fires() {
    let cluster = Cluster::new(1);
    let handle = cluster
        .spawn_fn(0, |ctx| {
            let id = ctx.set_alarm(Duration::from_millis(50), "wake");
            ctx.cancel_timer(id);
            ctx.sleep(Duration::from_millis(150))?;
            Ok(Value::Null)
        })
        .unwrap();
    handle.join().unwrap();
    let delivered = cluster
        .kernel(0)
        .stats()
        .thread_events
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(delivered, 0, "cancelled alarm must not fire");
}

#[test]
fn exclusive_objects_serialize_concurrent_bumps() {
    // The counter's read-modify-write would lose updates under concurrent
    // invocation; `exclusive()` must serialize them.
    let cluster = Cluster::new(2);
    register_chain_class(&cluster);
    let obj = cluster
        .create_object(
            ObjectConfig::new("counter", NodeId(1))
                .with_state(Value::map())
                .exclusive(),
        )
        .unwrap();
    let mut handles = Vec::new();
    for i in 0..4 {
        let h = cluster
            .spawn_fn(i % 2, move |ctx| {
                for _ in 0..25 {
                    ctx.invoke(obj, "bump", Value::Null)?;
                }
                Ok(Value::Null)
            })
            .unwrap();
        handles.push(h);
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = cluster
        .spawn(0, obj, "get", Value::Null)
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(
        total,
        Value::Int(100),
        "no lost updates on exclusive object"
    );
}

#[test]
fn oversized_state_is_rejected() {
    let cluster = Cluster::new(1);
    cluster.register_class(
        "bloater",
        ClassBuilder::new("bloater")
            .entry("bloat", |ctx, args| {
                let n = args.as_int().unwrap_or(0) as usize;
                ctx.with_state(|s| {
                    s.set("blob", vec![0u8; n]);
                })?;
                Ok(Value::Null)
            })
            .build(),
    );
    let obj = cluster
        .create_object(ObjectConfig::new("bloater", NodeId(0)).with_state_size(1024))
        .unwrap();
    // Fits.
    cluster
        .spawn(0, obj, "bloat", Value::Int(100))
        .unwrap()
        .join()
        .unwrap();
    // Does not fit.
    let r = cluster
        .spawn(0, obj, "bloat", Value::Int(10_000))
        .unwrap()
        .join();
    assert!(matches!(r, Err(KernelError::StateTooLarge { .. })), "{r:?}");
    // State unchanged by the failed write? The failed with_state never
    // wrote; the previous blob is intact.
    let cluster2 = &cluster;
    let _ = cluster2;
}

#[test]
fn create_object_rejects_unknown_class_and_node() {
    let cluster = Cluster::new(1);
    let r = cluster.create_object(ObjectConfig::new("ghost", NodeId(0)));
    assert!(matches!(r, Err(KernelError::UnknownClass(_))), "{r:?}");
    register_chain_class(&cluster);
    let r = cluster.create_object(ObjectConfig::new("chain", NodeId(9)));
    assert!(matches!(r, Err(KernelError::UnknownNode(_))), "{r:?}");
}

#[test]
fn initial_state_too_large_is_rejected_at_creation() {
    let cluster = Cluster::new(1);
    register_chain_class(&cluster);
    let cfg = ObjectConfig::new("counter", NodeId(0))
        .with_state(Value::from(vec![0u8; 4096]))
        .with_state_size(256);
    let r = cluster.create_object(cfg);
    assert!(matches!(r, Err(KernelError::StateTooLarge { .. })), "{r:?}");
}

#[test]
fn cut_link_fails_remote_invocation() {
    let cluster = Cluster::new(2);
    register_chain_class(&cluster);
    let far = chain_objects(&cluster, &[1])[0];
    cluster.net().set_link(NodeId(0), NodeId(1), false).unwrap();
    let r = cluster.spawn(0, far, "where", Value::Null).unwrap().join();
    assert!(matches!(r, Err(KernelError::Timeout(_))), "{r:?}");
    cluster.net().heal();
    let r = cluster.spawn(0, far, "where", Value::Null).unwrap().join();
    assert_eq!(r.unwrap(), Value::Int(1), "healed link works again");
}

#[test]
fn spawn_on_invalid_node_errors() {
    let cluster = Cluster::new(2);
    register_chain_class(&cluster);
    let obj = chain_objects(&cluster, &[0])[0];
    let r = cluster.spawn(7, obj, "where", Value::Null);
    assert!(matches!(r, Err(KernelError::UnknownNode(_))));
}

#[test]
fn group_raise_on_empty_group_delivers_nothing() {
    let cluster = Cluster::new(1);
    let group = cluster.create_group();
    let summary = cluster
        .raise_from(
            0,
            SystemEvent::Timer,
            Value::Null,
            RaiseTarget::Group(group),
        )
        .wait();
    assert_eq!(summary.delivered, 0);
    assert_eq!(summary.dead, 0);
}

#[test]
fn pc_advances_with_compute() {
    let cluster = Cluster::new(1);
    let handle = cluster
        .spawn_fn(0, |ctx| {
            assert_eq!(ctx.pc(), 0);
            ctx.compute(1_000)?;
            assert_eq!(ctx.pc(), 1_000);
            ctx.compute(234)?;
            Ok(Value::Int(ctx.pc() as i64))
        })
        .unwrap();
    assert_eq!(handle.join().unwrap(), Value::Int(1234));
}

#[test]
fn attributes_values_travel_and_return() {
    // Per-thread key/value memory written on a remote node is visible
    // after the thread returns home (attributes ship both ways).
    let cluster = Cluster::new(2);
    cluster.register_class(
        "tagger",
        ClassBuilder::new("tagger")
            .entry("tag", |ctx, args| {
                ctx.with_attributes(|a| {
                    a.values.insert("visited".into(), args.clone());
                });
                Ok(Value::Null)
            })
            .build(),
    );
    let far = cluster
        .create_object(ObjectConfig::new("tagger", NodeId(1)))
        .unwrap();
    let handle = cluster
        .spawn_fn(0, move |ctx| {
            ctx.invoke(far, "tag", "n1-was-here")?;
            Ok(ctx
                .attributes()
                .values
                .get("visited")
                .cloned()
                .unwrap_or(Value::Null))
        })
        .unwrap();
    assert_eq!(handle.join().unwrap(), Value::Str("n1-was-here".into()));
}

#[test]
fn partitioned_delivery_times_out_with_status() {
    use std::time::Duration as D;
    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig {
            delivery_timeout: D::from_millis(300),
            delivery_retries: 1,
            ..KernelConfig::default()
        })
        .build();
    register_chain_class(&cluster);
    let obj = chain_objects(&cluster, &[1])[0];
    let handle = cluster.spawn(0, obj, "sleepy", Value::Int(2_000)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // Cut the cluster in half: the raiser (node 0) cannot reach the tip
    // on node 1, and path-trace probes die on the wire.
    cluster.net().isolate(&[NodeId(1)]).unwrap();
    let summary = cluster
        .raise_from(0, SystemEvent::Timer, Value::Null, handle.thread())
        .wait();
    assert_eq!(summary.delivered, 0, "{summary:?}");
    assert_eq!(
        summary.dead + summary.timed_out,
        1,
        "partition must surface as dead/timeout: {summary:?}"
    );
    cluster.net().heal();
    let _ = handle.join_timeout(Duration::from_secs(10));
}

#[test]
fn delivery_summary_accessors() {
    let cluster = Cluster::new(1);
    register_chain_class(&cluster);
    let obj = chain_objects(&cluster, &[0])[0];
    let handle = cluster.spawn(0, obj, "sleepy", Value::Int(500)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let summary = cluster
        .raise_from(0, SystemEvent::Timer, Value::Null, handle.thread())
        .wait();
    assert!(summary.all_delivered());
    assert_eq!(summary.nodes, vec![NodeId(0)]);
    handle.join().unwrap();
}

#[test]
fn io_hub_collects_per_channel() {
    let cluster = Cluster::new(1);
    cluster.io().emit("a", "1");
    cluster.io().emit("b", "2");
    cluster.io().emit("a", "3");
    assert_eq!(cluster.io().lines("a"), vec!["1", "3"]);
    assert_eq!(cluster.io().lines("b"), vec!["2"]);
    assert!(cluster.io().lines("c").is_empty());
}

#[test]
fn objects_persist_across_cluster_incarnations() {
    // §3.1: objects are persistent. Export images, "reboot" into a fresh
    // cluster, import, and the state (and ids) survive.
    let images = {
        let cluster = Cluster::new(2);
        register_chain_class(&cluster);
        let counter = cluster
            .create_object(ObjectConfig::new("counter", NodeId(1)))
            .unwrap();
        for _ in 0..7 {
            cluster
                .spawn(0, counter, "bump", Value::Null)
                .unwrap()
                .join()
                .unwrap();
        }
        let images = cluster.export_objects().unwrap();
        assert_eq!(images.len(), 1);
        assert_eq!(images[0].id, counter);
        images
    }; // old cluster shut down here

    let cluster = Cluster::new(2);
    register_chain_class(&cluster);
    cluster.import_objects(&images).unwrap();
    let counter = images[0].id;
    // State survived the reboot.
    let n = cluster
        .spawn(0, counter, "get", Value::Null)
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(n, Value::Int(7));
    // The object is live: further invocations work.
    let n = cluster
        .spawn(1, counter, "bump", Value::Null)
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(n, Value::Int(8));
    // New objects do not collide with imported ids.
    let fresh = cluster
        .create_object(ObjectConfig::new("counter", NodeId(1)))
        .unwrap();
    assert_ne!(fresh, counter);
}

#[test]
fn import_rejects_unknown_class() {
    let images = {
        let cluster = Cluster::new(1);
        register_chain_class(&cluster);
        cluster
            .create_object(ObjectConfig::new("counter", NodeId(0)))
            .unwrap();
        cluster.export_objects().unwrap()
    };
    let cluster = Cluster::new(1); // counter class NOT registered
    let r = cluster.import_objects(&images);
    assert!(matches!(r, Err(KernelError::UnknownClass(_))), "{r:?}");
}

#[test]
fn try_claim_is_nonblocking() {
    let cluster = Cluster::new(2);
    register_chain_class(&cluster);
    let far = chain_objects(&cluster, &[1])[0];
    let handle = cluster
        .spawn_fn(0, move |ctx| {
            let child = ctx.invoke_async(far, "sleepy", Value::Int(150));
            assert!(child.try_claim().is_none(), "child still running");
            let r = child.claim()?;
            Ok(r)
        })
        .unwrap();
    assert_eq!(handle.join().unwrap(), Value::Str("woke".into()));
}

#[test]
fn terminate_group_drains_busy_members() {
    let cluster = Cluster::new(3);
    register_chain_class(&cluster);
    let objs = chain_objects(&cluster, &[1, 2]);
    let group = cluster.create_group();
    let mut handles = Vec::new();
    for i in 0..6 {
        let objs = objs.clone();
        let opts = SpawnOptions {
            group: Some(group),
            ..Default::default()
        };
        handles.push(
            cluster
                .spawn_fn_with(i % 3, opts, move |ctx| loop {
                    // Constantly moving between nodes: a single QUIT wave
                    // can miss these.
                    ctx.invoke(objs[0], "where", Value::Null)?;
                    ctx.invoke(objs[1], "where", Value::Null)?;
                })
                .unwrap(),
        );
    }
    std::thread::sleep(Duration::from_millis(100));
    assert!(cluster.terminate_group(group, Duration::from_secs(20)));
    for h in handles {
        let r = h.join_timeout(Duration::from_secs(10)).expect("drained");
        assert!(matches!(r, Err(KernelError::Terminated)), "{r:?}");
    }
    assert!(cluster.await_quiescence(Duration::from_secs(10)));
}

// ---------------------------------------------------------------------
// Reliability layer: acked/retried transport + failure detector wired
// through the kernel's remote paths.
// ---------------------------------------------------------------------

use doct_net::{FailureConfig, ReliabilityConfig};

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

#[test]
fn reliable_invocation_survives_a_transient_partition() {
    // A partition shorter than the retransmit tail must be invisible to
    // the caller: the queued Invoke is retransmitted after heal and the
    // call completes. Use a patient failure detector so the peer is not
    // declared dead while the link is down.
    let cluster = ClusterBuilder::new(2)
        .reliable_with(
            fast_reliability(),
            FailureConfig {
                suspect_after: Duration::from_millis(500),
                dead_after: Duration::from_secs(10),
            },
        )
        .build();
    register_chain_class(&cluster);
    let far = chain_objects(&cluster, &[1])[0];
    cluster.net().set_link(NodeId(0), NodeId(1), false).unwrap();
    let handle = cluster.spawn(0, far, "where", Value::Null).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    cluster.net().heal();
    let r = handle.join_timeout(Duration::from_secs(10)).expect("done");
    assert_eq!(r.unwrap(), Value::Int(1), "retransmit carried the call");
    assert!(cluster.net().stats().retransmits.get() > 0);
    // ACKs are coalesced by the maintenance thread, so the reply can land
    // before the first ACK message goes out — wait briefly instead of
    // sampling the counter at one instant.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while cluster.net().stats().acks.get() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(cluster.net().stats().acks.get() > 0);
}

#[test]
fn detector_fails_remote_invocation_fast_on_dead_peer() {
    // With the failure detector on, a call into a partitioned node fails
    // with NodeUnreachable once the peer is declared dead — far sooner
    // than the 30s invoke timeout.
    let cluster = ClusterBuilder::new(2)
        .reliable_with(
            fast_reliability(),
            FailureConfig {
                suspect_after: Duration::from_millis(40),
                dead_after: Duration::from_millis(120),
            },
        )
        .build();
    register_chain_class(&cluster);
    let far = chain_objects(&cluster, &[1])[0];
    // Let heartbeats establish liveness first.
    std::thread::sleep(Duration::from_millis(50));
    cluster.net().isolate(&[NodeId(1)]).unwrap();
    let start = std::time::Instant::now();
    let r = cluster.spawn(0, far, "where", Value::Null).unwrap().join();
    assert!(
        matches!(r, Err(KernelError::NodeUnreachable(NodeId(1)))),
        "{r:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "detector verdict must beat the invoke timeout ({:?})",
        start.elapsed()
    );
    cluster.net().heal();
}

#[test]
fn detector_resolves_thread_delivery_as_dead_during_partition() {
    // §7.2 dead-target notification under real link failure: an event
    // raised at a thread whose root node is unreachable resolves as
    // TargetDead via the detector instead of burning the full delivery
    // timeout.
    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig {
            delivery_timeout: Duration::from_secs(20),
            ..KernelConfig::default()
        })
        .reliable_with(
            fast_reliability(),
            FailureConfig {
                suspect_after: Duration::from_millis(40),
                dead_after: Duration::from_millis(120),
            },
        )
        .build();
    register_chain_class(&cluster);
    let obj = chain_objects(&cluster, &[1])[0];
    let handle = cluster.spawn(1, obj, "sleepy", Value::Int(2_000)).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    cluster.net().isolate(&[NodeId(1)]).unwrap();
    // Wait out the detector's dead_after so the sweep has a verdict.
    std::thread::sleep(Duration::from_millis(300));
    let start = std::time::Instant::now();
    let summary = cluster
        .raise_from(0, SystemEvent::Timer, Value::Null, handle.thread())
        .wait();
    assert_eq!(summary.delivered, 0, "{summary:?}");
    assert_eq!(
        summary.dead, 1,
        "detector must report TargetDead: {summary:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "resolution must not wait out the 20s delivery timeout"
    );
    cluster.net().heal();
    let _ = handle.join_timeout(Duration::from_secs(10));
}

/// The balance check cannot tell `dead` from `timeout`: a swap still
/// balances. One raise per deterministically reachable outcome, each
/// asserting that `requested` and exactly the named ledger term moved by
/// one and that the ticket's summary says the same. Row order matters:
/// backpressure toward node 1, once noted, sheds every later sheddable
/// raise headed there.
#[test]
fn every_outcome_moves_exactly_its_ledger_term() {
    use doct_kernel::{EventName, LedgerSnapshot, MailboxConfig, ObjectId, RaiseTicket, ThreadId};
    use std::sync::mpsc;

    const DELIVERED: usize = 0;
    const DEAD: usize = 1;
    const TIMEOUT: usize = 2;
    const LOST: usize = 3;
    const OVERLOADED: usize = 4;
    fn terms(l: LedgerSnapshot) -> [u64; 5] {
        [l.delivered, l.dead, l.timeout, l.lost, l.overloaded]
    }

    let cluster = ClusterBuilder::new(2)
        .config(KernelConfig {
            delivery_timeout: Duration::from_secs(1),
            mailbox: MailboxConfig {
                user_capacity: 1,
                backpressure_hold: Duration::from_secs(60),
                ..MailboxConfig::default()
            },
            ..KernelConfig::default()
        })
        .build();
    register_chain_class(&cluster);
    let far_object = chain_objects(&cluster, &[1])[0];
    // A thread parked outside any delivery point: its mailbox only fills.
    let park = |node: usize| {
        let (ready_tx, ready_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let handle = cluster
            .spawn_fn(node, move |_ctx| {
                ready_tx.send(()).unwrap();
                let _ = release_rx.recv();
                Ok(Value::Null)
            })
            .unwrap();
        ready_rx.recv().unwrap();
        (handle, release_tx)
    };
    let (local, release_local) = park(0);
    let (remote, release_remote) = park(1);

    let row = |label: &str, term: usize, raise: &dyn Fn() -> RaiseTicket| {
        let before = cluster.ledger();
        let summary = raise().wait();
        let after = cluster.ledger();
        let mut want = terms(before);
        want[term] += 1;
        assert_eq!(after.requested, before.requested + 1, "{label}");
        assert_eq!(terms(after), want, "{label}: {before} -> {after}");
        let mut once = [0u64; 5];
        once[term] = 1;
        let told = [
            summary.delivered,
            summary.dead,
            summary.timed_out,
            summary.lost,
            summary.overloaded,
        ];
        assert_eq!(told.map(|n| n as u64), once, "{label}: {summary:?}");
    };
    let user = || EventName::user("E");
    let to = |target: RaiseTarget| cluster.raise_from(0, user(), Value::Null, target);
    let shed_at_source = || {
        let counters = cluster.telemetry().metrics().counters;
        counters.get("kernel.shed_at_source").copied().unwrap_or(0)
    };

    row("local tip", DELIVERED, &|| to(local.thread().into()));
    row("local tip, USER lane full", OVERLOADED, &|| {
        to(local.thread().into())
    });
    row("remote thread", DELIVERED, &|| to(remote.thread().into()));
    row("unknown thread", DEAD, &|| {
        to(ThreadId::new(NodeId(1), 9_999).into())
    });
    row("object with no directory record", DEAD, &|| {
        to(ObjectId::new(NodeId(1), 9_999).into())
    });
    row("remote object", DELIVERED, &|| to(far_object.into()));
    // The probe arrives (TIMER lane has room) but its receipt is cut.
    cluster
        .net()
        .set_link_one_way(NodeId(1), NodeId(0), false)
        .unwrap();
    row("receipt never returns", TIMEOUT, &|| {
        cluster.raise_from(0, SystemEvent::Timer, Value::Null, remote.thread())
    });
    cluster.net().heal();
    row("remote thread, USER lane full", OVERLOADED, &|| {
        to(remote.thread().into())
    });
    assert_eq!(shed_at_source(), 0);
    row("source shed, hinted thread", OVERLOADED, &|| {
        to(remote.thread().into())
    });
    row("source shed, remote object", OVERLOADED, &|| {
        to(far_object.into())
    });
    assert_eq!(shed_at_source(), 2);
    // Every kernel loop has exited and drained: the table refuses inserts.
    cluster.shutdown();
    row("raise into a shut-down kernel", LOST, &|| {
        to(remote.thread().into())
    });

    drop((release_local, release_remote));
    let _ = local.join_timeout(Duration::from_secs(5));
    let _ = remote.join_timeout(Duration::from_secs(5));
}
