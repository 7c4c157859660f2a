//! Shared workload builders for the experiments.

use doct_events::{AttachSpec, CtxEvents, EventFacility, HandlerDecision};
use doct_kernel::{
    ClassBuilder, Cluster, KernelError, ObjectConfig, ObjectId, SpawnOptions, ThreadGroupId,
    ThreadHandle, Value,
};
use doct_net::NodeId;
use std::time::Duration;

/// Register the standard benchmark classes on a cluster:
///
/// * `plain` — `noop`, `where`, `sleepy(ms)`, `echo`;
/// * `counter` — `bump`, `get` over DSM-resident state;
/// * `deep` — `go([next...])`: invokes down an object list, then sleeps
///   at the tail (building a cross-node invocation chain).
pub fn register_classes(cluster: &Cluster) {
    cluster.register_class(
        "plain",
        ClassBuilder::new("plain")
            .entry("noop", |_ctx, _| Ok(Value::Null))
            .entry("where", |ctx, _| Ok(Value::Int(ctx.node_id().0 as i64)))
            .entry("echo", |_ctx, args| Ok(args))
            .entry("sleepy", |ctx, args| {
                let ms = args.as_int().unwrap_or(100) as u64;
                ctx.sleep(Duration::from_millis(ms))?;
                Ok(Value::Null)
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
                Ok(ctx.read_state()?.get("n").cloned().unwrap_or(Value::Int(0)))
            })
            .build(),
    );
    cluster.register_class(
        "deep",
        ClassBuilder::new("deep")
            .entry("go", |ctx, args| {
                let list = args.as_list().unwrap_or(&[]).to_vec();
                match list.split_first() {
                    None => {
                        ctx.sleep(Duration::from_secs(120))?;
                        Ok(Value::Null)
                    }
                    Some((head, rest)) => {
                        let next = ObjectId(head.as_int().unwrap_or(0) as u64);
                        ctx.invoke(next, "go", Value::List(rest.to_vec()))
                    }
                }
            })
            .build(),
    );
}

/// Spawn a thread whose tip ends up sleeping `hops` nodes away from its
/// root (node 0 → 1 → … → hops). Returns the handle; give it ~50 ms to
/// reach the tail.
pub fn spawn_deep_thread(cluster: &Cluster, hops: usize) -> Result<ThreadHandle, KernelError> {
    let chain: Vec<ObjectId> = (1..=hops as u32)
        .map(|h| {
            cluster.create_object(ObjectConfig::new(
                "deep",
                NodeId(h % cluster.node_count() as u32),
            ))
        })
        .collect::<Result<_, _>>()?;
    match chain.split_first() {
        None => {
            // hops == 0: sleep at the root.
            let obj = cluster.create_object(ObjectConfig::new("deep", NodeId(0)))?;
            cluster.spawn(0, obj, "go", Value::List(vec![]))
        }
        Some((first, rest)) => {
            let args = Value::List(rest.iter().map(|o| Value::Int(o.0 as i64)).collect());
            cluster.spawn(0, *first, "go", args)
        }
    }
}

/// Spawn `count` sleeper threads in a fresh group, one per node
/// round-robin, each with a TERMINATE-responsive sleep. Returns the group
/// and handles.
pub fn spawn_sleeper_group(
    cluster: &Cluster,
    count: usize,
) -> Result<(ThreadGroupId, Vec<ThreadHandle>), KernelError> {
    let group = cluster.create_group();
    let mut handles = Vec::with_capacity(count);
    for i in 0..count {
        let node = i % cluster.node_count();
        let opts = SpawnOptions {
            group: Some(group),
            ..Default::default()
        };
        handles.push(cluster.spawn_fn_with(node, opts, |ctx| {
            ctx.sleep(Duration::from_secs(120))?;
            Ok(Value::Null)
        })?);
    }
    Ok((group, handles))
}

/// Attach a counting no-op handler for `event` inside a spawned thread
/// and keep it alive; used to give raise targets something to handle.
pub fn spawn_handling_sleeper(
    cluster: &Cluster,
    node: usize,
    facility: &EventFacility,
    event: &str,
    handler_delay: Duration,
) -> Result<ThreadHandle, KernelError> {
    facility.register_event(event);
    let event = event.to_string();
    cluster.spawn_fn(node, move |ctx| {
        ctx.attach_handler(
            event.as_str(),
            AttachSpec::proc("bench-handler", move |_c, b| {
                if !handler_delay.is_zero() {
                    std::thread::sleep(handler_delay);
                }
                HandlerDecision::Resume(Value::Int(b.payload.as_int().unwrap_or(0) + 1))
            }),
        );
        ctx.sleep(Duration::from_secs(120))?;
        Ok(Value::Null)
    })
}

/// Median of a set of duration samples, in microseconds.
pub fn median_micros(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if samples.is_empty() {
        return 0.0;
    }
    samples[samples.len() / 2]
}
