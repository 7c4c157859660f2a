//! Distributed liveliness monitoring (§6.2).
//!
//! "We wish to monitor the application by sending periodic information
//! about the state of the thread (such as the current object the thread
//! is executing in, current program counter value, etc.) to a central
//! server." Two facilities combine: a periodic TIMER delivered to the
//! thread wherever it is (the thread's root node keeps the deadline and
//! raises each TIMER at the thread, which the locator finds), and
//! a handler in the thread's per-thread memory that runs in the current
//! object's context, samples the suspended thread's state, restarts it,
//! and reports to the monitor server.

use doct_events::{AttachSpec, CtxEvents, HandlerDecision};
use doct_kernel::{
    ClassBuilder, Cluster, Ctx, KernelError, ObjectConfig, ObjectId, SystemEvent, Value,
};
use doct_net::NodeId;
use std::time::Duration;

/// Class name of the monitor server object.
pub const MONITOR_CLASS: &str = "doct.monitor";

/// Payload tag distinguishing monitor timers from other TIMER users.
const MONITOR_TAG: &str = "doct.monitor.sample";

/// One liveliness sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sampled thread (as display string).
    pub thread: String,
    /// Node the thread was on.
    pub node: u32,
    /// Simulated program counter.
    pub pc: i64,
    /// Object the thread was executing in, if any.
    pub object: Option<i64>,
}

/// Ids needed to stop monitoring a thread.
#[derive(Debug, Clone, Copy)]
pub struct MonitoringSession {
    timer_id: u64,
    handler_id: u64,
}

/// The central monitor server (§6.2's "central server \[that\] may use the
/// symbol table information ... to display the state of the application").
#[derive(Debug, Clone, Copy)]
pub struct MonitorServer {
    object: ObjectId,
}

impl MonitorServer {
    /// Register the monitor class (idempotent).
    pub fn register_class(cluster: &Cluster) {
        cluster.register_class(
            MONITOR_CLASS,
            ClassBuilder::new(MONITOR_CLASS)
                .entry("report", |ctx, args| {
                    ctx.with_state(|s| {
                        if s.is_null() {
                            *s = Value::map();
                        }
                        let m = s.as_map_mut().expect("monitor state is a map");
                        let samples = m
                            .entry("samples".to_string())
                            .or_insert_with(|| Value::List(Vec::new()));
                        if let Value::List(list) = samples {
                            list.push(args.clone());
                        }
                    })?;
                    Ok(Value::Null)
                })
                .entry("samples", |ctx, _| {
                    Ok(ctx
                        .read_state()?
                        .get("samples")
                        .cloned()
                        .unwrap_or(Value::List(Vec::new())))
                })
                .entry("clear", |ctx, _| {
                    ctx.with_state(|s| *s = Value::map())?;
                    Ok(Value::Null)
                })
                .build(),
        );
    }

    /// Create a monitor server homed at `home`.
    ///
    /// # Errors
    ///
    /// Object-creation failures.
    pub fn create(cluster: &Cluster, home: NodeId) -> Result<MonitorServer, KernelError> {
        Self::register_class(cluster);
        let object = cluster.create_object(
            ObjectConfig::new(MONITOR_CLASS, home)
                .with_state(Value::map())
                .with_state_size(1 << 20)
                .exclusive(),
        )?;
        Ok(MonitorServer { object })
    }

    /// The underlying object.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Start monitoring the calling thread: registers a periodic TIMER
    /// and attaches the sampling handler (per-thread procedure, runs in
    /// the current object's context wherever the thread is).
    pub fn start(&self, ctx: &mut Ctx, period: Duration) -> MonitoringSession {
        let mut tag = Value::map();
        tag.set("tag", MONITOR_TAG);
        let timer_id = ctx.add_timer(period, tag);
        let server = self.object;
        let handler_id = ctx.attach_handler(
            SystemEvent::Timer,
            AttachSpec::proc("monitor-sample", move |hctx, block| {
                if block.payload.get("tag").and_then(Value::as_str) != Some(MONITOR_TAG) {
                    // Someone else's timer: pass it along the chain.
                    return HandlerDecision::Propagate;
                }
                // Sample the suspended thread's state from within the
                // current object, then report to the central server.
                let mut sample = Value::map();
                sample.set("thread", format!("{}", hctx.thread_id()));
                sample.set("node", hctx.node_id().0);
                sample.set("pc", block.state.pc as i64);
                if let Some(o) = block.state.current_object {
                    sample.set("object", o.0 as i64);
                }
                let _ = hctx.invoke(server, "report", sample);
                HandlerDecision::Resume(Value::Null)
            }),
        );
        MonitoringSession {
            timer_id,
            handler_id,
        }
    }

    /// Stop a monitoring session started on this thread.
    pub fn stop(&self, ctx: &mut Ctx, session: MonitoringSession) {
        ctx.cancel_timer(session.timer_id);
        ctx.detach_handler(session.handler_id);
    }

    /// Samples collected so far, decoded.
    ///
    /// # Errors
    ///
    /// Spawn/invocation failures reading the server state.
    pub fn samples(&self, cluster: &Cluster) -> Result<Vec<Sample>, KernelError> {
        let object = self.object;
        let raw = cluster
            .spawn(object.creator().index(), object, "samples", Value::Null)?
            .join()?;
        let mut out = Vec::new();
        if let Value::List(list) = raw {
            for v in list {
                out.push(Sample {
                    thread: v
                        .get("thread")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    node: v.get("node").and_then(Value::as_int).unwrap_or(-1) as u32,
                    pc: v.get("pc").and_then(Value::as_int).unwrap_or(0),
                    object: v.get("object").and_then(Value::as_int),
                });
            }
        }
        Ok(out)
    }
}
