//! The invocation context: what an entry point (or event handler) sees of
//! the kernel. One `Ctx` exists per frame-run of a logical thread on a
//! node; it carries the thread's activation and exposes invocation, state
//! access, event raising, and the delivery points.

use crate::activation::{Activation, SleepOutcome, SyncWait};
use crate::config::InvocationMode;
use crate::delivery::RaiseTicket;
use crate::node::NodeKernel;
use crate::{
    EventName, KernelError, KernelMessage, ObjectId, RaiseTarget, SystemEvent, ThreadAttributes,
    ThreadDisposition, ThreadId, TimerCmd, Value, WireEvent,
};
use crossbeam::channel::Receiver;
use doct_net::{MessageClass, NodeId};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle to an asynchronously spawned invocation — a child logical
/// thread. "Claimable" in the paper's sense: call
/// [`AsyncInvocation::claim`] to wait for the result, or drop the handle
/// for a non-claimable invocation (§7.1 notes the system may lose track of
/// those; here the child still runs to completion).
#[derive(Debug)]
pub struct AsyncInvocation {
    thread: ThreadId,
    rx: Receiver<Result<Value, KernelError>>,
}

impl AsyncInvocation {
    /// The child logical thread's id.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Block until the child finishes and take its result.
    ///
    /// # Errors
    ///
    /// Whatever the child's invocation failed with, or
    /// [`KernelError::Timeout`] if the child vanished.
    pub fn claim(self) -> Result<Value, KernelError> {
        self.rx
            .recv()
            .unwrap_or(Err(KernelError::Timeout("async invocation lost".into())))
    }

    /// Non-blocking check: `None` while the child still runs.
    pub fn try_claim(&self) -> Option<Result<Value, KernelError>> {
        self.rx.try_recv().ok()
    }
}

struct HandlingGuard {
    activation: Arc<Activation>,
}

impl Drop for HandlingGuard {
    fn drop(&mut self) {
        self.activation.lock().handling = false;
    }
}

/// Execution context of a logical thread on one node.
pub struct Ctx {
    kernel: Arc<NodeKernel>,
    activation: Arc<Activation>,
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("node", &self.kernel.node_id())
            .field("thread", &self.activation.thread)
            .finish()
    }
}

impl Ctx {
    /// Construct a context for `activation` on `kernel` (kernel-internal).
    pub fn new(kernel: Arc<NodeKernel>, activation: Arc<Activation>) -> Self {
        Ctx { kernel, activation }
    }

    /// The node this frame executes on.
    pub fn node_id(&self) -> NodeId {
        self.kernel.node_id()
    }

    /// The logical thread's id.
    pub fn thread_id(&self) -> ThreadId {
        self.activation.thread
    }

    /// The node kernel (for facility-level extensions).
    pub fn kernel(&self) -> &Arc<NodeKernel> {
        &self.kernel
    }

    /// The thread's activation on this node (for facility-level
    /// extensions).
    pub fn activation(&self) -> &Arc<Activation> {
        &self.activation
    }

    /// The object whose code is currently executing, if any.
    pub fn current_object(&self) -> Option<ObjectId> {
        self.activation.current_object()
    }

    /// Current invocation depth (0 outside any object).
    pub fn current_depth(&self) -> u32 {
        self.activation.lock().stack.last().map_or(0, |f| f.depth)
    }

    /// Name of the entry point currently executing, if any.
    pub fn current_entry(&self) -> Option<String> {
        self.activation.lock().stack.last().map(|f| f.entry.clone())
    }

    /// The exceptional events the current entry point declares it may
    /// raise (§5.2 entry-point signatures); empty outside any object.
    pub fn declared_exceptions(&self) -> Vec<EventName> {
        let (Some(object), Some(entry)) = (self.current_object(), self.current_entry()) else {
            return Vec::new();
        };
        let Some(record) = self.kernel.directory().get(object) else {
            return Vec::new();
        };
        self.kernel
            .classes()
            .get(&record.class)
            .map(|b| b.declared_exceptions(&entry))
            .unwrap_or_default()
    }

    /// Snapshot of the thread's attributes.
    pub fn attributes(&self) -> ThreadAttributes {
        self.activation.attributes_snapshot()
    }

    /// Mutate the thread's attributes in place.
    pub fn with_attributes<R>(&mut self, f: impl FnOnce(&mut ThreadAttributes) -> R) -> R {
        self.activation.with_attributes(f)
    }

    /// Write a line to the thread's I/O channel (§3.1: output follows the
    /// thread across objects).
    pub fn emit(&self, line: impl Into<String>) {
        let channel = self
            .activation
            .lock()
            .attributes
            .io_channel
            .clone()
            .unwrap_or_else(|| "stdout".to_string());
        self.kernel.io().emit(&channel, line);
    }

    // ------------------------------------------------------------------
    // Delivery points
    // ------------------------------------------------------------------

    /// Delivery point: synchronously handle every pending event.
    ///
    /// Called implicitly at invocation entry/exit and around blocking
    /// kernel operations; long-running entry points should call it (or
    /// [`Ctx::compute`]) periodically.
    ///
    /// # Errors
    ///
    /// [`KernelError::Terminated`] if the thread was terminated (by this
    /// poll or an earlier one): the frame must unwind.
    pub fn poll_events(&mut self) -> Result<(), KernelError> {
        self.activation.check_live()?;
        // Pass the telemetry clock so near-deadline timers jump the USER
        // lane at this delivery point.
        while let Some(event) = self
            .activation
            .take_event_at(self.kernel.telemetry().now_ns())
        {
            let seq = event.seq;
            self.activation.lock().handling = true;
            let disposition = {
                let _guard = HandlingGuard {
                    activation: Arc::clone(&self.activation),
                };
                let dispatcher = self.kernel.dispatcher();
                dispatcher.deliver_to_thread(self, event)
            };
            // Handler chain done, disposition decided: the unwind/ack
            // stage of the event's lifecycle.
            self.kernel.telemetry().trace(
                seq,
                doct_telemetry::Stage::Unwind,
                u64::from(self.kernel.node_id().0),
                doct_telemetry::RaiseVariant::None,
            );
            if disposition == ThreadDisposition::Terminate {
                self.activation.mark_terminated();
                return Err(KernelError::Terminated);
            }
        }
        Ok(())
    }

    /// Simulated computation: advances the thread's program counter by
    /// `units`, hitting a delivery point every 64 units. The §6.2 monitor
    /// samples the program counter this advances.
    ///
    /// # Errors
    ///
    /// [`KernelError::Terminated`] via the embedded delivery points.
    pub fn compute(&mut self, units: u64) -> Result<(), KernelError> {
        let mut done = 0u64;
        let mut sink = 0u64;
        while done < units {
            let burst = 64.min(units - done);
            for i in 0..burst {
                // A little real arithmetic so benches measure something.
                sink = sink.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(sink);
            done += burst;
            self.activation.lock().pc += burst;
            self.poll_events()?;
        }
        Ok(())
    }

    /// Simulated computation with **no** embedded delivery points: the
    /// thread is unresponsive for the whole burst (models a tight loop
    /// between delivery points; used by the delivery-point-density
    /// ablation, E4b).
    pub fn compute_uninterruptible(&mut self, units: u64) {
        let mut sink = 0u64;
        for i in 0..units {
            sink = sink.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(sink);
        self.activation.lock().pc += units;
    }

    /// The simulated program counter (monitor's sample, §6.2).
    pub fn pc(&self) -> u64 {
        self.activation.lock().pc
    }

    /// Event-responsive sleep.
    ///
    /// # Errors
    ///
    /// [`KernelError::Terminated`] if terminated while sleeping.
    pub fn sleep(&mut self, duration: Duration) -> Result<(), KernelError> {
        let deadline = Instant::now() + duration;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.activation.sleep(remaining) {
                SleepOutcome::Elapsed => return Ok(()),
                SleepOutcome::Terminated => return Err(KernelError::Terminated),
                SleepOutcome::EventPending => self.poll_events()?,
            }
        }
    }

    // ------------------------------------------------------------------
    // Invocations
    // ------------------------------------------------------------------

    /// Invoke `entry` on `object`: the same logical thread executes the
    /// called object's code (paper §2). In RPC mode the thread travels to
    /// the object's home node; in DSM mode the code runs here and the
    /// object's state pages fault across.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownObject`]/[`KernelError::UnknownEntry`] for
    /// resolution failures, [`KernelError::Terminated`] if the thread was
    /// terminated at a delivery point, or whatever the entry fails with.
    pub fn invoke(
        &mut self,
        object: ObjectId,
        entry: &str,
        args: impl Into<Value>,
    ) -> Result<Value, KernelError> {
        self.poll_events()?;
        let args = args.into();
        let record = self
            .kernel
            .directory()
            .get(object)
            .ok_or(KernelError::UnknownObject(object))?;
        let depth = self.current_depth() + 1;
        let thread = self.thread_id();
        let result = match self.kernel.config().invocation_mode {
            InvocationMode::Dsm => {
                self.kernel
                    .execute_local(&self.activation, object, entry, args, depth)
            }
            InvocationMode::Rpc => {
                if record.home == self.kernel.node_id() {
                    self.kernel
                        .execute_local(&self.activation, object, entry, args, depth)
                } else {
                    let attrs = self.activation.attributes_snapshot();
                    self.kernel.tcbs().depart(thread, record.home);
                    let outcome =
                        self.kernel
                            .call_remote(record.home, object, entry, args, attrs, depth);
                    self.kernel.tcbs().returned(thread);
                    match outcome {
                        Ok((result, attrs_back)) => {
                            self.activation.with_attributes(|a| *a = attrs_back);
                            result
                        }
                        Err(e) => Err(e),
                    }
                }
            }
        };
        if matches!(result, Err(KernelError::Terminated)) {
            // The thread was terminated while away; this node's frames
            // must unwind too.
            self.activation.mark_terminated();
            return Err(KernelError::Terminated);
        }
        self.poll_events()?;
        result
    }

    /// Spawn a *child logical thread* that performs one invocation — the
    /// paper's asynchronous invocation. The child inherits this thread's
    /// attributes, including its group and event registry (§6.3).
    pub fn invoke_async(
        &mut self,
        object: ObjectId,
        entry: &str,
        args: impl Into<Value>,
    ) -> AsyncInvocation {
        let args = args.into();
        let child_id = self.kernel.new_thread_id();
        let attrs = self
            .activation
            .lock()
            .attributes
            .inherit_for(child_id, self.kernel.node_id());
        let entry = entry.to_string();
        let rx = self
            .kernel
            .spawn_logical(attrs, move |ctx| ctx.invoke(object, &entry, args));
        AsyncInvocation {
            thread: child_id,
            rx,
        }
    }

    // ------------------------------------------------------------------
    // Object state
    // ------------------------------------------------------------------

    fn state_segment(&self, object: ObjectId) -> Result<doct_dsm::SegmentInfo, KernelError> {
        Ok(self
            .kernel
            .directory()
            .get(object)
            .ok_or(KernelError::UnknownObject(object))?
            .state_segment)
    }

    fn current_object_checked(&self) -> Result<ObjectId, KernelError> {
        self.current_object().ok_or_else(|| {
            KernelError::InvalidArgument("state access outside any object".to_string())
        })
    }

    /// Read the current object's state.
    ///
    /// # Errors
    ///
    /// State access outside an object, DSM failures, or decode failures.
    pub fn read_state(&self) -> Result<Value, KernelError> {
        let object = self.current_object_checked()?;
        self.read_state_of(object)
    }

    /// Read the state of an arbitrary object (used by handlers that must
    /// examine another object's state).
    ///
    /// # Errors
    ///
    /// Same as [`Ctx::read_state`].
    pub fn read_state_of(&self, object: ObjectId) -> Result<Value, KernelError> {
        let seg = self.state_segment(object)?;
        let dsm = self.kernel.dsm();
        let len_bytes = dsm.read(seg.id, 0, 4)?;
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        if len == 0 {
            return Ok(Value::Null);
        }
        let raw = dsm.read(seg.id, 4, len)?;
        Ok(Value::decode(&raw)?)
    }

    /// Read–modify–write the current object's state.
    ///
    /// Not atomic across concurrent invokers on different nodes (DSM gives
    /// page-level coherence, not transactions — the paper's applications
    /// use the distributed lock manager for mutual exclusion).
    ///
    /// # Errors
    ///
    /// Same as [`Ctx::read_state`], plus [`KernelError::StateTooLarge`].
    pub fn with_state<R>(&mut self, f: impl FnOnce(&mut Value) -> R) -> Result<R, KernelError> {
        let object = self.current_object_checked()?;
        let mut state = self.read_state_of(object)?;
        let result = f(&mut state);
        self.write_state_of(object, &state)?;
        Ok(result)
    }

    /// Overwrite the state of `object`.
    ///
    /// # Errors
    ///
    /// Same as [`Ctx::with_state`].
    pub fn write_state_of(&mut self, object: ObjectId, state: &Value) -> Result<(), KernelError> {
        let seg = self.state_segment(object)?;
        let enc = state.encode();
        if 4 + enc.len() > seg.size {
            return Err(KernelError::StateTooLarge {
                object,
                need: 4 + enc.len(),
                capacity: seg.size,
            });
        }
        let dsm = self.kernel.dsm();
        dsm.write(seg.id, 0, &(enc.len() as u32).to_le_bytes())?;
        dsm.write(seg.id, 4, &enc)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Events (kernel-level; the facility wraps these with handler
    // semantics)
    // ------------------------------------------------------------------

    /// Asynchronously raise an event (the `raise(e, …)` calls of §5.3).
    /// The returned ticket resolves to the delivery receipts; drop it for
    /// fire-and-forget.
    pub fn raise(
        &mut self,
        name: impl Into<EventName>,
        payload: impl Into<Value>,
        target: impl Into<RaiseTarget>,
    ) -> RaiseTicket {
        let (ticket, _seq) = self.kernel.raise_event(
            name.into(),
            payload.into(),
            target.into(),
            false,
            Some(&self.activation),
        );
        ticket
    }

    /// Synchronously raise an event (`raise_and_wait`, §5.3): blocks until
    /// a handler resumes this thread, returning the handler's verdict.
    ///
    /// # Errors
    ///
    /// [`KernelError::Event`] if no recipient exists,
    /// [`KernelError::Terminated`] if terminated while blocked,
    /// [`KernelError::Timeout`] if no handler resumes us in time.
    pub fn raise_and_wait(
        &mut self,
        name: impl Into<EventName>,
        payload: impl Into<Value>,
        target: impl Into<RaiseTarget>,
    ) -> Result<Value, KernelError> {
        let name = name.into();
        let (ticket, seq) = self.kernel.raise_event(
            name.clone(),
            payload.into(),
            target.into(),
            true,
            Some(&self.activation),
        );
        let summary = ticket.wait();
        if summary.delivered == 0 {
            return Err(KernelError::Event(format!(
                "raise_and_wait({name}): no recipient (dead={}, timeout={}, lost={}, \
                 overloaded={})",
                summary.dead, summary.timed_out, summary.lost, summary.overloaded
            )));
        }
        let deadline = Instant::now() + self.kernel.config().sync_timeout;
        loop {
            match self.activation.wait_sync(seq, deadline) {
                SyncWait::Resumed(v) => return Ok(v),
                SyncWait::EventPending => self.poll_events()?,
                SyncWait::Terminated => return Err(KernelError::Terminated),
                SyncWait::TimedOut => {
                    return Err(KernelError::Timeout(format!("raise_and_wait({name})")))
                }
            }
        }
    }

    /// Resume the raiser of a synchronous event with `verdict`
    /// (facility-facing: handlers call this through the facility API).
    pub fn resume_raiser(&self, event: &WireEvent, verdict: impl Into<Value>) {
        self.kernel.resume_sync_raiser(event, verdict.into());
    }

    /// Checked division that raises `DIV_ZERO` *synchronously to this
    /// thread* when `b == 0`, exactly like the paper's "division by zero
    /// … leads to the raising of a system event" (§3). A handler may
    /// repair the fault by resuming with a substitute value.
    ///
    /// # Errors
    ///
    /// [`KernelError::InvocationFailed`] if no handler repaired the fault.
    pub fn checked_div(&mut self, a: i64, b: i64) -> Result<i64, KernelError> {
        if b != 0 {
            return Ok(a / b);
        }
        let mut payload = Value::map();
        payload.set("numerator", a);
        let verdict = self.raise_and_wait(
            SystemEvent::DivZero,
            payload,
            RaiseTarget::Thread(self.thread_id()),
        )?;
        match verdict.as_int() {
            Some(repaired) => Ok(repaired),
            None => Err(KernelError::InvocationFailed(
                "division by zero (unrepaired)".to_string(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Register a periodic TIMER event for this thread (§6.2). The timer
    /// chases the thread wherever it executes. Returns the timer id.
    ///
    /// The payload travels once to the kernel loop of the thread's root
    /// node, which keeps the deadline, and is cloned again at every fire
    /// — refcount bumps for [`crate::Bytes`] payloads, so periodic timers
    /// with large payloads never re-copy them (DESIGN.md §3g).
    pub fn add_timer(&mut self, period: Duration, payload: impl Into<Value>) -> u64 {
        self.register_timer(period, payload.into(), false)
    }

    /// Register a one-shot ALARM event for this thread, firing after
    /// `delay` (§3 lists alarms among the system events). Returns the
    /// alarm id (cancellable with [`Ctx::cancel_timer`] before it fires).
    pub fn set_alarm(&mut self, delay: Duration, payload: impl Into<Value>) -> u64 {
        self.register_timer(delay, payload.into(), true)
    }

    /// Cancel a timer created with [`Ctx::add_timer`].
    pub fn cancel_timer(&mut self, id: u64) {
        self.send_to_root(TimerCmd::Cancel {
            thread: self.thread_id(),
            id,
        });
    }

    fn register_timer(&self, period: Duration, payload: Value, one_shot: bool) -> u64 {
        let id = self.kernel.next_seq();
        self.send_to_root(TimerCmd::Register {
            thread: self.thread_id(),
            id,
            period,
            payload,
            one_shot,
        });
        id
    }

    /// The thread's root node keeps its timers: usually a send to this
    /// node, a control message over the fabric while the thread is
    /// inside a remote invocation.
    fn send_to_root(&self, cmd: TimerCmd) {
        let _ = self.kernel.net().send(
            self.kernel.node_id(),
            self.thread_id().root,
            KernelMessage::Timer(cmd),
            MessageClass::Control,
        );
    }
}
