//! Drives one workload from outside the program: repeated set-up, an
//! open-loop paced phase timed from each raise's due time, a closed-loop
//! saturation phase with a fixed window, then the oracle.
//!
//! The generator is this thread; the cluster's own threads are the
//! program. On the 2-core hosts this runs on, a second generator thread
//! would be measuring the scheduler.

use crate::oracle::{self, Evidence, Verdict};
use crate::record::Recorder;
use crate::rig::{Fault, Kind, Rig, Spec, SyncSample};
use crate::stats::{self, CpuTime, Lateness, LatenessReport, OpenLoop};
use crossbeam::channel::{Receiver, TryRecvError};
use doct_kernel::{DeliveryStatus, KernelError};
use doct_net::StatsSnapshot;
use doct_telemetry::MetricsSnapshot;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one invocation of a workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seeds payload bytes, target order and the fabric's own seed.
    pub seed: u64,
    /// Measured seconds, shared between the phases.
    pub seconds: f64,
    /// Record spans (the traced run) instead of end-to-end metrics.
    pub trace: bool,
    /// Fresh clusters built and warmed; `setup_s` is the median.
    pub setup_reps: usize,
    /// A fault for the self-test to find.
    pub fault: Option<Fault>,
    /// Warm-up raises per set-up, if not [`warm_raises`].
    pub warm: Option<u64>,
}

/// Warm-up raises completed on each fresh cluster before its set-up is
/// called done: enough to fill the location cache, size the buffer
/// pools, start every lazily started thread and fault in the hot code.
/// A count, not a duration, so set-up time depends on the program.
pub fn warm_raises(spec: &Spec) -> u64 {
    match spec.kind {
        Kind::Group => 300,
        Kind::LocalSync => 20_000,
        Kind::Unicast | Kind::Object => 3_000,
    }
}

/// Tickets the open loop may have unresolved before it holds its next
/// raise back (still timed from its due time): keeps a long host stall
/// from overflowing the 1024-deep mailbox lanes, which would turn a
/// latency excursion into `Overloaded` failures.
const MAX_OPEN_FLIGHTS: usize = 512;
/// Handler invocations the generator may run ahead of, for the same reason.
const MAX_HANDLER_BACKLOG: u64 = 2_048;
/// Longest the generator holds a raise back for either cap.
const HOLD_LIMIT_NS: u64 = 200_000_000;
/// Longest a blocking wait for one receipt lasts (the kernel resolves
/// every receipt within `delivery_timeout` = 5 s).
const RECEIPT_WAIT: Duration = Duration::from_secs(10);
/// Untraced, a run alternates its phases this many times and reports the
/// median over the rounds: on a shared 2-core host the scheduler settles
/// into a thread placement at the start of a phase and keeps it for
/// seconds (closed-loop throughput moved 55 → 81 k/s inside one 8 s
/// phase), so one long phase samples one placement and many short ones
/// sample many.
pub const ROUNDS: usize = 32;
/// The traced run alternates its three phases this many times.
pub const TRACED_ROUNDS: usize = 16;
/// `local_sync` untraced times one raise in 61: two clock reads per 61
/// raises keep the probe under 0.5 % of a ~4 µs raise, and 61 is coprime
/// with the raisers' id stride of 2, so both raisers are sampled.
const SYNC_SAMPLE_EVERY: u64 = 61;

/// Per-raise times the traced run keeps (ns on the bench epoch).
#[derive(Debug, Clone, Copy)]
pub struct RaiseRec {
    /// Raise id.
    pub id: u64,
    /// Start of the `raise_from` / `raise_and_wait` call.
    pub issue_start: u64,
    /// Its return.
    pub issue_end: u64,
    /// When the last receipt was seen resolved.
    pub resolved: u64,
}

/// Counters and clocks read at a phase boundary.
pub struct Snap {
    /// Bench-epoch time.
    pub t_ns: u64,
    /// The cluster's telemetry registry.
    pub metrics: MetricsSnapshot,
    /// The fabric's counters (for `total_bytes`).
    pub net: StatsSnapshot,
    /// Process CPU time.
    pub cpu: CpuTime,
    /// Process context switches.
    pub ctx_switches: u64,
}

impl Snap {
    fn capture(rig: &Rig) -> Snap {
        Snap {
            t_ns: rig.rec.now_ns(),
            metrics: rig.cluster.telemetry().metrics(),
            net: rig.cluster.net().stats().snapshot(),
            cpu: stats::process_cpu().unwrap_or_default(),
            ctx_switches: stats::process_ctx_switches().unwrap_or(0),
        }
    }
}

/// One measured phase.
pub struct Phase {
    /// `"paced"`, `"sat"` or `"closed"`.
    pub name: &'static str,
    /// Which round of the run this phase belongs to.
    pub round: usize,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Boundary snapshots.
    pub before: Snap,
    /// Boundary snapshots.
    pub after: Snap,
    /// Raises completed inside the phase.
    pub completed: u64,
    /// Due time → receipts resolved (call → return on `local_sync`), ns.
    pub rtt_ns: Vec<f64>,
    /// Due time → handler entry, one per recipient, ns.
    pub deliver_ns: Vec<f64>,
    /// How late the open-loop generator ran.
    pub lateness: Option<LatenessReport>,
    /// Open-loop rate or closed-loop window.
    pub load: f64,
    /// Per-raise times (traced phases only).
    pub recs: Vec<RaiseRec>,
}

impl Phase {
    /// Seconds between the boundary snapshots.
    pub fn seconds(&self) -> f64 {
        (self.after.t_ns - self.before.t_ns) as f64 / 1e9
    }

    /// Raises completed per second of the phase.
    pub fn rate(&self) -> f64 {
        self.completed as f64 / self.seconds()
    }

    /// Process CPU microseconds per completed raise.
    pub fn cpu_us_per_raise(&self) -> f64 {
        self.before.cpu.until(&self.after.cpu).total_s() * 1e6 / (self.completed as f64).max(1.0)
    }
}

/// Everything one workload run produced.
pub struct RunData {
    /// The workload.
    pub spec: &'static Spec,
    /// Seconds from cluster build to warm, once per set-up repetition.
    pub setups_s: Vec<f64>,
    /// Of which the warm-up raises took this long (last repetition).
    pub warmup_s: f64,
    /// The measured phases in order.
    pub phases: Vec<Phase>,
    /// The oracle's findings over the whole run.
    pub verdict: Verdict,
    /// The handlers' table (for span assembly).
    pub recorder: Arc<Recorder>,
    /// Threads that did not end at tear-down.
    pub stuck_threads: usize,
    /// The cluster's counters as the oracle saw them.
    pub counters: BTreeMap<String, u64>,
    /// The raise ids issued, as the oracle saw them.
    pub ids: Vec<(u64, u64, u64)>,
    /// Receipts not `Delivered`, as the oracle saw them.
    pub not_delivered: u64,
}

impl RunData {
    /// Raises issued, warm-up included.
    pub fn issued(&self) -> u64 {
        self.ids.iter().map(|&(_, _, count)| count).sum()
    }
}

/// One raise whose receipts are not all in yet.
struct Flight {
    id: u64,
    due_ns: u64,
    rx: Vec<Receiver<DeliveryStatus>>,
    rec: Option<RaiseRec>,
}

/// The external generator's state: ids, flights and failure counts.
struct Generator<'a> {
    rig: &'a Rig,
    next_id: u64,
    flights: VecDeque<Flight>,
    not_delivered: u64,
    tracing: bool,
    recs: Vec<RaiseRec>,
    /// Set once a hold ran into [`HOLD_LIMIT_NS`]: the handlers are not
    /// keeping up at all (the run will fail the oracle), so holding every
    /// later raise too would only make the failure slow.
    caps_abandoned: bool,
}

impl<'a> Generator<'a> {
    fn new(rig: &'a Rig) -> Self {
        Generator {
            rig,
            next_id: 0,
            flights: VecDeque::new(),
            not_delivered: 0,
            tracing: false,
            recs: Vec::new(),
            caps_abandoned: false,
        }
    }

    fn rec(&self) -> &Recorder {
        &self.rig.rec
    }

    fn issue(&mut self, due_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let issue_start = if self.tracing { self.rec().now_ns() } else { 0 };
        let ticket = self.rig.issue(id, due_ns);
        let rec = self.tracing.then(|| RaiseRec {
            id,
            issue_start,
            issue_end: self.rec().now_ns(),
            resolved: 0,
        });
        self.flights.push_back(Flight {
            id,
            due_ns,
            rx: ticket.into_receivers(),
            rec,
        });
    }

    fn count(&mut self, status: Option<DeliveryStatus>) {
        if !matches!(status, Some(DeliveryStatus::Delivered(_))) {
            self.not_delivered += 1;
        }
    }

    /// An object ticket resolves at send, so an object raise is complete
    /// only once its handler has run.
    fn handled(&self, flight: &Flight) -> bool {
        self.rig.spec.kind != Kind::Object || self.rec().hits(flight.id, 0) > 0
    }

    /// Non-blocking sweep: collect resolved receipts and hand every
    /// completed flight to `done` with the time it was seen complete.
    fn sweep(&mut self, mut done: impl FnMut(&Flight, u64)) {
        let mut i = 0;
        while i < self.flights.len() {
            let mut statuses = Vec::new();
            self.flights[i].rx.retain(|rx| match rx.try_recv() {
                Ok(s) => {
                    statuses.push(Some(s));
                    false
                }
                Err(TryRecvError::Empty) => true,
                Err(TryRecvError::Disconnected) => {
                    statuses.push(None);
                    false
                }
            });
            for s in statuses {
                self.count(s);
            }
            if self.flights[i].rx.is_empty() && self.handled(&self.flights[i]) {
                let now = self.rec().now_ns();
                let mut flight = self.flights.swap_remove_back(i).expect("index in range");
                self.finish(&mut flight, now);
                done(&flight, now);
            } else {
                i += 1;
            }
        }
    }

    /// Block until the oldest flight completes; returns when it was seen.
    fn wait_oldest(&mut self) -> Option<u64> {
        let mut flight = self.flights.pop_front()?;
        for rx in std::mem::take(&mut flight.rx) {
            let status = rx.recv_timeout(RECEIPT_WAIT).ok();
            self.count(status);
        }
        let deadline = self.rec().now_ns() + RECEIPT_WAIT.as_nanos() as u64;
        while !self.handled(&flight) && self.rec().now_ns() < deadline {
            std::thread::yield_now();
        }
        let now = self.rec().now_ns();
        self.finish(&mut flight, now);
        Some(now)
    }

    fn finish(&mut self, flight: &mut Flight, now: u64) {
        if let Some(mut rec) = flight.rec.take() {
            rec.resolved = now;
            self.recs.push(rec);
        }
    }

    /// Hold the next raise back while either cap is exceeded (bounded).
    fn respect_caps(&mut self, mut done: impl FnMut(&Flight, u64)) {
        if self.caps_abandoned {
            return;
        }
        let start = self.rec().now_ns();
        let recipients = self.rec().recipients();
        loop {
            let backlog = (self.next_id * recipients).saturating_sub(self.rec().handled());
            if self.flights.len() < MAX_OPEN_FLIGHTS && backlog < MAX_HANDLER_BACKLOG {
                return;
            }
            if self.rec().now_ns() - start > HOLD_LIMIT_NS {
                self.caps_abandoned = true;
                return;
            }
            self.sweep(&mut done);
            std::hint::spin_loop();
        }
    }

    fn drain(&mut self) {
        while self.wait_oldest().is_some() {}
    }

    /// Closed-loop warm-up: `count` raises, `window` in flight.
    fn warm_up(&mut self, count: u64) {
        let window = self.rig.spec.window;
        let end = self.next_id + count;
        while self.next_id < end {
            while self.flights.len() < window && self.next_id < end {
                self.issue(0);
            }
            self.wait_oldest();
        }
        self.drain();
    }

    /// Open loop at `rate` raises/s for `seconds`: spin to each due time,
    /// sweeping receipts while spinning; latency runs from the due time.
    fn paced(&mut self, rate: f64, seconds: f64, traced: bool) -> Phase {
        let rec = Arc::clone(&self.rig.rec);
        let first = self.next_id;
        self.tracing = traced;
        let before = Snap::capture(self.rig);
        let schedule = OpenLoop::new(rec.now_ns() + 1_000_000, rate);
        let count = schedule.count_in(seconds);
        rec.set_timed(first, first + count, traced);
        let mut rtt_ns = Vec::with_capacity(count as usize);
        let mut lateness = Lateness::default();
        let mut on_done = |f: &Flight, now: u64| rtt_ns.push((now - f.due_ns) as f64);
        for k in 0..count {
            let due = schedule.due_ns(k);
            loop {
                self.sweep(&mut on_done);
                if rec.now_ns() >= due {
                    break;
                }
                std::hint::spin_loop();
            }
            self.respect_caps(&mut on_done);
            lateness.record(due, rec.now_ns());
            self.issue(due);
        }
        let deadline = rec.now_ns() + RECEIPT_WAIT.as_nanos() as u64;
        while !self.flights.is_empty() && rec.now_ns() < deadline {
            self.sweep(&mut on_done);
            std::hint::spin_loop();
        }
        let after = Snap::capture(self.rig);
        self.drain();
        self.tracing = false;

        let mut deliver_ns = Vec::with_capacity((count * rec.recipients()) as usize);
        for k in 0..count {
            for member in 0..rec.recipients() {
                if let Some(t) = rec.started_ns(first + k, member) {
                    deliver_ns.push(t.saturating_sub(schedule.due_ns(k)) as f64);
                }
            }
        }
        Phase {
            name: "paced",
            round: 0,
            traced,
            before,
            after,
            completed: rtt_ns.len() as u64,
            rtt_ns,
            deliver_ns,
            lateness: lateness.report(1e9 / rate),
            load: rate,
            recs: std::mem::take(&mut self.recs),
        }
    }

    /// Closed loop with `window` raises in flight for `seconds`.
    fn saturate(&mut self, seconds: f64, traced: bool) -> Phase {
        let rec = Arc::clone(&self.rig.rec);
        let window = self.rig.spec.window;
        let recipients = rec.recipients();
        let first = self.next_id;
        self.tracing = traced;
        // Untraced, the closed loop records no times at all.
        let timed_to = if traced { u64::MAX } else { first };
        rec.set_timed(first, timed_to, traced);
        let before = Snap::capture(self.rig);
        let handled_before = rec.handled();
        let end = before.t_ns + (seconds * 1e9) as u64;
        let mut done = 0u64;
        let mut now = before.t_ns;
        while now < end {
            while self.flights.len() < window {
                self.respect_caps(|_, _| {});
                self.issue(0);
            }
            now = self.wait_oldest().unwrap_or(now);
            done += 1;
        }
        let after = Snap::capture(self.rig);
        // A raise is complete when its ticket resolved and every
        // recipient's handler ran; count whichever is behind.
        let handled = (rec.handled() - handled_before) / recipients;
        self.drain();
        self.tracing = false;
        rec.set_timed(0, 0, false);
        Phase {
            name: "sat",
            round: 0,
            traced,
            before,
            after,
            completed: done.min(handled),
            rtt_ns: Vec::new(),
            deliver_ns: Vec::new(),
            lateness: None,
            load: window as f64,
            recs: std::mem::take(&mut self.recs),
        }
    }
}

/// Build and warm `reps` fresh clusters, keeping the last. Returns the
/// rig, its generator state and the set-up times.
fn set_up(spec: &'static Spec, opts: &Options) -> Result<(Rig, Vec<f64>, f64, u64), KernelError> {
    let mut setups_s = Vec::new();
    let mut kept: Option<(Rig, f64, u64)> = None;
    for _ in 0..opts.setup_reps.max(1) {
        if let Some((old, _, _)) = kept.take() {
            old.teardown();
        }
        let t0 = Instant::now();
        let sample_every = match (spec.kind, opts.trace) {
            (Kind::LocalSync, false) => SYNC_SAMPLE_EVERY,
            _ => 1,
        };
        let rig = Rig::assemble(spec, opts.seed, sample_every, opts.fault)?;
        let built = t0.elapsed();
        let warm = opts.warm.unwrap_or_else(|| warm_raises(spec));
        let issued = if spec.kind == Kind::LocalSync {
            let deadline = t0 + RECEIPT_WAIT;
            while rig.sync_completed(0) + rig.sync_completed(1) < warm {
                if Instant::now() > deadline {
                    return Err(KernelError::Timeout("local_sync warm-up".into()));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            0
        } else {
            let mut gen = Generator::new(&rig);
            gen.warm_up(warm);
            // A cluster that drops warm-up raises is not the workload.
            if gen.not_delivered > 0 {
                return Err(KernelError::Timeout(format!(
                    "{} warm-up receipts not delivered",
                    gen.not_delivered
                )));
            }
            gen.next_id
        };
        let total = t0.elapsed();
        setups_s.push(total.as_secs_f64());
        kept = Some((rig, (total - built).as_secs_f64(), issued));
    }
    let (rig, warmup_s, issued) = kept.expect("at least one repetition");
    Ok((rig, setups_s, warmup_s, issued))
}

/// Wait (bounded) for the handlers and the ledger to catch up with the
/// receipts, so the oracle judges a quiescent cluster.
fn quiesce(rig: &Rig, expected_invocations: u64) {
    let deadline = rig.rec.now_ns() + 5_000_000_000;
    while rig.rec.now_ns() < deadline {
        let counters = rig.cluster.telemetry().metrics().counters;
        if rig.rec.handled() >= expected_invocations && oracle::ledger_imbalance(&counters) == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Run a workload that this thread generates raises for.
fn run_generated(spec: &'static Spec, opts: &Options) -> Result<RunData, KernelError> {
    let (rig, setups_s, warmup_s, warm_issued) = set_up(spec, opts)?;
    let rate = spec
        .paced_rate
        .expect("generated workloads have a paced phase");
    let mut gen = Generator::new(&rig);
    gen.next_id = warm_issued;
    let mut phases = Vec::new();
    let rounds = if opts.trace { TRACED_ROUNDS } else { ROUNDS };
    for round in 0..rounds {
        let first = phases.len();
        if opts.trace {
            let each = opts.seconds / (3 * rounds) as f64;
            phases.push(gen.paced(rate, each, true));
            phases.push(gen.saturate(each, false));
            phases.push(gen.saturate(each, true));
        } else {
            let each = opts.seconds / (2 * rounds) as f64;
            phases.push(gen.paced(rate, each, false));
            phases.push(gen.saturate(each, false));
        }
        for phase in &mut phases[first..] {
            phase.round = round;
        }
    }
    let (issued, not_delivered) = (gen.next_id, gen.not_delivered);
    quiesce(&rig, issued * spec.recipients);
    let counters = rig.cluster.telemetry().metrics().counters;
    let ids = vec![(0, 1, issued)];
    let verdict = oracle::judge(&Evidence {
        recorder: &rig.rec,
        ids: ids.clone(),
        not_delivered,
        counters: &counters,
        handlers_per_invocation: spec.chain_depth,
        single_node: spec.nodes == 1,
    });
    let recorder = Arc::clone(&rig.rec);
    let stuck_threads = rig.teardown();
    Ok(RunData {
        spec,
        setups_s,
        warmup_s,
        phases,
        verdict,
        recorder,
        stuck_threads,
        counters,
        ids,
        not_delivered,
    })
}

/// One closed-loop phase of `local_sync`: the raisers are already
/// running; this thread only marks the window and reads the counters.
/// Samples outside the phase are dropped later, by their times.
fn sync_phase(rig: &Rig, seconds: f64, timed: bool, traced: bool) -> Phase {
    let rec = &rig.rec;
    let completed = || rig.sync_completed(0) + rig.sync_completed(1);
    rec.set_timed(0, if timed { u64::MAX } else { 0 }, traced);
    let before = Snap::capture(rig);
    let done_before = completed();
    std::thread::sleep(Duration::from_secs_f64(seconds));
    let after = Snap::capture(rig);
    let done_after = completed();
    rec.set_timed(0, 0, false);
    Phase {
        name: "closed",
        round: 0,
        traced,
        before,
        after,
        completed: done_after - done_before,
        rtt_ns: Vec::new(),
        deliver_ns: Vec::new(),
        lateness: None,
        load: rig.spec.window as f64,
        recs: Vec::new(),
    }
}

/// Distribute the raisers' timed samples to the phases they fall in.
fn attribute_sync_samples(rec: &Recorder, samples: &[SyncSample], phases: &mut [Phase]) {
    for &(id, t0, t1) in samples {
        let Some(phase) = phases
            .iter_mut()
            .find(|p| t0 >= p.before.t_ns && t1 <= p.after.t_ns)
        else {
            continue;
        };
        phase.rtt_ns.push((t1 - t0) as f64);
        if let Some(start) = rec.started_ns(id, 0) {
            phase.deliver_ns.push(start.saturating_sub(t0) as f64);
        }
        if phase.traced {
            phase.recs.push(RaiseRec {
                id,
                issue_start: t0,
                issue_end: t1,
                resolved: t1,
            });
        }
    }
}

/// Run `local_sync`: the raisers are logical threads inside the cluster.
fn run_sync(spec: &'static Spec, opts: &Options) -> Result<RunData, KernelError> {
    let (mut rig, setups_s, warmup_s, _) = set_up(spec, opts)?;
    let mut phases = Vec::new();
    // Twice the rounds of the other workloads: one phase kind, not two.
    let rounds = 2 * if opts.trace { TRACED_ROUNDS } else { ROUNDS };
    for round in 0..rounds {
        // The traced run alternates windows that time nothing with
        // windows that time every raise; the untraced run samples.
        let traced = opts.trace && round % 2 == 1;
        let timed = traced || !opts.trace;
        let mut phase = sync_phase(&rig, opts.seconds / rounds as f64, timed, traced);
        phase.round = round / if opts.trace { 2 } else { 1 };
        phases.push(phase);
    }
    let mut stuck_threads = rig.stop_raisers();
    let counts = [rig.sync_completed(0), rig.sync_completed(1)];
    let issued = counts[0] + counts[1];
    quiesce(&rig, issued);
    let samples = std::mem::take(
        &mut *rig
            .sync
            .samples
            .lock()
            .expect("raisers have stopped; none panicked holding the lock"),
    );
    attribute_sync_samples(&rig.rec, &samples, &mut phases);
    let counters = rig.cluster.telemetry().metrics().counters;
    let ids = vec![(0, 2, counts[0]), (1, 2, counts[1])];
    let not_delivered = rig.sync.errors.load(std::sync::atomic::Ordering::Relaxed);
    let verdict = oracle::judge(&Evidence {
        recorder: &rig.rec,
        ids: ids.clone(),
        not_delivered,
        counters: &counters,
        handlers_per_invocation: spec.chain_depth,
        single_node: spec.nodes == 1,
    });
    let recorder = Arc::clone(&rig.rec);
    stuck_threads += rig.teardown();
    Ok(RunData {
        spec,
        setups_s,
        warmup_s,
        phases,
        verdict,
        recorder,
        stuck_threads,
        counters,
        ids,
        not_delivered,
    })
}

/// Run one workload in fresh clusters and judge it.
///
/// # Errors
///
/// Cluster construction or warm-up failures (the run produced nothing).
pub fn run(spec: &'static Spec, opts: &Options) -> Result<RunData, KernelError> {
    match spec.kind {
        Kind::LocalSync => run_sync(spec, opts),
        _ => run_generated(spec, opts),
    }
}
