//! The traced run: spans recorded by the harness at the boundaries it
//! can see from outside the program, kept in memory and written out when
//! the benchmark ends.
//!
//! Recorded per raise: `raise_issue` (around `raise_from` /
//! `raise_and_wait`), `handler` (inside the bench-supplied handler, one
//! per recipient) and `ticket_resolved` (call return → last receipt seen),
//! all children of a `raise` span and all carrying the raise id from the
//! payload. `deliver` and `return` are derived from those, so the four
//! stage means sum to the mean completion time by construction;
//! `stage.sum_over_rtt` checks that they do.

use crate::harness::{Phase, RaiseRec, RunData};
use crate::json::Json;
use crate::record::Recorder;
use crate::report::Metric;
use std::io::Write as _;
use std::path::Path;

/// Raises whose spans are written to the span file, shared evenly between
/// the traced phases (every traced raise stays in memory and counts
/// towards the stage means; the file is a sample to read, ~4 MB).
const SPAN_FILE_RAISES: usize = 6_000;

/// The boundaries of one traced raise, ns on the bench epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Boundaries {
    issue_start: u64,
    issue_end: u64,
    /// Entry of the handler that finished last (the recipient the raise
    /// waited for), and its exit.
    handler_start: u64,
    handler_end: u64,
    resolved: u64,
}

impl Boundaries {
    /// A raise is complete when its ticket has resolved and its last
    /// handler has returned; a thread ticket resolves when the event is
    /// stored in the mailbox, so either can be the later one.
    fn complete(&self) -> u64 {
        self.resolved.max(self.handler_end)
    }

    /// issue, deliver, handler, return — consecutive and non-negative,
    /// so they sum to `complete − issue_start` exactly. Where the handler
    /// starts before the call returns (a local or synchronous raise),
    /// the issue stage ends at the handler's entry.
    fn stages(&self) -> [u64; 4] {
        let issue_stop = self
            .issue_end
            .clamp(self.issue_start, self.handler_start.max(self.issue_start));
        let handler_start = self.handler_start.max(issue_stop);
        let handler_end = self.handler_end.max(handler_start);
        [
            issue_stop - self.issue_start,
            handler_start - issue_stop,
            handler_end - handler_start,
            self.complete().max(handler_end) - handler_end,
        ]
    }
}

fn boundaries(rec: &Recorder, r: &RaiseRec) -> Option<Boundaries> {
    let (start, end) = (0..rec.recipients())
        .filter_map(|m| Some((rec.started_ns(r.id, m)?, rec.ended_ns(r.id, m)?)))
        .max_by_key(|&(_, end)| end)?;
    Some(Boundaries {
        issue_start: r.issue_start,
        issue_end: r.issue_end,
        handler_start: start,
        handler_end: end,
        resolved: r.resolved,
    })
}

/// Stage means over every traced raise of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageMeans {
    /// Raises with a complete set of boundaries.
    pub n: u64,
    /// Mean of each stage, µs: issue, deliver, handler, return.
    pub stage_us: [f64; 4],
    /// Mean completion time (call start → ticket resolved and handler
    /// done), µs, accumulated independently of the stages.
    pub complete_us: f64,
    /// Mean duration of the `raise_from` / `raise_and_wait` call, µs.
    pub issue_call_us: f64,
    /// Mean wait from the call's return to the last receipt, µs.
    pub ticket_wait_us: f64,
}

impl StageMeans {
    /// Accumulate over the traced phases that time raises under light
    /// load (`paced`, or `closed` on `local_sync`), so the stages
    /// decompose what `rtt_p50_us` measures. The traced `sat` phases
    /// exist for `trace.overhead_pct`: with a window of raises queued,
    /// their stages would mostly be queueing.
    pub fn of(data: &RunData) -> StageMeans {
        let mut sums = [0u64; 4];
        let (mut complete, mut call, mut wait, mut n) = (0u64, 0u64, 0u64, 0u64);
        let phases = data.phases.iter().filter(|p| p.traced && p.name != "sat");
        for r in phases.flat_map(|p| &p.recs) {
            let Some(b) = boundaries(&data.recorder, r) else {
                continue;
            };
            for (sum, stage) in sums.iter_mut().zip(b.stages()) {
                *sum += stage;
            }
            complete += b.complete() - b.issue_start;
            call += b.issue_end - b.issue_start;
            wait += b.resolved.saturating_sub(b.issue_end);
            n += 1;
        }
        let mean_us = |sum: u64| {
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64 / 1e3
            }
        };
        StageMeans {
            n,
            stage_us: sums.map(mean_us),
            complete_us: mean_us(complete),
            issue_call_us: mean_us(call),
            ticket_wait_us: mean_us(wait),
        }
    }

    /// The per-layer metrics the traced run contributes.
    pub fn metrics(&self) -> Vec<Metric> {
        let sum: f64 = self.stage_us.iter().sum();
        let m =
            |layer: &str, name: &str, unit, value| Metric::layer(layer, name, unit, value, self.n);
        vec![
            m("stage", "issue_mean_us", "us", self.stage_us[0]),
            m("stage", "deliver_mean_us", "us", self.stage_us[1]),
            m("stage", "handler_mean_us", "us", self.stage_us[2]),
            m("stage", "return_mean_us", "us", self.stage_us[3]),
            m(
                "stage",
                "sum_over_rtt",
                "ratio",
                if self.complete_us > 0.0 {
                    sum / self.complete_us
                } else {
                    0.0
                },
            ),
            m("kernel", "raise_issue_us", "us", self.issue_call_us),
            m("kernel", "ticket_wait_us", "us", self.ticket_wait_us),
        ]
    }
}

fn span(
    name: &str,
    start: u64,
    end: u64,
    id: String,
    parent: Option<&str>,
    raise: Option<u64>,
) -> Json {
    Json::obj()
        .with("name", name)
        .with("start_ns", start)
        .with("end_ns", end)
        .with("id", id)
        .with("parent", parent.map(str::to_string))
        .with("raise", raise)
}

fn raise_spans(rec: &Recorder, phase: &Phase, r: &RaiseRec, out: &mut Vec<Json>) {
    let Some(b) = boundaries(rec, r) else { return };
    let parent = phase_span_id(phase);
    let root = format!("{parent}/{}", r.id);
    out.push(span(
        "raise",
        b.issue_start,
        b.complete(),
        root.clone(),
        Some(&parent),
        Some(r.id),
    ));
    out.push(span(
        "raise_issue",
        b.issue_start,
        b.issue_end,
        format!("{root}/issue"),
        Some(&root),
        Some(r.id),
    ));
    for m in 0..rec.recipients() {
        if let (Some(s), Some(e)) = (rec.started_ns(r.id, m), rec.ended_ns(r.id, m)) {
            out.push(span(
                "handler",
                s,
                e,
                format!("{root}/handler{m}"),
                Some(&root),
                Some(r.id),
            ));
        }
    }
    out.push(span(
        "ticket_resolved",
        b.issue_end.min(b.resolved),
        b.resolved,
        format!("{root}/ticket"),
        Some(&root),
        Some(r.id),
    ));
}

fn phase_span_id(phase: &Phase) -> String {
    format!("{}#{}", phase.name, phase.round)
}

/// Write the run's spans, one JSON object per line. Returns how many.
///
/// # Errors
///
/// Directory creation or write failures.
pub fn write_spans(data: &RunData, path: &Path) -> std::io::Result<usize> {
    let mut spans = Vec::new();
    let run_start = data.phases.first().map_or(0, |p| p.before.t_ns);
    let setup_s: f64 = data.setups_s.last().copied().unwrap_or(0.0);
    let setup_ns = (setup_s * 1e9) as u64;
    let warm_ns = (data.warmup_s * 1e9) as u64;
    // Set-up ended where the first phase began; the recorder's epoch is
    // that rig's creation, so these are on the same clock as the rest.
    spans.push(span(
        "setup",
        run_start.saturating_sub(setup_ns),
        run_start,
        "setup".into(),
        None,
        None,
    ));
    spans.push(span(
        "warmup",
        run_start.saturating_sub(warm_ns),
        run_start,
        "setup/warmup".into(),
        Some("setup"),
        None,
    ));
    let traced: Vec<&Phase> = data.phases.iter().filter(|p| p.traced).collect();
    let per_phase = (SPAN_FILE_RAISES / traced.len().max(1)).max(1);
    for phase in traced {
        spans.push(span(
            phase.name,
            phase.before.t_ns,
            phase.after.t_ns,
            phase_span_id(phase),
            None,
            None,
        ));
        for r in phase.recs.iter().take(per_phase) {
            raise_spans(&data.recorder, phase, r, &mut spans);
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(file, "{}", s.render())?;
    }
    file.flush()?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_sum_to_completion_whatever_the_order() {
        // Remote async raise: call returns, handler runs, receipt last.
        let remote = Boundaries {
            issue_start: 100,
            issue_end: 140,
            handler_start: 200,
            handler_end: 210,
            resolved: 260,
        };
        assert_eq!(remote.stages(), [40, 60, 10, 50]);
        // Thread ticket resolved at mailbox store, before the handler ran.
        let early_receipt = Boundaries {
            resolved: 180,
            ..remote
        };
        assert_eq!(early_receipt.stages(), [40, 60, 10, 0]);
        // Synchronous raise: the call returns after the handler.
        let sync = Boundaries {
            issue_start: 100,
            issue_end: 300,
            handler_start: 150,
            handler_end: 250,
            resolved: 300,
        };
        assert_eq!(sync.stages(), [50, 0, 100, 50]);
        for b in [remote, early_receipt, sync] {
            assert_eq!(b.stages().iter().sum::<u64>(), b.complete() - b.issue_start);
        }
    }
}
