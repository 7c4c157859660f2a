//! The correctness oracle every workload runs before it reports a number:
//! exactly-once handler invocation per (raise, recipient), every ticket
//! `Delivered`, the five-term delivery ledger balanced, the facility's own
//! handler count agreeing with the harness's, and no wire traffic on the
//! single-node workload. Anything else counts into `failed_share`.

use crate::json::Json;
use crate::record::Recorder;
use std::collections::BTreeMap;

/// What the harness observed, handed to [`judge`].
pub struct Evidence<'a> {
    /// The handlers' invocation table.
    pub recorder: &'a Recorder,
    /// The raise ids issued, warm-up included, as strided runs of
    /// `(first, step, count)`.
    pub ids: Vec<(u64, u64, u64)>,
    /// Recipient receipts that resolved to anything but `Delivered`
    /// (dead, timed out, lost, overloaded), or never resolved.
    pub not_delivered: u64,
    /// The cluster's counters once the run is quiescent.
    pub counters: &'a BTreeMap<String, u64>,
    /// Handlers the facility must have run per bench-handler invocation
    /// (16 on the chained workload, 1 elsewhere).
    pub handlers_per_invocation: u64,
    /// Whether the workload is confined to one node.
    pub single_node: bool,
}

/// The oracle's findings, each a count of recipients (or raises) wrong.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Recipients attempted: raises × recipients per raise.
    pub attempted: u64,
    /// Handler invocations the harness counted.
    pub invocations: u64,
    /// Receipts not `Delivered`.
    pub not_delivered: u64,
    /// (raise, recipient) pairs whose handler never ran.
    pub missing: u64,
    /// Handler invocations beyond the first for a (raise, recipient).
    pub duplicates: u64,
    /// |requested − (delivered + dead + timeout + lost + overloaded)|.
    pub ledger_imbalance: u64,
    /// Deliveries with an unreadable payload header.
    pub malformed: u64,
    /// |facility.handlers_run − expected|: non-zero when the facility is
    /// not installed (the kernel's default dispatcher runs no handler) or
    /// runs handlers the harness did not see.
    pub facility_mismatch: u64,
    /// Wire messages sent by a workload that must send none.
    pub wire_on_single_node: u64,
}

impl Verdict {
    /// Everything that went wrong, as one count.
    pub fn failed(&self) -> u64 {
        self.not_delivered
            + self.missing
            + self.duplicates
            + self.ledger_imbalance
            + self.malformed
            + self.facility_mismatch
            + self.wire_on_single_node
    }

    /// `failed ÷ attempted` (1.0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed() as f64 / self.attempted as f64
    }

    /// Whether the run's outputs are correct.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed() == 0
    }

    /// For the report.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("recipients_attempted", self.attempted)
            .with("handler_invocations", self.invocations)
            .with("not_delivered", self.not_delivered)
            .with("missing", self.missing)
            .with("duplicates", self.duplicates)
            .with("ledger_imbalance", self.ledger_imbalance)
            .with("malformed", self.malformed)
            .with("facility_mismatch", self.facility_mismatch)
            .with("wire_on_single_node", self.wire_on_single_node)
    }
}

/// `delivery.requested` against the sum of its five outcomes.
pub fn ledger_imbalance(counters: &BTreeMap<String, u64>) -> u64 {
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    let resolved = get("delivery.delivered")
        + get("delivery.dead")
        + get("delivery.timeout")
        + get("delivery.lost")
        + get("delivery.overloaded");
    get("delivery.requested").abs_diff(resolved)
}

/// Judge a finished, quiescent run.
pub fn judge(ev: &Evidence<'_>) -> Verdict {
    let rec = ev.recorder;
    let issued: u64 = ev.ids.iter().map(|&(_, _, count)| count).sum();
    let mut v = Verdict {
        attempted: issued * rec.recipients(),
        invocations: rec.handled(),
        not_delivered: ev.not_delivered,
        malformed: rec.malformed(),
        ledger_imbalance: ledger_imbalance(ev.counters),
        ..Verdict::default()
    };
    let ids = ev
        .ids
        .iter()
        .flat_map(|&(first, step, count)| (0..count).map(move |k| first + k * step));
    for id in ids {
        for member in 0..rec.recipients() {
            match rec.hits(id, member) {
                0 => v.missing += 1,
                n => v.duplicates += u64::from(n) - 1,
            }
        }
    }
    let handlers_run = ev
        .counters
        .get("facility.handlers_run")
        .copied()
        .unwrap_or(0);
    v.facility_mismatch = handlers_run.abs_diff(v.invocations * ev.handlers_per_invocation);
    if ev.single_node {
        v.wire_on_single_node = ev.counters.get("net.wire_msgs").copied().unwrap_or(0);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{payload, RecordFault};

    fn counters(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn run(fault: Option<RecordFault>, issued: u64) -> Recorder {
        let rec = Recorder::new(2, 1, fault);
        let template = vec![0u8; 16];
        for id in 0..issued {
            for member in 0..2 {
                rec.enter(&payload(&template, id, 0), member);
            }
        }
        rec
    }

    fn clean_counters(invocations: u64) -> BTreeMap<String, u64> {
        counters(&[
            ("delivery.requested", invocations),
            ("delivery.delivered", invocations),
            ("facility.handlers_run", invocations),
            ("net.wire_msgs", 40),
        ])
    }

    #[test]
    fn a_clean_run_is_correct() {
        let rec = run(None, 10);
        let c = clean_counters(20);
        let v = judge(&Evidence {
            recorder: &rec,
            ids: vec![(0, 1, 10)],
            not_delivered: 0,
            counters: &c,
            handlers_per_invocation: 1,
            single_node: false,
        });
        assert!(v.correct(), "{v:?}");
        assert_eq!((v.attempted, v.invocations, v.failed()), (20, 20, 0));
        assert_eq!(v.failed_share(), 0.0);
    }

    fn evidence<'a>(rec: &'a Recorder, counters: &'a BTreeMap<String, u64>) -> Evidence<'a> {
        Evidence {
            recorder: rec,
            ids: vec![(0, 1, 10)],
            not_delivered: 0,
            counters,
            handlers_per_invocation: 1,
            single_node: false,
        }
    }

    #[test]
    fn each_kind_of_fault_is_counted() {
        let c = clean_counters(20);
        let dropped = run(Some(RecordFault::DropHit(4)), 10);
        assert_eq!(judge(&evidence(&dropped, &c)).missing, 2);
        let doubled = run(Some(RecordFault::DoubleHit(4)), 10);
        assert_eq!(judge(&evidence(&doubled, &c)).duplicates, 2);

        let clean = run(None, 10);
        let v = judge(&Evidence {
            not_delivered: 3,
            ..evidence(&clean, &c)
        });
        assert_eq!((v.not_delivered, v.correct()), (3, false));

        let skewed = counters(&[
            ("delivery.requested", 21),
            ("delivery.delivered", 19),
            ("delivery.dead", 1),
            ("facility.handlers_run", 20),
        ]);
        assert_eq!(judge(&evidence(&clean, &skewed)).ledger_imbalance, 1);

        // No facility installed: the kernel default runs no handlers, so
        // the facility's counter stays 0 while nothing reaches the bench.
        let silent = Recorder::new(2, 1, None);
        let none = counters(&[("delivery.requested", 20), ("delivery.delivered", 20)]);
        let v = judge(&evidence(&silent, &none));
        assert_eq!((v.missing, v.correct()), (20, false));

        let v = judge(&Evidence {
            single_node: true,
            ..evidence(&clean, &c)
        });
        assert_eq!(v.wire_on_single_node, 40);

        let v = judge(&Evidence {
            handlers_per_invocation: 16,
            ..evidence(&clean, &c)
        });
        assert_eq!(v.facility_mismatch, 300);
    }

    #[test]
    fn strided_id_runs_are_all_checked() {
        // Two interleaved raisers, the second one raise behind.
        let rec = Recorder::new(1, 1, None);
        let template = vec![0u8; 16];
        for id in [0u64, 2, 4, 1, 3] {
            rec.enter(&payload(&template, id, 0), 0);
        }
        let c = clean_counters(5);
        let v = judge(&Evidence {
            ids: vec![(0, 2, 3), (1, 2, 3)],
            ..evidence(&rec, &c)
        });
        assert_eq!((v.attempted, v.missing), (6, 1), "id 5 never ran");
    }

    #[test]
    fn nothing_attempted_is_not_correct() {
        let rec = Recorder::new(1, 1, None);
        let c = counters(&[]);
        let v = judge(&Evidence {
            recorder: &rec,
            ids: Vec::new(),
            not_delivered: 0,
            counters: &c,
            handlers_per_invocation: 1,
            single_node: false,
        });
        assert!(!v.correct());
        assert_eq!(v.failed_share(), 1.0);
    }
}
