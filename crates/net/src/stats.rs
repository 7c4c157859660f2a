//! Network statistics: the measurement instrument for the communication
//! cost experiments. A series is declared once — a [`NetStats`] field,
//! its binding in [`NetStats::bound`], one row of the table in
//! [`NetStats::snapshot`] — written through the handle
//! (`stats.retransmits.inc()`) and read as `.get()` or by diffing two
//! [`StatsSnapshot`]s.

use crate::MessageClass;
use doct_telemetry::{Counter, Histogram, Registry};
use std::fmt;

/// Counters shared by every sender on a [`crate::Network`].
///
/// Plain telemetry handles; a stats block built with [`NetStats::bound`]
/// shares storage with the named series in a [`Registry`]
/// (`net.sent.<class>`, `net.bytes.<class>`, `net.<field>`), so metric
/// snapshots and these handles always agree. All counters are
/// monotonically increasing; take a [`NetStats::snapshot`] before and
/// after the region of interest and [`StatsSnapshot::delta`] them.
#[derive(Debug, Default)]
pub struct NetStats {
    sent: [Counter; 6],
    bytes: [Counter; 6],
    /// Broadcast operations (each also counts its per-node sends). A
    /// caller that expands a wave itself, to hand the fabric co-destined
    /// payloads in one [`crate::Network::send_many`] batch, counts the
    /// operation here as [`crate::Network::broadcast`] does.
    pub broadcasts: Counter,
    /// Multicast operations (each also counts its per-node sends).
    pub multicasts: Counter,
    /// Unicast probes sent on a location-cache hint instead of a locator
    /// wave. Each also counts a normal per-class send; this series
    /// isolates how often the fast path fires.
    pub hint_unicasts: Counter,
    /// Backpressure signals noted from overloaded peers (each starts or
    /// extends a source-shedding hold toward that peer). The signal rides
    /// delivery receipts, so this counts observations, not extra wire
    /// messages.
    pub backpressure_signals: Counter,
    /// Messages dropped by cut links, partitions or dead nodes.
    pub dropped: Counter,
    /// Physical transmissions (first sends and retransmissions alike).
    /// A batch counts once however many payloads it carries, so
    /// `wire_msgs` vs per-class `sent` is the batching win (E12).
    pub wire_msgs: Counter,
    /// Batches sealed from an accumulation buffer (2+ payloads each;
    /// singleton flushes go out as plain envelopes and do not count).
    pub batches_sent: Counter,
    /// Payloads per sealed batch, recorded as raw units (not time).
    pub batch_fill: Histogram,
    /// Acks saved by cumulative acknowledgement: each ack covering a
    /// contiguous run of `n` transfers adds `n - 1` here.
    pub acks_coalesced: Counter,
    // Reliability-layer series. Retransmissions and acks are deliberately
    // *not* folded into the per-class send counts above: the experiments
    // read those as protocol cost, and the reliability layer's overhead
    // is a separate question answered by these counters (E11).
    /// Retransmission attempts made by the reliability layer.
    pub retransmits: Counter,
    /// Cumulative ack messages received (one per contiguous run).
    pub acks: Counter,
    /// Retransmitted duplicates suppressed at the receiver.
    pub dup_drops: Counter,
    /// Reliable transfers abandoned after exhausting their retries.
    pub giveups: Counter,
    /// Heartbeat probes exchanged by the failure detector.
    pub heartbeats: Counter,
    /// Alive→Suspected transitions observed by the failure detector.
    pub suspects: Counter,
    /// Transitions into the Dead verdict.
    pub deaths: Counter,
    /// Send→ack round-trip latency, one sample per retired transfer.
    pub ack_latency: Histogram,
    /// Payload bytes deep-copied in-process (mirrored from
    /// [`crate::Bytes::deep_copied_bytes`] by E15; zero while the
    /// raise/deliver hot path stays on shared buffers, DESIGN.md §3g).
    pub bytes_copied: Counter,
    /// Datagrams rejected at delivery/receive admission: a transfer
    /// claiming the best-effort `seq: 0` while reliability is on, or a
    /// frame misaddressed / naming out-of-range node ids on the socket
    /// backend. A hostile peer shows up here, never as a panic.
    pub wire_rejects: Counter,
    /// Received datagrams that failed the wire codec (truncated,
    /// oversized, bad magic/kind/class, zero-seq batch) plus transfers
    /// the codec refused to encode; socket backend only.
    pub codec_errors: Counter,
    /// Envelope-pool takes served from the free list (no allocation).
    pub pool_hits: Counter,
    /// Envelope-pool takes that had to allocate a fresh buffer.
    pub pool_misses: Counter,
    /// Buffers returned to the pool free list on ACK-retire or
    /// delivery-unpack.
    pub pool_recycled: Counter,
}

impl NetStats {
    /// New zeroed counters, not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters that share storage with the registry's named series.
    pub fn bound(registry: &Registry) -> Self {
        NetStats {
            sent: MessageClass::ALL.map(|c| registry.counter(&format!("net.sent.{c}"))),
            bytes: MessageClass::ALL.map(|c| registry.counter(&format!("net.bytes.{c}"))),
            broadcasts: registry.counter("net.broadcasts"),
            multicasts: registry.counter("net.multicasts"),
            hint_unicasts: registry.counter("net.hint_unicasts"),
            backpressure_signals: registry.counter("net.backpressure_signals"),
            dropped: registry.counter("net.dropped"),
            wire_msgs: registry.counter("net.wire_msgs"),
            batches_sent: registry.counter("net.batches_sent"),
            batch_fill: registry.histogram("net.batch_fill"),
            acks_coalesced: registry.counter("net.acks_coalesced"),
            retransmits: registry.counter("net.retransmits"),
            acks: registry.counter("net.acks"),
            dup_drops: registry.counter("net.dup_drops"),
            giveups: registry.counter("net.giveups"),
            heartbeats: registry.counter("net.heartbeats"),
            suspects: registry.counter("net.suspects"),
            deaths: registry.counter("net.deaths"),
            ack_latency: registry.histogram("net.ack_latency"),
            bytes_copied: registry.counter("net.bytes_copied"),
            wire_rejects: registry.counter("net.wire_rejects"),
            codec_errors: registry.counter("net.codec_errors"),
            pool_hits: registry.counter("net.pool_hits"),
            pool_misses: registry.counter("net.pool_misses"),
            pool_recycled: registry.counter("net.pool_recycled"),
        }
    }

    pub(crate) fn record_send(&self, class: MessageClass, bytes: usize) {
        self.sent[class as usize].inc();
        self.bytes[class as usize].add(bytes as u64);
    }

    pub(crate) fn record_batch(&self, fill: usize) {
        self.batches_sent.inc();
        self.batch_fill.record_ns(fill as u64);
    }

    /// One ack message covering a contiguous run that retired `retired`
    /// transfers.
    pub(crate) fn record_cumulative_ack(&self, retired: u64) {
        self.acks.inc();
        if retired > 1 {
            self.acks_coalesced.add(retired - 1);
        }
    }

    /// Messages sent in `class` since construction.
    pub fn sent(&self, class: MessageClass) -> u64 {
        self.sent[class as usize].get()
    }

    /// A point-in-time copy of every series: `sent.<class>` and
    /// `bytes.<class>`, each counter under its registry name less the
    /// `net.` prefix, each histogram as `<name>.count` and `<name>.sum`.
    pub fn snapshot(&self) -> StatsSnapshot {
        let counters = [
            ("broadcasts", &self.broadcasts),
            ("multicasts", &self.multicasts),
            ("hint_unicasts", &self.hint_unicasts),
            ("backpressure_signals", &self.backpressure_signals),
            ("dropped", &self.dropped),
            ("wire_msgs", &self.wire_msgs),
            ("batches_sent", &self.batches_sent),
            ("acks_coalesced", &self.acks_coalesced),
            ("retransmits", &self.retransmits),
            ("acks", &self.acks),
            ("dup_drops", &self.dup_drops),
            ("giveups", &self.giveups),
            ("heartbeats", &self.heartbeats),
            ("suspects", &self.suspects),
            ("deaths", &self.deaths),
            ("bytes_copied", &self.bytes_copied),
            ("wire_rejects", &self.wire_rejects),
            ("codec_errors", &self.codec_errors),
            ("pool_hits", &self.pool_hits),
            ("pool_misses", &self.pool_misses),
            ("pool_recycled", &self.pool_recycled),
        ];
        let histograms = [
            ("batch_fill", &self.batch_fill),
            ("ack_latency", &self.ack_latency),
        ];
        let mut rows = Vec::with_capacity(12 + counters.len() + 2 * histograms.len());
        for (prefix, series) in [("sent", &self.sent), ("bytes", &self.bytes)] {
            for c in MessageClass::ALL {
                rows.push((format!("{prefix}.{c}"), series[c as usize].get()));
            }
        }
        rows.extend(counters.map(|(name, c)| (name.to_string(), c.get())));
        for (name, h) in histograms {
            rows.push((format!("{name}.count"), h.count()));
            rows.push((format!("{name}.sum"), h.sum_ns()));
        }
        StatsSnapshot { rows }
    }
}

/// Plain-data copy of every [`NetStats`] series; subtract two snapshots
/// with [`StatsSnapshot::delta`] to get the traffic of a region.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// `(series, value)` in [`NetStats::snapshot`]'s table order.
    rows: Vec<(String, u64)>,
}

impl StatsSnapshot {
    /// The value of `series` (`"wire_msgs"`, `"sent.locate"`,
    /// `"batch_fill.sum"`, …).
    ///
    /// # Panics
    ///
    /// Panics if [`NetStats::snapshot`] has no row of that name, so a
    /// misspelt series fails loudly instead of reading as zero.
    pub fn get(&self, series: &str) -> u64 {
        match self.rows.iter().find(|(name, _)| name == series) {
            Some(&(_, v)) => v,
            None => panic!("no net series named {series:?}"),
        }
    }

    /// Messages sent in `class`.
    pub fn sent(&self, class: MessageClass) -> u64 {
        self.get(&format!("sent.{class}"))
    }

    /// Total messages across all classes.
    pub fn total_sent(&self) -> u64 {
        self.sum_of("sent.")
    }

    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.sum_of("bytes.")
    }

    fn sum_of(&self, prefix: &str) -> u64 {
        let rows = self.rows.iter();
        let matching = rows.filter(|(name, _)| name.starts_with(prefix));
        matching.map(|(_, v)| v).sum()
    }

    /// Traffic between this snapshot (earlier) and `later`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `later` is not row-wise `>= self`
    /// (snapshots of one stats block are monotone).
    pub fn delta(&self, later: &StatsSnapshot) -> StatsSnapshot {
        let pairs = self.rows.iter().zip(&later.rows);
        let rows = pairs.map(|((name, before), (later_name, after))| {
            debug_assert_eq!(name, later_name, "snapshots of different tables");
            debug_assert!(after >= before, "non-monotone snapshot of {name}");
            (name.clone(), after - before)
        });
        let rows = rows.collect();
        StatsSnapshot { rows }
    }
}

/// Totals, then every non-zero series (`sent.<class>` as bare `<class>`;
/// the per-class byte rows are summed into `bytes=` only).
impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msgs={} bytes={}", self.total_sent(), self.total_bytes())?;
        for (name, v) in &self.rows {
            if *v > 0 && !name.starts_with("bytes.") {
                write!(f, " {}={v}", name.strip_prefix("sent.").unwrap_or(name))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every series `bound` registers, written through the registry by
    /// name, reads the same from the handle, the snapshot and the delta.
    #[test]
    fn every_bound_series_agrees_across_registry_snapshot_and_delta() {
        let registry = Registry::new();
        let s = NetStats::bound(&registry);
        let before = s.snapshot();
        assert_eq!(before, NetStats::new().snapshot(), "unbound rows differ");
        let names = registry.snapshot();
        let mut expected = Vec::new();
        for (i, name) in names.counters.keys().enumerate() {
            let amount = 3 + i as u64;
            registry.counter(name).add(amount);
            expected.push((name["net.".len()..].to_string(), amount));
        }
        for (i, name) in names.histograms.keys().enumerate() {
            let amount = 100 + i as u64;
            registry.histogram(name).record_ns(amount);
            registry.histogram(name).record_ns(amount);
            let short = &name["net.".len()..];
            expected.push((format!("{short}.count"), 2));
            expected.push((format!("{short}.sum"), 2 * amount));
        }
        let after = s.snapshot();
        let delta = before.delta(&after);
        assert_eq!(after.rows.len(), expected.len(), "a series has no row");
        for (series, amount) in &expected {
            assert_eq!(after.get(series), *amount, "snapshot row {series}");
            assert_eq!(delta.get(series), *amount, "delta row {series}");
        }
        // The handles are the registry's storage, read as `.get()`.
        assert_eq!(s.retransmits.get(), after.get("retransmits"));
        assert_eq!(s.sent(MessageClass::Event), after.get("sent.event"));
    }

    /// The `net.*` names `benchmark/` reads from the registry by name: a
    /// rename must fail here, not in the pipeline.
    #[test]
    fn names_the_benchmark_reads_are_registered() {
        let registry = Registry::new();
        let s = NetStats::bound(&registry);
        s.record_batch(4);
        s.record_cumulative_ack(3);
        let snap = registry.snapshot();
        let counters = "acks acks_coalesced batches_sent bytes_copied dup_drops heartbeats \
                        hint_unicasts pool_hits pool_misses retransmits wire_msgs";
        for name in counters.split_whitespace().map(|n| format!("net.{n}")) {
            assert!(snap.counters.contains_key(&name), "{name} not registered");
        }
        let fill = &snap.histograms["net.batch_fill"];
        assert_eq!((fill.count, fill.sum_ns), (1, 4), "fill is raw units");
        assert_eq!(snap.counters["net.acks"], 1, "a cumulative ack is one ack");
        assert_eq!(snap.counters["net.acks_coalesced"], 2, "3 retired saves 2");
    }

    #[test]
    fn display_lists_only_nonzero_classes() {
        let s = NetStats::new();
        s.record_send(MessageClass::Event, 10);
        s.dropped.inc();
        let text = s.snapshot().to_string();
        assert!(text.starts_with("msgs=1 bytes=10 event=1"), "got: {text}");
        assert!(text.contains("dropped=1"), "got: {text}");
        assert!(!text.contains("dsm="), "got: {text}");
    }
}
