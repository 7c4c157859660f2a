//! The end-to-end metrics: name, unit, direction and the bound by which
//! a median may worsen before `compare` calls it a regression. The
//! README defines each; `BENCHMARK.json` lists the subset the driver
//! gates (those every workload emits and that are never zero).

/// One end-to-end metric's fixed properties.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether smaller is better.
    pub lower_is_better: bool,
    /// Share of the base median by which it may worsen (0: any increase).
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists it: its flat `end_to_end` list
    /// takes only metrics that every workload emits and that are never 0.
    pub driver_gated: bool,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better: true,
        bound,
        driver_gated: true,
    }
}

/// Reported and compared, but not in `BENCHMARK.json`'s list.
const fn report_only(metric: EndToEnd) -> EndToEnd {
    EndToEnd {
        driver_gated: false,
        ..metric
    }
}

/// The ten end-to-end metrics.
pub const END_TO_END: [EndToEnd; 10] = [
    lower("setup_s", "s", 0.15),
    EndToEnd {
        name: "raises_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.08,
        driver_gated: true,
    },
    lower("cpu_us_per_raise", "us", 0.08),
    lower("deliver_p50_us", "us", 0.10),
    lower("rtt_p50_us", "us", 0.10),
    // Diagnostics on every workload here (see `report::ungated`).
    report_only(lower("rtt_p99_us", "us", 0.10)),
    // 0 on `local_sync` by design: the driver reads them as per-layer.
    report_only(lower("wire_msgs_per_raise", "count", 0.03)),
    report_only(lower("wire_bytes_per_raise", "B", 0.03)),
    // Always 0 on a correct run: travels as `failed` / `attempted`.
    report_only(lower("failed_share", "ratio", 0.0)),
    lower("peak_rss_mb", "MiB", 0.10),
];

/// Look an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// (max − min) ÷ median above which five runs of unchanged code take a
/// (workload, metric) pair off the gated list.
pub const SPREAD_GATE: f64 = 0.10;
