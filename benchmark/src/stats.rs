//! The benchmark's arithmetic in one place: percentiles with the
//! "at least ten samples beyond" rule, quartiles as the driver computes
//! them, open-loop due-time accounting, and the `/proc` parsers for CPU
//! time, peak memory and context switches.

use std::fs;

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the "percentile" is an order statistic of a handful of points.
pub const MIN_BEYOND: usize = 10;

/// Sort a sample set in place (all values are finite by construction).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The `p`-quantile (`0.0..=1.0`) of an ascending-sorted slice, linearly
/// interpolated between the two nearest ranks. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = p.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of an unsorted set. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// A tail percentile together with the evidence for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (0.99 = p99).
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Sample count of the whole set.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Percentiles a report may name, highest first.
const TAIL_CANDIDATES: [f64; 5] = [0.9999, 0.999, 0.99, 0.95, 0.90];

/// Samples beyond the `p`-quantile's rank in a set of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    // The epsilon keeps 100000 × 0.9999 = 99990.00000000001 at rank 99990.
    n - ((n as f64 * p - 1e-9).ceil() as usize).min(n)
}

/// The highest candidate percentile that still has [`MIN_BEYOND`] samples
/// beyond it. `None` when even p90 does not (fewer than ~100 samples).
pub fn highest_supported_tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| beyond(n, p) >= MIN_BEYOND)
        .and_then(|&p| tail_at(sorted, p))
}

/// The `p`-quantile with its evidence, or `None` if fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_at(sorted: &[f64], p: f64) -> Option<Tail> {
    let n = sorted.len();
    let beyond = beyond(n, p);
    if beyond < MIN_BEYOND {
        return None;
    }
    Some(Tail {
        p,
        value: percentile(sorted, p)?,
        n,
        beyond,
    })
}

/// First quartile, median, third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// `compare` and the driver agree on what a spread is. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to 1..=n-1, delta = i*(n+1) - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Inter-quartile distance as a share of the median (the driver's spread).
pub fn iqr_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// (max − min) ÷ median: the five-run spread gate of the issue.
pub fn range_spread(values: &[f64]) -> Option<f64> {
    let med = median(values)?;
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (med != 0.0).then(|| (max - min) / med.abs())
}

/// An open-loop schedule: request `k` is due at `start + k × interval`,
/// whatever happened to the requests before it. Latency is timed from the
/// due time, so a stall is charged to every request it delayed.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start_ns: u64,
    interval_ns: f64,
}

impl OpenLoop {
    /// A schedule of `rate_per_s` requests per second starting at `start_ns`.
    pub fn new(start_ns: u64, rate_per_s: f64) -> Self {
        OpenLoop {
            start_ns,
            interval_ns: 1e9 / rate_per_s,
        }
    }

    /// When request `k` is due (ns on the bench epoch).
    pub fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + (k as f64 * self.interval_ns).round() as u64
    }

    /// How many requests fit in `seconds`.
    pub fn count_in(&self, seconds: f64) -> u64 {
        (seconds * 1e9 / self.interval_ns).floor() as u64
    }
}

/// How late the open-loop generator issued its requests (ns past due).
#[derive(Debug, Clone, Default)]
pub struct Lateness {
    samples_ns: Vec<f64>,
}

/// Summary of generator lateness for the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatenessReport {
    /// Requests issued.
    pub n: usize,
    /// Median lateness, µs.
    pub p50_us: f64,
    /// p99 lateness, µs (only with ten samples beyond).
    pub p99_us: Option<f64>,
    /// Worst lateness, µs.
    pub max_us: f64,
    /// Share of requests issued more than one interval late: the
    /// generator, not the program, was the bottleneck for these.
    pub over_one_interval: f64,
}

impl Lateness {
    /// Record that a request due at `due_ns` was issued at `issued_ns`.
    pub fn record(&mut self, due_ns: u64, issued_ns: u64) {
        self.samples_ns
            .push(issued_ns.saturating_sub(due_ns) as f64);
    }

    /// Summarise against the schedule's interval.
    pub fn report(&self, interval_ns: f64) -> Option<LatenessReport> {
        let mut v = self.samples_ns.clone();
        sort(&mut v);
        let over = v.iter().filter(|&&x| x > interval_ns).count();
        Some(LatenessReport {
            n: v.len(),
            p50_us: percentile(&v, 0.5)? / 1e3,
            p99_us: tail_at(&v, 0.99).map(|t| t.value / 1e3),
            max_us: *v.last()? / 1e3,
            over_one_interval: over as f64 / v.len() as f64,
        })
    }
}

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every mainstream architecture (it is an ABI constant, not `CONFIG_HZ`).
pub const USER_HZ: f64 = 100.0;

/// CPU time consumed by the process, split by mode.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTime {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl CpuTime {
    /// User + system seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// `later − self`.
    pub fn until(&self, later: &CpuTime) -> CpuTime {
        CpuTime {
            user_s: later.user_s - self.user_s,
            sys_s: later.sys_s - self.sys_s,
        }
    }
}

/// Parse `utime` and `stime` (fields 14 and 15) out of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTime> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime/stime are fields 14/15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_s: utime / USER_HZ,
        sys_s: stime / USER_HZ,
    })
}

/// CPU time of this process so far.
pub fn process_cpu() -> Option<CpuTime> {
    parse_stat_cpu(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Value of a `Key:   123 kB`-style line of `/proc/<pid>/status`.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    status_field(status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&fs::read_to_string("/proc/self/status").ok()?)
}

/// Voluntary + involuntary context switches of one task, from its
/// `status` text.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    Some(
        status_field(status, "voluntary_ctxt_switches")?
            + status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// Context switches summed over every live thread of this process.
/// Threads that have exited are not counted, so take deltas only across
/// windows in which no thread ends.
pub fn process_ctx_switches() -> Option<u64> {
    let mut total = 0;
    for entry in fs::read_dir("/proc/self/task").ok()?.flatten() {
        // A thread can exit between the listing and the read.
        if let Ok(text) = fs::read_to_string(entry.path().join("status")) {
            total += parse_ctx_switches(&text).unwrap_or(0);
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(40.0));
        assert_eq!(percentile(&v, 0.5), Some(25.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn a_p99_of_thirty_samples_is_refused() {
        // The BENCH_e*.json rows this benchmark replaces reported a "p99"
        // of 28–30 samples; that is a maximum, and is not reported here.
        let thirty: Vec<f64> = (0..30).map(f64::from).collect();
        assert_eq!(tail_at(&thirty, 0.99), None);
        assert_eq!(highest_supported_tail(&thirty), None);
    }

    #[test]
    fn highest_tail_has_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = highest_supported_tail(&v).expect("p99 is supported by 1000");
        assert_eq!(t.p, 0.99);
        assert_eq!(t.n, 1000);
        assert_eq!(t.beyond, 10);
        // 999 samples leave nine beyond p99: fall back to p95.
        assert_eq!(highest_supported_tail(&v[..999]).map(|t| t.p), Some(0.95));
        let big: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(highest_supported_tail(&big).map(|t| t.p), Some(0.9999));
        assert_eq!(highest_supported_tail(&v[..100]).map(|t| t.p), Some(0.90));
        assert_eq!(highest_supported_tail(&v[..99]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_spread(&v), Some(1.0));
        assert_eq!(range_spread(&[9.0, 10.0, 11.0]), Some(0.2));
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        let s = OpenLoop::new(1_000, 10_000.0);
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(3), 301_000);
        assert_eq!(s.count_in(8.0), 80_000);
        let mut late = Lateness::default();
        // A 1 ms stall at request 5 delays 5..15; each is charged from
        // its own due time, not from when the generator got round to it.
        for k in 0..100u64 {
            let due = s.due_ns(k);
            let stall = if (5..15).contains(&k) {
                1_000_000 - (k - 5) * 100_000
            } else {
                200
            };
            late.record(due, due + stall);
        }
        let r = late.report(100_000.0).expect("non-empty");
        assert_eq!(r.n, 100);
        assert_eq!(r.p50_us, 0.2);
        assert_eq!(r.max_us, 1000.0);
        assert!((r.over_one_interval - 0.09).abs() < 1e-9, "{r:?}");
        assert!(r.p99_us.is_none(), "one sample beyond p99 is not a p99");
    }

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 9 0 100 1 2";
        let cpu = parse_stat_cpu(stat).expect("parses");
        assert_eq!(cpu.user_s, 2.5);
        assert_eq!(cpu.sys_s, 0.5);
        assert_eq!(cpu.total_s(), 3.0);
        let later = CpuTime {
            user_s: 4.0,
            sys_s: 1.5,
        };
        assert_eq!(cpu.until(&later).sys_s, 1.0);
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_ctx_switches(status), Some(15));
        assert_eq!(parse_vm_hwm_mib("Name: x\n"), None);
    }

    #[test]
    fn live_proc_files_are_readable() {
        let cpu = process_cpu().expect("/proc/self/stat");
        assert!(cpu.total_s() >= 0.0);
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        assert!(process_ctx_switches().is_some());
    }
}
