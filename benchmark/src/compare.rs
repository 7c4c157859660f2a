//! `compare A B` judges two sets of runs of the same benchmark, pair by
//! (workload, metric) pair; `gate A` applies the five-run spread gate
//! that decides which pairs are gated at all. A result set is a file of
//! report lines as `run` prints them (other lines are ignored).

use crate::defs::{self, EndToEnd, SPREAD_GATE};
use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// Runs per set below which a pair is not judged.
const MIN_RUNS: usize = 3;

/// Values of one metric on one workload, one per run.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Collect `sections` (e.g. `end_to_end`, `diagnostics`) of every report
/// line in `text`.
pub fn collect(text: &str, sections: &[&str]) -> Samples {
    let mut out = Samples::new();
    for line in text.lines() {
        let Ok(doc) = Json::parse(line) else { continue };
        let Some(workload) = doc.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for section in sections {
            for (name, metric) in doc.get(section).map_or(&[][..], Json::fields) {
                if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                    out.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    out
}

/// How two sets of runs of one (workload, metric) pair relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The second median is no worse than the first by more than the bound.
    WithinBound,
    /// Worse by more than the bound, and the runs are tight enough (or
    /// separated enough) to say so.
    Regressed,
    /// The run-to-run spread is wider than the bound: neither claim holds.
    Unresolved,
}

impl Outcome {
    fn label(self) -> &'static str {
        match self {
            Outcome::WithinBound => "within bound",
            Outcome::Regressed => "regressed",
            Outcome::Unresolved => "unresolved",
        }
    }
}

/// One judged pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// Quartiles of the base set.
    pub base: [f64; 3],
    /// Quartiles of the other set.
    pub other: [f64; 3],
    /// How much worse the other median is, as a share of the base median
    /// (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' inter-quartile spreads.
    pub spread: f64,
    /// The verdict.
    pub outcome: Outcome,
}

/// Inter-quartile spread; a set of identical values has none even when
/// its median is 0 (`failed_share`).
fn spread_of(q: [f64; 3]) -> f64 {
    if q[2] == q[0] {
        0.0
    } else if q[1] == 0.0 {
        f64::INFINITY
    } else {
        (q[2] - q[0]) / q[1].abs()
    }
}

/// Judge `other` against `base` for one metric.
pub fn judge(def: &EndToEnd, base: &[f64], other: &[f64]) -> Option<Judgement> {
    if base.len() < MIN_RUNS || other.len() < MIN_RUNS {
        return None;
    }
    let (qb, qo) = (stats::quartiles(base)?, stats::quartiles(other)?);
    let sign = if def.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if qb[1] == 0.0 {
        if qo[1] == 0.0 {
            0.0
        } else {
            f64::INFINITY * sign * qo[1].signum()
        }
    } else {
        sign * (qo[1] - qb[1]) / qb[1].abs()
    };
    let spread = spread_of(qb).max(spread_of(qo));
    // Every run of one side beyond every run of the other settles the
    // direction even when each side's own spread is wide.
    let worst = |v: &[f64]| v.iter().map(|x| x * sign).fold(f64::MIN, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| x * sign).fold(f64::MAX, f64::min);
    let all_worse = best(other) > worst(base);
    let all_better = worst(other) < best(base);
    let noisy = spread > def.bound && def.bound > 0.0;
    let outcome = if worse_by > def.bound {
        if noisy && !all_worse {
            Outcome::Unresolved
        } else {
            Outcome::Regressed
        }
    } else if noisy && !all_better {
        Outcome::Unresolved
    } else {
        Outcome::WithinBound
    };
    Some(Judgement {
        base: qb,
        other: qo,
        worse_by,
        spread,
        outcome,
    })
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare A B`: print one row per gated (workload, metric) pair.
/// Returns whether any pair regressed.
///
/// # Errors
///
/// Unreadable files, or no pair with enough runs on both sides.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let base = collect(&read(a)?, &["end_to_end"]);
    let other = collect(&read(b)?, &["end_to_end"]);
    println!(
        "{:<14} {:<22} {:>3}/{:<3} {:>12} {:>12} {:>9} {:>7} {:>6}  verdict",
        "workload", "metric", "nA", "nB", "median A", "median B", "B/A", "spread", "bound"
    );
    let (mut judged, mut regressed) = (0, false);
    for ((workload, metric), va) in &base {
        let (Some(def), Some(vb)) = (
            defs::end_to_end(metric),
            other.get(&(workload.clone(), metric.clone())),
        ) else {
            continue;
        };
        let Some(j) = judge(def, va, vb) else {
            println!(
                "{workload:<14} {metric:<22} {:>3}/{:<3} needs {MIN_RUNS} runs a side",
                va.len(),
                vb.len()
            );
            continue;
        };
        judged += 1;
        regressed |= j.outcome == Outcome::Regressed;
        println!(
            "{workload:<14} {metric:<22} {:>3}/{:<3} {:>12.4} {:>12.4} {:>9} {:>6.1}% {:>5.1}%  {} (A q1..q3 {:.4}..{:.4}, B {:.4}..{:.4}, base {:.4} {})",
            va.len(),
            vb.len(),
            j.base[1],
            j.other[1],
            // A ratio needs a base; 0 ÷ 0 (`failed_share`) has none.
            if j.base[1] == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", j.other[1] / j.base[1])
            },
            j.spread * 100.0,
            def.bound * 100.0,
            j.outcome.label(),
            j.base[0],
            j.base[2],
            j.other[0],
            j.other[2],
            j.base[1],
            def.unit,
        );
    }
    if judged == 0 {
        return Err(format!(
            "no (workload, metric) pair has {MIN_RUNS} runs in both sets"
        ));
    }
    Ok(regressed)
}

/// `gate A`: the five-run spread gate. A pair is gated only if (max −
/// min) ÷ median over the runs stays within [`SPREAD_GATE`]; otherwise
/// it belongs under `diagnostics`.
///
/// # Errors
///
/// Unreadable file or fewer than five runs of every pair.
pub fn gate(a: &Path) -> Result<(), String> {
    let samples = collect(&read(a)?, &["end_to_end", "diagnostics"]);
    println!(
        "{:<14} {:<24} {:>4} {:>12} {:>8} {:>8}  gate",
        "workload", "metric", "runs", "median", "range", "iqr"
    );
    let mut judged = 0;
    for ((workload, metric), values) in &samples {
        if defs::end_to_end(metric).is_none() || values.len() < 5 {
            continue;
        }
        judged += 1;
        let median = stats::median(values).unwrap_or(0.0);
        let same = values.iter().all(|v| *v == values[0]);
        let range = if same {
            0.0
        } else {
            stats::range_spread(values).unwrap_or(f64::INFINITY)
        };
        let iqr = if same {
            0.0
        } else {
            stats::iqr_spread(values).unwrap_or(f64::INFINITY)
        };
        let pass = range <= SPREAD_GATE;
        println!(
            "{workload:<14} {metric:<24} {:>4} {median:>12.4} {:>7.1}% {:>7.1}%  {}",
            values.len(),
            range * 100.0,
            iqr * 100.0,
            if pass { "listed" } else { "diagnostics" }
        );
    }
    if judged == 0 {
        return Err("no (workload, metric) pair has five runs".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEnd {
        defs::end_to_end(name).expect("known metric")
    }

    #[test]
    fn collects_report_lines_and_skips_the_rest() {
        let text = "\
            {\"workload\": \"w\", \"end_to_end\": {\"rtt_p50_us\": {\"value\": 50.5, \"unit\": \"us\", \"n\": 9}}, \"diagnostics\": {\"rtt_p99_us\": {\"value\": 900, \"unit\": \"us\", \"n\": 9}}}\n\
            {\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}\n\
            not json\n\
            {\"workload\": \"w\", \"end_to_end\": {\"rtt_p50_us\": {\"value\": 52, \"unit\": \"us\", \"n\": 9}}}\n";
        let got = collect(text, &["end_to_end"]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[&("w".into(), "rtt_p50_us".into())], vec![50.5, 52.0]);
        let with_diag = collect(text, &["end_to_end", "diagnostics"]);
        assert_eq!(with_diag[&("w".into(), "rtt_p99_us".into())], vec![900.0]);
    }

    #[test]
    fn verdicts_follow_bound_spread_and_separation() {
        let rtt = def("rtt_p50_us"); // lower is better, bound 10 %
        let base = [50.0, 50.5, 51.0, 49.5, 50.2];
        let same = judge(rtt, &base, &[50.4, 50.1, 49.9, 51.2, 50.6]).expect("enough runs");
        assert_eq!(same.outcome, Outcome::WithinBound);
        let slower = judge(rtt, &base, &[58.0, 57.5, 58.4, 57.9, 58.8]).expect("enough runs");
        assert_eq!(slower.outcome, Outcome::Regressed);
        assert!(slower.worse_by > 0.10 && slower.worse_by < 0.20);
        let faster = judge(rtt, &base, &[40.0, 41.0, 39.5, 40.2, 40.8]).expect("enough runs");
        assert_eq!(faster.outcome, Outcome::WithinBound);
        assert!(faster.worse_by < 0.0);
        // Same medians, but the second set's runs are all over the place.
        let noisy = judge(rtt, &base, &[30.0, 50.0, 70.0, 45.0, 62.0]).expect("enough runs");
        assert_eq!(noisy.outcome, Outcome::Unresolved);
        // Wide, but every run slower than every base run: still a regression.
        let wide_and_worse = judge(rtt, &base, &[60.0, 90.0, 75.0, 120.0, 66.0]).expect("runs");
        assert_eq!(wide_and_worse.outcome, Outcome::Regressed);
        assert_eq!(judge(rtt, &base[..2], &base), None);
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let rate = def("raises_per_s"); // bound 8 %
        let base = [60_000.0, 61_000.0, 59_500.0];
        let slower = judge(rate, &base, &[50_000.0, 50_500.0, 49_000.0]).expect("runs");
        assert_eq!(slower.outcome, Outcome::Regressed);
        let faster = judge(rate, &base, &[70_000.0, 70_500.0, 69_000.0]).expect("runs");
        assert_eq!(faster.outcome, Outcome::WithinBound);
    }

    #[test]
    fn any_increase_of_failed_share_regresses() {
        let failed = def("failed_share");
        let clean = [0.0, 0.0, 0.0];
        assert_eq!(
            judge(failed, &clean, &clean).map(|j| j.outcome),
            Some(Outcome::WithinBound)
        );
        assert_eq!(
            judge(failed, &clean, &[0.0, 1e-5, 1e-5]).map(|j| j.outcome),
            Some(Outcome::Regressed)
        );
    }
}
