//! `doct-benchmark` — the repo's benchmark.
//!
//! ```text
//! doct-benchmark run --workload <name|all> --seed <u64> [--seconds N] [--trace [0|1]] [--quick] [--self-test]
//! doct-benchmark layers [--quick]
//! doct-benchmark compare A B
//! doct-benchmark gate A
//! ```
//!
//! `run` prints, per workload, one report line (every metric by name
//! with unit and sample count, the run stamp, the oracle's findings) and
//! then the driver's contract line `{correct, attempted, failed,
//! metrics}` — end-to-end metrics untraced, per-layer metrics traced. It
//! exits non-zero if the oracle found anything wrong. See README.md.

mod compare;
mod defs;
mod harness;
mod json;
mod layers;
mod oracle;
mod record;
mod report;
mod rig;
mod selftest;
mod stamp;
mod stats;
mod trace;

use harness::Options;
use json::Json;
use report::Metric;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Measured seconds per workload unless `--seconds` says otherwise
/// (`BENCHMARK.json` passes the same value).
const DEFAULT_SECONDS: f64 = 16.0;
/// `--quick`: 2 s phases, for smoke runs.
const QUICK_SECONDS: f64 = 4.0;
/// Fresh clusters built per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

const USAGE: &str = "usage:
  doct-benchmark run --workload <name|all> --seed <u64> [--seconds N] [--trace [0|1]] [--quick] [--self-test]
  doct-benchmark layers [--quick]
  doct-benchmark compare A B     judge result set B against A (files of `run` output)
  doct-benchmark gate A          five-run spread gate over one result set
workloads: unicast_warm group_fanout udp_unicast local_sync object_events";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    self_test: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        self_test: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => out.workload = value(&mut i, "--workload")?,
            "--seed" => {
                out.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(0.2..=120.0).contains(&s) {
                    return Err("--seconds must be between 0.2 and 120".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    out.trace = true;
                    i += 1;
                }
                _ => out.trace = true,
            },
            "--quick" => out.quick = true,
            "--self-test" => out.self_test = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if out.workload.is_empty() && !out.self_test {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The driver's contract line.
fn contract_line(verdict: &oracle::Verdict, metrics: &[Metric]) -> Json {
    let mut m = Json::obj();
    for metric in metrics {
        m.set(
            &metric.name,
            Json::obj()
                .with("value", metric.value)
                .with("unit", metric.unit),
        );
    }
    Json::obj()
        .with("correct", verdict.correct())
        .with("attempted", verdict.attempted.max(1))
        .with("failed", verdict.failed())
        .with("metrics", m)
}

/// Run one workload in this process and print its two lines.
fn run_one(spec: &'static rig::Spec, args: &RunArgs) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let opts = Options {
        seed: args.seed,
        seconds,
        trace: args.trace,
        setup_reps: if args.quick { 2 } else { SETUP_REPS },
        fault: None,
        warm: None,
    };
    // Traced runs also carry the per-layer drivers, so that one traced
    // invocation prints every per-layer metric.
    let layer_metrics = if args.trace {
        layers::run(if args.quick {
            layers::Budget::quick()
        } else {
            layers::Budget::full()
        })
    } else {
        Vec::new()
    };
    let data = harness::run(spec, &opts).map_err(|e| format!("{}: {e}", spec.name))?;
    let mut metrics = report::derive(&data);
    metrics.per_layer.splice(0..0, layer_metrics);

    let mut report = Json::obj()
        .with("workload", spec.name)
        .with("why", spec.why)
        .with("traced", args.trace)
        .with(
            "stamp",
            stamp::run_stamp()
                .with("seed", args.seed)
                .with("seconds", seconds)
                .with("fabric", format!("{:?}", spec.fabric).to_lowercase())
                .with("loopback", spec.fabric == doct_kernel::FabricChoice::Udp)
                .with("nodes", spec.nodes)
                .with("payload_bytes", spec.payload_len)
                .with("paced_rate_per_s", spec.paced_rate)
                .with("window", spec.window)
                .with("setup_reps", opts.setup_reps)
                .with("warm_raises", harness::warm_raises(spec))
                .with(
                    "phases",
                    data.phases
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .with("name", p.name)
                                .with("traced", p.traced)
                                .with("seconds", p.seconds())
                                .with("load", p.load)
                                .with("raises", p.completed)
                                .with("round", p.round)
                                .with("raises_per_s", p.rate())
                                .with(
                                    "rtt_p50_us",
                                    crate::stats::median(&p.rtt_ns).map(|ns| ns / 1e3),
                                )
                        })
                        .collect::<Vec<_>>(),
                ),
        )
        .with("raises_issued", data.issued())
        .with("oracle", data.verdict.to_json())
        .with("stuck_threads", data.stuck_threads);
    if args.trace {
        let path = out_dir().join(format!("trace_{}.jsonl", spec.name));
        match trace::write_spans(&data, &path) {
            Ok(n) => {
                report.set("span_file", path.display().to_string());
                report.set("spans_written", n);
            }
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    } else {
        report.set("end_to_end", report::metrics_json(&metrics.end_to_end));
        report.set("diagnostics", report::metrics_json(&metrics.diagnostics));
    }
    report.set("per_layer", report::metrics_json(&metrics.per_layer));
    println!("{}", report.render());

    let contract = if args.trace {
        &metrics.per_layer
    } else {
        metrics
            .end_to_end
            .retain(|m| defs::end_to_end(&m.name).is_some_and(|d| d.driver_gated));
        &metrics.end_to_end
    };
    println!("{}", contract_line(&data.verdict, contract).render());
    Ok(data.verdict.correct() && data.stuck_threads == 0)
}

/// `--workload all`: one child process per workload, so each workload's
/// `peak_rss_mb` is its own.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for spec in &rig::SPECS {
        let child_args: Vec<String> = args
            .iter()
            .map(|a| {
                if a == "all" {
                    spec.name.to_string()
                } else {
                    a.clone()
                }
            })
            .collect();
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(&child_args)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let parsed = parse_run(args)?;
    stamp::guard_environment(parsed.seed)?;
    if parsed.self_test {
        return selftest::run(parsed.seed);
    }
    if parsed.workload == "all" {
        return run_all(args);
    }
    let spec = rig::spec(&parsed.workload)
        .ok_or_else(|| format!("unknown workload `{}`\n{USAGE}", parsed.workload))?;
    run_one(spec, &parsed)
}

fn layers_command(args: &[String]) -> Result<bool, String> {
    let budget = match args {
        [] => layers::Budget::full(),
        [q] if q == "--quick" => layers::Budget::quick(),
        _ => return Err(USAGE.into()),
    };
    let metrics = layers::run(budget);
    let report = Json::obj()
        .with("layers", true)
        .with("stamp", stamp::run_stamp())
        .with("per_layer", report::metrics_json(&metrics));
    println!("{}", report.render());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, rest)) if cmd == "layers" => layers_command(rest),
        Some((cmd, [a, b])) if cmd == "compare" => {
            compare::compare(Path::new(a), Path::new(b)).map(|regressed| !regressed)
        }
        Some((cmd, [a])) if cmd == "gate" => compare::gate(Path::new(a)).map(|()| true),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("doct-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
