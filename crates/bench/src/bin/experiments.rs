//! Experiment driver: regenerates every table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p doct-bench --release --bin experiments -- all
//! cargo run -p doct-bench --release --bin experiments -- e2 e6
//! cargo run -p doct-bench --release --bin experiments -- --telemetry all
//! ```
//!
//! With `--telemetry`, each experiment is followed by the JSON telemetry
//! snapshot(s) its clusters recorded (metrics plus the newest trace
//! records); without it a one-line summary per snapshot is printed.

use doct_bench::*;

fn run_one(which: &str) -> Result<(), doct_kernel::KernelError> {
    match which {
        "e1" => e1_raise_table::table(&e1_raise_table::run()?).print(),
        "e2" => {
            e2_thread_location::table(&e2_thread_location::run()?).print();
            e2_thread_location::moving_table(&e2_thread_location::run_moving()?).print();
            e2_thread_location::cache_table(&e2_thread_location::run_cache_sweep()?).print();
        }
        "e3" => e3_master_thread::table(&e3_master_thread::run()?).print(),
        "e4" => {
            e4_event_vs_invocation::table(&e4_event_vs_invocation::run()?).print();
            e4_event_vs_invocation::density_table(&e4_event_vs_invocation::run_density()?).print();
        }
        "e5" => e5_chain_unwind::table(&e5_chain_unwind::run()?).print(),
        "e6" => e6_distributed_ctrl_c::table(&e6_distributed_ctrl_c::run()?).print(),
        "e7" => {
            let rows = e7_external_pager::run()?;
            let copies = e7_external_pager::run_copies()?;
            e7_external_pager::table(&rows, copies).print();
        }
        "e8" => e8_rpc_vs_dsm::table(&e8_rpc_vs_dsm::run()?).print(),
        "e9" => e9_monitor_overhead::table(&e9_monitor_overhead::run()?).print(),
        "e10" => e10_interest_lists::table(&e10_interest_lists::run()?).print(),
        "e11" => e11_partition_heal::table(&e11_partition_heal::run()?).print(),
        "e12" => e12_fanout_batch::table(&e12_fanout_batch::run()?).print(),
        "e13" => {
            let rows = e13_overload::run()?;
            e13_overload::table(&rows).print();
            write_bench("BENCH_e13_overload.json", &e13_overload::json(&rows));
        }
        "e15" => e15_zero_copy::table(&e15_zero_copy::run()?).print(),
        other => unreachable!("main validates experiment names, got {other:?}"),
    }
    Ok(())
}

/// Record a timing sweep no `benchmark/` workload covers (E13 overload
/// shedding) in the working directory.
fn write_bench(file: &str, json: &str) {
    match std::fs::write(file, json) {
        Ok(()) => eprintln!("[sweep written to {file}]"),
        Err(e) => eprintln!("[could not write {file}: {e}]"),
    }
}

/// Print what the experiment's clusters recorded: full JSON documents
/// with `--telemetry`, a one-line digest per snapshot otherwise.
fn emit_telemetry(full_json: bool) {
    for (label, json) in telemetry_out::drain() {
        if full_json {
            println!("{json}");
        } else {
            eprintln!(
                "[telemetry {label}: {} bytes of JSON; re-run with --telemetry to print]",
                json.len()
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full_json = args.iter().any(|a| a == "--telemetry");
    let args: Vec<String> = args.into_iter().filter(|a| a != "--telemetry").collect();
    let all = [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e15",
    ];
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        all.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    // A typo must fail the CI leg that made it, before anything runs.
    if let Some(bad) = selected.iter().find(|w| !all.contains(w)) {
        eprintln!("unknown experiment {bad:?} (expected e1..e13, e15 or all)");
        std::process::exit(2);
    }
    for which in selected {
        let t0 = std::time::Instant::now();
        match run_one(which) {
            Ok(()) => {
                emit_telemetry(full_json);
                eprintln!("[{which} done in {:.1?}]", t0.elapsed());
            }
            Err(e) => {
                eprintln!("[{which} FAILED: {e}]");
                std::process::exit(1);
            }
        }
    }
}
