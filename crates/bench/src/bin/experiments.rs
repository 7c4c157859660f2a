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
            let cache_rows = e2_thread_location::run_cache_sweep()?;
            e2_thread_location::cache_table(&cache_rows).print();
            let json = e2_thread_location::cache_json(&cache_rows);
            match std::fs::write("BENCH_e2_locate.json", &json) {
                Ok(()) => eprintln!("[e2 cache sweep written to BENCH_e2_locate.json]"),
                Err(e) => eprintln!("[e2: could not write BENCH_e2_locate.json: {e}]"),
            }
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
        "e12" => {
            let rows = e12_fanout_batch::run()?;
            e12_fanout_batch::table(&rows).print();
            let json = e12_fanout_batch::json(&rows);
            match std::fs::write("BENCH_e12_fanout_batch.json", &json) {
                Ok(()) => eprintln!("[e12 sweep written to BENCH_e12_fanout_batch.json]"),
                Err(e) => eprintln!("[e12: could not write BENCH_e12_fanout_batch.json: {e}]"),
            }
        }
        "e13" => {
            let rows = e13_overload::run()?;
            e13_overload::table(&rows).print();
            let json = e13_overload::json(&rows);
            match std::fs::write("BENCH_e13_overload.json", &json) {
                Ok(()) => eprintln!("[e13 sweep written to BENCH_e13_overload.json]"),
                Err(e) => eprintln!("[e13: could not write BENCH_e13_overload.json: {e}]"),
            }
        }
        "e14" => {
            let rows = e14_reactor_scaling::run()?;
            e14_reactor_scaling::table(&rows).print();
            let json = e14_reactor_scaling::json(&rows);
            match std::fs::write("BENCH_e14_reactor_scaling.json", &json) {
                Ok(()) => eprintln!("[e14 sweep written to BENCH_e14_reactor_scaling.json]"),
                Err(e) => eprintln!("[e14: could not write BENCH_e14_reactor_scaling.json: {e}]"),
            }
        }
        "e15" => {
            let rows = e15_zero_copy::run()?;
            e15_zero_copy::table(&rows).print();
            let json = e15_zero_copy::json(&rows);
            match std::fs::write("BENCH_e15_zero_copy.json", &json) {
                Ok(()) => eprintln!("[e15 written to BENCH_e15_zero_copy.json]"),
                Err(e) => eprintln!("[e15: could not write BENCH_e15_zero_copy.json: {e}]"),
            }
        }
        other => unreachable!("main validates experiment names, got {other:?}"),
    }
    Ok(())
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
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
        "e15",
    ];
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        all.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    // A typo must fail the CI leg that made it, before anything runs.
    if let Some(bad) = selected.iter().find(|w| !all.contains(w)) {
        eprintln!("unknown experiment {bad:?} (expected e1..e15 or all)");
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
