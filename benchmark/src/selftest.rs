//! `run --self-test`: seed one fault of each kind the oracle claims to
//! catch, and check that it does. A clean run must pass; every faulty
//! run must fail, in the category the fault belongs to.

use crate::harness::{self, Options, RunData};
use crate::oracle::{self, Evidence, Verdict};
use crate::record::RecordFault;
use crate::rig::{self, Fault};

/// A short `unicast_warm`: ~1 000 paced raises and a brief closed loop.
fn short_run(seed: u64, fault: Option<Fault>) -> Result<RunData, String> {
    let spec = rig::spec("unicast_warm").expect("unicast_warm is a workload");
    let opts = Options {
        seed,
        seconds: 0.2,
        trace: false,
        setup_reps: 1,
        fault,
        warm: Some(200),
    };
    harness::run(spec, &opts).map_err(|e| e.to_string())
}

/// Judge `data` again with doctored counters, as if the program had
/// reported them.
fn rejudge(data: &RunData, single_node: bool, doctor: impl Fn(&str, u64) -> u64) -> Verdict {
    let counters = data
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), doctor(k, *v)))
        .collect();
    oracle::judge(&Evidence {
        recorder: &data.recorder,
        ids: data.ids.clone(),
        not_delivered: data.not_delivered,
        counters: &counters,
        handlers_per_invocation: data.spec.chain_depth,
        single_node,
    })
}

/// Run the fault matrix. `Ok(true)` when the oracle caught every fault.
///
/// # Errors
///
/// A run that could not be built at all.
pub fn run(seed: u64) -> Result<bool, String> {
    let mut all = true;
    let mut check = |what: &str, verdict: &Verdict, caught: bool| {
        println!(
            "self-test: {:<44} {} (failed {} of {})",
            what,
            if caught { "ok" } else { "MISSED" },
            verdict.failed(),
            verdict.attempted
        );
        all &= caught;
    };
    // Raise ids 0..200 are warm-up; 300 is early in the paced phase.
    let victim = 300;

    let clean = short_run(seed, None)?;
    check("clean run passes", &clean.verdict, clean.verdict.correct());

    let v = short_run(seed, Some(Fault::Record(RecordFault::DropHit(victim))))?.verdict;
    check(
        "handler invocation missing",
        &v,
        v.missing == 1 && !v.correct(),
    );

    let v = short_run(seed, Some(Fault::Record(RecordFault::DoubleHit(victim))))?.verdict;
    check(
        "handler invoked twice",
        &v,
        v.duplicates == 1 && !v.correct(),
    );

    let v = short_run(seed, Some(Fault::DeadTarget(victim)))?.verdict;
    check(
        "recipient not delivered",
        &v,
        v.not_delivered == 1 && v.missing == 1 && !v.correct(),
    );

    let v = short_run(seed, Some(Fault::NoFacility))?.verdict;
    check(
        "event facility not installed",
        &v,
        v.missing == v.attempted && v.invocations == 0 && !v.correct(),
    );

    let v = rejudge(&clean, false, |name, value| {
        value + u64::from(name == "delivery.requested")
    });
    check(
        "ledger out of balance",
        &v,
        v.ledger_imbalance == 1 && !v.correct(),
    );

    let v = rejudge(&clean, false, |name, value| {
        value + 5 * u64::from(name == "facility.handlers_run")
    });
    check(
        "facility ran handlers the bench did not see",
        &v,
        v.facility_mismatch == 5 && !v.correct(),
    );

    let v = rejudge(&clean, true, |_, value| value);
    check(
        "wire traffic on a single-node workload",
        &v,
        v.wire_on_single_node > 0 && !v.correct(),
    );

    println!("self-test: {}", if all { "PASS" } else { "FAIL" });
    Ok(all)
}
