//! **§4.2 / Table 1**: the ABC/JICWEBS certification sweep — 7 test
//! types × 2 ad formats × 6 browser–OS pairs × 500 automated repetitions
//! (10 manual for test 6), ≈ 36 k runs.
//!
//! Paper result to reproduce: **93.4 % correct overall**, with every
//! failure occurring in tests 4 and 5 as runs that *register no event at
//! all* — attributed to the Selenium automation, which the harness
//! models explicitly ([`qtag_certify::AutomationFaults`]). A second
//! sweep with the fault model disabled reproduces the paper's manual
//! verification ("in all of them, the in-view and out-of-view events are
//! correctly registered").
//!
//! Pass `--smoke` for a quick 2-pair × 20-rep sweep.

use qtag_bench::{format_pct, ExperimentOutput};
use qtag_certify::{run_certification, AutomationFaults, CertificationMatrix};
use serde::Serialize;

fn main() {
    let out = ExperimentOutput::from_args();
    let smoke = out.flag("--smoke");
    let matrix = if smoke {
        CertificationMatrix::smoke(20)
    } else {
        CertificationMatrix::paper()
    };

    out.section("Table 1 — certification sweep (with the automation-fault model)");
    let automated = run_certification(&matrix, AutomationFaults::paper(), 2019);
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>10}",
        "test", "runs", "correct", "silent", "accuracy"
    );
    for (num, grade) in &automated.by_scenario {
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>10}",
            num,
            grade.runs,
            grade.correct,
            grade.silent,
            format_pct(grade.accuracy())
        );
    }
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>10}   (paper: 93.4%)",
        "all",
        automated.total.runs,
        automated.total.correct,
        automated.total.silent,
        format_pct(automated.accuracy())
    );

    out.section("Manual verification (fault model disabled)");
    let manual_matrix = CertificationMatrix {
        reps: if smoke { 2 } else { 10 },
        reps_test6: if smoke { 2 } else { 10 },
        ..matrix.clone()
    };
    let manual = run_certification(&manual_matrix, AutomationFaults::none(), 77);
    println!(
        "manual runs: {}  correct: {}  accuracy: {}   (paper: all correct)",
        manual.total.runs,
        manual.total.correct,
        format_pct(manual.accuracy())
    );

    // Self-grading shape checks.
    out.section("Shape checks vs the paper");
    let failures_outside_4_5: u32 = automated
        .by_scenario
        .iter()
        .filter(|(n, _)| **n != 4 && **n != 5)
        .map(|(_, g)| g.runs - g.correct)
        .sum();
    let checks = [
        (
            "overall accuracy within 2 pp of the paper's 93.4 %",
            (automated.accuracy() - 0.934).abs() < 0.02,
        ),
        (
            "all failures occur in tests 4 and 5",
            failures_outside_4_5 == 0,
        ),
        (
            "every failure is a silent run (no event registered)",
            automated.total.runs - automated.total.correct == automated.total.silent,
        ),
        ("manual runs are 100 % correct", manual.accuracy() == 1.0),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }

    #[derive(Serialize)]
    struct Payload {
        total_runs: u32,
        accuracy: f64,
        silent: u32,
        manual_accuracy: f64,
        shape_checks_pass: bool,
    }
    out.finish(&Payload {
        total_runs: automated.total.runs,
        accuracy: automated.accuracy(),
        silent: automated.total.silent,
        manual_accuracy: manual.accuracy(),
        shape_checks_pass: all_ok,
    });
    if !all_ok {
        std::process::exit(1);
    }
}
