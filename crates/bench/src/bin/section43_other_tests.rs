//! **§4.3 "Other tests"**: the four extra lab validations.
//!
//! * In-view event accuracy over 10 000 random double-iframe placements
//!   (paper: correct in all 10 000 cases);
//! * mobile in-app ads, two creative sizes (paper: both notified
//!   correctly);
//! * adblockers (Adblock Plus model) and Brave: 50 positions × 3 ad
//!   types each — neither ad nor tag may deploy, no beacon may flow;
//! * privacy-enhanced browsers (third-party cookies blocked): Q-Tag
//!   must operate normally.
//!
//! Pass `--smoke` to cut the placement sweep to 300 cases.

use qtag_bench::{format_pct, ExperimentOutput};
use qtag_certify::{
    run_adblock_test, run_inapp_test, run_mobile_scenario, run_privacy_browser_test,
    run_random_placement_test, MobileScenario,
};
use qtag_wire::OsKind;
use serde::Serialize;

fn main() {
    let out = ExperimentOutput::from_args();
    let smoke = out.flag("--smoke");
    let placements = if smoke { 300 } else { 10_000 };

    out.section("In-view event accuracy (random placements)");
    let p = run_random_placement_test(placements, 42);
    println!(
        "cases: {}  agreements: {}  accuracy: {}   (paper: 10,000/10,000)",
        p.cases,
        p.agreements,
        format_pct(p.accuracy())
    );
    println!(
        "mismatches: {} at the ±3% threshold boundary (estimator resolution), {} elsewhere",
        p.boundary_mismatches, p.hard_mismatches
    );

    out.section("Mobile in-app ads (Creative Preview scenario)");
    let inapp = run_inapp_test(7);
    println!(
        "creative sizes tested: {}  correct: {}   (paper: both correct)",
        inapp.cases, inapp.correct
    );

    out.section("Mobile in-app scenario matrix (MRC-style, extension)");
    let reps: u32 = if smoke { 3 } else { 25 };
    let mut mobile_runs = 0u32;
    let mut mobile_correct = 0u32;
    for scenario in MobileScenario::ALL {
        for os in [OsKind::Android, OsKind::Ios] {
            for rep in 0..reps {
                mobile_runs += 1;
                let out = run_mobile_scenario(scenario, os, 500 + u64::from(rep));
                if scenario.correct(out) {
                    mobile_correct += 1;
                }
            }
        }
    }
    println!(
        "scenarios × OS × reps: {mobile_runs} runs, {mobile_correct} correct ({})",
        format_pct(f64::from(mobile_correct) / f64::from(mobile_runs))
    );

    out.section("Adblock Plus and Brave");
    let ab = run_adblock_test(11);
    println!(
        "delivery attempts: {}  blocked: {}  stray beacons: {}   (paper: all blocked)",
        ab.attempts, ab.blocked, ab.stray_beacons
    );

    out.section("Privacy-enhanced browsers (3rd-party cookies blocked)");
    let privacy_ok = run_privacy_browser_test(13);
    println!(
        "Q-Tag operates normally: {}   (paper: operates normally — cookie-free JavaScript)",
        privacy_ok
    );

    out.section("Shape checks vs the paper");
    let checks = [
        (
            "placement decisions free of non-boundary errors",
            p.hard_mismatches == 0,
        ),
        ("placement accuracy ≥ 99.5 %", p.accuracy() >= 0.995),
        ("both in-app sizes notified", inapp.correct == inapp.cases),
        (
            "mobile scenario matrix all correct",
            mobile_correct == mobile_runs,
        ),
        (
            "every blocked delivery stayed blocked",
            ab.blocked == ab.attempts && ab.stray_beacons == 0,
        ),
        ("privacy browsers unaffected", privacy_ok),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }

    #[derive(Serialize)]
    struct Payload {
        placement_cases: u32,
        placement_accuracy: f64,
        boundary_mismatches: u32,
        hard_mismatches: u32,
        inapp_correct: u32,
        adblock_blocked: u32,
        privacy_ok: bool,
        shape_checks_pass: bool,
    }
    out.finish(&Payload {
        placement_cases: p.cases,
        placement_accuracy: p.accuracy(),
        boundary_mismatches: p.boundary_mismatches,
        hard_mismatches: p.hard_mismatches,
        inapp_correct: inapp.correct,
        adblock_blocked: ab.blocked,
        privacy_ok,
        shape_checks_pass: all_ok,
    });
    if !all_ok {
        std::process::exit(1);
    }
}
