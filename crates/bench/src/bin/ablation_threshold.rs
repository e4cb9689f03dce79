//! **§3 ablation**: the fps visibility threshold under CPU load.
//!
//! The paper: "we set up a threshold of 20 fps … We have chosen this
//! conservative threshold to make our solution compatible in devices
//! with overloaded CPUs that refresh at lower than 60 fps rates. We have
//! also tested our solution with thresholds of 30, 40, and 50 fps
//! without noticing any major difference."
//!
//! This sweep measures in-view decision accuracy over random placements
//! for thresholds × CPU-load levels. Expected shape: on idle and lightly
//! loaded devices every threshold from 20–50 fps is equivalent (the
//! paper's observation); under heavy load the *effective* refresh rate
//! drops below aggressive thresholds first — the conservative 20 fps
//! threshold keeps working the longest, which is exactly why the paper
//! chose it.

use qtag_bench::{format_pct, ExperimentOutput};
use qtag_core::{QTag, QTagConfig};
use qtag_dom::{Origin, Page, Screen, Tab, TabId, WindowKind};
use qtag_geometry::{Point, Rect, Size, Vector};
use qtag_render::{CpuLoadModel, Engine, EngineConfig, SimDuration};
use qtag_wire::EventKind;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Accuracy of the in-view decision over `n` random placements at one
/// (threshold, cpu-load) point.
fn accuracy(threshold_fps: f64, cpu_load: f64, n: u32, seed: u64) -> f64 {
    let creative = Size::MEDIUM_RECTANGLE;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut correct = 0u32;
    for i in 0..n {
        let y: f64 = rng.gen_range(-300.0..1100.0);
        let mut page = Page::new(Origin::https("pub.example"), Size::new(1280.0, 3000.0));
        let ad = page.create_frame(Origin::https("dsp.example"), creative);
        page.embed_iframe(
            page.root(),
            ad,
            Rect::new(200.0, y.max(0.0), creative.width, creative.height),
        )
        .expect("embed");
        let mut screen = Screen::desktop();
        let window = screen.add_window(
            WindowKind::Browser {
                tabs: vec![Tab::new(page)],
                active: TabId(0),
            },
            Rect::new(0.0, 0.0, 1280.0, 880.0),
            80.0,
        );
        let mut engine = Engine::new(
            EngineConfig {
                cpu: CpuLoadModel::Constant(cpu_load),
                seed: seed ^ u64::from(i),
                ..EngineConfig::default_desktop()
            },
            screen,
        );
        if y < 0.0 {
            engine
                .scroll_page_to(window, Some(TabId(0)), Vector::new(0.0, -y))
                .expect("scroll");
        }
        let truth = engine
            .true_visibility(
                window,
                Some(TabId(0)),
                ad,
                Rect::from_origin_size(Point::ORIGIN, creative),
            )
            .expect("oracle")
            .fraction
            >= 0.5;

        let cfg = QTagConfig::new(
            u64::from(i) + 1,
            1,
            Rect::from_origin_size(Point::ORIGIN, creative),
        )
        .with_fps_threshold(threshold_fps);
        engine
            .attach_script(
                window,
                Some(TabId(0)),
                ad,
                Origin::https("dsp.example"),
                Box::new(QTag::new(cfg)),
            )
            .expect("attach");
        engine.run_for(SimDuration::from_millis(2_500));
        let reported = engine
            .drain_outbox()
            .iter()
            .any(|b| b.beacon.event == EventKind::InView);
        if reported == truth {
            correct += 1;
        }
    }
    f64::from(correct) / f64::from(n)
}

fn main() {
    let out = ExperimentOutput::from_args();
    let smoke = out.flag("--smoke");
    let n = if smoke { 60 } else { 250 };
    let thresholds = [20.0, 30.0, 40.0, 50.0];
    let loads = [0.0, 0.2, 0.4, 0.6, 0.75];

    out.section("fps-threshold ablation: in-view decision accuracy");
    print!("{:>10}", "threshold");
    for l in loads {
        print!(" {:>9}", format!("load={l}"));
    }
    println!();

    let mut grid = Vec::new();
    for t in thresholds {
        print!("{:>10}", format!("{t} fps"));
        let mut row = Vec::new();
        for (li, l) in loads.iter().enumerate() {
            let a = accuracy(t, *l, n, 1000 + li as u64);
            print!(" {:>9}", format_pct(a));
            row.push(a);
        }
        println!();
        grid.push(row);
    }
    println!(
        "(effective refresh rate at load L is 60·(1−L) fps; a threshold above it sees nothing)"
    );

    out.section("Shape checks vs the paper");
    // idle device: thresholds 20–50 equivalent (paper: "no major difference")
    let idle_equal =
        (0..thresholds.len()).all(|i| (grid[i][0] - grid[0][0]).abs() < 0.02 && grid[i][0] > 0.95);
    // heavy load (0.75 ⇒ 15 fps effective): only the 20 fps threshold is
    // *closest* to surviving; aggressive thresholds collapse.
    let heavy = loads.len() - 1;
    let conservative_wins = grid[0][heavy] >= grid[3][heavy];
    let aggressive_collapses = grid[3][heavy] < 0.8;
    let checks = [
        (
            "idle device: 20/30/40/50 fps thresholds equivalent",
            idle_equal,
        ),
        (
            "under heavy load the conservative threshold degrades last",
            conservative_wins,
        ),
        (
            "a 50 fps threshold collapses under heavy load",
            aggressive_collapses,
        ),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }

    #[derive(Serialize)]
    struct Payload {
        thresholds: Vec<f64>,
        loads: Vec<f64>,
        accuracy: Vec<Vec<f64>>,
        shape_checks_pass: bool,
    }
    out.finish(&Payload {
        thresholds: thresholds.to_vec(),
        loads: loads.to_vec(),
        accuracy: grid,
        shape_checks_pass: all_ok,
    });
    if !all_ok {
        std::process::exit(1);
    }
}
