//! **Video & adversarial-occlusion certification**: the Table-1-style
//! ground-truth-vs-measured accuracy table over the nine adversarial
//! scenarios of [`qtag_certify::AdversarialScenario`] — four video
//! playback schedules (play / pause / rebuffer / seek against the 2 s
//! *continuous* standard) and five hostile display-page patterns
//! (z-order occluder, sticky header, carousel rotation, lazy-loaded
//! below-fold iframe, consent dialog).
//!
//! Every scenario row compares the tag's side-channel measurement with
//! an independent geometric oracle. Rows must land within a per-scenario
//! tolerance of their expected rates — including the z-order case, where
//! the expected *disagreement* (the repaint side channel cannot see
//! same-page overlays) is pinned as a constant. Any drift exits 1.
//!
//! A resident video-fleet cell measures indexed-engine throughput on
//! video pages with scripted overlay movement, plus a naive-vs-indexed
//! equivalence judge.
//!
//! Flags: `--runs N` (per scenario, default 12), `--seed N`,
//! `--fleet N --frames F` (throughput cell), `--smoke`,
//! `--table PATH` (write the text table), `--bench-json PATH`, `--json`.

use qtag_bench::{format_pct, ExperimentOutput};
use qtag_certify::{run_adversarial_matrix, ScenarioReport};
use qtag_dom::{
    Element, ElementKind, ElementRef, Origin, Page, Screen, Tab, TabId, WindowId, WindowKind,
};
use qtag_geometry::{Point, Rect, Size};
use qtag_render::{
    CpuLoadModel, DeviceProfile, Engine, EngineConfig, PlaybackAction, PlaybackCommand, ProbeId,
    RenderMode, ScriptCtx, SimDuration, SimTime, TagScript, VideoPlayer, VideoPlayerConfig,
};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

// ---------------------------------------------------------------------
// Resident video-fleet throughput cell
// ---------------------------------------------------------------------

/// Probes per resident video session (5×5, the Q-Tag default).
const PROBE_GRID: u32 = 5;
/// Overlay hop period, frames.
const OVERLAY_PERIOD_FRAMES: u64 = 45;

/// A video-page resident tag: probe fleet over the 640×360 player plus a
/// scripted [`VideoPlayer`] whose position rides in every heartbeat, so
/// playback is part of the cross-mode checksum.
struct VideoResidentTag {
    probes: Vec<ProbeId>,
    beats: u32,
    player: VideoPlayer,
}

impl TagScript for VideoResidentTag {
    fn on_attach(&mut self, ctx: &mut ScriptCtx<'_>) {
        for gy in 0..PROBE_GRID {
            for gx in 0..PROBE_GRID {
                let x = (f64::from(gx) + 0.5) * 640.0 / f64::from(PROBE_GRID);
                let y = (f64::from(gy) + 0.5) * 360.0 / f64::from(PROBE_GRID);
                self.probes.push(ctx.create_probe(Point::new(x, y)));
            }
        }
        ctx.set_timer_hz(10.0);
    }
    fn on_timer(&mut self, ctx: &mut ScriptCtx<'_>) {
        self.beats += 1;
        self.player.advance_to(ctx.now());
        let paints: u64 = self.probes.iter().map(|p| ctx.probe_paints(*p)).sum();
        let pos_ms = self.player.position().as_millis() as u32;
        ctx.send_beacon(Beacon {
            impression_id: paints.wrapping_add(u64::from(pos_ms)),
            campaign_id: self.beats,
            event: EventKind::Heartbeat,
            timestamp_us: ctx.now().as_micros(),
            ad_format: AdFormat::Video,
            visible_fraction_milli: 0,
            exposure_ms: pos_ms,
            os: OsKind::Windows10,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq: (self.beats % u32::from(u16::MAX)) as u16,
        });
    }
}

fn session_player() -> VideoPlayer {
    let at = |ms: u64| SimTime::from_micros(ms * 1_000);
    VideoPlayer::new(
        VideoPlayerConfig {
            duration: SimDuration::from_secs(30),
            initial_buffer: SimDuration::from_millis(900),
            fill_permille: 900,
            resume_watermark: SimDuration::from_millis(400),
        },
        vec![
            PlaybackCommand {
                at: at(0),
                action: PlaybackAction::Play,
            },
            PlaybackCommand {
                at: at(2_000),
                action: PlaybackAction::Pause,
            },
            PlaybackCommand {
                at: at(3_000),
                action: PlaybackAction::Play,
            },
        ],
    )
}

/// One resident video session: a 640×360 player in the viewport with a
/// z-ordered overlay hopping over it on a fixed schedule.
fn build_video_session(mode: RenderMode, seed: u64) -> (Engine, WindowId, ElementRef) {
    let mut page = Page::new(Origin::https("pub.example"), Size::new(1280.0, 3000.0));
    let ad = page.create_frame(Origin::https("dsp.example"), Size::VIDEO_PLAYER);
    page.embed_iframe(page.root(), ad, Rect::new(300.0, 100.0, 640.0, 360.0))
        .unwrap();
    let overlay = page
        .add_element(
            page.root(),
            Element::new(
                "pip-overlay",
                ElementKind::Overlay,
                Rect::new(320.0, 120.0, 200.0, 120.0),
            )
            .with_z(5),
        )
        .unwrap();
    let mut screen = Screen::desktop();
    let w = screen.add_window(
        WindowKind::Browser {
            tabs: vec![Tab::new(page)],
            active: TabId(0),
        },
        Rect::new(0.0, 0.0, 1280.0, 880.0),
        80.0,
    );
    let _ = screen.focus(w);
    let mut engine = Engine::new(
        EngineConfig {
            profile: DeviceProfile::desktop(BrowserKind::Chrome, OsKind::Windows10),
            cpu: CpuLoadModel::idle(),
            seed,
            mode,
        },
        screen,
    );
    engine
        .attach_script(
            w,
            Some(TabId(0)),
            ad,
            Origin::https("dsp.example"),
            Box::new(VideoResidentTag {
                probes: Vec::new(),
                beats: 0,
                player: session_player(),
            }),
        )
        .unwrap();
    (engine, w, overlay)
}

fn run_video_session(engine: &mut Engine, w: WindowId, overlay: ElementRef, frames: u64) -> u64 {
    for f in 0..frames {
        if f.is_multiple_of(OVERLAY_PERIOD_FRAMES) {
            let step = (f / OVERLAY_PERIOD_FRAMES) % 3;
            if let Ok(win) = engine.screen_mut().window_mut(w) {
                if let Some(page) = win.active_page_mut() {
                    if let Ok(el) = page.element_mut(overlay) {
                        el.rect.origin =
                            Point::new(320.0 + step as f64 * 150.0, 120.0 + step as f64 * 60.0);
                    }
                }
            }
        }
        engine.tick();
    }
    engine
        .drain_outbox()
        .iter()
        .fold(0u64, |acc, b| acc.wrapping_add(b.beacon.impression_id))
}

#[derive(Serialize, Clone)]
struct VideoFleetCell {
    mode: String,
    fleet: u64,
    frames: u64,
    tick_secs: f64,
    session_frames_per_sec_per_core: f64,
    paint_checksum: u64,
    equivalence_sessions: u64,
    equivalence_ok: bool,
}

fn run_video_fleet_cell(fleet: u64, frames: u64, seed: u64) -> VideoFleetCell {
    // Pairwise equivalence judge over a handful of sessions first.
    let equivalence_sessions = fleet.min(16);
    let mut equivalence_ok = true;
    for i in 0..equivalence_sessions {
        let (mut naive, wn, on) = build_video_session(RenderMode::Naive, seed ^ i);
        let (mut indexed, wi, oi) = build_video_session(RenderMode::Indexed, seed ^ i);
        let pn = run_video_session(&mut naive, wn, on, frames);
        let pi = run_video_session(&mut indexed, wi, oi, frames);
        if pn != pi || naive.probe_paint_counts() != indexed.probe_paint_counts() {
            eprintln!("  EQUIVALENCE FAILURE at video session {i}");
            equivalence_ok = false;
        }
    }

    let mut sessions: Vec<(Engine, WindowId, ElementRef)> = (0..fleet)
        .map(|i| build_video_session(RenderMode::Indexed, seed ^ i))
        .collect();
    let tick_start = Instant::now();
    let mut checksum = 0u64;
    for (engine, w, overlay) in sessions.iter_mut() {
        checksum = checksum.wrapping_add(run_video_session(engine, *w, *overlay, frames));
    }
    let tick_secs = tick_start.elapsed().as_secs_f64();
    VideoFleetCell {
        mode: "indexed".to_string(),
        fleet,
        frames,
        tick_secs,
        session_frames_per_sec_per_core: (fleet * frames) as f64 / tick_secs,
        paint_checksum: checksum,
        equivalence_sessions,
        equivalence_ok,
    }
}

// ---------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------

fn render_table(rows: &[ScenarioReport]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Video & adversarial-occlusion scenarios — ground truth vs measured"
    );
    let _ = writeln!(
        s,
        "{:<24} {:>8} {:>6} {:>8} {:>10} {:>10} {:>10} {:>7} {:>7}",
        "scenario", "kind", "runs", "truth", "measured", "exp.truth", "exp.meas", "tol", "ok"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<24} {:>8} {:>6} {:>8} {:>10} {:>10} {:>10} {:>7} {:>7}",
            r.scenario,
            r.kind,
            r.runs,
            format_pct(r.truth_rate),
            format_pct(r.measured_rate),
            format_pct(r.expected_truth_rate),
            format_pct(r.expected_measured_rate),
            format!("{:.2}", r.tolerance),
            if r.within_tolerance { "ok" } else { "FAIL" },
        );
    }
    let blind: Vec<&str> = rows
        .iter()
        .filter(|r| r.side_channel_blind)
        .map(|r| r.scenario.as_str())
        .collect();
    let _ = writeln!(
        s,
        "\nside-channel blind spots (expected measured≠truth): {}",
        if blind.is_empty() {
            "none".to_string()
        } else {
            blind.join(", ")
        }
    );
    s
}

fn main() {
    let out = ExperimentOutput::from_args();
    let smoke = out.flag("--smoke");
    let runs = out.arg("--runs").unwrap_or(if smoke { 6 } else { 12 }) as usize;
    let seed = out.arg("--seed").unwrap_or(2_023);
    let fleet = out
        .arg("--fleet")
        .unwrap_or(if smoke { 200 } else { 2_000 });
    let frames = out.arg("--frames").unwrap_or(120);

    out.section("Adversarial scenario matrix — ground truth vs measured");
    eprintln!("  running {} scenarios x {runs} runs …", 9);
    let rows = run_adversarial_matrix(runs, seed);
    let table = render_table(&rows);
    print!("{table}");

    out.section("Resident video fleet — indexed engine throughput");
    eprintln!("  fleet: {fleet} video sessions x {frames} frames …");
    let cell = run_video_fleet_cell(fleet, frames, seed);
    println!(
        "  indexed fleet {:>7}  tick {:>6.2}s  {:>12.0} session-frames/s/core  checksum {:016x}",
        cell.fleet, cell.tick_secs, cell.session_frames_per_sec_per_core, cell.paint_checksum,
    );
    println!(
        "  [{}] naive vs indexed bit-identical over {} video sessions",
        if cell.equivalence_ok { "ok" } else { "FAIL" },
        cell.equivalence_sessions
    );

    out.section("Drift checks");
    let all_within = rows.iter().all(|r| r.within_tolerance);
    let blind_gap_present = rows
        .iter()
        .filter(|r| r.side_channel_blind)
        .all(|r| (r.measured_rate - r.truth_rate).abs() > 0.5);
    let checks = [
        (
            "every scenario within its tolerance of ground truth",
            all_within,
        ),
        ("scenario matrix covers >= 8 scenarios", rows.len() >= 8),
        (
            "scenario kinds are exactly {video, display}",
            rows.iter()
                .map(|r| r.kind.as_str())
                .collect::<BTreeSet<_>>()
                == BTreeSet::from(["display", "video"]),
        ),
        (
            "z-order blind spot still present (measured != truth)",
            blind_gap_present,
        ),
        ("video fleet equivalence judge green", cell.equivalence_ok),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }

    if let Some(path) = out.arg_str("--table") {
        std::fs::write(&path, &table).expect("table written");
        println!("wrote {path}");
    }

    #[derive(Serialize)]
    struct Payload {
        bench: &'static str,
        seed: u64,
        runs_per_scenario: usize,
        scenarios: Vec<ScenarioReport>,
        all_within_tolerance: bool,
        fleet_cell: VideoFleetCell,
        drift_checks_pass: bool,
    }
    let payload = Payload {
        bench: "video_scenarios",
        seed,
        runs_per_scenario: runs,
        scenarios: rows,
        all_within_tolerance: all_within,
        fleet_cell: cell,
        drift_checks_pass: all_ok,
    };
    if let Some(path) = out.arg_str("--bench-json") {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&payload).expect("payload serialises"),
        )
        .expect("bench json written");
        println!("wrote {path}");
    }
    out.finish(&payload);
    if !all_ok {
        std::process::exit(1);
    }
}
