//! **§5 fleet dataset**: the paper's broader deployment — "a dataset
//! including the viewability measures of more than 12 M ads belonging to
//! 99 ad campaigns that we monitor during a week" (Q-Tag only; the
//! commercial tag ran on just 4 campaigns due to its cost).
//!
//! Two modes:
//!
//! **Campaign replay** (default): reproduces the 99-campaign fleet at
//! configurable scale through the full pipeline and reports the
//! fleet-level distribution of measured and viewability rates, plus
//! replay throughput normalised per core.
//! Flags: `--impressions N` (per campaign, default 400), `--seed N`,
//! `--json`.
//!
//! **Resident fleet** (`--fleet N`): holds N concurrent browser
//! sessions resident in one process — each a full [`Engine`] with a
//! Q-Tag-style script (25 monitoring pixels, 10 Hz heartbeat) on an
//! in-view 300×250 ad — and ticks every session for `--frames` frames.
//! ~10 % of sessions follow a deterministic scroll schedule; the rest
//! are static, which is exactly the fleet shape the page cache's
//! epoch fast path exploits. Reports session-frames/sec/core for the
//! naive full-walk baseline and the indexed engine, their speedup, and
//! a paint-sum checksum that must be bit-identical across modes.
//! Flags: `--fleet N [--frames F] [--workers W] [--mode naive|indexed|both]
//! [--naive-fleet N] [--equivalence M] [--bench-json PATH]
//! [--min-speedup X] [--seed N] [--json]`.

use qtag_bench::{format_pct, run_production, ExperimentOutput, ProductionConfig};
use qtag_dom::{
    Element, ElementKind, ElementRef, Origin, Page, Screen, Tab, TabId, WindowId, WindowKind,
};
use qtag_geometry::{Point, Rect, Size, Vector};
use qtag_render::{
    CpuLoadModel, DeviceProfile, Engine, EngineConfig, PlaybackAction, PlaybackCommand,
    PlaybackState, ProbeId, RenderMode, ScriptCtx, SimDuration, SimTime, TagScript, VideoPlayer,
    VideoPlayerConfig,
};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
use serde::Serialize;
use std::time::Instant;

fn arg(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_f64(name: &str) -> Option<f64> {
    arg_str(name).and_then(|v| v.parse().ok())
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

// ---------------------------------------------------------------------
// Resident fleet
// ---------------------------------------------------------------------

/// Probe grid density: 5×5 = the Q-Tag default of 25 monitoring pixels.
const PROBE_GRID: u32 = 5;
/// Heartbeat cadence of the simulated tag.
const HEARTBEAT_HZ: f64 = 10.0;
/// One session in `SCROLL_EVERY_NTH` follows the scroll schedule.
const SCROLL_EVERY_NTH: u64 = 10;
/// Scrolling sessions jump every this many frames.
const SCROLL_PERIOD_FRAMES: u64 = 30;
/// One session in `VIDEO_EVERY_NTH` is a 640×360 video page with a
/// scripted player and a z-ordered overlay that hops around on a
/// schedule — the in-page occlusion math the indexed engine must keep
/// bit-identical with the naive walk.
const VIDEO_EVERY_NTH: u64 = 4;
/// Video sessions move their overlay every this many frames.
const OVERLAY_PERIOD_FRAMES: u64 = 45;

/// The resident Q-Tag stand-in: 25 pixels over the creative, 10 Hz
/// heartbeats smuggling the paint sum out via `impression_id`. Video
/// sessions also carry a scripted player whose position and state ride
/// in the beacon, making playback part of the cross-mode checksum.
struct ResidentTag {
    probes: Vec<ProbeId>,
    beats: u32,
    creative: Size,
    player: Option<VideoPlayer>,
}

impl TagScript for ResidentTag {
    fn on_attach(&mut self, ctx: &mut ScriptCtx<'_>) {
        for gy in 0..PROBE_GRID {
            for gx in 0..PROBE_GRID {
                let x = (f64::from(gx) + 0.5) * self.creative.width / f64::from(PROBE_GRID);
                let y = (f64::from(gy) + 0.5) * self.creative.height / f64::from(PROBE_GRID);
                self.probes.push(ctx.create_probe(Point::new(x, y)));
            }
        }
        ctx.set_timer_hz(HEARTBEAT_HZ);
    }
    fn on_timer(&mut self, ctx: &mut ScriptCtx<'_>) {
        self.beats += 1;
        let paints: u64 = self.probes.iter().map(|p| ctx.probe_paints(*p)).sum();
        let (pos_ms, state_code) = match self.player.as_mut() {
            Some(p) => {
                p.advance_to(ctx.now());
                let code = match p.state() {
                    PlaybackState::Idle => 1,
                    PlaybackState::Playing => 2,
                    PlaybackState::Paused => 3,
                    PlaybackState::Rebuffering => 4,
                    PlaybackState::Ended => 5,
                };
                (p.position().as_millis() as u32, code)
            }
            None => (0, 0),
        };
        ctx.send_beacon(Beacon {
            impression_id: paints.wrapping_add(u64::from(pos_ms)),
            campaign_id: self.beats,
            event: EventKind::Heartbeat,
            timestamp_us: ctx.now().as_micros(),
            ad_format: if self.player.is_some() {
                AdFormat::Video
            } else {
                AdFormat::Display
            },
            visible_fraction_milli: state_code,
            exposure_ms: pos_ms,
            os: OsKind::Windows10,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq: (self.beats % u32::from(u16::MAX)) as u16,
        });
    }
}

/// `true` when session `i` hosts the video-page variant.
fn is_video_session(session: u64) -> bool {
    session.is_multiple_of(VIDEO_EVERY_NTH)
}

/// The scripted playback schedule every video session runs: play, a
/// mid-roll pause, resume. Under-real-time fill adds a natural rebuffer
/// on longer runs.
fn fleet_player() -> VideoPlayer {
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

/// Builds one resident session shaped like a real ad-bearing page: a
/// 1280×3000 publisher document embedding an SSP container iframe which
/// embeds the 300×250 creative (the standard two-hop delivery chain), in
/// the initial viewport, plus a couple of small always-on-top surfaces
/// (notification toast, picture-in-picture player) partially overlapping
/// the browser — the scene work a per-frame full walk has to redo and
/// the epoch fast path provably skips.
fn build_session(
    mode: RenderMode,
    seed: u64,
    session: u64,
) -> (Engine, WindowId, Option<ElementRef>) {
    let video = is_video_session(session);
    let creative = if video {
        Size::VIDEO_PLAYER
    } else {
        Size::MEDIUM_RECTANGLE
    };
    let mut page = Page::new(Origin::https("pub.example"), Size::new(1280.0, 3000.0));
    let ssp = page.create_frame(Origin::https("ssp.example"), Size::new(400.0, 700.0));
    page.embed_iframe(page.root(), ssp, Rect::new(150.0, 60.0, 400.0, 700.0))
        .unwrap();
    let ad = page.create_frame(Origin::https("dsp.example"), creative);
    let mut overlay = None;
    if video {
        // The 640×360 player sits directly in the root document, with a
        // z-ordered overlay hopping over it on a schedule (see
        // `run_session`): per-frame in-page occlusion work.
        page.embed_iframe(page.root(), ad, Rect::new(600.0, 100.0, 640.0, 360.0))
            .unwrap();
        overlay = Some(
            page.add_element(
                page.root(),
                Element::new(
                    "pip-overlay",
                    ElementKind::Overlay,
                    Rect::new(620.0, 120.0, 200.0, 120.0),
                )
                .with_z(5),
            )
            .unwrap(),
        );
    } else {
        page.embed_iframe(ssp, ad, Rect::new(50.0, 40.0, 300.0, 250.0))
            .unwrap();
    }
    let mut screen = Screen::desktop();
    let w = screen.add_window(
        WindowKind::Browser {
            tabs: vec![Tab::new(page)],
            active: TabId(0),
        },
        Rect::new(0.0, 0.0, 1280.0, 880.0),
        80.0,
    );
    // Always-on-top clutter away from the ad: occludes a corner of the
    // browser, so naive composite checks do real region work per frame.
    screen.add_window(
        WindowKind::OpaqueApp,
        Rect::new(1150.0, 20.0, 240.0, 90.0),
        0.0,
    );
    screen.add_window(
        WindowKind::OpaqueApp,
        Rect::new(1040.0, 720.0, 320.0, 180.0),
        0.0,
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
            Box::new(ResidentTag {
                probes: Vec::new(),
                beats: 0,
                creative,
                player: video.then(fleet_player),
            }),
        )
        .unwrap();
    (engine, w, overlay)
}

/// Deterministic overlay position for a video session at a frame: hops
/// between three spots over the player, mutating root-frame layout.
fn overlay_target(frame: u64) -> Point {
    let step = (frame / OVERLAY_PERIOD_FRAMES) % 3;
    Point::new(620.0 + step as f64 * 150.0, 120.0 + step as f64 * 60.0)
}

/// Applies the video session's overlay schedule at frame `f`.
fn move_overlay(engine: &mut Engine, w: WindowId, overlay: ElementRef, f: u64) {
    if let Ok(win) = engine.screen_mut().window_mut(w) {
        if let Some(page) = win.active_page_mut() {
            if let Ok(el) = page.element_mut(overlay) {
                el.rect.origin = overlay_target(f);
            }
        }
    }
}

/// Deterministic scroll target for a scrolling session at a frame.
fn scroll_target(frame: u64) -> Vector {
    let step = (frame / SCROLL_PERIOD_FRAMES) % 5;
    Vector::new(0.0, step as f64 * 400.0)
}

/// Ticks one session for `frames` frames, applying its schedule, then
/// drains its outbox. Returns `(paint_sum, beacon_count)` — the paint
/// sum is a cross-mode checksum that must be bit-identical between the
/// naive and indexed engines.
fn run_session(
    engine: &mut Engine,
    w: WindowId,
    overlay: Option<ElementRef>,
    session: u64,
    frames: u64,
) -> (u64, u64) {
    let scrolls = session.is_multiple_of(SCROLL_EVERY_NTH);
    for f in 0..frames {
        if scrolls && f.is_multiple_of(SCROLL_PERIOD_FRAMES) {
            let _ = engine.scroll_page_to(w, Some(TabId(0)), scroll_target(f));
        }
        if let Some(ovl) = overlay {
            if f.is_multiple_of(OVERLAY_PERIOD_FRAMES) {
                move_overlay(engine, w, ovl, f);
            }
        }
        engine.tick();
    }
    let mut paints = 0u64;
    let mut beacons = 0u64;
    for b in engine.drain_outbox() {
        paints = paints.wrapping_add(b.beacon.impression_id);
        beacons += 1;
    }
    (paints, beacons)
}

#[derive(Serialize, Clone)]
struct FleetCell {
    mode: String,
    fleet: u64,
    frames: u64,
    workers: u64,
    build_secs: f64,
    tick_secs: f64,
    session_frames_per_sec_per_core: f64,
    sessions_per_sec_per_core: f64,
    paint_checksum: u64,
    beacons: u64,
}

/// Runs one timed cell: builds `fleet` resident sessions (split across
/// `workers` threads), then ticks each for `frames` frames.
fn run_cell(mode: RenderMode, fleet: u64, frames: u64, workers: u64, seed: u64) -> FleetCell {
    let mode_name = match mode {
        RenderMode::Naive => "naive",
        RenderMode::Indexed => "indexed",
    };
    eprintln!("  cell: mode={mode_name} fleet={fleet} frames={frames} workers={workers} …");

    // `Engine` is deliberately not `Send` (scripts may hold `Rc`s), so
    // each worker builds AND ticks its own chunk; a barrier separates
    // the phases so tick timing excludes construction.
    let per_worker = fleet.div_ceil(workers);
    let barrier = std::sync::Barrier::new(workers as usize);
    let barrier = &barrier;
    let results: Vec<(f64, f64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                s.spawn(move || {
                    let lo = t * per_worker;
                    let hi = (lo + per_worker).min(fleet);
                    let build_start = Instant::now();
                    let mut chunk: Vec<(Engine, WindowId, Option<ElementRef>, u64)> = (lo..hi)
                        .map(|i| {
                            let (e, w, ovl) = build_session(mode, seed ^ i, i);
                            (e, w, ovl, i)
                        })
                        .collect();
                    let build_secs = build_start.elapsed().as_secs_f64();
                    barrier.wait();
                    let tick_start = Instant::now();
                    let mut paints = 0u64;
                    let mut beacons = 0u64;
                    for (engine, w, ovl, i) in chunk.iter_mut() {
                        let (p, b) = run_session(engine, *w, *ovl, *i, frames);
                        paints = paints.wrapping_add(p);
                        beacons += b;
                    }
                    (
                        paints,
                        beacons,
                        build_secs,
                        tick_start.elapsed().as_secs_f64(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (p, b, bs, ts) = h.join().unwrap();
                (bs, ts, p, b)
            })
            .collect()
    });
    let build_secs = results.iter().map(|(bs, ..)| *bs).fold(0.0, f64::max);
    let tick_secs = results.iter().map(|(_, ts, ..)| *ts).fold(0.0, f64::max);

    let paint_checksum = results
        .iter()
        .fold(0u64, |acc, (_, _, p, _)| acc.wrapping_add(*p));
    let beacons = results.iter().map(|(_, _, _, b)| b).sum();
    let session_frames = (fleet * frames) as f64;
    let cores = workers as f64;
    FleetCell {
        mode: mode_name.to_string(),
        fleet,
        frames,
        workers,
        build_secs,
        tick_secs,
        session_frames_per_sec_per_core: session_frames / (tick_secs * cores),
        sessions_per_sec_per_core: session_frames / (tick_secs * cores) / frames as f64,
        paint_checksum,
        beacons,
    }
}

/// Pairwise naive-vs-indexed check over `sessions` sessions: identical
/// schedules must yield identical frame counts, paint counters, and
/// beacon streams, byte for byte.
fn run_equivalence(sessions: u64, frames: u64, seed: u64) -> bool {
    for i in 0..sessions {
        let (mut naive, wn, on) = build_session(RenderMode::Naive, seed ^ i, i);
        let (mut indexed, wi, oi) = build_session(RenderMode::Indexed, seed ^ i, i);
        let scrolls = i % SCROLL_EVERY_NTH == 0;
        for f in 0..frames {
            if scrolls && f % SCROLL_PERIOD_FRAMES == 0 {
                naive
                    .scroll_page_to(wn, Some(TabId(0)), scroll_target(f))
                    .unwrap();
                indexed
                    .scroll_page_to(wi, Some(TabId(0)), scroll_target(f))
                    .unwrap();
            }
            if f % OVERLAY_PERIOD_FRAMES == 0 {
                if let Some(ovl) = on {
                    move_overlay(&mut naive, wn, ovl, f);
                }
                if let Some(ovl) = oi {
                    move_overlay(&mut indexed, wi, ovl, f);
                }
            }
            naive.tick();
            indexed.tick();
        }
        if naive.frames_ticked() != indexed.frames_ticked()
            || naive.probe_paint_counts() != indexed.probe_paint_counts()
            || naive.drain_outbox() != indexed.drain_outbox()
        {
            eprintln!("  EQUIVALENCE FAILURE at session {i}");
            return false;
        }
    }
    true
}

#[derive(Serialize)]
struct FleetPayload {
    bench: &'static str,
    seed: u64,
    frames_per_session: u64,
    probes_per_session: u32,
    heartbeat_hz: f64,
    scroll_fraction: f64,
    video_fraction: f64,
    equivalence_sessions: u64,
    equivalence_ok: bool,
    cells: Vec<FleetCell>,
    peak_cell: FleetCell,
    baseline_cell: Option<FleetCell>,
    speedup_per_core: Option<f64>,
}

fn fleet_main(fleet: u64) {
    let out = ExperimentOutput::from_args();
    let frames = arg("--frames").unwrap_or(300);
    let workers = arg("--workers").unwrap_or(1).max(1);
    let seed = arg("--seed").unwrap_or(1999);
    let mode = arg_str("--mode").unwrap_or_else(|| "both".to_string());
    let naive_fleet = arg("--naive-fleet")
        .unwrap_or_else(|| fleet.min(100_000))
        .max(1);
    let equivalence = arg("--equivalence").unwrap_or(0);

    out.section("§5 resident fleet — epoch-validated page cache");
    println!(
        "  fleet: {fleet} sessions x {frames} frames, {workers} worker(s), \
         {} probes @ {HEARTBEAT_HZ} Hz, 1/{SCROLL_EVERY_NTH} sessions scrolling, \
         1/{VIDEO_EVERY_NTH} video pages with scripted overlays",
        PROBE_GRID * PROBE_GRID
    );

    let equivalence_ok = if equivalence > 0 {
        eprintln!("  equivalence check over {equivalence} sessions …");
        let ok = run_equivalence(equivalence, frames, seed);
        println!(
            "  [{}] naive vs indexed bit-identical over {equivalence} sessions",
            if ok { "ok" } else { "FAIL" }
        );
        ok
    } else {
        true
    };

    let mut cells: Vec<FleetCell> = Vec::new();
    if mode == "naive" || mode == "both" {
        cells.push(run_cell(
            RenderMode::Naive,
            naive_fleet,
            frames,
            workers,
            seed,
        ));
    }
    if mode == "indexed" || mode == "both" {
        if mode == "both" && naive_fleet != fleet {
            // Same-size cell so the speedup compares like with like.
            cells.push(run_cell(
                RenderMode::Indexed,
                naive_fleet,
                frames,
                workers,
                seed,
            ));
        }
        cells.push(run_cell(RenderMode::Indexed, fleet, frames, workers, seed));
    }

    for c in &cells {
        println!(
            "  {:<8} fleet {:>9}  build {:>7.2}s  tick {:>7.2}s  \
             {:>12.0} session-frames/s/core  {:>9.0} sessions/s/core  checksum {:016x}",
            c.mode,
            c.fleet,
            c.build_secs,
            c.tick_secs,
            c.session_frames_per_sec_per_core,
            c.sessions_per_sec_per_core,
            c.paint_checksum,
        );
    }

    // Checksum agreement between modes at the same size is a full-scale
    // equivalence signal, not just a smoke one.
    let mut checksum_ok = true;
    for c in &cells {
        for d in &cells {
            if c.mode != d.mode && c.fleet == d.fleet && c.paint_checksum != d.paint_checksum {
                println!(
                    "  [FAIL] checksum mismatch at fleet {}: {} vs {}",
                    c.fleet, c.paint_checksum, d.paint_checksum
                );
                checksum_ok = false;
            }
        }
    }

    let baseline = cells.iter().find(|c| c.mode == "naive").cloned();
    let peak = cells
        .iter()
        .filter(|c| c.mode == "indexed")
        .max_by(|a, b| a.fleet.cmp(&b.fleet))
        .or(baseline.as_ref())
        .cloned()
        .expect("at least one cell runs");
    let speedup = baseline
        .as_ref()
        .map(|b| peak.session_frames_per_sec_per_core / b.session_frames_per_sec_per_core);
    if let Some(s) = speedup {
        println!("  speedup (indexed peak vs naive baseline, per core): {s:.1}x");
    }

    let payload = FleetPayload {
        bench: "fleet_scaling",
        seed,
        frames_per_session: frames,
        probes_per_session: PROBE_GRID * PROBE_GRID,
        heartbeat_hz: HEARTBEAT_HZ,
        scroll_fraction: 1.0 / SCROLL_EVERY_NTH as f64,
        video_fraction: 1.0 / VIDEO_EVERY_NTH as f64,
        equivalence_sessions: equivalence,
        equivalence_ok,
        cells: cells.clone(),
        peak_cell: peak,
        baseline_cell: baseline,
        speedup_per_core: speedup,
    };
    if let Some(path) = arg_str("--bench-json") {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&payload).expect("payload serialises"),
        )
        .expect("bench json written");
        println!("wrote {path}");
    }
    out.finish(&payload);

    let min_speedup = arg_f64("--min-speedup");
    let speedup_ok = match (min_speedup, speedup) {
        (Some(min), Some(s)) => s >= min,
        (Some(_), None) => false,
        (None, _) => true,
    };
    if !speedup_ok {
        println!(
            "  [FAIL] speedup {:?} below required {:?}",
            speedup, min_speedup
        );
    }
    if !equivalence_ok || !checksum_ok || !speedup_ok {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// Campaign replay (the original §5 reproduction)
// ---------------------------------------------------------------------

fn main() {
    if let Some(fleet) = arg("--fleet") {
        fleet_main(fleet);
        return;
    }
    let out = ExperimentOutput::from_args();
    let cfg = ProductionConfig {
        campaigns: 99,
        impressions_per_campaign: arg("--impressions").unwrap_or(400) as u32,
        seed: arg("--seed").unwrap_or(1999),
        ..ProductionConfig::default()
    };
    eprintln!(
        "running fleet pipeline: {} campaigns x {} impressions …",
        cfg.campaigns, cfg.impressions_per_campaign
    );
    let replay_start = Instant::now();
    let r = run_production(&cfg);
    let replay_secs = replay_start.elapsed().as_secs_f64();

    let mut measured: Vec<f64> = r
        .qtag_reports
        .iter()
        .map(|c| c.total.measured_rate())
        .collect();
    let mut viewability: Vec<f64> = r
        .qtag_reports
        .iter()
        .map(|c| c.total.viewability_rate())
        .collect();
    measured.sort_by(f64::total_cmp);
    viewability.sort_by(f64::total_cmp);

    // The replay is single-threaded, so per-core == absolute here.
    let sessions_per_sec_per_core = r.served as f64 / replay_secs;

    out.section("§5 fleet — 99 campaigns, Q-Tag only");
    println!(
        "  campaigns: {}   ads served: {}",
        r.qtag_reports.len(),
        r.served
    );
    println!(
        "  measured rate:    mean {}  p10 {}  median {}  p90 {}",
        format_pct(r.qtag_summary.mean_measured_rate),
        format_pct(percentile(&measured, 0.10)),
        format_pct(percentile(&measured, 0.50)),
        format_pct(percentile(&measured, 0.90)),
    );
    println!(
        "  viewability rate: mean {}  p10 {}  median {}  p90 {}",
        format_pct(r.qtag_summary.mean_viewability_rate),
        format_pct(percentile(&viewability, 0.10)),
        format_pct(percentile(&viewability, 0.50)),
        format_pct(percentile(&viewability, 0.90)),
    );
    println!(
        "  DSP spend over the window: ${:.2}",
        r.spend_cpm_milli as f64 / 1000.0 / 1000.0
    );
    println!(
        "  replay throughput: {:.0} sessions/sec/core ({:.2}s wall, 1 worker)",
        sessions_per_sec_per_core, replay_secs
    );

    out.section("Shape checks vs the paper");
    let checks = [
        (
            "fleet mean measured rate ≈ 93 % (±3 pp)",
            (r.qtag_summary.mean_measured_rate - 0.93).abs() < 0.03,
        ),
        (
            "fleet mean viewability ≈ 50 % (±8 pp)",
            (r.qtag_summary.mean_viewability_rate - 0.50).abs() < 0.08,
        ),
        (
            "campaign heterogeneity: viewability p90 − p10 ≥ 8 pp",
            percentile(&viewability, 0.90) - percentile(&viewability, 0.10) >= 0.08,
        ),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }

    #[derive(Serialize)]
    struct Payload {
        campaigns: usize,
        served: u64,
        mean_measured: f64,
        mean_viewability: f64,
        viewability_p10: f64,
        viewability_p90: f64,
        sessions_per_sec_per_core: f64,
        shape_checks_pass: bool,
    }
    out.finish(&Payload {
        campaigns: r.qtag_reports.len(),
        served: r.served,
        mean_measured: r.qtag_summary.mean_measured_rate,
        mean_viewability: r.qtag_summary.mean_viewability_rate,
        viewability_p10: percentile(&viewability, 0.10),
        viewability_p90: percentile(&viewability, 0.90),
        sessions_per_sec_per_core,
        shape_checks_pass: all_ok,
    });
    if !all_ok {
        std::process::exit(1);
    }
}
