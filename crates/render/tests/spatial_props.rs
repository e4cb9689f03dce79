//! Equivalence property for the epoch-cached render path.
//!
//! **Indexed vs naive engine equivalence** — random scenes (nested
//! cross-origin iframes, overlapping elements, multiple tabs) driven
//! through random schedules (scrolls at both levels, window moves,
//! resizes, tab switches, minimise/restore, occluders, element
//! mutations, mid-run attach/detach, clicks) must produce
//! **bit-identical** observable output in both [`RenderMode`]s: the
//! same frame count, the same per-probe paint counters, the same
//! beacon stream, the same composite states and ground-truth
//! visibility fractions. A second property hosts a script on each of
//! the window's two tabs, so a paint count read against the wrong
//! page's counter shows up.

use proptest::prelude::*;
use qtag_dom::{Element, ElementKind, FrameId, Origin, Page, Screen, Tab, TabId, WindowKind};
use qtag_geometry::{Point, Rect, Size, Vector};
use qtag_render::{
    composite_state, CpuLoadModel, Engine, EngineConfig, PlaybackAction, PlaybackCommand,
    PlaybackState, ProbeId, RenderMode, ScriptCtx, ScriptId, SimDuration, SimTime, TagScript,
    VideoPlayer, VideoPlayerConfig,
};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

// ---------------------------------------------------------------------
// Engine equivalence
// ---------------------------------------------------------------------

/// A tag that plants a probe fleet, reports paint sums over beacons, and
/// (optionally) grows its fleet mid-run — exercising the probe-table
/// staleness paths of the indexed engine.
struct FleetScript {
    points: Vec<Point>,
    late_point: Option<Point>,
    probes: Vec<ProbeId>,
    timer_fires: u32,
    /// Video pages run a scripted player and smuggle its position and
    /// state into the beacon, so playback is part of the bit-identical
    /// equivalence contract.
    player: Option<VideoPlayer>,
    /// Report the paint sum read inside `on_click` too.
    beacon_on_click: bool,
}

impl FleetScript {
    fn new(points: Vec<Point>, late_point: Option<Point>) -> Self {
        FleetScript {
            points,
            late_point,
            probes: Vec::new(),
            timer_fires: 0,
            player: None,
            beacon_on_click: false,
        }
    }

    fn paint_sum(&self, ctx: &ScriptCtx<'_>) -> u64 {
        self.probes.iter().map(|p| ctx.probe_paints(*p)).sum()
    }
}

impl TagScript for FleetScript {
    fn on_attach(&mut self, ctx: &mut ScriptCtx<'_>) {
        for p in &self.points {
            self.probes.push(ctx.create_probe(*p));
        }
        ctx.set_timer_hz(7.0);
    }
    fn on_timer(&mut self, ctx: &mut ScriptCtx<'_>) {
        self.timer_fires += 1;
        if self.timer_fires == 2 {
            // Mid-run probe creation: the indexed engine must notice the
            // probe table grew underneath its caches.
            if let Some(p) = self.late_point {
                self.probes.push(ctx.create_probe(p));
            }
        }
        let paints = self.paint_sum(ctx);
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
            impression_id: paints,
            campaign_id: self.timer_fires,
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
            seq: (self.timer_fires % u32::from(u16::MAX)) as u16,
        });
    }
    fn on_click(&mut self, ctx: &mut ScriptCtx<'_>) {
        if !self.beacon_on_click {
            return;
        }
        ctx.send_beacon(Beacon {
            impression_id: self.paint_sum(ctx),
            campaign_id: self.timer_fires,
            event: EventKind::Click,
            timestamp_us: ctx.now().as_micros(),
            ad_format: AdFormat::Display,
            visible_fraction_milli: 0,
            exposure_ms: 0,
            os: OsKind::Windows10,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq: 0,
        });
    }
}

/// Random-scene parameters, kept plain-data so the same spec can build
/// two identical engines.
#[derive(Debug, Clone)]
struct SceneSpec {
    doc_height: f64,
    ssp_rect: Rect,
    dsp_rect: Rect,
    overlay_rect: Rect,
    probe_points: Vec<(f64, f64)>,
    late_probe: bool,
    root_script: bool,
    /// Video-format page: the ad frame is a 640×360 player running a
    /// scripted playback schedule.
    video_page: bool,
    /// `(time_ms, action_code)` playback schedule for video pages.
    playback: Vec<(u64, u8)>,
}

/// Builds the scripted player for a video page. Both engines call this
/// with the same spec, so the two players are bit-equivalent.
fn player_from(spec: &SceneSpec) -> Option<VideoPlayer> {
    if !spec.video_page {
        return None;
    }
    let cfg = VideoPlayerConfig {
        duration: SimDuration::from_secs(30),
        initial_buffer: SimDuration::from_millis(900),
        // Slightly under real-time, so long schedules rebuffer naturally.
        fill_permille: 900,
        resume_watermark: SimDuration::from_millis(400),
    };
    let script = spec
        .playback
        .iter()
        .map(|&(ms, code)| PlaybackCommand {
            at: SimTime::from_micros(ms * 1_000),
            action: match code % 3 {
                0 => PlaybackAction::Play,
                1 => PlaybackAction::Pause,
                _ => PlaybackAction::Seek(SimDuration::from_millis(ms * 3)),
            },
        })
        .collect();
    Some(VideoPlayer::new(cfg, script))
}

#[derive(Debug, Clone)]
enum Op {
    Tick(u16),
    ScrollRoot(f64),
    ScrollSsp(f64),
    MoveWindow(f64, f64),
    ResizeWindow(f64, f64),
    SwitchTab(bool),
    MinimizeRestore,
    BlurThenFocus,
    AddOccluder(f64, f64, f64, f64),
    MoveOverlay(f64, f64),
    /// Flip the in-page overlay's display flag: the scripted occluder
    /// schedule (consent dialogs appearing/dismissing) as a single op.
    ToggleOverlay,
    /// Drop a fresh z-ordered overlay onto the root frame mid-run.
    AddPageOverlay(f64, f64, f64, f64, i32),
    DetachLastScript,
    Click(f64, f64),
    /// Scroll the second tab's page (which hosts a script of its own
    /// only in the two-page property).
    ScrollOther(f64),
    /// Click into the second tab's page.
    ClickOther(f64, f64),
}

struct Handles {
    w: qtag_dom::WindowId,
    ssp: FrameId,
    dsp: FrameId,
    overlay: qtag_dom::ElementRef,
    ssp_box: Size,
    scripts: Vec<ScriptId>,
}

fn build(spec: &SceneSpec, mode: RenderMode) -> (Engine, Handles) {
    build_with(spec, mode, false)
}

/// Builds the scene; with `other_tab_script`, the second tab's page is
/// taller and hosts a script of its own, attached last.
fn build_with(spec: &SceneSpec, mode: RenderMode, other_tab_script: bool) -> (Engine, Handles) {
    let mut page = Page::new(
        Origin::https("pub.example"),
        Size::new(1280.0, spec.doc_height),
    );
    let overlay = page
        .add_element(
            page.root(),
            Element::new("sticky", ElementKind::Overlay, spec.overlay_rect).with_z(5),
        )
        .unwrap();
    let ssp = page.create_frame(Origin::https("ssp.example"), Size::new(400.0, 700.0));
    page.embed_iframe(page.root(), ssp, spec.ssp_rect).unwrap();
    let dsp_box = if spec.video_page {
        Size::VIDEO_PLAYER
    } else {
        Size::new(300.0, 250.0)
    };
    let dsp = page.create_frame(Origin::https("dsp.example"), dsp_box);
    page.embed_iframe(
        ssp,
        dsp,
        Rect::from_origin_size(spec.dsp_rect.origin, dsp_box),
    )
    .unwrap();

    let other_height = if other_tab_script { 3000.0 } else { 900.0 };
    let other = Page::new(
        Origin::https("other.example"),
        Size::new(1280.0, other_height),
    );
    let other_root = other.root();
    let mut screen = Screen::desktop();
    let w = screen.add_window(
        WindowKind::Browser {
            tabs: vec![Tab::new(page), Tab::new(other)],
            active: TabId(0),
        },
        Rect::new(40.0, 20.0, 1280.0, 880.0),
        80.0,
    );

    let mut engine = Engine::new(
        EngineConfig {
            profile: qtag_render::DeviceProfile::desktop(BrowserKind::Chrome, OsKind::Windows10),
            // Noisy load drains the RNG every tick, so an indexed fast
            // path that skipped the draw would desynchronise instantly.
            cpu: CpuLoadModel::Noisy {
                base: 0.10,
                amplitude: 0.15,
            },
            seed: 7,
            mode,
        },
        screen,
    );

    let mut scripts = Vec::new();
    let points: Vec<Point> = spec
        .probe_points
        .iter()
        .map(|(x, y)| Point::new(*x, *y))
        .collect();
    scripts.push(
        engine
            .attach_script(
                w,
                Some(TabId(0)),
                dsp,
                Origin::https("dsp.example"),
                Box::new(FleetScript {
                    player: player_from(spec),
                    beacon_on_click: other_tab_script,
                    ..FleetScript::new(
                        points.clone(),
                        // ProbeIds are indices into the engine's probe
                        // table, and detach compacts that table — so a
                        // mid-run probe is only safe when no
                        // later-attached script can be detached out from
                        // under it.
                        (spec.late_probe && !spec.root_script && !other_tab_script)
                            .then_some(Point::new(10.0, 10.0)),
                    )
                }),
            )
            .unwrap(),
    );
    if spec.root_script {
        scripts.push(
            engine
                .attach_script(
                    w,
                    Some(TabId(0)),
                    ssp,
                    Origin::https("ssp.example"),
                    Box::new(FleetScript {
                        beacon_on_click: other_tab_script,
                        ..FleetScript::new(points.clone(), None)
                    }),
                )
                .unwrap(),
        );
    }
    if other_tab_script {
        // Spread down the taller page, so scrolling it moves some of the
        // probes out of the viewport and leaves others in.
        let spread = points.iter().map(|p| Point::new(p.x, p.y * 4.0)).collect();
        scripts.push(
            engine
                .attach_script(
                    w,
                    Some(TabId(1)),
                    other_root,
                    Origin::https("other.example"),
                    Box::new(FleetScript {
                        beacon_on_click: true,
                        ..FleetScript::new(
                            spread,
                            spec.late_probe.then_some(Point::new(30.0, 30.0)),
                        )
                    }),
                )
                .unwrap(),
        );
    }
    (
        engine,
        Handles {
            w,
            ssp,
            dsp,
            overlay,
            ssp_box: spec.ssp_rect.size,
            scripts,
        },
    )
}

/// Applies one op to an engine; every mutation goes through the same
/// public API a scenario driver would use.
fn apply(engine: &mut Engine, h: &Handles, op: &Op) -> u64 {
    match op {
        Op::Tick(n) => {
            for _ in 0..*n {
                engine.tick();
            }
        }
        Op::ScrollRoot(y) => {
            let _ = engine.scroll_page_to(h.w, Some(TabId(0)), Vector::new(0.0, *y));
        }
        Op::ScrollSsp(y) => {
            if let Ok(win) = engine.screen_mut().window_mut(h.w) {
                if let WindowKind::Browser { tabs, .. } = &mut win.kind {
                    let page = &mut tabs[0].page;
                    let _ = page.scroll_frame_to(h.ssp, Vector::new(0.0, *y), h.ssp_box);
                }
            }
        }
        Op::MoveWindow(dx, dy) => {
            let _ = engine.screen_mut().move_window(h.w, Vector::new(*dx, *dy));
        }
        Op::ResizeWindow(wd, ht) => {
            let _ = engine.screen_mut().resize_window(h.w, Size::new(*wd, *ht));
        }
        Op::SwitchTab(second) => {
            if let Ok(win) = engine.screen_mut().window_mut(h.w) {
                let _ = win.switch_tab(TabId(u32::from(*second)));
            }
        }
        Op::MinimizeRestore => {
            let _ = engine.screen_mut().minimize(h.w);
            let _ = engine.screen_mut().restore(h.w);
        }
        Op::BlurThenFocus => {
            engine.screen_mut().blur_all();
            let _ = engine.screen_mut().focus(h.w);
        }
        Op::AddOccluder(x, y, wd, ht) => {
            engine
                .screen_mut()
                .add_window(WindowKind::OpaqueApp, Rect::new(*x, *y, *wd, *ht), 0.0);
        }
        Op::MoveOverlay(x, y) => {
            if let Ok(win) = engine.screen_mut().window_mut(h.w) {
                if let WindowKind::Browser { tabs, .. } = &mut win.kind {
                    if let Ok(el) = tabs[0].page.element_mut(h.overlay) {
                        el.rect.origin = Point::new(*x, *y);
                    }
                }
            }
        }
        Op::ToggleOverlay => {
            if let Ok(win) = engine.screen_mut().window_mut(h.w) {
                if let WindowKind::Browser { tabs, .. } = &mut win.kind {
                    if let Ok(el) = tabs[0].page.element_mut(h.overlay) {
                        el.display = !el.display;
                    }
                }
            }
        }
        Op::AddPageOverlay(x, y, wd, ht, z) => {
            if let Ok(win) = engine.screen_mut().window_mut(h.w) {
                if let WindowKind::Browser { tabs, .. } = &mut win.kind {
                    let page = &mut tabs[0].page;
                    let root = page.root();
                    let _ = page.add_element(
                        root,
                        Element::new("popover", ElementKind::Overlay, Rect::new(*x, *y, *wd, *ht))
                            .with_z(*z),
                    );
                }
            }
        }
        Op::DetachLastScript => {
            // Only the last-attached script's probes sit at the tail of
            // the probe table, so detaching it leaves every surviving
            // ProbeId valid (mirrors real-world single-owner teardown).
            engine.detach_script(*h.scripts.last().unwrap());
        }
        Op::Click(x, y) => {
            return engine
                .click_at(h.w, Some(TabId(0)), Point::new(*x, *y))
                .map(|n| n as u64)
                .unwrap_or(u64::MAX);
        }
        Op::ScrollOther(y) => {
            let _ = engine.scroll_page_to(h.w, Some(TabId(1)), Vector::new(0.0, *y));
        }
        Op::ClickOther(x, y) => {
            return engine
                .click_at(h.w, Some(TabId(1)), Point::new(*x, *y))
                .map(|n| n as u64)
                .unwrap_or(u64::MAX);
        }
    }
    0
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest's `prop_oneof!` is unweighted; listing
    // tick/scroll arms twice biases schedules toward frame advancement.
    prop_oneof![
        (1u16..40).prop_map(Op::Tick),
        (1u16..8).prop_map(Op::Tick),
        (0.0f64..3000.0).prop_map(Op::ScrollRoot),
        (0.0f64..3000.0).prop_map(Op::ScrollRoot),
        (0.0f64..500.0).prop_map(Op::ScrollSsp),
        (-900.0f64..900.0, -500.0f64..500.0).prop_map(|(x, y)| Op::MoveWindow(x, y)),
        (300.0f64..1900.0, 200.0f64..1060.0).prop_map(|(w, h)| Op::ResizeWindow(w, h)),
        any::<bool>().prop_map(Op::SwitchTab),
        Just(Op::MinimizeRestore),
        Just(Op::BlurThenFocus),
        (
            0.0f64..1600.0,
            0.0f64..900.0,
            100.0f64..900.0,
            100.0f64..700.0
        )
            .prop_map(|(x, y, w, h)| Op::AddOccluder(x, y, w, h)),
        (0.0f64..1280.0, 0.0f64..2500.0).prop_map(|(x, y)| Op::MoveOverlay(x, y)),
        Just(Op::ToggleOverlay),
        (
            0.0f64..1280.0,
            0.0f64..2500.0,
            100.0f64..900.0,
            50.0f64..500.0,
            1i32..20,
        )
            .prop_map(|(x, y, w, h, z)| Op::AddPageOverlay(x, y, w, h, z)),
        Just(Op::DetachLastScript),
        (0.0f64..1300.0, 0.0f64..900.0).prop_map(|(x, y)| Op::Click(x, y)),
    ]
}

/// [`op_strategy`] plus the second tab's ops, with ticks and tab
/// switches listed again so both hosting pages paint between reads.
fn two_page_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        op_strategy(),
        op_strategy(),
        (1u16..40).prop_map(Op::Tick),
        (1u16..40).prop_map(Op::Tick),
        any::<bool>().prop_map(Op::SwitchTab),
        (0.0f64..2500.0).prop_map(Op::ScrollOther),
        (0.0f64..1300.0, 0.0f64..900.0).prop_map(|(x, y)| Op::ClickOther(x, y)),
    ]
}

fn scene_strategy() -> impl Strategy<Value = SceneSpec> {
    (
        1200.0f64..6000.0,
        (0.0f64..900.0, 100.0f64..4000.0),
        (-50.0f64..200.0, -50.0f64..500.0),
        (
            0.0f64..1280.0,
            0.0f64..2000.0,
            200.0f64..1280.0,
            50.0f64..400.0,
        ),
        prop::collection::vec((-20.0f64..320.0, -20.0f64..270.0), 1..12),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec((0u64..4_000, 0u8..3), 0..6),
    )
        .prop_map(
            |(
                doc_height,
                (sx, sy),
                (dx, dy),
                (ox, oy, ow, oh),
                probe_points,
                late,
                root,
                video,
                playback,
            )| {
                SceneSpec {
                    doc_height,
                    ssp_rect: Rect::new(sx, sy, 400.0, 700.0),
                    dsp_rect: Rect::new(dx, dy, 300.0, 250.0),
                    overlay_rect: Rect::new(ox, oy, ow, oh),
                    probe_points,
                    late_probe: late,
                    root_script: root,
                    video_page: video,
                    playback,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole guarantee: on ANY scene and ANY schedule, the
    /// indexed engine is bit-identical to the naive walk.
    #[test]
    fn indexed_engine_matches_naive_walk(
        spec in scene_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let (mut naive, hn) = build(&spec, RenderMode::Naive);
        let (mut indexed, hi) = build(&spec, RenderMode::Indexed);
        prop_assert_eq!(&hn.scripts, &hi.scripts);

        for (step, op) in ops.iter().enumerate() {
            let rn = apply(&mut naive, &hn, op);
            let ri = apply(&mut indexed, &hi, op);
            prop_assert_eq!(rn, ri, "click receiver divergence at step {} ({:?})", step, op);

            // Scene-level agreement after every op.
            let sn = composite_state(naive.screen(), hn.w, Some(TabId(0))).unwrap();
            let si = composite_state(indexed.screen(), hi.w, Some(TabId(0))).unwrap();
            prop_assert_eq!(sn, si, "composite divergence at step {} ({:?})", step, op);
            prop_assert_eq!(
                naive.probe_paint_counts(),
                indexed.probe_paint_counts(),
                "paint divergence at step {} ({:?})",
                step,
                op
            );
        }

        prop_assert_eq!(naive.frames_ticked(), indexed.frames_ticked());
        // Ground truth (fractions are pure functions of the scene, so
        // this certifies the two scenes never drifted apart).
        let ad_box = if spec.video_page {
            Rect::new(0.0, 0.0, 640.0, 360.0)
        } else {
            Rect::new(0.0, 0.0, 300.0, 250.0)
        };
        let vn = naive
            .true_visibility(hn.w, Some(TabId(0)), hn.dsp, ad_box)
            .unwrap();
        let vi = indexed
            .true_visibility(hi.w, Some(TabId(0)), hi.dsp, ad_box)
            .unwrap();
        prop_assert_eq!(vn.fraction.to_bits(), vi.fraction.to_bits());
        prop_assert_eq!(vn.viewport_fraction.to_bits(), vi.viewport_fraction.to_bits());
        prop_assert_eq!(vn.state, vi.state);
        // The full beacon streams, byte for byte.
        prop_assert_eq!(naive.drain_outbox(), indexed.drain_outbox());
        let _ = (hn.ssp, hi.ssp);
    }

    /// Scripts on both tabs: each hosting page keeps its own paint
    /// counter, and every probe's count, every in-callback reading and
    /// the beacon stream must match the naive walk after every op.
    #[test]
    fn two_hosting_pages_match_naive_walk(
        spec in scene_strategy(),
        ops in prop::collection::vec(two_page_op_strategy(), 1..32),
    ) {
        let (mut naive, hn) = build_with(&spec, RenderMode::Naive, true);
        let (mut indexed, hi) = build_with(&spec, RenderMode::Indexed, true);
        prop_assert_eq!(&hn.scripts, &hi.scripts);

        for (step, op) in ops.iter().enumerate() {
            let rn = apply(&mut naive, &hn, op);
            let ri = apply(&mut indexed, &hi, op);
            prop_assert_eq!(rn, ri, "click receiver divergence at step {} ({:?})", step, op);
            for tab in [TabId(0), TabId(1)] {
                let sn = composite_state(naive.screen(), hn.w, Some(tab)).unwrap();
                let si = composite_state(indexed.screen(), hi.w, Some(tab)).unwrap();
                prop_assert_eq!(sn, si, "composite divergence at step {} ({:?})", step, op);
            }
            prop_assert_eq!(
                naive.probe_paint_counts(),
                indexed.probe_paint_counts(),
                "paint divergence at step {} ({:?})",
                step,
                op
            );
            prop_assert_eq!(
                naive.drain_outbox(),
                indexed.drain_outbox(),
                "beacon divergence at step {} ({:?})",
                step,
                op
            );
        }
        prop_assert_eq!(naive.frames_ticked(), indexed.frames_ticked());
    }
}
