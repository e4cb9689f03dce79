//! A resident display fleet in the shape of qbench's `resident_fleet`
//! workload: each session is a generated publisher page with the served
//! ad embedded in a double cross-origin iframe and a paper-default
//! Q-Tag (25-pixel X layout, 10 Hz sampling, a heartbeat every tenth
//! sample) attached to the DSP frame. One session in four is a video
//! impression with a scripted player; one in ten scrolls every 30
//! frames. Drive the fleet frame-major: every session one frame, then
//! the next frame.
//!
//! `tests/fleet_equivalence.rs` ticks it in both [`RenderMode`]s and
//! holds them equal; the `render/fleet_sweep` microbench times it.

use qtag_adtech::{embed_served_ad, CampaignId, ServedAd, ServingOrigins};
use qtag_core::{QTag, QTagConfig};
use qtag_dom::{Origin, Page, Screen, Tab, TabId, WindowId, WindowKind};
use qtag_geometry::{Rect, Size, Vector};
use qtag_render::{
    CpuLoadModel, DeviceProfile, Engine, EngineConfig, PlaybackAction, PlaybackCommand, RenderMode,
    SimDuration, SimTime, VideoPlayer, VideoPlayerConfig,
};
use qtag_user::PageModel;
use qtag_wire::{AdFormat, BrowserKind, OsKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One session in this many is a video impression.
const VIDEO_EVERY: u64 = 4;
/// One session in this many follows the scroll schedule.
const SCROLL_EVERY: u64 = 10;
/// A scrolling session jumps every this many frames.
const SCROLL_PERIOD: u64 = 30;

/// One resident session: an engine with its tag attached.
pub struct FleetSession {
    engine: Engine,
    window: WindowId,
    scrolls: bool,
}

impl FleetSession {
    /// Builds session `index` of the fleet for `seed`, ticked in `mode`.
    pub fn new(seed: u64, index: u64, mode: RenderMode) -> FleetSession {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, index));
        let video = index.is_multiple_of(VIDEO_EVERY);
        let ad = ServedAd {
            impression_id: index + 1,
            campaign_id: CampaignId((index % 99) as u32 + 1),
            creative_size: if video {
                Size::VIDEO_PLAYER
            } else {
                Size::MEDIUM_RECTANGLE
            },
            format: if video {
                AdFormat::Video
            } else {
                AdFormat::Display
            },
            paid_cpm_milli: 800,
        };
        let profile = DeviceProfile::desktop(BrowserKind::Chrome, OsKind::Windows10);
        let viewport = Size::new(
            profile.screen.width,
            profile.screen.height - profile.chrome_height,
        );
        let origins = ServingOrigins::default();
        let model = PageModel::generate(viewport, ad.creative_size, 0.6, &mut rng);
        let mut page = Page::new(Origin::https("publisher.example"), model.doc_size);
        let placement = embed_served_ad(&mut page, model.slot, &ad, &origins)
            .expect("markup embeds on a fresh page");
        let mut screen = Screen::new(profile.screen);
        let window = screen.add_window(
            WindowKind::Browser {
                tabs: vec![Tab::new(page)],
                active: TabId(0),
            },
            Rect::new(0.0, 0.0, profile.screen.width, profile.screen.height),
            profile.chrome_height,
        );

        let mut cfg = QTagConfig::new(ad.impression_id, ad.campaign_id.0, placement.creative_rect);
        cfg.heartbeat_every = 10;
        let tag = if video {
            QTag::new(cfg.video()).with_player(player())
        } else {
            QTag::new(cfg)
        };
        let mut engine = Engine::new(
            EngineConfig {
                profile,
                cpu: CpuLoadModel::idle(),
                seed: mix(seed, index ^ 0xE261),
                mode,
            },
            screen,
        );
        let tag_origin = Origin::parse(&origins.dsp).expect("the default DSP origin parses");
        engine
            .attach_script(
                window,
                Some(TabId(0)),
                placement.dsp_frame,
                tag_origin,
                Box::new(tag),
            )
            .expect("the tag attaches to the DSP frame");
        FleetSession {
            engine,
            window,
            scrolls: index.is_multiple_of(SCROLL_EVERY),
        }
    }

    /// Advances the session through `frame` (0-based): a scrolling
    /// session first jumps when its schedule says so, then the engine
    /// ticks once.
    pub fn tick(&mut self, frame: u64) {
        if self.scrolls && frame.is_multiple_of(SCROLL_PERIOD) {
            let y = ((frame / SCROLL_PERIOD) % 5) as f64 * 400.0;
            self.engine
                .scroll_page_to(self.window, Some(TabId(0)), Vector::new(0.0, y))
                .expect("a session's own page scrolls");
        }
        self.engine.tick();
    }

    /// The session's engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The session's engine, mutably (to drain its outbox).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

/// Builds sessions `0..n` for `seed`.
pub fn build_fleet(seed: u64, n: u64, mode: RenderMode) -> Vec<FleetSession> {
    (0..n).map(|i| FleetSession::new(seed, i, mode)).collect()
}

/// The playback script of a video session: autoplay, a pause at 2 s,
/// resume at 3 s; fill slightly under real time, so long runs rebuffer.
fn player() -> VideoPlayer {
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

/// SplitMix64 of `seed` and `index`: independent per-session streams.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
