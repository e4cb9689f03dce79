//! `resident_fleet` — closed loop, one thread.
//!
//! N browser sessions stay resident in the process: each a publisher
//! page with the served ad in a double cross-origin iframe and a real
//! `qtag_core::QTag` (25-pixel X layout, 10 Hz sampling, 1 Hz
//! heartbeat) attached. One session in four is a video impression with
//! a scripted player, one in ten scrolls on a fixed schedule. The fleet
//! is ticked frame-major; every second of simulated time the outboxes
//! are drained and encoded into a checksum. Nothing is sent: this
//! isolates `render`, `core` and `dom` at fleet scale, and because the
//! driver owns the scripts it can split compositor time from tag time.

use crate::harness::{repeated_setup, Fnv, Latency, Report, RunArgs};
use crate::stats;
use crate::timed::Timed;
use crate::trace::{self, Span, Tracer};
use crate::{corpus, sys};
use bytes::{Buf, BytesMut};
use qtag_adtech::{embed_served_ad, CampaignId, ServedAd, ServingOrigins};
use qtag_core::{QTag, QTagConfig};
use qtag_dom::{Origin, Page, Screen, Tab, TabId, WindowId, WindowKind};
use qtag_geometry::{Rect, Size, Vector};
use qtag_render::{
    CpuLoadModel, DeviceProfile, Engine, EngineConfig, PlaybackAction, PlaybackCommand, RenderMode,
    SimDuration, SimTime, VideoPlayer, VideoPlayerConfig,
};
use qtag_user::PageModel;
use qtag_wire::framing::encode_frame;
use qtag_wire::{AdFormat, BrowserKind, OsKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// One session in this many is a video impression.
const VIDEO_EVERY: u64 = 4;
/// One session in this many follows the scroll schedule.
const SCROLL_EVERY: u64 = 10;
/// A scrolling session jumps every this many frames.
const SCROLL_PERIOD: u64 = 30;
/// Outboxes are drained every this many frames (one simulated second);
/// this is also the block the throughput median is taken over.
const BLOCK_FRAMES: u64 = 60;
/// The tail of a frame sweep is its p90. The tags sample on one frame in
/// six (10 Hz at 60 frames a second), and such a sweep costs two and a
/// half to three times a plain one: the slowest sixth of the sweeps is a
/// mode of its own, p90 lies near the middle of it and says what a
/// sampling sweep costs, while p95 lies in its upper half, which a busy
/// neighbour stretches (over 16 runs of the same code the quartile
/// spread was 6 to 10 % at p85 to p90, 17 to 21 % at p95 and above).
const SWEEP_TAIL: f64 = 90.0;
/// Frames of one impression's resident lifetime: ten simulated seconds.
/// `impressions_per_s` counts these lifetimes.
const LIFETIME_FRAMES: u64 = 600;

struct Scale {
    sessions: u64,
    /// The checksum is taken after exactly this many frames, so it does
    /// not depend on how many frames the time allowed.
    checksum_frames: u64,
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale {
            sessions: 400,
            checksum_frames: BLOCK_FRAMES,
        }
    } else {
        // Building a session costs about half a millisecond (the tag
        // computes its pixel weights), and set-up runs three times for a
        // median: 5 000 sessions keep that near eight seconds.
        Scale {
            sessions: 5_000,
            checksum_frames: 2 * BLOCK_FRAMES,
        }
    }
}

/// One resident session.
pub struct Session {
    engine: Engine,
    window: WindowId,
    scrolls: bool,
    beacons: u64,
}

/// The playback script of a video session: autoplay, a mid-roll pause,
/// resume; fill slightly under real time, so long runs also rebuffer.
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

/// Builds session `index`. With `timed`, the tag is wrapped so that its
/// callbacks show up as `core.tag` spans.
pub fn build_session(seed: u64, index: u64, timed: bool) -> Session {
    let mut rng = ChaCha8Rng::seed_from_u64(corpus::mix(seed, index, 0xF1EE7));
    let video = index.is_multiple_of(VIDEO_EVERY);
    let ad = ServedAd {
        impression_id: index + 1,
        campaign_id: CampaignId((index % u64::from(corpus::CAMPAIGNS)) as u32 + 1),
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

    let (screen, window, placement) = {
        let _g = trace::span(Span::DomPageBuild, index);
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
        (screen, window, placement)
    };

    let tag = {
        let _g = trace::span(Span::CoreTagBuild, index);
        let mut cfg = QTagConfig::new(ad.impression_id, ad.campaign_id.0, placement.creative_rect);
        cfg.heartbeat_every = 10;
        if video {
            cfg = cfg.video();
        }
        let tag = QTag::new(cfg);
        if video {
            tag.with_player(fleet_player())
        } else {
            tag
        }
    };
    let _g = trace::span(Span::RenderBuild, index);
    let mut engine = Engine::new(
        EngineConfig {
            profile,
            cpu: CpuLoadModel::idle(),
            seed: corpus::mix(seed, index, 0xE261),
            mode: RenderMode::Indexed,
        },
        screen,
    );
    let tag_origin = Origin::parse(&origins.dsp).expect("the default DSP origin parses");
    let script: Box<dyn qtag_render::TagScript> = if timed {
        Box::new(Timed::new(tag, index))
    } else {
        Box::new(tag)
    };
    engine
        .attach_script(
            window,
            Some(TabId(0)),
            placement.dsp_frame,
            tag_origin,
            script,
        )
        .expect("the tag attaches to the DSP frame");
    Session {
        engine,
        window,
        scrolls: index.is_multiple_of(SCROLL_EVERY),
        beacons: 0,
    }
}

/// Where a scrolling session's page sits at `frame`.
fn scroll_target(frame: u64) -> Vector {
    Vector::new(0.0, ((frame / SCROLL_PERIOD) % 5) as f64 * 400.0)
}

/// The fleet and the running totals of its frame loop.
pub struct Fleet {
    sessions: Vec<Session>,
    frame: u64,
    /// Over every encoded beacon drained so far.
    checksum: Fnv,
    encode_buf: BytesMut,
    beacons: u64,
}

impl Fleet {
    /// Builds `n` sessions.
    pub fn build(seed: u64, n: u64, timed: bool) -> Fleet {
        Fleet {
            sessions: (0..n).map(|i| build_session(seed, i, timed)).collect(),
            frame: 0,
            checksum: Fnv::default(),
            encode_buf: BytesMut::with_capacity(64 * 1024),
            beacons: 0,
        }
    }

    /// Ticks every session one frame; at block ends drains and encodes
    /// the outboxes into the checksum.
    pub fn sweep(&mut self) {
        let frame = self.frame;
        for (i, s) in self.sessions.iter_mut().enumerate() {
            if s.scrolls && frame.is_multiple_of(SCROLL_PERIOD) {
                let _g = trace::span(Span::DomScroll, i as u64);
                s.engine
                    .scroll_page_to(s.window, Some(TabId(0)), scroll_target(frame))
                    .expect("a session's own page scrolls");
            }
            let _g = trace::span(Span::RenderTick, i as u64);
            s.engine.tick();
        }
        self.frame += 1;
        if self.frame.is_multiple_of(BLOCK_FRAMES) {
            self.drain();
        }
    }

    fn drain(&mut self) {
        for (i, s) in self.sessions.iter_mut().enumerate() {
            let out = {
                let _g = trace::span(Span::RenderDrain, i as u64);
                s.engine.drain_outbox()
            };
            if out.is_empty() {
                continue;
            }
            let _g = trace::span(Span::WireEncode, i as u64);
            let stale = self.encode_buf.len();
            self.encode_buf.advance(stale); // the vendored `BytesMut` has no `clear`
            for b in &out {
                encode_frame(&b.beacon, &mut self.encode_buf).expect("a tag's beacon encodes");
            }
            self.checksum.eat(&self.encode_buf);
            s.beacons += out.len() as u64;
            self.beacons += out.len() as u64;
        }
    }

    /// The checksum so far with every probe's paint count folded in.
    pub fn checksum_with_paints(&self) -> u64 {
        let mut c = self.checksum;
        for s in &self.sessions {
            for paints in s.engine.probe_paint_counts() {
                c.eat(&paints.to_le_bytes());
            }
        }
        c.value()
    }

    fn paints(&self) -> u64 {
        self.sessions
            .iter()
            .map(|s| s.engine.probe_paint_counts().iter().sum::<u64>())
            .sum()
    }
}

/// What the fleet had done when it reached the checksum frame: fixed
/// work, so these repeat exactly for a seed however long the run lasts.
struct AtChecksum {
    checksum: u64,
    beacons: u64,
    paints: u64,
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Report {
    let scale = scale(args.quick);
    // A traced run wraps the tags and records the build spans during
    // set-up; they are kept apart from the timed section's spans.
    trace::set_enabled(args.trace);
    let (mut fleet, setup_s, setups) = repeated_setup(args.quick, || {
        Fleet::build(args.seed, scale.sessions, args.trace)
    });
    trace::set_enabled(false);
    let setup_tracer = trace::take();
    let n = scale.sessions;

    let mut sweeps_ms: Vec<f64> = Vec::new();
    // Per block, untraced and traced apart: seconds and beacons drained.
    let mut untraced: Vec<(f64, u64)> = Vec::new();
    let mut traced: Vec<(f64, u64)> = Vec::new();
    let mut tracer = Tracer::new();
    let mut traced_ns = 0u64;
    let mut at_checksum = None;
    let started = Instant::now();
    while fleet.frame < scale.checksum_frames || started.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates blocks with spans off and on: the
        // pair gives the overhead, the traced blocks the layer budget.
        let block = fleet.frame / BLOCK_FRAMES;
        let spans_on = args.trace && block % 2 == 1;
        let beacons_before = fleet.beacons;
        trace::set_enabled(spans_on);
        let trace_start = trace::now_ns();
        {
            let _g = trace::span(Span::Timed, block);
            for _ in 0..BLOCK_FRAMES {
                let sweep_start = Instant::now();
                fleet.sweep();
                sweeps_ms.push(sweep_start.elapsed().as_secs_f64() * 1e3);
            }
        }
        let block_ns = trace::now_ns() - trace_start;
        trace::set_enabled(false);
        let sample = (block_ns as f64 / 1e9, fleet.beacons - beacons_before);
        if spans_on {
            traced_ns += block_ns;
            tracer.merge(trace::take());
            traced.push(sample);
        } else {
            untraced.push(sample);
        }
        if fleet.frame == scale.checksum_frames {
            at_checksum = Some(AtChecksum {
                checksum: fleet.checksum_with_paints(),
                beacons: fleet.beacons,
                paints: fleet.paints(),
            });
        }
    }
    let at_checksum = at_checksum.expect("the run passed the checksum frame");

    let mut report = Report {
        attempted: n,
        failed: fleet.sessions.iter().filter(|s| s.beacons == 0).count() as u64,
        ..Report::default()
    };
    report.info("checksum", format!("{:016x}", at_checksum.checksum));
    report.info("sessions", n);
    report.info("frames", fleet.frame);
    report.info("beacons", fleet.beacons);
    report.check(
        "every_session_reported",
        report.failed == 0,
        format!("{} of {n} sessions never sent a beacon", report.failed),
    );
    // The wrapper must not change behaviour: a small fleet ticked bare
    // and wrapped (with spans on) ends with the same checksum.
    let equal = wrapper_equivalence(args.seed, 48.min(n), scale.checksum_frames);
    report.check(
        "timed_wrapper_is_transparent",
        equal.0 == equal.1,
        format!("bare {:016x}, wrapped {:016x}", equal.0, equal.1),
    );

    let seconds = |blocks: &[(f64, u64)]| blocks.iter().map(|b| b.0).collect::<Vec<f64>>();
    if args.trace {
        let session_frames = (n * BLOCK_FRAMES * traced.len() as u64).max(1) as f64;
        let checksum_session_frames = (n * scale.checksum_frames) as f64;
        let per = |ns: u64, count: f64| ns as f64 / count.max(1.0);
        let built = setup_tracer.agg(Span::RenderBuild).count as f64;
        let tick = tracer.agg(Span::RenderTick);
        let blocks = traced.len() as u64;
        let mut m = |name, value: f64, unit| report.metric(name, value, unit, blocks);
        m(
            "dom.page_build_us_per_session",
            per(setup_tracer.agg(Span::DomPageBuild).total_ns, built) / 1e3,
            "us",
        );
        m(
            "dom.scroll_ns_per_op",
            per(
                tracer.agg(Span::DomScroll).total_ns,
                tracer.agg(Span::DomScroll).count as f64,
            ),
            "ns",
        );
        // The tag's `on_attach` runs inside `attach_script`; self time
        // leaves it out.
        m(
            "render.build_us_per_session",
            per(setup_tracer.agg(Span::RenderBuild).self_ns, built) / 1e3,
            "us",
        );
        m(
            "render.tick_self_ns_per_frame",
            per(tick.self_ns, session_frames),
            "ns",
        );
        m(
            "render.paints_per_frame",
            at_checksum.paints as f64 / checksum_session_frames,
            "count",
        );
        m(
            "core.tag_build_us_per_session",
            per(setup_tracer.agg(Span::CoreTagBuild).total_ns, built) / 1e3,
            "us",
        );
        // Every `core.tag` span of the timed section ran inside a tick.
        m(
            "core.tag_ns_per_frame",
            per(tick.total_ns - tick.self_ns, session_frames),
            "ns",
        );
        m(
            "core.beacons_per_session",
            at_checksum.beacons as f64 / n as f64,
            "count",
        );
        m(
            "wire.encode_ns_per_beacon",
            per(
                tracer.agg(Span::WireEncode).total_ns,
                traced.iter().map(|b| b.1).sum::<u64>() as f64,
            ),
            "ns",
        );
        m(
            "trace_overhead_pct",
            (stats::median(&seconds(&traced)) / stats::median(&seconds(&untraced)) - 1.0) * 100.0,
            "%",
        );
        report.trace = Some((tracer, traced_ns));
        return report;
    }

    let blocks = untraced.len() as u64;
    let frames_per_s = (n * BLOCK_FRAMES) as f64 / stats::median(&seconds(&untraced));
    let beacon_rates: Vec<f64> = untraced.iter().map(|b| b.1 as f64 / b.0).collect();
    report.metric("setup_s", setup_s, "s", setups);
    report.metric(
        "impressions_per_s",
        frames_per_s / LIFETIME_FRAMES as f64,
        "1/s",
        blocks,
    );
    report.metric("beacons_per_s", stats::median(&beacon_rates), "1/s", blocks);
    let lat = Latency::of(&sweeps_ms, SWEEP_TAIL);
    report.info(
        "latency_tail",
        format!("p{}_median_of_{}_windows", lat.tail_percentile, lat.windows),
    );
    report.metric("latency_p50_ms", lat.p50_ms, "ms", lat.samples);
    report.metric("latency_tail_ms", lat.tail_ms, "ms", lat.samples);
    report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB", 1);
    report.metric("session_frames_per_s", frames_per_s, "1/s", blocks);
    report
}

/// Checksums of the same small fleet with bare and with wrapped tags.
fn wrapper_equivalence(seed: u64, sessions: u64, frames: u64) -> (u64, u64) {
    let run = |timed: bool| {
        let was = trace::enabled();
        trace::set_enabled(timed);
        let mut fleet = Fleet::build(seed, sessions, timed);
        for _ in 0..frames {
            fleet.sweep();
        }
        trace::set_enabled(was);
        if timed {
            drop(trace::take()); // these spans belong to no measured section
        }
        fleet.checksum_with_paints()
    };
    (run(false), run(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_qtag_emits_a_byte_identical_beacon_stream() {
        // Covers a video session (0), a scrolling one (10) and plain
        // display sessions, past the first heartbeat and scroll jumps.
        let (bare, wrapped) = wrapper_equivalence(2019, 12, 150);
        assert_eq!(bare, wrapped);
        // And the checksum is sensitive: another seed changes it.
        assert_ne!(bare, wrapper_equivalence(7, 12, 150).0);
    }

    #[test]
    fn every_session_sends_a_beacon_and_the_fleet_repeats_per_seed() {
        let run = || {
            let mut fleet = Fleet::build(5, 20, false);
            for _ in 0..BLOCK_FRAMES {
                fleet.sweep();
            }
            assert!(fleet.sessions.iter().all(|s| s.beacons > 0));
            (fleet.checksum_with_paints(), fleet.beacons, fleet.paints())
        };
        assert_eq!(run(), run());
    }
}
