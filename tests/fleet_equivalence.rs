//! The display fleet at scale, in both render modes: 64 sessions shaped
//! like qbench's `resident_fleet` (publisher page, served ad in a double
//! cross-origin iframe, 25-pixel X Q-Tag; one in four a video with a
//! scripted player, one in ten scrolling every 30 frames), ticked
//! frame-major for 600 frames. At every 60-frame block the indexed
//! engines' probe paint counts and drained beacon streams must equal the
//! naive engines' exactly.

use qtag_bench::fleet::build_fleet;
use qtag_render::RenderMode;

const SESSIONS: u64 = 64;
const FRAMES: u64 = 600;
const BLOCK: u64 = 60;

#[test]
fn indexed_fleet_matches_naive_fleet_every_block() {
    let mut naive = build_fleet(2019, SESSIONS, RenderMode::Naive);
    let mut indexed = build_fleet(2019, SESSIONS, RenderMode::Indexed);
    let (mut paints, mut beacons) = (0u64, 0usize);
    for frame in 0..FRAMES {
        for s in naive.iter_mut().chain(indexed.iter_mut()) {
            s.tick(frame);
        }
        if (frame + 1) % BLOCK != 0 {
            continue;
        }
        for (i, (n, x)) in naive.iter_mut().zip(indexed.iter_mut()).enumerate() {
            let counts = n.engine().probe_paint_counts();
            assert_eq!(
                counts,
                x.engine().probe_paint_counts(),
                "session {i}: paint counts diverge by frame {frame}"
            );
            let out = n.engine_mut().drain_outbox();
            assert_eq!(
                out,
                x.engine_mut().drain_outbox(),
                "session {i}: beacons diverge by frame {frame}"
            );
            paints += counts.iter().sum::<u64>();
            beacons += out.len();
        }
    }
    // The fleet did paint and report: every session's tag sends at least
    // a heartbeat per simulated second.
    assert!(paints > 0);
    assert!(
        beacons as u64 >= SESSIONS * FRAMES / BLOCK,
        "{beacons} beacons"
    );
}
