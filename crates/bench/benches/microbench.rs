//! Criterion micro-benchmarks.
//!
//! * `tag_overhead/pixels_*` — the CPU-cost side of the paper's §4.1
//!   trade-off ("the activation of a large number of pixels requires a
//!   higher computational cost without offering significant reductions
//!   in the theoretical error"): cost of one simulated second of a
//!   Q-Tag deployment as the monitoring-pixel count grows.
//! * `wire/*` — beacon codec and framing throughput (the collector's
//!   hot path), the two checksum kernels, and one WAL beacon encode
//!   (the shard journal's hot path).
//! * `region/*` — compositor occlusion math.
//! * `server/ingest` — end-to-end ingestion service throughput.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use qtag_core::{AreaEstimator, PixelLayout, QTag, QTagConfig};
use qtag_dom::{Origin, Page, Screen, Tab, TabId, WindowKind};
use qtag_geometry::{Rect, Region, Size};
use qtag_render::{Engine, EngineConfig, SimDuration};
use qtag_server::{IngestConfig, IngestService, LossyLink, ServedImpression, ShardedStore};
use qtag_wire::crc::{crc16, crc32};
use qtag_wire::{binary, framing, AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

fn engine_with_tag(pixels: usize) -> Engine {
    let mut page = Page::new(Origin::https("pub.example"), Size::new(1280.0, 3000.0));
    let frame = page.create_frame(Origin::https("dsp.example"), Size::MEDIUM_RECTANGLE);
    page.embed_iframe(page.root(), frame, Rect::new(300.0, 100.0, 300.0, 250.0))
        .unwrap();
    let mut screen = Screen::desktop();
    let window = screen.add_window(
        WindowKind::Browser {
            tabs: vec![Tab::new(page)],
            active: TabId(0),
        },
        Rect::new(0.0, 0.0, 1280.0, 880.0),
        80.0,
    );
    let mut engine = Engine::new(EngineConfig::default_desktop(), screen);
    let cfg = QTagConfig::new(1, 1, Rect::new(0.0, 0.0, 300.0, 250.0))
        .with_layout(PixelLayout::X, pixels);
    engine
        .attach_script(
            window,
            Some(TabId(0)),
            frame,
            Origin::https("dsp.example"),
            Box::new(QTag::new(cfg)),
        )
        .unwrap();
    engine
}

/// §4.1's CPU-cost claim: one simulated second of tag runtime per pixel
/// count.
fn bench_tag_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("tag_overhead");
    for pixels in [9usize, 25, 60] {
        group.bench_with_input(BenchmarkId::new("pixels", pixels), &pixels, |b, &n| {
            b.iter_batched(
                || engine_with_tag(n),
                |mut engine| engine.run_for(SimDuration::from_secs(1)),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn sample_beacon(seq: u16) -> Beacon {
    Beacon {
        impression_id: 0xABCD_EF01,
        campaign_id: 42,
        event: EventKind::Heartbeat,
        timestamp_us: 123_456_789,
        ad_format: AdFormat::Display,
        visible_fraction_milli: 640,
        exposure_ms: 900,
        os: OsKind::Android,
        browser: BrowserKind::AndroidWebView,
        site_type: SiteType::App,
        seq,
    }
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let beacon = sample_beacon(7);
    group.bench_function("encode", |b| {
        b.iter(|| binary::encode_to_vec(std::hint::black_box(&beacon)).unwrap())
    });
    let bytes = binary::encode_to_vec(&beacon).unwrap();
    group.bench_function("decode", |b| {
        b.iter(|| binary::decode(std::hint::black_box(&bytes)).unwrap())
    });
    // The two checksum kernels at the sizes the pipeline runs them: a
    // beacon's checked bytes, and a WAL beacon payload.
    group.bench_function("crc16_36B", |b| {
        b.iter(|| crc16(std::hint::black_box(&bytes[..binary::ENCODED_LEN - 2])))
    });
    let mut payload = vec![qtag_store::record::KIND_BEACON];
    payload.extend_from_slice(&bytes);
    group.bench_function("crc32_39B", |b| {
        b.iter(|| crc32(std::hint::black_box(&payload)))
    });
    // One journaled beacon: encode + CRC-16 + frame CRC-32 into a
    // reused buffer, as the shard journal does under the shard lock.
    let mut framed = Vec::with_capacity(64);
    group.bench_function("wal_encode_beacon", |b| {
        b.iter(|| {
            framed.clear();
            qtag_store::record::encode_beacon(std::hint::black_box(&beacon), &mut framed);
            framed.len()
        })
    });
    let beacons: Vec<Beacon> = (0..100).map(sample_beacon).collect();
    let stream = framing::encode_frames(&beacons).unwrap();
    group.bench_function("stream_decode_100", |b| {
        b.iter(|| {
            let mut dec = qtag_wire::FrameDecoder::new();
            dec.extend(std::hint::black_box(&stream));
            dec.drain().len()
        })
    });
    group.finish();
}

fn bench_region(c: &mut Criterion) {
    let mut group = c.benchmark_group("region");
    group.bench_function("subtract_16_occluders", |b| {
        let base = Rect::new(0.0, 0.0, 1920.0, 1080.0);
        let holes: Vec<Rect> = (0..16)
            .map(|i| {
                let i = i as f64;
                Rect::new(i * 100.0, (i * 37.0) % 800.0, 250.0, 180.0)
            })
            .collect();
        b.iter(|| {
            let mut region = Region::from_rect(std::hint::black_box(base));
            for h in &holes {
                region = region.subtract_rect(h);
            }
            region.area()
        })
    });
    group.finish();
}

fn bench_estimator(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator");
    group.bench_function("build_x25", |b| {
        b.iter(|| {
            AreaEstimator::new(
                PixelLayout::X.positions(25, Size::MEDIUM_RECTANGLE),
                Size::MEDIUM_RECTANGLE,
            )
        })
    });
    let est = AreaEstimator::new(
        PixelLayout::X.positions(25, Size::MEDIUM_RECTANGLE),
        Size::MEDIUM_RECTANGLE,
    );
    let mask = vec![true; 25];
    group.bench_function("estimate_x25", |b| {
        b.iter(|| est.estimate(std::hint::black_box(&mask)))
    });
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("server");
    group.sample_size(20);
    group.bench_function("ingest_1k_beacons_4_workers", |b| {
        b.iter_batched(
            || {
                let store = ShardedStore::new(1);
                {
                    for id in 0..100u64 {
                        store.record_served(ServedImpression {
                            impression_id: id,
                            campaign_id: 1,
                            os: OsKind::Android,
                            browser: BrowserKind::Chrome,
                            site_type: SiteType::Browser,
                            ad_format: AdFormat::Display,
                        });
                    }
                }
                let mut link = LossyLink::lossless();
                let chunks: Vec<(u64, Vec<u8>)> = (0..100u64)
                    .map(|id| {
                        let beacons: Vec<Beacon> = (0..10)
                            .map(|s| {
                                let mut b = sample_beacon(s);
                                b.impression_id = id;
                                b
                            })
                            .collect();
                        (id, link.transmit(&beacons).unwrap())
                    })
                    .collect();
                (store, chunks)
            },
            |(store, chunks)| {
                let service = IngestService::start_sharded(
                    store,
                    IngestConfig {
                        workers: 4,
                        ..IngestConfig::default()
                    },
                );
                for (id, bytes) in chunks {
                    service.submit(id, bytes);
                }
                service.shutdown();
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tag_overhead,
    bench_wire,
    bench_region,
    bench_estimator,
    bench_ingest
);
criterion_main!(benches);
