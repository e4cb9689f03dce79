//! Criterion micro-benchmarks.
//!
//! * `tag_overhead/pixels_*` — the CPU-cost side of the paper's §4.1
//!   trade-off ("the activation of a large number of pixels requires a
//!   higher computational cost without offering significant reductions
//!   in the theoretical error"): cost of one simulated second of a
//!   Q-Tag deployment as the monitoring-pixel count grows.
//! * `render/fleet_sweep/*` — one session-frame of a resident display
//!   fleet ticked frame-major, at 400 and 5 000 resident sessions: how
//!   the per-frame cost grows once the fleet no longer fits in cache.
//! * `wire/*` — beacon codec and framing throughput (the collector's
//!   hot path), the two checksum kernels, and one WAL beacon encode
//!   (the shard journal's hot path).
//! * `store/apply_group_700` — one shard applier's loop without the
//!   threads: lock the shard, apply a 700-beacon group, journal it.
//! * `store/recover_2_shards` — one recovery of a 2-shard store
//!   holding what an `ingest_durable` block journals.
//! * `store/footprint_{200k,2m}` — resident bytes per impression of a
//!   2-shard `ShardedStore`, served rows alone and with 3-beacon
//!   records (`VmRSS` growth, printed once), and one verdict lookup
//!   per resident impression.
//! * `region/*` — compositor occlusion math.
//!
//! Ingestion throughput is timed by qbench's `ingest_durable` workload.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use qtag_bench::fleet::build_fleet;
use qtag_core::{AreaEstimator, PixelLayout, QTag, QTagConfig};
use qtag_dom::{Origin, Page, Screen, Tab, TabId, WindowKind};
use qtag_geometry::{Rect, Region, Size};
use qtag_render::{Engine, EngineConfig, RenderMode, SimDuration};
use qtag_server::{ServedImpression, ShardedStore};
use qtag_store::{DurableBackend, DurableConfig, StorageBackend, SyncPolicy};
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

/// A resident fleet (`qtag_bench::fleet`) built once and warmed for 60
/// frames, then timed 60 frame-major frames per iteration; the
/// per-element figure is ns per session-frame, sampling frames included.
fn bench_fleet_sweep(c: &mut Criterion) {
    const FRAMES: u64 = 60;
    let mut group = c.benchmark_group("render");
    for n in [400u64, 5_000] {
        group.throughput(Throughput::Elements(FRAMES * n));
        group.bench_with_input(BenchmarkId::new("fleet_sweep", n), &n, |b, &n| {
            let mut fleet = build_fleet(2019, n, RenderMode::Indexed);
            let mut frame = 0;
            let mut sweep = || {
                for _ in 0..FRAMES {
                    for s in &mut fleet {
                        s.tick(frame);
                    }
                    frame += 1;
                }
            };
            sweep();
            b.iter(sweep);
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

/// The shard applier's critical section, timed without the threads or
/// the 2-core contention of qbench: lock the shard, apply one group of
/// 700 beacons, hand the group and its outcomes to the journal (a
/// `NoSync` WAL in a temporary directory). One shard holds 100k
/// registered impressions, so its table is well past the caches, as
/// under `ingest_durable`.
fn bench_store(c: &mut Criterion) {
    const IMPRESSIONS: u64 = 100_000;
    const GROUP: usize = 700;
    let dir = std::env::temp_dir().join(format!("qtag-microbench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (backend, _) = DurableBackend::open(DurableConfig {
        dir: dir.clone(),
        shards: 1,
        sync: SyncPolicy::NoSync,
    })
    .expect("open a scratch store");
    for id in 1..=IMPRESSIONS {
        backend.record_served(ServedImpression {
            impression_id: id,
            campaign_id: 1 + (id % 99) as u32,
            os: OsKind::Android,
            browser: BrowserKind::AndroidWebView,
            site_type: SiteType::App,
            ad_format: AdFormat::Display,
        });
    }
    let journal = backend.journal().expect("the durable backend journals");
    let shard = backend.store().shard(0);
    // Beacon n walks the impressions in a scattered order (48 271 is
    // coprime to 100k) and carries seq n / 100k, so every beacon of a
    // run is unique and each impression reports a short lifecycle.
    let walk = |n: u64| {
        let seq = (n / IMPRESSIONS) as u16;
        let mut b = sample_beacon(seq);
        b.impression_id = 1 + n.wrapping_mul(48_271) % IMPRESSIONS;
        b.event = match seq {
            0 => EventKind::TagLoaded,
            1 => EventKind::Measurable,
            2 => EventKind::InView,
            _ => EventKind::Heartbeat,
        };
        b.timestamp_us = n * 1_000;
        b
    };
    let mut n = 0u64;
    let mut batch = Vec::with_capacity(GROUP);
    let mut outcomes = Vec::with_capacity(GROUP);
    let mut group = c.benchmark_group("store");
    group.bench_function("apply_group_700", |b| {
        b.iter(|| {
            batch.clear();
            batch.extend((n..n + GROUP as u64).map(walk));
            n += GROUP as u64;
            let mut st = shard.lock();
            outcomes.clear();
            outcomes.extend(batch.iter().map(|b| st.apply(b)));
            journal.append_beacons(0, &batch, &outcomes);
            outcomes.len()
        })
    });
    group.finish();
    drop(journal);
    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery of what one `ingest_durable` block leaves behind: a
/// 2-shard `NoSync` store holding 200k served registrations, then 550k
/// beacons in waves (every impression's seq 0, then seq 1, then seq 2
/// for three in four), 1 % of them journaled twice, in the appliers'
/// 700-beacon groups. Each iteration is one `open` of that directory,
/// and the drop of what it recovered.
fn bench_recover(c: &mut Criterion) {
    const IMPRESSIONS: u64 = 200_000;
    const SHARDS: usize = 2;
    const GROUP: usize = 700;
    let dir = std::env::temp_dir().join(format!("qtag-microbench-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurableConfig {
        dir: dir.clone(),
        shards: SHARDS,
        sync: SyncPolicy::NoSync,
    };
    let (backend, _) = DurableBackend::open(config.clone()).expect("open a scratch store");
    for id in 1..=IMPRESSIONS {
        backend.record_served(ServedImpression {
            impression_id: id,
            campaign_id: 1 + (id % 99) as u32,
            os: OsKind::Android,
            browser: BrowserKind::AndroidWebView,
            site_type: SiteType::App,
            ad_format: AdFormat::Display,
        });
    }
    let journal = backend.journal().expect("the durable backend journals");
    let store = backend.store();
    let mut groups: Vec<Vec<Beacon>> = (0..SHARDS).map(|_| Vec::with_capacity(GROUP)).collect();
    let flush = |shard: usize, batch: &mut Vec<Beacon>| {
        let mut st = store.shard(shard).lock();
        let outcomes: Vec<_> = batch.iter().map(|b| st.apply(b)).collect();
        journal.append_beacons(shard, batch, &outcomes);
        batch.clear();
    };
    for seq in 0..3u16 {
        for id in 1..=IMPRESSIONS {
            if seq == 2 && id % 4 == 0 {
                continue;
            }
            let mut b = sample_beacon(seq);
            b.impression_id = id;
            b.campaign_id = 1 + (id % 99) as u32;
            b.event = match seq {
                0 => EventKind::TagLoaded,
                1 => EventKind::Measurable,
                _ => EventKind::InView,
            };
            b.timestamp_us = (u64::from(seq) * IMPRESSIONS + id) * 1_000;
            let shard = store.shard_of(id);
            let copies = if id % 100 == 0 { 2 } else { 1 };
            for _ in 0..copies {
                groups[shard].push(b.clone());
                if groups[shard].len() == GROUP {
                    flush(shard, &mut groups[shard]);
                }
            }
        }
    }
    for (shard, batch) in groups.iter_mut().enumerate() {
        flush(shard, batch);
    }
    drop(journal);
    drop(backend);

    let mut group = c.benchmark_group("store");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("recover_2_shards", |b| {
        b.iter(|| {
            let (recovered, report) = DurableBackend::open(config.clone()).expect("recover");
            assert_eq!(report.served_replayed, IMPRESSIONS);
            drop(recovered);
            report.records_replayed
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// This process's resident set (`VmRSS` in `/proc/self/status`), in
/// bytes; 0 where the file is missing.
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib * 1024)
        })
        .unwrap_or(0)
}

/// A 2-shard `ShardedStore` holding impressions `1..=n`, each given
/// three beacons (`TagLoaded`, `Measurable`, `InView`), and the RSS
/// growth per impression after the registrations (served rows only)
/// and after the beacons (rows with records).
fn footprint_store(n: u64) -> (ShardedStore, f64, f64) {
    let start = rss_bytes();
    let store = ShardedStore::new(2);
    for id in 1..=n {
        store.record_served(ServedImpression {
            impression_id: id,
            campaign_id: 1 + (id % 99) as u32,
            os: OsKind::Android,
            browser: BrowserKind::AndroidWebView,
            site_type: SiteType::App,
            ad_format: AdFormat::Display,
        });
    }
    let served = rss_bytes();
    let events = [
        EventKind::TagLoaded,
        EventKind::Measurable,
        EventKind::InView,
    ];
    for (seq, event) in (0u16..).zip(events) {
        for id in 1..=n {
            let mut b = sample_beacon(seq);
            b.impression_id = id;
            b.event = event;
            store.apply(&b);
        }
    }
    let recorded = rss_bytes();
    assert_eq!(store.unique_beacons(), 3 * n);
    let per_imp = |rss: u64| rss.saturating_sub(start) as f64 / n as f64;
    (store, per_imp(served), per_imp(recorded))
}

/// What a resident impression costs the store, at 200k and 2M
/// impressions ([`footprint_store`]); each timed iteration looks up
/// every impression's verdict once.
///
/// An RSS delta is only the store's size in a fresh heap: once an
/// earlier build has freed its tables, glibc serves the next build's
/// growth tables from a heap that keeps the freed ones resident (a 2M
/// build after a 200k one read 16 B/impression more). So the figure
/// comes from a child process running this bench alone — the bench
/// binary with this bench's id as its filter — which measures in its
/// own, untouched heap and prints the line forwarded here.
fn bench_footprint(c: &mut Criterion) {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let mut group = c.benchmark_group("store");
    group.measurement_time(std::time::Duration::from_secs(1));
    for (id, n) in [("footprint_200k", 200_000u64), ("footprint_2m", 2_000_000)] {
        let name = format!("store/{id}");
        group.throughput(Throughput::Elements(n));
        group.bench_function(id, |b| {
            let store = if filter.as_deref() == Some(name.as_str()) {
                let (store, served, recorded) = footprint_store(n);
                println!(
                    "{name}: {served:.1} B/impression served rows only, \
                     {recorded:.1} B/impression with records"
                );
                store
            } else {
                let exe = std::env::current_exe().expect("own path");
                let out = std::process::Command::new(exe)
                    .arg(&name)
                    .output()
                    .expect("run the footprint child");
                assert!(out.status.success(), "footprint child failed");
                let stdout = String::from_utf8_lossy(&out.stdout);
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with(&format!("{name}:")))
                    .expect("the child prints its footprint");
                println!("{line}");
                footprint_store(n).0
            };
            b.iter(|| (1..=n).filter(|&id| store.verdict(id).1).count());
        });
    }
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

criterion_group!(
    benches,
    bench_footprint,
    bench_tag_overhead,
    bench_fleet_sweep,
    bench_wire,
    bench_store,
    bench_recover,
    bench_region,
    bench_estimator
);
criterion_main!(benches);
