//! Campaign reporting: a miniature production deployment.
//!
//! Serves a few hundred impressions of one campaign through the full
//! pipeline — auction, user session with Q-Tag and the commercial
//! verifier attached, lossy transport, the sharded ingestion service
//! — then prints the campaign report a DSP operator would read:
//! measured rate and viewability rate per solution, sliced by site type
//! and OS.
//!
//! Run with: `cargo run --release --example campaign_report`

use qtag::adtech::{AdSlotRequest, Campaign, Dsp, Exchange, ExchangeKind, GeoRegion, Sector};
use qtag::geometry::Size;
use qtag::server::{
    BeaconInlet, IngestConfig, IngestService, LossyLink, ReportBuilder, ServedImpression,
    ShardedStore,
};
use qtag::user::{Population, PopulationConfig, SessionSim};
use qtag::wire::framing::FrameEvent;
use qtag::wire::{FrameDecoder, SiteType};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const IMPRESSIONS: u32 = 400;

/// Decodes one connection's bytes, as a collector would, and hands the
/// verified beacons to the ingestion service. Corrupt frames are
/// dropped, exactly as the collector drops them.
fn collect(inlet: &BeaconInlet, bytes: &[u8]) {
    let mut dec = FrameDecoder::new();
    dec.extend(bytes);
    let mut events = dec.drain();
    events.extend(dec.finish());
    let beacons: Vec<_> = events
        .into_iter()
        .filter_map(|ev| match ev {
            FrameEvent::Beacon(b) => Some(b),
            FrameEvent::Corrupt(_) => None,
        })
        .collect();
    inlet.send_batch(&beacons);
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let population = Population::new(PopulationConfig::default());
    let mut dsp = Dsp::new(vec![Campaign::display(
        1,
        "Solera Beverages",
        Sector::FoodAndDrink,
        Size::MEDIUM_RECTANGLE,
    )]);
    let mut exchange = Exchange::new(ExchangeKind::OpenX);

    // One store per measurement solution, each behind the threaded
    // ingestion service (as the DSP's collection endpoints would be).
    let qtag_store = ShardedStore::new(1);
    let verifier_store = ShardedStore::new(1);
    let qtag_ingest = IngestService::start_sharded(qtag_store.clone(), IngestConfig::default());
    let verifier_ingest =
        IngestService::start_sharded(verifier_store.clone(), IngestConfig::default());
    let (qtag_inlet, verifier_inlet) = (qtag_ingest.inlet(), verifier_ingest.inlet());

    let sim = SessionSim::default();
    let mut served = 0u32;
    let mut request_id = 0u64;
    while served < IMPRESSIONS {
        request_id += 1;
        let env = population.sample(&mut rng);
        let req = AdSlotRequest {
            request_id,
            geo: GeoRegion::Spain,
            os: env.os,
            browser: qtag::wire::BrowserKind::Chrome,
            site_type: env.site_type,
            slot_size: Size::MEDIUM_RECTANGLE,
            floor_cpm_milli: 200,
        };
        let Some((ad, _)) = exchange.run(&req, &mut dsp) else {
            continue;
        };
        served += 1;

        let log_entry = ServedImpression {
            impression_id: ad.impression_id,
            campaign_id: ad.campaign_id.0,
            os: env.os,
            browser: req.browser,
            site_type: env.site_type,
            ad_format: ad.format,
        };
        qtag_store.record_served(log_entry.clone());
        verifier_store.record_served(log_entry);

        let out = sim.run(&ad, &env, 0xC0FFEE ^ ad.impression_id);

        // Fire-and-forget beacons over a lossy network into the
        // collectors.
        let mut link = LossyLink::new(env.beacon_loss, 0.002, ad.impression_id);
        collect(&qtag_inlet, &link.transmit(&out.qtag_beacons).unwrap());
        collect(
            &verifier_inlet,
            &link.transmit(&out.verifier_beacons).unwrap(),
        );
    }

    qtag_ingest.shutdown();
    verifier_ingest.shutdown();

    println!("campaign 'Solera Beverages' — {served} impressions served\n");
    for (name, store) in [
        ("Q-Tag", &qtag_store),
        ("Commercial verifier", &verifier_store),
    ] {
        let reports = ReportBuilder::per_campaign_sharded(store);
        let r = &reports[0];
        println!("{name}:");
        println!(
            "  measured rate:    {:>5.1}%   viewability rate: {:>5.1}%",
            r.total.measured_rate() * 100.0,
            r.total.viewability_rate() * 100.0
        );
        let table = ReportBuilder::slice_table_sharded(store);
        let mut keys: Vec<_> = table.keys().copied().collect();
        keys.sort_by_key(|k| (k.site_type.code(), k.os.code()));
        for key in keys {
            let s = table[&key];
            let site = match key.site_type {
                SiteType::App => "app",
                SiteType::Browser => "browser",
            };
            println!(
                "    {:>8} / {:<8}  served {:>4}  measured {:>5.1}%  viewed {:>5.1}%",
                site,
                format!("{:?}", key.os),
                s.served,
                s.measured_rate() * 100.0,
                s.viewability_rate() * 100.0
            );
        }
        println!();
    }
    println!("Note the commercial verifier's drop in in-app slices — the paper's Table 2.");
}
