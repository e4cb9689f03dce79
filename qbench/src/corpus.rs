//! The back-half workloads' input: Q-Tag beacon streams captured from
//! real simulated sessions, then tiled over fresh impression ids.
//!
//! The daemon under test only ever sees these generated beacons; the
//! simulator runs in set-up, never inside a timed section.

use qtag_adtech::{CampaignId, ServedAd};
use qtag_geometry::Size;
use qtag_server::ServedImpression;
use qtag_user::{Population, PopulationConfig, SessionSim};
use qtag_wire::{AdFormat, Beacon, BrowserKind, OsKind, SiteType};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Campaigns the tiled impressions are spread across (the paper's 99).
pub const CAMPAIGNS: u32 = 99;

/// One simulated week, the span tiled timestamps cover.
pub const WEEK_US: u64 = 7 * 24 * 3600 * 1_000_000;

/// Timestamp stride between consecutive tiled impressions: a prime
/// number of microseconds near 1.7 s, so a few hundred thousand
/// impressions wrap the week several times and fill every hour bucket.
const STRIDE_US: u64 = 1_700_003;

/// What the ad server knew about a captured session's impression.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Env {
    os: OsKind,
    browser: BrowserKind,
    site_type: SiteType,
    ad_format: AdFormat,
}

/// Captured Q-Tag beacon streams, one per session that reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Templates {
    streams: Vec<(Env, Vec<Beacon>)>,
}

impl Templates {
    /// Runs `sessions` simulated sessions (Q-Tag only) and keeps the
    /// beacon stream of each one whose tag loaded. Deterministic per
    /// seed.
    pub fn capture(seed: u64, sessions: usize) -> Templates {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7E3A_11CE);
        let population = Population::new(PopulationConfig::default());
        let sim = SessionSim {
            attach_verifier: false,
            ..SessionSim::default()
        };
        let mut streams = Vec::with_capacity(sessions);
        for i in 0..sessions as u64 {
            let env = population.sample(&mut rng);
            let ad = ServedAd {
                impression_id: i + 1,
                campaign_id: CampaignId(1),
                creative_size: if i % 2 == 0 {
                    Size::MEDIUM_RECTANGLE
                } else {
                    Size::MOBILE_BANNER
                },
                format: AdFormat::Display,
                paid_cpm_milli: 800,
            };
            let out = sim.run(
                &ad,
                &env,
                seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let Some(first) = out.qtag_beacons.first() else {
                continue; // the tag never loaded: nothing reaches a collector
            };
            let env = Env {
                os: first.os,
                browser: first.browser,
                site_type: first.site_type,
                ad_format: first.ad_format,
            };
            streams.push((env, out.qtag_beacons));
        }
        assert!(!streams.is_empty(), "no captured session reported");
        Templates { streams }
    }

    /// Number of captured streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Mean beacons per captured stream.
    pub fn mean_beacons(&self) -> f64 {
        let total: usize = self.streams.iter().map(|(_, s)| s.len()).sum();
        total as f64 / self.streams.len() as f64
    }

    /// The `k`th tiled impression: template `k mod len` re-labelled with
    /// impression id `k + 1`, a campaign in `1..=99`, and timestamps
    /// shifted to the impression's place in the simulated week. Ids are
    /// never reused: distinct `k` give distinct ids.
    pub fn tile(&self, k: u64) -> Tiled<'_> {
        let (env, stream) = &self.streams[(k % self.streams.len() as u64) as usize];
        Tiled {
            env,
            stream,
            impression_id: k + 1,
            campaign_id: (k % u64::from(CAMPAIGNS)) as u32 + 1,
            offset_us: k.wrapping_mul(STRIDE_US) % WEEK_US,
        }
    }
}

/// One tiled impression; iterate [`Tiled::beacons`] for its stream.
pub struct Tiled<'a> {
    env: &'a Env,
    stream: &'a [Beacon],
    /// The fresh impression id.
    pub impression_id: u64,
    /// Campaign the impression is booked under.
    pub campaign_id: u32,
    offset_us: u64,
}

impl Tiled<'_> {
    /// The served-log row the store must hold before beacons arrive.
    pub fn served(&self) -> ServedImpression {
        ServedImpression {
            impression_id: self.impression_id,
            campaign_id: self.campaign_id,
            os: self.env.os,
            browser: self.env.browser,
            site_type: self.env.site_type,
            ad_format: self.env.ad_format,
        }
    }

    /// The re-labelled beacons, in emission order.
    pub fn beacons(&self) -> impl Iterator<Item = Beacon> + '_ {
        self.stream.iter().map(move |b| Beacon {
            impression_id: self.impression_id,
            campaign_id: self.campaign_id,
            timestamp_us: b.timestamp_us + self.offset_us,
            ..b.clone()
        })
    }
}

/// A cheap, seed-keyed hash for per-beacon fault decisions (which frames
/// get a byte flipped, which beacons are sent twice). SplitMix64.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn tiling_is_deterministic_per_seed_and_never_reuses_an_id() {
        let a = Templates::capture(7, 24);
        let b = Templates::capture(7, 24);
        assert_eq!(a, b, "same seed, same templates");
        assert_ne!(a, Templates::capture(8, 24), "another seed differs");

        let mut ids = HashSet::new();
        let n = a.len() as u64 * 3 + 5; // wraps the template list
        for k in 0..n {
            let (ta, tb) = (a.tile(k), b.tile(k));
            assert!(ids.insert(ta.impression_id), "id reused at {k}");
            assert!((1..=CAMPAIGNS).contains(&ta.campaign_id));
            let (sa, sb): (Vec<_>, Vec<_>) = (ta.beacons().collect(), tb.beacons().collect());
            assert_eq!(sa, sb);
            assert!(!sa.is_empty());
            assert!(sa.iter().all(|x| x.impression_id == ta.impression_id
                && x.campaign_id == ta.campaign_id
                && x.validate().is_ok()));
            assert_eq!(ta.served().impression_id, ta.impression_id);
        }
        // Wrapped tiles share a template but not an identity.
        let (first, wrapped) = (a.tile(0), a.tile(a.len() as u64));
        assert_eq!(first.beacons().count(), wrapped.beacons().count());
        assert_ne!(first.impression_id, wrapped.impression_id);
    }

    #[test]
    fn mix_depends_on_every_argument() {
        let base = mix(1, 2, 3);
        assert_ne!(base, mix(2, 2, 3));
        assert_ne!(base, mix(1, 3, 3));
        assert_ne!(base, mix(1, 2, 4));
        assert_eq!(base, mix(1, 2, 3));
    }
}
