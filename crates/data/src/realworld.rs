//! Simulated stand-ins for the paper's three real-world datasets.
//!
//! The originals (Chicago Taxi trips, the eyeWnder click-stream, UCI
//! Adult) are not redistributable here, so each generator reproduces
//! the *properties FreqyWM actually consumes* — the distinct-token
//! count and the shape of the frequency histogram — at a documented
//! scale (the `*_DEFAULT_*` constants below):
//!
//! * **Chicago Taxi** — 6 573 distinct taxi ids, heavy-tailed trip
//!   counts with large frequency gaps ⇒ tens of thousands of eligible
//!   pairs (paper: |Le| = 33 308, optimal picks 805).
//! * **eyeWnder** — 11 479 distinct URLs but a long, nearly flat tail
//!   of rare URLs ⇒ very few eligible pairs (paper: |Le| = 257,
//!   optimal picks 38). Events carry a day index with weekly
//!   seasonality + mild trend for the Sec. VI feature analysis.
//! * **Adult** — 73 distinct ages over ~32.5k rows plus a WorkClass
//!   column following the UCI marginals, for the multi-dimensional
//!   token experiment (paper: 481 distinct [Age, WorkClass], 20 pairs).

use crate::dataset::{Dataset, Table};
use crate::token::Token;
use rand::distributions::Distribution;
use rand::{Rng, RngCore};

/// Default scale factors (fraction of the original row counts) chosen
/// so every experiment runs on a laptop in seconds.
pub const TAXI_DEFAULT_TRIPS: usize = 600_000;
pub const EYEWNDER_DEFAULT_EVENTS: usize = 220_000;
pub const ADULT_DEFAULT_ROWS: usize = 32_561;

/// Explicit-seed wrappers: the reproducible entry points (service
/// tests and benches must never fall back to ambient entropy).
pub fn chicago_taxi_seeded(trips: usize, seed: u64) -> Dataset {
    use rand::SeedableRng;
    chicago_taxi(trips, &mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// Seeded [`chicago_taxi_hist`].
pub fn chicago_taxi_hist_seeded(trips: u64, sigma: f64, seed: u64) -> crate::histogram::Histogram {
    use rand::SeedableRng;
    chicago_taxi_hist(trips, sigma, &mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// Seeded [`eyewnder`].
pub fn eyewnder_seeded(events: usize, seed: u64) -> ClickStream {
    use rand::SeedableRng;
    eyewnder(events, &mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// Seeded [`adult`].
pub fn adult_seeded(rows: usize, seed: u64) -> Table {
    use rand::SeedableRng;
    adult(rows, &mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// Simulated Chicago Taxi: returns the Taxi-ID token dataset.
///
/// Trips per taxi follow a lognormal-like law (exp of a normal sampled
/// via Box–Muller) giving a smooth heavy tail with mostly distinct
/// counts — the regime in which FreqyWM finds many eligible pairs.
pub fn chicago_taxi<R: RngCore>(trips: usize, rng: &mut R) -> Dataset {
    const TAXIS: usize = 6_573;
    // Draw an activity weight per taxi.
    let mut weights = Vec::with_capacity(TAXIS);
    for _ in 0..TAXIS {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen::<f64>();
        let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        weights.push((1.1f64 * normal).exp());
    }
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(TAXIS);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cumulative.push(acc);
    }
    let names: Vec<Token> = (0..TAXIS)
        .map(|i| Token::new(format!("taxi-{i:04}")))
        .collect();
    let uni = rand::distributions::Uniform::new(0.0f64, 1.0);
    (0..trips)
        .map(|_| {
            let u = uni.sample(rng);
            let idx = cumulative.partition_point(|&c| c < u).min(TAXIS - 1);
            names[idx].clone()
        })
        .collect()
}

/// Histogram-level Chicago Taxi simulation at full scale: expected trip
/// counts per taxi for `trips` total trips (no token materialisation,
/// so tens of millions of trips cost nothing). `sigma` controls the
/// lognormal dispersion; 1.5 reproduces the paper's eligible-pair
/// regime (|Le| in the tens of thousands at z = 131).
pub fn chicago_taxi_hist<R: RngCore>(
    trips: u64,
    sigma: f64,
    rng: &mut R,
) -> crate::histogram::Histogram {
    const TAXIS: usize = 6_573;
    let mut weights = Vec::with_capacity(TAXIS);
    for _ in 0..TAXIS {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen::<f64>();
        let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        weights.push((sigma * normal).exp());
    }
    let total: f64 = weights.iter().sum();
    crate::histogram::Histogram::from_counts(weights.iter().enumerate().map(|(i, w)| {
        (
            Token::new(format!("taxi-{i:04}")),
            (w / total * trips as f64).round() as u64,
        )
    }))
}

/// One simulated eyeWnder browsing event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClickEvent {
    /// Day index starting at 0.
    pub day: u32,
    pub url: Token,
}

/// Simulated eyeWnder click-stream log.
#[derive(Debug, Clone, Default)]
pub struct ClickStream {
    pub events: Vec<ClickEvent>,
}

impl ClickStream {
    /// The URL token dataset (the paper's Table II view).
    pub fn urls(&self) -> Dataset {
        self.events.iter().map(|e| e.url.clone()).collect()
    }

    /// Daily visit counts over `days` days — the "browser history"
    /// series of Fig. 9 and input to the Figs. 6–8 decomposition.
    pub fn daily_counts(&self, days: u32) -> Vec<f64> {
        let mut counts = vec![0.0f64; days as usize];
        for e in &self.events {
            if e.day < days {
                counts[e.day as usize] += 1.0;
            }
        }
        counts
    }

    /// Number of days spanned (max day + 1).
    pub fn span_days(&self) -> u32 {
        self.events.iter().map(|e| e.day + 1).max().unwrap_or(0)
    }

    /// Rebuilds a click-stream whose URL histogram matches `target`
    /// counts by adding/removing events for the changed URLs; added
    /// events get RNG-chosen days. Used after watermarking to carry
    /// the timestamps through the transformation.
    pub fn with_url_counts<R: RngCore>(
        &self,
        target: &crate::histogram::Histogram,
        rng: &mut R,
    ) -> ClickStream {
        let current = self.urls().histogram();
        let days = self.span_days().max(1);
        let mut events = self.events.clone();
        for (url, want) in target.entries() {
            let have = current.count(url).unwrap_or(0);
            if *want > have {
                for _ in 0..(*want - have) {
                    let day = rng.gen_range(0..days);
                    let pos = rng.gen_range(0..=events.len());
                    events.insert(
                        pos,
                        ClickEvent {
                            day,
                            url: url.clone(),
                        },
                    );
                }
            } else if *want < have {
                let mut to_remove = have - *want;
                let mut positions: Vec<usize> = events
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.url == *url)
                    .map(|(i, _)| i)
                    .collect();
                use rand::seq::SliceRandom;
                positions.shuffle(rng);
                positions.truncate(to_remove as usize);
                positions.sort_unstable_by(|a, b| b.cmp(a));
                for p in positions {
                    events.remove(p);
                    to_remove -= 1;
                }
                debug_assert_eq!(to_remove, 0);
            }
        }
        ClickStream { events }
    }
}

/// Simulated eyeWnder click-stream over 84 days (12 weeks).
///
/// URL popularity is Zipf(1.05) over 11 479 URLs: a handful of hot
/// domains with distinct counts and a huge tail of URLs seen a few
/// times (ties everywhere ⇒ few eligible pairs). Daily volume has an
/// upward trend and a weekly pattern so trend/seasonality analysis has
/// something to find.
pub fn eyewnder<R: RngCore>(events: usize, rng: &mut R) -> ClickStream {
    const URLS: usize = 11_479;
    const DAYS: u32 = 84;
    let sampler = crate::synthetic::ZipfSampler::new(URLS, 1.05);
    let names: Vec<Token> = (0..URLS)
        .map(|i| Token::new(format!("url-{i:05}.example")))
        .collect();
    // Per-day weights: trend + weekly seasonality.
    let day_weights: Vec<f64> = (0..DAYS)
        .map(|d| {
            let trend = 1.0 + 0.004 * d as f64;
            let weekly = 1.0 + 0.3 * ((d % 7) as f64 * 2.0 * std::f64::consts::PI / 7.0).sin();
            (trend * weekly).max(0.05)
        })
        .collect();
    let day_total: f64 = day_weights.iter().sum();
    let mut day_cum = Vec::with_capacity(DAYS as usize);
    let mut acc = 0.0;
    for w in &day_weights {
        acc += w / day_total;
        day_cum.push(acc);
    }
    let mut out = Vec::with_capacity(events);
    for _ in 0..events {
        let u: f64 = rng.gen();
        let day = day_cum.partition_point(|&c| c < u).min(DAYS as usize - 1) as u32;
        let url = names[sampler.sample(rng)].clone();
        out.push(ClickEvent { day, url });
    }
    ClickStream { events: out }
}

/// UCI Adult WorkClass categories with their approximate marginals.
pub const WORKCLASSES: [(&str, f64); 9] = [
    ("Private", 0.6970),
    ("Self-emp-not-inc", 0.0780),
    ("Local-gov", 0.0642),
    ("Unknown", 0.0564),
    ("State-gov", 0.0398),
    ("Self-emp-inc", 0.0343),
    ("Federal-gov", 0.0295),
    ("Without-pay", 0.0004),
    ("Never-worked", 0.0004),
];

/// Simulated Adult census table with `age` and `workclass` columns.
///
/// Ages span 17–89 (73 distinct values, as in the paper) following a
/// census-like piecewise-linear density peaking in the mid-30s.
pub fn adult<R: RngCore>(rows: usize, rng: &mut R) -> Table {
    // Age density: rises 17→36, falls 36→89.
    let ages: Vec<u32> = (17..=89).collect();
    let age_weights: Vec<f64> = ages
        .iter()
        .map(|&a| {
            let a = a as f64;
            if a <= 36.0 {
                0.2 + 0.8 * (a - 17.0) / 19.0
            } else {
                (1.0 - 0.95 * (a - 36.0) / 53.0).max(0.02)
            }
        })
        .collect();
    let age_total: f64 = age_weights.iter().sum();
    let mut age_cum = Vec::with_capacity(ages.len());
    let mut acc = 0.0;
    for w in &age_weights {
        acc += w / age_total;
        age_cum.push(acc);
    }
    let wc_total: f64 = WORKCLASSES.iter().map(|(_, p)| p).sum();
    let mut wc_cum = Vec::with_capacity(WORKCLASSES.len());
    let mut acc = 0.0;
    for (_, p) in WORKCLASSES {
        acc += p / wc_total;
        wc_cum.push(acc);
    }
    let mut table = Table::new(vec!["age".into(), "workclass".into(), "hours".into()]);
    for _ in 0..rows {
        let u: f64 = rng.gen();
        let age = ages[age_cum.partition_point(|&c| c < u).min(ages.len() - 1)];
        let u: f64 = rng.gen();
        let wc = WORKCLASSES[wc_cum
            .partition_point(|&c| c < u)
            .min(WORKCLASSES.len() - 1)]
        .0;
        let hours = rng.gen_range(20..=60);
        table.push_row(vec![age.to_string(), wc.to_string(), hours.to_string()]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn taxi_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = chicago_taxi(60_000, &mut rng);
        assert_eq!(d.len(), 60_000);
        let h = d.histogram();
        // Most taxis observed at this scale; heavy tail present.
        assert!(h.len() > 4_000, "distinct taxis {}", h.len());
        let counts = h.counts();
        assert!(counts[0] > 5 * counts[counts.len() / 2].max(1));
    }

    #[test]
    fn eyewnder_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let cs = eyewnder(50_000, &mut rng);
        assert_eq!(cs.events.len(), 50_000);
        let h = cs.urls().histogram();
        // Many distinct URLs, strongly tied tail.
        assert!(h.len() > 5_000, "distinct urls {}", h.len());
        let counts = h.counts();
        let rare = counts.iter().filter(|&&c| c <= 2).count();
        assert!(
            rare * 2 > h.len(),
            "tail should be dominated by rare (tied) URLs: {rare}/{}",
            h.len()
        );
        assert!(cs.span_days() <= 84);
    }

    #[test]
    fn eyewnder_daily_counts_total() {
        let mut rng = StdRng::seed_from_u64(3);
        let cs = eyewnder(10_000, &mut rng);
        let daily = cs.daily_counts(84);
        let total: f64 = daily.iter().sum();
        assert_eq!(total as usize, 10_000);
    }

    #[test]
    fn clickstream_with_url_counts_matches_target() {
        let mut rng = StdRng::seed_from_u64(4);
        let cs = eyewnder(5_000, &mut rng);
        let h = cs.urls().histogram();
        // Nudge the top two URLs.
        let top0 = h.entries()[0].0.clone();
        let top1 = h.entries()[1].0.clone();
        let target = h.with_changes(&[(top0.clone(), -3), (top1.clone(), 5)]);
        let cs2 = cs.with_url_counts(&target, &mut rng);
        let h2 = cs2.urls().histogram();
        assert_eq!(h2.count(&top0), target.count(&top0));
        assert_eq!(h2.count(&top1), target.count(&top1));
        assert_eq!(h2.total(), target.total());
    }

    #[test]
    fn adult_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = adult(20_000, &mut rng);
        assert_eq!(t.len(), 20_000);
        let ages = t.tokens_over(&["age"]).histogram();
        assert!(
            ages.len() >= 70 && ages.len() <= 73,
            "distinct ages {}",
            ages.len()
        );
        // WorkClass marginal sanity: Private must dominate.
        let wc = t.tokens_over(&["workclass"]).histogram();
        assert_eq!(wc.entries()[0].0.as_str(), "Private");
        // Multi-dim tokens in the paper's ballpark (~481 distinct).
        let multi = t.tokens_over(&["age", "workclass"]).histogram();
        assert!(
            multi.len() > 300 && multi.len() < 660,
            "distinct [age,workclass] {}",
            multi.len()
        );
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let d1 = chicago_taxi(1_000, &mut StdRng::seed_from_u64(9));
        let d2 = chicago_taxi(1_000, &mut StdRng::seed_from_u64(9));
        assert_eq!(d1, d2);
        let a1 = adult(500, &mut StdRng::seed_from_u64(9));
        let a2 = adult(500, &mut StdRng::seed_from_u64(9));
        assert_eq!(a1.rows(), a2.rows());
    }
}
