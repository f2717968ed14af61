//! Golden oracle for the paper's outputs.
//!
//! A fixed grid of seeded power-law histograms, secrets and moduli `z`
//! is run through `WM_Generate` and `WM_Detect`. For every grid point
//! the fixture pins the eligible-pair count and a SHA-256 of the
//! canonical `(i, j, s, rm)` encoding of the eligible set, the chosen
//! pairs, the watermarked counts, and the detect verdicts on the marked
//! and the unmarked copy. A direct `pair_modulus` table pins the PRF
//! itself, including moduli at the edges of `u64`.
//!
//! Token lengths 0, 23, 24 and 40 bytes appear in every histogram: with
//! a 32-byte secret or inner digest, a token of 23 bytes or less keeps
//! each PRF message within one SHA-256 block, a longer one needs two.
//!
//! The same grid is then served: `proto::handle_line` on an `Engine`
//! must answer with the library's counts and verdicts, and the
//! registry must store the library's watermarked histogram. When the
//! library output differs from the fixture, the rendered text is
//! written to `golden-actual.txt` under the test target directory.

use freqywm_core::detect::detect_histogram;
use freqywm_core::eligible::eligible_pairs;
use freqywm_core::generate::{GenerationOutput, Watermarker};
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::hex;
use freqywm_crypto::prf::{pair_modulus, Secret};
use freqywm_crypto::sha256::Sha256;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, PowerLawConfig};
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::proto::handle_line;
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/golden/paper_outputs.txt");

const SECRETS: [&str; 2] = ["golden-secret-a", "golden-secret-b"];
const ZS: [u64; 4] = [131, 1031, 65_537, (1 << 32) + 15];

/// `(distinct tokens, sample size, alpha)`. The third has so few
/// samples per token that its tail is a run of ties; the fourth has
/// rank gaps wide enough for pairs under `z = 2^32 + 15`.
const HISTOGRAMS: [(usize, usize, f64); 4] = [
    (48, 60_000, 0.9),
    (64, 150_000, 0.6),
    (96, 6_000, 1.1),
    (40, 1_000_000_000_000, 0.9),
];

/// Token for rank `k`: a unique label padded to 6, 23, 24 or 40
/// bytes; rank 2 is the empty token.
fn token(k: usize) -> String {
    if k == 2 {
        return String::new();
    }
    let len = [6, 23, 24, 40, 6][k % 5];
    let mut t = format!("g{k:03}");
    while t.len() < len {
        t.push(char::from(b'a' + (t.len() % 26) as u8));
    }
    t
}

fn histogram(spec: (usize, usize, f64)) -> Histogram {
    let (distinct_tokens, sample_size, alpha) = spec;
    let counts = power_law_counts(&PowerLawConfig {
        distinct_tokens,
        sample_size,
        alpha,
    });
    Histogram::from_counts(
        counts
            .into_iter()
            .enumerate()
            .map(|(k, (_, c))| (Token::new(token(k)), c)),
    )
}

fn counts_json(h: &Histogram) -> String {
    let entries: Vec<String> = h
        .entries()
        .iter()
        .map(|(t, c)| format!("[\"{}\",{c}]", t.as_str()))
        .collect();
    format!("[{}]", entries.join(","))
}

/// One grid point's library outputs.
struct Point {
    label: String,
    hist: Histogram,
    secret: &'static str,
    z: u64,
    eligible: usize,
    generated: Result<GenerationOutput, String>,
}

fn grid() -> Vec<Point> {
    let mut out = Vec::new();
    for (h, spec) in HISTOGRAMS.iter().enumerate() {
        let hist = histogram(*spec);
        for secret in SECRETS {
            for z in ZS {
                let eligible = eligible_pairs(&hist, &Secret::from_label(secret), z).len();
                let generated = Watermarker::new(GenerationParams::default().with_z(z))
                    .generate_histogram(&hist, Secret::from_label(secret))
                    .map_err(|e| e.to_string());
                out.push(Point {
                    label: format!("h{h} {secret} z={z}"),
                    hist: hist.clone(),
                    secret,
                    z,
                    eligible,
                    generated,
                });
            }
        }
    }
    out
}

fn verdict(hist: &Histogram, out: &GenerationOutput) -> (bool, usize) {
    let o = detect_histogram(hist, &out.secrets, &DetectionParams::default());
    (o.accepted, o.accepted_pairs)
}

fn render(points: &[Point]) -> String {
    let mut s = String::new();
    for p in points {
        let secret = Secret::from_label(p.secret);
        let mut canon = Sha256::new();
        for e in eligible_pairs(&p.hist, &secret, p.z) {
            for v in [e.i as u64, e.j as u64, e.s, e.rm] {
                canon.update(&v.to_be_bytes());
            }
        }
        writeln!(s, "[{}]", p.label).unwrap();
        writeln!(
            s,
            "eligible {} sha256 {}",
            p.eligible,
            hex::encode(&canon.finalize())
        )
        .unwrap();
        let out = match &p.generated {
            Ok(out) => out,
            Err(e) => {
                writeln!(s, "embed error {e}").unwrap();
                continue;
            }
        };
        for (a, b) in &out.secrets.pairs {
            writeln!(s, "chosen {:?} {:?}", a.as_str(), b.as_str()).unwrap();
        }
        for (t, c) in out.watermarked.entries() {
            let was = p.hist.count(t).expect("same vocabulary");
            if was != *c {
                writeln!(s, "count {:?} {was} -> {c}", t.as_str()).unwrap();
            }
        }
        let (marked, marked_pairs) = verdict(&out.watermarked, out);
        let (plain, plain_pairs) = verdict(&p.hist, out);
        writeln!(
            s,
            "detect marked {marked} {marked_pairs} unmarked {plain} {plain_pairs}"
        )
        .unwrap();
    }
    let pairs: [(&str, String); 5] = [
        ("", token(1)),
        ("x", String::new()),
        ("tok-23", token(6)),
        ("tok-24", token(7)),
        ("tok-40", token(8)),
    ];
    for secret in SECRETS {
        let secret_bytes = Secret::from_label(secret);
        for z in [2u64, 3, (1 << 63) + 1, u64::MAX] {
            let row: Vec<String> = pairs
                .iter()
                .map(|(a, b)| {
                    pair_modulus(&secret_bytes, a.as_bytes(), b.as_bytes(), z).to_string()
                })
                .collect();
            writeln!(s, "pair_modulus {secret} z={z} {}", row.join(" ")).unwrap();
        }
    }
    s
}

fn field(response: &str, key: &str) -> String {
    let at = response
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {response}"))
        + key.len()
        + 3;
    response[at..]
        .chars()
        .take_while(|c| !matches!(c, ',' | '}'))
        .collect()
}

#[test]
fn library_outputs_match_the_golden_fixture() {
    let actual = render(&grid());
    if actual != FIXTURE {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-actual.txt");
        std::fs::write(&path, &actual).expect("write actual outputs");
        let line = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .map_or(actual.lines().count().min(FIXTURE.lines().count()), |l| l);
        panic!(
            "paper outputs differ from the fixture at line {}; actual written to {}",
            line + 1,
            path.display()
        );
    }
}

#[test]
fn served_outputs_match_the_library() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    for (n, p) in grid().iter().enumerate() {
        let tenant = format!("golden-{n}");
        engine
            .register_tenant(&tenant, Secret::from_label(p.secret))
            .unwrap();
        let embed = handle_line(
            &engine,
            &format!(
                r#"{{"op":"embed","tenant":"{tenant}","z":{},"counts":{}}}"#,
                p.z,
                counts_json(&p.hist)
            ),
        );
        let out = match &p.generated {
            Ok(out) => out,
            Err(_) => {
                assert!(embed.contains("\"ok\":false"), "{}: {embed}", p.label);
                continue;
            }
        };
        assert_eq!(
            field(&embed, "eligible_pairs"),
            p.eligible.to_string(),
            "{}",
            p.label
        );
        assert_eq!(
            field(&embed, "chosen_pairs"),
            out.secrets.pairs.len().to_string(),
            "{}",
            p.label
        );
        {
            let registry = engine.registry();
            let stored = registry
                .latest_watermark(&tenant)
                .expect("stored watermark");
            assert!(stored.watermarked == out.watermarked, "{}", p.label);
            assert!(stored.secrets == out.secrets, "{}", p.label);
        }
        for (hist, marked) in [(&out.watermarked, true), (&p.hist, false)] {
            let detect = handle_line(
                &engine,
                &format!(
                    r#"{{"op":"detect","tenant":"{tenant}","t":0,"k":1,"counts":{}}}"#,
                    counts_json(hist)
                ),
            );
            let (accepted, pairs) = verdict(hist, out);
            assert_eq!(
                field(&detect, "accepted"),
                accepted.to_string(),
                "{} marked={marked}",
                p.label
            );
            assert_eq!(
                field(&detect, "accepted_pairs"),
                pairs.to_string(),
                "{} marked={marked}",
                p.label
            );
        }
    }
    engine.shutdown();
}
