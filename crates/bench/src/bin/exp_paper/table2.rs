//! Table II — validation on the three (simulated) real-world datasets:
//! distinct tokens, |Le|, pairs chosen by Optimal / Greedy / Random,
//! and generation / detection wall-times (z = 131, b = 2; the paper
//! averages 30 runs, we average over `RUNS` secrets).
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_paper -- table2
//! ```

use freqywm_bench::{mean, print_header, print_row, timed};
use freqywm_core::detect::detect_histogram;
use freqywm_core::generate::Watermarker;
use freqywm_core::params::{DetectionParams, GenerationParams, Selection};
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::realworld;
use rand::rngs::StdRng;
use rand::SeedableRng;

const RUNS: usize = 5;

struct Row {
    name: &'static str,
    token: &'static str,
    rows: usize,
    hist: Histogram,
}

pub fn run() {
    let mut rng = StdRng::seed_from_u64(2);
    // Simulated stand-ins (`freqywm_data::realworld`: the originals
    // are not redistributable); the taxi histogram runs at the
    // paper's full trip scale (histogram-level, nothing materialised).
    const TAXI_TRIPS: u64 = 12_000_000;
    let taxi_hist = realworld::chicago_taxi_hist(TAXI_TRIPS, 1.5, &mut rng);
    let eye = realworld::eyewnder(realworld::EYEWNDER_DEFAULT_EVENTS, &mut rng);
    let adult = realworld::adult(realworld::ADULT_DEFAULT_ROWS, &mut rng);
    let datasets = [
        Row {
            name: "ChicagoTaxi*",
            token: "Taxi ID",
            rows: TAXI_TRIPS as usize,
            hist: taxi_hist,
        },
        Row {
            name: "eyeWnder*",
            token: "URL",
            rows: realworld::EYEWNDER_DEFAULT_EVENTS,
            hist: eye.urls().histogram(),
        },
        Row {
            name: "Adult*",
            token: "Age",
            rows: realworld::ADULT_DEFAULT_ROWS,
            hist: adult.tokens_over(&["age"]).histogram(),
        },
    ];

    println!("\nTable II — validation on simulated real-world datasets (z = 131, b = 2, mean of {RUNS} runs)");
    println!("(* simulated stand-ins at documented scale; see freqywm_data::realworld)");
    let widths = [13, 8, 9, 9, 8, 8, 8, 8, 10, 11];
    print_header(
        &[
            "dataset",
            "token",
            "rows",
            "distinct",
            "|Le|",
            "optimal",
            "greedy",
            "random",
            "gen (s)",
            "detect (s)",
        ],
        &widths,
    );
    for d in &datasets {
        let mut eligible = Vec::new();
        let mut optimal = Vec::new();
        let mut greedy = Vec::new();
        let mut random = Vec::new();
        let mut gen_time = Vec::new();
        let mut det_time = Vec::new();
        for run in 0..RUNS {
            let secret = Secret::from_label(&format!("table2-{}-{run}", d.name));
            let params = GenerationParams::default().with_z(131).with_budget(2.0);
            let (out, t_gen) =
                timed(|| Watermarker::new(params).generate_histogram(&d.hist, secret.clone()));
            let out = out.expect("real-world data has eligible pairs");
            gen_time.push(t_gen);
            eligible.push(out.report.eligible_pairs as f64);
            optimal.push(out.report.chosen_pairs as f64);
            let grd = Watermarker::new(params.with_selection(Selection::Greedy))
                .generate_histogram(&d.hist, secret.clone())
                .expect("greedy succeeds where optimal does");
            greedy.push(grd.report.chosen_pairs as f64);
            let rnd =
                Watermarker::new(params.with_selection(Selection::Random { seed: run as u64 }))
                    .generate_histogram(&d.hist, secret.clone())
                    .expect("random succeeds where optimal does");
            random.push(rnd.report.chosen_pairs as f64);
            let det_params = DetectionParams::default()
                .with_t(0)
                .with_k(out.secrets.len());
            let (outcome, t_det) =
                timed(|| detect_histogram(&out.watermarked, &out.secrets, &det_params));
            assert!(outcome.accepted, "round trip must verify");
            det_time.push(t_det);
        }
        print_row(
            &[
                d.name.to_string(),
                d.token.to_string(),
                d.rows.to_string(),
                d.hist.len().to_string(),
                format!("{:.0}", mean(&eligible)),
                format!("{:.0}", mean(&optimal)),
                format!("{:.0}", mean(&greedy)),
                format!("{:.0}", mean(&random)),
                format!("{:.3}", mean(&gen_time)),
                format!("{:.4}", mean(&det_time)),
            ],
            &widths,
        );
    }
    println!(
        "\npaper (full-scale, Python): Taxi |Le|=33308 opt=805 grd=770 rnd=773 gen=182.5s det=0.609s"
    );
    println!(
        "                            eyeWnder |Le|=257 opt=38 grd=33 rnd=31 gen=420.8s det=0.053s"
    );
    println!("                            Adult |Le|=72 opt=21 grd=20 rnd=17 gen=0.03s det=0.001s");
}
