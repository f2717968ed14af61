//! Re-watermarking / false-claim attack and the judge protocol
//! (Sec. V-D).
//!
//! The pirate re-runs `WM_Generate` on the stolen watermarked data and
//! claims ownership; the judge runs each secret against each dataset.
//! The paper reports the first (owner's) watermark detected with 92% of
//! pairs on the re-marked copy at t = 0.
//!
//! This runner reproduces the experiment twice: with the paper-faithful
//! selector, and with free-pair exclusion — the hardening
//! `GenerationParams::exclude_free_pairs` adds (without it the pirate's watermark largely pre-exists in
//! the owner's data and the four-run protocol cannot discriminate).
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_rewatermark
//! ```

use freqywm_attacks::rewatermark::rewatermark_attack;
use freqywm_bench::{paper_zipf, print_header, print_row, timed};
use freqywm_core::generate::Watermarker;
use freqywm_core::judge::{judge_dispute, Claim};
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;

fn run_case(label: &str, exclude_free: bool) {
    let hist = paper_zipf(0.5);
    let params = GenerationParams::default()
        .with_z(131)
        .with_budget(2.0)
        .with_exclude_free_pairs(exclude_free);
    let wm = Watermarker::new(params);
    let owner_out = wm
        .generate_histogram(&hist, Secret::from_label("rightful-owner"))
        .expect("skewed data");
    let owner = Claim {
        histogram: owner_out.watermarked.clone(),
        secrets: owner_out.secrets,
    };
    let pirate = rewatermark_attack(&owner.histogram, &wm, Secret::from_label("pirate"))
        .expect("still watermarkable");

    let judge_params = DetectionParams::default()
        .with_t(0)
        .with_k((owner.secrets.len() / 4).max(1));
    let ruling = judge_dispute(&owner, &pirate, &judge_params);
    let widths = [22, 10, 10, 10, 10, 15];
    print_row(
        &[
            label.to_string(),
            format!("{:.1}", ruling.a_on_a.accept_rate() * 100.0),
            format!("{:.1}", ruling.a_on_b.accept_rate() * 100.0),
            format!("{:.1}", ruling.b_on_b.accept_rate() * 100.0),
            format!("{:.1}", ruling.b_on_a.accept_rate() * 100.0),
            format!("{:?}", ruling.verdict),
        ],
        &widths,
    );
}

fn main() {
    let ((), secs) = timed(|| {
        println!(
            "\nSec. V-D — re-watermarking dispute, four detection runs at t = 0, k = |pairs|/4"
        );
        println!("(own/own = self check; own/pirate = owner's mark on the re-marked copy; etc.)\n");
        let widths = [22, 10, 10, 10, 10, 15];
        print_header(
            &[
                "selector", "own/own%", "own/pir%", "pir/pir%", "pir/own%", "verdict",
            ],
            &widths,
        );
        run_case("paper-faithful", false);
        run_case("exclude-free-pairs", true);
        println!(
            "\npaper: first watermark detected with ~92% of pairs on the re-marked copy; the judge\n\
             declares the party whose secret verifies on BOTH datasets. Reproduction note: with the\n\
             paper-faithful selector the pirate's zero-cost pairs also verify on the owner's earlier\n\
             copy (pir/own is high), so the protocol cannot discriminate; excluding free pairs\n\
             restores the separation (pir/own collapses to ~0)."
        );
    });
    println!("\n[exp_rewatermark: {secs:.1}s]");
}
