//! Quickstart: build the calibrated dataset and reproduce the paper's
//! four findings end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Uses the reduced test-scale dataset so it finishes in seconds; pass
//! `--paper` for the full ~4.67 M-location dataset.

use starlink_divide_repro::capacity::beamspread::Beamspread;
use starlink_divide_repro::capacity::DeploymentPolicy;
use starlink_divide_repro::model::{findings, sizing, PaperModel};

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper");
    println!(
        "building {} dataset...",
        if paper_scale {
            "paper-scale"
        } else {
            "test-scale"
        }
    );
    let model = if paper_scale {
        PaperModel::paper_scale()
    } else {
        PaperModel::test_scale()
    };
    println!(
        "dataset: {} un(der)served locations across {} demand cells ({} US cells)\n",
        model.dataset.total_locations,
        model.dataset.cols.len(),
        model.dataset.us_cell_count,
    );

    let f1 = findings::finding1(&model);
    println!("== F1: spectrum limits ==");
    println!(
        "peak cell: {} locations -> {:.1} Gbps demand -> {:.1}:1 oversubscription needed",
        f1.peak_locations, f1.peak_demand_gbps, f1.peak_oversub
    );
    println!(
        "at the FCC 20:1 benchmark, {} locations in {} cells are shed ({:.2}% still served)\n",
        f1.unserved_at_cap,
        f1.over_cap_cells,
        100.0 * f1.served_fraction_at_cap
    );

    let f2 = findings::finding2(&model);
    println!("== F2: constellation scale ==");
    for b in [1u32, 2, 5, 10, 15] {
        let n = sizing::constellation_size(
            &model,
            DeploymentPolicy::fcc_capped(),
            Beamspread::new(b).unwrap(),
        );
        println!("  beamspread {b:>2} -> {n:>6} satellites (20:1 cap)");
    }
    println!(
        "covering every US cell within 20:1 at beamspread 2 needs {} satellites — {} more than today's ~{}\n",
        f2.required_b2_capped, f2.additional_needed, f2.current_size
    );

    let f3 = findings::finding3(&model);
    println!("== F3: diminishing returns ==");
    println!(
        "the final {} locations alone cost {} additional satellites (b=5, 20:1)\n",
        f3.tail_locations, f3.marginal_satellites
    );

    let f4 = findings::finding4(&model);
    println!("== F4: affordability ==");
    println!(
        "{} of {} locations ({:.1}%) cannot afford Starlink Residential at $120/mo;",
        f4.unaffordable_residential,
        f4.total_locations,
        100.0 * f4.unaffordable_residential as f64 / f4.total_locations as f64
    );
    println!(
        "{} still cannot with the Lifeline subsidy; cable-priced plans are affordable at {:.2}% of locations.",
        f4.unaffordable_with_lifeline,
        100.0 * f4.cable_affordable_fraction
    );
}
