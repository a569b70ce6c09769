//! BEAD buildout vs. constellation size: a policy what-if.
//!
//! The paper's motivation cites the NTIA's restructuring of the $42.45 B
//! BEAD program to allow funding LEO service instead of terrestrial
//! builds. This example runs the complementary counterfactual: as a
//! terrestrial buildout serves more of each cell's backlog, how do the
//! constellation Starlink would need *and* the affordability gap evolve?
//!
//! ```sh
//! cargo run --release --example bead_buildout
//! ```

use starlink_divide_repro::capacity::beamspread::Beamspread;
use starlink_divide_repro::capacity::DeploymentPolicy;
use starlink_divide_repro::demand::scenario::terrestrial_buildout;
use starlink_divide_repro::demand::IspPlan;
use starlink_divide_repro::model::{afford, sizing, PaperModel};
use starlink_divide_repro::report::TextTable;

fn main() {
    let base = PaperModel::test_scale();
    let spread = Beamspread::new(2).expect("nonzero");
    let mut t = TextTable::new(
        "terrestrial buildout (locations served per cell) vs LEO requirements",
        &[
            "buildout/cell",
            "backlog",
            "demand cells",
            "satellites (b=2, 20:1)",
            "cannot afford $120",
        ],
    );
    for per_cell in [0u64, 50, 200, 500, 1000, 2000, 3465] {
        let ds = terrestrial_buildout(&base.dataset, per_cell);
        if ds.cols.is_empty() {
            t.row(&[
                per_cell.to_string(),
                "0".into(),
                "0".into(),
                "none needed".into(),
                "0".into(),
            ]);
            continue;
        }
        let model = PaperModel::new(ds);
        let sats = sizing::constellation_size(&model, DeploymentPolicy::fcc_capped(), spread);
        let unafford = afford::affordability(&model, IspPlan::starlink_residential());
        t.row(&[
            per_cell.to_string(),
            model.dataset.total_locations.to_string(),
            model.dataset.cols.len().to_string(),
            sats.to_string(),
            format!(
                "{} ({:.1}%)",
                unafford.unaffordable_locations,
                100.0 * unafford.unaffordable_fraction()
            ),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nThe stone-in-the-jar picture, quantified: terrestrial builds shrink the backlog\n\
         but the *constellation requirement* barely moves until the buildout reaches the\n\
         densest cells (the peak cell pins it), and the affordability gap persists at\n\
         every buildout level — capacity and affordability are separate barriers."
    );
}
