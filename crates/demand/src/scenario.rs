//! What-if transformations over a generated dataset.
//!
//! The paper analyzes a snapshot; policy questions are about change:
//! what if the BEAD buildout serves part of the backlog, what if
//! incomes shift, what if demand keeps growing? These transformations
//! produce modified datasets that flow through the *same* model
//! pipeline, so every figure can be regenerated under a scenario.
//! (They operate on the aggregate tables; the grid and county geometry
//! are shared unchanged.)

use crate::counties::County;
use crate::dataset::{BroadbandDataset, DatasetColumns};

/// Rewrites every cell's count through `count` and keeps the cells
/// whose new count is nonzero, column by column; county totals are
/// recounted from the surviving cells. Incomes and geometry carry over.
fn map_counts(base: &BroadbandDataset, count: impl Fn(u64) -> u64) -> BroadbandDataset {
    let (keep, locations): (Vec<usize>, Vec<u64>) = base
        .cols
        .locations
        .iter()
        .enumerate()
        .filter_map(|(i, &n)| {
            let left = count(n);
            (left > 0).then_some((i, left))
        })
        .unzip();
    let cols = DatasetColumns {
        locations,
        ..base.cols.select(&keep)
    };
    let mut counties = base.counties.clone();
    for c in &mut counties {
        c.locations = 0;
    }
    for (&county, &n) in cols.county.iter().zip(&cols.locations) {
        counties[county as usize].locations += n;
    }
    BroadbandDataset::from_columns(base.grid.clone(), cols, base.us_cell_count, counties)
}

/// Scales every cell's demand by `factor` (rounding half-up), dropping
/// cells that reach zero. `factor > 1` models demand growth; `< 1`
/// models terrestrial buildout reaching a share of all locations
/// uniformly.
pub fn scale_demand(base: &BroadbandDataset, factor: f64) -> BroadbandDataset {
    assert!(factor >= 0.0 && factor.is_finite(), "bad scale factor");
    map_counts(base, |n| (n as f64 * factor).round() as u64)
}

/// A fiber/fixed-wireless buildout that serves up to `per_cell`
/// locations in every cell — the "easy" locations first, mirroring how
/// subsidized builds target clustered addresses. Dense cells shrink
/// the most in absolute terms; the long tail survives, which is
/// exactly the paper's diminishing-returns story from the terrestrial
/// side.
pub fn terrestrial_buildout(base: &BroadbandDataset, per_cell: u64) -> BroadbandDataset {
    map_counts(base, |n| n.saturating_sub(per_cell))
}

/// Shifts every county's median income by `factor` (e.g. 1.1 = +10 %).
pub fn income_shift(base: &BroadbandDataset, factor: f64) -> BroadbandDataset {
    assert!(factor > 0.0 && factor.is_finite(), "bad income factor");
    let counties: Vec<County> = base
        .counties
        .iter()
        .map(|c| County {
            median_income_usd: c.median_income_usd * factor,
            ..c.clone()
        })
        .collect();
    BroadbandDataset::from_columns(
        base.grid.clone(),
        base.cols.clone(),
        base.us_cell_count,
        counties,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SynthConfig;

    fn base() -> BroadbandDataset {
        BroadbandDataset::generate(&SynthConfig::small())
    }

    #[test]
    fn scale_by_one_is_identity() {
        let ds = base();
        let same = scale_demand(&ds, 1.0);
        assert_eq!(same.total_locations, ds.total_locations);
        assert_eq!(same.cols.len(), ds.cols.len());
    }

    #[test]
    fn scale_down_drops_empty_cells_and_preserves_totals() {
        let ds = base();
        let half = scale_demand(&ds, 0.5);
        assert!(half.total_locations < ds.total_locations);
        assert!(half.cols.is_consistent());
        assert!(half.cols.len() <= ds.cols.len());
        assert!(half.cols.locations.iter().all(|&n| n > 0));
        // County totals stay consistent.
        let county_total: u64 = half.counties.iter().map(|c| c.locations).sum();
        assert_eq!(county_total, half.total_locations);
        // The peak cell scales with everything else.
        assert_eq!(half.peak_cell().locations, 2999);
    }

    #[test]
    fn scale_to_zero_empties_the_dataset() {
        let ds = scale_demand(&base(), 0.0);
        assert_eq!(ds.total_locations, 0);
        assert!(ds.cols.is_empty());
    }

    #[test]
    fn buildout_flattens_the_head_not_the_tail() {
        let ds = base();
        let built = terrestrial_buildout(&ds, 500);
        // The peak cell lost exactly 500; 1-location cells vanished.
        assert_eq!(built.peak_cell().locations, 5998 - 500);
        assert!(built.cols.len() < ds.cols.len());
        // The surviving backlog concentrates in the head: the peak
        // cell's share of remaining demand grows.
        let before = ds.peak_cell().locations as f64 / ds.total_locations as f64;
        let after = built.peak_cell().locations as f64 / built.total_locations as f64;
        assert!(after > before, "before {before} after {after}");
    }

    #[test]
    fn income_shift_moves_affordability_only() {
        let ds = base();
        let richer = income_shift(&ds, 1.25);
        assert_eq!(richer.total_locations, ds.total_locations);
        for (a, b) in ds.counties.iter().zip(richer.counties.iter()) {
            assert!((b.median_income_usd - 1.25 * a.median_income_usd).abs() < 1e-9);
            assert_eq!(a.locations, b.locations);
        }
    }

    #[test]
    fn scenarios_compose() {
        let ds = base();
        let combined = income_shift(&terrestrial_buildout(&ds, 100), 1.1);
        assert!(combined.total_locations < ds.total_locations);
        assert!(combined.counties[0].median_income_usd > ds.counties[0].median_income_usd);
    }
}
