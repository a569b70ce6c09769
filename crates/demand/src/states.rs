//! State-level geography and aggregation.
//!
//! The paper reports national statistics; policy lives at the state
//! level (BEAD allocations are per state). Counties — and through them
//! cells and locations — are assigned to the contiguous state whose
//! centroid is nearest their seat, a coarse but deterministic stand-in
//! for real boundaries that preserves every aggregate the analyses use.

use crate::dataset::BroadbandDataset;
use leo_geomath::LatLng;

/// A US state (contiguous 48 + DC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct State {
    /// Two-letter postal code.
    pub code: &'static str,
    /// Full name.
    pub name: &'static str,
    /// Approximate geographic centroid (lat, lng).
    pub centroid: (f64, f64),
}

/// The contiguous states and DC, with approximate centroids.
pub const STATES: &[State] = &[
    State {
        code: "AL",
        name: "Alabama",
        centroid: (32.79, -86.83),
    },
    State {
        code: "AZ",
        name: "Arizona",
        centroid: (34.29, -111.66),
    },
    State {
        code: "AR",
        name: "Arkansas",
        centroid: (34.90, -92.44),
    },
    State {
        code: "CA",
        name: "California",
        centroid: (37.18, -119.47),
    },
    State {
        code: "CO",
        name: "Colorado",
        centroid: (39.00, -105.55),
    },
    State {
        code: "CT",
        name: "Connecticut",
        centroid: (41.62, -72.73),
    },
    State {
        code: "DE",
        name: "Delaware",
        centroid: (38.99, -75.51),
    },
    State {
        code: "DC",
        name: "District of Columbia",
        centroid: (38.91, -77.01),
    },
    State {
        code: "FL",
        name: "Florida",
        centroid: (28.63, -82.45),
    },
    State {
        code: "GA",
        name: "Georgia",
        centroid: (32.64, -83.44),
    },
    State {
        code: "ID",
        name: "Idaho",
        centroid: (44.35, -114.61),
    },
    State {
        code: "IL",
        name: "Illinois",
        centroid: (40.04, -89.20),
    },
    State {
        code: "IN",
        name: "Indiana",
        centroid: (39.89, -86.28),
    },
    State {
        code: "IA",
        name: "Iowa",
        centroid: (42.08, -93.50),
    },
    State {
        code: "KS",
        name: "Kansas",
        centroid: (38.49, -98.38),
    },
    State {
        code: "KY",
        name: "Kentucky",
        centroid: (37.53, -85.30),
    },
    State {
        code: "LA",
        name: "Louisiana",
        centroid: (31.07, -92.00),
    },
    State {
        code: "ME",
        name: "Maine",
        centroid: (45.37, -69.24),
    },
    State {
        code: "MD",
        name: "Maryland",
        centroid: (39.06, -76.80),
    },
    State {
        code: "MA",
        name: "Massachusetts",
        centroid: (42.26, -71.81),
    },
    State {
        code: "MI",
        name: "Michigan",
        centroid: (44.35, -85.41),
    },
    State {
        code: "MN",
        name: "Minnesota",
        centroid: (46.28, -94.31),
    },
    State {
        code: "MS",
        name: "Mississippi",
        centroid: (32.74, -89.67),
    },
    State {
        code: "MO",
        name: "Missouri",
        centroid: (38.35, -92.46),
    },
    State {
        code: "MT",
        name: "Montana",
        centroid: (47.03, -109.64),
    },
    State {
        code: "NE",
        name: "Nebraska",
        centroid: (41.54, -99.80),
    },
    State {
        code: "NV",
        name: "Nevada",
        centroid: (39.33, -116.63),
    },
    State {
        code: "NH",
        name: "New Hampshire",
        centroid: (43.68, -71.58),
    },
    State {
        code: "NJ",
        name: "New Jersey",
        centroid: (40.19, -74.67),
    },
    State {
        code: "NM",
        name: "New Mexico",
        centroid: (34.41, -106.11),
    },
    State {
        code: "NY",
        name: "New York",
        centroid: (42.95, -75.53),
    },
    State {
        code: "NC",
        name: "North Carolina",
        centroid: (35.56, -79.39),
    },
    State {
        code: "ND",
        name: "North Dakota",
        centroid: (47.45, -100.47),
    },
    State {
        code: "OH",
        name: "Ohio",
        centroid: (40.29, -82.79),
    },
    State {
        code: "OK",
        name: "Oklahoma",
        centroid: (35.58, -97.51),
    },
    State {
        code: "OR",
        name: "Oregon",
        centroid: (43.93, -120.56),
    },
    State {
        code: "PA",
        name: "Pennsylvania",
        centroid: (40.88, -77.80),
    },
    State {
        code: "RI",
        name: "Rhode Island",
        centroid: (41.68, -71.56),
    },
    State {
        code: "SC",
        name: "South Carolina",
        centroid: (33.92, -80.90),
    },
    State {
        code: "SD",
        name: "South Dakota",
        centroid: (44.44, -100.23),
    },
    State {
        code: "TN",
        name: "Tennessee",
        centroid: (35.86, -86.35),
    },
    State {
        code: "TX",
        name: "Texas",
        centroid: (31.48, -99.33),
    },
    State {
        code: "UT",
        name: "Utah",
        centroid: (39.31, -111.67),
    },
    State {
        code: "VT",
        name: "Vermont",
        centroid: (44.07, -72.67),
    },
    State {
        code: "VA",
        name: "Virginia",
        centroid: (37.52, -78.85),
    },
    State {
        code: "WA",
        name: "Washington",
        centroid: (47.38, -120.45),
    },
    State {
        code: "WV",
        name: "West Virginia",
        centroid: (38.64, -80.62),
    },
    State {
        code: "WI",
        name: "Wisconsin",
        centroid: (44.62, -89.99),
    },
    State {
        code: "WY",
        name: "Wyoming",
        centroid: (42.99, -107.55),
    },
];

/// Index into [`STATES`] of the state nearest to `p`.
pub fn nearest_state(p: &LatLng) -> usize {
    STATES
        .iter()
        .enumerate()
        .min_by(|a, b| {
            let da = leo_geomath::great_circle_distance_km(
                p,
                &LatLng::new(a.1.centroid.0, a.1.centroid.1),
            );
            let db = leo_geomath::great_circle_distance_km(
                p,
                &LatLng::new(b.1.centroid.0, b.1.centroid.1),
            );
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
        .expect("STATES is non-empty")
}

/// Per-state demand aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateDemand {
    /// Index into [`STATES`].
    pub state: usize,
    /// Un(der)served locations attributed to the state.
    pub locations: u64,
    /// Demand cells attributed to the state.
    pub cells: usize,
    /// Location-weighted mean county income, USD/year.
    pub mean_income_usd: f64,
}

/// Aggregates a dataset by state (cells attribute to the state nearest
/// their center). States with zero demand are omitted; output is
/// sorted by locations, descending.
pub fn by_state(ds: &BroadbandDataset) -> Vec<StateDemand> {
    let mut locations = vec![0u64; STATES.len()];
    let mut cells = vec![0usize; STATES.len()];
    let mut income_weight = vec![0.0f64; STATES.len()];
    for c in ds.cols.iter() {
        let s = nearest_state(&c.center);
        locations[s] += c.locations;
        cells[s] += 1;
        income_weight[s] += ds.cell_income(&c) * c.locations as f64;
    }
    let mut out: Vec<StateDemand> = (0..STATES.len())
        .filter(|&s| locations[s] > 0)
        .map(|s| StateDemand {
            state: s,
            locations: locations[s],
            cells: cells[s],
            mean_income_usd: income_weight[s] / locations[s] as f64,
        })
        .collect();
    out.sort_by_key(|d| std::cmp::Reverse(d.locations));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SynthConfig;

    #[test]
    fn state_table_is_complete() {
        assert_eq!(STATES.len(), 49); // 48 contiguous + DC
                                      // Codes are unique.
        let mut codes: Vec<&str> = STATES.iter().map(|s| s.code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 49);
    }

    #[test]
    fn nearest_state_spot_checks() {
        assert_eq!(STATES[nearest_state(&LatLng::new(30.3, -97.7))].code, "TX");
        assert_eq!(STATES[nearest_state(&LatLng::new(40.7, -74.0))].code, "NJ"); // NYC sits nearer NJ's centroid
        assert_eq!(STATES[nearest_state(&LatLng::new(47.6, -122.3))].code, "WA");
        assert_eq!(STATES[nearest_state(&LatLng::new(25.8, -80.2))].code, "FL");
    }

    #[test]
    fn aggregation_conserves_totals() {
        let ds = BroadbandDataset::generate(&SynthConfig::small());
        let agg = by_state(&ds);
        let total: u64 = agg.iter().map(|s| s.locations).sum();
        assert_eq!(total, ds.total_locations);
        let cells: usize = agg.iter().map(|s| s.cells).sum();
        assert_eq!(cells, ds.cols.len());
        // Sorted descending.
        for w in agg.windows(2) {
            assert!(w[0].locations >= w[1].locations);
        }
        // Incomes within the calibrated range.
        for s in &agg {
            assert!((20_000.0..200_000.0).contains(&s.mean_income_usd));
        }
    }

    #[test]
    fn peak_state_holds_the_peak_anchor() {
        // The 5,998-location anchor sits at (37.0, -89.5) — nearest
        // state centroid is Missouri's.
        let ds = BroadbandDataset::generate(&SynthConfig::small());
        let peak = ds.peak_cell();
        let s = nearest_state(&peak.center);
        assert_eq!(STATES[s].code, "MO");
    }
}
