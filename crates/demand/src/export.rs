//! Dataset serialization: CSV export and import.
//!
//! The generated dataset is deterministic, but regenerating it costs
//! seconds (CONUS polyfill + county Voronoi); downstream analyses and
//! non-Rust tooling also want the data as plain tables. Two files
//! capture everything derived state can be rebuilt from:
//!
//! * `cells.csv` — `cell_id,lat,lng,locations,county`
//! * `counties.csv` — `county_id,lat,lng,median_income,locations,remoteness_km`
//!
//! `import` reconstructs a [`BroadbandDataset`] from the two tables
//! (the grid is rebuilt from its fixed parameters). Ids, location
//! counts and county links round-trip exactly; the real-valued fields
//! come back at the CSV's precision: cell centres and county seats at
//! 7 decimals, median incomes at 2 and remoteness at 3.

use crate::counties::County;
use crate::dataset::{BroadbandDataset, DatasetColumns};
use leo_geomath::LatLng;
use leo_hexgrid::{CellId, GeoHexGrid};
use std::fmt::Write as _;

/// Serializes the per-cell table.
pub fn cells_to_csv(ds: &BroadbandDataset) -> String {
    let mut out = String::from("cell_id,lat,lng,locations,county\n");
    // ~56 bytes/row at paper scale (a res-5 cell id alone is 19
    // digits); reserving once skips the doubling reallocations of a
    // megabyte-sized string.
    out.reserve(ds.cols.len() * 56);
    for c in ds.cols.iter() {
        let _ = writeln!(
            out,
            "{},{:.7},{:.7},{},{}",
            c.cell.as_u64(),
            c.center.lat_deg(),
            c.center.lng_deg(),
            c.locations,
            c.county
        );
    }
    out
}

/// Serializes the county table.
pub fn counties_to_csv(ds: &BroadbandDataset) -> String {
    let mut out = String::from("county_id,lat,lng,median_income,locations,remoteness_km\n");
    for c in &ds.counties {
        let _ = writeln!(
            out,
            "{},{:.7},{:.7},{:.2},{},{:.3}",
            c.id,
            c.seat.lat_deg(),
            c.seat.lng_deg(),
            c.median_income_usd,
            c.locations,
            c.remoteness_km
        );
    }
    out
}

/// Errors from [`import`].
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// A row had the wrong number of fields or a bad header.
    Malformed {
        /// Which table.
        table: &'static str,
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// Which table.
        table: &'static str,
        /// 1-based line number.
        line: usize,
        /// The offending field text.
        field: String,
    },
    /// A cell referenced a county id beyond the county table.
    DanglingCounty {
        /// The bad county id.
        county: u32,
    },
    /// Two cell rows named the same cell.
    DuplicateCell {
        /// The repeated cell id.
        cell: u64,
    },
    /// A county row's id is not its position in the table (cells name
    /// counties by position, so a gap or reordering would misattribute
    /// them).
    MisindexedCounty {
        /// 1-based line number.
        line: usize,
        /// The id the row carries.
        county_id: u32,
    },
    /// A county row's `locations` is not the sum of its cells'
    /// `locations` in cells.csv.
    CountyTotalMismatch {
        /// The county id.
        county: u32,
        /// The total counties.csv lists.
        listed: u64,
        /// The sum over the county's cells.
        cells: u64,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Malformed { table, line } => {
                write!(f, "{table}.csv line {line}: malformed row")
            }
            ImportError::BadNumber { table, line, field } => {
                write!(f, "{table}.csv line {line}: bad number {field:?}")
            }
            ImportError::DanglingCounty { county } => {
                write!(f, "cells reference unknown county {county}")
            }
            ImportError::DuplicateCell { cell } => {
                write!(f, "cells.csv lists cell {cell} more than once")
            }
            ImportError::MisindexedCounty { line, county_id } => {
                write!(
                    f,
                    "counties.csv line {line}: county_id {county_id} out of order"
                )
            }
            ImportError::CountyTotalMismatch {
                county,
                listed,
                cells,
            } => write!(
                f,
                "counties.csv lists {listed} locations for county {county}, its cells hold {cells}"
            ),
        }
    }
}

impl std::error::Error for ImportError {}

fn parse<T: std::str::FromStr>(
    table: &'static str,
    line: usize,
    field: &str,
) -> Result<T, ImportError> {
    field.parse().map_err(|_| ImportError::BadNumber {
        table,
        line,
        field: field.to_string(),
    })
}

/// Reconstructs a dataset from the two CSV tables. The total location
/// count is summed from the cells and the US-cell count recomputed from
/// the CONUS polygon as at generation time. County rows must be listed
/// in id order from 0, each with the sum of its cells' locations, and
/// every cell id at most once.
pub fn import(cells_csv: &str, counties_csv: &str) -> Result<BroadbandDataset, ImportError> {
    let grid = GeoHexGrid::starlink();

    let mut counties = Vec::new();
    for (i, row) in counties_csv.lines().enumerate() {
        if i == 0 {
            if !row.starts_with("county_id,") {
                return Err(ImportError::Malformed {
                    table: "counties",
                    line: 1,
                });
            }
            continue;
        }
        let f: Vec<&str> = row.split(',').collect();
        if f.len() != 6 {
            return Err(ImportError::Malformed {
                table: "counties",
                line: i + 1,
            });
        }
        let id: u32 = parse("counties", i + 1, f[0])?;
        if id as usize != counties.len() {
            return Err(ImportError::MisindexedCounty {
                line: i + 1,
                county_id: id,
            });
        }
        counties.push(County {
            id,
            seat: LatLng::new(
                parse("counties", i + 1, f[1])?,
                parse("counties", i + 1, f[2])?,
            ),
            median_income_usd: parse("counties", i + 1, f[3])?,
            locations: parse("counties", i + 1, f[4])?,
            remoteness_km: parse("counties", i + 1, f[5])?,
        });
    }

    let mut rows = DatasetColumns::default();
    for (i, row) in cells_csv.lines().enumerate() {
        if i == 0 {
            if !row.starts_with("cell_id,") {
                return Err(ImportError::Malformed {
                    table: "cells",
                    line: 1,
                });
            }
            continue;
        }
        let f: Vec<&str> = row.split(',').collect();
        if f.len() != 5 {
            return Err(ImportError::Malformed {
                table: "cells",
                line: i + 1,
            });
        }
        let raw: u64 = parse("cells", i + 1, f[0])?;
        let cell = CellId::from_u64(raw).ok_or(ImportError::BadNumber {
            table: "cells",
            line: i + 1,
            field: f[0].to_string(),
        })?;
        let county: u32 = parse("cells", i + 1, f[4])?;
        if county as usize >= counties.len() {
            return Err(ImportError::DanglingCounty { county });
        }
        let center = LatLng::new(parse("cells", i + 1, f[1])?, parse("cells", i + 1, f[2])?);
        rows.cell.push(cell);
        rows.lat_deg.push(center.lat_deg());
        rows.lng_deg.push(center.lng_deg());
        rows.locations.push(parse("cells", i + 1, f[3])?);
        rows.county.push(county);
    }
    // Columns are sorted by cell id, each id once.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| rows.cell[i]);
    if let Some(w) = order
        .windows(2)
        .find(|w| rows.cell[w[0]] == rows.cell[w[1]])
    {
        return Err(ImportError::DuplicateCell {
            cell: rows.cell[w[0]].as_u64(),
        });
    }
    let mut county_cells = vec![0u64; counties.len()];
    for (&county, &locations) in rows.county.iter().zip(&rows.locations) {
        county_cells[county as usize] += locations;
    }
    if let Some((c, &cells)) = counties
        .iter()
        .zip(&county_cells)
        .find(|(c, &cells)| c.locations != cells)
    {
        return Err(ImportError::CountyTotalMismatch {
            county: c.id,
            listed: c.locations,
            cells,
        });
    }
    let cols = rows.select(&order);
    let us_cell_count = grid
        .polyfill(
            &crate::geography::conus_polygon(),
            leo_hexgrid::STARLINK_RESOLUTION,
        )
        .len();
    Ok(BroadbandDataset::from_columns(
        grid,
        cols,
        us_cell_count,
        counties,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SynthConfig;

    fn small() -> BroadbandDataset {
        BroadbandDataset::generate(&SynthConfig::small())
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ds = small();
        let cells = cells_to_csv(&ds);
        let counties = counties_to_csv(&ds);
        let back = import(&cells, &counties).expect("round trip");
        assert_eq!(back.total_locations, ds.total_locations);
        assert_eq!(back.cols.len(), ds.cols.len());
        assert_eq!(back.counties.len(), ds.counties.len());
        assert_eq!(back.us_cell_count, ds.us_cell_count);
        for (a, b) in ds.cols.iter().zip(back.cols.iter()) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.locations, b.locations);
            assert_eq!(a.county, b.county);
            assert!((a.center.lat_deg() - b.center.lat_deg()).abs() < 1e-6);
        }
        for (a, b) in ds.counties.iter().zip(back.counties.iter()) {
            assert_eq!(a.id, b.id);
            assert!((a.median_income_usd - b.median_income_usd).abs() < 0.01);
            assert_eq!(a.locations, b.locations);
        }
    }

    #[test]
    fn rejects_malformed_header() {
        let err = import("nope\n", "county_id,a,b,c,d,e\n").unwrap_err();
        assert!(matches!(
            err,
            ImportError::Malformed {
                table: "cells",
                line: 1
            }
        ));
    }

    #[test]
    fn rejects_bad_numbers() {
        let cells = "cell_id,lat,lng,locations,county\nxyz,1,2,3,0\n";
        let counties = "county_id,lat,lng,median_income,locations,remoteness_km\n0,1,2,3,4,5\n";
        let err = import(cells, counties).unwrap_err();
        assert!(matches!(
            err,
            ImportError::BadNumber {
                table: "cells",
                line: 2,
                ..
            }
        ));
    }

    #[test]
    fn rejects_dangling_county() {
        let ds = small();
        let cells = cells_to_csv(&ds);
        // Only one county row: every cell referencing county ≥ 1 dangles.
        let counties =
            "county_id,lat,lng,median_income,locations,remoteness_km\n0,39,-98,60000,10,100\n";
        let err = import(&cells, counties).unwrap_err();
        assert!(matches!(err, ImportError::DanglingCounty { .. }));
    }

    #[test]
    fn rejects_duplicate_cell() {
        let ds = small();
        let cells = cells_to_csv(&ds);
        // Repeat the first data row at the end of the table.
        let first = cells.lines().nth(1).unwrap();
        let doubled = format!("{cells}{first}\n");
        let err = import(&doubled, &counties_to_csv(&ds)).unwrap_err();
        assert_eq!(
            err,
            ImportError::DuplicateCell {
                cell: ds.cols.cell[0].as_u64()
            }
        );
    }

    #[test]
    fn rejects_misindexed_county() {
        let ds = small();
        // Swap the first two county rows: ids 1, 0 at positions 0, 1.
        let counties = counties_to_csv(&ds);
        let mut lines: Vec<&str> = counties.lines().collect();
        lines.swap(1, 2);
        let swapped = lines.join("\n") + "\n";
        let err = import(&cells_to_csv(&ds), &swapped).unwrap_err();
        assert_eq!(
            err,
            ImportError::MisindexedCounty {
                line: 2,
                county_id: 1
            }
        );
    }

    #[test]
    fn rejects_county_total_that_disagrees_with_its_cells() {
        let ds = small();
        let counties = counties_to_csv(&ds);
        let mut lines: Vec<String> = counties.lines().map(str::to_string).collect();
        // Add one location to county 0's listed total.
        let mut f: Vec<String> = lines[1].split(',').map(str::to_string).collect();
        let listed: u64 = f[4].parse().unwrap();
        f[4] = (listed + 1).to_string();
        lines[1] = f.join(",");
        let edited = lines.join("\n") + "\n";
        let err = import(&cells_to_csv(&ds), &edited).unwrap_err();
        assert_eq!(
            err,
            ImportError::CountyTotalMismatch {
                county: 0,
                listed: listed + 1,
                cells: listed
            }
        );
    }

    #[test]
    fn csv_has_expected_shape() {
        let ds = small();
        let csv = cells_to_csv(&ds);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), ds.cols.len() + 1);
        assert_eq!(lines[0], "cell_id,lat,lng,locations,county");
        assert_eq!(lines[1].split(',').count(), 5);
    }
}
