//! Time-sampled coverage analysis of multi-shell constellations.
//!
//! The paper's "best case" scenario assumes the constellation provides
//! full geographic coverage — every US cell has at least one satellite
//! beam available at all times. This module verifies that premise by
//! direct simulation: propagate every shell, and for each ground point
//! and time sample count the satellites above the minimum elevation.
//! The orbit-validate experiment (EXT-COV in DESIGN.md) reports the
//! minimum and mean counts, and the `leo-bench` suite regenerates them.

use crate::frames;
use crate::propagate::OrbitConsts;
use crate::visibility;
use crate::walker::WalkerShell;
use leo_geomath::{LatLng, Vec3};
use leo_parallel::par_map;

/// Coverage statistics for one ground point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageStats {
    /// Minimum satellites simultaneously in view across all samples.
    pub min_in_view: u32,
    /// Mean satellites in view.
    pub mean_in_view: f64,
    /// Fraction of samples with at least one satellite in view.
    pub availability: f64,
}

/// Configuration for a coverage run.
#[derive(Debug, Clone, Copy)]
pub struct CoverageConfig {
    /// Minimum usable elevation angle, degrees.
    pub min_elevation_deg: f64,
    /// Number of time samples.
    pub time_samples: u32,
    /// Total simulated span, seconds.
    pub span_s: f64,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        CoverageConfig {
            min_elevation_deg: visibility::STARLINK_MIN_ELEVATION_DEG,
            time_samples: 64,
            span_s: 5731.0, // one 550 km period, a prime-ish number of seconds
        }
    }
}

/// Slack on the cone prefilter's cosine bound in [`coverage`]. The dot
/// product of two unit vectors and the haversine central angle each
/// carry ~1e-15 of rounding, so a satellite the exact test accepts
/// clears `cos λ − CONE_SLACK` with orders of magnitude to spare: the
/// prefilter only skips satellites the exact test would reject.
const CONE_SLACK: f64 = 1e-9;

/// Computes coverage statistics for each ground point under the union
/// of `shells`.
///
/// Complexity is `O(time_samples × satellites × points)`. Each
/// satellite costs one propagation and a dot product per point; only
/// satellites inside (or within [`CONE_SLACK`] of) a point's coverage
/// cone reach the latitude prefilter and the exact great-circle test,
/// so a full 8k-satellite constellation over a handful of points runs
/// in tens of milliseconds.
pub fn coverage(
    shells: &[WalkerShell],
    points: &[LatLng],
    cfg: &CoverageConfig,
) -> Vec<CoverageStats> {
    assert!(cfg.time_samples > 0, "need at least one sample");
    let _span = leo_obs::span!("orbit.mc_coverage");
    // Per satellite: orbit constants, the coverage-cap angle λ and the
    // cone prefilter's bound on cos λ. The cap depends only on the
    // shell's altitude, so it is computed once per shell.
    let sats: Vec<(OrbitConsts, f64, f64)> = shells
        .iter()
        .flat_map(|shell| {
            let lambda =
                visibility::coverage_cap_angle_rad(shell.altitude_km, cfg.min_elevation_deg);
            let cos_floor = lambda.cos() - CONE_SLACK;
            shell
                .satellites()
                .into_iter()
                .map(move |s| (s.orbit.consts(), lambda, cos_floor))
        })
        .collect();
    let ground: Vec<Vec3> = points.iter().map(LatLng::to_unit_vec).collect();
    leo_obs::metrics::counter_add(
        "orbit.mc_samples",
        cfg.time_samples as u64 * sats.len() as u64,
    );
    // Each time sample yields an independent per-point visibility
    // count; samples fan out across workers and merge with the
    // associative, order-insensitive (min, sum, count) fold below, so
    // the statistics are exact at any thread count.
    let samples: Vec<u32> = (0..cfg.time_samples).collect();
    let per_sample: Vec<Vec<u32>> = par_map(&samples, |_, &k| {
        let t = cfg.span_s * k as f64 / cfg.time_samples as f64;
        let rot = frames::earth_rotation_sin_cos(t);
        let mut counts = vec![0u32; points.len()];
        for (orbit, lambda, cos_floor) in &sats {
            let p_ecef = orbit.position_ecef(t, rot);
            let dir = p_ecef.normalized();
            // The sub-satellite latitude, then the full point (its
            // longitude), only once some ground point needs them.
            let mut ssp_lat = None;
            let mut ssp = None;
            for ((count, p), g) in counts.iter_mut().zip(points).zip(&ground) {
                // Cone prefilter: outside the cap by more than rounding.
                if dir.dot(*g) < *cos_floor {
                    continue;
                }
                let lat = *ssp_lat.get_or_insert_with(|| LatLng::lat_deg_of_vec(p_ecef));
                // Latitude prefilter: |Δlat| alone can exceed λ.
                if (lat - p.lat_deg()).abs().to_radians() > *lambda {
                    continue;
                }
                let ssp = ssp.get_or_insert_with(|| frames::subsatellite_point(p_ecef));
                if p.central_angle_rad(ssp) <= *lambda {
                    *count += 1;
                }
            }
        }
        counts
    });
    let mut totals = vec![(u32::MAX, 0u64, 0u64); points.len()];
    for counts in &per_sample {
        for (entry, &count) in totals.iter_mut().zip(counts) {
            entry.0 = entry.0.min(count);
            entry.1 += count as u64;
            if count > 0 {
                entry.2 += 1;
            }
        }
    }
    totals
        .into_iter()
        .map(|(min_in_view, sum, avail)| CoverageStats {
            min_in_view,
            mean_in_view: sum as f64 / cfg.time_samples as f64,
            availability: avail as f64 / cfg.time_samples as f64,
        })
        .collect()
}

/// Expected mean number of satellites in view at a latitude, from the
/// analytic density model: `N_effective = Σ_shells N_s · d(φ, i_s) ·
/// cap_area / A_earth`. Used to cross-check the simulation.
pub fn expected_in_view(shells: &[WalkerShell], lat_deg: f64, min_elevation_deg: f64) -> f64 {
    shells
        .iter()
        .filter_map(|s| {
            let d = crate::density::density_factor(lat_deg, s.inclination_deg)?;
            let cap = visibility::coverage_cap_area_km2(s.altitude_km, min_elevation_deg);
            Some(s.total() as f64 * d * cap / leo_geomath::EARTH_SURFACE_AREA_KM2)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The coverage run as written before the batch kernel: a full
    /// `subsatellite(t)` per satellite and sample, the latitude
    /// prefilter, then the exact great-circle test.
    fn reference_coverage(
        shells: &[WalkerShell],
        points: &[LatLng],
        cfg: &CoverageConfig,
    ) -> Vec<CoverageStats> {
        let sats: Vec<_> = shells.iter().flat_map(|s| s.satellites()).collect();
        let mut totals = vec![(u32::MAX, 0u64, 0u64); points.len()];
        for k in 0..cfg.time_samples {
            let t = cfg.span_s * k as f64 / cfg.time_samples as f64;
            for (entry, p) in totals.iter_mut().zip(points) {
                let mut count = 0u32;
                for s in &sats {
                    let ssp = s.orbit.subsatellite(t);
                    let lambda = visibility::coverage_cap_angle_rad(
                        s.orbit.altitude_km(),
                        cfg.min_elevation_deg,
                    );
                    if (ssp.lat_deg() - p.lat_deg()).abs().to_radians() > lambda {
                        continue;
                    }
                    if p.central_angle_rad(&ssp) <= lambda {
                        count += 1;
                    }
                }
                entry.0 = entry.0.min(count);
                entry.1 += count as u64;
                entry.2 += u64::from(count > 0);
            }
        }
        totals
            .into_iter()
            .map(|(min_in_view, sum, avail)| CoverageStats {
                min_in_view,
                mean_in_view: sum as f64 / cfg.time_samples as f64,
                availability: avail as f64 / cfg.time_samples as f64,
            })
            .collect()
    }

    #[test]
    fn coverage_matches_per_call_reference_exactly() {
        let shells = [
            WalkerShell::starlink_gen1_shell1(),
            WalkerShell::new(570.0, 70.0, 36, 20, 11),
            WalkerShell::new(560.0, 97.6, 10, 50, 1),
        ];
        let points: Vec<LatLng> = (-4..=5)
            .flat_map(|i| (-4..4).map(move |j| LatLng::new(15.0 * i as f64, 45.0 * j as f64)))
            .collect();
        let cfg = CoverageConfig {
            time_samples: 12,
            ..CoverageConfig::default()
        };
        assert_eq!(
            coverage(&shells, &points, &cfg),
            reference_coverage(&shells, &points, &cfg)
        );
    }

    #[test]
    fn cone_prefilter_keeps_satellites_on_the_cap_edge() {
        let lambda = visibility::coverage_cap_angle_rad(550.0, 25.0);
        let cos_floor = lambda.cos() - CONE_SLACK;
        let mut on_edge = 0;
        for lat in (-8..=8).map(|i| 10.0 * i as f64 + 0.37) {
            let p = LatLng::new(lat, -98.35);
            for bearing in (0..24).map(|b| 15.0 * b as f64) {
                for scale in [1.0 - 1e-9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12] {
                    let km = lambda * scale * leo_geomath::EARTH_RADIUS_KM;
                    let ssp = leo_geomath::destination(&p, bearing, km);
                    if p.central_angle_rad(&ssp) <= lambda {
                        on_edge += 1;
                        let dot = ssp.to_unit_vec().dot(p.to_unit_vec());
                        assert!(
                            dot >= cos_floor,
                            "{p} bearing {bearing}: {dot} < {cos_floor}"
                        );
                    }
                }
            }
        }
        assert!(on_edge > 17 * 24, "{on_edge} edge points accepted");
    }

    #[test]
    fn gen1_shell_covers_conus_continuously() {
        let shells = [WalkerShell::starlink_gen1_shell1()];
        let points = [
            LatLng::new(39.5, -98.35),
            LatLng::new(47.6, -122.33),
            LatLng::new(25.77, -80.19),
            LatLng::new(37.0, -86.0),
        ];
        let stats = coverage(&shells, &points, &CoverageConfig::default());
        for (p, s) in points.iter().zip(&stats) {
            assert!(s.availability == 1.0, "gap at {p}: {s:?}");
            assert!(s.min_in_view >= 1, "no coverage floor at {p}: {s:?}");
        }
    }

    #[test]
    fn simulated_mean_matches_analytic_expectation() {
        let shells = [WalkerShell::starlink_gen1_shell1()];
        let p = LatLng::new(39.5, -98.35);
        let cfg = CoverageConfig {
            time_samples: 128,
            ..CoverageConfig::default()
        };
        let sim = coverage(&shells, &[p], &cfg)[0].mean_in_view;
        let analytic = expected_in_view(&shells, 39.5, cfg.min_elevation_deg);
        let rel = (sim - analytic).abs() / analytic;
        assert!(rel < 0.15, "sim {sim} vs analytic {analytic}");
    }

    #[test]
    fn no_coverage_far_above_inclination() {
        let shells = [WalkerShell::new(550.0, 53.0, 12, 12, 5)];
        let barrow = LatLng::new(71.3, -156.8); // Utqiagvik, Alaska
        let stats = coverage(&shells, &[barrow], &CoverageConfig::default());
        assert_eq!(stats[0].mean_in_view, 0.0);
        assert_eq!(stats[0].availability, 0.0);
    }

    #[test]
    fn more_satellites_mean_more_in_view() {
        let small = [WalkerShell::new(550.0, 53.0, 24, 11, 5)];
        let big = [WalkerShell::new(550.0, 53.0, 72, 22, 17)];
        let p = [LatLng::new(40.0, -100.0)];
        let cfg = CoverageConfig::default();
        let a = coverage(&small, &p, &cfg)[0].mean_in_view;
        let b = coverage(&big, &p, &cfg)[0].mean_in_view;
        assert!(b > 2.0 * a, "small {a} big {b}");
    }
}
