//! Latitude-dependent satellite density of inclined constellations.
//!
//! This module is the geometric heart of the constellation-sizing model
//! (paper §3.0.2, our DESIGN.md §4).
//!
//! A satellite on a circular orbit of inclination `i` has sub-satellite
//! latitude `φ(u)` with `sin φ = sin i · sin u`, where the argument of
//! latitude `u` advances uniformly in time. The time-averaged
//! probability density of finding the satellite in latitude band `dφ`
//! is therefore
//!
//! ```text
//! f(φ) = cos φ / (π √(sin²i − sin²φ)),     |φ| < i
//! ```
//!
//! Spreading that over the latitude band's area `2π R² cos φ dφ` (RAAN
//! is uniform for a Walker shell) gives the surface density of
//! sub-satellite points for an `N`-satellite shell:
//!
//! ```text
//! σ(φ) = N / (2π² R² √(sin²i − sin²φ)) = N · d(φ, i) / A_earth
//! ```
//!
//! with the dimensionless **density factor**
//!
//! ```text
//! d(φ, i) = 2 / (π √(sin²i − sin²φ)).
//! ```
//!
//! `d` integrates to 1 over the sphere (satellites are *somewhere*),
//! equals `2/(π sin i)` at the equator, and diverges at `φ → i` — the
//! well-known density pile-up at the inclination limit that makes
//! mid-latitudes (like the continental US under Starlink's 53° shells)
//! satellite-rich. Inverting `σ` yields the constellation size needed
//! to sustain a required density at one latitude — exactly the paper's
//! "work backwards from the satellite density at the peak demand cell".

use crate::frames;
use crate::propagate::OrbitConsts;
use crate::walker::WalkerShell;
use leo_geomath::constants::EARTH_SURFACE_AREA_KM2;
use leo_geomath::LatLng;
use leo_parallel::par_map;

/// Dimensionless sub-satellite density factor `d(φ, i)` of an inclined
/// Walker shell at latitude `lat_deg`; `None` when the latitude is at or
/// above the inclination (never overflown).
pub fn density_factor(lat_deg: f64, inclination_deg: f64) -> Option<f64> {
    let si = inclination_deg.to_radians().sin();
    let sp = lat_deg.to_radians().sin();
    let det = si * si - sp * sp;
    if det <= 0.0 {
        return None;
    }
    Some(2.0 / (std::f64::consts::PI * det.sqrt()))
}

/// Total constellation size (satellites) required so that an
/// `inclination_deg` Walker shell sustains a time-averaged sub-satellite
/// density of `required_sats_per_km2` at latitude `lat_deg`.
///
/// Returns `None` for latitudes the shell never overflies.
pub fn constellation_size_for_density(
    required_sats_per_km2: f64,
    lat_deg: f64,
    inclination_deg: f64,
) -> Option<f64> {
    let d = density_factor(lat_deg, inclination_deg)?;
    Some(required_sats_per_km2 * EARTH_SURFACE_AREA_KM2 / d)
}

/// Fraction of an orbit a satellite spends with sub-satellite latitude
/// inside `[lat_lo_deg, lat_hi_deg]` (exact closed form, used to verify
/// the analytic density against Monte-Carlo propagation).
pub fn time_fraction_in_band(inclination_deg: f64, lat_lo_deg: f64, lat_hi_deg: f64) -> f64 {
    assert!(lat_lo_deg <= lat_hi_deg, "inverted band");
    let si = inclination_deg.to_radians().sin();
    // Clamp the band to the reachable latitudes [−i, i].
    let clamp = |lat_deg: f64| (lat_deg.to_radians().sin() / si).clamp(-1.0, 1.0);
    let u_lo = clamp(lat_lo_deg).asin();
    let u_hi = clamp(lat_hi_deg).asin();
    // Each latitude corresponds to two arg-of-latitude arcs per orbit
    // (ascending and descending): total fraction = (u_hi − u_lo)/π.
    (u_hi - u_lo) / std::f64::consts::PI
}

/// Empirical density factor of a shell at a latitude, estimated by
/// propagating every satellite over `time_samples` instants spanning one
/// orbital period and counting sub-satellite points in a band of
/// half-width `band_deg` around `lat_deg`.
///
/// Converges to [`density_factor`] as samples grow; tests compare the
/// two. One latitude of [`empirical_density_factors`], bit for bit.
pub fn empirical_density_factor(
    shell: &WalkerShell,
    lat_deg: f64,
    band_deg: f64,
    time_samples: u32,
) -> f64 {
    empirical_density_factors(shell, &[lat_deg], band_deg, time_samples)[0]
}

/// [`empirical_density_factor`] at every latitude of `lats_deg`, from
/// one propagation pass: each (satellite, instant) is propagated once
/// and its latitude binned against every band, so the cost barely
/// grows with the number of latitudes. The orbit-validate experiment
/// calls this once for its whole table.
pub fn empirical_density_factors(
    shell: &WalkerShell,
    lats_deg: &[f64],
    band_deg: f64,
    time_samples: u32,
) -> Vec<f64> {
    assert!(band_deg > 0.0 && time_samples > 0);
    let _span = leo_obs::span!("orbit.mc_density");
    let sats = shell.satellites();
    let orbits: Vec<OrbitConsts> = sats.iter().map(|s| s.orbit.consts()).collect();
    leo_obs::metrics::counter_add("orbit.mc_samples", time_samples as u64 * sats.len() as u64);
    let n = sats.len() as f64;
    let period = sats[0].orbit.period_s();
    // Time samples are independent; hits are integer counts, so the
    // merged per-band totals are exact and thread-count-invariant.
    let samples: Vec<u32> = (0..time_samples).collect();
    let per_sample: Vec<Vec<u64>> = par_map(&samples, |_, &k| {
        let t = period * k as f64 / time_samples as f64;
        let rot = frames::earth_rotation_sin_cos(t);
        let mut hits = vec![0u64; lats_deg.len()];
        for o in &orbits {
            let lat = LatLng::lat_deg_of_vec(o.position_ecef(t, rot));
            for (h, &lat_deg) in hits.iter_mut().zip(lats_deg) {
                if (lat - lat_deg).abs() <= band_deg {
                    *h += 1;
                }
            }
        }
        hits
    });
    let mut in_band = vec![0u64; lats_deg.len()];
    for hits in &per_sample {
        for (total, h) in in_band.iter_mut().zip(hits) {
            *total += h;
        }
    }
    leo_obs::metrics::counter_add("orbit.mc_in_band", in_band.iter().sum());
    lats_deg
        .iter()
        .zip(&in_band)
        .map(|(&lat_deg, &hits)| {
            let frac = hits as f64 / (n * time_samples as f64);
            // Convert band occupancy to a density factor: the band
            // covers area 2πR²·(sin(φ+Δ) − sin(φ−Δ)) ≈ fraction of
            // Earth's surface.
            let lo = (lat_deg - band_deg).to_radians().sin();
            let hi = (lat_deg + band_deg).to_radians().sin();
            let band_area_fraction = (hi - lo) / 2.0;
            frac / band_area_fraction
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equator_density_closed_form() {
        let d = density_factor(0.0, 53.0).unwrap();
        let expect = 2.0 / (std::f64::consts::PI * 53f64.to_radians().sin());
        assert!((d - expect).abs() < 1e-12);
    }

    #[test]
    fn density_grows_toward_inclination() {
        let mut prev = 0.0;
        for lat in [0.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
            let d = density_factor(lat, 53.0).unwrap();
            assert!(d > prev, "lat {lat}");
            prev = d;
        }
    }

    #[test]
    fn unreachable_latitudes_are_none() {
        assert!(density_factor(53.0, 53.0).is_none());
        assert!(density_factor(60.0, 53.0).is_none());
        assert!(density_factor(-53.0, 53.0).is_none());
    }

    #[test]
    fn density_factor_integrates_to_one() {
        // ∫ d(φ) · (cos φ / 2) dφ over [−i, i] = 1 (satellites are
        // always somewhere on the sphere).
        let incl = 53.0f64;
        let steps = 200_000;
        let lo = -incl.to_radians() + 1e-9;
        let hi = incl.to_radians() - 1e-9;
        let h = (hi - lo) / steps as f64;
        let mut acc = 0.0;
        for k in 0..steps {
            let phi = lo + (k as f64 + 0.5) * h;
            if let Some(d) = density_factor(phi.to_degrees(), incl) {
                acc += d * phi.cos() / 2.0 * h;
            }
        }
        assert!((acc - 1.0).abs() < 1e-3, "integral {acc}");
    }

    #[test]
    fn paper_density_factor_at_peak_cell_latitude() {
        // The reverse-engineered Table 2 constant corresponds to
        // d ≈ 1.21 at the peak cell; our synthetic peak cell sits near
        // 37°N where d(37°, 53°) ≈ 1.21.
        let d = density_factor(37.0, 53.0).unwrap();
        assert!((d - 1.21).abs() < 0.02, "d {d}");
    }

    #[test]
    fn size_for_density_inverts_density() {
        // If N sats give density σ at φ, then asking for σ returns N.
        let n = 1584.0;
        let lat = 39.5;
        let d = density_factor(lat, 53.0).unwrap();
        let sigma = n * d / EARTH_SURFACE_AREA_KM2;
        let back = constellation_size_for_density(sigma, lat, 53.0).unwrap();
        assert!((back - n).abs() < 1e-6);
    }

    #[test]
    fn band_fractions_sum_to_one() {
        let incl = 53.0;
        let bands = 50;
        let mut acc = 0.0;
        for k in 0..bands {
            let lo = -60.0 + 120.0 * k as f64 / bands as f64;
            let hi = -60.0 + 120.0 * (k + 1) as f64 / bands as f64;
            acc += time_fraction_in_band(incl, lo, hi);
        }
        assert!((acc - 1.0).abs() < 1e-9, "sum {acc}");
    }

    #[test]
    fn empirical_density_matches_analytic() {
        // A modest shell and coarse sampling suffice for ~2% agreement
        // away from the inclination edge.
        let shell = WalkerShell::new(550.0, 53.0, 24, 16, 5);
        for lat in [0.0f64, 20.0, 37.0] {
            let analytic = density_factor(lat, 53.0).unwrap();
            let empirical = empirical_density_factor(&shell, lat, 2.0, 211);
            let rel = (empirical - analytic).abs() / analytic;
            assert!(rel < 0.05, "lat {lat}: empirical {empirical} vs {analytic}");
        }
    }

    /// The Monte-Carlo count as written before batching: one latitude
    /// per pass, each sub-satellite point from `subsatellite(t)`.
    fn reference_density_factor(
        shell: &WalkerShell,
        lat_deg: f64,
        band_deg: f64,
        samples: u32,
    ) -> f64 {
        let sats = shell.satellites();
        let period = sats[0].orbit.period_s();
        let mut in_band = 0u64;
        for k in 0..samples {
            let t = period * k as f64 / samples as f64;
            for s in &sats {
                if (s.orbit.subsatellite(t).lat_deg() - lat_deg).abs() <= band_deg {
                    in_band += 1;
                }
            }
        }
        let frac = in_band as f64 / (sats.len() as f64 * samples as f64);
        let lo = (lat_deg - band_deg).to_radians().sin();
        let hi = (lat_deg + band_deg).to_radians().sin();
        frac / ((hi - lo) / 2.0)
    }

    #[test]
    fn batch_density_matches_per_latitude_calls_bit_for_bit() {
        let shell = WalkerShell::new(550.0, 53.0, 36, 20, 11);
        // The orbit-validate table's latitudes plus a southern one, one
        // at the inclination edge and one the shell never reaches.
        let lats = [0.0, 10.0, 20.0, 30.0, 37.0, 45.0, 50.0, -33.0, 53.0, 60.0];
        let batch = empirical_density_factors(&shell, &lats, 2.0, 97);
        assert_eq!(batch.len(), lats.len());
        for (&lat, &d) in lats.iter().zip(&batch) {
            let single = empirical_density_factor(&shell, lat, 2.0, 97);
            assert_eq!(d.to_bits(), single.to_bits(), "lat {lat}");
            let reference = reference_density_factor(&shell, lat, 2.0, 97);
            assert_eq!(d.to_bits(), reference.to_bits(), "lat {lat}");
        }
        assert_eq!(batch[9], 0.0, "60° is never overflown");
        for threads in [1, 2, 4] {
            let again = leo_parallel::with_threads(threads, || {
                empirical_density_factors(&shell, &lats, 2.0, 97)
            });
            let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(to_bits(&again), to_bits(&batch), "{threads} threads");
        }
    }

    #[test]
    fn empirical_density_is_longitude_uniform() {
        // The density derivation assumes RAAN-uniformity; verify that a
        // Walker shell's sub-satellite points spread evenly over
        // longitude within a band.
        let shell = WalkerShell::new(550.0, 53.0, 24, 16, 5);
        let sats = shell.satellites();
        let period = sats[0].orbit.period_s();
        let mut counts = [0u32; 8];
        for k in 0..97 {
            // Co-prime sampling vs the period avoids aliasing.
            let t = period * (k as f64 * 7.0 + 0.31) / 97.0;
            for s in &sats {
                let p = s.orbit.subsatellite(t);
                if p.lat_deg().abs() < 20.0 {
                    let slot = (((p.lng_deg() + 180.0) / 45.0) as usize).min(7);
                    counts[slot] += 1;
                }
            }
        }
        let total: u32 = counts.iter().sum();
        let mean = total as f64 / 8.0;
        for (i, c) in counts.iter().enumerate() {
            let rel = (*c as f64 - mean).abs() / mean;
            assert!(rel < 0.10, "octant {i}: {c} vs mean {mean}");
        }
    }
}
