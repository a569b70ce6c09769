//! Property-based tests for orbital invariants.

use leo_geomath::constants::{EARTH_MU_KM3_S2, EARTH_RADIUS_KM};
use leo_geomath::LatLng;
use leo_orbit::frames::{
    earth_rotation_sin_cos, ecef_to_eci, ecef_to_geodetic_wgs84, eci_to_ecef,
    geodetic_to_ecef_wgs84,
};
use leo_orbit::{coverage_cap_angle_rad, density_factor, CircularOrbit, WalkerShell};
use proptest::prelude::*;

proptest! {
    #[test]
    fn circular_orbit_radius_and_speed_are_conserved(
        alt in 300.0..2000.0f64,
        incl in 1.0..99.0f64,
        raan in 0.0..360.0f64,
        arg in 0.0..360.0f64,
        t in 0.0..100_000.0f64,
    ) {
        let o = CircularOrbit::new(alt, incl, raan, arg);
        let p = o.position_eci(t);
        let v = o.velocity_eci(t);
        prop_assert!((p.norm() - o.radius_km()).abs() < 1e-6);
        prop_assert!((v.norm() - o.speed_km_s()).abs() < 1e-9);
        prop_assert!(p.dot(v).abs() < 1e-5);
    }

    #[test]
    fn angular_momentum_is_conserved(
        alt in 300.0..2000.0f64,
        incl in 1.0..99.0f64,
        t1 in 0.0..50_000.0f64,
        t2 in 0.0..50_000.0f64,
    ) {
        let o = CircularOrbit::new(alt, incl, 123.0, 45.0);
        let h1 = o.position_eci(t1).cross(o.velocity_eci(t1));
        let h2 = o.position_eci(t2).cross(o.velocity_eci(t2));
        prop_assert!((h1 - h2).norm() < 1e-6);
    }

    #[test]
    fn orbit_consts_propagation_is_bit_identical(
        alt in 300.0..2000.0f64,
        incl in 0.0..180.0f64,
        raan in 0.0..360.0f64,
        arg in 0.0..360.0f64,
        t in 0.0..500_000.0f64,
    ) {
        let o = CircularOrbit::new(alt, incl, raan, arg);
        let rot = earth_rotation_sin_cos(t);
        let fast = o.consts().position_ecef(t, rot);
        // Circular two-body propagation spelled out from the elements.
        let a = EARTH_RADIUS_KM + alt;
        let period = 2.0 * std::f64::consts::PI * (a * a * a / EARTH_MU_KM3_S2).sqrt();
        let u = arg.to_radians() + 2.0 * std::f64::consts::PI / period * t;
        let (su, cu) = u.sin_cos();
        let (si, ci) = incl.to_radians().sin_cos();
        let (so, co) = raan.to_radians().sin_cos();
        let eci = leo_geomath::Vec3::new(
            a * (co * cu - so * su * ci),
            a * (so * cu + co * su * ci),
            a * (su * si),
        );
        let bits = |v: leo_geomath::Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        prop_assert_eq!(bits(fast), bits(eci_to_ecef(eci, t)));
        prop_assert_eq!(bits(fast), bits(eci_to_ecef(o.position_eci(t), t)));
        prop_assert_eq!(
            LatLng::lat_deg_of_vec(fast).to_bits(),
            o.subsatellite(t).lat_deg().to_bits()
        );
    }

    #[test]
    fn subsatellite_latitude_bounded_by_inclination(
        alt in 300.0..2000.0f64,
        incl in 1.0..90.0f64,
        t in 0.0..100_000.0f64,
    ) {
        let o = CircularOrbit::new(alt, incl, 10.0, 20.0);
        prop_assert!(o.subsatellite(t).lat_deg().abs() <= incl + 1e-6);
    }

    #[test]
    fn eci_ecef_round_trip(x in -1e4..1e4f64, y in -1e4..1e4f64, z in -1e4..1e4f64,
                           t in 0.0..1e6f64) {
        let p = leo_geomath::Vec3::new(x, y, z);
        let back = ecef_to_eci(eci_to_ecef(p, t), t);
        prop_assert!((back - p).norm() < 1e-6);
    }

    #[test]
    fn geodetic_round_trip(lat in -89.0..89.0f64, lng in -180.0..180.0f64,
                           h in 0.0..2000.0f64) {
        let p = LatLng::new(lat, lng);
        let (back, hb) = ecef_to_geodetic_wgs84(geodetic_to_ecef_wgs84(&p, h));
        prop_assert!((back.lat_deg() - lat).abs() < 1e-8);
        prop_assert!((back.lng_deg() - lng).abs() < 1e-8);
        prop_assert!((hb - h).abs() < 1e-5);
    }

    #[test]
    fn coverage_cap_monotone_in_altitude(e in 0.0..80.0f64,
                                         h1 in 300.0..1000.0f64,
                                         dh in 1.0..1000.0f64) {
        prop_assert!(coverage_cap_angle_rad(h1 + dh, e) > coverage_cap_angle_rad(h1, e));
    }

    #[test]
    fn coverage_cap_is_positive_and_bounded(e in 0.0..85.0f64, h in 200.0..2000.0f64) {
        let l = coverage_cap_angle_rad(h, e);
        prop_assert!(l > 0.0);
        // Never larger than the horizon cap at that altitude.
        prop_assert!(l <= (EARTH_RADIUS_KM / (EARTH_RADIUS_KM + h)).acos() + 1e-12);
    }

    #[test]
    fn density_factor_exceeds_uniform_below_inclination(
        lat in 0.0..45.0f64, incl in 50.0..90.0f64
    ) {
        // For mid latitudes under a high-inclination shell the density
        // is at least the uniform-sphere value 2/π·1/sin(i) ≥ 2/π.
        let d = density_factor(lat, incl).unwrap();
        prop_assert!(d >= 2.0 / std::f64::consts::PI - 1e-12);
    }

    #[test]
    fn walker_shell_satellite_count(planes in 1u32..40, per in 1u32..40) {
        let s = WalkerShell::new(550.0, 53.0, planes, per, 0);
        prop_assert_eq!(s.satellites().len() as u32, planes * per);
    }
}

mod extended {
    use super::*;
    use leo_orbit::doppler::{doppler_shift_hz, range_rate_km_s};
    use leo_orbit::isl::IslTopology;
    use leo_orbit::j2::{arg_perigee_drift_deg_per_day, raan_drift_deg_per_day};

    proptest! {
        #[test]
        fn plus_grid_adjacency_is_symmetric(planes in 3u32..20, per in 3u32..20) {
            let t = IslTopology::plus_grid(WalkerShell::new(550.0, 53.0, planes, per, 0));
            let adj = t.adjacency();
            for (u, neighbors) in adj.iter().enumerate() {
                for &v in neighbors {
                    prop_assert!(adj[v].contains(&u), "edge {u}->{v} not symmetric");
                }
            }
            prop_assert_eq!(t.link_count(), 2 * (planes * per) as usize);
        }

        #[test]
        fn raan_drift_sign_follows_inclination(alt in 300.0..1500.0f64, incl in 1.0..179.0f64) {
            let rate = raan_drift_deg_per_day(alt, incl);
            if incl < 89.9 {
                prop_assert!(rate < 0.0, "prograde must regress: {rate}");
            } else if incl > 90.1 {
                prop_assert!(rate > 0.0, "retrograde must progress: {rate}");
            }
            // Magnitude bounded by the J2 envelope (≈10°/day at LEO).
            prop_assert!(rate.abs() < 10.0);
        }

        #[test]
        fn perigee_drift_zero_only_at_critical_inclination(alt in 300.0..1500.0f64) {
            let below = arg_perigee_drift_deg_per_day(alt, 60.0);
            let above = arg_perigee_drift_deg_per_day(alt, 70.0);
            prop_assert!(below > 0.0 && above < 0.0);
        }

        #[test]
        fn doppler_is_bounded_by_orbital_speed(lat in -50.0..50.0f64, lng in -180.0..180.0f64,
                                               t in 0.0..20_000.0f64) {
            let o = CircularOrbit::new(550.0, 53.0, 0.0, 0.0);
            let g = LatLng::new(lat, lng);
            let rr = range_rate_km_s(&o, &g, t);
            // Radial speed can't exceed orbital + Earth-rotation speed.
            prop_assert!(rr.abs() < o.speed_km_s() + 0.6, "rr {rr}");
            let shift = doppler_shift_hz(&o, &g, t, 12.0);
            prop_assert!(shift.abs() < 12.0e9 * (o.speed_km_s() + 0.6) / 299_792.458);
        }
    }
}
