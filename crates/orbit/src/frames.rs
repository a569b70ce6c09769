//! Reference-frame conversions.
//!
//! Two frames appear in the pipeline:
//!
//! * **ECI** (Earth-centered inertial): orbits are propagated here.
//! * **ECEF** (Earth-centered Earth-fixed): ground points live here;
//!   the frames differ by a rotation about the z-axis by the Earth
//!   rotation angle `θ(t) = ω_⊕ · t` (we measure time from an epoch at
//!   which the frames coincide — absolute sidereal time is irrelevant
//!   to constellation statistics).
//!
//! Sub-satellite points use the spherical-Earth model for consistency
//! with the rest of the system; a WGS84 geodetic conversion is provided
//! for completeness and tested against known identities.

use leo_geomath::constants::{EARTH_ROTATION_RATE_RAD_S, WGS84_A_KM, WGS84_E2};
use leo_geomath::{LatLng, Vec3};

/// Earth rotation angle at `t` seconds past epoch, radians.
pub fn earth_rotation_angle_rad(t_s: f64) -> f64 {
    (EARTH_ROTATION_RATE_RAD_S * t_s) % (2.0 * std::f64::consts::PI)
}

/// `(sin θ, cos θ)` of the Earth rotation angle at `t_s`: the one trig
/// pair every ECI→ECEF rotation at that instant shares.
pub fn earth_rotation_sin_cos(t_s: f64) -> (f64, f64) {
    earth_rotation_angle_rad(t_s).sin_cos()
}

/// Rotates an ECI position into ECEF at time `t_s`.
pub fn eci_to_ecef(p_eci: Vec3, t_s: f64) -> Vec3 {
    rotate_eci_to_ecef(p_eci, earth_rotation_sin_cos(t_s))
}

/// Rotates an ECI position into ECEF given the rotation's
/// [`earth_rotation_sin_cos`].
#[inline]
pub fn rotate_eci_to_ecef(p_eci: Vec3, (s, c): (f64, f64)) -> Vec3 {
    // ECEF = Rz(−θ)·ECI (the Earth rotates +θ, so fixed coordinates
    // rotate the other way).
    Vec3::new(
        c * p_eci.x + s * p_eci.y,
        -s * p_eci.x + c * p_eci.y,
        p_eci.z,
    )
}

/// Rotates an ECEF position into ECI at time `t_s`.
pub fn ecef_to_eci(p_ecef: Vec3, t_s: f64) -> Vec3 {
    let theta = earth_rotation_angle_rad(t_s);
    let (s, c) = theta.sin_cos();
    Vec3::new(
        c * p_ecef.x - s * p_ecef.y,
        s * p_ecef.x + c * p_ecef.y,
        p_ecef.z,
    )
}

/// The sub-satellite point (spherical Earth) of an ECEF position.
pub fn subsatellite_point(p_ecef: Vec3) -> LatLng {
    LatLng::from_vec(p_ecef)
}

/// Converts a geodetic coordinate and height to WGS84 ECEF, km.
pub fn geodetic_to_ecef_wgs84(p: &LatLng, height_km: f64) -> Vec3 {
    let (slat, clat) = p.lat_rad().sin_cos();
    let (slng, clng) = p.lng_rad().sin_cos();
    let n = WGS84_A_KM / (1.0 - WGS84_E2 * slat * slat).sqrt();
    Vec3::new(
        (n + height_km) * clat * clng,
        (n + height_km) * clat * slng,
        (n * (1.0 - WGS84_E2) + height_km) * slat,
    )
}

/// Converts WGS84 ECEF (km) back to geodetic latitude/longitude and
/// height, via Bowring's iteration (converges to sub-millimeter in a
/// few rounds for Earth-surface and LEO points).
pub fn ecef_to_geodetic_wgs84(p: Vec3) -> (LatLng, f64) {
    let rho = (p.x * p.x + p.y * p.y).sqrt();
    let lng = p.y.atan2(p.x);
    if rho < 1e-9 {
        // On the polar axis.
        let lat = if p.z >= 0.0 { 90.0 } else { -90.0 };
        let b = WGS84_A_KM * (1.0 - WGS84_E2).sqrt();
        return (LatLng::new(lat, lng.to_degrees()), p.z.abs() - b);
    }
    let mut lat = (p.z / (rho * (1.0 - WGS84_E2))).atan();
    let mut n = WGS84_A_KM;
    for _ in 0..8 {
        let slat = lat.sin();
        n = WGS84_A_KM / (1.0 - WGS84_E2 * slat * slat).sqrt();
        lat = ((p.z + WGS84_E2 * n * slat) / rho).atan();
    }
    let h = rho / lat.cos() - n;
    (LatLng::from_radians(lat, lng), h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eci_ecef_round_trip() {
        let p = Vec3::new(4000.0, -3000.0, 5000.0);
        for t in [0.0, 1.0, 1234.5, 86_400.0] {
            let back = ecef_to_eci(eci_to_ecef(p, t), t);
            assert!((back - p).norm() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn subsatellite_latitude_matches_from_vec_bit_for_bit() {
        // The Monte-Carlo prefilters bin `LatLng::lat_deg_of_vec`; it
        // must be exactly the latitude of the full sub-satellite point.
        let mut vectors = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 6921.0),
            Vec3::new(0.0, 0.0, -6921.0),
            Vec3::new(6921.0, 0.0, 0.0),
            Vec3::new(-1e-300, 1e-300, 1e-300),
        ];
        for shell in crate::WalkerShell::starlink_current_2025() {
            for sat in shell.satellites() {
                for t in [0.0, 1234.5, 90_000.0] {
                    vectors.push(eci_to_ecef(sat.orbit.position_eci(t), t));
                }
            }
        }
        for v in vectors {
            assert_eq!(
                LatLng::lat_deg_of_vec(v).to_bits(),
                subsatellite_point(v).lat_deg().to_bits(),
                "{v:?}"
            );
        }
    }

    #[test]
    fn shared_rotation_matches_eci_to_ecef() {
        let p = Vec3::new(4000.0, -3000.0, 5000.0);
        for t in [0.0, 1.0, 1234.5, 86_400.0, 1e6] {
            let a = rotate_eci_to_ecef(p, earth_rotation_sin_cos(t));
            let b = eci_to_ecef(p, t);
            assert_eq!(
                [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
                [b.x.to_bits(), b.y.to_bits(), b.z.to_bits()]
            );
        }
    }

    #[test]
    fn frames_coincide_at_epoch() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert!((eci_to_ecef(p, 0.0) - p).norm() < 1e-12);
    }

    #[test]
    fn quarter_sidereal_day_rotates_90_degrees() {
        let t = leo_geomath::constants::SIDEREAL_DAY_S / 4.0;
        let p_eci = Vec3::new(7000.0, 0.0, 0.0);
        let p_ecef = eci_to_ecef(p_eci, t);
        // A point fixed in inertial space appears to move westward:
        // its ECEF longitude decreases by ~90°.
        let ll = subsatellite_point(p_ecef);
        assert!((ll.lng_deg() + 90.0).abs() < 0.01, "lng={}", ll.lng_deg());
    }

    #[test]
    fn geodetic_round_trip() {
        for &(lat, lng, h) in &[
            (0.0, 0.0, 0.0),
            (37.0, -122.0, 0.5),
            (-45.0, 170.0, 2.0),
            (89.0, 10.0, 550.0),
            (53.0, -98.0, 550.0),
        ] {
            let p = LatLng::new(lat, lng);
            let ecef = geodetic_to_ecef_wgs84(&p, h);
            let (back, hb) = ecef_to_geodetic_wgs84(ecef);
            assert!((back.lat_deg() - lat).abs() < 1e-9, "lat {lat}");
            assert!((back.lng_deg() - lng).abs() < 1e-9, "lng {lng}");
            assert!((hb - h).abs() < 1e-6, "h {h} vs {hb}");
        }
    }

    #[test]
    fn equator_ecef_matches_semimajor_axis() {
        let p = geodetic_to_ecef_wgs84(&LatLng::new(0.0, 0.0), 0.0);
        assert!((p.x - WGS84_A_KM).abs() < 1e-9);
        assert!(p.y.abs() < 1e-9 && p.z.abs() < 1e-9);
    }

    #[test]
    fn pole_ecef_matches_semiminor_axis() {
        let p = geodetic_to_ecef_wgs84(&LatLng::new(90.0, 0.0), 0.0);
        let b = WGS84_A_KM * (1.0 - WGS84_E2).sqrt();
        assert!((p.z - b).abs() < 1e-9, "z={} b={b}", p.z);
    }
}
