//! Circular Keplerian orbits.
//!
//! Starlink shells are circular to within a few kilometers, so the
//! propagator models exactly the circular two-body case: constant
//! angular rate along the orbit plane, defined by inclination, RAAN,
//! and an initial argument of latitude. J2 and drag perturbations shift
//! RAAN/phase slowly but leave the *statistical* geometry (latitude
//! density, coverage fractions) unchanged, which is all the model
//! consumes; DESIGN.md notes this simplification.

use crate::frames;
use leo_geomath::constants::{EARTH_MU_KM3_S2, EARTH_RADIUS_KM};
use leo_geomath::{LatLng, Vec3};

/// A circular orbit: semi-major axis (Earth radius + altitude),
/// inclination, right ascension of the ascending node, and the argument
/// of latitude at epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircularOrbit {
    altitude_km: f64,
    inclination_rad: f64,
    raan_rad: f64,
    arg_lat_epoch_rad: f64,
}

impl CircularOrbit {
    /// Creates a circular orbit. Angles in degrees, altitude above the
    /// spherical Earth in km.
    pub fn new(altitude_km: f64, inclination_deg: f64, raan_deg: f64, arg_lat_deg: f64) -> Self {
        assert!(altitude_km > 0.0, "altitude must be positive");
        CircularOrbit {
            altitude_km,
            inclination_rad: inclination_deg.to_radians(),
            raan_rad: raan_deg.to_radians(),
            arg_lat_epoch_rad: arg_lat_deg.to_radians(),
        }
    }

    /// Orbit altitude above the spherical Earth, km.
    pub fn altitude_km(&self) -> f64 {
        self.altitude_km
    }

    /// Orbit radius (from Earth center), km.
    pub fn radius_km(&self) -> f64 {
        EARTH_RADIUS_KM + self.altitude_km
    }

    /// Inclination, degrees.
    pub fn inclination_deg(&self) -> f64 {
        self.inclination_rad.to_degrees()
    }

    /// Orbital period, seconds (`T = 2π √(a³/μ)`).
    pub fn period_s(&self) -> f64 {
        let a = self.radius_km();
        2.0 * std::f64::consts::PI * (a * a * a / EARTH_MU_KM3_S2).sqrt()
    }

    /// Mean motion, radians per second.
    pub fn mean_motion_rad_s(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.period_s()
    }

    /// Orbital speed, km/s (`v = √(μ/a)` for circular orbits).
    pub fn speed_km_s(&self) -> f64 {
        (EARTH_MU_KM3_S2 / self.radius_km()).sqrt()
    }

    /// ECI position at `t_s` seconds past epoch, km.
    pub fn position_eci(&self, t_s: f64) -> Vec3 {
        self.consts().position_eci(t_s)
    }

    /// ECI velocity at `t_s` seconds past epoch, km/s.
    pub fn velocity_eci(&self, t_s: f64) -> Vec3 {
        let u = self.arg_lat_epoch_rad + self.mean_motion_rad_s() * t_s;
        let (su, cu) = u.sin_cos();
        let (si, ci) = self.inclination_rad.sin_cos();
        let (so, co) = self.raan_rad.sin_cos();
        let v = self.speed_km_s();
        Vec3::new(
            v * (-co * su - so * cu * ci),
            v * (-so * su + co * cu * ci),
            v * (cu * si),
        )
    }

    /// Sub-satellite point (spherical Earth) at `t_s` seconds past epoch.
    pub fn subsatellite(&self, t_s: f64) -> LatLng {
        frames::subsatellite_point(frames::eci_to_ecef(self.position_eci(t_s), t_s))
    }

    /// The time-independent terms of [`CircularOrbit::position_eci`],
    /// for propagating this orbit at many instants.
    pub fn consts(&self) -> OrbitConsts {
        let (sin_i, cos_i) = self.inclination_rad.sin_cos();
        let (sin_raan, cos_raan) = self.raan_rad.sin_cos();
        OrbitConsts {
            radius_km: self.radius_km(),
            mean_motion_rad_s: self.mean_motion_rad_s(),
            arg_lat_epoch_rad: self.arg_lat_epoch_rad,
            sin_i,
            cos_i,
            sin_raan,
            cos_raan,
        }
    }
}

/// Per-satellite constants of a [`CircularOrbit`]: radius, mean motion,
/// epoch argument of latitude and the inclination/RAAN trig, computed
/// once so that a position costs one `sin_cos`.
///
/// Bulk propagation (Monte-Carlo density and coverage, path latency)
/// builds these once per satellite and shares one Earth-rotation
/// [`frames::earth_rotation_sin_cos`] across every satellite at an
/// instant. [`CircularOrbit::position_eci`] is evaluated through these
/// constants too, so [`OrbitConsts::position_ecef`] is bit-identical to
/// `eci_to_ecef(position_eci(t), t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitConsts {
    radius_km: f64,
    mean_motion_rad_s: f64,
    arg_lat_epoch_rad: f64,
    sin_i: f64,
    cos_i: f64,
    sin_raan: f64,
    cos_raan: f64,
}

impl OrbitConsts {
    /// ECI position at `t_s` seconds past epoch, km.
    #[inline]
    pub fn position_eci(&self, t_s: f64) -> Vec3 {
        let u = self.arg_lat_epoch_rad + self.mean_motion_rad_s * t_s;
        let (su, cu) = u.sin_cos();
        let (si, ci) = (self.sin_i, self.cos_i);
        let (so, co) = (self.sin_raan, self.cos_raan);
        let r = self.radius_km;
        // Position in the orbital plane rotated by inclination then RAAN.
        Vec3::new(
            r * (co * cu - so * su * ci),
            r * (so * cu + co * su * ci),
            r * (su * si),
        )
    }

    /// ECEF position at `t_s` seconds past epoch, km, given that
    /// instant's Earth-rotation `(sin θ, cos θ)`.
    #[inline]
    pub fn position_ecef(&self, t_s: f64, earth_rotation: (f64, f64)) -> Vec3 {
        frames::rotate_eci_to_ecef(self.position_eci(t_s), earth_rotation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::WalkerShell;
    use leo_geomath::constants::SIDEREAL_DAY_S;

    fn starlink_orbit() -> CircularOrbit {
        CircularOrbit::new(550.0, 53.0, 30.0, 0.0)
    }

    /// The per-call ECI propagation as written before [`OrbitConsts`]:
    /// every term re-derived from the orbit's elements.
    fn reference_position_eci(o: &CircularOrbit, t_s: f64) -> Vec3 {
        let u = o.arg_lat_epoch_rad + o.mean_motion_rad_s() * t_s;
        let (su, cu) = u.sin_cos();
        let (si, ci) = o.inclination_rad.sin_cos();
        let (so, co) = o.raan_rad.sin_cos();
        let r = o.radius_km();
        Vec3::new(
            r * (co * cu - so * su * ci),
            r * (so * cu + co * su * ci),
            r * (su * si),
        )
    }

    fn bits(v: Vec3) -> [u64; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    #[test]
    fn orbit_consts_match_per_call_propagation_bit_for_bit() {
        // Every satellite of the ~8000-satellite constellation, at the
        // epoch, mid-orbit, and past one full Earth rotation (where the
        // rotation angle's `%` wraps).
        let times = [0.0, 1.0, 731.0, 5731.0, SIDEREAL_DAY_S + 1234.5, 250_000.25];
        for shell in WalkerShell::starlink_current_2025() {
            for sat in shell.satellites() {
                let c = sat.orbit.consts();
                for t in times {
                    let rot = frames::earth_rotation_sin_cos(t);
                    let reference = frames::eci_to_ecef(reference_position_eci(&sat.orbit, t), t);
                    assert_eq!(bits(c.position_ecef(t, rot)), bits(reference), "t={t}");
                    let per_call = frames::eci_to_ecef(sat.orbit.position_eci(t), t);
                    assert_eq!(bits(c.position_ecef(t, rot)), bits(per_call), "t={t}");
                }
            }
        }
    }

    #[test]
    fn period_of_550km_orbit_is_about_95_minutes() {
        let t = starlink_orbit().period_s();
        assert!((t / 60.0 - 95.6).abs() < 0.5, "period {} min", t / 60.0);
    }

    #[test]
    fn speed_of_550km_orbit_is_about_7_6_km_s() {
        let v = starlink_orbit().speed_km_s();
        assert!((v - 7.59).abs() < 0.05, "speed {v}");
    }

    #[test]
    fn radius_is_constant() {
        let o = starlink_orbit();
        for t in [0.0, 100.0, 2000.0, 5000.0] {
            assert!((o.position_eci(t).norm() - o.radius_km()).abs() < 1e-6);
        }
    }

    #[test]
    fn velocity_is_orthogonal_to_position() {
        let o = starlink_orbit();
        for t in [0.0, 321.0, 4321.0] {
            let r = o.position_eci(t);
            let v = o.velocity_eci(t);
            assert!(r.dot(v).abs() < 1e-6, "t={t}");
            assert!((v.norm() - o.speed_km_s()).abs() < 1e-9);
        }
    }

    #[test]
    fn velocity_matches_finite_difference() {
        let o = starlink_orbit();
        let t = 777.0;
        let h = 1e-3;
        let fd = (o.position_eci(t + h) - o.position_eci(t - h)) / (2.0 * h);
        assert!((fd - o.velocity_eci(t)).norm() < 1e-6);
    }

    #[test]
    fn orbit_is_periodic() {
        let o = starlink_orbit();
        let p0 = o.position_eci(0.0);
        let p1 = o.position_eci(o.period_s());
        assert!((p0 - p1).norm() < 1e-6);
    }

    #[test]
    fn max_subsatellite_latitude_equals_inclination() {
        let o = starlink_orbit();
        let mut max_lat: f64 = 0.0;
        let steps = 2000;
        for k in 0..steps {
            let t = o.period_s() * k as f64 / steps as f64;
            max_lat = max_lat.max(o.subsatellite(t).lat_deg().abs());
        }
        assert!((max_lat - 53.0).abs() < 0.1, "max lat {max_lat}");
    }

    #[test]
    fn ascending_node_crosses_equator_at_raan() {
        // At epoch with arg_lat = 0, the satellite is at the ascending
        // node: latitude 0, ECI longitude = RAAN (frames coincide at t=0).
        let o = CircularOrbit::new(550.0, 53.0, 40.0, 0.0);
        let p = o.subsatellite(0.0);
        assert!(p.lat_deg().abs() < 1e-9);
        assert!((p.lng_deg() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn polar_orbit_passes_over_poles() {
        let o = CircularOrbit::new(560.0, 90.0, 0.0, 0.0);
        let quarter = o.period_s() / 4.0;
        let p = o.position_eci(quarter);
        // A quarter period after the ascending node, a polar orbit is
        // over the north pole (in ECI).
        assert!((p.z - o.radius_km()).abs() < 1e-6);
    }
}
