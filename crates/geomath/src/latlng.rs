//! Geodetic coordinates on the spherical Earth model.

use crate::angle::{normalize_lat_deg, normalize_lng_deg};
use crate::vec3::Vec3;
use std::fmt;

/// A point on the Earth's surface, in degrees.
///
/// Latitude is positive north, longitude positive east. Constructors
/// normalize inputs (`lng` wrapped to `[-180, 180)`, `lat` clamped to
/// `[-90, 90]`) so that every `LatLng` in the system is canonical and
/// safe to feed to projections and the hex grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLng {
    lat: f64,
    lng: f64,
}

impl LatLng {
    /// Creates a normalized geodetic coordinate from degrees.
    pub fn new(lat_deg: f64, lng_deg: f64) -> Self {
        LatLng {
            lat: normalize_lat_deg(lat_deg),
            lng: normalize_lng_deg(lng_deg),
        }
    }

    /// Creates a coordinate from radians.
    pub fn from_radians(lat_rad: f64, lng_rad: f64) -> Self {
        Self::new(lat_rad.to_degrees(), lng_rad.to_degrees())
    }

    /// Reconstitutes a coordinate from degrees already known to be
    /// canonical — values read back from [`LatLng::lat_deg`] /
    /// [`LatLng::lng_deg`] of an existing point. The exact bit patterns
    /// are preserved: re-normalizing through [`LatLng::new`] is not a
    /// floating-point identity (`(x + 180.0) % 360.0 - 180.0` can round),
    /// which would break the byte-identical snapshot decode contract.
    /// The caller must have validated the range; out-of-range inputs
    /// panic in debug builds and are clamped/wrapped in release.
    pub fn from_canonical_degrees(lat_deg: f64, lng_deg: f64) -> Self {
        debug_assert!(
            (-90.0..=90.0).contains(&lat_deg) && (-180.0..180.0).contains(&lng_deg),
            "non-canonical degrees ({lat_deg}, {lng_deg})"
        );
        if (-90.0..=90.0).contains(&lat_deg) && (-180.0..180.0).contains(&lng_deg) {
            LatLng {
                lat: lat_deg,
                lng: lng_deg,
            }
        } else {
            Self::new(lat_deg, lng_deg)
        }
    }

    /// Latitude in degrees, in `[-90, 90]`.
    #[inline]
    pub fn lat_deg(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees, in `[-180, 180)`.
    #[inline]
    pub fn lng_deg(&self) -> f64 {
        self.lng
    }

    /// Latitude in radians.
    #[inline]
    pub fn lat_rad(&self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    #[inline]
    pub fn lng_rad(&self) -> f64 {
        self.lng.to_radians()
    }

    /// Converts to a unit vector on the sphere (geocentric direction).
    ///
    /// `x` points at (0°N, 0°E), `y` at (0°N, 90°E), `z` at the north
    /// pole — the standard Earth-centered Earth-fixed axes.
    pub fn to_unit_vec(&self) -> Vec3 {
        let (slat, clat) = self.lat_rad().sin_cos();
        let (slng, clng) = self.lng_rad().sin_cos();
        Vec3::new(clat * clng, clat * slng, slat)
    }

    /// Recovers a geodetic coordinate from any nonzero direction vector.
    pub fn from_vec(v: Vec3) -> Self {
        let u = v.normalized();
        let lng = u.y.atan2(u.x);
        LatLng {
            lat: lat_deg_of_unit(u),
            lng: normalize_lng_deg(lng.to_degrees()),
        }
    }

    /// The latitude of [`LatLng::from_vec`]`(v)`, degrees, bit for bit,
    /// without the longitude's `atan2`: for filters that test latitude
    /// first and need the full point only for the vectors that pass.
    pub fn lat_deg_of_vec(v: Vec3) -> f64 {
        lat_deg_of_unit(v.normalized())
    }

    /// Central angle (radians) between two points along the great circle.
    pub fn central_angle_rad(&self, other: &LatLng) -> f64 {
        crate::sphere::central_angle_rad(self, other)
    }
}

/// Latitude in degrees of a unit direction vector.
#[inline]
fn lat_deg_of_unit(u: Vec3) -> f64 {
    normalize_lat_deg(u.z.clamp(-1.0, 1.0).asin().to_degrees())
}

impl fmt::Display for LatLng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_normalizes() {
        let p = LatLng::new(95.0, 190.0);
        assert_eq!(p.lat_deg(), 90.0);
        assert_eq!(p.lng_deg(), -170.0);
    }

    #[test]
    fn unit_vec_axes() {
        let e = LatLng::new(0.0, 0.0).to_unit_vec();
        assert!((e.x - 1.0).abs() < 1e-12 && e.y.abs() < 1e-12 && e.z.abs() < 1e-12);
        let n = LatLng::new(90.0, 0.0).to_unit_vec();
        assert!((n.z - 1.0).abs() < 1e-12);
        let y = LatLng::new(0.0, 90.0).to_unit_vec();
        assert!((y.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vec_round_trip() {
        for &(lat, lng) in &[
            (0.0, 0.0),
            (37.7749, -122.4194),
            (-33.8688, 151.2093),
            (64.8, -147.7),
            (-89.9, 10.0),
        ] {
            let p = LatLng::new(lat, lng);
            let q = LatLng::from_vec(p.to_unit_vec());
            assert!((p.lat_deg() - q.lat_deg()).abs() < 1e-9, "{p} vs {q}");
            assert!((p.lng_deg() - q.lng_deg()).abs() < 1e-9, "{p} vs {q}");
        }
    }

    #[test]
    fn pole_longitude_is_degenerate_but_finite() {
        let n = LatLng::new(90.0, 45.0);
        let v = n.to_unit_vec();
        let back = LatLng::from_vec(v);
        assert!((back.lat_deg() - 90.0).abs() < 1e-9);
        assert!(back.lng_deg().is_finite());
    }
}
