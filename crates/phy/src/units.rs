//! Physical-quantity newtypes.
//!
//! Power levels, power ratios, and distances are all `f64` underneath but
//! deliberately incompatible at the type level: adding two absolute power
//! levels, or comparing a distance with a power, is a compile error.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An absolute power level in dBm (decibels relative to 1 mW).
///
/// ```
/// use airguard_phy::{Db, Dbm};
///
/// let tx = Dbm::new(24.5);
/// let after_loss = tx - Db::new(90.0);
/// assert!((after_loss.value() - -65.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Dbm(f64);

impl Dbm {
    /// Wraps a raw dBm value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — NaN power levels poison threshold
    /// comparisons silently.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "power level must not be NaN");
        Dbm(value)
    }

    /// The raw dBm value.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to linear milliwatts.
    #[must_use]
    pub fn to_milliwatts(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Converts linear milliwatts to dBm.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is not strictly positive.
    #[must_use]
    pub fn from_milliwatts(mw: f64) -> Self {
        assert!(mw > 0.0, "power in milliwatts must be positive, got {mw}");
        Dbm(10.0 * mw.log10())
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}dBm", self.0)
    }
}

/// A power *ratio* in decibels: the difference of two [`Dbm`] levels, a
/// path loss, or a capture margin.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(f64);

impl Db {
    /// The zero ratio (equal powers).
    pub const ZERO: Db = Db(0.0);

    /// Wraps a raw dB value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "power ratio must not be NaN");
        Db(value)
    }

    /// The raw dB value.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}dB", self.0)
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub<Dbm> for Dbm {
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

/// A distance in meters.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Meters(f64);

impl Meters {
    /// Wraps a raw distance.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or NaN.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(
            value >= 0.0 && !value.is_nan(),
            "distance must be non-negative, got {value}"
        );
        Meters(value)
    }

    /// The raw distance in meters.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Meters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}m", self.0)
    }
}

impl Mul<f64> for Meters {
    type Output = Meters;
    fn mul(self, rhs: f64) -> Meters {
        Meters::new(self.0 * rhs)
    }
}

impl Div<Meters> for Meters {
    type Output = f64;
    fn div(self, rhs: Meters) -> f64 {
        self.0 / rhs.0
    }
}

/// A position on the simulation plane, in meters.
///
/// ```
/// use airguard_phy::Position;
///
/// let a = Position::new(0.0, 0.0);
/// let b = Position::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b).value(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// Easting in meters.
    pub x: f64,
    /// Northing in meters.
    pub y: f64,
}

impl Position {
    /// Creates a position from planar coordinates in meters.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    #[must_use]
    pub fn distance_to(self, other: Position) -> Meters {
        Meters::new(((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt())
    }

    /// The position at `radius` meters from `self` in direction
    /// `angle_rad` (radians, counterclockwise from +x).
    #[must_use]
    pub fn offset_polar(self, radius: f64, angle_rad: f64) -> Position {
        Position::new(
            self.x + radius * angle_rad.cos(),
            self.y + radius * angle_rad.sin(),
        )
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_mw_roundtrip() {
        let p = Dbm::new(24.5);
        let back = Dbm::from_milliwatts(p.to_milliwatts());
        assert!((p.value() - back.value()).abs() < 1e-9);
        assert!((Dbm::new(0.0).to_milliwatts() - 1.0).abs() < 1e-12);
        assert!((Dbm::new(30.0).to_milliwatts() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn dbm_db_arithmetic() {
        let a = Dbm::new(-60.0);
        let b = Dbm::new(-70.0);
        assert_eq!(a - b, Db::new(10.0));
        assert_eq!(b + Db::new(10.0), a);
        assert_eq!(-(a - b), Db::new(-10.0));
        assert_eq!(Db::new(3.0) + Db::new(4.0), Db::new(7.0));
        assert_eq!(Db::new(3.0) - Db::new(4.0), Db::new(-1.0));
    }

    #[test]
    fn dbm_comparisons() {
        assert!(Dbm::new(-60.0) > Dbm::new(-70.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn dbm_rejects_nan() {
        let _ = Dbm::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn from_milliwatts_rejects_zero() {
        let _ = Dbm::from_milliwatts(0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn meters_rejects_negative() {
        let _ = Meters::new(-1.0);
    }

    #[test]
    fn meters_arithmetic() {
        assert_eq!(Meters::new(2.0) * 3.0, Meters::new(6.0));
        assert!((Meters::new(500.0) / Meters::new(250.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn position_distance_and_polar() {
        let o = Position::new(0.0, 0.0);
        let p = o.offset_polar(150.0, std::f64::consts::FRAC_PI_2);
        assert!((p.x).abs() < 1e-9);
        assert!((p.y - 150.0).abs() < 1e-9);
        assert!((o.distance_to(p).value() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(format!("{}", Dbm::new(-64.5)), "-64.50dBm");
        assert_eq!(format!("{}", Db::new(10.0)), "10.00dB");
        assert_eq!(format!("{}", Meters::new(250.0)), "250.0m");
        assert_eq!(format!("{}", Position::new(1.0, 2.0)), "(1.0, 2.0)");
    }
}
