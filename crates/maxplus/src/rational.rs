//! Exact rational arithmetic for cycle means and throughput values.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number with `i64` numerator and positive denominator.
///
/// Cycle means (and therefore SDF iteration periods and throughput values)
/// are ratios of integer path weights to integer token counts, so they are
/// represented exactly. Values are always kept in canonical form: the
/// denominator is positive and `gcd(|num|, den) == 1`.
///
/// Intermediate products are computed in `i128` and checked back into `i64`,
/// which is ample for any realistic timing analysis.
///
/// # Example
///
/// ```
/// use sdfr_maxplus::Rational;
///
/// let third = Rational::new(2, 6);
/// assert_eq!(third, Rational::new(1, 3));
/// assert_eq!(third + Rational::new(1, 6), Rational::new(1, 2));
/// assert!(third < Rational::new(1, 2));
/// assert_eq!(third.recip(), Rational::new(3, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i64,
    den: i64,
}

const fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a < 0 {
        -a
    } else {
        a
    }
}

fn narrow(v: i128) -> i64 {
    i64::try_from(v).expect("rational arithmetic overflow")
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };

    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates the rational `num / den` in canonical form.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// ```
    /// use sdfr_maxplus::Rational;
    /// assert_eq!(Rational::new(-4, -8), Rational::new(1, 2));
    /// assert_eq!(Rational::new(3, -9), Rational::new(-1, 3));
    /// ```
    pub fn new(num: i64, den: i64) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rational { num, den }
    }

    /// The numerator of the canonical form (sign-carrying).
    #[inline]
    pub const fn numer(self) -> i64 {
        self.num
    }

    /// The denominator of the canonical form (always positive).
    #[inline]
    pub const fn denom(self) -> i64 {
        self.den
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Returns `true` if the value is an integer.
    #[inline]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Returns the value as `f64` (for reporting only; analysis stays exact).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Floor of the rational as an integer.
    ///
    /// ```
    /// use sdfr_maxplus::Rational;
    /// assert_eq!(Rational::new(7, 2).floor(), 3);
    /// assert_eq!(Rational::new(-7, 2).floor(), -4);
    /// ```
    pub fn floor(self) -> i64 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling of the rational as an integer.
    pub fn ceil(self) -> i64 {
        -(-self).floor()
    }

    /// The best rational approximation of `x` with denominator at most
    /// `max_den`, computed by the Stern–Brocot / continued-fraction method.
    ///
    /// Used to snap a binary-search interval onto the exact optimum of a
    /// maximum cycle ratio problem, whose denominator is bounded by the total
    /// token count.
    ///
    /// # Panics
    ///
    /// Panics if `max_den < 1`.
    ///
    /// ```
    /// use sdfr_maxplus::Rational;
    /// // 355/113 is the classic best approximation of π-like values.
    /// let x = Rational::new(3_141_592_653, 1_000_000_000);
    /// assert_eq!(x.best_approximation(200), Rational::new(355, 113));
    /// // An exactly representable value is returned unchanged.
    /// assert_eq!(Rational::new(5, 7).best_approximation(10), Rational::new(5, 7));
    /// ```
    pub fn best_approximation(self, max_den: i64) -> Rational {
        assert!(max_den >= 1, "max_den must be at least 1");
        if self.den <= max_den {
            return self;
        }
        // Continued-fraction expansion with convergents p/q; when the next
        // convergent would exceed max_den, take the best semiconvergent.
        let (mut p0, mut q0, mut p1, mut q1) = (0i128, 1i128, 1i128, 0i128);
        let (mut num, mut den) = (self.num as i128, self.den as i128);
        loop {
            let a = num.div_euclid(den);
            let p2 = a * p1 + p0;
            let q2 = a * q1 + q0;
            if q2 > max_den as i128 {
                // Largest k with q1*k + q0 <= max_den gives the best
                // semiconvergent; compare it with the previous convergent.
                let k = (max_den as i128 - q0) / q1.max(1);
                let (sp, sq) = (k * p1 + p0, k * q1 + q0);
                let semi = Rational::new(narrow(sp), narrow(sq.max(1)));
                let conv = Rational::new(narrow(p1), narrow(q1.max(1)));
                let err_semi = (semi - self).abs();
                let err_conv = (conv - self).abs();
                return if q1 > 0 && err_conv <= err_semi {
                    conv
                } else {
                    semi
                };
            }
            let r = num - a * den;
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
            if r == 0 {
                return Rational::new(narrow(p1), narrow(q1));
            }
            num = den;
            den = r;
        }
    }

    /// The absolute value.
    pub fn abs(self) -> Self {
        if self.num < 0 {
            -self
        } else {
            self
        }
    }

    /// The exact rational midpoint of `self` and `other`.
    pub fn midpoint(self, other: Self) -> Self {
        (self + other) / Rational::new(2, 1)
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational { num: v, den: 1 }
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        let num = self.num as i128 * rhs.den as i128 + rhs.num as i128 * self.den as i128;
        let den = self.den as i128 * rhs.den as i128;
        let g = gcd128(num, den);
        Rational::new(narrow(num / g), narrow(den / g))
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        let num = self.num as i128 * rhs.num as i128;
        let den = self.den as i128 * rhs.den as i128;
        let g = gcd128(num, den);
        Rational::new(narrow(num / g), narrow(den / g))
    }
}

impl Div for Rational {
    type Output = Rational;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    // Division via the reciprocal is the intended arithmetic here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

pub(crate) fn gcd128(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    let g = if a < 0 { -a } else { a };
    if g == 0 {
        1
    } else {
        g
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        let lhs = self.num as i128 * other.den as i128;
        let rhs = other.num as i128 * self.den as i128;
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Respect width/alignment flags by padding the rendered value.
        if self.den == 1 {
            f.pad(&self.num.to_string())
        } else {
            f.pad(&format!("{}/{}", self.num, self.den))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -5), Rational::ZERO);
        assert_eq!(Rational::new(1, 2).denom(), 2);
        assert_eq!(Rational::new(-1, 2).numer(), -1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::new(2, 1));
        assert_eq!(-a, Rational::new(-1, 3));
        assert_eq!(a.midpoint(b), Rational::new(1, 4));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 2) > Rational::new(10, 3));
        let mut v = vec![Rational::new(3, 2), Rational::new(-1, 4), Rational::ONE];
        v.sort();
        assert_eq!(
            v,
            vec![Rational::new(-1, 4), Rational::ONE, Rational::new(3, 2)]
        );
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::new(4, 1).floor(), 4);
        assert_eq!(Rational::new(4, 1).ceil(), 4);
    }

    #[test]
    fn conversions() {
        assert_eq!(Rational::from(5), Rational::new(5, 1));
        assert!(Rational::new(5, 1).is_integer());
        assert!(!Rational::new(5, 2).is_integer());
        assert!((Rational::new(1, 4).to_f64() - 0.25).abs() < 1e-12);
        assert_eq!(Rational::new(-3, 4).abs(), Rational::new(3, 4));
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 1).to_string(), "3");
        assert_eq!(Rational::new(-1, 3).to_string(), "-1/3");
    }

    #[test]
    fn best_approximation_exact_when_possible() {
        let x = Rational::new(617, 1234); // = 1/2
        assert_eq!(x.best_approximation(1000), Rational::new(1, 2));
        assert_eq!(
            Rational::new(17, 19).best_approximation(19),
            Rational::new(17, 19)
        );
    }

    #[test]
    fn best_approximation_snaps_to_nearby_small_denominator() {
        // 333_333/1_000_000 should snap to 1/3 with max_den 10.
        let x = Rational::new(333_333, 1_000_000);
        assert_eq!(x.best_approximation(10), Rational::new(1, 3));
    }

    #[test]
    fn recip() {
        assert_eq!(Rational::new(2, 3).recip(), Rational::new(3, 2));
        assert_eq!(Rational::new(-2, 3).recip(), Rational::new(-3, 2));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::ZERO.recip();
    }
}
