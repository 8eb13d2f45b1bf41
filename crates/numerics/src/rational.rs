//! Exact rational arithmetic.
//!
//! [`Rational`] values are the numeric backbone of every analysis in this
//! workspace: branch probabilities, interval endpoints, weights of interval
//! traces, polytope volumes and expected-step counts are all exact rationals,
//! exactly as the paper's prototype does in §7.1 ("Our tool computes rational
//! lower-bounds to avoid rounding errors").
//!
//! # Representation
//!
//! A `Rational` is 24 bytes with two representations:
//!
//! * `Small(n, d)`: an `i64` numerator and a `u64` denominator, inline;
//! * `Big`: a boxed [`BigInt`] numerator and [`BigUint`] denominator.
//!
//! The representation is canonical. The value is always reduced, with a
//! positive denominator, and it is `Small` exactly when both parts fit their
//! machine words. Equal values therefore have equal representations, so the
//! derived `Eq` and `Hash` are exact and `Display` is a canonical key.
//!
//! Operations on two `Small` values run in `i128`/`u128` with checked
//! arithmetic and word-sized binary GCDs. A result that does not fit is
//! promoted to `Big`; a `Big` result that fits is demoted to `Small`.

use crate::bigint::{gcd_u64, BigInt, BigUint, Sign};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0` and `gcd(|num|, den) = 1`.
///
/// # Examples
///
/// ```
/// use probterm_numerics::Rational;
///
/// let third = Rational::from_ratio(1, 3);
/// let sum = &third + &third + &third;
/// assert_eq!(sum, Rational::one());
/// assert_eq!(Rational::from_ratio(2, 4), Rational::from_ratio(1, 2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Numerator and denominator both fit a machine word.
    Small(i64, u64),
    /// Everything else; never holds a value that fits `Small`.
    Big(Box<(BigInt, BigUint)>),
}

use Repr::{Big, Small};

// A larger `Rational` costs resident memory on every frontier path.
const _: () = assert!(std::mem::size_of::<Rational>() == 24);

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl Rational {
    /// The value `0`.
    pub fn zero() -> Rational {
        Rational(Small(0, 1))
    }

    /// The value `1`.
    pub fn one() -> Rational {
        Rational(Small(1, 1))
    }

    /// The value `1/2`.
    pub fn half() -> Rational {
        Rational(Small(1, 2))
    }

    /// Constructs `num / den` from machine integers.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn from_ratio(num: i64, den: i64) -> Rational {
        assert!(den != 0, "zero denominator");
        let num = if den < 0 { -(num as i128) } else { num as i128 };
        let den = den.unsigned_abs();
        let g = gcd_u64(num.unsigned_abs() as u64, den);
        Rational::from_reduced(num / g as i128, (den / g) as u128)
    }

    /// Constructs `num / den` from big integers, normalising signs and the gcd.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn from_bigint_ratio(num: BigInt, den: BigInt) -> Rational {
        assert!(!den.is_zero(), "zero denominator");
        let (num, den_mag) = if den.is_negative() {
            (-num, den.into_magnitude())
        } else {
            (num, den.into_magnitude())
        };
        if num.is_zero() {
            return Rational::zero();
        }
        let g = num.magnitude().gcd(&den_mag);
        if g.is_one() {
            return Rational::from_reduced_big(num, den_mag);
        }
        let num = BigInt::from_sign_mag(num.sign(), num.magnitude().div_rem(&g).0);
        let den = den_mag.div_rem(&g).0;
        Rational::from_reduced_big(num, den)
    }

    /// The canonical value of the reduced fraction `num / den` (`den > 0`).
    fn from_reduced(num: i128, den: u128) -> Rational {
        match (i64::try_from(num), u64::try_from(den)) {
            (Ok(n), Ok(d)) => Rational(Small(n, d)),
            _ => Rational(Big(Box::new((BigInt::from(num), BigUint::from(den))))),
        }
    }

    /// [`Rational::from_reduced`] for big-integer parts.
    fn from_reduced_big(num: BigInt, den: BigUint) -> Rational {
        match (num.to_i64(), den.to_u64()) {
            (Some(n), Some(d)) => Rational(Small(n, d)),
            _ => Rational(Big(Box::new((num, den)))),
        }
    }

    /// Constructs an integer-valued rational.
    pub fn from_int(v: i64) -> Rational {
        Rational(Small(v, 1))
    }

    /// Constructs a rational from a big integer.
    pub fn from_bigint(v: BigInt) -> Rational {
        Rational::from_reduced_big(v, BigUint::one())
    }

    /// Numerator and denominator, borrowed from a `Big` value.
    fn parts(&self) -> (Cow<'_, BigInt>, Cow<'_, BigUint>) {
        match &self.0 {
            Small(n, d) => (Cow::Owned(BigInt::from(*n)), Cow::Owned(BigUint::from(*d))),
            Big(b) => (Cow::Borrowed(&b.0), Cow::Borrowed(&b.1)),
        }
    }

    /// Numerator (signed, coprime with the denominator).
    pub fn numer(&self) -> BigInt {
        self.parts().0.into_owned()
    }

    /// Denominator (strictly positive).
    pub fn denom(&self) -> BigUint {
        self.parts().1.into_owned()
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Small(0, _))
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Small(1, 1))
    }

    /// Returns `true` if strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign() == Sign::Positive
    }

    /// Returns `true` if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign() == Sign::Negative
    }

    /// Returns `true` if the value is an integer.
    pub fn is_integer(&self) -> bool {
        match &self.0 {
            Small(_, d) => *d == 1,
            Big(b) => b.1.is_one(),
        }
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        match &self.0 {
            Small(n, _) => match n.cmp(&0) {
                Ordering::Less => Sign::Negative,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Positive,
            },
            Big(b) => b.0.sign(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        if self.is_negative() {
            self.negated()
        } else {
            self.clone()
        }
    }

    /// Additive inverse.
    pub fn negated(&self) -> Rational {
        match &self.0 {
            Small(n, d) => Rational::from_reduced(-(*n as i128), *d as u128),
            Big(b) => Rational::from_reduced_big(-&b.0, b.1.clone()),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.0 {
            Small(n, d) => {
                let den = n.unsigned_abs() as u128;
                let num = if *n < 0 { -(*d as i128) } else { *d as i128 };
                Rational::from_reduced(num, den)
            }
            Big(b) => {
                let num = BigInt::from_sign_mag(b.0.sign(), b.1.clone());
                Rational::from_reduced_big(num, b.0.magnitude().clone())
            }
        }
    }

    /// Adds two rationals.
    pub fn add_ref(&self, other: &Rational) -> Rational {
        if let (Small(a, b), Small(c, d)) = (&self.0, &other.0) {
            if let Some(sum) = add_small(*a, *b, *c as i128, *d) {
                return sum;
            }
        }
        self.add_big(other, false)
    }

    /// Subtracts `other` from `self`.
    pub fn sub_ref(&self, other: &Rational) -> Rational {
        if let (Small(a, b), Small(c, d)) = (&self.0, &other.0) {
            if let Some(difference) = add_small(*a, *b, -(*c as i128), *d) {
                return difference;
            }
        }
        self.add_big(other, true)
    }

    /// `self ± other` on big integers: `a/b ± c/d = (a d ± c b) / (b d)`.
    fn add_big(&self, other: &Rational, subtract: bool) -> Rational {
        let ((a, b), (c, d)) = (self.parts(), other.parts());
        let cb = scale(&c, &b);
        let cb = if subtract { -cb } else { cb };
        let num = &scale(&a, &d) + &cb;
        Rational::from_bigint_ratio(num, BigInt::from(b.mul_ref(&d)))
    }

    /// Multiplies two rationals.
    pub fn mul_ref(&self, other: &Rational) -> Rational {
        if let (Small(a, b), Small(c, d)) = (&self.0, &other.0) {
            // Cancel across before multiplying (Knuth 4.5.1): the result is
            // then already reduced.
            if *a == 0 || *c == 0 {
                return Rational::zero();
            }
            let (a_mag, c_mag) = (a.unsigned_abs(), c.unsigned_abs());
            let g1 = gcd_u64(a_mag, *d);
            let g2 = gcd_u64(c_mag, *b);
            let mag = (a_mag / g1) as i128 * (c_mag / g2) as i128;
            let den = (*b / g2) as u128 * (*d / g1) as u128;
            return Rational::from_reduced(if (*a < 0) != (*c < 0) { -mag } else { mag }, den);
        }
        let ((a, b), (c, d)) = (self.parts(), other.parts());
        Rational::from_bigint_ratio(&*a * &*c, BigInt::from(b.mul_ref(&d)))
    }

    /// Divides `self` by `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_ref(&self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "division by zero");
        if let (Small(a, b), Small(c, d)) = (&self.0, &other.0) {
            // a/b ÷ c/d = (a d) / (b c), cancelling across first.
            if *a == 0 {
                return Rational::zero();
            }
            let (a_mag, c_mag) = (a.unsigned_abs(), c.unsigned_abs());
            let g1 = gcd_u64(a_mag, c_mag);
            let g2 = gcd_u64(*b, *d);
            let mag = (a_mag / g1) as i128 * (*d / g2) as i128;
            let den = (*b / g2) as u128 * (c_mag / g1) as u128;
            return Rational::from_reduced(if (*a < 0) != (*c < 0) { -mag } else { mag }, den);
        }
        self.mul_ref(&other.recip())
    }

    /// Raises to an integer power (negative exponents allowed for nonzero values).
    ///
    /// # Panics
    ///
    /// Panics when raising zero to a negative power.
    pub fn pow(&self, exp: i32) -> Rational {
        if exp == 0 {
            return Rational::one();
        }
        let positive = self.pow_u32(exp.unsigned_abs());
        if exp > 0 {
            positive
        } else {
            positive.recip()
        }
    }

    fn pow_u32(&self, exp: u32) -> Rational {
        if let Small(n, d) = &self.0 {
            if let (Some(n), Some(d)) = (n.checked_pow(exp), d.checked_pow(exp)) {
                return Rational(Small(n, d));
            }
        }
        let (n, d) = self.parts();
        Rational::from_reduced_big(n.pow(exp), d.pow(exp))
    }

    /// The minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Floor as a big integer.
    pub fn floor(&self) -> BigInt {
        if let Small(n, d) = &self.0 {
            return BigInt::from((*n as i128).div_euclid(*d as i128));
        }
        let (n, d) = self.parts();
        let (q, r) = n.div_rem(&BigInt::from(d.into_owned()));
        if n.is_negative() && !r.is_zero() {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Ceiling as a big integer.
    pub fn ceil(&self) -> BigInt {
        -(-self).floor()
    }

    /// Best-effort conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        let (num, den) = match &self.0 {
            Small(n, d) => return *n as f64 / *d as f64,
            Big(b) => (&b.0, &b.1),
        };
        // Scale to keep precision when both parts are huge.
        let nb = num.magnitude().bits() as i64;
        let db = den.bits() as i64;
        if nb < 900 && db < 900 {
            return num.to_f64() / den.to_f64();
        }
        let shift = (nb.max(db) - 512).max(0) as u64;
        let n = num.magnitude().shr_bits(shift).to_f64();
        let d = den.shr_bits(shift).to_f64();
        let v = n / d;
        if self.is_negative() {
            -v
        } else {
            v
        }
    }

    /// Converts a finite `f64` into the exactly-represented rational.
    ///
    /// # Panics
    ///
    /// Panics if the input is not finite.
    pub fn from_f64_exact(v: f64) -> Rational {
        assert!(v.is_finite(), "cannot convert non-finite float to rational");
        if v == 0.0 {
            return Rational::zero();
        }
        let bits = v.to_bits();
        let sign = if (bits >> 63) == 1 { -1i64 } else { 1i64 };
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let mantissa = bits & ((1u64 << 52) - 1);
        let (mantissa, exponent) = if exponent == 0 {
            (mantissa, -1074i64)
        } else {
            (mantissa | (1u64 << 52), exponent - 1075)
        };
        let mag = BigUint::from(mantissa);
        let num = BigInt::from_sign_mag(
            if sign > 0 { Sign::Positive } else { Sign::Negative },
            mag,
        );
        if exponent >= 0 {
            Rational::from_bigint_ratio(
                BigInt::from_sign_mag(num.sign(), num.magnitude().shl_bits(exponent as u64)),
                BigInt::one(),
            )
        } else {
            Rational::from_bigint_ratio(
                num,
                BigInt::from(BigUint::one().shl_bits((-exponent) as u64)),
            )
        }
    }

    /// Parses a decimal literal such as `"0.25"`, `"-3"`, `"7/9"`.
    pub fn parse(s: &str) -> Option<Rational> {
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let num = Rational::parse_decimal(n)?;
            let den = Rational::parse_decimal(d)?;
            if den.is_zero() {
                return None;
            }
            return Some(num.div_ref(&den));
        }
        Rational::parse_decimal(s)
    }

    fn parse_decimal(s: &str) -> Option<Rational> {
        let s = s.trim();
        let (neg, rest) = match s.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if rest.is_empty() {
            return None;
        }
        let (int_part, frac_part) = match rest.split_once('.') {
            Some((i, f)) => (i, f),
            None => (rest, ""),
        };
        let int_part = if int_part.is_empty() { "0" } else { int_part };
        let int_val = BigUint::from_decimal(int_part)?;
        let mut num = BigInt::from(int_val);
        let mut den = BigUint::one();
        if !frac_part.is_empty() {
            let frac_val = BigUint::from_decimal(frac_part)?;
            den = BigUint::from(10u64).pow(frac_part.len() as u32);
            num = BigInt::from(num.into_magnitude().mul_ref(&den)) + BigInt::from(frac_val);
        }
        let r = Rational::from_bigint_ratio(num, BigInt::from(den));
        Some(if neg { r.negated() } else { r })
    }

    /// Renders the value in decimal with `digits` fractional digits,
    /// truncated toward zero (matching how the paper prints lower bounds).
    pub fn to_decimal_string(&self, digits: usize) -> String {
        let scale = BigUint::from(10u64).pow(digits as u32);
        let (num, den) = self.parts();
        let scaled = num.magnitude().mul_ref(&scale).div_rem(&den).0;
        let scaled_str = scaled.to_string();
        let scaled_str = if scaled_str.len() <= digits {
            format!("{}{}", "0".repeat(digits + 1 - scaled_str.len()), scaled_str)
        } else {
            scaled_str
        };
        let (ip, fp) = scaled_str.split_at(scaled_str.len() - digits);
        let sign = if self.is_negative() { "-" } else { "" };
        if digits == 0 {
            format!("{}{}", sign, ip)
        } else {
            format!("{}{}.{}", sign, ip, fp)
        }
    }

    /// Returns `true` if the value lies in the closed unit interval.
    pub fn in_unit_interval(&self) -> bool {
        !self.is_negative() && *self <= Rational::one()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Rational {
        Rational::from_int(v)
    }
}

impl From<u32> for Rational {
    fn from(v: u32) -> Rational {
        Rational::from_int(v as i64)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Rational {
        Rational::from_bigint(v)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a d ? c b   (b, d > 0)
        if let (Small(a, b), Small(c, d)) = (&self.0, &other.0) {
            return if b == d {
                a.cmp(c)
            } else {
                (*a as i128 * *d as i128).cmp(&(*c as i128 * *b as i128))
            };
        }
        let ((a, b), (c, d)) = (self.parts(), other.parts());
        scale(&a, &d).cmp(&scale(&c, &b))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Small(n, 1) => write!(f, "{n}"),
            Small(n, d) => write!(f, "{n}/{d}"),
            Big(b) if b.1.is_one() => write!(f, "{}", b.0),
            Big(b) => write!(f, "{}/{}", b.0, b.1),
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

/// `a/b + c/d` on machine words, where `c` is an `i64` or its negation;
/// `None` when the cross-multiplied numerator overflows `i128`.
fn add_small(a: i64, b: u64, c: i128, d: u64) -> Option<Rational> {
    // Knuth 4.5.1: with g = gcd(b, d), only gcd(t, g) can divide
    // t = a (d/g) + c (b/g), so the second GCD runs on one word.
    let g = gcd_u64(b, d);
    let (b1, d1) = (b / g, d / g);
    let t = (a as i128 * d1 as i128).checked_add(c * b1 as i128)?;
    if t == 0 {
        return Some(Rational::zero());
    }
    if g == 1 {
        return Some(Rational::from_reduced(t, b1 as u128 * d as u128));
    }
    let g2 = gcd_u64((t.unsigned_abs() % g as u128) as u64, g);
    Some(Rational::from_reduced(
        t / g2 as i128,
        b1 as u128 * (d / g2) as u128,
    ))
}

/// `n · d` for a big numerator and denominator.
fn scale(n: &BigInt, d: &BigUint) -> BigInt {
    BigInt::from_sign_mag(n.sign(), n.magnitude().mul_ref(d))
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $impl_method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$impl_method(&rhs)
            }
        }
        impl<'a> $trait<&'a Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &'a Rational) -> Rational {
                self.$impl_method(rhs)
            }
        }
        impl<'a> $trait<&'a Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: &'a Rational) -> Rational {
                self.$impl_method(rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$impl_method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, add_ref);
impl_binop!(Sub, sub, sub_ref);
impl_binop!(Mul, mul, mul_ref);
impl_binop!(Div, div, div_ref);

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = self.add_ref(&rhs);
    }
}

impl<'a> AddAssign<&'a Rational> for Rational {
    fn add_assign(&mut self, rhs: &'a Rational) {
        *self = self.add_ref(rhs);
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = self.sub_ref(&rhs);
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = self.mul_ref(&rhs);
    }
}

impl<'a> MulAssign<&'a Rational> for Rational {
    fn mul_assign(&mut self, rhs: &'a Rational) {
        *self = self.mul_ref(rhs);
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.negated()
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.negated()
    }
}

impl std::iter::Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |acc, x| acc + x)
    }
}

impl<'a> std::iter::Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |acc, x| acc + x)
    }
}

impl std::iter::Product for Rational {
    fn product<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::one(), |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn normalisation() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(0, 5), Rational::zero());
        assert_eq!(r(6, -3), Rational::from_int(-2));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 3) + r(1, 6), r(1, 2));
        assert_eq!(r(1, 3) - r(1, 2), r(-1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), Rational::from_int(2));
        assert_eq!(-r(3, 7), r(-3, 7));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Rational::one());
        assert!(r(-5, 2) < Rational::zero());
    }

    #[test]
    fn powers_and_reciprocals() {
        assert_eq!(r(2, 3).pow(3), r(8, 27));
        assert_eq!(r(2, 3).pow(-2), r(9, 4));
        assert_eq!(r(2, 3).pow(0), Rational::one());
        assert_eq!(r(-1, 2).pow(3), r(-1, 8));
        assert_eq!(r(3, 4).recip(), r(4, 3));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::zero().recip();
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor().to_i64(), Some(3));
        assert_eq!(r(7, 2).ceil().to_i64(), Some(4));
        assert_eq!(r(-7, 2).floor().to_i64(), Some(-4));
        assert_eq!(r(-7, 2).ceil().to_i64(), Some(-3));
        assert_eq!(r(4, 2).floor().to_i64(), Some(2));
        assert_eq!(r(4, 2).ceil().to_i64(), Some(2));
    }

    #[test]
    fn parsing() {
        assert_eq!(Rational::parse("0.25"), Some(r(1, 4)));
        assert_eq!(Rational::parse("-1.5"), Some(r(-3, 2)));
        assert_eq!(Rational::parse("7/9"), Some(r(7, 9)));
        assert_eq!(Rational::parse("3"), Some(Rational::from_int(3)));
        assert_eq!(Rational::parse(".5"), Some(r(1, 2)));
        assert_eq!(Rational::parse("1/0"), None);
        assert_eq!(Rational::parse("abc"), None);
    }

    #[test]
    fn decimal_rendering() {
        assert_eq!(r(1, 3).to_decimal_string(10), "0.3333333333");
        assert_eq!(r(-1, 8).to_decimal_string(3), "-0.125");
        assert_eq!(Rational::from_int(2).to_decimal_string(2), "2.00");
        assert_eq!(r(1, 2).to_decimal_string(0), "0");
    }

    #[test]
    fn f64_roundtrips() {
        for v in [0.5f64, 0.25, -0.125, 3.0, 0.1] {
            let q = Rational::from_f64_exact(v);
            assert_eq!(q.to_f64(), v);
        }
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn sums_and_products() {
        let xs = vec![r(1, 4), r(1, 4), r(1, 2)];
        let s: Rational = xs.iter().sum();
        assert_eq!(s, Rational::one());
        let p: Rational = xs.into_iter().product();
        assert_eq!(p, r(1, 32));
    }

    #[test]
    fn machine_word_edges_promote_instead_of_wrapping() {
        let two_63 = Rational::from_bigint(BigInt::from(1u64 << 63));
        let flipped = Rational::from_ratio(i64::MIN, -1);
        assert_eq!(flipped, two_63);
        assert_eq!(flipped.to_string(), "9223372036854775808");
        assert!(matches!(flipped.0, Big(_)));
        assert_eq!(Rational::from_ratio(i64::MIN, i64::MIN), Rational::one());
        let tiny = Rational::from_ratio(1, i64::MIN);
        assert_eq!(tiny.to_string(), "-1/9223372036854775808");
        assert!(matches!(tiny.0, Small(-1, _)));
        let min = Rational::from_int(i64::MIN);
        assert_eq!(min.negated(), two_63);
        assert!(matches!(min.negated().0, Big(_)));
        // Back in range, the value is demoted again.
        assert!(matches!(min.negated().negated().0, Small(i64::MIN, 1)));
    }

    #[test]
    fn unit_interval_check() {
        assert!(r(1, 2).in_unit_interval());
        assert!(Rational::zero().in_unit_interval());
        assert!(Rational::one().in_unit_interval());
        assert!(!r(3, 2).in_unit_interval());
        assert!(!r(-1, 2).in_unit_interval());
    }
}
