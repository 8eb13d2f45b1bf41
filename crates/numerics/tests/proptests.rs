//! Property-based tests for the exact numerics substrate.

use proptest::prelude::*;
use probterm_numerics::{BigInt, BigUint, Interval, IntervalBox, Rational};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn big(v: u128) -> BigUint {
    BigUint::from(v)
}

proptest! {
    // ---------------------------------------------------------------- BigUint

    #[test]
    fn biguint_add_commutes(a in any::<u128>(), b in any::<u128>()) {
        prop_assert_eq!(&big(a) + &big(b), &big(b) + &big(a));
    }

    #[test]
    fn biguint_add_matches_u128(a in 0u128..=u64::MAX as u128, b in 0u128..=u64::MAX as u128) {
        prop_assert_eq!(&big(a) + &big(b), big(a + b));
    }

    #[test]
    fn biguint_mul_matches_u128(a in 0u128..=u64::MAX as u128, b in 0u128..=u64::MAX as u128) {
        prop_assert_eq!(&big(a) * &big(b), big(a * b));
    }

    #[test]
    fn biguint_div_rem_invariant(a in any::<u128>(), b in 1u128..) {
        let (q, r) = big(a).div_rem(&big(b));
        prop_assert!(r < big(b));
        prop_assert_eq!(&(&q * &big(b)) + &r, big(a));
    }

    #[test]
    fn biguint_sub_add_roundtrip(a in any::<u128>(), b in any::<u128>()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let d = &big(hi) - &big(lo);
        prop_assert_eq!(&d + &big(lo), big(hi));
    }

    #[test]
    fn biguint_gcd_divides_both(x in any::<u128>(), y in any::<u128>(), z in any::<u128>()) {
        // Multi-limb operands with the known common factor x.
        let (a, b) = (&big(x) * &big(y), &big(x) * &big(z));
        let g = a.gcd(&b);
        if g.is_zero() {
            prop_assert!(a.is_zero() && b.is_zero());
        } else {
            let (a_g, a_rem) = a.div_rem(&g);
            let (b_g, b_rem) = b.div_rem(&g);
            prop_assert!(a_rem.is_zero() && b_rem.is_zero());
            prop_assert!(a_g.gcd(&b_g).is_one(), "gcd({}, {}) = {} is not the greatest", a, b, g);
            if x != 0 {
                prop_assert!(g.div_rem(&big(x)).1.is_zero());
            }
        }
    }

    #[test]
    fn biguint_shift_roundtrip(a in any::<u128>(), s in 0u64..200) {
        prop_assert_eq!(big(a).shl_bits(s).shr_bits(s), big(a));
    }

    #[test]
    fn biguint_display_parse_roundtrip(a in any::<u128>()) {
        let s = big(a).to_string();
        prop_assert_eq!(BigUint::from_decimal(&s).unwrap(), big(a));
        prop_assert_eq!(s, a.to_string());
    }

    // ----------------------------------------------------------------- BigInt

    #[test]
    fn bigint_arith_matches_i128(a in -(1i128 << 62)..(1i128 << 62), b in -(1i128 << 62)..(1i128 << 62)) {
        let ba = BigInt::from(a as i64);
        let bb = BigInt::from(b as i64);
        prop_assert_eq!((&ba + &bb).to_string(), (a + b).to_string());
        prop_assert_eq!((&ba - &bb).to_string(), (a - b).to_string());
        prop_assert_eq!((&ba * &bb).to_string(), (a * b).to_string());
    }

    #[test]
    fn bigint_ordering_matches_i64(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(BigInt::from(a).cmp(&BigInt::from(b)), a.cmp(&b));
    }

    // --------------------------------------------------------------- Rational

    #[test]
    fn rational_add_commutes(an in -1000i64..1000, ad in 1i64..1000, bn in -1000i64..1000, bd in 1i64..1000) {
        let a = Rational::from_ratio(an, ad);
        let b = Rational::from_ratio(bn, bd);
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn rational_field_laws(an in -100i64..100, ad in 1i64..100, bn in -100i64..100, bd in 1i64..100, cn in -100i64..100, cd in 1i64..100) {
        let a = Rational::from_ratio(an, ad);
        let b = Rational::from_ratio(bn, bd);
        let c = Rational::from_ratio(cn, cd);
        // Associativity and distributivity.
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        // Additive and multiplicative inverses.
        prop_assert_eq!(&a + &(-&a), Rational::zero());
        if !a.is_zero() {
            prop_assert_eq!(&a * &a.recip(), Rational::one());
        }
    }

    #[test]
    fn rational_ordering_consistent_with_f64(an in -1000i64..1000, ad in 1i64..1000, bn in -1000i64..1000, bd in 1i64..1000) {
        let a = Rational::from_ratio(an, ad);
        let b = Rational::from_ratio(bn, bd);
        let fa = an as f64 / ad as f64;
        let fb = bn as f64 / bd as f64;
        if (fa - fb).abs() > 1e-9 {
            prop_assert_eq!(a < b, fa < fb);
        }
    }

    #[test]
    fn rational_f64_exact_roundtrip(v in -1.0e6f64..1.0e6) {
        let q = Rational::from_f64_exact(v);
        prop_assert_eq!(q.to_f64(), v);
    }

    #[test]
    fn rational_floor_ceil_bracket(an in -10000i64..10000, ad in 1i64..100) {
        let a = Rational::from_ratio(an, ad);
        let f = Rational::from_bigint(a.floor());
        let c = Rational::from_bigint(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(&c - &f <= Rational::one());
    }

    #[test]
    fn rational_parse_display_roundtrip(an in -100000i64..100000, ad in 1i64..1000) {
        let a = Rational::from_ratio(an, ad);
        prop_assert_eq!(Rational::parse(&a.to_string()), Some(a));
    }

    // --------------------------------------------------------------- Interval

    #[test]
    fn interval_add_contains_pointwise_sum(
        a in 0i64..100, b in 0i64..100, c in 0i64..100, d in 0i64..100,
        t in 0i64..=10, s in 0i64..=10,
    ) {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let (c, d) = if c <= d { (c, d) } else { (d, c) };
        let x = Interval::from_ratios(a, 1, b, 1);
        let y = Interval::from_ratios(c, 1, d, 1);
        // Pick points inside x and y by convex combination t/10, s/10.
        let px = Rational::from_int(a) + (Rational::from_int(b - a) * Rational::from_ratio(t, 10));
        let py = Rational::from_int(c) + (Rational::from_int(d - c) * Rational::from_ratio(s, 10));
        prop_assert!(x.add(&y).contains(&(&px + &py)));
        prop_assert!(x.sub(&y).contains(&(&px - &py)));
        prop_assert!(x.mul(&y).contains(&(&px * &py)));
    }

    #[test]
    fn interval_split_preserves_width(a in -50i64..50, w in 1i64..50, n in 1usize..8) {
        let iv = Interval::from_ratios(a, 1, a + w, 1);
        let parts = iv.split(n);
        prop_assert_eq!(parts.len(), n);
        let total: Rational = parts.iter().map(|p| p.width()).sum();
        prop_assert_eq!(total, iv.width());
        // Adjacent parts are almost disjoint and ordered.
        for pair in parts.windows(2) {
            prop_assert!(pair[0].almost_disjoint(&pair[1]));
            prop_assert!(pair[0].hi() <= pair[1].lo());
        }
    }

    #[test]
    fn box_volume_is_product(ws in proptest::collection::vec((0i64..20, 1i64..20), 0..5)) {
        let ivs: Vec<Interval> = ws
            .iter()
            .map(|(n, d)| Interval::new(Rational::zero(), Rational::from_ratio(*n, *d)))
            .collect();
        let expected: Rational = ivs.iter().map(|iv| iv.width()).product();
        let b: IntervalBox = ivs.into_iter().collect();
        prop_assert_eq!(b.volume(), expected);
    }

    #[test]
    fn box_bisection_preserves_volume(dims in proptest::collection::vec(1i64..10, 1..5)) {
        let b = IntervalBox::new(
            dims.iter().map(|w| Interval::from_ratios(0, 1, *w, 1)).collect(),
        );
        if let Some((l, r)) = b.bisect_widest() {
            prop_assert_eq!(&l.volume() + &r.volume(), b.volume());
        }
    }
}

// ----------------------------------------------------- small path vs big path

/// Numerators at the machine-word edges: 0, ±1, around ±2^31, `i64::MIN`
/// and `i64::MAX`, around ±2^63 and ±2^64.
const EDGE_NUMERATORS: [i128; 18] = [
    0,
    1,
    -1,
    1 << 31,
    -(1 << 31),
    (1 << 31) + 1,
    i64::MAX as i128,
    i64::MIN as i128,
    i64::MIN as i128 + 1,
    1 << 63,
    -(1 << 63) - 1,
    (1 << 63) + 1,
    u64::MAX as i128,
    -(u64::MAX as i128),
    1 << 64,
    -(1 << 64),
    (1 << 64) + 1,
    -(1 << 64) - 1,
];

/// Denominators at the machine-word edges: 1, 2, around 2^31, 2^63,
/// near and beyond `u64::MAX`.
const EDGE_DENOMINATORS: [u128; 14] = [
    1,
    2,
    3,
    1 << 31,
    (1 << 31) + 1,
    1 << 32,
    1 << 63,
    (1 << 63) + 1,
    u64::MAX as u128 - 1,
    u64::MAX as u128,
    u64::MAX as u128 - 2,
    1 << 64,
    (1 << 64) + 1,
    u128::MAX,
];

/// An edge numerator for `pick` below the table size, otherwise `raw`
/// shifted right by a multiple of 8 bits (random values of every width).
fn numerator(pick: usize, raw: i128) -> BigInt {
    match EDGE_NUMERATORS.get(pick) {
        Some(&edge) => BigInt::from(edge),
        None => BigInt::from(raw >> (8 * (pick - EDGE_NUMERATORS.len()))),
    }
}

/// Like [`numerator`], for a nonzero denominator.
fn denominator(pick: usize, raw: u128) -> BigInt {
    match EDGE_DENOMINATORS.get(pick) {
        Some(&edge) => BigInt::from(BigUint::from(edge)),
        None => {
            let shift = 8 * (pick - EDGE_DENOMINATORS.len());
            BigInt::from(BigUint::from((raw >> shift).max(1)))
        }
    }
}

fn hash_of(x: &Rational) -> u64 {
    let mut hasher = DefaultHasher::new();
    x.hash(&mut hasher);
    hasher.finish()
}

/// `n` or `n/d`, printed from big integers only.
fn display_of(n: &BigInt, d: &BigInt) -> String {
    if *d == BigInt::one() {
        n.to_string()
    } else {
        format!("{n}/{d}")
    }
}

/// `x` equals the reference fraction `n / d`, computed on big integers only:
/// same value, same canonical parts, same `Display`, same `Hash`.
fn check_against_reference(x: &Rational, n: BigInt, d: BigInt) -> Result<(), String> {
    let reference = Rational::from_bigint_ratio(n, d);
    prop_assert_eq!(x, &reference);
    prop_assert_eq!(hash_of(x), hash_of(&reference));
    let (xn, xd) = (x.numer(), BigInt::from(x.denom()));
    prop_assert!(xd.is_positive(), "non-positive denominator in {}", x);
    prop_assert!(xn.gcd(&xd).is_one(), "unreduced parts in {}", x);
    prop_assert_eq!(x.to_string(), display_of(&xn, &xd));
    prop_assert_eq!(&Rational::from_bigint_ratio(xn, xd), x);
    Ok(())
}

fn big_floor(n: &BigInt, d: &BigInt) -> BigInt {
    let (q, r) = n.div_rem(d);
    if n.is_negative() && !r.is_zero() {
        q - BigInt::one()
    } else {
        q
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn rational_small_path_matches_big_path(
        a in (0usize..34, 0usize..30, any::<i128>(), any::<u128>()),
        b in (0usize..34, 0usize..30, any::<i128>(), any::<u128>()),
    ) {
        let (an, ad) = (numerator(a.0, a.2), denominator(a.1, a.3));
        let (bn, bd) = (numerator(b.0, b.2), denominator(b.1, b.3));
        let x = Rational::from_bigint_ratio(an.clone(), ad.clone());
        let y = Rational::from_bigint_ratio(bn.clone(), bd.clone());
        check_against_reference(&x, an.clone(), ad.clone())?;
        check_against_reference(&y, bn.clone(), bd.clone())?;
        // Rebuild x's parts on big integers so the reference sees reduced values.
        let (an, ad) = (x.numer(), BigInt::from(x.denom()));
        let (bn, bd) = (y.numer(), BigInt::from(y.denom()));

        check_against_reference(&(&x + &y), &(&an * &bd) + &(&bn * &ad), &ad * &bd)?;
        check_against_reference(&(&x - &y), &(&an * &bd) - &(&bn * &ad), &ad * &bd)?;
        check_against_reference(&(&x * &y), &an * &bn, &ad * &bd)?;
        if !y.is_zero() {
            check_against_reference(&(&x / &y), &an * &bd, &ad * &bn)?;
            check_against_reference(&y.recip(), bd.clone(), bn.clone())?;
        }
        check_against_reference(&x.negated(), -&an, ad.clone())?;
        check_against_reference(&x.abs(), an.abs(), ad.clone())?;
        check_against_reference(&x.pow(3), an.pow(3), ad.pow(3))?;
        prop_assert_eq!(x.cmp(&y), (&an * &bd).cmp(&(&bn * &ad)));
        prop_assert_eq!(x == y, (&an * &bd) == (&bn * &ad));
        prop_assert_eq!(x.floor(), big_floor(&an, &ad));
        prop_assert_eq!(x.ceil(), -big_floor(&-&an, &ad));
        prop_assert_eq!(x.is_zero(), an.is_zero());
        prop_assert_eq!(x.is_positive(), an.is_positive());
        prop_assert_eq!(x.is_negative(), an.is_negative());
        prop_assert_eq!(x.is_integer(), ad == BigInt::one());
        prop_assert_eq!(x.is_one(), an == BigInt::one() && ad == BigInt::one());
        prop_assert_eq!(x.sign(), an.sign());
    }

    #[test]
    fn rational_from_ratio_matches_big_path(n in any::<i64>(), d in any::<i64>(), pick in 0usize..4) {
        // Mix random words with the edges that overflow a naive negation.
        let (n, d) = match pick {
            0 => (n, d),
            1 => (i64::MIN, d),
            2 => (n, i64::MIN),
            _ => (n, -1),
        };
        if d != 0 {
            check_against_reference(&Rational::from_ratio(n, d), BigInt::from(n), BigInt::from(d))?;
        }
        check_against_reference(&Rational::from_int(n), BigInt::from(n), BigInt::one())?;
    }
}
