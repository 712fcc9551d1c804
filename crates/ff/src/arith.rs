//! Low-level modular arithmetic on `u64`.
//!
//! These helpers never overflow: a product is taken in `u64` when both operands fit 32
//! bits and through `u128` otherwise. They form the base layer for the prime-field and
//! extension-field types as well as the primality and residue routines.

/// Greatest common divisor (Euclid's algorithm).
///
/// `gcd(0, 0)` is defined as `0`.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Extended Euclidean algorithm on signed 128-bit integers.
///
/// Returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
pub fn extended_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = extended_gcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// Modular multiplication `a * b mod m` without overflow.
///
/// Operands that both fit 32 bits — every field the topology generators enumerate —
/// multiply in `u64`; only wider ones pay the `u128` remainder (a library call).
#[inline]
pub fn mod_mul(a: u64, b: u64, m: u64) -> u64 {
    if (a | b) >> 32 == 0 {
        (a * b) % m
    } else {
        ((a as u128 * b as u128) % m as u128) as u64
    }
}

/// Modular addition `a + b mod m` without overflow.
#[inline]
pub fn mod_add(a: u64, b: u64, m: u64) -> u64 {
    let (s, carry) = a.overflowing_add(b);
    if carry || s >= m {
        s.wrapping_sub(m)
    } else {
        s
    }
}

/// Modular exponentiation `base^exp mod m` by square-and-multiply.
///
/// `m` must be nonzero. `0^0` is defined as `1 mod m`.
pub fn mod_pow(mut base: u64, mut exp: u64, m: u64) -> u64 {
    assert!(m != 0, "modulus must be nonzero");
    if m == 1 {
        return 0;
    }
    let mut acc: u64 = 1;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mod_mul(acc, base, m);
        }
        base = mod_mul(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Modular inverse of `a` modulo `m`, if it exists (`gcd(a, m) == 1`).
///
/// Iterative extended Euclid on `u64`: the Bézout coefficients of `a` alternate in sign
/// and stay at most `m` in magnitude, so magnitudes plus one sign bit are enough.
pub fn mod_inv(a: u64, m: u64) -> Option<u64> {
    if m <= 1 {
        return (m == 1).then_some(0);
    }
    // r0 = ±t0·a and r1 = ∓t1·a (mod m); `negative` is the sign on t0.
    let (mut r0, mut r1) = (m, a % m);
    let (mut t0, mut t1) = (0u64, 1u64);
    let mut negative = true;
    while r1 != 0 {
        let quot = r0 / r1;
        (r0, r1) = (r1, r0 - quot * r1);
        (t0, t1) = (t1, t0 + quot * t1);
        negative = !negative;
    }
    (r0 == 1).then_some(if negative { m - t0 } else { t0 })
}

/// Canonical non-negative representative of a signed value modulo `m`.
#[inline]
pub fn mod_reduce_signed(a: i64, m: u64) -> u64 {
    let m_i = m as i64;
    (((a % m_i) + m_i) % m_i) as u64
}

/// Integer square root (floor).
pub fn isqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut x = (n as f64).sqrt() as u64;
    // Correct the floating-point estimate in both directions; overflowing squares count as
    // "too big" so the loops terminate even at n = u64::MAX.
    while x.checked_mul(x).is_none_or(|sq| sq > n) {
        x -= 1;
    }
    while (x + 1).checked_mul(x + 1).is_some_and(|sq| sq <= n) {
        x += 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
        assert_eq!(gcd(270, 192), 6);
    }

    #[test]
    fn extended_gcd_identity() {
        for &(a, b) in &[(240i128, 46i128), (7, 13), (270, 192), (1, 1), (99991, 2)] {
            let (g, x, y) = extended_gcd(a, b);
            assert_eq!(a * x + b * y, g);
            assert_eq!(g, gcd(a as u64, b as u64) as i128);
        }
    }

    #[test]
    fn mod_pow_matches_naive() {
        for m in [2u64, 3, 17, 97, 1_000_003] {
            for b in [0u64, 1, 2, 5, 96, 12345] {
                for e in [0u64, 1, 2, 3, 10, 31] {
                    let mut naive = 1u64 % m;
                    for _ in 0..e {
                        naive = mod_mul(naive, b % m, m);
                    }
                    assert_eq!(mod_pow(b, e, m), naive, "b={b} e={e} m={m}");
                }
            }
        }
    }

    #[test]
    fn mod_inv_roundtrip() {
        for m in [2u64, 5, 13, 97, 101, 65537] {
            for a in 1..m.min(200) {
                if gcd(a, m) == 1 {
                    let inv = mod_inv(a, m).unwrap();
                    assert_eq!(mod_mul(a, inv, m), 1 % m);
                } else {
                    assert!(mod_inv(a, m).is_none());
                }
            }
        }
    }

    /// Both `mod_mul` paths and the iterative `mod_inv` against `u128` / the recursive
    /// `extended_gcd`, with operands and moduli on each side of 2³² and at `u64::MAX`.
    #[test]
    fn mul_and_inv_agree_with_wide_references() {
        let edge = [
            0u64,
            1,
            2,
            65520,
            65521,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 15,
            u64::MAX - 58,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &m in &edge[1..] {
            for &a in &edge {
                for &b in &edge {
                    let wide = (a as u128 * b as u128 % m as u128) as u64;
                    assert_eq!(mod_mul(a, b, m), wide, "{a} * {b} mod {m}");
                }
                let (g, x, _) = extended_gcd((a % m) as i128, m as i128);
                let expect = (g == 1).then(|| x.rem_euclid(m as i128) as u64);
                assert_eq!(mod_inv(a, m), expect, "{a}^-1 mod {m}");
            }
        }
        assert_eq!(mod_inv(5, 0), None);
    }

    #[test]
    fn mod_inv_of_noninvertible() {
        assert!(mod_inv(6, 9).is_none());
        assert!(mod_inv(0, 7).is_none());
    }

    #[test]
    fn add_sub_wraparound() {
        let m = u64::MAX - 58; // large modulus exercises the overflow path
        assert_eq!(mod_add(m - 1, m - 1, m), m - 2);
    }

    #[test]
    fn isqrt_exact_and_floor() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(15), 3);
        assert_eq!(isqrt(16), 4);
        assert_eq!(isqrt(17), 4);
        assert_eq!(isqrt(u64::MAX), 4294967295);
    }

    #[test]
    fn signed_reduction() {
        assert_eq!(mod_reduce_signed(-1, 7), 6);
        assert_eq!(mod_reduce_signed(-14, 7), 0);
        assert_eq!(mod_reduce_signed(15, 7), 1);
    }
}
