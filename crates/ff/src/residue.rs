//! Quadratic residues: Legendre/Jacobi symbols, modular square roots, and the
//! solutions of `x² + y² + 1 ≡ 0 (mod q)` needed by the LPS generator matrices.

use crate::arith::{mod_mul, mod_pow};
use crate::primes::is_prime;

/// Legendre symbol `(a/p)` for an odd prime `p`.
///
/// Returns `1` if `a` is a nonzero quadratic residue mod `p`, `-1` if it is a
/// non-residue, and `0` if `p | a`.
pub fn legendre(a: u64, p: u64) -> i32 {
    debug_assert!(
        p > 2 && is_prime(p),
        "legendre requires an odd prime modulus"
    );
    let a = a % p;
    if a == 0 {
        return 0;
    }
    let ls = mod_pow(a, (p - 1) / 2, p);
    if ls == 1 {
        1
    } else {
        -1
    }
}

/// Jacobi symbol `(a/n)` for odd `n > 0` (generalizes the Legendre symbol).
pub fn jacobi(mut a: u64, mut n: u64) -> i32 {
    assert!(n % 2 == 1 && n > 0, "jacobi requires positive odd n");
    a %= n;
    let mut result = 1i32;
    while a != 0 {
        while a.is_multiple_of(2) {
            a /= 2;
            if n % 8 == 3 || n % 8 == 5 {
                result = -result;
            }
        }
        std::mem::swap(&mut a, &mut n);
        if a % 4 == 3 && n % 4 == 3 {
            result = -result;
        }
        a %= n;
    }
    if n == 1 {
        result
    } else {
        0
    }
}

/// Square root of `a` modulo an odd prime `p` via Tonelli–Shanks.
///
/// Returns `None` when `a` is a non-residue. The returned root `r` satisfies
/// `r² ≡ a (mod p)`; the other root is `p - r`.
pub fn sqrt_mod_prime(a: u64, p: u64) -> Option<u64> {
    let a = a % p;
    if p == 2 {
        return Some(a);
    }
    if a == 0 {
        return Some(0);
    }
    if legendre(a, p) != 1 {
        return None;
    }
    if p % 4 == 3 {
        return Some(mod_pow(a, (p + 1) / 4, p));
    }
    // Tonelli–Shanks for p ≡ 1 (mod 4).
    let mut q = p - 1;
    let mut s = 0u32;
    while q.is_multiple_of(2) {
        q /= 2;
        s += 1;
    }
    // Find a non-residue z.
    let mut z = 2u64;
    while legendre(z, p) != -1 {
        z += 1;
    }
    let mut m = s;
    let mut c = mod_pow(z, q, p);
    let mut t = mod_pow(a, q, p);
    let mut r = mod_pow(a, q.div_ceil(2), p);
    while t != 1 {
        // Find least i with t^(2^i) == 1.
        let mut i = 0u32;
        let mut tt = t;
        while tt != 1 {
            tt = mod_mul(tt, tt, p);
            i += 1;
        }
        let b = mod_pow(c, 1 << (m - i - 1), p);
        m = i;
        c = mod_mul(b, b, p);
        t = mod_mul(t, c, p);
        r = mod_mul(r, b, p);
    }
    Some(r)
}

/// A solution `(x, y)` of `x² + y² + 1 ≡ 0 (mod q)` for an odd prime `q`.
///
/// Such a solution always exists; LPS generator matrices are parameterized by one.
/// The search is a simple scan over `x`, solving for `y` with a modular square root;
/// `q` in this project is at most a few hundred so the scan is immediate.
pub fn sum_of_two_squares_plus_one(q: u64) -> (u64, u64) {
    debug_assert!(q > 2 && is_prime(q));
    for x in 0..q {
        let target = (q - 1 + q - mod_mul(x, x, q) % q) % q; // -1 - x^2 mod q
        if let Some(y) = sqrt_mod_prime(target, q) {
            return (x, y);
        }
    }
    unreachable!("x^2 + y^2 + 1 = 0 always has a solution modulo an odd prime")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legendre_matches_bruteforce() {
        for &p in &[3u64, 5, 7, 11, 13, 17, 19, 23, 29] {
            let residues: std::collections::HashSet<u64> =
                (1..p).map(|x| mod_mul(x, x, p)).collect();
            for a in 0..p {
                let expected = if a == 0 {
                    0
                } else if residues.contains(&a) {
                    1
                } else {
                    -1
                };
                assert_eq!(legendre(a, p), expected, "a={a} p={p}");
            }
        }
    }

    #[test]
    fn jacobi_agrees_with_legendre_for_primes() {
        for &p in &[3u64, 5, 7, 11, 13, 101, 103] {
            for a in 0..p {
                assert_eq!(jacobi(a, p), legendre(a, p));
            }
        }
    }

    #[test]
    fn jacobi_is_multiplicative_in_denominator() {
        // (a/mn) = (a/m)(a/n) for odd m, n.
        for a in 1..40u64 {
            assert_eq!(jacobi(a, 15), jacobi(a, 3) * jacobi(a, 5));
            assert_eq!(jacobi(a, 35), jacobi(a, 5) * jacobi(a, 7));
        }
    }

    #[test]
    fn sqrt_mod_prime_roundtrip() {
        for &p in &[3u64, 5, 7, 13, 17, 97, 101, 1009, 7919] {
            for a in 0..p.min(120) {
                match sqrt_mod_prime(a, p) {
                    Some(r) => assert_eq!(mod_mul(r, r, p), a % p, "a={a} p={p}"),
                    None => assert_eq!(legendre(a, p), -1),
                }
            }
        }
    }

    #[test]
    fn two_squares_plus_one_solutions() {
        for &q in &[3u64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101, 251] {
            let (x, y) = sum_of_two_squares_plus_one(q);
            assert_eq!((mod_mul(x, x, q) + mod_mul(y, y, q) + 1) % q, 0, "q={q}");
        }
    }

    #[test]
    fn paper_example_legendre_3_5() {
        // Example 1 of the paper: (3/5) = -1, so LPS(3,5) lives in PGL(2, F_5).
        assert_eq!(legendre(3, 5), -1);
        // And the Table-I instances: (11/7) , (23/11), (53/17), (71/17), (89/19).
        // Their sign determines PSL vs PGL and hence the vertex count.
        // PSL instances (n = (q^3 - q)/2): 168, 660, 2448 routers.
        assert_eq!(legendre(11, 7), 1);
        assert_eq!(legendre(23, 11), 1);
        assert_eq!(legendre(53, 17), 1);
        // PGL instances (n = q^3 - q): 4896, 6840 routers.
        assert_eq!(legendre(71, 17), -1);
        assert_eq!(legendre(89, 19), -1);
        // The simulation instance LPS(23, 13) has 1092 = (13^3 - 13)/2 routers, so PSL.
        assert_eq!(legendre(23, 13), 1);
    }
}
