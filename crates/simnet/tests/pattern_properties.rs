//! Property tests for the traffic-pattern subsystem: every registered pattern
//! must stay inside the endpoint range, every self-declared permutation pattern
//! must actually be a bijection, and the registry must reject unknown names with
//! a proper error rather than a panic.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use spectralfly_simnet::pattern::{self, PatternCtx, PatternError};

/// The spec of built-in `name` over groups of `group` endpoints: the
/// group-structured patterns take the size as their argument.
fn spec(name: &str, group: usize) -> String {
    match name {
        "adversarial" | "nearest-group" => format!("{name}({group})"),
        _ => name.to_string(),
    }
}

/// Destinations from every built-in pattern must be in `0..n`, whatever the
/// endpoint count's shape (power of two, prime, composite, tiny).
#[test]
fn every_builtin_stays_in_range_on_assorted_endpoint_counts() {
    for n in [1usize, 2, 3, 7, 16, 50, 64, 97, 200] {
        let ctx = PatternCtx::new(n);
        for name in pattern::BUILTINS.names() {
            let p = pattern::create(&spec(&name, (n / 4).max(1)), &ctx).unwrap_or_else(|e| {
                panic!("building {name} over {n} endpoints: {e}");
            });
            let mut rng = StdRng::seed_from_u64(0xA11CE);
            for src in 0..n {
                for _ in 0..4 {
                    let d = p.dst(src, &mut rng);
                    assert!(d < n, "{name}: dst({src}) = {d} out of range over {n}");
                }
            }
        }
    }
}

/// A pattern that claims to be a permutation must map the endpoint range onto
/// itself bijectively (and deterministically — the RNG must not perturb it).
#[test]
fn claimed_permutations_are_bijections() {
    let mut checked = 0usize;
    for n in [2usize, 8, 10, 64, 128, 177] {
        let ctx = PatternCtx::new(n);
        for name in pattern::BUILTINS.names() {
            let p = pattern::create(&spec(&name, (n / 3).max(1)), &ctx).unwrap();
            if !p.is_permutation() {
                continue;
            }
            checked += 1;
            let mut rng = StdRng::seed_from_u64(1);
            let image: Vec<usize> = (0..n).map(|src| p.dst(src, &mut rng)).collect();
            // Deterministic: a second pass with a different RNG agrees.
            let mut rng2 = StdRng::seed_from_u64(999);
            for (src, &d) in image.iter().enumerate() {
                assert_eq!(p.dst(src, &mut rng2), d, "{name} over {n} is RNG-dependent");
            }
            // Bijective: every endpoint is hit exactly once.
            let mut seen = vec![false; n];
            for (src, &d) in image.iter().enumerate() {
                assert!(
                    !seen[d],
                    "{name} over {n}: destination {d} hit twice (src {src})"
                );
                seen[d] = true;
            }
        }
    }
    // The suite must actually have exercised the permutation patterns
    // (tornado and nearest-group always; the bit patterns on the powers of two).
    assert!(
        checked >= 2 * 6 + 4 * 3,
        "only {checked} permutation checks ran"
    );
}

/// Unknown pattern names and malformed specs are proper errors that name the
/// registered patterns — the registry mirror of the routing registry's
/// behaviour, minus the panic.
#[test]
fn unknown_and_malformed_specs_are_reported_not_panicked() {
    let ctx = PatternCtx::new(32);
    let err = pattern::create("wormhole-9000", &ctx)
        .map(|p| p.name().to_string())
        .unwrap_err();
    match &err {
        PatternError::Unknown {
            name, registered, ..
        } => {
            assert_eq!(name, "wormhole-9000");
            assert!(registered.contains(&"adversarial".to_string()));
            assert!(registered.contains(&"tornado".to_string()));
        }
        other => panic!("expected Unknown, got {other:?}"),
    }
    assert!(err.to_string().contains("registered:"));
    assert!(matches!(
        pattern::create("tornado(", &ctx),
        Err(PatternError::BadSpec { .. })
    ));
    assert!(pattern::validate_spec("wormhole-9000").is_err());
    assert!(pattern::validate_spec("hotspot(8, 0.2)").is_ok());
}

/// A factory that panics leaves the registries usable: adding it runs
/// nothing, and an instantiation that dies inside it leaves later lookups and
/// additions working.
#[test]
fn a_panicking_factory_leaves_the_registries_usable() {
    use spectralfly_simnet::Registries;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let registries = Registries::default()
        .with_router("boom", || panic!("factory exploded"))
        .unwrap()
        .with_pattern("boom", |_, _| panic!("factory exploded"))
        .unwrap();
    // The factory runs, and panics, only because the spelling resolved.
    let routing = &registries.routing;
    assert!(catch_unwind(AssertUnwindSafe(|| routing.resolve(" Boom ").map(drop))).is_err());
    assert_eq!(routing.resolve("ugal").unwrap().name(), "ugal-l");
    assert!(routing.resolve("bang").is_err());

    let ctx = PatternCtx::new(16);
    let patterns = &registries.patterns;
    assert!(catch_unwind(AssertUnwindSafe(|| patterns.create("boom", &ctx).map(drop))).is_err());
    assert_eq!(patterns.create("uniform", &ctx).unwrap().name(), "random");
    let registries = registries
        .with_pattern("late", |_, _| panic!("never instantiated"))
        .unwrap();
    assert!(registries.patterns.contains("late") && registries.patterns.contains("boom"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random endpoint counts and group sizes: every built-in builds, stays in
    /// range, and (when it claims so) permutes.
    #[test]
    fn patterns_hold_their_contract_on_random_spaces(
        n in 1usize..300,
        group in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(group <= n);
        let ctx = PatternCtx::new(n);
        for name in pattern::BUILTINS.names() {
            let p = pattern::create(&spec(&name, group), &ctx).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut image_ok = vec![false; n];
            for src in 0..n {
                let d = p.dst(src, &mut rng);
                prop_assert!(d < n, "{}: dst({}) = {} over {}", &name, src, d, n);
                image_ok[d] = true;
            }
            if p.is_permutation() {
                prop_assert!(
                    image_ok.iter().all(|&b| b),
                    "{}: claimed permutation misses endpoints over {}",
                    &name,
                    n
                );
            }
        }
    }
}
