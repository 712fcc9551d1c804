//! Property tests for the traffic-pattern subsystem: every registered pattern
//! must stay inside the endpoint range, every self-declared permutation pattern
//! must actually be a bijection, and the registry must reject unknown names with
//! a proper error rather than a panic.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use spectralfly_simnet::pattern::{self, PatternCtx, PatternError, PatternRegistry};

/// Destinations from every built-in pattern must be in `0..n`, whatever the
/// endpoint count's shape (power of two, prime, composite, tiny).
#[test]
fn every_builtin_stays_in_range_on_assorted_endpoint_counts() {
    let registry = PatternRegistry::with_builtins();
    for n in [1usize, 2, 3, 7, 16, 50, 64, 97, 200] {
        let ctx = PatternCtx::new(n).with_group_endpoints((n / 4).max(1));
        for name in registry.names() {
            let p = pattern::create(&name, &ctx).unwrap_or_else(|e| {
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
    let registry = PatternRegistry::with_builtins();
    let mut checked = 0usize;
    for n in [2usize, 8, 10, 64, 128, 177] {
        let ctx = PatternCtx::new(n).with_group_endpoints((n / 3).max(1));
        for name in registry.names() {
            let p = pattern::create(&name, &ctx).unwrap();
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
    assert!(!pattern::is_registered("wormhole-9000"));
    assert!(pattern::is_registered("hotspot(8, 0.2)"));
}

/// A factory that panics leaves the global registries usable: registering it
/// runs nothing (the routing registry used to call it under its write lock,
/// poisoning every later lookup), and a `create` that dies inside it leaves
/// later lookups and registrations working.
#[test]
fn a_panicking_factory_leaves_the_registries_usable() {
    use spectralfly_simnet::routing;
    use std::panic::catch_unwind;
    routing::register("boom", || panic!("factory exploded"));
    assert!(catch_unwind(|| routing::create("boom").map(drop)).is_err());
    assert_eq!(routing::create("ugal").unwrap().name(), "ugal-l");
    assert!(routing::is_registered(" Boom ") && !routing::is_registered("bang"));
    assert!(routing::registered_names().contains(&"boom".to_string()));

    pattern::register("boom", |_, _| panic!("factory exploded"));
    let ctx = PatternCtx::new(16);
    assert!(catch_unwind(|| pattern::create("boom", &ctx).map(drop)).is_err());
    assert_eq!(pattern::create("uniform", &ctx).unwrap().name(), "random");
    pattern::register("late", |_, _| panic!("never instantiated"));
    assert!(pattern::is_registered("late") && pattern::is_registered("boom"));
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
        let registry = PatternRegistry::with_builtins();
        let ctx = PatternCtx::new(n).with_group_endpoints(group);
        for name in registry.names() {
            let p = pattern::create(&name, &ctx).unwrap();
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

    /// Materialized workloads are well-formed for every built-in: in-range
    /// endpoints, no self-messages, at most one message per (endpoint, slot).
    #[test]
    fn materialized_workloads_are_well_formed(
        n in 2usize..150,
        msgs in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let registry = PatternRegistry::with_builtins();
        let ctx = PatternCtx::new(n);
        for name in registry.names() {
            let p = pattern::create(&name, &ctx).unwrap();
            let wl = p.workload(msgs, 256, seed);
            prop_assert!(wl.num_messages() <= n * msgs, "{}", &name);
            for m in &wl.messages {
                prop_assert!(m.src < n && m.dst < n, "{}", &name);
                prop_assert!(m.src != m.dst, "{}", &name);
                prop_assert!(m.bytes == 256, "{}", &name);
            }
        }
    }
}
