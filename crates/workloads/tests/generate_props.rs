//! Property tests for the generative workload suite: name round-trip,
//! derivation determinism and calibration convergence.

use proptest::prelude::*;
use st_workloads::generate::{
    self, derive, families, family, member_name, parse_name, realized_miss_rate,
};
use st_workloads::{by_name, Family};

fn programs_equal(a: &st_isa::Program, b: &st_isa::Program) -> bool {
    a.blocks().len() == b.blocks().len()
        && a.blocks()
            .iter()
            .zip(b.blocks())
            .all(|(x, y)| x.instrs == y.instrs && x.terminator == y.terminator)
        && a.branch_count() == b.branch_count()
        && a.stream_count() == b.stream_count()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every `gen:<family>:<seed>` name resolves through `by_name` to a
    /// spec that carries the same name back (the round-trip sweeps,
    /// shards and the fleet rely on when they re-resolve by name).
    #[test]
    fn gen_names_round_trip_through_by_name(fam_idx in 0usize..4, seed in 0u64..1_000_000) {
        let f = &families()[fam_idx];
        let name = member_name(f, seed);
        let spec = by_name(&name).expect("generative names resolve");
        prop_assert_eq!(&spec.name, &name);
        let (parsed, parsed_seed) = parse_name(&spec.name).expect("name parses back");
        prop_assert_eq!(parsed.name, f.name);
        prop_assert_eq!(parsed_seed, seed);
    }

    /// Malformed generative names never resolve (and never panic).
    #[test]
    fn malformed_gen_names_resolve_to_none(fam_idx in 0usize..4, junk in 0u64..1_000_000) {
        let f = &families()[fam_idx];
        for name in [
            format!("gen:nosuch{junk}:{junk}"),      // unknown family
            format!("gen:{}:{junk}x", f.name),       // trailing garbage in the seed
            format!("gen:{}:{junk}:{junk}", f.name), // extra component
            format!("Gen:{}:{junk}", f.name),        // the prefix is case-sensitive
        ] {
            prop_assert!(parse_name(&name).is_none(), "{name} must not parse");
            prop_assert!(by_name(&name).is_none(), "{name} must not resolve");
        }
    }
}

/// Two independent (memo-free) derivations of the same member must
/// build byte-identical specs *and* byte-identical programs — the
/// determinism that makes fingerprints, the result cache, the engine's
/// shared program images, shard plans and fleet partitioning safe for
/// generated workloads.
#[test]
fn identical_seeds_derive_byte_identical_programs() {
    for f in families() {
        for seed in [0u64, 1, 17] {
            let (a, cal_a) = derive(f, seed);
            let (b, cal_b) = derive(f, seed);
            assert_eq!(a, b, "{}:{seed}: spec derivation must be pure", f.name);
            assert_eq!(cal_a, cal_b);
            assert!(
                programs_equal(&a.generate(), &b.generate()),
                "{}:{seed}: generated programs must be byte-identical",
                f.name
            );
        }
    }
}

/// Different seeds draw different members (the axis would be pointless
/// otherwise).
#[test]
fn different_seeds_derive_different_programs() {
    for f in families() {
        let (a, _) = derive(f, 0);
        let (b, _) = derive(f, 1);
        assert!(
            !programs_equal(&a.generate(), &b.generate()),
            "{}: seeds 0 and 1 must differ",
            f.name
        );
    }
}

fn assert_within_tolerance(f: &Family, seed: u64) {
    let (spec, cal) = derive(f, seed);
    let realized = realized_miss_rate(&spec);
    assert_eq!(realized, cal.achieved, "realized rate is the calibration measurement");
    assert!(
        (realized - f.target_miss).abs() <= f.tolerance,
        "gen:{}:{seed}: realized {realized:.4} vs target {:.3} ± {:.3} (spread {:.4})",
        f.name,
        f.target_miss,
        f.tolerance,
        cal.spread
    );
}

/// `calibrate_hardness` converges within each family's declared
/// tolerance for a sampled set of seeds. Release CI sweeps a wider
/// sample; debug builds keep the walk budget sane with three seeds per
/// family.
#[test]
fn calibration_converges_within_family_tolerance() {
    let seeds: &[u64] = if cfg!(debug_assertions) { &[0, 1, 2] } else { &[0, 1, 2, 3, 5, 8, 13] };
    for f in families() {
        for &seed in seeds {
            assert_within_tolerance(f, seed);
        }
    }
}

/// The family registry itself stays sane: unique names, positive
/// tolerances, resolvable bare names.
#[test]
fn family_registry_is_coherent() {
    let mut names: Vec<_> = families().iter().map(|f| f.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), families().len(), "family names must be unique");
    for f in families() {
        assert!(f.tolerance > 0.0 && f.tolerance < 0.1);
        assert!(f.target_miss > 0.0 && f.target_miss < 0.5);
        assert!(family(f.name).is_some());
        assert!(by_name(&format!("gen:{}", f.name)).is_some(), "bare family name resolves");
    }
    assert!(family("go").is_none(), "fixed profiles are not families");
    let _ = generate::markdown_table();
}
