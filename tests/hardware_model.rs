//! Behavior-preservation properties of the hardware families:
//! selecting [`HardwareFamily::FixedFrequencyTransmon`] (the default)
//! must reproduce the pre-refactor pipeline bit-for-bit — collision
//! verdicts, Monte Carlo yield counts, content keys, and full design
//! outputs — while the non-default families must visibly re-shape the
//! same surfaces (different keys, different bands, different noise).

use proptest::prelude::*;

use qpd::prelude::*;
use qpd::profile::CouplingProfile;
use qpd::topology::{ibm, BusMode};
use qpd::yield_sim::{HardwareFamily, YieldSimulator};

/// Strategy: a connected-ish weighted profile over `3..=n` qubits (a
/// chain backbone keeps placement well-posed).
fn arb_profile(max_qubits: usize) -> impl Strategy<Value = CouplingProfile> {
    (3..=max_qubits).prop_flat_map(move |n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n, 1u32..20), 1..=max_edges.min(12)).prop_map(
            move |raw| {
                let mut edges: Vec<(usize, usize, u32)> =
                    (0..n - 1).map(|i| (i, i + 1, 1)).collect();
                edges.extend(
                    raw.into_iter()
                        .filter(|(a, b, _)| a != b)
                        .map(|(a, b, w)| (a.min(b), a.max(b), w)),
                );
                CouplingProfile::from_edges(n, &edges)
            },
        )
    })
}

/// Strategy: a 16-entry frequency vector inside the paper's band, for
/// the IBM 16-qubit baseline's collision checker.
fn arb_frequencies() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u32..=3_400, 16)
        .prop_map(|raw| raw.into_iter().map(|m| 5.0 + f64::from(m) * 1e-4).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The default family's collision thresholds are the plain
    /// checker's — identical event lists (and therefore identical
    /// counts) for arbitrary frequency assignments.
    #[test]
    fn fixed_family_collision_events_match_the_default_checker(
        freqs in arb_frequencies(),
    ) {
        let chip = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
        let reference = CollisionChecker::new(&chip);
        let via_family = CollisionChecker::with_params(
            &chip,
            HardwareFamily::FixedFrequencyTransmon.collision_params(),
        );
        prop_assert_eq!(reference.has_collision(&freqs), via_family.has_collision(&freqs));
        prop_assert_eq!(reference.collisions(&freqs), via_family.collisions(&freqs),
            "the default family's thresholds diverged from the pre-refactor checker");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A simulator pointed at the default family is bit-identical to
    /// one that never heard of hardware families — same content key
    /// (so the explorer's stage cache cannot tell them apart) and the
    /// same Monte Carlo success count, for arbitrary seeds and noise
    /// widths.
    #[test]
    fn fixed_family_simulator_is_bit_identical(
        seed in 0u64..1_000,
        sigma_millis in 1u32..80,
        baseline in 0usize..4,
    ) {
        let chip = ibm::all_baselines()[baseline].clone();
        let sigma = f64::from(sigma_millis) * 1e-3;
        let plain = YieldSimulator::new().with_trials(600).with_seed(seed).with_sigma_ghz(sigma);
        let tagged = plain.with_hardware(HardwareFamily::FixedFrequencyTransmon);
        prop_assert_eq!(
            plain.content_key(&chip).unwrap(),
            tagged.content_key(&chip).unwrap(),
            "default family leaked into the yield content key"
        );
        let a = plain.estimate(&chip).unwrap();
        let b = tagged.estimate(&chip).unwrap();
        prop_assert_eq!(a.successes(), b.successes(), "Monte Carlo stream diverged");
        prop_assert_eq!(a.trials(), b.trials());

        // And the non-default families are *not* invisible: they re-key
        // the stage and (with thresholds or sigma changed) may move the
        // estimate.
        for family in [HardwareFamily::TunableCoupler, HardwareFamily::HeavyHex] {
            let other = plain.with_hardware(family);
            prop_assert_ne!(
                plain.content_key(&chip).unwrap(),
                other.content_key(&chip).unwrap(),
                "family {} missing from the yield content key", family.as_str()
            );
        }
    }

    /// A design flow pointed at the default family produces the same
    /// architecture, bit for bit, as a flow that never heard of
    /// hardware families — names, coordinates, buses, and the full
    /// frequency plan.
    #[test]
    fn fixed_family_design_flow_is_bit_identical(
        profile in arb_profile(8),
        five in proptest::bool::ANY,
        alloc_seed in 0u64..50,
    ) {
        let base = DesignFlow::new().with_allocation_trials(60).with_allocation_seed(alloc_seed);
        let base = if five {
            base.with_frequency_strategy(FrequencyStrategy::FiveFrequency)
        } else {
            base
        };
        let plain = base.clone().design(&profile).unwrap();
        let tagged = base
            .with_hardware(HardwareFamily::FixedFrequencyTransmon)
            .design(&profile)
            .unwrap();
        prop_assert_eq!(&plain, &tagged, "default family changed a design output");
    }
}

/// The non-default families re-shape a designed chip: suffixed names
/// and frequency plans inside the family band.
#[test]
fn non_default_families_redesign_within_their_band() {
    let mut program = Circuit::new(6);
    for _ in 0..3 {
        program.cx(0, 1).cx(1, 2).cx(3, 4).cx(4, 5).cx(0, 3).cx(1, 4).cx(2, 5);
    }
    let profile = CouplingProfile::of(&program);
    for family in [HardwareFamily::TunableCoupler, HardwareFamily::HeavyHex] {
        let chip = DesignFlow::new()
            .with_allocation_trials(60)
            .with_hardware(family)
            .design(&profile)
            .unwrap();
        assert!(
            chip.name().contains(family.name_suffix()),
            "{} design missing its name suffix: {}",
            family.as_str(),
            chip.name()
        );
        let (lo, hi) = family.allowed_band_ghz();
        for &f in chip.frequencies().expect("designed chip has a plan").as_slice() {
            assert!((lo..=hi).contains(&f), "{f} GHz outside the {} band", family.as_str());
        }
    }
}

/// FNV-1a over every family's band, pattern menu, collision parameters,
/// effective sigma at 0, 15 and 30 MHz, and allocator candidate grid,
/// each `f64` as its bits, families in [`HardwareFamily::ALL`] order.
/// Recorded from the trait-based hardware layer, so it pins the exact
/// constants of the tunable-coupler and heavy-hex families as well as
/// the default one.
const HARDWARE_PIN: u64 = 0x0549_eb48_e6e9_b251;

#[test]
fn family_constants_match_the_recorded_pin() {
    let mut h = qpd::yield_sim::Fnv64::new();
    for family in HardwareFamily::ALL {
        let (lo, hi) = family.allowed_band_ghz();
        let p = family.collision_params();
        let allocator = FrequencyAllocator::new().with_hardware(family);
        let values = [lo, hi]
            .into_iter()
            .chain(family.pattern_frequencies_ghz().iter().copied())
            .chain([
                p.anharmonicity_ghz,
                p.t_degenerate_ghz,
                p.t_half_ghz,
                p.t_full_ghz,
                p.t_two_photon_ghz,
            ])
            .chain([0.0, 0.015, 0.030].map(|sigma| family.effective_sigma_ghz(sigma)))
            .chain(allocator.candidates().iter().copied());
        for v in values {
            h.push(v.to_bits());
        }
    }
    assert_eq!(h.finish(), HARDWARE_PIN, "a hardware family's constants changed");
}
