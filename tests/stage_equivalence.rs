//! Flow-equivalence properties of the stage-graph refactor: the staged,
//! memoized [`DesignFlow`] facade must reproduce a monolithic oracle
//! built from the public subroutines bit-for-bit — across bus/frequency
//! strategies, auxiliary counts, hardware families, and placement
//! variants; cold, warm, and under cache-eviction pressure — and a
//! dirtied-stage (warm-engine) evaluation must equal a cold-engine
//! evaluation of the same candidate.

use proptest::prelude::*;

use std::sync::Arc;

use qpd::design::{
    place_auxiliary, place_qubits, select_buses_random, select_buses_weighted, StagePlan,
};
use qpd::explore::{
    BusSpec, CandidateSpec, ExploreConfig, ExploreSpace, Explorer, HardwareFamily, PlacementVariant,
};
use qpd::prelude::*;
use qpd::profile::CouplingProfile;
use qpd::topology::pattern_frequency_plan;

/// Strategy: a random connected-ish weighted edge list over `3..=n`
/// qubits (self-loops dropped; a chain backbone keeps placement happy).
fn arb_profile(max_qubits: usize) -> impl Strategy<Value = CouplingProfile> {
    (3..=max_qubits).prop_flat_map(move |n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n, 1u32..20), 1..=max_edges.min(16)).prop_map(
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

/// The monolithic flow: placement, bus selection, assembly and
/// frequency assignment called in sequence from the public subroutines,
/// with no stage decomposition and no caching. Flows here keep the
/// default `eff` name prefix.
fn monolithic(flow: &DesignFlow, profile: &CouplingProfile) -> Architecture {
    let mut coords = place_qubits(profile);
    coords.extend(place_auxiliary(&coords, flow.auxiliary_qubits()));
    let cap = flow.max_buses().unwrap_or(usize::MAX);
    let squares = match flow.bus_strategy() {
        BusStrategy::Weighted => select_buses_weighted(&coords, profile, cap),
        BusStrategy::Random { seed } => select_buses_random(&coords, cap, seed),
    };
    let hardware = flow.hardware();
    let five = flow.frequency_strategy() == FrequencyStrategy::FiveFrequency;
    let name = format!(
        "eff{}-{}q-b{}{}",
        hardware.name_suffix(),
        coords.len(),
        squares.len(),
        if five { "-5freq" } else { "" }
    );
    let mut builder = Architecture::builder(name);
    builder.qubits(coords.iter().copied());
    for &s in &squares {
        builder.four_qubit_bus_at(s);
    }
    let arch = builder.build().unwrap();
    let plan = if five {
        pattern_frequency_plan(&arch, hardware.pattern_frequencies_ghz())
    } else {
        FrequencyAllocator::new()
            .with_hardware(hardware)
            .with_trials(flow.allocation_trials())
            .with_refinement_sweeps(flow.allocation_sweeps())
            .with_sigma_ghz(flow.sigma_ghz())
            .with_seed(flow.allocation_seed())
            .allocate(&arch)
    };
    arch.with_frequencies_in_band(plan, hardware.allowed_band_ghz()).unwrap()
}

/// Strategy: one full knob assignment of the flow, over every hardware
/// family.
fn arb_flow() -> impl Strategy<Value = DesignFlow> {
    (
        prop_oneof![Just(None), (0u64..100).prop_map(Some)],
        proptest::bool::ANY,
        0usize..3,
        prop_oneof![Just(None), Just(Some(1usize)), Just(Some(3usize))],
        0u64..8,
        0usize..3,
    )
        .prop_map(|(random_seed, five_freq, aux, max_buses, alloc_seed, family)| {
            let mut flow = DesignFlow::new()
                .with_hardware(HardwareFamily::ALL[family])
                .with_allocation_trials(60)
                .with_allocation_seed(alloc_seed)
                .with_auxiliary_qubits(aux)
                .with_max_buses(max_buses);
            if let Some(seed) = random_seed {
                flow = flow.with_bus_strategy(BusStrategy::Random { seed });
            }
            if five_freq {
                flow = flow.with_frequency_strategy(FrequencyStrategy::FiveFrequency);
            }
            flow
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The facade reproduces the monolithic oracle bit-for-bit, on a
    /// cold plan, on a warm plan, and with the caches squeezed to a
    /// single entry per stage (eviction on almost every call).
    #[test]
    fn facade_equals_monolithic_reference(
        profile in arb_profile(9),
        flow in arb_flow(),
    ) {
        let reference = monolithic(&flow, &profile);
        let cold = flow.design(&profile).unwrap();
        prop_assert_eq!(&cold, &reference, "cold facade diverged");
        let warm = flow.design(&profile).unwrap();
        prop_assert_eq!(&warm, &reference, "warm facade diverged");
        let squeezed = flow.clone().with_plan(Arc::new(StagePlan::with_cap(Some(1))));
        prop_assert_eq!(&squeezed.design(&profile).unwrap(), &reference,
            "eviction changed an output");
        prop_assert_eq!(&squeezed.design(&profile).unwrap(), &reference);
    }

    /// A frequency-strategy change on a warm plan reuses placement and
    /// bus selection (cache hits, no new misses) — and still matches the
    /// monolithic oracle of the changed flow.
    #[test]
    fn freq_change_reuses_upstream_stages(
        profile in arb_profile(8),
        flow in arb_flow(),
    ) {
        let flow = flow.with_frequency_strategy(FrequencyStrategy::Optimized);
        flow.design(&profile).unwrap();
        let upstream_misses: u64 = flow.plan().stats()[..2].iter().map(|s| s.misses).sum();
        let five = flow.clone().with_frequency_strategy(FrequencyStrategy::FiveFrequency);
        let staged = five.design(&profile).unwrap();
        let stats = five.plan().stats();
        prop_assert_eq!(stats[..2].iter().map(|s| s.misses).sum::<u64>(), upstream_misses,
            "a frequency-only change re-ran placement or bus selection");
        prop_assert!(stats[0].hits >= 1);
        prop_assert_eq!(&staged, &monolithic(&five, &profile));
    }
}

/// A 6-qubit program with diagonal demand (squares are attractive).
fn demo_circuit() -> Circuit {
    let mut c = Circuit::new(6);
    for _ in 0..3 {
        c.cx(0, 1).cx(1, 2).cx(3, 4).cx(4, 5).cx(0, 3).cx(1, 4).cx(2, 5);
    }
    c.cx(0, 4).cx(1, 3).cx(1, 5).cx(2, 4);
    c
}

fn tiny_config(seed: u64) -> ExploreConfig {
    ExploreConfig {
        alloc_trials: 60,
        yield_trials: 400,
        max_aux: 2,
        seed,
        ..ExploreConfig::quick()
    }
}

fn fresh_explorer(seed: u64) -> Explorer {
    let config = tiny_config(seed);
    Explorer::new(ExploreSpace::new(demo_circuit(), config.max_aux), config).unwrap()
}

/// Strategy: a candidate spec over the demo space's knob surface,
/// covering both placement variants, aux counts, all bus kinds, and
/// every hardware family (the fifth knob).
fn arb_spec() -> impl Strategy<Value = CandidateSpec> {
    (0usize..4, proptest::bool::ANY, 0usize..3, proptest::bool::ANY, 0u64..50, 0usize..3).prop_map(
        |(bus_kind, five, aux, transposed, seed, family)| CandidateSpec {
            bus: match bus_kind {
                0 => BusSpec::Weighted { count: 0 },
                1 => BusSpec::Weighted { count: 2 },
                2 => BusSpec::Random { seed, count: 1 },
                _ => BusSpec::Random { seed, count: 2 },
            },
            frequency: if five {
                FrequencyStrategy::FiveFrequency
            } else {
                FrequencyStrategy::Optimized
            },
            aux_qubits: aux,
            placement: if transposed {
                PlacementVariant::Transposed
            } else {
                PlacementVariant::Identity
            },
            hardware: HardwareFamily::ALL[family],
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The dirtied-stage run equals the cold run: evaluating `b` on an
    /// engine warmed by `a` (only the stages whose keys `b` changes
    /// re-run; the rest come from cache) is bit-identical to evaluating `b` on a
    /// fresh engine — for every knob-diff shape, including placement
    /// variants and auxiliary counts.
    #[test]
    fn dirtied_stage_run_equals_cold_run(
        seed in 0u64..100,
        a in arb_spec(),
        b in arb_spec(),
    ) {
        let warm_engine = fresh_explorer(seed);
        let a_eval = warm_engine.evaluate(&a).unwrap();
        let b_warm = warm_engine.evaluate(&b).unwrap();

        let cold_engine = fresh_explorer(seed);
        let b_cold = cold_engine.evaluate(&b).unwrap();
        prop_assert_eq!(&b_warm, &b_cold, "warm-engine evaluation diverged from cold");

        // And re-evaluating `a` afterwards still matches its original.
        prop_assert_eq!(&warm_engine.evaluate(&a).unwrap(), &a_eval);

        // Content keys alone decide what re-runs: when the topology
        // knobs agree (placement, aux count, and the resolved squares),
        // serving `a` after `b` adds no route miss.
        let space = cold_engine.space();
        let same_topology = a.placement == b.placement
            && a.aux_qubits == b.aux_qubits
            && space.resolve(&a).1 == space.resolve(&b).1;
        if same_topology {
            let before = cold_engine.caches().routes.misses();
            cold_engine.evaluate(&a).unwrap();
            prop_assert_eq!(cold_engine.caches().routes.misses(), before,
                "an unchanged topology re-routed");
        }
    }
}
