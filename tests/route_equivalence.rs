//! Equivalence of the prepared-program routing path: a [`RouteProgram`]
//! shared across chips and threads, routed by
//! [`SabreRouter::route_stats`], gives exactly the statistics of
//! routing the circuit afresh with [`SabreRouter::route`], and the
//! routes themselves are pinned against the recorded kernel.

use std::sync::Arc;

use proptest::prelude::*;

use qpd::circuit::random::{random_circuit, RandomCircuitSpec};
use qpd::design::StagePlan;
use qpd::explore::cache::Fnv64;
use qpd::mapping::{MappingError, MappingStats, RouteProgram};
use qpd::prelude::*;
use qpd::topology::ibm;

/// FNV-1a over `(total_gates, routed_depth, swaps)` of every program of
/// [`qpd::benchmarks::ALL`] routed on each chip of [`chip_grid`], in
/// order, with the default router. Recorded from `route(..).stats()`
/// before programs were prepared once and the lookahead memoized, so
/// it pins the swap decisions themselves.
const ROUTE_PIN: u64 = 0xb899_7dc3_74d1_5317;

/// The chips every program is routed on: auxiliary qubits 0..=2 ×
/// weighted or random (seed 7) bus order × 0, 1, 2, 4 or every bus,
/// with five-frequency plans (routing never reads frequencies).
fn chip_grid(circuit: &Circuit) -> Vec<Architecture> {
    let profile = CouplingProfile::of(circuit);
    let plan = Arc::new(StagePlan::new());
    let mut chips = Vec::new();
    for aux in 0..=2 {
        for strategy in [BusStrategy::Weighted, BusStrategy::Random { seed: 7 }] {
            for buses in [0, 1, 2, 4, usize::MAX] {
                let flow = DesignFlow::new()
                    .with_plan(Arc::clone(&plan))
                    .with_frequency_strategy(FrequencyStrategy::FiveFrequency)
                    .with_auxiliary_qubits(aux)
                    .with_bus_strategy(strategy);
                chips.push(flow.design_with_buses(&profile, buses).expect("designs"));
            }
        }
    }
    chips
}

fn push_stats(h: &mut Fnv64, s: &MappingStats) {
    h.push(s.total_gates as u64);
    h.push(s.routed_depth as u64);
    h.push(s.swaps as u64);
}

#[test]
fn shared_programs_reproduce_the_recorded_routes() {
    let mut h = Fnv64::new();
    for spec in &qpd::benchmarks::ALL {
        let circuit = qpd::benchmarks::build(spec.name).expect("benchmark");
        let program = RouteProgram::new(&circuit);
        for chip in chip_grid(&circuit) {
            push_stats(&mut h, &SabreRouter::new(&chip).route_stats(&program).expect("routes"));
        }
    }
    assert_eq!(h.finish(), ROUTE_PIN, "routes differ from the recorded kernel");
}

/// `circuit` with barriers (whole-register and two-qubit) and measures
/// mixed in, each position chosen by `seed`.
fn with_barriers_and_measures(circuit: &Circuit, seed: u64) -> Circuit {
    let n = circuit.num_qubits() as u32;
    let mut out = Circuit::new(circuit.num_qubits());
    for (i, inst) in circuit.iter().enumerate() {
        out.push_instruction(inst.clone()).expect("valid instruction");
        let roll = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
        match roll % 17 {
            0 => {
                out.barrier_all();
            }
            1 if n >= 2 => {
                let a = (roll >> 8) as u32 % n;
                let b = (a + 1 + (roll >> 16) as u32 % (n - 1)) % n;
                out.push(Gate::Barrier, &[Qubit::new(a), Qubit::new(b)]).expect("barrier");
            }
            2 => {
                out.measure((roll >> 8) as u32 % n);
            }
            _ => {}
        }
    }
    out.measure_all();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Routing a prepared program returns the statistics of the
    /// recorded route.
    #[test]
    fn route_stats_equals_the_recorded_route(
        seed in 0u64..10_000,
        width in 2usize..=12,
        gates in 1usize..120,
    ) {
        let chip = ibm::ibm_16q_2x8(BusMode::MaxFourQubit);
        let circuit = with_barriers_and_measures(
            &random_circuit(&RandomCircuitSpec {
                num_qubits: width,
                num_gates: gates,
                two_qubit_fraction: 0.5,
                seed,
            }),
            seed,
        );
        let router = SabreRouter::new(&chip);
        let recorded = router.route(&circuit).expect("routes").stats();
        let program = RouteProgram::new(&circuit);
        prop_assert_eq!(router.route_stats(&program).expect("routes"), recorded);
        // A second route of the same program is served from the memo.
        prop_assert_eq!(router.route_stats(&program).expect("routes"), recorded);
    }
}

#[test]
fn one_program_in_any_order_equals_a_fresh_program_per_chip() {
    for name in ["qft_16", "rd84_142", "sym6_145"] {
        let circuit = qpd::benchmarks::build(name).expect("benchmark");
        let chips = chip_grid(&circuit);
        let fresh: Vec<MappingStats> = chips
            .iter()
            .map(|chip| SabreRouter::new(chip).route_stats(&RouteProgram::new(&circuit)).unwrap())
            .collect();

        let shared = RouteProgram::new(&circuit);
        let reversed: Vec<MappingStats> = chips
            .iter()
            .rev()
            .map(|chip| SabreRouter::new(chip).route_stats(&shared).unwrap())
            .collect();
        assert!(fresh.iter().eq(reversed.iter().rev()), "{name}: reverse order differs");

        let pooled_program = RouteProgram::new(&circuit);
        let pooled = qpd::par::par_map(&chips, |chip| {
            SabreRouter::new(chip).route_stats(&pooled_program).unwrap()
        });
        assert_eq!(fresh, pooled, "{name}: pooled routes differ");
    }
}

#[test]
fn errors_keep_their_precedence() {
    let line = |n: i32, gap: i32| {
        let mut b = Architecture::builder(format!("line{n}-{gap}"));
        for c in 0..n {
            b.qubit(0, c * gap);
        }
        b.build().unwrap()
    };
    let mut ccx = Circuit::new(3);
    ccx.cx(0, 1).ccx(0, 1, 2);
    let cases = [
        // Too wide wins over a disconnected chip and a 3-qubit gate.
        (line(2, 2), MappingError::CircuitTooWide { logical: 3, physical: 2 }),
        // Disconnected wins over a 3-qubit gate.
        (line(3, 2), MappingError::DisconnectedArchitecture),
        (line(3, 1), MappingError::UnsupportedGate { gate: "ccx" }),
    ];
    let program = RouteProgram::new(&ccx);
    for (chip, expected) in cases {
        let router = SabreRouter::new(&chip);
        assert_eq!(router.route(&ccx).unwrap_err(), expected);
        assert_eq!(router.route_stats(&program).unwrap_err(), expected);
    }
}
