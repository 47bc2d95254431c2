//! Whole-suite integration checks: every paper benchmark survives a
//! QASM round-trip, stays within its declared spec, and the experiment
//! pipeline is bit-deterministic.

use qpd::circuit::qasm;
use qpd::eval::runner::{run_benchmark, EvalSettings};
use qpd::profile::CouplingProfile;

#[test]
fn all_benchmarks_roundtrip_through_qasm() {
    for spec in &qpd::benchmarks::ALL {
        let circuit = qpd::benchmarks::build(spec.name).unwrap();
        let text = qasm::to_qasm(&circuit).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let back = qasm::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(back, circuit, "{} changed across emit/parse", spec.name);
    }
}

#[test]
fn qasm_emit_parse_is_a_fixpoint_for_every_generator() {
    // Regression for the parser/emitter pair: once a generator's circuit
    // has been through QASM text, parsing and re-emitting must converge
    // immediately — equal text, equal circuits, and gate/qubit counts
    // identical to the original build. Catches asymmetries (implicit
    // register expansion, angle printing, measurement ordering) that the
    // single-pass round-trip test can mask.
    for spec in &qpd::benchmarks::ALL {
        let circuit = qpd::benchmarks::build(spec.name).unwrap();
        let text = qasm::to_qasm(&circuit).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let parsed = qasm::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let text2 = qasm::to_qasm(&parsed).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let reparsed = qasm::parse(&text2).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(text, text2, "{}: emit is not a fixpoint after one parse", spec.name);
        assert_eq!(
            parsed.gate_count(),
            circuit.gate_count(),
            "{}: gate count changed across parse",
            spec.name
        );
        assert_eq!(
            reparsed.gate_count(),
            circuit.gate_count(),
            "{}: gate count changed across re-parse",
            spec.name
        );
        assert_eq!(reparsed.num_qubits(), circuit.num_qubits(), "{}: width changed", spec.name);
        assert_eq!(reparsed, parsed, "{}: parse/emit/parse not stable", spec.name);
    }
}

#[test]
fn benchmark_profiles_are_stable_fingerprints() {
    // Golden fingerprints: total two-qubit gates and edge counts per
    // benchmark. These pin the generators against accidental changes —
    // the design flow's inputs must not drift silently. misex1_241 is
    // the one generator drawn from a seeded RNG stream, so its
    // fingerprint is tied to the workspace's RNG backend (the offline
    // ChaCha8 shim); regenerate with the `fingerprints` bin after any
    // intentional generator or RNG change.
    let expected: &[(&str, u32, usize)] = &[
        ("adr4_197", 100, 20),
        ("rd84_142", 632, 32),
        ("misex1_241", 2274, 79),
        ("square_root_7", 655, 31),
        ("radd_250", 81, 16),
        ("cm152a_212", 384, 24),
        ("dc1_220", 648, 36),
        ("z4_268", 805, 42),
        ("sym6_145", 1866, 21),
        ("UCCSD_ansatz_8", 2752, 15),
        ("ising_model_16", 390, 15),
        ("qft_16", 240, 120),
    ];
    for &(name, two_qubit, edges) in expected {
        let profile = CouplingProfile::of(&qpd::benchmarks::build(name).unwrap());
        assert_eq!(profile.total_two_qubit_gates(), two_qubit, "{name} gate count drifted");
        assert_eq!(profile.edge_count(), edges, "{name} edge count drifted");
    }
}

#[test]
fn circuit_keys_are_stable_across_builds() {
    // Golden program keys. Route-cache keys fold `circuit_key` in and
    // cache sidecars persist them, so a drifting key silently turns
    // every saved route into a miss. Like the profile fingerprints,
    // misex1_241's key follows the RNG backend.
    let expected: &[(&str, u64)] = &[
        ("adr4_197", 0x6838_c5e9_4de1_0b79),
        ("rd84_142", 0xdb00_ac6d_b3f4_a315),
        ("misex1_241", 0xdfbc_b300_626c_440a),
        ("square_root_7", 0xe5eb_4759_c36f_ee0a),
        ("radd_250", 0xc407_f121_d1a0_b537),
        ("cm152a_212", 0xae45_bbd2_e52f_0dbc),
        ("dc1_220", 0xbfa3_0719_8088_25c5),
        ("z4_268", 0x8134_e990_eb80_8d87),
        ("sym6_145", 0x09de_2e23_d1e1_31d2),
        ("UCCSD_ansatz_8", 0xdf61_05fe_d640_0ee2),
        ("ising_model_16", 0x34a5_c81c_678c_e3ca),
        ("qft_16", 0x31f8_be4b_ebe2_822e),
    ];
    assert_eq!(expected.len(), qpd::benchmarks::ALL.len());
    for &(name, key) in expected {
        let circuit = qpd::benchmarks::build(name).unwrap();
        assert_eq!(qpd::explore::circuit_key(&circuit), key, "{name} circuit key drifted");
    }
}

#[test]
fn experiment_pipeline_is_deterministic() {
    let settings = EvalSettings::quick();
    let a = run_benchmark("sym6_145", &settings).unwrap();
    let b = run_benchmark("sym6_145", &settings).unwrap();
    assert_eq!(a.points, b.points);
}
