//! The quantum program workloads of the paper's evaluation (§5.1).
//!
//! Twelve benchmarks spanning simulation (UCCSD VQE ansatz, Ising
//! model), transforms (QFT), and reversible arithmetic/logic (RevLib
//! family), with the qubit counts of paper Figure 10. [`build`] returns
//! each circuit lowered to the native `{CX, single-qubit}` basis the
//! rest of the toolchain consumes.
//!
//! ```
//! let circuit = qpd_benchmarks::build("qft_16").unwrap();
//! assert_eq!(circuit.num_qubits(), 16);
//! assert!(circuit.iter().all(|inst| inst.gate().is_native()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arith;
pub mod esop;
pub mod ising;
pub mod pprm;
pub mod qft;
pub mod revlib;
pub mod uccsd;

use std::error::Error;
use std::fmt;

use qpd_circuit::decompose::decompose_to_native;
use qpd_circuit::Circuit;

/// Application domain of a benchmark (paper Table of benchmarks spans
/// "several important domains, e.g., simulation, arithmetic").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Quantum simulation (VQE, Ising dynamics).
    Simulation,
    /// Reversible arithmetic (adders, counters, square root).
    Arithmetic,
    /// Combinational logic (PLAs, multiplexers, symmetric functions).
    Logic,
    /// Signal transforms (QFT).
    Transform,
}

/// Static description of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkSpec {
    /// Benchmark name as the paper spells it.
    pub name: &'static str,
    /// Logical qubit count.
    pub qubits: usize,
    /// Application domain.
    pub domain: Domain,
    /// One-line description.
    pub description: &'static str,
}

/// The twelve benchmarks of paper Figure 10, in the figure's order.
pub const ALL: [BenchmarkSpec; 12] = [
    BenchmarkSpec {
        name: "adr4_197",
        qubits: 13,
        domain: Domain::Arithmetic,
        description: "4-bit VBE ripple-carry adder (RevLib adr4)",
    },
    BenchmarkSpec {
        name: "rd84_142",
        qubits: 15,
        domain: Domain::Arithmetic,
        description: "8-input binary weight function (RevLib rd84)",
    },
    BenchmarkSpec {
        name: "misex1_241",
        qubits: 15,
        domain: Domain::Logic,
        description: "8-input 7-output PLA (RevLib misex1 surrogate)",
    },
    BenchmarkSpec {
        name: "square_root_7",
        qubits: 15,
        domain: Domain::Arithmetic,
        description: "6-bit integer square root (RevLib square_root)",
    },
    BenchmarkSpec {
        name: "radd_250",
        qubits: 13,
        domain: Domain::Arithmetic,
        description: "5-bit Cuccaro ripple-carry adder (RevLib radd)",
    },
    BenchmarkSpec {
        name: "cm152a_212",
        qubits: 12,
        domain: Domain::Logic,
        description: "8-to-1 multiplexer (RevLib cm152a)",
    },
    BenchmarkSpec {
        name: "dc1_220",
        qubits: 11,
        domain: Domain::Logic,
        description: "hex 7-segment display decoder (RevLib dc1)",
    },
    BenchmarkSpec {
        name: "z4_268",
        qubits: 11,
        domain: Domain::Arithmetic,
        description: "3-bit adder with carry-in as a PLA (RevLib z4)",
    },
    BenchmarkSpec {
        name: "sym6_145",
        qubits: 7,
        domain: Domain::Logic,
        description: "symmetric 6-input predicate (RevLib sym6)",
    },
    BenchmarkSpec {
        name: "UCCSD_ansatz_8",
        qubits: 8,
        domain: Domain::Simulation,
        description: "8-spin-orbital UCCSD VQE ansatz",
    },
    BenchmarkSpec {
        name: "ising_model_16",
        qubits: 16,
        domain: Domain::Simulation,
        description: "16-site Trotterized transverse-field Ising chain",
    },
    BenchmarkSpec {
        name: "qft_16",
        qubits: 16,
        domain: Domain::Transform,
        description: "16-qubit quantum Fourier transform",
    },
];

/// Error from the benchmark registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBenchmark {
    name: String,
}

impl UnknownBenchmark {
    /// The unrecognized name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for UnknownBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown benchmark `{}`; see qpd_benchmarks::ALL for choices", self.name)
    }
}

impl Error for UnknownBenchmark {}

/// Builds a benchmark by name, lowered to the native basis.
///
/// # Errors
///
/// Returns [`UnknownBenchmark`] for names outside [`ALL`].
pub fn build(name: &str) -> Result<Circuit, UnknownBenchmark> {
    let raw = build_raw(name)?;
    Ok(decompose_to_native(&raw).expect("benchmark generators leave spare ancilla lines"))
}

/// Builds a benchmark at its natural gate level (MCTs, controlled
/// phases, ZZ interactions) before decomposition — what the functional
/// tests simulate.
///
/// # Errors
///
/// Returns [`UnknownBenchmark`] for names outside [`ALL`].
pub fn build_raw(name: &str) -> Result<Circuit, UnknownBenchmark> {
    let mut circuit = match name {
        "adr4_197" => revlib::adr4(),
        "rd84_142" => revlib::rd84(),
        "misex1_241" => revlib::misex1(),
        "square_root_7" => revlib::square_root(),
        "radd_250" => revlib::radd(),
        "cm152a_212" => revlib::cm152a(),
        "dc1_220" => revlib::dc1(),
        "z4_268" => revlib::z4(),
        "sym6_145" => revlib::sym6(),
        "UCCSD_ansatz_8" => uccsd::uccsd_ansatz(8, 4),
        "ising_model_16" => return Ok(ising::ising_model(16, 13)),
        "qft_16" => return Ok(qft::qft(16)),
        other => return Err(UnknownBenchmark { name: other.to_string() }),
    };
    // Reversible benchmarks measure their registers at the end, as the
    // RevLib-derived QASM dumps do.
    circuit.measure_all();
    Ok(circuit)
}

/// The spec for a benchmark name.
pub fn spec(name: &str) -> Option<&'static BenchmarkSpec> {
    ALL.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_builds_native() {
        for spec in &ALL {
            let circuit = build(spec.name).unwrap();
            assert_eq!(circuit.num_qubits(), spec.qubits, "{}", spec.name);
            assert!(
                circuit.iter().all(|i| i.gate().is_native()),
                "{} not fully lowered",
                spec.name
            );
            assert!(circuit.two_qubit_gate_count() > 0, "{} trivial", spec.name);
        }
    }

    #[test]
    fn unknown_name_errors() {
        let err = build("shor_2048").unwrap_err();
        assert_eq!(err.name(), "shor_2048");
        assert!(err.to_string().contains("shor_2048"));
    }

    #[test]
    fn spec_lookup() {
        assert_eq!(spec("qft_16").unwrap().qubits, 16);
        assert!(spec("nope").is_none());
    }

    #[test]
    fn gate_counts_are_in_plausible_ranges() {
        // Published sizes (SABRE benchmark set) give the expected order of
        // magnitude; our regenerated circuits should land within a small
        // factor. Wide bounds: catching pathological blowups/shrinkage.
        let expectations: &[(&str, usize, usize)] = &[
            ("qft_16", 200, 2_000),
            ("ising_model_16", 400, 2_000),
            ("UCCSD_ansatz_8", 1_000, 20_000),
            ("sym6_145", 800, 20_000),
            ("rd84_142", 200, 6_000),
            ("adr4_197", 50, 4_000),
            ("radd_250", 50, 4_000),
            ("cm152a_212", 300, 6_000),
            ("misex1_241", 1_000, 30_000),
            ("z4_268", 500, 30_000),
            ("dc1_220", 200, 20_000),
            ("square_root_7", 500, 30_000),
        ];
        for &(name, lo, hi) in expectations {
            let count = build(name).unwrap().gate_count();
            assert!((lo..=hi).contains(&count), "{name}: {count} gates outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn builds_are_deterministic() {
        for spec in &ALL {
            assert_eq!(build(spec.name).unwrap(), build(spec.name).unwrap(), "{}", spec.name);
        }
    }
}
