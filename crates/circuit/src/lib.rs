//! Quantum circuit intermediate representation and tooling.
//!
//! This crate is the circuit substrate of the QPD workspace. It provides:
//!
//! - a compact, validated circuit IR ([`Circuit`], [`Instruction`], [`Gate`],
//!   [`Qubit`]),
//! - an OpenQASM 2.0 lexer/parser/emitter ([`qasm`]),
//! - gate decomposition passes lowering arbitrary circuits to the
//!   `{CX, single-qubit}` basis used by IBM's superconducting devices
//!   ([`decompose`]),
//! - a gate dependency DAG used by routing algorithms ([`dag::GateDag`]),
//! - small simulators used to verify transformations ([`sim`]),
//! - seeded random circuit generation for tests and benchmarks ([`random`]).
//!
//! # Example
//!
//! ```
//! use qpd_circuit::{Circuit, Gate};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! assert_eq!(bell.two_qubit_gate_count(), 1);
//! let qasm = qpd_circuit::qasm::to_qasm(&bell)?;
//! let parsed = qpd_circuit::qasm::parse(&qasm)?;
//! assert_eq!(parsed.len(), bell.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod circuit;
pub mod dag;
pub mod decompose;
pub mod error;
pub mod gate;
pub mod qasm;
pub mod qubit;
pub mod random;
pub mod sim;

pub use circuit::{Circuit, Instruction};
pub use dag::GateDag;
pub use error::{CircuitError, QasmError};
pub use gate::{Arity, Gate};
pub use qubit::Qubit;
