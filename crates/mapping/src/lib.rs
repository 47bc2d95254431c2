//! Qubit mapping and routing onto superconducting coupling graphs.
//!
//! The paper's performance metric is the total post-mapping gate count
//! produced by "one state-of-the-art qubit mapping algorithm \[18\]" —
//! SABRE (Li, Ding, Xie, ASPLOS 2019). This crate reimplements SABRE from
//! its published description:
//!
//! - front-layer routing over the gate dependency DAG,
//! - SWAP candidates restricted to edges touching front-layer qubits,
//! - the lookahead heuristic over an extended successor set,
//! - a decay term that spreads consecutive SWAPs across qubits,
//! - reverse-traversal refinement of the initial mapping.
//!
//! Routed circuits carry explicit SWAP gates; the paper's gate-count
//! metric expands each SWAP into 3 CNOTs ([`MappingStats::total_gates`]).
//! A caller routing one program onto many chips prepares it once as a
//! [`RouteProgram`] and asks [`SabreRouter::route_stats`] for the
//! statistics alone, which builds no physical circuit.
//!
//! ```
//! use qpd_circuit::Circuit;
//! use qpd_mapping::SabreRouter;
//! use qpd_topology::{ibm, BusMode};
//!
//! # fn main() -> Result<(), qpd_mapping::MappingError> {
//! let chip = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
//! let mut qft4 = Circuit::new(4);
//! for i in 0..4u32 {
//!     for j in (i + 1)..4u32 {
//!         qft4.cx(i, j);
//!     }
//! }
//! let mapped = SabreRouter::new(&chip).route(&qft4)?;
//! assert!(mapped.stats().total_gates >= qft4.gate_count());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
mod initial;
pub mod layout;
pub mod sabre;
pub mod stats;
pub mod verify;

pub use error::MappingError;
pub use layout::Layout;
pub use sabre::{MappedCircuit, RouteProgram, SabreRouter, ROUTE_MEMO_CAP};
pub use stats::MappingStats;
