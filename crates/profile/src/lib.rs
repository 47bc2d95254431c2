//! Architecture-design-oriented quantum program profiling.
//!
//! Implements §3 of *Towards Efficient Superconducting Quantum Processor
//! Architecture Design* (ASPLOS 2020). The profiler ignores single-qubit
//! gates, initialization, and measurement — none of which require on-chip
//! qubit connections — and extracts from the two-qubit gates:
//!
//! - the **coupling strength matrix** ([`CouplingProfile::strength`]): a
//!   symmetric matrix whose `(i, j)` entry counts the two-qubit gates
//!   between logical qubits `i` and `j`;
//! - the **coupling degree list** ([`CouplingProfile::degree_list`]): all
//!   qubits sorted by the number of two-qubit gates they participate in,
//!   descending.
//!
//! Both guide the hardware design flow in `qpd-core`: strongly coupled
//! qubit pairs get adjacent placements and, when beneficial, 4-qubit
//! buses.
//!
//! ```
//! use qpd_circuit::Circuit;
//! use qpd_profile::CouplingProfile;
//!
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(0, 1).cx(1, 2).measure_all();
//! let profile = CouplingProfile::of(&c);
//! assert_eq!(profile.strength(0, 1), 2);
//! assert_eq!(profile.degree(1), 3);
//! assert_eq!(profile.degree_list()[0].0.index(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coupling;
pub mod patterns;
pub mod render;

pub use coupling::{CouplingProfile, WeightedEdge};
pub use patterns::{PatternReport, PatternShape};
