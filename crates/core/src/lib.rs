//! The application-specific architecture design flow — the paper's
//! primary contribution (§4).
//!
//! Given a program profile (`qpd-profile`), the flow runs three
//! subroutines, each respecting the physical constraints of
//! superconducting hardware:
//!
//! 1. **Layout design** ([`placement`], Algorithm 1): coupling-based qubit
//!    placement on a 2D lattice — strongly coupled logical qubits land on
//!    adjacent nodes.
//! 2. **Bus selection** ([`bus`], Algorithm 2): greedy filtered-weight
//!    selection of squares to upgrade to 4-qubit buses, under the
//!    prohibited (no-adjacent-squares) condition. A random variant
//!    implements the paper's `eff-rd-bus` ablation.
//! 3. **Frequency allocation** ([`freq`], Algorithm 3): center-out
//!    breadth-first assignment, choosing each qubit's frequency by local
//!    Monte Carlo yield.
//!
//! [`DesignFlow`] composes the three into an end-to-end pipeline that
//! emits a *series* of architectures trading performance against yield by
//! varying the number of 4-qubit buses (the paper's `eff-full` curve).
//!
//! Internally the pipeline is an explicit **stage graph** ([`stage`]):
//! each subroutine is a plain stage struct holding its knobs, whose
//! `key` method derives a content key from its true inputs, served
//! through a bounded per-stage cache ([`stage::StageCache`], bounded by
//! [`memo_cap`], batches served by [`stage::StageCache::run_batch`])
//! owned by a [`stage::StagePlan`]. [`DesignFlow`] is a thin facade
//! over the plan — caching is bit-transparent, and a knob change
//! recomputes only the stages whose content keys it changes.
//!
//! ```
//! use qpd_circuit::Circuit;
//! use qpd_profile::CouplingProfile;
//! use qpd_core::DesignFlow;
//!
//! // An 4-qubit toy program with a chain pattern.
//! let mut c = Circuit::new(4);
//! c.cx(0, 1).cx(1, 2).cx(2, 3).cx(1, 2);
//! let profile = CouplingProfile::of(&c);
//! let flow = DesignFlow::new().with_allocation_trials(200);
//! let arch = flow.design(&profile).unwrap();
//! assert_eq!(arch.num_qubits(), 4);
//! assert!(arch.is_connected());
//! assert!(arch.frequencies().is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod error;
pub mod freq;
pub mod pareto;
pub mod pipeline;
pub mod placement;
pub mod stage;

pub use bus::{
    candidate_squares, select_buses_maximal, select_buses_random, select_buses_weighted,
};
pub use error::DesignError;
pub use freq::{AllocJob, FrequencyAllocator};
pub use pareto::{
    crowding_distances, dominates_nd, epsilon_cell, epsilon_dominates_nd,
    epsilon_weakly_dominates_nd, pareto_front, pareto_front_nd,
};
pub use pipeline::{BusStrategy, DesignFlow, FrequencyStrategy};
pub use placement::{place_auxiliary, place_qubits};
pub use stage::{
    memo_cap, profile_key, AssembleJob, AssembleStage, BusOrderStage, PlacementStage, StageCache,
    StageCacheStats, StageKind, StagePlan, DEFAULT_MEMO_CAP, MEMO_CAP_ENV,
};
