//! Frequency-collision model and Monte Carlo yield simulation.
//!
//! Implements the yield model of the paper's §4.3.1, which in turn follows
//! IBM's published model (Brink et al., IEDM 2018; Rosenblatt et al., APS
//! 2019): fabrication shifts every designed qubit frequency by Gaussian
//! noise `N(0, sigma)`, and a chip is defective when any of the seven
//! frequency-collision conditions of Figure 3 holds between connected
//! qubits (conditions 1–4) or between two qubits sharing a neighbor
//! (conditions 5–7). Yield is estimated as the fraction of Monte Carlo
//! fabrication trials with zero collisions.
//!
//! ```
//! use qpd_topology::{ibm, BusMode};
//! use qpd_yield::YieldSimulator;
//!
//! let chip = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
//! let sim = YieldSimulator::new().with_trials(2_000).with_seed(7);
//! let estimate = sim.estimate(&chip).unwrap();
//! assert!(estimate.rate() > 0.0 && estimate.rate() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod collision;
pub mod hardware;
pub mod local;
pub mod model;
pub mod simulator;

pub use batch::BatchRequest;
pub use collision::{CollisionChecker, CollisionEvent, CollisionParams};
pub use hardware::{
    FixedFrequencyTransmon, HardwareFamily, HardwareModel, HeavyHex, TunableCoupler,
    HARDWARE_KEY_SALT,
};
pub use local::{AllocScratch, CompiledRegions, DecisionBuffers, LocalYieldEvaluator};
pub use model::FabricationModel;
pub use simulator::{Fnv64, YieldError, YieldEstimate, YieldSimulator};
