//! # QPD — application-specific superconducting quantum processor design
//!
//! A Rust implementation of *Towards Efficient Superconducting Quantum
//! Processor Architecture Design* (Li, Ding, Xie — ASPLOS 2020): an
//! automatic flow that profiles a quantum program and synthesizes a
//! simplified chip — qubit layout, bus selection, frequency allocation —
//! that beats general-purpose designs on the (performance, yield) plane.
//!
//! This crate is the workspace facade: it re-exports every subsystem so
//! applications can depend on one crate.
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`circuit`] | `qpd-circuit` | circuit IR, OpenQASM 2.0, decomposition |
//! | [`benchmarks`] | `qpd-benchmarks` | the paper's twelve workloads |
//! | [`profile`] | `qpd-profile` | coupling strength matrix / degree list |
//! | [`topology`] | `qpd-topology` | lattice, buses, IBM baselines |
//! | [`yield_sim`] | `qpd-yield` | collision model, Monte Carlo yield |
//! | [`mapping`] | `qpd-mapping` | SABRE routing (performance metric) |
//! | [`design`] | `qpd-core` | the three-subroutine design flow |
//! | [`explore`] | `qpd-explore` | multi-objective design-space search over the flow's knobs |
//! | [`eval`] | `qpd-eval` | the §5 experiment harness |
//! | [`serve`] | `qpd-serve` | resident design-service daemon over one shared warm stage graph |
//! | [`par`] | `qpd-par` | deterministic worker pool for the hot kernels |
//!
//! # The stage graph
//!
//! The design cascade is an explicit stage graph ([`design::stage`]):
//! placement → bus insertion → frequency allocation/assembly →
//! { routing, yield }. Each step is a plain struct holding its knobs,
//! with a `key` method deriving a content key only from its true
//! inputs, served through a bounded [`design::StageCache`].
//! [`design::StagePlan`] owns the first three tables and
//! [`design::DesignFlow`] is a thin facade over it (outputs are
//! bit-identical to running the subroutines in sequence with no
//! caching); [`explore::StageCaches`] owns a plan plus the routing and
//! yield tables, and the explorer rides that graph: a knob change
//! re-runs only the stages whose content keys it changes.
//! Because routing reads the coupling topology but never the
//! frequencies, a frequency-only move skips placement, bus insertion,
//! *and* routing entirely.
//!
//! # Serving
//!
//! The stage graph is `Arc`-shared and content-keyed, so it also runs
//! resident: [`serve`] wraps it in a TCP daemon (`qpd_serve` binary,
//! `serve_load` load generator) speaking newline-delimited JSON, with
//! every request multiplexed onto one shared warm
//! [`explore::StageCaches`]. The wire grammar,
//! budget fields, admission-control semantics, and shutdown/warm-start
//! story are documented on [`serve`]; responses are byte-reproducible
//! functions of request content.
//!
//! # Environment variables
//!
//! | variable | effect |
//! |---|---|
//! | `QPD_THREADS` | Worker count for the [`par`] pool (frequency allocation, yield simulation, the experiment runner). Defaults to `std::thread::available_parallelism()`; results are bit-identical for every value. [`par::with_threads`] is the in-process equivalent. |
//! | `QPD_MEMO_CAP` | Entry bound per stage cache ([`design::StageCache`]), evicted with a deterministic second-chance rule; `0` = unbounded. One policy ([`design::memo_cap`]) for every cache: unset or unparsable gives [`design::DEFAULT_MEMO_CAP`] (4096), for a bare [`design::DesignFlow`] and the explorer alike. The daemon sizes its shared caches with `--memo-cap` instead. Caching only changes *when* a stage runs, never its output. |
//! | `QPD_BENCH_SAMPLES` | Caps timed samples per `bench_snapshot` kernel (default 3; raise for real measurements). |
//! | `QPD_BENCH_JSON` | When set to a non-empty value other than `0`, `bench_snapshot` also prints one machine-readable JSON line per kernel. |
//! | `QPD_BENCH_QUICK` | Shrinks `bench_snapshot`'s trial counts for CI smoke runs. |
//!
//! # Quickstart
//!
//! ```
//! use qpd::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A program: 4-qubit GHZ preparation.
//! let mut program = Circuit::new(4);
//! program.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
//!
//! // 2. Profile it and design a chip.
//! let profile = CouplingProfile::of(&program);
//! let chip = DesignFlow::new().with_allocation_trials(200).design(&profile)?;
//!
//! // 3. Map the program and estimate fabrication yield.
//! let mapped = SabreRouter::new(&chip).route(&program)?;
//! let yield_rate = YieldSimulator::new().with_trials(1_000).estimate(&chip)?;
//! assert!(mapped.stats().total_gates >= program.gate_count());
//! assert!(yield_rate.rate() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use qpd_benchmarks as benchmarks;
pub use qpd_circuit as circuit;
pub use qpd_core as design;
pub use qpd_eval as eval;
pub use qpd_explore as explore;
pub use qpd_mapping as mapping;
pub use qpd_par as par;
pub use qpd_profile as profile;
pub use qpd_serve as serve;
pub use qpd_topology as topology;
pub use qpd_yield as yield_sim;

/// The commonly used types, one `use` away.
pub mod prelude {
    pub use qpd_circuit::{Circuit, Gate, Qubit};
    pub use qpd_core::{BusStrategy, DesignFlow, FrequencyAllocator, FrequencyStrategy};
    pub use qpd_explore::{ExploreConfig, ExploreSpace, Explorer};
    pub use qpd_mapping::SabreRouter;
    pub use qpd_profile::{CouplingProfile, PatternReport, PatternShape};
    pub use qpd_topology::{Architecture, BusMode, Coord, FrequencyPlan, Square};
    pub use qpd_yield::{CollisionChecker, YieldSimulator};
}
