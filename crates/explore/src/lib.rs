//! Design-space exploration over the paper's flow (paper §6, "Exploring
//! More Design Space").
//!
//! The paper's pipeline produces *one* architecture series per profile:
//! greedy bus selection, then center-out frequency search. Its own
//! evaluation shows the interesting story is the trade-off *space* —
//! yield against circuit performance against hardware cost. This crate
//! treats the whole [`qpd_core::DesignFlow`] as a point evaluator and
//! searches over its knobs:
//!
//! - bus-selection strategy and budget, plus seeded add/remove/swap
//!   perturbations of the square set (prohibited condition preserved);
//! - frequency strategy (optimized Algorithm 3 vs. the 5-frequency
//!   pattern);
//! - auxiliary-qubit count and placement variants.
//!
//! [`Explorer`] runs seeded walks fanned out on the [`qpd_par`] pool
//! and maintains a Pareto archive over four objectives (Monte Carlo
//! yield, post-mapping gate count, routed depth, and hardware cost =
//! buses plus auxiliary qubits). Candidate evaluation is the explicit
//! five-stage cascade of [`qpd_core::stage`]: placement and bus
//! insertion resolve from [`ExploreSpace`]'s precomputed layouts, and
//! frequency allocation + assembly, routing and yield run through the
//! tables of one [`cache::StageCaches`], which owns all five — every
//! stage content-keyed and bounded by [`qpd_core::memo_cap`]
//! (deterministic second-chance eviction), each serving a batch of
//! candidates as one [`qpd_core::StageCache::run_batch`]. A knob change recomputes only
//! the stages whose content keys it changes: a frequency-only move
//! leaves the topology alone, so placement, bus insertion, *and*
//! routing are served from cache, and a revisited candidate costs hash
//! lookups only.
//!
//! Since the v2 engine, acceptance is **archive-guided Pareto
//! dominance** by default ([`AcceptanceMode::Dominance`]): a walk moves
//! onto a candidate that dominates its position or that no round-start
//! front point weakly ε-dominates (the ε-grid lives on the normalized
//! objective vector; see [`qpd_core::epsilon_weakly_dominates_nd`]),
//! with the v1 scalarized temperature rule kept as the escape hatch for
//! dominated moves — and as a full engine mode
//! ([`AcceptanceMode::Scalarized`]) that reproduces the PR 3 engine
//! bit-for-bit. At every round barrier, adjacent walk pairs may
//! **recombine**, exchanging the bus-layout knob block against the
//! frequency/aux/placement block under an RNG keyed by `(seed, round,
//! walk_pair)` only; offspring that dominate their parent's position
//! (or spread the front, by crowding distance) replace it. With
//! [`ExploreConfig::screen_divisor`] > 1, proposals are first screened
//! at reduced Monte Carlo trials and only survivors are re-simulated at
//! full fidelity before archive insertion — the adaptive budget that
//! makes `qft_16`-scale profiles tractable (screening is the yield
//! stage at a reduced trial budget; the budget is part of the content
//! key). With [`ExploreConfig::archive_cap`] set, the archive is pruned
//! at every round barrier by ε-grid occupancy and crowding distance
//! (front points kept first), so arbitrarily long runs hold a bounded
//! archive without losing the front.
//!
//! Runs are **bit-identical for every `QPD_THREADS` value**, and
//! [`Checkpoint`] persists the state as hand-rolled JSON
//! (`EXPLORE_<run>.json`, schema [`SCHEMA`]) from which a killed run
//! resumes exactly; schema-v1 files from the PR 3 engine are migrated
//! on parse, keeping their scalarized-era semantics. Shardable runs
//! ([`ExploreConfig::shardable`]) can additionally split their walk set
//! across independent processes ([`Explorer::run_shard`]) whose
//! shard-tagged checkpoints [`merge`](mod@merge) back into the
//! single-process bytes exactly.
//!
//! ```
//! use qpd_circuit::Circuit;
//! use qpd_explore::{ExploreConfig, ExploreSpace, Explorer};
//!
//! // A small program with diagonal coupling demand.
//! let mut program = Circuit::new(6);
//! for _ in 0..3 {
//!     program.cx(0, 1).cx(1, 2).cx(3, 4).cx(4, 5).cx(0, 3).cx(1, 4).cx(2, 5);
//! }
//! program.cx(0, 4).cx(1, 3);
//!
//! let config = ExploreConfig { rounds: 1, ..ExploreConfig::quick() };
//! let space = ExploreSpace::new(program, config.max_aux);
//! let explorer = Explorer::new(space, config).unwrap();
//! let state = explorer.run().unwrap();
//! assert!(!state.front().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod checkpoint;
pub mod engine;
pub mod json;
pub mod merge;
pub mod sidecar;
pub mod space;
pub mod spec;

pub use cache::{circuit_key, topology_key, RouteStage, StageCaches, YieldStage};
pub use checkpoint::{
    write_atomic, Checkpoint, ShardMeta, StageHitRate, SCHEMA, SCHEMA_V1, SCHEMA_V3,
};
pub use engine::{
    pareto_indices, AcceptanceMode, ExploreConfig, ExploreError, ExploreState, Explorer,
    HardwareSweep, Provenance, ShardSpec, ShardState, WalkState,
};
pub use json::{Json, JsonError, MAX_PARSE_DEPTH};
pub use merge::{merge_checkpoints, merge_shard_states};
pub use qpd_core::DEFAULT_MEMO_CAP;
pub use qpd_yield::HardwareFamily;
pub use space::ExploreSpace;
pub use spec::{BusSpec, CandidateSpec, Evaluated, Objectives, PlacementVariant};
