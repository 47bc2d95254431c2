//! The exploration engine: seeded annealing walks over the knob space,
//! fanned out on the `qpd-par` pool, with archive-guided Pareto
//! acceptance, cross-walk recombination at round barriers, and a
//! deterministic merge into a Pareto archive.
//!
//! # Acceptance (v2)
//!
//! [`AcceptanceMode::Dominance`] (the default since schema v2) accepts a
//! candidate when it Pareto-dominates the walk's current position or
//! when it is not weakly ε-dominated by the round-start front snapshot
//! (i.e. it would extend the front's ε-grid coverage). Dominated moves
//! fall back to the v1 temperature rule on the walk's scalarized energy,
//! so walks still escape local optima. [`AcceptanceMode::Scalarized`]
//! retains the PR 3 rule exactly — resumed v1 checkpoints keep their
//! original semantics.
//!
//! # Batched evaluation
//!
//! Rounds are **step-synchronized**: at every step each walk proposes
//! one candidate from its own RNG stream (walk order), and the whole
//! round's worth of proposals is submitted as *one batch* — each stage
//! cache serves it in one [`qpd_core::StageCache::run_batch`], the
//! distinct missed topologies route on the `qpd-par` pool, and the
//! distinct yield-cache misses run through
//! [`qpd_yield::YieldSimulator::evaluate_batch`], which groups
//! candidates sharing a fabrication-noise trial stream (same seed,
//! trial budget, effective sigma, and qubit count) and generates each
//! stream once for the group instead of once per candidate. Acceptance
//! then replays per walk in walk order. Because each walk's stream is
//! consumed by that walk alone, and evaluation is a pure function of
//! content, the batched round is bit-identical to running the walks'
//! steps sequentially — the batch changes *when* simulations run and
//! how wide the SIMD kernels operate, never what any walk observes.
//!
//! # Determinism
//!
//! The run is bit-identical for every `QPD_THREADS` value and for a
//! resumed run, by construction:
//!
//! - each walk's RNG stream is derived from `(seed, walk, round)` only —
//!   never from thread identity or timing — and a walk consumes its
//!   stream exclusively for move selection and acceptance;
//! - steps are synchronized barriers: a step's proposals are drawn
//!   before any of them evaluates, and acceptance decisions replay in
//!   walk order against values that are pure functions of content, so
//!   batching cannot reorder anything a walk can see;
//! - the dominance acceptor compares against a front snapshot taken at
//!   the round barrier, never against the live archive, so mid-round
//!   insertion order is invisible to every walk;
//! - recombination RNG streams derive from `(seed, round, walk_pair)`
//!   only, and offspring merge in pair order at the barrier;
//! - every candidate evaluation is a pure function of its content
//!   (profile, knobs, simulator settings), so the shared memo cache can
//!   only change *when* a value is computed, never *what* it is;
//! - per-round results are merged in walk order, and the archive dedupes
//!   by content key keeping the first occurrence.
//!
//! # Adaptive budgets
//!
//! With `screen_divisor > 1` each proposal is first simulated at
//! `yield_trials / screen_divisor` Monte Carlo trials. Clearly dominated
//! proposals (weakly ε-dominated by the front snapshot, and rejected by
//! the temperature fallback) stop there and are never archived; every
//! screening survivor is re-evaluated at full fidelity before it enters
//! the archive, so the archive and its front are always full-fidelity.
//! This is what makes `qft_16`-scale profiles tractable.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qpd_core::{
    crowding_distances, dominates_nd, epsilon_weakly_dominates_nd, AssembleJob, AssembleStage,
    DesignError, DesignFlow, FrequencyStrategy, StageCacheStats,
};
use qpd_mapping::{MappingError, RouteProgram};
use qpd_topology::Architecture;
use qpd_yield::{HardwareFamily, YieldError};

use crate::cache::{circuit_key, RouteStage, StageCaches, YieldStage};
use crate::space::ExploreSpace;
use crate::spec::{CandidateSpec, Evaluated, Objectives};

/// How a walk decides whether to move onto a proposed candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptanceMode {
    /// The PR 3 rule: scalarized energy under the walk's weights with a
    /// temperature-controlled uphill probability. Kept for resumed v1
    /// checkpoints and as the recorded baseline the quality regression
    /// tests compare against.
    Scalarized,
    /// Archive-guided Pareto acceptance: accept on dominance over the
    /// current position or ε-front extension, with the scalarized
    /// temperature rule as the fallback for dominated moves.
    Dominance,
}

impl AcceptanceMode {
    /// Checkpoint tag.
    pub fn as_str(self) -> &'static str {
        match self {
            AcceptanceMode::Scalarized => "scalarized",
            AcceptanceMode::Dominance => "dominance",
        }
    }

    /// Parses a checkpoint tag.
    pub fn from_str_tag(tag: &str) -> Option<Self> {
        match tag {
            "scalarized" => Some(AcceptanceMode::Scalarized),
            "dominance" => Some(AcceptanceMode::Dominance),
            _ => None,
        }
    }
}

/// Which hardware families a run searches over — the fifth knob's
/// scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardwareSweep {
    /// Every candidate designs for the one given family. Pinned to the
    /// default family this is bit-identical to the pre-hardware-layer
    /// engine: walks draw the exact same RNG streams (no extra draws)
    /// and every content key is unchanged.
    Pinned(HardwareFamily),
    /// Mixed mode: walk starting points spread across all families and
    /// a dedicated move kind can flip a candidate's family, so the
    /// archive grows a cross-family Pareto front.
    All,
}

impl Default for HardwareSweep {
    fn default() -> Self {
        HardwareSweep::Pinned(HardwareFamily::FixedFrequencyTransmon)
    }
}

impl HardwareSweep {
    /// Checkpoint tag: the pinned family's tag, or `"all"`.
    pub fn as_str(self) -> &'static str {
        match self {
            HardwareSweep::Pinned(family) => family.as_str(),
            HardwareSweep::All => "all",
        }
    }

    /// Parses a checkpoint / CLI tag (`fixed`, `tunable`, `heavyhex`,
    /// or `all`).
    pub fn parse(tag: &str) -> Option<Self> {
        if tag == "all" {
            return Some(HardwareSweep::All);
        }
        HardwareFamily::parse(tag).map(HardwareSweep::Pinned)
    }

    /// True for the default sweep (pinned to the default family) — the
    /// checkpoint writer omits the field in that case so default-config
    /// checkpoints stay byte-identical to the pre-hardware schema.
    pub fn is_default(self) -> bool {
        self == HardwareSweep::default()
    }
}

/// Budgets and knob bounds of one exploration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreConfig {
    /// Independent annealing walks (fanned out on the worker pool).
    pub walks: usize,
    /// Rounds of the search; a checkpoint can be cut after any round.
    pub rounds: usize,
    /// Mutation/evaluation steps each walk takes per round.
    pub steps_per_round: usize,
    /// Base seed; every stream in the run derives from it.
    pub seed: u64,
    /// Largest auxiliary-qubit count in scope.
    pub max_aux: usize,
    /// Monte Carlo trials inside frequency allocation.
    pub alloc_trials: usize,
    /// Monte Carlo trials per yield estimate.
    pub yield_trials: u64,
    /// Fabrication precision in GHz.
    pub sigma_ghz: f64,
    /// Initial annealing temperature (in units of scalarized energy).
    pub initial_temperature: f64,
    /// Multiplicative cooling factor per global step, in `(0, 1]`.
    pub cooling: f64,
    /// The acceptance rule walks apply.
    pub acceptance: AcceptanceMode,
    /// Whether walks exchange knob blocks at round barriers.
    pub recombine: bool,
    /// Finer-grained recombination exchange blocks: when set, each
    /// exchanging pair makes one extra draw deciding whether the
    /// frequency-strategy knob travels with the **bus** block instead
    /// of the placement/aux block, so frequency × layout combinations
    /// recombine independently. Off by default — the extra draw shifts
    /// every later draw in the pair's `(seed, round, pair)` stream, so
    /// the flag is opt-in to keep default-config trajectories (and
    /// their checkpoints) byte-identical to the coarse-block engine.
    pub fine_recombine: bool,
    /// Adaptive screening: proposals are first simulated at
    /// `yield_trials / screen_divisor` trials; `1` disables screening.
    pub screen_divisor: u64,
    /// ε-grid width of the dominance acceptor, applied to the
    /// normalized objective vector (every axis lives in `(0, 1]`).
    pub epsilon: f64,
    /// Hardware families in scope: pinned to one family (the default
    /// family reproduces the pre-hardware engine bit-for-bit) or `All`
    /// for a mixed-family search with the family as a mutable knob.
    pub hardware: HardwareSweep,
    /// Bound on the Pareto archive (`None` — or `Some(0)`, which the
    /// checkpoint writer normalizes to the same thing — keeps every
    /// full-fidelity point, the pre-pruning behavior). When set, the
    /// archive is pruned at
    /// every round barrier by ε-grid occupancy and crowding distance:
    /// front points are kept first, then points opening a new ε-cell,
    /// then the rest — evicting the most crowded (then newest) points
    /// first. Pruning happens at a deterministic point of the round, so
    /// runs stay bit-identical across `QPD_THREADS` and kill/resume.
    pub archive_cap: Option<usize>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            walks: 6,
            rounds: 4,
            steps_per_round: 6,
            seed: 0,
            max_aux: 2,
            alloc_trials: 400,
            yield_trials: 2_000,
            sigma_ghz: 0.030,
            initial_temperature: 0.08,
            cooling: 0.92,
            acceptance: AcceptanceMode::Dominance,
            recombine: true,
            fine_recombine: false,
            screen_divisor: 1,
            epsilon: 0.02,
            hardware: HardwareSweep::default(),
            archive_cap: None,
        }
    }
}

impl ExploreConfig {
    /// A tiny-budget configuration for tests and CI smoke runs.
    pub fn quick() -> Self {
        ExploreConfig {
            walks: 3,
            rounds: 2,
            steps_per_round: 3,
            max_aux: 1,
            alloc_trials: 80,
            yield_trials: 600,
            ..ExploreConfig::default()
        }
    }

    /// The adaptive-budget profile for large programs (`qft_16`-scale):
    /// quick budgets plus 4x screening, so clearly dominated proposals
    /// cost a quarter of a yield simulation.
    pub fn adaptive_quick() -> Self {
        ExploreConfig { screen_divisor: 4, ..ExploreConfig::quick() }
    }

    /// The PR 3 engine's configuration shape: scalarized acceptance, no
    /// recombination, no screening. Resumed v1 checkpoints migrate onto
    /// this so their semantics never change mid-run.
    pub fn v1_compat(self) -> Self {
        ExploreConfig {
            acceptance: AcceptanceMode::Scalarized,
            recombine: false,
            fine_recombine: false,
            screen_divisor: 1,
            archive_cap: None,
            ..self
        }
    }

    /// Whether this configuration can be **sharded**: split across
    /// independent processes that each run a subset of the walks and
    /// later merge bit-for-bit into the single-process result.
    ///
    /// Sharding is sound exactly when no walk ever observes another
    /// walk's work mid-run. Three knobs break that:
    ///
    /// - the **dominance acceptor** compares every proposal against a
    ///   cross-walk front snapshot taken at the round barrier;
    /// - **recombination** exchanges knob blocks between walk pairs;
    /// - **`archive_cap`** prunes against the global archive, so which
    ///   points survive a round depends on every walk's output.
    ///
    /// Scalarized acceptance with those three off is the PR 3
    /// independent-walk engine: each walk touches only its own
    /// `(seed, walk, round)` stream, its own weights, and its own
    /// current position, so any partition of the walk set runs
    /// unchanged. Screening (`screen_divisor`) is inert under
    /// scalarized acceptance and does not block sharding.
    ///
    /// # Errors
    ///
    /// Returns every blocking knob, comma-joined, for CLI messages.
    pub fn shardable(&self) -> Result<(), String> {
        let mut blockers: Vec<&str> = Vec::new();
        if self.acceptance != AcceptanceMode::Scalarized {
            blockers.push("acceptance must be `scalarized` (the dominance acceptor reads a cross-walk front snapshot)");
        }
        if self.recombine {
            blockers.push("`recombine` must be off (recombination exchanges knobs across walks)");
        }
        if self.archive_cap.unwrap_or(0) > 0 {
            blockers.push("`archive_cap` must be unset (pruning depends on the global archive)");
        }
        if blockers.is_empty() {
            Ok(())
        } else {
            Err(blockers.join("; "))
        }
    }
}

/// Which slice of a run one process owns: the walks `w ≡ index (mod
/// of)` of the global walk set, keeping their **global** walk indices —
/// so every `(seed, walk, round)` RNG stream, every weight vector, and
/// every starting spec is exactly what the single-process run draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `< of`.
    pub index: usize,
    /// The total shard count of the run.
    pub of: usize,
}

impl ShardSpec {
    /// Validates `index < of` (and `of >= 1`).
    ///
    /// # Errors
    ///
    /// Returns a CLI-ready message for an out-of-range pair.
    pub fn new(index: usize, of: usize) -> Result<Self, String> {
        if of == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= of {
            return Err(format!("shard index {index} out of range for {of} shard(s)"));
        }
        Ok(ShardSpec { index, of })
    }

    /// The label of this shard of run `run`: `<run>_shard<i>of<N>`. Shard
    /// checkpoints and cache sidecars are named after it, so a merge
    /// finds each shard's sidecar by computing the same label.
    pub fn label(self, run: &str) -> String {
        format!("{run}_shard{}of{}", self.index, self.of)
    }

    /// Parses the CLI form `i/N` (e.g. `0/4`).
    ///
    /// # Errors
    ///
    /// Returns a CLI-ready message for malformed or out-of-range input.
    pub fn parse(tag: &str) -> Result<Self, String> {
        let (index, of) = tag
            .split_once('/')
            .ok_or_else(|| format!("shard spec `{tag}` is not of the form i/N"))?;
        let index = index
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("shard index `{index}` is not a number"))?;
        let of = of
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("shard count `{of}` is not a number"))?;
        ShardSpec::new(index, of)
    }

    /// The global walk indices this shard owns, ascending: the walks
    /// `w ≡ index (mod of)` among `0..walks`. A shard of a run with
    /// fewer walks than shards can legitimately own none.
    pub fn walk_ids(self, walks: usize) -> Vec<usize> {
        (0..walks).filter(|w| w % self.of == self.index).collect()
    }
}

/// A whole run is the shard that owns every walk: the whole-run entry
/// points drive the shard bodies with this spec and drop the provenance.
const WHOLE_RUN: ShardSpec = ShardSpec { index: 0, of: 1 };

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

/// Where one archive entry came from: the insertion block (0 for the
/// initial evaluations, round `r`'s merge is block `r + 1`), the
/// **global** walk index that produced it, and the step within the
/// round. The derived lexicographic order `(block, walk, step)` is
/// exactly the single-process archive's insertion order — the initial
/// state pushes walk-major, and every round's merge loop iterates walks
/// outer, steps inner — which is what lets a merge re-create the
/// single-run archive bit-for-bit from any partition of its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Provenance {
    /// Insertion block: 0 = initial evaluations, block `r + 1` = the
    /// merge barrier of round `r`.
    pub block: u64,
    /// Global walk index that first evaluated the entry.
    pub walk: u64,
    /// Step within the round (0 in block 0).
    pub step: u64,
}

/// One shard's resumable state: the walks it owns (ascending global
/// index), plus per-entry [`Provenance`] parallel to
/// [`ExploreState::archive`] so a merge can interleave shard archives
/// in single-run insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Which slice of the run this is.
    pub spec: ShardSpec,
    /// The shard's walks and archive. `walks` holds only this shard's
    /// walks; `archive` holds only points this shard evaluated.
    pub state: ExploreState,
    /// `prov[i]` is where `state.archive[i]` came from.
    pub prov: Vec<Provenance>,
}

/// Error from the exploration engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExploreError {
    /// A candidate failed to materialize.
    Design(DesignError),
    /// Routing the benchmark onto a candidate failed.
    Mapping(MappingError),
    /// Yield simulation failed.
    Yield(YieldError),
    /// A checkpoint could not be parsed.
    Checkpoint(String),
    /// A shard run or checkpoint merge was asked for something its
    /// independence guarantees cannot deliver (non-shardable config,
    /// out-of-range shard spec, inconsistent merge inputs), or a run's
    /// state does not hold the walks it owns.
    Shard(String),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Design(e) => write!(f, "candidate design failed: {e}"),
            ExploreError::Mapping(e) => write!(f, "candidate routing failed: {e}"),
            ExploreError::Yield(e) => write!(f, "candidate yield simulation failed: {e}"),
            ExploreError::Checkpoint(m) => write!(f, "checkpoint invalid: {m}"),
            ExploreError::Shard(m) => write!(f, "shard invalid: {m}"),
        }
    }
}

impl Error for ExploreError {}

impl From<DesignError> for ExploreError {
    fn from(e: DesignError) -> Self {
        ExploreError::Design(e)
    }
}

impl From<MappingError> for ExploreError {
    fn from(e: MappingError) -> Self {
        ExploreError::Mapping(e)
    }
}

impl From<YieldError> for ExploreError {
    fn from(e: YieldError) -> Self {
        ExploreError::Yield(e)
    }
}

/// One walk's live position.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkState {
    /// The walk's current spec.
    pub spec: CandidateSpec,
    /// The current spec's objectives (for the acceptance rule).
    pub objectives: Objectives,
}

/// The resumable state of a run: how far it got, where each walk
/// stands, and everything evaluated so far.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreState {
    /// Completed rounds.
    pub rounds_done: usize,
    /// Per-walk positions, walk order.
    pub walks: Vec<WalkState>,
    /// All distinct full-fidelity evaluated points, in first-evaluation
    /// order. (Screened low-trial evaluations never enter the archive.)
    pub archive: Vec<Evaluated>,
}

impl ExploreState {
    /// Indices into [`Self::archive`] of the non-dominated points.
    pub fn front_indices(&self) -> Vec<usize> {
        pareto_indices(&self.archive)
    }

    /// The non-dominated points themselves, archive order.
    pub fn front(&self) -> Vec<&Evaluated> {
        self.front_indices().into_iter().map(|i| &self.archive[i]).collect()
    }
}

/// Indices of the Pareto-optimal entries of an archive (yield up, gate
/// count / depth / hardware cost down).
pub fn pareto_indices(archive: &[Evaluated]) -> Vec<usize> {
    let points: Vec<Vec<f64>> = archive.iter().map(|e| e.objectives.as_maximization()).collect();
    qpd_core::pareto_front_nd(&points)
}

/// The engine: a space, a budget, and the shared per-stage caches.
///
/// Evaluation runs the explicit stage cascade: placement and bus
/// resolution from the space's precomputed layouts, then frequency
/// allocation + assembly, routing and yield through the tables of one
/// shared [`StageCaches`]. Each cached stage serves a whole batch
/// of candidates through [`qpd_core::StageCache::run_batch`].
/// Every stage is content-keyed, so a knob change recomputes only the
/// stages whose keys it changes — a freq-only move leaves the topology,
/// and so placement, bus insertion, and routing, served from cache.
///
/// A whole run is the shard that owns every walk: [`Self::initial_state`]
/// and [`Self::advance_round`] run the same initial-evaluation and round
/// bodies as [`Self::initial_shard_state`] and
/// [`Self::advance_shard_round`], over `0..walks` instead of
/// [`ShardSpec::walk_ids`]. That is why N shards merged equal the
/// single run.
#[derive(Debug)]
pub struct Explorer {
    space: ExploreSpace,
    config: ExploreConfig,
    /// The assembly stage under the config's allocation knobs, once per
    /// frequency strategy × hardware family; each candidate picks its
    /// own ([`Self::assemble_stage`]).
    assemble: Vec<AssembleStage>,
    /// Every stage table. `Arc`-shared so a resident server can hand
    /// every request's engine the same warm caches;
    /// sharing is observation-free — stages are pure functions of their
    /// content keys, so shared tables change *when* work happens, never
    /// what any engine computes.
    caches: Arc<StageCaches>,
    /// Content fingerprint of the routed program, folded into routing
    /// keys.
    circuit_key: u64,
    /// The program prepared for routing, built on the first route miss:
    /// an engine whose routes all hit shared caches never builds it.
    program: OnceLock<RouteProgram>,
    /// Gate count of the zero-bus identity design — the normalization
    /// scale for the performance and depth axes (and the scalarization
    /// fallback).
    baseline_gates: u64,
    baseline_depth: u64,
}

impl Explorer {
    /// Builds an engine over fresh stage tables (bounded by
    /// [`qpd_core::memo_cap`]), routing the zero-bus baseline once to
    /// anchor the objective normalization.
    ///
    /// # Errors
    ///
    /// Fails only if the baseline design cannot be built or routed.
    pub fn new(space: ExploreSpace, config: ExploreConfig) -> Result<Self, ExploreError> {
        Self::with_shared(space, config, Arc::new(StageCaches::new()))
    }

    /// Like [`Explorer::new`], but evaluating through caller-supplied
    /// stage caches — the resident-server path, where every request's
    /// engine shares one warm set of tables.
    ///
    /// Correctness does not depend on what the shared tables already
    /// hold: every stage is a pure function of its content key (the
    /// allocation trials, seed, sigma, and hardware family are all part
    /// of the keys), so a warm entry is exactly the value this engine
    /// would have computed. Callers should still share only across
    /// engines with equal allocation settings if they want the
    /// frequency/assembly table to actually hit.
    ///
    /// # Errors
    ///
    /// Fails only if the baseline design cannot be built or routed.
    pub fn with_shared(
        space: ExploreSpace,
        config: ExploreConfig,
        caches: Arc<StageCaches>,
    ) -> Result<Self, ExploreError> {
        let base = DesignFlow::new()
            .with_allocation_trials(config.alloc_trials)
            .with_allocation_seed(config.seed)
            .with_sigma_ghz(config.sigma_ghz);
        let assemble = [FrequencyStrategy::Optimized, FrequencyStrategy::FiveFrequency]
            .into_iter()
            .flat_map(|frequency| {
                HardwareFamily::ALL.map(|hardware| AssembleStage {
                    frequency,
                    hardware,
                    ..base.assemble_stage().clone()
                })
            })
            .collect();
        let program_key = circuit_key(space.circuit());
        let mut explorer = Explorer {
            space,
            config,
            assemble,
            caches,
            circuit_key: program_key,
            program: OnceLock::new(),
            baseline_gates: 1,
            baseline_depth: 1,
        };
        // The normalization anchor is always the default family's
        // zero-bus design: routing never reads frequencies, so the
        // scale is family-independent, and keeping it fixed means a
        // pinned-family run and a mixed run normalize identically.
        let baseline = CandidateSpec {
            bus: crate::spec::BusSpec::Weighted { count: 0 },
            frequency: FrequencyStrategy::FiveFrequency,
            aux_qubits: 0,
            placement: crate::spec::PlacementVariant::Identity,
            hardware: HardwareFamily::FixedFrequencyTransmon,
        };
        let chips = explorer.assemble(std::slice::from_ref(&baseline))?;
        let (gates, depth) = explorer.route(&chips)?[0];
        explorer.baseline_gates = gates;
        explorer.baseline_depth = depth;
        Ok(explorer)
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExploreConfig {
        &self.config
    }

    /// The space being searched.
    pub fn space(&self) -> &ExploreSpace {
        &self.space
    }

    /// The shared stage caches, with their hit/miss counters for
    /// reporting.
    pub fn caches(&self) -> &StageCaches {
        &self.caches
    }

    /// Hit/miss counters of every cached stage of the cascade, pipeline
    /// order ([`StageCaches::stats`]).
    pub fn stage_stats(&self) -> Vec<StageCacheStats> {
        self.caches.stats()
    }

    /// The assembly stage of `spec`'s frequency strategy and hardware
    /// family.
    fn assemble_stage(&self, spec: &CandidateSpec) -> &AssembleStage {
        self.assemble
            .iter()
            .find(|s| s.frequency == spec.frequency && s.hardware == spec.hardware)
            .expect("one stage per frequency strategy and hardware family")
    }

    /// Resolves every spec's layout and assembles the chips as one
    /// [`qpd_core::StagePlan::assemble_batch`]: the assemble-stage misses
    /// run as one seed-major allocation batch over one set of
    /// fabrication-noise planes. Every frequency strategy and
    /// hardware family draws from the one stage plan; both are part of
    /// the assembly content key, so they never collide in it.
    fn assemble(&self, specs: &[CandidateSpec]) -> Result<Vec<Architecture>, ExploreError> {
        let layouts: Vec<_> = specs.iter().map(|spec| self.space.resolve(spec)).collect();
        let jobs: Vec<AssembleJob<'_>> = specs
            .iter()
            .zip(&layouts)
            .map(|(spec, (coords, squares))| AssembleJob {
                stage: self.assemble_stage(spec),
                coords,
                squares,
            })
            .collect();
        Ok(self.caches.plan.assemble_batch(&jobs)?)
    }

    /// Routes every chip through the route cache: only the distinct
    /// missed topologies fan out on the worker pool, so an all-hit batch
    /// never touches it, and two chips of one topology route once. Every
    /// miss routes the one prepared program.
    fn route(&self, archs: &[Architecture]) -> Result<Vec<(u64, u64)>, ExploreError> {
        let stage = RouteStage { circuit_key: self.circuit_key };
        let keys: Vec<u64> = archs.iter().map(|arch| stage.key(arch)).collect();
        Ok(self.caches.routes.run_batch(&keys, |missed| {
            let program = self.program.get_or_init(|| RouteProgram::new(self.space.circuit()));
            qpd_par::par_map(missed, |&i| stage.run(&archs[i], program)).into_iter().collect()
        })?)
    }

    /// The number of screening trials, `>= 1`.
    fn screen_trials(&self) -> u64 {
        (self.config.yield_trials / self.config.screen_divisor.max(1)).max(1)
    }

    /// Evaluates one candidate at full fidelity: [`Self::evaluate_all`]
    /// on a batch of one, memoized end to end (routing by topology,
    /// yield by full content), so a repeated candidate costs a few hash
    /// lookups. Results and per-stage cache accounting equal those of
    /// `evaluate_all(&[spec])`.
    ///
    /// # Errors
    ///
    /// Propagates design, routing, and yield failures.
    pub fn evaluate(&self, spec: &CandidateSpec) -> Result<Evaluated, ExploreError> {
        let mut out =
            self.evaluate_batch_at(std::slice::from_ref(spec), self.config.yield_trials)?;
        Ok(out.pop().expect("one spec in, one evaluation out"))
    }

    /// Evaluates many candidates at full fidelity as **one batch** — the
    /// path every engine round takes (`evaluate_batch_at` at the
    /// configured yield-trial budget). Results come back in input order;
    /// each equals what the same spec evaluates to alone, because every
    /// stage is a pure function of its content key and the batch only
    /// shares work: assemble-stage misses run as one seed-major
    /// allocation batch, and yield-cache misses group into SoA
    /// simulation runs.
    ///
    /// # Errors
    ///
    /// Propagates the first (in input order) design, routing, or yield
    /// failure.
    pub fn evaluate_all(&self, specs: &[CandidateSpec]) -> Result<Vec<Evaluated>, ExploreError> {
        self.evaluate_batch_at(specs, self.config.yield_trials)
    }

    /// Evaluates candidates at an explicit yield-trial budget (the
    /// screening path passes a reduced one); the simulator settings are
    /// part of the yield content key, so screened and full-fidelity
    /// results never collide in the memo table.
    ///
    /// Each stage serves the whole batch through its cache
    /// ([`qpd_core::StageCache::run_batch`]), one hit or miss per
    /// candidate: chips from [`Self::assemble`], routes from
    /// [`Self::route`], and the distinct yield misses in one
    /// [`qpd_yield::YieldSimulator::evaluate_batch`], which groups jobs by
    /// shared trial stream and runs the collision kernels SoA across the
    /// batch.
    ///
    /// # Errors
    ///
    /// Propagates the first (in input order) design, routing, or yield
    /// failure.
    fn evaluate_batch_at(
        &self,
        specs: &[CandidateSpec],
        trials: u64,
    ) -> Result<Vec<Evaluated>, ExploreError> {
        let archs = self.assemble(specs)?;
        let routed = self.route(&archs)?;
        let (seed, sigma_ghz) = (self.config.seed, self.config.sigma_ghz);
        let stages: Vec<YieldStage> = specs
            .iter()
            .map(|spec| YieldStage { trials, seed, sigma_ghz, hardware: spec.hardware })
            .collect();
        let keys: Vec<u64> =
            stages.iter().zip(&archs).map(|(stage, arch)| stage.key(arch)).collect();
        let yields = self.caches.yield_batch(&keys, &stages, &archs)?;
        let out = specs.iter().zip(&archs).enumerate().map(|(i, (spec, arch))| {
            let aux_built = spec.aux_qubits.min(self.space.max_aux()) as u64;
            let ((total_gates, routed_depth), (yield_successes, yield_trials)) =
                (routed[i], yields[i]);
            Evaluated {
                spec: spec.clone(),
                arch_name: arch.name().to_string(),
                key: keys[i],
                objectives: Objectives {
                    yield_successes,
                    yield_trials,
                    total_gates,
                    routed_depth,
                    hardware_cost: arch.four_qubit_buses().len() as u64 + aux_built,
                },
            }
        });
        Ok(out.collect())
    }

    /// The objectives as a normalized larger-is-better vector with every
    /// axis in `(0, 1]`: yield rate, baseline-relative reciprocal gate
    /// count and depth, and reciprocal hardware cost. The dominance
    /// acceptor's ε-grid lives on this vector so one ε is meaningful on
    /// every axis.
    fn normalized(&self, o: &Objectives) -> [f64; 4] {
        [
            o.yield_rate(),
            self.baseline_gates as f64 / o.total_gates as f64,
            self.baseline_depth as f64 / o.routed_depth as f64,
            1.0 / (1.0 + o.hardware_cost as f64),
        ]
    }

    /// The walk's scalarization weights: a fixed pure function of the
    /// walk index, spreading the walks across the objective trade-offs.
    fn walk_weights(&self, walk: usize) -> [f64; 4] {
        let mut w = [0.0; 4];
        for (i, slot) in w.iter_mut().enumerate() {
            let x = splitmix(self.config.seed ^ ((walk as u64) << 8) ^ i as u64);
            *slot = 0.25 + 0.75 * (x >> 11) as f64 / (1u64 << 53) as f64;
        }
        w
    }

    fn energy(&self, o: &Objectives, weights: &[f64; 4]) -> f64 {
        let n = self.normalized(o);
        -(weights[0] * n[0] + weights[1] * n[1] + weights[2] * n[2] + weights[3] * n[3])
    }

    fn temperature(&self, round: usize, step: usize) -> f64 {
        let global_step = (round * self.config.steps_per_round + step) as i32;
        self.config.initial_temperature * self.config.cooling.powi(global_step)
    }

    /// The family a walk starts on: the pinned family, or — in mixed
    /// mode — the families round-robined across walks so every family
    /// is represented from the first evaluation (walk 0 stays on the
    /// default family, keeping `eff-full` the paper's design).
    fn initial_family(&self, walk: usize) -> HardwareFamily {
        match self.config.hardware {
            HardwareSweep::Pinned(family) => family,
            HardwareSweep::All => HardwareFamily::ALL[walk % HardwareFamily::ALL.len()],
        }
    }

    /// One proposal move. Pinned to a family this is exactly the space
    /// mutation (identical RNG stream to the pre-hardware engine); in
    /// mixed mode one extra move kind — drawn *before* the space
    /// mutation so the gate is a pure function of the walk stream —
    /// cycles the candidate's hardware family instead.
    fn propose(&self, spec: &CandidateSpec, rng: &mut ChaCha8Rng) -> CandidateSpec {
        if let HardwareSweep::All = self.config.hardware {
            // Six space move kinds plus one family move: weight the
            // family flip as a seventh equally likely kind.
            if rng.gen_range(0..7u32) == 6 {
                let all = HardwareFamily::ALL;
                let at = all.iter().position(|&f| f == spec.hardware).unwrap_or(0);
                return CandidateSpec { hardware: all[(at + 1) % all.len()], ..spec.clone() };
            }
        }
        self.space.mutate(spec, rng)
    }

    /// The walk's starting point. Walk 0 always starts at the paper's
    /// `eff-full` configuration, so that design is an evaluated point of
    /// every run; the rest spread over bus budgets, strategies, layout
    /// variants, and (in mixed mode) hardware families.
    fn initial_spec(&self, walk: usize) -> CandidateSpec {
        use crate::spec::{BusSpec, PlacementVariant};
        let full = self.space.full_weighted_len();
        if walk == 0 {
            return CandidateSpec {
                hardware: self.initial_family(walk),
                ..CandidateSpec::eff_full(full)
            };
        }
        let bus = if walk % 3 == 2 {
            BusSpec::Random {
                seed: self.config.seed ^ walk as u64,
                count: 1 + (walk % full.max(1)),
            }
        } else {
            BusSpec::Weighted { count: walk * full / self.config.walks.max(1) }
        };
        CandidateSpec {
            bus,
            frequency: if walk.is_multiple_of(2) {
                FrequencyStrategy::Optimized
            } else {
                FrequencyStrategy::FiveFrequency
            },
            aux_qubits: walk % (self.config.max_aux + 1),
            placement: if walk % 4 == 3 {
                PlacementVariant::Transposed
            } else {
                PlacementVariant::Identity
            },
            hardware: self.initial_family(walk),
        }
    }

    fn walk_rng(&self, walk: usize, round: usize) -> ChaCha8Rng {
        let a = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(walk as u64 + 1);
        let b = 0xd134_2543_de82_ef95u64.wrapping_mul(round as u64 + 1);
        ChaCha8Rng::seed_from_u64(self.config.seed ^ a ^ b)
    }

    /// Recombination stream: a pure function of `(seed, round, pair)` —
    /// never of thread identity, walk content, or timing — so any
    /// kill/resume and any `QPD_THREADS` reproduce the same exchanges.
    fn recombine_rng(&self, round: usize, pair: usize) -> ChaCha8Rng {
        let a = 0xa076_1d64_78bd_642fu64.wrapping_mul(round as u64 + 1);
        let b = 0xe703_7ed1_a0b4_28dbu64.wrapping_mul(pair as u64 + 1);
        ChaCha8Rng::seed_from_u64(splitmix(self.config.seed ^ a ^ b))
    }

    /// Evaluates every walk's starting spec; round count 0.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation failure, in walk order.
    pub fn initial_state(&self) -> Result<ExploreState, ExploreError> {
        Ok(self.initial_walks(WHOLE_RUN)?.0)
    }

    /// Evaluates the starting specs of the walks `owner` owns, in
    /// ascending global walk order, returning the state and the
    /// [`Provenance`] of every entry it archived (all block 0).
    fn initial_walks(
        &self,
        owner: ShardSpec,
    ) -> Result<(ExploreState, Vec<Provenance>), ExploreError> {
        let ids = owner.walk_ids(self.config.walks);
        let specs: Vec<CandidateSpec> = ids.iter().map(|&w| self.initial_spec(w)).collect();
        let evals = self.evaluate_batch_at(&specs, self.config.yield_trials)?;
        let mut state = ExploreState {
            rounds_done: 0,
            walks: Vec::with_capacity(ids.len()),
            archive: Vec::new(),
        };
        let mut prov = Vec::new();
        let mut seen = HashMap::new();
        for ((&walk, spec), eval) in ids.iter().zip(specs).zip(evals) {
            state.walks.push(WalkState { spec, objectives: eval.objectives });
            if push_dedup(&mut state.archive, &mut seen, eval) {
                prov.push(Provenance { block: 0, walk: walk as u64, step: 0 });
            }
        }
        Ok((state, prov))
    }

    /// The normalized vectors of the archive's current front — the
    /// snapshot the dominance acceptor compares against for one round.
    fn front_snapshot(&self, state: &ExploreState) -> Vec<[f64; 4]> {
        state
            .front_indices()
            .into_iter()
            .map(|i| self.normalized(&state.archive[i].objectives))
            .collect()
    }

    /// Runs one round: `steps_per_round` synchronized steps in which
    /// every walk proposes from its own `(seed, walk, round)` stream,
    /// the step's proposals evaluate as one batch, and acceptance
    /// replays per walk in walk order. Results merge in walk order,
    /// then (when enabled) adjacent walk pairs recombine at the
    /// barrier. Bit-identical to running each walk's round serially:
    /// no walk's RNG stream or observed values depend on the batch.
    ///
    /// # Errors
    ///
    /// Rejects a state that does not hold exactly `config.walks` walks;
    /// propagates the first evaluation failure of the earliest failing
    /// step, in walk order. On any failure `state` is left unmodified.
    pub fn advance_round(&self, state: &mut ExploreState) -> Result<(), ExploreError> {
        self.round(state, WHOLE_RUN).map(drop)
    }

    /// The one round body of whole and shard runs, over the walks
    /// `owner` owns (`state.walks[i]` is the `i`-th of them). Returns
    /// the [`Provenance`] of every entry the walks' steps archive, each
    /// recorded at the step that produced it. Recombination and
    /// pruning, the cross-walk barrier work, follow the config; they
    /// are never on in a shard ([`ExploreConfig::shardable`]), and a
    /// whole run drops the provenance.
    fn round(
        &self,
        state: &mut ExploreState,
        owner: ShardSpec,
    ) -> Result<Vec<Provenance>, ExploreError> {
        let ids = owner.walk_ids(self.config.walks);
        if ids.len() != state.walks.len() {
            return Err(ExploreError::Shard(format!(
                "shard {owner} of a {}-walk run must hold {} walk(s), found {}",
                self.config.walks,
                ids.len(),
                state.walks.len()
            )));
        }
        let round = state.rounds_done;
        let dominance = self.config.acceptance == AcceptanceMode::Dominance;
        let front = if dominance { self.front_snapshot(state) } else { Vec::new() };
        let mut rngs: Vec<ChaCha8Rng> = ids.iter().map(|&w| self.walk_rng(w, round)).collect();
        let weights: Vec<[f64; 4]> = ids.iter().map(|&w| self.walk_weights(w)).collect();
        let mut currents: Vec<WalkState> = state.walks.clone();
        let mut round_evals: Vec<Vec<(usize, Evaluated)>> = vec![Vec::new(); ids.len()];
        for step in 0..self.config.steps_per_round {
            if dominance {
                self.step_dominance(
                    round,
                    step,
                    &front,
                    &mut rngs,
                    &weights,
                    &mut currents,
                    &mut round_evals,
                )?;
            } else {
                self.step_scalarized(
                    round,
                    step,
                    &mut rngs,
                    &weights,
                    &mut currents,
                    &mut round_evals,
                )?;
            }
        }
        // The merge, recombination and pruning build the next state on
        // a local, so a failing recombination leaves `state` untouched.
        let mut next = ExploreState {
            rounds_done: round + 1,
            walks: currents,
            archive: state.archive.clone(),
        };
        let mut seen: HashMap<u64, usize> =
            next.archive.iter().enumerate().map(|(i, e)| (e.key, i)).collect();
        let mut prov = Vec::new();
        for (local, evals) in round_evals.into_iter().enumerate() {
            for (step, eval) in evals {
                if push_dedup(&mut next.archive, &mut seen, eval) {
                    prov.push(Provenance {
                        block: round as u64 + 1,
                        walk: ids[local] as u64,
                        step: step as u64,
                    });
                }
            }
        }
        if self.config.recombine && next.walks.len() >= 2 {
            self.recombine_round(&mut next, round, &mut seen)?;
        }
        self.prune_archive(&mut next);
        *state = next;
        Ok(prov)
    }

    /// Bounds the archive to [`ExploreConfig::archive_cap`] at the round
    /// barrier: keep-priority is front membership first, then ε-grid
    /// novelty (the first point of each ε-cell of the normalized
    /// objective space, first-evaluation order), with crowding distance
    /// breaking ties inside each class — the most crowded point is
    /// evicted first, and among equals the newest goes. Survivors keep
    /// their first-evaluation order, so checkpoint bytes stay a pure
    /// function of the search trajectory (thread count and kill/resume
    /// invariant).
    ///
    /// An evicted point is not blacklisted: if a walk re-proposes it,
    /// the stage caches re-serve its evaluation and it re-enters the
    /// archive — pruning bounds memory, it does not narrow the space.
    fn prune_archive(&self, state: &mut ExploreState) {
        // `Some(0)` is "no pruning", like `None`: the checkpoint writer
        // omits both, so resume behavior always matches the live run.
        let Some(cap) = self.config.archive_cap.filter(|&cap| cap > 0) else {
            return;
        };
        self.prune_archive_to(state, cap);
    }

    /// Bounds `state`'s archive to `cap` entries by the archive-cap
    /// rule, regardless of [`ExploreConfig::archive_cap`] — the same
    /// keep-priority (front > ε-cell novelty > rest, crowding distance
    /// then recency breaking ties; see the round-barrier pruner) applied
    /// at an explicit cap. This is the re-prune step of a checkpoint
    /// **merge**: the union of shard archives can exceed any bound a
    /// capped run would have maintained, and because the keep decision
    /// is a pure function of the archive contents (via
    /// [`qpd_core::epsilon_cell`] and [`crowding_distances`]), pruning
    /// the merged archive is deterministic and independent of merge
    /// input order. A no-op when the archive already fits.
    pub fn prune_archive_to(&self, state: &mut ExploreState, cap: usize) {
        if state.archive.len() <= cap {
            return;
        }
        let points: Vec<Vec<f64>> =
            state.archive.iter().map(|e| self.normalized(&e.objectives).to_vec()).collect();
        let front: std::collections::HashSet<usize> = state.front_indices().into_iter().collect();
        let eps = self.config.epsilon;
        let mut seen_cells: std::collections::HashSet<Vec<i64>> = std::collections::HashSet::new();
        let novel: Vec<bool> = points
            .iter()
            .map(|p| {
                // ε = 0 degenerates to every point being its own cell.
                eps <= 0.0 || seen_cells.insert(qpd_core::epsilon_cell(p, eps))
            })
            .collect();
        let crowd = crowding_distances(&points);
        let class = |i: usize| -> u8 {
            if front.contains(&i) {
                2
            } else if novel[i] {
                1
            } else {
                0
            }
        };
        // Lowest keep-priority first: class ascending, crowding distance
        // ascending (most crowded = smallest distance evicted first),
        // newest (largest index) first on exact ties.
        let mut order: Vec<usize> = (0..state.archive.len()).collect();
        order.sort_by(|&a, &b| {
            class(a).cmp(&class(b)).then(crowd[a].total_cmp(&crowd[b])).then(b.cmp(&a))
        });
        let evicted: std::collections::HashSet<usize> =
            order.into_iter().take(state.archive.len() - cap).collect();
        let mut index = 0;
        state.archive.retain(|_| {
            let keep = !evicted.contains(&index);
            index += 1;
            keep
        });
    }

    /// One synchronized step under the PR 3 acceptance rule,
    /// bit-for-bit: every walk proposes (walk order), the proposals
    /// evaluate as one full-fidelity batch, and the scalarized
    /// temperature rule replays per walk. Each walk's RNG sees exactly
    /// the draws the sequential rule made: propose, then one uphill
    /// draw when `delta > 0`.
    #[allow(clippy::too_many_arguments)]
    fn step_scalarized(
        &self,
        round: usize,
        step: usize,
        rngs: &mut [ChaCha8Rng],
        weights: &[[f64; 4]],
        currents: &mut [WalkState],
        round_evals: &mut [Vec<(usize, Evaluated)>],
    ) -> Result<(), ExploreError> {
        let proposals: Vec<CandidateSpec> = currents
            .iter()
            .zip(rngs.iter_mut())
            .map(|(current, rng)| self.propose(&current.spec, rng))
            .collect();
        let evals = self.evaluate_batch_at(&proposals, self.config.yield_trials)?;
        for (walk, eval) in evals.into_iter().enumerate() {
            let delta = self.energy(&eval.objectives, &weights[walk])
                - self.energy(&currents[walk].objectives, &weights[walk]);
            let accept = if delta <= 0.0 {
                true
            } else {
                let p = (-delta / self.temperature(round, step)).exp();
                rngs[walk].gen::<f64>() < p
            };
            if accept {
                currents[walk] = WalkState { spec: eval.spec.clone(), objectives: eval.objectives };
            }
            round_evals[walk].push((step, eval));
        }
        Ok(())
    }

    /// One synchronized step under the v2 acceptance rule. Every walk's
    /// proposal is screened in one batch (at reduced trials when
    /// `screen_divisor > 1`), then per walk, in walk order:
    ///
    /// - **improve**: it dominates the walk's position — accept;
    /// - **extend**: no front-snapshot point weakly ε-dominates it — it
    ///   covers a new ε-cell of the front — accept;
    /// - otherwise a dominated move: accept with the temperature rule on
    ///   scalarized energy (the annealing escape hatch).
    ///
    /// The step's surviving proposals are re-evaluated at full fidelity
    /// in a second batch before they enter the archive; a walk only
    /// moves onto the full-fidelity point if the re-check still passes
    /// (annealing escapes move unconditionally), but a survivor whose
    /// re-check fails has been paid for and stays archived. Proposals
    /// rejected at the screening stage cost the screening simulation
    /// only and are never archived when screening is on.
    ///
    /// RNG parity with the sequential rule: each walk draws for its
    /// proposal, then one uphill draw iff its screened candidate
    /// neither improves nor extends — both pure functions of the walk's
    /// own stream and content, so batching adds or removes no draw.
    #[allow(clippy::too_many_arguments)]
    fn step_dominance(
        &self,
        round: usize,
        step: usize,
        front: &[[f64; 4]],
        rngs: &mut [ChaCha8Rng],
        weights: &[[f64; 4]],
        currents: &mut [WalkState],
        round_evals: &mut [Vec<(usize, Evaluated)>],
    ) -> Result<(), ExploreError> {
        let screening = self.config.screen_divisor > 1;
        let eps = self.config.epsilon;
        let proposals: Vec<CandidateSpec> = currents
            .iter()
            .zip(rngs.iter_mut())
            .map(|(current, rng)| self.propose(&current.spec, rng))
            .collect();
        let screen_trials = if screening { self.screen_trials() } else { self.config.yield_trials };
        let screened = self.evaluate_batch_at(&proposals, screen_trials)?;
        // Decision pass, walk order: who survives to full fidelity, and
        // whether annealing (which moves unconditionally) let them in.
        let mut survivors: Vec<(usize, bool)> = Vec::with_capacity(proposals.len());
        for (walk, candidate) in screened.iter().enumerate() {
            let cur_n = self.normalized(&currents[walk].objectives);
            let cand_n = self.normalized(&candidate.objectives);
            let improves = dominates_nd(&cand_n, &cur_n);
            let extends = !front.iter().any(|f| epsilon_weakly_dominates_nd(f, &cand_n, eps));
            let mut annealed = false;
            if !(improves || extends) {
                // A dominated move: the v1 temperature rule decides.
                let delta = self.energy(&candidate.objectives, &weights[walk])
                    - self.energy(&currents[walk].objectives, &weights[walk]);
                annealed = delta <= 0.0 || {
                    let p = (-delta / self.temperature(round, step)).exp();
                    rngs[walk].gen::<f64>() < p
                };
                if !annealed {
                    // Clearly dominated: when screening, the full-trial
                    // simulation never runs and nothing is archived.
                    if !screening {
                        round_evals[walk].push((step, candidate.clone()));
                    }
                    continue;
                }
            }
            survivors.push((walk, annealed));
        }
        // Full-fidelity re-check batch before archive insertion.
        let fulls: Vec<Evaluated> = if screening {
            let specs: Vec<CandidateSpec> =
                survivors.iter().map(|&(walk, _)| proposals[walk].clone()).collect();
            self.evaluate_batch_at(&specs, self.config.yield_trials)?
        } else {
            survivors.iter().map(|&(walk, _)| screened[walk].clone()).collect()
        };
        for (&(walk, annealed), full) in survivors.iter().zip(fulls) {
            let cur_n = self.normalized(&currents[walk].objectives);
            let full_n = self.normalized(&full.objectives);
            let still_good = dominates_nd(&full_n, &cur_n)
                || !front.iter().any(|f| epsilon_weakly_dominates_nd(f, &full_n, eps));
            if annealed || still_good {
                currents[walk] = WalkState { spec: full.spec.clone(), objectives: full.objectives };
            }
            round_evals[walk].push((step, full));
        }
        Ok(())
    }

    /// Cross-walk recombination at the round barrier: adjacent walk
    /// pairs `(2p, 2p+1)` exchange knob blocks — the bus layout block
    /// against the frequency/aux/placement block — producing two
    /// offspring per exchanging pair, evaluated together as one batch.
    /// Offspring are archived and replace their parent's position when
    /// they dominate it (or, if mutually non-dominated, when they sit
    /// in a less crowded region of the front).
    ///
    /// In mixed-family sweeps ([`HardwareSweep::All`]) the hardware
    /// knob is its **own exchange block**: one extra draw per
    /// exchanging pair decides whether offspring inherit the family
    /// from the bus-block parent instead of the frequency-block parent,
    /// so family × layout combinations recombine independently of the
    /// frequency knobs. Pinned sweeps make no such draw (both parents
    /// share the family anyway), so their exchange streams — and every
    /// pre-mixed-mode trajectory — are preserved exactly.
    ///
    /// With [`ExploreConfig::fine_recombine`] the frequency-strategy
    /// knob becomes its own exchange block too: one further draw per
    /// exchanging pair decides whether offspring take the frequency
    /// strategy from the bus-block parent instead of the placement/aux
    /// parent. The draw order is gate, family (mixed sweeps only),
    /// frequency — appended strictly after the existing draws and made
    /// only when the flag is set, so default-config streams are
    /// untouched.
    fn recombine_round(
        &self,
        state: &mut ExploreState,
        round: usize,
        seen: &mut HashMap<u64, usize>,
    ) -> Result<(), ExploreError> {
        let mut jobs: Vec<(usize, CandidateSpec)> = Vec::new();
        for pair in 0..state.walks.len() / 2 {
            let mut rng = self.recombine_rng(round, pair);
            // Half the pairs exchange each round; which half varies by
            // (seed, round, pair) only.
            if rng.gen::<f64>() >= 0.5 {
                continue;
            }
            let family_with_bus =
                self.config.hardware == HardwareSweep::All && rng.gen::<f64>() < 0.5;
            let freq_with_bus = self.config.fine_recombine && rng.gen::<f64>() < 0.5;
            let (i, j) = (2 * pair, 2 * pair + 1);
            let (a, b) = (&state.walks[i].spec, &state.walks[j].spec);
            let cross = |bus_from: &CandidateSpec, rest_from: &CandidateSpec| {
                self.space.sanitize(CandidateSpec {
                    bus: bus_from.bus.clone(),
                    frequency: if freq_with_bus { bus_from.frequency } else { rest_from.frequency },
                    aux_qubits: rest_from.aux_qubits,
                    placement: rest_from.placement,
                    hardware: if family_with_bus { bus_from.hardware } else { rest_from.hardware },
                })
            };
            jobs.push((i, cross(a, b)));
            jobs.push((j, cross(b, a)));
        }
        if jobs.is_empty() {
            return Ok(());
        }
        let specs: Vec<CandidateSpec> = jobs.iter().map(|(_, spec)| spec.clone()).collect();
        let evals = self.evaluate_batch_at(&specs, self.config.yield_trials)?;
        let mut offspring: Vec<(usize, Evaluated)> = Vec::with_capacity(jobs.len());
        for ((walk, _), eval) in jobs.into_iter().zip(evals) {
            push_dedup(&mut state.archive, seen, eval.clone());
            offspring.push((walk, eval));
        }
        // Replacement decisions compare against the post-merge front, so
        // they see everything this round produced.
        let front = self.front_snapshot(state);
        for (walk, off) in offspring {
            let parent_n = self.normalized(&state.walks[walk].objectives);
            let off_n = self.normalized(&off.objectives);
            let replace = if dominates_nd(&off_n, &parent_n) {
                true
            } else if dominates_nd(&parent_n, &off_n) {
                false
            } else {
                // Mutually non-dominated: prefer the less crowded
                // position relative to the front. The two contestants'
                // own archived copies are excluded from the context, so
                // neither competes against a duplicate of itself. Ties
                // keep the parent.
                let is_contestant = |f: &[f64; 4]| f[..] == parent_n[..] || f[..] == off_n[..];
                let mut pts: Vec<Vec<f64>> =
                    front.iter().filter(|f| !is_contestant(f)).map(|f| f.to_vec()).collect();
                pts.push(parent_n.to_vec());
                pts.push(off_n.to_vec());
                let d = crowding_distances(&pts);
                d[pts.len() - 1] > d[pts.len() - 2]
            };
            if replace {
                state.walks[walk] =
                    WalkState { spec: off.spec.clone(), objectives: off.objectives };
            }
        }
        Ok(())
    }

    /// Continues `state` until the configured round budget is spent.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation failure.
    pub fn resume(&self, mut state: ExploreState) -> Result<ExploreState, ExploreError> {
        while state.rounds_done < self.config.rounds {
            self.advance_round(&mut state)?;
        }
        Ok(state)
    }

    /// A full run: initial evaluations plus every configured round.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation failure.
    pub fn run(&self) -> Result<ExploreState, ExploreError> {
        self.resume(self.initial_state()?)
    }

    /// Validates that this engine's configuration supports sharding
    /// ([`ExploreConfig::shardable`]) and that `spec` is in range.
    fn check_shard(&self, spec: ShardSpec) -> Result<(), ExploreError> {
        ShardSpec::new(spec.index, spec.of)
            .map_err(|m| ExploreError::Shard(format!("invalid shard spec: {m}")))?;
        self.config
            .shardable()
            .map_err(|m| ExploreError::Shard(format!("config is not shardable: {m}")))
    }

    /// Evaluates the starting specs of the walks `spec` owns — the
    /// shard half of [`Self::initial_state`]. Walks keep their global
    /// indices (streams, weights, starting specs are bit-identical to
    /// the single-process run); the archive records per-entry
    /// [`Provenance`] so a later merge can restore single-run insertion
    /// order.
    ///
    /// # Errors
    ///
    /// Rejects non-[`shardable`](ExploreConfig::shardable) configs and
    /// out-of-range shard specs; propagates evaluation failures.
    pub fn initial_shard_state(&self, spec: ShardSpec) -> Result<ShardState, ExploreError> {
        self.check_shard(spec)?;
        let (state, prov) = self.initial_walks(spec)?;
        Ok(ShardState { spec, state, prov })
    }

    /// Runs one round of the shard's walks: the round body of
    /// [`Self::advance_round`] over this shard's subset. Because
    /// scalarized walks never read each other (which the shard-spec
    /// validation enforces), every walk draws and observes exactly what
    /// it does in the single-process run.
    ///
    /// # Errors
    ///
    /// As [`Self::initial_shard_state`], plus a shard whose walk count
    /// does not match its spec; on failure `shard` is left unmodified.
    pub fn advance_shard_round(&self, shard: &mut ShardState) -> Result<(), ExploreError> {
        self.check_shard(shard.spec)?;
        let prov = self.round(&mut shard.state, shard.spec)?;
        shard.prov.extend(prov);
        Ok(())
    }

    /// Continues a shard until the configured round budget is spent —
    /// the shard half of [`Self::resume`].
    ///
    /// # Errors
    ///
    /// As [`Self::advance_shard_round`].
    pub fn resume_shard(&self, mut shard: ShardState) -> Result<ShardState, ExploreError> {
        while shard.state.rounds_done < self.config.rounds {
            self.advance_shard_round(&mut shard)?;
        }
        Ok(shard)
    }

    /// A full shard run: initial evaluations of the owned walks plus
    /// every configured round.
    ///
    /// # Errors
    ///
    /// As [`Self::advance_shard_round`].
    pub fn run_shard(&self, spec: ShardSpec) -> Result<ShardState, ExploreError> {
        self.resume_shard(self.initial_shard_state(spec)?)
    }
}

/// Appends `eval` unless its content key is already archived; true when
/// it was appended.
pub(crate) fn push_dedup(
    archive: &mut Vec<Evaluated>,
    seen: &mut HashMap<u64, usize>,
    eval: Evaluated,
) -> bool {
    if let std::collections::hash_map::Entry::Vacant(slot) = seen.entry(eval.key) {
        slot.insert(archive.len());
        archive.push(eval);
        true
    } else {
        false
    }
}

/// SplitMix64 finalizer: the engine's cheap pure mixing function.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpd_circuit::Circuit;
    use qpd_core::DEFAULT_MEMO_CAP;

    fn demo_circuit() -> Circuit {
        let mut c = Circuit::new(6);
        for _ in 0..3 {
            c.cx(0, 1).cx(1, 2).cx(3, 4).cx(4, 5).cx(0, 3).cx(1, 4).cx(2, 5);
        }
        c.cx(0, 4).cx(1, 3).cx(1, 5).cx(2, 4);
        c
    }

    fn quick_explorer(seed: u64) -> Explorer {
        let config = ExploreConfig { seed, ..ExploreConfig::quick() };
        Explorer::new(ExploreSpace::new(demo_circuit(), config.max_aux), config).unwrap()
    }

    fn explorer_with(config: ExploreConfig) -> Explorer {
        Explorer::new(ExploreSpace::new(demo_circuit(), config.max_aux), config).unwrap()
    }

    #[test]
    fn run_produces_a_nonempty_front_with_eff_full() {
        let explorer = quick_explorer(0);
        let state = explorer.run().unwrap();
        assert_eq!(state.rounds_done, explorer.config().rounds);
        assert!(!state.archive.is_empty());
        let front = state.front_indices();
        assert!(!front.is_empty());
        // Walk 0 starts at eff-full: it must be an evaluated point.
        let full = explorer.space().full_weighted_len();
        let eff_full = CandidateSpec::eff_full(full);
        assert!(
            state.archive.iter().any(|e| e.spec == eff_full),
            "eff-full missing from the archive"
        );
    }

    #[test]
    fn archive_keys_are_unique() {
        let state = quick_explorer(1).run().unwrap();
        let mut keys: Vec<u64> = state.archive.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "archive contains duplicate content keys");
    }

    #[test]
    fn repeated_runs_are_identical() {
        let a = quick_explorer(7).run().unwrap();
        let b = quick_explorer(7).run().unwrap();
        assert_eq!(a, b);
        let c = quick_explorer(8).run().unwrap();
        assert_ne!(a.archive, c.archive, "different seeds should explore differently");
    }

    #[test]
    fn fine_recombine_is_deterministic_and_opt_in() {
        // The finer exchange blocks stay bit-identical run to run…
        let fine = ExploreConfig { seed: 7, fine_recombine: true, ..ExploreConfig::quick() };
        let a = explorer_with(fine).run().unwrap();
        let b = explorer_with(fine).run().unwrap();
        assert_eq!(a, b);
        // …and the default config never makes the extra draw: its
        // trajectory is byte-identical whether or not the build knows
        // about the flag, which `repeated_runs_are_identical` pins and
        // this asserts structurally — the flag is off.
        assert!(!ExploreConfig::default().fine_recombine);
        assert!(!ExploreConfig::quick().fine_recombine);
    }

    #[test]
    fn shared_caches_and_plan_reproduce_the_owned_run() {
        // The resident-server path: two engines sharing one set of stage
        // tables (plan included) must produce the same state as a fresh
        // owning engine — warm tables change *when* work happens, never
        // the result.
        let config = ExploreConfig { seed: 11, ..ExploreConfig::quick() };
        let owned = explorer_with(config).run().unwrap();
        let caches = Arc::new(StageCaches::with_cap(Some(DEFAULT_MEMO_CAP)));
        let space = || ExploreSpace::new(demo_circuit(), config.max_aux);
        let first = Explorer::with_shared(space(), config, caches.clone()).unwrap().run().unwrap();
        assert_eq!(first, owned);
        // Second engine starts fully warm and still matches.
        let warm = Explorer::with_shared(space(), config, caches.clone()).unwrap();
        let second = warm.run().unwrap();
        assert_eq!(second, owned);
        assert!(caches.yields.hits() > 0, "the shared tables were not consulted");
    }

    #[test]
    fn resume_mid_run_matches_uninterrupted() {
        let explorer = quick_explorer(3);
        let uninterrupted = explorer.run().unwrap();
        // Cut after the first round, then resume on a *fresh* engine
        // (empty caches), as a process restart would.
        let mut partial = explorer.initial_state().unwrap();
        explorer.advance_round(&mut partial).unwrap();
        let resumed = quick_explorer(3).resume(partial).unwrap();
        assert_eq!(uninterrupted, resumed);
    }

    #[test]
    fn cache_hits_accumulate() {
        let explorer = quick_explorer(2);
        let state = explorer.run().unwrap();
        // Evaluations happened, and memoization actually served repeats:
        // the dedup'd archive is smaller than the evaluation count, and
        // every one of those repeats must have been a yield-cache hit.
        assert!(explorer.caches().yields.misses() > 0);
        assert!(
            explorer.caches().yields.hits() > 0,
            "no memo hits: the content-keyed cache is not being consulted"
        );
        let evaluations = explorer.config().walks
            * (1 + explorer.config().rounds * explorer.config().steps_per_round);
        assert!(state.archive.len() <= evaluations + 2 * explorer.config().rounds);
    }

    #[test]
    fn out_of_range_aux_is_clamped_consistently() {
        // A spec asking for more auxiliary qubits than the space bounds
        // must evaluate exactly like the clamped spec — same content
        // key *and* same objectives — so the archive dedup can never
        // depend on which form evaluated first.
        let explorer = quick_explorer(0);
        let max = explorer.space().max_aux();
        let clamped = CandidateSpec {
            aux_qubits: max,
            ..CandidateSpec::eff_full(explorer.space().full_weighted_len())
        };
        let oversized = CandidateSpec { aux_qubits: max + 4, ..clamped.clone() };
        let a = explorer.evaluate(&clamped).unwrap();
        let b = explorer.evaluate(&oversized).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.objectives, b.objectives);
    }

    #[test]
    fn front_is_actually_nondominated() {
        let state = quick_explorer(5).run().unwrap();
        let front = state.front();
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(
                        !qpd_core::dominates_nd(
                            &a.objectives.as_maximization(),
                            &b.objectives.as_maximization()
                        ),
                        "front point {} dominates front point {}",
                        a.arch_name,
                        b.arch_name
                    );
                }
            }
        }
    }

    #[test]
    fn scalarized_mode_reproduces_the_v1_engine_shape() {
        // Scalarized + no recombination archives every proposal: the
        // evaluation count is exactly the v1 budget formula.
        let config = ExploreConfig { seed: 4, ..ExploreConfig::quick() }.v1_compat();
        let explorer = explorer_with(config);
        let state = explorer.run().unwrap();
        let cache = explorer.caches();
        let budget = config.walks * (1 + config.rounds * config.steps_per_round);
        assert_eq!(cache.yields.hits() + cache.yields.misses(), budget as u64);
        assert!(!state.front_indices().is_empty());
    }

    #[test]
    fn dominance_mode_stays_within_the_v1_candidate_budget() {
        // Proposals (1 eval each, screening off) plus at most one
        // offspring pair per walk pair per round.
        let config = ExploreConfig { seed: 4, ..ExploreConfig::quick() };
        let explorer = explorer_with(config);
        explorer.run().unwrap();
        let cache = explorer.caches();
        let proposals = config.walks * (1 + config.rounds * config.steps_per_round);
        let offspring_cap = 2 * (config.walks / 2) * config.rounds;
        assert!(cache.yields.hits() + cache.yields.misses() <= (proposals + offspring_cap) as u64);
    }

    #[test]
    fn screening_archives_full_fidelity_only() {
        let config = ExploreConfig { seed: 9, ..ExploreConfig::adaptive_quick() };
        let explorer = explorer_with(config);
        let state = explorer.run().unwrap();
        assert!(!state.front_indices().is_empty());
        for e in &state.archive {
            assert_eq!(
                e.objectives.yield_trials, config.yield_trials,
                "archived point {} carries a screened trial budget",
                e.arch_name
            );
        }
    }

    #[test]
    fn explorer_caches_are_bounded_by_default() {
        // The archive_cap memory story only holds if the stage caches
        // (the assembly cache retains whole architectures) are bounded
        // too: without QPD_MEMO_CAP the explorer must apply the default.
        let explorer = quick_explorer(0);
        if std::env::var(qpd_core::MEMO_CAP_ENV).is_err() {
            assert_eq!(explorer.caches().yields.cap(), Some(DEFAULT_MEMO_CAP));
            assert_eq!(explorer.caches().routes.cap(), Some(DEFAULT_MEMO_CAP));
            // One policy: a bare plan is bounded at the same default.
            let p = qpd_core::StagePlan::new();
            let caps = [p.placement_cache().cap(), p.bus_cache().cap(), p.assemble_cache().cap()];
            assert_eq!(caps, [Some(DEFAULT_MEMO_CAP); 3]);
        }
    }

    #[test]
    fn route_counters_are_thread_stable() {
        // Frequency-only pairs share a topology: in one batch each
        // distinct topology routes once and every occurrence counts a
        // miss, whatever the thread count.
        let counts = [1usize, 2, 8].map(|threads| {
            let explorer = quick_explorer(0);
            let full = explorer.space().full_weighted_len();
            // Three topologies, none of them the baseline's.
            let specs: Vec<CandidateSpec> = [(full, 0), (0, 1), (full, 1)]
                .into_iter()
                .flat_map(|(count, aux_qubits)| {
                    let spec = CandidateSpec { aux_qubits, ..CandidateSpec::eff_full(count) };
                    let five = FrequencyStrategy::FiveFrequency;
                    [CandidateSpec { frequency: five, ..spec.clone() }, spec]
                })
                .collect();
            explorer.caches().clear();
            let routes = &explorer.caches().routes;
            let read = || [routes.hits(), routes.misses(), routes.unique_misses()];
            let before = read();
            qpd_par::with_threads(threads, || explorer.evaluate_all(&specs)).unwrap();
            let after = read();
            [0, 1, 2].map(|i| after[i] - before[i])
        });
        assert_eq!(counts, [[0, 6, 3]; 3], "(hits, misses, unique) at 1, 2, 8 threads");
    }

    #[test]
    fn freq_only_move_skips_placement_bus_and_routing() {
        // The load-bearing stage-graph property: after evaluating a
        // spec, the frequency-flipped variant is a new assembly (new
        // frequency plan, new yield simulation) but never re-routes —
        // routing reads topology only, which the flip leaves untouched.
        let explorer = quick_explorer(0);
        let misses = || -> Vec<(qpd_core::StageKind, u64)> {
            explorer.stage_stats().iter().map(|s| (s.kind, s.misses)).collect()
        };
        let spec = CandidateSpec::eff_full(explorer.space().full_weighted_len());
        explorer.evaluate(&spec).unwrap();
        let before = misses();
        let flipped = CandidateSpec { frequency: FrequencyStrategy::FiveFrequency, ..spec.clone() };
        explorer.evaluate(&flipped).unwrap();
        for ((kind, was), (_, now)) in before.into_iter().zip(misses()) {
            use qpd_core::StageKind::{Frequency, Yield};
            let reruns = matches!(kind, Frequency | Yield);
            assert_eq!(now > was, reruns, "{} after a freq-only move", kind.name());
        }
        assert!(explorer.caches().routes.hits() > 0, "routing was not served from cache");
    }

    #[test]
    fn a_whole_run_state_missing_a_walk_is_rejected_untouched() {
        // A whole run owns every walk: a state short of one is an error
        // before anything evaluates, and the state stays as it was.
        let explorer = quick_explorer(4);
        let mut state = explorer.initial_state().unwrap();
        state.walks.pop();
        let before = state.clone();
        let err = explorer.advance_round(&mut state).unwrap_err();
        assert!(matches!(err, ExploreError::Shard(_)), "{err}");
        assert!(err.to_string().contains("must hold 3 walk(s), found 2"), "{err}");
        assert_eq!(state, before);
    }

    #[test]
    fn repeated_evaluations_skip_every_stage() {
        // A revisited candidate costs hash lookups only: the frequency
        // allocation that the pre-stage-graph engine re-ran on every
        // evaluate call is now served by the shared plan cache.
        let explorer = quick_explorer(0);
        let spec = CandidateSpec::eff_full(explorer.space().full_weighted_len());
        let first = explorer.evaluate(&spec).unwrap();
        let assemble_misses: u64 = explorer
            .stage_stats()
            .iter()
            .find(|s| s.kind == qpd_core::StageKind::Frequency)
            .unwrap()
            .misses;
        let second = explorer.evaluate(&spec).unwrap();
        assert_eq!(first, second);
        let stats = explorer.stage_stats();
        let assemble = stats.iter().find(|s| s.kind == qpd_core::StageKind::Frequency).unwrap();
        assert_eq!(assemble.misses, assemble_misses, "repeat evaluation re-ran frequency alloc");
        assert!(assemble.hits > 0);
    }

    #[test]
    fn evaluate_is_a_batch_of_one() {
        // `evaluate(spec)` and `evaluate_all(&[spec])` on twin engines:
        // equal results and equal per-stage accounting, cold and warm.
        let counters = |e: &Explorer| -> Vec<_> {
            e.stage_stats().iter().map(|s| (s.kind, s.hits, s.misses, s.unique_misses)).collect()
        };
        let single = quick_explorer(3);
        let batch = quick_explorer(3);
        for spec in [
            CandidateSpec::eff_full(single.space().full_weighted_len()),
            CandidateSpec { hardware: HardwareFamily::TunableCoupler, ..single.initial_spec(1) },
        ] {
            for pass in ["cold", "warm"] {
                let one = single.evaluate(&spec).unwrap();
                let all = batch.evaluate_all(std::slice::from_ref(&spec)).unwrap();
                assert_eq!(vec![one], all, "{pass}");
                assert_eq!(counters(&single), counters(&batch), "{pass}");
            }
        }
        let yields = single.caches().yields.hits();
        assert!(yields >= 2, "warm passes must hit the yield cache: {yields}");
    }

    #[test]
    fn archive_cap_bounds_the_archive_and_keeps_the_front() {
        let uncapped = ExploreConfig { seed: 11, ..ExploreConfig::quick() };
        let reference = explorer_with(uncapped).run().unwrap();
        let cap = reference.front_indices().len().max(3);
        let capped_config = ExploreConfig { archive_cap: Some(cap), ..uncapped };
        let capped = explorer_with(capped_config).run().unwrap();
        assert!(capped.archive.len() <= cap, "{} > cap {cap}", capped.archive.len());
        assert!(!capped.front_indices().is_empty());
        // Determinism: the capped run reproduces itself exactly.
        let again = explorer_with(capped_config).run().unwrap();
        assert_eq!(capped, again);
    }

    #[test]
    fn pruning_prefers_front_points() {
        // With a cap at exactly the front size after an uncapped run,
        // pruning a snapshot of that run keeps a front that dominates
        // the same region (front points have top keep-priority).
        let config = ExploreConfig { seed: 2, ..ExploreConfig::quick() };
        let explorer = explorer_with(config);
        let mut state = explorer.run().unwrap();
        let front_keys: Vec<u64> =
            state.front_indices().iter().map(|&i| state.archive[i].key).collect();
        let cap = front_keys.len();
        let capped = ExploreConfig { archive_cap: Some(cap), ..config };
        let pruner = explorer_with(capped);
        pruner.prune_archive(&mut state);
        assert_eq!(state.archive.len(), cap);
        let kept: Vec<u64> = state.archive.iter().map(|e| e.key).collect();
        assert_eq!(kept, front_keys, "pruning evicted a front point over a dominated one");
    }

    #[test]
    fn pinned_default_sweep_matches_the_pre_hardware_stream() {
        // `Pinned(default)` is the default config: the sweep must be
        // invisible — explicitly spelling it out changes nothing.
        let implicit = quick_explorer(7).run().unwrap();
        let spelled = ExploreConfig {
            seed: 7,
            hardware: HardwareSweep::Pinned(HardwareFamily::FixedFrequencyTransmon),
            ..ExploreConfig::quick()
        };
        let explicit = explorer_with(spelled).run().unwrap();
        assert_eq!(implicit, explicit);
        assert!(implicit.archive.iter().all(|e| e.spec.hardware.is_default()));
    }

    #[test]
    fn pinned_family_runs_stay_on_that_family() {
        let config = ExploreConfig {
            seed: 3,
            hardware: HardwareSweep::Pinned(HardwareFamily::TunableCoupler),
            ..ExploreConfig::quick()
        };
        let state = explorer_with(config).run().unwrap();
        assert!(!state.front_indices().is_empty());
        for e in &state.archive {
            assert_eq!(
                e.spec.hardware,
                HardwareFamily::TunableCoupler,
                "pinned run archived a foreign family: {}",
                e.arch_name
            );
        }
        // The family rides into the design names.
        assert!(state.archive.iter().any(|e| e.arch_name.contains("-tc-")));
    }

    #[test]
    fn mixed_sweep_builds_a_cross_family_archive_deterministically() {
        let config =
            ExploreConfig { seed: 5, hardware: HardwareSweep::All, ..ExploreConfig::quick() };
        let state = explorer_with(config).run().unwrap();
        let mut families: Vec<HardwareFamily> =
            state.archive.iter().map(|e| e.spec.hardware).collect();
        families.sort_by_key(|f| *f as u8);
        families.dedup();
        assert!(families.len() >= 2, "mixed sweep never left one family: {families:?}");
        assert!(!state.front_indices().is_empty());
        // Bit-identical on repeat, and kill/resume invariant.
        let again = explorer_with(config).run().unwrap();
        assert_eq!(state, again);
        let resumer = explorer_with(config);
        let mut partial = resumer.initial_state().unwrap();
        resumer.advance_round(&mut partial).unwrap();
        let resumed = explorer_with(config).resume(partial).unwrap();
        assert_eq!(state, resumed);
    }

    #[test]
    fn hardware_sweep_tags_round_trip() {
        for sweep in [
            HardwareSweep::Pinned(HardwareFamily::FixedFrequencyTransmon),
            HardwareSweep::Pinned(HardwareFamily::TunableCoupler),
            HardwareSweep::Pinned(HardwareFamily::HeavyHex),
            HardwareSweep::All,
        ] {
            assert_eq!(HardwareSweep::parse(sweep.as_str()), Some(sweep));
        }
        assert_eq!(HardwareSweep::parse("warp-core"), None);
        assert!(HardwareSweep::default().is_default());
        assert!(!HardwareSweep::All.is_default());
    }

    #[test]
    fn shard_spec_parse_and_walk_ids() {
        assert_eq!(ShardSpec::parse("0/1"), Ok(ShardSpec { index: 0, of: 1 }));
        assert_eq!(ShardSpec::parse("3/4"), Ok(ShardSpec { index: 3, of: 4 }));
        assert!(ShardSpec::parse("4/4").is_err());
        assert!(ShardSpec::parse("1/0").is_err());
        assert!(ShardSpec::parse("2").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
        assert_eq!(ShardSpec { index: 1, of: 3 }.walk_ids(7), vec![1, 4]);
        assert_eq!(ShardSpec { index: 0, of: 1 }.walk_ids(3), vec![0, 1, 2]);
        // More shards than walks: trailing shards legitimately own none.
        assert!(ShardSpec { index: 5, of: 8 }.walk_ids(3).is_empty());
        // Every walk lands in exactly one shard.
        let mut owned: Vec<usize> =
            (0..4).flat_map(|i| ShardSpec { index: i, of: 4 }.walk_ids(10)).collect();
        owned.sort_unstable();
        assert_eq!(owned, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shardable_rejects_cross_walk_knobs() {
        let good = ExploreConfig::quick().v1_compat();
        assert!(good.shardable().is_ok());
        let dominance = ExploreConfig::quick();
        let err = dominance.shardable().unwrap_err();
        assert!(err.contains("scalarized"), "{err}");
        assert!(err.contains("recombin"), "{err}");
        let capped = ExploreConfig { archive_cap: Some(8), ..good };
        assert!(capped.shardable().unwrap_err().contains("archive_cap"));
        // `Some(0)` is normalized no-pruning: shardable.
        assert!(ExploreConfig { archive_cap: Some(0), ..good }.shardable().is_ok());
        // Screening is inert under scalarized acceptance: shardable.
        assert!(ExploreConfig { screen_divisor: 4, ..good }.shardable().is_ok());
    }

    #[test]
    fn shard_runs_reject_unshardable_configs() {
        let explorer = quick_explorer(0); // dominance + recombine
        let spec = ShardSpec { index: 0, of: 2 };
        let err = explorer.initial_shard_state(spec).unwrap_err();
        assert!(matches!(err, ExploreError::Shard(_)), "{err}");
    }

    #[test]
    fn single_shard_run_matches_the_full_run_with_provenance() {
        let config = ExploreConfig { seed: 7, ..ExploreConfig::quick() }.v1_compat();
        let full = explorer_with(config).run().unwrap();
        let shard = explorer_with(config).run_shard(ShardSpec { index: 0, of: 1 }).unwrap();
        assert_eq!(shard.state, full);
        assert_eq!(shard.prov.len(), shard.state.archive.len());
        // Provenance is strictly increasing in single-run insertion
        // order — the invariant the merge sort relies on.
        assert!(shard.prov.windows(2).all(|w| w[0] < w[1]), "{:?}", shard.prov);
    }

    #[test]
    fn shard_kill_resume_matches_uninterrupted() {
        let config = ExploreConfig { seed: 9, ..ExploreConfig::quick() }.v1_compat();
        let spec = ShardSpec { index: 1, of: 2 };
        let uninterrupted = explorer_with(config).run_shard(spec).unwrap();
        let cutter = explorer_with(config);
        let mut partial = cutter.initial_shard_state(spec).unwrap();
        cutter.advance_shard_round(&mut partial).unwrap();
        let resumed = explorer_with(config).resume_shard(partial).unwrap();
        assert_eq!(uninterrupted, resumed);
    }

    #[test]
    fn recombination_exchanges_are_keyed_by_seed_round_pair_only() {
        // Same seed, same state -> same exchanges regardless of walk
        // content arriving via different thread counts is covered by the
        // integration tests; here: toggling recombine changes the run,
        // and the toggle alone (not the RNG streams) is responsible.
        let on = ExploreConfig { seed: 6, ..ExploreConfig::quick() };
        let off = ExploreConfig { recombine: false, ..on };
        let a = explorer_with(on).run().unwrap();
        let b = explorer_with(off).run().unwrap();
        assert_eq!(a.rounds_done, b.rounds_done);
        assert_ne!(a, b, "recombination had no effect at this seed");
    }
}
