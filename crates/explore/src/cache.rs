//! The downstream stages of the design cascade — routing and yield —
//! and the per-stage caches one exploration run shares across walks.
//!
//! Since the stage-graph refactor this module no longer owns a memo
//! implementation: the tables are [`qpd_core::StageCache`]s (bounded by
//! [`qpd_core::memo_cap`], deterministic second-chance eviction), and
//! the evaluation pipeline is expressed as [`qpd_core::Stage`]s, each
//! batch served through [`qpd_core::StageCache::run_batch`]:
//!
//! - placement and bus insertion (square perturbations included) are
//!   served by [`crate::space::ExploreSpace`]'s precomputed layouts — a
//!   perfect, always-warm cache over the small `(variant, aux)` grid;
//! - frequency allocation + assembly run through the explorer's shared
//!   [`qpd_core::StagePlan`];
//! - [`RouteStage`] and [`YieldStage`] (this module) run through
//!   [`StageCaches`]. **Screening is the same yield stage at a reduced
//!   trial budget** — the trial count is part of the content key, so
//!   screened and full-fidelity results never collide.
//!
//! Sharing the tables across worker threads cannot break determinism:
//! every stage is a pure function of its content key, so whichever walk
//! inserts first, the value is the one every other walk would have
//! computed — and an evicted entry is recomputed, never changed.

use std::fmt::Write;

use qpd_circuit::Circuit;
use qpd_core::{Stage, StageCache, StageCacheStats, StageKind};
use qpd_mapping::{MappingError, RouteProgram, SabreRouter};
use qpd_topology::Architecture;
use qpd_yield::{HardwareFamily, YieldError, YieldSimulator};

// The routing and yield keys use the same FNV-1a hasher the upstream
// stage keys are built from.
pub use qpd_yield::Fnv64;

/// The topology fingerprint routing keys on: placed coordinates and
/// coupling edges only — the router never reads frequencies, which is
/// why a frequency-only change leaves routing results valid.
pub fn topology_key(arch: &Architecture) -> u64 {
    let mut h = Fnv64::new();
    h.push(arch.num_qubits() as u64);
    for c in arch.coords() {
        h.push(((c.row as u32 as u64) << 32) | c.col as u32 as u64);
    }
    for &(a, b) in arch.coupling_edges() {
        h.push(((a as u64) << 32) | b as u64);
    }
    h.finish()
}

/// A content fingerprint of the routed program: qubit count plus every
/// instruction (gate, parameters, and operands) in program order —
/// single-qubit gates included, since the routed *depth* the route
/// stage caches depends on them. Computed once per run and folded into
/// every routing key, so the route cache's keys derive from *all* of
/// the stage's true inputs and two circuits with equal two-qubit
/// structure but different 1q placement never collide.
pub fn circuit_key(circuit: &Circuit) -> u64 {
    let mut h = Fnv64::new();
    h.push(circuit.num_qubits() as u64);
    h.push(circuit.gate_count() as u64);
    for inst in circuit.iter() {
        // The Debug form carries the gate's variant and exact angle
        // bits. The key outlives the process: route keys fold it in,
        // and cache sidecars persist route keys. Keep the form stable
        // across builds; if it changes, routes a sidecar saved under
        // the old form stop matching and are recomputed.
        write!(h, "{:?}", inst.gate()).expect("hashing never fails");
        h.push(inst.qubits().len() as u64);
        for q in inst.qubits() {
            h.push(q.index() as u64);
        }
    }
    h.finish()
}

/// Stage 4 — SABRE routing of the profiled program onto a candidate
/// topology, yielding `(total_gates, routed_depth)`. The input's
/// [`RouteProgram`] is the program prepared once per run; the key reads
/// only the topology and [`Self::circuit_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteStage {
    /// [`circuit_key`] of the routed program (fixed per run).
    pub circuit_key: u64,
}

impl RouteStage {
    /// The content key of routing this stage's program onto `arch`:
    /// [`Stage::content_key`] without needing the prepared program.
    pub fn key(&self, arch: &Architecture) -> u64 {
        let mut h = Fnv64::new();
        h.push(Self::KIND as u64);
        h.push(topology_key(arch));
        h.push(self.circuit_key);
        h.finish()
    }
}

impl Stage for RouteStage {
    type Input<'a> = (&'a Architecture, &'a RouteProgram);
    type Output = (u64, u64);
    type Error = MappingError;
    const KIND: StageKind = StageKind::Routing;

    fn content_key(&self, input: &Self::Input<'_>) -> u64 {
        self.key(input.0)
    }

    fn run(&self, input: &Self::Input<'_>) -> Result<(u64, u64), MappingError> {
        let (arch, program) = input;
        let stats = SabreRouter::new(arch).route_stats(program)?;
        Ok((stats.total_gates as u64, stats.routed_depth as u64))
    }
}

/// Stage 5 — Monte Carlo yield estimation, yielding
/// `(successes, trials)`. The trial budget is a stage knob: the adaptive
/// screening path is this same stage at `yield_trials / screen_divisor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldStage {
    /// Monte Carlo trials.
    pub trials: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Fabrication precision in GHz.
    pub sigma_ghz: f64,
    /// Hardware family: collision constraints and effective noise. The
    /// default family keeps keys and estimates bit-identical to the
    /// pre-hardware-layer stage.
    pub hardware: HardwareFamily,
}

impl YieldStage {
    /// The configured simulator.
    pub fn simulator(&self) -> YieldSimulator {
        YieldSimulator::new()
            .with_trials(self.trials)
            .with_seed(self.seed)
            .with_sigma_ghz(self.sigma_ghz)
            .with_hardware(self.hardware)
    }
}

impl Stage for YieldStage {
    type Input<'a> = &'a Architecture;
    type Output = (u64, u64);
    type Error = YieldError;
    const KIND: StageKind = StageKind::Yield;

    /// The simulator's content key (structure + designed frequencies +
    /// simulator settings) — unchanged from the pre-stage-graph memo, so
    /// archived [`crate::Evaluated::key`]s stay stable.
    ///
    /// An architecture without a frequency plan (which the assembly
    /// stage never produces) keys on its topology alone; [`Self::run`]
    /// then reports [`YieldError::MissingFrequencyPlan`], and errors are
    /// never cached, so the sentinel key can't serve a stale value.
    fn content_key(&self, input: &Self::Input<'_>) -> u64 {
        self.simulator().content_key(input).unwrap_or_else(|_| {
            let mut h = Fnv64::new();
            h.push(Self::KIND as u64);
            h.push(topology_key(input));
            h.finish()
        })
    }

    fn run(&self, input: &Self::Input<'_>) -> Result<(u64, u64), YieldError> {
        let estimate = self.simulator().estimate(input)?;
        Ok((estimate.successes(), estimate.trials()))
    }
}

/// The downstream stage caches one exploration run shares across its
/// walks (the upstream placement/bus/frequency caches live in the
/// explorer's [`qpd_core::StagePlan`]).
#[derive(Debug, Default)]
pub struct StageCaches {
    /// Routing results by topology + circuit content key.
    pub routes: StageCache<(u64, u64)>,
    /// Yield estimates by the simulator's full content key (screened
    /// and full-fidelity budgets key separately).
    pub yields: StageCache<(u64, u64)>,
}

impl StageCaches {
    /// Empty caches (bounded by [`qpd_core::memo_cap`]).
    pub fn new() -> Self {
        StageCaches::default()
    }

    /// Empty caches with an explicit per-table entry bound
    /// (`None` = unbounded).
    pub fn with_cap(cap: Option<usize>) -> Self {
        StageCaches { routes: StageCache::with_cap(cap), yields: StageCache::with_cap(cap) }
    }

    /// Drops every stored value (hit/miss counters keep accumulating).
    /// `bench_snapshot`'s cold-cache kernel uses this to re-measure
    /// uncached evaluation without rebuilding the engine.
    pub fn clear(&self) {
        self.routes.clear();
        self.yields.clear();
    }

    /// Hit/miss counters of the two downstream stages, pipeline order.
    pub fn stats(&self) -> Vec<StageCacheStats> {
        vec![
            StageCacheStats::of(StageKind::Routing, &self.routes),
            StageCacheStats::of(StageKind::Yield, &self.yields),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let mut a = Fnv64::new();
        a.push(1);
        a.push(2);
        let mut b = Fnv64::new();
        b.push(2);
        b.push(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.push(1);
        c.push(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn circuit_key_distinguishes_programs() {
        let mut a = Circuit::new(4);
        a.cx(0, 1).cx(1, 2);
        let mut b = Circuit::new(4);
        b.cx(0, 1).cx(2, 3);
        assert_ne!(circuit_key(&a), circuit_key(&b));
        let mut a2 = Circuit::new(4);
        a2.cx(0, 1).cx(1, 2);
        assert_eq!(circuit_key(&a), circuit_key(&a2));
    }

    #[test]
    fn circuit_key_sees_single_qubit_structure() {
        // Routed depth depends on where 1q gates sit, so circuits with
        // identical two-qubit streams but different 1q placement must
        // key apart (they'd otherwise share a wrong cached depth).
        let mut a = Circuit::new(2);
        a.h(0).h(0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.h(0).h(1).cx(0, 1);
        assert_ne!(circuit_key(&a), circuit_key(&b));
    }

    #[test]
    fn yield_stage_screening_keys_differ_from_full_fidelity() {
        // The screening path is the yield stage at a reduced budget; the
        // budget is part of the key, so the two can share one table.
        let chip = qpd_topology::ibm::ibm_16q_2x8(qpd_topology::BusMode::TwoQubitOnly);
        let full = YieldStage {
            trials: 2_000,
            seed: 0,
            sigma_ghz: 0.03,
            hardware: HardwareFamily::FixedFrequencyTransmon,
        };
        let screened = YieldStage { trials: 500, ..full };
        assert_ne!(full.content_key(&&chip), screened.content_key(&&chip));
        assert_eq!(full.content_key(&&chip), full.content_key(&&chip));
        // The hardware family is part of the key: one shared yield table
        // can never serve a fixed-frequency estimate to a tunable walk.
        let tc = YieldStage { hardware: HardwareFamily::TunableCoupler, ..full };
        assert_ne!(full.content_key(&&chip), tc.content_key(&&chip));
    }

    #[test]
    fn plan_less_architecture_errors_instead_of_panicking() {
        // Running the yield stage on a bare topology (no frequency
        // plan) must surface MissingFrequencyPlan through run_stage —
        // never a panic, and never a cached value.
        let mut b = Architecture::builder("bare");
        b.qubit(0, 0).qubit(0, 1);
        let bare = b.build().unwrap();
        let stage = YieldStage {
            trials: 100,
            seed: 0,
            sigma_ghz: 0.03,
            hardware: HardwareFamily::FixedFrequencyTransmon,
        };
        let cache: StageCache<(u64, u64)> = StageCache::with_cap(None);
        let err = cache.run_stage(&stage, &&bare).unwrap_err();
        assert_eq!(err, YieldError::MissingFrequencyPlan);
        assert!(cache.is_empty(), "an error was cached");
    }

    #[test]
    fn stage_caches_report_both_stages() {
        let caches = StageCaches::new();
        caches.routes.insert(1, (10, 5));
        assert_eq!(caches.routes.get(1), Some((10, 5)));
        let stats = caches.stats();
        assert_eq!(stats[0].kind, StageKind::Routing);
        assert_eq!(stats[1].kind, StageKind::Yield);
        assert_eq!(stats[0].hits, 1);
        assert_eq!(stats[0].misses, 1);
        caches.clear();
        assert!(caches.routes.is_empty());
        assert_eq!(caches.routes.misses(), 1, "counters survive a clear");
    }
}
