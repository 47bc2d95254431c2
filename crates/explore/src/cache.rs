//! The downstream stages of the design cascade — routing and yield —
//! and [`StageCaches`], the one owner of all five stage tables an
//! exploration run (or the serve daemon) shares across walks.
//!
//! The tables are [`qpd_core::StageCache`]s (bounded by
//! [`qpd_core::memo_cap`], deterministic second-chance eviction), each
//! batch served through [`qpd_core::StageCache::run_batch`]:
//!
//! - placement and bus insertion (square perturbations included) are
//!   served by [`crate::space::ExploreSpace`]'s precomputed layouts — a
//!   perfect, always-warm cache over the small `(variant, aux)` grid —
//!   so the explorer's placement and bus tables stay empty;
//! - frequency allocation + assembly run through
//!   [`StageCaches::plan`], a [`qpd_core::StagePlan`];
//! - routing and yield run through [`StageCaches::routes`] and
//!   [`StageCaches::yields`], keyed by [`RouteStage`] and
//!   [`YieldStage`]. **Screening is the same yield stage at a reduced
//!   trial budget** — the trial count is part of the content key, so
//!   screened and full-fidelity results never collide.
//!
//! Sharing the tables across worker threads cannot break determinism:
//! every stage is a pure function of its content key, so whichever walk
//! inserts first, the value is the one every other walk would have
//! computed — and an evicted entry is recomputed, never changed.

use std::fmt::Write;

use qpd_circuit::Circuit;
use qpd_core::{StageCache, StageCacheStats, StageKind, StagePlan};
use qpd_mapping::{MappingError, RouteProgram, SabreRouter};
use qpd_topology::Architecture;
use qpd_yield::{BatchRequest, HardwareFamily, YieldError, YieldSimulator};

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
/// topology, yielding `(total_gates, routed_depth)`. [`Self::run`]
/// routes the [`RouteProgram`] prepared once per run; [`Self::key`]
/// reads only the topology and [`Self::circuit_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteStage {
    /// [`circuit_key`] of the routed program (fixed per run).
    pub circuit_key: u64,
}

impl RouteStage {
    /// The content key of routing this stage's program onto `arch`.
    pub fn key(&self, arch: &Architecture) -> u64 {
        let mut h = Fnv64::new();
        h.push(StageKind::Routing as u64);
        h.push(topology_key(arch));
        h.push(self.circuit_key);
        h.finish()
    }

    /// Routes `program` (whose [`circuit_key`] this stage holds) onto
    /// `arch`.
    ///
    /// # Errors
    ///
    /// Propagates the router's [`MappingError`].
    pub fn run(
        &self,
        arch: &Architecture,
        program: &RouteProgram,
    ) -> Result<(u64, u64), MappingError> {
        let stats = SabreRouter::new(arch).route_stats(program)?;
        Ok((stats.total_gates as u64, stats.routed_depth as u64))
    }
}

/// Stage 5 — Monte Carlo yield estimation, yielding
/// `(successes, trials)`. The trial budget is a stage knob: the adaptive
/// screening path is this same stage at `yield_trials / screen_divisor`.
/// Its only compute path is [`YieldSimulator::evaluate_batch`], through
/// the yield table's batch rule.
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

    /// The simulator's content key (structure + designed frequencies +
    /// simulator settings) — unchanged from the pre-stage-graph memo, so
    /// archived [`crate::Evaluated::key`]s stay stable.
    ///
    /// An architecture without a frequency plan (which the assembly
    /// stage never produces) keys on its topology alone; simulating it
    /// then reports [`YieldError::MissingFrequencyPlan`], and errors are
    /// never cached, so the sentinel key can't serve a stale value.
    pub fn key(&self, arch: &Architecture) -> u64 {
        self.simulator().content_key(arch).unwrap_or_else(|_| {
            let mut h = Fnv64::new();
            h.push(StageKind::Yield as u64);
            h.push(topology_key(arch));
            h.finish()
        })
    }
}

/// Every stage table one exploration run shares across its walks — and
/// the serve daemon across its requests — in pipeline order: the
/// placement, bus and frequency/assembly tables of [`Self::plan`], then
/// routing and yield.
#[derive(Debug, Default)]
pub struct StageCaches {
    /// The placement, bus and frequency/assembly tables.
    pub plan: StagePlan,
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
        StageCaches {
            plan: StagePlan::with_cap(cap),
            routes: StageCache::with_cap(cap),
            yields: StageCache::with_cap(cap),
        }
    }

    /// Drops every stored value of all five tables (hit/miss counters
    /// keep accumulating). `bench_snapshot`'s cold-cache kernel uses
    /// this to re-measure uncached evaluation without rebuilding the
    /// engine.
    pub fn clear(&self) {
        self.plan.clear();
        self.routes.clear();
        self.yields.clear();
    }

    /// Hit/miss counters of all five stages, pipeline order.
    pub fn stats(&self) -> Vec<StageCacheStats> {
        let mut stats = self.plan.stats();
        stats.push(StageCacheStats::of(StageKind::Routing, &self.routes));
        stats.push(StageCacheStats::of(StageKind::Yield, &self.yields));
        stats
    }

    /// Serves one yield estimate per `(stages[i], archs[i])` under its
    /// content key `keys[i]` through the yield table: the distinct
    /// misses run as one [`YieldSimulator::evaluate_batch`], which
    /// groups jobs by shared trial stream and runs the collision kernels
    /// SoA across the batch.
    ///
    /// # Errors
    ///
    /// Propagates the first failing miss's [`YieldError`]; nothing is
    /// cached then.
    pub(crate) fn yield_batch(
        &self,
        keys: &[u64],
        stages: &[YieldStage],
        archs: &[Architecture],
    ) -> Result<Vec<(u64, u64)>, YieldError> {
        self.yields.run_batch(keys, |missed| {
            let requests: Vec<BatchRequest<'_>> = missed
                .iter()
                .map(|&i| BatchRequest { simulator: stages[i].simulator(), arch: &archs[i] })
                .collect();
            YieldSimulator::evaluate_batch(&requests)
                .into_iter()
                .map(|outcome| outcome.map(|e| (e.successes(), e.trials())))
                .collect()
        })
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
        assert_ne!(full.key(&chip), screened.key(&chip));
        assert_eq!(full.key(&chip), full.key(&chip));
        // The hardware family is part of the key: one shared yield table
        // can never serve a fixed-frequency estimate to a tunable walk.
        let tc = YieldStage { hardware: HardwareFamily::TunableCoupler, ..full };
        assert_ne!(full.key(&chip), tc.key(&chip));
    }

    #[test]
    fn plan_less_architecture_errors_instead_of_panicking() {
        // Running the yield stage on a bare topology (no frequency
        // plan) through the yield table's batch rule must surface
        // MissingFrequencyPlan — never a panic, and never a cached value.
        let mut b = Architecture::builder("bare");
        b.qubit(0, 0).qubit(0, 1);
        let bare = b.build().unwrap();
        let stage = YieldStage {
            trials: 100,
            seed: 0,
            sigma_ghz: 0.03,
            hardware: HardwareFamily::FixedFrequencyTransmon,
        };
        let caches = StageCaches::with_cap(None);
        let err = caches.yield_batch(&[stage.key(&bare)], &[stage], &[bare]).unwrap_err();
        assert_eq!(err, YieldError::MissingFrequencyPlan);
        assert!(caches.yields.is_empty(), "an error was cached");
    }

    #[test]
    fn stage_caches_report_both_stages() {
        let caches = StageCaches::new();
        caches.plan.placement_cache().insert(1, Vec::new());
        caches.plan.bus_cache().insert(1, Vec::new());
        let chip = qpd_topology::ibm::ibm_16q_2x8(qpd_topology::BusMode::TwoQubitOnly);
        caches.plan.assemble_cache().insert(1, chip);
        caches.routes.insert(1, (10, 5));
        caches.yields.insert(1, (9, 10));
        assert_eq!(caches.routes.get(1), Some((10, 5)));
        let stats = caches.stats();
        let kinds: Vec<StageKind> = stats.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, StageKind::ALL, "five stages, pipeline order");
        assert!(stats.iter().all(|s| (s.misses, s.len) == (1, 1)));
        assert_eq!(stats[3].hits, 1);
        caches.clear();
        assert!(caches.stats().iter().all(|s| s.len == 0), "a table survived the clear");
        assert!(caches.stats().iter().all(|s| s.misses == 1), "counters survive a clear");
        assert_eq!(caches.stats()[3].hits, 1);
    }
}
