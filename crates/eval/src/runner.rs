//! Per-benchmark experiment execution.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use qpd_circuit::Circuit;
use qpd_core::{DesignError, StagePlan};
use qpd_mapping::{MappingError, RouteProgram, SabreRouter};
use qpd_profile::CouplingProfile;
use qpd_topology::Architecture;
use qpd_yield::{BatchRequest, HardwareFamily, YieldError, YieldSimulator};

use crate::configs::{generate, ConfigKind};

/// Tunable experiment parameters; defaults follow the paper's setup
/// (§5.1): 10,000 yield trials, sigma = 30 MHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSettings {
    /// Monte Carlo trials per yield estimate.
    pub yield_trials: u64,
    /// Monte Carlo trials inside frequency allocation.
    pub alloc_trials: usize,
    /// Fabrication precision in GHz.
    pub sigma_ghz: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Number of random-bus-selection samples (`eff-rd-bus`).
    pub rd_bus_samples: usize,
    /// Hardware family of the run: the `eff-*` flows design for its
    /// band and constraints, and the yield simulator applies its
    /// collision model to every chip (the IBM baselines keep their
    /// fixed layouts and frequencies). The default family reproduces
    /// the pre-hardware-layer harness bit-for-bit.
    pub hardware: HardwareFamily,
}

impl Default for EvalSettings {
    fn default() -> Self {
        EvalSettings {
            yield_trials: 10_000,
            alloc_trials: 8_000,
            sigma_ghz: 0.030,
            seed: 0,
            rd_bus_samples: 5,
            hardware: HardwareFamily::FixedFrequencyTransmon,
        }
    }
}

impl EvalSettings {
    /// Reduced-accuracy settings for tests and smoke runs.
    pub fn quick() -> Self {
        EvalSettings {
            yield_trials: 2_000,
            alloc_trials: 200,
            sigma_ghz: 0.030,
            seed: 0,
            rd_bus_samples: 3,
            hardware: HardwareFamily::FixedFrequencyTransmon,
        }
    }

    /// The same settings targeting another hardware family.
    pub fn with_hardware(mut self, hardware: HardwareFamily) -> Self {
        self.hardware = hardware;
        self
    }
}

/// One architecture evaluated on one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// Which configuration produced the architecture.
    pub config: ConfigKind,
    /// Architecture name.
    pub arch: String,
    /// Physical qubits on the chip.
    pub qubits: usize,
    /// Number of 4-qubit buses.
    pub four_qubit_buses: usize,
    /// Total coupling edges (pairs supporting a two-qubit gate).
    pub coupling_edges: usize,
    /// Post-mapping gate count (SWAP = 3 CX) — the performance metric.
    pub total_gates: usize,
    /// SWAPs inserted by routing.
    pub swaps: usize,
    /// Monte Carlo yield estimate.
    pub yield_rate: f64,
    /// Reciprocal gate count normalized to IBM baseline (1) — Figure 10's
    /// X axis (larger is better).
    pub normalized_perf: f64,
}

/// All data points for one benchmark (one Figure 10 subfigure).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkRun {
    /// Benchmark name.
    pub benchmark: String,
    /// Logical qubits in the program.
    pub qubits: usize,
    /// Every evaluated point.
    pub points: Vec<DataPoint>,
}

impl BenchmarkRun {
    /// The points of one configuration, in generation order.
    pub fn of_config(&self, config: ConfigKind) -> Vec<&DataPoint> {
        self.points.iter().filter(|p| p.config == config).collect()
    }

    /// The IBM baseline point with the given index (1-4, Figure 9 order).
    pub fn ibm_baseline(&self, index: usize) -> Option<&DataPoint> {
        self.of_config(ConfigKind::Ibm).into_iter().nth(index.checked_sub(1)?)
    }
}

/// Error running an experiment.
#[derive(Debug)]
#[non_exhaustive]
pub enum EvalError {
    /// Unknown benchmark name.
    UnknownBenchmark(qpd_benchmarks::UnknownBenchmark),
    /// Design flow failure.
    Design(DesignError),
    /// Routing failure.
    Mapping(MappingError),
    /// Yield simulation failure.
    Yield(YieldError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownBenchmark(e) => write!(f, "{e}"),
            EvalError::Design(e) => write!(f, "design flow failed: {e}"),
            EvalError::Mapping(e) => write!(f, "routing failed: {e}"),
            EvalError::Yield(e) => write!(f, "yield simulation failed: {e}"),
        }
    }
}

impl Error for EvalError {}

impl From<qpd_benchmarks::UnknownBenchmark> for EvalError {
    fn from(e: qpd_benchmarks::UnknownBenchmark) -> Self {
        EvalError::UnknownBenchmark(e)
    }
}

impl From<DesignError> for EvalError {
    fn from(e: DesignError) -> Self {
        EvalError::Design(e)
    }
}

impl From<MappingError> for EvalError {
    fn from(e: MappingError) -> Self {
        EvalError::Mapping(e)
    }
}

impl From<YieldError> for EvalError {
    fn from(e: YieldError) -> Self {
        EvalError::Yield(e)
    }
}

/// Runs the five configurations on one benchmark, producing a Figure 10
/// subfigure's worth of data.
///
/// # Errors
///
/// Returns the first failure from benchmark construction, the design
/// flow, routing, or yield simulation.
pub fn run_benchmark(name: &str, settings: &EvalSettings) -> Result<BenchmarkRun, EvalError> {
    let circuit = qpd_benchmarks::build(name)?;
    run_circuit(name, &circuit, settings)
}

/// Runs the five configurations on an arbitrary circuit (used by
/// examples to design chips for user programs).
///
/// Architecture generation submits every `eff-*` assemble of the
/// program as one seed-major batch ([`generate`]); routing then fans out
/// over the individual architectures on the shared `qpd-par` pool, all
/// routing one [`RouteProgram`] prepared up front, and
/// every point's yield comes from one
/// [`YieldSimulator::evaluate_batch`]. Results are assembled in
/// configuration order, so the output is identical for any thread
/// count.
///
/// # Errors
///
/// Same as [`run_benchmark`].
pub fn run_circuit(
    name: &str,
    circuit: &Circuit,
    settings: &EvalSettings,
) -> Result<BenchmarkRun, EvalError> {
    let profile = CouplingProfile::of(circuit);
    let sim = YieldSimulator::new()
        .with_trials(settings.yield_trials)
        .with_sigma_ghz(settings.sigma_ghz)
        .with_seed(settings.seed)
        .with_hardware(settings.hardware);

    // Normalization denominator: IBM baseline (1) = 16Q 2x8, 2-qubit
    // buses (Figure 10 normalizes performance so baseline (1) sits at 1).
    // The program is prepared for routing once; the baseline and every
    // point route it.
    let program = RouteProgram::new(circuit);
    let baseline1 = qpd_topology::ibm::ibm_16q_2x8(qpd_topology::BusMode::TwoQubitOnly);
    let baseline_gates = SabreRouter::new(&baseline1).route_stats(&program)?.total_gates;

    // One stage plan for the whole benchmark: every configuration's
    // design flow attaches to it, so the placement the configurations
    // share is computed once. Stages are pure, so sharing is
    // result-neutral.
    let plan = Arc::new(StagePlan::new());
    let kinds = ConfigKind::all();
    let flat: Vec<(ConfigKind, Architecture)> = kinds
        .iter()
        .zip(generate(&kinds, &profile, settings, &plan)?)
        .flat_map(|(&kind, archs)| archs.into_iter().map(move |arch| (kind, arch)))
        .collect();

    let routed = qpd_par::par_map(&flat, |(_, arch)| SabreRouter::new(arch).route_stats(&program));
    let requests: Vec<BatchRequest<'_>> =
        flat.iter().map(|(_, arch)| BatchRequest { simulator: sim, arch }).collect();
    let yields = YieldSimulator::evaluate_batch(&requests);
    let mut points = Vec::with_capacity(flat.len());
    for (((kind, arch), route), estimate) in flat.iter().zip(routed).zip(yields) {
        let route = route?;
        points.push(DataPoint {
            config: *kind,
            arch: arch.name().to_string(),
            qubits: arch.num_qubits(),
            four_qubit_buses: arch.four_qubit_buses().len(),
            coupling_edges: arch.coupling_edges().len(),
            total_gates: route.total_gates,
            swaps: route.swaps,
            yield_rate: estimate?.rate(),
            normalized_perf: baseline_gates as f64 / route.total_gates as f64,
        });
    }
    Ok(BenchmarkRun { benchmark: name.to_string(), qubits: circuit.num_qubits(), points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_of_small_benchmark() {
        let run = run_benchmark("sym6_145", &EvalSettings::quick()).unwrap();
        assert_eq!(run.qubits, 7);
        // All five configs contributed points.
        for kind in ConfigKind::all() {
            assert!(
                !run.of_config(kind).is_empty() || kind == ConfigKind::EffRdBus,
                "{kind} contributed nothing"
            );
        }
        // IBM baselines are ordered (1)..(4).
        let b1 = run.ibm_baseline(1).unwrap();
        assert_eq!(b1.arch, "ibm-16q-2x8-2qbus");
        assert!((b1.normalized_perf - 1.0).abs() < 1e-12, "baseline (1) defines 1.0");
        // Yields are probabilities.
        for p in &run.points {
            assert!((0.0..=1.0).contains(&p.yield_rate), "{}", p.arch);
            assert!(p.total_gates > 0);
        }
    }

    #[test]
    fn hardware_setting_redesigns_eff_but_keeps_ibm_layouts() {
        let fixed = run_benchmark("sym6_145", &EvalSettings::quick()).unwrap();
        let tc = run_benchmark(
            "sym6_145",
            &EvalSettings::quick().with_hardware(HardwareFamily::TunableCoupler),
        )
        .unwrap();
        // IBM chips are fixed layouts: routing is untouched by the
        // family (yield may move — the collision model differs).
        let b1f = fixed.ibm_baseline(1).unwrap();
        let b1t = tc.ibm_baseline(1).unwrap();
        assert_eq!(b1f.total_gates, b1t.total_gates);
        assert_eq!(b1f.arch, b1t.arch);
        // The eff flows design for the family: names carry its suffix.
        let eff = tc.of_config(ConfigKind::EffFull);
        assert!(!eff.is_empty());
        assert!(
            eff.iter().all(|p| p.arch.contains("-tc-")),
            "eff-full designs missing the family suffix"
        );
        for p in &tc.points {
            assert!((0.0..=1.0).contains(&p.yield_rate), "{}", p.arch);
        }
    }

    #[test]
    fn unknown_benchmark_error() {
        let err = run_benchmark("nope", &EvalSettings::quick()).unwrap_err();
        assert!(matches!(err, EvalError::UnknownBenchmark(_)));
    }

    #[test]
    fn eff_full_dominates_somewhere() {
        // The headline claim, on a small benchmark with reduced trials:
        // some eff-full design should have both higher yield and at
        // worst marginally lower perf than IBM's 16Q 4-bus baseline.
        let run = run_benchmark("sym6_145", &EvalSettings::quick()).unwrap();
        let b2 = run.ibm_baseline(2).unwrap();
        let best_yield = run
            .of_config(ConfigKind::EffFull)
            .into_iter()
            .map(|p| p.yield_rate)
            .fold(0.0f64, f64::max);
        assert!(
            best_yield > b2.yield_rate,
            "eff-full best yield {best_yield} vs ibm(2) {}",
            b2.yield_rate
        );
    }
}
