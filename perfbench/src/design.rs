//! `design_sweep`: the paper's Figure 10 flow, one program at a time,
//! through `qpd_eval::runner::run_benchmark` at the paper's settings.
//! Every call builds a fresh stage plan, so every stage runs cold.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use qpd_circuit::Circuit;
use qpd_core::{DesignFlow, StageCacheStats, StagePlan};
use qpd_eval::configs::{architectures, ConfigKind};
use qpd_eval::runner::{run_benchmark, BenchmarkRun, DataPoint, EvalError, EvalSettings};
use qpd_mapping::{MappedCircuit, SabreRouter};
use qpd_profile::CouplingProfile;
use qpd_topology::{Architecture, BusMode};
use qpd_yield::YieldSimulator;

use crate::gen::program_pass;
use crate::measure::{median, quantile, run_passes, ProgramTimes, Trace};
use crate::Outcome;

/// A program designed one layer call at a time, with what the checks
/// need: the routed circuits and the counters.
pub struct Replay {
    pub run: BenchmarkRun,
    pub circuit: Circuit,
    pub routed: Vec<(Architecture, MappedCircuit)>,
    pub swaps: u64,
    pub trials: u64,
    pub plan: Vec<StageCacheStats>,
}

/// `run_circuit` replayed with each call into a layer timed from outside
/// as a span, in `run_circuit`'s own order and fan-out, so the replay
/// computes exactly the points `run_benchmark` returns.
pub fn replay(name: &str, settings: &EvalSettings, trace: &Trace) -> Result<Replay, EvalError> {
    let circuit = trace.span("circuit.build_s", || qpd_benchmarks::build(name))?;
    let profile = trace.span("profile.of_s", || CouplingProfile::of(&circuit));
    let sim = YieldSimulator::new()
        .with_trials(settings.yield_trials)
        .with_sigma_ghz(settings.sigma_ghz)
        .with_seed(settings.seed)
        .with_hardware(settings.hardware);
    let baseline = qpd_topology::ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
    let baseline_gates = trace
        .span("mapping.route_s", || SabreRouter::new(&baseline).route(&circuit))?
        .stats()
        .total_gates;

    let plan = Arc::new(StagePlan::new());
    let flow = DesignFlow::new().with_plan(Arc::clone(&plan)).with_hardware(settings.hardware);
    trace.span("core.place_s", || flow.place(&profile)).map_err(EvalError::Design)?;
    trace.span("core.bus_order_s", || flow.bus_order(&profile)).map_err(EvalError::Design)?;
    let kinds = ConfigKind::all();
    let generated = qpd_par::par_map(&kinds, |&kind| {
        trace.span(&format!("core.design_s.{}", kind.label()), || {
            architectures(kind, &profile, settings, &plan)
        })
    });
    let mut flat: Vec<(ConfigKind, Architecture)> = Vec::new();
    for (kind, archs) in kinds.iter().zip(generated) {
        flat.extend(archs?.into_iter().map(|a| (*kind, a)));
    }

    let evaluated = qpd_par::par_map(&flat, |(kind, arch)| -> Result<_, EvalError> {
        let mapped = trace.span("mapping.route_s", || SabreRouter::new(arch).route(&circuit))?;
        let estimate = trace.span("yield.estimate_s", || sim.estimate(arch))?;
        let stats = mapped.stats();
        let point = DataPoint {
            config: *kind,
            arch: arch.name().to_string(),
            qubits: arch.num_qubits(),
            four_qubit_buses: arch.four_qubit_buses().len(),
            coupling_edges: arch.coupling_edges().len(),
            total_gates: stats.total_gates,
            swaps: stats.swaps,
            yield_rate: estimate.rate(),
            normalized_perf: baseline_gates as f64 / stats.total_gates as f64,
        };
        Ok((point, mapped, estimate.trials()))
    });
    let mut points = Vec::new();
    let mut routed = Vec::new();
    let (mut swaps, mut trials) = (0u64, 0u64);
    for ((_, arch), result) in flat.into_iter().zip(evaluated) {
        let (point, mapped, point_trials) = result?;
        swaps += point.swaps as u64;
        trials += point_trials;
        points.push(point);
        routed.push((arch, mapped));
    }
    let run = BenchmarkRun { benchmark: name.to_string(), qubits: circuit.num_qubits(), points };
    Ok(Replay { run, circuit, routed, swaps, trials, plan: plan.stats() })
}

/// Differences between the untraced run and the replay of one program:
/// every point's gate count, swaps and yield must agree.
pub fn compare_points(untraced: &BenchmarkRun, replayed: &BenchmarkRun) -> Vec<String> {
    let name = &untraced.benchmark;
    if untraced.points.len() != replayed.points.len() {
        return vec![format!(
            "{name}: {} points untraced, {} replayed",
            untraced.points.len(),
            replayed.points.len()
        )];
    }
    untraced
        .points
        .iter()
        .zip(&replayed.points)
        .filter(|(a, b)| {
            a.arch != b.arch
                || a.total_gates != b.total_gates
                || a.swaps != b.swaps
                || a.yield_rate.to_bits() != b.yield_rate.to_bits()
        })
        .map(|(a, b)| {
            format!(
                "{name}/{}: untraced (gates {}, swaps {}, yield {}) vs replay {} (gates {}, swaps {}, yield {})",
                a.arch, a.total_gates, a.swaps, a.yield_rate, b.arch, b.total_gates, b.swaps, b.yield_rate
            )
        })
        .collect()
}

/// Every routed circuit must implement the program on its chip.
pub fn verify_routes(
    name: &str,
    circuit: &Circuit,
    routed: &[(Architecture, MappedCircuit)],
) -> Vec<String> {
    routed
        .iter()
        .filter_map(|(arch, mapped)| {
            qpd_mapping::verify::verify_mapped(circuit, mapped, arch)
                .err()
                .map(|e| format!("{name}/{}: routed circuit fails verification: {e}", arch.name()))
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let settings = EvalSettings::default();
    let mut out = Outcome::default();
    let mut first: HashMap<&str, BenchmarkRun> = HashMap::new();
    let mut check = |out: &mut Outcome, run: BenchmarkRun| {
        let name = qpd_benchmarks::spec(&run.benchmark).expect("known program").name;
        match first.get(name) {
            None => {
                first.insert(name, run);
            }
            Some(seen) => out.mismatches(compare_points(seen, &run)),
        }
    };
    let trace = Trace::default();
    let mut counts = BTreeMap::new();
    let (mut untraced_s, mut traced_s) = (ProgramTimes::default(), ProgramTimes::default());
    let start = Instant::now();
    let pass_s = run_passes(seconds, |pass| {
        for name in program_pass(seed, pass) {
            out.attempted += 1;
            let t = Instant::now();
            match run_benchmark(name, &settings) {
                Ok(run) => {
                    untraced_s.push(name, t.elapsed().as_secs_f64());
                    check(&mut out, run);
                }
                Err(e) => out.fail(format!("{name}: {e}")),
            }
            if traced {
                let t = Instant::now();
                match replay(name, &settings, &trace) {
                    Ok(r) => {
                        traced_s.push(name, t.elapsed().as_secs_f64());
                        out.mismatches(verify_routes(name, &r.circuit, &r.routed));
                        record_counts(&mut counts, &r);
                        check(&mut out, r.run);
                    }
                    Err(e) => out.fail(format!("{name} (replay): {e}")),
                }
            }
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let passes = pass_s.len();
    out.report.push(format!("passes took {pass_s:.3?} s"));
    let programs = untraced_s.count();
    out.report.push(format!(
        "design_sweep: {programs} programs in {passes} passes of {} ({wall:.2} s)",
        qpd_benchmarks::ALL.len()
    ));
    if traced {
        let n = traced_s.count().max(1) as f64;
        for (name, total) in trace.busy_s().into_iter().chain(counts) {
            out.metrics.set(name, total / n);
        }
        let replay_wall = traced_s.total();
        out.coverage(trace.covered().as_secs_f64() / replay_wall);
        out.overhead(replay_wall / untraced_s.total() - 1.0);
    } else {
        // The check the traced run makes on every program, made here on
        // one seeded program after the timed window.
        let name = program_pass(seed, 0)[0];
        match replay(name, &settings, &Trace::off()) {
            Ok(r) => {
                out.mismatches(verify_routes(name, &r.circuit, &r.routed));
                check(&mut out, r.run);
            }
            Err(e) => out.fail(format!("{name} (replay): {e}")),
        }
        // A pass designs every program once; its median time sets the
        // rate. Latency quantiles are taken over per-program medians.
        let rate = qpd_benchmarks::ALL.len() as f64 / median(&pass_s);
        let typical = untraced_s.typical();
        let (p50, p90) = (median(&typical), quantile(&typical, 0.9));
        out.metrics.set("throughput_per_s", rate);
        out.metrics.set("latency_s.p50", p50);
        out.metrics.set("latency_s.p90", p90);
        // Every program is designed from cold caches.
        out.metrics.set("cold_latency_s.p50", p50);
        out.report.push(format!(
            "design_sweep: design_programs_per_s {rate:.4}, design_program_s.p50 {p50:.4} s, p90 {p90:.4} s \
             (medians of {} programs over {passes} passes)",
            typical.len()
        ));
    }
    out
}

/// Adds one replay's counters to the running totals.
fn record_counts(counts: &mut BTreeMap<String, f64>, r: &Replay) {
    let mut add = |name: String, v: u64| *counts.entry(name).or_insert(0.0) += v as f64;
    add("mapping.swaps".into(), r.swaps);
    add("yield.trials".into(), r.trials);
    for s in &r.plan {
        add(format!("core.plan.{}.hits", s.kind.name()), s.hits);
        add(format!("core.plan.{}.misses", s.kind.name()), s.misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(arch: &str, total_gates: usize, swaps: usize, yield_rate: f64) -> DataPoint {
        DataPoint {
            config: ConfigKind::Ibm,
            arch: arch.into(),
            qubits: 16,
            four_qubit_buses: 0,
            coupling_edges: 22,
            total_gates,
            swaps,
            yield_rate,
            normalized_perf: 1.0,
        }
    }

    #[test]
    fn point_check_fires_on_a_corrupted_point() {
        let run = |points| BenchmarkRun { benchmark: "sym6_145".into(), qubits: 7, points };
        let good = run(vec![point("a", 100, 5, 0.5), point("b", 90, 2, 0.25)]);
        assert!(compare_points(&good, &good.clone()).is_empty());
        for corrupt in
            [point("b", 91, 2, 0.25), point("b", 90, 3, 0.25), point("b", 90, 2, 0.2500001)]
        {
            let bad = run(vec![point("a", 100, 5, 0.5), corrupt]);
            assert_eq!(compare_points(&good, &bad).len(), 1);
        }
        assert_eq!(compare_points(&good, &run(vec![point("a", 100, 5, 0.5)])).len(), 1);
    }

    #[test]
    fn route_check_fires_on_a_corrupted_routing() {
        let spec = qpd_circuit::random::RandomCircuitSpec {
            num_qubits: 6,
            num_gates: 40,
            ..Default::default()
        };
        let circuit = qpd_circuit::random::random_circuit(&spec);
        let arch = qpd_topology::ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
        let mapped = SabreRouter::new(&arch).route(&circuit).unwrap();
        let routed = vec![(arch, mapped)];
        assert!(verify_routes("r", &circuit, &routed).is_empty());
        let other = qpd_circuit::random::random_circuit(&qpd_circuit::random::RandomCircuitSpec {
            seed: 1,
            ..spec
        });
        assert_eq!(verify_routes("r", &other, &routed).len(), 1, "a routing of another program");
    }
}
