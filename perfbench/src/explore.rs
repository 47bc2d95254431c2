//! `explore_pareto`: one fresh Pareto exploration per program, driven
//! round by round with a checkpoint render per round, as `explore_run`
//! drives it.

use std::collections::HashMap;
use std::time::Instant;

use qpd_circuit::Circuit;
use qpd_explore::{Checkpoint, ExploreConfig, ExploreError, ExploreSpace, Explorer};

use crate::gen::program_pass;
use crate::measure::{median, quantile, run_passes, stage_names, ProgramTimes, Trace};
use crate::Outcome;

/// What one exploration produced.
pub struct Explored {
    /// The final checkpoint, rendered.
    pub render: String,
    /// Candidate evaluations (yield-stage lookups, as `explore_run`
    /// counts them).
    pub evaluations: u64,
    pub archive: usize,
    pub front: usize,
    /// Per stage, pipeline order: hits, misses, unique misses.
    pub stages: Vec<(u64, u64, u64)>,
}

/// Explores `circuit` from scratch with the default configuration.
pub fn explore(name: &str, circuit: &Circuit, trace: &Trace) -> Result<Explored, ExploreError> {
    let space = trace.span("explore.space_s", || ExploreSpace::new(circuit.clone(), 1));
    let explorer =
        trace.span("explore.new_s", || Explorer::new(space, ExploreConfig::default()))?;
    let mut state = trace.span("explore.initial_state_s", || explorer.initial_state())?;
    let config = *explorer.config();
    let render = |state: &qpd_explore::ExploreState| {
        Checkpoint {
            run: name.to_string(),
            config,
            state: state.clone(),
            stage_hit_rates: Vec::new(),
            shard: None,
        }
        .render()
    };
    let mut last = None;
    while state.rounds_done < config.rounds {
        trace.span("explore.round_s", || explorer.advance_round(&mut state))?;
        last = Some(trace.span("explore.checkpoint_render_s", || render(&state)));
    }
    let caches = explorer.caches();
    Ok(Explored {
        render: last.unwrap_or_else(|| render(&state)),
        evaluations: caches.yields.hits() + caches.yields.misses(),
        archive: state.archive.len(),
        front: state.front_indices().len(),
        stages: explorer
            .stage_stats()
            .iter()
            .map(|s| (s.hits, s.misses, s.unique_misses))
            .collect(),
    })
}

/// Byte difference between two renders of the same seeded run.
pub fn compare_renders(name: &str, first: &str, again: &str) -> Option<String> {
    (first != again).then(|| {
        let at = first
            .bytes()
            .zip(again.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(first.len().min(again.len()));
        format!("{name}: final checkpoints of two runs differ from byte {at}")
    })
}

/// Setup: build every program.
pub fn setup() -> HashMap<&'static str, Circuit> {
    qpd_benchmarks::ALL
        .iter()
        .map(|s| (s.name, qpd_benchmarks::build(s.name).expect("known program")))
        .collect()
}

pub fn run(
    circuits: &HashMap<&'static str, Circuit>,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let mut first: HashMap<&str, String> = HashMap::new();
    let mut check = |out: &mut Outcome, name: &'static str, render: String| match first.get(name) {
        None => {
            first.insert(name, render);
        }
        Some(seen) => out.mismatches(compare_renders(name, seen, &render)),
    };
    let off = Trace::off();
    let trace = Trace::default();
    let (mut untraced_s, mut traced_s) = (ProgramTimes::default(), ProgramTimes::default());
    let mut evaluations = 0u64;
    let mut sums = Sums::default();
    let start = Instant::now();
    let pass_s = run_passes(seconds, |pass| {
        for name in program_pass(seed, pass) {
            out.attempted += 1;
            let t = Instant::now();
            match explore(name, &circuits[name], &off) {
                Ok(e) => {
                    untraced_s.push(name, t.elapsed().as_secs_f64());
                    evaluations += e.evaluations;
                    check(&mut out, name, e.render);
                }
                Err(e) => out.fail(format!("{name}: {e}")),
            }
            if traced {
                let t = Instant::now();
                match explore(name, &circuits[name], &trace) {
                    Ok(e) => {
                        traced_s.push(name, t.elapsed().as_secs_f64());
                        sums.add(&e);
                        check(&mut out, name, e.render);
                    }
                    Err(e) => out.fail(format!("{name} (traced): {e}")),
                }
            }
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let passes = pass_s.len();
    out.report.push(format!("passes took {pass_s:.3?} s"));
    let runs = untraced_s.count();
    out.report
        .push(format!("explore_pareto: {runs} explorations in {passes} passes ({wall:.2} s)"));
    if traced {
        let n = traced_s.count().max(1) as f64;
        for (layer, busy) in trace.busy_s() {
            out.metrics.set(layer, busy / n);
        }
        for (stage, (hits, misses, unique)) in stage_names().into_iter().zip(&sums.stages) {
            let lookups = (hits + misses).max(1) as f64;
            out.metrics.set(format!("explore.stage.{stage}.hit_ratio"), *hits as f64 / lookups);
            out.metrics.set(format!("explore.stage.{stage}.unique_misses"), *unique as f64 / n);
        }
        out.metrics.set("explore.archive_size", sums.archive as f64 / n);
        out.metrics.set("explore.front_size", sums.front as f64 / n);
        let traced_wall = traced_s.total();
        out.coverage(trace.covered().as_secs_f64() / traced_wall);
        out.overhead(traced_wall / untraced_s.total() - 1.0);
    } else {
        if passes == 1 {
            // No program ran twice: run one again for the byte check.
            let name = program_pass(seed, 0)[0];
            match explore(name, &circuits[name], &off) {
                Ok(e) => check(&mut out, name, e.render),
                Err(e) => out.fail(format!("{name} (check): {e}")),
            }
        }
        // Every pass makes the same evaluations; the median pass time
        // sets the rate. Latency quantiles are over per-program medians.
        let rate = evaluations as f64 / passes as f64 / median(&pass_s);
        let typical = untraced_s.typical();
        let (p50, p90) = (median(&typical), quantile(&typical, 0.9));
        out.metrics.set("throughput_per_s", rate);
        out.metrics.set("latency_s.p50", p50);
        out.metrics.set("latency_s.p90", p90);
        // Every exploration starts from a fresh engine and cold caches.
        out.metrics.set("cold_latency_s.p50", p50);
        out.report.push(format!(
            "explore_pareto: explore_evals_per_s {rate:.2} ({evaluations} evaluations), explore_run_s.p50 {p50:.4} s, \
             p90 {p90:.4} s (medians of {} programs over {passes} passes)",
            typical.len()
        ));
    }
    out
}

/// Counter totals over the traced explorations.
#[derive(Default)]
struct Sums {
    stages: Vec<(u64, u64, u64)>,
    archive: usize,
    front: usize,
}

impl Sums {
    fn add(&mut self, e: &Explored) {
        self.stages.resize(e.stages.len(), (0, 0, 0));
        for (total, s) in self.stages.iter_mut().zip(&e.stages) {
            *total = (total.0 + s.0, total.1 + s.1, total.2 + s.2);
        }
        self.archive += e.archive;
        self.front += e.front;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_check_fires_on_a_corrupted_checkpoint() {
        let render = r#"{"schema":"qpd-explore-checkpoint/2","run":"x"}"#;
        assert_eq!(compare_renders("x", render, render), None);
        let corrupt = render.replace("\"x\"", "\"y\"");
        let msg = compare_renders("x", render, &corrupt).expect("mismatch reported");
        assert!(msg.contains("byte 44"), "{msg}");
        assert!(compare_renders("x", render, &render[..10]).is_some(), "truncation");
    }
}
