//! End-to-end artifact generation: the figure outputs must stay
//! machine-consumable (CSV schema, SVG well-formedness, chip format
//! round-trips through real designed chips).

mod analytic;

use qpd::eval::plot::svg_scatter;
use qpd::eval::report::{run_csv, CSV_HEADER};
use qpd::eval::runner::{run_benchmark, EvalSettings};
use qpd::prelude::*;
use qpd::topology::format;

#[test]
fn fig10_csv_schema_is_stable() {
    let run = run_benchmark("sym6_145", &EvalSettings::quick()).unwrap();
    let csv = run_csv(&run);
    let columns = CSV_HEADER.split(',').count();
    for line in csv.lines() {
        assert_eq!(line.split(',').count(), columns, "row `{line}`");
    }
    // Every configuration label appears.
    for label in ["ibm", "eff-full", "eff-rd-bus", "eff-5-freq", "eff-layout-only"] {
        assert!(csv.contains(label), "missing {label}");
    }
}

#[test]
fn fig10_svg_renders_real_runs() {
    let run = run_benchmark("sym6_145", &EvalSettings::quick()).unwrap();
    let svg = svg_scatter(&run);
    assert!(svg.starts_with("<svg"));
    assert!(svg.trim_end().ends_with("</svg>"));
    // One circle per data point plus five legend entries.
    assert_eq!(svg.matches("<circle").count(), run.points.len() + 5);
}

#[test]
fn designed_chips_roundtrip_through_the_text_format() {
    let circuit = qpd::benchmarks::build("dc1_220").unwrap();
    let profile = CouplingProfile::of(&circuit);
    let chip = DesignFlow::new()
        .with_allocation_trials(100)
        .with_allocation_sweeps(1)
        .design(&profile)
        .unwrap();
    let text = format::to_text(&chip);
    let back = format::from_text(&text).unwrap();
    assert_eq!(back, chip);
    // The reloaded chip simulates identically.
    let sim = YieldSimulator::new().with_trials(2_000).with_seed(8);
    assert_eq!(sim.estimate(&chip).unwrap(), sim.estimate(&back).unwrap());
}

#[test]
fn analytic_screen_upper_bounds_designed_chips() {
    let circuit = qpd::benchmarks::build("sym6_145").unwrap();
    let profile = CouplingProfile::of(&circuit);
    let chip = DesignFlow::new()
        .with_allocation_trials(100)
        .with_allocation_sweeps(1)
        .design(&profile)
        .unwrap();
    let plan = chip.frequencies().unwrap();
    let analytic = analytic::pairwise_yield_estimate(
        &chip,
        plan.as_slice(),
        0.030,
        &qpd::yield_sim::CollisionParams::default(),
    );
    let mc = YieldSimulator::new().with_trials(20_000).with_seed(2).estimate(&chip).unwrap().rate();
    assert!(analytic >= mc - 0.02, "pairwise product {analytic} must upper-bound Monte Carlo {mc}");
    assert!(analytic > 0.0);
}
